//! Property tests for the cell-scale arrival-process generators:
//! determinism (same seed → byte-identical schedule) and
//! distributional sanity (long-run mean within band of the declared
//! rate) across randomly drawn seeds and process parameters.

use apcm::cellsim::{ArrivalGen, ArrivalProcess};
use vran_util::proptest::prelude::*;

/// The full arrival schedule of `n` TTIs.
fn schedule(process: ArrivalProcess, seed: u64, n: u64) -> Vec<u32> {
    let mut g = ArrivalGen::new(process, seed);
    (0..n).map(|t| g.draw(t)).collect()
}

/// Long-run empirical mean arrivals per TTI.
fn measured_mean(process: ArrivalProcess, seed: u64, n: u64) -> f64 {
    schedule(process, seed, n)
        .iter()
        .map(|&x| x as u64)
        .sum::<u64>() as f64
        / n as f64
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn constant_schedule_is_seed_deterministic(seed in any::<u64>(),
                                               rate_milli in 1u64..4000) {
        let p = ArrivalProcess::Constant {
            mean_per_tti: rate_milli as f64 / 1000.0,
        };
        prop_assert_eq!(schedule(p, seed, 2_000), schedule(p, seed, 2_000));
        // A different seed must not reproduce the same schedule (the
        // whole-packet part is seed-independent, so compare only when
        // the fractional part leaves room for the draw to matter).
        prop_assume!(rate_milli % 1000 != 0);
        prop_assert_ne!(schedule(p, seed, 2_000), schedule(p, seed ^ 0x5eed, 2_000));
    }

    #[test]
    fn constant_mean_is_within_band(seed in any::<u64>(), rate_milli in 1u64..4000) {
        let rate = rate_milli as f64 / 1000.0;
        let p = ArrivalProcess::Constant { mean_per_tti: rate };
        let m = measured_mean(p, seed, 50_000);
        // Bernoulli noise on the fractional part: sd ≤ 0.5/√N ≈ 0.003.
        prop_assert!(
            (m - rate).abs() < 0.02 * rate + 0.01,
            "measured {m:.4} vs declared {rate:.4}"
        );
    }

    #[test]
    fn bursty_schedule_is_deterministic_and_mean_honest(
        seed in any::<u64>(),
        on_milli in 500u64..3000,
        p_on_off_milli in 5u64..80,
        p_off_on_milli in 5u64..80,
    ) {
        let p = ArrivalProcess::Bursty {
            on_mean_per_tti: on_milli as f64 / 1000.0,
            p_on_to_off: p_on_off_milli as f64 / 1000.0,
            p_off_to_on: p_off_on_milli as f64 / 1000.0,
        };
        let a = schedule(p, seed, 3_000);
        prop_assert_eq!(&a, &schedule(p, seed, 3_000));
        // The on/off chain mixes in ~1/p TTIs; 200k TTIs give ≥ 1000
        // on/off segments at the slowest transition rates drawn here.
        let m = measured_mean(p, seed, 200_000);
        let expected = p.mean_per_tti();
        prop_assert!(
            (m - expected).abs() < 0.15 * expected + 0.02,
            "measured {m:.4} vs stationary {expected:.4}"
        );
    }

    #[test]
    fn diurnal_schedule_is_deterministic_and_mean_honest(
        seed in any::<u64>(),
        mean_milli in 200u64..2000,
        depth_pct in 0u64..101,
        period in 50u64..2000,
    ) {
        let p = ArrivalProcess::Diurnal {
            mean_per_tti: mean_milli as f64 / 1000.0,
            depth: depth_pct as f64 / 100.0,
            period_ttis: period,
        };
        let probe = 4 * period;
        prop_assert_eq!(schedule(p, seed, probe), schedule(p, seed, probe));
        // Average over whole periods: the triangle modulation cancels.
        let cycles = (60_000 / period).max(20);
        let n = cycles * period;
        let m = measured_mean(p, seed, n);
        let expected = p.mean_per_tti();
        prop_assert!(
            (m - expected).abs() < 0.05 * expected + 0.02,
            "measured {m:.4} vs declared {expected:.4} over {cycles} periods"
        );
    }

    #[test]
    fn diurnal_peak_and_trough_straddle_the_mean(
        seed in any::<u64>(),
        period in 400u64..2000,
    ) {
        // With depth 1 the quarter-period around the peak must arrive
        // strictly more than the quarter around the trough.
        let p = ArrivalProcess::Diurnal {
            mean_per_tti: 1.0,
            depth: 1.0,
            period_ttis: period,
        };
        let s = schedule(p, seed, 8 * period);
        let q = (period / 4) as usize;
        let window_sum = |start: usize| -> u64 {
            s.iter()
                .enumerate()
                .filter(|(t, _)| {
                    let phase = t % period as usize;
                    phase >= start && phase < start + q
                })
                .map(|(_, &x)| x as u64)
                .sum()
        };
        // Quarter-windows centered on the peak (phase 0.25·period) and
        // the trough (phase 0.75·period).
        let peak = window_sum(period as usize / 8);
        let trough = window_sum(5 * period as usize / 8);
        prop_assert!(
            peak > trough,
            "peak window {peak} must exceed trough window {trough}"
        );
    }
}
