//! Figure 14 — processing time of the data arrangement and calculation
//! procedures at the standard 1500 B packet size.
//!
//! Paper anchors: arrangement time falls 67 %/82 %/92 % under APCM at
//! 128/256/512 bits; under the original mechanism wider registers are
//! *slower* (+2.2 % ymm, +6.4 % zmm), under APCM they scale
//! (−49 % at 256, −51 % more at 512).

use crate::arrange::{ApcmVariant, Mechanism};
use crate::experiments::DECODER_ITERATIONS;
use crate::latency::LatencyModel;
use crate::report::{Figure, Row};
use vran_net::packet::Transport;
use vran_simd::RegWidth;
use vran_uarch::CoreConfig;

/// Run the experiment.
pub fn run() -> Figure {
    let mut f = Figure::new(
        "fig14",
        "Arrangement vs calculation time at 1500 B (µs)",
        &[
            "arrangement orig",
            "arrangement apcm",
            "reduction %",
            "calculation",
            "other",
        ],
    );
    let mut m = LatencyModel::new(CoreConfig::beefy(), DECODER_ITERATIONS);
    let apcm = Mechanism::Apcm(ApcmVariant::Shuffle);
    for w in RegWidth::ALL {
        let orig = m.packet_time(w, Mechanism::Baseline, Transport::Udp, 1500);
        let opt = m.packet_time(w, apcm, Transport::Udp, 1500);
        f.push(Row::new(
            w.name(),
            vec![
                orig.arrangement_us,
                opt.arrangement_us,
                (1.0 - opt.arrangement_us / orig.arrangement_us) * 100.0,
                orig.calculation_us,
                orig.other_us,
            ],
        ));
    }
    f.note("paper: arrangement time −67 %/−82 %/−92 % at 128/256/512 bits");
    f.note("paper: original +2.2 % (ymm) and +6.4 % (zmm) vs one width down; APCM −49 %/−51 %");
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reduction_grows_with_width_toward_paper_band() {
        let f = run();
        let r: Vec<f64> = ["SSE128", "AVX256", "AVX512"]
            .iter()
            .map(|w| f.value(w, "reduction %").unwrap())
            .collect();
        assert!(r[0] > 50.0, "128-bit reduction ≈67 %, got {:.1}", r[0]);
        assert!(r[1] > r[0], "reduction must grow with width: {r:?}");
        assert!(r[2] > r[1], "reduction must grow with width: {r:?}");
        assert!(r[2] > 85.0, "512-bit reduction ≈92 %, got {:.1}", r[2]);
    }

    #[test]
    fn original_arrangement_does_not_improve_with_width() {
        let f = run();
        let a128 = f.value("SSE128", "arrangement orig").unwrap();
        let a256 = f.value("AVX256", "arrangement orig").unwrap();
        let a512 = f.value("AVX512", "arrangement orig").unwrap();
        assert!(
            a256 >= a128 * 0.97,
            "ymm must not beat xmm: {a128} vs {a256}"
        );
        assert!(
            a512 >= a256 * 0.97,
            "zmm must not beat ymm: {a256} vs {a512}"
        );
    }

    #[test]
    fn apcm_arrangement_halves_per_width_step() {
        let f = run();
        let a128 = f.value("SSE128", "arrangement apcm").unwrap();
        let a256 = f.value("AVX256", "arrangement apcm").unwrap();
        let a512 = f.value("AVX512", "arrangement apcm").unwrap();
        assert!(a256 < a128 * 0.65, "paper −49 % at 256: {a128} → {a256}");
        assert!(a512 < a256 * 0.65, "paper −51 % at 512: {a256} → {a512}");
    }
}
