//! The `ofdm_exactness` sweep: every FFT tier the host has vs the
//! scalar tier and vs a textbook radix-2 transform, bit for bit, plus
//! the transform's accuracy against an f64 reference DFT and the OFDM
//! symbol invariants on top of it.
//!
//! The engine only *places* the radix-2 decimation-in-time butterflies
//! differently (planes, tiles, fused stage pairs); `textbook` below
//! does the same multiplies, adds and subtracts in the plainest order
//! there is, so "exact" means `to_bits`-equal to it and to
//! `fft_with(HostIsa::Scalar, …)`, and "right" means close to the O(N²)
//! f64 DFT.
//!
//! Lives in its own integration-test binary because the ISA ceiling is
//! process-global (same rule as `frontend_exactness`); a single
//! `#[test]` loops the ceilings so masked regions never overlap.

use vran_phy::modulation::Cplx;
use vran_phy::ofdm::{fft, fft_with, OfdmConfig};
use vran_simd::host::{self, set_isa_ceiling, HostIsa};
use vran_util::rng::SmallRng;

const SIZES: [usize; 11] = [4, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096];

fn bits(v: &[Cplx]) -> Vec<(u32, u32)> {
    v.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
}

fn random(n: usize, rng: &mut SmallRng) -> Vec<Cplx> {
    (0..n)
        .map(|_| Cplx::new(rng.gen_range_f32(-2.0, 2.0), rng.gen_range_f32(-2.0, 2.0)))
        .collect()
}

/// Unit-amplitude samples of random phase.
fn unit_amplitude(n: usize, rng: &mut SmallRng) -> Vec<Cplx> {
    (0..n)
        .map(|_| {
            let ph = rng.gen_range_f32(0.0, std::f32::consts::TAU);
            Cplx::new(ph.cos(), ph.sin())
        })
        .collect()
}

/// Forward DFT by the definition, in f64.
fn dft_f64(x: &[Cplx]) -> Vec<(f64, f64)> {
    let n = x.len();
    (0..n)
        .map(|k| {
            x.iter().enumerate().fold((0.0, 0.0), |(re, im), (i, v)| {
                let ang = -std::f64::consts::TAU * ((k * i) % n) as f64 / n as f64;
                let (s, c) = ang.sin_cos();
                let (a, b) = (v.re as f64, v.im as f64);
                (re + a * c - b * s, im + a * s + b * c)
            })
        })
        .collect()
}

/// The textbook in-place radix-2 decimation-in-time transform: bit
/// reversal, then stages of half-length `h = 1, 2, … N/2` doing
/// `t = b·w; (a, b) = (a + t, a − t)` with `w = e^{∓iπk/h}` rounded from
/// f64. The inverse exchanges re and im on the way in and out (the
/// engine's definition) and scales by 1/N.
fn textbook(x: &mut [Cplx], inverse: bool) {
    let n = x.len();
    let flip = |v: &mut [Cplx]| {
        v.iter_mut()
            .filter(|_| inverse)
            .for_each(|c| *c = Cplx::new(c.im, c.re))
    };
    flip(x);
    for j in 0..n {
        let r = j.reverse_bits() >> (usize::BITS - n.trailing_zeros());
        if j < r {
            x.swap(j, r);
        }
    }
    for h in std::iter::successors(Some(1), |h| Some(2 * h)).take_while(|&h| h < n) {
        for start in (0..n).step_by(2 * h) {
            for k in 0..h {
                let ang = -std::f64::consts::PI * k as f64 / h as f64;
                let (wr, wi) = (ang.cos() as f32, ang.sin() as f32);
                let (a, b) = (x[start + k], x[start + k + h]);
                let t = Cplx::new(b.re * wr - b.im * wi, b.re * wi + b.im * wr);
                x[start + k] = Cplx::new(a.re + t.re, a.im + t.im);
                x[start + k + h] = Cplx::new(a.re - t.re, a.im - t.im);
            }
        }
    }
    flip(x);
    let scale = if inverse { 1.0 / n as f32 } else { 1.0 };
    x.iter_mut()
        .for_each(|c| *c = Cplx::new(c.re * scale, c.im * scale));
}

/// Every available tier, both directions, every size, with the input
/// placed at every element misalignment 0..15 of its allocation.
fn tiers_match_scalar(rng: &mut SmallRng) {
    for n in SIZES {
        for inverse in [false, true] {
            let input = random(n, rng);
            let mut want = input.clone();
            fft_with(HostIsa::Scalar, &mut want, inverse);
            let want = bits(&want);
            let mut plain = input.clone();
            textbook(&mut plain, inverse);
            assert_eq!(
                want,
                bits(&plain),
                "scalar tier vs textbook at N={n} inverse={inverse}"
            );
            for tier in host::available() {
                for offset in 0..16 {
                    let mut arena = vec![Cplx::default(); n + 16];
                    arena[offset..offset + n].copy_from_slice(&input);
                    fft_with(tier, &mut arena[offset..offset + n], inverse);
                    assert_eq!(
                        bits(&arena[offset..offset + n]),
                        want,
                        "{} tier differs from scalar at N={n} inverse={inverse} offset={offset}",
                        tier.name()
                    );
                }
            }
            let mut auto = input;
            fft(&mut auto, inverse);
            assert_eq!(bits(&auto), want, "dispatched fft at N={n}");
        }
    }
}

/// A symbol stream through the modulator and back, as raw bits: the
/// time-domain samples followed by the demodulated subcarriers.
fn stream_bits(cfg: &OfdmConfig, syms: &[Cplx]) -> Vec<(u32, u32)> {
    let mut air = cfg.modulate_stream(syms);
    let back = cfg.demodulate_stream(&air, syms.len());
    air.extend(back);
    bits(&air)
}

/// Stream lengths either side of every scalar tail the vector
/// (de)interleaves have: the 150-bin halves of one grid, a whole grid,
/// a second symbol, and a long ragged stream.
const TAILS: [usize; 8] = [1, 149, 150, 151, 299, 300, 301, 1450];

/// The stream entry points over the first `n` of `syms`, for every `n`
/// of `TAILS` and with the input at every element misalignment 0..15,
/// ending flush with its allocation (so does the output: its capacity
/// is exact). Returns, per `n`, the bits every placement agreed on.
fn streams_at_the_tails(cfg: &OfdmConfig, syms: &[Cplx]) -> Vec<Vec<(u32, u32)>> {
    let flush = |v: &[Cplx], offset: usize| [&vec![Cplx::default(); offset], v].concat();
    TAILS
        .iter()
        .map(|&n| {
            let want = stream_bits(cfg, &syms[..n]);
            let n_air = n.div_ceil(cfg.used_subcarriers) * cfg.symbol_len();
            for offset in 0..16 {
                let (grid, mut air) = (flush(&syms[..n], offset), Vec::with_capacity(n_air));
                cfg.modulate_stream_into(&grid[offset..], &mut air);
                assert_eq!(bits(&air), want[..n_air], "modulate n={n} offset={offset}");
                let (air, mut back) = (flush(&air, offset), Vec::with_capacity(n));
                cfg.demodulate_stream_into(&air[offset..], n, &mut back);
                assert_eq!(
                    bits(&back),
                    want[n_air..],
                    "demodulate n={n} offset={offset}"
                );
            }
            want
        })
        .collect()
}

#[test]
fn every_tier_is_bit_identical_to_scalar_and_close_to_f64() {
    let host_tiers = host::available();
    let cfg = OfdmConfig::lte5mhz();
    let mut rng = SmallRng::seed_from_u64(0x0FD3);
    let syms = unit_amplitude(1450, &mut rng);

    set_isa_ceiling(Some(HostIsa::Scalar));
    let scalar_stream = stream_bits(&cfg, &syms);
    let scalar_tails = streams_at_the_tails(&cfg, &syms);
    if host_tiers.contains(&HostIsa::Sse2) {
        let above = std::panic::catch_unwind(|| {
            fft_with(HostIsa::Sse2, &mut [Cplx::default(); 64], false);
        });
        assert!(above.is_err(), "a tier above the ceiling must be refused");
    }

    for &ceiling in &host_tiers {
        set_isa_ceiling(Some(ceiling));
        assert_eq!(host::best(), ceiling);
        tiers_match_scalar(&mut rng);
        assert_eq!(
            stream_bits(&cfg, &syms),
            scalar_stream,
            "OFDM stream under the {} ceiling",
            ceiling.name()
        );
        assert_eq!(
            streams_at_the_tails(&cfg, &syms),
            scalar_tails,
            "stream tails under the {} ceiling",
            ceiling.name()
        );
    }
    set_isa_ceiling(None);

    // accuracy: N = 512, unit-amplitude input, absolute error per bin
    let x = unit_amplitude(512, &mut rng);
    let want = dft_f64(&x);
    let mut got = x;
    fft(&mut got, false);
    let err = got
        .iter()
        .zip(&want)
        .map(|(g, w)| (g.re as f64 - w.0).abs().max((g.im as f64 - w.1).abs()))
        .fold(0.0, f64::max);
    assert!(err <= 1e-4, "max error vs the f64 DFT is {err:e}");

    // the symbol invariants on top of the transform
    let air = cfg.modulate_stream(&syms);
    assert_eq!(air.len(), 5 * cfg.symbol_len());
    for sym in air.chunks_exact(cfg.symbol_len()) {
        assert_eq!(
            &sym[..cfg.cp_len],
            &sym[cfg.fft_size..],
            "CP is a prefix copy"
        );
    }
    let back = cfg.demodulate_stream(&air, syms.len());
    assert_eq!(back.len(), syms.len());
    for (a, b) in back.iter().zip(&syms) {
        assert!(
            (a.re - b.re).abs() < 1e-5 && (a.im - b.im).abs() < 1e-5,
            "{a:?} vs {b:?}"
        );
    }
}
