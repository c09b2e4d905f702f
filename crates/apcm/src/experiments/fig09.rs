//! Figure 9 — SIMD module processing time under SSE128/AVX256/AVX512:
//! the data arrangement's share of decoding, original vs APCM.
//!
//! Paper anchors: arrangement share of module time 13 %/17 %/19.5 %
//! (original) → 4.7 %/3.4 %/1.8 % (APCM); calculation time shrinks as
//! registers widen while the original arrangement does not.

use crate::arrange::{ApcmVariant, Mechanism};
use crate::experiments::DECODER_ITERATIONS;
use crate::latency::LatencyModel;
use crate::report::{Figure, Row};
use vran_simd::RegWidth;
use vran_uarch::CoreConfig;

/// Block volume: one maximum-size code block per pass.
const STEPS: usize = 6144;

/// Run the experiment.
pub fn run() -> Figure {
    let mut f = Figure::new(
        "fig9",
        "SIMD module processing time per code block (µs)",
        &[
            "arrangement orig",
            "arrangement apcm",
            "calculation",
            "share orig %",
            "share apcm %",
        ],
    );
    let mut m = LatencyModel::new(CoreConfig::beefy(), DECODER_ITERATIONS);
    let apcm = Mechanism::Apcm(ApcmVariant::Shuffle);
    let freq_hz = m.core().freq_ghz * 1e9;
    let passes = 2.0 * DECODER_ITERATIONS as f64;
    for w in RegWidth::ALL {
        let arr_o = m.arrangement_cycles(w, Mechanism::Baseline, STEPS) * passes / freq_hz * 1e6;
        let arr_a = m.arrangement_cycles(w, apcm, STEPS) * passes / freq_hz * 1e6;
        let calc = m.decoder_cycles(w, STEPS) / freq_hz * 1e6;
        f.push(Row::new(
            w.name(),
            vec![
                arr_o,
                arr_a,
                calc,
                arr_o / (arr_o + calc) * 100.0,
                arr_a / (arr_a + calc) * 100.0,
            ],
        ));
    }
    f.note("paper: arrangement share 13/17/19.5 % (orig) → 4.7/3.4/1.8 % (APCM)");
    f.note("paper: with APCM the arrangement stops being a hotspot as width grows");
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn original_share_grows_with_width_apcm_share_shrinks() {
        let f = run();
        let so: Vec<f64> = ["SSE128", "AVX256", "AVX512"]
            .iter()
            .map(|w| f.value(w, "share orig %").unwrap())
            .collect();
        let sa: Vec<f64> = ["SSE128", "AVX256", "AVX512"]
            .iter()
            .map(|w| f.value(w, "share apcm %").unwrap())
            .collect();
        assert!(so[2] > so[0], "original share must grow with width: {so:?}");
        assert!(sa[2] < sa[0], "APCM share must shrink with width: {sa:?}");
        assert!(
            sa.iter().zip(&so).all(|(a, o)| a < o),
            "APCM always below original"
        );
    }

    #[test]
    fn calculation_time_scales_with_width() {
        let f = run();
        let c128 = f.value("SSE128", "calculation").unwrap();
        let c512 = f.value("AVX512", "calculation").unwrap();
        assert!(
            c512 < c128,
            "wider registers must accelerate the calculation phase: {c128} vs {c512}"
        );
    }

    #[test]
    fn apcm_share_is_small() {
        let f = run();
        for w in ["SSE128", "AVX256", "AVX512"] {
            let s = f.value(w, "share apcm %").unwrap();
            assert!(
                s < 15.0,
                "{w}: APCM arrangement share must be minor, got {s:.1}%"
            );
        }
    }
}
