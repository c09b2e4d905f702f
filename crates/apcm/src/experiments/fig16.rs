//! Figure 16 — per-core bandwidth and cores required for a 300 Mbps
//! eNodeB, original mechanism vs APCM.
//!
//! Paper anchors: Mbps/core 16.4→18.5 (SSE), 21.6→26.0 (AVX2),
//! 25.5→32.9 (AVX512); cores for 300 Mbps 18→16, 14→12, 12→9.

use crate::arrange::{ApcmVariant, Mechanism};
use crate::experiments::DECODER_ITERATIONS;
use crate::latency::LatencyModel;
use crate::report::{Figure, Row};
use vran_simd::RegWidth;
use vran_uarch::CoreConfig;

/// Target station bandwidth (Mbps) per the paper's reference \[19\].
pub const TARGET_MBPS: f64 = 300.0;

/// Run the experiment.
pub fn run() -> Figure {
    let mut f = Figure::new(
        "fig16",
        "Bandwidth per core and cores for 300 Mbps",
        &[
            "Mbps/core orig",
            "Mbps/core apcm",
            "cores orig",
            "cores apcm",
        ],
    );
    let mut m = LatencyModel::new(CoreConfig::beefy(), DECODER_ITERATIONS);
    let apcm = Mechanism::Apcm(ApcmVariant::Shuffle);
    for w in RegWidth::ALL {
        f.push(Row::new(
            w.name(),
            vec![
                m.mbps_per_core(w, Mechanism::Baseline),
                m.mbps_per_core(w, apcm),
                m.cores_for(w, Mechanism::Baseline, TARGET_MBPS) as f64,
                m.cores_for(w, apcm, TARGET_MBPS) as f64,
            ],
        ));
    }
    f.note("paper: 16.4→18.5, 21.6→26.0, 25.5→32.9 Mbps/core (system utilization +12 %…+29 %)");
    f.note("paper: cores for 300 Mbps 18→16, 14→12, 12→9");
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apcm_raises_per_core_bandwidth_everywhere() {
        let f = run();
        for w in ["SSE128", "AVX256", "AVX512"] {
            let o = f.value(w, "Mbps/core orig").unwrap();
            let a = f.value(w, "Mbps/core apcm").unwrap();
            let gain = a / o - 1.0;
            assert!(
                (0.04..0.60).contains(&gain),
                "{w}: paper band is +12 %…+29 %, got {:.1} %",
                gain * 100.0
            );
        }
    }

    #[test]
    fn gain_grows_with_register_width() {
        let f = run();
        let g =
            |w: &str| f.value(w, "Mbps/core apcm").unwrap() / f.value(w, "Mbps/core orig").unwrap();
        assert!(g("AVX512") > g("SSE128"), "widest registers benefit most");
    }

    #[test]
    fn cores_never_increase_and_drop_at_avx512() {
        let f = run();
        for w in ["SSE128", "AVX256", "AVX512"] {
            let o = f.value(w, "cores orig").unwrap();
            let a = f.value(w, "cores apcm").unwrap();
            assert!(a <= o, "{w}: APCM must not need more cores ({o} → {a})");
        }
        let o512 = f.value("AVX512", "cores orig").unwrap();
        let a512 = f.value("AVX512", "cores apcm").unwrap();
        assert!(a512 < o512, "AVX512 must save whole cores");
    }

    #[test]
    fn wider_registers_mean_fewer_cores() {
        let f = run();
        let c128 = f.value("SSE128", "cores apcm").unwrap();
        let c512 = f.value("AVX512", "cores apcm").unwrap();
        assert!(c512 < c128);
    }
}
