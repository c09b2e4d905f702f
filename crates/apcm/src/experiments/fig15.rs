//! Figure 15 — top-down breakdown and IPC of the data arrangement
//! process, original vs APCM, per register width.
//!
//! Paper anchors: retiring 55.6/52/48 % → 97/96/95 %; backend bound
//! 44.4/48.2/52 % → 3/4/5 %; IPC 1.2/1.1/1.05 → 3.6/3.5/3.3.

use crate::arrange::{ApcmVariant, ArrangeKernel, Mechanism};
use crate::report::{Figure, Row};
use vran_net::pipeline::synthetic_interleaved;
use vran_simd::RegWidth;
use vran_uarch::{CoreConfig, CoreSim};

const K: usize = 6144;

/// Run the experiment.
pub fn run() -> Figure {
    let mut f = Figure::new(
        "fig15",
        "Micro-architecture value under original mechanism and APCM",
        &["retiring", "frontend", "bad speculation", "backend", "IPC"],
    );
    let sim = CoreSim::new(CoreConfig::beefy().warmed());
    let input = synthetic_interleaved(K, 11);
    for width in RegWidth::ALL {
        for mech in [
            Mechanism::Baseline,
            Mechanism::Apcm(ApcmVariant::Shuffle),
            Mechanism::Apcm(ApcmVariant::MaskMerge),
        ] {
            let (_, trace) = ArrangeKernel::new(width, mech).arrange(&input, true);
            let r = sim.run(&trace.expect("tracing"));
            f.push(Row::new(
                format!("{}/{}", width.name(), mech.name()),
                vec![
                    r.topdown.retiring,
                    r.topdown.frontend,
                    r.topdown.bad_speculation,
                    r.topdown.backend(),
                    r.ipc,
                ],
            ));
        }
    }
    f.note("paper: backend 44.4/48.2/52 % → 3/4/5 %; IPC 1.2/1.1/1.05 → 3.6/3.5/3.3");
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backend_bound_collapses_under_apcm() {
        let f = run();
        for w in ["SSE128", "AVX256", "AVX512"] {
            let orig = f.value(&format!("{w}/original"), "backend").unwrap();
            let apcm = f.value(&format!("{w}/apcm"), "backend").unwrap();
            assert!(orig > 0.3, "{w}: original backend ≈45-52 %, got {orig:.2}");
            assert!(apcm < 0.25, "{w}: APCM backend ≈3-5 %, got {apcm:.2}");
            assert!(
                apcm < orig / 2.0,
                "{w}: backbone claim, {orig:.2} → {apcm:.2}"
            );
        }
    }

    #[test]
    fn ipc_soars_under_apcm() {
        let f = run();
        for w in ["SSE128", "AVX256", "AVX512"] {
            let orig = f.value(&format!("{w}/original"), "IPC").unwrap();
            let apcm = f.value(&format!("{w}/apcm"), "IPC").unwrap();
            assert!(orig < 1.8, "{w}: original IPC ≈1.05-1.2, got {orig:.2}");
            assert!(apcm > 2.4, "{w}: APCM IPC ≈3.3-3.6, got {apcm:.2}");
        }
    }

    #[test]
    fn retiring_rises_under_apcm() {
        let f = run();
        let orig = f.value("SSE128/original", "retiring").unwrap();
        let apcm = f.value("SSE128/apcm", "retiring").unwrap();
        assert!(orig < 0.7, "original retiring ≈55 %, got {orig:.2}");
        assert!(apcm > 0.7, "APCM retiring ≈97 %, got {apcm:.2}");
    }

    #[test]
    fn fused_ingest_keeps_the_apcm_microarchitecture_shape() {
        // The uplink hot path's fused mask/merge ingest must not give
        // back the paper's win: backend bound stays collapsed and IPC
        // stays in the APCM band at every width.
        let f = run();
        for w in ["SSE128", "AVX256", "AVX512"] {
            let orig_be = f.value(&format!("{w}/original"), "backend").unwrap();
            let fused_be = f.value(&format!("{w}/apcm-fused"), "backend").unwrap();
            assert!(
                fused_be < 0.25,
                "{w}: fused backend must collapse, got {fused_be:.2}"
            );
            assert!(
                fused_be < orig_be / 2.0,
                "{w}: {orig_be:.2} → {fused_be:.2}"
            );
            let ipc = f.value(&format!("{w}/apcm-fused"), "IPC").unwrap();
            assert!(ipc > 2.4, "{w}: fused IPC in the APCM band, got {ipc:.2}");
            let ret = f.value(&format!("{w}/apcm-fused"), "retiring").unwrap();
            assert!(ret > 0.7, "{w}: fused retiring ≈95 %, got {ret:.2}");
        }
    }

    #[test]
    fn fused_ingest_congregates_on_the_alu_ports() {
        // Port-pressure shape of the fused zmm kernel: the vpand/vpor
        // congregation lands on the vector-ALU ports P0-P2, store
        // traffic drops to whole-register writes on P6/P7, and the
        // class mix is ALU-dominated — the Figure 2 consciousness the
        // paper's mechanism is named for.
        let sim = CoreSim::new(CoreConfig::beefy().warmed());
        let input = synthetic_interleaved(K, 11);
        let trace = |mech| {
            let (_, t) = ArrangeKernel::new(RegWidth::Avx512, mech).arrange(&input, true);
            t.expect("tracing")
        };
        let fused = sim.run(&trace(Mechanism::Apcm(ApcmVariant::MaskMerge)));
        let orig = sim.run(&trace(Mechanism::Baseline));
        let alu = |r: &vran_uarch::SimReport| r.port_util[0] + r.port_util[1] + r.port_util[2];
        let stores = |r: &vran_uarch::SimReport| r.port_util[6] + r.port_util[7];
        assert!(
            alu(&fused) > stores(&fused),
            "fused work lives on the ALU ports: alu {:.2} vs stores {:.2}",
            alu(&fused),
            stores(&fused)
        );
        assert!(
            stores(&fused) < stores(&orig) / 2.0,
            "whole-register stores relieve P6/P7: {:.2} vs {:.2}",
            stores(&fused),
            stores(&orig)
        );
        assert!(
            fused.class_hist.vec_alu > fused.class_hist.store,
            "ALU-dominated class mix: {:?}",
            fused.class_hist
        );
        assert_eq!(
            orig.class_hist.vec_alu, 0,
            "original issues no vector ALU work"
        );
    }

    #[test]
    fn original_ipc_declines_with_width() {
        let f = run();
        let i128 = f.value("SSE128/original", "IPC").unwrap();
        let i512 = f.value("AVX512/original", "IPC").unwrap();
        assert!(i512 <= i128 + 0.05, "paper: 1.2 → 1.05 going wider");
    }
}
