//! Figure 8b — register↔L1 memory-bandwidth utilization of the data
//! arrangement process, original vs APCM, across register widths.
//!
//! The paper's analysis: the original mechanism stores 16 bits at a
//! time, using 12.5 % (xmm), 6.25 % (ymm) and 3.125 % (zmm) of the
//! store path, ≈16 bits/cycle; APCM reaches ≈67/134/270 bits/cycle —
//! a 4×–16× improvement (§ Abstract, §5.1).

use crate::arrange::{ApcmVariant, ArrangeKernel, Mechanism};
use crate::report::{Figure, Row};
use vran_net::pipeline::synthetic_interleaved;
use vran_simd::RegWidth;
use vran_uarch::{CoreConfig, CoreSim};

/// Triples per kernel run (one maximum-size code block).
const K: usize = 6144;

/// Run the experiment.
pub fn run() -> Figure {
    let mut f = Figure::new(
        "fig8",
        "Store-path bandwidth of the data arrangement process",
        &["store bits/cycle", "utilization %", "speedup vs original"],
    );
    let sim = CoreSim::new(CoreConfig::beefy().warmed());
    let input = synthetic_interleaved(K, 3);
    for width in RegWidth::ALL {
        let mut base_bw = 0.0;
        for mech in [Mechanism::Baseline, Mechanism::Apcm(ApcmVariant::Shuffle)] {
            let (_, trace) = ArrangeKernel::new(width, mech).arrange(&input, true);
            let r = sim.run(&trace.expect("tracing"));
            let bw = r.store_bw_bits_per_cycle;
            if mech == Mechanism::Baseline {
                base_bw = bw;
            }
            f.push(Row::new(
                format!("{}/{}", width.name(), mech.name()),
                vec![
                    bw,
                    r.store_bw_utilization(width.bits()) * 100.0,
                    bw / base_bw,
                ],
            ));
        }
    }
    f.note("paper: original ≈16 bits/cycle (12.5 %/6.25 %/3.125 % of the path)");
    f.note("paper: APCM ≈67/134/270 bits/cycle → 4×–16× better utilization");
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apcm_bandwidth_gain_is_4x_to_16x() {
        let f = run();
        let s128 = f.value("SSE128/apcm", "speedup vs original").unwrap();
        let s512 = f.value("AVX512/apcm", "speedup vs original").unwrap();
        assert!(
            (3.0..=8.0).contains(&s128),
            "xmm speedup ≈4×, got {s128:.1}"
        );
        assert!(s512 >= 10.0, "zmm speedup ≈16×, got {s512:.1}");
        assert!(s512 > s128, "gain must grow with width");
    }

    #[test]
    fn original_utilization_is_poor_and_shrinks_with_width() {
        let f = run();
        let u128 = f.value("SSE128/original", "utilization %").unwrap();
        let u512 = f.value("AVX512/original", "utilization %").unwrap();
        assert!(u128 < 25.0, "xmm original ≈12.5 %, got {u128:.1}");
        assert!(u512 < u128, "wider registers waste more of the path");
    }

    #[test]
    fn apcm_bits_per_cycle_band() {
        let f = run();
        let b = f.value("SSE128/apcm", "store bits/cycle").unwrap();
        assert!(
            (40.0..110.0).contains(&b),
            "paper says ≈67 bits/cycle, got {b:.0}"
        );
        let z = f.value("AVX512/apcm", "store bits/cycle").unwrap();
        assert!(z > 180.0, "paper says ≈270 bits/cycle at zmm, got {z:.0}");
    }
}
