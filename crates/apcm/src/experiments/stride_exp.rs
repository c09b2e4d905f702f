//! `gen-stride` — the paper's generalization claim, quantified: APCM
//! vs the extract baseline for de-interleave strides beyond the vRAN
//! triple (complex I/Q = 2, RGBA = 4, 8-channel audio = 8).

use crate::arrange::StrideKernel;
use crate::report::{Figure, Row};
use vran_simd::RegWidth;
use vran_uarch::{CoreConfig, CoreSim};

const N: usize = 4096;

/// Run the experiment.
pub fn run() -> Figure {
    let mut f = Figure::new(
        "gen-stride",
        "APCM generalized to other de-interleave strides (SSE128)",
        &[
            "original cycles",
            "apcm cycles",
            "speedup",
            "apcm store bits/cycle",
        ],
    );
    let sim = CoreSim::new(CoreConfig::beefy().warmed());
    for s in 2..=8usize {
        let data: Vec<i16> = (0..s * N).map(|i| (i % 251) as i16 - 125).collect();
        let run = |apcm: bool| {
            let (_, t) = StrideKernel::new(RegWidth::Sse128, s, apcm).deinterleave(&data, true);
            sim.run(&t.unwrap())
        };
        let base = run(false);
        let fast = run(true);
        f.push(Row::new(
            format!("stride{s}"),
            vec![
                base.cycles as f64,
                fast.cycles as f64,
                base.cycles as f64 / fast.cycles as f64,
                fast.store_bw_bits_per_cycle,
            ],
        ));
    }
    f.note("paper §4.2: the arrangement inefficiency 'can generalize to other SIMD applications'");
    f.note("the win tapers toward stride = lane count (S² shuffles for S·L elements)");
    f
}

#[cfg(test)]
mod tests {
    #[test]
    fn every_stride_wins_and_stride2_wins_big() {
        let f = super::run();
        for r in &f.rows {
            let speedup = r.values[2];
            assert!(speedup > 1.2, "{}: {speedup:.2}×", r.label);
        }
        assert!(f.value("stride2", "speedup").unwrap() > 3.0);
    }
}
