//! Window-batching measurement (`abl-batch`): the real batched decoder
//! from [`crate::turbo::batch_decoder`] vs serial single-block
//! decodes, validating the √B batching-efficiency factor the latency
//! model assumes (EXPERIMENTS.md "Calibration").

use crate::report::{Figure, Row};
use crate::turbo::batch_decoder::BatchTurboDecoder;
use crate::turbo::simd_decoder::SimdTurboDecoder;
use vran_phy::bits::random_bits;
use vran_phy::llr::{bit_to_llr, TurboLlrs};
use vran_phy::turbo::TurboEncoder;
use vran_simd::RegWidth;
use vran_uarch::{CoreConfig, CoreSim};

const K: usize = 256;

fn input(seed: u64) -> TurboLlrs {
    let bits = random_bits(K, seed);
    let cw = TurboEncoder::new(K).encode(&bits);
    let d = cw.to_dstreams();
    let soft: [Vec<i16>; 3] = d
        .iter()
        .map(|s| s.iter().map(|&b| bit_to_llr(b, 50)).collect())
        .collect::<Vec<_>>()
        .try_into()
        .unwrap();
    TurboLlrs::from_dstreams(&soft, K)
}

/// Run the measurement.
pub fn run() -> Figure {
    let mut f = Figure::new(
        "abl-batch",
        "Batched multi-window decoding: cycles per block per iteration",
        &["cycles/block", "speedup vs xmm", "model (sqrt B)"],
    );
    let sim = CoreSim::new(CoreConfig::beefy().warmed());
    let (_, single_trace) =
        SimdTurboDecoder::new(K, 1, RegWidth::Sse128).decode_traced(&input(1), 1);
    let single = sim.run(&single_trace).cycles as f64;
    f.push(Row::new("xmm x1", vec![single, 1.0, 1.0]));
    for width in [RegWidth::Avx256, RegWidth::Avx512] {
        let b = width.lanes128();
        let inputs: Vec<TurboLlrs> = (0..b as u64).map(|g| input(10 + g)).collect();
        let batch = BatchTurboDecoder::new(K, 1, width);
        let (_, trace) = batch.decode_traced(&inputs, 1);
        let cycles = sim.run(&trace).cycles as f64 / b as f64;
        f.push(Row::new(
            format!("{} x{}", width.reg_name(), b),
            vec![cycles, single / cycles, (b as f64).sqrt()],
        ));
    }
    f.note("the latency model charges decoder cycles / sqrt(B); this measures the real kernel");
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batching_speedup_brackets_the_model() {
        let f = run();
        let s2 = f.value("ymm x2", "speedup vs xmm").unwrap();
        let s4 = f.value("zmm x4", "speedup vs xmm").unwrap();
        assert!(s2 > 1.0 && s2 <= 2.2, "ymm batching speedup {s2:.2}");
        assert!(
            s4 > s2,
            "zmm must batch better than ymm: {s2:.2} vs {s4:.2}"
        );
        assert!(s4 <= 4.4, "cannot beat the lane advantage: {s4:.2}");
        // the √B model is the deliberately conservative floor (it also
        // absorbs end-to-end overheads the pure kernel doesn't pay);
        // the measured kernel must sit between the model and ideal
        let m2 = f.value("ymm x2", "model (sqrt B)").unwrap();
        let m4 = f.value("zmm x4", "model (sqrt B)").unwrap();
        assert!(
            s2 >= m2 * 0.85,
            "B=2 kernel far below model: {s2:.2} vs {m2:.2}"
        );
        assert!(
            s4 >= m4 * 0.85,
            "B=4 kernel far below model: {s4:.2} vs {m4:.2}"
        );
    }
}
