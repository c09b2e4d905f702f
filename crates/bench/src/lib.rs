//! # vran-bench — shared helpers for the Criterion benchmark harness
//!
//! One bench target per evaluation artifact (see `benches/`):
//!
//! | bench | covers |
//! |---|---|
//! | `arrangement` | Figs 8/14/15 — VM kernels, native evaluation mode |
//! | `native_arrange` | real-hardware `std::arch` original vs APCM |
//! | `turbo` | Figs 3/9 — decoder cost per block size |
//! | `packet_pipeline` | Fig 13 — per-packet processing wall clock |
//! | `phy_substrate` | component costs (FFT, CRC, scrambler, …) |
//! | `simulator` | `vran-uarch` simulation throughput (µops/s) |
//!
//! The micro-architectural *figures* themselves are regenerated by the
//! deterministic simulator (`cargo run -p apcm --bin figures -- all`);
//! the benches demonstrate the same effects in wall-clock time on the
//! host CPU.

#![forbid(unsafe_code)]

pub mod cellscale;
pub mod gate;
pub mod harness;
pub mod summary;

use vran_phy::bits::random_bits;
use vran_phy::llr::{bit_to_llr, InterleavedLlrs, TurboLlrs};
use vran_phy::turbo::TurboEncoder;

/// A reproducible interleaved-LLR workload of `k` triples.
pub fn interleaved_workload(k: usize, seed: u64) -> InterleavedLlrs {
    vran_net::pipeline::synthetic_interleaved(k, seed)
}

/// A decodable noiseless `TurboLlrs` block of size `k`.
pub fn turbo_workload(k: usize, seed: u64) -> (Vec<u8>, TurboLlrs) {
    let bits = random_bits(k, seed);
    let cw = TurboEncoder::new(k).encode(&bits);
    let d = cw.to_dstreams();
    let soft: [Vec<i16>; 3] = d
        .iter()
        .map(|s| s.iter().map(|&b| bit_to_llr(b, 60)).collect())
        .collect::<Vec<_>>()
        .try_into()
        .unwrap();
    let input = TurboLlrs::from_dstreams(&soft, k);
    (bits, input)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workloads_are_reproducible() {
        assert_eq!(interleaved_workload(96, 1), interleaved_workload(96, 1));
        let (b1, t1) = turbo_workload(104, 2);
        let (b2, t2) = turbo_workload(104, 2);
        assert_eq!(b1, b2);
        assert_eq!(t1, t2);
    }
}
