//! # vran-phy — LTE Layer-1 physical layer in Rust
//!
//! A from-scratch implementation of the OAI signal-processing chain the
//! paper profiles (§3.1): CRC attachment, code-block segmentation, the
//! 3GPP TS 36.212 rate-1/3 turbo code (QPP interleaver, 8-state RSC
//! constituents, trellis termination), rate matching (sub-block
//! interleaver + circular buffer), TS 36.211 Gold-sequence scrambling,
//! QPSK/16-QAM/64-QAM mapping with max-log soft demapping, OFDM
//! (planned native-SIMD radix-2 FFT + cyclic prefix) and the PDCCH
//! convolutional code with a
//! tail-biting Viterbi decoder (DCI path).
//!
//! Every module is a production kernel (runtime-dispatched `std::arch`
//! tiers) or the scalar oracle it is checked against. The `vran-simd`
//! VM twins that feed the `vran-uarch` simulator for the paper's
//! figures are instruments and live with the experiments, in `apcm`.
//!
//! The data the paper's arrangement process shuffles — interleaved
//! systematic/parity LLR triples — is produced here ([`llr`]) and
//! consumed here (the decoder), so `vran-arrange` can be validated
//! end-to-end: both arrangement mechanisms must yield bit-identical
//! decoded transport blocks.
//!
//! # Example
//!
//! ```
//! use vran_phy::bits::random_bits;
//! use vran_phy::llr::{bit_to_llr, TurboLlrs};
//! use vran_phy::turbo::{TurboDecoder, TurboEncoder};
//!
//! let bits = random_bits(104, 7);
//! let codeword = TurboEncoder::new(104).encode(&bits);
//!
//! // hard-decision LLRs from the three output streams
//! let d = codeword.to_dstreams();
//! let soft: [Vec<i16>; 3] = d
//!     .iter()
//!     .map(|s| s.iter().map(|&b| bit_to_llr(b, 60)).collect())
//!     .collect::<Vec<_>>()
//!     .try_into()
//!     .unwrap();
//!
//! let input = TurboLlrs::from_dstreams(&soft, 104);
//! let out = TurboDecoder::new(104, 4).decode(&input);
//! assert_eq!(out.bits, bits);
//! ```

// Every unsafe operation sits in an `unsafe` block under a SAFETY
// comment, even inside an unsafe function.
#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod bits;
pub mod channel;
pub mod crc;
pub mod dci;
pub mod demap;
pub mod equalizer;
pub mod interleaver;
pub mod llr;
pub mod modulation;
pub mod ofdm;
pub mod rate_match;
pub mod scrambler;
pub mod segmentation;
pub mod turbo;

pub use interleaver::QppInterleaver;
pub use llr::{InterleavedLlrs, Llr};
pub use turbo::{TurboDecoder, TurboEncoder};

/// Held by each of the crate's wall-clock unit tests while it times, so
/// that none of them times beside another in a parallel test run.
#[cfg(test)]
fn wall_clock() -> std::sync::MutexGuard<'static, ()> {
    static CLOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());
    // A timing test that failed poisons the lock; the next one still runs.
    CLOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}
