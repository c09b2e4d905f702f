//! TS 36.212 §5.1.3.2 rate-1/3 turbo code.
//!
//! Parallel-concatenated convolutional code: two identical 8-state RSC
//! constituent encoders with transfer function
//! `G(D) = [1, g1(D)/g0(D)]`, `g0 = 1 + D² + D³` (13 octal),
//! `g1 = 1 + D + D³` (15 octal); the second encoder reads the block in
//! QPP-interleaved order; both trellises are terminated with 3 tail
//! bits (12 transmitted tail bits total).
//!
//! * [`trellis`] — the state-transition tables shared by encoder and
//!   decoders (and the SIMD decoders' shuffle patterns).
//! * [`encoder`] — bit-level encoder producing the spec's `d⁽⁰⁾ d⁽¹⁾ d⁽²⁾`
//!   streams.
//! * [`decoder`] — scalar fixed-point (i16 saturating) max-log-MAP
//!   iterative decoder; the bit-exact oracle.
//! * [`native_decoder`] — the same arithmetic as real `std::arch`
//!   intrinsics with runtime ISA dispatch: the wall-clock fast path
//!   used by the uplink pipeline.
//! * [`native_batch`] — [`native_decoder`]'s AVX2 schedule on two
//!   blocks per zmm register, a pair launch in one register and a quad
//!   in two: the stage graph's batched decoder.
//! * `mitm` (x86-64) — that schedule written once: the meet-in-the-middle
//!   SISO body both decoders instantiate, one block per ymm register and
//!   two per zmm.
//! * [`packed_encoder`] — bitsliced packed-word encoder exploiting the
//!   code's GF(2) linearity: 64 trellis steps per `u64` (128/256 per
//!   register under SSE2/AVX2), the transmit-side fast path used by
//!   the downlink pipeline.

pub mod decoder;
pub mod encoder;
#[cfg(target_arch = "x86_64")]
mod mitm;
pub mod native_batch;
pub mod native_decoder;
pub mod packed_encoder;
pub mod trellis;

pub use decoder::{DecodeOutcome, TurboDecoder};
pub use encoder::{TurboCodeword, TurboEncoder};
pub use native_batch::{BatchScratch, BlockLlrs, NativeBatchTurboDecoder};
pub use native_decoder::{DecodeScratch, DecoderIsa, NativeTurboDecoder};
pub use packed_encoder::{EncodeScratch, EncoderIsa, PackedTurboEncoder};
