//! # vran-arrange — the data arrangement process, original vs APCM
//!
//! The paper's subject. The vRAN decoder front end receives LLRs as
//! interleaved `[S1ₖ YP1ₖ YP2ₖ]` triples and must segregate them into
//! three linear arrays before the SIMD decoder can consume them
//! (Figure 8a). The native `std::arch` kernels that do it, picked per
//! host with a scalar fallback:
//!
//! * [`fused`] — APCM (paper §5.1/§5.2) as the uplink receiver runs it:
//!   [`fused_ingest_into`] congregates each cluster with `vpand` masks
//!   and `vpor` merges on the vector-ALU ports, then one restore
//!   permute and one whole-register store per output register.
//! * [`native`] — the original OAI mechanism (`pextrw` per element) at
//!   128 and 512 bits, in a ladder whose APCM rungs are [`fused`]'s,
//!   for wall-clock A/B on the host CPU.
//!
//! Their `vran-simd` VM twins, traced into `vran-uarch` for the paper's
//! micro-architectural figures, are an instrument: `apcm::arrange`.
//!
//! # Example
//!
//! ```
//! use vran_arrange::native::{deinterleave, NativeImpl};
//! use vran_phy::llr::InterleavedLlrs;
//!
//! let input = InterleavedLlrs { k: 64, data: (0..192).collect() };
//! for imp in vran_simd::host::tiers::<NativeImpl>() {
//!     assert_eq!(deinterleave(imp, &input.data, 64), input.deinterleave_scalar());
//! }
//! ```

#![deny(unsafe_op_in_unsafe_fn)]
#![deny(clippy::undocumented_unsafe_blocks)]

pub mod fused;
pub mod native;

pub use fused::{best_fused, fused_ingest_into, FusedImpl};
