//! # vran-arrange — the data arrangement process, original vs APCM
//!
//! The paper's subject. The vRAN decoder front end receives LLRs as
//! interleaved `[S1ₖ YP1ₖ YP2ₖ]` triples and must segregate them into
//! three linear arrays before the SIMD decoder can consume them
//! (Figure 8a). Two mechanisms are implemented over the `vran-simd` VM:
//!
//! * [`kernel::Mechanism::Baseline`] — the original OAI approach
//!   (paper §5.2 "original data arrangement process"): `pextrw` every
//!   16-bit element from the vector register to its destination array.
//!   All work lands on the two store ports; wider registers are
//!   *slower* because ymm needs `vextracti128` hops and zmm needs
//!   `vextracti32x8` plus a full reload (`vmovdqa64`) for the upper
//!   half.
//! * [`kernel::Mechanism::Apcm`] — Arithmetic Ports Consciousness
//!   Mechanism (paper §5.1/§5.2): batch the clusters on the otherwise
//!   idle vector ALU ports, then store whole registers. Two variants:
//!   [`kernel::ApcmVariant::MaskRotate`] is the paper's literal
//!   `vpand`/`vpor` congregation + lane rotation (17 ALU instructions
//!   per 3-register group, Figure 10/11) whose output is group-wise
//!   permuted; [`kernel::ApcmVariant::Shuffle`] spends 15 shuffle/OR
//!   instructions to produce natural element order directly, which is
//!   what the decoder pipeline consumes;
//!   [`kernel::ApcmVariant::MaskMerge`] models the fused uplink ingest
//!   ([`fused_ingest_into`]) — mask/OR congregation plus one restore
//!   `vpermw` per output register (18 ALU instructions per group),
//!   natural order with a third of Shuffle's lane-crossing traffic.
//!
//! Both mechanisms are validated against the scalar oracle
//! (`InterleavedLlrs::deinterleave_scalar`) and against each other, and
//! both must drive the turbo decoder to identical transport blocks
//! (integration tests in `tests/`).
//!
//! [`native`] additionally provides the original mechanism as
//! `std::arch` kernels at 128 and 512 bits, against APCM rungs that are
//! the receiver's own [`fused_ingest_into`] mask/merge kernels, for
//! real wall-clock benchmarking on the host CPU.
//!
//! # Example
//!
//! ```
//! use vran_arrange::{ApcmVariant, ArrangeKernel, Mechanism};
//! use vran_phy::llr::InterleavedLlrs;
//! use vran_simd::RegWidth;
//!
//! // 16 interleaved [S1 YP1 YP2] triples
//! let input = InterleavedLlrs { k: 16, data: (0..48).collect() };
//!
//! let baseline = ArrangeKernel::new(RegWidth::Sse128, Mechanism::Baseline);
//! let apcm = ArrangeKernel::new(RegWidth::Sse128, Mechanism::Apcm(ApcmVariant::Shuffle));
//!
//! let (a, trace_a) = baseline.arrange(&input, true);
//! let (b, trace_b) = apcm.arrange(&input, true);
//! assert_eq!(a, b); // identical results…
//!
//! // …entirely different instruction mixes (the paper's point)
//! let (ha, hb) = (trace_a.unwrap().class_histogram(), trace_b.unwrap().class_histogram());
//! assert_eq!(ha.vec_alu, 0); // original: pure data movement
//! assert!(hb.vec_alu > hb.store); // APCM: vector-ALU batching
//! ```

pub mod fused;
pub mod kernel;
pub mod native;
pub mod stride;
pub mod tables;

pub use fused::{best_fused, fused_ingest_into, FusedImpl};
pub use kernel::{ApcmVariant, ArrangeKernel, Mechanism, OutRegions};
pub use stride::StrideKernel;
