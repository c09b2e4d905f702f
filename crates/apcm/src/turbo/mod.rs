//! The max-log-MAP turbo decoder as `vran-simd` VM kernels — the
//! instrument twins of `vran_phy::turbo`'s scalar oracle and native
//! decoders, traced into `vran-uarch` for the paper's figures.
//!
//! * [`simd_decoder`] — the oracle's arithmetic expressed as VM kernels
//!   (the OAI `_mm_adds/_mm_subs/_mm_max` style), usable in native mode
//!   (functional) or tracing mode (feeds `vran-uarch`).

pub mod simd_decoder;
