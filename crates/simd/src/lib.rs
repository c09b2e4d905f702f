//! # vran-simd — width-generic SIMD vector IR
//!
//! This crate provides the instruction-level substrate for the APCM
//! reproduction. Kernels (the data arrangement process, the max-log-MAP
//! turbo decoder inner loops, instruction-class microkernels) are written
//! once against a small virtual machine ([`vm::Vm`]) over abstract vector
//! registers, and can then be executed in two modes:
//!
//! * **native** — the operation semantics are evaluated directly on a
//!   portable lane model ([`value::VecVal`], `i16` lanes, 8/16/32 lanes for
//!   SSE128/AVX256/AVX512). This gives correct outputs for functional
//!   tests and end-to-end pipelines.
//! * **tracing** — in addition to evaluating, every architectural
//!   instruction is appended to a [`trace::Trace`] as one or more
//!   [`trace::MicroOp`]s carrying its op kind, SSA-style register
//!   dependencies, and the number of bytes it moves between the register
//!   file and L1. The trace is consumed by the `vran-uarch` port-level
//!   core simulator to produce the paper's top-down metrics.
//!
//! The split mirrors the paper's methodology: the same C code was both run
//! (for latency numbers) and profiled with VTune (for port/top-down
//! numbers). Here the same IR kernel is both evaluated and scheduled.
//!
//! ## Instruction model
//!
//! Instructions are classified per the paper's Figure 2 port model:
//!
//! | class | example intrinsics | ports |
//! |---|---|---|
//! | vector ALU | `_mm_adds_epi16`, `_mm_and_si128`, `_mm_shuffle_epi8` | P0, P1, P2 |
//! | scalar ALU | address arithmetic, loop counters | P0..P3 |
//! | load | `_mm_load_si128`, `vmovdqa64` | P4, P5 |
//! | store / movement | `pextrw` to memory, `_mm_store_si128` | P6, P7 |
//!
//! The mapping from [`trace::OpKind`] to ports and latencies lives in
//! `vran-uarch` so the port topology can be varied without touching
//! kernels.
//!
//! # Example
//!
//! ```
//! use vran_simd::{Mem, RegWidth, Vm};
//!
//! let mut mem = Mem::new();
//! let a = mem.alloc_from(&[1, 2, 3, 4, 5, 6, 7, 8]);
//! let out = mem.alloc(8);
//!
//! let mut vm = Vm::tracing(mem);
//! let r = vm.load(RegWidth::Sse128, a);
//! let doubled = vm.adds(r, r);
//! vm.store(doubled, out);
//!
//! // native semantics…
//! assert_eq!(vm.mem().read(out), &[2, 4, 6, 8, 10, 12, 14, 16]);
//! // …and a µop trace for the simulator
//! let trace = vm.take_trace();
//! assert_eq!(trace.len(), 3);
//! assert_eq!(trace.store_bytes(), 16);
//! ```

#![forbid(unsafe_code)]

pub mod host;
pub mod mem;
pub mod trace;
pub mod value;
pub mod vm;
pub mod width;

pub use host::HostIsa;
pub use mem::{Mem, MemRef};
pub use trace::{ClassHistogram, MicroOp, OpClass, OpKind, RegId, Trace};
pub use value::VecVal;
pub use vm::{VReg, Vm, VmMode};
pub use width::RegWidth;
