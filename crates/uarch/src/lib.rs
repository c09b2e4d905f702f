//! # vran-uarch — port-level out-of-order core simulator
//!
//! Replacement substrate for the paper's measurement apparatus (Intel
//! VTune top-down profiles on Skylake/Coffee-Lake parts). The simulator
//! executes `vran-simd` µop traces against the paper's simplified core
//! model (Figure 2):
//!
//! * 8 issue ports — vector ALU on {P0,P1,P2}, scalar ALU on {P0..P3},
//!   loads on {P4,P5}, stores and SIMD data-movement on {P6,P7};
//! * a 4-slot-per-cycle allocation/retire pipeline (ideal IPC 4, the
//!   value the paper quotes for "modern Intel processors");
//! * a ROB-bounded out-of-order window with greedy oldest-first dispatch;
//! * a 3-level set-associative cache hierarchy (Table 1 wimpy/beefy
//!   configurations);
//! * Yasin-style top-down slot accounting: retiring / frontend bound /
//!   bad speculation / backend bound, with backend split into memory
//!   bound and core bound — the exact metric tree the paper's Figures
//!   5, 6, 7 and 15 report.
//!
//! The simulator is deterministic: same trace + same config → same
//! report, which the test suite and benchmark harness rely on.
//!
//! ## Calibration
//!
//! Every latency/width constant is documented in [`latency`] and
//! [`config`]; none are fitted per-experiment. See DESIGN.md §2.
//!
//! # Example
//!
//! ```
//! use vran_simd::{Mem, RegWidth, Vm};
//! use vran_uarch::{CoreConfig, CoreSim};
//!
//! // a burst of independent SIMD adds…
//! let mut vm = Vm::tracing(Mem::new());
//! let a = vm.splat(RegWidth::Sse128, 1);
//! let b = vm.splat(RegWidth::Sse128, 2);
//! for _ in 0..3000 {
//!     vm.adds(a, b);
//! }
//!
//! // …saturates the three vector ALU ports: IPC approaches 3
//! let report = CoreSim::new(CoreConfig::beefy().warmed()).run(&vm.take_trace());
//! assert!(report.ipc > 2.7 && report.ipc <= 3.05);
//! assert!(report.port_util[0] > 0.9); // P0–P2 busy…
//! assert_eq!(report.port_busy[6], 0); // …store ports idle
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod config;
pub mod critpath;
pub mod latency;
pub mod ports;
pub mod report;
pub mod sim;

pub use cache::{CacheConfig, CacheLevelConfig, CacheSim, CacheStats};
pub use config::CoreConfig;
pub use critpath::{bounds, Bounds};
pub use latency::latency_of;
pub use ports::{Port, PortModel, PortSet};
pub use report::{SimReport, TopDown};
pub use sim::CoreSim;
