//! # apcm — top-level API and experiment runners
//!
//! Ties the workspace together and reproduces every table and figure of
//! the paper's evaluation:
//!
//! | experiment | module |
//! |---|---|
//! | Fig 3/4 — per-module CPU share + IPC (uplink/downlink) | [`experiments::fig03_04`] |
//! | Fig 5/6 — per-module top-down breakdown | [`experiments::fig05_06`] |
//! | Table 1 — wimpy/beefy cache sizes | [`experiments::table1`] |
//! | Fig 7 — per-instruction-class IPC / memory / core bound | [`experiments::fig07`] |
//! | Fig 8 — arrangement memory-bandwidth utilization | [`experiments::fig08`] |
//! | Fig 9 — SIMD module time vs register width | [`experiments::fig09`] |
//! | Fig 13 — per-packet processing time (UDP/TCP × size) | [`experiments::fig13`] |
//! | Fig 14 — arrangement vs calculation time @1500 B | [`experiments::fig14`] |
//! | Fig 15 — arrangement top-down + IPC, original vs APCM | [`experiments::fig15`] |
//! | Fig 16 — per-core bandwidth and cores for 300 Mbps | [`experiments::fig16`] |
//!
//! Regenerate everything with
//! `cargo run --release -p apcm --bin figures -- all` (results land in
//! `results/` as text, CSV and JSON) or a single one with e.g.
//! `-- fig15`; `--bin check` prints the paper-vs-measured verdicts of
//! [`claims`], the table of the paper's headline claims.
//!
//! The figures need two things the product crates (`vran-phy`,
//! `vran-arrange`, `vran-net`) do not ship, and both live here. Each
//! module keeps the name of the product module it shadows.
//!
//! **Instruments** — `vran-simd` VM twins of production kernels, traced
//! into the `vran-uarch` simulator the way the paper profiles OAI with
//! VTune, and checked against `vran-phy`'s scalar oracles:
//!
//! * [`arrange`] — the arrangement process, original vs APCM;
//! * [`turbo`] — the single-block max-log-MAP decoder
//!   ([`turbo::simd_decoder`]);
//! * [`modulation_simd`] — the Q11 16-QAM soft demapper;
//! * [`scrambler`] — the LLR descrambler.
//!
//! **Model** — cycle counts turned into packet times, cores and tails:
//!
//! * [`latency`] — [`latency::LatencyModel`], per-packet processing
//!   time and capacity (Figs 9, 13, 14, 16);
//! * [`cellsim`] — M cells × many UEs under scheduling, bursty/diurnal
//!   arrivals and HARQ storms, charged by the latency model;
//! * [`chaos`] — a windowed storm over [`cellsim`] with a measured
//!   time-to-recover (the runner-scale storm is `vran_net::chaos`);
//! * [`scheduler`], [`amc`], [`harq`] — [`cellsim`]'s link layer:
//!   scheduling, link adaptation and chase-combining retransmission.
//!
//! # Example
//!
//! ```
//! let fig15 = apcm::experiments::fig15::run();
//! let orig = fig15.value("SSE128/original", "backend").unwrap();
//! let apcm = fig15.value("SSE128/apcm", "backend").unwrap();
//! assert!(orig > 0.35 && apcm < 0.10); // the paper's 45 % → 3 %
//! ```

pub mod amc;
pub mod cellsim;
pub mod chaos;
pub mod claims;
pub mod experiments;
pub mod harq;
pub mod latency;
pub mod modulation_simd;
pub mod report;
pub mod scheduler;
pub mod scrambler;
pub mod server;
pub mod turbo;
pub mod workloads;

/// The VM kernels in `arrange/`, under their `vran-arrange` module names.
pub mod arrange {
    pub use crate::kernel::{ApcmVariant, ArrangeKernel, Mechanism, OutRegions};
    pub use crate::stride::StrideKernel;
}
#[path = "arrange/kernel.rs"]
pub mod kernel;
#[path = "arrange/stride.rs"]
pub mod stride;
#[path = "arrange/tables.rs"]
pub mod tables;

pub use report::{Figure, Row};
