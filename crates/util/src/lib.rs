//! # vran-util — zero-dependency substrate for the workspace
//!
//! The build environment for this repository is fully hermetic: no
//! crates-io access at build time, so everything the workspace needs
//! beyond `std` lives here, first-party and tested:
//!
//! * [`rng`] — a small, fast, seedable PRNG (SplitMix64 core) with the
//!   uniform-draw surface the channel/equalizer/scheduler models need.
//! * [`json`] — a minimal JSON value type with a strict parser and a
//!   stable, deterministic writer; the serialization substrate for the
//!   figure exports and the `BENCH_*.json` perf trajectory.
//! * [`pad`] — [`pad::CachePadded`], alignment padding for the SPSC
//!   ring's head/tail counters.
//! * [`paired`] — [`paired::paired_ratio`], the median of back-to-back
//!   paired wall-clock ratios that timing tests and the benchgate
//!   overhead gate judge by.
//! * [`mod@proptest`] — a compact property-testing harness exposing the
//!   `proptest!`/strategy subset the workspace's model-based tests use.

#![forbid(unsafe_code)]

pub mod json;
pub mod pad;
pub mod paired;
pub mod proptest;
pub mod rng;

pub use json::Json;
pub use pad::CachePadded;
pub use rng::SmallRng;
