//! # vran-net — packet path, userspace rings and the vRAN pipeline
//!
//! The synthetic stand-in for the paper's testbed network path
//! (UE → USRP → eNB containers → EPC): real UDP/TCP framing over a
//! DPDK-style single-producer/single-consumer ring into the full PHY
//! pipeline from `vran-phy`, with the data arrangement step provided by
//! `vran-arrange`. Every `pub mod` is on a packet path (`TxChain`,
//! `RxChain`, [`UplinkPipeline`], [`StageGraph`], the downlink, [`runner`])
//! or is the table one is configured from:
//!
//! * [`packet`] — Ethernet/IPv4/UDP/TCP frames with real checksums,
//!   built and parsed on every path (the Figs 13 and 16 workloads).
//! * [`l2`] — PDCP/RLC/MAC framing: `TxChain` encapsulates, `RxChain`
//!   decapsulates.
//! * [`tx`] — the transmit chain (CRC24A → segment → encode →
//!   rate-match → scramble → map → OFDM), run by the uplink loopback
//!   and the downlink's PDSCH.
//! * [`rx`] — the receive chain, the receiver under test: a
//!   [`rx::Capture`] in (OFDM demod → demap → descramble →
//!   de-rate-match → **arrange** → turbo decode → CRC → L2), a frame
//!   out; [`UplinkPipeline`] and [`StageGraph`] both run it.
//! * [`pipeline`] — the uplink loopback around them (ingress → `tx` →
//!   channel → `rx`) and its policies: configuration, fault injection,
//!   deadline, degradation ladder, metrics.
//! * [`amc`] — the MCS table: the (modulation, code rate) operating
//!   points a [`PipelineConfig`] is set to, with their SNR thresholds.
//! * [`downlink`] — PDCCH + PDSCH subframes through `tx`, honest UE.
//! * [`ring`] — a lock-free SPSC ring buffer modeling the DPDK
//!   kernel-bypass queue of Figure 2, feeding [`runner`]'s workers.
//! * [`runner`] — a threaded source→PHY→sink driver for sustained
//!   throughput measurements: a dealing thread that runs each packet's
//!   front half, panic-isolated workers that run the back half.
//! * [`stagegraph`] — the out-of-order stage-graph runtime: decode
//!   tasks from different packets pool by K and launch as quad / pair
//!   batches on the zmm kernel, retiring through a ROB with per-UE
//!   in-order delivery. The default uplink path in [`runner`].
//! * [`error`] — the typed fault taxonomy ([`error::PipelineError`])
//!   every receive-path failure classifies into.
//! * [`faultinject`] — deterministic, seeded fault injection into
//!   [`UplinkPipeline`] and [`runner`]'s workers, for soak tests.
//! * [`metrics`] — the lock-free counters and histograms the pipeline,
//!   the runner and the stage graph record into.
//! * [`observe`] — flight-recorder observability: a lock-free
//!   per-packet trace ring, consistent metrics snapshots, and the
//!   per-stage circuit breakers of the degradation ladder.
//! * [`chaos`] — a deterministic chaos scheduler: phased storms over
//!   [`runner`] with circuit breakers armed, CI-gated.
//!
//! The models that turn `vran-uarch` cycle counts into the paper's
//! figures — the latency model, the cell-scale simulator with its link
//! layer and its windowed storm — build on this crate and live in `apcm`.
//!
//! # Example
//!
//! ```
//! use vran_net::packet::{PacketBuilder, Transport};
//! use vran_net::pipeline::{PipelineConfig, UplinkPipeline};
//!
//! let mut builder = PacketBuilder::new(5060, 5060);
//! let packet = builder.build(Transport::Udp, 128).unwrap();
//!
//! let cfg = PipelineConfig { snr_db: 30.0, ..Default::default() };
//! let result = UplinkPipeline::new(cfg).process(&packet);
//! assert!(result.is_ok()); // survived encode → OFDM → AWGN → arrange → decode
//! ```

// With clippy.toml's `too-many-lines-threshold = 150`: the packet path
// stays a composition of named parts, not one function again.
#![deny(clippy::too_many_lines)]
// Every unsafe operation sits in its own `unsafe` block, under its own
// `// SAFETY:` line, even inside an `unsafe fn`.
#![deny(unsafe_op_in_unsafe_fn)]

pub mod amc;
pub mod chaos;
pub mod downlink;
pub mod error;
pub mod faultinject;
pub mod l2;
pub mod metrics;
pub mod observe;
pub mod packet;
pub mod pipeline;
pub mod ring;
pub mod runner;
pub mod rx;
pub mod stagegraph;
pub mod tx;

pub use error::{ErrorCategory, PipelineError};
pub use observe::{FlightRecorder, MetricsSnapshot, TraceEvent};
pub use packet::{Packet, Transport};
pub use pipeline::{PipelineConfig, UplinkPipeline};
pub use ring::SpscRing;
pub use stagegraph::{FlushReason, StageGraph, StageGraphConfig};
