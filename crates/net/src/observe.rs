//! Flight-recorder observability: a lock-free per-packet trace ring,
//! a consistent point-in-time metrics snapshot, and per-stage circuit
//! breakers.
//!
//! Production vRAN stacks treat observability as a first-class
//! function: when a TTI deadline is blown at 3 a.m. the operator needs
//! the last few hundred packet traces, not a debugger. Three pieces
//! live here:
//!
//! * [`FlightRecorder`] — a fixed-capacity, power-of-two ring of
//!   seqlock-protected trace slots. Writers claim a ticket with one
//!   relaxed `fetch_add` and write four packed words; there is **no
//!   allocation and no lock on the hot path**, so the recorder can stay
//!   attached to every pipeline, stage graph and runner worker in a
//!   release build (the `observe_overhead` bench pins the cost under
//!   2 % of the stage-graph wall-clock suite). [`FlightRecorder::
//!   dump_last`] snapshots the newest `n` events for post-mortem.
//! * [`MetricsSnapshot`] — a consistent copy of every counter and
//!   histogram across the pipeline / runner / stage-graph registries,
//!   pollable mid-run from another thread and serializable to the
//!   first-party [`Json`]. Consistency contract: a snapshot never
//!   observes a histogram whose bucket sum exceeds its count, and two
//!   sequential snapshots are monotone in every counter (see
//!   [`crate::metrics::Histogram::snapshot_consistent`]).
//! * [`CircuitBreaker`] — the per-stage trip/half-open/reset state
//!   machine the pipeline wires in front of its equalizer, demapper
//!   and decoder stages (see [`crate::pipeline::PipelineConfig::
//!   breakers`]): after `trip_after` consecutive stage errors the
//!   breaker opens and fast-fails packets for `cooldown_packets`
//!   admissions, then lets a single half-open probe through; a probe
//!   success closes it again.

use crate::error::ErrorCategory;
use crate::metrics::{self, Op, PipelineMetrics, RunnerMetrics, StageGraphMetrics};
use crate::stagegraph::FlushReason;
use std::sync::atomic::{fence, AtomicU64, Ordering};
use vran_util::Json;

// ---------------------------------------------------------------------------
// Trace events
// ---------------------------------------------------------------------------

/// What one flight-recorder slot describes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum TraceKind {
    /// A packet completed the uplink pipeline successfully.
    PacketDone = 0,
    /// A packet terminated with a typed [`crate::error::PipelineError`]
    /// (the category rides in [`TraceEvent::category`]).
    PacketError = 1,
    /// A stage-graph decode pool launched (`aux` = blocks launched,
    /// `k` = pool K, `flush_reason` = why).
    BatchFlush = 2,
    /// A runner worker restarted after an isolated panic (`ue` = worker
    /// index, `aux` = rebuild generation).
    WorkerRestart = 3,
}

impl TraceKind {
    fn from_u8(v: u8) -> TraceKind {
        match v {
            0 => TraceKind::PacketDone,
            1 => TraceKind::PacketError,
            2 => TraceKind::BatchFlush,
            _ => TraceKind::WorkerRestart,
        }
    }

    /// Snake-case name for dumps.
    pub fn name(self) -> &'static str {
        match self {
            TraceKind::PacketDone => "packet_done",
            TraceKind::PacketError => "packet_error",
            TraceKind::BatchFlush => "batch_flush",
            TraceKind::WorkerRestart => "worker_restart",
        }
    }
}

/// Sentinel for "no error category" in the packed representation.
const NO_CATEGORY: u8 = 0xFF;
/// Sentinel for "no flush reason".
const NO_REASON: u8 = 0xFF;

/// One compact per-packet (or per-batch / per-restart) trace record.
/// 32 bytes packed; every field is optional context except `kind`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TraceEvent {
    /// Event kind discriminant (see [`TraceKind`]).
    pub kind: u8,
    /// The packet's composition: 0 = production, 1 = reference, 2 =
    /// production with the scalar decoder (the degradation ladder);
    /// unused for non-packet events.
    pub backend: u8,
    /// Flush reason discriminant for [`TraceKind::BatchFlush`]
    /// (0 = lanes full, 1 = deadline, 2 = drain, 3 = idle, 0xFF = n/a).
    pub flush_reason: u8,
    /// Terminal [`ErrorCategory`] discriminant for
    /// [`TraceKind::PacketError`] (0xFF = none).
    pub category: u8,
    /// UE id (packet events), worker index (restarts).
    pub ue: u16,
    /// First code-block K (packet events) or pool K (batch flushes).
    pub k: u16,
    /// Batch launch ordinal (flush events).
    pub batch_id: u32,
    /// Per-pipeline packet ordinal (packet events).
    pub seq: u32,
    /// Nanoseconds of the packet's laps before [`Op::Decode`]: the
    /// loopback's transmitter and channel, then the receive front end
    /// through the arrangement.
    pub prepare_ns: u32,
    /// [`Op::Decode`] nanoseconds.
    pub decode_ns: u32,
    /// Nanoseconds of all the packet's laps, the receive tail
    /// (desegmentation, CRC24A check, L2) included.
    pub total_ns: u32,
    /// Kind-specific extra (blocks launched, restart generation).
    pub aux: u32,
}

impl TraceEvent {
    /// Event for a terminal packet outcome.
    #[allow(clippy::too_many_arguments)]
    pub fn packet(
        ue: u64,
        seq: u64,
        k: usize,
        backend: u8,
        category: Option<ErrorCategory>,
        prepare_ns: u64,
        decode_ns: u64,
        total_ns: u64,
    ) -> Self {
        Self {
            kind: match category {
                None => TraceKind::PacketDone as u8,
                Some(_) => TraceKind::PacketError as u8,
            },
            backend,
            flush_reason: NO_REASON,
            category: category.map(|c| c as u8).unwrap_or(NO_CATEGORY),
            ue: ue as u16,
            k: k as u16,
            batch_id: 0,
            seq: seq as u32,
            prepare_ns: prepare_ns.min(u32::MAX as u64) as u32,
            decode_ns: decode_ns.min(u32::MAX as u64) as u32,
            total_ns: total_ns.min(u32::MAX as u64) as u32,
            aux: 0,
        }
    }

    /// Event for a stage-graph pool launch.
    pub fn flush(batch_id: u64, k: usize, blocks: usize, reason: FlushReason) -> Self {
        Self {
            kind: TraceKind::BatchFlush as u8,
            backend: 0,
            flush_reason: match reason {
                FlushReason::LanesFull => 0,
                FlushReason::Deadline => 1,
                FlushReason::Drain => 2,
                FlushReason::Idle => 3,
            },
            category: NO_CATEGORY,
            ue: 0,
            k: k as u16,
            batch_id: batch_id as u32,
            seq: 0,
            prepare_ns: 0,
            decode_ns: 0,
            total_ns: 0,
            aux: blocks as u32,
        }
    }

    /// Event for an isolated worker restart.
    pub fn restart(worker: usize, generation: u64) -> Self {
        Self {
            kind: TraceKind::WorkerRestart as u8,
            backend: 0,
            flush_reason: NO_REASON,
            category: NO_CATEGORY,
            ue: worker as u16,
            k: 0,
            batch_id: 0,
            seq: 0,
            prepare_ns: 0,
            decode_ns: 0,
            total_ns: 0,
            aux: generation as u32,
        }
    }

    /// Decoded event kind.
    pub fn trace_kind(&self) -> TraceKind {
        TraceKind::from_u8(self.kind)
    }

    /// Terminal error category, when this is a `PacketError` event.
    pub fn error_category(&self) -> Option<ErrorCategory> {
        ErrorCategory::ALL.get(self.category as usize).copied()
    }

    fn pack(&self) -> [u64; 4] {
        let w0 = self.kind as u64
            | (self.backend as u64) << 8
            | (self.flush_reason as u64) << 16
            | (self.category as u64) << 24
            | (self.ue as u64) << 32
            | (self.k as u64) << 48;
        let w1 = self.batch_id as u64 | (self.seq as u64) << 32;
        let w2 = self.prepare_ns as u64 | (self.decode_ns as u64) << 32;
        let w3 = self.total_ns as u64 | (self.aux as u64) << 32;
        [w0, w1, w2, w3]
    }

    fn unpack(w: [u64; 4]) -> Self {
        Self {
            kind: w[0] as u8,
            backend: (w[0] >> 8) as u8,
            flush_reason: (w[0] >> 16) as u8,
            category: (w[0] >> 24) as u8,
            ue: (w[0] >> 32) as u16,
            k: (w[0] >> 48) as u16,
            batch_id: w[1] as u32,
            seq: (w[1] >> 32) as u32,
            prepare_ns: w[2] as u32,
            decode_ns: (w[2] >> 32) as u32,
            total_ns: w[3] as u32,
            aux: (w[3] >> 32) as u32,
        }
    }

    /// JSON object for dumps.
    pub fn to_json(&self) -> Json {
        let mut pairs = vec![
            ("kind".to_string(), Json::str(self.trace_kind().name())),
            ("ue".to_string(), Json::Num(self.ue as f64)),
            ("k".to_string(), Json::Num(self.k as f64)),
            ("seq".to_string(), Json::Num(self.seq as f64)),
            ("backend".to_string(), Json::Num(self.backend as f64)),
        ];
        if let Some(c) = self.error_category() {
            pairs.push(("category".to_string(), Json::str(c.name())));
        }
        if self.trace_kind() == TraceKind::BatchFlush {
            pairs.push(("batch_id".to_string(), Json::Num(self.batch_id as f64)));
            pairs.push((
                "flush_reason".to_string(),
                Json::Num(self.flush_reason as f64),
            ));
        }
        pairs.push(("prepare_ns".to_string(), Json::Num(self.prepare_ns as f64)));
        pairs.push(("decode_ns".to_string(), Json::Num(self.decode_ns as f64)));
        pairs.push(("total_ns".to_string(), Json::Num(self.total_ns as f64)));
        pairs.push(("aux".to_string(), Json::Num(self.aux as f64)));
        Json::Obj(pairs)
    }
}

// ---------------------------------------------------------------------------
// Flight recorder
// ---------------------------------------------------------------------------

/// One seqlock-protected ring slot. `seq` holds `2·ticket + 1` while a
/// writer is mid-flight and `2·ticket + 2` once the slot's data words
/// are published; readers re-check `seq` after reading the data and
/// skip any slot whose value moved (torn or overwritten).
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    data: [AtomicU64; 4],
}

/// Lock-free fixed-capacity flight recorder: the last `capacity` trace
/// events, overwritten in ring order. Writing is wait-free (one
/// `fetch_add` plus five relaxed/release stores, no allocation);
/// reading ([`Self::dump_last`]) is a best-effort snapshot that skips
/// slots a concurrent writer is touching.
///
/// Multiple threads may record concurrently. A reader can only be
/// fooled into accepting mixed data if one writer stalls mid-write for
/// a full ring lap (≥ `capacity` events) while another laps it — the
/// seqlock ticket check rejects every shorter interleaving.
#[derive(Debug)]
pub struct FlightRecorder {
    mask: u64,
    cursor: AtomicU64,
    slots: Vec<Slot>,
}

impl FlightRecorder {
    /// Recorder holding the last `capacity` events (rounded up to a
    /// power of two, minimum 8).
    pub fn with_capacity(capacity: usize) -> Self {
        let cap = capacity.max(8).next_power_of_two();
        let slots = (0..cap)
            .map(|_| Slot {
                seq: AtomicU64::new(0),
                data: std::array::from_fn(|_| AtomicU64::new(0)),
            })
            .collect();
        Self {
            mask: cap as u64 - 1,
            cursor: AtomicU64::new(0),
            slots,
        }
    }

    /// Ring capacity in slots.
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Events recorded since construction (monotone; may exceed
    /// capacity).
    pub fn recorded(&self) -> u64 {
        self.cursor.load(Ordering::Acquire)
    }

    /// Record one event. Hot-path: no allocation, no lock.
    #[inline]
    pub fn record(&self, ev: TraceEvent) {
        let ticket = self.cursor.fetch_add(1, Ordering::Relaxed);
        let slot = &self.slots[(ticket & self.mask) as usize];
        let words = ev.pack();
        slot.seq.store(2 * ticket + 1, Ordering::Relaxed);
        for (d, w) in slot.data.iter().zip(words) {
            d.store(w, Ordering::Relaxed);
        }
        slot.seq.store(2 * ticket + 2, Ordering::Release);
    }

    /// Snapshot the newest `n` events, oldest first. Slots that a
    /// concurrent writer is mid-way through (or has already lapped) are
    /// skipped, so the result may hold fewer than `n` events.
    pub fn dump_last(&self, n: usize) -> Vec<TraceEvent> {
        let cursor = self.cursor.load(Ordering::Acquire);
        let span = (n as u64).min(self.slots.len() as u64).min(cursor);
        let mut out = Vec::with_capacity(span as usize);
        for ticket in (cursor - span)..cursor {
            let slot = &self.slots[(ticket & self.mask) as usize];
            let want = 2 * ticket + 2;
            if slot.seq.load(Ordering::Acquire) != want {
                continue;
            }
            let words = std::array::from_fn(|i| slot.data[i].load(Ordering::Relaxed));
            fence(Ordering::Acquire);
            if slot.seq.load(Ordering::Relaxed) != want {
                continue; // torn by a concurrent lap
            }
            out.push(TraceEvent::unpack(words));
        }
        out
    }

    /// JSON dump of the newest `n` events (the CI failure artifact).
    pub fn dump_json(&self, n: usize) -> Json {
        Json::Obj(vec![
            ("recorded".to_string(), Json::Num(self.recorded() as f64)),
            ("capacity".to_string(), Json::Num(self.capacity() as f64)),
            (
                "events".to_string(),
                Json::Arr(self.dump_last(n).iter().map(|e| e.to_json()).collect()),
            ),
        ])
    }
}

// ---------------------------------------------------------------------------
// Circuit breakers
// ---------------------------------------------------------------------------

/// The three receive-path stages the pipeline protects with breakers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum BreakerStage {
    /// OFDM demodulation / channel equalization — trips on sustained
    /// [`ErrorCategory::DeadlineExceeded`] (the budget gate sits around
    /// the channel-processing phase).
    Equalizer,
    /// Soft demap / frame handling — trips on sustained
    /// [`ErrorCategory::MalformedFrame`] /
    /// [`ErrorCategory::SegmentationOverflow`].
    Demapper,
    /// Turbo decode — trips on sustained
    /// [`ErrorCategory::CrcMismatch`] /
    /// [`ErrorCategory::DecoderDiverged`].
    Decoder,
}

impl BreakerStage {
    /// Number of protected stages.
    pub const COUNT: usize = 3;
    /// All stages in declaration order.
    pub const ALL: [BreakerStage; BreakerStage::COUNT] = [
        BreakerStage::Equalizer,
        BreakerStage::Demapper,
        BreakerStage::Decoder,
    ];

    /// Snake-case name for metrics and dumps.
    pub fn name(self) -> &'static str {
        match self {
            BreakerStage::Equalizer => "equalizer",
            BreakerStage::Demapper => "demapper",
            BreakerStage::Decoder => "decoder",
        }
    }

    /// Which breaker a terminal error category feeds.
    pub fn for_category(category: ErrorCategory) -> BreakerStage {
        match category {
            ErrorCategory::DeadlineExceeded => BreakerStage::Equalizer,
            ErrorCategory::MalformedFrame | ErrorCategory::SegmentationOverflow => {
                BreakerStage::Demapper
            }
            ErrorCategory::CrcMismatch | ErrorCategory::DecoderDiverged => BreakerStage::Decoder,
        }
    }
}

/// Circuit-breaker tuning, carried (optionally) by
/// [`crate::pipeline::PipelineConfig::breakers`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BreakerConfig {
    /// Consecutive stage errors before the breaker opens.
    pub trip_after: u32,
    /// Packets fast-failed while open before a half-open probe is let
    /// through. Counted in packets, not wall-clock, so chaos runs stay
    /// deterministic.
    pub cooldown_packets: u32,
}

impl Default for BreakerConfig {
    fn default() -> Self {
        Self {
            trip_after: 8,
            cooldown_packets: 16,
        }
    }
}

/// Breaker state, in the classic three-state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerState {
    /// Healthy: traffic flows, consecutive errors are counted.
    Closed,
    /// Tripped: packets fast-fail for the rest of the cooldown.
    Open,
    /// Cooldown expired: the next packet is a probe; its outcome
    /// decides between `Closed` and re-`Open`.
    HalfOpen,
}

/// One per-stage circuit breaker. Single-threaded interior (`&mut
/// self`), like the pipeline hot state it lives next to; trip/reset
/// totals are exported through [`PipelineMetrics`].
#[derive(Debug, Clone)]
pub struct CircuitBreaker {
    cfg: BreakerConfig,
    state: BreakerState,
    consecutive_failures: u32,
    cooldown_left: u32,
    trips: u64,
    resets: u64,
}

impl CircuitBreaker {
    /// Closed breaker with the given tuning.
    pub fn new(cfg: BreakerConfig) -> Self {
        Self {
            cfg,
            state: BreakerState::Closed,
            consecutive_failures: 0,
            cooldown_left: 0,
            trips: 0,
            resets: 0,
        }
    }

    /// Current state.
    pub fn state(&self) -> BreakerState {
        self.state
    }

    /// Times this breaker has opened.
    pub fn trips(&self) -> u64 {
        self.trips
    }

    /// Times a half-open probe closed this breaker again.
    pub fn resets(&self) -> u64 {
        self.resets
    }

    /// Admission gate: returns `true` when the packet must fast-fail
    /// (breaker open, cooldown still running — one cooldown tick is
    /// consumed). When the cooldown expires the breaker moves to
    /// half-open and lets the next packet through as a probe.
    pub fn should_fast_fail(&mut self) -> bool {
        match self.state {
            BreakerState::Closed | BreakerState::HalfOpen => false,
            BreakerState::Open => {
                if self.cooldown_left > 0 {
                    self.cooldown_left -= 1;
                    true
                } else {
                    self.state = BreakerState::HalfOpen;
                    false
                }
            }
        }
    }

    /// Feed one real (non-fast-failed) stage outcome. Returns `true`
    /// when this call changed the breaker's state (a trip or a reset).
    pub fn on_outcome(&mut self, ok: bool) -> bool {
        if ok {
            self.consecutive_failures = 0;
            if self.state == BreakerState::HalfOpen {
                self.state = BreakerState::Closed;
                self.resets += 1;
                return true;
            }
            false
        } else {
            match self.state {
                BreakerState::HalfOpen => {
                    // Probe failed: straight back to open.
                    self.trip();
                    true
                }
                BreakerState::Closed => {
                    self.consecutive_failures += 1;
                    if self.consecutive_failures >= self.cfg.trip_after {
                        self.trip();
                        true
                    } else {
                        false
                    }
                }
                BreakerState::Open => false,
            }
        }
    }

    fn trip(&mut self) {
        self.state = BreakerState::Open;
        self.consecutive_failures = 0;
        self.cooldown_left = self.cfg.cooldown_packets;
        self.trips += 1;
    }
}

// ---------------------------------------------------------------------------
// Metrics snapshot
// ---------------------------------------------------------------------------

/// A consistent copy of one histogram: raw buckets plus count/sum,
/// captured so that `buckets.sum() <= count` always holds (see
/// [`crate::metrics::Histogram::snapshot_consistent`]).
#[derive(Debug, Clone, PartialEq)]
pub struct HistogramSnapshot {
    /// Snapshot key (e.g. `pipeline.op.decode`).
    pub name: String,
    /// Inclusive bucket upper bounds (the overflow bucket has none).
    pub edges: Vec<u64>,
    /// Per-bucket counts, `edges.len() + 1` entries.
    pub buckets: Vec<u64>,
    /// Observations recorded.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    fn capture(name: &str, h: &crate::metrics::Histogram) -> Self {
        let (buckets, count, sum) = h.snapshot_consistent();
        Self {
            name: name.to_string(),
            edges: h.edges().to_vec(),
            buckets,
            count,
            sum,
        }
    }

    /// Sum of the captured buckets (≤ [`Self::count`] by construction).
    pub fn bucket_sum(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean observed value (0 when empty).
    pub fn mean(&self) -> f64 {
        metrics::mean(self.sum, self.count)
    }

    /// Upper edge of the bucket holding the `q`-quantile observation —
    /// same bucket-resolution estimate as
    /// [`crate::metrics::Histogram::quantile_upper`], but over the
    /// captured copy (0 when empty, `u64::MAX` in the overflow
    /// bucket).
    pub fn quantile_upper(&self, q: f64) -> u64 {
        metrics::quantile_upper(&self.edges, self.buckets.iter().copied(), self.count, q)
    }
}

/// A point-in-time copy of every counter and histogram across the
/// three instrumented registries, safe to capture from a polling
/// thread while workers are recording. Counter entries reuse each
/// registry's flat snapshot schema under a `pipeline.` / `runner.` /
/// `stagegraph.` prefix.
#[derive(Debug, Clone, Default)]
pub struct MetricsSnapshot {
    /// Flat `name → value` counter/gauge entries.
    pub counters: Vec<(String, f64)>,
    /// Structural histogram copies.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Capture from whichever registries are attached.
    pub fn capture(
        pipeline: Option<&PipelineMetrics>,
        runner: Option<&RunnerMetrics>,
        stagegraph: Option<&StageGraphMetrics>,
    ) -> Self {
        let mut counters = Vec::new();
        let mut histograms = Vec::new();
        if let Some(p) = pipeline {
            for (k, v) in p.snapshot() {
                counters.push((format!("pipeline.{k}"), v));
            }
            for op in Op::ALL {
                histograms.push(HistogramSnapshot::capture(
                    &format!("pipeline.op.{}", op.name()),
                    p.op(op),
                ));
            }
        }
        if let Some(r) = runner {
            for (k, v) in r.snapshot() {
                counters.push((format!("runner.{k}"), v));
            }
            histograms.push(HistogramSnapshot::capture(
                "runner.ring_occupancy",
                &r.ring_occupancy,
            ));
        }
        if let Some(g) = stagegraph {
            for (k, v) in g.snapshot() {
                counters.push((format!("stagegraph.{k}"), v));
            }
        }
        Self {
            counters,
            histograms,
        }
    }

    /// Look up one counter entry.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.counters
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| *v)
    }

    /// Look up one histogram snapshot.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// Serialize to the first-party JSON schema benchgate and the CI
    /// artifacts share.
    pub fn to_json(&self) -> Json {
        let counters = Json::Obj(
            self.counters
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        );
        let histograms = Json::Obj(
            self.histograms
                .iter()
                .map(|h| {
                    (
                        h.name.clone(),
                        Json::Obj(vec![
                            (
                                "edges".to_string(),
                                Json::Arr(h.edges.iter().map(|&e| Json::Num(e as f64)).collect()),
                            ),
                            (
                                "buckets".to_string(),
                                Json::Arr(h.buckets.iter().map(|&b| Json::Num(b as f64)).collect()),
                            ),
                            ("count".to_string(), Json::Num(h.count as f64)),
                            ("sum".to_string(), Json::Num(h.sum as f64)),
                        ]),
                    )
                })
                .collect(),
        );
        Json::Obj(vec![
            ("counters".to_string(), counters),
            ("histograms".to_string(), histograms),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_events_round_trip_through_packing() {
        let cases = [
            TraceEvent::packet(
                7,
                42,
                1504,
                2,
                Some(ErrorCategory::DecoderDiverged),
                123_456,
                789_012,
                999_999,
            ),
            TraceEvent::packet(0, 0, 40, 0, None, 1, 2, 3),
            TraceEvent::flush(99, 512, 4, FlushReason::LanesFull),
            TraceEvent::restart(3, 11),
            TraceEvent::flush(100, 6144, 1, FlushReason::Idle),
        ];
        for ev in cases {
            assert_eq!(TraceEvent::unpack(ev.pack()), ev, "{ev:?}");
        }
        assert_eq!(cases[4].flush_reason, 3, "idle is reason code 3");
        assert_eq!(cases[0].trace_kind(), TraceKind::PacketError);
        assert_eq!(
            cases[0].error_category(),
            Some(ErrorCategory::DecoderDiverged)
        );
        assert_eq!(cases[1].trace_kind(), TraceKind::PacketDone);
        assert_eq!(cases[1].error_category(), None);
    }

    #[test]
    fn recorder_keeps_the_newest_events_in_order() {
        let rec = FlightRecorder::with_capacity(16);
        for i in 0..40u64 {
            rec.record(TraceEvent::packet(i, i, 40, 0, None, 0, 0, i));
        }
        assert_eq!(rec.recorded(), 40);
        let dump = rec.dump_last(8);
        assert_eq!(dump.len(), 8);
        let totals: Vec<u32> = dump.iter().map(|e| e.total_ns).collect();
        assert_eq!(totals, (32..40).map(|i| i as u32).collect::<Vec<_>>());
        // Asking for more than capacity clamps to the ring.
        assert_eq!(rec.dump_last(1000).len(), 16);
    }

    #[test]
    fn recorder_capacity_rounds_to_power_of_two() {
        assert_eq!(FlightRecorder::with_capacity(100).capacity(), 128);
        assert_eq!(FlightRecorder::with_capacity(0).capacity(), 8);
    }

    #[test]
    fn concurrent_writers_never_produce_garbage_dumps() {
        let rec = std::sync::Arc::new(FlightRecorder::with_capacity(64));
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let rec = rec.clone();
                s.spawn(move || {
                    for i in 0..5000u64 {
                        rec.record(TraceEvent::packet(t, i, 40, 0, None, 0, 0, t * 10_000 + i));
                    }
                });
            }
            let rec = rec.clone();
            s.spawn(move || {
                for _ in 0..200 {
                    for ev in rec.dump_last(64) {
                        // Every accepted event must be a value some
                        // writer actually wrote.
                        let t = ev.total_ns as u64 / 10_000;
                        let i = ev.total_ns as u64 % 10_000;
                        assert!(t < 4 && i < 5000, "torn event leaked: {ev:?}");
                        assert_eq!(ev.ue, t as u16, "fields from different writers mixed");
                    }
                }
            });
        });
        assert_eq!(rec.recorded(), 20_000);
    }

    #[test]
    fn breaker_trips_half_opens_and_resets() {
        let mut b = CircuitBreaker::new(BreakerConfig {
            trip_after: 3,
            cooldown_packets: 2,
        });
        assert_eq!(b.state(), BreakerState::Closed);
        assert!(!b.on_outcome(false));
        assert!(!b.on_outcome(false));
        assert!(!b.should_fast_fail(), "still closed below the threshold");
        assert!(b.on_outcome(false), "third consecutive error trips");
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 1);
        // Two cooldown packets fast-fail, then a half-open probe.
        assert!(b.should_fast_fail());
        assert!(b.should_fast_fail());
        assert!(!b.should_fast_fail(), "cooldown over: probe admitted");
        assert_eq!(b.state(), BreakerState::HalfOpen);
        // Probe failure re-opens immediately.
        assert!(b.on_outcome(false));
        assert_eq!(b.state(), BreakerState::Open);
        assert_eq!(b.trips(), 2);
        // Burn the cooldown again; this probe succeeds and closes.
        assert!(b.should_fast_fail());
        assert!(b.should_fast_fail());
        assert!(!b.should_fast_fail());
        assert!(b.on_outcome(true));
        assert_eq!(b.state(), BreakerState::Closed);
        assert_eq!(b.resets(), 1);
        // A success streak keeps it closed and clears the error count.
        assert!(!b.on_outcome(false));
        assert!(!b.on_outcome(true));
        assert!(!b.on_outcome(false));
        assert!(!b.on_outcome(false));
        assert_eq!(b.state(), BreakerState::Closed);
    }

    #[test]
    fn breaker_stage_classification_covers_every_category() {
        assert_eq!(
            BreakerStage::for_category(ErrorCategory::DeadlineExceeded),
            BreakerStage::Equalizer
        );
        assert_eq!(
            BreakerStage::for_category(ErrorCategory::MalformedFrame),
            BreakerStage::Demapper
        );
        assert_eq!(
            BreakerStage::for_category(ErrorCategory::SegmentationOverflow),
            BreakerStage::Demapper
        );
        assert_eq!(
            BreakerStage::for_category(ErrorCategory::CrcMismatch),
            BreakerStage::Decoder
        );
        assert_eq!(
            BreakerStage::for_category(ErrorCategory::DecoderDiverged),
            BreakerStage::Decoder
        );
        let names: Vec<_> = BreakerStage::ALL.iter().map(|s| s.name()).collect();
        assert_eq!(names, ["equalizer", "demapper", "decoder"]);
    }

    #[test]
    fn snapshot_captures_counters_and_histograms() {
        let p = PipelineMetrics::new();
        p.record_lap(Op::Decode, 512);
        p.record_packet(true, 2, 8);
        let r = RunnerMetrics::new(true, 16);
        r.record_occupancy(3);
        r.record_packet(100);
        let g = StageGraphMetrics::new(true);
        // One quad whose lanes stop on passes 1, 5, 12 (never) and 2:
        // the launch holds four lanes for twelve passes, twenty credited.
        g.record_launch(&[
            (1, Some(true), 1),
            (3, Some(true), 5),
            (6, Some(false), 12),
            (1, Some(true), 2),
        ]);
        let snap = MetricsSnapshot::capture(Some(&p), Some(&r), Some(&g));
        assert_eq!(snap.get("pipeline.packets"), Some(1.0));
        assert_eq!(snap.get("runner.packets"), Some(1.0));
        assert_eq!(snap.get("stagegraph.batch.quad_blocks.count"), Some(4.0));
        assert_eq!(
            snap.get("stagegraph.batch.iteration_occupancy.ratio"),
            Some(20.0 / 48.0)
        );
        assert_eq!(
            snap.get("stagegraph.batch.lane_iterations.count"),
            Some(11.0)
        );
        let h = snap.histogram("pipeline.op.decode").expect("captured");
        assert_eq!(h.count, 1);
        assert_eq!(h.bucket_sum(), 1);
        assert!(h.bucket_sum() <= h.count);
        // JSON flattens into the benchgate namespace.
        let flat = snap.to_json().flatten_numbers();
        assert_eq!(flat.get("counters.pipeline.packets"), Some(&1.0));
        assert_eq!(flat.get("histograms.pipeline.op.decode.count"), Some(&1.0));
    }

    #[test]
    fn dump_json_is_parseable() {
        let rec = FlightRecorder::with_capacity(8);
        rec.record(TraceEvent::restart(1, 2));
        let text = rec.dump_json(8).to_string_pretty();
        let back = Json::parse(&text).expect("valid json");
        assert_eq!(back.get("recorded"), Some(&Json::Num(1.0)));
    }
}
