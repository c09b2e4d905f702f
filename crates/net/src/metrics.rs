//! Performance-trajectory metrics: monotonic counters and fixed-bucket
//! latency histograms.
//!
//! Everything here is lock-free (relaxed atomics) so the threaded
//! runner can record from every stage thread, and **near-zero overhead
//! when disabled**: each registry carries an `enabled` flag checked
//! before any atomic touch.
//!
//! Time reaches the histograms one way: every stage runs as one
//! [`Spans::lap`] over the fine stage list [`Op`], and the pipeline's
//! span sink files each lap here through
//! [`PipelineMetrics::record_lap`]. The transmit and receive chains
//! ([`crate::tx`], [`crate::rx`]) bracket their own stages; a stage-graph
//! pool flush is one `Op::Decode` lap of the same sink around the same
//! receive chain's decode, so both runtimes fill `stage.decode` alike.
//!
//! Three registries mirror the three instrumented layers:
//!
//! * [`PipelineMetrics`] — per-stage latency histograms for the PHY
//!   chain ([`Stage`]: CRC → segment → encode → rate-match → modulate
//!   → OFDM → arrange → decode) plus packet counters, recorded by
//!   [`crate::pipeline::UplinkPipeline`].
//! * [`RunnerMetrics`] — ring occupancy and producer/consumer ring
//!   waits from [`crate::runner`]'s threaded drivers.
//! * [`StageGraphMetrics`] — batch-formation counters (quad/pair/single
//!   launches, flush reasons, zmm lane occupancy) from the out-of-order
//!   stage-graph runtime in [`crate::stagegraph`].
//!
//! Every registry exports a flat `name → value` snapshot (and a
//! [`Json`] document) — the stable schema `benchgate` compares across
//! commits.

use crate::error::ErrorCategory;
use std::sync::atomic::{AtomicU64, Ordering};
use vran_phy::turbo::native_batch::LaneOutcome;
use vran_util::Json;

/// A monotonic event counter (wrapping on overflow, like hardware
/// PMU counters).
#[derive(Debug, Default)]
pub struct Counter {
    v: AtomicU64,
}

impl Counter {
    /// Zeroed counter.
    pub const fn new() -> Self {
        Self {
            v: AtomicU64::new(0),
        }
    }

    /// Add one.
    #[inline]
    pub fn inc(&self) {
        self.add(1);
    }

    /// Add `n` (wraps at `u64::MAX`).
    #[inline]
    pub fn add(&self, n: u64) {
        self.v.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    #[inline]
    pub fn get(&self) -> u64 {
        self.v.load(Ordering::Relaxed)
    }
}

/// A histogram over fixed, strictly-increasing bucket upper bounds
/// (inclusive), with an implicit overflow bucket; also tracks count
/// and sum so means survive bucket quantization.
#[derive(Debug)]
pub struct Histogram {
    edges: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: Counter,
    sum: Counter,
}

impl Histogram {
    /// Histogram over the given inclusive upper bounds. Panics if the
    /// edges are empty or not strictly increasing.
    pub fn new(edges: Vec<u64>) -> Self {
        assert!(!edges.is_empty(), "histogram needs at least one edge");
        assert!(
            edges.windows(2).all(|w| w[0] < w[1]),
            "edges must strictly increase"
        );
        let buckets = (0..=edges.len()).map(|_| AtomicU64::new(0)).collect();
        Self {
            edges,
            buckets,
            count: Counter::new(),
            sum: Counter::new(),
        }
    }

    /// Canonical latency grid: powers of two from 256 ns to ~8.4 ms.
    /// Stage timings for one packet land well inside this range.
    pub fn latency_ns() -> Self {
        Self::new((8..24).map(|p| 1u64 << p).collect())
    }

    /// Extended latency grid for cell-scale per-packet latency: powers
    /// of two from 256 ns to ~1.07 s. Queueing delay under bursty load
    /// spans whole TTIs (1 ms each) and HARQ round trips (8 ms each),
    /// far past the per-stage grid's ceiling.
    pub fn latency_wide_ns() -> Self {
        Self::new((8..31).map(|p| 1u64 << p).collect())
    }

    /// Occupancy grid for a ring of `capacity` slots: one bucket per
    /// power of two up to the capacity.
    pub fn occupancy(capacity: usize) -> Self {
        let mut edges = vec![0u64];
        let mut e = 1u64;
        while e < capacity as u64 {
            edges.push(e);
            e *= 2;
        }
        edges.push(capacity as u64);
        Self::new(edges)
    }

    /// Record one observation.
    ///
    /// Ordering contract (the [`Self::snapshot_consistent`] invariant):
    /// the count and sum are bumped **before** the bucket, and the
    /// bucket store is `Release`. A snapshot that reads buckets first
    /// (with `Acquire`) therefore observes, for every bucket increment
    /// it sees, the matching count increment — so an observed bucket
    /// sum can never exceed the observed count, even mid-run.
    #[inline]
    pub fn record(&self, v: u64) {
        let i = self.edges.partition_point(|&e| e < v);
        self.count.inc();
        self.sum.add(v);
        self.buckets[i].fetch_add(1, Ordering::Release);
    }

    /// Bucket upper bounds (the overflow bucket has no bound).
    pub fn edges(&self) -> &[u64] {
        &self.edges
    }

    /// Per-bucket observation counts (`edges().len() + 1` entries; the
    /// last is the overflow bucket).
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.buckets
            .iter()
            .map(|b| b.load(Ordering::Acquire))
            .collect()
    }

    /// Consistent point-in-time copy of `(buckets, count, sum)` safe to
    /// take while writers are recording: buckets are read first (with
    /// `Acquire`, pairing with [`Self::record`]'s `Release` bucket
    /// store), then count, then sum — guaranteeing `buckets.sum() <=
    /// count <= sum-observations` for any interleaving, and making two
    /// sequential snapshots monotone in every field.
    pub fn snapshot_consistent(&self) -> (Vec<u64>, u64, u64) {
        let buckets = self.bucket_counts();
        let count = self.count();
        let sum = self.sum();
        (buckets, count, sum)
    }

    /// Observations recorded.
    pub fn count(&self) -> u64 {
        self.count.get()
    }

    /// Sum of observed values.
    pub fn sum(&self) -> u64 {
        self.sum.get()
    }

    /// Mean observed value (0 if empty).
    pub fn mean(&self) -> f64 {
        let n = self.count();
        if n == 0 {
            0.0
        } else {
            self.sum() as f64 / n as f64
        }
    }

    /// Upper edge of the bucket containing the `q`-quantile
    /// (`0.0..=1.0`); `u64::MAX` when it lands in the overflow bucket,
    /// 0 when empty.
    pub fn quantile_upper(&self, q: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((q.clamp(0.0, 1.0) * n as f64).ceil() as u64).max(1);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return self.edges.get(i).copied().unwrap_or(u64::MAX);
            }
        }
        u64::MAX
    }
}

/// The eight instrumented PHY stages, in pipeline order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Stage {
    /// CRC24A attach (tx) and check (rx).
    Crc,
    /// Transport-block segmentation and desegmentation.
    Segment,
    /// Turbo encoding.
    Encode,
    /// Rate matching (tx) and de-rate-matching (rx).
    RateMatch,
    /// Scrambling + symbol mapping (tx only).
    Modulate,
    /// OFDM modulation/demodulation and the channel model.
    Ofdm,
    /// Soft demapping + LLR descrambling (rx front end) — kept
    /// distinct from [`Stage::Modulate`] so the flight recorder never
    /// conflates tx modulation with rx demap.
    Demap,
    /// The data-arrangement process (the paper's subject).
    Arrange,
    /// Turbo decoding.
    Decode,
}

impl Stage {
    /// Number of stages.
    pub const COUNT: usize = 9;
    /// All stages in pipeline order.
    pub const ALL: [Stage; Stage::COUNT] = [
        Stage::Crc,
        Stage::Segment,
        Stage::Encode,
        Stage::RateMatch,
        Stage::Modulate,
        Stage::Ofdm,
        Stage::Demap,
        Stage::Arrange,
        Stage::Decode,
    ];

    /// Snake-case name used in snapshot keys.
    pub fn name(self) -> &'static str {
        match self {
            Stage::Crc => "crc",
            Stage::Segment => "segment",
            Stage::Encode => "encode",
            Stage::RateMatch => "rate_match",
            Stage::Modulate => "modulate",
            Stage::Ofdm => "ofdm",
            Stage::Demap => "demap",
            Stage::Arrange => "arrange",
            Stage::Decode => "decode",
        }
    }
}

/// The chains' fine stage list, in chain order: what one
/// [`Spans::lap`] brackets. `Encode`, `RateMatch`, `DeRateMatch` and
/// `Arrange` lap once per code block; `Decode` once per run of equal-K
/// blocks on the native decoder (one call decodes the run, so a packet
/// laps once or twice and `stage.decode.count` counts runs, not
/// blocks) and once per block on the scalar oracle; the rest once per
/// packet. [`Op::stage`] folds the list onto the coarser [`Stage`]
/// histograms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// PDCP/RLC/MAC framing of the frame into the transport block.
    L2Encap,
    /// CRC24A attach.
    CrcAttach,
    /// Segmentation plan + split into code blocks.
    Seg,
    /// Turbo encode of one code block.
    Encode,
    /// Rate match of one code block.
    RateMatch,
    /// Gold-sequence scrambling of the coded bits.
    Scramble,
    /// Constellation mapping.
    Map,
    /// OFDM modulation (IFFT + CP).
    OfdmMod,
    /// The channel model between the chains (loopback only).
    Channel,
    /// OFDM demodulation (CP strip + FFT).
    OfdmDemod,
    /// Soft demapping.
    Demap,
    /// LLR descrambling.
    Descramble,
    /// De-rate-match of one code block.
    DeRateMatch,
    /// The data arrangement of one code block (the paper's subject).
    Arrange,
    /// Turbo decode of one run of equal-K code blocks (one block on
    /// the scalar oracle).
    Decode,
    /// Desegmentation of the decoded blocks.
    Deseg,
    /// CRC24A check.
    CrcCheck,
    /// MAC/RLC/PDCP de-encapsulation of the transport block.
    L2Decap,
}

impl Op {
    /// The [`Stage`] histogram this op's laps land in; the two L2 ops
    /// have none.
    pub fn stage(self) -> Option<Stage> {
        Some(match self {
            Op::L2Encap | Op::L2Decap => return None,
            Op::CrcAttach | Op::CrcCheck => Stage::Crc,
            Op::Seg | Op::Deseg => Stage::Segment,
            Op::Encode => Stage::Encode,
            Op::RateMatch | Op::DeRateMatch => Stage::RateMatch,
            Op::Scramble | Op::Map => Stage::Modulate,
            Op::OfdmMod | Op::Channel | Op::OfdmDemod => Stage::Ofdm,
            Op::Demap | Op::Descramble => Stage::Demap,
            Op::Arrange => Stage::Arrange,
            Op::Decode => Stage::Decode,
        })
    }
}

/// A span sink: where a chain reports to its owner. The chains call
/// [`Spans::lap`] around every stage and never read a clock
/// themselves; what a lap costs and where it is filed is the sink's
/// business. `()` is the sink that measures nothing.
pub trait Spans {
    /// Run `work` as one lap of `op`.
    fn lap<T>(&mut self, op: Op, work: impl FnOnce() -> T) -> T;

    /// A pooled buffer was filled: it `held` this capacity before and
    /// has `now` after (0 → n a first allocation, equal a reuse,
    /// anything else a growth).
    fn staged(&mut self, _held: usize, _now: usize) {}
}

impl Spans for () {
    #[inline]
    fn lap<T>(&mut self, _op: Op, work: impl FnOnce() -> T) -> T {
        work()
    }
}

/// Per-stage latency histograms and packet counters for the uplink
/// pipeline.
#[derive(Debug)]
pub struct PipelineMetrics {
    enabled: bool,
    stages: [Histogram; Stage::COUNT],
    /// Demap share of [`Stage::Demap`] when the native SIMD front end
    /// ran (fixed-point kernel time only, excluding descramble).
    frontend_demap: Histogram,
    /// Descramble share of [`Stage::Demap`] when the native SIMD
    /// front end ran (word-parallel Gold + sign-select time).
    frontend_descramble: Histogram,
    /// Per-packet CRC kernel time when the table/clmul front end ran
    /// (recorded alongside [`Stage::Crc`]).
    frontend_crc: Histogram,
    /// Packets processed.
    pub packets: Counter,
    /// Packets that round-tripped bit-exactly.
    pub ok_packets: Counter,
    /// Turbo-decoder iterations, summed over code blocks.
    pub decoder_iterations: Counter,
    /// Turbo-decoder SISO passes, summed over code blocks: each
    /// block's own count (where it stopped), not the passes a batch
    /// launch ran for its slowest lane.
    pub siso_passes: Counter,
    /// Code blocks processed.
    pub code_blocks: Counter,
    /// Decoder-scratch buffer growths (heap allocations in the hot
    /// decode loop).
    pub decode_scratch_allocs: Counter,
    /// Decoder-scratch acquisitions served entirely from retained
    /// capacity (heap allocations avoided).
    pub decode_scratch_reuses: Counter,
    /// Failed packets by [`ErrorCategory`] (indexed by discriminant).
    pub errors: [Counter; ErrorCategory::COUNT],
    /// Packets whose decoder iteration budget was clamped by the
    /// per-packet deadline (the gate is asked once per packet).
    pub deadline_clamps: Counter,
    /// Native→scalar decoder demotions after repeated decode failures.
    pub backend_degradations: Counter,
    /// Demoted pipelines restored to the native decoder after
    /// sustained success.
    pub backend_restorations: Counter,
    /// Packets on the native decoder that ran its scalar SISO kernel
    /// because no SIMD ISA level was available.
    pub native_simd_fallbacks: Counter,
    /// Packets on the packed encoder that ran its portable `u64`
    /// kernel because no SIMD ISA level was available
    /// (transmit-side counterpart of `native_simd_fallbacks`).
    pub packed_encoder_fallbacks: Counter,
    /// Packets staged for batched native decoding whose lanes ran as
    /// single-block decodes because the host (or the test ISA ceiling)
    /// lacks AVX-512BW — the zmm batch tier degraded.
    pub batch_simd_fallbacks: Counter,
    /// Packets on the packed encoder that ran a sub-512-bit kernel because the host (or the test ISA ceiling)
    /// lacks AVX-512BW — the zmm encoder tier degraded.
    pub zmm_encoder_fallbacks: Counter,
    /// Circuit-breaker trips (a protected stage opened after
    /// consecutive errors, or a half-open probe failed).
    pub breaker_trips: Counter,
    /// Circuit-breaker resets (a half-open probe succeeded and closed
    /// the breaker).
    pub breaker_resets: Counter,
    /// Packets fast-failed by an open breaker without running the
    /// protected stages.
    pub breaker_fastfails: Counter,
    /// LLR staging buffers acquired by allocating fresh `SoftStreams`
    /// (the pool was empty — expected only during warm-up).
    pub staging_allocs: Counter,
    /// LLR staging buffers served from the pool with retained capacity
    /// (zero heap traffic — the steady state).
    pub staging_reuses: Counter,
    /// Pooled LLR staging buffers whose capacity had to grow for a new
    /// block size K (a heap reallocation despite pooling).
    pub staging_reallocs: Counter,
    /// Code blocks staged through the fused APCM ingest (de-rate-match
    /// straight into decoder-layout streams).
    pub fused_ingest_blocks: Counter,
    /// Packets that ran the native SIMD front end (fixed-point demap +
    /// word-parallel descramble + table/clmul CRC).
    pub frontend_packets: Counter,
    /// Packets on the SIMD front end that ran one or more
    /// scalar front-end kernels because no vector ISA level was
    /// available (the front-end tier degraded).
    pub frontend_fallbacks: Counter,
}

impl Default for PipelineMetrics {
    fn default() -> Self {
        Self::new(true)
    }
}

impl PipelineMetrics {
    /// New registry; `enabled = false` makes every record a no-op.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            stages: std::array::from_fn(|_| Histogram::latency_ns()),
            frontend_demap: Histogram::latency_ns(),
            frontend_descramble: Histogram::latency_ns(),
            frontend_crc: Histogram::latency_ns(),
            packets: Counter::new(),
            ok_packets: Counter::new(),
            decoder_iterations: Counter::new(),
            code_blocks: Counter::new(),
            siso_passes: Counter::new(),
            decode_scratch_allocs: Counter::new(),
            decode_scratch_reuses: Counter::new(),
            errors: std::array::from_fn(|_| Counter::new()),
            deadline_clamps: Counter::new(),
            backend_degradations: Counter::new(),
            backend_restorations: Counter::new(),
            native_simd_fallbacks: Counter::new(),
            packed_encoder_fallbacks: Counter::new(),
            batch_simd_fallbacks: Counter::new(),
            zmm_encoder_fallbacks: Counter::new(),
            breaker_trips: Counter::new(),
            breaker_resets: Counter::new(),
            breaker_fastfails: Counter::new(),
            staging_allocs: Counter::new(),
            staging_reuses: Counter::new(),
            staging_reallocs: Counter::new(),
            fused_ingest_blocks: Counter::new(),
            frontend_packets: Counter::new(),
            frontend_fallbacks: Counter::new(),
        }
    }

    /// Whether recording is live.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record packet-level outcome (no-op when disabled).
    pub fn record_packet(&self, ok: bool, code_blocks: usize, decoder_iterations: usize) {
        if !self.enabled {
            return;
        }
        self.packets.inc();
        if ok {
            self.ok_packets.inc();
        }
        self.code_blocks.add(code_blocks as u64);
        self.decoder_iterations.add(decoder_iterations as u64);
    }

    /// Record decoder-scratch acquisition outcomes and the SISO passes
    /// run through it for one packet (no-op when disabled).
    pub fn record_scratch(&self, allocs: u64, reuses: u64, siso_passes: u64) {
        if !self.enabled {
            return;
        }
        self.decode_scratch_allocs.add(allocs);
        self.decode_scratch_reuses.add(reuses);
        self.siso_passes.add(siso_passes);
    }

    /// Count one failed packet under its error category (no-op when
    /// disabled).
    #[inline]
    pub fn record_error(&self, category: ErrorCategory) {
        if self.enabled {
            self.errors[category as usize].inc();
        }
    }

    /// Failed-packet count for one category.
    pub fn error_count(&self, category: ErrorCategory) -> u64 {
        self.errors[category as usize].get()
    }

    /// The histogram behind one stage.
    pub fn stage(&self, stage: Stage) -> &Histogram {
        &self.stages[stage as usize]
    }

    /// The SIMD-front-end demap histogram (the demap share of
    /// [`Stage::Demap`] when the native tier ran).
    pub fn frontend_demap(&self) -> &Histogram {
        &self.frontend_demap
    }

    /// The SIMD-front-end descramble histogram.
    pub fn frontend_descramble(&self) -> &Histogram {
        &self.frontend_descramble
    }

    /// The SIMD-front-end CRC histogram.
    pub fn frontend_crc(&self) -> &Histogram {
        &self.frontend_crc
    }

    /// File one chain lap: under the op's [`Stage`] series and, when
    /// the lap ran a SIMD front-end kernel (`simd_frontend`), under
    /// that kernel's own histogram as well (no-op when disabled).
    pub fn record_lap(&self, op: Op, nanos: u64, simd_frontend: bool) {
        if !self.enabled {
            return;
        }
        match op {
            Op::Demap if simd_frontend => self.frontend_demap.record(nanos),
            Op::Descramble if simd_frontend => self.frontend_descramble.record(nanos),
            Op::CrcAttach | Op::CrcCheck if simd_frontend => self.frontend_crc.record(nanos),
            _ => {}
        }
        if let Some(stage) = op.stage() {
            self.stages[stage as usize].record(nanos);
        }
    }

    /// File one pooled-buffer fill ([`Spans::staged`]) under the
    /// staging counters (no-op when disabled).
    pub fn record_staged(&self, held: usize, now: usize) {
        if !self.enabled {
            return;
        }
        if held == now {
            self.staging_reuses.inc();
        } else if held == 0 {
            self.staging_allocs.inc();
        } else {
            self.staging_reallocs.inc();
        }
    }

    /// Flat snapshot: stage means/p90s plus counters.
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let mut out = Vec::new();
        for s in Stage::ALL {
            let h = self.stage(s);
            out.push((format!("stage.{}.mean_ns", s.name()), h.mean()));
            out.push((format!("stage.{}.count", s.name()), h.count() as f64));
        }
        for (name, h) in [
            ("frontend_demap", &self.frontend_demap),
            ("frontend_descramble", &self.frontend_descramble),
            ("frontend_crc", &self.frontend_crc),
        ] {
            out.push((format!("stage.{name}.mean_ns"), h.mean()));
            out.push((format!("stage.{name}.count"), h.count() as f64));
        }
        out.extend(
            [
                ("packets", &self.packets),
                ("ok_packets", &self.ok_packets),
                ("code_blocks", &self.code_blocks),
                ("decoder_iterations", &self.decoder_iterations),
                ("decode.siso_passes", &self.siso_passes),
                ("decode_scratch_allocs", &self.decode_scratch_allocs),
                ("decode_scratch_reuses", &self.decode_scratch_reuses),
            ]
            .map(counter),
        );
        for c in ErrorCategory::ALL {
            out.push((format!("error.{}", c.name()), self.error_count(c) as f64));
        }
        out.extend(
            [
                ("deadline_clamps", &self.deadline_clamps),
                ("backend_degradations", &self.backend_degradations),
                ("backend_restorations", &self.backend_restorations),
                ("native_simd_fallbacks", &self.native_simd_fallbacks),
                ("packed_encoder_fallbacks", &self.packed_encoder_fallbacks),
                ("batch_simd_fallbacks", &self.batch_simd_fallbacks),
                ("zmm_encoder_fallbacks", &self.zmm_encoder_fallbacks),
                ("breaker_trips", &self.breaker_trips),
                ("breaker_resets", &self.breaker_resets),
                ("breaker_fastfails", &self.breaker_fastfails),
                ("staging_allocs", &self.staging_allocs),
                ("staging_reuses", &self.staging_reuses),
                ("staging_reallocs", &self.staging_reallocs),
                ("fused_ingest_blocks", &self.fused_ingest_blocks),
                ("frontend_packets", &self.frontend_packets),
                ("frontend_fallbacks", &self.frontend_fallbacks),
            ]
            .map(counter),
        );
        out
    }

    /// Snapshot as a JSON object.
    pub fn to_json(&self) -> Json {
        snapshot_json(self.snapshot())
    }
}

/// One named counter as a snapshot entry.
fn counter((name, c): (&str, &Counter)) -> (String, f64) {
    (name.to_string(), c.get() as f64)
}

/// Ring-occupancy and stall metrics for the threaded runner.
#[derive(Debug)]
pub struct RunnerMetrics {
    enabled: bool,
    /// Uplink-ring occupancy sampled at each worker pop.
    pub ring_occupancy: Histogram,
    /// Times the producer found a full ring and waited — wait episodes,
    /// not loop turns. Each lasts until the ring is at most half full.
    pub push_stalls: Counter,
    /// Times a consumer found an empty ring and waited for a push.
    pub pop_stalls: Counter,
    /// Packets completing the pipeline.
    pub packets: Counter,
    /// Wire bytes completing the pipeline.
    pub wire_bytes: Counter,
    /// Worker restarts after an isolated panic (each restart rebuilds
    /// the worker's pipeline state).
    pub worker_restarts: Counter,
    /// Packets quarantined because processing them panicked.
    pub quarantined: Counter,
}

impl Default for RunnerMetrics {
    fn default() -> Self {
        Self::new(true, 256)
    }
}

impl RunnerMetrics {
    /// New registry for rings of `ring_capacity` slots.
    pub fn new(enabled: bool, ring_capacity: usize) -> Self {
        Self {
            enabled,
            ring_occupancy: Histogram::occupancy(ring_capacity),
            push_stalls: Counter::new(),
            pop_stalls: Counter::new(),
            packets: Counter::new(),
            wire_bytes: Counter::new(),
            worker_restarts: Counter::new(),
            quarantined: Counter::new(),
        }
    }

    /// Whether recording is live.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Sample ring occupancy (no-op when disabled).
    #[inline]
    pub fn record_occupancy(&self, len: usize) {
        if self.enabled {
            self.ring_occupancy.record(len as u64);
        }
    }

    /// Count one full-ring producer wait (no-op when disabled).
    #[inline]
    pub fn record_push_stall(&self) {
        if self.enabled {
            self.push_stalls.inc();
        }
    }

    /// Count one empty-ring consumer wait (no-op when disabled).
    #[inline]
    pub fn record_pop_stall(&self) {
        if self.enabled {
            self.pop_stalls.inc();
        }
    }

    /// Record one completed packet (no-op when disabled).
    #[inline]
    pub fn record_packet(&self, wire_len: usize) {
        if self.enabled {
            self.packets.inc();
            self.wire_bytes.add(wire_len as u64);
        }
    }

    /// Record one worker restart after an isolated panic (no-op when
    /// disabled).
    #[inline]
    pub fn record_worker_restart(&self) {
        if self.enabled {
            self.worker_restarts.inc();
        }
    }

    /// Record one quarantined (panic-inducing) packet (no-op when
    /// disabled).
    #[inline]
    pub fn record_quarantine(&self) {
        if self.enabled {
            self.quarantined.inc();
        }
    }

    /// Flat snapshot.
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        vec![
            ("ring.occupancy.mean".into(), self.ring_occupancy.mean()),
            (
                "ring.occupancy.samples".into(),
                self.ring_occupancy.count() as f64,
            ),
            ("ring.push_stalls".into(), self.push_stalls.get() as f64),
            ("ring.pop_stalls".into(), self.pop_stalls.get() as f64),
            ("packets".into(), self.packets.get() as f64),
            ("wire_bytes".into(), self.wire_bytes.get() as f64),
            ("worker_restarts".into(), self.worker_restarts.get() as f64),
            ("quarantined".into(), self.quarantined.get() as f64),
        ]
    }

    /// Snapshot as a JSON object.
    pub fn to_json(&self) -> Json {
        snapshot_json(self.snapshot())
    }
}

/// Batch-formation counters for the out-of-order stage-graph runtime
/// ([`crate::stagegraph::StageGraph`]): how decode tasks actually
/// launched (quad / pair / single leftover) and why each
/// pool flushed — one counter per [`crate::stagegraph::FlushReason`],
/// the same four reasons [`crate::observe::TraceEvent::flush`] codes
/// 0–3. The headline figure is [`Self::lane_occupancy`] — the fraction
/// of code blocks that rode a full quad launch, i.e. how often the
/// AVX-512BW lanes were actually full. An underloaded graph trades it
/// away on purpose: `flush_idle` counts those flushes.
#[derive(Debug)]
pub struct StageGraphMetrics {
    enabled: bool,
    /// Code blocks decoded as part of a full quad launch (two zmm
    /// registers of the batch kernel).
    pub quad_blocks: Counter,
    /// Code blocks decoded as part of a pair launch (one zmm register).
    pub pair_blocks: Counter,
    /// Code blocks decoded alone (pool remainder below pair width).
    pub single_blocks: Counter,
    /// Pool flushes because four same-K tasks filled the zmm lanes.
    pub flush_lanes_full: Counter,
    /// Pool flushes because a member packet's deadline (or age bound)
    /// neared — partial launch rather than a blown budget.
    pub flush_deadline: Counter,
    /// Pool flushes at end-of-run drain (no more admissions coming).
    pub flush_drain: Counter,
    /// Pool flushes because the graph was underloaded: an admission
    /// launched every non-empty pool before returning.
    pub flush_idle: Counter,
    /// Decoder iterations credited to lanes: each block's own count,
    /// which stops at its CRC pass.
    pub lane_iterations: Counter,
    /// Decoder iterations launches occupied lanes for: a launch runs
    /// until its slowest lane is done, times the lanes it launched.
    pub launch_iterations: Counter,
    /// SISO passes credited to lanes: each block's own count.
    pub lane_siso_passes: Counter,
    /// SISO passes launches occupied lanes for (slowest lane × lanes).
    pub launch_siso_passes: Counter,
}

impl Default for StageGraphMetrics {
    fn default() -> Self {
        Self::new(true)
    }
}

impl StageGraphMetrics {
    /// New registry.
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            quad_blocks: Counter::new(),
            pair_blocks: Counter::new(),
            single_blocks: Counter::new(),
            flush_lanes_full: Counter::new(),
            flush_deadline: Counter::new(),
            flush_drain: Counter::new(),
            flush_idle: Counter::new(),
            lane_iterations: Counter::new(),
            launch_iterations: Counter::new(),
            lane_siso_passes: Counter::new(),
            launch_siso_passes: Counter::new(),
        }
    }

    /// Whether recording is live.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Record one batch launch of `lanes.len()` equal-K tasks (4 =
    /// quad, 2 = pair, 1 = single) from each lane's `(iterations,
    /// crc_ok, siso_passes)`. No-op when disabled.
    #[inline]
    pub fn record_launch(&self, lanes: &[LaneOutcome]) {
        if self.enabled {
            let blocks = lanes.len() as u64;
            match blocks {
                4 => self.quad_blocks.add(4),
                2 => self.pair_blocks.add(2),
                _ => self.single_blocks.add(blocks),
            }
            let iters = lanes.iter().map(|l| l.0 as u64);
            self.lane_iterations.add(iters.clone().sum());
            self.launch_iterations
                .add(iters.max().unwrap_or(0) * blocks);
            let passes = lanes.iter().map(|l| l.2 as u64);
            self.lane_siso_passes.add(passes.clone().sum());
            self.launch_siso_passes
                .add(passes.max().unwrap_or(0) * blocks);
        }
    }

    /// Record one pool flush with its reason. No-op when disabled.
    #[inline]
    pub fn record_flush(&self, reason: crate::stagegraph::FlushReason) {
        if self.enabled {
            match reason {
                crate::stagegraph::FlushReason::LanesFull => self.flush_lanes_full.inc(),
                crate::stagegraph::FlushReason::Deadline => self.flush_deadline.inc(),
                crate::stagegraph::FlushReason::Drain => self.flush_drain.inc(),
                crate::stagegraph::FlushReason::Idle => self.flush_idle.inc(),
            }
        }
    }

    /// Fraction of decoded code blocks that launched in a full quad —
    /// the zmm lane-occupancy figure the stage graph exists to raise.
    /// `NaN`-free: returns 0.0 before any block decodes.
    pub fn lane_occupancy(&self) -> f64 {
        let quad = self.quad_blocks.get() as f64;
        let total = quad + self.pair_blocks.get() as f64 + self.single_blocks.get() as f64;
        if total == 0.0 {
            0.0
        } else {
            quad / total
        }
    }

    /// Fraction of the SISO passes launches occupied lanes for that
    /// were credited to a block — 1.0 when the lanes of every launch
    /// stop on the same pass, lower when passed lanes idle behind a
    /// slower one (the figure that would justify refilling them).
    /// `NaN`-free: returns 0.0 before any block decodes.
    pub fn iteration_occupancy(&self) -> f64 {
        match self.launch_siso_passes.get() {
            0 => 0.0,
            launched => self.lane_siso_passes.get() as f64 / launched as f64,
        }
    }

    /// Flat snapshot (benchgate schema: `.ratio` ⇒ ratio tolerance,
    /// `.count` ⇒ exact).
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let mut out = vec![
            ("batch.lane_occupancy.ratio".into(), self.lane_occupancy()),
            (
                "batch.iteration_occupancy.ratio".into(),
                self.iteration_occupancy(),
            ),
        ];
        out.extend(
            [
                ("batch.quad_blocks.count", &self.quad_blocks),
                ("batch.pair_blocks.count", &self.pair_blocks),
                ("batch.single_blocks.count", &self.single_blocks),
                ("batch.flush.lanes_full.count", &self.flush_lanes_full),
                ("batch.flush.deadline.count", &self.flush_deadline),
                ("batch.flush.drain.count", &self.flush_drain),
                ("batch.flush.idle.count", &self.flush_idle),
                ("batch.lane_iterations.count", &self.lane_iterations),
                ("batch.launch_iterations.count", &self.launch_iterations),
                ("batch.lane_siso_passes.count", &self.lane_siso_passes),
                ("batch.launch_siso_passes.count", &self.launch_siso_passes),
            ]
            .map(counter),
        );
        out
    }

    /// Snapshot as a JSON object.
    pub fn to_json(&self) -> Json {
        snapshot_json(self.snapshot())
    }
}

/// Build an insertion-ordered JSON object from a flat snapshot.
fn snapshot_json(entries: Vec<(String, f64)>) -> Json {
    Json::Obj(
        entries
            .into_iter()
            .map(|(k, v)| (k, Json::Num(v)))
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts_and_wraps() {
        let c = Counter::new();
        c.inc();
        c.add(41);
        assert_eq!(c.get(), 42);
        c.add(u64::MAX);
        assert_eq!(c.get(), 41, "hardware-counter wraparound, not saturation");
    }

    #[test]
    fn histogram_bucket_edges_are_inclusive_upper_bounds() {
        let h = Histogram::new(vec![10, 100, 1000]);
        for v in [0, 10, 11, 100, 101, 1000, 1001, u64::MAX] {
            h.record(v);
        }
        // buckets: ≤10, ≤100, ≤1000, overflow
        assert_eq!(h.bucket_counts(), vec![2, 2, 2, 2]);
        assert_eq!(h.count(), 8);
    }

    #[test]
    fn histogram_mean_and_quantiles() {
        let h = Histogram::new(vec![10, 100, 1000]);
        assert_eq!(h.quantile_upper(0.5), 0, "empty histogram");
        for v in [5, 5, 50, 500] {
            h.record(v);
        }
        assert!((h.mean() - 140.0).abs() < 1e-9);
        assert_eq!(h.quantile_upper(0.5), 10);
        assert_eq!(h.quantile_upper(1.0), 1000);
        h.record(5000);
        assert_eq!(
            h.quantile_upper(1.0),
            u64::MAX,
            "overflow bucket has no bound"
        );
    }

    #[test]
    #[should_panic(expected = "strictly increase")]
    fn histogram_rejects_unsorted_edges() {
        Histogram::new(vec![10, 10]);
    }

    #[test]
    fn latency_grid_covers_stage_timescales() {
        let h = Histogram::latency_ns();
        assert_eq!(h.edges().first(), Some(&256));
        assert_eq!(h.edges().last(), Some(&(1 << 23)));
    }

    #[test]
    fn occupancy_grid_reaches_capacity() {
        let h = Histogram::occupancy(256);
        assert_eq!(h.edges(), &[0, 1, 2, 4, 8, 16, 32, 64, 128, 256]);
    }

    #[test]
    fn disabled_registries_record_nothing() {
        let p = PipelineMetrics::new(false);
        p.record_lap(Op::Decode, 999, false);
        p.record_packet(true, 3, 12);
        assert_eq!(p.stage(Stage::Decode).count(), 0);
        assert_eq!(p.packets.get(), 0);

        let r = RunnerMetrics::new(false, 256);
        r.record_occupancy(7);
        r.record_push_stall();
        r.record_pop_stall();
        r.record_packet(128);
        assert_eq!(r.ring_occupancy.count(), 0);
        assert_eq!(
            r.push_stalls.get() + r.pop_stalls.get() + r.packets.get(),
            0
        );
    }

    #[test]
    fn stage_names_are_unique_and_ordered() {
        let names: Vec<_> = Stage::ALL.iter().map(|s| s.name()).collect();
        let mut dedup = names.clone();
        dedup.dedup();
        assert_eq!(names.len(), Stage::COUNT);
        assert_eq!(names, dedup);
        assert_eq!(names[0], "crc");
        assert_eq!(names[Stage::COUNT - 1], "decode");
    }

    #[test]
    fn snapshots_flatten_to_numbers() {
        let p = PipelineMetrics::new(true);
        p.record_lap(Op::Arrange, 512, false);
        p.record_packet(true, 1, 4);
        let snap = p.snapshot();
        let get = |k: &str| snap.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("stage.arrange.count"), Some(1.0));
        assert_eq!(get("stage.arrange.mean_ns"), Some(512.0));
        assert_eq!(get("packets"), Some(1.0));
        assert_eq!(get("ok_packets"), Some(1.0));
        // JSON round-trips through the flattener benchgate uses.
        let flat = p.to_json().flatten_numbers();
        assert_eq!(flat.get("stage.arrange.count"), Some(&1.0));
    }

    #[test]
    fn error_counters_track_categories_independently() {
        let p = PipelineMetrics::new(true);
        p.record_error(ErrorCategory::MalformedFrame);
        p.record_error(ErrorCategory::MalformedFrame);
        p.record_error(ErrorCategory::DecoderDiverged);
        assert_eq!(p.error_count(ErrorCategory::MalformedFrame), 2);
        assert_eq!(p.error_count(ErrorCategory::DecoderDiverged), 1);
        assert_eq!(p.error_count(ErrorCategory::DeadlineExceeded), 0);
        let snap = p.snapshot();
        let get = |k: &str| snap.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("error.malformed_frame"), Some(2.0));
        assert_eq!(get("error.decoder_diverged"), Some(1.0));
        assert_eq!(get("deadline_clamps"), Some(0.0));
        assert_eq!(get("backend_degradations"), Some(0.0));
        assert_eq!(get("native_simd_fallbacks"), Some(0.0));

        // Disabled registry records nothing.
        let off = PipelineMetrics::new(false);
        off.record_error(ErrorCategory::CrcMismatch);
        assert_eq!(off.error_count(ErrorCategory::CrcMismatch), 0);

        let r = RunnerMetrics::new(true, 16);
        r.record_worker_restart();
        r.record_quarantine();
        let snap = r.snapshot();
        let get = |k: &str| snap.iter().find(|(n, _)| n == k).map(|(_, v)| *v);
        assert_eq!(get("worker_restarts"), Some(1.0));
        assert_eq!(get("quarantined"), Some(1.0));
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Histogram::latency_ns();
        let c = Counter::new();
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for i in 0..1000 {
                        h.record(i);
                        c.inc();
                    }
                });
            }
        });
        assert_eq!(h.count(), 4000);
        assert_eq!(c.get(), 4000);
    }
}
