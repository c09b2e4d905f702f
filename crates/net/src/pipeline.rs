//! The end-to-end uplink pipeline: a loopback bench around the receive
//! chain.
//!
//! One packet's journey is three named parts (the paper's Figure 1
//! path, transmitter and receiver both simulated so the loop closes):
//!
//! ```text
//! ingress   frame bytes → header validation → L2 encapsulation
//! TxChain   → CRC24A → segmentation → turbo encode → rate match
//!             → scramble → modulate → OFDM                    (crate::tx)
//! channel   → AWGN on the samples, or frequency-domain fading +
//!             equalization on the symbols
//! RxChain   → OFDM demod → soft demap → descramble → de-rate-match
//!             → DATA ARRANGEMENT → turbo decode → desegment
//!             → CRC check → L2 → frame bytes                  (crate::rx)
//! ```
//!
//! [`UplinkPipeline::process`] is ingress → `tx` → channel → `rx`;
//! [`UplinkPipeline::prepare`] stops after the receive front end and
//! hands the arranged blocks to the stage-graph runtime, which finishes
//! them through [`UplinkPipeline::complete`];
//! [`UplinkPipeline::prepare_capture`] is the same admission for a
//! [`Capture`] that did not come from the loopback. The pipeline
//! itself owns what is *policy*: the configuration and the one place it
//! is resolved to kernels, fault injection, the deadline, the
//! degradation ladder, circuit breakers, metrics and the trace.
//! [`UplinkPipeline::split`] cuts it into a preparing half and a
//! decoding half for two threads; they share one ladder and one set of
//! breakers, and the staged packets' buffers travel back to the
//! preparing half ([`UplinkPipeline::recycle`]).
//!
//! Both chains run one of two compositions, [`PipelineConfig::profile`]:
//! [`Profile::Production`] (the default) puts every stage on its fast
//! path at the best ISA tier the host offers; [`Profile::Reference`]
//! runs every stage's scalar oracle. Every production kernel is
//! bit-exact with its oracle except the Q11 demapper (quantization), so
//! at operating SNR the profile changes how fast a frame is delivered,
//! not which.
//!
//! # Fault tolerance
//!
//! [`UplinkPipeline::process`] returns `Result<PacketResult,
//! PipelineError>`: every receive-path failure classifies into one
//! [`crate::error::ErrorCategory`] instead of panicking or silently
//! reporting `ok = false`. Three robustness mechanisms hang off the
//! same path:
//!
//! * **Ingress validation** — frames are re-parsed
//!   ([`crate::packet::ParsedPacket::parse`]) before any PHY work, so
//!   truncated or corrupted headers are rejected as
//!   [`PipelineError::MalformedFrame`] rather than fed downstream.
//! * **Deadline-aware degradation** — an optional per-packet time
//!   budget ([`PipelineConfig::deadline_ns`]) first halves the decoder
//!   iteration cap when the packet has spent half its budget, then
//!   aborts with [`PipelineError::DeadlineExceeded`] once the budget is
//!   gone.
//! * **Decoder degradation ladder** — after [`DEGRADE_AFTER`]
//!   consecutive decode failures a production pipeline demotes its
//!   decoder, and only its decoder, to the scalar reference (bit-exact,
//!   so behavior-neutral — this models falling off a suspect fast
//!   path), and restores it after [`RESTORE_AFTER`] consecutive
//!   successes. Both transitions are observable in
//!   [`crate::metrics::PipelineMetrics`].

use crate::error::{DecodeFailure, ErrorCategory, FrameFault, PipelineError};
use crate::faultinject::{FaultInjector, FaultKind};
use crate::metrics::{Op, OpNanos, PipelineMetrics, Spans};
use crate::observe::{
    BreakerConfig, BreakerStage, BreakerState, CircuitBreaker, FlightRecorder, TraceEvent,
};
use crate::packet::{Packet, ParsedPacket};
use crate::rx::DecoderBackend;
use crate::rx::{plan_blocks, Capture, Delivered, RxChain, RxHooks, Staged};
use crate::tx::{Grant, Kernels, TxChain};
use std::borrow::Cow;
use std::cell::{Cell, RefCell};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};
use vran_phy::bits::unpack_msb;
use vran_phy::channel::NoiseTape;
use vran_phy::crc::{Crc, CRC24A};
use vran_phy::equalizer::{Equalizer, FadingChannel};
use vran_phy::llr::{InterleavedLlrs, Llr, TurboLlrs};
use vran_phy::modulation::{Cplx, Modulation};
use vran_phy::scrambler::GoldSequence;
use vran_phy::segmentation::Segmentation;
use vran_phy::turbo::native_batch::LaneOutcome;
use vran_phy::turbo::BlockLlrs;

pub use crate::rx::MAX_CODE_BLOCKS;
pub use crate::tx::Profile;

/// Consecutive decode failures (CRC mismatch / divergence) before a
/// production pipeline demotes its decoder to the scalar reference.
pub const DEGRADE_AFTER: u32 = 8;

/// Consecutive successes while degraded before the native decoder is
/// restored.
pub const RESTORE_AFTER: u32 = 32;

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// The kernel composition both chains run.
    pub profile: Profile,
    /// Data-channel modulation.
    pub modulation: Modulation,
    /// Channel Es/N0 in dB.
    pub snr_db: f32,
    /// Turbo decoder iteration cap.
    pub decoder_iterations: usize,
    /// Coded bits per information bit ×1024 (1024 = rate 1; the spec's
    /// circular buffer handles any value). Default 2048 → rate 1/2.
    pub rate_x1024: u32,
    /// Use the frequency-selective fading channel with pilot-based
    /// estimation and ZF equalization instead of time-domain OFDM over
    /// flat AWGN.
    pub fading: bool,
    /// Channel noise seed. Every packet crosses the same realisation of
    /// the channel: sample `i` of every capture gets the same noise.
    /// That is what lets the pipeline draw the AWGN once, into a
    /// [`NoiseTape`], and replay it bit-exactly. It is also why the
    /// loopback cannot sample a BLER curve: a waterfall must draw a
    /// fresh seed per block.
    pub seed: u64,
    /// Per-packet processing budget in nanoseconds. `None` disables
    /// deadline handling. When half the budget is spent before the
    /// packet's decode, its decoder iteration cap is halved (recorded as
    /// a `deadline_clamps` metrics event); once the budget is exhausted
    /// the packet aborts with [`PipelineError::DeadlineExceeded`]. The
    /// gate is asked once per packet, before its first block decodes.
    pub deadline_ns: Option<u64>,
    /// Per-stage circuit breakers (equalizer / demapper / decoder).
    /// `None` (the default) disables them — fault-injection soaks and
    /// the gated benchgate suites predate breakers and pin exact error
    /// counts, so the gate is strictly opt-in. `Some(cfg)` arms all
    /// three breakers with the given trip/cooldown tuning; trips,
    /// resets and fast-fails are observable in
    /// [`crate::metrics::PipelineMetrics`].
    pub breakers: Option<BreakerConfig>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        Self {
            profile: Profile::Production,
            modulation: Modulation::Qam16,
            snr_db: 14.0,
            decoder_iterations: 6,
            rate_x1024: 2048,
            fading: false,
            seed: 1,
            deadline_ns: None,
            breakers: None,
        }
    }
}

/// A packet whose receive path ran up to (but not including) turbo
/// decode: ingress, encode, channel, demap, de-rate-match and
/// arrangement are done, and each code block is staged as a
/// [`TurboLlrs`] decode task ready for cross-packet batch pooling.
///
/// Produced by [`UplinkPipeline::prepare`], consumed by
/// [`UplinkPipeline::complete`] once the stage-graph runtime has
/// decoded the tasks (in whatever quad/pair/single grouping lane
/// occupancy allowed). Everything the completion half needs — the
/// segmentation plan, the original frame for the delivery check, the
/// fault drawn for this packet, the kernels it was staged under, partial
/// stage timings — rides along so the packet can retire out of order,
/// long after the source `Packet` is gone and the degradation ladder
/// may have moved.
#[derive(Debug)]
pub struct PreparedUplink {
    /// When the packet was in hand: when `prepare` began, unless its
    /// caller had it, waiting, before then.
    pub(crate) ready: Instant,
    /// When the packet's deadline budget started running.
    pub(crate) start: Instant,
    /// When `prepare` handed the packet on; [`Self::arrive`] moves both
    /// clocks past any wait in between.
    pub(crate) staged_at: Instant,
    /// The packet's first code-block K, for its trace event.
    pub(crate) trace_k: u16,
    pub(crate) fault: FaultKind,
    pub(crate) kern: Kernels,
    pub(crate) trace_backend: u8,
    pub(crate) frame: Vec<u8>,
    pub(crate) seg: Segmentation,
    pub(crate) coded_bits: usize,
    pub(crate) nanos: OpNanos,
    pub(crate) iter_cap: usize,
    pub(crate) tasks: Vec<TurboLlrs>,
}

impl PreparedUplink {
    /// Decoder iteration cap the staged tasks must run with (already
    /// deadline-clamped when the packet spent half its budget before
    /// staging).
    pub fn iter_cap(&self) -> usize {
        self.iter_cap
    }

    /// The packet reaches whoever decodes it, at `now`: what it waited
    /// since `prepare` returned (in a ring, on another thread) is not
    /// charged to its deadline budget. Returns how long its preparation
    /// took.
    pub(crate) fn arrive(&mut self, now: Instant) -> Duration {
        let front = self.staged_at.saturating_duration_since(self.start);
        self.start += now.saturating_duration_since(self.staged_at);
        self.staged_at = now;
        front
    }
}

/// Outcome of [`UplinkPipeline::prepare`]: either decode tasks to pool
/// (the common production case) or a packet the serial path already
/// finished end to end.
#[derive(Debug)]
pub enum Admission {
    /// Code blocks staged for pooled batch decode; hand the
    /// [`PreparedUplink`] back to [`UplinkPipeline::complete`] with the
    /// decoded bits to finish the packet.
    Staged(PreparedUplink),
    /// The packet already completed serially — because the scalar
    /// decoder ([`Profile::Reference`], or the degradation ladder)
    /// decodes inline, or because it failed before reaching decode. Metrics and
    /// the degradation ladder are already settled.
    Ready(Result<PacketResult, PipelineError>),
}

/// Result of pushing one packet through the loop. Produced only when
/// the frame survived the complete path (any failure is a typed
/// [`PipelineError`] instead).
#[derive(Debug, Clone)]
pub struct PacketResult {
    /// Transport-block size in bits (incl. CRC24A).
    pub tb_bits: usize,
    /// Code blocks the TB split into.
    pub code_blocks: usize,
    /// Total coded (rate-matched) bits on the air.
    pub coded_bits: usize,
    /// Decoder iterations used, summed over code blocks.
    pub decoder_iterations: usize,
    /// Wall-clock time per [`Op`].
    pub nanos: OpNanos,
}

/// Per-pipeline working state: the two chains (which own every buffer
/// and per-K cache a packet needs twice), the loopback's channel noise
/// and output.
///
/// Lives behind a `RefCell` because `process` takes `&self`; pipelines
/// are per-thread (the threaded runner builds one, or one half, per
/// thread), so the single-threaded interior mutability is sufficient.
#[derive(Debug, Clone)]
struct Hot {
    tx: TxChain,
    rx: RxChain,
    /// Time-domain samples after the channel — what the loopback
    /// hands the receiver as its [`Capture`].
    air: Vec<Cplx>,
    /// The AWGN channel's noise, drawn once and replayed per packet.
    noise: NoiseTape,
    /// Free list of staged packets' frame buffers
    /// ([`UplinkPipeline::recycle`]).
    frames: Vec<Vec<u8>>,
}

impl Hot {
    fn new(cfg: &PipelineConfig) -> Self {
        Self {
            tx: TxChain::default(),
            rx: RxChain::new(cfg.decoder_iterations),
            air: Vec::new(),
            noise: NoiseTape::new(cfg.snr_db, cfg.seed),
            frames: Vec::new(),
        }
    }
}

/// Frame buffers a pipeline keeps for reuse, at most.
const FRAME_POOL_CAP: usize = 512;

/// The degradation ladder.
#[derive(Debug, Default)]
struct Ladder {
    /// Consecutive decode-failure packets.
    consecutive_failures: u32,
    /// Consecutive successes while degraded.
    consecutive_successes: u32,
    /// Whether the decoder is on the scalar reference.
    degraded: bool,
}

/// What packets are opened and settled against: the degradation
/// ladder, the circuit breakers and the trace ordinal. One per
/// pipeline, shared by both halves of a split one
/// ([`UplinkPipeline::split`]): the breakers the preparing half's gate
/// reads are the ones the decoding half's settlements move.
#[derive(Debug)]
struct Policy {
    ladder: Ladder,
    /// Armed circuit breakers (when `cfg.breakers` is set), indexed by
    /// [`BreakerStage`] discriminant.
    breakers: Option<[CircuitBreaker; BreakerStage::COUNT]>,
    /// Trace context: packet ordinal.
    trace_seq: u64,
}

impl Policy {
    fn next_seq(&mut self) -> u64 {
        self.trace_seq += 1;
        self.trace_seq - 1
    }
}

/// The one clock: a span sink that times each lap once and files that
/// reading under its [`Op`] in the packet's ledger and, when a registry
/// is attached, [`PipelineMetrics::record_lap`].
pub(crate) struct Clock<'a> {
    pub(crate) m: Option<&'a PipelineMetrics>,
    pub(crate) nanos: OpNanos,
}

impl Spans for Clock<'_> {
    fn lap<T>(&mut self, op: Op, work: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = work();
        let ns = t.elapsed().as_nanos() as u64;
        self.nanos[op] += ns;
        if let Some(m) = self.m {
            m.record_lap(op, ns);
        }
        out
    }

    fn staged(&mut self, held: usize, now: usize) {
        if let Some(m) = self.m {
            m.record_staged(held, now);
        }
    }
}

/// One packet's passage through the pipeline: its kernels, its clock
/// and its policy hooks in one value.
struct InPacket<'a> {
    kern: Kernels,
    clock: Clock<'a>,
    /// The injector that drew `fault`, for the faults applied mid-chain.
    faults: &'a RefCell<Option<FaultInjector>>,
    fault: FaultKind,
    /// The deadline budget, and when it started running.
    budget_ns: Option<u64>,
    start: Instant,
    /// The composition's trace code ([`TraceEvent::backend`]).
    trace_backend: u8,
}

impl Spans for InPacket<'_> {
    fn lap<T>(&mut self, op: Op, work: impl FnOnce() -> T) -> T {
        self.clock.lap(op, work)
    }

    fn staged(&mut self, held: usize, now: usize) {
        self.clock.staged(held, now);
    }
}

impl RxHooks for InPacket<'_> {
    /// Receive-side LLR faults model a corrupted fronthaul buffer.
    fn soft_bits(&mut self, llrs: &mut [Llr]) {
        if matches!(
            self.fault,
            FaultKind::FlipLlrSigns | FaultKind::SaturateLlrs
        ) {
            if let Some(f) = self.faults.borrow_mut().as_mut() {
                f.mutate_llrs(self.fault, llrs);
            }
        }
    }

    /// Deadline gate before the expensive decode: abort when the
    /// budget is gone, halve the iteration cap when half is. Asked once
    /// per packet on both paths: the serial path before its decode
    /// call, the staging path in `prepare` (its blocks decode after
    /// `prepare` returns, so the clamped cap rides into the pool).
    fn iter_cap(&mut self, cap: usize) -> Result<usize, PipelineError> {
        let Some(budget) = self.budget_ns else {
            return Ok(cap);
        };
        let elapsed = self.start.elapsed().as_nanos() as u64;
        if elapsed >= budget {
            return Err(PipelineError::DeadlineExceeded {
                budget_ns: budget,
                elapsed_ns: elapsed,
            });
        }
        if elapsed.saturating_mul(2) < budget {
            return Ok(cap);
        }
        if let Some(m) = self.clock.m {
            m.deadline_clamps.inc();
        }
        Ok((cap / 2).max(1))
    }

    /// Hand desegmentation a block count that contradicts the plan —
    /// must classify, not panic or mis-assemble.
    fn presented(&mut self, decoded: usize) -> usize {
        decoded - usize::from(self.fault == FaultKind::CodeBlockCountLie)
    }
}

/// The uplink pipeline (shared by the downlink driver — the PHY chain
/// is symmetric for our purposes; only the traffic direction and DCI
/// handling differ in `runner`).
#[derive(Debug)]
pub struct UplinkPipeline {
    cfg: PipelineConfig,
    grant: Grant,
    metrics: Option<Arc<PipelineMetrics>>,
    hot: RefCell<Hot>,
    faults: RefCell<Option<FaultInjector>>,
    /// Flight recorder receiving one trace event per settled packet.
    recorder: Option<Arc<FlightRecorder>>,
    /// Ladder, breakers and trace ordinal; shared with the other half
    /// of a split pipeline.
    policy: Arc<Mutex<Policy>>,
    /// The preparing half of a split pipeline: its packets stage on the
    /// native decoder whatever the ladder says, and the half that
    /// admits them applies the ladder ([`Self::demoted`]).
    defers_ladder: bool,
    /// Trace context: UE id of the packet being processed (set by the
    /// stage-graph/runner drivers; 0 for direct `process` callers).
    trace_ue: Cell<u64>,
    /// Trace context: first code-block K of the packet in flight.
    trace_k: Cell<u16>,
}

impl UplinkPipeline {
    /// Build a pipeline.
    pub fn new(cfg: PipelineConfig) -> Self {
        Self {
            cfg,
            grant: Grant {
                modulation: cfg.modulation,
                rate_x1024: cfg.rate_x1024,
                rv: 0,
                c_init: GoldSequence::c_init_pxsch(0x1234, 0, 4, 42),
            },
            metrics: None,
            hot: RefCell::new(Hot::new(&cfg)),
            faults: RefCell::new(None),
            recorder: None,
            policy: Arc::new(Mutex::new(Policy {
                ladder: Ladder::default(),
                breakers: cfg
                    .breakers
                    .map(|b| std::array::from_fn(|_| CircuitBreaker::new(b))),
                trace_seq: 0,
            })),
            defers_ladder: false,
            trace_ue: Cell::new(0),
            trace_k: Cell::new(0),
        }
    }

    /// Split into the two halves of a pipelined runtime, one per
    /// thread. The first (this pipeline, with its fault injector) runs
    /// [`Self::prepare`]: ingress, the loopback and the receive front
    /// end. The second, built fresh, finishes what the first staged —
    /// decode through [`crate::stagegraph::StageGraph`], then
    /// [`Self::complete`]. Both keep the configuration, metrics
    /// registry and recorder, and share one ladder, one set of breakers
    /// and one trace ordinal. The ladder moves only where packets
    /// complete, so the preparing half does not read it: the admitting
    /// half does ([`crate::stagegraph::StageGraph::admit_prepared`]),
    /// and decodes a packet staged before a demotion on the scalar
    /// reference. A staged packet's buffers belong to the preparing
    /// half: hand them back with [`Self::recycle`].
    pub fn split(mut self) -> (UplinkPipeline, UplinkPipeline) {
        let back = UplinkPipeline {
            cfg: self.cfg,
            grant: self.grant,
            metrics: self.metrics.clone(),
            hot: RefCell::new(Hot::new(&self.cfg)),
            faults: RefCell::new(None),
            recorder: self.recorder.clone(),
            policy: self.policy.clone(),
            defers_ladder: false,
            trace_ue: Cell::new(0),
            trace_k: Cell::new(0),
        };
        self.defers_ladder = true;
        (self, back)
    }

    /// Take the place of `half`, a quarantined half of a split
    /// pipeline: share its ladder, breakers and trace ordinal, and its
    /// role. Everything else stays this (fresh) pipeline's own.
    pub(crate) fn replace_half(&mut self, half: &UplinkPipeline) {
        self.policy = half.policy.clone();
        self.defers_ladder = half.defers_ladder;
    }

    fn policy(&self) -> MutexGuard<'_, Policy> {
        // Nothing under the lock panics, so a poisoned guard is sound.
        self.policy.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Build a pipeline that records per-stage latency histograms and
    /// packet counters into `metrics`.
    pub fn with_metrics(cfg: PipelineConfig, metrics: Arc<PipelineMetrics>) -> Self {
        let mut p = Self::new(cfg);
        p.metrics = Some(metrics);
        p
    }

    /// Build a pipeline with a deterministic fault injector attached:
    /// one [`FaultKind`] decision is drawn per packet and applied at
    /// the matching stage.
    pub fn with_faults(cfg: PipelineConfig, injector: FaultInjector) -> Self {
        let mut p = Self::new(cfg);
        p.faults = RefCell::new(Some(injector));
        p
    }

    /// Attach (or replace) the fault injector on an existing pipeline.
    pub fn set_fault_injector(&mut self, injector: FaultInjector) {
        self.faults = RefCell::new(Some(injector));
    }

    /// Per-kind injected-fault counts, when an injector is attached.
    pub fn fault_counts(&self) -> Option<[u64; FaultKind::COUNT]> {
        self.faults.borrow().as_ref().map(|f| *f.injected())
    }

    /// Whether the degradation ladder currently has the decoder on the
    /// scalar reference.
    pub fn is_degraded(&self) -> bool {
        self.policy().ladder.degraded
    }

    /// Attach a flight recorder: every settled packet (and breaker
    /// fast-fail) records one [`TraceEvent`].
    pub fn set_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        self.recorder = Some(recorder);
    }

    /// Set the UE id stamped on subsequent trace events (the
    /// stage-graph and runner drivers call this per admission).
    #[inline]
    pub fn set_trace_ue(&self, ue: u64) {
        self.trace_ue.set(ue);
    }

    /// Current state of one circuit breaker; `None` when breakers are
    /// not armed ([`PipelineConfig::breakers`]).
    pub fn breaker_state(&self, stage: BreakerStage) -> Option<BreakerState> {
        self.policy()
            .breakers
            .as_ref()
            .map(|b| b[stage as usize].state())
    }

    /// `(trips, resets)` totals for one circuit breaker; `None` when
    /// breakers are not armed.
    pub fn breaker_counts(&self, stage: BreakerStage) -> Option<(u64, u64)> {
        self.policy()
            .breakers
            .as_ref()
            .map(|b| (b[stage as usize].trips(), b[stage as usize].resets()))
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&Arc<PipelineMetrics>> {
        self.metrics.as_ref()
    }

    /// Take back a staged packet this pipeline prepared, once it has
    /// completed: its stream buffers, task list and frame buffer rejoin
    /// the free lists the next admissions draw from, so a warm pipeline
    /// stages packets without allocating.
    pub fn recycle(&self, prep: PreparedUplink) {
        let hot = &mut *self.hot.borrow_mut();
        hot.rx.reclaim(prep.tasks);
        if hot.frames.len() < FRAME_POOL_CAP {
            hot.frames.push(prep.frame);
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// What this pipeline's two ends agree on — the grant a capture
    /// for [`Self::prepare_capture`] must have been sent under.
    pub fn grant(&self) -> Grant {
        self.grant
    }

    /// A passage through this pipeline, no fault drawn yet. This is the
    /// one place the profile and the degradation ladder (`degraded`)
    /// become kernels — per packet, because `best_*()` follows the
    /// process-global ISA ceiling — and a trace code
    /// ([`TraceEvent::backend`]).
    fn passage(&self, degraded: bool) -> InPacket<'_> {
        let (kern, trace_backend) = match self.cfg.profile {
            Profile::Reference => (Kernels::reference(), 1),
            Profile::Production if degraded => {
                let demoted = Kernels {
                    decoder: DecoderBackend::Scalar,
                    ..Kernels::production()
                };
                (demoted, 2)
            }
            Profile::Production => (Kernels::production(), 0),
        };
        InPacket {
            kern,
            clock: Clock {
                m: self.metrics.as_deref(),
                nanos: OpNanos::default(),
            },
            faults: &self.faults,
            fault: FaultKind::Clean,
            budget_ns: self.cfg.deadline_ns,
            start: Instant::now(),
            trace_backend,
        }
    }

    /// Open a packet: the breaker gate, then the fault draw. `Err` is
    /// a breaker fast-fail, already recorded.
    fn open(&self) -> Result<InPacket<'_>, PipelineError> {
        let (mut pk, gate) = {
            let mut policy = self.policy();
            let pk = self.passage(policy.ladder.degraded && !self.defers_ladder);
            let gate = self.breaker_gate(&mut policy);
            (pk, gate)
        };
        if let Some((e, seq)) = gate {
            self.fast_failed(&pk, &e, seq);
            return Err(e);
        }
        if let Some(f) = self.faults.borrow_mut().as_mut() {
            pk.fault = f.next_kind();
        }
        self.trace_k.set(0); // until segmentation fixes the real K
        if pk.fault == FaultKind::WorkerPanic {
            // Deliberately violent: exercises the runner's per-worker
            // catch_unwind isolation, not the error taxonomy.
            panic!("fault injection: deliberate worker panic");
        }
        Ok(pk)
    }

    /// Admission gate: when a breaker is open, consume one cooldown
    /// tick and fast-fail the packet with a synthesized error of the
    /// breaker's category (and its trace ordinal) — the protected
    /// stages never run, metrics and the trace record the packet
    /// ([`Self::fast_failed`]), but the degradation ladder and the
    /// breakers themselves see nothing (a fast-fail carries no
    /// information about stage health).
    fn breaker_gate(&self, policy: &mut Policy) -> Option<(PipelineError, u64)> {
        let breakers = policy.breakers.as_mut()?;
        let stage = BreakerStage::ALL
            .into_iter()
            .find(|&s| breakers[s as usize].should_fast_fail())?;
        let err = match stage {
            BreakerStage::Equalizer => PipelineError::DeadlineExceeded {
                budget_ns: self.cfg.deadline_ns.unwrap_or(0),
                elapsed_ns: 0,
            },
            BreakerStage::Demapper => PipelineError::MalformedFrame {
                reason: FrameFault::Empty,
            },
            BreakerStage::Decoder => PipelineError::DecoderDiverged(DecodeFailure::default()),
        };
        Some((err, policy.next_seq()))
    }

    /// What a breaker fast-fail records.
    fn fast_failed(&self, pk: &InPacket<'_>, err: &PipelineError, seq: u64) {
        if let Some(m) = pk.clock.m {
            m.record_error(err.category());
            m.record_packet(false, 0, 0);
            m.breaker_fastfails.inc();
        }
        if let Some(rec) = &self.recorder {
            rec.record(TraceEvent::packet(
                self.trace_ue.get(),
                seq,
                0,
                pk.trace_backend,
                Some(err.category()),
                0,
                0,
                0,
            ));
        }
    }

    /// Process one framed packet through the complete loop: ingress →
    /// transmit chain → channel → receive chain.
    ///
    /// Every failure classifies into a [`PipelineError`]; malformed or
    /// hostile input must never panic (the fault-injection soak pushes
    /// tens of thousands of corrupted packets through here to enforce
    /// that).
    pub fn process(&self, packet: &Packet) -> Result<PacketResult, PipelineError> {
        let mut pk = self.open()?;
        let result = self
            .bench_front(&mut pk, packet)
            .and_then(|(staged, frame)| self.serial(&mut pk, staged, &frame));
        self.settle(&result, &pk);
        result
    }

    /// Run a packet's receive path up to the decode stage and stage its
    /// code blocks as pooled decode tasks (the stage-graph runtime's
    /// admission half): the loopback's transmitter and channel, then
    /// [`Self::prepare_capture`]'s admission of what they put on the
    /// air.
    ///
    /// A staged block carries no iteration semantics of its own: the
    /// launch that decodes it stops it where [`Self::process`] would
    /// have (its CRC24B when the packet has more than one block,
    /// [`PreparedUplink::iter_cap`] otherwise). Under the scalar
    /// decoder — [`Profile::Reference`], or a production pipeline the
    /// degradation ladder has demoted (not the preparing half of a
    /// split pipeline, which leaves the ladder to the half that admits
    /// its packets) —
    /// the packet is processed serially to completion and returned as
    /// [`Admission::Ready`] (already settled). Pre-decode failures
    /// (malformed frames, segmentation overflows, blown deadlines) also
    /// come back `Ready`. A staged packet's buffers come back to this
    /// pipeline through [`Self::recycle`].
    pub fn prepare(&self, packet: &Packet) -> Admission {
        let mut pk = match self.open() {
            Ok(pk) => pk,
            Err(e) => return Admission::Ready(Err(e)),
        };
        let front = self.bench_front(&mut pk, packet);
        self.admit(pk, front)
    }

    /// [`Self::prepare`] without the test bench: the receive front end
    /// on a capture from outside (sent under [`Self::grant`]), its
    /// blocks staged for pooled decode. The pipeline is a bench around
    /// the receiver, so it checks delivery rather than handing bytes
    /// up: `expect` is the frame the capture should carry, and
    /// completion reports anything else as a CRC mismatch, exactly as
    /// the loopback does with the frame it sent ([`RxChain::rx`] is the
    /// entry point that returns the bytes).
    pub fn prepare_capture(&self, cap: &Capture<'_>, expect: &[u8]) -> Admission {
        let mut pk = match self.open() {
            Ok(pk) => pk,
            Err(e) => return Admission::Ready(Err(e)),
        };
        let front = self.capture_front(&mut pk, &mut self.hot.borrow_mut().rx, cap);
        self.admit(pk, front.map(|staged| (staged, Cow::Borrowed(expect))))
    }

    /// Behind either front end: the blocks leave for the decode pools,
    /// or — scalar decoder, or no blocks to stage — the packet finishes
    /// here.
    fn admit(
        &self,
        mut pk: InPacket<'_>,
        front: Result<(Staged, Cow<'_, [u8]>), PipelineError>,
    ) -> Admission {
        let result = match front {
            Ok((staged, frame)) if pk.kern.decoder == DecoderBackend::Native => {
                match self.stage(&mut pk, staged, frame) {
                    Ok(prep) => return Admission::Staged(prep),
                    Err(e) => Err(e),
                }
            }
            Ok((staged, frame)) => self.serial(&mut pk, staged, &frame),
            Err(e) => Err(e),
        };
        self.settle(&result, &pk);
        Admission::Ready(result)
    }

    /// Finish a packet staged by [`Self::prepare`]: the receive chain's
    /// own tail ([`RxChain::deliver`]: desegmentation, CRC24A, L2) and
    /// the delivery check, then metrics and degradation-ladder
    /// settlement — under the kernels and trace code the packet was
    /// staged under, wherever the ladder has moved since.
    ///
    /// `decoded` holds one bit buffer per staged task, in task order;
    /// `iterations` is the decoder-iteration total across the packet's
    /// blocks and `failed_blocks` how many of them the decoder reported
    /// a failed CRC24B for. The stage graph has already filed in
    /// `prep`'s ledger the share of each launch it rode as
    /// [`Op::Decode`].
    pub fn complete(
        &self,
        prep: PreparedUplink,
        decoded: &[Vec<u8>],
        iterations: usize,
        failed_blocks: usize,
    ) -> Result<PacketResult, PipelineError> {
        let result = self.finish(&prep, decoded, iterations, failed_blocks);
        self.recycle(prep);
        result
    }

    /// [`Self::complete`], the packet's buffers left with the caller.
    pub(crate) fn finish(
        &self,
        prep: &PreparedUplink,
        decoded: &[Vec<u8>],
        iterations: usize,
        failed_blocks: usize,
    ) -> Result<PacketResult, PipelineError> {
        debug_assert_eq!(decoded.len(), prep.seg.c, "one bit buffer per block");
        let mut pk = self.resume(prep);
        let delivered = {
            let rx = &mut self.hot.borrow_mut().rx;
            rx.kern = pk.kern;
            rx.deliver(
                &prep.seg,
                decoded,
                prep.coded_bits,
                iterations,
                failed_blocks,
                &mut pk,
            )
        };
        let result = delivered.and_then(|d| verdict(d, &prep.frame, prep.seg.b, pk.clock.nanos));
        self.settle(&result, &pk);
        result
    }

    /// The ladder's verdict on a staged packet, taken where it is
    /// admitted for decode. `None` while the native decoder stands;
    /// once the ladder has demoted it — after `prep` was staged, on the
    /// other half of a split pipeline — the packet decodes here,
    /// serially on the scalar reference under the cap it was staged
    /// with, and this is its settled result, as if `prepare` had seen
    /// the demotion.
    pub(crate) fn demoted(
        &self,
        prep: &PreparedUplink,
    ) -> Option<Result<PacketResult, PipelineError>> {
        if !self.is_degraded() {
            return None;
        }
        let mut pk = self.resume(prep);
        pk.kern.decoder = DecoderBackend::Scalar;
        pk.trace_backend = 2;
        let delivered = self.decoding(pk.clock.m, |rx| {
            rx.kern = pk.kern;
            rx.decode_staged(
                &prep.seg,
                prep.coded_bits,
                &prep.tasks,
                prep.iter_cap,
                &mut pk,
            )
        });
        let result = delivered.and_then(|d| verdict(d, &prep.frame, prep.seg.b, pk.clock.nanos));
        self.settle(&result, &pk);
        Some(result)
    }

    /// A staged packet's passage picked up again: its fault, deadline
    /// clock, kernels, ledger and trace context.
    fn resume(&self, prep: &PreparedUplink) -> InPacket<'_> {
        let mut pk = self.passage(false);
        (pk.fault, pk.start, pk.kern) = (prep.fault, prep.start, prep.kern);
        (pk.clock.nanos, pk.trace_backend) = (prep.nanos, prep.trace_backend);
        self.trace_k.set(prep.trace_k);
        pk
    }

    /// The serial back end: inline decode, delivery check.
    fn serial(
        &self,
        pk: &mut InPacket<'_>,
        staged: Staged,
        frame: &[u8],
    ) -> Result<PacketResult, PipelineError> {
        let tb_bits = staged.seg.b;
        self.decoding(pk.clock.m, |rx| rx.back(staged, pk))
            .and_then(|delivered| verdict(delivered, frame, tb_bits, pk.clock.nanos))
    }

    /// One stage-graph flush through the receive chain
    /// ([`RxChain::decode_run`]), lapped as [`Op::Decode`] by a [`Clock`]
    /// on this pipeline's registry. `land` gets the bits and outcome of
    /// each block and the lap's nanoseconds, which the graph splits
    /// across the packets' [`Op::Decode`] ledger slots.
    pub(crate) fn decode_launch(
        &self,
        blocks: &[BlockLlrs<'_>],
        cap: usize,
        crc: Option<&Crc>,
        land: impl FnOnce(&[Vec<u8>], &[LaneOutcome], u64),
    ) {
        let m = self.metrics.as_deref();
        self.decoding(m, |rx| {
            let mut clock = Clock {
                m,
                nanos: OpNanos::default(),
            };
            let mut lanes: [LaneOutcome; MAX_CODE_BLOCKS] = Default::default();
            let lanes = &mut lanes[..blocks.len()];
            let bits = clock.lap(Op::Decode, || rx.decode_run(blocks, 0, cap, crc, lanes));
            land(bits, lanes, clock.nanos[Op::Decode]);
        });
    }

    /// Every decode, serial or staged, runs inside this: `decode` on the
    /// receive chain, then what it added to the chain's decode ledger
    /// filed under `m`.
    fn decoding<T>(
        &self,
        m: Option<&PipelineMetrics>,
        decode: impl FnOnce(&mut RxChain) -> T,
    ) -> T {
        let rx = &mut self.hot.borrow_mut().rx;
        let before = rx.decode_ledger();
        let out = decode(rx);
        if let Some(m) = m {
            let [allocs, reuses, passes] = rx.decode_ledger();
            m.record_scratch(allocs - before[0], reuses - before[1], passes - before[2]);
        }
        out
    }

    /// The staging back end: one deadline gate, and the arranged
    /// blocks leave for the decode pools.
    fn stage(
        &self,
        pk: &mut InPacket<'_>,
        staged: Staged,
        frame: Cow<'_, [u8]>,
    ) -> Result<PreparedUplink, PipelineError> {
        if let Some(m) = pk.clock.m {
            if !RxChain::batches_in_zmm() {
                // Blocks are staged for batch launches but the host
                // (or the test ISA ceiling) lacks AVX-512BW: every lane
                // is a single-block decode, bit-exactly.
                m.batch_simd_fallbacks.inc();
            }
        }
        let iter_cap = match pk.iter_cap(self.cfg.decoder_iterations) {
            Ok(cap) => cap,
            Err(e) => {
                self.hot.borrow_mut().rx.reclaim(staged.tasks);
                return Err(e);
            }
        };
        let frame = match frame {
            Cow::Owned(frame) => frame,
            Cow::Borrowed(bytes) => {
                let mut frame = self.hot.borrow_mut().frames.pop().unwrap_or_default();
                frame.clear();
                frame.extend_from_slice(bytes);
                frame
            }
        };
        Ok(PreparedUplink {
            ready: pk.start,
            start: pk.start,
            staged_at: Instant::now(),
            trace_k: self.trace_k.get(),
            fault: pk.fault,
            kern: pk.kern,
            trace_backend: pk.trace_backend,
            frame,
            seg: staged.seg,
            coded_bits: staged.coded_bits,
            nanos: pk.clock.nanos,
            iter_cap,
            tasks: staged.tasks,
        })
    }

    /// The loopback's front: ingress, the test bench (transmitter and
    /// channel), then the receive front end on what the bench put on
    /// the air — [`Self::capture_front`], or one step below it for the
    /// frequency-domain fading model. Returns the staged blocks and the
    /// frame delivery is checked against.
    fn bench_front<'p>(
        &self,
        pk: &mut InPacket<'_>,
        packet: &'p Packet,
    ) -> Result<(Staged, Cow<'p, [u8]>), PipelineError> {
        let frame = self.ingress(packet, pk.fault)?;
        let hot = &mut *self.hot.borrow_mut();
        let (tb_bits, llr_scale) = self.loopback(&frame, pk, hot)?;
        let staged = if self.cfg.fading {
            hot.rx.kern = pk.kern;
            let staged = hot.rx.front_equalized(tb_bits, llr_scale, &self.grant, pk);
            self.received(pk, staged)
        } else {
            let cap = Capture {
                samples: &hot.air,
                n_symbols: hot.tx.symbols.len(),
                tb_bits,
                llr_scale,
            };
            self.capture_front(pk, &mut hot.rx, &cap)
        };
        Ok((staged?, frame))
    }

    /// The receive front end on one capture, under this packet's
    /// kernels and hooks.
    fn capture_front(
        &self,
        pk: &mut InPacket<'_>,
        rx: &mut RxChain,
        cap: &Capture<'_>,
    ) -> Result<Staged, PipelineError> {
        rx.kern = pk.kern;
        let staged = rx.front(cap, &self.grant, pk);
        self.received(pk, staged)
    }

    /// What every packet whose front end ran counts and traces.
    fn received(
        &self,
        pk: &InPacket<'_>,
        staged: Result<Staged, PipelineError>,
    ) -> Result<Staged, PipelineError> {
        let staged = staged?;
        if let Some(m) = pk.clock.m {
            pk.kern.count_rx_tiers(m);
            // per code block, like the ingest they describe
            m.fused_ingest_blocks.add(staged.tasks.len() as u64);
        }
        self.trace_k.set(staged.seg.k_of(0) as u16);
        Ok(staged)
    }

    /// Ingress: frame-level faults, then header validation.
    fn ingress<'p>(
        &self,
        packet: &'p Packet,
        fault: FaultKind,
    ) -> Result<Cow<'p, [u8]>, PipelineError> {
        let mutated = self
            .faults
            .borrow_mut()
            .as_mut()
            .and_then(|f| f.mutate_frame(fault, &packet.frame));
        let frame = mutated.map_or(Cow::Borrowed(&packet.frame[..]), Cow::Owned);
        if frame.is_empty() {
            return Err(PipelineError::MalformedFrame {
                reason: FrameFault::Empty,
            });
        }
        ParsedPacket::parse(&frame)?;
        Ok(frame)
    }

    /// The loopback's test bench: L2 encapsulation, the transmit chain
    /// and the channel. AWGN lands on the OFDM samples, in `hot.air`;
    /// the frequency-domain fading model instead enters one step below
    /// OFDM: its equalized symbols go straight into the receive chain's
    /// symbol buffer. Returns the transport-block size in bits and the
    /// demapper's noise scale.
    fn loopback(
        &self,
        frame: &[u8],
        pk: &mut InPacket<'_>,
        hot: &mut Hot,
    ) -> Result<(usize, f32), PipelineError> {
        let cfg = &self.cfg;
        hot.tx.kern = pk.kern;
        // PDCP/RLC/MAC framing (per-packet bearer state; stream
        // continuity is exercised by the l2 module's own tests)
        let payload = pk.lap(Op::L2Encap, || {
            let pdu = crate::l2::BearerTx::default()
                .encapsulate(frame, frame.len() + crate::l2::L2_OVERHEAD)
                .expect("TB sized to fit");
            unpack_msb(&pdu, pdu.len() * 8)
        });
        // The transmit chain has no block cap of its own: refuse what
        // the receiver will before the bench spends a transmit on it.
        plan_blocks(payload.len() + CRC24A.width())?;
        let (tb_bits, llr_scale);
        if cfg.fading {
            tb_bits = hot.tx.map(&payload, &self.grant, pk)?.b;
            let held = hot.rx.symbols.capacity();
            pk.lap(Op::Channel, || {
                fading_pass(&hot.tx.symbols, cfg.snr_db, cfg.seed, &mut hot.rx.symbols)
            });
            pk.staged(held, hot.rx.symbols.capacity());
            llr_scale = 1.0;
        } else {
            tb_bits = hot.tx.tx(&payload, &self.grant, pk)?.b;
            let held = hot.air.capacity();
            pk.lap(Op::Channel, || {
                hot.noise.apply_into(&hot.tx.samples, &mut hot.air)
            });
            pk.staged(held, hot.air.capacity());
            llr_scale = Capture::llr_scale_of(hot.noise.channel());
        }
        if let Some(m) = pk.clock.m {
            pk.kern.count_tx_tiers(m);
        }
        Ok((tb_bits, llr_scale))
    }

    /// Post-packet bookkeeping: metrics counters, the degradation
    /// ladder, circuit-breaker feedback and the flight-recorder trace.
    fn settle(&self, result: &Result<PacketResult, PipelineError>, pk: &InPacket<'_>) {
        let (m, backend) = (pk.clock.m, pk.trace_backend);
        let seq = {
            let mut policy = self.policy();
            if let Some(breakers) = policy.breakers.as_mut() {
                feed_breakers(breakers, result, m);
            }
            self.climb_ladder(&mut policy.ladder, result, m);
            policy.next_seq()
        };
        if let Some(rec) = &self.recorder {
            let (category, prepare_ns, decode_ns, total_ns) = match result {
                Ok(r) => (
                    None,
                    Op::ALL[..Op::Decode as usize]
                        .iter()
                        .map(|&op| r.nanos[op])
                        .sum(),
                    r.nanos[Op::Decode],
                    r.nanos.total(),
                ),
                Err(e) => (Some(e.category()), 0, 0, 0),
            };
            rec.record(TraceEvent::packet(
                self.trace_ue.get(),
                seq,
                self.trace_k.get() as usize,
                backend,
                category,
                prepare_ns,
                decode_ns,
                total_ns,
            ));
        }
    }

    /// One packet's outcome on the degradation ladder and its counters.
    fn climb_ladder(
        &self,
        ladder: &mut Ladder,
        result: &Result<PacketResult, PipelineError>,
        m: Option<&PipelineMetrics>,
    ) {
        match result {
            Ok(r) => {
                if let Some(m) = m {
                    m.record_packet(true, r.code_blocks, r.decoder_iterations);
                }
                ladder.consecutive_failures = 0;
                if ladder.degraded {
                    ladder.consecutive_successes += 1;
                    if ladder.consecutive_successes >= RESTORE_AFTER {
                        ladder.degraded = false;
                        ladder.consecutive_successes = 0;
                        if let Some(m) = m {
                            m.backend_restorations.inc();
                        }
                    }
                }
            }
            Err(e) => {
                if let Some(m) = m {
                    m.record_error(e.category());
                    let f = e.decode_failure().copied().unwrap_or_default();
                    m.record_packet(false, f.code_blocks, f.decoder_iterations);
                }
                // Only decode-quality failures climb the ladder; a
                // malformed frame or a blown deadline says nothing
                // about the decoder.
                if matches!(
                    e.category(),
                    ErrorCategory::CrcMismatch | ErrorCategory::DecoderDiverged
                ) {
                    ladder.consecutive_successes = 0;
                    ladder.consecutive_failures += 1;
                    if !ladder.degraded
                        && self.cfg.profile == Profile::Production
                        && ladder.consecutive_failures >= DEGRADE_AFTER
                    {
                        ladder.degraded = true;
                        ladder.consecutive_failures = 0;
                        if let Some(m) = m {
                            m.backend_degradations.inc();
                        }
                    }
                }
            }
        }
    }

    /// Interleaved LLR volume (triples) the arrangement must process
    /// for a packet of `wire_len` bytes — the work-size input to the
    /// `vran-uarch` latency model.
    pub fn arrangement_triples(wire_len: usize) -> usize {
        let b = (wire_len + crate::l2::L2_OVERHEAD) * 8 + CRC24A.width();
        let seg = Segmentation::plan(b);
        (0..seg.c).map(|i| seg.k_of(i)).sum()
    }
}

/// One packet's outcome fed to the armed breakers, trips and resets
/// counted.
fn feed_breakers(
    breakers: &mut [CircuitBreaker; BreakerStage::COUNT],
    result: &Result<PacketResult, PipelineError>,
    m: Option<&PipelineMetrics>,
) {
    match result {
        Ok(_) => {
            // A full success clears every stage's error streak (the
            // whole receive path ran).
            for s in BreakerStage::ALL {
                if breakers[s as usize].on_outcome(true) {
                    if let Some(m) = m {
                        m.breaker_resets.inc();
                    }
                }
            }
        }
        Err(e) => {
            let s = BreakerStage::for_category(e.category());
            if breakers[s as usize].on_outcome(false) {
                if let Some(m) = m {
                    m.breaker_trips.inc();
                }
            }
        }
    }
}

/// The delivery check: the receiver's frame must be the one sent.
fn verdict(
    delivered: Delivered,
    frame: &[u8],
    tb_bits: usize,
    nanos: OpNanos,
) -> Result<PacketResult, PipelineError> {
    if delivered.sdu != frame {
        return Err(PipelineError::CrcMismatch(DecodeFailure {
            tb_bits,
            code_blocks: delivered.code_blocks,
            failed_blocks: 0,
            decoder_iterations: delivered.iterations,
        }));
    }
    Ok(PacketResult {
        tb_bits,
        code_blocks: delivered.code_blocks,
        coded_bits: delivered.coded_bits,
        decoder_iterations: delivered.iterations,
        nanos,
    })
}

/// The frequency-domain fading model, shared by both pipelines:
/// resource grids with scattered pilots, per-grid channel estimation
/// and ZF equalization. `out` receives one equalized symbol (unit
/// noise scale) per input symbol.
pub(crate) fn fading_pass(symbols: &[Cplx], snr_db: f32, seed: u64, out: &mut Vec<Cplx>) {
    /// Subcarriers per resource grid (5 MHz).
    const GRID: usize = 300;
    let eq = Equalizer::lte();
    let per_grid = GRID - eq.pilot_positions(GRID).len();
    let mut chan = FadingChannel::new(GRID, snr_db, 3, seed);
    out.clear();
    for chunk in symbols.chunks(per_grid) {
        let mut d = chunk.to_vec();
        d.resize(per_grid, Cplx::default());
        let (grid, _) = eq.insert_pilots(&d, GRID);
        let rx = chan.apply(&grid);
        let h = eq.estimate(&rx);
        let (eq_syms, _w) = eq.equalize(&rx, &h);
        out.extend_from_slice(&eq_syms[..chunk.len().min(eq_syms.len())]);
    }
    out.truncate(symbols.len());
}

/// Convenience: an interleaved workload of `k` triples with
/// reproducible contents (for benches and experiments that don't need
/// a real channel).
pub fn synthetic_interleaved(k: usize, seed: u64) -> InterleavedLlrs {
    let mut s = seed | 1;
    let data: Vec<Llr> = (0..3 * k)
        .map(|_| {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            ((s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 48) as i16) >> 4
        })
        .collect();
    InterleavedLlrs { k, data }
}

#[cfg(test)]
mod tests;
