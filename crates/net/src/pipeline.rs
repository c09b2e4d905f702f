//! The end-to-end uplink/downlink PHY pipeline.
//!
//! One packet's uplink journey (the paper's Figure 1 path, transmitter
//! and receiver both simulated so the loop closes):
//!
//! ```text
//! frame bytes → CRC24A → segmentation → turbo encode → rate match
//!   → scramble → modulate → OFDM → AWGN → OFDM demod → soft demap
//!   → descramble → de-rate-match → DATA ARRANGEMENT → turbo decode
//!   → desegment → CRC check → frame bytes
//! ```
//!
//! The receive side runs one of two [`DecoderBackend`]s: `Native`
//! (default) uses real-intrinsics arrangement and turbo-decode kernels
//! with runtime ISA dispatch and per-pipeline scratch reuse — the
//! wall-clock fast path; `Scalar` runs the arrangement through the
//! `vran-arrange` VM kernels and the scalar reference decoder — the
//! functional-model path. Both are bit-exact by construction, so the
//! backend never changes WHAT is computed, only how fast.
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
//! * **Backend degradation ladder** — after [`DEGRADE_AFTER`]
//!   consecutive decode failures a `Native` pipeline falls back to the
//!   `Scalar` reference backend (bit-exact, so behavior-neutral —
//!   this models falling off a suspect fast path), and restores after
//!   [`RESTORE_AFTER`] consecutive successes. Both transitions are
//!   observable in [`crate::metrics::PipelineMetrics`].

use crate::error::{DecodeFailure, ErrorCategory, FrameFault, PipelineError, SegFault};
use crate::faultinject::{FaultInjector, FaultKind};
use crate::metrics::{PipelineMetrics, Stage};
use crate::observe::{
    BreakerConfig, BreakerStage, BreakerState, CircuitBreaker, FlightRecorder, TraceEvent,
};
use crate::packet::{Packet, ParsedPacket};
use std::cell::{Cell, RefCell};
use std::sync::Arc;
use std::time::Instant;
use vran_arrange::{best_fused, fused_ingest_into, ArrangeKernel, Mechanism};
use vran_phy::bits::{extend_bits_from_words, pack_msb, unpack_msb};
use vran_phy::channel::AwgnChannel;
use vran_phy::crc::{best_crc, CrcImpl, CRC24A, CRC24B};
use vran_phy::demap::{best_demap, demap_into, DemapImpl};
use vran_phy::llr::{InterleavedLlrs, Llr, SoftStreams, TailLlrs, TurboLlrs};
use vran_phy::modulation::{Cplx, Modulation};
use vran_phy::ofdm::{OfdmConfig, OfdmError};
use vran_phy::rate_match::{PackedRateMatcher, RateMatcher};
use vran_phy::scrambler::{
    best_descramble, descramble_llrs, descramble_llrs_with, scramble_bits, DescrambleImpl,
    GoldSequence,
};
use vran_phy::segmentation::Segmentation;
use vran_phy::turbo::{
    DecodeScratch, DecoderIsa, EncodeScratch, EncoderIsa, NativeBatchTurboDecoder,
    NativeTurboDecoder, PackedTurboEncoder, TurboDecoder, TurboEncoder,
};
use vran_simd::RegWidth;

/// Maximum code blocks per transport block the receive path accepts;
/// plans beyond this classify as
/// [`PipelineError::SegmentationOverflow`]. LTE category-4 uplink TBs
/// stay well under this at our 5 MHz configuration.
pub const MAX_CODE_BLOCKS: usize = 8;

/// Consecutive decode failures (CRC mismatch / divergence) before a
/// `Native` pipeline degrades to the `Scalar` reference backend.
pub const DEGRADE_AFTER: u32 = 8;

/// Consecutive successes while degraded before the `Native` backend is
/// restored.
pub const RESTORE_AFTER: u32 = 32;

/// Which decoder implementation the receive path runs.
///
/// Both backends compute bit-identical results (the native kernels use
/// the same saturating i16 operations in the same order as the scalar
/// reference, enforced by `vran-phy`'s property tests); they differ
/// only in wall-clock cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DecoderBackend {
    /// Scalar max-log-MAP reference plus the VM arrangement kernel
    /// selected by `width`/`mechanism` — the functional-model path.
    Scalar,
    /// Real-intrinsics fast path: native APCM arrangement and the
    /// runtime-dispatched [`NativeTurboDecoder`], with per-pipeline
    /// scratch reuse (allocation-free per code block after warm-up).
    #[default]
    Native,
}

/// Which transmit-side turbo encoder + rate matcher the pipelines run.
///
/// Both backends are bit-exact by construction — the packed path
/// exploits the encoder's GF(2) linearity, which cannot change WHAT is
/// encoded, only how many bits advance per instruction (enforced by
/// `vran-phy`'s property tests across all 188 QPP sizes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EncoderBackend {
    /// Per-bit trellis walk and per-position rate-match readout — the
    /// reference path.
    Scalar,
    /// Bitsliced fast path: [`PackedTurboEncoder`] (64 trellis steps
    /// per `u64`, 128/256 per register under SSE2/AVX2) plus the
    /// word-at-a-time [`PackedRateMatcher`], with per-pipeline
    /// [`EncodeScratch`] reuse (allocation-free per code block after
    /// warm-up).
    #[default]
    Packed,
}

/// Pipeline configuration.
#[derive(Debug, Clone, Copy)]
pub struct PipelineConfig {
    /// SIMD register width for the arrangement / decoder kernels.
    pub width: RegWidth,
    /// Arrangement mechanism under test.
    pub mechanism: Mechanism,
    /// Receive-side decoder implementation.
    pub backend: DecoderBackend,
    /// Transmit-side encoder implementation.
    pub encoder_backend: EncoderBackend,
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
    /// Channel noise seed.
    pub seed: u64,
    /// Per-packet processing budget in nanoseconds. `None` disables
    /// deadline handling. When half the budget is spent before a code
    /// block's decode, the decoder iteration cap is halved (recorded as
    /// a `deadline_clamps` metrics event); once the budget is exhausted
    /// the packet aborts with [`PipelineError::DeadlineExceeded`].
    pub deadline_ns: Option<u64>,
    /// Fused APCM ingest (the default): under [`DecoderBackend::Native`]
    /// the de-rate-matcher writes triple-interleaved clusters and one
    /// mask/merge pass ([`vran_arrange::fused_ingest_into`]) segregates
    /// them straight into pooled per-block stream buffers — replacing
    /// the de-rate-match copy → stream multiplex → APCM de-interleave →
    /// per-block clone chain with a single pass and zero intermediate
    /// full-buffer copies. Bit-exact with the unfused chain (enforced
    /// across all 188 QPP sizes and every ISA tier by the
    /// `fused_exactness` sweep); `false` keeps the unfused chain for
    /// A/B comparison.
    pub fused_ingest: bool,
    /// Native SIMD front end (the default): soft demapping runs the
    /// Q11 fixed-point max-log kernels ([`vran_phy::demap`]) at the
    /// best available ISA tier, LLR descrambling runs the
    /// word-parallel Gold generator with SIMD sign-select, and CRC
    /// attach/check run the table/clmul kernels — each bit-exact with
    /// its scalar oracle (enforced by the `frontend_exactness` sweep).
    /// `false` keeps the f32 reference demapper, bit-serial
    /// descrambler and bit-serial CRC for A/B comparison. Note the
    /// fixed-point demapper's LLRs differ from the f32 reference's by
    /// quantization (≤ a couple of LSBs), so decode iteration counts
    /// can shift between the two settings; decoded bits are unaffected
    /// at operating SNR.
    pub frontend_simd: bool,
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
            width: RegWidth::Sse128,
            mechanism: Mechanism::Baseline,
            backend: DecoderBackend::Native,
            encoder_backend: EncoderBackend::Packed,
            modulation: Modulation::Qam16,
            snr_db: 14.0,
            decoder_iterations: 6,
            rate_x1024: 2048,
            fading: false,
            seed: 1,
            deadline_ns: None,
            fused_ingest: true,
            frontend_simd: true,
            breakers: None,
        }
    }
}

/// Wall-clock nanoseconds per pipeline stage for one packet.
#[derive(Debug, Clone, Copy, Default)]
pub struct StageNanos {
    /// Encoder side: CRC + segmentation + turbo encoding + rate match.
    pub encode: u64,
    /// Scrambling + modulation + OFDM, both directions.
    pub transport: u64,
    /// Soft demapping + descrambling + de-rate-matching.
    pub demap: u64,
    /// The data arrangement process (the paper's subject).
    pub arrangement: u64,
    /// Turbo decoding (the "calculation" process).
    pub decode: u64,
}

impl StageNanos {
    /// Total across stages.
    pub fn total(&self) -> u64 {
        self.encode + self.transport + self.demap + self.arrangement + self.decode
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
/// fault drawn for this packet, partial stage timings — rides along so
/// the packet can retire out of order, long after the source `Packet`
/// is gone.
#[derive(Debug)]
pub struct PreparedUplink {
    pub(crate) start: Instant,
    pub(crate) fault: FaultKind,
    pub(crate) frame: Vec<u8>,
    pub(crate) tb_bits: usize,
    pub(crate) seg: Segmentation,
    pub(crate) coded_bits: usize,
    pub(crate) nanos: StageNanos,
    pub(crate) iter_cap: usize,
    pub(crate) tasks: Vec<TurboLlrs>,
}

impl PreparedUplink {
    /// Number of staged decode tasks (one per code block).
    pub fn code_blocks(&self) -> usize {
        self.tasks.len()
    }

    /// Decoder iteration cap the staged tasks must run with (already
    /// deadline-clamped when the packet spent half its budget before
    /// staging).
    pub fn iter_cap(&self) -> usize {
        self.iter_cap
    }

    /// When the packet's processing deadline expires, if one is
    /// configured — the stage-graph runtime flushes partial batches
    /// before this instant passes.
    pub fn deadline(&self, budget_ns: Option<u64>) -> Option<Instant> {
        budget_ns.map(|b| self.start + std::time::Duration::from_nanos(b))
    }
}

/// Outcome of [`UplinkPipeline::prepare`]: either decode tasks to pool
/// (the common Native-backend case) or a packet the serial path already
/// finished end to end.
#[derive(Debug)]
pub enum Admission {
    /// Code blocks staged for pooled batch decode; hand the
    /// [`PreparedUplink`] back to [`UplinkPipeline::complete`] with the
    /// decoded bits to finish the packet.
    Staged(PreparedUplink),
    /// The packet already completed serially — because the Scalar
    /// backend (configured or via the degradation ladder) decodes
    /// inline, or because it failed before reaching decode. Metrics and
    /// the degradation ladder are already settled.
    Ready(Result<PacketResult, PipelineError>),
}

/// Internal outcome of the shared pipeline body: completed inline, or
/// staged for pooled decode.
enum Phase {
    Complete(PacketResult),
    Staged(Box<PreparedUplink>),
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
    /// Per-stage wall-clock time.
    pub nanos: StageNanos,
}

/// Receive-side working state reused across packets so the per-code-
/// block hot loop performs no heap allocation after warm-up: cached
/// per-K decoders and rate matchers (QPP/wmap table construction is
/// itself allocation-heavy) plus staging buffers that retain capacity.
///
/// Lives behind a `RefCell` because `process` takes `&self`; pipelines
/// are per-worker (the threaded runner builds one per thread), so the
/// single-threaded interior mutability is sufficient.
#[derive(Debug, Clone, Default)]
struct HotState {
    /// Native decoders, keyed by block size K.
    natives: Vec<NativeTurboDecoder>,
    /// Scalar decoders, keyed by block size K.
    scalars: Vec<(usize, TurboDecoder)>,
    /// Rate matchers, keyed by per-stream length `d = K + 4`.
    rms: Vec<(usize, RateMatcher)>,
    /// Packed-word encoders, keyed by block size K (transmit side).
    packed_encs: Vec<PackedTurboEncoder>,
    /// Packed rate matchers, keyed by per-stream length `d = K + 4`.
    packed_rms: Vec<(usize, PackedRateMatcher)>,
    /// Packed-encoder working buffers (transmit side).
    enc_scratch: EncodeScratch,
    /// Compacted circular-buffer staging for the packed rate matcher.
    wbuf: Vec<u64>,
    /// Rate-matched readout staging (packed words).
    ebuf: Vec<u64>,
    /// De-rate-matcher output staging (`d⁽⁰⁾ d⁽¹⁾ d⁽²⁾`, length K+4).
    dllr: [Vec<Llr>; 3],
    /// Interleaved-triple staging for the arrangement step (3K LLRs).
    inter: Vec<Llr>,
    /// Arranged streams the native decoder reads (unfused serial path).
    arranged: SoftStreams,
    /// Free list of per-block stream buffers for staged decode tasks:
    /// the ingest step pops one (retaining its capacity), the decode
    /// consumer pushes it back ([`UplinkPipeline::recycle_streams`]),
    /// so batching performs no steady-state allocation — replacing the
    /// per-block `SoftStreams` clones staging used to take.
    llr_pool: Vec<SoftStreams>,
    /// Native-decoder working buffers.
    scratch: DecodeScratch,
    /// Decoded-bit buffers, one per code-block index, reused across
    /// packets and handed to desegmentation as a slice.
    bits_pool: Vec<Vec<u8>>,
    /// Loopback sample buffers — mapper output, time-domain samples
    /// before and after the channel, demodulated subcarriers — so the
    /// OFDM stage allocates nothing in steady state.
    tx_symbols: Vec<Cplx>,
    air: Vec<Cplx>,
    rx_air: Vec<Cplx>,
    rx_symbols: Vec<Cplx>,
    /// Degradation ladder: consecutive decode-failure packets.
    consecutive_failures: u32,
    /// Degradation ladder: consecutive successes while degraded.
    consecutive_successes: u32,
    /// Whether the Native backend is currently degraded to Scalar.
    degraded: bool,
}

impl HotState {
    /// Index of the cached native decoder for block size `k`.
    fn native_index(&mut self, k: usize, iterations: usize) -> usize {
        match self.natives.iter().position(|d| d.k() == k) {
            Some(i) => i,
            None => {
                self.natives.push(NativeTurboDecoder::new(k, iterations));
                self.natives.len() - 1
            }
        }
    }

    /// Index of the cached scalar decoder for block size `k`.
    fn scalar_index(&mut self, k: usize, iterations: usize) -> usize {
        match self.scalars.iter().position(|(dk, _)| *dk == k) {
            Some(i) => i,
            None => {
                self.scalars.push((k, TurboDecoder::new(k, iterations)));
                self.scalars.len() - 1
            }
        }
    }

    /// Index of the cached rate matcher for stream length `d`.
    fn rm_index(&mut self, d: usize) -> usize {
        match self.rms.iter().position(|(rd, _)| *rd == d) {
            Some(i) => i,
            None => {
                self.rms.push((d, RateMatcher::new(d)));
                self.rms.len() - 1
            }
        }
    }

    /// Index of the cached packed encoder for block size `k`.
    fn packed_enc_index(&mut self, k: usize) -> usize {
        match self.packed_encs.iter().position(|e| e.k() == k) {
            Some(i) => i,
            None => {
                self.packed_encs.push(PackedTurboEncoder::new(k));
                self.packed_encs.len() - 1
            }
        }
    }

    /// Index of the cached packed rate matcher for stream length `d`.
    fn packed_rm_index(&mut self, d: usize) -> usize {
        match self.packed_rms.iter().position(|(rd, _)| *rd == d) {
            Some(i) => i,
            None => {
                self.packed_rms.push((d, PackedRateMatcher::new(d)));
                self.packed_rms.len() - 1
            }
        }
    }

    /// Pop a `k`-element stream buffer off the free list (or allocate a
    /// fresh one when the pool is dry). Counted per the staging metrics
    /// taxonomy: `staging_allocs` for a dry pool, `staging_reuses` when
    /// the recycled buffer's capacity already covered `k`,
    /// `staging_reallocs` when the resize had to grow it (a K upswitch
    /// beyond anything the pool has seen).
    fn acquire_streams(&mut self, k: usize, m: Option<&PipelineMetrics>) -> SoftStreams {
        match self.llr_pool.pop() {
            Some(mut s) => {
                let grew = s.sys.capacity() < k || s.p1.capacity() < k || s.p2.capacity() < k;
                s.sys.resize(k, 0);
                s.p1.resize(k, 0);
                s.p2.resize(k, 0);
                if let Some(m) = m {
                    if grew {
                        m.staging_reallocs.inc();
                    } else {
                        m.staging_reuses.inc();
                    }
                }
                s
            }
            None => {
                if let Some(m) = m {
                    m.staging_allocs.inc();
                }
                SoftStreams::zeros(k)
            }
        }
    }
}

/// Count each buffer an `_into` stage just filled under the staging
/// taxonomy of [`HotState::acquire_streams`]: a first allocation, a
/// growth, or a reuse of capacity it already had (`caps`, read before
/// the stage ran).
fn count_staging<const N: usize>(
    m: Option<&PipelineMetrics>,
    caps: [usize; N],
    bufs: [&Vec<Cplx>; N],
) {
    let Some(m) = m else { return };
    for (cap, buf) in caps.into_iter().zip(bufs) {
        if buf.capacity() == cap {
            m.staging_reuses.inc();
        } else if cap == 0 {
            m.staging_allocs.inc();
        } else {
            m.staging_reallocs.inc();
        }
    }
}

/// Free-list cap: `MAX_CODE_BLOCKS` packets can be in flight per lane
/// in the stage graph's pools; beyond this the buffers are dropped
/// rather than hoarded.
const LLR_POOL_CAP: usize = 4 * MAX_CODE_BLOCKS;

/// The uplink pipeline (shared by the downlink driver — the PHY chain
/// is symmetric for our purposes; only the traffic direction and DCI
/// handling differ in `runner`).
#[derive(Debug, Clone)]
pub struct UplinkPipeline {
    cfg: PipelineConfig,
    ofdm: OfdmConfig,
    c_init: u32,
    metrics: Option<Arc<PipelineMetrics>>,
    hot: RefCell<HotState>,
    faults: RefCell<Option<FaultInjector>>,
    /// Flight recorder receiving one trace event per settled packet.
    recorder: Option<Arc<FlightRecorder>>,
    /// Armed circuit breakers (when `cfg.breakers` is set), indexed by
    /// [`BreakerStage`] discriminant.
    breakers: RefCell<Option<[CircuitBreaker; BreakerStage::COUNT]>>,
    /// Trace context: UE id of the packet being processed (set by the
    /// stage-graph/runner drivers; 0 for direct `process` callers).
    trace_ue: Cell<u64>,
    /// Trace context: per-pipeline packet ordinal.
    trace_seq: Cell<u64>,
    /// Trace context: first code-block K of the packet in flight.
    trace_k: Cell<u16>,
}

/// Run `f`, recording its latency under `stage` when a live metrics
/// registry is attached. The `None` arm compiles to a plain call — no
/// clock reads when metrics are off.
#[inline]
pub(crate) fn timed<T>(m: Option<&PipelineMetrics>, stage: Stage, f: impl FnOnce() -> T) -> T {
    match m {
        Some(m) => {
            let t = Instant::now();
            let r = f();
            m.record_stage(stage, t.elapsed().as_nanos() as u64);
            r
        }
        None => f(),
    }
}

impl UplinkPipeline {
    /// Build a pipeline.
    pub fn new(cfg: PipelineConfig) -> Self {
        Self {
            cfg,
            ofdm: OfdmConfig::lte5mhz(),
            c_init: GoldSequence::c_init_pxsch(0x1234, 0, 4, 42),
            metrics: None,
            hot: RefCell::new(HotState::default()),
            faults: RefCell::new(None),
            recorder: None,
            breakers: RefCell::new(
                cfg.breakers
                    .map(|b| std::array::from_fn(|_| CircuitBreaker::new(b))),
            ),
            trace_ue: Cell::new(0),
            trace_seq: Cell::new(0),
            trace_k: Cell::new(0),
        }
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

    /// Whether the degradation ladder currently forces the scalar
    /// backend.
    pub fn is_degraded(&self) -> bool {
        self.hot.borrow().degraded
    }

    /// Attach a flight recorder: every settled packet (and breaker
    /// fast-fail) records one [`TraceEvent`].
    pub fn set_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        self.recorder = Some(recorder);
    }

    /// The attached flight recorder, if any.
    pub fn recorder(&self) -> Option<&Arc<FlightRecorder>> {
        self.recorder.as_ref()
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
        self.breakers
            .borrow()
            .as_ref()
            .map(|b| b[stage as usize].state())
    }

    /// `(trips, resets)` totals for one circuit breaker; `None` when
    /// breakers are not armed.
    pub fn breaker_counts(&self, stage: BreakerStage) -> Option<(u64, u64)> {
        self.breakers
            .borrow()
            .as_ref()
            .map(|b| (b[stage as usize].trips(), b[stage as usize].resets()))
    }

    /// Admission gate: when a breaker is open, consume one cooldown
    /// tick and fast-fail the packet with a synthesized error of the
    /// breaker's category — the protected stages never run, metrics
    /// and the trace record the packet, but the degradation ladder and
    /// the breakers themselves see nothing (a fast-fail carries no
    /// information about stage health).
    fn breaker_fastfail(&self, m: Option<&PipelineMetrics>) -> Option<PipelineError> {
        let mut guard = self.breakers.borrow_mut();
        let breakers = guard.as_mut()?;
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
        drop(guard);
        if let Some(m) = m {
            m.record_error(err.category());
            m.record_packet(false, 0, 0);
            m.breaker_fastfails.inc();
        }
        if let Some(rec) = &self.recorder {
            let seq = self.trace_seq.get();
            self.trace_seq.set(seq + 1);
            rec.record(TraceEvent::packet(
                self.trace_ue.get(),
                seq,
                0,
                self.backend_byte(),
                Some(err.category()),
                0,
                0,
                0,
            ));
        }
        Some(err)
    }

    /// Compact backend discriminant for trace events: 0 = native,
    /// 1 = scalar (configured), 2 = native degraded to scalar.
    fn backend_byte(&self) -> u8 {
        if self.cfg.backend == DecoderBackend::Scalar {
            1
        } else if self.hot.borrow().degraded {
            2
        } else {
            0
        }
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&Arc<PipelineMetrics>> {
        self.metrics.as_ref()
    }

    /// Return a staged task's stream buffers to the free list so the
    /// next ingest reuses their capacity instead of allocating. The
    /// stage-graph runtime calls this after a batch launch scatters its
    /// decoded bits.
    pub(crate) fn recycle_streams(&self, streams: SoftStreams) {
        let hot = &mut *self.hot.borrow_mut();
        if hot.llr_pool.len() < LLR_POOL_CAP {
            hot.llr_pool.push(streams);
        }
    }

    /// The configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.cfg
    }

    /// Process one framed packet through the complete loop.
    ///
    /// Every failure classifies into a [`PipelineError`]; malformed or
    /// hostile input must never panic (the fault-injection soak pushes
    /// tens of thousands of corrupted packets through here to enforce
    /// that).
    pub fn process(&self, packet: &Packet) -> Result<PacketResult, PipelineError> {
        let m = self.metrics.as_deref().filter(|m| m.is_enabled());
        if let Some(e) = self.breaker_fastfail(m) {
            return Err(e);
        }
        let fault = match self.faults.borrow_mut().as_mut() {
            Some(f) => f.next_kind(),
            None => FaultKind::Clean,
        };
        let result = self
            .process_inner(packet, fault, m, false)
            .map(|ph| match ph {
                Phase::Complete(r) => r,
                Phase::Staged(_) => unreachable!("stage=false never stages"),
            });
        self.settle(&result, m);
        result
    }

    /// Run a packet's receive path up to the decode stage and stage its
    /// code blocks as pooled decode tasks (the stage-graph runtime's
    /// admission half).
    ///
    /// A staged block carries no iteration semantics of its own: the
    /// launch that decodes it stops it where [`Self::process`] would
    /// have (its CRC24B when the packet has more than one block,
    /// [`PreparedUplink::iter_cap`] otherwise). The Scalar/serial
    /// fallback ladder stays intact: when the
    /// configured backend is `Scalar`, or the degradation ladder has
    /// demoted a `Native` pipeline, the packet is processed serially to
    /// completion and returned as [`Admission::Ready`] (already
    /// settled). Pre-decode failures (malformed frames, segmentation
    /// overflows, blown deadlines) also come back `Ready`.
    pub fn prepare(&self, packet: &Packet) -> Admission {
        let m = self.metrics.as_deref().filter(|m| m.is_enabled());
        if let Some(e) = self.breaker_fastfail(m) {
            return Admission::Ready(Err(e));
        }
        let fault = match self.faults.borrow_mut().as_mut() {
            Some(f) => f.next_kind(),
            None => FaultKind::Clean,
        };
        match self.process_inner(packet, fault, m, true) {
            Ok(Phase::Staged(p)) => Admission::Staged(*p),
            Ok(Phase::Complete(r)) => {
                let r = Ok(r);
                self.settle(&r, m);
                Admission::Ready(r)
            }
            Err(e) => {
                let r = Err(e);
                self.settle(&r, m);
                Admission::Ready(r)
            }
        }
    }

    /// Finish a packet staged by [`Self::prepare`]: desegmentation,
    /// CRC24A and the L2 delivery check — [`Self::process`]'s own tail —
    /// then metrics and degradation-ladder settlement.
    ///
    /// `decoded` holds one bit buffer per staged task, in task order;
    /// `iterations` is the decoder-iteration total across the packet's
    /// blocks and `failed_blocks` how many of them the decoder reported
    /// a failed CRC24B for; `decode_ns` is the wall-clock decode share
    /// attributed to this packet by the batch launches it rode.
    pub fn complete(
        &self,
        prep: PreparedUplink,
        decoded: &[Vec<u8>],
        iterations: usize,
        failed_blocks: usize,
        decode_ns: u64,
    ) -> Result<PacketResult, PipelineError> {
        let m = self.metrics.as_deref().filter(|m| m.is_enabled());
        debug_assert_eq!(decoded.len(), prep.seg.c, "one bit buffer per block");
        let mut nanos = prep.nanos;
        nanos.decode += decode_ns;
        let result = self.finish(
            m,
            prep.fault,
            &prep.frame,
            &prep.seg,
            decoded,
            failed_blocks,
            prep.tb_bits,
            prep.coded_bits,
            iterations,
            nanos,
        );
        self.settle(&result, m);
        result
    }

    /// Post-packet bookkeeping: metrics counters, the degradation
    /// ladder, circuit-breaker feedback and the flight-recorder trace.
    fn settle(&self, result: &Result<PacketResult, PipelineError>, m: Option<&PipelineMetrics>) {
        let backend = self.backend_byte();
        if let Some(breakers) = self.breakers.borrow_mut().as_mut() {
            match result {
                Ok(_) => {
                    // A full success clears every stage's error streak
                    // (the whole receive path ran).
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
        if let Some(rec) = &self.recorder {
            let seq = self.trace_seq.get();
            self.trace_seq.set(seq + 1);
            let (category, prepare_ns, decode_ns, total_ns) = match result {
                Ok(r) => (
                    None,
                    r.nanos.encode + r.nanos.transport + r.nanos.demap + r.nanos.arrangement,
                    r.nanos.decode,
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
        let hot = &mut *self.hot.borrow_mut();
        match result {
            Ok(r) => {
                if let Some(m) = m {
                    m.record_packet(true, r.code_blocks, r.decoder_iterations);
                }
                hot.consecutive_failures = 0;
                if hot.degraded {
                    hot.consecutive_successes += 1;
                    if hot.consecutive_successes >= RESTORE_AFTER {
                        hot.degraded = false;
                        hot.consecutive_successes = 0;
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
                // about the decoder backend.
                if matches!(
                    e.category(),
                    ErrorCategory::CrcMismatch | ErrorCategory::DecoderDiverged
                ) {
                    hot.consecutive_successes = 0;
                    hot.consecutive_failures += 1;
                    if !hot.degraded
                        && self.cfg.backend == DecoderBackend::Native
                        && hot.consecutive_failures >= DEGRADE_AFTER
                    {
                        hot.degraded = true;
                        hot.consecutive_failures = 0;
                        if let Some(m) = m {
                            m.backend_degradations.inc();
                        }
                    }
                }
            }
        }
    }

    /// The shared pipeline body behind [`Self::process`] and
    /// [`Self::prepare`]. With `stage` set, the Native backend's code
    /// blocks are arranged and then *staged* instead of decoded
    /// inline; the Scalar backend (configured or ladder-degraded)
    /// still completes serially.
    fn process_inner(
        &self,
        packet: &Packet,
        fault: FaultKind,
        m: Option<&PipelineMetrics>,
        stage: bool,
    ) -> Result<Phase, PipelineError> {
        let cfg = &self.cfg;
        let start = Instant::now();
        let mut nanos = StageNanos::default();
        self.trace_k.set(0); // until segmentation fixes the real K

        if fault == FaultKind::WorkerPanic {
            // Deliberately violent: exercises the runner's per-worker
            // catch_unwind isolation, not the error taxonomy.
            panic!("fault injection: deliberate worker panic");
        }

        // ---- ingress: frame-level faults, then header validation ----
        let mutated = self
            .faults
            .borrow_mut()
            .as_mut()
            .and_then(|f| f.mutate_frame(fault, &packet.frame));
        let frame: &[u8] = mutated.as_deref().unwrap_or(&packet.frame);
        if frame.is_empty() {
            return Err(PipelineError::MalformedFrame {
                reason: FrameFault::Empty,
            });
        }
        ParsedPacket::parse(frame)?;

        // ---- transmitter: L2 encapsulation, TB build, encode ----
        let t0 = Instant::now();
        // PDCP/RLC/MAC framing (per-packet bearer state; stream
        // continuity is exercised by the l2 module's own tests)
        let pdu = crate::l2::BearerTx::default()
            .encapsulate(frame, frame.len() + crate::l2::L2_OVERHEAD)
            .expect("TB sized to fit");
        let frame_bits = unpack_msb(&pdu, pdu.len() * 8);
        let tb = timed(m, Stage::Crc, || {
            if cfg.frontend_simd {
                let t = Instant::now();
                let tb = CRC24A.attach_with(best_crc(), &frame_bits);
                if let Some(m) = m {
                    m.record_frontend_crc(t.elapsed().as_nanos() as u64);
                }
                tb
            } else {
                CRC24A.attach_with(CrcImpl::BitSerial, &frame_bits)
            }
        });
        let seg = timed(m, Stage::Segment, || Segmentation::try_plan(tb.len()))?;
        self.trace_k.set(seg.k_of(0) as u16);
        if seg.c > MAX_CODE_BLOCKS {
            return Err(PipelineError::SegmentationOverflow {
                detail: SegFault::TooManyBlocks {
                    blocks: seg.c,
                    max: MAX_CODE_BLOCKS,
                },
            });
        }
        let blocks = timed(m, Stage::Segment, || seg.try_segment(&tb))?;
        let mut coded = Vec::new();
        let mut block_e = Vec::with_capacity(blocks.len());
        {
            let hot = &mut *self.hot.borrow_mut();
            if let Some(m) = m {
                if cfg.encoder_backend == EncoderBackend::Packed {
                    if EncoderIsa::best() == EncoderIsa::Word64 {
                        // The packed fast path is selected but the host
                        // (or the test ISA ceiling) offers no SIMD:
                        // encoding runs the portable u64 kernel. Same
                        // observability story as native_simd_fallbacks
                        // on the receive side.
                        m.packed_encoder_fallbacks.inc();
                    }
                    if EncoderIsa::best() < EncoderIsa::Avx512 {
                        // Encoding runs below the widest (zmm) tier —
                        // the deployment lost its 512-bit throughput.
                        m.zmm_encoder_fallbacks.inc();
                    }
                }
            }
            for blk in &blocks {
                let k = blk.len();
                let e = ((k as u64 * cfg.rate_x1024 as u64 / 1024) as usize)
                    .next_multiple_of(cfg.modulation.bits_per_symbol() * 2)
                    .min(3 * (k + 4) * 2); // cap repetition at 2×
                match cfg.encoder_backend {
                    EncoderBackend::Scalar => {
                        let enc = TurboEncoder::new(k);
                        let cw = timed(m, Stage::Encode, || enc.encode(blk));
                        let rm = RateMatcher::new(k + 4);
                        let d = cw.to_dstreams();
                        timed(m, Stage::RateMatch, || {
                            coded.extend(rm.rate_match(&d, e, 0))
                        });
                    }
                    EncoderBackend::Packed => {
                        let ei = hot.packed_enc_index(k);
                        let rmi = hot.packed_rm_index(k + 4);
                        timed(m, Stage::Encode, || {
                            hot.packed_encs[ei].encode_dstreams_into(blk, &mut hot.enc_scratch)
                        });
                        timed(m, Stage::RateMatch, || {
                            let rm = &hot.packed_rms[rmi].1;
                            rm.pack_circular_into(hot.enc_scratch.dstream_words(), &mut hot.wbuf)
                                .expect("scratch streams sized to d");
                            rm.try_rate_match_packed_into(&hot.wbuf, e, 0, &mut hot.ebuf)
                                .expect("rv 0 always valid");
                            extend_bits_from_words(&hot.ebuf, e, &mut coded);
                        });
                    }
                }
                block_e.push(e);
            }
        }
        nanos.encode = t0.elapsed().as_nanos() as u64;

        // ---- scramble, modulate, OFDM, channel ----
        let t0 = Instant::now();
        let mut tx_bits = coded;
        // pad to a whole number of symbols
        let bps = cfg.modulation.bits_per_symbol();
        let padded_len = tx_bits.len().next_multiple_of(bps);
        tx_bits.resize(padded_len, 0);
        // held to the end of the function: the sample buffers here, the
        // decoders and staging below
        let hot = &mut *self.hot.borrow_mut();
        let caps = [&hot.tx_symbols, &hot.air, &hot.rx_air, &hot.rx_symbols].map(Vec::capacity);
        timed(m, Stage::Modulate, || {
            if cfg.frontend_simd {
                scramble_bits(&mut tx_bits, self.c_init);
            } else {
                vran_phy::scrambler::scramble_bits_serial(&mut tx_bits, self.c_init);
            }
            cfg.modulation.modulate_into(&tx_bits, &mut hot.tx_symbols)
        });
        let scale = timed(m, Stage::Ofdm, || -> Result<f32, OfdmError> {
            if cfg.fading {
                let (rx, scale) = self.fading_pass(&hot.tx_symbols);
                hot.rx_symbols = rx;
                Ok(scale)
            } else {
                self.ofdm
                    .modulate_stream_into(&hot.tx_symbols, &mut hot.air);
                let mut channel = AwgnChannel::new(cfg.snr_db, cfg.seed);
                channel.apply_into(&hot.air, &mut hot.rx_air);
                self.ofdm.try_demodulate_stream_into(
                    &hot.rx_air,
                    hot.tx_symbols.len(),
                    &mut hot.rx_symbols,
                )?;
                Ok((channel.llr_scale() / 8.0).clamp(0.25, 16.0))
            }
        })?;
        count_staging(
            m,
            caps,
            [&hot.tx_symbols, &hot.air, &hot.rx_air, &hot.rx_symbols],
        );
        nanos.transport = t0.elapsed().as_nanos() as u64;

        // ---- demap, descramble, de-rate-match ----
        let t0 = Instant::now();
        if let Some(m) = m {
            if cfg.frontend_simd {
                m.frontend_packets.inc();
                if best_demap() == DemapImpl::Scalar
                    || best_descramble() == DescrambleImpl::ScalarWord
                {
                    // The SIMD front end is requested but the host (or
                    // the test ISA ceiling) runs a scalar kernel: the
                    // deployment lost its front-end speedup.
                    m.frontend_fallbacks.inc();
                }
            }
        }
        let mut llrs = timed(m, Stage::Demap, || {
            if cfg.frontend_simd {
                let t_demap = Instant::now();
                let mut llrs = Vec::new();
                demap_into(
                    best_demap(),
                    cfg.modulation,
                    &hot.rx_symbols,
                    scale,
                    &mut llrs,
                );
                llrs.truncate(padded_len);
                let demap_ns = t_demap.elapsed().as_nanos() as u64;
                let t_descramble = Instant::now();
                descramble_llrs_with(best_descramble(), &mut llrs, self.c_init);
                if let Some(m) = m {
                    m.record_frontend_demap(demap_ns, t_descramble.elapsed().as_nanos() as u64);
                }
                llrs
            } else {
                let mut llrs = cfg.modulation.demodulate(&hot.rx_symbols, scale);
                llrs.truncate(padded_len);
                descramble_llrs(&mut llrs, self.c_init);
                llrs
            }
        });
        nanos.demap = t0.elapsed().as_nanos() as u64;

        // receive-side LLR faults model a corrupted fronthaul buffer
        if matches!(fault, FaultKind::FlipLlrSigns | FaultKind::SaturateLlrs) {
            if let Some(f) = self.faults.borrow_mut().as_mut() {
                f.mutate_llrs(fault, &mut llrs);
            }
        }

        // ---- per code block: de-rate-match, ARRANGE, decode ----
        let backend = if hot.degraded && cfg.backend == DecoderBackend::Native {
            DecoderBackend::Scalar
        } else {
            cfg.backend
        };
        let staging = stage && backend == DecoderBackend::Native;
        if let Some(m) = m {
            if backend == DecoderBackend::Native && DecoderIsa::best() == DecoderIsa::Scalar {
                // The fast path is selected but the host (or the test
                // ISA ceiling) offers no SIMD: the native decoder runs
                // its scalar kernels. Worth observing — it means the
                // deployment lost its SIMD speedup.
                m.native_simd_fallbacks.inc();
            }
            if staging && !NativeBatchTurboDecoder::is_zmm_accelerated() {
                // Blocks are staged for batch launches but the host (or the test
                // ISA ceiling) lacks AVX-512BW: blocks decode through
                // the narrower pair/single kernels, bit-exactly.
                m.batch_simd_fallbacks.inc();
            }
        }
        let scratch_allocs0 = hot.scratch.allocations();
        let scratch_reuses0 = hot.scratch.reuses();
        let siso_passes0 = hot.scratch.siso_passes();
        let mut oracle_passes = 0;
        if hot.bits_pool.len() < blocks.len() {
            hot.bits_pool.resize_with(blocks.len(), Vec::new);
        }
        let mut iterations = 0;
        let mut pos = 0;
        let mut failed_blocks = 0usize;
        let mut staged: Vec<TurboLlrs> = Vec::new();
        // Fused APCM ingest applies only to the Native backend; when
        // the degradation ladder demotes a fused-configured pipeline to
        // Scalar, the blocks run the unfused chain (counted below).
        let fused = cfg.fused_ingest && backend == DecoderBackend::Native;
        for (i, blk) in blocks.iter().enumerate() {
            let k = blk.len();
            let e = block_e[i];
            let rmi = hot.rm_index(k + 4);
            if let Some(m) = m {
                if cfg.fused_ingest && !fused && cfg.backend == DecoderBackend::Native {
                    m.fused_ingest_fallbacks.inc();
                }
            }
            let t0 = Instant::now();
            let tails = if fused {
                // The fused chain's only staging write: the
                // de-rate-matcher accumulates straight into the
                // triple-interleaved cluster layout (Fig 8a), so no
                // separate multiplex pass runs before arrangement.
                timed(m, Stage::RateMatch, || {
                    hot.rms[rmi].1.try_de_rate_match_interleaved_into(
                        &llrs[pos..pos + e],
                        0,
                        &mut hot.inter,
                    )
                })?;
                TailLlrs::from_interleaved(&hot.inter, k)
            } else {
                timed(m, Stage::RateMatch, || {
                    hot.rms[rmi]
                        .1
                        .try_de_rate_match_into(&llrs[pos..pos + e], 0, &mut hot.dllr)
                })?;
                TailLlrs::from_dstreams(&hot.dllr, k)
            };
            pos += e;
            nanos.demap += t0.elapsed().as_nanos() as u64;

            // Deadline gate before the expensive decode: abort when the
            // budget is gone, halve the iteration cap when half is.
            // (Staged blocks decode after this function returns, so a
            // single gate after the loop guards them instead.)
            let mut iter_cap = cfg.decoder_iterations;
            if !staging {
                if let Some(budget) = cfg.deadline_ns {
                    let elapsed = start.elapsed().as_nanos() as u64;
                    if elapsed >= budget {
                        return Err(PipelineError::DeadlineExceeded {
                            budget_ns: budget,
                            elapsed_ns: elapsed,
                        });
                    }
                    if elapsed.saturating_mul(2) >= budget {
                        iter_cap = (cfg.decoder_iterations / 2).max(1);
                        if let Some(m) = m {
                            m.deadline_clamps.inc();
                        }
                    }
                }
            }

            match backend {
                DecoderBackend::Native if fused => {
                    // The data arrangement process under test, fused
                    // flavor: the de-rate-matcher already wrote the
                    // interleaved clusters, so one mask/merge pass
                    // segregates them straight into a pooled per-block
                    // stream buffer — the layout the quad-in-zmm batch
                    // decoder reads in place. No multiplex copy, no
                    // shared staging buffer, no per-block clone.
                    let t0 = Instant::now();
                    let mut streams = hot.acquire_streams(k, m);
                    let tf = m.map(|_| Instant::now());
                    fused_ingest_into(
                        best_fused(),
                        &hot.inter,
                        k,
                        &mut streams.sys,
                        &mut streams.p1,
                        &mut streams.p2,
                    );
                    if let (Some(m), Some(tf)) = (m, tf) {
                        m.record_arrange_fused(tf.elapsed().as_nanos() as u64);
                        m.fused_ingest_blocks.inc();
                    }
                    nanos.arrangement += t0.elapsed().as_nanos() as u64;

                    if staging {
                        // Stage this block for the grouped quad/pair
                        // decode after the loop — the pooled buffer
                        // rides inside the task, zero-copy.
                        staged.push(TurboLlrs { k, streams, tails });
                        continue;
                    }

                    let t0 = Instant::now();
                    let di = hot.native_index(k, cfg.decoder_iterations);
                    let crc = (blocks.len() > 1).then_some(&CRC24B);
                    let (iters, crc_ok) = timed(m, Stage::Decode, || {
                        hot.natives[di].decode_streams_capped_into(
                            &streams.sys,
                            &streams.p1,
                            &streams.p2,
                            &tails,
                            iter_cap,
                            crc,
                            &mut hot.scratch,
                            &mut hot.bits_pool[i],
                        )
                    });
                    iterations += iters;
                    nanos.decode += t0.elapsed().as_nanos() as u64;
                    if hot.llr_pool.len() < LLR_POOL_CAP {
                        hot.llr_pool.push(streams);
                    }
                    if crc_ok == Some(false) {
                        failed_blocks += 1;
                    }
                }
                DecoderBackend::Native => {
                    // The data arrangement process under test, unfused
                    // native flavor (kept for A/B against the fused
                    // ingest): multiplex the streams into the triples
                    // the de-rate-matcher hands the decoder (Fig 8a),
                    // then segregate them with the best real-intrinsics
                    // APCM kernel the host supports.
                    let t0 = Instant::now();
                    if staging {
                        // Segregate straight into a pooled buffer and
                        // stage it — no per-block clone here either.
                        let mut streams = hot.acquire_streams(k, m);
                        timed(m, Stage::Arrange, || {
                            hot.inter.resize(3 * k, 0);
                            for j in 0..k {
                                hot.inter[3 * j] = hot.dllr[0][j];
                                hot.inter[3 * j + 1] = hot.dllr[1][j];
                                hot.inter[3 * j + 2] = hot.dllr[2][j];
                            }
                            vran_arrange::native::deinterleave_into(
                                vran_arrange::native::best_apcm(),
                                &hot.inter,
                                k,
                                &mut streams,
                            );
                        });
                        nanos.arrangement += t0.elapsed().as_nanos() as u64;
                        staged.push(TurboLlrs { k, streams, tails });
                        continue;
                    }
                    timed(m, Stage::Arrange, || {
                        hot.inter.resize(3 * k, 0);
                        for j in 0..k {
                            hot.inter[3 * j] = hot.dllr[0][j];
                            hot.inter[3 * j + 1] = hot.dllr[1][j];
                            hot.inter[3 * j + 2] = hot.dllr[2][j];
                        }
                        hot.arranged.sys.resize(k, 0);
                        hot.arranged.p1.resize(k, 0);
                        hot.arranged.p2.resize(k, 0);
                        vran_arrange::native::deinterleave_into(
                            vran_arrange::native::best_apcm(),
                            &hot.inter,
                            k,
                            &mut hot.arranged,
                        );
                    });
                    nanos.arrangement += t0.elapsed().as_nanos() as u64;

                    let t0 = Instant::now();
                    let di = hot.native_index(k, cfg.decoder_iterations);
                    let crc = (blocks.len() > 1).then_some(&CRC24B);
                    let (iters, crc_ok) = timed(m, Stage::Decode, || {
                        hot.natives[di].decode_streams_capped_into(
                            &hot.arranged.sys,
                            &hot.arranged.p1,
                            &hot.arranged.p2,
                            &tails,
                            iter_cap,
                            crc,
                            &mut hot.scratch,
                            &mut hot.bits_pool[i],
                        )
                    });
                    iterations += iters;
                    nanos.decode += t0.elapsed().as_nanos() as u64;
                    if crc_ok == Some(false) {
                        failed_blocks += 1;
                    }
                }
                DecoderBackend::Scalar => {
                    let turbo_in = TurboLlrs::from_dstreams(&hot.dllr, k);

                    // The data arrangement process under test, VM
                    // flavor: the configured mechanism/width kernel
                    // segregates the interleaved triples.
                    let t0 = Instant::now();
                    let arranged = timed(m, Stage::Arrange, || {
                        let interleaved = turbo_in.to_interleaved();
                        let kern = ArrangeKernel::new(cfg.width, cfg.mechanism);
                        let (arranged, _) = kern.arrange(&interleaved, false);
                        kern.depermute(&arranged)
                    });
                    nanos.arrangement += t0.elapsed().as_nanos() as u64;

                    let t0 = Instant::now();
                    let dec_in = TurboLlrs {
                        k,
                        streams: arranged,
                        tails: turbo_in.tails,
                    };
                    let si = hot.scalar_index(k, cfg.decoder_iterations);
                    let crc = (blocks.len() > 1).then_some(&CRC24B);
                    let out = timed(m, Stage::Decode, || {
                        hot.scalars[si].1.decode_capped(&dec_in, iter_cap, crc)
                    });
                    iterations += out.iterations_run;
                    oracle_passes += out.siso_passes as u64;
                    nanos.decode += t0.elapsed().as_nanos() as u64;
                    if out.crc_ok == Some(false) {
                        failed_blocks += 1;
                    }
                    hot.bits_pool[i] = out.bits;
                }
            }
        }

        if staging {
            // One deadline gate before staging. The clamped cap rides
            // into the pool so the launch honours it.
            let mut iter_cap = cfg.decoder_iterations;
            if let Some(budget) = cfg.deadline_ns {
                let elapsed = start.elapsed().as_nanos() as u64;
                if elapsed >= budget {
                    return Err(PipelineError::DeadlineExceeded {
                        budget_ns: budget,
                        elapsed_ns: elapsed,
                    });
                }
                if elapsed.saturating_mul(2) >= budget {
                    iter_cap = (cfg.decoder_iterations / 2).max(1);
                    if let Some(m) = m {
                        m.deadline_clamps.inc();
                    }
                }
            }
            if let Some(m) = m {
                m.record_scratch(
                    hot.scratch.allocations() - scratch_allocs0,
                    hot.scratch.reuses() - scratch_reuses0,
                    0,
                );
            }
            let frame = mutated.unwrap_or_else(|| packet.frame.clone());
            return Ok(Phase::Staged(Box::new(PreparedUplink {
                start,
                fault,
                frame,
                tb_bits: tb.len(),
                seg,
                coded_bits: pos,
                nanos,
                iter_cap,
                tasks: staged,
            })));
        }

        if let Some(m) = m {
            m.record_scratch(
                hot.scratch.allocations() - scratch_allocs0,
                hot.scratch.reuses() - scratch_reuses0,
                hot.scratch.siso_passes() - siso_passes0 + oracle_passes,
            );
        }

        self.finish(
            m,
            fault,
            frame,
            &seg,
            &hot.bits_pool[..blocks.len()],
            failed_blocks,
            tb.len(),
            pos,
            iterations,
            nanos,
        )
        .map(Phase::Complete)
    }

    /// Reassemble, de-encapsulate & verify: the tail shared by the
    /// inline path ([`Self::process_inner`]) and out-of-order batch
    /// completion ([`Self::complete`]). Classification is identical in
    /// both — the stage graph changes *when* decode runs, never what a
    /// packet's outcome is.
    #[allow(clippy::too_many_arguments)]
    fn finish(
        &self,
        m: Option<&PipelineMetrics>,
        fault: FaultKind,
        frame: &[u8],
        seg: &Segmentation,
        decoded: &[Vec<u8>],
        failed_blocks: usize,
        tb_bits: usize,
        coded_bits: usize,
        iterations: usize,
        nanos: StageNanos,
    ) -> Result<PacketResult, PipelineError> {
        let presented: &[Vec<u8>] = if fault == FaultKind::CodeBlockCountLie {
            // Hand desegmentation a block count that contradicts the
            // plan — must classify, not panic or mis-assemble.
            &decoded[..decoded.len() - 1]
        } else {
            decoded
        };
        let rx_tb = timed(m, Stage::Segment, || seg.try_desegment(presented))?;

        let failure = DecodeFailure {
            tb_bits,
            code_blocks: decoded.len(),
            failed_blocks,
            decoder_iterations: iterations,
        };
        if failed_blocks > 0 {
            return Err(PipelineError::DecoderDiverged(failure));
        }
        let rx_tb = match rx_tb {
            Some(t) => t,
            None => return Err(PipelineError::CrcMismatch(failure)),
        };
        let payload = match timed(m, Stage::Crc, || {
            if self.cfg.frontend_simd {
                let t = Instant::now();
                let p = CRC24A.check_with(best_crc(), &rx_tb);
                if let Some(m) = m {
                    m.record_frontend_crc(t.elapsed().as_nanos() as u64);
                }
                p
            } else {
                CRC24A.check_with(CrcImpl::BitSerial, &rx_tb)
            }
        }) {
            Some(p) => p,
            None => return Err(PipelineError::CrcMismatch(failure)),
        };
        let delivered = crate::l2::BearerRx::default()
            .decapsulate(&pack_msb(payload))
            .map(|sdu| sdu.as_slice() == frame)
            .unwrap_or(false);
        if !delivered {
            return Err(PipelineError::CrcMismatch(failure));
        }

        Ok(PacketResult {
            tb_bits,
            code_blocks: decoded.len(),
            coded_bits,
            decoder_iterations: iterations,
            nanos,
        })
    }

    /// Fading path: resource grids with scattered pilots, per-grid
    /// channel estimation and ZF equalization (frequency-domain model,
    /// matching the downlink pipeline).
    fn fading_pass(
        &self,
        symbols: &[vran_phy::modulation::Cplx],
    ) -> (Vec<vran_phy::modulation::Cplx>, f32) {
        use vran_phy::equalizer::{Equalizer, FadingChannel};
        const GRID: usize = 300;
        let eq = Equalizer::lte();
        let per_grid = GRID - eq.pilot_positions(GRID).len();
        let mut chan = FadingChannel::new(GRID, self.cfg.snr_db, 3, self.cfg.seed);
        let mut out = Vec::with_capacity(symbols.len());
        for chunk in symbols.chunks(per_grid) {
            let mut d = chunk.to_vec();
            d.resize(per_grid, vran_phy::modulation::Cplx::default());
            let (grid, _) = eq.insert_pilots(&d, GRID);
            let rx = chan.apply(&grid);
            let h = eq.estimate(&rx);
            let (eq_syms, _w) = eq.equalize(&rx, &h);
            out.extend_from_slice(&eq_syms[..chunk.len().min(eq_syms.len())]);
        }
        out.truncate(symbols.len());
        (out, 1.0)
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

/// LLR type re-export for downstream convenience.
pub type SoftValue = Llr;

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
mod tests {
    use super::*;
    use crate::faultinject::FaultMix;
    use crate::packet::{PacketBuilder, Transport};
    use crate::stagegraph::{StageGraph, StageGraphConfig};
    use vran_arrange::ApcmVariant;

    fn run(cfg: PipelineConfig, size: usize) -> Result<PacketResult, PipelineError> {
        let mut b = PacketBuilder::new(1000, 2000);
        let p = b.build(Transport::Udp, size).unwrap();
        UplinkPipeline::new(cfg).process(&p)
    }

    /// [`run`] through the stage graph: prepare, a pooled launch at
    /// drain, complete.
    fn run_staged(cfg: PipelineConfig, size: usize) -> Result<PacketResult, PipelineError> {
        let mut b = PacketBuilder::new(1000, 2000);
        let p = b.build(Transport::Udp, size).unwrap();
        let mut graph = StageGraph::with_config(cfg, StageGraphConfig::default());
        graph.admit(0, &p);
        graph.drain();
        graph.pop_completed().expect("drain retires the packet").1
    }

    /// Comparable outcome signature across Ok/Err results.
    fn signature(r: &Result<PacketResult, PipelineError>) -> (bool, usize, usize, usize) {
        match r {
            Ok(p) => (true, p.tb_bits, p.code_blocks, p.decoder_iterations),
            Err(e) => {
                let f = e.decode_failure().copied().unwrap_or_default();
                (false, f.tb_bits, f.code_blocks, f.decoder_iterations)
            }
        }
    }

    #[test]
    fn clean_channel_round_trips_small_packet() {
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        let r = run(cfg, 64).expect("clean channel must decode");
        assert_eq!(r.code_blocks, 1);
        assert_eq!(r.tb_bits, (64 + crate::l2::L2_OVERHEAD) * 8 + 24);
    }

    #[test]
    fn full_mtu_packet_round_trips() {
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        let r = run(cfg, 1500).expect("clean channel must decode");
        assert!(r.code_blocks >= 2, "1500 B TB must segment: {r:?}");
    }

    #[test]
    fn moderate_snr_still_decodes() {
        // QPSK at 8 dB with rate 1/2 turbo: comfortably decodable.
        let cfg = PipelineConfig {
            modulation: Modulation::Qpsk,
            snr_db: 8.0,
            ..Default::default()
        };
        run(cfg, 256).expect("QPSK at 8 dB must decode");
    }

    #[test]
    fn hopeless_snr_fails_cleanly() {
        let cfg = PipelineConfig {
            modulation: Modulation::Qam64,
            snr_db: -10.0,
            decoder_iterations: 2,
            ..Default::default()
        };
        let e = run(cfg, 256).expect_err("−10 dB 64-QAM must not decode");
        assert!(
            matches!(
                e.category(),
                ErrorCategory::CrcMismatch | ErrorCategory::DecoderDiverged
            ),
            "noise failure must classify as a decode-quality error: {e}"
        );
        let f = e
            .decode_failure()
            .expect("decode-stage error carries stats");
        assert!(f.decoder_iterations > 0, "the decoder did run");
    }

    #[test]
    fn all_mechanisms_and_widths_produce_identical_outcomes() {
        // The paper's functional-equivalence requirement: the
        // arrangement mechanism must not change WHAT is computed.
        let mut results = Vec::new();
        for width in RegWidth::ALL {
            for mech in [
                Mechanism::Baseline,
                Mechanism::Apcm(ApcmVariant::Shuffle),
                Mechanism::Apcm(ApcmVariant::MaskRotate),
            ] {
                let cfg = PipelineConfig {
                    width,
                    mechanism: mech,
                    backend: DecoderBackend::Scalar,
                    snr_db: 12.0,
                    ..Default::default()
                };
                let r = run(cfg, 512);
                results.push((width, mech.name(), signature(&r)));
            }
        }
        let first = results[0].2;
        for (w, m, sig) in &results {
            assert_eq!(*sig, first, "{w} {m} diverged: {results:?}");
        }
        assert!(first.0, "the common outcome should be success at 12 dB");
        // ... and neither must the native fast path.
        let native = run(
            PipelineConfig {
                snr_db: 12.0,
                ..Default::default()
            },
            512,
        );
        assert_eq!(signature(&native), first);
    }

    #[test]
    fn native_and_scalar_backends_agree() {
        // The fast path's bit-exactness contract, observed end to end:
        // identical outcomes, iteration counts and coded-bit volumes
        // across packet sizes (1 and ≥2 code blocks) and channel
        // qualities, including a failing one.
        for (size, snr) in [(64usize, 30.0f32), (256, 8.0), (1500, 30.0), (256, 2.0)] {
            let results: Vec<Result<PacketResult, PipelineError>> =
                [DecoderBackend::Scalar, DecoderBackend::Native]
                    .into_iter()
                    .map(|backend| {
                        run(
                            PipelineConfig {
                                backend,
                                snr_db: snr,
                                ..Default::default()
                            },
                            size,
                        )
                    })
                    .collect();
            let (s, n) = (&results[0], &results[1]);
            assert_eq!(signature(s), signature(n), "{size} B at {snr} dB diverged");
            if let (Ok(s), Ok(n)) = (s, n) {
                assert_eq!(s.coded_bits, n.coded_bits, "{size} B at {snr} dB");
            }
        }
    }

    #[test]
    fn packed_and_scalar_encoder_backends_agree() {
        // The transmit fast path's bit-exactness contract, observed end
        // to end: identical outcomes, iteration counts and coded-bit
        // volumes — the channel sees the exact same bits, so even the
        // noise realization is shared.
        for (size, snr) in [(64usize, 30.0f32), (512, 8.0), (1500, 30.0)] {
            let results: Vec<Result<PacketResult, PipelineError>> =
                [EncoderBackend::Scalar, EncoderBackend::Packed]
                    .into_iter()
                    .map(|encoder_backend| {
                        run(
                            PipelineConfig {
                                encoder_backend,
                                modulation: Modulation::Qpsk,
                                snr_db: snr,
                                ..Default::default()
                            },
                            size,
                        )
                    })
                    .collect();
            let (s, p) = (&results[0], &results[1]);
            assert_eq!(signature(s), signature(p), "{size} B at {snr} dB diverged");
            if let (Ok(s), Ok(p)) = (s, p) {
                assert_eq!(s.coded_bits, p.coded_bits, "{size} B at {snr} dB");
            }
        }
    }

    #[test]
    fn packed_encoder_hot_loop_reuses_scratch() {
        // Second identical packet must not grow the encode scratch.
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        let pipe = UplinkPipeline::new(cfg);
        let mut b = PacketBuilder::new(1000, 2000);
        let p = b.build(Transport::Udp, 1500).unwrap();
        assert!(pipe.process(&p).is_ok());
        let allocs_warm = pipe.hot.borrow().enc_scratch.allocations();
        assert!(allocs_warm > 0, "first packet must warm the scratch up");
        assert!(pipe.process(&p).is_ok());
        let hot = pipe.hot.borrow();
        assert_eq!(hot.enc_scratch.allocations(), allocs_warm);
        assert!(hot.enc_scratch.reuses() > 0);
    }

    #[test]
    fn hot_loop_allocations_stop_after_warmup() {
        // The zero-allocation claim for the native per-code-block
        // loop: the first packet may grow the scratch buffers; a
        // second identical packet must be served entirely from
        // retained capacity.
        let metrics = std::sync::Arc::new(crate::metrics::PipelineMetrics::new(true));
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        let pipe = UplinkPipeline::with_metrics(cfg, metrics.clone());
        let mut b = PacketBuilder::new(1000, 2000);
        let p = b.build(Transport::Udp, 1500).unwrap();
        assert!(pipe.process(&p).is_ok());
        let allocs_warm = metrics.decode_scratch_allocs.get();
        assert!(allocs_warm > 0, "first packet must warm the scratch up");
        assert!(pipe.process(&p).is_ok());
        assert_eq!(
            metrics.decode_scratch_allocs.get(),
            allocs_warm,
            "warm packet allocated in the hot decode loop"
        );
        assert!(
            metrics.decode_scratch_reuses.get() > 0,
            "warm packet must reuse retained scratch capacity"
        );
    }

    #[test]
    fn fused_ingest_matches_unfused_chain() {
        // The fused mask/merge ingest replaces de-rate-match copy →
        // multiplex → APCM de-interleave with one pass; outcomes
        // (including iteration counts) must be identical, serial and
        // staged, mono- and multi-block.
        for (path, run) in [("serial", run as fn(_, _) -> _), ("staged", run_staged)] {
            for size in [64, 300, 900, 1400] {
                let fused = run(
                    PipelineConfig {
                        snr_db: 12.0,
                        ..Default::default()
                    },
                    size,
                );
                let unfused = run(
                    PipelineConfig {
                        fused_ingest: false,
                        snr_db: 12.0,
                        ..Default::default()
                    },
                    size,
                );
                assert_eq!(
                    signature(&fused),
                    signature(&unfused),
                    "fused vs unfused at size {size}, {path}"
                );
            }
        }
    }

    #[test]
    fn fused_batching_reaches_zero_steady_state_allocation() {
        // The per-block `SoftStreams` clones are gone: after warm-up,
        // staging buffers come off the free list (capacity retained)
        // and no steady-state allocation remains.
        let metrics = std::sync::Arc::new(crate::metrics::PipelineMetrics::new(true));
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        let pipe = UplinkPipeline::with_metrics(cfg, metrics.clone());
        let mut graph = StageGraph::new(pipe, StageGraphConfig::default());
        let mut b = PacketBuilder::new(1000, 2000);
        let mut admit_ok = |n: usize| {
            for _ in 0..n {
                let p = b.build(Transport::Udp, 1500).unwrap();
                graph.admit(0, &p);
            }
            graph.drain();
            for _ in 0..n {
                assert!(graph.pop_completed().expect("retired").1.is_ok());
            }
        };
        // 1500 B is two blocks of one K: every second packet fills a
        // quad, and a round of three leaves a pair for the drain.
        admit_ok(3);
        let allocs_warm = metrics.staging_allocs.get();
        let reallocs_warm = metrics.staging_reallocs.get();
        assert!(allocs_warm > 0, "warm-up must populate the free list");
        admit_ok(3);
        admit_ok(3);
        assert_eq!(
            metrics.staging_allocs.get(),
            allocs_warm,
            "steady state allocated a fresh stream buffer"
        );
        assert_eq!(
            metrics.staging_reallocs.get(),
            reallocs_warm,
            "steady state grew a recycled stream buffer"
        );
        assert!(
            metrics.staging_reuses.get() > 0,
            "steady state must serve staging from the free list"
        );
        assert!(metrics.fused_ingest_blocks.get() > 0);
        assert!(
            metrics.arrange_fused().count() > 0,
            "fused ingest must record its own arrangement histogram"
        );
    }

    #[test]
    fn loopback_ofdm_stage_reaches_zero_steady_state_allocation() {
        // Mapper output, the sample stream before and after the
        // channel and the demodulated subcarriers are pooled in the hot
        // state: one allocation each on the first packet, then reuse.
        let metrics = std::sync::Arc::new(crate::metrics::PipelineMetrics::new(true));
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        let pipe = UplinkPipeline::with_metrics(cfg, metrics.clone());
        let mut b = PacketBuilder::new(1000, 2000);
        let p = b.build(Transport::Udp, 1400).unwrap();
        assert!(pipe.process(&p).is_ok());
        let allocs_warm = metrics.staging_allocs.get();
        let reallocs_warm = metrics.staging_reallocs.get();
        let reuses_warm = metrics.staging_reuses.get();
        assert!(allocs_warm >= 4, "four OFDM-stage buffers allocate once");
        for _ in 0..4 {
            let p = b.build(Transport::Udp, 1400).unwrap();
            assert!(pipe.process(&p).is_ok());
        }
        assert_eq!(metrics.staging_allocs.get(), allocs_warm);
        assert_eq!(metrics.staging_reallocs.get(), reallocs_warm);
        assert!(metrics.staging_reuses.get() >= reuses_warm + 4 * 4);
    }

    #[test]
    fn staging_pool_survives_k_changes_without_fresh_allocation() {
        // Alternating packet sizes change K per packet; recycled
        // buffers resize in place. A growth shows up as a
        // staging_realloc (not a fresh alloc), and once the pool has
        // seen the largest K, even those stop.
        let metrics = std::sync::Arc::new(crate::metrics::PipelineMetrics::new(true));
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        let pipe = UplinkPipeline::with_metrics(cfg, metrics.clone());
        let mut b = PacketBuilder::new(1000, 2000);
        let sizes = [64usize, 900, 300, 1400];
        for &s in sizes.iter().cycle().take(8) {
            let p = b.build(Transport::Udp, s).unwrap();
            assert!(pipe.process(&p).is_ok());
        }
        let allocs_warm = metrics.staging_allocs.get();
        let reallocs_warm = metrics.staging_reallocs.get();
        for &s in sizes.iter().cycle().take(8) {
            let p = b.build(Transport::Udp, s).unwrap();
            assert!(pipe.process(&p).is_ok());
        }
        assert_eq!(metrics.staging_allocs.get(), allocs_warm);
        assert_eq!(
            metrics.staging_reallocs.get(),
            reallocs_warm,
            "pool capacity must cover every K after one full cycle"
        );
    }

    #[test]
    fn degraded_pipeline_counts_fused_fallbacks() {
        // When the ladder demotes Native → Scalar, requested fused
        // ingest cannot run; the fallback counter says so.
        let metrics = std::sync::Arc::new(crate::metrics::PipelineMetrics::new(true));
        let cfg = PipelineConfig {
            modulation: Modulation::Qam64,
            snr_db: -10.0,
            decoder_iterations: 2,
            ..Default::default()
        };
        let pipe = UplinkPipeline::with_metrics(cfg, metrics.clone());
        let mut b = PacketBuilder::new(1000, 2000);
        for _ in 0..DEGRADE_AFTER + 2 {
            let p = b.build(Transport::Udp, 128).unwrap();
            let _ = pipe.process(&p);
        }
        assert!(pipe.is_degraded(), "hopeless SNR must degrade the ladder");
        assert!(
            metrics.fused_ingest_fallbacks.get() > 0,
            "degraded blocks must count as fused-ingest fallbacks"
        );
    }

    #[test]
    fn arrangement_volume_model_matches_pipeline() {
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        let mut b = PacketBuilder::new(1, 2);
        let p = b.build(Transport::Udp, 300).unwrap();
        let r = UplinkPipeline::new(cfg).process(&p).expect("clean channel");
        let expect = UplinkPipeline::arrangement_triples(300);
        // tb_bits + per-block CRCs + filler = sum of K
        let seg = Segmentation::plan(r.tb_bits);
        let sum_k: usize = (0..seg.c).map(|i| seg.k_of(i)).sum();
        assert_eq!(expect, sum_k);
    }

    #[test]
    fn stage_times_are_populated() {
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        let r = run(cfg, 256).unwrap();
        assert!(r.nanos.encode > 0);
        assert!(r.nanos.transport > 0);
        assert!(r.nanos.arrangement > 0);
        assert!(r.nanos.decode > 0);
        assert_eq!(
            r.nanos.total(),
            r.nanos.encode
                + r.nanos.transport
                + r.nanos.demap
                + r.nanos.arrangement
                + r.nanos.decode
        );
    }

    #[test]
    fn fading_uplink_closes_the_loop() {
        let cfg = PipelineConfig {
            fading: true,
            modulation: Modulation::Qpsk,
            snr_db: 22.0,
            decoder_iterations: 8,
            ..Default::default()
        };
        let r = run(cfg, 256);
        assert!(r.is_ok(), "equalized fading uplink must decode: {r:?}");
    }

    #[test]
    fn fading_threshold_is_no_better_than_awgn() {
        // Find the lowest SNR (1 dB grid) at which each channel first
        // decodes; frequency-selective fading can only need more.
        let threshold = |fading: bool| -> i32 {
            for snr in 4..=20 {
                let cfg = PipelineConfig {
                    fading,
                    modulation: Modulation::Qam16,
                    snr_db: snr as f32,
                    decoder_iterations: 6,
                    ..Default::default()
                };
                if run(cfg, 256).is_ok() {
                    return snr;
                }
            }
            99
        };
        let awgn = threshold(false);
        let fade = threshold(true);
        assert!(awgn < 99, "AWGN must decode somewhere below 20 dB");
        assert!(
            fade >= awgn,
            "fading threshold ({fade} dB) below AWGN ({awgn} dB)?"
        );
    }

    #[test]
    fn metrics_record_every_stage_for_one_packet() {
        let metrics = std::sync::Arc::new(crate::metrics::PipelineMetrics::new(true));
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        let mut b = PacketBuilder::new(1000, 2000);
        let p = b.build(Transport::Udp, 256).unwrap();
        let r = UplinkPipeline::with_metrics(cfg, metrics.clone())
            .process(&p)
            .expect("clean channel");
        for s in Stage::ALL {
            assert!(
                metrics.stage(s).count() > 0,
                "stage {} recorded nothing",
                s.name()
            );
        }
        assert_eq!(metrics.packets.get(), 1);
        assert_eq!(metrics.ok_packets.get(), 1);
        assert_eq!(metrics.code_blocks.get(), r.code_blocks as u64);
        assert_eq!(
            metrics.decoder_iterations.get(),
            r.decoder_iterations as u64
        );
    }

    #[test]
    fn disabled_metrics_leave_pipeline_behavior_unchanged() {
        let metrics = std::sync::Arc::new(crate::metrics::PipelineMetrics::new(false));
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        let mut b = PacketBuilder::new(1000, 2000);
        let p = b.build(Transport::Udp, 128).unwrap();
        let r = UplinkPipeline::with_metrics(cfg, metrics.clone()).process(&p);
        assert!(r.is_ok());
        assert_eq!(metrics.packets.get(), 0);
        assert_eq!(metrics.stage(Stage::Decode).count(), 0);
    }

    #[test]
    fn synthetic_interleaved_is_deterministic() {
        let a = synthetic_interleaved(96, 5);
        let b = synthetic_interleaved(96, 5);
        assert_eq!(a, b);
        assert_ne!(a, synthetic_interleaved(96, 6));
        assert_eq!(a.data.len(), 288);
    }

    // ---- robustness: typed errors, faults, deadlines, degradation ----

    #[test]
    fn corrupted_ingress_frame_is_typed_not_panicking() {
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        let pipe = UplinkPipeline::new(cfg);
        let mut b = PacketBuilder::new(1000, 2000);
        let mut p = b.build(Transport::Udp, 128).unwrap();
        p.frame[20] ^= 0xff; // deep inside the IPv4 header
        let e = pipe.process(&p).expect_err("corrupt header must reject");
        assert_eq!(e.category(), ErrorCategory::MalformedFrame);

        // Truncated below the minimum header stack, including empty.
        for keep in [0usize, 1, 13, 41] {
            let mut p = b.build(Transport::Udp, 128).unwrap();
            p.frame.truncate(keep);
            let e = pipe
                .process(&p)
                .expect_err("truncated frame must reject cleanly");
            assert_eq!(e.category(), ErrorCategory::MalformedFrame, "keep={keep}");
        }
    }

    #[test]
    fn injected_faults_classify_into_expected_categories() {
        let mut b = PacketBuilder::new(1000, 2000);
        let p = b.build(Transport::Udp, 256).unwrap();
        let expect = [
            (FaultKind::CorruptFrame, vec![ErrorCategory::MalformedFrame]),
            (
                FaultKind::TruncateFrame,
                vec![ErrorCategory::MalformedFrame],
            ),
            (
                FaultKind::CodeBlockCountLie,
                vec![ErrorCategory::SegmentationOverflow],
            ),
        ];
        for (kind, categories) in expect {
            let cfg = PipelineConfig {
                snr_db: 30.0,
                ..Default::default()
            };
            let pipe =
                UplinkPipeline::with_faults(cfg, FaultInjector::with_mix(42, FaultMix::only(kind)));
            for _ in 0..10 {
                let e = pipe
                    .process(&p)
                    .expect_err("every packet carries this fault");
                assert!(
                    categories.contains(&e.category()),
                    "{}: got {e}",
                    kind.name()
                );
            }
        }
        // LLR faults land in a decode-quality category (or, rarely,
        // the decoder still pulls the block through).
        for kind in [FaultKind::FlipLlrSigns, FaultKind::SaturateLlrs] {
            let cfg = PipelineConfig {
                snr_db: 30.0,
                ..Default::default()
            };
            let pipe =
                UplinkPipeline::with_faults(cfg, FaultInjector::with_mix(42, FaultMix::only(kind)));
            for _ in 0..10 {
                if let Err(e) = pipe.process(&p) {
                    assert!(
                        matches!(
                            e.category(),
                            ErrorCategory::CrcMismatch | ErrorCategory::DecoderDiverged
                        ),
                        "{}: got {e}",
                        kind.name()
                    );
                }
            }
        }
    }

    #[test]
    fn exhausted_deadline_aborts_with_budget_accounting() {
        let metrics = std::sync::Arc::new(crate::metrics::PipelineMetrics::new(true));
        let cfg = PipelineConfig {
            snr_db: 30.0,
            deadline_ns: Some(1), // gone before the first decode
            ..Default::default()
        };
        let pipe = UplinkPipeline::with_metrics(cfg, metrics.clone());
        let mut b = PacketBuilder::new(1000, 2000);
        let p = b.build(Transport::Udp, 128).unwrap();
        let e = pipe.process(&p).expect_err("1 ns budget cannot hold");
        match e {
            PipelineError::DeadlineExceeded {
                budget_ns,
                elapsed_ns,
            } => {
                assert_eq!(budget_ns, 1);
                assert!(elapsed_ns >= budget_ns);
            }
            other => panic!("expected DeadlineExceeded, got {other}"),
        }
        assert_eq!(metrics.error_count(ErrorCategory::DeadlineExceeded), 1);
        assert_eq!(metrics.packets.get(), 1);
        assert_eq!(metrics.ok_packets.get(), 0);
    }

    #[test]
    fn generous_deadline_changes_nothing() {
        let base = run(
            PipelineConfig {
                snr_db: 12.0,
                ..Default::default()
            },
            512,
        );
        let budgeted = run(
            PipelineConfig {
                snr_db: 12.0,
                deadline_ns: Some(u64::MAX),
                ..Default::default()
            },
            512,
        );
        assert_eq!(signature(&base), signature(&budgeted));
    }

    #[test]
    fn degradation_ladder_swaps_to_scalar_and_restores() {
        let metrics = std::sync::Arc::new(crate::metrics::PipelineMetrics::new(true));
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default() // Native backend
        };
        let mut pipe = UplinkPipeline::with_metrics(cfg, metrics.clone());
        pipe.set_fault_injector(FaultInjector::with_mix(
            11,
            FaultMix::only(FaultKind::FlipLlrSigns),
        ));
        let mut b = PacketBuilder::new(1000, 2000);
        let p = b.build(Transport::Udp, 256).unwrap();

        // Hammer with LLR sign-flips until the ladder trips.
        let mut tries = 0;
        while !pipe.is_degraded() {
            assert!(tries < 100, "ladder never tripped in {tries} packets");
            let _ = pipe.process(&p);
            tries += 1;
        }
        assert!(tries >= DEGRADE_AFTER as usize, "tripped early: {tries}");
        assert_eq!(metrics.backend_degradations.get(), 1);
        assert_eq!(metrics.backend_restorations.get(), 0);

        // Degraded pipeline still decodes clean traffic (bit-exact
        // scalar path), and restores after enough successes.
        pipe.set_fault_injector(FaultInjector::with_mix(1, FaultMix::only(FaultKind::Clean)));
        for i in 0..RESTORE_AFTER {
            assert!(
                pipe.process(&p).is_ok(),
                "clean packet {i} failed while degraded"
            );
        }
        assert!(
            !pipe.is_degraded(),
            "ladder must restore after {RESTORE_AFTER} successes"
        );
        assert_eq!(metrics.backend_restorations.get(), 1);
    }

    #[test]
    fn fault_decisions_are_deterministic_per_seed() {
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        let mut b = PacketBuilder::new(1000, 2000);
        let p = b.build(Transport::Udp, 128).unwrap();
        let outcomes = |seed: u64| -> Vec<Option<ErrorCategory>> {
            let pipe = UplinkPipeline::with_faults(cfg, FaultInjector::new(seed));
            (0..40)
                .map(|_| pipe.process(&p).err().map(|e| e.category()))
                .collect()
        };
        assert_eq!(outcomes(3), outcomes(3));
        assert_ne!(outcomes(3), outcomes(4), "different seed, different faults");
    }
}
