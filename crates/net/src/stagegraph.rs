//! Out-of-order stage-graph runtime with cross-packet batch formation.
//!
//! The native turbo decoder's batch launches (two code blocks per zmm
//! register) only pay off when all four lanes of a quad launch hold a
//! code block of the *same* K — and a single transport block rarely
//! carries four. Under mixed-K
//! traffic the per-packet serial model leaves the zmm lanes mostly
//! idle. This module restructures the dataflow instead of widening the
//! kernels: uplink work decomposes into stage tasks, and **decode tasks
//! from different packets** are pooled by `(K, iteration cap,
//! CRC24B-bearing)`, then launched as quad (two zmm) / pair (one zmm)
//! batches the moment lanes fill — or earlier, when a member packet's deadline
//! (or an age bound) nears, or at once while the graph is underloaded.
//!
//! ```text
//!   admit(ue, pkt) = prepare + admit_prepared  pools (one per K, cap, crc)
//! ┌─────────────────────────────┐    ┌───────┐
//! │ demod → de-rate-match →     │ K₁ │ ▓▓▓░  │── lanes full ──┐
//! │ arrange  (RxChain::front    │───▶├───────┤                ▼
//! │ via prepare, per packet)    │ K₂ │ ▓░░░  │── deadline ─▶ quad /
//! └─────────────────────────────┘    └───────┘    flush      pair /
//!        │ staged tasks                                      single
//!        ▼                                                     │
//! ┌──────────────┐   all blocks decoded    ┌────────────────┐  │
//! │ ROB slots +  │◀────────────────────────│ scatter bits,  │◀─┘
//! │ free list    │                         │ iters, decode  │
//! └──────────────┘                         │ ns to slots    │
//!        │ retire (out of order)           └────────────────┘
//!        ▼
//! per-UE reorder (seq) → in-order delivery, CRC check, L2 verify
//! ```
//!
//! # What is preserved
//!
//! * **Bit-exact, iteration-exact outcomes.** The oracle is the serial
//!   early-stop path, [`UplinkPipeline::process`]. A flush is the
//!   serial path's own decode call on the pool's blocks, and every lane
//!   of a launch stops where that call stops on the block alone — on
//!   its own CRC24B when the
//!   packet has more than one code block, at the iteration cap
//!   otherwise — for every quad/pair/single grouping. So *when* a block
//!   decodes and *who* it shares a register with can change neither
//!   its bits nor its iteration count. The pool key keeps blocks that
//!   can stop apart from blocks that cannot, so a lane that passed is
//!   never held to the cap by one that has no CRC to pass. Completion
//!   runs the serial tail ([`UplinkPipeline::complete`]) on the
//!   decoder's per-block verdicts: desegment, CRC24A, L2 delivery
//!   check.
//! * **Error taxonomy and the degradation ladder.** `prepare` fails
//!   with the same typed [`PipelineError`]s at the same points; the
//!   Scalar backend (configured or ladder-degraded) completes serially
//!   inside `prepare` and retires through the same reorder stage. The
//!   ladder settles at completion, exactly as in `process`, and is read
//!   again at admission: a packet prepared on the other half of a split
//!   pipeline ([`UplinkPipeline::split`]) before a demotion decodes on
//!   the scalar reference there.
//! * **In-order per-UE delivery.** Packets retire from the ROB out of
//!   order, but each UE's results are resequenced by admission number
//!   before [`StageGraph::pop_completed`] surfaces them.
//!
//! # Who decodes
//!
//! The graph owns pools, not decoders. A flush is one
//! `UplinkPipeline::decode_launch`: the pipeline's receive chain
//! decodes the pool's blocks on its own decoders and scratch, lapped as
//! `Op::Decode` by the pipeline's clock (one `op.decode` sample per
//! flush) and filed where the serial path's decodes are. The graph
//! splits the lap evenly over the launch's blocks into each packet's
//! `Op::Decode` ledger slot, and reads the clock itself only for the idle and
//! deadline flush policies below.
//!
//! # Who prepares
//!
//! [`StageGraph::admit`] runs `prepare` on the graph's own pipeline;
//! [`StageGraph::admit_prepared`] takes what another thread prepared —
//! the threaded runner prepares each packet on its dealing thread, on
//! one half of a split pipeline, while the graph's pipeline, the other
//! half, decodes. A completed packet's buffers belong to the pipeline
//! that prepared them: [`StageGraph::pop_spent`] hands them back.
//!
//! # ROB / free-list idiom
//!
//! In-flight packets live in a fixed array of slots linked through
//! `next_free` indices — allocation is "pop the free head", release is
//! "push onto the free head", no heap traffic in steady state: a
//! packet's blocks stay in its [`PreparedUplink`], where launches read
//! them, and each slot's tally keeps its bit buffers across occupants.
//! A slot retires when its last staged block decodes. If admission ever
//! finds the free list empty, every pool is flushed (reason `Drain`),
//! which completes all in-flight packets and refills the list.
//!
//! # Flush policy
//!
//! Batching pays only under load. Every admission that stages blocks
//! is measured: `busy` is the packet's preparation, wherever it ran,
//! plus the admission's own wall time; `idle` is the time from the
//! previous admission's return until the packet was in hand — when
//! `prepare` began, or earlier if its caller held it waiting (the
//! runner's dealing thread, building ahead) — and zero if that was
//! before the return. After [`QUAD`] such admissions in a row with
//! idle > busy the graph is *underloaded*; after `QUAD` in a row with
//! idle ≤ busy it is loaded again. The threshold is the graph's own
//! service time, so there is no setting, and a closed loop — the next
//! packet is in hand before the previous admission returns — never
//! leaves the loaded state. An admission that stages nothing (a breaker
//! fast-fail, a pre-decode failure, the scalar decoder) is not
//! measured: it adds no task to wait for lanes, and a run of
//! sub-microsecond fast-fails is no service time to hold a ring pop
//! against. [`StageGraph::replace_pipeline`] and
//! [`StageGraph::forget_gap`] forget the previous return, so a back-off
//! after a panic never reads as idle.
//!
//! * `LanesFull` — a pool reached four tasks: launch a quad now.
//! * `Deadline` — the pool's oldest task aged past
//!   [`StageGraphConfig::flush_age`] admissions, or its packet spent
//!   3/4 of its [`PipelineConfig::deadline_ns`] budget: launch what's
//!   there (pair + single) rather than blow the budget waiting for a
//!   fourth.
//! * `Idle` — the graph is underloaded: every non-empty pool launches
//!   before the admission returns, because the core would sit idle
//!   while the packet waited for lanes that will not fill in time.
//! * `Drain` — end of run (or ROB pressure): flush everything.

use crate::error::PipelineError;
use crate::metrics::{Op, StageGraphMetrics};
use crate::observe::{FlightRecorder, TraceEvent};
use crate::packet::Packet;
use crate::pipeline::{
    Admission, PacketResult, PipelineConfig, PreparedUplink, UplinkPipeline, MAX_CODE_BLOCKS,
};
use crate::rx::Capture;
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};
use vran_phy::crc::CRC24B;
use vran_phy::turbo::native_batch::{launches, LaneOutcome, QUAD};
use vran_phy::turbo::BlockLlrs;

/// Why a decode pool launched before (or at) lane width.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushReason {
    /// Four same-K tasks filled the zmm lanes — the happy path.
    LanesFull,
    /// A member task's packet deadline or age bound neared; partial
    /// launch (pair/single) beats a blown budget.
    Deadline,
    /// End-of-run drain or ROB pressure: no more admissions are coming
    /// to fill the lanes.
    Drain,
    /// The graph is underloaded (admissions arrive further apart than
    /// they take): the admission launches every non-empty pool before
    /// it returns rather than hold its packets for lanes.
    Idle,
}

/// Stage-graph tuning knobs.
#[derive(Debug, Clone, Copy)]
pub struct StageGraphConfig {
    /// ROB capacity: maximum packets in flight (staged but not yet
    /// retired). The free list spans exactly this many slots.
    pub rob_slots: usize,
    /// Age bound, in admissions: a pool whose oldest task has waited
    /// this many `admit` calls is deadline-flushed. It binds only
    /// under load — an underloaded graph launches every pool at once
    /// ([`FlushReason::Idle`]). Under the mixed-K `paper_sweep`
    /// round-robin the same-K re-arrival distance is well under this,
    /// so the bound only fires on rare stragglers.
    pub flush_age: u64,
}

impl Default for StageGraphConfig {
    fn default() -> Self {
        Self {
            rob_slots: 64,
            flush_age: 64,
        }
    }
}

/// One in-flight packet: everything needed to finish it once its
/// blocks decode. Its staged blocks stay in `prep`, where the launches
/// read them.
#[derive(Debug)]
struct InFlight {
    ue: u64,
    seq: u64,
    prep: PreparedUplink,
}

/// A ROB slot: either a link in the free list or an in-flight packet.
#[derive(Debug)]
struct RobSlot {
    /// Next free slot index when this slot is free (`u32::MAX` ends
    /// the list); meaningless while occupied.
    next_free: u32,
    entry: Option<InFlight>,
}

/// What a ROB slot's launches have scattered so far; kept apart from
/// [`RobSlot`] so a launch can read the slots' blocks while it writes
/// here.
#[derive(Debug)]
struct Tally {
    /// Decoded bits, one buffer per code block; the buffers outlive
    /// their occupants, so a warm slot takes bits without allocating.
    bits: Vec<Vec<u8>>,
    /// Blocks still waiting in some pool.
    remaining: usize,
    /// Decoder iterations accumulated across the packet's blocks.
    iterations: usize,
    /// Blocks whose launch reported a failed CRC24B.
    failed_blocks: usize,
    /// The packet's shares of its launches' decode laps.
    decode_ns: u64,
}

const FREE_END: u32 = u32::MAX;

/// One staged decode task waiting in a pool: block `block` of the
/// packet in ROB slot `slot`.
#[derive(Debug)]
struct PoolTask {
    slot: u32,
    block: usize,
    /// Admission tick when staged (age-bound flush).
    staged_at: u64,
    /// Wall-clock point past which waiting risks the packet's budget
    /// (3/4 of `deadline_ns` from its start), when one is configured.
    flush_at: Option<Instant>,
}

/// Same-`(K, iter_cap, crc)` decode pool.
#[derive(Debug)]
struct Pool {
    k: usize,
    iter_cap: usize,
    /// Whether the pool's blocks end in a CRC24B (their packets have
    /// more than one code block) and so stop as soon as it passes.
    crc: bool,
    tasks: Vec<PoolTask>,
}

/// The idle-flush state (module docs, "Flush policy"): whether
/// admissions arrive further apart than they take.
#[derive(Debug, Default)]
struct Load {
    /// When the previous admission returned; `None` before the first
    /// and after a pipeline swap, so the next admission is not measured.
    last_return: Option<Instant>,
    underloaded: bool,
    /// Measured admissions in a row that disagree with `underloaded`.
    against: usize,
}

impl Load {
    /// Measure one staging admission whose packet was in hand at
    /// `ready` and took `busy` to prepare and admit; `QUAD` in a row
    /// against the current state flip it. Returns whether the graph is
    /// underloaded.
    fn measure(&mut self, ready: Instant, busy: Duration) -> bool {
        if let Some(prev) = self.last_return {
            let idle = ready.saturating_duration_since(prev);
            if (idle > busy) == self.underloaded {
                self.against = 0;
            } else {
                self.against += 1;
                if self.against == QUAD {
                    self.underloaded = !self.underloaded;
                    self.against = 0;
                }
            }
        }
        self.underloaded
    }
}

/// The out-of-order stage-graph runtime. One instance per worker
/// thread (single-threaded interior, like [`UplinkPipeline`] itself).
///
/// Drive it with [`Self::admit`] per packet, [`Self::drain`] at end of
/// stream, and [`Self::pop_completed`] to collect per-UE in-order
/// results.
#[derive(Debug)]
pub struct StageGraph {
    /// The wrapped pipeline; its receive chain decodes every flush.
    pipe: UplinkPipeline,
    cfg: StageGraphConfig,
    metrics: Option<Arc<StageGraphMetrics>>,
    /// Flight recorder receiving one [`TraceEvent`] per pool flush
    /// (also re-attached to replacement pipelines).
    recorder: Option<Arc<FlightRecorder>>,
    /// Monotone pool-launch ordinal stamped on flush trace events.
    batch_seq: u64,
    slots: Vec<RobSlot>,
    /// One per ROB slot.
    tallies: Vec<Tally>,
    free_head: u32,
    /// In-flight packet count (occupied ROB slots).
    in_flight: usize,
    /// Decode pools, one per `(K, iter_cap, crc)`; the graph holds no
    /// decoder, scratch or bit buffer of its own.
    pools: Vec<Pool>,
    /// Admission counter (the age clock).
    tick: u64,
    /// Whether to launch every pool before returning (idle flush).
    load: Load,
    /// Per-UE: next sequence number to assign at admission.
    next_seq: HashMap<u64, u64>,
    /// Per-UE: next sequence number eligible for delivery.
    next_deliver: HashMap<u64, u64>,
    /// Retired results waiting for earlier same-UE packets.
    held: HashMap<u64, BTreeMap<u64, Result<PacketResult, PipelineError>>>,
    /// In-order delivery queue.
    completed: VecDeque<(u64, Result<PacketResult, PipelineError>)>,
    /// Completed packets' buffers, for the pipeline that prepared them
    /// ([`Self::pop_spent`]).
    spent: Vec<PreparedUplink>,
}

impl StageGraph {
    /// New runtime around an existing pipeline (carries its config,
    /// metrics and fault injector).
    pub fn new(pipe: UplinkPipeline, cfg: StageGraphConfig) -> Self {
        let rob = cfg.rob_slots.max(1);
        let slots = (0..rob)
            .map(|i| RobSlot {
                next_free: if i + 1 < rob {
                    (i + 1) as u32
                } else {
                    FREE_END
                },
                entry: None,
            })
            .collect();
        let tallies = (0..rob)
            .map(|_| Tally {
                bits: vec![Vec::new(); MAX_CODE_BLOCKS],
                remaining: 0,
                iterations: 0,
                failed_blocks: 0,
                decode_ns: 0,
            })
            .collect();
        Self {
            pipe,
            cfg,
            metrics: None,
            recorder: None,
            batch_seq: 0,
            slots,
            tallies,
            free_head: 0,
            in_flight: 0,
            pools: Vec::new(),
            tick: 0,
            load: Load::default(),
            next_seq: HashMap::new(),
            next_deliver: HashMap::new(),
            held: HashMap::new(),
            completed: VecDeque::new(),
            spent: Vec::new(),
        }
    }

    /// Convenience: build the pipeline from a config.
    pub fn with_config(pipe_cfg: PipelineConfig, cfg: StageGraphConfig) -> Self {
        Self::new(UplinkPipeline::new(pipe_cfg), cfg)
    }

    /// Attach a batch-formation metrics registry.
    pub fn set_metrics(&mut self, m: Arc<StageGraphMetrics>) {
        self.metrics = Some(m);
    }

    /// Attach a flight recorder: one [`TraceEvent`] per pool flush
    /// from the graph, plus per-packet events from the wrapped
    /// pipeline. Survives [`Self::replace_pipeline`].
    pub fn set_recorder(&mut self, recorder: Arc<FlightRecorder>) {
        self.pipe.set_recorder(recorder.clone());
        self.recorder = Some(recorder);
    }

    /// The wrapped pipeline.
    pub fn pipeline(&self) -> &UplinkPipeline {
        &self.pipe
    }

    /// Swap in a fresh pipeline after an isolated worker panic,
    /// *keeping* the ROB, pools and per-UE sequence state — in-flight
    /// packets staged before the panic still retire, and delivery
    /// order is unbroken. (Prepare stages nothing before it returns,
    /// so a panicking packet leaves no orphaned tasks behind.) The gap
    /// across the swap is the caller's back-off, not idle time, so the
    /// next admission is not measured for the idle flush.
    pub fn replace_pipeline(&mut self, mut pipe: UplinkPipeline) {
        if let Some(rec) = &self.recorder {
            pipe.set_recorder(rec.clone());
        }
        self.pipe = pipe;
        self.forget_gap();
    }

    /// The gap before the next admission is not idle time — say, the
    /// back-off after a panic on the thread that prepares the packets —
    /// so that admission is not measured for the idle flush.
    pub fn forget_gap(&mut self) {
        self.load.last_return = None;
    }

    /// Packets staged but not yet retired.
    pub fn in_flight(&self) -> usize {
        self.in_flight
    }

    /// Admit one packet for UE `ue`: [`UplinkPipeline::prepare`] on the
    /// graph's own pipeline — the loopback's transmitter and channel,
    /// then the receive front end — and [`Self::admit_prepared`] of
    /// what it staged.
    ///
    /// Panic-safe for worker isolation: a panic inside the pipeline
    /// (e.g. injected [`crate::faultinject::FaultKind::WorkerPanic`])
    /// unwinds out *before* a sequence number is consumed or anything
    /// is staged, so the graph stays consistent — swap in a fresh
    /// pipeline with [`Self::replace_pipeline`] and keep admitting.
    pub fn admit(&mut self, ue: u64, packet: &Packet) {
        self.recycle_spent();
        let admission = self.pipe.prepare(packet);
        self.enqueue(ue, admission);
    }

    /// Admit one received capture for UE `ue` — the receiver without
    /// the test bench: `cap` goes straight into the receive front end
    /// ([`UplinkPipeline::prepare_capture`]) and its blocks into the
    /// pools; `expect` is the frame it should deliver.
    pub fn admit_capture(&mut self, ue: u64, cap: &Capture<'_>, expect: &[u8]) {
        self.recycle_spent();
        let admission = self.pipe.prepare_capture(cap, expect);
        self.enqueue(ue, admission);
    }

    /// Admit for UE `ue` a packet another pipeline prepared — the
    /// preparing half of a split one ([`UplinkPipeline::split`]), the
    /// graph's own pipeline being the other half. Gives the admission
    /// its sequence number and either retires it (it completed
    /// serially, or the ladder demoted the decoder since it was staged)
    /// or takes a ROB slot and pools its blocks; then launches any
    /// batch whose lanes filled or whose deadline neared — or, while
    /// the graph is underloaded, every batch. Completed packets (this
    /// one or earlier ones its launches finished) become available via
    /// [`Self::pop_completed`], their buffers via [`Self::pop_spent`].
    ///
    /// Its deadline clock does not run between `prepare` returning and
    /// this call, and its preparation counts as busy time for the idle
    /// flush, wherever it ran (module docs, "Flush policy").
    pub fn admit_prepared(&mut self, ue: u64, admission: Admission) {
        self.enqueue(ue, admission);
    }

    /// One admission tick: give the admission its sequence number and
    /// either retire it or take a ROB slot and pool its blocks; then
    /// measure the load and, underloaded, launch every pool.
    fn enqueue(&mut self, ue: u64, admission: Admission) {
        let arrived = Instant::now();
        self.tick += 1;
        self.pipe.set_trace_ue(ue);
        let seq = {
            let s = self.next_seq.entry(ue).or_insert(0);
            let v = *s;
            *s += 1;
            v
        };
        // What a staging admission is measured by: when its packet was
        // in hand, and how long it has taken to prepare so far.
        let mut measured = None;
        match admission {
            Admission::Ready(result) => {
                // Completed serially (the scalar decoder of the
                // reference profile or the degraded ladder, or a
                // pre-decode failure) — but an earlier same-UE packet
                // may still be in flight, so it joins the reorder
                // stage like everyone else.
                self.retire(ue, seq, result);
            }
            Admission::Staged(mut prep) => {
                let prepared = prep.arrive(arrived);
                if let Some(result) = self.pipe.demoted(&prep) {
                    self.retire(ue, seq, result);
                    self.spent.push(prep);
                } else {
                    measured = Some((prep.ready, prepared));
                    self.stage(ue, seq, prep);
                }
            }
        }
        self.flush_aged();
        // Only a staging admission is measured (module docs). One that
        // staged nothing has nothing to launch either: underloaded, the
        // pools are empty between admissions.
        if let Some((ready, prepared)) = measured {
            if self.load.measure(ready, prepared + arrived.elapsed()) {
                self.flush_all(FlushReason::Idle);
            }
        }
        self.load.last_return = Some(Instant::now());
    }

    /// Take a ROB slot for `prep` and pool its blocks.
    fn stage(&mut self, ue: u64, seq: u64, prep: PreparedUplink) {
        let slot = self.alloc_slot();
        let budget = self.pipe.config().deadline_ns;
        let flush_at = budget.map(|b| prep.start + Duration::from_nanos(b * 3 / 4));
        let iter_cap = prep.iter_cap();
        let ks: [usize; MAX_CODE_BLOCKS] =
            std::array::from_fn(|b| prep.tasks.get(b).map_or(0, |t| t.k));
        let n = prep.tasks.len();
        let tally = &mut self.tallies[slot as usize];
        (tally.remaining, tally.iterations) = (n, 0);
        (tally.failed_blocks, tally.decode_ns) = (0, 0);
        self.slots[slot as usize].entry = Some(InFlight { ue, seq, prep });
        self.in_flight += 1;
        for (block, &k) in ks[..n].iter().enumerate() {
            self.stage_task(slot, block, k, iter_cap, n > 1, flush_at);
        }
    }

    /// Flush every pool (end of stream): remaining tasks launch as
    /// pairs and singles, and all in-flight packets retire.
    pub fn drain(&mut self) {
        self.flush_all(FlushReason::Drain);
        debug_assert_eq!(self.in_flight, 0, "drain retires everything");
    }

    /// Next in-order completed packet: `(ue, result)`. Per-UE order is
    /// admission order; across UEs, retirement order.
    pub fn pop_completed(&mut self) -> Option<(u64, Result<PacketResult, PipelineError>)> {
        self.completed.pop_front()
    }

    /// A completed packet's buffers, for [`UplinkPipeline::recycle`] on
    /// the pipeline that prepared it. [`Self::admit`] and
    /// [`Self::admit_capture`] hand them back to the graph's own
    /// pipeline themselves; a caller of [`Self::admit_prepared`] takes
    /// them here.
    pub fn pop_spent(&mut self) -> Option<PreparedUplink> {
        self.spent.pop()
    }

    // ---- internals ----

    /// Hand every spent packet back to the graph's own pipeline.
    fn recycle_spent(&mut self) {
        while let Some(prep) = self.spent.pop() {
            self.pipe.recycle(prep);
        }
    }

    /// Pop a free ROB slot, flushing all pools first if none is free
    /// (flushing retires every in-flight packet, so the list refills).
    fn alloc_slot(&mut self) -> u32 {
        if self.free_head == FREE_END {
            self.flush_all(FlushReason::Drain);
            debug_assert_ne!(self.free_head, FREE_END, "flush-all frees slots");
        }
        let slot = self.free_head;
        self.free_head = self.slots[slot as usize].next_free;
        slot
    }

    /// Launch every non-empty pool, which retires every in-flight
    /// packet.
    fn flush_all(&mut self, reason: FlushReason) {
        for pi in 0..self.pools.len() {
            self.flush_pool(pi, reason);
        }
    }

    /// Push a retired slot back onto the free list.
    fn release_slot(&mut self, slot: u32) {
        self.slots[slot as usize].next_free = self.free_head;
        self.free_head = slot;
    }

    /// Stage block `block` (size `k`) of ROB slot `slot` into its
    /// `(K, iter_cap, crc)` pool, launching a quad immediately when the
    /// lanes fill.
    fn stage_task(
        &mut self,
        slot: u32,
        block: usize,
        k: usize,
        iter_cap: usize,
        crc: bool,
        flush_at: Option<Instant>,
    ) {
        let pi = match self
            .pools
            .iter()
            .position(|p| p.k == k && p.iter_cap == iter_cap && p.crc == crc)
        {
            Some(i) => i,
            None => {
                self.pools.push(Pool {
                    k,
                    iter_cap,
                    crc,
                    tasks: Vec::with_capacity(QUAD),
                });
                self.pools.len() - 1
            }
        };
        self.pools[pi].tasks.push(PoolTask {
            slot,
            block,
            staged_at: self.tick,
            flush_at,
        });
        if self.pools[pi].tasks.len() >= QUAD {
            self.flush_pool(pi, FlushReason::LanesFull);
        }
    }

    /// Deadline-driven partial flush: launch any pool whose oldest
    /// task aged past the bound or whose packet spent 3/4 of its
    /// budget. Oldest-first order within a pool makes the front task
    /// the binding one.
    fn flush_aged(&mut self) {
        let now = self
            .pools
            .iter()
            .any(|p| p.tasks.first().is_some_and(|t| t.flush_at.is_some()))
            .then(Instant::now);
        for pi in 0..self.pools.len() {
            let due = match self.pools[pi].tasks.first() {
                Some(t) => {
                    self.tick.saturating_sub(t.staged_at) >= self.cfg.flush_age
                        || t.flush_at.zip(now).is_some_and(|(at, now)| now >= at)
                }
                None => false,
            };
            if due {
                self.flush_pool(pi, FlushReason::Deadline);
            }
        }
    }

    /// Launch everything in pool `pi` in one decode call — quads while
    /// four remain, then a pair, then a single leftover
    /// ([`launches`]), each with the pool's CRC. Scatters bits /
    /// iterations / CRC verdicts / decode-time shares to the owning
    /// slots' tallies and retires any slot whose last block this flush
    /// decoded.
    fn flush_pool(&mut self, pi: usize, reason: FlushReason) {
        let pool = &self.pools[pi];
        let n = pool.tasks.len();
        if n == 0 {
            return;
        }
        if let Some(m) = &self.metrics {
            m.record_flush(reason);
        }
        if let Some(rec) = &self.recorder {
            rec.record(TraceEvent::flush(self.batch_seq, pool.k, n, reason));
        }
        self.batch_seq += 1;
        let crc = pool.crc.then_some(&CRC24B);
        // The kernels read the staged stream buffers in place, in their
        // packets' ROB slots (the array's tail past `n` repeats the last
        // block and is never read). Each lane's bits, its own
        // iterations and CRC verdict and an even share of the launch's
        // lap go to its packet's tally.
        let slots = &self.slots;
        let blocks: [BlockLlrs<'_>; QUAD] = std::array::from_fn(|g| {
            let t = &pool.tasks[g.min(n - 1)];
            let entry = slots[t.slot as usize]
                .entry
                .as_ref()
                .expect("pool task points at an occupied slot");
            BlockLlrs::from_turbo(&entry.prep.tasks[t.block])
        });
        let (tallies, metrics) = (&mut self.tallies, &self.metrics);
        let land = |bits: &[Vec<u8>], lanes: &[LaneOutcome], lap_ns: u64| {
            if let Some(m) = metrics {
                let mut at = 0;
                for run in launches(n) {
                    m.record_launch(&lanes[at..at + run]);
                    at += run;
                }
            }
            for ((t, bits), &(iters, crc_ok, _)) in pool.tasks.iter().zip(bits).zip(lanes) {
                let tally = &mut tallies[t.slot as usize];
                tally.bits[t.block].clone_from(bits);
                tally.iterations += iters;
                tally.failed_blocks += usize::from(crc_ok == Some(false));
                tally.decode_ns += lap_ns / n as u64;
                tally.remaining -= 1;
            }
        };
        self.pipe
            .decode_launch(&blocks[..n], pool.iter_cap, crc, land);

        // Slots whose last block this flush decoded, in pool order.
        let mut done = [FREE_END; QUAD];
        for (d, t) in done.iter_mut().zip(&self.pools[pi].tasks) {
            if self.tallies[t.slot as usize].remaining == 0 {
                *d = t.slot;
            }
        }
        self.pools[pi].tasks.clear();
        for slot in done {
            if slot != FREE_END {
                self.complete_slot(slot);
            }
        }
    }

    /// Retire the packet in ROB slot `slot`, all of whose blocks have
    /// decoded: the pipeline's serial tail on its tally, then the
    /// reorder stage; its buffers are spent.
    fn complete_slot(&mut self, slot: u32) {
        // A packet with two blocks in one launch is listed twice.
        let Some(InFlight { ue, seq, mut prep }) = self.slots[slot as usize].entry.take() else {
            return;
        };
        self.release_slot(slot);
        self.in_flight -= 1;
        self.pipe.set_trace_ue(ue);
        let tally = &self.tallies[slot as usize];
        prep.nanos[Op::Decode] += tally.decode_ns;
        let bits = &tally.bits[..prep.tasks.len()];
        let result = self
            .pipe
            .finish(&prep, bits, tally.iterations, tally.failed_blocks);
        self.retire(ue, seq, result);
        self.spent.push(prep);
    }

    /// Feed one retired packet into the per-UE resequencer and move
    /// every now-deliverable result to the completion queue.
    fn retire(&mut self, ue: u64, seq: u64, result: Result<PacketResult, PipelineError>) {
        let next = self.next_deliver.entry(ue).or_insert(0);
        if seq != *next {
            self.held.entry(ue).or_default().insert(seq, result);
            return;
        }
        self.completed.push_back((ue, result));
        *next += 1;
        if let Some(pending) = self.held.get_mut(&ue) {
            while let Some(r) = pending.remove(next) {
                self.completed.push_back((ue, r));
                *next += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{PacketBuilder, Transport};
    use crate::pipeline::Profile;

    fn cfg() -> PipelineConfig {
        PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        }
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
    fn staged_results_match_serial_process() {
        let sizes = [64usize, 128, 300, 512, 600, 900, 1200, 1400, 1500];
        let mut b = PacketBuilder::new(1000, 2000);
        let packets: Vec<_> = sizes
            .iter()
            .cycle()
            .take(40)
            .map(|&sz| b.build(Transport::Udp, sz).unwrap())
            .collect();
        // Lanes stop where the serial decoder stops, so the
        // iteration-for-iteration oracle is plain `process`. It runs
        // first: work between admissions would read as idle time and
        // launch every block alone.
        let serial = UplinkPipeline::new(cfg());
        let expect: Vec<_> = packets
            .iter()
            .map(|p| signature(&serial.process(p)))
            .collect();
        let m = Arc::new(StageGraphMetrics::default());
        let mut graph = StageGraph::with_config(cfg(), StageGraphConfig::default());
        graph.set_metrics(m.clone());
        for (i, p) in packets.iter().enumerate() {
            graph.admit((i % 5) as u64, p);
        }
        graph.drain();
        assert!(m.quad_blocks.get() > 0, "the batch kernels ran");
        let mut got: Vec<(u64, (bool, usize, usize, usize))> = Vec::new();
        while let Some((ue, r)) = graph.pop_completed() {
            got.push((ue, signature(&r)));
        }
        assert_eq!(got.len(), expect.len());
        // Same multiset of outcome signatures; per-UE admission order.
        for ue in 0..5u64 {
            let per_ue: Vec<_> = got
                .iter()
                .filter(|(u, _)| *u == ue)
                .map(|(_, s)| *s)
                .collect();
            let want: Vec<_> = expect
                .iter()
                .enumerate()
                .filter(|(i, _)| (*i % 5) as u64 == ue)
                .map(|(_, s)| *s)
                .collect();
            assert_eq!(per_ue, want, "UE {ue} signatures in admission order");
        }
    }

    #[test]
    fn crc_bearing_blocks_pool_apart_from_same_k_blocks_without() {
        // 503 B is one K = 4160 block with no CRC24B (it runs the
        // cap); 1024 B is two K = 4160 blocks that each stop on theirs.
        // Keyed on K alone the first four would share a launch that is
        // wrong for one kind or the other.
        let mut b = PacketBuilder::new(1000, 2000);
        let sizes = [503usize, 1024, 503, 503, 1024, 503];
        let packets = sizes.map(|sz| b.build(Transport::Udp, sz).unwrap());
        let serial = UplinkPipeline::new(cfg());
        let expect: Vec<_> = packets
            .iter()
            .map(|p| signature(&serial.process(p)))
            .collect();
        let m = Arc::new(StageGraphMetrics::default());
        let mut graph = StageGraph::with_config(cfg(), StageGraphConfig::default());
        graph.set_metrics(m.clone());
        for (sz, p) in sizes.iter().zip(&packets) {
            graph.admit(*sz as u64, p);
        }
        assert_eq!(graph.in_flight(), 0, "both pools filled their lanes");
        assert_eq!(expect[0], (true, 4104, 1, 6));
        assert_eq!(expect[1], (true, 8272, 2, 2));
        // Same-size packets share a UE, so each size delivers in order.
        let got: Vec<_> = std::iter::from_fn(|| graph.pop_completed()).collect();
        for (ue, want) in [
            (503, [expect[0], expect[2], expect[3], expect[5]].as_slice()),
            (1024, &[expect[1], expect[4]]),
        ] {
            let got: Vec<_> = got
                .iter()
                .filter(|(u, _)| *u == ue)
                .map(|(_, r)| signature(r))
                .collect();
            assert_eq!(got, want, "{ue} B packets");
        }
        assert_eq!(m.quad_blocks.get(), 8);
        assert_eq!(m.flush_lanes_full.get(), 2);
        assert_eq!(m.iteration_occupancy(), 1.0);
    }

    #[test]
    fn lanes_fill_under_uniform_k() {
        let m = Arc::new(StageGraphMetrics::default());
        let mut graph = StageGraph::with_config(cfg(), StageGraphConfig::default());
        graph.set_metrics(m.clone());
        let mut b = PacketBuilder::new(1000, 2000);
        // 8 equal-size single-block packets → two full quads.
        for i in 0..8 {
            let p = b.build(Transport::Udp, 64).unwrap();
            graph.admit(i, &p);
        }
        graph.drain();
        assert_eq!(m.quad_blocks.get(), 8);
        assert_eq!(m.flush_lanes_full.get(), 2);
        assert_eq!(m.lane_occupancy(), 1.0);
        assert_eq!(graph.in_flight(), 0);
    }

    #[test]
    fn drain_flushes_partial_pools() {
        let m = Arc::new(StageGraphMetrics::default());
        let mut graph = StageGraph::with_config(cfg(), StageGraphConfig::default());
        graph.set_metrics(m.clone());
        let mut b = PacketBuilder::new(1000, 2000);
        for i in 0..3 {
            let p = b.build(Transport::Udp, 64).unwrap();
            graph.admit(i, &p);
        }
        assert_eq!(graph.in_flight(), 3, "three staged, lanes not full");
        graph.drain();
        assert_eq!(m.flush_drain.get(), 1);
        assert_eq!(m.pair_blocks.get(), 2);
        assert_eq!(m.single_blocks.get(), 1);
        let mut n = 0;
        while let Some((_, r)) = graph.pop_completed() {
            assert!(r.is_ok());
            n += 1;
        }
        assert_eq!(n, 3);
    }

    #[test]
    fn age_bound_flushes_stragglers() {
        let m = Arc::new(StageGraphMetrics::default());
        let mut graph = StageGraph::with_config(
            cfg(),
            StageGraphConfig {
                flush_age: 4,
                ..Default::default()
            },
        );
        graph.set_metrics(m.clone());
        let mut b = PacketBuilder::new(1000, 2000);
        // One 64 B packet, then a stream of 600 B packets: the 64 B
        // pool can never fill its lanes and must age out.
        let p = b.build(Transport::Udp, 64).unwrap();
        graph.admit(0, &p);
        for i in 0..6 {
            let p = b.build(Transport::Udp, 600).unwrap();
            graph.admit(1 + i, &p);
        }
        assert!(m.flush_deadline.get() >= 1, "straggler aged out");
        graph.drain();
        let mut seen = 0;
        while graph.pop_completed().is_some() {
            seen += 1;
        }
        assert_eq!(seen, 7);
    }

    #[test]
    fn scalar_backend_retires_through_reorder_stage() {
        let mut graph = StageGraph::with_config(
            PipelineConfig {
                profile: Profile::Reference,
                snr_db: 30.0,
                ..Default::default()
            },
            StageGraphConfig::default(),
        );
        let mut b = PacketBuilder::new(1000, 2000);
        for _ in 0..4 {
            let p = b.build(Transport::Udp, 128).unwrap();
            graph.admit(7, &p);
        }
        graph.drain();
        let mut n = 0;
        while let Some((ue, r)) = graph.pop_completed() {
            assert_eq!(ue, 7);
            assert!(r.is_ok());
            n += 1;
        }
        assert_eq!(n, 4, "serial fallback still delivers every packet");
    }

    #[test]
    fn rob_pressure_flushes_instead_of_failing() {
        let mut graph = StageGraph::with_config(
            cfg(),
            StageGraphConfig {
                rob_slots: 2,
                flush_age: u64::MAX / 2,
            },
        );
        let mut b = PacketBuilder::new(1000, 2000);
        // Alternate sizes so no pool ever fills its lanes: ROB (2
        // slots) runs out and must flush-all to keep admitting.
        for i in 0..10 {
            let sz = if i % 2 == 0 { 64 } else { 600 };
            let p = b.build(Transport::Udp, sz).unwrap();
            graph.admit(i, &p);
        }
        graph.drain();
        let mut n = 0;
        while let Some((_, r)) = graph.pop_completed() {
            assert!(r.is_ok());
            n += 1;
        }
        assert_eq!(n, 10);
    }

    /// The benchmark's twelve classes, {UDP, TCP} × six sizes, round
    /// twice: four packets per size, so every pool fills a quad when
    /// nothing launches early. Packet `i` is UE `i % 12`.
    fn twelve_classes() -> Vec<Packet> {
        let mut b = PacketBuilder::new(1000, 2000);
        [Transport::Udp, Transport::Tcp]
            .into_iter()
            .flat_map(|t| [64usize, 128, 256, 512, 1024, 1400].map(|sz| (t, sz)))
            .cycle()
            .take(24)
            .map(|(t, sz)| b.build(t, sz).unwrap())
            .collect()
    }

    /// Outcome signatures per UE, each in delivery order.
    fn per_ue(
        results: impl IntoIterator<Item = (u64, Result<PacketResult, PipelineError>)>,
    ) -> BTreeMap<u64, Vec<(bool, usize, usize, usize)>> {
        let mut map: BTreeMap<_, Vec<_>> = BTreeMap::new();
        for (ue, r) in results {
            map.entry(ue).or_default().push(signature(&r));
        }
        map
    }

    /// `(quad, pair, single)` blocks and lanes-full flushes of
    /// [`twelve_classes`] admitted back to back: eight quads.
    const BACK_TO_BACK: [u64; 4] = [32, 0, 0, 8];

    fn batch_counts(m: &StageGraphMetrics) -> [u64; 4] {
        [
            m.quad_blocks.get(),
            m.pair_blocks.get(),
            m.single_blocks.get(),
            m.flush_lanes_full.get(),
        ]
    }

    #[test]
    fn a_paced_graph_launches_every_pool_before_admit_returns() {
        let packets = twelve_classes();
        let serial = UplinkPipeline::new(cfg());
        let expect = per_ue(
            packets
                .iter()
                .enumerate()
                .map(|(i, p)| ((i % 12) as u64, serial.process(p))),
        );
        let m = Arc::new(StageGraphMetrics::default());
        let mut graph = StageGraph::with_config(cfg(), StageGraphConfig::default());
        graph.set_metrics(m.clone());
        let mut got = Vec::new();
        for (i, p) in packets.iter().enumerate() {
            // Far longer than an admission takes, even on a loaded host.
            std::thread::sleep(Duration::from_millis(10));
            graph.admit((i % 12) as u64, p);
            // The first admission has no gap before it; the next QUAD
            // measure idle > busy, and the last of them enters the
            // underloaded state and launches everything.
            if i >= QUAD {
                assert_eq!(graph.in_flight(), 0, "after admission {}", i + 1);
            }
            got.extend(std::iter::from_fn(|| graph.pop_completed()));
        }
        assert!(m.flush_idle.get() > 0);
        assert_eq!(m.flush_drain.get(), 0, "nothing was left to drain");
        assert_eq!(per_ue(got), expect);
    }

    #[test]
    fn back_to_back_admissions_never_flush_idle() {
        let packets = twelve_classes();
        let m = Arc::new(StageGraphMetrics::default());
        let mut graph = StageGraph::with_config(cfg(), StageGraphConfig::default());
        graph.set_metrics(m.clone());
        for (i, p) in packets.iter().enumerate() {
            graph.admit((i % 12) as u64, p);
        }
        graph.drain();
        assert_eq!(m.flush_idle.get(), 0);
        assert_eq!(batch_counts(&m), BACK_TO_BACK);
    }

    /// The load state after each of 16 admissions of an open loop (the
    /// benchmark's `sg_paced` generator): packet `i` is due at
    /// `i × gap_us`, is sent when due or when admission `i − 1`
    /// returns, whichever is later, and is busy `busy_us(i)`.
    fn open_loop_states(gap_us: u64, busy_us: impl Fn(u64) -> u64) -> Vec<bool> {
        let t0 = Instant::now();
        let at = |us: u64| t0 + Duration::from_micros(us);
        let mut load = Load::default();
        let mut end = 0;
        (0..16)
            .map(|i| {
                let start = end.max(i * gap_us);
                end = start + busy_us(i);
                let underloaded = load.measure(at(start), at(end) - at(start));
                load.last_return = Some(at(end));
                underloaded
            })
            .collect()
    }

    #[test]
    fn one_slow_admission_does_not_end_the_underloaded_state() {
        // 400 pkt/s at 300 µs an admission: underloaded from the fifth.
        let calm = open_loop_states(2_500, |_| 300);
        assert_eq!(calm[..=QUAD], [false, false, false, false, true]);
        assert!(calm[QUAD..].iter().all(|&u| u));
        // One 5 ms admission at 2 ms spacing: it and the two packets
        // due during it (sent late, back to back) measure busy — three
        // in a row, one short of leaving.
        let stalled = open_loop_states(2_000, |i| if i == 8 { 5_000 } else { 300 });
        assert!(stalled[QUAD..].iter().all(|&u| u), "{stalled:?}");
        // A sustained overload from admission 8 on leaves on its QUADth.
        let overload = open_loop_states(2_500, |i| if i < 8 { 300 } else { 3_000 });
        assert_eq!(overload[8..=8 + QUAD], [true, true, true, false, false]);
    }

    #[test]
    fn a_worker_panic_and_its_back_off_do_not_read_as_idle() {
        use crate::faultinject::{FaultInjector, FaultKind, FaultMix};
        use std::panic::{catch_unwind, AssertUnwindSafe};
        // Before every admission but the first, the worker dies in
        // `prepare` and sleeps the way `fan_out` recovers (fresh
        // pipeline, ≥ 1 ms back-off), then admits the packet again. Were
        // that gap measured, every admission would read idle > busy.
        let packets = twelve_classes();
        let m = Arc::new(StageGraphMetrics::default());
        let mut graph = StageGraph::with_config(cfg(), StageGraphConfig::default());
        graph.set_metrics(m.clone());
        for (i, p) in packets.iter().enumerate() {
            let ue = (i % 12) as u64;
            if i > 0 {
                let mut dying = UplinkPipeline::new(cfg());
                dying.set_fault_injector(FaultInjector::with_mix(
                    i as u64,
                    FaultMix::only(FaultKind::WorkerPanic),
                ));
                graph.replace_pipeline(dying);
                let died = catch_unwind(AssertUnwindSafe(|| graph.admit(ue, p)));
                assert!(died.is_err(), "admission {} was meant to panic", i + 1);
                graph.replace_pipeline(UplinkPipeline::new(cfg()));
                std::thread::sleep(Duration::from_millis(2));
            }
            graph.admit(ue, p);
        }
        graph.drain();
        assert_eq!(m.flush_idle.get(), 0);
        assert_eq!(batch_counts(&m), BACK_TO_BACK);
        let delivered: Vec<_> = std::iter::from_fn(|| graph.pop_completed()).collect();
        assert_eq!(delivered.len(), packets.len());
        assert!(delivered.iter().all(|(_, r)| r.is_ok()));
    }
}
