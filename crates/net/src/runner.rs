//! Threaded pipeline drivers: packet source → SPSC rings → PHY workers,
//! mirroring the containerized eNB layout of the paper's Figure 1 (each
//! stage its own execution context, queues in userspace).
//!
//! There is one scaffold, `fan_out`: a dealing thread and one worker
//! thread per ring. The dealing thread builds packet `i` with traffic
//! class `i % classes.len()`, runs the worker's *front half* on it and
//! deals the result into the ring of worker `i % workers`; the worker
//! runs its *back half* on what it pops, and hands every buffer the
//! front half allocated back through a second, return ring, so nothing
//! crosses a thread boundary to be freed. Both threads isolate panics:
//! each packet's half runs under `catch_unwind`, and a panicking half
//! quarantines its (possibly inconsistent) pipeline, rebuilds a fresh
//! one, backs off exponentially and carries on. One poisoned packet
//! therefore costs one packet, not a core. The drivers differ in how
//! they split a packet's work between the halves (the `Front` and
//! `Worker` traits):
//!
//! * [`run_multicore_metered`] — the serial model: the front half only
//!   builds the packet, and the worker processes it fully, one at a
//!   time ([`UplinkPipeline::process`]); [`run_uplink_serial_mixed`]
//!   is the same with nothing attached.
//! * [`run_uplink_stagegraph_metered`] — the out-of-order stage-graph
//!   runtime ([`crate::stagegraph`]), pipelined: the front half is
//!   [`UplinkPipeline::prepare`] (the loopback's transmitter and
//!   channel, then the receive front end up to arrangement), and each
//!   worker's [`StageGraph`] pools the staged decode tasks by K across
//!   the packets in its ring, launches them as quad / pair batches on
//!   the zmm kernel and completes them — so preparing one packet
//!   overlaps decoding the ones before it.
//!
//! Both see byte-identical traffic for the same arguments, which is
//! what lets the serial model serve as the measured baseline of the
//! stage graph (DESIGN.md §5.14 has the scaffold's contract).

use crate::error::PipelineError;
use crate::faultinject::{FaultInjector, FaultMix};
use crate::metrics::{PipelineMetrics, RunnerMetrics, StageGraphMetrics};
use crate::observe::{FlightRecorder, TraceEvent};
use crate::packet::{Packet, PacketBuilder, Transport};
use crate::pipeline::{Admission, PacketResult, PipelineConfig, PreparedUplink, UplinkPipeline};
use crate::ring::{Consumer, Producer, SpscRing};
use crate::stagegraph::{StageGraph, StageGraphConfig};
use std::convert::Infallible;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ring capacity used by the threaded drivers.
pub const RING_CAPACITY: usize = 256;

/// Capacity of each worker's return ring. A worker never waits on it (a
/// full return ring would be dropped into, freeing buffers on the wrong
/// thread), so it holds more than a worker can return between two of
/// the dealing thread's visits: an acknowledgement per dealt packet and
/// a spent packet per ring slot and ROB slot.
const RETURN_CAPACITY: usize = 4 * RING_CAPACITY;

/// Base back-off a quarantined pipeline half sleeps after a panic;
/// doubles per consecutive panic up to [`BACKOFF_CAP`].
const BACKOFF_BASE: Duration = Duration::from_millis(1);

/// Ceiling on the per-panic restart back-off.
const BACKOFF_CAP: Duration = Duration::from_millis(64);

/// Sustained-throughput measurement result.
#[derive(Debug, Clone)]
pub struct ThroughputReport {
    /// Packets completed (lost to worker panics excluded).
    pub packets: usize,
    /// Packets that decoded correctly end-to-end.
    pub ok_packets: usize,
    /// Wire bytes processed.
    pub wire_bytes: usize,
    /// Wall-clock seconds.
    pub elapsed_s: f64,
    /// Goodput in Mbps over wire bytes.
    pub mbps: f64,
    /// Panic-restarts absorbed, on either thread.
    pub worker_restarts: usize,
}

/// Per-worker fault plan: worker `w` draws from a [`FaultInjector`]
/// seeded `seed + w`, so the fleet-wide fault sequence is deterministic
/// but workers do not march in step.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Base injector seed.
    pub seed: u64,
    /// Fault mix every worker draws from.
    pub mix: FaultMix,
}

/// A finished packet and the traffic class it was taken under.
type Completed = (usize, Result<PacketResult, PipelineError>);

/// What the dealing thread puts in a worker's ring.
enum Dealt<I> {
    /// The front half's output for a packet of this traffic class.
    Item(usize, I),
    /// The worker's next packet was lost to a panic in its front half.
    Lost,
}

/// What a worker puts in its return ring.
enum Returned<S> {
    /// It has finished with one more dealt item.
    Done,
    /// Buffers the front half allocated, for it to reuse.
    Spent(S),
}

/// The dealing thread's half of one worker.
trait Front {
    /// What the worker's ring carries.
    type Item: Send;
    /// What comes back to be reused.
    type Spent: Send;
    /// Make packet `p` of traffic class `class`, in hand since `ready`,
    /// ready for the worker. May panic, provided the panic leaves
    /// everything but the pipeline consistent: the packet is then lost
    /// and [`Front::restart`] follows.
    fn deal(&mut self, class: usize, p: Packet, ready: Instant) -> Self::Item;
    /// Whether a packet's front half reads state that every earlier
    /// packet's back half may still change, so it must wait until the
    /// worker is done with all of them.
    fn lockstep(&self) -> bool {
        false
    }
    /// Take back buffers the worker is done with.
    fn reuse(&mut self, spent: Self::Spent);
    /// Carry on with a fresh pipeline after a panic; `generation`
    /// counts this half's restarts.
    fn restart(&mut self, _generation: u64, _pipe: UplinkPipeline) {}
}

/// What one [`fan_out`] worker does with the items it pops.
trait Worker {
    /// What the worker's ring carries.
    type Item;
    /// What goes back to the front half.
    type Spent;
    /// Take item `item` of traffic class `class`. May panic, provided
    /// the panic leaves everything but the pipeline consistent: the
    /// packet is then lost and [`Worker::restart`] follows.
    fn take(&mut self, class: usize, item: Self::Item);
    /// Next finished packet, if any.
    fn completed(&mut self) -> Option<Completed>;
    /// Next buffers to hand back, if any.
    fn spent(&mut self) -> Option<Self::Spent>;
    /// The packet the worker would have taken next was lost in its
    /// front half.
    fn lost(&mut self) {}
    /// Carry on with a fresh pipeline after a panic; `generation`
    /// counts this worker's restarts.
    fn restart(&mut self, generation: u64, pipe: UplinkPipeline);
    /// The stream is over: finish whatever is still in flight.
    fn drain(&mut self) {}
}

/// The serial model's front half: the packet itself.
struct Pass;

impl Front for Pass {
    type Item = Packet;
    type Spent = Infallible;
    fn deal(&mut self, _class: usize, p: Packet, _ready: Instant) -> Packet {
        p
    }
    fn reuse(&mut self, spent: Infallible) {
        match spent {}
    }
}

/// One packet fully processed at a time, no cross-packet batching.
struct Serial {
    pipe: UplinkPipeline,
    done: Option<Completed>,
}

impl Worker for Serial {
    type Item = Packet;
    type Spent = Infallible;
    fn take(&mut self, class: usize, p: Packet) {
        self.done = Some((class, self.pipe.process(&p)));
    }
    fn completed(&mut self) -> Option<Completed> {
        self.done.take()
    }
    fn spent(&mut self) -> Option<Infallible> {
        None
    }
    fn restart(&mut self, _generation: u64, pipe: UplinkPipeline) {
        self.pipe = pipe;
    }
}

/// The stage graph's front half: [`UplinkPipeline::prepare`] on the
/// preparing half of the worker's split pipeline.
struct Prepare {
    pipe: UplinkPipeline,
    worker: usize,
    recorder: Option<Arc<FlightRecorder>>,
}

impl Front for Prepare {
    type Item = Admission;
    type Spent = PreparedUplink;
    /// A packet waiting for [`Front::lockstep`] is in hand, not idle
    /// time for the graph's flush policy.
    fn deal(&mut self, class: usize, p: Packet, ready: Instant) -> Admission {
        self.pipe.set_trace_ue(class as u64);
        match self.pipe.prepare(&p) {
            Admission::Staged(mut prep) => {
                prep.ready = ready;
                Admission::Staged(prep)
            }
            ready => ready,
        }
    }
    /// With breakers armed, `prepare`'s gate reads breakers that every
    /// earlier packet's settlement may move, and a fast-fail draws no
    /// fault: the verdict must be final before the packet opens.
    fn lockstep(&self) -> bool {
        self.pipe.config().breakers.is_some()
    }
    fn reuse(&mut self, spent: PreparedUplink) {
        self.pipe.recycle(spent);
    }
    /// Quarantines the preparing half only: the graph on the worker
    /// never saw the lost packet, and the fresh half shares the old
    /// one's ladder and breakers with it.
    fn restart(&mut self, generation: u64, mut pipe: UplinkPipeline) {
        pipe.replace_half(&self.pipe);
        if let Some(rec) = &self.recorder {
            rec.record(TraceEvent::restart(self.worker, generation));
            pipe.set_recorder(rec.clone());
        }
        self.pipe = pipe;
    }
}

/// Admission into a [`StageGraph`]; the class index doubles as the UE
/// id, so each class's packets are delivered in admission order.
struct Graph {
    graph: StageGraph,
    worker: usize,
    recorder: Option<Arc<FlightRecorder>>,
}

impl Worker for Graph {
    type Item = Admission;
    type Spent = PreparedUplink;
    fn take(&mut self, class: usize, admission: Admission) {
        self.graph.admit_prepared(class as u64, admission);
    }
    fn completed(&mut self) -> Option<Completed> {
        self.graph.pop_completed().map(|(ue, r)| (ue as usize, r))
    }
    fn spent(&mut self) -> Option<PreparedUplink> {
        self.graph.pop_spent()
    }
    /// A front-half panic's back-off is not idle time.
    fn lost(&mut self) {
        self.graph.forget_gap();
    }
    /// Quarantines the decoding half only; the graph's ROB, pools and
    /// sequences carry on.
    fn restart(&mut self, generation: u64, mut pipe: UplinkPipeline) {
        if let Some(rec) = &self.recorder {
            rec.record(TraceEvent::restart(self.worker, generation));
        }
        pipe.replace_half(self.graph.pipeline());
        self.graph.replace_pipeline(pipe);
    }
    fn drain(&mut self) {
        self.graph.drain();
    }
}

/// How every worker builds, and after a panic rebuilds, its pipeline.
struct PipeSpec {
    cfg: PipelineConfig,
    faults: Option<FaultPlan>,
    metrics: Option<Arc<PipelineMetrics>>,
}

impl PipeSpec {
    fn build(&self, worker: usize, generation: u64) -> UplinkPipeline {
        let mut pipe = match &self.metrics {
            Some(m) => UplinkPipeline::with_metrics(self.cfg, m.clone()),
            None => UplinkPipeline::new(self.cfg),
        };
        if let Some(plan) = self.faults {
            // Re-seed per generation so a rebuilt worker does not
            // replay the fault that killed it in lock-step.
            pipe.set_fault_injector(FaultInjector::with_mix(
                plan.seed
                    .wrapping_add(worker as u64)
                    .wrapping_add(generation.wrapping_mul(0x9e37_79b9)),
                plan.mix,
            ));
        }
        pipe
    }
}

/// What the threads of one [`fan_out`] add up to; statistics only,
/// read after the scope has joined every thread.
#[derive(Default)]
struct Totals {
    packets: AtomicUsize,
    ok_packets: AtomicUsize,
    wire_bytes: AtomicUsize,
    restarts: AtomicUsize,
}

/// The shared context of one [`fan_out`]'s threads.
struct Run<'a> {
    spec: &'a PipeSpec,
    classes: &'a [(Transport, usize)],
    metrics: &'a RunnerMetrics,
    totals: &'a Totals,
}

/// A pipeline half's panic isolation: quarantine, a fresh pipeline,
/// an exponential back-off.
struct Isolation {
    worker: usize,
    generation: u64,
    consecutive_panics: u32,
}

impl Isolation {
    fn new(worker: usize) -> Self {
        Self {
            worker,
            generation: 0,
            consecutive_panics: 0,
        }
    }

    /// Run one packet's half, `work` on `half`, under `catch_unwind`.
    /// After a panic, count the restart, hand `restart` the half, the
    /// generation and a fresh pipeline, and back off; the packet is
    /// then lost (`None`).
    fn guard<H, R>(
        &mut self,
        run: &Run<'_>,
        half: &mut H,
        work: impl FnOnce(&mut H) -> R,
        restart: impl FnOnce(&mut H, u64, UplinkPipeline),
    ) -> Option<R> {
        if let Ok(out) = catch_unwind(AssertUnwindSafe(|| work(half))) {
            self.consecutive_panics = 0;
            return Some(out);
        }
        // Quarantine: the unwound pipeline's interior state is suspect
        // — drop it wholesale and restart fresh.
        run.metrics.record_quarantine();
        run.metrics.record_worker_restart();
        run.totals.restarts.fetch_add(1, Relaxed);
        self.generation += 1;
        restart(
            half,
            self.generation,
            run.spec.build(self.worker, self.generation),
        );
        let backoff = BACKOFF_BASE
            .saturating_mul(1 << self.consecutive_panics.min(6))
            .min(BACKOFF_CAP);
        self.consecutive_panics += 1;
        std::thread::sleep(backoff);
        None
    }
}

/// The one threaded scaffold. `body(w, pipeline)` builds worker `w`'s
/// two halves. The dealing thread builds `n_packets`; packet `i` —
/// `(transport, wire_len)` from `classes[i % classes.len()]` — goes
/// through the front half of worker `i % workers`, whose output it
/// deals into that worker's ring, waiting (and counting one push
/// stall) whenever the ring is full. Before each packet it takes back
/// what the worker returned, and when the front half is
/// [`Front::lockstep`] it first waits until the worker is done with
/// every earlier packet. The worker pops until its ring is closed and
/// empty, takes each item, collects what finished, returns buffers and
/// an acknowledgement, and drains at the end.
///
/// A panic out of [`Front::deal`] or [`Worker::take`] costs that packet
/// (a lost front half still tells the worker, so its ring order holds),
/// a quarantine, a rebuilt pipeline half and an exponential back-off.
/// Any other panic ends the run: the dying thread's ring endpoints
/// close on drop, which stops its peers, and the first panic is
/// re-raised to the caller. The only waits are the dealing thread's
/// [`Producer::push_wait`] and lockstep [`Consumer::pop_wait`], and the
/// worker's [`Consumer::pop_wait`].
///
/// # Panics
///
/// If `workers` is 0, `classes` is empty, or a class's `wire_len`
/// cannot hold its headers.
fn fan_out<F, W>(
    spec: PipeSpec,
    classes: &[(Transport, usize)],
    n_packets: usize,
    workers: usize,
    metrics: &RunnerMetrics,
    body: impl Fn(usize, UplinkPipeline) -> (F, W),
) -> ThroughputReport
where
    F: Front + Send,
    W: Worker<Item = F::Item, Spent = F::Spent> + Send,
{
    assert!(workers >= 1);
    assert!(!classes.is_empty());
    for (i, &(transport, wire_len)) in classes.iter().enumerate() {
        assert!(
            PacketBuilder::new(9000, 9001)
                .build(transport, wire_len)
                .is_some(),
            "classes[{i}] = ({transport:?}, {wire_len} B) is shorter than its headers"
        );
    }
    let totals = Totals::default();
    let run = Run {
        spec: &spec,
        classes,
        metrics,
        totals: &totals,
    };
    let run = &run;

    let start = Instant::now();
    let (fronts, backs): (Vec<F>, Vec<W>) = (0..workers).map(|w| body(w, spec.build(w, 0))).unzip();
    std::thread::scope(|s| {
        let mut deal_to = Vec::with_capacity(workers);
        let mut threads = Vec::with_capacity(workers + 1);
        for (w, back) in backs.into_iter().enumerate() {
            let (tx, rx) = SpscRing::with_capacity(RING_CAPACITY);
            let (ret_tx, ret_rx) = SpscRing::with_capacity(RETURN_CAPACITY);
            deal_to.push((tx, ret_rx));
            threads.push(s.spawn(move || work(run, w, back, rx, ret_tx)));
        }
        threads.push(s.spawn(move || deal(run, n_packets, fronts, deal_to)));
        // Joined by hand so the caller sees the first panic itself, not
        // `scope`'s generic one.
        for t in threads {
            if let Err(panic) = t.join() {
                resume_unwind(panic);
            }
        }
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let wire_bytes = totals.wire_bytes.load(Relaxed);
    ThroughputReport {
        packets: totals.packets.load(Relaxed),
        ok_packets: totals.ok_packets.load(Relaxed),
        wire_bytes,
        elapsed_s,
        mbps: wire_bytes as f64 * 8.0 / elapsed_s / 1e6,
        worker_restarts: totals.restarts.load(Relaxed),
    }
}

/// A worker's two rings, seen from the dealing thread.
type DealTo<F> = (
    Producer<Dealt<<F as Front>::Item>>,
    Consumer<Returned<<F as Front>::Spent>>,
);

/// The dealing thread of [`fan_out`].
fn deal<F: Front>(run: &Run<'_>, n_packets: usize, mut fronts: Vec<F>, mut rings: Vec<DealTo<F>>) {
    let workers = fronts.len();
    let mut isolation: Vec<Isolation> = (0..workers).map(Isolation::new).collect();
    // Per worker: items dealt, and acknowledged.
    let mut counts = vec![(0usize, 0usize); workers];
    let mut b = PacketBuilder::new(9000, 9001);
    for i in 0..n_packets {
        let (w, class) = (i % workers, i % run.classes.len());
        let (transport, wire_len) = run.classes[class];
        let packet = b.build(transport, wire_len).expect("classes checked");
        let ready = Instant::now();
        let (front, (tx, returns)) = (&mut fronts[w], &mut rings[w]);
        let (dealt, acked) = &mut counts[w];
        let lockstep = front.lockstep();
        loop {
            let back = match lockstep && *acked < *dealt {
                true => returns.pop_wait(),
                false => returns.pop(),
            };
            match back {
                Some(Returned::Done) => *acked += 1,
                Some(Returned::Spent(spent)) => front.reuse(spent),
                // A gone worker shows at the push below.
                None => break,
            }
        }
        let item = isolation[w]
            .guard(run, front, |f| f.deal(class, packet, ready), F::restart)
            .map_or(Dealt::Lost, |item| Dealt::Item(class, item));
        let sent = tx.push(item).or_else(|item| {
            run.metrics.record_push_stall();
            tx.push_wait(item)
        });
        if sent.is_err() {
            // That worker died; dropping the rings stops the rest.
            return;
        }
        *dealt += 1;
    }
}

/// Worker `w`'s thread in [`fan_out`].
fn work<W: Worker>(
    run: &Run<'_>,
    w: usize,
    mut body: W,
    mut rx: Consumer<Dealt<W::Item>>,
    mut returns: Producer<Returned<W::Spent>>,
) {
    let collect = |body: &mut W, returns: &mut Producer<Returned<W::Spent>>| {
        while let Some((class, r)) = body.completed() {
            let wire_len = run.classes[class].1;
            run.metrics.record_packet(wire_len);
            run.totals.packets.fetch_add(1, Relaxed);
            run.totals
                .ok_packets
                .fetch_add(usize::from(r.is_ok()), Relaxed);
            run.totals.wire_bytes.fetch_add(wire_len, Relaxed);
        }
        while let Some(spent) = body.spent() {
            // Sized never to fill (RETURN_CAPACITY); were it full, the
            // buffers would be freed here rather than wait.
            let _ = returns.push(Returned::Spent(spent));
        }
    };
    let mut isolation = Isolation::new(w);
    while let Some(dealt) = rx.pop().or_else(|| {
        run.metrics.record_pop_stall();
        rx.pop_wait()
    }) {
        run.metrics.record_occupancy(rx.len());
        match dealt {
            Dealt::Item(class, item) => {
                isolation.guard(run, &mut body, |b| b.take(class, item), W::restart);
            }
            Dealt::Lost => body.lost(),
        }
        collect(&mut body, &mut returns);
        let _ = returns.push(Returned::Done);
    }
    body.drain();
    collect(&mut body, &mut returns);
}

/// The serial driver: `workers` PHY threads (the paper's Figure 16
/// "cores required" setting, each core owning its share of the load),
/// each processing one packet fully at a time
/// ([`UplinkPipeline::process`]) with no cross-packet batch formation —
/// the model the stage-graph runtime replaced and is measured against.
/// Packet `i` draws `(transport, wire_len)` from
/// `classes[i % classes.len()]`, the same schedule as
/// [`run_uplink_stagegraph_metered`]. Ring occupancy is sampled at
/// every pop, producer and consumer waits are counted, and each
/// completed packet lands in `metrics` and (when given) the per-stage
/// `pipe_metrics`. Workers are panic-isolated: a panic mid-packet
/// (real, or injected through `faults` as
/// [`crate::faultinject::FaultKind::WorkerPanic`]) costs that packet,
/// so `packets + worker_restarts == n_packets`.
pub fn run_multicore_metered(
    cfg: PipelineConfig,
    classes: &[(Transport, usize)],
    n_packets: usize,
    workers: usize,
    metrics: &RunnerMetrics,
    faults: Option<FaultPlan>,
    pipe_metrics: Option<Arc<PipelineMetrics>>,
) -> ThroughputReport {
    let spec = PipeSpec {
        cfg,
        faults,
        metrics: pipe_metrics,
    };
    fan_out(spec, classes, n_packets, workers, metrics, |_, pipe| {
        (Pass, Serial { pipe, done: None })
    })
}

/// [`run_multicore_metered`] with no registry and no fault plan: the
/// measured baseline the stage-graph runtime is gated against
/// (`uplink_stagegraph` benchgate suite, `sg_saturate`'s
/// `net.stagegraph.vs_serial.ratio`).
pub fn run_uplink_serial_mixed(
    cfg: PipelineConfig,
    classes: &[(Transport, usize)],
    n_packets: usize,
    workers: usize,
) -> ThroughputReport {
    let quiet = RunnerMetrics::new(false, RING_CAPACITY);
    run_multicore_metered(cfg, classes, n_packets, workers, &quiet, None, None)
}

/// The stage-graph uplink driver: each worker owns a [`StageGraph`]
/// that decomposes its packets into stage tasks, pools decode tasks by
/// K **across packets**, launches quad/pair batches as lanes fill (or
/// deadlines near), and retires completions out of order through the
/// ROB with per-UE in-order delivery. Packet `i` carries traffic class
/// `classes[i % classes.len()]`; the class index doubles as the UE id,
/// so each class's packets are delivered in admission order.
///
/// Workers are panic-isolated like [`run_multicore_metered`]'s, but a
/// panic during admission quarantines only the worker's *pipeline* —
/// the graph's ROB, pools and sequence state survive, so packets staged
/// before the panic still retire and the
/// `packets + worker_restarts == n` invariant holds.
#[allow(clippy::too_many_arguments)]
pub fn run_uplink_stagegraph_metered(
    cfg: PipelineConfig,
    classes: &[(Transport, usize)],
    n_packets: usize,
    workers: usize,
    sg_cfg: StageGraphConfig,
    metrics: &RunnerMetrics,
    sg_metrics: Option<Arc<StageGraphMetrics>>,
    faults: Option<FaultPlan>,
    recorder: Option<Arc<FlightRecorder>>,
    pipe_metrics: Option<Arc<PipelineMetrics>>,
) -> ThroughputReport {
    let spec = PipeSpec {
        cfg,
        faults,
        metrics: pipe_metrics,
    };
    fan_out(
        spec,
        classes,
        n_packets,
        workers,
        metrics,
        |worker, mut pipe| {
            if let Some(rec) = &recorder {
                pipe.set_recorder(rec.clone());
            }
            let (front, back) = pipe.split();
            let mut graph = StageGraph::new(back, sg_cfg);
            if let Some(m) = &sg_metrics {
                graph.set_metrics(m.clone());
            }
            if let Some(rec) = &recorder {
                graph.set_recorder(rec.clone());
            }
            let front = Prepare {
                pipe: front,
                worker,
                recorder: recorder.clone(),
            };
            let graph = Graph {
                graph,
                worker,
                recorder: recorder.clone(),
            };
            (front, graph)
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faultinject::FaultKind;

    /// A disabled runner registry, for the runs that read only the
    /// report.
    fn quiet() -> RunnerMetrics {
        RunnerMetrics::new(false, RING_CAPACITY)
    }

    fn clean() -> PipelineConfig {
        PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        }
    }

    /// The stage-graph driver on a clean channel with its default
    /// configuration and neither recorder nor pipeline registry.
    fn graph_run(
        classes: &[(Transport, usize)],
        n: usize,
        workers: usize,
        rm: &RunnerMetrics,
        sg: Option<Arc<StageGraphMetrics>>,
        plan: Option<FaultPlan>,
    ) -> ThroughputReport {
        let sg_cfg = StageGraphConfig::default();
        run_uplink_stagegraph_metered(
            clean(),
            classes,
            n,
            workers,
            sg_cfg,
            rm,
            sg,
            plan,
            None,
            None,
        )
    }

    #[test]
    fn threaded_pipeline_processes_all_packets() {
        let rep = run_uplink_serial_mixed(clean(), &[(Transport::Udp, 128)], 8, 1);
        assert_eq!(rep.packets, 8);
        assert_eq!(rep.ok_packets, 8, "clean channel must decode everything");
        assert!(rep.mbps > 0.0);
        assert_eq!(rep.wire_bytes, 8 * 128);
        assert_eq!(rep.worker_restarts, 0);
    }

    #[test]
    fn tcp_flow_also_flows() {
        let rep = run_uplink_serial_mixed(clean(), &[(Transport::Tcp, 256)], 4, 1);
        assert_eq!(rep.ok_packets, 4);
    }

    #[test]
    fn metered_run_populates_both_registries() {
        let rm = RunnerMetrics::new(true, RING_CAPACITY);
        let pm = Arc::new(PipelineMetrics::new());
        let udp128 = [(Transport::Udp, 128)];
        let rep = run_multicore_metered(clean(), &udp128, 6, 1, &rm, None, Some(pm.clone()));
        assert_eq!(rep.ok_packets, 6);
        assert_eq!(rm.packets.get(), 6);
        assert_eq!(rm.wire_bytes.get(), 6 * 128);
        assert_eq!(rm.ring_occupancy.count(), 6, "one occupancy sample per pop");
        assert_eq!(pm.packets.get(), 6);
        assert!(pm.op(crate::metrics::Op::Decode).count() > 0);
    }

    #[test]
    fn a_full_ring_counts_push_stalls_on_both_drivers() {
        // The source builds a packet in about a microsecond and the one
        // worker needs tens to decode it, so with two rings' worth of
        // packets the source must find the ring full. A stall is one
        // wait, and each wait lasts until the ring is half empty, so it
        // admits at least half a ring of packets. The stage graph's
        // source also runs each packet's front end, so there a decode at
        // four times the default iteration cap keeps the worker the
        // slower side.
        let classes = [(Transport::Udp, 64)];
        let n = 2 * RING_CAPACITY;
        let bound = n.div_ceil(RING_CAPACITY / 2) as u64 + 1;
        let serial = RunnerMetrics::new(true, RING_CAPACITY);
        let rep = run_multicore_metered(clean(), &classes, n, 1, &serial, None, None);
        assert_eq!(rep.packets, n);
        let stalls = serial.push_stalls.get();
        assert!(
            (1..=bound).contains(&stalls),
            "serial driver: {stalls} push stalls, bound {bound}"
        );
        let graph = RunnerMetrics::new(true, RING_CAPACITY);
        let slow_decode = PipelineConfig {
            decoder_iterations: 4 * clean().decoder_iterations,
            ..clean()
        };
        let sg_cfg = StageGraphConfig::default();
        let rep = run_uplink_stagegraph_metered(
            slow_decode,
            &classes,
            n,
            1,
            sg_cfg,
            &graph,
            None,
            None,
            None,
            None,
        );
        assert_eq!(rep.packets, n);
        let stalls = graph.push_stalls.get();
        assert!(
            (1..=bound).contains(&stalls),
            "stage-graph driver: {stalls} push stalls, bound {bound}"
        );
    }

    /// Run `driver` on a helper thread and return its panic message;
    /// fail if it returns, or has done neither within 10 s (a hung
    /// helper is left behind rather than joined).
    fn panics_within_10s(driver: impl FnOnce() + Send + 'static) -> String {
        let (tx, rx) = std::sync::mpsc::channel();
        std::thread::spawn(move || {
            let outcome = catch_unwind(AssertUnwindSafe(driver));
            let _ = tx.send(outcome.err().map(|p| {
                p.downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default()
            }));
        });
        match rx.recv_timeout(Duration::from_secs(10)) {
            Ok(Some(message)) => message,
            Ok(None) => panic!("the driver returned instead of panicking"),
            Err(_) => panic!("the driver has neither returned nor panicked after 10 s"),
        }
    }

    #[test]
    fn a_class_shorter_than_its_headers_panics_instead_of_hanging() {
        // 40 B cannot hold Ethernet + IPv4 + TCP headers (54 B).
        let message = panics_within_10s(|| {
            let classes = [(Transport::Udp, 128), (Transport::Tcp, 40)];
            run_uplink_serial_mixed(PipelineConfig::default(), &classes, 4, 1);
        });
        assert!(message.contains("classes[1]"), "{message}");
    }

    /// Panics the first time the scaffold collects from it, outside the
    /// `catch_unwind` around `take`.
    struct DiesOutsideTake;

    impl Worker for DiesOutsideTake {
        type Item = Packet;
        type Spent = Infallible;
        fn take(&mut self, _class: usize, _p: Packet) {}
        fn completed(&mut self) -> Option<Completed> {
            panic!("worker died outside take")
        }
        fn spent(&mut self) -> Option<Infallible> {
            None
        }
        fn restart(&mut self, _generation: u64, _pipe: UplinkPipeline) {}
    }

    #[test]
    fn a_worker_dying_outside_take_panics_instead_of_hanging() {
        // Four rings' worth: the dealing thread is still dealing, or
        // waiting on a full ring, when the worker dies.
        let message = panics_within_10s(|| {
            let classes = [(Transport::Udp, 64)];
            fan_out(
                quiet_spec(),
                &classes,
                4 * RING_CAPACITY,
                1,
                &quiet(),
                |_, _| (Pass, DiesOutsideTake),
            );
        });
        assert!(message.contains("worker died outside take"), "{message}");
    }

    fn quiet_spec() -> PipeSpec {
        PipeSpec {
            cfg: clean(),
            faults: None,
            metrics: None,
        }
    }

    /// A front half that passes packets on, in lockstep with its
    /// worker, and panics outside [`Front::deal`] once it has dealt
    /// `dies_after` of them.
    struct Lockstep {
        dealt: usize,
        dies_after: usize,
    }

    impl Front for Lockstep {
        type Item = Packet;
        type Spent = Infallible;
        fn deal(&mut self, _class: usize, p: Packet, _ready: Instant) -> Packet {
            self.dealt += 1;
            p
        }
        fn lockstep(&self) -> bool {
            assert!(
                self.dealt < self.dies_after,
                "dealing thread died outside deal"
            );
            true
        }
        fn reuse(&mut self, spent: Infallible) {
            match spent {}
        }
    }

    #[test]
    fn a_dealing_thread_dying_outside_deal_panics_instead_of_hanging() {
        // The worker waits on its empty ring when the dealing thread
        // dies; the closed ring lets it finish, and the panic surfaces.
        let message = panics_within_10s(|| {
            let classes = [(Transport::Udp, 64)];
            fan_out(quiet_spec(), &classes, 64, 1, &quiet(), |_, pipe| {
                let front = Lockstep {
                    dealt: 0,
                    dies_after: 8,
                };
                (front, Serial { pipe, done: None })
            });
        });
        assert!(
            message.contains("dealing thread died outside deal"),
            "{message}"
        );
    }

    #[test]
    fn a_worker_dying_while_the_dealer_waits_in_lockstep_panics_instead_of_hanging() {
        // The dealing thread waits on the return ring for the worker to
        // finish its first packet; the worker dies instead.
        let message = panics_within_10s(|| {
            let classes = [(Transport::Udp, 64)];
            fan_out(quiet_spec(), &classes, 64, 1, &quiet(), |_, _| {
                let front = Lockstep {
                    dealt: 0,
                    dies_after: usize::MAX,
                };
                (front, DiesOutsideTake)
            });
        });
        assert!(message.contains("worker died outside take"), "{message}");
    }

    #[test]
    fn a_panic_on_the_dealing_thread_costs_its_packet_alone() {
        // One worker: every injected panic now fires in `prepare`, on
        // the dealing thread, which quarantines its pipeline half and
        // tells the worker the packet is gone.
        let plan = FaultPlan {
            seed: 99,
            mix: FaultMix::only(FaultKind::Clean)
                .with_weight(FaultKind::WorkerPanic, 1)
                .with_weight(FaultKind::Clean, 7),
        };
        let rm = RunnerMetrics::new(true, RING_CAPACITY);
        let n = 48;
        let rep = graph_run(&[(Transport::Udp, 128)], n, 1, &rm, None, Some(plan));
        assert!(rep.worker_restarts > 0, "the plan must have fired: {rep:?}");
        assert_eq!(rep.packets + rep.worker_restarts, n);
        assert_eq!(rep.ok_packets, rep.packets, "survivors are clean traffic");
        assert_eq!(rm.quarantined.get(), rep.worker_restarts as u64);
        assert_eq!(rm.packets.get(), rep.packets as u64);
    }

    #[test]
    fn multicore_distributes_and_loses_nothing() {
        for workers in [1usize, 2, 3] {
            let udp128 = [(Transport::Udp, 128)];
            let rep = run_multicore_metered(clean(), &udp128, 9, workers, &quiet(), None, None);
            assert_eq!(rep.packets, 9, "workers={workers}");
            assert_eq!(rep.ok_packets, 9, "workers={workers}");
            assert_eq!(rep.worker_restarts, 0, "workers={workers}");
        }
    }

    #[test]
    fn multicore_scales_throughput() {
        // Scaling can only manifest with real hardware parallelism;
        // correctness is asserted unconditionally, speedup only when
        // the host has cores to scale onto.
        let cores = std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(1);
        let cfg = PipelineConfig {
            snr_db: 30.0,
            decoder_iterations: 4,
            ..Default::default()
        };
        let udp512 = [(Transport::Udp, 512)];
        let one = run_multicore_metered(cfg, &udp512, 12, 1, &quiet(), None, None);
        let two = run_multicore_metered(cfg, &udp512, 12, 2, &quiet(), None, None);
        assert_eq!(one.ok_packets, 12);
        assert_eq!(two.ok_packets, 12);
        if cores >= 3 {
            assert!(
                two.mbps > one.mbps * 1.2,
                "2 workers should scale on a {cores}-core host: {:.1} vs {:.1} Mbps",
                one.mbps,
                two.mbps
            );
        }
    }

    #[test]
    fn uplink_multicore_distributes_and_loses_nothing() {
        for workers in [1usize, 2, 3] {
            let rep = graph_run(&[(Transport::Udp, 200)], 9, workers, &quiet(), None, None);
            assert_eq!(rep.packets, 9, "workers={workers}");
            assert_eq!(rep.ok_packets, 9, "workers={workers}");
            assert!(rep.mbps > 0.0, "workers={workers}");
        }
    }

    #[test]
    fn uplink_serial_baseline_still_flows() {
        let rep = run_uplink_serial_mixed(clean(), &[(Transport::Udp, 200)], 9, 2);
        assert_eq!(rep.packets, 9);
        assert_eq!(rep.ok_packets, 9);
        assert_eq!(rep.wire_bytes, 9 * 200);
    }

    #[test]
    fn stagegraph_mixed_classes_lose_nothing_and_fill_lanes() {
        // paper_sweep-style mixed-K workload: 2 transports × sizes.
        let classes: Vec<(Transport, usize)> = [64usize, 300, 900, 1400]
            .into_iter()
            .flat_map(|s| [(Transport::Udp, s), (Transport::Tcp, s)])
            .collect();
        let sg = Arc::new(crate::metrics::StageGraphMetrics::default());
        let rm = RunnerMetrics::new(true, RING_CAPACITY);
        let n = classes.len() * 8;
        let rep = graph_run(&classes, n, 2, &rm, Some(sg.clone()), None);
        assert_eq!(rep.packets, n);
        assert_eq!(rep.ok_packets, n, "clean channel must decode everything");
        let expect_bytes: usize = classes.iter().map(|(_, l)| l * 8).sum();
        assert_eq!(rep.wire_bytes, expect_bytes);
        assert_eq!(rm.packets.get(), n as u64);
        // Same-K tasks recur every `classes.len()/2` admissions per
        // worker — far under the age bound, so quads dominate.
        assert!(
            sg.lane_occupancy() > 0.5,
            "round-robin mixed-K should mostly fill lanes: {:.2} (quad {} pair {} single {})",
            sg.lane_occupancy(),
            sg.quad_blocks.get(),
            sg.pair_blocks.get(),
            sg.single_blocks.get(),
        );
    }

    #[test]
    fn stagegraph_survives_injected_worker_panics() {
        // Same invariant as the serial multicore driver: a panicking
        // admission costs exactly one packet, and everything staged
        // before the panic still retires through the ROB.
        let plan = FaultPlan {
            seed: 99,
            mix: FaultMix::only(FaultKind::Clean)
                .with_weight(FaultKind::WorkerPanic, 1)
                .with_weight(FaultKind::Clean, 7),
        };
        let rm = RunnerMetrics::new(true, RING_CAPACITY);
        let n = 48;
        let classes = [(Transport::Udp, 128), (Transport::Udp, 600)];
        let rep = graph_run(&classes, n, 2, &rm, None, Some(plan));
        assert!(rep.worker_restarts > 0, "the plan must have fired: {rep:?}");
        assert_eq!(
            rep.packets + rep.worker_restarts,
            n,
            "every packet either completes or is accounted to a panic"
        );
        assert_eq!(rep.ok_packets, rep.packets, "survivors are clean traffic");
        assert_eq!(rm.worker_restarts.get(), rep.worker_restarts as u64);
        assert_eq!(rm.quarantined.get(), rep.worker_restarts as u64);
    }

    #[test]
    fn multicore_survives_injected_worker_panics() {
        // 1-in-8 packets panic mid-decode; every worker must absorb
        // its panics, restart, and still drain its quota.
        let cfg = clean();
        let plan = FaultPlan {
            seed: 99,
            mix: FaultMix::only(FaultKind::Clean)
                .with_weight(FaultKind::WorkerPanic, 1)
                .with_weight(FaultKind::Clean, 7),
        };
        let rm = RunnerMetrics::new(true, RING_CAPACITY);
        let n = 48;
        let rep = run_multicore_metered(cfg, &[(Transport::Udp, 128)], n, 2, &rm, Some(plan), None);
        assert!(rep.worker_restarts > 0, "the plan must have fired: {rep:?}");
        assert_eq!(
            rep.packets + rep.worker_restarts,
            n,
            "every packet either completes or is accounted to a panic"
        );
        assert_eq!(rep.ok_packets, rep.packets, "survivors are clean traffic");
        assert!(rep.mbps > 0.0, "throughput must survive the panics");
        assert_eq!(rm.worker_restarts.get(), rep.worker_restarts as u64);
        assert_eq!(rm.quarantined.get(), rep.worker_restarts as u64);
    }
}
