//! Threaded pipeline drivers: packet source → SPSC rings → PHY workers,
//! mirroring the containerized eNB layout of the paper's Figure 1 (each
//! stage its own execution context, queues in userspace).
//!
//! There is one scaffold, `fan_out`: one ring per worker, a source
//! thread that deals packet `i` to worker `i % workers` with traffic
//! class `i % classes.len()`, a fixed quota per worker, and a pop loop
//! that isolates panics — each packet is handled under `catch_unwind`,
//! and a panicking worker quarantines its (possibly inconsistent)
//! pipeline, rebuilds a fresh one, backs off exponentially, and keeps
//! draining its ring. One poisoned packet therefore costs one packet,
//! not a core. The drivers differ only in what a worker does with a
//! popped packet (the `Worker` trait):
//!
//! * [`run_multicore_metered`] — the serial model, one packet fully
//!   processed at a time ([`UplinkPipeline::process`]);
//!   [`run_uplink_serial_mixed`] is the same with nothing attached.
//! * [`run_uplink_stagegraph_metered`] — the out-of-order stage-graph
//!   runtime ([`crate::stagegraph`]): each worker pools decode tasks by
//!   K across the packets in its ring and launches them as quad / pair
//!   batches on the zmm kernel, keeping the SIMD lanes full under
//!   mixed-K traffic.
//!
//! Both see byte-identical traffic for the same arguments, which is
//! what lets the serial model serve as the measured baseline of the
//! stage graph (DESIGN.md §5.14 has the scaffold's contract).

use crate::error::PipelineError;
use crate::faultinject::{FaultInjector, FaultMix};
use crate::metrics::{PipelineMetrics, RunnerMetrics, StageGraphMetrics};
use crate::observe::{FlightRecorder, TraceEvent};
use crate::packet::{Packet, PacketBuilder, Transport};
use crate::pipeline::{PacketResult, PipelineConfig, UplinkPipeline};
use crate::ring::SpscRing;
use crate::stagegraph::{StageGraph, StageGraphConfig};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ring capacity used by the threaded drivers.
pub const RING_CAPACITY: usize = 256;

/// Base back-off a quarantined worker sleeps after a panic; doubles
/// per consecutive panic up to [`BACKOFF_CAP`].
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
    /// Worker panic-restarts absorbed.
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

/// What one [`fan_out`] worker does with the packets it pops.
trait Worker {
    /// Take packet `p` of traffic class `class`. May panic, provided
    /// the panic leaves everything but the pipeline consistent: the
    /// packet is then lost and [`Worker::restart`] follows.
    fn take(&mut self, class: usize, p: &Packet);
    /// Next finished packet, if any.
    fn completed(&mut self) -> Option<Completed>;
    /// Carry on with a fresh pipeline after a panic; `generation`
    /// counts this worker's restarts.
    fn restart(&mut self, generation: u64, pipe: UplinkPipeline);
    /// The quota is consumed: finish whatever is still in flight.
    fn drain(&mut self) {}
}

/// One packet fully processed at a time, no cross-packet batching.
struct Serial {
    pipe: UplinkPipeline,
    done: Option<Completed>,
}

impl Worker for Serial {
    fn take(&mut self, class: usize, p: &Packet) {
        self.done = Some((class, self.pipe.process(p)));
    }
    fn completed(&mut self) -> Option<Completed> {
        self.done.take()
    }
    fn restart(&mut self, _generation: u64, pipe: UplinkPipeline) {
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
    fn take(&mut self, class: usize, p: &Packet) {
        self.graph.admit(class as u64, p);
    }
    fn completed(&mut self) -> Option<Completed> {
        self.graph.pop_completed().map(|(ue, r)| (ue as usize, r))
    }
    /// Quarantines the pipeline only: the panic unwound out of
    /// `prepare` before anything was staged, so the graph's ROB, pools
    /// and sequences are intact and in-flight packets still retire.
    fn restart(&mut self, generation: u64, pipe: UplinkPipeline) {
        if let Some(rec) = &self.recorder {
            rec.record(TraceEvent::restart(self.worker, generation));
        }
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

/// What the workers of one [`fan_out`] add up to; statistics only,
/// read after the scope has joined every thread.
#[derive(Default)]
struct Totals {
    packets: AtomicUsize,
    ok_packets: AtomicUsize,
    wire_bytes: AtomicUsize,
    restarts: AtomicUsize,
}

/// The one threaded scaffold. A source thread builds `n_packets` and
/// deals packet `i` — `(transport, wire_len)` from
/// `classes[i % classes.len()]` — into the ring of worker
/// `i % workers`, waiting (and counting one push stall) whenever that
/// ring is full. Worker `w` owns a `body(w, pipeline)` and pops exactly
/// its quota, `⌈(n_packets − w) / workers⌉`; its `j`-th packet is global
/// packet `w + j·workers`, which is how it knows the class without the
/// ring carrying it. A panic out of [`Worker::take`] costs that packet
/// (it still counts against the quota, so the driver always
/// terminates), a quarantine, a rebuilt pipeline and an exponential
/// back-off. Any other panic ends the run: the dying thread's ring
/// endpoints close on drop, which stops its peers, and the first panic
/// is re-raised to the caller. The only two waits are the source's
/// [`Producer::push_wait`](crate::ring::Producer::push_wait) and the
/// worker's [`Consumer::pop_wait`](crate::ring::Consumer::pop_wait).
///
/// # Panics
///
/// If `workers` is 0, `classes` is empty, or a class's `wire_len`
/// cannot hold its headers.
fn fan_out<W: Worker>(
    spec: PipeSpec,
    classes: &[(Transport, usize)],
    n_packets: usize,
    workers: usize,
    metrics: &RunnerMetrics,
    body: impl Fn(usize, UplinkPipeline) -> W + Sync,
) -> ThroughputReport {
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
    let (mut producers, consumers): (Vec<_>, Vec<_>) = (0..workers)
        .map(|_| SpscRing::with_capacity::<Packet>(RING_CAPACITY))
        .unzip();
    let (spec, body, totals) = (&spec, &body, &Totals::default());

    let start = Instant::now();
    std::thread::scope(|s| {
        let mut threads = vec![s.spawn(move || {
            let mut b = PacketBuilder::new(9000, 9001);
            for i in 0..n_packets {
                let (transport, wire_len) = classes[i % classes.len()];
                let item = b.build(transport, wire_len).expect("classes checked");
                let tx = &mut producers[i % workers];
                let sent = tx.push(item).or_else(|item| {
                    metrics.record_push_stall();
                    tx.push_wait(item)
                });
                if sent.is_err() {
                    // That worker died; dropping the rings stops the rest.
                    return;
                }
            }
        })];
        for (w, mut rx) in consumers.into_iter().enumerate() {
            threads.push(s.spawn(move || {
                let quota = n_packets / workers + usize::from(w < n_packets % workers);
                let mut body = body(w, spec.build(w, 0));
                let collect = |body: &mut W| {
                    while let Some((class, r)) = body.completed() {
                        let wire_len = classes[class].1;
                        metrics.record_packet(wire_len);
                        totals.packets.fetch_add(1, Relaxed);
                        totals.ok_packets.fetch_add(usize::from(r.is_ok()), Relaxed);
                        totals.wire_bytes.fetch_add(wire_len, Relaxed);
                    }
                };
                let mut generation = 0u64;
                let mut consecutive_panics = 0u32;
                let mut done = 0;
                while done < quota {
                    let Some(p) = rx.pop().or_else(|| {
                        metrics.record_pop_stall();
                        rx.pop_wait()
                    }) else {
                        // The source died before dealing the quota.
                        break;
                    };
                    metrics.record_occupancy(rx.len());
                    let class = (w + done * workers) % classes.len();
                    match catch_unwind(AssertUnwindSafe(|| body.take(class, &p))) {
                        Ok(()) => consecutive_panics = 0,
                        Err(_) => {
                            // Quarantine: the unwound pipeline's
                            // interior state is suspect — drop it
                            // wholesale and restart fresh.
                            metrics.record_quarantine();
                            metrics.record_worker_restart();
                            totals.restarts.fetch_add(1, Relaxed);
                            generation += 1;
                            body.restart(generation, spec.build(w, generation));
                            let backoff = BACKOFF_BASE
                                .saturating_mul(1 << consecutive_panics.min(6))
                                .min(BACKOFF_CAP);
                            consecutive_panics += 1;
                            std::thread::sleep(backoff);
                        }
                    }
                    collect(&mut body);
                    done += 1;
                }
                body.drain();
                collect(&mut body);
            }));
        }
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
        Serial { pipe, done: None }
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
        |worker, pipe| {
            let mut graph = StageGraph::new(pipe, sg_cfg);
            if let Some(m) = &sg_metrics {
                graph.set_metrics(m.clone());
            }
            if let Some(rec) = &recorder {
                graph.set_recorder(rec.clone());
            }
            Graph {
                graph,
                worker,
                recorder: recorder.clone(),
            }
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
        // admits at least half a ring of packets.
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
        let rep = graph_run(&classes, n, 1, &graph, None, None);
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
        fn take(&mut self, _class: usize, _p: &Packet) {}
        fn completed(&mut self) -> Option<Completed> {
            panic!("worker died outside take")
        }
        fn restart(&mut self, _generation: u64, _pipe: UplinkPipeline) {}
    }

    #[test]
    fn a_worker_dying_outside_take_panics_instead_of_hanging() {
        // Four rings' worth: the source fills the ring while the worker
        // builds its pipeline, and is waiting on it when the worker dies.
        let message = panics_within_10s(|| {
            let spec = PipeSpec {
                cfg: clean(),
                faults: None,
                metrics: None,
            };
            let classes = [(Transport::Udp, 64)];
            fan_out(spec, &classes, 4 * RING_CAPACITY, 1, &quiet(), |_, _| {
                DiesOutsideTake
            });
        });
        assert!(message.contains("worker died outside take"), "{message}");
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
