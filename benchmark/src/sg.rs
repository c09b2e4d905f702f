//! The two stage-graph workloads: the production runtime end to end.
//!
//! Both are loopback — `UplinkPipeline::prepare` synthesises the
//! transmitter and the channel inside the timed region — so kernel
//! gains are diluted here and runtime gains (waiting, batch formation)
//! dominate. `sg_saturate` is a closed loop through
//! `runner::run_uplink_stagegraph_metered` (ring back-pressure, one
//! worker and one producer thread); `sg_paced` is an open loop that
//! drives `StageGraph` itself on a fixed schedule and times each packet
//! from when it was *due*, so a stall shows as latency on the packets
//! queued behind it.

use crate::stats::{median, percentile, quiet_high, quiet_low};
use crate::trace::{Span, SpanLog, Tracer, NO_PARENT};
use crate::{host, kernels, seeded_builder, Fatal, Outcome, Params, Setup, TraceDump};
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::{Duration, Instant};
use vran_net::metrics::{RunnerMetrics, StageGraphMetrics};
use vran_net::packet::{Packet, Transport};
use vran_net::pipeline::PipelineConfig;
use vran_net::runner::{
    run_uplink_serial_mixed, run_uplink_stagegraph_metered, ThroughputReport, RING_CAPACITY,
};
use vran_net::stagegraph::{StageGraph, StageGraphConfig};

/// Wire lengths of the traffic mix (the paper's Fig 13 sweep).
const SIZES: [usize; 6] = [64, 128, 256, 512, 1024, 1400];

/// Offered rate of `sg_paced`, packets per second — about a quarter of
/// what `sg_saturate` sustains on the reference host, so latency there
/// is batching wait, not queueing.
pub const PACED_PPS: u64 = 400;

/// The generator sleeps until this close to a due time, then spins.
const SPIN_NS: u64 = 200_000;

/// `sg_paced` is void when the generator ends this many packets behind
/// its schedule: the system did not keep up and the latencies measure
/// the backlog, not the system.
const MAX_BACKLOG_END: u64 = 8;

/// The 12 traffic classes {UDP, TCP} × [`SIZES`], round-robin with the
/// seed choosing where the cycle starts. A rotation, not a shuffle: the
/// distance between two classes of one block size sets how long a batch
/// waits to fill, so a shuffle would make each seed a different
/// workload. The class index doubles as the UE id.
fn classes(seed: u64) -> Vec<(Transport, usize)> {
    let mut c: Vec<(Transport, usize)> = [Transport::Udp, Transport::Tcp]
        .into_iter()
        .flat_map(|t| SIZES.map(|s| (t, s)))
        .collect();
    let start = (seed % c.len() as u64) as usize;
    c.rotate_left(start);
    c
}

/// The pipeline both workloads run: the repository's defaults, noise
/// seeded from the benchmark seed.
fn pipeline_config(seed: u64) -> PipelineConfig {
    PipelineConfig {
        seed,
        ..Default::default()
    }
}

/// Wire bits of one runner round that were delivered intact.
fn round_ok_bits(r: &ThroughputReport) -> f64 {
    r.wire_bytes as f64 * 8.0 * r.ok_packets as f64 / r.packets.max(1) as f64
}

/// Goodput of one runner round in Mbit/s, counting only packets
/// delivered intact.
fn round_goodput(r: &ThroughputReport) -> f64 {
    round_ok_bits(r) / r.elapsed_s / 1e6
}

/// Run `sg_saturate`.
pub fn saturate(p: &Params) -> Result<Outcome, Fatal> {
    let classes = classes(p.seed);
    let cfg = pipeline_config(p.seed);
    let n = p.pool;
    let round = |runner: &RunnerMetrics, graph: Option<Arc<StageGraphMetrics>>| {
        run_uplink_stagegraph_metered(
            cfg,
            &classes,
            n,
            1,
            StageGraphConfig::default(),
            runner,
            graph,
            None,
            None,
            None,
        )
    };
    let off = RunnerMetrics::new(false, RING_CAPACITY);

    // The runner builds its pipelines inside every call, so the only
    // set-up there is to repeat is a warm-up round.
    let mut setup = Setup::new(|| round(&off, None));
    let warm = setup.before();
    if warm.ok_packets != n {
        return Err(format!(
            "sg_saturate warm-up delivered {} of {n}",
            warm.ok_packets
        ));
    }

    let mut o = Outcome::default();
    let on = RunnerMetrics::new(true, RING_CAPACITY);
    let graph = Arc::new(StageGraphMetrics::new(true));
    let mut rounds: Vec<ThroughputReport> = Vec::new();
    let mut serial: Vec<ThroughputReport> = Vec::new();
    // The kernels run inside the program here, so the benchmark's spans
    // stop at the two runner calls, one request per round.
    let mut log = SpanLog::with_capacity(256);
    let mut cpu_per_gbit: Vec<f64> = Vec::new();
    let start = Instant::now();
    while rounds.len() < 2 || start.elapsed().as_secs_f64() < p.seconds {
        let cpu0 = host::process_cpu_seconds();
        let r = if p.trace {
            log.set_request(rounds.len() as u32);
            let s = log.begin(0);
            serial.push(run_uplink_serial_mixed(cfg, &classes, n, 1));
            log.end(s, n as u64);
            let s = log.begin(1);
            let r = round(&on, Some(graph.clone()));
            log.end(s, n as u64);
            r
        } else {
            round(&off, None)
        };
        // Both runner threads have exited; the process clock keeps
        // their time.
        cpu_per_gbit
            .push((host::process_cpu_seconds() - cpu0) / (round_ok_bits(&r).max(1.0) / 1e9));
        o.attempted += n as u64;
        o.failed += (n - r.ok_packets) as u64;
        rounds.push(r);
    }
    o.samples = rounds.len() as u64;
    o.note("rounds", rounds.len());

    let goodput = quiet_high(&rounds.iter().map(round_goodput).collect::<Vec<_>>());
    if !p.trace {
        let per_packet_us: Vec<f64> = rounds
            .iter()
            .map(|r| r.elapsed_s * 1e6 / r.packets.max(1) as f64)
            .collect();
        o.put("goodput_mbps", goodput);
        o.put("packet_us_p50", quiet_low(&per_packet_us));
        o.put("cpu_s_per_gbit", quiet_low(&cpu_per_gbit));
        o.put("setup_s", setup.after());
        return Ok(o);
    }

    let packets = o.attempted as f64;
    o.put(
        "net.ring.push_stalls",
        on.push_stalls.get() as f64 / packets,
    );
    o.put("net.ring.pop_stalls", on.pop_stalls.get() as f64 / packets);
    o.put("net.ring.occupancy_mean", on.ring_occupancy.mean());
    put_graph_counts(&mut o, &graph, packets);
    let serial_goodput = quiet_high(&serial.iter().map(round_goodput).collect::<Vec<_>>());
    o.put("net.pipeline.serial_goodput_mbps", serial_goodput);
    o.put("net.stagegraph.metered_goodput_mbps", goodput);
    o.put("net.stagegraph.vs_serial.ratio", goodput / serial_goodput);
    kernels::put_table(&mut o);
    o.trace = Some(TraceDump {
        ops: vec![
            "net.runner.run_uplink_serial_mixed",
            "net.runner.run_uplink_stagegraph_metered",
        ],
        spans: log.into_spans(),
    });
    Ok(o)
}

/// Batch-formation counters, per packet admitted.
fn put_graph_counts(o: &mut Outcome, g: &StageGraphMetrics, packets: f64) {
    o.put("net.stagegraph.lane_occupancy.ratio", g.lane_occupancy());
    for (name, c) in [
        ("quad_blocks", &g.quad_blocks),
        ("pair_blocks", &g.pair_blocks),
        ("single_blocks", &g.single_blocks),
        ("flush_lanes_full", &g.flush_lanes_full),
        ("flush_deadline", &g.flush_deadline),
        ("flush_drain", &g.flush_drain),
    ] {
        o.put(
            &format!("net.stagegraph.{name}"),
            c.get() as f64 / packets.max(1.0),
        );
    }
}

/// What the open-loop generator needs from the system it drives — the
/// `StageGraph` surface, narrowed so a test can substitute a slow stub.
pub trait PacedSystem {
    /// Hand pool item `item` of traffic class `class` to the system.
    fn admit(&mut self, class: usize, item: usize);
    /// Next completed packet: its class (per-class order is admission
    /// order) and whether it was delivered intact.
    fn pop_completed(&mut self) -> Option<(usize, bool)>;
    /// Flush everything still in flight.
    fn drain(&mut self);
    /// Packets admitted but not yet completed.
    fn in_flight(&self) -> usize;
}

/// `StageGraph` over a pool of pre-built packets.
struct GraphSystem<'a> {
    graph: StageGraph,
    packets: &'a [Packet],
}

impl PacedSystem for GraphSystem<'_> {
    fn admit(&mut self, class: usize, item: usize) {
        self.graph.admit(class as u64, &self.packets[item]);
    }
    fn pop_completed(&mut self) -> Option<(usize, bool)> {
        self.graph
            .pop_completed()
            .map(|(ue, r)| (ue as usize, r.is_ok()))
    }
    fn drain(&mut self) {
        self.graph.drain();
    }
    fn in_flight(&self) -> usize {
        self.graph.in_flight()
    }
}

/// One packet's timeline, ns since the run started.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PacketTimes {
    /// When the schedule said to send it.
    pub due: u64,
    /// When `admit` was entered.
    pub admit_start: u64,
    /// When `admit` returned.
    pub admit_end: u64,
    /// When the benchmark saw it completed (`None`: never).
    pub delivered: Option<u64>,
    /// Completed only by the end-of-run drain: its wait was cut short,
    /// so it is checked for correctness but not timed.
    pub drained: bool,
    /// Delivered intact.
    pub ok: bool,
}

/// What an open-loop run recorded.
#[derive(Debug)]
pub struct PacedRun {
    /// Every packet's timeline, in send order.
    pub log: Vec<PacketTimes>,
    /// Largest in-flight count seen after an admission.
    pub in_flight_max: usize,
    /// `(ns since start, process CPU seconds)` at every window boundary
    /// and at the end.
    pub cpu_marks: Vec<(u64, f64)>,
}

/// Block until `due` ns after `t0`: sleep while far, spin when close.
fn wait_until(t0: Instant, due: u64) {
    loop {
        let now = t0.elapsed().as_nanos() as u64;
        if now >= due {
            return;
        }
        if due - now > SPIN_NS {
            std::thread::sleep(Duration::from_nanos(due - now - SPIN_NS));
        } else {
            std::hint::spin_loop();
        }
    }
}

/// Open loop: send `n_send` packets, packet `i` due at `i × gap_ns`
/// whatever the system does — a slow `admit` delays the sends behind it
/// but not their due times, so the delay is measured, not absorbed.
/// Item `i % pool` of class `item % classes` is sent each time; the
/// process's CPU time is read before every `window`-th send.
pub fn open_loop<S: PacedSystem>(
    sys: &mut S,
    classes: usize,
    pool: usize,
    n_send: usize,
    gap_ns: u64,
    window: usize,
) -> PacedRun {
    let mut log: Vec<PacketTimes> = Vec::with_capacity(n_send);
    let mut waiting: Vec<VecDeque<usize>> = vec![VecDeque::new(); classes];
    let mut in_flight_max = 0;
    let mut cpu_marks = Vec::with_capacity(n_send / window.max(1) + 2);
    fn collect<S: PacedSystem>(
        sys: &mut S,
        waiting: &mut [VecDeque<usize>],
        log: &mut [PacketTimes],
        at: u64,
        drained: bool,
    ) {
        while let Some((class, ok)) = sys.pop_completed() {
            let i = waiting[class]
                .pop_front()
                .expect("a completion answers an admission");
            log[i].delivered = Some(at);
            log[i].drained = drained;
            log[i].ok = ok;
        }
    }
    let t0 = Instant::now();
    for i in 0..n_send {
        let due = i as u64 * gap_ns;
        if i % window.max(1) == 0 {
            cpu_marks.push((t0.elapsed().as_nanos() as u64, host::process_cpu_seconds()));
        }
        wait_until(t0, due);
        let item = i % pool;
        let class = item % classes;
        let admit_start = t0.elapsed().as_nanos() as u64;
        sys.admit(class, item);
        let admit_end = t0.elapsed().as_nanos() as u64;
        log.push(PacketTimes {
            due,
            admit_start,
            admit_end,
            delivered: None,
            drained: false,
            ok: false,
        });
        waiting[class].push_back(i);
        in_flight_max = in_flight_max.max(sys.in_flight());
        collect(sys, &mut waiting, &mut log, admit_end, false);
    }
    sys.drain();
    let end = t0.elapsed().as_nanos() as u64;
    collect(sys, &mut waiting, &mut log, end, true);
    cpu_marks.push((end, host::process_cpu_seconds()));
    PacedRun {
        log,
        in_flight_max,
        cpu_marks,
    }
}

/// Packets the generator was behind its schedule when it sent the last
/// one.
pub fn backlog_end(log: &[PacketTimes], gap_ns: u64) -> u64 {
    log.last()
        .map_or(0, |l| (l.admit_start - l.due) / gap_ns.max(1))
}

/// Run `sg_paced`.
pub fn paced(p: &Params) -> Result<Outcome, Fatal> {
    let classes = classes(p.seed);
    let pool = (p.pool / classes.len()).max(1) * classes.len();
    let gap_ns = 1_000_000_000 / PACED_PPS;
    let n_send = ((p.seconds * PACED_PPS as f64).ceil() as usize).max(2 * pool);

    let mut setup = Setup::new(|| {
        let mut b = seeded_builder(p.seed);
        let packets: Vec<Packet> = (0..pool)
            .map(|i| {
                let (transport, wire_len) = classes[i % classes.len()];
                b.build(transport, wire_len)
                    .expect("wire length fits the headers")
            })
            .collect();
        // Warm-up: every pool item once, unpaced, so per-K decoders and
        // staging buffers exist before the schedule starts.
        let mut graph =
            StageGraph::with_config(pipeline_config(p.seed), StageGraphConfig::default());
        for (i, pk) in packets.iter().enumerate() {
            graph.admit((i % classes.len()) as u64, pk);
        }
        graph.drain();
        while graph.pop_completed().is_some() {}
        (packets, graph)
    });
    let (packets, graph) = setup.before();

    let mut sys = GraphSystem {
        graph,
        packets: &packets,
    };
    let counts = Arc::new(StageGraphMetrics::new(true));
    if p.trace {
        sys.graph.set_metrics(counts.clone());
    }
    let window = PACED_PPS as usize;
    let PacedRun {
        log,
        in_flight_max,
        cpu_marks,
    } = open_loop(&mut sys, classes.len(), pool, n_send, gap_ns, window);

    let timed: Vec<&PacketTimes> = log
        .iter()
        .filter(|t| t.delivered.is_some() && !t.drained)
        .collect();
    let mut o = Outcome {
        attempted: n_send as u64,
        failed: log.iter().filter(|t| !t.ok).count() as u64,
        samples: timed.len() as u64,
        ..Default::default()
    };
    let backlog = backlog_end(&log, gap_ns);
    if backlog > MAX_BACKLOG_END {
        o.invalid = Some(format!(
            "generator ended {backlog} packets behind its {PACED_PPS} pkt/s schedule"
        ));
    }
    let us = |f: &dyn Fn(&PacketTimes) -> u64| -> Vec<f64> {
        timed.iter().map(|t| f(t) as f64 / 1e3).collect()
    };

    if !p.trace {
        let ok_bits: u64 = log
            .iter()
            .enumerate()
            .filter(|(_, t)| t.ok)
            .map(|(i, _)| packets[i % pool].frame.len() as u64 * 8)
            .sum();
        let end_ns = log.iter().filter_map(|t| t.delivered).max().unwrap_or(1);
        let goodput = ok_bits as f64 * 1e3 / end_ns as f64;
        // Latency and CPU load per one-second window, then the quiet
        // windows — an open loop is the one place where CPU seconds per
        // wall second depend on how fast the machine happens to be.
        let window_p50: Vec<f64> = log
            .chunks(window)
            .map(|w| {
                let timed: Vec<f64> = w
                    .iter()
                    .filter(|t| !t.drained)
                    .filter_map(|t| Some((t.delivered? - t.due) as f64 / 1e3))
                    .collect();
                median(&timed)
            })
            .filter(|&m| m > 0.0)
            .collect();
        let window_util: Vec<f64> = cpu_marks
            .windows(2)
            .map(|m| (m[1].1 - m[0].1) / ((m[1].0 - m[0].0).max(1) as f64 / 1e9))
            .collect();
        o.put("goodput_mbps", goodput);
        o.put("packet_us_p50", quiet_low(&window_p50));
        o.put(
            "cpu_s_per_gbit",
            quiet_low(&window_util) / (goodput.max(f64::MIN_POSITIVE) / 1e3),
        );
        o.note("windows", window_p50.len());
        o.put("setup_s", setup.after());
        o.note("gen.backlog_end", backlog);
        return Ok(o);
    }

    let latency = us(&|t| t.delivered.unwrap_or(t.due) - t.due);
    let admit = us(&|t| t.admit_end - t.admit_start);
    let wait = us(&|t| t.delivered.unwrap_or(t.admit_end) - t.admit_end);
    let late: Vec<f64> = log
        .iter()
        .map(|t| (t.admit_start - t.due) as f64 / 1e3)
        .collect();
    o.put("net.stagegraph.admit_us_p50", median(&admit));
    o.put("net.stagegraph.admit_us_p99", percentile(&admit, 0.99));
    o.put("net.stagegraph.batch_wait_us_p50", median(&wait));
    o.put("net.stagegraph.batch_wait_us_p99", percentile(&wait, 0.99));
    o.put("net.stagegraph.in_flight_max", in_flight_max as f64);
    o.put("net.stagegraph.latency_us_p90", percentile(&latency, 0.90));
    o.put("net.stagegraph.latency_us_p99", percentile(&latency, 0.99));
    o.put("gen.late_us_p99", percentile(&late, 0.99));
    o.put("gen.backlog_end", backlog as f64);
    put_graph_counts(&mut o, &counts, n_send as f64);
    kernels::put_table(&mut o);
    o.trace = Some(TraceDump {
        ops: PACED_OPS.to_vec(),
        spans: paced_spans(&log),
    });
    Ok(o)
}

/// Span operations of `sg_paced`: the request from due time to
/// delivery, the call into `admit`, and the wait for the batch.
const PACED_OPS: [&str; 3] = [
    "sg_paced.request",
    "net.stagegraph.admit",
    "net.stagegraph.batch_wait",
];

/// Spans of a paced run, built from the per-packet timelines: request
/// `i` is the root `[due, delivered)`, with `admit` and the batch wait
/// as its children.
fn paced_spans(log: &[PacketTimes]) -> Vec<Span> {
    let mut spans = Vec::with_capacity(3 * log.len());
    for (i, t) in log.iter().enumerate() {
        let root = spans.len() as u32;
        let end = t.delivered.unwrap_or(t.admit_end);
        let mut push = |op, parent, start_ns, end_ns| {
            spans.push(Span {
                req: i as u32,
                op,
                parent,
                start_ns,
                end_ns,
                units: 1,
            })
        };
        push(0, NO_PARENT, t.due, end);
        push(1, root, t.admit_start, t.admit_end);
        push(2, root, t.admit_end, end);
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Completes every packet inside `admit`; one chosen admission
    /// stalls.
    struct Stub {
        slow_item: usize,
        stall: Duration,
        done: VecDeque<(usize, bool)>,
    }

    impl PacedSystem for Stub {
        fn admit(&mut self, class: usize, item: usize) {
            if item == self.slow_item {
                let t = Instant::now();
                while t.elapsed() < self.stall {
                    std::hint::spin_loop();
                }
            }
            self.done.push_back((class, true));
        }
        fn pop_completed(&mut self) -> Option<(usize, bool)> {
            self.done.pop_front()
        }
        fn drain(&mut self) {}
        fn in_flight(&self) -> usize {
            self.done.len()
        }
    }

    #[test]
    fn open_loop_times_from_due_time_not_from_send_time() {
        // 1 ms schedule; item 10 stalls the generator for 20 ms.
        let gap = 1_000_000;
        let mut stub = Stub {
            slow_item: 10,
            stall: Duration::from_millis(20),
            done: VecDeque::new(),
        };
        let log = open_loop(&mut stub, 4, 64, 64, gap, 16).log;
        assert_eq!(log.len(), 64);
        // The schedule did not stretch: due times stay on the grid.
        for (i, t) in log.iter().enumerate() {
            assert_eq!(t.due, i as u64 * gap);
            assert!(t.ok && t.delivered.is_some());
        }
        // The stall is charged to the stalled packet and to the ones
        // that were due while it lasted (sent late, back to back) …
        let latency = |i: usize| log[i].delivered.unwrap() - log[i].due;
        assert!(latency(10) >= 20 * gap);
        assert!(
            latency(11) >= 18 * gap,
            "queued behind the stall: {}",
            latency(11)
        );
        assert!(latency(20) >= 9 * gap);
        assert!(log[11].admit_start - log[11].due >= 18 * gap);
        // … while the service time of those packets stays small,
        assert!(log[11].admit_end - log[11].admit_start < 10 * gap);
        // and the generator catches up, so nothing is left behind.
        assert!(latency(60) < 15 * gap, "caught up: {}", latency(60));
        assert_eq!(backlog_end(&log, gap), 0);
    }

    #[test]
    fn a_system_slower_than_the_schedule_ends_with_a_backlog() {
        // Every admission takes 2 gaps: the backlog grows by one packet
        // per two sent.
        let gap = 200_000;
        struct Slow(VecDeque<(usize, bool)>);
        impl PacedSystem for Slow {
            fn admit(&mut self, class: usize, _item: usize) {
                let t = Instant::now();
                while t.elapsed() < Duration::from_nanos(400_000) {
                    std::hint::spin_loop();
                }
                self.0.push_back((class, true));
            }
            fn pop_completed(&mut self) -> Option<(usize, bool)> {
                self.0.pop_front()
            }
            fn drain(&mut self) {}
            fn in_flight(&self) -> usize {
                0
            }
        }
        let log = open_loop(&mut Slow(VecDeque::new()), 2, 8, 40, gap, 16).log;
        assert!(backlog_end(&log, gap) >= 30);
    }

    #[test]
    fn class_order_is_a_seeded_rotation() {
        let a = classes(1);
        assert_eq!(a, classes(13));
        assert_ne!(a, classes(2));
        // Whatever the seed, the two classes of one size stay half a
        // cycle apart.
        assert_eq!(a[0].1, a[6].1);
        let mut sizes: Vec<usize> = a.iter().map(|c| c.1).collect();
        sizes.sort_unstable();
        assert_eq!(
            sizes,
            [64, 64, 128, 128, 256, 256, 512, 512, 1024, 1024, 1400, 1400]
        );
    }
}
