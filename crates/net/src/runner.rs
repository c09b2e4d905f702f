//! Threaded pipeline driver: packet source → SPSC ring → PHY worker →
//! SPSC ring → sink, mirroring the containerized eNB layout of the
//! paper's Figure 1 (each stage its own execution context, queues in
//! userspace).
//!
//! The multicore driver isolates worker panics: each packet is
//! processed under `catch_unwind`, and a panicking worker quarantines
//! its (possibly inconsistent) pipeline state, rebuilds a fresh one,
//! backs off exponentially, and keeps draining its ring. One poisoned
//! packet therefore costs one packet, not a core.
//!
//! The uplink drivers run the out-of-order stage-graph runtime
//! ([`crate::stagegraph`]) by default: each worker pools decode tasks
//! by K across the packets in its ring and launches them as
//! quad-in-zmm / pair-in-ymm batches, keeping the SIMD lanes full
//! under mixed-K traffic. [`run_uplink_serial_mixed`] keeps the old
//! per-packet model as the measured baseline.

use crate::downlink::{DownlinkConfig, DownlinkPipeline};
use crate::error::PipelineError;
use crate::faultinject::{FaultInjector, FaultMix};
use crate::metrics::{PipelineMetrics, RunnerMetrics, StageGraphMetrics};
use crate::observe::{FlightRecorder, TraceEvent};
use crate::packet::{Packet, PacketBuilder, Transport};
use crate::pipeline::{PacketResult, PipelineConfig, UplinkPipeline};
use crate::ring::SpscRing;
use crate::stagegraph::{StageGraph, StageGraphConfig};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::sync::Mutex;
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
    /// Worker panic-restarts absorbed by the multicore driver (always
    /// 0 for the single-worker drivers, which do not isolate).
    pub worker_restarts: usize,
}

/// Per-worker fault plan for [`run_multicore_metered`]: worker `w`
/// draws from a [`FaultInjector`] seeded `seed + w`, so the fleet-wide
/// fault sequence is deterministic but workers do not march in step.
#[derive(Debug, Clone, Copy)]
pub struct FaultPlan {
    /// Base injector seed.
    pub seed: u64,
    /// Fault mix every worker draws from.
    pub mix: FaultMix,
}

/// Drive `n_packets` of `wire_len` bytes through the threaded pipeline
/// and measure sustained throughput.
pub fn run_throughput(
    cfg: PipelineConfig,
    transport: Transport,
    wire_len: usize,
    n_packets: usize,
) -> ThroughputReport {
    run_throughput_metered(
        cfg,
        transport,
        wire_len,
        n_packets,
        &RunnerMetrics::new(false, RING_CAPACITY),
        None,
    )
}

/// [`run_throughput`] with metrics attached: ring occupancy is sampled
/// at every worker pop, producer/consumer spins are counted, and each
/// completed packet lands in both the runner registry and (when given)
/// the per-stage pipeline registry.
pub fn run_throughput_metered(
    cfg: PipelineConfig,
    transport: Transport,
    wire_len: usize,
    n_packets: usize,
    metrics: &RunnerMetrics,
    pipeline_metrics: Option<Arc<PipelineMetrics>>,
) -> ThroughputReport {
    let (mut tx_in, mut rx_in) = SpscRing::with_capacity::<Packet>(RING_CAPACITY);
    let (mut tx_out, mut rx_out) =
        SpscRing::with_capacity::<Result<PacketResult, PipelineError>>(RING_CAPACITY);
    let done = AtomicBool::new(false);
    let results = Mutex::new(Vec::with_capacity(n_packets));

    let start = Instant::now();
    std::thread::scope(|s| {
        // source
        s.spawn(|| {
            let mut b = PacketBuilder::new(5000, 6000);
            for _ in 0..n_packets {
                let p = b.build(transport, wire_len).expect("valid size");
                let mut item = p;
                loop {
                    match tx_in.push(item) {
                        Ok(()) => break,
                        Err(back) => {
                            item = back;
                            metrics.record_push_stall();
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        });
        // PHY worker
        s.spawn(|| {
            let pipe = match pipeline_metrics {
                Some(pm) => UplinkPipeline::with_metrics(cfg, pm),
                None => UplinkPipeline::new(cfg),
            };
            let mut processed = 0;
            while processed < n_packets {
                match rx_in.pop() {
                    Some(p) => {
                        metrics.record_occupancy(rx_in.len());
                        let r = pipe.process(&p);
                        let mut item = r;
                        loop {
                            match tx_out.push(item) {
                                Ok(()) => break,
                                Err(back) => {
                                    item = back;
                                    metrics.record_push_stall();
                                    std::hint::spin_loop();
                                }
                            }
                        }
                        processed += 1;
                    }
                    None => {
                        metrics.record_pop_stall();
                        std::hint::spin_loop();
                    }
                }
            }
        });
        // sink
        s.spawn(|| {
            let mut got = 0;
            while got < n_packets {
                match rx_out.pop() {
                    Some(r) => {
                        metrics.record_packet(wire_len);
                        results.lock().unwrap().push(r);
                        got += 1;
                    }
                    None => {
                        metrics.record_pop_stall();
                        std::hint::spin_loop();
                    }
                }
            }
            done.store(true, Ordering::Release);
        });
    });
    let elapsed = start.elapsed().as_secs_f64();
    assert!(done.load(Ordering::Acquire));

    let results = results.into_inner().unwrap();
    let ok = results.iter().filter(|r| r.is_ok()).count();
    let wire_bytes = wire_len * results.len();
    ThroughputReport {
        packets: results.len(),
        ok_packets: ok,
        wire_bytes,
        elapsed_s: elapsed,
        mbps: wire_bytes as f64 * 8.0 / elapsed / 1e6,
        worker_restarts: 0,
    }
}

/// Multi-core scaling driver: distribute packets round-robin across
/// `workers` PHY threads (one SPSC ring each — the paper's Figure 16
/// "cores required" setting, each core owning its share of the load),
/// with runner metrics and an optional per-worker fault plan. Workers
/// are panic-isolated: a panic mid-packet (real or
/// injected via [`crate::faultinject::FaultKind::WorkerPanic`])
/// quarantines the worker's pipeline, rebuilds it, and resumes after
/// an exponential back-off. The panicked packet is consumed (it counts
/// against the worker's quota but produces no result), so the driver
/// always terminates.
pub fn run_multicore_metered(
    cfg: PipelineConfig,
    transport: Transport,
    wire_len: usize,
    n_packets: usize,
    workers: usize,
    metrics: &RunnerMetrics,
    faults: Option<FaultPlan>,
) -> ThroughputReport {
    assert!(workers >= 1);
    let mut producers = Vec::new();
    let mut consumers = Vec::new();
    for _ in 0..workers {
        let (p, c) = SpscRing::with_capacity::<Packet>(RING_CAPACITY);
        producers.push(p);
        consumers.push(c);
    }
    let counts: Vec<usize> = (0..workers)
        .map(|w| n_packets / workers + usize::from(w < n_packets % workers))
        .collect();
    let results = Mutex::new(Vec::with_capacity(n_packets));
    let restarts = AtomicUsize::new(0);

    let start = Instant::now();
    std::thread::scope(|s| {
        // one source feeding every ring round-robin
        s.spawn(move || {
            let mut producers = producers;
            let mut b = PacketBuilder::new(7000, 7001);
            for i in 0..n_packets {
                let mut item = b.build(transport, wire_len).expect("valid size");
                let w = i % workers;
                loop {
                    match producers[w].push(item) {
                        Ok(()) => break,
                        Err(back) => {
                            item = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        });
        for (w, (mut rx, quota)) in consumers.into_iter().zip(counts).enumerate() {
            let results = &results;
            let restarts = &restarts;
            s.spawn(move || {
                let build = |generation: u64| -> UplinkPipeline {
                    match faults {
                        Some(plan) => UplinkPipeline::with_faults(
                            cfg,
                            // Re-seed per generation so a rebuilt worker
                            // does not replay the fault that killed it
                            // in lock-step.
                            FaultInjector::with_mix(
                                plan.seed
                                    .wrapping_add(w as u64)
                                    .wrapping_add(generation.wrapping_mul(0x9e37_79b9)),
                                plan.mix,
                            ),
                        ),
                        None => UplinkPipeline::new(cfg),
                    }
                };
                let mut pipe = build(0);
                let mut generation = 0u64;
                let mut consecutive_panics = 0u32;
                let mut done = 0;
                while done < quota {
                    match rx.pop() {
                        Some(p) => {
                            metrics.record_occupancy(rx.len());
                            match catch_unwind(AssertUnwindSafe(|| pipe.process(&p))) {
                                Ok(r) => {
                                    consecutive_panics = 0;
                                    metrics.record_packet(wire_len);
                                    results.lock().unwrap().push(r);
                                }
                                Err(_) => {
                                    // Quarantine: the unwound pipeline's
                                    // interior state is suspect — drop it
                                    // wholesale and restart fresh.
                                    metrics.record_quarantine();
                                    metrics.record_worker_restart();
                                    restarts.fetch_add(1, Ordering::Relaxed);
                                    generation += 1;
                                    pipe = build(generation);
                                    let backoff = BACKOFF_BASE
                                        .saturating_mul(1 << consecutive_panics.min(6))
                                        .min(BACKOFF_CAP);
                                    consecutive_panics += 1;
                                    std::thread::sleep(backoff);
                                }
                            }
                            done += 1;
                        }
                        None => {
                            metrics.record_pop_stall();
                            std::hint::spin_loop();
                        }
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let results = results.into_inner().unwrap();
    let ok = results.iter().filter(|r| r.is_ok()).count();
    let wire_bytes = wire_len * results.len();
    ThroughputReport {
        packets: results.len(),
        ok_packets: ok,
        wire_bytes,
        elapsed_s: elapsed,
        mbps: wire_bytes as f64 * 8.0 / elapsed / 1e6,
        worker_restarts: restarts.into_inner(),
    }
}

/// One measurement of the downlink scale-out sweep: sustained
/// throughput at a given worker count, plus the per-core efficiency
/// figure the paper's Figure 16 "cores required" analysis turns on.
#[derive(Debug, Clone, Copy)]
pub struct ScaleoutPoint {
    /// PHY worker threads driven in parallel.
    pub workers: usize,
    /// Aggregate goodput in Mbps over wire bytes.
    pub mbps: f64,
    /// `mbps / workers` — flat until the host runs out of cores.
    pub mbps_per_core: f64,
    /// Packets completed.
    pub packets: usize,
    /// Packets whose DCI and data channel both decoded.
    pub ok_packets: usize,
}

/// Multi-core downlink driver: distribute subframes round-robin across
/// `workers` transmit pipelines (one SPSC ring each), mirroring
/// [`run_multicore_metered`] on the eNB transmit side. Each worker owns a
/// [`DownlinkPipeline`], so the packed encoder's hot state (encoders,
/// rate matchers, scratch words) is per-core and contention-free.
pub fn run_downlink_multicore(
    cfg: DownlinkConfig,
    transport: Transport,
    wire_len: usize,
    n_packets: usize,
    workers: usize,
) -> ThroughputReport {
    assert!(workers >= 1);
    let mut producers = Vec::new();
    let mut consumers = Vec::new();
    for _ in 0..workers {
        let (p, c) = SpscRing::with_capacity::<Packet>(RING_CAPACITY);
        producers.push(p);
        consumers.push(c);
    }
    let counts: Vec<usize> = (0..workers)
        .map(|w| n_packets / workers + usize::from(w < n_packets % workers))
        .collect();
    let results = Mutex::new(Vec::with_capacity(n_packets));

    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut producers = producers;
            let mut b = PacketBuilder::new(8000, 8001);
            for i in 0..n_packets {
                let mut item = b.build(transport, wire_len).expect("valid size");
                let w = i % workers;
                loop {
                    match producers[w].push(item) {
                        Ok(()) => break,
                        Err(back) => {
                            item = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        });
        for (mut rx, quota) in consumers.into_iter().zip(counts) {
            let results = &results;
            s.spawn(move || {
                let pipe = DownlinkPipeline::new(cfg);
                let mut done = 0;
                while done < quota {
                    match rx.pop() {
                        Some(p) => {
                            let r = pipe.process(&p);
                            results.lock().unwrap().push(r);
                            done += 1;
                        }
                        None => std::hint::spin_loop(),
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let results = results.into_inner().unwrap();
    let ok = results.iter().filter(|r| r.dci_ok && r.data_ok).count();
    let wire_bytes = wire_len * results.len();
    ThroughputReport {
        packets: results.len(),
        ok_packets: ok,
        wire_bytes,
        elapsed_s: elapsed,
        mbps: wire_bytes as f64 * 8.0 / elapsed / 1e6,
        worker_restarts: 0,
    }
}

/// Multi-core uplink driver: distribute received subframes round-robin
/// across `workers` receive pipelines (one SPSC ring each). The
/// counterpart of [`run_downlink_multicore`] on the eNB receive side.
///
/// Since the stage-graph runtime landed this is a thin wrapper over
/// [`run_uplink_stagegraph_metered`] with a single traffic class:
/// every worker owns a [`StageGraph`] that pools decode tasks across
/// the packets in its ring and launches them as quad-in-zmm /
/// pair-in-ymm batches — batch SIMD is the default uplink path. For
/// the old per-packet serial model (the comparison baseline), see
/// [`run_uplink_serial_mixed`].
pub fn run_uplink_multicore(
    cfg: PipelineConfig,
    transport: Transport,
    wire_len: usize,
    n_packets: usize,
    workers: usize,
) -> ThroughputReport {
    run_uplink_stagegraph_metered(
        cfg,
        &[(transport, wire_len)],
        n_packets,
        workers,
        StageGraphConfig::default(),
        &RunnerMetrics::new(false, RING_CAPACITY),
        None,
        None,
        None,
        None,
    )
}

/// The pre-stage-graph uplink driver: one packet fully processed at a
/// time per worker ([`UplinkPipeline::process`]), no cross-packet
/// batch formation. Kept as the measured baseline the stage-graph
/// runtime is gated against (`uplink_stagegraph` benchgate suite); not
/// panic-isolated. Packet `i` draws
/// `(transport, wire_len)` from `classes[i % classes.len()]` — the
/// same round-robin schedule as [`run_uplink_stagegraph_metered`], so
/// serial and stage-graph runs see byte-identical traffic.
pub fn run_uplink_serial_mixed(
    cfg: PipelineConfig,
    classes: &[(Transport, usize)],
    n_packets: usize,
    workers: usize,
) -> ThroughputReport {
    assert!(workers >= 1);
    assert!(!classes.is_empty());
    let mut producers = Vec::new();
    let mut consumers = Vec::new();
    for _ in 0..workers {
        let (p, c) = SpscRing::with_capacity::<Packet>(RING_CAPACITY);
        producers.push(p);
        consumers.push(c);
    }
    let counts: Vec<usize> = (0..workers)
        .map(|w| n_packets / workers + usize::from(w < n_packets % workers))
        .collect();
    let results = Mutex::new(Vec::with_capacity(n_packets));
    let wire_bytes = AtomicUsize::new(0);

    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut producers = producers;
            let mut b = PacketBuilder::new(9000, 9001);
            for i in 0..n_packets {
                let (transport, wire_len) = classes[i % classes.len()];
                let mut item = b.build(transport, wire_len).expect("valid size");
                let w = i % workers;
                loop {
                    match producers[w].push(item) {
                        Ok(()) => break,
                        Err(back) => {
                            item = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        });
        for (w, (mut rx, quota)) in consumers.into_iter().zip(counts).enumerate() {
            let results = &results;
            let wire_bytes = &wire_bytes;
            s.spawn(move || {
                let pipe = UplinkPipeline::new(cfg);
                let mut done = 0;
                while done < quota {
                    match rx.pop() {
                        Some(p) => {
                            // Worker w's j-th packet is global packet
                            // w + j·workers (round-robin source).
                            let i = w + done * workers;
                            wire_bytes.fetch_add(classes[i % classes.len()].1, Ordering::Relaxed);
                            let r = pipe.process(&p);
                            results.lock().unwrap().push(r);
                            done += 1;
                        }
                        None => std::hint::spin_loop(),
                    }
                }
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let results = results.into_inner().unwrap();
    let ok = results.iter().filter(|r| r.is_ok()).count();
    let wire_bytes = wire_bytes.into_inner();
    ThroughputReport {
        packets: results.len(),
        ok_packets: ok,
        wire_bytes,
        elapsed_s: elapsed,
        mbps: wire_bytes as f64 * 8.0 / elapsed / 1e6,
        worker_restarts: 0,
    }
}

/// The stage-graph uplink driver: each worker owns a [`StageGraph`]
/// that decomposes its packets into stage tasks, pools decode tasks by
/// K **across packets**, launches quad/pair batches as lanes fill (or
/// deadlines near), and retires completions out of order through the
/// ROB with per-UE in-order delivery. Packet `i` carries traffic class
/// `classes[i % classes.len()]`; the class index doubles as the UE id,
/// so each class's packets are delivered in admission order.
///
/// Workers are panic-isolated like [`run_multicore_metered`]: a panic
/// during admission (real or injected
/// [`crate::faultinject::FaultKind::WorkerPanic`]) quarantines only
/// the worker's *pipeline* — the graph's ROB, pools and sequence state
/// survive, so packets staged before the panic still retire and the
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
    assert!(workers >= 1);
    assert!(!classes.is_empty());
    let mut producers = Vec::new();
    let mut consumers = Vec::new();
    for _ in 0..workers {
        let (p, c) = SpscRing::with_capacity::<Packet>(RING_CAPACITY);
        producers.push(p);
        consumers.push(c);
    }
    let counts: Vec<usize> = (0..workers)
        .map(|w| n_packets / workers + usize::from(w < n_packets % workers))
        .collect();
    let results = Mutex::new(Vec::with_capacity(n_packets));
    let wire_bytes = AtomicUsize::new(0);
    let restarts = AtomicUsize::new(0);

    let start = Instant::now();
    std::thread::scope(|s| {
        s.spawn(move || {
            let mut producers = producers;
            let mut b = PacketBuilder::new(9000, 9001);
            for i in 0..n_packets {
                let (transport, wire_len) = classes[i % classes.len()];
                let mut item = b.build(transport, wire_len).expect("valid size");
                let w = i % workers;
                loop {
                    match producers[w].push(item) {
                        Ok(()) => break,
                        Err(back) => {
                            item = back;
                            std::hint::spin_loop();
                        }
                    }
                }
            }
        });
        for (w, (mut rx, quota)) in consumers.into_iter().zip(counts).enumerate() {
            let results = &results;
            let wire_bytes = &wire_bytes;
            let restarts = &restarts;
            let sg_metrics = sg_metrics.clone();
            let recorder = recorder.clone();
            let pipe_metrics = pipe_metrics.clone();
            s.spawn(move || {
                let build = move |generation: u64| -> UplinkPipeline {
                    let mut pipe = match &pipe_metrics {
                        Some(m) => UplinkPipeline::with_metrics(cfg, m.clone()),
                        None => UplinkPipeline::new(cfg),
                    };
                    if let Some(plan) = faults {
                        // Re-seed per generation so a rebuilt worker
                        // does not replay the fault that killed it in
                        // lock-step.
                        pipe.set_fault_injector(FaultInjector::with_mix(
                            plan.seed
                                .wrapping_add(w as u64)
                                .wrapping_add(generation.wrapping_mul(0x9e37_79b9)),
                            plan.mix,
                        ));
                    }
                    pipe
                };
                let mut graph = StageGraph::new(build(0), sg_cfg);
                if let Some(m) = sg_metrics {
                    graph.set_metrics(m);
                }
                if let Some(rec) = &recorder {
                    graph.set_recorder(rec.clone());
                }
                let mut generation = 0u64;
                let mut consecutive_panics = 0u32;
                let mut done = 0;
                let collect = |graph: &mut StageGraph| {
                    while let Some((ue, r)) = graph.pop_completed() {
                        let wl = classes[ue as usize].1;
                        wire_bytes.fetch_add(wl, Ordering::Relaxed);
                        metrics.record_packet(wl);
                        results.lock().unwrap().push(r);
                    }
                };
                while done < quota {
                    match rx.pop() {
                        Some(p) => {
                            metrics.record_occupancy(rx.len());
                            let i = w + done * workers;
                            let ue = (i % classes.len()) as u64;
                            match catch_unwind(AssertUnwindSafe(|| graph.admit(ue, &p))) {
                                Ok(()) => consecutive_panics = 0,
                                Err(_) => {
                                    // Quarantine the pipeline only: the
                                    // panic unwound out of `prepare`
                                    // before anything was staged, so the
                                    // graph's ROB/pools/sequences are
                                    // intact and in-flight packets still
                                    // retire.
                                    metrics.record_quarantine();
                                    metrics.record_worker_restart();
                                    restarts.fetch_add(1, Ordering::Relaxed);
                                    generation += 1;
                                    if let Some(rec) = &recorder {
                                        rec.record(TraceEvent::restart(w, generation));
                                    }
                                    graph.replace_pipeline(build(generation));
                                    let backoff = BACKOFF_BASE
                                        .saturating_mul(1 << consecutive_panics.min(6))
                                        .min(BACKOFF_CAP);
                                    consecutive_panics += 1;
                                    std::thread::sleep(backoff);
                                }
                            }
                            collect(&mut graph);
                            done += 1;
                        }
                        None => {
                            metrics.record_pop_stall();
                            std::hint::spin_loop();
                        }
                    }
                }
                graph.drain();
                collect(&mut graph);
            });
        }
    });
    let elapsed = start.elapsed().as_secs_f64();
    let results = results.into_inner().unwrap();
    let ok = results.iter().filter(|r| r.is_ok()).count();
    let wire_bytes = wire_bytes.into_inner();
    ThroughputReport {
        packets: results.len(),
        ok_packets: ok,
        wire_bytes,
        elapsed_s: elapsed,
        mbps: wire_bytes as f64 * 8.0 / elapsed / 1e6,
        worker_restarts: restarts.into_inner(),
    }
}

/// Sweep the uplink driver over 1..=`max_workers` worker counts and
/// report aggregate and per-core throughput at each point — the
/// receive-side twin of [`downlink_scaleout_sweep`], feeding the
/// `uplink_scaleout` benchgate suite.
pub fn uplink_scaleout_sweep(
    cfg: PipelineConfig,
    transport: Transport,
    wire_len: usize,
    n_packets: usize,
    max_workers: usize,
) -> Vec<ScaleoutPoint> {
    (1..=max_workers)
        .map(|w| {
            let rep = run_uplink_multicore(cfg, transport, wire_len, n_packets, w);
            ScaleoutPoint {
                workers: w,
                mbps: rep.mbps,
                mbps_per_core: rep.mbps / w as f64,
                packets: rep.packets,
                ok_packets: rep.ok_packets,
            }
        })
        .collect()
}

/// Sweep the downlink driver over 1..=`max_workers` worker counts and
/// report aggregate and per-core throughput at each point.
pub fn downlink_scaleout_sweep(
    cfg: DownlinkConfig,
    transport: Transport,
    wire_len: usize,
    n_packets: usize,
    max_workers: usize,
) -> Vec<ScaleoutPoint> {
    (1..=max_workers)
        .map(|w| {
            let rep = run_downlink_multicore(cfg, transport, wire_len, n_packets, w);
            ScaleoutPoint {
                workers: w,
                mbps: rep.mbps,
                mbps_per_core: rep.mbps / w as f64,
                packets: rep.packets,
                ok_packets: rep.ok_packets,
            }
        })
        .collect()
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

    #[test]
    fn threaded_pipeline_processes_all_packets() {
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        let rep = run_throughput(cfg, Transport::Udp, 128, 8);
        assert_eq!(rep.packets, 8);
        assert_eq!(rep.ok_packets, 8, "clean channel must decode everything");
        assert!(rep.mbps > 0.0);
        assert_eq!(rep.wire_bytes, 8 * 128);
        assert_eq!(rep.worker_restarts, 0);
    }

    #[test]
    fn tcp_flow_also_flows() {
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        let rep = run_throughput(cfg, Transport::Tcp, 256, 4);
        assert_eq!(rep.ok_packets, 4);
    }

    #[test]
    fn metered_run_populates_both_registries() {
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        let rm = RunnerMetrics::new(true, RING_CAPACITY);
        let pm = Arc::new(PipelineMetrics::new(true));
        let rep = run_throughput_metered(cfg, Transport::Udp, 128, 6, &rm, Some(pm.clone()));
        assert_eq!(rep.ok_packets, 6);
        assert_eq!(rm.packets.get(), 6);
        assert_eq!(rm.wire_bytes.get(), 6 * 128);
        assert_eq!(rm.ring_occupancy.count(), 6, "one occupancy sample per pop");
        assert_eq!(pm.packets.get(), 6);
        assert!(pm.stage(crate::metrics::Stage::Decode).count() > 0);
    }

    #[test]
    fn multicore_distributes_and_loses_nothing() {
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        for workers in [1usize, 2, 3] {
            let rep = run_multicore_metered(cfg, Transport::Udp, 128, 9, workers, &quiet(), None);
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
        let one = run_multicore_metered(cfg, Transport::Udp, 512, 12, 1, &quiet(), None);
        let two = run_multicore_metered(cfg, Transport::Udp, 512, 12, 2, &quiet(), None);
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
    fn downlink_multicore_distributes_and_loses_nothing() {
        let cfg = DownlinkConfig {
            snr_db: 28.0,
            ..Default::default()
        };
        for workers in [1usize, 2, 3] {
            let rep = run_downlink_multicore(cfg, Transport::Udp, 200, 9, workers);
            assert_eq!(rep.packets, 9, "workers={workers}");
            assert_eq!(rep.ok_packets, 9, "workers={workers}");
            assert!(rep.mbps > 0.0, "workers={workers}");
        }
    }

    #[test]
    fn downlink_sweep_covers_every_worker_count() {
        let cfg = DownlinkConfig {
            snr_db: 28.0,
            ..Default::default()
        };
        let sweep = downlink_scaleout_sweep(cfg, Transport::Udp, 200, 6, 3);
        assert_eq!(sweep.len(), 3);
        for (i, pt) in sweep.iter().enumerate() {
            assert_eq!(pt.workers, i + 1);
            assert_eq!(pt.packets, 6);
            assert_eq!(pt.ok_packets, 6, "clean channel at every width");
            assert!(pt.mbps > 0.0);
            let per_core = pt.mbps / pt.workers as f64;
            assert!((pt.mbps_per_core - per_core).abs() < 1e-9);
        }
    }

    #[test]
    fn uplink_multicore_distributes_and_loses_nothing() {
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        for workers in [1usize, 2, 3] {
            let rep = run_uplink_multicore(cfg, Transport::Udp, 200, 9, workers);
            assert_eq!(rep.packets, 9, "workers={workers}");
            assert_eq!(rep.ok_packets, 9, "workers={workers}");
            assert!(rep.mbps > 0.0, "workers={workers}");
        }
    }

    #[test]
    fn uplink_sweep_covers_every_worker_count() {
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        let sweep = uplink_scaleout_sweep(cfg, Transport::Udp, 200, 6, 3);
        assert_eq!(sweep.len(), 3);
        for (i, pt) in sweep.iter().enumerate() {
            assert_eq!(pt.workers, i + 1);
            assert_eq!(pt.packets, 6);
            assert_eq!(pt.ok_packets, 6, "clean channel at every width");
            assert!(pt.mbps > 0.0);
            let per_core = pt.mbps / pt.workers as f64;
            assert!((pt.mbps_per_core - per_core).abs() < 1e-9);
        }
    }

    #[test]
    fn uplink_serial_baseline_still_flows() {
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        let rep = run_uplink_serial_mixed(cfg, &[(Transport::Udp, 200)], 9, 2);
        assert_eq!(rep.packets, 9);
        assert_eq!(rep.ok_packets, 9);
        assert_eq!(rep.wire_bytes, 9 * 200);
    }

    #[test]
    fn stagegraph_mixed_classes_lose_nothing_and_fill_lanes() {
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        // paper_sweep-style mixed-K workload: 2 transports × sizes.
        let classes: Vec<(Transport, usize)> = [64usize, 300, 900, 1400]
            .into_iter()
            .flat_map(|s| [(Transport::Udp, s), (Transport::Tcp, s)])
            .collect();
        let sg = Arc::new(crate::metrics::StageGraphMetrics::default());
        let rm = RunnerMetrics::new(true, RING_CAPACITY);
        let n = classes.len() * 8;
        let rep = run_uplink_stagegraph_metered(
            cfg,
            &classes,
            n,
            2,
            StageGraphConfig::default(),
            &rm,
            Some(sg.clone()),
            None,
            None,
            None,
        );
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
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        let plan = FaultPlan {
            seed: 99,
            mix: FaultMix::only(FaultKind::Clean)
                .with_weight(FaultKind::WorkerPanic, 1)
                .with_weight(FaultKind::Clean, 7),
        };
        let rm = RunnerMetrics::new(true, RING_CAPACITY);
        let n = 48;
        let rep = run_uplink_stagegraph_metered(
            cfg,
            &[(Transport::Udp, 128), (Transport::Udp, 600)],
            n,
            2,
            StageGraphConfig::default(),
            &rm,
            None,
            Some(plan),
            None,
            None,
        );
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
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        let plan = FaultPlan {
            seed: 99,
            mix: FaultMix::only(FaultKind::Clean)
                .with_weight(FaultKind::WorkerPanic, 1)
                .with_weight(FaultKind::Clean, 7),
        };
        let rm = RunnerMetrics::new(true, RING_CAPACITY);
        let n = 48;
        let rep = run_multicore_metered(cfg, Transport::Udp, 128, n, 2, &rm, Some(plan));
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
