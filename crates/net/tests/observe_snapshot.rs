//! Concurrency properties of [`MetricsSnapshot`]: a polling thread
//! capturing snapshots mid-run must never observe a histogram whose
//! buckets sum past its count (the capture-order guarantee of
//! `Histogram::snapshot_consistent`), and sequential snapshots must be
//! monotone in every true counter while the uplink runner hammers the
//! registries from its worker threads.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use vran_net::faultinject::FaultMix;
use vran_net::metrics::{PipelineMetrics, RunnerMetrics};
use vran_net::observe::MetricsSnapshot;
use vran_net::packet::Transport;
use vran_net::pipeline::PipelineConfig;
use vran_net::runner::{run_uplink_stagegraph_metered, FaultPlan, RING_CAPACITY};
use vran_net::StageGraphConfig;

/// Monotonicity applies to counters, not derived gauges — every
/// non-count entry in the snapshot carries "mean" in its key.
fn is_counter(key: &str) -> bool {
    !key.contains("mean")
}

#[test]
fn snapshots_stay_consistent_and_monotone_under_concurrent_load() {
    let pm = Arc::new(PipelineMetrics::new());
    let rm = Arc::new(RunnerMetrics::new(true, RING_CAPACITY));
    let done = Arc::new(AtomicBool::new(false));

    let worker = thread::spawn({
        let pm = pm.clone();
        let rm = rm.clone();
        let done = done.clone();
        move || {
            let cfg = PipelineConfig {
                snr_db: 30.0,
                ..Default::default()
            };
            // The soak mix drives every error counter (including
            // worker restarts) while the poller reads.
            let plan = FaultPlan {
                seed: 21,
                mix: FaultMix::soak(),
            };
            let rep = run_uplink_stagegraph_metered(
                cfg,
                &[(Transport::Udp, 128), (Transport::Tcp, 600)],
                800,
                2,
                StageGraphConfig::default(),
                &rm,
                None,
                Some(plan),
                None,
                Some(pm),
            );
            done.store(true, Ordering::Release);
            rep
        }
    });

    let mut polls = 0u64;
    let mut last: Option<MetricsSnapshot> = None;
    while !done.load(Ordering::Acquire) {
        let snap = MetricsSnapshot::capture(Some(&pm), Some(&rm), None);
        for h in &snap.histograms {
            assert!(
                h.bucket_sum() <= h.count,
                "{}: bucket sum {} ran ahead of count {} mid-run",
                h.name,
                h.bucket_sum(),
                h.count
            );
        }
        if let Some(prev) = &last {
            for (key, value) in &snap.counters {
                if !is_counter(key) {
                    continue;
                }
                let before = prev.get(key).expect("stable key set");
                assert!(
                    *value >= before,
                    "{key} went backwards mid-run: {before} -> {value}"
                );
            }
        }
        last = Some(snap);
        polls += 1;
        thread::yield_now();
    }
    let rep = worker.join().expect("runner thread");
    assert!(polls >= 1, "the run must be long enough to poll mid-run");
    assert_eq!(rep.packets as u64 + rep.worker_restarts as u64, 800);

    // The final capture dominates everything the poller saw and
    // serializes to the shared JSON schema.
    let fin = MetricsSnapshot::capture(Some(&pm), Some(&rm), None);
    if let Some(prev) = &last {
        for (key, value) in &fin.counters {
            if !is_counter(key) {
                continue;
            }
            assert!(*value >= prev.get(key).expect("stable key set"));
        }
    }
    assert_eq!(
        fin.get("runner.packets"),
        Some(rep.packets as f64),
        "the settled snapshot matches the report"
    );
    let json = fin.to_json().to_string();
    assert!(json.contains("\"counters\"") && json.contains("\"histograms\""));
}
