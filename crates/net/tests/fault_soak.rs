//! Fault-injection soak: thousands of deliberately damaged packets
//! through both profiles, asserting the pipeline never panics,
//! never hangs, and classifies every outcome into the typed error
//! taxonomy — with exact per-category counts pinned against the
//! injector's own draw ledger.
//!
//! The always-on tests keep the packet count small enough for debug
//! builds; CI's `fault-soak` job runs the `#[ignore]`d full soak in
//! release mode (`cargo test --release -p vran-net --test fault_soak
//! -- --ignored`), which defaults to 10 000 packets per profile and
//! honors `FAULT_SOAK_PACKETS` for larger runs. The HARQ drop soak
//! is `apcm`'s `tests/fault_soak.rs`, beside `apcm::harq`.

use std::sync::Arc;
use vran_net::error::ErrorCategory;
use vran_net::faultinject::{FaultInjector, FaultKind, FaultMix};
use vran_net::metrics::{PipelineMetrics, RunnerMetrics};
use vran_net::packet::{PacketBuilder, Transport};
use vran_net::pipeline::{PipelineConfig, Profile, UplinkPipeline};
use vran_net::runner::{run_multicore_metered, FaultPlan, RING_CAPACITY};

fn full_soak_packets() -> usize {
    std::env::var("FAULT_SOAK_PACKETS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000)
}

/// Push `n` packets with the standard soak mix through one profile and
/// pin every classification count against the injector's draw ledger.
fn soak_profile(profile: Profile, n: usize, seed: u64) {
    let metrics = Arc::new(PipelineMetrics::new());
    let cfg = PipelineConfig {
        profile,
        snr_db: 30.0, // clean channel: only injected faults can fail
        decoder_iterations: 4,
        ..Default::default()
    };
    let mut pipe = UplinkPipeline::with_metrics(cfg, metrics.clone());
    pipe.set_fault_injector(FaultInjector::new(seed));

    let mut b = PacketBuilder::new(1000, 2000);
    let sizes = [64usize, 128, 300, 900];
    let mut ok = 0usize;
    for i in 0..n {
        let transport = if i % 3 == 0 {
            Transport::Tcp
        } else {
            Transport::Udp
        };
        let p = b.build(transport, sizes[i % sizes.len()]).unwrap();
        match pipe.process(&p) {
            Ok(_) => ok += 1,
            Err(e) => {
                // Every error must carry a valid category and Display.
                assert!(!e.category().name().is_empty());
                assert!(!e.to_string().is_empty());
            }
        }
    }

    let injected = pipe.fault_counts().expect("injector attached");
    let drawn = |k: FaultKind| injected[k as usize];
    let errs = |c: ErrorCategory| metrics.error_count(c);

    // Structural faults classify deterministically, 1:1 with draws.
    assert_eq!(
        errs(ErrorCategory::MalformedFrame),
        drawn(FaultKind::CorruptFrame) + drawn(FaultKind::TruncateFrame),
        "{profile:?}: every corrupted/truncated frame must reject at ingress"
    );
    assert_eq!(
        errs(ErrorCategory::SegmentationOverflow),
        drawn(FaultKind::CodeBlockCountLie),
        "{profile:?}: every block-count lie must reject at desegmentation"
    );
    assert_eq!(errs(ErrorCategory::DeadlineExceeded), 0);

    // LLR faults and clean traffic split between success and the two
    // decode-quality categories — nothing else.
    let soft =
        drawn(FaultKind::Clean) + drawn(FaultKind::FlipLlrSigns) + drawn(FaultKind::SaturateLlrs);
    assert_eq!(
        ok as u64 + errs(ErrorCategory::CrcMismatch) + errs(ErrorCategory::DecoderDiverged),
        soft,
        "{profile:?}: unaccounted outcome"
    );
    // A 30 dB channel decodes essentially every untouched packet. A
    // handful of payloads genuinely fail to converge within 4 turbo
    // iterations (residual BLER ~0.04% at this scale — they decode at
    // 8), so the floor is 99%, not exactness.
    assert!(
        ok as u64 * 100 >= drawn(FaultKind::Clean) * 99,
        "{profile:?}: clean packets failing ({ok} ok, {} clean drawn)",
        drawn(FaultKind::Clean)
    );
    assert_eq!(metrics.packets.get(), n as u64);
    assert_eq!(metrics.ok_packets.get(), ok as u64);
    assert_eq!(injected.iter().sum::<u64>(), n as u64);
    // The mix exercises every intended kind at this scale.
    for k in [
        FaultKind::Clean,
        FaultKind::CorruptFrame,
        FaultKind::TruncateFrame,
        FaultKind::FlipLlrSigns,
        FaultKind::SaturateLlrs,
        FaultKind::CodeBlockCountLie,
    ] {
        assert!(drawn(k) > 0, "{profile:?}: {} never drawn in {n}", k.name());
    }
}

#[test]
fn mixed_fault_soak_classifies_every_packet() {
    // Debug-build friendly slice of the full soak; identical logic.
    for (profile, seed) in [(Profile::Reference, 17), (Profile::Production, 18)] {
        soak_profile(profile, 420, seed);
    }
}

#[test]
#[ignore = "full-scale soak; run in release via CI's fault-soak job"]
fn full_fault_soak_every_backend() {
    let n = full_soak_packets();
    for (profile, seed) in [(Profile::Reference, 17), (Profile::Production, 18)] {
        soak_profile(profile, n, seed);
    }
}

#[test]
fn deadline_soak_times_out_every_packet() {
    let metrics = Arc::new(PipelineMetrics::new());
    let cfg = PipelineConfig {
        snr_db: 30.0,
        deadline_ns: Some(1),
        ..Default::default()
    };
    let pipe = UplinkPipeline::with_metrics(cfg, metrics.clone());
    let mut b = PacketBuilder::new(1000, 2000);
    for _ in 0..50 {
        let p = b.build(Transport::Udp, 128).unwrap();
        let e = pipe.process(&p).expect_err("1 ns budget");
        assert_eq!(e.category(), ErrorCategory::DeadlineExceeded);
    }
    assert_eq!(metrics.error_count(ErrorCategory::DeadlineExceeded), 50);
    assert_eq!(metrics.ok_packets.get(), 0);
}

#[test]
#[ignore = "full-scale multicore panic soak; run in release via CI's fault-soak job"]
fn multicore_panic_soak_survives() {
    let cfg = PipelineConfig {
        snr_db: 30.0,
        decoder_iterations: 4,
        ..Default::default()
    };
    let plan = FaultPlan {
        seed: 5,
        mix: FaultMix::only(FaultKind::Clean)
            .with_weight(FaultKind::Clean, 15)
            .with_weight(FaultKind::WorkerPanic, 1),
    };
    let rm = RunnerMetrics::new(true, RING_CAPACITY);
    let n = full_soak_packets() / 5;
    let rep = run_multicore_metered(cfg, &[(Transport::Udp, 256)], n, 4, &rm, Some(plan), None);
    assert!(rep.worker_restarts > 0, "panics must have fired: {rep:?}");
    assert_eq!(rep.packets + rep.worker_restarts, n);
    // Survivors are clean traffic; allow the turbo decoder's residual
    // non-convergence at 4 iterations (~0.04% of clean packets).
    assert!(
        rep.ok_packets * 100 >= rep.packets * 99,
        "survivors must decode: {rep:?}"
    );
    assert!(rep.mbps > 0.0);
    assert_eq!(rm.worker_restarts.get(), rep.worker_restarts as u64);
    assert_eq!(rm.quarantined.get(), rep.worker_restarts as u64);
}
