//! Fault-injection soak: thousands of deliberately damaged packets
//! through every decoder backend, asserting the pipeline never panics,
//! never hangs, and classifies every outcome into the typed error
//! taxonomy — with exact per-category counts pinned against the
//! injector's own draw ledger.
//!
//! The always-on tests keep the packet count small enough for debug
//! builds; CI's `fault-soak` job runs the `#[ignore]`d full soak in
//! release mode (`cargo test --release -p vran-net --test fault_soak
//! -- --ignored`), which defaults to 10 000 packets per backend and
//! honors `FAULT_SOAK_PACKETS` for larger runs.

use std::sync::Arc;
use vran_net::error::ErrorCategory;
use vran_net::faultinject::{FaultInjector, FaultKind, FaultMix};
use vran_net::harq::{HarqReceiver, HarqTransmitter};
use vran_net::metrics::{PipelineMetrics, RunnerMetrics};
use vran_net::packet::{PacketBuilder, Transport};
use vran_net::pipeline::{DecoderBackend, PipelineConfig, UplinkPipeline};
use vran_net::runner::{run_multicore_metered, FaultPlan, RING_CAPACITY};

fn full_soak_packets() -> usize {
    std::env::var("FAULT_SOAK_PACKETS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000)
}

/// Push `n` packets with the standard soak mix through one backend and
/// pin every classification count against the injector's draw ledger.
fn soak_backend(backend: DecoderBackend, n: usize, seed: u64) {
    let metrics = Arc::new(PipelineMetrics::new(true));
    let cfg = PipelineConfig {
        backend,
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
        "{backend:?}: every corrupted/truncated frame must reject at ingress"
    );
    assert_eq!(
        errs(ErrorCategory::SegmentationOverflow),
        drawn(FaultKind::CodeBlockCountLie),
        "{backend:?}: every block-count lie must reject at desegmentation"
    );
    assert_eq!(errs(ErrorCategory::DeadlineExceeded), 0);

    // LLR faults and clean traffic split between success and the two
    // decode-quality categories — nothing else.
    let soft =
        drawn(FaultKind::Clean) + drawn(FaultKind::FlipLlrSigns) + drawn(FaultKind::SaturateLlrs);
    assert_eq!(
        ok as u64 + errs(ErrorCategory::CrcMismatch) + errs(ErrorCategory::DecoderDiverged),
        soft,
        "{backend:?}: unaccounted outcome"
    );
    // A 30 dB channel decodes essentially every untouched packet. A
    // handful of payloads genuinely fail to converge within 4 turbo
    // iterations (residual BLER ~0.04% at this scale — they decode at
    // 8), so the floor is 99%, not exactness.
    assert!(
        ok as u64 * 100 >= drawn(FaultKind::Clean) * 99,
        "{backend:?}: clean packets failing ({ok} ok, {} clean drawn)",
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
        assert!(drawn(k) > 0, "{backend:?}: {} never drawn in {n}", k.name());
    }
}

#[test]
fn mixed_fault_soak_classifies_every_packet() {
    // Debug-build friendly slice of the full soak; identical logic.
    for (backend, seed) in [(DecoderBackend::Scalar, 17), (DecoderBackend::Native, 18)] {
        soak_backend(backend, 420, seed);
    }
}

#[test]
#[ignore = "full-scale soak; run in release via CI's fault-soak job"]
fn full_fault_soak_every_backend() {
    let n = full_soak_packets();
    for (backend, seed) in [(DecoderBackend::Scalar, 17), (DecoderBackend::Native, 18)] {
        soak_backend(backend, n, seed);
    }
}

#[test]
fn deadline_soak_times_out_every_packet() {
    let metrics = Arc::new(PipelineMetrics::new(true));
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
fn harq_drop_soak_degrades_gracefully() {
    // Retransmissions are randomly dropped on the "air interface";
    // the receiver must never panic, never see an invalid rv, and
    // every trial must end in a clean verdict within the rv schedule.
    let mut inj = FaultInjector::with_mix(
        77,
        FaultMix::only(FaultKind::DropHarqRetransmission).with_weight(FaultKind::Clean, 2),
    );
    let k = 208;
    let e = 230; // aggressive rate: first attempts often need help
    let mut decoded = 0usize;
    let mut dropped = 0usize;
    for trial in 0..40u64 {
        let payload = vran_phy::bits::random_bits(k - 24, trial + 1);
        let block = vran_phy::crc::CRC24B.attach(&payload);
        let cw = vran_phy::turbo::TurboEncoder::new(k).encode(&block);
        let mut tx = HarqTransmitter::new(&cw);
        let mut rx = HarqReceiver::new(k, 6);
        while let Some((rv, coded)) = tx.next_transmission(e) {
            let kind = inj.next_kind();
            if inj.drop_harq_retransmission(kind) {
                dropped += 1;
                continue; // lost on the air: receiver never sees it
            }
            // 1-in-6 sign flips — needs combining to close.
            let llrs: Vec<vran_phy::llr::Llr> = coded
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    let v: vran_phy::llr::Llr = if b == 0 { 24 } else { -24 };
                    if (i + trial as usize).is_multiple_of(6) {
                        -v
                    } else {
                        v
                    }
                })
                .collect();
            let out = rx.receive(&llrs, rv).expect("scheduled rv is valid");
            assert!(out.attempts <= 4);
            if out.ok {
                assert_eq!(out.bits, block);
                decoded += 1;
                break;
            }
        }
    }
    assert!(dropped > 0, "the drop fault must have fired");
    assert!(
        decoded > 0,
        "combining must still rescue some blocks despite drops"
    );
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
