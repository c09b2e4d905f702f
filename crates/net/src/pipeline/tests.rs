//! Unit tests of the uplink pipeline: the chains driven through
//! `process` / the stage graph, and the pipeline's own policies.
#[cfg(test)]
use super::*;
use crate::faultinject::FaultMix;
use crate::metrics::Stage;
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
    let allocs_warm = pipe.hot.borrow().tx.scratch.allocations();
    assert!(allocs_warm > 0, "first packet must warm the scratch up");
    assert!(pipe.process(&p).is_ok());
    let hot = pipe.hot.borrow();
    assert_eq!(hot.tx.scratch.allocations(), allocs_warm);
    assert!(hot.tx.scratch.reuses() > 0);
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
        r.nanos.encode + r.nanos.transport + r.nanos.demap + r.nanos.arrangement + r.nanos.decode
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
