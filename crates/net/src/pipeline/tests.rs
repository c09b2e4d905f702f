//! Unit tests of the uplink pipeline: the chains driven through
//! `process` / the stage graph, and the pipeline's own policies.
#[cfg(test)]
use super::*;
use crate::faultinject::FaultMix;
use crate::packet::{PacketBuilder, Transport};
use crate::stagegraph::{StageGraph, StageGraphConfig};

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
fn production_and_reference_profiles_deliver_the_same_frames() {
    // Every production kernel is bit-exact with its oracle but the Q11
    // demapper, whose LLRs differ from the f32 reference's by
    // quantization: iteration counts may move, what is delivered may
    // not — serial and staged, one and several code blocks, every
    // modulation at a comfortable SNR, and a hopeless point both
    // profiles must fail with a typed decode error.
    let delivery = |r: &Result<PacketResult, PipelineError>| match r {
        Ok(p) => (None, p.tb_bits, p.code_blocks, p.coded_bits),
        Err(e) => {
            let f = e.decode_failure().copied().unwrap_or_default();
            (Some(e.category()), f.tb_bits, f.code_blocks, 0)
        }
    };
    let points = [
        (Modulation::Qpsk, 8.0, 6),
        (Modulation::Qam16, 14.0, 6),
        (Modulation::Qam64, 20.0, 6),
        (Modulation::Qam64, -10.0, 2),
    ];
    for (path, run) in [("serial", run as fn(_, _) -> _), ("staged", run_staged)] {
        for (modulation, snr_db, decoder_iterations) in points {
            for size in [256, 1400] {
                let [production, reference] =
                    [Profile::Production, Profile::Reference].map(|profile| {
                        let cfg = PipelineConfig {
                            profile,
                            modulation,
                            snr_db,
                            decoder_iterations,
                            ..Default::default()
                        };
                        delivery(&run(cfg, size))
                    });
                let at = format!("{path} {size} B {} at {snr_db} dB", modulation.name());
                assert_eq!(production, reference, "{at}");
                let decodes = snr_db > 0.0;
                assert_eq!(production.0.is_none(), decodes, "{at}: {production:?}");
                assert!(
                    matches!(
                        production.0,
                        None | Some(ErrorCategory::CrcMismatch | ErrorCategory::DecoderDiverged)
                    ),
                    "{at}: {production:?}"
                );
            }
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
    let metrics = std::sync::Arc::new(crate::metrics::PipelineMetrics::new());
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
fn fused_batching_reaches_zero_steady_state_allocation() {
    // The per-block `SoftStreams` clones are gone: after warm-up,
    // staging buffers come off the free list (capacity retained)
    // and no steady-state allocation remains.
    let metrics = std::sync::Arc::new(crate::metrics::PipelineMetrics::new());
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
}

#[test]
fn loopback_ofdm_stage_reaches_zero_steady_state_allocation() {
    // Mapper output, the sample stream before and after the
    // channel and the demodulated subcarriers are pooled in the hot
    // state: one allocation each on the first packet, then reuse.
    let metrics = std::sync::Arc::new(crate::metrics::PipelineMetrics::new());
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
fn every_packet_crosses_the_channel_a_fresh_pipeline_would() {
    // One pipeline's noise tape grows (256 → 1400 B resumes its draws)
    // and then serves shorter and equal frames from what it holds; each
    // packet must see the noise a fresh pipeline draws for it alone,
    // down to the bits of the samples. Once the longest frame has
    // passed, the tape neither draws nor allocates again.
    let cfg = PipelineConfig::default();
    let pipe = UplinkPipeline::new(cfg);
    let mut b = PacketBuilder::new(1000, 2000);
    let air_bits = |p: &UplinkPipeline| -> Vec<(u32, u32)> {
        let hot = p.hot.borrow();
        hot.air
            .iter()
            .map(|s| (s.re.to_bits(), s.im.to_bits()))
            .collect()
    };
    let fields = |r: Result<PacketResult, PipelineError>| {
        let r = r.expect("14 dB 16-QAM decodes");
        (r.tb_bits, r.code_blocks, r.coded_bits, r.decoder_iterations)
    };
    let mut after_longest = None;
    for size in [256usize, 1400, 64, 1024, 1400, 256] {
        let p = b.build(Transport::Udp, size).unwrap();
        let fresh = UplinkPipeline::new(cfg);
        assert_eq!(
            fields(pipe.process(&p)),
            fields(fresh.process(&p)),
            "{size} B"
        );
        assert!(
            air_bits(&pipe) == air_bits(&fresh),
            "{size} B: noise differs"
        );
        let noise = &pipe.hot.borrow().noise;
        let tape = (noise.recorded(), noise.capacity());
        if size == 1400 {
            after_longest.get_or_insert(tape);
        }
        if let Some(held) = after_longest {
            assert_eq!(held, tape, "{size} B grew the tape");
        }
    }
}

#[test]
fn staging_pool_survives_k_changes_without_fresh_allocation() {
    // Alternating packet sizes change K per packet; recycled
    // buffers resize in place. A growth shows up as a
    // staging_realloc (not a fresh alloc), and once the pool has
    // seen the largest K, even those stop.
    let metrics = std::sync::Arc::new(crate::metrics::PipelineMetrics::new());
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
fn degraded_pipeline_swaps_only_the_decoder() {
    // The ladder demotes the decoder and nothing else: a demoted packet
    // still runs the production front end and fused ingest, then
    // decodes serially on the scalar reference — which never touches
    // the native decoder's scratch.
    let metrics = std::sync::Arc::new(crate::metrics::PipelineMetrics::new());
    let cfg = PipelineConfig {
        modulation: Modulation::Qam64,
        snr_db: -10.0,
        decoder_iterations: 2,
        ..Default::default()
    };
    let pipe = UplinkPipeline::with_metrics(cfg, metrics.clone());
    let mut b = PacketBuilder::new(1000, 2000);
    for _ in 0..DEGRADE_AFTER {
        let _ = pipe.process(&b.build(Transport::Udp, 128).unwrap());
    }
    assert!(pipe.is_degraded(), "hopeless SNR must degrade the ladder");
    let counts = || {
        [
            metrics.frontend_packets.get(),
            metrics.fused_ingest_blocks.get(),
            metrics.op(Op::Decode).count(),
            metrics.decode_scratch_allocs.get() + metrics.decode_scratch_reuses.get(),
        ]
    };
    let before = counts();
    let admission = pipe.prepare(&b.build(Transport::Udp, 128).unwrap());
    assert!(
        matches!(admission, Admission::Ready(Err(_))),
        "{admission:?}"
    );
    let after = counts();
    assert_eq!(after[0], before[0] + 1, "production front end");
    assert_eq!(after[1], before[1] + 1, "fused ingest");
    assert!(after[2] > before[2], "decoded inline");
    assert_eq!(after[3], before[3], "not on the native decoder");
}

#[test]
fn a_staged_packet_completes_under_the_composition_it_was_staged_under() {
    // Nine packets staged on the production path; their completions
    // flip the ladder at the eighth. The ninth was staged before the
    // flip, so its trace event must say production (0), not demoted (2).
    let mut pipe = UplinkPipeline::new(PipelineConfig {
        snr_db: 30.0,
        ..Default::default()
    });
    let recorder = std::sync::Arc::new(FlightRecorder::with_capacity(16));
    pipe.set_recorder(recorder.clone());
    let mut b = PacketBuilder::new(1000, 2000);
    let staged: Vec<PreparedUplink> = (0..=DEGRADE_AFTER)
        .map(
            |_| match pipe.prepare(&b.build(Transport::Udp, 256).unwrap()) {
                Admission::Staged(prep) => prep,
                Admission::Ready(r) => panic!("30 dB stages: {r:?}"),
            },
        )
        .collect();
    for prep in staged {
        let decoded: Vec<Vec<u8>> = (0..prep.seg.c).map(|i| vec![0; prep.seg.k_of(i)]).collect();
        let r = pipe.complete(prep, &decoded, 1, 1);
        assert!(matches!(r, Err(PipelineError::DecoderDiverged(_))), "{r:?}");
    }
    assert!(pipe.is_degraded());
    let events = recorder.dump_last(16);
    assert_eq!(events.len(), DEGRADE_AFTER as usize + 1);
    assert!(events.iter().all(|e| e.backend == 0), "{events:?}");
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
    let mut pipe = UplinkPipeline::new(cfg);
    let recorder = std::sync::Arc::new(FlightRecorder::with_capacity(4));
    pipe.set_recorder(recorder.clone());
    let mut b = PacketBuilder::new(1000, 2000);
    let r = pipe
        .process(&b.build(Transport::Udp, 256).unwrap())
        .expect("clean channel");
    for op in [Op::Encode, Op::Channel, Op::Arrange, Op::Decode] {
        assert!(r.nanos[op] > 0, "{} took no time", op.name());
    }
    let laps: u64 = Op::ALL.iter().map(|&op| r.nanos[op]).sum();
    assert_eq!(r.nanos.total(), laps);
    // The trace's whole-packet time is every lap, the receive tail
    // (desegmentation, CRC24A check, L2) included.
    let events = recorder.dump_last(4);
    assert_eq!(events.len(), 1);
    assert_eq!(u64::from(events[0].total_ns), laps);
    assert_eq!(u64::from(events[0].decode_ns), r.nanos[Op::Decode]);
    assert_eq!(
        u64::from(events[0].prepare_ns) + u64::from(events[0].decode_ns),
        laps - r.nanos[Op::Deseg] - r.nanos[Op::CrcCheck] - r.nanos[Op::L2Decap]
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
    let metrics = std::sync::Arc::new(crate::metrics::PipelineMetrics::new());
    let cfg = PipelineConfig {
        snr_db: 30.0,
        ..Default::default()
    };
    let mut b = PacketBuilder::new(1000, 2000);
    let p = b.build(Transport::Udp, 256).unwrap();
    let r = UplinkPipeline::with_metrics(cfg, metrics.clone())
        .process(&p)
        .expect("clean channel");
    for op in Op::ALL {
        assert!(
            metrics.op(op).count() > 0,
            "op {} recorded nothing",
            op.name()
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
    let metrics = std::sync::Arc::new(crate::metrics::PipelineMetrics::new());
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
    let metrics = std::sync::Arc::new(crate::metrics::PipelineMetrics::new());
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
