//! Property tests for the out-of-order stage-graph runtime: per-UE
//! in-order delivery and outcome equivalence with the serial path under
//! random K mixes, fault-injection storms, worker panics, and multiple
//! worker counts — plus the lane-occupancy target on the paper-sweep
//! round-robin workload.
//!
//! The always-on tests stay small enough for debug builds; the
//! `#[ignore]`d throughput gate runs in release via CI (the stage graph
//! must be *at least* as fast as the serial early-stop path it
//! replaced, on AVX-512BW hosts).

use std::collections::BTreeMap;
use std::sync::Arc;
use vran_net::amc::MCS_TABLE;
use vran_net::error::{ErrorCategory, PipelineError};
use vran_net::faultinject::{FaultInjector, FaultKind, FaultMix};
use vran_net::l2::{BearerTx, L2_OVERHEAD};
use vran_net::metrics::{PipelineMetrics, RunnerMetrics, StageGraphMetrics};
use vran_net::observe::{BreakerConfig, BreakerStage};
use vran_net::packet::{PacketBuilder, Transport};
use vran_net::pipeline::{PacketResult, PipelineConfig, UplinkPipeline};
use vran_net::runner::{
    run_uplink_serial_mixed, run_uplink_stagegraph_metered, FaultPlan, RING_CAPACITY,
};
use vran_net::rx::Capture;
use vran_net::tx::TxChain;
use vran_net::{StageGraph, StageGraphConfig};
use vran_phy::bits::unpack_msb;
use vran_phy::channel::AwgnChannel;
use vran_phy::modulation::{Cplx, Modulation};
use vran_util::rng::SmallRng;

const SIZES: [usize; 7] = [64, 128, 300, 600, 900, 1200, 1400];

fn cfg() -> PipelineConfig {
    PipelineConfig {
        snr_db: 30.0,
        ..Default::default()
    }
}

/// Comparable outcome signature across Ok/Err results. Bit-exactness
/// of the decoded payload is enforced *inside* completion (the L2
/// delivery check fails the packet if the decapsulated payload differs
/// from the sent frame), so an `Ok` here certifies exact bits.
fn signature(r: &Result<PacketResult, PipelineError>) -> (bool, usize, usize, usize) {
    match r {
        Ok(p) => (true, p.tb_bits, p.code_blocks, p.decoder_iterations),
        Err(e) => {
            let f = e.decode_failure().copied().unwrap_or_default();
            (false, f.tb_bits, f.code_blocks, f.decoder_iterations)
        }
    }
}

/// Random packet-size / UE schedule for one seed, through
/// [`check_schedule`]; with `inject`, under the same fault storm on
/// both sides.
fn check_random_mix(seed: u64, n: usize, ues: u64, inject: bool) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let schedule: Vec<_> = (0..n)
        .map(|_| {
            let sz = SIZES[rng.gen_range_usize(0, SIZES.len())];
            let ue = rng.next_u64() % ues;
            let transport = if rng.next_u64().is_multiple_of(2) {
                Transport::Udp
            } else {
                Transport::Tcp
            };
            (ue, transport, sz)
        })
        .collect();
    check_schedule(cfg(), seed, &schedule, inject);
}

/// A `(ue, transport, size)` schedule run through the serial oracle
/// (`process`) and then admitted to a stage graph; per-UE delivery
/// order must equal per-UE admission order with identical outcome
/// signatures. `seed` labels the run and, with `inject`, seeds the
/// fault injectors. Returns the graph's batch counters.
fn check_schedule(
    cfg: PipelineConfig,
    seed: u64,
    schedule: &[(u64, Transport, usize)],
    inject: bool,
) -> Arc<StageGraphMetrics> {
    check_admissions(cfg, seed, schedule, inject, false)
}

/// [`check_schedule`]; with `as_captures` the graph is handed each
/// frame as a capture made outside it (transmit chain + the pipeline's
/// own channel) through `admit_capture`, the admission without the test
/// bench — `process` stays the oracle. Packets, captures and the
/// oracle's outcomes are all made before the first admission: work
/// between admissions would read as idle time and launch every block
/// alone, leaving the batch kernels untested.
fn check_admissions(
    cfg: PipelineConfig,
    seed: u64,
    schedule: &[(u64, Transport, usize)],
    inject: bool,
    as_captures: bool,
) -> Arc<StageGraphMetrics> {
    let mut b = PacketBuilder::new(1000, 2000);
    let packets: Vec<_> = schedule
        .iter()
        .map(|&(_, transport, sz)| b.build(transport, sz).unwrap())
        .collect();
    let mut serial = UplinkPipeline::new(cfg);
    let mut pipe = UplinkPipeline::new(cfg);
    if inject {
        // Same seed on both sides: prepare draws one fault per packet
        // in the same order process does, so the storms are identical.
        serial.set_fault_injector(FaultInjector::new(seed));
        pipe.set_fault_injector(FaultInjector::new(seed));
    }
    let expect: Vec<_> = packets
        .iter()
        .map(|p| signature(&serial.process(p)))
        .collect();
    let air: Vec<Air> = if as_captures {
        packets.iter().map(|p| Air::new(&cfg, &p.frame)).collect()
    } else {
        Vec::new()
    };

    let m = Arc::new(StageGraphMetrics::default());
    let mut graph = StageGraph::new(pipe, StageGraphConfig::default());
    graph.set_metrics(m.clone());
    for (i, (&(ue, ..), p)) in schedule.iter().zip(&packets).enumerate() {
        if as_captures {
            graph.admit_capture(ue, &air[i].capture(), &p.frame);
        } else {
            graph.admit(ue, p);
        }
    }
    graph.drain();
    let n = schedule.len();
    let ues = schedule.iter().map(|s| s.0 + 1).max().unwrap_or(0);

    let mut got: Vec<(u64, (bool, usize, usize, usize))> = Vec::new();
    while let Some((ue, r)) = graph.pop_completed() {
        got.push((ue, signature(&r)));
    }
    assert_eq!(got.len(), n, "seed {seed}: every admission delivers");
    for ue in 0..ues {
        let delivered: Vec<_> = got
            .iter()
            .filter(|(u, _)| *u == ue)
            .map(|(_, s)| *s)
            .collect();
        let want: Vec<_> = expect
            .iter()
            .zip(schedule)
            .filter(|(_, s)| s.0 == ue)
            .map(|(s, _)| *s)
            .collect();
        assert_eq!(
            delivered, want,
            "seed {seed} UE {ue}: delivery must be admission-ordered and serial-equivalent"
        );
    }
    m
}

/// `frame` as the loopback would put it on the air — L2 framing, the
/// transmit chain under the pipeline's grant, the pipeline's channel.
struct Air {
    samples: Vec<Cplx>,
    n_symbols: usize,
    tb_bits: usize,
    llr_scale: f32,
}

impl Air {
    fn new(cfg: &PipelineConfig, frame: &[u8]) -> Self {
        let pdu = BearerTx::default()
            .encapsulate(frame, frame.len() + L2_OVERHEAD)
            .expect("TB sized to fit");
        let mut tx = TxChain::default();
        let grant = UplinkPipeline::new(*cfg).grant();
        let seg = tx
            .tx(&unpack_msb(&pdu, pdu.len() * 8), &grant, &mut ())
            .expect("grid frames segment");
        let mut channel = AwgnChannel::new(cfg.snr_db, cfg.seed);
        Self {
            samples: channel.apply(&tx.samples),
            n_symbols: tx.symbols.len(),
            tb_bits: seg.b,
            llr_scale: Capture::llr_scale_of(&channel),
        }
    }

    fn capture(&self) -> Capture<'_> {
        Capture {
            samples: &self.samples,
            n_symbols: self.n_symbols,
            tb_bits: self.tb_bits,
            llr_scale: self.llr_scale,
        }
    }
}

#[test]
fn staged_path_matches_process_over_the_parity_grid() {
    // `chain_parity`'s grid — every size class × modulation × SNR
    // (operating, `amc`'s rate-1/2 threshold, hopeless) × transport —
    // through prepare → pooled launches → complete, so the staging
    // half of the receive chain is held to `process` wherever the
    // serial half is held to the bare chains.
    for (label, (modulation, operating)) in [
        (Modulation::Qpsk, 8.0),
        (Modulation::Qam16, 14.0),
        (Modulation::Qam64, 20.0),
    ]
    .into_iter()
    .enumerate()
    {
        let threshold = MCS_TABLE
            .iter()
            .find(|e| e.modulation == modulation && e.rate_x1024 == 2048)
            .expect("every modulation has a rate-1/2 entry")
            .min_snr_db;
        for snr_db in [operating, threshold, -10.0] {
            let schedule: Vec<_> = [64usize, 256, 512, 1024, 1400, 1500]
                .into_iter()
                .flat_map(|sz| [(Transport::Udp, sz), (Transport::Tcp, sz)])
                .enumerate()
                .map(|(i, (transport, sz))| (i as u64 % 3, transport, sz))
                .collect();
            let cfg = PipelineConfig {
                modulation,
                snr_db,
                ..Default::default()
            };
            for as_captures in [false, true] {
                let m = check_admissions(cfg, label as u64, &schedule, false, as_captures);
                assert!(
                    m.quad_blocks.get() + m.pair_blocks.get() > 0,
                    "{modulation:?} at {snr_db} dB: the staged path ran no batch kernel"
                );
            }
        }
    }
}

#[test]
fn a_capture_that_carries_another_frame_is_a_crc_mismatch() {
    let cfg = cfg();
    let mut b = PacketBuilder::new(1000, 2000);
    let sent = b.build(Transport::Udp, 600).unwrap().frame;
    let other = b.build(Transport::Udp, 600).unwrap().frame;
    assert_ne!(sent, other);
    let mut graph = StageGraph::with_config(cfg, StageGraphConfig::default());
    let air = Air::new(&cfg, &sent);
    let cap = air.capture();
    graph.admit_capture(0, &cap, &sent);
    graph.admit_capture(0, &cap, &other);
    // a capture the front end refuses retires without staging
    let short = Capture {
        samples: &cap.samples[..cap.samples.len() - 1],
        ..cap
    };
    graph.admit_capture(0, &short, &sent);
    graph.drain();
    let outcomes: Vec<_> = std::iter::from_fn(|| graph.pop_completed())
        .map(|(_, r)| r.map(|_| ()).map_err(|e| e.category()))
        .collect();
    assert_eq!(
        outcomes,
        [
            Ok(()),
            Err(ErrorCategory::CrcMismatch),
            Err(ErrorCategory::MalformedFrame)
        ]
    );
}

#[test]
fn random_k_mixes_deliver_in_order_and_match_serial() {
    for seed in [11, 22, 33] {
        check_random_mix(seed, 48, 6, false);
    }
}

#[test]
fn fault_storms_preserve_order_and_equivalence() {
    // The default injector mix covers frame corruption, truncation,
    // LLR sabotage and block-count lies — every taxonomy path that
    // does not panic the worker.
    for seed in [17, 18] {
        check_random_mix(seed, 48, 4, true);
    }
}

#[test]
fn worker_panic_storm_conserves_packets() {
    let plan = FaultPlan {
        seed: 5,
        mix: FaultMix::only(FaultKind::Clean)
            .with_weight(FaultKind::Clean, 7)
            .with_weight(FaultKind::WorkerPanic, 1),
    };
    let rm = RunnerMetrics::new(true, RING_CAPACITY);
    let n = 64;
    let rep = run_uplink_stagegraph_metered(
        cfg(),
        &[(Transport::Udp, 128), (Transport::Tcp, 300)],
        n,
        2,
        StageGraphConfig::default(),
        &rm,
        None,
        Some(plan),
        None,
        None,
    );
    assert!(rep.worker_restarts > 0, "panics must have fired: {rep:?}");
    assert_eq!(
        rep.packets + rep.worker_restarts,
        n,
        "a panic consumes exactly its own packet: {rep:?}"
    );
    assert_eq!(rm.worker_restarts.get(), rep.worker_restarts as u64);
    assert_eq!(rm.quarantined.get(), rep.worker_restarts as u64);
    assert!(rep.ok_packets > 0, "survivors decode: {rep:?}");
}

#[test]
fn paper_sweep_round_robin_hits_occupancy_target() {
    // The acceptance workload: both transports at every paper sweep
    // size, round-robin. Same-K tasks re-arrive well inside the age
    // bound, so quads dominate — the ISSUE's ≳90 % zmm lane occupancy.
    let classes: Vec<(Transport, usize)> = [Transport::Udp, Transport::Tcp]
        .into_iter()
        .flat_map(|t| SIZES.iter().map(move |&s| (t, s)))
        .collect();
    for workers in [1, 2] {
        let sg = Arc::new(StageGraphMetrics::default());
        let rep = run_uplink_stagegraph_metered(
            cfg(),
            &classes,
            280,
            workers,
            StageGraphConfig::default(),
            &RunnerMetrics::new(false, RING_CAPACITY),
            Some(sg.clone()),
            None,
            None,
            None,
        );
        assert_eq!(rep.packets, 280);
        assert!(
            sg.lane_occupancy() >= 0.9,
            "{workers} workers: occupancy {:.3} below the 0.9 target \
             (quad={} pair={} single={})",
            sg.lane_occupancy(),
            sg.quad_blocks.get(),
            sg.pair_blocks.get(),
            sg.single_blocks.get()
        );
    }
}

#[test]
fn resequencer_holds_per_ue_order_while_breakers_trip() {
    // Direct single-threaded graph, decoder breaker armed, under an
    // LLR-sabotage storm dense enough to trip it repeatedly. Each UE
    // admits strictly growing payload sizes, so the tb_bits of its
    // delivered Ok packets must come back strictly increasing — any
    // ROB misordering under the breaker's fast-fail churn would break
    // the monotone subsequence.
    let cfg = PipelineConfig {
        snr_db: 30.0,
        breakers: Some(BreakerConfig {
            trip_after: 3,
            cooldown_packets: 4,
        }),
        ..Default::default()
    };
    let mut pipe = UplinkPipeline::new(cfg);
    pipe.set_fault_injector(FaultInjector::with_mix(
        41,
        FaultMix::only(FaultKind::Clean).with_weight(FaultKind::SaturateLlrs, 2),
    ));
    let mut graph = StageGraph::new(pipe, StageGraphConfig::default());
    let sizes = [64usize, 150, 300, 450, 600, 800, 1000, 1200, 1400];
    let ues = 4u64;
    let mut b = PacketBuilder::new(1000, 2000);
    for &sz in &sizes {
        for ue in 0..ues {
            let p = b.build(Transport::Udp, sz).unwrap();
            graph.admit(ue, &p);
        }
    }
    graph.drain();

    let mut per_ue: Vec<Vec<Result<usize, ()>>> = vec![Vec::new(); ues as usize];
    while let Some((ue, r)) = graph.pop_completed() {
        per_ue[ue as usize].push(r.map(|p| p.tb_bits).map_err(|_| ()));
    }
    let (trips, _) = graph
        .pipeline()
        .breaker_counts(BreakerStage::Decoder)
        .expect("breakers armed");
    assert!(trips > 0, "the storm must trip the decoder breaker");
    let mut total_ok = 0;
    for (ue, results) in per_ue.iter().enumerate() {
        assert_eq!(results.len(), sizes.len(), "UE {ue}: nothing lost");
        let oks: Vec<usize> = results.iter().filter_map(|r| r.ok()).collect();
        total_ok += oks.len();
        assert!(
            oks.windows(2).all(|w| w[0] < w[1]),
            "UE {ue}: Ok deliveries out of admission order: {oks:?}"
        );
    }
    assert!(total_ok > 0, "clean packets survive the storm");
}

#[test]
fn chaos_storm_conserves_packets_with_breakers_armed() {
    // Deadline squeeze + worker-kill wave with the equalizer breaker
    // armed: every admission must be accounted for as a delivery or a
    // restart, with the breaker tripping on the sustained
    // DeadlineExceeded aborts and fast-fails bypassing the protected
    // stages.
    let cfg = PipelineConfig {
        snr_db: 30.0,
        deadline_ns: Some(1),
        breakers: Some(BreakerConfig {
            trip_after: 4,
            cooldown_packets: 8,
        }),
        ..Default::default()
    };
    let plan = FaultPlan {
        seed: 9,
        mix: FaultMix::only(FaultKind::Clean)
            .with_weight(FaultKind::Clean, 6)
            .with_weight(FaultKind::WorkerPanic, 1),
    };
    let pm = Arc::new(PipelineMetrics::new(true));
    let rm = RunnerMetrics::new(true, RING_CAPACITY);
    let n = 96;
    let rep = run_uplink_stagegraph_metered(
        cfg,
        &[(Transport::Udp, 128), (Transport::Tcp, 300)],
        n,
        2,
        StageGraphConfig::default(),
        &rm,
        None,
        Some(plan),
        None,
        Some(pm.clone()),
    );
    assert!(rep.worker_restarts > 0, "panics must have fired: {rep:?}");
    assert_eq!(
        rep.packets + rep.worker_restarts,
        n,
        "every admission is a delivery or a restart: {rep:?}"
    );
    assert!(
        pm.error_count(ErrorCategory::DeadlineExceeded) > 0,
        "the 1 ns budget must abort surviving packets"
    );
    assert!(
        pm.breaker_trips.get() > 0,
        "sustained deadline aborts must trip the equalizer breaker"
    );
    assert!(
        pm.breaker_fastfails.get() > 0,
        "open breakers must fast-fail admissions during cooldown"
    );
    assert_eq!(rep.ok_packets, 0, "nothing beats a 1 ns deadline");
}

#[test]
fn staged_decode_files_what_serial_files_once_per_flush() {
    // The same packets through `process` into registry A and through a
    // stage graph into registry B. Both decode on the receive chain's
    // decoders and scratch and are filed in one place, so B counts
    // every SISO pass and iteration exactly once, laps decode once per
    // pool flush, and sees the scratch it ran on. One- and two-block
    // packets, back to back, so quads launch.
    let mut b = PacketBuilder::new(1000, 2000);
    let packets: Vec<_> = [Transport::Udp, Transport::Tcp]
        .into_iter()
        .flat_map(|t| [64usize, 256, 1024, 1400, 1500].map(|sz| (t, sz)))
        .cycle()
        .take(40)
        .map(|(t, sz)| b.build(t, sz).unwrap())
        .collect();
    let a = Arc::new(PipelineMetrics::default());
    let serial = UplinkPipeline::with_metrics(cfg(), a.clone());
    for p in &packets {
        serial.process(p).expect("the oracle delivers");
    }
    let reg_b = Arc::new(PipelineMetrics::default());
    let g = Arc::new(StageGraphMetrics::default());
    let pipe = UplinkPipeline::with_metrics(cfg(), reg_b.clone());
    let mut graph = StageGraph::new(pipe, StageGraphConfig::default());
    graph.set_metrics(g.clone());
    for (i, p) in packets.iter().enumerate() {
        graph.admit(i as u64 % 10, p);
    }
    graph.drain();
    let delivered: Vec<_> = std::iter::from_fn(|| graph.pop_completed()).collect();
    assert_eq!(delivered.len(), packets.len());
    assert!(delivered.iter().all(|(_, r)| r.is_ok()));
    assert!(g.quad_blocks.get() > 0, "the zmm pool path ran");

    let snap = |m: &PipelineMetrics| m.snapshot().into_iter().collect::<BTreeMap<_, _>>();
    let (sa, sb) = (snap(&a), snap(&reg_b));
    for key in ["decode.siso_passes", "decoder_iterations"] {
        assert!(sa[key] > 0.0, "{key}");
        assert_eq!(sb[key], sa[key], "{key}: staged against serial");
    }
    let flushes = g.flush_lanes_full.get() + g.flush_deadline.get() + g.flush_drain.get();
    assert_eq!(
        sb["stage.decode.count"],
        (flushes + g.flush_idle.get()) as f64
    );
    assert!(sb["decode_scratch_allocs"] + sb["decode_scratch_reuses"] > 0.0);
}

#[test]
#[ignore = "release-mode perf gate; run via CI on AVX-512BW hosts"]
fn stagegraph_throughput_beats_serial_on_wide_hosts() {
    if !vran_phy::turbo::NativeBatchTurboDecoder::is_zmm_accelerated() {
        eprintln!("skipping: no AVX-512BW quad path on this host");
        return;
    }
    let classes: Vec<(Transport, usize)> = [Transport::Udp, Transport::Tcp]
        .into_iter()
        .flat_map(|t| SIZES.iter().map(move |&s| (t, s)))
        .collect();
    let n = 1400;
    // The producer takes a core of its own: with every core a worker,
    // both sides oversubscribe and the ratio measures the scheduler.
    let workers =
        std::thread::available_parallelism().map_or(1, |p| p.get().saturating_sub(1).max(1));
    // The baseline is the path users had before the stage graph: one
    // packet at a time, each block stopping on its CRC. Median of 15
    // alternated pairs, each side at least half a second, rides out
    // scheduler noise. Both sides carry the same packets, so the ratio
    // of elapsed times is the ratio of throughputs.
    let speedup = vran_util::paired::paired_ratio(
        15,
        0.5,
        || {
            let graph = run_uplink_stagegraph_metered(
                cfg(),
                &classes,
                n,
                workers,
                StageGraphConfig::default(),
                &RunnerMetrics::new(false, RING_CAPACITY),
                None,
                None,
                None,
                None,
            );
            assert_eq!(graph.packets, n);
            graph.elapsed_s
        },
        || {
            let serial = run_uplink_serial_mixed(cfg(), &classes, n, workers);
            assert_eq!(serial.packets, n);
            serial.elapsed_s
        },
    );
    let (median, ratios) = (speedup.median, &speedup.ratios);
    eprintln!("stage graph over serial: median {median:.3} at {workers} workers");
    assert!(
        median >= 1.0,
        "stage graph must not lose to the serial early-stop path on zmm hosts: \
         median speedup {median:.3} at {workers} workers (all: {ratios:?})"
    );
}
