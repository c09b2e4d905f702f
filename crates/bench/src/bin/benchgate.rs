//! `benchgate` — the perf-trajectory regression gate.
//!
//! Runs the pinned, deterministic suites — the arrangement kernels,
//! original vs APCM, at all three register widths through the
//! `vran-uarch` simulator, static uplink and downlink pipeline
//! invariants (the latter once per encoder backend, so scalar/packed
//! bit-equality is itself gated), the fault-injection
//! classification counts, the out-of-order stage-graph runtime's
//! deterministic outcome and batch-formation counters (quad / pair /
//! single launches, flush reasons, zmm lane occupancy), plus the
//! deterministic cell-scale smoke preset with its p50/p95/p99
//! tail-latency percentiles, and the chaos-recovery suite (the phased
//! storm schedules of `vran_net::chaos`, pinning the measured
//! time-to-recover, breaker trip/reset counts, worker restarts, and
//! the flight-recorder's <2 % overhead boolean) — and seven
//! informational (never gating) suites:
//! a smoke run of the threaded packet pipeline, the native
//! turbo-decoder fast path, the packed turbo-encoder fast path
//! (scalar per-bit reference vs each runtime-dispatched ISA level,
//! plus the packed-word rate matcher and the combined transmit
//! chain), the downlink and uplink multi-worker scale-out
//! sweeps, the stage-graph vs per-packet serial wall-clock
//! throughput comparison, the full cell-scale diurnal sweep with its
//! cores-per-(cells × 300 Mbps) capacity figures, and the raw
//! flight-recorder overhead timings behind the gated boolean. Writes
//! `BENCH_current.json` and, with `--check`, compares the gated
//! suites against `BENCH_baseline.json`, exiting non-zero on
//! regression. `--only suite,…` restricts both the run and the gate
//! to the named suites (the CI smoke job runs
//! `--only cell_scale_smoke`); `--summary <path>` writes a markdown
//! p50/p95/p99 table for `$GITHUB_STEP_SUMMARY`; `--flight-dump
//! <path>` writes the chaos run's last flight-recorder events as JSON
//! (the CI failure artifact).
//!
//! ```text
//! benchgate [--check] [--write-baseline]
//!           [--baseline <path>] [--out <path>] [--quiet]
//!           [--only <suite,...>] [--summary <path>]
//!           [--flight-dump <path>]
//! ```

use std::process::ExitCode;
use std::time::Instant;
use vran_arrange::{best_fused, ApcmVariant, ArrangeKernel, FusedImpl, Mechanism};
use vran_bench::cellscale::{cell_scale_full_suite, cell_scale_smoke_suite};
use vran_bench::gate::{compare, BenchReport, Suite};
use vran_bench::{interleaved_workload, turbo_workload};
use vran_net::chaos::{run_cell_chaos, run_runner_chaos, CellChaosConfig, RunnerChaosConfig};
use vran_net::downlink::{DownlinkConfig, DownlinkPipeline};
use vran_net::error::ErrorCategory;
use vran_net::faultinject::{FaultInjector, FaultKind};
use vran_net::metrics::StageGraphMetrics;
use vran_net::metrics::{PipelineMetrics, RunnerMetrics, Stage, UarchMetrics};
use vran_net::observe::FlightRecorder;
use vran_net::packet::PacketBuilder;
use vran_net::pipeline::{DecoderBackend, EncoderBackend, PipelineConfig, UplinkPipeline};
use vran_net::runner::{
    downlink_scaleout_sweep, run_throughput_metered, run_uplink_serial_mixed,
    run_uplink_stagegraph_metered, uplink_scaleout_sweep, RING_CAPACITY,
};
use vran_net::{StageGraphConfig, Transport};
use vran_phy::bits::{extend_bits_from_words, random_bits};
use vran_phy::crc::{best_crc, CrcImpl};
use vran_phy::demap::{best_demap, DemapImpl};
use vran_phy::rate_match::{PackedRateMatcher, RateMatcher};
use vran_phy::scrambler::{best_descramble, DescrambleImpl};
use vran_phy::turbo::{
    DecodeScratch, DecoderIsa, EncodeScratch, EncoderIsa, NativeBatchTurboDecoder,
    NativeTurboDecoder, PackedTurboEncoder, TurboDecoder, TurboEncoder,
};
use vran_simd::RegWidth;
use vran_uarch::{CoreConfig, CoreSim};
use vran_util::paired::{paired_ratio, PairedRatio};

/// Code-block size for the simulator suite (the paper's K = 6144).
const SIM_K: usize = 6144;
/// Workload seed — pinned so traces (and thus cycle counts) are stable.
const SIM_SEED: u64 = 1;
/// Packets pushed through the wall-clock smoke run.
const SMOKE_PACKETS: usize = 16;
/// Wire bytes per smoke packet.
const SMOKE_WIRE_LEN: usize = 512;
/// Timed repetitions per decoder configuration (median taken).
const DECODE_REPS: usize = 25;
/// Decoder iterations for the fast-path suite — fixed, no CRC early
/// stop, so every configuration does identical work.
const DECODE_ITERS: usize = 4;
/// Packets per backend pushed through the fault-classification suite.
const FAULT_PACKETS: usize = 240;
/// Fault-injector seeds (match the fault-soak test family).
const FAULT_SEED_SCALAR: u64 = 17;
const FAULT_SEED_NATIVE: u64 = 18;
/// Timed repetitions per encoder configuration (median taken).
const ENCODE_REPS: usize = 25;
/// Packets per worker-count point of the downlink scale-out sweep.
const SCALEOUT_PACKETS: usize = 12;
/// Wire bytes per scale-out packet.
const SCALEOUT_WIRE_LEN: usize = 256;
/// Largest worker count swept.
const SCALEOUT_MAX_WORKERS: usize = 4;
/// Packets per configuration of the gated stage-graph suite — twelve
/// full rounds of the 14 paper-sweep classes.
const STAGEGRAPH_PACKETS: usize = 168;
/// Packets per run of the ungated stage-graph wall-clock comparison.
const STAGEGRAPH_WALLCLOCK_PACKETS: usize = 420;
/// Seed for both chaos storm schedules (cell-scale and runner).
const CHAOS_SEED: u64 = 7;
/// Wire sizes cycled by the fused-ingest A/B runs (one TB per size,
/// spanning single-block and multi-block K).
const FUSED_SIZES: [usize; 4] = [64, 300, 900, 1400];
/// Measured repetitions of the fused-ingest size cycle per side (one
/// extra warm-up cycle fills the pools first).
const FUSED_REPS: usize = 40;
/// Pairs of the flight-recorder overhead measurement: single pairs
/// spread ± 3 % (quartiles) on a shared 2-vCPU host, so it takes this
/// many for their median to sit within ≈ 0.7 % of the true ratio.
const OVERHEAD_RUNS: usize = 81;
/// Seconds each side of an overhead pair runs for at least. Just under
/// one 420-packet run here (≈ 0.25 s): the host drifts over seconds,
/// so a pair of single runs is tighter than a pair of double runs.
const OVERHEAD_SIDE_S: f64 = 0.2;
/// Flight-recorder events dumped for the CI artifact.
const FLIGHT_DUMP_EVENTS: usize = 256;

struct Args {
    check: bool,
    write_baseline: bool,
    baseline: String,
    out: String,
    quiet: bool,
    /// Restrict the run (and the gate) to these suites; empty = all.
    only: Vec<String>,
    /// Write a markdown p50/p95/p99 summary here (for CI step summaries).
    summary: Option<String>,
    /// Write the chaos run's flight-recorder dump here (CI artifact).
    flight_dump: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        check: false,
        write_baseline: false,
        baseline: "BENCH_baseline.json".into(),
        out: "BENCH_current.json".into(),
        quiet: false,
        only: Vec::new(),
        summary: None,
        flight_dump: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        match a.as_str() {
            "--check" => args.check = true,
            "--write-baseline" => args.write_baseline = true,
            "--baseline" => args.baseline = it.next().ok_or("--baseline needs a path")?,
            "--out" => args.out = it.next().ok_or("--out needs a path")?,
            "--quiet" => args.quiet = true,
            "--only" => {
                let list = it.next().ok_or("--only needs a comma-separated list")?;
                args.only
                    .extend(list.split(',').map(|s| s.trim().to_string()));
            }
            "--summary" => args.summary = Some(it.next().ok_or("--summary needs a path")?),
            "--flight-dump" => {
                args.flight_dump = Some(it.next().ok_or("--flight-dump needs a path")?)
            }
            "--help" | "-h" => {
                return Err("usage: benchgate [--check] [--write-baseline] \
                            [--baseline <path>] [--out <path>] [--quiet] \
                            [--only <suite,...>] [--summary <path>] \
                            [--flight-dump <path>]"
                    .into())
            }
            other => return Err(format!("unknown argument: {other}")),
        }
    }
    Ok(args)
}

/// Current commit, or "unknown" outside a git checkout.
fn git_sha() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|| "unknown".into())
}

/// Gated: arrangement kernels original-vs-APCM at every width through
/// the port-level simulator. Deterministic by construction.
fn arrange_sim_suite() -> Suite {
    let mut suite = Suite::new("arrange_sim", true);
    let input = interleaved_workload(SIM_K, SIM_SEED);
    let sim = CoreSim::new(CoreConfig::beefy().warmed());
    for width in RegWidth::ALL {
        let mut cycles_of = Vec::new();
        for mech in [
            Mechanism::Baseline,
            Mechanism::Apcm(ApcmVariant::Shuffle),
            Mechanism::Apcm(ApcmVariant::MaskRotate),
        ] {
            let kern = ArrangeKernel::new(width, mech);
            let (_, trace) = kern.arrange(&input, true);
            let report = sim.run(&trace.expect("trace requested"));
            let m = UarchMetrics::new(true);
            m.record_report(&report);
            let prefix = format!("{}.{}", width.name(), mech.name());
            suite.push(format!("{prefix}.cycles"), report.cycles as f64);
            suite.push(format!("{prefix}.uops"), report.uops as f64);
            suite.push(format!("{prefix}.upc"), m.upc());
            for (p, pressure) in m.port_pressure().iter().enumerate() {
                suite.push(format!("{prefix}.port{p}.pressure"), *pressure);
            }
            cycles_of.push((mech.name(), report.cycles));
        }
        let base = cycles_of[0].1 as f64;
        for (name, cycles) in &cycles_of[1..] {
            suite.push(
                format!("{}.{}.speedup", width.name(), name),
                base / *cycles as f64,
            );
        }
    }
    suite
}

/// Median-of-`reps` wall-clock nanoseconds for one call of `f`, after
/// two warm-up calls.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    f();
    f();
    let mut samples: Vec<u64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

/// Ungated: the turbo-decoder fast path — scalar reference vs the
/// native kernels at every ISA level the host dispatches to, plus the
/// AVX2 two-block and AVX-512BW four-block batches, all on the pinned
/// K = 6144 workload.
fn decoder_native_suite() -> Suite {
    let mut suite = Suite::new("decoder_native", false);
    let (_, input) = turbo_workload(SIM_K, SIM_SEED);
    // Information bits delivered per decode call.
    let per_block_bits = SIM_K as f64;

    let scalar = TurboDecoder::new(SIM_K, DECODE_ITERS);
    let scalar_ns = median_ns(DECODE_REPS, || {
        std::hint::black_box(scalar.decode(std::hint::black_box(&input)));
    });
    suite.push("scalar.ns_per_block", scalar_ns);
    suite.push("scalar.bits_per_s", per_block_bits * 1e9 / scalar_ns);

    for isa in DecoderIsa::available() {
        let dec = NativeTurboDecoder::with_isa(SIM_K, DECODE_ITERS, isa);
        let mut scratch = DecodeScratch::new();
        let mut bits = Vec::new();
        let ns = median_ns(DECODE_REPS, || {
            let r = dec.decode_streams_into(
                std::hint::black_box(&input.streams.sys),
                &input.streams.p1,
                &input.streams.p2,
                &input.tails,
                None,
                &mut scratch,
                &mut bits,
            );
            std::hint::black_box(r);
        });
        let p = format!("native.{}", isa.name());
        suite.push(format!("{p}.ns_per_block"), ns);
        suite.push(format!("{p}.bits_per_s"), per_block_bits * 1e9 / ns);
        suite.push(format!("{p}.speedup"), scalar_ns / ns);
    }

    let pair = [
        turbo_workload(SIM_K, SIM_SEED).1,
        turbo_workload(SIM_K, SIM_SEED + 1).1,
    ];
    let batch = NativeBatchTurboDecoder::new(SIM_K, DECODE_ITERS);
    let pair_ns = median_ns(DECODE_REPS, || {
        std::hint::black_box(batch.decode_pair(std::hint::black_box(&pair)));
    });
    suite.push("batch2.ns_per_block", pair_ns / 2.0);
    suite.push(
        "batch2.accelerated",
        f64::from(NativeBatchTurboDecoder::is_accelerated()),
    );
    suite.push("batch2.speedup", scalar_ns / (pair_ns / 2.0));

    let quad: [_; 4] = std::array::from_fn(|g| turbo_workload(SIM_K, SIM_SEED + g as u64).1);
    let quad_ns = median_ns(DECODE_REPS, || {
        std::hint::black_box(batch.decode_quad(std::hint::black_box(&quad)));
    });
    suite.push("batch4.ns_per_block", quad_ns / 4.0);
    suite.push(
        "batch4.accelerated",
        f64::from(NativeBatchTurboDecoder::is_zmm_accelerated()),
    );
    suite.push("batch4.speedup", scalar_ns / (quad_ns / 4.0));
    suite
}

/// Ungated: the transmit-side packed encoder fast path — scalar
/// per-bit reference vs the bitsliced kernels at every ISA level the
/// host dispatches to, plus the per-bit vs packed-word rate matcher
/// and the combined encode+rate-match transmit chain, all at the
/// paper's K = 6144.
fn encoder_packed_suite() -> Suite {
    let mut suite = Suite::new("encoder_wallclock", false);
    let bits = random_bits(SIM_K, SIM_SEED);
    let per_block_bits = SIM_K as f64;
    let e = 3 * (SIM_K + 4);

    let scalar_enc = TurboEncoder::new(SIM_K);
    let scalar_ns = median_ns(ENCODE_REPS, || {
        std::hint::black_box(scalar_enc.encode(std::hint::black_box(&bits)));
    });
    suite.push("encode.scalar.ns_per_block", scalar_ns);
    suite.push("encode.scalar.bits_per_s", per_block_bits * 1e9 / scalar_ns);

    let mut scratch = EncodeScratch::default();
    for isa in EncoderIsa::available() {
        let enc = PackedTurboEncoder::with_isa(SIM_K, isa);
        let ns = median_ns(ENCODE_REPS, || {
            enc.encode_dstreams_into(std::hint::black_box(&bits), &mut scratch);
            std::hint::black_box(&scratch);
        });
        let p = format!("encode.{}", isa.name());
        suite.push(format!("{p}.ns_per_block"), ns);
        suite.push(format!("{p}.bits_per_s"), per_block_bits * 1e9 / ns);
        suite.push(format!("{p}.speedup"), scalar_ns / ns);
    }

    // Rate matcher: per-position circular readout vs the packed-word
    // funnel-shift copy over the same d-streams.
    let d = scalar_enc.encode(&bits).to_dstreams();
    let srm = RateMatcher::new(SIM_K + 4);
    let scalar_rm_ns = median_ns(ENCODE_REPS, || {
        std::hint::black_box(srm.rate_match(std::hint::black_box(&d), e, 0));
    });
    suite.push("ratematch.scalar.ns_per_block", scalar_rm_ns);

    let prm = PackedRateMatcher::new(SIM_K + 4);
    let packed_enc = PackedTurboEncoder::new(SIM_K);
    packed_enc.encode_dstreams_into(&bits, &mut scratch);
    let mut wbuf = Vec::new();
    let mut ebuf = Vec::new();
    let mut out_bits = Vec::new();
    let packed_rm_ns = median_ns(ENCODE_REPS, || {
        prm.pack_circular_into(scratch.dstream_words(), &mut wbuf)
            .expect("streams sized to d");
        prm.try_rate_match_packed_into(&wbuf, e, 0, &mut ebuf)
            .expect("rv 0 valid");
        out_bits.clear();
        extend_bits_from_words(&ebuf, e, &mut out_bits);
        std::hint::black_box(&out_bits);
    });
    suite.push("ratematch.packed.ns_per_block", packed_rm_ns);
    suite.push("ratematch.speedup", scalar_rm_ns / packed_rm_ns);

    // Combined transmit chain (encode + rate match), scalar reference
    // vs the best-dispatched packed path — the pipeline-visible win.
    let scalar_tx_ns = median_ns(ENCODE_REPS, || {
        let cw = scalar_enc.encode(std::hint::black_box(&bits));
        std::hint::black_box(srm.rate_match(&cw.to_dstreams(), e, 0));
    });
    let packed_tx_ns = median_ns(ENCODE_REPS, || {
        packed_enc.encode_dstreams_into(std::hint::black_box(&bits), &mut scratch);
        prm.pack_circular_into(scratch.dstream_words(), &mut wbuf)
            .expect("streams sized to d");
        prm.try_rate_match_packed_into(&wbuf, e, 0, &mut ebuf)
            .expect("rv 0 valid");
        out_bits.clear();
        extend_bits_from_words(&ebuf, e, &mut out_bits);
        std::hint::black_box(&out_bits);
    });
    suite.push("txchain.scalar.ns_per_block", scalar_tx_ns);
    suite.push("txchain.packed.ns_per_block", packed_tx_ns);
    suite.push("txchain.speedup", scalar_tx_ns / packed_tx_ns);
    suite
}

/// Ungated: downlink multi-worker scale-out — aggregate and per-core
/// Mbps at every worker count up to [`SCALEOUT_MAX_WORKERS`].
fn downlink_scaleout_suite() -> Suite {
    let mut suite = Suite::new("downlink_scaleout", false);
    let cfg = DownlinkConfig {
        snr_db: 30.0,
        ..Default::default()
    };
    for pt in downlink_scaleout_sweep(
        cfg,
        Transport::Udp,
        SCALEOUT_WIRE_LEN,
        SCALEOUT_PACKETS,
        SCALEOUT_MAX_WORKERS,
    ) {
        let p = format!("w{}", pt.workers);
        suite.push(format!("{p}.mbps"), pt.mbps);
        suite.push(format!("{p}.mbps_per_core"), pt.mbps_per_core);
        suite.push(format!("{p}.ok.count"), pt.ok_packets as f64);
    }
    suite
}

/// Ungated: uplink multi-worker scale-out — aggregate and per-core
/// Mbps at every worker count up to [`SCALEOUT_MAX_WORKERS`], through
/// the stage graph (quad-in-zmm launches where the host has them).
fn uplink_scaleout_suite() -> Suite {
    let mut suite = Suite::new("uplink_scaleout", false);
    let cfg = PipelineConfig {
        snr_db: 30.0,
        ..Default::default()
    };
    for pt in uplink_scaleout_sweep(
        cfg,
        Transport::Udp,
        SCALEOUT_WIRE_LEN,
        SCALEOUT_PACKETS,
        SCALEOUT_MAX_WORKERS,
    ) {
        let p = format!("w{}", pt.workers);
        suite.push(format!("{p}.mbps"), pt.mbps);
        suite.push(format!("{p}.mbps_per_core"), pt.mbps_per_core);
        suite.push(format!("{p}.ok.count"), pt.ok_packets as f64);
    }
    suite
}

/// Both transports at every paper-sweep size — the mixed-K workload
/// the stage-graph suites (and the acceptance occupancy target) use.
fn paper_sweep_classes() -> Vec<(Transport, usize)> {
    [Transport::Udp, Transport::Tcp]
        .into_iter()
        .flat_map(|t| {
            [64usize, 128, 300, 600, 900, 1200, 1400]
                .into_iter()
                .map(move |s| (t, s))
        })
        .collect()
}

/// Gated: deterministic outcomes and batch-formation shape of the
/// out-of-order stage-graph runtime on the paper-sweep round-robin
/// workload at one and two workers. Packet/ok counts and every
/// quad/pair/single/flush counter gate exactly; zmm lane occupancy
/// gates as a ratio. No `deadline_ns` is set, so flushes are purely
/// tick-driven and the whole suite is host-independent.
fn uplink_stagegraph_suite() -> Suite {
    let mut suite = Suite::new("uplink_stagegraph", true);
    let classes = paper_sweep_classes();
    for workers in [1usize, 2] {
        let sg = std::sync::Arc::new(StageGraphMetrics::default());
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        let rep = run_uplink_stagegraph_metered(
            cfg,
            &classes,
            STAGEGRAPH_PACKETS,
            workers,
            StageGraphConfig::default(),
            &RunnerMetrics::new(false, RING_CAPACITY),
            Some(sg.clone()),
            None,
            None,
            None,
        );
        let p = format!("w{workers}");
        suite.push(format!("{p}.packets.count"), rep.packets as f64);
        suite.push(format!("{p}.ok.count"), rep.ok_packets as f64);
        suite.push(
            format!("{p}.batch.lane_occupancy.ratio"),
            sg.lane_occupancy(),
        );
        suite.push(
            format!("{p}.batch.quad_blocks.count"),
            sg.quad_blocks.get() as f64,
        );
        suite.push(
            format!("{p}.batch.pair_blocks.count"),
            sg.pair_blocks.get() as f64,
        );
        suite.push(
            format!("{p}.batch.single_blocks.count"),
            sg.single_blocks.get() as f64,
        );
        suite.push(
            format!("{p}.batch.flush.lanes_full.count"),
            sg.flush_lanes_full.get() as f64,
        );
        suite.push(
            format!("{p}.batch.flush.deadline.count"),
            sg.flush_deadline.get() as f64,
        );
        suite.push(
            format!("{p}.batch.flush.drain.count"),
            sg.flush_drain.get() as f64,
        );
    }
    suite
}

/// Ungated: wall-clock throughput of the stage-graph runtime vs the
/// per-packet serial path (`process`, the path it replaced) on the
/// same mixed-K traffic. Both stop every block at the same iteration,
/// so the ratio is what cross-packet lane filling buys.
fn uplink_stagegraph_wallclock_suite() -> Suite {
    let mut suite = Suite::new("uplink_stagegraph_wallclock", false);
    let classes = paper_sweep_classes();
    let workers = 2;
    let cfg = PipelineConfig {
        snr_db: 30.0,
        ..Default::default()
    };
    let earlystop = run_uplink_serial_mixed(cfg, &classes, STAGEGRAPH_WALLCLOCK_PACKETS, workers);
    let sg = std::sync::Arc::new(StageGraphMetrics::default());
    let graph = run_uplink_stagegraph_metered(
        cfg,
        &classes,
        STAGEGRAPH_WALLCLOCK_PACKETS,
        workers,
        StageGraphConfig::default(),
        &RunnerMetrics::new(false, RING_CAPACITY),
        Some(sg.clone()),
        None,
        None,
        None,
    );
    suite.push("serial_earlystop.mbps", earlystop.mbps);
    suite.push("stagegraph.mbps", graph.mbps);
    suite.push("graph_vs_earlystop.ratio", graph.mbps / earlystop.mbps);
    suite.push("batch.lane_occupancy.ratio", sg.lane_occupancy());
    suite.push("batch.iteration_occupancy.ratio", sg.iteration_occupancy());
    suite.push(
        "batch4.accelerated",
        f64::from(NativeBatchTurboDecoder::is_zmm_accelerated()),
    );
    suite
}

/// One side of the fused-ingest A/B: per-packet outcome signatures
/// (bit-exactness evidence), wall-clock, and the staging counters.
struct FusedIngestRun {
    sigs: Vec<(usize, usize, usize, usize)>,
    ok_packets: u64,
    code_blocks: u64,
    fused_blocks: u64,
    fused_fallbacks: u64,
    steady_allocs: u64,
    arrange_mean_ns: f64,
    mbps: f64,
}

fn fused_ingest_run(fused: bool) -> FusedIngestRun {
    let pm = std::sync::Arc::new(PipelineMetrics::new(true));
    let cfg = PipelineConfig {
        snr_db: 30.0,
        fused_ingest: fused,
        ..Default::default()
    };
    let pipe = UplinkPipeline::with_metrics(cfg, pm.clone());
    let mut b = PacketBuilder::new(1000, 2000);
    // Warm-up cycle: decoder caches build, stream pools fill.
    for &size in &FUSED_SIZES {
        let p = b.build(Transport::Udp, size).expect("valid size");
        pipe.process(&p).expect("30 dB decodes");
    }
    let allocs0 = pm.staging_allocs.get() + pm.staging_reallocs.get();
    let mut sigs = Vec::new();
    let mut payload_bits = 0usize;
    let t = Instant::now();
    for _ in 0..FUSED_REPS {
        for &size in &FUSED_SIZES {
            let p = b.build(Transport::Udp, size).expect("valid size");
            let r = pipe.process(&p).expect("30 dB decodes");
            payload_bits += r.tb_bits;
            sigs.push((r.tb_bits, r.code_blocks, r.coded_bits, r.decoder_iterations));
        }
    }
    let elapsed_s = t.elapsed().as_secs_f64();
    let arrange_mean_ns = if fused {
        pm.arrange_fused().mean()
    } else {
        pm.stage(Stage::Arrange).mean()
    };
    FusedIngestRun {
        sigs,
        ok_packets: pm.ok_packets.get(),
        code_blocks: pm.code_blocks.get(),
        fused_blocks: pm.fused_ingest_blocks.get(),
        fused_fallbacks: pm.fused_ingest_fallbacks.get(),
        steady_allocs: pm.staging_allocs.get() + pm.staging_reallocs.get() - allocs0,
        arrange_mean_ns,
        mbps: payload_bits as f64 / elapsed_s / 1e6,
    }
}

/// Gated `uplink_fused_ingest` plus its ungated wall-clock companion,
/// sharing one A/B measurement. The gated side carries only exact
/// metrics: outcome counts (fused and unfused must both stay pinned),
/// the fused/unfused bit-equality boolean, the AVX-512BW tier pin, the
/// zero-steady-state-allocation count, and two wall-clock-derived
/// booleans with wide margins — arrangement-stage ≥1.3× faster fused
/// than unfused, and end-to-end throughput within 5 % of the unfused
/// path. The raw nanoseconds and Mbps live in the ungated companion so
/// host noise never gates CI.
fn uplink_fused_ingest_suites() -> (Suite, Suite) {
    let mut gated = Suite::new("uplink_fused_ingest", true);
    let mut wall = Suite::new("uplink_fused_ingest_wallclock", false);
    let fused = fused_ingest_run(true);
    let unfused = fused_ingest_run(false);

    gated.push(
        "avx512bw.accelerated",
        f64::from(best_fused() == FusedImpl::MaskMergeAvx512),
    );
    gated.push("fused.ok.count", fused.ok_packets as f64);
    gated.push("unfused.ok.count", unfused.ok_packets as f64);
    gated.push("fused.code_blocks", fused.code_blocks as f64);
    gated.push("fused.ingest_blocks.count", fused.fused_blocks as f64);
    gated.push("fused.fallbacks.count", fused.fused_fallbacks as f64);
    gated.push("bitexact.count", f64::from(fused.sigs == unfused.sigs));
    gated.push(
        "staging.steady_state_allocs.count",
        (fused.steady_allocs + unfused.steady_allocs) as f64,
    );
    let arrange_speedup = unfused.arrange_mean_ns / fused.arrange_mean_ns;
    gated.push(
        "arrange.speedup_ge_1p3.count",
        f64::from(arrange_speedup >= 1.3),
    );
    gated.push(
        "e2e.fused_within_5pct.count",
        f64::from(fused.mbps >= 0.95 * unfused.mbps),
    );

    wall.push("arrange.unfused.mean_ns", unfused.arrange_mean_ns);
    wall.push("arrange.fused.mean_ns", fused.arrange_mean_ns);
    wall.push("arrange.speedup", arrange_speedup);
    wall.push("e2e.unfused.mbps", unfused.mbps);
    wall.push("e2e.fused.mbps", fused.mbps);
    wall.push("e2e.speedup", fused.mbps / unfused.mbps);
    (gated, wall)
}

/// One side of the front-end A/B: per-packet outcome signatures
/// (decoded payloads must match between arms — iteration counts may
/// differ because the fixed-point demapper quantizes LLRs), per-stage
/// wall-clock, and the front-end counters.
struct FrontendRun {
    sigs: Vec<(usize, usize, usize)>,
    ok_packets: u64,
    frontend_packets: u64,
    frontend_fallbacks: u64,
    demap_mean_ns: f64,
    crc_mean_ns: f64,
    kernel_demap_ns: f64,
    kernel_descramble_ns: f64,
    kernel_crc_ns: f64,
    mbps: f64,
}

fn frontend_run(simd: bool) -> FrontendRun {
    let pm = std::sync::Arc::new(PipelineMetrics::new(true));
    let cfg = PipelineConfig {
        snr_db: 30.0,
        frontend_simd: simd,
        ..Default::default()
    };
    let pipe = UplinkPipeline::with_metrics(cfg, pm.clone());
    let mut b = PacketBuilder::new(1000, 2000);
    // Warm-up cycle: decoder caches build, stream pools fill.
    for &size in &FUSED_SIZES {
        let p = b.build(Transport::Udp, size).expect("valid size");
        pipe.process(&p).expect("30 dB decodes");
    }
    let mut sigs = Vec::new();
    let mut payload_bits = 0usize;
    let t = Instant::now();
    for _ in 0..FUSED_REPS {
        for &size in &FUSED_SIZES {
            let p = b.build(Transport::Udp, size).expect("valid size");
            let r = pipe.process(&p).expect("30 dB decodes");
            payload_bits += r.tb_bits;
            sigs.push((r.tb_bits, r.code_blocks, r.coded_bits));
        }
    }
    let elapsed_s = t.elapsed().as_secs_f64();
    FrontendRun {
        sigs,
        ok_packets: pm.ok_packets.get(),
        frontend_packets: pm.frontend_packets.get(),
        frontend_fallbacks: pm.frontend_fallbacks.get(),
        demap_mean_ns: pm.stage(Stage::Demap).mean(),
        crc_mean_ns: pm.stage(Stage::Crc).mean(),
        kernel_demap_ns: pm.frontend_demap().mean(),
        kernel_descramble_ns: pm.frontend_descramble().mean(),
        kernel_crc_ns: pm.frontend_crc().mean(),
        mbps: payload_bits as f64 / elapsed_s / 1e6,
    }
}

/// Gated `uplink_frontend` plus its ungated wall-clock companion,
/// sharing one A/B measurement. The gated side carries only exact
/// metrics: outcome counts and the cross-arm outcome-signature
/// equality (same payloads decoded, independent of LLR quantization),
/// the AVX-512BW/clmul tier pins, the zero-fallback count, and two
/// wall-clock-derived booleans with wide margins — the demap stage
/// (fixed-point demap + word-parallel descramble) ≥3× faster than the
/// f32 + bit-serial arm, and end-to-end throughput within 5 % of the
/// scalar front end. The raw nanoseconds and Mbps live in the ungated
/// companion so host noise never gates CI.
fn uplink_frontend_suites() -> (Suite, Suite) {
    let mut gated = Suite::new("uplink_frontend", true);
    let mut wall = Suite::new("uplink_frontend_wallclock", false);
    let simd = frontend_run(true);
    let scalar = frontend_run(false);

    gated.push(
        "avx512bw.accelerated",
        f64::from(
            best_demap() == DemapImpl::Avx512bw && best_descramble() == DescrambleImpl::Avx512bw,
        ),
    );
    gated.push(
        "crc.clmul.accelerated",
        f64::from(best_crc() == CrcImpl::ClmulFold),
    );
    gated.push("simd.ok.count", simd.ok_packets as f64);
    gated.push("scalar.ok.count", scalar.ok_packets as f64);
    gated.push("simd.frontend_packets.count", simd.frontend_packets as f64);
    gated.push(
        "scalar.frontend_packets.count",
        scalar.frontend_packets as f64,
    );
    gated.push("simd.fallbacks.count", simd.frontend_fallbacks as f64);
    gated.push(
        "outcomes.bitexact.count",
        f64::from(simd.sigs == scalar.sigs),
    );
    let demap_speedup = scalar.demap_mean_ns / simd.demap_mean_ns;
    gated.push(
        "demap_descramble.speedup_ge_3x.count",
        f64::from(demap_speedup >= 3.0),
    );
    gated.push(
        "e2e.simd_within_5pct.count",
        f64::from(simd.mbps >= 0.95 * scalar.mbps),
    );

    wall.push("demap.scalar.mean_ns", scalar.demap_mean_ns);
    wall.push("demap.simd.mean_ns", simd.demap_mean_ns);
    wall.push("demap.speedup", demap_speedup);
    wall.push("crc.scalar.mean_ns", scalar.crc_mean_ns);
    wall.push("crc.simd.mean_ns", simd.crc_mean_ns);
    wall.push("crc.speedup", scalar.crc_mean_ns / simd.crc_mean_ns);
    wall.push("kernel.demap.mean_ns", simd.kernel_demap_ns);
    wall.push("kernel.descramble.mean_ns", simd.kernel_descramble_ns);
    wall.push("kernel.crc.mean_ns", simd.kernel_crc_ns);
    wall.push("e2e.scalar.mbps", scalar.mbps);
    wall.push("e2e.simd.mbps", simd.mbps);
    wall.push("e2e.speedup", simd.mbps / scalar.mbps);
    (gated, wall)
}

/// Ungated: the fused mask/merge ingest kernel through the port-level
/// simulator next to the permute-only APCM variant and the original
/// mechanism — the backend-bound/port-pressure profile behind the
/// gated booleans (the hard assertions live in the fig15 tests).
fn fused_ingest_uarch_suite() -> Suite {
    let mut suite = Suite::new("fused_ingest_uarch", false);
    let input = interleaved_workload(SIM_K, SIM_SEED);
    let sim = CoreSim::new(CoreConfig::beefy().warmed());
    for width in RegWidth::ALL {
        for mech in [
            Mechanism::Baseline,
            Mechanism::Apcm(ApcmVariant::Shuffle),
            Mechanism::Apcm(ApcmVariant::MaskMerge),
        ] {
            let (_, trace) = ArrangeKernel::new(width, mech).arrange(&input, true);
            let trace = trace.expect("trace requested");
            let shuffles = trace
                .ops
                .iter()
                .filter(|o| o.kind == vran_simd::OpKind::VShuffle)
                .count();
            let r = sim.run(&trace);
            let prefix = format!("{}.{}", width.name(), mech.name());
            suite.push(format!("{prefix}.cycles"), r.cycles as f64);
            suite.push(format!("{prefix}.ipc"), r.ipc);
            suite.push(format!("{prefix}.backend.frac"), r.topdown.backend());
            suite.push(format!("{prefix}.retiring.frac"), r.topdown.retiring);
            suite.push(format!("{prefix}.shuffle_uops.count"), shuffles as f64);
            let alu: f64 = r.port_util[..3].iter().sum();
            let store: f64 = r.port_util[6..].iter().sum();
            suite.push(format!("{prefix}.ports.alu.util"), alu);
            suite.push(format!("{prefix}.ports.store.util"), store);
        }
    }
    suite
}

/// Gated: host-independent downlink outcomes at pinned seeds and
/// sizes, once per [`EncoderBackend`] — the two backends must stay
/// bit-identical (every metric equal between the `scalar.` and
/// `packed.` prefixes) and must not drift across commits.
fn downlink_static_suite() -> Suite {
    let mut suite = Suite::new("downlink_static", true);
    for (backend, name) in [
        (EncoderBackend::Scalar, "scalar"),
        (EncoderBackend::Packed, "packed"),
    ] {
        let cfg = DownlinkConfig {
            snr_db: 30.0,
            encoder_backend: backend,
            ..Default::default()
        };
        let pipe = DownlinkPipeline::new(cfg);
        let mut b = PacketBuilder::new(1000, 2000);
        let (mut ok, mut blocks, mut coded) = (0usize, 0usize, 0usize);
        for size in [64usize, 300, 900, 1400] {
            let p = b.build(Transport::Udp, size).expect("valid size");
            let r = pipe.process(&p);
            ok += usize::from(r.dci_ok && r.data_ok);
            blocks += r.code_blocks;
            coded += r.coded_bits;
        }
        suite.push(format!("{name}.ok.count"), ok as f64);
        suite.push(format!("{name}.code_blocks.count"), blocks as f64);
        suite.push(format!("{name}.coded_bits.count"), coded as f64);
    }
    suite
}

/// Gated: host-independent outcomes of one pipeline run at a pinned
/// seed — block structure and decoder effort must not drift.
fn pipeline_static_suite(metrics: &PipelineMetrics) -> Suite {
    let mut suite = Suite::new("pipeline_static", true);
    suite.push("packets.count", metrics.packets.get() as f64);
    suite.push("ok_packets.count", metrics.ok_packets.get() as f64);
    suite.push("code_blocks", metrics.code_blocks.get() as f64);
    suite.push(
        "decoder_iterations",
        metrics.decoder_iterations.get() as f64,
    );
    suite
}

/// Gated: deterministic fault-injection classification. Pushes the
/// standard soak mix through both decoder backends at pinned seeds and
/// pins every typed-error category count (`.count` metrics gate
/// exactly): drift here means the error taxonomy, the injector's
/// deterministic draw/mutation stream, or a backend's bit-exactness
/// changed.
fn pipeline_faults_suite() -> Suite {
    let mut suite = Suite::new("pipeline_faults", true);
    for (backend, seed) in [
        (DecoderBackend::Scalar, FAULT_SEED_SCALAR),
        (DecoderBackend::Native, FAULT_SEED_NATIVE),
    ] {
        let pm = std::sync::Arc::new(PipelineMetrics::new(true));
        let cfg = PipelineConfig {
            backend,
            snr_db: 30.0,
            decoder_iterations: 4,
            ..Default::default()
        };
        let mut pipe = UplinkPipeline::with_metrics(cfg, pm.clone());
        pipe.set_fault_injector(FaultInjector::new(seed));
        let mut b = PacketBuilder::new(1000, 2000);
        for i in 0..FAULT_PACKETS {
            let transport = if i % 3 == 0 {
                Transport::Tcp
            } else {
                Transport::Udp
            };
            let sizes = [64usize, 128, 300, 900];
            let p = b.build(transport, sizes[i % sizes.len()]).expect("valid");
            let _ = pipe.process(&p);
        }
        let prefix = match backend {
            DecoderBackend::Scalar => "scalar",
            DecoderBackend::Native => "native",
        };
        suite.push(format!("{prefix}.ok.count"), pm.ok_packets.get() as f64);
        for cat in ErrorCategory::ALL {
            suite.push(
                format!("{prefix}.errors.{}.count", cat.name()),
                pm.error_count(cat) as f64,
            );
        }
        let injected = pipe.fault_counts().expect("injector attached");
        for kind in FaultKind::ALL {
            if injected[kind as usize] > 0 {
                suite.push(
                    format!("{prefix}.drawn.{}.count", kind.name()),
                    injected[kind as usize] as f64,
                );
            }
        }
    }
    suite
}

/// Ungated: wall-clock smoke numbers from the threaded pipeline —
/// recorded for trajectory plots, never gating CI.
fn pipeline_wallclock_suite(
    report: &vran_net::runner::ThroughputReport,
    pm: &PipelineMetrics,
    rm: &RunnerMetrics,
) -> Suite {
    let mut suite = Suite::new("pipeline_wallclock", false);
    suite.push("mbps", report.mbps);
    suite.push("elapsed_s", report.elapsed_s);
    for s in Stage::ALL {
        suite.push(format!("stage.{}.mean_ns", s.name()), pm.stage(s).mean());
        suite.push(
            format!("stage.{}.p90_ns", s.name()),
            pm.stage(s).quantile_upper(0.9) as f64,
        );
    }
    suite.push("ring.occupancy.mean", rm.ring_occupancy.mean());
    suite.push("ring.push_stalls", rm.push_stalls.get() as f64);
    suite.push("ring.pop_stalls", rm.pop_stalls.get() as f64);
    suite
}

/// Flight-recorder overhead on the stage-graph wall-clock workload:
/// the median of [`OVERHEAD_RUNS`] paired ratios `recorderᵢ / baseᵢ`
/// ([`paired_ratio`]: order alternated pair by pair, each side
/// repeated to [`OVERHEAD_SIDE_S`]), which is what the <2 % gate
/// judges and the ungated suite records.
/// The workload runs on a single stage-graph worker: the recorder's
/// per-event cost is identical at any worker count, but multi-worker
/// scheduling jitter on a sub-second run is louder still.
fn measure_observe_overhead() -> PairedRatio {
    let classes = paper_sweep_classes();
    let cfg = PipelineConfig {
        snr_db: 30.0,
        ..Default::default()
    };
    let one = |recorder: Option<std::sync::Arc<FlightRecorder>>| -> f64 {
        run_uplink_stagegraph_metered(
            cfg,
            &classes,
            STAGEGRAPH_WALLCLOCK_PACKETS,
            1,
            StageGraphConfig::default(),
            &RunnerMetrics::new(false, RING_CAPACITY),
            None,
            None,
            recorder,
            None,
        )
        .elapsed_s
    };
    paired_ratio(
        OVERHEAD_RUNS,
        OVERHEAD_SIDE_S,
        || one(None),
        || {
            one(Some(std::sync::Arc::new(FlightRecorder::with_capacity(
                4096,
            ))))
        },
    )
}

/// Gated: both chaos storm schedules — the cell-scale windowed storm
/// with its recovery clock and the six-phase runner storm with armed
/// breakers — plus the flight-recorder overhead boolean. Every count
/// is deterministic from [`CHAOS_SEED`]; the recovery time is pinned
/// exactly. Returns the suite and the flight-recorder JSON dump for
/// the `--flight-dump` CI artifact.
fn chaos_recovery_suite(overhead_within_2pct: bool) -> (Suite, String) {
    let mut suite = Suite::new("chaos_recovery", true);
    let cell = run_cell_chaos(CellChaosConfig::smoke(CHAOS_SEED));
    for (k, v) in cell.snapshot() {
        suite.push(format!("cell.{k}"), v);
    }
    let runner = run_runner_chaos(RunnerChaosConfig::smoke(CHAOS_SEED));
    for (k, v) in runner.snapshot() {
        suite.push(format!("runner.{k}"), v);
    }
    suite.push(
        "flight_recorder.overhead_within_2pct.count",
        f64::from(overhead_within_2pct),
    );
    let dump = runner.recorder.dump_json(FLIGHT_DUMP_EVENTS).to_string();
    (suite, dump)
}

/// Ungated: the raw timings behind the gated overhead boolean —
/// recorded for trajectory plots.
fn observe_overhead_suite(overhead: &PairedRatio) -> Suite {
    let mut suite = Suite::new("observe_overhead", false);
    suite.push("baseline.elapsed_s", overhead.a_s);
    suite.push("recorder.elapsed_s", overhead.b_s);
    suite.push("overhead.median.frac", overhead.median - 1.0);
    suite
}

/// Suite names `--only` accepts (also the build order).
const SUITES: [&str; 20] = [
    "arrange_sim",
    "fused_ingest_uarch",
    "decoder_native",
    "encoder_wallclock",
    "downlink_static",
    "downlink_scaleout",
    "uplink_scaleout",
    "uplink_fused_ingest",
    "uplink_fused_ingest_wallclock",
    "uplink_frontend",
    "uplink_frontend_wallclock",
    "uplink_stagegraph",
    "uplink_stagegraph_wallclock",
    "cell_scale_smoke",
    "cell_scale_full",
    "pipeline_static",
    "pipeline_faults",
    "pipeline_wallclock",
    "chaos_recovery",
    "observe_overhead",
];

/// Build the report; also returns the chaos run's flight-recorder
/// dump when that suite ran (for `--flight-dump`).
fn build_report(only: &[String]) -> Result<(BenchReport, Option<String>), String> {
    for name in only {
        if !SUITES.contains(&name.as_str()) {
            return Err(format!(
                "unknown suite {name:?}; known: {}",
                SUITES.join(", ")
            ));
        }
    }
    let want = |name: &str| only.is_empty() || only.iter().any(|o| o == name);
    let mut report = BenchReport::new(git_sha());
    report.config = vec![
        ("core".into(), "beefy+warmed".into()),
        ("sim_k".into(), SIM_K.to_string()),
        ("sim_seed".into(), SIM_SEED.to_string()),
        ("smoke_packets".into(), SMOKE_PACKETS.to_string()),
        ("smoke_wire_len".into(), SMOKE_WIRE_LEN.to_string()),
        ("decode_reps".into(), DECODE_REPS.to_string()),
        ("decode_iters".into(), DECODE_ITERS.to_string()),
        ("fault_packets".into(), FAULT_PACKETS.to_string()),
        ("encode_reps".into(), ENCODE_REPS.to_string()),
        ("scaleout_packets".into(), SCALEOUT_PACKETS.to_string()),
        ("scaleout_wire_len".into(), SCALEOUT_WIRE_LEN.to_string()),
        (
            "scaleout_max_workers".into(),
            SCALEOUT_MAX_WORKERS.to_string(),
        ),
        ("stagegraph_packets".into(), STAGEGRAPH_PACKETS.to_string()),
        (
            "stagegraph_wallclock_packets".into(),
            STAGEGRAPH_WALLCLOCK_PACKETS.to_string(),
        ),
        ("chaos_seed".into(), CHAOS_SEED.to_string()),
        ("overhead_runs".into(), OVERHEAD_RUNS.to_string()),
        (
            "fused_sizes".into(),
            FUSED_SIZES.map(|s| s.to_string()).join("/"),
        ),
        ("fused_reps".into(), FUSED_REPS.to_string()),
    ];
    if want("arrange_sim") {
        report.suites.push(arrange_sim_suite());
    }
    if want("fused_ingest_uarch") {
        report.suites.push(fused_ingest_uarch_suite());
    }
    if want("decoder_native") {
        report.suites.push(decoder_native_suite());
    }
    if want("encoder_wallclock") {
        report.suites.push(encoder_packed_suite());
    }
    if want("downlink_static") {
        report.suites.push(downlink_static_suite());
    }
    if want("downlink_scaleout") {
        report.suites.push(downlink_scaleout_suite());
    }
    if want("uplink_scaleout") {
        report.suites.push(uplink_scaleout_suite());
    }
    if want("uplink_fused_ingest") || want("uplink_fused_ingest_wallclock") {
        let (gated, wallclock) = uplink_fused_ingest_suites();
        if want("uplink_fused_ingest") {
            report.suites.push(gated);
        }
        if want("uplink_fused_ingest_wallclock") {
            report.suites.push(wallclock);
        }
    }
    if want("uplink_frontend") || want("uplink_frontend_wallclock") {
        let (gated, wallclock) = uplink_frontend_suites();
        if want("uplink_frontend") {
            report.suites.push(gated);
        }
        if want("uplink_frontend_wallclock") {
            report.suites.push(wallclock);
        }
    }
    if want("uplink_stagegraph") {
        report.suites.push(uplink_stagegraph_suite());
    }
    if want("uplink_stagegraph_wallclock") {
        report.suites.push(uplink_stagegraph_wallclock_suite());
    }
    if want("cell_scale_smoke") {
        report.suites.push(cell_scale_smoke_suite());
    }
    if want("cell_scale_full") {
        report.suites.push(cell_scale_full_suite());
    }

    // The static and wall-clock pipeline suites share one metered run.
    if want("pipeline_static") || want("pipeline_wallclock") {
        let pm = std::sync::Arc::new(PipelineMetrics::new(true));
        let rm = RunnerMetrics::new(true, RING_CAPACITY);
        let cfg = PipelineConfig {
            snr_db: 30.0,
            ..Default::default()
        };
        let tp = run_throughput_metered(
            cfg,
            Transport::Udp,
            SMOKE_WIRE_LEN,
            SMOKE_PACKETS,
            &rm,
            Some(pm.clone()),
        );
        if want("pipeline_static") {
            report.suites.push(pipeline_static_suite(&pm));
        }
        if want("pipeline_faults") {
            report.suites.push(pipeline_faults_suite());
        }
        if want("pipeline_wallclock") {
            report.suites.push(pipeline_wallclock_suite(&tp, &pm, &rm));
        }
    } else if want("pipeline_faults") {
        report.suites.push(pipeline_faults_suite());
    }

    // The gated overhead boolean and the ungated raw timings share one
    // paired measurement.
    let mut flight_dump = None;
    if want("chaos_recovery") || want("observe_overhead") {
        let overhead = measure_observe_overhead();
        if want("chaos_recovery") {
            let (suite, dump) = chaos_recovery_suite(overhead.median <= 1.02);
            report.suites.push(suite);
            flight_dump = Some(dump);
        }
        if want("observe_overhead") {
            report.suites.push(observe_overhead_suite(&overhead));
        }
    }
    Ok((report, flight_dump))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let (report, flight_dump) = match build_report(&args.only) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("benchgate: {e}");
            return ExitCode::from(2);
        }
    };
    let json = report.to_json();
    if let Err(e) = std::fs::write(&args.out, &json) {
        eprintln!("benchgate: cannot write {}: {e}", args.out);
        return ExitCode::from(2);
    }
    if !args.quiet {
        println!(
            "benchgate: wrote {} ({} suites, commit {})",
            args.out,
            report.suites.len(),
            report.git_sha
        );
    }

    if let Some(path) = &args.flight_dump {
        match &flight_dump {
            Some(dump) => {
                if let Err(e) = std::fs::write(path, dump) {
                    eprintln!("benchgate: cannot write flight dump {path}: {e}");
                    return ExitCode::from(2);
                }
                if !args.quiet {
                    println!("benchgate: flight-recorder dump written to {path}");
                }
            }
            None => {
                eprintln!("benchgate: --flight-dump needs the chaos_recovery suite to run");
                return ExitCode::from(2);
            }
        }
    }

    if let Some(path) = &args.summary {
        let md = vran_bench::summary::render_markdown(&report);
        if let Err(e) = std::fs::write(path, md) {
            eprintln!("benchgate: cannot write summary {path}: {e}");
            return ExitCode::from(2);
        }
        if !args.quiet {
            println!("benchgate: summary written to {path}");
        }
    }

    if args.write_baseline {
        if let Err(e) = std::fs::write(&args.baseline, &json) {
            eprintln!("benchgate: cannot write {}: {e}", args.baseline);
            return ExitCode::from(2);
        }
        if !args.quiet {
            println!("benchgate: baseline refreshed at {}", args.baseline);
        }
    }

    if args.check {
        let baseline_text = match std::fs::read_to_string(&args.baseline) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("benchgate: cannot read baseline {}: {e}", args.baseline);
                return ExitCode::from(2);
            }
        };
        let Some(mut baseline) = BenchReport::from_json(&baseline_text) else {
            eprintln!(
                "benchgate: {} is not a {} document",
                args.baseline,
                vran_bench::gate::SCHEMA
            );
            return ExitCode::from(2);
        };
        // Under --only, gate only the suites that were actually run.
        if !args.only.is_empty() {
            baseline
                .suites
                .retain(|s| args.only.iter().any(|o| o == &s.name));
        }
        let regressions = compare(&baseline, &report);
        if regressions.is_empty() {
            if !args.quiet {
                println!(
                    "benchgate: PASS — gated suites match baseline {} within tolerance",
                    baseline.git_sha
                );
            }
        } else {
            eprintln!(
                "benchgate: FAIL — {} regression(s) vs baseline {}:",
                regressions.len(),
                baseline.git_sha
            );
            for r in &regressions {
                eprintln!("  {}", r.describe());
            }
            return ExitCode::from(1);
        }
    }
    ExitCode::SUCCESS
}
