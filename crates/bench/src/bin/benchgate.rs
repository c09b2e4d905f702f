//! `benchgate` — the perf-trajectory regression gate.
//!
//! Eleven suites. Eight are deterministic and gate: `arrange_sim` (the
//! arrangement kernels, original vs APCM, at all three register widths
//! through the `vran-uarch` simulator), `downlink_static` and
//! `pipeline_static` (static pipeline invariants, the downlink once
//! per profile so reference/production equality is itself gated),
//! `pipeline_faults` (fault-injection classification counts, once per
//! profile), `uplink_profiles` (the production-vs-reference A/B:
//! outcome counts, delivery equality, tier pins, and two wide-margin
//! booleans over paired cycle times), `uplink_stagegraph` (the
//! out-of-order runtime's outcome and batch-formation counters), `cell_scale_smoke` (the
//! deterministic cell-scale preset with its p50/p95/p99 tail
//! latencies) and `chaos_recovery` (the phased storm schedules of
//! `vran_net::chaos`: time-to-recover, breaker trips, worker restarts,
//! and the flight-recorder's <2 % overhead boolean). Three are
//! recorded and never gate: `fused_ingest_uarch` (the simulator's
//! port-pressure profile behind the arrangement boolean; the hard
//! assertions live in the fig15 tests), `cell_scale_full` (the diurnal
//! sweep's cores-per-(cells × 300 Mbps) figures — a model output to
//! plot, too slow for the smoke job) and `observe_overhead` (the raw
//! host-dependent timings behind `chaos_recovery`'s boolean). No suite
//! reports wall-clock speed: ns per block, stage time and Mbit/s are
//! `benchmark/`'s to measure (quiet windows, interleaved pairs, a
//! closed per-stage budget), per-ISA kernel rows `cargo bench`'s.
//!
//! Writes `BENCH_current.json` and, with `--check`, compares the gated
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
use vran_bench::interleaved_workload;
use vran_net::chaos::{run_cell_chaos, run_runner_chaos, CellChaosConfig, RunnerChaosConfig};
use vran_net::downlink::{DownlinkConfig, DownlinkPipeline};
use vran_net::error::ErrorCategory;
use vran_net::faultinject::{FaultInjector, FaultKind};
use vran_net::metrics::{PipelineMetrics, RunnerMetrics, Stage, StageGraphMetrics, UarchMetrics};
use vran_net::observe::FlightRecorder;
use vran_net::packet::PacketBuilder;
use vran_net::pipeline::{PipelineConfig, Profile, UplinkPipeline};
use vran_net::runner::{run_uplink_stagegraph_metered, RING_CAPACITY};
use vran_net::{StageGraphConfig, Transport};
use vran_phy::crc::{best_crc, CrcImpl};
use vran_phy::demap::{best_demap, DemapImpl};
use vran_phy::scrambler::{best_descramble, DescrambleImpl};
use vran_simd::RegWidth;
use vran_uarch::{CoreConfig, CoreSim};
use vran_util::paired::{paired_ratio, PairedRatio};

/// Code-block size for the simulator suite (the paper's K = 6144).
const SIM_K: usize = 6144;
/// Workload seed — pinned so traces (and thus cycle counts) are stable.
const SIM_SEED: u64 = 1;
/// Packets pushed through the static pipeline suite.
const SMOKE_PACKETS: usize = 16;
/// Wire bytes per smoke packet.
const SMOKE_WIRE_LEN: usize = 512;
/// Packets per profile pushed through the fault-classification suite.
const FAULT_PACKETS: usize = 240;
/// Fault-injector seeds (match the fault-soak test family).
const FAULT_SEED_SCALAR: u64 = 17;
const FAULT_SEED_NATIVE: u64 = 18;
/// Packets per configuration of the gated stage-graph suite — twelve
/// full rounds of the 14 paper-sweep classes.
const STAGEGRAPH_PACKETS: usize = 168;
/// Packets per run of the flight-recorder overhead measurement.
const STAGEGRAPH_WALLCLOCK_PACKETS: usize = 420;
/// Seed for both chaos storm schedules (cell-scale and runner).
const CHAOS_SEED: u64 = 7;
/// Wire sizes cycled by the profile A/B run (one TB per size, spanning
/// single-block and multi-block K).
const FUSED_SIZES: [usize; 4] = [64, 300, 900, 1400];
/// Measured size cycles per A/B arm, run as that many order-alternated
/// pairs (one extra warm-up cycle fills the pools first).
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

/// The stages the profile A/B judges, from the same cycles.
const JUDGED: [Stage; 2] = [Stage::Arrange, Stage::Demap];

/// One arm of the uplink profile A/B over [`FUSED_SIZES`]: a warmed
/// pipeline with its own registry, what every packet it decoded
/// delivered, and, per measured size cycle, the time it spent in each
/// [`JUDGED`] stage.
struct AbArm {
    pipe: UplinkPipeline,
    pm: std::sync::Arc<PipelineMetrics>,
    packets: PacketBuilder,
    /// Staging (re)allocations the warm-up cycle made.
    allocs0: u64,
    /// `(tb_bits, code_blocks, coded_bits)` per packet — not the
    /// iteration count, which the Q11 and f32 demappers may move.
    delivered: Vec<(usize, usize, usize)>,
    stage_ns: Vec<[f64; JUDGED.len()]>,
}

impl AbArm {
    fn warmed(profile: Profile) -> Self {
        let pm = std::sync::Arc::new(PipelineMetrics::new(true));
        let cfg = PipelineConfig {
            profile,
            snr_db: 30.0,
            ..Default::default()
        };
        let mut arm = Self {
            pipe: UplinkPipeline::with_metrics(cfg, pm.clone()),
            pm,
            packets: PacketBuilder::new(1000, 2000),
            allocs0: 0,
            delivered: Vec::new(),
            stage_ns: Vec::new(),
        };
        // Warm-up cycle: decoder caches build, stream pools fill.
        arm.cycle();
        arm.allocs0 = arm.steady_allocs();
        arm.stage_ns.clear();
        arm
    }

    /// One packet of every size; returns the elapsed seconds.
    fn cycle(&mut self) -> f64 {
        let stage_sum = |pm: &PipelineMetrics| JUDGED.map(|s| pm.stage(s).sum() as f64);
        let stage0 = stage_sum(&self.pm);
        let t = Instant::now();
        for &size in &FUSED_SIZES {
            let p = self
                .packets
                .build(Transport::Udp, size)
                .expect("valid size");
            let r = self.pipe.process(&p).expect("30 dB decodes");
            self.delivered
                .push((r.tb_bits, r.code_blocks, r.coded_bits));
        }
        let elapsed_s = t.elapsed().as_secs_f64();
        let stage1 = stage_sum(&self.pm);
        self.stage_ns
            .push(std::array::from_fn(|i| stage1[i] - stage0[i]));
        elapsed_s
    }

    /// Staging (re)allocations since the warm-up cycle.
    fn steady_allocs(&self) -> u64 {
        self.pm.staging_allocs.get() + self.pm.staging_reallocs.get() - self.allocs0
    }
}

/// Run [`FUSED_REPS`] size cycles on each arm as order-alternated pairs
/// ([`paired_ratio`]: a pair is two cycles run back to back, so a host
/// stall lands in one pair instead of on one side) and return, per
/// [`JUDGED`] stage, the median per-pair time ratio
/// `reference / production`.
fn paired_cycles(production: &mut AbArm, reference: &mut AbArm) -> [f64; JUDGED.len()] {
    paired_ratio(FUSED_REPS, 0.0, || production.cycle(), || reference.cycle());
    std::array::from_fn(|i| {
        let mut ratios: Vec<f64> = (production.stage_ns.iter().zip(&reference.stage_ns))
            .map(|(p, r)| r[i] / p[i])
            .collect();
        ratios.sort_by(f64::total_cmp);
        ratios[ratios.len() / 2]
    })
}

/// Gated: the production profile against the reference profile on the
/// same traffic. Only exact metrics: outcome counts, the cross-profile
/// delivery equality (iteration counts may differ: the Q11 demapper
/// quantizes LLRs), the AVX-512BW/clmul tier pins, the zero-fallback
/// and zero-steady-state-allocation counts, and two wall-clock-derived
/// booleans with wide margins, judged from the same [`paired_cycles`]:
/// the fused ingest ≥ 1.3× faster than its scalar tier, and demap +
/// descramble ≥ 3× faster than the f32 demapper + bit-serial
/// descrambler. The nanoseconds behind them are `arrange.fused.*`,
/// `phy.demap.*` and `phy.scrambler.descramble_*` in `benchmark/`, so
/// host noise never gates CI.
fn uplink_profiles_suite() -> Suite {
    let mut suite = Suite::new("uplink_profiles", true);
    let (mut production, mut reference) = (
        AbArm::warmed(Profile::Production),
        AbArm::warmed(Profile::Reference),
    );
    let [arrange_speedup, demap_speedup] = paired_cycles(&mut production, &mut reference);

    suite.push(
        "fused.avx512bw.accelerated",
        f64::from(best_fused() == FusedImpl::MaskMergeAvx512),
    );
    suite.push(
        "frontend.avx512bw.accelerated",
        f64::from(
            best_demap() == DemapImpl::Avx512bw && best_descramble() == DescrambleImpl::Avx512bw,
        ),
    );
    suite.push(
        "crc.clmul.accelerated",
        f64::from(best_crc() == CrcImpl::ClmulFold),
    );
    for (name, arm) in [("production", &production), ("reference", &reference)] {
        suite.push(format!("{name}.ok.count"), arm.pm.ok_packets.get() as f64);
        suite.push(
            format!("{name}.frontend_packets.count"),
            arm.pm.frontend_packets.get() as f64,
        );
    }
    suite.push(
        "production.code_blocks",
        production.pm.code_blocks.get() as f64,
    );
    suite.push(
        "production.ingest_blocks.count",
        production.pm.fused_ingest_blocks.get() as f64,
    );
    suite.push(
        "production.fallbacks.count",
        production.pm.frontend_fallbacks.get() as f64,
    );
    suite.push(
        "outcomes.bitexact.count",
        f64::from(production.delivered == reference.delivered),
    );
    suite.push(
        "staging.steady_state_allocs.count",
        (production.steady_allocs() + reference.steady_allocs()) as f64,
    );
    suite.push(
        "arrange.speedup_ge_1p3.count",
        f64::from(arrange_speedup >= 1.3),
    );
    suite.push(
        "demap_descramble.speedup_ge_3x.count",
        f64::from(demap_speedup >= 3.0),
    );
    suite
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
/// sizes, once per [`Profile`] — `scalar.` runs [`Profile::Reference`]
/// and `packed.` [`Profile::Production`] (the prefixes predate the
/// profiles and are kept so the keys stay comparable). The two must
/// agree (every metric equal between the prefixes) and must not drift
/// across commits.
fn downlink_static_suite() -> Suite {
    let mut suite = Suite::new("downlink_static", true);
    for (profile, name) in [
        (Profile::Reference, "scalar"),
        (Profile::Production, "packed"),
    ] {
        let cfg = DownlinkConfig {
            snr_db: 30.0,
            profile,
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
fn pipeline_static_suite() -> Suite {
    let mut suite = Suite::new("pipeline_static", true);
    let metrics = std::sync::Arc::new(PipelineMetrics::new(true));
    let cfg = PipelineConfig {
        snr_db: 30.0,
        ..Default::default()
    };
    let pipe = UplinkPipeline::with_metrics(cfg, metrics.clone());
    let mut b = PacketBuilder::new(5000, 6000);
    for _ in 0..SMOKE_PACKETS {
        let p = b.build(Transport::Udp, SMOKE_WIRE_LEN).expect("valid size");
        let _ = pipe.process(&p);
    }
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
/// standard soak mix through both profiles at pinned seeds and pins
/// every typed-error category count (`.count` metrics gate exactly):
/// drift here means the error taxonomy, the injector's deterministic
/// draw/mutation stream, or a kernel's exactness changed. `scalar.`
/// runs [`Profile::Reference`] and `native.` [`Profile::Production`]
/// (the prefixes predate the profiles and are kept so the keys stay
/// comparable).
fn pipeline_faults_suite() -> Suite {
    let mut suite = Suite::new("pipeline_faults", true);
    for (profile, seed, prefix) in [
        (Profile::Reference, FAULT_SEED_SCALAR, "scalar"),
        (Profile::Production, FAULT_SEED_NATIVE, "native"),
    ] {
        let pm = std::sync::Arc::new(PipelineMetrics::new(true));
        let cfg = PipelineConfig {
            profile,
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
const SUITES: [&str; 11] = [
    "arrange_sim",
    "fused_ingest_uarch",
    "downlink_static",
    "uplink_profiles",
    "uplink_stagegraph",
    "cell_scale_smoke",
    "cell_scale_full",
    "pipeline_static",
    "pipeline_faults",
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
        ("fault_packets".into(), FAULT_PACKETS.to_string()),
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
    if want("downlink_static") {
        report.suites.push(downlink_static_suite());
    }
    if want("uplink_profiles") {
        report.suites.push(uplink_profiles_suite());
    }
    if want("uplink_stagegraph") {
        report.suites.push(uplink_stagegraph_suite());
    }
    if want("cell_scale_smoke") {
        report.suites.push(cell_scale_smoke_suite());
    }
    if want("cell_scale_full") {
        report.suites.push(cell_scale_full_suite());
    }
    if want("pipeline_static") {
        report.suites.push(pipeline_static_suite());
    }
    if want("pipeline_faults") {
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
