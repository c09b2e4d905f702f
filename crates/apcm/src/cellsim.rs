//! Cell-scale workload generation: M cells × many UEs, per-TTI
//! scheduling, mixed traffic, bursty/diurnal arrivals, HARQ storms —
//! and tail-latency accounting for all of it.
//!
//! The paper's capacity question (how many cores does a software eNB
//! need for N cells × 300 Mbps?) is a *tail-latency* question under
//! realistic load, not a peak-Mbps one. This module drives the
//! functional substrate `vran-net` provides — per-TTI scheduling
//! rounds through [`crate::scheduler`] with link adaptation from
//! [`vran_net::amc`], HARQ retransmission behavior grounded in real
//! [`crate::harq`] soft-combining exchanges — under configurable
//! arrival processes and packet-size/transport mixes, and records
//! per-packet latency (queueing + HARQ round trips + modeled
//! processing) into the fixed-bucket histograms of
//! [`vran_net::metrics`].
//!
//! Everything is deterministic from [`CellSimConfig::seed`]: arrivals,
//! channel draws, HARQ severities and the processing-time model (which
//! converts `vran-uarch` cycle counts to nanoseconds) contain no
//! wall-clock input, so two runs with the same seed produce identical
//! reports — the property the `cell_scale_smoke` benchgate suite
//! gates p50/p95/p99 on.
//!
//! ## Model notes
//!
//! * One scheduling winner per cell per TTI (single-winner TDM, as in
//!   [`crate::scheduler`]); the winner's transport blocks segment
//!   across TTIs when a packet exceeds the subframe's bit budget.
//! * HARQ retransmissions ride dedicated synchronous allocations (they
//!   do not re-enter the scheduler queue); each costs one
//!   [`HARQ_RTT_TTIS`] round trip of latency plus one more modeled
//!   processing pass. Attempt counts come from memoized *real*
//!   [`crate::harq`] exchanges at the storm's sign-flip severity, so
//!   the retransmission distribution is what the turbo decoder with
//!   chase combining actually produces, not a coin flip.
//! * Per-packet processing time is the deterministic
//!   [`crate::latency::LatencyModel`] decomposition (arrangement /
//!   SIMD calculation / scalar stages / transport), scaled by attempt
//!   count.

use crate::amc::DivergenceGuard;
use crate::arrange::{ApcmVariant, Mechanism};
use crate::harq::{HarqReceiver, HarqTransmitter};
use crate::latency::LatencyModel;
use crate::scheduler::{CellScheduler, Policy, UeContext};
use std::collections::{HashMap, VecDeque};
use vran_net::metrics::Histogram;
use vran_net::packet::Transport;
use vran_phy::bits::random_bits;
use vran_phy::crc::CRC24B;
use vran_phy::llr::Llr;
use vran_phy::segmentation::Segmentation;
use vran_phy::turbo::TurboEncoder;
use vran_simd::RegWidth;
use vran_uarch::CoreConfig;
use vran_util::rng::SmallRng;

/// One LTE TTI (subframe) in nanoseconds.
pub const TTI_NS: u64 = 1_000_000;

/// TTIs a staged decode task may wait in a batch pool before its pool
/// is deadline-flushed (the modeled twin of the stage-graph runtime's
/// age bound — see [`vran_net::stagegraph::StageGraphConfig::flush_age`]).
pub const BATCH_DEADLINE_TTIS: u64 = 4;

/// Modeled calculation-time speedup of a full four-block launch over a
/// serial per-block decode. A model calibration constant, not a
/// measurement: it is the bar the native quad's timing test holds the
/// kernel to, and a release build of that test measures 1.44–1.55×.
/// ROADMAP item 5 replaces it, with `PAIR_CALC_SPEEDUP`, by measured
/// per-block figures; the gated `cell_scale_*` suites read both.
const QUAD_CALC_SPEEDUP: f64 = 1.6;

/// Modeled calculation-time speedup of a two-block launch: a model
/// calibration constant, as `QUAD_CALC_SPEEDUP` is.
const PAIR_CALC_SPEEDUP: f64 = 1.3;

/// Synchronous HARQ round-trip time in TTIs (LTE FDD: 8 ms between an
/// attempt and its retransmission).
pub const HARQ_RTT_TTIS: u64 = 8;

/// Code-block size of the HARQ severity oracle's real exchanges.
const HARQ_ORACLE_K: usize = 104;
/// Coded bits per oracle (re)transmission — rate ≈ 0.65 on the first
/// shot, so storm-severity flips genuinely need combining to decode.
const HARQ_ORACLE_E: usize = 160;
/// LLR magnitude of the oracle's received soft bits.
const HARQ_ORACLE_MAG: Llr = 24;
/// Decoder iterations per oracle attempt.
const HARQ_ORACLE_ITERS: usize = 6;

/// A packet arrival process: how many packets enter a cell's queues at
/// each TTI. All draws are deterministic from the generator's seed.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ArrivalProcess {
    /// Constant mean rate (Bernoulli-fractional draw around the mean).
    Constant {
        /// Mean packet arrivals per TTI.
        mean_per_tti: f64,
    },
    /// Two-state Markov on/off source: bursts at `on_mean_per_tti`
    /// while "on", silent while "off".
    Bursty {
        /// Mean arrivals per TTI while the source is on.
        on_mean_per_tti: f64,
        /// Per-TTI probability of an on → off transition.
        p_on_to_off: f64,
        /// Per-TTI probability of an off → on transition.
        p_off_to_on: f64,
    },
    /// Diurnal load curve: the mean rate follows a triangle wave (peak
    /// and trough once per period), modeling the day/night swing of a
    /// deployed cell. A triangle (not a sinusoid) keeps the profile
    /// free of platform `libm` rounding.
    Diurnal {
        /// Mean arrivals per TTI averaged over a full period.
        mean_per_tti: f64,
        /// Peak-to-mean modulation depth in `[0, 1]`.
        depth: f64,
        /// Wave period in TTIs.
        period_ttis: u64,
    },
}

impl ArrivalProcess {
    /// Long-run mean arrivals per TTI.
    pub fn mean_per_tti(&self) -> f64 {
        match *self {
            ArrivalProcess::Constant { mean_per_tti } => mean_per_tti,
            ArrivalProcess::Bursty {
                on_mean_per_tti,
                p_on_to_off,
                p_off_to_on,
            } => {
                // Stationary on-probability of the two-state chain.
                let duty = p_off_to_on / (p_on_to_off + p_off_to_on);
                on_mean_per_tti * duty
            }
            ArrivalProcess::Diurnal { mean_per_tti, .. } => mean_per_tti,
        }
    }

    /// Short name for reports.
    pub fn name(&self) -> &'static str {
        match self {
            ArrivalProcess::Constant { .. } => "constant",
            ArrivalProcess::Bursty { .. } => "bursty",
            ArrivalProcess::Diurnal { .. } => "diurnal",
        }
    }
}

/// Stateful arrival generator: an [`ArrivalProcess`] plus its RNG and
/// burst state.
#[derive(Debug, Clone)]
pub struct ArrivalGen {
    process: ArrivalProcess,
    rng: SmallRng,
    on: bool,
}

impl ArrivalGen {
    /// New generator; identical `(process, seed)` pairs produce
    /// identical arrival schedules.
    pub fn new(process: ArrivalProcess, seed: u64) -> Self {
        Self {
            process,
            rng: SmallRng::seed_from_u64(seed),
            on: true,
        }
    }

    /// The process being generated.
    pub fn process(&self) -> &ArrivalProcess {
        &self.process
    }

    /// Integer draw with expectation `rate`: the integer part always
    /// arrives, the fractional part arrives with matching probability.
    fn fractional_count(rate: f64, rng: &mut SmallRng) -> u32 {
        let base = rate.max(0.0);
        let whole = base.floor();
        let extra = u32::from(rng.gen_f64() < base - whole);
        whole as u32 + extra
    }

    /// Packet arrivals at `tti`. Advances burst state and RNG.
    pub fn draw(&mut self, tti: u64) -> u32 {
        match self.process {
            ArrivalProcess::Constant { mean_per_tti } => {
                Self::fractional_count(mean_per_tti, &mut self.rng)
            }
            ArrivalProcess::Bursty {
                on_mean_per_tti,
                p_on_to_off,
                p_off_to_on,
            } => {
                // Draw arrivals for the current state, then transition —
                // one uniform per TTI either way keeps the stream aligned.
                let n = if self.on {
                    Self::fractional_count(on_mean_per_tti, &mut self.rng)
                } else {
                    0
                };
                let u = self.rng.gen_f64();
                if self.on {
                    if u < p_on_to_off {
                        self.on = false;
                    }
                } else if u < p_off_to_on {
                    self.on = true;
                }
                n
            }
            ArrivalProcess::Diurnal {
                mean_per_tti,
                depth,
                period_ttis,
            } => {
                let period = period_ttis.max(1);
                let phase = (tti % period) as f64 / period as f64;
                // Symmetric triangle wave in [-1, 1] with exact zero mean.
                let tri = if phase < 0.25 {
                    4.0 * phase
                } else if phase < 0.75 {
                    2.0 - 4.0 * phase
                } else {
                    4.0 * phase - 4.0
                };
                let rate = mean_per_tti * (1.0 + depth.clamp(0.0, 1.0) * tri);
                Self::fractional_count(rate, &mut self.rng)
            }
        }
    }
}

/// One weighted entry of a [`TrafficMix`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrafficClass {
    /// Transport of packets in this class.
    pub transport: Transport,
    /// Wire length in bytes.
    pub wire_len: usize,
    /// Relative draw weight.
    pub weight: u32,
}

/// A named distribution over packet sizes and transports.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TrafficMix {
    name: &'static str,
    classes: Vec<TrafficClass>,
    total_weight: u64,
}

impl TrafficMix {
    fn build(name: &'static str, classes: Vec<TrafficClass>) -> Self {
        assert!(!classes.is_empty(), "a mix needs at least one class");
        assert!(classes.iter().all(|c| c.weight > 0), "weights must be > 0");
        let total_weight = classes.iter().map(|c| c.weight as u64).sum();
        Self {
            name,
            classes,
            total_weight,
        }
    }

    /// The paper's workload: UDP and TCP at every size of the
    /// 64 B–1400 B sweep (Figure 13), uniformly weighted.
    pub fn paper_sweep() -> Self {
        let mut classes = Vec::new();
        for transport in [Transport::Udp, Transport::Tcp] {
            for wire_len in [64usize, 128, 300, 600, 900, 1200, 1400] {
                classes.push(TrafficClass {
                    transport,
                    wire_len,
                    weight: 1,
                });
            }
        }
        Self::build("paper_sweep", classes)
    }

    /// Classic IMIX (7:4:1 small/medium/large), UDP.
    pub fn imix() -> Self {
        Self::build(
            "imix",
            vec![
                TrafficClass {
                    transport: Transport::Udp,
                    wire_len: 64,
                    weight: 7,
                },
                TrafficClass {
                    transport: Transport::Udp,
                    wire_len: 570,
                    weight: 4,
                },
                TrafficClass {
                    transport: Transport::Udp,
                    wire_len: 1400,
                    weight: 1,
                },
            ],
        )
    }

    /// Small-packet voice-like load: 64 B and 128 B UDP.
    pub fn voip() -> Self {
        Self::build(
            "voip",
            vec![
                TrafficClass {
                    transport: Transport::Udp,
                    wire_len: 64,
                    weight: 3,
                },
                TrafficClass {
                    transport: Transport::Udp,
                    wire_len: 128,
                    weight: 1,
                },
            ],
        )
    }

    /// Mix name.
    pub fn name(&self) -> &'static str {
        self.name
    }

    /// The weighted classes.
    pub fn classes(&self) -> &[TrafficClass] {
        &self.classes
    }

    /// Mean wire length in bytes under the weights.
    pub fn mean_wire_len(&self) -> f64 {
        let weighted: f64 = self
            .classes
            .iter()
            .map(|c| c.wire_len as f64 * c.weight as f64)
            .sum();
        weighted / self.total_weight as f64
    }

    /// Draw one `(transport, wire_len)` pair.
    pub fn draw(&self, rng: &mut SmallRng) -> (Transport, usize) {
        let mut pick = rng.next_u64() % self.total_weight;
        for c in &self.classes {
            if pick < c.weight as u64 {
                return (c.transport, c.wire_len);
            }
            pick -= c.weight as u64;
        }
        unreachable!("weights sum to total_weight");
    }
}

/// A HARQ retransmission storm: a TTI window in which every served
/// packet's soft bits arrive with `1/flip_every` of their signs
/// flipped, forcing real chase-combining retransmissions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HarqStorm {
    /// First TTI of the storm.
    pub start_tti: u64,
    /// Storm length in TTIs.
    pub len_ttis: u64,
    /// Sign-flip spacing during the storm (smaller = harsher; must be
    /// ≥ 2).
    pub flip_every: usize,
}

impl HarqStorm {
    /// Whether `tti` falls inside the storm window.
    pub fn covers(&self, tti: u64) -> bool {
        tti >= self.start_tti && tti < self.start_tti + self.len_ttis
    }
}

/// Memoized real-HARQ severity oracle: attempts needed to decode at a
/// given sign-flip severity and phase, measured by running an actual
/// [`crate::harq`] transmitter/receiver exchange (turbo decode with
/// chase combining over the rv schedule) once per `(flip_every,
/// phase)` and caching the outcome. `0` means the rv schedule was
/// exhausted without a clean CRC — the packet is lost.
#[derive(Debug, Default)]
pub struct HarqOracle {
    cache: HashMap<(usize, usize), u32>,
}

impl HarqOracle {
    /// Fresh oracle with an empty cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts to decode at severity `flip_every`, phase `phase`
    /// (`1..=4`), or `0` on residual failure.
    pub fn attempts(&mut self, flip_every: usize, phase: usize) -> u32 {
        assert!(flip_every >= 2, "flip_every < 2 flips everything");
        *self
            .cache
            .entry((flip_every, phase))
            .or_insert_with(|| Self::run_exchange(flip_every, phase))
    }

    /// Cached severity points (diagnostic).
    pub fn cached(&self) -> usize {
        self.cache.len()
    }

    fn run_exchange(flip_every: usize, phase: usize) -> u32 {
        let payload = random_bits(HARQ_ORACLE_K - 24, 11);
        let block = CRC24B.attach(&payload);
        let cw = TurboEncoder::new(HARQ_ORACLE_K).encode(&block);
        let mut tx = HarqTransmitter::new(&cw);
        let mut rx = HarqReceiver::new(HARQ_ORACLE_K, HARQ_ORACLE_ITERS);
        let mut attempt = 0u32;
        while let Some((rv, coded)) = tx.next_transmission(HARQ_ORACLE_E) {
            attempt += 1;
            // Vary the flip phase per attempt so retransmissions carry
            // damage at different positions, as fading would.
            let p = phase + attempt as usize * 3;
            let llrs: Vec<Llr> = coded
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    let v = if b == 0 {
                        HARQ_ORACLE_MAG
                    } else {
                        -HARQ_ORACLE_MAG
                    };
                    if (i + p).is_multiple_of(flip_every) {
                        -v
                    } else {
                        v
                    }
                })
                .collect();
            let out = rx.receive(&llrs, rv).expect("rv from the schedule");
            if out.ok {
                return attempt;
            }
        }
        0
    }
}

/// Configuration of one cell-scale run.
#[derive(Debug, Clone)]
pub struct CellSimConfig {
    /// Preset label carried into reports.
    pub name: &'static str,
    /// Number of cells (independent schedulers, queues and channels).
    pub cells: usize,
    /// Active UEs per cell.
    pub ues_per_cell: usize,
    /// Simulated TTIs (1 ms each).
    pub ttis: u64,
    /// Per-cell aggregate arrival process.
    pub arrivals: ArrivalProcess,
    /// Packet size / transport distribution.
    pub mix: TrafficMix,
    /// Scheduling policy.
    pub policy: Policy,
    /// Optional HARQ retransmission storm.
    pub storm: Option<HarqStorm>,
    /// Register width of the modeled PHY kernels.
    pub width: RegWidth,
    /// Arrangement mechanism of the modeled PHY kernels.
    pub mechanism: Mechanism,
    /// Turbo iterations per code block in the processing-time model.
    pub decoder_iterations: usize,
    /// Model the out-of-order stage-graph runtime: served packets'
    /// code blocks pool by K across packets (and cells — one eNB PHY
    /// worker), launch as quad/pair batches with the measured
    /// calculation-time speedups, and record their latency when the
    /// last block launches (adding the batch-formation wait to the
    /// total). Off reproduces the per-packet serial model.
    pub stage_graph: bool,
    /// Master seed; all randomness derives from it.
    pub seed: u64,
}

impl CellSimConfig {
    /// The deterministic CI smoke preset: 2 cells × 48 UEs × 1200
    /// TTIs of bursty paper-sweep traffic with a mid-run HARQ storm —
    /// small enough for a CI runner, loaded enough that queueing and
    /// retransmission tails are non-trivial.
    pub fn smoke(seed: u64) -> Self {
        Self {
            name: "smoke",
            cells: 2,
            ues_per_cell: 48,
            ttis: 1200,
            arrivals: ArrivalProcess::Bursty {
                on_mean_per_tti: 1.6,
                p_on_to_off: 0.02,
                p_off_to_on: 0.02,
            },
            mix: TrafficMix::paper_sweep(),
            policy: Policy::ProportionalFair,
            storm: Some(HarqStorm {
                start_tti: 500,
                len_ttis: 150,
                flip_every: 5,
            }),
            width: RegWidth::Avx512,
            mechanism: Mechanism::Apcm(ApcmVariant::Shuffle),
            decoder_iterations: 5,
            stage_graph: true,
            seed,
        }
    }

    /// The full-scale preset at `cells` cells: 1024 UEs per cell under
    /// a diurnal load curve with a storm at the peak — the workload the
    /// cores-per-(cells × 300 Mbps) capacity table is computed from.
    pub fn full(cells: usize, seed: u64) -> Self {
        Self {
            name: "full",
            cells,
            ues_per_cell: 1024,
            ttis: 1500,
            // Peak rate (mean × (1 + depth)) stays just under the
            // single-winner subframe capacity of ~5.5 kbit/TTI at this
            // mix's ~5.2 kbit mean packet, so the diurnal peak loads
            // the cell hard without unbounded queue growth — tails
            // come from bursts, the storm and HARQ, not saturation.
            arrivals: ArrivalProcess::Diurnal {
                mean_per_tti: 0.65,
                depth: 0.5,
                period_ttis: 1000,
            },
            mix: TrafficMix::paper_sweep(),
            policy: Policy::ProportionalFair,
            storm: Some(HarqStorm {
                start_tti: 600,
                len_ttis: 200,
                flip_every: 5,
            }),
            width: RegWidth::Avx512,
            mechanism: Mechanism::Apcm(ApcmVariant::Shuffle),
            decoder_iterations: 5,
            stage_graph: true,
            seed,
        }
    }
}

/// Latency decomposition histograms of one run. Queue and total use
/// the wide grid (TTIs and HARQ round trips run to seconds under
/// storm backlog); the processing-stage histograms use the per-packet
/// grid.
#[derive(Debug)]
pub struct LatencyBreakdown {
    /// End-to-end per-packet latency (queue + HARQ + processing).
    pub total: Histogram,
    /// Queueing delay (arrival TTI → first-serve TTI).
    pub queue: Histogram,
    /// HARQ retransmission delay (round trips after the first attempt).
    pub harq: Histogram,
    /// Modeled processing time, all attempts.
    pub proc: Histogram,
    /// Processing share: the data-arrangement stage.
    pub arrange: Histogram,
    /// Processing share: SIMD max-log-MAP calculation.
    pub calc: Histogram,
    /// Processing share: scalar pipeline stages.
    pub other: Histogram,
    /// Batch-formation wait: service completion → last decode-block
    /// launch under the stage-graph model (always zero when
    /// [`CellSimConfig::stage_graph`] is off). Wide grid: pools flush
    /// within [`BATCH_DEADLINE_TTIS`] TTIs.
    pub batch: Histogram,
}

impl LatencyBreakdown {
    fn new() -> Self {
        Self {
            total: Histogram::latency_wide_ns(),
            queue: Histogram::latency_wide_ns(),
            harq: Histogram::latency_wide_ns(),
            proc: Histogram::latency_ns(),
            arrange: Histogram::latency_ns(),
            calc: Histogram::latency_ns(),
            other: Histogram::latency_ns(),
            batch: Histogram::latency_wide_ns(),
        }
    }
}

/// Outcome of one cell-scale run.
#[derive(Debug)]
pub struct CellSimReport {
    /// The configuration's preset label.
    pub name: &'static str,
    /// Cells simulated.
    pub cells: usize,
    /// UEs per cell.
    pub ues_per_cell: usize,
    /// TTIs simulated.
    pub ttis: u64,
    /// Packets that arrived.
    pub offered_packets: u64,
    /// Wire bits that arrived.
    pub offered_bits: u64,
    /// Packets served (decoded clean, possibly after retransmission).
    pub served_packets: u64,
    /// Wire bits of served packets.
    pub served_bits: u64,
    /// Packets lost after exhausting the rv schedule.
    pub dropped_packets: u64,
    /// Packets still queued when the run ended.
    pub backlog_packets: u64,
    /// HARQ retransmissions beyond first attempts.
    pub harq_retransmissions: u64,
    /// Subframes in which some cell scheduled a winner.
    pub scheduled_ttis: u64,
    /// Subframes in which a cell had nothing to schedule.
    pub idle_ttis: u64,
    /// Modeled processing nanoseconds summed over all attempts.
    pub proc_ns_total: u64,
    /// Jain fairness index over per-UE scheduler-served bits.
    pub ue_fairness: f64,
    /// Code blocks that launched in a full quad-in-zmm batch.
    pub batch_quad_blocks: u64,
    /// Code blocks that launched in a pair-in-ymm batch.
    pub batch_pair_blocks: u64,
    /// Code blocks that launched alone.
    pub batch_single_blocks: u64,
    /// Pool flushes because four same-K blocks filled the lanes.
    pub batch_flush_lanes_full: u64,
    /// Pool flushes because the oldest block aged past
    /// [`BATCH_DEADLINE_TTIS`].
    pub batch_flush_deadline: u64,
    /// Pool flushes at end-of-run drain.
    pub batch_flush_drain: u64,
    /// Divergence-guard MCS step-downs across all cells
    /// ([`crate::amc::DivergenceGuard`]).
    pub amc_stepdowns: u64,
    /// Latency histograms.
    pub latency: LatencyBreakdown,
}

impl CellSimReport {
    /// Simulated duration in seconds.
    pub fn sim_seconds(&self) -> f64 {
        self.ttis as f64 * TTI_NS as f64 * 1e-9
    }

    /// Offered load in Mbps over the simulated window.
    pub fn offered_mbps(&self) -> f64 {
        self.offered_bits as f64 / self.sim_seconds() / 1e6
    }

    /// Served goodput in Mbps over the simulated window.
    pub fn served_mbps(&self) -> f64 {
        self.served_bits as f64 / self.sim_seconds() / 1e6
    }

    /// Average PHY core-equivalents consumed: modeled processing time
    /// divided by simulated wall time.
    pub fn core_equivalents(&self) -> f64 {
        self.proc_ns_total as f64 / (self.ttis as f64 * TTI_NS as f64)
    }

    /// Cores needed to sustain `target_mbps` of this traffic shape,
    /// scaling the observed processing-per-served-bit linearly — the
    /// paper's Figure 16 "cores required" question answered under a
    /// scheduled multi-cell mix instead of one saturated stream.
    pub fn cores_for(&self, target_mbps: f64) -> f64 {
        let served = self.served_mbps();
        if served <= 0.0 {
            return f64::INFINITY;
        }
        self.core_equivalents() * target_mbps / served
    }

    /// Fraction of decode blocks that launched in a full quad — the
    /// modeled zmm lane-occupancy figure. 0.0 when nothing decoded
    /// (or the stage-graph model is off).
    pub fn batch_lane_occupancy(&self) -> f64 {
        let quad = self.batch_quad_blocks as f64;
        let total = quad + self.batch_pair_blocks as f64 + self.batch_single_blocks as f64;
        if total == 0.0 {
            0.0
        } else {
            quad / total
        }
    }

    /// Flat, insertion-ordered metric snapshot with benchgate-ready
    /// names: counts (`.count` / `_bits`, exact tolerance), latency
    /// percentiles (`.p50_ns`/`.p95_ns`/`.p99_ns`, percentile
    /// tolerance) and the fairness ratio.
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let mut out = vec![
            ("offered.count".into(), self.offered_packets as f64),
            ("served.count".into(), self.served_packets as f64),
            ("dropped.count".into(), self.dropped_packets as f64),
            ("backlog.count".into(), self.backlog_packets as f64),
            ("harq_retx.count".into(), self.harq_retransmissions as f64),
            ("scheduled_ttis.count".into(), self.scheduled_ttis as f64),
            ("idle_ttis.count".into(), self.idle_ttis as f64),
            ("served_bits".into(), self.served_bits as f64),
            ("offered_bits".into(), self.offered_bits as f64),
            ("ue.fairness.ratio".into(), self.ue_fairness),
            (
                "batch.lane_occupancy.ratio".into(),
                self.batch_lane_occupancy(),
            ),
            (
                "batch.quad_blocks.count".into(),
                self.batch_quad_blocks as f64,
            ),
            (
                "batch.pair_blocks.count".into(),
                self.batch_pair_blocks as f64,
            ),
            (
                "batch.single_blocks.count".into(),
                self.batch_single_blocks as f64,
            ),
            (
                "batch.flush.lanes_full.count".into(),
                self.batch_flush_lanes_full as f64,
            ),
            (
                "batch.flush.deadline.count".into(),
                self.batch_flush_deadline as f64,
            ),
            (
                "batch.flush.drain.count".into(),
                self.batch_flush_drain as f64,
            ),
            ("amc_stepdowns.count".into(), self.amc_stepdowns as f64),
        ];
        for (prefix, h) in [
            ("latency.total", &self.latency.total),
            ("latency.queue", &self.latency.queue),
            ("latency.harq", &self.latency.harq),
            ("latency.proc", &self.latency.proc),
            ("latency.arrange", &self.latency.arrange),
            ("latency.calc", &self.latency.calc),
            ("latency.batch", &self.latency.batch),
        ] {
            out.push((format!("{prefix}.p50_ns"), h.quantile_upper(0.50) as f64));
            out.push((format!("{prefix}.p95_ns"), h.quantile_upper(0.95) as f64));
            out.push((format!("{prefix}.p99_ns"), h.quantile_upper(0.99) as f64));
            out.push((format!("{prefix}.mean_ns"), h.mean()));
        }
        out
    }
}

/// One queued packet.
#[derive(Debug, Clone, Copy)]
struct PendingPacket {
    arrival_tti: u64,
    transport: Transport,
    wire_len: usize,
}

/// Per-UE queue with cross-TTI segmentation state for the head packet.
#[derive(Debug, Default)]
struct UeQueue {
    q: VecDeque<PendingPacket>,
    /// Bits of the head packet already granted in earlier TTIs.
    head_served_bits: u64,
}

/// Per-cell state.
struct Cell {
    sched: CellScheduler,
    queues: Vec<UeQueue>,
    arrivals: ArrivalGen,
    traffic_rng: SmallRng,
    /// Outer-loop link adaptation wrapped in the divergence guard:
    /// sustained decode failure steps the effective MCS down a table
    /// row at a time (the AMC half of the degradation ladder).
    outer_loop: DivergenceGuard,
    eligible: Vec<bool>,
}

/// A served packet whose latency record is deferred until its last
/// decode block launches from a batch pool (stage-graph model).
#[derive(Debug)]
struct PendingDecode {
    queue_ns: u64,
    harq_ns: u64,
    arr_ns: u64,
    other_ns: u64,
    /// Accumulated as blocks launch (per-block calc share divided by
    /// the launch group's speedup).
    calc_ns: u64,
    /// Blocks still waiting in some pool.
    remaining: usize,
    /// TTI the packet finished serving (batch wait baseline).
    complete_tti: u64,
}

/// One staged decode block in the modeled batch former.
#[derive(Debug)]
struct ModelTask {
    owner: u64,
    /// Serial per-block calculation-time share (before speedup).
    calc_share_ns: u64,
    staged_tti: u64,
}

/// A same-K pool of the modeled batch former (insertion-ordered across
/// Ks for determinism).
#[derive(Debug)]
struct ModelPool {
    k: usize,
    tasks: Vec<ModelTask>,
}

/// The cell-scale simulator.
pub struct CellSim {
    cfg: CellSimConfig,
    cells: Vec<Cell>,
    model: LatencyModel,
    oracle: HarqOracle,
    /// `(transport, wire_len) → (proc_ns, arrange_ns, calc_ns,
    /// other_ns)` per attempt, memoized from the latency model.
    proc_cache: HashMap<(bool, usize), (u64, u64, u64, u64)>,
    /// `wire_len → code-block K list`, memoized from the segmentation
    /// plan (stage-graph model).
    seg_cache: HashMap<usize, Vec<usize>>,
    /// Served packets awaiting decode-block launches, by id.
    pending: HashMap<u64, PendingDecode>,
    next_pending: u64,
    /// The modeled batch former: one pool per K, shared across cells
    /// (one eNB PHY worker pools all of its cells' blocks).
    pools: Vec<ModelPool>,
    /// Chaos hook: extra dB subtracted from every cell's scheduler SNR
    /// offset (models a fleet-wide channel collapse mid-run).
    chaos_snr_offset_db: f32,
}

impl CellSim {
    /// Build a simulator from a configuration.
    pub fn new(cfg: CellSimConfig) -> Self {
        assert!(cfg.cells >= 1 && cfg.ues_per_cell >= 1 && cfg.ttis >= 1);
        assert!(
            cfg.ues_per_cell <= u16::MAX as usize,
            "UE ids are u16 per cell"
        );
        let cells = (0..cfg.cells)
            .map(|c| {
                let cell_seed = cfg
                    .seed
                    .wrapping_add((c as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
                let mut ue_rng = SmallRng::seed_from_u64(cell_seed);
                // Mean SNR spread from cell edge to cell center.
                let ues: Vec<UeContext> = (0..cfg.ues_per_cell)
                    .map(|u| UeContext::new(u as u16, ue_rng.gen_range_f32(4.0, 24.0)))
                    .collect();
                Cell {
                    sched: CellScheduler::new(ues, cfg.policy, cell_seed ^ 0x5ce1),
                    queues: (0..cfg.ues_per_cell).map(|_| UeQueue::default()).collect(),
                    arrivals: ArrivalGen::new(cfg.arrivals, cell_seed ^ 0xa44),
                    traffic_rng: SmallRng::seed_from_u64(cell_seed ^ 0x7aff1c),
                    outer_loop: DivergenceGuard::default(),
                    eligible: vec![false; cfg.ues_per_cell],
                }
            })
            .collect();
        let model = LatencyModel::new(CoreConfig::beefy(), cfg.decoder_iterations);
        Self {
            cfg,
            cells,
            model,
            oracle: HarqOracle::new(),
            proc_cache: HashMap::new(),
            seg_cache: HashMap::new(),
            pending: HashMap::new(),
            next_pending: 0,
            pools: Vec::new(),
            chaos_snr_offset_db: 0.0,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &CellSimConfig {
        &self.cfg
    }

    /// Chaos hook: replace the HARQ storm window mid-run (the chaos
    /// scheduler phases storms in and out of a stepped simulation).
    pub fn set_storm(&mut self, storm: Option<HarqStorm>) {
        self.cfg.storm = storm;
    }

    /// Chaos hook: add `db` (typically negative) to every cell's
    /// scheduler SNR offset from the next TTI on — a fleet-wide SNR
    /// collapse. The AMC outer loop and divergence guard see its
    /// decode consequences and adapt on their own.
    pub fn set_chaos_snr_offset_db(&mut self, db: f32) {
        self.chaos_snr_offset_db = db;
    }

    /// Total divergence-guard MCS step-downs across all cells so far.
    pub fn amc_stepdowns(&self) -> u64 {
        self.cells.iter().map(|c| c.outer_loop.stepdowns()).sum()
    }

    /// Modeled per-attempt processing decomposition in nanoseconds.
    fn proc_ns(&mut self, transport: Transport, wire_len: usize) -> (u64, u64, u64, u64) {
        let key = (matches!(transport, Transport::Tcp), wire_len);
        if let Some(&v) = self.proc_cache.get(&key) {
            return v;
        }
        let t = self
            .model
            .packet_time(self.cfg.width, self.cfg.mechanism, transport, wire_len);
        let v = (
            (t.total_us() * 1000.0) as u64,
            (t.arrangement_us * 1000.0) as u64,
            (t.calculation_us * 1000.0) as u64,
            ((t.other_us + t.transport_us) * 1000.0) as u64,
        );
        self.proc_cache.insert(key, v);
        v
    }

    /// Code-block sizes (K) a packet of `wire_len` bytes segments
    /// into, mirroring the real pipeline's transport-block build
    /// (L2 overhead + CRC24A, then the 3GPP segmentation plan).
    fn block_ks(&mut self, wire_len: usize) -> &[usize] {
        self.seg_cache.entry(wire_len).or_insert_with(|| {
            let bits = (wire_len + vran_net::l2::L2_OVERHEAD) * 8 + 24;
            let seg = Segmentation::plan(bits);
            (0..seg.c).map(|i| seg.k_of(i)).collect()
        })
    }

    /// Stage one decode block into its K pool; a filled pool launches
    /// a quad immediately.
    fn stage_block(
        &mut self,
        k: usize,
        owner: u64,
        calc_share_ns: u64,
        tti: u64,
        report: &mut CellSimReport,
    ) {
        let pi = match self.pools.iter().position(|p| p.k == k) {
            Some(i) => i,
            None => {
                self.pools.push(ModelPool {
                    k,
                    tasks: Vec::with_capacity(4),
                });
                self.pools.len() - 1
            }
        };
        self.pools[pi].tasks.push(ModelTask {
            owner,
            calc_share_ns,
            staged_tti: tti,
        });
        if self.pools[pi].tasks.len() >= 4 {
            report.batch_flush_lanes_full += 1;
            self.launch_pool(pi, tti, report);
        }
    }

    /// Launch everything in pool `pi` (quads, then a pair, then a
    /// single), crediting each block's calculation time at its launch
    /// group's speedup, and recording the deferred latency of every
    /// packet whose last block this launch decoded.
    fn launch_pool(&mut self, pi: usize, tti: u64, report: &mut CellSimReport) {
        let tasks = std::mem::take(&mut self.pools[pi].tasks);
        let n = tasks.len();
        for (j, t) in tasks.into_iter().enumerate() {
            // Position j's launch group under quad-then-pair-then-
            // single chunking of n tasks.
            let left_after_quads = n - (n / 4) * 4;
            let speedup = if j < (n / 4) * 4 {
                report.batch_quad_blocks += 1;
                QUAD_CALC_SPEEDUP
            } else if left_after_quads >= 2 && j < n - (left_after_quads % 2) {
                report.batch_pair_blocks += 1;
                PAIR_CALC_SPEEDUP
            } else {
                report.batch_single_blocks += 1;
                1.0
            };
            let calc = (t.calc_share_ns as f64 / speedup) as u64;
            report.proc_ns_total += calc;
            let done = {
                let p = self.pending.get_mut(&t.owner).expect("owner pending");
                p.calc_ns += calc;
                p.remaining -= 1;
                p.remaining == 0
            };
            if done {
                let p = self.pending.remove(&t.owner).expect("present");
                let wait_ns = tti.saturating_sub(p.complete_tti) * TTI_NS;
                let proc_ns = p.arr_ns + p.other_ns + p.calc_ns;
                let lat = &report.latency;
                lat.queue.record(p.queue_ns);
                lat.harq.record(p.harq_ns);
                lat.proc.record(proc_ns);
                lat.arrange.record(p.arr_ns);
                lat.calc.record(p.calc_ns);
                lat.other.record(p.other_ns);
                lat.batch.record(wait_ns);
                lat.total.record(p.queue_ns + p.harq_ns + proc_ns + wait_ns);
            }
        }
    }

    /// Deadline-flush pools whose oldest block aged past
    /// [`BATCH_DEADLINE_TTIS`] (called once per TTI).
    fn flush_aged_pools(&mut self, tti: u64, report: &mut CellSimReport) {
        for pi in 0..self.pools.len() {
            let due = self.pools[pi]
                .tasks
                .first()
                .is_some_and(|t| tti.saturating_sub(t.staged_tti) >= BATCH_DEADLINE_TTIS);
            if due {
                report.batch_flush_deadline += 1;
                self.launch_pool(pi, tti, report);
            }
        }
    }

    /// Run the configured number of TTIs and produce the report.
    pub fn run(mut self) -> CellSimReport {
        let mut report = self.begin_report();
        for tti in 0..self.cfg.ttis {
            self.step(tti, &mut report);
        }
        self.finish_report(&mut report);
        report
    }

    /// Fresh zeroed report carrying this simulation's shape. The
    /// stepped API (`begin_report` / [`Self::step`] /
    /// [`Self::finish_report`]) lets a driver interleave measurement
    /// windows and mid-run reconfiguration ([`Self::set_storm`],
    /// [`Self::set_chaos_snr_offset_db`]) — the chaos scheduler's
    /// recovery clock is built on it. `run()` composes exactly these
    /// three calls, so a stepped run with one report is byte-identical
    /// to `run()`.
    pub fn begin_report(&self) -> CellSimReport {
        CellSimReport {
            name: self.cfg.name,
            cells: self.cfg.cells,
            ues_per_cell: self.cfg.ues_per_cell,
            ttis: self.cfg.ttis,
            offered_packets: 0,
            offered_bits: 0,
            served_packets: 0,
            served_bits: 0,
            dropped_packets: 0,
            backlog_packets: 0,
            harq_retransmissions: 0,
            scheduled_ttis: 0,
            idle_ttis: 0,
            proc_ns_total: 0,
            ue_fairness: 0.0,
            batch_quad_blocks: 0,
            batch_pair_blocks: 0,
            batch_single_blocks: 0,
            batch_flush_lanes_full: 0,
            batch_flush_deadline: 0,
            batch_flush_drain: 0,
            amc_stepdowns: 0,
            latency: LatencyBreakdown::new(),
        }
    }

    /// Simulate one TTI, recording into `report` (which need not be
    /// the same report across steps — a windowed driver hands a fresh
    /// one per measurement window).
    pub fn step(&mut self, tti: u64, report: &mut CellSimReport) {
        for c in 0..self.cells.len() {
            self.tick_cell(c, tti, report);
        }
        if self.cfg.stage_graph {
            self.flush_aged_pools(tti, report);
        }
    }

    /// End-of-run accounting: drain partial pools, count the backlog,
    /// compute fairness, harvest AMC step-downs. `end_tti` is the TTI
    /// the drain is charged to ([`Self::run`] uses `cfg.ttis`).
    pub fn finish_report(&mut self, report: &mut CellSimReport) {
        let end_tti = self.cfg.ttis;
        // End-of-run drain: launch every partial pool so all served
        // packets record their latency.
        if self.cfg.stage_graph {
            for pi in 0..self.pools.len() {
                if !self.pools[pi].tasks.is_empty() {
                    report.batch_flush_drain += 1;
                    self.launch_pool(pi, end_tti, report);
                }
            }
            debug_assert!(self.pending.is_empty(), "drain retires everything");
        }

        // Backlog: whatever is still queued.
        report.backlog_packets = self
            .cells
            .iter()
            .flat_map(|c| c.queues.iter())
            .map(|q| q.q.len() as u64)
            .sum();

        // Jain fairness over scheduler-served bits across every UE.
        let served: Vec<f64> = self
            .cells
            .iter()
            .flat_map(|c| c.sched.ues().iter())
            .map(|u| u.served_bits as f64)
            .collect();
        let sum: f64 = served.iter().sum();
        let sumsq: f64 = served.iter().map(|x| x * x).sum();
        report.ue_fairness = if sumsq > 0.0 {
            sum * sum / (served.len() as f64 * sumsq)
        } else {
            0.0
        };
        report.amc_stepdowns = self.amc_stepdowns();
    }

    /// One cell's subframe: arrivals, a scheduling round, service of
    /// the winner's queue, HARQ resolution of completed packets.
    fn tick_cell(&mut self, c: usize, tti: u64, report: &mut CellSimReport) {
        // Arrivals land before the scheduling round (they may be
        // served in the same TTI with zero queueing delay).
        let n_arrivals = self.cells[c].arrivals.draw(tti);
        for _ in 0..n_arrivals {
            let cell = &mut self.cells[c];
            let ue = cell.traffic_rng.gen_range_usize(0, cell.queues.len());
            let (transport, wire_len) = self.cfg.mix.draw(&mut cell.traffic_rng);
            cell.queues[ue].q.push_back(PendingPacket {
                arrival_tti: tti,
                transport,
                wire_len,
            });
            report.offered_packets += 1;
            report.offered_bits += wire_len as u64 * 8;
        }

        // Link adaptation feedback, then the scheduling round over
        // backlogged UEs only.
        let cell = &mut self.cells[c];
        let offset = cell.outer_loop.offset_db() + self.chaos_snr_offset_db;
        cell.sched.set_snr_offset_db(offset);
        for (e, q) in cell.eligible.iter_mut().zip(&cell.queues) {
            *e = !q.q.is_empty();
        }
        let eligible = std::mem::take(&mut cell.eligible);
        let round = cell.sched.tick_filtered(&eligible);
        self.cells[c].eligible = eligible;
        let Some(round) = round else {
            report.idle_ttis += 1;
            return;
        };
        report.scheduled_ttis += 1;

        // Serve the winner's queue within this subframe's bit budget;
        // packets larger than the budget segment across TTIs.
        let winner = round.ue as usize;
        let mut budget = round.bits;
        let mut completed: Vec<PendingPacket> = Vec::new();
        {
            let uq = &mut self.cells[c].queues[winner];
            while budget > 0 {
                let Some(head) = uq.q.front() else { break };
                let need = head.wire_len as u64 * 8 - uq.head_served_bits;
                if budget >= need {
                    budget -= need;
                    uq.head_served_bits = 0;
                    completed.push(uq.q.pop_front().expect("front exists"));
                } else {
                    uq.head_served_bits += budget;
                    budget = 0;
                }
            }
        }

        // HARQ resolution and latency accounting per completed packet.
        let storm_flip = self
            .cfg
            .storm
            .filter(|s| s.covers(tti))
            .map(|s| s.flip_every);
        for pkt in completed {
            let attempts = match storm_flip {
                None => 1,
                Some(flip_every) => {
                    let phase = self.cells[c]
                        .traffic_rng
                        .gen_range_usize(0, flip_every.max(2));
                    self.oracle.attempts(flip_every, phase)
                }
            };
            self.cells[c].outer_loop.report(attempts == 1);

            let (proc1, arr1, calc1, other1) = self.proc_ns(pkt.transport, pkt.wire_len);
            if attempts == 0 {
                // rv schedule exhausted: all four attempts burned CPU,
                // but the packet is lost and records no latency.
                report.dropped_packets += 1;
                report.harq_retransmissions += 3;
                report.proc_ns_total += proc1 * 4;
                continue;
            }
            let retx = attempts as u64 - 1;
            report.served_packets += 1;
            report.served_bits += pkt.wire_len as u64 * 8;
            report.harq_retransmissions += retx;

            let queue_ns = (tti - pkt.arrival_tti) * TTI_NS;
            let harq_ns = retx * HARQ_RTT_TTIS * TTI_NS;
            if self.cfg.stage_graph {
                // Stage-graph model: non-calc stages are charged now;
                // each code block's calculation share is charged when
                // its batch launches (at that group's speedup), and
                // the latency record is deferred until the last block
                // launches.
                let ks: Vec<usize> = self.block_ks(pkt.wire_len).to_vec();
                let arr_ns = arr1 * attempts as u64;
                let other_ns = other1 * attempts as u64;
                let calc_share = calc1 * attempts as u64 / ks.len() as u64;
                report.proc_ns_total += arr_ns + other_ns;
                let id = self.next_pending;
                self.next_pending += 1;
                self.pending.insert(
                    id,
                    PendingDecode {
                        queue_ns,
                        harq_ns,
                        arr_ns,
                        other_ns,
                        calc_ns: 0,
                        remaining: ks.len(),
                        complete_tti: tti,
                    },
                );
                for k in ks {
                    self.stage_block(k, id, calc_share, tti, report);
                }
            } else {
                report.proc_ns_total += proc1 * attempts as u64;
                let proc_ns = proc1 * attempts as u64;
                let lat = &report.latency;
                lat.queue.record(queue_ns);
                lat.harq.record(harq_ns);
                lat.proc.record(proc_ns);
                lat.arrange.record(arr1 * attempts as u64);
                lat.calc.record(calc1 * attempts as u64);
                lat.other.record(other1 * attempts as u64);
                lat.batch.record(0);
                lat.total.record(queue_ns + harq_ns + proc_ns);
            }
        }
    }
}

/// Convenience: build, run and report in one call.
pub fn run_cell_sim(cfg: CellSimConfig) -> CellSimReport {
    CellSim::new(cfg).run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn smoke_preset_is_deterministic() {
        let a = run_cell_sim(CellSimConfig::smoke(7)).snapshot();
        let b = run_cell_sim(CellSimConfig::smoke(7)).snapshot();
        assert_eq!(a, b, "same seed must reproduce byte-identically");
        let c = run_cell_sim(CellSimConfig::smoke(8)).snapshot();
        assert_ne!(a, c, "different seeds must differ");
    }

    #[test]
    fn packet_conservation_holds() {
        let r = run_cell_sim(CellSimConfig::smoke(1));
        assert_eq!(
            r.offered_packets,
            r.served_packets + r.dropped_packets + r.backlog_packets,
            "every offered packet is served, dropped or still queued"
        );
        assert!(r.served_packets > 0, "the smoke preset must serve traffic");
        assert_eq!(r.latency.total.count(), r.served_packets);
        assert_eq!(r.scheduled_ttis + r.idle_ttis, r.ttis * r.cells as u64);
    }

    #[test]
    fn smoke_preset_exercises_queueing_and_harq_tails() {
        let r = run_cell_sim(CellSimConfig::smoke(1));
        assert!(
            r.harq_retransmissions > 0,
            "the storm must force retransmissions"
        );
        let p50 = r.latency.total.quantile_upper(0.50);
        let p99 = r.latency.total.quantile_upper(0.99);
        assert!(
            p99 > p50,
            "tail must be heavier than the median: p50={p50} p99={p99}"
        );
        assert!(
            p99 >= HARQ_RTT_TTIS * TTI_NS,
            "storm retransmissions put at least one HARQ RTT in the tail"
        );
        assert!(p99 < u64::MAX, "p99 must not land in the overflow bucket");
        assert!(r.ue_fairness > 0.0 && r.ue_fairness <= 1.0);
    }

    #[test]
    fn storm_degrades_the_tail() {
        let mut calm_cfg = CellSimConfig::smoke(3);
        calm_cfg.storm = None;
        let calm = run_cell_sim(calm_cfg);
        let stormy = run_cell_sim(CellSimConfig::smoke(3));
        assert_eq!(calm.harq_retransmissions, 0, "no storm, no retransmissions");
        assert!(stormy.harq_retransmissions > 0);
        assert!(
            stormy.latency.total.quantile_upper(0.99) > calm.latency.total.quantile_upper(0.99),
            "the storm must lengthen the p99 tail"
        );
    }

    #[test]
    fn arrival_means_are_honest() {
        for process in [
            ArrivalProcess::Constant { mean_per_tti: 1.3 },
            ArrivalProcess::Bursty {
                on_mean_per_tti: 2.0,
                p_on_to_off: 0.01,
                p_off_to_on: 0.03,
            },
            ArrivalProcess::Diurnal {
                mean_per_tti: 1.1,
                depth: 0.8,
                period_ttis: 500,
            },
        ] {
            let mut g = ArrivalGen::new(process, 42);
            let n = 200_000u64;
            let total: u64 = (0..n).map(|t| g.draw(t) as u64).sum();
            let measured = total as f64 / n as f64;
            let expected = process.mean_per_tti();
            assert!(
                (measured - expected).abs() < 0.05 * expected + 0.01,
                "{}: measured {measured:.3} vs expected {expected:.3}",
                process.name()
            );
        }
    }

    #[test]
    fn traffic_mixes_draw_their_classes() {
        let mix = TrafficMix::paper_sweep();
        assert_eq!(mix.classes().len(), 14);
        let mut rng = SmallRng::seed_from_u64(5);
        let mut seen_tcp = false;
        let mut sum = 0usize;
        let n = 20_000;
        for _ in 0..n {
            let (t, len) = mix.draw(&mut rng);
            assert!((64..=1400).contains(&len));
            seen_tcp |= matches!(t, Transport::Tcp);
            sum += len;
        }
        assert!(seen_tcp, "the paper sweep includes TCP");
        let mean = sum as f64 / n as f64;
        assert!(
            (mean - mix.mean_wire_len()).abs() < 25.0,
            "measured mean {mean:.0} vs declared {:.0}",
            mix.mean_wire_len()
        );
        assert!(TrafficMix::imix().mean_wire_len() < 500.0);
        assert!(TrafficMix::voip().mean_wire_len() < 100.0);
    }

    #[test]
    fn harq_oracle_severity_orders_attempts() {
        let mut o = HarqOracle::new();
        // Mild damage decodes first try; storm severity needs combining.
        let mild = o.attempts(40, 1);
        assert_eq!(mild, 1, "1-in-40 flips must decode on the first attempt");
        let severe: Vec<u32> = (0..5).map(|p| o.attempts(5, p)).collect();
        assert!(
            severe.iter().any(|&a| a != 1),
            "1-in-5 flips at rate 0.65 must force retransmissions: {severe:?}"
        );
        assert!(
            severe.iter().all(|&a| a <= 4),
            "attempts are bounded by the rv schedule: {severe:?}"
        );
        // Memoized: same key, no growth.
        let cached = o.cached();
        o.attempts(5, 0);
        assert_eq!(o.cached(), cached);
    }

    #[test]
    fn stage_graph_model_conserves_packets_and_fills_lanes() {
        let r = run_cell_sim(CellSimConfig::smoke(1));
        // Every served packet records exactly one latency sample even
        // though recording is deferred to its last block's launch.
        assert_eq!(r.latency.total.count(), r.served_packets);
        assert_eq!(r.latency.batch.count(), r.served_packets);
        let blocks = r.batch_quad_blocks + r.batch_pair_blocks + r.batch_single_blocks;
        assert!(blocks > 0, "served traffic must stage decode blocks");
        assert!(r.batch_quad_blocks > 0, "some quads must form");
        assert!(r.batch_flush_lanes_full > 0);
    }

    #[test]
    fn lane_occupancy_rises_with_offered_load() {
        // At the smoke preset's light load (~3 packets/TTI over 7 K
        // profiles) pools often age out before filling; under heavy
        // load the same deadline leaves mostly full quads.
        let light = run_cell_sim(CellSimConfig::smoke(3));
        let mut heavy_cfg = CellSimConfig::smoke(3);
        heavy_cfg.arrivals = ArrivalProcess::Constant { mean_per_tti: 8.0 };
        let heavy = run_cell_sim(heavy_cfg);
        assert!(
            heavy.batch_lane_occupancy() > light.batch_lane_occupancy(),
            "occupancy must rise with load: light={:.2} heavy={:.2}",
            light.batch_lane_occupancy(),
            heavy.batch_lane_occupancy()
        );
        assert!(
            heavy.batch_lane_occupancy() > 0.6,
            "heavy load should mostly fill lanes: {:.2}",
            heavy.batch_lane_occupancy()
        );
    }

    #[test]
    fn stage_graph_model_speeds_up_processing() {
        let mut serial_cfg = CellSimConfig::smoke(2);
        serial_cfg.stage_graph = false;
        let serial = run_cell_sim(serial_cfg);
        let graph = run_cell_sim(CellSimConfig::smoke(2));
        // Identical seed → identical traffic; batching only changes
        // decode cost and adds a bounded formation wait.
        assert_eq!(serial.served_packets, graph.served_packets);
        assert_eq!(serial.served_bits, graph.served_bits);
        assert!(
            graph.proc_ns_total < serial.proc_ns_total,
            "batched calc must cost less: {} vs {}",
            graph.proc_ns_total,
            serial.proc_ns_total
        );
        assert!(
            graph.cores_for(300.0) < serial.cores_for(300.0),
            "fewer cores for the same served Mbps"
        );
        assert_eq!(serial.batch_quad_blocks, 0, "serial model never batches");
        assert_eq!(serial.latency.batch.count(), serial.served_packets);
    }

    #[test]
    fn batch_wait_is_bounded_by_the_deadline_flush() {
        let r = run_cell_sim(CellSimConfig::smoke(5));
        // Aged pools flush after BATCH_DEADLINE_TTIS, so no packet
        // (except end-of-run drains) waits much longer than that.
        let p99 = r.latency.batch.quantile_upper(0.99);
        assert!(
            p99 <= 2 * BATCH_DEADLINE_TTIS * TTI_NS,
            "batch-formation wait must stay bounded: p99={p99}ns"
        );
    }

    #[test]
    fn cores_scale_with_cells() {
        let one = run_cell_sim(CellSimConfig {
            ttis: 400,
            ues_per_cell: 64,
            ..CellSimConfig::full(1, 9)
        });
        let two = run_cell_sim(CellSimConfig {
            ttis: 400,
            ues_per_cell: 64,
            ..CellSimConfig::full(2, 9)
        });
        assert!(two.served_packets > one.served_packets);
        assert!(
            two.core_equivalents() > one.core_equivalents(),
            "more cells, more modeled PHY work"
        );
        assert!(one.cores_for(300.0).is_finite());
        assert!(two.cores_for(600.0) > one.cores_for(300.0) * 1.5);
    }
}
