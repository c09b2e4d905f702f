//! Deterministic cell-scale chaos: a windowed storm over the cell-scale
//! simulator with a measured time-to-recover.
//!
//! [`run_cell_chaos`] drives [`CellSim`] through a windowed
//! baseline → storm → recovery schedule using the stepped simulation
//! API ([`CellSim::step`]): the storm phase layers a HARQ sign-flip
//! storm on a fleet-wide SNR collapse
//! ([`CellSim::set_chaos_snr_offset_db`]), and the recovery clock
//! counts TTIs from storm end until every remaining window's p99
//! latency and drop rate are back inside bands derived from the
//! baseline windows. Everything is deterministic from the seed, so the
//! `chaos_recovery` benchgate suite pins the recovery time exactly.
//! Its runner-scale twin, which storms the production runtime, is
//! `vran_net::chaos::run_runner_chaos`.

use crate::cellsim::{CellSim, CellSimConfig, HarqStorm};

/// Which schedule phase a measurement window belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ChaosPhaseKind {
    /// Pre-storm calibration: these windows define the recovery bands.
    Baseline,
    /// Storm: HARQ sign-flip storm plus fleet-wide SNR collapse.
    Storm,
    /// Post-storm: the recovery clock runs over these windows.
    Recovery,
}

impl ChaosPhaseKind {
    /// Snake-case name for reports.
    pub fn name(self) -> &'static str {
        match self {
            ChaosPhaseKind::Baseline => "baseline",
            ChaosPhaseKind::Storm => "storm",
            ChaosPhaseKind::Recovery => "recovery",
        }
    }
}

/// One measurement window of a cell-scale chaos run.
#[derive(Debug, Clone)]
pub struct ChaosWindow {
    /// Schedule phase.
    pub phase: ChaosPhaseKind,
    /// First TTI of the window.
    pub start_tti: u64,
    /// Packets that arrived during the window.
    pub offered: u64,
    /// Packets served (latency recorded) during the window.
    pub served: u64,
    /// Packets lost to rv-schedule exhaustion during the window.
    pub dropped: u64,
    /// p99 of end-to-end latency over the window's served packets
    /// (0 when nothing was served).
    pub p99_ns: u64,
    /// `dropped / (served + dropped)` for the window.
    pub drop_rate: f64,
    /// Whether the window sits inside the baseline-derived bands.
    pub in_band: bool,
}

/// Cell-scale chaos schedule. The run is
/// `baseline_windows → storm_windows → recovery_windows`, each window
/// [`Self::window_ttis`] long; [`Self::sim`] must carry no storm of
/// its own (the schedule injects one).
#[derive(Debug, Clone)]
pub struct CellChaosConfig {
    /// Base simulation (storm-free; the schedule owns the storm).
    pub sim: CellSimConfig,
    /// Measurement window length in TTIs.
    pub window_ttis: u64,
    /// Calibration windows before the storm.
    pub baseline_windows: usize,
    /// Storm windows.
    pub storm_windows: usize,
    /// Windows the recovery clock may run over.
    pub recovery_windows: usize,
    /// HARQ sign-flip spacing for the sustained storm windows (see
    /// [`HarqStorm`]): the densest spacing the rv schedule still
    /// combines through, so served packets pay maximum
    /// retransmissions.
    pub storm_flip_every: usize,
    /// Flip spacing for the opening storm window: dense enough to
    /// exhaust the rv schedule, so the storm's first window costs
    /// packets outright.
    pub storm_lethal_flip_every: usize,
    /// Fleet-wide SNR offset (dB, negative) applied during the storm.
    pub snr_collapse_db: f32,
    /// A window is in-band when its p99 is at most this multiple of
    /// the worst baseline window's p99…
    pub p99_band_factor: f64,
    /// …and its drop rate is at most the worst baseline drop rate plus
    /// this slack.
    pub drop_band_slack: f64,
}

impl CellChaosConfig {
    /// The deterministic CI preset: the cell-scale smoke simulation
    /// (2 cells × 48 UEs, bursty paper-sweep traffic) under a
    /// 200-TTI storm that combines a lethal 1-in-4 flip window then a sustained 1-in-5 window with a −6 dB
    /// fleet-wide collapse, then 700 TTIs for the recovery clock.
    pub fn smoke(seed: u64) -> Self {
        let window_ttis = 100;
        let (baseline, storm, recovery) = (3usize, 2usize, 7usize);
        let mut sim = CellSimConfig::smoke(seed);
        sim.name = "chaos_smoke";
        sim.storm = None;
        sim.ttis = window_ttis * (baseline + storm + recovery) as u64;
        // Steadier than the smoke preset's bursty load: the recovery
        // clock needs calm baseline windows (short, stable tails) so a
        // storm-driven breach is unambiguous and the post-storm
        // backlog drains within the recovery schedule. Burst-driven
        // tails are the cell_scale_smoke suite's subject, not this
        // one's.
        sim.arrivals = crate::cellsim::ArrivalProcess::Constant { mean_per_tti: 0.7 };
        Self {
            sim,
            window_ttis,
            baseline_windows: baseline,
            storm_windows: storm,
            recovery_windows: recovery,
            storm_flip_every: 5,
            storm_lethal_flip_every: 4,
            snr_collapse_db: -6.0,
            p99_band_factor: 2.0,
            drop_band_slack: 0.02,
        }
    }
}

/// Outcome of a cell-scale chaos run.
#[derive(Debug)]
pub struct CellChaosReport {
    /// Every measurement window, in schedule order.
    pub windows: Vec<ChaosWindow>,
    /// Worst baseline-window p99 (the band anchor).
    pub baseline_p99_ns: u64,
    /// Worst baseline-window drop rate.
    pub baseline_drop_rate: f64,
    /// Worst storm-window p99 (how hard the storm bit).
    pub storm_peak_p99_ns: u64,
    /// Whether the tail returned inside the bands before the schedule
    /// ran out.
    pub recovered: bool,
    /// TTIs from storm end until every remaining window was in-band
    /// (the full recovery span when [`Self::recovered`] is false).
    pub recovery_ttis: u64,
    /// Packets offered across the whole run.
    pub offered_packets: u64,
    /// Packets served across the whole run.
    pub served_packets: u64,
    /// Packets dropped across the whole run.
    pub dropped_packets: u64,
    /// HARQ retransmissions across the whole run.
    pub harq_retransmissions: u64,
    /// Divergence-guard MCS step-downs across all cells
    /// ([`crate::amc::DivergenceGuard`]).
    pub amc_stepdowns: u64,
}

impl CellChaosReport {
    /// Flat benchgate-ready snapshot: exact counts (`.count`),
    /// percentile-tolerance latencies (`.p99_ns`) and ratios.
    pub fn snapshot(&self) -> Vec<(String, f64)> {
        let in_band = self.windows.iter().filter(|w| w.in_band).count();
        vec![
            ("recovered.count".into(), f64::from(self.recovered)),
            ("recovery.ttis.count".into(), self.recovery_ttis as f64),
            ("windows.in_band.count".into(), in_band as f64),
            ("baseline.p99_ns".into(), self.baseline_p99_ns as f64),
            ("storm.peak.p99_ns".into(), self.storm_peak_p99_ns as f64),
            ("offered.count".into(), self.offered_packets as f64),
            ("served.count".into(), self.served_packets as f64),
            ("dropped.count".into(), self.dropped_packets as f64),
            ("harq_retx.count".into(), self.harq_retransmissions as f64),
            ("amc_stepdowns.count".into(), self.amc_stepdowns as f64),
        ]
    }
}

/// Run the windowed baseline → storm → recovery schedule and measure
/// the time-to-recover. Fully deterministic from `cfg.sim.seed`.
pub fn run_cell_chaos(cfg: CellChaosConfig) -> CellChaosReport {
    assert!(cfg.baseline_windows >= 1, "bands need a baseline");
    assert!(cfg.sim.storm.is_none(), "the schedule owns the storm");
    let total_windows = cfg.baseline_windows + cfg.storm_windows + cfg.recovery_windows;
    assert_eq!(
        cfg.sim.ttis,
        cfg.window_ttis * total_windows as u64,
        "sim length must equal the window schedule"
    );
    let storm_start = cfg.baseline_windows as u64 * cfg.window_ttis;
    let storm_len = cfg.storm_windows as u64 * cfg.window_ttis;

    let mut sim = CellSim::new(cfg.sim.clone());
    let mut windows: Vec<ChaosWindow> = Vec::with_capacity(total_windows);
    let mut offered = 0u64;
    let mut served = 0u64;
    let mut dropped = 0u64;
    let mut harq_retx = 0u64;
    for wi in 0..total_windows {
        let phase = if wi < cfg.baseline_windows {
            ChaosPhaseKind::Baseline
        } else if wi < cfg.baseline_windows + cfg.storm_windows {
            ChaosPhaseKind::Storm
        } else {
            ChaosPhaseKind::Recovery
        };
        let start_tti = wi as u64 * cfg.window_ttis;
        if phase == ChaosPhaseKind::Storm {
            // The HARQ oracle is bimodal in flip spacing (dense flips
            // exhaust the rv schedule outright, sparse ones always
            // combine through), so the storm opens with one lethal
            // window that costs packets and sustains with windows of
            // maximum survivable severity that pile up
            // retransmissions.
            let first_storm = wi == cfg.baseline_windows;
            sim.set_storm(Some(HarqStorm {
                start_tti: storm_start,
                len_ttis: storm_len,
                flip_every: if first_storm {
                    cfg.storm_lethal_flip_every
                } else {
                    cfg.storm_flip_every
                },
            }));
            sim.set_chaos_snr_offset_db(cfg.snr_collapse_db);
        } else if start_tti == storm_start + storm_len {
            sim.set_storm(None);
            sim.set_chaos_snr_offset_db(0.0);
        }
        let mut rep = sim.begin_report();
        for tti in start_tti..start_tti + cfg.window_ttis {
            sim.step(tti, &mut rep);
        }
        if wi == total_windows - 1 {
            // Drain partial batch pools so the last window accounts
            // for every served packet (the drain is charged to the
            // final TTI, exactly as `CellSim::run` does).
            sim.finish_report(&mut rep);
        }
        offered += rep.offered_packets;
        served += rep.served_packets;
        dropped += rep.dropped_packets;
        harq_retx += rep.harq_retransmissions;
        let resolved = rep.served_packets + rep.dropped_packets;
        windows.push(ChaosWindow {
            phase,
            start_tti,
            offered: rep.offered_packets,
            served: rep.served_packets,
            dropped: rep.dropped_packets,
            p99_ns: if rep.served_packets == 0 {
                0
            } else {
                rep.latency.total.quantile_upper(0.99)
            },
            drop_rate: if resolved == 0 {
                0.0
            } else {
                rep.dropped_packets as f64 / resolved as f64
            },
            in_band: false,
        });
    }

    // Bands from the worst baseline window.
    let baseline = &windows[..cfg.baseline_windows];
    let baseline_p99_ns = baseline.iter().map(|w| w.p99_ns).max().unwrap_or(0);
    let baseline_drop_rate = baseline.iter().map(|w| w.drop_rate).fold(0.0, f64::max);
    let p99_band = (baseline_p99_ns as f64 * cfg.p99_band_factor) as u64;
    let drop_band = baseline_drop_rate + cfg.drop_band_slack;
    for w in &mut windows {
        w.in_band = w.p99_ns <= p99_band && w.drop_rate <= drop_band;
    }

    // Recovery clock: TTIs from storm end until every remaining
    // recovery window is in-band.
    let first_recovery = cfg.baseline_windows + cfg.storm_windows;
    let stable_from =
        (first_recovery..total_windows).find(|&j| windows[j..].iter().all(|w| w.in_band));
    let (recovered, recovery_ttis) = match stable_from {
        Some(j) => (true, (j - first_recovery) as u64 * cfg.window_ttis),
        None => (false, cfg.recovery_windows as u64 * cfg.window_ttis),
    };
    let storm_peak_p99_ns = windows
        .iter()
        .filter(|w| w.phase == ChaosPhaseKind::Storm)
        .map(|w| w.p99_ns)
        .max()
        .unwrap_or(0);

    CellChaosReport {
        windows,
        baseline_p99_ns,
        baseline_drop_rate,
        storm_peak_p99_ns,
        recovered,
        recovery_ttis,
        offered_packets: offered,
        served_packets: served,
        dropped_packets: dropped,
        harq_retransmissions: harq_retx,
        amc_stepdowns: sim.amc_stepdowns(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cell_chaos_storm_bites_and_recovers() {
        let r = run_cell_chaos(CellChaosConfig::smoke(7));
        assert_eq!(
            r.windows.len(),
            12,
            "3 baseline + 2 storm + 7 recovery windows"
        );
        // The storm must actually degrade the tail past the band…
        assert!(
            r.storm_peak_p99_ns > r.baseline_p99_ns * 2,
            "storm peak {} must breach the band around baseline {}",
            r.storm_peak_p99_ns,
            r.baseline_p99_ns
        );
        assert!(r.dropped_packets > 0, "storm severity must cost packets");
        assert!(r.harq_retransmissions > 0);
        // …and the stack must come back inside it before the schedule
        // runs out.
        assert!(r.recovered, "windows: {:?}", r.windows);
        assert!(
            r.recovery_ttis <= 700,
            "recovery clock is bounded by the schedule"
        );
        // Baseline windows are in-band by construction.
        assert!(r.windows[..3].iter().all(|w| w.in_band));
    }

    #[test]
    fn cell_chaos_is_deterministic() {
        let a: Vec<_> = run_cell_chaos(CellChaosConfig::smoke(11)).snapshot();
        let b: Vec<_> = run_cell_chaos(CellChaosConfig::smoke(11)).snapshot();
        assert_eq!(a, b, "same seed must reproduce byte-identically");
    }
}
