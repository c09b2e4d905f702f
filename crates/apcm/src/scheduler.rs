//! eNB MAC scheduler: per-subframe resource-block allocation across
//! UEs with proportional-fair metric and per-UE link adaptation.
//!
//! The paper's Figure 1 places the MAC scheduler on the eNB's critical
//! path (and its related-work section cites GPU-accelerated PF
//! scheduling); this module provides the functional substrate: a cell
//! with `NUM_RBS` resource blocks per 1 ms subframe, UEs with
//! independently fading channels, PF ("highest instantaneous-to-average
//! ratio") allocation, and AMC via [`crate::amc`].

use crate::amc::select_mcs;
use vran_net::amc::McsEntry;
use vran_util::rng::SmallRng;

/// Resource blocks per subframe at 5 MHz.
pub const NUM_RBS: usize = 25;
/// Information bits one RB carries per bit-per-symbol unit (12
/// subcarriers × 14 symbols, minus reference-signal overhead ≈ 150 RE).
pub const RE_PER_RB: f64 = 150.0;

/// One UE's scheduling state.
#[derive(Debug, Clone)]
pub struct UeContext {
    /// Identifier.
    pub id: u16,
    /// Long-term average SNR (dB) of this UE's channel.
    pub mean_snr_db: f32,
    /// Exponentially averaged served throughput (bits/subframe).
    pub avg_rate: f64,
    /// Total bits served.
    pub served_bits: u64,
    /// Subframes in which the UE was scheduled.
    pub scheduled_count: u64,
}

impl UeContext {
    /// New UE at the given average channel quality.
    pub fn new(id: u16, mean_snr_db: f32) -> Self {
        Self {
            id,
            mean_snr_db,
            avg_rate: 1.0,
            served_bits: 0,
            scheduled_count: 0,
        }
    }
}

/// Scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Policy {
    /// Strict round robin, channel-blind.
    RoundRobin,
    /// Proportional fair: maximize instantaneous/average rate.
    ProportionalFair,
    /// Max-C/I: always the best instantaneous channel (throughput-
    /// optimal, starves cell-edge UEs).
    MaxCi,
}

/// One subframe's outcome.
#[derive(Debug, Clone)]
pub struct SubframeResult {
    /// Which UE won the subframe.
    pub ue: u16,
    /// Operating point used.
    pub mcs: Option<McsEntry>,
    /// Bits served (0 when no MCS was feasible).
    pub bits: u64,
}

/// The cell scheduler.
#[derive(Debug)]
pub struct CellScheduler {
    ues: Vec<UeContext>,
    policy: Policy,
    rng: SmallRng,
    rr_next: usize,
    /// PF averaging window (subframes).
    window: f64,
    /// Outer-loop link-adaptation offset applied to the instantaneous
    /// SNR before MCS selection (see [`crate::amc::OuterLoop`]).
    snr_offset_db: f32,
}

impl CellScheduler {
    /// New cell with the given UEs.
    pub fn new(ues: Vec<UeContext>, policy: Policy, seed: u64) -> Self {
        assert!(!ues.is_empty());
        Self {
            ues,
            policy,
            rng: SmallRng::seed_from_u64(seed),
            rr_next: 0,
            window: 100.0,
            snr_offset_db: 0.0,
        }
    }

    /// The UE table.
    pub fn ues(&self) -> &[UeContext] {
        &self.ues
    }

    /// Set the outer-loop link-adaptation offset (dB) applied to every
    /// UE's instantaneous SNR before MCS selection. Fed by
    /// [`crate::amc::OuterLoop`] from decode outcomes: sustained HARQ
    /// failures push it negative, backing the cell off to more robust
    /// operating points.
    pub fn set_snr_offset_db(&mut self, offset_db: f32) {
        self.snr_offset_db = offset_db;
    }

    /// Rayleigh-ish instantaneous SNR draw around the UE's mean
    /// (log-normal shadowing, ±~6 dB swings).
    fn instantaneous_snr(&mut self, ue: usize) -> f32 {
        let g = self.rng.gauss_f32();
        self.ues[ue].mean_snr_db + 3.0 * g
    }

    /// Bits this UE would get this subframe at `snr` (whole-subframe
    /// allocation — single-winner TDM keeps the model crisp).
    fn rate_at(snr: f32) -> (Option<McsEntry>, u64) {
        match select_mcs(snr) {
            Some(m) => {
                let bits = (NUM_RBS as f64 * RE_PER_RB * m.bits_per_symbol()) as u64;
                (Some(m), bits)
            }
            None => (None, 0),
        }
    }

    /// Run one subframe: draw channels, pick a winner, serve it.
    pub fn tick(&mut self) -> SubframeResult {
        let all = vec![true; self.ues.len()];
        self.tick_filtered(&all).expect("all UEs eligible")
    }

    /// [`tick`](Self::tick) restricted to eligible UEs — the cell-scale
    /// workload marks only backlogged UEs eligible, as an operational
    /// scheduler would. Channel draws happen for every UE regardless
    /// (the RNG stream does not depend on eligibility), PF averages
    /// decay for every UE, and `None` is returned when no UE is
    /// eligible (an idle subframe).
    pub fn tick_filtered(&mut self, eligible: &[bool]) -> Option<SubframeResult> {
        let n = self.ues.len();
        assert_eq!(eligible.len(), n, "one eligibility flag per UE");
        let snrs: Vec<f32> = (0..n)
            .map(|u| self.instantaneous_snr(u) + self.snr_offset_db)
            .collect();
        let rates: Vec<u64> = snrs.iter().map(|&s| Self::rate_at(s).1).collect();

        let winner = match self.policy {
            Policy::RoundRobin => {
                let w = (0..n)
                    .map(|i| (self.rr_next + i) % n)
                    .find(|&u| eligible[u]);
                if let Some(w) = w {
                    self.rr_next = (w + 1) % n;
                }
                w
            }
            Policy::MaxCi => (0..n).filter(|&u| eligible[u]).max_by_key(|&u| rates[u]),
            Policy::ProportionalFair => (0..n).filter(|&u| eligible[u]).max_by(|&a, &b| {
                let ma = rates[a] as f64 / self.ues[a].avg_rate.max(1.0);
                let mb = rates[b] as f64 / self.ues[b].avg_rate.max(1.0);
                ma.partial_cmp(&mb).expect("finite")
            }),
        };

        let (mcs, bits) = match winner {
            Some(w) => Self::rate_at(snrs[w]),
            None => (None, 0),
        };
        // PF exponential averaging: every UE's average decays; the
        // winner's includes its service.
        for (u, ue) in self.ues.iter_mut().enumerate() {
            let served = if Some(u) == winner { bits as f64 } else { 0.0 };
            ue.avg_rate += (served - ue.avg_rate) / self.window;
        }
        let w = winner?;
        let ue = &mut self.ues[w];
        ue.served_bits += bits;
        if bits > 0 {
            ue.scheduled_count += 1;
        }
        Some(SubframeResult {
            ue: ue.id,
            mcs,
            bits,
        })
    }

    /// Run `n` subframes and return (cell throughput in Mbps, Jain
    /// fairness index over served bits).
    pub fn run(&mut self, n: usize) -> (f64, f64) {
        let mut total = 0u64;
        for _ in 0..n {
            total += self.tick().bits;
        }
        let served: Vec<f64> = self.ues.iter().map(|u| u.served_bits as f64).collect();
        let sum: f64 = served.iter().sum();
        let sumsq: f64 = served.iter().map(|x| x * x).sum();
        let jain = if sumsq > 0.0 {
            sum * sum / (served.len() as f64 * sumsq)
        } else {
            0.0
        };
        (total as f64 / (n as f64 * 1e-3) / 1e6, jain)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(policy: Policy) -> CellScheduler {
        let ues = vec![
            UeContext::new(0, 20.0), // cell center
            UeContext::new(1, 12.0),
            UeContext::new(2, 5.0), // cell edge
        ];
        CellScheduler::new(ues, policy, 42)
    }

    #[test]
    fn pf_beats_round_robin_on_throughput_and_maxci_on_fairness() {
        let (rr_tput, rr_fair) = cell(Policy::RoundRobin).run(4000);
        let (pf_tput, pf_fair) = cell(Policy::ProportionalFair).run(4000);
        let (ci_tput, ci_fair) = cell(Policy::MaxCi).run(4000);
        // classic ordering: throughput CI ≥ PF ≥ RR; fairness RR ≈ PF > CI
        assert!(pf_tput > rr_tput, "PF {pf_tput:.1} vs RR {rr_tput:.1} Mbps");
        assert!(
            ci_tput >= pf_tput,
            "maxC/I {ci_tput:.1} vs PF {pf_tput:.1} Mbps"
        );
        assert!(
            pf_fair > ci_fair,
            "PF fairness {pf_fair:.2} vs maxC/I {ci_fair:.2}"
        );
        assert!(rr_fair > 0.5 && pf_fair > 0.5);
    }

    #[test]
    fn maxci_starves_the_cell_edge() {
        let mut c = cell(Policy::MaxCi);
        c.run(4000);
        let edge = &c.ues()[2];
        let center = &c.ues()[0];
        assert!(
            center.served_bits > edge.served_bits * 10,
            "center {} vs edge {}",
            center.served_bits,
            edge.served_bits
        );
    }

    #[test]
    fn round_robin_schedules_evenly() {
        let mut c = cell(Policy::RoundRobin);
        c.run(3000);
        let counts: Vec<u64> = c.ues().iter().map(|u| u.scheduled_count).collect();
        // scheduled (with a feasible MCS) whenever selected; edge UE may
        // occasionally fail selection, but slots are even
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(min / max > 0.7, "RR slot shares should be even: {counts:?}");
    }

    #[test]
    fn deterministic_given_seed() {
        let a = cell(Policy::ProportionalFair).run(500);
        let b = cell(Policy::ProportionalFair).run(500);
        assert_eq!(a, b);
    }

    #[test]
    fn tick_filtered_respects_eligibility() {
        let mut c = cell(Policy::ProportionalFair);
        // Only the cell-edge UE is backlogged: it must win every round
        // despite its poor channel.
        for _ in 0..50 {
            let r = c.tick_filtered(&[false, false, true]);
            if let Some(r) = r {
                assert_eq!(r.ue, 2, "only the eligible UE may win");
            }
        }
        assert!(c.ues()[2].scheduled_count > 0);
        assert_eq!(c.ues()[0].scheduled_count, 0);
        // Nobody eligible → idle subframe.
        assert!(c.tick_filtered(&[false, false, false]).is_none());
        // Averages still decay on idle subframes.
        let before: Vec<f64> = c.ues().iter().map(|u| u.avg_rate).collect();
        c.tick_filtered(&[false, false, false]);
        for (b, u) in before.iter().zip(c.ues()) {
            assert!(u.avg_rate < *b, "PF averages must decay while idle");
        }
    }

    #[test]
    fn tick_filtered_rng_stream_is_eligibility_independent() {
        // Same seed, different eligibility masks up front: once the
        // masks re-align, the channel draws (and hence outcomes) must
        // match a scheduler that was never masked.
        let mut a = cell(Policy::RoundRobin);
        let mut b = cell(Policy::RoundRobin);
        a.tick_filtered(&[true, false, true]);
        b.tick_filtered(&[true, true, true]);
        let ra = a.tick_filtered(&[true, true, true]).expect("eligible");
        let rb = b.tick_filtered(&[true, true, true]).expect("eligible");
        assert_eq!(ra.bits, rb.bits, "channel draws must not depend on masks");
    }

    #[test]
    fn snr_offset_backs_off_the_operating_point() {
        let served = |offset: f32| {
            let mut c = CellScheduler::new(vec![UeContext::new(0, 10.0)], Policy::RoundRobin, 7);
            c.set_snr_offset_db(offset);
            let mut bits = 0u64;
            for _ in 0..500 {
                bits += c.tick().bits;
            }
            bits
        };
        let nominal = served(0.0);
        let backed_off = served(-6.0);
        let boosted = served(6.0);
        assert!(
            backed_off < nominal && nominal < boosted,
            "served bits must be monotone in the offset: {backed_off} < {nominal} < {boosted}"
        );
    }

    #[test]
    fn served_bits_match_mcs_capacity() {
        let mut c = CellScheduler::new(vec![UeContext::new(0, 30.0)], Policy::RoundRobin, 1);
        let r = c.tick();
        let m = r.mcs.expect("30 dB must be schedulable");
        assert_eq!(
            r.bits,
            (NUM_RBS as f64 * RE_PER_RB * m.bits_per_symbol()) as u64
        );
    }
}
