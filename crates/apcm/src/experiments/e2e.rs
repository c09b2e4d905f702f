//! `e2e` — end-to-end latency budget.
//!
//! The paper's §4 opens with "average end-to-end delay of the current
//! vRAN software pipeline is 31 ms", motivating the whole optimization
//! effort. This experiment assembles an explicit budget: fixed radio
//! and stack components (documented constants) plus the measured
//! per-packet PHY processing from the latency model, for the original
//! mechanism and APCM.
//!
//! The point the budget makes is the paper's own framing: APCM's
//! 12–20 % win is on the *processing* component; the fixed radio
//! latencies bound how much of the 31 ms any CPU optimization can
//! recover — which is why the capacity view (Figure 16: more Mbps per
//! core) is the operationally meaningful framing of the same gain.

use crate::arrange::{ApcmVariant, Mechanism};
use crate::experiments::DECODER_ITERATIONS;
use crate::latency::LatencyModel;
use crate::report::{Figure, Row};
use vran_net::packet::Transport;
use vran_simd::RegWidth;
use vran_uarch::CoreConfig;

/// Fixed budget components in µs (documented assumptions for a lightly
/// loaded FDD LTE path; the paper's 31 ms average includes queueing the
/// model below does not attempt to reproduce).
pub mod components {
    /// Uplink frame alignment: on average half a subframe.
    pub const FRAME_ALIGNMENT_US: f64 = 500.0;
    /// UE processing + scheduling grant round trip (SR → grant).
    pub const SCHEDULING_US: f64 = 8000.0;
    /// HARQ RTT share from the ~10 % first-transmission BLER operating
    /// point (0.1 × 8 ms).
    pub const HARQ_SHARE_US: f64 = 800.0;
    /// Transport to the EPC and core-network processing.
    pub const CORE_NETWORK_US: f64 = 1500.0;
    /// UE-side modem processing.
    pub const UE_PROCESSING_US: f64 = 2000.0;
}

/// Run the experiment.
pub fn run() -> Figure {
    use components::*;
    let fixed =
        FRAME_ALIGNMENT_US + SCHEDULING_US + HARQ_SHARE_US + CORE_NETWORK_US + UE_PROCESSING_US;
    let mut f = Figure::new(
        "e2e",
        "End-to-end latency budget, 1500 B uplink packet (µs)",
        &[
            "fixed radio/stack",
            "eNB processing",
            "total",
            "vs original %",
        ],
    );
    let mut m = LatencyModel::new(CoreConfig::beefy(), DECODER_ITERATIONS);
    let apcm = Mechanism::Apcm(ApcmVariant::Shuffle);
    let mut base_total = 0.0;
    for (label, mech) in [("original", Mechanism::Baseline), ("apcm", apcm)] {
        for w in RegWidth::ALL {
            let proc = m.packet_time(w, mech, Transport::Udp, 1500).total_us();
            let total = fixed + proc;
            if label == "original" && w == RegWidth::Sse128 {
                base_total = total;
            }
            f.push(Row::new(
                format!("{label}/{}", w.name()),
                vec![fixed, proc, total, (1.0 - total / base_total) * 100.0],
            ));
        }
    }
    f.note("paper §4: measured e2e delay 31 ms on the real testbed (includes queueing/load)");
    f.note("fixed components bound what CPU optimization can recover; capacity (Fig 16) is the operational win");
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn processing_is_a_minority_of_e2e() {
        let f = run();
        let fixed = f.value("original/SSE128", "fixed radio/stack").unwrap();
        let proc = f.value("original/SSE128", "eNB processing").unwrap();
        assert!(
            fixed > proc,
            "fixed components dominate e2e: {fixed} vs {proc}"
        );
    }

    #[test]
    fn apcm_reduces_e2e_modestly() {
        let f = run();
        let red = f.value("apcm/AVX512", "vs original %").unwrap();
        assert!(red > 1.0, "APCM must shave visible e2e time: {red:.1}%");
        assert!(
            red < 15.0,
            "e2e gain is bounded by the fixed components: {red:.1}%"
        );
    }

    #[test]
    fn totals_are_consistent() {
        let f = run();
        for r in &f.rows {
            assert!(
                (r.values[0] + r.values[1] - r.values[2]).abs() < 1e-9,
                "{r:?}"
            );
        }
    }
}
