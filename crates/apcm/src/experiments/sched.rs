//! `sched` — MAC scheduler policy comparison (cell throughput vs Jain
//! fairness), exercising the eNB L2 substrate end to end.

use crate::report::{Figure, Row};
use crate::scheduler::{CellScheduler, Policy, UeContext};

fn cell(policy: Policy) -> CellScheduler {
    // a 6-UE cell spanning center to edge
    let ues = (0..6)
        .map(|i| UeContext::new(i, 22.0 - 3.5 * i as f32))
        .collect();
    CellScheduler::new(ues, policy, 2024)
}

/// Run the experiment.
pub fn run() -> Figure {
    let mut f = Figure::new(
        "sched",
        "MAC scheduler policies over 10 000 subframes (6 UEs, 22…4.5 dB)",
        &["cell Mbps", "Jain fairness", "edge-UE Mbps"],
    );
    for (name, policy) in [
        ("round-robin", Policy::RoundRobin),
        ("proportional-fair", Policy::ProportionalFair),
        ("max-C/I", Policy::MaxCi),
    ] {
        let mut c = cell(policy);
        let (tput, fair) = c.run(10_000);
        // 10 000 subframes = 10 s of air time
        let edge = c.ues().last().expect("non-empty").served_bits as f64 / 10.0 / 1e6;
        f.push(Row::new(name, vec![tput, fair, edge]));
    }
    f.note("classic trade: max-C/I tops throughput but starves the edge; PF sits between");
    f
}

#[cfg(test)]
mod tests {
    #[test]
    fn policy_trade_off_shape() {
        let f = super::run();
        let t = |p: &str| f.value(p, "cell Mbps").unwrap();
        let j = |p: &str| f.value(p, "Jain fairness").unwrap();
        assert!(t("max-C/I") >= t("proportional-fair"));
        assert!(t("proportional-fair") > t("round-robin"));
        assert!(j("proportional-fair") > j("max-C/I"));
        let edge_ci = f.value("max-C/I", "edge-UE Mbps").unwrap();
        let edge_pf = f.value("proportional-fair", "edge-UE Mbps").unwrap();
        assert!(edge_pf > edge_ci, "PF must serve the edge better");
    }
}
