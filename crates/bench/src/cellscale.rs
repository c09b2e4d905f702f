//! Benchgate suites for the cell-scale workload harness.
//!
//! Two suites over [`apcm::cellsim`]:
//!
//! * `cell_scale_smoke` — **gated**. The deterministic
//!   [`CellSimConfig::smoke`] preset (2 cells × 48 UEs × 1200 TTIs of
//!   bursty paper-sweep traffic with a mid-run HARQ storm) at a pinned
//!   seed. Counts gate exactly, latency percentiles gate under the
//!   percentile tolerance class — a p99 bucket jump fails CI.
//! * `cell_scale_full` — ungated. The [`CellSimConfig::full`] diurnal
//!   sweep at 1, 2 and 4 cells, reporting served Mbps, tail latency
//!   and the paper's capacity answer: cores needed for
//!   cells × 300 Mbps of this traffic shape.

use crate::gate::Suite;
use apcm::cellsim::{run_cell_sim, CellSimConfig};

/// Pinned seed of the gated smoke preset. Changing it is a baseline
/// refresh, not a tolerance question.
pub const SMOKE_SEED: u64 = 0xCE11;

/// Cell counts swept by the ungated full suite.
pub const FULL_CELLS: [usize; 3] = [1, 2, 4];

/// Per-cell target of the capacity question (the paper's 300 Mbps
/// eNodeB provisioning point).
pub const TARGET_MBPS_PER_CELL: f64 = 300.0;

/// Gated: the deterministic cell-scale smoke preset.
pub fn cell_scale_smoke_suite() -> Suite {
    let report = run_cell_sim(CellSimConfig::smoke(SMOKE_SEED));
    let mut suite = Suite::new("cell_scale_smoke", true);
    for (metric, value) in report.snapshot() {
        suite.push(metric, value);
    }
    suite
}

/// Ungated: the full diurnal sweep over [`FULL_CELLS`], with the
/// cores-per-(cells × 300 Mbps) capacity figures.
pub fn cell_scale_full_suite() -> Suite {
    let mut suite = Suite::new("cell_scale_full", false);
    for cells in FULL_CELLS {
        let r = run_cell_sim(CellSimConfig::full(cells, SMOKE_SEED + cells as u64));
        let p = format!("c{cells}");
        suite.push(format!("{p}.offered.mbps"), r.offered_mbps());
        suite.push(format!("{p}.served.mbps"), r.served_mbps());
        suite.push(format!("{p}.served.count"), r.served_packets as f64);
        suite.push(format!("{p}.dropped.count"), r.dropped_packets as f64);
        suite.push(
            format!("{p}.harq_retx.count"),
            r.harq_retransmissions as f64,
        );
        suite.push(format!("{p}.ue.fairness.ratio"), r.ue_fairness);
        for (name, q) in [("p50_ns", 0.50), ("p95_ns", 0.95), ("p99_ns", 0.99)] {
            suite.push(
                format!("{p}.latency.total.{name}"),
                r.latency.total.quantile_upper(q) as f64,
            );
        }
        suite.push(format!("{p}.core_equivalents"), r.core_equivalents());
        suite.push(
            format!("{p}.cores_for_300mbps"),
            r.cores_for(cells as f64 * TARGET_MBPS_PER_CELL),
        );
    }
    suite
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_suite_reports_capacity_per_cell_count() {
        let s = cell_scale_full_suite();
        for cells in FULL_CELLS {
            let served = s.get(&format!("c{cells}.served.mbps")).unwrap();
            let cores = s.get(&format!("c{cells}.cores_for_300mbps")).unwrap();
            assert!(served > 0.0, "c{cells} must serve traffic");
            assert!(
                cores.is_finite() && cores > 0.0,
                "c{cells} capacity must be answerable: {cores}"
            );
        }
        // The capacity bill grows with the cell count.
        let c1 = s.get("c1.cores_for_300mbps").unwrap();
        let c4 = s.get("c4.cores_for_300mbps").unwrap();
        assert!(c4 > c1, "4 cells must need more cores than 1: {c1} vs {c4}");
    }
}
