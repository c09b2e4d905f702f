//! End-to-end checks of the cell-scale benchgate suite: the gated
//! smoke preset must be byte-reproducible, every one of its metrics
//! must carry a tolerance class, and a p99 tail regression must fail
//! the gate.

use apcm::cellsim::{run_cell_sim, CellSimConfig};
use vran_bench::cellscale::{cell_scale_smoke_suite, SMOKE_SEED};
use vran_bench::gate::{compare, BenchReport, ToleranceClass};

/// Two invocations at the pinned seed must serialize byte-identically
/// (the ISSUE's determinism acceptance criterion, minus the
/// wall-clock-timed suites that never gate).
#[test]
fn smoke_suite_is_byte_reproducible() {
    let mut a = BenchReport::new("x");
    a.suites.push(cell_scale_smoke_suite());
    let mut b = BenchReport::new("x");
    b.suites.push(cell_scale_smoke_suite());
    assert_eq!(a.to_json(), b.to_json());
}

#[test]
fn smoke_suite_metrics_all_carry_tolerance_classes() {
    let s = cell_scale_smoke_suite();
    assert!(s.gated);
    for (metric, value) in &s.metrics {
        assert!(
            ToleranceClass::for_metric(metric).is_some(),
            "{metric}: gated metric without a tolerance class"
        );
        assert!(value.is_finite(), "{metric} is {value}");
    }
    // The percentile class is actually exercised.
    assert!(s
        .metrics
        .iter()
        .any(|(m, _)| ToleranceClass::for_metric(m) == Some(ToleranceClass::Percentile)));
}

/// The headline acceptance criterion: a p99 regression in the gated
/// cell-scale suite fails the gate.
#[test]
fn p99_regression_fails_the_gate() {
    let mut baseline = BenchReport::new("base");
    baseline.suites.push(cell_scale_smoke_suite());
    let mut current = baseline.clone();
    assert!(
        compare(&baseline, &current).is_empty(),
        "identical runs must pass"
    );

    let s = &mut current.suites[0];
    let idx = s
        .metrics
        .iter()
        .position(|(m, _)| m == "latency.total.p99_ns")
        .expect("smoke suite reports a total p99");
    // One histogram bucket jump — the smallest regression the
    // fixed-bucket percentiles can express.
    s.metrics[idx].1 *= 2.0;
    let regs = compare(&baseline, &current);
    assert_eq!(regs.len(), 1, "exactly the p99 must trip: {regs:?}");
    assert_eq!(regs[0].metric, "latency.total.p99_ns");
    assert_eq!(
        regs[0].tolerance,
        Some(ToleranceClass::Percentile.tolerance())
    );
}

/// The smoke report the suite is built from must carry real tail
/// structure, not degenerate histograms.
#[test]
fn smoke_preset_produces_tail_structure() {
    let r = run_cell_sim(CellSimConfig::smoke(SMOKE_SEED));
    assert!(r.served_packets > 100, "served {}", r.served_packets);
    assert!(r.harq_retransmissions > 0, "storm must cause retx");
    let p50 = r.latency.total.quantile_upper(0.50);
    let p99 = r.latency.total.quantile_upper(0.99);
    assert!(p50 > 0 && p99 > p50, "p50 {p50}, p99 {p99}");
    assert!(p99 < u64::MAX, "p99 must stay on the histogram grid");
}
