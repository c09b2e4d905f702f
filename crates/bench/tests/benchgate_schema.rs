//! The checked-in `BENCH_baseline.json` must stay parseable and keep
//! the metrics CI gates on — a stale or hand-mangled baseline should
//! fail here, not mysteriously inside `benchgate --check`.

use vran_bench::gate::{compare, BenchReport, ToleranceClass};

fn baseline() -> BenchReport {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_baseline.json");
    let text = std::fs::read_to_string(path).expect("BENCH_baseline.json is checked in");
    BenchReport::from_json(&text).expect("baseline parses under the current schema")
}

#[test]
fn baseline_has_simulator_metrics_at_all_widths() {
    let b = baseline();
    let arrange = b.suite("arrange_sim").expect("arrange_sim suite");
    assert!(arrange.gated);
    for width in ["SSE128", "AVX256", "AVX512"] {
        for mech in ["original", "apcm"] {
            for metric in ["cycles", "uops", "upc"] {
                let name = format!("{width}.{mech}.{metric}");
                assert!(arrange.get(&name).is_some(), "baseline lost {name}");
            }
        }
        let speedup = arrange
            .get(&format!("{width}.apcm.speedup"))
            .expect("speedup metric");
        assert!(
            speedup > 1.0,
            "{width}: APCM must beat the original ({speedup})"
        );
    }
}

#[test]
fn baseline_has_pipeline_suites() {
    let b = baseline();
    let stat = b.suite("pipeline_static").expect("pipeline_static suite");
    assert!(stat.gated);
    assert!(stat.get("ok_packets.count").unwrap_or(0.0) > 0.0);
    // One production-vs-reference A/B, where there were two flag A/Bs.
    let ab = b.suite("uplink_profiles").expect("uplink_profiles suite");
    assert!(ab.gated);
    for old in ["uplink_fused_ingest", "uplink_frontend"] {
        assert!(b.suite(old).is_none(), "{old}: folded into uplink_profiles");
    }
}

#[test]
fn baseline_records_no_wallclock_suite() {
    // Wall-clock speed is `benchmark/`'s to measure; what benchgate
    // records without gating is exactly these three.
    let b = baseline();
    let ungated: Vec<&str> = (b.suites.iter().filter(|s| !s.gated))
        .map(|s| s.name.as_str())
        .collect();
    assert_eq!(
        ungated,
        ["fused_ingest_uarch", "cell_scale_full", "observe_overhead"]
    );
    for suite in &b.suites {
        let name = &suite.name;
        assert!(
            !name.ends_with("_wallclock") && !name.ends_with("_scaleout"),
            "{name}: deleted as a second wall-clock instrument"
        );
    }
}

#[test]
fn baseline_is_self_consistent() {
    let b = baseline();
    assert!(
        compare(&b, &b).is_empty(),
        "a report must pass against itself"
    );
    assert_ne!(b.git_sha, "");
}

#[test]
fn baseline_has_cell_scale_suites() {
    let b = baseline();
    let smoke = b.suite("cell_scale_smoke").expect("cell_scale_smoke suite");
    assert!(smoke.gated, "the smoke preset is the tail-latency gate");
    for metric in [
        "offered.count",
        "served.count",
        "harq_retx.count",
        "latency.total.p50_ns",
        "latency.total.p95_ns",
        "latency.total.p99_ns",
        "latency.queue.p99_ns",
        "ue.fairness.ratio",
    ] {
        assert!(smoke.get(metric).is_some(), "baseline lost {metric}");
    }
    assert!(smoke.get("served.count").unwrap() > 0.0);
    let full = b.suite("cell_scale_full").expect("cell_scale_full suite");
    assert!(!full.gated, "the full sweep is informational");
    assert!(full.get("c1.cores_for_300mbps").unwrap_or(0.0) > 0.0);
}

#[test]
fn baseline_has_stagegraph_suites() {
    let b = baseline();
    let sg = b.suite("uplink_stagegraph").expect("uplink_stagegraph");
    assert!(
        sg.gated,
        "the deterministic stage-graph sweep is the occupancy gate"
    );
    for workers in ["w1", "w2"] {
        for metric in [
            "packets.count",
            "ok.count",
            "batch.lane_occupancy.ratio",
            "batch.quad_blocks.count",
            "batch.pair_blocks.count",
            "batch.single_blocks.count",
            "batch.flush.lanes_full.count",
            "batch.flush.deadline.count",
            "batch.flush.drain.count",
        ] {
            let name = format!("{workers}.{metric}");
            assert!(sg.get(&name).is_some(), "baseline lost {name}");
        }
        let occ = sg
            .get(&format!("{workers}.batch.lane_occupancy.ratio"))
            .unwrap();
        assert!(
            occ >= 0.9,
            "{workers}: recorded occupancy {occ} below the ISSUE's 0.9 target"
        );
    }
}

#[test]
fn every_gated_baseline_metric_has_a_tolerance_class() {
    // The gate refuses unknown classes; a baseline that sneaks one in
    // would fail every CI run — catch it here with a useful message.
    let b = baseline();
    for suite in b.suites.iter().filter(|s| s.gated) {
        for (metric, _) in &suite.metrics {
            assert!(
                ToleranceClass::for_metric(metric).is_some(),
                "{}/{}: gated metric has no tolerance class",
                suite.name,
                metric
            );
        }
    }
}

#[test]
fn trajectory_records_name_every_workload_and_metric() {
    use vran_util::json::Json;
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trajectory.json");
    let text = std::fs::read_to_string(path).expect("BENCH_trajectory.json is checked in");
    let doc = Json::parse(&text).expect("trajectory parses");
    let names = |key: &str| -> Vec<String> {
        let list = doc.get(key).and_then(Json::as_arr).expect("name list");
        list.iter()
            .map(|n| n.as_str().expect("a name").to_string())
            .collect()
    };
    let (workloads, metrics) = (names("workloads"), names("metrics"));
    assert_eq!((workloads.len(), metrics.len()), (5, 4));
    let records = doc.get("records").and_then(Json::as_arr).expect("records");
    let prs: Vec<f64> = records
        .iter()
        .map(|r| r.get("pr").and_then(Json::as_f64).expect("pr number"))
        .collect();
    // Consecutive from the record that defined the benchmark, except
    // across these gaps: numbers that recorded no campaign.
    let gaps = [
        (18.0, 21.0),
        (23.0, 25.0),
        (27.0, 29.0),
        (29.0, 32.0),
        (32.0, 35.0),
        (35.0, 40.0),
        (40.0, 42.0),
        (43.0, 47.0),
        (47.0, 49.0),
    ];
    let follows = |w: &[f64]| w[1] == w[0] + 1.0 || gaps.contains(&(w[0], w[1]));
    assert!(prs.windows(2).all(follows) && prs[0] == 11.0);
    for (record, pr) in records.iter().zip(&prs) {
        for key in ["host", "seeds", "source"] {
            let field = record.get(key).and_then(Json::as_str);
            assert!(field.is_some_and(|s| !s.is_empty()), "PR {pr}: {key}");
        }
        for w in &workloads {
            for m in &metrics {
                let cell = record.get("results").and_then(|r| r.get(w)?.get(m));
                let cell = cell.unwrap_or_else(|| panic!("PR {pr} lacks {w}.{m}"));
                // Every record has a change side; all but the PR that
                // defined the benchmark have a parent side too.
                for side in ["parent", "change"] {
                    let s = cell.get(side).expect("both sides are keys");
                    if side == "change" || *pr > 11.0 {
                        let median = s.get("median").and_then(Json::as_f64);
                        let iqr = s.get("iqr").and_then(Json::as_f64);
                        assert!(median.is_some_and(|v| v > 0.0), "PR {pr} {w}.{m} {side}");
                        assert!(iqr.is_some_and(|v| v >= 0.0), "PR {pr} {w}.{m} {side}");
                    }
                }
            }
        }
    }
}
