//! The checked-in `BENCH_trajectory.json` — one record per PR that ran
//! the repository benchmark — must stay complete enough to chain: every
//! record after the anchor carries a parent and a change median for
//! every workload × metric, so "since the benchmark was defined" is a
//! product of within-campaign ratios, never a difference of absolutes
//! taken on different days. Run with `--nocapture` to print the chain.

use vran_util::Json;

const SCHEMA: &str = "vran-bench-trajectory/1";

fn trajectory() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_trajectory.json");
    let text = std::fs::read_to_string(path).expect("BENCH_trajectory.json is checked in");
    Json::parse(&text).expect("the trajectory parses")
}

/// The string entries of top-level array `key`.
fn names(t: &Json, key: &str) -> Vec<String> {
    t.get(key)
        .and_then(Json::as_arr)
        .unwrap_or_else(|| panic!("`{key}` is an array"))
        .iter()
        .map(|v| v.as_str().expect("names are strings").to_string())
        .collect()
}

/// The median on `side` ("parent" / "change") of one metric of one
/// record, `None` when that side is `null`.
fn median(record: &Json, workload: &str, metric: &str, side: &str) -> Option<f64> {
    let entry = record
        .get("results")
        .and_then(|r| r.get(workload))
        .and_then(|w| w.get(metric))
        .unwrap_or_else(|| panic!("record lacks {workload}.{metric}"));
    match entry.get(side) {
        Some(Json::Null) | None => None,
        Some(s) => Some(
            s.get("median")
                .and_then(Json::as_f64)
                .unwrap_or_else(|| panic!("{workload}.{metric}.{side} has no numeric median")),
        ),
    }
}

#[test]
fn every_record_after_the_anchor_chains() {
    let t = trajectory();
    assert_eq!(t.get("schema").and_then(Json::as_str), Some(SCHEMA));
    let workloads = names(&t, "workloads");
    let metrics = names(&t, "metrics");
    assert_eq!(workloads.len(), 5, "{workloads:?}");
    assert_eq!(metrics.len(), 4, "{metrics:?}");
    assert!(metrics.iter().any(|m| m == "goodput_mbps"));

    let records = t.get("records").and_then(Json::as_arr).expect("records");
    let pr = |r: &Json| r.get("pr").and_then(Json::as_f64).expect("numeric pr") as u64;
    let (anchor, chained) = records.split_first().expect("at least the anchor");
    // The first record defined the benchmark, so it has no parent side.
    assert_eq!(anchor.get("parent"), Some(&Json::Null));
    let mut last = pr(anchor);
    let mut chain = vec![1.0f64; workloads.len()];
    for r in chained {
        let n = pr(r);
        assert!(n > last, "records in PR order: {n} after {last}");
        last = n;
        for (w, link) in workloads.iter().zip(&mut chain) {
            for m in &metrics {
                for side in ["parent", "change"] {
                    let v = median(r, w, m, side)
                        .unwrap_or_else(|| panic!("PR {n}: {w}.{m} has no {side} side"));
                    assert!(v > 0.0, "PR {n}: {w}.{m}.{side} median {v}");
                }
            }
            let side = |s| median(r, w, "goodput_mbps", s).expect("checked above");
            *link *= side("change") / side("parent");
        }
    }
    println!(
        "goodput since PR {} (chained change / parent medians, {} records):",
        pr(anchor),
        chained.len()
    );
    for (w, link) in workloads.iter().zip(&chain) {
        assert!(link.is_finite() && *link > 0.0, "{w}: chain {link}");
        println!("  {w:<12} x{link:.2}");
    }
}
