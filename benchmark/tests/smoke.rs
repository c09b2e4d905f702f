//! Every workload end to end on a small pool (two passes, the shortest
//! valid run), traced and untraced, and the metric tables against the
//! contract file the driver reads.

use vran_benchmark::{run_workload, Params, END_TO_END, PER_LAYER, WORKLOADS};
use vran_util::json::Json;

/// Two of every traffic class; small enough to finish in seconds.
const POOL: usize = 24;

fn params(trace: bool) -> Params {
    Params {
        seed: 7,
        seconds: 0.0,
        pool: POOL,
        trace,
    }
}

#[test]
fn every_workload_runs_twice_through_its_pool_without_a_failure() {
    for w in WORKLOADS {
        let o = run_workload(w, &params(false)).unwrap_or_else(|e| panic!("{w}: {e}"));
        assert!(o.correct(), "{w}: failed {} of {}", o.failed, o.attempted);
        assert_eq!(o.attempted, 2 * POOL as u64, "{w}: count = 2 x pool");
        for (name, _) in END_TO_END {
            let v = o
                .get(name)
                .unwrap_or_else(|| panic!("{w} reports no {name}"));
            assert!(v.is_finite() && v > 0.0, "{w}.{name} = {v}");
        }
    }
}

#[test]
fn traced_runs_close_their_budget_and_stay_inside_the_per_layer_table() {
    for w in WORKLOADS {
        let o = run_workload(w, &params(true)).unwrap_or_else(|e| panic!("{w}: {e}"));
        assert!(o.correct(), "{w}: failed {} of {}", o.failed, o.attempted);
        assert!(o.trace.is_some(), "{w}: a traced run hands back its spans");
        for (name, v) in &o.metrics {
            assert!(
                PER_LAYER.iter().any(|(n, _)| n == name),
                "{w} reports {name}, which the per-layer table does not list"
            );
            assert!(v.is_finite(), "{w}.{name} = {v}");
        }
    }
    // The two receive workloads and the transmit workload attribute
    // (nearly) all of the chain's wall time to a stage, and their stage
    // shares plus the remainder add up to the whole.
    for (w, prefix) in [("rx_bulk", "rx"), ("rx_decode", "rx"), ("tx_bulk", "tx")] {
        let o = run_workload(w, &params(true)).expect(w);
        let unattributed = o.get(&format!("{prefix}.unattributed.frac")).expect(w);
        assert!(unattributed < 0.05, "{w}: unattributed {unattributed}");
        let shares: f64 = o
            .metrics
            .iter()
            .filter(|(n, _)| n.ends_with(".share"))
            .map(|m| m.1)
            .sum();
        assert!(
            (shares + unattributed - 1.0).abs() < 1e-9,
            "{w}: shares {shares} + unattributed {unattributed} != 1"
        );
    }
}

#[test]
fn the_same_seed_gives_the_same_work() {
    // Decoder iterations depend on every input bit and noise sample.
    let run = || {
        let o = run_workload("rx_bulk", &params(true)).expect("rx_bulk");
        (
            o.get("phy.turbo.iters_per_block"),
            o.get("phy.turbo.blocks_per_pkt"),
        )
    };
    assert_eq!(run(), run());
}

#[test]
fn metric_tables_match_the_contract_file() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json beside the package");
    let json = Json::parse(&text).expect("BENCHMARK.json parses");
    let listed = |key: &str| -> Vec<(String, String)> {
        json.get(key)
            .and_then(Json::as_arr)
            .unwrap_or_else(|| panic!("{key} missing"))
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                (field("name"), field("unit"))
            })
            .collect()
    };
    let table = |t: &[(&str, &str)]| -> Vec<(String, String)> {
        t.iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect()
    };
    assert_eq!(listed("end_to_end"), table(&END_TO_END));
    assert_eq!(listed("per_layer"), table(&PER_LAYER));
    let workloads: Vec<&str> = json
        .get("workloads")
        .and_then(Json::as_arr)
        .expect("workloads")
        .iter()
        .map(|w| w.get("name").and_then(Json::as_str).expect("name"))
        .collect();
    assert_eq!(workloads, WORKLOADS);
}
