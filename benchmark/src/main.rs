//! Command line of the repository benchmark.
//!
//! ```text
//! vran-benchmark [--workload <name>] [--seed <n>] [--seconds <s>] [--trace <0|1>]
//! vran-benchmark --repeat <n> [--workload <name>] [--seed <n>] [--seconds <s>]
//! ```
//!
//! One run prints the host line, one `name value unit` line per metric,
//! and — last — one JSON object per workload with `correct`,
//! `attempted`, `failed` and `metrics`; the same goes to
//! `out/result.json` (and the spans of a traced run to
//! `out/trace-<workload>.json`). Without `--workload` all five run in
//! turn. `--repeat` re-executes the program once per seed `seed..seed+n`
//! and reports each end-to-end metric's median, range and quartile
//! spread against its bound in `BENCHMARK.json`.

use std::path::PathBuf;
use std::process::{Command, ExitCode};
use vran_benchmark::stats::{median, quartiles};
use vran_benchmark::{host, run_workload, Outcome, Params, END_TO_END, PER_LAYER, POOL, WORKLOADS};
use vran_util::json::Json;

/// Spans of at most this many requests are written to the trace file
/// (every span counts toward the per-layer metrics regardless).
const TRACE_FILE_REQUESTS: u32 = 2048;

struct Args {
    workloads: Vec<String>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: Option<usize>,
}

fn parse_args() -> Result<Args, String> {
    let mut a = Args {
        workloads: WORKLOADS.iter().map(|w| w.to_string()).collect(),
        seed: 1,
        seconds: 20.0,
        trace: false,
        repeat: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} {value}: expected {what}");
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(bad(&format!("one of {WORKLOADS:?}")));
                }
                a.workloads = vec![value];
            }
            "--seed" => a.seed = value.parse().map_err(|_| bad("an unsigned integer"))?,
            "--seconds" => {
                a.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| (0.0..=60.0).contains(s))
                    .ok_or_else(|| bad("seconds in 0..=60"))?
            }
            "--trace" => {
                a.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--repeat" => {
                a.repeat = Some(
                    value
                        .parse()
                        .ok()
                        .filter(|n| (2..=100).contains(n))
                        .ok_or_else(|| bad("a count in 2..=100"))?,
                )
            }
            _ => return Err(format!("unknown switch {flag}")),
        }
    }
    Ok(a)
}

/// The benchmark's output directory, inside its own package.
fn out_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out")
}

fn write_file(name: &str, json: &Json) -> Result<(), String> {
    let dir = out_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let path = dir.join(name);
    std::fs::write(&path, json.to_string_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// The metrics of one run in table order; a traced run reports every
/// per-layer metric, with 0 for layers the workload never entered.
fn table_metrics(o: &Outcome, trace: bool) -> Vec<(&'static str, &'static str, f64)> {
    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    table
        .iter()
        .map(|&(name, unit)| (name, unit, o.get(name).unwrap_or(0.0)))
        .collect()
}

/// The object the driver reads from the last line.
fn result_json(o: &Outcome, trace: bool) -> Json {
    Json::obj([
        ("correct", Json::Bool(o.correct())),
        ("attempted", Json::Num(o.attempted as f64)),
        ("failed", Json::Num(o.failed as f64)),
        (
            "metrics",
            Json::obj(table_metrics(o, trace).into_iter().map(|(name, unit, v)| {
                (
                    name,
                    Json::obj([("value", Json::Num(v)), ("unit", Json::str(unit))]),
                )
            })),
        ),
    ])
}

fn trace_json(workload: &str, a: &Args, host: &str, o: &Outcome) -> Option<Json> {
    let dump = o.trace.as_ref()?;
    let written: Vec<Json> = dump
        .spans
        .iter()
        .enumerate()
        .filter(|(_, s)| s.req < TRACE_FILE_REQUESTS)
        .map(|(id, s)| {
            Json::Arr(vec![
                Json::Num(s.req as f64),
                Json::Num(id as f64),
                if s.parent == vran_benchmark::trace::NO_PARENT {
                    Json::Null
                } else {
                    Json::Num(s.parent as f64)
                },
                Json::str(dump.ops[s.op as usize]),
                Json::Num(s.start_ns as f64),
                Json::Num(s.end_ns as f64),
                Json::Num(s.units as f64),
            ])
        })
        .collect();
    Some(Json::obj([
        ("workload", Json::str(workload)),
        ("seed", Json::Num(a.seed as f64)),
        ("host", Json::str(host)),
        (
            "columns",
            Json::str("request, span, parent span, operation, start_ns, end_ns, units"),
        ),
        ("spans_recorded", Json::Num(dump.spans.len() as f64)),
        ("spans_written", Json::Num(written.len() as f64)),
        ("spans", Json::Arr(written)),
    ]))
}

/// Run the selected workloads in this process.
fn run(a: &Args) -> Result<bool, String> {
    let host = host::line();
    println!("host {host}");
    let mut all_correct = true;
    let mut stored = Vec::new();
    for w in &a.workloads {
        let p = Params {
            seed: a.seed,
            seconds: a.seconds,
            pool: POOL,
            trace: a.trace,
        };
        let o = run_workload(w, &p)?;
        println!(
            "workload {w} seed {} seconds {} trace {} attempted {} failed {} samples {}",
            a.seed, a.seconds, a.trace as u8, o.attempted, o.failed, o.samples
        );
        for (name, unit, v) in table_metrics(&o, a.trace) {
            println!("{w}.{name} {v} {unit}");
        }
        for (key, text) in &o.notes {
            println!("note {w}.{key} {text}");
        }
        if let Some(why) = &o.invalid {
            println!("invalid {w}: {why}");
        }
        if let Some(t) = trace_json(w, a, &host, &o) {
            write_file(&format!("trace-{w}.json"), &t)?;
        }
        let result = result_json(&o, a.trace);
        stored.push(Json::obj([
            ("workload", Json::str(w.as_str())),
            ("seed", Json::Num(a.seed as f64)),
            ("seconds", Json::Num(a.seconds)),
            ("trace", Json::Bool(a.trace)),
            ("samples", Json::Num(o.samples as f64)),
            (
                "notes",
                Json::obj(
                    o.notes
                        .iter()
                        .map(|(k, t)| (k.as_str(), Json::str(t.as_str()))),
                ),
            ),
            ("result", result.clone()),
        ]));
        all_correct &= o.correct();
        println!("{result}");
    }
    write_file(
        "result.json",
        &Json::obj([("host", Json::str(host)), ("runs", Json::Arr(stored))]),
    )?;
    Ok(all_correct)
}

/// Bounds of the end-to-end metrics, from `BENCHMARK.json`.
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    let json = Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))?;
    let list = json
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    Ok(list
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect())
}

/// Re-execute once per seed and compare the spread of every end-to-end
/// metric with its bound.
fn repeat(a: &Args, n: usize) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let bounds = bounds()?;
    let mut within = true;
    for w in &a.workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); bounds.len()];
        for i in 0..n {
            let out = Command::new(&exe)
                .args(["--workload", w, "--trace", "0"])
                .args(["--seed", &(a.seed + i as u64).to_string()])
                .args(["--seconds", &a.seconds.to_string()])
                .output()
                .map_err(|e| format!("{}: {e}", exe.display()))?;
            let stdout = String::from_utf8_lossy(&out.stdout);
            let last = stdout.lines().last().unwrap_or("");
            let json = Json::parse(last).map_err(|e| format!("run {i} of {w}: {e}"))?;
            if !out.status.success() || json.get("correct") != Some(&Json::Bool(true)) {
                return Err(format!("run {i} of {w} failed: {last}"));
            }
            for (v, (name, _)) in values.iter_mut().zip(&bounds) {
                let value = json
                    .get("metrics")
                    .and_then(|m| m.get(name))
                    .and_then(|m| m.get("value"))
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("run {i} of {w} has no {name}"))?;
                v.push(value);
            }
        }
        for (v, (name, bound)) in values.iter().zip(&bounds) {
            let (lo, hi) = v
                .iter()
                .fold((f64::MAX, f64::MIN), |(lo, hi), &x| (lo.min(x), hi.max(x)));
            let med = median(v);
            let (q1, q3) = quartiles(v);
            let spread = (q3 - q1) / med;
            let ok = spread <= *bound;
            within &= ok;
            println!(
                "{w}.{name} median {med} min {lo} max {hi} range/median {:.4} spread {spread:.4} bound {bound} {}",
                (hi - lo) / med,
                if ok { "ok" } else { "EXCEEDED" }
            );
        }
    }
    Ok(within)
}

fn main() -> ExitCode {
    let outcome = parse_args().and_then(|a| match a.repeat {
        Some(n) => repeat(&a, n),
        None => run(&a),
    });
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("vran-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}
