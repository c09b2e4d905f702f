//! Regenerate the paper's tables and figures.
//!
//! ```text
//! cargo run --release -p apcm --bin figures -- all
//! cargo run --release -p apcm --bin figures -- fig15 fig16
//! cargo run --release -p apcm --bin figures -- --list
//! ```
//!
//! Results are printed and written to `results/<id>.json` +
//! `results/<id>.txt`.

use apcm::experiments;
use std::path::Path;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args.iter().any(|a| a == "--help" || a == "-h") {
        let ids: Vec<&str> = experiments::all().into_iter().map(|(id, _)| id).collect();
        eprintln!(
            "usage: figures [--list] [all | <id>...]  (ids: {})",
            ids.join(" ")
        );
        std::process::exit(if args.is_empty() { 2 } else { 0 });
    }
    if args.iter().any(|a| a == "--list") {
        for (id, _) in experiments::all() {
            println!("{id}");
        }
        return;
    }

    let selected: Vec<(&'static str, experiments::ExperimentFn)> =
        if args.iter().any(|a| a == "all") {
            experiments::all()
        } else {
            args.iter()
                .map(|a| {
                    let f = experiments::by_id(a).unwrap_or_else(|| {
                        eprintln!("unknown experiment id: {a} (try --list)");
                        std::process::exit(2);
                    });
                    let id = experiments::all()
                        .into_iter()
                        .find(|(k, _)| *k == a.as_str())
                        .map(|(k, _)| k)
                        .unwrap();
                    (id, f)
                })
                .collect()
        };

    let outdir = Path::new("results");
    std::fs::create_dir_all(outdir).expect("create results/");
    for (id, runner) in selected {
        let t0 = std::time::Instant::now();
        let fig = runner();
        let rendered = fig.render();
        print!("{rendered}");
        println!("  [{} generated in {:.2?}]\n", id, t0.elapsed());
        std::fs::write(outdir.join(format!("{id}.txt")), &rendered).expect("write txt");
        std::fs::write(outdir.join(format!("{id}.csv")), fig.to_csv()).expect("write csv");
        std::fs::write(outdir.join(format!("{id}.json")), fig.to_json()).expect("write json");
    }
}
