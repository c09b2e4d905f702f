//! Capacity planning for a vRAN site (Figure 16 as a tool): per-core
//! bandwidth and core counts for a target station load, per register
//! width and arrangement mechanism.
//!
//! ```text
//! cargo run --release -p apcm --example capacity_planning -- 300
//! cargo run --release -p apcm --example capacity_planning -- 1000
//! ```

use apcm::arrange::{ApcmVariant, Mechanism};
use apcm::latency::LatencyModel;
use vran_simd::RegWidth;
use vran_uarch::CoreConfig;

fn main() {
    let target: f64 = std::env::args()
        .nth(1)
        .map(|a| a.parse().expect("target Mbps must be a number"))
        .unwrap_or(300.0);
    let mut m = LatencyModel::new(CoreConfig::beefy(), apcm::experiments::DECODER_ITERATIONS);
    println!("== capacity plan for a {target:.0} Mbps station (1500 B packets) ==\n");
    println!(
        "{:>8}  {:>12}  {:>14}  {:>11}  {:>11}  {:>7}",
        "width", "Mbps/core", "Mbps/core", "cores", "cores", "saved"
    );
    println!(
        "{:>8}  {:>12}  {:>14}  {:>11}  {:>11}  {:>7}",
        "", "original", "APCM", "original", "APCM", ""
    );
    let apcm = Mechanism::Apcm(ApcmVariant::Shuffle);
    for w in RegWidth::ALL {
        let mo = m.mbps_per_core(w, Mechanism::Baseline);
        let ma = m.mbps_per_core(w, apcm);
        let co = m.cores_for(w, Mechanism::Baseline, target);
        let ca = m.cores_for(w, apcm, target);
        println!(
            "{:>8}  {:>12.1}  {:>14.1}  {:>11}  {:>11}  {:>7}",
            w.name(),
            mo,
            ma,
            co,
            ca,
            co - ca
        );
    }
    println!("\n(the paper's anchors at 300 Mbps: 18→16, 14→12, 12→9 cores)");
}
