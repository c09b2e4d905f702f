//! The paper's generalization claim, live: APCM vs the extract
//! baseline for de-interleave strides 2..8 (complex I/Q, vRAN triples,
//! RGBA pixels, multi-channel audio).
//!
//! ```text
//! cargo run --release -p apcm --example stride_generalization
//! ```

use apcm::arrange::StrideKernel;
use vran_simd::RegWidth;
use vran_uarch::{CoreConfig, CoreSim};

fn main() {
    let sim = CoreSim::new(CoreConfig::beefy().warmed());
    let n = 4096;
    println!("== stride-S de-interleave: original vs APCM (SSE128, {n} elements/stream) ==\n");
    println!(
        "{:>7}  {:>16}  {:>12}  {:>12}  {:>9}",
        "stride", "use case", "orig cycles", "apcm cycles", "speedup"
    );
    let cases = [
        (2usize, "complex I/Q"),
        (3, "vRAN S1/YP1/YP2"),
        (4, "RGBA pixels"),
        (6, "5.1 audio"),
        (8, "8-ch audio"),
    ];
    for (s, label) in cases {
        let data: Vec<i16> = (0..s * n).map(|i| (i % 509) as i16 - 254).collect();
        let run = |apcm: bool| {
            let (streams, t) =
                StrideKernel::new(RegWidth::Sse128, s, apcm).deinterleave(&data, true);
            assert_eq!(streams.len(), s);
            sim.run(&t.unwrap()).cycles
        };
        let orig = run(false);
        let apcm = run(true);
        println!(
            "{:>7}  {:>16}  {:>12}  {:>12}  {:>8.2}×",
            s,
            label,
            orig,
            apcm,
            orig as f64 / apcm as f64
        );
    }
    println!("\nthe win tapers toward stride = lane count (S² shuffles for S·L elements),");
    println!("but the movement-port bottleneck never wins it back.");
}
