//! Quickstart: arrange one code block both ways, decode it, and show
//! the port-level difference.
//!
//! ```text
//! cargo run --release -p apcm --example quickstart
//! ```

use apcm::arrange::{ApcmVariant, ArrangeKernel, Mechanism};
use vran_phy::bits::random_bits;
use vran_phy::llr::{bit_to_llr, TurboLlrs};
use vran_phy::turbo::{TurboDecoder, TurboEncoder};
use vran_simd::RegWidth;
use vran_uarch::{CoreConfig, CoreSim};

fn main() {
    let k = 6144;
    println!("== APCM quickstart: one K={k} code block ==\n");

    // 1. Encode a block and make noiseless LLRs.
    let bits = random_bits(k, 42);
    let cw = TurboEncoder::new(k).encode(&bits);
    let d = cw.to_dstreams();
    let soft: [Vec<i16>; 3] = d
        .iter()
        .map(|s| s.iter().map(|&b| bit_to_llr(b, 80)).collect())
        .collect::<Vec<_>>()
        .try_into()
        .unwrap();
    let turbo_in = TurboLlrs::from_dstreams(&soft, k);

    // 2. The decoder front end sees interleaved [S1 YP1 YP2] triples.
    let interleaved = turbo_in.to_interleaved();

    // 3. Arrange with the original mechanism and with APCM; both must
    //    produce identical streams.
    let sim = CoreSim::new(CoreConfig::beefy().warmed());
    let mut streams = Vec::new();
    for mech in [Mechanism::Baseline, Mechanism::Apcm(ApcmVariant::Shuffle)] {
        let kern = ArrangeKernel::new(RegWidth::Sse128, mech);
        let (out, trace) = kern.arrange(&interleaved, true);
        let r = sim.run(&trace.unwrap());
        println!(
            "{:<10}  {:>7} cycles   IPC {:.2}   backend bound {:>5.1}%   store path {:>5.1} bits/cycle",
            mech.name(),
            r.cycles,
            r.ipc,
            r.topdown.backend() * 100.0,
            r.store_bw_bits_per_cycle,
        );
        streams.push(out);
    }
    assert_eq!(streams[0], streams[1], "mechanisms must agree bit-for-bit");
    println!("\narranged streams identical across mechanisms ✓");

    // 4. Decode from the arranged streams.
    let dec_in = TurboLlrs {
        k,
        streams: streams.pop().unwrap(),
        tails: turbo_in.tails,
    };
    let out = TurboDecoder::new(k, 5).decode(&dec_in);
    assert_eq!(out.bits, bits);
    println!(
        "decoded {k} bits correctly in {} iterations ✓",
        out.iterations_run
    );
}
