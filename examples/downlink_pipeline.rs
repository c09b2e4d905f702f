//! Drive control + data subframes through the complete downlink chain
//! (grant → turbo encode → rate match → OFDM → AWGN → decode) under
//! both profiles, then show what the packed-word fast path
//! buys: per-ISA encode throughput at K=6144.
//!
//! ```text
//! cargo run --release -p apcm --example downlink_pipeline
//! ```

use std::time::Instant;
use vran_net::downlink::{DownlinkConfig, DownlinkPipeline};
use vran_net::packet::{PacketBuilder, Transport};
use vran_net::pipeline::Profile;
use vran_phy::bits::random_bits;
use vran_phy::turbo::{EncodeScratch, EncoderIsa, PackedTurboEncoder, TurboEncoder};
use vran_simd::host::tiers;

fn main() {
    println!("== downlink pipeline: QPSK PDCCH + 16-QAM PDSCH over 25 dB AWGN ==\n");
    let [production, reference] = [Profile::Production, Profile::Reference].map(|profile| {
        let cfg = DownlinkConfig {
            profile,
            snr_db: 25.0,
            ..Default::default()
        };
        let pipe = DownlinkPipeline::new(cfg);
        println!("--- profile: {profile:?} ---");
        println!(
            "{:>6}  {:>5}  {:>4}  {:>5}  {:>9}  {:>7}",
            "size", "proto", "dci", "data", "coded", "blocks"
        );
        let mut subframes = Vec::new();
        for transport in [Transport::Udp, Transport::Tcp] {
            let mut b = PacketBuilder::new(5060, 5060);
            for size in [64usize, 512, 1500] {
                let p = b.build(transport, size).expect("valid size");
                let r = pipe.process(&p);
                assert!(r.dci_ok && r.data_ok, "25 dB must decode: {r:?}");
                println!(
                    "{:>6}  {:>5}  {:>4}  {:>5}  {:>9}  {:>7}",
                    size,
                    transport.name(),
                    "✓",
                    "✓",
                    r.coded_bits,
                    r.code_blocks,
                );
                subframes.push((r.code_blocks, r.coded_bits));
            }
        }
        println!();
        subframes
    });
    assert_eq!(production, reference);
    println!("both profiles delivered every subframe with the same block structure ✓\n");

    // Packed-vs-scalar encode throughput at the largest block size.
    const K: usize = 6144;
    const REPS: u32 = 200;
    let bits = random_bits(K, 7);
    let scalar_ns = {
        let enc = TurboEncoder::new(K);
        let t = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(enc.encode(std::hint::black_box(&bits)));
        }
        t.elapsed().as_nanos() as f64 / f64::from(REPS)
    };
    println!("== turbo encode, K=6144, {REPS} reps ==");
    println!(
        "{:>8}  {:>10}  {:>9}  {:>8}",
        "kernel", "ns/block", "Mbit/s", "speedup"
    );
    println!(
        "{:>8}  {:>10.0}  {:>9.0}  {:>8}",
        "scalar",
        scalar_ns,
        K as f64 / scalar_ns * 1e3,
        "1.00x"
    );
    for isa in tiers::<EncoderIsa>() {
        let enc = PackedTurboEncoder::with_isa(K, isa);
        let mut scratch = EncodeScratch::new();
        let t = Instant::now();
        for _ in 0..REPS {
            enc.encode_dstreams_into(std::hint::black_box(&bits), &mut scratch);
            std::hint::black_box(scratch.dstream_words());
        }
        let ns = t.elapsed().as_nanos() as f64 / f64::from(REPS);
        println!(
            "{:>8}  {:>10.0}  {:>9.0}  {:>7.2}x",
            isa.name(),
            ns,
            K as f64 / ns * 1e3,
            scalar_ns / ns
        );
    }
}
