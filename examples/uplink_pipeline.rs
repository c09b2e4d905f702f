//! Drive real UDP and TCP packets through the complete uplink PHY
//! chain (encode → OFDM → AWGN → demap → arrange → turbo decode) and
//! report per-stage wall-clock shares under both profiles; then run the
//! receiver alone on
//! a capture, serially and through the stage graph.
//!
//! ```text
//! cargo run --release -p apcm --example uplink_pipeline
//! ```

use vran_net::l2::{BearerTx, L2_OVERHEAD};
use vran_net::metrics::Op;
use vran_net::packet::{PacketBuilder, Transport};
use vran_net::pipeline::{PipelineConfig, Profile, UplinkPipeline};
use vran_net::rx::{Capture, RxChain};
use vran_net::tx::TxChain;
use vran_net::{StageGraph, StageGraphConfig};
use vran_phy::bits::unpack_msb;
use vran_phy::channel::AwgnChannel;
use vran_phy::modulation::Modulation;

fn main() {
    println!("== uplink pipeline: 16-QAM over 14 dB AWGN, 5 MHz OFDM ==\n");
    let [production, reference] = [Profile::Production, Profile::Reference].map(|profile| {
        let cfg = PipelineConfig {
            profile,
            modulation: Modulation::Qam16,
            snr_db: 14.0,
            decoder_iterations: 6,
            ..Default::default()
        };
        let pipe = UplinkPipeline::new(cfg);
        println!("--- profile: {profile:?} ---");
        println!(
            "{:>6}  {:>5}  {:>3}  {:>9}  {:>7}  {:>8}  {:>8}",
            "size", "proto", "ok", "coded", "blocks", "arr µs", "dec µs"
        );
        let mut delivered = Vec::new();
        for transport in [Transport::Udp, Transport::Tcp] {
            let mut b = PacketBuilder::new(5060, 5060);
            for size in [64usize, 512, 1500] {
                let p = b.build(transport, size).expect("valid size");
                let r = pipe.process(&p).expect("14 dB 16-QAM should decode");
                println!(
                    "{:>6}  {:>5}  {:>3}  {:>9}  {:>7}  {:>8.1}  {:>8.1}",
                    size,
                    transport.name(),
                    "✓",
                    r.coded_bits,
                    r.code_blocks,
                    r.nanos[Op::Arrange] as f64 / 1e3,
                    r.nanos[Op::Decode] as f64 / 1e3,
                );
                delivered.push((r.tb_bits, r.code_blocks, r.coded_bits));
            }
        }
        println!();
        delivered
    });
    // Iteration counts may differ (Q11 vs f32 LLRs); what arrives may not.
    assert_eq!(production, reference);
    println!("every packet delivered identically under both profiles ✓\n");
    receiver_alone();
}

/// The receiver under test without the loopback bench around it: one
/// capture (transmit chain + channel, made once, outside any timed
/// region) handed to `RxChain::rx`, and again to the stage graph's
/// capture-taking admission.
fn receiver_alone() {
    let cfg = PipelineConfig::default();
    let grant = UplinkPipeline::new(cfg).grant();
    let frame = PacketBuilder::new(5060, 5060)
        .build(Transport::Udp, 1400)
        .expect("valid size")
        .frame;

    let pdu = BearerTx::default()
        .encapsulate(&frame, frame.len() + L2_OVERHEAD)
        .expect("TB sized to fit");
    let mut tx = TxChain::default();
    let seg = tx
        .tx(&unpack_msb(&pdu, pdu.len() * 8), &grant, &mut ())
        .expect("a 1400 B frame segments");
    let mut channel = AwgnChannel::new(cfg.snr_db, cfg.seed);
    let air = channel.apply(&tx.samples);
    let cap = Capture {
        samples: &air,
        n_symbols: tx.symbols.len(),
        tb_bits: seg.b,
        llr_scale: Capture::llr_scale_of(&channel),
    };

    let got = RxChain::new(cfg.decoder_iterations)
        .rx(&cap, &grant, &mut ())
        .expect("14 dB 16-QAM should decode");
    assert_eq!(got.sdu, frame);
    let mut graph = StageGraph::with_config(cfg, StageGraphConfig::default());
    graph.admit_capture(0, &cap, &frame);
    graph.drain();
    let (_, staged) = graph.pop_completed().expect("drain retires the packet");
    let staged = staged.expect("the same capture decodes staged");
    println!(
        "== receiver alone: {} samples → {} B in {} blocks, {} iterations (stage graph: {}) ✓",
        air.len(),
        got.sdu.len(),
        got.code_blocks,
        got.iterations,
        staged.decoder_iterations,
    );
}
