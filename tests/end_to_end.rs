//! End-to-end integration: real packets through the complete PHY loop
//! across modulations and SNR points, and every arrangement mechanism
//! and width on a real packet's soft bits.

use apcm::arrange::{ApcmVariant, ArrangeKernel, Mechanism};
use vran_net::error::{ErrorCategory, PipelineError};
use vran_net::l2::{BearerTx, L2_OVERHEAD};
use vran_net::packet::{PacketBuilder, Transport};
use vran_net::pipeline::{PacketResult, PipelineConfig, UplinkPipeline};
use vran_net::runner::run_uplink_serial_mixed;
use vran_net::rx::{Capture, RxChain};
use vran_net::tx::TxChain;
use vran_phy::bits::unpack_msb;
use vran_phy::channel::AwgnChannel;
use vran_phy::modulation::Modulation;
use vran_simd::RegWidth;

fn process(
    cfg: PipelineConfig,
    transport: Transport,
    size: usize,
) -> Result<PacketResult, PipelineError> {
    let mut b = PacketBuilder::new(4000, 4001);
    let p = b.build(transport, size).unwrap();
    UplinkPipeline::new(cfg).process(&p)
}

#[test]
fn every_modulation_closes_the_loop_at_adequate_snr() {
    // Operating points with comfortable margin for rate-1/2 turbo.
    for (m, snr) in [
        (Modulation::Qpsk, 6.0),
        (Modulation::Qam16, 13.0),
        (Modulation::Qam64, 20.0),
    ] {
        let cfg = PipelineConfig {
            modulation: m,
            snr_db: snr,
            ..Default::default()
        };
        let r = process(cfg, Transport::Udp, 512);
        assert!(r.is_ok(), "{} at {snr} dB must decode: {r:?}", m.name());
    }
}

#[test]
fn snr_waterfall_is_monotone() {
    // Sweep SNR for 16-QAM; once decoding succeeds it must keep
    // succeeding at every higher point (with the same seed).
    let mut successes = Vec::new();
    for snr10 in (40..200).step_by(20) {
        let snr = snr10 as f32 / 10.0;
        let cfg = PipelineConfig {
            modulation: Modulation::Qam16,
            snr_db: snr,
            decoder_iterations: 6,
            ..Default::default()
        };
        successes.push((snr, process(cfg, Transport::Udp, 256).is_ok()));
    }
    let first_ok = successes.iter().position(|(_, ok)| *ok);
    assert!(
        first_ok.is_some(),
        "16-QAM must decode somewhere below 20 dB: {successes:?}"
    );
    for (snr, ok) in &successes[first_ok.unwrap()..] {
        assert!(ok, "non-monotone waterfall at {snr} dB: {successes:?}");
    }
}

#[test]
fn mechanisms_are_functionally_transparent_at_the_packet_level() {
    // The central functional requirement, on a real packet's soft bits:
    // every arrangement mechanism at every width hands the decoder
    // exactly the streams the receiver's fused ingest staged.
    let cfg = PipelineConfig {
        modulation: Modulation::Qam16,
        snr_db: 11.5,
        ..Default::default()
    };
    let grant = UplinkPipeline::new(cfg).grant();
    let frame = PacketBuilder::new(4000, 4001)
        .build(Transport::Udp, 700)
        .unwrap()
        .frame;
    let pdu = BearerTx::default()
        .encapsulate(&frame, frame.len() + L2_OVERHEAD)
        .unwrap();
    let mut tx = TxChain::default();
    let seg = tx
        .tx(&unpack_msb(&pdu, pdu.len() * 8), &grant, &mut ())
        .unwrap();
    let mut channel = AwgnChannel::new(cfg.snr_db, cfg.seed);
    let air = channel.apply(&tx.samples);
    let cap = Capture {
        samples: &air,
        n_symbols: tx.symbols.len(),
        tb_bits: seg.b,
        llr_scale: Capture::llr_scale_of(&channel),
    };
    let staged = RxChain::new(cfg.profile, cfg.decoder_iterations)
        .front(&cap, &grant, &mut ())
        .unwrap();
    assert_eq!(staged.tasks.len(), seg.c);
    for task in &staged.tasks {
        let interleaved = task.to_interleaved();
        for width in RegWidth::ALL {
            for mech in [
                Mechanism::Baseline,
                Mechanism::Apcm(ApcmVariant::Shuffle),
                Mechanism::Apcm(ApcmVariant::MaskRotate),
            ] {
                let kern = ArrangeKernel::new(width, mech);
                let (arranged, _) = kern.arrange(&interleaved, false);
                assert!(
                    kern.depermute(&arranged) == task.streams,
                    "{width}/{} diverged",
                    mech.name()
                );
            }
        }
    }
}

#[test]
fn segmented_transport_blocks_survive() {
    // 1500 B → multi-code-block TB with per-block CRC24B.
    let cfg = PipelineConfig {
        snr_db: 25.0,
        ..Default::default()
    };
    for transport in [Transport::Udp, Transport::Tcp] {
        let r = process(cfg, transport, 1500);
        let r = r.unwrap_or_else(|e| panic!("{}: {e}", transport.name()));
        assert!(r.code_blocks >= 2);
    }
}

#[test]
fn corrupted_channel_is_detected_not_miscorrected() {
    // At hopeless SNR the CRC must catch the failure (a typed decode
    // error) rather than deliver a wrong frame as good.
    let cfg = PipelineConfig {
        modulation: Modulation::Qam64,
        snr_db: -5.0,
        decoder_iterations: 3,
        ..Default::default()
    };
    let e = process(cfg, Transport::Udp, 512).expect_err("−5 dB 64-QAM must fail");
    assert!(matches!(
        e.category(),
        ErrorCategory::CrcMismatch | ErrorCategory::DecoderDiverged
    ));
}

#[test]
fn threaded_runner_matches_single_shot_results() {
    let cfg = PipelineConfig {
        snr_db: 28.0,
        ..Default::default()
    };
    let rep = run_uplink_serial_mixed(cfg, &[(Transport::Udp, 300)], 6, 1);
    assert_eq!(rep.packets, 6);
    assert_eq!(rep.ok_packets, 6);
    assert!(process(cfg, Transport::Udp, 300).is_ok());
}

#[test]
fn packet_size_sweep_matches_figure13_grid() {
    // Every Figure 13 grid point must be processable.
    let cfg = PipelineConfig {
        snr_db: 25.0,
        decoder_iterations: 4,
        ..Default::default()
    };
    let pipe = UplinkPipeline::new(cfg);
    for size in [64usize, 256, 512, 1024, 1500] {
        for transport in [Transport::Udp, Transport::Tcp] {
            let mut b = PacketBuilder::new(1, 2);
            let p = b.build(transport, size).unwrap();
            let r = pipe.process(&p);
            assert!(r.is_ok(), "{} {size}B: {r:?}", transport.name());
        }
    }
}
