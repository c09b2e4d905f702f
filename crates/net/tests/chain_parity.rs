//! The transmit and receive chains held to their oracles, in tier-1:
//!
//! * `TxChain` → `AwgnChannel` → `RxChain::rx` against
//!   `UplinkPipeline::process` on the same frames and noise seeds, under
//!   each `Profile` (`RxChain::new(profile, …)` against the pipeline's
//!   `profile`) — whole outcomes, so a chain that drifts from the
//!   loopback (the benchmark's set-up parity) fails `cargo test`, not a
//!   benchmark run;
//! * `TxChain`'s scrambled bits and samples, bit for bit, against the scalar
//!   reference composition (bit-serial CRC, per-bit trellis walk,
//!   per-position rate-match readout, bit-serial Gold sequence);
//! * a table of malformed captures: every one a typed error, none a
//!   panic, and the chain decodes the good capture again afterwards.
//!
//! Each runs at every ISA ceiling `isa_fallback` uses (the reference
//! profile, whose kernels ignore the ceiling, at the host's only); the
//! ceiling is process-global, so the tests of this binary take turns.

use vran_net::amc::MCS_TABLE;
use vran_net::error::{ErrorCategory, PipelineError};
use vran_net::l2::{BearerTx, L2_OVERHEAD};
use vran_net::packet::{PacketBuilder, Transport};
use vran_net::pipeline::{PipelineConfig, UplinkPipeline};
use vran_net::rx::{Capture, RxChain};
use vran_net::tx::{Grant, Profile, TxChain};
use vran_phy::bits::unpack_msb;
use vran_phy::channel::AwgnChannel;
use vran_phy::crc::{CrcImpl, CRC24A};
use vran_phy::modulation::{Cplx, Modulation};
use vran_phy::ofdm::OfdmConfig;
use vran_phy::rate_match::RateMatcher;
use vran_phy::scrambler::scramble_bits_serial;
use vran_phy::segmentation::Segmentation;
use vran_phy::turbo::TurboEncoder;
use vran_simd::host::{with_isa_ceiling, HostIsa};

const CEILINGS: [Option<HostIsa>; 4] = [
    None,
    Some(HostIsa::Avx2),
    Some(HostIsa::Ssse3),
    Some(HostIsa::Scalar),
];

const SIZES: [usize; 6] = [64, 256, 512, 1024, 1400, 1500];

/// Run `body` under each ceiling in turn; the full grid under the
/// host's own tiers, every other ceiling on the grid's corners.
fn at_every_ceiling(mut body: impl FnMut(Option<HostIsa>, &[usize])) {
    for ceiling in CEILINGS {
        let sizes: &[usize] = if ceiling.is_none() {
            &SIZES
        } else {
            &[64, 1500]
        };
        with_isa_ceiling(ceiling, || body(ceiling, sizes));
    }
}

/// Operating point, `amc`'s rate-1/2 threshold, and a hopeless channel.
fn snrs(modulation: Modulation) -> [f32; 3] {
    let (operating, rate) = match modulation {
        Modulation::Qpsk => (8.0, 2048),
        Modulation::Qam16 => (14.0, 2048),
        Modulation::Qam64 => (20.0, 2048),
    };
    let threshold = MCS_TABLE
        .iter()
        .find(|e| e.modulation == modulation && e.rate_x1024 == rate)
        .expect("every modulation has a rate-1/2 entry")
        .min_snr_db;
    [operating, threshold, -10.0]
}

/// L2 framing + bit expansion: the step above the transmit chain.
fn payload_bits(frame: &[u8]) -> Vec<u8> {
    let pdu = BearerTx::default()
        .encapsulate(frame, frame.len() + L2_OVERHEAD)
        .expect("TB sized to fit");
    unpack_msb(&pdu, pdu.len() * 8)
}

/// A whole outcome, comparable across `process` and the bare chains.
#[derive(Debug, PartialEq)]
enum Outcome {
    Delivered {
        tb_bits: usize,
        code_blocks: usize,
        coded_bits: usize,
        iterations: usize,
    },
    Failed {
        category: ErrorCategory,
        tb_bits: usize,
        code_blocks: usize,
        failed_blocks: usize,
        iterations: usize,
    },
}

fn failed(e: &PipelineError) -> Outcome {
    let f = e.decode_failure().copied().unwrap_or_default();
    Outcome::Failed {
        category: e.category(),
        tb_bits: f.tb_bits,
        code_blocks: f.code_blocks,
        failed_blocks: f.failed_blocks,
        iterations: f.decoder_iterations,
    }
}

#[test]
fn bare_chains_match_process_over_the_grid() {
    at_every_ceiling(|ceiling, sizes| {
        // The reference kernels ignore the ceiling: one leg, at the
        // host's own tiers.
        let profiles: &[Profile] = match ceiling {
            None => &[Profile::Production, Profile::Reference],
            Some(_) => &[Profile::Production],
        };
        for &profile in profiles {
            bare_chain_matches_process(profile, sizes);
        }
    });
}

/// `RxChain::new(profile, …)` against `UplinkPipeline` under the same
/// profile, over the grid.
fn bare_chain_matches_process(profile: Profile, sizes: &[usize]) {
    let mut tx = TxChain::default();
    let mut air = Vec::new();
    let mut builder = PacketBuilder::new(4000, 4001);
    let mut seed = 100;
    for modulation in Modulation::ALL {
        for snr_db in snrs(modulation) {
            let cfg = PipelineConfig {
                profile,
                modulation,
                snr_db,
                ..Default::default()
            };
            let mut rx = RxChain::new(cfg.profile, cfg.decoder_iterations);
            for &size in sizes {
                for transport in [Transport::Udp, Transport::Tcp] {
                    seed += 1;
                    let packet = builder.build(transport, size).unwrap();
                    let pipe = UplinkPipeline::new(PipelineConfig { seed, ..cfg });
                    let want = match pipe.process(&packet) {
                        Ok(r) => Outcome::Delivered {
                            tb_bits: r.tb_bits,
                            code_blocks: r.code_blocks,
                            coded_bits: r.coded_bits,
                            iterations: r.decoder_iterations,
                        },
                        Err(e) => failed(&e),
                    };

                    let grant = pipe.grant();
                    let seg = tx
                        .tx(&payload_bits(&packet.frame), &grant, &mut ())
                        .unwrap();
                    let mut channel = AwgnChannel::new(snr_db, seed);
                    channel.apply_into(&tx.samples, &mut air);
                    let cap = Capture {
                        samples: &air,
                        n_symbols: tx.symbols.len(),
                        tb_bits: seg.b,
                        llr_scale: Capture::llr_scale_of(&channel),
                    };
                    let got = match rx.rx(&cap, &grant, &mut ()) {
                        Ok(d) => {
                            assert_eq!(d.sdu, packet.frame, "delivered bytes");
                            Outcome::Delivered {
                                tb_bits: seg.b,
                                code_blocks: d.code_blocks,
                                coded_bits: d.coded_bits,
                                iterations: d.iterations,
                            }
                        }
                        Err(e) => failed(&e),
                    };
                    assert_eq!(
                        got,
                        want,
                        "{profile:?} {size} B {transport:?} {} at {snr_db} dB, noise seed {seed}",
                        modulation.name()
                    );
                }
            }
        }
    }
}

/// The coded, rate-matched, scrambled bits of `payload` by the scalar
/// reference composition.
fn reference_scrambled_bits(payload: &[u8], grant: &Grant) -> Vec<u8> {
    let tb = CRC24A.attach_with(CrcImpl::BitSerial, payload);
    let seg = Segmentation::plan(tb.len());
    let mut bits = Vec::new();
    for blk in seg.segment(&tb) {
        let k = blk.len();
        let d = TurboEncoder::new(k).encode(&blk).to_dstreams();
        bits.extend(RateMatcher::new(k + 4).rate_match(&d, grant.block_e(k), 0));
    }
    bits.resize(
        bits.len()
            .next_multiple_of(grant.modulation.bits_per_symbol()),
        0,
    );
    scramble_bits_serial(&mut bits, grant.c_init);
    bits
}

#[test]
fn tx_chain_matches_the_scalar_reference_composition() {
    at_every_ceiling(|_, sizes| {
        let mut tx = TxChain::default();
        let mut builder = PacketBuilder::new(4000, 4001);
        for modulation in Modulation::ALL {
            let grant = UplinkPipeline::new(PipelineConfig {
                modulation,
                ..Default::default()
            })
            .grant();
            for &size in sizes {
                let payload = payload_bits(&builder.build(Transport::Udp, size).unwrap().frame);
                tx.tx(&payload, &grant, &mut ()).unwrap();
                let want = reference_scrambled_bits(&payload, &grant);
                assert_eq!(tx.bits, want, "{size} B {}", modulation.name());
                let samples = OfdmConfig::lte5mhz().modulate_stream(&modulation.modulate(&want));
                let bits = |s: &[Cplx]| -> Vec<_> {
                    s.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
                };
                assert!(
                    bits(&tx.samples) == bits(&samples),
                    "{size} B {}: samples differ from the reference's",
                    modulation.name()
                );
            }
        }
    });
}

#[test]
fn malformed_captures_are_typed_errors_never_panics() {
    at_every_ceiling(|_, _| {
        let cfg = PipelineConfig {
            modulation: Modulation::Qam64,
            snr_db: 20.0,
            ..Default::default()
        };
        let grant = UplinkPipeline::new(cfg).grant();
        let frame = PacketBuilder::new(4000, 4001)
            .build(Transport::Udp, 1400)
            .unwrap()
            .frame;
        let mut tx = TxChain::default();
        let seg = tx.tx(&payload_bits(&frame), &grant, &mut ()).unwrap();
        let mut channel = AwgnChannel::new(cfg.snr_db, 7);
        let air = channel.apply(&tx.samples);
        let good = Capture {
            samples: &air,
            n_symbols: tx.symbols.len(),
            tb_bits: seg.b,
            llr_scale: Capture::llr_scale_of(&channel),
        };
        let symbol = OfdmConfig::lte5mhz().symbol_len();

        let mut bad = vec![
            (
                "one sample short",
                Capture {
                    samples: &air[..air.len() - 1],
                    ..good
                },
            ),
            (
                "one OFDM symbol short",
                Capture {
                    samples: &air[..air.len() - symbol],
                    ..good
                },
            ),
            (
                "half the samples",
                Capture {
                    samples: &air[..air.len() / 2],
                    ..good
                },
            ),
            (
                "no samples",
                Capture {
                    samples: &[],
                    ..good
                },
            ),
            (
                "one symbol fewer",
                Capture {
                    n_symbols: good.n_symbols - 1,
                    ..good
                },
            ),
            (
                "one symbol more",
                Capture {
                    n_symbols: good.n_symbols + 1,
                    ..good
                },
            ),
            (
                "no symbols",
                Capture {
                    n_symbols: 0,
                    ..good
                },
            ),
        ];
        for tb_bits in [
            0,
            23,
            24,
            good.tb_bits - 8,
            good.tb_bits + 8,
            1_000_000,
            usize::MAX,
        ] {
            bad.push(("wrong transport-block size", Capture { tb_bits, ..good }));
        }

        let mut rx = RxChain::new(cfg.profile, cfg.decoder_iterations);
        for (what, cap) in bad {
            let got = rx.rx(&cap, &grant, &mut ());
            assert!(
                got.is_err(),
                "{what} (tb_bits {}, {} symbols, {} samples) was delivered: {got:?}",
                cap.tb_bits,
                cap.n_symbols,
                cap.samples.len()
            );
            let again = rx
                .rx(&good, &grant, &mut ())
                .expect("the good capture decodes");
            assert_eq!(again.sdu, frame, "after {what}");
        }
    });
}
