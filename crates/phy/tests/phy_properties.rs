//! Property-based tests over the PHY substrate: structural invariants
//! that must hold for arbitrary inputs, not just the fixtures the unit
//! tests use.

use vran_phy::bits::{pack_msb, random_bits, unpack_msb};
use vran_phy::crc::{CRC16, CRC24A, CRC24B, CRC8};
use vran_phy::interleaver::{QppInterleaver, QPP_TABLE};
use vran_phy::llr::{bit_to_llr, llr_to_bit, InterleavedLlrs, SoftStreams, TurboLlrs};
use vran_phy::modulation::Modulation;
use vran_phy::ofdm::fft;
use vran_phy::rate_match::{PackedRateMatcher, RateMatcher};
use vran_phy::scrambler::{descramble_llrs, scramble_bits, GoldSequence};
use vran_phy::segmentation::Segmentation;
use vran_phy::turbo::{TurboDecoder, TurboEncoder};
use vran_util::proptest::prelude::*;

/// Every legal QPP size — both parities of K/8, so the single-block
/// kernel's leftover-group loops and its packed phases are each hit —
/// on noisy CRC24B-bearing input, at every ISA tier the host (or the
/// ISA ceiling) allows: with and without the CRC, the whole outcome —
/// bits, iterations, verdict and the SISO pass the block stopped on —
/// equals the scalar oracle's.
#[test]
fn native_single_block_matches_scalar_every_k() {
    use vran_phy::llr::adds16;
    use vran_phy::turbo::{DecoderIsa, NativeTurboDecoder};
    use vran_util::rng::SmallRng;
    for row in QPP_TABLE.iter() {
        let k = row.k as usize;
        let block = CRC24B.attach(&random_bits(k - 24, k as u64));
        let cw = TurboEncoder::new(k).encode(&block);
        let mut rng = SmallRng::seed_from_u64(0x5150 + k as u64);
        let soft: [Vec<i16>; 3] = cw.to_dstreams().map(|st| {
            st.iter()
                .map(|&b| adds16(bit_to_llr(b, 20), (rng.next_u64() % 61) as i16 - 30))
                .collect()
        });
        let input = TurboLlrs::from_dstreams(&soft, k);
        let oracle = TurboDecoder::new(k, 2);
        let (plain, stopped) = (
            oracle.decode(&input),
            oracle.decode_with_crc(&input, &CRC24B),
        );
        assert_eq!(plain.siso_passes, 4);
        for isa in DecoderIsa::available() {
            let native = NativeTurboDecoder::with_isa(k, 2, isa);
            assert_eq!(native.decode(&input), plain, "{} K={k}", isa.name());
            let got = native.decode_with_crc(&input, &CRC24B);
            assert_eq!(got, stopped, "with CRC24B on {} K={k}", isa.name());
        }
    }
}

/// The stop rule, stated three times, decides alike: 2 048 CRC24B-bearing
/// blocks per K across the waterfall through the scalar oracle, every
/// native tier, pair and quad launches — the same
/// `(bits, iterations_run, crc_ok, siso_passes)` from each — and the
/// sweep meets stops on every pass of the cap, odd ones included. K = 512
/// is a whole number of 16-step groups; K = 504 leaves one 8-step group
/// over, which the batch kernel and the AVX2 single-block kernel run on
/// their own. (The VM instrument meets the K = 512 blocks in `apcm`'s
/// `simd_decoder` tests.)
#[test]
fn every_decoder_stops_on_the_same_siso_pass_across_the_waterfall() {
    use vran_phy::llr::adds16;
    use vran_phy::turbo::native_batch::{NativeBatchTurboDecoder, BATCH, QUAD};
    use vran_phy::turbo::{BlockLlrs, DecoderIsa, NativeTurboDecoder};
    use vran_util::rng::SmallRng;
    const CAP: usize = 3;
    for k in [504, 512] {
        let oracle = TurboDecoder::new(k, CAP);
        let natives = DecoderIsa::available()
            .into_iter()
            .map(|isa| NativeTurboDecoder::with_isa(k, CAP, isa))
            .collect::<Vec<_>>();
        let batch = NativeBatchTurboDecoder::new(k, CAP);
        let mut stops = [0usize; 2 * CAP + 1];
        for quad in 0..512u64 {
            let blocks: [TurboLlrs; QUAD] = core::array::from_fn(|g| {
                let seed = QUAD as u64 * quad + g as u64;
                let cw = TurboEncoder::new(k).encode(&CRC24B.attach(&random_bits(k - 24, seed)));
                let mut rng = SmallRng::seed_from_u64(seed ^ 0x16);
                let noise = 16 + seed % 11;
                let soft = cw.to_dstreams().map(|st| {
                    st.iter()
                        .map(|&b| {
                            let n = (rng.next_u64() % (2 * noise + 1)) as i16 - noise as i16;
                            adds16(bit_to_llr(b, 12), n)
                        })
                        .collect()
                });
                TurboLlrs::from_dstreams(&soft, k)
            });
            let want = blocks
                .each_ref()
                .map(|b| oracle.decode_with_crc(b, &CRC24B));
            for (b, want) in blocks.iter().zip(&want) {
                stops[if want.crc_ok == Some(true) {
                    want.siso_passes
                } else {
                    0
                }] += 1;
                for native in &natives {
                    let got = native.decode_with_crc(b, &CRC24B);
                    assert_eq!(&got, want, "{}, K={k} quad {quad}", native.isa().name());
                }
            }
            let mut scratch = Default::default();
            let mut bits: [Vec<u8>; QUAD] = Default::default();
            let lanes = batch.decode_quad_lanes_into(
                blocks.each_ref().map(BlockLlrs::from_turbo),
                Some(&CRC24B),
                &mut scratch,
                &mut bits,
            );
            let outcome = want
                .each_ref()
                .map(|w| (w.iterations_run, w.crc_ok, w.siso_passes));
            for g in 0..QUAD {
                assert_eq!(
                    (&bits[g], lanes[g]),
                    (&want[g].bits, outcome[g]),
                    "K={k} quad {quad} lane {g}"
                );
            }
            for half in 0..QUAD / BATCH {
                let mut pair_bits: [Vec<u8>; BATCH] = Default::default();
                let pair = batch.decode_pair_lanes_into(
                    core::array::from_fn(|h| BlockLlrs::from_turbo(&blocks[half * BATCH + h])),
                    Some(&CRC24B),
                    &mut scratch,
                    &mut pair_bits,
                );
                for h in 0..BATCH {
                    let g = half * BATCH + h;
                    assert_eq!(
                        (&pair_bits[h], pair[h]),
                        (&want[g].bits, outcome[g]),
                        "K={k} quad {quad} pair lane {g}"
                    );
                }
            }
        }
        eprintln!("K={k} cap {CAP}: blocks by stopping pass (index 0 = never) {stops:?}");
        assert!(
            stops.iter().all(|&n| n >= 20),
            "K={k}: a stop the sweep never met: {stops:?}"
        );
    }
}

/// Every legal QPP size — both parities of K/8, so the batch kernel's
/// leftover-group code and its packed phases are each hit — on four
/// lanes: CRC24B-bearing and noisy (passes late or not at all), clean
/// (passes at once), clean with a payload bit flipped after attach
/// (decodes, never passes), and garbage. A quad launch and the two pair
/// launches over the same blocks give every lane the scalar oracle's
/// `(bits, iterations_run, crc_ok, siso_passes)`, without the CRC and
/// with it, and the single-block decoder's at every tier the host (or
/// the ISA ceiling) offers. (The zmm kernel where the host has
/// AVX-512BW, single-block decodes per lane where it does not.)
#[test]
fn native_quad_batch_matches_scalar_every_k() {
    use vran_phy::llr::adds16;
    use vran_phy::turbo::native_batch::{NativeBatchTurboDecoder, BATCH, QUAD};
    use vran_phy::turbo::{BatchScratch, BlockLlrs, DecoderIsa, NativeTurboDecoder};
    const CAP: usize = 4;
    let mut scratch = BatchScratch::new();
    for row in QPP_TABLE.iter() {
        let k = row.k as usize;
        let seed = 0x9E37_79B9 ^ k as u64;
        let mk = |s: u64| -> Vec<i16> {
            let mut x = s | 1;
            (0..k)
                .map(|_| {
                    x ^= x >> 12;
                    x ^= x << 25;
                    x ^= x >> 27;
                    (x >> 48) as i16
                })
                .collect()
        };
        let coded = |noise: i16, flip: bool, s: u64| -> TurboLlrs {
            let mut bits = CRC24B.attach(&random_bits(k - 24, s));
            bits[0] ^= u8::from(flip);
            let cw = TurboEncoder::new(k).encode(&bits);
            let mut jitter = mk(s ^ 11).into_iter();
            let soft = cw.to_dstreams().map(|st| {
                st.iter()
                    .map(|&b| {
                        let n = jitter.next().map_or(0, |j| j % (noise + 1));
                        adds16(bit_to_llr(b, 14), n)
                    })
                    .collect()
            });
            TurboLlrs::from_dstreams(&soft, k)
        };
        let garbage = TurboLlrs {
            k,
            streams: SoftStreams {
                sys: mk(seed),
                p1: mk(seed ^ 3),
                p2: mk(seed ^ 7),
            },
            tails: Default::default(),
        };
        let blocks = [
            coded(40, false, seed),
            coded(0, false, seed ^ 1),
            coded(0, true, seed ^ 2),
            garbage,
        ];
        let inputs = blocks.each_ref().map(BlockLlrs::from_turbo);
        let oracle = TurboDecoder::new(k, CAP);
        let batch = NativeBatchTurboDecoder::new(k, CAP);
        let singles: Vec<_> = DecoderIsa::available()
            .into_iter()
            .map(|isa| NativeTurboDecoder::with_isa(k, CAP, isa))
            .collect();
        for crc in [None, Some(&CRC24B)] {
            let want = blocks.each_ref().map(|b| {
                let w = crc.map_or_else(|| oracle.decode(b), |c| oracle.decode_with_crc(b, c));
                (w.bits, (w.iterations_run, w.crc_ok, w.siso_passes))
            });
            let mut bits: [Vec<u8>; QUAD] = Default::default();
            let lanes = batch.decode_quad_lanes_into(inputs, crc, &mut scratch, &mut bits);
            for g in 0..QUAD {
                let got = (&bits[g], lanes[g]);
                assert_eq!(got, (&want[g].0, want[g].1), "K={k} {crc:?} quad lane {g}");
            }
            for half in 0..QUAD / BATCH {
                let mut bits: [Vec<u8>; BATCH] = Default::default();
                let pair = core::array::from_fn(|h| inputs[half * BATCH + h]);
                let lanes = batch.decode_pair_lanes_into(pair, crc, &mut scratch, &mut bits);
                for h in 0..BATCH {
                    let (got, want) = ((&bits[h], lanes[h]), &want[half * BATCH + h]);
                    assert_eq!(
                        got,
                        (&want.0, want.1),
                        "K={k} {crc:?} pair lane {h} of {half}"
                    );
                }
            }
            for single in &singles {
                for (b, w) in blocks.iter().zip(&want) {
                    let got =
                        crc.map_or_else(|| single.decode(b), |c| single.decode_with_crc(b, c));
                    let got = (&got.bits, (got.iterations_run, got.crc_ok, got.siso_passes));
                    let isa = single.isa().name();
                    assert_eq!(got, (&w.0, w.1), "K={k} {crc:?} single block on {isa}");
                }
            }
        }
    }
}

fn bits_strategy(n: usize) -> impl Strategy<Value = Vec<u8>> {
    prop::collection::vec(0u8..2, n)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn pack_unpack_identity(bits in prop::collection::vec(0u8..2, 0..256)) {
        let n = bits.len();
        prop_assert_eq!(unpack_msb(&pack_msb(&bits), n), bits);
    }

    #[test]
    fn crc_linearity(a in bits_strategy(96), b in bits_strategy(96)) {
        // CRC over GF(2) is linear: crc(a ⊕ b) = crc(a) ⊕ crc(b)
        for crc in [CRC24A, CRC24B, CRC16, CRC8] {
            let ca = crc.compute(&a);
            let cb = crc.compute(&b);
            let ab: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
            let cab = crc.compute(&ab);
            let xor: Vec<u8> = ca.iter().zip(&cb).map(|(x, y)| x ^ y).collect();
            prop_assert_eq!(cab, xor);
        }
    }

    #[test]
    fn crc_detects_any_single_flip(bits in bits_strategy(80), pos in 0usize..104) {
        let coded = CRC24A.attach(&bits);
        let mut bad = coded.clone();
        bad[pos % coded.len()] ^= 1;
        prop_assert!(CRC24A.check(&bad).is_none());
    }

    #[test]
    fn qpp_interleave_roundtrip(k_idx in 0usize..188, seed in any::<u64>()) {
        let k = QPP_TABLE[k_idx].k as usize;
        let il = QppInterleaver::new(k);
        let data = random_bits(k, seed);
        prop_assert_eq!(il.deinterleave(&il.interleave(&data)), data.clone());
        prop_assert_eq!(il.interleave(&il.deinterleave(&data)), data);
    }

    #[test]
    fn scrambling_involution(bits in bits_strategy(200), c_init in 1u32..0x7FFF_FFFF) {
        let mut b = bits.clone();
        scramble_bits(&mut b, c_init);
        scramble_bits(&mut b, c_init);
        prop_assert_eq!(b, bits);
    }

    #[test]
    fn llr_descramble_consistent_with_bit_scramble(bits in bits_strategy(150), c_init in 1u32..1_000_000) {
        let mut tx = bits.clone();
        scramble_bits(&mut tx, c_init);
        let mut llrs: Vec<i16> = tx.iter().map(|&b| bit_to_llr(b, 90)).collect();
        descramble_llrs(&mut llrs, c_init);
        let rx: Vec<u8> = llrs.iter().map(|&l| llr_to_bit(l)).collect();
        prop_assert_eq!(rx, bits);
    }

    #[test]
    fn gold_sequences_differ_across_inits(a in 1u32..1_000_000, b in 1u32..1_000_000) {
        prop_assume!(a != b);
        prop_assert_ne!(GoldSequence::new(a).take(128), GoldSequence::new(b).take(128));
    }

    #[test]
    fn modulation_roundtrip_all_orders(seed in any::<u64>(), m_idx in 0usize..3) {
        let m = Modulation::ALL[m_idx];
        let bits = random_bits(m.bits_per_symbol() * 64, seed);
        let syms = m.modulate(&bits);
        let rx: Vec<u8> = m.demodulate(&syms, 1.0).iter().map(|&l| llr_to_bit(l)).collect();
        prop_assert_eq!(rx, bits);
    }

    #[test]
    fn fft_linearity(seed in any::<u64>()) {
        use vran_phy::modulation::Cplx;
        let n = 64;
        let mk = |s: u64| -> Vec<Cplx> {
            let b = random_bits(2 * n, s);
            (0..n).map(|i| Cplx::new(b[2 * i] as f32 - 0.5, b[2 * i + 1] as f32 - 0.5)).collect()
        };
        let (a, b) = (mk(seed), mk(seed ^ 0xABCD));
        let sum: Vec<Cplx> = a.iter().zip(&b).map(|(x, y)| x.add(*y)).collect();
        let f = |mut v: Vec<Cplx>| {
            fft(&mut v, false);
            v
        };
        let (fa, fb, fs) = (f(a), f(b), f(sum));
        for i in 0..n {
            let lin = fa[i].add(fb[i]);
            prop_assert!(lin.sub(fs[i]).norm_sq() < 1e-4, "nonlinear at bin {i}");
        }
    }

    #[test]
    fn rate_match_full_rate_roundtrip(k_idx in 0usize..30, seed in any::<u64>()) {
        // At e == number of real bits with rv 0, de-rate-matching the
        // hard-decision LLRs recovers every d-stream exactly.
        let k = QPP_TABLE[k_idx].k as usize;
        let d = k + 4;
        let rm = RateMatcher::new(d);
        let streams = [random_bits(d, seed), random_bits(d, seed ^ 1), random_bits(d, seed ^ 2)];
        let tx = rm.rate_match(&streams, 3 * d, 0);
        let llrs: Vec<i16> = tx.iter().map(|&b| bit_to_llr(b, 70)).collect();
        let rx = rm.de_rate_match(&llrs, 0);
        for (s, got) in streams.iter().zip(&rx) {
            let hard: Vec<u8> = got.iter().map(|&l| llr_to_bit(l)).collect();
            prop_assert_eq!(&hard, s);
            prop_assert!(got.iter().all(|&l| l != 0), "every position must be filled");
        }
    }

    #[test]
    fn segmentation_roundtrip(extra in 1usize..4000, mult in 1usize..8) {
        let b = extra + mult * 3000;
        let bits = random_bits(b, (b as u64) | 1);
        let seg = Segmentation::plan(b);
        let blocks = seg.segment(&bits);
        prop_assert_eq!(blocks.len(), seg.c);
        prop_assert_eq!(seg.desegment(&blocks), Some(bits));
    }

    #[test]
    fn turbo_noiseless_roundtrip_any_small_k(k_idx in 0usize..12, seed in any::<u64>()) {
        let k = QPP_TABLE[k_idx].k as usize;
        let bits = random_bits(k, seed);
        let cw = TurboEncoder::new(k).encode(&bits);
        let d = cw.to_dstreams();
        let soft: [Vec<i16>; 3] = d
            .iter()
            .map(|s| s.iter().map(|&b| bit_to_llr(b, 60)).collect())
            .collect::<Vec<_>>()
            .try_into()
            .unwrap();
        let input = TurboLlrs::from_dstreams(&soft, k);
        let out = TurboDecoder::new(k, 4).decode(&input);
        prop_assert_eq!(out.bits, bits);
    }

    #[test]
    fn decoder_never_panics_on_garbage(seed in any::<u64>(), k_idx in 0usize..8) {
        // Arbitrary (even adversarial) LLR input must produce a
        // well-formed outcome, never a panic or wrong-length output.
        let k = QPP_TABLE[k_idx].k as usize;
        let mk = |s: u64| -> Vec<i16> {
            let mut x = s | 1;
            (0..k)
                .map(|_| {
                    x ^= x >> 12;
                    x ^= x << 25;
                    x ^= x >> 27;
                    (x >> 48) as i16
                })
                .collect()
        };
        let input = TurboLlrs {
            k,
            streams: SoftStreams { sys: mk(seed), p1: mk(seed ^ 1), p2: mk(seed ^ 2) },
            tails: Default::default(),
        };
        let out = TurboDecoder::new(k, 2).decode(&input);
        prop_assert_eq!(out.bits.len(), k);
        prop_assert_eq!(out.iterations_run, 2);
    }

    #[test]
    fn native_decoder_matches_scalar_on_garbage(seed in any::<u64>(), k_idx in 0usize..8) {
        // Every runtime-dispatched native ISA level must be bit-exact
        // with the scalar oracle, including on saturating inputs.
        use vran_phy::turbo::{DecoderIsa, NativeTurboDecoder};
        let k = QPP_TABLE[k_idx].k as usize;
        let mk = |s: u64| -> Vec<i16> {
            let mut x = s | 1;
            (0..k)
                .map(|_| {
                    x ^= x >> 12;
                    x ^= x << 25;
                    x ^= x >> 27;
                    (x >> 48) as i16
                })
                .collect()
        };
        let input = TurboLlrs {
            k,
            streams: SoftStreams { sys: mk(seed), p1: mk(seed ^ 3), p2: mk(seed ^ 7) },
            tails: Default::default(),
        };
        let oracle = TurboDecoder::new(k, 2).decode(&input);
        for isa in DecoderIsa::available() {
            let native = NativeTurboDecoder::with_isa(k, 2, isa).decode(&input);
            prop_assert_eq!(&native.bits, &oracle.bits, "ISA {} diverged", isa.name());
        }
    }

    #[test]
    fn native_batch_matches_scalar_on_garbage(seed in any::<u64>(), k_idx in 0usize..8) {
        // A pair launch decodes both lanes bit-exactly.
        use vran_phy::turbo::NativeBatchTurboDecoder;
        let k = QPP_TABLE[k_idx].k as usize;
        let mk = |s: u64| -> Vec<i16> {
            let mut x = s | 1;
            (0..k)
                .map(|_| {
                    x ^= x >> 12;
                    x ^= x << 25;
                    x ^= x >> 27;
                    (x >> 48) as i16
                })
                .collect()
        };
        let block = |s: u64| TurboLlrs {
            k,
            streams: SoftStreams { sys: mk(s), p1: mk(s ^ 3), p2: mk(s ^ 7) },
            tails: Default::default(),
        };
        let pair = [block(seed), block(seed ^ 0x9E37)];
        let dec = TurboDecoder::new(k, 2);
        let got = NativeBatchTurboDecoder::new(k, 2).decode_pair(&pair);
        for (g, input) in got.iter().zip(&pair) {
            prop_assert_eq!(&g.bits, &dec.decode(input).bits);
        }
    }

    #[test]
    fn viterbi_never_panics_on_garbage(seed in any::<u64>(), n in 8usize..64) {
        use vran_phy::dci::viterbi_decode_tb;
        let mut x = seed | 1;
        let llrs: Vec<i16> = (0..3 * n)
            .map(|_| {
                x ^= x >> 12;
                x ^= x << 25;
                x ^= x >> 27;
                (x >> 48) as i16
            })
            .collect();
        let out = viterbi_decode_tb(&llrs, n);
        prop_assert_eq!(out.len(), n);
        prop_assert!(out.iter().all(|&b| b <= 1));
    }

    #[test]
    fn packed_encoder_matches_scalar_oracle_every_k(k_idx in 0usize..188, seed in any::<u64>()) {
        // The packed-word encoder must be bit-exact with the per-bit
        // trellis walk for every legal QPP size at every ISA level the
        // host dispatches to (word64 always; SSE2/AVX2/AVX-512 where
        // present).
        use vran_phy::turbo::{EncoderIsa, PackedTurboEncoder};
        let k = QPP_TABLE[k_idx].k as usize;
        let bits = random_bits(k, seed);
        let oracle = TurboEncoder::new(k).encode(&bits);
        for isa in EncoderIsa::available() {
            let got = PackedTurboEncoder::with_isa(k, isa).encode(&bits);
            prop_assert_eq!(&got, &oracle, "ISA {} diverged at K={}", isa.name(), k);
        }
    }

    #[test]
    fn packed_rate_match_matches_scalar_every_k(
        k_idx in 0usize..188,
        seed in any::<u64>(),
        e_sel in 0usize..4,
        rv in 0usize..4,
    ) {
        // The word-at-a-time readout must reproduce the per-bit
        // selection loop across puncturing, exact coverage and
        // multi-wrap repetition at every redundancy version.
        use vran_phy::bits::packed_lsb_words;
        let k = QPP_TABLE[k_idx].k as usize;
        let d = k + 4;
        let streams = [random_bits(d, seed), random_bits(d, seed ^ 1), random_bits(d, seed ^ 2)];
        let words = streams.clone().map(|s| packed_lsb_words(&s));
        let e = [k / 2 + 1, k, 3 * d, 3 * d + 65][e_sel];
        let want = RateMatcher::new(d).rate_match(&streams, e, rv);
        let got = PackedRateMatcher::new(d)
            .rate_match_packed([&words[0], &words[1], &words[2]], e, rv);
        prop_assert_eq!(got, want, "d={} e={} rv={}", d, e, rv);
    }

    #[test]
    fn interleaved_llrs_roundtrip(k in 1usize..300, seed in any::<u64>()) {
        let vals = random_bits(3 * k, seed);
        let s = SoftStreams {
            sys: vals[..k].iter().map(|&b| b as i16 * 7 - 3).collect(),
            p1: vals[k..2 * k].iter().map(|&b| b as i16 * 11 - 5).collect(),
            p2: vals[2 * k..].iter().map(|&b| b as i16 * 13 - 6).collect(),
        };
        let il = InterleavedLlrs::from_streams(&s);
        prop_assert_eq!(il.deinterleave_scalar(), s);
    }
}
