//! The `frontend_exactness` sweep: every native front-end SIMD entry
//! point (fixed-point demap, word-parallel scramble / descramble,
//! sliced/folded CRC, row-wise de-rate-match, and the bit plane: the
//! mapper and the packers / unpackers on `vran_phy::bits`' expand and
//! compress) vs its scalar oracle across **all 188** TS 36.212 block
//! sizes and **every** host-ISA tier.
//!
//! The uplink pipeline makes the SIMD front end the default path on
//! the strength of this sweep (see `PipelineConfig::frontend_simd`):
//! whatever K the segmenter picks, whatever modulation the grant
//! carries and whatever tier the dispatcher lands on, each kernel must
//! reproduce its scalar reference bit for bit — including ragged
//! non-vector tails, saturation corners and non-byte-multiple CRC bit
//! lengths.
//!
//! Lives in its own integration-test binary because the ISA ceiling is
//! process-global; a single `#[test]` loops the tiers (and the four
//! kernel families inside each tier) so masked regions never overlap —
//! the harness would otherwise run per-kernel tests on concurrent
//! threads and race on the ceiling. The transmit arrangement's sweep is
//! a second `#[test]` (`packed_*`, the name CI's transmit-side filter
//! selects); the two take [`CEILING_LOCK`] in turn.

use vran_phy::bits::{
    compress_bits, expand_bits, extend_bits_from_words, gather_bits, pack_lsb_words, pack_msb,
    unpack_lsb_words, unpack_msb,
};
use vran_phy::crc::{available_crc, best_crc, has_pclmul, CrcImpl, CRC16, CRC24A, CRC24B, CRC8};
use vran_phy::demap::{available_demap, best_demap, demap_with, DemapImpl};
use vran_phy::interleaver::{QppInterleaver, QPP_TABLE};
use vran_phy::llr::Llr;
use vran_phy::modulation::{Cplx, Modulation};
use vran_phy::rate_match::{PackedRateMatcher, RateMatcher};
use vran_phy::scrambler::{
    available_descramble, best_descramble, descramble_llrs, descramble_llrs_with, scramble_bits,
    scramble_bits_serial, DescrambleImpl,
};
use vran_phy::turbo::{EncodeScratch, PackedTurboEncoder, TurboEncoder};
use vran_simd::host::{self, set_isa_ceiling, HostIsa};
use vran_util::rng::SmallRng;

/// The two tests of this binary must not overlap their ceilings.
static CEILING_LOCK: std::sync::Mutex<()> = std::sync::Mutex::new(());

/// All 188 standard code-block sizes, the registry that drives every
/// sweep below.
fn all_k() -> Vec<usize> {
    let ks: Vec<usize> = QPP_TABLE.iter().map(|r| r.k as usize).collect();
    assert_eq!(ks.len(), 188, "the registry drives the sweep");
    ks
}

/// The demap tier `best_demap` must pick under each ceiling (when the
/// host itself is capable enough to reach it).
fn expected_best_demap(ceiling: HostIsa) -> DemapImpl {
    match ceiling {
        HostIsa::Scalar => DemapImpl::Scalar,
        HostIsa::Sse2 | HostIsa::Ssse3 => DemapImpl::Sse2,
        HostIsa::Avx2 => DemapImpl::Avx2,
        HostIsa::Avx512bw => DemapImpl::Avx512bw,
    }
}

fn expected_best_descramble(ceiling: HostIsa) -> DescrambleImpl {
    match ceiling {
        HostIsa::Scalar => DescrambleImpl::ScalarWord,
        HostIsa::Sse2 | HostIsa::Ssse3 => DescrambleImpl::Sse2,
        HostIsa::Avx2 => DescrambleImpl::Avx2,
        HostIsa::Avx512bw => DescrambleImpl::Avx512bw,
    }
}

/// CRC tier expectation: clmul needs the Ssse3 ceiling *and* the
/// orthogonal PCLMULQDQ probe; sliced8 is the scalar-ISA best.
fn expected_best_crc(ceiling: HostIsa) -> CrcImpl {
    if ceiling >= HostIsa::Ssse3 && has_pclmul() {
        CrcImpl::ClmulFold
    } else {
        CrcImpl::Sliced8
    }
}

/// Received symbols for a K-sized code block at modulation `m`: the
/// rate-matched length padded to whole symbols, with Gaussian-ish
/// perturbed constellation points so every axis magnitude region of
/// the 16/64-QAM ladders is populated.
fn rx_symbols(k: usize, m: Modulation, rng: &mut SmallRng) -> Vec<Cplx> {
    let e = (3 * (k + 4) * 2).min(2 * k + 12);
    let n = e.div_ceil(m.bits_per_symbol());
    (0..n)
        .map(|_| Cplx {
            re: rng.gen_range_f32(-9.0, 9.0),
            im: rng.gen_range_f32(-9.0, 9.0),
        })
        .collect()
}

#[test]
fn all_frontend_kernels_bit_exact_at_every_isa_tier_all_188_k() {
    let _ceiling = CEILING_LOCK.lock().unwrap();
    demap_sweep();
    descramble_sweep();
    crc_sweep();
    de_rate_match_sweep();
    mapper_sweep();
    bit_pack_sweep();
}

fn demap_sweep() {
    let mut rng = SmallRng::seed_from_u64(0xDE3A_9001);
    // Inputs generated once, per (K, modulation), reused under every
    // ceiling so any cross-tier mismatch is attributable to the kernel
    // alone.
    let cases: Vec<(usize, Modulation, Vec<Cplx>, f32)> = all_k()
        .into_iter()
        .enumerate()
        .flat_map(|(i, k)| {
            let scales = [0.25, 1.0, 3.7, 16.0];
            [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64].map(|m| {
                let syms = rx_symbols(k, m, &mut rng);
                (k, m, syms, scales[i % scales.len()])
            })
        })
        .collect();

    for ceiling in HostIsa::all() {
        set_isa_ceiling(Some(ceiling));
        let best = best_demap();
        if vran_simd::host::has(expected_best_demap(ceiling).required_isa()) {
            assert_eq!(
                best,
                expected_best_demap(ceiling),
                "ceiling {}",
                ceiling.name()
            );
        }
        assert!(available_demap().contains(&best));

        for (k, m, syms, ns) in &cases {
            let expect = demap_with(DemapImpl::Scalar, *m, syms, *ns);
            for imp in available_demap() {
                assert_eq!(
                    demap_with(imp, *m, syms, *ns),
                    expect,
                    "K={k} {:?} ns={ns} {} under {} ceiling",
                    m,
                    imp.name(),
                    ceiling.name()
                );
            }
        }
    }
    set_isa_ceiling(None);
}

fn descramble_sweep() {
    let mut rng = SmallRng::seed_from_u64(0xDE3A_9002);
    // LLR length = the padded coded length a K-block feeds the
    // descrambler (always ≥ one SIMD block and usually a ragged tail);
    // c_init drawn per case across the full 31-bit range, plus
    // saturation-corner LLR values seeded into every buffer.
    // Ahead of them, the lengths around a mask word, around the 31
    // seed words of the word recurrence and around a whole kilobit.
    let cases: Vec<(usize, Vec<Llr>, u32)> = [0, 31, 32, 33, 991, 992, 993, 1023, 1024]
        .into_iter()
        .map(|n| (0, n))
        .chain(all_k().into_iter().map(|k| {
            let n = (3 * (k + 4) * 2).min(2 * k + 12).next_multiple_of(4);
            (k, n)
        }))
        .map(|(k, n)| {
            let mut llrs: Vec<Llr> = (0..n).map(|_| rng.next_u32() as i16).collect();
            if n > 0 {
                llrs[0] = i16::MIN;
                llrs[n / 2] = i16::MAX;
            }
            (k, llrs, rng.next_u32() & 0x7FFF_FFFF)
        })
        .collect();

    for ceiling in HostIsa::all() {
        set_isa_ceiling(Some(ceiling));
        let best = best_descramble();
        if vran_simd::host::has(expected_best_descramble(ceiling).required_isa()) {
            assert_eq!(
                best,
                expected_best_descramble(ceiling),
                "ceiling {}",
                ceiling.name()
            );
        }
        assert!(available_descramble().contains(&best));

        for (k, llrs, c_init) in &cases {
            let mut expect = llrs.clone();
            descramble_llrs(&mut expect, *c_init);
            for imp in available_descramble() {
                let mut got = llrs.clone();
                descramble_llrs_with(imp, &mut got, *c_init);
                assert_eq!(
                    got,
                    expect,
                    "K={k} c_init={c_init:#x} {} under {} ceiling",
                    imp.name(),
                    ceiling.name()
                );
            }
            // The transmit side over the same lengths: the LLRs' low
            // bytes as "bits", so what is XORed into is not only {0,1}
            // (`2 ^ 1 = 3` on both sides).
            let bits: Vec<u8> = llrs.iter().map(|&l| l as u8 & 3).collect();
            let (mut got, mut expect) = (bits.clone(), bits);
            scramble_bits(&mut got, *c_init);
            scramble_bits_serial(&mut expect, *c_init);
            assert_eq!(
                got,
                expect,
                "scramble n={} c_init={c_init:#x} under {} ceiling",
                llrs.len(),
                ceiling.name()
            );
        }
    }
    set_isa_ceiling(None);
}

fn crc_sweep() {
    let mut rng = SmallRng::seed_from_u64(0xDE3A_9003);
    // Bit lengths a CRC actually sees in the pipeline: the K-sized
    // block (check side), K+24 (attach side), and deliberately
    // non-byte-multiple lengths to exercise the ragged bit tail of the
    // packed adapter.
    let cases: Vec<Vec<u8>> = all_k()
        .into_iter()
        .flat_map(|k| [k, k + 24, k + 5, k.saturating_sub(3)])
        .map(|bits| (0..bits).map(|_| (rng.next_u32() & 1) as u8).collect())
        .collect();

    for ceiling in HostIsa::all() {
        set_isa_ceiling(Some(ceiling));
        let best = best_crc();
        assert_eq!(
            best,
            expected_best_crc(ceiling),
            "ceiling {}",
            ceiling.name()
        );
        assert!(available_crc().contains(&best));

        for bits in &cases {
            for crc in [CRC24A, CRC24B, CRC16, CRC8] {
                let expect = crc.compute_with(CrcImpl::BitSerial, bits);
                for imp in available_crc() {
                    assert_eq!(
                        crc.compute_with(imp, bits),
                        expect,
                        "len={} width={} {} under {} ceiling",
                        bits.len(),
                        crc.width(),
                        imp.name(),
                        ceiling.name()
                    );
                }
            }
        }
    }
    set_isa_ceiling(None);
}

/// The interleaved (row-wise) de-rate-matcher has two arms behind
/// `host::has(Avx512bw)` and no `*_with` entry point, so the ceiling is
/// what reaches the scalar-rows arm on an AVX-512 host. Oracle: the
/// per-stream table walk, which never dispatches.
fn de_rate_match_sweep() {
    let mut rng = SmallRng::seed_from_u64(0xDE3A_9004);
    // Per K: the workloads' E = 2K (punctured) and a 2×-repetition
    // E = 6d + 7 (every position combined, some three times), full
    // 16-bit LLRs so the combining saturates.
    let cases: Vec<(usize, RateMatcher, [Vec<Llr>; 2])> = all_k()
        .into_iter()
        .map(|k| {
            let llrs = [2 * k, 6 * (k + 4) + 7]
                .map(|e| (0..e).map(|_| rng.next_u32() as i16).collect::<Vec<Llr>>());
            (k, RateMatcher::new(k + 4), llrs)
        })
        .collect();
    let (mut per_stream, mut got) = ([Vec::new(), Vec::new(), Vec::new()], Vec::new());
    for ceiling in HostIsa::all() {
        set_isa_ceiling(Some(ceiling));
        for (k, rm, llrs) in &cases {
            for l in llrs {
                for rv in 0..4 {
                    rm.try_de_rate_match_into(l, rv, &mut per_stream).unwrap();
                    let expect: Vec<Llr> =
                        (0..3 * (k + 4)).map(|i| per_stream[i % 3][i / 3]).collect();
                    rm.try_de_rate_match_interleaved_into(l, rv, &mut got)
                        .unwrap();
                    assert_eq!(
                        got,
                        expect,
                        "K={k} E={} rv={rv} under {} ceiling",
                        l.len(),
                        ceiling.name()
                    );
                }
            }
        }
    }
    set_isa_ceiling(None);
}

/// `v` ending flush with an allocation it starts `offset` bytes into.
fn flush(v: &[u8], offset: usize) -> Vec<u8> {
    [&vec![0; offset], v].concat()
}

/// The mapper has no `*_with` entry point either: the ceiling picks the
/// compress tier under it. Oracle: the fold it replaced — a most-
/// significant-bit-first index into the `2^bps` points, each taken
/// from a one-symbol call (the unit tests hold those to the per-axis
/// expression of TS 36.211) — over inputs whose ones are any non-zero
/// byte, at every byte misalignment, ending flush with the allocation.
fn mapper_sweep() {
    let mut rng = SmallRng::seed_from_u64(0xDE3A_9005);
    let ones = [1u8, 1, 1, 1, 1, 2, 0x80, 0xFF];
    let bits: Vec<u8> = (0..6 * 3800)
        .map(|_| match rng.next_u32() % 16 {
            i @ 0..8 => ones[i as usize],
            _ => 0,
        })
        .collect();
    let tables = Modulation::ALL.map(|m| {
        let bps = m.bits_per_symbol();
        (0..1u8 << bps)
            .map(|v| {
                let c: Vec<u8> = (0..bps).map(|j| (v >> (bps - 1 - j)) & 1).collect();
                m.modulate(&c)[0]
            })
            .collect::<Vec<Cplx>>()
    });
    let to_bits = |s: &[Cplx]| -> Vec<(u32, u32)> {
        s.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    };
    for ceiling in HostIsa::all() {
        set_isa_ceiling(Some(ceiling));
        for (m, table) in Modulation::ALL.into_iter().zip(&tables) {
            let bps = m.bits_per_symbol();
            for symbols in [0, 1, 9, 10, 11, 63, 64, 65, 3799, 3800] {
                let bits = &bits[..bps * symbols];
                let expect: Vec<Cplx> = bits
                    .chunks_exact(bps)
                    .map(|c| table[c.iter().fold(0, |v, &b| v << 1 | usize::from(b != 0))])
                    .collect();
                for offset in 0..64 {
                    let buf = flush(bits, offset);
                    assert_eq!(
                        to_bits(&m.modulate(&buf[offset..])),
                        to_bits(&expect),
                        "{} symbols={symbols} offset={offset} under {} ceiling",
                        m.name(),
                        ceiling.name()
                    );
                }
            }
        }
    }
    set_isa_ceiling(None);
}

/// The packers and unpackers, and the two primitives under them, vs
/// one-bit-per-iteration loops at every `n mod 64` (twice over, and at
/// a packet's length) and every byte misalignment of the bit buffer.
fn bit_pack_sweep() {
    let mut rng = SmallRng::seed_from_u64(0xDE3A_9006);
    let lengths: Vec<usize> = (0..=130).chain([11_439, 11_440]).collect();
    let bits: Vec<u8> = (0..11_440).map(|_| (rng.next_u32() & 1) as u8).collect();
    // bytes a compress by `!= 0` and one by the low bit read differently
    let odd: Vec<u8> = (0..11_440)
        .map(|_| [0, 1, 2, 0x80, 0xFF][rng.next_u32() as usize % 5])
        .collect();
    for ceiling in HostIsa::all() {
        set_isa_ceiling(Some(ceiling));
        for &n in &lengths {
            let at = format!("n={n} under {} ceiling", ceiling.name());
            let mut msb = vec![0u8; n.div_ceil(8)];
            let mut lsb = vec![0u64; n.div_ceil(64)];
            let (mut nonzero, mut low) = (lsb.clone(), lsb.clone());
            for i in 0..n {
                msb[i / 8] |= bits[i] << (7 - i % 8);
                lsb[i / 64] |= u64::from(bits[i]) << (i % 64);
                nonzero[i / 64] |= u64::from(odd[i] != 0) << (i % 64);
                low[i / 64] |= u64::from(odd[i] & 1) << (i % 64);
            }
            for offset in [0, 1, 7, 33, 63] {
                let buf = flush(&bits[..n], offset);
                assert_eq!(pack_msb(&buf[offset..]), msb, "pack_msb {at}");
                let mut got = vec![!0; lsb.len()];
                pack_lsb_words(&buf[offset..], &mut got);
                assert_eq!(got, lsb, "pack_lsb_words {at}");
                let buf = flush(&odd[..n], offset);
                compress_bits(&buf[offset..], 0xFF, &mut got);
                assert_eq!(got, nonzero, "compress_bits != 0 {at}");
                compress_bits(&buf[offset..], 1, &mut got);
                assert_eq!(got, low, "compress_bits low bit {at}");
                // the unpackers, into a buffer that starts `offset` in
                // and must be left alone below it
                let mut out = vec![9; offset];
                extend_bits_from_words(&lsb, n, &mut out);
                assert_eq!(out[offset..], bits[..n], "extend_bits_from_words {at}");
                out[offset..].fill(7);
                expand_bits(&lsb, &mut out[offset..]);
                assert_eq!(out[offset..], bits[..n], "expand_bits {at}");
                assert!(out[..offset].iter().all(|&b| b == 9), "underwrite {at}");
            }
            assert_eq!(unpack_msb(&msb, n), bits[..n], "unpack_msb {at}");
            assert_eq!(
                unpack_lsb_words(&lsb, n),
                bits[..n],
                "unpack_lsb_words {at}"
            );
        }
    }
    set_isa_ceiling(None);
}

/// The transmit arrangement — `pack_circular_into`'s transposes, its
/// readout and the encoder's interleaved gather — has no `*_with` entry
/// point: the ceiling reaches the AVX2 gather and the portable forms on
/// an AVX-512 host. Oracles: the scalar `RateMatcher`'s table walk, a
/// `pi_table` walk over the block's bytes and the scalar `TurboEncoder`,
/// which never dispatch.
/// Every `d = K + 4`, and the lengths around a row and a word that no
/// `K` gives (one row with padding, no padding at all); every input and
/// output ends flush with its allocation.
#[test]
fn packed_transmit_arrangement_bit_exact_at_every_ceiling_all_188_k() {
    let _ceiling = CEILING_LOCK.lock().unwrap();
    let mut rng = SmallRng::seed_from_u64(0xDE3A_9007);
    let mut bits = |n: usize| -> Vec<u8> { (0..n).map(|_| (rng.next_u32() & 1) as u8).collect() };
    let flush_words = |bits: &[u8]| -> Vec<u64> {
        let mut w = vec![0; bits.len().div_ceil(64)];
        pack_lsb_words(bits, &mut w);
        assert_eq!(w.len(), w.capacity());
        w
    };

    // (d, streams, per (rv, e) the scalar readout)
    type RmCase = (usize, [Vec<u64>; 3], Vec<(usize, usize, Vec<u8>)>);
    let rm_cases: Vec<RmCase> = all_k()
        .into_iter()
        .map(|k| k + 4)
        .chain([4, 20, 31, 32, 33, 64, 96, 6144])
        .map(|d| {
            let streams = [bits(d), bits(d), bits(d)];
            let rm = RateMatcher::new(d);
            let expect = (0..4)
                .flat_map(|rv| [1, 63, 64, 65, d, 3 * d, 3 * d + 17, 7 * d].map(|e| (rv, e)))
                .map(|(rv, e)| (rv, e, rm.rate_match(&streams, e, rv)))
                .collect();
            let words = [0, 1, 2].map(|s| flush_words(&streams[s]));
            (d, words, expect)
        })
        .collect();
    // (K, block, its interleaved words by a `pi_table` walk, d-streams)
    type EncCase = (usize, Vec<u8>, Vec<u64>, [Vec<u8>; 3]);
    let enc_cases: Vec<EncCase> = all_k()
        .into_iter()
        .map(|k| {
            let block = bits(k);
            let il = QppInterleaver::new(k);
            let walk: Vec<u8> = il.pi_table().iter().map(|&p| block[p as usize]).collect();
            let expect = TurboEncoder::new(k).encode(&block).to_dstreams();
            (k, block, flush_words(&walk), expect)
        })
        .collect();

    for ceiling in [None, Some(HostIsa::Avx2), Some(HostIsa::Scalar)] {
        set_isa_ceiling(ceiling);
        let under = ceiling.map_or("no", HostIsa::name);
        let rung = [HostIsa::Avx512bw, HostIsa::Avx2]
            .into_iter()
            .find(|&isa| host::has(isa))
            .map_or("portable", HostIsa::name);
        println!("packed gather rung under {under} ceiling: {rung}");

        for (d, words, expect) in &rm_cases {
            let rm = PackedRateMatcher::new(*d);
            let mut w = Vec::with_capacity((3 * d).div_ceil(64));
            rm.pack_circular_into([&words[0], &words[1], &words[2]], &mut w)
                .unwrap();
            assert_eq!(w.len(), w.capacity(), "d={d}: w is flush");
            for (rv, e, want) in expect {
                let mut out = Vec::with_capacity(e.div_ceil(64));
                rm.try_rate_match_packed_into(&w, *e, *rv, &mut out)
                    .unwrap();
                assert_eq!(out.len(), out.capacity(), "d={d} e={e}: out is flush");
                assert_eq!(
                    unpack_lsb_words(&out, *e),
                    *want,
                    "d={d} rv={rv} e={e} under {under} ceiling"
                );
            }
        }
        // an index past `src` reads its last 32 bits, on every tier
        let mut past = [0; 2];
        gather_bits(&[u32::MAX; 128], &[1 << 63], &mut past);
        assert_eq!(past, [!0; 2], "clamped gather under {under} ceiling");
        let mut scratch = EncodeScratch::new();
        for (k, block, walk, expect) in &enc_cases {
            let enc = PackedTurboEncoder::new(*k);
            let mut got = vec![!0; walk.len()];
            gather_bits(enc.interleaver().pi_table(), &flush_words(block), &mut got);
            assert_eq!(got, *walk, "gather_bits K={k} under {under} ceiling");
            enc.encode_dstreams_into(block, &mut scratch);
            for (s, (got, want)) in scratch.dstream_words().into_iter().zip(expect).enumerate() {
                assert_eq!(
                    unpack_lsb_words(got, k + 4),
                    *want,
                    "K={k} d({s}) under {under} ceiling"
                );
            }
        }
    }
    set_isa_ceiling(None);
}
