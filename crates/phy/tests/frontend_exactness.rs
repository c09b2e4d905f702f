//! The `frontend_exactness` sweep: every native front-end SIMD entry
//! point (fixed-point demap, word-parallel descramble, sliced/folded
//! CRC, row-wise de-rate-match) vs its scalar oracle across **all
//! 188** TS 36.212 block sizes and **every** host-ISA tier.
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
//! threads and race on the ceiling.

use vran_phy::crc::{available_crc, best_crc, has_pclmul, CrcImpl, CRC16, CRC24A, CRC24B, CRC8};
use vran_phy::demap::{available_demap, best_demap, demap_with, DemapImpl};
use vran_phy::interleaver::QPP_TABLE;
use vran_phy::llr::Llr;
use vran_phy::modulation::{Cplx, Modulation};
use vran_phy::rate_match::RateMatcher;
use vran_phy::scrambler::{
    available_descramble, best_descramble, descramble_llrs, descramble_llrs_with, DescrambleImpl,
};
use vran_simd::host::{set_isa_ceiling, HostIsa};
use vran_util::rng::SmallRng;

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
    demap_sweep();
    descramble_sweep();
    crc_sweep();
    de_rate_match_sweep();
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
    let cases: Vec<(usize, Vec<Llr>, u32)> = all_k()
        .into_iter()
        .map(|k| {
            let n = (3 * (k + 4) * 2).min(2 * k + 12).next_multiple_of(4);
            let mut llrs: Vec<Llr> = (0..n).map(|_| rng.next_u32() as i16).collect();
            llrs[0] = i16::MIN;
            llrs[n / 2] = i16::MAX;
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
