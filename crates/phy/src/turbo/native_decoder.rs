//! Real-intrinsics max-log-MAP turbo decoder for the host CPU.
//!
//! The VM kernel `apcm::turbo::simd_decoder` is an *instrument*: it
//! interprets the decoder's SIMD instruction stream so `vran-uarch`
//! can account ports and µops. This module is the *fast path*: the
//! same algorithm written against `std::arch` so the uplink pipeline
//! decodes on the host's actual vector units.
//!
//! # The bit-exactness contract
//!
//! Every tier performs, per trellis transition, the saturating i16
//! operations of [`super::decoder`] on the same operands in the same
//! association order — `adds16(±γ₀, ±γₚ)` with `subs16(0, ·)`
//! negation, `α + γ`, `(α + γ) + β`, the `NEG_INF` floor, the state-0
//! normalise — and folds them with `max`, which on i16 is exact,
//! associative and commutative. What differs between tiers is only
//! *when* a transition is evaluated and *which lane* holds it, so
//! decoded bits, extrinsics, posteriors and iteration counts are
//! identical on every ISA level (enforced by the tests below and the
//! all-K sweep in `tests/phy_properties.rs`).
//!
//! # The vector tiers: one body, lane-packed, meet in the middle
//!
//! α and β walk toward each other from the two ends of the block, each
//! step's γ vector one `pshufb` of a staged quad of branch metrics. The
//! kernel is the `mitm` module's one body (DESIGN §5.8) at one block per
//! register, instantiated twice: on an xmm pair under SSSE3, the two
//! chains in two registers, so two recurrences are in flight; and in
//! one ymm under AVX2, one chain per 128-bit lane, so every instruction
//! of the recurrence does two steps' work. The batch decoder runs the
//! same body at two blocks per zmm. It stores `K` trellis rows in the
//! `(K+1)×8` buffer the scalar tier fills with α alone.
//!
//! A pass leaves the posterior and `γ₀`; the extrinsic peels off them
//! lane-parallel (`peel_extrinsic`) only if another pass will read it
//! — a block that stops on its CRC, and the last pass of any decode,
//! never pay for it — already scaled by ¾ for the next half-iteration
//! (the oracle scales the whole array, then permutes — so the
//! interleaver gather is a plain indexed copy). On AVX-512BW hosts this
//! tier peels and gathers on zmm instead, with the launches' own peel
//! and `vpgatherdd` gather at one lane. The decoder decides it once,
//! when it is built, so an ISA ceiling below AVX-512BW still reaches
//! the 128-bit peel and the indexed copy.
//!
//! # Iteration control
//!
//! A decode is the one-lane call of the one native turbo iteration loop
//! (in `native_batch`), the stop rule of [`super::decoder`] pass for
//! pass; [`DecodeScratch::siso_passes`] counts what ran. This decoder
//! makes the loop's per-pass calls at its tier: `siso_into`, the
//! extrinsic (`peel_extrinsic` with an indexed-copy gather, or the zmm
//! pair above), and `hard_decide`.
//!
//! Dispatch is by [`std::arch::is_x86_feature_detected!`] via
//! [`vran_simd::host`], with a portable scalar fallback, following
//! `vran-arrange`'s native kernels.

use super::decoder::{beta_init_from_tails, scale_extrinsic, DecodeOutcome, NEG_INF};
#[cfg(target_arch = "x86_64")]
use super::mitm::{self, Xmm, Ymm};
use super::native_batch::{iterate, BatchScratch, BlockLlrs};
use super::trellis::{self, STATES};
use crate::crc::Crc;
use crate::interleaver::QppInterleaver;
use crate::llr::{adds16, llr_to_bit, max16, srai16, subs16, Llr, TailLlrs, TurboLlrs};
use vran_simd::host::{self, best_tier, HostIsa, Tier};

/// ISA level a [`NativeTurboDecoder`] runs its SISO kernel at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum DecoderIsa {
    /// Portable scalar lanes — always available, the dispatch floor.
    Scalar,
    /// 128-bit kernel: the α and β recursions meeting in the middle of
    /// the block, one per xmm of a pair.
    Ssse3,
    /// 256-bit kernel: the same body with the α and β recursions
    /// lane-packed in one ymm.
    Avx2,
}

impl DecoderIsa {
    /// Stable lowercase label for bench metrics and logs.
    pub fn name(self) -> &'static str {
        match self {
            DecoderIsa::Scalar => "scalar",
            DecoderIsa::Ssse3 => "ssse3",
            DecoderIsa::Avx2 => "avx2",
        }
    }

    /// The most capable level the host supports.
    pub fn best() -> DecoderIsa {
        best_tier()
    }
}

impl Tier for DecoderIsa {
    const LADDER: &'static [DecoderIsa] =
        &[DecoderIsa::Scalar, DecoderIsa::Ssse3, DecoderIsa::Avx2];

    fn required_isa(self) -> HostIsa {
        match self {
            DecoderIsa::Scalar => HostIsa::Scalar,
            DecoderIsa::Ssse3 => HostIsa::Ssse3,
            DecoderIsa::Avx2 => HostIsa::Avx2,
        }
    }
}

/// Reusable decode working memory, owned by long-lived callers (the
/// uplink pipeline) so the per-code-block hot loop performs no heap
/// allocation after warm-up; the allocation/reuse counters make that
/// claim checkable. A single-block decode is the one-lane call of the
/// batch decoder's iteration loop, so this is that loop's scratch, and
/// one value serves both decoders at any K.
pub type DecodeScratch = BatchScratch;

/// Iterative turbo decoder running real SIMD kernels, bit-exact with
/// [`super::decoder::TurboDecoder`]. It holds no block size: a decode
/// reads K from its streams and the QPP tables from
/// [`QppInterleaver::of`], so one value decodes blocks of any legal K.
#[derive(Debug, Clone)]
pub struct NativeTurboDecoder {
    max_iterations: usize,
    isa: DecoderIsa,
    /// Whether the extrinsic peels and gathers on zmm, as the launches'
    /// does: the AVX2 tier on AVX-512BW hosts. Decided once, here, so an
    /// ISA ceiling still reaches the 128-bit peel and indexed copy.
    zmm_extrinsic: bool,
}

impl NativeTurboDecoder {
    /// Decoder for blocks of any legal K at ISA level `isa`, at most
    /// `max_iterations` each. Panics if the host lacks the feature —
    /// pick from [`vran_simd::host::tiers`].
    pub fn for_any_k(max_iterations: usize, isa: DecoderIsa) -> Self {
        assert!(max_iterations >= 1);
        assert!(isa.usable(), "host lacks {} support", isa.name());
        Self {
            max_iterations,
            isa,
            zmm_extrinsic: isa == DecoderIsa::Avx2 && host::has(HostIsa::Avx512bw),
        }
    }

    /// [`Self::for_any_k`] at the best ISA level the host supports,
    /// after checking that `k` is a legal block size. Kept, with
    /// [`Self::with_isa`], for the repository benchmark and the tests,
    /// which name a K; ROADMAP item 1 deletes both.
    pub fn new(k: usize, max_iterations: usize) -> Self {
        Self::with_isa(k, max_iterations, DecoderIsa::best())
    }

    /// [`Self::for_any_k`] pinned to a specific ISA level (for A/B
    /// testing and reproducibility), after checking that `k` is a legal
    /// block size.
    pub fn with_isa(k: usize, max_iterations: usize, isa: DecoderIsa) -> Self {
        QppInterleaver::of(k);
        Self::for_any_k(max_iterations, isa)
    }

    /// Configured iteration cap.
    pub fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    /// The ISA level this decoder dispatches to.
    pub fn isa(&self) -> DecoderIsa {
        self.isa
    }

    /// Whether this decoder's extrinsic runs on zmm.
    pub(super) fn zmm_extrinsic(&self) -> bool {
        self.zmm_extrinsic
    }

    /// Decode; runs all configured iterations.
    pub fn decode(&self, input: &TurboLlrs) -> DecodeOutcome {
        self.decode_scratch(input, None, &mut DecodeScratch::new())
    }

    /// Decode with CRC-based early stopping (see
    /// [`super::decoder::TurboDecoder::decode_with_crc`]).
    pub fn decode_with_crc(&self, input: &TurboLlrs, crc: &Crc) -> DecodeOutcome {
        self.decode_scratch(input, Some(crc), &mut DecodeScratch::new())
    }

    /// Decode reusing caller-owned scratch (allocation-free after
    /// warm-up, except the returned bit vector).
    pub fn decode_scratch(
        &self,
        input: &TurboLlrs,
        crc: Option<&Crc>,
        scratch: &mut DecodeScratch,
    ) -> DecodeOutcome {
        let mut bits = Vec::new();
        let passes0 = scratch.siso_passes();
        let (iterations_run, crc_ok) = self.decode_streams_into(
            &input.streams.sys,
            &input.streams.p1,
            &input.streams.p2,
            &input.tails,
            crc,
            scratch,
            &mut bits,
        );
        DecodeOutcome {
            bits,
            iterations_run,
            siso_passes: (scratch.siso_passes() - passes0) as usize,
            crc_ok,
        }
    }

    /// Lowest-level entry: decode from raw arranged streams into a
    /// caller-owned bit buffer. Performs no heap allocation once
    /// `scratch` and `bits` have warmed up to this block size.
    #[allow(clippy::too_many_arguments)]
    pub fn decode_streams_into(
        &self,
        sys: &[Llr],
        p1: &[Llr],
        p2: &[Llr],
        tails: &TailLlrs,
        crc: Option<&Crc>,
        scratch: &mut DecodeScratch,
        bits: &mut Vec<u8>,
    ) -> (usize, Option<bool>) {
        self.decode_streams_capped_into(sys, p1, p2, tails, self.max_iterations, crc, scratch, bits)
    }

    /// [`NativeTurboDecoder::decode_streams_into`] under an externally
    /// clamped iteration budget (`min(cap, max_iterations)`, floor 1)
    /// — the deadline-degradation hook, matching
    /// [`super::decoder::TurboDecoder::decode_capped`].
    #[allow(clippy::too_many_arguments)]
    pub fn decode_streams_capped_into(
        &self,
        sys: &[Llr],
        p1: &[Llr],
        p2: &[Llr],
        tails: &TailLlrs,
        cap: usize,
        crc: Option<&Crc>,
        scratch: &mut DecodeScratch,
        bits: &mut Vec<u8>,
    ) -> (usize, Option<bool>) {
        let block = BlockLlrs {
            sys,
            p1,
            p2,
            tails: *tails,
        };
        let mut lane = [(0, None, 0)];
        let bits = core::slice::from_mut(bits);
        iterate::<1>(self, self, &[block], cap, crc, scratch, bits, &mut lane);
        (lane[0].0, lane[0].1)
    }
}

/// One SISO pass at the chosen ISA level, writing into caller buffers:
/// `post` receives the posterior LLRs (low 16 bits of each element) and
/// `g0` (K) the `γ₀` they were computed from, which is all
/// [`peel_extrinsic`] needs should another pass follow. `gq` (4·K) is
/// branch-metric scratch, `alpha` the `(K+1)×8` trellis scratch.
///
/// This is the safe boundary of the scalar tier: every length
/// precondition it indexes by is checked here; the vector arms' body,
/// at xmm and ymm alike, checks its own at `mitm::siso`.
#[allow(clippy::too_many_arguments)]
pub(crate) fn siso_into(
    isa: DecoderIsa,
    sys: &[Llr],
    par: &[Llr],
    apriori: &[Llr],
    tail_sys: &[Llr; 3],
    tail_par: &[Llr; 3],
    g0: &mut [Llr],
    gq: &mut [Llr],
    alpha: &mut [Llr],
    post: &mut [i32],
) {
    let k = sys.len();
    assert!(
        k.is_multiple_of(STATES) && k >= 2 * STATES,
        "block size {k} is not a multiple of 8 that is at least 16"
    );
    assert!(par.len() == k && apriori.len() == k, "input stream length");
    assert!(g0.len() == k && gq.len() == 4 * k, "γ scratch length");
    assert!(alpha.len() == (k + 1) * STATES, "trellis scratch length");
    assert!(post.len() == k, "output length");
    // The vector body stages four metrics per step; the scalar tier
    // keeps `γₚ` alone in the first K words.
    let gp = &mut gq[..k];
    #[cfg(target_arch = "x86_64")]
    let binit = || [beta_init_from_tails(tail_sys, tail_par)];
    match isa {
        #[cfg(target_arch = "x86_64")]
        DecoderIsa::Ssse3 => {
            mitm::siso::<Xmm, 1>([sys], [par], [apriori], &binit(), g0, gq, alpha, post)
        }
        #[cfg(target_arch = "x86_64")]
        DecoderIsa::Avx2 => {
            mitm::siso::<Ymm, 1>([sys], [par], [apriori], &binit(), g0, gq, alpha, post)
        }
        _ => siso_scalar(sys, par, apriori, tail_sys, tail_par, g0, gp, alpha, post),
    }
}

/// The next half-iteration's a-priori, still in this pass's order, from
/// a pass's posterior and `γ₀`: `scale_extrinsic(L − 2·γ₀)`, the same
/// saturating ops on the same values as the oracle's in-loop
/// subtraction and its whole-array scaling pass. Every element is an
/// independent computation, so it runs after the recurrences — and only
/// when a later pass will read it.
pub(crate) fn peel_extrinsic(isa: DecoderIsa, post: &[i32], g0: &[Llr], ext: &mut [Llr]) {
    let k = ext.len();
    assert!(post.len() == k && g0.len() == k && k.is_multiple_of(STATES));
    #[cfg(target_arch = "x86_64")]
    if isa != DecoderIsa::Scalar {
        // SAFETY: SSE2 is baseline on x86-64; the three buffers are `k`
        // long, a multiple of the eight elements a step covers.
        return unsafe { x86::peel_extrinsic(post, g0, ext) };
    }
    for ((e, &l), &g) in ext.iter_mut().zip(post).zip(g0) {
        *e = scale_extrinsic(subs16(l as Llr, adds16(g, g)));
    }
}

/// A pass's hard decisions in its own order — `bits[i]` is
/// [`llr_to_bit`] of the posterior in `post[i]`'s low half — and whether
/// every one is decided (no posterior is zero). The AVX2 tier shifts
/// the halves up and narrows with the saturating packs, which keep sign
/// and zero, so a byte's sign bit is the bit; the SSSE3 and scalar tiers
/// run the loop, which the compiler vectorises at 128 bits already.
pub(crate) fn hard_decide(isa: DecoderIsa, post: &[i32], bits: &mut [u8]) -> bool {
    assert_eq!(post.len(), bits.len());
    let (mut done, mut decided) = (0, true);
    #[cfg(target_arch = "x86_64")]
    if isa == DecoderIsa::Avx2 {
        // SAFETY: a decoder is built at a tier only if the host has it;
        // the slices are equally long.
        (done, decided) = unsafe { x86::hard_decide_avx2(post, bits) };
    }
    for (b, &l) in bits[done..].iter_mut().zip(&post[done..]) {
        *b = llr_to_bit(l as Llr);
        decided &= l as Llr != 0;
    }
    decided
}

/// `±γ₀ then ±γₚ` — the exact op pairing of
/// [`super::decoder::Gamma::branch`], kept scalar here for the fallback
/// kernel.
#[inline]
fn branch(g0: Llr, gp: Llr, u: u8, p: u8) -> Llr {
    let g0s = if u == 0 { g0 } else { subs16(0, g0) };
    let gps = if p == 0 { gp } else { subs16(0, gp) };
    adds16(g0s, gps)
}

/// Portable fallback: the scalar reference algorithm writing into the
/// scratch buffers (no per-call allocation), op-for-op identical to
/// [`super::decoder::siso`].
#[allow(clippy::too_many_arguments)]
fn siso_scalar(
    sys: &[Llr],
    par: &[Llr],
    apriori: &[Llr],
    tail_sys: &[Llr; 3],
    tail_par: &[Llr; 3],
    g0: &mut [Llr],
    gp: &mut [Llr],
    alpha: &mut [Llr],
    post: &mut [i32],
) {
    let k = sys.len();
    for i in 0..k {
        g0[i] = srai16(adds16(sys[i], apriori[i]), 1);
        gp[i] = srai16(par[i], 1);
    }

    let mut a = [NEG_INF; STATES];
    a[0] = 0;
    alpha[..STATES].copy_from_slice(&a);
    for i in 0..k {
        let mut next = [NEG_INF; STATES];
        for (ns, nb) in next.iter_mut().enumerate() {
            let mut best = NEG_INF;
            for u in 0..2u8 {
                let s = trellis::pred_state(ns as u8, u) as usize;
                let p = trellis::parity(s as u8, u);
                best = max16(best, adds16(a[s], branch(g0[i], gp[i], u, p)));
            }
            *nb = best;
        }
        let n = next[0];
        for nb in &mut next {
            *nb = subs16(*nb, n);
        }
        a = next;
        alpha[(i + 1) * STATES..(i + 2) * STATES].copy_from_slice(&a);
    }

    let mut beta = beta_init_from_tails(tail_sys, tail_par);
    for i in (0..k).rev() {
        let av = &alpha[i * STATES..(i + 1) * STATES];
        let mut m = [NEG_INF; 2];
        #[allow(clippy::needless_range_loop)] // s is a trellis state id
        for s in 0..STATES {
            for u in 0..2u8 {
                let p = trellis::parity(s as u8, u);
                let ns = trellis::next_state(s as u8, u) as usize;
                let metric = adds16(adds16(av[s], branch(g0[i], gp[i], u, p)), beta[ns]);
                m[u as usize] = max16(m[u as usize], metric);
            }
        }
        post[i] = subs16(m[0], m[1]) as i32;
        let mut prev = [NEG_INF; STATES];
        for (s, pb) in prev.iter_mut().enumerate() {
            let mut best = NEG_INF;
            for u in 0..2u8 {
                let p = trellis::parity(s as u8, u);
                let ns = trellis::next_state(s as u8, u) as usize;
                best = max16(best, adds16(beta[ns], branch(g0[i], gp[i], u, p)));
            }
            *pb = best;
        }
        let n = prev[0];
        for pb in &mut prev {
            *pb = subs16(*pb, n);
        }
        beta = prev;
    }
}

#[cfg(target_arch = "x86_64")]
pub(super) mod x86 {
    use super::*;
    use std::arch::x86_64::*;

    /// [`super::peel_extrinsic`], eight steps per register.
    ///
    /// # Safety
    /// The three slices are equally long, a multiple of eight.
    pub(crate) unsafe fn peel_extrinsic(post: &[i32], g0: &[Llr], ext: &mut [Llr]) {
        let mut i = 0;
        while i < ext.len() {
            // SAFETY: SSE2 is baseline on x86-64; the caller's lengths
            // keep the eight elements from `i` inside each slice.
            unsafe {
                // Recover the i16 posterior from each dword's low half:
                // shift-up/shift-down sign-extends, and the saturating
                // pack is exact because every lane is an in-range i16.
                let p0 = _mm_loadu_si128(post.as_ptr().add(i) as *const __m128i);
                let p1 = _mm_loadu_si128(post.as_ptr().add(i + 4) as *const __m128i);
                let w0 = _mm_srai_epi32(_mm_slli_epi32(p0, 16), 16);
                let w1 = _mm_srai_epi32(_mm_slli_epi32(p1, 16), 16);
                let pv = _mm_packs_epi32(w0, w1);
                let g0v = _mm_loadu_si128(g0.as_ptr().add(i) as *const __m128i);
                let e = _mm_subs_epi16(pv, _mm_adds_epi16(g0v, g0v));
                let la = _mm_adds_epi16(_mm_srai_epi16(e, 1), _mm_srai_epi16(e, 2));
                _mm_storeu_si128(ext.as_mut_ptr().add(i) as *mut __m128i, la);
            }
            i += 8;
        }
    }

    /// [`super::hard_decide`], 32 per step; returns how many elements
    /// it covered (all but a ragged end) and whether all were decided.
    ///
    /// # Safety
    /// AVX2, and `bits` is as long as `post`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn hard_decide_avx2(post: &[i32], bits: &mut [u8]) -> (usize, bool) {
        let (one, mut zeros) = (_mm256_set1_epi8(1), _mm256_setzero_si256());
        // the packs work per 128-bit lane: this puts their dwords back
        let order = _mm256_setr_epi32(0, 4, 1, 5, 2, 6, 3, 7);
        let steps = post.len() / 32;
        for i in 0..steps {
            // SAFETY: the ISA is the caller's; `32·i + 32 ≤ post.len()`,
            // and `bits` is as long, so every load and store is inside.
            unsafe {
                let p = post.as_ptr().add(32 * i).cast::<__m256i>();
                let l = |j| _mm256_slli_epi32(_mm256_loadu_si256(p.add(j)), 16);
                let (lo, hi) = (
                    _mm256_packs_epi32(l(0), l(1)),
                    _mm256_packs_epi32(l(2), l(3)),
                );
                let b = _mm256_permutevar8x32_epi32(_mm256_packs_epi16(lo, hi), order);
                zeros = _mm256_or_si256(zeros, _mm256_cmpeq_epi8(b, _mm256_setzero_si256()));
                let b = _mm256_and_si256(_mm256_srli_epi16(b, 7), one);
                _mm256_storeu_si256(bits.as_mut_ptr().add(32 * i).cast(), b);
            }
        }
        (32 * steps, _mm256_testz_si256(zeros, zeros) == 1)
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use crate::bits::random_bits;
    use crate::crc::CRC24B;
    use crate::interleaver::QPP_TABLE;
    use crate::llr::bit_to_llr;
    use crate::turbo::decoder::{siso, TurboDecoder};
    use crate::turbo::TurboEncoder;
    use vran_simd::host::tiers;
    use vran_util::proptest::prelude::*;
    use vran_util::rng::SmallRng;

    /// Encode random bits at size `k`, map to LLRs of magnitude `mag`,
    /// then perturb every LLR with uniform noise in `±noise`.
    fn noisy_input(k: usize, mag: Llr, noise: i16, seed: u64) -> (Vec<u8>, TurboLlrs) {
        let bits = random_bits(k, seed);
        let cw = TurboEncoder::new(k).encode(&bits);
        let d = cw.to_dstreams();
        let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37);
        let soft: [Vec<Llr>; 3] = d
            .iter()
            .map(|st| {
                st.iter()
                    .map(|&b| {
                        let n = if noise > 0 {
                            (rng.next_u64() % (2 * noise as u64 + 1)) as i16 - noise
                        } else {
                            0
                        };
                        adds16(bit_to_llr(b, mag), n)
                    })
                    .collect()
            })
            .collect::<Vec<_>>()
            .try_into()
            .unwrap();
        (bits, TurboLlrs::from_dstreams(&soft, k))
    }

    /// A CRC24B-bearing block on a channel of LLR magnitude `mag` with
    /// uniform noise in `±noise`; `flip` corrupts one payload bit
    /// after CRC attach, so the block decodes but can never pass.
    pub(crate) fn crc_block(k: usize, mag: Llr, noise: u64, flip: bool, seed: u64) -> TurboLlrs {
        let mut block = CRC24B.attach(&random_bits(k - 24, seed));
        block[3] ^= u8::from(flip);
        let cw = TurboEncoder::new(k).encode(&block);
        let mut rng = SmallRng::seed_from_u64(seed);
        let soft = cw.to_dstreams().map(|st| {
            st.iter()
                .map(|&b| {
                    let n = (rng.next_u64() % (2 * noise + 1)) as i16 - noise as i16;
                    adds16(bit_to_llr(b, mag), n)
                })
                .collect()
        });
        TurboLlrs::from_dstreams(&soft, k)
    }

    /// Blocks that stop on SISO pass 1, 2 and 3 — `(noise, seed)` of
    /// the noisy two searched once from seed 100 up and fixed; the
    /// tests that use them assert the stops — a noisy block with a
    /// payload bit flipped, which never passes, and a clean one with
    /// only its second parity stream received (a retransmission
    /// without systematic bits): SISO 1 decides nothing, and the
    /// all-zero word it would hand the CRC passes.
    pub(crate) fn stop_blocks(k: usize) -> [TurboLlrs; 5] {
        let (pass2, pass3) = match k {
            40 => ((20, 100), (20, 122)),
            512 => ((20, 107), (20, 100)),
            6144 => ((19, 486), (20, 101)),
            _ => panic!("no searched seeds for K={k}"),
        };
        let mut blind = crc_block(k, 50, 0, false, 3);
        blind.streams.sys.fill(0);
        blind.streams.p1.fill(0);
        [
            crc_block(k, 50, 0, false, 1),
            crc_block(k, 12, pass2.0, false, pass2.1),
            crc_block(k, 12, pass3.0, false, pass3.1),
            crc_block(k, 12, 30, true, 2),
            blind,
        ]
    }

    #[test]
    fn stops_on_the_first_siso_pass_whose_decisions_pass_the_crc() {
        const CAP: usize = 3;
        for k in [40usize, 512, 6144] {
            let [pass1, pass2, pass3, never, blind] = stop_blocks(k);
            // One scratch per tier, so a block that stops on pass 1
            // leaves the previous block's `sys_pi` behind for the next
            // block that reaches SISO 2.
            let order = [
                (&pass3, (3, 2, Some(true))),
                (&pass1, (1, 1, Some(true))),
                (&pass2, (2, 1, Some(true))),
                (&never, (2 * CAP, CAP, Some(false))),
                (&blind, (2, 1, Some(true))),
            ];
            let oracle = TurboDecoder::new(k, CAP);
            let expect = order.map(|(block, _)| oracle.decode_with_crc(block, &CRC24B));
            for isa in tiers::<DecoderIsa>() {
                let dec = NativeTurboDecoder::with_isa(k, CAP, isa);
                let mut scratch = DecodeScratch::new();
                for ((block, want), expect) in order.iter().zip(&expect) {
                    let out = dec.decode_scratch(block, Some(&CRC24B), &mut scratch);
                    assert_eq!(
                        (out.siso_passes, out.iterations_run, out.crc_ok),
                        *want,
                        "{} K={k}",
                        isa.name()
                    );
                    assert_eq!(&out, expect, "{} K={k} vs the oracle", isa.name());
                }
                assert_eq!(scratch.siso_passes(), 3 + 1 + 2 + 2 * CAP as u64 + 2);
                // Without a CRC nothing stops early, and nothing is
                // checked: every pass of the cap runs.
                let plain = dec.decode_scratch(&pass1, None, &mut scratch);
                assert_eq!((plain.siso_passes, plain.crc_ok), (2 * CAP, None));
            }
        }
    }

    #[test]
    fn available_isas_start_with_scalar() {
        assert_eq!(DecoderIsa::LADDER[0].required_isa(), HostIsa::Scalar);
        assert!(DecoderIsa::LADDER.windows(2).all(|w| w[0] < w[1]));
        assert_eq!(Some(DecoderIsa::best()), tiers::<DecoderIsa>().last());
    }

    #[test]
    fn noiseless_block_decodes_exactly_on_every_isa() {
        for k in [40usize, 104, 512] {
            let (bits, input) = noisy_input(k, 100, 0, k as u64);
            for isa in tiers::<DecoderIsa>() {
                let out = NativeTurboDecoder::with_isa(k, 4, isa).decode(&input);
                assert_eq!(out.bits, bits, "{} K={k}", isa.name());
                assert_eq!(out.iterations_run, 4);
            }
        }
    }

    #[test]
    fn matches_scalar_oracle_across_block_sizes() {
        // K ∈ {40 .. 6144}: smallest, a mid-size, and the largest QPP
        // sizes, under enough noise that iterations do real work.
        for k in [40usize, 496, 2048, 6144] {
            let (_, input) = noisy_input(k, 24, 20, 3 * k as u64 + 1);
            let reference = TurboDecoder::new(k, 3).decode(&input);
            for isa in tiers::<DecoderIsa>() {
                let out = NativeTurboDecoder::with_isa(k, 3, isa).decode(&input);
                assert_eq!(out, reference, "{} K={k}", isa.name());
            }
        }
    }

    #[test]
    fn hard_decide_matches_llr_to_bit_and_a_zero_anywhere_vetoes() {
        // The posterior is each element's low half, here any non-zero
        // value; the high half is whatever the kernel left there.
        let post = |k: usize| -> Vec<i32> {
            let mut rng = vran_util::rng::SmallRng::seed_from_u64(k as u64);
            (0..k)
                .map(|_| (rng.next_u32() as i32) << 16 | (rng.next_u32() % 0xFFFF + 1) as i32)
                .collect()
        };
        for isa in tiers::<DecoderIsa>() {
            for k in [16usize, 40, 48, 64, 104, 5696] {
                let clean = post(k);
                let want: Vec<u8> = clean.iter().map(|&l| llr_to_bit(l as Llr)).collect();
                assert!(want.contains(&0) && want.contains(&1));
                // first, last, and either side of every register of
                // either width
                let planted = (0..k).filter(|i| i % 16 == 0 || i % 16 == 15);
                for zero in planted.map(Some).chain([None]) {
                    let mut post = clean.clone();
                    let mut want = want.clone();
                    if let Some(z) = zero {
                        post[z] &= !0xFFFF;
                        want[z] = 0;
                    }
                    let mut bits = vec![9; k];
                    let decided = hard_decide(isa, &post, &mut bits);
                    assert_eq!(bits, want, "{} K={k} zero at {zero:?}", isa.name());
                    assert_eq!(decided, zero.is_none(), "{} K={k} {zero:?}", isa.name());
                }
            }
        }
    }

    #[test]
    fn crc_early_stop_matches_scalar_iteration_count() {
        let k = 104;
        let payload = random_bits(k - 24, 5);
        let block = CRC24B.attach(&payload);
        let cw = TurboEncoder::new(k).encode(&block);
        let soft: [Vec<Llr>; 3] = cw
            .to_dstreams()
            .iter()
            .map(|st| st.iter().map(|&b| bit_to_llr(b, 100)).collect())
            .collect::<Vec<_>>()
            .try_into()
            .unwrap();
        let input = TurboLlrs::from_dstreams(&soft, k);
        let reference = TurboDecoder::new(k, 8).decode_with_crc(&input, &CRC24B);
        assert_eq!(reference.crc_ok, Some(true));
        for isa in tiers::<DecoderIsa>() {
            let out = NativeTurboDecoder::with_isa(k, 8, isa).decode_with_crc(&input, &CRC24B);
            assert_eq!(out, reference, "{}", isa.name());
        }
    }

    /// One block's SISO inputs.
    struct SisoIn {
        sys: Vec<Llr>,
        par: Vec<Llr>,
        la: Vec<Llr>,
        tail_sys: [Llr; 3],
        tail_par: [Llr; 3],
    }

    /// Four blocks of length K against the oracle's `siso`, posterior as
    /// is and extrinsic through `scale_extrinsic`: each through
    /// `siso_into` on every tier (the body on an xmm pair under SSSE3, on
    /// ymm under AVX2), and where the
    /// host has AVX-512BW the first two as a zmm pair and all four as a
    /// zmm quad — every instantiation of the meet-in-the-middle body.
    fn assert_siso_matches_oracle(blocks: &[SisoIn; 4]) {
        let k = blocks[0].sys.len();
        let want = blocks.each_ref().map(|b| {
            let (ext, post) = siso(&b.sys, &b.par, &b.la, &b.tail_sys, &b.tail_par);
            (
                post,
                ext.into_iter().map(scale_extrinsic).collect::<Vec<_>>(),
            )
        });
        let check = |g: usize, post: &[i32], g0: &[Llr], isa: DecoderIsa, on: &str| {
            let mut ext = vec![0 as Llr; k];
            peel_extrinsic(isa, post, g0, &mut ext);
            let post_lo: Vec<Llr> = post.iter().map(|&p| p as Llr).collect();
            assert_eq!(post_lo, want[g].0, "posterior of block {g} on {on} K={k}");
            assert_eq!(ext, want[g].1, "extrinsic of block {g} on {on} K={k}");
        };
        let (mut g0, mut gq) = (vec![0; k], vec![0; 4 * k]);
        let mut alpha = vec![0; (k + 1) * STATES];
        let mut post = vec![0i32; k];
        for isa in tiers::<DecoderIsa>() {
            for (g, b) in blocks.iter().enumerate() {
                let (sys, par, la) = (&b.sys, &b.par, &b.la);
                let (ts, tp) = (&b.tail_sys, &b.tail_par);
                siso_into(
                    isa, sys, par, la, ts, tp, &mut g0, &mut gq, &mut alpha, &mut post,
                );
                check(g, &post, &g0, isa, isa.name());
            }
        }
        #[cfg(target_arch = "x86_64")]
        {
            use super::super::mitm::{self, Width, Zmm};
            use super::super::native_batch::aligned;
            fn launch<const N: usize>(blocks: &[SisoIn], k: usize) -> (Vec<i32>, Vec<Llr>) {
                let b: [&SisoIn; N] = core::array::from_fn(|g| &blocks[g]);
                let binit = b.map(|b| beta_init_from_tails(&b.tail_sys, &b.tail_par));
                let (mut g0, mut post) = (vec![0; N * k], vec![0i32; N * k]);
                let mut gq = vec![0; Zmm::gq_words(k) * N / 2 + 32];
                let mut trellis = vec![0; STATES * N * k + 32];
                let (sys, par, la) = (
                    b.map(|b| &b.sys[..]),
                    b.map(|b| &b.par[..]),
                    b.map(|b| &b.la[..]),
                );
                let (gq, trellis) = (
                    aligned(&mut gq, Zmm::gq_words(k) * N / 2),
                    aligned(&mut trellis, STATES * N * k),
                );
                mitm::siso::<Zmm, N>(sys, par, la, &binit, &mut g0, gq, trellis, &mut post);
                (post, g0)
            }
            if Zmm::detected() {
                let (pair, quad) = (launch::<2>(blocks, k), launch::<4>(blocks, k));
                for g in 0..4 {
                    let run = g * k..(g + 1) * k;
                    if g < 2 {
                        check(
                            g,
                            &pair.0[run.clone()],
                            &pair.1[run.clone()],
                            DecoderIsa::best(),
                            "zmm pair",
                        );
                    }
                    check(
                        g,
                        &quad.0[run.clone()],
                        &quad.1[run],
                        DecoderIsa::best(),
                        "zmm quad",
                    );
                }
            }
        }
    }

    #[test]
    fn native_siso_matches_oracle_at_both_group_parities() {
        // K/8 odd (40: the leftover-group loops run), even (48, 6144:
        // the packed phases alone); and the edges of phase 1's staging
        // one group ahead: one group (16), one group and the leftover
        // (24), two groups (32).
        for k in [16usize, 24, 32, 40, 48, 6144] {
            let mut rng = SmallRng::seed_from_u64(k as u64);
            let mut draw = |n: usize| -> Vec<Llr> {
                (0..n)
                    .map(|_| (rng.next_u64() % 1401) as i16 - 700)
                    .collect()
            };
            let blocks = core::array::from_fn(|_| {
                let (sys, par, la, t) = (draw(k), draw(k), draw(k), draw(6));
                let (tail_sys, tail_par) = ([t[0], t[1], t[2]], [t[3], t[4], t[5]]);
                SisoIn {
                    sys,
                    par,
                    la,
                    tail_sys,
                    tail_par,
                }
            });
            assert_siso_matches_oracle(&blocks);
        }
    }

    #[test]
    fn native_siso_matches_oracle_on_saturating_inputs() {
        // The γ quads negate with `subs16(0, ·)` and every path-metric
        // op saturates; drive both with rails and the metric floor in
        // every combination across systematic / parity / a-priori, a
        // different combination in each of the four lanes.
        let rails = [32767 as Llr, -32767, i16::MIN, NEG_INF, -NEG_INF, 0];
        for k in [40usize, 48] {
            for (a, b, c) in (0..216).map(|i| (i / 36, i / 6 % 6, i % 6)) {
                // Constant rails, then the same rails with a period that
                // does not divide the group size.
                for periodic in [false, true] {
                    let blocks = core::array::from_fn(|lane| {
                        let (a, b, c) = ((a + lane) % 6, (b + 2 * lane) % 6, (c + 3 * lane) % 6);
                        let pick = |v: usize, m: usize| -> Vec<Llr> {
                            (0..k)
                                .map(|i| match periodic && i % m == 0 {
                                    true => rails[(i / m) % 6],
                                    false => rails[v],
                                })
                                .collect()
                        };
                        let tails = [rails[a], rails[b], rails[c]];
                        SisoIn {
                            sys: pick(a, 3 + a),
                            par: pick(b, 5 + b),
                            la: pick(c, 7 + c),
                            tail_sys: tails,
                            tail_par: tails,
                        }
                    });
                    assert_siso_matches_oracle(&blocks);
                }
            }
        }
    }

    #[test]
    fn native_crc_early_stop_matches_oracle_at_k6144() {
        let k = 6144;
        let block = CRC24B.attach(&random_bits(k - 24, 31));
        let cw = TurboEncoder::new(k).encode(&block);
        let mut rng = SmallRng::seed_from_u64(77);
        let soft: [Vec<Llr>; 3] = cw
            .to_dstreams()
            .iter()
            .map(|st| {
                st.iter()
                    .map(|&b| adds16(bit_to_llr(b, 12), (rng.next_u64() % 41) as i16 - 20))
                    .collect()
            })
            .collect::<Vec<_>>()
            .try_into()
            .unwrap();
        let input = TurboLlrs::from_dstreams(&soft, k);
        let reference = TurboDecoder::new(k, 8).decode_with_crc(&input, &CRC24B);
        assert_eq!(reference.crc_ok, Some(true));
        assert!(
            (2..8).contains(&reference.iterations_run),
            "want a stop strictly inside the cap, got {}",
            reference.iterations_run
        );
        for isa in tiers::<DecoderIsa>() {
            let out = NativeTurboDecoder::with_isa(k, 8, isa).decode_with_crc(&input, &CRC24B);
            assert_eq!(out, reference, "{}", isa.name());
        }
    }

    #[test]
    #[should_panic(expected = "γ scratch length")]
    fn siso_into_checks_lengths_at_the_safe_boundary() {
        let k = 40;
        let z = vec![0 as Llr; k];
        // K words serve the scalar tier; the boundary wants 4·K from
        // every caller, whichever tier it names.
        let (mut g0, mut gq) = (vec![0; k], vec![0; k]);
        let mut alpha = vec![0; (k + 1) * STATES];
        let mut post = vec![0i32; k];
        siso_into(
            DecoderIsa::Scalar,
            &z,
            &z,
            &z,
            &[0; 3],
            &[0; 3],
            &mut g0,
            &mut gq,
            &mut alpha,
            &mut post,
        );
    }

    #[test]
    fn capped_streams_decode_matches_scalar_cap() {
        let k = 104;
        let (_, input) = noisy_input(k, 24, 20, 17);
        let reference = TurboDecoder::new(k, 8).decode_capped(&input, 2, None);
        for isa in tiers::<DecoderIsa>() {
            let dec = NativeTurboDecoder::with_isa(k, 8, isa);
            let mut scratch = DecodeScratch::new();
            let mut bits = Vec::new();
            let (iters, crc_ok) = dec.decode_streams_capped_into(
                &input.streams.sys,
                &input.streams.p1,
                &input.streams.p2,
                &input.tails,
                2,
                None,
                &mut scratch,
                &mut bits,
            );
            assert_eq!(iters, 2, "{}", isa.name());
            assert_eq!(crc_ok, None);
            assert_eq!(bits, reference.bits, "{}", isa.name());
        }
    }

    #[test]
    fn scratch_reuse_allocates_once_per_block_size() {
        let k = 256;
        let (_, input) = noisy_input(k, 30, 10, 9);
        let dec = NativeTurboDecoder::new(k, 2);
        let mut scratch = DecodeScratch::new();
        let first = dec.decode_scratch(&input, None, &mut scratch);
        assert_eq!(scratch.allocations(), 1);
        assert_eq!(scratch.reuses(), 0);
        for _ in 0..3 {
            let again = dec.decode_scratch(&input, None, &mut scratch);
            assert_eq!(again, first);
        }
        assert_eq!(scratch.allocations(), 1, "warm scratch must not grow");
        assert_eq!(scratch.reuses(), 3);
    }

    #[test]
    fn scratch_shrinks_without_reallocating() {
        let mut scratch = DecodeScratch::new();
        for k in [512, 40, 512] {
            let (_, input) = noisy_input(k, 30, 10, k as u64);
            NativeTurboDecoder::new(k, 2).decode_scratch(&input, None, &mut scratch);
        }
        assert_eq!(scratch.allocations(), 1);
        assert_eq!(scratch.reuses(), 2);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        #[test]
        fn siso_bit_exact_with_scalar_reference(
            sys in prop::collection::vec(-700i16..700, 40),
            par in prop::collection::vec(-700i16..700, 40),
            la in prop::collection::vec(-700i16..700, 40),
            t in prop::collection::vec(-700i16..700, 6),
        ) {
            let tail_sys = [t[0], t[1], t[2]];
            let tail_par = [t[3], t[4], t[5]];
            let (ext_ref, post_ref) = siso(&sys, &par, &la, &tail_sys, &tail_par);
            // the peel hands back the extrinsic already scaled
            let ext_ref: Vec<Llr> = ext_ref.into_iter().map(scale_extrinsic).collect();
            let k = sys.len();
            let (mut g0, mut gp) = (vec![0; k], vec![0; 4 * k]);
            let mut alpha = vec![0; (k + 1) * STATES];
            let (mut ext, mut post) = (vec![0 as Llr; k], vec![0i32; k]);
            for isa in tiers::<DecoderIsa>() {
                siso_into(
                    isa, &sys, &par, &la, &tail_sys, &tail_par,
                    &mut g0, &mut gp, &mut alpha, &mut post,
                );
                peel_extrinsic(isa, &post, &g0, &mut ext);
                prop_assert_eq!(&ext, &ext_ref, "extrinsic diverged on {}", isa.name());
                let post_lo: Vec<Llr> = post.iter().map(|&p| p as Llr).collect();
                prop_assert_eq!(&post_lo, &post_ref, "posterior diverged on {}", isa.name());
            }
        }

        #[test]
        fn decode_bit_exact_across_random_sizes_and_noise(
            row in 0usize..QPP_TABLE.len(),
            mag in 8i16..60,
            noise in 0i16..48,
            seed in 1u64..1_000_000,
        ) {
            let k = QPP_TABLE[row].k as usize;
            prop_assume!(k <= 1024); // keep the property-run time bounded
            let (_, input) = noisy_input(k, mag, noise, seed);
            let reference = TurboDecoder::new(k, 2).decode(&input);
            for isa in tiers::<DecoderIsa>() {
                let out = NativeTurboDecoder::with_isa(k, 2, isa).decode(&input);
                prop_assert_eq!(
                    &out.bits, &reference.bits,
                    "bits diverged on {} K={}", isa.name(), k
                );
                prop_assert_eq!(out.iterations_run, reference.iterations_run);
            }
        }
    }
}
