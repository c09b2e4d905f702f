//! Native fixed-point max-log demappers.
//!
//! The Q-format ladder prototyped on the `vran-simd` VM
//! (`apcm::modulation_simd`) promoted to real `std::arch` kernels,
//! plus the 64-QAM tier the VM never had, with the established
//! AVX-512BW → AVX2 → SSE2 → scalar runtime dispatch ([`DemapImpl`]).
//!
//! Every tier computes the same two stages in the same op order, so
//! the kernels are bit-exact with the scalar reference by
//! construction:
//!
//! 1. **Quantize** — each axis sample is scaled by one f32 factor
//!    (`gain / norm`, where `gain = round(LLR_SCALE · noise_scale)` is
//!    the per-packet LLR gain folded into the fixed-point grid) and
//!    converted with round-to-nearest-even (`vcvtps2dq` semantics,
//!    mirrored exactly by the scalar `cvt_round_f32_i32`), then
//!    saturated to i16.
//! 2. **Ladder** — the per-axis max-log LLRs come out of saturating
//!    i16 adds/subs/max (`paddsw`/`psubsw`/`pmaxsw`):
//!    QPSK `L0 = 2·q`; 16-QAM `L0 = 2·q`, `L1 = 2·(2G − |q|)`;
//!    64-QAM `L0 = q`, `L1 = 4G − |q|`, `L2 = ||q| − 4G| − 2G`.
//!    `|x|` is `max(x, 0 −ₛ x)` (saturating) at every tier, so even
//!    the `i16::MIN` corner matches.
//!
//! LLRs are written exactly in the order
//! [`crate::scrambler::descramble_llrs`] consumes: I/Q interleaved per
//! bit index, symbols in sequence.

use crate::llr::{adds16, max16, subs16, Llr};
use crate::modulation::{Cplx, Modulation, LLR_SCALE};
use vran_simd::host::{best_tier, HostIsa, Tier};

/// Native demapper tiers, least to most capable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DemapImpl {
    /// Portable scalar mirror of the vector ladder — the dispatch
    /// floor and the exactness oracle.
    Scalar,
    /// 8 axis samples per iteration (two `cvtps2dq` + `packssdw`).
    Sse2,
    /// 16 axis samples per iteration (ymm ladder).
    Avx2,
    /// 32 axis samples per iteration (zmm ladder, `vpmovsdw` narrow,
    /// `vpermt2d` output interleave).
    Avx512bw,
}

impl DemapImpl {
    /// Stable label for metrics and logs.
    pub fn name(self) -> &'static str {
        match self {
            DemapImpl::Scalar => "scalar",
            DemapImpl::Sse2 => "sse2",
            DemapImpl::Avx2 => "avx2",
            DemapImpl::Avx512bw => "avx512bw",
        }
    }

    /// Axis samples consumed per vector iteration.
    fn group(self) -> usize {
        match self {
            DemapImpl::Scalar => usize::MAX, // all handled scalarly
            DemapImpl::Sse2 => 8,
            DemapImpl::Avx2 => 16,
            DemapImpl::Avx512bw => 32,
        }
    }
}

impl Tier for DemapImpl {
    const LADDER: &'static [DemapImpl] = &[
        DemapImpl::Scalar,
        DemapImpl::Sse2,
        DemapImpl::Avx2,
        DemapImpl::Avx512bw,
    ];

    fn required_isa(self) -> HostIsa {
        match self {
            DemapImpl::Scalar => HostIsa::Scalar,
            DemapImpl::Sse2 => HostIsa::Sse2,
            DemapImpl::Avx2 => HostIsa::Avx2,
            DemapImpl::Avx512bw => HostIsa::Avx512bw,
        }
    }
}

/// The most capable demap tier on this host.
pub fn best_demap() -> DemapImpl {
    best_tier()
}

/// The fixed-point LLR gain for a given `noise_scale`: the float
/// path's `LLR_SCALE · noise_scale` product rounded onto the integer
/// grid, clamped so `4·gain` still fits an i16 ladder constant.
pub fn fixed_gain(noise_scale: f32) -> i16 {
    (LLR_SCALE * noise_scale).round().clamp(1.0, 8191.0) as i16
}

/// Scalar mirror of `vcvtps2dq`: round to nearest even; NaN and
/// out-of-range inputs produce `i32::MIN` (the "integer indefinite").
#[inline]
fn cvt_round_f32_i32(t: f32) -> i32 {
    let r = t.round_ties_even();
    if !(-2_147_483_648.0..2_147_483_648.0).contains(&r) {
        // NaN also lands here: `contains` is false for NaN.
        i32::MIN
    } else {
        r as i32
    }
}

/// Scalar quantize: scale, round, saturate to i16 (`packssdw`).
#[inline]
fn quantize(v: f32, factor: f32) -> Llr {
    cvt_round_f32_i32(v * factor).clamp(-32768, 32767) as Llr
}

/// Saturating `|x|`: `max(x, 0 −ₛ x)` — the SSE2-compatible form every
/// tier uses (so `i16::MIN → i16::MAX`, unlike `pabsw`).
#[inline]
fn abs16(x: Llr) -> Llr {
    max16(x, subs16(0, x))
}

/// Demap `symbols` into interleaved per-bit LLRs (positive → bit 0)
/// with an explicit kernel tier. Identical output at every tier; the
/// result approximates the float [`Modulation::demodulate`] path with
/// the gain folded into the quantization grid.
pub fn demap_with(imp: DemapImpl, m: Modulation, symbols: &[Cplx], noise_scale: f32) -> Vec<Llr> {
    let mut out = Vec::new();
    demap_into(imp, m, symbols, noise_scale, &mut out);
    out
}

/// [`demap_with`] into a caller-owned buffer (cleared first) so hot
/// paths can reuse allocations. Panics if the host lacks `imp`.
pub fn demap_into(
    imp: DemapImpl,
    m: Modulation,
    symbols: &[Cplx],
    noise_scale: f32,
    out: &mut Vec<Llr>,
) {
    assert!(imp.usable(), "host lacks {}", imp.name());
    let gain = fixed_gain(noise_scale);
    let factor = gain as f32 / m.norm();
    let bps = m.bits_per_symbol();
    out.clear();
    out.resize(symbols.len() * bps, 0);
    // SAFETY: `Cplx` is `#[repr(C)] { re: f32, im: f32 }`, so the
    // symbol slice is `2 * len` initialised f32s at f32 alignment: an
    // interleaved axis-sample stream.
    let vals: &[f32] =
        unsafe { std::slice::from_raw_parts(symbols.as_ptr().cast(), symbols.len() * 2) };
    let group = imp.group();
    let vec_n = if group == usize::MAX {
        0
    } else {
        vals.len() - vals.len() % group
    };
    // SAFETY: the host has the tier, checked above (all three arms).
    match imp {
        DemapImpl::Scalar => {}
        #[cfg(target_arch = "x86_64")]
        DemapImpl::Sse2 => unsafe {
            x86::demap_sse2(m, &vals[..vec_n], factor, gain, out);
        },
        #[cfg(target_arch = "x86_64")]
        DemapImpl::Avx2 => unsafe {
            x86::demap_avx2(m, &vals[..vec_n], factor, gain, out);
        },
        #[cfg(target_arch = "x86_64")]
        DemapImpl::Avx512bw => unsafe {
            x86::demap_avx512(m, &vals[..vec_n], factor, gain, out);
        },
        #[cfg(not(target_arch = "x86_64"))]
        _ => {}
    }
    // shared scalar tail (the Scalar tier takes the whole input here)
    demap_scalar_range(m, vals, vec_n, factor, gain, out);
}

/// Scalar ladder over `vals[start..]`, writing LLRs at the matching
/// output offset. Same ops, same order as the vector tiers.
fn demap_scalar_range(
    m: Modulation,
    vals: &[f32],
    start: usize,
    factor: f32,
    gain: i16,
    out: &mut [Llr],
) {
    debug_assert_eq!(start % 2, 0);
    let g2 = adds16(gain, gain);
    let g4 = adds16(g2, g2);
    match m {
        Modulation::Qpsk => {
            for (j, &v) in vals.iter().enumerate().skip(start) {
                let q = quantize(v, factor);
                out[j] = adds16(q, q);
            }
        }
        Modulation::Qam16 => {
            for (j, &v) in vals.iter().enumerate().skip(start) {
                let q = quantize(v, factor);
                let (s, axis) = (j / 2, j % 2);
                out[4 * s + axis] = adds16(q, q);
                let d = subs16(g2, abs16(q));
                out[4 * s + 2 + axis] = adds16(d, d);
            }
        }
        Modulation::Qam64 => {
            for (j, &v) in vals.iter().enumerate().skip(start) {
                let q = quantize(v, factor);
                let (s, axis) = (j / 2, j % 2);
                out[6 * s + axis] = q;
                let a = abs16(q);
                out[6 * s + 2 + axis] = subs16(g4, a);
                out[6 * s + 4 + axis] = subs16(abs16(subs16(a, g4)), g2);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::Modulation;
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    // ---------------------------------------------------------- SSE2

    /// Quantize 8 axis samples: two f32 loads → scale → `cvtps2dq` →
    /// `packssdw` (order-preserving for consecutive registers).
    ///
    /// # Safety
    /// SSE2; `p` must be readable for 8 f32s.
    #[inline]
    #[target_feature(enable = "sse2")]
    unsafe fn quantize8(p: *const f32, f: __m128) -> __m128i {
        // SAFETY: SSE2 is the caller's, and `p` is readable for 8 f32s.
        unsafe {
            let a = _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(p), f));
            let b = _mm_cvtps_epi32(_mm_mul_ps(_mm_loadu_ps(p.add(4)), f));
            _mm_packs_epi32(a, b)
        }
    }

    /// # Safety
    /// SSE2; `vals.len()` a multiple of 8; `out` sized for the
    /// modulation's LLR count.
    #[target_feature(enable = "sse2")]
    pub unsafe fn demap_sse2(m: Modulation, vals: &[f32], factor: f32, gain: i16, out: &mut [i16]) {
        // SAFETY: SSE2 is the caller's; chunk `blk` is 4 symbols, whose
        // `4 * bps` LLRs at `out[4 * bps * blk..]` lie inside `out`,
        // sized for the modulation's LLR count.
        unsafe {
            let f = _mm_set1_ps(factor);
            let zero = _mm_setzero_si128();
            let g = _mm_set1_epi16(gain);
            let g2 = _mm_adds_epi16(g, g);
            let g4 = _mm_adds_epi16(g2, g2);
            let bps = m.bits_per_symbol();
            for (blk, chunk) in vals.chunks_exact(8).enumerate() {
                let q = quantize8(chunk.as_ptr(), f);
                let o = out.as_mut_ptr().add(blk * 4 * bps);
                match m {
                    Modulation::Qpsk => {
                        _mm_storeu_si128(o.cast(), _mm_adds_epi16(q, q));
                    }
                    Modulation::Qam16 => {
                        let inner = _mm_adds_epi16(q, q);
                        let a = _mm_max_epi16(q, _mm_subs_epi16(zero, q));
                        let d = _mm_subs_epi16(g2, a);
                        let outer = _mm_adds_epi16(d, d);
                        // interleave I/Q pairs (32-bit units): symbol s →
                        // [inner_s, outer_s]
                        _mm_storeu_si128(o.cast(), _mm_unpacklo_epi32(inner, outer));
                        _mm_storeu_si128(o.add(8).cast(), _mm_unpackhi_epi32(inner, outer));
                    }
                    Modulation::Qam64 => {
                        let a = _mm_max_epi16(q, _mm_subs_epi16(zero, q));
                        let p1 = _mm_subs_epi16(g4, a);
                        let t = _mm_subs_epi16(a, g4);
                        let p2 = _mm_subs_epi16(_mm_max_epi16(t, _mm_subs_epi16(zero, t)), g2);
                        store_triplets_128(q, p1, p2, o);
                    }
                }
            }
        }
    }

    /// Scatter three 8-lane planes as per-symbol `[p0 p1 p2]` 32-bit
    /// triples (4 symbols per block).
    ///
    /// # Safety
    /// SSE2; `o` writable for 24 i16s.
    #[target_feature(enable = "sse2")]
    unsafe fn store_triplets_128(p0: __m128i, p1: __m128i, p2: __m128i, o: *mut i16) {
        // SAFETY: SSE2 is the caller's, and `o` is writable for 24 i16s.
        unsafe {
            let mut b0 = [0i16; 8];
            let mut b1 = [0i16; 8];
            let mut b2 = [0i16; 8];
            _mm_storeu_si128(b0.as_mut_ptr().cast(), p0);
            _mm_storeu_si128(b1.as_mut_ptr().cast(), p1);
            _mm_storeu_si128(b2.as_mut_ptr().cast(), p2);
            for s in 0..4 {
                *o.add(6 * s) = b0[2 * s];
                *o.add(6 * s + 1) = b0[2 * s + 1];
                *o.add(6 * s + 2) = b1[2 * s];
                *o.add(6 * s + 3) = b1[2 * s + 1];
                *o.add(6 * s + 4) = b2[2 * s];
                *o.add(6 * s + 5) = b2[2 * s + 1];
            }
        }
    }

    // ---------------------------------------------------------- AVX2

    /// Quantize 16 axis samples into one ymm of i16, order-preserving
    /// (`packssdw` then a 64-bit permute to undo its lane split).
    ///
    /// # Safety
    /// AVX2; `p` must be readable for 16 f32s.
    #[inline]
    #[target_feature(enable = "avx2")]
    unsafe fn quantize16(p: *const f32, f: __m256) -> __m256i {
        // SAFETY: AVX2 is the caller's, and `p` is readable for 16 f32s.
        unsafe {
            let a = _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(p), f));
            let b = _mm256_cvtps_epi32(_mm256_mul_ps(_mm256_loadu_ps(p.add(8)), f));
            _mm256_permute4x64_epi64(_mm256_packs_epi32(a, b), 0b11_01_10_00)
        }
    }

    /// # Safety
    /// AVX2; `vals.len()` a multiple of 16; `out` sized accordingly.
    #[target_feature(enable = "avx2")]
    pub unsafe fn demap_avx2(m: Modulation, vals: &[f32], factor: f32, gain: i16, out: &mut [i16]) {
        // SAFETY: AVX2 is the caller's; chunk `blk` is 8 symbols, whose
        // `8 * bps` LLRs at `out[8 * bps * blk..]` lie inside `out`,
        // sized for the modulation's LLR count.
        unsafe {
            let f = _mm256_set1_ps(factor);
            let zero = _mm256_setzero_si256();
            let g = _mm256_set1_epi16(gain);
            let g2 = _mm256_adds_epi16(g, g);
            let g4 = _mm256_adds_epi16(g2, g2);
            let bps = m.bits_per_symbol();
            for (blk, chunk) in vals.chunks_exact(16).enumerate() {
                let q = quantize16(chunk.as_ptr(), f);
                let o = out.as_mut_ptr().add(blk * 8 * bps);
                match m {
                    Modulation::Qpsk => {
                        _mm256_storeu_si256(o.cast(), _mm256_adds_epi16(q, q));
                    }
                    Modulation::Qam16 => {
                        let inner = _mm256_adds_epi16(q, q);
                        let a = _mm256_max_epi16(q, _mm256_subs_epi16(zero, q));
                        let d = _mm256_subs_epi16(g2, a);
                        let outer = _mm256_adds_epi16(d, d);
                        // 32-bit interleave across the lane split
                        let lo = _mm256_unpacklo_epi32(inner, outer);
                        let hi = _mm256_unpackhi_epi32(inner, outer);
                        _mm256_storeu_si256(o.cast(), _mm256_permute2x128_si256(lo, hi, 0x20));
                        _mm256_storeu_si256(
                            o.add(16).cast(),
                            _mm256_permute2x128_si256(lo, hi, 0x31),
                        );
                    }
                    Modulation::Qam64 => {
                        let a = _mm256_max_epi16(q, _mm256_subs_epi16(zero, q));
                        let p1 = _mm256_subs_epi16(g4, a);
                        let t = _mm256_subs_epi16(a, g4);
                        let p2 =
                            _mm256_subs_epi16(_mm256_max_epi16(t, _mm256_subs_epi16(zero, t)), g2);
                        store_triplets_256(q, p1, p2, o);
                    }
                }
            }
        }
    }

    /// Scatter three 16-lane planes as per-symbol `[p0 p1 p2]` 32-bit
    /// triples (8 symbols per block).
    ///
    /// # Safety
    /// AVX2; `o` writable for 48 i16s.
    #[target_feature(enable = "avx2")]
    unsafe fn store_triplets_256(p0: __m256i, p1: __m256i, p2: __m256i, o: *mut i16) {
        // SAFETY: AVX2 is the caller's, and `o` is writable for 48 i16s.
        unsafe {
            let mut b0 = [0i16; 16];
            let mut b1 = [0i16; 16];
            let mut b2 = [0i16; 16];
            _mm256_storeu_si256(b0.as_mut_ptr().cast(), p0);
            _mm256_storeu_si256(b1.as_mut_ptr().cast(), p1);
            _mm256_storeu_si256(b2.as_mut_ptr().cast(), p2);
            for s in 0..8 {
                *o.add(6 * s) = b0[2 * s];
                *o.add(6 * s + 1) = b0[2 * s + 1];
                *o.add(6 * s + 2) = b1[2 * s];
                *o.add(6 * s + 3) = b1[2 * s + 1];
                *o.add(6 * s + 4) = b2[2 * s];
                *o.add(6 * s + 5) = b2[2 * s + 1];
            }
        }
    }

    // ------------------------------------------------------ AVX-512

    /// 16-QAM output interleave: 32-bit elements `[I0 O0 I1 O1 …]`.
    const QAM16_IDX_LO: [i32; 16] = [0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23];
    const QAM16_IDX_HI: [i32; 16] = [8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31];

    /// 64-QAM output interleave tables for output register `r`
    /// (`r ∈ 0..3`, covering 32-bit output elements `16r..16r+16`):
    /// element `j` holds plane `(16r + j) % 3` of symbol
    /// `(16r + j) / 3`. `idx_ab` gathers the P0/P1 slots from
    /// `P0 ‖ P1` via `vpermt2d`; `mask_c`/`idx_c` then overlay the P2
    /// slots via a masked `vpermd`.
    const fn qam64_idx_ab(r: usize) -> [i32; 16] {
        let mut idx = [0i32; 16];
        let mut j = 0;
        while j < 16 {
            let g = 16 * r + j;
            let (s, p) = (g / 3, g % 3);
            idx[j] = match p {
                0 => s as i32,
                1 => 16 + s as i32,
                _ => 0, // overwritten by the P2 overlay
            };
            j += 1;
        }
        idx
    }

    const fn qam64_idx_c(r: usize) -> [i32; 16] {
        let mut idx = [0i32; 16];
        let mut j = 0;
        while j < 16 {
            let g = 16 * r + j;
            idx[j] = (g / 3) as i32;
            j += 1;
        }
        idx
    }

    const fn qam64_mask_c(r: usize) -> u16 {
        let mut m = 0u16;
        let mut j = 0;
        while j < 16 {
            if (16 * r + j) % 3 == 2 {
                m |= 1 << j;
            }
            j += 1;
        }
        m
    }

    const QAM64_IDX_AB: [[i32; 16]; 3] = [qam64_idx_ab(0), qam64_idx_ab(1), qam64_idx_ab(2)];
    const QAM64_IDX_C: [[i32; 16]; 3] = [qam64_idx_c(0), qam64_idx_c(1), qam64_idx_c(2)];
    const QAM64_MASK_C: [u16; 3] = [qam64_mask_c(0), qam64_mask_c(1), qam64_mask_c(2)];

    /// Quantize 32 axis samples into one zmm of i16, order-preserving
    /// (two `vcvtps2dq` + saturating `vpmovsdw` narrows).
    ///
    /// # Safety
    /// AVX-512F/BW; `p` must be readable for 32 f32s.
    #[inline]
    #[target_feature(enable = "avx512f", enable = "avx512bw")]
    unsafe fn quantize32(p: *const f32, f: __m512) -> __m512i {
        // SAFETY: AVX-512F/BW are the caller's, and `p` is readable for 32
        // f32s.
        unsafe {
            let a = _mm512_cvtps_epi32(_mm512_mul_ps(_mm512_loadu_ps(p), f));
            let b = _mm512_cvtps_epi32(_mm512_mul_ps(_mm512_loadu_ps(p.add(16)), f));
            let lo = _mm512_cvtsepi32_epi16(a);
            let hi = _mm512_cvtsepi32_epi16(b);
            _mm512_inserti64x4(_mm512_castsi256_si512(lo), hi, 1)
        }
    }

    /// # Safety
    /// AVX-512F/BW; `vals.len()` a multiple of 32; `out` sized
    /// accordingly.
    #[target_feature(enable = "avx512f", enable = "avx512bw")]
    pub unsafe fn demap_avx512(
        m: Modulation,
        vals: &[f32],
        factor: f32,
        gain: i16,
        out: &mut [i16],
    ) {
        // SAFETY: AVX-512F/BW are the caller's; chunk `blk` is 16 symbols,
        // whose `16 * bps` LLRs at `out[16 * bps * blk..]` lie inside
        // `out`, sized for the modulation's LLR count.
        unsafe {
            let f = _mm512_set1_ps(factor);
            let zero = _mm512_setzero_si512();
            let g = _mm512_set1_epi16(gain);
            let g2 = _mm512_adds_epi16(g, g);
            let g4 = _mm512_adds_epi16(g2, g2);
            let bps = m.bits_per_symbol();
            let q16_lo = _mm512_loadu_si512(QAM16_IDX_LO.as_ptr().cast());
            let q16_hi = _mm512_loadu_si512(QAM16_IDX_HI.as_ptr().cast());
            for (blk, chunk) in vals.chunks_exact(32).enumerate() {
                let q = quantize32(chunk.as_ptr(), f);
                let o = out.as_mut_ptr().add(blk * 16 * bps);
                match m {
                    Modulation::Qpsk => {
                        _mm512_storeu_si512(o.cast(), _mm512_adds_epi16(q, q));
                    }
                    Modulation::Qam16 => {
                        let inner = _mm512_adds_epi16(q, q);
                        let a = _mm512_max_epi16(q, _mm512_subs_epi16(zero, q));
                        let d = _mm512_subs_epi16(g2, a);
                        let outer = _mm512_adds_epi16(d, d);
                        _mm512_storeu_si512(
                            o.cast(),
                            _mm512_permutex2var_epi32(inner, q16_lo, outer),
                        );
                        _mm512_storeu_si512(
                            o.add(32).cast(),
                            _mm512_permutex2var_epi32(inner, q16_hi, outer),
                        );
                    }
                    Modulation::Qam64 => {
                        let a = _mm512_max_epi16(q, _mm512_subs_epi16(zero, q));
                        let p1 = _mm512_subs_epi16(g4, a);
                        let t = _mm512_subs_epi16(a, g4);
                        let p2 =
                            _mm512_subs_epi16(_mm512_max_epi16(t, _mm512_subs_epi16(zero, t)), g2);
                        for r in 0..3 {
                            let idx_ab = _mm512_loadu_si512(QAM64_IDX_AB[r].as_ptr().cast());
                            let idx_c = _mm512_loadu_si512(QAM64_IDX_C[r].as_ptr().cast());
                            let ab = _mm512_permutex2var_epi32(q, idx_ab, p1);
                            let full =
                                _mm512_mask_permutexvar_epi32(ab, QAM64_MASK_C[r], idx_c, p2);
                            _mm512_storeu_si512(o.add(32 * r).cast(), full);
                        }
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vran_simd::host::tiers;
    use vran_util::rng::SmallRng;

    fn random_symbols(n: usize, seed: u64, span: f32) -> Vec<Cplx> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n)
            .map(|_| {
                Cplx::new(
                    rng.gen_range_f32(-span, span),
                    rng.gen_range_f32(-span, span),
                )
            })
            .collect()
    }

    #[test]
    fn all_tiers_match_the_scalar_oracle() {
        for m in Modulation::ALL {
            // sizes straddle every vector group size plus ragged tails
            for n in [0usize, 1, 3, 4, 7, 8, 15, 16, 17, 33, 100, 1024] {
                let syms = random_symbols(n, 42 + n as u64, 2.5);
                for ns in [0.25f32, 1.0, 3.7, 16.0] {
                    let expect = demap_with(DemapImpl::Scalar, m, &syms, ns);
                    for imp in tiers::<DemapImpl>() {
                        assert_eq!(
                            demap_with(imp, m, &syms, ns),
                            expect,
                            "{} {} n={n} ns={ns}",
                            m.name(),
                            imp.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn extreme_inputs_stay_bit_exact() {
        // saturation corners: huge magnitudes, infinities, NaN, zero
        let specials = vec![
            Cplx::new(f32::INFINITY, -f32::INFINITY),
            Cplx::new(f32::NAN, 0.0),
            Cplx::new(1e30, -1e30),
            Cplx::new(40.0, -40.0),
            Cplx::new(-0.0, 0.0),
            Cplx::new(f32::MIN_POSITIVE, -f32::MIN_POSITIVE),
            Cplx::new(1e4, -1e4),
            Cplx::new(33000.0, -33000.0),
            Cplx::new(3.9, -3.9),
            Cplx::new(0.1, -0.1),
            Cplx::new(7.5, -7.5),
            Cplx::new(1.5, -1.5),
            Cplx::new(2.5, -2.5),
            Cplx::new(0.5, -0.5),
            Cplx::new(5.0, -5.0),
            Cplx::new(1.0, -1.0),
        ];
        for m in Modulation::ALL {
            for ns in [0.25f32, 16.0, 128.0, 1e9] {
                let expect = demap_with(DemapImpl::Scalar, m, &specials, ns);
                for imp in tiers::<DemapImpl>() {
                    assert_eq!(
                        demap_with(imp, m, &specials, ns),
                        expect,
                        "{} {} ns={ns}",
                        m.name(),
                        imp.name()
                    );
                }
            }
        }
    }

    #[test]
    fn noiseless_demap_recovers_bits() {
        use crate::bits::random_bits;
        for m in Modulation::ALL {
            let bits = random_bits(m.bits_per_symbol() * 500, 9);
            let syms = m.modulate(&bits);
            for imp in tiers::<DemapImpl>() {
                let llrs = demap_with(imp, m, &syms, 1.0);
                assert_eq!(llrs.len(), bits.len());
                let rx: Vec<u8> = llrs.iter().map(|&l| u8::from(l < 0)).collect();
                assert_eq!(rx, bits, "{} {} demap mismatch", m.name(), imp.name());
            }
        }
    }

    #[test]
    fn fixed_point_tracks_the_float_reference() {
        // the fixed ladder lands within one quantization step of the
        // float demapper (gain folded, single rounding)
        for m in Modulation::ALL {
            let syms = random_symbols(400, 7, 1.8);
            for ns in [0.5f32, 1.0, 4.0] {
                let fixed = demap_with(DemapImpl::Scalar, m, &syms, ns);
                let float = m.demodulate(&syms, ns);
                let tol = (2.0 * ns).ceil() as i32 + 2;
                for (i, (a, b)) in fixed.iter().zip(&float).enumerate() {
                    assert!(
                        (*a as i32 - *b as i32).abs() <= tol,
                        "{} ns={ns} idx {i}: fixed {a} float {b}",
                        m.name()
                    );
                }
            }
        }
    }

    #[test]
    fn llr_order_matches_descrambler_consumption() {
        // 16-QAM symbol: [inner_I, inner_Q, outer_I, outer_Q]; the
        // descrambler walks LLRs in this exact order.
        let syms = vec![Cplx::new(0.3162278, -0.9486833)]; // (1,-3)/√10
        let llrs = demap_with(DemapImpl::Scalar, Modulation::Qam16, &syms, 1.0);
        assert_eq!(llrs.len(), 4);
        assert!(llrs[0] > 0, "I sign bit: +1 axis → bit 0");
        assert!(llrs[1] < 0, "Q sign bit: −3 axis → bit 1");
        assert!(llrs[2] > 0, "I magnitude bit: |1| inner");
        assert!(llrs[3] < 0, "Q magnitude bit: |3| outer");
    }

    #[test]
    fn best_demap_is_last_available() {
        assert_eq!(DemapImpl::LADDER[0].required_isa(), HostIsa::Scalar);
        assert_eq!(Some(best_demap()), tiers::<DemapImpl>().last());
    }
}
