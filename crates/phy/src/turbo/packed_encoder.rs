//! Bitsliced packed-word turbo encoder: 64 trellis steps per `u64`
//! word, 128/256 per register under SSE2/AVX2.
//!
//! The scalar encoder in [`super::encoder`] walks the 8-state RSC
//! trellis one bit at a time — a serial dependence chain of scalar-port
//! work, the transmit-side mirror of the Fig. 6 problem APCM attacks on
//! the receive side. But the encoder is *linear over GF(2)*
//! (property-tested in `encoder.rs`), so the whole constituent pass is
//! carry-less polynomial arithmetic and can be bitsliced:
//!
//! * The feedback register solves `A · g0 = U` with `g0 = 1 + D² + D³`.
//!   Writing `g0 = 1 + p` with `p = D² + D³`, the inverse series
//!   truncates: `1/g0 = Σ pⁱ = (1+p)(1+p²)(1+p⁴)(1+p⁸)(1+p¹⁶) …`
//!   (mod `D^W`), because `pⁱ` has minimum degree `2i`. Over GF(2) each
//!   squaring is free — `p^{2ʲ} = D^{2^{j+1}} + D^{3·2ʲ}` — so one
//!   64-bit word of feedback costs **five** shift-XOR doubling steps
//!   (`log₂ 32`), a 128-bit register six, a 256-bit register seven.
//! * The parity stream is then a plain convolution
//!   `Z = A · g1 = A · (1 + D + D³)`: two more shifts.
//! * Word boundaries only couple through the top **three** feedback
//!   bits of the previous word (deg g0 = 3), folded in as scalar XORs
//!   before the in-word division.
//!
//! Bits are packed LSB-first ([`crate::bits::pack_lsb_words`]), so a
//! left shift moves *forward in time* and the recurrences above are
//! exactly `t ^= (t << a) ^ (t << b)` chains — pure vector-ALU
//! mask/merge/shift work on ports the scalar trellis walk cannot use.
//! Runtime dispatch mirrors [`super::native_decoder`]: a portable
//! `u64` kernel is the floor, SSE2/AVX2 kernels widen the same
//! arithmetic, and every level is bit-exact with the scalar oracle by
//! construction (enforced by property tests across all 188 QPP sizes).
//!
//! Trellis termination is inherently serial but only 3 steps per
//! constituent; those six bits come from the scalar trellis functions
//! applied to the final packed state.

use super::encoder::TurboCodeword;
use super::trellis;
use crate::bits::{gather_bits, pack_lsb_words, unpack_lsb_words};
use crate::interleaver::QppInterleaver;
use vran_simd::host::{self, best_tier, HostIsa, Tier};

/// Word width a [`PackedTurboEncoder`] advances the trellis at.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EncoderIsa {
    /// Portable `u64` kernel — always available, the dispatch floor
    /// (and already 64 trellis steps per word).
    Word64,
    /// 128-bit kernel: one extra `(1 + p³²)` doubling step per
    /// register, lane-crossing shifts via `pslldq`.
    Sse2,
    /// 256-bit kernel: `(1 + p³²)(1 + p⁶⁴)` doubling steps, lane moves
    /// via `vpermq` (AVX2's byte shifts do not cross 128-bit lanes).
    Avx2,
    /// 512-bit kernel: one more `(1 + p¹²⁸)` doubling factor for 512
    /// trellis steps per register; whole-register qword moves via
    /// `valignq` against zero (which, unlike the byte shifts, crosses
    /// every lane).
    Avx512,
}

impl EncoderIsa {
    /// Stable lowercase label for bench metrics and logs.
    pub fn name(self) -> &'static str {
        match self {
            EncoderIsa::Word64 => "word64",
            EncoderIsa::Sse2 => "sse2",
            EncoderIsa::Avx2 => "avx2",
            EncoderIsa::Avx512 => "avx512",
        }
    }

    /// The most capable level the host supports.
    pub fn best() -> EncoderIsa {
        best_tier()
    }
}

impl Tier for EncoderIsa {
    const LADDER: &'static [EncoderIsa] = &[
        EncoderIsa::Word64,
        EncoderIsa::Sse2,
        EncoderIsa::Avx2,
        EncoderIsa::Avx512,
    ];

    fn required_isa(self) -> HostIsa {
        match self {
            EncoderIsa::Word64 => HostIsa::Scalar,
            EncoderIsa::Sse2 => HostIsa::Sse2,
            EncoderIsa::Avx2 => HostIsa::Avx2,
            EncoderIsa::Avx512 => HostIsa::Avx512bw,
        }
    }
}

/// Reusable encode working memory: packed input, interleaved gather
/// staging, the feedback stream and the three packed d-streams. Owned
/// by long-lived callers (the pipelines) so the per-code-block hot loop
/// performs no heap allocations after warm-up; the allocation/reuse
/// counters make that claim checkable.
#[derive(Debug, Clone, Default)]
pub struct EncodeScratch {
    in_w: Vec<u64>,
    il_b: Vec<u8>,
    il_w: Vec<u64>,
    a_w: Vec<u64>,
    d: [Vec<u64>; 3],
    allocations: u64,
    reuses: u64,
}

impl EncodeScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Size (and zero) every word buffer for block length `k`, and the
    /// byte staging when the portable gather is going to use it,
    /// growing only when the retained capacity is insufficient.
    fn ensure(&mut self, k: usize, byte_staging: bool) {
        let nw = k.div_ceil(64);
        let ndw = (k + 4).div_ceil(64);
        let mut grew = false;
        {
            let mut fit = |v: &mut Vec<u64>, n: usize| {
                grew |= v.capacity() < n;
                v.clear();
                v.resize(n, 0);
            };
            fit(&mut self.in_w, nw);
            fit(&mut self.il_w, nw);
            fit(&mut self.a_w, nw);
            for s in &mut self.d {
                fit(s, ndw);
            }
        }
        if byte_staging {
            grew |= self.il_b.capacity() < k;
            self.il_b.resize(k, 0);
        }
        if grew {
            self.allocations += 1;
        } else {
            self.reuses += 1;
        }
    }

    /// The three packed d-streams of the last encode, `K + 4` bits each
    /// (LSB-first), tail bits arranged per TS 36.212 §5.1.3.2.2 —
    /// word-for-word what [`crate::rate_match::PackedRateMatcher`]
    /// consumes.
    pub fn dstream_words(&self) -> [&[u64]; 3] {
        [&self.d[0], &self.d[1], &self.d[2]]
    }

    /// Times `ensure` had to grow at least one buffer.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Times `ensure` was served entirely from retained capacity
    /// (i.e. heap allocations avoided).
    pub fn reuses(&self) -> u64 {
        self.reuses
    }
}

/// The packed-word turbo encoder. It holds no block size: an encode
/// reads K from its input and the QPP tables from
/// [`QppInterleaver::of`], so one value encodes blocks of any legal K.
#[derive(Debug, Clone)]
pub struct PackedTurboEncoder {
    isa: EncoderIsa,
}

impl PackedTurboEncoder {
    /// Encoder for blocks of any legal K at ISA level `isa`. Panics if
    /// the host lacks it.
    pub fn for_any_k(isa: EncoderIsa) -> Self {
        assert!(isa.usable(), "host lacks {} support", isa.name());
        Self { isa }
    }

    /// [`Self::for_any_k`] at the best ISA level the host supports,
    /// after checking that `k` is a legal block size. Kept, with
    /// [`Self::with_isa`], for the repository benchmark and the tests,
    /// which name a K; ROADMAP item 1 deletes both.
    pub fn new(k: usize) -> Self {
        Self::with_isa(k, EncoderIsa::best())
    }

    /// [`Self::for_any_k`] pinned to a specific ISA level (tests,
    /// benchmarks), after checking that `k` is a legal block size.
    pub fn with_isa(k: usize, isa: EncoderIsa) -> Self {
        QppInterleaver::of(k);
        Self::for_any_k(isa)
    }

    /// The ISA level this encoder dispatches to.
    pub fn isa(&self) -> EncoderIsa {
        self.isa
    }

    /// Encode one block into the scalar-oracle [`TurboCodeword`] shape
    /// (convenience path; the pipelines use
    /// [`Self::encode_dstreams_into`] to stay packed end to end).
    pub fn encode(&self, bits: &[u8]) -> TurboCodeword {
        let mut scratch = EncodeScratch::new();
        self.encode_dstreams_into(bits, &mut scratch);
        let k = bits.len();
        let d0 = unpack_lsb_words(&scratch.d[0], k + 4);
        let d1 = unpack_lsb_words(&scratch.d[1], k + 4);
        let d2 = unpack_lsb_words(&scratch.d[2], k + 4);
        // invert the §5.1.3.2.2 d-stream tail arrangement
        TurboCodeword {
            k,
            sys: d0[..k].to_vec(),
            p1: d1[..k].to_vec(),
            p2: d2[..k].to_vec(),
            tail_sys1: [d0[k], d2[k], d1[k + 1]],
            tail_p1: [d1[k], d0[k + 1], d2[k + 1]],
            tail_sys2: [d0[k + 2], d2[k + 2], d1[k + 3]],
            tail_p2: [d1[k + 2], d0[k + 3], d2[k + 3]],
        }
    }

    /// Encode one block of `K` information bits straight into packed
    /// d-streams (`K + 4` bits each, tail arrangement included),
    /// allocation-free after scratch warm-up. `K = bits.len()` must be
    /// a legal block size.
    pub fn encode_dstreams_into(&self, bits: &[u8], scratch: &mut EncodeScratch) {
        let k = bits.len();
        let il = QppInterleaver::of(k);
        let portable = !host::has(HostIsa::Avx2);
        scratch.ensure(k, portable);
        let nw = k.div_ceil(64);

        // constituent 1: systematic is the input, parity into d1
        pack_lsb_words(bits, &mut scratch.in_w);
        let s1 = rsc_packed(
            self.isa,
            &scratch.in_w,
            k,
            &mut scratch.a_w,
            &mut scratch.d[1][..nw],
        );
        scratch.d[0][..nw].copy_from_slice(&scratch.in_w);

        // constituent 2: the interleaved input, gathered straight from
        // the packed words where the host has a gather.
        let pi = il.pi_table();
        assert!(
            k.is_multiple_of(8) && pi.len() == k,
            "QPP sizes are multiples of 8"
        );
        if portable {
            // Byte-gather, then pack 64 bits per step — far cheaper
            // than per-bit word inserts. Eight elements per trip (every
            // legal K is a multiple of 8): at one per trip the loop is
            // 28 bytes of code, and whether the linker happens to place
            // it across a 64-byte line decides 9 µs or 13 µs per 1400 B
            // packet (EXPERIMENTS.md, PR 14).
            for (b8, p8) in scratch.il_b.chunks_exact_mut(8).zip(pi.chunks_exact(8)) {
                for (b, &p) in b8.iter_mut().zip(p8) {
                    *b = bits[p as usize];
                }
            }
            pack_lsb_words(&scratch.il_b, &mut scratch.il_w);
        } else {
            gather_bits(pi, &scratch.in_w, &mut scratch.il_w);
        }
        let s2 = rsc_packed(
            self.isa,
            &scratch.il_w,
            k,
            &mut scratch.a_w,
            &mut scratch.d[2][..nw],
        );

        // the IIR feedback keeps running into the zero padding, so the
        // parity words carry garbage above bit K-1 — clear it before
        // placing the tail bits
        if k & 63 != 0 {
            let mask = (1u64 << (k & 63)) - 1;
            scratch.d[1][nw - 1] &= mask;
            scratch.d[2][nw - 1] &= mask;
        }

        // trellis termination: 3 serial steps per constituent from the
        // extracted final states, arranged per §5.1.3.2.2
        let (ts1, tp1) = terminate(s1);
        let (ts2, tp2) = terminate(s2);
        set_bits(&mut scratch.d[0], k, [ts1[0], tp1[1], ts2[0], tp2[1]]);
        set_bits(&mut scratch.d[1], k, [tp1[0], ts1[2], tp2[0], ts2[2]]);
        set_bits(&mut scratch.d[2], k, [ts1[1], tp1[2], ts2[1], tp2[2]]);
    }
}

/// Three termination steps from trellis state `s`: the (tail input,
/// tail parity) sequences that drive the feedback register to zero.
fn terminate(mut s: u8) -> ([u8; 3], [u8; 3]) {
    let mut tail_sys = [0u8; 3];
    let mut tail_p = [0u8; 3];
    for i in 0..3 {
        let u = trellis::term_input(s);
        tail_sys[i] = u;
        tail_p[i] = trellis::parity(s, u);
        s = trellis::next_state(s, u);
    }
    debug_assert_eq!(s, 0, "trellis must terminate in the zero state");
    (tail_sys, tail_p)
}

/// OR four tail bits into a packed stream at bit offsets `k..k+4`.
fn set_bits(words: &mut [u64], k: usize, tail: [u8; 4]) {
    for (i, b) in tail.into_iter().enumerate() {
        words[(k + i) >> 6] |= u64::from(b) << ((k + i) & 63);
    }
}

/// Run one RSC constituent over `nbits` packed input bits: writes the
/// feedback stream to `a` and the parity stream to `z` (both
/// `nbits.div_ceil(64)` words, garbage above bit `nbits-1` of the last
/// word is never read) and returns the trellis state after the last
/// information bit.
fn rsc_packed(isa: EncoderIsa, u: &[u64], nbits: usize, a: &mut [u64], z: &mut [u64]) -> u8 {
    assert!(a.len() >= u.len() && z.len() >= u.len(), "output words");
    match isa {
        EncoderIsa::Word64 => rsc_words_u64(u, a, z),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: with_isa / best() guarantee the feature is present.
        EncoderIsa::Sse2 => unsafe { rsc_words_sse2(u, a, z) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        EncoderIsa::Avx2 => unsafe { rsc_words_avx2(u, a, z) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        EncoderIsa::Avx512 => unsafe { rsc_words_avx512(u, a, z) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => rsc_words_u64(u, a, z),
    }
    final_state(a, nbits)
}

/// Trellis state `(a₋₁ << 2) | (a₋₂ << 1) | a₋₃` read from the last
/// three feedback bits of the packed stream.
fn final_state(a: &[u64], nbits: usize) -> u8 {
    debug_assert!(nbits >= 3);
    let bit = |i: usize| ((a[i >> 6] >> (i & 63)) & 1) as u8;
    (bit(nbits - 1) << 2) | (bit(nbits - 2) << 1) | bit(nbits - 3)
}

/// One 64-step trellis advance: feedback word and parity word from an
/// input word plus the previous feedback word (for the cross-word
/// taps). The five doubling steps compute `t · 1/g0 mod D⁶⁴`.
#[inline]
fn rsc_word(u: u64, prev_a: u64) -> (u64, u64) {
    // fold the previous word's top three feedback bits into the first
    // taps of this word: u'₀ gets a₋₂⊕a₋₃, u'₁ gets a₋₁⊕a₋₂, u'₂ gets a₋₁
    let mut t = u ^ (prev_a >> 62) ^ (prev_a >> 61);
    t ^= (t << 2) ^ (t << 3); //  × (1 + p),    p  = D² + D³
    t ^= (t << 4) ^ (t << 6); //  × (1 + p²)
    t ^= (t << 8) ^ (t << 12); // × (1 + p⁴)
    t ^= (t << 16) ^ (t << 24); // × (1 + p⁸)
    t ^= (t << 32) ^ (t << 48); // × (1 + p¹⁶)
                                // z = a · (1 + D + D³), with the a₋₁/a₋₃ taps of bits 0..2 coming
                                // from the previous word
    let z = t ^ (t << 1) ^ (t << 3) ^ (prev_a >> 63) ^ (prev_a >> 61);
    (t, z)
}

/// Portable kernel: 64 trellis steps per iteration.
fn rsc_words_u64(u: &[u64], a: &mut [u64], z: &mut [u64]) {
    let mut prev = 0u64;
    for ((&uw, aw), zw) in u.iter().zip(a.iter_mut()).zip(z.iter_mut()) {
        let (an, zn) = rsc_word(uw, prev);
        *aw = an;
        *zw = zn;
        prev = an;
    }
}

/// SSE2 kernel: 128 trellis steps per register. Identical math to
/// [`rsc_word`] plus a sixth doubling step `(1 + p³²)`, whose
/// `D⁶⁴`/`D⁹⁶` shifts cross the 64-bit lanes via `pslldq`.
///
/// # Safety
/// The host must support SSE2, and `a` and `z` must be at least as long
/// as `u`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse2")]
unsafe fn rsc_words_sse2(u: &[u64], a: &mut [u64], z: &mut [u64]) {
    use core::arch::x86_64::*;
    // SAFETY: the ISA is the caller's; every 16-byte store covers
    // words `i..i + 2` with `i + 2 <= u.len()`, and `a` and `z`
    // are at least as long as `u` (asserted in `rsc_packed`).
    unsafe {
        // full-register left shift by 0 < n < 64: per-lane shift plus the
        // bits that cross the lane boundary
        macro_rules! shl {
            ($x:expr, $n:literal) => {{
                let x = $x;
                _mm_or_si128(
                    _mm_slli_epi64::<$n>(x),
                    _mm_srli_epi64::<{ 64 - $n }>(_mm_slli_si128::<8>(x)),
                )
            }};
        }
        let mut prev_hi = 0u64;
        let mut i = 0;
        while i + 2 <= u.len() {
            // cross-register taps folded scalar into the low lane only
            let lo = u[i] ^ (prev_hi >> 62) ^ (prev_hi >> 61);
            let mut t = _mm_set_epi64x(u[i + 1] as i64, lo as i64);
            t = _mm_xor_si128(t, _mm_xor_si128(shl!(t, 2), shl!(t, 3)));
            t = _mm_xor_si128(t, _mm_xor_si128(shl!(t, 4), shl!(t, 6)));
            t = _mm_xor_si128(t, _mm_xor_si128(shl!(t, 8), shl!(t, 12)));
            t = _mm_xor_si128(t, _mm_xor_si128(shl!(t, 16), shl!(t, 24)));
            t = _mm_xor_si128(t, _mm_xor_si128(shl!(t, 32), shl!(t, 48)));
            let t64 = _mm_slli_si128::<8>(t); // × (1 + p³²): D⁶⁴ + D⁹⁶
            t = _mm_xor_si128(t, _mm_xor_si128(t64, shl!(t64, 32)));
            _mm_storeu_si128(a.as_mut_ptr().add(i).cast(), t);
            let zz = _mm_xor_si128(t, _mm_xor_si128(shl!(t, 1), shl!(t, 3)));
            _mm_storeu_si128(z.as_mut_ptr().add(i).cast(), zz);
            z[i] ^= (prev_hi >> 63) ^ (prev_hi >> 61);
            prev_hi = a[i + 1];
            i += 2;
        }
        while i < u.len() {
            let (an, zn) = rsc_word(u[i], prev_hi);
            a[i] = an;
            z[i] = zn;
            prev_hi = an;
            i += 1;
        }
    }
}

/// AVX2 kernel: 256 trellis steps per register, seven doubling steps.
/// `_mm256_slli_si256` only shifts within 128-bit lanes, so whole-
/// register lane moves go through `vpermq` + a blend-with-zero.
///
/// # Safety
/// The host must support AVX2, and `a` and `z` must be at least as long
/// as `u`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn rsc_words_avx2(u: &[u64], a: &mut [u64], z: &mut [u64]) {
    use core::arch::x86_64::*;
    // SAFETY: the ISA is the caller's; every 32-byte load and store
    // covers words `i..i + 4` with `i + 4 <= u.len()`, and `a` and `z`
    // are at least as long as `u` (asserted in `rsc_packed`).
    unsafe {
        // whole-register << 64: every 64-bit lane up one, lane 0 zeroed
        macro_rules! up1 {
            ($x:expr) => {
                _mm256_blend_epi32::<0x03>(
                    _mm256_permute4x64_epi64::<0x90>($x),
                    _mm256_setzero_si256(),
                )
            };
        }
        // full-register left shift by 0 < n < 64
        macro_rules! shl {
            ($x:expr, $n:literal) => {{
                let x = $x;
                _mm256_or_si256(
                    _mm256_slli_epi64::<$n>(x),
                    _mm256_srli_epi64::<{ 64 - $n }>(up1!(x)),
                )
            }};
        }
        let mut prev_hi = 0u64;
        let mut i = 0;
        while i + 4 <= u.len() {
            let lo = u[i] ^ (prev_hi >> 62) ^ (prev_hi >> 61);
            let fix = _mm256_set_epi64x(0, 0, 0, (lo ^ u[i]) as i64);
            let mut t = _mm256_xor_si256(_mm256_loadu_si256(u.as_ptr().add(i).cast()), fix);
            t = _mm256_xor_si256(t, _mm256_xor_si256(shl!(t, 2), shl!(t, 3)));
            t = _mm256_xor_si256(t, _mm256_xor_si256(shl!(t, 4), shl!(t, 6)));
            t = _mm256_xor_si256(t, _mm256_xor_si256(shl!(t, 8), shl!(t, 12)));
            t = _mm256_xor_si256(t, _mm256_xor_si256(shl!(t, 16), shl!(t, 24)));
            t = _mm256_xor_si256(t, _mm256_xor_si256(shl!(t, 32), shl!(t, 48)));
            let t64 = up1!(t); // × (1 + p³²): D⁶⁴ + D⁹⁶
            t = _mm256_xor_si256(t, _mm256_xor_si256(t64, shl!(t64, 32)));
            // × (1 + p⁶⁴): D¹²⁸ + D¹⁹² via vpermq lane broadcasts
            let t128 = _mm256_blend_epi32::<0x0F>(
                _mm256_permute4x64_epi64::<0x40>(t),
                _mm256_setzero_si256(),
            );
            let t192 = _mm256_blend_epi32::<0x3F>(
                _mm256_permute4x64_epi64::<0x00>(t),
                _mm256_setzero_si256(),
            );
            t = _mm256_xor_si256(t, _mm256_xor_si256(t128, t192));
            _mm256_storeu_si256(a.as_mut_ptr().add(i).cast(), t);
            let zz = _mm256_xor_si256(t, _mm256_xor_si256(shl!(t, 1), shl!(t, 3)));
            _mm256_storeu_si256(z.as_mut_ptr().add(i).cast(), zz);
            z[i] ^= (prev_hi >> 63) ^ (prev_hi >> 61);
            prev_hi = a[i + 3];
            i += 4;
        }
        while i < u.len() {
            let (an, zn) = rsc_word(u[i], prev_hi);
            a[i] = an;
            z[i] = zn;
            prev_hi = an;
            i += 1;
        }
    }
}

/// AVX-512 kernel: 512 trellis steps per register, eight doubling
/// steps. Unlike SSE2/AVX2, whole-register qword moves are a single
/// `valignq` against zero — no lane-boundary patch-up — so the extra
/// `(1 + p¹²⁸)` factor (`D²⁵⁶ + D³⁸⁴`) costs just two shift-XORs. Only
/// AVX-512F ops are needed, but dispatch gates on the host ladder's
/// `Avx512bw` level (which probes `avx512f` too).
///
/// # Safety
/// The host must support AVX-512F, and `a` and `z` must be at least as long
/// as `u`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn rsc_words_avx512(u: &[u64], a: &mut [u64], z: &mut [u64]) {
    use core::arch::x86_64::*;
    // SAFETY: the ISA is the caller's; every 64-byte load and store
    // covers words `i..i + 8` with `i + 8 <= u.len()`, and `a` and `z`
    // are at least as long as `u` (asserted in `rsc_packed`).
    unsafe {
        // whole-register shift up by $q qwords (64·$q bits), zero-filled:
        // valignq picks qwords $q .. $q+7 of zero:x
        macro_rules! up {
            ($x:expr, $q:literal) => {
                _mm512_alignr_epi64::<{ 8 - $q }>($x, _mm512_setzero_si512())
            };
        }
        // full-register left shift by 0 < n < 64
        macro_rules! shl {
            ($x:expr, $n:literal) => {{
                let x = $x;
                _mm512_or_si512(
                    _mm512_slli_epi64::<$n>(x),
                    _mm512_srli_epi64::<{ 64 - $n }>(up!(x, 1)),
                )
            }};
        }
        let mut prev_hi = 0u64;
        let mut i = 0;
        while i + 8 <= u.len() {
            let lo = u[i] ^ (prev_hi >> 62) ^ (prev_hi >> 61);
            let fix = _mm512_set_epi64(0, 0, 0, 0, 0, 0, 0, (lo ^ u[i]) as i64);
            let mut t = _mm512_xor_si512(_mm512_loadu_si512(u.as_ptr().add(i).cast()), fix);
            t = _mm512_xor_si512(t, _mm512_xor_si512(shl!(t, 2), shl!(t, 3)));
            t = _mm512_xor_si512(t, _mm512_xor_si512(shl!(t, 4), shl!(t, 6)));
            t = _mm512_xor_si512(t, _mm512_xor_si512(shl!(t, 8), shl!(t, 12)));
            t = _mm512_xor_si512(t, _mm512_xor_si512(shl!(t, 16), shl!(t, 24)));
            t = _mm512_xor_si512(t, _mm512_xor_si512(shl!(t, 32), shl!(t, 48)));
            let t64 = up!(t, 1); // × (1 + p³²): D⁶⁴ + D⁹⁶
            t = _mm512_xor_si512(t, _mm512_xor_si512(t64, shl!(t64, 32)));
            // × (1 + p⁶⁴): D¹²⁸ + D¹⁹²
            t = _mm512_xor_si512(t, _mm512_xor_si512(up!(t, 2), up!(t, 3)));
            // × (1 + p¹²⁸): D²⁵⁶ + D³⁸⁴
            t = _mm512_xor_si512(t, _mm512_xor_si512(up!(t, 4), up!(t, 6)));
            _mm512_storeu_si512(a.as_mut_ptr().add(i).cast(), t);
            let zz = _mm512_xor_si512(t, _mm512_xor_si512(shl!(t, 1), shl!(t, 3)));
            _mm512_storeu_si512(z.as_mut_ptr().add(i).cast(), zz);
            z[i] ^= (prev_hi >> 63) ^ (prev_hi >> 61);
            prev_hi = a[i + 7];
            i += 8;
        }
        while i < u.len() {
            let (an, zn) = rsc_word(u[i], prev_hi);
            a[i] = an;
            z[i] = zn;
            prev_hi = an;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::random_bits;
    use crate::turbo::TurboEncoder;
    use vran_simd::host::tiers;

    #[test]
    fn word64_is_always_available_and_first() {
        assert_eq!(EncoderIsa::LADDER[0], EncoderIsa::Word64);
        assert_eq!(EncoderIsa::Word64.required_isa(), HostIsa::Scalar);
        assert_eq!(Some(EncoderIsa::best()), tiers::<EncoderIsa>().last());
    }

    #[test]
    fn packed_matches_scalar_oracle_on_every_isa() {
        // word-boundary shapes: sub-word, exactly 1/2/many words, and
        // the largest K
        for k in [40usize, 64, 104, 128, 256, 512, 2048, 6144] {
            let bits = random_bits(k, k as u64);
            let oracle = TurboEncoder::new(k).encode(&bits);
            for isa in tiers::<EncoderIsa>() {
                let got = PackedTurboEncoder::with_isa(k, isa).encode(&bits);
                assert_eq!(got, oracle, "K={k} isa={}", isa.name());
            }
        }
    }

    #[test]
    fn packed_dstreams_match_oracle_dstreams() {
        let k = 6144;
        let bits = random_bits(k, 9);
        let oracle = TurboEncoder::new(k).encode(&bits).to_dstreams();
        let enc = PackedTurboEncoder::new(k);
        let mut scratch = EncodeScratch::new();
        enc.encode_dstreams_into(&bits, &mut scratch);
        for (got, want) in scratch.dstream_words().into_iter().zip(&oracle) {
            assert_eq!(unpack_lsb_words(got, k + 4), *want);
        }
    }

    #[test]
    fn packed_all_zero_input_yields_all_zero_dstreams() {
        let enc = PackedTurboEncoder::new(40);
        let mut scratch = EncodeScratch::new();
        enc.encode_dstreams_into(&[0; 40], &mut scratch);
        for s in scratch.dstream_words() {
            assert!(s.iter().all(|&w| w == 0));
        }
    }

    #[test]
    fn packed_impulse_feedback_is_iir() {
        // a single 1 at t=0 must smear through the feedback register —
        // the IIR 1/g0 series — exactly as the trellis walk produces it
        let mut bits = vec![0u8; 128];
        bits[0] = 1;
        let oracle = TurboEncoder::new(128).encode(&bits);
        for isa in tiers::<EncoderIsa>() {
            let got = PackedTurboEncoder::with_isa(128, isa).encode(&bits);
            assert_eq!(got, oracle, "isa {}", isa.name());
        }
        assert!(oracle.p1[64..].contains(&1), "IIR must cross the word");
    }

    #[test]
    fn packed_scratch_stops_allocating_after_warmup() {
        let enc = PackedTurboEncoder::new(6144);
        let bits = random_bits(6144, 3);
        let mut scratch = EncodeScratch::new();
        enc.encode_dstreams_into(&bits, &mut scratch);
        let after_warmup = scratch.allocations();
        for _ in 0..5 {
            enc.encode_dstreams_into(&bits, &mut scratch);
        }
        assert_eq!(scratch.allocations(), after_warmup);
        assert_eq!(scratch.reuses(), 5);
    }

    #[test]
    fn scratch_shrinks_and_regrows_across_block_sizes() {
        let big = PackedTurboEncoder::new(6144);
        let small = PackedTurboEncoder::new(40);
        let mut scratch = EncodeScratch::new();
        big.encode_dstreams_into(&random_bits(6144, 1), &mut scratch);
        small.encode_dstreams_into(&random_bits(40, 2), &mut scratch);
        // shrinking reuses capacity
        assert_eq!(scratch.reuses(), 1);
        let b = random_bits(6144, 4);
        let oracle = TurboEncoder::new(6144).encode(&b);
        big.encode_dstreams_into(&b, &mut scratch);
        let got = unpack_lsb_words(scratch.dstream_words()[1], 6144);
        assert_eq!(got, oracle.p1, "stale scratch state leaked");
    }

    #[test]
    #[should_panic(expected = "39 is not a legal turbo code block size")]
    fn wrong_block_size_panics() {
        PackedTurboEncoder::new(40).encode(&[0; 39]);
    }

    #[test]
    fn avx512_encoder_beats_avx2_at_max_k() {
        // The acceptance bar for the 512-bit tier: at K=6144 the zmm
        // kernel must out-encode the ymm kernel in wall-clock. Skipped
        // (not failed) where the host lacks AVX-512BW — exactness is
        // covered unconditionally by the oracle tests.
        if !host::has(HostIsa::Avx512bw) {
            eprintln!("avx512_encoder_beats_avx2_at_max_k: SKIPPED (no avx512bw)");
            return;
        }
        let _clock = crate::wall_clock();
        let k = 6144;
        let bits = random_bits(k, 42);
        let scratch = std::cell::RefCell::new(EncodeScratch::new());
        let burst_s = |enc: &PackedTurboEncoder| -> f64 {
            let scratch = &mut scratch.borrow_mut();
            let t = std::time::Instant::now();
            for _ in 0..64 {
                enc.encode_dstreams_into(std::hint::black_box(&bits), scratch);
            }
            t.elapsed().as_secs_f64()
        };
        let ymm_enc = PackedTurboEncoder::with_isa(k, EncoderIsa::Avx2);
        let zmm_enc = PackedTurboEncoder::with_isa(k, EncoderIsa::Avx512);
        burst_s(&ymm_enc); // warm-up
        burst_s(&zmm_enc);
        // The median of 41 alternated pairs of 64-encode bursts: the
        // kernels differ in only part of the encode, so the gap is a few
        // per cent, enough pairs that the median holds it. With an odd
        // count, the median of `zmm / ymm` is the reciprocal of the
        // median of `ymm / zmm`.
        let pairs =
            vran_util::paired::paired_ratio(41, 0.0, || burst_s(&ymm_enc), || burst_s(&zmm_enc));
        let speedup = 1.0 / pairs.median;
        let (ymm, zmm) = (pairs.a_s * 1e9 / 64.0, pairs.b_s * 1e9 / 64.0);
        assert!(
            speedup > 1.0,
            "512-bit encode must beat 256-bit at K={k}: {speedup:.2}× \
             ({ymm:.0} ns avx2 vs {zmm:.0} ns avx512)"
        );
        assert!(
            speedup < 3.0,
            "speedup cannot wildly exceed the width advantage: {speedup:.2}×"
        );
    }
}
