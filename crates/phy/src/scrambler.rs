//! TS 36.211 §7.2 pseudo-random (Gold) sequence and §6.3.1 scrambling.
//!
//! The length-31 Gold sequence `c(n) = x1(n+Nc) ⊕ x2(n+Nc)` with
//! `Nc = 1600`, `x1` seeded to `1`, and `x2` seeded from the scrambling
//! identity `c_init` (built from RNTI/cell id/slot per §6.3.1).
//!
//! Three things keep the generator off the critical path; the
//! bit-serial [`GoldSequence::new_bit_serial`] / `step` pair is the
//! oracle for all of them:
//!
//! * **The warmup is a leap.** `Nc = 1600` steps are a GF(2)-linear map,
//!   jumped in O(31) with compile-time `M^1600` parity masks
//!   (`leap_masks`) — constructing a generator takes **zero** serial
//!   warmup steps (pinned by [`bit_serial_warmup_steps`] in tests).
//! * **The first 31 words are window extensions.** Both 31-bit
//!   Fibonacci LFSRs extend their state window inside a `u64` (two
//!   shift/XOR passes produce 33 future bits from the 31 live ones),
//!   32 scrambling bits per step ([`GoldSequence::next_word`]) — but
//!   each step waits for the one before, ≈ 12 cycles.
//! * **Every later word is a word recurrence**
//!   ([`GoldSequence::fill_words`]). Squaring is the Frobenius map of
//!   `GF(2)[x]`: `(a + b)² = a² + b²`, so squaring a feedback polynomial
//!   only doubles its exponents, and five squarings of `x³¹ + x³ + 1`
//!   give `(x³¹ + x³ + 1)³² = x⁹⁹² + x⁹⁶ + 1`. A sequence annihilated by
//!   a polynomial is annihilated by its multiples, so `x1(n + 992) =
//!   x1(n + 96) ⊕ x1(n)` for every `n`: the same taps at 32 × the
//!   distance, which is the *word* index. With `W[i]` the `i`-th
//!   32-bit output word of a register,
//!   `W₁[i+31] = W₁[i+3] ⊕ W₁[i]` and
//!   `W₂[i+31] = W₂[i+3] ⊕ W₂[i+2] ⊕ W₂[i+1] ⊕ W₂[i]`, whole words at
//!   a time, and since the nearest operand is 28 words back, any 28
//!   consecutive words are mutually independent: plain vector XORs.
//!
//! Consumers draw the words into a stack buffer and apply them at
//! register width: [`scramble_bits`] XORs them in through the bit
//! plane's expand primitive ([`crate::bits`]), the LLR descramblers
//! flip signs as saturating `0 − x` selects (`vpsubsw` + mask/blend)
//! with the established AVX-512BW → AVX2 → SSE2 → scalar-word runtime
//! dispatch ([`DescrambleImpl`]), each tier one loop inside one
//! `#[target_feature]` function reading its lane masks from the buffer;
//! every tier reproduces the bit-serial [`descramble_llrs`] reference
//! exactly, including its `saturating_neg` edge at `i16::MIN`.

use std::cell::Cell;

use crate::bits::expand_words;
use vran_simd::host::{best_tier, HostIsa, Tier};

/// Offset into the m-sequences (spec constant).
const NC: usize = 1600;

/// Feedback tap masks (bit `i` set ⇔ `x(n+i)` feeds `x(n+31)`).
const X1_TAPS: u32 = 0b1001; // x1(n+31) = x1(n+3) ⊕ x1(n)
const X2_TAPS: u32 = 0b1111; // x2(n+31) = x2(n+3) ⊕ x2(n+2) ⊕ x2(n+1) ⊕ x2(n)

thread_local! {
    /// Serial warmup steps taken on this thread by
    /// [`GoldSequence::new_bit_serial`]. The leap-based
    /// [`GoldSequence::new`] never increments it; tests pin the
    /// steady-state delta to zero. Per thread, so a test reading a
    /// delta never sees a concurrent test's constructions.
    static BIT_SERIAL_WARMUP_STEPS: Cell<u64> = const { Cell::new(0) };
}

/// Total serial warmup steps taken on the calling thread (reference
/// constructor only — the production leap path contributes none).
pub fn bit_serial_warmup_steps() -> u64 {
    BIT_SERIAL_WARMUP_STEPS.get()
}

#[cfg(test)]
thread_local! {
    /// Window-extension word steps (each waits for the one before)
    /// taken on this thread; tests pin what a packet costs.
    static SERIAL_WORD_STEPS: Cell<u64> = const { Cell::new(0) };
}

/// Words the recurrence reaches back, so also the words that seed it.
const SEED: usize = 31;
/// Words [`GoldSequence::fill_words`] extends its histories by at a
/// time: fourteen 16-word steps.
const REFILL: usize = 16 * 14;
/// Words a consumer draws per [`GoldSequence::fill_words`] call (32 768
/// bits: a packet pays the serial seed words once).
const WORD_CHUNK: usize = 1024;

/// Parity masks for `steps` applications of the 31-bit LFSR with the
/// given feedback `taps`: bit `i` of the post-leap state is the parity
/// of `masks[i] & state`. Evaluated at compile time (the warmup leap
/// is `M^1600` over GF(2)).
const fn leap_masks(taps: u32, steps: usize) -> [u32; 31] {
    let mut m = [0u32; 31];
    let mut i = 0;
    while i < 31 {
        m[i] = 1 << i;
        i += 1;
    }
    let mut s = 0;
    while s < steps {
        let mut nm = [0u32; 31];
        let mut j = 0;
        while j < 30 {
            nm[j] = m[j + 1];
            j += 1;
        }
        let mut t = 0u32;
        let mut b = 0;
        while b < 31 {
            if (taps >> b) & 1 == 1 {
                t ^= m[b];
            }
            b += 1;
        }
        nm[30] = t;
        m = nm;
        s += 1;
    }
    m
}

const X1_LEAP: [u32; 31] = leap_masks(X1_TAPS, NC);
const X2_LEAP: [u32; 31] = leap_masks(X2_TAPS, NC);

/// Apply a leap (31 parity masks) to a state word.
const fn apply_leap(masks: &[u32; 31], state: u32) -> u32 {
    let mut out = 0u32;
    let mut i = 0;
    while i < 31 {
        out |= ((masks[i] & state).count_ones() & 1) << i;
        i += 1;
    }
    out
}

/// `x1` after the `Nc` warmup — a constant, since `x1` always seeds to 1.
const X1_POST_NC: u32 = apply_leap(&X1_LEAP, 1);

/// Advance the `x1` register 32 steps: returns `(next 32 output bits
/// LSB-first, new state)`. The `u64` window holds `x(n..n+31)`; two
/// shifted-XOR passes extend it to `x(n..n+63)` (the first computes
/// bits 31..58 from live bits, the second bits 59..63 from the fresh
/// ones), then bits 32..62 become the new state.
#[inline]
fn x1_word(x: u32) -> (u32, u32) {
    let mut e = x as u64;
    e |= (((e >> 3) ^ e) & 0x0FFF_FFFF) << 31;
    e |= (((e >> 31) ^ (e >> 28)) & 0x1F) << 59;
    (e as u32, ((e >> 32) & 0x7FFF_FFFF) as u32)
}

/// Advance the `x2` register 32 steps (same window-extension scheme,
/// four-tap feedback).
#[inline]
fn x2_word(x: u32) -> (u32, u32) {
    let mut e = x as u64;
    e |= ((e ^ (e >> 1) ^ (e >> 2) ^ (e >> 3)) & 0x0FFF_FFFF) << 31;
    e |= (((e >> 28) ^ (e >> 29) ^ (e >> 30) ^ (e >> 31)) & 0x1F) << 59;
    (e as u32, ((e >> 32) & 0x7FFF_FFFF) as u32)
}

/// Gold-sequence generator producing scrambling bits.
#[derive(Debug, Clone)]
pub struct GoldSequence {
    x1: u32,
    x2: u32,
}

impl GoldSequence {
    /// Initialize from `c_init`, jumping the `Nc` warmup in O(31) via
    /// the compile-time `M^1600` parity masks (zero serial steps).
    pub fn new(c_init: u32) -> Self {
        Self {
            x1: X1_POST_NC,
            x2: apply_leap(&X2_LEAP, c_init & 0x7FFF_FFFF),
        }
    }

    /// Bit-serial reference constructor: steps both registers through
    /// the full `Nc = 1600` warmup one bit at a time. Kept as the
    /// oracle for the leap and for the steady-state "zero warmup
    /// steps" counter test.
    pub fn new_bit_serial(c_init: u32) -> Self {
        let mut g = Self {
            x1: 1,
            x2: c_init & 0x7FFF_FFFF,
        };
        for _ in 0..NC {
            g.step();
        }
        BIT_SERIAL_WARMUP_STEPS.set(BIT_SERIAL_WARMUP_STEPS.get() + NC as u64);
        g
    }

    /// The §6.3.1 PDSCH/PUSCH initialization value:
    /// `c_init = rnti·2¹⁴ + q·2¹³ + ⌊ns/2⌋·2⁹ + cell_id`.
    pub fn c_init_pxsch(rnti: u16, q: u8, ns: u8, cell_id: u16) -> u32 {
        ((rnti as u32) << 14)
            | ((q as u32 & 1) << 13)
            | (((ns as u32 / 2) & 0xF) << 9)
            | (cell_id as u32 & 0x1FF)
    }

    /// Advance both registers one step and return the output bit.
    fn step(&mut self) -> u8 {
        // x1: x1(n+31) = x1(n+3) ⊕ x1(n)
        let n1 = ((self.x1 >> 3) ^ self.x1) & 1;
        // x2: x2(n+31) = x2(n+3) ⊕ x2(n+2) ⊕ x2(n+1) ⊕ x2(n)
        let n2 = ((self.x2 >> 3) ^ (self.x2 >> 2) ^ (self.x2 >> 1) ^ self.x2) & 1;
        let out = ((self.x1 ^ self.x2) & 1) as u8;
        self.x1 = (self.x1 >> 1) | (n1 << 30);
        self.x2 = (self.x2 >> 1) | (n2 << 30);
        out
    }

    /// Produce the next 32 scrambling bits as one word, LSB-first
    /// (bit `i` of the word is `c(n+i)`), advancing 32 steps.
    #[inline]
    pub fn next_word(&mut self) -> u32 {
        let (w1, n1) = x1_word(self.x1);
        let (w2, n2) = x2_word(self.x2);
        self.x1 = n1;
        self.x2 = n2;
        #[cfg(test)]
        SERIAL_WORD_STEPS.set(SERIAL_WORD_STEPS.get() + 1);
        w1 ^ w2
    }

    /// Produce the next `out.len()` words of [`Self::next_word`]. The
    /// first 31 are window extensions, each waiting for the one before;
    /// the rest come from the word recurrences (module docs), so a long
    /// draw costs 31 serial steps however long it is.
    pub fn fill_words(&mut self, out: &mut [u32]) {
        let (mut x1, mut x2) = ([0u32; SEED + REFILL], [0u32; SEED + REFILL]);
        let seeded = out.len().min(SEED);
        for i in 0..seeded {
            (x1[i], self.x1) = x1_word(self.x1);
            (x2[i], self.x2) = x2_word(self.x2);
        }
        #[cfg(test)]
        SERIAL_WORD_STEPS.set(SERIAL_WORD_STEPS.get() + seeded as u64);
        let mut last = 0;
        for chunk in out.chunks_mut(REFILL) {
            if last == REFILL {
                x1.copy_within(REFILL.., 0);
                x2.copy_within(REFILL.., 0);
            }
            // 16 mutually independent words per step (any 28 are)
            for i in (SEED..SEED + if seeded == SEED { REFILL } else { 0 }).step_by(16) {
                let a: [u32; 16] = core::array::from_fn(|j| x1[i + j - 31] ^ x1[i + j - 28]);
                let b: [u32; 16] = core::array::from_fn(|j| {
                    x2[i + j - 31] ^ x2[i + j - 30] ^ x2[i + j - 29] ^ x2[i + j - 28]
                });
                x1[i..i + 16].copy_from_slice(&a);
                x2[i..i + 16].copy_from_slice(&b);
            }
            for (o, (a, b)) in chunk.iter_mut().zip(x1.iter().zip(&x2)) {
                *o = a ^ b;
            }
            last = chunk.len();
        }
        // A register is the low 31 bits of its next word; a draw too
        // short to recur has stepped them there.
        if seeded == SEED {
            (self.x1, self.x2) = (x1[last] & 0x7FFF_FFFF, x2[last] & 0x7FFF_FFFF);
        }
    }

    /// Produce the next `n` scrambling bits.
    pub fn take(&mut self, n: usize) -> Vec<u8> {
        let mut words = vec![0; n / 32];
        self.fill_words(&mut words);
        let mut out = vec![0; n];
        let (whole, tail) = out.split_at_mut(32 * words.len());
        expand_words::<false>(&words, whole);
        tail.fill_with(|| self.step());
        out
    }
}

/// Scramble a bit sequence in place: `b̃(i) = b(i) ⊕ c(i)` — the Gold
/// words XORed into the bit-per-byte buffer by the bit plane's expand
/// primitive, 64 bits per step. Each byte has `{0,1}` XORed into it
/// whatever it held. Bit-exact with [`scramble_bits_serial`].
pub fn scramble_bits(bits: &mut [u8], c_init: u32) {
    let mut g = GoldSequence::new(c_init);
    let mut words = [0; WORD_CHUNK];
    for chunk in bits.chunks_mut(32 * WORD_CHUNK) {
        let words = &mut words[..chunk.len().div_ceil(32)];
        g.fill_words(words);
        expand_words::<true>(words, chunk);
    }
}

/// Bit-serial reference scrambler (one Gold step per bit); the oracle
/// for [`scramble_bits`].
pub fn scramble_bits_serial(bits: &mut [u8], c_init: u32) {
    let mut g = GoldSequence::new(c_init);
    for b in bits.iter_mut() {
        *b ^= g.step();
    }
}

/// Descramble soft values: flip LLR signs where the scrambling bit is 1
/// (XOR with bit 1 swaps the 0/1 hypotheses). Bit-serial reference —
/// the oracle for [`descramble_llrs_with`].
pub fn descramble_llrs(llrs: &mut [i16], c_init: u32) {
    let mut g = GoldSequence::new(c_init);
    for l in llrs.iter_mut() {
        if g.step() == 1 {
            *l = l.saturating_neg();
        }
    }
}

/// Native LLR-descramble kernel tiers, least to most capable. Every
/// tier flips signs as a *saturating* negate under the Gold mask, so
/// all of them match the scalar [`descramble_llrs`] bit for bit
/// (including `i16::MIN → i16::MAX`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DescrambleImpl {
    /// Word-parallel Gold, scalar sign-select — the dispatch floor.
    ScalarWord,
    /// 8 LLRs per step: LUT byte-mask widen + `psubsw` and/andnot/or.
    Sse2,
    /// 16 LLRs per step: sign-extended byte masks + `vpblendvb`.
    Avx2,
    /// 32 LLRs per step: the Gold word *is* the `__mmask32` for a
    /// masked `vpsubsw`.
    Avx512bw,
}

impl DescrambleImpl {
    /// Stable label for metrics and logs.
    pub fn name(self) -> &'static str {
        match self {
            DescrambleImpl::ScalarWord => "scalar",
            DescrambleImpl::Sse2 => "sse2",
            DescrambleImpl::Avx2 => "avx2",
            DescrambleImpl::Avx512bw => "avx512bw",
        }
    }
}

impl Tier for DescrambleImpl {
    const LADDER: &'static [DescrambleImpl] = &[
        DescrambleImpl::ScalarWord,
        DescrambleImpl::Sse2,
        DescrambleImpl::Avx2,
        DescrambleImpl::Avx512bw,
    ];

    fn required_isa(self) -> HostIsa {
        match self {
            DescrambleImpl::ScalarWord => HostIsa::Scalar,
            DescrambleImpl::Sse2 => HostIsa::Sse2,
            DescrambleImpl::Avx2 => HostIsa::Avx2,
            DescrambleImpl::Avx512bw => HostIsa::Avx512bw,
        }
    }
}

/// The most capable descramble tier on this host.
pub fn best_descramble() -> DescrambleImpl {
    best_tier()
}

/// Descramble LLRs with an explicit kernel tier. All tiers are
/// bit-exact with [`descramble_llrs`]. Panics if the host lacks `imp`.
pub fn descramble_llrs_with(imp: DescrambleImpl, llrs: &mut [i16], c_init: u32) {
    assert!(imp.usable(), "host lacks {}", imp.name());
    let mut g = GoldSequence::new(c_init);
    let mut words = [0; WORD_CHUNK];
    for chunk in llrs.chunks_mut(32 * WORD_CHUNK) {
        let words = &mut words[..chunk.len().div_ceil(32)];
        g.fill_words(words);
        let (body, tail) = chunk.split_at_mut(chunk.len() & !31);
        let (lanes, last) = words.split_at(body.len() / 32);
        match imp {
            DescrambleImpl::ScalarWord => descramble_words_scalar(body, lanes),
            // SAFETY: the host has the tier, checked above (all three arms).
            #[cfg(target_arch = "x86_64")]
            DescrambleImpl::Sse2 => unsafe { x86::descramble_sse2(body, lanes) },
            #[cfg(target_arch = "x86_64")]
            DescrambleImpl::Avx2 => unsafe { x86::descramble_avx2(body, lanes) },
            #[cfg(target_arch = "x86_64")]
            DescrambleImpl::Avx512bw => unsafe { x86::descramble_avx512(body, lanes) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => descramble_words_scalar(body, lanes),
        }
        descramble_words_scalar(tail, last);
    }
}

/// Scalar sign-select, up to 32 LLRs per mask word.
fn descramble_words_scalar(llrs: &mut [i16], words: &[u32]) {
    for (block, &w) in llrs.chunks_mut(32).zip(words) {
        for (k, l) in block.iter_mut().enumerate() {
            if (w >> k) & 1 == 1 {
                *l = l.saturating_neg();
            }
        }
    }
}

/// The native tiers: `llrs` is 32 per mask word, and a flipped lane
/// takes the saturating `0 − x`.
#[cfg(target_arch = "x86_64")]
mod x86 {
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// Lane `j` holds bit `j`: a broadcast mask ANDed with this and
    /// compared with it is all-ones in the lanes whose bit is set.
    #[rustfmt::skip]
    const LANE_BIT: [i16; 16] = [
        1, 2, 4, 8, 16, 32, 64, 128, 1 << 8, 1 << 9, 1 << 10, 1 << 11, 1 << 12, 1 << 13, 1 << 14, i16::MIN,
    ];

    /// # Safety
    /// Caller guarantees SSE2.
    #[target_feature(enable = "sse2")]
    pub unsafe fn descramble_sse2(llrs: &mut [i16], words: &[u32]) {
        // SAFETY: SSE2 is the caller's; each store writes back the 8 LLRs
        // of the chunk it loaded.
        unsafe {
            let (zero, bit) = (
                _mm_setzero_si128(),
                _mm_loadu_si128(LANE_BIT.as_ptr().cast()),
            );
            for (q, oct) in llrs.chunks_exact_mut(8).enumerate() {
                let p = oct.as_mut_ptr().cast::<__m128i>();
                let v = _mm_loadu_si128(p);
                let w = _mm_set1_epi16((words[q / 4] >> (8 * (q % 4)) & 0xFF) as i16);
                let m = _mm_cmpeq_epi16(_mm_and_si128(w, bit), bit);
                let neg = _mm_subs_epi16(zero, v);
                _mm_storeu_si128(
                    p,
                    _mm_or_si128(_mm_and_si128(m, neg), _mm_andnot_si128(m, v)),
                );
            }
        }
    }

    /// # Safety
    /// Caller guarantees AVX2.
    #[target_feature(enable = "avx2")]
    pub unsafe fn descramble_avx2(llrs: &mut [i16], words: &[u32]) {
        // SAFETY: AVX2 is the caller's; each store writes back the 16 LLRs
        // of the chunk it loaded.
        unsafe {
            let (zero, bit) = (
                _mm256_setzero_si256(),
                _mm256_loadu_si256(LANE_BIT.as_ptr().cast()),
            );
            for (h, half) in llrs.chunks_exact_mut(16).enumerate() {
                let p = half.as_mut_ptr().cast::<__m256i>();
                let v = _mm256_loadu_si256(p);
                let w = _mm256_set1_epi16((words[h / 2] >> (16 * (h % 2))) as i16);
                let m = _mm256_cmpeq_epi16(_mm256_and_si256(w, bit), bit);
                _mm256_storeu_si256(p, _mm256_blendv_epi8(v, _mm256_subs_epi16(zero, v), m));
            }
        }
    }

    /// The Gold word *is* the `__mmask32` of a masked `vpsubsw`.
    ///
    /// # Safety
    /// Caller guarantees AVX-512BW.
    #[target_feature(enable = "avx512bw", enable = "avx512f")]
    pub unsafe fn descramble_avx512(llrs: &mut [i16], words: &[u32]) {
        // SAFETY: AVX-512BW is the caller's; each store writes back the 32
        // LLRs of the chunk it loaded.
        unsafe {
            let zero = _mm512_setzero_si512();
            for (block, &w) in llrs.chunks_exact_mut(32).zip(words) {
                let p = block.as_mut_ptr().cast();
                let v = _mm512_loadu_si512(p);
                _mm512_storeu_si512(p, _mm512_mask_subs_epi16(v, w, zero, v));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::random_bits;
    use vran_simd::host::tiers;
    use vran_util::rng::SmallRng;

    #[test]
    fn scramble_is_an_involution() {
        let orig = random_bits(499, 3);
        let mut b = orig.clone();
        scramble_bits(&mut b, 0x0001_2345);
        assert_ne!(b, orig, "scrambling must change the sequence");
        scramble_bits(&mut b, 0x0001_2345);
        assert_eq!(b, orig);
    }

    #[test]
    fn leap_warmup_matches_bit_serial_warmup() {
        let mut rng = SmallRng::seed_from_u64(0xD1CE);
        for _ in 0..64 {
            let c_init = (rng.next_u64() as u32) & 0x7FFF_FFFF;
            let fast = GoldSequence::new(c_init);
            let slow = GoldSequence::new_bit_serial(c_init);
            assert_eq!((fast.x1, fast.x2), (slow.x1, slow.x2), "c_init {c_init:#x}");
        }
        // degenerate seeds too
        for c_init in [0u32, 1, 0x7FFF_FFFF] {
            let fast = GoldSequence::new(c_init);
            let slow = GoldSequence::new_bit_serial(c_init);
            assert_eq!((fast.x1, fast.x2), (slow.x1, slow.x2));
        }
    }

    #[test]
    fn production_constructor_takes_zero_serial_warmup_steps() {
        let before = bit_serial_warmup_steps();
        for c_init in [7u32, 0x1234, 0x7FFF_FFFF] {
            let g = GoldSequence::new(c_init);
            let _ = g.clone().take(32);
            let mut s = g.clone();
            let _ = s.next_word();
        }
        assert_eq!(
            bit_serial_warmup_steps() - before,
            0,
            "leap-based construction must not step the warmup serially"
        );
        let _ = GoldSequence::new_bit_serial(5);
        assert_eq!(
            bit_serial_warmup_steps() - before,
            1600,
            "the reference constructor is the only serial-warmup user"
        );
    }

    #[test]
    fn word_generator_matches_bit_serial_stepping() {
        let mut rng = SmallRng::seed_from_u64(0x601D);
        for _ in 0..16 {
            let c_init = (rng.next_u64() as u32) & 0x7FFF_FFFF;
            let mut serial = GoldSequence::new(c_init);
            let mut word = GoldSequence::new(c_init);
            // long stream: 320 words = 10240 bits
            for i in 0..320 {
                let w = word.next_word();
                for k in 0..32 {
                    assert_eq!(
                        (w >> k) & 1,
                        serial.step() as u32,
                        "c_init {c_init:#x} word {i} bit {k}"
                    );
                }
            }
            // word/step interleave stays coherent
            assert_eq!(word.take(7), serial.take(7));
        }
    }

    #[test]
    fn word_recurrence_matches_bit_serial_stepping() {
        let mut rng = SmallRng::seed_from_u64(0xF111);
        let seeds = (0..64).map(|_| (rng.next_u64() as u32) & 0x7FFF_FFFF);
        for c_init in seeds.chain([0, 1, 0x7FFF_FFFF]) {
            let mut serial = GoldSequence::new(c_init);
            let mut words = [0u32; 4096];
            GoldSequence::new(c_init).fill_words(&mut words);
            for (i, w) in words.iter().enumerate() {
                let want = (0..32).fold(0, |v, k| v | u32::from(serial.step()) << k);
                assert_eq!(*w, want, "c_init {c_init:#x} word {i}");
            }
        }
        // Draws of every length around the seed words and a refill leave
        // the registers where that many serial words leave them.
        for n in (0..70).chain([SEED + REFILL - 1, SEED + REFILL, SEED + REFILL + 1, 600]) {
            let (mut by_draw, mut by_word) = (GoldSequence::new(0x2F0F), GoldSequence::new(0x2F0F));
            let mut words = vec![0; n];
            by_draw.fill_words(&mut words);
            assert!(
                words.iter().all(|&w| w == by_word.next_word()),
                "draw of {n}"
            );
            assert_eq!(
                (by_draw.x1, by_draw.x2),
                (by_word.x1, by_word.x2),
                "after {n}"
            );
            assert_eq!(by_draw.take(45), by_word.take(45), "bits after {n}");
        }
    }

    #[test]
    fn a_packet_costs_the_seed_words_of_serial_generation() {
        // 22 800 bits are the codeword of a 1400 B 64-QAM packet: 713
        // Gold words, of which only the 31 that seed the recurrence
        // wait for one another.
        let before = SERIAL_WORD_STEPS.get();
        scramble_bits(&mut random_bits(22_800, 1), 0x5A5A5);
        assert_eq!(SERIAL_WORD_STEPS.get() - before, 31);
        descramble_llrs_with(best_descramble(), &mut [5; 22_800], 0x5A5A5);
        assert_eq!(SERIAL_WORD_STEPS.get() - before, 62);
        // a draw that needs no recurrence steps only what it draws
        scramble_bits(&mut random_bits(96, 1), 0x5A5A5);
        assert_eq!(SERIAL_WORD_STEPS.get() - before, 65);
    }

    #[test]
    fn word_scramble_matches_bit_serial_reference() {
        for (len, seed) in [
            (0usize, 1u64),
            (31, 2),
            (32, 3),
            (33, 4),
            (257, 5),
            (1440, 6),
        ] {
            let orig = random_bits(len, seed);
            let mut fast = orig.clone();
            let mut slow = orig.clone();
            scramble_bits(&mut fast, 0x00AB_CDEF);
            scramble_bits_serial(&mut slow, 0x00AB_CDEF);
            assert_eq!(fast, slow, "len {len}");
        }
    }

    #[test]
    fn native_descramble_tiers_match_scalar_reference() {
        let mut rng = SmallRng::seed_from_u64(0xDE5C);
        for len in [0usize, 5, 31, 32, 33, 64, 203, 1024, 2049] {
            let orig: Vec<i16> = (0..len).map(|_| rng.next_u64() as i16).collect();
            let c_init = (rng.next_u64() as u32) & 0x7FFF_FFFF;
            let mut expect = orig.clone();
            descramble_llrs(&mut expect, c_init);
            for imp in tiers::<DescrambleImpl>() {
                let mut got = orig.clone();
                descramble_llrs_with(imp, &mut got, c_init);
                assert_eq!(got, expect, "{} len {len}", imp.name());
            }
        }
    }

    #[test]
    fn native_descramble_saturates_i16_min_like_the_reference() {
        // unlike the VM pxor/psubw form, every native tier uses a
        // saturating negate, so i16::MIN flips to i16::MAX exactly as
        // the scalar reference does.
        let orig = vec![i16::MIN; 96];
        let mut expect = orig.clone();
        descramble_llrs(&mut expect, 1);
        assert!(expect.contains(&i16::MAX), "some Gold bits must be 1");
        for imp in tiers::<DescrambleImpl>() {
            let mut got = orig.clone();
            descramble_llrs_with(imp, &mut got, 1);
            assert_eq!(got, expect, "{}", imp.name());
        }
    }

    #[test]
    fn best_descramble_is_last_available() {
        assert_eq!(DescrambleImpl::LADDER[0].required_isa(), HostIsa::Scalar);
        assert_eq!(Some(best_descramble()), tiers::<DescrambleImpl>().last());
    }

    #[test]
    fn different_cinit_different_sequence() {
        let a = GoldSequence::new(1).take(256);
        let b = GoldSequence::new(2).take(256);
        assert_ne!(a, b);
    }

    #[test]
    fn sequence_is_balanced() {
        let s = GoldSequence::new(0xABCDE).take(4096);
        let ones: usize = s.iter().map(|&b| b as usize).sum();
        assert!(
            (1850..2250).contains(&ones),
            "Gold sequence should be balanced: {ones}"
        );
    }

    #[test]
    fn sequence_has_low_serial_correlation() {
        let s = GoldSequence::new(0x5A5A5).take(4096);
        let agree = s.windows(2).filter(|w| w[0] == w[1]).count();
        // ~50% expected for a PN sequence
        assert!(
            (1800..2300).contains(&agree),
            "serial correlation too high: {agree}"
        );
    }

    #[test]
    fn descramble_matches_bit_scrambling() {
        let bits = random_bits(200, 8);
        let mut tx = bits.clone();
        scramble_bits(&mut tx, 777);
        // modulate scrambled bits to LLRs, descramble LLRs, hard-decide
        let mut llrs: Vec<i16> = tx
            .iter()
            .map(|&b| if b == 0 { 100 } else { -100 })
            .collect();
        descramble_llrs(&mut llrs, 777);
        let rx: Vec<u8> = llrs.iter().map(|&l| u8::from(l < 0)).collect();
        assert_eq!(rx, bits);
    }

    #[test]
    fn c_init_packing() {
        let c = GoldSequence::c_init_pxsch(0xFFFF, 1, 19, 503);
        assert_eq!(c & 0x1FF, 503 & 0x1FF);
        assert_eq!((c >> 13) & 1, 1);
        assert_eq!((c >> 9) & 0xF, 9); // floor(19/2)
    }
}
