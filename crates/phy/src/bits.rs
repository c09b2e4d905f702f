//! The bit plane: hard bits as `u8 ∈ {0,1}`, and the two primitives that
//! move them at register width.
//!
//! The 3GPP specs describe everything in terms of bit sequences, and
//! the chain keeps them one bit per byte so that every stage can index,
//! slice and concatenate at any bit offset. The layout is not free: a
//! pass that walks it a byte at a time fills one lane in 64 of a zmm,
//! and before PR 18 such passes were 0.41 of the transmit chain. So
//! nothing here walks bytes: every conversion between this form and a
//! packed one (MSB-first bytes on the wire, LSB-first words in the
//! packed encoder, Gold words in the scrambler, constellation indices
//! in the mapper, CRC message bytes) is one of
//!
//! * **expand** ([`expand_bits`]) — 64 mask bits → 64 `{0,1}` bytes: a
//!   zero-masked byte move at AVX-512BW (`vpmovm2b` class), `pshufb` +
//!   `pcmpeqb` from SSSE3 up, a multiply-spread of eight bits per `u64`
//!   as the portable form;
//! * **compress** ([`compress_bits`]) — 64 bytes → 64 mask bits:
//!   `vptestmb`, or `pcmpeqb` + `pmovmskb`, or a multiply-gather;
//!
//! and a permutation of packed bits never leaves the packed form:
//! **gather** ([`gather_bits`]) reads bit `π(i)` out of the words
//! themselves — `vpgatherdd` at `π(i) >> 5`, a per-lane shift by
//! `π(i) & 31`, the lanes' bits collected as a mask;
//!
//! tier chosen per call by [`vran_simd::host::has`], all bit-identical
//! (the `frontend_exactness` sweep holds every caller to its per-bit
//! oracle under every ISA ceiling). MSB-first callers get their
//! per-byte bit reverse inside the kernel, not as a second pass.

use vran_simd::host::{self, HostIsa};

// Packed words are handed to the kernels as their in-memory bytes.
const _: () = assert!(cfg!(target_endian = "little"));

/// `0x01` in every byte.
const ONES: u64 = 0x0101_0101_0101_0101;
/// Multiplier bits at `9i`: gathers (or spreads) eight bits MSB-first —
/// see [`compress_into`] and [`expand_into`].
const DIAG_MSB: u64 = 0x8040_2010_0804_0201;
/// Multiplier bits at `56 − 7i`: gathers eight bits LSB-first.
const DIAG_LSB: u64 = 0x0102_0408_1020_4080;

/// **Expand**: `out[i]` becomes bit `i` of `words` as a `{0,1}` byte,
/// LSB-first (bit `i % 64` of word `i / 64`), for every `i <
/// out.len()`. Panics if `words` holds fewer than `out.len()` bits.
pub fn expand_bits(words: &[u64], out: &mut [u8]) {
    // SAFETY: initialised `u64`s are initialised bytes, and `u8` has no
    // alignment, so the middle part is the whole slice.
    let (_, packed, _) = unsafe { words.align_to::<u8>() };
    expand_into::<false, false>(packed, out);
}

/// [`expand_bits`] from 32-bit words — the Gold generator's — setting
/// `out` or (`XOR`) XORing into it.
pub(crate) fn expand_words<const XOR: bool>(words: &[u32], out: &mut [u8]) {
    // SAFETY: as in `expand_bits`.
    let (_, packed, _) = unsafe { words.align_to::<u8>() };
    expand_into::<false, XOR>(packed, out);
}

/// **Compress**: bit `i` of `out`, LSB-first, becomes `bytes[i] & test
/// != 0`; the bits of the last word past `bytes.len()` are zero. `test
/// = 0xFF` counts any non-zero byte as 1 (the mapper's reading of its
/// input), `test = 1` takes the low bit (the packers', which
/// `debug_assert!` binary input). `out` must hold exactly
/// `bytes.len().div_ceil(64)` words.
pub fn compress_bits(bytes: &[u8], test: u8, out: &mut [u64]) {
    assert_eq!(out.len(), bytes.len().div_ceil(64), "a word per 64 bytes");
    // SAFETY: as in `expand_bits`; every byte pattern is a valid `u64`.
    let (_, packed, _) = unsafe { out.align_to_mut::<u8>() };
    let (used, pad) = packed.split_at_mut(bytes.len().div_ceil(8));
    compress_into::<false>(bytes, test, used);
    pad.fill(0);
}

/// **Gather**: bit `i` of `out`, LSB-first, becomes bit `idx[i]` of
/// `src`; the bits of the last word past `idx.len()` are zero. `out`
/// must hold exactly `idx.len().div_ceil(64)` words. Every index is the
/// caller's to keep below `64 * src.len()`: one past it reads the last
/// 32 bits of `src` instead (on every tier alike), never memory.
pub fn gather_bits(idx: &[u32], src: &[u64], out: &mut [u64]) {
    assert_eq!(out.len(), idx.len().div_ceil(64), "a word per 64 bits");
    assert!(
        !src.is_empty() && src.len() <= 1 << 30,
        "32-bit word indices"
    );
    // The kernels take whole words; what they leave, and a host
    // without them, takes the portable form.
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if host::has(HostIsa::Avx512bw) {
        // SAFETY: the host has AVX-512BW; `src` is not empty and `out`
        // holds a word per 64 indices.
        done = unsafe { x86::gather_avx512(idx, src, out) };
    } else if host::has(HostIsa::Avx2) {
        // SAFETY: the host has AVX2; as above.
        done = unsafe { x86::gather_avx2(idx, src, out) };
    }
    let top = 2 * src.len() - 1;
    for (o, chunk) in out[done..].iter_mut().zip(idx[64 * done..].chunks(64)) {
        *o = chunk.iter().enumerate().fold(0, |word, (b, &i)| {
            let at = (i as usize >> 5).min(top);
            word | (src[at / 2] >> (32 * (at % 2) + (i as usize & 31)) & 1) << b
        });
    }
}

/// The expand kernel behind every unpacker: bit `i` of `packed` is bit
/// `i % 8` of byte `i / 8` (`MSB`: bit `7 − i % 8`), and `out[i]` is
/// set to it (`XOR`: has it XORed in, which is scrambling).
///
/// Portable form: the product of a byte with [`DIAG_MSB`] holds bit `j`
/// at `j + 9i` for each `i`, all distinct, so nothing carries; `>> 7`
/// leaves bit `7 − i` at `8i`, the byte's bits spread MSB-first, and a
/// byte swap makes that LSB-first.
pub(crate) fn expand_into<const MSB: bool, const XOR: bool>(packed: &[u8], out: &mut [u8]) {
    assert!(out.len() <= 8 * packed.len(), "more bits than were packed");
    // The kernels take whole registers; what they leave, and a host
    // without them, takes the portable form.
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if host::has(HostIsa::Avx512bw) {
        // SAFETY: the host has AVX-512BW; `packed` covers `out`.
        done = unsafe { x86::expand_avx512::<MSB, XOR>(packed, out) };
    } else if host::has(HostIsa::Ssse3) {
        // SAFETY: the host has SSSE3; `packed` covers `out`.
        done = unsafe { x86::expand_ssse3::<MSB, XOR>(packed, out) };
    }
    let put = |o: &mut u8, bit: u8| *o = if XOR { *o ^ bit } else { bit };
    let n = out.len();
    let mut octets = out[8 * done..].chunks_exact_mut(8);
    for (o, &b) in octets.by_ref().zip(&packed[done..]) {
        let msb = (u64::from(b).wrapping_mul(DIAG_MSB) >> 7) & ONES;
        let spread = if MSB { msb } else { msb.swap_bytes() };
        o.iter_mut()
            .zip(spread.to_le_bytes())
            .for_each(|(o, bit)| put(o, bit));
    }
    for (i, o) in octets.into_remainder().iter_mut().enumerate() {
        put(o, (packed[n / 8] >> if MSB { 7 - i } else { i }) & 1);
    }
}

/// The compress kernel behind every packer: bit `i` of `packed` (as in
/// [`expand_into`]) becomes `bytes[i] & test != 0`, the last byte
/// zero-padded. `packed` must hold exactly `bytes.len().div_ceil(8)`
/// bytes.
///
/// Portable form: eight bytes as a little-endian `u64`, each reduced
/// to `{0,1}`, times [`DIAG_LSB`] places `Σ bⱼ · 2ʲ` in the top byte —
/// term `bⱼ · 2^{8j}` times factor bit `2^{56−7i}` lands at `56 +
/// 8(j−i) + i`, unique per `(i, j)`, so the sum is carry-free.
/// [`DIAG_MSB`] mirrors it: factor bit `9i` moves the byte at `8j` to
/// `8j + 9i`, in the top byte exactly for `i = 7 − j`.
pub(crate) fn compress_into<const MSB: bool>(bytes: &[u8], test: u8, packed: &mut [u8]) {
    assert_eq!(packed.len(), bytes.len().div_ceil(8), "a byte per 8 bits");
    let mut done = 0;
    #[cfg(target_arch = "x86_64")]
    if host::has(HostIsa::Avx512bw) {
        // SAFETY: the host has AVX-512BW; `packed` holds a bit per byte.
        done = unsafe { x86::compress_avx512::<MSB>(bytes, test, packed) };
    } else if host::has(HostIsa::Ssse3) {
        // SAFETY: the host has SSSE3; `packed` holds a bit per byte.
        done = unsafe { x86::compress_ssse3::<MSB>(bytes, test, packed) };
    }
    let mut octets = bytes[8 * done..].chunks_exact(8);
    for (p, o) in packed[done..].iter_mut().zip(octets.by_ref()) {
        let x = u64::from_le_bytes(o.try_into().expect("chunk of 8")) & (ONES * u64::from(test));
        // non-zero byte → 1: the low seven bits carry into bit 7
        let ones = ((x | ((x & (0x7F * ONES)) + 0x7F * ONES)) >> 7) & ONES;
        *p = (ones.wrapping_mul(if MSB { DIAG_MSB } else { DIAG_LSB }) >> 56) as u8;
    }
    if let (Some(last), tail @ [_, ..]) = (packed.last_mut(), octets.remainder()) {
        let bit = |(i, &b)| u8::from(b & test != 0) << if MSB { 7 - i } else { i };
        *last = tail.iter().enumerate().map(bit).fold(0, |v, b| v | b);
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// `pshufb` control reversing the bytes of each 8-byte half of a
    /// 128-bit lane: applied to one byte per bit, it is the per-byte
    /// bit reverse that turns LSB-first into MSB-first.
    #[target_feature(enable = "sse2")]
    fn rev8() -> __m128i {
        _mm_set_epi64x(0x0809_0A0B_0C0D_0E0F, 0x0001_0203_0405_0607)
    }

    /// [`super::expand_into`], 64 bits per step; returns the bytes of
    /// `packed` it expanded (all but a ragged end).
    ///
    /// # Safety
    /// AVX-512BW, and `out.len() <= 8 * packed.len()`.
    #[target_feature(enable = "avx512bw", enable = "avx512f")]
    pub unsafe fn expand_avx512<const MSB: bool, const XOR: bool>(
        packed: &[u8],
        out: &mut [u8],
    ) -> usize {
        // SAFETY: AVX-512BW is the caller's; group `g < out.len() / 64`
        // reads the 8 bytes of `packed` at `8g`, inside it as
        // `out.len() <= 8 * packed.len()`, and writes the 64 bytes of
        // `out` at `64g`.
        unsafe {
            let (one, rev) = (_mm512_set1_epi8(1), _mm512_broadcast_i32x4(rev8()));
            let whole = out.len() / 64;
            for g in 0..whole {
                let m = packed.as_ptr().add(8 * g).cast::<u64>().read_unaligned();
                let mut v = _mm512_maskz_mov_epi8(m, one);
                if MSB {
                    v = _mm512_shuffle_epi8(v, rev);
                }
                let p = out.as_mut_ptr().add(64 * g).cast::<__m512i>();
                if XOR {
                    v = _mm512_xor_si512(v, _mm512_loadu_si512(p));
                }
                _mm512_storeu_si512(p, v);
            }
            8 * whole
        }
    }

    /// [`super::expand_into`], 16 bits per step; returns the bytes of
    /// `packed` it expanded (all but at most one pair and a ragged end).
    ///
    /// # Safety
    /// SSSE3, and `out.len() <= 8 * packed.len()`.
    #[target_feature(enable = "ssse3")]
    pub unsafe fn expand_ssse3<const MSB: bool, const XOR: bool>(
        packed: &[u8],
        out: &mut [u8],
    ) -> usize {
        // SAFETY: SSSE3 is the caller's; pair `g < out.len() / 16` reads
        // the 2 bytes of `packed` at `2g`, inside it as
        // `out.len() <= 8 * packed.len()`, and writes the 16 bytes of
        // `out` at `16g`.
        unsafe {
            // byte j of the register ← packed byte j / 8, tested against
            // its own bit j % 8 (mirrored for MSB-first)
            let spread = _mm_set_epi64x(super::ONES as i64, 0);
            let select = _mm_set1_epi64x(if MSB {
                super::DIAG_LSB
            } else {
                super::DIAG_MSB
            } as i64);
            let one = _mm_set1_epi8(1);
            let pairs = out.len() / 16;
            for g in 0..pairs {
                let m = packed.as_ptr().add(2 * g).cast::<u16>().read_unaligned();
                let v = _mm_and_si128(
                    _mm_shuffle_epi8(_mm_cvtsi32_si128(m.into()), spread),
                    select,
                );
                let mut v = _mm_and_si128(_mm_cmpeq_epi8(v, select), one);
                let p = out.as_mut_ptr().add(16 * g).cast::<__m128i>();
                if XOR {
                    v = _mm_xor_si128(v, _mm_loadu_si128(p));
                }
                _mm_storeu_si128(p, v);
            }
            2 * pairs
        }
    }

    /// [`super::compress_into`], 64 bytes per step; returns the bytes
    /// of `packed` it wrote (all but a ragged end).
    ///
    /// # Safety
    /// AVX-512BW, and `packed.len() == bytes.len().div_ceil(8)`.
    #[target_feature(enable = "avx512bw", enable = "avx512f")]
    pub unsafe fn compress_avx512<const MSB: bool>(
        bytes: &[u8],
        test: u8,
        packed: &mut [u8],
    ) -> usize {
        // SAFETY: AVX-512BW is the caller's; group `g < bytes.len() / 64`
        // reads the 64 bytes of `bytes` at `64g` and writes the 8 bytes of
        // `packed` at `8g`, inside it as it holds
        // `bytes.len().div_ceil(8)`.
        unsafe {
            let (test, rev) = (_mm512_set1_epi8(test as i8), _mm512_broadcast_i32x4(rev8()));
            let whole = bytes.len() / 64;
            for g in 0..whole {
                let mut v = _mm512_loadu_si512(bytes.as_ptr().add(64 * g).cast());
                if MSB {
                    v = _mm512_shuffle_epi8(v, rev);
                }
                let m = _mm512_test_epi8_mask(v, test);
                packed
                    .as_mut_ptr()
                    .add(8 * g)
                    .cast::<u64>()
                    .write_unaligned(m);
            }
            8 * whole
        }
    }

    /// [`super::compress_into`], 16 bytes per step; returns the bytes
    /// of `packed` it wrote (all but at most one and a ragged end).
    ///
    /// # Safety
    /// SSSE3, and `packed.len() == bytes.len().div_ceil(8)`.
    #[target_feature(enable = "ssse3")]
    pub unsafe fn compress_ssse3<const MSB: bool>(
        bytes: &[u8],
        test: u8,
        packed: &mut [u8],
    ) -> usize {
        // SAFETY: SSSE3 is the caller's; pair `g < bytes.len() / 16` reads
        // the 16 bytes of `bytes` at `16g` and writes the 2 bytes of
        // `packed` at `2g`, inside it as it holds
        // `bytes.len().div_ceil(8)`.
        unsafe {
            let (test, rev) = (_mm_set1_epi8(test as i8), rev8());
            let pairs = bytes.len() / 16;
            for g in 0..pairs {
                let mut v = _mm_loadu_si128(bytes.as_ptr().add(16 * g).cast());
                if MSB {
                    v = _mm_shuffle_epi8(v, rev);
                }
                let zero = _mm_cmpeq_epi8(_mm_and_si128(v, test), _mm_setzero_si128());
                let m = !_mm_movemask_epi8(zero) as u16;
                packed
                    .as_mut_ptr()
                    .add(2 * g)
                    .cast::<u16>()
                    .write_unaligned(m);
            }
            2 * pairs
        }
    }

    /// [`super::gather_bits`], sixteen bits per `vpgatherdd` and
    /// `vptestmd` straight into a mask register; returns the words of
    /// `out` it wrote (all but a ragged last one).
    ///
    /// # Safety
    /// AVX-512F, `src` not empty, and `out.len() >= idx.len() / 64`.
    #[target_feature(enable = "avx512f")]
    pub unsafe fn gather_avx512(idx: &[u32], src: &[u64], out: &mut [u64]) -> usize {
        // SAFETY: AVX-512F is the caller's; the four 16-index loads lie
        // inside their 64-index chunk, and every gathered dword index is
        // clamped to `2 * src.len() - 1`, inside the non-empty `src`.
        unsafe {
            // the last 32-bit word of `src`: no lane reads past it,
            // whatever the index
            let top = _mm512_set1_epi32((2 * src.len() - 1) as i32);
            let (one, low5) = (_mm512_set1_epi32(1), _mm512_set1_epi32(31));
            let sixteen = |idx: *const u32| -> u64 {
                let i = _mm512_loadu_si512(idx.cast());
                let at = _mm512_min_epu32(_mm512_srli_epi32::<5>(i), top);
                let w = _mm512_i32gather_epi32::<4>(at, src.as_ptr().cast());
                let bit = _mm512_srlv_epi32(w, _mm512_and_si512(i, low5));
                u64::from(_mm512_test_epi32_mask(bit, one))
            };
            let whole = idx.chunks_exact(64);
            let done = whole.len();
            for (o, chunk) in out.iter_mut().zip(whole) {
                let i = chunk.as_ptr();
                *o = sixteen(i)
                    | sixteen(i.add(16)) << 16
                    | sixteen(i.add(32)) << 32
                    | sixteen(i.add(48)) << 48;
            }
            done
        }
    }

    /// [`super::gather_bits`], eight bits per `vpgatherdd`: `vpsllvd`
    /// moves each lane's bit to the sign, `vmovmskps` collects the
    /// signs; returns the words of `out` it wrote.
    ///
    /// # Safety
    /// AVX2, `src` not empty, and `out.len() >= idx.len() / 64`.
    #[target_feature(enable = "avx2")]
    pub unsafe fn gather_avx2(idx: &[u32], src: &[u64], out: &mut [u64]) -> usize {
        // SAFETY: AVX2 is the caller's; each 8-index load is one whole
        // chunk of `idx`, and every gathered dword index is clamped to
        // `2 * src.len() - 1`, inside the non-empty `src`.
        unsafe {
            let top = _mm256_set1_epi32((2 * src.len() - 1) as i32);
            let low5 = _mm256_set1_epi32(31);
            let whole = idx.chunks_exact(64);
            let done = whole.len();
            for (o, chunk) in out.iter_mut().zip(whole) {
                *o = chunk.chunks_exact(8).rev().fold(0, |word, eight| {
                    let i = _mm256_loadu_si256(eight.as_ptr().cast());
                    let at = _mm256_min_epu32(_mm256_srli_epi32::<5>(i), top);
                    let w = _mm256_i32gather_epi32::<4>(src.as_ptr().cast(), at);
                    let sign = _mm256_sllv_epi32(w, _mm256_andnot_si256(i, low5));
                    word << 8 | _mm256_movemask_ps(_mm256_castsi256_ps(sign)) as u8 as u64
                });
            }
            done
        }
    }
}

/// Pack a `{0,1}` bit slice MSB-first into bytes (final partial byte is
/// left-aligned, zero-padded): [`compress_bits`]' kernel by the low
/// bit, with the per-byte bit reverse.
pub fn pack_msb(bits: &[u8]) -> Vec<u8> {
    debug_assert!(bits.iter().all(|&b| b <= 1), "non-binary bits");
    let mut out = vec![0; bits.len().div_ceil(8)];
    compress_into::<true>(bits, 1, &mut out);
    out
}

/// Unpack bytes MSB-first into `n` bits: [`expand_bits`]' kernel with
/// the per-byte bit reverse.
pub fn unpack_msb(bytes: &[u8], n: usize) -> Vec<u8> {
    let mut out = vec![0; n];
    expand_into::<true, false>(bytes, &mut out);
    out
}

/// Pack a `{0,1}` bit slice LSB-first into 64-bit words: bit `i` of the
/// stream lands at bit `i % 64` of word `i / 64`, and the final partial
/// word is zero-padded. `out` must hold exactly `bits.len().div_ceil(64)`
/// words.
///
/// The packed-word turbo encoder and rate matcher run on this layout:
/// LSB-first means a left shift moves data *forward in time*, so the
/// RSC recurrences become plain shift/XOR word arithmetic.
/// [`compress_bits`] by the low bit.
pub fn pack_lsb_words(bits: &[u8], out: &mut [u64]) {
    debug_assert!(bits.iter().all(|&b| b <= 1), "non-binary bits");
    compress_bits(bits, 1, out);
}

/// LSB-first word packing into a fresh vector (see [`pack_lsb_words`]).
pub fn packed_lsb_words(bits: &[u8]) -> Vec<u64> {
    let mut out = vec![0u64; bits.len().div_ceil(64)];
    pack_lsb_words(bits, &mut out);
    out
}

/// Unpack `n` LSB-first bits from 64-bit words (see [`pack_lsb_words`]).
pub fn unpack_lsb_words(words: &[u64], n: usize) -> Vec<u8> {
    let mut out = vec![0; n];
    expand_bits(words, &mut out);
    out
}

/// Append the first `n` LSB-first bits of `words` to `out` as
/// `u8 ∈ {0,1}` values.
pub fn extend_bits_from_words(words: &[u64], n: usize, out: &mut Vec<u8>) {
    let at = out.len();
    out.resize(at + n, 0);
    expand_bits(words, &mut out[at..]);
}

/// XOR two equal-length bit slices into a fresh vector.
pub fn xor_bits(a: &[u8], b: &[u8]) -> Vec<u8> {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(x, y)| x ^ y).collect()
}

/// Count positions where two bit slices differ.
pub fn hamming_distance(a: &[u8], b: &[u8]) -> usize {
    assert_eq!(a.len(), b.len());
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Deterministic pseudo-random bit vector (for workload generation).
pub fn random_bits(n: usize, seed: u64) -> Vec<u8> {
    // xorshift64*: reproducible across platforms, no dependency needed.
    let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    (0..n)
        .map(|_| {
            s ^= s >> 12;
            s ^= s << 25;
            s ^= s >> 27;
            ((s.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 63) & 1) as u8
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pack_unpack_round_trip() {
        let bits: Vec<u8> = random_bits(77, 42);
        let packed = pack_msb(&bits);
        assert_eq!(packed.len(), 10);
        assert_eq!(unpack_msb(&packed, 77), bits);
    }

    #[test]
    fn pack_is_msb_first() {
        assert_eq!(pack_msb(&[1, 0, 0, 0, 0, 0, 0, 1]), vec![0x81]);
        assert_eq!(pack_msb(&[1]), vec![0x80]);
    }

    #[test]
    fn msb_pack_unpack_match_per_bit_loops() {
        // Every byte value in every byte position of lengths 0..=17
        // bits (none, partial, one, one + partial, two, two + partial
        // bytes), against the one-bit-per-iteration definitions.
        for v in 0..=255u8 {
            for n in 0..=17usize {
                let bytes = [v, !v, v.rotate_left(3)];
                let bits = unpack_msb(&bytes, n);
                let by_bit: Vec<u8> = (0..n)
                    .map(|i| (bytes[i / 8] >> (7 - (i % 8))) & 1)
                    .collect();
                assert_eq!(bits, by_bit, "unpack v={v:#04x} n={n}");
                let mut packed = vec![0u8; n.div_ceil(8)];
                for (i, &b) in bits.iter().enumerate() {
                    packed[i / 8] |= b << (7 - (i % 8));
                }
                assert_eq!(pack_msb(&bits), packed, "pack v={v:#04x} n={n}");
            }
        }
    }

    #[test]
    fn compress_reads_a_byte_by_its_test_mask() {
        // What the packers (low bit) and the mapper (any bit) make of
        // bytes that are not {0,1}; the rest of a word is zero.
        let bytes = [0, 1, 2, 0x80, 0xFF, 0, 3];
        let mut w = [!0u64];
        compress_bits(&bytes, 1, &mut w);
        assert_eq!(w, [0b101_0010]);
        compress_bits(&bytes, 0xFF, &mut w);
        assert_eq!(w, [0b101_1110]);
        let mut back = [9u8; 7];
        expand_bits(&w, &mut back);
        assert_eq!(back, [0, 1, 1, 1, 1, 0, 1]);
    }

    #[test]
    fn xor_and_hamming() {
        let a = [1, 0, 1, 1];
        let b = [1, 1, 0, 1];
        assert_eq!(xor_bits(&a, &b), vec![0, 1, 1, 0]);
        assert_eq!(hamming_distance(&a, &b), 2);
    }

    #[test]
    fn lsb_word_pack_unpack_round_trip() {
        for n in [0usize, 1, 7, 8, 63, 64, 65, 129, 777] {
            let bits = random_bits(n, n as u64 + 11);
            let words = packed_lsb_words(&bits);
            assert_eq!(words.len(), n.div_ceil(64));
            assert_eq!(unpack_lsb_words(&words, n), bits);
        }
    }

    #[test]
    fn lsb_word_pack_matches_per_bit_reference() {
        let bits = random_bits(300, 99);
        let words = packed_lsb_words(&bits);
        for (i, &b) in bits.iter().enumerate() {
            assert_eq!(((words[i / 64] >> (i % 64)) & 1) as u8, b, "bit {i}");
        }
        // padding beyond the stream must be zero
        assert_eq!(words[4] >> (300 - 256), 0);
    }

    #[test]
    fn lsb_word_pack_is_lsb_first() {
        assert_eq!(packed_lsb_words(&[1, 0, 0, 0, 0, 0, 0, 1]), vec![0x81]);
        assert_eq!(packed_lsb_words(&[0, 1]), vec![0x02]);
    }

    #[test]
    fn random_bits_deterministic_and_balanced() {
        let a = random_bits(4096, 7);
        let b = random_bits(4096, 7);
        assert_eq!(a, b);
        let ones: usize = a.iter().map(|&x| x as usize).sum();
        assert!(
            (1500..2600).contains(&ones),
            "biased bit source: {ones}/4096 ones"
        );
        assert_ne!(a, random_bits(4096, 8), "seed must matter");
    }
}
