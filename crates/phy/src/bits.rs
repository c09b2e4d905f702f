//! Bit-vector helpers shared across the PHY chain.
//!
//! The 3GPP specs describe everything in terms of bit sequences; we keep
//! bits as `u8 ∈ {0,1}` in `Vec<u8>` for clarity (the hot paths operate
//! on LLRs, not bits, so this costs nothing that matters).

/// Pack a `{0,1}` bit slice MSB-first into bytes (final partial byte is
/// left-aligned, zero-padded).
///
/// Eight bits per step with the multiply-gather [`pack_lsb_words`]
/// documents, mirrored: factor bit `9i` moves the bit-byte at `8j` to
/// `8j + 9i`, which is in the top byte exactly for `i = 7 − j` (bit
/// `63 − j`, so the first bit lands in the MSB), and `8j + 9i` is
/// unique per `(i, j)`, so no two partial products meet and nothing
/// carries.
pub fn pack_msb(bits: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(bits.len().div_ceil(8));
    let mut chunks = bits.chunks_exact(8);
    for c in chunks.by_ref() {
        let chunk = u64::from_le_bytes(c.try_into().expect("chunk of 8"));
        debug_assert!(chunk & !0x0101_0101_0101_0101 == 0, "non-binary bits");
        let ones = chunk & 0x0101_0101_0101_0101;
        out.push((ones.wrapping_mul(0x8040_2010_0804_0201) >> 56) as u8);
    }
    let tail = chunks.remainder();
    if !tail.is_empty() {
        let mut last = 0u8;
        for (i, &b) in tail.iter().enumerate() {
            debug_assert!(b <= 1, "non-binary bit {b}");
            last |= (b & 1) << (7 - i);
        }
        out.push(last);
    }
    out
}

/// Unpack bytes MSB-first into `n` bits, eight per `BYTE_BITS`
/// lookup (the table is LSB-first, so the byte is bit-reversed first).
pub fn unpack_msb(bytes: &[u8], n: usize) -> Vec<u8> {
    assert!(
        n <= bytes.len() * 8,
        "asked for {n} bits from {} bytes",
        bytes.len()
    );
    let mut out = Vec::with_capacity(n);
    for &b in &bytes[..n / 8] {
        out.extend_from_slice(&BYTE_BITS[b.reverse_bits() as usize]);
    }
    if !n.is_multiple_of(8) {
        out.extend_from_slice(&BYTE_BITS[bytes[n / 8].reverse_bits() as usize][..n % 8]);
    }
    out
}

/// Pack a `{0,1}` bit slice LSB-first into 64-bit words: bit `i` of the
/// stream lands at bit `i % 64` of word `i / 64`, and the final partial
/// word is zero-padded. `out` must hold exactly `bits.len().div_ceil(64)`
/// words.
///
/// The packed-word turbo encoder and rate matcher run on this layout:
/// LSB-first means a left shift moves data *forward in time*, so the
/// RSC recurrences become plain shift/XOR word arithmetic. The inner
/// loop gathers 8 bits per step with a multiply: for bytes
/// `b₀..b₇ ∈ {0,1}` read as a little-endian `u64`, the product with
/// `0x0102_0408_1020_4080` places `Σ bⱼ · 2ʲ` in the top byte, and no
/// two partial products collide (term `bⱼ · 2^{8j}` times factor bit
/// `2^{56−7i}` lands at `56 + 8(j−i) + i`, unique per `(i, j)` pair),
/// so the sum is carry-free.
pub fn pack_lsb_words(bits: &[u8], out: &mut [u64]) {
    assert_eq!(
        out.len(),
        bits.len().div_ceil(64),
        "output must hold exactly {} words",
        bits.len().div_ceil(64)
    );
    out.fill(0);
    let mut chunks = bits.chunks_exact(8);
    let mut i = 0usize;
    for c in chunks.by_ref() {
        let chunk = u64::from_le_bytes(c.try_into().expect("chunk of 8"));
        debug_assert!(chunk & !0x0101_0101_0101_0101 == 0, "non-binary bits");
        let byte = chunk.wrapping_mul(0x0102_0408_1020_4080) >> 56;
        out[i >> 6] |= byte << (i & 63);
        i += 8;
    }
    for &b in chunks.remainder() {
        debug_assert!(b <= 1, "non-binary bit {b}");
        out[i >> 6] |= u64::from(b & 1) << (i & 63);
        i += 1;
    }
}

/// LSB-first word packing into a fresh vector (see [`pack_lsb_words`]).
pub fn packed_lsb_words(bits: &[u8]) -> Vec<u64> {
    let mut out = vec![0u64; bits.len().div_ceil(64)];
    pack_lsb_words(bits, &mut out);
    out
}

/// Unpack `n` LSB-first bits from 64-bit words (see [`pack_lsb_words`]).
pub fn unpack_lsb_words(words: &[u64], n: usize) -> Vec<u8> {
    let mut out = Vec::with_capacity(n);
    extend_bits_from_words(words, n, &mut out);
    out
}

/// LSB-first expansion of every byte value into eight `{0,1}` bytes, so
/// unpacking moves 8 bits per table lookup instead of one per shift.
const BYTE_BITS: [[u8; 8]; 256] = {
    let mut t = [[0u8; 8]; 256];
    let mut b = 0usize;
    while b < 256 {
        let mut j = 0;
        while j < 8 {
            t[b][j] = ((b >> j) & 1) as u8;
            j += 1;
        }
        b += 1;
    }
    t
};

/// Append the first `n` LSB-first bits of `words` to `out` as
/// `u8 ∈ {0,1}` values.
pub fn extend_bits_from_words(words: &[u64], n: usize, out: &mut Vec<u8>) {
    assert!(
        n <= words.len() * 64,
        "asked for {n} bits from {} words",
        words.len()
    );
    out.reserve(n);
    let mut left = n;
    for &w in words {
        if left == 0 {
            break;
        }
        for byte in w.to_le_bytes() {
            if left >= 8 {
                out.extend_from_slice(&BYTE_BITS[byte as usize]);
                left -= 8;
            } else {
                out.extend_from_slice(&BYTE_BITS[byte as usize][..left]);
                left = 0;
                break;
            }
        }
    }
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
