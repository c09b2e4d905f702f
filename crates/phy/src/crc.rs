//! 3GPP TS 36.212 §5.1.1 CRC codes.
//!
//! * **CRC24A** (`gCRC24A`, poly `0x1864CFB`) — transport-block CRC.
//! * **CRC24B** (`gCRC24B`, poly `0x1800063`) — per-code-block CRC when
//!   a transport block is segmented.
//! * **CRC16** (`gCRC16`, poly `0x11021`) — used by some control
//!   channels.
//! * **CRC8**  (`gCRC8`,  poly `0x19B`) — used by UCI.
//!
//! The public API works over `{0,1}` bit slices (the natural form for
//! a PHY chain that works on bit vectors); all registers start at zero
//! per the spec. Three kernels compute the same remainder
//! ([`CrcImpl`]):
//!
//! * **Bit-serial** — one feedback step per bit; the oracle.
//! * **Slicing-by-8** — the bit plane's compress kernel
//!   ([`crate::bits`]) packs the bits MSB-first, then compile-time
//!   8×256 tables (top-aligned to 32 bits so one table scheme serves
//!   all four widths) eat 8 message bytes per iteration; any sub-byte
//!   tail runs bit-serially. Available on every host.
//! * **PCLMULQDQ folding** — 128-bit carry-less-multiply folding over
//!   the packed bytes (`A·x¹²⁸ + N ≡ clmul(A_hi, x¹⁹² mod P) ⊕
//!   clmul(A_lo, x¹²⁸ mod P) ⊕ N`), finishing the final 128-bit
//!   residue through the table path so the result is bit-exact with
//!   the oracle by construction rather than via a Barrett reduction.
//!
//! CRC24B runs per code block on every decode classification, so
//! [`Crc::compute`] dispatches to the best kernel the host offers.

use crate::bits::compress_into;
use vran_simd::host::{self, best_tier, HostIsa, Tier};

/// A generic bit-serial CRC over GF(2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Crc {
    poly: u32,
    width: u32,
}

/// Transport-block CRC (24 bits, `gCRC24A`).
pub const CRC24A: Crc = Crc {
    poly: 0x86_4CFB,
    width: 24,
};
/// Code-block CRC (24 bits, `gCRC24B`).
pub const CRC24B: Crc = Crc {
    poly: 0x80_0063,
    width: 24,
};
/// 16-bit CRC (`gCRC16`).
pub const CRC16: Crc = Crc {
    poly: 0x1021,
    width: 16,
};
/// 8-bit CRC (`gCRC8`).
pub const CRC8: Crc = Crc {
    poly: 0x9B,
    width: 8,
};

/// CRC kernel tiers, least to most capable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrcImpl {
    /// One feedback step per bit — the reference.
    BitSerial,
    /// Bit-packed adapter + slicing-by-8 tables (portable integer).
    Sliced8,
    /// 128-bit PCLMULQDQ folding over the packed bytes, table finish.
    ClmulFold,
}

impl CrcImpl {
    /// Stable label for metrics and logs.
    pub fn name(self) -> &'static str {
        match self {
            CrcImpl::BitSerial => "bit_serial",
            CrcImpl::Sliced8 => "sliced8",
            CrcImpl::ClmulFold => "clmul",
        }
    }
}

impl Tier for CrcImpl {
    const LADDER: &'static [CrcImpl] = &[CrcImpl::BitSerial, CrcImpl::Sliced8, CrcImpl::ClmulFold];

    fn required_isa(self) -> HostIsa {
        match self {
            CrcImpl::BitSerial | CrcImpl::Sliced8 => HostIsa::Scalar,
            // byteswap uses pshufb; clmul itself is probed in `usable`
            CrcImpl::ClmulFold => HostIsa::Ssse3,
        }
    }

    /// PCLMULQDQ is orthogonal to vector width, so it is no
    /// [`HostIsa`] level: probed here (never present off x86-64).
    fn usable(self) -> bool {
        #[cfg(target_arch = "x86_64")]
        let pclmul = std::arch::is_x86_feature_detected!("pclmulqdq");
        #[cfg(not(target_arch = "x86_64"))]
        let pclmul = false;
        host::has(self.required_isa()) && (self != CrcImpl::ClmulFold || pclmul)
    }
}

/// The most capable CRC kernel on this host. Uses no heap: every
/// [`Crc::check`] asks.
pub fn best_crc() -> CrcImpl {
    best_tier()
}

/// Slicing-by-8 tables for a 32-bit top-aligned register.
/// `t[0][b]` advances the register past one message byte `b`;
/// `t[n][b]` additionally accounts for `n` zero bytes following it.
const fn crc_tables(poly_top: u32) -> [[u32; 256]; 8] {
    let mut t = [[0u32; 256]; 8];
    let mut b = 0;
    while b < 256 {
        let mut reg = (b as u32) << 24;
        let mut i = 0;
        while i < 8 {
            let fb = reg & 0x8000_0000 != 0;
            reg <<= 1;
            if fb {
                reg ^= poly_top;
            }
            i += 1;
        }
        t[0][b] = reg;
        b += 1;
    }
    let mut n = 1;
    while n < 8 {
        let mut b = 0;
        while b < 256 {
            let prev = t[n - 1][b];
            t[n][b] = t[0][(prev >> 24) as usize] ^ (prev << 8);
            b += 1;
        }
        n += 1;
    }
    t
}

static TABLES_24A: [[u32; 256]; 8] = crc_tables(0x86_4CFB << 8);
static TABLES_24B: [[u32; 256]; 8] = crc_tables(0x80_0063 << 8);
static TABLES_16: [[u32; 256]; 8] = crc_tables(0x1021 << 16);
static TABLES_8: [[u32; 256]; 8] = crc_tables(0x9B << 24);

/// `x^n mod P` as a `width`-bit value (bit `i` = coefficient of `x^i`)
/// — the folding keys for the clmul tier.
const fn xn_mod_p(poly: u32, width: u32, n: usize) -> u64 {
    let mask = if width == 32 {
        u32::MAX
    } else {
        (1u32 << width) - 1
    };
    let mut v: u32 = 1;
    let mut i = 0;
    while i < n {
        let carry = (v >> (width - 1)) & 1;
        v = (v << 1) & mask;
        if carry == 1 {
            v ^= poly & mask;
        }
        i += 1;
    }
    v as u64
}

impl Crc {
    /// CRC width in bits.
    pub const fn width(&self) -> usize {
        self.width as usize
    }

    /// Generator polynomial aligned to the top of a 32-bit register.
    fn poly_top(&self) -> u32 {
        self.poly << (32 - self.width)
    }

    /// The slicing tables for this polynomial.
    fn tables(&self) -> &'static [[u32; 256]; 8] {
        match (self.poly, self.width) {
            (0x86_4CFB, 24) => &TABLES_24A,
            (0x80_0063, 24) => &TABLES_24B,
            (0x1021, 16) => &TABLES_16,
            (0x9B, 8) => &TABLES_8,
            _ => unreachable!("only the four TS 36.212 polynomials exist"),
        }
    }

    /// The clmul folding keys `(x¹²⁸ mod P, x¹⁹² mod P)`.
    fn fold_keys(&self) -> (u64, u64) {
        const K24A: (u64, u64) = (xn_mod_p(0x86_4CFB, 24, 128), xn_mod_p(0x86_4CFB, 24, 192));
        const K24B: (u64, u64) = (xn_mod_p(0x80_0063, 24, 128), xn_mod_p(0x80_0063, 24, 192));
        const K16: (u64, u64) = (xn_mod_p(0x1021, 16, 128), xn_mod_p(0x1021, 16, 192));
        const K8: (u64, u64) = (xn_mod_p(0x9B, 8, 128), xn_mod_p(0x9B, 8, 192));
        match (self.poly, self.width) {
            (0x86_4CFB, 24) => K24A,
            (0x80_0063, 24) => K24B,
            (0x1021, 16) => K16,
            (0x9B, 8) => K8,
            _ => unreachable!("only the four TS 36.212 polynomials exist"),
        }
    }

    /// Compute the CRC of a `{0,1}` bit slice, returned MSB-first as
    /// `width()` bits. Dispatches to the best kernel the host offers;
    /// all kernels are bit-exact with [`Crc::compute_bit_serial`].
    pub fn compute(&self, bits: &[u8]) -> Vec<u8> {
        self.compute_with(best_crc(), bits)
    }

    /// Compute with an explicit kernel tier. Panics if the host lacks
    /// `imp`, as do [`Crc::attach_with`], [`Crc::append_with`] and
    /// [`Crc::check_with`].
    pub fn compute_with(&self, imp: CrcImpl, bits: &[u8]) -> Vec<u8> {
        self.msb_first(self.remainder(imp, bits)).collect()
    }

    /// The remainder `r` as `width()` bits, MSB-first.
    fn msb_first(&self, r: u32) -> impl Iterator<Item = u8> {
        (0..self.width).rev().map(move |i| ((r >> i) & 1) as u8)
    }

    /// Bit-serial reference: one feedback step per bit.
    pub fn compute_bit_serial(&self, bits: &[u8]) -> Vec<u8> {
        self.compute_with(CrcImpl::BitSerial, bits)
    }

    /// The CRC of `bits` as a `width`-bit number, with no heap use: the
    /// byte kernels see the message packed a stack buffer at a time,
    /// the register carried from one into the next.
    fn remainder(&self, imp: CrcImpl, bits: &[u8]) -> u32 {
        assert!(imp.usable(), "host lacks {}", imp.name());
        let mut reg: u32 = 0;
        if imp == CrcImpl::BitSerial {
            let top = 1u32 << (self.width - 1);
            for &b in bits {
                debug_assert!(b <= 1);
                let fb = ((reg & top) != 0) as u32 ^ b as u32;
                reg <<= 1;
                if fb != 0 {
                    reg ^= self.poly;
                }
            }
            return reg & (u32::MAX >> (32 - self.width));
        }
        let clmul = imp == CrcImpl::ClmulFold;
        let mut buf = [0u8; 1024];
        for chunk in bits.chunks(8 * buf.len()) {
            let (head, tail) = chunk.split_at(chunk.len() & !7);
            let packed = &mut buf[..head.len() / 8];
            compress_into::<true>(head, 1, packed);
            reg = match clmul && packed.len() >= 32 {
                #[cfg(target_arch = "x86_64")]
                true => {
                    // a register going in is the xor of the first four bytes
                    for (b, r) in packed.iter_mut().zip(reg.to_be_bytes()) {
                        *b ^= r;
                    }
                    self.bytes_clmul(packed)
                }
                _ => self.bytes_sliced(reg, packed),
            };
            reg = self.bits_top_aligned(reg, tail);
        }
        reg >> (32 - self.width)
    }

    /// Advance a top-aligned register past packed message bytes,
    /// slicing-by-8 with a byte-at-a-time remainder.
    fn bytes_sliced(&self, mut reg: u32, bytes: &[u8]) -> u32 {
        let t = self.tables();
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            let cur = reg ^ u32::from_be_bytes([c[0], c[1], c[2], c[3]]);
            reg = t[7][(cur >> 24) as usize]
                ^ t[6][((cur >> 16) & 0xFF) as usize]
                ^ t[5][((cur >> 8) & 0xFF) as usize]
                ^ t[4][(cur & 0xFF) as usize]
                ^ t[3][c[4] as usize]
                ^ t[2][c[5] as usize]
                ^ t[1][c[6] as usize]
                ^ t[0][c[7] as usize];
        }
        for &b in chunks.remainder() {
            reg = t[0][((reg >> 24) as u8 ^ b) as usize] ^ (reg << 8);
        }
        reg
    }

    /// Advance a top-aligned register past ragged tail bits.
    fn bits_top_aligned(&self, mut reg: u32, bits: &[u8]) -> u32 {
        let poly_top = self.poly_top();
        for &b in bits {
            debug_assert!(b <= 1);
            let fb = (reg >> 31) ^ b as u32;
            reg <<= 1;
            if fb & 1 != 0 {
                reg ^= poly_top;
            }
        }
        reg
    }

    /// Fold at least 32 packed bytes down to a 128-bit residue with
    /// carry-less multiplies, then finish through the table path.
    #[cfg(target_arch = "x86_64")]
    fn bytes_clmul(&self, bytes: &[u8]) -> u32 {
        assert!(bytes.len() >= 32);
        let (k128, k192) = self.fold_keys();
        // SAFETY: `remainder` saw `pclmulqdq` and SSSE3; the length was
        // just checked.
        let (folded, consumed) = unsafe { x86::fold128(bytes, k128, k192) };
        let reg = self.bytes_sliced(0, &folded);
        self.bytes_sliced(reg, &bytes[consumed..])
    }

    /// Append this CRC to `bits` (TS 36.212 attachment).
    pub fn attach(&self, bits: &[u8]) -> Vec<u8> {
        let mut out = bits.to_vec();
        out.extend(self.compute(bits));
        out
    }

    /// Append this CRC computed with an explicit kernel tier.
    pub fn attach_with(&self, imp: CrcImpl, bits: &[u8]) -> Vec<u8> {
        let mut out = bits.to_vec();
        out.extend(self.compute_with(imp, bits));
        out
    }

    /// Append this CRC to `bits` in place: no heap use beyond the
    /// vector's own growth, none when it has `width()` to spare.
    pub fn append_with(&self, imp: CrcImpl, bits: &mut Vec<u8>) {
        let r = self.remainder(imp, bits);
        bits.extend(self.msb_first(r));
    }

    /// Check a bit slice that has a CRC attached at its tail; returns
    /// the payload on success.
    pub fn check<'a>(&self, bits: &'a [u8]) -> Option<&'a [u8]> {
        self.check_with(best_crc(), bits)
    }

    /// Check with an explicit kernel tier. Uses no heap.
    pub fn check_with<'a>(&self, imp: CrcImpl, bits: &'a [u8]) -> Option<&'a [u8]> {
        let (payload, tail) = bits.split_at_checked(bits.len().checked_sub(self.width())?)?;
        let want = tail.iter().fold(0, |r, &b| r << 1 | b as u32);
        (self.remainder(imp, payload) == want).then_some(payload)
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// Fold whole 16-byte blocks of `bytes` into one 128-bit residue:
    /// `A ← clmul(A_hi, x¹⁹² mod P) ⊕ clmul(A_lo, x¹²⁸ mod P) ⊕ next`.
    /// Returns the residue in message-byte order plus the count of
    /// bytes consumed (a multiple of 16, ≥ 32 per the caller's guard).
    ///
    /// # Safety
    /// Caller guarantees `pclmulqdq` + `ssse3` and `bytes.len() >= 32`.
    #[target_feature(enable = "pclmulqdq", enable = "ssse3")]
    pub unsafe fn fold128(bytes: &[u8], k128: u64, k192: u64) -> ([u8; 16], usize) {
        // byte-reverse so the register's little-endian bit order is
        // polynomial order (first message byte = highest degree)
        let bswap = _mm_set_epi8(0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15);
        let k = _mm_set_epi64x(k192 as i64, k128 as i64);
        let mut a = _mm_shuffle_epi8(_mm_loadu_si128(bytes.as_ptr().cast()), bswap);
        let mut off = 16;
        while off + 16 <= bytes.len() {
            let n = _mm_shuffle_epi8(_mm_loadu_si128(bytes.as_ptr().add(off).cast()), bswap);
            let lo = _mm_clmulepi64_si128(a, k, 0x00); // A_lo · (x¹²⁸ mod P)
            let hi = _mm_clmulepi64_si128(a, k, 0x11); // A_hi · (x¹⁹² mod P)
            a = _mm_xor_si128(_mm_xor_si128(lo, hi), n);
            off += 16;
        }
        let mut out = [0u8; 16];
        _mm_storeu_si128(out.as_mut_ptr().cast(), _mm_shuffle_epi8(a, bswap));
        (out, off)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::random_bits;

    #[test]
    fn attach_then_check_round_trips() {
        for crc in [CRC24A, CRC24B, CRC16, CRC8] {
            let payload = random_bits(100, 3);
            let coded = crc.attach(&payload);
            assert_eq!(coded.len(), 100 + crc.width());
            assert_eq!(crc.check(&coded), Some(&payload[..]));
        }
    }

    #[test]
    fn sliced_kernel_matches_bit_serial_all_polys_all_lengths() {
        for crc in [CRC24A, CRC24B, CRC16, CRC8] {
            // every length 0..=131 covers empty input, sub-byte
            // inputs, every packed remainder class, and both sides of
            // the slicing-by-8 block boundary — including non-byte
            // multiples throughout
            for len in 0..=131usize {
                let bits = random_bits(len, 17 + len as u64);
                assert_eq!(
                    crc.compute_with(CrcImpl::Sliced8, &bits),
                    crc.compute_bit_serial(&bits),
                    "{:?} len {len}",
                    crc
                );
            }
            // long streams exercise many slicing blocks
            for len in [1023usize, 6144, 6157] {
                let bits = random_bits(len, len as u64);
                assert_eq!(
                    crc.compute_with(CrcImpl::Sliced8, &bits),
                    crc.compute_bit_serial(&bits),
                    "{:?} len {len}",
                    crc
                );
            }
        }
    }

    #[test]
    fn clmul_kernel_matches_bit_serial_all_polys() {
        if !CrcImpl::ClmulFold.usable() {
            eprintln!("clmul_kernel_matches_bit_serial_all_polys: SKIPPED (no pclmulqdq)");
            return;
        }
        for crc in [CRC24A, CRC24B, CRC16, CRC8] {
            // spans the <32-byte internal fallback, block boundaries,
            // ragged packed remainders and ragged bit tails
            for len in [0usize, 7, 255, 256, 263, 511, 512, 941, 4096, 6144, 6151] {
                let bits = random_bits(len, 91 + len as u64);
                assert_eq!(
                    crc.compute_with(CrcImpl::ClmulFold, &bits),
                    crc.compute_bit_serial(&bits),
                    "{:?} len {len}",
                    crc
                );
            }
        }
    }

    #[test]
    fn default_compute_uses_best_available_kernel() {
        assert_eq!(CrcImpl::LADDER[0].required_isa(), HostIsa::Scalar);
        assert!(CrcImpl::Sliced8.usable());
        let bits = random_bits(777, 4);
        assert_eq!(CRC24A.compute(&bits), CRC24A.compute_bit_serial(&bits));
    }

    #[test]
    fn single_bit_errors_are_detected() {
        let payload = random_bits(200, 9);
        let coded = CRC24A.attach(&payload);
        for i in 0..coded.len() {
            let mut bad = coded.clone();
            bad[i] ^= 1;
            assert!(
                CRC24A.check(&bad).is_none(),
                "missed single-bit error at {i}"
            );
        }
    }

    #[test]
    fn burst_errors_within_width_are_detected() {
        let payload = random_bits(128, 5);
        let coded = CRC16.attach(&payload);
        // any burst of length ≤ 16 must be caught
        for start in [0usize, 10, 77, 120] {
            let mut bad = coded.clone();
            for b in bad.iter_mut().skip(start).take(16) {
                *b ^= 1;
            }
            assert!(CRC16.check(&bad).is_none(), "missed burst at {start}");
        }
    }

    #[test]
    fn zero_message_has_zero_crc() {
        // all-zero register + all-zero input → zero CRC (spec init is 0)
        assert!(CRC24A.compute(&[0; 64]).iter().all(|&b| b == 0));
    }

    #[test]
    fn known_crc24a_self_consistency() {
        // The defining property: [payload | crc] is divisible by the
        // generator, i.e. computing over the whole coded block gives 0.
        let payload = random_bits(64, 11);
        let coded = CRC24A.attach(&payload);
        assert!(CRC24A.compute(&coded).iter().all(|&b| b == 0));
    }

    #[test]
    fn short_input_check_fails_gracefully() {
        assert!(CRC24B.check(&[1, 0, 1]).is_none());
    }
}
