//! TS 36.211 §7.1 modulation mappers and max-log soft demappers.
//!
//! Complex symbols are `(f32, f32)` pairs normalized to unit average
//! energy. The demapper emits fixed-point LLRs in the decoder's
//! convention (positive → bit 0) scaled by [`LLR_SCALE`].

use crate::bits::compress_into;
use std::sync::OnceLock;

/// A complex baseband sample.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
#[repr(C)]
pub struct Cplx {
    /// In-phase component.
    pub re: f32,
    /// Quadrature component.
    pub im: f32,
}

// The inherent `add`/`sub`/`mul` are deliberate: `Cplx` is `Copy` data
// used in tight loops and the by-value methods keep call sites free of
// trait imports.
#[allow(clippy::should_implement_trait)]
impl Cplx {
    /// Construct from parts.
    pub const fn new(re: f32, im: f32) -> Self {
        Self { re, im }
    }

    /// Complex addition.
    pub fn add(self, o: Self) -> Self {
        Self::new(self.re + o.re, self.im + o.im)
    }

    /// Complex subtraction.
    pub fn sub(self, o: Self) -> Self {
        Self::new(self.re - o.re, self.im - o.im)
    }

    /// Complex multiplication.
    pub fn mul(self, o: Self) -> Self {
        Self::new(
            self.re * o.re - self.im * o.im,
            self.re * o.im + self.im * o.re,
        )
    }

    /// Squared magnitude.
    pub fn norm_sq(self) -> f32 {
        self.re * self.re + self.im * self.im
    }
}

/// Fixed-point scale applied to demapped LLRs (Q format: ±4·scale full
/// range for 64-QAM).
pub const LLR_SCALE: f32 = 64.0;

/// Modulation orders used by LTE data channels.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Modulation {
    /// 2 bits/symbol.
    Qpsk,
    /// 4 bits/symbol.
    Qam16,
    /// 6 bits/symbol.
    Qam64,
}

impl Modulation {
    /// All supported orders.
    pub const ALL: [Modulation; 3] = [Modulation::Qpsk, Modulation::Qam16, Modulation::Qam64];

    /// Bits carried per symbol.
    pub const fn bits_per_symbol(self) -> usize {
        match self {
            Modulation::Qpsk => 2,
            Modulation::Qam16 => 4,
            Modulation::Qam64 => 6,
        }
    }

    /// Display name.
    pub const fn name(self) -> &'static str {
        match self {
            Modulation::Qpsk => "QPSK",
            Modulation::Qam16 => "16QAM",
            Modulation::Qam64 => "64QAM",
        }
    }

    /// Per-axis amplitude normalizer (unit average symbol energy).
    pub(crate) fn norm(self) -> f32 {
        match self {
            Modulation::Qpsk => 1.0 / std::f32::consts::SQRT_2,
            Modulation::Qam16 => 1.0 / 10.0f32.sqrt(),
            Modulation::Qam64 => 1.0 / 42.0f32.sqrt(),
        }
    }

    /// Gray-mapped per-axis level from the bits on one axis
    /// (TS 36.211 tables; bit 0 ↦ positive).
    fn axis_level(self, bits: &[u8]) -> f32 {
        match self {
            Modulation::Qpsk => {
                if bits[0] == 0 {
                    1.0
                } else {
                    -1.0
                }
            }
            Modulation::Qam16 => {
                let sign = if bits[0] == 0 { 1.0 } else { -1.0 };
                let mag = if bits[1] == 0 { 1.0 } else { 3.0 };
                sign * mag
            }
            Modulation::Qam64 => {
                // Gray magnitudes: (b1,b2) = 00→1, 01→3, 11→5, 10→7.
                let sign = if bits[0] == 0 { 1.0 } else { -1.0 };
                let mag = match (bits[1], bits[2]) {
                    (0, 0) => 1.0,
                    (0, 1) => 3.0,
                    (1, 1) => 5.0,
                    (1, 0) => 7.0,
                    _ => unreachable!(),
                };
                sign * mag
            }
        }
    }

    /// The constellation point of the symbol whose bits are `c`
    /// (even-indexed bits drive I, odd-indexed drive Q).
    fn point(self, c: &[u8]) -> Cplx {
        let n = self.norm();
        let ibits: Vec<u8> = c.iter().copied().step_by(2).collect();
        let qbits: Vec<u8> = c.iter().copied().skip(1).step_by(2).collect();
        Cplx::new(self.axis_level(&ibits) * n, self.axis_level(&qbits) * n)
    }

    /// The `2^bits_per_symbol` constellation points (repeated to fill
    /// 64 slots), indexed by the symbol's bits read LSB-first: bit `j`
    /// of the index is the symbol's `j`-th bit, which is how a field of
    /// a compressed bit mask reads.
    fn constellation(self) -> &'static [Cplx; 64] {
        static TABLES: OnceLock<[[Cplx; 64]; 3]> = OnceLock::new();
        let tables = TABLES.get_or_init(|| {
            Modulation::ALL.map(|m| {
                let bps = m.bits_per_symbol();
                core::array::from_fn(|v| {
                    let c: Vec<u8> = (0..bps).map(|j| (v >> j) as u8 & 1).collect();
                    m.point(&c)
                })
            })
        });
        &tables[self as usize]
    }

    /// Map bits (length divisible by `bits_per_symbol`) to symbols.
    /// Bit-to-axis assignment per the spec: even-indexed bits drive I,
    /// odd-indexed drive Q (interleaved per symbol).
    pub fn modulate(self, bits: &[u8]) -> Vec<Cplx> {
        let mut out = Vec::new();
        self.modulate_into(bits, &mut out);
        out
    }

    /// [`Self::modulate`] into a caller-owned buffer (cleared first). A
    /// non-zero bit value counts as 1: the bits are compressed by `!= 0`
    /// into a mask ([`crate::bits`]), and each symbol is one table load
    /// indexed by its field of the mask.
    pub fn modulate_into(self, bits: &[u8], out: &mut Vec<Cplx>) {
        let bps = self.bits_per_symbol();
        assert_eq!(bits.len() % bps, 0, "bit count must be a multiple of {bps}");
        out.clear();
        out.reserve(bits.len() / bps);
        match self {
            Modulation::Qpsk => self.map_fields::<2>(bits, out),
            Modulation::Qam16 => self.map_fields::<4>(bits, out),
            Modulation::Qam64 => self.map_fields::<6>(bits, out),
        }
    }

    /// The mapper at `BPS` bits per symbol. 48 bits are a whole number
    /// of symbols at every order and a whole number of mask bytes, so
    /// the mask is read six bytes at a time and every field sits at a
    /// constant shift.
    fn map_fields<const BPS: usize>(self, bits: &[u8], out: &mut Vec<Cplx>) {
        /// Bits compressed per call: whole 48-bit groups, whole words.
        const CHUNK: usize = 48 * 64;
        let table = self.constellation();
        // two bytes over, for the 8-byte load of the last 6-byte group
        let mut mask = [0u8; CHUNK / 8 + 2];
        for chunk in bits.chunks(CHUNK) {
            compress_into::<false>(chunk, 0xFF, &mut mask[..chunk.len().div_ceil(8)]);
            let mut groups = mask.windows(8).step_by(6);
            let mut map = |n: usize| {
                let group = groups.next().expect("a group per 48 bits of the chunk");
                let w = u64::from_le_bytes(group.try_into().expect("window of 8"));
                out.extend((0..n).map(|s| table[(w >> (BPS * s)) as usize & ((1 << BPS) - 1)]));
            };
            let symbols = chunk.len() / BPS;
            for _ in 0..symbols / (48 / BPS) {
                map(48 / BPS);
            }
            match symbols % (48 / BPS) {
                0 => {}
                rest => map(rest),
            }
        }
    }

    /// Max-log soft demapping of one axis value `y` (already scaled by
    /// 1/norm) into per-bit LLRs for that axis.
    fn axis_llrs(self, y: f32, out: &mut Vec<i16>) {
        let q = |v: f32| (v * LLR_SCALE).clamp(i16::MIN as f32, i16::MAX as f32) as i16;
        match self {
            Modulation::Qpsk => out.push(q(2.0 * y)),
            Modulation::Qam16 => {
                // b0: sign; b1: |y| inner(1) vs outer(3)
                out.push(q(2.0 * y));
                out.push(q(2.0 * (2.0 - y.abs())));
            }
            Modulation::Qam64 => {
                // b0: sign. b1 = 0 for |y| ∈ {1,3} → L ≈ 4 − |y|.
                // b2 = 0 for |y| ∈ {1,7} → L ≈ ||y|−4| − 2.
                out.push(q(y));
                out.push(q(4.0 - y.abs()));
                out.push(q((y.abs() - 4.0).abs() - 2.0));
            }
        }
    }

    /// Max-log soft demapper: symbols → interleaved per-bit LLRs
    /// (positive → bit 0). `noise_scale` multiplies the output
    /// (≈ 1/σ²; pass 1.0 when the decoder normalizes elsewhere).
    pub fn demodulate(self, symbols: &[Cplx], noise_scale: f32) -> Vec<i16> {
        let inv = 1.0 / self.norm();
        let mut axis_i = Vec::new();
        let mut axis_q = Vec::new();
        let mut out = Vec::with_capacity(symbols.len() * self.bits_per_symbol());
        for s in symbols {
            axis_i.clear();
            axis_q.clear();
            self.axis_llrs(s.re * inv, &mut axis_i);
            self.axis_llrs(s.im * inv, &mut axis_q);
            for j in 0..axis_i.len() {
                let scale = |v: i16| {
                    ((v as f32 * noise_scale).clamp(i16::MIN as f32, i16::MAX as f32)) as i16
                };
                out.push(scale(axis_i[j]));
                out.push(scale(axis_q[j]));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::random_bits;

    #[test]
    fn unit_average_energy() {
        for m in Modulation::ALL {
            let bits = random_bits(m.bits_per_symbol() * 4096, 5);
            let syms = m.modulate(&bits);
            let e: f32 = syms.iter().map(|s| s.norm_sq()).sum::<f32>() / syms.len() as f32;
            assert!((e - 1.0).abs() < 0.05, "{}: energy {e}", m.name());
        }
    }

    #[test]
    fn noiseless_demap_recovers_bits() {
        for m in Modulation::ALL {
            let bits = random_bits(m.bits_per_symbol() * 500, 9);
            let syms = m.modulate(&bits);
            let llrs = m.demodulate(&syms, 1.0);
            assert_eq!(llrs.len(), bits.len());
            let rx: Vec<u8> = llrs.iter().map(|&l| u8::from(l < 0)).collect();
            assert_eq!(rx, bits, "{} demap mismatch", m.name());
        }
    }

    #[test]
    fn table_lookup_matches_the_per_axis_expression_for_every_pattern() {
        for m in Modulation::ALL {
            let bps = m.bits_per_symbol();
            let patterns: Vec<Vec<u8>> = (0..1u8 << bps)
                .map(|v| (0..bps).map(|j| (v >> j) & 1).collect())
                .collect();
            let mapped = m.modulate(&patterns.concat());
            assert_eq!(mapped.len(), 1 << bps);
            for (c, got) in patterns.iter().zip(&mapped) {
                let want = m.point(c);
                assert_eq!(
                    (got.re.to_bits(), got.im.to_bits()),
                    (want.re.to_bits(), want.im.to_bits()),
                    "{} bits {c:?}",
                    m.name()
                );
            }
        }
    }

    #[test]
    fn mapper_matches_the_per_axis_expression_and_reads_non_zero_as_one() {
        // Lengths either side of a 48-bit group and of a compressed
        // chunk, ones spelled 1, 2, 0x80 and 0xFF.
        let ones = [1u8, 2, 0x80, 0xFF];
        for m in Modulation::ALL {
            let bps = m.bits_per_symbol();
            for symbols in [0usize, 1, 7, 8, 9, 23, 24, 25, 511, 512, 513, 3800] {
                let bits: Vec<u8> = random_bits(bps * symbols, 6)
                    .iter()
                    .enumerate()
                    .map(|(i, &b)| b * ones[i % 4])
                    .collect();
                let got = m.modulate(&bits);
                assert_eq!(got.len(), symbols);
                for (c, got) in bits.chunks_exact(bps).zip(&got) {
                    let want = m.point(&c.iter().map(|&b| u8::from(b != 0)).collect::<Vec<_>>());
                    assert_eq!(
                        (got.re.to_bits(), got.im.to_bits()),
                        (want.re.to_bits(), want.im.to_bits()),
                        "{} symbols={symbols} bits {c:?}",
                        m.name()
                    );
                }
            }
        }
    }

    #[test]
    fn qpsk_constellation_points() {
        let s = Modulation::Qpsk.modulate(&[0, 0, 0, 1, 1, 0, 1, 1]);
        let a = 1.0 / std::f32::consts::SQRT_2;
        assert!((s[0].re - a).abs() < 1e-6 && (s[0].im - a).abs() < 1e-6);
        assert!((s[1].re - a).abs() < 1e-6 && (s[1].im + a).abs() < 1e-6);
        assert!((s[2].re + a).abs() < 1e-6 && (s[2].im - a).abs() < 1e-6);
        assert!((s[3].re + a).abs() < 1e-6 && (s[3].im + a).abs() < 1e-6);
    }

    #[test]
    fn qam16_has_sixteen_distinct_points() {
        let mut pts = std::collections::HashSet::new();
        for v in 0..16u8 {
            let bits = [(v >> 3) & 1, (v >> 2) & 1, (v >> 1) & 1, v & 1];
            let s = Modulation::Qam16.modulate(&bits)[0];
            pts.insert((s.re.to_bits(), s.im.to_bits()));
        }
        assert_eq!(pts.len(), 16);
    }

    #[test]
    fn qam64_has_sixtyfour_distinct_points() {
        let mut pts = std::collections::HashSet::new();
        for v in 0..64u8 {
            let bits: Vec<u8> = (0..6).map(|i| (v >> (5 - i)) & 1).collect();
            let s = Modulation::Qam64.modulate(&bits)[0];
            pts.insert((s.re.to_bits(), s.im.to_bits()));
        }
        assert_eq!(pts.len(), 64);
    }

    #[test]
    fn llr_magnitude_tracks_distance_from_decision_boundary() {
        // A QPSK symbol near the axis should give weaker LLRs than one
        // far from it.
        let strong = Modulation::Qpsk.demodulate(&[Cplx::new(0.9, 0.9)], 1.0);
        let weak = Modulation::Qpsk.demodulate(&[Cplx::new(0.05, 0.05)], 1.0);
        assert!(strong[0] > weak[0]);
        assert!(weak[0] > 0);
    }
}
