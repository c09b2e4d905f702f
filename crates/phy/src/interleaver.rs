//! TS 36.212 §5.1.3.2.3 QPP turbo-code internal interleaver.
//!
//! The permutation is `π(i) = (f1·i + f2·i²) mod K` with `(f1, f2)`
//! drawn from Table 5.1.3-3 for each of the 188 legal block sizes
//! `K ∈ {40, 48, …, 6144}`. Quadratic permutation polynomials with the
//! table's coefficients are bijections on `Z_K`; the tests verify this
//! for every row (a mistyped coefficient would fail loudly). Coders
//! share one table per size, built on its first [`QppInterleaver::of`].

use std::sync::OnceLock;

/// One row of Table 5.1.3-3: block size and the two QPP coefficients.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QppRow {
    /// Code block size K (bits).
    pub k: u32,
    /// Linear coefficient f1.
    pub f1: u32,
    /// Quadratic coefficient f2.
    pub f2: u32,
}

/// TS 36.212 Table 5.1.3-3 (all 188 block sizes).
pub const QPP_TABLE: [QppRow; 188] = {
    const fn r(k: u32, f1: u32, f2: u32) -> QppRow {
        QppRow { k, f1, f2 }
    }
    [
        r(40, 3, 10),
        r(48, 7, 12),
        r(56, 19, 42),
        r(64, 7, 16),
        r(72, 7, 18),
        r(80, 11, 20),
        r(88, 5, 22),
        r(96, 11, 24),
        r(104, 7, 26),
        r(112, 41, 84),
        r(120, 103, 90),
        r(128, 15, 32),
        r(136, 9, 34),
        r(144, 17, 108),
        r(152, 9, 38),
        r(160, 21, 120),
        r(168, 101, 84),
        r(176, 21, 44),
        r(184, 57, 46),
        r(192, 23, 48),
        r(200, 13, 50),
        r(208, 27, 52),
        r(216, 11, 36),
        r(224, 27, 56),
        r(232, 85, 58),
        r(240, 29, 60),
        r(248, 33, 62),
        r(256, 15, 32),
        r(264, 17, 198),
        r(272, 33, 68),
        r(280, 103, 210),
        r(288, 19, 36),
        r(296, 19, 74),
        r(304, 37, 76),
        r(312, 19, 78),
        r(320, 21, 120),
        r(328, 21, 82),
        r(336, 115, 84),
        r(344, 193, 86),
        r(352, 21, 44),
        r(360, 133, 90),
        r(368, 81, 46),
        r(376, 45, 94),
        r(384, 23, 48),
        r(392, 243, 98),
        r(400, 151, 40),
        r(408, 155, 102),
        r(416, 25, 52),
        r(424, 51, 106),
        r(432, 47, 72),
        r(440, 91, 110),
        r(448, 29, 168),
        r(456, 29, 114),
        r(464, 247, 58),
        r(472, 29, 118),
        r(480, 89, 180),
        r(488, 91, 122),
        r(496, 157, 62),
        r(504, 55, 84),
        r(512, 31, 64),
        r(528, 17, 66),
        r(544, 35, 68),
        r(560, 227, 420),
        r(576, 65, 96),
        r(592, 19, 74),
        r(608, 37, 76),
        r(624, 41, 234),
        r(640, 39, 80),
        r(656, 185, 82),
        r(672, 43, 252),
        r(688, 21, 86),
        r(704, 155, 44),
        r(720, 79, 120),
        r(736, 139, 92),
        r(752, 23, 94),
        r(768, 217, 48),
        r(784, 25, 98),
        r(800, 17, 80),
        r(816, 127, 102),
        r(832, 25, 52),
        r(848, 239, 106),
        r(864, 17, 48),
        r(880, 137, 110),
        r(896, 215, 112),
        r(912, 29, 114),
        r(928, 15, 58),
        r(944, 147, 118),
        r(960, 29, 60),
        r(976, 59, 122),
        r(992, 65, 124),
        r(1008, 55, 84),
        r(1024, 31, 64),
        r(1056, 17, 66),
        r(1088, 171, 204),
        r(1120, 67, 140),
        r(1152, 35, 72),
        r(1184, 19, 74),
        r(1216, 39, 76),
        r(1248, 19, 78),
        r(1280, 199, 240),
        r(1312, 21, 82),
        r(1344, 211, 252),
        r(1376, 21, 86),
        r(1408, 43, 88),
        r(1440, 149, 60),
        r(1472, 45, 92),
        r(1504, 49, 846),
        r(1536, 71, 48),
        r(1568, 13, 28),
        r(1600, 17, 80),
        r(1632, 25, 102),
        r(1664, 183, 104),
        r(1696, 55, 954),
        r(1728, 127, 96),
        r(1760, 27, 110),
        r(1792, 29, 112),
        r(1824, 29, 114),
        r(1856, 57, 116),
        r(1888, 45, 354),
        r(1920, 31, 120),
        r(1952, 59, 610),
        r(1984, 185, 124),
        r(2016, 113, 420),
        r(2048, 31, 64),
        r(2112, 17, 66),
        r(2176, 171, 136),
        r(2240, 209, 420),
        r(2304, 253, 216),
        r(2368, 367, 444),
        r(2432, 265, 456),
        r(2496, 181, 468),
        r(2560, 39, 80),
        r(2624, 27, 164),
        r(2688, 127, 504),
        r(2752, 143, 172),
        r(2816, 43, 88),
        r(2880, 29, 300),
        r(2944, 45, 92),
        r(3008, 157, 188),
        r(3072, 47, 96),
        r(3136, 13, 28),
        r(3200, 111, 240),
        r(3264, 443, 204),
        r(3328, 51, 104),
        r(3392, 51, 212),
        r(3456, 451, 192),
        r(3520, 257, 220),
        r(3584, 57, 336),
        r(3648, 313, 228),
        r(3712, 271, 232),
        r(3776, 179, 236),
        r(3840, 331, 120),
        r(3904, 363, 244),
        r(3968, 375, 248),
        r(4032, 127, 168),
        r(4096, 31, 64),
        r(4160, 33, 130),
        r(4224, 43, 264),
        r(4288, 33, 134),
        r(4352, 477, 408),
        r(4416, 35, 138),
        r(4480, 233, 280),
        r(4544, 357, 142),
        r(4608, 337, 480),
        r(4672, 37, 146),
        r(4736, 71, 444),
        r(4800, 71, 120),
        r(4864, 37, 152),
        r(4928, 39, 462),
        r(4992, 127, 234),
        r(5056, 39, 158),
        r(5120, 39, 80),
        r(5184, 31, 96),
        r(5248, 113, 902),
        r(5312, 41, 166),
        r(5376, 251, 336),
        r(5440, 43, 170),
        r(5504, 21, 86),
        r(5568, 43, 174),
        r(5632, 45, 176),
        r(5696, 45, 178),
        r(5760, 161, 120),
        r(5824, 89, 182),
        r(5888, 323, 184),
        r(5952, 47, 186),
        r(6016, 23, 94),
        r(6080, 47, 190),
        r(6144, 263, 480),
    ]
};

/// A QPP interleaver instantiated for one block size, with precomputed
/// forward and inverse permutations.
#[derive(Debug, Clone)]
pub struct QppInterleaver {
    forward: Vec<u32>, // forward[i] = π(i)
    inverse: Vec<u32>, // inverse[π(i)] = i
}

/// The row of [`QPP_TABLE`] holding block size `k`, from the spec's K
/// spacing (8 up to 512, 16 to 1024, 32 to 2048, 64 beyond): the index
/// of every per-K table. Panics if `k` is not a legal size.
pub(crate) fn row(k: usize) -> usize {
    let i = match k {
        40..=512 => (k - 40) / 8,
        513..=1024 => 59 + (k - 512) / 16,
        1025..=2048 => 91 + (k - 1024) / 32,
        2049..=6144 => 123 + (k - 2048) / 64,
        _ => usize::MAX,
    };
    match QPP_TABLE.get(i) {
        Some(r) if r.k as usize == k => i,
        _ => panic!("{k} is not a legal turbo code block size"),
    }
}

impl QppInterleaver {
    /// Build the interleaver for block size `k`; `k` must be one of the
    /// 188 legal sizes. Coders read [`Self::of`] instead.
    pub fn new(k: usize) -> Self {
        let QppRow { f1, f2, .. } = QPP_TABLE[row(k)];
        let (f1, f2) = (f1 as u64, f2 as u64);
        let ku = k as u64;
        let mut forward = vec![0u32; k];
        let mut inverse = vec![u32::MAX; k];
        for i in 0..ku {
            // (f1*i + f2*i*i) mod K without overflow: i < 6144 so the
            // products fit in u64 comfortably.
            let p = (f1 * i + ((f2 * i) % ku) * i) % ku;
            forward[i as usize] = p as u32;
            inverse[p as usize] = i as u32;
        }
        // The decoders read through both tables unchecked.
        assert!(
            inverse.iter().all(|&x| x != u32::MAX),
            "QPP not bijective for K={k}"
        );
        Self { forward, inverse }
    }

    /// The process-wide interleaver for block size `k`, built on the
    /// first call for it; panics as [`Self::new`] does on an illegal `k`.
    pub fn of(k: usize) -> &'static QppInterleaver {
        static TABLES: [OnceLock<QppInterleaver>; 188] = [const { OnceLock::new() }; 188];
        TABLES[row(k)].get_or_init(|| Self::new(k))
    }

    /// Whether `k` is one of the 188 legal block sizes.
    pub fn is_legal_k(k: usize) -> bool {
        QPP_TABLE.iter().any(|r| r.k as usize == k)
    }

    /// Smallest legal block size ≥ `k` (code-block segmentation helper);
    /// `None` if `k` exceeds 6144.
    pub fn next_legal_k(k: usize) -> Option<usize> {
        QPP_TABLE.iter().map(|r| r.k as usize).find(|&kk| kk >= k)
    }

    /// The block size.
    pub fn k(&self) -> usize {
        self.forward.len()
    }

    /// Forward-permuted index: π(i).
    #[inline]
    pub fn pi(&self, i: usize) -> usize {
        self.forward[i] as usize
    }

    /// The full forward permutation table (`table[i] = π(i)`), for hot
    /// loops that iterate it rather than calling [`Self::pi`] per
    /// element.
    #[inline]
    pub fn pi_table(&self) -> &[u32] {
        &self.forward
    }

    /// The full inverse permutation table (`table[π(i)] = i`).
    #[inline]
    pub fn pi_inv_table(&self) -> &[u32] {
        &self.inverse
    }

    /// Inverse-permuted index: π⁻¹(j).
    #[inline]
    pub fn pi_inv(&self, j: usize) -> usize {
        self.inverse[j] as usize
    }

    /// Interleave: `out[i] = input[π(i)]` (the order the second
    /// constituent encoder reads the block).
    pub fn interleave<T: Copy>(&self, input: &[T]) -> Vec<T> {
        assert_eq!(input.len(), self.k());
        self.forward.iter().map(|&p| input[p as usize]).collect()
    }

    /// De-interleave: inverse of [`QppInterleaver::interleave`].
    pub fn deinterleave<T: Copy>(&self, input: &[T]) -> Vec<T> {
        assert_eq!(input.len(), self.k());
        self.inverse.iter().map(|&p| input[p as usize]).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_has_expected_shape() {
        assert_eq!(QPP_TABLE.len(), 188);
        assert_eq!(QPP_TABLE[0].k, 40);
        assert_eq!(QPP_TABLE[187].k, 6144);
        // K spacing per spec: 8 up to 512, 16 to 1024, 32 to 2048, 64 beyond.
        for w in QPP_TABLE.windows(2) {
            let (a, b) = (w[0].k, w[1].k);
            let step = b - a;
            let expected = if b <= 512 {
                8
            } else if b <= 1024 {
                16
            } else if b <= 2048 {
                32
            } else {
                64
            };
            assert_eq!(step, expected, "bad K spacing at {a}→{b}");
        }
    }

    #[test]
    fn every_row_is_a_bijection() {
        // The critical structural property; a mistyped coefficient
        // would break it.
        for row in &QPP_TABLE {
            let il = QppInterleaver::new(row.k as usize);
            let mut seen = vec![false; row.k as usize];
            for i in 0..row.k as usize {
                let p = il.pi(i);
                assert!(!seen[p], "K={} duplicates π({i})={p}", row.k);
                seen[p] = true;
            }
        }
    }

    #[test]
    fn inverse_really_inverts() {
        for k in [40usize, 512, 1504, 6144] {
            let il = QppInterleaver::new(k);
            for i in 0..k {
                assert_eq!(il.pi_inv(il.pi(i)), i);
            }
        }
    }

    #[test]
    fn interleave_round_trip() {
        let il = QppInterleaver::new(104);
        let data: Vec<u16> = (0..104).collect();
        let inter = il.interleave(&data);
        assert_ne!(inter, data, "permutation must not be identity");
        assert_eq!(il.deinterleave(&inter), data);
    }

    #[test]
    fn pi_zero_is_zero() {
        // π(0) = 0 for every QPP (no constant term).
        for k in [40usize, 2048, 6144] {
            assert_eq!(QppInterleaver::new(k).pi(0), 0);
        }
    }

    #[test]
    fn k40_matches_spec_formula() {
        // Hand-computed from f1=3, f2=10, K=40:
        // π(1) = 13, π(2) = 46 mod 40 = 6, π(3) = 99 mod 40 = 19.
        let il = QppInterleaver::new(40);
        assert_eq!(il.pi(1), 13);
        assert_eq!(il.pi(2), 6);
        assert_eq!(il.pi(3), 19);
    }

    #[test]
    fn next_legal_k_rounds_up() {
        assert_eq!(QppInterleaver::next_legal_k(40), Some(40));
        assert_eq!(QppInterleaver::next_legal_k(41), Some(48));
        assert_eq!(QppInterleaver::next_legal_k(513), Some(528));
        assert_eq!(QppInterleaver::next_legal_k(6144), Some(6144));
        assert_eq!(QppInterleaver::next_legal_k(6145), None);
    }

    #[test]
    #[should_panic(expected = "not a legal")]
    fn illegal_k_panics() {
        let _ = QppInterleaver::new(41);
    }

    #[test]
    fn of_builds_one_table_per_legal_k() {
        // Two threads asking for one K (first, so they may race to
        // build it) get one table.
        let k = 4736;
        let [a, b] = [(); 2].map(|()| std::thread::spawn(move || QppInterleaver::of(k)));
        let (a, b) = (a.join().unwrap(), b.join().unwrap());
        assert!(std::ptr::eq(a, b));
        assert_eq!(a.pi_table(), QppInterleaver::new(k).pi_table());
        // Exactly the 188 rows, in order, each K's own table.
        let rows: Vec<_> = (0..=7000)
            .filter(|&k| QppInterleaver::is_legal_k(k))
            .map(row)
            .collect();
        assert_eq!(rows, (0..188).collect::<Vec<_>>());
        for r in &QPP_TABLE {
            let il = QppInterleaver::of(r.k as usize);
            assert_eq!(il.k(), r.k as usize);
            assert!(std::ptr::eq(il, QppInterleaver::of(r.k as usize)));
        }
    }

    #[test]
    #[should_panic(expected = "41 is not a legal turbo code block size")]
    fn of_an_illegal_k_panics() {
        let _ = QppInterleaver::of(41);
    }
}
