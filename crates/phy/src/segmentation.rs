//! TS 36.212 §5.1.2 code block segmentation.
//!
//! Transport blocks (with their CRC24A) longer than 6144 bits are split
//! into code blocks, each receiving its own CRC24B; filler bits pad the
//! first block up to the chosen QPP sizes.

use crate::crc::{best_crc, CRC24B};
use crate::interleaver::QppInterleaver;

/// Maximum code block size Z.
pub const Z_MAX: usize = 6144;
/// CRC length L attached per code block when C > 1.
const L: usize = 24;

/// Structural errors from the typed (non-panicking) segmentation API.
/// The legacy `plan`/`segment`/`desegment` methods keep their original
/// panic-on-misuse contract by delegating to the `try_` variants.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegError {
    /// Zero-length transport block.
    EmptyBlock,
    /// `segment` input length differs from the planned B.
    LengthMismatch {
        /// Planned B.
        expected: usize,
        /// Actual input length.
        got: usize,
    },
    /// `desegment` was handed the wrong number of code blocks.
    WrongBlockCount {
        /// Planned C.
        expected: usize,
        /// Blocks received.
        got: usize,
    },
    /// A `desegment` code block has the wrong size.
    WrongBlockSize {
        /// Which block.
        index: usize,
        /// Planned K for that block.
        expected: usize,
        /// Actual block length.
        got: usize,
    },
}

impl std::fmt::Display for SegError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SegError::EmptyBlock => write!(f, "empty transport block"),
            SegError::LengthMismatch { expected, got } => {
                write!(f, "input length {got} != planned B {expected}")
            }
            SegError::WrongBlockCount { expected, got } => {
                write!(f, "{got} code blocks != planned C {expected}")
            }
            SegError::WrongBlockSize {
                index,
                expected,
                got,
            } => write!(f, "block {index} has {got} bits != planned K {expected}"),
        }
    }
}

impl std::error::Error for SegError {}

/// The segmentation plan for a transport block of `b` bits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Segmentation {
    /// Input length B (bits, including the TB CRC).
    pub b: usize,
    /// Number of code blocks C.
    pub c: usize,
    /// Larger block size K+.
    pub k_plus: usize,
    /// Smaller block size K− (0 when unused).
    pub k_minus: usize,
    /// Number of K− blocks.
    pub c_minus: usize,
    /// Number of K+ blocks.
    pub c_plus: usize,
    /// Filler bits prepended to the first block.
    pub f: usize,
}

impl Segmentation {
    /// Compute the spec's segmentation for `b` input bits.
    pub fn plan(b: usize) -> Self {
        Self::try_plan(b).expect("empty transport block")
    }

    /// Non-panicking [`Segmentation::plan`]: rejects an empty transport
    /// block instead of asserting.
    pub fn try_plan(b: usize) -> Result<Self, SegError> {
        if b == 0 {
            return Err(SegError::EmptyBlock);
        }
        let (c, b_prime) = if b <= Z_MAX {
            (1, b)
        } else {
            let c = b.div_ceil(Z_MAX - L);
            (c, b + c * L)
        };
        let k_plus = QppInterleaver::next_legal_k(b_prime.div_ceil(c))
            .expect("B'/C exceeds the largest code block size");
        let (k_minus, c_minus, c_plus) = if c == 1 {
            (0, 0, 1)
        } else {
            // largest legal K < K+
            let k_minus = crate::interleaver::QPP_TABLE
                .iter()
                .map(|r| r.k as usize)
                .rfind(|&k| k < k_plus)
                .unwrap_or(k_plus);
            let dk = k_plus - k_minus;
            match (c * k_plus - b_prime).checked_div(dk) {
                None => (k_minus, 0, c),
                Some(c_minus) => (k_minus, c_minus, c - c_minus),
            }
        };
        let f = c_plus * k_plus + c_minus * k_minus - b_prime;
        Ok(Self {
            b,
            c,
            k_plus,
            k_minus,
            c_minus,
            c_plus,
            f,
        })
    }

    /// Block size of code block `i` (K− blocks come first, per spec).
    pub fn k_of(&self, i: usize) -> usize {
        assert!(i < self.c);
        if i < self.c_minus {
            self.k_minus
        } else {
            self.k_plus
        }
    }

    /// Split `bits` (length B) into code blocks, adding filler and
    /// per-block CRC24B when C > 1.
    pub fn segment(&self, bits: &[u8]) -> Vec<Vec<u8>> {
        self.try_segment(bits).expect("input length matches plan")
    }

    /// Non-panicking [`Segmentation::segment`]: rejects a bit slice
    /// whose length differs from the planned B.
    pub fn try_segment(&self, bits: &[u8]) -> Result<Vec<Vec<u8>>, SegError> {
        if bits.len() != self.b {
            return Err(SegError::LengthMismatch {
                expected: self.b,
                got: bits.len(),
            });
        }
        let mut out = Vec::with_capacity(self.c);
        let crc = (self.c > 1).then(best_crc);
        let mut pos = 0;
        for i in 0..self.c {
            let k = self.k_of(i);
            let payload = if self.c == 1 { k } else { k - L };
            let filler = if i == 0 { self.f } else { 0 };
            let take = payload - filler;
            // one allocation per block: filler, payload and CRC24B all
            // land in the block's final `Vec`
            let mut blk = Vec::with_capacity(k);
            blk.resize(filler, 0);
            blk.extend_from_slice(&bits[pos..pos + take]);
            pos += take;
            if let Some(imp) = crc {
                CRC24B.append_with(imp, &mut blk);
            }
            debug_assert_eq!(blk.len(), k);
            out.push(blk);
        }
        debug_assert_eq!(pos, self.b);
        Ok(out)
    }

    /// Reassemble decoded code blocks into the transport-level bit
    /// stream, stripping filler and per-block CRCs; returns `None` if
    /// any per-block CRC fails.
    pub fn desegment(&self, blocks: &[Vec<u8>]) -> Option<Vec<u8>> {
        self.try_desegment(blocks)
            .expect("block set matches segmentation plan")
    }

    /// Non-panicking [`Segmentation::desegment`]: a structurally
    /// inconsistent block set (wrong count or wrong sizes — e.g. a
    /// sender lying about its code-block count) is an `Err`; a clean
    /// structure whose per-block CRC fails is `Ok(None)`.
    pub fn try_desegment(&self, blocks: &[Vec<u8>]) -> Result<Option<Vec<u8>>, SegError> {
        if blocks.len() != self.c {
            return Err(SegError::WrongBlockCount {
                expected: self.c,
                got: blocks.len(),
            });
        }
        let mut out = Vec::with_capacity(self.b);
        for (i, blk) in blocks.iter().enumerate() {
            if blk.len() != self.k_of(i) {
                return Err(SegError::WrongBlockSize {
                    index: i,
                    expected: self.k_of(i),
                    got: blk.len(),
                });
            }
            let payload: &[u8] = if self.c > 1 {
                match CRC24B.check(blk) {
                    Some(p) => p,
                    None => return Ok(None),
                }
            } else {
                blk
            };
            let skip = if i == 0 { self.f } else { 0 };
            out.extend_from_slice(&payload[skip..]);
        }
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::random_bits;

    #[test]
    fn small_blocks_are_single_segment() {
        let s = Segmentation::plan(100);
        assert_eq!(s.c, 1);
        assert_eq!(s.k_plus, 104);
        assert_eq!(s.f, 4);
        assert_eq!(s.c_plus, 1);
    }

    #[test]
    fn exact_fit_has_no_filler() {
        let s = Segmentation::plan(512);
        assert_eq!((s.c, s.k_plus, s.f), (1, 512, 0));
    }

    #[test]
    fn large_blocks_split() {
        let s = Segmentation::plan(10000);
        assert_eq!(s.c, 2);
        // B' = 10000 + 48 = 10048; K+ = next(5024) = 5056
        assert_eq!(s.k_plus, 5056);
        assert!(s.c_plus >= 1);
        // total capacity matches B' + filler
        assert_eq!(s.c_plus * s.k_plus + s.c_minus * s.k_minus, 10048 + s.f);
    }

    #[test]
    fn segment_sizes_are_all_legal() {
        for b in [40usize, 1000, 6144, 6145, 20000, 100_000] {
            let s = Segmentation::plan(b);
            for i in 0..s.c {
                assert!(
                    QppInterleaver::is_legal_k(s.k_of(i)),
                    "B={b}: illegal block size {}",
                    s.k_of(i)
                );
            }
        }
    }

    #[test]
    fn segment_desegment_round_trip_single() {
        let bits = random_bits(1000, 6);
        let s = Segmentation::plan(1000);
        let blocks = s.segment(&bits);
        assert_eq!(blocks.len(), 1);
        assert_eq!(s.desegment(&blocks).unwrap(), bits);
    }

    #[test]
    fn segment_desegment_round_trip_multi() {
        let bits = random_bits(15000, 7);
        let s = Segmentation::plan(15000);
        assert!(s.c > 1);
        let blocks = s.segment(&bits);
        for (i, b) in blocks.iter().enumerate() {
            assert_eq!(b.len(), s.k_of(i));
        }
        assert_eq!(s.desegment(&blocks).unwrap(), bits);
    }

    #[test]
    fn corrupted_block_crc_detected() {
        let bits = random_bits(15000, 8);
        let s = Segmentation::plan(15000);
        let mut blocks = s.segment(&bits);
        blocks[1][10] ^= 1;
        assert!(s.desegment(&blocks).is_none());
    }

    #[test]
    fn try_api_rejects_structural_lies_without_panicking() {
        assert_eq!(Segmentation::try_plan(0), Err(SegError::EmptyBlock));

        let s = Segmentation::plan(15000);
        let bits = random_bits(15000, 11);
        assert!(matches!(
            s.try_segment(&bits[..100]),
            Err(SegError::LengthMismatch {
                expected: 15000,
                got: 100
            })
        ));

        let blocks = s.segment(&bits);
        // Lie about the block count.
        assert!(matches!(
            s.try_desegment(&blocks[..1]),
            Err(SegError::WrongBlockCount { .. })
        ));
        // Lie about a block size.
        let mut short = blocks.clone();
        short[1].pop();
        assert!(matches!(
            s.try_desegment(&short),
            Err(SegError::WrongBlockSize { index: 1, .. })
        ));
        // A clean structure with a corrupted payload is Ok(None), not Err.
        let mut corrupt = blocks.clone();
        corrupt[0][30] ^= 1;
        assert_eq!(s.try_desegment(&corrupt), Ok(None));
        // And the honest set round-trips.
        assert_eq!(s.try_desegment(&blocks).unwrap().unwrap(), bits);
    }

    #[test]
    fn filler_bits_are_zero_prefix_of_first_block() {
        let s = Segmentation::plan(100);
        let bits = random_bits(100, 2);
        let blocks = s.segment(&bits);
        assert_eq!(&blocks[0][..s.f], &vec![0u8; s.f][..]);
        assert_eq!(&blocks[0][s.f..], &bits[..]);
    }
}
