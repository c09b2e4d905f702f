//! TS 36.212 §5.1.3.2 turbo encoder.

use super::trellis;
use crate::interleaver::QppInterleaver;

/// Encoded output of one code block: systematic and two parity streams
/// of length `K`, plus the 12 tail bits arranged per the spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TurboCodeword {
    /// Block size K.
    pub k: usize,
    /// Systematic bits `x_k` (the input block).
    pub sys: Vec<u8>,
    /// First constituent parity `z_k`.
    pub p1: Vec<u8>,
    /// Second constituent parity `z'_k` (interleaved input).
    pub p2: Vec<u8>,
    /// Encoder-1 termination: `x_K, x_{K+1}, x_{K+2}`.
    pub tail_sys1: [u8; 3],
    /// Encoder-1 termination parity: `z_K, z_{K+1}, z_{K+2}`.
    pub tail_p1: [u8; 3],
    /// Encoder-2 termination: `x'_K, x'_{K+1}, x'_{K+2}`.
    pub tail_sys2: [u8; 3],
    /// Encoder-2 termination parity: `z'_K, z'_{K+1}, z'_{K+2}`.
    pub tail_p2: [u8; 3],
}

impl TurboCodeword {
    /// Assemble the spec's three output streams `d⁽⁰⁾ d⁽¹⁾ d⁽²⁾`, each of
    /// length `K + 4`, with the tail-bit arrangement of §5.1.3.2.2:
    ///
    /// ```text
    /// d0: x_0..x_{K-1},  x_K,     z_{K+1}, x'_K,     z'_{K+1}
    /// d1: z_0..z_{K-1},  z_K,     x_{K+2}, z'_K,     x'_{K+2}
    /// d2: z'_0..z'_{K-1}, x_{K+1}, z_{K+2}, x'_{K+1}, z'_{K+2}
    /// ```
    pub fn to_dstreams(&self) -> [Vec<u8>; 3] {
        let mut d0 = self.sys.clone();
        let mut d1 = self.p1.clone();
        let mut d2 = self.p2.clone();
        d0.extend([
            self.tail_sys1[0],
            self.tail_p1[1],
            self.tail_sys2[0],
            self.tail_p2[1],
        ]);
        d1.extend([
            self.tail_p1[0],
            self.tail_sys1[2],
            self.tail_p2[0],
            self.tail_sys2[2],
        ]);
        d2.extend([
            self.tail_sys1[1],
            self.tail_p1[2],
            self.tail_sys2[1],
            self.tail_p2[2],
        ]);
        [d0, d1, d2]
    }

    /// Total number of coded bits (3K + 12).
    pub fn coded_len(&self) -> usize {
        3 * self.k + 12
    }
}

/// The turbo encoder for one block size, reading that size's
/// process-wide QPP tables.
#[derive(Debug, Clone)]
pub struct TurboEncoder {
    il: &'static QppInterleaver,
}

impl TurboEncoder {
    /// Encoder for block size `k` (must be a legal QPP size).
    pub fn new(k: usize) -> Self {
        Self {
            il: QppInterleaver::of(k),
        }
    }

    /// Encode one block of `K` information bits.
    pub fn encode(&self, bits: &[u8]) -> TurboCodeword {
        let k = self.il.k();
        assert_eq!(bits.len(), k, "block must be exactly K={k} bits");
        let interleaved = self.il.interleave(bits);
        let (p1, tail_sys1, tail_p1) = Self::rsc_encode(bits);
        let (p2, tail_sys2, tail_p2) = Self::rsc_encode(&interleaved);
        TurboCodeword {
            k,
            sys: bits.to_vec(),
            p1,
            p2,
            tail_sys1,
            tail_p1,
            tail_sys2,
            tail_p2,
        }
    }

    /// One RSC constituent pass: parity stream plus termination bits.
    fn rsc_encode(bits: &[u8]) -> (Vec<u8>, [u8; 3], [u8; 3]) {
        let mut s = 0u8;
        let mut parity = Vec::with_capacity(bits.len());
        for &u in bits {
            parity.push(trellis::parity(s, u));
            s = trellis::next_state(s, u);
        }
        let mut tail_sys = [0u8; 3];
        let mut tail_p = [0u8; 3];
        for i in 0..3 {
            let u = trellis::term_input(s);
            tail_sys[i] = u;
            tail_p[i] = trellis::parity(s, u);
            s = trellis::next_state(s, u);
        }
        debug_assert_eq!(s, 0, "trellis must terminate in the zero state");
        (parity, tail_sys, tail_p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::random_bits;

    #[test]
    fn output_lengths_and_rate() {
        let enc = TurboEncoder::new(40);
        let cw = enc.encode(&random_bits(40, 1));
        assert_eq!(cw.sys.len(), 40);
        assert_eq!(cw.p1.len(), 40);
        assert_eq!(cw.p2.len(), 40);
        assert_eq!(cw.coded_len(), 132); // 3K + 12
        let [d0, d1, d2] = cw.to_dstreams();
        assert_eq!(d0.len(), 44);
        assert_eq!(d1.len(), 44);
        assert_eq!(d2.len(), 44);
    }

    #[test]
    fn systematic_stream_is_the_input() {
        let enc = TurboEncoder::new(64);
        let bits = random_bits(64, 2);
        let cw = enc.encode(&bits);
        assert_eq!(cw.sys, bits);
        let [d0, ..] = cw.to_dstreams();
        assert_eq!(&d0[..64], &bits[..]);
    }

    #[test]
    fn all_zero_input_yields_all_zero_codeword() {
        // Linear code: 0 → 0 (including tails: termination from state 0
        // is the zero transition).
        let enc = TurboEncoder::new(40);
        let cw = enc.encode(&[0; 40]);
        assert!(cw.p1.iter().all(|&b| b == 0));
        assert!(cw.p2.iter().all(|&b| b == 0));
        assert_eq!(cw.tail_sys1, [0; 3]);
        assert_eq!(cw.tail_p2, [0; 3]);
    }

    #[test]
    fn encoder_is_linear_over_gf2() {
        let enc = TurboEncoder::new(104);
        let a = random_bits(104, 3);
        let b = random_bits(104, 4);
        let ab: Vec<u8> = a.iter().zip(&b).map(|(x, y)| x ^ y).collect();
        let ca = enc.encode(&a);
        let cb = enc.encode(&b);
        let cab = enc.encode(&ab);
        for i in 0..104 {
            assert_eq!(cab.p1[i], ca.p1[i] ^ cb.p1[i], "p1 not linear at {i}");
            assert_eq!(cab.p2[i], ca.p2[i] ^ cb.p2[i], "p2 not linear at {i}");
        }
    }

    #[test]
    fn parity_streams_differ_for_random_input() {
        let enc = TurboEncoder::new(512);
        let cw = enc.encode(&random_bits(512, 5));
        assert_ne!(cw.p1, cw.p2, "interleaving must decorrelate the parities");
        // parity streams carry information (not constant)
        assert!(cw.p1.contains(&1));
        assert!(cw.p1.contains(&0));
    }

    #[test]
    fn single_bit_difference_propagates_widely_in_p2() {
        // The interleaver spreads a single flipped input bit far apart
        // in the second parity stream — the essence of turbo coding.
        let enc = TurboEncoder::new(256);
        let a = vec![0u8; 256];
        let mut b = a.clone();
        b[100] = 1;
        let ca = enc.encode(&a);
        let cb = enc.encode(&b);
        let diff1: usize = ca.p1.iter().zip(&cb.p1).filter(|(x, y)| x != y).count();
        let diff2: usize = ca.p2.iter().zip(&cb.p2).filter(|(x, y)| x != y).count();
        assert!(diff1 > 4, "IIR parity must smear the impulse: {diff1}");
        assert!(
            diff2 > 4,
            "interleaved parity must smear the impulse: {diff2}"
        );
    }

    #[test]
    #[should_panic(expected = "exactly K")]
    fn wrong_block_size_panics() {
        TurboEncoder::new(40).encode(&[0; 39]);
    }
}
