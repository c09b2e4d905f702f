//! Scalar fixed-point max-log-MAP iterative turbo decoder.
//!
//! This is the reference ("oracle") implementation: it performs exactly
//! the same i16 saturating operations, in the same order, as the SIMD
//! kernels — [`super::native_decoder`] and `apcm`'s VM instrument — so
//! they are bit-exact. That contract is what lets the arrangement
//! experiments claim functional equivalence: baseline-arranged and
//! APCM-arranged inputs feed the same decoder and must produce
//! identical transport blocks.
//!
//! Algorithm notes:
//!
//! * Branch metrics are halved on entry (`γ₀ = (Lₛ + Lₐ) >> 1`,
//!   `γₚ = Lₚ >> 1`) so path metrics stay within i16 with saturating
//!   arithmetic, the standard OAI fixed-point trick.
//! * Path metrics are normalized by subtracting state 0's metric each
//!   step (cheap to broadcast in SIMD).
//! * Extrinsic information is scaled by 0.75 between half-iterations
//!   (`e ← (e >> 1) + (e >> 2)`), the usual max-log correction factor.
//! * Trellis termination: β is initialized by walking the 3 tail steps
//!   backward from the all-zero state, using the received tail LLRs.
//!
//! # The stop rule
//!
//! Given a block CRC, the hard decisions of *every* SISO pass are
//! checked — SISO 1's posterior in natural order, SISO 2's
//! de-interleaved — and the first pass that passes ends the block with
//! its bits; [`DecodeOutcome::siso_passes`] says which. A begun
//! iteration counts as one, so a stop on SISO 1 of iteration `n`
//! reports `iterations_run = n` like a stop on its SISO 2. A block that
//! never passes returns the last full iteration's decisions. A check
//! passes a wrong word with probability 2⁻²⁴ (CRC24A still guards the
//! transport block) — except the all-zero word, which passes every LTE
//! CRC and is what SISO 1 "decides" when it saw nothing, e.g. a HARQ
//! retransmission without systematic bits. A zero posterior is
//! therefore no decision: SISO 1 is checked only when it has none.

use super::trellis::{self, STATES};
use crate::crc::Crc;
use crate::interleaver::QppInterleaver;
use crate::llr::{adds16, llr_to_bit, max16, srai16, subs16, Llr, TurboLlrs};

/// Metric assigned to unreachable states. Far below any real metric but
/// with headroom so saturating arithmetic cannot wrap it into
/// plausibility.
pub const NEG_INF: Llr = -8192;

/// Result of a decode call.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeOutcome {
    /// Hard-decision information bits (length K).
    pub bits: Vec<u8>,
    /// Iterations begun (≤ the configured maximum when early stopping
    /// is active); a stop on SISO 1 counts its iteration.
    pub iterations_run: usize,
    /// SISO passes run: `2 · iterations_run`, or one less when the
    /// block stopped on SISO 1's posterior.
    pub siso_passes: usize,
    /// CRC verdict when an early-stop CRC was supplied.
    pub crc_ok: Option<bool>,
}

/// Branch-metric pair for one trellis step.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Gamma {
    /// `(Lₛ + Lₐ) >> 1` — the systematic + a-priori half-metric.
    pub g0: Llr,
    /// `Lₚ >> 1` — the parity half-metric.
    pub gp: Llr,
}

impl Gamma {
    #[inline]
    pub(crate) fn new(ls: Llr, la: Llr, lp: Llr) -> Self {
        Self {
            g0: srai16(adds16(ls, la), 1),
            gp: srai16(lp, 1),
        }
    }

    /// Metric of a transition carrying info bit `u` and parity bit `p`
    /// (bit 0 ↦ +1). Exactly `adds16(±g0, ±gp)` — the same op the SIMD
    /// kernel's mask-blend produces.
    #[inline]
    pub(crate) fn branch(self, u: u8, p: u8) -> Llr {
        let g0s = if u == 0 { self.g0 } else { subs16(0, self.g0) };
        let gps = if p == 0 { self.gp } else { subs16(0, self.gp) };
        adds16(g0s, gps)
    }
}

/// Extrinsic scaling by 0.75: `(e >> 1) + (e >> 2)`. Public so every
/// decoder twin — native tiers here, VM instruments in `apcm` — scales
/// exactly as the oracle does.
#[inline]
pub fn scale_extrinsic(e: Llr) -> Llr {
    adds16(srai16(e, 1), srai16(e, 2))
}

/// Walk the three termination steps backward to produce β at step K.
/// Shared by every decoder implementation, the VM instruments in `apcm`
/// included (tail work is O(1) and special-cased in OAI too).
pub fn beta_init_from_tails(tail_sys: &[Llr; 3], tail_par: &[Llr; 3]) -> [Llr; STATES] {
    let mut beta = [NEG_INF; STATES];
    beta[0] = 0;
    for t in (0..3).rev() {
        let g = Gamma::new(tail_sys[t], 0, tail_par[t]);
        let mut prev = [NEG_INF; STATES];
        for (s, pb) in prev.iter_mut().enumerate() {
            // In termination the input is fixed by the state.
            let u = trellis::term_input(s as u8);
            let p = trellis::parity(s as u8, u);
            let ns = trellis::next_state(s as u8, u) as usize;
            *pb = adds16(beta[ns], g.branch(u, p));
        }
        let n = prev[0];
        for pb in &mut prev {
            *pb = subs16(*pb, n);
        }
        beta = prev;
    }
    beta
}

/// One soft-in/soft-out max-log-MAP pass over a constituent trellis.
/// Returns `(extrinsic, posterior)` LLRs, both length K.
pub(crate) fn siso(
    sys: &[Llr],
    par: &[Llr],
    apriori: &[Llr],
    tail_sys: &[Llr; 3],
    tail_par: &[Llr; 3],
) -> (Vec<Llr>, Vec<Llr>) {
    let k = sys.len();
    assert!(par.len() == k && apriori.len() == k);

    let gammas: Vec<Gamma> = (0..k)
        .map(|i| Gamma::new(sys[i], apriori[i], par[i]))
        .collect();

    // Forward recursion, storing α for every step.
    let mut alphas: Vec<[Llr; STATES]> = Vec::with_capacity(k + 1);
    let mut alpha = [NEG_INF; STATES];
    alpha[0] = 0;
    alphas.push(alpha);
    for g in &gammas {
        let mut next = [NEG_INF; STATES];
        for (ns, nb) in next.iter_mut().enumerate() {
            // NEG_INF is both fold identity and a deliberate path-
            // metric floor: it stops saturated wrong-path metrics from
            // blowing up the extrinsics (standard fixed-point hygiene).
            // The SIMD kernels clamp with an explicit max against
            // NEG_INF to stay bit-exact with this.
            let mut best = NEG_INF;
            for u in 0..2u8 {
                let s = trellis::pred_state(ns as u8, u) as usize;
                let p = trellis::parity(s as u8, u);
                best = max16(best, adds16(alpha[s], g.branch(u, p)));
            }
            *nb = best;
        }
        let n = next[0];
        for nb in &mut next {
            *nb = subs16(*nb, n);
        }
        alpha = next;
        alphas.push(alpha);
    }

    // Backward recursion + extrinsic, fused (β[k+1] is live while the
    // step-k extrinsic is computed).
    let mut ext = vec![0 as Llr; k];
    let mut post = vec![0 as Llr; k];
    let mut beta = beta_init_from_tails(tail_sys, tail_par);
    for i in (0..k).rev() {
        let g = gammas[i];
        let a = &alphas[i];
        // extrinsic: best path metric per hypothesis u
        let mut m = [NEG_INF; 2]; // floored fold identity (see α note)
        #[allow(clippy::needless_range_loop)] // s is a trellis state id
        for s in 0..STATES {
            for u in 0..2u8 {
                let p = trellis::parity(s as u8, u);
                let ns = trellis::next_state(s as u8, u) as usize;
                let metric = adds16(adds16(a[s], g.branch(u, p)), beta[ns]);
                m[u as usize] = max16(m[u as usize], metric);
            }
        }
        let l = subs16(m[0], m[1]);
        post[i] = l;
        // The u-dependent part of γ contributes 2·g0 to L; remove it
        // (and the a-priori with it) to leave the extrinsic.
        ext[i] = subs16(l, adds16(g.g0, g.g0));
        // β update
        let mut prev = [NEG_INF; STATES];
        for (s, pb) in prev.iter_mut().enumerate() {
            let mut best = NEG_INF; // floored fold identity (see α note)
            for u in 0..2u8 {
                let p = trellis::parity(s as u8, u);
                let ns = trellis::next_state(s as u8, u) as usize;
                best = max16(best, adds16(beta[ns], g.branch(u, p)));
            }
            *pb = best;
        }
        let n = prev[0];
        for pb in &mut prev {
            *pb = subs16(*pb, n);
        }
        beta = prev;
    }
    (ext, post)
}

/// Iterative turbo decoder for one block size, reading that size's
/// process-wide QPP tables.
#[derive(Debug, Clone)]
pub struct TurboDecoder {
    il: &'static QppInterleaver,
    max_iterations: usize,
}

impl TurboDecoder {
    /// Decoder for block size `k` with the given maximum number of full
    /// iterations (OAI default territory: 5–8).
    pub fn new(k: usize, max_iterations: usize) -> Self {
        assert!(max_iterations >= 1);
        Self {
            il: QppInterleaver::of(k),
            max_iterations,
        }
    }

    /// Block size K.
    pub fn k(&self) -> usize {
        self.il.k()
    }

    /// Configured iteration cap.
    pub fn max_iterations(&self) -> usize {
        self.max_iterations
    }

    /// Decode; runs all configured iterations.
    pub fn decode(&self, input: &TurboLlrs) -> DecodeOutcome {
        self.decode_inner(input, None)
    }

    /// Decode with CRC-based early stopping: after every SISO pass the
    /// hard decision is checked against `crc`, and decoding stops as
    /// soon as it passes (the OAI/FlexRAN optimization; see the module
    /// doc's stop rule).
    pub fn decode_with_crc(&self, input: &TurboLlrs, crc: &Crc) -> DecodeOutcome {
        self.decode_inner(input, Some(crc))
    }

    /// Decode under an externally clamped iteration budget (the
    /// deadline-degradation hook): runs at most
    /// `min(cap, max_iterations)` full iterations (floor 1), with
    /// optional CRC early stopping. Lets a deadline-pressed pipeline
    /// trade BLER for latency without rebuilding its cached per-K
    /// decoders.
    pub fn decode_capped(&self, input: &TurboLlrs, cap: usize, crc: Option<&Crc>) -> DecodeOutcome {
        let iters = cap.clamp(1, self.max_iterations);
        self.decode_limited(input, iters, crc)
    }

    fn decode_inner(&self, input: &TurboLlrs, crc: Option<&Crc>) -> DecodeOutcome {
        self.decode_limited(input, self.max_iterations, crc)
    }

    fn decode_limited(
        &self,
        input: &TurboLlrs,
        iterations: usize,
        crc: Option<&Crc>,
    ) -> DecodeOutcome {
        let k = self.il.k();
        assert_eq!(input.k, k, "input block size mismatch");
        let s = &input.streams;
        let sys_pi = self.il.interleave(&s.sys);

        let mut la1 = vec![0 as Llr; k];
        let mut bits = vec![0u8; k];
        let mut iterations_run = 0;
        let mut siso_passes = 0;
        let mut crc_ok = None;

        for _ in 0..iterations {
            iterations_run += 1;
            let (e1, post1) = siso(&s.sys, &s.p1, &la1, &input.tails.sys1, &input.tails.p1);
            siso_passes += 1;
            // Decoder 1's posterior is already in natural order. A zero
            // in it is an erasure, not a decision for bit 0.
            if let Some(c) = crc.filter(|_| post1.iter().all(|&l| l != 0)) {
                let half: Vec<u8> = post1.iter().map(|&l| llr_to_bit(l)).collect();
                if c.check(&half).is_some() {
                    bits = half;
                    crc_ok = Some(true);
                    break;
                }
            }
            let la2: Vec<Llr> = self
                .il
                .interleave(&e1.iter().map(|&e| scale_extrinsic(e)).collect::<Vec<_>>());
            let (e2, post2) = siso(&sys_pi, &s.p2, &la2, &input.tails.sys2, &input.tails.p2);
            siso_passes += 1;
            la1 = self
                .il
                .deinterleave(&e2.iter().map(|&e| scale_extrinsic(e)).collect::<Vec<_>>());
            // Decision from decoder 2's posterior, mapped back to
            // natural order.
            let post = self.il.deinterleave(&post2);
            for (b, &l) in bits.iter_mut().zip(&post) {
                *b = llr_to_bit(l);
            }
            if let Some(c) = crc {
                let ok = c.check(&bits).is_some();
                crc_ok = Some(ok);
                if ok {
                    break;
                }
            }
        }
        DecodeOutcome {
            bits,
            iterations_run,
            siso_passes,
            crc_ok,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::random_bits;
    use crate::crc::CRC24B;
    use crate::llr::{bit_to_llr, TurboLlrs};
    use crate::turbo::TurboEncoder;

    /// Encode, convert to LLRs of magnitude `mag`, optionally flip some
    /// coded bits, return decoder input.
    fn make_input(bits: &[u8], k: usize, mag: Llr, flip: &[usize]) -> TurboLlrs {
        let cw = TurboEncoder::new(k).encode(bits);
        let mut d = cw.to_dstreams();
        for &f in flip {
            let stream = f % 3;
            let pos = (f / 3) % (k + 4);
            d[stream][pos] ^= 1;
        }
        let soft: [Vec<Llr>; 3] = d
            .iter()
            .map(|st| st.iter().map(|&b| bit_to_llr(b, mag)).collect())
            .collect::<Vec<_>>()
            .try_into()
            .unwrap();
        TurboLlrs::from_dstreams(&soft, k)
    }

    #[test]
    fn noiseless_block_decodes_exactly() {
        for k in [40usize, 104, 512] {
            let bits = random_bits(k, k as u64);
            let input = make_input(&bits, k, 100, &[]);
            let out = TurboDecoder::new(k, 4).decode(&input);
            assert_eq!(out.bits, bits, "K={k}");
            assert_eq!(out.iterations_run, 4);
        }
    }

    #[test]
    fn corrects_flipped_bits() {
        let k = 256;
        let bits = random_bits(k, 77);
        // flip a scattering of coded bits (~5% of 3K+12)
        let flips: Vec<usize> = (0..38).map(|i| i * 20 + 3).collect();
        let input = make_input(&bits, k, 100, &flips);
        let out = TurboDecoder::new(k, 8).decode(&input);
        assert_eq!(out.bits, bits, "turbo code must correct scattered errors");
    }

    #[test]
    fn erased_systematic_still_decodes() {
        // Zero out a run of systematic LLRs; the parities carry it.
        let k = 512;
        let bits = random_bits(k, 99);
        let mut input = make_input(&bits, k, 100, &[]);
        for i in 100..160 {
            input.streams.sys[i] = 0;
        }
        let out = TurboDecoder::new(k, 8).decode(&input);
        assert_eq!(out.bits, bits);
    }

    #[test]
    fn crc_early_stop_saves_iterations() {
        let k = 104;
        let payload = random_bits(k - 24, 5);
        let block = CRC24B.attach(&payload);
        assert_eq!(block.len(), k);
        let input = make_input(&block, k, 100, &[]);
        let dec = TurboDecoder::new(k, 8);
        let out = dec.decode_with_crc(&input, &CRC24B);
        assert_eq!(out.crc_ok, Some(true));
        assert!(out.iterations_run < 8, "clean block must stop early");
        assert_eq!(out.bits, block);
    }

    #[test]
    fn crc_reports_failure_on_garbage() {
        let k = 104;
        // random LLRs — undecodable
        let mut input = make_input(&random_bits(k, 1), k, 4, &[]);
        let noise = random_bits(3 * k, 1234);
        for i in 0..k {
            input.streams.sys[i] = if noise[i] == 1 { 4 } else { -4 };
            input.streams.p1[i] = if noise[i + k] == 1 { 4 } else { -4 };
            input.streams.p2[i] = if noise[i + 2 * k] == 1 { 4 } else { -4 };
        }
        let out = TurboDecoder::new(k, 2).decode_with_crc(&input, &CRC24B);
        assert_eq!(out.crc_ok, Some(false));
        assert_eq!(out.iterations_run, 2);
    }

    #[test]
    fn extrinsic_scaling_is_three_quarters() {
        assert_eq!(scale_extrinsic(100), 75);
        assert_eq!(scale_extrinsic(-100), -75);
        assert_eq!(scale_extrinsic(-101), -77); // floor shifts on negatives
        assert_eq!(scale_extrinsic(0), 0);
        assert_eq!(scale_extrinsic(4), 3);
    }

    #[test]
    fn beta_init_prefers_tail_consistent_states() {
        // With strong tail LLRs for the all-zero tail, state 0 should
        // carry the best β at step K.
        let b = beta_init_from_tails(&[100, 100, 100], &[100, 100, 100]);
        assert_eq!(b[0], 0, "normalized to state 0");
        assert!(b.iter().skip(1).all(|&x| x <= 0), "{b:?}");
    }

    #[test]
    fn gamma_branch_signs() {
        let g = Gamma::new(10, 2, 6); // g0 = 6, gp = 3
        assert_eq!(g.branch(0, 0), 9);
        assert_eq!(g.branch(0, 1), 3);
        assert_eq!(g.branch(1, 0), -3);
        assert_eq!(g.branch(1, 1), -9);
    }

    #[test]
    fn capped_decode_respects_budget() {
        let k = 104;
        let bits = random_bits(k, 21);
        let input = make_input(&bits, k, 100, &[]);
        let dec = TurboDecoder::new(k, 8);
        // Cap below the configured max limits work done.
        let out = dec.decode_capped(&input, 2, None);
        assert_eq!(out.iterations_run, 2);
        assert_eq!(out.bits, bits, "clean block decodes even when capped");
        // Cap of 0 floors at one iteration; cap above max clamps down.
        assert_eq!(dec.decode_capped(&input, 0, None).iterations_run, 1);
        assert_eq!(dec.decode_capped(&input, 99, None).iterations_run, 8);
    }

    #[test]
    fn mismatched_block_size_panics() {
        let input = make_input(&random_bits(40, 1), 40, 50, &[]);
        let dec = TurboDecoder::new(48, 2);
        let r = std::panic::catch_unwind(|| dec.decode(&input));
        assert!(r.is_err());
    }
}
