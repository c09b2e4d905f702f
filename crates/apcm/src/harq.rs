//! HARQ with incremental redundancy and chase combining.
//!
//! LTE retransmits failed transport blocks with a different redundancy
//! version each time (rv sequence 0, 2, 3, 1), and the receiver
//! soft-combines the de-rate-matched LLRs of every attempt before
//! decoding. This models the retransmission machinery an operational
//! eNodeB runs above the paper's packet path — [`crate::cellsim`]
//! grounds its HARQ tails in these exchanges — and stresses the
//! de-rate-matcher's combining path far harder than a single shot.

use vran_net::error::{FrameFault, PipelineError};
use vran_phy::crc::CRC24B;
use vran_phy::llr::{adds16, Llr, TurboLlrs};
use vran_phy::rate_match::RateMatcher;
use vran_phy::turbo::{TurboCodeword, TurboDecoder};

/// The standard redundancy-version schedule.
pub const RV_SEQUENCE: [usize; 4] = [0, 2, 3, 1];

/// Transmitter side of one HARQ process (one code block).
#[derive(Debug, Clone)]
pub struct HarqTransmitter {
    d: [Vec<u8>; 3],
    rm: RateMatcher,
    attempt: usize,
}

impl HarqTransmitter {
    /// Wrap an encoded code block.
    pub fn new(cw: &TurboCodeword) -> Self {
        Self {
            d: cw.to_dstreams(),
            rm: RateMatcher::new(cw.k + 4),
            attempt: 0,
        }
    }

    /// Number of transmissions made so far.
    pub fn attempts(&self) -> usize {
        self.attempt
    }

    /// Produce the next (re)transmission of `e` coded bits; `None`
    /// after the rv schedule is exhausted.
    pub fn next_transmission(&mut self, e: usize) -> Option<(usize, Vec<u8>)> {
        let rv = *RV_SEQUENCE.get(self.attempt)?;
        self.attempt += 1;
        Some((rv, self.rm.rate_match(&self.d, e, rv)))
    }
}

/// Receiver side of one HARQ process: accumulates combined d-stream
/// LLRs across attempts.
#[derive(Debug, Clone)]
pub struct HarqReceiver {
    k: usize,
    rm: RateMatcher,
    acc: [Vec<Llr>; 3],
    decoder: TurboDecoder,
    attempts: usize,
}

/// Outcome of feeding one (re)transmission to the receiver.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HarqOutcome {
    /// Whether the block now passes its CRC.
    pub ok: bool,
    /// Decoded bits (valid when `ok`).
    pub bits: Vec<u8>,
    /// Attempts consumed so far.
    pub attempts: usize,
}

impl HarqReceiver {
    /// New process for block size `k` (with per-block CRC24B).
    pub fn new(k: usize, decoder_iterations: usize) -> Self {
        Self {
            k,
            rm: RateMatcher::new(k + 4),
            acc: [vec![0; k + 4], vec![0; k + 4], vec![0; k + 4]],
            decoder: TurboDecoder::new(k, decoder_iterations),
            attempts: 0,
        }
    }

    /// Combine one received transmission (LLRs for `e` coded bits at
    /// redundancy version `rv`) and attempt a decode.
    ///
    /// A redundancy version outside the standard's 0..4 range, or an
    /// empty LLR buffer, rejects as [`PipelineError::MalformedFrame`]
    /// without touching the accumulator — a lying retransmission must
    /// not poison the soft-combining state.
    pub fn receive(&mut self, llrs: &[Llr], rv: usize) -> Result<HarqOutcome, PipelineError> {
        if rv >= 4 {
            return Err(PipelineError::MalformedFrame {
                reason: FrameFault::RedundancyVersion(rv),
            });
        }
        if llrs.is_empty() {
            return Err(PipelineError::MalformedFrame {
                reason: FrameFault::Empty,
            });
        }
        self.attempts += 1;
        let mut d = [Vec::new(), Vec::new(), Vec::new()];
        self.rm.try_de_rate_match_into(llrs, rv, &mut d)?;
        for (acc, new) in self.acc.iter_mut().zip(&d) {
            for (a, &n) in acc.iter_mut().zip(new) {
                *a = adds16(*a, n);
            }
        }
        let input = TurboLlrs::from_dstreams(&self.acc, self.k);
        let out = self.decoder.decode_with_crc(&input, &CRC24B);
        Ok(HarqOutcome {
            ok: out.crc_ok == Some(true),
            bits: out.bits,
            attempts: self.attempts,
        })
    }

    /// Accumulated LLR magnitude (diagnostic: grows with combining).
    pub fn accumulated_energy(&self) -> u64 {
        self.acc
            .iter()
            .flat_map(|s| s.iter())
            .map(|&l| l.unsigned_abs() as u64)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vran_phy::bits::random_bits;
    use vran_phy::turbo::TurboEncoder;

    /// LLRs for transmitted bits with deterministic sign flips
    /// (severity = 1/`flip_every` of positions inverted).
    fn noisy_llrs(bits: &[u8], mag: Llr, flip_every: usize, phase: usize) -> Vec<Llr> {
        bits.iter()
            .enumerate()
            .map(|(i, &b)| {
                let v = if b == 0 { mag } else { -mag };
                if (i + phase).is_multiple_of(flip_every) {
                    -v
                } else {
                    v
                }
            })
            .collect()
    }

    fn block(k: usize, seed: u64) -> (Vec<u8>, TurboCodeword) {
        let payload = random_bits(k - 24, seed);
        let block = CRC24B.attach(&payload);
        let cw = TurboEncoder::new(k).encode(&block);
        (block, cw)
    }

    #[test]
    fn clean_first_attempt_succeeds() {
        let (bits, cw) = block(104, 1);
        let mut tx = HarqTransmitter::new(&cw);
        let mut rx = HarqReceiver::new(104, 6);
        let (rv, coded) = tx.next_transmission(160).unwrap();
        assert_eq!(rv, 0);
        let out = rx
            .receive(&noisy_llrs(&coded, 60, usize::MAX, 0), rv)
            .unwrap();
        assert!(out.ok);
        assert_eq!(out.bits, bits);
        assert_eq!(out.attempts, 1);
    }

    #[test]
    fn retransmission_rescues_a_failed_block() {
        // Heavily punctured first attempt with 1-in-6 sign flips: too
        // damaged. Each retransmission brings new parity (different rv)
        // and combines, eventually decoding.
        let k = 208;
        let (bits, cw) = block(k, 2);
        let mut tx = HarqTransmitter::new(&cw);
        let mut rx = HarqReceiver::new(k, 6);
        let e = 230; // barely above K: rate ~0.9 on the first shot
        let mut success = None;
        for phase in 0..4 {
            let (rv, coded) = tx.next_transmission(e).unwrap();
            let out = rx
                .receive(&noisy_llrs(&coded, 24, 6, phase * 3 + 1), rv)
                .unwrap();
            if out.ok {
                success = Some((out.bits, out.attempts));
                break;
            }
        }
        let (got, attempts) = success.expect("HARQ must eventually decode");
        assert_eq!(got, bits);
        assert!(
            attempts > 1,
            "first attempt should have failed (rate ~0.9, 17% flips)"
        );
    }

    #[test]
    fn packed_rate_match_round_trips_through_harq() {
        // The transmit-side packed fast path must interoperate with
        // the receive-side HARQ machinery: packed rate-matched output
        // equals the scalar readout bit-for-bit at every redundancy
        // version, and clean LLRs derived from it decode through a
        // fresh HarqReceiver at each rv.
        use vran_phy::rate_match::PackedRateMatcher;
        use vran_phy::turbo::{EncodeScratch, PackedTurboEncoder};

        let k = 104;
        let (bits, cw) = block(k, 5);
        let d = cw.to_dstreams();
        let scalar_rm = RateMatcher::new(k + 4);
        let packed_rm = PackedRateMatcher::new(k + 4);
        let enc = PackedTurboEncoder::new(k);
        let mut scratch = EncodeScratch::default();
        enc.encode_dstreams_into(&bits, &mut scratch);

        for &rv in &RV_SEQUENCE {
            for e in [k, 160, 3 * (k + 4), 6 * (k + 4)] {
                let packed = packed_rm.rate_match_packed(scratch.dstream_words(), e, rv);
                assert_eq!(packed, scalar_rm.rate_match(&d, e, rv), "rv={rv} e={e}");
            }
            let e = 3 * (k + 4);
            let packed = packed_rm.rate_match_packed(scratch.dstream_words(), e, rv);
            let mut rx = HarqReceiver::new(k, 6);
            let out = rx
                .receive(&noisy_llrs(&packed, 60, usize::MAX, 0), rv)
                .unwrap();
            assert!(out.ok, "rv={rv} must decode from clean packed bits");
            assert_eq!(out.bits, bits, "rv={rv}");
        }
    }

    #[test]
    fn rv_schedule_is_exhausted_in_order() {
        let (_, cw) = block(104, 3);
        let mut tx = HarqTransmitter::new(&cw);
        let mut rvs = Vec::new();
        while let Some((rv, _)) = tx.next_transmission(120) {
            rvs.push(rv);
        }
        assert_eq!(rvs, vec![0, 2, 3, 1]);
        assert_eq!(tx.attempts(), 4);
    }

    #[test]
    fn combining_accumulates_energy() {
        let (_, cw) = block(104, 4);
        let mut tx = HarqTransmitter::new(&cw);
        let mut rx = HarqReceiver::new(104, 2);
        let mut last = 0;
        for _ in 0..3 {
            let (rv, coded) = tx.next_transmission(150).unwrap();
            rx.receive(&noisy_llrs(&coded, 20, 9, 0), rv).unwrap();
            let e = rx.accumulated_energy();
            assert!(e > last, "chase combining must accumulate: {e} vs {last}");
            last = e;
        }
    }

    #[test]
    fn out_of_range_rv_rejects_without_poisoning_state() {
        use vran_net::error::ErrorCategory;
        let (bits, cw) = block(104, 6);
        let mut tx = HarqTransmitter::new(&cw);
        let mut rx = HarqReceiver::new(104, 6);
        let energy0 = rx.accumulated_energy();

        for bad_rv in [4usize, 5, usize::MAX] {
            let e = rx
                .receive(&[10; 160], bad_rv)
                .expect_err("rv ≥ 4 must be rejected");
            assert_eq!(e.category(), ErrorCategory::MalformedFrame);
        }
        let e = rx.receive(&[], 0).expect_err("empty LLRs must be rejected");
        assert_eq!(e.category(), ErrorCategory::MalformedFrame);

        // Rejected attempts left the accumulator and counters alone…
        assert_eq!(rx.attempts, 0);
        assert_eq!(rx.accumulated_energy(), energy0);
        // …so a subsequent honest transmission still decodes.
        let (rv, coded) = tx.next_transmission(160).unwrap();
        let out = rx
            .receive(&noisy_llrs(&coded, 60, usize::MAX, 0), rv)
            .unwrap();
        assert!(out.ok);
        assert_eq!(out.bits, bits);
        assert_eq!(out.attempts, 1);
    }

    #[test]
    fn different_rvs_cover_different_coded_bits() {
        let (_, cw) = block(104, 5);
        let mut tx = HarqTransmitter::new(&cw);
        let (_, t0) = tx.next_transmission(140).unwrap();
        let (_, t1) = tx.next_transmission(140).unwrap();
        assert_ne!(t0, t1, "rv 0 and rv 2 must select different bits");
    }
}
