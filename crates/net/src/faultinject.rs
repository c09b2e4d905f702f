//! Deterministic fault injection for the uplink pipeline.
//!
//! A [`FaultInjector`] is a seeded stream of [`FaultKind`] decisions
//! plus the mutations they imply: corrupting or truncating ingress
//! frames, flipping or saturating receive-side LLRs, lying about the
//! code-block count handed to desegmentation, and (for the runner's
//! panic-isolation tests) raising a deliberate panic mid-packet. The
//! same seed always yields the same fault sequence, so the soak tests
//! and the `pipeline_faults` benchgate suite can pin exact
//! classification counts.
//!
//! The injector plugs into [`crate::pipeline::UplinkPipeline`] via
//! [`crate::pipeline::UplinkPipeline::with_faults`]; HARQ
//! retransmission drops are driven directly by `apcm`'s soak test
//! through [`FaultInjector::drop_harq_retransmission`] since HARQ
//! (`apcm::harq`) sits above the per-packet pipeline.

use vran_phy::llr::Llr;
use vran_util::rng::SmallRng;

/// One per-packet fault decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum FaultKind {
    /// No fault — the packet passes through untouched.
    Clean,
    /// XOR one frame byte at index ≥ 12 (EtherType onward, where the
    /// checksums guarantee detection; the first 12 MAC bytes are only
    /// protected by the Ethernet FCS, which this model does not carry).
    CorruptFrame,
    /// Cut the frame short (possibly to zero bytes).
    TruncateFrame,
    /// Negate a contiguous run of receive-side LLRs.
    FlipLlrSigns,
    /// Drive a contiguous run of receive-side LLRs to ±`i16::MAX`.
    SaturateLlrs,
    /// Hand desegmentation the wrong number of code blocks.
    CodeBlockCountLie,
    /// Drop a HARQ retransmission (soak-level fault).
    DropHarqRetransmission,
    /// Panic mid-packet — exercises the runner's worker isolation.
    WorkerPanic,
}

impl FaultKind {
    /// Number of kinds.
    pub const COUNT: usize = 8;
    /// All kinds, in declaration order.
    pub const ALL: [FaultKind; FaultKind::COUNT] = [
        FaultKind::Clean,
        FaultKind::CorruptFrame,
        FaultKind::TruncateFrame,
        FaultKind::FlipLlrSigns,
        FaultKind::SaturateLlrs,
        FaultKind::CodeBlockCountLie,
        FaultKind::DropHarqRetransmission,
        FaultKind::WorkerPanic,
    ];

    /// Snake-case name for logs and reports.
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::Clean => "clean",
            FaultKind::CorruptFrame => "corrupt_frame",
            FaultKind::TruncateFrame => "truncate_frame",
            FaultKind::FlipLlrSigns => "flip_llr_signs",
            FaultKind::SaturateLlrs => "saturate_llrs",
            FaultKind::CodeBlockCountLie => "code_block_count_lie",
            FaultKind::DropHarqRetransmission => "drop_harq_retransmission",
            FaultKind::WorkerPanic => "worker_panic",
        }
    }
}

/// Relative draw weights per fault kind (0 disables a kind).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultMix {
    /// Weights indexed by [`FaultKind`] discriminant.
    pub weights: [u32; FaultKind::COUNT],
}

impl FaultMix {
    /// The soak default: half the traffic clean, the rest spread over
    /// the data faults; panic and HARQ-drop faults are opt-in because
    /// they need harness cooperation (catch_unwind / a HARQ session).
    pub fn soak() -> Self {
        let mut weights = [0u32; FaultKind::COUNT];
        weights[FaultKind::Clean as usize] = 5;
        weights[FaultKind::CorruptFrame as usize] = 1;
        weights[FaultKind::TruncateFrame as usize] = 1;
        weights[FaultKind::FlipLlrSigns as usize] = 1;
        weights[FaultKind::SaturateLlrs as usize] = 1;
        weights[FaultKind::CodeBlockCountLie as usize] = 1;
        Self { weights }
    }

    /// Only one kind, always.
    pub fn only(kind: FaultKind) -> Self {
        let mut weights = [0u32; FaultKind::COUNT];
        weights[kind as usize] = 1;
        Self { weights }
    }

    /// Set one kind's weight (builder-style).
    pub fn with_weight(mut self, kind: FaultKind, weight: u32) -> Self {
        self.weights[kind as usize] = weight;
        self
    }

    fn total(&self) -> u32 {
        self.weights.iter().sum()
    }
}

/// Deterministic, seeded fault source. Equal seeds and mixes produce
/// identical fault sequences and identical mutations.
#[derive(Debug, Clone)]
pub struct FaultInjector {
    rng: SmallRng,
    mix: FaultMix,
    injected: [u64; FaultKind::COUNT],
}

impl FaultInjector {
    /// Injector with the [`FaultMix::soak`] mix.
    pub fn new(seed: u64) -> Self {
        Self::with_mix(seed, FaultMix::soak())
    }

    /// Injector with an explicit mix. Panics if every weight is zero.
    pub fn with_mix(seed: u64, mix: FaultMix) -> Self {
        assert!(mix.total() > 0, "fault mix must have at least one kind");
        Self {
            rng: SmallRng::seed_from_u64(seed),
            mix,
            injected: [0; FaultKind::COUNT],
        }
    }

    /// Draw the fault decision for the next packet.
    pub fn next_kind(&mut self) -> FaultKind {
        let total = self.mix.total();
        let mut draw = self.rng.next_u32() % total;
        for kind in FaultKind::ALL {
            let w = self.mix.weights[kind as usize];
            if draw < w {
                self.injected[kind as usize] += 1;
                return kind;
            }
            draw -= w;
        }
        unreachable!("weights sum to total");
    }

    /// Times each kind has been drawn, indexed by discriminant.
    pub fn injected(&self) -> &[u64; FaultKind::COUNT] {
        &self.injected
    }

    /// Apply a frame-level fault, returning the mutated frame; `None`
    /// means `kind` does not touch frames.
    pub fn mutate_frame(&mut self, kind: FaultKind, frame: &[u8]) -> Option<Vec<u8>> {
        match kind {
            FaultKind::CorruptFrame => {
                let mut out = frame.to_vec();
                if out.len() > 12 {
                    let i = self.rng.gen_range_usize(12, out.len());
                    let mask = (self.rng.next_u32() % 255 + 1) as u8;
                    out[i] ^= mask;
                } else {
                    out.clear(); // degenerate tiny frame: truncate instead
                }
                Some(out)
            }
            FaultKind::TruncateFrame => {
                let keep = self.rng.gen_range_usize(0, frame.len().clamp(1, 42));
                Some(frame[..keep].to_vec())
            }
            _ => None,
        }
    }

    /// Apply an LLR-level fault in place; returns whether anything was
    /// mutated.
    pub fn mutate_llrs(&mut self, kind: FaultKind, llrs: &mut [Llr]) -> bool {
        if llrs.is_empty() {
            return false;
        }
        let span = (llrs.len() / 4).max(1);
        let start = self.rng.gen_range_usize(0, llrs.len());
        match kind {
            FaultKind::FlipLlrSigns => {
                for i in 0..span {
                    let j = (start + i) % llrs.len();
                    llrs[j] = llrs[j].saturating_neg();
                }
                true
            }
            FaultKind::SaturateLlrs => {
                for i in 0..span {
                    let j = (start + i) % llrs.len();
                    llrs[j] = if self.rng.next_u32() & 1 == 0 {
                        i16::MAX
                    } else {
                        i16::MIN
                    };
                }
                true
            }
            _ => false,
        }
    }

    /// Whether a HARQ retransmission should be dropped under `kind`
    /// (the soak drives this around `apcm::harq`'s
    /// `HarqTransmitter::next_transmission`).
    pub fn drop_harq_retransmission(&self, kind: FaultKind) -> bool {
        kind == FaultKind::DropHarqRetransmission
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_fault_sequence() {
        let mut a = FaultInjector::new(7);
        let mut b = FaultInjector::new(7);
        let seq_a: Vec<FaultKind> = (0..200).map(|_| a.next_kind()).collect();
        let seq_b: Vec<FaultKind> = (0..200).map(|_| b.next_kind()).collect();
        assert_eq!(seq_a, seq_b);
        let mut c = FaultInjector::new(8);
        let seq_c: Vec<FaultKind> = (0..200).map(|_| c.next_kind()).collect();
        assert_ne!(seq_a, seq_c, "different seed must differ");
    }

    #[test]
    fn soak_mix_draws_every_enabled_kind() {
        let mut inj = FaultInjector::new(3);
        for _ in 0..2000 {
            inj.next_kind();
        }
        let counts = inj.injected();
        for kind in [
            FaultKind::Clean,
            FaultKind::CorruptFrame,
            FaultKind::TruncateFrame,
            FaultKind::FlipLlrSigns,
            FaultKind::SaturateLlrs,
            FaultKind::CodeBlockCountLie,
        ] {
            assert!(counts[kind as usize] > 0, "{} never drawn", kind.name());
        }
        assert_eq!(counts[FaultKind::WorkerPanic as usize], 0);
        assert_eq!(counts[FaultKind::DropHarqRetransmission as usize], 0);
        assert_eq!(counts.iter().sum::<u64>(), 2000);
    }

    #[test]
    fn corrupt_frame_touches_only_protected_bytes() {
        let frame: Vec<u8> = (0..100u8).collect();
        let mut inj = FaultInjector::with_mix(5, FaultMix::only(FaultKind::CorruptFrame));
        for _ in 0..100 {
            let kind = inj.next_kind();
            let out = inj.mutate_frame(kind, &frame).unwrap();
            assert_eq!(out.len(), frame.len());
            let diffs: Vec<usize> = (0..frame.len()).filter(|&i| out[i] != frame[i]).collect();
            assert_eq!(diffs.len(), 1, "exactly one byte flips");
            assert!(diffs[0] >= 12, "MAC bytes are unprotected — skip them");
        }
    }

    #[test]
    fn truncate_always_shortens_below_header_stack() {
        let frame = vec![0u8; 100];
        let mut inj = FaultInjector::with_mix(5, FaultMix::only(FaultKind::TruncateFrame));
        for _ in 0..100 {
            let kind = inj.next_kind();
            let out = inj.mutate_frame(kind, &frame).unwrap();
            assert!(out.len() < 42, "must cut below the minimum header stack");
        }
    }

    #[test]
    fn llr_faults_mutate_in_place() {
        let mut inj = FaultInjector::with_mix(9, FaultMix::only(FaultKind::FlipLlrSigns));
        let mut llrs: Vec<Llr> = (1..=64).collect();
        let orig = llrs.clone();
        assert!(inj.mutate_llrs(FaultKind::FlipLlrSigns, &mut llrs));
        assert_ne!(llrs, orig);
        let flipped = llrs.iter().zip(&orig).filter(|(a, b)| a != b).count();
        assert_eq!(flipped, 16, "a quarter of the span flips");

        let mut llrs: Vec<Llr> = vec![1; 64];
        assert!(inj.mutate_llrs(FaultKind::SaturateLlrs, &mut llrs));
        assert!(llrs.iter().any(|&l| l == i16::MAX || l == i16::MIN));

        // Non-LLR kinds leave the buffer alone.
        let mut llrs: Vec<Llr> = vec![7; 16];
        assert!(!inj.mutate_llrs(FaultKind::CorruptFrame, &mut llrs));
        assert!(llrs.iter().all(|&l| l == 7));
    }

    #[test]
    #[should_panic(expected = "at least one kind")]
    fn empty_mix_is_rejected() {
        FaultInjector::with_mix(
            1,
            FaultMix {
                weights: [0; FaultKind::COUNT],
            },
        );
    }
}
