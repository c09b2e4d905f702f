//! Typed error taxonomy for the uplink packet path.
//!
//! The pipeline used to be infallible-by-signature: malformed frames,
//! garbage LLRs and impossible segmentations either panicked deep in
//! `vran-phy` or silently produced a wrong-looking "ok = false". A
//! production vRAN stack (the OAI deployment study's operational
//! concern) must instead *classify* every failure so operators can tell
//! a fuzzed ingress frame from a diverging decoder from a blown TTI
//! deadline. [`PipelineError`] is that classification; every variant
//! maps onto one [`ErrorCategory`] counted in
//! [`crate::metrics::PipelineMetrics`].

use crate::packet::ParseError;
use vran_phy::ofdm::OfdmError;
use vran_phy::rate_match::RateMatchError;
use vran_phy::segmentation::SegError;

/// Coarse error category — the stable metrics/benchgate namespace.
/// Every [`PipelineError`] maps onto exactly one category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum ErrorCategory {
    /// Ingress frame failed structural validation (truncated, bad
    /// checksum, unknown protocol, out-of-range HARQ parameters).
    MalformedFrame,
    /// Transport block cannot be segmented within configured limits,
    /// or the receive side was handed an inconsistent code-block set.
    SegmentationOverflow,
    /// The decoder converged on a codeword but a CRC (per-block 24B or
    /// transport 24A) rejected the result.
    CrcMismatch,
    /// The decoder exhausted its iteration budget without ever passing
    /// a CRC check — the input LLRs carry no decodable codeword.
    DecoderDiverged,
    /// The per-packet processing deadline expired before the packet
    /// finished.
    DeadlineExceeded,
}

impl ErrorCategory {
    /// Number of categories.
    pub const COUNT: usize = 5;
    /// All categories, in declaration order.
    pub const ALL: [ErrorCategory; ErrorCategory::COUNT] = [
        ErrorCategory::MalformedFrame,
        ErrorCategory::SegmentationOverflow,
        ErrorCategory::CrcMismatch,
        ErrorCategory::DecoderDiverged,
        ErrorCategory::DeadlineExceeded,
    ];

    /// Snake-case name used in metrics snapshot keys.
    pub fn name(self) -> &'static str {
        match self {
            ErrorCategory::MalformedFrame => "malformed_frame",
            ErrorCategory::SegmentationOverflow => "segmentation_overflow",
            ErrorCategory::CrcMismatch => "crc_mismatch",
            ErrorCategory::DecoderDiverged => "decoder_diverged",
            ErrorCategory::DeadlineExceeded => "deadline_exceeded",
        }
    }
}

/// Partial receive-side context carried by decode-stage failures, so a
/// failed packet still reports how much work it consumed (the same
/// accounting a successful [`crate::pipeline::PacketResult`] carries).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DecodeFailure {
    /// Transport-block size in bits (incl. CRC24A).
    pub tb_bits: usize,
    /// Code blocks the TB split into.
    pub code_blocks: usize,
    /// Blocks whose per-block CRC never passed in-decoder.
    pub failed_blocks: usize,
    /// Decoder iterations consumed, summed over code blocks.
    pub decoder_iterations: usize,
}

/// Why one packet failed the uplink pipeline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PipelineError {
    /// Ingress validation rejected the frame before any PHY work.
    MalformedFrame {
        /// What the validator objected to.
        reason: FrameFault,
    },
    /// The transport block cannot be (de)segmented consistently.
    SegmentationOverflow {
        /// Human-readable detail.
        detail: SegFault,
    },
    /// Decode completed but a CRC rejected the reassembled result.
    CrcMismatch(DecodeFailure),
    /// The decoder ran out of iterations without converging.
    DecoderDiverged(DecodeFailure),
    /// The per-packet deadline expired mid-pipeline.
    DeadlineExceeded {
        /// Configured budget in nanoseconds.
        budget_ns: u64,
        /// Wall-clock nanoseconds consumed when the check fired.
        elapsed_ns: u64,
    },
}

/// Structural reasons an ingress frame can be rejected.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameFault {
    /// Ethernet/IPv4/L4 parse or checksum failure.
    Parse(ParseError),
    /// A HARQ redundancy version outside the spec's `0..4`.
    RedundancyVersion(usize),
    /// An empty or header-only payload where data was required.
    Empty,
    /// The received sample capture cannot be demodulated.
    Capture(OfdmError),
    /// The capture's symbol count is not the one its transport-block
    /// size needs under the grant.
    SymbolCount {
        /// Constellation symbols the transport block needs.
        need: usize,
        /// Constellation symbols the capture claims.
        got: usize,
    },
}

/// Structural reasons a (de)segmentation can be inconsistent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SegFault {
    /// The planner rejected the transport block.
    Plan(SegError),
    /// The transport block would exceed the configured code-block cap.
    TooManyBlocks {
        /// Blocks the plan requires.
        blocks: usize,
        /// Configured maximum.
        max: usize,
    },
    /// An encoder stream handed to the rate matcher had the wrong
    /// length for its code block.
    StreamLength {
        /// Per-stream length the rate matcher was configured for.
        expected: usize,
        /// Length of the stream it was handed.
        got: usize,
    },
}

impl PipelineError {
    /// The metrics category this error counts under.
    pub fn category(&self) -> ErrorCategory {
        match self {
            PipelineError::MalformedFrame { .. } => ErrorCategory::MalformedFrame,
            PipelineError::SegmentationOverflow { .. } => ErrorCategory::SegmentationOverflow,
            PipelineError::CrcMismatch(_) => ErrorCategory::CrcMismatch,
            PipelineError::DecoderDiverged(_) => ErrorCategory::DecoderDiverged,
            PipelineError::DeadlineExceeded { .. } => ErrorCategory::DeadlineExceeded,
        }
    }

    /// Receive-side work accounting, when the failure happened late
    /// enough to have any.
    pub fn decode_failure(&self) -> Option<&DecodeFailure> {
        match self {
            PipelineError::CrcMismatch(f) | PipelineError::DecoderDiverged(f) => Some(f),
            _ => None,
        }
    }
}

impl std::fmt::Display for PipelineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PipelineError::MalformedFrame { reason } => {
                write!(f, "malformed frame: {reason:?}")
            }
            PipelineError::SegmentationOverflow { detail } => {
                write!(f, "segmentation overflow: {detail:?}")
            }
            PipelineError::CrcMismatch(d) => write!(
                f,
                "crc mismatch after decode ({}/{} blocks failed, {} iterations)",
                d.failed_blocks, d.code_blocks, d.decoder_iterations
            ),
            PipelineError::DecoderDiverged(d) => write!(
                f,
                "decoder diverged ({}/{} blocks, {} iterations)",
                d.failed_blocks, d.code_blocks, d.decoder_iterations
            ),
            PipelineError::DeadlineExceeded {
                budget_ns,
                elapsed_ns,
            } => write!(
                f,
                "deadline exceeded: {elapsed_ns} ns elapsed of {budget_ns} ns budget"
            ),
        }
    }
}

impl std::error::Error for PipelineError {}

impl From<ParseError> for PipelineError {
    fn from(e: ParseError) -> Self {
        PipelineError::MalformedFrame {
            reason: FrameFault::Parse(e),
        }
    }
}

impl From<SegError> for PipelineError {
    fn from(e: SegError) -> Self {
        PipelineError::SegmentationOverflow {
            detail: SegFault::Plan(e),
        }
    }
}

impl From<OfdmError> for PipelineError {
    fn from(e: OfdmError) -> Self {
        PipelineError::MalformedFrame {
            reason: FrameFault::Capture(e),
        }
    }
}

impl From<RateMatchError> for PipelineError {
    fn from(e: RateMatchError) -> Self {
        match e {
            RateMatchError::InvalidRv { rv } => PipelineError::MalformedFrame {
                reason: FrameFault::RedundancyVersion(rv),
            },
            RateMatchError::WrongStreamLength { expected, got } => {
                PipelineError::SegmentationOverflow {
                    detail: SegFault::StreamLength { expected, got },
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn category_names_are_unique_and_stable() {
        let names: Vec<_> = ErrorCategory::ALL.iter().map(|c| c.name()).collect();
        let set: std::collections::HashSet<_> = names.iter().collect();
        assert_eq!(set.len(), ErrorCategory::COUNT);
        assert_eq!(names[0], "malformed_frame");
        assert_eq!(names[ErrorCategory::COUNT - 1], "deadline_exceeded");
    }

    #[test]
    fn every_variant_maps_to_its_category() {
        let cases: Vec<(PipelineError, ErrorCategory)> = vec![
            (
                PipelineError::MalformedFrame {
                    reason: FrameFault::Empty,
                },
                ErrorCategory::MalformedFrame,
            ),
            (
                PipelineError::SegmentationOverflow {
                    detail: SegFault::TooManyBlocks { blocks: 99, max: 8 },
                },
                ErrorCategory::SegmentationOverflow,
            ),
            (
                PipelineError::CrcMismatch(DecodeFailure::default()),
                ErrorCategory::CrcMismatch,
            ),
            (
                PipelineError::DecoderDiverged(DecodeFailure::default()),
                ErrorCategory::DecoderDiverged,
            ),
            (
                PipelineError::DeadlineExceeded {
                    budget_ns: 1,
                    elapsed_ns: 2,
                },
                ErrorCategory::DeadlineExceeded,
            ),
        ];
        for (e, cat) in cases {
            assert_eq!(e.category(), cat, "{e}");
        }
    }

    #[test]
    fn conversions_preserve_classification() {
        let e: PipelineError = ParseError::Truncated.into();
        assert_eq!(e.category(), ErrorCategory::MalformedFrame);
        let e: PipelineError = SegError::EmptyBlock.into();
        assert_eq!(e.category(), ErrorCategory::SegmentationOverflow);
        let e: PipelineError = RateMatchError::InvalidRv { rv: 9 }.into();
        assert_eq!(e.category(), ErrorCategory::MalformedFrame);
        let e: PipelineError = OfdmError::ShortCapture {
            need: 548,
            got: 500,
        }
        .into();
        assert_eq!(e.category(), ErrorCategory::MalformedFrame);
    }

    #[test]
    fn wrong_stream_length_keeps_its_lengths() {
        let e: PipelineError = RateMatchError::WrongStreamLength {
            expected: 6148,
            got: 6000,
        }
        .into();
        assert_eq!(e.category(), ErrorCategory::SegmentationOverflow);
        let s = e.to_string();
        assert!(s.contains("6148") && s.contains("6000"), "{s}");
    }

    #[test]
    fn display_is_informative() {
        let e = PipelineError::DeadlineExceeded {
            budget_ns: 100,
            elapsed_ns: 250,
        };
        let s = e.to_string();
        assert!(s.contains("250") && s.contains("100"), "{s}");
        assert!(e.decode_failure().is_none());
        let e = PipelineError::CrcMismatch(DecodeFailure {
            tb_bits: 1000,
            code_blocks: 2,
            failed_blocks: 1,
            decoder_iterations: 12,
        });
        assert_eq!(e.decode_failure().unwrap().code_blocks, 2);
    }
}
