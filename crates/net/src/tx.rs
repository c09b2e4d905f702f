//! The transmit chain: one transport block in, constellation symbols
//! (and, for the uplink air interface, OFDM samples) out.
//!
//! ```text
//! payload bits → CRC24A attach → segment → per block (turbo encode →
//!   rate match) → scramble → map → [OFDM modulate]
//! ```
//!
//! [`TxChain`] owns everything a packet needs twice — per-K encoders
//! and rate matchers, the packed-word scratch, the coded-bit, symbol
//! and sample buffers — so a warm call allocates only what `vran-phy`
//! returns by signature (the CRC bits and the segmented blocks).
//! What varies per transmission is the [`Grant`] argument (the uplink
//! loopback and the downlink's PDSCH differ only there); which kernels
//! run is the owning pipeline's business (a chain built outside the
//! crate runs the production composition, at the tiers the host offers
//! when it is built). L2 encapsulation is the step above the chain;
//! time is the span sink's business ([`Spans`]), never read here.

use crate::error::PipelineError;
use crate::metrics::{Op, PipelineMetrics, Spans};
use crate::rx::DecoderBackend;
use vran_arrange::{best_fused, ArrangeKernel, FusedImpl};
use vran_phy::bits::extend_bits_from_words;
use vran_phy::crc::{best_crc, CrcImpl, CRC24A};
use vran_phy::demap::{best_demap, demap_into, DemapImpl};
use vran_phy::llr::Llr;
use vran_phy::modulation::{Cplx, Modulation};
use vran_phy::ofdm::OfdmConfig;
use vran_phy::rate_match::{PackedRateMatcher, RateMatcher};
use vran_phy::scrambler::{
    best_descramble, descramble_llrs, descramble_llrs_with, scramble_bits, scramble_bits_serial,
    DescrambleImpl,
};
use vran_phy::segmentation::Segmentation;
use vran_phy::turbo::{DecoderIsa, EncodeScratch, EncoderIsa, PackedTurboEncoder, TurboEncoder};

/// The air interface both chains speak: FDD, 5 MHz.
pub(crate) const OFDM: OfdmConfig = OfdmConfig::lte5mhz();

/// Which transmit-side turbo encoder + rate matcher the pipelines run.
///
/// Both backends are bit-exact by construction — the packed path
/// exploits the encoder's GF(2) linearity, which cannot change WHAT is
/// encoded, only how many bits advance per instruction (enforced by
/// `vran-phy`'s property tests across all 188 QPP sizes).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum EncoderBackend {
    /// Per-bit trellis walk and per-position rate-match readout — the
    /// reference path.
    Scalar,
    /// Bitsliced fast path: [`PackedTurboEncoder`] (64 trellis steps
    /// per `u64`, 128/256 per register under SSE2/AVX2) plus the
    /// word-at-a-time [`PackedRateMatcher`], with per-chain
    /// [`EncodeScratch`] reuse (allocation-free per code block after
    /// warm-up).
    #[default]
    Packed,
}

/// What both ends of a transmission agree on (in LTE: the grant).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Grant {
    /// Data-channel modulation.
    pub modulation: Modulation,
    /// Coded bits per information bit ×1024 (2048 = rate 1/2).
    pub rate_x1024: u32,
    /// Redundancy version, `0..4`.
    pub rv: u8,
    /// Gold-sequence initialiser of the scrambler.
    pub c_init: u32,
}

impl Grant {
    /// Rate-matched bits of a code block of `k` bits: the code rate
    /// rounded up to whole symbol pairs, repetition capped at 2×.
    pub fn block_e(&self, k: usize) -> usize {
        ((k as u64 * self.rate_x1024 as u64 / 1024) as usize)
            .next_multiple_of(self.modulation.bits_per_symbol() * 2)
            .min(3 * (k + 4) * 2)
    }
}

/// The kernels the chains run — what the configurations' A/B flags
/// (`frontend_simd`, `encoder_backend`, `fused_ingest`, `backend`)
/// resolve to. Resolved per packet by the chains' owner, because
/// `best_*()` follows the process-global ISA ceiling.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Kernels {
    /// CRC24A attach / check kernel.
    pub(crate) crc: CrcImpl,
    /// Bit scrambler: word-parallel [`scramble_bits`] or its
    /// bit-serial oracle.
    pub(crate) scramble: fn(&mut [u8], u32),
    /// Encoder + rate-matcher pair.
    pub(crate) encoder: EncoderBackend,
    /// Q11 fixed-point demapper tier; `None` runs the f32 reference.
    pub(crate) demap: Option<DemapImpl>,
    /// Word-parallel descrambler tier; `None` runs the bit-serial
    /// reference.
    pub(crate) descramble: Option<DescrambleImpl>,
    /// Fused APCM ingest (native decoder only): the de-rate-matcher
    /// writes triple-interleaved clusters and one mask/merge pass
    /// segregates them. `None` de-rate-matches to three streams and
    /// arranges them separately.
    pub(crate) fused: Option<FusedImpl>,
    /// Decoder; `Scalar` arranges with the VM kernel `vm`.
    pub(crate) decoder: DecoderBackend,
    /// The tracing-VM arrangement kernel under test.
    pub(crate) vm: ArrangeKernel,
}

impl Kernels {
    /// The kernels the flags select, at the best tier the host offers.
    /// Fused ingest exists only in front of the native decoder: a
    /// scalar one (configured, or demoted by the degradation ladder)
    /// gets the unfused chain.
    pub(crate) fn resolve(
        frontend_simd: bool,
        encoder: EncoderBackend,
        fused_ingest: bool,
        decoder: DecoderBackend,
        vm: ArrangeKernel,
    ) -> Self {
        let (crc, scramble): (_, fn(&mut [u8], u32)) = if frontend_simd {
            (best_crc(), scramble_bits)
        } else {
            (CrcImpl::BitSerial, scramble_bits_serial)
        };
        Self {
            crc,
            scramble,
            encoder,
            demap: frontend_simd.then(best_demap),
            descramble: frontend_simd.then(best_descramble),
            fused: (fused_ingest && decoder == DecoderBackend::Native).then(best_fused),
            decoder,
            vm,
        }
    }

    /// Soft-demap `symbols` into `out` (cleared first).
    pub(crate) fn demap_into(
        &self,
        m: Modulation,
        symbols: &[Cplx],
        scale: f32,
        out: &mut Vec<Llr>,
    ) {
        match self.demap {
            Some(imp) => demap_into(imp, m, symbols, scale, out),
            None => *out = m.demodulate(symbols, scale),
        }
    }

    /// Undo the scrambler on soft values.
    pub(crate) fn descramble(&self, llrs: &mut [Llr], c_init: u32) {
        match self.descramble {
            Some(imp) => descramble_llrs_with(imp, llrs, c_init),
            None => descramble_llrs(llrs, c_init),
        }
    }

    /// Count a transmitted packet under the encoder tiers the host (or
    /// the test ISA ceiling) denied it. Each fallback counter means the
    /// deployment lost a speedup it asked for — worth observing.
    pub(crate) fn count_tx_tiers(&self, m: &PipelineMetrics) {
        if self.encoder == EncoderBackend::Packed {
            if EncoderIsa::best() == EncoderIsa::Word64 {
                // no SIMD at all: the portable u64 kernel
                m.packed_encoder_fallbacks.inc();
            }
            if EncoderIsa::best() < EncoderIsa::Avx512 {
                // below the widest (zmm) tier
                m.zmm_encoder_fallbacks.inc();
            }
        }
    }

    /// [`Self::count_tx_tiers`] for a packet that reached the receiver.
    pub(crate) fn count_rx_tiers(&self, m: &PipelineMetrics) {
        if let (Some(demap), Some(descramble)) = (self.demap, self.descramble) {
            m.frontend_packets.inc();
            if demap == DemapImpl::Scalar || descramble == DescrambleImpl::ScalarWord {
                m.frontend_fallbacks.inc();
            }
        }
        if self.decoder == DecoderBackend::Native && DecoderIsa::best() == DecoderIsa::Scalar {
            m.native_simd_fallbacks.inc();
        }
    }
}

impl Default for Kernels {
    /// The production composition.
    fn default() -> Self {
        Self::resolve(
            true,
            EncoderBackend::Packed,
            true,
            DecoderBackend::Native,
            ArrangeKernel::new(
                vran_simd::RegWidth::Sse128,
                vran_arrange::Mechanism::Baseline,
            ),
        )
    }
}

/// Position of the entry keyed `key`, built with `make` on first use.
pub(crate) fn slot<T>(cache: &mut Vec<(usize, T)>, key: usize, make: impl FnOnce() -> T) -> usize {
    match cache.iter().position(|(k, _)| *k == key) {
        Some(i) => i,
        None => {
            cache.push((key, make()));
            cache.len() - 1
        }
    }
}

/// The transmit chain and the buffers it reuses across packets.
#[derive(Debug, Clone, Default)]
pub struct TxChain {
    /// The kernels the next call runs.
    pub(crate) kern: Kernels,
    /// Packed encoders, keyed by block size K.
    encoders: Vec<(usize, PackedTurboEncoder)>,
    /// Packed rate matchers, keyed by per-stream length `d = K + 4`.
    rms: Vec<(usize, PackedRateMatcher)>,
    /// The packed encoder's working buffers (their allocation ledger
    /// is how tests pin the warm loop).
    pub scratch: EncodeScratch,
    /// The transport block: payload + CRC24A.
    tb: Vec<u8>,
    /// Compacted circular buffer (rate-matcher input words).
    wbuf: Vec<u64>,
    /// Rate-matched readout words.
    ebuf: Vec<u64>,
    /// The last block's coded, rate-matched bits, padded to a whole
    /// symbol and scrambled in place.
    pub bits: Vec<u8>,
    /// The last block's constellation symbols.
    pub symbols: Vec<Cplx>,
    /// The last block's OFDM time-domain samples ([`Self::tx`] only).
    pub samples: Vec<Cplx>,
}

impl TxChain {
    /// `payload` (one bit per byte) through CRC24A attach, segmentation,
    /// encode, rate match, scrambling and mapping, into
    /// [`Self::symbols`]. Returns the segmentation plan (`b` is the
    /// transport-block size in bits, CRC24A included).
    pub fn map(
        &mut self,
        payload: &[u8],
        grant: &Grant,
        sink: &mut impl Spans,
    ) -> Result<Segmentation, PipelineError> {
        let kern = self.kern;
        let tb = &mut self.tb;
        sink.lap(Op::CrcAttach, || {
            tb.clear();
            tb.extend_from_slice(payload);
            tb.extend(CRC24A.compute_with(kern.crc, payload));
        });
        let (seg, blocks) = sink.lap(Op::Seg, || -> Result<_, PipelineError> {
            let seg = Segmentation::try_plan(tb.len())?;
            let blocks = seg.try_segment(tb)?;
            Ok((seg, blocks))
        })?;

        self.bits.clear();
        let rv = usize::from(grant.rv);
        for blk in &blocks {
            let k = blk.len();
            let e = grant.block_e(k);
            match kern.encoder {
                EncoderBackend::Scalar => {
                    let enc = TurboEncoder::new(k);
                    let d = sink.lap(Op::Encode, || enc.encode(blk)).to_dstreams();
                    let rm = RateMatcher::new(k + 4);
                    let coded = sink.lap(Op::RateMatch, || rm.try_rate_match(&d, e, rv))?;
                    self.bits.extend(coded);
                }
                EncoderBackend::Packed => {
                    let ei = slot(&mut self.encoders, k, || PackedTurboEncoder::new(k));
                    let rmi = slot(&mut self.rms, k + 4, || PackedRateMatcher::new(k + 4));
                    sink.lap(Op::Encode, || {
                        self.encoders[ei]
                            .1
                            .encode_dstreams_into(blk, &mut self.scratch)
                    });
                    sink.lap(Op::RateMatch, || {
                        let rm = &self.rms[rmi].1;
                        rm.pack_circular_into(self.scratch.dstream_words(), &mut self.wbuf)?;
                        rm.try_rate_match_packed_into(&self.wbuf, e, rv, &mut self.ebuf)?;
                        extend_bits_from_words(&self.ebuf, e, &mut self.bits);
                        Ok::<_, PipelineError>(())
                    })?;
                }
            }
        }
        let bps = grant.modulation.bits_per_symbol();
        self.bits.resize(self.bits.len().next_multiple_of(bps), 0);

        sink.lap(Op::Scramble, || {
            (kern.scramble)(&mut self.bits, grant.c_init)
        });
        let held = self.symbols.capacity();
        sink.lap(Op::Map, || {
            grant
                .modulation
                .modulate_into(&self.bits, &mut self.symbols)
        });
        sink.staged(held, self.symbols.capacity());
        Ok(seg)
    }

    /// [`Self::map`], then OFDM modulation into [`Self::samples`].
    pub fn tx(
        &mut self,
        payload: &[u8],
        grant: &Grant,
        sink: &mut impl Spans,
    ) -> Result<Segmentation, PipelineError> {
        let seg = self.map(payload, grant, sink)?;
        let held = self.samples.capacity();
        sink.lap(Op::OfdmMod, || {
            OFDM.modulate_stream_into(&self.symbols, &mut self.samples)
        });
        sink.staged(held, self.samples.capacity());
        Ok(seg)
    }
}
