//! The transmit chain: one transport block in, constellation symbols
//! (and, for the uplink air interface, OFDM samples) out.
//!
//! ```text
//! payload bits → CRC24A attach → segment → per block (turbo encode →
//!   rate match) → scramble → map → [OFDM modulate]
//! ```
//!
//! [`TxChain`] owns every buffer a packet needs twice — the packed-word
//! scratch, the coded-bit, symbol and sample buffers — so a warm call
//! allocates only what `vran-phy` returns by signature (the CRC bits and
//! the segmented blocks). It owns no per-K object: each K's QPP and
//! rate-match tables are built once per process, on the K's first use,
//! and the encoder is one word built per call.
//! What varies per transmission is the [`Grant`] argument (the uplink
//! loopback and the downlink's PDSCH differ only there); which kernels
//! run is the owning pipeline's business (a chain built outside the
//! crate runs the production composition, at the tiers the host offers
//! when it is built, but its encoder at the tier the ISA ceiling admits
//! at each call). L2 encapsulation is the step above the chain;
//! time is the span sink's business ([`Spans`]), never read here.

use crate::error::PipelineError;
use crate::metrics::{Op, PipelineMetrics, Spans};
use crate::rx::DecoderBackend;
use vran_arrange::{best_fused, FusedImpl};
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

/// Which kernel composition a pipeline runs. Every production kernel
/// is bit-exact with the oracle it replaces except the Q11 demapper,
/// whose LLRs differ from the f32 reference by quantization (a couple
/// of LSBs): decoder iteration counts can shift between the profiles,
/// delivered frames do not at operating SNR.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum Profile {
    /// Every stage's fast path at the best tier the host offers: the
    /// table/clmul CRC, the word-parallel Gold scrambler, the Q11 SIMD
    /// demapper and descrambler, the packed turbo encoder and rate
    /// matcher, the fused APCM ingest and the native turbo decoder.
    #[default]
    Production,
    /// Every stage's oracle: bit-serial CRC and scrambler, the f32
    /// demapper, the bit-serial descrambler, the scalar turbo encoder
    /// and rate matcher, the scalar fused ingest and the scalar turbo
    /// decoder.
    Reference,
}

impl Profile {
    /// The kernels this profile names, at the tiers the host offers now.
    pub(crate) fn kernels(self) -> Kernels {
        match self {
            Profile::Production => Kernels::production(),
            Profile::Reference => Kernels::reference(),
        }
    }
}

/// Transmit-side turbo encoder + rate matcher.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum EncoderBackend {
    /// Per-bit trellis walk and per-position rate-match readout.
    Scalar,
    /// [`PackedTurboEncoder`] plus the word-at-a-time
    /// [`PackedRateMatcher`], with per-chain [`EncodeScratch`] reuse.
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

/// The kernels the chains run — a [`Profile`], or production with the
/// decoder demoted by the uplink's degradation ladder. Resolved per
/// packet by the chains' owner, because `best_*()` follows the
/// process-global ISA ceiling. The turbo coders' tiers are not fields:
/// the chains build the packed encoder and the native decoder per call,
/// each at the tier the ceiling admits at that moment, as
/// [`Self::count_tx_tiers`] and [`Self::count_rx_tiers`] read it.
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
    /// Fused APCM ingest tier: the de-rate-matcher writes
    /// triple-interleaved clusters and one mask/merge pass segregates
    /// them into the decoder's streams.
    pub(crate) fused: FusedImpl,
    /// Turbo decoder.
    pub(crate) decoder: DecoderBackend,
}

impl Kernels {
    /// [`Profile::Production`] at the best tiers the host offers.
    pub(crate) fn production() -> Self {
        Self {
            crc: best_crc(),
            scramble: scramble_bits,
            encoder: EncoderBackend::Packed,
            demap: Some(best_demap()),
            descramble: Some(best_descramble()),
            fused: best_fused(),
            decoder: DecoderBackend::Native,
        }
    }

    /// [`Profile::Reference`]: every stage's oracle.
    pub(crate) fn reference() -> Self {
        Self {
            crc: CrcImpl::BitSerial,
            scramble: scramble_bits_serial,
            encoder: EncoderBackend::Scalar,
            demap: None,
            descramble: None,
            fused: FusedImpl::Scalar,
            decoder: DecoderBackend::Scalar,
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
        Self::production()
    }
}

/// The transmit chain and the buffers it reuses across packets.
#[derive(Debug, Clone, Default)]
pub struct TxChain {
    /// The kernels the next call runs.
    pub(crate) kern: Kernels,
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
        let packed = PackedTurboEncoder::for_any_k(EncoderIsa::best());
        for blk in &blocks {
            let k = blk.len();
            let e = grant.block_e(k);
            match kern.encoder {
                EncoderBackend::Scalar => {
                    let enc = TurboEncoder::new(k);
                    let d = sink.lap(Op::Encode, || enc.encode(blk)).to_dstreams();
                    let rm = RateMatcher::of(k);
                    let coded = sink.lap(Op::RateMatch, || rm.try_rate_match(&d, e, rv))?;
                    self.bits.extend(coded);
                }
                EncoderBackend::Packed => {
                    sink.lap(Op::Encode, || {
                        packed.encode_dstreams_into(blk, &mut self.scratch)
                    });
                    sink.lap(Op::RateMatch, || {
                        let rm = PackedRateMatcher::of(k);
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
