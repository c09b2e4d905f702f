//! The receiver under test and the eNB transmit chain, composed from
//! the repository's public kernels in the same order as
//! `vran_net::pipeline::UplinkPipeline::process` runs them.
//!
//! `process` is a loopback bench: it synthesises the transmitter and
//! the channel and then runs the receiver, all inside one call, so a
//! receive-side gain is diluted by the transmit side's cost. No
//! receive-only entry point exists yet; until one does, [`Receiver::
//! rx_once`] is the single place the benchmark composes one, and the
//! set-up parity check ([`parity_rx`]) proves it decodes every capture
//! exactly as `process` does (same outcome, block count, coded bits
//! and decoder iterations).

use crate::trace::Tracer;
use vran_arrange::{best_fused, fused_ingest_into};
use vran_net::l2::{BearerRx, BearerTx, L2_OVERHEAD};
use vran_net::packet::Packet;
use vran_net::pipeline::{PipelineConfig, UplinkPipeline, MAX_CODE_BLOCKS};
use vran_phy::bits::{extend_bits_from_words, pack_msb, unpack_msb};
use vran_phy::channel::AwgnChannel;
use vran_phy::crc::{best_crc, CrcImpl, CRC24A, CRC24B};
use vran_phy::demap::{best_demap, demap_into};
use vran_phy::llr::{Llr, SoftStreams, TailLlrs};
use vran_phy::modulation::{Cplx, Modulation};
use vran_phy::ofdm::OfdmConfig;
use vran_phy::rate_match::{PackedRateMatcher, RateMatcher};
use vran_phy::scrambler::{
    best_descramble, descramble_llrs_with, scramble_bits, scramble_bits_serial, GoldSequence,
};
use vran_phy::segmentation::Segmentation;
use vran_phy::turbo::{
    DecodeScratch, EncodeScratch, NativeTurboDecoder, PackedTurboEncoder, TurboEncoder,
};

/// Receive-side operations: span `op` indices and their
/// layer-qualified names, in chain order.
pub mod rx_op {
    pub const ONCE: u16 = 0;
    pub const OFDM_DEMOD: u16 = 1;
    pub const DEMAP: u16 = 2;
    pub const DESCRAMBLE: u16 = 3;
    pub const DERM: u16 = 4;
    pub const FUSED: u16 = 5;
    pub const DECODE: u16 = 6;
    pub const DESEG: u16 = 7;
    pub const CRC_CHECK: u16 = 8;
    pub const L2_DECAP: u16 = 9;
    pub const NAMES: [&str; 10] = [
        "rx.once",
        "phy.ofdm.demod",
        "phy.demap",
        "phy.scrambler.descramble",
        "phy.rate_match.derm",
        "arrange.fused",
        "phy.turbo.decode",
        "phy.segmentation.deseg",
        "phy.crc.check",
        "net.l2.decap",
    ];
}

/// Transmit-side operations: span `op` indices and their
/// layer-qualified names, in chain order.
pub mod tx_op {
    pub const ONCE: u16 = 0;
    pub const L2_ENCAP: u16 = 1;
    pub const CRC_ATTACH: u16 = 2;
    pub const SEG: u16 = 3;
    pub const ENCODE: u16 = 4;
    pub const RM: u16 = 5;
    pub const SCRAMBLE: u16 = 6;
    pub const MAP: u16 = 7;
    pub const OFDM_MOD: u16 = 8;
    pub const NAMES: [&str; 9] = [
        "tx.once",
        "net.l2.encap",
        "phy.crc.attach",
        "phy.segmentation.seg",
        "phy.turbo.encode",
        "phy.rate_match.rm",
        "phy.scrambler.scramble",
        "phy.modulation.map",
        "phy.ofdm.mod",
    ];
}

/// The link parameters both ends agree on (in LTE: the uplink grant).
/// Iteration cap and code rate are read from `PipelineConfig::default()`
/// at run time, so the chains track the repository's defaults.
#[derive(Debug, Clone, Copy)]
pub struct Link {
    /// Data-channel modulation.
    pub modulation: Modulation,
    /// Channel Es/N0 in dB.
    pub snr_db: f32,
    /// Turbo decoder iteration cap.
    pub decoder_iterations: usize,
    /// Coded bits per information bit ×1024.
    pub rate_x1024: u32,
}

impl Link {
    /// A link at the repository's default iteration cap and code rate.
    pub fn new(modulation: Modulation, snr_db: f32) -> Self {
        let d = PipelineConfig::default();
        Self {
            modulation,
            snr_db,
            decoder_iterations: d.decoder_iterations,
            rate_x1024: d.rate_x1024,
        }
    }

    /// Rate-matched bits of a code block of `k` bits.
    fn block_e(&self, k: usize) -> usize {
        ((k as u64 * self.rate_x1024 as u64 / 1024) as usize)
            .next_multiple_of(self.modulation.bits_per_symbol() * 2)
            .min(3 * (k + 4) * 2)
    }

    /// The demapper's noise scale at this SNR.
    fn llr_scale(&self) -> f32 {
        (AwgnChannel::new(self.snr_db, 0).llr_scale() / 8.0).clamp(0.25, 16.0)
    }
}

/// The scrambling identity `UplinkPipeline` uses.
fn c_init() -> u32 {
    GoldSequence::c_init_pxsch(0x1234, 0, 4, 42)
}

/// Position of the entry keyed `key`, built with `make` on first use.
fn slot<T>(cache: &mut Vec<(usize, T)>, key: usize, make: impl FnOnce() -> T) -> usize {
    match cache.iter().position(|(k, _)| *k == key) {
        Some(i) => i,
        None => {
            cache.push((key, make()));
            cache.len() - 1
        }
    }
}

/// One transmitted subframe: time-domain samples plus what the
/// receiver learns from the grant.
#[derive(Debug, Clone)]
pub struct Air {
    /// OFDM time-domain samples.
    pub samples: Vec<Cplx>,
    /// Constellation symbols carried.
    pub n_symbols: usize,
    /// Transport-block size in bits (incl. CRC24A).
    pub tb_bits: usize,
}

/// Order-sensitive 64-bit digest of a sample stream (the transmit
/// workload's output check).
pub fn checksum(samples: &[Cplx]) -> u64 {
    samples.iter().fold(0xcbf2_9ce4_8422_2325, |h, s| {
        let w = (s.re.to_bits() as u64) << 32 | s.im.to_bits() as u64;
        (h ^ w).wrapping_mul(0x0000_0100_0000_01b3).rotate_left(29)
    })
}

/// eNB transmit chain: CRC24A attach → segment → packed turbo encode →
/// packed rate match → scramble → modulate → OFDM.
#[derive(Debug)]
pub struct Transmitter {
    link: Link,
    ofdm: OfdmConfig,
    encoders: Vec<(usize, PackedTurboEncoder)>,
    rms: Vec<(usize, PackedRateMatcher)>,
    scratch: EncodeScratch,
    wbuf: Vec<u64>,
    ebuf: Vec<u64>,
    tx_bits: Vec<u8>,
}

impl Transmitter {
    /// New chain; per-K encoders and rate matchers build on first use.
    pub fn new(link: Link) -> Self {
        Self {
            link,
            ofdm: OfdmConfig::lte5mhz(),
            encoders: Vec::new(),
            rms: Vec::new(),
            scratch: EncodeScratch::new(),
            wbuf: Vec::new(),
            ebuf: Vec::new(),
            tx_bits: Vec::new(),
        }
    }

    /// The coded, rate-matched, scrambled bits of the last frame sent.
    pub fn scrambled_bits(&self) -> &[u8] {
        &self.tx_bits
    }

    /// Transmit one frame.
    pub fn tx_once<T: Tracer>(&mut self, frame: &[u8], t: &mut T) -> Air {
        let root = t.begin(tx_op::ONCE);

        let s = t.begin(tx_op::L2_ENCAP);
        let pdu = BearerTx::default()
            .encapsulate(frame, frame.len() + L2_OVERHEAD)
            .expect("TB sized to fit");
        let frame_bits = unpack_msb(&pdu, pdu.len() * 8);
        t.end(s, frame.len() as u64);

        let s = t.begin(tx_op::CRC_ATTACH);
        let tb = CRC24A.attach_with(best_crc(), &frame_bits);
        t.end(s, tb.len() as u64);

        let s = t.begin(tx_op::SEG);
        let seg = Segmentation::try_plan(tb.len()).expect("non-empty transport block");
        let blocks = seg.try_segment(&tb).expect("plan matches the block");
        t.end(s, blocks.len() as u64);

        self.tx_bits.clear();
        for blk in &blocks {
            let k = blk.len();
            let e = self.link.block_e(k);
            let ei = slot(&mut self.encoders, k, || PackedTurboEncoder::new(k));
            let rmi = slot(&mut self.rms, k + 4, || PackedRateMatcher::new(k + 4));

            let s = t.begin(tx_op::ENCODE);
            self.encoders[ei]
                .1
                .encode_dstreams_into(blk, &mut self.scratch);
            t.end(s, k as u64);

            let s = t.begin(tx_op::RM);
            let rm = &self.rms[rmi].1;
            rm.pack_circular_into(self.scratch.dstream_words(), &mut self.wbuf)
                .expect("scratch streams sized to d");
            rm.try_rate_match_packed_into(&self.wbuf, e, 0, &mut self.ebuf)
                .expect("rv 0 always valid");
            extend_bits_from_words(&self.ebuf, e, &mut self.tx_bits);
            t.end(s, e as u64);
        }

        let bps = self.link.modulation.bits_per_symbol();
        let padded = self.tx_bits.len().next_multiple_of(bps);
        self.tx_bits.resize(padded, 0);

        let s = t.begin(tx_op::SCRAMBLE);
        scramble_bits(&mut self.tx_bits, c_init());
        t.end(s, padded as u64);

        let s = t.begin(tx_op::MAP);
        let symbols = self.link.modulation.modulate(&self.tx_bits);
        t.end(s, symbols.len() as u64);

        let s = t.begin(tx_op::OFDM_MOD);
        let samples = self.ofdm.modulate_stream(&symbols);
        t.end(s, (samples.len() / self.ofdm.symbol_len()) as u64);

        t.end(root, 1);
        Air {
            samples,
            n_symbols: symbols.len(),
            tb_bits: tb.len(),
        }
    }
}

/// One received subframe as the fronthaul hands it over, plus the
/// frame it carries (for the output check only — the receiver never
/// reads it).
#[derive(Debug, Clone)]
pub struct Capture {
    /// Noisy time-domain samples.
    pub air: Vec<Cplx>,
    /// Constellation symbols carried.
    pub n_symbols: usize,
    /// Transport-block size in bits (incl. CRC24A).
    pub tb_bits: usize,
    /// Noise seed the channel used (the parity check replays it).
    pub noise_seed: u64,
    /// The source frame.
    pub frame: Vec<u8>,
}

impl Capture {
    /// Send `frame` through `tx` and an AWGN channel seeded
    /// `noise_seed` — the same `AwgnChannel::new(snr, seed)` the
    /// loopback pipeline draws per packet.
    pub fn generate(tx: &mut Transmitter, frame: &[u8], noise_seed: u64) -> Self {
        let air = tx.tx_once(frame, &mut crate::trace::NoTrace);
        Self {
            air: AwgnChannel::new(tx.link.snr_db, noise_seed).apply(&air.samples),
            n_symbols: air.n_symbols,
            tb_bits: air.tb_bits,
            noise_seed,
            frame: frame.to_vec(),
        }
    }
}

/// What the receiver hands up for one capture.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered {
    /// The de-encapsulated frame, when every check passed.
    pub sdu: Option<Vec<u8>>,
    /// Code blocks the transport block split into.
    pub code_blocks: usize,
    /// Rate-matched bits consumed.
    pub coded_bits: usize,
    /// Decoder iterations run, summed over code blocks.
    pub iterations: usize,
}

/// The receiver under test: OFDM demod → demap → descramble → per code
/// block (de-rate-match → fused arrange → turbo decode with CRC24B
/// early stop) → desegment → CRC24A → L2.
#[derive(Debug)]
pub struct Receiver {
    link: Link,
    ofdm: OfdmConfig,
    llr_scale: f32,
    decoders: Vec<(usize, NativeTurboDecoder)>,
    rms: Vec<(usize, RateMatcher)>,
    llrs: Vec<Llr>,
    inter: Vec<Llr>,
    streams: SoftStreams,
    scratch: DecodeScratch,
    bits: Vec<Vec<u8>>,
}

impl Receiver {
    /// New chain; per-K decoders and rate matchers build on first use.
    pub fn new(link: Link) -> Self {
        Self {
            link,
            ofdm: OfdmConfig::lte5mhz(),
            llr_scale: link.llr_scale(),
            decoders: Vec::new(),
            rms: Vec::new(),
            llrs: Vec::new(),
            inter: Vec::new(),
            streams: SoftStreams::zeros(0),
            scratch: DecodeScratch::new(),
            bits: Vec::new(),
        }
    }

    /// Receive one capture. The one function a later change re-points
    /// at the repository's own receive-only entry point.
    pub fn rx_once<T: Tracer>(&mut self, cap: &Capture, t: &mut T) -> Delivered {
        let root = t.begin(rx_op::ONCE);
        let out = self.rx_stages(cap, t);
        t.end(root, 1);
        out
    }

    fn rx_stages<T: Tracer>(&mut self, cap: &Capture, t: &mut T) -> Delivered {
        let m = self.link.modulation;
        let mut out = Delivered {
            sdu: None,
            code_blocks: 0,
            coded_bits: 0,
            iterations: 0,
        };

        let s = t.begin(rx_op::OFDM_DEMOD);
        let symbols = self.ofdm.demodulate_stream(&cap.air, cap.n_symbols);
        t.end(s, (cap.air.len() / self.ofdm.symbol_len()) as u64);

        let s = t.begin(rx_op::DEMAP);
        demap_into(best_demap(), m, &symbols, self.llr_scale, &mut self.llrs);
        t.end(s, self.llrs.len() as u64);

        let s = t.begin(rx_op::DESCRAMBLE);
        descramble_llrs_with(best_descramble(), &mut self.llrs, c_init());
        t.end(s, self.llrs.len() as u64);

        let s = t.begin(rx_op::DESEG);
        let seg = Segmentation::try_plan(cap.tb_bits);
        t.end(s, 0);
        let Ok(seg) = seg else { return out };
        if seg.c > MAX_CODE_BLOCKS {
            return out;
        }
        out.code_blocks = seg.c;
        if self.bits.len() < seg.c {
            self.bits.resize_with(seg.c, Vec::new);
        }

        let crc = (seg.c > 1).then_some(&CRC24B);
        let mut failed_blocks = 0;
        for i in 0..seg.c {
            let k = seg.k_of(i);
            let e = self.link.block_e(k);
            let Some(block_llrs) = self.llrs.get(out.coded_bits..out.coded_bits + e) else {
                return out;
            };
            let rmi = slot(&mut self.rms, k + 4, || RateMatcher::new(k + 4));

            let s = t.begin(rx_op::DERM);
            let derm =
                self.rms[rmi]
                    .1
                    .try_de_rate_match_interleaved_into(block_llrs, 0, &mut self.inter);
            let tails = TailLlrs::from_interleaved(&self.inter, k);
            t.end(s, e as u64);
            if derm.is_err() {
                return out;
            }
            out.coded_bits += e;

            let s = t.begin(rx_op::FUSED);
            self.streams.sys.resize(k, 0);
            self.streams.p1.resize(k, 0);
            self.streams.p2.resize(k, 0);
            fused_ingest_into(
                best_fused(),
                &self.inter,
                k,
                &mut self.streams.sys,
                &mut self.streams.p1,
                &mut self.streams.p2,
            );
            t.end(s, 3 * k as u64);

            let cap_iters = self.link.decoder_iterations;
            let di = slot(&mut self.decoders, k, || {
                NativeTurboDecoder::new(k, cap_iters)
            });
            let s = t.begin(rx_op::DECODE);
            let (iters, crc_ok) = self.decoders[di].1.decode_streams_capped_into(
                &self.streams.sys,
                &self.streams.p1,
                &self.streams.p2,
                &tails,
                cap_iters,
                crc,
                &mut self.scratch,
                &mut self.bits[i],
            );
            t.end(s, (k * iters) as u64);
            out.iterations += iters;
            if crc_ok == Some(false) {
                failed_blocks += 1;
            }
        }

        let s = t.begin(rx_op::DESEG);
        let rx_tb = seg.try_desegment(&self.bits[..seg.c]);
        t.end(s, cap.tb_bits as u64);
        let Ok(Some(rx_tb)) = rx_tb else { return out };
        if failed_blocks > 0 {
            return out;
        }

        let s = t.begin(rx_op::CRC_CHECK);
        let payload = CRC24A.check_with(best_crc(), &rx_tb);
        t.end(s, rx_tb.len() as u64);
        let Some(payload) = payload else { return out };

        let s = t.begin(rx_op::L2_DECAP);
        out.sdu = BearerRx::default().decapsulate(&pack_msb(payload)).ok();
        t.end(s, (payload.len() / 8) as u64);
        out
    }
}

/// Run `UplinkPipeline::process` on the capture's frame over the same
/// channel realisation and compare its outcome with what `rx_once`
/// produced. Names only `modulation`, `snr_db` and `seed` of the
/// pipeline configuration.
pub fn parity_rx(
    link: Link,
    packet: &Packet,
    cap: &Capture,
    got: &Delivered,
) -> Result<(), String> {
    let pipe = UplinkPipeline::new(PipelineConfig {
        modulation: link.modulation,
        snr_db: link.snr_db,
        seed: cap.noise_seed,
        ..Default::default()
    });
    let delivered = got.sdu.as_deref() == Some(&cap.frame[..]);
    let agree = match pipe.process(packet) {
        Ok(r) => {
            delivered
                && (r.code_blocks, r.coded_bits, r.decoder_iterations)
                    == (got.code_blocks, got.coded_bits, got.iterations)
        }
        Err(e) => {
            let f = e.decode_failure().copied().unwrap_or_default();
            !delivered && (f.code_blocks, f.decoder_iterations) == (got.code_blocks, got.iterations)
        }
    };
    if agree {
        Ok(())
    } else {
        Err(format!(
            "rx_once disagrees with UplinkPipeline::process on a {} B frame (noise seed {}): {got:?}",
            cap.frame.len(),
            cap.noise_seed
        ))
    }
}

/// The coded, rate-matched, scrambled bits of `frame` by the scalar
/// reference chain (bit-serial CRC, per-bit trellis walk, per-position
/// rate-match readout, bit-serial Gold sequence) — what the packed
/// transmit chain must reproduce bit for bit.
pub fn reference_scrambled_bits(link: Link, frame: &[u8]) -> Vec<u8> {
    let pdu = BearerTx::default()
        .encapsulate(frame, frame.len() + L2_OVERHEAD)
        .expect("TB sized to fit");
    let tb = CRC24A.attach_with(CrcImpl::BitSerial, &unpack_msb(&pdu, pdu.len() * 8));
    let seg = Segmentation::plan(tb.len());
    let mut bits = Vec::new();
    for blk in seg.segment(&tb) {
        let k = blk.len();
        let d = TurboEncoder::new(k).encode(&blk).to_dstreams();
        bits.extend(RateMatcher::new(k + 4).rate_match(&d, link.block_e(k), 0));
    }
    bits.resize(
        bits.len()
            .next_multiple_of(link.modulation.bits_per_symbol()),
        0,
    );
    scramble_bits_serial(&mut bits, c_init());
    bits
}
