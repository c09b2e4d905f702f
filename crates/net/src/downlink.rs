//! Downlink pipeline: PDCCH (DCI over the tail-biting convolutional
//! code) followed by PDSCH (the turbo-coded data channel), optionally
//! over a frequency-selective fading channel with pilot-based
//! equalization.
//!
//! The eNB's PDSCH is the same [`TxChain`] the uplink loopback
//! transmits with, under the downlink's own [`Grant`]. The UE side is
//! honest about its information: it decodes the DCI first and takes the
//! data channel's modulation and redundancy version *from the decoded
//! grant*, so a corrupted PDCCH fails the whole subframe exactly as it
//! would on air.

use crate::metrics::PipelineMetrics;
use crate::packet::Packet;
use crate::pipeline::{fading_pass, Clock, DecoderBackend, EncoderBackend};
use crate::rx::Capture;
use crate::tx::{Grant, Kernels, TxChain};
use std::cell::RefCell;
use std::sync::Arc;
use vran_arrange::{ArrangeKernel, Mechanism};
use vran_phy::bits::{pack_msb, unpack_msb};
use vran_phy::channel::AwgnChannel;
use vran_phy::crc::{CRC24A, CRC24B};
use vran_phy::dci::{conv_encode_streams, llrs_from_streams, viterbi_decode_tb, Dci};
use vran_phy::llr::TurboLlrs;
use vran_phy::modulation::{Cplx, Modulation};
use vran_phy::rate_match::conv::ConvRateMatcher;
use vran_phy::rate_match::RateMatcher;
use vran_phy::turbo::TurboDecoder;
use vran_simd::RegWidth;

/// Downlink configuration.
#[derive(Debug, Clone, Copy)]
pub struct DownlinkConfig {
    /// Arrangement width.
    pub width: RegWidth,
    /// Arrangement mechanism.
    pub mechanism: Mechanism,
    /// PDSCH modulation (PDCCH is always QPSK).
    pub modulation: Modulation,
    /// Transmit-side encoder implementation (bit-exact by
    /// construction; see [`EncoderBackend`]).
    pub encoder_backend: EncoderBackend,
    /// Es/N0 in dB.
    pub snr_db: f32,
    /// Turbo iteration cap.
    pub decoder_iterations: usize,
    /// Use the frequency-selective fading channel + equalizer instead
    /// of flat AWGN.
    pub fading: bool,
    /// Redundancy version signaled in the DCI.
    pub rv: u8,
    /// Channel seed.
    pub seed: u64,
    /// Native SIMD front end (the default): fixed-point max-log
    /// demapping, word-parallel Gold scrambling/descrambling and
    /// table/clmul CRC — same A/B contrast as
    /// [`PipelineConfig::frontend_simd`](crate::pipeline::PipelineConfig::frontend_simd).
    pub frontend_simd: bool,
}

impl Default for DownlinkConfig {
    fn default() -> Self {
        Self {
            width: RegWidth::Sse128,
            mechanism: Mechanism::Baseline,
            modulation: Modulation::Qam16,
            encoder_backend: EncoderBackend::Packed,
            snr_db: 16.0,
            decoder_iterations: 6,
            fading: false,
            rv: 0,
            seed: 1,
            frontend_simd: true,
        }
    }
}

/// Outcome of one downlink subframe.
#[derive(Debug, Clone)]
pub struct DownlinkResult {
    /// PDCCH decoded to the transmitted grant.
    pub dci_ok: bool,
    /// PDSCH decoded and the frame CRC passed.
    pub data_ok: bool,
    /// Code blocks in the transport block.
    pub code_blocks: usize,
    /// Coded PDSCH bits.
    pub coded_bits: usize,
}

/// MCS index → modulation for the simplified grant table.
fn mcs_to_modulation(mcs: u8) -> Modulation {
    match mcs {
        0..=9 => Modulation::Qpsk,
        10..=19 => Modulation::Qam16,
        _ => Modulation::Qam64,
    }
}

fn modulation_to_mcs(m: Modulation) -> u8 {
    match m {
        Modulation::Qpsk => 5,
        Modulation::Qam16 => 15,
        Modulation::Qam64 => 25,
    }
}

/// PDSCH scrambling identity.
const PDSCH_C_INIT: u32 = 0xC0FFEE & 0x7FFF_FFFF;

/// PDSCH code rate ×1024: rate 1/2.
const PDSCH_RATE_X1024: u32 = 2048;

/// The downlink pipeline.
#[derive(Debug, Clone)]
pub struct DownlinkPipeline {
    cfg: DownlinkConfig,
    metrics: Option<Arc<PipelineMetrics>>,
    /// The eNB's PDSCH transmit chain (per-K encoders, rate matchers
    /// and word buffers live in it: the steady-state encode loop
    /// performs no heap allocation).
    tx: RefCell<TxChain>,
}

impl DownlinkPipeline {
    /// New pipeline.
    pub fn new(cfg: DownlinkConfig) -> Self {
        Self {
            cfg,
            metrics: None,
            tx: RefCell::default(),
        }
    }

    /// New pipeline recording into `metrics`.
    pub fn with_metrics(cfg: DownlinkConfig, metrics: Arc<PipelineMetrics>) -> Self {
        Self {
            metrics: Some(metrics),
            ..Self::new(cfg)
        }
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&PipelineMetrics> {
        self.metrics.as_deref()
    }

    /// The one place the two A/B flags are read: `frontend_simd` and
    /// `encoder_backend` become the eNB's kernels and the UE's
    /// front-end kernels (its decode side is the scalar reference
    /// behind the VM arrangement kernel under test).
    fn resolve(&self) -> Kernels {
        let cfg = &self.cfg;
        Kernels::resolve(
            cfg.frontend_simd,
            cfg.encoder_backend,
            false,
            DecoderBackend::Scalar,
            ArrangeKernel::new(cfg.width, cfg.mechanism),
        )
    }

    /// Transmit symbols over the configured channel and return
    /// equalized data symbols plus LLR weights.
    fn channel_pass(&self, data: &[Cplx], seed: u64) -> (Vec<Cplx>, f32) {
        if self.cfg.fading {
            let mut out = Vec::with_capacity(data.len());
            fading_pass(data, self.cfg.snr_db, seed, &mut out);
            (out, 1.0)
        } else {
            let mut chan = AwgnChannel::new(self.cfg.snr_db, seed);
            (chan.apply(data), Capture::llr_scale_of(&chan))
        }
    }

    /// Process one subframe carrying `packet` as its transport block.
    pub fn process(&self, packet: &Packet) -> DownlinkResult {
        let cfg = &self.cfg;
        let kern = self.resolve();
        let mut clock = Clock {
            m: self.metrics.as_deref().filter(|m| m.is_enabled()),
            kern,
            nanos: Default::default(),
        };
        if let Some(m) = clock.m {
            kern.count_tx_tiers(m);
        }

        // ---- eNB: PDCCH (conv code + §5.1.4.2 rate matching at
        // aggregation level 2 = 144 coded bits, QPSK) ----
        const PDCCH_E: usize = 144;
        let grant = Dci {
            rb_assignment: 25,
            mcs: modulation_to_mcs(cfg.modulation),
            harq: 0,
            ndi: true,
            rv: cfg.rv & 3,
        };
        let dci_streams = conv_encode_streams(&grant.to_bits());
        let crm = ConvRateMatcher::new(Dci::BITS);
        let dci_coded = crm.rate_match(&dci_streams, PDCCH_E);
        let pdcch_syms = Modulation::Qpsk.modulate(&dci_coded);

        // ---- eNB: PDSCH ----
        let pdsch = Grant {
            modulation: cfg.modulation,
            rate_x1024: PDSCH_RATE_X1024,
            rv: grant.rv,
            c_init: PDSCH_C_INIT,
        };
        let tx = &mut *self.tx.borrow_mut();
        tx.kern = kern;
        let frame_bits = unpack_msb(&packet.frame, packet.frame.len() * 8);
        let seg = tx
            .map(&frame_bits, &pdsch, &mut clock)
            .expect("any frame plus its CRC24A segments, at rv < 4");
        let padded = tx.bits.len();

        // ---- channel (control then data, separate passes) ----
        let (rx_pdcch, ctrl_scale) = self.channel_pass(&pdcch_syms, cfg.seed);
        let (rx_pdsch, data_scale) = self.channel_pass(&tx.symbols, cfg.seed ^ 0xD5D5);

        // ---- UE: decode the grant first (de-rate-match, then the
        // tail-biting Viterbi; the 144→66 repetition combines) ----
        let mut llrs = Vec::new();
        kern.demap_into(Modulation::Qpsk, &rx_pdcch, ctrl_scale, &mut llrs);
        let dci_d = crm.de_rate_match(&llrs[..PDCCH_E]);
        let rx_bits = viterbi_decode_tb(&llrs_from_streams(&dci_d), Dci::BITS);
        let rx_grant = Dci::from_bits(&rx_bits);
        let dci_ok = rx_grant == grant;
        if !dci_ok {
            return DownlinkResult {
                dci_ok,
                data_ok: false,
                code_blocks: seg.c,
                coded_bits: padded,
            };
        }

        // ---- UE: PDSCH with parameters FROM THE GRANT ----
        let ue_grant = Grant {
            modulation: mcs_to_modulation(rx_grant.mcs),
            rv: rx_grant.rv,
            ..pdsch
        };
        kern.demap_into(ue_grant.modulation, &rx_pdsch, data_scale, &mut llrs);
        llrs.truncate(padded);
        kern.descramble(&mut llrs, ue_grant.c_init);

        let mut decoded = Vec::new();
        let mut pos = 0;
        let mut all_ok = true;
        for i in 0..seg.c {
            let k = seg.k_of(i);
            let e = ue_grant.block_e(k);
            if pos + e > llrs.len() {
                all_ok = false;
                break;
            }
            let rm = RateMatcher::new(k + 4);
            let d = rm.de_rate_match(&llrs[pos..pos + e], usize::from(ue_grant.rv));
            pos += e;
            let turbo_in = TurboLlrs::from_dstreams(&d, k);
            // arrangement under test, as in the uplink
            let (streams, _) = kern.vm.arrange(&turbo_in.to_interleaved(), false);
            let streams = kern.vm.depermute(&streams);
            let input = TurboLlrs {
                k,
                streams,
                tails: turbo_in.tails,
            };
            let dec = TurboDecoder::new(k, cfg.decoder_iterations);
            let out = if seg.c > 1 {
                let o = dec.decode_with_crc(&input, &CRC24B);
                if o.crc_ok != Some(true) {
                    all_ok = false;
                }
                o
            } else {
                dec.decode(&input)
            };
            decoded.push(out.bits);
        }

        let data_ok = all_ok
            && decoded.len() == seg.c
            && seg
                .desegment(&decoded)
                .and_then(|tb_bits| {
                    CRC24A
                        .check_with(kern.crc, &tb_bits)
                        .map(|p| pack_msb(p) == packet.frame.to_vec())
                })
                .unwrap_or(false);

        DownlinkResult {
            dci_ok,
            data_ok,
            code_blocks: seg.c,
            coded_bits: padded,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{PacketBuilder, Transport};
    use vran_arrange::ApcmVariant;

    fn packet(size: usize) -> Packet {
        PacketBuilder::new(80, 443)
            .build(Transport::Udp, size)
            .unwrap()
    }

    #[test]
    fn awgn_downlink_closes_the_loop() {
        let cfg = DownlinkConfig {
            snr_db: 25.0,
            ..Default::default()
        };
        let r = DownlinkPipeline::new(cfg).process(&packet(256));
        assert!(r.dci_ok, "{r:?}");
        assert!(r.data_ok, "{r:?}");
    }

    #[test]
    fn fading_downlink_closes_the_loop_with_equalization() {
        let cfg = DownlinkConfig {
            fading: true,
            snr_db: 24.0,
            modulation: Modulation::Qpsk,
            decoder_iterations: 8,
            ..Default::default()
        };
        let r = DownlinkPipeline::new(cfg).process(&packet(200));
        assert!(r.dci_ok, "{r:?}");
        assert!(r.data_ok, "equalized fading downlink must decode: {r:?}");
    }

    #[test]
    fn grant_signals_modulation_and_rv() {
        // 64-QAM + rv 2 must round-trip purely via the decoded DCI.
        let cfg = DownlinkConfig {
            modulation: Modulation::Qam64,
            rv: 2,
            snr_db: 26.0,
            ..Default::default()
        };
        let r = DownlinkPipeline::new(cfg).process(&packet(512));
        assert!(r.dci_ok && r.data_ok, "{r:?}");
    }

    #[test]
    fn destroyed_control_channel_fails_the_subframe() {
        let cfg = DownlinkConfig {
            snr_db: -12.0,
            decoder_iterations: 2,
            ..Default::default()
        };
        let r = DownlinkPipeline::new(cfg).process(&packet(128));
        assert!(!r.data_ok, "data must not pass without a grant: {r:?}");
    }

    #[test]
    fn mechanism_transparent_on_downlink_too() {
        let mut outcomes = Vec::new();
        for mech in [Mechanism::Baseline, Mechanism::Apcm(ApcmVariant::Shuffle)] {
            let cfg = DownlinkConfig {
                mechanism: mech,
                snr_db: 14.0,
                ..Default::default()
            };
            let r = DownlinkPipeline::new(cfg).process(&packet(700));
            outcomes.push((r.dci_ok, r.data_ok, r.code_blocks));
        }
        assert_eq!(outcomes[0], outcomes[1]);
    }

    #[test]
    fn packed_and_scalar_downlink_backends_agree() {
        // Same packet, same channel seed: the packed fast path is
        // bit-exact, so every observable field matches the scalar
        // reference — including the noise realization, because the
        // channel sees identical coded bits.
        for (size, rv) in [(256usize, 0u8), (700, 2)] {
            let outcomes: Vec<_> = [EncoderBackend::Scalar, EncoderBackend::Packed]
                .into_iter()
                .map(|encoder_backend| {
                    let cfg = DownlinkConfig {
                        snr_db: 25.0,
                        rv,
                        encoder_backend,
                        ..Default::default()
                    };
                    let r = DownlinkPipeline::new(cfg).process(&packet(size));
                    (r.dci_ok, r.data_ok, r.code_blocks, r.coded_bits)
                })
                .collect();
            assert_eq!(outcomes[0], outcomes[1], "size={size} rv={rv}");
            assert!(outcomes[0].1, "size={size} rv={rv}: {outcomes:?}");
        }
    }

    #[test]
    fn downlink_hot_loop_reuses_encode_scratch() {
        let cfg = DownlinkConfig {
            snr_db: 25.0,
            ..Default::default()
        };
        let pipe = DownlinkPipeline::new(cfg);
        let p = packet(256);
        for _ in 0..4 {
            assert!(pipe.process(&p).data_ok);
        }
        let scratch = &pipe.tx.borrow().scratch;
        assert!(scratch.allocations() > 0);
        assert!(
            scratch.reuses() >= 3,
            "steady-state encodes must reuse scratch: allocs={} reuses={}",
            scratch.allocations(),
            scratch.reuses()
        );
    }

    #[test]
    fn a_frame_over_the_uplink_block_cap_still_closes_the_loop() {
        // `MAX_CODE_BLOCKS` is the uplink receiver's limit; the PDSCH
        // has never had one. 6200 B → 9 code blocks.
        let cfg = DownlinkConfig {
            snr_db: 25.0,
            decoder_iterations: 2,
            ..Default::default()
        };
        let r = DownlinkPipeline::new(cfg).process(&packet(6200));
        assert!(r.code_blocks > crate::pipeline::MAX_CODE_BLOCKS, "{r:?}");
        assert!(r.dci_ok && r.data_ok, "{r:?}");
    }

    #[test]
    fn mcs_table_round_trips() {
        for m in Modulation::ALL {
            assert_eq!(mcs_to_modulation(modulation_to_mcs(m)), m);
        }
    }
}
