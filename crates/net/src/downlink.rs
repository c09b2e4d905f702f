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
//! would on air. Its turbo decoder is the scalar reference under either
//! [`Profile`]; the profile picks the eNB's encoder and CRC and the
//! UE's demapper, descrambler and CRC.

use crate::metrics::PipelineMetrics;
use crate::packet::Packet;
use crate::pipeline::{fading_pass, Clock};
use crate::rx::Capture;
use crate::tx::{Grant, Profile, TxChain};
use std::cell::RefCell;
use std::sync::Arc;
use vran_phy::bits::{pack_msb, unpack_msb};
use vran_phy::channel::NoiseTape;
use vran_phy::crc::{CRC24A, CRC24B};
use vran_phy::dci::{conv_encode_streams, llrs_from_streams, viterbi_decode_tb, Dci};
use vran_phy::llr::TurboLlrs;
use vran_phy::modulation::{Cplx, Modulation};
use vran_phy::rate_match::conv::ConvRateMatcher;
use vran_phy::rate_match::RateMatcher;
use vran_phy::turbo::TurboDecoder;

/// Downlink configuration.
#[derive(Debug, Clone, Copy)]
pub struct DownlinkConfig {
    /// The kernel composition both ends run.
    pub profile: Profile,
    /// PDSCH modulation (PDCCH is always QPSK).
    pub modulation: Modulation,
    /// Es/N0 in dB.
    pub snr_db: f32,
    /// Turbo iteration cap.
    pub decoder_iterations: usize,
    /// Use the frequency-selective fading channel + equalizer instead
    /// of flat AWGN.
    pub fading: bool,
    /// Redundancy version signaled in the DCI.
    pub rv: u8,
    /// Channel seed: PDCCH crosses the channel seeded `seed`, PDSCH the
    /// one seeded `seed ^ 0xD5D5`. Every subframe replays the same two
    /// realisations, so the AWGN is drawn once per pipeline, into a
    /// [`NoiseTape`] each, and replayed bit-exactly. A BLER curve must
    /// therefore draw a fresh seed per block, not loop subframes.
    pub seed: u64,
}

impl Default for DownlinkConfig {
    fn default() -> Self {
        Self {
            profile: Profile::Production,
            modulation: Modulation::Qam16,
            snr_db: 16.0,
            decoder_iterations: 6,
            fading: false,
            rv: 0,
            seed: 1,
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

/// XORed into [`DownlinkConfig::seed`] to seed the PDSCH's channel.
const PDSCH_SEED_XOR: u64 = 0xD5D5;

/// Per-pipeline working state.
#[derive(Debug, Clone)]
struct Hot {
    /// The eNB's PDSCH transmit chain (per-K encoders, rate matchers
    /// and word buffers live in it: the steady-state encode loop
    /// performs no heap allocation).
    tx: TxChain,
    /// The AWGN channel's PDCCH noise, drawn once and replayed.
    pdcch_noise: NoiseTape,
    /// The AWGN channel's PDSCH noise, drawn once and replayed.
    pdsch_noise: NoiseTape,
}

/// The downlink pipeline.
#[derive(Debug, Clone)]
pub struct DownlinkPipeline {
    cfg: DownlinkConfig,
    metrics: Option<Arc<PipelineMetrics>>,
    hot: RefCell<Hot>,
}

impl DownlinkPipeline {
    /// New pipeline.
    pub fn new(cfg: DownlinkConfig) -> Self {
        Self {
            cfg,
            metrics: None,
            hot: RefCell::new(Hot {
                tx: TxChain::default(),
                pdcch_noise: NoiseTape::new(cfg.snr_db, cfg.seed),
                pdsch_noise: NoiseTape::new(cfg.snr_db, cfg.seed ^ PDSCH_SEED_XOR),
            }),
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

    /// Transmit symbols over the configured channel and return
    /// equalized data symbols plus LLR weights. `noise` is the AWGN
    /// channel seeded `seed`; the fading model draws its own.
    fn channel_pass(&self, data: &[Cplx], seed: u64, noise: &mut NoiseTape) -> (Vec<Cplx>, f32) {
        let mut out = Vec::with_capacity(data.len());
        if self.cfg.fading {
            fading_pass(data, self.cfg.snr_db, seed, &mut out);
            (out, 1.0)
        } else {
            noise.apply_into(data, &mut out);
            (out, Capture::llr_scale_of(noise.channel()))
        }
    }

    /// Process one subframe carrying `packet` as its transport block.
    pub fn process(&self, packet: &Packet) -> DownlinkResult {
        let cfg = &self.cfg;
        let kern = cfg.profile.kernels();
        let mut clock = Clock {
            m: self.metrics.as_deref(),
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
        let hot = &mut *self.hot.borrow_mut();
        let tx = &mut hot.tx;
        tx.kern = kern;
        let frame_bits = unpack_msb(&packet.frame, packet.frame.len() * 8);
        let seg = tx
            .map(&frame_bits, &pdsch, &mut clock)
            .expect("any frame plus its CRC24A segments, at rv < 4");
        let padded = tx.bits.len();

        // ---- channel (control then data, separate passes) ----
        let (rx_pdcch, ctrl_scale) = self.channel_pass(&pdcch_syms, cfg.seed, &mut hot.pdcch_noise);
        let (rx_pdsch, data_scale) =
            self.channel_pass(&tx.symbols, cfg.seed ^ PDSCH_SEED_XOR, &mut hot.pdsch_noise);

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
        let (iters, crc) = (cfg.decoder_iterations, (seg.c > 1).then_some(&CRC24B));
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
            let input = TurboLlrs::from_dstreams(&d, k);
            let out = TurboDecoder::new(k, iters).decode_capped(&input, iters, crc);
            all_ok &= out.crc_ok != Some(false);
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
    fn packed_and_scalar_downlink_backends_agree() {
        // Same packet, same channel seed: the production profile's
        // packed encoder is bit-exact, so the channel sees identical
        // coded bits and the same noise, and every observable field
        // matches the reference profile's.
        for (size, rv) in [(256usize, 0u8), (700, 2)] {
            let outcomes: Vec<_> = [Profile::Reference, Profile::Production]
                .into_iter()
                .map(|profile| {
                    let cfg = DownlinkConfig {
                        snr_db: 25.0,
                        rv,
                        profile,
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
        let scratch = &pipe.hot.borrow().tx.scratch;
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
