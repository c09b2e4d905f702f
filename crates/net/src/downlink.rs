//! Downlink pipeline: PDCCH (DCI over the tail-biting convolutional
//! code) followed by PDSCH (the turbo-coded data channel), optionally
//! over a frequency-selective fading channel with pilot-based
//! equalization.
//!
//! The eNB's PDSCH is the same [`TxChain`] the uplink loopback
//! transmits with, under the downlink's own [`Grant`]; the UE's PDSCH
//! is the same [`RxChain`] the uplink receives with, entered on the
//! equalized symbols and ending at CRC24A (the transport block carries
//! the bare frame). The UE side is honest about its information: it
//! decodes the DCI first and takes the data channel's modulation and
//! redundancy version *from the decoded grant*, so a corrupted PDCCH
//! fails the whole subframe exactly as it would on air. The [`Profile`]
//! picks both ends' kernels.

use crate::metrics::PipelineMetrics;
use crate::packet::Packet;
use crate::pipeline::{fading_pass, Clock};
use crate::rx::{Capture, RxChain};
use crate::tx::{Grant, Profile, TxChain};
use std::cell::RefCell;
use std::sync::Arc;
use vran_phy::bits::unpack_msb;
use vran_phy::channel::NoiseTape;
use vran_phy::dci::{conv_encode_streams, llrs_from_streams, viterbi_decode_tb, Dci};
use vran_phy::modulation::{Cplx, Modulation};
use vran_phy::rate_match::conv::ConvRateMatcher;

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
    /// The eNB's PDSCH transmit chain (its scratch and word buffers
    /// live in it: the steady-state encode loop performs no heap
    /// allocation).
    tx: TxChain,
    /// The UE's PDSCH receive chain (buffers and decode scratch).
    rx: RxChain,
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
                rx: RxChain::new(cfg.profile, cfg.decoder_iterations),
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

    /// Transmit symbols over the configured channel into `out`, as
    /// equalized data symbols, and return their LLR weight. `noise` is
    /// the AWGN channel seeded `seed`; the fading model draws its own.
    fn channel_pass(
        &self,
        data: &[Cplx],
        seed: u64,
        noise: &mut NoiseTape,
        out: &mut Vec<Cplx>,
    ) -> f32 {
        if self.cfg.fading {
            fading_pass(data, self.cfg.snr_db, seed, out);
            1.0
        } else {
            noise.apply_into(data, out);
            Capture::llr_scale_of(noise.channel())
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
        let (tx, rx) = (&mut hot.tx, &mut hot.rx);
        (tx.kern, rx.kern) = (kern, kern);
        let frame_bits = unpack_msb(&packet.frame, packet.frame.len() * 8);
        let seg = tx
            .map(&frame_bits, &pdsch, &mut clock)
            .expect("any frame plus its CRC24A segments, at rv < 4");

        // ---- channel (control then data, separate passes; the data
        // lands in the UE's receive chain) ----
        let mut rx_pdcch = Vec::new();
        let ctrl_scale =
            self.channel_pass(&pdcch_syms, cfg.seed, &mut hot.pdcch_noise, &mut rx_pdcch);
        let data_scale = self.channel_pass(
            &tx.symbols,
            cfg.seed ^ PDSCH_SEED_XOR,
            &mut hot.pdsch_noise,
            &mut rx.symbols,
        );

        // ---- UE: decode the grant first (de-rate-match, then the
        // tail-biting Viterbi; the 144→66 repetition combines) ----
        let mut llrs = Vec::new();
        kern.demap_into(Modulation::Qpsk, &rx_pdcch, ctrl_scale, &mut llrs);
        let dci_d = crm.de_rate_match(&llrs[..PDCCH_E]);
        let rx_bits = viterbi_decode_tb(&llrs_from_streams(&dci_d), Dci::BITS);
        let rx_grant = Dci::from_bits(&rx_bits);
        let dci_ok = rx_grant == grant;

        // ---- UE: PDSCH with parameters FROM THE GRANT ----
        let data_ok = dci_ok && {
            let ue_grant = Grant {
                modulation: mcs_to_modulation(rx_grant.mcs),
                rv: rx_grant.rv,
                ..pdsch
            };
            if let Some(m) = clock.m {
                kern.count_rx_tiers(m);
            }
            rx.front_equalized(seg.b, data_scale, &ue_grant, &mut clock)
                .and_then(|staged| rx.back_bare(staged, &mut clock))
                .is_ok_and(|payload| payload == packet.frame)
        };

        DownlinkResult {
            dci_ok,
            data_ok,
            code_blocks: seg.c,
            coded_bits: tx.bits.len(),
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
        // matches the reference profile's. 6200 B is nine code blocks
        // (four K = 5504, five K = 5568); 6880 B is nine K = 6144, one
        // run the native decoder takes in two calls (8 + 1).
        for (size, rv, fading) in [
            (256usize, 0u8, false),
            (700, 2, false),
            (6200, 1, false),
            (6880, 0, false),
            (1400, 3, true),
        ] {
            let outcomes: Vec<_> = [Profile::Reference, Profile::Production]
                .into_iter()
                .map(|profile| {
                    let cfg = DownlinkConfig {
                        snr_db: 25.0,
                        rv,
                        fading,
                        profile,
                        ..Default::default()
                    };
                    let r = DownlinkPipeline::new(cfg).process(&packet(size));
                    (r.dci_ok, r.data_ok, r.code_blocks, r.coded_bits)
                })
                .collect();
            let case = format!("size={size} rv={rv} fading={fading}");
            assert_eq!(outcomes[0], outcomes[1], "{case}");
            assert!(outcomes[0].1, "{case}: {outcomes:?}");
        }
    }

    #[test]
    fn downlink_hot_loop_reuses_encode_scratch() {
        let cfg = DownlinkConfig {
            snr_db: 25.0,
            profile: Profile::Production,
            ..Default::default()
        };
        let pipe = DownlinkPipeline::new(cfg);
        let p = packet(256);
        for _ in 0..4 {
            assert!(pipe.process(&p).data_ok);
        }
        {
            let scratch = &pipe.hot.borrow().tx.scratch;
            assert!(scratch.allocations() > 0);
            assert!(
                scratch.reuses() >= 3,
                "steady-state encodes must reuse scratch: allocs={} reuses={}",
                scratch.allocations(),
                scratch.reuses()
            );
        }

        // The receive side: the native decoder's scratch too.
        let ledger = || pipe.hot.borrow().rx.decode_ledger();
        let [warm_allocs, warm_reuses, _] = ledger();
        assert!(warm_allocs > 0);
        for _ in 0..3 {
            assert!(pipe.process(&p).data_ok);
        }
        let [allocs, reuses, _] = ledger();
        assert_eq!(
            allocs, warm_allocs,
            "steady-state decodes must not allocate scratch"
        );
        assert!(
            reuses >= warm_reuses + 3,
            "steady-state decodes must reuse scratch: reuses {warm_reuses} → {reuses}"
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
