//! Adaptive modulation and coding: the MCS table, the operating points
//! a [`crate::pipeline::PipelineConfig`] is set to. A compact CQI→MCS
//! mapping with SNR switching thresholds derived from this codebase's
//! own waterfall measurements (the `ber` experiment): each entry's
//! threshold leaves ≥1 dB margin over the SNR where that configuration
//! decodes cleanly. The eNB scheduler picks a row from the UE's
//! channel-quality report (`apcm::amc`), keeping the paper's "300 Mbps
//! station" (Figure 16) at the highest rate the channel supports.

use vran_phy::modulation::Modulation;

/// One link-adaptation operating point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McsEntry {
    /// Modulation order.
    pub modulation: Modulation,
    /// Code rate ×1024 (as in `PipelineConfig::rate_x1024`:
    /// coded bits per information bit ×1024 ⇒ 2048 = rate 1/2).
    pub rate_x1024: u32,
    /// Minimum Es/N0 (dB) at which this point operates with margin.
    pub min_snr_db: f32,
}

impl McsEntry {
    /// Information bits per modulation symbol at this operating point.
    pub fn bits_per_symbol(&self) -> f64 {
        self.modulation.bits_per_symbol() as f64 * 1024.0 / self.rate_x1024 as f64
    }
}

/// The MCS table, lowest rate first.
pub const MCS_TABLE: [McsEntry; 6] = [
    McsEntry {
        modulation: Modulation::Qpsk,
        rate_x1024: 3072,
        min_snr_db: -1.0,
    }, // r=1/3
    McsEntry {
        modulation: Modulation::Qpsk,
        rate_x1024: 2048,
        min_snr_db: 2.5,
    }, // r=1/2
    McsEntry {
        modulation: Modulation::Qam16,
        rate_x1024: 3072,
        min_snr_db: 6.0,
    }, // r=1/3
    McsEntry {
        modulation: Modulation::Qam16,
        rate_x1024: 2048,
        min_snr_db: 9.5,
    }, // r=1/2
    McsEntry {
        modulation: Modulation::Qam64,
        rate_x1024: 2560,
        min_snr_db: 13.5,
    }, // r=2/5
    McsEntry {
        modulation: Modulation::Qam64,
        rate_x1024: 2048,
        min_snr_db: 17.0,
    }, // r=1/2
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{PacketBuilder, Transport};
    use crate::pipeline::{PipelineConfig, UplinkPipeline};

    #[test]
    fn table_is_monotone_in_both_axes() {
        for w in MCS_TABLE.windows(2) {
            assert!(w[1].min_snr_db > w[0].min_snr_db, "thresholds must rise");
            assert!(
                w[1].bits_per_symbol() > w[0].bits_per_symbol(),
                "throughput must rise with SNR"
            );
        }
    }

    #[test]
    fn every_operating_point_decodes_at_its_threshold() {
        // The table's promise, verified end-to-end: each entry decodes
        // a real packet at exactly its threshold SNR.
        let mut b = PacketBuilder::new(1, 2);
        for e in MCS_TABLE {
            let cfg = PipelineConfig {
                modulation: e.modulation,
                rate_x1024: e.rate_x1024,
                snr_db: e.min_snr_db,
                decoder_iterations: 8,
                ..Default::default()
            };
            let p = b.build(Transport::Udp, 256).unwrap();
            let r = UplinkPipeline::new(cfg).process(&p);
            assert!(
                r.is_ok(),
                "{} r={}/1024 must decode at {} dB: {r:?}",
                e.modulation.name(),
                e.rate_x1024,
                e.min_snr_db
            );
        }
    }
}
