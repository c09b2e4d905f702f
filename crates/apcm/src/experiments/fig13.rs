//! Figure 13 — processing time per packet under different packet
//! sizes, UDP and TCP, original mechanism vs APCM.
//!
//! Paper anchor: APCM reduces per-packet processing time by 12 %
//! (SSE128) to 20 % (AVX512) at every size and for both transports.

use crate::arrange::{ApcmVariant, Mechanism};
use crate::experiments::DECODER_ITERATIONS;
use crate::latency::LatencyModel;
use crate::report::{Figure, Row};
use vran_net::packet::Transport;
use vran_simd::RegWidth;
use vran_uarch::CoreConfig;

/// The sweep of wire-level packet sizes (bytes).
pub const SIZES: [usize; 5] = [64, 256, 512, 1024, 1500];

/// Run the experiment.
pub fn run() -> Figure {
    let mut f = Figure::new(
        "fig13",
        "Processing time per packet (µs), original vs APCM",
        &[
            "SSE128 orig",
            "SSE128 apcm",
            "AVX256 orig",
            "AVX256 apcm",
            "AVX512 orig",
            "AVX512 apcm",
            "reduction@512 %",
        ],
    );
    let mut m = LatencyModel::new(CoreConfig::beefy(), DECODER_ITERATIONS);
    let apcm = Mechanism::Apcm(ApcmVariant::Shuffle);
    for transport in [Transport::Udp, Transport::Tcp] {
        for size in SIZES {
            let mut vals = Vec::new();
            for w in RegWidth::ALL {
                vals.push(
                    m.packet_time(w, Mechanism::Baseline, transport, size)
                        .total_us(),
                );
                vals.push(m.packet_time(w, apcm, transport, size).total_us());
            }
            let red = (1.0 - vals[5] / vals[4]) * 100.0;
            vals.push(red);
            f.push(Row::new(format!("{}-{}B", transport.name(), size), vals));
        }
    }
    f.note("paper: APCM cuts processing time 12 % (SSE128) … 20 % (AVX512), UDP and TCP alike");
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apcm_always_wins() {
        let f = run();
        for r in &f.rows {
            for i in [0, 2, 4] {
                assert!(
                    r.values[i + 1] < r.values[i],
                    "{}: APCM must be faster (col {i}): {:?}",
                    r.label,
                    r.values
                );
            }
        }
    }

    #[test]
    fn reduction_band_matches_paper() {
        let f = run();
        for r in &f.rows {
            let red128 = 1.0 - r.values[1] / r.values[0];
            let red512 = 1.0 - r.values[5] / r.values[4];
            assert!(
                (0.04..0.40).contains(&red128),
                "{}: SSE128 reduction {red128:.3} implausible",
                r.label
            );
            assert!(
                red512 > red128,
                "{}: the win must grow with register width ({red128:.3} vs {red512:.3})",
                r.label
            );
        }
    }

    #[test]
    fn time_grows_with_size_and_tcp_exceeds_udp() {
        let f = run();
        let t = |label: &str| f.value(label, "SSE128 orig").unwrap();
        assert!(t("UDP-1500B") > t("UDP-64B"));
        assert!(t("TCP-512B") > t("UDP-512B"));
    }
}
