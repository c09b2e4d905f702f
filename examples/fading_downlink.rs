//! Downlink subframe over a frequency-selective Rayleigh channel:
//! PDCCH grant (conv code + §5.1.4.2 rate matching) decoded first, then
//! the turbo-coded PDSCH with pilot-based channel estimation and ZF
//! equalization — the closest this testbed-in-software gets to the
//! paper's over-the-air path.
//!
//! ```text
//! cargo run --release -p apcm --example fading_downlink
//! ```

use vran_net::downlink::{DownlinkConfig, DownlinkPipeline};
use vran_net::packet::{PacketBuilder, Transport};
use vran_phy::modulation::Modulation;

fn main() {
    let mut b = PacketBuilder::new(443, 50000);
    println!("== downlink over block-fading Rayleigh + ZF equalization ==\n");
    println!(
        "{:>8}  {:>7}  {:>5}  {:>8}  {:>8}",
        "SNR dB", "mod", "rv", "DCI", "data"
    );
    for (snr, modulation) in [
        (8.0, Modulation::Qpsk),
        (14.0, Modulation::Qpsk),
        (20.0, Modulation::Qam16),
        (28.0, Modulation::Qam64),
    ] {
        let cfg = DownlinkConfig {
            modulation,
            snr_db: snr,
            fading: true,
            decoder_iterations: 8,
            rv: 0,
            ..Default::default()
        };
        let p = b.build(Transport::Udp, 300).unwrap();
        let r = DownlinkPipeline::new(cfg).process(&p);
        println!(
            "{:>8.1}  {:>7}  {:>5}  {:>8}  {:>8}",
            snr,
            modulation.name(),
            cfg.rv,
            if r.dci_ok { "ok" } else { "lost" },
            if r.data_ok { "ok" } else { "lost" },
        );
    }
    println!("\nlow-SNR rows may lose the subframe — that is the channel, not a bug;");
    println!("HARQ (see the harq_retransmission example) is the recovery path.");
}
