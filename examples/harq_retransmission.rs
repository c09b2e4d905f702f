//! HARQ incremental redundancy in action: a code block transmitted at
//! an aggressive rate over a bad channel, rescued by combining
//! retransmissions at successive redundancy versions.
//!
//! ```text
//! cargo run --release -p apcm --example harq_retransmission
//! ```

use apcm::harq::{HarqReceiver, HarqTransmitter, RV_SEQUENCE};
use vran_phy::bits::random_bits;
use vran_phy::crc::CRC24B;
use vran_phy::llr::Llr;
use vran_phy::turbo::TurboEncoder;

fn main() {
    let k = 512;
    let payload = random_bits(k - 24, 2024);
    let block = CRC24B.attach(&payload);
    let cw = TurboEncoder::new(k).encode(&block);

    let e = 560; // rate ≈ 0.91 per attempt — too thin on its own
    let flip_every = 7; // ~14 % of coded bits arrive inverted

    println!(
        "== HARQ: K={k}, {e} coded bits/attempt (rate ≈ {:.2}), heavy noise ==\n",
        k as f64 / e as f64
    );
    let mut tx = HarqTransmitter::new(&cw);
    let mut rx = HarqReceiver::new(k, 6);
    for attempt in 0.. {
        let Some((rv, coded)) = tx.next_transmission(e) else {
            println!("rv schedule exhausted without success");
            std::process::exit(1);
        };
        let llrs: Vec<Llr> = coded
            .iter()
            .enumerate()
            .map(|(i, &b)| {
                let v: Llr = if b == 0 { 22 } else { -22 };
                if (i + attempt * 3 + 1) % flip_every == 0 {
                    -v
                } else {
                    v
                }
            })
            .collect();
        let out = rx.receive(&llrs, rv).expect("in-schedule rv is valid");
        println!(
            "attempt {} (rv={rv}): crc {}  accumulated LLR energy {}",
            attempt + 1,
            if out.ok { "PASS" } else { "fail" },
            rx.accumulated_energy()
        );
        if out.ok {
            assert_eq!(out.bits, block);
            println!(
                "\nblock recovered after {} of {} scheduled transmissions ✓",
                out.attempts,
                RV_SEQUENCE.len()
            );
            return;
        }
    }
}
