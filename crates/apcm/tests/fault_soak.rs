//! HARQ drop soak: `vran-net`'s fault injector drops `apcm::harq` retransmissions.

use apcm::harq::{HarqReceiver, HarqTransmitter};
use vran_net::faultinject::{FaultInjector, FaultKind, FaultMix};

#[test]
fn harq_drop_soak_degrades_gracefully() {
    // Retransmissions are randomly dropped on the "air interface";
    // the receiver must never panic, never see an invalid rv, and
    // every trial must end in a clean verdict within the rv schedule.
    let mut inj = FaultInjector::with_mix(
        77,
        FaultMix::only(FaultKind::DropHarqRetransmission).with_weight(FaultKind::Clean, 2),
    );
    let k = 208;
    let e = 230; // aggressive rate: first attempts often need help
    let mut decoded = 0usize;
    let mut dropped = 0usize;
    for trial in 0..40u64 {
        let payload = vran_phy::bits::random_bits(k - 24, trial + 1);
        let block = vran_phy::crc::CRC24B.attach(&payload);
        let cw = vran_phy::turbo::TurboEncoder::new(k).encode(&block);
        let mut tx = HarqTransmitter::new(&cw);
        let mut rx = HarqReceiver::new(k, 6);
        while let Some((rv, coded)) = tx.next_transmission(e) {
            let kind = inj.next_kind();
            if inj.drop_harq_retransmission(kind) {
                dropped += 1;
                continue; // lost on the air: receiver never sees it
            }
            // 1-in-6 sign flips — needs combining to close.
            let llrs: Vec<vran_phy::llr::Llr> = coded
                .iter()
                .enumerate()
                .map(|(i, &b)| {
                    let v: vran_phy::llr::Llr = if b == 0 { 24 } else { -24 };
                    if (i + trial as usize).is_multiple_of(6) {
                        -v
                    } else {
                        v
                    }
                })
                .collect();
            let out = rx.receive(&llrs, rv).expect("scheduled rv is valid");
            assert!(out.attempts <= 4);
            if out.ok {
                assert_eq!(out.bits, block);
                decoded += 1;
                break;
            }
        }
    }
    assert!(dropped > 0, "the drop fault must have fired");
    assert!(
        decoded > 0,
        "combining must still rescue some blocks despite drops"
    );
}
