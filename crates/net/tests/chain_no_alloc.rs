//! The chains own the packet's large buffers: a warm `TxChain::tx` or
//! `RxChain::rx` on a 1400 B frame makes a small, fixed number of heap
//! allocations — the ones `vran-phy` and `l2` make by signature —
//! and none of them is LLR-, sample- or coded-bit-sized.
//!
//! Its own test binary, because the counting allocator is global; the
//! ledger itself is per thread, so the harness's threads do not show.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vran_net::l2::{BearerTx, L2_OVERHEAD};
use vran_net::packet::{PacketBuilder, Transport};
use vran_net::pipeline::{PipelineConfig, UplinkPipeline};
use vran_net::rx::{Capture, RxChain};
use vran_net::tx::TxChain;
use vran_phy::bits::unpack_msb;
use vran_phy::channel::AwgnChannel;
use vran_phy::modulation::Modulation;

struct Counting;

thread_local! {
    /// `(allocations, largest allocation in bytes)` on this thread.
    static LEDGER: Cell<(u64, usize)> = const { Cell::new((0, 0)) };
}

// SAFETY: every call is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LEDGER.with(|c| {
            let (n, largest) = c.get();
            c.set((n + 1, largest.max(layout.size())));
        });
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LEDGER.with(|c| {
            let (n, largest) = c.get();
            c.set((n + 1, largest.max(new_size)));
        });
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations made by `work`, and the largest of them in bytes.
fn ledger_of<T>(work: impl FnOnce() -> T) -> (T, u64, usize) {
    let before = LEDGER.get().0;
    LEDGER.set((before, 0));
    let out = work();
    let (after, largest) = LEDGER.get();
    (out, after - before, largest)
}

#[test]
fn warm_chains_allocate_only_what_phy_and_l2_return_by_signature() {
    // rx_bulk's operating point: two code blocks of K = 5696
    let cfg = PipelineConfig {
        modulation: Modulation::Qam64,
        snr_db: 20.0,
        ..Default::default()
    };
    let grant = UplinkPipeline::new(cfg).grant();
    let mut builder = PacketBuilder::new(4000, 4001);
    let mut payload = || {
        let frame = builder.build(Transport::Udp, 1400).unwrap().frame;
        let pdu = BearerTx::default()
            .encapsulate(&frame, frame.len() + L2_OVERHEAD)
            .unwrap();
        (unpack_msb(&pdu, pdu.len() * 8), frame)
    };
    let mut tx = TxChain::default();
    let mut rx = RxChain::new(cfg.decoder_iterations);
    let mut air = Vec::new();
    let mut channel = AwgnChannel::new(cfg.snr_db, 3);

    for warm in [false, true] {
        let (bits, frame) = payload();
        let (seg, tx_allocs, tx_largest) = ledger_of(|| tx.tx(&bits, &grant, &mut ()).unwrap());
        channel.apply_into(&tx.samples, &mut air);
        let cap = Capture {
            samples: &air,
            n_symbols: tx.symbols.len(),
            tb_bits: seg.b,
            llr_scale: Capture::llr_scale_of(&channel),
        };
        let (got, rx_allocs, rx_largest) = ledger_of(|| rx.rx(&cap, &grant, &mut ()).unwrap());
        assert_eq!(got.sdu, frame);
        if !warm {
            assert!(
                tx_allocs > 8 && rx_allocs > 8,
                "the first packet builds the pools"
            );
            continue;
        }

        // The smallest buffer a chain must not allocate per packet:
        // the coded bits, one byte each (LLRs are two, samples eight).
        let coded_bits = tx.bits.len();
        assert_eq!(got.coded_bits, coded_bits);

        // tx, 4: the CRC24A bits (`Crc::compute_with`) and the rest
        // inside `Segmentation::try_segment` (the block list, then one
        // `Vec` per block, sized for filler, payload and CRC24B
        // together) — both return `Vec`s by signature; the largest is
        // one code block.
        assert_eq!(tx_allocs, 4, "warm TxChain::tx");
        assert!(
            tx_largest <= seg.k_plus,
            "{tx_largest} B against a {coded_bits} B coded block"
        );

        // rx, 3: the reassembled transport block
        // `Segmentation::try_desegment` returns, its packed bytes
        // (`pack_msb`) and the SDU (`BearerRx::decapsulate`).
        // (`Crc::check`, per SISO pass and per block, asks `best_crc()`
        // without a heap candidate list.)
        assert_eq!(rx_allocs, 3, "warm RxChain::rx");
        assert!(
            rx_largest <= seg.b,
            "{rx_largest} B against a {coded_bits} B coded block"
        );
        assert!(
            2 * seg.k_plus.max(seg.b) <= coded_bits,
            "the bounds above are at most half the coded bits"
        );
    }
}
