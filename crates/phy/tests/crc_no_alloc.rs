//! `Crc::check_with` sits on the decoder's hot path (once per SISO pass
//! per CRC-bearing block, once per transport block), outside anything
//! `DecodeScratch::allocations()` can see: it must not touch the heap.
//!
//! Its own test binary, because the counting allocator is global; the
//! count itself is per thread, so the harness's threads do not show.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vran_phy::bits::random_bits;
use vran_phy::crc::{CrcImpl, CRC16, CRC24A, CRC24B, CRC8};

struct Counting;

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

// SAFETY: every call is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

#[test]
fn a_thousand_checks_allocate_nothing_and_agree_with_the_bit_serial_crc() {
    // both sides of the 8192-bit stack buffer the packed kernels work
    // through, ragged and not; 5696 and 11 424 are `rx_bulk`'s code
    // block and transport block
    let lens = [0usize, 40, 5696, 8191, 8192, 8193, 8448, 11_424, 20_011];
    let mut checks = 0;
    for crc in [CRC24A, CRC24B, CRC16, CRC8] {
        for len in lens {
            let good = crc.attach_with(CrcImpl::BitSerial, &random_bits(len, 7 + len as u64));
            let mut bad = good.clone();
            bad[len / 2] ^= 1;
            let before = ALLOCATIONS.get();
            for imp in CrcImpl::all() {
                for _ in 0..10 {
                    assert_eq!(
                        crc.check_with(imp, &good),
                        Some(&good[..len]),
                        "{crc:?} {len}"
                    );
                    assert_eq!(crc.check_with(imp, &bad), None, "{crc:?} {len}");
                    assert_eq!(crc.check_with(imp, &good[..crc.width() - 1]), None);
                    checks += 3;
                }
            }
            assert_eq!(ALLOCATIONS.get(), before, "{crc:?} {len}");
        }
    }
    assert!(checks >= 1000);
}
