//! One `decode_blocks_into` call on any number of blocks, 1 to 8 (a
//! transport block's most), under the host's own tier and under every
//! ISA ceiling below AVX-512BW, where every lane is a single-block
//! decode through the one `NativeTurboDecoder` the batch decoder built
//! along with itself. Across all 188 block sizes, with and without
//! CRC24B, a warm call touches no heap and hands each lane what a lone
//! `NativeTurboDecoder` decode of its block gives: bits, iterations,
//! verdict and SISO passes. `phy_properties` holds that decoder to the
//! scalar oracle at every K, so every ceiling meets the oracle too.
//!
//! Its own test binary (= its own process): the ISA ceiling is
//! process-global, and so is the counting allocator (its count is per
//! thread, so the harness's threads do not show).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vran_phy::bits::random_bits;
use vran_phy::crc::CRC24B;
use vran_phy::interleaver::QPP_TABLE;
use vran_phy::llr::{adds16, bit_to_llr, TurboLlrs};
use vran_phy::turbo::native_batch::{LaneOutcome, NativeBatchTurboDecoder};
use vran_phy::turbo::{BatchScratch, BlockLlrs, DecodeScratch, NativeTurboDecoder, TurboEncoder};
use vran_simd::host::{with_isa_ceiling, HostIsa};
use vran_util::rng::SmallRng;

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
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

const CAP: usize = 4;

/// The most blocks one call decodes here: a transport block's most.
const MOST: usize = 8;

/// Eight CRC24B-bearing blocks of size `k` at rising noise, so that the
/// lanes stop on different passes, or never.
fn blocks(k: usize) -> [TurboLlrs; MOST] {
    core::array::from_fn(|g| {
        let seed = (MOST * k + g) as u64;
        let cw = TurboEncoder::new(k).encode(&CRC24B.attach(&random_bits(k - 24, seed)));
        let mut rng = SmallRng::seed_from_u64(seed);
        let noise = 10 + 4 * g as u64;
        let soft = cw.to_dstreams().map(|st| {
            st.iter()
                .map(|&b| {
                    let n = (rng.next_u64() % (2 * noise + 1)) as i16 - noise as i16;
                    adds16(bit_to_llr(b, 12), n)
                })
                .collect()
        });
        TurboLlrs::from_dstreams(&soft, k)
    })
}

/// One decoder under one ceiling, with the buffers it reuses.
struct Lane {
    ceiling: Option<HostIsa>,
    scratch: BatchScratch,
    bits: Vec<Vec<u8>>,
    lanes: Vec<LaneOutcome>,
}

#[test]
fn warm_launches_below_avx512_allocate_nothing_and_match_the_host_lanes() {
    let ceilings = [
        None,
        Some(HostIsa::Avx2),
        Some(HostIsa::Ssse3),
        Some(HostIsa::Sse2),
        Some(HostIsa::Scalar),
    ];
    let mut under: Vec<Lane> = ceilings
        .map(|ceiling| Lane {
            ceiling,
            scratch: BatchScratch::new(),
            bits: vec![Vec::new(); MOST],
            lanes: vec![(0, None, 0); MOST],
        })
        .into();
    let mut lone_scratch = DecodeScratch::new();
    for row in QPP_TABLE.iter() {
        let k = row.k as usize;
        let blocks = blocks(k);
        let inputs = blocks.each_ref().map(BlockLlrs::from_turbo);
        let lone = NativeTurboDecoder::new(k, CAP);
        for crc in [None, Some(&CRC24B)] {
            let want = blocks.each_ref().map(|b| {
                let out = lone.decode_scratch(b, crc, &mut lone_scratch);
                (out.bits, (out.iterations_run, out.crc_ok, out.siso_passes))
            });
            for u in &mut under {
                let dec = with_isa_ceiling(u.ceiling, || NativeBatchTurboDecoder::new(k, CAP));
                let ceiling = u.ceiling.map_or("the host", |c| c.name());
                // Seven blocks run a quad, a pair and a single, eight
                // fill every bit buffer: at a new K both grow.
                for n in [MOST - 1, MOST] {
                    let (bits, lanes) = (&mut u.bits[..n], &mut u.lanes[..n]);
                    dec.decode_blocks_into(&inputs[..n], CAP, crc, &mut u.scratch, bits, lanes);
                }
                for n in 1..=MOST {
                    let (bits, lanes) = (&mut u.bits[..n], &mut u.lanes[..n]);
                    let before = ALLOCATIONS.get();
                    dec.decode_blocks_into(&inputs[..n], CAP, crc, &mut u.scratch, bits, lanes);
                    let allocations = ALLOCATIONS.get() - before;
                    let ctx = format!("K={k} {crc:?} n={n} under {ceiling}");
                    assert_eq!(allocations, 0, "{ctx}");
                    let got = u.bits.iter().zip(&u.lanes);
                    for (g, ((bits, lane), want)) in got.zip(&want[..n]).enumerate() {
                        assert_eq!((bits, lane), (&want.0, &want.1), "{ctx} lane {g}");
                    }
                }
            }
        }
    }
}
