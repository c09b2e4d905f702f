//! Below the AVX-512BW ceiling every lane of a pair or quad launch is a
//! single-block decode through the one `NativeTurboDecoder` the batch
//! decoder built along with itself. Across all 188 block sizes, with
//! and without CRC24B, under every ceiling the host can be capped to, a
//! warm launch touches no heap and hands each lane what the host's own
//! tier (the zmm kernel on an AVX-512BW host) hands it; `phy_properties`
//! holds that tier to the scalar oracle at every K, so every ceiling
//! meets the oracle too.
//!
//! Its own test binary (= its own process): the ISA ceiling is
//! process-global, and so is the counting allocator (its count is per
//! thread, so the harness's threads do not show).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vran_phy::bits::random_bits;
use vran_phy::crc::{Crc, CRC24B};
use vran_phy::interleaver::QPP_TABLE;
use vran_phy::llr::{adds16, bit_to_llr, TurboLlrs};
use vran_phy::turbo::native_batch::{LaneOutcome, NativeBatchTurboDecoder, BATCH, QUAD};
use vran_phy::turbo::{BatchScratch, BlockLlrs, TurboEncoder};
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

/// Four CRC24B-bearing blocks of size `k` at rising noise, so that the
/// lanes stop on different passes, or never.
fn blocks(k: usize) -> [TurboLlrs; QUAD] {
    core::array::from_fn(|g| {
        let seed = (QUAD * k + g) as u64;
        let cw = TurboEncoder::new(k).encode(&CRC24B.attach(&random_bits(k - 24, seed)));
        let mut rng = SmallRng::seed_from_u64(seed);
        let noise = 10 + 8 * g as u64;
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

/// One decoder's lane bit buffers: a quad's, and two pairs'.
#[derive(Default, Clone, PartialEq, Debug)]
struct LaneBits {
    quad: [Vec<u8>; QUAD],
    pairs: [[Vec<u8>; BATCH]; 2],
}

/// One quad launch and the two pair launches over the same blocks;
/// the quad's lane outcomes, then the pairs'.
fn launch(
    dec: &NativeBatchTurboDecoder,
    inputs: [BlockLlrs<'_>; QUAD],
    crc: Option<&Crc>,
    scratch: &mut BatchScratch,
    lanes: &mut LaneBits,
) -> [LaneOutcome; 2 * QUAD] {
    let mut out = [(0, None, 0); 2 * QUAD];
    out[..QUAD].copy_from_slice(&dec.decode_quad_lanes_into(inputs, crc, scratch, &mut lanes.quad));
    for (half, bits) in lanes.pairs.iter_mut().enumerate() {
        let pair = core::array::from_fn(|h| inputs[half * BATCH + h]);
        let got = dec.decode_pair_lanes_into(pair, crc, scratch, bits);
        out[QUAD + half * BATCH..][..BATCH].copy_from_slice(&got);
    }
    out
}

#[test]
fn warm_launches_below_avx512_allocate_nothing_and_match_the_host_lanes() {
    let ceilings = [
        HostIsa::Avx2,
        HostIsa::Ssse3,
        HostIsa::Sse2,
        HostIsa::Scalar,
    ];
    let mut host_scratch = BatchScratch::new();
    let mut scratch: Vec<BatchScratch> = ceilings.iter().map(|_| BatchScratch::new()).collect();
    let (mut want, mut lanes) = (
        LaneBits::default(),
        vec![LaneBits::default(); ceilings.len()],
    );
    for row in QPP_TABLE.iter() {
        let k = row.k as usize;
        let blocks = blocks(k);
        let inputs = blocks.each_ref().map(BlockLlrs::from_turbo);
        let host = NativeBatchTurboDecoder::new(k, CAP);
        let capped = ceilings.map(|ceiling| {
            with_isa_ceiling(Some(ceiling), || NativeBatchTurboDecoder::new(k, CAP))
        });
        for crc in [None, Some(&CRC24B)] {
            let outcome = launch(&host, inputs, crc, &mut host_scratch, &mut want);
            for (c, dec) in capped.iter().enumerate() {
                let ceiling = ceilings[c].name();
                // The first launch at a new K grows the buffers.
                launch(dec, inputs, crc, &mut scratch[c], &mut lanes[c]);
                let before = ALLOCATIONS.get();
                let got = launch(dec, inputs, crc, &mut scratch[c], &mut lanes[c]);
                let allocations = ALLOCATIONS.get() - before;
                assert_eq!(allocations, 0, "K={k} {crc:?} under {ceiling}");
                assert_eq!(got, outcome, "K={k} {crc:?} under {ceiling}");
                assert_eq!(lanes[c], want, "K={k} {crc:?} under {ceiling}");
            }
        }
    }
}
