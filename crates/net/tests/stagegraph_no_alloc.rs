//! A warm stage graph admits, decodes and retires without the heap:
//! every ROB slot keeps its bit buffers across occupancies, and a
//! completed packet's stream buffers, task list and frame buffer go
//! back to the pipeline that prepared it. What remains per packet is
//! what `vran-phy` and `l2` return by signature in the serial tail —
//! the reassembled transport block, its packed bytes and the SDU — as
//! on the serial path (`chain_no_alloc.rs`).
//!
//! Its own test binary, because the counting allocator is global; the
//! ledger itself is per thread, so the harness's threads do not show.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use vran_net::l2::{BearerTx, L2_OVERHEAD};
use vran_net::packet::{PacketBuilder, Transport};
use vran_net::pipeline::{PipelineConfig, UplinkPipeline};
use vran_net::rx::Capture;
use vran_net::tx::TxChain;
use vran_net::{StageGraph, StageGraphConfig};
use vran_phy::bits::unpack_msb;
use vran_phy::channel::AwgnChannel;
use vran_phy::modulation::Cplx;

struct Counting;

thread_local! {
    /// `(allocations, deallocations)` on this thread.
    static LEDGER: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

// SAFETY: every call is forwarded to `System` unchanged.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LEDGER.with(|c| c.set((c.get().0 + 1, c.get().1)));
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LEDGER.with(|c| c.set((c.get().0, c.get().1 + 1)));
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LEDGER.with(|c| c.set((c.get().0 + 1, c.get().1 + 1)));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations and deallocations made by `work`.
fn ledger_of(work: impl FnOnce()) -> (u64, u64) {
    let before = LEDGER.get();
    work();
    let after = LEDGER.get();
    (after.0 - before.0, after.1 - before.1)
}

/// Heap calls per delivered packet in the serial tail:
/// `Segmentation::try_desegment`, `pack_msb`, `BearerRx::decapsulate`.
const TAIL_ALLOCS: u64 = 3;

fn cfg() -> PipelineConfig {
    PipelineConfig {
        snr_db: 30.0,
        ..Default::default()
    }
}

/// One frame as the loopback would put it on the air.
struct Air {
    frame: Vec<u8>,
    samples: Vec<Cplx>,
    n_symbols: usize,
    tb_bits: usize,
    llr_scale: f32,
}

impl Air {
    fn capture(&self) -> Capture<'_> {
        Capture {
            samples: &self.samples,
            n_symbols: self.n_symbols,
            tb_bits: self.tb_bits,
            llr_scale: self.llr_scale,
        }
    }
}

/// The benchmark's twelve classes, {UDP, TCP} × six sizes, one frame
/// each, on the air; the class index is the UE.
fn class_cycle() -> Vec<Air> {
    let cfg = cfg();
    let grant = UplinkPipeline::new(cfg).grant();
    let mut b = PacketBuilder::new(1000, 2000);
    [Transport::Udp, Transport::Tcp]
        .into_iter()
        .flat_map(|t| [64usize, 128, 256, 512, 1024, 1400].map(|sz| (t, sz)))
        .map(|(t, sz)| {
            let frame = b.build(t, sz).unwrap().frame;
            let pdu = BearerTx::default()
                .encapsulate(&frame, frame.len() + L2_OVERHEAD)
                .unwrap();
            let mut tx = TxChain::default();
            let seg = tx
                .tx(&unpack_msb(&pdu, pdu.len() * 8), &grant, &mut ())
                .unwrap();
            let mut channel = AwgnChannel::new(cfg.snr_db, cfg.seed);
            Air {
                samples: channel.apply(&tx.samples),
                n_symbols: tx.symbols.len(),
                tb_bits: seg.b,
                llr_scale: Capture::llr_scale_of(&channel),
                frame,
            }
        })
        .collect()
}

/// Admit `cycles` class cycles through `admit`, drain, and return how
/// many packets were delivered, all intact.
fn run(
    graph: &mut StageGraph,
    air: &[Air],
    cycles: usize,
    admit: &mut impl FnMut(&mut StageGraph, u64, &Air),
) -> u64 {
    for _ in 0..cycles {
        for (ue, a) in air.iter().enumerate() {
            admit(graph, ue as u64, a);
        }
    }
    graph.drain();
    let mut delivered = 0;
    while let Some((_, r)) = graph.pop_completed() {
        assert!(r.is_ok(), "{r:?}");
        delivered += 1;
    }
    delivered
}

/// Rounds of [`run`] before a graph is warm: the pooled stream buffers
/// pass between block sizes in an order the traffic sets, and each
/// grows when it first meets a K larger than any it has held; by this
/// many rounds every one has met the largest.
const WARM_ROUNDS: usize = 8;

fn warm_up(
    graph: &mut StageGraph,
    air: &[Air],
    admit: &mut impl FnMut(&mut StageGraph, u64, &Air),
) {
    for _ in 0..WARM_ROUNDS {
        assert_eq!(run(graph, air, 4, admit), (4 * air.len()) as u64);
    }
}

#[test]
fn a_warm_graph_admits_a_class_cycle_without_allocating() {
    let air = class_cycle();
    let mut graph = StageGraph::with_config(cfg(), StageGraphConfig::default());
    let mut admit =
        |g: &mut StageGraph, ue: u64, a: &Air| g.admit_capture(ue, &a.capture(), &a.frame);
    let cycles = 4;
    warm_up(&mut graph, &air, &mut admit);

    let mut delivered = 0;
    let (allocs, frees) = ledger_of(|| delivered = run(&mut graph, &air, cycles, &mut admit));
    assert_eq!(delivered, (cycles * air.len()) as u64);
    assert_eq!(allocs, TAIL_ALLOCS * delivered, "warm admissions allocated");
    assert_eq!(frees, TAIL_ALLOCS * delivered, "warm admissions freed");
}

#[test]
fn split_halves_hand_every_buffer_back_to_the_preparing_half() {
    // The runner's arrangement on one thread: one half prepares, the
    // graph on the other half decodes, and what the graph is done with
    // returns to the preparing half. Warm, neither half allocates
    // beyond the serial tail, and nothing is dropped.
    let air = class_cycle();
    let (front, back) = UplinkPipeline::new(cfg()).split();
    let mut graph = StageGraph::new(back, StageGraphConfig::default());
    let mut admit = |g: &mut StageGraph, ue: u64, a: &Air| {
        while let Some(spent) = g.pop_spent() {
            front.recycle(spent);
        }
        g.admit_prepared(ue, front.prepare_capture(&a.capture(), &a.frame));
    };
    let cycles = 4;
    warm_up(&mut graph, &air, &mut admit);

    let mut delivered = 0;
    let (allocs, frees) = ledger_of(|| delivered = run(&mut graph, &air, cycles, &mut admit));
    assert_eq!(delivered, (cycles * air.len()) as u64);
    assert_eq!(allocs, TAIL_ALLOCS * delivered, "warm halves allocated");
    assert_eq!(frees, TAIL_ALLOCS * delivered, "warm halves freed");
}
