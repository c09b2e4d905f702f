//! The receive chain — the receiver under test: one [`Capture`] in,
//! one frame out.
//!
//! ```text
//! front:  samples → OFDM demodulate → soft demap → descramble
//!           → per block (de-rate-match → DATA ARRANGEMENT into a
//!             pooled stream buffer)                  → staged TurboLlrs
//! back:   turbo decode, one call per run of equal-K blocks (CRC24B
//!           stop) → desegment → CRC24A → L2 de-encapsulate → Delivered
//! ```
//!
//! [`RxChain::rx`] is `front` + `back`; the stage-graph runtime takes
//! `front`'s staged blocks, decodes them in cross-packet batches on the
//! same chain's decoders and scratch, and finishes with
//! [`RxChain::deliver`], `back`'s own tail. The chain owns every buffer
//! a packet needs twice, so a warm call allocates only what `vran-phy`
//! and `l2` return by signature.
//!
//! A [`Capture`] is input from outside the program: sample count,
//! symbol count and transport-block size are checked against each
//! other and against the [`Grant`] before anything is sized or indexed
//! from them, and every disagreement is a typed [`PipelineError`].
//!
//! Which kernels run is the owning pipeline's business (a chain built
//! outside the crate runs the production composition, at the tiers the
//! host offers when it is built); where the owner
//! intervenes in a packet (fault injection, the deadline) and where
//! time goes is one [`RxHooks`] argument — the chain never reads a
//! clock.

use crate::error::{DecodeFailure, FrameFault, PipelineError, SegFault};
use crate::l2::BearerRx;
use crate::metrics::{Op, Spans};
use crate::tx::{slot, Grant, Kernels, OFDM};
use vran_arrange::fused_ingest_into;
use vran_phy::bits::pack_msb;
use vran_phy::channel::AwgnChannel;
use vran_phy::crc::{Crc, CRC24A, CRC24B};
use vran_phy::llr::{Llr, SoftStreams, TailLlrs, TurboLlrs};
use vran_phy::modulation::Cplx;
use vran_phy::rate_match::RateMatcher;
use vran_phy::segmentation::{Segmentation, Z_MAX};
use vran_phy::turbo::native_batch::LaneOutcome;
use vran_phy::turbo::{BatchScratch, BlockLlrs, NativeBatchTurboDecoder, TurboDecoder};

/// Maximum code blocks per transport block the receive path accepts;
/// plans beyond this classify as
/// [`PipelineError::SegmentationOverflow`]. LTE category-4 uplink TBs
/// stay well under this at our 5 MHz configuration.
pub const MAX_CODE_BLOCKS: usize = 8;

/// Free-list cap, in packets' worth of buffers. A staged packet holds
/// its stream buffers until its blocks decode, and the threaded runner
/// keeps a ring and a reorder buffer of staged packets in flight, all
/// of whose buffers come home to this chain; beyond the cap they are
/// dropped rather than hoarded.
const LLR_POOL_CAP: usize = 512;

/// Which turbo decoder the receive chain runs. Both compute
/// bit-identical results (the native kernels run the scalar
/// reference's saturating i16 operations in the same order, enforced
/// by `vran-phy`'s property tests); they differ only in wall-clock
/// cost.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum DecoderBackend {
    /// The scalar max-log-MAP reference.
    Scalar,
    /// The runtime-dispatched [`NativeBatchTurboDecoder`], one call
    /// per run of equal-K blocks, with per-chain scratch reuse
    /// (allocation-free after warm-up).
    Native,
}

/// One received subframe as the fronthaul and the grant hand it over.
#[derive(Debug, Clone, Copy)]
pub struct Capture<'a> {
    /// Time-domain samples (borrowed: the loopback hands over its own
    /// channel output, no copy).
    pub samples: &'a [Cplx],
    /// Constellation symbols carried.
    pub n_symbols: usize,
    /// Transport-block size in bits (incl. CRC24A).
    pub tb_bits: usize,
    /// The demapper's noise scale.
    pub llr_scale: f32,
}

impl Capture<'_> {
    /// The demapper noise scale of a capture that crossed `channel`.
    pub fn llr_scale_of(channel: &AwgnChannel) -> f32 {
        (channel.llr_scale() / 8.0).clamp(0.25, 16.0)
    }
}

/// What the receiver hands up for one capture that passed every check.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Delivered {
    /// The de-encapsulated frame.
    pub sdu: Vec<u8>,
    /// Code blocks the transport block split into.
    pub code_blocks: usize,
    /// Rate-matched bits consumed.
    pub coded_bits: usize,
    /// Decoder iterations run, summed over code blocks.
    pub iterations: usize,
}

/// A capture whose front end ran: one arranged decode task per code
/// block, ready for the serial decoder or a cross-packet batch.
#[derive(Debug)]
pub struct Staged {
    /// The segmentation plan (`seg.b` is the transport-block size).
    pub seg: Segmentation,
    /// Rate-matched bits consumed.
    pub coded_bits: usize,
    /// One task per code block, in block order.
    pub tasks: Vec<TurboLlrs>,
}

/// Where a chain's owner intervenes in a packet's receive path, on top
/// of being its span sink. Every hook defaults to "nowhere"; `()` is
/// that owner.
pub trait RxHooks: Spans {
    /// The descrambled LLRs, before de-rate-matching (fault injection
    /// models a corrupted fronthaul buffer here).
    fn soft_bits(&mut self, _llrs: &mut [Llr]) {}

    /// The iteration cap of the packet's decode, given the configured
    /// `cap` — or the error that ends the packet (the deadline gate).
    /// Asked once per packet, before its first block decodes, on every
    /// path: the serial decode and staging for the stage graph alike.
    fn iter_cap(&mut self, cap: usize) -> Result<usize, PipelineError> {
        Ok(cap)
    }

    /// How many of the `decoded` blocks desegmentation is handed
    /// (fault injection lies about the count here).
    fn presented(&mut self, decoded: usize) -> usize {
        decoded
    }
}

impl RxHooks for () {}

/// The receive chain and the buffers it reuses across packets.
#[derive(Debug, Clone, Default)]
pub struct RxChain {
    /// The kernels the next call runs.
    pub(crate) kern: Kernels,
    /// Turbo decoder iteration cap (and the cached decoders' maximum).
    decoder_iterations: usize,
    /// Native batch decoders, keyed by block size K: every native
    /// decode in the crate runs on these ([`Self::decode_run`]).
    natives: Vec<(usize, NativeBatchTurboDecoder)>,
    /// Scalar decoders, keyed by block size K.
    scalars: Vec<(usize, TurboDecoder)>,
    /// Rate matchers, keyed by per-stream length `d = K + 4`.
    rms: Vec<(usize, RateMatcher)>,
    /// Demodulated subcarrier symbols. A channel model that enters
    /// below OFDM (frequency-domain fading + equalization) fills this
    /// itself and calls [`Self::front_equalized`].
    pub(crate) symbols: Vec<Cplx>,
    /// The packet's soft bits, descrambled in place.
    llrs: Vec<Llr>,
    /// De-rate-matcher output: triple-interleaved clusters, the fused
    /// ingest's input.
    inter: Vec<Llr>,
    /// Free list of per-block stream buffers: the arrangement pops one
    /// (retaining its capacity), whoever decoded the block pushes it
    /// back ([`Self::recycle`]) — no steady-state allocation.
    pool: Vec<SoftStreams>,
    /// Free list of task lists: the serial path's between packets, and
    /// every staged packet's once it comes home ([`Self::reclaim`]).
    lists: Vec<Vec<TurboLlrs>>,
    /// The native decoders' one grow-only scratch.
    scratch: BatchScratch,
    /// SISO passes the decoded blocks ran, each block's own count,
    /// whichever decoder ran it.
    siso_passes: u64,
    /// Decoded-bit buffers, one per code-block index.
    bits: Vec<Vec<u8>>,
}

impl RxChain {
    /// New chain decoding with at most `decoder_iterations` turbo
    /// iterations; per-K decoders and rate matchers build on first use.
    pub fn new(decoder_iterations: usize) -> Self {
        Self {
            decoder_iterations,
            ..Self::default()
        }
    }

    /// Decoder-scratch allocations, reuses and SISO passes so far
    /// (cumulative; the owner records differences).
    pub fn decode_ledger(&self) -> [u64; 3] {
        [
            self.scratch.allocations(),
            self.scratch.reuses(),
            self.siso_passes,
        ]
    }

    /// Whether a native launch of two or more blocks fills zmm lanes.
    pub(crate) fn batches_in_zmm() -> bool {
        NativeBatchTurboDecoder::is_zmm_accelerated()
    }

    /// Return a staged task's stream buffers to the free list so the
    /// next arrangement reuses their capacity instead of allocating.
    pub fn recycle(&mut self, streams: SoftStreams) {
        if self.pool.len() < LLR_POOL_CAP * MAX_CODE_BLOCKS {
            self.pool.push(streams);
        }
    }

    /// Receive one capture: [`Self::front`], the serial decoder with
    /// the CRC24B stop, then desegment → CRC24A → L2.
    pub fn rx(
        &mut self,
        cap: &Capture<'_>,
        grant: &Grant,
        hooks: &mut impl RxHooks,
    ) -> Result<Delivered, PipelineError> {
        let staged = self.front(cap, grant, hooks)?;
        self.back(staged, hooks)
    }

    /// The front end: OFDM demodulate, demap, descramble, then per
    /// code block de-rate-match and arrange into a pooled stream
    /// buffer.
    pub fn front(
        &mut self,
        cap: &Capture<'_>,
        grant: &Grant,
        hooks: &mut impl RxHooks,
    ) -> Result<Staged, PipelineError> {
        let (seg, coded_bits) = plan(cap.tb_bits, cap.n_symbols, grant)?;
        let held = self.symbols.capacity();
        hooks.lap(Op::OfdmDemod, || {
            OFDM.try_demodulate_stream_into(cap.samples, cap.n_symbols, &mut self.symbols)
        })?;
        hooks.staged(held, self.symbols.capacity());
        self.stage(seg, coded_bits, cap.llr_scale, grant, hooks)
    }

    /// [`Self::front`] one step below OFDM: [`Self::symbols`] already
    /// holds the subcarrier symbols, equalized to noise scale
    /// `llr_scale`.
    pub(crate) fn front_equalized(
        &mut self,
        tb_bits: usize,
        llr_scale: f32,
        grant: &Grant,
        hooks: &mut impl RxHooks,
    ) -> Result<Staged, PipelineError> {
        let (seg, coded_bits) = plan(tb_bits, self.symbols.len(), grant)?;
        self.stage(seg, coded_bits, llr_scale, grant, hooks)
    }

    /// Symbols → staged decode tasks.
    fn stage(
        &mut self,
        seg: Segmentation,
        coded_bits: usize,
        llr_scale: f32,
        grant: &Grant,
        hooks: &mut impl RxHooks,
    ) -> Result<Staged, PipelineError> {
        let kern = self.kern;
        hooks.lap(Op::Demap, || {
            kern.demap_into(grant.modulation, &self.symbols, llr_scale, &mut self.llrs)
        });
        hooks.lap(Op::Descramble, || {
            kern.descramble(&mut self.llrs, grant.c_init)
        });
        hooks.soft_bits(&mut self.llrs);

        let mut tasks = self.lists.pop().unwrap_or_default();
        match self.arrange_blocks(&seg, grant, hooks, &mut tasks) {
            Ok(()) => Ok(Staged {
                seg,
                coded_bits,
                tasks,
            }),
            Err(e) => {
                self.reclaim(tasks);
                Err(e)
            }
        }
    }

    /// Per code block: de-rate-match its share of the soft bits
    /// straight into the triple-interleaved cluster layout (Fig 8a),
    /// then the data arrangement process under test — one mask/merge
    /// pass ([`fused_ingest_into`]) segregating the clusters into a
    /// pooled stream buffer the decoder reads in place.
    fn arrange_blocks(
        &mut self,
        seg: &Segmentation,
        grant: &Grant,
        hooks: &mut impl RxHooks,
        tasks: &mut Vec<TurboLlrs>,
    ) -> Result<(), PipelineError> {
        let fused = self.kern.fused;
        let rv = usize::from(grant.rv);
        let bps = grant.modulation.bits_per_symbol();
        let mut pos = 0;
        for i in 0..seg.c {
            let k = seg.k_of(i);
            let e = grant.block_e(k);
            // `plan` sized the soft bits to Σ e; a capture is outside
            // input all the same, so take the share, don't index it.
            let share = self
                .llrs
                .get(pos..pos + e)
                .ok_or(PipelineError::MalformedFrame {
                    reason: FrameFault::SymbolCount {
                        need: (pos + e).div_ceil(bps),
                        got: self.llrs.len() / bps,
                    },
                })?;
            pos += e;
            let rmi = slot(&mut self.rms, k + 4, || RateMatcher::new(k + 4));
            let rm = &self.rms[rmi].1;
            hooks.lap(Op::DeRateMatch, || {
                rm.try_de_rate_match_interleaved_into(share, rv, &mut self.inter)
            })?;
            let tails = TailLlrs::from_interleaved(&self.inter, k);
            let mut s = acquire(&mut self.pool, k, hooks);
            hooks.lap(Op::Arrange, || {
                fused_ingest_into(fused, &self.inter, k, &mut s.sys, &mut s.p1, &mut s.p2)
            });
            tasks.push(TurboLlrs {
                k,
                streams: s,
                tails,
            });
        }
        Ok(())
    }

    /// Take a finished (or abandoned) task list back: the stream
    /// buffers rejoin the free list — last block first, so block `i`
    /// keeps meeting the buffer it grew — and the list keeps its
    /// capacity for the next packet.
    pub(crate) fn reclaim(&mut self, mut tasks: Vec<TurboLlrs>) {
        for t in tasks.drain(..).rev() {
            self.recycle(t.streams);
        }
        if self.lists.len() < LLR_POOL_CAP {
            self.lists.push(tasks);
        }
    }

    /// The serial back end: the deadline gate, then
    /// [`Self::decode_staged`].
    pub(crate) fn back(
        &mut self,
        staged: Staged,
        hooks: &mut impl RxHooks,
    ) -> Result<Delivered, PipelineError> {
        let delivered = hooks.iter_cap(self.decoder_iterations).and_then(|cap| {
            self.decode_staged(&staged.seg, staged.coded_bits, &staged.tasks, cap, hooks)
        });
        self.reclaim(staged.tasks);
        delivered
    }

    /// Decode staged blocks serially under an iteration cap already
    /// decided, with the CRC24B stop, then [`Self::deliver`]. The tasks
    /// stay with the caller.
    pub(crate) fn decode_staged(
        &mut self,
        seg: &Segmentation,
        coded_bits: usize,
        tasks: &[TurboLlrs],
        cap: usize,
        hooks: &mut impl RxHooks,
    ) -> Result<Delivered, PipelineError> {
        let (iterations, failed_blocks) = self.decode_blocks(tasks, cap, hooks);
        let bits = &self.bits[..seg.c];
        self.deliver(seg, bits, coded_bits, iterations, failed_blocks, hooks)
    }

    /// Decode `tasks` into `self.bits` under iteration cap `cap`: the
    /// native decoder in one [`Self::decode_run`] per run of equal-K
    /// blocks (segmentation puts every K− block before the K+ ones, so
    /// at most two), the scalar oracle block by block. Returns the
    /// iteration total and how many blocks failed their CRC24B.
    fn decode_blocks(
        &mut self,
        tasks: &[TurboLlrs],
        cap: usize,
        hooks: &mut impl RxHooks,
    ) -> (usize, usize) {
        if self.bits.len() < tasks.len() {
            self.bits.resize_with(tasks.len(), Vec::new);
        }
        let max_iters = self.decoder_iterations;
        let crc = (tasks.len() > 1).then_some(&CRC24B);
        let mut lanes: [LaneOutcome; MAX_CODE_BLOCKS] = Default::default();
        let lanes = &mut lanes[..tasks.len()];
        match self.kern.decoder {
            DecoderBackend::Native => {
                let mut at = 0;
                for run in tasks.chunk_by(|a, b| a.k == b.k) {
                    let r = at..at + run.len();
                    at += run.len();
                    // The tail past the run repeats its last block and
                    // is never read.
                    let blocks: [BlockLlrs<'_>; MAX_CODE_BLOCKS] =
                        std::array::from_fn(|g| BlockLlrs::from_turbo(&run[g.min(run.len() - 1)]));
                    hooks.lap(Op::Decode, || {
                        self.decode_run(&blocks[..run.len()], r.start, cap, crc, &mut lanes[r]);
                    });
                }
            }
            DecoderBackend::Scalar => {
                for ((task, bits), lane) in tasks.iter().zip(&mut self.bits).zip(lanes.iter_mut()) {
                    let k = task.k;
                    let si = slot(&mut self.scalars, k, || TurboDecoder::new(k, max_iters));
                    let out = hooks.lap(Op::Decode, || {
                        self.scalars[si].1.decode_capped(task, cap, crc)
                    });
                    *bits = out.bits;
                    *lane = (out.iterations_run, out.crc_ok, out.siso_passes);
                    self.siso_passes += out.siso_passes as u64;
                }
            }
        }
        let iterations = lanes.iter().map(|l| l.0).sum();
        let failed_blocks = lanes.iter().filter(|l| l.1 == Some(false)).count();
        (iterations, failed_blocks)
    }

    /// Every native decode, serial (per run of equal-K blocks) or staged
    /// (per pool flush): the equal-K `blocks` in one `decode_blocks_into`
    /// call on this chain's decoder and scratch, into `self.bits[at..]`
    /// and `lanes`. Returns the bit buffers it wrote.
    pub(crate) fn decode_run(
        &mut self,
        blocks: &[BlockLlrs<'_>],
        at: usize,
        cap: usize,
        crc: Option<&Crc>,
        lanes: &mut [LaneOutcome],
    ) -> &[Vec<u8>] {
        let (k, r) = (blocks[0].sys.len(), at..at + blocks.len());
        if self.bits.len() < r.end {
            self.bits.resize_with(r.end, Vec::new);
        }
        let max_iters = self.decoder_iterations;
        let di = slot(&mut self.natives, k, || {
            NativeBatchTurboDecoder::new(k, max_iters)
        });
        self.natives[di].1.decode_blocks_into(
            blocks,
            cap,
            crc,
            &mut self.scratch,
            &mut self.bits[r.clone()],
            lanes,
        );
        self.siso_passes += lanes.iter().map(|l| l.2 as u64).sum::<u64>();
        &self.bits[r]
    }

    /// Reassemble, verify, de-encapsulate: the tail shared by the
    /// serial path ([`Self::rx`]) and out-of-order batch completion.
    /// Classification is identical in both — batching changes *when*
    /// decode runs, never what a packet's outcome is.
    pub fn deliver(
        &self,
        seg: &Segmentation,
        bits: &[Vec<u8>],
        coded_bits: usize,
        iterations: usize,
        failed_blocks: usize,
        hooks: &mut impl RxHooks,
    ) -> Result<Delivered, PipelineError> {
        let presented = &bits[..hooks.presented(bits.len()).min(bits.len())];
        let tb = hooks.lap(Op::Deseg, || seg.try_desegment(presented))?;

        let failure = DecodeFailure {
            tb_bits: seg.b,
            code_blocks: bits.len(),
            failed_blocks,
            decoder_iterations: iterations,
        };
        if failed_blocks > 0 {
            return Err(PipelineError::DecoderDiverged(failure));
        }
        let crc_failed = PipelineError::CrcMismatch(failure);
        let Some(tb) = tb else { return Err(crc_failed) };
        let Some(payload) = hooks.lap(Op::CrcCheck, || CRC24A.check_with(self.kern.crc, &tb))
        else {
            return Err(crc_failed);
        };
        let Ok(sdu) = hooks.lap(Op::L2Decap, || {
            BearerRx::default().decapsulate(&pack_msb(payload))
        }) else {
            return Err(crc_failed);
        };
        Ok(Delivered {
            sdu,
            code_blocks: bits.len(),
            coded_bits,
            iterations,
        })
    }
}

/// The segmentation plan of a `tb_bits`-bit transport block the
/// receiver accepts: more than a CRC24A, at most [`MAX_CODE_BLOCKS`].
pub(crate) fn plan_blocks(tb_bits: usize) -> Result<Segmentation, PipelineError> {
    if tb_bits <= CRC24A.width() {
        // nothing but (at most) a CRC: no payload to deliver
        return Err(PipelineError::MalformedFrame {
            reason: FrameFault::Empty,
        });
    }
    let too_many = |blocks| PipelineError::SegmentationOverflow {
        detail: SegFault::TooManyBlocks {
            blocks,
            max: MAX_CODE_BLOCKS,
        },
    };
    if tb_bits > MAX_CODE_BLOCKS * Z_MAX {
        // before planning: the planner's arithmetic is not hardened
        // against sizes near `usize::MAX`
        return Err(too_many(tb_bits / Z_MAX));
    }
    let seg = Segmentation::try_plan(tb_bits)?;
    if seg.c > MAX_CODE_BLOCKS {
        return Err(too_many(seg.c));
    }
    Ok(seg)
}

/// Check a capture's transport-block size and symbol count against the
/// grant and each other; returns the segmentation plan and Σ e.
fn plan(
    tb_bits: usize,
    n_symbols: usize,
    grant: &Grant,
) -> Result<(Segmentation, usize), PipelineError> {
    let seg = plan_blocks(tb_bits)?;
    let coded_bits: usize = (0..seg.c).map(|i| grant.block_e(seg.k_of(i))).sum();
    let need = coded_bits.div_ceil(grant.modulation.bits_per_symbol());
    if n_symbols != need {
        return Err(PipelineError::MalformedFrame {
            reason: FrameFault::SymbolCount {
                need,
                got: n_symbols,
            },
        });
    }
    Ok((seg, coded_bits))
}

/// Pop a `k`-element stream buffer off the free list, or allocate one
/// when it is dry; the sink hears which ([`Spans::staged`]: a growth is
/// a K upswitch beyond anything the buffer has seen).
fn acquire(pool: &mut Vec<SoftStreams>, k: usize, sink: &mut impl Spans) -> SoftStreams {
    let Some(mut s) = pool.pop() else {
        sink.staged(0, k);
        return SoftStreams::zeros(k);
    };
    let capacity = |s: &SoftStreams| s.sys.capacity().min(s.p1.capacity()).min(s.p2.capacity());
    let held = capacity(&s);
    s.sys.resize(k, 0);
    s.p1.resize(k, 0);
    s.p2.resize(k, 0);
    sink.staged(held, capacity(&s));
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::l2::{BearerTx, L2_OVERHEAD};
    use crate::packet::{PacketBuilder, Transport};
    use crate::pipeline::{PipelineConfig, UplinkPipeline};
    use crate::tx::TxChain;
    use vran_phy::bits::unpack_msb;
    use vran_phy::modulation::Modulation;

    /// Hooks that count the deadline gate's calls and the decode laps;
    /// with `expired`, the gate ends the packet.
    #[derive(Default)]
    struct Counted {
        expired: bool,
        iter_caps: usize,
        decode_laps: usize,
    }

    impl Spans for Counted {
        fn lap<T>(&mut self, op: Op, work: impl FnOnce() -> T) -> T {
            self.decode_laps += usize::from(op == Op::Decode);
            work()
        }
    }

    impl RxHooks for Counted {
        fn iter_cap(&mut self, cap: usize) -> Result<usize, PipelineError> {
            self.iter_caps += 1;
            match self.expired {
                false => Ok(cap),
                true => Err(PipelineError::DeadlineExceeded {
                    budget_ns: 1,
                    elapsed_ns: 2,
                }),
            }
        }
    }

    /// A `size`-byte UDP frame sent under a grant through an AWGN
    /// channel: the frame, the plan, and what the receiver captures.
    struct OnAir {
        frame: Vec<u8>,
        seg: Segmentation,
        air: Vec<Cplx>,
        n_symbols: usize,
        llr_scale: f32,
    }

    impl OnAir {
        fn send(grant: &Grant, size: usize, snr_db: f32) -> Self {
            let frame = PacketBuilder::new(4000, 4001)
                .build(Transport::Udp, size)
                .unwrap()
                .frame;
            let pdu = BearerTx::default()
                .encapsulate(&frame, frame.len() + L2_OVERHEAD)
                .unwrap();
            let mut tx = TxChain::default();
            let seg = tx
                .tx(&unpack_msb(&pdu, pdu.len() * 8), grant, &mut ())
                .unwrap();
            let mut channel = AwgnChannel::new(snr_db, 3);
            let mut air = Vec::new();
            channel.apply_into(&tx.samples, &mut air);
            let (n_symbols, llr_scale) = (tx.symbols.len(), Capture::llr_scale_of(&channel));
            Self {
                frame,
                seg,
                air,
                n_symbols,
                llr_scale,
            }
        }

        fn capture(&self) -> Capture<'_> {
            Capture {
                samples: &self.air,
                n_symbols: self.n_symbols,
                tb_bits: self.seg.b,
                llr_scale: self.llr_scale,
            }
        }
    }

    /// Two-block packets at rx_bulk's operating point: 1400 B splits
    /// into one K = 5632 and one K = 5696 block, 1500 B into two
    /// K = 6080 blocks. Either asks its cap once; the native decoder
    /// laps once per K, so only the equal-K pair decodes in one call.
    /// Both deliver what the scalar oracle delivers, in as many
    /// iterations and SISO passes.
    #[test]
    fn a_two_block_packet_asks_its_cap_once_and_decodes_each_k_in_one_call() {
        let cfg = PipelineConfig {
            modulation: Modulation::Qam64,
            snr_db: 20.0,
            ..Default::default()
        };
        let grant = UplinkPipeline::new(cfg).grant();
        for (size, ks, native_laps) in [(1400, [5632, 5696], 2), (1500, [6080; 2], 1)] {
            let sent = OnAir::send(&grant, size, cfg.snr_db);
            let got_ks: Vec<_> = (0..sent.seg.c).map(|i| sent.seg.k_of(i)).collect();
            assert_eq!(got_ks, ks, "{size} B");
            let cap = sent.capture();

            let mut hooks = Counted::default();
            let mut native = RxChain::new(cfg.decoder_iterations);
            let got = native.rx(&cap, &grant, &mut hooks).unwrap();
            assert_eq!(got.sdu, sent.frame, "{size} B");
            let counts = (hooks.iter_caps, hooks.decode_laps);
            assert_eq!(counts, (1, native_laps), "{size} B native");

            let mut hooks = Counted::default();
            let mut oracle = RxChain::new(cfg.decoder_iterations);
            oracle.kern = Kernels::reference();
            let want = oracle.rx(&cap, &grant, &mut hooks).unwrap();
            let counts = (hooks.iter_caps, hooks.decode_laps);
            assert_eq!(counts, (1, 2), "{size} B oracle: one lap per block");
            assert_eq!(got, want, "{size} B");
            let passes = |rx: &RxChain| rx.decode_ledger()[2];
            assert_eq!(passes(&native), passes(&oracle), "{size} B");
        }
    }

    #[test]
    fn an_expired_deadline_ends_the_packet_before_any_decode() {
        let grant = UplinkPipeline::new(PipelineConfig::default()).grant();
        // 1024 B: two K = 4160 blocks.
        let sent = OnAir::send(&grant, 1024, 30.0);
        let seg = &sent.seg;
        assert_eq!((seg.c_minus, seg.c_plus, seg.k_plus), (0, 2, 4160));
        let cap = sent.capture();
        for kern in [Kernels::production(), Kernels::reference()] {
            let mut hooks = Counted {
                expired: true,
                ..Default::default()
            };
            let mut rx = RxChain::new(6);
            rx.kern = kern;
            let got = rx.rx(&cap, &grant, &mut hooks);
            assert!(
                matches!(got, Err(PipelineError::DeadlineExceeded { .. })),
                "{got:?}"
            );
            assert_eq!((hooks.iter_caps, hooks.decode_laps), (1, 0));
            assert_eq!(rx.decode_ledger()[2], 0, "no SISO pass ran");
        }
    }
}
