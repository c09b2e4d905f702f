//! The receive chain — the receiver under test: one [`Capture`] in,
//! one frame out.
//!
//! ```text
//! front:  samples → OFDM demodulate → soft demap → descramble
//!           → per block (de-rate-match → DATA ARRANGEMENT into a
//!             pooled stream buffer)                  → staged TurboLlrs
//! back:   per block turbo decode (CRC24B stop) → desegment → CRC24A
//!           → L2 de-encapsulate                      → Delivered
//! ```
//!
//! [`RxChain::rx`] is `front` + `back`; the stage-graph runtime takes
//! `front`'s staged blocks, decodes them in cross-packet batches and
//! finishes with [`RxChain::deliver`], `back`'s own tail. The chain
//! owns every buffer a packet needs twice, so a warm call allocates
//! only what `vran-phy` and `l2` return by signature.
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
use vran_arrange::native::{best_apcm, deinterleave_into};
use vran_phy::bits::pack_msb;
use vran_phy::channel::AwgnChannel;
use vran_phy::crc::{CRC24A, CRC24B};
use vran_phy::llr::{Llr, SoftStreams, TailLlrs, TurboLlrs};
use vran_phy::modulation::Cplx;
use vran_phy::rate_match::RateMatcher;
use vran_phy::segmentation::{Segmentation, Z_MAX};
use vran_phy::turbo::{DecodeScratch, NativeTurboDecoder, TurboDecoder};

/// Maximum code blocks per transport block the receive path accepts;
/// plans beyond this classify as
/// [`PipelineError::SegmentationOverflow`]. LTE category-4 uplink TBs
/// stay well under this at our 5 MHz configuration.
pub const MAX_CODE_BLOCKS: usize = 8;

/// Free-list cap: `MAX_CODE_BLOCKS` packets can be in flight per lane
/// in the stage graph's pools; beyond this the buffers are dropped
/// rather than hoarded.
const LLR_POOL_CAP: usize = 4 * MAX_CODE_BLOCKS;

/// Which decoder implementation the receive path runs.
///
/// Both backends compute bit-identical results (the native kernels use
/// the same saturating i16 operations in the same order as the scalar
/// reference, enforced by `vran-phy`'s property tests); they differ
/// only in wall-clock cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum DecoderBackend {
    /// Scalar max-log-MAP reference plus the VM arrangement kernel
    /// selected by `width`/`mechanism` — the functional-model path.
    Scalar,
    /// Real-intrinsics fast path: native APCM arrangement and the
    /// runtime-dispatched [`NativeTurboDecoder`], with per-chain
    /// scratch reuse (allocation-free per code block after warm-up).
    #[default]
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

    /// The iteration cap of the next decode, given the configured
    /// `cap` — or the error that ends the packet (the deadline gate).
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
    /// Native decoders, keyed by block size K.
    natives: Vec<(usize, NativeTurboDecoder)>,
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
    /// De-rate-matcher output staging (`d⁽⁰⁾ d⁽¹⁾ d⁽²⁾`, length K+4).
    dllr: [Vec<Llr>; 3],
    /// Interleaved-triple staging for the arrangement step.
    inter: Vec<Llr>,
    /// Free list of per-block stream buffers: the arrangement pops one
    /// (retaining its capacity), whoever decoded the block pushes it
    /// back ([`Self::recycle`]) — no steady-state allocation.
    pool: Vec<SoftStreams>,
    /// The serial path's task list between packets (capacity retained).
    tasks: Vec<TurboLlrs>,
    scratch: DecodeScratch,
    /// SISO passes the scalar decoder ran (it keeps no ledger itself).
    oracle_passes: u64,
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
            self.scratch.siso_passes() + self.oracle_passes,
        ]
    }

    /// Return a staged task's stream buffers to the free list so the
    /// next arrangement reuses their capacity instead of allocating.
    pub fn recycle(&mut self, streams: SoftStreams) {
        if self.pool.len() < LLR_POOL_CAP {
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

        let mut tasks = std::mem::take(&mut self.tasks);
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

    /// Per code block: de-rate-match its share of the soft bits, then
    /// the data arrangement process under test, in the flavour the
    /// resolved kernels name ([`Kernels::resolve`] is their only
    /// constructor: fused ingest comes with the native decoder or not
    /// at all), into a stream buffer the decoder reads in place.
    fn arrange_blocks(
        &mut self,
        seg: &Segmentation,
        grant: &Grant,
        hooks: &mut impl RxHooks,
        tasks: &mut Vec<TurboLlrs>,
    ) -> Result<(), PipelineError> {
        let kern = self.kern;
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

            let tails = match kern.fused {
                // The fused chain's only staging write: the
                // de-rate-matcher accumulates straight into the
                // triple-interleaved cluster layout (Fig 8a), so no
                // separate multiplex pass runs before arrangement.
                Some(_) => {
                    hooks.lap(Op::DeRateMatch, || {
                        rm.try_de_rate_match_interleaved_into(share, rv, &mut self.inter)
                    })?;
                    TailLlrs::from_interleaved(&self.inter, k)
                }
                None => {
                    hooks.lap(Op::DeRateMatch, || {
                        rm.try_de_rate_match_into(share, rv, &mut self.dllr)
                    })?;
                    TailLlrs::from_dstreams(&self.dllr, k)
                }
            };

            let streams = match (kern.decoder, kern.fused) {
                // Fused: one mask/merge pass segregates the clusters
                // straight into the layout the quad-in-zmm batch
                // decoder reads in place. No multiplex copy, no shared
                // staging buffer, no per-block clone.
                (DecoderBackend::Native, Some(imp)) => {
                    let mut s = acquire(&mut self.pool, k, hooks);
                    hooks.lap(Op::Arrange, || {
                        fused_ingest_into(imp, &self.inter, k, &mut s.sys, &mut s.p1, &mut s.p2)
                    });
                    s
                }
                // Unfused native (kept for A/B against the fused
                // ingest): multiplex the streams into the triples the
                // de-rate-matcher hands the decoder (Fig 8a), then
                // segregate them with the best real-intrinsics APCM
                // kernel the host supports.
                (DecoderBackend::Native, None) => {
                    let mut s = acquire(&mut self.pool, k, hooks);
                    hooks.lap(Op::Arrange, || {
                        self.inter.resize(3 * k, 0);
                        for j in 0..k {
                            self.inter[3 * j] = self.dllr[0][j];
                            self.inter[3 * j + 1] = self.dllr[1][j];
                            self.inter[3 * j + 2] = self.dllr[2][j];
                        }
                        deinterleave_into(best_apcm(), &self.inter, k, &mut s);
                    });
                    s
                }
                // VM flavour: the configured mechanism/width kernel
                // segregates the interleaved triples (and returns its
                // own buffer, which never joins the free list).
                (DecoderBackend::Scalar, _) => hooks.lap(Op::Arrange, || {
                    let interleaved = TurboLlrs::from_dstreams(&self.dllr, k).to_interleaved();
                    let (arranged, _) = kern.vm.arrange(&interleaved, false);
                    kern.vm.depermute(&arranged)
                }),
            };
            tasks.push(TurboLlrs { k, streams, tails });
        }
        Ok(())
    }

    /// Take a finished (or abandoned) task list back: pooled stream
    /// buffers rejoin the free list — last block first, so block `i`
    /// keeps meeting the buffer it grew — and the list keeps its
    /// capacity for the next packet.
    fn reclaim(&mut self, mut tasks: Vec<TurboLlrs>) {
        if self.kern.decoder == DecoderBackend::Native {
            for t in tasks.drain(..).rev() {
                self.recycle(t.streams);
            }
        }
        tasks.clear();
        self.tasks = tasks;
    }

    /// The serial back end: decode each staged block with the CRC24B
    /// stop, then [`Self::deliver`].
    pub(crate) fn back(
        &mut self,
        staged: Staged,
        hooks: &mut impl RxHooks,
    ) -> Result<Delivered, PipelineError> {
        let decoded = self.decode_blocks(&staged.tasks, hooks);
        self.reclaim(staged.tasks);
        let (iterations, failed_blocks) = decoded?;
        let bits = &self.bits[..staged.seg.c];
        self.deliver(
            &staged.seg,
            bits,
            staged.coded_bits,
            iterations,
            failed_blocks,
            hooks,
        )
    }

    /// Decode `tasks` in order into `self.bits`; returns the iteration
    /// total and how many blocks failed their CRC24B.
    fn decode_blocks(
        &mut self,
        tasks: &[TurboLlrs],
        hooks: &mut impl RxHooks,
    ) -> Result<(usize, usize), PipelineError> {
        if self.bits.len() < tasks.len() {
            self.bits.resize_with(tasks.len(), Vec::new);
        }
        let max_iters = self.decoder_iterations;
        let crc = (tasks.len() > 1).then_some(&CRC24B);
        let (mut iterations, mut failed_blocks) = (0, 0);
        for (task, bits) in tasks.iter().zip(&mut self.bits) {
            let cap = hooks.iter_cap(max_iters)?;
            let k = task.k;
            let (iters, crc_ok) = match self.kern.decoder {
                DecoderBackend::Native => {
                    let di = slot(&mut self.natives, k, || {
                        NativeTurboDecoder::new(k, max_iters)
                    });
                    hooks.lap(Op::Decode, || {
                        self.natives[di].1.decode_streams_capped_into(
                            &task.streams.sys,
                            &task.streams.p1,
                            &task.streams.p2,
                            &task.tails,
                            cap,
                            crc,
                            &mut self.scratch,
                            bits,
                        )
                    })
                }
                DecoderBackend::Scalar => {
                    let si = slot(&mut self.scalars, k, || TurboDecoder::new(k, max_iters));
                    let out = hooks.lap(Op::Decode, || {
                        self.scalars[si].1.decode_capped(task, cap, crc)
                    });
                    self.oracle_passes += out.siso_passes as u64;
                    *bits = out.bits;
                    (out.iterations_run, out.crc_ok)
                }
            };
            iterations += iters;
            failed_blocks += usize::from(crc_ok == Some(false));
        }
        Ok((iterations, failed_blocks))
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
