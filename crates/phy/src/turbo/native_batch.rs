//! AVX-512BW multi-block native batch turbo decoding.
//!
//! The real-hardware counterpart of the VM batch decoder
//! `apcm::turbo::batch_decoder`. The 8-state recursions cannot widen,
//! so a wider register must carry more blocks — and the single-block
//! AVX2 kernel of [`super::native_decoder`] already fills a ymm with
//! one block: its α chain in one 128-bit lane, its β chain in the
//! other, meeting in the middle (DESIGN §5.8). Here a zmm carries two
//! blocks' (α, β) lane pairs. Lanes 0 and 1 hold one chain of block
//! `2r` and of block `2r + 1`, lanes 2 and 3 the other chain of each,
//! so one 32-byte load broadcast to both halves feeds both blocks'
//! branch metrics, and each block's lane pair runs the ymm kernel's
//! instruction sequence: `vpshufb`, `unpack` and the byte shifts are
//! lane-local, and the two moves that cross lanes (the chains' trade
//! before phase 2, the phase-2 blends) move whole 256-bit halves. A
//! pair launch is one such register; a quad launch is two, interleaved
//! step by step in one loop so each hides the other's ≈ 6-cycle
//! recurrence.
//!
//! Every lane is therefore bit-identical to a [`NativeTurboDecoder`]
//! decode of its block alone (and to the scalar oracle). Iteration
//! control is the single-block decoder's too, per lane — the stop rule
//! of [`super::decoder`]: given the launch's CRC, each lane reports the
//! SISO pass on which *its* block first passed (a begun iteration
//! counting as one) and the bits it had then, and the launch ends when
//! every lane has passed or at the cap; without a CRC every lane runs
//! the cap. Without AVX-512BW every lane is a single-block decode.

use super::decoder::{beta_init_from_tails, DecodeOutcome, NEG_INF};
use super::native_decoder::{hard_decide, DecodeScratch, DecoderIsa, NativeTurboDecoder};
use super::trellis::STATES;
use crate::crc::Crc;
use crate::interleaver::QppInterleaver;
use crate::llr::{llr_to_bit, Llr, SoftStreams, TailLlrs, TurboLlrs};
use vran_simd::host::{self, HostIsa};

/// Number of blocks in a pair launch: one zmm register.
pub const BATCH: usize = 2;

/// Number of blocks in a quad launch: two zmm registers.
pub const QUAD: usize = 4;

/// Borrowed per-block decoder input for the staged (zero-copy) batch
/// entry points: the three arranged streams live wherever the caller
/// staged them — pooled [`SoftStreams`], fused-ingest buffers — and
/// the kernel reads them in place, with no block-major gather copy.
#[derive(Debug, Clone, Copy)]
pub struct BlockLlrs<'a> {
    /// Systematic LLRs, length K.
    pub sys: &'a [Llr],
    /// First parity LLRs, length K.
    pub p1: &'a [Llr],
    /// Second parity LLRs, length K.
    pub p2: &'a [Llr],
    /// Termination LLRs.
    pub tails: TailLlrs,
}

impl<'a> BlockLlrs<'a> {
    /// Borrow a [`TurboLlrs`]'s streams in place.
    pub fn from_turbo(t: &'a TurboLlrs) -> Self {
        Self {
            sys: &t.streams.sys,
            p1: &t.streams.p1,
            p2: &t.streams.p2,
            tails: t.tails,
        }
    }

    /// Borrow staged [`SoftStreams`] with their termination LLRs.
    pub fn from_streams(s: &'a SoftStreams, tails: TailLlrs) -> Self {
        Self {
            sys: &s.sys,
            p1: &s.p1,
            p2: &s.p2,
            tails,
        }
    }
}

/// Words of slack that let the kernel's scratch start on a cache line
/// (see [`aligned`]).
const ALIGN_SLACK: usize = 32;

/// Words of branch metrics a launch of `blocks` blocks stages: a quad
/// per step, and room for the leftover group's, one per 128-bit lane.
fn gq_len(k: usize, blocks: usize) -> usize {
    blocks * (4 * k + 4 * STATES)
}

/// Reusable batch-decode working memory — the [`DecodeScratch`] idiom
/// widened to N blocks: branch metrics, the trellis, extrinsic and
/// a-priori buffers and the permuted-systematic staging, each block's
/// run in natural order except where the kernel folds two blocks
/// together. Owned by long-lived callers (stage-graph batch pools, the
/// uplink pipeline) so steady-state batch decodes perform no heap
/// allocation; the counters make that claim checkable.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    sys_pi: Vec<Llr>,
    g0: Vec<Llr>,
    gq: Vec<Llr>,
    trellis: Vec<Llr>,
    ext: Vec<Llr>,
    post: Vec<i32>,
    la1: Vec<Llr>,
    la2: Vec<Llr>,
    /// Scratch for the single-block decodes lanes run as without
    /// AVX-512BW.
    single: DecodeScratch,
    allocations: u64,
    reuses: u64,
    siso_passes: u64,
}

impl BatchScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow every buffer to hold `blocks` blocks of length `k`. No
    /// buffer shrinks: one scratch serves the pools of every K, and a
    /// launch after a larger one must not re-zero what the kernel
    /// overwrites anyway, so a launch works in the front of each.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    fn ensure(&mut self, k: usize, blocks: usize) {
        let n = blocks * k;
        let mut grew = false;
        {
            let mut fit = |v: &mut Vec<Llr>, len: usize| {
                if v.len() < len {
                    grew |= v.capacity() < len;
                    v.resize(len, 0);
                }
            };
            fit(&mut self.sys_pi, n);
            fit(&mut self.g0, n);
            fit(&mut self.gq, gq_len(k, blocks) + ALIGN_SLACK);
            fit(&mut self.trellis, STATES * n + ALIGN_SLACK);
            fit(&mut self.ext, n + 1);
            fit(&mut self.la1, n);
            fit(&mut self.la2, n);
        }
        if self.post.len() < n {
            grew |= self.post.capacity() < n;
            self.post.resize(n, 0);
        }
        if grew {
            self.allocations += 1;
        } else {
            self.reuses += 1;
        }
    }

    /// Times `ensure` had to grow at least one buffer.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Times `ensure` was served entirely from retained capacity
    /// (i.e. heap allocations avoided).
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// SISO kernel passes run through this scratch, at any width.
    pub fn siso_passes(&self) -> u64 {
        self.siso_passes + self.single.siso_passes()
    }
}

thread_local! {
    /// Scratch behind the allocating convenience entry points
    /// (`decode_pair*`, `decode_quad*`), kept per thread: a quad's
    /// ≈ 0.8 MB at K = 6144 goes back to the OS when dropped, so a fresh
    /// one per call pays its page faults every call — about a fifth of
    /// that decode.
    static OWN_SCRATCH: core::cell::RefCell<BatchScratch> =
        core::cell::RefCell::new(BatchScratch::new());
}

/// What one lane of a batch launch reports: `(iterations_run, crc_ok,
/// siso_passes)` — what [`NativeTurboDecoder::decode_streams_capped_into`]
/// returns for that block decoded alone, and the SISO passes it ran.
pub type LaneOutcome = (usize, Option<bool>, usize);

/// Batched decoder: two or four equal-size blocks per launch, two per
/// zmm register on AVX-512BW hosts; elsewhere every lane is a
/// single-block decode (identical outputs either way).
#[derive(Debug, Clone)]
pub struct NativeBatchTurboDecoder {
    il: QppInterleaver,
    /// What every lane runs as without AVX-512BW, built once.
    single: NativeTurboDecoder,
    use_avx512: bool,
}

impl NativeBatchTurboDecoder {
    /// Whether the zmm kernel is usable on this host.
    pub fn is_zmm_accelerated() -> bool {
        cfg!(target_arch = "x86_64") && host::has(HostIsa::Avx512bw)
    }

    /// Decoder for two or four parallel blocks of size `k`.
    pub fn new(k: usize, max_iterations: usize) -> Self {
        Self {
            il: QppInterleaver::new(k),
            single: NativeTurboDecoder::new(k, max_iterations),
            use_avx512: Self::is_zmm_accelerated(),
        }
    }

    /// Block size K.
    pub fn k(&self) -> usize {
        self.il.k()
    }

    /// Blocks per call.
    pub fn batch(&self) -> usize {
        BATCH
    }

    /// Decode two blocks for all configured iterations (no CRC).
    pub fn decode_pair(&self, inputs: &[TurboLlrs; BATCH]) -> [DecodeOutcome; BATCH] {
        self.decode_pair_refs([&inputs[0], &inputs[1]])
    }

    /// [`Self::decode_pair`] over borrowed, non-contiguous blocks — the
    /// entry point cross-packet batch pools use: pooled decode tasks
    /// live in separate reorder-buffer slots, so a launch hands the
    /// kernel four scattered references instead of cloning them into a
    /// contiguous array.
    pub fn decode_pair_refs(&self, inputs: [&TurboLlrs; BATCH]) -> [DecodeOutcome; BATCH] {
        let k = self.il.k();
        for input in inputs.iter() {
            assert_eq!(input.k, k, "both blocks in a batch share K");
        }
        let mut bits: [Vec<u8>; BATCH] = core::array::from_fn(|_| Vec::new());
        let lanes = OWN_SCRATCH.with_borrow_mut(|scratch| {
            self.decode_pair_lanes_into(inputs.map(BlockLlrs::from_turbo), None, scratch, &mut bits)
        });
        outcomes(bits, lanes)
    }

    /// [`Self::decode_pair_lanes_into`] without a CRC: every lane runs
    /// all configured iterations; returns that count.
    pub fn decode_pair_staged_into(
        &self,
        inputs: [BlockLlrs<'_>; BATCH],
        scratch: &mut BatchScratch,
        bits: &mut [Vec<u8>; BATCH],
    ) -> usize {
        self.decode_pair_lanes_into(inputs, None, scratch, bits)[0].0
    }

    /// Zero-copy pair decode with the single-block decoder's iteration
    /// control per lane: the kernel reads the arranged streams in place
    /// from wherever the caller staged them and writes the hard
    /// decisions into caller-owned bit buffers, allocation-free once
    /// `scratch` and `bits` have warmed to this block size. With a
    /// `crc`, a lane stops counting — and its `bits` buffer is final —
    /// at the first iteration whose hard decisions pass; the launch
    /// ends when every lane has passed or at the configured cap.
    /// Without AVX-512BW each lane is a single-block native decode,
    /// with identical per-lane results.
    pub fn decode_pair_lanes_into(
        &self,
        inputs: [BlockLlrs<'_>; BATCH],
        crc: Option<&Crc>,
        scratch: &mut BatchScratch,
        bits: &mut [Vec<u8>; BATCH],
    ) -> [LaneOutcome; BATCH] {
        self.launch(inputs, crc, scratch, bits)
    }

    /// Decode four blocks for all configured iterations (no CRC).
    /// Without AVX-512BW this is four single-block decodes — identical
    /// outputs on every tier by same-op/same-order construction.
    pub fn decode_quad(&self, inputs: &[TurboLlrs; QUAD]) -> [DecodeOutcome; QUAD] {
        self.decode_quad_refs([&inputs[0], &inputs[1], &inputs[2], &inputs[3]])
    }

    /// [`Self::decode_quad`] over borrowed, non-contiguous blocks (see
    /// [`Self::decode_pair_refs`]).
    pub fn decode_quad_refs(&self, inputs: [&TurboLlrs; QUAD]) -> [DecodeOutcome; QUAD] {
        let k = self.il.k();
        for input in inputs.iter() {
            assert_eq!(input.k, k, "all blocks in a batch share K");
        }
        let mut bits: [Vec<u8>; QUAD] = core::array::from_fn(|_| Vec::new());
        let lanes = OWN_SCRATCH.with_borrow_mut(|scratch| {
            self.decode_quad_lanes_into(inputs.map(BlockLlrs::from_turbo), None, scratch, &mut bits)
        });
        outcomes(bits, lanes)
    }

    /// [`Self::decode_quad_lanes_into`] without a CRC: every lane runs
    /// all configured iterations; returns that count.
    pub fn decode_quad_staged_into(
        &self,
        inputs: [BlockLlrs<'_>; QUAD],
        scratch: &mut BatchScratch,
        bits: &mut [Vec<u8>; QUAD],
    ) -> usize {
        self.decode_quad_lanes_into(inputs, None, scratch, bits)[0].0
    }

    /// Zero-copy quad decode (see [`Self::decode_pair_lanes_into`]):
    /// reads four staged blocks in place, writes hard decisions into
    /// caller-owned bit buffers, allocation-free after warm-up, each
    /// lane stopping on its own `crc`. Without AVX-512BW each lane is a
    /// single-block native decode, with identical per-lane results.
    pub fn decode_quad_lanes_into(
        &self,
        inputs: [BlockLlrs<'_>; QUAD],
        crc: Option<&Crc>,
        scratch: &mut BatchScratch,
        bits: &mut [Vec<u8>; QUAD],
    ) -> [LaneOutcome; QUAD] {
        self.launch(inputs, crc, scratch, bits)
    }

    /// One launch of `N` lanes: the zmm kernel, or without it one
    /// single-block decode per lane through the decoder built in
    /// [`Self::new`].
    fn launch<const N: usize>(
        &self,
        inputs: [BlockLlrs<'_>; N],
        crc: Option<&Crc>,
        scratch: &mut BatchScratch,
        bits: &mut [Vec<u8>; N],
    ) -> [LaneOutcome; N] {
        let k = self.il.k();
        for b in &inputs {
            assert!(
                b.sys.len() == k && b.p1.len() == k && b.p2.len() == k,
                "all blocks in a batch share K"
            );
        }
        #[cfg(target_arch = "x86_64")]
        if self.use_avx512 {
            return self.decode_lanes(inputs, crc, scratch, bits);
        }
        core::array::from_fn(|g| {
            let input = &inputs[g];
            let passes0 = scratch.single.siso_passes();
            let (iterations_run, crc_ok) = self.single.decode_streams_into(
                input.sys,
                input.p1,
                input.p2,
                &input.tails,
                crc,
                &mut scratch.single,
                &mut bits[g],
            );
            let passes = scratch.single.siso_passes() - passes0;
            (iterations_run, crc_ok, passes as usize)
        })
    }

    /// The turbo iteration loop over `N` lanes of the zmm kernel. This
    /// is the one place that decides when a batched block stops
    /// iterating, and it decides as
    /// [`NativeTurboDecoder::decode_streams_capped_into`] does.
    #[cfg(target_arch = "x86_64")]
    fn decode_lanes<const N: usize>(
        &self,
        inputs: [BlockLlrs<'_>; N],
        crc: Option<&Crc>,
        scratch: &mut BatchScratch,
        bits: &mut [Vec<u8>; N],
    ) -> [LaneOutcome; N] {
        let (k, n) = (self.il.k(), N * self.il.k());
        scratch.ensure(k, N);
        let BatchScratch {
            sys_pi,
            g0,
            gq,
            trellis,
            ext,
            post,
            la1,
            la2,
            siso_passes,
            ..
        } = scratch;
        let (gq, trellis) = (aligned(gq, gq_len(k, N)), aligned(trellis, STATES * n));
        let (sys_pi, g0, post) = (&mut sys_pi[..n], &mut g0[..n], &mut post[..n]);
        // The gathers read `ext` a dword at a time: one word of slack.
        let ext = &mut ext[..n + 1];
        let (la1, la2) = (&mut la1[..n], &mut la2[..n]);
        let pi = self.il.pi_table();
        let pi_inv = self.il.pi_inv_table();
        let binit1 = inputs
            .each_ref()
            .map(|b| beta_init_from_tails(&b.tails.sys1, &b.tails.p1));
        let binit2 = inputs
            .each_ref()
            .map(|b| beta_init_from_tails(&b.tails.sys2, &b.tails.p2));
        la1.fill(0);
        for out in bits.iter_mut() {
            out.resize(k, 0);
        }
        // Block-major scratch (`la1`/`la2`/`sys_pi`) splits into the
        // same per-block slices the caller's buffers arrive as.
        fn parts<const N: usize>(v: &[Llr], k: usize) -> [&[Llr]; N] {
            core::array::from_fn(|g| &v[g * k..(g + 1) * k])
        }
        let sys = inputs.each_ref().map(|b| b.sys);
        let p1 = inputs.each_ref().map(|b| b.p1);
        let p2 = inputs.each_ref().map(|b| b.p2);

        // Pass `passes`' hard decisions and verdict for every live lane:
        // SISO 1's posterior (odd pass) read in natural order and checked
        // only if it decided every bit, SISO 2's through `pi_inv`. A
        // lane whose CRC passed is done: its block keeps computing, but
        // its buffer and outcome are never written again.
        let mut lanes: [LaneOutcome; N] = [(0, None, 0); N];
        let mut decide = |post: &[i32], passes: usize| {
            let live = lanes.map(|(_, crc_ok, _)| crc_ok != Some(true));
            let decided = if passes.is_multiple_of(2) {
                for (g, blk) in bits.iter_mut().enumerate().filter(|&(g, _)| live[g]) {
                    let post = &post[g * k..(g + 1) * k];
                    for (b, &p) in blk.iter_mut().zip(pi_inv) {
                        *b = llr_to_bit(post[p as usize] as Llr);
                    }
                }
                [true; N]
            } else {
                hard_decide_lanes(DecoderIsa::Avx2, post, bits, live)
            };
            for (g, (lane, blk)) in lanes.iter_mut().zip(bits.iter()).enumerate() {
                if live[g] {
                    let ok = crc.map(|c| decided[g] && c.check(blk).is_some());
                    *lane = (passes.div_ceil(2), ok, passes);
                }
            }
            lanes.iter().all(|&(_, crc_ok, _)| crc_ok == Some(true))
        };
        // A launch runs this loop only where the host probe found
        // AVX-512BW (`use_avx512`), and the kernels check every length
        // and alignment they rely on.
        let max_iterations = self.single.max_iterations();
        for it in 0..max_iterations {
            // SAFETY: AVX-512BW, as above.
            unsafe { x86::siso(sys, p1, parts(la1, k), &binit1, g0, gq, trellis, post) };
            *siso_passes += 1;
            // The single-block decoder's stop rule, per lane.
            if crc.is_some() && decide(post, 2 * it + 1) {
                break;
            }
            // Only the permuted systematic needs staging — the kernel
            // reads `sys`/`p1`/`p2` in place — and only SISO 2 reads it.
            if it == 0 {
                for (dst, input) in sys_pi.chunks_exact_mut(k).zip(&inputs) {
                    for (s, &p) in dst.iter_mut().zip(pi) {
                        *s = input.sys[p as usize];
                    }
                }
            }
            // The extrinsic exists only for a pass that follows; it
            // peels off scaled, so the gather is a plain indexed copy.
            // SAFETY: AVX-512BW, as above.
            unsafe {
                x86::peel(post, g0, &mut ext[..n]);
                x86::gather_rows::<N>(la2, ext, pi);
            }
            let (sys_pi, la2) = (parts(sys_pi, k), parts(la2, k));
            // SAFETY: AVX-512BW, as above.
            unsafe { x86::siso(sys_pi, p2, la2, &binit2, g0, gq, trellis, post) };
            *siso_passes += 1;
            // Hard decisions are observable only through the CRC and
            // the final output, so without a CRC the de-permuting bit
            // pass runs once, after the last iteration.
            let last = it + 1 == max_iterations;
            if (crc.is_some() || last) && decide(post, 2 * it + 2) {
                break;
            }
            // Only a further iteration reads the second extrinsic.
            if !last {
                // SAFETY: AVX-512BW, as above.
                unsafe {
                    x86::peel(post, g0, &mut ext[..n]);
                    x86::gather_rows::<N>(la1, ext, pi_inv);
                }
            }
        }
        lanes
    }
}

/// `len` words of `v` from its first 64-byte boundary (`v` has
/// [`ALIGN_SLACK`] words to spare): the kernel's rows are whole cache
/// lines, loaded and stored aligned.
#[cfg(target_arch = "x86_64")]
fn aligned(v: &mut [Llr], len: usize) -> &mut [Llr] {
    let skip = v.as_ptr().addr().wrapping_neg() % 64 / size_of::<Llr>();
    &mut v[skip..skip + len]
}

/// Pair each lane's bit buffer with its outcome.
fn outcomes<const N: usize>(bits: [Vec<u8>; N], lanes: [LaneOutcome; N]) -> [DecodeOutcome; N] {
    let mut lanes = lanes.into_iter();
    bits.map(|bits| {
        let (iterations_run, crc_ok, siso_passes) = lanes.next().expect("one outcome per lane");
        DecodeOutcome {
            bits,
            iterations_run,
            siso_passes,
            crc_ok,
        }
    })
}

/// [`super::native_decoder::hard_decide`] at `isa` for the lanes of a
/// block-major pass (`post[g·k + i]` is lane `g`'s step `i`): each live
/// lane's hard decisions in natural order, and per lane whether every
/// bit was decided. A lane that is not live is not written.
#[cfg(target_arch = "x86_64")]
fn hard_decide_lanes<const N: usize>(
    isa: DecoderIsa,
    post: &[i32],
    bits: &mut [Vec<u8>; N],
    live: [bool; N],
) -> [bool; N] {
    let k = post.len() / N;
    assert!(post.len() == N * k && bits.iter().all(|b| b.len() == k));
    let mut runs = post.chunks_exact(k);
    core::array::from_fn(|g| {
        let run = runs.next().expect("one run per lane");
        !live[g] || hard_decide(isa, run, &mut bits[g])
    })
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::super::native_decoder::peel_extrinsic;
    use super::super::trellis;
    use super::*;
    use core::hint::black_box;
    use std::arch::x86_64::*;

    /// Byte-level `vpshufb` control for one 128-bit lane, from a
    /// lane-level i16 gather table.
    fn lane_ctrl(table: [u8; STATES]) -> [i8; 16] {
        let mut c = [0i8; 16];
        for (i, &s) in table.iter().enumerate() {
            c[2 * i] = (2 * s) as i8;
            c[2 * i + 1] = (2 * s + 1) as i8;
        }
        c
    }

    /// `vpshufb` control picking, for each state lane, the γ-quad entry
    /// `[γ₀+γₚ, γ₀−γₚ, −γ₀+γₚ, −γ₀−γₚ][2u + parity]` out of the quad
    /// that starts at word `base` of a 16-byte quad pair.
    fn quad_ctrl(par: [u8; STATES], u: u8, base: u8) -> [i8; 16] {
        lane_ctrl(par.map(|p| base + 2 * u + p))
    }

    /// The bytes of the kernel's `vpshufb` controls, built once: `[st₀,
    /// st₁, γ₀, γ₁]` (state gathers and γ selects under input bit 0
    /// and 1) for a register whose lanes 0 and 1 carry the α chains,
    /// the same for the β chains, then the γ phase's word reversal of
    /// lanes 2 and 3. Each is the single-block kernel's `pair_ctl` with
    /// its 128-bit halves doubled: lanes 0 and 1 read the first quad of
    /// a quad pair, lanes 2 and 3 the second. Loading them from memory
    /// also keeps them opaque, as the single-block kernel's
    /// `black_box` does: LLVM re-expands a constant-control `vpshufb`
    /// into a multi-µop shuffle chain.
    fn control_bytes() -> &'static [[i8; 64]; 9] {
        static BYTES: std::sync::OnceLock<[[i8; 64]; 9]> = std::sync::OnceLock::new();
        BYTES.get_or_init(|| {
            let halves = |lo: [i8; 16], hi: [i8; 16]| -> [i8; 64] {
                core::array::from_fn(|i| if i < 32 { lo[i % 16] } else { hi[i % 16] })
            };
            let tables = |alpha: bool, u: u8| {
                if alpha {
                    (trellis::pred_table(u), trellis::pred_parity(u))
                } else {
                    (trellis::next_table(u), trellis::next_parity(u))
                }
            };
            let ctl = |alpha_low: bool, u: u8| {
                let (lo_t, lo_p) = tables(alpha_low, u);
                let (hi_t, hi_p) = tables(!alpha_low, u);
                [
                    halves(lane_ctrl(lo_t), lane_ctrl(hi_t)),
                    halves(quad_ctrl(lo_p, u, 0), quad_ctrl(hi_p, u, 4)),
                ]
            };
            let [[a0, ag0], [a1, ag1], [b0, bg0], [b1, bg1]] =
                [(true, 0), (true, 1), (false, 0), (false, 1)].map(|(a, u)| ctl(a, u));
            let rev = core::array::from_fn(|i| 14 - (i as i8 & !1) + (i as i8 & 1));
            let rev = halves(core::array::from_fn(|i| i as i8), rev);
            [a0, a1, ag0, ag1, b0, b1, bg0, bg1, rev]
        })
    }

    /// The `vpshufb` controls of one packed trellis step, `[u = 0,
    /// u = 1]` each: state gathers and γ selects.
    struct Ctl {
        st: [__m512i; 2],
        gam: [__m512i; 2],
    }

    /// The controls for a register whose lanes 0 and 1 carry the α
    /// chains (`alpha_low`) or the β chains.
    #[inline(always)]
    unsafe fn make_ctl(alpha_low: bool) -> Ctl {
        let b = &control_bytes()[if alpha_low { 0 } else { 4 }..];
        Ctl {
            st: [load_64(&b[0]), load_64(&b[1])],
            gam: [load_64(&b[2]), load_64(&b[3])],
        }
    }

    #[inline(always)]
    unsafe fn load_64(b: &[i8; 64]) -> __m512i {
        _mm512_loadu_si512(b.as_ptr().cast())
    }

    /// The four branch metrics of eight trellis steps per lane,
    /// `adds16(±γ₀, ±γₚ)` with `subs16(0, ·)` negation exactly as the
    /// oracle's `branch()`, transposed to one quad per step: register
    /// `m` of the result holds steps `2m` and `2m + 1` of each lane.
    #[inline(always)]
    unsafe fn quads(g0: __m512i, gp: __m512i) -> [__m512i; 4] {
        let zero = _mm512_setzero_si512();
        let ng0 = _mm512_subs_epi16(zero, g0);
        let ngp = _mm512_subs_epi16(zero, gp);
        let q0 = _mm512_adds_epi16(g0, gp);
        let q1 = _mm512_adds_epi16(g0, ngp);
        let q2 = _mm512_adds_epi16(ng0, gp);
        let q3 = _mm512_adds_epi16(ng0, ngp);
        let lo01 = _mm512_unpacklo_epi16(q0, q1);
        let hi01 = _mm512_unpackhi_epi16(q0, q1);
        let lo23 = _mm512_unpacklo_epi16(q2, q3);
        let hi23 = _mm512_unpackhi_epi16(q2, q3);
        [
            _mm512_unpacklo_epi32(lo01, lo23),
            _mm512_unpackhi_epi32(lo01, lo23),
            _mm512_unpacklo_epi32(hi01, hi23),
            _mm512_unpackhi_epi32(hi01, hi23),
        ]
    }

    /// 128-bit lanes `[v₀[a..] | v₁[a..] | v₀[b..] | v₁[b..]]`: two
    /// blocks' eight-step groups at `a`, then at `b`.
    #[inline(always)]
    unsafe fn groups(v: [*const Llr; 2], a: usize, b: usize) -> __m512i {
        let lo = _mm256_loadu2_m128i(v[1].add(a).cast(), v[0].add(a).cast());
        let hi = _mm256_loadu2_m128i(v[1].add(b).cast(), v[0].add(b).cast());
        _mm512_inserti64x4::<1>(_mm512_castsi256_si512(lo), hi)
    }

    /// The four 128-bit lanes of `v` to four unaligned addresses.
    #[inline(always)]
    unsafe fn store_4x128(v: __m512i, p: [*mut __m128i; 4]) {
        _mm_storeu_si128(p[0], _mm512_castsi512_si128(v));
        _mm_storeu_si128(p[1], _mm512_extracti32x4_epi32::<1>(v));
        _mm_storeu_si128(p[2], _mm512_extracti32x4_epi32::<2>(v));
        _mm_storeu_si128(p[3], _mm512_extracti32x4_epi32::<3>(v));
    }

    /// One packed trellis step on both blocks: gather the chains'
    /// states under both input bits, add the branch metrics selected
    /// from the quad pairs `q`. Returns the gathered states, the γ
    /// vectors and the two candidate registers, each `[u=0, u=1]`.
    #[inline(always)]
    unsafe fn candidates(s: __m512i, q: __m512i, c: &Ctl) -> [[__m512i; 2]; 3] {
        let st = [
            _mm512_shuffle_epi8(s, c.st[0]),
            _mm512_shuffle_epi8(s, c.st[1]),
        ];
        let gam = [
            _mm512_shuffle_epi8(q, c.gam[0]),
            _mm512_shuffle_epi8(q, c.gam[1]),
        ];
        let cand = [
            _mm512_adds_epi16(st[0], gam[0]),
            _mm512_adds_epi16(st[1], gam[1]),
        ];
        [st, gam, cand]
    }

    /// Max over the two candidates, `NEG_INF` floor, state-0
    /// normalise — per 128-bit lane.
    #[inline(always)]
    unsafe fn select(cand: [__m512i; 2], floor: __m512i, bcast0: __m512i) -> __m512i {
        let m = _mm512_max_epi16(_mm512_max_epi16(cand[0], cand[1]), floor);
        _mm512_subs_epi16(m, _mm512_shuffle_epi8(m, bcast0))
    }

    /// The ymm form of [`candidates`] + [`select`] for the leftover
    /// group's step `i`, one chain per block in lanes 0 and 1 under
    /// those lanes of the packed controls `c` (which read the first
    /// quad of a lane, where the leftover quads sit): returns `(cand,
    /// next state)`.
    #[inline(always)]
    unsafe fn leftover_step(
        s: __m256i,
        l: &Lanes,
        (kp, i): (usize, usize),
        c: &Ctl,
        floor: __m512i,
        bcast0: __m512i,
    ) -> ([__m256i; 2], __m256i) {
        let q = _mm256_load_si256(l.gq.add(8 * kp + 16 * (i - kp)).cast());
        let (st0, st1) = (
            _mm512_castsi512_si256(c.st[0]),
            _mm512_castsi512_si256(c.st[1]),
        );
        let (gam0, gam1) = (
            _mm512_castsi512_si256(c.gam[0]),
            _mm512_castsi512_si256(c.gam[1]),
        );
        let (floor, bcast0) = (
            _mm512_castsi512_si256(floor),
            _mm512_castsi512_si256(bcast0),
        );
        let c0 = _mm256_adds_epi16(_mm256_shuffle_epi8(s, st0), _mm256_shuffle_epi8(q, gam0));
        let c1 = _mm256_adds_epi16(_mm256_shuffle_epi8(s, st1), _mm256_shuffle_epi8(q, gam1));
        let m = _mm256_max_epi16(_mm256_max_epi16(c0, c1), floor);
        (
            [c0, c1],
            _mm256_subs_epi16(m, _mm256_shuffle_epi8(m, bcast0)),
        )
    }

    /// Where one register's two blocks are read from and written to:
    /// per block its streams, β termination, `γ₀` and posterior runs;
    /// shared, the register's folded branch metrics and trellis.
    struct Lanes {
        sys: [*const Llr; 2],
        par: [*const Llr; 2],
        apriori: [*const Llr; 2],
        binit: [[Llr; STATES]; 2],
        g0: [*mut Llr; 2],
        post: [*mut i32; 2],
        gq: *mut Llr,
        trellis: *mut Llr,
    }

    /// One SISO pass over `N` blocks (a pair or a quad), two per zmm
    /// register: the safe boundary of the kernel, where every length
    /// it indexes by is checked. `sys`/`par`/`apriori` are read in
    /// place; `g0` (`γ₀`, for [`peel`]) and `post` (the posteriors, low
    /// 16 bits of each element) are block-major, each block's run in
    /// natural order. Per register `r` (blocks `2r` and `2r + 1`), with
    /// `h = 8·⌊K/16⌋` and `K' = 2h`:
    ///
    /// * `gq[(8K + 64)·r..]` — slot `p < h` at words `16p..16p+16`
    ///   holds both blocks' quad pairs `[quad(p) | quad(K'−1−p)]`,
    ///   block `2r` first; the leftover group's step `i ∈ [K', K)` at
    ///   words `8K' + 16(i − K')`, one block's quad at the bottom of
    ///   each 128-bit lane.
    /// * `trellis[16K·r..]` — slot `p < h` at words `32p..32p+32` is the
    ///   register `[α_p, α_p | β_{K'−p}, β_{K'−p}]` of phase 1; the
    ///   leftover group's `[β_{i+1}, β_{i+1}]` at words `16i`.
    ///
    /// Both start on a cache line, so every slot and row is loaded and
    /// stored aligned.
    ///
    /// # Safety
    /// The host must support AVX-512BW.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn siso<const N: usize>(
        sys: [&[Llr]; N],
        par: [&[Llr]; N],
        apriori: [&[Llr]; N],
        binit: &[[Llr; STATES]; N],
        g0: &mut [Llr],
        gq: &mut [Llr],
        trellis: &mut [Llr],
        post: &mut [i32],
    ) {
        let k = sys[0].len();
        assert!(
            k.is_multiple_of(STATES) && k >= 2 * STATES,
            "block size {k} is not a multiple of 8 that is at least 16"
        );
        let mut streams = sys.iter().chain(&par).chain(&apriori);
        assert!(streams.all(|s| s.len() == k), "input stream length");
        assert!(g0.len() == N * k && post.len() == N * k, "output length");
        assert!(gq.len() == gq_len(k, N), "γ scratch length");
        assert!(trellis.len() == STATES * N * k, "trellis scratch length");
        let line = |v: &[Llr]| v.as_ptr().addr().is_multiple_of(64);
        assert!(line(gq) && line(trellis), "scratch starts on a cache line");
        let (g0, post) = (g0.as_mut_ptr(), post.as_mut_ptr());
        let (gq, tr) = (gq.as_mut_ptr(), trellis.as_mut_ptr());
        let lanes = |r: usize| {
            let b = [2 * r, 2 * r + 1];
            Lanes {
                sys: b.map(|g| sys[g].as_ptr()),
                par: b.map(|g| par[g].as_ptr()),
                apriori: b.map(|g| apriori[g].as_ptr()),
                binit: b.map(|g| binit[g]),
                g0: b.map(|g| g0.add(g * k)),
                post: b.map(|g| post.add(g * k)),
                gq: gq.add(gq_len(k, 2) * r),
                trellis: tr.add(16 * k * r),
            }
        };
        match N {
            BATCH => siso_regs(k, &[lanes(0)]),
            QUAD => siso_regs(k, &[lanes(0), lanes(1)]),
            _ => unreachable!("a launch is a pair or a quad"),
        }
    }

    /// The γ phase of one register, sixteen steps per block per pass:
    /// each block's group `a` from the front in lanes 0 and 1, its
    /// mirror group `b` in lanes 2 and 3 with the step order reversed,
    /// so each stored slot holds both blocks' `[quad(p) | quad(K'−1−p)]`.
    #[inline(always)]
    unsafe fn stage_gammas(l: &Lanes, k: usize, h: usize) {
        let kp = 2 * h;
        let rev = load_64(&control_bytes()[8]);
        // Qwords `[a₀ a₁ | b₀ b₁ | c₀ c₁ | d₀ d₁]` → `[a₀ c₀ b₀ d₀ |
        // a₁ c₁ b₁ d₁]`: slot `p`'s quads, then slot `p + 1`'s.
        let fold = _mm512_setr_epi64(0, 4, 2, 6, 1, 5, 3, 7);
        let mut a = 0;
        while a < h {
            let b = kp - STATES - a;
            let ls = groups(l.sys, a, b);
            let g0v = _mm512_srai_epi16::<1>(_mm512_adds_epi16(ls, groups(l.apriori, a, b)));
            let gpv = _mm512_srai_epi16::<1>(groups(l.par, a, b));
            let g0 = l.g0;
            store_4x128(
                g0v,
                [g0[0].add(a), g0[1].add(a), g0[0].add(b), g0[1].add(b)].map(|p| p.cast()),
            );
            let q = quads(_mm512_shuffle_epi8(g0v, rev), _mm512_shuffle_epi8(gpv, rev));
            for (m, qm) in q.into_iter().enumerate() {
                let slot = l.gq.add(16 * (a + 2 * m));
                _mm512_store_si512(slot.cast(), _mm512_permutexvar_epi64(fold, qm));
            }
            a += STATES;
        }
        if kp < k {
            // The leftover group, block by block in lanes 0 and 1 (2
            // and 3 repeat them): each step's quads at the bottom of
            // each lane, 32 bytes a step.
            let ls = groups(l.sys, kp, kp);
            let g0v = _mm512_srai_epi16::<1>(_mm512_adds_epi16(ls, groups(l.apriori, kp, kp)));
            let gpv = _mm512_srai_epi16::<1>(groups(l.par, kp, kp));
            _mm_storeu_si128(l.g0[0].add(kp).cast(), _mm512_castsi512_si128(g0v));
            _mm_storeu_si128(l.g0[1].add(kp).cast(), _mm512_extracti32x4_epi32::<1>(g0v));
            for (m, qm) in quads(g0v, gpv).into_iter().enumerate() {
                let (x, step) = (_mm512_castsi512_si256(qm), l.gq.add(8 * kp + 32 * m));
                _mm256_store_si256(step.cast(), x);
                _mm256_store_si256(step.add(16).cast(), _mm256_unpackhi_epi64(x, x));
            }
        }
    }

    /// The single-block AVX2 kernel's schedule on `R` registers of two
    /// blocks each, step by step together (layouts: [`siso`]).
    #[target_feature(enable = "avx512f,avx512bw")]
    unsafe fn siso_regs<const R: usize>(k: usize, regs: &[Lanes; R]) {
        let h = STATES * (k / (2 * STATES));
        let kp = 2 * h;
        for l in regs {
            stage_gammas(l, k, h);
        }
        let c1 = make_ctl(true);
        let c2 = make_ctl(false);
        let floor = _mm512_set1_epi16(NEG_INF);
        let bcast0 = black_box(_mm512_set1_epi16(0x0100));

        // Leftover group, β side: walk `[K', K)` backward so the packed
        // phases start from β at step K'. The chains are lanes 0 and 1
        // of the packed controls: β leads phase 1, α trails phase 2.
        let mut b = [_mm256_setzero_si256(); R];
        for (b, l) in b.iter_mut().zip(regs) {
            *b = _mm256_loadu_si256(l.binit.as_ptr().cast());
        }
        for i in (kp..k).rev() {
            for (b, l) in b.iter_mut().zip(regs) {
                _mm256_store_si256(l.trellis.add(16 * i).cast(), *b);
                *b = leftover_step(*b, l, (kp, i), &c2, floor, bcast0).1;
            }
        }

        // Phase 1: α forward over `[0, h)` in lanes 0 and 1, β backward
        // over `[h, K')` in lanes 2 and 3; each step first stores the
        // row pairs it starts from.
        let mut a0 = [NEG_INF; 2 * STATES];
        a0[0] = 0;
        a0[STATES] = 0;
        let a0 = _mm512_castsi256_si512(_mm256_loadu_si256(a0.as_ptr().cast()));
        let mut s = [_mm512_setzero_si512(); R];
        for (s, b) in s.iter_mut().zip(b) {
            *s = _mm512_inserti64x4::<1>(a0, b);
        }
        for p in 0..h {
            for (s, l) in s.iter_mut().zip(regs) {
                _mm512_store_si512(l.trellis.add(32 * p).cast(), *s);
                let q = _mm512_broadcast_i64x4(_mm256_load_si256(l.gq.add(16 * p).cast()));
                let [_, _, cand] = candidates(*s, q, &c1);
                *s = select(cand, floor, bcast0);
            }
        }

        // Phase 2: the chains trade halves (β in lanes 0 and 1, α in 2
        // and 3) so slot `p` lines up as loaded, and each lane also
        // owns its step's posterior `max₀ − max₁` over `(α + γ) + β` —
        // the β lanes per source state (row α, gathered β), the α
        // lanes per destination state (gathered α, row β), as in the
        // single-block kernel. Four steps share one reduction tree.
        for s in &mut s {
            *s = _mm512_shuffle_i64x2::<0x4E>(*s, *s);
        }
        // Lanes 0 and 1 (β) as words, lanes 2 and 3 (α) as dwords —
        // opaque, or LLVM turns the masked ops below into half-register
        // `vshufi64x2` selects that queue on the shuffle port.
        let (beta_words, alpha_dwords) = black_box((0xFFFF, 0xFF00));
        let mut p = h;
        while p > 0 {
            let mut y = [[_mm512_setzero_si512(); 4]; R];
            for j in 0..4 {
                p -= 1;
                for ((s, y), l) in s.iter_mut().zip(&mut y).zip(regs) {
                    let row = _mm512_load_si512(l.trellis.add(32 * p).cast());
                    let q = _mm512_broadcast_i64x4(_mm256_load_si256(l.gq.add(16 * p).cast()));
                    let [st, gam, cand] = candidates(*s, q, &c2);
                    // `(α + γ) + β`: the β lanes add γ to their row, the
                    // α lanes' candidate already is `α[pred] + γ` — one
                    // masked add where the ymm kernel blends twice.
                    let mut t = [_mm512_setzero_si512(); 2];
                    for u in 0..2 {
                        let a_side = _mm512_mask_adds_epi16(cand[u], beta_words, row, gam[u]);
                        let b_side = _mm512_mask_blend_epi32(alpha_dwords, st[u], row);
                        t[u] = _mm512_adds_epi16(a_side, b_side);
                    }
                    y[j] = _mm512_max_epi16(
                        _mm512_unpacklo_epi16(t[0], t[1]),
                        _mm512_unpackhi_epi16(t[0], t[1]),
                    );
                    *s = select(cand, floor, bcast0);
                }
            }
            // y[j] belongs to steps p+3−j (β lanes) and K'−4−p+j (α
            // lanes); reducing in the order 3,2,1,0 leaves the β lanes
            // ascending in memory and the α lanes descending.
            for (y, l) in y.iter().zip(regs) {
                let u1 = _mm512_max_epi16(
                    _mm512_unpacklo_epi32(y[3], y[2]),
                    _mm512_unpackhi_epi32(y[3], y[2]),
                );
                let u2 = _mm512_max_epi16(
                    _mm512_unpacklo_epi32(y[1], y[0]),
                    _mm512_unpackhi_epi32(y[1], y[0]),
                );
                let v =
                    _mm512_max_epi16(_mm512_unpacklo_epi64(u1, u2), _mm512_unpackhi_epi64(u1, u2));
                let wf = _mm512_max_epi16(v, floor);
                // Low word of each dword: `max₀ − max₁`; the high word
                // is scrap, as in the 128-bit tiers.
                let post = _mm512_subs_epi16(wf, _mm512_srli_epi32::<16>(wf));
                let post = _mm512_mask_shuffle_epi32::<_MM_PERM_ABCD>(post, alpha_dwords, post);
                let (at, back) = (p, kp - 4 - p);
                let dst = [l.post[0].add(at), l.post[1].add(at)];
                let dst = [dst[0], dst[1], l.post[0].add(back), l.post[1].add(back)];
                store_4x128(post, dst.map(|p| p.cast()));
            }
        }

        // Leftover group, α side: one chain per block forward over
        // `[K', K)` against the β rows its twin stored,
        // destination-indexed as in the α lanes above.
        let mut a = [_mm256_setzero_si256(); R];
        for (a, s) in a.iter_mut().zip(s) {
            *a = _mm512_extracti64x4_epi64::<1>(s);
        }
        let floor2 = _mm512_castsi512_si256(floor);
        for i in kp..k {
            for (a, l) in a.iter_mut().zip(regs) {
                let brow = _mm256_load_si256(l.trellis.add(16 * i).cast());
                let (cand, next) = leftover_step(*a, l, (kp, i), &c1, floor, bcast0);
                let t0 = _mm256_adds_epi16(cand[0], brow);
                let t1 = _mm256_adds_epi16(cand[1], brow);
                let y =
                    _mm256_max_epi16(_mm256_unpacklo_epi16(t0, t1), _mm256_unpackhi_epi16(t0, t1));
                let z = _mm256_max_epi16(y, _mm256_srli_si256::<8>(y));
                let w = _mm256_max_epi16(z, _mm256_srli_si256::<4>(z));
                let wf = _mm256_max_epi16(w, floor2);
                let lv = _mm256_subs_epi16(wf, _mm256_srli_si256::<2>(wf));
                *l.post[0].add(i) = _mm256_extract_epi32::<0>(lv);
                *l.post[1].add(i) = _mm256_extract_epi32::<4>(lv);
                *a = next;
            }
        }
    }

    /// `dst[g·k + j] = src[g·k + table[j]]` for `k = table.len()`: each
    /// of `N` block-major runs permuted by `table`, sixteen steps of a
    /// run per `vpgatherdd`. A gather reads dwords, so `src` holds a
    /// word past its runs; the indices are clamped to `k − 1`, so a
    /// table that is not a permutation of `0..k` cannot read outside
    /// `src`.
    ///
    /// # Safety
    /// The host must support AVX-512BW.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn gather_rows<const N: usize>(dst: &mut [Llr], src: &[Llr], table: &[u32]) {
        let k = table.len();
        assert!(
            k > 0 && dst.len() == N * k && src.len() > N * k,
            "gather lengths"
        );
        let last = _mm512_set1_epi32(k as i32 - 1);
        let mut j = 0;
        while j + 16 <= k {
            let at = _mm512_loadu_si512(table.as_ptr().add(j).cast());
            let at = _mm512_min_epu32(at, last);
            for g in 0..N {
                let row = _mm512_i32gather_epi32::<2>(at, src.as_ptr().add(g * k).cast());
                let out = dst.as_mut_ptr().add(g * k + j).cast();
                _mm256_storeu_si256(out, _mm512_cvtepi32_epi16(row));
            }
            j += 16;
        }
        for (j, &p) in table.iter().enumerate().skip(j) {
            for g in 0..N {
                dst[g * k + j] = src[g * k + p as usize];
            }
        }
    }

    /// The next half-iteration's a-priori from a pass's block-major
    /// posterior and `γ₀`: the single-block decoder's `peel_extrinsic`,
    /// `scale_extrinsic(L − 2·γ₀)`, thirty-two steps per register.
    /// `packs_epi32` packs per 128-bit lane, so a qword permute
    /// restores sequential order; the pack itself is exact because
    /// every element is an in-range i16 after the sign-extending shift
    /// pair.
    ///
    /// # Safety
    /// The host must support AVX-512BW.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn peel(post: &[i32], g0: &[Llr], ext: &mut [Llr]) {
        let n = ext.len();
        assert!(post.len() == n && g0.len() == n);
        let unlace = _mm512_set_epi64(7, 5, 3, 1, 6, 4, 2, 0);
        let mut i = 0;
        while i + 32 <= n {
            let p0 = _mm512_loadu_si512(post.as_ptr().add(i).cast());
            let p1 = _mm512_loadu_si512(post.as_ptr().add(i + 16).cast());
            let w0 = _mm512_srai_epi32::<16>(_mm512_slli_epi32::<16>(p0));
            let w1 = _mm512_srai_epi32::<16>(_mm512_slli_epi32::<16>(p1));
            let pv = _mm512_permutexvar_epi64(unlace, _mm512_packs_epi32(w0, w1));
            let g0v = _mm512_loadu_si512(g0.as_ptr().add(i).cast());
            let ev = _mm512_subs_epi16(pv, _mm512_adds_epi16(g0v, g0v));
            let sv = _mm512_adds_epi16(_mm512_srai_epi16::<1>(ev), _mm512_srai_epi16::<2>(ev));
            _mm512_storeu_si512(ext.as_mut_ptr().add(i).cast(), sv);
            i += 32;
        }
        peel_extrinsic(DecoderIsa::Sse2, &post[i..], &g0[i..], &mut ext[i..]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::random_bits;
    use crate::llr::bit_to_llr;
    use crate::turbo::{NativeTurboDecoder, TurboDecoder, TurboEncoder};

    fn make_input(k: usize, seed: u64) -> (Vec<u8>, TurboLlrs) {
        let bits = random_bits(k, seed);
        let cw = TurboEncoder::new(k).encode(&bits);
        let soft: [Vec<Llr>; 3] = cw
            .to_dstreams()
            .iter()
            .map(|s| s.iter().map(|&b| bit_to_llr(b, 50)).collect())
            .collect::<Vec<_>>()
            .try_into()
            .unwrap();
        (bits, TurboLlrs::from_dstreams(&soft, k))
    }

    /// [`hard_decide_lanes`] against `llr_to_bit` per lane: no zero,
    /// then one planted in each lane in turn at the first, the last and
    /// either side of every 16-row step; lanes that are not live keep
    /// their bytes.
    #[cfg(target_arch = "x86_64")]
    fn lanes_decide_like_llr_to_bit<const N: usize>() {
        for k in [16usize, 40, 48, 104, 1024] {
            let mut rng = vran_util::rng::SmallRng::seed_from_u64((N * k) as u64);
            let clean: Vec<i32> = (0..N * k)
                .map(|_| (rng.next_u32() as i32) << 16 | (rng.next_u32() % 0xFFFF + 1) as i32)
                .collect();
            let rows = (0..k).filter(|i| i % 16 == 0 || i % 16 == 15);
            for zero in rows.map(Some).chain([None]) {
                for lane in 0..N {
                    let mut post = clean.clone();
                    if let Some(z) = zero {
                        post[lane * k + z] &= !0xFFFF;
                    }
                    let live: [bool; N] = core::array::from_fn(|g| g != (lane + 1) % N);
                    let mut bits: [Vec<u8>; N] = core::array::from_fn(|_| vec![9; k]);
                    let decided = hard_decide_lanes(DecoderIsa::best(), &post, &mut bits, live);
                    for g in 0..N {
                        let want: Vec<u8> = match live[g] {
                            true => (0..k).map(|i| llr_to_bit(post[g * k + i] as Llr)).collect(),
                            false => vec![9; k],
                        };
                        assert_eq!(bits[g], want, "N={N} K={k} lane {g} zero {zero:?}");
                        let vetoed = zero.is_some() && g == lane;
                        assert!(!live[g] || decided[g] != vetoed, "N={N} K={k} lane {g}");
                    }
                }
            }
        }
    }

    #[test]
    #[cfg(target_arch = "x86_64")]
    fn strided_hard_decisions_match_llr_to_bit_and_a_zero_vetoes_its_lane() {
        lanes_decide_like_llr_to_bit::<1>();
        lanes_decide_like_llr_to_bit::<BATCH>();
        lanes_decide_like_llr_to_bit::<QUAD>();
    }

    #[test]
    fn pair_decode_equals_two_scalar_decodes() {
        for k in [40usize, 64, 512] {
            let (bits_a, in_a) = make_input(k, 11 + k as u64);
            let (bits_b, in_b) = make_input(k, 29 + k as u64);
            let batch = NativeBatchTurboDecoder::new(k, 3);
            let [out_a, out_b] = batch.decode_pair(&[in_a.clone(), in_b.clone()]);
            let scalar = TurboDecoder::new(k, 3);
            assert_eq!(out_a.bits, scalar.decode(&in_a).bits, "K={k} block 0");
            assert_eq!(out_b.bits, scalar.decode(&in_b).bits, "K={k} block 1");
            assert_eq!(out_a.bits, bits_a);
            assert_eq!(out_b.bits, bits_b);
            assert_eq!(out_a.iterations_run, 3);
            assert_eq!(out_a.crc_ok, None, "no CRC was given");
        }
    }

    #[test]
    fn pair_decode_equals_single_native_decodes() {
        let k = 256;
        let (_, in_a) = make_input(k, 3);
        let (_, in_b) = make_input(k, 4);
        let batch = NativeBatchTurboDecoder::new(k, 2);
        let single = NativeTurboDecoder::new(k, 2);
        let [out_a, out_b] = batch.decode_pair(&[in_a.clone(), in_b.clone()]);
        assert_eq!(out_a.bits, single.decode(&in_a).bits);
        assert_eq!(out_b.bits, single.decode(&in_b).bits);
    }

    #[test]
    #[should_panic(expected = "share K")]
    fn mismatched_block_sizes_panic() {
        let (_, in_a) = make_input(40, 1);
        let (_, in_b) = make_input(48, 2);
        let _ = NativeBatchTurboDecoder::new(40, 1).decode_pair(&[in_a, in_b]);
    }

    #[test]
    fn quad_decode_equals_four_scalar_decodes() {
        for k in [40usize, 64, 512] {
            let mk = |s: u64| make_input(k, s + k as u64);
            let (payloads, inputs): (Vec<_>, Vec<_>) = [11, 29, 47, 83].map(mk).into_iter().unzip();
            let inputs: [TurboLlrs; QUAD] = inputs.try_into().unwrap();
            let batch = NativeBatchTurboDecoder::new(k, 3);
            let outs = batch.decode_quad(&inputs);
            let scalar = TurboDecoder::new(k, 3);
            for g in 0..QUAD {
                assert_eq!(
                    outs[g].bits,
                    scalar.decode(&inputs[g]).bits,
                    "K={k} block {g}"
                );
                assert_eq!(outs[g].bits, payloads[g]);
                assert_eq!(outs[g].iterations_run, 3);
                assert_eq!(outs[g].crc_ok, None, "no CRC was given");
            }
        }
    }

    #[test]
    fn quad_decode_equals_pair_and_single_native_decodes() {
        let k = 256;
        let inputs: [TurboLlrs; QUAD] = core::array::from_fn(|g| make_input(k, 5 + g as u64).1);
        let batch = NativeBatchTurboDecoder::new(k, 2);
        let single = NativeTurboDecoder::new(k, 2);
        let outs = batch.decode_quad(&inputs);
        let lo: &[TurboLlrs; BATCH] = inputs[..BATCH].try_into().unwrap();
        let hi: &[TurboLlrs; BATCH] = inputs[BATCH..].try_into().unwrap();
        let pairs = [batch.decode_pair(lo), batch.decode_pair(hi)];
        for g in 0..QUAD {
            assert_eq!(
                outs[g].bits,
                single.decode(&inputs[g]).bits,
                "block {g} vs single"
            );
            assert_eq!(
                outs[g].bits,
                pairs[g / BATCH][g % BATCH].bits,
                "block {g} vs pair"
            );
        }
    }

    #[test]
    #[should_panic(expected = "share K")]
    fn mismatched_quad_block_sizes_panic() {
        let (_, in_a) = make_input(40, 1);
        let (_, in_b) = make_input(48, 2);
        let _ = NativeBatchTurboDecoder::new(40, 1).decode_quad(&[
            in_a.clone(),
            in_a.clone(),
            in_a,
            in_b,
        ]);
    }

    #[test]
    fn staged_quad_matches_refs_and_reuses_scratch() {
        for k in [40usize, 512] {
            let inputs: [TurboLlrs; QUAD] =
                core::array::from_fn(|g| make_input(k, 900 + g as u64 + k as u64).1);
            let batch = NativeBatchTurboDecoder::new(k, 3);
            let expect = batch.decode_quad(&inputs);
            let mut scratch = BatchScratch::new();
            let mut bits: [Vec<u8>; QUAD] = core::array::from_fn(|_| Vec::new());
            let refs: [&TurboLlrs; QUAD] = core::array::from_fn(|g| &inputs[g]);
            for round in 0..3 {
                let iters = batch.decode_quad_staged_into(
                    refs.map(BlockLlrs::from_turbo),
                    &mut scratch,
                    &mut bits,
                );
                assert_eq!(iters, 3);
                for g in 0..QUAD {
                    assert_eq!(bits[g], expect[g].bits, "K={k} block {g} round {round}");
                }
            }
            if NativeBatchTurboDecoder::is_zmm_accelerated() {
                assert_eq!(scratch.allocations(), 1, "warm scratch must not grow");
                assert_eq!(scratch.reuses(), 2);
            }
        }
    }

    #[test]
    fn staged_pair_matches_pair_refs() {
        let k = 256;
        let inputs: [TurboLlrs; BATCH] = core::array::from_fn(|g| make_input(k, 70 + g as u64).1);
        let batch = NativeBatchTurboDecoder::new(k, 2);
        let expect = batch.decode_pair(&inputs);
        let mut scratch = BatchScratch::new();
        let mut bits: [Vec<u8>; BATCH] = core::array::from_fn(|_| Vec::new());
        let iters = batch.decode_pair_staged_into(
            [
                BlockLlrs::from_turbo(&inputs[0]),
                BlockLlrs::from_turbo(&inputs[1]),
            ],
            &mut scratch,
            &mut bits,
        );
        assert_eq!(iters, 2);
        assert_eq!(bits[0], expect[0].bits);
        assert_eq!(bits[1], expect[1].bits);
    }

    #[test]
    fn staged_decode_reads_detached_stream_buffers() {
        // The fused-ingest contract: blocks staged in pooled
        // `SoftStreams` (not inside a `TurboLlrs`) decode identically.
        let k = 104;
        let inputs: [TurboLlrs; QUAD] = core::array::from_fn(|g| make_input(k, 40 + g as u64).1);
        let expect = NativeBatchTurboDecoder::new(k, 2).decode_quad(&inputs);
        let pooled: Vec<SoftStreams> = inputs.iter().map(|i| i.streams.clone()).collect();
        let staged: [BlockLlrs<'_>; QUAD] =
            core::array::from_fn(|g| BlockLlrs::from_streams(&pooled[g], inputs[g].tails));
        let mut scratch = BatchScratch::new();
        let mut bits: [Vec<u8>; QUAD] = core::array::from_fn(|_| Vec::new());
        let iters = NativeBatchTurboDecoder::new(k, 2).decode_quad_staged_into(
            staged,
            &mut scratch,
            &mut bits,
        );
        assert_eq!(iters, 2);
        for g in 0..QUAD {
            assert_eq!(bits[g], expect[g].bits, "block {g}");
        }
    }

    #[test]
    fn lanes_stop_on_their_own_crc_like_the_single_block_decoder() {
        use crate::crc::CRC24B;
        use crate::turbo::native_decoder::tests::stop_blocks;
        const CAP: usize = 6;
        for k in [40usize, 512, 6144] {
            let single = NativeTurboDecoder::new(k, CAP);
            let alone = |input: &TurboLlrs, crc| {
                let out = single.decode_scratch(input, crc, &mut DecodeScratch::new());
                (out.bits, (out.iterations_run, out.crc_ok, out.siso_passes))
            };
            // Lanes that stop on SISO pass 1, 2 and 3, and one that
            // never passes — the stops a launch must keep apart.
            let [pass1, pass2, pass3, never, blind] = stop_blocks(k);
            for (block, want) in [
                (&pass1, (1, Some(true), 1)),
                (&pass2, (1, Some(true), 2)),
                (&pass3, (2, Some(true), 3)),
                (&never, (CAP, Some(false), 2 * CAP)),
                (&blind, (1, Some(true), 2)),
            ] {
                assert_eq!(alone(block, Some(&CRC24B)).1, want, "K={k}");
                assert_eq!(alone(block, None).1, (CAP, None, 2 * CAP), "K={k}");
            }

            // Both tiers: the host's, and every lane a single decode.
            let host = NativeBatchTurboDecoder::new(k, CAP);
            let mut split = host.clone();
            split.use_avx512 = false;
            let mut scratch = BatchScratch::new();
            for (dec, crc) in [host, split]
                .iter()
                .flat_map(|d| [(d, Some(&CRC24B)), (d, None)])
            {
                let tier = (dec.use_avx512, crc.is_some());
                let passes0 = scratch.siso_passes();
                for quad in [
                    [&pass3, &pass1, &never, &pass2],
                    [&pass2, &pass1, &pass3, &blind],
                    [&pass1; QUAD],
                ] {
                    let mut bits: [Vec<u8>; QUAD] = Default::default();
                    let lanes = dec.decode_quad_lanes_into(
                        quad.map(BlockLlrs::from_turbo),
                        crc,
                        &mut scratch,
                        &mut bits,
                    );
                    for g in 0..QUAD {
                        let want = alone(quad[g], crc);
                        assert_eq!(
                            (&bits[g], lanes[g]),
                            (&want.0, want.1),
                            "K={k} {tier:?} lane {g}"
                        );
                    }
                }
                // A zmm launch runs as long as its slowest lane needs:
                // 12, 3 and 1 passes for the three quads above.
                if dec.use_avx512 && crc.is_some() {
                    assert_eq!(scratch.siso_passes() - passes0, 16, "K={k}");
                }

                for pair in [[&pass1, &pass3], [&never, &pass2], [&pass2, &pass2]] {
                    let mut bits: [Vec<u8>; BATCH] = Default::default();
                    let lanes = dec.decode_pair_lanes_into(
                        pair.map(BlockLlrs::from_turbo),
                        crc,
                        &mut scratch,
                        &mut bits,
                    );
                    for g in 0..BATCH {
                        let want = alone(pair[g], crc);
                        assert_eq!(
                            (&bits[g], lanes[g]),
                            (&want.0, want.1),
                            "K={k} {tier:?} lane {g}"
                        );
                    }
                }
            }
        }
    }

    /// Median of 15 alternated pairs: one `N`-lane launch against `N`
    /// serial single-block native decodes of the same blocks at
    /// K = 6144, four iterations, failing unless the launch is more
    /// than `bar` times faster. Skipped (not failed) where the host
    /// lacks the zmm kernel — exactness is covered unconditionally
    /// above.
    ///
    /// On a 2-vCPU Sapphire Rapids guest, in the test build, this
    /// kernel read 2.0–2.2× (quad) and 1.9–2.2× (pair); the
    /// α-then-β quad-in-zmm and pair-in-ymm bodies it replaced read
    /// 1.43–1.47× and 1.07–1.08×, so the bars (1.6×, 1.3×) fail them.
    fn launch_beats_serial_decodes<const N: usize>(bar: f64) {
        let name = format!("{N}-lane launch");
        if !NativeBatchTurboDecoder::is_zmm_accelerated() {
            eprintln!("{name} vs serial decodes: SKIPPED (no avx512bw)");
            return;
        }
        let (k, iters) = (6144, 4);
        let inputs: [TurboLlrs; N] = core::array::from_fn(|g| make_input(k, 300 + g as u64).1);
        let batch = NativeBatchTurboDecoder::new(k, iters);
        let single = NativeTurboDecoder::new(k, iters);
        let mut scratch = BatchScratch::new();
        let mut bits: [Vec<u8>; N] = core::array::from_fn(|_| Vec::new());
        let mut launch = || {
            let refs = inputs.each_ref().map(BlockLlrs::from_turbo);
            std::hint::black_box(batch.launch(refs, None, &mut scratch, &mut bits));
        };
        let mut serial_scratch = DecodeScratch::new();
        let mut serial = || {
            for i in &inputs {
                let i = std::hint::black_box(i);
                std::hint::black_box(single.decode_scratch(i, None, &mut serial_scratch));
            }
        };
        // Warm up, then judge the median of alternated back-to-back
        // pairs, so neither a scheduler blip nor a clock that drifts
        // between two blocks of runs can fail the build.
        launch();
        serial();
        let timed = |f: &mut dyn FnMut()| {
            let t = std::time::Instant::now();
            f();
            t.elapsed().as_secs_f64()
        };
        let pairs =
            vran_util::paired::paired_ratio(15, 0.0, || timed(&mut launch), || timed(&mut serial));
        let (speedup, launch_ns, serial_ns) = (pairs.median, pairs.a_s * 1e9, pairs.b_s * 1e9);
        eprintln!("{name}: {speedup:.2}× over {N} serial decodes at K={k}");
        assert!(
            speedup > bar,
            "a {name} must beat {N} serial native decodes by {bar}×: {speedup:.2}× \
             ({serial_ns:.0} ns serial vs {launch_ns:.0} ns batched)"
        );
        // A zmm holds two blocks where the single-block kernel's ymm
        // holds one.
        assert!(
            speedup < 3.0,
            "speedup cannot exceed the width advantage: {speedup:.2}×"
        );
    }

    #[test]
    fn quad_zmm_beats_four_serial_native_decodes() {
        launch_beats_serial_decodes::<QUAD>(1.6);
    }

    #[test]
    fn pair_zmm_beats_two_serial_native_decodes() {
        launch_beats_serial_decodes::<BATCH>(1.3);
    }
}
