//! AVX2/AVX-512BW multi-block-per-register native batch turbo
//! decoding.
//!
//! The real-hardware counterpart of the VM batch decoder
//! `apcm::turbo::batch_decoder`: the 8-state α/β recursions cannot
//! widen, so a ymm register carries *two* independent code blocks and
//! a zmm register carries *four*, one per 128-bit lane. AVX2's
//! `_mm256_shuffle_epi8`,
//! `_mm256_srli_si256` and the `shufflelo/hi` family all operate
//! per-128-bit-lane — exactly the per-block state gathers the
//! recursion needs, with zero cross-block traffic — and AVX-512BW's
//! `_mm512_shuffle_epi8` / `_mm512_bsrli_epi128` keep the identical
//! lane-local contract across four lanes.
//!
//! Each 128-bit lane performs precisely the instruction sequence of
//! the single-block SSSE3 kernel in [`super::native_decoder`], so a
//! batched decode is bit-identical to two (or four) separate decodes
//! (and to the scalar oracle). Iteration control is the single-block
//! decoder's too, per lane — the stop rule of [`super::decoder`]: given
//! the launch's CRC, each lane reports the SISO pass on which *its*
//! block first passed (a begun iteration counting as one) and the bits
//! it had then, and the launch ends when every lane has passed or at
//! the cap; without a CRC every lane runs the cap.

use super::decoder::{beta_init_from_tails, DecodeOutcome, NEG_INF};
use super::native_decoder::{DecodeScratch, NativeTurboDecoder};
use super::trellis::STATES;
use crate::crc::Crc;
use crate::interleaver::QppInterleaver;
use crate::llr::{llr_to_bit, Llr, SoftStreams, TailLlrs, TurboLlrs};
use vran_simd::host::{self, HostIsa};

/// Number of blocks decoded per ymm pass.
pub const BATCH: usize = 2;

/// Number of blocks decoded per zmm pass.
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

/// Reusable batch-decode working memory — the [`DecodeScratch`] idiom
/// widened to N blocks: the interleaved branch metrics, the α trellis,
/// extrinsic/a-priori buffers and the permuted-systematic staging.
/// Owned by long-lived callers (stage-graph batch pools, the uplink
/// pipeline) so steady-state batch decodes perform no heap allocation;
/// the counters make that claim checkable.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    sys_pi: Vec<Llr>,
    g0: Vec<Llr>,
    gp: Vec<Llr>,
    alpha: Vec<Llr>,
    ext: Vec<Llr>,
    post: Vec<i32>,
    la1: Vec<Llr>,
    la2: Vec<Llr>,
    /// Degradation-tier scratch for the single-block decodes the pair
    /// path falls back to without AVX2.
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

    /// Size every buffer for `blocks` blocks of length `k`, growing
    /// only when the retained capacity is insufficient.
    #[cfg_attr(not(target_arch = "x86_64"), allow(dead_code))]
    fn ensure(&mut self, k: usize, blocks: usize) {
        let n = blocks * k;
        let mut grew = false;
        {
            let mut fit = |v: &mut Vec<Llr>, len: usize| {
                grew |= v.capacity() < len;
                v.resize(len, 0);
            };
            fit(&mut self.sys_pi, n);
            fit(&mut self.g0, n);
            fit(&mut self.gp, n);
            fit(&mut self.alpha, (k + 1) * blocks * STATES);
            fit(&mut self.ext, n);
            fit(&mut self.la1, n);
            fit(&mut self.la2, n);
        }
        grew |= self.post.capacity() < n;
        self.post.resize(n, 0);
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

/// Batched decoder: two equal-size blocks per ymm pass on AVX2
/// hardware, four per zmm pass on AVX-512BW, falling back to
/// sequential narrower decodes when the host lacks the feature
/// (identical outputs either way).
#[derive(Debug, Clone)]
pub struct NativeBatchTurboDecoder {
    il: QppInterleaver,
    max_iterations: usize,
    use_avx2: bool,
    use_avx512: bool,
}

impl NativeBatchTurboDecoder {
    /// Whether the ymm fast path is usable on this host.
    pub fn is_accelerated() -> bool {
        cfg!(target_arch = "x86_64") && host::has(HostIsa::Avx2)
    }

    /// Whether the quad-in-zmm fast path is usable on this host.
    pub fn is_zmm_accelerated() -> bool {
        cfg!(target_arch = "x86_64") && host::has(HostIsa::Avx512bw)
    }

    /// Decoder for two or four parallel blocks of size `k`.
    pub fn new(k: usize, max_iterations: usize) -> Self {
        assert!(max_iterations >= 1);
        Self {
            il: QppInterleaver::new(k),
            max_iterations,
            use_avx2: Self::is_accelerated(),
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
    /// Without AVX2 it degrades to two single-block native decodes,
    /// with identical per-lane results.
    pub fn decode_pair_lanes_into(
        &self,
        inputs: [BlockLlrs<'_>; BATCH],
        crc: Option<&Crc>,
        scratch: &mut BatchScratch,
        bits: &mut [Vec<u8>; BATCH],
    ) -> [LaneOutcome; BATCH] {
        self.check_lengths(&inputs);
        if !self.use_avx2 {
            let single = NativeTurboDecoder::new(self.il.k(), self.max_iterations);
            return core::array::from_fn(|g| {
                let input = &inputs[g];
                let passes0 = scratch.single.siso_passes();
                let (iterations_run, crc_ok) = single.decode_streams_capped_into(
                    input.sys,
                    input.p1,
                    input.p2,
                    &input.tails,
                    self.max_iterations,
                    crc,
                    &mut scratch.single,
                    &mut bits[g],
                );
                let passes = scratch.single.siso_passes() - passes0;
                (iterations_run, crc_ok, passes as usize)
            });
        }
        #[cfg(target_arch = "x86_64")]
        {
            self.decode_lanes(
                inputs,
                crc,
                scratch,
                bits,
                |sys, par, apriori, binit, g0, gp, alpha, ext, post| {
                    let binit = binit.as_flattened().try_into().expect("BATCH × STATES");
                    // SAFETY: `use_avx2` was read from the host probe,
                    // and `decode_lanes` sized every buffer for two
                    // blocks of the inputs' common K.
                    unsafe {
                        x86::siso_pair_avx2(sys, par, apriori, binit, g0, gp, alpha, ext, post)
                    }
                },
            )
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("use_avx2 implies x86_64")
    }

    /// Decode four blocks for all configured iterations (no CRC).
    /// Without AVX-512BW this degrades to two pair decodes (which
    /// themselves degrade to four single-block decodes without AVX2) —
    /// identical outputs on every tier by same-op/same-order
    /// construction.
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
    /// lane stopping on its own `crc`. Without AVX-512BW this degrades
    /// to two pair launches (which themselves degrade to four
    /// single-block decodes without AVX2) — identical per-lane results
    /// on every tier.
    pub fn decode_quad_lanes_into(
        &self,
        inputs: [BlockLlrs<'_>; QUAD],
        crc: Option<&Crc>,
        scratch: &mut BatchScratch,
        bits: &mut [Vec<u8>; QUAD],
    ) -> [LaneOutcome; QUAD] {
        self.check_lengths(&inputs);
        if !self.use_avx512 {
            let [i0, i1, i2, i3] = inputs;
            let (lo, hi) = bits.split_at_mut(BATCH);
            let lo: &mut [Vec<u8>; BATCH] = lo.try_into().unwrap();
            let hi: &mut [Vec<u8>; BATCH] = hi.try_into().unwrap();
            let [l0, l1] = self.decode_pair_lanes_into([i0, i1], crc, scratch, lo);
            let [l2, l3] = self.decode_pair_lanes_into([i2, i3], crc, scratch, hi);
            return [l0, l1, l2, l3];
        }
        #[cfg(target_arch = "x86_64")]
        {
            self.decode_lanes(
                inputs,
                crc,
                scratch,
                bits,
                |sys, par, apriori, binit, g0, gp, alpha, ext, post| {
                    let binit = binit.as_flattened().try_into().expect("QUAD × STATES");
                    // SAFETY: `use_avx512` was read from the host
                    // probe, and `decode_lanes` sized every buffer for
                    // four blocks of the inputs' common K.
                    unsafe {
                        x86::siso_quad_avx512(sys, par, apriori, binit, g0, gp, alpha, ext, post)
                    }
                },
            )
        }
        #[cfg(not(target_arch = "x86_64"))]
        unreachable!("use_avx512 implies x86_64")
    }

    fn check_lengths(&self, inputs: &[BlockLlrs<'_>]) {
        let k = self.il.k();
        for b in inputs {
            assert!(
                b.sys.len() == k && b.p1.len() == k && b.p2.len() == k,
                "all blocks in a batch share K"
            );
        }
    }

    /// The turbo iteration loop over `N` lanes, `siso` being the
    /// `N`-blocks-per-register SISO pass. This is the one place that
    /// decides when a batched block stops iterating, and it decides as
    /// [`NativeTurboDecoder::decode_streams_capped_into`] does.
    #[cfg(target_arch = "x86_64")]
    fn decode_lanes<const N: usize>(
        &self,
        inputs: [BlockLlrs<'_>; N],
        crc: Option<&Crc>,
        scratch: &mut BatchScratch,
        bits: &mut [Vec<u8>; N],
        siso: impl Fn(
            [&[Llr]; N],
            [&[Llr]; N],
            [&[Llr]; N],
            &[[Llr; STATES]; N],
            &mut [Llr],
            &mut [Llr],
            &mut [Llr],
            &mut [Llr],
            &mut [i32],
        ),
    ) -> [LaneOutcome; N] {
        let k = self.il.k();
        scratch.ensure(k, N);
        let BatchScratch {
            sys_pi,
            g0,
            gp,
            alpha,
            ext,
            post,
            la1,
            la2,
            siso_passes,
            ..
        } = scratch;
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
        // lane whose CRC passed is done: its 128 bits keep computing, but
        // its buffer and outcome are never written again.
        let mut lanes: [LaneOutcome; N] = [(0, None, 0); N];
        let mut decide = |post: &[i32], passes: usize| {
            let live = lanes.map(|(_, crc_ok, _)| crc_ok != Some(true));
            let decided = if passes.is_multiple_of(2) {
                for (g, blk) in bits.iter_mut().enumerate().filter(|&(g, _)| live[g]) {
                    for (b, &p) in blk.iter_mut().zip(pi_inv) {
                        *b = llr_to_bit(post[N * p as usize + g] as Llr);
                    }
                }
                [true; N]
            } else {
                hard_decide_lanes(post, bits, live)
            };
            for (g, (lane, blk)) in lanes.iter_mut().zip(bits.iter()).enumerate() {
                if live[g] {
                    let ok = crc.map(|c| decided[g] && c.check(blk).is_some());
                    *lane = (passes.div_ceil(2), ok, passes);
                }
            }
            lanes.iter().all(|&(_, crc_ok, _)| crc_ok == Some(true))
        };
        // `ext` arrives scaled and block-interleaved, so each gather
        // is one table lookup and one `N`-wide row read per step,
        // fanned out to the block-major a-priori buffers.
        for it in 0..self.max_iterations {
            siso(sys, p1, parts(la1, k), &binit1, g0, gp, alpha, ext, post);
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
            gather_rows::<N>(la2, ext, pi);
            siso(
                parts(sys_pi, k),
                p2,
                parts(la2, k),
                &binit2,
                g0,
                gp,
                alpha,
                ext,
                post,
            );
            *siso_passes += 1;
            // Hard decisions are observable only through the CRC and
            // the final output, so without a CRC the de-permuting bit
            // pass runs once, after the last iteration.
            let last = it + 1 == self.max_iterations;
            if (crc.is_some() || last) && decide(post, 2 * it + 2) {
                break;
            }
            // Only a further iteration reads the second extrinsic.
            if !last {
                gather_rows::<N>(la1, ext, pi_inv);
            }
        }
        lanes
    }
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

/// [`super::native_decoder::hard_decide`] for the lanes of a
/// block-interleaved pass (`post[N·i + g]` is lane `g`'s step `i`):
/// each live lane's hard decisions in natural order, and per lane
/// whether every bit was decided. A lane that is not live is not
/// written. Four lanes go 16 rows a step — the packs that narrow the
/// posteriors also bring each lane's bytes together; pairs, on their
/// way out (ROADMAP item 2a), keep the strided loop.
#[cfg(target_arch = "x86_64")]
fn hard_decide_lanes<const N: usize>(
    post: &[i32],
    bits: &mut [Vec<u8>; N],
    live: [bool; N],
) -> [bool; N] {
    let k = post.len() / N;
    assert!(post.len() == N * k && bits.iter().all(|b| b.len() == k));
    let (mut decided, mut done) = ([true; N], 0);
    if N == QUAD && host::has(HostIsa::Avx512bw) {
        let out = bits.each_mut().map(|b| b.as_mut_ptr());
        // SAFETY: the host has AVX-512BW; `post` holds `k` rows of four
        // lanes and every lane's buffer `k` bytes, checked above.
        done = unsafe { x86::hard_decide_quad(post, &out, &live, &mut decided) };
    }
    for (g, blk) in bits.iter_mut().enumerate().filter(|&(g, _)| live[g]) {
        for (b, row) in blk[done..].iter_mut().zip(post[N * done..].chunks_exact(N)) {
            *b = llr_to_bit(row[g] as Llr);
            decided[g] &= row[g] as Llr != 0;
        }
    }
    decided
}

/// `dst[g·k + j] = src[N·table[j] + g]` for `k = table.len()`: permute
/// a block-interleaved array by `table` while splitting it into `N`
/// block-major runs.
#[cfg(target_arch = "x86_64")]
fn gather_rows<const N: usize>(dst: &mut [Llr], src: &[Llr], table: &[u32]) {
    let k = table.len();
    assert!(dst.len() == N * k && src.len() == N * k);
    let mut runs = dst.chunks_exact_mut(k);
    let mut runs: [&mut [Llr]; N] = core::array::from_fn(|_| runs.next().unwrap());
    for (j, &p) in table.iter().enumerate() {
        let row = &src[N * p as usize..][..N];
        for (run, &e) in runs.iter_mut().zip(row) {
            run[j] = e;
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::super::trellis;
    use super::*;
    use std::arch::x86_64::*;

    /// Byte-level shuffle control for one 128-bit lane, from a
    /// lane-level i16 gather table.
    fn lane_ctrl(table: [u8; STATES]) -> [i8; 16] {
        let mut c = [0i8; 16];
        for (i, &s) in table.iter().enumerate() {
            c[2 * i] = (2 * s) as i8;
            c[2 * i + 1] = (2 * s + 1) as i8;
        }
        c
    }

    fn sign_vec(par: [u8; STATES]) -> [i16; STATES] {
        core::array::from_fn(|i| if par[i] == 0 { 1 } else { -1 })
    }

    struct Ctl {
        pred0: __m256i,
        pred1: __m256i,
        next0: __m256i,
        next1: __m256i,
        bcast0: __m256i,
        pairsel: __m256i,
        sgn_pp0: __m256i,
        sgn_pp1: __m256i,
        sgn_np0: __m256i,
        sgn_np1: __m256i,
        floor: __m256i,
    }

    /// Replicate a 16-byte control into both 128-bit lanes —
    /// `_mm256_shuffle_epi8` indexes are lane-local, which is exactly
    /// the per-block state gather.
    #[inline(always)]
    unsafe fn dup_ctrl(a: [i8; 16]) -> __m256i {
        let x = _mm_loadu_si128(a.as_ptr() as *const __m128i);
        _mm256_set_m128i(x, x)
    }

    #[inline(always)]
    unsafe fn dup_mask(a: [i16; 8]) -> __m256i {
        let x = _mm_loadu_si128(a.as_ptr() as *const __m128i);
        _mm256_set_m128i(x, x)
    }

    #[inline(always)]
    unsafe fn make_ctl() -> Ctl {
        // Shuffle controls go through `black_box` for the same reason
        // as the single-block kernel's: LLVM otherwise re-expands the
        // constant-control `pshufb`s into multi-µop shuffle chains.
        use core::hint::black_box;
        // Low lane selects block 0's i16 (bytes 0-1 of the broadcast
        // dword), high lane block 1's (bytes 2-3).
        let mut pairsel = [0i8; 32];
        for (i, b) in pairsel.iter_mut().enumerate() {
            *b = if i < 16 {
                (i % 2) as i8
            } else {
                (2 + i % 2) as i8
            };
        }
        Ctl {
            pred0: black_box(dup_ctrl(lane_ctrl(trellis::pred_table(0)))),
            pred1: black_box(dup_ctrl(lane_ctrl(trellis::pred_table(1)))),
            next0: black_box(dup_ctrl(lane_ctrl(trellis::next_table(0)))),
            next1: black_box(dup_ctrl(lane_ctrl(trellis::next_table(1)))),
            bcast0: black_box(dup_ctrl([0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1])),
            pairsel: black_box(_mm256_loadu_si256(pairsel.as_ptr() as *const __m256i)),
            sgn_pp0: dup_mask(sign_vec(trellis::pred_parity(0))),
            sgn_pp1: dup_mask(sign_vec(trellis::pred_parity(1))),
            sgn_np0: dup_mask(sign_vec(trellis::next_parity(0))),
            sgn_np1: dup_mask(sign_vec(trellis::next_parity(1))),
            floor: _mm256_set1_epi16(NEG_INF),
        }
    }

    /// Both blocks' branch metric at `step` in one shot: a dword
    /// broadcast of the interleaved pair, then a lane-local byte
    /// shuffle fans block 0's i16 across the low lane and block 1's
    /// across the high lane.
    #[inline(always)]
    unsafe fn pair_bcast(buf: &[Llr], step: usize, sel: __m256i) -> __m256i {
        let d = (buf.as_ptr().add(BATCH * step) as *const i32).read_unaligned();
        _mm256_shuffle_epi8(_mm256_set1_epi32(d), sel)
    }

    /// `±γ₀ ± γₚ` for both hypotheses; `vpsignw` with a ±1 mask equals
    /// `subs16(0, ·)` because `|γ| ≤ 2¹⁴` after the `>>1` halving.
    #[inline(always)]
    unsafe fn gammas(
        g0b: __m256i,
        gpb: __m256i,
        sgn0: __m256i,
        sgn1: __m256i,
    ) -> (__m256i, __m256i) {
        let ng0 = _mm256_subs_epi16(_mm256_setzero_si256(), g0b);
        (
            _mm256_adds_epi16(g0b, _mm256_sign_epi16(gpb, sgn0)),
            _mm256_adds_epi16(ng0, _mm256_sign_epi16(gpb, sgn1)),
        )
    }

    /// [`super::hard_decide_lanes`] for four lanes, 16 rows per step;
    /// returns the rows covered (all but a ragged end).
    ///
    /// # Safety
    /// AVX-512BW; `post` holds four lanes per row and every live
    /// `out[g]` a byte per row.
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn hard_decide_quad(
        post: &[i32],
        out: &[*mut u8],
        live: &[bool],
        decided: &mut [bool],
    ) -> usize {
        let one = _mm512_set1_epi8(1);
        // 4 × 4 transposes: of the bytes of each 128 bits, and of the
        // dwords of the register
        let t4 = _mm_setr_epi8(0, 4, 8, 12, 1, 5, 9, 13, 2, 6, 10, 14, 3, 7, 11, 15);
        let (t4, t16) = (_mm512_broadcast_i32x4(t4), _mm512_cvtepi8_epi32(t4));
        let mut nonzero = !0u64;
        let steps = post.len() / 64;
        for i in 0..steps {
            let p = post.as_ptr().add(64 * i).cast::<__m512i>();
            let l = |j| _mm512_slli_epi32(_mm512_loadu_si512(p.add(j).cast()), 16);
            let (lo, hi) = (
                _mm512_packs_epi32(l(0), l(1)),
                _mm512_packs_epi32(l(2), l(3)),
            );
            // 128 bits ℓ: rows ℓ, ℓ+4, ℓ+8, ℓ+12, four lanes' bytes each
            let x = _mm512_shuffle_epi8(_mm512_packs_epi16(lo, hi), t4);
            // → lane g's rows as dword g → lane g's 16 rows as 128 bits g
            let x = _mm512_shuffle_epi8(_mm512_permutexvar_epi32(t16, x), t4);
            nonzero &= _mm512_test_epi8_mask(x, x);
            let b = _mm512_and_si512(_mm512_srli_epi16(x, 7), one);
            let b = [
                _mm512_castsi512_si128(b),
                _mm512_extracti32x4_epi32::<1>(b),
                _mm512_extracti32x4_epi32::<2>(b),
                _mm512_extracti32x4_epi32::<3>(b),
            ];
            for g in 0..QUAD {
                if live[g] {
                    _mm_storeu_si128(out[g].add(16 * i).cast(), b[g]);
                }
            }
        }
        for (g, d) in decided.iter_mut().enumerate() {
            *d = (nonzero >> (16 * g)) as u16 == u16::MAX;
        }
        16 * steps
    }

    /// One fused SISO pass over two blocks. `sys`/`par`/`apriori` are
    /// per-block slices read in place (no block-major staging copy);
    /// `g0`, `gp` and `ext` are written pair-interleaved
    /// (`[2*step+block]`, `ext` already through `scale_extrinsic`),
    /// `post` is dword-stride pair-interleaved;
    /// `alpha` holds `(K+1) × 16` lanes, `binit` the two blocks' β
    /// terminations.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2")]
    pub unsafe fn siso_pair_avx2(
        sys: [&[Llr]; BATCH],
        par: [&[Llr]; BATCH],
        apriori: [&[Llr]; BATCH],
        binit: &[Llr; BATCH * STATES],
        g0: &mut [Llr],
        gp: &mut [Llr],
        alpha: &mut [Llr],
        ext: &mut [Llr],
        post: &mut [i32],
    ) {
        let k = sys[0].len();
        let n = BATCH * k;
        debug_assert!(k.is_multiple_of(STATES));
        debug_assert!(sys.iter().all(|s| s.len() == k));
        debug_assert!(par.iter().all(|s| s.len() == k));
        debug_assert!(apriori.iter().all(|s| s.len() == k));
        debug_assert!(g0.len() == n && gp.len() == n);
        debug_assert!(ext.len() == n && post.len() == n);
        debug_assert!(alpha.len() == (k + 1) * BATCH * STATES);
        let ctl = make_ctl();
        let lanes = BATCH * STATES;

        // γ phase: per-block metrics in xmm halves, stored interleaved
        // so the recursions can broadcast a step's pair with one dword
        // load.
        let mut i = 0;
        while i < k {
            let pair = |bufs: [&[Llr]; BATCH]| {
                (
                    _mm_loadu_si128(bufs[0].as_ptr().add(i) as *const __m128i),
                    _mm_loadu_si128(bufs[1].as_ptr().add(i) as *const __m128i),
                )
            };
            let (ls0, ls1) = pair(sys);
            let (la0, la1) = pair(apriori);
            let (lp0, lp1) = pair(par);
            let g0a = _mm_srai_epi16(_mm_adds_epi16(ls0, la0), 1);
            let g0b = _mm_srai_epi16(_mm_adds_epi16(ls1, la1), 1);
            let gpa = _mm_srai_epi16(lp0, 1);
            let gpb = _mm_srai_epi16(lp1, 1);
            let at = |v: &mut [Llr], off: usize| v.as_mut_ptr().add(off) as *mut __m128i;
            _mm_storeu_si128(at(g0, BATCH * i), _mm_unpacklo_epi16(g0a, g0b));
            _mm_storeu_si128(at(g0, BATCH * i + 8), _mm_unpackhi_epi16(g0a, g0b));
            _mm_storeu_si128(at(gp, BATCH * i), _mm_unpacklo_epi16(gpa, gpb));
            _mm_storeu_si128(at(gp, BATCH * i + 8), _mm_unpackhi_epi16(gpa, gpb));
            i += 8;
        }

        // Forward α: blocks 0 and 1 each own a 128-bit half.
        let mut a0init = [NEG_INF; 16];
        a0init[0] = 0;
        a0init[STATES] = 0;
        let mut a = _mm256_loadu_si256(a0init.as_ptr() as *const __m256i);
        _mm256_storeu_si256(alpha.as_mut_ptr() as *mut __m256i, a);
        for step in 0..k {
            let g0b = pair_bcast(g0, step, ctl.pairsel);
            let gpb = pair_bcast(gp, step, ctl.pairsel);
            let (gam0, gam1) = gammas(g0b, gpb, ctl.sgn_pp0, ctl.sgn_pp1);
            let p0 = _mm256_shuffle_epi8(a, ctl.pred0);
            let p1 = _mm256_shuffle_epi8(a, ctl.pred1);
            let c0 = _mm256_adds_epi16(p0, gam0);
            let c1 = _mm256_adds_epi16(p1, gam1);
            let m = _mm256_max_epi16(_mm256_max_epi16(c0, c1), ctl.floor);
            let norm = _mm256_shuffle_epi8(m, ctl.bcast0);
            a = _mm256_subs_epi16(m, norm);
            _mm256_storeu_si256(
                alpha.as_mut_ptr().add((step + 1) * lanes) as *mut __m256i,
                a,
            );
        }

        // Backward β fused with the posterior; the joint interleaved
        // reduction and the dword-stride posterior store mirror the
        // single-block kernel (`srli`/`unpack` are lane-local, so each
        // block reduces inside its own half).
        let mut b = _mm256_loadu_si256(binit.as_ptr() as *const __m256i);
        for step in (0..k).rev() {
            let g0b = pair_bcast(g0, step, ctl.pairsel);
            let gpb = pair_bcast(gp, step, ctl.pairsel);
            let (gam0, gam1) = gammas(g0b, gpb, ctl.sgn_np0, ctl.sgn_np1);
            let b0 = _mm256_shuffle_epi8(b, ctl.next0);
            let b1 = _mm256_shuffle_epi8(b, ctl.next1);
            let av = _mm256_loadu_si256(alpha.as_ptr().add(step * lanes) as *const __m256i);
            let t0 = _mm256_adds_epi16(_mm256_adds_epi16(av, gam0), b0);
            let t1 = _mm256_adds_epi16(_mm256_adds_epi16(av, gam1), b1);
            let y = _mm256_max_epi16(_mm256_unpacklo_epi16(t0, t1), _mm256_unpackhi_epi16(t0, t1));
            let z = _mm256_max_epi16(y, _mm256_srli_si256(y, 8));
            let w = _mm256_max_epi16(z, _mm256_srli_si256(z, 4));
            let wf = _mm256_max_epi16(w, ctl.floor);
            let lv = _mm256_subs_epi16(wf, _mm256_srli_si256(wf, 2));
            // Both blocks' posteriors with one 8-byte store: dword 0
            // of each half, low 16 bits the payload.
            let pd =
                _mm_unpacklo_epi32(_mm256_castsi256_si128(lv), _mm256_extracti128_si256(lv, 1));
            _mm_storel_epi64(post.as_mut_ptr().add(BATCH * step) as *mut __m128i, pd);
            let c0 = _mm256_adds_epi16(b0, gam0);
            let c1 = _mm256_adds_epi16(b1, gam1);
            let m = _mm256_max_epi16(_mm256_max_epi16(c0, c1), ctl.floor);
            let norm = _mm256_shuffle_epi8(m, ctl.bcast0);
            b = _mm256_subs_epi16(m, norm);
        }

        // Extrinsic peel-off, sixteen interleaved entries per pass:
        // `ext = scale_extrinsic(L − 2·γ₀)`, the oracle's ops on the
        // oracle's values (it scales the whole array, then permutes).
        // The `permute4x64` undoes `packs_epi32`'s lane-wise ordering;
        // the pack itself is exact because every lane is an in-range
        // i16 after the sign-extending shift pair.
        let mut i = 0;
        while i < n {
            let p0 = _mm256_loadu_si256(post.as_ptr().add(i) as *const __m256i);
            let p1 = _mm256_loadu_si256(post.as_ptr().add(i + 8) as *const __m256i);
            let w0 = _mm256_srai_epi32(_mm256_slli_epi32(p0, 16), 16);
            let w1 = _mm256_srai_epi32(_mm256_slli_epi32(p1, 16), 16);
            let pv = _mm256_permute4x64_epi64(_mm256_packs_epi32(w0, w1), 0b11011000);
            let g0v = _mm256_loadu_si256(g0.as_ptr().add(i) as *const __m256i);
            let ev = _mm256_subs_epi16(pv, _mm256_adds_epi16(g0v, g0v));
            let sv = _mm256_adds_epi16(_mm256_srai_epi16(ev, 1), _mm256_srai_epi16(ev, 2));
            _mm256_storeu_si256(ext.as_mut_ptr().add(i) as *mut __m256i, sv);
            i += 16;
        }
    }

    struct QCtl {
        pred0: __m512i,
        pred1: __m512i,
        next0: __m512i,
        next1: __m512i,
        bcast0: __m512i,
        quadsel: __m512i,
        neg_pp0: __mmask32,
        neg_pp1: __mmask32,
        neg_np0: __mmask32,
        neg_np1: __mmask32,
        floor: __m512i,
    }

    /// Replicate a 16-byte control into all four 128-bit lanes —
    /// `_mm512_shuffle_epi8` indexes are lane-local under AVX-512BW,
    /// the same per-block state-gather contract as the ymm kernel.
    #[inline(always)]
    unsafe fn quad_ctrl(a: [i8; 16]) -> __m512i {
        _mm512_broadcast_i32x4(_mm_loadu_si128(a.as_ptr() as *const __m128i))
    }

    /// Negation mask for all 32 i16 elements from a per-state parity
    /// table: block lanes repeat the same 8-bit pattern.
    fn neg_mask(par: [u8; STATES]) -> __mmask32 {
        let mut m8 = 0u32;
        for (s, &p) in par.iter().enumerate() {
            m8 |= u32::from(p != 0) << s;
        }
        m8 * 0x0101_0101
    }

    #[inline(always)]
    unsafe fn make_qctl() -> QCtl {
        use core::hint::black_box;
        // Lane L selects block L's i16 of the broadcast qword: bytes
        // 2L / 2L+1, alternating.
        let mut quadsel = [0i8; 64];
        for (i, b) in quadsel.iter_mut().enumerate() {
            *b = (2 * (i / 16) + i % 2) as i8;
        }
        QCtl {
            pred0: black_box(quad_ctrl(lane_ctrl(trellis::pred_table(0)))),
            pred1: black_box(quad_ctrl(lane_ctrl(trellis::pred_table(1)))),
            next0: black_box(quad_ctrl(lane_ctrl(trellis::next_table(0)))),
            next1: black_box(quad_ctrl(lane_ctrl(trellis::next_table(1)))),
            bcast0: black_box(quad_ctrl([0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1])),
            quadsel: black_box(_mm512_loadu_si512(quadsel.as_ptr() as *const _)),
            neg_pp0: neg_mask(trellis::pred_parity(0)),
            neg_pp1: neg_mask(trellis::pred_parity(1)),
            neg_np0: neg_mask(trellis::next_parity(0)),
            neg_np1: neg_mask(trellis::next_parity(1)),
            floor: _mm512_set1_epi16(NEG_INF),
        }
    }

    /// All four blocks' branch metric at `step` in one shot: a qword
    /// broadcast of the interleaved quad, then a lane-local byte
    /// shuffle fans block L's i16 across lane L.
    #[inline(always)]
    unsafe fn quad_bcast(buf: &[Llr], step: usize, sel: __m512i) -> __m512i {
        let q = (buf.as_ptr().add(QUAD * step) as *const i64).read_unaligned();
        _mm512_shuffle_epi8(_mm512_set1_epi64(q), sel)
    }

    /// `±γ₀ ± γₚ` for both hypotheses. AVX-512 has no `vpsignw`; a
    /// masked wrapping subtract-from-zero is the exact same negation
    /// the ymm kernel's ±1 `vpsignw` performs.
    #[inline(always)]
    unsafe fn quad_gammas(
        g0b: __m512i,
        gpb: __m512i,
        neg0: __mmask32,
        neg1: __mmask32,
    ) -> (__m512i, __m512i) {
        let zero = _mm512_setzero_si512();
        let ng0 = _mm512_subs_epi16(zero, g0b);
        (
            _mm512_adds_epi16(g0b, _mm512_mask_sub_epi16(gpb, neg0, zero, gpb)),
            _mm512_adds_epi16(ng0, _mm512_mask_sub_epi16(gpb, neg1, zero, gpb)),
        )
    }

    /// One fused SISO pass over four blocks: the zmm widening of
    /// [`siso_pair_avx2`], each 128-bit lane running the identical
    /// instruction sequence on its own block. `sys`/`par`/`apriori`
    /// are per-block slices read in place (no block-major staging
    /// copy); `g0`, `gp` and `ext` are written quad-interleaved
    /// (`[4*step+block]`, `ext` already through `scale_extrinsic`),
    /// `post` is dword-stride quad-interleaved;
    /// `alpha` holds `(K+1) × 32` lanes, `binit` the four blocks' β
    /// terminations.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f,avx512bw")]
    pub unsafe fn siso_quad_avx512(
        sys: [&[Llr]; QUAD],
        par: [&[Llr]; QUAD],
        apriori: [&[Llr]; QUAD],
        binit: &[Llr; QUAD * STATES],
        g0: &mut [Llr],
        gp: &mut [Llr],
        alpha: &mut [Llr],
        ext: &mut [Llr],
        post: &mut [i32],
    ) {
        let k = sys[0].len();
        let n = QUAD * k;
        debug_assert!(k.is_multiple_of(STATES));
        debug_assert!(sys.iter().all(|s| s.len() == k));
        debug_assert!(par.iter().all(|s| s.len() == k));
        debug_assert!(apriori.iter().all(|s| s.len() == k));
        debug_assert!(g0.len() == n && gp.len() == n);
        debug_assert!(ext.len() == n && post.len() == n);
        debug_assert!(alpha.len() == (k + 1) * QUAD * STATES);
        let ctl = make_qctl();
        let lanes = QUAD * STATES;

        // γ phase: per-block metrics in xmm quarters, 4×8 i16
        // transposed through two unpack rounds so the recursions can
        // broadcast a step's quad with one qword load.
        let mut i = 0;
        while i < k {
            let quad = |bufs: [&[Llr]; QUAD]| -> [__m128i; QUAD] {
                core::array::from_fn(|g| _mm_loadu_si128(bufs[g].as_ptr().add(i) as *const __m128i))
            };
            let ls = quad(sys);
            let la = quad(apriori);
            let lp = quad(par);
            let g0x: [__m128i; QUAD] =
                core::array::from_fn(|g| _mm_srai_epi16(_mm_adds_epi16(ls[g], la[g]), 1));
            let gpx: [__m128i; QUAD] = core::array::from_fn(|g| _mm_srai_epi16(lp[g], 1));
            let store4 = |v: &mut [Llr], x: [__m128i; QUAD]| {
                let t0 = _mm_unpacklo_epi16(x[0], x[1]);
                let t1 = _mm_unpacklo_epi16(x[2], x[3]);
                let t2 = _mm_unpackhi_epi16(x[0], x[1]);
                let t3 = _mm_unpackhi_epi16(x[2], x[3]);
                let base = v.as_mut_ptr();
                let at = |off: usize| base.add(QUAD * i + off) as *mut __m128i;
                _mm_storeu_si128(at(0), _mm_unpacklo_epi32(t0, t1));
                _mm_storeu_si128(at(8), _mm_unpackhi_epi32(t0, t1));
                _mm_storeu_si128(at(16), _mm_unpacklo_epi32(t2, t3));
                _mm_storeu_si128(at(24), _mm_unpackhi_epi32(t2, t3));
            };
            store4(g0, g0x);
            store4(gp, gpx);
            i += 8;
        }

        // Forward α: each block owns a 128-bit lane.
        let mut a0init = [NEG_INF; 32];
        for g in 0..QUAD {
            a0init[g * STATES] = 0;
        }
        let mut a = _mm512_loadu_si512(a0init.as_ptr() as *const _);
        _mm512_storeu_si512(alpha.as_mut_ptr() as *mut _, a);
        for step in 0..k {
            let g0b = quad_bcast(g0, step, ctl.quadsel);
            let gpb = quad_bcast(gp, step, ctl.quadsel);
            let (gam0, gam1) = quad_gammas(g0b, gpb, ctl.neg_pp0, ctl.neg_pp1);
            let p0 = _mm512_shuffle_epi8(a, ctl.pred0);
            let p1 = _mm512_shuffle_epi8(a, ctl.pred1);
            let c0 = _mm512_adds_epi16(p0, gam0);
            let c1 = _mm512_adds_epi16(p1, gam1);
            let m = _mm512_max_epi16(_mm512_max_epi16(c0, c1), ctl.floor);
            let norm = _mm512_shuffle_epi8(m, ctl.bcast0);
            a = _mm512_subs_epi16(m, norm);
            _mm512_storeu_si512(alpha.as_mut_ptr().add((step + 1) * lanes) as *mut _, a);
        }

        // Backward β fused with the posterior; `bsrli_epi128`/`unpack`
        // are lane-local, so each block reduces inside its own lane.
        // The posterior quad (dword 0 of each lane) compresses to one
        // 16-byte store.
        let mut b = _mm512_loadu_si512(binit.as_ptr() as *const _);
        for step in (0..k).rev() {
            let g0b = quad_bcast(g0, step, ctl.quadsel);
            let gpb = quad_bcast(gp, step, ctl.quadsel);
            let (gam0, gam1) = quad_gammas(g0b, gpb, ctl.neg_np0, ctl.neg_np1);
            let b0 = _mm512_shuffle_epi8(b, ctl.next0);
            let b1 = _mm512_shuffle_epi8(b, ctl.next1);
            let av = _mm512_loadu_si512(alpha.as_ptr().add(step * lanes) as *const _);
            let t0 = _mm512_adds_epi16(_mm512_adds_epi16(av, gam0), b0);
            let t1 = _mm512_adds_epi16(_mm512_adds_epi16(av, gam1), b1);
            let y = _mm512_max_epi16(_mm512_unpacklo_epi16(t0, t1), _mm512_unpackhi_epi16(t0, t1));
            let z = _mm512_max_epi16(y, _mm512_bsrli_epi128::<8>(y));
            let w = _mm512_max_epi16(z, _mm512_bsrli_epi128::<4>(z));
            let wf = _mm512_max_epi16(w, ctl.floor);
            let lv = _mm512_subs_epi16(wf, _mm512_bsrli_epi128::<2>(wf));
            let pd = _mm512_maskz_compress_epi32(0x1111, lv);
            _mm_storeu_si128(
                post.as_mut_ptr().add(QUAD * step) as *mut __m128i,
                _mm512_castsi512_si128(pd),
            );
            let c0 = _mm512_adds_epi16(b0, gam0);
            let c1 = _mm512_adds_epi16(b1, gam1);
            let m = _mm512_max_epi16(_mm512_max_epi16(c0, c1), ctl.floor);
            let norm = _mm512_shuffle_epi8(m, ctl.bcast0);
            b = _mm512_subs_epi16(m, norm);
        }

        // Extrinsic peel-off, thirty-two interleaved entries per pass:
        // `ext = scale_extrinsic(L − 2·γ₀)`. `packs_epi32` packs per
        // 128-bit lane, so a
        // qword permute restores sequential order; the pack itself is
        // exact because every element is an in-range i16 after the
        // sign-extending shift pair.
        let unlace = _mm512_set_epi64(7, 5, 3, 1, 6, 4, 2, 0);
        let mut i = 0;
        while i < n {
            let p0 = _mm512_loadu_si512(post.as_ptr().add(i) as *const _);
            let p1 = _mm512_loadu_si512(post.as_ptr().add(i + 16) as *const _);
            let w0 = _mm512_srai_epi32(_mm512_slli_epi32(p0, 16), 16);
            let w1 = _mm512_srai_epi32(_mm512_slli_epi32(p1, 16), 16);
            let pv = _mm512_permutexvar_epi64(unlace, _mm512_packs_epi32(w0, w1));
            let g0v = _mm512_loadu_si512(g0.as_ptr().add(i) as *const _);
            let ev = _mm512_subs_epi16(pv, _mm512_adds_epi16(g0v, g0v));
            let sv = _mm512_adds_epi16(_mm512_srai_epi16(ev, 1), _mm512_srai_epi16(ev, 2));
            _mm512_storeu_si512(ext.as_mut_ptr().add(i) as *mut _, sv);
            i += 32;
        }
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
                        post[N * z + lane] &= !0xFFFF;
                    }
                    let live: [bool; N] = core::array::from_fn(|g| g != (lane + 1) % N);
                    let mut bits: [Vec<u8>; N] = core::array::from_fn(|_| vec![9; k]);
                    let decided = hard_decide_lanes(&post, &mut bits, live);
                    for g in 0..N {
                        let want: Vec<u8> = match live[g] {
                            true => (0..k).map(|i| llr_to_bit(post[N * i + g] as Llr)).collect(),
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

            // Every tier: the host's, pair-split, and single-split.
            let mut tiers = vec![NativeBatchTurboDecoder::new(k, CAP)];
            for narrow in [(true, false), (false, false)] {
                let mut d = tiers[0].clone();
                d.use_avx2 &= narrow.0;
                d.use_avx512 &= narrow.1;
                tiers.push(d);
            }
            let mut scratch = BatchScratch::new();
            for (dec, crc) in tiers.iter().flat_map(|d| [(d, Some(&CRC24B)), (d, None)]) {
                let tier = (dec.use_avx2, dec.use_avx512, crc.is_some());
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

    #[test]
    fn quad_zmm_beats_four_serial_native_decodes() {
        // The acceptance bar for the quad kernel: on an AVX-512BW host
        // four blocks through one zmm pass must cost less wall-clock
        // than four serial single-block native decodes. Skipped (not
        // failed) where the host lacks the ISA — exactness is covered
        // unconditionally above.
        if !NativeBatchTurboDecoder::is_zmm_accelerated() {
            eprintln!("quad_zmm_beats_four_serial_native_decodes: SKIPPED (no avx512bw)");
            return;
        }
        let k = 6144;
        let iters = 4;
        let inputs: [TurboLlrs; QUAD] = core::array::from_fn(|g| make_input(k, 300 + g as u64).1);
        let batch = NativeBatchTurboDecoder::new(k, iters);
        let single = NativeTurboDecoder::new(k, iters);
        // Warm up, then judge the median of alternated back-to-back
        // pairs, so neither a scheduler blip nor a clock that drifts
        // between two blocks of runs can fail the build.
        let _ = batch.decode_quad(&inputs);
        for i in &inputs {
            let _ = single.decode(i);
        }
        let pairs = vran_util::paired::paired_ratio(
            9,
            0.0,
            || {
                let t = std::time::Instant::now();
                std::hint::black_box(batch.decode_quad(std::hint::black_box(&inputs)));
                t.elapsed().as_secs_f64()
            },
            || {
                let t = std::time::Instant::now();
                for i in &inputs {
                    std::hint::black_box(single.decode(std::hint::black_box(i)));
                }
                t.elapsed().as_secs_f64()
            },
        );
        let (speedup, quad_ns, serial_ns) = (pairs.median, pairs.a_s * 1e9, pairs.b_s * 1e9);
        assert!(
            speedup > 1.0,
            "batched zmm decode must beat 4 serial native decodes: {speedup:.2}× \
             ({serial_ns:.0} ns serial vs {quad_ns:.0} ns quad at K={k})"
        );
        assert!(
            speedup < 4.5,
            "speedup cannot exceed the lane advantage: {speedup:.2}×"
        );
    }
}
