//! The native turbo iteration loop, once for any number of lanes, and
//! the AVX-512BW multi-block decoder on it.
//!
//! `iterate` decodes `N` equal-K blocks, one per lane, under the stop
//! rule of [`super::decoder`]: given a CRC, each lane reports the SISO
//! pass on which *its* block first passed (a begun iteration counting as
//! one) and the bits it had then, and the call ends when every lane has
//! passed or at the cap; without a CRC every lane runs the cap. Only the
//! per-pass calls differ between widths, behind the private `Passes`
//! trait: [`NativeTurboDecoder`] runs one lane at its single-block tier
//! — the one-lane call is
//! [`NativeTurboDecoder::decode_streams_capped_into`] —
//! and `mitm::Zmm` two or four lanes at two blocks per zmm register. So
//! every lane is bit-identical to its block decoded alone (and to the
//! scalar oracle).
//!
//! The zmm launches are window batching on the machine. The 8-state
//! recursions cannot widen, so a wider register must carry more blocks:
//! the single-block AVX2 tier fills a ymm with one block's α and β
//! chains, and a zmm carries two blocks' — the same meet-in-the-middle
//! body (the `mitm` module, DESIGN §5.8) at two blocks per register. A
//! pair launch is one such register; a quad launch is two, interleaved
//! step by step so each hides the other's ≈ 6-cycle recurrence.
//!
//! One entry point, [`NativeBatchTurboDecoder::decode_blocks_into`],
//! takes any number of equal-K blocks and splits them as [`launches`]
//! says: quads while four remain, then a pair, then a one-lane call for
//! the leftover. Without AVX-512BW every block is a one-lane call.

#[cfg(target_arch = "x86_64")]
use super::decoder::beta_init_from_tails;
#[cfg(target_arch = "x86_64")]
use super::mitm::{self, Width, Zmm};
use super::native_decoder::{hard_decide, peel_extrinsic, siso_into, NativeTurboDecoder};
use super::trellis::STATES;
use crate::crc::Crc;
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

/// Words of branch metrics a call on `blocks` blocks stages: a quad per
/// step, and room for the leftover group's, one per 128-bit lane.
fn gq_len(k: usize, blocks: usize) -> usize {
    blocks * (4 * k + 4 * STATES)
}

/// Reusable decode working memory for the iteration loop at any width,
/// so for both decoders: [`super::DecodeScratch`] is this type. Per block, in
/// block-major runs, the a-priori pair, the permuted systematic, `γ₀`,
/// the extrinsic and the posterior; per call, the branch metrics and the
/// trellis. Owned by long-lived callers (the uplink pipeline, the stage
/// graph's batch pools) so steady-state decodes perform no heap
/// allocation; the counters make that claim checkable.
#[derive(Debug, Clone, Default)]
pub struct BatchScratch {
    la1: Vec<Llr>,
    la2: Vec<Llr>,
    sys_pi: Vec<Llr>,
    work: Work,
    allocations: u64,
    reuses: u64,
    siso_passes: u64,
}

/// The buffers a [`Passes`] call works in: `γ₀`, the extrinsic and the
/// posterior per block, the branch metrics and the trellis per call.
#[derive(Debug, Clone, Default)]
pub(super) struct Work {
    g0: Vec<Llr>,
    gq: Vec<Llr>,
    trellis: Vec<Llr>,
    ext: Vec<Llr>,
    post: Vec<i32>,
}

impl BatchScratch {
    /// Empty scratch; buffers grow on first use.
    pub fn new() -> Self {
        Self::default()
    }

    /// Grow every buffer to hold `blocks` blocks of length `k` at any
    /// width. No buffer shrinks: one scratch serves blocks of every K,
    /// and a call after a larger one must not re-zero what the kernels
    /// overwrite anyway, so a call works in the front of each.
    fn ensure(&mut self, k: usize, blocks: usize) {
        fn fit<T: Clone + Default>(v: &mut Vec<T>, len: usize) -> bool {
            let grows = v.capacity() < len;
            if v.len() < len {
                v.resize(len, T::default());
            }
            grows
        }
        let n = blocks * k;
        let w = &mut self.work;
        let grew = [
            fit(&mut self.la1, n),
            fit(&mut self.la2, n),
            fit(&mut self.sys_pi, n),
            fit(&mut w.g0, n),
            fit(&mut w.gq, gq_len(k, blocks) + ALIGN_SLACK),
            // The scalar tier stores K + 1 α rows.
            fit(&mut w.trellis, STATES * (n + 1) + ALIGN_SLACK),
            // The zmm gathers read `ext` a dword at a time.
            fit(&mut w.ext, n + 1),
            fit(&mut w.post, n),
        ];
        if grew.contains(&true) {
            self.allocations += 1;
        } else {
            self.reuses += 1;
        }
    }

    /// Decode calls (a launch, or one block alone) that had to grow at
    /// least one buffer.
    pub fn allocations(&self) -> u64 {
        self.allocations
    }

    /// Decode calls served entirely from retained capacity (i.e. heap
    /// allocations avoided).
    pub fn reuses(&self) -> u64 {
        self.reuses
    }

    /// SISO kernel passes run through this scratch, at any width (two
    /// per full iteration of a call).
    pub fn siso_passes(&self) -> u64 {
        self.siso_passes
    }
}

/// What one lane of a batch launch reports: `(iterations_run, crc_ok,
/// siso_passes)` — what [`NativeTurboDecoder::decode_streams_capped_into`]
/// returns for that block decoded alone, and the SISO passes it ran.
pub type LaneOutcome = (usize, Option<bool>, usize);

/// The launches [`NativeBatchTurboDecoder::decode_blocks_into`] splits
/// `n` equal-K blocks into, in order: quads while four remain, then a
/// pair, then a single (`7` → `4, 2, 1`).
pub fn launches(n: usize) -> impl Iterator<Item = usize> {
    let mut left = n;
    core::iter::from_fn(move || {
        let run = match left {
            0 => return None,
            QUAD.. => QUAD,
            BATCH.. => BATCH,
            _ => 1,
        };
        left -= run;
        Some(run)
    })
}

/// Batched decoder for any number of equal-size blocks: two per zmm
/// register on AVX-512BW hosts, and a leftover single (or, without
/// AVX-512BW, every block) as a one-lane call at the single-block
/// decoder's tier — identical per-block outputs either way.
#[derive(Debug, Clone)]
pub struct NativeBatchTurboDecoder {
    /// The single-block decoder: its tier runs the one-lane calls, and
    /// every call reads its QPP tables and iteration cap.
    single: NativeTurboDecoder,
    use_avx512: bool,
}

impl NativeBatchTurboDecoder {
    /// Whether the zmm kernel is usable on this host.
    pub fn is_zmm_accelerated() -> bool {
        cfg!(target_arch = "x86_64") && host::has(HostIsa::Avx512bw)
    }

    /// Decoder for blocks of size `k`, at most `max_iterations` each.
    pub fn new(k: usize, max_iterations: usize) -> Self {
        Self {
            single: NativeTurboDecoder::new(k, max_iterations),
            use_avx512: Self::is_zmm_accelerated(),
        }
    }

    /// Block size K.
    pub fn k(&self) -> usize {
        self.single.k()
    }

    /// Four blocks without a CRC, every lane running all configured
    /// iterations; returns that count. A wrapper over
    /// [`Self::decode_blocks_into`] kept for the repository benchmark's
    /// kernel table (`benchmark/src/kernels.rs`), which calls it by
    /// name.
    pub fn decode_quad_staged_into(
        &self,
        inputs: [BlockLlrs<'_>; QUAD],
        scratch: &mut BatchScratch,
        bits: &mut [Vec<u8>; QUAD],
    ) -> usize {
        let mut lanes = [(0, None, 0); QUAD];
        self.decode_blocks_into(&inputs, usize::MAX, None, scratch, bits, &mut lanes);
        lanes[0].0
    }

    /// Decode `blocks` (one or more, all of size K) in the launches
    /// [`launches`] names, reading the arranged streams in place from
    /// wherever the caller staged them. Block `g`'s hard decisions land
    /// in `bits[g]` and its outcome in `lanes[g]`: what
    /// [`NativeTurboDecoder::decode_streams_capped_into`] gives that
    /// block alone under the same `cap` — clamped to
    /// `1..=max_iterations` the same way — and `crc`. With a `crc`, a
    /// lane stops counting, and its buffer is final, at the first SISO
    /// pass whose hard decisions pass; a launch ends when all its lanes
    /// have passed or at the cap. Allocation-free once `scratch` and
    /// `bits` have warmed to this block size.
    pub fn decode_blocks_into(
        &self,
        blocks: &[BlockLlrs<'_>],
        cap: usize,
        crc: Option<&Crc>,
        scratch: &mut BatchScratch,
        bits: &mut [Vec<u8>],
        lanes: &mut [LaneOutcome],
    ) {
        assert!(!blocks.is_empty(), "a launch decodes at least one block");
        assert!(
            bits.len() == blocks.len() && lanes.len() == blocks.len(),
            "one bit buffer and one outcome per block"
        );
        // Without AVX-512BW each block of a launch is a call of its own.
        let calls = launches(blocks.len()).flat_map(|run| match self.use_avx512 {
            true => core::iter::repeat_n(run, 1),
            false => core::iter::repeat_n(1, run),
        });
        let (dec, mut at) = (&self.single, 0);
        for run in calls {
            let r = at..at + run;
            at += run;
            let (blocks, bits, lanes) = (&blocks[r.clone()], &mut bits[r.clone()], &mut lanes[r]);
            match run {
                #[cfg(target_arch = "x86_64")]
                QUAD => iterate::<QUAD>(&Zmm, dec, blocks, cap, crc, scratch, bits, lanes),
                #[cfg(target_arch = "x86_64")]
                BATCH => iterate::<BATCH>(&Zmm, dec, blocks, cap, crc, scratch, bits, lanes),
                _ => iterate::<1>(dec, dec, blocks, cap, crc, scratch, bits, lanes),
            }
        }
    }
}

/// The per-pass calls [`iterate`] makes at one width: everything that
/// differs between the single-block tiers and the zmm launches.
pub(super) trait Passes<const N: usize> {
    /// What a SISO pass needs of one lane's termination LLRs.
    type Ends: Copy;
    fn ends(&self, tail_sys: &[Llr; 3], tail_par: &[Llr; 3]) -> Self::Ends;
    /// One SISO pass over the lanes: the posteriors (low 16 bits of each
    /// element) to `w.post` and the `γ₀` they came from to `w.g0`, both
    /// block-major, each block's run in natural order.
    fn siso(
        &self,
        sys: [&[Llr]; N],
        par: [&[Llr]; N],
        apriori: [&[Llr]; N],
        ends: &[Self::Ends; N],
        w: &mut Work,
    );
    /// The next half-iteration's a-priori: the pass's extrinsic, peeled
    /// off `w.post` and `w.g0` already scaled, each lane's run permuted
    /// by `table` into `dst` (a plain indexed copy).
    fn extrinsic(&self, w: &mut Work, table: Perm<'_>, dst: &mut [Llr]);
}

/// One lane at the decoder's single-block tier: Scalar, SSE2, SSSE3,
/// and the ymm meet-in-the-middle body under AVX2.
impl Passes<1> for NativeTurboDecoder {
    type Ends = [[Llr; 3]; 2];

    fn ends(&self, tail_sys: &[Llr; 3], tail_par: &[Llr; 3]) -> Self::Ends {
        [*tail_sys, *tail_par]
    }

    fn siso(
        &self,
        [sys]: [&[Llr]; 1],
        [par]: [&[Llr]; 1],
        [apriori]: [&[Llr]; 1],
        [[ts, tp]]: &[Self::Ends; 1],
        w: &mut Work,
    ) {
        let k = sys.len();
        let gq = aligned(&mut w.gq, 4 * k);
        let alpha = aligned(&mut w.trellis, STATES * (k + 1));
        let (g0, post) = (&mut w.g0[..k], &mut w.post[..k]);
        siso_into(self.isa(), sys, par, apriori, ts, tp, g0, gq, alpha, post);
    }

    fn extrinsic(&self, w: &mut Work, table: Perm<'_>, dst: &mut [Llr]) {
        #[cfg(target_arch = "x86_64")]
        if self.zmm_extrinsic() {
            return zmm_extrinsic::<1>(w, table, dst);
        }
        let k = table.0.len();
        peel_extrinsic(self.isa(), &w.post[..k], &w.g0[..k], &mut w.ext[..k]);
        permute(table, &w.ext[..k], dst, |e| e);
    }
}

/// Two lanes (a pair) or four (a quad) at two blocks per zmm register.
#[cfg(target_arch = "x86_64")]
impl<const N: usize> Passes<N> for Zmm {
    type Ends = [Llr; STATES];

    fn ends(&self, tail_sys: &[Llr; 3], tail_par: &[Llr; 3]) -> Self::Ends {
        beta_init_from_tails(tail_sys, tail_par)
    }

    fn siso(
        &self,
        sys: [&[Llr]; N],
        par: [&[Llr]; N],
        apriori: [&[Llr]; N],
        ends: &[Self::Ends; N],
        w: &mut Work,
    ) {
        let (k, n) = (sys[0].len(), N * sys[0].len());
        let gq = aligned(&mut w.gq, gq_len(k, N));
        let trellis = aligned(&mut w.trellis, STATES * n);
        let (g0, post) = (&mut w.g0[..n], &mut w.post[..n]);
        mitm::siso::<Zmm, N>(sys, par, apriori, ends, g0, gq, trellis, post);
    }

    fn extrinsic(&self, w: &mut Work, table: Perm<'_>, dst: &mut [Llr]) {
        zmm_extrinsic::<N>(w, table, dst);
    }
}

/// The extrinsic of `N` lanes on zmm: the launches', and the AVX2 tier's
/// on AVX-512BW hosts. `ensure` sizes `ext` a word past its runs, which
/// the gather's dword reads need.
#[cfg(target_arch = "x86_64")]
fn zmm_extrinsic<const N: usize>(w: &mut Work, table: Perm<'_>, dst: &mut [Llr]) {
    let n = N * table.0.len();
    assert!(Zmm::detected(), "host lacks AVX-512BW");
    // SAFETY: the host has AVX-512BW, checked above; the slices are
    // checked by the callees.
    unsafe {
        x86::peel(&w.post[..n], &w.g0[..n], &mut w.ext[..n]);
        x86::gather_rows::<N>(dst, &w.ext[..n + 1], table.0);
    }
}

/// The turbo iteration loop over `N` lanes, one block each, for at most
/// `cap` iterations clamped to `1..=max_iterations` of `dec`, whose QPP
/// tables it reads; `passes` makes the per-pass calls. This is the one
/// native loop that decides when a block stops iterating: lane `g`'s
/// hard decisions land in `bits[g]` and its outcome in `lanes[g]`.
#[allow(clippy::too_many_arguments)]
pub(super) fn iterate<const N: usize>(
    passes: &impl Passes<N>,
    dec: &NativeTurboDecoder,
    blocks: &[BlockLlrs<'_>],
    cap: usize,
    crc: Option<&Crc>,
    scratch: &mut BatchScratch,
    bits: &mut [Vec<u8>],
    lanes: &mut [LaneOutcome],
) {
    let blocks: [BlockLlrs<'_>; N] = blocks.try_into().expect("one block per lane");
    let bits: &mut [Vec<u8>; N] = bits.try_into().expect("one bit buffer per lane");
    let lanes: &mut [LaneOutcome; N] = lanes.try_into().expect("one outcome per lane");
    let il = dec.interleaver();
    let (k, n) = (il.k(), N * il.k());
    let mut streams = blocks.iter().flat_map(|b| [b.sys, b.p1, b.p2]);
    assert!(streams.all(|s| s.len() == k), "blocks must share K");
    let iterations = cap.clamp(1, dec.max_iterations());
    scratch.ensure(k, N);
    for blk in bits.iter_mut() {
        blk.resize(k, 0);
    }
    let (la1, la2) = (&mut scratch.la1[..n], &mut scratch.la2[..n]);
    let (sys_pi, work) = (&mut scratch.sys_pi[..n], &mut scratch.work);
    let (pi, pi_inv) = (Perm(il.pi_table()), Perm(il.pi_inv_table()));
    let sys = blocks.map(|b| b.sys);
    let (p1, p2) = (blocks.map(|b| b.p1), blocks.map(|b| b.p2));
    let ends1 = blocks.map(|b| passes.ends(&b.tails.sys1, &b.tails.p1));
    let ends2 = blocks.map(|b| passes.ends(&b.tails.sys2, &b.tails.p2));
    // Block-major scratch splits into the per-block runs the caller's
    // streams arrive as.
    fn parts<const N: usize>(v: &[Llr], k: usize) -> [&[Llr]; N] {
        core::array::from_fn(|g| &v[g * k..(g + 1) * k])
    }

    // Pass `done`'s hard decisions and verdict for every lane that has
    // not passed: SISO 1's posterior (odd pass) lies in natural order
    // and faces the CRC only if it decided every bit, SISO 2's is read
    // through `pi_inv`. A lane whose CRC passed is done: its block may
    // keep computing, but its buffer and outcome are never written again.
    // The decisions run at the decoder's tier: AVX2 wherever zmm does.
    let isa = dec.isa();
    *lanes = [(0, None, 0); N];
    let mut decide = |post: &[i32], done: usize| {
        let runs = post.chunks_exact(k).zip(bits.iter_mut());
        for ((run, blk), lane) in runs.zip(lanes.iter_mut()) {
            if lane.1 == Some(true) {
                continue;
            }
            let decided = match done % 2 {
                1 => hard_decide(isa, run, blk),
                _ => {
                    permute(pi_inv, run, blk, |l| llr_to_bit(l as Llr));
                    true
                }
            };
            let ok = crc.map(|c| decided && c.check(blk).is_some());
            *lane = (done.div_ceil(2), ok, done);
        }
        lanes.iter().all(|&(_, ok, _)| ok == Some(true))
    };

    la1.fill(0);
    for it in 0..iterations {
        passes.siso(sys, p1, parts(la1, k), &ends1, work);
        scratch.siso_passes += 1;
        if crc.is_some() && decide(&work.post[..n], 2 * it + 1) {
            break;
        }
        // Only the permuted systematic needs staging — the kernels read
        // `sys`/`p1`/`p2` in place — and only SISO 2 reads it.
        if it == 0 {
            for (dst, sys) in sys_pi.chunks_exact_mut(k).zip(sys) {
                permute(pi, sys, dst, |s| s);
            }
        }
        // The extrinsic exists only for a pass that follows: 97 % of
        // `rx_bulk`'s blocks stopped above.
        passes.extrinsic(work, pi, la2);
        passes.siso(parts(sys_pi, k), p2, parts(la2, k), &ends2, work);
        scratch.siso_passes += 1;
        // Hard decisions are observable only through the CRC and the
        // final output, so without a CRC the de-permuting bit pass runs
        // once, after the last iteration (with one it overwrites the
        // decisions a failed SISO 1 check left).
        let last = it + 1 == iterations;
        if (crc.is_some() || last) && decide(&work.post[..n], 2 * it + 2) {
            break;
        }
        // Only a further iteration reads the second extrinsic.
        if !last {
            passes.extrinsic(work, pi_inv, la1);
        }
    }
}

/// One of a [`QppInterleaver`](crate::interleaver::QppInterleaver)'s two
/// tables: every entry is below its K.
#[derive(Clone, Copy)]
pub(super) struct Perm<'a>(&'a [u32]);

/// `dst[j] = f(src[table[j]])` — every interleaver gather of [`iterate`]
/// and its one-lane extrinsic below AVX-512BW, in one idiom: unchecked,
/// as bounds checks cost 7–10 % of an AVX2-tier decode whose extrinsic
/// gathers here (K ≥ 5696, Sapphire Rapids).
fn permute<S: Copy, D>(table: Perm<'_>, src: &[S], dst: &mut [D], f: impl Fn(S) -> D) {
    let k = table.0.len();
    assert!(src.len() == k && dst.len() == k);
    for (d, &p) in dst.iter_mut().zip(table.0) {
        // SAFETY: `p < k = src.len()`. A `Perm` is built only from a
        // `QppInterleaver`'s tables, whose entries are reduced mod K, and
        // the inverse's are a bijection's (`QppInterleaver::new` asserts
        // it); `src` is `k` long, asserted above.
        *d = f(unsafe { *src.get_unchecked(p as usize) });
    }
}

/// `len` words of `v` from its first 64-byte boundary (`v` has
/// [`ALIGN_SLACK`] words to spare): the kernel's rows are whole cache
/// lines, loaded and stored aligned.
pub(super) fn aligned(v: &mut [Llr], len: usize) -> &mut [Llr] {
    let skip = v.as_ptr().addr().wrapping_neg() % 64 / size_of::<Llr>();
    &mut v[skip..skip + len]
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use std::arch::x86_64::*;

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
            // SAFETY: the ISA is the caller's; `j + 16 ≤ k` keeps the
            // index load and each run's store inside `table` and `dst`,
            // and a clamped index `≤ k − 1` reads the dword at word
            // `g·k + k − 1`, inside `src`, which is longer than `N·k`.
            unsafe {
                let at = _mm512_loadu_si512(table.as_ptr().add(j).cast());
                let at = _mm512_min_epu32(at, last);
                for g in 0..N {
                    let row = _mm512_i32gather_epi32::<2>(at, src.as_ptr().add(g * k).cast());
                    let out = dst.as_mut_ptr().add(g * k + j).cast();
                    _mm256_storeu_si256(out, _mm512_cvtepi32_epi16(row));
                }
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
        assert!(post.len() == n && g0.len() == n && n.is_multiple_of(STATES));
        let unlace = _mm512_set_epi64(7, 5, 3, 1, 6, 4, 2, 0);
        let mut i = 0;
        while i + 32 <= n {
            // SAFETY: the ISA is the caller's; `i + 32 ≤ n` keeps every
            // 64-byte load and store inside the three equally long
            // slices.
            unsafe {
                let p0 = _mm512_loadu_si512(post.as_ptr().add(i).cast());
                let p1 = _mm512_loadu_si512(post.as_ptr().add(i + 16).cast());
                let w0 = _mm512_srai_epi32::<16>(_mm512_slli_epi32::<16>(p0));
                let w1 = _mm512_srai_epi32::<16>(_mm512_slli_epi32::<16>(p1));
                let pv = _mm512_permutexvar_epi64(unlace, _mm512_packs_epi32(w0, w1));
                let g0v = _mm512_loadu_si512(g0.as_ptr().add(i).cast());
                let ev = _mm512_subs_epi16(pv, _mm512_adds_epi16(g0v, g0v));
                let sv = _mm512_adds_epi16(_mm512_srai_epi16::<1>(ev), _mm512_srai_epi16::<2>(ev));
                _mm512_storeu_si512(ext.as_mut_ptr().add(i).cast(), sv);
            }
            i += 32;
        }
        // SAFETY: SSE2 is baseline on x86-64; the three tails are
        // `n − i` long, a multiple of eight.
        unsafe {
            crate::turbo::native_decoder::x86::peel_extrinsic(&post[i..], &g0[i..], &mut ext[i..])
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::random_bits;
    use crate::llr::bit_to_llr;
    use crate::turbo::{DecodeScratch, DecoderIsa, NativeTurboDecoder, TurboDecoder, TurboEncoder};

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

    #[test]
    fn launches_split_quads_then_a_pair_then_a_single() {
        for (n, want) in [
            (1, &[1][..]),
            (2, &[2]),
            (3, &[2, 1]),
            (4, &[4]),
            (5, &[4, 1]),
            (6, &[4, 2]),
            (7, &[4, 2, 1]),
            (8, &[4, 4]),
        ] {
            assert_eq!(launches(n).collect::<Vec<_>>(), want, "n={n}");
        }
        assert_eq!(launches(0).count(), 0);
    }

    /// Decode `inputs` in one call; each block's bits and outcome.
    fn decode_all(
        dec: &NativeBatchTurboDecoder,
        inputs: &[BlockLlrs<'_>],
        cap: usize,
        crc: Option<&Crc>,
        scratch: &mut BatchScratch,
    ) -> Vec<(Vec<u8>, LaneOutcome)> {
        let mut bits = vec![Vec::new(); inputs.len()];
        let mut lanes = vec![(0, None, 0); inputs.len()];
        dec.decode_blocks_into(inputs, cap, crc, scratch, &mut bits, &mut lanes);
        bits.into_iter().zip(lanes).collect()
    }

    /// One to eight blocks (a transport block's most) per call under
    /// each of `caps`: each lane is the scalar oracle's decode of its
    /// block alone under the same cap — bits, iterations, verdict and
    /// SISO passes — and decodes the payload; a warm scratch grows no
    /// further.
    fn every_count_decodes_like_the_oracle(caps: &[usize]) {
        const MAX: usize = 3;
        for k in [40usize, 64, 104, 512] {
            let made: Vec<_> = (0..8)
                .map(|g| make_input(k, 11 + 18 * g + k as u64))
                .collect();
            let inputs: Vec<_> = made.iter().map(|(_, t)| BlockLlrs::from_turbo(t)).collect();
            let batch = NativeBatchTurboDecoder::new(k, MAX);
            let scalar = TurboDecoder::new(k, MAX);
            let mut scratch = BatchScratch::new();
            // Seven blocks run a quad, a pair and a single: every buffer.
            decode_all(&batch, &inputs[..7], MAX, None, &mut scratch);
            let warm = scratch.allocations();
            for &cap in caps {
                for n in 1..=8 {
                    let got = decode_all(&batch, &inputs[..n], cap, None, &mut scratch);
                    for (g, (bits, lane)) in got.into_iter().enumerate() {
                        let (payload, input) = &made[g];
                        let want = scalar.decode_capped(input, cap, None);
                        let ctx = format!("K={k} cap {cap} n={n} block {g}");
                        assert_eq!(bits, want.bits, "{ctx}");
                        assert_eq!(lane, (want.iterations_run, None, want.siso_passes), "{ctx}");
                        assert_eq!(lane.0, cap.clamp(1, MAX), "{ctx}");
                        assert_eq!(&bits, payload, "{ctx}");
                    }
                }
            }
            assert_eq!(scratch.allocations(), warm, "K={k}: a warm scratch grew");
        }
    }

    #[test]
    fn every_block_count_decodes_like_lone_blocks() {
        every_count_decodes_like_the_oracle(&[usize::MAX]);
    }

    #[test]
    fn caps_clamp_like_the_single_block_decoder() {
        // Below the floor, and inside the decoder's own cap.
        every_count_decodes_like_the_oracle(&[0, 2]);
    }

    #[test]
    fn pair_decode_equals_two_scalar_decodes() {
        for k in [40usize, 64, 512] {
            let (bits_a, in_a) = make_input(k, 11 + k as u64);
            let (bits_b, in_b) = make_input(k, 29 + k as u64);
            let batch = NativeBatchTurboDecoder::new(k, 3);
            let inputs = [&in_a, &in_b].map(BlockLlrs::from_turbo);
            let got = decode_all(&batch, &inputs, usize::MAX, None, &mut BatchScratch::new());
            let [(out_a, lane_a), (out_b, _)] = got.try_into().unwrap();
            let scalar = TurboDecoder::new(k, 3);
            assert_eq!(out_a, scalar.decode(&in_a).bits, "K={k} block 0");
            assert_eq!(out_b, scalar.decode(&in_b).bits, "K={k} block 1");
            assert_eq!(out_a, bits_a);
            assert_eq!(out_b, bits_b);
            assert_eq!(lane_a.0, 3);
            assert_eq!(lane_a.1, None, "no CRC was given");
        }
    }

    #[test]
    fn pair_decode_equals_single_native_decodes() {
        let k = 256;
        let (_, in_a) = make_input(k, 3);
        let (_, in_b) = make_input(k, 4);
        let batch = NativeBatchTurboDecoder::new(k, 2);
        let single = NativeTurboDecoder::new(k, 2);
        let inputs = [&in_a, &in_b].map(BlockLlrs::from_turbo);
        let got = decode_all(&batch, &inputs, usize::MAX, None, &mut BatchScratch::new());
        assert_eq!(got[0].0, single.decode(&in_a).bits);
        assert_eq!(got[1].0, single.decode(&in_b).bits);
    }

    #[test]
    fn quad_decode_equals_four_scalar_decodes() {
        for k in [40usize, 64, 512] {
            let mk = |s: u64| make_input(k, s + k as u64);
            let (payloads, inputs): (Vec<_>, Vec<_>) = [11, 29, 47, 83].map(mk).into_iter().unzip();
            let batch = NativeBatchTurboDecoder::new(k, 3);
            let refs: Vec<_> = inputs.iter().map(BlockLlrs::from_turbo).collect();
            let outs = decode_all(&batch, &refs, usize::MAX, None, &mut BatchScratch::new());
            let scalar = TurboDecoder::new(k, 3);
            for g in 0..QUAD {
                assert_eq!(outs[g].0, scalar.decode(&inputs[g]).bits, "K={k} block {g}");
                assert_eq!(outs[g].0, payloads[g]);
                assert_eq!(outs[g].1 .0, 3);
                assert_eq!(outs[g].1 .1, None, "no CRC was given");
            }
        }
    }

    #[test]
    fn quad_decode_equals_pair_and_single_native_decodes() {
        let k = 256;
        let inputs: [TurboLlrs; QUAD] = core::array::from_fn(|g| make_input(k, 5 + g as u64).1);
        let batch = NativeBatchTurboDecoder::new(k, 2);
        let single = NativeTurboDecoder::new(k, 2);
        let mut scratch = BatchScratch::new();
        let refs = inputs.each_ref().map(BlockLlrs::from_turbo);
        let outs = decode_all(&batch, &refs, usize::MAX, None, &mut scratch);
        let pairs = [
            decode_all(&batch, &refs[..BATCH], usize::MAX, None, &mut scratch),
            decode_all(&batch, &refs[BATCH..], usize::MAX, None, &mut scratch),
        ];
        for g in 0..QUAD {
            assert_eq!(
                outs[g].0,
                single.decode(&inputs[g]).bits,
                "block {g} vs single"
            );
            assert_eq!(outs[g], pairs[g / BATCH][g % BATCH], "block {g} vs pair");
        }
    }

    #[test]
    fn staged_quad_matches_refs_and_reuses_scratch() {
        for k in [40usize, 512] {
            let inputs: [TurboLlrs; QUAD] =
                core::array::from_fn(|g| make_input(k, 900 + g as u64 + k as u64).1);
            let batch = NativeBatchTurboDecoder::new(k, 3);
            let refs = inputs.each_ref().map(BlockLlrs::from_turbo);
            let expect = decode_all(&batch, &refs, usize::MAX, None, &mut BatchScratch::new());
            let mut scratch = BatchScratch::new();
            let mut bits: [Vec<u8>; QUAD] = core::array::from_fn(|_| Vec::new());
            for round in 0..3 {
                let iters = batch.decode_quad_staged_into(refs, &mut scratch, &mut bits);
                assert_eq!(iters, 3);
                for g in 0..QUAD {
                    assert_eq!(bits[g], expect[g].0, "K={k} block {g} round {round}");
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
        // A pair staged in pooled `SoftStreams` decodes as the same
        // pair read from inside its `TurboLlrs`.
        let k = 256;
        let inputs: [TurboLlrs; BATCH] = core::array::from_fn(|g| make_input(k, 70 + g as u64).1);
        let batch = NativeBatchTurboDecoder::new(k, 2);
        let mut scratch = BatchScratch::new();
        let refs = inputs.each_ref().map(BlockLlrs::from_turbo);
        let expect = decode_all(&batch, &refs, usize::MAX, None, &mut scratch);
        let pooled: Vec<SoftStreams> = inputs.iter().map(|i| i.streams.clone()).collect();
        let staged: [BlockLlrs<'_>; BATCH] =
            core::array::from_fn(|g| BlockLlrs::from_streams(&pooled[g], inputs[g].tails));
        let got = decode_all(&batch, &staged, usize::MAX, None, &mut scratch);
        assert_eq!(got[0].1 .0, 2);
        assert_eq!(got, expect);
    }

    #[test]
    #[should_panic(expected = "at least one block")]
    fn an_empty_call_panics() {
        decode_all(
            &NativeBatchTurboDecoder::new(40, 1),
            &[],
            1,
            None,
            &mut BatchScratch::new(),
        );
    }

    #[test]
    #[should_panic(expected = "share K")]
    fn mismatched_block_sizes_panic() {
        let (_, in_a) = make_input(40, 1);
        let (_, in_b) = make_input(48, 2);
        let inputs = [&in_a, &in_b].map(BlockLlrs::from_turbo);
        decode_all(
            &NativeBatchTurboDecoder::new(40, 1),
            &inputs,
            1,
            None,
            &mut BatchScratch::new(),
        );
    }

    #[test]
    #[should_panic(expected = "share K")]
    fn mismatched_quad_block_sizes_panic() {
        let (_, in_a) = make_input(40, 1);
        let (_, in_b) = make_input(48, 2);
        let inputs = [&in_a, &in_a, &in_a, &in_b].map(BlockLlrs::from_turbo);
        decode_all(
            &NativeBatchTurboDecoder::new(40, 1),
            &inputs,
            1,
            None,
            &mut BatchScratch::new(),
        );
    }

    #[test]
    fn staged_decode_reads_detached_stream_buffers() {
        // The fused-ingest contract: blocks staged in pooled
        // `SoftStreams` (not inside a `TurboLlrs`) decode identically.
        let k = 104;
        let inputs: [TurboLlrs; QUAD] = core::array::from_fn(|g| make_input(k, 40 + g as u64).1);
        let batch = NativeBatchTurboDecoder::new(k, 2);
        let mut scratch = BatchScratch::new();
        let expect = decode_all(
            &batch,
            &inputs.each_ref().map(BlockLlrs::from_turbo),
            2,
            None,
            &mut scratch,
        );
        let pooled: Vec<SoftStreams> = inputs.iter().map(|i| i.streams.clone()).collect();
        let staged: [BlockLlrs<'_>; QUAD] =
            core::array::from_fn(|g| BlockLlrs::from_streams(&pooled[g], inputs[g].tails));
        let mut bits: [Vec<u8>; QUAD] = core::array::from_fn(|_| Vec::new());
        let iters = batch.decode_quad_staged_into(staged, &mut scratch, &mut bits);
        assert_eq!(iters, 2);
        for g in 0..QUAD {
            assert_eq!(bits[g], expect[g].0, "block {g}");
        }
    }

    /// One scratch through K = 6144 → 40 → 512 → 6144 → 48 at 1, 2 and 4
    /// blocks per call, with and without CRC24B: at every single-block
    /// tier, and on the host's own path (zmm launches where it has
    /// AVX-512BW). Each call works in the front of buffers a larger call
    /// left dirty and must equal the same call on a fresh scratch, bits
    /// and outcomes; nothing grows after the first K = 6144 quad.
    #[test]
    fn one_warm_scratch_serves_shrinking_and_mixed_k() {
        use crate::crc::CRC24B;
        use crate::turbo::native_decoder::tests::{crc_block, stop_blocks};
        use vran_simd::host::tiers;
        const CAP: usize = 4;
        // Blocks that stop on pass 1, 2 and 3, never, and blind; at
        // K = 48, which has no searched stops, rising noise and a flip.
        let blocks = |k: usize| match k {
            48 => core::array::from_fn(|g| crc_block(k, 12, 8 * g as u64, g == 3, g as u64)),
            _ => stop_blocks(k),
        };
        let host = NativeBatchTurboDecoder::is_zmm_accelerated().then_some(None);
        for isa in tiers::<DecoderIsa>().map(Some).chain(host) {
            let mut scratch = BatchScratch::new();
            let mut warm = None;
            for (i, k) in [6144usize, 40, 512, 6144, 48].into_iter().enumerate() {
                let dec = match isa {
                    Some(isa) => NativeBatchTurboDecoder {
                        single: NativeTurboDecoder::with_isa(k, CAP, isa),
                        use_avx512: false,
                    },
                    None => NativeBatchTurboDecoder::new(k, CAP),
                };
                let blocks = blocks(k);
                for n in [1, BATCH, QUAD] {
                    let inputs: Vec<_> = (0..n)
                        .map(|g| BlockLlrs::from_turbo(&blocks[(g + n) % blocks.len()]))
                        .collect();
                    for crc in [Some(&CRC24B), None] {
                        let got = decode_all(&dec, &inputs, CAP, crc, &mut scratch);
                        let fresh = decode_all(&dec, &inputs, CAP, crc, &mut BatchScratch::new());
                        let path = isa.map_or("zmm", DecoderIsa::name);
                        assert_eq!(got, fresh, "{path} K={k} n={n} {crc:?}");
                    }
                }
                if i == 0 {
                    warm = Some(scratch.allocations());
                }
            }
            assert_eq!(
                Some(scratch.allocations()),
                warm,
                "{isa:?}: a warm scratch grew"
            );
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
                for blocks in [
                    &[&pass3, &pass1, &never, &pass2][..],
                    &[&pass2, &pass1, &pass3, &blind],
                    &[&pass1; QUAD],
                    &[&pass1, &pass3],
                    &[&never, &pass2],
                    &[&pass2, &pass2],
                ] {
                    let inputs: Vec<_> = blocks.iter().map(|b| BlockLlrs::from_turbo(b)).collect();
                    let got = decode_all(dec, &inputs, CAP, crc, &mut scratch);
                    for (g, (bits, lane)) in got.into_iter().enumerate() {
                        let want = alone(blocks[g], crc);
                        assert_eq!((bits, lane), want, "K={k} {tier:?} lane {g}");
                    }
                }
                // A zmm launch runs as long as its slowest lane needs:
                // 12, 3 and 1 passes for the three quads above, and
                // 3, 12 and 2 for the pairs.
                if dec.use_avx512 && crc.is_some() {
                    assert_eq!(scratch.siso_passes() - passes0, 16 + 17, "K={k}");
                }
            }
        }
    }

    /// Median of 15 alternated pairs: one call on `N` blocks against
    /// `N` serial single-block native decodes of the same blocks at
    /// K = 6144, four iterations, failing unless the call is more than
    /// `bar` times faster. Skipped (not failed) where the host lacks the
    /// zmm kernel — exactness is covered unconditionally above.
    ///
    /// On a 2-vCPU AVX-512BW Xeon guest (model 207), in the test build,
    /// this kernel reads 2.20–2.28× (quad) and 2.29–2.39× (pair) against
    /// a single-block decode that stages γ inside phase 1 and gathers
    /// its extrinsic on zmm. The α-then-β quad-in-zmm and pair-in-ymm
    /// bodies it replaced read 1.43–1.47× and 1.07–1.08×, so the bars
    /// (1.6×, 1.3×) fail them. A `--release` test build reads lower:
    /// 1.45–1.51× (quad) and 1.55–1.68× (pair).
    fn launch_beats_serial_decodes<const N: usize>(bar: f64) {
        let name = format!("{N}-lane launch");
        if !NativeBatchTurboDecoder::is_zmm_accelerated() {
            eprintln!("{name} vs serial decodes: SKIPPED (no avx512bw)");
            return;
        }
        let _clock = crate::wall_clock();
        let (k, iters) = (6144, 4);
        let inputs: [TurboLlrs; N] = core::array::from_fn(|g| make_input(k, 300 + g as u64).1);
        let batch = NativeBatchTurboDecoder::new(k, iters);
        let single = NativeTurboDecoder::new(k, iters);
        let mut scratch = BatchScratch::new();
        let mut bits: [Vec<u8>; N] = core::array::from_fn(|_| Vec::new());
        let mut lanes = [(0, None, 0); N];
        let mut launch = || {
            let refs = inputs.each_ref().map(BlockLlrs::from_turbo);
            batch.decode_blocks_into(&refs, iters, None, &mut scratch, &mut bits, &mut lanes);
            std::hint::black_box(&lanes);
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
