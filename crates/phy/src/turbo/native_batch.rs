//! AVX-512BW multi-block native batch turbo decoding.
//!
//! The real-hardware counterpart of the VM batch decoder
//! `apcm::turbo::batch_decoder`. The 8-state recursions cannot widen,
//! so a wider register must carry more blocks: the single-block AVX2
//! tier fills a ymm with one block's α and β chains, and a zmm carries
//! two blocks' — the same meet-in-the-middle body (the `mitm` module,
//! DESIGN §5.8) at two blocks per register. A pair launch is one such
//! register; a quad launch is two, interleaved step by step so each
//! hides the other's ≈ 6-cycle recurrence.
//!
//! Every lane is therefore bit-identical to a [`NativeTurboDecoder`]
//! decode of its block alone (and to the scalar oracle). Iteration
//! control is the single-block decoder's too, per lane — the stop rule
//! of [`super::decoder`]: given the launch's CRC, each lane reports the
//! SISO pass on which *its* block first passed (a begun iteration
//! counting as one) and the bits it had then, and the launch ends when
//! every lane has passed or at the cap; without a CRC every lane runs
//! the cap. Without AVX-512BW every lane is a single-block decode.
//!
//! One entry point, [`NativeBatchTurboDecoder::decode_blocks_into`],
//! takes any number of equal-K blocks and splits them as [`launches`]
//! says: quads while four remain, then a pair, then a single-block
//! decode of the leftover.

use super::decoder::beta_init_from_tails;
#[cfg(target_arch = "x86_64")]
use super::mitm::{self, Zmm};
use super::native_decoder::{hard_decide, DecodeScratch, DecoderIsa, NativeTurboDecoder};
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
    /// Scratch for the single-block decodes: a leftover single, and
    /// every lane without AVX-512BW.
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

    /// zmm launches and single-block decodes that had to grow at least
    /// one buffer.
    pub fn allocations(&self) -> u64 {
        self.allocations + self.single.allocations()
    }

    /// zmm launches and single-block decodes served entirely from
    /// retained capacity (i.e. heap allocations avoided).
    pub fn reuses(&self) -> u64 {
        self.reuses + self.single.reuses()
    }

    /// SISO kernel passes run through this scratch, at any width.
    pub fn siso_passes(&self) -> u64 {
        self.siso_passes + self.single.siso_passes()
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
/// AVX-512BW, every block) through a single-block decoder — identical
/// per-block outputs either way.
#[derive(Debug, Clone)]
pub struct NativeBatchTurboDecoder {
    /// The single-block decoder: the leftover of an odd count, every
    /// block without AVX-512BW, and the QPP tables the kernel reads.
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
        let k = self.k();
        assert!(!blocks.is_empty(), "a launch decodes at least one block");
        assert!(
            bits.len() == blocks.len() && lanes.len() == blocks.len(),
            "one bit buffer and one outcome per block"
        );
        for b in blocks {
            assert!(
                b.sys.len() == k && b.p1.len() == k && b.p2.len() == k,
                "all blocks in a batch share K"
            );
        }
        let mut at = 0;
        for run in launches(blocks.len()) {
            let r = at..at + run;
            at += run;
            let (blocks, bits, lanes) = (&blocks[r.clone()], &mut bits[r.clone()], &mut lanes[r]);
            #[cfg(target_arch = "x86_64")]
            if self.use_avx512 && run > 1 {
                let iterations = cap.clamp(1, self.single.max_iterations());
                let launch = match run {
                    QUAD => Self::decode_lanes::<QUAD>,
                    _ => Self::decode_lanes::<BATCH>,
                };
                launch(self, blocks, iterations, crc, scratch, bits, lanes);
                continue;
            }
            for ((b, bits), lane) in blocks.iter().zip(bits).zip(lanes) {
                let passes0 = scratch.single.siso_passes();
                let (iterations_run, crc_ok) = self.single.decode_streams_capped_into(
                    b.sys,
                    b.p1,
                    b.p2,
                    &b.tails,
                    cap,
                    crc,
                    &mut scratch.single,
                    bits,
                );
                let passes = scratch.single.siso_passes() - passes0;
                *lane = (iterations_run, crc_ok, passes as usize);
            }
        }
    }

    /// The turbo iteration loop over one launch of `N` lanes of the zmm
    /// kernel, for at most `iterations`. This is the one place that
    /// decides when a batched block stops iterating, and it decides as
    /// [`NativeTurboDecoder::decode_streams_capped_into`] does.
    #[cfg(target_arch = "x86_64")]
    fn decode_lanes<const N: usize>(
        &self,
        inputs: &[BlockLlrs<'_>],
        iterations: usize,
        crc: Option<&Crc>,
        scratch: &mut BatchScratch,
        bits: &mut [Vec<u8>],
        out: &mut [LaneOutcome],
    ) {
        let inputs: [BlockLlrs<'_>; N] = inputs.try_into().expect("one input per lane");
        let bits: &mut [Vec<u8>; N] = bits.try_into().expect("one bit buffer per lane");
        let il = self.single.interleaver();
        let (k, n) = (il.k(), N * il.k());
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
        let pi = il.pi_table();
        let pi_inv = il.pi_inv_table();
        let binit1 = inputs
            .each_ref()
            .map(|b| beta_init_from_tails(&b.tails.sys1, &b.tails.p1));
        let binit2 = inputs
            .each_ref()
            .map(|b| beta_init_from_tails(&b.tails.sys2, &b.tails.p2));
        la1.fill(0);
        for blk in bits.iter_mut() {
            blk.resize(k, 0);
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
        for it in 0..iterations {
            mitm::siso::<Zmm, N>(sys, p1, parts(la1, k), &binit1, g0, gq, trellis, post);
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
            mitm::siso::<Zmm, N>(sys_pi, p2, la2, &binit2, g0, gq, trellis, post);
            *siso_passes += 1;
            // Hard decisions are observable only through the CRC and
            // the final output, so without a CRC the de-permuting bit
            // pass runs once, after the last iteration.
            let last = it + 1 == iterations;
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
        out.copy_from_slice(&lanes);
    }
}

/// `len` words of `v` from its first 64-byte boundary (`v` has
/// [`ALIGN_SLACK`] words to spare): the kernel's rows are whole cache
/// lines, loaded and stored aligned.
#[cfg(target_arch = "x86_64")]
pub(super) fn aligned(v: &mut [Llr], len: usize) -> &mut [Llr] {
    let skip = v.as_ptr().addr().wrapping_neg() % 64 / size_of::<Llr>();
    &mut v[skip..skip + len]
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
