//! Fused APCM ingest: mask/merge congregation straight into the
//! decoder's staging buffers.
//!
//! This is the paper's §5.1 mask/merge/shifted-reload formulation and
//! the crate's one native APCM kernel per width: the uplink receiver
//! runs it, and [`crate::native`]'s APCM rungs call it. Each cluster is
//! congregated with `vpand` residue masks and `vpor` merges, which
//! issue on the plentiful vector-ALU ports (p0/p1/p5), leaving exactly
//! **one** permute per output register to undo the fixed lane rotation
//! the merge produces. The masks and restore indices are `static`
//! tables built at compile time, so a call does no set-up beyond
//! loading them.
//!
//! Why the merge works: a W-lane register holds positions
//! `Wj .. Wj+W` of the triple stream, so cluster `c`'s elements sit in
//! lanes `l ≡ c − Wj (mod 3)`. With `W ∈ {8, 32}` (both `≡ 2 mod 3`)
//! the residue class rotates by one per register, the three masked
//! registers are lane-disjoint, and their OR packs all `W` cluster
//! elements into one register — element `i` in lane `(3i + c) mod W`,
//! a fixed permutation because `gcd(3, W) = 1`. One `vpermw`
//! (`pshufb` at 128 bits) restores natural order.
//!
//! The "shifted reload" is the three group loads at element offsets
//! `+0 / +W / +2W`: every cluster re-reads the same three registers,
//! so the loads amortize over all three merges.
//!
//! The entry point writes three **caller-owned slices**
//! ([`crate::native::deinterleave_into`] passes the streams of a
//! `SoftStreams`) — the uplink pipeline points
//! them at pooled per-block stream buffers so demapper output lands
//! directly in the layout the native turbo decoder reads in place, at
//! any lane count, with no intermediate copy. Where those slices start
//! is the heap's choice, so the kernels do not depend on it: each
//! stream's groups start at its own first whole line (`cover`), and
//! only a head and a tail group per stream store across one.
//!
//! AVX2 is deliberately absent, as in [`crate::native`]: 256-bit x86
//! has no cross-lane 16-bit permute, so the restore step would decay
//! into the §5.2 extract ladder. 128 and 512 bits are the clean
//! points; AVX2-only hosts take the SSSE3 tier.

use vran_phy::llr::Llr;
use vran_simd::host::{best_tier, HostIsa, Tier};

/// Available fused-ingest implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusedImpl {
    /// Portable scalar loop (always available; the oracle).
    Scalar,
    /// Mask/merge at 128 bits: 9 `pand` + 6 `por` + 3 `pshufb` per
    /// 24-element group as written. The masks are constants, so the
    /// compiler folds each into the restore control: the release build
    /// runs 9 `pshufb` + 6 `por` per group (`objdump -d`).
    MaskMergeSsse3,
    /// Mask/merge at 512 bits: 9 `vpand` + 6 `vpor` + 3 `vpermw` per
    /// 96-element group as written; the release build fuses each
    /// and/or pair into a `vpternlogd`, running 3 `vpandd` + 6
    /// `vpternlogd` + 3 `vpermw` per group (`objdump -d`).
    MaskMergeAvx512,
}

impl FusedImpl {
    /// Bench label.
    pub fn name(self) -> &'static str {
        match self {
            FusedImpl::Scalar => "fused-scalar",
            FusedImpl::MaskMergeSsse3 => "fused-maskmerge-ssse3",
            FusedImpl::MaskMergeAvx512 => "fused-maskmerge-avx512",
        }
    }
}

impl Tier for FusedImpl {
    const LADDER: &'static [FusedImpl] = &[
        FusedImpl::Scalar,
        FusedImpl::MaskMergeSsse3,
        FusedImpl::MaskMergeAvx512,
    ];

    fn required_isa(self) -> HostIsa {
        match self {
            FusedImpl::Scalar => HostIsa::Scalar,
            FusedImpl::MaskMergeSsse3 => HostIsa::Ssse3,
            FusedImpl::MaskMergeAvx512 => HostIsa::Avx512bw,
        }
    }
}

/// The fastest fused-ingest implementation the host supports.
pub fn best_fused() -> FusedImpl {
    best_tier()
}

/// De-interleave the first `3k` LLRs of `input` into three caller-owned
/// `k`-element slices with the chosen implementation. `input` may be
/// longer than `3k` (the de-rate-matcher's triple-interleaved buffer
/// carries the four tail triples after position `3k`); the excess is
/// ignored. Panics if the host lacks the required feature (pick from
/// [`vran_simd::host::tiers`]).
pub fn fused_ingest_into(
    imp: FusedImpl,
    input: &[Llr],
    k: usize,
    sys: &mut [Llr],
    p1: &mut [Llr],
    p2: &mut [Llr],
) {
    assert!(input.len() >= 3 * k, "need 3k interleaved LLRs");
    assert!(sys.len() == k && p1.len() == k && p2.len() == k);
    assert!(imp.usable(), "host lacks {}", imp.name());
    match imp {
        // SAFETY: the host has the ISA, the lengths were checked above,
        // and `k` holds at least one register of the kernel.
        #[cfg(target_arch = "x86_64")]
        FusedImpl::MaskMergeSsse3 if k >= 8 => unsafe {
            x86::mask_merge_ssse3(input, k, sys, p1, p2)
        },
        // SAFETY: as for SSSE3.
        #[cfg(target_arch = "x86_64")]
        FusedImpl::MaskMergeAvx512 if k >= 32 => unsafe {
            x86::mask_merge_avx512(input, k, sys, p1, p2)
        },
        _ => scalar(input, k, sys, p1, p2),
    }
}

/// Scalar reference, and what a block shorter than a register takes.
fn scalar(input: &[Llr], k: usize, sys: &mut [Llr], p1: &mut [Llr], p2: &mut [Llr]) {
    for t in 0..k {
        sys[t] = input[3 * t];
        p1[t] = input[3 * t + 1];
        p2[t] = input[3 * t + 2];
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use std::arch::x86_64::*;

    /// Residue-class lane masks at `W` lanes, indexed by cluster `c`
    /// then source register `j` of a group: lane `l` is kept iff
    /// `(W·j + l) ≡ c (mod 3)`.
    const fn lane_masks<const W: usize>() -> [[[i16; W]; 3]; 3] {
        let mut m = [[[0; W]; 3]; 3];
        let mut i = 0;
        while i < 9 * W {
            let (c, j, l) = (i / (3 * W), i / W % 3, i % W);
            if (W * j + l) % 3 == c {
                m[c][j][l] = -1;
            }
            i += 1;
        }
        m
    }

    /// Restore permutation per cluster `c` at `W` lanes: after the OR
    /// merge, element `i` sits in lane `(3i + c) mod W`; the permute
    /// index for destination lane `i` is exactly that source lane.
    const fn restore_idx<const W: usize>() -> [[i16; W]; 3] {
        let mut r = [[0; W]; 3];
        let mut i = 0;
        while i < 3 * W {
            let (c, l) = (i / W, i % W);
            r[c][l] = ((3 * l + c) % W) as i16;
            i += 1;
        }
        r
    }

    /// Cover elements `0..k` of every stream with `store(c, t, &load(t))`
    /// — `load(t)` the three shifted reloads of the group at `t`,
    /// `store` cluster `c`'s elements `t..t + W` merged out of them —
    /// so that every store but a head and a tail per stream is a whole
    /// aligned register, wherever the caller's slices start. A
    /// stream's group origin is the first element of its first whole
    /// line (the residue masks hold at any origin: the input moves by
    /// `3t`), and either end is one unaligned group overlapping the
    /// aligned ones. Streams on one origin share every group's loads;
    /// otherwise each reloads its own, which reads the input three
    /// times and still costs less than splitting every store.
    #[inline(always)]
    unsafe fn cover<const W: usize, R>(
        k: usize,
        streams: [*mut Llr; 3],
        load: impl Fn(usize) -> R,
        store: impl Fn(usize, usize, &R),
    ) {
        let head = streams.map(|p| (p as usize).wrapping_neg() % (2 * W) / 2);
        let groups = head.map(|h| (k - h) / W);
        if head[0] == head[1] && head[1] == head[2] {
            for t in (head[0]..).step_by(W).take(groups[0]) {
                let r = load(t);
                for c in 0..3 {
                    store(c, t, &r);
                }
            }
        } else {
            for g in 0..groups[0].max(groups[1]).max(groups[2]) {
                for c in 0..3 {
                    if g < groups[c] {
                        let t = head[c] + g * W;
                        store(c, t, &load(t));
                    }
                }
            }
        }
        for c in 0..3 {
            if head[c] > 0 {
                store(c, 0, &load(0));
            }
            if head[c] + groups[c] * W < k {
                store(c, k - W, &load(k - W));
            }
        }
    }

    /// # Safety
    /// SSSE3; `input` holds `3k` elements, each stream `k`, `k >= 8`.
    #[target_feature(enable = "ssse3")]
    pub unsafe fn mask_merge_ssse3(
        input: &[Llr],
        k: usize,
        sys: &mut [Llr],
        p1: &mut [Llr],
        p2: &mut [Llr],
    ) {
        const W: usize = 8;
        static MASKS: [[[i16; W]; 3]; 3] = lane_masks::<W>();
        // `pshufb` permutes bytes: restore word `s` is bytes `2s, 2s + 1`.
        static RESTORE: [[i16; W]; 3] = {
            let mut r = restore_idx::<W>();
            let mut i = 0;
            while i < 3 * W {
                let s = r[i / W][i % W];
                r[i / W][i % W] = (2 * s) | ((2 * s + 1) << 8);
                i += 1;
            }
            r
        };
        // SAFETY: every mask and restore row is one whole register.
        let masks = MASKS.map(|m| m.map(|m| unsafe { _mm_loadu_si128(m.as_ptr().cast()) }));
        // SAFETY: as for `masks`.
        let restore = RESTORE.map(|r| unsafe { _mm_loadu_si128(r.as_ptr().cast()) });
        let streams = [sys.as_mut_ptr(), p1.as_mut_ptr(), p2.as_mut_ptr()];
        // The shifted reloads: same group, three W-element offsets.
        let load = |t: usize| {
            // SAFETY: `cover` loads only groups with `t + W <= k`, whose
            // `3W` elements from `3t` lie within `input`'s `3k`.
            let at = unsafe { input.as_ptr().add(3 * t) };
            // SAFETY: as for `at`, and SSSE3 is enabled.
            [0, W, 2 * W].map(|o| unsafe { _mm_loadu_si128(at.add(o).cast()) })
        };
        let store = |c: usize, t: usize, r: &[__m128i; 3]| {
            let a = _mm_and_si128(r[0], masks[c][0]);
            let b = _mm_and_si128(r[1], masks[c][1]);
            let d = _mm_and_si128(r[2], masks[c][2]);
            let o = _mm_shuffle_epi8(_mm_or_si128(_mm_or_si128(a, b), d), restore[c]);
            // SAFETY: `cover` stores only at `t + W <= k`, within the
            // stream's `k` elements, borrowed exclusively.
            unsafe { _mm_storeu_si128(streams[c].add(t).cast(), o) };
        };
        // SAFETY: `k >= W` (this function's contract), and `load` and
        // `store` are sound for every `t` `cover` passes.
        unsafe { cover::<W, _>(k, streams, load, store) };
    }

    /// # Safety
    /// AVX-512BW; `input` holds `3k` elements, each stream `k`,
    /// `k >= 32`.
    #[target_feature(enable = "avx512bw", enable = "avx512f")]
    pub unsafe fn mask_merge_avx512(
        input: &[Llr],
        k: usize,
        sys: &mut [Llr],
        p1: &mut [Llr],
        p2: &mut [Llr],
    ) {
        const W: usize = 32;
        static MASKS: [[[i16; W]; 3]; 3] = lane_masks::<W>();
        static RESTORE: [[i16; W]; 3] = restore_idx::<W>();
        // SAFETY: every mask and restore row is one whole register.
        let masks = MASKS.map(|m| m.map(|m| unsafe { _mm512_loadu_si512(m.as_ptr().cast()) }));
        // SAFETY: as for `masks`.
        let restore = RESTORE.map(|r| unsafe { _mm512_loadu_si512(r.as_ptr().cast()) });
        let streams = [sys.as_mut_ptr(), p1.as_mut_ptr(), p2.as_mut_ptr()];
        let load = |t: usize| {
            // SAFETY: `cover` loads only groups with `t + W <= k`, whose
            // `3W` elements from `3t` lie within `input`'s `3k`.
            let at = unsafe { input.as_ptr().add(3 * t) };
            // SAFETY: as for `at`, and AVX-512F is enabled.
            [0, W, 2 * W].map(|o| unsafe { _mm512_loadu_si512(at.add(o).cast()) })
        };
        let store = |c: usize, t: usize, r: &[__m512i; 3]| {
            let a = _mm512_and_si512(r[0], masks[c][0]);
            let b = _mm512_and_si512(r[1], masks[c][1]);
            let d = _mm512_and_si512(r[2], masks[c][2]);
            let merged = _mm512_or_si512(_mm512_or_si512(a, b), d);
            let o = _mm512_permutexvar_epi16(restore[c], merged);
            // SAFETY: `cover` stores only at `t + W <= k`, within the
            // stream's `k` elements, borrowed exclusively.
            unsafe { _mm512_storeu_si512(streams[c].add(t).cast(), o) };
        };
        // SAFETY: `k >= W` (this function's contract), and `load` and
        // `store` are sound for every `t` `cover` passes.
        unsafe { cover::<W, _>(k, streams, load, store) };
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vran_simd::host::tiers;

    fn sample(n: usize) -> Vec<Llr> {
        (0..n)
            .map(|i| ((i as i64 * 31337 + 11) % 5000 - 2500) as i16)
            .collect()
    }

    fn run(imp: FusedImpl, input: &[Llr], k: usize) -> [Vec<Llr>; 3] {
        let mut sys = vec![0; k];
        let mut p1 = vec![0; k];
        let mut p2 = vec![0; k];
        fused_ingest_into(imp, input, k, &mut sys, &mut p1, &mut p2);
        [sys, p1, p2]
    }

    #[test]
    fn scalar_reference_is_a_deinterleave() {
        let k = 50;
        let input = sample(3 * k);
        let [sys, p1, p2] = run(FusedImpl::Scalar, &input, k);
        for t in 0..k {
            assert_eq!(sys[t], input[3 * t]);
            assert_eq!(p1[t], input[3 * t + 1]);
            assert_eq!(p2[t], input[3 * t + 2]);
        }
    }

    #[test]
    fn every_available_impl_matches_scalar() {
        // Group-multiple, off-group and tiny K at both vector widths,
        // and blocks shorter than one register (the scalar path).
        for k in [0usize, 1, 7, 8, 31, 32, 40, 96, 104, 999, 6144] {
            let input = sample(3 * k);
            let expect = run(FusedImpl::Scalar, &input, k);
            for imp in tiers::<FusedImpl>() {
                assert_eq!(run(imp, &input, k), expect, "{} K={k}", imp.name());
            }
        }
    }

    #[test]
    fn outputs_at_every_misalignment_match_scalar() {
        // Each stream in turn at every word offset into its allocation
        // (ending flush with it) while the others stay put, then all
        // three on one shared phase, then on three different ones: both
        // loops of `cover`, every head and tail length.
        let shapes = (0..32).flat_map(|m| {
            let one = (0..3).map(move |s| core::array::from_fn(|i| if i == s { m } else { 0 }));
            one.chain([[m; 3], [m, (m + 7) % 32, (m + 19) % 32]])
        });
        let cases: Vec<[usize; 3]> = shapes.collect();
        for k in [40usize, 96, 104, 999, 5696, 6144] {
            let input = sample(3 * k);
            let expect = run(FusedImpl::Scalar, &input, k);
            for imp in tiers::<FusedImpl>() {
                for offs in &cases {
                    let mut bufs = offs.map(|o| vec![7; o + k]);
                    let [a, b, c] = &mut bufs;
                    let (a, b, c) = (&mut a[offs[0]..], &mut b[offs[1]..], &mut c[offs[2]..]);
                    fused_ingest_into(imp, &input, k, a, b, c);
                    for (s, (buf, &o)) in bufs.iter().zip(offs).enumerate() {
                        assert_eq!(buf[o..], expect[s], "{} K={k} {offs:?}", imp.name());
                        assert!(
                            buf[..o].iter().all(|&v| v == 7),
                            "{} underwrite",
                            imp.name()
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn excess_input_beyond_3k_is_ignored() {
        // The de-rate-matcher's interleaved buffer is 3(K+4) long; the
        // kernels must only read the first 3K.
        let k = 96;
        let mut input = sample(3 * (k + 4));
        let expect = run(FusedImpl::Scalar, &input, k);
        for imp in tiers::<FusedImpl>() {
            assert_eq!(run(imp, &input, k), expect, "{}", imp.name());
        }
        // Mutating the tail region changes nothing.
        for v in input[3 * k..].iter_mut() {
            *v = i16::MAX;
        }
        for imp in tiers::<FusedImpl>() {
            assert_eq!(run(imp, &input, k), expect, "{} tail bleed", imp.name());
        }
    }

    #[test]
    fn available_always_contains_scalar_first() {
        assert_eq!(FusedImpl::LADDER[0].required_isa(), HostIsa::Scalar);
        assert_eq!(tiers::<FusedImpl>().next(), Some(FusedImpl::Scalar));
    }

    #[test]
    fn names_and_isa_levels_are_consistent() {
        let names: std::collections::HashSet<_> =
            FusedImpl::LADDER.iter().map(|i| i.name()).collect();
        assert_eq!(names.len(), FusedImpl::LADDER.len());
        let levels: Vec<HostIsa> = FusedImpl::LADDER.iter().map(|i| i.required_isa()).collect();
        assert!(levels.windows(2).all(|w| w[0] < w[1]));
    }
}
