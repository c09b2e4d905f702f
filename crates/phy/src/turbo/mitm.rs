//! The meet-in-the-middle SISO kernel, written once for ymm and zmm
//! (DESIGN §5.8 has the schedule in full).
//!
//! α and β are independent recurrences of identical shape, one walking
//! up from step 0, the other down from step K−1. A register of `2B`
//! 128-bit lanes carries `B` blocks: lanes `0..B` one chain of each
//! block, lanes `B..2B` the other, under per-lane `vpshufb` controls, so
//! every instruction of the recurrence does `2B` steps' work. With
//! `h = 8·⌊K/16⌋` and `K' = 2h`: γ stages each step's *quad*
//! `[γ₀+γₚ, γ₀−γₚ, −γ₀+γₚ, −γ₀−γₚ]` (the oracle's `branch()` for
//! `(u, p) = (0,0), (0,1), (1,0), (1,1)`), folded so slot `p` holds each
//! block's `[quad(p) | quad(K'−1−p)]`; phase 1 runs α over `[0, h)` and
//! β over `[h, K')`, storing each slot it starts from; phase 2 trades the
//! halves and runs β over `[0, h)` and α over `[h, K')` against the other
//! chain's stored rows, each lane producing its steps' posteriors. An odd
//! number of 8-step groups leaves `[K', K)` over, run on the half register
//! at each end. Whichever chain reaches step `i` second computes its
//! posterior, so the trellis holds `K` rows a block.
//!
//! [`Width`] holds only what differs between ymm (`B = 1`: the
//! single-block AVX2 tier) and zmm (`B = 2`: the AVX-512BW pair and quad
//! launches); [`body`] is everything else, stepping `R` registers
//! together so each hides the others' ≈ 6-cycle recurrence. The body's
//! helpers are functions, not closures: a closure does not inherit the
//! `#[target_feature]` of the wrapper it is inlined into, so LLVM may
//! outline it with every intrinsic a call.

#![deny(unsafe_op_in_unsafe_fn)]

use super::decoder::NEG_INF;
use super::trellis::{self, STATES};
use crate::llr::Llr;
use core::hint::black_box;
use std::arch::x86_64::*;

/// Byte-level `pshufb` control replicating a lane-level i16 gather.
pub(super) fn lane_ctrl(table: [u8; STATES]) -> [i8; 16] {
    core::array::from_fn(|i| (2 * table[i / 2] + i as u8 % 2) as i8)
}

/// The `[low half, high half]` lanes of the body's `vpshufb` controls,
/// built once: `[st₀, st₁, γ₀, γ₁]` (state gathers and γ selects under
/// input bit 0 and 1) for a register whose low half carries the α
/// chains, the same for the β chains, then the γ phase's word reversal
/// of the high half. A γ select picks, per state lane, the quad entry
/// `[γ₀+γₚ, γ₀−γₚ, −γ₀+γₚ, −γ₀−γₚ][2u + parity]`: the low half from the
/// first quad of a pair, the high half from the second (word 4 on).
fn control_lanes() -> &'static [[[i8; 16]; 2]; 9] {
    static LANES: std::sync::OnceLock<[[[i8; 16]; 2]; 9]> = std::sync::OnceLock::new();
    LANES.get_or_init(|| {
        let pred = |u| (trellis::pred_table(u), trellis::pred_parity(u));
        let next = |u| (trellis::next_table(u), trellis::next_parity(u));
        let ctl = |(lo_t, lo_p): ([u8; 8], [u8; 8]), (hi_t, hi_p): ([u8; 8], [u8; 8]), u| {
            let gam = |par: [u8; 8], base| lane_ctrl(par.map(|p| base + 2 * u + p));
            [
                [lane_ctrl(lo_t), lane_ctrl(hi_t)],
                [gam(lo_p, 0), gam(hi_p, 4)],
            ]
        };
        let [[a0, ag0], [a1, ag1]] = [0, 1].map(|u| ctl(pred(u), next(u), u));
        let [[b0, bg0], [b1, bg1]] = [0, 1].map(|u| ctl(next(u), pred(u), u));
        let rev = core::array::from_fn(|i| 14 - (i as i8 & !1) + (i as i8 & 1));
        let id = core::array::from_fn(|i| i as i8);
        [a0, a1, ag0, ag1, b0, b1, bg0, bg1, [id, rev]]
    })
}

/// `#[inline(always)] unsafe fn`s, each body one `unsafe` block.
macro_rules! always {
    ($(fn $f:ident($($arg:tt)*) $(-> $ret:ty)? { $($body:tt)* })*) => {
        $(
            #[inline(always)]
            unsafe fn $f($($arg)*) $(-> $ret)? {
                // SAFETY: the caller vouches for the ISA and the pointers.
                unsafe { $($body)* }
            }
        )*
    };
}

/// One register of i16 words in 128-bit lanes, and the only operations
/// the body runs on it — every one lane-local.
///
/// # Safety
/// The methods execute the type's ISA: call them only inside a function
/// compiled with it.
pub(super) trait Ops: Copy {
    unsafe fn splat(w: i16) -> Self;
    unsafe fn adds(self, o: Self) -> Self;
    unsafe fn subs(self, o: Self) -> Self;
    unsafe fn max(self, o: Self) -> Self;
    /// `vpshufb`: the bytes of each lane picked by the control `c`.
    unsafe fn shuf(self, c: Self) -> Self;
    /// Arithmetic shift right by one.
    unsafe fn half(self) -> Self;
    /// Each dword's high word moved to its low word.
    unsafe fn high_words(self) -> Self;
    /// Each lane shifted down by `N` bytes.
    unsafe fn bytes_down<const N: i32>(self) -> Self;
    /// `(unpacklo, unpackhi)` of words, dwords and qwords.
    unsafe fn zip16(self, o: Self) -> (Self, Self);
    unsafe fn zip32(self, o: Self) -> (Self, Self);
    unsafe fn zip64(self, o: Self) -> (Self, Self);

    /// The four branch metrics of eight trellis steps per lane from `γ₀`
    /// and `γₚ`, `adds16(±γ₀, ±γₚ)` with `subs16(0, ·)` negation exactly as
    /// the oracle's `branch()`, transposed to one quad per step: register
    /// `j` of the result holds steps `2j` and `2j + 1` of each lane.
    #[inline(always)]
    unsafe fn quads(self, gp: Self) -> [Self; 4] {
        // SAFETY: the caller vouches for the ISA.
        unsafe {
            let (g0, zero) = (self, Self::splat(0));
            let (ng0, ngp) = (zero.subs(g0), zero.subs(gp));
            let (lo01, hi01) = g0.adds(gp).zip16(g0.adds(ngp));
            let (lo23, hi23) = ng0.adds(gp).zip16(ng0.adds(ngp));
            let ((q0, q1), (q2, q3)) = (lo01.zip32(lo23), hi01.zip32(hi23));
            [q0, q1, q2, q3]
        }
    }

    /// One packed trellis step from the state `self` under the controls
    /// `c` (see [`Width::controls`]): gather the chains' states under both
    /// input bits, add the branch metrics selected from the quads `q`.
    /// Returns the gathered states, the γ vectors and the two candidates,
    /// each `[u=0, u=1]`.
    #[inline(always)]
    unsafe fn candidates(self, q: Self, c: &[Self; 4]) -> [[Self; 2]; 3] {
        // SAFETY: the caller vouches for the ISA.
        unsafe {
            let st = [self.shuf(c[0]), self.shuf(c[1])];
            let gam = [q.shuf(c[2]), q.shuf(c[3])];
            [st, gam, [st[0].adds(gam[0]), st[1].adds(gam[1])]]
        }
    }

    /// Max over the two candidates, `NEG_INF` floor, state-0 normalise —
    /// per 128-bit lane.
    #[inline(always)]
    unsafe fn select(cand: [Self; 2], floor: Self, bcast0: Self) -> Self {
        // SAFETY: the caller vouches for the ISA.
        unsafe {
            let m = cand[0].max(cand[1]).max(floor);
            m.subs(m.shuf(bcast0))
        }
    }

    /// `max(lo, hi)` of an unpack pair: one round of a reduction tree that
    /// keeps two registers' partial maxima apart, side by side.
    #[inline(always)]
    unsafe fn max_pair((lo, hi): (Self, Self)) -> Self {
        // SAFETY: the caller vouches for the ISA.
        unsafe { lo.max(hi) }
    }
}

macro_rules! ops {
    ($ty:ty, $set1:ident, $adds:ident, $subs:ident, $max:ident, $shuf:ident, $srai:ident,
     $srli32:ident, $bsrli:ident, $lo16:ident, $hi16:ident, $lo32:ident, $hi32:ident,
     $lo64:ident, $hi64:ident) => {
        impl Ops for $ty {
            always! {
                fn splat(w: i16) -> Self { $set1(w) }
                fn adds(self, o: Self) -> Self { $adds(self, o) }
                fn subs(self, o: Self) -> Self { $subs(self, o) }
                fn max(self, o: Self) -> Self { $max(self, o) }
                fn shuf(self, c: Self) -> Self { $shuf(self, c) }
                fn half(self) -> Self { $srai::<1>(self) }
                fn high_words(self) -> Self { $srli32::<16>(self) }
                fn zip16(self, o: Self) -> (Self, Self) { ($lo16(self, o), $hi16(self, o)) }
                fn zip32(self, o: Self) -> (Self, Self) { ($lo32(self, o), $hi32(self, o)) }
                fn zip64(self, o: Self) -> (Self, Self) { ($lo64(self, o), $hi64(self, o)) }
            }
            #[inline(always)]
            unsafe fn bytes_down<const N: i32>(self) -> Self {
                // SAFETY: the caller vouches for the ISA.
                unsafe { $bsrli::<N>(self) }
            }
        }
    };
}

#[rustfmt::skip]
ops!(__m128i, _mm_set1_epi16, _mm_adds_epi16, _mm_subs_epi16, _mm_max_epi16, _mm_shuffle_epi8,
     _mm_srai_epi16, _mm_srli_epi32, _mm_srli_si128, _mm_unpacklo_epi16, _mm_unpackhi_epi16,
     _mm_unpacklo_epi32, _mm_unpackhi_epi32, _mm_unpacklo_epi64, _mm_unpackhi_epi64);
#[rustfmt::skip]
ops!(__m256i, _mm256_set1_epi16, _mm256_adds_epi16, _mm256_subs_epi16, _mm256_max_epi16,
     _mm256_shuffle_epi8, _mm256_srai_epi16, _mm256_srli_epi32, _mm256_srli_si256,
     _mm256_unpacklo_epi16, _mm256_unpackhi_epi16, _mm256_unpacklo_epi32, _mm256_unpackhi_epi32,
     _mm256_unpacklo_epi64, _mm256_unpackhi_epi64);
#[rustfmt::skip]
ops!(__m512i, _mm512_set1_epi16, _mm512_adds_epi16, _mm512_subs_epi16, _mm512_max_epi16,
     _mm512_shuffle_epi8, _mm512_srai_epi16, _mm512_srli_epi32, _mm512_bsrli_epi128,
     _mm512_unpacklo_epi16, _mm512_unpackhi_epi16, _mm512_unpacklo_epi32, _mm512_unpackhi_epi32,
     _mm512_unpacklo_epi64, _mm512_unpackhi_epi64);

/// Where one register's `B` blocks are read from and written to: per
/// block its streams, β termination, `γ₀` and posterior runs (a ymm
/// register's one block fills both entries); shared, the register's
/// folded branch metrics and trellis.
pub(super) struct Lanes {
    sys: [*const Llr; 2],
    par: [*const Llr; 2],
    apriori: [*const Llr; 2],
    binit: [[Llr; STATES]; 2],
    g0: [*mut Llr; 2],
    post: [*mut i32; 2],
    gq: *mut Llr,
    trellis: *mut Llr,
}

/// What differs between the widths [`body`] runs at. The register
/// [`Width::V`] has `2B` 128-bit lanes; its low half [`Width::H`], one
/// lane per block, carries the leftover group's chains.
///
/// # Safety
/// As for [`Ops`]; the pointers are the caller's to vouch for.
pub(super) trait Width {
    /// Blocks per register.
    const B: usize;
    /// Byte alignment of the branch-metric and trellis scratch.
    const ALIGN: usize;
    type V: Ops;
    type H: Ops;
    /// Per-call constants of [`Width::sort`] and [`Width::reverse`].
    type Masks: Copy;
    /// Whether the host runs this width.
    fn detected() -> bool;
    /// Words of branch metrics one register stages for blocks of K.
    fn gq_words(k: usize) -> usize;
    unsafe fn masks() -> Self::Masks;
    /// A whole register at `p`: a trellis slot or a folded quad store.
    unsafe fn load(p: *const Llr) -> Self::V;
    unsafe fn store(p: *mut Llr, v: Self::V);
    /// Slot `p`'s quad pairs, one per block, broadcast to both halves.
    unsafe fn slot(p: *const Llr) -> Self::V;
    /// A half register at `p`, unaligned.
    unsafe fn load_h(p: *const Llr) -> Self::H;
    unsafe fn store_h(p: *mut Llr, v: Self::H);
    /// A half register whose lane `b` is read from `p[b] + i`.
    unsafe fn get_h(p: [*const Llr; 2], i: usize) -> Self::H;
    /// Lane `b` of `v` to `p[b] + i`.
    unsafe fn put_h<T>(v: Self::H, p: [*mut T; 2], i: usize);
    unsafe fn low(v: Self::V) -> Self::H;
    unsafe fn high(v: Self::V) -> Self::H;
    unsafe fn join(low: Self::H, high: Self::H) -> Self::V;
    /// Each block's qwords `[a₂ⱼ a₂ⱼ₊₁]` (low half) and `[b₂ⱼ b₂ⱼ₊₁]`
    /// (high half) to `[a₂ⱼ b₂ⱼ]`, then `[a₂ⱼ₊₁ b₂ⱼ₊₁]`: two slots.
    unsafe fn fold(q: Self::V) -> Self::V;
    /// One hypothesis's `(α + γ) + β` in phase 2 from the loaded `row`
    /// and `[st, γ, st + γ]`: the β half adds γ to the row and then the
    /// gathered state, the α half adds the row to the candidate.
    unsafe fn sort(row: Self::V, sgc: [Self::V; 3], m: Self::Masks) -> Self::V;
    /// The α half's dwords reversed: its four steps run backward.
    unsafe fn reverse(post: Self::V, m: Self::Masks) -> Self::V;
    /// The leftover group's quads from `at` on; register `j` holds steps
    /// `2j` and `2j + 1` of each lane.
    unsafe fn store_left(q: [Self::V; 4], at: *mut Llr);
    /// The leftover group's step `j` quads, at the bottom of each lane.
    unsafe fn load_left(at: *const Llr, j: usize) -> Self::H;
    /// Lane `b`'s first dword to `post[b] + i`.
    unsafe fn store_left_post(v: Self::H, post: [*mut i32; 2], i: usize);
    /// [`body`] on `R` registers, in this width's `#[target_feature]`
    /// wrapper.
    unsafe fn launch<const R: usize>(k: usize, regs: &[Lanes; R]);

    /// A control from its `[low half, high half]` lane bytes. Opaque:
    /// with the control visible as a constant, LLVM re-expands a
    /// `vpshufb` into a multi-µop shuffle chain.
    #[inline(always)]
    unsafe fn control(lanes: [[i8; 16]; 2]) -> Self::V {
        let (lo, hi) = ([lanes[0]; 2], [lanes[1]; 2]);
        // SAFETY: the ISA is the caller's; `load_h` reads `B ≤ 2` lanes.
        unsafe {
            black_box(Self::join(
                Self::load_h(lo.as_ptr().cast()),
                Self::load_h(hi.as_ptr().cast()),
            ))
        }
    }

    /// The controls `[st₀, st₁, γ₀, γ₁]` from `lanes[i..i + 4]`, and
    /// their low halves: the leftover group's chains, which read the
    /// first quad of a lane.
    #[inline(always)]
    unsafe fn controls(lanes: &[[[i8; 16]; 2]; 9], i: usize) -> ([Self::V; 4], [Self::H; 4]) {
        // SAFETY: the caller vouches for the ISA.
        unsafe {
            let (mut c, mut h) = ([Self::V::splat(0); 4], [Self::H::splat(0); 4]);
            for (j, (c, h)) in c.iter_mut().zip(&mut h).enumerate() {
                *c = Self::control(lanes[i + j]);
                *h = Self::low(*c);
            }
            (c, h)
        }
    }
}

/// One block per ymm: the single-block AVX2 tier.
pub(super) struct Ymm;

/// Two blocks per zmm: the AVX-512BW pair (one register) and quad (two)
/// launches.
pub(super) struct Zmm;

#[rustfmt::skip]
impl Width for Ymm {
    const B: usize = 1;
    const ALIGN: usize = align_of::<Llr>();
    type V = __m256i;
    type H = __m128i;
    /// The dword order of [`Width::reverse`].
    type Masks = __m256i;
    fn detected() -> bool { std::arch::is_x86_feature_detected!("avx2") }
    fn gq_words(k: usize) -> usize { 4 * k }
    always! {
        fn masks() -> __m256i { _mm256_setr_epi32(0, 1, 2, 3, 7, 6, 5, 4) }
        fn load(p: *const Llr) -> __m256i { _mm256_loadu_si256(p.cast()) }
        fn store(p: *mut Llr, v: __m256i) { _mm256_storeu_si256(p.cast(), v) }
        fn slot(p: *const Llr) -> __m256i { _mm256_broadcastsi128_si256(_mm_loadu_si128(p.cast())) }
        fn load_h(p: *const Llr) -> __m128i { _mm_loadu_si128(p.cast()) }
        fn store_h(p: *mut Llr, v: __m128i) { _mm_storeu_si128(p.cast(), v) }
        fn get_h(p: [*const Llr; 2], i: usize) -> __m128i { _mm_loadu_si128(p[0].add(i).cast()) }
        fn low(v: __m256i) -> __m128i { _mm256_castsi256_si128(v) }
        fn high(v: __m256i) -> __m128i { _mm256_extracti128_si256::<1>(v) }
        fn join(low: __m128i, high: __m128i) -> __m256i { _mm256_set_m128i(high, low) }
        fn fold(q: __m256i) -> __m256i { _mm256_permute4x64_epi64::<0xD8>(q) }
        fn sort(row: __m256i, [st, gam, _]: [__m256i; 3], _: __m256i) -> __m256i {
            let a_side = _mm256_blend_epi32::<0xF0>(row, st);
            let b_side = _mm256_blend_epi32::<0xF0>(st, row);
            _mm256_adds_epi16(_mm256_adds_epi16(a_side, gam), b_side)
        }
        fn reverse(post: __m256i, order: __m256i) -> __m256i {
            _mm256_permutevar8x32_epi32(post, order)
        }
        fn store_left(q: [__m256i; 4], at: *mut Llr) {
            for (j, q) in q.into_iter().enumerate() {
                _mm_storeu_si128(at.add(8 * j).cast(), _mm256_castsi256_si128(q));
            }
        }
        fn load_left(at: *const Llr, j: usize) -> __m128i { _mm_loadl_epi64(at.add(4 * j).cast()) }
        fn store_left_post(v: __m128i, post: [*mut i32; 2], i: usize) {
            *post[0].add(i) = _mm_cvtsi128_si32(v);
        }
    }
    #[inline(always)]
    unsafe fn put_h<T>(v: __m128i, p: [*mut T; 2], i: usize) {
        // SAFETY: the caller vouches for the ISA and the pointers.
        unsafe { _mm_storeu_si128(p[0].add(i).cast(), v) }
    }
    #[inline(always)]
    unsafe fn launch<const R: usize>(k: usize, regs: &[Lanes; R]) {
        let regs = regs.as_slice().try_into().expect("one block per ymm call");
        // SAFETY: the caller's contract is the wrapper's.
        unsafe { siso_ymm(k, regs) }
    }
}

// `load`, `store`, `slot` and the leftover quads are aligned by
// `ALIGN` and the layout `siso` checks.
#[rustfmt::skip]
impl Width for Zmm {
    const B: usize = 2;
    const ALIGN: usize = 64;
    type V = __m512i;
    type H = __m256i;
    /// Lanes 0 and 1 (β) as words, lanes 2 and 3 (α) as dwords.
    type Masks = (__mmask32, __mmask16);
    fn detected() -> bool {
        use std::arch::is_x86_feature_detected as has;
        has!("avx512f") && has!("avx512bw")
    }
    fn gq_words(k: usize) -> usize { 2 * (4 * k + 4 * STATES) }
    #[inline(always)]
    unsafe fn masks() -> Self::Masks {
        // Opaque, or LLVM turns the masked ops into half-register
        // `vshufi64x2` selects that queue on the shuffle port.
        black_box((0xFFFF, 0xFF00))
    }
    always! {
        fn load(p: *const Llr) -> __m512i { _mm512_load_si512(p.cast()) }
        fn store(p: *mut Llr, v: __m512i) { _mm512_store_si512(p.cast(), v) }
        fn slot(p: *const Llr) -> __m512i { _mm512_broadcast_i64x4(_mm256_load_si256(p.cast())) }
        fn load_h(p: *const Llr) -> __m256i { _mm256_loadu_si256(p.cast()) }
        fn store_h(p: *mut Llr, v: __m256i) { _mm256_storeu_si256(p.cast(), v) }
        fn get_h(p: [*const Llr; 2], i: usize) -> __m256i {
            _mm256_loadu2_m128i(p[1].add(i).cast(), p[0].add(i).cast())
        }
        fn low(v: __m512i) -> __m256i { _mm512_castsi512_si256(v) }
        fn high(v: __m512i) -> __m256i { _mm512_extracti64x4_epi64::<1>(v) }
        fn join(low: __m256i, high: __m256i) -> __m512i {
            _mm512_inserti64x4::<1>(_mm512_castsi256_si512(low), high)
        }
        fn fold(q: __m512i) -> __m512i {
            _mm512_permutexvar_epi64(_mm512_setr_epi64(0, 4, 2, 6, 1, 5, 3, 7), q)
        }
        // One masked add where the ymm sort blends twice.
        fn sort(row: __m512i, [st, gam, cand]: [__m512i; 3], m: Self::Masks) -> __m512i {
            let a_side = _mm512_mask_adds_epi16(cand, m.0, row, gam);
            _mm512_adds_epi16(a_side, _mm512_mask_blend_epi32(m.1, st, row))
        }
        fn reverse(post: __m512i, m: Self::Masks) -> __m512i {
            _mm512_mask_shuffle_epi32::<_MM_PERM_ABCD>(post, m.1, post)
        }
        // 32 bytes a step: step `2j` at the bottom of each lane, then
        // step `2j + 1`.
        fn store_left(q: [__m512i; 4], at: *mut Llr) {
            for (j, q) in q.into_iter().enumerate() {
                let (x, step) = (_mm512_castsi512_si256(q), at.add(32 * j));
                _mm256_store_si256(step.cast(), x);
                _mm256_store_si256(step.add(16).cast(), _mm256_unpackhi_epi64(x, x));
            }
        }
        fn load_left(at: *const Llr, j: usize) -> __m256i { _mm256_load_si256(at.add(16 * j).cast()) }
        fn store_left_post(v: __m256i, post: [*mut i32; 2], i: usize) {
            *post[0].add(i) = _mm256_extract_epi32::<0>(v);
            *post[1].add(i) = _mm256_extract_epi32::<4>(v);
        }
    }
    #[inline(always)]
    unsafe fn put_h<T>(v: __m256i, p: [*mut T; 2], i: usize) {
        // SAFETY: the caller vouches for the ISA and the pointers.
        unsafe {
            _mm_storeu_si128(p[0].add(i).cast(), _mm256_castsi256_si128(v));
            _mm_storeu_si128(p[1].add(i).cast(), _mm256_extracti128_si256::<1>(v));
        }
    }
    #[inline(always)]
    unsafe fn launch<const R: usize>(k: usize, regs: &[Lanes; R]) {
        // SAFETY: the caller's contract is the wrapper's.
        unsafe { siso_zmm(k, regs) }
    }
}

/// [`body`] at one block per ymm register.
///
/// # Safety
/// AVX2, and the layout [`siso`] checks.
#[target_feature(enable = "avx2")]
unsafe fn siso_ymm(k: usize, regs: &[Lanes; 1]) {
    // SAFETY: the caller's contract is the body's.
    unsafe { body::<Ymm, 1>(k, regs) }
}

/// [`body`] at two blocks per zmm register, `R` registers together.
///
/// # Safety
/// AVX-512BW, and the layout [`siso`] checks.
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn siso_zmm<const R: usize>(k: usize, regs: &[Lanes; R]) {
    // SAFETY: the caller's contract is the body's.
    unsafe { body::<Zmm, R>(k, regs) }
}

/// One SISO pass over `N` blocks of length K at width `W`, `W::B` blocks
/// per register — the kernel's safe boundary, which checks the ISA and
/// every length and alignment the body indexes by.
/// `sys`/`par`/`apriori` are read in place; `g0` (`γ₀`, for the peel)
/// and `post` (the posteriors, low 16 bits of each element) are
/// block-major, each block's run in natural order. Per register `r`
/// (blocks `B·r..B·r + B`), with `h = 8·⌊K/16⌋` and `K' = 2h`:
///
/// * `gq[r·W::gq_words(K)..]` — slot `p < h` at words `8B·p` holds the
///   blocks' quad pairs `[quad(p) | quad(K'−1−p)]`; from word `4B·K'`
///   the leftover group's quads, as [`Width::store_left`] lays them out.
/// * `trellis[8B·K·r..]` — slot `p < h` at words `16B·p` is the phase-1
///   register `[α_p … | β_{K'−p} …]`; the leftover group's
///   `[β_{i+1} …]` at words `8B·i`.
#[allow(clippy::too_many_arguments)]
pub(super) fn siso<W: Width, const N: usize>(
    sys: [&[Llr]; N],
    par: [&[Llr]; N],
    apriori: [&[Llr]; N],
    binit: &[[Llr; STATES]; N],
    g0: &mut [Llr],
    gq: &mut [Llr],
    trellis: &mut [Llr],
    post: &mut [i32],
) {
    assert!(W::detected(), "host lacks the kernel's ISA");
    let k = sys[0].len();
    assert!(
        k.is_multiple_of(STATES) && k >= 2 * STATES,
        "block size {k} is not a multiple of 8 that is at least 16"
    );
    let regs = N / W::B;
    assert!(N == regs * W::B && (1..=2).contains(&regs), "{N} blocks");
    let mut streams = sys.iter().chain(&par).chain(&apriori);
    assert!(streams.all(|s| s.len() == k), "input stream length");
    assert!(g0.len() == N * k && post.len() == N * k, "output length");
    assert!(gq.len() >= regs * W::gq_words(k), "γ scratch length");
    assert!(trellis.len() >= 8 * N * k, "trellis scratch length");
    let aligned = |v: &[Llr]| v.as_ptr().addr().is_multiple_of(W::ALIGN);
    assert!(aligned(gq) && aligned(trellis), "scratch alignment");
    let (g0, post) = (g0.as_mut_ptr(), post.as_mut_ptr());
    let (gq, tr) = (gq.as_mut_ptr(), trellis.as_mut_ptr());
    let lanes = |r: usize| {
        let b = [W::B * r, W::B * r + W::B - 1];
        Lanes {
            sys: b.map(|g| sys[g].as_ptr()),
            par: b.map(|g| par[g].as_ptr()),
            apriori: b.map(|g| apriori[g].as_ptr()),
            binit: b.map(|g| binit[g]),
            g0: b.map(|g| g0.wrapping_add(g * k)),
            post: b.map(|g| post.wrapping_add(g * k)),
            gq: gq.wrapping_add(W::gq_words(k) * r),
            trellis: tr.wrapping_add(8 * W::B * k * r),
        }
    };
    // SAFETY: the ISA, and every length and alignment the layout above
    // indexes by, are checked.
    unsafe {
        match regs {
            1 => W::launch(k, &[lanes(0)]),
            _ => W::launch(k, &[lanes(0), lanes(1)]),
        }
    }
}

/// `(γ₀, γₚ) = ((Lₛ + Lₐ) >> 1, Lₚ >> 1)` of the blocks' 8-step groups
/// at `a` in the low half and at `m` in the high half.
///
/// # Safety
/// The ISA, and both groups inside each block's run.
#[inline(always)]
unsafe fn gammas<W: Width>(l: &Lanes, a: usize, m: usize) -> (W::V, W::V) {
    // SAFETY: the caller's contract.
    unsafe {
        let (sys, apriori) = (groups::<W>(l.sys, a, m), groups::<W>(l.apriori, a, m));
        (sys.adds(apriori).half(), groups::<W>(l.par, a, m).half())
    }
}

/// The blocks' 8-step groups at `a` in the low half, at `m` in the high.
///
/// # Safety
/// As for [`gammas`].
#[inline(always)]
unsafe fn groups<W: Width>(v: [*const Llr; 2], a: usize, m: usize) -> W::V {
    // SAFETY: the caller's contract.
    unsafe { W::join(W::get_h(v, a), W::get_h(v, m)) }
}

/// The γ phase of one register, sixteen steps per block per pass: each
/// block's group `a` from the front in the low half, its mirror group
/// in the high half with the step order reversed by `rev`, so each
/// stored slot holds the blocks' `[quad(p) | quad(K'−1−p)]`.
///
/// # Safety
/// As for [`body`].
#[inline(always)]
unsafe fn stage<W: Width>(l: &Lanes, k: usize, h: usize, rev: W::V) {
    let (b, kp) = (W::B, 2 * h);
    // SAFETY: every group read and written lies inside a block's run,
    // every slot inside the register's region.
    unsafe {
        let mut a = 0;
        while a < h {
            let m = kp - STATES - a;
            let (g0v, gpv) = gammas::<W>(l, a, m);
            W::put_h(W::low(g0v), l.g0, a);
            W::put_h(W::high(g0v), l.g0, m);
            let q = g0v.shuf(rev).quads(gpv.shuf(rev));
            for (j, qj) in q.into_iter().enumerate() {
                W::store(l.gq.add(8 * b * (a + 2 * j)), W::fold(qj));
            }
            a += STATES;
        }
        if kp < k {
            // The leftover group, in both halves.
            let (g0v, gpv) = gammas::<W>(l, kp, kp);
            W::put_h(W::low(g0v), l.g0, kp);
            W::store_left(g0v.quads(gpv), l.gq.add(4 * b * kp));
        }
    }
}

/// Phase 1's first α rows: state 0 at 0, every other at the floor.
const ALPHA0: [[Llr; STATES]; 2] = [[
    0, NEG_INF, NEG_INF, NEG_INF, NEG_INF, NEG_INF, NEG_INF, NEG_INF,
]; 2];

/// The meet-in-the-middle schedule on `R` registers of `W::B` blocks
/// each, step by step together (module doc; layouts: [`siso`]).
///
/// # Safety
/// `W`'s ISA, and the lengths and alignment [`siso`] checks.
#[inline(always)]
unsafe fn body<W: Width, const R: usize>(k: usize, regs: &[Lanes; R]) {
    let h = STATES * (k / (2 * STATES));
    let (b, kp) = (W::B, 2 * h);
    // SAFETY: the caller vouches for the ISA; every access is a slot,
    // row or leftover step of a register's region, or a block's run,
    // inside the buffers `siso` checked.
    unsafe {
        let lanes = control_lanes();
        for l in regs {
            stage::<W>(l, k, h, W::control(lanes[8]));
        }
        let ((c1, c1h), (c2, c2h)) = (W::controls(lanes, 0), W::controls(lanes, 4));
        let floor = W::V::splat(NEG_INF);
        let bcast0 = black_box(W::V::splat(0x0100));
        let (floor_h, bcast0_h) = (W::low(floor), W::low(bcast0));

        // Leftover group, β side: walk `[K', K)` backward so the packed
        // phases start from β at step K'.
        let mut s_h = [W::H::splat(0); R];
        for (s, l) in s_h.iter_mut().zip(regs) {
            *s = W::load_h(l.binit.as_ptr().cast());
        }
        for i in (kp..k).rev() {
            for (s, l) in s_h.iter_mut().zip(regs) {
                W::store_h(l.trellis.add(8 * b * i), *s);
                let q = W::load_left(l.gq.add(4 * b * kp), i - kp);
                let [_, _, cand] = s.candidates(q, &c2h);
                *s = W::H::select(cand, floor_h, bcast0_h);
            }
        }

        // Phase 1: α forward over `[0, h)` in the low half, β backward
        // over `[h, K')` in the high half; each step first stores the
        // slot it starts from.
        let mut s = [W::V::splat(0); R];
        for (s, beta) in s.iter_mut().zip(s_h) {
            *s = W::join(W::load_h(ALPHA0.as_ptr().cast()), beta);
        }
        for p in 0..h {
            for (s, l) in s.iter_mut().zip(regs) {
                W::store(l.trellis.add(16 * b * p), *s);
                let [_, _, cand] = s.candidates(W::slot(l.gq.add(8 * b * p)), &c1);
                *s = W::V::select(cand, floor, bcast0);
            }
        }

        // Phase 2: the chains trade halves (β low, α high) and each lane
        // also owns its step's posterior `max₀ − max₁`. The first fold
        // leaves four `(t₀, t₁)` partial pairs per step; three unpack/max
        // rounds transpose-reduce four such registers into one `(max₀,
        // max₁)` dword per step.
        for s in &mut s {
            *s = W::join(W::high(*s), W::low(*s));
        }
        let m = W::masks();
        let mut p = h;
        while p > 0 {
            let mut y = [[W::V::splat(0); 4]; R];
            for j in 0..4 {
                p -= 1;
                for ((s, y), l) in s.iter_mut().zip(&mut y).zip(regs) {
                    let row = W::load(l.trellis.add(16 * b * p));
                    let [st, gam, cand] = s.candidates(W::slot(l.gq.add(8 * b * p)), &c2);
                    let t0 = W::sort(row, [st[0], gam[0], cand[0]], m);
                    let t1 = W::sort(row, [st[1], gam[1], cand[1]], m);
                    y[j] = W::V::max_pair(t0.zip16(t1));
                    *s = W::V::select(cand, floor, bcast0);
                }
            }
            // y[j] belongs to steps p+3−j (β lanes) and K'−4−p+j (α
            // lanes); reducing in the order 3,2,1,0 leaves the β lanes
            // ascending in memory and the α lanes descending.
            for (y, l) in y.iter().zip(regs) {
                let (u1, u2) = (
                    W::V::max_pair(y[3].zip32(y[2])),
                    W::V::max_pair(y[1].zip32(y[0])),
                );
                let wf = W::V::max_pair(u1.zip64(u2)).max(floor);
                // Low word of each dword: `max₀ − max₁`; the high word
                // is scrap, as in the 128-bit tiers.
                let post = W::reverse(wf.subs(wf.high_words()), m);
                W::put_h(W::low(post), l.post, p);
                W::put_h(W::high(post), l.post, kp - 4 - p);
            }
        }

        // Leftover group, α side: one chain per block forward over
        // `[K', K)` against the β rows its twin stored,
        // destination-indexed as in the α lanes above.
        let mut a = [W::H::splat(0); R];
        for (a, s) in a.iter_mut().zip(s) {
            *a = W::high(s);
        }
        for i in kp..k {
            for (a, l) in a.iter_mut().zip(regs) {
                let brow = W::load_h(l.trellis.add(8 * b * i));
                let q = W::load_left(l.gq.add(4 * b * kp), i - kp);
                let [_, _, cand] = a.candidates(q, &c1h);
                let y = W::H::max_pair(cand[0].adds(brow).zip16(cand[1].adds(brow)));
                let z = y.max(y.bytes_down::<8>());
                let w = z.max(z.bytes_down::<4>());
                let wf = w.max(floor_h);
                W::store_left_post(wf.subs(wf.bytes_down::<2>()), l.post, i);
                *a = W::H::select(cand, floor_h, bcast0_h);
            }
        }
    }
}
