//! OFDM modulation: planned radix-2 FFT, subcarrier mapping, cyclic
//! prefix.
//!
//! Parameters mirror the paper's 5 MHz FDD configuration: 512-point
//! FFT, 300 used subcarriers (25 RB × 12), normal CP.
//!
//! The transform is one engine. A per-size `Plan` (twiddles and the
//! bit-reversal table, built once per process) drives a kernel written
//! once over the `Lane` trait and instantiated for scalar, SSE2, AVX2
//! and AVX-512 lanes. Every tier does the same IEEE multiplies, adds
//! and subtracts on every element in the same order (no FMA anywhere),
//! so all tiers are `to_bits`-identical and the scalar tier is the
//! exactness oracle. OAI's DFTs are SIMD too, which is why the paper's
//! module-share figures show OFDM small; the *scalar* `do_OFDM`
//! workload of Figure 7 is `apcm::workloads::ofdm_scalar_kernel`, a
//! trace instrument separate from this code.
//!
//! Layout: samples are split into `re` / `im` planes. A radix-2
//! decimation-in-time graph has `log2 N` stages; in natural placement
//! their butterfly spans run `N/2, N/4, … 1`, in bit-reversed placement
//! `1, 2, … N/2`. The first `log2 N / 2` stages run in natural
//! placement (one twiddle per contiguous block), the planes are
//! bit-reversed once, and the remaining stages run in bit-reversed
//! placement (contiguous twiddle vectors) — so every butterfly in every
//! stage is a vertical vector operation over contiguous lanes. The
//! inverse transform is the forward one with the two planes exchanged.
//!
//! Arrangement happens in registers, never an element at a time. With
//! `L` lanes, `l = log2 L`, `μ = log2 N − 2l` and an index written
//! `j = t·2^(μ+l) + m·2^l + c` (`t, c < L`, `m < 2^μ`), bit reversal
//! sends `j` to `rev_l(c)·2^(μ+l) + rev_μ(m)·2^l + rev_l(t)`: for each
//! `m`, the `L` vectors at `rev_l(i)·2^(μ+l) + m·2^l` form an `L × L`
//! tile whose transpose is stored, row `c`, at `rev_l(c)·2^(μ+l) +
//! rev_μ(m)·2^l`. Both row offsets are entries of the one `log2 N`-bit
//! table (`rev[i]` and `rev[m·2^l]`), and the scalar tier's table walk
//! is the `L = 1` instance of the same loop. The AoS ↔ plane copies are
//! `deinterleave` / `interleave` at vector width, and two adjacent
//! stages share one load/store round trip (four operands, the same
//! four butterflies). All three are pure permutations or a regrouping
//! of independent operations, so the arithmetic graph is the one above.

use crate::modulation::Cplx;
use std::cell::RefCell;
use std::mem::MaybeUninit;
use std::sync::OnceLock;
use vran_simd::host::{self, HostIsa};

/// Lanes of the widest vector any tier has.
const MAX_LANES: usize = 16;

/// One vector of `LANES` f32s — plain data, so memory is read and
/// written as unaligned copies of it and a splat is a read of `LANES`
/// equal f32s — and the only register operations the kernel uses. The
/// last three only move data.
///
/// # Safety
/// The methods of a SIMD implementation execute that ISA's
/// instructions: call them only inside a function compiled with the
/// matching `#[target_feature]` on a host that has it.
trait Lane: Copy {
    const LANES: usize;
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn sub(self, o: Self) -> Self;
    unsafe fn mul(self, o: Self) -> Self;
    /// Transpose the `LANES × LANES` tile held in `rows[..LANES]`.
    unsafe fn transpose(rows: &mut [Self; MAX_LANES]);
    /// `LANES` interleaved `(re, im)` pairs, `a` then `b`, as
    /// (every `re`, every `im`).
    unsafe fn deinterleave(a: Self, b: Self) -> (Self, Self);
    /// The inverse of [`Lane::deinterleave`].
    unsafe fn interleave(re: Self, im: Self) -> (Self, Self);
}

impl Lane for f32 {
    const LANES: usize = 1;
    #[inline(always)]
    unsafe fn add(self, o: Self) -> Self {
        self + o
    }
    #[inline(always)]
    unsafe fn sub(self, o: Self) -> Self {
        self - o
    }
    #[inline(always)]
    unsafe fn mul(self, o: Self) -> Self {
        self * o
    }
    #[inline(always)]
    unsafe fn transpose(_: &mut [Self; MAX_LANES]) {}
    #[inline(always)]
    unsafe fn deinterleave(a: Self, b: Self) -> (Self, Self) {
        (a, b)
    }
    #[inline(always)]
    unsafe fn interleave(re: Self, im: Self) -> (Self, Self) {
        (re, im)
    }
}

/// Per-size tables, shared by every tier and both directions. Built
/// only by [`Plan::new`] and never changed: the kernel's index ranges
/// rest on `rev` being the bit reversal over `log2n` bits.
#[derive(Debug)]
struct Plan {
    log2n: u32,
    /// Stages run before the permutation (`log2n / 2`); also the log2
    /// of the widest lane count this size supports.
    split: u32,
    /// `[h + k] = e^{-2πi·k/2h}` for every half-length `h = 1, 2, …
    /// N/2` and `k < h` (the stage with half-length `h` reads `h`
    /// contiguous entries).
    tw_re: Vec<f32>,
    tw_im: Vec<f32>,
    /// The same twiddles in the order the pre-permutation stages meet
    /// them, each `MAX_LANES` times over so that a vector read is its
    /// splat: `[(2^s + b)·MAX_LANES..]` belongs to block `b` of stage `s`.
    pre_re: Vec<f32>,
    pre_im: Vec<f32>,
    /// Bit reversal over `log2n` bits.
    rev: Vec<u32>,
}

/// `v` with its low `bits` bits reversed.
fn reverse(v: u32, bits: u32) -> u32 {
    if bits == 0 {
        0
    } else {
        v.reverse_bits() >> (32 - bits)
    }
}

impl Plan {
    fn new(log2n: u32) -> Self {
        let n = 1usize << log2n;
        let mut tw_re = vec![1.0f32; n];
        let mut tw_im = vec![0.0f32; n];
        let mut h = 1;
        while h < n {
            for k in 0..h {
                let ang = -std::f64::consts::PI * k as f64 / h as f64;
                tw_re[h + k] = ang.cos() as f32;
                tw_im[h + k] = ang.sin() as f32;
            }
            h <<= 1;
        }
        let split = log2n / 2;
        let mut pre_re = vec![1.0f32; MAX_LANES << split];
        let mut pre_im = vec![0.0f32; MAX_LANES << split];
        for s in 0..split {
            for b in 0..1u32 << s {
                let (dst, src) = ((1 << s) + b as usize, (1 << s) + reverse(b, s) as usize);
                pre_re[dst * MAX_LANES..][..MAX_LANES].fill(tw_re[src]);
                pre_im[dst * MAX_LANES..][..MAX_LANES].fill(tw_im[src]);
            }
        }
        Self {
            log2n,
            split,
            tw_re,
            tw_im,
            pre_re,
            pre_im,
            rev: (0..n as u32).map(|j| reverse(j, log2n)).collect(),
        }
    }

    /// The process-wide plan for transforms of `n` points.
    fn get(n: usize) -> &'static Plan {
        static PLANS: [OnceLock<Plan>; 32] = [const { OnceLock::new() }; 32];
        assert!(
            n.is_power_of_two() && (2..=1 << 31).contains(&n),
            "FFT length must be a power of two, got {n}"
        );
        let log2n = n.trailing_zeros();
        PLANS[log2n as usize].get_or_init(|| Plan::new(log2n))
    }

    fn n(&self) -> usize {
        1 << self.log2n
    }
}

/// A complex vector: `LANES` real parts, `LANES` imaginary parts.
type C<L> = (L, L);

/// An `L` at any alignment: its field is read and written as a plain
/// unaligned access.
#[repr(C, packed)]
struct Unaligned<L>(L);

/// The vector `k` f32s past the pointer `p`, as a place. (A macro, not
/// a function: the accesses have to be part of [`pairs`] / [`quads`]
/// *before* those are inlined into their callers, which is when they
/// inherit the no-alias facts of the `&mut` parameters — LLVM's loop
/// vectoriser needs them for the `f32` instantiation and its scheduler
/// uses them at every tier.)
macro_rules! at {
    ($p:expr, $k:expr) => {
        (*$p.add($k).cast::<Unaligned<L>>()).0
    };
}

/// The complex vector at element `k` of two plane slices.
macro_rules! get {
    ($re:expr, $im:expr, $k:expr) => {
        (at!($re.as_ptr(), $k), at!($im.as_ptr(), $k))
    };
}

/// `v` to element `k` of two plane slices.
macro_rules! put {
    ($v:expr, $re:expr, $im:expr, $k:expr) => {
        (at!($re.as_mut_ptr(), $k), at!($im.as_mut_ptr(), $k)) = $v
    };
}

/// One radix-2 butterfly on complex vectors: `t = b·w; (a + t, a − t)`.
///
/// # Safety
/// See [`Lane`].
#[inline(always)]
unsafe fn butterfly<L: Lane>(a: C<L>, b: C<L>, w: C<L>) -> (C<L>, C<L>) {
    // SAFETY: register arithmetic only; the caller vouches for the ISA.
    unsafe {
        let tr = b.0.mul(w.0).sub(b.1.mul(w.1));
        let ti = b.0.mul(w.1).add(b.1.mul(w.0));
        ((a.0.add(tr), a.1.add(ti)), (a.0.sub(tr), a.1.sub(ti)))
    }
}

/// One run of one plane; a `&mut` parameter of its own (see [`get`]).
type Run<'a> = &'a mut [f32];

/// The twiddles of one butterfly along a run, as a plane pair: element
/// `k` reads the vector at `k · step` — `step` 1 for contiguous
/// twiddles, 0 for one splat.
type Twiddles<'a> = (&'a [f32], &'a [f32]);

/// One stage over two runs of complex vectors: `(x0, x1)` with `w`.
///
/// # Safety
/// See [`Lane`]; the runs are equally long, a multiple of `L::LANES`,
/// and `w` has a vector at `k · step` for every `k` below that.
#[inline(always)]
unsafe fn pairs<L: Lane>(r0: Run, i0: Run, r1: Run, i1: Run, w: Twiddles, step: usize) {
    // SAFETY: every access is `L::LANES` f32s at `k`, inside each run,
    // or a twiddle the caller vouches for.
    unsafe {
        for k in (0..r0.len()).step_by(L::LANES) {
            let (x0, x1) = (get!(r0, i0, k), get!(r1, i1, k));
            let (x0, x1) = butterfly(x0, x1, get!(w.0, w.1, k * step));
            put!(x0, r0, i0, k);
            put!(x1, r1, i1, k);
        }
    }
}

/// Two adjacent stages over four runs in one round trip: `(x0, x2)` and
/// `(x1, x3)` with `w[0]`, then `(x0, x1)` with `w[1]` and `(x2, x3)`
/// with `w[2]` — the butterflies two [`pairs`] passes would do, on the
/// same operands.
///
/// # Safety
/// As for [`pairs`].
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn quads<L: Lane>(
    r0: Run,
    i0: Run,
    r1: Run,
    i1: Run,
    r2: Run,
    i2: Run,
    r3: Run,
    i3: Run,
    w: [Twiddles; 3],
    step: usize,
) {
    // SAFETY: as in `pairs`.
    unsafe {
        for k in (0..r0.len()).step_by(L::LANES) {
            let (x0, x1) = (get!(r0, i0, k), get!(r1, i1, k));
            let (x2, x3) = (get!(r2, i2, k), get!(r3, i3, k));
            let wa = get!(w[0].0, w[0].1, k * step);
            let ((x0, x2), (x1, x3)) = (butterfly(x0, x2, wa), butterfly(x1, x3, wa));
            let (x0, x1) = butterfly(x0, x1, get!(w[1].0, w[1].1, k * step));
            let (x2, x3) = butterfly(x2, x3, get!(w[2].0, w[2].1, k * step));
            put!(x0, r0, i0, k);
            put!(x1, r1, i1, k);
            put!(x2, r2, i2, k);
            put!(x3, r3, i3, k);
        }
    }
}

/// [`pairs`] (`order` of two) or [`quads`] (of four) over every block of
/// `len`-long runs of a plane pair, the runs of a block taken in
/// `order`, block `b` with the twiddles `w(b)` (`pairs` reads the first).
///
/// # Safety
/// See [`Lane`]; the planes hold a whole number of blocks, `L::LANES`
/// divides `len`, and `w(b)` is good for a run (see [`pairs`]).
#[inline(always)]
unsafe fn stage<'a, L: Lane, const R: usize>(
    (re, im, n): (*mut f32, *mut f32, usize),
    len: usize,
    order: [usize; R],
    w: impl Fn(usize) -> [Twiddles<'a>; 3],
    step: usize,
) {
    for b in 0..n / (R * len) {
        // SAFETY: the runs of a block are disjoint and inside the
        // planes, which nothing else touches meanwhile.
        let x = |plane: *mut f32, j: usize| unsafe {
            std::slice::from_raw_parts_mut(plane.add((R * b + order[j]) * len), len)
        };
        let w = w(b);
        // SAFETY: the caller's contract is the callee's.
        unsafe {
            if R == 2 {
                pairs::<L>(x(re, 0), x(im, 0), x(re, 1), x(im, 1), w[0], step);
            } else {
                let (x0, x1, x2, x3) = (
                    (x(re, 0), x(im, 0)),
                    (x(re, 1), x(im, 1)),
                    (x(re, 2), x(im, 2)),
                    (x(re, 3), x(im, 3)),
                );
                quads::<L>(x0.0, x0.1, x1.0, x1.1, x2.0, x2.1, x3.0, x3.1, w, step);
            }
        }
    }
}

/// The transform over split planes: `(re, im)` in natural order in,
/// `(re2, im2)` in natural order out; `(re, im)` is clobbered.
///
/// # Safety
/// See [`Lane`]. All four planes hold `plan.n()` elements and
/// `L::LANES <= 1 << plan.split`.
#[inline(always)]
unsafe fn stages<L: Lane>(plan: &Plan, [re, im, re2, im2]: [*mut f32; 4]) {
    let (n, l) = (plan.n(), L::LANES.trailing_zeros());
    // SAFETY: `L` divides every run length (the shortest are
    // `n >> split` and `1 << split`, both `>= L`); a splat is the
    // `MAX_LANES` entries of `pre_*` it starts, and the contiguous
    // twiddles of the widest stage end at `4h <= n`, the length of
    // `tw_*`. A tile row starts at `rev[i] + x` with `rev[i] <= n − n/L`
    // a multiple of `n/L` (`i < L`) and `x <= n/L − L` a multiple of `L`
    // (`m·L` or its reversal; `L·L <= n`), so it ends by `n`.
    unsafe {
        // natural placement: stage s has 2^s blocks of two `span`-long
        // halves, one twiddle per block; an odd count leaves stage 0
        let splat = |i: usize| (&plan.pre_re[i * MAX_LANES..], &plan.pre_im[i * MAX_LANES..]);
        let mut s = plan.split % 2;
        if s == 1 {
            stage::<L, 2>((re, im, n), n / 2, [0, 1], |_| [splat(1); 3], 0);
        }
        while s < plan.split {
            let w = |b| {
                [
                    splat((1 << s) + b),
                    splat((2 << s) + 2 * b),
                    splat((2 << s) + 2 * b + 1),
                ]
            };
            stage::<L, 4>((re, im, n), n >> (s + 2), [0, 1, 2, 3], w, 0);
            s += 2;
        }

        // bit reversal, an L×L tile at a time (module doc); the offsets
        // past row `L` repeat earlier ones and what they load is dead
        let row: [usize; MAX_LANES] = std::array::from_fn(|i| plan.rev[i % L::LANES] as usize);
        for (m, &r) in plan.rev[..n >> l].iter().step_by(L::LANES).enumerate() {
            let (src, dst) = (r as usize, m << l);
            for (from, to) in [(re, re2), (im, im2)] {
                let mut tile: [L; MAX_LANES] = row.map(|o| at!(from, o + src));
                L::transpose(&mut tile);
                for (v, o) in tile.into_iter().zip(row).take(L::LANES) {
                    at!(to, o + dst) = v;
                }
            }
        }

        // bit-reversed placement: the textbook in-place loop, half-length
        // h, twiddles contiguous in k; an odd count leaves the first
        let tw = |h: usize| (&plan.tw_re[h..], &plan.tw_im[h..]);
        let mut s = plan.split;
        if (plan.log2n - s) % 2 == 1 {
            stage::<L, 2>((re2, im2, n), 1 << s, [0, 1], |_| [tw(1 << s); 3], 1);
            s += 1;
        }
        while s < plan.log2n {
            let h = 1 << s;
            stage::<L, 4>(
                (re2, im2, n),
                h,
                [0, 2, 1, 3],
                |_| [tw(h), tw(2 * h), tw(3 * h)],
                1,
            );
            s += 2;
        }
    }
}

/// `src` times `scale` into the front of the `(re, im)` planes.
///
/// # Safety
/// See [`Lane`]; both planes are at least as long as `src`.
#[inline(always)]
unsafe fn split<L: Lane>(src: &[Cplx], scale: f32, re: &mut [f32], im: &mut [f32]) {
    let (from, whole) = (src.as_ptr().cast::<f32>(), src.len() - src.len() % L::LANES);
    // SAFETY: `Cplx` is `repr(C)` `(re, im)`, so sample `k` is the f32s
    // `2k` and `2k + 1` of `from`; every access is below `src.len()`.
    unsafe {
        let s: L = at!([scale; MAX_LANES].as_ptr(), 0);
        for k in (0..whole).step_by(L::LANES) {
            let (x, y) = L::deinterleave(at!(from, 2 * k), at!(from, 2 * k + L::LANES));
            put!((x.mul(s), y.mul(s)), re, im, k);
        }
    }
    for k in whole..src.len() {
        (re[k], im[k]) = (src[k].re * scale, src[k].im * scale);
    }
}

/// The front of the `(re, im)` planes times `scale` into all of `dst`.
///
/// # Safety
/// See [`Lane`]; both planes are at least as long as `dst`.
#[inline(always)]
unsafe fn join<L: Lane>(re: &[f32], im: &[f32], scale: f32, dst: &mut [MaybeUninit<Cplx>]) {
    let (to, whole) = (
        dst.as_mut_ptr().cast::<f32>(),
        dst.len() - dst.len() % L::LANES,
    );
    // SAFETY: as in `split`, with `dst` the interleaved side.
    unsafe {
        let s: L = at!([scale; MAX_LANES].as_ptr(), 0);
        for k in (0..whole).step_by(L::LANES) {
            let (x, y) = get!(re, im, k);
            (at!(to, 2 * k), at!(to, 2 * k + L::LANES)) = L::interleave(x.mul(s), y.mul(s));
        }
    }
    for k in whole..dst.len() {
        dst[k].write(Cplx::new(re[k] * scale, im[k] * scale));
    }
}

/// Working planes of one transform, each `plan.n()` long.
struct Planes<'a> {
    re: &'a mut [f32],
    im: &'a mut [f32],
    re2: &'a mut [f32],
    im2: &'a mut [f32],
}

/// One pass of the engine over the working planes.
enum Pass<'a> {
    /// `src · scale` into the input planes from element `at` on:
    /// `(src, scale, at)`.
    Split(&'a [Cplx], f32, usize),
    /// The unscaled transform (`inverse`?), input planes (clobbered) to
    /// output planes.
    Stages(bool),
    /// The output planes from element `at` on, times `scale`, into every
    /// element of `dst`: `(at, scale, dst)`.
    Join(usize, f32, &'a mut [MaybeUninit<Cplx>]),
}

/// `pass` over `p` with `L`-lane vectors.
///
/// # Safety
/// See [`Lane`]. The planes hold `plan.n()` elements, a `Split` / `Join`
/// segment ends inside them, and `L::LANES <= 1 << plan.split`.
#[inline(always)]
unsafe fn run<L: Lane>(plan: &Plan, p: &mut Planes<'_>, pass: Pass<'_>) {
    let [re, im, re2, im2] = [&mut *p.re, &mut *p.im, &mut *p.re2, &mut *p.im2];
    // SAFETY: the caller's contract is each callee's.
    unsafe {
        match pass {
            Pass::Split(src, scale, at) => split::<L>(src, scale, &mut re[at..], &mut im[at..]),
            // the inverse is the forward transform of the exchanged planes
            Pass::Stages(inverse) => {
                let planes = if inverse {
                    [im, re, im2, re2]
                } else {
                    [re, im, re2, im2]
                };
                stages::<L>(plan, planes.map(<[f32]>::as_mut_ptr));
            }
            Pass::Join(at, scale, dst) => join::<L>(&re2[at..], &im2[at..], scale, dst),
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{run, Lane, Pass, Plan, Planes, MAX_LANES};
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// The 4×4 transposes inside every 128-bit lane of each four
    /// consecutive rows of `r[..n]`: afterwards lane `q` of `r[4g + j]`
    /// is column `4q + j` of the old rows `4g..4g + 4`.
    macro_rules! transpose4 {
        ($r:ident, $n:literal, $lo:ident, $hi:ident, $shuffle:ident) => {
            for g in (0..$n).step_by(4) {
                let (a, b) = ($lo($r[g], $r[g + 1]), $hi($r[g], $r[g + 1]));
                let (c, d) = ($lo($r[g + 2], $r[g + 3]), $hi($r[g + 2], $r[g + 3]));
                $r[g] = $shuffle::<0x44>(a, c);
                $r[g + 1] = $shuffle::<0xEE>(a, c);
                $r[g + 2] = $shuffle::<0x44>(b, d);
                $r[g + 3] = $shuffle::<0xEE>(b, d);
            }
        };
    }

    /// `Lane` for one vector type — three intrinsics and the bodies of
    /// the three permutations — and the `#[target_feature]`
    /// instantiation of [`run`] over it.
    macro_rules! tier {
        ($ty:ty, $lanes:expr, $feature:literal, $run:ident,
         $add:ident, $sub:ident, $mul:ident,
         |$r:ident| $transpose:block,
         |$a:ident, $b:ident| $deinterleave:block, $interleave:block) => {
            impl Lane for $ty {
                const LANES: usize = $lanes;
                #[inline(always)]
                unsafe fn add(self, o: Self) -> Self {
                    // SAFETY: the caller vouches for the ISA.
                    unsafe { $add(self, o) }
                }
                #[inline(always)]
                unsafe fn sub(self, o: Self) -> Self {
                    // SAFETY: the caller vouches for the ISA.
                    unsafe { $sub(self, o) }
                }
                #[inline(always)]
                unsafe fn mul(self, o: Self) -> Self {
                    // SAFETY: the caller vouches for the ISA.
                    unsafe { $mul(self, o) }
                }
                #[inline(always)]
                unsafe fn transpose($r: &mut [Self; MAX_LANES]) {
                    // SAFETY: the caller vouches for the ISA.
                    unsafe { $transpose }
                }
                #[inline(always)]
                unsafe fn deinterleave($a: Self, $b: Self) -> (Self, Self) {
                    // SAFETY: the caller vouches for the ISA.
                    unsafe { $deinterleave }
                }
                #[inline(always)]
                unsafe fn interleave($a: Self, $b: Self) -> (Self, Self) {
                    // SAFETY: the caller vouches for the ISA.
                    unsafe { $interleave }
                }
            }

            /// # Safety
            /// The host has this feature; the contract of [`run`].
            #[target_feature(enable = $feature)]
            pub unsafe fn $run(plan: &Plan, p: &mut Planes<'_>, pass: Pass<'_>) {
                // SAFETY: the caller's contract is `run`'s.
                unsafe { run::<$ty>(plan, p, pass) }
            }
        };
    }

    #[rustfmt::skip]
    tier!(__m128, 4, "sse2", run_sse2,
          _mm_add_ps, _mm_sub_ps, _mm_mul_ps,
          |r| { transpose4!(r, 4, _mm_unpacklo_ps, _mm_unpackhi_ps, _mm_shuffle_ps); },
          |a, b| { (_mm_shuffle_ps::<0x88>(a, b), _mm_shuffle_ps::<0xDD>(a, b)) },
          { (_mm_unpacklo_ps(a, b), _mm_unpackhi_ps(a, b)) });

    #[rustfmt::skip]
    tier!(__m256, 8, "avx2", run_avx2,
          _mm256_add_ps, _mm256_sub_ps, _mm256_mul_ps,
          |r| {
              transpose4!(r, 8, _mm256_unpacklo_ps, _mm256_unpackhi_ps, _mm256_shuffle_ps);
              // row 4q + j is lane q of the old rows j and 4 + j
              for j in 0..4 {
                  let (a, b) = (r[j], r[4 + j]);
                  r[j] = _mm256_permute2f128_ps::<0x20>(a, b);
                  r[4 + j] = _mm256_permute2f128_ps::<0x31>(a, b);
              }
          },
          |a, b| {
              let (lo, hi) = (_mm256_permute2f128_ps::<0x20>(a, b), _mm256_permute2f128_ps::<0x31>(a, b));
              (_mm256_shuffle_ps::<0x88>(lo, hi), _mm256_shuffle_ps::<0xDD>(lo, hi))
          },
          {
              let (lo, hi) = (_mm256_unpacklo_ps(a, b), _mm256_unpackhi_ps(a, b));
              (_mm256_permute2f128_ps::<0x20>(lo, hi), _mm256_permute2f128_ps::<0x31>(lo, hi))
          });

    #[rustfmt::skip]
    tier!(__m512, 16, "avx512f", run_avx512,
          _mm512_add_ps, _mm512_sub_ps, _mm512_mul_ps,
          |r| {
              transpose4!(r, 16, _mm512_unpacklo_ps, _mm512_unpackhi_ps, _mm512_shuffle_ps);
              // row 4q + j is lane q of the old rows j, 4 + j, 8 + j, 12 + j
              for j in 0..4 {
                  let (a, b) = (_mm512_shuffle_f32x4::<0x88>(r[j], r[4 + j]), _mm512_shuffle_f32x4::<0xDD>(r[j], r[4 + j]));
                  let (c, d) = (_mm512_shuffle_f32x4::<0x88>(r[8 + j], r[12 + j]), _mm512_shuffle_f32x4::<0xDD>(r[8 + j], r[12 + j]));
                  r[j] = _mm512_shuffle_f32x4::<0x88>(a, c);
                  r[4 + j] = _mm512_shuffle_f32x4::<0x88>(b, d);
                  r[8 + j] = _mm512_shuffle_f32x4::<0xDD>(a, c);
                  r[12 + j] = _mm512_shuffle_f32x4::<0xDD>(b, d);
              }
          },
          |a, b| {
              let even = _mm512_setr_epi32(0, 2, 4, 6, 8, 10, 12, 14, 16, 18, 20, 22, 24, 26, 28, 30);
              let odd = _mm512_setr_epi32(1, 3, 5, 7, 9, 11, 13, 15, 17, 19, 21, 23, 25, 27, 29, 31);
              (_mm512_permutex2var_ps(a, even, b), _mm512_permutex2var_ps(a, odd, b))
          },
          {
              let lo = _mm512_setr_epi32(0, 16, 1, 17, 2, 18, 3, 19, 4, 20, 5, 21, 6, 22, 7, 23);
              let hi = _mm512_setr_epi32(8, 24, 9, 25, 10, 26, 11, 27, 12, 28, 13, 29, 14, 30, 15, 31);
              (_mm512_permutex2var_ps(a, lo, b), _mm512_permutex2var_ps(a, hi, b))
          });
}

/// f32 lanes per vector at `tier`.
fn lanes_of(tier: HostIsa) -> usize {
    match tier {
        HostIsa::Scalar => 1,
        HostIsa::Sse2 | HostIsa::Ssse3 => 4,
        HostIsa::Avx2 => 8,
        HostIsa::Avx512bw => 16,
    }
}

/// One 64-byte line of scratch, so the planes start cache-aligned.
#[derive(Clone, Copy)]
#[repr(C, align(64))]
struct Line([f32; 16]);

/// Run `f` on this thread's scratch planes, sized for `n` points.
fn with_planes<R>(n: usize, f: impl FnOnce(Planes<'_>) -> R) -> R {
    thread_local! {
        static SCRATCH: RefCell<Vec<Line>> = const { RefCell::new(Vec::new()) };
    }
    SCRATCH.with_borrow_mut(|lines| {
        let stride = n.next_multiple_of(16);
        if lines.len() < stride / 4 {
            lines.resize(stride / 4, Line([0.0; 16]));
        }
        // SAFETY: `Line` is `repr(C)` over `[f32; 16]` with no padding,
        // so `stride / 4` lines are exactly `4 * stride` initialised
        // f32s, exclusively borrowed through `lines`.
        let all: &mut [f32] =
            unsafe { std::slice::from_raw_parts_mut(lines.as_mut_ptr().cast(), 4 * stride) };
        let (a, rest) = all.split_at_mut(stride);
        let (b, rest) = rest.split_at_mut(stride);
        let (c, d) = rest.split_at_mut(stride);
        f(Planes {
            re: &mut a[..n],
            im: &mut b[..n],
            re2: &mut c[..n],
            im2: &mut d[..n],
        })
    })
}

/// Run `pass` over `p` with the widest kernel `tier` allows for the
/// plan's size.
fn transform((tier, plan): (HostIsa, &Plan), p: &mut Planes<'_>, pass: Pass<'_>) {
    assert!(host::has(tier), "host lacks the {} tier", tier.name());
    // a size too short for the tier's vectors runs the widest that fit
    let lanes = match lanes_of(tier).min(1 << plan.split) {
        fit @ (4 | 8 | 16) => fit,
        _ => 1,
    };
    let n = plan.n();
    assert!([p.re.len(), p.im.len(), p.re2.len(), p.im2.len()] == [n; 4] && plan.rev.len() == n);
    // the last row of the last tile ends where the planes do
    assert!(lanes * lanes <= n && plan.rev[lanes - 1] as usize + n / lanes == n);
    match &pass {
        Pass::Split(src, _, at) => assert!(at + src.len() <= n),
        Pass::Join(at, _, dst) => assert!(at + dst.len() <= n),
        Pass::Stages(_) => {}
    }
    // The planes are `n` long, a segment ends inside them and
    // `lanes * lanes <= n` (all just checked); `host::has(tier)` vouches
    // for the instructions of `tier` and of every narrower one.
    match lanes {
        // SAFETY: `run`'s contract, checked above; AVX-512F by `tier`.
        #[cfg(target_arch = "x86_64")]
        16 => unsafe { x86::run_avx512(plan, p, pass) },
        // SAFETY: `run`'s contract, checked above; AVX2 by `tier`.
        #[cfg(target_arch = "x86_64")]
        8 => unsafe { x86::run_avx2(plan, p, pass) },
        // SAFETY: `run`'s contract, checked above; SSE2 is baseline.
        #[cfg(target_arch = "x86_64")]
        4 => unsafe { x86::run_sse2(plan, p, pass) },
        // SAFETY: `run`'s contract, checked above; `f32` needs no ISA.
        _ => unsafe { run::<f32>(plan, p, pass) },
    }
}

/// Ask for the cache lines of `part`.
fn prefetch(part: &[Cplx]) {
    #[cfg(target_arch = "x86_64")]
    for line in part.chunks(8) {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        // SAFETY: SSE is baseline on x86-64 and a prefetch has no
        // architectural effect whatever the address.
        unsafe { _mm_prefetch::<_MM_HINT_T0>(line.as_ptr().cast()) };
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = part;
}

/// In-place FFT of a power-of-two-length buffer on the best tier the
/// host has. `inverse` selects the IFFT (includes the 1/N scale).
pub fn fft(buf: &mut [Cplx], inverse: bool) {
    fft_with(host::best(), buf, inverse);
}

/// [`fft`] on an explicit tier (`Ssse3` runs the SSE2 kernel; sizes
/// too short for a tier's vectors run the widest narrower kernel).
/// The result is bit-identical at every tier.
///
/// # Panics
/// When the host (or the ISA ceiling) lacks `tier`, or the length is
/// not a power of two ≥ 2.
pub fn fft_with(tier: HostIsa, buf: &mut [Cplx], inverse: bool) {
    let engine = (tier, Plan::get(buf.len()));
    let scale = if inverse { 1.0 / buf.len() as f32 } else { 1.0 };
    with_planes(buf.len(), |mut p| {
        transform(engine, &mut p, Pass::Split(buf, 1.0, 0));
        transform(engine, &mut p, Pass::Stages(inverse));
        // SAFETY: `MaybeUninit<Cplx>` has `Cplx`'s layout, and `Join`
        // only ever writes initialised samples through it.
        let dst = unsafe { &mut *(buf as *mut [Cplx] as *mut [MaybeUninit<Cplx>]) };
        transform(engine, &mut p, Pass::Join(0, scale, dst));
    });
}

/// Why a received sample stream cannot be demodulated.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OfdmError {
    /// The capture ends before the last OFDM symbol the requested
    /// subcarrier symbols need.
    ShortCapture {
        /// Samples needed.
        need: usize,
        /// Samples provided.
        got: usize,
    },
}

impl std::fmt::Display for OfdmError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            OfdmError::ShortCapture { need, got } => {
                write!(
                    f,
                    "capture of {got} samples is shorter than the {need} needed"
                )
            }
        }
    }
}

impl std::error::Error for OfdmError {}

/// OFDM modulator/demodulator configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OfdmConfig {
    /// FFT size (512 for 5 MHz LTE).
    pub fft_size: usize,
    /// Used (data) subcarriers, mapped symmetrically around DC.
    pub used_subcarriers: usize,
    /// Cyclic-prefix length in samples.
    pub cp_len: usize,
}

impl OfdmConfig {
    /// The paper's testbed configuration: FDD, 5 MHz (25 RB).
    pub const fn lte5mhz() -> Self {
        Self {
            fft_size: 512,
            used_subcarriers: 300,
            cp_len: 36,
        }
    }

    /// Samples per OFDM symbol including CP.
    pub const fn symbol_len(&self) -> usize {
        self.fft_size + self.cp_len
    }

    /// The plan for this configuration, after checking that there are
    /// subcarriers to carry, that they fit beside DC and that the CP
    /// fits inside one symbol.
    fn plan(&self) -> &'static Plan {
        assert!(
            (1..self.fft_size).contains(&self.used_subcarriers) && self.cp_len <= self.fft_size,
            "inconsistent OFDM configuration {self:?}"
        );
        Plan::get(self.fft_size)
    }

    /// Data subcarriers `..half` are the negative frequencies, which
    /// wrap to the top of the FFT (bins `fft_size − half..`); the rest
    /// follow DC (bins `1..`).
    fn half(&self) -> usize {
        self.used_subcarriers / 2
    }

    /// One OFDM symbol: up to `used_subcarriers` frequency-domain
    /// symbols (the rest of the grid is zero) into all `symbol_len()`
    /// time-domain samples of `out`, CP first.
    fn modulate_symbol(
        &self,
        engine: (HostIsa, &Plan),
        p: &mut Planes<'_>,
        grid: &[Cplx],
        out: &mut [MaybeUninit<Cplx>],
    ) {
        let scale = 1.0 / (self.fft_size as f32).sqrt();
        let (neg, pos) = grid.split_at(self.half().min(grid.len()));
        let top = self.fft_size - self.half();
        // the last transform clobbered the planes: zero what no bin fills
        for plane in [&mut *p.re, &mut *p.im] {
            plane[0] = 0.0;
            plane[1 + pos.len()..top].fill(0.0);
            plane[top + neg.len()..].fill(0.0);
        }
        transform(engine, p, Pass::Split(neg, scale, top));
        transform(engine, p, Pass::Split(pos, scale, 1));
        transform(engine, p, Pass::Stages(true));
        let (cp, body) = out.split_at_mut(self.cp_len);
        transform(engine, p, Pass::Join(0, 1.0, body));
        cp.copy_from_slice(&body[self.fft_size - self.cp_len..]);
    }

    /// One received OFDM symbol (with CP) back to the first
    /// `out.len()` subcarrier symbols, every one written. `next`, the
    /// symbol after it (or nothing), is asked for on the way: a capture
    /// is read once, from wherever the radio — or a benchmark's pool —
    /// left it, and a quarter of a symbol before each pass is few enough
    /// lines to be in flight during the pass instead of stalling it.
    fn demodulate_symbol(
        &self,
        engine: (HostIsa, &Plan),
        p: &mut Planes<'_>,
        samples: &[Cplx],
        out: &mut [MaybeUninit<Cplx>],
        next: &[Cplx],
    ) {
        let mut ahead = next.chunks(next.len().div_ceil(4).max(1));
        let mut pass = |pass| {
            prefetch(ahead.next().unwrap_or_default());
            transform(engine, p, pass);
        };
        let scale = 1.0 / (self.fft_size as f32).sqrt();
        pass(Pass::Split(&samples[self.cp_len..], 1.0, 0));
        pass(Pass::Stages(false));
        let (neg, pos) = out.split_at_mut(self.half().min(out.len()));
        pass(Pass::Join(self.fft_size - self.half(), scale, neg));
        pass(Pass::Join(1, scale, pos));
    }

    /// Modulate `used_subcarriers` frequency-domain symbols into one
    /// time-domain OFDM symbol with CP.
    ///
    /// The transform pair is **unitary** (1/√N each direction): white
    /// channel noise of per-axis variance σ² in the time domain stays
    /// σ² per subcarrier, so the AWGN channel's configured SNR is the
    /// SNR the demapper sees.
    pub fn modulate(&self, symbols: &[Cplx]) -> Vec<Cplx> {
        assert_eq!(symbols.len(), self.used_subcarriers);
        let mut out = Vec::new();
        self.modulate_stream_into(symbols, &mut out);
        out
    }

    /// Demodulate one received OFDM symbol (with CP) back to
    /// frequency-domain subcarrier symbols.
    pub fn demodulate(&self, samples: &[Cplx]) -> Vec<Cplx> {
        assert_eq!(samples.len(), self.symbol_len());
        self.demodulate_stream(samples, self.used_subcarriers)
    }

    /// Modulate a stream of symbols into consecutive OFDM symbols,
    /// zero-padding the final one.
    pub fn modulate_stream(&self, symbols: &[Cplx]) -> Vec<Cplx> {
        let mut out = Vec::new();
        self.modulate_stream_into(symbols, &mut out);
        out
    }

    /// [`Self::modulate_stream`] into a caller-owned buffer (cleared
    /// first) so hot paths can reuse the allocation.
    pub fn modulate_stream_into(&self, symbols: &[Cplx], out: &mut Vec<Cplx>) {
        let engine = (host::best(), self.plan());
        let len = symbols.len().div_ceil(self.used_subcarriers) * self.symbol_len();
        out.clear();
        out.reserve(len);
        let air = &mut out.spare_capacity_mut()[..len];
        with_planes(self.fft_size, |mut p| {
            for (grid, sym) in symbols
                .chunks(self.used_subcarriers)
                .zip(air.chunks_exact_mut(self.symbol_len()))
            {
                self.modulate_symbol(engine, &mut p, grid, sym);
            }
        });
        // SAFETY: `air` is one `symbol_len()` chunk per chunk of
        // `symbols`, and `modulate_symbol` writes all of its chunk.
        unsafe { out.set_len(len) };
    }

    /// Demodulate a stream produced by [`OfdmConfig::modulate_stream`],
    /// returning `n_symbols` subcarrier symbols.
    ///
    /// # Panics
    /// With the [`OfdmError`] message when the capture is too short
    /// for `n_symbols`; [`Self::try_demodulate_stream_into`] returns
    /// it instead.
    pub fn demodulate_stream(&self, samples: &[Cplx], n_symbols: usize) -> Vec<Cplx> {
        let mut out = Vec::new();
        self.demodulate_stream_into(samples, n_symbols, &mut out);
        out
    }

    /// [`Self::demodulate_stream`] into a caller-owned buffer (cleared
    /// first); panics like it on a short capture.
    pub fn demodulate_stream_into(&self, samples: &[Cplx], n_symbols: usize, out: &mut Vec<Cplx>) {
        if let Err(e) = self.try_demodulate_stream_into(samples, n_symbols, out) {
            panic!("{e}");
        }
    }

    /// Demodulate the first `n_symbols` subcarrier symbols of a capture
    /// into `out` (cleared first). Samples past the last OFDM symbol
    /// needed are ignored; a capture that ends before it — a whole
    /// symbol missing or a trailing partial one — is an error and
    /// leaves `out` empty.
    pub fn try_demodulate_stream_into(
        &self,
        samples: &[Cplx],
        n_symbols: usize,
        out: &mut Vec<Cplx>,
    ) -> Result<(), OfdmError> {
        let engine = (host::best(), self.plan());
        out.clear();
        let need = n_symbols.div_ceil(self.used_subcarriers) * self.symbol_len();
        if samples.len() < need {
            return Err(OfdmError::ShortCapture {
                need,
                got: samples.len(),
            });
        }
        out.reserve(n_symbols);
        let grids = &mut out.spare_capacity_mut()[..n_symbols];
        with_planes(self.fft_size, |mut p| {
            let len = self.symbol_len();
            for (i, grid) in grids.chunks_mut(self.used_subcarriers).enumerate() {
                let (sym, rest) = samples[i * len..].split_at(len);
                let next = &rest[..len.min(rest.len())];
                self.demodulate_symbol(engine, &mut p, sym, grid, next);
            }
        });
        // SAFETY: `samples` holds a symbol for every chunk of `grids`
        // (`need`, just checked), and `demodulate_symbol` writes all of
        // its chunk.
        unsafe { out.set_len(n_symbols) };
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::random_bits;
    use crate::modulation::Modulation;

    fn close(a: Cplx, b: Cplx, eps: f32) -> bool {
        (a.re - b.re).abs() < eps && (a.im - b.im).abs() < eps
    }

    #[test]
    fn fft_of_impulse_is_flat() {
        let mut buf = vec![Cplx::default(); 64];
        buf[0] = Cplx::new(1.0, 0.0);
        fft(&mut buf, false);
        assert!(buf.iter().all(|&v| close(v, Cplx::new(1.0, 0.0), 1e-4)));
    }

    #[test]
    fn fft_of_single_tone_is_a_bin() {
        let n = 128;
        let k = 5;
        let mut buf: Vec<Cplx> = (0..n)
            .map(|i| {
                let ph = 2.0 * std::f32::consts::PI * (k * i) as f32 / n as f32;
                Cplx::new(ph.cos(), ph.sin())
            })
            .collect();
        fft(&mut buf, false);
        for (i, v) in buf.iter().enumerate() {
            if i == k {
                assert!(close(*v, Cplx::new(n as f32, 0.0), 1e-2), "bin {i}: {v:?}");
            } else {
                assert!(v.norm_sq() < 1e-4, "leakage at bin {i}: {v:?}");
            }
        }
    }

    #[test]
    fn ifft_inverts_fft() {
        let mut buf: Vec<Cplx> = (0..256)
            .map(|i| Cplx::new((i as f32 * 0.37).sin(), (i as f32 * 0.11).cos()))
            .collect();
        let orig = buf.clone();
        fft(&mut buf, false);
        fft(&mut buf, true);
        for (a, b) in buf.iter().zip(&orig) {
            assert!(close(*a, *b, 1e-4));
        }
    }

    #[test]
    fn parseval_energy_is_preserved() {
        let mut buf: Vec<Cplx> = (0..512)
            .map(|i| Cplx::new((i as f32 * 0.7).sin(), (i as f32 * 1.3).sin()))
            .collect();
        let t_energy: f32 = buf.iter().map(|v| v.norm_sq()).sum();
        fft(&mut buf, false);
        let f_energy: f32 = buf.iter().map(|v| v.norm_sq()).sum::<f32>() / 512.0;
        assert!((t_energy - f_energy).abs() / t_energy < 1e-3);
    }

    #[test]
    fn ofdm_round_trip_is_transparent() {
        let cfg = OfdmConfig::lte5mhz();
        let bits = random_bits(cfg.used_subcarriers * 2, 7);
        let syms = Modulation::Qpsk.modulate(&bits);
        let tx = cfg.modulate(&syms);
        assert_eq!(tx.len(), 548);
        let rx = cfg.demodulate(&tx);
        for (a, b) in rx.iter().zip(&syms) {
            assert!(close(*a, *b, 1e-3), "{a:?} vs {b:?}");
        }
    }

    #[test]
    #[should_panic(expected = "inconsistent OFDM configuration")]
    fn a_configuration_with_no_subcarriers_is_rejected_as_such() {
        let cfg = OfdmConfig {
            used_subcarriers: 0,
            ..OfdmConfig::lte5mhz()
        };
        cfg.modulate_stream(&[Cplx::default()]);
    }

    #[test]
    fn cp_really_is_a_prefix_copy() {
        let cfg = OfdmConfig::lte5mhz();
        let syms = Modulation::Qpsk.modulate(&random_bits(600, 8));
        let tx = cfg.modulate(&syms[..300]);
        assert_eq!(&tx[..cfg.cp_len], &tx[cfg.fft_size..]);
    }

    #[test]
    fn stream_round_trip_with_padding() {
        let cfg = OfdmConfig::lte5mhz();
        let bits = random_bits(1450 * 2, 3);
        let syms = Modulation::Qpsk.modulate(&bits);
        let tx = cfg.modulate_stream(&syms);
        assert_eq!(tx.len(), 5 * cfg.symbol_len()); // ceil(1450/300) = 5
        let rx = cfg.demodulate_stream(&tx, syms.len());
        assert_eq!(rx.len(), syms.len());
        for (a, b) in rx.iter().zip(&syms) {
            assert!(close(*a, *b, 1e-3));
        }
    }

    #[test]
    fn truncated_captures_are_a_typed_error_not_a_panic_or_a_short_read() {
        let cfg = OfdmConfig::lte5mhz();
        let syms = Modulation::Qpsk.modulate(&random_bits(1450 * 2, 4));
        let tx = cfg.modulate_stream(&syms);
        let need = 5 * cfg.symbol_len();
        let mut out = vec![Cplx::default(); 3];

        // a trailing partial symbol used to hit demodulate's assert_eq!
        let got = need - 100;
        assert_eq!(
            cfg.try_demodulate_stream_into(&tx[..got], syms.len(), &mut out),
            Err(OfdmError::ShortCapture { need, got })
        );
        assert!(out.is_empty());

        // a whole symbol missing used to return fewer than n_symbols
        let got = need - cfg.symbol_len();
        assert_eq!(
            cfg.try_demodulate_stream_into(&tx[..got], syms.len(), &mut out),
            Err(OfdmError::ShortCapture { need, got })
        );
        let short = std::panic::catch_unwind(|| cfg.demodulate_stream(&tx[..got], syms.len()));
        let msg = *short.unwrap_err().downcast::<String>().unwrap();
        assert_eq!(msg, OfdmError::ShortCapture { need, got }.to_string());

        // samples past the last symbol needed are ignored, partial or not
        let mut long = tx.clone();
        long.extend_from_slice(&tx[..cfg.symbol_len() + 7]);
        assert_eq!(
            cfg.demodulate_stream(&long, syms.len()),
            cfg.demodulate_stream(&tx, syms.len())
        );
    }
}
