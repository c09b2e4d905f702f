//! OFDM modulation: planned radix-2 FFT, subcarrier mapping, cyclic
//! prefix.
//!
//! Parameters mirror the paper's 5 MHz FDD configuration: 512-point
//! FFT, 300 used subcarriers (25 RB × 12), normal CP.
//!
//! The transform is one engine. A per-size `Plan` (twiddles and the
//! bit-reversal table, built once per process) drives a butterfly
//! kernel written once over the `Lane` trait and instantiated for
//! scalar, SSE2, AVX2 and AVX-512 lanes. Every tier does the same IEEE
//! multiplies, adds and subtracts on every element in the same order
//! (no FMA anywhere), so all tiers are `to_bits`-identical and the
//! scalar tier is the exactness oracle. OAI's DFTs are SIMD too, which
//! is why the paper's module-share figures show OFDM small; the
//! *scalar* `do_OFDM` workload of Figure 7 is
//! `apcm::workloads::ofdm_scalar_kernel`, a trace instrument separate
//! from this code.
//!
//! Layout: samples are split into `re` / `im` planes. A radix-2
//! decimation-in-time graph has `log2 N` stages; in natural placement
//! their butterfly spans run `N/2, N/4, … 1`, in bit-reversed placement
//! `1, 2, … N/2`. The first `log2 N / 2` stages run in natural
//! placement (one twiddle per contiguous block), the planes are
//! permuted once, and the remaining stages run in bit-reversed
//! placement (contiguous twiddle vectors) — so every butterfly in every
//! stage is a vertical vector operation over contiguous lanes and the
//! kernel needs no shuffles. The inverse transform is the forward one
//! with the two planes exchanged.

use crate::modulation::Cplx;
use std::cell::RefCell;
use std::sync::OnceLock;
use vran_simd::host::{self, HostIsa};

/// One vector of f32 lanes: the only operations the butterfly uses.
///
/// # Safety
/// The methods of a SIMD implementation execute that ISA's
/// instructions: call them only inside a function compiled with the
/// matching `#[target_feature]` on a host that has it. `load` / `store`
/// need `LANES` readable / writable f32s at `p` (any alignment).
trait Lane: Copy {
    const LANES: usize;
    unsafe fn load(p: *const f32) -> Self;
    unsafe fn store(self, p: *mut f32);
    unsafe fn splat(v: f32) -> Self;
    unsafe fn add(self, o: Self) -> Self;
    unsafe fn sub(self, o: Self) -> Self;
    unsafe fn mul(self, o: Self) -> Self;
}

impl Lane for f32 {
    const LANES: usize = 1;
    #[inline(always)]
    unsafe fn load(p: *const f32) -> Self {
        *p
    }
    #[inline(always)]
    unsafe fn store(self, p: *mut f32) {
        *p = self;
    }
    #[inline(always)]
    unsafe fn splat(v: f32) -> Self {
        v
    }
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
}

/// Per-size tables, shared by every tier and both directions.
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
    /// them: `[2^s + b]` belongs to block `b` of stage `s`.
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
        let mut pre_re = vec![1.0f32; 1 << split];
        let mut pre_im = vec![0.0f32; 1 << split];
        for s in 0..split {
            for b in 0..1u32 << s {
                let (dst, src) = ((1 << s) + b as usize, (1 << s) + reverse(b, s) as usize);
                pre_re[dst] = tw_re[src];
                pre_im[dst] = tw_im[src];
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

/// One radix-2 butterfly on `L::LANES` adjacent elements:
/// `t = b·w; (a, b) = (a + t, a − t)`.
///
/// # Safety
/// See [`Lane`]; the four pointers must be valid for `L::LANES` f32s.
#[inline(always)]
unsafe fn butterfly<L: Lane>(ar: *mut f32, ai: *mut f32, br: *mut f32, bi: *mut f32, wr: L, wi: L) {
    let (xr, xi) = (L::load(br), L::load(bi));
    let tr = xr.mul(wr).sub(xi.mul(wi));
    let ti = xr.mul(wi).add(xi.mul(wr));
    let (yr, yi) = (L::load(ar), L::load(ai));
    yr.add(tr).store(ar);
    yi.add(ti).store(ai);
    yr.sub(tr).store(br);
    yi.sub(ti).store(bi);
}

/// Working planes of one transform, each `plan.n()` long.
struct Planes<'a> {
    re: &'a mut [f32],
    im: &'a mut [f32],
    re2: &'a mut [f32],
    im2: &'a mut [f32],
}

/// The whole transform over split planes: `(re, im)` in natural order
/// in, `(re2, im2)` in natural order out; `(re, im)` is clobbered.
///
/// # Safety
/// See [`Lane`]. All four planes hold `plan.n()` elements and
/// `L::LANES <= 1 << plan.split`.
#[inline(always)]
unsafe fn stages<L: Lane>(plan: &Plan, p: &mut Planes<'_>) {
    let n = plan.n();
    debug_assert!([p.re.len(), p.im.len(), p.re2.len(), p.im2.len()] == [n; 4]);
    debug_assert!(L::LANES <= 1 << plan.split);

    // natural placement: stage s has 2^s blocks of two `span`-long
    // halves, one twiddle per block
    let (pr, pi) = (p.re.as_mut_ptr(), p.im.as_mut_ptr());
    for s in 0..plan.split {
        let span = n >> (s + 1);
        for b in 0..1usize << s {
            let wr = L::splat(plan.pre_re[(1 << s) + b]);
            let wi = L::splat(plan.pre_im[(1 << s) + b]);
            let lo = 2 * b * span;
            for r in (lo..lo + span).step_by(L::LANES) {
                butterfly(
                    pr.add(r),
                    pi.add(r),
                    pr.add(r + span),
                    pi.add(r + span),
                    wr,
                    wi,
                );
            }
        }
    }

    for ((&r, x), y) in plan.rev.iter().zip(p.re2.iter_mut()).zip(p.im2.iter_mut()) {
        *x = p.re[r as usize];
        *y = p.im[r as usize];
    }

    // bit-reversed placement: the textbook in-place loop, half-length
    // h, twiddles contiguous in k
    let (pr, pi) = (p.re2.as_mut_ptr(), p.im2.as_mut_ptr());
    let (tr, ti) = (plan.tw_re.as_ptr(), plan.tw_im.as_ptr());
    for s in plan.split..plan.log2n {
        let h = 1usize << s;
        for start in (0..n).step_by(2 * h) {
            for k in (0..h).step_by(L::LANES) {
                let (wr, wi) = (L::load(tr.add(h + k)), L::load(ti.add(h + k)));
                let a = start + k;
                butterfly(pr.add(a), pi.add(a), pr.add(a + h), pi.add(a + h), wr, wi);
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::{stages, Lane, Plan, Planes};
    #[allow(clippy::wildcard_imports)]
    use std::arch::x86_64::*;

    /// `Lane` for one vector type from its six intrinsics, and the
    /// `#[target_feature]` instantiation of [`stages`] over it.
    macro_rules! tier {
        ($ty:ty, $lanes:expr, $feature:literal, $stages:ident,
         $load:ident, $store:ident, $splat:ident, $add:ident, $sub:ident, $mul:ident) => {
            impl Lane for $ty {
                const LANES: usize = $lanes;
                #[inline(always)]
                unsafe fn load(p: *const f32) -> Self {
                    $load(p)
                }
                #[inline(always)]
                unsafe fn store(self, p: *mut f32) {
                    $store(p, self)
                }
                #[inline(always)]
                unsafe fn splat(v: f32) -> Self {
                    $splat(v)
                }
                #[inline(always)]
                unsafe fn add(self, o: Self) -> Self {
                    $add(self, o)
                }
                #[inline(always)]
                unsafe fn sub(self, o: Self) -> Self {
                    $sub(self, o)
                }
                #[inline(always)]
                unsafe fn mul(self, o: Self) -> Self {
                    $mul(self, o)
                }
            }

            /// # Safety
            /// The host has this feature; plane and lane preconditions
            /// of [`stages`].
            #[target_feature(enable = $feature)]
            pub unsafe fn $stages(plan: &Plan, p: &mut Planes<'_>) {
                stages::<$ty>(plan, p)
            }
        };
    }

    #[rustfmt::skip]
    tier!(__m128, 4, "sse2", stages_sse2,
          _mm_loadu_ps, _mm_storeu_ps, _mm_set1_ps, _mm_add_ps, _mm_sub_ps, _mm_mul_ps);
    #[rustfmt::skip]
    tier!(__m256, 8, "avx2", stages_avx2,
          _mm256_loadu_ps, _mm256_storeu_ps, _mm256_set1_ps, _mm256_add_ps, _mm256_sub_ps, _mm256_mul_ps);
    #[rustfmt::skip]
    tier!(__m512, 16, "avx512f", stages_avx512,
          _mm512_loadu_ps, _mm512_storeu_ps, _mm512_set1_ps, _mm512_add_ps, _mm512_sub_ps, _mm512_mul_ps);
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

/// `src` times `scale` into the `(re, im)` planes (written as zips so
/// the loop vectorises).
fn split(src: &[Cplx], scale: f32, re: &mut [f32], im: &mut [f32]) {
    for ((v, r), i) in src.iter().zip(re).zip(im) {
        *r = v.re * scale;
        *i = v.im * scale;
    }
}

/// The `(re, im)` planes times `scale` into `dst`.
fn join(re: &[f32], im: &[f32], scale: f32, dst: &mut [Cplx]) {
    for ((v, r), i) in dst.iter_mut().zip(re).zip(im) {
        *v = Cplx::new(r * scale, i * scale);
    }
}

/// Transform `(p.re, p.im)` into `(p.re2, p.im2)`, unscaled, with the
/// widest kernel `tier` allows for this size.
fn transform(tier: HostIsa, plan: &Plan, inverse: bool, p: &mut Planes<'_>) {
    assert!(host::has(tier), "host lacks the {} tier", tier.name());
    let mut p = Planes {
        re: &mut *p.re,
        im: &mut *p.im,
        re2: &mut *p.re2,
        im2: &mut *p.im2,
    };
    if inverse {
        // the inverse is the forward transform of the exchanged planes
        std::mem::swap(&mut p.re, &mut p.im);
        std::mem::swap(&mut p.re2, &mut p.im2);
    }
    assert!([p.re.len(), p.im.len(), p.re2.len(), p.im2.len()] == [plan.n(); 4]);
    // SAFETY: the planes are `plan.n()` long (just checked), each arm's
    // lane count is at most `1 << plan.split`, and `host::has(tier)`
    // vouches for the instructions of `tier` and of every narrower one.
    match lanes_of(tier).min(1 << plan.split) {
        #[cfg(target_arch = "x86_64")]
        16 => unsafe { x86::stages_avx512(plan, &mut p) },
        #[cfg(target_arch = "x86_64")]
        8 => unsafe { x86::stages_avx2(plan, &mut p) },
        #[cfg(target_arch = "x86_64")]
        4 => unsafe { x86::stages_sse2(plan, &mut p) },
        _ => unsafe { stages::<f32>(plan, &mut p) },
    }
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
    let plan = Plan::get(buf.len());
    with_planes(buf.len(), |mut p| {
        split(buf, 1.0, p.re, p.im);
        transform(tier, plan, inverse, &mut p);
        let s = if inverse { 1.0 / buf.len() as f32 } else { 1.0 };
        join(p.re2, p.im2, s, buf);
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

    /// The plan for this configuration, after checking that the used
    /// subcarriers fit beside DC and the CP inside one symbol.
    fn plan(&self) -> &'static Plan {
        assert!(
            self.used_subcarriers < self.fft_size && self.cp_len <= self.fft_size,
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
    /// symbols (the rest of the grid is zero) into `symbol_len()`
    /// time-domain samples, CP first.
    fn modulate_symbol(
        &self,
        (tier, plan): (HostIsa, &Plan),
        p: &mut Planes<'_>,
        grid: &[Cplx],
        out: &mut [Cplx],
    ) {
        let s = 1.0 / (self.fft_size as f32).sqrt();
        let (neg, pos) = grid.split_at(self.half().min(grid.len()));
        let top = self.fft_size - self.half();
        p.re.fill(0.0);
        p.im.fill(0.0);
        split(neg, s, &mut p.re[top..], &mut p.im[top..]);
        split(pos, s, &mut p.re[1..], &mut p.im[1..]);
        transform(tier, plan, true, p);
        let (cp, body) = out.split_at_mut(self.cp_len);
        join(p.re2, p.im2, 1.0, body);
        cp.copy_from_slice(&body[self.fft_size - self.cp_len..]);
    }

    /// One received OFDM symbol (with CP) back to the first
    /// `out.len()` subcarrier symbols.
    fn demodulate_symbol(
        &self,
        (tier, plan): (HostIsa, &Plan),
        p: &mut Planes<'_>,
        samples: &[Cplx],
        out: &mut [Cplx],
    ) {
        let s = 1.0 / (self.fft_size as f32).sqrt();
        split(&samples[self.cp_len..], 1.0, p.re, p.im);
        transform(tier, plan, false, p);
        let (neg, pos) = out.split_at_mut(self.half().min(out.len()));
        let top = self.fft_size - self.half();
        join(&p.re2[top..], &p.im2[top..], s, neg);
        join(&p.re2[1..], &p.im2[1..], s, pos);
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
        let n_ofdm = symbols.len().div_ceil(self.used_subcarriers);
        out.clear();
        out.resize(n_ofdm * self.symbol_len(), Cplx::default());
        with_planes(self.fft_size, |mut p| {
            for (grid, sym) in symbols
                .chunks(self.used_subcarriers)
                .zip(out.chunks_exact_mut(self.symbol_len()))
            {
                self.modulate_symbol(engine, &mut p, grid, sym);
            }
        });
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
        out.resize(n_symbols, Cplx::default());
        with_planes(self.fft_size, |mut p| {
            for (sym, grid) in samples
                .chunks_exact(self.symbol_len())
                .zip(out.chunks_mut(self.used_subcarriers))
            {
                self.demodulate_symbol(engine, &mut p, sym, grid);
            }
        });
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
