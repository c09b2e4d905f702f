//! TS 36.212 §5.1.4.1 rate matching for turbo-coded transport channels.
//!
//! Each of the three encoder output streams `d⁽⁰⁾ d⁽¹⁾ d⁽²⁾` passes
//! through the 32-column sub-block interleaver; the results are
//! collected into the circular buffer `w` (systematic first, then the
//! two parities bit-interlaced) and `E` bits are read out starting at
//! the redundancy-version offset, skipping `<NULL>` padding.
//!
//! De-rate-matching inverts the readout into LLR space, *combining*
//! repeated positions by saturating addition (chase combining) and
//! leaving punctured positions at LLR 0.
//!
//! # Row-wise de-rate-match
//!
//! [`RateMatcher::try_de_rate_match_interleaved_into`] — the receive
//! hot path — inverts the readout in two regular steps instead of one
//! table walk per LLR.
//!
//! **Step 1, un-circulate.** `<NULL>`s are pure padding, so the
//! *compacted* circular buffer has exactly `3d` entries and input LLR
//! `i` belongs at compacted position `(k0_real[rv] + i) mod 3d`. The
//! first lap is at most two contiguous copies into a scratch `w`,
//! every later lap (repetition) a contiguous saturating add over the
//! same ranges in the same order as the per-LLR oracle, and what the
//! first lap does not reach (puncturing) is zeroed. `rv`, `E` and the
//! wraps end here.
//!
//! **Step 2, a fixed permutation `w → out` that depends only on `d`.**
//! Write `R = ⌈d/32⌉` rows, `nd = 32R − d` leading `<NULL>`s, and
//! `p⁽ˢ⁾[i]` for padded stream `s` (`nd` `<NULL>`s, then `d⁽ˢ⁾`). The
//! interleaver reads the `R × 32` matrix column by column in
//! [`COL_PERM`] order (its own inverse), so natural column `c` of the
//! systematic stream is `R` contiguous words of `w`, and of the
//! interlaced parities `2R` contiguous words. With `sb[c]` / `pb[c]`
//! the compacted start of that column minus its row-0 `<NULL>` count
//! (`column_bases`), every row `r ≥ 1` is regular:
//!
//! ```text
//! S_c[r] = w[sb[c] + r]                         = p⁽⁰⁾[32r + c]
//! B_c[r] = (w[pb[c] + 2r], w[pb[c] + 2r + 1])   = (p⁽¹⁾[32r + c], p⁽²⁾[32r + c + 1])
//!        = (L_c[r], H_{c+1}[r])                   with H_32[r] ≡ H_0[r + 1]
//! ```
//!
//! (`d⁽²⁾` is read one position further on, which is why the high half
//! of `B_c` belongs to column `c + 1`.) Output row `r` is the 96
//! contiguous words `out[3·(32r − nd) ..]` = `(S_c[r], L_c[r], H_c[r])`
//! for `c = 0..32`, and every one of the `3d` outputs is written
//! exactly once. Only two things are irregular: **row 0**, whose first
//! `nd` columns are `<NULL>` (≤ 96 scalar moves through the same
//! bases), and **the carry** — `H_0[r]` arrives as the high half of
//! the *previous* row's `B_31`. The last row's `B_31` therefore reads
//! one word past the `3d` compacted entries (the `<NULL>` at padded
//! position 0 that `d⁽²⁾`'s shifted readout wraps to); it is a carry
//! into a row that does not exist and is never stored, so one pad word
//! after `w` is all the slack the kernel needs. (With `nd = 0` that
//! word is real — `d⁽²⁾[0]` — sits inside the `3d`, and row 0 places
//! it.)
//!
//! On AVX-512BW a row is two `vpgatherdd` for `B` plus two per *pair*
//! of rows for `S` (a 32-bit gather at `sb[c] + r` brings `S_c[r]` and
//! `S_c[r+1]`), six word permutes and three 64-byte stores; every other
//! host runs the same decomposition as a scalar double loop. Two arms,
//! not a ladder: the step that matters is dropping the per-LLR
//! division, `<NULL>` branch and read-modify-write, which both have.

use crate::interleaver::row;
use crate::llr::{adds16, Llr};
use core::mem::MaybeUninit;
use std::sync::OnceLock;

/// The spec's inter-column permutation pattern.
pub const COL_PERM: [usize; 32] = [
    0, 16, 8, 24, 4, 20, 12, 28, 2, 18, 10, 26, 6, 22, 14, 30, 1, 17, 9, 25, 5, 21, 13, 29, 3, 19,
    11, 27, 7, 23, 15, 31,
];

const NCOLS: usize = 32;

/// Structural errors from the typed (non-panicking) rate-match API.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RateMatchError {
    /// Redundancy version outside the spec's `0..4`.
    InvalidRv {
        /// The offending rv.
        rv: usize,
    },
    /// An encoder stream whose length differs from the matcher's `d`.
    WrongStreamLength {
        /// Configured per-stream length.
        expected: usize,
        /// Actual stream length.
        got: usize,
    },
}

impl std::fmt::Display for RateMatchError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RateMatchError::InvalidRv { rv } => {
                write!(f, "redundancy version {rv} outside 0..4")
            }
            RateMatchError::WrongStreamLength { expected, got } => {
                write!(f, "stream length {got} != configured d {expected}")
            }
        }
    }
}

impl std::error::Error for RateMatchError {}

/// Position map for one stream: `perm[i]` is the index into the padded
/// `R×32` matrix (row-major write order) read out at position `i`;
/// positions pointing into the pad are `usize::MAX`.
fn subblock_positions(d: usize, stream2: bool) -> Vec<usize> {
    let rows = d.div_ceil(NCOLS);
    let kp = rows * NCOLS;
    let nd = kp - d; // leading <NULL> count
    let mut out = Vec::with_capacity(kp);
    if !stream2 {
        // read column-wise in permuted column order
        for &c in COL_PERM.iter() {
            for r in 0..rows {
                let idx = r * NCOLS + c; // row-major position in padded matrix
                out.push(if idx < nd { usize::MAX } else { idx - nd });
            }
        }
    } else {
        // d⁽²⁾ uses the shifted formula π(k) = (P(⌊k/R⌋) + 32·(k mod R) + 1) mod Kp
        for k in 0..kp {
            let idx = (COL_PERM[k / rows] + NCOLS * (k % rows) + 1) % kp;
            out.push(if idx < nd { usize::MAX } else { idx - nd });
        }
    }
    out
}

/// The circular-buffer position map: `w[i]` gives the index into the
/// concatenated `[d0 | d1 | d2]` (each of length `d`) for circular
/// buffer position `i`, or `usize::MAX` for `<NULL>`.
fn circular_buffer_map(d: usize) -> Vec<usize> {
    let v0 = subblock_positions(d, false);
    let v1 = subblock_positions(d, false);
    let v2 = subblock_positions(d, true);
    let kp = v0.len();
    let mut w = Vec::with_capacity(3 * kp);
    for &p in &v0 {
        w.push(if p == usize::MAX { usize::MAX } else { p });
    }
    for j in 0..kp {
        // interlace v1, v2
        let p1 = v1[j];
        w.push(if p1 == usize::MAX { usize::MAX } else { d + p1 });
        let p2 = v2[j];
        w.push(if p2 == usize::MAX {
            usize::MAX
        } else {
            2 * d + p2
        });
    }
    w
}

/// Compacted readout start for each redundancy version: how many
/// real (non-`<NULL>`) entries precede `k0(rv)` in the raw buffer.
fn compacted_k0(wmap: &[usize], rows: usize) -> [usize; 4] {
    core::array::from_fn(|rv| {
        let k0 = rows * (2 * wmap.len().div_ceil(8 * rows) * rv + 2);
        wmap[..k0].iter().filter(|&&p| p != usize::MAX).count()
    })
}

/// Per-natural-column bases `(sb, pb)` into the compacted circular
/// buffer (module doc, step 2): the compacted start of permuted column
/// `P(c)` in the systematic / interlaced-parity section, minus that
/// column's row-0 `<NULL>` count, so that rows `r ≥ 1` sit at
/// `sb[c] + r` and `pb[c] + 2r`. `sb[0]` is `−1` whenever `nd > 0`.
fn column_bases(d: usize) -> ([i32; NCOLS], [i32; NCOLS]) {
    let rows = d.div_ceil(NCOLS);
    let nd = rows * NCOLS - d;
    let (mut sb, mut pb) = ([0i32; NCOLS], [0i32; NCOLS]);
    let (mut s, mut p) = (0i32, d as i32);
    for &c in COL_PERM.iter() {
        let s0 = i32::from(c < nd); // row 0 of S_c / L_c is <NULL>
        let p0 = s0 + i32::from(c + 1 < nd); // … and of H_{c+1}
        sb[c] = s - s0;
        pb[c] = p - p0;
        s += rows as i32 - s0;
        p += 2 * rows as i32 - p0;
    }
    (sb, pb)
}

/// Rate matcher for one code block.
#[derive(Debug, Clone)]
pub struct RateMatcher {
    d: usize,
    wmap: Vec<usize>,
    /// Compacted readout start per redundancy version
    /// ([`compacted_k0`]): where the row-wise de-rate-matcher's
    /// un-circulate step drops the first LLR.
    k0_real: [usize; 4],
}

impl RateMatcher {
    /// For per-stream length `d = K + 4` (at most `MAX_D`: the
    /// de-rate-matcher's stack scratch is sized by it).
    pub fn new(d: usize) -> Self {
        assert!(
            d <= MAX_D,
            "RateMatcher supports turbo stream lengths only (d ≤ {MAX_D}, got {d})"
        );
        let wmap = circular_buffer_map(d);
        let k0_real = compacted_k0(&wmap, d.div_ceil(NCOLS));
        Self { d, wmap, k0_real }
    }

    /// The process-wide matcher for turbo block size `k` (`d = K + 4`),
    /// built on the first call for that size; panics on an illegal `k`.
    pub fn of(k: usize) -> &'static RateMatcher {
        static MATCHERS: [OnceLock<RateMatcher>; 188] = [const { OnceLock::new() }; 188];
        MATCHERS[row(k)].get_or_init(|| Self::new(k + 4))
    }

    /// Circular buffer length `Ncb = 3·Kp`.
    pub fn ncb(&self) -> usize {
        self.wmap.len()
    }

    /// Readout start offset `k0` for redundancy version `rv ∈ 0..4`.
    pub fn k0(&self, rv: usize) -> usize {
        self.try_k0(rv).expect("rv in 0..4")
    }

    /// Non-panicking [`RateMatcher::k0`]: out-of-range redundancy
    /// versions are an `Err` instead of an assert.
    pub fn try_k0(&self, rv: usize) -> Result<usize, RateMatchError> {
        if rv >= 4 {
            return Err(RateMatchError::InvalidRv { rv });
        }
        let rows = self.d.div_ceil(NCOLS);
        Ok(rows * (2 * self.ncb().div_ceil(8 * rows) * rv + 2))
    }

    /// Select `e` output bits from the coded streams (bit domain).
    pub fn rate_match(&self, d: &[Vec<u8>; 3], e: usize, rv: usize) -> Vec<u8> {
        self.try_rate_match(d, e, rv)
            .expect("streams sized to d and rv in 0..4")
    }

    /// Non-panicking [`RateMatcher::rate_match`]: validates stream
    /// lengths and the redundancy version.
    pub fn try_rate_match(
        &self,
        d: &[Vec<u8>; 3],
        e: usize,
        rv: usize,
    ) -> Result<Vec<u8>, RateMatchError> {
        if let Some(s) = d.iter().find(|s| s.len() != self.d) {
            return Err(RateMatchError::WrongStreamLength {
                expected: self.d,
                got: s.len(),
            });
        }
        let ncb = self.ncb();
        let flat: Vec<u8> = d.iter().flat_map(|s| s.iter().copied()).collect();
        let mut out = Vec::with_capacity(e);
        let mut k = self.try_k0(rv)?;
        while out.len() < e {
            let p = self.wmap[k % ncb];
            if p != usize::MAX {
                out.push(flat[p]);
            }
            k += 1;
        }
        Ok(out)
    }

    /// Invert the readout in LLR space into three LLR streams of length
    /// `d`, with repeats chase-combined and punctures at 0: resizes each
    /// stream of `out` (a no-op once the buffers have warmed up) and
    /// accumulates in place. An out-of-range redundancy version is an
    /// `Err`. The oracle of the interleaved variant the receiver runs.
    pub fn try_de_rate_match_into(
        &self,
        llrs: &[Llr],
        rv: usize,
        out: &mut [Vec<Llr>; 3],
    ) -> Result<(), RateMatchError> {
        let mut k = self.try_k0(rv)?;
        let d = self.d;
        for s in out.iter_mut() {
            s.resize(d, 0);
            s.fill(0);
        }
        let ncb = self.ncb();
        let mut consumed = 0;
        while consumed < llrs.len() {
            let p = self.wmap[k % ncb];
            if p != usize::MAX {
                let slot = &mut out[p / d][p % d];
                *slot = adds16(*slot, llrs[consumed]);
                consumed += 1;
            }
            k += 1;
        }
        Ok(())
    }

    /// Triple-interleaved variant of
    /// [`RateMatcher::try_de_rate_match_into`]: writes a single `3d`
    /// buffer holding `[d⁽⁰⁾ⱼ d⁽¹⁾ⱼ d⁽²⁾ⱼ]` triples — the
    /// demapper-output cluster layout (paper Fig 8a) the fused APCM
    /// ingest kernels consume. Positions `3K..` carry the four tail
    /// triples, so [`crate::llr::TailLlrs::from_interleaved`] reads
    /// terminations from the same buffer. Chase combining and
    /// puncture-as-zero semantics are identical to the per-stream
    /// variant, which is its oracle; how it gets there — un-circulate,
    /// then move rows — is the module doc's "Row-wise de-rate-match".
    pub fn try_de_rate_match_interleaved_into(
        &self,
        llrs: &[Llr],
        rv: usize,
        out: &mut Vec<Llr>,
    ) -> Result<(), RateMatchError> {
        self.try_k0(rv)?;
        let d = self.d;
        let n = 3 * d;
        let rows = d.div_ceil(NCOLS);
        let nd = rows * NCOLS - d;
        out.resize(n, 0);

        // Step 1: un-circulate into `w[..n]`, plus the one pad word the
        // last row's carry gather reads.
        let q = self.k0_real[rv] % n; // every real entry before k0: wrap at once
        let first = llrs.len().min(n);
        let head = first.min(n - q); // lands at q..
        let tail = first - head; // wraps to 0.. (≤ q)
        let mut scratch = [MaybeUninit::<Llr>::uninit(); 3 * MAX_D + 1];
        assert!(n < scratch.len(), "new() bounds d by MAX_D");
        let wp = scratch.as_mut_ptr().cast::<Llr>();
        // SAFETY: `head + tail ≤ llrs.len()`; `q + head ≤ n` and
        // `tail ≤ q`, so the two copies and the two zero fills tile
        // `0..n + 1` of `scratch` (asserted above to hold it) exactly
        // once: first lap, then the punctured remainder and the pad.
        let w = unsafe {
            core::ptr::copy_nonoverlapping(llrs.as_ptr(), wp.add(q), head);
            core::ptr::copy_nonoverlapping(llrs.as_ptr().add(head), wp, tail);
            core::ptr::write_bytes(wp.add(tail), 0, q - tail);
            core::ptr::write_bytes(wp.add(q + head), 0, n + 1 - (q + head));
            core::slice::from_raw_parts_mut(wp, n + 1)
        };
        // Repetition: later laps restart at q and combine in arrival
        // order, so saturation matches the per-LLR oracle.
        let (mut rest, mut pos) = (&llrs[first..], q);
        while !rest.is_empty() {
            let (lap, later) = rest.split_at(rest.len().min(n - pos));
            for (acc, &l) in w[pos..pos + lap.len()].iter_mut().zip(lap) {
                *acc = adds16(*acc, l);
            }
            pos = (pos + lap.len()) % n;
            rest = later;
        }
        let w = &*w;

        // Step 2: the K-only permutation. Row 0 skips its nd <NULL>
        // columns; with nd = 0 its H_0 is the wrapped last entry.
        let (sb, pb) = column_bases(d);
        for c in nd..NCOLS {
            let h = if c > 0 { pb[c - 1] + 1 } else { n as i32 - 1 };
            out[3 * (c - nd)..][..3].copy_from_slice(&[
                w[sb[c] as usize],
                w[pb[c] as usize],
                w[h as usize],
            ]);
        }
        // Every index the row kernels form, checked once here: S reads
        // w[sb+r ..= sb+r+1], B reads w[pb+2r ..= pb+2r+1], r in 0..rows
        // (S from 1), and the rows tile out[3·(32 − nd)..].
        let (rows32, n32) = (rows as i32, n as i32);
        assert!(sb.iter().all(|&b| b >= -1 && b + rows32 <= n32));
        assert!(pb.iter().all(|&b| b >= 0 && b + 2 * rows32 - 1 <= n32));
        assert!(w.len() == n + 1 && out.len() == 3 * (rows * NCOLS - nd));
        #[cfg(target_arch = "x86_64")]
        if vran_simd::host::has(vran_simd::host::HostIsa::Avx512bw) {
            // SAFETY: `has` verified avx512f+avx512bw on this CPU; the
            // asserts above are the kernel's stated preconditions.
            unsafe { permute_rows_avx512(w, &sb, &pb, rows, nd, out) };
            return Ok(());
        }
        for r in 1..rows {
            let row = &mut out[3 * (NCOLS * r - nd)..][..3 * NCOLS];
            let mut carry = w[pb[NCOLS - 1] as usize + 2 * r - 1];
            for (c, cell) in row.chunks_exact_mut(3).enumerate() {
                let b = pb[c] as usize + 2 * r;
                cell.copy_from_slice(&[w[(sb[c] + r as i32) as usize], w[b], carry]);
                carry = w[b + 1];
            }
        }
        Ok(())
    }
}

/// `vpermt2w` / blend controls assembling one 96-word output row
/// `(S_c, L_c, H_c)`, `c = 0..32`, from the four gathered registers
/// `S0 S1` (dword `c mod 16` = `S_c[r], S_c[r+1]`) and `B0 B1` (dword
/// `c mod 16` = `L_c[r], H_{c+1}[r]`). The `[2]` variants pick the low
/// or high word of the `S` dwords: the first or second row of a pair.
#[cfg(target_arch = "x86_64")]
struct RowControls {
    /// Output words 0..32 from `(S0, B0)`; word 2 (`H_0`) is the carry.
    o0: [[i16; 32]; 2],
    /// `S` words of output words 32..64, from `(S0, S1)`.
    o1s: [[i16; 32]; 2],
    /// `L`/`H` words of output words 32..64, from `(B0, B1)`.
    o1b: [i16; 32],
    /// Lanes of output words 32..64 that hold an `S` word.
    o1_is_s: u32,
    /// Output words 64..96 from `(S1, B1)`.
    o2: [[i16; 32]; 2],
}

#[cfg(target_arch = "x86_64")]
const ROW_CONTROLS: RowControls = {
    let mut t = RowControls {
        o0: [[0; 32]; 2],
        o1s: [[0; 32]; 2],
        o1b: [0; 32],
        o1_is_s: 0,
        o2: [[0; 32]; 2],
    };
    let mut m = 0usize;
    while m < 96 {
        let (c, s, lane) = (m / 3, m % 3, m % 32);
        // S_c and L_c sit in column c's gathered dword, H_c in the high
        // half of column c − 1's (for c = 0 that is the carry, placed
        // by a separate masked permute).
        let is_s = s == 0;
        let from = if s == 2 { c.saturating_sub(1) } else { c };
        let word = 2 * (from % 16) + (s == 2) as usize;
        let mut h = 0;
        while h < 2 {
            let word = (word + if is_s { h } else { 0 }) as i16;
            // Bit 5 of a vpermt2w control selects the second source:
            // the B register of an (S, B) pair, the c ≥ 16 register
            // of an (S0, S1) or (B0, B1) pair.
            let (in_b, in_1) = (32 * !is_s as i16, 32 * (from >= 16) as i16);
            match (m / 32, is_s) {
                (0, _) => t.o0[h][lane] = word + in_b,
                (1, true) => t.o1s[h][lane] = word + in_1,
                (1, false) => t.o1b[lane] = word + in_1,
                _ => t.o2[h][lane] = word + in_b,
            }
            h += 1;
        }
        if m / 32 == 1 && is_s {
            t.o1_is_s |= 1 << lane;
        }
        m += 1;
    }
    t
};

/// Rows `1..rows` of the inverse sub-block interleave (module doc,
/// step 2) on zmm registers: per row two dword gathers for `B`, per
/// pair of rows two for `S`, six word permutes, three stores.
///
/// # Safety
/// Requires avx512f + avx512bw, and what the caller asserts: every
/// `sb[c] + r ..= sb[c] + r + 1` (`1 ≤ r < rows`) and every
/// `pb[c] + 2r ..= pb[c] + 2r + 1` (`r < rows`) indexes `w`, and
/// `out.len() == 3·(32·rows − nd)`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,avx512bw")]
unsafe fn permute_rows_avx512(
    w: &[Llr],
    sb: &[i32; NCOLS],
    pb: &[i32; NCOLS],
    rows: usize,
    nd: usize,
    out: &mut [Llr],
) {
    use core::arch::x86_64::*;
    debug_assert!(sb
        .iter()
        .all(|&b| b >= -1 && (b + rows as i32) < w.len() as i32));
    debug_assert!(pb
        .iter()
        .all(|&b| b >= 0 && b + 2 * rows as i32 <= w.len() as i32));
    debug_assert_eq!(out.len(), 3 * (rows * NCOLS - nd));
    // SAFETY: avx512f + avx512bw are the caller's, and so are the bounds
    // the notes at the gathers and the stores below rely on.
    unsafe {
        let load = |p: *const i32| _mm512_loadu_si512(p.cast());
        let ctl = |t: &[i16; 32]| _mm512_loadu_si512(t.as_ptr().cast());
        let (sb0, sb1) = (load(sb.as_ptr()), load(sb.as_ptr().add(16)));
        let (pb0, pb1) = (load(pb.as_ptr()), load(pb.as_ptr().add(16)));
        let t = &ROW_CONTROLS;
        let o0 = [ctl(&t.o0[0]), ctl(&t.o0[1])];
        let o1s = [ctl(&t.o1s[0]), ctl(&t.o1s[1])];
        let o1b = ctl(&t.o1b);
        let o2 = [ctl(&t.o2[0]), ctl(&t.o2[1])];
        let last = _mm512_set1_epi16(31);
        let wp = w.as_ptr().cast::<i32>();
        let op = out.as_mut_ptr();
        // SAFETY (gathers, here and below): scale 2 makes a lane's address
        // `w + index` words, read as one dword = words index, index + 1 —
        // in `w` by the caller's asserts.
        // Row 0's B_31 seeds the carry: its high half is H_0[1].
        let mut b1_prev = _mm512_i32gather_epi32::<2>(pb1, wp);
        let mut r = 1;
        while r < rows {
            let at = _mm512_set1_epi32(r as i32);
            let s0 = _mm512_i32gather_epi32::<2>(_mm512_add_epi32(sb0, at), wp);
            let s1 = _mm512_i32gather_epi32::<2>(_mm512_add_epi32(sb1, at), wp);
            for h in 0..2.min(rows - r) {
                let at = _mm512_set1_epi32(2 * (r + h) as i32);
                let b0 = _mm512_i32gather_epi32::<2>(_mm512_add_epi32(pb0, at), wp);
                let b1 = _mm512_i32gather_epi32::<2>(_mm512_add_epi32(pb1, at), wp);
                let lo = _mm512_permutex2var_epi16(s0, o0[h], b0);
                let lo = _mm512_mask_permutexvar_epi16(lo, 0b100, last, b1_prev);
                let mid = _mm512_mask_blend_epi16(
                    t.o1_is_s,
                    _mm512_permutex2var_epi16(b0, o1b, b1),
                    _mm512_permutex2var_epi16(s0, o1s[h], s1),
                );
                let hi = _mm512_permutex2var_epi16(s1, o2[h], b1);
                // SAFETY (stores): row r + h is out[3·(32(r+h) − nd)..][..96],
                // and r + h < rows keeps its end within out.len().
                let row = op.add(3 * (NCOLS * (r + h) - nd));
                _mm512_storeu_si512(row.cast(), lo);
                _mm512_storeu_si512(row.add(32).cast(), mid);
                _mm512_storeu_si512(row.add(64).cast(), hi);
                b1_prev = b1;
            }
            r += 2;
        }
    }
}

/// Largest per-stream length the matchers support: the largest turbo
/// block `K = 6144` plus 4 tail bits (sizes their stack scratch).
const MAX_D: usize = 6148;
/// Rows of the sub-block interleaver matrix at [`MAX_D`].
const MAX_ROWS: usize = MAX_D.div_ceil(NCOLS);
/// Words per padded stream in [`PackedRateMatcher::pack_circular_into`]:
/// whole transposes' worth (128 rows of one stream, or 64 rows each of
/// two, are 64 words), zero past the matrix.
const PADDED_WORDS: usize = MAX_ROWS.div_ceil(128) * 64;

/// Word-at-a-time rate matcher over packed bit streams — the transmit
/// fast path paired with
/// [`PackedTurboEncoder`](crate::turbo::PackedTurboEncoder).
///
/// The per-bit readout loop in [`RateMatcher::rate_match`] walks the
/// circular buffer one position at a time, testing every slot for
/// `<NULL>` — scalar-port work proportional to `Ncb`, re-done on every
/// wrap. This matcher hoists all of that out of the hot loop:
///
/// * `<NULL>` slots are pure padding, so the *compacted* circular
///   buffer has exactly `3d` bits. `k0_real` maps each redundancy
///   version's `k0` to its compacted offset, so the e-bit readout is
///   just a circular copy.
/// * [`Self::pack_circular_into`] builds the compacted buffer from
///   the packed d-streams with 64×64 bit-matrix transposes (once per
///   code block) — see its doc for the layout argument.
/// * [`Self::try_rate_match_packed_into`] reads `e` bits out one lap
///   of the buffer at a time, each a contiguous funnel-shift copy.
#[derive(Debug, Clone)]
pub struct PackedRateMatcher {
    d: usize,
    /// Compacted readout start for each redundancy version: how many
    /// real bits precede `k0(rv)` in the raw buffer.
    k0_real: [usize; 4],
}

impl PackedRateMatcher {
    /// For per-stream length `d = K + 4`.
    pub fn new(d: usize) -> Self {
        assert!(
            d <= MAX_D,
            "PackedRateMatcher supports turbo stream lengths only (d ≤ {MAX_D}, got {d})"
        );
        let k0_real = compacted_k0(&circular_buffer_map(d), d.div_ceil(NCOLS));
        Self { d, k0_real }
    }

    /// The process-wide matcher for turbo block size `k` (`d = K + 4`),
    /// built on the first call for that size; panics on an illegal `k`.
    pub fn of(k: usize) -> &'static PackedRateMatcher {
        static MATCHERS: [OnceLock<PackedRateMatcher>; 188] = [const { OnceLock::new() }; 188];
        MATCHERS[row(k)].get_or_init(|| Self::new(k + 4))
    }

    /// Per-stream length `d`.
    pub fn d(&self) -> usize {
        self.d
    }

    /// Number of transmittable (non-`<NULL>`) bits in the circular
    /// buffer: always `3d`.
    pub fn n_real(&self) -> usize {
        3 * self.d
    }

    /// Words each packed d-stream must span: `(d).div_ceil(64)`.
    pub fn stream_words(&self) -> usize {
        self.d.div_ceil(64)
    }

    /// Gather the compacted circular buffer from three packed
    /// d-streams (LSB-first, [`Self::stream_words`] words each) into
    /// `w`. Done once per code block; every subsequent readout is pure
    /// word copies.
    ///
    /// The sub-block interleaver reads columns of an `R × 32` bit
    /// matrix whose first `nd` entries are `<NULL>`, so this never
    /// touches individual bits (DESIGN.md §5.13). Moved up by `nd`
    /// bits, a packed stream's `u32` halves *are* the matrix rows;
    /// `d⁽²⁾` is then rotated down one bit within the matrix — its
    /// `+1` readout, the position that wraps landing at row `R − 1` of
    /// column 31. A 64×64 transpose turns 128 rows of `d⁽⁰⁾` (row `j`
    /// beside row `j + 64`) into 128 bits of every column, and 64 rows
    /// each of `d⁽¹⁾` and `d⁽²⁾`, taken alternately, into 128 bits of
    /// every column's `v⁽¹⁾`/`v⁽²⁾` interlace. The `<NULL>`s are then
    /// the first zero, one or two bits of a column (and the last of
    /// column 31): each column is one run appended in [`COL_PERM`] order.
    pub fn pack_circular_into(
        &self,
        d_words: [&[u64]; 3],
        w: &mut Vec<u64>,
    ) -> Result<(), RateMatchError> {
        let need = self.stream_words();
        for s in d_words {
            if s.len() != need {
                return Err(RateMatchError::WrongStreamLength {
                    expected: need,
                    got: s.len(),
                });
            }
        }
        const LOW32: u64 = 0xFFFF_FFFF;
        let rows = self.d.div_ceil(NCOLS);
        let nd = rows * NCOLS - self.d; // leading <NULL> count, < 32

        let mut p = [[0u64; PADDED_WORDS]; 3];
        for (s, padded) in d_words.into_iter().zip(&mut p) {
            shift_up(s, nd as u32, padded);
            if rows % 2 == 1 {
                // half a word past the matrix: the stream's last word
                // may have carried anything past bit d into it
                padded[rows / 2] &= LOW32;
            }
        }
        // d⁽²⁾ is read one position further on, cyclically: bit 0
        // (<NULL> unless nd = 0) wraps to the matrix's last bit.
        let (first, last) = (p[2][0] & 1, rows * NCOLS - 1);
        for i in 0..need {
            p[2][i] = p[2][i] >> 1 | p[2][i + 1] << 63;
        }
        p[2][last >> 6] |= first << (last & 63);

        // Rows j and j + 64 of a transpose's 128 share a word, so that
        // word k of column c comes out as word 32k + c of the blocks.
        let zip_halves = |x: u64, y: u64| ((x & LOW32) | (y << 32), (x >> 32) | (y & !LOW32));
        let mut sys = [[0u64; 64]; PADDED_WORDS / 64];
        for (a, rows128) in sys
            .iter_mut()
            .zip(p[0][..rows.div_ceil(128) * 64].chunks_exact(64))
        {
            let (lo, hi) = rows128.split_at(32);
            for (i, (&x, &y)) in lo.iter().zip(hi).enumerate() {
                (a[2 * i], a[2 * i + 1]) = zip_halves(x, y);
            }
            transpose64_dispatch(a);
        }
        // Rows r of d⁽¹⁾ and d⁽²⁾ side by side: a column comes out
        // already interlaced.
        let mut par = [[0u64; 64]; PADDED_WORDS / 32];
        let words = rows.div_ceil(64) * 32;
        for (a, (p1, p2)) in par.iter_mut().zip(
            p[1][..words]
                .chunks_exact(32)
                .zip(p[2][..words].chunks_exact(32)),
        ) {
            for i in 0..16 {
                (a[4 * i], a[4 * i + 2]) = zip_halves(p1[i], p1[i + 16]);
                (a[4 * i + 1], a[4 * i + 3]) = zip_halves(p2[i], p2[i + 16]);
            }
            transpose64_dispatch(a);
        }

        w.clear();
        w.resize(self.n_real().div_ceil(64), 0);
        let mut sink = BitSink {
            w,
            next: 0,
            acc: 0,
            fill: 0,
        };
        for &c in COL_PERM.iter() {
            sink.push_column(sys.as_flattened(), c, usize::from(c < nd), rows);
        }
        for &c in COL_PERM.iter() {
            // row 0 of d⁽¹⁾, then of d⁽²⁾ one column further on; the
            // wrapped position closes column 31
            let null = usize::from(c < nd) + usize::from(c + 1 < nd);
            let wrapped = usize::from(c == NCOLS - 1 && nd > 0);
            sink.push_column(par.as_flattened(), c, null, 2 * rows - wrapped);
        }
        debug_assert_eq!(64 * sink.next + sink.fill as usize, self.n_real());
        if sink.fill != 0 {
            sink.w[sink.next] = sink.acc;
        }
        Ok(())
    }

    /// Read `e` bits from the compacted circular buffer `w` (built by
    /// [`Self::pack_circular_into`]) starting at redundancy version
    /// `rv` into packed words in `out`: one contiguous copy per lap.
    pub fn try_rate_match_packed_into(
        &self,
        w: &[u64],
        e: usize,
        rv: usize,
        out: &mut Vec<u64>,
    ) -> Result<(), RateMatchError> {
        if rv >= 4 {
            return Err(RateMatchError::InvalidRv { rv });
        }
        let n = self.n_real();
        if w.len() != n.div_ceil(64) {
            return Err(RateMatchError::WrongStreamLength {
                expected: n.div_ceil(64),
                got: w.len(),
            });
        }
        out.clear();
        out.resize(e.div_ceil(64), 0);
        // if every real bit precedes k0 the readout wraps immediately
        let (mut at, mut q) = (0, self.k0_real[rv] % n);
        while at < e {
            at = copy_bits(out, at, w, q, (n - q).min(e - at));
            q = 0;
        }
        Ok(())
    }

    /// One-shot packed rate match producing plain bits (tests,
    /// examples; the pipelines keep the buffers across blocks).
    pub fn rate_match_packed(&self, d_words: [&[u64]; 3], e: usize, rv: usize) -> Vec<u8> {
        let mut w = Vec::new();
        let mut out = Vec::new();
        self.pack_circular_into(d_words, &mut w)
            .expect("streams sized to d");
        self.try_rate_match_packed_into(&w, e, rv, &mut out)
            .expect("rv in 0..4");
        crate::bits::unpack_lsb_words(&out, e)
    }
}

/// Bits `q .. q+len` (LSB-first, `1 ≤ len ≤ 64`, in-range) of a packed
/// word buffer, as the low bits of a `u64`.
#[inline]
fn read_bits(w: &[u64], q: usize, len: u32) -> u64 {
    let idx = q >> 6;
    let sh = (q & 63) as u32;
    let mut v = w[idx] >> sh;
    if sh != 0 && len > 64 - sh {
        v |= w[idx + 1] << (64 - sh);
    }
    if len < 64 {
        v &= (1u64 << len) - 1;
    }
    v
}

/// The packed stream `s` moved up by `sh < 64` bits into `out[..s.len()]`
/// (what leaves the last word is dropped).
fn shift_up(s: &[u64], sh: u32, out: &mut [u64]) {
    out[0] = s[0] << sh;
    for (o, x) in out[1..].iter_mut().zip(s.windows(2)) {
        *o = x[1] << sh | (x[0] >> 1) >> (63 - sh);
    }
}

/// Bit appender over a pre-sized word buffer: whole words leave a
/// register accumulator, each written once.
struct BitSink<'a> {
    w: &'a mut [u64],
    next: usize,
    acc: u64,
    fill: u32,
}

impl BitSink<'_> {
    /// Append the low `n` bits of `x` (`1 ≤ n ≤ 64`, `x` zero above).
    #[inline]
    fn push(&mut self, x: u64, n: u32) {
        self.acc |= x << self.fill;
        if self.fill + n >= 64 {
            self.w[self.next] = self.acc;
            self.next += 1;
            self.acc = (x >> 1) >> (63 - self.fill);
        }
        self.fill = (self.fill + n) & 63;
    }

    /// Append bits `from .. to` of column `c`, whose word `k` is
    /// `blocks[32k + c]` and which is zero from bit `to` up.
    #[inline]
    fn push_column(&mut self, blocks: &[u64], c: usize, from: usize, to: usize) {
        if to <= 64 {
            if from < to {
                self.push(blocks[c] >> from, (to - from) as u32);
            }
            return;
        }
        self.push(blocks[c] >> from, (64 - from) as u32);
        let last = (to - 1) / 64;
        for k in 1..last {
            self.push(blocks[32 * k + c], 64);
        }
        self.push(blocks[32 * last + c], (to - 64 * last) as u32);
    }
}

/// Copy bits `start .. start + len` of `src` to bits `at ..` of `dst`
/// and return the bit after them. The last word touched is left zero
/// above the run and a run that starts mid-word ORs into it, so runs
/// laid end to end from bit 0 need nothing of `dst` but its length.
fn copy_bits(dst: &mut [u64], at: usize, src: &[u64], mut start: usize, mut len: usize) -> usize {
    let (mut j, fill, end) = (at >> 6, at & 63, at + len);
    if fill != 0 && len != 0 {
        let head = len.min(64 - fill);
        dst[j] |= read_bits(src, start, head as u32) << fill;
        (j, start, len) = (j + 1, start + head, len - head);
    }
    let (k, sh, full) = (start >> 6, (start & 63) as u32, len >> 6);
    if sh == 0 {
        dst[j..j + full].copy_from_slice(&src[k..k + full]);
    } else if full != 0 {
        for (o, s) in dst[j..j + full]
            .iter_mut()
            .zip(src[k..=k + full].windows(2))
        {
            *o = s[0] >> sh | s[1] << (64 - sh);
        }
    }
    if len & 63 != 0 {
        dst[j + full] = read_bits(src, start + 64 * full, (len & 63) as u32);
    }
    end
}

/// In-place 64×64 bit-matrix transpose (LSB-first rows): after the
/// call, `a[c]` bit `r` equals the old `a[r]` bit `c`. The standard
/// recursive block-swap network — log₂ 64 rounds of masked XOR swaps.
fn transpose64(a: &mut [u64; 64]) {
    let mut j = 32u32;
    let mut m: u64 = 0x0000_0000_FFFF_FFFF;
    while j != 0 {
        let mut k = 0usize;
        while k < 64 {
            if k & j as usize == 0 {
                let t = ((a[k] >> j) ^ a[k + j as usize]) & m;
                a[k] ^= t << j;
                a[k + j as usize] ^= t;
            }
            k += 1;
        }
        j >>= 1;
        m ^= m << j;
    }
}

/// [`transpose64`] with the matrix held in eight zmm registers: the
/// three wide rounds (row distance 32/16/8) become plain vector XOR
/// swaps between register pairs, and the three narrow rounds (4/2/1)
/// swap qword lanes in-register via `vpermq` plus lane-masked XORs.
/// Same swap network, same order — bit-exact with the scalar walk.
///
/// # Safety
/// Requires avx512f.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn transpose64_avx512(a: &mut [u64; 64]) {
    use core::arch::x86_64::*;
    // SAFETY: AVX-512F is the caller's; the eight 64-byte loads and stores
    // tile `a`'s 64 qwords.
    unsafe {
        let p = a.as_mut_ptr();
        let mut v: [__m512i; 8] = core::array::from_fn(|i| _mm512_loadu_si512(p.add(8 * i).cast()));
        // Rows k and k+j live 8j qwords apart — in different registers.
        macro_rules! wide {
            ($j:literal, $m:expr) => {
                let m = _mm512_set1_epi64($m);
                let d = $j / 8;
                for i in 0..8 {
                    if i & d == 0 {
                        let t = _mm512_and_si512(
                            _mm512_xor_si512(_mm512_srli_epi64::<$j>(v[i]), v[i + d]),
                            m,
                        );
                        v[i] = _mm512_xor_si512(v[i], _mm512_slli_epi64::<$j>(t));
                        v[i + d] = _mm512_xor_si512(v[i + d], t);
                    }
                }
            };
        }
        wide!(32, 0x0000_0000_FFFF_FFFFu64 as i64);
        wide!(16, 0x0000_FFFF_0000_FFFFu64 as i64);
        wide!(8, 0x00FF_00FF_00FF_00FFu64 as i64);
        // Rows k and k+j share a register: partner lane is l ^ j, the
        // low-lane (k & j == 0) and high-lane halves get their respective
        // sides of the swap via lane-masked XORs.
        macro_rules! narrow {
            ($j:literal, $m:expr, $lo:literal) => {
                let m = _mm512_set1_epi64($m);
                let idx = _mm512_xor_si512(
                    _mm512_set_epi64(7, 6, 5, 4, 3, 2, 1, 0),
                    _mm512_set1_epi64($j),
                );
                for r in v.iter_mut() {
                    let w = _mm512_permutexvar_epi64(idx, *r);
                    let tl = _mm512_and_si512(_mm512_xor_si512(_mm512_srli_epi64::<$j>(*r), w), m);
                    let th = _mm512_and_si512(_mm512_xor_si512(_mm512_srli_epi64::<$j>(w), *r), m);
                    *r = _mm512_mask_xor_epi64(*r, $lo, *r, _mm512_slli_epi64::<$j>(tl));
                    *r = _mm512_mask_xor_epi64(*r, !$lo, *r, th);
                }
            };
        }
        narrow!(4, 0x0F0F_0F0F_0F0F_0F0Fu64 as i64, 0x0Fu8);
        narrow!(2, 0x3333_3333_3333_3333u64 as i64, 0x33u8);
        narrow!(1, 0x5555_5555_5555_5555u64 as i64, 0x55u8);
        for (i, r) in v.into_iter().enumerate() {
            _mm512_storeu_si512(p.add(8 * i).cast(), r);
        }
    }
}

/// Runtime-dispatched transpose: the zmm network where the host (and
/// test ceiling) allow AVX-512, the scalar swap network elsewhere.
#[inline]
fn transpose64_dispatch(a: &mut [u64; 64]) {
    #[cfg(target_arch = "x86_64")]
    if vran_simd::host::has(vran_simd::host::HostIsa::Avx512bw) {
        // SAFETY: `has` verified avx512f+avx512bw on this CPU.
        unsafe { transpose64_avx512(a) };
        return;
    }
    transpose64(a);
}

/// TS 36.212 §5.1.4.2 rate matching for *convolutionally* coded
/// channels (PDCCH/DCI, PBCH): same 32-column sub-block interleaver
/// with a different column permutation, sequential (not interlaced)
/// bit collection, and readout always from position 0 (no redundancy
/// versions on control channels).
pub mod conv {
    use super::NCOLS;
    use crate::llr::{adds16, Llr};

    /// The §5.1.4.2 inter-column permutation.
    pub const COL_PERM_CC: [usize; 32] = [
        1, 17, 9, 25, 5, 21, 13, 29, 3, 19, 11, 27, 7, 23, 15, 31, 0, 16, 8, 24, 4, 20, 12, 28, 2,
        18, 10, 26, 6, 22, 14, 30,
    ];

    fn positions(d: usize) -> Vec<usize> {
        let rows = d.div_ceil(NCOLS);
        let kp = rows * NCOLS;
        let nd = kp - d;
        let mut out = Vec::with_capacity(kp);
        for &c in COL_PERM_CC.iter() {
            for r in 0..rows {
                let idx = r * NCOLS + c;
                out.push(if idx < nd { usize::MAX } else { idx - nd });
            }
        }
        out
    }

    /// Convolutional-channel rate matcher for per-stream length `d`.
    #[derive(Debug, Clone)]
    pub struct ConvRateMatcher {
        d: usize,
        wmap: Vec<usize>, // circular buffer → flat [d0|d1|d2] index
    }

    impl ConvRateMatcher {
        /// New matcher for streams of `d` bits each.
        pub fn new(d: usize) -> Self {
            let pos = positions(d);
            let kp = pos.len();
            let mut wmap = Vec::with_capacity(3 * kp);
            for stream in 0..3 {
                for &p in &pos {
                    wmap.push(if p == usize::MAX {
                        usize::MAX
                    } else {
                        stream * d + p
                    });
                }
            }
            Self { d, wmap }
        }

        /// Select `e` coded bits.
        pub fn rate_match(&self, d: &[Vec<u8>; 3], e: usize) -> Vec<u8> {
            assert!(d.iter().all(|s| s.len() == self.d));
            let flat: Vec<u8> = d.iter().flat_map(|s| s.iter().copied()).collect();
            let ncb = self.wmap.len();
            let mut out = Vec::with_capacity(e);
            let mut k = 0usize;
            while out.len() < e {
                let p = self.wmap[k % ncb];
                if p != usize::MAX {
                    out.push(flat[p]);
                }
                k += 1;
            }
            out
        }

        /// Invert into LLR space with chase combining of repeats.
        pub fn de_rate_match(&self, llrs: &[Llr]) -> [Vec<Llr>; 3] {
            let ncb = self.wmap.len();
            let mut acc = vec![0 as Llr; 3 * self.d];
            let mut k = 0usize;
            let mut used = 0;
            while used < llrs.len() {
                let p = self.wmap[k % ncb];
                if p != usize::MAX {
                    acc[p] = adds16(acc[p], llrs[used]);
                    used += 1;
                }
                k += 1;
            }
            let d = self.d;
            [
                acc[..d].to_vec(),
                acc[d..2 * d].to_vec(),
                acc[2 * d..].to_vec(),
            ]
        }
    }

    #[cfg(test)]
    mod tests {
        use super::*;
        use crate::bits::random_bits;

        #[test]
        fn cc_permutation_is_a_permutation_of_columns() {
            let mut seen = [false; 32];
            for &c in &COL_PERM_CC {
                assert!(!seen[c]);
                seen[c] = true;
            }
        }

        #[test]
        fn full_readout_covers_every_bit_once() {
            let d = 66; // 22-bit DCI × 3
            let rm = ConvRateMatcher::new(d);
            let streams = [random_bits(d, 1), random_bits(d, 2), random_bits(d, 3)];
            let out = rm.rate_match(&streams, 3 * d);
            let mut ones_in = 0;
            for s in &streams {
                ones_in += s.iter().filter(|&&b| b == 1).count();
            }
            assert_eq!(out.iter().filter(|&&b| b == 1).count(), ones_in);
        }

        #[test]
        fn repetition_combines() {
            let d = 66;
            let rm = ConvRateMatcher::new(d);
            let streams = [random_bits(d, 4), random_bits(d, 5), random_bits(d, 6)];
            let tx = rm.rate_match(&streams, 6 * d); // 2× repetition
            let llrs: Vec<Llr> = tx.iter().map(|&b| if b == 0 { 40 } else { -40 }).collect();
            let rx = rm.de_rate_match(&llrs);
            for (s, got) in streams.iter().zip(&rx) {
                for (i, (&b, &l)) in s.iter().zip(got).enumerate() {
                    assert_eq!(l.abs(), 80, "position {i} combined twice");
                    assert_eq!(u8::from(l < 0), b);
                }
            }
        }

        #[test]
        fn puncturing_leaves_zero_llrs() {
            let d = 66;
            let rm = ConvRateMatcher::new(d);
            let streams = [random_bits(d, 7), random_bits(d, 8), random_bits(d, 9)];
            let e = 100; // < 198
            let tx = rm.rate_match(&streams, e);
            let llrs: Vec<Llr> = tx.iter().map(|&b| if b == 0 { 40 } else { -40 }).collect();
            let rx = rm.de_rate_match(&llrs);
            let filled: usize = rx
                .iter()
                .flat_map(|s| s.iter())
                .filter(|&&l| l != 0)
                .count();
            assert_eq!(filled, e);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::random_bits;

    fn dstreams(d: usize, seed: u64) -> [Vec<u8>; 3] {
        [
            random_bits(d, seed),
            random_bits(d, seed + 1),
            random_bits(d, seed + 2),
        ]
    }

    #[test]
    fn transpose_is_an_involution_and_matches_reference() {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut rnd = || {
            x ^= x >> 12;
            x ^= x << 25;
            x ^= x >> 27;
            x.wrapping_mul(0x2545_F491_4F6C_DD1D)
        };
        for _ in 0..16 {
            let a: [u64; 64] = core::array::from_fn(|_| rnd());
            // Element-wise reference: out[c] bit r = in[r] bit c.
            let reference: [u64; 64] = core::array::from_fn(|c| {
                (0..64).fold(0u64, |acc, r| acc | (((a[r] >> c) & 1) << r))
            });
            let mut scalar = a;
            transpose64(&mut scalar);
            assert_eq!(scalar, reference);
            let mut dispatched = a;
            transpose64_dispatch(&mut dispatched);
            assert_eq!(
                dispatched, reference,
                "dispatched transpose diverged from the bit-level reference"
            );
            transpose64_dispatch(&mut dispatched);
            assert_eq!(dispatched, a, "transpose must be an involution");
        }
    }

    #[test]
    fn subblock_positions_are_a_permutation() {
        for d in [44usize, 108, 6148] {
            for stream2 in [false, true] {
                let pos = subblock_positions(d, stream2);
                let kp = d.div_ceil(32) * 32;
                assert_eq!(pos.len(), kp);
                let nulls = pos.iter().filter(|&&p| p == usize::MAX).count();
                assert_eq!(nulls, kp - d);
                let mut seen = vec![false; d];
                for &p in pos.iter().filter(|&&p| p != usize::MAX) {
                    assert!(!seen[p], "duplicate position {p}");
                    seen[p] = true;
                }
                assert!(
                    seen.iter().all(|&s| s),
                    "d={d} stream2={stream2} missing positions"
                );
            }
        }
    }

    #[test]
    fn full_buffer_readout_covers_every_bit() {
        let d = 44;
        let rm = RateMatcher::new(d);
        let streams = dstreams(d, 5);
        // Read exactly the number of real (non-null) bits from rv=0:
        let out = rm.rate_match(&streams, 3 * d, 0);
        assert_eq!(out.len(), 3 * d);
        // All coded bits appear (as a multiset) since e = #real bits
        // and the buffer wraps exactly once across nulls.
        let mut count_in = [0usize; 2];
        for s in &streams {
            for &b in s {
                count_in[b as usize] += 1;
            }
        }
        let mut count_out = [0usize; 2];
        for &b in &out {
            count_out[b as usize] += 1;
        }
        assert_eq!(count_in, count_out);
    }

    #[test]
    fn de_rate_match_inverts_puncturing() {
        // e < total: punctured positions come back as 0-LLRs; surviving
        // positions carry the right sign.
        let d = 108;
        let rm = RateMatcher::new(d);
        let streams = dstreams(d, 9);
        let e = 200; // < 324
        let tx = rm.rate_match(&streams, e, 0);
        let llrs: Vec<Llr> = tx.iter().map(|&b| if b == 0 { 80 } else { -80 }).collect();
        let mut rx = [Vec::new(), Vec::new(), Vec::new()];
        rm.try_de_rate_match_into(&llrs, 0, &mut rx).unwrap();
        let flat_in: Vec<u8> = streams.iter().flat_map(|s| s.iter().copied()).collect();
        let flat_out: Vec<Llr> = rx.iter().flat_map(|s| s.iter().copied()).collect();
        let mut seen_nonzero = 0;
        for (i, &l) in flat_out.iter().enumerate() {
            if l != 0 {
                seen_nonzero += 1;
                assert_eq!(u8::from(l < 0), flat_in[i], "sign mismatch at {i}");
            }
        }
        assert_eq!(seen_nonzero, e, "exactly e positions must be filled");
    }

    #[test]
    fn repetition_combines_llrs() {
        // e > total real bits: wrapped positions accumulate.
        let d = 44;
        let rm = RateMatcher::new(d);
        let streams = dstreams(d, 3);
        let e = 3 * d * 2; // every bit transmitted exactly twice
        let tx = rm.rate_match(&streams, e, 0);
        let llrs: Vec<Llr> = tx.iter().map(|&b| if b == 0 { 50 } else { -50 }).collect();
        let mut rx = [Vec::new(), Vec::new(), Vec::new()];
        rm.try_de_rate_match_into(&llrs, 0, &mut rx).unwrap();
        for s in &rx {
            for &l in s {
                assert_eq!(l.abs(), 100, "each position combined twice: {l}");
            }
        }
    }

    /// Interleaved output must be the per-stream oracle re-indexed,
    /// tails readable in place.
    fn assert_interleaved_matches_oracle(rm: &RateMatcher, llrs: &[Llr], rv: usize, what: &str) {
        use crate::llr::TailLlrs;
        let d = rm.d;
        let mut per_stream = [Vec::new(), Vec::new(), Vec::new()];
        rm.try_de_rate_match_into(llrs, rv, &mut per_stream)
            .unwrap();
        // a dirty, wrongly sized buffer: every output must be written
        let mut inter = vec![0x5A5A; 3 * d + 5];
        rm.try_de_rate_match_interleaved_into(llrs, rv, &mut inter)
            .unwrap();
        assert_eq!(inter.len(), 3 * d);
        for j in 0..d {
            for s in 0..3 {
                assert_eq!(
                    inter[3 * j + s],
                    per_stream[s][j],
                    "d={d} rv={rv} {what} stream {s} pos {j}"
                );
            }
        }
        let k = d - 4;
        assert_eq!(
            TailLlrs::from_interleaved(&inter, k),
            TailLlrs::from_dstreams(&per_stream, k),
            "d={d} rv={rv} {what} tails"
        );
    }

    #[test]
    fn of_is_new_once_per_legal_k() {
        for r in &crate::interleaver::QPP_TABLE {
            let (k, d) = (r.k as usize, r.k as usize + 4);
            let (rm, fresh) = (RateMatcher::of(k), RateMatcher::new(d));
            let want = (d, &fresh.wmap, fresh.k0_real);
            assert_eq!((rm.d, &rm.wmap, rm.k0_real), want, "K={k}");
            assert!(std::ptr::eq(rm, RateMatcher::of(k)), "K={k}");
            let (packed, fresh) = (PackedRateMatcher::of(k), PackedRateMatcher::new(d));
            assert_eq!((packed.d, packed.k0_real), (d, fresh.k0_real), "K={k}");
            assert!(std::ptr::eq(packed, PackedRateMatcher::of(k)), "K={k}");
        }
    }

    #[test]
    fn interleaved_de_rate_match_matches_per_stream_variant() {
        // The fused-ingest input layout must be a pure re-indexing of
        // the per-stream de-rate-match: identical chase combining,
        // identical punctures. Every turbo block size, plus d ≡ 0 mod
        // 32 (no <NULL>s: the wrapped d⁽²⁾[0] is real) and one-row d.
        let ds = crate::interleaver::QPP_TABLE
            .iter()
            .map(|row| row.k as usize + 4)
            .chain([20, 32, 64, 96]);
        for d in ds {
            let rm = RateMatcher::new(d);
            let k = d - 4;
            let streams = dstreams(d, d as u64 + 13);
            for rv in 0..4 {
                for e in [100usize, 2 * k, 3 * d, 6 * d, 6 * d + 7] {
                    let tx = rm.rate_match(&streams, e, rv);
                    let llrs: Vec<Llr> =
                        tx.iter().map(|&b| if b == 0 { 60 } else { -60 }).collect();
                    assert_interleaved_matches_oracle(&rm, &llrs, rv, &format!("e={e}"));
                }
                // Saturation: every position combined two or three
                // times from rail values — fails if un-circulate ever
                // adds in a different order than the oracle.
                let rails = [32767, -32767, i16::MIN, 32767, 1, i16::MIN, -1];
                let llrs: Vec<Llr> = (0..6 * d + 7)
                    .map(|i| rails[(i * i + i / 5) % rails.len()])
                    .collect();
                assert_interleaved_matches_oracle(&rm, &llrs, rv, "saturating");
            }
        }
    }

    #[test]
    fn interleaved_de_rate_match_rejects_bad_rv() {
        let rm = RateMatcher::new(44);
        let mut out = Vec::new();
        assert_eq!(
            rm.try_de_rate_match_interleaved_into(&[0; 16], 4, &mut out),
            Err(RateMatchError::InvalidRv { rv: 4 })
        );
        // … and no input at all is all punctures, not an error
        for rv in 0..4 {
            out.fill(7);
            rm.try_de_rate_match_interleaved_into(&[], rv, &mut out)
                .unwrap();
            assert_eq!(out, vec![0; 3 * 44]);
        }
    }

    #[test]
    #[should_panic(expected = "turbo stream lengths only")]
    fn matcher_rejects_lengths_beyond_its_scratch() {
        RateMatcher::new(MAX_D + 1);
    }

    #[test]
    fn redundancy_versions_start_at_different_offsets() {
        let rm = RateMatcher::new(108);
        let k0s: Vec<usize> = (0..4).map(|rv| rm.k0(rv)).collect();
        for w in k0s.windows(2) {
            assert!(w[1] > w[0]);
        }
        assert!(k0s[3] < rm.ncb(), "k0 must stay within the buffer");
    }

    #[test]
    fn try_api_rejects_bad_rv_and_stream_lengths() {
        let d = 44;
        let rm = RateMatcher::new(d);
        assert_eq!(rm.try_k0(4), Err(RateMatchError::InvalidRv { rv: 4 }));
        assert_eq!(
            rm.try_k0(usize::MAX),
            Err(RateMatchError::InvalidRv { rv: usize::MAX })
        );
        let streams = dstreams(d, 2);
        assert!(rm.try_rate_match(&streams, 100, 7).is_err());
        let short = [vec![0u8; d - 1], vec![0u8; d], vec![0u8; d]];
        assert!(matches!(
            rm.try_rate_match(&short, 100, 0),
            Err(RateMatchError::WrongStreamLength { got, .. }) if got == d - 1
        ));
        let mut out = [Vec::new(), Vec::new(), Vec::new()];
        assert!(rm.try_de_rate_match_into(&[0; 16], 9, &mut out).is_err());
        // Valid inputs still work through the try_ path.
        let tx = rm.try_rate_match(&streams, 100, 0).unwrap();
        assert_eq!(tx, rm.rate_match(&streams, 100, 0));
    }

    #[test]
    fn different_rv_different_output() {
        let d = 108;
        let rm = RateMatcher::new(d);
        let streams = dstreams(d, 1);
        let a = rm.rate_match(&streams, 150, 0);
        let b = rm.rate_match(&streams, 150, 2);
        assert_ne!(a, b);
    }

    #[test]
    fn packed_matcher_matches_scalar_readout() {
        use crate::bits::packed_lsb_words;
        // puncturing, exact coverage, repetition with multiple wraps —
        // at sub-word, word-boundary and multi-word stream lengths, and
        // at one-row lengths with padding (d < 32 used to underflow a
        // row count: a panic in debug, an endless push in release).
        // What a stream's last word holds past bit d is not the
        // matcher's to read.
        for d in [4usize, 20, 31, 44, 64, 108, 2052, 6148] {
            let streams = dstreams(d, d as u64);
            let words = streams.clone().map(|s| {
                let mut w = packed_lsb_words(&s);
                if d % 64 != 0 {
                    *w.last_mut().unwrap() |= !0 << (d % 64);
                }
                w
            });
            let scalar = RateMatcher::new(d);
            let packed = PackedRateMatcher::new(d);
            assert_eq!(packed.n_real(), 3 * d);
            for rv in 0..4 {
                for e in [1usize, 63, 64, 65, d, 3 * d, 3 * d + 17, 7 * d] {
                    let want = scalar.rate_match(&streams, e, rv);
                    let got = packed.rate_match_packed([&words[0], &words[1], &words[2]], e, rv);
                    assert_eq!(got, want, "d={d} e={e} rv={rv}");
                }
            }
        }
    }

    #[test]
    fn packed_matcher_rejects_bad_rv_and_stream_lengths() {
        use crate::bits::packed_lsb_words;
        let d = 44;
        let packed = PackedRateMatcher::new(d);
        let words = dstreams(d, 2).map(|s| packed_lsb_words(&s));
        let short = vec![0u64; packed.stream_words() - 1];
        let mut w = Vec::new();
        assert!(matches!(
            packed.pack_circular_into([&short, &words[1], &words[2]], &mut w),
            Err(RateMatchError::WrongStreamLength { .. })
        ));
        packed
            .pack_circular_into([&words[0], &words[1], &words[2]], &mut w)
            .unwrap();
        let mut out = Vec::new();
        assert_eq!(
            packed.try_rate_match_packed_into(&w, 100, 4, &mut out),
            Err(RateMatchError::InvalidRv { rv: 4 })
        );
        assert!(matches!(
            packed.try_rate_match_packed_into(&w[..1], 100, 0, &mut out),
            Err(RateMatchError::WrongStreamLength { .. })
        ));
    }

    #[test]
    fn packed_matcher_from_packed_encoder_streams() {
        // end-to-end transmit fast path: packed encoder d-streams feed
        // the packed matcher, output equals the all-scalar chain
        use crate::turbo::{EncodeScratch, PackedTurboEncoder, TurboEncoder};
        let k = 1504;
        let bits = crate::bits::random_bits(k, 77);
        let scalar_d = TurboEncoder::new(k).encode(&bits).to_dstreams();
        let enc = PackedTurboEncoder::new(k);
        let mut scratch = EncodeScratch::new();
        enc.encode_dstreams_into(&bits, &mut scratch);
        let scalar_rm = RateMatcher::new(k + 4);
        let packed_rm = PackedRateMatcher::new(k + 4);
        for (e, rv) in [(3008, 0), (1800, 2), (9100, 3)] {
            assert_eq!(
                packed_rm.rate_match_packed(scratch.dstream_words(), e, rv),
                scalar_rm.rate_match(&scalar_d, e, rv),
                "e={e} rv={rv}"
            );
        }
    }
}
