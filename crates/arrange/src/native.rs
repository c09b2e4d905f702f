//! Real `std::arch` implementations of the arrangement kernels for
//! wall-clock benchmarking on the host CPU.
//!
//! The VM kernels in [`crate::kernel`] are the instruments for the
//! paper's micro-architectural figures; these native ports exist so the
//! benchmark harness can also demonstrate the effect on real hardware
//! (`vran-bench/benches/native_arrange.rs`). Selection is by runtime
//! feature detection with a scalar fallback, so the workspace builds
//! and tests on any target.
//!
//! A note on AVX2: x86 gained a full 16-bit cross-lane permute
//! (`vpermw`) only with AVX-512BW. Without it, a 256-bit APCM needs
//! in-lane `pshufb` plus cross-lane fix-ups — OAI's code instead steps
//! down to xmm extracts, which is exactly the §5.2 penalty the paper
//! measures. We therefore provide native APCM at 128 bits (SSSE3
//! `pshufb`) and 512 bits (AVX-512BW `vpermi2w`), the two clean points.

use vran_phy::llr::SoftStreams;
use vran_simd::host::{best_tier, HostIsa, Tier};

/// Available native kernel implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeImpl {
    /// Portable scalar loop (always available; the oracle).
    Scalar,
    /// Original mechanism, SSE2 `pextrw` per element.
    BaselineSse2,
    /// APCM, SSSE3 `pshufb` + `por` (128-bit).
    ApcmSsse3,
    /// Original mechanism at 512 bits: `vextracti32x8` / `vextracti128`
    /// / `pextrw` ladder.
    BaselineAvx512,
    /// APCM at 512 bits: two `vpermi2w` per cluster.
    ApcmAvx512,
}

impl NativeImpl {
    /// Bench label.
    pub fn name(self) -> &'static str {
        match self {
            NativeImpl::Scalar => "scalar",
            NativeImpl::BaselineSse2 => "original-sse2",
            NativeImpl::ApcmSsse3 => "apcm-ssse3",
            NativeImpl::BaselineAvx512 => "original-avx512",
            NativeImpl::ApcmAvx512 => "apcm-avx512",
        }
    }
}

/// Each APCM tier sits above the original mechanism at its width, so the
/// top rung a host has is an APCM one wherever it has SSSE3.
impl Tier for NativeImpl {
    const LADDER: &'static [NativeImpl] = &[
        NativeImpl::Scalar,
        NativeImpl::BaselineSse2,
        NativeImpl::ApcmSsse3,
        NativeImpl::BaselineAvx512,
        NativeImpl::ApcmAvx512,
    ];

    fn required_isa(self) -> HostIsa {
        match self {
            NativeImpl::Scalar => HostIsa::Scalar,
            NativeImpl::BaselineSse2 => HostIsa::Sse2,
            NativeImpl::ApcmSsse3 => HostIsa::Ssse3,
            NativeImpl::BaselineAvx512 | NativeImpl::ApcmAvx512 => HostIsa::Avx512bw,
        }
    }
}

/// The fastest arrangement implementation the host supports: APCM from
/// SSSE3 up (on an SSE2-only host, the original mechanism).
pub fn best_apcm() -> NativeImpl {
    best_tier()
}

/// De-interleave `3k` triple-interleaved LLRs into three arrays using
/// the chosen implementation. Panics if the host lacks the required
/// feature (pick from [`vran_simd::host::tiers`]).
pub fn deinterleave(imp: NativeImpl, input: &[i16], k: usize) -> SoftStreams {
    let mut out = SoftStreams::zeros(k);
    deinterleave_into(imp, input, k, &mut out);
    out
}

/// Allocation-free variant of [`deinterleave`]: writes into `out`,
/// which must already hold `k`-element streams.
pub fn deinterleave_into(imp: NativeImpl, input: &[i16], k: usize, out: &mut SoftStreams) {
    assert_eq!(input.len(), 3 * k);
    assert!(out.sys.len() == k && out.p1.len() == k && out.p2.len() == k);
    assert!(imp.usable(), "host lacks {}", imp.name());
    // SAFETY (all four): the host has the tier, checked above.
    match imp {
        NativeImpl::Scalar => scalar(input, k, out),
        #[cfg(target_arch = "x86_64")]
        NativeImpl::BaselineSse2 => unsafe { baseline_sse2(input, k, out) },
        #[cfg(target_arch = "x86_64")]
        NativeImpl::ApcmSsse3 => unsafe { apcm_ssse3(input, k, out) },
        #[cfg(target_arch = "x86_64")]
        NativeImpl::BaselineAvx512 => unsafe { baseline_avx512(input, k, out) },
        #[cfg(target_arch = "x86_64")]
        NativeImpl::ApcmAvx512 => unsafe { apcm_avx512(input, k, out) },
        #[cfg(not(target_arch = "x86_64"))]
        _ => scalar(input, k, out),
    }
}

fn scalar(input: &[i16], k: usize, out: &mut SoftStreams) {
    for t in 0..k {
        out.sys[t] = input[3 * t];
        out.p1[t] = input[3 * t + 1];
        out.p2[t] = input[3 * t + 2];
    }
}

/// Scalar tail shared by the vector kernels.
fn tail(input: &[i16], from: usize, k: usize, out: &mut SoftStreams) {
    for t in from..k {
        out.sys[t] = input[3 * t];
        out.p1[t] = input[3 * t + 1];
        out.p2[t] = input[3 * t + 2];
    }
}

#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::*;
    use crate::tables;
    use std::arch::x86_64::*;
    use vran_simd::RegWidth;

    #[inline]
    unsafe fn extract16(r: __m128i, lane: usize) -> i16 {
        (match lane {
            0 => _mm_extract_epi16(r, 0),
            1 => _mm_extract_epi16(r, 1),
            2 => _mm_extract_epi16(r, 2),
            3 => _mm_extract_epi16(r, 3),
            4 => _mm_extract_epi16(r, 4),
            5 => _mm_extract_epi16(r, 5),
            6 => _mm_extract_epi16(r, 6),
            _ => _mm_extract_epi16(r, 7),
        }) as i16
    }

    #[target_feature(enable = "sse2")]
    pub unsafe fn baseline_sse2(input: &[i16], k: usize, out: &mut SoftStreams) {
        let groups = k / 8;
        let streams: [*mut i16; 3] = [
            out.sys.as_mut_ptr(),
            out.p1.as_mut_ptr(),
            out.p2.as_mut_ptr(),
        ];
        for g in 0..groups {
            let gbase = g * 24;
            for j in 0..3 {
                let r = _mm_loadu_si128(input.as_ptr().add(gbase + j * 8) as *const __m128i);
                for lane in 0..8 {
                    let p = gbase + j * 8 + lane;
                    *streams[p % 3].add(p / 3) = extract16(r, lane);
                }
            }
        }
        tail(input, groups * 8, k, out);
    }

    /// Byte-level pshufb control from a lane-level shuffle table.
    fn pshufb_control(table: &[Option<u8>]) -> [i8; 16] {
        let mut c = [-1i8; 16]; // 0x80 = zero the byte
        for (i, sel) in table.iter().enumerate() {
            if let Some(s) = sel {
                c[2 * i] = (2 * s) as i8;
                c[2 * i + 1] = (2 * s + 1) as i8;
            }
        }
        c
    }

    #[target_feature(enable = "ssse3")]
    pub unsafe fn apcm_ssse3(input: &[i16], k: usize, out: &mut SoftStreams) {
        let groups = k / 8;
        // control vectors per (cluster, source register)
        let mut ctrl = [[_mm_setzero_si128(); 3]; 3];
        for (c, row) in ctrl.iter_mut().enumerate() {
            for (j, slot) in row.iter_mut().enumerate() {
                let t = tables::natural_shuffle(RegWidth::Sse128, j, c);
                *slot = _mm_loadu_si128(pshufb_control(&t).as_ptr() as *const __m128i);
            }
        }
        let streams: [*mut i16; 3] = [
            out.sys.as_mut_ptr(),
            out.p1.as_mut_ptr(),
            out.p2.as_mut_ptr(),
        ];
        for g in 0..groups {
            let gbase = g * 24;
            let r0 = _mm_loadu_si128(input.as_ptr().add(gbase) as *const __m128i);
            let r1 = _mm_loadu_si128(input.as_ptr().add(gbase + 8) as *const __m128i);
            let r2 = _mm_loadu_si128(input.as_ptr().add(gbase + 16) as *const __m128i);
            for (c, stream) in streams.iter().enumerate() {
                let s0 = _mm_shuffle_epi8(r0, ctrl[c][0]);
                let s1 = _mm_shuffle_epi8(r1, ctrl[c][1]);
                let s2 = _mm_shuffle_epi8(r2, ctrl[c][2]);
                let o = _mm_or_si128(_mm_or_si128(s0, s1), s2);
                _mm_storeu_si128(stream.add(g * 8) as *mut __m128i, o);
            }
        }
        tail(input, groups * 8, k, out);
    }

    #[target_feature(enable = "avx512bw", enable = "avx512f")]
    pub unsafe fn baseline_avx512(input: &[i16], k: usize, out: &mut SoftStreams) {
        let groups = k / 32;
        let streams: [*mut i16; 3] = [
            out.sys.as_mut_ptr(),
            out.p1.as_mut_ptr(),
            out.p2.as_mut_ptr(),
        ];
        for g in 0..groups {
            let gbase = g * 96;
            for j in 0..3 {
                let src = input.as_ptr().add(gbase + j * 32);
                // Faithful §5.2 ladder: take the low 256, extract both
                // xmm halves; reload; take the high 256; repeat.
                let z = _mm512_loadu_si512(src as *const _);
                let lo256 = _mm512_extracti64x4_epi64(z, 0);
                let z2 = _mm512_loadu_si512(src as *const _); // reload
                let hi256 = _mm512_extracti64x4_epi64(z2, 1);
                for (h256, base) in [(lo256, 0usize), (hi256, 16)] {
                    for half in 0..2 {
                        let x = if half == 0 {
                            _mm256_extracti128_si256(h256, 0)
                        } else {
                            _mm256_extracti128_si256(h256, 1)
                        };
                        for lane in 0..8 {
                            let p = gbase + j * 32 + base + half * 8 + lane;
                            *streams[p % 3].add(p / 3) = extract16(x, lane);
                        }
                    }
                }
            }
        }
        tail(input, groups * 32, k, out);
    }

    #[target_feature(enable = "avx512bw", enable = "avx512f")]
    pub unsafe fn apcm_avx512(input: &[i16], k: usize, out: &mut SoftStreams) {
        let groups = k / 32;
        // Stage-1 index: gather cluster elements living in r0|r1
        // (positions 0..64); stage-2 index: keep stage-1 lanes or pull
        // from r2 (positions 64..96 → b-half selectors 32..63).
        let mut idx1 = [[0i16; 32]; 3];
        let mut idx2 = [[0i16; 32]; 3];
        for c in 0..3 {
            for i in 0..32 {
                let p = 3 * i + c;
                if p < 64 {
                    idx1[c][i] = p as i16;
                    idx2[c][i] = i as i16;
                } else {
                    idx1[c][i] = 0;
                    idx2[c][i] = (32 + (p - 64)) as i16;
                }
            }
        }
        let streams: [*mut i16; 3] = [
            out.sys.as_mut_ptr(),
            out.p1.as_mut_ptr(),
            out.p2.as_mut_ptr(),
        ];
        let i1: Vec<__m512i> = (0..3)
            .map(|c| _mm512_loadu_si512(idx1[c].as_ptr() as *const _))
            .collect();
        let i2: Vec<__m512i> = (0..3)
            .map(|c| _mm512_loadu_si512(idx2[c].as_ptr() as *const _))
            .collect();
        for g in 0..groups {
            let gbase = g * 96;
            let r0 = _mm512_loadu_si512(input.as_ptr().add(gbase) as *const _);
            let r1 = _mm512_loadu_si512(input.as_ptr().add(gbase + 32) as *const _);
            let r2 = _mm512_loadu_si512(input.as_ptr().add(gbase + 64) as *const _);
            for (c, stream) in streams.iter().enumerate() {
                let t = _mm512_permutex2var_epi16(r0, i1[c], r1);
                let o = _mm512_permutex2var_epi16(t, i2[c], r2);
                _mm512_storeu_si512(stream.add(g * 32) as *mut _, o);
            }
        }
        tail(input, groups * 32, k, out);
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{apcm_avx512, apcm_ssse3, baseline_avx512, baseline_sse2};

#[cfg(test)]
mod tests {
    use super::*;
    use vran_simd::host::tiers;

    fn sample(k: usize) -> Vec<i16> {
        (0..3 * k)
            .map(|i| ((i as i64 * 40503 + 7) % 5000 - 2500) as i16)
            .collect()
    }

    #[test]
    fn scalar_reference_is_a_deinterleave() {
        let k = 50;
        let input = sample(k);
        let out = deinterleave(NativeImpl::Scalar, &input, k);
        for t in 0..k {
            assert_eq!(out.sys[t], input[3 * t]);
            assert_eq!(out.p1[t], input[3 * t + 1]);
            assert_eq!(out.p2[t], input[3 * t + 2]);
        }
    }

    #[test]
    fn every_available_impl_matches_scalar() {
        for k in [32usize, 96, 104, 6144] {
            let input = sample(k);
            let expect = deinterleave(NativeImpl::Scalar, &input, k);
            for imp in tiers::<NativeImpl>() {
                let got = deinterleave(imp, &input, k);
                assert_eq!(got, expect, "{} K={k}", imp.name());
            }
        }
    }

    #[test]
    fn available_always_contains_scalar() {
        assert_eq!(NativeImpl::LADDER[0].required_isa(), HostIsa::Scalar);
        assert_eq!(tiers::<NativeImpl>().next(), Some(NativeImpl::Scalar));
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> =
            NativeImpl::LADDER.iter().map(|i| i.name()).collect();
        assert_eq!(names.len(), NativeImpl::LADDER.len());
    }

    #[test]
    fn deinterleave_into_reuses_buffers() {
        let k = 96;
        let input = sample(k);
        let expect = deinterleave(NativeImpl::Scalar, &input, k);
        let mut out = SoftStreams::zeros(k);
        for imp in tiers::<NativeImpl>() {
            let ptr = out.sys.as_ptr();
            deinterleave_into(imp, &input, k, &mut out);
            assert_eq!(out, expect, "{}", imp.name());
            assert_eq!(out.sys.as_ptr(), ptr, "{} must not reallocate", imp.name());
        }
    }
}
