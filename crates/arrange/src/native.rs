//! Real `std::arch` implementations of the arrangement process, the
//! original mechanism against APCM, for wall-clock benchmarking on the
//! host CPU.
//!
//! The `vran-simd` VM kernels in `apcm::arrange` are the instruments
//! for the paper's micro-architectural figures; these native rungs
//! exist so the benchmark harness can also demonstrate the effect on
//! real hardware (`vran-bench/benches/native_arrange.rs`). Selection is by runtime
//! feature detection with a scalar fallback, so the workspace builds
//! and tests on any target.
//!
//! The original mechanism is implemented here: `pextrw` per element,
//! at 128 bits and through the §5.2 extract ladder at 512 bits. The
//! APCM rungs and the scalar rung are the receiver's own kernels:
//! [`crate::fused_ingest_into`]'s `vpand` mask / `vpor` merge / one
//! restore permute per output register, writing into the three
//! streams of a [`SoftStreams`]. So the A/B times the APCM kernel the
//! paper describes and the uplink runs, one kernel per width.
//!
//! A note on AVX2: x86 gained a full 16-bit cross-lane permute
//! (`vpermw`) only with AVX-512BW, so the restore step has no clean
//! 256-bit form; the rungs are 128 bits (SSSE3 `pshufb` restore) and
//! 512 bits (AVX-512BW `vpermw` restore), and AVX2-only hosts take
//! the SSSE3 one.

use crate::FusedImpl;
use vran_phy::llr::SoftStreams;
use vran_simd::host::{best_tier, HostIsa, Tier};

/// Available native kernel implementations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NativeImpl {
    /// Portable scalar loop ([`FusedImpl::Scalar`]; always available).
    Scalar,
    /// Original mechanism, SSE2 `pextrw` per element.
    BaselineSse2,
    /// APCM at 128 bits: the fused SSSE3 mask/merge kernel
    /// ([`FusedImpl::MaskMergeSsse3`]).
    ApcmSsse3,
    /// Original mechanism at 512 bits: `vextracti32x8` / `vextracti128`
    /// / `pextrw` ladder.
    BaselineAvx512,
    /// APCM at 512 bits: the fused AVX-512BW mask/merge kernel
    /// ([`FusedImpl::MaskMergeAvx512`]).
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
    let fused = match imp {
        // SAFETY: the host has the tier, checked above.
        #[cfg(target_arch = "x86_64")]
        NativeImpl::BaselineSse2 => return unsafe { baseline_sse2(input, k, out) },
        // SAFETY: as for SSE2.
        #[cfg(target_arch = "x86_64")]
        NativeImpl::BaselineAvx512 => return unsafe { baseline_avx512(input, k, out) },
        NativeImpl::ApcmSsse3 => FusedImpl::MaskMergeSsse3,
        NativeImpl::ApcmAvx512 => FusedImpl::MaskMergeAvx512,
        _ => FusedImpl::Scalar,
    };
    crate::fused_ingest_into(fused, input, k, &mut out.sys, &mut out.p1, &mut out.p2);
}

/// Scalar tail shared by the original-mechanism kernels.
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
    use std::arch::x86_64::*;

    #[inline]
    unsafe fn extract16(r: __m128i, lane: usize) -> i16 {
        // SAFETY: SSE2 is part of the x86_64 baseline.
        (unsafe {
            match lane {
                0 => _mm_extract_epi16(r, 0),
                1 => _mm_extract_epi16(r, 1),
                2 => _mm_extract_epi16(r, 2),
                3 => _mm_extract_epi16(r, 3),
                4 => _mm_extract_epi16(r, 4),
                5 => _mm_extract_epi16(r, 5),
                6 => _mm_extract_epi16(r, 6),
                _ => _mm_extract_epi16(r, 7),
            }
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
                // SAFETY: group `g < k / 8` spans `gbase..gbase + 24`,
                // within the `3k` elements of `input`.
                let src = unsafe { input.as_ptr().add(gbase + j * 8) };
                // SAFETY: SSE2 is enabled; `src` starts 8 readable elements.
                let r = unsafe { _mm_loadu_si128(src as *const __m128i) };
                for lane in 0..8 {
                    let p = gbase + j * 8 + lane;
                    // SAFETY: SSE2 is part of the x86_64 baseline.
                    let v = unsafe { extract16(r, lane) };
                    // SAFETY: `p < 3k`, so `p / 3` is within the stream's
                    // `k` elements, and `out` is borrowed exclusively.
                    unsafe { *streams[p % 3].add(p / 3) = v };
                }
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
                // SAFETY: group `g < k / 32` spans `gbase..gbase + 96`,
                // within the `3k` elements of `input`.
                let src = unsafe { input.as_ptr().add(gbase + j * 32) };
                // Faithful §5.2 ladder: take the low 256, extract both
                // xmm halves; reload; take the high 256; repeat.
                // SAFETY: AVX-512F is enabled; `src` starts 32 readable
                // elements.
                let z = unsafe { _mm512_loadu_si512(src as *const _) };
                let lo256 = _mm512_extracti64x4_epi64(z, 0);
                // SAFETY: as for `z`.
                let z2 = unsafe { _mm512_loadu_si512(src as *const _) }; // reload
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
                            // SAFETY: SSE2 is part of the x86_64 baseline.
                            let v = unsafe { extract16(x, lane) };
                            // SAFETY: `p < 3k`, so `p / 3` is within the
                            // stream's `k` elements, and `out` is borrowed
                            // exclusively.
                            unsafe { *streams[p % 3].add(p / 3) = v };
                        }
                    }
                }
            }
        }
        tail(input, groups * 32, k, out);
    }
}

#[cfg(target_arch = "x86_64")]
use x86::{baseline_avx512, baseline_sse2};

#[cfg(test)]
mod tests {
    use super::*;
    use vran_phy::llr::InterleavedLlrs;
    use vran_simd::host::tiers;

    fn sample(k: usize) -> InterleavedLlrs {
        let data = (0..3 * k)
            .map(|i| ((i as i64 * 40503 + 7) % 5000 - 2500) as i16)
            .collect();
        InterleavedLlrs { k, data }
    }

    #[test]
    fn every_available_impl_matches_scalar() {
        // Blocks shorter than one register take the scalar tail only.
        for k in [0usize, 1, 7, 31, 32, 96, 104, 6144] {
            let input = sample(k);
            let expect = input.deinterleave_scalar();
            for imp in tiers::<NativeImpl>() {
                let got = deinterleave(imp, &input.data, k);
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
        let expect = input.deinterleave_scalar();
        let mut out = SoftStreams::zeros(k);
        for imp in tiers::<NativeImpl>() {
            let ptr = out.sys.as_ptr();
            deinterleave_into(imp, &input.data, k, &mut out);
            assert_eq!(out, expect, "{}", imp.name());
            assert_eq!(out.sys.as_ptr(), ptr, "{} must not reallocate", imp.name());
        }
    }
}
