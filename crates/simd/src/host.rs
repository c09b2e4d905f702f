//! Runtime host-CPU SIMD capability detection shared by every crate
//! that carries real `std::arch` kernels.
//!
//! The VM ([`crate::vm::Vm`]) models ISA widths abstractly; the native
//! kernels in `vran-arrange` and `vran-phy` instead dispatch on what
//! the *host* actually supports. This module centralizes that
//! detection so the feature-probe logic (and its always-true scalar
//! fallback) is written once: callers map [`HostIsa`] levels onto
//! their own kernel variants.

/// An x86 SIMD capability level the native kernels dispatch on,
/// ordered from least to most capable. On non-x86 targets only
/// [`HostIsa::Scalar`] is ever reported.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum HostIsa {
    /// Portable scalar code — always available, the dispatch floor.
    Scalar,
    /// SSE2 baseline x86-64 vectors (128-bit, no byte shuffle).
    Sse2,
    /// SSSE3 adds `pshufb` (in-register byte permute).
    Ssse3,
    /// AVX2 256-bit integer vectors (two 128-bit lanes).
    Avx2,
    /// AVX-512BW 512-bit vectors with full 16-bit permutes.
    Avx512bw,
}

impl HostIsa {
    /// Stable lowercase label for bench metrics and logs.
    pub fn name(self) -> &'static str {
        match self {
            HostIsa::Scalar => "scalar",
            HostIsa::Sse2 => "sse2",
            HostIsa::Ssse3 => "ssse3",
            HostIsa::Avx2 => "avx2",
            HostIsa::Avx512bw => "avx512bw",
        }
    }

    /// All levels in ascending capability order.
    pub fn all() -> [HostIsa; 5] {
        [
            HostIsa::Scalar,
            HostIsa::Sse2,
            HostIsa::Ssse3,
            HostIsa::Avx2,
            HostIsa::Avx512bw,
        ]
    }
}

use std::sync::atomic::{AtomicU8, Ordering};

/// Process-wide ISA ceiling: `u8::MAX` means "no ceiling", any other
/// value is the maximum [`HostIsa`] (by declaration order) that
/// [`has`] may report as available. Exists so robustness tests can
/// simulate a SIMD-less host on real hardware and exercise scalar
/// fallback paths end to end.
static ISA_CEILING: AtomicU8 = AtomicU8::new(u8::MAX);

fn isa_rank(isa: HostIsa) -> u8 {
    match isa {
        HostIsa::Scalar => 0,
        HostIsa::Sse2 => 1,
        HostIsa::Ssse3 => 2,
        HostIsa::Avx2 => 3,
        HostIsa::Avx512bw => 4,
    }
}

/// Cap every subsequent [`has`] answer at `ceiling` (`None` removes
/// the cap). `Scalar` always stays available. Affects the whole
/// process: dispatchers in `vran-phy` and `vran-arrange` will refuse
/// ISA levels above the ceiling exactly as if the CPU lacked them.
///
/// Intended for fault-injection and fallback tests; production code
/// should never call this. Tests that use it must not run concurrently
/// with tests that assume full host capability (use a dedicated
/// integration-test binary, which cargo runs in its own process).
pub fn set_isa_ceiling(ceiling: Option<HostIsa>) {
    let v = ceiling.map_or(u8::MAX, isa_rank);
    ISA_CEILING.store(v, Ordering::SeqCst);
}

/// The currently configured ceiling, if any.
pub fn isa_ceiling() -> Option<HostIsa> {
    let v = ISA_CEILING.load(Ordering::SeqCst);
    HostIsa::all().into_iter().find(|&i| isa_rank(i) == v)
}

/// Whether the running host supports `isa` (and the test ceiling, if
/// one is set, admits it).
pub fn has(isa: HostIsa) -> bool {
    if isa_rank(isa) > ISA_CEILING.load(Ordering::Relaxed) {
        return false;
    }
    detect(isa)
}

fn detect(isa: HostIsa) -> bool {
    match isa {
        HostIsa::Scalar => true,
        #[cfg(target_arch = "x86_64")]
        HostIsa::Sse2 => std::arch::is_x86_feature_detected!("sse2"),
        #[cfg(target_arch = "x86_64")]
        HostIsa::Ssse3 => std::arch::is_x86_feature_detected!("ssse3"),
        #[cfg(target_arch = "x86_64")]
        HostIsa::Avx2 => std::arch::is_x86_feature_detected!("avx2"),
        #[cfg(target_arch = "x86_64")]
        HostIsa::Avx512bw => {
            std::arch::is_x86_feature_detected!("avx512bw")
                && std::arch::is_x86_feature_detected!("avx512f")
        }
        #[cfg(not(target_arch = "x86_64"))]
        _ => false,
    }
}

/// The levels usable on this host, ascending; `Scalar` is always
/// first.
pub fn available() -> Vec<HostIsa> {
    HostIsa::all().into_iter().filter(|&i| has(i)).collect()
}

/// The most capable level the host supports (at worst `Scalar`).
pub fn best() -> HostIsa {
    HostIsa::all()
        .into_iter()
        .rev()
        .find(|&i| has(i))
        .expect("scalar is always available")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_available_and_first() {
        assert!(has(HostIsa::Scalar));
        assert_eq!(available()[0], HostIsa::Scalar);
    }

    #[test]
    fn available_is_ascending_and_distinct() {
        let avail = available();
        assert!(avail.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn best_is_the_last_available_level() {
        assert_eq!(best(), *available().last().unwrap());
        assert!(has(best()));
    }

    #[test]
    fn feature_implication_chain_holds() {
        // On real hardware SSSE3 implies SSE2 and AVX2 implies SSSE3;
        // the dispatchers rely on picking the max available level.
        if has(HostIsa::Ssse3) {
            assert!(has(HostIsa::Sse2));
        }
        if has(HostIsa::Avx2) {
            assert!(has(HostIsa::Ssse3));
        }
    }

    #[test]
    fn names_are_distinct() {
        let names: std::collections::HashSet<_> = HostIsa::all().iter().map(|i| i.name()).collect();
        assert_eq!(names.len(), HostIsa::all().len());
    }
}
