//! Runtime host-CPU SIMD capability detection, and the one dispatch
//! ladder every crate with real `std::arch` kernels shares.
//!
//! The VM ([`crate::vm::Vm`]) models ISA widths abstractly; the native
//! kernels in `vran-arrange` and `vran-phy` dispatch on what the *host*
//! supports, decided here once. Each kernel family's tier enum
//! implements [`Tier`] (its ladder and the level each rung needs);
//! [`best_tier`] picks the top rung [`has`] admits, without the heap,
//! and every safe entry point taking a tier asserts [`Tier::usable`]
//! once. [`with_isa_ceiling`] lets a test run as if the CPU stopped lower.

use std::cell::Cell;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

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
}

/// A kernel family's tiers: the variants of one enum, each needing a
/// host level to run.
pub trait Tier: Copy + 'static {
    /// Every tier, ascending, the portable floor (needing
    /// [`HostIsa::Scalar`]) first; [`best_tier`] picks the last usable.
    const LADDER: &'static [Self];

    /// The [`HostIsa`] level this tier's kernel needs.
    fn required_isa(self) -> HostIsa;

    /// Whether the host (under the ceiling) can run this tier.
    fn usable(self) -> bool {
        has(self.required_isa())
    }
}

impl Tier for HostIsa {
    const LADDER: &'static [HostIsa] = &[
        HostIsa::Scalar,
        HostIsa::Sse2,
        HostIsa::Ssse3,
        HostIsa::Avx2,
        HostIsa::Avx512bw,
    ];

    fn required_isa(self) -> HostIsa {
        self
    }
}

/// The tiers of `T` usable on this host, ascending; the floor first.
pub fn tiers<T: Tier>() -> impl DoubleEndedIterator<Item = T> {
    T::LADDER.iter().copied().filter(|t| t.usable())
}

/// The most capable tier of `T` usable on this host.
pub fn best_tier<T: Tier>() -> T {
    tiers().next_back().expect("the floor is usable")
}

/// The most capable level the host supports (at worst `Scalar`).
pub fn best() -> HostIsa {
    best_tier()
}

/// Process-wide ISA ceiling: `u8::MAX` means "no ceiling", any other
/// value is the maximum [`HostIsa`] (by declaration order) that
/// [`has`] may report as available.
static ISA_CEILING: AtomicU8 = AtomicU8::new(u8::MAX);

/// Run `f` with every [`has`] answer capped at `ceiling` (`None`: no
/// cap; `Scalar` stays available), restoring the previous ceiling when
/// `f` returns or panics, so tests reach fallback paths on real
/// hardware. Callers on different threads take turns on one lock (a
/// nested call re-caps without it); the cap is still process-wide, so
/// keep such tests in their own integration-test binary.
pub fn with_isa_ceiling<R>(ceiling: Option<HostIsa>, f: impl FnOnce() -> R) -> R {
    static LOCK: Mutex<()> = Mutex::new(());
    thread_local!(static HELD: Cell<bool> = const { Cell::new(false) });
    struct Restore(u8, Option<MutexGuard<'static, ()>>);
    impl Drop for Restore {
        fn drop(&mut self) {
            ISA_CEILING.store(self.0, Ordering::SeqCst);
            HELD.set(HELD.get() && self.1.is_none());
        }
    }
    // a panic under the lock poisons it only after restoring the ceiling
    let lock = (!HELD.replace(true)).then(|| LOCK.lock().unwrap_or_else(PoisonError::into_inner));
    let cap = ceiling.map_or(u8::MAX, |c| c as u8);
    let _restore = Restore(ISA_CEILING.swap(cap, Ordering::SeqCst), lock);
    f()
}

/// The currently configured ceiling, if any.
pub fn isa_ceiling() -> Option<HostIsa> {
    let v = ISA_CEILING.load(Ordering::SeqCst);
    HostIsa::LADDER.iter().copied().find(|&i| i as u8 == v)
}

/// Whether the running host supports `isa` (and the test ceiling, if
/// one is set, admits it).
pub fn has(isa: HostIsa) -> bool {
    if isa as u8 > ISA_CEILING.load(Ordering::Relaxed) {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// A family whose top rung is never usable, whatever the host — the
    /// shape of a tier with a probe beyond its [`HostIsa`] level.
    #[derive(Debug, Clone, Copy, PartialEq)]
    enum Probe {
        Floor,
        Narrow,
        Wide,
        Unprobed,
    }

    impl Tier for Probe {
        const LADDER: &'static [Probe] =
            &[Probe::Floor, Probe::Narrow, Probe::Wide, Probe::Unprobed];

        fn required_isa(self) -> HostIsa {
            match self {
                Probe::Floor => HostIsa::Scalar,
                Probe::Narrow => HostIsa::Sse2,
                Probe::Wide | Probe::Unprobed => HostIsa::Avx512bw,
            }
        }

        fn usable(self) -> bool {
            self != Probe::Unprobed && has(self.required_isa())
        }
    }

    #[test]
    fn scalar_is_always_available_and_first() {
        assert!(has(HostIsa::Scalar));
        assert_eq!(tiers::<HostIsa>().next(), Some(HostIsa::Scalar));
    }

    #[test]
    fn available_is_ascending_and_distinct() {
        // the ladder is the declaration order the ceiling compares by
        for (i, &level) in HostIsa::LADDER.iter().enumerate() {
            assert_eq!(level as usize, i);
        }
    }

    #[test]
    fn best_is_the_last_available_level() {
        let got: Vec<Probe> = tiers().collect();
        assert_eq!(got[0], Probe::Floor);
        assert_eq!(got.contains(&Probe::Narrow), has(HostIsa::Sse2));
        assert_eq!(got.contains(&Probe::Wide), has(HostIsa::Avx512bw));
        assert!(!got.contains(&Probe::Unprobed));
        assert_eq!(Some(&best_tier::<Probe>()), got.last());
        assert_eq!(Some(best()), tiers::<HostIsa>().last());
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
        let names: std::collections::HashSet<_> =
            HostIsa::LADDER.iter().map(|i| i.name()).collect();
        assert_eq!(names.len(), HostIsa::LADDER.len());
    }
}
