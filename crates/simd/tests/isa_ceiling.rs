//! The ISA-ceiling test hook lives in its own integration binary so
//! masking host capabilities cannot race the crate's unit tests
//! (cargo gives each integration test binary its own process).

use std::panic::catch_unwind;
use vran_simd::host::{self, tiers, with_isa_ceiling, HostIsa};

#[test]
fn ceiling_masks_and_restores_host_capabilities() {
    // Unrestricted baseline, holding the lock the other test takes.
    with_isa_ceiling(None, || {
        assert!(host::isa_ceiling().is_none());
        let native_best = host::best();

        // Clamp to scalar: every vector level must vanish.
        with_isa_ceiling(Some(HostIsa::Scalar), || {
            assert_eq!(host::isa_ceiling(), Some(HostIsa::Scalar));
            assert_eq!(tiers::<HostIsa>().collect::<Vec<_>>(), [HostIsa::Scalar]);
        });

        // An intermediate ceiling admits levels up to and including it
        // (subject to what the CPU really has).
        with_isa_ceiling(Some(HostIsa::Ssse3), || {
            assert!(host::best() <= HostIsa::Ssse3)
        });

        // Leaving the scope restores full detection.
        assert!(host::isa_ceiling().is_none());
        assert_eq!(host::best(), native_best);
    });
}

#[test]
fn a_panic_under_the_ceiling_restores_it() {
    // Outermost: the panic poisons the lock; the next caller takes it.
    let caught = catch_unwind(|| with_isa_ceiling(Some(HostIsa::Scalar), || panic!("capped")));
    assert!(caught.is_err());
    with_isa_ceiling(Some(HostIsa::Avx2), || {
        // Nested: the panic hands the enclosing ceiling back.
        let caught = catch_unwind(|| with_isa_ceiling(Some(HostIsa::Scalar), || panic!("nested")));
        assert!(caught.is_err());
        assert_eq!(host::isa_ceiling(), Some(HostIsa::Avx2));
    });
}
