//! The LLR descrambler as a `vran-simd` VM kernel — the traced twin of
//! [`vran_phy::scrambler`]'s native descrambling tiers.

use vran_phy::scrambler::GoldSequence;

/// SIMD LLR descrambler over the `vran-simd` VM — the vectorized form
/// OAI uses (sign-flip by mask: `(x ⊕ m) − m` with `m ∈ {0, −1}` per
/// lane, where `m` comes from the precomputed Gold sequence). Eight
/// (or 16/32) LLRs per iteration on the vector ALU ports; this is one
/// of the real traced kernels behind the Figures 3/5 "Scrambling" bar.
///
/// Matches [`vran_phy::scrambler::descramble_llrs`] except on
/// `i16::MIN` inputs, where the branchless form wraps to `i16::MIN` (as
/// the real `pxor`/`psubw` code does) while the scalar reference
/// saturates — demappers never emit `i16::MIN`, and the tests pin both
/// behaviours. The *native* tiers
/// ([`vran_phy::scrambler::descramble_llrs_with`]) instead use a
/// saturating negate select, so they have no such edge.
pub fn descramble_llrs_simd(
    vm: &mut vran_simd::Vm,
    llrs: vran_simd::MemRef,
    c_init: u32,
    width: vran_simd::RegWidth,
) {
    let masks: Vec<i16> = GoldSequence::new(c_init)
        .take(llrs.len)
        .iter()
        .map(|&b| -i16::from(b))
        .collect();
    let mask_region = vm.mem_mut().alloc_from(&masks);
    let mut off = 0;
    for &w in &[width, vran_simd::RegWidth::Sse128] {
        let l = w.lanes();
        let one = vm.splat(w, 1);
        while off + l <= llrs.len {
            let x = vm.load(w, llrs.slice(off, l));
            let m = vm.load(w, mask_region.slice(off, l));
            // sign-flip by mask: (x ⊕ m) − m; with m ∈ {0, −1} the
            // subtraction is an add of (m & 1).
            let flipped = vm.xor(x, m);
            let neg = vm.and(m, one);
            let out = vm.add_wrap(flipped, neg);
            vm.store(out, llrs.slice(off, l));
            off += l;
        }
    }
    // scalar tail
    for (i, &m) in masks.iter().enumerate().skip(off) {
        vm.scalar_map16(llrs.base + i, llrs.base + i, move |v| {
            (v ^ m).wrapping_sub(m)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vran_phy::scrambler::descramble_llrs;

    #[test]
    fn simd_descrambler_matches_scalar() {
        use vran_simd::{Mem, RegWidth, Vm};
        let n = 203; // forces a scalar tail at every width
        let orig: Vec<i16> = (0..n)
            .map(|i| ((i * 37 % 501) as i16 - 250).clamp(-2047, 2047))
            .collect();
        let c_init = 0x3_1337;
        let mut expect = orig.clone();
        descramble_llrs(&mut expect, c_init);
        for w in [RegWidth::Sse128, RegWidth::Avx256, RegWidth::Avx512] {
            let mut mem = Mem::new();
            let region = mem.alloc_from(&orig);
            let mut vm = Vm::native(mem);
            descramble_llrs_simd(&mut vm, region, c_init, w);
            assert_eq!(vm.mem().read(region), &expect[..], "{w}");
        }
    }

    #[test]
    fn simd_descrambler_trace_is_vector_alu_dominated() {
        use vran_simd::{Mem, OpClass, RegWidth, Vm};
        let orig: Vec<i16> = vec![100; 4096];
        let mut mem = Mem::new();
        let region = mem.alloc_from(&orig);
        let mut vm = Vm::tracing(mem);
        descramble_llrs_simd(&mut vm, region, 99, RegWidth::Sse128);
        let h = vm.trace().class_histogram();
        assert!(h.vec_alu > 0);
        // the kernel is streaming: loads+stores ≈ vec_alu (3 ALU ops
        // per 2 loads + 1 store), not movement-bound like the baseline
        // arrangement
        let t = vm.trace();
        assert!(t.ops.iter().any(|o| o.kind.class() == OpClass::VecAlu));
        assert_eq!(t.store_bytes(), 4096 * 2);
    }

    #[test]
    fn simd_descrambler_wrapping_edge_documented() {
        // The branchless form wraps i16::MIN (like real pxor/psubw);
        // the scalar reference saturates. Demappers never emit MIN.
        use vran_simd::{Mem, RegWidth, Vm};
        let orig = vec![i16::MIN; 8];
        let mut mem = Mem::new();
        let region = mem.alloc_from(&orig);
        let mut vm = Vm::native(mem);
        descramble_llrs_simd(&mut vm, region, 1, RegWidth::Sse128);
        let mut scalar = orig.clone();
        descramble_llrs(&mut scalar, 1);
        // wherever the Gold bit was 1: SIMD gives MIN (wrap), scalar MAX
        let simd = vm.mem().read(region);
        for (s, v) in scalar.iter().zip(simd) {
            if *s == i16::MAX {
                assert_eq!(*v, i16::MIN);
            } else {
                assert_eq!(*v, *s);
            }
        }
    }
}
