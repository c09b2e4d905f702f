//! Fixed-point SIMD 16-QAM soft demapper over the `vran-simd` VM — the
//! vectorized max-log demapping OAI runs with SSE intrinsics, here as a
//! real traced kernel (used for the Figures 3/5 "Demodulation" bar).
//!
//! Samples are Q11 fixed point (`1.0 == 2048`), laid out as
//! interleaved `[I₀ Q₀ I₁ Q₁ …]`. Per-axis max-log metrics: inner bits
//! `L = 2y`; outer bits `L = 2·(2·SCALE − |y|)` with
//! `|y| = max(y, −y)` — the classic `pmaxsw`/`psubsw` ladder.
//!
//! Outputs are written as two planes (inner-bit plane, outer-bit
//! plane); interleaving them into per-symbol `[b0 b1 b2 b3]` order is
//! itself a stride-2 data-arrangement step, underscoring the paper's
//! generalization point.

use vran_simd::{MemRef, RegWidth, Vm};

/// Q-format unit: 1.0 == `SCALE`.
pub const SCALE: i16 = 2048;

/// Scalar reference for the 16-QAM planes.
pub fn demap_qam16_scalar(iq: &[i16]) -> (Vec<i16>, Vec<i16>) {
    let inner = iq.iter().map(|&y| y.saturating_add(y)).collect();
    let outer = iq
        .iter()
        .map(|&y| {
            let abs = y.max(y.saturating_neg());
            let d = (2i16).saturating_mul(SCALE).saturating_sub(abs);
            d.saturating_add(d)
        })
        .collect();
    (inner, outer)
}

/// SIMD 16-QAM demapper producing the inner-bit and outer-bit planes.
pub fn demap_qam16_simd(vm: &mut Vm, iq: MemRef, inner: MemRef, outer: MemRef, width: RegWidth) {
    assert!(inner.len == iq.len && outer.len == iq.len);
    let mut off = 0;
    for &w in &[width, RegWidth::Sse128] {
        let l = w.lanes();
        let zero = vm.splat(w, 0);
        let two = vm.splat(w, 2i16.saturating_mul(SCALE));
        while off + l <= iq.len {
            let y = vm.load(w, iq.slice(off, l));
            // inner bits: 2y
            let d = vm.adds(y, y);
            vm.store(d, inner.slice(off, l));
            // outer bits: 2·(2 − |y|)
            let neg = vm.subs(zero, y);
            let abs = vm.max(y, neg);
            let diff = vm.subs(two, abs);
            let o = vm.adds(diff, diff);
            vm.store(o, outer.slice(off, l));
            off += l;
        }
    }
    for i in off..iq.len {
        vm.scalar_map16(iq.base + i, inner.base + i, |y| y.saturating_add(y));
        vm.scalar_map16(iq.base + i, outer.base + i, |y| {
            let abs = y.max(y.saturating_neg());
            let d = (2i16).saturating_mul(SCALE).saturating_sub(abs);
            d.saturating_add(d)
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vran_phy::bits::random_bits;
    use vran_phy::modulation::Modulation;
    use vran_simd::{Mem, OpClass, Vm};

    /// Interleave the two planes into per-symbol `[b0 b1 b2 b3]` LLR
    /// order (scalar helper; on real hardware this is another
    /// arrangement kernel).
    fn assemble_qam16_llrs(inner: &[i16], outer: &[i16]) -> Vec<i16> {
        assert_eq!(inner.len(), outer.len());
        assert_eq!(inner.len() % 2, 0);
        let mut out = Vec::with_capacity(2 * inner.len());
        for s in 0..inner.len() / 2 {
            out.push(inner[2 * s]);
            out.push(inner[2 * s + 1]);
            out.push(outer[2 * s]);
            out.push(outer[2 * s + 1]);
        }
        out
    }

    fn sample_iq(n: usize, seed: u64) -> Vec<i16> {
        let bits = random_bits(n * 14, seed);
        (0..n)
            .map(|i| {
                let mut v = 0i32;
                for b in 0..12 {
                    v = (v << 1) | bits[i * 14 + b] as i32;
                }
                (v - 2048) as i16
            })
            .collect()
    }

    #[test]
    fn qam16_simd_matches_scalar() {
        let iq = sample_iq(210, 3);
        let (ei, eo) = demap_qam16_scalar(&iq);
        let mut mem = Mem::new();
        let r = mem.alloc_from(&iq);
        let inner = mem.alloc(iq.len());
        let outer = mem.alloc(iq.len());
        let mut vm = Vm::native(mem);
        demap_qam16_simd(&mut vm, r, inner, outer, RegWidth::Avx512);
        assert_eq!(vm.mem().read(inner), &ei[..]);
        assert_eq!(vm.mem().read(outer), &eo[..]);
    }

    #[test]
    fn fixed_point_demap_agrees_with_float_demapper_signs() {
        // Hard decisions from the Q11 kernel must match the f32
        // reference demapper on clean constellation points.
        let bits = random_bits(4 * 64, 9);
        let syms = Modulation::Qam16.modulate(&bits);
        let iq: Vec<i16> = syms
            .iter()
            .flat_map(|s| {
                // undo the unit-energy normalization into Q11 integers
                let inv = 10.0f32.sqrt();
                [
                    (s.re * inv * SCALE as f32) as i16,
                    (s.im * inv * SCALE as f32) as i16,
                ]
            })
            .collect();
        let (inner, outer) = demap_qam16_scalar(&iq);
        let llrs = assemble_qam16_llrs(&inner, &outer);
        let rx: Vec<u8> = llrs.iter().map(|&l| u8::from(l < 0)).collect();
        assert_eq!(rx, bits);
    }

    #[test]
    fn demap_trace_is_simd_calculation_dominated() {
        let iq = sample_iq(4096, 5);
        let mut mem = Mem::new();
        let r = mem.alloc_from(&iq);
        let inner = mem.alloc(iq.len());
        let outer = mem.alloc(iq.len());
        let mut vm = Vm::tracing(mem);
        demap_qam16_simd(&mut vm, r, inner, outer, RegWidth::Sse128);
        let h = vm.trace().class_histogram();
        assert!(h.vec_alu > h.load + h.store - h.load.min(h.store), "{h:?}");
        let kinds: std::collections::HashSet<_> =
            vm.trace().ops.iter().map(|o| o.kind.class()).collect();
        assert!(kinds.contains(&OpClass::VecAlu));
    }

    #[test]
    fn assemble_orders_per_symbol() {
        let inner = vec![10, 11, 20, 21];
        let outer = vec![30, 31, 40, 41];
        assert_eq!(
            assemble_qam16_llrs(&inner, &outer),
            vec![10, 11, 30, 31, 20, 21, 40, 41]
        );
    }
}
