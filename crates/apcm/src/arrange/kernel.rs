//! The arrangement kernels over the `vran-simd` VM: the original
//! `pextrw`-per-element process ([`Mechanism::Baseline`], with the §5.2
//! ymm/zmm extract penalties) against APCM's vector-ALU batching
//! ([`Mechanism::Apcm`]), traced into `vran-uarch` for the figures.
//!
//! ```
//! use apcm::arrange::{ApcmVariant, ArrangeKernel, Mechanism};
//! use vran_phy::llr::InterleavedLlrs;
//! use vran_simd::RegWidth;
//!
//! // 16 interleaved [S1 YP1 YP2] triples
//! let input = InterleavedLlrs { k: 16, data: (0..48).collect() };
//!
//! let baseline = ArrangeKernel::new(RegWidth::Sse128, Mechanism::Baseline);
//! let apcm = ArrangeKernel::new(RegWidth::Sse128, Mechanism::Apcm(ApcmVariant::Shuffle));
//!
//! let (a, trace_a) = baseline.arrange(&input, true);
//! let (b, trace_b) = apcm.arrange(&input, true);
//! assert_eq!(a, b); // identical results…
//!
//! // …entirely different instruction mixes (the paper's point)
//! let (ha, hb) = (trace_a.unwrap().class_histogram(), trace_b.unwrap().class_histogram());
//! assert_eq!(ha.vec_alu, 0); // original: pure data movement
//! assert!(hb.vec_alu > hb.store); // APCM: vector-ALU batching
//! ```

use crate::tables;
use vran_phy::llr::{InterleavedLlrs, SoftStreams};
use vran_simd::{Mem, MemRef, RegWidth, Trace, Vm};

/// Which APCM formulation to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ApcmVariant {
    /// Paper-literal Figure 10/11: `vpand` filtering (9), `vpor`
    /// combination (6), lane rotation for alignment (2) — 17 vector-ALU
    /// instructions per group. Output arrays are group-wise permuted by
    /// [`tables::group_permutation`]; the paper realizes the rotation
    /// with the Figure 12 shifted-load mimic, which is port-equivalent
    /// to the single shuffle µop used here (see DESIGN.md).
    MaskRotate,
    /// Natural-order formulation: one lane-shuffle per source register
    /// (9) plus `vpor` combination (6) — 15 vector-ALU instructions per
    /// group, output directly consumable by the decoder.
    Shuffle,
    /// Fused-ingest formulation (the native hot path's
    /// `vran_arrange::fused_ingest_into`): `vpand` filtering (9) and
    /// `vpor` congregation (6) exactly as MaskRotate, then ONE restore
    /// `vpermw` per output register (3) instead of the rotation +
    /// group-wise depermute — 18 vector-ALU instructions per group,
    /// output directly consumable by the decoder. Trades MaskRotate's
    /// deferred permutation for Shuffle's natural order while keeping
    /// two thirds of the lane-crossing traffic off the shuffle unit.
    MaskMerge,
}

/// The arrangement mechanism under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// Original extract-per-element process (paper §5.2), including the
    /// ymm `vextracti128` and zmm `vextracti32x8`+reload penalties.
    Baseline,
    /// Arithmetic Ports Consciousness Mechanism.
    Apcm(ApcmVariant),
}

impl Mechanism {
    /// Short label for figures and bench IDs.
    pub fn name(self) -> &'static str {
        match self {
            Mechanism::Baseline => "original",
            Mechanism::Apcm(ApcmVariant::MaskRotate) => "apcm-maskrotate",
            Mechanism::Apcm(ApcmVariant::Shuffle) => "apcm",
            Mechanism::Apcm(ApcmVariant::MaskMerge) => "apcm-fused",
        }
    }
}

/// Output array regions (each `k` elements) inside the VM memory.
#[derive(Debug, Clone, Copy)]
pub struct OutRegions {
    /// Systematic destination.
    pub sys: MemRef,
    /// First parity destination.
    pub p1: MemRef,
    /// Second parity destination.
    pub p2: MemRef,
}

/// A configured arrangement kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArrangeKernel {
    /// Register width the kernel is compiled for.
    pub width: RegWidth,
    /// Mechanism under test.
    pub mech: Mechanism,
}

impl ArrangeKernel {
    /// New kernel.
    pub fn new(width: RegWidth, mech: Mechanism) -> Self {
        Self { width, mech }
    }

    /// Run the kernel inside `vm`: read `3k` interleaved elements from
    /// `input`, write the three `k`-element arrays in `out`.
    pub fn run(&self, vm: &mut Vm, input: MemRef, out: OutRegions, k: usize) {
        assert_eq!(input.len, 3 * k, "input must hold 3K interleaved elements");
        assert!(out.sys.len == k && out.p1.len == k && out.p2.len == k);
        let l = self.width.lanes();
        let groups = k / l;
        match self.mech {
            Mechanism::Baseline => self.run_baseline(vm, input, out, groups),
            Mechanism::Apcm(v) => self.run_apcm(vm, input, out, groups, v),
        }
        // Scalar tail for K not divisible by the lane count (both
        // mechanisms share it, so comparisons stay fair).
        for t in (groups * l)..k {
            vm.copy16(input.base + 3 * t, out.sys.base + t);
            vm.copy16(input.base + 3 * t + 1, out.p1.base + t);
            vm.copy16(input.base + 3 * t + 2, out.p2.base + t);
        }
    }

    /// Original mechanism: load three registers, `pextrw` every element
    /// to its destination. Width penalties per paper §5.2.
    fn run_baseline(&self, vm: &mut Vm, input: MemRef, out: OutRegions, groups: usize) {
        let l = self.width.lanes();
        let dst = |cluster: usize, t: usize| match cluster {
            0 => out.sys.base + t,
            1 => out.p1.base + t,
            _ => out.p2.base + t,
        };
        for g in 0..groups {
            let gbase = g * 3 * l;
            for j in 0..3 {
                let src = input.slice(gbase + j * l, l);
                // Each element's global position decides its target.
                let target = |lane: usize| {
                    let p = gbase + j * l + lane;
                    dst(p % 3, p / 3)
                };
                match self.width {
                    RegWidth::Sse128 => {
                        let r = vm.load(self.width, src);
                        for lane in 0..8 {
                            vm.extract_store(r, lane, target(lane));
                        }
                    }
                    RegWidth::Avx256 => {
                        let r = vm.load(self.width, src);
                        // pextrw reaches only the low xmm; the upper
                        // half needs a vextracti128 hop first.
                        let lo = vm.extract128(r, 0);
                        for lane in 0..8 {
                            vm.extract_store(lo, lane, target(lane));
                        }
                        let hi = vm.extract128(r, 1);
                        for lane in 0..8 {
                            vm.extract_store(hi, lane, target(8 + lane));
                        }
                    }
                    RegWidth::Avx512 => {
                        // vextracti32x8 clobbers the source zmm, forcing
                        // a vmovdqa64 reload before the upper half
                        // (paper: "another load operation is required").
                        let r = vm.load(self.width, src);
                        let lo256 = vm.extract256_clobber(r, 0);
                        for half in 0..2 {
                            let x = vm.extract128(lo256, half);
                            for lane in 0..8 {
                                vm.extract_store(x, lane, target(half * 8 + lane));
                            }
                        }
                        let r2 = vm.load(self.width, src); // reload
                        let hi256 = vm.extract256_clobber(r2, 1);
                        for half in 0..2 {
                            let x = vm.extract128(hi256, half);
                            for lane in 0..8 {
                                vm.extract_store(x, lane, target(16 + half * 8 + lane));
                            }
                        }
                    }
                }
            }
        }
    }

    /// APCM: batch clusters on the vector ALU ports, then store whole
    /// registers.
    fn run_apcm(
        &self,
        vm: &mut Vm,
        input: MemRef,
        out: OutRegions,
        groups: usize,
        variant: ApcmVariant,
    ) {
        let w = self.width;
        let l = w.lanes();
        let outs = [out.sys, out.p1, out.p2];

        match variant {
            ApcmVariant::Shuffle => {
                // Tables are constants, conceptually embedded in the
                // instruction stream (pshufb control registers loaded
                // once — the const_vec cost is hoisted).
                let tbls: Vec<Vec<Vec<Option<u8>>>> = (0..3)
                    .map(|c| (0..3).map(|j| tables::natural_shuffle(w, j, c)).collect())
                    .collect();
                for g in 0..groups {
                    let gbase = g * 3 * l;
                    let regs: Vec<_> = (0..3)
                        .map(|j| vm.load(w, input.slice(gbase + j * l, l)))
                        .collect();
                    for (c, dst) in outs.iter().enumerate() {
                        let s0 = vm.shuffle(regs[0], &tbls[c][0]);
                        let s1 = vm.shuffle(regs[1], &tbls[c][1]);
                        let s2 = vm.shuffle(regs[2], &tbls[c][2]);
                        let o01 = vm.or(s0, s1);
                        let all = vm.or(o01, s2);
                        vm.store(all, dst.slice(g * l, l));
                    }
                }
            }
            ApcmVariant::MaskRotate => {
                // Figure 10: masks loaded once, then per group
                // 9 vpand + 6 vpor + 2 rotations + 3 stores.
                let masks: Vec<Vec<_>> = (0..3)
                    .map(|c| {
                        (0..3)
                            .map(|j| vm.const_vec(tables::cluster_mask(w, j, c)))
                            .collect()
                    })
                    .collect();
                for g in 0..groups {
                    let gbase = g * 3 * l;
                    let regs: Vec<_> = (0..3)
                        .map(|j| vm.load(w, input.slice(gbase + j * l, l)))
                        .collect();
                    for (c, dst) in outs.iter().enumerate() {
                        let m0 = vm.and(regs[0], masks[c][0]);
                        let m1 = vm.and(regs[1], masks[c][1]);
                        let m2 = vm.and(regs[2], masks[c][2]);
                        let o01 = vm.or(m0, m1);
                        let cong = vm.or(o01, m2);
                        let rot = tables::alignment_rotation(w, c);
                        let aligned = if rot == 0 {
                            cong
                        } else {
                            vm.rotate_lanes_left(cong, rot)
                        };
                        vm.store(aligned, dst.slice(g * l, l));
                    }
                }
            }
            ApcmVariant::MaskMerge => {
                // The fused-ingest mix: masks loaded once, then per
                // group 9 vpand + 6 vpor + 3 restore vpermw + 3 stores.
                let masks: Vec<Vec<_>> = (0..3)
                    .map(|c| {
                        (0..3)
                            .map(|j| vm.const_vec(tables::cluster_mask(w, j, c)))
                            .collect()
                    })
                    .collect();
                let restores: Vec<Vec<Option<u8>>> =
                    (0..3).map(|c| tables::fused_restore(w, c)).collect();
                for g in 0..groups {
                    let gbase = g * 3 * l;
                    let regs: Vec<_> = (0..3)
                        .map(|j| vm.load(w, input.slice(gbase + j * l, l)))
                        .collect();
                    for (c, dst) in outs.iter().enumerate() {
                        let m0 = vm.and(regs[0], masks[c][0]);
                        let m1 = vm.and(regs[1], masks[c][1]);
                        let m2 = vm.and(regs[2], masks[c][2]);
                        let o01 = vm.or(m0, m1);
                        let cong = vm.or(o01, m2);
                        let natural = vm.shuffle(cong, &restores[c]);
                        vm.store(natural, dst.slice(g * l, l));
                    }
                }
            }
        }
    }

    /// Convenience wrapper: stage `interleaved` into a fresh VM, run,
    /// and return the arranged streams (plus the µop trace when
    /// `tracing`).
    pub fn arrange(
        &self,
        interleaved: &InterleavedLlrs,
        tracing: bool,
    ) -> (SoftStreams, Option<Trace>) {
        let k = interleaved.k;
        let mut mem = Mem::new();
        let input = mem.alloc_from(&interleaved.data);
        let sys = mem.alloc(k);
        let p1 = mem.alloc(k);
        let p2 = mem.alloc(k);
        let mut vm = if tracing {
            Vm::tracing(mem)
        } else {
            Vm::native(mem)
        };
        self.run(&mut vm, input, OutRegions { sys, p1, p2 }, k);
        let streams = SoftStreams {
            sys: vm.mem().read(sys).to_vec(),
            p1: vm.mem().read(p1).to_vec(),
            p2: vm.mem().read(p2).to_vec(),
        };
        let trace = tracing.then(|| vm.take_trace());
        (streams, trace)
    }

    /// Undo the MaskRotate group permutation (scalar helper used by
    /// tests and by consumers of the paper-literal variant).
    pub fn depermute(&self, streams: &SoftStreams) -> SoftStreams {
        match self.mech {
            Mechanism::Apcm(ApcmVariant::MaskRotate) => {
                let l = self.width.lanes();
                let perm = tables::group_permutation(self.width);
                let k = streams.len();
                let mut out = SoftStreams::zeros(k);
                let groups = k / l;
                for g in 0..groups {
                    for (i, &p) in perm.iter().enumerate().take(l) {
                        let t = g * l + p;
                        out.sys[t] = streams.sys[g * l + i];
                        out.p1[t] = streams.p1[g * l + i];
                        out.p2[t] = streams.p2[g * l + i];
                    }
                }
                for t in groups * l..k {
                    out.sys[t] = streams.sys[t];
                    out.p1[t] = streams.p1[t];
                    out.p2[t] = streams.p2[t];
                }
                out
            }
            _ => streams.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vran_simd::{OpClass, OpKind};

    fn sample(k: usize) -> InterleavedLlrs {
        let data: Vec<i16> = (0..3 * k)
            .map(|i| ((i as i64 * 2654435761 + 12345) % 4001 - 2000) as i16)
            .collect();
        InterleavedLlrs { k, data }
    }

    fn all_kernels() -> Vec<ArrangeKernel> {
        let mut v = Vec::new();
        for w in RegWidth::ALL {
            for m in [
                Mechanism::Baseline,
                Mechanism::Apcm(ApcmVariant::Shuffle),
                Mechanism::Apcm(ApcmVariant::MaskRotate),
                Mechanism::Apcm(ApcmVariant::MaskMerge),
            ] {
                v.push(ArrangeKernel::new(w, m));
            }
        }
        v
    }

    #[test]
    fn all_mechanisms_match_the_scalar_oracle() {
        let input = sample(192); // divisible by 32
        let expect = input.deinterleave_scalar();
        for kern in all_kernels() {
            let (got, _) = kern.arrange(&input, false);
            let got = kern.depermute(&got);
            assert_eq!(
                got,
                expect,
                "{:?} {} mismatch",
                kern.width,
                kern.mech.name()
            );
        }
    }

    #[test]
    fn ragged_lengths_use_the_scalar_tail() {
        // K = 40 is not divisible by 16 or 32 lanes.
        let input = sample(40);
        let expect = input.deinterleave_scalar();
        for kern in all_kernels() {
            let (got, _) = kern.arrange(&input, false);
            let got = kern.depermute(&got);
            assert_eq!(got, expect, "{:?} {}", kern.width, kern.mech.name());
        }
    }

    #[test]
    fn baseline_is_movement_dominated_apcm_is_alu_dominated() {
        let input = sample(96);
        let (_, bt) =
            ArrangeKernel::new(RegWidth::Sse128, Mechanism::Baseline).arrange(&input, true);
        let (_, at) = ArrangeKernel::new(RegWidth::Sse128, Mechanism::Apcm(ApcmVariant::Shuffle))
            .arrange(&input, true);
        let bh = bt.unwrap().class_histogram();
        let ah = at.unwrap().class_histogram();
        assert_eq!(bh.vec_alu, 0, "baseline issues no vector ALU work: {bh:?}");
        assert!(bh.movement_fraction() > 0.95, "{bh:?}");
        assert!(ah.vec_alu > ah.store, "APCM runs on the ALU ports: {ah:?}");
    }

    #[test]
    fn paper_instruction_counts_per_group() {
        // One full xmm group (8 triples): MaskRotate = 9 vpand + 6 vpor
        // + 2 rotations = 17 ALU instructions (paper §5.1), plus 3
        // loads and 3 stores. Mask materialization is hoisted (loads).
        let input = sample(8);
        let (_, t) = ArrangeKernel::new(RegWidth::Sse128, Mechanism::Apcm(ApcmVariant::MaskRotate))
            .arrange(&input, true);
        let t = t.unwrap();
        let ands = t.ops.iter().filter(|o| o.kind == OpKind::VAnd).count();
        let ors = t.ops.iter().filter(|o| o.kind == OpKind::VOr).count();
        let shufs = t.ops.iter().filter(|o| o.kind == OpKind::VShuffle).count();
        assert_eq!(ands, 9);
        assert_eq!(ors, 6);
        assert_eq!(shufs, 2);
        let stores = t.ops.iter().filter(|o| o.kind == OpKind::VStore).count();
        assert_eq!(stores, 3);
    }

    #[test]
    fn fused_instruction_counts_per_group() {
        // One full xmm group under the fused-ingest formulation:
        // 9 vpand + 6 vpor + 3 restore vpermw, plus 3 loads and 3
        // stores. Two thirds fewer shuffle µops than the Shuffle
        // variant's 9, and no deferred depermute like MaskRotate.
        let input = sample(8);
        let (_, t) = ArrangeKernel::new(RegWidth::Sse128, Mechanism::Apcm(ApcmVariant::MaskMerge))
            .arrange(&input, true);
        let t = t.unwrap();
        let count = |k: OpKind| t.ops.iter().filter(|o| o.kind == k).count();
        assert_eq!(count(OpKind::VAnd), 9);
        assert_eq!(count(OpKind::VOr), 6);
        assert_eq!(count(OpKind::VShuffle), 3);
        assert_eq!(count(OpKind::VStore), 3);
    }

    #[test]
    fn fused_needs_no_depermute() {
        // Unlike MaskRotate, the fused variant's output is already in
        // natural decoder order — depermute must be the identity path.
        let input = sample(64);
        let kern = ArrangeKernel::new(RegWidth::Avx512, Mechanism::Apcm(ApcmVariant::MaskMerge));
        let (got, _) = kern.arrange(&input, false);
        assert_eq!(got, input.deinterleave_scalar());
    }

    #[test]
    fn fused_shuffle_traffic_is_a_third_of_the_shuffle_variant() {
        // Same 96 triples: the Shuffle variant crosses lanes once per
        // source register (9/group), the fused variant once per output
        // register (3/group). The vpand/vpor make-up work lands on the
        // three ALU ports instead of the shuffle unit.
        let input = sample(96);
        let shufs = |v| {
            let (_, t) =
                ArrangeKernel::new(RegWidth::Avx512, Mechanism::Apcm(v)).arrange(&input, true);
            t.unwrap()
                .ops
                .iter()
                .filter(|o| o.kind == OpKind::VShuffle)
                .count()
        };
        assert_eq!(
            shufs(ApcmVariant::MaskMerge) * 3,
            shufs(ApcmVariant::Shuffle)
        );
    }

    #[test]
    fn baseline_zmm_pays_reload_penalty() {
        let input = sample(32); // one zmm group
        let run = |w| {
            let (_, t) = ArrangeKernel::new(w, Mechanism::Baseline).arrange(&sample(32), true);
            t.unwrap()
        };
        let _ = input;
        let t512 = run(RegWidth::Avx512);
        let loads = t512.ops.iter().filter(|o| o.kind == OpKind::VLoad).count();
        // 32 triples = 3 zmm registers, each loaded twice (reload after
        // vextracti32x8 clobber).
        assert_eq!(loads, 6);
        let ex256 = t512
            .ops
            .iter()
            .filter(|o| o.kind == OpKind::Extract256)
            .count();
        assert_eq!(ex256, 6);
        let ex128 = t512
            .ops
            .iter()
            .filter(|o| o.kind == OpKind::Extract128)
            .count();
        assert_eq!(ex128, 12);
        // the per-element extracts are unchanged: 96 pextrw
        let pex = t512
            .ops
            .iter()
            .filter(|o| o.kind == OpKind::ExtractLane)
            .count();
        assert_eq!(pex, 96);
    }

    #[test]
    fn baseline_instruction_count_grows_with_width_for_same_work() {
        // Same 96 triples, three widths: the original mechanism issues
        // MORE instructions as registers widen (the paper's §6
        // "performance deteriorates when extending the registers").
        let input = sample(96);
        let count = |w| {
            let (_, t) = ArrangeKernel::new(w, Mechanism::Baseline).arrange(&input, true);
            t.unwrap().instr_count()
        };
        let c128 = count(RegWidth::Sse128);
        let c256 = count(RegWidth::Avx256);
        let c512 = count(RegWidth::Avx512);
        assert!(c256 > c128, "{c256} vs {c128}");
        assert!(c512 > c256, "{c512} vs {c256}");
    }

    #[test]
    fn apcm_instruction_count_shrinks_with_width_for_same_work() {
        let input = sample(96);
        let count = |w| {
            let (_, t) =
                ArrangeKernel::new(w, Mechanism::Apcm(ApcmVariant::Shuffle)).arrange(&input, true);
            t.unwrap().instr_count()
        };
        let c128 = count(RegWidth::Sse128);
        let c256 = count(RegWidth::Avx256);
        let c512 = count(RegWidth::Avx512);
        assert!(c256 < c128, "{c256} vs {c128}");
        assert!(c512 < c256, "{c512} vs {c256}");
    }

    #[test]
    fn store_bytes_equal_across_mechanisms() {
        // Both mechanisms move the same payload; only the instruction
        // mix differs. (Baseline stores 2 bytes at a time, APCM whole
        // registers — totals match.)
        let input = sample(96);
        let payload = |m| {
            let (_, t) = ArrangeKernel::new(RegWidth::Sse128, m).arrange(&input, true);
            t.unwrap().store_bytes()
        };
        assert_eq!(
            payload(Mechanism::Baseline),
            payload(Mechanism::Apcm(ApcmVariant::Shuffle))
        );
    }

    #[test]
    fn trace_uop_classes_are_as_designed() {
        let input = sample(64);
        let (_, t) =
            ArrangeKernel::new(RegWidth::Sse128, Mechanism::Baseline).arrange(&input, true);
        for op in &t.unwrap().ops {
            assert!(
                matches!(op.kind.class(), OpClass::Load | OpClass::Store),
                "baseline must be pure movement, found {:?}",
                op.kind
            );
        }
    }
}
