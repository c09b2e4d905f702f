//! Width-batched SIMD max-log-MAP: decode `B = width/128` independent
//! code blocks simultaneously, one block per 128-bit lane group.
//!
//! This is how production decoders (OAI, FlexRAN) actually exploit ymm
//! and zmm registers: the 8-state α/β recursions cannot widen (a block
//! has exactly 8 states), so wider registers carry *more blocks*. The
//! [`crate::latency`] model assumes this batching with a √B efficiency
//! factor; this module implements it for real, so the assumption can be
//! measured (see the `batching_efficiency` test and the
//! `abl-batch` experiment).
//!
//! Layout: lane group `g` of every state vector holds block `g`'s eight
//! state metrics. Branch metrics are staged *block-interleaved* —
//! `γ[k·B + g]` — so one narrow load plus one lane-replicating shuffle
//! broadcasts each block's scalar into its group.
//!
//! Bit-exactness: every lane group performs exactly the operations of
//! the single-block kernel in [`super::simd_decoder`], so batched
//! decoding is bit-identical to `B` separate decodes (enforced by
//! tests).

use vran_phy::interleaver::QppInterleaver;
use vran_phy::llr::{llr_to_bit, Llr, TurboLlrs};
use vran_phy::turbo::decoder::{beta_init_from_tails, scale_extrinsic, DecodeOutcome, NEG_INF};
use vran_phy::turbo::trellis::{self, STATES};
use vran_simd::{Mem, MemRef, RegWidth, Trace, VReg, VecVal, Vm};

/// Replicate an 8-lane table across every 128-bit group of `width`,
/// offsetting the selectors into the local group.
fn group_table(width: RegWidth, table: [u8; STATES]) -> Vec<Option<u8>> {
    let groups = width.lanes128();
    let mut out = Vec::with_capacity(width.lanes());
    for g in 0..groups {
        for &t in &table {
            out.push(Some((g * STATES) as u8 + t));
        }
    }
    out
}

/// Table that broadcasts lane `g` (a packed per-block scalar) into the
/// whole of group `g`.
fn group_broadcast_table(width: RegWidth) -> Vec<Option<u8>> {
    let groups = width.lanes128();
    (0..groups)
        .flat_map(|g| std::iter::repeat_n(Some(g as u8), STATES))
        .collect()
}

/// Per-group parity mask replicated across groups.
fn group_parity_mask(width: RegWidth, parities: [u8; STATES]) -> VecVal {
    let lanes: Vec<i16> = (0..width.lanes())
        .map(|l| if parities[l % STATES] == 0 { -1 } else { 0 })
        .collect();
    VecVal::from_lanes(width, &lanes)
}

/// Rotate-left within each 128-bit group by `n` lanes.
fn group_rotate_table(width: RegWidth, n: usize) -> Vec<Option<u8>> {
    let groups = width.lanes128();
    let mut out = Vec::with_capacity(width.lanes());
    for g in 0..groups {
        for i in 0..STATES {
            out.push(Some((g * STATES + (i + n) % STATES) as u8));
        }
    }
    out
}

/// Batched decoder: `B = width.lanes128()` blocks of identical size per
/// pass.
#[derive(Debug, Clone)]
pub struct BatchTurboDecoder {
    il: QppInterleaver,
    max_iterations: usize,
    width: RegWidth,
}

impl BatchTurboDecoder {
    /// Decoder for `width.lanes128()` parallel blocks of size `k`.
    pub fn new(k: usize, max_iterations: usize, width: RegWidth) -> Self {
        assert!(max_iterations >= 1);
        Self {
            il: QppInterleaver::new(k),
            max_iterations,
            width,
        }
    }

    /// Number of blocks decoded per call.
    pub fn batch(&self) -> usize {
        self.width.lanes128()
    }

    /// Block size K.
    pub fn k(&self) -> usize {
        self.il.k()
    }

    /// Decode a batch natively; `inputs.len()` must equal
    /// [`BatchTurboDecoder::batch`].
    pub fn decode_native(&self, inputs: &[TurboLlrs]) -> Vec<DecodeOutcome> {
        let (out, _) = self.run(inputs, false, self.max_iterations);
        out
    }

    /// Decode in tracing mode with an explicit iteration count.
    pub fn decode_traced(
        &self,
        inputs: &[TurboLlrs],
        iterations: usize,
    ) -> (Vec<DecodeOutcome>, Trace) {
        let (out, trace) = self.run(inputs, true, iterations);
        (out, trace.expect("tracing"))
    }

    fn run(
        &self,
        inputs: &[TurboLlrs],
        tracing: bool,
        iterations: usize,
    ) -> (Vec<DecodeOutcome>, Option<Trace>) {
        let b = self.batch();
        let k = self.il.k();
        assert_eq!(inputs.len(), b, "batch needs exactly {b} blocks");
        for input in inputs {
            assert_eq!(input.k, k, "all blocks in a batch share K");
        }

        let mut mem = Mem::new();
        // Block-interleaved stream staging: s[k·B + g] = block g's value.
        let stage = |mem: &mut Mem, f: &dyn Fn(&TurboLlrs) -> &[Llr]| -> MemRef {
            let r = mem.alloc(k * b);
            for (g, input) in inputs.iter().enumerate() {
                let src = f(input);
                for (step, &v) in src.iter().enumerate().take(k) {
                    mem.set(r.base + step * b + g, v);
                }
            }
            r
        };
        let sys = stage(&mut mem, &|i| &i.streams.sys);
        let p1 = stage(&mut mem, &|i| &i.streams.p1);
        let p2 = stage(&mut mem, &|i| &i.streams.p2);
        // interleaved systematic for decoder 2
        let sys_pi = {
            let r = mem.alloc(k * b);
            for (g, input) in inputs.iter().enumerate() {
                for j in 0..k {
                    mem.set(r.base + j * b + g, input.streams.sys[self.il.pi(j)]);
                }
            }
            r
        };
        let la1 = mem.alloc(k * b);
        let la2 = mem.alloc(k * b);
        let g0 = mem.alloc(k * b);
        let gp = mem.alloc(k * b);
        let alpha_arr = mem.alloc((k + 1) * self.width.lanes());
        let ext = mem.alloc(k * b);
        let post = mem.alloc(k * b);

        let mut vm = if tracing {
            Vm::tracing(mem)
        } else {
            Vm::native(mem)
        };

        let mut bits = vec![vec![0u8; k]; b];
        let mut iterations_run = 0;
        for _ in 0..iterations {
            iterations_run += 1;
            self.siso(
                &mut vm, sys, p1, la1, inputs, false, g0, gp, alpha_arr, ext, post,
            );
            for g in 0..b {
                for j in 0..k {
                    vm.scalar_map16(
                        ext.base + self.il.pi(j) * b + g,
                        la2.base + j * b + g,
                        scale_extrinsic,
                    );
                }
            }
            self.siso(
                &mut vm, sys_pi, p2, la2, inputs, true, g0, gp, alpha_arr, ext, post,
            );
            for g in 0..b {
                for i in 0..k {
                    vm.scalar_map16(
                        ext.base + self.il.pi_inv(i) * b + g,
                        la1.base + i * b + g,
                        scale_extrinsic,
                    );
                }
            }
            for (g, blk) in bits.iter_mut().enumerate() {
                for (i, bit) in blk.iter_mut().enumerate() {
                    *bit = llr_to_bit(vm.mem().get(post.base + self.il.pi_inv(i) * b + g));
                }
            }
        }
        let outcomes = bits
            .into_iter()
            .map(|bits| DecodeOutcome {
                bits,
                iterations_run,
                siso_passes: 2 * iterations_run,
                crc_ok: None,
            })
            .collect();
        (outcomes, tracing.then(|| vm.take_trace()))
    }

    /// One batched SISO pass over `B` blocks.
    #[allow(clippy::too_many_arguments)]
    fn siso(
        &self,
        vm: &mut Vm,
        sys: MemRef,
        par: MemRef,
        la: MemRef,
        inputs: &[TurboLlrs],
        second: bool,
        g0: MemRef,
        gp: MemRef,
        alpha_arr: MemRef,
        ext: MemRef,
        post: MemRef,
    ) {
        let w = self.width;
        let b = self.batch();
        let k = self.il.k();
        let lanes = w.lanes();

        // ---- γ phase: full-width streaming over k·B values ----
        let mut off = 0;
        while off + lanes <= k * b {
            let ls = vm.load(w, sys.slice(off, lanes));
            let lav = vm.load(w, la.slice(off, lanes));
            let sum = vm.adds(ls, lav);
            let g0v = vm.srai(sum, 1);
            vm.store(g0v, g0.slice(off, lanes));
            let lp = vm.load(w, par.slice(off, lanes));
            let gpv = vm.srai(lp, 1);
            vm.store(gpv, gp.slice(off, lanes));
            off += lanes;
        }
        // K is always a multiple of 8 and lanes = 8·B, so k·B divides
        // evenly — no ragged tail.
        debug_assert_eq!(off, k * b);

        // ---- constants ----
        let zero = vm.splat(w, 0);
        // path-metric floor, matching the scalar/xmm decoders
        let floor = vm.splat(w, NEG_INF);
        let m_pp0 = vm.const_vec(group_parity_mask(w, trellis::pred_parity(0)));
        let m_pp1 = vm.const_vec(group_parity_mask(w, trellis::pred_parity(1)));
        let m_np0 = vm.const_vec(group_parity_mask(w, trellis::next_parity(0)));
        let m_np1 = vm.const_vec(group_parity_mask(w, trellis::next_parity(1)));
        let pred0 = group_table(w, trellis::pred_table(0));
        let pred1 = group_table(w, trellis::pred_table(1));
        let next0 = group_table(w, trellis::next_table(0));
        let next1 = group_table(w, trellis::next_table(1));
        let bcast = group_broadcast_table(w);
        let bcast0 = group_rotate_table(w, 0); // lane g*8 broadcast helper below
        let _ = bcast0;
        // broadcast of each group's lane 0 across its group
        let group_lane0: Vec<Option<u8>> = (0..w.lanes())
            .map(|l| Some(((l / STATES) * STATES) as u8))
            .collect();

        let blend = |vm: &mut Vm, gpv: VReg, neg: VReg, mask: VReg| {
            let pos = vm.and(gpv, mask);
            let n = vm.andnot(mask, neg);
            vm.or(pos, n)
        };

        // Per-step broadcast: load the B packed scalars at γ[step·B..]
        // into the low lanes, then replicate into groups. The packed
        // load reads B i16 values; model it as one narrow load.
        let packed = |vm: &mut Vm, region: MemRef, step: usize| -> VReg {
            // Load a full register whose low B lanes are the packed
            // values (the rest are irrelevant — masked by the shuffle).
            let base = step * b;
            let avail = region.len - base;
            let r = if avail >= w.lanes() {
                vm.load(w, region.slice(base, w.lanes()))
            } else {
                // near the end of the array: back up so the load fits
                let start = region.len - w.lanes();
                let v = vm.load(w, region.slice(start, w.lanes()));
                // rotate the wanted lanes down to position 0
                vm.rotate_lanes_left(v, base - start)
            };
            vm.shuffle(r, &bcast)
        };

        // ---- α recursion ----
        let mut alpha0 = vec![NEG_INF; w.lanes()];
        for g in 0..b {
            alpha0[g * STATES] = 0;
        }
        let mut alpha = vm.const_vec(VecVal::from_lanes(w, &alpha0));
        vm.store(alpha, alpha_arr.slice(0, w.lanes()));
        for step in 0..k {
            let g0k = packed(vm, g0, step);
            let gpk = packed(vm, gp, step);
            let neg_gp = vm.subs(zero, gpk);
            let neg_g0 = vm.subs(zero, g0k);
            let gp_s0 = blend(vm, gpk, neg_gp, m_pp0);
            let gp_s1 = blend(vm, gpk, neg_gp, m_pp1);
            let gam0 = vm.adds(g0k, gp_s0);
            let gam1 = vm.adds(neg_g0, gp_s1);
            let a0 = vm.shuffle(alpha, &pred0);
            let a1 = vm.shuffle(alpha, &pred1);
            let c0 = vm.adds(a0, gam0);
            let c1 = vm.adds(a1, gam1);
            let m01 = vm.max(c0, c1);
            let amax = vm.max(m01, floor);
            let norm = vm.shuffle(amax, &group_lane0);
            alpha = vm.subs(amax, norm);
            vm.store(alpha, alpha_arr.slice((step + 1) * w.lanes(), w.lanes()));
        }

        // ---- β + extrinsic ----
        let mut binit = Vec::with_capacity(w.lanes());
        for input in inputs {
            let (ts, tp) = if second {
                (&input.tails.sys2, &input.tails.p2)
            } else {
                (&input.tails.sys1, &input.tails.p1)
            };
            binit.extend_from_slice(&beta_init_from_tails(ts, tp));
        }
        let mut beta = vm.const_vec(VecVal::from_lanes(w, &binit));
        for step in (0..k).rev() {
            let g0k = packed(vm, g0, step);
            let gpk = packed(vm, gp, step);
            let neg_gp = vm.subs(zero, gpk);
            let neg_g0 = vm.subs(zero, g0k);
            let gp_n0 = blend(vm, gpk, neg_gp, m_np0);
            let gp_n1 = blend(vm, gpk, neg_gp, m_np1);
            let gam0 = vm.adds(g0k, gp_n0);
            let gam1 = vm.adds(neg_g0, gp_n1);
            let b0 = vm.shuffle(beta, &next0);
            let b1 = vm.shuffle(beta, &next1);

            let ak = vm.load(w, alpha_arr.slice(step * w.lanes(), w.lanes()));
            let ag0 = vm.adds(ak, gam0);
            let ag1 = vm.adds(ak, gam1);
            let t0 = vm.adds(ag0, b0);
            let t1 = vm.adds(ag1, b1);
            let h0 = group_hmax(vm, t0, w);
            let h1 = group_hmax(vm, t1, w);
            let m0 = vm.max(h0, floor);
            let m1 = vm.max(h1, floor);
            let lvec = vm.subs(m0, m1);
            let g0x2 = vm.adds(g0k, g0k);
            let evec = vm.subs(lvec, g0x2);
            for g in 0..b {
                vm.extract_store(lvec, g * STATES, post.base + step * b + g);
                vm.extract_store(evec, g * STATES, ext.base + step * b + g);
            }

            let c0 = vm.adds(b0, gam0);
            let c1 = vm.adds(b1, gam1);
            let m01b = vm.max(c0, c1);
            let bmax = vm.max(m01b, floor);
            let bn = vm.shuffle(bmax, &group_lane0);
            beta = vm.subs(bmax, bn);
        }
    }
}

/// Horizontal max within each 128-bit group (group-local rotate/max
/// tree) — every lane of a group ends up holding that group's max.
fn group_hmax(vm: &mut Vm, t: VReg, w: RegWidth) -> VReg {
    let r4 = group_rotate_table(w, 4);
    let r2 = group_rotate_table(w, 2);
    let r1 = group_rotate_table(w, 1);
    let s4 = vm.shuffle(t, &r4);
    let m4 = vm.max(t, s4);
    let s2 = vm.shuffle(m4, &r2);
    let m2 = vm.max(m4, s2);
    let s1 = vm.shuffle(m2, &r1);
    vm.max(m2, s1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::turbo::simd_decoder::SimdTurboDecoder;
    use vran_phy::bits::random_bits;
    use vran_phy::llr::bit_to_llr;
    use vran_phy::turbo::{TurboDecoder, TurboEncoder};
    use vran_uarch::{CoreConfig, CoreSim};

    fn make_input(k: usize, seed: u64) -> (Vec<u8>, TurboLlrs) {
        let bits = random_bits(k, seed);
        let cw = TurboEncoder::new(k).encode(&bits);
        let d = cw.to_dstreams();
        let soft: [Vec<Llr>; 3] = d
            .iter()
            .map(|s| s.iter().map(|&b| bit_to_llr(b, 50)).collect())
            .collect::<Vec<_>>()
            .try_into()
            .unwrap();
        (bits, TurboLlrs::from_dstreams(&soft, k))
    }

    #[test]
    fn single_group_batch_matches_simd_decoder() {
        // B = 1 (xmm): the batched kernel degenerates to the plain one.
        let k = 64;
        let (bits, input) = make_input(k, 5);
        let batched = BatchTurboDecoder::new(k, 2, RegWidth::Sse128);
        let out = batched.decode_native(std::slice::from_ref(&input));
        let single = SimdTurboDecoder::new(k, 2, RegWidth::Sse128).decode_native(&input);
        assert_eq!(out[0].bits, single.bits);
        assert_eq!(out[0].bits, bits);
    }

    #[test]
    fn batched_zmm_equals_four_independent_decodes() {
        let k = 64;
        let inputs: Vec<(Vec<u8>, TurboLlrs)> = (0..4).map(|g| make_input(k, 100 + g)).collect();
        let batch = BatchTurboDecoder::new(k, 3, RegWidth::Avx512);
        let outs = batch.decode_native(&inputs.iter().map(|(_, i)| i.clone()).collect::<Vec<_>>());
        assert_eq!(batch.batch(), 4);
        let scalar = TurboDecoder::new(k, 3);
        for (g, (bits, input)) in inputs.iter().enumerate() {
            let single = scalar.decode(input);
            assert_eq!(
                outs[g].bits, single.bits,
                "block {g} diverged from scalar decode"
            );
            assert_eq!(&outs[g].bits, bits, "block {g} must decode correctly");
        }
    }

    #[test]
    fn batched_ymm_equals_two_independent_decodes() {
        let k = 40;
        let inputs: Vec<(Vec<u8>, TurboLlrs)> = (0..2).map(|g| make_input(k, 77 + g)).collect();
        let batch = BatchTurboDecoder::new(k, 2, RegWidth::Avx256);
        let outs = batch.decode_native(&inputs.iter().map(|(_, i)| i.clone()).collect::<Vec<_>>());
        for (g, (bits, _)) in inputs.iter().enumerate() {
            assert_eq!(&outs[g].bits, bits);
        }
    }

    #[test]
    fn batching_efficiency_beats_serial_singles() {
        // The latency model assumes B blocks in one zmm pass cost less
        // than B separate xmm passes. Measure it.
        let k = 64;
        let inputs: Vec<TurboLlrs> = (0..4).map(|g| make_input(k, 200 + g).1).collect();
        let sim = CoreSim::new(CoreConfig::beefy().warmed());

        let (_, single_trace) =
            SimdTurboDecoder::new(k, 1, RegWidth::Sse128).decode_traced(&inputs[0], 1);
        let single = sim.run(&single_trace).cycles;

        let batch = BatchTurboDecoder::new(k, 1, RegWidth::Avx512);
        let (_, batch_trace) = batch.decode_traced(&inputs, 1);
        let batched = sim.run(&batch_trace).cycles;

        let speedup = 4.0 * single as f64 / batched as f64;
        assert!(
            speedup > 1.3,
            "batched zmm decode must beat 4 serial xmm decodes: {speedup:.2}× \
             ({single} cycles single vs {batched} for 4 blocks)"
        );
        assert!(
            speedup < 4.5,
            "speedup cannot exceed the lane advantage: {speedup:.2}×"
        );
    }

    #[test]
    #[should_panic(expected = "batch needs exactly")]
    fn wrong_batch_size_panics() {
        let (_, input) = make_input(40, 1);
        let _ = BatchTurboDecoder::new(40, 1, RegWidth::Avx512).decode_native(&[input]);
    }
}
