//! SIMD max-log-MAP turbo decoder expressed as `vran-simd` VM kernels.
//!
//! This is the OAI-style vectorization the paper profiles:
//!
//! * **γ phase** — lane-parallel over trellis steps: whole registers of
//!   `width` consecutive systematic/parity LLRs are loaded from the
//!   *arranged* streams, halved, and stored as branch-metric arrays.
//!   This phase is why the data arrangement exists: it consumes
//!   `systematic1`/`yparity1`/`yparity2` exactly as Figure 8a shows.
//! * **α/β phases** — lane-parallel over the 8 trellis states in one
//!   xmm register: `_mm_shuffle`-based predecessor/successor gathers,
//!   `_mm_adds_epi16` metric accumulation, `_mm_max_epi16` selection,
//!   broadcast-subtract normalization.
//! * **extrinsic phase** — fused with β; horizontal max reduction plus
//!   a `pextrw` store per step (the `_mm_extract` usage Figure 7
//!   profiles inside the decoding submodule).
//!
//! **Bit-exactness contract**: every arithmetic step mirrors
//! [`vran_phy::turbo::decoder`] operation-for-operation (same saturating
//! i16 ops, same order), so `decode_native` produces identical bits,
//! extrinsics and iteration counts as the scalar reference. The test
//! suite enforces this.

use vran_phy::crc::Crc;
use vran_phy::interleaver::QppInterleaver;
use vran_phy::llr::{llr_to_bit, Llr, TailLlrs, TurboLlrs};
use vran_phy::turbo::decoder::{beta_init_from_tails, scale_extrinsic, DecodeOutcome, NEG_INF};
use vran_phy::turbo::trellis::{self, STATES};
use vran_simd::{Mem, MemRef, RegWidth, Trace, VReg, VecVal, Vm};

/// Shuffle table from a trellis lane table.
fn shuf(table: [u8; STATES]) -> [Option<u8>; STATES] {
    table.map(Some)
}

/// Mask vector: lane = all-ones where `parities[lane] == 0` (select
/// `+γₚ`), zero otherwise.
fn parity_mask(parities: [u8; STATES]) -> VecVal {
    let lanes: Vec<i16> = parities
        .iter()
        .map(|&p| if p == 0 { -1 } else { 0 })
        .collect();
    VecVal::from_lanes(RegWidth::Sse128, &lanes)
}

/// The SIMD turbo decoder for one block size, reading that size's
/// process-wide QPP tables.
#[derive(Debug, Clone)]
pub struct SimdTurboDecoder {
    il: &'static QppInterleaver,
    max_iterations: usize,
    width: RegWidth,
}

/// Scratch regions one SISO pass works in.
struct Scratch {
    g0: MemRef,
    gp: MemRef,
    alpha: MemRef,
    ext: MemRef,
    post: MemRef,
}

impl SimdTurboDecoder {
    /// Decoder for block size `k`; `width` selects the register width
    /// used by the lane-parallel γ phase (the α/β state recursions are
    /// always 8 × i16 = one xmm, like OAI).
    pub fn new(k: usize, max_iterations: usize, width: RegWidth) -> Self {
        assert!(max_iterations >= 1);
        Self {
            il: QppInterleaver::of(k),
            max_iterations,
            width,
        }
    }

    /// Block size K.
    pub fn k(&self) -> usize {
        self.il.k()
    }

    /// Decode from arranged stream regions already staged in `vm`'s
    /// memory (each of length K), e.g. the output of a `vran-arrange`
    /// kernel.
    pub fn decode_in_vm(
        &self,
        vm: &mut Vm,
        sys: MemRef,
        p1: MemRef,
        p2: MemRef,
        tails: &TailLlrs,
        crc: Option<&Crc>,
    ) -> DecodeOutcome {
        let k = self.il.k();
        assert!(
            sys.len == k && p1.len == k && p2.len == k,
            "stream regions must be length K"
        );

        // Interleaved systematic stream for decoder 2 (built once).
        let sys_pi = vm.mem_mut().alloc(k);
        for j in 0..k {
            vm.copy16(sys.base + self.il.pi(j), sys_pi.base + j);
        }
        let la1 = vm.mem_mut().alloc(k);
        let la2 = vm.mem_mut().alloc(k);
        let s1 = self.alloc_scratch(vm, k);
        let s2 = self.alloc_scratch(vm, k);

        let mut bits = vec![0u8; k];
        let mut iterations_run = 0;
        let mut siso_passes = 0;
        let mut crc_ok = None;
        for _ in 0..self.max_iterations {
            iterations_run += 1;
            self.siso(vm, sys, p1, la1, &tails.sys1, &tails.p1, &s1);
            siso_passes += 1;
            // The stop rule of `vran_phy::turbo::decoder`: every pass's
            // hard decisions face the CRC, SISO 1's in natural order
            // and only if it decided every bit.
            if let Some(c) = crc {
                let post1: Vec<Llr> = (0..k).map(|i| vm.mem().get(s1.post.base + i)).collect();
                let half: Vec<u8> = post1.iter().map(|&l| llr_to_bit(l)).collect();
                if !post1.contains(&0) && c.check(&half).is_some() {
                    bits = half;
                    crc_ok = Some(true);
                    break;
                }
            }
            for j in 0..k {
                vm.scalar_map16(s1.ext.base + self.il.pi(j), la2.base + j, scale_extrinsic);
            }
            self.siso(vm, sys_pi, p2, la2, &tails.sys2, &tails.p2, &s2);
            siso_passes += 1;
            for i in 0..k {
                vm.scalar_map16(
                    s2.ext.base + self.il.pi_inv(i),
                    la1.base + i,
                    scale_extrinsic,
                );
            }
            for (i, b) in bits.iter_mut().enumerate() {
                *b = llr_to_bit(vm.mem().get(s2.post.base + self.il.pi_inv(i)));
            }
            if let Some(c) = crc {
                let ok = c.check(&bits).is_some();
                crc_ok = Some(ok);
                if ok {
                    break;
                }
            }
        }
        DecodeOutcome {
            bits,
            iterations_run,
            siso_passes,
            crc_ok,
        }
    }

    /// Convenience: stage `input` into a fresh native-mode VM and
    /// decode. Bit-exact with [`vran_phy::turbo::TurboDecoder::decode`].
    pub fn decode_native(&self, input: &TurboLlrs) -> DecodeOutcome {
        let (mut vm, (sys, p1, p2)) = self.stage(input, false);
        self.decode_in_vm(&mut vm, sys, p1, p2, &input.tails, None)
    }

    /// Run `iterations` full iterations in tracing mode and return the
    /// outcome plus the recorded µop trace (for `vran-uarch`).
    pub fn decode_traced(&self, input: &TurboLlrs, iterations: usize) -> (DecodeOutcome, Trace) {
        let capped = Self {
            max_iterations: iterations,
            ..self.clone()
        };
        let (mut vm, (sys, p1, p2)) = capped.stage(input, true);
        let out = capped.decode_in_vm(&mut vm, sys, p1, p2, &input.tails, None);
        (out, vm.take_trace())
    }

    fn stage(&self, input: &TurboLlrs, tracing: bool) -> (Vm, (MemRef, MemRef, MemRef)) {
        assert_eq!(input.k, self.il.k(), "input block size mismatch");
        let mut mem = Mem::new();
        let sys = mem.alloc_from(&input.streams.sys);
        let p1 = mem.alloc_from(&input.streams.p1);
        let p2 = mem.alloc_from(&input.streams.p2);
        let vm = if tracing {
            Vm::tracing(mem)
        } else {
            Vm::native(mem)
        };
        (vm, (sys, p1, p2))
    }

    fn alloc_scratch(&self, vm: &mut Vm, k: usize) -> Scratch {
        Scratch {
            g0: vm.mem_mut().alloc(k),
            gp: vm.mem_mut().alloc(k),
            alpha: vm.mem_mut().alloc((k + 1) * STATES),
            ext: vm.mem_mut().alloc(k),
            post: vm.mem_mut().alloc(k),
        }
    }

    /// One SISO pass; writes extrinsic and posterior arrays in `sc`.
    #[allow(clippy::too_many_arguments)]
    fn siso(
        &self,
        vm: &mut Vm,
        sys: MemRef,
        par: MemRef,
        la: MemRef,
        tail_sys: &[Llr; 3],
        tail_par: &[Llr; 3],
        sc: &Scratch,
    ) {
        let k = self.il.k();
        let x = RegWidth::Sse128;

        // ---- γ phase: lane-parallel over trellis steps ----
        // Wide registers pay off here; K is always a multiple of 8, so
        // process full `width` chunks and finish with xmm chunks.
        let mut off = 0;
        for &w in &[self.width, RegWidth::Sse128] {
            let l = w.lanes();
            while off + l <= k {
                let ls = vm.load(w, sys.slice(off, l));
                let lav = vm.load(w, la.slice(off, l));
                let sum = vm.adds(ls, lav);
                let g0v = vm.srai(sum, 1);
                vm.store(g0v, sc.g0.slice(off, l));
                let lp = vm.load(w, par.slice(off, l));
                let gpv = vm.srai(lp, 1);
                vm.store(gpv, sc.gp.slice(off, l));
                off += l;
            }
        }
        debug_assert_eq!(off, k);

        // ---- constants hoisted out of the recursions ----
        let zero = vm.splat(x, 0);
        // Path-metric floor: mirrors the scalar decoder's NEG_INF fold
        // identity (fixed-point hygiene against saturated wrong paths).
        let floor = vm.splat(x, NEG_INF);
        let m_pp0 = vm.const_vec(parity_mask(trellis::pred_parity(0)));
        let m_pp1 = vm.const_vec(parity_mask(trellis::pred_parity(1)));
        let m_np0 = vm.const_vec(parity_mask(trellis::next_parity(0)));
        let m_np1 = vm.const_vec(parity_mask(trellis::next_parity(1)));
        let pred0 = shuf(trellis::pred_table(0));
        let pred1 = shuf(trellis::pred_table(1));
        let next0 = shuf(trellis::next_table(0));
        let next1 = shuf(trellis::next_table(1));
        let bcast0: [Option<u8>; STATES] = [Some(0); STATES];

        // Blend ±γₚ by a parity mask: (γₚ & m) | (−γₚ & !m).
        let blend = |vm: &mut Vm, gp: VReg, neg_gp: VReg, mask: VReg| {
            let pos = vm.and(gp, mask);
            let neg = vm.andnot(mask, neg_gp);
            vm.or(pos, neg)
        };

        // ---- α recursion (lane = state) ----
        let mut alpha0 = [NEG_INF; STATES];
        alpha0[0] = 0;
        let mut alpha = vm.const_vec(VecVal::from_lanes(x, &alpha0));
        vm.store(alpha, sc.alpha.slice(0, STATES));
        for step in 0..k {
            let g0k = vm.broadcast_load(x, sc.g0.base + step);
            let gpk = vm.broadcast_load(x, sc.gp.base + step);
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
            let norm = vm.shuffle(amax, &bcast0);
            alpha = vm.subs(amax, norm);
            vm.store(alpha, sc.alpha.slice((step + 1) * STATES, STATES));
        }

        // ---- β recursion + extrinsic (lane = state) ----
        let binit = beta_init_from_tails(tail_sys, tail_par);
        let mut beta = vm.const_vec(VecVal::from_lanes(x, &binit));
        for step in (0..k).rev() {
            let g0k = vm.broadcast_load(x, sc.g0.base + step);
            let gpk = vm.broadcast_load(x, sc.gp.base + step);
            let neg_gp = vm.subs(zero, gpk);
            let neg_g0 = vm.subs(zero, g0k);
            let gp_n0 = blend(vm, gpk, neg_gp, m_np0);
            let gp_n1 = blend(vm, gpk, neg_gp, m_np1);
            let gam0 = vm.adds(g0k, gp_n0);
            let gam1 = vm.adds(neg_g0, gp_n1);
            let b0 = vm.shuffle(beta, &next0);
            let b1 = vm.shuffle(beta, &next1);

            // extrinsic for this step
            let ak = vm.load(x, sc.alpha.slice(step * STATES, STATES));
            let ag0 = vm.adds(ak, gam0);
            let ag1 = vm.adds(ak, gam1);
            let t0 = vm.adds(ag0, b0);
            let t1 = vm.adds(ag1, b1);
            let h0 = hmax8(vm, t0);
            let h1 = hmax8(vm, t1);
            let m0 = vm.max(h0, floor);
            let m1 = vm.max(h1, floor);
            let lvec = vm.subs(m0, m1);
            vm.extract_store(lvec, 0, sc.post.base + step);
            let g0x2 = vm.adds(g0k, g0k);
            let evec = vm.subs(lvec, g0x2);
            vm.extract_store(evec, 0, sc.ext.base + step);

            // β update
            let c0 = vm.adds(b0, gam0);
            let c1 = vm.adds(b1, gam1);
            let m01 = vm.max(c0, c1);
            let bmax = vm.max(m01, floor);
            let bn = vm.shuffle(bmax, &bcast0);
            beta = vm.subs(bmax, bn);
        }
    }
}

/// Horizontal max over 8 lanes via a rotate/max tree; every lane of the
/// result holds the maximum (matches sequential `max16` folding —
/// max is associative and commutative).
fn hmax8(vm: &mut Vm, t: VReg) -> VReg {
    let r4 = vm.rotate_lanes_left(t, 4);
    let m4 = vm.max(t, r4);
    let r2 = vm.rotate_lanes_left(m4, 2);
    let m2 = vm.max(m4, r2);
    let r1 = vm.rotate_lanes_left(m2, 1);
    vm.max(m2, r1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use vran_phy::bits::random_bits;
    use vran_phy::crc::CRC24B;
    use vran_phy::llr::bit_to_llr;
    use vran_phy::llr::SoftStreams;
    use vran_phy::turbo::{TurboDecoder, TurboEncoder};
    use vran_simd::OpKind;
    use vran_util::proptest::prelude::*;

    fn make_input(bits: &[u8], k: usize, mag: Llr, noise_seed: u64, noise_amp: Llr) -> TurboLlrs {
        let cw = TurboEncoder::new(k).encode(bits);
        let d = cw.to_dstreams();
        // deterministic "noise": subtract a pseudo-random offset
        let noise = random_bits(3 * (k + 4) * 4, noise_seed);
        let mut idx = 0;
        let soft: [Vec<Llr>; 3] = d
            .iter()
            .map(|st| {
                st.iter()
                    .map(|&b| {
                        let mut v = bit_to_llr(b, mag) as i32;
                        for _ in 0..4 {
                            v += if noise[idx] == 1 {
                                noise_amp as i32
                            } else {
                                -(noise_amp as i32)
                            };
                            idx += 1;
                        }
                        v.clamp(i16::MIN as i32, i16::MAX as i32) as Llr
                    })
                    .collect()
            })
            .collect::<Vec<_>>()
            .try_into()
            .unwrap();
        TurboLlrs::from_dstreams(&soft, k)
    }

    #[test]
    fn bit_exact_with_scalar_reference_clean() {
        for k in [40usize, 96] {
            let bits = random_bits(k, 21);
            let input = make_input(&bits, k, 60, 0, 0);
            let scalar = TurboDecoder::new(k, 3).decode(&input);
            let simd = SimdTurboDecoder::new(k, 3, RegWidth::Sse128).decode_native(&input);
            assert_eq!(scalar.bits, simd.bits, "K={k}");
            assert_eq!(scalar.bits, bits);
        }
    }

    #[test]
    fn bit_exact_with_scalar_reference_noisy() {
        // Noisy enough that intermediate LLRs take interesting values,
        // exercising saturation paths identically in both decoders.
        let k = 104;
        for seed in 0..5u64 {
            let bits = random_bits(k, seed + 50);
            let input = make_input(&bits, k, 40, seed, 15);
            let scalar = TurboDecoder::new(k, 4).decode(&input);
            let simd = SimdTurboDecoder::new(k, 4, RegWidth::Sse128).decode_native(&input);
            assert_eq!(scalar.bits, simd.bits, "seed={seed}");
        }
    }

    #[test]
    fn width_does_not_change_results() {
        // The γ phase width is a performance knob only.
        let k = 64;
        let bits = random_bits(k, 9);
        let input = make_input(&bits, k, 50, 3, 10);
        let r128 = SimdTurboDecoder::new(k, 3, RegWidth::Sse128).decode_native(&input);
        let r256 = SimdTurboDecoder::new(k, 3, RegWidth::Avx256).decode_native(&input);
        let r512 = SimdTurboDecoder::new(k, 3, RegWidth::Avx512).decode_native(&input);
        assert_eq!(r128.bits, r256.bits);
        assert_eq!(r128.bits, r512.bits);
    }

    #[test]
    fn crc_early_stop_matches_scalar() {
        let k = 104;
        let payload = random_bits(k - 24, 33);
        let block = CRC24B.attach(&payload);
        let input = make_input(&block, k, 60, 1, 8);
        let mut mem = Mem::new();
        let sys = mem.alloc_from(&input.streams.sys);
        let p1 = mem.alloc_from(&input.streams.p1);
        let p2 = mem.alloc_from(&input.streams.p2);
        let mut vm = Vm::native(mem);
        let dec = SimdTurboDecoder::new(k, 8, RegWidth::Sse128);
        let out = dec.decode_in_vm(&mut vm, sys, p1, p2, &input.tails, Some(&CRC24B));
        let scalar = TurboDecoder::new(k, 8).decode_with_crc(&input, &CRC24B);
        assert_eq!(out.crc_ok, Some(true));
        assert_eq!(out.iterations_run, scalar.iterations_run);
        assert_eq!(out.bits, scalar.bits);
    }

    #[test]
    fn trace_contains_the_expected_simd_mix() {
        let k = 40;
        let bits = random_bits(k, 2);
        let input = make_input(&bits, k, 60, 0, 0);
        let (out, trace) = SimdTurboDecoder::new(k, 1, RegWidth::Sse128).decode_traced(&input, 1);
        assert_eq!(out.bits, bits);
        let h = trace.class_histogram();
        assert!(
            h.vec_alu > h.store,
            "decoder is calculation-dominated: {h:?}"
        );
        // the profile-relevant instruction kinds all appear
        for kind in [
            OpKind::VAdds,
            OpKind::VSubs,
            OpKind::VMax,
            OpKind::VShuffle,
            OpKind::ExtractLane,
        ] {
            assert!(
                trace.ops.iter().any(|o| o.kind == kind),
                "{kind:?} missing from decoder trace"
            );
        }
    }

    #[test]
    fn hmax_tree_equals_sequential_max() {
        let mut mem = Mem::new();
        let r = mem.alloc_from(&[3, -7, 22, 0, 21, -1, 5, 22]);
        let mut vm = Vm::native(mem);
        let t = vm.load(RegWidth::Sse128, r);
        let m = hmax8(&mut vm, t);
        assert!(vm.value(m).lanes().iter().all(|&l| l == 22));
    }

    /// The VM arm of `vran-phy`'s waterfall sweep: the same 2 048
    /// CRC24B-bearing K = 512 blocks on the same seeds stop on the same
    /// SISO pass, with the same bits and verdict, as the scalar oracle.
    #[test]
    fn vm_decoder_stops_on_the_oracles_siso_pass_across_the_waterfall() {
        use vran_phy::llr::adds16;
        use vran_util::rng::SmallRng;
        const K: usize = 512;
        const CAP: usize = 3;
        let oracle = TurboDecoder::new(K, CAP);
        let vm_dec = SimdTurboDecoder::new(K, CAP, RegWidth::Sse128);
        for seed in 0..2048u64 {
            let cw = TurboEncoder::new(K).encode(&CRC24B.attach(&random_bits(K - 24, seed)));
            let mut rng = SmallRng::seed_from_u64(seed ^ 0x16);
            let noise = 16 + seed % 11;
            let soft = cw.to_dstreams().map(|st| {
                st.iter()
                    .map(|&b| {
                        let n = (rng.next_u64() % (2 * noise + 1)) as i16 - noise as i16;
                        adds16(bit_to_llr(b, 12), n)
                    })
                    .collect()
            });
            let b = TurboLlrs::from_dstreams(&soft, K);
            let want = oracle.decode_with_crc(&b, &CRC24B);
            let mut mem = Mem::new();
            let [sys, p1, p2] =
                [&b.streams.sys, &b.streams.p1, &b.streams.p2].map(|s| mem.alloc_from(s));
            let mut vm = Vm::native(mem);
            let got = vm_dec.decode_in_vm(&mut vm, sys, p1, p2, &b.tails, Some(&CRC24B));
            assert_eq!(got, want, "seed {seed}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        #[test]
        fn simd_and_scalar_decoders_agree_on_garbage(seed in any::<u64>()) {
            // Bit-exactness must hold even on inputs that exercise
            // saturation everywhere.
            let k = 40;
            let mk = |s: u64| -> Vec<i16> {
                let mut x = s | 1;
                (0..k)
                    .map(|_| {
                        x ^= x >> 12;
                        x ^= x << 25;
                        x ^= x >> 27;
                        (x >> 48) as i16
                    })
                    .collect()
            };
            let input = TurboLlrs {
                k,
                streams: SoftStreams { sys: mk(seed), p1: mk(seed ^ 3), p2: mk(seed ^ 7) },
                tails: Default::default(),
            };
            let scalar = TurboDecoder::new(k, 2).decode(&input);
            let simd = SimdTurboDecoder::new(k, 2, RegWidth::Sse128).decode_native(&input);
            prop_assert_eq!(scalar.bits, simd.bits);
        }
    }
}
