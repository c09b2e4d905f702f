//! Workload generators: instruction-class microkernels (Figure 7) and
//! traced twins of the scalar pipeline modules (Figures 3–6).
//!
//! The SIMD-accelerated hot paths (data arrangement, max-log-MAP
//! decoding) are traced from their VM implementations in
//! [`crate::arrange`] / [`crate::turbo`]. The modules the paper profiles as
//! scalar (scrambling, rate matching, DCI, OFDM, encoding) run as
//! native Rust in the pipeline — several on `std::arch` kernels by now;
//! for the micro-architectural figures they are represented by
//! **traced twins** — synthetic µop streams with the same instruction
//! mix, dependency structure and memory footprint as the real code
//! (documented per twin below, per DESIGN.md §2). The tests pin each
//! twin's simulated profile to the band the paper reports.

use vran_simd::{Mem, MemRef, RegWidth, Trace, Vm};

/// Working set (in i16 elements) that fits every modeled cache — used
/// when a kernel should be compute-bound.
pub const SMALL_WS: usize = 4 << 10;
/// Working set that overflows the wimpy node's 256 KiB L2 but fits the
/// beefy node's 1 MiB L2 (the Figure 7 contrast).
pub const LARGE_WS: usize = 384 << 10;

fn vm_with_ws(ws: usize) -> (Vm, MemRef) {
    let mut mem = Mem::new();
    let buf = mem.alloc(ws.max(64));
    (Vm::tracing(mem), buf)
}

/// `_mm_adds_epi16` microkernel: two accumulator chains (the state-
/// metric updates of the decoder are serially dependent across trellis
/// steps) plus an independent add and a stream load every few steps,
/// and an interleaver-style *address-dependent* gather every 24 steps
/// — the hook through which the cache hierarchy becomes visible on the
/// wimpy node. Paper profile (beefy): IPC ≈ 2.8, backend ≈ 35 %.
pub fn adds_kernel(ws: usize, reps: usize) -> Trace {
    binary_alu_kernel(ws, reps, false)
}

/// `_mm_subs_epi16` microkernel — same structure as [`adds_kernel`]
/// with subtracts. Paper: IPC ≈ 2.7.
pub fn subs_kernel(ws: usize, reps: usize) -> Trace {
    binary_alu_kernel(ws, reps, true)
}

fn binary_alu_kernel(ws: usize, reps: usize, use_subs: bool) -> Trace {
    let (mut vm, buf) = vm_with_ws(ws);
    let l = RegWidth::Sse128.lanes();
    let span = (ws / l).max(4);
    let mut x = vm.load(RegWidth::Sse128, buf.slice(0, l));
    let y = vm.load(RegWidth::Sse128, buf.slice(l, l));
    let mut a1 = vm.splat(RegWidth::Sse128, 0);
    let mut a2 = vm.splat(RegWidth::Sse128, 1);
    for i in 0..reps {
        // two serial accumulator chains plus an independent op per
        // step: ≈3 ALU instr + 0.25 loads per cycle steady state
        a1 = if use_subs {
            vm.subs(a1, x)
        } else {
            vm.adds(a1, x)
        };
        a2 = if use_subs {
            vm.subs(a2, y)
        } else {
            vm.adds(a2, y)
        };
        let _ = if use_subs {
            vm.subs(x, y)
        } else {
            vm.adds(x, y)
        };
        let off = ((i / 4) * 7 % span) * l;
        if i % 128 == 127 {
            // interleaver gather: the next address depends on computed
            // data, exposing cache latency (Figure 7's wimpy bars)
            x = vm.load_indexed(RegWidth::Sse128, buf.slice(off, l), a1);
        } else if i % 4 == 3 {
            x = vm.load(RegWidth::Sse128, buf.slice(off, l));
        }
    }
    vm.take_trace()
}

/// `_mm_max_epi16` microkernel: the decoding algorithm's "unavoidable
/// data dependencies" (paper §4.2) — a pair of max chains where the
/// second feeds off the first. Paper profile: IPC ≈ 2.2.
pub fn max_kernel(ws: usize, reps: usize) -> Trace {
    let (mut vm, buf) = vm_with_ws(ws);
    let l = RegWidth::Sse128.lanes();
    let span = (ws / l).max(4);
    let mut x = vm.load(RegWidth::Sse128, buf.slice(0, l));
    let mut m1 = vm.splat(RegWidth::Sse128, i16::MIN);
    let mut m2 = vm.splat(RegWidth::Sse128, i16::MIN);
    for i in 0..reps {
        m1 = vm.max(m1, x);
        m2 = vm.max(m2, m1); // cascaded dependence, as in the ACS loop
        let off = ((i / 4) * 5 % span) * l;
        if i % 128 == 127 {
            x = vm.load_indexed(RegWidth::Sse128, buf.slice(off, l), m2);
        } else if i % 4 == 3 {
            x = vm.load(RegWidth::Sse128, buf.slice(off, l));
        }
    }
    vm.take_trace()
}

/// `_mm_extract` microkernel: the data-movement instruction stream of
/// the original arrangement (load, then `pextrw` every lane, plus the
/// pointer arithmetic the compiler emits). Paper profile: IPC ≈ 1.5,
/// backend ≈ 55 %.
pub fn extract_kernel(ws: usize, reps: usize) -> Trace {
    let (mut vm, buf) = vm_with_ws(ws + 16);
    let l = RegWidth::Sse128.lanes();
    let span = (ws / l).max(4);
    for i in 0..reps {
        let off = (i % span) * l;
        let r = vm.load(RegWidth::Sse128, buf.slice(off, l));
        vm.scalar_ops(2); // destination pointer updates
        for lane in 0..l {
            vm.extract_store(r, lane, buf.base + ws + lane);
        }
    }
    vm.take_trace()
}

/// "do OFDM" scalar microkernel: radix-2 butterfly structure — two
/// (partly index-dependent, bit-reversal style) loads, a handful of
/// independent scalar ALU ops, two stores. Paper profile: IPC ≈ 3.8,
/// negligible backend bound (beefy).
///
/// This is the paper's Figure 7 instrument, not the pipeline's FFT:
/// `vran_phy::ofdm` runs a planned native-SIMD transform, and this
/// twin keeps the scalar instruction class the figure profiles.
pub fn ofdm_scalar_kernel(ws: usize, butterflies: usize) -> Trace {
    let (mut vm, buf) = vm_with_ws(ws);
    for i in 0..butterflies {
        let span = ws.max(64);
        let a = (i * 17) % (span / 2);
        // twiddle/index arithmetic, then the butterfly's 6 scalar ops
        vm.scalar_ops(2);
        vm.copy16(buf.base + a, buf.base + span / 2 + a);
        vm.scalar_ops(6);
        vm.copy16(buf.base + span / 2 + a, buf.base + a);
    }
    vm.take_trace()
}

/// Scrambling twin: the Gold-sequence XOR loop — word loads, a few
/// shifts/xors, word stores; long independent stream. Near-ideal
/// scalar IPC.
pub fn scrambling_twin(bits: usize) -> Trace {
    let words = bits.div_ceil(16).max(1);
    let (mut vm, buf) = vm_with_ws(words + 1);
    for i in 0..words {
        vm.scalar_ops(3); // x1/x2 LFSR steps
        vm.copy16(buf.base + i, buf.base + i);
        vm.scalar_ops(1); // xor
    }
    vm.take_trace()
}

/// Receiver-side descrambling: the *real* SIMD LLR sign-flip kernel
/// [`crate::scrambler::descramble_llrs_simd`], traced — not a twin.
/// Replaces the scrambling twin on the uplink (Figures 3/5), where the
/// profiled work is LLR-domain.
pub fn descrambling_trace(llrs: usize) -> Trace {
    use crate::scrambler::descramble_llrs_simd;
    let mut mem = vran_simd::Mem::new();
    let vals: Vec<i16> = (0..llrs).map(|i| (i % 255) as i16 - 127).collect();
    let region = mem.alloc_from(&vals);
    let mut vm = vran_simd::Vm::tracing(mem);
    descramble_llrs_simd(&mut vm, region, 0x5A5A5, RegWidth::Sse128);
    vm.take_trace()
}

/// Rate-matching twin: sub-block interleaver gather — per output word
/// a little index arithmetic, a (mostly independent) table load and a
/// store. Every 16th load is part of a dependent chain, modeling the
/// serialized pointer walks in the circular-buffer readout; those
/// chains are what expose the cache hierarchy on the wimpy node while
/// the kernel stays near-ideal IPC on a warm beefy core.
pub fn rate_match_twin(bits: usize, ws: usize) -> Trace {
    let words = bits.div_ceil(16).max(1);
    let (mut vm, buf) = vm_with_ws(ws.max(words + 2));
    let mut idx = vm.splat(RegWidth::Sse128, 0);
    let l = RegWidth::Sse128.lanes();
    let span = (ws.max(64) / l).max(2);
    for i in 0..words {
        vm.scalar_ops(2); // permutation index computation
        let off = (i * 7 % span) * l;
        if i % 16 == 0 {
            idx = vm.load_indexed(RegWidth::Sse128, buf.slice(off, l), idx);
        } else {
            vm.load(RegWidth::Sse128, buf.slice(off, l));
        }
        vm.copy16(
            buf.base + (i % ws.max(64)),
            buf.base + ((i + 1) % ws.max(64)),
        );
    }
    vm.take_trace()
}

/// DCI twin: Viterbi add-compare-select — scalar ALU with a
/// data-dependent branch per step; a small deterministic fraction
/// mispredicts. Near-ideal IPC with a visible bad-speculation sliver.
pub fn dci_twin(steps: usize) -> Trace {
    let (mut vm, _buf) = vm_with_ws(64);
    for i in 0..steps {
        vm.scalar_ops(6); // branch metrics + compares
        vm.branch(i % 50 == 49); // 2% mispredict
    }
    vm.take_trace()
}

/// Turbo-encoder twin: bit-serial shift-register stepping — pure
/// scalar dependency-light ALU plus occasional stores.
pub fn turbo_encode_twin(bits: usize) -> Trace {
    let (mut vm, buf) = vm_with_ws(bits.div_ceil(16).max(64));
    for i in 0..bits {
        vm.scalar_ops(3); // feedback, parity, state update
        if i % 16 == 15 {
            vm.copy16(buf.base + (i / 16) % 64, buf.base + (i / 16) % 64);
        }
    }
    vm.take_trace()
}

/// Soft-demapper workload: the *real* fixed-point 16-QAM SIMD demapper
/// from [`crate::modulation_simd`], traced — `_mm_adds`/`_mm_subs`/
/// `_mm_max` over symbol blocks, the "Demodulation" bar of Figures
/// 3/5.
pub fn demodulation_twin(symbols: usize) -> Trace {
    use crate::modulation_simd::demap_qam16_simd;
    let n = (2 * symbols).max(16); // I+Q samples
    let mut mem = vran_simd::Mem::new();
    let iq: Vec<i16> = (0..n).map(|i| ((i * 97) % 4096) as i16 - 2048).collect();
    let r = mem.alloc_from(&iq);
    let inner = mem.alloc(n);
    let outer = mem.alloc(n);
    let mut vm = vran_simd::Vm::tracing(mem);
    demap_qam16_simd(&mut vm, r, inner, outer, RegWidth::Sse128);
    vm.take_trace()
}

#[cfg(test)]
mod tests {
    use super::*;
    use vran_uarch::{CoreConfig, CoreSim};

    fn beefy(trace: &Trace) -> vran_uarch::SimReport {
        // Steady-state, as the paper's long-running profiles measure.
        CoreSim::new(CoreConfig::beefy().warmed()).run(trace)
    }

    #[test]
    fn adds_and_subs_profiles_match_paper_band() {
        for t in [adds_kernel(SMALL_WS, 4000), subs_kernel(SMALL_WS, 4000)] {
            let r = beefy(&t);
            assert!(
                (2.2..3.2).contains(&r.ipc),
                "SIMD calculation IPC should be ≈2.5–2.8, got {}",
                r.ipc
            );
        }
    }

    #[test]
    fn max_kernel_is_dependency_limited() {
        let r = beefy(&max_kernel(SMALL_WS, 4000));
        assert!(
            (1.7..2.6).contains(&r.ipc),
            "max chain IPC ≈ 2.2, got {}",
            r.ipc
        );
        let adds = beefy(&adds_kernel(SMALL_WS, 4000));
        assert!(r.ipc < adds.ipc, "max must trail adds (paper §4.2)");
    }

    #[test]
    fn extract_kernel_is_movement_bound() {
        let r = beefy(&extract_kernel(SMALL_WS, 1000));
        assert!(
            (1.0..1.9).contains(&r.ipc),
            "extract IPC ≈ 1.5, got {}",
            r.ipc
        );
        assert!(
            r.topdown.backend() > 0.3,
            "movement kernel backend should dominate stalls (paper ≈55 %), got {:?}",
            r.topdown
        );
        // store ports hot, vector ALU ports nearly idle (only the
        // kernel's few scalar ops borrow P0-P3) — the paper's
        // idle-port observation
        assert!(
            r.port_util[6] > 0.7 && r.port_util[7] > 0.7,
            "{:?}",
            r.port_util
        );
        assert!(r.port_util[2] < 0.2, "{:?}", r.port_util);
    }

    #[test]
    fn ofdm_kernel_is_near_ideal_scalar() {
        let r = beefy(&ofdm_scalar_kernel(SMALL_WS, 2000));
        assert!(r.ipc > 3.3, "do_OFDM IPC ≈ 3.8, got {}", r.ipc);
        assert!(r.topdown.backend() < 0.2, "{:?}", r.topdown);
    }

    #[test]
    fn scalar_twins_have_high_retiring() {
        for t in [
            scrambling_twin(10_000),
            turbo_encode_twin(5_000),
            dci_twin(2_000),
        ] {
            let r = beefy(&t);
            assert!(
                r.topdown.retiring > 0.6,
                "scalar twin retiring low: {:?}",
                r.topdown
            );
        }
    }

    #[test]
    fn dci_twin_shows_bad_speculation() {
        let r = beefy(&dci_twin(5_000));
        assert!(
            r.topdown.bad_speculation > 0.01 && r.topdown.bad_speculation < 0.25,
            "{:?}",
            r.topdown
        );
    }

    #[test]
    fn demodulation_twin_is_simd_calculation() {
        let r = beefy(&demodulation_twin(8_000));
        let h = r.class_hist;
        assert!(h.vec_alu > h.scalar_alu, "{h:?}");
        assert!((2.0..4.0).contains(&r.ipc), "{}", r.ipc);
    }

    #[test]
    fn large_working_set_hurts_wimpy_more() {
        // Figure 7's wimpy-vs-beefy contrast, via the rate-match twin
        // (the gather-heavy module).
        let t = rate_match_twin(60_000, LARGE_WS);
        let w = CoreSim::new(CoreConfig::wimpy().warmed()).run(&t);
        let b = CoreSim::new(CoreConfig::beefy().warmed()).run(&t);
        assert!(
            w.topdown.backend_mem > b.topdown.backend_mem,
            "wimpy {:?} vs beefy {:?}",
            w.topdown,
            b.topdown
        );
    }
}
