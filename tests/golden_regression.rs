//! Golden-value regression tests: the simulator is deterministic, so
//! the exact cycle counts of the headline kernels are pinned here. A
//! change to the scheduler, latency table, port model or kernel
//! structure that moves these numbers is *visible* — update the
//! constants deliberately, with a note in EXPERIMENTS.md if the figure
//! bands move.

use apcm::arrange::{ApcmVariant, ArrangeKernel, Mechanism};
use vran_net::pipeline::synthetic_interleaved;
use vran_simd::RegWidth;
use vran_uarch::{CoreConfig, CoreSim};

fn cycles(width: RegWidth, mech: Mechanism) -> u64 {
    let input = synthetic_interleaved(768, 42);
    let (_, trace) = ArrangeKernel::new(width, mech).arrange(&input, true);
    CoreSim::new(CoreConfig::beefy().warmed())
        .run(&trace.unwrap())
        .cycles
}

#[test]
fn golden_arrangement_cycles() {
    // 768 triples, beefy steady state. The *ratios* are the paper's
    // claims; the absolute values are the regression pins.
    let table = [
        (RegWidth::Sse128, Mechanism::Baseline, 2310),
        (RegWidth::Sse128, Mechanism::Apcm(ApcmVariant::Shuffle), 519),
        (RegWidth::Avx256, Mechanism::Baseline, 2457),
        (RegWidth::Avx256, Mechanism::Apcm(ApcmVariant::Shuffle), 263),
        (RegWidth::Avx512, Mechanism::Baseline, 2535),
        (RegWidth::Avx512, Mechanism::Apcm(ApcmVariant::Shuffle), 135),
    ];
    for (w, m, expect) in table {
        let got = cycles(w, m);
        assert_eq!(
            got,
            expect,
            "{w}/{}: cycle count moved (golden {expect}, got {got}) — \
             intentional change? update the pin and EXPERIMENTS.md",
            m.name()
        );
    }
}

#[test]
fn golden_trace_shapes() {
    // µop counts are structural: 768 triples = 96 xmm groups.
    let input = synthetic_interleaved(768, 42);
    let (_, t) = ArrangeKernel::new(RegWidth::Sse128, Mechanism::Baseline).arrange(&input, true);
    let t = t.unwrap();
    // per group: 3 loads + 24 pextrw × 2 µops = 51
    assert_eq!(t.len(), 96 * 51);
    assert_eq!(t.instr_count(), 96 * 27);

    let (_, t) = ArrangeKernel::new(RegWidth::Sse128, Mechanism::Apcm(ApcmVariant::Shuffle))
        .arrange(&input, true);
    let t = t.unwrap();
    // per group: 3 loads + 9 shuffles + 6 ors + 3 stores = 21
    assert_eq!(t.len(), 96 * 21);
}

#[test]
fn golden_decoder_cycles() {
    use apcm::turbo::simd_decoder::SimdTurboDecoder;
    use vran_phy::bits::random_bits;
    use vran_phy::llr::{bit_to_llr, TurboLlrs};
    use vran_phy::turbo::TurboEncoder;

    let k = 128;
    let bits = random_bits(k, 7);
    let cw = TurboEncoder::new(k).encode(&bits);
    let d = cw.to_dstreams();
    let soft: [Vec<i16>; 3] = d
        .iter()
        .map(|s| s.iter().map(|&b| bit_to_llr(b, 60)).collect())
        .collect::<Vec<_>>()
        .try_into()
        .unwrap();
    let input = TurboLlrs::from_dstreams(&soft, k);
    let (out, trace) = SimdTurboDecoder::new(k, 1, RegWidth::Sse128).decode_traced(&input, 1);
    assert_eq!(out.bits, bits);
    let r = CoreSim::new(CoreConfig::beefy().warmed()).run(&trace);
    let per_step = r.cycles as f64 / k as f64;
    assert!(
        (15.0..50.0).contains(&per_step),
        "decoder cost drifted: {per_step:.1} cycles/step/iteration"
    );
}
