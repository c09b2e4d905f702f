//! Property-based equivalence of the arrangement kernels: for any LLR
//! contents and any legal block size, every mechanism at every width
//! must reproduce the scalar oracle — and identical decoder outcomes.

use apcm::arrange::{ApcmVariant, ArrangeKernel, Mechanism};
use vran_phy::interleaver::QPP_TABLE;
use vran_phy::llr::{InterleavedLlrs, TurboLlrs};
use vran_phy::turbo::{TurboDecoder, TurboEncoder};
use vran_simd::RegWidth;
use vran_util::proptest::prelude::*;

fn mechanisms() -> [Mechanism; 3] {
    [
        Mechanism::Baseline,
        Mechanism::Apcm(ApcmVariant::Shuffle),
        Mechanism::Apcm(ApcmVariant::MaskRotate),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn kernels_match_oracle_for_any_contents(
        seed in any::<u64>(),
        k_idx in 0usize..16,
        width_idx in 0usize..3,
        mech_idx in 0usize..3,
    ) {
        // small block sizes keep the cases quick; every lane-count
        // relationship (divisible / ragged) is covered
        let k = QPP_TABLE[k_idx].k as usize;
        let data: Vec<i16> = {
            let mut s = seed | 1;
            (0..3 * k)
                .map(|_| {
                    s ^= s >> 12;
                    s ^= s << 25;
                    s ^= s >> 27;
                    (s >> 48) as i16
                })
                .collect()
        };
        let input = InterleavedLlrs { k, data };
        let expect = input.deinterleave_scalar();
        let kern = ArrangeKernel::new(RegWidth::ALL[width_idx], mechanisms()[mech_idx]);
        let (got, _) = kern.arrange(&input, false);
        prop_assert_eq!(kern.depermute(&got), expect);
    }

    #[test]
    fn trace_mode_never_changes_results(seed in any::<u64>()) {
        let k = 104;
        let input = vran_net::pipeline::synthetic_interleaved(k, seed);
        for mech in mechanisms() {
            let kern = ArrangeKernel::new(RegWidth::Sse128, mech);
            let (native, none) = kern.arrange(&input, false);
            let (traced, trace) = kern.arrange(&input, true);
            prop_assert!(none.is_none());
            prop_assert!(trace.is_some());
            prop_assert_eq!(&native, &traced);
        }
    }

    #[test]
    fn store_payload_is_mechanism_invariant(seed in any::<u64>(), width_idx in 0usize..3) {
        // Total bytes written register→L1 is the data itself; only the
        // instruction mix differs between mechanisms.
        let input = vran_net::pipeline::synthetic_interleaved(96, seed);
        let width = RegWidth::ALL[width_idx];
        let mut payloads = Vec::new();
        for mech in [Mechanism::Baseline, Mechanism::Apcm(ApcmVariant::Shuffle)] {
            let (_, t) = ArrangeKernel::new(width, mech).arrange(&input, true);
            payloads.push(t.unwrap().store_bytes());
        }
        prop_assert_eq!(payloads[0], payloads[1]);
    }
}

#[test]
fn decoder_is_blind_to_the_arrangement_mechanism() {
    // Arrange with every mechanism, decode, demand identical bits —
    // including on partially corrupted input where any arrangement bug
    // would steer the iterative decoder differently.
    let k = 208;
    let bits = vran_phy::bits::random_bits(k, 400);
    let cw = TurboEncoder::new(k).encode(&bits);
    let d = cw.to_dstreams();
    let mut soft: [Vec<i16>; 3] = d
        .iter()
        .map(|s| {
            s.iter()
                .map(|&b| if b == 0 { 48i16 } else { -48 })
                .collect()
        })
        .collect::<Vec<_>>()
        .try_into()
        .unwrap();
    // corrupt some coded positions
    for i in (0..k).step_by(17) {
        soft[i % 3][i] = -soft[i % 3][i] / 3;
    }
    let turbo_in = TurboLlrs::from_dstreams(&soft, k);
    let interleaved = turbo_in.to_interleaved();
    let dec = TurboDecoder::new(k, 6);

    let mut outcomes = Vec::new();
    for width in RegWidth::ALL {
        for mech in mechanisms() {
            let kern = ArrangeKernel::new(width, mech);
            let (streams, _) = kern.arrange(&interleaved, false);
            let streams = kern.depermute(&streams);
            let input = TurboLlrs {
                k,
                streams,
                tails: turbo_in.tails,
            };
            outcomes.push(dec.decode(&input).bits);
        }
    }
    for o in &outcomes[1..] {
        assert_eq!(
            o, &outcomes[0],
            "decoder outcome depends on arrangement mechanism"
        );
    }
    assert_eq!(
        outcomes[0], bits,
        "the common outcome should be a correct decode"
    );
}
