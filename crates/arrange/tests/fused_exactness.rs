//! The `fused_exactness` sweep: both native arrangement families
//! against the independent scalar oracle across **all 188** TS 36.212
//! block sizes and **every** host-ISA tier.
//!
//! The uplink receive chain arranges every code block with
//! `fused_ingest_into` — the best tier under `Profile::Production`,
//! `FusedImpl::Scalar` under `Profile::Reference` — on the strength of
//! this sweep: whatever K the segmenter picks and
//! whatever tier the dispatcher lands on — AVX-512BW zmm, SSSE3 xmm or
//! the scalar floor — the fused kernel must reproduce the scalar
//! deinterleave bit for bit, including the ragged scalar tail and the
//! four tail triples that ride beyond `3K` in the de-rate-matcher's
//! interleaved buffer. Every `NativeImpl` rung runs through
//! `native::deinterleave` on the same inputs: its APCM rungs are
//! the fused kernels, its original-mechanism rungs carry their own
//! scalar tails. Both compare against
//! `InterleavedLlrs::deinterleave_scalar`, not a rung of either ladder.
//!
//! Lives in its own integration-test binary because the ISA ceiling is
//! process-global; the sweep loops the tiers inside one `#[test]` so
//! masked regions never overlap.

use vran_arrange::native::{deinterleave, NativeImpl};
use vran_arrange::{fused_ingest_into, FusedImpl};
use vran_phy::interleaver::QPP_TABLE;
use vran_phy::llr::{InterleavedLlrs, Llr, SoftStreams};
use vran_simd::host::{tiers, with_isa_ceiling, HostIsa, Tier};

/// Deterministic non-trivial LLRs; tail region beyond `3k` poisoned to
/// catch any kernel reading past the K-th triple.
fn interleaved(k: usize) -> Vec<Llr> {
    let mut v: Vec<Llr> = (0..3 * k)
        .map(|i| ((i as i64 * 2654435761 + k as i64 * 97) % 5003 - 2501) as i16)
        .collect();
    v.extend(std::iter::repeat_n(i16::MAX, 12)); // 4 tail triples
    v
}

fn run(imp: FusedImpl, input: &[Llr], k: usize) -> SoftStreams {
    let mut out = SoftStreams::zeros(k);
    fused_ingest_into(imp, input, k, &mut out.sys, &mut out.p1, &mut out.p2);
    out
}

#[test]
fn all_188_block_sizes_bit_exact_at_every_isa_tier() {
    // Oracle outputs computed once, from the first `3k` LLRs only.
    let cases: Vec<(usize, Vec<Llr>, SoftStreams)> = QPP_TABLE
        .iter()
        .map(|row| {
            let k = row.k as usize;
            let input = interleaved(k);
            let data = input[..3 * k].to_vec();
            let expect = InterleavedLlrs { k, data }.deinterleave_scalar();
            (k, input, expect)
        })
        .collect();
    assert_eq!(cases.len(), 188, "the registry drives the sweep");

    for &ceiling in HostIsa::LADDER {
        with_isa_ceiling(Some(ceiling), || {
            for (k, input, expect) in &cases {
                let at = |name: &str| format!("K={k} {name} under {} ceiling", ceiling.name());
                for imp in tiers::<FusedImpl>() {
                    assert_eq!(&run(imp, input, *k), expect, "{}", at(imp.name()));
                }
                for imp in tiers::<NativeImpl>() {
                    let got = deinterleave(imp, &input[..3 * k], *k);
                    assert_eq!(&got, expect, "{}", at(imp.name()));
                }
            }
        });
    }
}

#[test]
fn sweep_covers_both_vector_group_shapes() {
    // Sanity on the registry itself: every TS 36.212 K is a multiple
    // of 8 (whole xmm groups, never a ragged 128-bit tail), but the
    // zmm kernels see both whole-group K and K with an 8/16/24-element
    // remainder (an overlapping group in the fused kernel, a scalar
    // tail in the original) — so the sweep above exercises every code
    // path that exists on real block sizes.
    let ks: Vec<usize> = QPP_TABLE.iter().map(|r| r.k as usize).collect();
    assert!(ks.iter().all(|k| k % 8 == 0), "standard K are xmm-whole");
    assert!(ks.iter().any(|k| k % 32 == 0), "whole zmm groups");
    assert!(ks.iter().any(|k| k % 32 != 0), "zmm scalar tails");
}
