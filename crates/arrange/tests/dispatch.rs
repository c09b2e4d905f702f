//! The dispatch contract of every kernel family — the five in
//! `vran-phy`, the two here — and of `HostIsa` itself:
//!
//! * under every ISA ceiling, `best_tier` picks the highest rung of the
//!   family's ladder that the ceiling admits and the uncapped host has,
//!   and the ladder starts at a floor that needs no SIMD at all; the
//!   table is printed (`--nocapture`), so a log names the tier each
//!   family runs at on its host, from the function the product
//!   dispatches on;
//! * under the Scalar ceiling, every safe entry point that takes a tier
//!   refuses each tier that needs more, rather than run it.
//!
//! Its own test binary (= its own process): the ceiling is
//! process-global.

use std::fmt::Debug;
use std::panic::{catch_unwind, AssertUnwindSafe};
use vran_arrange::native::{deinterleave_into, NativeImpl};
use vran_arrange::{fused_ingest_into, FusedImpl};
use vran_phy::crc::{CrcImpl, CRC24B};
use vran_phy::demap::{demap_into, DemapImpl};
use vran_phy::llr::SoftStreams;
use vran_phy::modulation::{Cplx, Modulation};
use vran_phy::scrambler::{descramble_llrs_with, DescrambleImpl};
use vran_phy::turbo::{DecoderIsa, EncoderIsa, NativeTurboDecoder, PackedTurboEncoder};
use vran_simd::host::{best_tier, tiers, with_isa_ceiling, HostIsa, Tier};

/// No ceiling, then every level from the top down.
fn ceilings() -> impl Iterator<Item = Option<HostIsa>> {
    std::iter::once(None).chain(HostIsa::LADDER.iter().rev().map(|&c| Some(c)))
}

/// One family's column of the table: `family=tier` under each of
/// [`ceilings`], every pick checked against the ladder.
fn column<T: Tier + PartialEq + Debug>(family: &str, name: fn(T) -> &'static str) -> Vec<String> {
    assert_eq!(T::LADDER[0].required_isa(), HostIsa::Scalar, "{family}");
    let host: Vec<T> = with_isa_ceiling(None, || tiers().collect());
    let column = ceilings().map(|ceiling| {
        let admitted = |t: &&T| host.contains(t) && ceiling.is_none_or(|c| t.required_isa() <= c);
        let want = T::LADDER.iter().rfind(admitted);
        let got = with_isa_ceiling(ceiling, best_tier::<T>);
        assert_eq!(Some(&got), want, "{family} {ceiling:?}");
        format!("{family}={}", name(got))
    });
    column.collect()
}

#[test]
fn tier_table_follows_every_ceiling() {
    let columns = [
        column("host", HostIsa::name),
        column("demap", DemapImpl::name),
        column("descramble", DescrambleImpl::name),
        column("crc", CrcImpl::name),
        column("fused", FusedImpl::name),
        column("native", NativeImpl::name),
        column("decoder", DecoderIsa::name),
        column("encoder", EncoderIsa::name),
    ];
    for (i, ceiling) in ceilings().enumerate() {
        let row: Vec<&str> = columns.iter().map(|c| c[i].as_str()).collect();
        let ceiling = ceiling.map_or("none", HostIsa::name);
        println!("ceiling={ceiling} {}", row.join(" "));
    }
}

/// Call `entry` with every tier of `T` that needs more than the floor,
/// under the Scalar ceiling, and require the refusal for each.
fn refuses_above_the_floor<T: Tier>(name: fn(T) -> &'static str, entry: impl Fn(T)) {
    with_isa_ceiling(Some(HostIsa::Scalar), || {
        for &t in &T::LADDER[1..] {
            if t.required_isa() > HostIsa::Scalar {
                let refusal = catch_unwind(AssertUnwindSafe(|| entry(t))).expect_err(name(t));
                let message = refusal.downcast_ref::<String>().map_or("", String::as_str);
                assert!(message.starts_with("host lacks"), "{message:?}");
            }
        }
    });
}

#[test]
fn every_entry_point_refuses_a_tier_the_host_lacks() {
    let k = 64;
    let symbols = [Cplx::default(); 64];
    refuses_above_the_floor(DemapImpl::name, |t| {
        demap_into(t, Modulation::Qpsk, &symbols, 1.0, &mut Vec::new());
    });
    refuses_above_the_floor(DescrambleImpl::name, |t| {
        descramble_llrs_with(t, &mut [0; 64], 1);
    });
    refuses_above_the_floor(CrcImpl::name, |t| {
        CRC24B.compute_with(t, &[1; 512]);
    });
    let interleaved = vec![0; 3 * k];
    refuses_above_the_floor(FusedImpl::name, |t| {
        let [mut sys, mut p1, mut p2] = [0, 1, 2].map(|_| vec![0; k]);
        fused_ingest_into(t, &interleaved, k, &mut sys, &mut p1, &mut p2);
    });
    refuses_above_the_floor(NativeImpl::name, |t| {
        deinterleave_into(t, &interleaved, k, &mut SoftStreams::zeros(k));
    });
    refuses_above_the_floor(DecoderIsa::name, |t| {
        NativeTurboDecoder::with_isa(40, 1, t);
    });
    refuses_above_the_floor(EncoderIsa::name, |t| {
        PackedTurboEncoder::with_isa(40, t);
    });
}
