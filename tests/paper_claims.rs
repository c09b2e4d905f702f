//! The paper's headline claims, asserted end-to-end against the
//! reproduction (bands per EXPERIMENTS.md — shape and magnitude, not
//! testbed-exact absolutes). The banded numbers are one table,
//! [`apcm::claims::all`], which `--bin check` prints; the tests below
//! hold the trends and ratios the table does not.

use apcm::experiments;

/// Assert that every row of the claims table whose `what` starts with
/// `prefix` lands in its band, and that at least one row does.
fn assert_claims_in_band(prefix: &str) {
    let rows: Vec<_> = apcm::claims::all()
        .into_iter()
        .filter(|c| c.what.starts_with(prefix))
        .collect();
    assert!(!rows.is_empty(), "no claim row starts with {prefix:?}");
    let off: Vec<String> = rows
        .iter()
        .filter(|c| !c.in_band())
        .map(|c| {
            format!(
                "{} (paper {}): {:.2} {} outside [{}, {}]",
                c.what, c.paper, c.measured, c.unit, c.lo, c.hi
            )
        })
        .collect();
    assert!(off.is_empty(), "claims off band:\n{}", off.join("\n"));
}

/// Abstract claim 1: "decreases the data arrangement's backend bound
/// from 45 % to 3 %".
#[test]
fn claim_backend_bound_collapse() {
    assert_claims_in_band("arrangement backend bound");
}

/// Abstract claim 2: "promotes its memory bandwidth utilization by
/// 4X-16X".
#[test]
fn claim_bandwidth_4x_to_16x() {
    assert_claims_in_band("bandwidth speedup");
}

/// Abstract claim 3: "CPU time of the data arrangement process can be
/// reduced by 67 % - 92 %".
#[test]
fn claim_arrangement_cpu_time_reduction() {
    assert_claims_in_band("arrangement CPU-time reduction");
}

/// Abstract claim 4: "overall latency of the vRAN packet transmission
/// is decreased by 12 % - 20 %".
#[test]
fn claim_packet_latency_reduction() {
    assert_claims_in_band("packet-time reduction");
}

/// The abstract claims above and the Fig 8/15/16 anchors: every row of
/// the claims table lands in its band.
#[test]
fn every_claim_in_the_table_lands_in_its_band() {
    assert_claims_in_band("");
}

/// §6 claim: "the IPC soar from 1.2, 1.1, and 1.05 to 3.6, 3.5, 3.3"
/// (the 128-bit pair is a row of the claims table).
#[test]
fn claim_ipc_soars() {
    let f = experiments::fig15::run();
    for (w, o_hi, a_lo) in [("AVX256", 1.5, 3.3), ("AVX512", 1.5, 3.2)] {
        let orig = f.value(&format!("{w}/original"), "IPC").unwrap();
        let apcm = f.value(&format!("{w}/apcm"), "IPC").unwrap();
        assert!(orig < o_hi, "{w}: original IPC ≈1.0-1.2, got {orig:.2}");
        assert!(apcm > a_lo, "{w}: APCM IPC ≈3.3-3.6, got {apcm:.2}");
    }
}

/// §6 claim: "system utilization increase around 12 % to 29 %" and the
/// core-count reductions for a 300 Mbps station.
#[test]
fn claim_capacity_gains() {
    let f = experiments::fig16::run();
    for w in ["SSE128", "AVX256", "AVX512"] {
        let gain =
            f.value(w, "Mbps/core apcm").unwrap() / f.value(w, "Mbps/core orig").unwrap() - 1.0;
        assert!(
            (0.06..0.40).contains(&gain),
            "{w}: utilization gain ≈12-29 %, got {:.1}%",
            gain * 100.0
        );
    }
    let co = f.value("AVX512", "cores orig").unwrap();
    let ca = f.value("AVX512", "cores apcm").unwrap();
    assert!(
        co - ca >= 2.0,
        "AVX512 must save multiple cores (paper 12→9): {co}→{ca}"
    );
}

/// §6 claim: under the original mechanism "2.2 % more CPU time is
/// required for 256 bits registers" (and +6.4 % for 512): wider never
/// helps the original arrangement.
#[test]
fn claim_original_regresses_with_width() {
    let f = experiments::fig14::run();
    let a = [
        f.value("SSE128", "arrangement orig").unwrap(),
        f.value("AVX256", "arrangement orig").unwrap(),
        f.value("AVX512", "arrangement orig").unwrap(),
    ];
    assert!(a[1] >= a[0], "ymm must not beat xmm: {a:?}");
    assert!(a[2] >= a[1], "zmm must not beat ymm: {a:?}");
    // and the regression is in the single-digit-percent range
    assert!(a[2] / a[0] < 1.25, "regression should be mild: {a:?}");
}

/// §6 claim: under APCM "the 256 bits registers' CPU time decreases
/// 49 %" and 512 another 51 % — near-ideal width scaling.
#[test]
fn claim_apcm_scales_with_width() {
    let f = experiments::fig14::run();
    let a = [
        f.value("SSE128", "arrangement apcm").unwrap(),
        f.value("AVX256", "arrangement apcm").unwrap(),
        f.value("AVX512", "arrangement apcm").unwrap(),
    ];
    let step1 = 1.0 - a[1] / a[0];
    let step2 = 1.0 - a[2] / a[1];
    assert!(
        (0.35..0.65).contains(&step1),
        "≈49 % per doubling, got {:.0}%",
        step1 * 100.0
    );
    assert!(
        (0.35..0.65).contains(&step2),
        "≈51 % per doubling, got {:.0}%",
        step2 * 100.0
    );
}

/// §4.1 claim: the beefy server trades memory bound for core bound.
#[test]
fn claim_beefy_trades_memory_for_core_bound() {
    let f = experiments::fig07::run();
    let mut traded = 0;
    for k in ["_mm_adds", "_mm_subs", "_mm_max"] {
        let wm = f.value(&format!("wimpy/{k}"), "memory bound").unwrap();
        let bm = f.value(&format!("beefy/{k}"), "memory bound").unwrap();
        let wc = f.value(&format!("wimpy/{k}"), "core bound").unwrap();
        let bc = f.value(&format!("beefy/{k}"), "core bound").unwrap();
        if bm < wm && bc >= wc {
            traded += 1;
        }
    }
    assert!(
        traded >= 2,
        "most SIMD kernels must show the memory→core trade"
    );
}

/// Figure 9 claim: "the operation time proportion of the data
/// arrangement will become larger and larger" under the original
/// mechanism as registers widen, and trivial under APCM.
#[test]
fn claim_arrangement_share_trend() {
    let f = experiments::fig09::run();
    let orig_share_128 = f.value("SSE128", "share orig %").unwrap();
    let orig_share_512 = f.value("AVX512", "share orig %").unwrap();
    let apcm_share_512 = f.value("AVX512", "share apcm %").unwrap();
    assert!(
        orig_share_512 > orig_share_128,
        "original share must grow with width"
    );
    assert!(
        apcm_share_512 < 5.0,
        "APCM share at 512 bits ≈1.8 %, got {apcm_share_512:.1}%"
    );
}
