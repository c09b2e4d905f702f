//! Scalar-fallback coverage: simulate a SIMD-less host via the
//! `vran-simd` ISA ceiling and prove both directions survive it —
//! the production uplink's native decoder still decodes bit-exactly,
//! and the downlink's packed encoder and native decoder still run
//! bit-exactly — while flagging the lost speedup as
//! `native_simd_fallbacks` / `packed_encoder_fallbacks` metrics events. The zmm tiers get the
//! same treatment one rung up: under an AVX2 ceiling the zmm batch
//! decoder and the 512-bit packed encoder must degrade to their
//! narrower kernels bit-exactly, flagged as `batch_simd_fallbacks` /
//! `zmm_encoder_fallbacks`. The whole transmit chain is held to the
//! same rule at both ceilings: what `TxChain::tx` puts on the air does
//! not depend on which rung arranged it.
//!
//! Lives in its own integration-test binary (= its own process)
//! because the ceiling is process-global: unit tests elsewhere assume
//! the host's full capability set. Within this binary every run, the
//! uncapped references included, is inside `with_isa_ceiling`, so the
//! tests take turns.

use std::sync::Arc;
use vran_net::downlink::{DownlinkConfig, DownlinkPipeline};
use vran_net::metrics::PipelineMetrics;
use vran_net::packet::{PacketBuilder, Transport};
use vran_net::pipeline::{PipelineConfig, UplinkPipeline};
use vran_net::tx::TxChain;
use vran_net::{StageGraph, StageGraphConfig};
use vran_phy::modulation::Modulation;
use vran_simd::host::{with_isa_ceiling, HostIsa};

#[test]
fn native_backend_degrades_to_scalar_kernels_without_simd() {
    let cfg = PipelineConfig {
        snr_db: 12.0,
        ..Default::default()
    };
    let mut b = PacketBuilder::new(1000, 2000);
    let p = b.build(Transport::Udp, 512).unwrap();

    // Reference outcome with the host's real capabilities.
    let native =
        with_isa_ceiling(None, || UplinkPipeline::new(cfg).process(&p)).expect("12 dB decodes");

    // Mask every SIMD tier: the same pipeline must still decode — via
    // the native decoder's scalar kernels — and report the fallback.
    let metrics = Arc::new(PipelineMetrics::new());
    let masked = with_isa_ceiling(Some(HostIsa::Scalar), || {
        UplinkPipeline::with_metrics(cfg, metrics.clone()).process(&p)
    })
    .expect("scalar fallback decodes");

    assert_eq!(masked.tb_bits, native.tb_bits);
    assert_eq!(masked.code_blocks, native.code_blocks);
    assert_eq!(masked.coded_bits, native.coded_bits);
    assert_eq!(
        masked.decoder_iterations, native.decoder_iterations,
        "scalar kernels must be bit-exact with the SIMD path"
    );
    assert_eq!(
        metrics.native_simd_fallbacks.get(),
        1,
        "the lost SIMD speedup must be observable"
    );
    let snap = metrics.snapshot();
    assert_eq!(
        snap.iter()
            .find(|(name, _)| name == "native_simd_fallbacks")
            .map(|(_, v)| *v),
        Some(1.0),
        "fallback events must appear in snapshots: {snap:?}"
    );
}

#[test]
fn batched_decode_degrades_below_avx512_ceiling() {
    let cfg = PipelineConfig {
        snr_db: 12.0,
        ..Default::default()
    };
    // 1500 B segments into two equal-K code blocks, so two packets
    // fill a quad and a third leaves a pair at drain.
    let run = |pipe: UplinkPipeline| {
        let mut graph = StageGraph::new(pipe, StageGraphConfig::default());
        let mut b = PacketBuilder::new(1000, 2000);
        for _ in 0..3 {
            graph.admit(0, &b.build(Transport::Udp, 1500).unwrap());
        }
        graph.drain();
        std::iter::from_fn(|| graph.pop_completed())
            .map(|(_, r)| r.expect("12 dB decodes"))
            .map(|r| (r.tb_bits, r.code_blocks, r.coded_bits, r.decoder_iterations))
            .collect::<Vec<_>>()
    };

    // Reference outcome with the host's real capabilities (the zmm
    // batch kernel where available, single-block decodes otherwise).
    let full = with_isa_ceiling(None, || run(UplinkPipeline::new(cfg)));
    assert_eq!(full.len(), 3);

    // Cap the ISA at AVX2, then at SSSE3: the zmm kernel is off the
    // table, every lane of a launch must run as a single-block decode
    // (on the AVX2, then the SSSE3 kernel), bit-exactly, and flag the
    // loss.
    for ceiling in [HostIsa::Avx2, HostIsa::Ssse3] {
        let metrics = Arc::new(PipelineMetrics::new());
        let masked = with_isa_ceiling(Some(ceiling), || {
            run(UplinkPipeline::with_metrics(cfg, metrics.clone()))
        });

        assert_eq!(
            masked,
            full,
            "under {}: every lane keeps the quad kernel's bits and iterations",
            ceiling.name()
        );
        assert_eq!(
            metrics.batch_simd_fallbacks.get(),
            3,
            "the lost zmm speedup must be observable, once per staged packet"
        );
        let snap = metrics.snapshot();
        assert_eq!(
            snap.iter()
                .find(|(name, _)| name == "batch_simd_fallbacks")
                .map(|(_, v)| *v),
            Some(3.0),
            "fallback events must appear in snapshots: {snap:?}"
        );
    }
}

#[test]
fn packed_encoder_degrades_below_avx512_ceiling() {
    let cfg = DownlinkConfig {
        snr_db: 25.0,
        ..Default::default()
    };
    let mut b = PacketBuilder::new(1000, 2000);
    let p = b.build(Transport::Udp, 300).unwrap();

    // Reference outcome with the host's real capabilities.
    let full = with_isa_ceiling(None, || DownlinkPipeline::new(cfg).process(&p));
    assert!(full.dci_ok && full.data_ok, "{full:?}");

    // Cap the ISA at AVX2: the packed encoder must drop from the
    // 512-bit kernel to the 256-bit one, stay bit-exact, and report
    // the zmm-tier degradation (but NOT the full word64 fallback).
    let metrics = Arc::new(PipelineMetrics::new());
    let masked = with_isa_ceiling(Some(HostIsa::Avx2), || {
        DownlinkPipeline::with_metrics(cfg, metrics.clone()).process(&p)
    });

    assert_eq!(masked.dci_ok, full.dci_ok);
    assert_eq!(masked.data_ok, full.data_ok);
    assert_eq!(masked.code_blocks, full.code_blocks);
    assert_eq!(masked.coded_bits, full.coded_bits);
    assert!(masked.data_ok, "256-bit fallback must stay bit-exact");
    assert_eq!(
        metrics.zmm_encoder_fallbacks.get(),
        1,
        "the lost zmm speedup must be observable"
    );
    assert_eq!(
        metrics.packed_encoder_fallbacks.get(),
        0,
        "AVX2 is still a SIMD tier, not the word64 floor"
    );
    let snap = metrics.snapshot();
    assert_eq!(
        snap.iter()
            .find(|(name, _)| name == "zmm_encoder_fallbacks")
            .map(|(_, v)| *v),
        Some(1.0),
        "fallback events must appear in snapshots: {snap:?}"
    );
}

#[test]
fn packed_encoder_degrades_to_word64_kernel_without_simd() {
    let cfg = DownlinkConfig {
        snr_db: 25.0,
        ..Default::default()
    };
    let mut b = PacketBuilder::new(1000, 2000);
    let p = b.build(Transport::Udp, 300).unwrap();

    // Reference outcome with the host's real capabilities.
    let native = with_isa_ceiling(None, || DownlinkPipeline::new(cfg).process(&p));
    assert!(native.dci_ok && native.data_ok, "{native:?}");

    // Mask every SIMD tier: the packed encoder must fall back to the
    // portable u64 kernel, stay bit-exact, and report the degradation.
    let metrics = Arc::new(PipelineMetrics::new());
    let masked = with_isa_ceiling(Some(HostIsa::Scalar), || {
        DownlinkPipeline::with_metrics(cfg, metrics.clone()).process(&p)
    });

    assert_eq!(masked.dci_ok, native.dci_ok);
    assert_eq!(masked.data_ok, native.data_ok);
    assert_eq!(masked.code_blocks, native.code_blocks);
    assert_eq!(masked.coded_bits, native.coded_bits);
    assert!(masked.data_ok, "u64 fallback must stay bit-exact");
    assert_eq!(
        metrics.packed_encoder_fallbacks.get(),
        1,
        "the lost SIMD speedup must be observable"
    );
    assert_eq!(
        metrics.native_simd_fallbacks.get(),
        1,
        "the UE's native decoder lost its SIMD tiers too, once per subframe"
    );
    let snap = metrics.snapshot();
    assert_eq!(
        snap.iter()
            .find(|(name, _)| name == "packed_encoder_fallbacks")
            .map(|(_, v)| *v),
        Some(1.0),
        "fallback events must appear in snapshots: {snap:?}"
    );
}

#[test]
fn tx_chain_output_is_byte_identical_below_every_ceiling() {
    // tx_bulk's operating point: two code blocks of K = 5696, whose
    // transposes, interleaved gather and OFDM all have a wide rung
    let grant = UplinkPipeline::new(PipelineConfig {
        modulation: Modulation::Qam64,
        snr_db: 20.0,
        ..Default::default()
    })
    .grant();
    let payload: Vec<u8> = (0..8 * 1430u32)
        .map(|i| (i.wrapping_mul(2_654_435_761) >> 16) as u8 & 1)
        .collect();
    let air = || {
        let mut tx = TxChain::default();
        tx.tx(&payload, &grant, &mut ()).expect("the grant fits");
        let samples: Vec<(u32, u32)> = tx
            .samples
            .iter()
            .map(|c| (c.re.to_bits(), c.im.to_bits()))
            .collect();
        (tx.bits, samples)
    };

    let full = with_isa_ceiling(None, air);
    assert!(!full.1.is_empty());
    for ceiling in [HostIsa::Avx2, HostIsa::Scalar] {
        let masked = with_isa_ceiling(Some(ceiling), air);
        assert!(
            masked == full,
            "TxChain::tx under the {} ceiling differs from the uncapped run",
            ceiling.name()
        );
    }
}
