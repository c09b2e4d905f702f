//! Error-path cost accounting: what each typed failure costs relative
//! to a clean decode, and what the fault-injection hook costs when it
//! only ever draws `Clean`.
//!
//! ```text
//! cargo run --release -p apcm --example error_paths
//! ```
//!
//! The numbers land in EXPERIMENTS.md ("Error-path overhead"): faults
//! that reject at ingress (malformed frames, block-count lies) must be
//! orders of magnitude cheaper than a full decode, while LLR-level
//! faults necessarily pay the whole pipeline before the CRC can refuse
//! the block.
//!
//! The final section drives a decoder-divergence storm with the
//! decoder circuit breaker armed and a flight recorder attached, then
//! prints the consistent [`MetricsSnapshot`] and the recorder's last
//! trace events — the post-incident view `docs/ROBUSTNESS.md`
//! describes.

use std::sync::Arc;
use std::time::Instant;
use vran_net::error::ErrorCategory;
use vran_net::faultinject::{FaultInjector, FaultKind, FaultMix};
use vran_net::metrics::PipelineMetrics;
use vran_net::observe::{BreakerConfig, BreakerStage, FlightRecorder, MetricsSnapshot};
use vran_net::packet::{PacketBuilder, Transport};
use vran_net::pipeline::{PipelineConfig, UplinkPipeline};

const REPS: usize = 400;

/// Median nanoseconds of `f` over [`REPS`] calls after warm-up.
fn median_ns(mut f: impl FnMut()) -> f64 {
    f();
    f();
    let mut samples: Vec<u64> = (0..REPS)
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_nanos() as u64
        })
        .collect();
    samples.sort_unstable();
    samples[samples.len() / 2] as f64
}

fn main() {
    let cfg = PipelineConfig {
        snr_db: 30.0,
        decoder_iterations: 4,
        ..Default::default()
    };
    let mut b = PacketBuilder::new(1000, 2000);
    let p = b.build(Transport::Udp, 256).unwrap();

    // Reference: the plain happy path, no injector attached.
    let clean_pipe = UplinkPipeline::new(cfg);
    let clean = median_ns(|| {
        std::hint::black_box(clean_pipe.process(std::hint::black_box(&p)).unwrap());
    });
    println!("clean (no injector)            {clean:>12.0} ns  1.00x");

    // The hook itself: an injector that always draws Clean.
    let mut hook_pipe = UplinkPipeline::new(cfg);
    hook_pipe.set_fault_injector(FaultInjector::with_mix(1, FaultMix::only(FaultKind::Clean)));
    let hook = median_ns(|| {
        std::hint::black_box(hook_pipe.process(std::hint::black_box(&p)).unwrap());
    });
    println!(
        "clean (injector drawing Clean) {hook:>12.0} ns  {:.2}x",
        hook / clean
    );

    // Each fault kind, forced every packet.
    for kind in [
        FaultKind::CorruptFrame,
        FaultKind::TruncateFrame,
        FaultKind::CodeBlockCountLie,
        FaultKind::FlipLlrSigns,
        FaultKind::SaturateLlrs,
    ] {
        let mut pipe = UplinkPipeline::new(cfg);
        pipe.set_fault_injector(FaultInjector::with_mix(2, FaultMix::only(kind)));
        let ns = median_ns(|| {
            let _ = std::hint::black_box(pipe.process(std::hint::black_box(&p)));
        });
        println!("{:<30} {ns:>12.0} ns  {:.2}x", kind.name(), ns / clean);
    }

    // Deadline rejection: a 1 ns budget aborts before the first block.
    let dl_pipe = UplinkPipeline::new(PipelineConfig {
        deadline_ns: Some(1),
        ..cfg
    });
    let dl = median_ns(|| {
        let _ = std::hint::black_box(dl_pipe.process(std::hint::black_box(&p)));
    });
    println!(
        "{:<30} {dl:>12.0} ns  {:.2}x",
        "deadline_exceeded (1 ns)",
        dl / clean
    );

    // Observability under a divergence storm: collapse the SNR so
    // multi-block packets fail in the decoder, arm the decoder
    // breaker, and attach a flight recorder. The snapshot and the
    // dump are the two artifacts an operator would pull after the
    // incident.
    let pm = Arc::new(PipelineMetrics::new());
    let mut storm_pipe = UplinkPipeline::with_metrics(
        PipelineConfig {
            snr_db: -10.0,
            breakers: Some(BreakerConfig {
                trip_after: 4,
                cooldown_packets: 8,
            }),
            ..cfg
        },
        pm.clone(),
    );
    let recorder = Arc::new(FlightRecorder::with_capacity(64));
    storm_pipe.set_recorder(recorder.clone());
    let big = b.build(Transport::Udp, 600).unwrap();
    for _ in 0..24 {
        let _ = storm_pipe.process(&big);
    }

    println!("\n--- divergence storm: 24 packets at -10 dB, breaker armed ---");
    let snap = MetricsSnapshot::capture(Some(&pm), None, None);
    let count = |key: &str| snap.get(key).unwrap_or(0.0);
    println!(
        "snapshot: packets={} diverged={} crc_mismatch={} \
         breaker_trips={} breaker_fastfails={}",
        count("pipeline.packets"),
        count(&format!(
            "pipeline.error.{}",
            ErrorCategory::DecoderDiverged.name()
        )),
        count(&format!(
            "pipeline.error.{}",
            ErrorCategory::CrcMismatch.name()
        )),
        count("pipeline.breaker_trips"),
        count("pipeline.breaker_fastfails"),
    );
    if let Some((trips, resets)) = storm_pipe.breaker_counts(BreakerStage::Decoder) {
        println!(
            "decoder breaker: state={:?} trips={trips} resets={resets}",
            storm_pipe.breaker_state(BreakerStage::Decoder).unwrap()
        );
    }
    println!(
        "flight recorder: {} events recorded, last 4:",
        recorder.recorded()
    );
    for ev in recorder.dump_last(4) {
        println!("  {}", ev.to_json());
    }
}
