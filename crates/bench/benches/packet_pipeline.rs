//! Figure 13 complement: wall-clock per-packet processing through the
//! complete uplink pipeline, per packet size and profile.

use vran_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vran_net::packet::{PacketBuilder, Transport};
use vran_net::pipeline::{PipelineConfig, Profile, UplinkPipeline};

fn bench_pipeline(c: &mut Criterion) {
    let mut g = c.benchmark_group("packet_pipeline");
    g.sample_size(10);
    for profile in [Profile::Production, Profile::Reference] {
        let cfg = PipelineConfig {
            profile,
            snr_db: 30.0,
            decoder_iterations: 3,
            ..Default::default()
        };
        let pipe = UplinkPipeline::new(cfg);
        for size in [256usize, 1500] {
            let mut b = PacketBuilder::new(1, 2);
            let p = b.build(Transport::Udp, size).unwrap();
            g.throughput(Throughput::Bytes(size as u64));
            g.bench_with_input(
                BenchmarkId::new(format!("{profile:?}"), format!("{size}B")),
                &p,
                |bch, p| {
                    bch.iter(|| {
                        let r = pipe.process(std::hint::black_box(p));
                        assert!(r.is_ok());
                        r
                    })
                },
            );
        }
    }
    g.finish();
}

fn bench_ring(c: &mut Criterion) {
    // The DPDK-style SPSC ring: per-item transfer cost.
    use vran_net::ring::SpscRing;
    let mut g = c.benchmark_group("spsc_ring");
    g.throughput(Throughput::Elements(1024));
    g.bench_function("push_pop_1024", |b| {
        b.iter(|| {
            let (mut p, mut cns) = SpscRing::with_capacity::<u64>(2048);
            for i in 0..1024u64 {
                p.push(i).unwrap();
            }
            let mut acc = 0u64;
            while let Some(v) = cns.pop() {
                acc = acc.wrapping_add(v);
            }
            acc
        })
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = fast();
    targets = bench_pipeline, bench_ring
}

/// Short measurement windows keep `cargo bench --workspace` in CI
/// territory; pass `--measurement-time` on the command line for
/// higher-precision runs.
fn fast() -> Criterion {
    Criterion::default()
        .warm_up_time(std::time::Duration::from_millis(400))
        .measurement_time(std::time::Duration::from_millis(1500))
        .sample_size(12)
}

criterion_main!(benches);
