//! Figures 8/14/15 complement: the two arrangement mechanisms run in
//! the VM's native evaluation mode at every register width, plus the
//! scalar oracle. Wall-clock here reflects the *evaluator*, not the
//! modeled hardware (the simulator reports that); the interesting
//! output is the relative cost trend and the per-element throughput.

use apcm::arrange::{ApcmVariant, ArrangeKernel, Mechanism};
use vran_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vran_bench::interleaved_workload;
use vran_simd::RegWidth;

const K: usize = 6144;

fn bench_arrangement(c: &mut Criterion) {
    let input = interleaved_workload(K, 7);
    let mut g = c.benchmark_group("arrangement_vm");
    g.throughput(Throughput::Elements(K as u64));
    g.sample_size(20);
    for width in RegWidth::ALL {
        for mech in [
            Mechanism::Baseline,
            Mechanism::Apcm(ApcmVariant::Shuffle),
            Mechanism::Apcm(ApcmVariant::MaskRotate),
        ] {
            let kern = ArrangeKernel::new(width, mech);
            g.bench_with_input(
                BenchmarkId::new(mech.name(), width.name()),
                &input,
                |b, input| b.iter(|| kern.arrange(std::hint::black_box(input), false)),
            );
        }
    }
    g.finish();

    // the scalar oracle as the floor
    let mut g = c.benchmark_group("arrangement_oracle");
    g.throughput(Throughput::Elements(K as u64));
    g.bench_function("scalar_deinterleave", |b| {
        b.iter(|| std::hint::black_box(&input).deinterleave_scalar())
    });
    g.finish();
}

fn bench_trace_generation(c: &mut Criterion) {
    // Cost of producing a µop trace (matters for figure regeneration).
    let input = interleaved_workload(K, 9);
    let mut g = c.benchmark_group("arrangement_tracing");
    g.sample_size(10);
    for mech in [Mechanism::Baseline, Mechanism::Apcm(ApcmVariant::Shuffle)] {
        let kern = ArrangeKernel::new(RegWidth::Sse128, mech);
        g.bench_function(mech.name(), |b| {
            b.iter(|| kern.arrange(std::hint::black_box(&input), true))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = fast();
    targets = bench_arrangement, bench_trace_generation
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
