//! Real-hardware arrangement: the `std::arch` kernels from
//! `vran-arrange::native`, original (`pextrw` ladder) vs APCM (the
//! receiver's fused mask/merge kernels), on whatever SIMD features the
//! host exposes.
//!
//! This is the wall-clock demonstration of the paper's claim on actual
//! silicon: the extract-based original saturates the store ports while
//! APCM's ALU batching runs several times faster — and the AVX-512
//! APCM widens the gap further, exactly the Figure 14 trend.

use vran_arrange::native::{deinterleave, NativeImpl};
use vran_arrange::{best_fused, fused_ingest_into};
use vran_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vran_bench::interleaved_workload;
use vran_simd::host::tiers;

fn bench_native(c: &mut Criterion) {
    for k in [1504usize, 6144] {
        let input = interleaved_workload(k, 3);
        let mut g = c.benchmark_group(format!("native_arrange_k{k}"));
        g.throughput(Throughput::Bytes((3 * k * 2) as u64));
        for imp in tiers::<NativeImpl>() {
            g.bench_with_input(
                BenchmarkId::from_parameter(imp.name()),
                &input,
                |b, input| b.iter(|| deinterleave(imp, std::hint::black_box(&input.data), k)),
            );
        }
        g.finish();
    }
}

/// The fused ingest at `rx_bulk`'s block size with its three outputs
/// on whole lines, one of them half a line off, and all three three
/// quarters of a line off — where a heap puts them is not the caller's
/// choice, so the kernel may not depend on it.
fn bench_fused_alignment(c: &mut Criterion) {
    let k = 5696;
    let input = interleaved_workload(k, 3);
    let mut bufs = [0; 3].map(|_| vec![0i16; k + 64]);
    let mut g = c.benchmark_group("fused");
    g.throughput(Throughput::Bytes((3 * k * 2) as u64));
    for (name, bytes_off) in [
        ("aligned", [0, 0, 0]),
        ("off32", [0, 32, 0]),
        ("off48x3", [48; 3]),
    ] {
        let at: [usize; 3] = core::array::from_fn(|i| {
            ((bufs[i].as_ptr() as usize).wrapping_neg() % 64 + bytes_off[i]) / 2
        });
        let [sys, p1, p2] = &mut bufs;
        g.bench_function(format!("k{k}/{name}"), |b| {
            b.iter(|| {
                fused_ingest_into(
                    best_fused(),
                    std::hint::black_box(&input.data),
                    k,
                    &mut sys[at[0]..][..k],
                    &mut p1[at[1]..][..k],
                    &mut p2[at[2]..][..k],
                )
            })
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = fast();
    targets = bench_native, bench_fused_alignment
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
