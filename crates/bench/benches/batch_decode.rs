//! Native multi-block decode launches against serial single-block
//! decodes, and the generalized stride kernels — the wall-clock
//! complement to the `gen-stride` experiment.

use apcm::arrange::StrideKernel;
use vran_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vran_bench::turbo_workload;
use vran_phy::crc::CRC24B;
use vran_phy::turbo::{
    BatchScratch, BlockLlrs, DecodeScratch, NativeBatchTurboDecoder, NativeTurboDecoder,
};
use vran_simd::RegWidth;

mod common;

fn bench_native_batch(c: &mut Criterion) {
    // Real-hardware launches against as many sequential single-block
    // native decodes of the same blocks: a pair (one zmm) against two,
    // a quad (two zmm) against four.
    let mut g = c.benchmark_group("batch_decode_native");
    g.sample_size(10);
    for k in [512usize, 6144] {
        let blocks: [_; 4] = core::array::from_fn(|i| turbo_workload(k, 30 + i as u64).1);
        let inputs = blocks.each_ref().map(BlockLlrs::from_turbo);
        let single = NativeTurboDecoder::new(k, 4);
        let batch = NativeBatchTurboDecoder::new(k, 4);
        // One warm scratch, as a serving loop keeps: the serial rows time
        // decoding, not allocating per block.
        let mut serial_scratch = DecodeScratch::new();
        let mut serial = |n: usize| -> Vec<_> {
            let mut decode =
                |b| single.decode_scratch(std::hint::black_box(b), None, &mut serial_scratch);
            blocks[..n].iter().map(&mut decode).collect()
        };
        let mut scratch = BatchScratch::new();
        let (mut bits, mut lanes) = (vec![Vec::new(); 4], [(0, None, 0); 4]);
        let mut launch = |n: usize| {
            let blocks = std::hint::black_box(&inputs[..n]);
            let (bits, lanes) = (&mut bits[..n], &mut lanes[..n]);
            batch.decode_blocks_into(blocks, 4, None, &mut scratch, bits, lanes);
        };
        g.throughput(Throughput::Elements(2 * k as u64));
        g.bench_function(format!("single_x2/k{k}"), |b| b.iter(|| serial(2)));
        g.bench_function(format!("pair/k{k}"), |b| b.iter(|| launch(2)));
        g.throughput(Throughput::Elements(4 * k as u64));
        g.bench_function(format!("single_x4/k{k}"), |b| b.iter(|| serial(4)));
        g.bench_function(format!("quad/k{k}"), |b| b.iter(|| launch(4)));
    }
    g.finish();
}

fn bench_native_quad_crc(c: &mut Criterion) {
    // The quad launch's stop-rule rows: four lanes that all end on
    // SISO 1, on SISO 2, or at the cap (single-block decodes where the
    // host lacks AVX-512BW).
    let mut g = c.benchmark_group("batch_decode_native_crc");
    g.sample_size(10);
    for k in [512usize, 6144] {
        g.throughput(Throughput::Elements(4 * k as u64));
        let dec = NativeBatchTurboDecoder::new(k, common::CAP);
        let mut scratch = BatchScratch::new();
        let (mut bits, mut lanes) = (vec![Vec::new(); 4], [(0, None, 0); 4]);
        for (stop, input) in common::stop_blocks(k) {
            g.bench_function(format!("quad/k{k}/{stop}"), |b| {
                b.iter(|| {
                    dec.decode_blocks_into(
                        &[BlockLlrs::from_turbo(std::hint::black_box(&input)); 4],
                        common::CAP,
                        Some(&CRC24B),
                        &mut scratch,
                        &mut bits,
                        &mut lanes,
                    )
                })
            });
        }
    }
    g.finish();
}

fn bench_stride(c: &mut Criterion) {
    let mut g = c.benchmark_group("stride_deinterleave_vm");
    g.sample_size(15);
    for s in [2usize, 4, 8] {
        let n = 4096;
        let data: Vec<i16> = (0..s * n).map(|i| i as i16).collect();
        g.throughput(Throughput::Elements((s * n) as u64));
        for apcm in [false, true] {
            let kern = StrideKernel::new(RegWidth::Sse128, s, apcm);
            let label = if apcm { "apcm" } else { "original" };
            g.bench_with_input(BenchmarkId::new(label, s), &data, |b, data| {
                b.iter(|| kern.deinterleave(std::hint::black_box(data), false))
            });
        }
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = fast();
    targets = bench_native_batch, bench_native_quad_crc, bench_stride
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
