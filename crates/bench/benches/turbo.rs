//! Figures 3/9 complement: turbo decode cost per block size for the
//! scalar fixed-point decoder (the pipeline's workhorse) and the
//! encoder, plus one SIMD-decoder (VM) data point.

use apcm::turbo::simd_decoder::SimdTurboDecoder;
use vran_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vran_bench::turbo_workload;
use vran_phy::bits::random_bits;
use vran_phy::crc::CRC24B;
use vran_phy::turbo::{DecodeScratch, DecoderIsa, NativeTurboDecoder, TurboDecoder, TurboEncoder};
use vran_simd::RegWidth;

mod common;

fn bench_encoder(c: &mut Criterion) {
    let mut g = c.benchmark_group("turbo_encode");
    for k in [512usize, 2048, 6144] {
        let bits = random_bits(k, 5);
        let enc = TurboEncoder::new(k);
        g.throughput(Throughput::Elements(k as u64));
        g.bench_with_input(BenchmarkId::from_parameter(k), &bits, |b, bits| {
            b.iter(|| enc.encode(std::hint::black_box(bits)))
        });
    }
    g.finish();
}

fn bench_decoder(c: &mut Criterion) {
    let mut g = c.benchmark_group("turbo_decode_5it");
    g.sample_size(20);
    for k in [512usize, 2048, 6144] {
        let (_, input) = turbo_workload(k, 11);
        let dec = TurboDecoder::new(k, 5);
        g.throughput(Throughput::Elements(k as u64));
        g.bench_with_input(BenchmarkId::from_parameter(k), &input, |b, input| {
            b.iter(|| dec.decode(std::hint::black_box(input)))
        });
    }
    g.finish();
}

fn bench_decoder_early_stop(c: &mut Criterion) {
    // CRC early termination on a clean block — the steady-state cost
    // the capacity model uses.
    let k = 6144;
    let payload = random_bits(k - 24, 3);
    let block = CRC24B.attach(&payload);
    let cw = TurboEncoder::new(k).encode(&block);
    let d = cw.to_dstreams();
    let soft: [Vec<i16>; 3] = d
        .iter()
        .map(|s| {
            s.iter()
                .map(|&b| if b == 0 { 60i16 } else { -60 })
                .collect()
        })
        .collect::<Vec<_>>()
        .try_into()
        .unwrap();
    let input = vran_phy::llr::TurboLlrs::from_dstreams(&soft, k);
    let dec = TurboDecoder::new(k, 8);
    let mut g = c.benchmark_group("turbo_decode_crc_stop");
    g.sample_size(20);
    g.throughput(Throughput::Elements(k as u64));
    g.bench_function("k6144", |b| {
        b.iter(|| dec.decode_with_crc(std::hint::black_box(&input), &CRC24B))
    });
    g.finish();
}

fn bench_native_decoder(c: &mut Criterion) {
    // The real-intrinsics fast path at every ISA level the host
    // supports, on the allocation-free scratch entry point the uplink
    // pipeline uses — at the largest block and at one whose working
    // set stays in L1d.
    let mut g = c.benchmark_group("turbo_decode_native_4it");
    g.sample_size(20);
    for k in [512usize, 6144] {
        let (_, input) = turbo_workload(k, 11);
        g.throughput(Throughput::Elements(k as u64));
        for isa in DecoderIsa::available() {
            let dec = NativeTurboDecoder::with_isa(k, 4, isa);
            let mut scratch = DecodeScratch::new();
            let mut bits = Vec::new();
            g.bench_function(format!("{}/k{k}", isa.name()), |b| {
                b.iter(|| {
                    let r = dec.decode_streams_into(
                        std::hint::black_box(&input.streams.sys),
                        &input.streams.p1,
                        &input.streams.p2,
                        &input.tails,
                        None,
                        &mut scratch,
                        &mut bits,
                    );
                    std::hint::black_box(r)
                })
            });
        }
    }
    g.finish();
}

fn bench_native_decoder_crc(c: &mut Criterion) {
    // Where a CRC24B-bearing block can end: on SISO 1 (the common
    // case on a good channel), on SISO 2, or at the cap having paid
    // both hard-decision passes and both checks of every iteration.
    // K = 5696 is the code block of the repository benchmark's
    // `rx_bulk`, where `stop_pass1` is 97 % of the blocks.
    let mut g = c.benchmark_group("turbo_decode_native_crc");
    g.sample_size(20);
    for k in [512usize, 5696, 6144] {
        g.throughput(Throughput::Elements(k as u64));
        for (stop, input) in common::stop_blocks(k) {
            for isa in DecoderIsa::available() {
                let dec = NativeTurboDecoder::with_isa(k, common::CAP, isa);
                let mut scratch = DecodeScratch::new();
                let mut bits = Vec::new();
                g.bench_function(format!("{}/k{k}/{stop}", isa.name()), |b| {
                    b.iter(|| {
                        let r = dec.decode_streams_into(
                            std::hint::black_box(&input.streams.sys),
                            &input.streams.p1,
                            &input.streams.p2,
                            &input.tails,
                            Some(&CRC24B),
                            &mut scratch,
                            &mut bits,
                        );
                        std::hint::black_box(r)
                    })
                });
            }
        }
    }
    g.finish();
}

fn bench_simd_decoder_vm(c: &mut Criterion) {
    // The VM-evaluated SIMD decoder (native mode): slower wall-clock
    // than the scalar decoder (it is an emulator), but bit-exact; this
    // tracks evaluator overhead.
    let k = 512;
    let (_, input) = turbo_workload(k, 13);
    let dec = SimdTurboDecoder::new(k, 2, RegWidth::Sse128);
    let mut g = c.benchmark_group("turbo_decode_simd_vm");
    g.sample_size(10);
    g.bench_function("k512_2it", |b| {
        b.iter(|| dec.decode_native(std::hint::black_box(&input)))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = fast();
    targets = bench_encoder,
    bench_decoder,
    bench_decoder_early_stop,
    bench_native_decoder,
    bench_native_decoder_crc,
    bench_simd_decoder_vm
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
