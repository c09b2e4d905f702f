//! Substrate component costs: FFT/OFDM, CRC, scrambler, bit packing,
//! rate matcher, QPP interleaver, modulation, Viterbi — the per-module cost
//! backdrop of Figures 3–6.

use vran_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vran_phy::bits::{
    extend_bits_from_words, pack_lsb_words, pack_msb, packed_lsb_words, random_bits, unpack_msb,
};
use vran_phy::crc::CRC24A;
use vran_phy::dci::{conv_encode, viterbi_decode_tb};
use vran_phy::interleaver::QppInterleaver;
use vran_phy::modulation::{Cplx, Modulation};
use vran_phy::ofdm::{fft_with, OfdmConfig};
use vran_phy::rate_match::{PackedRateMatcher, RateMatcher};
use vran_phy::scrambler::{descramble_llrs_with, scramble_bits, DescrambleImpl};
use vran_phy::turbo::{EncodeScratch, PackedTurboEncoder};
use vran_simd::host::{tiers, with_isa_ceiling, HostIsa};

fn bench_fft(c: &mut Criterion) {
    let mut g = c.benchmark_group("fft");
    for n in [512usize, 2048] {
        let buf: Vec<Cplx> = (0..n)
            .map(|i| Cplx::new((i as f32 * 0.1).sin(), (i as f32 * 0.3).cos()))
            .collect();
        let mut t = buf.clone();
        g.throughput(Throughput::Elements(n as u64));
        for tier in tiers::<HostIsa>() {
            g.bench_with_input(BenchmarkId::new(n, tier.name()), &buf, |b, buf| {
                b.iter(|| {
                    t.copy_from_slice(buf);
                    fft_with(tier, std::hint::black_box(&mut t), false);
                })
            });
        }
    }
    g.finish();
}

/// One OFDM symbol, and twelve (the shape of a 1400 B 64-QAM packet,
/// which is what the repository benchmark's `rx_bulk` / `tx_bulk`
/// call), each way per tier. The stream entry points take the best tier
/// the host has, so each row caps the process-wide ISA ceiling (a bench
/// binary is its own single-threaded process).
fn bench_ofdm_symbol(c: &mut Criterion) {
    let cfg = OfdmConfig::lte5mhz();
    let (mut tx, mut rx) = (Vec::new(), Vec::new());
    let mut g = c.benchmark_group("ofdm");
    for tier in tiers::<HostIsa>() {
        for (shape, n) in [("symbol", 1), ("stream12", 12)] {
            let syms = Modulation::Qpsk.modulate(&random_bits(600 * n, 1));
            let (air, len) = (cfg.modulate_stream(&syms), syms.len());
            let [modulate, demodulate] = ["modulate", "demodulate"]
                .map(|way| BenchmarkId::new(format!("{shape}/{way}"), tier.name()));
            with_isa_ceiling(Some(tier), || {
                g.bench_function(modulate, |b| {
                    b.iter(|| cfg.modulate_stream_into(std::hint::black_box(&syms), &mut tx))
                });
                g.bench_function(demodulate, |b| {
                    b.iter(|| cfg.demodulate_stream_into(std::hint::black_box(&air), len, &mut rx))
                });
            });
        }
    }
    g.finish();
}

fn bench_crc(c: &mut Criterion) {
    let bits = random_bits(12_000, 2);
    let mut g = c.benchmark_group("crc24a");
    g.throughput(Throughput::Elements(12_000));
    g.bench_function("attach_12k", |b| {
        b.iter(|| CRC24A.attach(std::hint::black_box(&bits)))
    });
    g.finish();
}

fn bench_scrambler(c: &mut Criterion) {
    let mut bits = random_bits(36_000, 3);
    let mut g = c.benchmark_group("scrambler");
    g.throughput(Throughput::Elements(36_000));
    g.bench_function("scramble_36k", |b| {
        b.iter(|| scramble_bits(std::hint::black_box(&mut bits), 0x5A5A5))
    });
    // The codeword of a 1400 B 64-QAM packet, both directions, per
    // tier: the scrambler's expand sits behind `host::has` (so a
    // ceiling picks it), the descramblers take theirs by name.
    let mut bits = random_bits(22_800, 3);
    let mut llrs: Vec<i16> = (0..22_800).map(|i| (i * 37 % 201) as i16 - 100).collect();
    g.throughput(Throughput::Elements(22_800));
    for tier in tiers::<HostIsa>() {
        with_isa_ceiling(Some(tier), || {
            g.bench_function(BenchmarkId::new("scramble_22k", tier.name()), |b| {
                b.iter(|| scramble_bits(std::hint::black_box(&mut bits), 0x5A5A5))
            })
        });
    }
    for imp in tiers::<DescrambleImpl>() {
        g.bench_function(BenchmarkId::new("descramble_22k", imp.name()), |b| {
            b.iter(|| descramble_llrs_with(imp, std::hint::black_box(&mut llrs), 0x5A5A5))
        });
    }
    g.finish();
}

/// The packers and unpackers at the sizes a 1400 B packet gives them:
/// its PDU into bits, its payload back into bytes, a rate-matched code
/// block out of packed words, a code block into them.
fn bench_bits(c: &mut Criterion) {
    let mut g = c.benchmark_group("bits");
    let pdu: Vec<u8> = (0..1430).map(|i| (i * 37 + 11) as u8).collect();
    g.bench_function("unpack_msb_1430B", |b| {
        b.iter(|| unpack_msb(std::hint::black_box(&pdu), 8 * pdu.len()))
    });
    let payload = random_bits(11_416, 5);
    g.bench_function("pack_msb_11k", |b| {
        b.iter(|| pack_msb(std::hint::black_box(&payload)))
    });
    let (words, mut out) = (packed_lsb_words(&random_bits(22_800, 9)), Vec::new());
    g.bench_function("extend_22k", |b| {
        b.iter(|| {
            out.clear();
            extend_bits_from_words(std::hint::black_box(&words), 22_800, &mut out)
        })
    });
    let (block, mut packed) = (random_bits(6144, 6), vec![0; 96]);
    g.bench_function("pack_lsb_6144", |b| {
        b.iter(|| pack_lsb_words(std::hint::black_box(&block), &mut packed))
    });
    g.finish();
}

fn bench_rate_match(c: &mut Criterion) {
    let k = 6144;
    let rm = RateMatcher::new(k + 4);
    let d = [
        random_bits(k + 4, 1),
        random_bits(k + 4, 2),
        random_bits(k + 4, 3),
    ];
    let tx = rm.rate_match(&d, 2 * k, 0);
    let llrs: Vec<i16> = tx.iter().map(|&b| if b == 0 { 50 } else { -50 }).collect();
    let mut g = c.benchmark_group("rate_match");
    g.throughput(Throughput::Elements(2 * k as u64));
    g.bench_function("match_2k", |b| {
        b.iter(|| rm.rate_match(std::hint::black_box(&d), 2 * k, 0))
    });
    let mut streams = [Vec::new(), Vec::new(), Vec::new()];
    g.bench_function("dematch_2k", |b| {
        b.iter(|| rm.try_de_rate_match_into(std::hint::black_box(&llrs), 0, &mut streams))
    });
    // The receive hot entry: interleaved output into a reused buffer,
    // E = 2K at rv 0 (what the pipelines send), per ISA ceiling — its
    // two arms sit behind `host::has`, not an `*_with` parameter.
    let mut out = Vec::new();
    for k in [512usize, 6144] {
        let rm = RateMatcher::new(k + 4);
        let llrs: Vec<i16> = (0..2 * k).map(|i| (i * 37 % 201) as i16 - 100).collect();
        g.throughput(Throughput::Elements(2 * k as u64));
        for tier in tiers::<HostIsa>() {
            let id = BenchmarkId::new(format!("dematch_interleaved_into/k{k}"), tier.name());
            with_isa_ceiling(Some(tier), || {
                g.bench_function(id, |b| {
                    b.iter(|| {
                        let llrs = std::hint::black_box(&llrs);
                        rm.try_de_rate_match_interleaved_into(llrs, 0, &mut out)
                    })
                })
            });
        }
    }
    // The transmit arrangement, per code block: the compacted circular
    // buffer out of the packed d-streams (K = 5632 is `tx_bulk`'s
    // block), and its readout at the pipelines' E = 2K + 12 — from
    // rv 0 one run, from rv 3 two with the second landing mid-word.
    let (mut w, mut out) = (Vec::new(), Vec::new());
    for k in [512usize, 5632, 6144] {
        let rm = PackedRateMatcher::new(k + 4);
        let d = [1, 2, 3].map(|seed| packed_lsb_words(&random_bits(k + 4, seed)));
        let d = [&d[0][..], &d[1][..], &d[2][..]];
        g.throughput(Throughput::Elements(3 * (k as u64 + 4)));
        g.bench_function(format!("pack_circular/k{k}"), |b| {
            b.iter(|| rm.pack_circular_into(std::hint::black_box(d), &mut w))
        });
        if k == 5632 {
            let e = 2 * k + 12;
            g.throughput(Throughput::Elements(e as u64));
            for (shape, rv) in [("rv0", 0), ("wrap", 3)] {
                g.bench_function(format!("readout_packed/k{k}/{shape}"), |b| {
                    b.iter(|| {
                        rm.try_rate_match_packed_into(std::hint::black_box(&w), e, rv, &mut out)
                    })
                });
            }
        }
    }
    g.finish();
}

/// The packed encoder per code block, into a warm scratch: at the best
/// tier the host has, and under the Scalar ceiling (the `u64` trellis
/// kernel and the byte gather — the portable rung).
fn bench_turbo_encode_packed(c: &mut Criterion) {
    let mut g = c.benchmark_group("turbo_encode_packed");
    let mut scratch = EncodeScratch::new();
    for k in [512usize, 5632, 6144] {
        let bits = random_bits(k, 7);
        g.throughput(Throughput::Elements(k as u64));
        for (rung, ceiling) in [("best", None), ("portable", Some(HostIsa::Scalar))] {
            with_isa_ceiling(ceiling, || {
                let enc = PackedTurboEncoder::new(k);
                g.bench_function(format!("k{k}/{rung}"), |b| {
                    b.iter(|| enc.encode_dstreams_into(std::hint::black_box(&bits), &mut scratch))
                })
            });
        }
    }
    g.finish();
}

fn bench_interleaver(c: &mut Criterion) {
    let mut g = c.benchmark_group("qpp");
    g.bench_function("build_k6144", |b| b.iter(|| QppInterleaver::new(6144)));
    let il = QppInterleaver::new(6144);
    let data: Vec<i16> = (0..6144).map(|i| i as i16).collect();
    g.throughput(Throughput::Elements(6144));
    g.bench_function("interleave_k6144", |b| {
        b.iter(|| il.interleave(std::hint::black_box(&data)))
    });
    g.finish();
}

fn bench_modulation(c: &mut Criterion) {
    let mut g = c.benchmark_group("modulation");
    for m in Modulation::ALL {
        let bits = random_bits(m.bits_per_symbol() * 4096, 4);
        let syms = m.modulate(&bits);
        g.throughput(Throughput::Elements(4096));
        g.bench_with_input(BenchmarkId::new("demap", m.name()), &syms, |b, syms| {
            b.iter(|| m.demodulate(std::hint::black_box(syms), 1.0))
        });
        // the symbols of a 1400 B 64-QAM packet, at each order
        let bits = &bits[..m.bits_per_symbol() * 3800];
        g.throughput(Throughput::Elements(3800));
        g.bench_with_input(BenchmarkId::new("map", m.name()), bits, |b, bits| {
            b.iter(|| m.modulate(std::hint::black_box(bits)))
        });
    }
    g.finish();
}

fn bench_viterbi(c: &mut Criterion) {
    let bits = random_bits(44, 6);
    let coded = conv_encode(&bits);
    let llrs: Vec<i16> = coded
        .iter()
        .map(|&b| if b == 0 { 80 } else { -80 })
        .collect();
    let mut g = c.benchmark_group("dci");
    g.sample_size(20);
    g.bench_function("viterbi_tb_44", |b| {
        b.iter(|| viterbi_decode_tb(std::hint::black_box(&llrs), 44))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = fast();
    targets = bench_fft,
    bench_ofdm_symbol,
    bench_crc,
    bench_scrambler,
    bench_bits,
    bench_rate_match,
    bench_turbo_encode_packed,
    bench_interleaver,
    bench_modulation,
    bench_viterbi
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
