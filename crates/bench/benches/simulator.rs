//! `vran-uarch` simulation throughput: how fast the port-level
//! scheduler retires µops, and ablation configurations.

use apcm::arrange::{ArrangeKernel, Mechanism};
use vran_bench::harness::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use vran_bench::interleaved_workload;
use vran_simd::RegWidth;
use vran_uarch::{CoreConfig, CoreSim, PortModel};

fn bench_sim_speed(c: &mut Criterion) {
    let input = interleaved_workload(6144, 1);
    let (_, trace) =
        ArrangeKernel::new(RegWidth::Sse128, Mechanism::Baseline).arrange(&input, true);
    let trace = trace.unwrap();
    let mut g = c.benchmark_group("sim_throughput");
    g.throughput(Throughput::Elements(trace.len() as u64));
    g.sample_size(20);
    for (name, cfg) in [
        ("beefy_warm", CoreConfig::beefy().warmed()),
        ("beefy_cold", CoreConfig::beefy()),
        ("wimpy_warm", CoreConfig::wimpy().warmed()),
    ] {
        let sim = CoreSim::new(cfg);
        g.bench_with_input(BenchmarkId::from_parameter(name), &trace, |b, t| {
            b.iter(|| sim.run(std::hint::black_box(t)))
        });
    }
    g.finish();
}

fn bench_port_ablation(c: &mut Criterion) {
    // DESIGN.md ablation: would widening the hardware's movement ports
    // (letting extracts borrow the ALU ports) fix the baseline without
    // APCM? Compare simulated cycles under both port models.
    let input = interleaved_workload(6144, 2);
    let (_, trace) =
        ArrangeKernel::new(RegWidth::Sse128, Mechanism::Baseline).arrange(&input, true);
    let trace = trace.unwrap();
    let mut g = c.benchmark_group("port_ablation");
    g.sample_size(15);
    for (name, ports) in [
        ("paper", PortModel::paper()),
        ("movement_on_alu", PortModel::movement_on_alu()),
    ] {
        let cfg = CoreConfig {
            ports,
            ..CoreConfig::beefy().warmed()
        };
        let sim = CoreSim::new(cfg);
        g.bench_with_input(BenchmarkId::from_parameter(name), &trace, |b, t| {
            b.iter(|| sim.run(std::hint::black_box(t)))
        });
    }
    g.finish();
}

criterion_group! {
    name = benches;
    config = fast();
    targets = bench_sim_speed, bench_port_ablation
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
