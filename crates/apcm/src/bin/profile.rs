//! Standalone kernel profiler: pick a workload, width, mechanism and
//! server, get the simulated VTune-style report.
//!
//! ```text
//! cargo run --release -p apcm --bin profile -- arrangement --mech apcm --width avx512
//! cargo run --release -p apcm --bin profile -- decoder --k 1024
//! cargo run --release -p apcm --bin profile -- stride --stride 4 --mech original
//! cargo run --release -p apcm --bin profile -- adds --server wimpy
//! ```

use apcm::arrange::{ApcmVariant, ArrangeKernel, Mechanism, StrideKernel};
use apcm::workloads;
use vran_net::pipeline::synthetic_interleaved;
use vran_simd::{RegWidth, Trace};
use vran_uarch::{bounds, CoreConfig, CoreSim};

struct Args {
    workload: String,
    width: RegWidth,
    mech: Mechanism,
    server: CoreConfig,
    k: usize,
    stride: usize,
}

fn usage() -> ! {
    eprintln!(
        "usage: profile <arrangement|decoder|stride|adds|subs|max|extract|ofdm> \
         [--width sse128|avx256|avx512] [--mech original|apcm|maskrotate] \
         [--server beefy|wimpy] [--k N] [--stride S]"
    );
    std::process::exit(2);
}

fn parse() -> Args {
    let mut args = Args {
        workload: String::new(),
        width: RegWidth::Sse128,
        mech: Mechanism::Apcm(ApcmVariant::Shuffle),
        server: CoreConfig::beefy().warmed(),
        k: 6144,
        stride: 3,
    };
    let mut it = std::env::args().skip(1);
    args.workload = it.next().unwrap_or_else(|| usage());
    while let Some(flag) = it.next() {
        let val = it.next().unwrap_or_else(|| usage());
        match flag.as_str() {
            "--width" => {
                args.width = match val.to_lowercase().as_str() {
                    "sse128" | "xmm" | "128" => RegWidth::Sse128,
                    "avx256" | "ymm" | "256" => RegWidth::Avx256,
                    "avx512" | "zmm" | "512" => RegWidth::Avx512,
                    _ => usage(),
                }
            }
            "--mech" => {
                args.mech = match val.to_lowercase().as_str() {
                    "original" | "baseline" => Mechanism::Baseline,
                    "apcm" | "shuffle" => Mechanism::Apcm(ApcmVariant::Shuffle),
                    "maskrotate" => Mechanism::Apcm(ApcmVariant::MaskRotate),
                    _ => usage(),
                }
            }
            "--server" => {
                args.server = match val.to_lowercase().as_str() {
                    "beefy" => CoreConfig::beefy().warmed(),
                    "wimpy" => CoreConfig::wimpy().warmed(),
                    _ => usage(),
                }
            }
            "--k" => args.k = val.parse().unwrap_or_else(|_| usage()),
            "--stride" => args.stride = val.parse().unwrap_or_else(|_| usage()),
            _ => usage(),
        }
    }
    args
}

fn build_trace(args: &Args) -> Trace {
    match args.workload.as_str() {
        "arrangement" => {
            let input = synthetic_interleaved(args.k, 1);
            let (_, t) = ArrangeKernel::new(args.width, args.mech).arrange(&input, true);
            t.expect("tracing")
        }
        "decoder" => {
            use apcm::turbo::simd_decoder::SimdTurboDecoder;
            use vran_phy::bits::random_bits;
            use vran_phy::llr::{bit_to_llr, TurboLlrs};
            use vran_phy::turbo::TurboEncoder;
            let k = vran_phy::interleaver::QppInterleaver::next_legal_k(args.k.min(6144))
                .expect("legal K");
            let bits = random_bits(k, 3);
            let cw = TurboEncoder::new(k).encode(&bits);
            let d = cw.to_dstreams();
            let soft: [Vec<i16>; 3] = d
                .iter()
                .map(|s| s.iter().map(|&b| bit_to_llr(b, 60)).collect())
                .collect::<Vec<_>>()
                .try_into()
                .unwrap();
            let input = TurboLlrs::from_dstreams(&soft, k);
            let (_, t) = SimdTurboDecoder::new(k, 1, args.width).decode_traced(&input, 1);
            t
        }
        "stride" => {
            let data: Vec<i16> = (0..args.stride * args.k).map(|i| i as i16).collect();
            let apcm = !matches!(args.mech, Mechanism::Baseline);
            let (_, t) = StrideKernel::new(args.width, args.stride, apcm).deinterleave(&data, true);
            t.expect("tracing")
        }
        "adds" => workloads::adds_kernel(workloads::LARGE_WS, 20_000),
        "subs" => workloads::subs_kernel(workloads::LARGE_WS, 20_000),
        "max" => workloads::max_kernel(workloads::LARGE_WS, 20_000),
        "extract" => workloads::extract_kernel(workloads::LARGE_WS, 4_000),
        "ofdm" => workloads::ofdm_scalar_kernel(workloads::SMALL_WS, 8_000),
        _ => usage(),
    }
}

fn main() {
    let args = parse();
    let trace = build_trace(&args);
    let sim = CoreSim::new(args.server);
    let r = sim.run(&trace);
    let b = bounds(&trace, &args.server);
    let t = &r.topdown;

    println!("workload        {}", args.workload);
    println!("µops            {}", r.uops);
    println!("instructions    {}", r.instructions);
    println!(
        "cycles          {}  ({:.2} µs @ {:.1} GHz)",
        r.cycles, r.time_us, args.server.freq_ghz
    );
    println!("IPC             {:.3}   (µPC {:.3})", r.ipc, r.upc);
    println!();
    println!(
        "top-down        retiring {:5.1}%  frontend {:4.1}%  badspec {:4.1}%  backend {:5.1}%",
        t.retiring * 100.0,
        t.frontend * 100.0,
        t.bad_speculation * 100.0,
        t.backend() * 100.0
    );
    println!(
        "  backend       core {:5.1}%  memory {:5.1}%  (L2 {:4.1}% | L3 {:4.1}% | DRAM {:4.1}%)",
        t.backend_core * 100.0,
        t.backend_mem * 100.0,
        t.mem_levels[0] * 100.0,
        t.mem_levels[1] * 100.0,
        t.mem_levels[2] * 100.0
    );
    println!();
    print!("port util      ");
    for (p, u) in r.port_util.iter().enumerate() {
        print!(" P{p} {:4.0}%", u * 100.0);
    }
    println!();
    println!(
        "store path      {:.1} bits/cycle ({} bytes total)",
        r.store_bw_bits_per_cycle, r.store_bytes
    );
    println!(
        "load path       {:.1} bits/cycle ({} bytes total)",
        r.load_bw_bits_per_cycle, r.load_bytes
    );
    println!();
    println!(
        "analytic bounds dependency {}  ports {}  frontend {}  → binding: {} \
         (achieved {} = {:.2}× floor)",
        b.dependency,
        b.resource,
        b.frontend,
        b.binding(),
        r.cycles,
        r.cycles as f64 / b.overall().max(1) as f64
    );
    let c = r.cache;
    println!(
        "cache           {} accesses: L1 {:.1}%  L2 {}  L3 {}  DRAM {}",
        c.accesses,
        c.l1_hit_rate() * 100.0,
        c.l2_hits,
        c.l3_hits,
        c.dram
    );
}
