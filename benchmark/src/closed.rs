//! The three closed-loop, single-thread workloads: one client calls
//! `rx_once` / `tx_once` again as soon as the previous call returns, so
//! throughput is the reciprocal of service time and nothing queues.
//!
//! The timed region is a whole number of passes over the input pool.
//! Each pass is summarised on its own ([`PassSummary`]) and a run
//! reports its quiet passes ([`quiet_low`]), so stretches when a noisy
//! neighbour slows the host move some passes, not the result.

use crate::chains::{
    checksum, parity_rx, reference_scrambled_bits, rx_op, tx_op, Capture, Link, Receiver,
    Transmitter,
};
use crate::stats::{per_pass, quiet_high, quiet_low, PassSummary};
use crate::trace::{Budget, NoTrace, SpanLog};
use crate::{host, kernels, seeded_builder, Fatal, Outcome, Params, Setup, TraceDump};
use std::hint::black_box;
use std::time::Instant;
use vran_net::packet::{Packet, Transport};
use vran_net::pipeline::{PipelineConfig, UplinkPipeline};
use vran_phy::modulation::Modulation;
use vran_util::rng::SmallRng;

/// Items the set-up parity check covers.
const PARITY_ITEMS: usize = 32;

/// One receive workload: which frames arrive over which link.
#[derive(Debug)]
pub struct RxWorkload {
    /// Wire lengths, cycled per pool item.
    pub wire_lens: &'static [usize],
    /// Data-channel modulation.
    pub modulation: Modulation,
    /// Channel Es/N0 in dB.
    pub snr_db: f32,
}

/// 1400 B frames, 64-QAM at 20 dB: two code blocks that stop early on
/// CRC24B, so the front end outweighs the decoder.
pub const RX_BULK: RxWorkload = RxWorkload {
    wire_lens: &[1400],
    modulation: Modulation::Qam64,
    snr_db: 20.0,
};

/// 256 B and 512 B frames, 16-QAM at 10 dB: one code block each, which
/// always runs the full iteration cap. Two of three frames are 512 B so
/// the median service time sits inside one mode, not in the gap between
/// the two sizes.
pub const RX_DECODE: RxWorkload = RxWorkload {
    wire_lens: &[256, 512, 512],
    modulation: Modulation::Qam16,
    snr_db: 10.0,
};

/// `pool` UDP frames of the given wire lengths on seed-derived ports.
fn frames(seed: u64, pool: usize, wire_lens: &[usize]) -> Vec<Packet> {
    let mut b = seeded_builder(seed);
    (0..pool)
        .map(|i| {
            b.build(Transport::Udp, wire_lens[i % wire_lens.len()])
                .expect("wire length fits the headers")
        })
        .collect()
}

/// What the timed loop hands back.
struct Loop {
    untraced: Vec<PassSummary>,
    traced: Vec<PassSummary>,
    attempted: u64,
    failed: u64,
}

/// Pass over `items` pool entries until `seconds` have elapsed (at
/// least twice; when tracing, alternating untraced and traced passes so
/// both see the same machine state). `call(item, traced)` returns the
/// call's service time in ns and the wire bits it delivered correctly
/// (0 = failed).
fn closed_loop(
    items: usize,
    seconds: f64,
    trace: bool,
    mut call: impl FnMut(usize, bool) -> (u64, u64),
) -> Loop {
    let mut out = Loop {
        untraced: Vec::new(),
        traced: Vec::new(),
        attempted: 0,
        failed: 0,
    };
    let min_passes = if trace { 4 } else { 2 };
    let mut call_ns = vec![0.0; items];
    let start = Instant::now();
    let mut pass = 0;
    while pass < min_passes || start.elapsed().as_secs_f64() < seconds {
        let traced = trace && pass % 2 == 1;
        let cpu0 = host::process_cpu_seconds();
        let mut ok_bits = 0;
        for (i, slot) in call_ns.iter_mut().enumerate() {
            let (ns, bits) = call(i, traced);
            *slot = ns as f64;
            ok_bits += bits;
            out.failed += u64::from(bits == 0);
        }
        out.attempted += items as u64;
        let cpu_s = host::process_cpu_seconds() - cpu0;
        let summary = PassSummary::from_calls(&mut call_ns, ok_bits, cpu_s);
        if traced {
            out.traced.push(summary);
        } else {
            out.untraced.push(summary);
        }
        pass += 1;
    }
    out
}

/// The end-to-end metrics of a closed-loop run.
fn put_end_to_end(o: &mut Outcome, l: &Loop, setup_s: f64) {
    o.put(
        "goodput_mbps",
        quiet_high(&per_pass(&l.untraced, PassSummary::goodput_mbps)),
    );
    o.put(
        "packet_us_p50",
        quiet_low(&per_pass(&l.untraced, |p| p.p50_ns)) / 1e3,
    );
    o.put(
        "cpu_s_per_gbit",
        quiet_low(&per_pass(&l.untraced, PassSummary::cpu_s_per_gbit)),
    );
    o.put("setup_s", setup_s);
    o.note("passes", l.untraced.len());
}

/// `<name>_ns_per_pkt` and `<name>.share` for every stage of a closed
/// budget, plus the unattributed remainder and the tracing overhead.
fn put_budget(o: &mut Outcome, prefix: &str, names: &[&str], b: &Budget, l: &Loop) {
    for (i, name) in names.iter().enumerate().skip(1) {
        // `layer.module.op` reads `…op_ns_per_pkt`; a module with a
        // single operation (`layer.module`) reads `module.ns_per_pkt`.
        let sep = if name.matches('.').count() >= 2 {
            '_'
        } else {
            '.'
        };
        o.put(&format!("{name}{sep}ns_per_pkt"), b.ns_per_req(i as u16));
        o.put(&format!("{name}.share"), b.share(i as u16));
    }
    o.put(&format!("{prefix}.unattributed.frac"), b.share(0));
    o.put(
        &format!("{prefix}.packet_us_p99"),
        quiet_low(&per_pass(&l.untraced, |p| p.p99_ns)) / 1e3,
    );
    // Passes alternate untraced, traced, untraced, …: each traced pass
    // is compared with the untraced passes either side of it, so a
    // drift in machine speed cancels instead of reading as overhead.
    let ratios: Vec<f64> = l
        .traced
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let before = l.untraced[i].p50_ns;
            let after = l.untraced.get(i + 1).map_or(before, |u| u.p50_ns);
            2.0 * t.p50_ns / (before + after)
        })
        .collect();
    o.put(
        &format!("{prefix}.trace_overhead.frac"),
        crate::stats::median(&ratios) - 1.0,
    );
    o.note("traced_requests", b.requests);
}

/// Run a receive workload.
pub fn rx(w: &RxWorkload, p: &Params) -> Result<Outcome, Fatal> {
    let link = Link::new(w.modulation, w.snr_db);
    let mut setup = Setup::new(|| {
        let packets = frames(p.seed, p.pool, w.wire_lens);
        let mut noise = SmallRng::seed_from_u64(p.seed ^ 0x6e6f_6973);
        let mut tx = Transmitter::new(link);
        let pool: Vec<Capture> = packets
            .iter()
            .map(|pk| Capture::generate(&mut tx, &pk.frame, noise.next_u64()))
            .collect();
        let mut rx = Receiver::new(link);
        for cap in &pool {
            black_box(rx.rx_once(cap, &mut NoTrace));
        }
        (packets, pool, rx)
    });
    let (packets, pool, mut rx) = setup.before();

    for (pk, cap) in packets.iter().zip(&pool).take(PARITY_ITEMS) {
        parity_rx(link, pk, cap, &rx.rx_once(cap, &mut NoTrace))?;
    }

    let mut log = SpanLog::with_capacity(if p.trace { 1 << 20 } else { 0 });
    let mut req = 0;
    let mut iterations = 0u64;
    let mut blocks = 0u64;
    let l = closed_loop(pool.len(), p.seconds, p.trace, |i, traced| {
        let cap = &pool[i];
        let t = Instant::now();
        let got = if traced {
            log.set_request(req);
            req += 1;
            rx.rx_once(cap, &mut log)
        } else {
            rx.rx_once(cap, &mut NoTrace)
        };
        let ns = t.elapsed().as_nanos() as u64;
        iterations += got.iterations as u64;
        blocks += got.code_blocks as u64;
        let ok = got.sdu.as_deref() == Some(&cap.frame[..]);
        (ns, if ok { cap.frame.len() as u64 * 8 } else { 0 })
    });

    let mut o = Outcome {
        attempted: l.attempted,
        failed: l.failed,
        samples: l.attempted,
        ..Default::default()
    };
    if !p.trace {
        put_end_to_end(&mut o, &l, setup.after());
        if w.wire_lens == RX_BULK.wire_lens {
            let goodput = o.get("goodput_mbps").unwrap_or(0.0);
            o.note(
                "cores_for_300mbps",
                format!(
                    "{:.2} (paper Fig 16: 9.1 cores at 32.9 Mbit/s/core, 1500 B)",
                    300.0 / goodput
                ),
            );
        }
        return Ok(o);
    }

    let b = Budget::close(log.spans(), rx_op::NAMES.len(), rx_op::ONCE);
    put_budget(&mut o, "rx", &rx_op::NAMES, &b, &l);
    o.put(
        "phy.ofdm.demod_ns_per_sym",
        b.ns_per_unit(rx_op::OFDM_DEMOD),
    );
    o.put("phy.demap.ns_per_llr", b.ns_per_unit(rx_op::DEMAP));
    o.put(
        "phy.scrambler.descramble_ns_per_llr",
        b.ns_per_unit(rx_op::DESCRAMBLE),
    );
    o.put("phy.rate_match.derm_ns_per_llr", b.ns_per_unit(rx_op::DERM));
    o.put("arrange.fused.ns_per_llr", b.ns_per_unit(rx_op::FUSED));
    o.put(
        "phy.turbo.decode_ns_per_bit_iter",
        b.ns_per_unit(rx_op::DECODE),
    );
    o.put(
        "phy.turbo.blocks_per_pkt",
        blocks as f64 / l.attempted as f64,
    );
    o.put(
        "phy.turbo.iters_per_block",
        iterations as f64 / blocks.max(1) as f64,
    );
    o.put(
        "phy.turbo.iter_cap_used.ratio",
        iterations as f64 / (blocks.max(1) * link.decoder_iterations as u64) as f64,
    );

    // The dilution every loopback number carries: the same frames over
    // the same link through `process`, which also synthesises the
    // transmitter and the channel.
    let pipe = UplinkPipeline::new(PipelineConfig {
        modulation: link.modulation,
        snr_db: link.snr_db,
        seed: p.seed,
        ..Default::default()
    });
    let mut process_ns: Vec<f64> = packets
        .iter()
        .chain(&packets)
        .map(|pk| {
            let t = Instant::now();
            black_box(pipe.process(pk).is_ok());
            t.elapsed().as_nanos() as f64
        })
        .collect();
    let process_p50 = crate::stats::median(&process_ns.split_off(packets.len()));
    o.put("net.pipeline.process_us_p50", process_p50 / 1e3);
    o.put(
        "net.pipeline.rx_share_of_loopback.ratio",
        quiet_low(&per_pass(&l.untraced, |p| p.p50_ns)) / process_p50,
    );

    kernels::put_table(&mut o);
    o.trace = Some(TraceDump {
        ops: rx_op::NAMES.to_vec(),
        spans: log.into_spans(),
    });
    Ok(o)
}

/// Run the transmit workload: the eNB transmit chain on the `rx_bulk`
/// frames.
pub fn tx(p: &Params) -> Result<Outcome, Fatal> {
    let link = Link::new(RX_BULK.modulation, RX_BULK.snr_db);
    let mut setup = Setup::new(|| {
        let packets = frames(p.seed, p.pool, RX_BULK.wire_lens);
        let mut tx = Transmitter::new(link);
        // The reference pass doubles as the warm-up pass.
        let reference: Vec<u64> = packets
            .iter()
            .map(|pk| checksum(&tx.tx_once(&pk.frame, &mut NoTrace).samples))
            .collect();
        (packets, reference, tx)
    });
    let (packets, reference, mut tx) = setup.before();

    for pk in packets.iter().take(PARITY_ITEMS) {
        tx.tx_once(&pk.frame, &mut NoTrace);
        if tx.scrambled_bits() != reference_scrambled_bits(link, &pk.frame) {
            return Err(format!(
                "packed transmit chain disagrees with the scalar reference on a {} B frame",
                pk.frame.len()
            ));
        }
    }

    let mut log = SpanLog::with_capacity(if p.trace { 1 << 20 } else { 0 });
    let mut req = 0;
    let l = closed_loop(packets.len(), p.seconds, p.trace, |i, traced| {
        let frame = &packets[i].frame;
        let t = Instant::now();
        let air = if traced {
            log.set_request(req);
            req += 1;
            tx.tx_once(frame, &mut log)
        } else {
            tx.tx_once(frame, &mut NoTrace)
        };
        let ns = t.elapsed().as_nanos() as u64;
        let ok = checksum(&air.samples) == reference[i];
        (ns, if ok { frame.len() as u64 * 8 } else { 0 })
    });

    let mut o = Outcome {
        attempted: l.attempted,
        failed: l.failed,
        samples: l.attempted,
        ..Default::default()
    };
    if !p.trace {
        put_end_to_end(&mut o, &l, setup.after());
        return Ok(o);
    }
    let b = Budget::close(log.spans(), tx_op::NAMES.len(), tx_op::ONCE);
    put_budget(&mut o, "tx", &tx_op::NAMES, &b, &l);
    o.put("phy.turbo.encode_ns_per_bit", b.ns_per_unit(tx_op::ENCODE));
    o.put("phy.ofdm.mod_ns_per_sym", b.ns_per_unit(tx_op::OFDM_MOD));
    kernels::put_table(&mut o);
    o.trace = Some(TraceDump {
        ops: tx_op::NAMES.to_vec(),
        spans: log.into_spans(),
    });
    Ok(o)
}
