//! The repository benchmark: five workloads over the receiver under
//! test, the eNB transmit chain and the stage-graph runtime, with
//! end-to-end metrics measured untraced and a per-layer budget from a
//! separate traced run. See `README.md` for every definition and
//! `../BENCHMARK.json` for the contract the driver reads.

pub mod chains;
pub mod closed;
pub mod host;
pub mod kernels;
pub mod sg;
pub mod stats;
pub mod trace;

use std::time::Instant;

/// Default number of distinct pre-generated inputs a workload cycles
/// through — ≈29 MB of IQ for `rx_bulk`, larger than L2, so input
/// arrives cold like a fronthaul buffer.
pub const POOL: usize = 512;

/// Set-ups timed ahead of the timed region.
pub const SETUP_BEFORE: usize = 3;

/// Set-ups timed after it (their product is dropped).
pub const SETUP_AFTER: usize = 2;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 5] = ["rx_bulk", "rx_decode", "tx_bulk", "sg_saturate", "sg_paced"];

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
pub const END_TO_END: [(&str, &str); 4] = [
    ("goodput_mbps", "Mbit/s"),
    ("packet_us_p50", "us"),
    ("cpu_s_per_gbit", "s/Gbit"),
    ("setup_s", "s"),
];

/// What one invocation is asked to do.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    /// Drives port numbers, class order and noise seeds.
    pub seed: u64,
    /// Length of the timed region. Every workload also runs at least
    /// twice through its pool, so `0.0` gives the shortest valid run.
    pub seconds: f64,
    /// Distinct inputs in the pool.
    pub pool: usize,
    /// Record spans and layer counters (per-layer metrics) instead of
    /// measuring the end-to-end metrics.
    pub trace: bool,
}

/// Spans of one traced run, ready to be written out.
#[derive(Debug)]
pub struct TraceDump {
    /// Operation table the spans index.
    pub ops: Vec<&'static str>,
    /// Every span recorded.
    pub spans: Vec<trace::Span>,
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted in the timed region.
    pub attempted: u64,
    /// Operations whose output was wrong or missing.
    pub failed: u64,
    /// Timing samples behind the percentiles (per-call service times,
    /// rounds or deliveries — the README says which per workload).
    pub samples: u64,
    /// `(name, value)`; units come from the metric tables.
    pub metrics: Vec<(String, f64)>,
    /// Free-form `(key, text)` lines printed and stored beside the
    /// metrics (sample counts, `cores_for_300mbps`, …).
    pub notes: Vec<(String, String)>,
    /// Spans, when the run was traced.
    pub trace: Option<TraceDump>,
    /// Why the run's numbers mean nothing even though no operation
    /// failed (an open-loop generator that fell behind).
    pub invalid: Option<String>,
}

impl Outcome {
    /// Every operation succeeded and the numbers are meaningful.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_none()
    }

    /// Append one metric.
    pub fn put(&mut self, name: &str, value: f64) {
        self.metrics.push((name.to_string(), value));
    }

    /// Append one note.
    pub fn note(&mut self, key: &str, text: impl ToString) {
        self.notes.push((key.to_string(), text.to_string()));
    }

    /// Value of a metric already put.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics.iter().find(|(n, _)| n == name).map(|m| m.1)
    }
}

/// A failure of the benchmark itself (parity mismatch, unknown
/// workload): the run has no result and the process exits non-zero.
pub type Fatal = String;

/// A workload's set-up, timed several times in one run.
///
/// The repeats are split around the timed region — [`SETUP_BEFORE`]
/// ahead of it, [`SETUP_AFTER`] behind it — and the quiet one
/// ([`stats::quiet_low`]: of five, the fastest) is reported. The host's
/// slow stretches last up to ≈ 20 s; five back-to-back set-ups take
/// under 3 s and can all fall inside one, two groups a whole timed
/// region apart rarely do.
pub struct Setup<F> {
    run: F,
    secs: Vec<f64>,
}

impl<T, F: FnMut() -> T> Setup<F> {
    /// Wrap the set-up routine.
    pub fn new(run: F) -> Self {
        Self {
            run,
            secs: Vec::with_capacity(SETUP_BEFORE + SETUP_AFTER),
        }
    }

    fn once(&mut self) -> T {
        let t = Instant::now();
        let product = (self.run)();
        self.secs.push(t.elapsed().as_secs_f64());
        product
    }

    /// Set up ahead of the timed region; the last product is the one
    /// the run uses (earlier ones are dropped before the next is built).
    pub fn before(&mut self) -> T {
        let mut product = self.once();
        for _ in 1..SETUP_BEFORE {
            drop(product);
            product = self.once();
        }
        product
    }

    /// Set up again behind the timed region and report `setup_s`.
    pub fn after(mut self) -> f64 {
        for _ in 0..SETUP_AFTER {
            drop(self.once());
        }
        stats::quiet_low(&self.secs)
    }
}

/// A packet builder on ports derived from the seed.
pub fn seeded_builder(seed: u64) -> vran_net::packet::PacketBuilder {
    let mut rng = vran_util::rng::SmallRng::seed_from_u64(seed);
    let mut port = || 1024 + (rng.next_u32() % 60000) as u16;
    vran_net::packet::PacketBuilder::new(port(), port())
}

/// Run one workload by name.
pub fn run_workload(name: &str, p: &Params) -> Result<Outcome, Fatal> {
    match name {
        "rx_bulk" => closed::rx(&closed::RX_BULK, p),
        "rx_decode" => closed::rx(&closed::RX_DECODE, p),
        "tx_bulk" => closed::tx(p),
        "sg_saturate" => sg::saturate(p),
        "sg_paced" => sg::paced(p),
        _ => Err(format!(
            "unknown workload {name:?}; expected one of {WORKLOADS:?}"
        )),
    }
}

/// Per-layer metrics `(name, unit)`, reported by every traced run. A
/// layer a workload does not exercise reads 0 there: no time was spent
/// in it.
pub const PER_LAYER: [(&str, &str); 85] = [
    // receive chain (rx_bulk, rx_decode)
    ("phy.ofdm.demod_ns_per_pkt", "ns"),
    ("phy.ofdm.demod_ns_per_sym", "ns"),
    ("phy.ofdm.demod.share", "ratio"),
    ("phy.demap.ns_per_pkt", "ns"),
    ("phy.demap.ns_per_llr", "ns"),
    ("phy.demap.share", "ratio"),
    ("phy.scrambler.descramble_ns_per_pkt", "ns"),
    ("phy.scrambler.descramble_ns_per_llr", "ns"),
    ("phy.scrambler.descramble.share", "ratio"),
    ("phy.rate_match.derm_ns_per_pkt", "ns"),
    ("phy.rate_match.derm_ns_per_llr", "ns"),
    ("phy.rate_match.derm.share", "ratio"),
    ("arrange.fused.ns_per_pkt", "ns"),
    ("arrange.fused.ns_per_llr", "ns"),
    ("arrange.fused.share", "ratio"),
    ("phy.turbo.decode_ns_per_pkt", "ns"),
    ("phy.turbo.decode_ns_per_bit_iter", "ns"),
    ("phy.turbo.decode.share", "ratio"),
    ("phy.turbo.blocks_per_pkt", "count"),
    ("phy.turbo.iters_per_block", "count"),
    ("phy.turbo.iter_cap_used.ratio", "ratio"),
    ("phy.segmentation.deseg_ns_per_pkt", "ns"),
    ("phy.segmentation.deseg.share", "ratio"),
    ("phy.crc.check_ns_per_pkt", "ns"),
    ("phy.crc.check.share", "ratio"),
    ("net.l2.decap_ns_per_pkt", "ns"),
    ("net.l2.decap.share", "ratio"),
    ("rx.unattributed.frac", "ratio"),
    ("rx.trace_overhead.frac", "ratio"),
    ("rx.packet_us_p99", "us"),
    ("net.pipeline.process_us_p50", "us"),
    ("net.pipeline.rx_share_of_loopback.ratio", "ratio"),
    // transmit chain (tx_bulk)
    ("net.l2.encap_ns_per_pkt", "ns"),
    ("net.l2.encap.share", "ratio"),
    ("phy.crc.attach_ns_per_pkt", "ns"),
    ("phy.crc.attach.share", "ratio"),
    ("phy.segmentation.seg_ns_per_pkt", "ns"),
    ("phy.segmentation.seg.share", "ratio"),
    ("phy.turbo.encode_ns_per_pkt", "ns"),
    ("phy.turbo.encode_ns_per_bit", "ns"),
    ("phy.turbo.encode.share", "ratio"),
    ("phy.rate_match.rm_ns_per_pkt", "ns"),
    ("phy.rate_match.rm.share", "ratio"),
    ("phy.scrambler.scramble_ns_per_pkt", "ns"),
    ("phy.scrambler.scramble.share", "ratio"),
    ("phy.modulation.map_ns_per_pkt", "ns"),
    ("phy.modulation.map.share", "ratio"),
    ("phy.ofdm.mod_ns_per_pkt", "ns"),
    ("phy.ofdm.mod_ns_per_sym", "ns"),
    ("phy.ofdm.mod.share", "ratio"),
    ("tx.unattributed.frac", "ratio"),
    ("tx.trace_overhead.frac", "ratio"),
    ("tx.packet_us_p99", "us"),
    // stage-graph runtime (sg_saturate, sg_paced)
    ("net.ring.push_stalls", "1/pkt"),
    ("net.ring.pop_stalls", "1/pkt"),
    ("net.ring.occupancy_mean", "count"),
    ("net.stagegraph.lane_occupancy.ratio", "ratio"),
    ("net.stagegraph.quad_blocks", "1/pkt"),
    ("net.stagegraph.pair_blocks", "1/pkt"),
    ("net.stagegraph.single_blocks", "1/pkt"),
    ("net.stagegraph.flush_lanes_full", "1/pkt"),
    ("net.stagegraph.flush_deadline", "1/pkt"),
    ("net.stagegraph.flush_drain", "1/pkt"),
    ("net.pipeline.serial_goodput_mbps", "Mbit/s"),
    ("net.stagegraph.metered_goodput_mbps", "Mbit/s"),
    ("net.stagegraph.vs_serial.ratio", "ratio"),
    ("net.stagegraph.admit_us_p50", "us"),
    ("net.stagegraph.admit_us_p99", "us"),
    ("net.stagegraph.batch_wait_us_p50", "us"),
    ("net.stagegraph.batch_wait_us_p99", "us"),
    ("net.stagegraph.in_flight_max", "count"),
    ("net.stagegraph.latency_us_p90", "us"),
    ("net.stagegraph.latency_us_p99", "us"),
    ("gen.late_us_p99", "us"),
    ("gen.backlog_end", "count"),
    // kernel table (every traced run)
    ("arrange.native.original_ns_per_block.k6144", "ns"),
    ("arrange.native.apcm_ns_per_block.k6144", "ns"),
    ("arrange.native.apcm_speedup.ratio.k6144", "ratio"),
    ("phy.turbo.native.single_ns_per_block.k6144", "ns"),
    ("phy.turbo.native_batch.quad_ns_per_block.k6144", "ns"),
    ("arrange.native.original_ns_per_block.k512", "ns"),
    ("arrange.native.apcm_ns_per_block.k512", "ns"),
    ("arrange.native.apcm_speedup.ratio.k512", "ratio"),
    ("phy.turbo.native.single_ns_per_block.k512", "ns"),
    ("phy.turbo.native_batch.quad_ns_per_block.k512", "ns"),
];
