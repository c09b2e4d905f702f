//! The paper's headline claims as one table: what the paper reports,
//! what the reproduction measures, and the band the measurement must
//! land in (shape and magnitude, not testbed-exact absolutes; see
//! EXPERIMENTS.md). `--bin check` prints it and `tests/paper_claims.rs`
//! asserts every row.

use crate::experiments;

/// One claim of the paper against the reproduction.
#[derive(Debug)]
pub struct Claim {
    /// What is claimed, and at which register width.
    pub what: &'static str,
    /// The paper's number, as the paper states it.
    pub paper: &'static str,
    /// The reproduction's number.
    pub measured: f64,
    /// Lowest value in band (inclusive).
    pub lo: f64,
    /// Highest value in band (inclusive).
    pub hi: f64,
    /// Unit of `measured`, `lo` and `hi`.
    pub unit: &'static str,
}

impl Claim {
    /// Whether the measured value lands in the claim's band.
    pub fn in_band(&self) -> bool {
        (self.lo..=self.hi).contains(&self.measured)
    }
}

/// Run the experiments behind the headline claims (Figs 8, 13, 14, 15,
/// 16) and return one row per claim.
pub fn all() -> Vec<Claim> {
    let fig8 = experiments::fig08::run();
    let fig13 = experiments::fig13::run();
    let fig14 = experiments::fig14::run();
    let fig15 = experiments::fig15::run();
    let fig16 = experiments::fig16::run();
    let v = |f: &crate::Figure, r: &str, c: &str| f.value(r, c).expect("figure cell");
    let udp1500 = fig13
        .rows
        .iter()
        .find(|r| r.label == "UDP-1500B")
        .expect("row");
    // Columns 0/1 are SSE128 original/APCM, 4/5 AVX512 original/APCM.
    let packet_cut = |orig: usize| (1.0 - udp1500.values[orig + 1] / udp1500.values[orig]) * 100.0;
    #[rustfmt::skip]
    let rows = [
        ("arrangement backend bound, original (128b)", "44.4 %",
         v(&fig15, "SSE128/original", "backend") * 100.0, 35.0, 60.0, "%"),
        ("arrangement backend bound, APCM (128b)", "3 %",
         v(&fig15, "SSE128/apcm", "backend") * 100.0, 0.0, 10.0, "%"),
        ("arrangement IPC, original (128b)", "1.2",
         v(&fig15, "SSE128/original", "IPC"), 0.9, 1.5, ""),
        ("arrangement IPC, APCM (128b)", "3.6",
         v(&fig15, "SSE128/apcm", "IPC"), 3.3, 4.0, ""),
        ("store-path bandwidth, original (128b)", "≈16 bits/cycle (12.5 %)",
         v(&fig8, "SSE128/original", "store bits/cycle"), 12.0, 20.0, "bits/cy"),
        ("bandwidth speedup at 128b", "≈4×",
         v(&fig8, "SSE128/apcm", "speedup vs original"), 3.5, 6.0, "×"),
        ("bandwidth speedup at 512b", "≈16×",
         v(&fig8, "AVX512/apcm", "speedup vs original"), 14.0, 24.0, "×"),
        ("arrangement CPU-time reduction (128b)", "67 %",
         v(&fig14, "SSE128", "reduction %"), 55.0, 88.0, "%"),
        ("arrangement CPU-time reduction (512b)", "92 %",
         v(&fig14, "AVX512", "reduction %"), 85.0, 99.0, "%"),
        ("packet-time reduction, 1500 B UDP (128b)", "12 %",
         packet_cut(0), 7.0, 18.0, "%"),
        ("packet-time reduction, 1500 B UDP (512b)", "20 %",
         packet_cut(4), 15.0, 28.0, "%"),
        ("Mbps/core, original (128b)", "16.4",
         v(&fig16, "SSE128", "Mbps/core orig"), 12.0, 21.0, "Mbps"),
        ("Mbps/core, APCM (512b)", "32.9",
         v(&fig16, "AVX512", "Mbps/core apcm"), 26.0, 40.0, "Mbps"),
        ("cores for 300 Mbps, APCM (512b)", "9",
         v(&fig16, "AVX512", "cores apcm"), 8.0, 11.0, "cores"),
    ];
    rows.into_iter()
        .map(|(what, paper, measured, lo, hi, unit)| Claim {
            what,
            paper,
            measured,
            lo,
            hi,
            unit,
        })
        .collect()
}
