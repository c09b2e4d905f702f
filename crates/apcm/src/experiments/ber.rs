//! `ber` — turbo-code waterfall validation.
//!
//! Not a paper figure, but the substrate check that makes every other
//! figure trustworthy: the rate-1/2 turbo code over QPSK/AWGN must
//! show the classic waterfall — orders of magnitude BER drop within
//! ~1 dB — against the uncoded baseline.

use crate::report::{Figure, Row};
use vran_phy::bits::random_bits;
use vran_phy::channel::AwgnChannel;
use vran_phy::llr::{llr_to_bit, TurboLlrs};
use vran_phy::modulation::Modulation;
use vran_phy::rate_match::RateMatcher;
use vran_phy::turbo::{TurboDecoder, TurboEncoder};

const K: usize = 1024;
const BLOCKS: usize = 4;

/// Coded + uncoded bit error rates at one Es/N0 point.
fn ber_at(snr_db: f32) -> (f64, f64) {
    let enc = TurboEncoder::new(K);
    let dec = TurboDecoder::new(K, 6);
    let rm = RateMatcher::new(K + 4);
    let e = 2 * K;
    let mut coded_errs = 0usize;
    let mut raw_errs = 0usize;
    let mut raw_bits = 0usize;
    let mut d = [Vec::new(), Vec::new(), Vec::new()];
    for blk in 0..BLOCKS {
        let bits = random_bits(K, 1000 + blk as u64);
        let cw = enc.encode(&bits);
        let tx = rm.rate_match(&cw.to_dstreams(), e, 0);
        let syms = Modulation::Qpsk.modulate(&tx);
        let mut ch = AwgnChannel::new(snr_db, 77 + blk as u64);
        let rx = ch.apply(&syms);
        let scale = (ch.llr_scale() / 8.0).clamp(0.25, 16.0);
        let llrs = Modulation::Qpsk.demodulate(&rx, scale);
        raw_errs += llrs
            .iter()
            .zip(&tx)
            .filter(|(&l, &b)| llr_to_bit(l) != b)
            .count();
        raw_bits += tx.len();
        rm.try_de_rate_match_into(&llrs, 0, &mut d).expect("rv 0");
        let out = dec.decode(&TurboLlrs::from_dstreams(&d, K));
        coded_errs += out.bits.iter().zip(&bits).filter(|(a, b)| a != b).count();
    }
    (
        coded_errs as f64 / (K * BLOCKS) as f64,
        raw_errs as f64 / raw_bits as f64,
    )
}

/// Run the experiment.
pub fn run() -> Figure {
    let mut f = Figure::new(
        "ber",
        "Turbo rate-1/2 QPSK waterfall (K=1024, 6 iterations)",
        &["coded BER", "uncoded BER"],
    );
    for snr10 in [-20i32, -10, 0, 5, 10, 15, 20, 30] {
        let snr = snr10 as f32 / 10.0;
        let (coded, raw) = ber_at(snr);
        f.push(Row::new(format!("{snr:+.1}dB"), vec![coded, raw]));
    }
    f.note(
        "substrate validation: the waterfall protects every latency figure built on the decoder",
    );
    f
}

#[cfg(test)]
mod tests {
    #[test]
    fn waterfall_shape() {
        let f = super::run();
        let coded = |label: &str| f.value(label, "coded BER").unwrap();
        let raw = |label: &str| f.value(label, "uncoded BER").unwrap();
        // deep noise: coded BER near 0.5-ish (decoder can't help)
        assert!(coded("-2.0dB") > 0.05, "{}", coded("-2.0dB"));
        // waterfall: clean by +2 dB while the raw channel still errs
        assert_eq!(coded("+2.0dB"), 0.0, "turbo must be clean at 2 dB");
        assert!(
            raw("+2.0dB") > 0.01,
            "raw channel must still be noisy at 2 dB"
        );
        // monotone improvement across the sweep
        let points = [
            "-2.0dB", "-1.0dB", "+0.0dB", "+0.5dB", "+1.0dB", "+1.5dB", "+2.0dB",
        ];
        for w in points.windows(2) {
            assert!(
                coded(w[1]) <= coded(w[0]) + 1e-9,
                "BER must not rise with SNR: {} → {}",
                w[0],
                w[1]
            );
        }
    }
}
