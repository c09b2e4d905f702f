//! AWGN channel model — the synthetic stand-in for the paper's RF path
//! (USRP B210 + Huawei UE), per the DESIGN.md substitution table. The
//! experiments only need a bit-exact reproducible source of noisy LLRs
//! with controllable SNR.

use crate::modulation::Cplx;
use vran_util::rng::SmallRng;

/// Additive white Gaussian noise channel with a fixed seed.
#[derive(Debug, Clone)]
pub struct AwgnChannel {
    sigma: f32,
    rng: SmallRng,
}

impl AwgnChannel {
    /// Channel at the given per-symbol SNR (Es/N0) in dB, assuming unit
    /// average symbol energy.
    pub fn new(snr_db: f32, seed: u64) -> Self {
        // Es/N0 = 1/(2σ²) per complex dimension → σ = sqrt(1/(2·SNR)).
        let snr = 10f32.powf(snr_db / 10.0);
        let sigma = (1.0 / (2.0 * snr)).sqrt();
        Self {
            sigma,
            rng: SmallRng::seed_from_u64(seed),
        }
    }

    /// Per-axis noise standard deviation.
    pub fn sigma(&self) -> f32 {
        self.sigma
    }

    /// The max-log demapper scale `1/σ²` (up to a constant).
    pub fn llr_scale(&self) -> f32 {
        1.0 / (self.sigma * self.sigma).max(1e-9)
    }

    /// Draw one Gaussian sample (Box–Muller inside `vran-util`'s RNG).
    fn gauss(&mut self) -> f32 {
        self.rng.gauss_f32()
    }

    /// Add noise to a symbol stream.
    pub fn apply(&mut self, symbols: &[Cplx]) -> Vec<Cplx> {
        let mut out = Vec::new();
        self.apply_into(symbols, &mut out);
        out
    }

    /// [`Self::apply`] into a caller-owned buffer (cleared first); the
    /// Gaussian draws come in the same order, so a seed reproduces the
    /// same noise through either.
    pub fn apply_into(&mut self, symbols: &[Cplx], out: &mut Vec<Cplx>) {
        out.clear();
        out.extend(symbols.iter().map(|s| {
            Cplx::new(
                s.re + self.sigma * self.gauss(),
                s.im + self.sigma * self.gauss(),
            )
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::random_bits;
    use crate::modulation::Modulation;

    #[test]
    fn noise_power_matches_configuration() {
        let mut ch = AwgnChannel::new(3.0, 42);
        let zeros = vec![Cplx::default(); 20_000];
        let noisy = ch.apply(&zeros);
        let p: f32 = noisy.iter().map(|s| s.norm_sq()).sum::<f32>() / noisy.len() as f32;
        let expected = 2.0 * ch.sigma() * ch.sigma();
        assert!(
            (p - expected).abs() / expected < 0.05,
            "measured {p}, expected {expected}"
        );
    }

    #[test]
    fn deterministic_per_seed() {
        let s = Modulation::Qpsk.modulate(&random_bits(64, 1));
        let a = AwgnChannel::new(5.0, 7).apply(&s);
        let b = AwgnChannel::new(5.0, 7).apply(&s);
        let c = AwgnChannel::new(5.0, 8).apply(&s);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn high_snr_qpsk_has_no_bit_errors() {
        let bits = random_bits(2000, 3);
        let tx = Modulation::Qpsk.modulate(&bits);
        let rx = AwgnChannel::new(15.0, 5).apply(&tx);
        let llrs = Modulation::Qpsk.demodulate(&rx, 1.0);
        let errs = llrs
            .iter()
            .zip(&bits)
            .filter(|(&l, &b)| u8::from(l < 0) != b)
            .count();
        assert_eq!(errs, 0, "15 dB QPSK must be error-free over 2000 bits");
    }

    #[test]
    fn low_snr_produces_errors() {
        let bits = random_bits(4000, 4);
        let tx = Modulation::Qpsk.modulate(&bits);
        let rx = AwgnChannel::new(-3.0, 6).apply(&tx);
        let llrs = Modulation::Qpsk.demodulate(&rx, 1.0);
        let errs = llrs
            .iter()
            .zip(&bits)
            .filter(|(&l, &b)| u8::from(l < 0) != b)
            .count();
        assert!(errs > 100, "-3 dB QPSK must show raw errors: {errs}");
    }
}
