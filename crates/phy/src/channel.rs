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

    /// The next sample's noise `(σ·g, σ·g)`: two Gaussian draws
    /// (Box–Muller inside `vran-util`'s RNG), re first, each product
    /// rounded to f32 before anything is added to it.
    fn draw(&mut self) -> Cplx {
        let re = self.sigma * self.rng.gauss_f32();
        let im = self.sigma * self.rng.gauss_f32();
        Cplx::new(re, im)
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
        out.extend(symbols.iter().map(|s| s.add(self.draw())));
    }
}

/// The noise of one `(snr_db, seed)` channel, drawn once and replayed.
///
/// [`Self::apply_into`] equals `AwgnChannel::new(snr_db, seed)
/// .apply_into` bit for bit, for any input: the tape holds the f32
/// products `σ·g` the channel adds, in draw order, so replaying them
/// performs the same two roundings per axis. It draws only when a
/// longer stream than any before arrives, and then carries on from the
/// channel's RNG state where the last growth stopped.
#[derive(Debug, Clone)]
pub struct NoiseTape {
    channel: AwgnChannel,
    noise: Vec<Cplx>,
}

impl NoiseTape {
    /// An empty tape of `AwgnChannel::new(snr_db, seed)`'s noise.
    pub fn new(snr_db: f32, seed: u64) -> Self {
        Self {
            channel: AwgnChannel::new(snr_db, seed),
            noise: Vec::new(),
        }
    }

    /// The channel the tape records (its σ and LLR scale).
    pub fn channel(&self) -> &AwgnChannel {
        &self.channel
    }

    /// Samples of noise recorded so far.
    pub fn recorded(&self) -> usize {
        self.noise.len()
    }

    /// Samples the tape can hold before it reallocates.
    pub fn capacity(&self) -> usize {
        self.noise.capacity()
    }

    /// Add the channel's noise to `symbols` into `out` (cleared first).
    pub fn apply_into(&mut self, symbols: &[Cplx], out: &mut Vec<Cplx>) {
        let more = symbols.len().saturating_sub(self.noise.len());
        self.noise.reserve_exact(more);
        let channel = &mut self.channel;
        self.noise.extend((0..more).map(|_| channel.draw()));
        out.clear();
        out.extend(symbols.iter().zip(&self.noise).map(|(s, w)| s.add(*w)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bits::random_bits;
    use crate::modulation::Modulation;
    use vran_util::proptest::prelude::*;

    fn to_bits(s: &[Cplx]) -> Vec<(u32, u32)> {
        s.iter().map(|c| (c.re.to_bits(), c.im.to_bits())).collect()
    }

    /// Replays one tape over a stream per length in `lens`, each
    /// against a fresh channel of the same `(snr_db, seed)`.
    fn tape_matches_fresh_channels(snr_db: f32, seed: u64, lens: &[usize]) {
        let mut tape = NoiseTape::new(snr_db, seed);
        let mut out = Vec::new();
        for (call, &n) in lens.iter().enumerate() {
            let symbols = Modulation::Qam64.modulate(&random_bits(6 * n, seed ^ call as u64));
            let expect = AwgnChannel::new(snr_db, seed).apply(&symbols);
            tape.apply_into(&symbols, &mut out);
            assert_eq!(
                to_bits(&out),
                to_bits(&expect),
                "snr {snr_db} seed {seed} call {call} len {n}"
            );
        }
        assert_eq!(tape.recorded(), lens.iter().copied().max().unwrap_or(0));
    }

    #[test]
    fn a_tape_replays_the_channel_bit_for_bit() {
        let lens = [0, 7, 3, 1_100, 40, 12_000, 12_000];
        for (snr_db, seed) in [(14.0, 1), (20.0, 0xD5D4), (-3.0, 77), (0.5, u64::MAX)] {
            tape_matches_fresh_channels(snr_db, seed, &lens);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn a_tape_replays_any_length_sequence(
            lens in prop::collection::vec(0usize..3_000, 1..9),
            seed in any::<u64>(),
        ) {
            tape_matches_fresh_channels(10.0, seed, &lens);
        }
    }

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
