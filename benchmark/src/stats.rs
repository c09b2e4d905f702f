//! Order statistics used by every workload: nearest-rank percentiles,
//! medians, and the per-pass summaries the end-to-end metrics are
//! medians of.

/// Nearest-rank percentile of `sorted` (ascending): the smallest
/// element with at least `q` of the samples at or below it. `q` is in
/// `(0, 1]`; an empty slice reads 0.
pub fn percentile_sorted(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(samples: &[f64], q: f64) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    percentile_sorted(&s, q)
}

/// Median: the mean of the two middle elements for an even count (so
/// it agrees with Python's `statistics.median`, which the driver uses).
pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// The quiet-window value of a lower-is-better quantity measured once
/// per window (pass, round, second) of a run: its 10th percentile.
///
/// Noise on a shared host only ever adds time, and on the reference
/// host it is bimodal — a busy sibling hyperthread makes everything
/// ≈ 45 % slower for stretches of 1 to 20 s. A median over windows flips
/// between the two modes as soon as the slow one covers half a run; the
/// 10th percentile stays on the quiet mode until it covers nine tenths,
/// and unlike the minimum it still rests on several windows.
pub fn quiet_low(per_window: &[f64]) -> f64 {
    percentile(per_window, 0.10)
}

/// [`quiet_low`] for a higher-is-better quantity: the 90th percentile.
pub fn quiet_high(per_window: &[f64]) -> f64 {
    percentile(per_window, 0.90)
}

/// One pass over the input pool: what the closed-loop workloads keep
/// per pass, so a run can report its quiet passes ([`quiet_low`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassSummary {
    /// Wire bits of the packets whose output was correct.
    pub ok_bits: u64,
    /// Sum of the per-call service times, ns.
    pub busy_ns: u64,
    /// Median per-call service time, ns.
    pub p50_ns: f64,
    /// 99th-percentile per-call service time, ns.
    pub p99_ns: f64,
    /// CPU seconds the process used over the pass (checks and
    /// bookkeeping between the calls included).
    pub cpu_s: f64,
}

impl PassSummary {
    /// Summarize one pass from its per-call service times.
    pub fn from_calls(call_ns: &mut [f64], ok_bits: u64, cpu_s: f64) -> Self {
        call_ns.sort_by(f64::total_cmp);
        Self {
            ok_bits,
            busy_ns: call_ns.iter().sum::<f64>() as u64,
            p50_ns: percentile_sorted(call_ns, 0.50),
            p99_ns: percentile_sorted(call_ns, 0.99),
            cpu_s,
        }
    }

    /// CPU seconds per correctly delivered gigabit.
    pub fn cpu_s_per_gbit(&self) -> f64 {
        self.cpu_s / (self.ok_bits.max(1) as f64 / 1e9)
    }

    /// Correct wire bits per second of service time, in Mbit/s.
    pub fn goodput_mbps(&self) -> f64 {
        self.ok_bits as f64 * 1e3 / self.busy_ns.max(1) as f64
    }
}

/// One quantity of every pass, in pass order.
pub fn per_pass(passes: &[PassSummary], f: impl Fn(&PassSummary) -> f64) -> Vec<f64> {
    passes.iter().map(f).collect()
}

/// First and third quartile by the "exclusive" method — what Python's
/// `statistics.quantiles(values, n=4)` returns as its first and last
/// cut point, so `--repeat` sees the spread the driver will see.
pub fn quartiles(samples: &[f64]) -> (f64, f64) {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n < 2 {
        let v = s.first().copied().unwrap_or(0.0);
        return (v, v);
    }
    let cut = |i: usize| {
        let pos = i * (n + 1);
        let j = (pos / 4).clamp(1, n - 1);
        let delta = pos as f64 / 4.0 - j as f64;
        s[j - 1] + (s[j] - s[j - 1]) * delta
    };
    (cut(1), cut(3))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_match_hand_computed() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.50), 5.0);
        assert_eq!(percentile(&v, 0.90), 9.0);
        assert_eq!(percentile(&v, 0.99), 10.0);
        assert_eq!(percentile(&v, 1.0), 10.0);
        assert_eq!(percentile(&[7.0], 0.5), 7.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        // 200 samples: p99 is the 198th, leaving two beyond it.
        let w: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        assert_eq!(percentile(&w, 0.99), 198.0);
    }

    #[test]
    fn median_interpolates_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn pass_summary_matches_hand_computed() {
        // 4 calls of 1, 2, 3, 10 µs carrying 8000 correct bits.
        let mut calls = [3000.0, 1000.0, 10000.0, 2000.0];
        let p = PassSummary::from_calls(&mut calls, 8000, 20e-6);
        assert_eq!(p.busy_ns, 16000);
        assert_eq!(p.p50_ns, 2000.0);
        assert_eq!(p.p99_ns, 10000.0);
        assert_eq!(p.goodput_mbps(), 500.0);
        // 20 µs of CPU for 8000 bits = 2.5 s per Gbit
        assert!((p.cpu_s_per_gbit() - 2.5).abs() < 1e-9);
    }

    #[test]
    fn quiet_window_estimate_ignores_a_slow_majority() {
        // 20 windows, 14 of them 45 % slower: the median reads the slow
        // mode, the quiet-window value does not.
        let times: Vec<f64> = (0..20)
            .map(|i| if i % 10 < 7 { 145.0 } else { 100.0 })
            .collect();
        assert_eq!(median(&times), 145.0);
        assert_eq!(quiet_low(&times), 100.0);
        let rates: Vec<f64> = times.iter().map(|t| 1000.0 / t).collect();
        assert_eq!(quiet_high(&rates), 10.0);
        // and it is not the minimum: one lucky window does not set it
        let mut lucky = vec![100.0; 30];
        lucky[7] = 60.0;
        assert_eq!(quiet_low(&lucky), 100.0);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 2.25));
    }
}
