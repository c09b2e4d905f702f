//! Median of paired wall-clock ratios — the one noise-robust way this
//! workspace turns two timed runs into a number a test or a gate may
//! judge.
//!
//! Absolute times on a shared host drift by tens of percent between
//! seconds; the ratio of two runs made back to back drifts far less,
//! and the median of several such ratios ignores the pairs a noisy
//! stretch happened to split. Alternating which side goes first
//! cancels "the second run finds warm caches / a boosted clock".

/// Result of [`paired_ratio`].
#[derive(Debug, Clone, PartialEq)]
pub struct PairedRatio {
    /// Median of the per-pair ratios `b / a`.
    pub median: f64,
    /// Every per-pair ratio, ascending.
    pub ratios: Vec<f64>,
    /// Median seconds per run of side `a`.
    pub a_s: f64,
    /// Median seconds per run of side `b`.
    pub b_s: f64,
}

/// Run `a` and `b` in `pairs` back-to-back pairs (`a, b`, then `b, a`,
/// alternating) and return the median of `bᵢ / aᵢ`. Each closure
/// performs one run and returns its elapsed seconds; within a pair a
/// side is repeated until it has accumulated at least `min_side_s`
/// seconds and contributes its mean seconds per run, so a short run is
/// not judged on one sample.
pub fn paired_ratio(
    pairs: usize,
    min_side_s: f64,
    mut a: impl FnMut() -> f64,
    mut b: impl FnMut() -> f64,
) -> PairedRatio {
    assert!(pairs >= 1, "need at least one pair");
    fn side(min_side_s: f64, f: &mut dyn FnMut() -> f64) -> f64 {
        let (mut total, mut runs) = (0.0, 0u32);
        loop {
            total += f();
            runs += 1;
            if total >= min_side_s {
                return total / f64::from(runs);
            }
        }
    }
    let (mut a_s, mut b_s) = (Vec::with_capacity(pairs), Vec::with_capacity(pairs));
    for i in 0..pairs {
        if i % 2 == 0 {
            a_s.push(side(min_side_s, &mut a));
            b_s.push(side(min_side_s, &mut b));
        } else {
            b_s.push(side(min_side_s, &mut b));
            a_s.push(side(min_side_s, &mut a));
        }
    }
    let mut ratios: Vec<f64> = a_s.iter().zip(&b_s).map(|(a, b)| b / a).collect();
    let median = |v: &mut Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    PairedRatio {
        median: median(&mut ratios),
        a_s: median(&mut a_s),
        b_s: median(&mut b_s),
        ratios,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_ignores_a_split_pair_and_alternates_order() {
        // Side b costs 1.5× side a except in one pair a noisy stretch
        // split; calls are logged to check the alternation.
        let log = std::cell::RefCell::new(String::new());
        let mut n = 0;
        let r = paired_ratio(
            5,
            0.0,
            || {
                log.borrow_mut().push('a');
                2.0
            },
            || {
                log.borrow_mut().push('b');
                n += 1;
                if n == 2 {
                    30.0
                } else {
                    3.0
                }
            },
        );
        assert_eq!(log.into_inner(), "abbaabbaab");
        assert_eq!(r.median, 1.5);
        assert_eq!(r.ratios, vec![1.5, 1.5, 1.5, 1.5, 15.0]);
        assert_eq!((r.a_s, r.b_s), (2.0, 3.0));
    }

    #[test]
    fn short_sides_repeat_until_the_floor() {
        let (mut a_runs, mut b_runs) = (0, 0);
        let r = paired_ratio(
            1,
            0.25,
            || {
                a_runs += 1;
                0.1
            },
            || {
                b_runs += 1;
                0.3
            },
        );
        assert_eq!((a_runs, b_runs), (3, 1));
        assert!((r.median - 3.0).abs() < 1e-12, "{r:?}");
    }
}
