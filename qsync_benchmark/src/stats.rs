//! Order statistics over latency samples, and the bound comparison
//! `--repeat-check` applies.

/// The `p`-th percentile (`0 < p <= 100`) by nearest rank: the smallest
/// sample with at least `p`% of the samples at or below it. `sorted` must be
/// ascending and non-empty.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

pub fn sorted(mut samples: Vec<f64>) -> Vec<f64> {
    samples.sort_by(|a, b| a.total_cmp(b));
    samples
}

pub fn median(samples: &[f64]) -> f64 {
    percentile(&sorted(samples.to_vec()), 50.0)
}

/// Samples strictly beyond the `p`-th percentile's rank: a percentile is
/// only reported when at least ten lie there.
pub fn samples_beyond(len: usize, p: f64) -> usize {
    len - ((p / 100.0) * len as f64).ceil() as usize
}

/// Events per second from their timestamps (seconds): the events are cut
/// into `blocks` runs of equal count, each run's rate is its count over the
/// time it spans, and the median run is reported — so one stalled stretch
/// does not move it, and the value is not quantized to whole events.
pub fn block_rate(mut at: Vec<f64>, blocks: usize) -> f64 {
    at.sort_by(|a, b| a.total_cmp(b));
    let per_block = (at.len().saturating_sub(1)) / blocks.max(1);
    if per_block == 0 {
        return f64::NAN;
    }
    let rates: Vec<f64> = (0..blocks.max(1))
        .map(|b| per_block as f64 / (at[(b + 1) * per_block] - at[b * per_block]))
        .collect();
    median(&rates)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// How much worse `second` is than `first`, as a share of `first`
/// (negative when it is better).
pub fn worsening(first: f64, second: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// Two values of one metric agree when neither is worse than the other by
/// more than `bound`.
pub fn within_bound(a: f64, b: f64, better: Better, bound: f64) -> bool {
    worsening(a, b, better) <= bound && worsening(b, a, better) <= bound
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_on_known_vectors() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 50.0), 50.0);
        assert_eq!(percentile(&v, 99.0), 99.0);
        assert_eq!(percentile(&v, 100.0), 100.0);
        assert_eq!(percentile(&v, 0.5), 1.0);
        assert_eq!(median(&[9.0, 1.0, 5.0]), 5.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.0);
        assert_eq!(percentile(&[7.0], 99.0), 7.0);
    }

    #[test]
    fn block_rate_is_the_median_run_and_ignores_one_stall() {
        // 10 events a second for 6 seconds, with a 3-second stall in the middle.
        let at: Vec<f64> = (0..=60)
            .map(|i| i as f64 * 0.1 + if i > 30 { 3.0 } else { 0.0 })
            .collect();
        let rate = block_rate(at, 6);
        assert!((rate - 10.0).abs() < 1e-9, "rate {rate}");
        assert!(block_rate(vec![1.0, 2.0], 6).is_nan());
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 99.0), 10);
        assert_eq!(samples_beyond(999, 99.0), 9);
        assert_eq!(samples_beyond(100, 90.0), 10);
        assert_eq!(samples_beyond(99, 90.0), 9);
        assert_eq!(samples_beyond(10, 100.0), 0);
    }

    #[test]
    fn bound_comparison_respects_direction() {
        assert!(within_bound(100.0, 109.0, Better::Lower, 0.10));
        assert!(!within_bound(100.0, 112.0, Better::Lower, 0.10));
        // Order of the two runs must not matter.
        assert!(!within_bound(112.0, 100.0, Better::Lower, 0.10));
        assert!(within_bound(100.0, 91.0, Better::Higher, 0.10));
        assert!(!within_bound(100.0, 88.0, Better::Higher, 0.10));
        assert!(worsening(100.0, 90.0, Better::Lower) < 0.0);
        assert!(within_bound(5.0, 5.0, Better::Higher, 0.0));
    }
}
