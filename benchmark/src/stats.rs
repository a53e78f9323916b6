//! Percentiles, quartiles and the repetition aggregate.

/// Percentiles the harness is willing to name, lowest first.
const LADDER: [f64; 5] = [50.0, 90.0, 99.0, 99.9, 99.99];

/// Samples a percentile needs beyond it before it is reported.
const MIN_BEYOND: usize = 10;

/// How many of `n` samples lie strictly beyond percentile `p`.
pub fn samples_beyond(n: usize, p: f64) -> usize {
    n - rank(n, p)
}

/// Whether `n` samples support percentile `p` (at least ten beyond it).
pub fn supports(n: usize, p: f64) -> bool {
    n > 0 && samples_beyond(n, p) >= MIN_BEYOND
}

/// The highest percentile of the ladder that `n` samples support.
pub fn highest_percentile(n: usize) -> Option<f64> {
    LADDER.iter().rev().copied().find(|&p| supports(n, p))
}

/// Nearest-rank index (1-based) of percentile `p` among `n` samples, in
/// integer arithmetic on hundredths of a percent so that 99.99 % of 100 000
/// is exactly 99 990.
fn rank(n: usize, p: f64) -> usize {
    let basis_points = (p * 100.0).round() as usize;
    (n * basis_points).div_ceil(10_000).clamp(1, n.max(1))
}

/// Nearest-rank percentile of an ascending slice.
pub fn percentile(sorted: &[u64], p: f64) -> u64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), p) - 1]
}

/// Percentile `p` of `samples` if they support it, else `None`. Sorts in
/// place.
pub fn supported_percentile(samples: &mut [u64], p: f64) -> Option<u64> {
    samples.sort_unstable();
    supports(samples.len(), p).then(|| percentile(samples, p))
}

/// Quartiles as Python's `statistics.quantiles(values, n=4)` computes them
/// (the exclusive method), so the spread printed here is the spread the
/// acceptance check sees. Needs two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut x = values.to_vec();
    x.sort_by(f64::total_cmp);
    let n = x.len();
    let cut = |i: usize| {
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 - (j * 4) as f64;
        (x[j - 1] * (4.0 - delta) + x[j] * delta) / 4.0
    };
    Some((cut(1), cut(2), cut(3)))
}

/// Which way a metric improves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better.
    Lower,
    /// Larger is better.
    Higher,
}

impl Better {
    /// The contract's spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` the value `new` is worse (negative when it
    /// is better).
    pub fn worse_by(self, base: f64, new: f64) -> f64 {
        match self {
            Better::Lower => (new - base) / base,
            Better::Higher => (base - new) / base,
        }
    }
}

/// One metric over the repetitions of a run.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Summary {
    /// The best repetition.
    pub best: f64,
    /// Median repetition.
    pub median: f64,
    /// First quartile (equals the median below two repetitions).
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
    /// Repetitions.
    pub reps: usize,
}

/// Aggregates per-repetition values of one metric.
pub fn summarize(values: &[f64], better: Better) -> Summary {
    assert!(!values.is_empty(), "summary of no repetitions");
    let best = match better {
        Better::Lower => values.iter().copied().fold(f64::INFINITY, f64::min),
        Better::Higher => values.iter().copied().fold(f64::NEG_INFINITY, f64::max),
    };
    let (q1, median, q3) = quartiles(values).unwrap_or((values[0], values[0], values[0]));
    Summary {
        best,
        median,
        q1,
        q3,
        reps: values.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn picker_returns_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(highest_percentile(9), None);
        assert_eq!(highest_percentile(19), None, "p50 of 19 leaves 9 beyond");
        assert_eq!(highest_percentile(20), Some(50.0));
        assert_eq!(highest_percentile(100), Some(90.0));
        assert_eq!(highest_percentile(999), Some(90.0));
        assert_eq!(highest_percentile(1_000), Some(99.0));
        assert_eq!(highest_percentile(15_000), Some(99.9));
        assert_eq!(highest_percentile(100_000), Some(99.99));
        assert_eq!(samples_beyond(36_000, 99.0), 360);
        assert!(!supports(400, 99.0), "400 reads cannot carry a p99");
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let xs: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&xs, 50.0), 50);
        assert_eq!(percentile(&xs, 99.0), 99);
        assert_eq!(percentile(&xs, 100.0), 100);
        assert_eq!(percentile(&[7], 99.0), 7);
        let mut few = vec![3, 1, 2];
        assert_eq!(supported_percentile(&mut few, 50.0), None);
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([10, 1, 4], n=4) == [1.0, 4.0, 10.0]
        assert_eq!(quartiles(&[10.0, 1.0, 4.0]), Some((1.0, 4.0, 10.0)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn summary_takes_the_best_in_the_metric_direction() {
        let s = summarize(&[3.0, 1.0, 2.0, 5.0, 4.0], Better::Lower);
        assert_eq!((s.best, s.median, s.reps), (1.0, 3.0, 5));
        assert_eq!((s.q1, s.q3), (1.5, 4.5));
        assert_eq!(summarize(&[3.0, 1.0, 2.0], Better::Higher).best, 3.0);
        let one = summarize(&[2.5], Better::Lower);
        assert_eq!((one.best, one.median, one.q1, one.q3), (2.5, 2.5, 2.5, 2.5));
    }

    #[test]
    fn worse_by_is_signed_by_direction() {
        assert!((Better::Lower.worse_by(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worse_by(100.0, 90.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worse_by(100.0, 120.0) < 0.0);
    }
}
