//! Median / min / max / n of a sample — how every timing is reported.

/// Summary of one metric's samples across repetitions.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Middle sample (mean of the two middle ones when `n` is even).
    pub median: f64,
    /// Smallest sample.
    pub min: f64,
    /// Largest sample.
    pub max: f64,
    /// Sample count.
    pub n: usize,
}

impl Summary {
    /// Summarize `samples`; panics on an empty or non-finite sample, which
    /// would mean the harness timed nothing.
    pub fn of(samples: &[f64]) -> Summary {
        assert!(!samples.is_empty(), "no samples to summarize");
        assert!(
            samples.iter().all(|s| s.is_finite()),
            "non-finite sample in {samples:?}"
        );
        let mut sorted = samples.to_vec();
        sorted.sort_by(f64::total_cmp);
        let n = sorted.len();
        let median = if n % 2 == 1 {
            sorted[n / 2]
        } else {
            (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
        };
        Summary {
            median,
            min: sorted[0],
            max: sorted[n - 1],
            n,
        }
    }
}

/// Median of `samples` (see [`Summary::of`]).
pub fn median(samples: &[f64]) -> f64 {
    Summary::of(samples).median
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_min_max_and_n_are_reported() {
        let s = Summary::of(&[5.0, 1.0, 3.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (3.0, 1.0, 5.0, 3));
        let s = Summary::of(&[4.0, 1.0, 3.0, 2.0]);
        assert_eq!((s.median, s.min, s.max, s.n), (2.5, 1.0, 4.0, 4));
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    #[should_panic(expected = "no samples")]
    fn empty_sample_is_a_harness_bug() {
        Summary::of(&[]);
    }
}
