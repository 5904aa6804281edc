//! Order statistics of the harness: medians, quartiles and the rule for
//! which tail percentile a sample supports.

/// Sorts a sample in place (no NaN is ever measured).
pub fn sort(values: &mut [f64]) {
    values.sort_unstable_by(|a, b| a.partial_cmp(b).expect("measured values are never NaN"));
}

/// The median of a sorted, non-empty sample.
pub fn median_sorted(sorted: &[f64]) -> f64 {
    let n = sorted.len();
    assert!(n > 0, "median of an empty sample");
    if n % 2 == 1 {
        sorted[n / 2]
    } else {
        (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0
    }
}

/// First quartile, median, third quartile and sample count of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Sample count.
    pub n: usize,
}

impl Quartiles {
    /// Quartiles by the exclusive method — the one Python's
    /// `statistics.quantiles(values, n=4)` uses, so a spread computed here
    /// and one computed by a driver script agree. A single sample is its
    /// own quartiles.
    pub fn of(values: &[f64]) -> Quartiles {
        let mut sorted = values.to_vec();
        sort(&mut sorted);
        let n = sorted.len();
        assert!(n > 0, "quartiles of an empty sample");
        if n == 1 {
            return Quartiles {
                q1: sorted[0],
                median: sorted[0],
                q3: sorted[0],
                n,
            };
        }
        let cut = |i: usize| {
            let m = n + 1;
            let j = (i * m / 4).clamp(1, n - 1);
            let delta = (i * m) as f64 - (j * 4) as f64;
            (sorted[j - 1] * (4.0 - delta) + sorted[j] * delta) / 4.0
        };
        Quartiles {
            q1: cut(1),
            median: median_sorted(&sorted),
            q3: cut(3),
            n,
        }
    }

    /// Inter-quartile distance as a share of the median.
    pub fn spread(&self) -> f64 {
        (self.q3 - self.q1) / self.median.abs()
    }
}

/// The `p`-th percentile (`0 < p < 100`) of a sorted sample, nearest rank.
pub fn percentile_sorted(sorted: &[u32], p: f64) -> u32 {
    assert!(!sorted.is_empty(), "percentile of an empty sample");
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of 50, 90, 99, 99.9, … that still has at least `beyond`
/// samples above it in a sample of `n`; `None` when even the median does
/// not.
pub fn highest_supported_percentile(n: usize, beyond: usize) -> Option<f64> {
    // (percentile, one sample in this many lies beyond it)
    const LADDER: [(f64, usize); 6] = [
        (50.0, 2),
        (90.0, 10),
        (99.0, 100),
        (99.9, 1_000),
        (99.99, 10_000),
        (99.999, 100_000),
    ];
    LADDER
        .iter()
        .take_while(|&&(_, one_in)| n / one_in >= beyond)
        .last()
        .map(|&(p, _)| p)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1, 2, 3, 4, 5, 6, 7, 8, 9, 10], n=4)
        //   == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([10, 20], n=4) == [7.5, 15.0, 22.5]
        let q = Quartiles::of(&[20.0, 10.0]);
        assert_eq!((q.q1, q.median, q.q3), (7.5, 15.0, 22.5));
        assert!((Quartiles::of(&v).spread() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn single_sample_is_its_own_quartiles() {
        let q = Quartiles::of(&[4.0]);
        assert_eq!((q.q1, q.median, q.q3, q.n), (4.0, 4.0, 4.0, 1));
    }

    #[test]
    fn percentile_is_nearest_rank() {
        let v: Vec<u32> = (1..=100).collect();
        assert_eq!(percentile_sorted(&v, 50.0), 50);
        assert_eq!(percentile_sorted(&v, 99.0), 99);
        assert_eq!(percentile_sorted(&v, 99.9), 100);
        assert_eq!(percentile_sorted(&[7], 99.0), 7);
    }

    #[test]
    fn tail_percentile_needs_ten_samples_beyond_it() {
        assert_eq!(highest_supported_percentile(19, 10), None);
        assert_eq!(highest_supported_percentile(20, 10), Some(50.0));
        assert_eq!(highest_supported_percentile(99, 10), Some(50.0));
        assert_eq!(highest_supported_percentile(100, 10), Some(90.0));
        assert_eq!(highest_supported_percentile(999, 10), Some(90.0));
        assert_eq!(highest_supported_percentile(1_000, 10), Some(99.0));
        assert_eq!(highest_supported_percentile(250_000, 10), Some(99.99));
        // The p99 rule of `query_p99_us`: 2 000 samples beyond it.
        assert_eq!(highest_supported_percentile(200_000, 2_000), Some(99.0));
        assert_eq!(highest_supported_percentile(199_999, 2_000), Some(90.0));
    }
}
