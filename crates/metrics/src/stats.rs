//! Aggregation helpers: run summaries, CDFs and bins.

/// The nearest-rank `q`-quantile (0 ≤ q ≤ 1) of an ascending `sorted`
/// slice: the smallest sample with at least a `q` fraction of the samples at
/// or below it. `None` for an empty slice.
pub fn nearest_rank<T: Copy>(sorted: &[T], q: f64) -> Option<T> {
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied()
}

/// Mean / standard deviation / extrema of a set of measurements (one per
/// experiment repetition).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub count: usize,
    /// Arithmetic mean (0 for an empty sample set).
    pub mean: f64,
    /// Population standard deviation.
    pub stddev: f64,
    /// Minimum sample value.
    pub min: f64,
    /// Maximum sample value.
    pub max: f64,
}

impl Summary {
    /// Returns `true` if the summary was built from zero samples — its mean,
    /// stddev and extrema are then the 0.0 placeholders, not measurements, and
    /// reports should render it as "no data" rather than as a genuine zero
    /// (see [`crate::table::fmt_mean`]).
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Summarizes an iterator of samples.
    pub fn of<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let values: Vec<f64> = samples.into_iter().collect();
        if values.is_empty() {
            return Self {
                count: 0,
                mean: 0.0,
                stddev: 0.0,
                min: 0.0,
                max: 0.0,
            };
        }
        let count = values.len();
        let mean = values.iter().sum::<f64>() / count as f64;
        let variance = values.iter().map(|v| (v - mean).powi(2)).sum::<f64>() / count as f64;
        let min = values.iter().copied().fold(f64::INFINITY, f64::min);
        let max = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        Self {
            count,
            mean,
            stddev: variance.sqrt(),
            min,
            max,
        }
    }
}

/// An empirical cumulative distribution function over `f64` samples.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Cdf {
    sorted: Vec<f64>,
}

impl Cdf {
    /// Builds a CDF from samples (order does not matter).
    pub fn of<I: IntoIterator<Item = f64>>(samples: I) -> Self {
        let mut sorted: Vec<f64> = samples.into_iter().collect();
        sorted.sort_by(|a, b| a.partial_cmp(b).expect("samples must not be NaN"));
        Self { sorted }
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.sorted.len()
    }

    /// Returns `true` if the CDF holds no samples.
    pub fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }

    /// Fraction of samples that are `<= x` (0 for an empty CDF).
    pub fn fraction_le(&self, x: f64) -> f64 {
        if self.sorted.is_empty() {
            return 0.0;
        }
        let count = self.sorted.partition_point(|&v| v <= x);
        count as f64 / self.sorted.len() as f64
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) using the nearest-rank method.
    ///
    /// # Panics
    ///
    /// Panics if the CDF is empty or `q` is outside `[0, 1]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q), "quantile must be in [0, 1]");
        nearest_rank(&self.sorted, q).expect("quantile of an empty cdf")
    }

    /// Summary statistics (mean, stddev, extrema) over the CDF's samples —
    /// convenient when a distribution is reported both ways, as the campaign
    /// aggregates do for γ.
    pub fn summary(&self) -> Summary {
        Summary::of(self.sorted.iter().copied())
    }

    /// The `(value, fraction ≤ value)` points of the empirical CDF, one per
    /// sample, suitable for plotting or printing.
    pub fn points(&self) -> Vec<(f64, f64)> {
        let n = self.sorted.len();
        self.sorted
            .iter()
            .enumerate()
            .map(|(i, &v)| (v, (i + 1) as f64 / n as f64))
            .collect()
    }
}

/// A set of half-open numeric bins `[lo, hi)` used to group measurements (e.g.
/// γ by suspect-set size in Figure 7).
#[derive(Debug, Clone, PartialEq)]
pub struct Bins {
    edges: Vec<(f64, f64)>,
    samples: Vec<Vec<f64>>,
}

impl Bins {
    /// Creates bins from `(lo, hi)` edge pairs.
    ///
    /// # Panics
    ///
    /// Panics if any bin has `lo >= hi`.
    pub fn new(edges: &[(f64, f64)]) -> Self {
        for &(lo, hi) in edges {
            assert!(lo < hi, "bin bounds must satisfy lo < hi");
        }
        Self {
            edges: edges.to_vec(),
            samples: vec![Vec::new(); edges.len()],
        }
    }

    /// Adds a `(key, value)` observation: `value` is recorded in the first bin
    /// whose range contains `key`. Returns `false` if no bin matched.
    pub fn add(&mut self, key: f64, value: f64) -> bool {
        for (i, &(lo, hi)) in self.edges.iter().enumerate() {
            if key >= lo && key < hi {
                self.samples[i].push(value);
                return true;
            }
        }
        false
    }

    /// The bin edges.
    pub fn edges(&self) -> &[(f64, f64)] {
        &self.edges
    }

    /// Per-bin summaries, in bin order.
    pub fn summaries(&self) -> Vec<Summary> {
        self.samples
            .iter()
            .map(|s| Summary::of(s.iter().copied()))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_values() {
        let s = Summary::of([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert_eq!(s.mean, 5.0);
        assert_eq!(s.stddev, 2.0);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn summary_of_empty_is_zeroed() {
        let s = Summary::of(std::iter::empty());
        assert!(s.is_empty());
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.stddev, 0.0);
        // The placeholder extrema are finite zeros, not infinities or NaN, so
        // downstream arithmetic and Eq-based determinism checks stay total.
        assert_eq!(s.min, 0.0);
        assert_eq!(s.max, 0.0);
    }

    #[test]
    fn summary_of_single_sample_is_degenerate() {
        let s = Summary::of([7.5]);
        assert!(!s.is_empty());
        assert_eq!(s.count, 1);
        assert_eq!(s.mean, 7.5);
        assert_eq!(s.stddev, 0.0);
        assert_eq!(s.min, 7.5);
        assert_eq!(s.max, 7.5);
    }

    #[test]
    fn cdf_of_single_sample_is_total() {
        let cdf = Cdf::of([2.5]);
        assert_eq!(cdf.len(), 1);
        // Every quantile of a one-point distribution is that point.
        for q in [0.0, 0.25, 0.5, 1.0] {
            assert_eq!(cdf.quantile(q), 2.5, "q = {q}");
        }
        assert_eq!(cdf.fraction_le(2.4), 0.0);
        assert_eq!(cdf.fraction_le(2.5), 1.0);
        assert_eq!(cdf.points(), vec![(2.5, 1.0)]);
        assert_eq!(cdf.summary(), Summary::of([2.5]));
    }

    #[test]
    fn cdf_fractions_and_quantiles() {
        let cdf = Cdf::of([1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(cdf.len(), 5);
        assert_eq!(cdf.fraction_le(0.5), 0.0);
        assert_eq!(cdf.fraction_le(3.0), 0.6);
        assert_eq!(cdf.fraction_le(10.0), 1.0);
        assert_eq!(cdf.quantile(0.0), 1.0);
        assert_eq!(cdf.quantile(0.5), 3.0);
        assert_eq!(cdf.quantile(1.0), 5.0);
        let points = cdf.points();
        assert_eq!(points.first(), Some(&(1.0, 0.2)));
        assert_eq!(points.last(), Some(&(5.0, 1.0)));
    }

    #[test]
    fn nearest_rank_works_on_any_sorted_slice() {
        let sorted = [10u64, 20, 30, 40];
        assert_eq!(nearest_rank(&sorted, 0.0), Some(10));
        assert_eq!(nearest_rank(&sorted, 0.5), Some(20));
        assert_eq!(nearest_rank(&sorted, 0.51), Some(30));
        assert_eq!(nearest_rank(&sorted, 1.0), Some(40));
        assert_eq!(nearest_rank::<u64>(&[], 0.5), None);
    }

    #[test]
    fn cdf_of_empty() {
        let cdf = Cdf::of(std::iter::empty());
        assert!(cdf.is_empty());
        assert_eq!(cdf.fraction_le(1.0), 0.0);
        assert_eq!(cdf.summary().count, 0);
    }

    #[test]
    fn cdf_summary_matches_direct_summary() {
        let samples = [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0];
        let cdf = Cdf::of(samples);
        assert_eq!(cdf.summary(), Summary::of(samples));
    }

    #[test]
    #[should_panic(expected = "empty cdf")]
    fn quantile_of_empty_panics() {
        let _ = Cdf::of(std::iter::empty()).quantile(0.5);
    }

    #[test]
    fn bins_group_by_key() {
        let mut bins = Bins::new(&[(1.0, 10.0), (10.0, 20.0), (20.0, 40.0)]);
        assert!(bins.add(5.0, 0.1));
        assert!(bins.add(5.0, 0.3));
        assert!(bins.add(15.0, 0.5));
        assert!(!bins.add(100.0, 0.9));
        let summaries = bins.summaries();
        assert_eq!(summaries[0].count, 2);
        assert!((summaries[0].mean - 0.2).abs() < 1e-12);
        assert_eq!(summaries[1].count, 1);
        assert_eq!(summaries[2].count, 0);
        assert_eq!(bins.edges().len(), 3);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn invalid_bin_rejected() {
        let _ = Bins::new(&[(5.0, 5.0)]);
    }
}
