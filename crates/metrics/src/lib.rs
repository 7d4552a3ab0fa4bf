//! # scout-metrics
//!
//! Part of the SCOUT reproduction workspace: `ARCHITECTURE.md` at the
//! repo root is the crate-by-crate tour showing where this crate sits in
//! the pipeline.
//!
//! Evaluation metrics and small reporting utilities for the SCOUT reproduction
//! (ICDCS 2018): precision/recall/F1 against an injected ground truth, the
//! suspect-set reduction ratio γ, empirical CDFs (Figure 3), per-bin summaries
//! (Figure 7), run statistics (mean ± stddev over repetitions) and aligned
//! text tables for the benchmark harness output.
//!
//! # Example
//!
//! ```
//! use std::collections::BTreeSet;
//! use scout_metrics::Accuracy;
//! use scout_policy::{FilterId, ObjectId};
//!
//! let truth: BTreeSet<ObjectId> = [ObjectId::Filter(FilterId::new(1))].into_iter().collect();
//! let hypothesis = truth.clone();
//! let acc = Accuracy::of(&truth, &hypothesis);
//! assert_eq!(acc.precision, 1.0);
//! assert_eq!(acc.recall, 1.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod accuracy;
pub mod rank;
pub mod series;
pub mod stats;
pub mod table;

pub use accuracy::{gamma, precision, recall, Accuracy};
pub use rank::RankQuality;
pub use series::TimeSeries;
pub use stats::{nearest_rank, Bins, Cdf, Summary};
pub use table::{fmt3, fmt_mean, Table};

#[cfg(test)]
mod proptests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use scout_policy::{FilterId, ObjectId};
    use std::collections::BTreeSet;

    fn random_set(rng: &mut StdRng) -> BTreeSet<ObjectId> {
        let count = rng.gen_range(0usize..10);
        (0..count)
            .map(|_| ObjectId::Filter(FilterId::new(rng.gen_range(0u32..20))))
            .collect()
    }

    fn random_samples(rng: &mut StdRng, lo: f64, hi: f64, max: usize) -> Vec<f64> {
        let count = rng.gen_range(1..=max);
        (0..count).map(|_| rng.gen_range(lo..hi)).collect()
    }

    /// Precision and recall are always in [0, 1] and symmetric in the expected
    /// way: swapping G and H swaps precision and recall.
    #[test]
    fn precision_recall_bounds_and_duality() {
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let g = random_set(&mut rng);
            let h = random_set(&mut rng);
            let acc = Accuracy::of(&g, &h);
            assert!((0.0..=1.0).contains(&acc.precision), "seed {seed}");
            assert!((0.0..=1.0).contains(&acc.recall), "seed {seed}");
            assert!((0.0..=1.0).contains(&acc.f1()), "seed {seed}");
            let swapped = Accuracy::of(&h, &g);
            if !g.is_empty() && !h.is_empty() {
                assert!(
                    (acc.precision - swapped.recall).abs() < 1e-12,
                    "seed {seed}"
                );
                assert!(
                    (acc.recall - swapped.precision).abs() < 1e-12,
                    "seed {seed}"
                );
            }
        }
    }

    /// CDF fractions are monotone and reach 1 at the maximum sample.
    #[test]
    fn cdf_is_monotone() {
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let samples = random_samples(&mut rng, 0.0, 100.0, 49);
            let cdf = Cdf::of(samples.iter().copied());
            let max = samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            assert!((cdf.fraction_le(max) - 1.0).abs() < 1e-12, "seed {seed}");
            let mut prev = 0.0;
            for x in [0.0, 10.0, 25.0, 50.0, 75.0, 100.0] {
                let f = cdf.fraction_le(x);
                assert!(f + 1e-12 >= prev, "seed {seed}");
                prev = f;
            }
        }
    }

    /// Summary mean always lies between min and max.
    #[test]
    fn summary_mean_within_bounds() {
        for seed in 0..200 {
            let mut rng = StdRng::seed_from_u64(seed);
            let samples = random_samples(&mut rng, -50.0, 50.0, 39);
            let s = Summary::of(samples.iter().copied());
            assert!(s.mean >= s.min - 1e-9, "seed {seed}");
            assert!(s.mean <= s.max + 1e-9, "seed {seed}");
            assert!(s.stddev >= 0.0, "seed {seed}");
        }
    }
}
