//! A tiny, dependency-free micro-benchmark harness.
//!
//! The build environment has no crates.io registry, so the workspace cannot
//! use Criterion; this module provides the small subset the benches need:
//! an explicit warm-up phase, fixed-iteration sampling into a real latency
//! distribution (p50/p99 instead of a single best-of-N point), an aligned
//! report table, and a JSON serializer for committed benchmark artifacts
//! (see [`crate::json`] for the matching parser/validator).
//! Benches are plain `harness = false` binaries calling [`Harness::bench`].

use std::hint::black_box;
use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use scout_metrics::nearest_rank;

/// Wall-clock budget for the warm-up phase of one benchmark.
const WARMUP_TARGET: Duration = Duration::from_millis(40);
/// Upper bound on warm-up iterations (slow benchmarks warm up in one call).
const MAX_WARMUP_ITERS: u32 = 50;
/// Default number of timed samples per benchmark.
pub const DEFAULT_SAMPLES: usize = 20;
/// Target wall-clock time for one measurement sample; fast closures are
/// batched so a sample is long enough to time reliably.
const SAMPLE_FLOOR: Duration = Duration::from_millis(4);
/// Upper bound on iterations per sample, to bound total runtime.
const MAX_ITERS_PER_SAMPLE: u32 = 10_000;

/// The measured distribution of one benchmark: the unit of the report table
/// and of the JSON artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchStats {
    /// Benchmark label within the group.
    pub label: String,
    /// Total timed iterations across all samples (excludes warm-up).
    pub iterations: u64,
    /// Median per-iteration time (nearest-rank over the sample means).
    pub p50: Duration,
    /// 99th-percentile per-iteration time (nearest-rank; with fewer than 100
    /// samples this is the worst observed sample).
    pub p99: Duration,
    /// Iterations per second at the median (`1 / p50`).
    pub throughput: f64,
}

/// Collects named timings and prints them as an aligned table.
#[derive(Debug, Default)]
pub struct Harness {
    group: String,
    samples: usize,
    rows: Vec<BenchStats>,
}

impl Harness {
    /// Creates a harness for a named benchmark group.
    pub fn new(group: &str) -> Self {
        Self {
            group: group.to_string(),
            samples: DEFAULT_SAMPLES,
            rows: Vec::new(),
        }
    }

    /// Overrides the number of timed samples per benchmark (default
    /// [`DEFAULT_SAMPLES`]). More samples sharpen the tail quantiles at the
    /// price of runtime; at least 2 are always taken.
    pub fn set_samples(&mut self, samples: usize) {
        self.samples = samples.max(2);
    }

    /// Measures `f` and records its latency distribution under `label`,
    /// returning the median per-iteration time.
    ///
    /// The measurement has two phases:
    ///
    /// 1. **Warm-up** — `f` runs untimed for a fixed wall-clock budget
    ///    (capped in iterations, so slow benchmarks warm up in one call);
    ///    caches, allocators and branch predictors settle before anything is
    ///    recorded, and the warm-up also estimates the per-call cost.
    /// 2. **Fixed-iteration sampling** — a fixed number of samples is timed
    ///    (see [`Harness::set_samples`]); each sample runs the same
    ///    pre-computed iteration count, chosen so one sample is long enough
    ///    to time reliably. Slow closures run once per sample, so their
    ///    sample distribution is the real per-call latency distribution —
    ///    which is what makes the reported p99 meaningful for workloads
    ///    (like per-epoch ingest) whose cost varies call to call.
    pub fn bench<T, F: FnMut() -> T>(&mut self, label: &str, mut f: F) -> Duration {
        // Phase 1: warm-up and cost estimation.
        let mut warmup_iters = 0u32;
        let warmup_start = Instant::now();
        while warmup_iters < MAX_WARMUP_ITERS {
            black_box(f());
            warmup_iters += 1;
            if warmup_start.elapsed() >= WARMUP_TARGET {
                break;
            }
        }
        let estimate = (warmup_start.elapsed() / warmup_iters).max(Duration::from_nanos(50));

        // Phase 2: fixed-iteration samples.
        let iters = u32::try_from(SAMPLE_FLOOR.as_nanos() / estimate.as_nanos().max(1))
            .unwrap_or(MAX_ITERS_PER_SAMPLE)
            .clamp(1, MAX_ITERS_PER_SAMPLE);
        let mut sample_means: Vec<Duration> = Vec::with_capacity(self.samples);
        for _ in 0..self.samples {
            let start = Instant::now();
            for _ in 0..iters {
                black_box(f());
            }
            sample_means.push(start.elapsed() / iters);
        }
        sample_means.sort();

        let p50 = nearest_rank(&sample_means, 0.50).expect("at least one sample");
        let p99 = nearest_rank(&sample_means, 0.99).expect("at least one sample");
        let stats = BenchStats {
            label: label.to_string(),
            iterations: u64::from(iters) * self.samples as u64,
            p50,
            p99,
            throughput: 1.0 / p50.as_secs_f64().max(1e-12),
        };
        self.rows.push(stats);
        p50
    }

    /// The distributions recorded so far, in bench order.
    pub fn stats(&self) -> &[BenchStats] {
        &self.rows
    }

    /// The recorded distribution for `label`, if that bench ran.
    pub fn stats_for(&self, label: &str) -> Option<&BenchStats> {
        self.rows.iter().find(|r| r.label == label)
    }

    /// Serializes the recorded rows as a JSON report:
    ///
    /// ```json
    /// {
    ///   "group": "...",
    ///   "benches": [
    ///     {"label": "...", "iterations": N,
    ///      "p50_ns": N, "p99_ns": N, "throughput_per_sec": X}
    ///   ]
    /// }
    /// ```
    ///
    /// The schema is stable — committed artifacts (e.g.
    /// `BENCH_ingest_scale.json`) are validated against it by
    /// [`crate::json::validate_bench_report`] in CI.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push_str("{\n");
        out.push_str(&format!(
            "  \"group\": \"{}\",\n",
            crate::json::escape(&self.group)
        ));
        out.push_str("  \"benches\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            out.push_str(&format!(
                "    {{\"label\": \"{}\", \"iterations\": {}, \"p50_ns\": {}, \
                 \"p99_ns\": {}, \"throughput_per_sec\": {:.3}}}{}\n",
                crate::json::escape(&row.label),
                row.iterations,
                row.p50.as_nanos(),
                row.p99.as_nanos(),
                row.throughput,
                if i + 1 < self.rows.len() { "," } else { "" },
            ));
        }
        out.push_str("  ]\n}\n");
        out
    }

    /// Writes the JSON report (see [`Harness::to_json`]) to `path`.
    pub fn write_json(&self, path: &Path) -> io::Result<()> {
        std::fs::write(path, self.to_json())
    }

    /// Prints the recorded rows as an aligned table.
    pub fn finish(self) {
        let width = self
            .rows
            .iter()
            .map(|r| r.label.len())
            .max()
            .unwrap_or(0)
            .max(24);
        println!("\n== {} ==", self.group);
        for row in &self.rows {
            println!(
                "{:<width$}  p50 {:>10}  p99 {:>10}  ({} iters)",
                row.label,
                fmt_duration(row.p50),
                fmt_duration(row.p99),
                row.iterations,
            );
        }
    }
}

/// Formats a duration with an appropriate unit.
pub fn fmt_duration(d: Duration) -> String {
    let nanos = d.as_nanos();
    if nanos < 1_000 {
        format!("{nanos} ns")
    } else if nanos < 1_000_000 {
        format!("{:.2} µs", nanos as f64 / 1_000.0)
    } else if nanos < 1_000_000_000 {
        format!("{:.2} ms", nanos as f64 / 1_000_000.0)
    } else {
        format!("{:.2} s", nanos as f64 / 1_000_000_000.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_returns_positive_time() {
        let mut h = Harness::new("test");
        let t = h.bench("spin", || (0..100u64).sum::<u64>());
        assert!(t > Duration::ZERO);
        h.finish();
    }

    #[test]
    fn bench_records_a_distribution() {
        let mut h = Harness::new("test");
        h.set_samples(10);
        h.bench("spin", || (0..1000u64).sum::<u64>());
        let stats = h.stats_for("spin").expect("row recorded");
        assert!(stats.iterations >= 10, "10 samples of >=1 iteration");
        assert!(stats.p50 <= stats.p99, "quantiles are ordered");
        assert!(stats.throughput > 0.0);
        assert!(h.stats_for("absent").is_none());
    }

    #[test]
    fn json_report_round_trips_through_the_parser() {
        let mut h = Harness::new("test-group");
        h.set_samples(3);
        h.bench("a \"quoted\" label", || 1u64 + 1);
        h.bench("plain", || 2u64 * 2);
        let text = h.to_json();
        crate::json::validate_bench_report(&text).expect("schema-valid report");
        let parsed = crate::json::Json::parse(&text).expect("parseable");
        assert_eq!(
            parsed.get("group").and_then(crate::json::Json::as_str),
            Some("test-group")
        );
        let benches = parsed
            .get("benches")
            .and_then(crate::json::Json::as_array)
            .expect("benches array");
        assert_eq!(benches.len(), 2);
        assert_eq!(
            benches[0].get("label").and_then(crate::json::Json::as_str),
            Some("a \"quoted\" label")
        );
    }

    #[test]
    fn durations_format_with_units() {
        assert!(fmt_duration(Duration::from_nanos(10)).ends_with("ns"));
        assert!(fmt_duration(Duration::from_micros(10)).ends_with("µs"));
        assert!(fmt_duration(Duration::from_millis(10)).ends_with("ms"));
        assert!(fmt_duration(Duration::from_secs(10)).ends_with("s"));
    }
}
