//! Metrics, the host block and the result line.

use std::collections::BTreeMap;

use scout_metrics::Cdf;

/// The nearest-rank `q`-quantile of `samples` (0 when there are none).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    Cdf::of(samples.iter().copied()).quantile(q)
}

/// How many samples lie strictly beyond the nearest-rank `q`-quantile.
pub fn beyond(samples: usize, q: f64) -> usize {
    let rank = ((q * samples as f64).ceil() as usize).clamp(1, samples.max(1));
    samples.saturating_sub(rank)
}

/// One reported metric with the number of samples it was taken over.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub samples: usize,
}

/// Everything one run reports.
#[derive(Debug, Default)]
pub struct RunReport {
    pub metrics: Vec<Metric>,
    /// Exact, host-independent work counts of the run's inputs.
    pub counters: BTreeMap<&'static str, u64>,
    /// Logical operations attempted (retries of a refused request are not
    /// new operations).
    pub attempted: u64,
    /// Operations that never completed.
    pub failed: u64,
}

impl RunReport {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Adds `name` as an exact counter and as a metric.
    pub fn count(&mut self, name: &'static str, value: u64) {
        self.counters.insert(name, value);
        self.push(name, value as f64, "count", 1);
    }

    /// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
    pub fn result_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name,
                    number(m.value),
                    m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": true, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// The detail line: host block, seed, sample counts and counters.
    pub fn detail_line(&self, workload: &str, seed: u64, trace: bool) -> String {
        let samples: Vec<String> = self
            .metrics
            .iter()
            .map(|m| format!("\"{}\": {}", m.name, m.samples))
            .collect();
        let counters: Vec<String> = self
            .counters
            .iter()
            .map(|(name, value)| format!("\"{name}\": {value}"))
            .collect();
        format!(
            "{{\"detail\": {{\"workload\": \"{workload}\", \"seed\": {seed}, \"trace\": {trace}, \
             \"host\": {}, \"samples\": {{{}}}, \"counters\": {{{}}}}}}}",
            host_block(),
            samples.join(", "),
            counters.join(", ")
        )
    }

    /// A fixed-width table of every metric, for people reading the log.
    pub fn table(&self) -> String {
        let mut out = format!(
            "{:<28} {:>16} {:<8} {:>8}\n",
            "metric", "value", "unit", "samples"
        );
        for m in &self.metrics {
            out += &format!(
                "{:<28} {:>16.6} {:<8} {:>8}\n",
                m.name, m.value, m.unit, m.samples
            );
        }
        out
    }
}

/// A JSON number with every digit Rust's shortest round-trip form gives.
fn number(value: f64) -> String {
    assert!(value.is_finite(), "metric values are finite");
    format!("{value}")
}

fn json_string(s: &str) -> String {
    let escaped: String = s
        .chars()
        .flat_map(|c| match c {
            '"' => vec!['\\', '"'],
            '\\' => vec!['\\', '\\'],
            c if c.is_control() => vec![' '],
            c => vec![c],
        })
        .collect();
    format!("\"{escaped}\"")
}

/// Online CPUs as the kernel lists them (what `nproc` prints without an
/// affinity mask).
fn online_cpus() -> usize {
    std::fs::read_to_string("/proc/cpuinfo")
        .map(|s| s.lines().filter(|l| l.starts_with("processor")).count())
        .unwrap_or(0)
}

/// The host the numbers come from: cores, build profile, source revision and
/// compiler.
pub fn host_block() -> String {
    let parallelism = std::thread::available_parallelism().map_or(0, |n| n.get());
    format!(
        "{{\"nproc\": {}, \"available_parallelism\": {parallelism}, \"profile\": {}, \
         \"git_rev\": {}, \"rustc\": {}}}",
        online_cpus(),
        json_string(env!("PERFBENCH_PROFILE")),
        json_string(env!("PERFBENCH_GIT_REV")),
        json_string(env!("PERFBENCH_RUSTC")),
    )
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn rss_peak_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn beyond_counts_samples_past_the_nearest_rank() {
        assert_eq!(beyond(1000, 0.99), 10);
        assert_eq!(beyond(999, 0.99), 9);
        assert_eq!(beyond(1200, 0.99), 12);
        assert_eq!(beyond(0, 0.99), 0);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys() {
        let mut report = RunReport {
            attempted: 3,
            ..RunReport::default()
        };
        report.push("latency_ms", 1.25, "ms", 3);
        assert_eq!(
            report.result_line(),
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }
}
