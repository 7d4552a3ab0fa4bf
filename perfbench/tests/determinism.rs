//! The benchmark's own checks: exact counters repeat for a seed, a seed
//! fixes the inputs and a new seed changes them, and every workload is big
//! enough for its p99.

use std::path::PathBuf;

use perfbench::gen::{Scale, Workload};
use perfbench::report::beyond;
use perfbench::Options;

fn reduced(seed: u64, tag: &str) -> Options {
    Options {
        seed,
        seconds: 1,
        trace: true,
        scale: Scale::REDUCED,
        out_dir: PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(format!("perfbench-{tag}")),
    }
}

/// The digest leaves out the process-wide version number of policy
/// updates, so two generations in one process compare.
fn digest(workload: Workload, opts: &Options) -> u64 {
    perfbench::closed::generate(workload, &opts.scale, opts.seed, opts.seconds)
        .expect("reduced inputs generate")
        .digest()
}

#[test]
fn counters_repeat_for_a_seed_and_inputs_follow_the_seed() {
    for workload in Workload::ALL {
        let first =
            perfbench::run(workload, &reduced(7, "a")).expect("reduced run passes its oracles");
        let second =
            perfbench::run(workload, &reduced(7, "b")).expect("reduced run passes its oracles");
        assert!(!first.counters.is_empty());
        assert_eq!(
            first.counters,
            second.counters,
            "{}: counters differ between two runs of one seed",
            workload.name()
        );
        let seven = digest(workload, &reduced(7, "a"));
        assert_eq!(
            seven,
            digest(workload, &reduced(7, "a")),
            "{}: one seed gave two different inputs",
            workload.name()
        );
        assert_ne!(
            seven,
            digest(workload, &reduced(8, "a")),
            "{}: a new seed left the inputs unchanged",
            workload.name()
        );
    }
}

#[test]
fn an_untraced_run_reports_every_end_to_end_metric_above_zero() {
    for workload in Workload::ALL {
        let opts = Options {
            trace: false,
            ..reduced(7, "untraced")
        };
        let report = perfbench::run(workload, &opts).expect("reduced run passes its oracles");
        let names: Vec<&str> = report.metrics.iter().map(|m| m.name).collect();
        assert_eq!(
            names,
            [
                "setup_s",
                "ingest_p50_ms",
                "ingest_p99_ms",
                "ingests_per_s",
                "goodput_per_s",
                "rss_peak_mb"
            ],
            "{}",
            workload.name()
        );
        for m in &report.metrics {
            assert!(
                m.value > 0.0,
                "{}: {} is {}",
                workload.name(),
                m.name,
                m.value
            );
        }
    }
}

/// `run_seconds` as `BENCHMARK.json` sets it.
fn run_seconds() -> u64 {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits beside the benchmark");
    let tail = &text[text.find("\"run_seconds\"").expect("run_seconds is set")..];
    let digits: String = tail
        .chars()
        .skip_while(|c| !c.is_ascii_digit())
        .take_while(|c| c.is_ascii_digit())
        .collect();
    digits.parse().expect("run_seconds is a whole number")
}

#[test]
fn every_workload_has_ten_samples_beyond_its_p99() {
    let seconds = run_seconds();
    for workload in Workload::ALL {
        let ingests = Scale::FULL.epochs(workload, seconds);
        assert!(
            beyond(ingests, 0.99) >= 10,
            "{}: {ingests} ingests leave {} samples beyond p99",
            workload.name(),
            beyond(ingests, 0.99)
        );
    }
}
