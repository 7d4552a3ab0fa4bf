//! Full vs. incremental vs. parallel equivalence checking on a ≥32-switch
//! fabric.
//!
//! This is the benchmark behind the incremental-pipeline refactor: after one
//! of 32 switches loses TCAM rules, `recheck_dirty_with` must do work proportional
//! to the change (1 switch), not the network (32 switches). The run asserts
//! that the three strategies agree bit-for-bit and that the incremental
//! recheck beats the full sequential check by at least 5×.

use std::collections::BTreeSet;
use std::time::Duration;

use scout_bench::harness::{fmt_duration, Harness};
use scout_equiv::{EquivalenceChecker, Parallelism};
use scout_fabric::Fabric;
use scout_workload::ScaleSpec;

const SWITCHES: usize = 32;

fn main() {
    let universe = ScaleSpec::with_switches(SWITCHES).generate(1);
    let mut fabric = Fabric::new(universe);
    fabric.deploy();

    // Baseline check of the healthy fabric, then dirty exactly one switch.
    let sequential = EquivalenceChecker::with_parallelism(Parallelism::Sequential);
    // Force the threaded path even on small machines so the bench always
    // exercises (and validates) per-thread workers.
    let worker_threads = std::thread::available_parallelism().map_or(2, |n| n.get().max(2));
    let parallel = EquivalenceChecker::with_parallelism(Parallelism::Fixed(worker_threads));
    let baseline = sequential.check_network(fabric.logical_rules(), &fabric.collect_tcam());
    let checkpoint = fabric.epoch();

    let victim = fabric.universe().switch_ids()[0];
    let total = fabric.tcam_rules(victim).len().max(1);
    let mut seen = 0usize;
    fabric.remove_tcam_rules_where(victim, |_| {
        seen += 1;
        seen <= total / 2
    });
    let dirty: BTreeSet<_> = fabric.dirty_switches_since(checkpoint);
    assert_eq!(dirty.len(), 1, "exactly one switch must be dirty");

    let logical = fabric.logical_rules().clone();
    let tcam = fabric.collect_tcam();
    let incremental = || {
        sequential.recheck_dirty_with(
            &baseline,
            &logical,
            &tcam.keys().copied().collect(),
            &dirty,
            |s| tcam.get(&s).cloned().unwrap_or_default(),
        )
    };

    // The three strategies must agree bit-for-bit.
    let full_result = sequential.check_network(&logical, &tcam);
    let parallel_result = parallel.check_network(&logical, &tcam);
    let incremental_result = incremental();
    assert_eq!(full_result, parallel_result, "parallel check diverged");
    assert_eq!(
        full_result, incremental_result,
        "incremental check diverged"
    );
    assert!(!full_result.is_consistent());

    let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut h = Harness::new(
        format!("incremental-equiv ({SWITCHES} switches, 1 dirty, {threads} cores)").as_str(),
    );
    // Warm: the persistent checker re-uses its rule/op caches across calls —
    // the steady state of a long-running monitor.
    let t_full = h.bench("full/sequential-warm", || {
        sequential.check_network(&logical, &tcam)
    });
    // Cold: a fresh checker per call, the cost of rebuilding the world.
    let t_cold = h.bench("full/sequential-cold", || {
        EquivalenceChecker::with_parallelism(Parallelism::Sequential).check_network(&logical, &tcam)
    });
    // Parallel workers come from a persistent pool, so repeated calls are
    // warm here too; wall-clock gains over warm-sequential require cores.
    let t_parallel = h.bench("full/parallel-warm", || {
        parallel.check_network(&logical, &tcam)
    });
    let t_incremental = h.bench("incremental/1-dirty", incremental);
    h.finish();

    let speedup = |num: Duration, den: Duration| num.as_secs_f64() / den.as_secs_f64().max(1e-12);
    println!(
        "\nincremental speedup over full sequential: {:.1}x ({} -> {})",
        speedup(t_full, t_incremental),
        fmt_duration(t_full),
        fmt_duration(t_incremental),
    );
    println!(
        "warm-cache speedup over cold rebuild:     {:.1}x ({} -> {})",
        speedup(t_cold, t_full),
        fmt_duration(t_cold),
        fmt_duration(t_full),
    );
    println!(
        "parallel(warm) speedup over cold rebuild: {:.1}x ({} -> {}, {threads} cores)",
        speedup(t_cold, t_parallel),
        fmt_duration(t_cold),
        fmt_duration(t_parallel),
    );

    assert!(
        speedup(t_full, t_incremental) >= 5.0,
        "incremental recheck must be at least 5x faster than a full check \
         when 1 of {SWITCHES} switches is dirty"
    );
}
