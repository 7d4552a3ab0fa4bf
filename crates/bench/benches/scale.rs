//! Scale sweep: aggregate ingest throughput of one shared engine as tenants
//! and driver threads grow.
//!
//! The sharded `ScoutEngine` exists so one service instance can absorb many
//! tenant fabrics concurrently. This bench runs a (tenants × threads) sweep
//! of oracle-less multi-tenant soaks — every tenant is an independent
//! timeline monitored by its own session on the shared engine — and
//! measures aggregate ingest throughput (batches/s across all tenants, by
//! wall clock).
//!
//! Two properties are enforced:
//!
//! * **determinism** — per-tenant outcomes are bit-identical at every thread
//!   count (always asserted);
//! * **scaling** — on a 4-tenant workload, 4 driver threads deliver at least
//!   2× the aggregate throughput of 1 thread (asserted when the host has at
//!   least 4 cores; on smaller hosts the sweep still runs and reports, since
//!   wall-clock scaling is physically impossible without cores to scale
//!   onto).

use scout_bench::harness::fmt_duration;
use scout_equiv::Parallelism;
use scout_sim::{MultiTenantRun, MultiTenantSoak, SoakOutcome, WorkloadKind};
use scout_workload::TestbedSpec;

const TENANT_COUNTS: [usize; 2] = [2, 4];
const THREAD_COUNTS: [usize; 3] = [1, 2, 4];
const EPOCHS: usize = 40;
const SEED: u64 = 42;

fn sweep_point(tenants: usize, threads: usize) -> MultiTenantSoak {
    let spec = TestbedSpec {
        epgs: 12,
        contracts: 8,
        filters: 4,
        target_pairs: 20,
        switches: 3,
        tcam_capacity: 1024,
    };
    MultiTenantSoak {
        concurrency: Parallelism::Fixed(threads),
        ..MultiTenantSoak::new(WorkloadKind::Testbed(spec), tenants, EPOCHS, SEED)
    }
    .without_oracle()
}

/// Runs a sweep point twice and keeps the faster run (best-of-2 damps
/// scheduler noise without hiding real contention).
fn best_of_two(tenants: usize, threads: usize) -> MultiTenantRun {
    let first = sweep_point(tenants, threads).run();
    let second = sweep_point(tenants, threads).run();
    if second.elapsed < first.elapsed {
        second
    } else {
        first
    }
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    println!("== scale sweep (tenants x threads, {EPOCHS} epochs/tenant, {cores} core(s)) ==");
    println!(
        "{:>7} {:>7} {:>10} {:>12} {:>9}",
        "tenants", "threads", "wall", "ingests/s", "speedup"
    );

    let mut four_tenant_throughput: Vec<(usize, f64)> = Vec::new();
    for tenants in TENANT_COUNTS {
        let mut reference: Option<(Vec<SoakOutcome>, f64)> = None;
        for &threads in THREAD_COUNTS.iter().filter(|&&t| t <= tenants) {
            let run = best_of_two(tenants, threads);
            assert!(
                run.oracle_disagreements().is_empty(),
                "oracle disagreement in sweep point {tenants}x{threads}"
            );
            let outcomes: Vec<SoakOutcome> = run.runs.iter().map(|r| r.outcome.clone()).collect();
            let throughput = run.ingests_per_sec();
            let speedup = match &reference {
                None => {
                    reference = Some((outcomes.clone(), throughput));
                    1.0
                }
                Some((reference_outcomes, base)) => {
                    // Determinism: thread count must never change results.
                    assert_eq!(
                        &outcomes, reference_outcomes,
                        "{tenants}x{threads}: thread count changed tenant outcomes"
                    );
                    throughput / base.max(1e-12)
                }
            };
            if tenants == 4 {
                four_tenant_throughput.push((threads, throughput));
            }
            println!(
                "{:>7} {:>7} {:>10} {:>12.0} {:>8.2}x",
                tenants,
                threads,
                fmt_duration(run.elapsed),
                throughput,
                speedup,
            );
        }
    }

    let &(_, single) = four_tenant_throughput
        .iter()
        .find(|(threads, _)| *threads == 1)
        .expect("sweep covers 4 tenants x 1 thread");
    let &(_, quad) = four_tenant_throughput
        .iter()
        .find(|(threads, _)| *threads == 4)
        .expect("sweep covers 4 tenants x 4 threads");
    let scaling = quad / single.max(1e-12);
    println!("4-tenant aggregate scaling 1 -> 4 threads: {scaling:.2}x");

    if cores >= 4 {
        assert!(
            scaling >= 2.0,
            "aggregate ingest throughput must scale at least 2x from 1 to 4 driver \
             threads on a 4-tenant workload ({single:.0} -> {quad:.0} ingests/s, \
             {scaling:.2}x)"
        );
    } else {
        println!(
            "scaling assertion skipped: host has {cores} core(s), wall-clock \
             scaling needs at least 4"
        );
    }
}
