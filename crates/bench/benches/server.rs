//! Serving-layer sweep: 1000 tenants through the `scout-server` front door
//! at 1, 4 and 8 serving threads.
//!
//! Every request in this bench crosses the full wire funnel — encode,
//! [`ScoutServer::handle_bytes`], admission control, session, encode the
//! response — so the recorded latencies are what a tenant of the front door
//! would see, not what the engine costs in isolation. The sweep runs with
//! **uniform tenant seeding** (`distinct_seeds = false`): every tenant
//! carries the same universe and batch stream, so the max/min per-tenant
//! throughput ratio measures the *scheduler's* fairness, with workload
//! variance held at zero.
//!
//! Three properties are enforced on the full sweep:
//!
//! * **determinism** — sampled tenants' delta streams and final reports are
//!   bit-identical to a direct single-threaded engine replay at every thread
//!   count (always asserted; the root suite `tests/server.rs` covers every
//!   tenant);
//! * **fairness** — the fastest tenant's winsorized-busy-time throughput is
//!   at most [`FAIRNESS_BUDGET`]× the slowest tenant's, asserted at every thread
//!   count the host can actually run in parallel (oversubscribed threads on
//!   a smaller host measure the OS scheduler's time slicing, not the
//!   admission layer — the same hardware gate `scale.rs` applies);
//! * **loss-freedom** — accepted ingests across the fleet equal
//!   tenants × epochs exactly.
//!
//! The per-thread-count request-latency distributions are serialized to
//! `BENCH_server.json` at the repo root (schema-pinned by the root test
//! `tests/bench_artifact.rs`); pass `--tenants N` to trim the fleet locally,
//! which skips the assertions and the artifact.
//!
//! [`ScoutServer::handle_bytes`]: scout_server::ScoutServer::handle_bytes

use std::path::Path;

use scout_bench::{arg_value, json};
use scout_equiv::Parallelism;
use scout_sim::{FleetRun, FleetSoak, WorkloadKind};
use scout_workload::TestbedSpec;

const TENANTS: usize = 1000;
const THREAD_COUNTS: [usize; 3] = [1, 4, 8];
const EPOCHS: usize = 8;
const SEED: u64 = 42;
/// Largest tolerated max/min per-tenant throughput ratio under uniform load.
const FAIRNESS_BUDGET: f64 = 2.0;

fn sweep_point(tenants: usize, threads: usize) -> FleetSoak {
    // Heavier than the unit-test spec on purpose: a request must cost enough
    // that one OS preemption stall cannot move a tenant's p50.
    let spec = TestbedSpec {
        epgs: 24,
        contracts: 14,
        filters: 6,
        target_pairs: 48,
        switches: 6,
        tcam_capacity: 2048,
    };
    FleetSoak {
        concurrency: Parallelism::Fixed(threads),
        distinct_seeds: false,
        ..FleetSoak::new(WorkloadKind::Testbed(spec), tenants, EPOCHS, SEED)
    }
}

/// Per-tenant throughput over *winsorized* busy time: every round-trip is
/// clamped at the tenant's own p90 before summing. A tenant's handful of
/// requests that straddle an OS preemption stall report milliseconds of
/// wall-clock for microseconds of service; un-clamped, one stall would
/// dominate a tenant's busy time and the fleet-wide max/min ratio would
/// measure kernel scheduling, not admission fairness. The clamp discards
/// exactly that additive noise while keeping every real service cost (under
/// uniform load all tenants run identical requests, so their p90s agree).
fn tenant_throughput(run: &FleetRun, tenant: usize) -> f64 {
    let outcome = &run.outcomes[tenant];
    let mut sorted = outcome.latencies_ns.clone();
    sorted.sort_unstable();
    let cap = sorted[(sorted.len() * 9 / 10).min(sorted.len() - 1)];
    let busy_ns: u64 = sorted.iter().map(|&ns| ns.min(cap)).sum();
    outcome.deltas.len() as f64 / (busy_ns as f64 / 1e9).max(1e-12)
}

/// Max-over-min winsorized tenant throughput at one sweep point.
fn fairness(run: &FleetRun) -> f64 {
    let rates: Vec<f64> = (0..run.outcomes.len())
        .map(|tenant| tenant_throughput(run, tenant))
        .collect();
    let max = rates.iter().copied().fold(f64::MIN, f64::max);
    let min = rates.iter().copied().fold(f64::MAX, f64::min);
    max / min.max(1e-12)
}

fn main() {
    let args: Vec<String> = std::env::args().collect();
    let tenants: usize = arg_value(&args, "--tenants", TENANTS);
    let full_fleet = tenants == TENANTS;
    let fleet = sweep_point(tenants, 1);

    println!("== serving-layer sweep ({tenants} tenants x {EPOCHS} epochs, uniform load) ==");
    println!(
        "{:>7} {:>10} {:>12} {:>12} {:>12} {:>9} {:>8}",
        "threads", "wall", "p50 req", "p99 req", "ingests/s", "fairness", "shed"
    );

    // Every tenant is the same workload, so one direct replay is the oracle
    // for all of them.
    let (oracle_deltas, oracle_report) = fleet.direct_replay(0);

    let mut rows: Vec<(usize, FleetRun, f64)> = Vec::new();
    for threads in THREAD_COUNTS {
        let run = sweep_point(tenants, threads).run();

        // Determinism: sampled tenants must match the direct-engine replay
        // bit for bit (the root suite covers every tenant; the bench keeps
        // its own spot-check so a regression fails here too).
        for tenant in [0, tenants / 2, tenants - 1] {
            assert_eq!(
                run.outcomes[tenant].analysis(),
                (&oracle_deltas[..], Some(&oracle_report)),
                "tenant {tenant} at {threads} threads diverged from the direct replay"
            );
        }
        assert_eq!(
            run.total_ingests(),
            tenants * EPOCHS,
            "{threads} threads: accepted batches were lost"
        );

        let ratio = fairness(&run);
        println!(
            "{:>7} {:>10} {:>9} ns {:>9} ns {:>12.0} {:>8.2}x {:>8}",
            threads,
            scout_bench::harness::fmt_duration(run.elapsed),
            run.latency_p(50.0),
            run.latency_p(99.0),
            run.ingests_per_sec(),
            ratio,
            run.total_shed(),
        );
        rows.push((threads, run, ratio));
    }

    if !full_fleet {
        println!("trimmed fleet (--tenants): assertions and artifact skipped");
        return;
    }

    // The artifact: one row per thread count, carrying the fleet-wide
    // request-latency distribution and the wall-clock ingest throughput.
    let mut out = String::new();
    out.push_str("{\n  \"group\": \"server\",\n  \"benches\": [\n");
    for (i, (threads, run, _)) in rows.iter().enumerate() {
        let requests: u64 = run
            .outcomes
            .iter()
            .map(|o| o.latencies_ns.len() as u64)
            .sum();
        out.push_str(&format!(
            "    {{\"label\": \"fleet/{tenants}tenants/{threads}threads/request\", \
             \"iterations\": {}, \"p50_ns\": {}, \"p99_ns\": {}, \
             \"throughput_per_sec\": {:.3}}}{}\n",
            requests,
            run.latency_p(50.0),
            run.latency_p(99.0),
            run.ingests_per_sec(),
            if i + 1 < rows.len() { "," } else { "" },
        ));
    }
    out.push_str("  ]\n}\n");
    json::validate_bench_report(&out).expect("artifact matches the bench schema");
    let artifact = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_server.json");
    std::fs::write(&artifact, &out).expect("artifact is writable");
    println!("wrote {}", artifact.display());

    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    for (threads, _, ratio) in &rows {
        if *threads > cores {
            println!(
                "fairness assertion skipped at {threads} threads: host has {cores} core(s), \
                 oversubscription noise is the OS scheduler's, not the admission layer's"
            );
            continue;
        }
        assert!(
            *ratio <= FAIRNESS_BUDGET,
            "at {threads} serving threads the fastest tenant ran {ratio:.2}x the slowest \
             (budget {FAIRNESS_BUDGET}x): the admission layer is starving tenants"
        );
    }
}
