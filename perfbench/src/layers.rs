//! Per-layer metrics of a traced run, computed from its spans alone.

use std::collections::BTreeMap;

use crate::report::{quantile, RunReport};
use crate::shadow::Work;
use crate::trace::Tracer;

/// The server-side span of one timed ingest (inline service time).
pub const SERVER_INGEST: &str = "server.ingest";

/// The shadow's stage spans, grouped by the layer they time. Together they
/// are everything the server does for an ingest that a public call can
/// reach; `session.residual_ms` is what they miss. The store's stages count
/// towards coverage only where the server is durable.
const STAGES: [(&str, &[&str]); 7] = [
    ("server", &["server.decode", "server.encode"]),
    ("fabric", &["fabric.validate", "fabric.apply"]),
    ("equiv", &["equiv.recheck"]),
    ("risk", &["risk.build", "risk.augment", "risk.signature"]),
    ("localize", &["localize"]),
    ("correlate", &["correlate"]),
    ("store", &["store.append", "store.commit"]),
];

/// Facts of a traced run that do not come from the shadow's spans.
#[derive(Debug, Default)]
pub struct Extras {
    /// The server journals every ingest, so the store is on its path.
    pub durable: bool,
    pub admitted: u64,
    pub busy_ratio: f64,
    /// Encoded size of every timed ingest request.
    pub batch_bytes: Vec<f64>,
    /// The recovery after the pass: `verify_dir` of the tenant's store, and
    /// `ScoutServer::adopt` of it on a fresh server.
    pub verify_ms: f64,
    pub adopt_ms: f64,
    /// Journal records the adopt replayed on top of the newest anchor.
    pub replayed: u64,
    pub gen_s: f64,
    pub late_ms: Vec<f64>,
    pub trace_overhead: f64,
}

/// Per-request self time of every span layer, in milliseconds.
struct SelfTimes {
    by_layer: BTreeMap<&'static str, BTreeMap<u64, f64>>,
}

impl SelfTimes {
    fn of(tracer: &Tracer) -> Self {
        let mut by_layer: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for ((layer, request), ns) in tracer.self_by_request() {
            by_layer
                .entry(layer)
                .or_default()
                .insert(request, ns as f64 / 1e6);
        }
        Self { by_layer }
    }

    fn samples(&self, layer: &str) -> Vec<f64> {
        self.by_layer
            .get(layer)
            .map(|m| m.values().copied().collect())
            .unwrap_or_default()
    }

    fn has(&self, layer: &str, request: u64) -> bool {
        self.by_layer
            .get(layer)
            .is_some_and(|m| m.contains_key(&request))
    }

    fn at(&self, layer: &str, request: u64) -> f64 {
        self.by_layer
            .get(layer)
            .and_then(|m| m.get(&request))
            .copied()
            .unwrap_or(0.0)
    }
}

/// Pushes every per-layer metric, in a fixed order, onto `report`.
pub fn per_layer(tracer: &Tracer, work: &Work, extras: &Extras, report: &mut RunReport) {
    let times = SelfTimes::of(tracer);
    let p50 = |layer: &str, scale: f64| {
        let s = times.samples(layer);
        (quantile(&s, 0.5) * scale, s.len())
    };

    // Coverage: the shadow's stages against the server's own service time,
    // over the timed ingests that have both.
    let served: Vec<(u64, f64)> = times
        .by_layer
        .get(SERVER_INGEST)
        .map(|m| {
            m.iter()
                .filter(|(r, _)| times.has("session.ingest", **r))
                .map(|(&r, &ms)| (r, ms))
                .collect()
        })
        .unwrap_or_default();
    let server_total: f64 = served.iter().map(|(_, ms)| ms).sum();
    let layer_total = |layers: &[&str]| -> f64 {
        served
            .iter()
            .map(|&(r, _)| layers.iter().map(|l| times.at(l, r)).sum::<f64>())
            .sum()
    };
    let share: BTreeMap<&str, f64> = STAGES
        .iter()
        .map(|(group, layers)| (*group, layer_total(layers) / server_total.max(1e-12)))
        .collect();
    let stage_total: f64 = STAGES
        .iter()
        .filter(|(group, _)| extras.durable || *group != "store")
        .map(|(_, layers)| layer_total(layers))
        .sum();
    let n = served.len();

    let (v, s) = p50("server.decode", 1e3);
    report.push("server.decode_us", v, "us", s);
    let (v, s) = p50("server.encode", 1e3);
    report.push("server.encode_us", v, "us", s);
    let (v, s) = p50("server.tick", 1.0);
    report.push("server.tick_ms", v, "ms", s);
    report.push("server.busy_ratio", extras.busy_ratio, "ratio", 1);
    report.count("server.admitted", extras.admitted);
    report.push("server.share", share["server"], "ratio", n);

    let (v, s) = p50("fabric.apply", 1e3);
    report.push("fabric.apply_us", v, "us", s);
    report.count("fabric.events", work.events);
    report.push(
        "fabric.batch_bytes",
        quantile(&extras.batch_bytes, 0.5),
        "bytes",
        extras.batch_bytes.len(),
    );
    report.push("fabric.share", share["fabric"], "ratio", n);

    let recheck = times.samples("equiv.recheck");
    report.push(
        "equiv.recheck_p50_ms",
        quantile(&recheck, 0.5),
        "ms",
        recheck.len(),
    );
    report.push(
        "equiv.recheck_p99_ms",
        quantile(&recheck, 0.99),
        "ms",
        recheck.len(),
    );
    // The share of rechecks that take over twice the median one: on
    // `degraded_1k`, mostly those that rebuild a BDD worker which outgrew
    // its node budget. They are too rare for `equiv.recheck_p99_ms`.
    let median = quantile(&recheck, 0.5);
    let slow = recheck.iter().filter(|&&ms| ms > 2.0 * median).count();
    report.push(
        "equiv.slow_recheck_ratio",
        slow as f64 / recheck.len().max(1) as f64,
        "ratio",
        recheck.len(),
    );
    let (v, s) = p50("equiv.open_check", 1e-3);
    report.push("equiv.open_check_s", v, "s", s);
    report.count("equiv.dirty_switches", work.dirty_switches);
    report.push("equiv.share", share["equiv"], "ratio", n);

    report.count("bdd.cache_hits", work.cache_hits);
    report.count("bdd.cache_misses", work.cache_misses);
    report.count("bdd.cache_evictions", work.cache_evictions);
    let lookups = (work.cache_hits + work.cache_misses).max(1) as f64;
    report.push(
        "bdd.hit_ratio",
        work.cache_hits as f64 / lookups,
        "ratio",
        1,
    );

    let (v, s) = p50("risk.build", 1.0);
    report.push("risk.build_ms", v, "ms", s);
    let (v, s) = p50("risk.augment", 1.0);
    report.push("risk.augment_ms", v, "ms", s);
    let (v, s) = p50("risk.signature", 1.0);
    report.push("risk.signature_ms", v, "ms", s);
    report.count("risk.observations", work.observations);
    report.count("risk.suspects", work.suspects);
    report.push("risk.share", share["risk"], "ratio", n);

    let (v, s) = p50("localize", 1.0);
    report.push("localize.ms", v, "ms", s);
    report.count("localize.hypothesis", work.hypothesis);
    report.push(
        "localize.gamma",
        work.gamma_sum / work.ingests.max(1) as f64,
        "ratio",
        work.ingests as usize,
    );
    report.push("localize.share", share["localize"], "ratio", n);

    let (v, s) = p50("correlate", 1.0);
    report.push("correlate.ms", v, "ms", s);
    report.push("correlate.share", share["correlate"], "ratio", n);

    let (v, s) = p50("store.append", 1e3);
    report.push("store.append_us", v, "us", s);
    let (v, s) = p50("store.commit", 1.0);
    report.push("store.commit_ms", v, "ms", s);
    report
        .counters
        .insert("store.journal_bytes", work.journal_bytes);
    report.push(
        "store.bytes_per_epoch",
        work.journal_bytes as f64 / work.ingests.max(1) as f64,
        "bytes",
        work.ingests as usize,
    );
    report.push("store.verify_ms", extras.verify_ms, "ms", 1);
    report.push("store.adopt_ms", extras.adopt_ms, "ms", 1);
    report.count("store.replayed", extras.replayed);
    report.push("store.share", share["store"], "ratio", n);

    report.push(
        "session.residual_ms",
        (server_total - stage_total) / n.max(1) as f64,
        "ms",
        n,
    );
    report.push(
        "session.stage_coverage",
        stage_total / server_total.max(1e-12),
        "ratio",
        n,
    );

    report.push("bench.gen_s", extras.gen_s, "s", 1);
    report.push(
        "bench.late_p99_ms",
        quantile(&extras.late_ms, 0.99),
        "ms",
        extras.late_ms.len(),
    );
    report.push("bench.trace_overhead", extras.trace_overhead, "ratio", 2);
}
