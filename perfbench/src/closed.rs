//! The closed-loop workloads (`churn_1k`, `degraded_1k`): one tenant sends
//! its next epoch as soon as the previous one is answered.

use std::path::{Path, PathBuf};
use std::time::Instant;

use scout_core::{ReportDelta, ScoutEngine, ScoutReport};
use scout_fabric::wire::{from_bytes, to_bytes};
use scout_server::{AdmissionConfig, ScoutServer, ServerConfig, ServerRequest, ServerResponse};
use scout_store::{verify_dir, StoreConfig};

use crate::gen::{self, ClosedInputs, Request, Scale, Workload, CLOSED_TENANT};
use crate::layers::{self, Extras, SERVER_INGEST};
use crate::report::{quantile, rss_peak_mb, RunReport};
use crate::shadow::Shadow;
use crate::trace::Tracer;
use crate::{Options, GOODPUT_MS, SETUPS};

pub fn decode(bytes: &[u8]) -> Result<ServerResponse, String> {
    from_bytes::<ServerResponse>(bytes).map_err(|e| format!("undecodable response: {e}"))
}

fn ms(d: std::time::Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// A directory of store roots under the run's output directory, removed
/// when dropped.
struct Stores(PathBuf);

impl Stores {
    fn new(opts: &Options, workload: Workload) -> Result<Self, String> {
        let dir = opts
            .out_dir
            .join(format!("stores-{}-{}", workload.name(), std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
        Ok(Self(dir))
    }

    /// A fresh store root.
    fn root(&self, name: &str) -> PathBuf {
        self.0.join(name)
    }
}

impl Drop for Stores {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The server's settings: durable tenants keep their store under `root`,
/// with the store's default settings.
fn server_config(root: Option<&Path>) -> ServerConfig {
    let admission = AdmissionConfig::default();
    match root {
        Some(root) => ServerConfig::durable(admission, root.to_path_buf(), StoreConfig::default()),
        None => ServerConfig::in_memory(admission),
    }
}

/// A server with one open session, ready for the first timed request.
struct SetUp {
    server: ScoutServer,
    setup_s: f64,
    warmup_deltas: Vec<ReportDelta>,
}

fn set_up(inputs: &ClosedInputs, root: Option<&Path>) -> Result<SetUp, String> {
    let start = Instant::now();
    let mut server = ScoutServer::new(ScoutEngine::new(), server_config(root));
    let response = server.handle_bytes(&inputs.open);
    match decode(&response)? {
        ServerResponse::Opened { .. } => {}
        other => return Err(format!("open failed: {other:?}")),
    }
    let mut warmup_deltas = Vec::new();
    for bytes in &inputs.warmup {
        match decode(&server.handle_bytes(bytes))? {
            ServerResponse::Ingested { delta, .. } => warmup_deltas.push(delta),
            other => return Err(format!("warm-up ingest failed: {other:?}")),
        }
        server.tick();
    }
    Ok(SetUp {
        server,
        setup_s: start.elapsed().as_secs_f64(),
        warmup_deltas,
    })
}

/// One pass over the timed requests.
struct Pass {
    latency_ms: Vec<f64>,
    /// When each request's answer and tick were done, in seconds from the
    /// pass's start.
    done_s: Vec<f64>,
    late_ms: Vec<f64>,
    wall_s: f64,
    busy_s: f64,
    report: ScoutReport,
}

/// The request id of timed ingest `i` (0 is the open, then the warm-up).
fn request_id(inputs: &ClosedInputs, i: usize) -> u64 {
    (1 + inputs.warmup.len() + i) as u64
}

/// Sends the first `limit` timed requests, then queries the report. The admission
/// lane is refilled by a server tick after every answer, as a server loop
/// would between requests. When traced, the shadow replays each request
/// right after the server answered it, so both see the same host.
fn pass(
    server: &mut ScoutServer,
    inputs: &ClosedInputs,
    limit: usize,
    mut traced: Option<(&mut Tracer, &mut Shadow)>,
) -> Result<Pass, String> {
    let mut latency_ms = Vec::with_capacity(inputs.requests.len());
    let mut late_ms = Vec::with_capacity(inputs.requests.len());
    let mut done_s = Vec::with_capacity(inputs.requests.len());
    let mut busy = std::time::Duration::ZERO;
    let start = Instant::now();
    let mut answered = start;
    for (i, request) in inputs.requests.iter().take(limit).enumerate() {
        let id = request_id(inputs, i);
        let sent = Instant::now();
        let span = traced
            .as_mut()
            .map(|(t, _)| t.begin(id, SERVER_INGEST, None));
        let response = server.handle_bytes(&request.bytes);
        if let (Some((t, _)), Some(span)) = (traced.as_mut(), span) {
            t.end(span);
        }
        let done = Instant::now();
        latency_ms.push(ms(done - sent));
        late_ms.push(ms(sent - answered));
        busy += done - sent;
        let delta = match decode(&response)? {
            ServerResponse::Ingested { delta, .. } if delta.epoch == request.epoch => delta,
            other => return Err(format!("epoch {}: {other:?}", request.epoch)),
        };
        let tick = Instant::now();
        let span = traced
            .as_mut()
            .map(|(t, _)| t.begin(id, "server.tick", None));
        let drained = server.tick();
        if let (Some((t, _)), Some(span)) = (traced.as_mut(), span) {
            t.end(span);
        }
        busy += tick.elapsed();
        if !drained.is_empty() {
            return Err(format!(
                "epoch {}: a closed loop never queues",
                request.epoch
            ));
        }
        if let Some((t, shadow)) = traced.as_mut() {
            shadow.ingest(&request.bytes, &delta, t, id)?;
        }
        answered = Instant::now();
        done_s.push((answered - start).as_secs_f64());
    }
    let wall_s = start.elapsed().as_secs_f64();
    let report = query(server)?;
    Ok(Pass {
        latency_ms,
        done_s,
        late_ms,
        wall_s,
        busy_s: busy.as_secs_f64(),
        report,
    })
}

fn query(server: &mut ScoutServer) -> Result<ScoutReport, String> {
    let query = to_bytes(&ServerRequest::Query {
        tenant: CLOSED_TENANT,
    });
    match decode(&server.handle_bytes(&query))? {
        ServerResponse::Report { report, .. } => Ok(report),
        other => Err(format!("query failed: {other:?}")),
    }
}

/// Per-kind ingest p50 and p99, for the log. On a durable workload the
/// epochs whose commit writes a snapshot anchor are their own kind.
fn kind_table(workload: Workload, inputs: &ClosedInputs, latency_ms: &[f64]) -> String {
    let every = StoreConfig::default().snapshot_every;
    let label = |request: &Request| {
        if workload.durable() && every > 0 && request.epoch.is_multiple_of(every) {
            "anchor"
        } else {
            request.kind.name()
        }
    };
    let mut labels: Vec<&str> = inputs.requests.iter().map(label).collect();
    labels.sort();
    labels.dedup();
    labels
        .into_iter()
        .map(|name| {
            let samples: Vec<f64> = inputs
                .requests
                .iter()
                .zip(latency_ms)
                .filter(|(r, _)| label(r) == name)
                .map(|(_, &ms)| ms)
                .collect();
            format!(
                "  {:<8} n={:<5} p50={:.3} ms  p99={:.3} ms\n",
                name,
                samples.len(),
                quantile(&samples, 0.5),
                quantile(&samples, 0.99)
            )
        })
        .collect()
}

/// Requests per throughput window: the stretch over which the request mix
/// repeats exactly. A `churn_1k` window is one generator block; a
/// `degraded_1k` window holds one anchor epoch.
fn window(workload: Workload) -> usize {
    match workload {
        Workload::Churn1k => gen::CHURN_BLOCK_EPOCHS,
        Workload::Degraded1k => StoreConfig::default().snapshot_every as usize,
    }
}

/// Ingests and goodput per second in each whole window of `window`
/// requests, from the answer before the window's first request to its
/// last answer. Their medians are the reported rates, so a stall of the
/// host moves one window rather than the whole run's mean. A pass shorter than one window is a single window.
fn window_rates(p: &Pass, window: usize) -> (Vec<f64>, Vec<f64>) {
    let window = window.min(p.done_s.len());
    let mut ingests = Vec::new();
    let mut goodput = Vec::new();
    let mut begin = 0.0;
    for (done, latency) in p
        .done_s
        .chunks_exact(window)
        .zip(p.latency_ms.chunks_exact(window))
    {
        let end = done[window - 1];
        let good = latency.iter().filter(|&&ms| ms <= GOODPUT_MS).count();
        ingests.push(window as f64 / (end - begin));
        goodput.push(good as f64 / (end - begin));
        begin = end;
    }
    (ingests, goodput)
}

pub fn generate(
    workload: Workload,
    scale: &Scale,
    seed: u64,
    seconds: u64,
) -> Result<ClosedInputs, String> {
    let epochs = scale.epochs(workload, seconds);
    match workload {
        Workload::Churn1k => gen::churn(scale, seed, epochs),
        Workload::Degraded1k => Ok(gen::degraded(scale, seed, epochs)),
    }
}

/// The oracle: the session's final report equals a from-scratch analysis
/// of the generator's fabric.
fn check_oracle(inputs: &ClosedInputs, report: &ScoutReport) -> Result<(), String> {
    if *report == ScoutEngine::new().analyze(&inputs.fabric) {
        Ok(())
    } else {
        Err(
            "the final Query report differs from ScoutEngine::analyze of the generator's fabric"
                .into(),
        )
    }
}

/// What the recovery check measured.
struct Recovery {
    verify_ms: f64,
    adopt_ms: f64,
    replayed: u64,
}

/// The recovery check, as failover runs it: `verify_dir` certifies the
/// tenant's store under `root`, a fresh server adopts the tenant from it,
/// and the adopted session's report must equal the oracle's.
fn recover(inputs: &ClosedInputs, root: &Path) -> Result<Recovery, String> {
    let config = server_config(Some(root));
    let dir = config
        .tenant_dir(CLOSED_TENANT)
        .expect("a durable config has tenant directories");
    let start = Instant::now();
    let summary = verify_dir(&dir).map_err(|e| format!("verify_dir: {e}"))?;
    let verify_ms = ms(start.elapsed());
    let mut server = ScoutServer::new(ScoutEngine::new(), config);
    let start = Instant::now();
    server
        .adopt(CLOSED_TENANT)
        .map_err(|e| format!("adopt: {e:?}"))?;
    let adopt_ms = ms(start.elapsed());
    check_oracle(inputs, &query(&mut server)?)
        .map_err(|e| format!("after recovery from the store: {e}"))?;
    Ok(Recovery {
        verify_ms,
        adopt_ms,
        replayed: summary.last_epoch - summary.anchor_epoch,
    })
}

pub fn run(workload: Workload, opts: &Options) -> Result<RunReport, String> {
    let gen_start = Instant::now();
    let inputs = generate(workload, &opts.scale, opts.seed, opts.seconds)?;
    let gen_s = gen_start.elapsed().as_secs_f64();
    let mut out = RunReport {
        attempted: (1 + inputs.warmup.len() + inputs.requests.len()) as u64,
        ..RunReport::default()
    };
    let stores = Stores::new(opts, workload)?;
    let server_root = |name: &str| workload.durable().then(|| stores.root(name));

    if !opts.trace {
        let mut setups = Vec::new();
        let mut ready = None;
        for k in 0..SETUPS {
            drop(ready.take());
            let root = server_root(&format!("setup{k}"));
            let s = set_up(&inputs, root.as_deref())?;
            setups.push(s.setup_s);
            ready = Some((s.server, root));
        }
        let (mut server, root) = ready.expect("SETUPS is positive");
        let p = pass(&mut server, &inputs, inputs.requests.len(), None)?;
        drop(server);
        check_oracle(&inputs, &p.report)?;
        if let Some(root) = &root {
            recover(&inputs, root)?;
        }
        eprint!("{}", kind_table(workload, &inputs, &p.latency_ms));
        let n = p.latency_ms.len();
        let (ingests, goodput) = window_rates(&p, window(workload));
        out.push("setup_s", quantile(&setups, 0.5), "s", setups.len());
        out.push("ingest_p50_ms", quantile(&p.latency_ms, 0.5), "ms", n);
        out.push("ingest_p99_ms", quantile(&p.latency_ms, 0.99), "ms", n);
        out.push(
            "ingests_per_s",
            quantile(&ingests, 0.5),
            "1/s",
            ingests.len(),
        );
        out.push(
            "goodput_per_s",
            quantile(&goodput, 0.5),
            "1/s",
            goodput.len(),
        );
        out.push("rss_peak_mb", rss_peak_mb(), "MB", 1);
        return Ok(out);
    }

    // Traced run: an untraced reference pass over the first quarter of the
    // stream, then a full pass with the shadow replay interleaved. The
    // shadow keeps a store of its own, so the store's calls are timed on
    // every workload; where the server is in memory they are off its path.
    let quarter = inputs.requests.len() / 4;
    let untraced = {
        let root = server_root("reference");
        let mut s = set_up(&inputs, root.as_deref())?;
        pass(&mut s.server, &inputs, quarter, None)?
    };
    let mut tracer = Tracer::new();
    let root = server_root("traced");
    let s = set_up(&inputs, root.as_deref())?;
    let mut server = s.server;
    let shadow_root = stores.root("shadow");
    let shadow_dir = server_config(Some(&shadow_root))
        .tenant_dir(CLOSED_TENANT)
        .expect("a durable config has tenant directories");
    let mut shadow = Shadow::open(
        server.engine(),
        &inputs.open,
        &shadow_dir,
        StoreConfig::default(),
        &mut tracer,
        0,
    )?;
    for (i, (bytes, delta)) in inputs.warmup.iter().zip(&s.warmup_deltas).enumerate() {
        shadow.ingest(bytes, delta, &mut tracer, 1 + i as u64)?;
    }
    let traced = pass(
        &mut server,
        &inputs,
        inputs.requests.len(),
        Some((&mut tracer, &mut shadow)),
    )?;
    drop(server);
    if *shadow.report() != traced.report {
        return Err("the shadow pipeline's final report differs from the server's".into());
    }
    check_oracle(&inputs, &traced.report)?;
    let work = shadow.work;
    drop(shadow);
    // Recover the store that holds the tenant's journal: the server's where
    // it is durable, the shadow's otherwise.
    let recovery = recover(&inputs, root.as_deref().unwrap_or(&shadow_root))?;

    let untraced_p50 = quantile(&untraced.latency_ms, 0.5);
    let extras = Extras {
        durable: workload.durable(),
        admitted: traced.latency_ms.len() as u64,
        busy_ratio: untraced.busy_s / untraced.wall_s,
        batch_bytes: inputs
            .requests
            .iter()
            .map(|r| r.bytes.len() as f64)
            .collect(),
        verify_ms: recovery.verify_ms,
        adopt_ms: recovery.adopt_ms,
        replayed: recovery.replayed,
        gen_s,
        late_ms: untraced.late_ms,
        trace_overhead: quantile(&traced.latency_ms[..quarter], 0.5) / untraced_p50 - 1.0,
    };
    layers::per_layer(&tracer, &work, &extras, &mut out);
    opts.write_spans(workload, &tracer)?;
    Ok(out)
}
