//! The shadow pipeline: one tenant's requests replayed through the public
//! call of every layer, each call inside a span.
//!
//! It performs the same steps, in the same order and with the same engine
//! settings, as the server's session (`scout_core::AnalysisSession`): wire
//! decode, `FabricView` validate/apply, `recheck_dirty_with`, risk-model
//! rebuild or `augment_controller_model_tracked`, `failure_signature` +
//! `suspect_set`, `scout_localize`, `CorrelationEngine::correlate`, the
//! journal frame (`SegmentBuilder::append`) and the store's commit. Its
//! report must equal the server's at every epoch; any difference fails the
//! run.

use std::collections::BTreeSet;
use std::path::Path;

use scout_core::risk::{augment_controller_model_tracked, controller_risk_model_sharded};
use scout_core::{
    scout_localize, CorrelationEngine, ReportDelta, RiskModel, ScoutConfig, ScoutEngine,
    ScoutReport,
};
use scout_equiv::{EquivalenceChecker, Parallelism};
use scout_fabric::wire::{from_bytes, to_bytes};
use scout_fabric::{Fabric, FabricEvent, FabricView};
use scout_policy::{LogicalRule, ObjectId, SwitchEpgPair};
use scout_server::{ServerRequest, ServerResponse, TenantId};
use scout_store::{DurableEngine, DurableSession, SegmentBuilder, StoreConfig};

use crate::trace::Tracer;

/// Exact work counts of the replayed requests.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Work {
    pub ingests: u64,
    pub events: u64,
    pub dirty_switches: u64,
    pub cache_hits: u64,
    pub cache_misses: u64,
    pub cache_evictions: u64,
    pub observations: u64,
    pub suspects: u64,
    pub hypothesis: u64,
    pub gamma_sum: f64,
    pub journal_bytes: u64,
}

impl Work {
    pub fn add(&mut self, other: &Work) {
        self.ingests += other.ingests;
        self.events += other.events;
        self.dirty_switches += other.dirty_switches;
        self.cache_hits += other.cache_hits;
        self.cache_misses += other.cache_misses;
        self.cache_evictions += other.cache_evictions;
        self.observations += other.observations;
        self.suspects += other.suspects;
        self.hypothesis += other.hypothesis;
        self.gamma_sum += other.gamma_sum;
        self.journal_bytes += other.journal_bytes;
    }
}

/// One tenant's shadow session.
pub struct Shadow {
    tenant: TenantId,
    checker: EquivalenceChecker,
    view: FabricView,
    model: RiskModel<SwitchEpgPair>,
    report: ScoutReport,
    scout: ScoutConfig,
    parallelism: Parallelism,
    correlation: CorrelationEngine,
    /// The journal frames of the tenant's batches.
    frames: SegmentBuilder,
    /// The shadow's own store, for the commit.
    durable: Box<DurableSession>,
    /// The server-side report as its deltas describe it.
    seen_missing: BTreeSet<LogicalRule>,
    seen_hypothesis: BTreeSet<ObjectId>,
    pub work: Work,
}

/// The analysis stages after the equivalence check, exactly as the session
/// runs them: augment the pristine model with the failed edges, read the
/// signature and suspects, localize, correlate, roll the model back.
#[allow(clippy::too_many_arguments)]
fn analyze(
    model: &mut RiskModel<SwitchEpgPair>,
    view: &FabricView,
    check: scout_equiv::NetworkCheckResult,
    scout: ScoutConfig,
    correlation: &CorrelationEngine,
    tr: &mut Tracer,
    request: u64,
    parent: usize,
) -> ScoutReport {
    let marks = tr.time(request, "risk.augment", Some(parent), || {
        augment_controller_model_tracked(model, check.missing_rules())
    });
    let (observations, suspect_objects) = tr.time(request, "risk.signature", Some(parent), || {
        let observations = model.failure_signature();
        let suspects = model.suspect_set(&observations);
        (observations, suspects)
    });
    let hypothesis = tr.time(request, "localize", Some(parent), || {
        scout_localize(model, view.change_log(), scout)
    });
    let diagnosis = tr.time(request, "correlate", Some(parent), || {
        correlation.correlate(
            &hypothesis,
            view.universe(),
            view.change_log(),
            view.fault_log(),
        )
    });
    tr.time(request, "risk.augment", Some(parent), || {
        model.undo_failures(marks)
    });
    ScoutReport {
        check,
        observations,
        suspect_objects,
        hypothesis,
        diagnosis,
    }
}

impl Shadow {
    /// Replays an `OpenSession`. The shadow keeps its own store in
    /// `store_dir`, with the server's store settings.
    pub fn open(
        engine: &ScoutEngine,
        open: &[u8],
        store_dir: &Path,
        store: StoreConfig,
        tr: &mut Tracer,
        request: u64,
    ) -> Result<Self, String> {
        let root = tr.begin(request, "session.open", None);
        let decoded = tr.time(request, "server.decode", Some(root), || {
            from_bytes::<ServerRequest>(open)
        });
        let Ok(ServerRequest::OpenSession { tenant, universe }) = decoded else {
            return Err(format!("request {request} is not an OpenSession"));
        };
        let (fabric, view) = tr.time(request, "fabric.deploy", Some(root), || {
            let mut fabric = Fabric::new(universe);
            fabric.deploy();
            let view = FabricView::of(&fabric);
            (fabric, view)
        });
        let config = engine.config();
        let mut checker = EquivalenceChecker::with_parallelism(config.parallelism);
        checker.set_node_budget(config.node_budget);
        checker.set_node_table(config.node_table);
        let check = tr.time(request, "equiv.open_check", Some(root), || {
            checker.check_network(view.logical_rules(), view.tcam())
        });
        let mut model = tr.time(request, "risk.build", Some(root), || {
            controller_risk_model_sharded(view.universe(), config.parallelism)
        });
        let correlation = engine.correlation().clone();
        let report = analyze(
            &mut model,
            &view,
            check,
            config.scout,
            &correlation,
            tr,
            request,
            root,
        );
        tr.end(root);
        let durable = engine
            .open_durable(&fabric, store_dir, store)
            .map_err(|e| format!("shadow store for tenant {tenant}: {e}"))?;
        let frames = SegmentBuilder::new(durable.next_epoch(), durable.chain());
        Ok(Self {
            tenant,
            checker,
            seen_missing: report.check.missing_rule_set(),
            seen_hypothesis: report.hypothesis.objects(),
            view,
            model,
            report,
            scout: config.scout,
            parallelism: config.parallelism,
            correlation,
            frames,
            durable: Box::new(durable),
            work: Work::default(),
        })
    }

    /// Replays one `Ingest` and checks the shadow against the server's
    /// `delta` for the same epoch.
    pub fn ingest(
        &mut self,
        bytes: &[u8],
        delta: &ReportDelta,
        tr: &mut Tracer,
        request: u64,
    ) -> Result<(), String> {
        let root = tr.begin(request, "session.ingest", None);
        let decoded = tr.time(request, "server.decode", Some(root), || {
            from_bytes::<ServerRequest>(bytes)
        });
        let Ok(ServerRequest::Ingest { batch, .. }) = decoded else {
            return Err(format!("request {request} is not an Ingest"));
        };
        self.work.ingests += 1;
        self.work.events += batch.len() as u64;
        let mut dirty = BTreeSet::new();
        if !batch.is_empty() {
            tr.time(request, "fabric.validate", Some(root), || {
                self.view.validate(&batch.events)
            })
            .map_err(|e| format!("epoch {}: {e}", batch.epoch))?;
            let apply = tr.begin(request, "fabric.apply", Some(root));
            let mut policy_changed = false;
            for event in &batch.events {
                policy_changed |= matches!(event, FabricEvent::PolicyUpdate { .. });
                let touched = self
                    .view
                    .apply(event)
                    .map_err(|e| format!("epoch {}: {e}", batch.epoch))?;
                dirty.extend(touched);
            }
            tr.end(apply);

            let before = self.checker.cache_stats();
            let view = &self.view;
            let checker = &self.checker;
            let previous = &self.report.check;
            let check = tr.time(request, "equiv.recheck", Some(root), || {
                checker.recheck_dirty_with(
                    previous,
                    view.logical_rules(),
                    view.switch_set(),
                    &dirty,
                    |s| view.tcam_of(s),
                )
            });
            let after = self.checker.cache_stats();
            self.work.dirty_switches += dirty.len() as u64;
            self.work.cache_hits += after.hits - before.hits;
            self.work.cache_misses += after.misses - before.misses;
            self.work.cache_evictions += after.evictions - before.evictions;

            if policy_changed {
                let parallelism = self.parallelism;
                self.model = tr.time(request, "risk.build", Some(root), || {
                    controller_risk_model_sharded(view.universe(), parallelism)
                });
            }
            self.report = analyze(
                &mut self.model,
                &self.view,
                check,
                self.scout,
                &self.correlation,
                tr,
                request,
                root,
            );
        }
        let frames = &mut self.frames;
        let frame = tr.time(request, "store.append", Some(root), || {
            frames.append(&batch)
        });
        self.work.journal_bytes += frame.map_err(|e| e.to_string())?.len() as u64;
        // The shadow store's own append re-runs the analysis; it is
        // bookkeeping for the commit below, so it is not traced.
        let durable = &mut self.durable;
        durable
            .append(batch)
            .map_err(|e| format!("shadow journal: {e}"))?;
        tr.time(request, "store.commit", Some(root), || durable.commit())
            .map_err(|e| format!("shadow commit: {e}"))?;
        let response = ServerResponse::Ingested {
            tenant: self.tenant,
            delta: delta.clone(),
        };
        tr.time(request, "server.encode", Some(root), || to_bytes(&response));
        tr.end(root);

        let report = &self.report;
        self.work.observations += report.observations.len() as u64;
        self.work.suspects += report.suspect_objects.len() as u64;
        self.work.hypothesis += report.hypothesis.len() as u64;
        self.work.gamma_sum += report.gamma();
        self.follow(delta, &dirty)
    }

    /// Applies the server's delta to the shadow's picture of the server's
    /// report and checks that both agree.
    fn follow(
        &mut self,
        delta: &ReportDelta,
        dirty: &BTreeSet<scout_policy::SwitchId>,
    ) -> Result<(), String> {
        for rule in &delta.restored {
            self.seen_missing.remove(rule);
        }
        self.seen_missing
            .extend(delta.newly_missing.iter().copied());
        for object in &delta.hypothesis_removed {
            self.seen_hypothesis.remove(object);
        }
        self.seen_hypothesis
            .extend(delta.hypothesis_added.iter().copied());
        let report = &self.report;
        let agrees = delta.consistent == report.is_consistent()
            && delta.rechecked == *dirty
            && self.seen_missing == report.check.missing_rule_set()
            && self.seen_hypothesis == report.hypothesis.objects();
        if agrees {
            Ok(())
        } else {
            Err(format!(
                "tenant {}: shadow pipeline diverged from the server at epoch {}",
                self.tenant, delta.epoch
            ))
        }
    }

    pub fn report(&self) -> &ScoutReport {
        &self.report
    }
}
