//! The SCOUT service facade: a long-lived, multi-fabric analysis engine.
//!
//! The paper's SCOUT is a *continuously running* service (Figure 6): the
//! controller streams policy changes into it, switches stream TCAM and fault
//! state, and operators consume diagnoses. [`ScoutEngine`] is that front
//! door:
//!
//! * it is configured once through a [`ScoutEngineBuilder`] (parallelism,
//!   cache budgets, differential-oracle cadence, correlation library) so
//!   every driver — campaigns, soak timelines, examples, tests — shares one
//!   configuration surface with one default;
//! * it owns a registry of [`AnalysisSession`]s, one per monitored fabric;
//!   a session is opened from a fabric snapshot and thereafter driven by
//!   typed [`FabricEvent`](scout_fabric::FabricEvent) batches, each returning
//!   a [`ReportDelta`](crate::ReportDelta);
//! * for one-shot work it offers [`ScoutEngine::analyze`], the reference
//!   from-scratch pipeline every incremental path is differentially checked
//!   against.
//!
//! There is exactly one analysis pipeline in the codebase; everything here
//! and in [`crate::session`] routes through the same stages (equivalence
//! check → risk model → localization → correlation), and every report is
//! assembled by one stage function (`EngineShared::run_stages`), so session
//! reports are bit-identical to from-scratch analyses of the same fabric
//! state.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use scout_equiv::{
    EquivalenceChecker, NetworkCheckResult, NodeTableKind, Parallelism, SwitchCheckResult,
    DEFAULT_NODE_BUDGET,
};
use scout_fabric::{ChangeLog, Fabric, FaultLog};
use scout_policy::{ObjectId, PolicyUniverse, SwitchEpgPair, SwitchId};

use crate::correlation::{CorrelationEngine, CorrelationReport};
use crate::gauges::ServiceGauges;
use crate::localization::{scout_localize, Hypothesis, ScoutConfig};
use crate::risk::{
    augment_controller_model_tracked, augment_switch_model, controller_risk_model_sharded,
    switch_risk_model, RiskModel,
};
use crate::session::AnalysisSession;

use std::collections::BTreeSet;

/// How often a driver's differential oracle re-analyzes a monitored fabric
/// from scratch and compares against the incremental session report.
///
/// The cadence is part of the engine configuration so every driver (the soak
/// timeline, CI smoke jobs, ad-hoc experiments) shares one knob.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OracleCadence {
    /// Every epoch — the strongest (and default) setting, used by the
    /// enforced integration tests and the CI soak job.
    #[default]
    EveryEpoch,
    /// Every `n`-th epoch plus the final one — for long exploratory runs
    /// where a from-scratch analysis per epoch would dominate the wall time.
    /// A stride of 0 or 1 behaves like [`OracleCadence::EveryEpoch`].
    Stride(usize),
    /// Never — pure throughput mode for benchmarks.
    Never,
}

impl OracleCadence {
    /// Returns `true` if the oracle runs at `epoch` of a run of `total`
    /// epochs.
    pub fn checks(&self, epoch: usize, total: usize) -> bool {
        match *self {
            OracleCadence::EveryEpoch => true,
            OracleCadence::Stride(n) => n <= 1 || epoch.is_multiple_of(n) || epoch + 1 == total,
            OracleCadence::Never => false,
        }
    }
}

/// Number of lock-striped session-registry shards an engine uses by default.
///
/// Sessions register in the shard of their fabric id, so concurrent drivers
/// monitoring different fabrics contend on different locks. 16 stripes keep
/// contention negligible well past the thread counts the benches exercise
/// while costing a few hundred bytes per engine.
pub const DEFAULT_REGISTRY_SHARDS: usize = 16;

/// The plain-data configuration of a [`ScoutEngine`].
///
/// This is the one struct drivers embed (campaigns, timelines, bench bins all
/// carry an `EngineConfig`); the [`ScoutEngineBuilder`] adds the non-`Copy`
/// correlation library on top.
///
/// # Valid ranges
///
/// [`ScoutEngineBuilder::build`] rejects degenerate configurations with a
/// typed [`EngineBuildError`] instead of silently producing a crippled
/// engine:
///
/// * `node_budget` must be at least 1 (a budget of 0 would rebuild every BDD
///   worker after every check, silently discarding the caches the whole
///   incremental design depends on);
/// * `parallelism` must not be [`Parallelism::Fixed`]`(0)` — ask for
///   [`Parallelism::Sequential`] explicitly instead of a zero-thread pool;
/// * `registry_shards` must be at least 1.
///
/// Use [`EngineConfig::validate`] to check a configuration up front.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EngineConfig {
    /// Worker-thread policy of the equivalence checkers. Must not be
    /// `Fixed(0)`.
    pub parallelism: Parallelism,
    /// Configuration forwarded to the SCOUT localization algorithm.
    pub scout: ScoutConfig,
    /// Per-worker BDD node-table budget of the equivalence checkers (see
    /// [`EquivalenceChecker::set_node_budget`]). Must be at least 1.
    pub node_budget: usize,
    /// Node-table backend of the checkers' BDD managers (see
    /// [`EquivalenceChecker::set_node_table`]). Defaults to the arena table,
    /// and results are identical either way. The toggle stays only because
    /// the benchmark compares the baseline table against the arena.
    pub node_table: NodeTableKind,
    /// Differential-oracle cadence for drivers that cross-check incremental
    /// sessions against from-scratch analysis.
    pub oracle: OracleCadence,
    /// Number of lock stripes in the engine's session registry (sessions are
    /// sharded by fabric id). Must be at least 1; defaults to
    /// [`DEFAULT_REGISTRY_SHARDS`].
    pub registry_shards: usize,
}

impl Default for EngineConfig {
    fn default() -> Self {
        Self {
            parallelism: Parallelism::Auto,
            scout: ScoutConfig::default(),
            node_budget: DEFAULT_NODE_BUDGET,
            node_table: NodeTableKind::default(),
            oracle: OracleCadence::EveryEpoch,
            registry_shards: DEFAULT_REGISTRY_SHARDS,
        }
    }
}

impl EngineConfig {
    /// Checks the configuration against the documented valid ranges.
    ///
    /// # Example
    ///
    /// ```
    /// use scout_core::{EngineBuildError, EngineConfig};
    /// use scout_equiv::Parallelism;
    ///
    /// assert!(EngineConfig::default().validate().is_ok());
    ///
    /// let degenerate = EngineConfig {
    ///     parallelism: Parallelism::Fixed(0),
    ///     ..EngineConfig::default()
    /// };
    /// assert_eq!(
    ///     degenerate.validate(),
    ///     Err(EngineBuildError::ZeroWorkerThreads)
    /// );
    /// ```
    pub fn validate(&self) -> Result<(), EngineBuildError> {
        if self.node_budget == 0 {
            return Err(EngineBuildError::ZeroNodeBudget);
        }
        if self.parallelism == Parallelism::Fixed(0) {
            return Err(EngineBuildError::ZeroWorkerThreads);
        }
        if self.registry_shards == 0 {
            return Err(EngineBuildError::ZeroRegistryShards);
        }
        Ok(())
    }

    /// A fresh equivalence checker configured from this engine configuration
    /// (parallelism, node budget, node table).
    pub(crate) fn checker(&self) -> EquivalenceChecker {
        let mut checker = EquivalenceChecker::with_parallelism(self.parallelism);
        checker.set_node_budget(self.node_budget);
        checker.set_node_table(self.node_table);
        checker
    }
}

/// Why a [`ScoutEngineBuilder`] refused to build an engine.
///
/// Each variant names the degenerate setting; see the field docs on
/// [`EngineConfig`] for the valid ranges.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineBuildError {
    /// `node_budget` was 0, which would disable BDD cache persistence
    /// entirely (every worker rebuilt after every check).
    ZeroNodeBudget,
    /// `parallelism` was [`Parallelism::Fixed`]`(0)` — a zero-thread worker
    /// pool. Use [`Parallelism::Sequential`] for single-threaded checking.
    ZeroWorkerThreads,
    /// `registry_shards` was 0 — the session registry needs at least one
    /// stripe.
    ZeroRegistryShards,
}

impl std::fmt::Display for EngineBuildError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineBuildError::ZeroNodeBudget => {
                f.write_str("node_budget must be at least 1 (0 disables BDD cache persistence)")
            }
            EngineBuildError::ZeroWorkerThreads => f.write_str(
                "parallelism Fixed(0) is a zero-thread pool; use Parallelism::Sequential",
            ),
            EngineBuildError::ZeroRegistryShards => {
                f.write_str("registry_shards must be at least 1")
            }
        }
    }
}

impl std::error::Error for EngineBuildError {}

/// Builds a [`ScoutEngine`].
///
/// [`ScoutEngineBuilder::build`] validates the configuration and returns a
/// typed [`EngineBuildError`] for degenerate settings (see the valid ranges
/// on [`EngineConfig`]).
///
/// # Example
///
/// ```
/// use scout_core::{OracleCadence, ScoutEngine};
/// use scout_equiv::Parallelism;
///
/// let engine = ScoutEngine::builder()
///     .parallelism(Parallelism::Sequential)
///     .oracle(OracleCadence::Stride(10))
///     .build()
///     .expect("a sequential engine is a valid configuration");
/// assert_eq!(engine.config().oracle, OracleCadence::Stride(10));
///
/// // Degenerate settings are rejected, not silently accepted:
/// use scout_core::EngineBuildError;
/// let err = ScoutEngine::builder().node_budget(0).build().unwrap_err();
/// assert_eq!(err, EngineBuildError::ZeroNodeBudget);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ScoutEngineBuilder {
    config: EngineConfig,
    correlation: CorrelationEngine,
}

impl ScoutEngineBuilder {
    /// A builder with the default configuration and the standard fault
    /// signature library.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the worker-thread policy of the equivalence checkers.
    pub fn parallelism(mut self, parallelism: Parallelism) -> Self {
        self.config.parallelism = parallelism;
        self
    }

    /// Sets the SCOUT localization configuration.
    pub fn scout(mut self, scout: ScoutConfig) -> Self {
        self.config.scout = scout;
        self
    }

    /// Sets the per-worker BDD node-table budget (must be at least 1; see
    /// [`EngineConfig::node_budget`]).
    pub fn node_budget(mut self, budget: usize) -> Self {
        self.config.node_budget = budget;
        self
    }

    /// Sets the number of lock stripes of the session registry (must be at
    /// least 1; see [`EngineConfig::registry_shards`]).
    pub fn registry_shards(mut self, shards: usize) -> Self {
        self.config.registry_shards = shards;
        self
    }

    /// Sets the differential-oracle cadence.
    pub fn oracle(mut self, oracle: OracleCadence) -> Self {
        self.config.oracle = oracle;
        self
    }

    /// Replaces the whole plain-data configuration at once (the path drivers
    /// carrying an [`EngineConfig`] use).
    pub fn config(mut self, config: EngineConfig) -> Self {
        self.config = config;
        self
    }

    /// Sets a custom correlation engine (e.g. an extended signature library).
    pub fn correlation(mut self, correlation: CorrelationEngine) -> Self {
        self.correlation = correlation;
        self
    }

    /// Builds the engine, rejecting degenerate configurations with a typed
    /// error (see the valid ranges on [`EngineConfig`]).
    pub fn build(self) -> Result<ScoutEngine, EngineBuildError> {
        self.config.validate()?;
        let checker = self.config.checker();
        let shards: Vec<RegistryShard> = (0..self.config.registry_shards)
            .map(|_| Mutex::new(BTreeMap::new()))
            .collect();
        Ok(ScoutEngine {
            shared: Arc::new(EngineShared {
                config: self.config,
                correlation: self.correlation,
                checker,
                shards: shards.into_boxed_slice(),
                next_session: AtomicU64::new(1),
                gauges: ServiceGauges::new(),
            }),
        })
    }
}

/// A process-unique handle to an open [`AnalysisSession`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SessionId(u64);

impl std::fmt::Display for SessionId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "session-{}", self.0)
    }
}

/// Registry metadata of one open session.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SessionInfo {
    /// The session's id.
    pub id: SessionId,
    /// The [`Fabric::id`] of the monitored fabric.
    pub fabric_id: u64,
    /// The fabric's change epoch at the moment the session was opened.
    pub opened_at_epoch: u64,
}

/// One lock stripe of the sharded session registry.
type RegistryShard = Mutex<BTreeMap<SessionId, SessionInfo>>;

/// The engine state shared by the facade handle and every session it opened.
#[derive(Debug)]
pub(crate) struct EngineShared {
    pub(crate) config: EngineConfig,
    pub(crate) correlation: CorrelationEngine,
    /// The warm checker behind the one-shot [`ScoutEngine::analyze`] path
    /// (sessions own private checkers so they never contend with it).
    checker: EquivalenceChecker,
    /// The session registry, lock-striped by fabric id: concurrent drivers
    /// monitoring different fabrics register and deregister on different
    /// locks.
    shards: Box<[RegistryShard]>,
    next_session: AtomicU64,
    /// Admission counters shared by every serving thread fronting this
    /// engine (see [`ServiceGauges`]).
    gauges: ServiceGauges,
}

impl EngineShared {
    /// The registry stripe responsible for `fabric_id`.
    fn lock_shard(
        &self,
        fabric_id: u64,
    ) -> std::sync::MutexGuard<'_, BTreeMap<SessionId, SessionInfo>> {
        let index = (fabric_id % self.shards.len() as u64) as usize;
        self.shards[index].lock().unwrap_or_else(|e| e.into_inner())
    }

    pub(crate) fn register(&self, info: SessionInfo) {
        self.lock_shard(info.fabric_id).insert(info.id, info);
    }

    /// Removes a session from its fabric's stripe (recovering from a
    /// poisoned lock, like every other registry access).
    pub(crate) fn deregister(&self, fabric_id: u64, id: SessionId) {
        self.lock_shard(fabric_id).remove(&id);
    }

    /// The post-check stages of the SCOUT pipeline (paper §IV–V), in their
    /// one order: augment `model` with the failed edges of `check`, read the
    /// failure signature and the suspect set, localize, correlate, and hand
    /// the augmented model to `extra` (e.g. a baseline compared on identical
    /// evidence). `model` is rolled back to its pristine state before
    /// returning. Every [`ScoutReport`] in this crate is assembled here.
    pub(crate) fn run_stages<T>(
        &self,
        model: &mut RiskModel<SwitchEpgPair>,
        check: NetworkCheckResult,
        universe: &PolicyUniverse,
        change_log: &ChangeLog,
        fault_log: &FaultLog,
        extra: impl FnOnce(&RiskModel<SwitchEpgPair>) -> T,
    ) -> (ScoutReport, T) {
        let (observations, suspect_objects, hypothesis, diagnosis, extra) =
            with_failed_edges(model, &check, |model| {
                let observations = model.failure_signature();
                let suspect_objects = model.suspect_set(&observations);
                let hypothesis = scout_localize(model, change_log, self.config.scout);
                let diagnosis =
                    self.correlation
                        .correlate(&hypothesis, universe, change_log, fault_log);
                let extra = extra(model);
                (observations, suspect_objects, hypothesis, diagnosis, extra)
            });
        let report = ScoutReport {
            check,
            observations,
            suspect_objects,
            hypothesis,
            diagnosis,
        };
        (report, extra)
    }
}

/// Runs `f` against `model` augmented with the failed edges of `check`, then
/// rolls `model` back to its pristine state.
pub(crate) fn with_failed_edges<T>(
    model: &mut RiskModel<SwitchEpgPair>,
    check: &NetworkCheckResult,
    f: impl FnOnce(&RiskModel<SwitchEpgPair>) -> T,
) -> T {
    let marks = augment_controller_model_tracked(model, check.missing_rules());
    let out = f(model);
    model.undo_failures(marks);
    out
}

// The whole point of the sharded engine: one `Arc<ScoutEngine>` (or cheap
// clones of the handle) can be driven from many threads at once. Compile-time
// proof, so a non-Sync field can never sneak in unnoticed.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<ScoutEngine>();
    assert_send_sync::<EngineShared>();
    assert_send_sync::<crate::session::AnalysisSession>();
};

/// The long-lived SCOUT service facade.
///
/// Cloning the handle is cheap and shares the same engine (configuration,
/// session registry, warm one-shot checker); the handle is `Send + Sync`
/// (checked at compile time), so an `Arc<ScoutEngine>` — or plain clones of
/// the handle — can be driven from many threads at once. The session
/// registry is lock-striped by fabric id ([`EngineConfig::registry_shards`]),
/// so multi-tenant drivers that open, drop and restore sessions for
/// different fabrics concurrently contend on different locks; per-session
/// ingestion itself stays serialized (a session is `&mut self`-driven) and
/// bit-identical to the sequential path.
///
/// # Example
///
/// ```
/// use scout_core::ScoutEngine;
/// use scout_fabric::Fabric;
/// use scout_policy::sample;
///
/// let mut fabric = Fabric::new(sample::three_tier());
/// fabric.deploy();
/// // Drop the port-700 rules from S2 behind the controller's back.
/// fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
///
/// let engine = ScoutEngine::new();
/// let report = engine.analyze(&fabric);
/// assert!(!report.is_consistent());
/// assert!(report.hypothesis.len() <= report.suspect_objects.len());
/// ```
#[derive(Debug, Clone)]
pub struct ScoutEngine {
    pub(crate) shared: Arc<EngineShared>,
}

impl Default for ScoutEngine {
    fn default() -> Self {
        Self::new()
    }
}

impl ScoutEngine {
    /// An engine with the default configuration and the standard fault
    /// signature library.
    pub fn new() -> Self {
        Self::builder()
            .build()
            .expect("the default engine configuration is valid")
    }

    /// Starts building an engine.
    pub fn builder() -> ScoutEngineBuilder {
        ScoutEngineBuilder::new()
    }

    /// An engine with the given plain-data configuration and the standard
    /// signature library. Degenerate configurations are rejected (see
    /// [`EngineConfig::validate`]).
    pub fn from_config(config: EngineConfig) -> Result<Self, EngineBuildError> {
        Self::builder().config(config).build()
    }

    /// The engine's plain-data configuration.
    pub fn config(&self) -> &EngineConfig {
        &self.shared.config
    }

    /// The engine's correlation library.
    pub fn correlation(&self) -> &CorrelationEngine {
        &self.shared.correlation
    }

    /// Opens an [`AnalysisSession`] on a snapshot of `fabric`: the session
    /// runs the full pipeline once, registers itself, and is thereafter
    /// driven by [`AnalysisSession::ingest`] (event deltas) and/or
    /// [`AnalysisSession::analyze_clone`] (mutated clones of the snapshot).
    pub fn open_session(&self, fabric: &Fabric) -> AnalysisSession {
        let id = SessionId(self.shared.next_session.fetch_add(1, Ordering::Relaxed));
        let info = SessionInfo {
            id,
            fabric_id: fabric.id(),
            opened_at_epoch: fabric.epoch(),
        };
        self.shared.register(info);
        AnalysisSession::open(Arc::clone(&self.shared), id, fabric)
    }

    /// Restores an [`AnalysisSession`] from a checkpoint: rebuilds the
    /// session around the snapshot's fabric-view mirror and report, registers
    /// it under a fresh [`SessionId`], and replays the snapshot's tail of
    /// post-checkpoint [`EventBatch`](scout_fabric::EventBatch)es through the
    /// ordinary ingest path.
    ///
    /// The restored session is bit-identical to one that never stopped —
    /// same `full_report()`, same future [`ReportDelta`](crate::ReportDelta)s
    /// for the same batches. A tail batch that fails to ingest (e.g. a
    /// sequencing gap introduced by a buggy producer) aborts the restore with
    /// the session error; no session is left registered.
    pub fn restore(
        &self,
        snapshot: &crate::snapshot::Snapshot,
    ) -> Result<AnalysisSession, crate::session::SessionError> {
        let id = SessionId(self.shared.next_session.fetch_add(1, Ordering::Relaxed));
        let info = SessionInfo {
            id,
            fabric_id: snapshot.fabric_id(),
            opened_at_epoch: snapshot.open_epoch(),
        };
        self.shared.register(info);
        let mut session = AnalysisSession::resume(Arc::clone(&self.shared), id, snapshot);
        for batch in snapshot.tail() {
            session.ingest(batch.clone())?;
        }
        Ok(session)
    }

    /// Registry metadata of every currently-open session, in id order.
    ///
    /// Shards are visited one at a time (never holding two stripe locks), so
    /// a snapshot taken while sessions open and close concurrently is a
    /// consistent-per-shard, possibly slightly stale union — fine for the
    /// observability purpose it serves.
    pub fn sessions(&self) -> Vec<SessionInfo> {
        let mut infos: Vec<SessionInfo> = self
            .shared
            .shards
            .iter()
            .flat_map(|shard| {
                shard
                    .lock()
                    .unwrap_or_else(|e| e.into_inner())
                    .values()
                    .copied()
                    .collect::<Vec<_>>()
            })
            .collect();
        infos.sort_by_key(|info| info.id);
        infos
    }

    /// Registry metadata of the open sessions monitoring `fabric_id`, in id
    /// order — a single-stripe read.
    pub fn sessions_for_fabric(&self, fabric_id: u64) -> Vec<SessionInfo> {
        self.shared
            .lock_shard(fabric_id)
            .values()
            .copied()
            .filter(|info| info.fabric_id == fabric_id)
            .collect()
    }

    /// Number of currently-open sessions.
    pub fn session_count(&self) -> usize {
        self.shared
            .shards
            .iter()
            .map(|shard| shard.lock().unwrap_or_else(|e| e.into_inner()).len())
            .sum()
    }

    /// Number of lock stripes in the session registry.
    pub fn shard_count(&self) -> usize {
        self.shared.shards.len()
    }

    /// The admission counters shared by every handle cloned from this
    /// engine. The engine never updates them itself — a serving layer above
    /// it records admitted / queued / shed decisions here so operators get
    /// one coherent picture per engine regardless of how many server threads
    /// front it.
    pub fn gauges(&self) -> &ServiceGauges {
        &self.shared.gauges
    }

    /// One-shot, from-scratch analysis of a fabric — the reference pipeline
    /// every incremental session result is differentially checked against.
    ///
    /// The engine's internal checker stays warm across calls, so repeated
    /// one-shot analyses reuse BDD encodings; results never depend on cache
    /// state.
    pub fn analyze(&self, fabric: &Fabric) -> ScoutReport {
        let shared = &self.shared;
        let check = shared
            .checker
            .check_network(fabric.logical_rules(), &fabric.collect_tcam());
        let mut model = controller_risk_model_sharded(fabric.universe(), shared.config.parallelism);
        let (report, ()) = shared.run_stages(
            &mut model,
            check,
            fabric.universe(),
            fabric.change_log(),
            fabric.fault_log(),
            |_| (),
        );
        report
    }

    /// Runs the equivalence check and localization against the *switch risk
    /// model* of a single switch of `fabric`, as an admin debugging one device
    /// would.
    pub fn analyze_switch(
        &self,
        fabric: &Fabric,
        switch: SwitchId,
    ) -> (
        SwitchCheckResult,
        RiskModel<scout_policy::EpgPair>,
        Hypothesis,
    ) {
        let logical = fabric
            .logical_rules()
            .get(&switch)
            .map_or(&[][..], Vec::as_slice);
        let check = self
            .shared
            .checker
            .check_switch(switch, logical, &fabric.tcam_rules(switch));
        let mut model = switch_risk_model(fabric.universe(), switch);
        augment_switch_model(&mut model, switch, check.missing_rules.iter().copied());
        let hypothesis = scout_localize(&model, fabric.change_log(), self.shared.config.scout);
        (check, model, hypothesis)
    }
}

/// The complete output of one end-to-end analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct ScoutReport {
    /// The per-switch equivalence check results.
    pub check: NetworkCheckResult,
    /// The observations: `(switch, EPG pair)` triplets with missing rules.
    pub observations: BTreeSet<SwitchEpgPair>,
    /// Every object the failed elements depend on — what an admin would have
    /// to examine without fault localization.
    pub suspect_objects: BTreeSet<ObjectId>,
    /// The localization output: the suspected faulty objects.
    pub hypothesis: Hypothesis,
    /// Physical-level root causes per hypothesis object.
    pub diagnosis: CorrelationReport,
}

impl ScoutReport {
    /// `true` if the deployed state matches the policy everywhere.
    pub fn is_consistent(&self) -> bool {
        self.check.is_consistent()
    }

    /// Total number of missing rules across the network.
    pub fn missing_rule_count(&self) -> usize {
        self.check.missing_count()
    }

    /// The suspect-set reduction ratio γ = |hypothesis| / |suspect objects|
    /// (§VI of the paper). Returns 0 when there is nothing to suspect.
    pub fn gamma(&self) -> f64 {
        if self.suspect_objects.is_empty() {
            0.0
        } else {
            self.hypothesis.len() as f64 / self.suspect_objects.len() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_fabric::FaultKind;
    use scout_policy::{sample, EpgPair};

    #[test]
    fn consistent_network_produces_empty_report() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        let engine = ScoutEngine::new();
        let report = engine.analyze(&fabric);
        assert!(report.is_consistent());
        assert_eq!(report.missing_rule_count(), 0);
        assert!(report.observations.is_empty());
        assert!(report.hypothesis.is_empty());
        assert_eq!(report.gamma(), 0.0);
        assert!(report.diagnosis.diagnoses().is_empty());
    }

    #[test]
    fn filter_fault_is_localized_and_gamma_is_small() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        // Drop every rule derived from the port-700 filter, on every switch.
        for switch in [sample::S2, sample::S3] {
            fabric.remove_tcam_rules_where(switch, |r| r.matcher.ports.start == 700);
        }
        let engine = ScoutEngine::new();
        let report = engine.analyze(&fabric);
        assert!(!report.is_consistent());
        assert_eq!(report.missing_rule_count(), 4);
        // The App-DB pair on S2 and S3 is observed as failed.
        assert_eq!(report.observations.len(), 2);
        assert!(report.hypothesis.contains(ObjectId::Filter(sample::F_700)));
        // Hypothesis is much smaller than the suspect set.
        assert!(report.hypothesis.len() < report.suspect_objects.len());
        assert!(report.gamma() > 0.0 && report.gamma() < 1.0);
    }

    #[test]
    fn unresponsive_switch_story_matches_paper_use_case() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.disconnect_switch(sample::S2);
        fabric.deploy();
        let engine = ScoutEngine::new();
        let report = engine.analyze(&fabric);
        assert!(!report.is_consistent());
        // The switch itself is the most economical explanation.
        assert!(report.hypothesis.contains(ObjectId::Switch(sample::S2)));
        // And the correlation engine ties it to the unreachable-switch fault.
        let by_kind = report.diagnosis.causes_by_kind();
        assert!(by_kind.contains_key(&FaultKind::SwitchUnreachable));
    }

    #[test]
    fn analyze_switch_uses_the_switch_risk_model() {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        fabric.remove_tcam_rules_where(sample::S2, |r| {
            r.pair() == EpgPair::new(sample::WEB, sample::APP)
        });
        let engine = ScoutEngine::new();
        let (check, model, hypothesis) = engine.analyze_switch(&fabric, sample::S2);
        assert!(!check.equivalent);
        assert_eq!(model.element_count(), 2);
        // Per Figure 4(a): EPG:Web and Contract:Web-App explain the failure.
        assert!(hypothesis.contains(ObjectId::Epg(sample::WEB)));
        assert!(hypothesis.contains(ObjectId::Contract(sample::C_WEB_APP)));
        assert!(!hypothesis.contains(ObjectId::Vrf(sample::VRF)));
        assert!(!hypothesis.contains(ObjectId::Epg(sample::APP)));
    }

    #[test]
    fn report_accessors_are_consistent() {
        let mut fabric = Fabric::new(sample::three_tier_with_capacity(3));
        fabric.deploy();
        let engine = ScoutEngine::from_config(EngineConfig::default()).unwrap();
        let report = engine.analyze(&fabric);
        assert_eq!(report.missing_rule_count(), report.check.missing_count());
        assert_eq!(report.diagnosis.diagnoses().len(), report.hypothesis.len());
        assert!(report.gamma() <= 1.0);
    }

    #[test]
    fn registry_tracks_open_sessions() {
        let mut a = Fabric::new(sample::three_tier());
        a.deploy();
        let mut b = Fabric::new(sample::three_tier());
        b.deploy();

        let engine = ScoutEngine::new();
        assert_eq!(engine.session_count(), 0);
        let sa = engine.open_session(&a);
        let sb = engine.open_session(&b);
        assert_eq!(engine.session_count(), 2);
        let infos = engine.sessions();
        assert_eq!(infos.len(), 2);
        assert_eq!(infos[0].id, sa.id());
        assert_eq!(infos[0].fabric_id, a.id());
        assert_eq!(infos[1].id, sb.id());
        assert_ne!(sa.id(), sb.id());
        // A cloned handle sees the same registry; dropping a session
        // deregisters it.
        let handle = engine.clone();
        drop(sa);
        assert_eq!(handle.session_count(), 1);
        assert_eq!(handle.sessions()[0].fabric_id, b.id());
        drop(sb);
        assert_eq!(engine.session_count(), 0);
    }

    #[test]
    fn builder_settings_reach_the_engine() {
        let engine = ScoutEngine::builder()
            .parallelism(Parallelism::Fixed(2))
            .node_budget(1 << 10)
            .oracle(OracleCadence::Never)
            .registry_shards(4)
            .scout(ScoutConfig {
                recent_window: None,
            })
            .build()
            .unwrap();
        let config = engine.config();
        assert_eq!(config.parallelism, Parallelism::Fixed(2));
        assert_eq!(config.node_budget, 1 << 10);
        assert_eq!(config.oracle, OracleCadence::Never);
        assert_eq!(config.scout.recent_window, None);
        assert_eq!(config.registry_shards, 4);
        assert_eq!(engine.shard_count(), 4);
        // Round-trip through the plain-data config.
        let copied = ScoutEngine::from_config(*config).unwrap();
        assert_eq!(copied.config(), config);
    }

    #[test]
    fn degenerate_configs_are_rejected_with_typed_errors() {
        assert_eq!(
            ScoutEngine::builder().node_budget(0).build().unwrap_err(),
            EngineBuildError::ZeroNodeBudget
        );
        assert_eq!(
            ScoutEngine::builder()
                .parallelism(Parallelism::Fixed(0))
                .build()
                .unwrap_err(),
            EngineBuildError::ZeroWorkerThreads
        );
        assert_eq!(
            ScoutEngine::builder()
                .registry_shards(0)
                .build()
                .unwrap_err(),
            EngineBuildError::ZeroRegistryShards
        );
        // The errors render actionable messages.
        assert!(EngineBuildError::ZeroNodeBudget
            .to_string()
            .contains("node_budget"));
        assert!(EngineBuildError::ZeroWorkerThreads
            .to_string()
            .contains("Sequential"));
        assert!(EngineBuildError::ZeroRegistryShards
            .to_string()
            .contains("shard"));
        // Fixed(1) and Sequential remain valid single-threaded settings.
        assert!(ScoutEngine::builder()
            .parallelism(Parallelism::Fixed(1))
            .build()
            .is_ok());
        assert!(ScoutEngine::builder()
            .parallelism(Parallelism::Sequential)
            .build()
            .is_ok());
    }

    #[test]
    fn sessions_land_in_fabric_shards() {
        let mut a = Fabric::new(sample::three_tier());
        a.deploy();
        let b = a.clone();
        let engine = ScoutEngine::builder().registry_shards(2).build().unwrap();
        let sa = engine.open_session(&a);
        let sb = engine.open_session(&b);
        let sa2 = engine.open_session(&a);
        assert_eq!(engine.session_count(), 3);
        let for_a = engine.sessions_for_fabric(a.id());
        assert_eq!(for_a.len(), 2);
        assert!(for_a.iter().all(|info| info.fabric_id == a.id()));
        assert_eq!(engine.sessions_for_fabric(b.id()).len(), 1);
        assert_eq!(engine.sessions_for_fabric(0xDEAD_BEEF).len(), 0);
        // The global listing is id-ordered across shards.
        let ids: Vec<SessionId> = engine.sessions().iter().map(|i| i.id).collect();
        assert_eq!(ids, vec![sa.id(), sb.id(), sa2.id()]);
        drop(sa);
        drop(sb);
        drop(sa2);
        assert_eq!(engine.session_count(), 0);
    }

    #[test]
    fn oracle_cadence_schedules() {
        assert!(OracleCadence::EveryEpoch.checks(3, 10));
        assert!(OracleCadence::Stride(0).checks(3, 10));
        assert!(OracleCadence::Stride(1).checks(3, 10));
        assert!(OracleCadence::Stride(4).checks(8, 10));
        assert!(!OracleCadence::Stride(4).checks(3, 10));
        assert!(OracleCadence::Stride(4).checks(9, 10), "final epoch");
        assert!(!OracleCadence::Never.checks(0, 10));
    }
}
