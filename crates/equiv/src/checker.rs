//! The L–T equivalence checker.
//!
//! Implements the paper's "in-house equivalence checker" (§III-C): for each
//! switch it compares the ROBDD of the logical rules (L-type, what the
//! controller expects) with the ROBDD of the collected TCAM rules (T-type, what
//! the hardware actually holds). When the diagrams differ it reports the set of
//! *missing rules* — logical rules whose traffic is not (fully) allowed by the
//! deployed TCAM — which is the failure evidence the risk models are augmented
//! with.
//!
//! # Pipeline architecture
//!
//! The checker is built for production-scale fabrics (thousands of switches,
//! continuous re-checking after every change):
//!
//! * **Persistent caches** — the checker's BDD workers (one for sequential
//!   checking plus a pool for threaded checking) survive across calls, so a
//!   rule appearing on many switches (or across many checks) is encoded into
//!   the header space once per worker and every apply/implies result stays
//!   memoized.
//! * **Per-switch logical rules** — the checker takes the compiled logical
//!   rules already grouped by switch (`scout_fabric::compile`'s shape), so a
//!   switch's rules are one map lookup, never a scan of the network-wide list.
//! * **Parallel checking** — per-switch checks are embarrassingly parallel;
//!   large networks are split across worker threads, each with its own
//!   manager. Results are deterministic regardless of thread count.
//! * **Incremental re-checking** — [`EquivalenceChecker::recheck_dirty_with`]
//!   reuses a previous [`NetworkCheckResult`] and only revisits the switches
//!   whose TCAM (or logical rule set) changed, doing work proportional to the
//!   change instead of the network.

use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::sync::Mutex;
use std::thread;

use scout_bdd::{Bdd, BddManager, CacheStats, NodeTableKind};
use scout_policy::{Action, EpgPair, LogicalRule, SwitchId, TcamRule};

use crate::header::HeaderSpace;

/// The outcome of checking one switch.
#[derive(Debug, Clone, PartialEq)]
pub struct SwitchCheckResult {
    /// The switch that was checked.
    pub switch: SwitchId,
    /// `true` if the allowed spaces of L-type and T-type rules are identical.
    pub equivalent: bool,
    /// Logical rules whose traffic is not fully allowed by the deployed TCAM.
    pub missing_rules: Vec<LogicalRule>,
    /// Deployed rules that allow traffic the logical policy does not allow
    /// (e.g. corrupted entries now matching the wrong VRF or EPG).
    pub unexpected_rules: Vec<TcamRule>,
}

impl SwitchCheckResult {
    /// A result reporting `switch` as fully consistent with the policy.
    pub fn consistent(switch: SwitchId) -> Self {
        Self {
            switch,
            equivalent: true,
            missing_rules: Vec::new(),
            unexpected_rules: Vec::new(),
        }
    }

    /// The EPG pairs affected by the missing rules on this switch.
    pub fn affected_pairs(&self) -> BTreeSet<EpgPair> {
        self.missing_rules.iter().map(|r| r.pair()).collect()
    }
}

/// The outcome of checking the whole network.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct NetworkCheckResult {
    /// Per-switch results, keyed by switch id.
    pub per_switch: BTreeMap<SwitchId, SwitchCheckResult>,
}

impl NetworkCheckResult {
    /// An empty result (no switches checked), identical to `Default`.
    pub fn new() -> Self {
        Self::default()
    }

    /// `true` if every switch is consistent with the policy.
    pub fn is_consistent(&self) -> bool {
        self.per_switch.values().all(|r| r.equivalent)
    }

    /// All missing rules across switches, in switch order, without
    /// materializing an intermediate `Vec`.
    pub fn missing_rules(&self) -> impl Iterator<Item = LogicalRule> + '_ {
        self.per_switch
            .values()
            .flat_map(|r| r.missing_rules.iter().copied())
    }

    /// Total number of missing rules.
    pub fn missing_count(&self) -> usize {
        self.per_switch
            .values()
            .map(|r| r.missing_rules.len())
            .sum()
    }

    /// Switches that are not consistent with the policy.
    pub fn inconsistent_switches(&self) -> Vec<SwitchId> {
        self.per_switch
            .iter()
            .filter(|(_, r)| !r.equivalent)
            .map(|(&s, _)| s)
            .collect()
    }

    /// All missing rules, materialized as an ordered set — the form delta
    /// consumers (e.g. a session computing a report delta between two checks)
    /// need for set difference.
    pub fn missing_rule_set(&self) -> BTreeSet<LogicalRule> {
        self.missing_rules().collect()
    }
}

/// Default bound on a worker's BDD node table; when exceeded the manager is
/// rebuilt, keeping the memory of a long-lived checker bounded. Override per
/// checker with [`EquivalenceChecker::set_node_budget`].
pub const DEFAULT_NODE_BUDGET: usize = 1 << 20;

/// Networks below this size are checked sequentially even in auto mode; the
/// per-thread manager warm-up would cost more than it saves.
const AUTO_PARALLEL_THRESHOLD: usize = 8;

/// Derives a manager operation-cache limit from a node-table budget: a
/// quarter of the budget, so the lossy apply/not/implies caches can never
/// outweigh the node table they accelerate (see
/// [`BddManager::set_cache_limit`]).
fn cache_limit_for(node_budget: usize) -> usize {
    (node_budget / 4).max(1)
}

/// A BDD manager plus the memoized per-rule encodings built on top of it.
///
/// This is the unit of state the checker keeps per thread: the manager's
/// hash-consed node table and operation caches persist across switches and
/// across calls, and `rule_cache` maps every [`TcamRule`] ever encoded to its
/// diagram so shared rules (the common case — the compiler renders the same
/// contract onto many switches) are encoded once.
#[derive(Debug, Clone)]
struct CheckWorker {
    manager: BddManager,
    rule_cache: HashMap<TcamRule, Bdd>,
    /// Node-table backend the manager was (and any rebuild will be) created
    /// on.
    kind: NodeTableKind,
}

impl CheckWorker {
    fn new(header_space: &HeaderSpace, kind: NodeTableKind, node_budget: usize) -> Self {
        let mut manager = header_space.manager_with(kind);
        manager.set_cache_limit(cache_limit_for(node_budget));
        Self {
            manager,
            rule_cache: HashMap::new(),
            kind,
        }
    }

    /// Allowed space of an ordered rule set under first-match semantics plus
    /// each rule's own match diagram (input order), built from cached
    /// per-rule encodings in one pass. The fold itself lives in
    /// [`crate::header::allowed_space_traced_with`]; only the memoizing
    /// encoder is supplied here.
    fn allowed_space_traced(
        &mut self,
        header_space: &HeaderSpace,
        rules: &[TcamRule],
    ) -> (Bdd, Vec<Bdd>) {
        let Self {
            manager,
            rule_cache,
            ..
        } = self;
        crate::header::allowed_space_traced_with(manager, rules, |m, rule| {
            *rule_cache
                .entry(*rule)
                .or_insert_with(|| header_space.rule_match(m, rule))
        })
    }

    /// Checks one switch given its (pre-filtered) logical rules.
    ///
    /// Both rule sets are encoded in one batched pass each; the
    /// missing/unexpected classification below reuses the returned per-rule
    /// diagrams instead of going back to the manager (or even the rule cache)
    /// once per rule.
    fn check_switch(
        &mut self,
        header_space: &HeaderSpace,
        switch: SwitchId,
        logical: &[LogicalRule],
        tcam: &[TcamRule],
    ) -> SwitchCheckResult {
        let logical_rules: Vec<TcamRule> = logical.iter().map(|l| l.rule).collect();
        let (l_allowed, l_matches) = self.allowed_space_traced(header_space, &logical_rules);
        let (t_allowed, t_matches) = self.allowed_space_traced(header_space, tcam);

        let equivalent = self.manager.equivalent(l_allowed, t_allowed);
        let mut missing_rules = Vec::new();
        let mut unexpected_rules = Vec::new();

        if !equivalent {
            // A logical rule is missing if part of its traffic is not allowed
            // by the deployed TCAM.
            for (l, &space) in logical.iter().zip(&l_matches) {
                if !self.manager.implies(space, t_allowed) {
                    missing_rules.push(*l);
                }
            }
            // A deployed rule is unexpected if it allows traffic the policy
            // does not allow.
            for (t, &space) in tcam.iter().zip(&t_matches) {
                if t.action != Action::Allow {
                    continue;
                }
                let effectively_allowed = self.manager.and(space, t_allowed);
                if !self.manager.implies(effectively_allowed, l_allowed) {
                    unexpected_rules.push(*t);
                }
            }
        }

        SwitchCheckResult {
            switch,
            equivalent,
            missing_rules,
            unexpected_rules,
        }
    }

    /// Rebuilds the manager (same backend, budget-derived cache limit) if the
    /// node table outgrew `budget`.
    fn maybe_shrink(&mut self, header_space: &HeaderSpace, budget: usize) {
        if self.manager.node_count() > budget {
            let stats = self.manager.cache_stats();
            self.manager = header_space.manager_with(self.kind);
            self.manager.set_cache_limit(cache_limit_for(budget));
            self.manager.absorb_cache_stats(stats);
            self.rule_cache.clear();
        }
    }
}

/// How many worker threads [`EquivalenceChecker::check_network`] uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Parallelism {
    /// Decide from the network size and the machine's available parallelism.
    #[default]
    Auto,
    /// Always check sequentially (single thread, maximal cache reuse).
    Sequential,
    /// Use exactly this many worker threads (clamped to the switch count).
    Fixed(usize),
}

impl Parallelism {
    /// Resolves the policy to a concrete worker count for `work_items`
    /// independent tasks.
    ///
    /// `Auto` consults the machine's available parallelism once the work is
    /// large enough to amortize per-thread state; the result is always in
    /// `1..=max(work_items, 1)`. Other sharded stages of the pipeline (e.g.
    /// risk-model re-derivation in `scout-core`) use the same resolution so
    /// one configured policy governs every parallel fan-out.
    pub fn worker_count(self, work_items: usize) -> usize {
        let requested = match self {
            Parallelism::Sequential => 1,
            Parallelism::Fixed(n) => n.max(1),
            Parallelism::Auto => {
                if work_items < AUTO_PARALLEL_THRESHOLD {
                    1
                } else {
                    thread::available_parallelism().map_or(1, |n| n.get())
                }
            }
        };
        requested.min(work_items.max(1))
    }
}

/// The BDD-based L–T equivalence checker.
///
/// The checker keeps a persistent, internally synchronized BDD worker so that
/// repeated calls — the normal mode of operation for a monitor that re-checks
/// the fabric after every change — reuse rule encodings and operation caches
/// instead of rebuilding the world.
///
/// # Example
///
/// ```
/// use scout_equiv::EquivalenceChecker;
/// use scout_fabric::Fabric;
/// use scout_policy::sample;
///
/// let mut fabric = Fabric::new(sample::three_tier());
/// fabric.deploy();
/// let checker = EquivalenceChecker::new();
/// let result = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
/// assert!(result.is_consistent());
/// ```
#[derive(Debug)]
pub struct EquivalenceChecker {
    header_space: HeaderSpace,
    parallelism: Parallelism,
    /// Node-table backend every worker manager is created on.
    node_table: NodeTableKind,
    /// Per-worker BDD node-table budget; a worker whose table outgrows it is
    /// rebuilt (see [`DEFAULT_NODE_BUDGET`]).
    node_budget: usize,
    /// The sequential worker, warm across calls.
    worker: Mutex<CheckWorker>,
    /// Parallel workers, returned to this pool after every threaded check so
    /// their managers and rule caches stay warm across calls too.
    pool: Mutex<Vec<CheckWorker>>,
}

impl Default for EquivalenceChecker {
    fn default() -> Self {
        Self::new()
    }
}

impl Clone for EquivalenceChecker {
    /// Clones the configuration; the clone starts with fresh (empty) caches.
    fn clone(&self) -> Self {
        Self {
            header_space: self.header_space.clone(),
            parallelism: self.parallelism,
            node_table: self.node_table,
            node_budget: self.node_budget,
            worker: Mutex::new(CheckWorker::new(
                &self.header_space,
                self.node_table,
                self.node_budget,
            )),
            pool: Mutex::new(Vec::new()),
        }
    }
}

impl EquivalenceChecker {
    /// Creates a checker over the standard header space with automatic
    /// parallelism.
    pub fn new() -> Self {
        Self::with_parallelism(Parallelism::Auto)
    }

    /// Creates a checker with an explicit parallelism policy.
    pub fn with_parallelism(parallelism: Parallelism) -> Self {
        let header_space = HeaderSpace::new();
        let node_table = NodeTableKind::default();
        let worker = Mutex::new(CheckWorker::new(
            &header_space,
            node_table,
            DEFAULT_NODE_BUDGET,
        ));
        Self {
            header_space,
            parallelism,
            node_table,
            node_budget: DEFAULT_NODE_BUDGET,
            worker,
            pool: Mutex::new(Vec::new()),
        }
    }

    /// Changes the parallelism policy.
    pub fn set_parallelism(&mut self, parallelism: Parallelism) {
        self.parallelism = parallelism;
    }

    /// Switches every worker manager to the given node-table backend.
    ///
    /// Results never depend on the backend (the differential tests in
    /// `scout-bdd` pin the two to bit-identical handles); the toggle exists
    /// so benchmarks can compare the arena table against the baseline
    /// hash-map one. Existing workers are discarded, so the next check
    /// starts cold.
    pub fn set_node_table(&mut self, kind: NodeTableKind) {
        if self.node_table == kind {
            return;
        }
        self.node_table = kind;
        *self.lock_worker() = CheckWorker::new(&self.header_space, kind, self.node_budget);
        self.lock_pool().clear();
    }

    /// The node-table backend worker managers run on.
    pub fn node_table(&self) -> NodeTableKind {
        self.node_table
    }

    /// Aggregated BDD operation-cache counters (hits, misses, evictions)
    /// across the sequential worker and the parallel pool — cumulative over
    /// the checker's lifetime, surviving budget-triggered worker rebuilds.
    pub fn cache_stats(&self) -> CacheStats {
        let mut total = self.lock_worker().manager.cache_stats();
        for worker in self.lock_pool().iter() {
            let stats = worker.manager.cache_stats();
            total.hits += stats.hits;
            total.misses += stats.misses;
            total.evictions += stats.evictions;
        }
        total
    }

    /// Bounds each worker's BDD node table: a worker whose hash-consed table
    /// outgrows the budget after a check is rebuilt from scratch. Lower
    /// budgets cap the memory of a long-lived checker at the price of colder
    /// caches; results never change. A budget of 0 effectively disables cache
    /// persistence.
    pub fn set_node_budget(&mut self, budget: usize) {
        self.node_budget = budget;
        // Keep the managers' lossy operation caches tied to the new budget
        // immediately, not only after the next worker rebuild.
        let limit = cache_limit_for(budget);
        self.lock_worker().manager.set_cache_limit(limit);
        for worker in self.lock_pool().iter_mut() {
            worker.manager.set_cache_limit(limit);
        }
    }

    /// The configured per-worker BDD node-table budget.
    pub fn node_budget(&self) -> usize {
        self.node_budget
    }

    /// Checks one switch: compares the logical rules destined for `switch`
    /// against the TCAM rules collected from it.
    ///
    /// `logical` must be the switch's own rules (its entry in the per-switch
    /// map, e.g. `fabric.logical_rules()[&switch]`); every rule's `switch`
    /// must equal `switch`. When checking many switches prefer
    /// [`EquivalenceChecker::check_network`].
    pub fn check_switch(
        &self,
        switch: SwitchId,
        logical: &[LogicalRule],
        tcam: &[TcamRule],
    ) -> SwitchCheckResult {
        debug_assert!(
            logical.iter().all(|l| l.switch == switch),
            "check_switch({switch}) was given another switch's logical rules"
        );
        let mut worker = self.lock_worker();
        let result = worker.check_switch(&self.header_space, switch, logical, tcam);
        worker.maybe_shrink(&self.header_space, self.node_budget);
        result
    }

    /// Checks every switch appearing either in the logical rules (grouped by
    /// switch, as `scout_fabric::compile` returns them) or in the collected
    /// TCAM snapshot.
    pub fn check_network(
        &self,
        logical: &BTreeMap<SwitchId, Vec<LogicalRule>>,
        tcam: &BTreeMap<SwitchId, Vec<TcamRule>>,
    ) -> NetworkCheckResult {
        let mut switches: BTreeSet<SwitchId> = tcam.keys().copied().collect();
        switches.extend(logical.keys().copied());
        let per_switch = self.check_switches(logical, tcam, switches.into_iter().collect());
        NetworkCheckResult { per_switch }
    }

    /// Incrementally re-checks the network after a change, fetching TCAM
    /// snapshots lazily, only for the switches that are actually re-checked.
    ///
    /// Starts from `previous` (a result produced by
    /// [`EquivalenceChecker::check_network`] or an earlier recheck against
    /// the *same evolving network*) and re-checks only:
    ///
    /// * the switches listed in `dirty`, and
    /// * switches present now but absent from `previous` (newly added).
    ///
    /// `current_switches` is the set of switches present in the network now
    /// (switches with logical rules are added automatically); switches that
    /// disappeared are dropped. `tcam_of` is consulted once per re-checked
    /// switch, so a no-change cycle copies no TCAM rules at all. Provided
    /// `dirty` covers every switch whose TCAM contents *or* logical rule set
    /// changed since `previous` was computed (see
    /// `scout_fabric::Fabric::dirty_switches_since`), the result is identical
    /// to a full [`EquivalenceChecker::check_network`] — at a cost
    /// proportional to the change, not the network.
    pub fn recheck_dirty_with<F>(
        &self,
        previous: &NetworkCheckResult,
        logical: &BTreeMap<SwitchId, Vec<LogicalRule>>,
        current_switches: &BTreeSet<SwitchId>,
        dirty: &BTreeSet<SwitchId>,
        mut tcam_of: F,
    ) -> NetworkCheckResult
    where
        F: FnMut(SwitchId) -> Vec<TcamRule>,
    {
        let mut current = current_switches.clone();
        current.extend(logical.keys().copied());

        let to_check: Vec<SwitchId> = current
            .iter()
            .copied()
            .filter(|s| dirty.contains(s) || !previous.per_switch.contains_key(s))
            .collect();
        let tcam: BTreeMap<SwitchId, Vec<TcamRule>> =
            to_check.iter().map(|&s| (s, tcam_of(s))).collect();

        // Carry over every clean, still-present switch.
        let mut per_switch: BTreeMap<SwitchId, SwitchCheckResult> = previous
            .per_switch
            .iter()
            .filter(|(s, _)| current.contains(s) && !dirty.contains(s))
            .map(|(&s, r)| (s, r.clone()))
            .collect();

        per_switch.append(&mut self.check_switches(logical, &tcam, to_check));
        NetworkCheckResult { per_switch }
    }

    /// Checks the given switches, sequentially or in parallel according to the
    /// configured policy. Results are deterministic either way.
    fn check_switches(
        &self,
        logical: &BTreeMap<SwitchId, Vec<LogicalRule>>,
        tcam: &BTreeMap<SwitchId, Vec<TcamRule>>,
        switches: Vec<SwitchId>,
    ) -> BTreeMap<SwitchId, SwitchCheckResult> {
        static EMPTY_LOGICAL: Vec<LogicalRule> = Vec::new();
        static EMPTY_TCAM: Vec<TcamRule> = Vec::new();

        let threads = self.effective_threads(switches.len());
        if threads <= 1 {
            let mut worker = self.lock_worker();
            let result = switches
                .into_iter()
                .map(|switch| {
                    let expected = logical.get(&switch).unwrap_or(&EMPTY_LOGICAL);
                    let rules = tcam.get(&switch).unwrap_or(&EMPTY_TCAM);
                    (
                        switch,
                        worker.check_switch(&self.header_space, switch, expected, rules),
                    )
                })
                .collect();
            worker.maybe_shrink(&self.header_space, self.node_budget);
            return result;
        }

        // Split the switches into contiguous chunks, one worker (and one
        // private BDD manager) per thread. Workers are checked out of the
        // persistent pool and returned afterwards, so threaded checks stay
        // warm across calls just like the sequential path. The per-switch
        // results are independent, so parallel and sequential checking agree
        // exactly.
        let chunk_size = switches.len().div_ceil(threads);
        let chunk_count = switches.len().div_ceil(chunk_size);
        let header_space = &self.header_space;
        let node_budget = self.node_budget;
        let mut workers = {
            let mut pool = self.lock_pool();
            while pool.len() < chunk_count {
                pool.push(CheckWorker::new(header_space, self.node_table, node_budget));
            }
            let keep = pool.len() - chunk_count;
            pool.split_off(keep)
        };
        let mut per_switch = BTreeMap::new();
        thread::scope(|scope| {
            let handles: Vec<_> = switches
                .chunks(chunk_size)
                .zip(workers.drain(..))
                .map(|(chunk, mut worker)| {
                    scope.spawn(move || {
                        let results = chunk
                            .iter()
                            .map(|&switch| {
                                let expected = logical.get(&switch).unwrap_or(&EMPTY_LOGICAL);
                                let rules = tcam.get(&switch).unwrap_or(&EMPTY_TCAM);
                                (
                                    switch,
                                    worker.check_switch(header_space, switch, expected, rules),
                                )
                            })
                            .collect::<Vec<_>>();
                        worker.maybe_shrink(header_space, node_budget);
                        (worker, results)
                    })
                })
                .collect();
            let mut pool = self.lock_pool();
            for handle in handles {
                let (worker, results) = handle.join().expect("checker thread panicked");
                pool.push(worker);
                per_switch.extend(results);
            }
        });
        per_switch
    }

    fn effective_threads(&self, switch_count: usize) -> usize {
        self.parallelism.worker_count(switch_count)
    }

    fn lock_worker(&self) -> std::sync::MutexGuard<'_, CheckWorker> {
        self.worker.lock().unwrap_or_else(|e| e.into_inner())
    }

    fn lock_pool(&self) -> std::sync::MutexGuard<'_, Vec<CheckWorker>> {
        self.pool.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_fabric::{CorruptionKind, Fabric};
    use scout_policy::{sample, Action};

    fn deployed() -> Fabric {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        fabric
    }

    #[test]
    fn healthy_deployment_is_consistent() {
        let fabric = deployed();
        let checker = EquivalenceChecker::new();
        let result = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
        assert!(result.is_consistent());
        assert_eq!(result.missing_count(), 0);
        assert!(result.inconsistent_switches().is_empty());
    }

    #[test]
    fn missing_rule_is_detected_on_the_right_switch() {
        let mut fabric = deployed();
        // Silently drop the port-700 rules from S2 (Figure 2 rules 5 and 6).
        let removed = fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
        assert_eq!(removed.len(), 2);
        let checker = EquivalenceChecker::new();
        let result = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
        assert!(!result.is_consistent());
        assert_eq!(result.inconsistent_switches(), vec![sample::S2]);
        let s2 = &result.per_switch[&sample::S2];
        assert_eq!(s2.missing_rules.len(), 2);
        assert!(s2
            .missing_rules
            .iter()
            .all(|r| r.provenance.filter == sample::F_700));
        assert_eq!(
            s2.affected_pairs(),
            BTreeSet::from([scout_policy::EpgPair::new(sample::APP, sample::DB)])
        );
        // Other switches are untouched.
        assert!(result.per_switch[&sample::S1].equivalent);
        assert!(result.per_switch[&sample::S3].equivalent);
    }

    #[test]
    fn empty_tcam_reports_every_logical_rule_missing() {
        let mut fabric = deployed();
        let total = fabric.tcam_rules(sample::S2).len();
        fabric.remove_tcam_rules_where(sample::S2, |_| true);
        let checker = EquivalenceChecker::new();
        let result = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
        assert_eq!(result.per_switch[&sample::S2].missing_rules.len(), total);
    }

    #[test]
    fn corruption_produces_missing_and_unexpected_rules() {
        let mut fabric = deployed();
        // Corrupt the VRF field of one S2 entry: the original traffic is no
        // longer allowed (missing) and a foreign VRF is now allowed
        // (unexpected).
        fabric
            .corrupt_tcam(sample::S2, 0, CorruptionKind::VrfBit)
            .unwrap();
        let checker = EquivalenceChecker::new();
        let result = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
        let s2 = &result.per_switch[&sample::S2];
        assert!(!s2.equivalent);
        assert_eq!(s2.missing_rules.len(), 1);
        assert_eq!(s2.unexpected_rules.len(), 1);
        assert_ne!(s2.unexpected_rules[0].matcher.vrf, sample::VRF);
    }

    #[test]
    fn action_flip_makes_rule_missing_but_not_unexpected() {
        let mut fabric = deployed();
        fabric
            .corrupt_tcam(sample::S1, 0, CorruptionKind::ActionFlip)
            .unwrap();
        let checker = EquivalenceChecker::new();
        let tcam = fabric.collect_tcam();
        assert!(tcam[&sample::S1].iter().any(|r| r.action == Action::Deny));
        let result = checker.check_network(fabric.logical_rules(), &tcam);
        let s1 = &result.per_switch[&sample::S1];
        assert!(!s1.equivalent);
        assert_eq!(s1.missing_rules.len(), 1);
        assert!(s1.unexpected_rules.is_empty());
    }

    #[test]
    fn extra_tcam_rule_is_unexpected_but_nothing_missing() {
        let fabric = deployed();
        // Hand-install a rule on S1 that the policy does not call for.
        let logical = fabric.logical_rules()[&sample::S3][0];
        let foreign = logical.rule;
        let mut tcam = fabric.collect_tcam();
        tcam.get_mut(&sample::S1).unwrap().push(foreign);
        let checker = EquivalenceChecker::new();
        let result = checker.check_network(fabric.logical_rules(), &tcam);
        let s1 = &result.per_switch[&sample::S1];
        assert!(!s1.equivalent);
        assert!(s1.missing_rules.is_empty());
        assert_eq!(s1.unexpected_rules, vec![foreign]);
    }

    #[test]
    fn switch_known_only_from_tcam_is_checked() {
        let fabric = deployed();
        let checker = EquivalenceChecker::new();
        let mut tcam = fabric.collect_tcam();
        // A stray switch with a leftover rule and no logical rules.
        let stray = scout_policy::SwitchId::new(99);
        tcam.insert(stray, vec![fabric.logical_rules()[&sample::S1][0].rule]);
        let result = checker.check_network(fabric.logical_rules(), &tcam);
        assert!(result.per_switch.contains_key(&stray));
        assert!(!result.per_switch[&stray].equivalent);
    }

    #[test]
    fn repeated_checks_reuse_the_persistent_cache() {
        let fabric = deployed();
        let checker = EquivalenceChecker::new();
        let tcam = fabric.collect_tcam();
        let first = checker.check_network(fabric.logical_rules(), &tcam);
        let cached_nodes = {
            let worker = checker.lock_worker();
            assert!(!worker.rule_cache.is_empty(), "rule cache must be warm");
            worker.manager.node_count()
        };
        let second = checker.check_network(fabric.logical_rules(), &tcam);
        assert_eq!(first, second);
        let after = checker.lock_worker().manager.node_count();
        assert_eq!(cached_nodes, after, "second check must not allocate nodes");
    }

    #[test]
    fn parallel_pool_stays_warm_across_calls() {
        let fabric = deployed();
        let checker = EquivalenceChecker::with_parallelism(Parallelism::Fixed(2));
        let tcam = fabric.collect_tcam();
        let first = checker.check_network(fabric.logical_rules(), &tcam);
        let warm_nodes: Vec<usize> = {
            let pool = checker.lock_pool();
            assert_eq!(pool.len(), 2, "both workers must return to the pool");
            pool.iter().map(|w| w.manager.node_count()).collect()
        };
        let second = checker.check_network(fabric.logical_rules(), &tcam);
        assert_eq!(first, second);
        let after: Vec<usize> = checker
            .lock_pool()
            .iter()
            .map(|w| w.manager.node_count())
            .collect();
        assert_eq!(warm_nodes, after, "second parallel check must hit caches");
    }

    #[test]
    fn recheck_dirty_with_fetches_only_dirty_switches() {
        let mut fabric = deployed();
        let checker = EquivalenceChecker::new();
        let baseline = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());

        fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
        let current: BTreeSet<_> = fabric.collect_tcam().keys().copied().collect();
        let mut fetched = Vec::new();
        let incremental = checker.recheck_dirty_with(
            &baseline,
            fabric.logical_rules(),
            &current,
            &BTreeSet::from([sample::S2]),
            |s| {
                fetched.push(s);
                fabric.tcam_rules(s)
            },
        );
        assert_eq!(fetched, vec![sample::S2], "only the dirty switch is read");
        let full = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
        assert_eq!(incremental, full);
    }

    #[test]
    fn parallel_and_sequential_results_agree() {
        let mut fabric = deployed();
        fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
        fabric
            .corrupt_tcam(sample::S3, 0, CorruptionKind::SrcEpgBit)
            .unwrap();
        let logical = fabric.logical_rules();
        let tcam = fabric.collect_tcam();

        let sequential = EquivalenceChecker::with_parallelism(Parallelism::Sequential)
            .check_network(logical, &tcam);
        for threads in [2usize, 3, 8] {
            let parallel = EquivalenceChecker::with_parallelism(Parallelism::Fixed(threads))
                .check_network(logical, &tcam);
            assert_eq!(sequential, parallel, "threads={threads}");
        }
    }

    #[test]
    fn recheck_dirty_matches_full_check() {
        let mut fabric = deployed();
        let checker = EquivalenceChecker::new();
        let baseline = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());

        fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
        let tcam = fabric.collect_tcam();
        let full = checker.check_network(fabric.logical_rules(), &tcam);
        let incremental = checker.recheck_dirty_with(
            &baseline,
            fabric.logical_rules(),
            &tcam.keys().copied().collect(),
            &BTreeSet::from([sample::S2]),
            |s| tcam.get(&s).cloned().unwrap_or_default(),
        );
        assert_eq!(full, incremental);
        assert!(!incremental.is_consistent());
    }

    #[test]
    fn recheck_dirty_handles_added_and_removed_switches() {
        let fabric = deployed();
        let checker = EquivalenceChecker::new();
        let baseline = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());

        // S1 disappears from the snapshot; a stray switch appears.
        let mut tcam = fabric.collect_tcam();
        tcam.remove(&sample::S1);
        let stray = scout_policy::SwitchId::new(77);
        tcam.insert(stray, vec![fabric.logical_rules()[&sample::S1][0].rule]);
        // Restrict the logical rules to the remaining switches so S1 truly
        // vanishes from the network.
        let mut logical = fabric.logical_rules().clone();
        logical.remove(&sample::S1);

        let full = checker.check_network(&logical, &tcam);
        let incremental = checker.recheck_dirty_with(
            &baseline,
            &logical,
            &tcam.keys().copied().collect(),
            &BTreeSet::new(),
            |s| tcam.get(&s).cloned().unwrap_or_default(),
        );
        assert_eq!(full, incremental);
        assert!(!incremental.per_switch.contains_key(&sample::S1));
        assert!(incremental.per_switch.contains_key(&stray));
    }

    #[test]
    fn recheck_with_empty_dirty_set_is_a_cheap_clone() {
        let fabric = deployed();
        let checker = EquivalenceChecker::new();
        let tcam = fabric.collect_tcam();
        let baseline = checker.check_network(fabric.logical_rules(), &tcam);
        let again = checker.recheck_dirty_with(
            &baseline,
            fabric.logical_rules(),
            &tcam.keys().copied().collect(),
            &BTreeSet::new(),
            |s| tcam.get(&s).cloned().unwrap_or_default(),
        );
        assert_eq!(baseline, again);
    }

    #[test]
    fn arena_and_baseline_backends_agree() {
        let mut fabric = deployed();
        fabric.remove_tcam_rules_where(sample::S2, |r| r.matcher.ports.start == 700);
        fabric
            .corrupt_tcam(sample::S3, 0, CorruptionKind::SrcEpgBit)
            .unwrap();
        let logical = fabric.logical_rules();
        let tcam = fabric.collect_tcam();

        let arena = EquivalenceChecker::new();
        assert_eq!(arena.node_table(), NodeTableKind::Arena);
        let mut baseline = EquivalenceChecker::new();
        baseline.set_node_table(NodeTableKind::Baseline);
        assert_eq!(baseline.node_table(), NodeTableKind::Baseline);

        assert_eq!(
            arena.check_network(logical, &tcam),
            baseline.check_network(logical, &tcam)
        );
    }

    #[test]
    fn cache_stats_accumulate_across_checks() {
        let fabric = deployed();
        let checker = EquivalenceChecker::new();
        let tcam = fabric.collect_tcam();
        checker.check_network(fabric.logical_rules(), &tcam);
        let first = checker.cache_stats();
        assert!(first.misses > 0, "a cold check must miss");
        checker.check_network(fabric.logical_rules(), &tcam);
        let second = checker.cache_stats();
        assert!(second.hits > first.hits, "a repeat check must hit");
        assert!(second.misses >= first.misses);
    }

    #[test]
    fn worker_count_resolves_the_policy() {
        assert_eq!(Parallelism::Sequential.worker_count(100), 1);
        assert_eq!(Parallelism::Fixed(4).worker_count(100), 4);
        assert_eq!(Parallelism::Fixed(4).worker_count(2), 2);
        assert_eq!(Parallelism::Fixed(0).worker_count(5), 1);
        assert_eq!(Parallelism::Fixed(3).worker_count(0), 1);
        assert_eq!(Parallelism::Auto.worker_count(1), 1);
        assert!(Parallelism::Auto.worker_count(100) >= 1);
    }

    #[test]
    fn consistent_constructor_matches_a_real_clean_check() {
        let fabric = deployed();
        let checker = EquivalenceChecker::new();
        let result = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
        for (&switch, r) in &result.per_switch {
            assert_eq!(r, &SwitchCheckResult::consistent(switch));
        }
    }
}
