//! Object-level fault injection with ground truth.
//!
//! The paper's evaluation (§VI-A) injects two kinds of faults that make the
//! deployed TCAM state inconsistent with the policy:
//!
//! * a **full object fault** removes every TCAM rule associated with a policy
//!   object, on every switch;
//! * a **partial object fault** removes only a subset of the rules associated
//!   with the object, so that only some of the dependent EPG pairs break.
//!
//! Both are injected *silently* (no fault log — the failure is in the policy
//! deployment, not the hardware), but a `Modify` entry is recorded in the
//! controller change log for the faulty object, reflecting the paper's premise
//! that such inconsistencies follow recent operations on the object (§IV-B).

use std::collections::{BTreeMap, BTreeSet};

use rand::seq::SliceRandom;
use rand::Rng;

use scout_fabric::Fabric;
use scout_policy::{LogicalRule, ObjectId, SwitchId};

/// The kind of an injected object fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObjectFaultKind {
    /// All TCAM rules associated with the object are missing.
    Full,
    /// Only some of the TCAM rules associated with the object are missing.
    Partial,
}

/// One injected object fault, as recorded in the ground truth.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    /// The faulty policy object.
    pub object: ObjectId,
    /// Whether the fault is full or partial.
    pub kind: ObjectFaultKind,
    /// Switches from which rules were removed.
    pub switches: BTreeSet<SwitchId>,
    /// Number of TCAM rules removed.
    pub removed_rules: usize,
    /// The logical rules whose TCAM renderings this fault actually removed —
    /// the exact restoration set a repair must re-push. Rules already missing
    /// when the fault landed (e.g. removed by an earlier overlapping fault)
    /// are *not* listed: they belong to the fault that removed them.
    pub removed: Vec<LogicalRule>,
}

/// The ground truth of an experiment run: the set of injected faults.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct GroundTruth {
    faults: Vec<InjectedFault>,
}

impl GroundTruth {
    /// The injected faults in injection order.
    pub fn faults(&self) -> &[InjectedFault] {
        &self.faults
    }

    /// The set of truly faulty objects (the set `G` used for precision and
    /// recall in §VI).
    pub fn objects(&self) -> BTreeSet<ObjectId> {
        self.faults.iter().map(|f| f.object).collect()
    }

    /// Number of injected faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Returns `true` if nothing was injected.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Total number of rules removed across all faults.
    pub fn removed_rules(&self) -> usize {
        self.faults.iter().map(|f| f.removed_rules).sum()
    }

    fn push(&mut self, fault: InjectedFault) {
        self.faults.push(fault);
    }
}

/// Deterministic, seeded injector of object-level faults into a [`Fabric`].
#[derive(Debug)]
pub struct FaultInjector<R> {
    rng: R,
}

impl<R: Rng> FaultInjector<R> {
    /// Creates an injector driven by the given random number generator.
    ///
    /// Use a seeded RNG (e.g. `rand::rngs::StdRng::seed_from_u64`) for
    /// reproducible experiments.
    pub fn new(rng: R) -> Self {
        Self { rng }
    }

    /// Objects that can be made faulty: every policy object (VRF, EPG,
    /// contract, filter) that at least one compiled rule depends on.
    pub fn candidate_objects(fabric: &Fabric) -> Vec<ObjectId> {
        let mut candidates: BTreeSet<ObjectId> = BTreeSet::new();
        for rule in fabric.logical_rules().values().flatten() {
            candidates.extend(rule.provenance.policy_objects());
        }
        candidates.into_iter().collect()
    }

    /// Injects `count` simultaneous faults on distinct, randomly chosen policy
    /// objects, choosing full or partial with equal probability (as in §VI-A).
    ///
    /// Returns the ground truth. If fewer than `count` candidate objects
    /// exist, every candidate is made faulty.
    pub fn inject_object_faults(&mut self, fabric: &mut Fabric, count: usize) -> GroundTruth {
        self.inject_object_faults_where(fabric, count, None)
    }

    /// Like [`FaultInjector::inject_object_faults`], but every injected fault
    /// has the given kind — the campaign engine uses this to build pure
    /// full-fault and pure partial-fault scenario populations, matching the
    /// per-kind accuracy splits of the paper's Figures 7 and 8.
    pub fn inject_object_faults_of(
        &mut self,
        fabric: &mut Fabric,
        count: usize,
        kind: ObjectFaultKind,
    ) -> GroundTruth {
        self.inject_object_faults_where(fabric, count, Some(kind))
    }

    fn inject_object_faults_where(
        &mut self,
        fabric: &mut Fabric,
        count: usize,
        forced: Option<ObjectFaultKind>,
    ) -> GroundTruth {
        let mut candidates = Self::candidate_objects(fabric);
        candidates.shuffle(&mut self.rng);
        let mut truth = GroundTruth::default();
        for object in candidates.into_iter().take(count) {
            let kind = forced.unwrap_or_else(|| {
                if self.rng.gen_bool(0.5) {
                    ObjectFaultKind::Full
                } else {
                    ObjectFaultKind::Partial
                }
            });
            if let Some(fault) = self.inject_fault_on(fabric, object, kind) {
                truth.push(fault);
            }
        }
        truth
    }

    /// Injects one fault of the given kind on a specific object.
    ///
    /// Returns `None` if no deployed rule depends on the object (nothing to
    /// break). The affected TCAM rules are removed silently and a `Modify`
    /// change-log entry is recorded for the object.
    pub fn inject_fault_on(
        &mut self,
        fabric: &mut Fabric,
        object: ObjectId,
        kind: ObjectFaultKind,
    ) -> Option<InjectedFault> {
        let associated = rules_for_object(fabric.logical_rules(), object);
        if associated.is_empty() {
            return None;
        }
        let victims: Vec<LogicalRule> = match kind {
            ObjectFaultKind::Full => associated,
            ObjectFaultKind::Partial => {
                let mut shuffled = associated;
                shuffled.shuffle(&mut self.rng);
                // Remove between 1 and len-1 rules (at least one survivor when
                // possible) so the hit ratio of the object stays below 1.
                let upper = shuffled.len().saturating_sub(1).max(1);
                let take = self.rng.gen_range(1..=upper);
                shuffled.truncate(take);
                shuffled
            }
        };

        record_change(fabric, object);

        let mut switches = BTreeSet::new();
        let mut removed = Vec::new();
        let mut removed_count = 0usize;
        let mut by_switch: BTreeMap<SwitchId, Vec<LogicalRule>> = BTreeMap::new();
        for rule in victims {
            by_switch.entry(rule.switch).or_default().push(rule);
        }
        for (switch, rules) in by_switch {
            let targets: BTreeSet<scout_policy::TcamRule> = rules.iter().map(|r| r.rule).collect();
            let gone: BTreeSet<scout_policy::TcamRule> = fabric
                .remove_tcam_rules_where(switch, |r| targets.contains(r))
                .into_iter()
                .collect();
            if !gone.is_empty() {
                switches.insert(switch);
                removed_count += gone.len();
                removed.extend(rules.into_iter().filter(|r| gone.contains(&r.rule)));
            }
        }

        Some(InjectedFault {
            object,
            kind,
            switches,
            removed_rules: removed_count,
            removed,
        })
    }
}

/// The logical rules whose provenance (including the deployment switch)
/// involves `object`.
pub fn rules_for_object(
    logical_rules: &BTreeMap<SwitchId, Vec<LogicalRule>>,
    object: ObjectId,
) -> Vec<LogicalRule> {
    logical_rules
        .values()
        .flatten()
        .filter(|r| r.objects().contains(&object))
        .copied()
        .collect()
}

/// Records a `Modify` change-log entry for a faulty object, advancing the
/// simulated clock so the entry is the most recent action on the object.
fn record_change(fabric: &mut Fabric, object: ObjectId) {
    let t = fabric.advance_time(1);
    // The fabric owns the change log; reuse its API through a small detour:
    // `Fabric` exposes no direct change-log writer (the controller writes it),
    // so the injector emulates an admin-triggered modification by going
    // through the dedicated hook below.
    fabric.record_admin_change(t, object, "fault-injection: object modified");
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scout_equiv::EquivalenceChecker;
    use scout_policy::sample;

    fn deployed() -> Fabric {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        fabric
    }

    fn injector(seed: u64) -> FaultInjector<StdRng> {
        FaultInjector::new(StdRng::seed_from_u64(seed))
    }

    #[test]
    fn candidates_are_the_policy_objects_with_rules() {
        let fabric = deployed();
        let candidates = FaultInjector::<StdRng>::candidate_objects(&fabric);
        // 1 VRF + 3 EPGs + 2 contracts + 2 filters = 8 (switches are physical,
        // not object-fault candidates, but appear via objects()).
        assert!(candidates.contains(&ObjectId::Filter(sample::F_700)));
        assert!(candidates.contains(&ObjectId::Vrf(sample::VRF)));
        assert_eq!(candidates.iter().filter(|o| !o.is_switch()).count(), 8);
    }

    #[test]
    fn full_fault_removes_every_associated_rule() {
        let mut fabric = deployed();
        let mut inj = injector(1);
        let fault = inj
            .inject_fault_on(
                &mut fabric,
                ObjectId::Filter(sample::F_700),
                ObjectFaultKind::Full,
            )
            .unwrap();
        assert_eq!(fault.removed_rules, 4); // 2 on S2 + 2 on S3
        assert_eq!(fault.switches, BTreeSet::from([sample::S2, sample::S3]));
        // The checker sees exactly those rules as missing.
        let checker = EquivalenceChecker::new();
        let result = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
        assert_eq!(result.missing_count(), 4);
        assert!(result
            .missing_rules()
            .all(|r| r.provenance.filter == sample::F_700));
    }

    #[test]
    fn partial_fault_leaves_some_rules_behind() {
        let mut fabric = deployed();
        let mut inj = injector(7);
        let before: usize = fabric.collect_tcam().values().map(|v| v.len()).sum();
        let fault = inj
            .inject_fault_on(
                &mut fabric,
                ObjectId::Vrf(sample::VRF),
                ObjectFaultKind::Partial,
            )
            .unwrap();
        let after: usize = fabric.collect_tcam().values().map(|v| v.len()).sum();
        assert!(fault.removed_rules >= 1);
        assert!(
            fault.removed_rules < 12,
            "partial fault must not remove everything"
        );
        assert_eq!(before - after, fault.removed_rules);
    }

    #[test]
    fn injection_records_a_change_log_entry() {
        let mut fabric = deployed();
        let entries_before = fabric.change_log().len();
        let mut inj = injector(3);
        inj.inject_fault_on(
            &mut fabric,
            ObjectId::Filter(sample::F_HTTP),
            ObjectFaultKind::Full,
        )
        .unwrap();
        assert_eq!(fabric.change_log().len(), entries_before + 1);
        let last = fabric
            .change_log()
            .last_entry_for(ObjectId::Filter(sample::F_HTTP))
            .unwrap();
        assert_eq!(last.action, scout_fabric::ChangeAction::Modify);
    }

    #[test]
    fn inject_object_faults_produces_distinct_ground_truth() {
        let mut fabric = deployed();
        let mut inj = injector(11);
        let truth = inj.inject_object_faults(&mut fabric, 3);
        assert_eq!(truth.len(), 3);
        assert_eq!(truth.objects().len(), 3);
        assert!(truth.removed_rules() >= 3);
        assert!(!truth.is_empty());
        // Injected objects are genuine policy objects.
        assert!(truth.objects().iter().all(|o| !o.is_switch()));
    }

    #[test]
    fn forced_kind_injection_only_produces_that_kind() {
        for kind in [ObjectFaultKind::Full, ObjectFaultKind::Partial] {
            let mut fabric = deployed();
            let mut inj = injector(13);
            let truth = inj.inject_object_faults_of(&mut fabric, 3, kind);
            assert_eq!(truth.len(), 3);
            assert!(truth.faults().iter().all(|f| f.kind == kind), "{kind:?}");
        }
        // Full faults remove every rule of the object; the checker agrees.
        let mut fabric = deployed();
        let mut inj = injector(13);
        let truth = inj.inject_object_faults_of(&mut fabric, 1, ObjectFaultKind::Full);
        let object = truth.faults()[0].object;
        let still_there = rules_for_object(fabric.logical_rules(), object)
            .iter()
            .filter(|r| fabric.tcam_rules(r.switch).contains(&r.rule))
            .count();
        assert_eq!(still_there, 0);
    }

    #[test]
    fn requesting_more_faults_than_objects_injects_all_candidates() {
        let mut fabric = deployed();
        let mut inj = injector(5);
        let truth = inj.inject_object_faults(&mut fabric, 100);
        assert_eq!(truth.len(), 8);
    }

    #[test]
    fn fault_on_object_without_rules_returns_none() {
        let mut fabric = Fabric::new(sample::three_tier());
        // Not deployed yet: logical rules are empty.
        let mut inj = injector(2);
        assert!(inj
            .inject_fault_on(
                &mut fabric,
                ObjectId::Filter(sample::F_700),
                ObjectFaultKind::Full
            )
            .is_none());
    }

    #[test]
    fn injection_is_deterministic_for_a_seed() {
        let run = |seed| {
            let mut fabric = deployed();
            let mut inj = injector(seed);
            let truth = inj.inject_object_faults(&mut fabric, 4);
            (truth.objects(), truth.removed_rules())
        };
        assert_eq!(run(42), run(42));
    }

    #[test]
    fn rules_for_object_matches_provenance() {
        let fabric = deployed();
        let rules = rules_for_object(fabric.logical_rules(), ObjectId::Epg(sample::WEB));
        // Web participates only in the Web-App pair: 2 rules on S1 + 2 on S2.
        assert_eq!(rules.len(), 4);
        let rules = rules_for_object(fabric.logical_rules(), ObjectId::Switch(sample::S1));
        assert_eq!(rules.len(), 2);
    }
}
