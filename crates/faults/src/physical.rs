//! Physical-level fault scenarios.
//!
//! These helpers wrap the raw fabric fault hooks into the named scenarios used
//! by the paper's use cases (§V-B) and by the evaluation: an unresponsive
//! switch, an agent crash mid-update, random TCAM corruption, and silent rule
//! eviction. Each scenario returns enough information to serve as ground truth
//! for accuracy measurements.

use std::collections::BTreeSet;

use rand::Rng;

use scout_fabric::{CorruptionKind, Fabric};
use scout_policy::{ObjectId, SwitchId, TcamRule};

/// The outcome of a physical fault scenario.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhysicalFault {
    /// The switch the fault was injected on.
    pub switch: SwitchId,
    /// Human-readable scenario name.
    pub scenario: &'static str,
    /// TCAM rules that disappeared or changed because of the fault.
    pub affected_rules: Vec<TcamRule>,
}

impl PhysicalFault {
    /// The policy objects affected by the fault: every object in the
    /// provenance of a logical rule whose TCAM rendering was affected,
    /// restricted to the faulty switch.
    pub fn affected_objects(&self, fabric: &Fabric) -> BTreeSet<ObjectId> {
        let affected: BTreeSet<TcamRule> = self.affected_rules.iter().copied().collect();
        fabric
            .logical_rules()
            .get(&self.switch)
            .into_iter()
            .flatten()
            .filter(|l| affected.contains(&l.rule))
            .flat_map(|l| l.provenance.policy_objects())
            .collect()
    }
}

/// Makes `switch` unresponsive (control channel disconnected). Instructions
/// pushed afterwards are lost; nothing already deployed is touched.
pub fn unresponsive_switch(fabric: &mut Fabric, switch: SwitchId) -> PhysicalFault {
    fabric.disconnect_switch(switch);
    PhysicalFault {
        switch,
        scenario: "unresponsive-switch",
        affected_rules: Vec::new(),
    }
}

/// Crashes the agent on `switch` after it applies `after` more instructions,
/// simulating a crash in the middle of a rule-update batch.
pub fn agent_crash_mid_update(fabric: &mut Fabric, switch: SwitchId, after: u64) -> PhysicalFault {
    fabric.crash_agent_after(switch, after);
    PhysicalFault {
        switch,
        scenario: "agent-crash-mid-update",
        affected_rules: Vec::new(),
    }
}

/// Corrupts `count` random TCAM entries on `switch` with random corruption
/// kinds. Corruption is silent: no fault log is produced.
pub fn random_tcam_corruption<R: Rng>(
    fabric: &mut Fabric,
    switch: SwitchId,
    count: usize,
    rng: &mut R,
) -> PhysicalFault {
    let mut affected = Vec::new();
    for _ in 0..count {
        let len = fabric.tcam_rules(switch).len();
        if len == 0 {
            break;
        }
        let index = rng.gen_range(0..len);
        let kind = CorruptionKind::ALL[rng.gen_range(0..CorruptionKind::ALL.len())];
        if let Some((original, _corrupted)) = fabric.corrupt_tcam(switch, index, kind) {
            affected.push(original);
        }
    }
    PhysicalFault {
        switch,
        scenario: "tcam-corruption",
        affected_rules: affected,
    }
}

/// Silently evicts the oldest `count` rules from `switch`'s TCAM.
pub fn silent_rule_eviction(fabric: &mut Fabric, switch: SwitchId, count: usize) -> PhysicalFault {
    let evicted = fabric.evict_tcam(switch, count, false);
    PhysicalFault {
        switch,
        scenario: "silent-rule-eviction",
        affected_rules: evicted,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use scout_equiv::EquivalenceChecker;
    use scout_fabric::FaultKind;
    use scout_policy::sample;

    fn deployed() -> Fabric {
        let mut fabric = Fabric::new(sample::three_tier());
        fabric.deploy();
        fabric
    }

    #[test]
    fn unresponsive_switch_blocks_future_updates_only() {
        let mut fabric = deployed();
        let before = fabric.tcam_rules(sample::S2).len();
        let fault = unresponsive_switch(&mut fabric, sample::S2);
        assert_eq!(fault.scenario, "unresponsive-switch");
        assert_eq!(fabric.tcam_rules(sample::S2).len(), before);
        assert_eq!(
            fabric
                .fault_log()
                .entries_of_kind(FaultKind::SwitchUnreachable)
                .len(),
            1
        );
        // A re-sync cannot repair the switch while it is unresponsive.
        fabric.remove_tcam_rules_where(sample::S2, |_| true);
        fabric.resync();
        assert_eq!(fabric.tcam_rules(sample::S2).len(), 0);
    }

    #[test]
    fn corruption_affects_requested_number_of_rules() {
        let mut fabric = deployed();
        let mut rng = StdRng::seed_from_u64(9);
        let fault = random_tcam_corruption(&mut fabric, sample::S2, 3, &mut rng);
        assert_eq!(fault.affected_rules.len(), 3);
        let checker = EquivalenceChecker::new();
        let result = checker.check_network(fabric.logical_rules(), &fabric.collect_tcam());
        assert!(!result.is_consistent());
        // The affected objects come from the corrupted rules' provenance.
        let objs = fault.affected_objects(&fabric);
        assert!(!objs.is_empty());
        assert!(objs.iter().all(|o| !o.is_switch()));
    }

    #[test]
    fn corruption_on_empty_switch_is_a_noop() {
        let mut fabric = Fabric::new(sample::three_tier());
        let mut rng = StdRng::seed_from_u64(9);
        let fault = random_tcam_corruption(&mut fabric, sample::S2, 5, &mut rng);
        assert!(fault.affected_rules.is_empty());
    }

    #[test]
    fn eviction_reports_evicted_rules() {
        let mut fabric = deployed();
        let fault = silent_rule_eviction(&mut fabric, sample::S3, 2);
        assert_eq!(fault.affected_rules.len(), 2);
        assert_eq!(fabric.tcam_rules(sample::S3).len(), 2);
        // Silent: no fault log entry.
        assert!(fabric
            .fault_log()
            .entries_of_kind(FaultKind::RuleEviction)
            .is_empty());
        let objs = fault.affected_objects(&fabric);
        assert!(objs.contains(&ObjectId::Contract(sample::C_APP_DB)));
    }

    #[test]
    fn agent_crash_mid_update_arms_the_crash() {
        let mut fabric = Fabric::new(sample::three_tier());
        agent_crash_mid_update(&mut fabric, sample::S2, 3);
        fabric.deploy();
        assert_eq!(fabric.tcam_rules(sample::S2).len(), 3);
        assert!(fabric.agent(sample::S2).unwrap().is_crashed());
        assert_eq!(
            fabric
                .fault_log()
                .entries_of_kind(FaultKind::AgentCrash)
                .len(),
            1
        );
    }
}
