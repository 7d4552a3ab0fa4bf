//! Cross-crate integration tests: the full SCOUT pipeline (policy → deploy →
//! break → detect → localize → diagnose) on the 3-tier example policy under
//! every failure mode the paper lists in §II-B.

use scout::core::{Evidence, ScoutEngine};
use scout::fabric::{CorruptionKind, Fabric, FaultKind};
use scout::policy::{sample, EpgPair, ObjectId};

fn deployed_three_tier() -> Fabric {
    let mut fabric = Fabric::new(sample::three_tier());
    fabric.deploy();
    fabric
}

#[test]
fn healthy_network_is_reported_consistent() {
    let fabric = deployed_three_tier();
    let report = ScoutEngine::new().analyze(&fabric);
    assert!(report.is_consistent());
    assert_eq!(report.missing_rule_count(), 0);
    assert!(report.hypothesis.is_empty());
    assert!(report.suspect_objects.is_empty());
}

#[test]
fn missing_filter_rules_are_localized_to_the_filter() {
    let mut fabric = deployed_three_tier();
    for switch in [sample::S2, sample::S3] {
        fabric.remove_tcam_rules_where(switch, |r| r.matcher.ports.start == 700);
    }
    let report = ScoutEngine::new().analyze(&fabric);
    assert!(!report.is_consistent());
    assert_eq!(report.missing_rule_count(), 4);
    assert!(report.hypothesis.contains(ObjectId::Filter(sample::F_700)));
    // The healthy port-80 filter must not be blamed.
    assert!(!report.hypothesis.contains(ObjectId::Filter(sample::F_HTTP)));
    // Risk-model bookkeeping is coherent.
    assert_eq!(report.observations.len(), 2);
    assert!(report.gamma() < 1.0);
    // No fault log exists for the silent removal, so causes are unknown.
    assert_eq!(
        report.diagnosis.unknown_objects().len(),
        report.hypothesis.len()
    );
}

#[test]
fn tcam_corruption_is_detected_and_localized() {
    let mut fabric = deployed_three_tier();
    fabric
        .corrupt_tcam(sample::S1, 0, CorruptionKind::SrcEpgBit)
        .expect("S1 has rules to corrupt");
    let report = ScoutEngine::new().analyze(&fabric);
    assert!(!report.is_consistent());
    assert_eq!(report.check.inconsistent_switches(), vec![sample::S1]);
    // Corruption on a single switch is most economically explained by that
    // switch in the controller risk model.
    assert!(report.hypothesis.contains(ObjectId::Switch(sample::S1)));
    // Silent corruption has no fault-log entry.
    assert!(report.diagnosis.causes_by_kind().is_empty());
}

#[test]
fn rule_eviction_behind_the_controllers_back_is_detected() {
    let mut fabric = deployed_three_tier();
    let evicted = fabric.evict_tcam(sample::S2, 3, true);
    assert_eq!(evicted.len(), 3);
    let report = ScoutEngine::new().analyze(&fabric);
    assert!(!report.is_consistent());
    assert!(report.missing_rule_count() >= 3);
    assert!(!report.hypothesis.is_empty());
    // The eviction was logged, so the correlation engine can tie it back.
    assert!(report
        .diagnosis
        .causes_by_kind()
        .contains_key(&FaultKind::RuleEviction));
}

#[test]
fn agent_crash_mid_update_yields_partial_state_and_is_diagnosed() {
    let mut fabric = Fabric::new(sample::three_tier());
    fabric.crash_agent_after(sample::S2, 3);
    fabric.deploy();
    assert_eq!(fabric.tcam_rules(sample::S2).len(), 3);

    let report = ScoutEngine::new().analyze(&fabric);
    assert!(!report.is_consistent());
    assert!(report
        .diagnosis
        .causes_by_kind()
        .contains_key(&FaultKind::AgentCrash));
}

#[test]
fn repairing_the_fabric_clears_the_report() {
    let mut fabric = deployed_three_tier();
    fabric.disconnect_switch(sample::S3);
    fabric.remove_tcam_rules_where(sample::S3, |_| true);
    let broken = ScoutEngine::new().analyze(&fabric);
    assert!(!broken.is_consistent());

    // Operator repairs: reconnect and resync.
    fabric.reconnect_switch(sample::S3);
    fabric.resync();
    let fixed = ScoutEngine::new().analyze(&fabric);
    assert!(fixed.is_consistent());
    assert!(fixed.hypothesis.is_empty());
}

#[test]
fn switch_level_analysis_matches_figure_4a_reasoning() {
    let mut fabric = deployed_three_tier();
    // Remove the Web-App rules from S2 only (the Figure 4(a) scenario).
    fabric.remove_tcam_rules_where(sample::S2, |r| {
        r.pair() == EpgPair::new(sample::WEB, sample::APP)
    });
    let engine = ScoutEngine::new();
    let (check, model, hypothesis) = engine.analyze_switch(&fabric, sample::S2);
    assert!(!check.equivalent);
    assert_eq!(model.failure_signature().len(), 1);
    // Occam's razor: the objects used solely by the Web-App pair explain the
    // observation; the shared VRF and EPG:App do not.
    assert!(hypothesis.contains(ObjectId::Epg(sample::WEB)));
    assert!(hypothesis.contains(ObjectId::Contract(sample::C_WEB_APP)));
    assert!(!hypothesis.contains(ObjectId::Vrf(sample::VRF)));
    assert!(!hypothesis.contains(ObjectId::Epg(sample::APP)));
    assert!(matches!(
        hypothesis.evidence(ObjectId::Epg(sample::WEB)),
        Some(Evidence::FullCover)
    ));
}

#[test]
fn facade_prelude_exposes_the_common_types() {
    use scout::prelude::*;
    let universe: PolicyUniverse = sample::three_tier();
    let mut fabric = Fabric::new(universe);
    fabric.deploy();
    let report: ScoutReport = ScoutEngine::new().analyze(&fabric);
    assert!(report.is_consistent());
}
