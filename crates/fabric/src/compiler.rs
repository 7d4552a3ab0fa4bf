//! The policy compiler: network policy → per-switch logical (L-type) rules.
//!
//! The compiler performs the controller-side translation described in §II-A of
//! the paper: for every contract binding it expands the contract's filters into
//! directional allow rules between the consumer and provider EPGs, and assigns
//! each rule to every switch that hosts at least one endpoint of either EPG
//! (e.g. switch S2 in Figure 1 receives the rules of both the Web–App and
//! App–DB pairs).

use std::collections::{BTreeMap, BTreeSet};

use scout_policy::{
    Action, EpgId, LogicalRule, PolicyUniverse, RuleMatch, RuleProvenance, SwitchId, TcamRule,
};

/// Compiles the whole universe into the logical rules of every switch.
///
/// Each value is exactly [`compile_for_switch`] for its key; switches that
/// receive no rule have no entry. The output is deterministic: within a
/// switch, rules are ordered by binding, then filter, then entry, then
/// direction.
pub fn compile(universe: &PolicyUniverse) -> BTreeMap<SwitchId, Vec<LogicalRule>> {
    universe
        .switch_ids()
        .into_iter()
        .map(|switch| (switch, compile_for_switch(universe, switch)))
        .filter(|(_, rules)| !rules.is_empty())
        .collect()
}

/// The switches of `switches` whose expected rule set differs between two
/// compiles, ignoring rule order — the switches a policy update dirties.
pub(crate) fn changed_switches(
    old: &BTreeMap<SwitchId, Vec<LogicalRule>>,
    new: &BTreeMap<SwitchId, Vec<LogicalRule>>,
    switches: &BTreeSet<SwitchId>,
) -> BTreeSet<SwitchId> {
    switches
        .iter()
        .copied()
        .filter(|switch| {
            let old = old.get(switch).map_or(&[][..], Vec::as_slice);
            let new = new.get(switch).map_or(&[][..], Vec::as_slice);
            old != new && old.iter().collect::<BTreeSet<_>>() != new.iter().collect::<BTreeSet<_>>()
        })
        .collect()
}

/// Compiles the logical rules that must be present on one switch.
pub fn compile_for_switch(universe: &PolicyUniverse, switch: SwitchId) -> Vec<LogicalRule> {
    let local_epgs: BTreeSet<EpgId> = universe.epgs_on_switch(switch);
    let mut rules = Vec::new();
    for binding in universe.bindings() {
        if !local_epgs.contains(&binding.consumer) && !local_epgs.contains(&binding.provider) {
            continue;
        }
        let Some(consumer_epg) = universe.epg(binding.consumer) else {
            continue;
        };
        let vrf = consumer_epg.vrf;
        let Some(contract) = universe.contract(binding.contract) else {
            continue;
        };
        for &filter_id in &contract.filters {
            let Some(filter) = universe.filter(filter_id) else {
                continue;
            };
            for entry in &filter.entries {
                if entry.action != Action::Allow {
                    // Whitelisting model: deny entries add nothing beyond the
                    // implicit default deny and are skipped by the compiler.
                    continue;
                }
                let provenance = RuleProvenance::new(
                    vrf,
                    binding.consumer,
                    binding.provider,
                    binding.contract,
                    filter_id,
                );
                for (src, dst) in [
                    (binding.consumer, binding.provider),
                    (binding.provider, binding.consumer),
                ] {
                    let matcher = RuleMatch::new(vrf, src, dst, entry.protocol, entry.ports);
                    rules.push(LogicalRule::new(
                        switch,
                        TcamRule::allow(matcher),
                        provenance,
                    ));
                }
            }
        }
    }
    rules
}

/// Number of TCAM entries the full policy requires on `switch`.
pub fn rule_count_for_switch(universe: &PolicyUniverse, switch: SwitchId) -> usize {
    compile_for_switch(universe, switch).len()
}

#[cfg(test)]
mod tests {
    use super::*;
    use scout_policy::{sample, EpgPair, ObjectId, PortRange, Protocol};

    #[test]
    fn three_tier_s2_gets_six_rules_like_figure_2() {
        // Figure 2: S2 holds six allow rules (Web<->App on 80, App<->DB on 80
        // and 700) plus the implicit deny-all.
        let u = sample::three_tier();
        let rules = compile_for_switch(&u, sample::S2);
        assert_eq!(rules.len(), 6);
        let ports: BTreeSet<u16> = rules.iter().map(|r| r.rule.matcher.ports.start).collect();
        assert_eq!(ports, BTreeSet::from([80, 700]));
        // Every rule is scoped to VRF 101 and is an allow.
        assert!(rules.iter().all(|r| r.rule.matcher.vrf == sample::VRF));
        assert!(rules.iter().all(|r| r.rule.action == Action::Allow));
    }

    #[test]
    fn s1_and_s3_get_only_their_pair() {
        let u = sample::three_tier();
        let s1 = compile_for_switch(&u, sample::S1);
        assert_eq!(s1.len(), 2); // Web<->App on port 80
        assert!(s1
            .iter()
            .all(|r| r.pair() == EpgPair::new(sample::WEB, sample::APP)));
        let s3 = compile_for_switch(&u, sample::S3);
        assert_eq!(s3.len(), 4); // App<->DB on ports 80 and 700
        assert!(s3
            .iter()
            .all(|r| r.pair() == EpgPair::new(sample::APP, sample::DB)));
    }

    #[test]
    fn full_compile_is_union_of_per_switch() {
        let u = sample::three_tier();
        let all = compile(&u);
        assert_eq!(all.values().map(Vec::len).sum::<usize>(), 2 + 6 + 4);
        assert_eq!(rule_count_for_switch(&u, sample::S2), 6);
    }

    #[test]
    fn compile_groups_exactly_the_switches_with_rules() {
        let u = universe_with_an_idle_switch();
        let by_switch = compile(&u);
        let with_rules: Vec<SwitchId> = u
            .switch_ids()
            .into_iter()
            .filter(|&s| !compile_for_switch(&u, s).is_empty())
            .collect();
        assert_eq!(by_switch.keys().copied().collect::<Vec<_>>(), with_rules);
        assert!(!by_switch.contains_key(&SwitchId::new(2)));
        for (&switch, rules) in &by_switch {
            assert_eq!(*rules, compile_for_switch(&u, switch));
        }
        let flat: Vec<LogicalRule> = by_switch.values().flatten().copied().collect();
        let concatenated: Vec<LogicalRule> = u
            .switch_ids()
            .into_iter()
            .flat_map(|s| compile_for_switch(&u, s))
            .collect();
        assert_eq!(flat, concatenated);
    }

    #[test]
    fn changed_switches_ignores_order_and_departed_switches() {
        let u = sample::three_tier();
        let old = compile(&u);
        let all: BTreeSet<SwitchId> = u.switch_ids().into_iter().collect();
        let mut reordered = old.clone();
        reordered.get_mut(&sample::S2).unwrap().reverse();
        assert!(changed_switches(&old, &reordered, &all).is_empty());

        let mut edited = old.clone();
        edited.get_mut(&sample::S2).unwrap().pop();
        edited.remove(&sample::S3);
        assert_eq!(
            changed_switches(&old, &edited, &all),
            BTreeSet::from([sample::S2, sample::S3])
        );
        // A switch outside the current set is never reported.
        let without_s3: BTreeSet<SwitchId> = BTreeSet::from([sample::S1, sample::S2]);
        assert_eq!(
            changed_switches(&old, &edited, &without_s3),
            BTreeSet::from([sample::S2])
        );
    }

    #[test]
    fn directional_rules_cover_both_directions() {
        let u = sample::three_tier();
        let rules = compile_for_switch(&u, sample::S1);
        let dirs: BTreeSet<(u32, u32)> = rules
            .iter()
            .map(|r| (r.rule.matcher.src_epg.raw(), r.rule.matcher.dst_epg.raw()))
            .collect();
        assert_eq!(dirs.len(), 2);
        assert!(dirs.contains(&(sample::WEB.raw(), sample::APP.raw())));
        assert!(dirs.contains(&(sample::APP.raw(), sample::WEB.raw())));
    }

    #[test]
    fn provenance_references_the_deriving_objects() {
        let u = sample::three_tier();
        let rules = compile_for_switch(&u, sample::S3);
        for r in &rules {
            assert_eq!(r.provenance.vrf, sample::VRF);
            assert_eq!(r.provenance.contract, sample::C_APP_DB);
            let objs = r.objects();
            assert!(objs.contains(&ObjectId::Switch(sample::S3)));
            assert!(objs.contains(&ObjectId::Contract(sample::C_APP_DB)));
        }
        // One of the S3 rules must come from the port-700 filter.
        assert!(rules.iter().any(|r| r.provenance.filter == sample::F_700
            && r.rule.matcher.ports == PortRange::single(700)
            && r.rule.matcher.protocol == Protocol::Tcp));
    }

    #[test]
    fn compile_is_deterministic() {
        let u = sample::three_tier();
        assert_eq!(compile(&u), compile(&u));
    }

    #[test]
    fn switch_without_endpoints_gets_no_rules() {
        let u = universe_with_an_idle_switch();
        assert_eq!(compile_for_switch(&u, SwitchId::new(2)).len(), 0);
        assert_eq!(compile_for_switch(&u, SwitchId::new(1)).len(), 2);
    }

    /// Two EPGs bound by one contract on switch 1; switch 2 hosts nothing.
    fn universe_with_an_idle_switch() -> PolicyUniverse {
        use scout_policy::{Contract, ContractBinding, Endpoint, Epg, Filter, Switch, Tenant};
        use scout_policy::{ContractId, EndpointId, FilterId, TenantId, VrfId};
        let mut b = PolicyUniverse::builder();
        b.tenant(Tenant::new(TenantId::new(0), "t"))
            .vrf(scout_policy::Vrf::new(VrfId::new(1), "v", TenantId::new(0)))
            .epg(Epg::new(EpgId::new(1), "a", VrfId::new(1)))
            .epg(Epg::new(EpgId::new(2), "b", VrfId::new(1)))
            .switch(Switch::new(SwitchId::new(1), "s1"))
            .switch(Switch::new(SwitchId::new(2), "s2-empty"))
            .endpoint(Endpoint::new(
                EndpointId::new(1),
                "ep1",
                EpgId::new(1),
                SwitchId::new(1),
            ))
            .endpoint(Endpoint::new(
                EndpointId::new(2),
                "ep2",
                EpgId::new(2),
                SwitchId::new(1),
            ))
            .filter(Filter::tcp_port(FilterId::new(1), "http", 80))
            .contract(Contract::new(
                ContractId::new(1),
                "c",
                vec![FilterId::new(1)],
            ))
            .bind(ContractBinding::new(
                EpgId::new(1),
                EpgId::new(2),
                ContractId::new(1),
            ));
        b.build().unwrap()
    }
}
