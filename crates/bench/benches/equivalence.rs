//! Micro-benchmarks for the L–T equivalence checker on deployed policies: the
//! consistent case (fast path) and the case with missing rules (missing-rule
//! extraction).

use scout_bench::harness::Harness;
use scout_equiv::EquivalenceChecker;
use scout_fabric::Fabric;
use scout_workload::TestbedSpec;

fn main() {
    let mut h = Harness::new("equivalence");

    for &pairs in &[50usize, 100, 200] {
        let spec = TestbedSpec {
            epgs: 36,
            contracts: 24,
            filters: 9,
            target_pairs: pairs,
            switches: 6,
            tcam_capacity: 64 * 1024,
        };
        let mut fabric = Fabric::new(spec.generate(1));
        fabric.deploy();
        let logical = fabric.logical_rules().clone();
        let tcam = fabric.collect_tcam();

        h.bench(&format!("consistent/{pairs}"), || {
            let checker = EquivalenceChecker::new();
            checker.check_network(&logical, &tcam)
        });

        // Break ~10% of the rules on one switch and measure the slow path.
        let mut broken = fabric.clone();
        let victim = broken.universe().switch_ids()[0];
        let total = broken.tcam_rules(victim).len().max(1);
        let mut removed = 0usize;
        broken.remove_tcam_rules_where(victim, |_| {
            removed += 1;
            removed <= total / 10 + 1
        });
        let broken_tcam = broken.collect_tcam();
        h.bench(&format!("with-missing-rules/{pairs}"), || {
            let checker = EquivalenceChecker::new();
            checker.check_network(&logical, &broken_tcam)
        });
    }

    h.finish();
}
