//! Fixtures shared by the enforced integration suites.

use scout::fabric::Fabric;
use scout::workload::TestbedSpec;

/// A deployed three-switch testbed fabric generated from `seed` — the fabric
/// the session, checkpoint, store and hostile suites churn.
pub fn testbed_fabric(seed: u64) -> Fabric {
    let spec = TestbedSpec {
        epgs: 12,
        contracts: 8,
        filters: 4,
        target_pairs: 20,
        switches: 3,
        tcam_capacity: 1024,
    };
    let mut fabric = Fabric::new(spec.generate(seed));
    fabric.deploy();
    fabric
}
