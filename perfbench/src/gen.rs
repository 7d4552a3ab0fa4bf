//! The benchmark's own generator: every input of a run, built from `--seed`
//! and wire-encoded before any clock starts.
//!
//! The program only ever sees the encoded requests. The generator's own
//! fabric is kept for the oracle: on the closed-loop workloads the session's
//! final report must equal a from-scratch analysis of it.

use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeSet, VecDeque};
use std::hash::Hasher;

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};
use scout_fabric::wire::{from_bytes, to_bytes};
use scout_fabric::{EventBatch, Fabric, FabricEvent, FabricProbe};
use scout_policy::SwitchId;
use scout_server::{ServerRequest, TenantId};
use scout_workload::{random_policy_edit, ScaleSpec};

/// The tenant id of the single closed-loop client.
pub const CLOSED_TENANT: TenantId = 1;

/// The named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Churn1k,
    Degraded1k,
}

impl Workload {
    pub const ALL: [Workload; 2] = [Workload::Churn1k, Workload::Degraded1k];

    pub fn name(self) -> &'static str {
        match self {
            Workload::Churn1k => "churn_1k",
            Workload::Degraded1k => "degraded_1k",
        }
    }

    /// Whether the server keeps the tenant in a durable store, so the
    /// journal, its commits, snapshots and compaction are on the request
    /// path.
    pub fn durable(self) -> bool {
        self == Workload::Degraded1k
    }

    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// Input sizes. [`Scale::FULL`] is the benchmark; [`Scale::REDUCED`] keeps
/// every mechanism but runs in seconds, for the benchmark's own tests.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Leaf switches of the closed-loop tenant's `large_fabric`.
    pub switches: usize,
    /// Switches `degraded_1k` keeps faulted.
    pub held_faults: usize,
    /// Epochs per second of `--seconds`. [`Scale::FULL`] sets them near what
    /// a 2-core host serves, so the measured phase lasts about `--seconds`.
    pub churn_epochs_per_s: usize,
    pub degraded_epochs_per_s: usize,
}

impl Scale {
    pub const FULL: Scale = Scale {
        switches: 1000,
        held_faults: 32,
        churn_epochs_per_s: 56,
        degraded_epochs_per_s: 45,
    };

    pub const REDUCED: Scale = Scale {
        switches: 40,
        held_faults: 4,
        churn_epochs_per_s: 60,
        degraded_epochs_per_s: 50,
    };

    /// Epochs a run of `seconds` offers.
    pub fn epochs(&self, workload: Workload, seconds: u64) -> usize {
        let per_s = match workload {
            Workload::Churn1k => self.churn_epochs_per_s,
            Workload::Degraded1k => self.degraded_epochs_per_s,
        };
        per_s * seconds as usize
    }
}

/// What a closed-loop epoch does to the fabric.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Kind {
    /// One switch loses a rule, or gets it back.
    Single,
    /// A front: 5% of the switches lose a rule, or get it back.
    Front,
    /// A policy edit (`random_policy_edit`).
    Edit,
    /// `degraded_1k`: one switch faults, the oldest faulted one is repaired.
    Fault,
}

impl Kind {
    pub fn name(self) -> &'static str {
        match self {
            Kind::Single => "single",
            Kind::Front => "front",
            Kind::Edit => "edit",
            Kind::Fault => "fault",
        }
    }
}

/// One encoded `Ingest` request.
pub struct Request {
    pub kind: Kind,
    pub epoch: u64,
    pub bytes: Vec<u8>,
}

/// Every input of a closed-loop run.
pub struct ClosedInputs {
    /// The encoded `OpenSession`.
    pub open: Vec<u8>,
    /// Encoded ingests sent during set-up, before the first timed request.
    pub warmup: Vec<Vec<u8>>,
    /// The timed ingests, in order.
    pub requests: Vec<Request>,
    /// The generator's fabric after the last epoch: the oracle's input.
    pub fabric: Fabric,
}

impl ClosedInputs {
    /// A digest of every byte the program receives, except the version
    /// number of a policy update: the fabric draws it from a process-wide
    /// counter, so it differs between two generations of one seed in one
    /// process.
    pub fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        h.write(&self.open);
        for bytes in self
            .warmup
            .iter()
            .chain(self.requests.iter().map(|r| &r.bytes))
        {
            let Ok(ServerRequest::Ingest { batch, .. }) = from_bytes::<ServerRequest>(bytes) else {
                unreachable!("the generator encodes only ingests after the open");
            };
            h.write_u64(batch.epoch);
            for event in &batch.events {
                match event {
                    FabricEvent::PolicyUpdate { universe, .. } => h.write(&to_bytes(&**universe)),
                    other => h.write(&to_bytes(other)),
                }
            }
        }
        h.finish()
    }
}

fn ingest_bytes(epoch: u64, probe: &mut FabricProbe, fabric: &Fabric) -> Vec<u8> {
    to_bytes(&ServerRequest::Ingest {
        tenant: CLOSED_TENANT,
        batch: EventBatch::new(epoch, probe.observe(fabric)),
    })
}

struct ClosedGen {
    fabric: Fabric,
    probe: FabricProbe,
    rng: StdRng,
    ids: Vec<SwitchId>,
    open: Vec<u8>,
    warmup: Vec<Vec<u8>>,
    requests: Vec<Request>,
}

impl ClosedGen {
    fn new(switches: usize, seed: u64) -> Self {
        let universe = ScaleSpec::large_fabric(switches).generate(seed);
        let open = to_bytes(&ServerRequest::OpenSession {
            tenant: CLOSED_TENANT,
            universe: universe.clone(),
        });
        let mut fabric = Fabric::new(universe);
        fabric.deploy();
        let probe = FabricProbe::new(&fabric);
        let ids = fabric.universe().switch_ids();
        Self {
            fabric,
            probe,
            rng: StdRng::seed_from_u64(seed ^ 0xBE7C_4A11),
            ids,
            open,
            warmup: Vec::new(),
            requests: Vec::new(),
        }
    }

    fn next_epoch(&self) -> u64 {
        (self.warmup.len() + self.requests.len()) as u64 + 1
    }

    fn emit(&mut self, kind: Kind) {
        let epoch = self.next_epoch();
        let bytes = ingest_bytes(epoch, &mut self.probe, &self.fabric);
        self.requests.push(Request { kind, epoch, bytes });
    }

    fn finish(self) -> ClosedInputs {
        ClosedInputs {
            open: self.open,
            warmup: self.warmup,
            requests: self.requests,
            fabric: self.fabric,
        }
    }
}

/// The units of one 200-epoch `churn_1k` block: 4 policy edits (2%), 3
/// evict/repair fronts (6 epochs, 3%) and 95 single-switch evict/repair
/// pairs (190 epochs, 95%). Fixing the block's make-up, and shuffling only
/// its order, keeps the mix identical across seeds, so p99 (rank 1386 of
/// 1400) always falls inside the 28 policy edits.
const CHURN_BLOCK: [(Kind, usize); 3] = [(Kind::Edit, 4), (Kind::Front, 3), (Kind::Single, 95)];

/// Epochs in one `churn_1k` block: a policy edit is one epoch, a front or
/// a single-switch unit is two (evict, then repair).
pub const CHURN_BLOCK_EPOCHS: usize = 200;

const _: () = {
    let mut epochs = 0;
    let mut i = 0;
    while i < CHURN_BLOCK.len() {
        let (kind, units) = CHURN_BLOCK[i];
        epochs += if matches!(kind, Kind::Edit) {
            units
        } else {
            2 * units
        };
        i += 1;
    }
    assert!(epochs == CHURN_BLOCK_EPOCHS);
};

/// `churn_1k`: clean churn on one `large_fabric` tenant; damage never
/// stands longer than the epoch that repairs it.
pub fn churn(scale: &Scale, seed: u64, epochs: usize) -> Result<ClosedInputs, String> {
    let mut g = ClosedGen::new(scale.switches, seed);
    let width = (scale.switches / 20).max(1);
    while g.requests.len() < epochs {
        let mut units: Vec<Kind> = CHURN_BLOCK
            .iter()
            .flat_map(|&(kind, n)| std::iter::repeat_n(kind, n))
            .collect();
        units.shuffle(&mut g.rng);
        for kind in units {
            if g.requests.len() >= epochs {
                break;
            }
            match kind {
                Kind::Edit => {
                    let universe = g.fabric.universe().clone();
                    let edit = random_policy_edit(&universe, &mut g.rng)
                        .ok_or("random_policy_edit found no edit to make")?;
                    g.fabric.update_policy(edit.universe);
                    g.emit(Kind::Edit);
                }
                Kind::Front | Kind::Single => {
                    let n = if kind == Kind::Front { width } else { 1 };
                    let start = g.rng.gen_range(0..g.ids.len());
                    let hit: Vec<SwitchId> =
                        (0..n).map(|i| g.ids[(start + i) % g.ids.len()]).collect();
                    for &switch in &hit {
                        g.fabric.evict_tcam(switch, 1, false);
                    }
                    g.emit(kind);
                    if g.requests.len() < epochs {
                        for &switch in &hit {
                            g.fabric.repair_switch(switch);
                        }
                        g.emit(kind);
                    }
                }
                Kind::Fault => unreachable!("churn blocks hold no fault epochs"),
            }
        }
    }
    Ok(g.finish())
}

/// `degraded_1k`: TCAM-only epochs over standing damage. Set-up faults
/// `held_faults` switches in one warm-up batch; every timed epoch then faults
/// one more switch and repairs the oldest faulted one, so the damage stays
/// at the same size and per-epoch cost stays flat.
pub fn degraded(scale: &Scale, seed: u64, epochs: usize) -> ClosedInputs {
    let mut g = ClosedGen::new(scale.switches, seed);
    let mut shuffled = g.ids.clone();
    shuffled.shuffle(&mut g.rng);
    let mut faulted: VecDeque<SwitchId> = shuffled[..scale.held_faults].iter().copied().collect();
    for &switch in &faulted {
        let n = g.rng.gen_range(1usize..3);
        g.fabric.evict_tcam(switch, n, false);
    }
    let epoch = g.next_epoch();
    g.warmup.push(ingest_bytes(epoch, &mut g.probe, &g.fabric));
    let mut held: BTreeSet<SwitchId> = faulted.iter().copied().collect();
    for _ in 0..epochs {
        let switch = loop {
            let s = g.ids[g.rng.gen_range(0..g.ids.len())];
            if !held.contains(&s) {
                break s;
            }
        };
        let n = g.rng.gen_range(1usize..3);
        g.fabric.evict_tcam(switch, n, false);
        faulted.push_back(switch);
        held.insert(switch);
        if let Some(oldest) = faulted.pop_front() {
            g.fabric.repair_switch(oldest);
            held.remove(&oldest);
        }
        g.emit(Kind::Fault);
    }
    g.finish()
}
