//! The workload table: which protocol, domain, population and transport
//! each named workload runs, and the seeded input generator behind it.
//! `NOTES.md` records why each workload exists and which layer it
//! stresses.

use ldp_datasets::{DatasetSpec, EvolvingData, SynDataset, ZipfDataset};
use ldp_runtime::Method;

/// Longitudinal budget ε∞ of every workload.
pub const EPS_INF: f64 = 1.0;
/// First-report share α of every workload (ε₁ = α·ε∞).
pub const ALPHA: f64 = 0.5;
/// Rounds per epoch. Each epoch starts a fresh pool from the same seed
/// and replays the same values, so memoized client state (and with it
/// memory and per-round cost) depends on the epoch, not on how many
/// rounds a run fits into its time.
pub const EPOCH_ROUNDS: usize = 32;
/// Rounds at the start of each epoch that fill the memo and are not timed.
pub const WARMUP_ROUNDS: usize = 2;

/// The generators keep evolving past τ; the benchmark stops on time.
const TAU: usize = 1_000_000;

/// How a workload's value histogram is shaped and how users churn.
#[derive(Debug, Clone, Copy)]
pub enum Shape {
    /// `ZipfDataset` web shape: s = 1.1, 10% of users redraw per round.
    ZipfWeb,
    /// `SynDataset` shape: uniform, 25% of users redraw per round (the
    /// paper's p_change).
    Syn,
}

/// Where sanitized reports go.
#[derive(Debug, Clone, Copy)]
pub enum Transport {
    /// Over loopback TCP into an in-process `Collectd`.
    Wire {
        /// Whether the daemon keeps a durable checkpoint directory.
        durable: bool,
        /// The daemon's `checkpoint_every` (applied frames).
        checkpoint_every: u64,
    },
    /// Straight into an `IngestPipeline` through batching submitters.
    InProcess,
}

/// One named workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub method: Method,
    pub k: u64,
    /// Users, each reporting once per round.
    pub n: usize,
    pub shape: Shape,
    pub transport: Transport,
}

pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "net-loloha-k1024",
        method: Method::BiLoloha,
        k: 1024,
        n: 16_000,
        shape: Shape::ZipfWeb,
        transport: Transport::Wire {
            durable: false,
            checkpoint_every: 64,
        },
    },
    Workload {
        name: "inproc-rappor-k1024",
        method: Method::Rappor,
        k: 1024,
        n: 16_000,
        shape: Shape::ZipfWeb,
        transport: Transport::InProcess,
    },
    Workload {
        name: "net-grr-k8192-durable",
        method: Method::LGrr,
        k: 8192,
        n: 15_000,
        shape: Shape::Syn,
        transport: Transport::Wire {
            durable: true,
            checkpoint_every: 8,
        },
    },
];

pub fn find(name: &str) -> Option<Workload> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Workload {
    pub fn eps_first(&self) -> f64 {
        ALPHA * EPS_INF
    }

    pub fn is_wire(&self) -> bool {
        matches!(self.transport, Transport::Wire { .. })
    }

    /// The seeded value generator: round `r`'s values are the `r`-th
    /// `step()`, so replaying from the same seed regenerates every round.
    pub fn dataset(&self, seed: u64) -> Box<dyn EvolvingData> {
        match self.shape {
            Shape::ZipfWeb => ZipfDataset::new(self.k, self.n, TAU, 1.1, 0.10).instantiate(seed),
            Shape::Syn => SynDataset::new(self.k, self.n, TAU, 0.25).instantiate(seed),
        }
    }
}

/// The client pool's master seed, derived from the benchmark seed so one
/// argument fixes both the values and the clients' randomness.
pub fn pool_seed(seed: u64) -> u64 {
    seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ 0xC011_EC7B
}
