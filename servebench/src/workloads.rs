//! The four benchmark workloads, each named by the load it puts on one
//! layer. `README.md` explains why each exists.
//!
//! Arrivals: sessions arrive open-loop (Poisson, independent users) on
//! the virtual clock; the turns of a session are closed-loop (each turn
//! arrives a think time after the previous reply). Every turn is timed
//! from that due arrival, so a slow engine cannot make the generator run
//! late. The store starts empty and every turn counts: no warm-up.

use bench_suite::experiments::{chaos::chaos_plan, slo::autoscaled};
use bench_suite::{scaled_config, Scale};
use engine::{ClusterConfig, Mode, RouterKind};
use models::ModelSpec;
use sim::Dur;
use store::KeyingMode;
use workload::{Generator, PrefixProfile, PrefixScenario, ShareGptProfile, Surge, Trace};

use crate::collect::{CostBasis, TTFT_SLO_SECS};

/// Workload names, in the order the benchmark documents them.
pub const NAMES: [&str; 3] = ["chat_steady", "shared_prefix", "flash_crowd"];

/// Fleet capacity per LLaMA-13B instance under the ShareGPT profile,
/// sessions per second, measured on the 4-instance fleet with a shared
/// store: over 4,000 sessions the median TTFT is 1.3 s at 0.8/s and
/// 26 s (and growing) at 1.0/s.
pub const INSTANCE_CAPACITY: f64 = 0.21;

/// One workload's shape.
#[derive(Debug, Clone, Copy)]
pub struct Shape {
    /// Independent replicas per round; their samples pool into one set of
    /// metrics (more work per run, same queue depth per replica).
    pub replicas: usize,
    /// Sessions in each replica's trace.
    pub sessions: usize,
    /// Serving instances at t = 0.
    pub instances: usize,
    /// Offered load as a multiple of the base fleet's capacity.
    pub load: f64,
}

/// The shape of workload `name`, or `None` for an unknown name.
pub fn shape(name: &str) -> Option<Shape> {
    let (replicas, sessions, instances, load) = match name {
        "chat_steady" => (6, 2_000, 4, 0.5),
        "shared_prefix" => (6, 400, 4, 0.5),
        // Base load before and after the 4x surge window.
        "flash_crowd" => (72, 500, 2, 0.5),
        _ => return None,
    };
    Some(Shape {
        replicas,
        sessions,
        instances,
        load,
    })
}

/// A workload's replicas. Each is built on demand, right before its run
/// call, so only one replica's input is alive at a time.
pub struct Workload {
    name: String,
    shape: Shape,
    seed: u64,
}

/// Everything one run call needs.
pub struct Replica {
    /// The generated input.
    pub trace: Trace,
    /// The serving system under test.
    pub cluster: ClusterConfig,
    /// Telemetry window width when the workload attaches the telemetry
    /// stack, seconds.
    pub telemetry_window_secs: Option<f64>,
    /// What the cost metric bills.
    pub cost: CostBasis,
}

impl Workload {
    /// Workload `name` at `seed`, or `None` for an unknown name.
    pub fn new(name: &str, seed: u64) -> Option<Self> {
        Some(Workload {
            name: name.to_string(),
            shape: shape(name)?,
            seed,
        })
    }

    /// Replicas per round.
    pub fn replicas(&self) -> usize {
        self.shape.replicas
    }

    /// Builds replica `r`: trace generation plus config build (what
    /// `setup_s` times). It draws from the `r`-th output of a splitmix64
    /// stream seeded with the workload seed, so replica seeds share no
    /// structure with each other or with the generators' own seeding.
    pub fn build(&self, r: usize) -> Replica {
        let step = (r as u64 + 1).wrapping_mul(GAMMA);
        replica(
            &self.name,
            self.shape,
            splitmix64(self.seed.wrapping_add(step)),
        )
    }
}

const GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// The splitmix64 finalizer.
fn splitmix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Builds one replica of workload `name` at `shape` from `seed`.
pub(crate) fn replica(name: &str, shape: Shape, seed: u64) -> Replica {
    let rate = shape.load * INSTANCE_CAPACITY * shape.instances as f64;
    let base = ShareGptProfile::default().with_arrival_rate(rate);
    let model = ModelSpec::llama2_13b();
    let scale = Scale {
        sessions: shape.sessions,
        warmup_turns: 0,
    };
    let mut engine = scaled_config(Mode::CachedAttention, model, scale);
    let mut telemetry_window_secs = None;
    let (trace, cluster) = match name {
        "shared_prefix" => {
            engine.store.keying = KeyingMode::ContentAddressed;
            let scenario = PrefixScenario::SharedSystemPrompt {
                pools: 4,
                prompt_tokens: 1024,
            };
            let trace = PrefixProfile::new(base, scenario).trace(seed, shape.sessions);
            (trace, cluster(engine, shape))
        }
        "flash_crowd" => {
            let profile = base.with_surge(Surge {
                start_secs: 60.0,
                duration_secs: 240.0,
                factor: 4.0,
            });
            let target = Dur::from_secs_f64(TTFT_SLO_SECS);
            let mut trace = Generator::new(profile, seed).trace(shape.sessions);
            for t in trace.sessions.iter_mut().flat_map(|s| s.turns.iter_mut()) {
                t.ttft_deadline = Some(target);
            }
            telemetry_window_secs = Some(30.0);
            let cluster = cluster(engine, shape)
                .with_slo(autoscaled(target))
                .with_faults(chaos_plan(seed, 1.0));
            (trace, cluster)
        }
        _ => {
            let trace = Generator::new(base, seed).trace(shape.sessions);
            (trace, cluster(engine, shape))
        }
    };
    let tiers = &cluster.engine.cluster.tiers;
    let cost = CostBasis {
        base_instances: shape.instances as u32,
        gpus_per_instance: cluster.engine.cluster.n_gpus,
        dram_bytes: tiers[0].capacity,
        ssd_bytes: tiers.iter().skip(1).map(|t| t.capacity).sum(),
    };
    Replica {
        trace,
        cluster,
        telemetry_window_secs,
        cost,
    }
}

fn cluster(engine: engine::EngineConfig, shape: Shape) -> ClusterConfig {
    ClusterConfig::new(engine, shape.instances, RouterKind::SessionAffinity)
}
