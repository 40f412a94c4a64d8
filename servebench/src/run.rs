//! One run call: the program under test, the benchmark-owned observer
//! around it, and the correctness checks on what came back.

use std::collections::hash_map::DefaultHasher;
use std::hash::{Hash, Hasher};
use std::panic::{self, AssertUnwindSafe};
use std::time::Instant;

use engine::{ClusterReport, EngineEvent, EngineObserver, FaultReport, OverloadReport};
use sim::profiler::{self, ProfilerConfig, ScopeProfile, SelfProfile};
use store::{DedupStats, StoreEvent, StoreStats};
use telemetry::Telemetry;

use crate::collect::{Collector, Tally, Virtual};
use crate::reference;
use crate::workloads::{Replica, Workload};

/// A 64-bit hash that is the same in every process (SipHash with fixed
/// keys).
fn hash(x: &impl Hash) -> u64 {
    let mut h = DefaultHasher::new();
    x.hash(&mut h);
    h.finish()
}

/// The observer every run attaches: the metric collector, plus the
/// telemetry stack on the workloads that pay for it. In a traced run a
/// timing shim measures the host time spent inside the telemetry calls.
pub struct BenchObserver {
    collector: Collector,
    telemetry: Option<Telemetry>,
    shim: Option<Shim>,
    laps: Laps,
}

/// Engine events per lap.
const LAP_EVENTS: u64 = 1024;

/// The run call's host time, cut into laps of [`LAP_EVENTS`] engine
/// events. A replica's event stream is the same in every round, so lap
/// `i` is the same work each time it is run, and the fastest time of
/// each lap over the rounds can be added up (see `host_secs` in
/// `main.rs`).
struct Laps {
    events: u64,
    last: Instant,
    secs: Vec<f64>,
}

impl Laps {
    fn start() -> Self {
        Laps {
            events: 0,
            last: Instant::now(),
            secs: Vec::new(),
        }
    }

    fn lap(&mut self) {
        let now = Instant::now();
        self.secs.push((now - self.last).as_secs_f64());
        self.last = now;
    }

    fn tick(&mut self) {
        self.events += 1;
        if self.events.is_multiple_of(LAP_EVENTS) {
            self.lap();
        }
    }
}

/// Host time spent in the wrapped observer calls.
#[derive(Debug, Clone, Copy, Default)]
struct Shim {
    ns: u64,
    calls: u64,
}

impl BenchObserver {
    fn telemetry(&mut self, f: impl FnOnce(&mut Telemetry)) {
        let Some(tel) = self.telemetry.as_mut() else {
            return;
        };
        match self.shim.as_mut() {
            Some(shim) => {
                let t0 = Instant::now();
                f(tel);
                shim.ns += t0.elapsed().as_nanos() as u64;
                shim.calls += 1;
            }
            None => f(tel),
        }
    }
}

impl EngineObserver for BenchObserver {
    fn on_event(&mut self, ev: EngineEvent) {
        self.laps.tick();
        self.collector.on_event(ev);
        self.telemetry(|t| t.on_event(ev));
    }

    fn on_instance_event(&mut self, instance: u32, ev: EngineEvent) {
        self.laps.tick();
        self.collector.on_event(ev);
        self.telemetry(|t| t.on_instance_event(instance, ev));
    }

    fn wants_store_events(&self) -> bool {
        self.telemetry.is_some()
    }

    fn on_store_event(&mut self, ev: StoreEvent) {
        self.telemetry(|t| t.on_store_event(ev));
    }

    fn on_instance_store_event(&mut self, instance: u32, ev: StoreEvent) {
        self.telemetry(|t| t.on_instance_store_event(instance, ev));
    }
}

/// The run report's counters the per-layer metrics read.
#[derive(Debug, Clone, Copy)]
pub struct Counters {
    /// Fault-path counters.
    pub faults: FaultReport,
    /// Overload-path counters.
    pub overload: OverloadReport,
    /// Store placement counters.
    pub store: StoreStats,
    /// Cross-session dedup counters.
    pub dedup: DedupStats,
    /// `RunReport::hit_rate()`, kept to show its defect: under
    /// content-addressed keying it exceeds 1.
    pub report_hit_rate: f64,
}

/// What one run call produced.
pub struct Outcome {
    /// Trace turns of the replica.
    pub turns: u64,
    /// Host seconds inside the run call, in laps of [`LAP_EVENTS`]
    /// engine events (the last lap ends when the call returns).
    pub laps: Vec<f64>,
    /// The virtual-clock samples.
    pub tally: Tally,
    /// Length and 64-bit hash of the serialized cluster report, and a
    /// hash of the tally: equal digests stand for byte-identical reports
    /// and bit-identical samples, without keeping either alive (which
    /// would inflate the measured peak RSS).
    pub digest: (usize, u64, u64),
    /// The report's per-layer counters.
    pub counters: Counters,
    /// The process's peak RSS (`VmHWM`) right after the run call.
    pub peak_rss_bytes: u64,
    /// The self-profile, when the run was traced.
    pub profile: Option<SelfProfile>,
    /// Telemetry records kept (0 without the telemetry stack).
    pub telemetry_records: u64,
    /// Host ns inside the telemetry observer and the calls it took
    /// (traced runs with the telemetry stack only).
    pub telemetry_ns: u64,
    /// See [`Outcome::telemetry_ns`].
    pub telemetry_calls: u64,
}

/// Runs `replica` once. A traced run turns the self-profiler on and times
/// the telemetry observer; an untraced run does neither. Returns an error
/// naming the first correctness check that failed.
pub fn run_once(replica: &Replica, traced: bool) -> Result<Outcome, String> {
    let trace = replica.trace.clone();
    let cfg = replica.cluster.clone();
    let mut obs = BenchObserver {
        collector: Collector::new(&trace, replica.cost.base_instances),
        telemetry: replica.telemetry_window_secs.map(Telemetry::with_windows),
        shim: traced.then(Shim::default),
        laps: Laps::start(),
    };
    if traced {
        profiler::begin(ProfilerConfig::default());
    }
    // The clock starts right before the call, not with the observer.
    obs.laps = Laps::start();
    let (report, mut obs) = engine::run_cluster_with_observer(cfg, trace, obs);
    obs.laps.lap();
    let profile = traced.then(profiler::finish);
    let peak_rss_bytes = profiler::peak_rss_bytes().unwrap_or(0);

    let BenchObserver {
        collector,
        telemetry,
        shim,
        laps,
    } = obs;
    collector.check_conservation()?;
    if let Some(tel) = &telemetry {
        check_hub(tel, &report, &collector)?;
    }
    let a = &report.aggregate;
    let busy = a.prefill_busy_secs + a.decode_busy_secs + a.stall_secs;
    let tally = collector.finish(a.makespan_secs, busy, replica.cost);
    check_ranges(&tally.metrics())?;
    let json = serde_json::to_string(&report).map_err(|e| format!("report: {e}"))?;
    let digest = (json.len(), hash(&json), hash(&tally));
    let shim = shim.unwrap_or_default();
    Ok(Outcome {
        turns: replica.trace.total_turns() as u64,
        laps: laps.secs,
        tally,
        digest,
        counters: Counters {
            faults: report.faults,
            overload: report.overload,
            store: report.aggregate.store_stats,
            dedup: report.dedup,
            report_hit_rate: report.aggregate.hit_rate(),
        },
        peak_rss_bytes,
        profile,
        telemetry_records: telemetry.map_or(0, |t| t.records().len() as u64),
        telemetry_ns: shim.ns,
        telemetry_calls: shim.calls,
    })
}

/// The telemetry hub's counters must agree with the run report and the
/// collector: three folds of one event stream.
fn check_hub(tel: &Telemetry, report: &ClusterReport, c: &Collector) -> Result<(), String> {
    let s = tel.snapshot();
    let (f, o) = (&report.faults, &report.overload);
    let pairs = [
        ("turns_arrived", s.turns_arrived, c.turns_arrived()),
        ("retired", s.retired, c.retired()),
        ("turns_shed", s.turns_shed, o.turns_shed),
        (
            "level_transitions",
            s.overload_transitions,
            o.level_transitions,
        ),
        ("scale_ups", s.scale_ups, o.scale_ups),
        ("scale_downs", s.scale_downs, o.scale_downs),
        ("read_retries", s.read_retries, f.read_retries),
        ("read_failures", s.read_failures, f.read_failures),
        ("write_retries", s.write_retries, f.write_retries),
        ("write_failures", s.write_failures, f.write_failures),
        (
            "corruptions",
            s.corruptions_detected,
            f.corruptions_detected,
        ),
        // The hub counts every `DegradedRecompute`; the report splits
        // cache-path fallbacks from ladder-forced degradations.
        (
            "recompute_fallbacks",
            s.recompute_fallbacks,
            f.recompute_fallbacks + o.degraded_recomputes,
        ),
        ("instance_crashes", s.instance_crashes, f.instance_crashes),
        ("turns_rerouted", s.turns_rerouted, f.turns_rerouted),
        (
            "demotions",
            s.demotions,
            report.aggregate.store_stats.demotions,
        ),
    ];
    for (name, hub, other) in pairs {
        if hub != other {
            return Err(format!(
                "telemetry hub {name} = {hub}, report/events = {other}"
            ));
        }
    }
    Ok(())
}

/// Shares lie in [0, 1]; every figure is finite.
fn check_ranges(v: &Virtual) -> Result<(), String> {
    let shares = [
        ("slo_attainment", v.slo_attainment),
        ("turns_failed_frac", v.turns_failed_frac),
        ("overlap_hidden_frac", v.overlap_hidden_frac),
        ("recompute_frac", v.recompute_frac),
        ("consult_fast_frac", v.consult_fast_frac),
        ("consult_slow_frac", v.consult_slow_frac),
        ("consult_miss_frac", v.consult_miss_frac),
    ];
    for (name, x) in shares {
        if !(0.0..=1.0).contains(&x) {
            return Err(format!("{name} = {x} outside [0, 1]"));
        }
    }
    let all = [
        v.ttft_p50_s,
        v.ttft_p99_s,
        v.tpot_p99_ms,
        v.usd_per_1k_turns,
        v.queue_wait_p99_s,
        v.service_ttft_p50_s,
        v.stall_s,
        v.gpu_busy_frac,
    ];
    if all.iter().any(|x| !x.is_finite() || *x < 0.0) {
        return Err(format!("non-finite or negative virtual metric in {v:?}"));
    }
    Ok(())
}

/// Tally of run calls: each is one operation; a panic or a failed
/// correctness check fails it.
#[derive(Default)]
pub struct Ops {
    /// Run calls made.
    pub attempted: u64,
    /// Why each failed operation failed.
    pub failures: Vec<String>,
}

/// Times each replica is built per round; the fastest build is kept.
/// A build takes milliseconds, so a few more cost nothing and steady
/// `setup_s`.
const BUILDS: usize = 3;

/// Every replica of a workload run once.
pub struct Round {
    /// One outcome per replica, in replica order; their tallies are
    /// moved into `tally` or dropped.
    pub runs: Vec<Outcome>,
    /// The replicas' samples, pooled (empty unless the round pooled).
    pub tally: Tally,
    /// Host seconds of each replica's fastest build (trace generation
    /// and config build, outside the run calls), in replica order.
    pub build_secs: Vec<f64>,
    /// Host seconds of one reference kernel call, sampled right before
    /// each replica's build, in replica order.
    pub reference_secs: Vec<f64>,
}

impl Round {
    /// Trace turns over the replicas.
    pub fn turns(&self) -> u64 {
        self.runs.iter().map(|o| o.turns).sum()
    }

    /// Sum of `f` over the replicas' outcomes.
    pub fn sum(&self, f: impl Fn(&Outcome) -> u64) -> f64 {
        self.runs.iter().map(f).sum::<u64>() as f64
    }

    /// Self time of scope `name` summed over the replicas, in ms, and its
    /// calls (zero unless the round was traced).
    pub fn scope(&self, name: &str) -> (f64, f64) {
        let (mut ns, mut calls) = (0, 0);
        for s in self.scopes().filter(|s| s.name == name) {
            ns += s.self_ns;
            calls += s.calls;
        }
        (ns as f64 / 1e6, calls as f64)
    }

    /// Every profiled scope of every replica.
    pub fn scopes(&self) -> impl Iterator<Item = &ScopeProfile> {
        self.profiles().flat_map(|p| &p.scopes)
    }

    /// The replicas' self-profiles (traced rounds only).
    pub fn profiles(&self) -> impl Iterator<Item = &SelfProfile> {
        self.runs.iter().filter_map(|o| o.profile.as_ref())
    }

    /// Checks a repeat round against this one: the virtual clock is exact
    /// for a seed, so any difference is nondeterminism, or observation
    /// changing the run.
    pub fn check_same(&self, other: &Round, what: &str) -> Result<(), String> {
        for (i, (a, b)) in self.runs.iter().zip(&other.runs).enumerate() {
            if a.digest.0 != b.digest.0 || a.digest.1 != b.digest.1 {
                return Err(format!("{what}: replica {i}'s cluster report differs"));
            }
            if a.digest.2 != b.digest.2 {
                return Err(format!("{what}: replica {i}'s virtual samples differ"));
            }
            if a.laps.len() != b.laps.len() {
                return Err(format!("{what}: replica {i}'s engine event count differs"));
            }
        }
        Ok(())
    }
}

impl Ops {
    fn run(&mut self, replica: &Replica, traced: bool) -> Option<Outcome> {
        self.attempted += 1;
        let result = panic::catch_unwind(AssertUnwindSafe(|| run_once(replica, traced)))
            .unwrap_or_else(|p| {
                let msg = p
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                Err(format!("panic: {msg}"))
            });
        result.map_err(|e| self.failures.push(e)).ok()
    }

    /// Builds and runs every replica of `w` once, pooling their samples
    /// when `pool` is set; `None` when any run fails.
    pub fn round(&mut self, w: &Workload, traced: bool, pool: bool) -> Option<Round> {
        let n = w.replicas();
        let mut round = Round {
            runs: Vec::with_capacity(n),
            tally: Tally::default(),
            build_secs: Vec::with_capacity(n),
            reference_secs: Vec::with_capacity(n),
        };
        for r in 0..n {
            round.reference_secs.push(reference::sample(r as u64));
            let mut fastest = f64::INFINITY;
            let mut built = None;
            for _ in 0..BUILDS {
                drop(built.take());
                let t0 = Instant::now();
                let replica = std::hint::black_box(w.build(r));
                fastest = fastest.min(t0.elapsed().as_secs_f64());
                built = Some(replica);
            }
            round.build_secs.push(fastest);
            let replica = built.expect("BUILDS > 0");
            let mut o = self.run(&replica, traced)?;
            let tally = std::mem::take(&mut o.tally);
            if pool {
                round.tally.absorb(tally);
            }
            round.runs.push(o);
        }
        Some(round)
    }

    /// Records a failed cross-run check.
    pub fn check(&mut self, result: Result<(), String>) -> bool {
        match result {
            Ok(()) => true,
            Err(e) => {
                self.failures.push(e);
                false
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{replica, shape, Shape};

    /// Content-addressed keying: the per-consult shares the benchmark
    /// derives from `Consulted` events stay in [0, 1] and sum to 1, while
    /// `RunReport::hit_rate()` on the same run exceeds 1 (the defect the
    /// benchmark's README records).
    #[test]
    fn shared_prefix_consult_shares_stay_in_unit_interval() {
        let small = Shape {
            replicas: 1,
            sessions: 150,
            ..shape("shared_prefix").expect("known workload")
        };
        let o = run_once(&replica("shared_prefix", small, 7), false).expect("checks pass");
        let v = o.tally.metrics();
        let shares = [
            v.consult_fast_frac,
            v.consult_slow_frac,
            v.consult_miss_frac,
        ];
        assert!(shares.iter().all(|x| (0.0..=1.0).contains(x)), "{shares:?}");
        assert!(
            (shares.iter().sum::<f64>() - 1.0).abs() < 1e-9,
            "{shares:?}"
        );
        assert!(
            o.counters.report_hit_rate > 1.0,
            "hit_rate() = {}",
            o.counters.report_hit_rate
        );
    }
}
