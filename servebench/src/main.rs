//! Two-clock serving benchmark for the CachedAttention simulator.
//!
//! ```text
//! servebench --workload <name> [--seed N] [--seconds S] [--trace 0|1]
//! ```
//!
//! One process runs one workload. `--trace 0` prints the end-to-end
//! metrics: what the simulated serving system delivers (virtual clock:
//! TTFT, TPOT, SLO attainment, $ per 1k turns) and what the simulator
//! costs to run (host clock: turns/s, set-up time, peak RSS). `--trace 1`
//! repeats the run with the self-profiler on and prints the per-layer
//! metrics. The last stdout line is one JSON object. See `README.md`.

mod collect;
mod reference;
mod run;
mod workloads;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use crate::collect::Virtual;
use crate::run::{Ops, Round};
use crate::workloads::Workload;

/// Seed used when `--seed` is absent.
const DEFAULT_SEED: u64 = 20240418;
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 120.0) {
                    return Err(bad(&"must be in (0, 120]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if Workload::new(&args.workload, args.seed).is_none() {
        return Err(format!(
            "--workload must be one of {}",
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

fn median(v: &[f64]) -> f64 {
    let mut v = v.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Named metrics in print order.
#[derive(Default)]
struct Metrics(Vec<(String, f64, &'static str)>);

impl Metrics {
    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push((name.to_string(), value, unit));
    }

    fn json(&self) -> String {
        let fields: Vec<String> = self
            .0
            .iter()
            .map(|(n, v, u)| format!("\"{n}\": {{\"value\": {v}, \"unit\": \"{u}\"}}"))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

fn print_turns(args: &Args, w: &Workload, v: &Virtual) {
    println!(
        "workload {} seed {} ({} replicas): store starts empty, no warm-up, every turn counts",
        args.workload,
        args.seed,
        w.replicas()
    );
    println!(
        "turns: attempted {} succeeded {} failed {} (sheds {}); samples: ttft {} tpot {}",
        v.trace_turns,
        v.retired,
        v.trace_turns - v.retired,
        v.sheds,
        v.ttft_samples,
        v.tpot_samples
    );
}

/// Whether another round, taking about `last` seconds like the one
/// before, still fits the `seconds` budget that began at `start`.
fn fits(start: Instant, seconds: f64, last: f64) -> bool {
    start.elapsed().as_secs_f64() + last <= seconds
}

/// The elementwise minimum of equal-length series, summed. Each element
/// is the host time of one fixed piece of deterministic work, so a busy
/// host can only add to it, and its fastest repeat is its best estimate.
fn sum_of_fastest<'a>(series: impl Iterator<Item = &'a [f64]>) -> f64 {
    let mut best: Vec<f64> = Vec::new();
    for s in series {
        if best.is_empty() {
            best = s.to_vec();
        }
        for (b, x) in best.iter_mut().zip(s) {
            *b = b.min(*x);
        }
    }
    best.iter().sum()
}

/// Host seconds of the whole input: per replica and per lap of its run
/// call, the fastest time over the rounds, summed. The host's speed
/// changes from one second to the next (a fixed loop on a shared 2-vCPU
/// VM switched between 0.04 s and 0.065 s about every second), so short
/// laps let each piece of work be taken from a fast stretch, which one
/// fastest whole run call of several seconds cannot.
fn host_secs<'a>(rounds: impl Iterator<Item = &'a Round> + Clone, replicas: usize) -> f64 {
    (0..replicas)
        .map(|r| sum_of_fastest(rounds.clone().map(|round| round.runs[r].laps.as_slice())))
        .sum()
}

/// Host seconds of set-up: per replica, its fastest build over the
/// rounds, summed.
fn setup_secs<'a>(rounds: impl Iterator<Item = &'a Round>) -> f64 {
    sum_of_fastest(rounds.map(|r| r.build_secs.as_slice()))
}

/// The factor that rescales host seconds measured in these rounds to the
/// reference host: nominal ÷ measured seconds of one reference kernel
/// call, taking per replica the fastest sample over the rounds, as for
/// the laps.
fn to_reference<'a>(rounds: impl Iterator<Item = &'a Round>, replicas: usize) -> f64 {
    let per_call = sum_of_fastest(rounds.map(|r| r.reference_secs.as_slice())) / replicas as f64;
    reference::NOMINAL_SECS / per_call
}

fn print_host(scale: f64, turns_per_s: f64, setup_s: f64) {
    println!(
        "host speed: reference kernel {:.4} ms per call, nominal {:.4} ms; as measured: {turns_per_s:.0} turns/s, set-up {setup_s:.6} s",
        reference::NOMINAL_SECS / scale * 1e3,
        reference::NOMINAL_SECS * 1e3
    );
}

/// `--trace 0`: rounds of every replica, profiler off, while they fit in
/// `--seconds` (at least one). Each replica is built right before its
/// run call. The virtual metrics come from the first round, which pools
/// the replicas' samples; every later round must reproduce it exactly.
fn end_to_end(args: &Args, w: &Workload, ops: &mut Ops, m: &mut Metrics) {
    let start = Instant::now();
    let n = w.replicas();
    let Some(first) = ops.round(w, false, true) else {
        return;
    };
    let mut last = start.elapsed().as_secs_f64();
    let mut rounds = vec![first];
    while fits(start, args.seconds, last) {
        let t = Instant::now();
        let Some(round) = ops.round(w, false, false) else {
            break;
        };
        if !ops.check(rounds[0].check_same(&round, "same-seed rerun")) {
            break;
        }
        rounds.push(round);
        last = t.elapsed().as_secs_f64();
    }
    let first = &rounds[0];
    let v = first.tally.metrics();
    print_turns(args, w, &v);
    println!("host rounds {}", rounds.len());
    let turns_per_s = first.turns() as f64 / host_secs(rounds.iter(), n);
    let setup_s = setup_secs(rounds.iter());
    let scale = to_reference(rounds.iter(), n);
    print_host(scale, turns_per_s, setup_s);
    m.put("sim_turns_per_s", turns_per_s / scale, "turns/s");
    // The peak after the first replica: each later replica in the same
    // process adds what the allocator kept from the ones before (a
    // 2,000-session replica at twice the fleet's capacity peaks at
    // 8.4-8.8 MiB alone and at 12-15.8 MiB after seven others, depending
    // on the seed).
    m.put(
        "peak_rss_mib",
        first.runs[0].peak_rss_bytes as f64 / (1u64 << 20) as f64,
        "MiB",
    );
    m.put("setup_s", setup_s * scale, "s");
    m.put("ttft_p50_s", v.ttft_p50_s, "s");
    m.put("ttft_p99_s", v.ttft_p99_s, "s");
    m.put("tpot_p99_ms", v.tpot_p99_ms, "ms");
    m.put("slo_attainment", v.slo_attainment, "fraction");
    m.put("usd_per_1k_turns", v.usd_per_1k_turns, "USD");
}

/// `--trace 1`: one untraced round that pools the samples, as in
/// `--trace 0`, then pairs of an untraced and a traced round while they
/// fit in `--seconds` (at least one pair). The traced round must
/// reproduce the untraced one exactly. Host times take each lap's fastest
/// round, as in `--trace 0`; per-scope self times are medians over the
/// traced rounds.
fn per_layer(args: &Args, w: &Workload, ops: &mut Ops, m: &mut Metrics) {
    let start = Instant::now();
    let n = w.replicas();
    let Some(r) = ops.round(w, false, true) else {
        return;
    };
    let mut pairs: Vec<(Round, Round)> = Vec::new();
    let mut last = 0.0;
    while pairs.is_empty() || fits(start, args.seconds, last) {
        let t = Instant::now();
        let Some(plain) = ops.round(w, false, false) else {
            break;
        };
        let Some(traced) = ops.round(w, true, false) else {
            break;
        };
        if !ops.check(plain.check_same(&traced, "traced run"))
            || !ops.check(r.check_same(&plain, "same-seed rerun"))
        {
            break;
        }
        pairs.push((plain, traced));
        last = t.elapsed().as_secs_f64();
    }
    let Some((_, t0)) = pairs.first() else { return };
    let v = r.tally.metrics();
    print_turns(args, w, &v);
    let over_traced =
        |f: &dyn Fn(&Round) -> f64| median(&pairs.iter().map(|(_, t)| f(t)).collect::<Vec<_>>());
    let plain = || std::iter::once(&r).chain(pairs.iter().map(|(p, _)| p));
    let scale = to_reference(plain(), n);
    let self_ms = |name: &str| over_traced(&|t| t.scope(name).0) * scale;
    let plain_secs = host_secs(plain(), n) * scale;
    let traced_secs = host_secs(pairs.iter().map(|(_, t)| t), n) * scale;
    let turns = r.turns() as f64;
    let trace_gen_s = setup_secs(plain());
    print_host(scale, turns / plain_secs * scale, trace_gen_s);
    let events = t0.sum(|o| o.profile.as_ref().map_or(0, |p| p.events));
    let overload = |f: fn(&engine::OverloadReport) -> u64| r.sum(|o| f(&o.counters.overload));
    let store = |f: fn(&store::StoreStats) -> u64| r.sum(|o| f(&o.counters.store));

    m.put("workload.trace_gen_s", trace_gen_s * scale, "s");
    m.put("sim.events", events, "count");
    m.put("sim.host_ns_per_event", plain_secs * 1e9 / events, "ns");
    m.put("sim.untraced_turns_per_s", turns / plain_secs, "turns/s");
    m.put("sim.traced_turns_per_s", turns / traced_secs, "turns/s");
    m.put(
        "engine.merged_view_self_ms",
        self_ms("cluster.merged_view"),
        "ms",
    );
    m.put(
        "engine.merged_view_calls",
        t0.scope("cluster.merged_view").1,
        "count",
    );
    m.put(
        "engine.sched_snapshot_self_ms",
        self_ms("sched.snapshot"),
        "ms",
    );
    m.put("engine.dispatch_self_ms", self_ms("cluster.dispatch"), "ms");
    m.put("engine.admit_self_ms", self_ms("cluster.admit"), "ms");
    m.put("engine.queue_wait_p99_s", v.queue_wait_p99_s, "s");
    m.put("engine.service_ttft_p50_s", v.service_ttft_p50_s, "s");
    m.put("engine.stall_s", v.stall_s, "s");
    m.put(
        "engine.overlap_hidden_frac",
        v.overlap_hidden_frac,
        "fraction",
    );
    m.put("engine.recompute_frac", v.recompute_frac, "fraction");
    m.put("engine.gpu_busy_frac", v.gpu_busy_frac, "fraction");
    m.put("engine.turns_failed_frac", v.turns_failed_frac, "fraction");
    m.put("engine.slo.sheds", overload(|o| o.turns_shed), "count");
    m.put(
        "engine.slo.degraded_recomputes",
        overload(|o| o.degraded_recomputes),
        "count",
    );
    m.put(
        "engine.slo.level_transitions",
        overload(|o| o.level_transitions),
        "count",
    );
    m.put("engine.slo.scale_ups", overload(|o| o.scale_ups), "count");
    let peak = r
        .runs
        .iter()
        .map(|o| o.counters.overload.peak_instances)
        .max();
    m.put(
        "engine.slo.peak_instances",
        peak.unwrap_or(0) as f64,
        "count",
    );
    for op in [
        "reserve",
        "prefetch",
        "make_room",
        "save",
        "fetch",
        "trie_probe",
        "prefix_match",
    ] {
        let name = format!("store.{op}");
        m.put(&format!("{name}_self_ms"), self_ms(&name), "ms");
    }
    m.put("store.consult_fast_frac", v.consult_fast_frac, "fraction");
    m.put("store.consult_slow_frac", v.consult_slow_frac, "fraction");
    m.put("store.consult_miss_frac", v.consult_miss_frac, "fraction");
    m.put("store.demotions", store(|s| s.demotions), "count");
    m.put("store.promotions", store(|s| s.promotions), "count");
    m.put("store.drops_capacity", store(|s| s.drops_capacity), "count");
    let deduped = r.sum(|o| o.counters.dedup.dedup_blocks);
    let fresh = r.sum(|o| o.counters.dedup.new_blocks);
    let dedup_ratio = if deduped + fresh > 0.0 {
        deduped / (deduped + fresh)
    } else {
        0.0
    };
    m.put("store.dedup_ratio", dedup_ratio, "fraction");
    m.put(
        "store.read_retries",
        r.sum(|o| o.counters.faults.read_retries),
        "count",
    );
    m.put(
        "store.recompute_fallbacks",
        r.sum(|o| o.counters.faults.recompute_fallbacks),
        "count",
    );
    let ns_per_event = over_traced(&|t| {
        let calls = t.sum(|o| o.telemetry_calls);
        if calls > 0.0 {
            t.sum(|o| o.telemetry_ns) / calls
        } else {
            0.0
        }
    });
    m.put(
        "telemetry.observer_ns_per_event",
        ns_per_event * scale,
        "ns",
    );
    m.put("telemetry.records", r.sum(|o| o.telemetry_records), "count");
    m.put(
        "telemetry.dispatch_self_ms",
        self_ms("telemetry.dispatch"),
        "ms",
    );

    println!(
        "store consults per consult: fast {:.4} slow {:.4} miss {:.4}; RunReport::hit_rate() of replica 0: {:.4}",
        v.consult_fast_frac,
        v.consult_slow_frac,
        v.consult_miss_frac,
        r.runs[0].counters.report_hit_rate
    );

    // Where the host time goes: each scope's self time as a share of the
    // first traced round's wall time.
    println!(
        "traced pairs {}; tracing overhead {:.1}% ({:.0} -> {:.0} turns/s)",
        pairs.len(),
        (traced_secs / plain_secs - 1.0) * 100.0,
        turns / plain_secs,
        turns / traced_secs
    );
    let wall: f64 = t0.profiles().map(|p| p.wall_secs).sum();
    let mut shares: BTreeMap<&str, (u64, u64)> = BTreeMap::new();
    for s in t0.scopes() {
        let e = shares.entry(&s.name).or_default();
        e.0 += s.self_ns;
        e.1 += s.calls;
    }
    let mut shares: Vec<_> = shares.into_iter().collect();
    shares.sort_by_key(|(_, (ns, _))| std::cmp::Reverse(*ns));
    println!("self-time shares of traced wall {wall:.3} s:");
    for (name, (ns, calls)) in shares {
        println!(
            "  {name:<22} {:>6.1}%  {calls:>10} calls",
            ns as f64 / 1e9 / wall * 100.0
        );
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("servebench: {e}");
            return ExitCode::from(2);
        }
    };
    // A panicking run is reported as a failed operation, not a crash.
    std::panic::set_hook(Box::new(|info| eprintln!("servebench: {info}")));
    let w = Workload::new(&args.workload, args.seed).expect("parse_args checked the name");
    let mut ops = Ops::default();
    let mut m = Metrics::default();
    if args.trace {
        per_layer(&args, &w, &mut ops, &mut m);
    } else {
        end_to_end(&args, &w, &mut ops, &mut m);
    }
    for why in &ops.failures {
        eprintln!("servebench: FAILED: {why}");
    }
    let correct = ops.failures.is_empty();
    if correct {
        for (name, value, unit) in &m.0 {
            println!("{name:<34} {value:>16.6} {unit}");
        }
    }
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        ops.attempted,
        ops.failures.len(),
        m.json()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
