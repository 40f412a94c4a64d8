//! Host-time throughput gate: how fast is the simulator itself?
//!
//! ```text
//! exp_scale                      # CI bench preset (~4K sessions, seconds)
//!           --full               # acceptance scale: 100K sessions, 8
//!                                # instances, diurnal arrivals (minutes)
//!           --shared-prefix      # CI content-addressed preset: shared
//!                                # system prompts under block keying
//!           --sessions N         # override session count
//!           --instances N        # override instance count
//!           --rate F             # override mean arrival rate (/sec)
//!           --heartbeat F        # stderr progress line every F host secs
//!           --flat               # disable the diurnal arrival wave
//!           --out PATH           # write BENCH_scale.json-style JSON
//!           --baseline PATH      # diff against a committed bench;
//!                                # exit 1 on regression
//!           --tolerance F        # host-field band (default 0.5)
//!           --trace-out PATH     # two-clock Chrome trace: virtual-time
//!                                # serving events next to a host-time
//!                                # self-profile track (keep this small)
//! ```
//!
//! Unlike every other experiment, the interesting output here is
//! host-clock: events dispatched per wall second, total wall time, peak
//! RSS, and the per-scope self-profile saying where the host time went.
//! The virtual fields (event count, makespan, hit rate) ride along as a
//! determinism fingerprint the baseline compare pins exactly.

use bench_suite::experiments::scale::{
    compare_scale, render, run_scale, scale_config, scale_trace, to_bench, ScaleOpts, ScaleRun,
    DEFAULT_HOST_TOLERANCE,
};
use serde::{Serialize, Value};
use sim::{profiler, ProfilerConfig};
use std::path::PathBuf;
use telemetry::{run_cluster_with_telemetry, to_chrome_trace_two_clock};

fn arg_value(flag: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1))
        .cloned()
}

fn has_flag(flag: &str) -> bool {
    std::env::args().any(|a| a == flag)
}

fn main() {
    let mut opts = if has_flag("--full") {
        ScaleOpts::full()
    } else if has_flag("--shared-prefix") {
        ScaleOpts::shared_prefix_bench()
    } else {
        ScaleOpts::bench()
    };
    if let Some(n) = arg_value("--sessions").and_then(|s| s.parse().ok()) {
        opts.sessions = n;
    }
    if let Some(n) = arg_value("--instances").and_then(|s| s.parse().ok()) {
        opts.instances = n;
    }
    if let Some(r) = arg_value("--rate").and_then(|s| s.parse().ok()) {
        opts.arrival_rate = r;
    }
    if let Some(h) = arg_value("--heartbeat").and_then(|s| s.parse().ok()) {
        opts.heartbeat_secs = Some(h);
    }
    if has_flag("--flat") {
        opts.diurnal = None;
    }
    let out = arg_value("--out").map(PathBuf::from);
    let baseline = arg_value("--baseline").map(PathBuf::from);
    let tolerance = arg_value("--tolerance")
        .and_then(|s| s.parse::<f64>().ok())
        .unwrap_or(DEFAULT_HOST_TOLERANCE);
    let trace_outs: Vec<PathBuf> = {
        let args: Vec<String> = std::env::args().collect();
        args.iter()
            .enumerate()
            .filter(|(_, a)| a.as_str() == "--trace-out")
            .filter_map(|(i, _)| args.get(i + 1).map(PathBuf::from))
            .collect()
    };

    let run = if trace_outs.is_empty() {
        run_scale(&opts)
    } else {
        // Two-clock export: the verbatim trace costs memory proportional
        // to the event count, so this path is for smoke-scale runs.
        let trace = scale_trace(&opts);
        let trace_turns = trace.total_turns() as u64;
        profiler::begin(ProfilerConfig {
            heartbeat_secs: opts.heartbeat_secs,
        });
        let (report, tel) = run_cluster_with_telemetry(scale_config(&opts), trace);
        let profile = profiler::finish();
        for path in &trace_outs {
            let body = to_chrome_trace_two_clock(tel.records(), &profile);
            std::fs::write(path, body).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
            eprintln!(
                "[exp_scale] wrote {} ({} serving events + {} self-profile scopes)",
                path.display(),
                tel.records().len(),
                profile.scopes.len()
            );
        }
        ScaleRun {
            report,
            profile,
            trace_turns,
        }
    };

    let bench = to_bench(&opts, &run);
    print!("{}", render(&bench));

    if let Some(path) = &out {
        let mut json = serde_json::to_string_pretty(&bench).expect("benches always serialize");
        json.push('\n');
        std::fs::write(path, json).unwrap_or_else(|e| panic!("write {}: {e}", path.display()));
        eprintln!("[exp_scale] wrote {}", path.display());
    }

    if let Some(path) = &baseline {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| panic!("read baseline {}: {e}", path.display()));
        let base: Value = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("parse baseline {}: {e}", path.display()));
        let fails = compare_scale(&base, &bench.to_value(), tolerance);
        if fails.is_empty() {
            println!(
                "throughput gate: PASS vs {} (host tolerance {:.0}%)",
                path.display(),
                tolerance * 100.0
            );
        } else {
            eprintln!(
                "throughput gate: FAIL vs {} (host tolerance {:.0}%)",
                path.display(),
                tolerance * 100.0
            );
            for f in &fails {
                eprintln!("  - {f}");
            }
            std::process::exit(1);
        }
    }
}
