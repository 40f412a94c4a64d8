//! `ca-sim`: the CachedAttention serving simulator CLI.
//!
//! ```console
//! $ ca-sim models
//! $ ca-sim trace --sessions 500 --rate 1.0 --out trace.json
//! $ ca-sim run --sessions 500 --model llama-13b --mode ca
//! $ ca-sim run --trace trace.json --model llama-70b --mode re
//! $ ca-sim compare --sessions 500 --model falcon-40b
//! ```

use cachedattention::engine::{run_trace, EngineConfig, Mode, RunReport};
use cachedattention::metrics::table::{pct, secs, Table};
use cachedattention::models::ModelSpec;
use cachedattention::store::PolicyKind;
use cachedattention::workload::{Generator, ShareGptProfile, Trace};
use std::process::ExitCode;

/// Minimal flag parser: `--name value` pairs after the subcommand.
struct Args {
    raw: Vec<String>,
}

impl Args {
    fn get(&self, name: &str) -> Option<&str> {
        self.raw
            .iter()
            .position(|a| a == name)
            .and_then(|i| self.raw.get(i + 1))
            .map(String::as_str)
    }

    fn get_parse<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("invalid value for {name}: {v}")),
        }
    }

    /// [`get_parse`](Args::get_parse) for a number that must satisfy
    /// `ok`: values outside the flag's `domain` are usage errors, before
    /// they can panic a constructor or be cast into nonsense.
    fn get_checked(
        &self,
        name: &str,
        default: f64,
        ok: fn(f64) -> bool,
        domain: &str,
    ) -> Result<f64, String> {
        let v: f64 = self.get_parse(name, default)?;
        if ok(v) {
            Ok(v)
        } else {
            Err(format!("{name} must be {domain}, got {v}"))
        }
    }
}

fn model_by_name(name: &str) -> Result<ModelSpec, String> {
    match name.to_lowercase().as_str() {
        "llama-13b" | "llama2-13b" => Ok(ModelSpec::llama2_13b()),
        "llama-65b" | "llama1-65b" => Ok(ModelSpec::llama1_65b()),
        "llama-70b" | "llama2-70b" => Ok(ModelSpec::llama2_70b()),
        "falcon-40b" => Ok(ModelSpec::falcon_40b()),
        "mistral-7b" => Ok(ModelSpec::mistral_7b()),
        "llama-7b" | "llama1-7b" => Ok(ModelSpec::llama1_7b()),
        "opt-13b" => Ok(ModelSpec::opt_13b()),
        other => Err(format!("unknown model '{other}'; see `ca-sim models`")),
    }
}

fn mode_by_name(name: &str) -> Result<Mode, String> {
    match name.to_lowercase().as_str() {
        "ca" => Ok(Mode::CachedAttention),
        "re" => Ok(Mode::Recompute),
        "of" => Ok(Mode::CoupledOverflow),
        other => Err(format!("unknown mode '{other}' (ca | re | of)")),
    }
}

fn policy_by_name(name: &str) -> Result<PolicyKind, String> {
    match name.to_lowercase().as_str() {
        "sa" | "scheduler-aware" => Ok(PolicyKind::SchedulerAware),
        "lru" => Ok(PolicyKind::Lru),
        "fifo" => Ok(PolicyKind::Fifo),
        other => Err(format!("unknown policy '{other}' (sa | lru | fifo)")),
    }
}

fn load_or_generate_trace(args: &Args) -> Result<Trace, String> {
    if let Some(path) = args.get("--trace") {
        let json = std::fs::read_to_string(path).map_err(|e| format!("read {path}: {e}"))?;
        return Trace::from_json(&json).map_err(|e| format!("parse {path}: {e}"));
    }
    let sessions: usize = args.get_parse("--sessions", 300)?;
    let positive = |r: f64| r > 0.0 && r.is_finite();
    let rate = args.get_checked("--rate", 1.0, positive, "positive and finite")?;
    let seed: u64 = args.get_parse("--seed", 42)?;
    let profile = ShareGptProfile::default().with_arrival_rate(rate);
    Ok(Generator::new(profile, seed).trace(sessions))
}

fn build_config(args: &Args, mode: Mode, model: ModelSpec) -> Result<EngineConfig, String> {
    let mut cfg = EngineConfig::paper(mode, model);
    if let Some(p) = args.get("--policy") {
        cfg.store.policy = policy_by_name(p)?;
    }
    let capacity = |c: f64| c >= 0.0 && c.is_finite();
    let domain = "non-negative and finite";
    let dram_gb = args.get_checked(
        "--dram-gb",
        cfg.store.dram_bytes() as f64 / 1e9,
        capacity,
        domain,
    )?;
    let disk_tb = args.get_checked(
        "--disk-tb",
        cfg.store.disk_bytes() as f64 / 1e12,
        capacity,
        domain,
    )?;
    cfg.store.set_dram_bytes((dram_gb * 1e9) as u64);
    cfg.store.set_disk_bytes((disk_tb * 1e12) as u64);
    let fraction = |c: f64| c > 0.0 && c <= 1.0;
    cfg.kv_compression = args.get_checked("--compression", 1.0, fraction, "in (0, 1]")?;
    cfg.warmup_turns = args.get_parse("--warmup-turns", 0usize)?;
    Ok(cfg)
}

fn report_rows(r: &RunReport) -> Vec<(String, String)> {
    vec![
        ("sessions done".into(), r.sessions_done.get().to_string()),
        ("turns measured".into(), r.turns_measured.get().to_string()),
        ("hit rate".into(), pct(r.hit_rate())),
        ("DRAM hit share".into(), pct(r.fast_hit_rate())),
        ("mean TTFT".into(), secs(r.ttft_mean())),
        ("mean queue wait".into(), secs(r.queue_wait.mean())),
        (
            "prefill throughput".into(),
            format!("{:.0} tok/s", r.prefill_throughput()),
        ),
        ("GPU busy hours".into(), format!("{:.3}", r.busy_hours())),
        ("makespan hours".into(), format!("{:.3}", r.gpu_hours())),
        ("tokens recomputed".into(), pct(r.recompute_fraction())),
        ("truncations".into(), r.truncations.get().to_string()),
    ]
}

fn cmd_models() -> ExitCode {
    let mut t = Table::new(
        "model presets",
        &["name", "params", "layers", "kv MB/token", "context"],
    );
    for m in [
        ModelSpec::llama1_7b(),
        ModelSpec::llama2_13b(),
        ModelSpec::opt_13b(),
        ModelSpec::falcon_40b(),
        ModelSpec::llama1_65b(),
        ModelSpec::llama2_70b(),
        ModelSpec::mistral_7b(),
    ] {
        t.row(&[
            m.name.to_lowercase(),
            format!("{}B", m.n_params / 1_000_000_000),
            m.n_layers.to_string(),
            format!("{:.2}", m.kv_bytes_per_token() as f64 / 1e6),
            m.context_window.to_string(),
        ]);
    }
    println!("{}", t.render());
    ExitCode::SUCCESS
}

fn cmd_trace(args: &Args) -> Result<(), String> {
    let trace = load_or_generate_trace(args)?;
    let out = args.get("--out").unwrap_or("trace.json");
    std::fs::write(out, trace.to_json()).map_err(|e| format!("write {out}: {e}"))?;
    println!(
        "wrote {} sessions / {} turns to {out}",
        trace.sessions.len(),
        trace.total_turns()
    );
    Ok(())
}

fn cmd_run(args: &Args) -> Result<(), String> {
    let model = model_by_name(args.get("--model").unwrap_or("llama-13b"))?;
    let mode = mode_by_name(args.get("--mode").unwrap_or("ca"))?;
    let trace = load_or_generate_trace(args)?;
    let cfg = build_config(args, mode, model)?;
    let r = run_trace(cfg, trace);
    let mut t = Table::new(format!("{} / {}", r.model, r.mode), &["metric", "value"]);
    for (k, v) in report_rows(&r) {
        t.row(&[k, v]);
    }
    println!("{}", t.render());
    println!(
        "GPU utilization over time ({}s buckets):\n{}",
        r.gpu_busy_timeline.bucket_secs(),
        r.gpu_busy_timeline.sparkline(72)
    );
    Ok(())
}

fn cmd_compare(args: &Args) -> Result<(), String> {
    let model = model_by_name(args.get("--model").unwrap_or("llama-13b"))?;
    let trace = load_or_generate_trace(args)?;
    let ca = run_trace(
        build_config(args, Mode::CachedAttention, model.clone())?,
        trace.clone(),
    );
    let re = run_trace(build_config(args, Mode::Recompute, model.clone())?, trace);
    let mut t = Table::new(
        format!("{}: CachedAttention vs recomputation", model.name),
        &["metric", "CA", "RE"],
    );
    for ((k, a), (_, b)) in report_rows(&ca).into_iter().zip(report_rows(&re)) {
        t.row(&[k, a, b]);
    }
    println!("{}", t.render());
    Ok(())
}

const USAGE: &str = "\
ca-sim: CachedAttention serving simulator

USAGE:
  ca-sim models
  ca-sim trace   [--sessions N] [--rate R] [--seed S] [--out FILE]
  ca-sim run     [--trace FILE | --sessions N] [--model NAME] [--mode ca|re|of]
                 [--policy sa|lru|fifo] [--dram-gb G] [--disk-tb T]
                 [--compression R] [--warmup-turns N]
  ca-sim compare [--trace FILE | --sessions N] [--model NAME] [run options]
";

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let Some(cmd) = raw.first().cloned() else {
        eprint!("{USAGE}");
        return ExitCode::FAILURE;
    };
    let args = Args {
        raw: raw[1..].to_vec(),
    };
    let result = match cmd.as_str() {
        "models" => return cmd_models(),
        "trace" => cmd_trace(&args),
        "run" => cmd_run(&args),
        "compare" => cmd_compare(&args),
        "help" | "--help" | "-h" => {
            print!("{USAGE}");
            Ok(())
        }
        other => Err(format!("unknown command '{other}'\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
