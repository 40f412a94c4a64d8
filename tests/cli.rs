//! End-to-end tests of the `ca-sim` CLI binary.

use std::process::Command;

fn ca_sim() -> Command {
    Command::new(env!("CARGO_BIN_EXE_ca-sim"))
}

#[test]
fn models_lists_presets() {
    let out = ca_sim().arg("models").output().expect("run ca-sim");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    for name in ["llama-13b", "llama-70b", "falcon-40b", "mistral-7b"] {
        assert!(stdout.contains(name), "missing {name} in:\n{stdout}");
    }
}

#[test]
fn no_args_prints_usage_and_fails() {
    let out = ca_sim().output().expect("run ca-sim");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("USAGE"));
}

#[test]
fn unknown_command_fails_with_message() {
    let out = ca_sim().arg("frobnicate").output().expect("run ca-sim");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown command"));
}

#[test]
fn unknown_model_fails_cleanly() {
    let out = ca_sim()
        .args(["run", "--sessions", "5", "--model", "gpt-17"])
        .output()
        .expect("run ca-sim");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("unknown model"));
}

#[test]
fn trace_then_run_round_trips() {
    let dir = std::env::temp_dir().join(format!("ca-sim-test-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace_path = dir.join("trace.json");
    let out = ca_sim()
        .args([
            "trace",
            "--sessions",
            "20",
            "--seed",
            "7",
            "--out",
            trace_path.to_str().unwrap(),
        ])
        .output()
        .expect("run ca-sim trace");
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(trace_path.exists());
    let out = ca_sim()
        .args([
            "run",
            "--trace",
            trace_path.to_str().unwrap(),
            "--model",
            "falcon-40b",
            "--mode",
            "ca",
        ])
        .output()
        .expect("run ca-sim run");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("sessions done"));
    assert!(stdout.contains("20"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn compare_prints_both_modes() {
    let out = ca_sim()
        .args(["compare", "--sessions", "25", "--model", "llama-13b"])
        .output()
        .expect("run ca-sim compare");
    assert!(out.status.success());
    let stdout = String::from_utf8(out.stdout).unwrap();
    assert!(stdout.contains("CachedAttention vs recomputation"));
    assert!(stdout.contains("hit rate"));
}

#[test]
fn invalid_compression_rejected() {
    let out = ca_sim()
        .args(["run", "--sessions", "5", "--compression", "1.5"])
        .output()
        .expect("run ca-sim");
    assert!(!out.status.success());
    let stderr = String::from_utf8(out.stderr).unwrap();
    assert!(stderr.contains("--compression"));
}

/// Runs `ca-sim run` with extra flags and returns its stderr, asserting
/// that it failed.
fn run_fails(extra: &[&str]) -> String {
    let out = ca_sim()
        .args(["run", "--sessions", "5"])
        .args(extra)
        .output()
        .expect("run ca-sim");
    assert!(!out.status.success(), "{extra:?} was accepted");
    String::from_utf8(out.stderr).unwrap()
}

#[test]
fn non_positive_rate_rejected() {
    for rate in ["0", "-2", "NaN"] {
        let stderr = run_fails(&["--rate", rate]);
        assert!(
            stderr.contains("error: --rate must be positive"),
            "--rate {rate}: {stderr}"
        );
        assert!(!stderr.contains("panicked"), "--rate {rate}: {stderr}");
    }
}

#[test]
fn negative_capacity_rejected() {
    for (flag, v) in [("--dram-gb", "-1"), ("--disk-tb", "NaN")] {
        let stderr = run_fails(&[flag, v]);
        assert!(
            stderr.contains(&format!("error: {flag} must be non-negative")),
            "{flag} {v}: {stderr}"
        );
    }
}
