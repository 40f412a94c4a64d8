//! Golden-report regression tests: pin the serving simulator's exact
//! behavior, bit for bit, across refactors.
//!
//! Each scenario runs a fixed-seed workload through the engine and
//! serializes the full [`RunReport`] to JSON. Because the simulator is
//! deterministic and the JSON writer prints floats with their shortest
//! round-trip representation, any behavioral change — a reordered
//! bandwidth charge, a different admission decision, an off-by-one in
//! the eviction window — shows up as a byte-level diff against the
//! committed fixture in `tests/golden/`.
//!
//! To regenerate fixtures after an *intentional* behavior change:
//!
//! ```text
//! REGEN_GOLDEN=1 cargo test --test golden_report
//! ```
//!
//! and commit the diff together with an explanation of why the numbers
//! moved.

use cachedattention::engine::{
    run_cluster, run_trace, ClusterConfig, EngineConfig, Medium, Mode, RouterKind,
};
use cachedattention::models::ModelSpec;
use cachedattention::sim::Dur;
use cachedattention::store::KeyingMode;
use cachedattention::workload::{Generator, PrefixProfile, PrefixScenario, ShareGptProfile};
use std::path::PathBuf;

const MODES: [Mode; 3] = [
    Mode::CachedAttention,
    Mode::Recompute,
    Mode::CoupledOverflow,
];

const MEDIUMS: [Medium; 3] = [Medium::DramDisk, Medium::HbmDram, Medium::HbmOnly];

fn medium_label(m: Medium) -> &'static str {
    match m {
        Medium::DramDisk => "dramdisk",
        Medium::HbmDram => "hbmdram",
        Medium::HbmOnly => "hbmonly",
    }
}

fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("golden")
}

/// Runs one scenario and checks (or regenerates) its fixture.
fn check(name: &str, cfg: EngineConfig, n_sessions: usize, seed: u64) {
    let trace = Generator::new(ShareGptProfile::default(), seed).trace(n_sessions);
    let report = run_trace(cfg, trace);
    check_json(
        name,
        serde_json::to_string_pretty(&report).expect("report serializes"),
    );
}

/// Checks (or regenerates) fixture `name` against a serialized report.
fn check_json(name: &str, mut json: String) {
    json.push('\n');

    let path = golden_dir().join(format!("{name}.json"));
    if std::env::var_os("REGEN_GOLDEN").is_some() {
        std::fs::create_dir_all(golden_dir()).expect("create tests/golden");
        std::fs::write(&path, &json).expect("write fixture");
        return;
    }
    let expected = std::fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden fixture {} ({e}); run with REGEN_GOLDEN=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        expected, json,
        "report for scenario `{name}` diverged from its golden fixture; \
         if the change is intentional, regenerate with REGEN_GOLDEN=1 and \
         commit the diff"
    );
}

/// A store small enough that 20 sessions of LLaMA-13B KV overflow DRAM
/// and spill to the slow tier, exercising eviction, prefetch and both
/// transfer links.
fn pressured(mode: Mode, medium: Medium) -> EngineConfig {
    let mut cfg = EngineConfig::paper(mode, ModelSpec::llama2_13b());
    cfg.medium = medium;
    cfg.store.set_dram_bytes(8_000_000_000);
    cfg.store.set_disk_bytes(40_000_000_000);
    cfg
}

#[test]
fn golden_modes_by_mediums() {
    for mode in MODES {
        for medium in MEDIUMS {
            let name = format!("{}_{}", mode.label().to_lowercase(), medium_label(medium));
            check(&name, pressured(mode, medium), 20, 7);
        }
    }
}

/// Chunked prefill exercises the chunk issue/complete path in the
/// execution stage.
#[test]
fn golden_chunked_prefill() {
    let mut cfg = pressured(Mode::CachedAttention, Medium::DramDisk);
    cfg.chunked_prefill_tokens = Some(256);
    check("ca_dramdisk_chunked", cfg, 20, 7);
}

/// KV compression scales stored bytes and transfer times but not
/// compute; pins the compression-aware accounting in the transfer plan.
#[test]
fn golden_kv_compression() {
    let mut cfg = pressured(Mode::CachedAttention, Medium::DramDisk);
    cfg.kv_compression = 0.25;
    check("ca_dramdisk_int4", cfg, 20, 7);
}

/// The ablations from Fig 19/20: no layer-wise preload, no async save.
#[test]
fn golden_ablations() {
    let mut no_pl = pressured(Mode::CachedAttention, Medium::DramDisk);
    no_pl.preload = false;
    check("ca_dramdisk_no_preload", no_pl, 20, 7);

    let mut no_as = pressured(Mode::CachedAttention, Medium::DramDisk);
    no_as.async_save = false;
    check("ca_dramdisk_no_async_save", no_as, 20, 7);
}

/// Content-addressed block keying on a 2-instance cluster serving four
/// shared system prompts: pins the block ledger's victim order end to
/// end. The run reaches every victim pick — refcounted eviction,
/// demotion, prefetch staging, the tier-0 reserve, whole-chain release
/// at the bottom tier and TTL expiry. The fixture is the whole
/// `ClusterReport`, dedup counters included.
#[test]
fn golden_content_addressed_shared_prefix() {
    let mut cfg = pressured(Mode::CachedAttention, Medium::DramDisk);
    cfg.store.set_disk_bytes(60_000_000_000);
    cfg.store.keying = KeyingMode::ContentAddressed;
    cfg.store.ttl = Some(Dur::from_secs_f64(300.0));
    let scenario = PrefixScenario::SharedSystemPrompt {
        pools: 4,
        prompt_tokens: 1024,
    };
    let trace = PrefixProfile::new(ShareGptProfile::default(), scenario).trace(7, 40);
    let cluster = ClusterConfig::new(cfg, 2, RouterKind::SessionAffinity);
    let report = run_cluster(cluster, trace);
    check_json(
        "ca_shared_prefix_cluster",
        serde_json::to_string_pretty(&report).expect("report serializes"),
    );
}
