//! The store's one engine-facing path: `load`, `save` and `prefetch`
//! are fault-aware, and with no SSD fault to inject they behave exactly
//! like fault-free bookkeeping.
//!
//! - A fault plan whose SSD rates are all zero (here: a link slowdown
//!   only, which is the engine's concern) must leave every outcome,
//!   statistic and trace event of a save/load/prefetch sequence equal to
//!   the same sequence with no plan, under both keyings.
//! - Under per-session keying a consult matches `min(cached, ctx)`
//!   tokens on a hit and nothing on a miss.

use models::TierStack;
use sim::{Dur, FaultPlan, Time};
use store::{
    AttentionStore, ContentKey, FaultStats, KeyingMode, LoadOutcome, Lookup, PolicyKind, QueueView,
    SessionId, StoreConfig, StoreEvent, StoreStats, TierId,
};

const MB: u64 = 1_000_000;
/// Bytes of KV per token (fixed so token counts map to pressure).
const BPT: u64 = 10_000;

fn store(keying: KeyingMode) -> AttentionStore {
    AttentionStore::new(StoreConfig {
        tiers: TierStack::two_tier(12 * MB, 60 * MB),
        block_bytes: MB,
        policy: PolicyKind::SchedulerAware,
        keying,
        block_tokens: 128,
        ttl: None,
        dram_reserve_fraction: 0.1,
        default_session_bytes: 2 * MB,
    })
}

/// Sessions in two pools sharing a 256-token prefix.
fn key(n: u64) -> ContentKey {
    ContentKey {
        shared_seed: 100 + n % 2,
        shared_tokens: 256,
        private_seed: 900 + n,
        generation: 0,
    }
}

/// Everything one run of [`script`] reports, op by op.
#[derive(Debug, PartialEq)]
struct Run {
    loads: Vec<LoadOutcome>,
    saves: Vec<(Vec<store::Transfer>, bool, u32, Dur, bool)>,
    prefetches: Vec<(Vec<store::Transfer>, u32, Dur)>,
    stats: StoreStats,
    faults: FaultStats,
    events: Vec<StoreEvent>,
}

/// Saves eight growing sessions into a store whose tier 0 holds about
/// three, then twice consults and re-saves each (some from tier 1),
/// prefetching over a rotating queue after every save.
fn script(keying: KeyingMode, plan: Option<FaultPlan>) -> Run {
    let mut s = store(keying);
    s.set_tracing(true);
    if let Some(plan) = plan {
        s.set_faults(plan);
    }
    let mut run = Run {
        loads: Vec::new(),
        saves: Vec::new(),
        prefetches: Vec::new(),
        stats: StoreStats::default(),
        faults: FaultStats::default(),
        events: Vec::new(),
    };
    let mut step = 0u64;
    let mut now = || {
        step += 1;
        Time::from_millis(step)
    };
    for round in 0..3u64 {
        for n in 0..8u64 {
            let sid = SessionId(n);
            let tokens = 300 + 100 * round + 10 * n;
            // Recently used sessions plus one three steps ahead: prefetch
            // has work, and the next two sessions stay where saves left
            // them.
            let order: Vec<SessionId> = [7, 6, 5, 3].map(|i| SessionId((n + i) % 8)).to_vec();
            let q = QueueView::new(&order);
            if round == 0 {
                s.register_content(sid, key(n));
            } else {
                run.loads.push(s.load(sid, tokens, now(), &q));
                s.unpin(sid);
            }
            let o = s.save(sid, tokens * BPT, tokens, now(), &q);
            run.saves
                .push((o.transfers, o.fitted, o.retries, o.backoff, o.failed));
            let p = s.prefetch(now(), &q);
            run.prefetches.push((p.transfers, p.retries, p.backoff));
            s.validate_blocks().expect("store invariants hold");
        }
    }
    run.stats = *s.stats();
    run.faults = *s.fault_stats();
    run.events = s.drain_events();
    run
}

#[test]
fn zero_rate_plan_is_the_fault_free_path() {
    let plan = FaultPlan::new(11).with_link_slowdown(
        "slow-rd",
        Time::ZERO,
        Time::from_secs_f64(3600.0),
        4.0,
    );
    assert!(!plan.is_empty(), "a link slowdown is a real plan");
    assert!(plan.ssd.is_empty());
    for keying in [KeyingMode::PerSession, KeyingMode::ContentAddressed] {
        let clean = script(keying, None);
        let planned = script(keying, Some(plan.clone()));
        assert_eq!(clean, planned, "{keying:?}");
        // The script reaches the slow-tier read path the gate guards.
        assert!(
            clean.loads.iter().any(|l| l.lookup.is_slow_hit()),
            "{keying:?}: no consult found KV below tier 0"
        );
        assert!(clean.stats.promotions > 0 && clean.stats.demotions > 0);
        assert!(clean
            .loads
            .iter()
            .all(|l| l.retries == 0 && l.backoff == Dur::ZERO && l.degraded.is_none()));
        assert!(clean.saves.iter().all(|s| s.2 == 0 && !s.4));
        assert!(clean.prefetches.iter().all(|p| p.1 == 0));
        assert_eq!(planned.faults, FaultStats::default());
    }
}

#[test]
fn per_session_load_matches_min_of_cached_and_context() {
    let mut s = store(KeyingMode::PerSession);
    let q = QueueView::empty();
    let sid = SessionId(1);
    let saved = s.save(sid, 100 * BPT, 100, Time::ZERO, &q);
    assert!(saved.fitted && saved.transfers.is_empty());
    assert_eq!(s.cached_tokens(sid), Some(100));
    assert_eq!(s.stats().saves, 1);

    // Shorter context than cached: the whole context matches.
    let short = s.load(sid, 60, Time::from_millis(1), &q);
    assert_eq!(short.lookup, Lookup::Hit(TierId(0)));
    assert_eq!(short.matched_tokens, 60);
    assert!(short.transfers.is_empty());
    s.unpin(sid);
    // Longer context: only the cached history matches.
    let long = s.load(sid, 500, Time::from_millis(2), &q);
    assert_eq!(long.matched_tokens, 100);
    s.unpin(sid);

    // A slow-tier hit reports the same reduction.
    s.apply_pressure(Time::from_millis(3), 1.0, &q);
    assert_eq!(s.lookup(sid), Lookup::Hit(TierId(1)));
    let slow = s.load(sid, 80, Time::from_millis(4), &q);
    assert_eq!(slow.lookup, Lookup::Hit(TierId(1)));
    assert_eq!(slow.matched_tokens, 80);
    assert!(slow.transfers.iter().any(|t| t.is_promotion()));

    // A miss matches nothing, however long the context.
    s.invalidate(sid);
    assert_eq!(s.cached_tokens(sid), None);
    let miss = s.load(sid, 500, Time::from_millis(5), &q);
    assert_eq!(miss.lookup, Lookup::Miss);
    assert_eq!(miss.matched_tokens, 0);
    assert!(miss.transfers.is_empty());
    let never = s.load(SessionId(9), 500, Time::from_millis(6), &q);
    assert_eq!((never.lookup, never.matched_tokens), (Lookup::Miss, 0));
}
