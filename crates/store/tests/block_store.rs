//! Property and behavior tests for the content-addressed block ledger.
//!
//! The ledger's structural invariants (refcount and pin conservation,
//! trie/slab agreement, pool accounting) are checked by
//! `AttentionStore::validate_blocks` after every operation of a random
//! sequence; the directed tests pin down the lifecycle rules the
//! invariants alone cannot express — copy-on-divergence never touching
//! a shared block, pinned chains surviving capacity pressure, and
//! per-session keying reducing to a ledger-free store.

use models::{TierSpec, TierStack};
use proptest::prelude::*;
use sim::{Dur, Time};
use store::{
    AttentionStore, ContentKey, KeyingMode, Lookup, PolicyKind, QueueView, SessionId, StoreConfig,
    StoreEvent, TierId,
};

const MB: u64 = 1_000_000;
/// Bytes of KV per token in these tests (arbitrary, but fixed so token
/// counts translate to predictable pressure).
const BPT: u64 = 10_000;

fn block_store_config(keying: KeyingMode) -> StoreConfig {
    StoreConfig {
        tiers: TierStack::two_tier(20 * MB, 60 * MB),
        block_bytes: MB,
        policy: PolicyKind::SchedulerAware,
        keying,
        block_tokens: 128,
        ttl: None,
        dram_reserve_fraction: 0.0,
        default_session_bytes: MB,
    }
}

fn block_store(keying: KeyingMode) -> AttentionStore {
    AttentionStore::new(block_store_config(keying))
}

/// [`block_store`] over three tiers, with a quarter of tier 0 held in
/// reserve and a 10 ms idle TTL: demotions cascade below tier 1, every
/// prefetch runs the reserve loop, and the expire op drops idle chains
/// and reclaims stale nodes.
fn reserve_ttl_store() -> AttentionStore {
    AttentionStore::new(StoreConfig {
        tiers: TierStack::new(vec![
            TierSpec::dram(12 * MB),
            TierSpec::pooled_memory(16 * MB),
            TierSpec::ssd(40 * MB),
        ]),
        ttl: Some(Dur::from_millis(10)),
        dram_reserve_fraction: 0.25,
        ..block_store_config(KeyingMode::ContentAddressed)
    })
}

fn sid(n: u64) -> SessionId {
    SessionId(n)
}

/// Two pools of sessions sharing a 256-token prefix: even sessions in
/// pool 0, odd in pool 1. Private tails never collide.
fn pooled_key(n: u64) -> ContentKey {
    ContentKey {
        shared_seed: 1_000 + n % 2,
        shared_tokens: 256,
        private_seed: 7_000 + n,
        generation: 0,
    }
}

/// One scripted operation against the store, decoded from proptest
/// draws: `(op selector, session, token count)`.
fn apply_op(s: &mut AttentionStore, op: u64, n: u64, tokens: u64, step: usize) {
    let now = Time::from_millis(step as u64);
    let order: Vec<SessionId> = (0..6).map(sid).collect();
    let q = QueueView::new(&order);
    match op % 7 {
        0 | 1 => {
            // Save dominates the mix so chains actually exist.
            s.register_content(sid(n), pooled_key(n));
            s.save(sid(n), tokens * BPT, tokens, now, &q);
        }
        2 => {
            s.register_content(sid(n), pooled_key(n));
            let _ = s.load(sid(n), tokens, now, &q);
        }
        3 => s.unpin(sid(n)),
        4 => s.invalidate(sid(n)),
        5 => {
            // Truncation: divergence path. Harmless no-op when the
            // session has nothing stored or is not shrinking.
            s.truncate(sid(n), tokens * BPT / 2, tokens / 2);
        }
        _ => {
            // Expiry: a no-op without a TTL.
            s.expire(now);
        }
    }
    let _ = s.prefetch(now, &q);
}

proptest! {
    /// Any operation sequence leaves the ledger structurally sound:
    /// every node's refcount equals the number of chains referencing
    /// it, every pin is owned by an in-flight consult, the trie maps
    /// exactly the live nodes, and the pools hold exactly the nodes'
    /// blocks.
    #[test]
    fn random_op_sequences_keep_ledger_invariants(
        ops in proptest::collection::vec((0u64..6, 0u64..6, 64u64..512), 1..60)
    ) {
        let mut s = block_store(KeyingMode::ContentAddressed);
        for (step, &(op, n, tokens)) in ops.iter().enumerate() {
            apply_op(&mut s, op, n, tokens, step);
            if let Err(e) = s.validate_blocks() {
                prop_assert!(false, "after step {step} (op {op}): {e}\nops: {ops:?}");
            }
        }
    }

    /// The same invariants hold with a tier-0 reserve and a TTL, with
    /// expiry in the operation mix.
    #[test]
    fn reserve_and_ttl_keep_ledger_invariants(
        ops in proptest::collection::vec((0u64..7, 0u64..6, 64u64..512), 1..60)
    ) {
        let mut s = reserve_ttl_store();
        for (step, &(op, n, tokens)) in ops.iter().enumerate() {
            apply_op(&mut s, op, n, tokens, step);
            if let Err(e) = s.validate_blocks() {
                prop_assert!(false, "after step {step} (op {op}): {e}\nops: {ops:?}");
            }
        }
    }

    /// The same sequences under per-session keying never touch the
    /// ledger: dedup statistics stay zero and no block events are
    /// emitted, so a per-session run is byte-for-byte free of the
    /// block machinery.
    #[test]
    fn per_session_reduction_never_touches_the_ledger(
        ops in proptest::collection::vec((0u64..6, 0u64..6, 64u64..512), 1..40)
    ) {
        let mut s = block_store(KeyingMode::PerSession);
        s.set_tracing(true);
        for (step, &(op, n, tokens)) in ops.iter().enumerate() {
            apply_op(&mut s, op, n, tokens, step);
        }
        let d = s.dedup_stats();
        prop_assert_eq!(d.lookup_hits, 0);
        prop_assert_eq!(d.matched_blocks, 0);
        prop_assert_eq!(d.dedup_blocks, 0);
        prop_assert_eq!(d.bytes_saved, 0);
        prop_assert_eq!(d.divergences, 0);
        prop_assert_eq!(d.refcounted_evictions, 0);
        for ev in s.drain_events() {
            let is_block = matches!(
                ev,
                StoreEvent::BlockConfig { .. }
                    | StoreEvent::BlockSaved { .. }
                    | StoreEvent::BlockDedupHit { .. }
                    | StoreEvent::BlockDiverged { .. }
                    | StoreEvent::BlockDemoted { .. }
                    | StoreEvent::BlockEvicted { .. }
            );
            prop_assert!(!is_block, "per-session run emitted {ev:?}");
        }
    }
}

/// Copy-on-divergence: when one sharer's history is rewritten
/// (truncation bumps its content generation), the shared blocks are
/// released by reference, never mutated — the other sharer still
/// matches its full prefix afterwards.
#[test]
fn divergence_never_mutates_shared_blocks() {
    let mut s = block_store(KeyingMode::ContentAddressed);
    let q = QueueView::empty();
    let (a, b) = (sid(0), sid(2)); // same pool (both even)
    s.register_content(a, pooled_key(0));
    s.register_content(b, pooled_key(2));
    s.save(a, 512 * BPT, 512, Time::ZERO, &q);
    s.save(b, 512 * BPT, 512, Time::from_millis(1), &q);
    // The 256-token shared span dedups: b's save wrote less than a's.
    let d = s.dedup_stats();
    assert!(
        d.dedup_blocks > 0,
        "no chunks shared between the pool's sessions"
    );
    assert!(d.bytes_saved > 0);

    // b's history is rewritten in place: every chunk of its old chain
    // is invalid for matching, so its chain forks off a's.
    s.truncate(b, 256 * BPT, 256);
    assert_eq!(s.dedup_stats().divergences, 1);
    s.validate_blocks().expect("ledger sound after divergence");

    // a is untouched: the full 512-token prefix still matches.
    let m = s.load(a, 512, Time::from_millis(2), &q);
    assert_eq!(m.matched_tokens, 512, "divergence mutated a shared chain");
    assert_ne!(m.lookup, Lookup::Miss);
    s.unpin(a);
    s.validate_blocks().expect("ledger sound after re-consult");
}

/// A pinned chain is exempt from demotion and eviction at every tier:
/// saves from other sessions that overflow the fast tier must demote
/// around the pinned blocks, and the pinned session still matches its
/// full prefix from the fast tier afterwards.
#[test]
fn pinned_chains_survive_capacity_pressure() {
    let mut s = block_store(KeyingMode::ContentAddressed);
    let q = QueueView::empty();
    let a = sid(0);
    s.register_content(a, pooled_key(0));
    s.save(a, 512 * BPT, 512, Time::ZERO, &q);
    // Consult pins a's whole chain in tier 0.
    let m = s.load(a, 512, Time::from_millis(1), &q);
    assert_eq!(m.matched_tokens, 512);
    assert_eq!(m.lookup, Lookup::Hit(TierId(0)));

    // Storm: 20 MB of DRAM, ~5 MB pinned, then 12 sessions x 4 MB of
    // private chains — far past tier 0 and into tier-1 pressure.
    for i in 1..=12 {
        let other = sid(100 + i);
        s.save(other, 400 * BPT, 400, Time::from_millis(1 + i), &q);
        s.validate_blocks().expect("ledger sound under pressure");
    }

    // The pinned chain never moved: still a full fast-tier match.
    assert_eq!(
        s.lookup(a),
        Lookup::Hit(TierId(0)),
        "pinned chain was demoted"
    );
    s.unpin(a);
    // Once unpinned it is fair game again; the ledger stays sound.
    s.save(sid(200), 400 * BPT, 400, Time::from_millis(50), &q);
    s.validate_blocks().expect("ledger sound after unpin");
}

/// Refcounted eviction only reclaims dead nodes: every `block_evicted`
/// event carries `refs == 0`, even under pressure that forces chain
/// releases at the bottom tier.
#[test]
fn eviction_reclaims_only_unreferenced_nodes() {
    let mut s = block_store(KeyingMode::ContentAddressed);
    s.set_tracing(true);
    let q = QueueView::empty();
    for i in 0..40 {
        let n = sid(i);
        s.register_content(n, pooled_key(i));
        s.save(n, 400 * BPT, 400, Time::from_millis(i), &q);
        // Half the sessions leave: their exclusive tail nodes go dead
        // and become reclaimable.
        if i % 2 == 0 {
            s.invalidate(n);
        }
        s.validate_blocks().expect("ledger sound during churn");
    }
    let mut evictions = 0;
    for ev in s.drain_events() {
        if let StoreEvent::BlockEvicted { refs, .. } = ev {
            assert_eq!(refs, 0, "a referenced node was evicted");
            evictions += 1;
        }
    }
    assert!(evictions > 0, "churn never exercised the eviction path");
}

/// A save that has to make room at the bottom tier never releases the
/// saving session's own chain. That chain is being replaced: releasing
/// it mid-save would drop a second reference to the prefix the new
/// chain keeps (and may touch a tail node already reclaimed to make the
/// room).
#[test]
fn a_save_never_releases_its_own_chain() {
    let mut s = block_store(KeyingMode::ContentAddressed);
    let q = QueueView::empty();
    let a = sid(0);
    s.save(a, 200 * BPT, 200, Time::ZERO, &q);
    // a's consult makes it the least recently used session, and its pin
    // keeps the storm below from releasing it.
    let _ = s.load(a, 200, Time::from_millis(1), &q);
    for i in 1..=20 {
        s.save(sid(100 + i), 384 * BPT, 384, Time::from_millis(1 + i), &q);
    }
    // a grows far past its partial tail while both tiers are full: the
    // save's room-making reaches the bottom tier, where a is the oldest
    // unpinned session.
    s.save(a, 1200 * BPT, 1200, Time::from_millis(1000), &q);
    s.validate_blocks()
        .expect("ledger sound after a growing save");
    assert_eq!(
        s.cached_tokens(a),
        Some(1200),
        "the saving session lost its chain"
    );
}

/// A prefetch whose room-making cascade demotes the very node it is
/// staging still stages it from where it now lives. Here tier 1 holds
/// only the queued sessions' blocks, so making room there falls back to
/// demoting its least recently used one: the target's own node.
#[test]
fn prefetch_stages_a_node_its_own_cascade_moved() {
    let mut s = AttentionStore::new(StoreConfig {
        tiers: TierStack::new(vec![
            TierSpec::dram(4 * MB),
            TierSpec::pooled_memory(4 * MB),
            TierSpec::ssd(60 * MB),
        ]),
        ..block_store_config(KeyingMode::ContentAddressed)
    });
    let empty = QueueView::empty();
    // One 2-block chunk each. By the fourth save, a's and b's nodes sit
    // in tier 1 (full) and c's and d's in tier 0 (full).
    for (i, n) in [0, 1, 2, 3].into_iter().enumerate() {
        s.save(sid(n), 128 * BPT, 128, Time::from_millis(i as u64), &empty);
    }
    assert_eq!(s.lookup(sid(0)), Lookup::Hit(TierId(1)));
    let queue = QueueView::new(&[sid(0), sid(1)]);
    s.prefetch(Time::from_millis(10), &queue);
    s.validate_blocks()
        .expect("ledger sound after the prefetch");
    assert_eq!(
        s.lookup(sid(0)),
        Lookup::Hit(TierId(0)),
        "target not staged"
    );
}
