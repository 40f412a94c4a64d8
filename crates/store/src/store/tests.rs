use models::TierStack;
use sim::{Dur, Time};

use crate::{PolicyKind, QueueView, SessionId, TierId};

use super::{AttentionStore, LoadOutcome, Lookup, SaveOutcome, StoreConfig};

const MB: u64 = 1_000_000;

fn small_store(policy: PolicyKind) -> AttentionStore {
    AttentionStore::new(StoreConfig {
        tiers: TierStack::two_tier(10 * MB, 30 * MB),
        block_bytes: MB,
        policy,
        ttl: None,
        dram_reserve_fraction: 0.0,
        default_session_bytes: MB,
        ..StoreConfig::default()
    })
}

fn sid(n: u64) -> SessionId {
    SessionId(n)
}

#[test]
fn save_then_load_hits_dram() {
    let mut s = small_store(PolicyKind::SchedulerAware);
    let q = QueueView::empty();
    let SaveOutcome {
        transfers: t,
        fitted: ok,
        ..
    } = s.save(sid(1), 3 * MB, 100, Time::ZERO, &q);
    assert!(ok && t.is_empty());
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(0)));
    let LoadOutcome {
        lookup: found,
        transfers: t,
        ..
    } = s.load(sid(1), u64::MAX, Time::from_millis(5), &q);
    assert_eq!(found, Lookup::Hit(TierId(0)));
    assert!(t.is_empty());
    assert!(s.entry(sid(1)).unwrap().pinned);
    s.unpin(sid(1));
    assert!(!s.entry(sid(1)).unwrap().pinned);
}

#[test]
fn unpin_is_idempotent_and_tolerates_evicted_sessions() {
    let mut s = small_store(PolicyKind::SchedulerAware);
    let q = QueueView::empty();
    // Never-saved session: unpin must be a no-op, not a panic.
    s.unpin(sid(42));
    s.save(sid(1), 3 * MB, 100, Time::ZERO, &q);
    let _ = s.load(sid(1), u64::MAX, Time::from_millis(5), &q);
    assert!(s.entry(sid(1)).unwrap().pinned);
    // Double-unpin is fine.
    s.unpin(sid(1));
    s.unpin(sid(1));
    assert!(!s.entry(sid(1)).unwrap().pinned);
    // Unpin after the entry left the store entirely (crash recovery may
    // release pins for jobs whose sessions were invalidated meanwhile).
    s.invalidate(sid(1));
    s.unpin(sid(1));
    assert_eq!(s.lookup(sid(1)), Lookup::Miss);
}

#[test]
fn miss_for_unknown_session() {
    let mut s = small_store(PolicyKind::SchedulerAware);
    assert_eq!(s.lookup(sid(9)), Lookup::Miss);
    let LoadOutcome {
        lookup: found,
        transfers: t,
        ..
    } = s.load(sid(9), u64::MAX, Time::ZERO, &QueueView::empty());
    assert_eq!(found, Lookup::Miss);
    assert!(t.is_empty());
}

#[test]
fn dram_pressure_demotes_to_disk() {
    let mut s = small_store(PolicyKind::Lru);
    let q = QueueView::empty();
    // Fill DRAM with three sessions, oldest access first.
    for (i, t_ms) in [(1u64, 0u64), (2, 10), (3, 20)] {
        s.save(sid(i), 3 * MB, 100, Time::from_millis(t_ms), &q);
    }
    // A fourth needs room: LRU demotes session 1.
    let SaveOutcome {
        transfers,
        fitted: ok,
        ..
    } = s.save(sid(4), 3 * MB, 100, Time::from_millis(30), &q);
    assert!(ok);
    assert_eq!(transfers.len(), 1);
    assert_eq!(transfers[0].session, sid(1));
    assert!(transfers[0].is_demotion());
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(1)));
    assert_eq!(s.lookup(sid(4)), Lookup::Hit(TierId(0)));
}

#[test]
fn disk_pressure_drops_out_of_system() {
    let mut s = AttentionStore::new(StoreConfig {
        tiers: TierStack::two_tier(4 * MB, 4 * MB),
        block_bytes: MB,
        policy: PolicyKind::Fifo,
        ttl: None,
        dram_reserve_fraction: 0.0,
        default_session_bytes: MB,
        ..StoreConfig::default()
    });
    let q = QueueView::empty();
    // Three 4MB sessions through a 4MB DRAM + 4MB disk: the first one
    // saved must eventually fall off the end of the hierarchy.
    s.save(sid(1), 4 * MB, 10, Time::from_millis(0), &q);
    s.save(sid(2), 4 * MB, 10, Time::from_millis(1), &q);
    s.save(sid(3), 4 * MB, 10, Time::from_millis(2), &q);
    assert_eq!(s.lookup(sid(1)), Lookup::Miss);
    assert_eq!(s.lookup(sid(2)), Lookup::Hit(TierId(1)));
    assert_eq!(s.lookup(sid(3)), Lookup::Hit(TierId(0)));
    assert_eq!(s.stats().drops_capacity, 1);
}

#[test]
fn disk_hit_promotes_through_dram() {
    let mut s = small_store(PolicyKind::Lru);
    let q = QueueView::empty();
    for i in 1..=4u64 {
        s.save(sid(i), 3 * MB, 100, Time::from_millis(i), &q);
    }
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(1)));
    let LoadOutcome {
        lookup: found,
        transfers,
        ..
    } = s.load(sid(1), u64::MAX, Time::from_millis(99), &q);
    assert_eq!(found, Lookup::Hit(TierId(1)));
    // Promotion evicted someone and brought session 1 up.
    assert!(transfers
        .iter()
        .any(|t| t.session == sid(1) && t.is_promotion()));
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(0)));
}

#[test]
fn pinned_entries_are_never_victims() {
    let mut s = small_store(PolicyKind::Lru);
    let q = QueueView::empty();
    s.save(sid(1), 5 * MB, 100, Time::ZERO, &q);
    s.load(sid(1), u64::MAX, Time::from_millis(1), &q);
    // Saving 6 MB would need to demote session 1, but it is pinned, so
    // there is no DRAM candidate: the save spills to disk instead.
    let SaveOutcome {
        transfers,
        fitted: ok,
        ..
    } = s.save(sid(2), 6 * MB, 100, Time::from_millis(2), &q);
    assert!(ok);
    assert_eq!(s.stats().spills_to_disk, 1);
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(0)));
    assert_eq!(s.lookup(sid(2)), Lookup::Hit(TierId(1)));
    assert!(transfers
        .iter()
        .any(|t| t.session == sid(2) && t.is_demotion()));
    // A session larger than the whole hierarchy is still rejected.
    let SaveOutcome { fitted: ok, .. } = s.save(sid(3), 50 * MB, 100, Time::from_millis(3), &q);
    assert!(!ok);
    assert_eq!(s.stats().save_rejected, 1);
}

#[test]
fn scheduler_aware_prefetch_pulls_queued_sessions_up() {
    let mut s = small_store(PolicyKind::SchedulerAware);
    let q = QueueView::empty();
    for i in 1..=4u64 {
        s.save(sid(i), 3 * MB, 100, Time::from_millis(i), &q);
    }
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(1)));
    // Session 1 is waiting in the queue: prefetch promotes it.
    let queue = QueueView::new(&[sid(1)]);
    let transfers = s.prefetch(Time::from_millis(50), &queue).transfers;
    assert!(transfers
        .iter()
        .any(|t| t.session == sid(1) && t.is_promotion()));
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(0)));
}

#[test]
fn lru_and_fifo_never_prefetch() {
    for kind in [PolicyKind::Lru, PolicyKind::Fifo] {
        let mut s = small_store(kind);
        let q = QueueView::empty();
        for i in 1..=4u64 {
            s.save(sid(i), 3 * MB, 100, Time::from_millis(i), &q);
        }
        let queue = QueueView::new(&[sid(1)]);
        assert!(s
            .prefetch(Time::from_millis(50), &queue)
            .transfers
            .is_empty());
        assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(1)));
    }
}

#[test]
fn truncation_shrinks_in_place() {
    let mut s = small_store(PolicyKind::SchedulerAware);
    let q = QueueView::empty();
    s.save(sid(1), 8 * MB, 800, Time::ZERO, &q);
    let used_before = s.dram_used_bytes();
    s.truncate(sid(1), 4 * MB, 400);
    let e = s.entry(sid(1)).unwrap();
    assert_eq!(e.bytes, 4 * MB);
    assert_eq!(e.tokens, 400);
    assert!(s.dram_used_bytes() < used_before);
    // Growing via truncate is a no-op.
    s.truncate(sid(1), 100 * MB, 1);
    assert_eq!(s.entry(sid(1)).unwrap().bytes, 4 * MB);
}

#[test]
fn invalidate_frees_everything() {
    let mut s = small_store(PolicyKind::SchedulerAware);
    let q = QueueView::empty();
    s.save(sid(1), 5 * MB, 100, Time::ZERO, &q);
    s.invalidate(sid(1));
    assert_eq!(s.lookup(sid(1)), Lookup::Miss);
    assert_eq!(s.dram_used_bytes(), 0);
    assert_eq!(s.stats().drops_invalidated, 1);
    // Invalidating again is a no-op.
    s.invalidate(sid(1));
    assert_eq!(s.stats().drops_invalidated, 1);
}

#[test]
fn ttl_expiry_drops_idle_entries() {
    let mut s = AttentionStore::new(StoreConfig {
        ttl: Some(Dur::from_secs_f64(10.0)),
        tiers: TierStack::two_tier(10 * MB, 10 * MB),
        block_bytes: MB,
        policy: PolicyKind::SchedulerAware,
        dram_reserve_fraction: 0.0,
        default_session_bytes: MB,
        ..StoreConfig::default()
    });
    let q = QueueView::empty();
    s.save(sid(1), MB, 10, Time::ZERO, &q);
    s.save(sid(2), MB, 10, Time::from_secs_f64(8.0), &q);
    assert_eq!(s.expire(Time::from_secs_f64(9.0)), 0);
    assert_eq!(s.expire(Time::from_secs_f64(15.0)), 1);
    assert_eq!(s.lookup(sid(1)), Lookup::Miss);
    assert_eq!(s.lookup(sid(2)), Lookup::Hit(TierId(0)));
    assert_eq!(s.stats().drops_ttl, 1);
}

#[test]
fn reserve_maintenance_keeps_buffer_free() {
    let mut s = AttentionStore::new(StoreConfig {
        tiers: TierStack::two_tier(10 * MB, 30 * MB),
        block_bytes: MB,
        policy: PolicyKind::SchedulerAware,
        ttl: None,
        dram_reserve_fraction: 0.3,
        default_session_bytes: MB,
        ..StoreConfig::default()
    });
    let q = QueueView::empty();
    for i in 1..=3u64 {
        s.save(sid(i), 3 * MB, 100, Time::from_millis(i), &q);
    }
    assert!(s.pools[0].free_bytes() < 3 * MB);
    let transfers = s.maintain_reserve(Time::from_millis(9), &q);
    assert!(!transfers.is_empty());
    assert!(s.pools[0].free_bytes() >= 3 * MB);
}

#[test]
fn resave_replaces_old_copy_exactly_once() {
    let mut s = small_store(PolicyKind::SchedulerAware);
    let q = QueueView::empty();
    s.save(sid(1), 2 * MB, 100, Time::ZERO, &q);
    s.save(sid(1), 4 * MB, 200, Time::from_millis(1), &q);
    assert_eq!(s.len(), 1);
    assert_eq!(s.entry(sid(1)).unwrap().bytes, 4 * MB);
    assert_eq!(s.dram_used_bytes(), 4 * MB);
}

/// Regression: a demand fetch under full disk pressure must never
/// evict the very session being fetched, even when the policy would
/// otherwise pick it (here: LRU, and the fetched session is oldest).
#[test]
fn demand_fetch_never_evicts_its_own_session() {
    let mut s = AttentionStore::new(StoreConfig {
        tiers: TierStack::two_tier(4 * MB, 8 * MB),
        block_bytes: MB,
        policy: PolicyKind::Lru,
        ttl: None,
        dram_reserve_fraction: 0.0,
        default_session_bytes: 4 * MB,
        ..StoreConfig::default()
    });
    let q = QueueView::empty();
    // s1 lands in DRAM, then s3 and s2 push it down; final layout:
    // DRAM = s2, disk = {s1, s3}, with s1 the least recently used.
    s.save(sid(1), 4 * MB, 10, Time::from_millis(0), &q);
    s.save(sid(3), 4 * MB, 10, Time::from_millis(1), &q);
    s.save(sid(2), 4 * MB, 10, Time::from_millis(2), &q);
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(1)));
    assert_eq!(s.lookup(sid(3)), Lookup::Hit(TierId(1)));
    // Demand-fetching s1 demotes s2, which needs disk room; the LRU
    // disk victim would be s1 itself — it must be exempt.
    let LoadOutcome { lookup: found, .. } = s.load(sid(1), u64::MAX, Time::from_millis(3), &q);
    assert_eq!(found, Lookup::Hit(TierId(1)));
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(0)));
    assert_eq!(s.lookup(sid(3)), Lookup::Miss);
}

/// Regression: a session queued twice must be promoted exactly once;
/// the second prefetch pass used to free its fresh DRAM blocks into
/// the disk pool.
#[test]
fn duplicate_queue_entries_prefetch_once() {
    let mut s = small_store(PolicyKind::SchedulerAware);
    let q = QueueView::empty();
    for i in 1..=4u64 {
        s.save(sid(i), 3 * MB, 100, Time::from_millis(i), &q);
    }
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(1)));
    let queue = QueueView::new(&[sid(1), sid(1), sid(1)]);
    let transfers = s.prefetch(Time::from_millis(50), &queue).transfers;
    let promotions = transfers
        .iter()
        .filter(|t| t.session == sid(1) && t.is_promotion())
        .count();
    assert_eq!(promotions, 1);
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(0)));
    // Block accounting stayed consistent: re-saving and invalidating
    // everything drains both pools completely.
    for i in 1..=4u64 {
        s.invalidate(sid(i));
    }
    assert_eq!(s.dram_used_bytes(), 0);
    assert_eq!(s.disk_used_bytes(), 0);
}

#[test]
fn window_lengths_follow_the_formulas() {
    let mut s = small_store(PolicyKind::SchedulerAware);
    // Empty store: fall back to default session size (1 MB).
    assert_eq!(s.prefetch_window(), 10);
    assert_eq!(s.eviction_window(), 40);
    let q = QueueView::empty();
    s.save(sid(1), 2 * MB, 100, Time::ZERO, &q);
    // S_kv = 2 MB now.
    assert_eq!(s.prefetch_window(), 5);
    assert_eq!(s.eviction_window(), 20);
}

/// Tier movements on an owner-attributed merged queue view carry the
/// owning instance in their trace events.
#[test]
fn owner_attributed_views_tag_store_events() {
    let mut s = small_store(PolicyKind::SchedulerAware);
    s.set_tracing(true);
    let q = QueueView::empty();
    for i in 1..=4u64 {
        s.save(sid(i), 3 * MB, 100, Time::from_millis(i), &q);
    }
    s.drain_events();
    assert_eq!(s.lookup(sid(1)), Lookup::Hit(TierId(1)));
    // Session 1 queued on instance 2, session 2 on instance 0.
    let queue = QueueView::with_owners(&[sid(1), sid(2)], &[2, 0]);
    let transfers = s.prefetch(Time::from_millis(50), &queue).transfers;
    assert!(transfers
        .iter()
        .any(|t| t.session == sid(1) && t.is_promotion()));
    let events = s.drain_events();
    let promoted = events
        .iter()
        .find_map(|e| match *e {
            crate::StoreEvent::Promoted {
                session: 1,
                instance,
                ..
            } => Some(instance),
            _ => None,
        })
        .expect("session 1 was promoted");
    assert_eq!(promoted, Some(2));
    // Unqueued demotion victims carry no instance attribution.
    for e in &events {
        if let crate::StoreEvent::Demoted {
            session, instance, ..
        } = *e
        {
            assert_ne!(session, 1);
            assert_eq!(instance, None, "victims were not queued");
        }
    }
}

// ---- content-addressed victim picks vs. a full-slab scan --------------

mod ledger_oracle {
    use std::collections::HashSet;

    use models::{TierSpec, TierStack};
    use proptest::prelude::*;
    use sim::{Dur, Time};

    use super::MB;
    use crate::store::ledger::ChunkNode;
    use crate::store::shared::WorkingSet;
    use crate::{ContentKey, KeyingMode, PolicyKind, QueueView, SessionId, TierId};

    use super::super::{AttentionStore, StoreConfig};

    /// Bytes of KV per token.
    const BPT: u64 = 10_000;

    /// Three tiers so demotions cascade, a reserve so the reserve loop
    /// runs after every prefetch, and a TTL the expire op can reach.
    fn store() -> AttentionStore {
        AttentionStore::new(StoreConfig {
            tiers: TierStack::new(vec![
                TierSpec::dram(12 * MB),
                TierSpec::pooled_memory(16 * MB),
                TierSpec::ssd(40 * MB),
            ]),
            block_bytes: MB,
            policy: PolicyKind::SchedulerAware,
            keying: KeyingMode::ContentAddressed,
            block_tokens: 128,
            ttl: Some(Dur::from_millis(8)),
            dram_reserve_fraction: 0.25,
            default_session_bytes: MB,
        })
    }

    /// Two pools sharing a 256-token prefix; private tails never collide.
    fn key(n: u64) -> ContentKey {
        ContentKey {
            shared_seed: 1_000 + n % 2,
            shared_tokens: 256,
            private_seed: 7_000 + n,
            generation: 0,
        }
    }

    /// The full-slab scan the indexed picks replace: among live nodes
    /// passing `keep`, the minimum of `(rank, last_access, insert_seq)`.
    fn naive_pick(
        s: &AttentionStore,
        keep: impl Fn(usize, &ChunkNode) -> bool,
        rank: impl Fn(usize, &ChunkNode) -> bool,
    ) -> Option<usize> {
        let l = &s.shared;
        l.live_slots()
            .filter(|&x| keep(x, l.node(x)))
            .min_by_key(|&x| {
                (
                    rank(x, l.node(x)),
                    l.node(x).last_access,
                    l.node(x).insert_seq,
                )
            })
    }

    /// Asserts every indexed pick equals the naive scan under `queue`.
    fn check_picks(
        s: &AttentionStore,
        queue: &QueueView,
    ) -> Result<(), proptest::test_runner::TestCaseError> {
        let never = |_: usize, _: &ChunkNode| false;
        let evict_window = s.eviction_window();
        let needed = s.ca_queued_slots(&mut WorkingSet::new(queue), evict_window);
        for t in (0..s.pools.len()).map(TierId) {
            let dead = naive_pick(
                s,
                |_, n| n.placement == t && n.refs == 0 && n.pins == 0,
                never,
            );
            let picked = s.ca_dead_victim(t);
            prop_assert!(
                picked == dead,
                "dead victim of {t:?}: {picked:?} vs {dead:?}"
            );
            let lru = naive_pick(s, |_, n| n.placement == t && n.pins == 0, never);
            let picked = s.ca_lru_unpinned(t);
            prop_assert!(
                picked == lru,
                "reserve victim of {t:?}: {picked:?} vs {lru:?}"
            );
            let soon = |x: usize, n: &ChunkNode| {
                queue
                    .position(n.owner_hint)
                    .is_some_and(|p| p < evict_window)
                    || needed.contains(&x)
            };
            let demote = naive_pick(s, |_, n| n.placement == t && n.pins == 0, soon);
            let picked = s.ca_demote_victim(t, &mut WorkingSet::new(queue));
            prop_assert!(
                picked == demote,
                "demotion victim of {t:?}: {picked:?} vs {demote:?}"
            );
        }
        let window = s.prefetch_window();
        let queued = s.ca_queued_slots(&mut WorkingSet::new(queue), window);
        for (pos, sid) in queue.head(window).enumerate() {
            let chain: Vec<usize> = match s.shared.session(sid) {
                Some(r) => r.chain.clone(),
                None => s.ca_shared_prefix(key(sid.0)),
            };
            let protected: HashSet<usize> = queued.iter().chain(&chain).copied().collect();
            let naive = naive_pick(
                s,
                |x, n| {
                    n.placement.is_fast()
                        && n.pins == 0
                        && n.owner_hint != sid
                        && !protected.contains(&x)
                        && queue.position(n.owner_hint).is_none_or(|p| p > pos)
                },
                never,
            );
            let picked = s.ca_prefetch_victim(sid, pos, queue, &queued, &chain);
            prop_assert!(
                picked == naive,
                "prefetch victim for {sid:?} at {pos}: {picked:?} vs {naive:?}"
            );
        }
        Ok(())
    }

    proptest! {
        /// Random ledger states: after every operation the indexes agree
        /// with the slab (`validate_blocks`) and each indexed pick is
        /// the node the full scan would choose.
        #[test]
        fn indexed_picks_equal_full_scans(
            ops in proptest::collection::vec((0u64..8, 0u64..8, 64u64..640), 1..80)
        ) {
            let mut s = store();
            for (step, &(op, n, tokens)) in ops.iter().enumerate() {
                let now = Time::from_millis(step as u64);
                // The queue rotates so queue positions, windows and the
                // working sets change between steps.
                let order: Vec<SessionId> =
                    (0..8).map(|i| SessionId((i + step as u64) % 8)).collect();
                let q = QueueView::new(&order);
                let sid = SessionId(n);
                s.register_content(sid, key(n));
                match op {
                    0..=2 => {
                        s.save(sid, tokens * BPT, tokens, now, &q);
                    }
                    3 => {
                        let _ = s.load(sid, tokens, now, &q);
                    }
                    4 => s.unpin(sid),
                    5 => s.truncate(sid, tokens * BPT / 2, tokens / 2),
                    6 => {
                        s.expire(now);
                    }
                    _ => s.invalidate(sid),
                }
                let _ = s.prefetch(now, &q);
                if let Err(e) = s.validate_blocks() {
                    prop_assert!(false, "after step {step} (op {op}): {e}\nops: {ops:?}");
                }
                check_picks(&s, &q)?;
            }
        }
    }
}

// ---- per-session victim picks vs. the slice-based policies ------------

mod entry_oracle {
    use models::{TierSpec, TierStack};
    use proptest::prelude::*;
    use sim::{Dur, Time};

    use super::MB;
    use crate::{Entry, PolicyKind, QueueView, SessionId, StoreEvent, TierId};

    use super::super::{AttentionStore, StoreConfig};

    /// Two or three tiers, a reserve so the reserve loop has work, and a
    /// TTL the expire op can reach.
    fn store(policy: PolicyKind, deep: bool) -> AttentionStore {
        let tiers = if deep {
            TierStack::new(vec![
                TierSpec::dram(12 * MB),
                TierSpec::pooled_memory(16 * MB),
                TierSpec::ssd(24 * MB),
            ])
        } else {
            TierStack::two_tier(12 * MB, 32 * MB)
        };
        let mut s = AttentionStore::new(StoreConfig {
            tiers,
            block_bytes: MB,
            policy,
            ttl: Some(Dur::from_millis(8)),
            dram_reserve_fraction: 0.25,
            default_session_bytes: MB,
            ..StoreConfig::default()
        });
        s.set_tracing(true);
        s
    }

    /// Mean entry bytes by a full sum (the running total replaces it).
    fn naive_avg(s: &AttentionStore) -> u64 {
        let total: u64 = s.entries.iter().map(|(_, e)| e.bytes).sum();
        match s.entries.len() as u64 {
            0 => s.cfg.default_session_bytes.max(1),
            n => (total / n).max(1),
        }
    }

    /// The slice-based pick the ordered walk replaces: the tier's
    /// unpinned entries collected by session id, then scanned.
    fn naive_pick(
        s: &AttentionStore,
        tier: TierId,
        queue: &QueueView,
        exclude: Option<SessionId>,
    ) -> Option<SessionId> {
        let window = (s.cfg.tiers.total_capacity() / naive_avg(s)) as usize;
        let cands: Vec<(SessionId, &Entry)> = s
            .entries
            .iter()
            .filter(|&(sid, e)| e.placement == tier && !e.pinned && Some(sid) != exclude)
            .collect();
        let in_window = |sid| queue.position(sid).filter(|&p| p < window);
        let lru = |c: &&(SessionId, &Entry)| (c.1.last_access, c.1.insert_seq, c.0);
        match s.cfg.policy {
            PolicyKind::Lru => cands.iter().min_by_key(lru),
            PolicyKind::Fifo => cands.iter().min_by_key(|c| (c.1.insert_seq, c.0)),
            PolicyKind::SchedulerAware => cands
                .iter()
                .filter(|c| in_window(c.0).is_none())
                .min_by_key(lru)
                .or_else(|| cands.iter().max_by_key(|c| (in_window(c.0), c.0))),
        }
        .map(|c| c.0)
    }

    fn policy() -> impl Strategy<Value = PolicyKind> {
        prop_oneof![
            Just(PolicyKind::SchedulerAware),
            Just(PolicyKind::Lru),
            Just(PolicyKind::Fifo),
        ]
    }

    proptest! {
        /// Random per-session states: after every operation the table
        /// agrees with the pools (`validate_blocks`), the windows read
        /// the running byte total correctly, and every indexed pick —
        /// per tier, with and without an excluded queued session — is
        /// the one the slice-based policy would make.
        #[test]
        fn indexed_picks_equal_slice_policies(
            policy in policy(),
            deep in proptest::bool::ANY,
            ops in proptest::collection::vec((0u64..11, 0u64..10, 1u64..8), 1..80)
        ) {
            let mut s = store(policy, deep);
            for (step, &(op, n, mb)) in ops.iter().enumerate() {
                let now = Time::from_millis(step as u64);
                // Five sessions queued, the first three twice; the queue
                // rotates so positions and windows change between steps.
                let order: Vec<SessionId> =
                    (0..8).map(|i| SessionId((step as u64 + i % 5) % 10)).collect();
                let q = QueueView::new(&order);
                let sid = SessionId(n);
                match op {
                    0..=2 => {
                        s.save(sid, mb * MB, mb * 100, now, &q);
                    }
                    3 => {
                        let _ = s.load(sid, u64::MAX, now, &q);
                    }
                    4 => s.unpin(sid),
                    5 => s.truncate(sid, mb * MB / 2, mb * 50),
                    6 => s.invalidate(sid),
                    7 => {
                        let ttl = s.cfg.ttl.expect("configured");
                        let mut want: Vec<u64> = s
                            .entries
                            .iter()
                            .filter(|(_, e)| !e.pinned && now.saturating_since(e.last_access) > ttl)
                            .map(|(sid, _)| sid.0)
                            .collect();
                        want.sort_unstable();
                        s.drain_events();
                        prop_assert_eq!(s.expire(now), want.len() as u64);
                        let got: Vec<u64> = s
                            .drain_events()
                            .into_iter()
                            .filter_map(|e| match e {
                                StoreEvent::Expired { session, .. } => Some(session),
                                _ => None,
                            })
                            .collect();
                        prop_assert!(got == want, "expiry order: {got:?} vs {want:?}");
                    }
                    8 => {
                        let _ = s.apply_pressure(now, 0.5, &q);
                    }
                    9 => {
                        let _ = s.prefetch(now, &q);
                    }
                    _ => {
                        let _ = s.maintain_reserve(now, &q);
                    }
                }
                s.drain_events();
                if let Err(e) = s.validate_blocks() {
                    prop_assert!(false, "after step {step} (op {op}): {e}\nops: {ops:?}");
                }
                prop_assert_eq!(s.avg_session_bytes(), naive_avg(&s));
                let queued = order[step % order.len()];
                for t in (0..s.n_tiers()).map(TierId) {
                    for exclude in [None, Some(queued)] {
                        let picked = s.choose_victim_in(t, &q, exclude);
                        let naive = naive_pick(&s, t, &q, exclude);
                        prop_assert!(
                            picked == naive,
                            "step {step}, {t:?}, exclude {exclude:?}: {picked:?} vs {naive:?}"
                        );
                    }
                }
            }
        }
    }
}
