//! Eviction policies: scheduler-aware (the paper's), LRU and FIFO.

use sim::hash::FxHashMap;

use crate::{Entry, SessionId};

/// A read-only view of the job scheduler's queue, head first.
///
/// The scheduler-aware schemes (§3.3) are built on exactly this: the queue
/// tells the store which sessions will be needed and in what order.
///
/// In a cluster, the view is *merged* across every instance's queue (see
/// the engine's `ClusterSim`); [`QueueView::with_owners`] additionally
/// records which serving instance each queued session belongs to, so the
/// store can attribute tier transfers per instance.
pub struct QueueView {
    order: Vec<SessionId>,
    pos: FxHashMap<SessionId, usize>,
    owner: FxHashMap<SessionId, u32>,
}

impl Default for QueueView {
    fn default() -> Self {
        QueueView::empty()
    }
}

impl QueueView {
    /// Builds a view from the queue's session order (head first). When a
    /// session appears more than once, its earliest position wins.
    pub fn new(order: &[SessionId]) -> Self {
        let mut pos = FxHashMap::with_capacity_and_hasher(order.len(), Default::default());
        for (i, &sid) in order.iter().enumerate() {
            pos.entry(sid).or_insert(i);
        }
        QueueView {
            order: order.to_vec(),
            pos,
            owner: FxHashMap::default(),
        }
    }

    /// Builds a view that also records the owning serving instance of
    /// each queued session. `owners[i]` is the instance whose queue holds
    /// `order[i]`; like positions, a duplicated session keeps the owner of
    /// its earliest occurrence.
    ///
    /// # Panics
    ///
    /// Panics when `order` and `owners` differ in length.
    pub fn with_owners(order: &[SessionId], owners: &[u32]) -> Self {
        assert_eq!(order.len(), owners.len(), "one owner per queued session");
        let mut view = QueueView::new(order);
        view.owner.reserve(order.len());
        for (&sid, &inst) in order.iter().zip(owners) {
            view.owner.entry(sid).or_insert(inst);
        }
        view
    }

    /// An empty queue (what LRU/FIFO effectively see).
    pub fn empty() -> Self {
        QueueView::new(&[])
    }

    /// Rebuilds this view in place from a fresh `order`/`owners` pair,
    /// reusing the retained allocations. Semantically identical to
    /// [`QueueView::with_owners`]; this is the cluster's per-store-
    /// consultation hot path (`ClusterSim::merged_view` rebuilds a
    /// scratch view instead of allocating three collections per call).
    ///
    /// # Panics
    ///
    /// Panics when `order` and `owners` differ in length.
    pub fn rebuild(&mut self, order: &[SessionId], owners: &[u32]) {
        assert_eq!(order.len(), owners.len(), "one owner per queued session");
        self.order.clear();
        self.order.extend_from_slice(order);
        self.pos.clear();
        self.owner.clear();
        for (i, (&sid, &inst)) in order.iter().zip(owners).enumerate() {
            self.pos.entry(sid).or_insert(i);
            self.owner.entry(sid).or_insert(inst);
        }
    }

    /// Returns the queue position of `sid` (0 = head), if present.
    pub fn position(&self, sid: SessionId) -> Option<usize> {
        self.pos.get(&sid).copied()
    }

    /// Returns the serving instance whose queue holds `sid`, when the
    /// view was built with owner attribution and `sid` is queued.
    pub fn owner(&self, sid: SessionId) -> Option<u32> {
        self.owner.get(&sid).copied()
    }

    /// Returns the number of queued jobs.
    pub fn len(&self) -> usize {
        self.order.len()
    }

    /// Returns `true` when no jobs are queued.
    pub fn is_empty(&self) -> bool {
        self.order.is_empty()
    }

    /// Iterates the first `window` queued sessions, head first.
    pub fn head(&self, window: usize) -> impl Iterator<Item = SessionId> + '_ {
        self.order.iter().copied().take(window)
    }
}

/// Which eviction policy an [`crate::AttentionStore`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PolicyKind {
    /// The paper's look-ahead policy (§3.3.2) with prefetching (§3.3.1).
    SchedulerAware,
    /// Least-recently-used baseline.
    Lru,
    /// First-in-first-out baseline.
    Fifo,
}

impl PolicyKind {
    /// Instantiates the policy.
    pub fn build(self) -> Box<dyn EvictionPolicy> {
        match self {
            PolicyKind::SchedulerAware => Box::new(SchedulerAware),
            PolicyKind::Lru => Box::new(Lru),
            PolicyKind::Fifo => Box::new(Fifo),
        }
    }
}

/// Chooses which session to evict from a tier.
pub trait EvictionPolicy {
    /// Picks a victim among `candidates` (unpinned entries of one tier),
    /// walked in victim order: least recently used first, ties broken
    /// by `insert_seq` (unique), then by session id. Policies stop
    /// walking as soon as the rest of the order cannot change the pick.
    ///
    /// `queue` is the scheduler's queue and `window` the look-ahead
    /// eviction window length in queue positions; history-only policies
    /// ignore both. Returns `None` when there are no candidates.
    fn choose_victim(
        &self,
        candidates: &mut dyn Iterator<Item = (SessionId, &Entry)>,
        queue: &QueueView,
        window: usize,
    ) -> Option<SessionId>;

    /// Returns `true` when the store should run the look-ahead prefetcher
    /// for this policy.
    fn wants_prefetch(&self) -> bool {
        false
    }
}

/// Least-recently-used victim selection.
pub struct Lru;

impl EvictionPolicy for Lru {
    fn choose_victim(
        &self,
        candidates: &mut dyn Iterator<Item = (SessionId, &Entry)>,
        _queue: &QueueView,
        _window: usize,
    ) -> Option<SessionId> {
        candidates.next().map(|(sid, _)| sid)
    }
}

/// First-in-first-out victim selection.
pub struct Fifo;

impl EvictionPolicy for Fifo {
    fn choose_victim(
        &self,
        candidates: &mut dyn Iterator<Item = (SessionId, &Entry)>,
        _queue: &QueueView,
        _window: usize,
    ) -> Option<SessionId> {
        candidates
            .min_by_key(|(sid, e)| (e.insert_seq, *sid))
            .map(|(sid, _)| sid)
    }
}

/// The paper's scheduler-aware eviction (§3.3.2).
///
/// Entries whose sessions do **not** appear in the look-ahead eviction
/// window are preferred victims (their next use, if any, is beyond the
/// horizon); among them the least recently used goes first. When every
/// candidate is in the window, the one nearest the **tail** — the furthest
/// future use, i.e. the Belady choice within the horizon — is evicted.
///
/// Walking the victim order, the first out-of-window candidate is the
/// pick; the walk meanwhile tracks the furthest in-window `(position,
/// sid)` as the fallback. Only queued sessions are ever in the window,
/// so a walk visits at most one candidate more than the queue holds.
pub struct SchedulerAware;

impl EvictionPolicy for SchedulerAware {
    fn choose_victim(
        &self,
        candidates: &mut dyn Iterator<Item = (SessionId, &Entry)>,
        queue: &QueueView,
        window: usize,
    ) -> Option<SessionId> {
        let mut furthest = None;
        for (sid, _) in candidates {
            match queue.position(sid) {
                Some(p) if p < window => furthest = furthest.max(Some((p, sid))),
                // Not referenced within the window: the LRU such one.
                _ => return Some(sid),
            }
        }
        // Everything is about to be used: evict the furthest-future one.
        furthest.map(|(_, sid)| sid)
    }

    fn wants_prefetch(&self) -> bool {
        true
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sim::Time;

    fn entry(last_access_ns: u64, insert_seq: u64) -> Entry {
        Entry {
            bytes: 100,
            tokens: 10,
            placement: crate::TierId(0),
            blocks: Vec::new(),
            last_access: Time::from_nanos(last_access_ns),
            insert_seq,
            pinned: false,
            checksum: 0,
        }
    }

    /// Runs `policy` over `cands` walked in victim order, the way the
    /// store's per-tier order presents them.
    fn pick(
        policy: &dyn EvictionPolicy,
        cands: &[(SessionId, &Entry)],
        queue: &QueueView,
        window: usize,
    ) -> Option<SessionId> {
        let mut order = cands.to_vec();
        order.sort_by_key(|&(sid, e)| (e.last_access, e.insert_seq, sid));
        policy.choose_victim(&mut order.into_iter(), queue, window)
    }

    #[test]
    fn lru_picks_oldest_access() {
        let a = entry(50, 0);
        let b = entry(10, 1);
        let c = entry(30, 2);
        let cands = vec![(SessionId(1), &a), (SessionId(2), &b), (SessionId(3), &c)];
        assert_eq!(
            pick(&Lru, &cands, &QueueView::empty(), 0),
            Some(SessionId(2))
        );
    }

    #[test]
    fn fifo_picks_earliest_insert() {
        let a = entry(50, 7);
        let b = entry(10, 9);
        let cands = vec![(SessionId(1), &a), (SessionId(2), &b)];
        assert_eq!(
            pick(&Fifo, &cands, &QueueView::empty(), 0),
            Some(SessionId(1))
        );
    }

    #[test]
    fn scheduler_aware_prefers_out_of_window() {
        // Queue: [s1, s2]; s3 is not queued, so it must be the victim even
        // though it is the most recently used.
        let a = entry(10, 0);
        let b = entry(20, 1);
        let c = entry(99, 2);
        let cands = vec![(SessionId(1), &a), (SessionId(2), &b), (SessionId(3), &c)];
        let q = QueueView::new(&[SessionId(1), SessionId(2)]);
        assert_eq!(pick(&SchedulerAware, &cands, &q, 10), Some(SessionId(3)));
    }

    #[test]
    fn scheduler_aware_falls_back_to_tail_of_window() {
        // All candidates are queued: the one nearest the tail goes.
        let a = entry(10, 0);
        let b = entry(20, 1);
        let cands = vec![(SessionId(1), &a), (SessionId(2), &b)];
        let q = QueueView::new(&[SessionId(2), SessionId(1)]);
        assert_eq!(pick(&SchedulerAware, &cands, &q, 10), Some(SessionId(1)));
    }

    #[test]
    fn scheduler_aware_fallback_uses_earliest_position_of_duplicates() {
        // s1 is queued at 0 and again at 2; its earliest position counts,
        // so s2 (position 1) is the furthest-future candidate.
        let a = entry(10, 0);
        let b = entry(20, 1);
        let cands = vec![(SessionId(1), &a), (SessionId(2), &b)];
        let q = QueueView::new(&[SessionId(1), SessionId(2), SessionId(1)]);
        assert_eq!(pick(&SchedulerAware, &cands, &q, 10), Some(SessionId(2)));
    }

    #[test]
    fn window_truncates_the_queue() {
        // s2 is queued but beyond the window, so it counts as
        // out-of-window and is preferred over in-window s1.
        let a = entry(10, 0);
        let b = entry(5, 1);
        let cands = vec![(SessionId(1), &a), (SessionId(2), &b)];
        let q = QueueView::new(&[SessionId(1), SessionId(2)]);
        assert_eq!(pick(&SchedulerAware, &cands, &q, 1), Some(SessionId(2)));
    }

    #[test]
    fn excluding_the_lru_head_picks_the_next_in_order() {
        // The store filters an excluded session out of the walk; when it
        // is the head of the order, every policy moves on to the rest.
        let a = entry(10, 0);
        let b = entry(20, 1);
        let c = entry(30, 2);
        let all = vec![(SessionId(1), &a), (SessionId(2), &b), (SessionId(3), &c)];
        let q = QueueView::new(&[SessionId(2)]);
        for policy in [&Lru as &dyn EvictionPolicy, &Fifo, &SchedulerAware] {
            assert_eq!(pick(policy, &all, &q, 10), Some(SessionId(1)));
        }
        let rest: Vec<_> = all
            .into_iter()
            .filter(|&(sid, _)| sid != SessionId(1))
            .collect();
        assert_eq!(pick(&Lru, &rest, &q, 10), Some(SessionId(2)));
        assert_eq!(pick(&Fifo, &rest, &q, 10), Some(SessionId(2)));
        // s2 is queued, so the scheduler-aware walk skips it too.
        assert_eq!(pick(&SchedulerAware, &rest, &q, 10), Some(SessionId(3)));
    }

    #[test]
    fn equal_last_access_breaks_ties_by_insert_seq() {
        // Same access time: the earlier insert goes first, even though
        // its session id is larger.
        let a = entry(10, 5);
        let b = entry(10, 3);
        let cands = vec![(SessionId(1), &a), (SessionId(2), &b)];
        let q = QueueView::empty();
        assert_eq!(pick(&Lru, &cands, &q, 0), Some(SessionId(2)));
        assert_eq!(pick(&SchedulerAware, &cands, &q, 0), Some(SessionId(2)));
        assert_eq!(pick(&Fifo, &cands, &q, 0), Some(SessionId(2)));
    }

    #[test]
    fn empty_candidates_yield_none() {
        for kind in [
            PolicyKind::SchedulerAware,
            PolicyKind::Lru,
            PolicyKind::Fifo,
        ] {
            assert_eq!(
                pick(kind.build().as_ref(), &[], &QueueView::empty(), 4),
                None
            );
        }
    }

    #[test]
    fn only_scheduler_aware_prefetches() {
        assert!(PolicyKind::SchedulerAware.build().wants_prefetch());
        assert!(!PolicyKind::Lru.build().wants_prefetch());
        assert!(!PolicyKind::Fifo.build().wants_prefetch());
    }

    #[test]
    fn rebuild_matches_with_owners_and_reuses_buffers() {
        let order = [SessionId(5), SessionId(6), SessionId(5), SessionId(7)];
        let owners = [1u32, 0, 2, 1];
        let fresh = QueueView::with_owners(&order, &owners);
        let mut reused = QueueView::default();
        // Rebuild over stale content to prove the clear is complete.
        reused.rebuild(&[SessionId(99)], &[9]);
        reused.rebuild(&order, &owners);
        assert_eq!(reused.len(), fresh.len());
        assert_eq!(
            reused.head(10).collect::<Vec<_>>(),
            fresh.head(10).collect::<Vec<_>>()
        );
        for &sid in &[SessionId(5), SessionId(6), SessionId(7), SessionId(99)] {
            assert_eq!(reused.position(sid), fresh.position(sid));
            assert_eq!(reused.owner(sid), fresh.owner(sid));
        }
        // Duplicates keep the earliest occurrence's position and owner.
        assert_eq!(reused.position(SessionId(5)), Some(0));
        assert_eq!(reused.owner(SessionId(5)), Some(1));
    }

    #[test]
    fn queue_view_duplicate_sessions_keep_earliest_position() {
        let q = QueueView::new(&[SessionId(5), SessionId(6), SessionId(5)]);
        assert_eq!(q.position(SessionId(5)), Some(0));
        assert_eq!(q.len(), 3);
        assert_eq!(
            q.head(2).collect::<Vec<_>>(),
            vec![SessionId(5), SessionId(6)]
        );
    }
}
