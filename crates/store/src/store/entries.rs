//! The per-session entry table and the victim order kept exact over it.
//!
//! Every per-session victim pick is a walk over one tier's unpinned
//! entries, least recently used first, so the table keeps a
//! [`TierOrder`] of the unpinned entries keyed by `(last_access,
//! insert_seq, sid)` plus a running total of entry bytes (the `S_kv`
//! that sizes the look-ahead windows).
//!
//! Both stay exact because there is one mutation path: entries enter
//! through [`EntryTable::insert`], change only inside
//! [`EntryTable::update`] (which re-keys them afterwards) and leave
//! through [`EntryTable::remove`]. Callers only ever see `&Entry`.

use std::collections::BTreeMap;

use super::order::{Place, TierOrder};
use crate::{Entry, SessionId, TierId};

/// Where `sid`'s entry sits in its tier's order (`None` while pinned).
fn place(sid: SessionId, e: &Entry) -> Place<SessionId> {
    (!e.pinned).then_some((e.placement, (e.last_access, e.insert_seq, sid)))
}

/// The per-session entries of the store (empty under block keying).
pub(super) struct EntryTable {
    map: BTreeMap<SessionId, Entry>,
    /// Per tier: the unpinned entries, least recently used first.
    unpinned: TierOrder<SessionId>,
    /// Sum of `bytes` over `map`.
    bytes: u64,
    next_seq: u64,
}

impl EntryTable {
    /// An empty table over `n_tiers` tiers.
    pub(super) fn new(n_tiers: usize) -> Self {
        EntryTable {
            map: BTreeMap::new(),
            unpinned: TierOrder::new(n_tiers),
            bytes: 0,
            next_seq: 0,
        }
    }

    /// The next insertion sequence number (unique, increasing).
    pub(super) fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    pub(super) fn get(&self, sid: SessionId) -> Option<&Entry> {
        self.map.get(&sid)
    }

    pub(super) fn len(&self) -> usize {
        self.map.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Sum of the stored entries' bytes.
    pub(super) fn total_bytes(&self) -> u64 {
        self.bytes
    }

    /// Every entry, by session id.
    pub(super) fn iter(&self) -> impl Iterator<Item = (SessionId, &Entry)> + '_ {
        self.map.iter().map(|(&sid, e)| (sid, e))
    }

    /// The unpinned entries of `tier`, least recently used first.
    pub(super) fn unpinned(&self, tier: TierId) -> impl Iterator<Item = (SessionId, &Entry)> + '_ {
        self.unpinned.ids(tier).map(|sid| (sid, &self.map[&sid]))
    }

    /// Stores `e` for `sid` (replacing any previous entry) and indexes
    /// it.
    pub(super) fn insert(&mut self, sid: SessionId, e: Entry) {
        self.remove(sid);
        self.bytes += e.bytes;
        self.unpinned.rekey(None, place(sid, &e));
        self.map.insert(sid, e);
    }

    /// Edits `sid`'s entry through `f`, then re-keys it. The only way to
    /// change a stored entry; `None` when `sid` has none.
    pub(super) fn update<R>(
        &mut self,
        sid: SessionId,
        f: impl FnOnce(&mut Entry) -> R,
    ) -> Option<R> {
        let e = self.map.get_mut(&sid)?;
        let (old, bytes) = (place(sid, e), e.bytes);
        let out = f(e);
        self.unpinned.rekey(old, place(sid, e));
        self.bytes = self.bytes - bytes + e.bytes;
        Some(out)
    }

    /// Takes `sid`'s entry out of the table and the order.
    pub(super) fn remove(&mut self, sid: SessionId) -> Option<Entry> {
        let e = self.map.remove(&sid)?;
        self.unpinned.rekey(place(sid, &e), None);
        self.bytes -= e.bytes;
        Some(e)
    }

    /// Checks that each tier's order holds exactly its unpinned entries
    /// under their current keys and that the byte total is the entries'
    /// sum. Returns the per-tier block counts for the caller's pool
    /// check.
    pub(super) fn validate(&self) -> Result<Vec<usize>, String> {
        let n_tiers = self.unpinned.n_tiers();
        let mut tier_blocks = vec![0usize; n_tiers];
        let mut want = TierOrder::new(n_tiers);
        let mut bytes = 0;
        for (sid, e) in self.iter() {
            tier_blocks[e.placement.0] += e.blocks.len();
            want.rekey(None, place(sid, e));
            bytes += e.bytes;
        }
        self.unpinned.check(&want, "unpinned")?;
        if bytes != self.bytes {
            return Err(format!(
                "entry byte total {} but entries sum to {bytes}",
                self.bytes
            ));
        }
        Ok(tier_blocks)
    }
}
