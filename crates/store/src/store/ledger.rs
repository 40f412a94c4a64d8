//! The block ledger's state — node slab, prefix trie, session chains —
//! and the ordered victim indexes kept exact over it.
//!
//! Every victim pick of the content-addressed store is "the least
//! recently used node of tier `t` that passes some filter". The ledger
//! therefore keeps two [`TierOrder`]s keyed by `(last_access,
//! insert_seq, slot)`: every live node, and the dead ones (`refs == 0
//! && pins == 0`).
//!
//! The sets stay exact because there is one mutation path: nodes enter
//! through [`BlockLedger::insert_node`], change only inside
//! [`BlockLedger::update`] (which re-keys them afterwards) and leave
//! through [`BlockLedger::remove_node`]. The slab, trie and session map
//! are private to this module and callers only ever see `&ChunkNode`,
//! so no caller can edit a node behind the indexes' back.

use std::collections::{BTreeMap, HashMap};

use sim::hash::FxHashMap;
use sim::Time;

use super::order::{Place, TierOrder};
use crate::chain::{ChunkKey, ContentKey, DedupStats};
use crate::{BlockId, SessionId, TierId};

/// One stored chunk of KV, shared by every chain that references it.
pub(super) struct ChunkNode {
    pub(super) chain_hash: u64,
    pub(super) tokens: u64,
    pub(super) bytes: u64,
    pub(super) placement: TierId,
    pub(super) blocks: Vec<BlockId>,
    /// Saved chains referencing this node.
    pub(super) refs: u64,
    /// In-flight consults holding this node (exempt from movement).
    pub(super) pins: u64,
    pub(super) last_access: Time,
    pub(super) insert_seq: u64,
    /// Last session to save or match this node; used to attribute tier
    /// transfers when the node itself moves.
    pub(super) owner_hint: SessionId,
}

impl ChunkNode {
    /// Where node `slot` sits in its tier's live order.
    fn live_place(&self, slot: usize) -> Place<usize> {
        Some((self.placement, (self.last_access, self.insert_seq, slot)))
    }

    /// Where node `slot` sits in its tier's dead order, if dead.
    fn dead_place(&self, slot: usize) -> Place<usize> {
        self.live_place(slot).filter(|_| self.is_dead())
    }

    /// Unreferenced and unpinned: reclaimable out of the system.
    fn is_dead(&self) -> bool {
        self.refs == 0 && self.pins == 0
    }
}

/// One session's view of the ledger: an ordered chain of node slots.
pub(super) struct SessionRef {
    pub(super) chain: Vec<usize>,
    pub(super) tokens: u64,
    pub(super) bytes: u64,
    pub(super) key: ContentKey,
    pub(super) last_access: Time,
    pub(super) insert_seq: u64,
}

/// The shared-block side of the store (empty and inert in per-session
/// mode).
pub(super) struct BlockLedger {
    /// Slab of nodes; `None` slots are free for reuse.
    nodes: Vec<Option<ChunkNode>>,
    free_slots: Vec<usize>,
    /// chain hash → slot: the prefix trie.
    by_hash: FxHashMap<u64, usize>,
    sessions: BTreeMap<SessionId, SessionRef>,
    /// Sum of `bytes` over `sessions`.
    session_bytes: u64,
    /// Content keys registered before a session's first save.
    keys: BTreeMap<SessionId, ContentKey>,
    /// Per tier: every live node, least recently used first.
    live: TierOrder<usize>,
    /// Per tier: the dead nodes, least recently used first.
    dead: TierOrder<usize>,
    /// Bumped whenever the trie, the session map or the registered keys
    /// change: everything a queued session's working set is derived
    /// from.
    epoch: u64,
    next_seq: u64,
    /// Chains pinned by in-flight consults.
    pub(super) pinned: BTreeMap<SessionId, Vec<usize>>,
    pub(super) dedup: DedupStats,
}

impl BlockLedger {
    /// An empty ledger over `n_tiers` tiers.
    pub(super) fn new(n_tiers: usize) -> Self {
        BlockLedger {
            nodes: Vec::new(),
            free_slots: Vec::new(),
            by_hash: FxHashMap::default(),
            sessions: BTreeMap::new(),
            session_bytes: 0,
            keys: BTreeMap::new(),
            live: TierOrder::new(n_tiers),
            dead: TierOrder::new(n_tiers),
            epoch: 0,
            next_seq: 0,
            pinned: BTreeMap::new(),
            dedup: DedupStats::default(),
        }
    }

    fn next_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// See the `epoch` field.
    pub(super) fn epoch(&self) -> u64 {
        self.epoch
    }

    // ---- nodes ----------------------------------------------------------

    pub(super) fn node(&self, slot: usize) -> &ChunkNode {
        self.nodes[slot].as_ref().expect("slot is live")
    }

    /// The trie: the slot storing chunk `chain_hash`, if any.
    pub(super) fn slot_of(&self, chain_hash: u64) -> Option<usize> {
        self.by_hash.get(&chain_hash).copied()
    }

    /// Stores chunk `ck` fresh (one reference, unpinned, accessed `now`)
    /// and indexes it. Returns its slot.
    pub(super) fn insert_node(
        &mut self,
        ck: ChunkKey,
        bytes: u64,
        placement: TierId,
        blocks: Vec<BlockId>,
        now: Time,
        owner: SessionId,
    ) -> usize {
        let node = ChunkNode {
            chain_hash: ck.chain_hash,
            tokens: ck.tokens,
            bytes,
            placement,
            blocks,
            refs: 1,
            pins: 0,
            last_access: now,
            insert_seq: self.next_seq(),
            owner_hint: owner,
        };
        let slot = match self.free_slots.pop() {
            Some(s) => s,
            None => {
                self.nodes.push(None);
                self.nodes.len() - 1
            }
        };
        self.live.rekey(None, node.live_place(slot));
        self.nodes[slot] = Some(node);
        self.by_hash.insert(ck.chain_hash, slot);
        self.epoch += 1;
        slot
    }

    /// Edits node `slot` through `f`, then re-keys it in the victim
    /// orders. The only way to change a stored node; its chain hash
    /// changes through [`rehash`](Self::rehash) instead.
    pub(super) fn update<R>(&mut self, slot: usize, f: impl FnOnce(&mut ChunkNode) -> R) -> R {
        let node = self.nodes[slot].as_mut().expect("slot is live");
        let (live, dead, hash) = (
            node.live_place(slot),
            node.dead_place(slot),
            node.chain_hash,
        );
        let out = f(node);
        debug_assert_eq!(node.chain_hash, hash, "chain hashes change via rehash");
        self.live.rekey(live, node.live_place(slot));
        self.dead.rekey(dead, node.dead_place(slot));
        out
    }

    /// Re-files node `slot` under a new chain hash in the trie.
    pub(super) fn rehash(&mut self, slot: usize, chain_hash: u64) {
        let node = self.nodes[slot].as_mut().expect("slot is live");
        self.by_hash.remove(&node.chain_hash);
        node.chain_hash = chain_hash;
        self.by_hash.insert(chain_hash, slot);
        self.epoch += 1;
    }

    /// Unreferences every node of `chain` once.
    pub(super) fn release(&mut self, chain: &[usize]) {
        for &slot in chain {
            self.update(slot, |n| n.refs = n.refs.saturating_sub(1));
        }
    }

    /// Takes node `slot` out of the slab, the trie and the indexes.
    pub(super) fn remove_node(&mut self, slot: usize) -> ChunkNode {
        let node = self.nodes[slot].take().expect("slot is live");
        self.live.rekey(node.live_place(slot), None);
        self.dead.rekey(node.dead_place(slot), None);
        self.by_hash.remove(&node.chain_hash);
        self.free_slots.push(slot);
        self.epoch += 1;
        node
    }

    /// Live slots, ascending (deterministic iteration order).
    pub(super) fn live_slots(&self) -> impl Iterator<Item = usize> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter_map(|(i, n)| n.as_ref().map(|_| i))
    }

    /// Every live node of `tier`, least recently used first.
    pub(super) fn lru(&self, tier: TierId) -> impl Iterator<Item = usize> + '_ {
        self.live.ids(tier)
    }

    /// The dead nodes of `tier`, least recently used first.
    pub(super) fn dead_lru(&self, tier: TierId) -> impl Iterator<Item = usize> + '_ {
        self.dead.ids(tier)
    }

    // ---- sessions and keys ----------------------------------------------

    pub(super) fn session(&self, sid: SessionId) -> Option<&SessionRef> {
        self.sessions.get(&sid)
    }

    pub(super) fn sessions(&self) -> impl Iterator<Item = (SessionId, &SessionRef)> + '_ {
        self.sessions.iter().map(|(&sid, r)| (sid, r))
    }

    pub(super) fn session_count(&self) -> usize {
        self.sessions.len()
    }

    /// Sum of the stored chains' bytes.
    pub(super) fn session_bytes(&self) -> u64 {
        self.session_bytes
    }

    /// Records `sid`'s chain (replacing any previous one). The caller
    /// has already counted the chain's references on its nodes.
    pub(super) fn insert_session(
        &mut self,
        sid: SessionId,
        chain: Vec<usize>,
        tokens: u64,
        bytes: u64,
        key: ContentKey,
        now: Time,
    ) {
        let r = SessionRef {
            chain,
            tokens,
            bytes,
            key,
            last_access: now,
            insert_seq: self.next_seq(),
        };
        self.session_bytes += bytes;
        if let Some(old) = self.sessions.insert(sid, r) {
            self.session_bytes -= old.bytes;
        }
        self.epoch += 1;
    }

    /// Drops `sid`'s chain record (its node references stay counted
    /// until the caller releases them).
    pub(super) fn remove_session(&mut self, sid: SessionId) -> Option<SessionRef> {
        let r = self.sessions.remove(&sid)?;
        self.session_bytes -= r.bytes;
        self.epoch += 1;
        Some(r)
    }

    pub(super) fn touch_session(&mut self, sid: SessionId, now: Time) {
        if let Some(r) = self.sessions.get_mut(&sid) {
            r.last_access = now;
        }
    }

    /// The content key registered for `sid` before its first save.
    pub(super) fn registered_key(&self, sid: SessionId) -> Option<ContentKey> {
        self.keys.get(&sid).copied()
    }

    pub(super) fn set_key(&mut self, sid: SessionId, key: ContentKey) {
        self.keys.insert(sid, key);
        self.epoch += 1;
    }

    // ---- invariants -------------------------------------------------------

    /// Checks the ledger's own invariants: trie/slab agreement, refcount
    /// and pin conservation, chain sums, the session byte total, and
    /// that each tier's victim orders hold exactly its live and dead
    /// nodes under their current keys. Returns the per-tier block
    /// counts of the live nodes for the caller's pool check.
    pub(super) fn validate(&self) -> Result<Vec<usize>, String> {
        // by_hash maps exactly the live nodes.
        for (&hash, &slot) in &self.by_hash {
            let Some(node) = self.nodes.get(slot).and_then(|n| n.as_ref()) else {
                return Err(format!("by_hash {hash:#x} points at dead slot {slot}"));
            };
            if node.chain_hash != hash {
                return Err(format!(
                    "by_hash {hash:#x} points at node {:#x}",
                    node.chain_hash
                ));
            }
        }
        let live = self.live_slots().count();
        if self.by_hash.len() != live {
            return Err(format!(
                "{} live nodes but {} hash entries",
                live,
                self.by_hash.len()
            ));
        }
        // Refcount conservation: refs == chains referencing the slot.
        let mut want_refs: HashMap<usize, u64> = HashMap::new();
        for r in self.sessions.values() {
            for &slot in &r.chain {
                *want_refs.entry(slot).or_insert(0) += 1;
            }
        }
        // Pin conservation: pins == pinned-map occurrences.
        let mut want_pins: HashMap<usize, u64> = HashMap::new();
        for slots in self.pinned.values() {
            for &slot in slots {
                *want_pins.entry(slot).or_insert(0) += 1;
            }
        }
        let n_tiers = self.live.n_tiers();
        let mut tier_blocks = vec![0usize; n_tiers];
        let (mut want_live, mut want_dead) = (TierOrder::new(n_tiers), TierOrder::new(n_tiers));
        for slot in self.live_slots() {
            let node = self.node(slot);
            let refs = want_refs.get(&slot).copied().unwrap_or(0);
            if node.refs != refs {
                return Err(format!(
                    "node {slot}: refs {} but {} chains reference it",
                    node.refs, refs
                ));
            }
            let pins = want_pins.get(&slot).copied().unwrap_or(0);
            if node.pins != pins {
                return Err(format!(
                    "node {slot}: pins {} but {} consults hold it",
                    node.pins, pins
                ));
            }
            tier_blocks[node.placement.0] += node.blocks.len();
            want_live.rekey(None, node.live_place(slot));
            want_dead.rekey(None, node.dead_place(slot));
        }
        // Each tier's orders hold exactly its nodes under current keys.
        self.live.check(&want_live, "live")?;
        self.dead.check(&want_dead, "dead")?;
        // Every chain references live nodes only, with consistent sums.
        let mut session_bytes = 0;
        for (sid, r) in &self.sessions {
            let mut tokens = 0;
            let mut bytes = 0;
            for &slot in &r.chain {
                let Some(node) = self.nodes.get(slot).and_then(|n| n.as_ref()) else {
                    return Err(format!("{sid}: chain references dead slot {slot}"));
                };
                tokens += node.tokens;
                bytes += node.bytes;
            }
            if tokens != r.tokens || bytes != r.bytes {
                return Err(format!(
                    "{sid}: ref claims {}t/{}B, chain sums {}t/{}B",
                    r.tokens, r.bytes, tokens, bytes
                ));
            }
            session_bytes += r.bytes;
        }
        if session_bytes != self.session_bytes {
            return Err(format!(
                "session byte total {} but chains sum to {session_bytes}",
                self.session_bytes
            ));
        }
        Ok(tier_blocks)
    }
}
