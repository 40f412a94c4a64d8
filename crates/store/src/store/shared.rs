//! The content-addressed block ledger: storage, lookup and eviction for
//! [`KeyingMode::ContentAddressed`].
//!
//! Instead of one private [`Entry`] per session, the ledger stores
//! *chunk nodes* — `block_tokens`-sized spans of KV addressed by their
//! prefix chain hash — shared by every session whose token stream
//! produces the same hash. A session is reduced to an ordered list of
//! node references (its chain). The `chain hash → node` map is the
//! prefix trie: longest-prefix match walks successive chain hashes until
//! the first miss, so one lookup per block and no explicit tree.
//!
//! Lifecycle rules:
//! - **refs** count saved chains referencing a node. Releasing a
//!   reference never frees the node immediately — an unreferenced node
//!   stays resident (still matchable) until capacity pressure reclaims
//!   it, which is the refcounted-eviction path.
//! - **pins** count in-flight uses (a consult pins the matched chain
//!   until the engine unpins after the turn). A pinned node is exempt
//!   from demotion and eviction at every tier, like pinned entries in
//!   per-session mode.
//! - A node is *evictable out of the system* only when `refs == 0`;
//!   referenced nodes demote hop by hop instead. When the bottom tier
//!   holds only referenced blocks, the ledger falls back to releasing
//!   the least-recently-used unpinned session's whole chain (the moral
//!   equivalent of per-session eviction, reported with the same
//!   `evicted` event).

use std::rc::Rc;

use sim::hash::FxHashSet;
use sim::Time;

use crate::chain::{ContentKey, DedupStats};
use crate::events::{FetchKind, StoreEvent};
use crate::{QueueView, SessionId, TierId};

use super::{AttentionStore, LoadOutcome, Lookup, Transfer};

/// The look-ahead state of one store call: the queue it was made with,
/// plus the working sets derived from it (which slots the sessions at
/// the queue head will read, [`AttentionStore::ca_queued_slots`]). Each
/// set is built at most once per window length and ledger epoch, and
/// the whole struct lives no longer than the call, so a set never
/// describes another call's queue.
pub(super) struct WorkingSet<'q> {
    queue: &'q QueueView,
    /// `(window, ledger epoch, slots)`.
    queued: Vec<(usize, u64, Rc<FxHashSet<usize>>)>,
}

impl<'q> WorkingSet<'q> {
    pub(super) fn new(queue: &'q QueueView) -> Self {
        WorkingSet {
            queue,
            queued: Vec::new(),
        }
    }
}

impl AttentionStore {
    /// Registers `sid`'s content key (from the workload's declared shared
    /// prefix) so its chunks hash into the shared namespace. Must happen
    /// before the session's first save; later calls are ignored once a
    /// chain exists (the key travels with the chain from then on).
    pub fn register_content(&mut self, sid: SessionId, key: ContentKey) {
        if self.shared.session(sid).is_none() {
            self.shared.set_key(sid, key);
        }
    }

    /// Cumulative dedup statistics (all zero in per-session mode).
    pub fn dedup_stats(&self) -> DedupStats {
        self.shared.dedup
    }

    fn ca_key(&self, sid: SessionId) -> ContentKey {
        if let Some(r) = self.shared.session(sid) {
            return r.key;
        }
        self.shared
            .registered_key(sid)
            .unwrap_or_else(|| ContentKey::private(sid.0))
    }

    /// Splits `total_bytes` across the chain proportionally to tokens,
    /// rounding so the per-chunk sizes sum exactly to the total.
    fn chunk_bytes(total_bytes: u64, total_tokens: u64, start: u64, n: u64) -> u64 {
        let at = |tok: u64| -> u64 {
            ((total_bytes as u128 * tok as u128) / total_tokens.max(1) as u128) as u64
        };
        at(start + n) - at(start)
    }

    /// The slots of `key`'s shared span that resolve in the trie, up to
    /// the first miss.
    pub(super) fn ca_shared_prefix(&self, key: ContentKey) -> Vec<usize> {
        key.chain(key.shared_tokens, self.cfg.block_tokens)
            .iter()
            .map_while(|ck| self.shared.slot_of(ck.chain_hash))
            .collect()
    }

    // ---- lookup / accessors -------------------------------------------

    pub(super) fn ca_lookup(&self, sid: SessionId) -> Lookup {
        match self.shared.session(sid) {
            Some(r) if !r.chain.is_empty() => {
                let deepest = r
                    .chain
                    .iter()
                    .map(|&s| self.shared.node(s).placement)
                    .max()
                    .expect("chain non-empty");
                Lookup::Hit(deepest)
            }
            _ => Lookup::Miss,
        }
    }

    pub(super) fn ca_tokens(&self, sid: SessionId) -> Option<u64> {
        self.shared.session(sid).map(|r| r.tokens)
    }

    pub(super) fn ca_len(&self) -> usize {
        self.shared.session_count()
    }

    /// `S_kv` under block keying: block size × observed chain length,
    /// i.e. the mean bytes of the stored chains. Without this, the
    /// windows would fall back to the per-session default forever
    /// (the ledger never populates `entries`), collapsing `L_pw`/`L_ev`
    /// to fixed constants.
    pub(super) fn ca_avg_session_bytes(&self) -> u64 {
        let n = self.shared.session_count() as u64;
        if n == 0 {
            return self.cfg.default_session_bytes.max(1);
        }
        (self.shared.session_bytes() / n).max(1)
    }

    // ---- victim picks -------------------------------------------------
    //
    // Each pick is the first node of a tier's victim order that passes
    // its filter — the node a full `min_by_key` scan of the slab would
    // choose, since the order's keys are unique.

    /// The least-recently-used dead node (refs == 0, pins == 0) of
    /// `tier`: the refcounted-eviction victim.
    pub(super) fn ca_dead_victim(&self, tier: TierId) -> Option<usize> {
        self.shared.dead_lru(tier).next()
    }

    /// The least-recently-used unpinned node of `tier`: the reserve's
    /// victim.
    pub(super) fn ca_lru_unpinned(&self, tier: TierId) -> Option<usize> {
        self.shared
            .lru(tier)
            .find(|&s| self.shared.node(s).pins == 0)
    }

    /// The demotion victim of `tier`: the least-recently-used unpinned
    /// node that no session inside the look-ahead eviction window will
    /// read — via its stored chain (owner_hint in-window) or its
    /// registered key resolving here on a first turn. Only when every
    /// unpinned node is such an imminent block does the plain LRU one
    /// go.
    pub(super) fn ca_demote_victim(&self, tier: TierId, ws: &mut WorkingSet) -> Option<usize> {
        let window = self.eviction_window();
        let needed = self.ca_queued_slots(ws, window);
        let soon = |s: usize| {
            let n = self.shared.node(s);
            ws.queue.position(n.owner_hint).is_some_and(|p| p < window) || needed.contains(&s)
        };
        let mut unpinned = self
            .shared
            .lru(tier)
            .filter(|&s| self.shared.node(s).pins == 0);
        let first = unpinned.next()?;
        if !soon(first) {
            return Some(first);
        }
        Some(unpinned.find(|&s| !soon(s)).unwrap_or(first))
    }

    /// The victim demoted to stage target `sid` (queued at `pos`): the
    /// least-recently-used unpinned tier-0 node outside the protected
    /// working set (`queued` plus the target's own `chain`) whose last
    /// accessor is neither the target nor queued at or before it.
    pub(super) fn ca_prefetch_victim(
        &self,
        sid: SessionId,
        pos: usize,
        queue: &QueueView,
        queued: &FxHashSet<usize>,
        chain: &[usize],
    ) -> Option<usize> {
        self.shared.lru(TierId(0)).find(|&s| {
            let n = self.shared.node(s);
            n.pins == 0
                && n.owner_hint != sid
                && !queued.contains(&s)
                && !chain.contains(&s)
                && queue.position(n.owner_hint).is_none_or(|p| p > pos)
        })
    }

    // ---- room making / refcounted eviction ----------------------------

    /// Frees dead node `slot` out of the system — the refcounted
    /// eviction path.
    fn ca_reclaim(&mut self, now: Time, slot: usize) {
        let node = self.shared.remove_node(slot);
        self.pools[node.placement.0]
            .free(&node.blocks)
            .expect("node blocks are valid");
        self.shared.dedup.refcounted_evictions += 1;
        self.emit(StoreEvent::BlockEvicted {
            blocks: node.blocks.len() as u64,
            bytes: node.bytes,
            tier: node.placement,
            refs: 0,
            at: now,
        });
    }

    /// Frees the least-recently-used dead node of `tier`. Returns
    /// `false` when the tier has no dead node.
    pub(super) fn ca_free_dead_in(&mut self, now: Time, tier: TierId) -> bool {
        let Some(slot) = self.ca_dead_victim(tier) else {
            return false;
        };
        self.ca_reclaim(now, slot);
        true
    }

    /// Demotes `tier`'s [demotion victim](Self::ca_demote_victim) one
    /// hop down (making room below as needed) — the scheduler-aware
    /// victim order of §3.3.2 at block granularity. Returns `false` when
    /// no node is movable.
    pub(super) fn ca_demote_one(
        &mut self,
        now: Time,
        tier: TierId,
        acting: SessionId,
        ws: &mut WorkingSet,
        out: &mut Vec<Transfer>,
    ) -> bool {
        debug_assert!(
            tier != self.bottom_tier(),
            "bottom tier evicts, not demotes"
        );
        let Some(slot) = self.ca_demote_victim(tier, ws) else {
            return false;
        };
        self.ca_demote_slot(now, slot, acting, ws, out)
    }

    /// Demotes one specific node one hop down (making room below as
    /// needed). Returns `false` when room below cannot be made.
    fn ca_demote_slot(
        &mut self,
        now: Time,
        slot: usize,
        acting: SessionId,
        ws: &mut WorkingSet,
        out: &mut Vec<Transfer>,
    ) -> bool {
        let (bytes, from) = {
            let n = self.shared.node(slot);
            (n.bytes, n.placement)
        };
        let to = from.below();
        if !self.ca_make_room_in(now, to, bytes, acting, ws, out) {
            return false;
        }
        let new_blocks = self.pools[to.0].alloc(bytes).expect("room made above");
        let (old_blocks, mover) = self.shared.update(slot, |n| {
            n.placement = to;
            (std::mem::replace(&mut n.blocks, new_blocks), n.owner_hint)
        });
        self.pools[from.0]
            .free(&old_blocks)
            .expect("blocks were in the source tier");
        self.stats.demotions += 1;
        self.stats.demotion_bytes += bytes;
        self.emit(StoreEvent::BlockDemoted {
            blocks: self.shared.node(slot).blocks.len() as u64,
            bytes,
            from,
            to,
            at: now,
        });
        out.push(Transfer {
            session: mover,
            bytes,
            from,
            to,
        });
        true
    }

    /// Releases the least-recently-used unpinned session's whole chain —
    /// the fallback when the bottom tier holds only referenced blocks.
    /// Sessions outside the look-ahead eviction window are preferred.
    /// The `acting` session is never released: its own operation (a
    /// save replacing its chain, a prefetch staging it) still holds the
    /// chain, and releasing it mid-way would free nodes it goes on to
    /// use.
    fn ca_release_lru_session(&mut self, now: Time, acting: SessionId, ws: &WorkingSet) -> bool {
        let window = self.eviction_window();
        let queue = ws.queue;
        let cands: Vec<SessionId> = self
            .shared
            .sessions()
            .map(|(sid, _)| sid)
            .filter(|sid| *sid != acting && !self.shared.pinned.contains_key(sid))
            .collect();
        let order = |sid: &SessionId| {
            let r = self.shared.session(*sid).expect("candidate exists");
            (r.last_access, r.insert_seq)
        };
        let victim = cands
            .iter()
            .filter(|&&sid| queue.position(sid).is_none_or(|p| p >= window))
            .min_by_key(|sid| order(sid))
            .or_else(|| cands.iter().min_by_key(|sid| order(sid)))
            .copied();
        let Some(sid) = victim else {
            return false;
        };
        let r = self.shared.remove_session(sid).expect("victim exists");
        self.shared.release(&r.chain);
        self.stats.drops_capacity += 1;
        self.shared.dedup.session_releases += 1;
        self.emit(StoreEvent::Evicted {
            session: sid.0,
            bytes: r.bytes,
            tier: self.bottom_tier(),
            window_pos: queue.position(sid),
            instance: queue.owner(sid),
            at: now,
        });
        true
    }

    /// Frees space in `tier` until `bytes` fit: dead nodes are reclaimed
    /// first (refcounted eviction), then live nodes demote hop by hop;
    /// at the bottom tier, chains of cold sessions are released to turn
    /// referenced blocks into dead ones. Returns `false` when room
    /// cannot be made.
    fn ca_make_room_in(
        &mut self,
        now: Time,
        tier: TierId,
        bytes: u64,
        acting: SessionId,
        ws: &mut WorkingSet,
        out: &mut Vec<Transfer>,
    ) -> bool {
        let pool = &self.pools[tier.0];
        if pool.blocks_for(bytes) > pool.n_blocks() {
            return false;
        }
        while !self.pools[tier.0].fits(bytes) {
            if self.ca_free_dead_in(now, tier) {
                continue;
            }
            let progressed = if tier == self.bottom_tier() {
                self.ca_release_lru_session(now, acting, ws)
            } else {
                self.ca_demote_one(now, tier, acting, ws, out)
            };
            if !progressed {
                return false;
            }
        }
        true
    }

    // ---- save ---------------------------------------------------------

    pub(super) fn ca_save(
        &mut self,
        sid: SessionId,
        total_bytes: u64,
        total_tokens: u64,
        now: Time,
        queue: &QueueView,
    ) -> (Vec<Transfer>, bool) {
        // A save supersedes the consult that admitted the turn: release
        // its pins (mirrors the per-session save replacing the pinned
        // entry), or the session would block prefetch and demotion for
        // its whole think time.
        self.ca_unpin(sid);
        let mut ws = WorkingSet::new(queue);
        let mut transfers = Vec::new();
        let mark = self.trace_mark();
        let key = self.ca_key(sid);
        let desired = key.chain(total_tokens, self.cfg.block_tokens);

        // Diff against the previous chain: keep the common prefix, release
        // the rest. Replacing only a partial tail chunk is growth; anything
        // more is copy-on-divergence.
        let old: Vec<usize> = self
            .shared
            .session(sid)
            .map(|r| r.chain.clone())
            .unwrap_or_default();
        let common = old
            .iter()
            .zip(desired.iter())
            .take_while(|(&slot, ck)| self.shared.node(slot).chain_hash == ck.chain_hash)
            .count();
        let released = old.len() - common;
        if released > 0 {
            let old_tail_partial =
                self.shared.node(old[old.len() - 1]).tokens < self.cfg.block_tokens;
            self.shared.release(&old[common..]);
            let grew = released == 1 && common == old.len() - 1 && old_tail_partial;
            if !grew {
                self.shared.dedup.divergences += 1;
                self.emit(StoreEvent::BlockDiverged {
                    session: sid.0,
                    at_block: common as u64,
                    released_blocks: released as u64,
                    at: now,
                });
            }
        }

        let mut chain: Vec<usize> = old[..common].to_vec();
        let mut covered_tokens: u64 = desired[..common].iter().map(|c| c.tokens).sum();
        // Byte totals track the *stored* node sizes: a dedup-hit node was
        // sized by whichever session wrote it first, and proportional
        // rounding differs across totals.
        let mut covered_bytes: u64 = chain.iter().map(|&s| self.shared.node(s).bytes).sum();
        let mut new_blocks = 0u64;
        let mut dedup_blocks = 0u64;
        let mut bytes_written = 0u64;
        let mut bytes_saved = 0u64;
        let mut spilled = false;
        let mut fitted = true;
        for ck in &desired[common..] {
            let bytes = Self::chunk_bytes(total_bytes, total_tokens, covered_tokens, ck.tokens);
            if let Some(slot) = self.shared.slot_of(ck.chain_hash) {
                // Cross-session (or re-grown) dedup hit: share the node.
                let node_bytes = self.shared.update(slot, |n| {
                    n.refs += 1;
                    n.last_access = now;
                    n.owner_hint = sid;
                    n.bytes
                });
                dedup_blocks += 1;
                bytes_saved += node_bytes;
                covered_bytes += node_bytes;
                chain.push(slot);
            } else {
                // Fresh chunk: prefer tier 0, spill down the stack like
                // per-session saves (the write stream lands hop by hop).
                let placement = (0..self.pools.len())
                    .map(TierId)
                    .find(|&t| self.ca_make_room_in(now, t, bytes, sid, &mut ws, &mut transfers));
                let Some(placement) = placement else {
                    fitted = false;
                    break;
                };
                if !placement.is_fast() {
                    spilled = true;
                    for hop in 0..placement.0 {
                        transfers.push(Transfer {
                            session: sid,
                            bytes,
                            from: TierId(hop),
                            to: TierId(hop + 1),
                        });
                    }
                }
                let blocks = self.pools[placement.0]
                    .alloc(bytes)
                    .expect("room made above");
                let slot = self
                    .shared
                    .insert_node(*ck, bytes, placement, blocks, now, sid);
                new_blocks += 1;
                bytes_written += bytes;
                covered_bytes += bytes;
                chain.push(slot);
            }
            covered_tokens += ck.tokens;
        }

        self.shared.dedup.new_blocks += new_blocks;
        self.shared.dedup.dedup_blocks += dedup_blocks;
        self.shared.dedup.bytes_written += bytes_written;
        self.shared.dedup.bytes_saved += bytes_saved;
        if spilled {
            self.stats.spills_to_disk += 1;
        }
        if !fitted {
            self.stats.save_rejected += 1;
            self.emit(StoreEvent::SaveRejected {
                session: sid.0,
                bytes: total_bytes.saturating_sub(covered_bytes),
                at: now,
            });
        }
        if chain.is_empty() {
            // Nothing fit at all: no chain survives.
            self.shared.remove_session(sid);
            self.emit_occupancy(mark, now);
            return (transfers, false);
        }
        let deepest = chain
            .iter()
            .map(|&s| self.shared.node(s).placement)
            .max()
            .expect("chain non-empty");
        self.shared
            .insert_session(sid, chain, covered_tokens, covered_bytes, key, now);
        self.stats.saves += 1;
        self.stats.save_bytes += covered_bytes;
        self.emit(StoreEvent::Saved {
            session: sid.0,
            bytes: covered_bytes,
            tier: deepest,
            at: now,
        });
        self.emit(StoreEvent::BlockSaved {
            session: sid.0,
            new_blocks,
            dedup_blocks,
            bytes_written,
            bytes_saved,
            at: now,
        });
        self.emit_occupancy(mark, now);
        (transfers, fitted)
    }

    // ---- consult / load -----------------------------------------------

    /// Longest-prefix match of `sid`'s next context (`ctx_tokens` =
    /// history + new user tokens) against the trie, across *all*
    /// sessions. Matched blocks are pinned and staged to tier 0; the
    /// engine prefills only the unmatched tail.
    pub(super) fn ca_load_prefix(
        &mut self,
        sid: SessionId,
        ctx_tokens: u64,
        now: Time,
        queue: &QueueView,
    ) -> LoadOutcome {
        sim::scope!("store.trie_probe");
        // A consult replaces any pins left by a previous one.
        self.ca_unpin(sid);
        let mut ws = WorkingSet::new(queue);
        let mark = self.trace_mark();
        let key = self.ca_key(sid);

        // Cross-session walk: successive chain hashes over the context's
        // chunk grid until the first miss.
        let grid = key.chain(ctx_tokens, self.cfg.block_tokens);
        let mut cross: Vec<usize> = Vec::new();
        let mut cross_tokens = 0u64;
        for ck in &grid {
            let Some(slot) = self.shared.slot_of(ck.chain_hash) else {
                break;
            };
            cross.push(slot);
            cross_tokens += ck.tokens;
        }
        // Own-chain fallback: a session resuming its own history can
        // always reuse its stored prefix, even where its partial tail
        // chunk does not align with the context's chunk grid.
        let own = self.shared.session(sid);
        let own_tokens = own.map_or(0, |r| r.tokens.min(ctx_tokens));
        let (matched_tokens, matched) = match own {
            Some(r) if own_tokens > cross_tokens => (own_tokens, r.chain.clone()),
            _ => (cross_tokens, cross),
        };

        if matched.is_empty() {
            self.emit(StoreEvent::FetchMiss {
                session: sid.0,
                at: now,
            });
            self.emit_occupancy(mark, now);
            return LoadOutcome::miss();
        }

        let matched_bytes: u64 = matched.iter().map(|&s| self.shared.node(s).bytes).sum();
        let deepest = matched
            .iter()
            .map(|&s| self.shared.node(s).placement)
            .max()
            .expect("non-empty");
        self.emit(StoreEvent::FetchHit {
            session: sid.0,
            tier: deepest,
            bytes: matched_bytes,
            at: now,
        });
        self.emit(StoreEvent::BlockDedupHit {
            session: sid.0,
            matched_blocks: matched.len() as u64,
            bytes: matched_bytes,
            at: now,
        });
        self.shared.dedup.lookup_hits += 1;
        self.shared.dedup.matched_blocks += matched.len() as u64;

        // Pin first so room-making below cannot evict what we matched.
        for &slot in &matched {
            self.shared.update(slot, |n| {
                n.pins += 1;
                n.last_access = now;
                n.owner_hint = sid;
            });
        }
        self.shared.pinned.insert(sid, matched.clone());
        self.shared.touch_session(sid, now);

        // Stage matched blocks up to tier 0 (serve-in-place when tier 0
        // genuinely cannot hold them).
        let mut transfers = Vec::new();
        let mut promoted_bytes = 0u64;
        let mut promoted_from = TierId(0);
        for &slot in &matched {
            let (bytes, from) = {
                let n = self.shared.node(slot);
                (n.bytes, n.placement)
            };
            if from.is_fast() {
                continue;
            }
            if !self.ca_make_room_in(now, TierId(0), bytes, sid, &mut ws, &mut transfers) {
                continue;
            }
            let new_blocks = self.pools[0].alloc(bytes).expect("room made above");
            let old_blocks = self.shared.update(slot, |n| {
                n.placement = TierId(0);
                std::mem::replace(&mut n.blocks, new_blocks)
            });
            self.pools[from.0]
                .free(&old_blocks)
                .expect("blocks were in the source tier");
            self.stats.promotions += 1;
            self.stats.promotion_bytes += bytes;
            promoted_bytes += bytes;
            promoted_from = promoted_from.max(from);
            Self::push_promotion_hops(&mut transfers, sid, bytes, from);
        }
        if promoted_bytes > 0 {
            self.emit(StoreEvent::Promoted {
                session: sid.0,
                bytes: promoted_bytes,
                kind: FetchKind::Demand,
                from: promoted_from,
                to: TierId(0),
                queue_pos: queue.position(sid),
                instance: queue.owner(sid),
                at: now,
            });
        }
        self.emit_occupancy(mark, now);
        LoadOutcome::clean(Lookup::Hit(deepest), matched_tokens, transfers)
    }

    pub(super) fn ca_unpin(&mut self, sid: SessionId) {
        if let Some(slots) = self.shared.pinned.remove(&sid) {
            for slot in slots {
                self.shared
                    .update(slot, |n| n.pins = n.pins.saturating_sub(1));
            }
        }
    }

    // ---- lifecycle ----------------------------------------------------

    /// Truncation rewrites history in place, so the session's content
    /// forks from every chain it shared: bump the key's generation,
    /// release the old chain and rebuild the survivor prefix under the
    /// new (fully private) hashes — copy-on-divergence. Exclusively
    /// owned nodes are converted in place; shared nodes are copied into
    /// free space (never by evicting others — truncation is a
    /// bookkeeping shrink, not a capacity event).
    pub(super) fn ca_truncate(&mut self, sid: SessionId, new_bytes: u64, new_tokens: u64) {
        let Some(r) = self.shared.session(sid) else {
            return;
        };
        if new_bytes >= r.bytes {
            return;
        }
        let now = r.last_access;
        let mut key = r.key;
        key.generation += 1;
        self.shared.set_key(sid, key);
        let old = self
            .shared
            .remove_session(sid)
            .expect("checked above")
            .chain;
        self.shared.release(&old);
        self.shared.dedup.divergences += 1;
        self.emit(StoreEvent::BlockDiverged {
            session: sid.0,
            at_block: 0,
            released_blocks: old.len() as u64,
            at: now,
        });

        let desired = key.chain(new_tokens, self.cfg.block_tokens);
        let mut chain = Vec::with_capacity(desired.len());
        let mut covered_tokens = 0u64;
        let mut covered_bytes = 0u64;
        for (k, ck) in desired.iter().enumerate() {
            // The rewritten chunk may already be in the trie — e.g. a
            // session re-registered at generation 0 after an earlier
            // truncate/invalidate cycle rebuilds the same generation-1
            // hashes. Same hash means same content: reference the
            // stored node rather than inserting a duplicate, which
            // would orphan the incumbent's trie entry.
            if let Some(hit) = self.shared.slot_of(ck.chain_hash) {
                let bytes = self.shared.update(hit, |n| {
                    n.refs += 1;
                    n.last_access = now;
                    n.owner_hint = sid;
                    n.bytes
                });
                self.shared.dedup.dedup_blocks += 1;
                self.shared.dedup.bytes_saved += bytes;
                chain.push(hit);
                covered_tokens += ck.tokens;
                covered_bytes += bytes;
                continue;
            }
            let bytes = Self::chunk_bytes(new_bytes, new_tokens, covered_tokens, ck.tokens);
            let old_slot = old.get(k).copied();
            let exclusive = old_slot.is_some_and(|s| {
                let n = self.shared.node(s);
                n.refs == 0 && n.pins == 0
            });
            let slot = if exclusive {
                // Convert in place: shrink-realloc within the node's tier.
                let slot = old_slot.expect("checked above");
                let (tier, old_blocks) = self
                    .shared
                    .update(slot, |n| (n.placement, std::mem::take(&mut n.blocks)));
                self.shared.rehash(slot, ck.chain_hash);
                self.pools[tier.0]
                    .free(&old_blocks)
                    .expect("node blocks valid");
                let blocks = self.pools[tier.0]
                    .alloc(bytes)
                    .expect("shrinking realloc always fits");
                self.shared.update(slot, |n| {
                    n.tokens = ck.tokens;
                    n.bytes = bytes;
                    n.blocks = blocks;
                    n.refs = 1;
                });
                Some(slot)
            } else {
                // Shared (or pinned) node: copy into free space, first
                // tier that fits, fastest first.
                let tier = (0..self.pools.len())
                    .map(TierId)
                    .find(|t| self.pools[t.0].fits(bytes));
                tier.map(|tier| {
                    let blocks = self.pools[tier.0].alloc(bytes).expect("fits checked");
                    self.shared.insert_node(*ck, bytes, tier, blocks, now, sid)
                })
            };
            let Some(slot) = slot else {
                break; // keep the prefix that fit
            };
            chain.push(slot);
            covered_tokens += ck.tokens;
            covered_bytes += bytes;
        }
        // Old nodes beyond the survivor prefix that we exclusively owned
        // are dead now; reclaim them eagerly.
        for (k, &slot) in old.iter().enumerate() {
            if chain.get(k) == Some(&slot) {
                continue;
            }
            let n = self.shared.node(slot);
            if n.refs == 0 && n.pins == 0 {
                self.ca_reclaim(now, slot);
            }
        }
        if !chain.is_empty() {
            self.shared
                .insert_session(sid, chain, covered_tokens, covered_bytes, key, now);
        }
    }

    pub(super) fn ca_invalidate(&mut self, sid: SessionId) {
        self.ca_unpin(sid);
        if let Some(r) = self.shared.remove_session(sid) {
            self.shared.release(&r.chain);
            self.stats.drops_invalidated += 1;
        }
    }

    pub(super) fn ca_expire(&mut self, now: Time) -> u64 {
        let Some(ttl) = self.cfg.ttl else {
            return 0;
        };
        let mark = self.trace_mark();
        let dead: Vec<SessionId> = self
            .shared
            .sessions()
            .filter(|&(sid, r)| {
                !self.shared.pinned.contains_key(&sid) && now.saturating_since(r.last_access) > ttl
            })
            .map(|(sid, _)| sid)
            .collect();
        let n = dead.len() as u64;
        for sid in dead {
            let r = self.shared.remove_session(sid).expect("listed above");
            self.shared.release(&r.chain);
            self.emit(StoreEvent::Expired {
                session: sid.0,
                at: now,
            });
        }
        self.stats.drops_ttl += n;
        // Reclaim nodes that are both unreferenced and idle past the TTL:
        // the heads of the dead orders, reclaimed in slot order.
        let ledger = &self.shared;
        let mut stale: Vec<usize> = (0..self.pools.len())
            .map(TierId)
            .flat_map(move |t| {
                ledger
                    .dead_lru(t)
                    .take_while(move |&s| now.saturating_since(ledger.node(s).last_access) > ttl)
            })
            .collect();
        stale.sort_unstable();
        for slot in stale {
            self.ca_reclaim(now, slot);
        }
        self.emit_occupancy(mark, now);
        n
    }

    /// Slots any session in `queue.head(upto)` will read: stored chains,
    /// plus — for chainless first-turn sessions — the prefix of their
    /// registered key that resolves in the trie. With shared nodes a
    /// block's `owner_hint` names only its *last* accessor, so "is an
    /// imminent session about to read this?" must consult every imminent
    /// session's mapping, not the hint.
    ///
    /// Built once per store call and window length, and again only after
    /// the ledger's structure (trie, chains, keys) changed.
    pub(super) fn ca_queued_slots(&self, ws: &mut WorkingSet, upto: usize) -> Rc<FxHashSet<usize>> {
        let epoch = self.shared.epoch();
        if let Some((_, _, slots)) = ws.queued.iter().find(|q| (q.0, q.1) == (upto, epoch)) {
            return Rc::clone(slots);
        }
        let mut slots = FxHashSet::default();
        for sid in ws.queue.head(upto) {
            if let Some(r) = self.shared.session(sid) {
                slots.extend(r.chain.iter().copied());
            } else if let Some(key) = self.shared.registered_key(sid) {
                if key.shared_tokens > 0 {
                    slots.extend(self.ca_shared_prefix(key));
                }
            }
        }
        let slots = Rc::new(slots);
        ws.queued.retain(|q| q.0 != upto && q.1 == epoch);
        ws.queued.push((upto, epoch, Rc::clone(&slots)));
        slots
    }

    // ---- prefetch / reserve -------------------------------------------

    /// Look-ahead prefetch over chains: stages slow-tier blocks of queued
    /// sessions into *free* tier-0 space (block granularity makes partial
    /// staging natural — no demotion cascades are forced on behalf of a
    /// prediction), then restores the tier-0 reserve.
    pub(super) fn ca_prefetch(&mut self, now: Time, queue: &QueueView) -> Vec<Transfer> {
        if !self.policy.wants_prefetch() {
            return Vec::new();
        }
        let mut ws = WorkingSet::new(queue);
        let mut transfers = Vec::new();
        let mark = self.trace_mark();
        let window = self.prefetch_window();
        let targets: Vec<(usize, SessionId)> = queue
            .head(window)
            .enumerate()
            .filter(|&(_, sid)| {
                !self.shared.pinned.contains_key(&sid)
                    && match self.shared.session(sid) {
                        Some(r) => r
                            .chain
                            .iter()
                            .any(|&s| !self.shared.node(s).placement.is_fast()),
                        // First turn: no chain of its own yet, but its
                        // registered content key may match blocks other
                        // sessions stored.
                        None => self
                            .shared
                            .registered_key(sid)
                            .is_some_and(|k| k.shared_tokens > 0),
                    }
            })
            .collect();
        'targets: for (pos, sid) in targets {
            // Turn-0 targets (no chain of their own) stage into free
            // space only: their matched blocks are shared with other
            // sessions, so forcing demotions on their behalf ping-pongs
            // the very chains those sessions are about to resume.
            let own_chain = self.shared.session(sid).is_some();
            let chain: Vec<usize> = match self.shared.session(sid) {
                Some(r) => r.chain.clone(),
                // Turn-0 look-ahead: walk the trie over the queued
                // session's *shared* span (those chunk hashes do not
                // involve its private seed), staging whatever prefix
                // other sessions already stored — the block-granular
                // analogue of §3.3.1 for cross-session reuse.
                None => match self.shared.registered_key(sid) {
                    Some(key) => self.ca_shared_prefix(key),
                    None => continue,
                },
            };
            // The working set of the whole prefetch window — every
            // queued target's chain and key grid, not just this one's —
            // plus this target's chain is protected. Victims must come
            // from *outside* it: queue positions shuffle between passes,
            // so demoting one window target's blocks to stage another's
            // would promote/demote ping-pong the same blocks pass after
            // pass (a shared node's owner_hint names only its last
            // accessor and cannot see this). Mirrors the per-session rule
            // that prefetch victims are strictly out-of-window.
            let queued = self.ca_queued_slots(&mut ws, window);
            let mut promoted_bytes = 0u64;
            let mut promoted_from = TierId(0);
            // When no victim is demotable the whole pass stops — but only
            // after this target's `promoted` event is emitted: chunks
            // already staged pushed their fast-arriving transfers, and an
            // unheralded completion would leave the trace unpaired.
            let mut stalled = false;
            for &slot in &chain {
                let (bytes, from, pinned) = {
                    let n = self.shared.node(slot);
                    (n.bytes, n.placement, n.pins > 0)
                };
                if from.is_fast() || pinned {
                    continue;
                }
                // Fetching into the buffer may demote colder blocks (Fig
                // 9: fetching Job 3 pushes Job 4 down) — but only blocks
                // no session queued at or before this target maps to,
                // otherwise promote/demote ping-pong would saturate the
                // slow links.
                if !own_chain && !self.pools[0].fits(bytes) {
                    break;
                }
                while !self.pools[0].fits(bytes) {
                    let victim = self.ca_prefetch_victim(sid, pos, queue, &queued, &chain);
                    match victim {
                        Some(v) if self.ca_demote_slot(now, v, sid, &mut ws, &mut transfers) => {}
                        _ => {
                            stalled = true;
                            break;
                        }
                    }
                }
                if stalled {
                    break;
                }
                // The room-making cascade below tier 0 may have demoted
                // this very node further (a demotion victim falls back to
                // imminent blocks when nothing colder is left): stage it
                // from where it is now.
                let from = self.shared.node(slot).placement;
                let new_blocks = self.pools[0].alloc(bytes).expect("fits checked");
                let old_blocks = self.shared.update(slot, |n| {
                    n.placement = TierId(0);
                    n.last_access = now;
                    std::mem::replace(&mut n.blocks, new_blocks)
                });
                self.pools[from.0]
                    .free(&old_blocks)
                    .expect("blocks were in the source tier");
                self.stats.promotions += 1;
                self.stats.promotion_bytes += bytes;
                promoted_bytes += bytes;
                promoted_from = promoted_from.max(from);
                Self::push_promotion_hops(&mut transfers, sid, bytes, from);
            }
            if promoted_bytes > 0 {
                self.emit(StoreEvent::Promoted {
                    session: sid.0,
                    bytes: promoted_bytes,
                    kind: FetchKind::Prefetch,
                    from: promoted_from,
                    to: TierId(0),
                    queue_pos: Some(pos),
                    instance: queue.owner(sid),
                    at: now,
                });
            }
            if stalled {
                break 'targets;
            }
        }
        transfers.extend(self.ca_restore_reserve(now, &mut ws));
        self.emit_occupancy(mark, now);
        transfers
    }

    /// Restores the tier-0 reserve (see
    /// [`ca_restore_reserve`](Self::ca_restore_reserve)).
    pub(super) fn ca_maintain_reserve(&mut self, now: Time, queue: &QueueView) -> Vec<Transfer> {
        self.ca_restore_reserve(now, &mut WorkingSet::new(queue))
    }

    /// Restores the tier-0 reserve: dead nodes are reclaimed first, then
    /// cold live nodes demote one hop down. Stops — leaving the reserve
    /// short — rather than demote a block an in-window session maps to:
    /// demoting those only to re-stage them next prefetch pass would
    /// churn the slow links (the per-session reserve has the same
    /// refusal).
    fn ca_restore_reserve(&mut self, now: Time, ws: &mut WorkingSet) -> Vec<Transfer> {
        let reserve = (self.cfg.tiers[0].capacity as f64 * self.cfg.dram_reserve_fraction) as u64;
        let mut transfers = Vec::new();
        if self.pools[0].free_bytes() >= reserve {
            return transfers;
        }
        let window = self.eviction_window();
        let needed = self.ca_queued_slots(ws, window);
        while self.pools[0].free_bytes() < reserve {
            if self.ca_free_dead_in(now, TierId(0)) {
                continue;
            }
            let Some(slot) = self.ca_lru_unpinned(TierId(0)) else {
                break;
            };
            let n = self.shared.node(slot);
            let soon = needed.contains(&slot)
                || ws.queue.position(n.owner_hint).is_some_and(|p| p < window);
            if soon {
                break;
            }
            let acting = SessionId(u64::MAX);
            if !self.ca_demote_slot(now, slot, acting, ws, &mut transfers) {
                break;
            }
        }
        transfers
    }
}
