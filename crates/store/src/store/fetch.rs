//! The read/write paths: the store's three engine-facing operations —
//! consult ([`AttentionStore::load`]), [`AttentionStore::save`] and the
//! scheduler-aware look-ahead [`AttentionStore::prefetch`] (§3.3.1) —
//! and their per-session bodies. Each operation passes its fault gate
//! (`faults.rs`), then dispatches on the keying mode.

use sim::Time;

use crate::events::{FetchKind, StoreEvent};
use crate::{Entry, KeyingMode, QueueView, SessionId, TierId};

use super::{AttentionStore, LoadOutcome, Lookup, PrefetchOutcome, SaveOutcome, Transfer};

impl AttentionStore {
    /// Consults the store for `sid`'s next `ctx_tokens` of context:
    /// matches the longest stored prefix, pins it and stages it to tier 0
    /// (demand promotion), returning where it was found, how many tokens
    /// matched and the transfers to charge.
    ///
    /// Under per-session keying the only matchable prefix is the
    /// session's own history, so `matched_tokens = min(cached,
    /// ctx_tokens)` on a hit. Under content-addressed keying the context
    /// is matched against every session's blocks (see
    /// [`crate::KeyingMode`]).
    ///
    /// With a fault plan installed, slow-tier reads may be retried (the
    /// outcome reports retries and backoff) or abandoned: on exhausted
    /// retries or a failed integrity check the KV is invalidated and the
    /// outcome is a [`Lookup::Miss`] with a
    /// [`DegradeReason`](crate::DegradeReason) — the caller re-prefills
    /// instead of aborting.
    pub fn load(
        &mut self,
        sid: SessionId,
        ctx_tokens: u64,
        now: Time,
        queue: &QueueView,
    ) -> LoadOutcome {
        let (retries, backoff) = match self.read_gate(sid, now) {
            Ok(gate) => gate,
            Err(degraded) => return degraded,
        };
        let out = if self.cfg.keying == KeyingMode::ContentAddressed {
            sim::scope!("store.prefix_match");
            self.ca_load_prefix(sid, ctx_tokens, now, queue)
        } else {
            self.load_entry(sid, ctx_tokens, now, queue)
        };
        LoadOutcome {
            retries,
            backoff,
            ..out
        }
    }

    /// Saves (or updates) `sid`'s KV cache: `total_bytes` for
    /// `total_tokens`, landing in tier 0. Returns the demotion transfers
    /// made to fit it and whether the save fit.
    ///
    /// Updating an existing entry reallocates it at the new size; an
    /// entry previously demoted below tier 0 is re-homed in tier 0 (the
    /// fresh copy just came from HBM, so no slow-tier read is charged).
    /// With a fault plan installed, write errors are retried with
    /// exponential backoff; an exhausted save drops the session's (stale)
    /// KV entirely — its next turn re-prefills.
    pub fn save(
        &mut self,
        sid: SessionId,
        total_bytes: u64,
        total_tokens: u64,
        now: Time,
        queue: &QueueView,
    ) -> SaveOutcome {
        let (retries, backoff) = match self.write_gate(sid, now) {
            Ok(gate) => gate,
            Err(failed) => return failed,
        };
        sim::scope!("store.save");
        let (transfers, fitted) = if self.cfg.keying == KeyingMode::ContentAddressed {
            self.ca_save(sid, total_bytes, total_tokens, now, queue)
        } else {
            self.save_entry(sid, total_bytes, total_tokens, now, queue)
        };
        SaveOutcome {
            transfers,
            fitted,
            retries,
            backoff,
            failed: false,
        }
    }

    /// Runs the look-ahead prefetcher (§3.3.1): promotes slow-tier KV of
    /// queued sessions within `L_pw` into free tier-0 space, then
    /// restores the tier-0 reserve by demoting cold entries.
    ///
    /// No-op for history-only policies (LRU/FIFO cannot see the queue).
    /// With a fault plan installed, the pass's disk reads roll the read
    /// dice; they never hard-fail (the demand path revalidates on
    /// admission), so the outcome only reports retries and backoff.
    pub fn prefetch(&mut self, now: Time, queue: &QueueView) -> PrefetchOutcome {
        let transfers = {
            sim::scope!("store.prefetch");
            if self.cfg.keying == KeyingMode::ContentAddressed {
                self.ca_prefetch(now, queue)
            } else {
                self.prefetch_entries(now, queue)
            }
        };
        let (retries, backoff) = self.prefetch_read_retries(now, &transfers);
        PrefetchOutcome {
            transfers,
            retries,
            backoff,
        }
    }

    /// Pushes the chain of adjacent-tier hops that stage `sid`'s bytes
    /// from `from` up to tier 0: `(from → from-1), ..., (1 → 0)`.
    pub(super) fn push_promotion_hops(
        out: &mut Vec<Transfer>,
        sid: SessionId,
        bytes: u64,
        from: TierId,
    ) {
        for hop in (1..=from.0).rev() {
            out.push(Transfer {
                session: sid,
                bytes,
                from: TierId(hop),
                to: TierId(hop - 1),
            });
        }
    }

    /// Per-session [`save`](AttentionStore::save): returns the demotion
    /// transfers made to fit the entry and whether it fit.
    fn save_entry(
        &mut self,
        sid: SessionId,
        total_bytes: u64,
        total_tokens: u64,
        now: Time,
        queue: &QueueView,
    ) -> (Vec<Transfer>, bool) {
        let mut transfers = Vec::new();
        let mark = self.trace_mark();
        // Free the stale copy first; the engine holds the bytes in HBM.
        self.drop_entry(sid);
        // Prefer tier 0; when it cannot make room (e.g. everything
        // resident is pinned by the running batch), spill down the stack
        // to the first tier with space — the write stream targets
        // whichever tier can take it.
        let placement =
            if self.make_room_in(now, TierId(0), total_bytes, queue, None, &mut transfers) {
                TierId(0)
            } else {
                let Some(landing) = self.spill_tier(now, total_bytes, queue, &mut transfers) else {
                    self.stats.save_rejected += 1;
                    self.emit(StoreEvent::SaveRejected {
                        session: sid.0,
                        bytes: total_bytes,
                        at: now,
                    });
                    self.emit_occupancy(mark, now);
                    return (transfers, false);
                };
                self.stats.spills_to_disk += 1;
                // The write stream lands hop by hop on the slow tier: report
                // the chain so the engine charges each boundary's write link.
                for hop in 0..landing.0 {
                    transfers.push(Transfer {
                        session: sid,
                        bytes: total_bytes,
                        from: TierId(hop),
                        to: TierId(hop + 1),
                    });
                }
                landing
            };
        let blocks = self.pools[placement.0]
            .alloc(total_bytes)
            .expect("room made above");
        let seq = self.entries.next_seq();
        let checksum = self.stamp_checksum(sid, total_bytes, total_tokens);
        self.entries.insert(
            sid,
            Entry {
                bytes: total_bytes,
                tokens: total_tokens,
                placement,
                blocks,
                last_access: now,
                insert_seq: seq,
                pinned: false,
                checksum,
            },
        );
        self.stats.saves += 1;
        self.stats.save_bytes += total_bytes;
        self.emit(StoreEvent::Saved {
            session: sid.0,
            bytes: total_bytes,
            tier: placement,
            at: now,
        });
        self.emit_occupancy(mark, now);
        (transfers, true)
    }

    /// Finds the first tier below 0 that can hold `bytes`, evicting or
    /// pushing entries down as needed. Returns `None` when no tier fits.
    fn spill_tier(
        &mut self,
        now: Time,
        bytes: u64,
        queue: &QueueView,
        out: &mut Vec<Transfer>,
    ) -> Option<TierId> {
        for t in 1..self.pools.len() {
            let tier = TierId(t);
            let pool = &self.pools[t];
            if pool.blocks_for(bytes) > pool.n_blocks() {
                continue;
            }
            let mut fitted = true;
            while !self.pools[t].fits(bytes) {
                if !self.push_down_from(now, tier, queue, None, out) {
                    fitted = false;
                    break;
                }
            }
            if fitted {
                return Some(tier);
            }
        }
        None
    }

    /// Per-session [`load`](AttentionStore::load): brings `sid`'s entry
    /// into tier 0 for use and pins it. The outcome carries where it was
    /// found, `min(cached, ctx_tokens)` matched tokens and the transfers
    /// (the demand promotion hops and the demotions that made room); a
    /// session with no cached KV is a clean miss.
    fn load_entry(
        &mut self,
        sid: SessionId,
        ctx_tokens: u64,
        now: Time,
        queue: &QueueView,
    ) -> LoadOutcome {
        sim::scope!("store.fetch");
        let matched = self
            .entries
            .get(sid)
            .map_or(0, |e| e.tokens.min(ctx_tokens));
        let found = self.lookup(sid);
        let mark = self.trace_mark();
        match found {
            Lookup::Miss => self.emit(StoreEvent::FetchMiss {
                session: sid.0,
                at: now,
            }),
            Lookup::Hit(tier) => {
                let ev = StoreEvent::FetchHit {
                    session: sid.0,
                    tier,
                    bytes: self.entries.get(sid).expect("looked up").bytes,
                    at: now,
                };
                self.emit(ev);
            }
        }
        let mut transfers = Vec::new();
        match found {
            Lookup::Miss => {}
            Lookup::Hit(tier) if tier.is_fast() => self.pin_for_use(sid, now),
            Lookup::Hit(from) => {
                let bytes = self.entries.get(sid).expect("looked up").bytes;
                if self.make_room_in(now, TierId(0), bytes, queue, Some(sid), &mut transfers) {
                    let old = self.restage(sid, now);
                    self.pin_for_use(sid, now);
                    self.pools[from.0]
                        .free(&old)
                        .expect("blocks were in the source tier");
                    self.stats.promotions += 1;
                    self.stats.promotion_bytes += bytes;
                    // One event covers the whole journey; the per-hop
                    // transfers below carry the link charges.
                    self.emit(StoreEvent::Promoted {
                        session: sid.0,
                        bytes,
                        kind: FetchKind::Demand,
                        from,
                        to: TierId(0),
                        queue_pos: queue.position(sid),
                        instance: queue.owner(sid),
                        at: now,
                    });
                    Self::push_promotion_hops(&mut transfers, sid, bytes, from);
                } else {
                    // Tier 0 cannot stage it (pathological sizing): serve
                    // straight from the slow tier; pin in place.
                    self.pin_for_use(sid, now);
                }
            }
        }
        self.emit_occupancy(mark, now);
        LoadOutcome::clean(found, matched, transfers)
    }

    /// Moves `sid`'s entry into freshly allocated tier-0 blocks, stamped
    /// accessed at `now`; returns its old blocks for the caller to free
    /// from the source tier. Tier 0 must already fit the entry.
    fn restage(&mut self, sid: SessionId, now: Time) -> Vec<crate::BlockId> {
        let bytes = self.entries.get(sid).expect("target exists").bytes;
        let new_blocks = self.pools[0].alloc(bytes).expect("room made");
        self.entries
            .update(sid, |e| {
                e.placement = TierId(0);
                e.last_access = now;
                std::mem::replace(&mut e.blocks, new_blocks)
            })
            .expect("target exists")
    }

    /// Stamps `sid`'s entry accessed at `now` and pins it for use.
    fn pin_for_use(&mut self, sid: SessionId, now: Time) {
        self.entries.update(sid, |e| {
            e.last_access = now;
            e.pinned = true;
        });
    }

    /// Unpins `sid` after the engine finished using (and re-saving) it.
    ///
    /// Idempotent and panic-free regardless of caller ordering: unpinning
    /// a session that was never pinned, was already unpinned, or whose
    /// entry has since been evicted/invalidated (e.g. crash recovery
    /// releasing pins for jobs that never reached their save) is a no-op.
    pub fn unpin(&mut self, sid: SessionId) {
        if self.cfg.keying == KeyingMode::ContentAddressed {
            return self.ca_unpin(sid);
        }
        self.entries.update(sid, |e| e.pinned = false);
    }

    /// Per-session [`prefetch`](AttentionStore::prefetch) pass.
    fn prefetch_entries(&mut self, now: Time, queue: &QueueView) -> Vec<Transfer> {
        if !self.policy.wants_prefetch() {
            return Vec::new();
        }
        let mut transfers = Vec::new();
        let mark = self.trace_mark();
        let window = self.prefetch_window();
        let targets: Vec<(usize, SessionId)> = queue
            .head(window)
            .enumerate()
            .filter(|&(_, sid)| {
                self.entries
                    .get(sid)
                    .is_some_and(|e| !e.placement.is_fast() && !e.pinned)
            })
            .collect();
        'targets: for (pos, sid) in targets {
            // Re-validate: an earlier iteration (or its evictions) may
            // have promoted, demoted or dropped this session already —
            // e.g. when the same session appears twice in the queue.
            let (from, bytes) = match self.entries.get(sid) {
                Some(e) if !e.placement.is_fast() && !e.pinned => (e.placement, e.bytes),
                _ => continue,
            };
            // Fetching into the buffer may demote cold entries (Fig 9:
            // fetching Job 3 pushes Job 4 down) — but only entries whose
            // next use is strictly further in the future than this
            // target's, otherwise promote/demote ping-pong would saturate
            // the slow links.
            while !self.pools[0].fits(bytes) {
                let Some(victim) = self.choose_victim_in(TierId(0), queue, Some(sid)) else {
                    break 'targets;
                };
                if queue.position(victim).is_some_and(|vp| vp <= pos) {
                    break 'targets;
                }
                self.demote_session(now, victim, queue, Some(sid), &mut transfers);
            }
            let old = self.restage(sid, now);
            self.pools[from.0]
                .free(&old)
                .expect("blocks were in the source tier");
            self.stats.promotions += 1;
            self.stats.promotion_bytes += bytes;
            self.emit(StoreEvent::Promoted {
                session: sid.0,
                bytes,
                kind: FetchKind::Prefetch,
                from,
                to: TierId(0),
                queue_pos: Some(pos),
                instance: queue.owner(sid),
                at: now,
            });
            Self::push_promotion_hops(&mut transfers, sid, bytes, from);
        }
        transfers.extend(self.maintain_reserve(now, queue));
        self.emit_occupancy(mark, now);
        transfers
    }
}
