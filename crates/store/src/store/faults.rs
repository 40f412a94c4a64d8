//! Fault-aware store I/O: the read and write gates behind
//! [`AttentionStore::load`], [`AttentionStore::save`] and
//! [`AttentionStore::prefetch`], with deterministic
//! retry-with-exponential-backoff, integrity verification and DRAM
//! pressure handling.
//!
//! Every gate returns at once when no [`sim::FaultPlan`] is installed,
//! so fault-free runs execute exactly the bookkeeping paths. With a plan
//! installed:
//!
//! - disk reads (demand fetches of disk-resident KV, prefetch
//!   promotions) roll the plan's read-error rate per attempt, retrying
//!   with exponential backoff up to `retry.max_retries` times;
//! - a demand fetch that exhausts its retries, or whose entry fails the
//!   integrity checksum, invalidates the session's KV and reports a
//!   [`DegradeReason`] — the engine then serves the turn by RE-style
//!   re-prefill instead of aborting;
//! - saves roll the write-error rate the same way; an exhausted save
//!   drops the (stale) entry so the next turn re-prefills;
//! - [`AttentionStore::apply_pressure`] squeezes DRAM residency down to
//!   a fraction of capacity, modelling a co-located consumer claiming
//!   host memory.
//!
//! All probabilistic decisions key the plan's pure-hash dice on
//! `(session, monotone roll counter)`, so a run's fault pattern is a
//! deterministic function of the plan alone.

#![warn(clippy::unwrap_used)]

use serde::Serialize;
use sim::fault::{dice, FaultStream};
use sim::{Dur, FaultPlan, RetryPolicy, SsdFaults, Time};

use crate::events::StoreEvent;
use crate::{QueueView, SessionId};

use super::{AttentionStore, Lookup, Transfer};

/// Cumulative fault-path statistics. Kept separate from
/// [`super::StoreStats`] (which is embedded in golden-pinned reports);
/// all-zero in fault-free runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct FaultStats {
    /// Disk-read attempts that errored and were retried.
    pub read_retries: u64,
    /// Demand fetches that exhausted their retry budget.
    pub read_failures: u64,
    /// Save-path write attempts that errored and were retried.
    pub write_retries: u64,
    /// Saves that exhausted their retry budget.
    pub write_failures: u64,
    /// Integrity-checksum mismatches detected on load.
    pub corruptions_detected: u64,
}

/// Why a fetch degraded the session to RE-style re-prefill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradeReason {
    /// The disk read exhausted its retry budget.
    ReadFailed,
    /// The entry failed its integrity checksum.
    Corrupted,
}

impl DegradeReason {
    /// Lowercase label used in serialized traces.
    pub fn label(self) -> &'static str {
        match self {
            DegradeReason::ReadFailed => "read_failed",
            DegradeReason::Corrupted => "corrupted",
        }
    }
}

/// Result of a store consult ([`AttentionStore::load`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadOutcome {
    /// Where the deepest matched KV was found (`Miss` when nothing
    /// matched, and forced to `Miss` on degrade).
    pub lookup: Lookup,
    /// Tokens of the requested context covered by stored KV (the engine
    /// prefills only the unmatched tail). Under per-session keying this
    /// is `min(cached, ctx_tokens)` on a hit and 0 on a miss.
    pub matched_tokens: u64,
    /// Adjacent-tier hops to charge (promotions of the matched KV plus
    /// any demotions that made room for them).
    pub transfers: Vec<Transfer>,
    /// Read retries that preceded the result.
    pub retries: u32,
    /// Total backoff delay accrued across those retries.
    pub backoff: Dur,
    /// `Some` when the session degraded to re-prefill.
    pub degraded: Option<DegradeReason>,
}

impl LoadOutcome {
    /// An outcome with no fault-path activity.
    pub(super) fn clean(lookup: Lookup, matched_tokens: u64, transfers: Vec<Transfer>) -> Self {
        LoadOutcome {
            lookup,
            matched_tokens,
            transfers,
            retries: 0,
            backoff: Dur::ZERO,
            degraded: None,
        }
    }

    /// A match of nothing.
    pub(super) fn miss() -> Self {
        Self::clean(Lookup::Miss, 0, Vec::new())
    }
}

/// Result of a save ([`AttentionStore::save`]).
#[derive(Debug, Clone)]
pub struct SaveOutcome {
    /// Eviction/demotion transfers the engine must charge.
    pub transfers: Vec<Transfer>,
    /// Whether the save fit (capacity, not faults).
    pub fitted: bool,
    /// Write retries that preceded the result.
    pub retries: u32,
    /// Total backoff delay accrued across those retries.
    pub backoff: Dur,
    /// `true` when the save exhausted its retries and was dropped.
    pub failed: bool,
}

/// Result of a prefetch pass ([`AttentionStore::prefetch`]).
#[derive(Debug, Clone)]
pub struct PrefetchOutcome {
    /// Tier movements the engine must charge.
    pub transfers: Vec<Transfer>,
    /// Read retries accrued across the pass's disk reads.
    pub retries: u32,
    /// Total backoff delay accrued across those retries.
    pub backoff: Dur,
}

impl AttentionStore {
    /// Installs (or clears, when empty) the run's fault plan. The store
    /// only consults the plan's SSD rates and retry policy; link windows
    /// and crash schedules are the engine's concern.
    pub fn set_faults(&mut self, plan: FaultPlan) {
        self.faults = if plan.is_empty() { None } else { Some(plan) };
    }

    /// Cumulative fault-path statistics (all-zero without faults).
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    /// Copies out the Copy-able fault parameters, or `None` when fault-free.
    fn fault_profile(&self) -> Option<(u64, SsdFaults, RetryPolicy)> {
        self.faults.as_ref().map(|p| (p.seed, p.ssd, p.retry))
    }

    /// Takes the next dice key; monotone so repeated rolls differ.
    fn next_fault_roll(&mut self) -> u64 {
        let seq = self.fault_roll_seq;
        self.fault_roll_seq += 1;
        seq
    }

    /// Integrity checksum to stamp on a saved entry: correct metadata
    /// hash, or (with probability `corruption_rate`) a corrupted one the
    /// next load will detect.
    pub(super) fn stamp_checksum(&mut self, sid: SessionId, bytes: u64, tokens: u64) -> u64 {
        let good = crate::Entry::metadata_checksum(sid, bytes, tokens);
        let Some((seed, ssd, _)) = self.fault_profile() else {
            return good;
        };
        if ssd.corruption_rate <= 0.0 {
            return good;
        }
        let key = self.next_fault_roll();
        if dice(seed, FaultStream::Corrupt, sid.0, key) < ssd.corruption_rate {
            good ^ 1
        } else {
            good
        }
    }

    /// One fallible slow-tier read or write of `sid`: rolls the plan's
    /// `stream` dice per attempt, retrying with exponential backoff until
    /// an attempt succeeds or `retry.max_retries` retries are spent. An
    /// exhausted I/O invalidates the session's KV. Returns the retries,
    /// the backoff they accrued and whether the I/O failed. Rolls nothing
    /// without a plan or at a zero error rate.
    fn attempt_io(&mut self, stream: FaultStream, sid: SessionId, now: Time) -> (u32, Dur, bool) {
        let mut retries = 0u32;
        let mut backoff = Dur::ZERO;
        let Some((seed, ssd, retry)) = self.fault_profile() else {
            return (retries, backoff, false);
        };
        let read = stream == FaultStream::Read;
        let rate = if read {
            ssd.read_error_rate
        } else {
            ssd.write_error_rate
        };
        if rate <= 0.0 {
            return (retries, backoff, false);
        }
        loop {
            let key = self.next_fault_roll();
            if dice(seed, stream, sid.0, key) >= rate {
                return (retries, backoff, false);
            }
            let (session, attempt) = (sid.0, retries);
            if retries >= retry.max_retries {
                let mark = self.trace_mark();
                let attempts = retry.max_retries + 1;
                if read {
                    self.fault_stats.read_failures += 1;
                    self.emit(StoreEvent::ReadFailed {
                        session,
                        attempts,
                        at: now,
                    });
                } else {
                    self.fault_stats.write_failures += 1;
                    self.emit(StoreEvent::WriteFailed {
                        session,
                        attempts,
                        at: now,
                    });
                }
                // The KV is unreadable, or the stale pre-turn copy is
                // useless now: drop it so the next turn re-prefills.
                self.invalidate(sid);
                self.emit_occupancy(mark, now);
                return (retries, backoff, true);
            }
            backoff += retry.backoff(retries);
            if read {
                self.fault_stats.read_retries += 1;
                self.emit(StoreEvent::ReadRetry {
                    session,
                    attempt,
                    at: now,
                });
            } else {
                self.fault_stats.write_retries += 1;
                self.emit(StoreEvent::WriteRetry {
                    session,
                    attempt,
                    at: now,
                });
            }
            retries += 1;
        }
    }

    /// The read gate in front of a demand fetch: slow-tier-resident KV
    /// rides the slow read path and rolls the read dice per attempt, then
    /// the saved metadata passes its integrity check. Returns the retries
    /// and backoff to report, or — on exhausted retries or detected
    /// corruption, after invalidating the KV — the degraded outcome.
    /// Integrity checksums are a per-session-entry concept, so
    /// corruption only surfaces under per-session keying.
    pub(super) fn read_gate(
        &mut self,
        sid: SessionId,
        now: Time,
    ) -> Result<(u32, Dur), LoadOutcome> {
        if self.faults.is_none() {
            return Ok((0, Dur::ZERO));
        }
        let degraded = |retries, backoff, reason| LoadOutcome {
            retries,
            backoff,
            degraded: Some(reason),
            ..LoadOutcome::miss()
        };
        let (mut retries, mut backoff) = (0, Dur::ZERO);
        if self.lookup(sid).is_slow_hit() {
            let failed;
            (retries, backoff, failed) = self.attempt_io(FaultStream::Read, sid, now);
            if failed {
                return Err(degraded(retries, backoff, DegradeReason::ReadFailed));
            }
        }
        // Corruption is stamped at save time, so it can surface from any
        // tier.
        if let Some(e) = self.entries.get(sid) {
            if !e.integrity_ok(sid) {
                let bytes = e.bytes;
                let mark = self.trace_mark();
                self.fault_stats.corruptions_detected += 1;
                self.emit(StoreEvent::CorruptionDetected {
                    session: sid.0,
                    bytes,
                    at: now,
                });
                self.invalidate(sid);
                self.emit_occupancy(mark, now);
                return Err(degraded(retries, backoff, DegradeReason::Corrupted));
            }
        }
        Ok((retries, backoff))
    }

    /// The write gate in front of a save: rolls the write dice per
    /// attempt. Returns the retries and backoff to report, or — when the
    /// retries ran out and the stale entry was dropped — the failed
    /// outcome.
    pub(super) fn write_gate(
        &mut self,
        sid: SessionId,
        now: Time,
    ) -> Result<(u32, Dur), SaveOutcome> {
        let (retries, backoff, failed) = self.attempt_io(FaultStream::Write, sid, now);
        if failed {
            return Err(SaveOutcome {
                transfers: Vec::new(),
                fitted: false,
                retries,
                backoff,
                failed: true,
            });
        }
        Ok((retries, backoff))
    }

    /// Read retries of a prefetch pass's promotions. Prefetch reads never
    /// hard-fail — the demand path revalidates on admission — so
    /// exhausting the budget just caps the retries; the engine charges
    /// the extra link occupancy and backoff.
    pub(super) fn prefetch_read_retries(
        &mut self,
        now: Time,
        transfers: &[Transfer],
    ) -> (u32, Dur) {
        let mut retries = 0u32;
        let mut backoff = Dur::ZERO;
        let Some((seed, ssd, retry)) = self.fault_profile() else {
            return (retries, backoff);
        };
        if ssd.read_error_rate <= 0.0 {
            return (retries, backoff);
        }
        for t in transfers {
            if !t.is_promotion() {
                continue;
            }
            let mut r = 0u32;
            while r < retry.max_retries {
                let key = self.next_fault_roll();
                if dice(seed, FaultStream::Read, t.session.0, key) >= ssd.read_error_rate {
                    break;
                }
                backoff += retry.backoff(r);
                self.fault_stats.read_retries += 1;
                self.emit(StoreEvent::ReadRetry {
                    session: t.session.0,
                    attempt: r,
                    at: now,
                });
                r += 1;
            }
            retries += r;
        }
        (retries, backoff)
    }

    /// Applies a DRAM capacity pressure spike: squeezes DRAM residency
    /// down to `(1 - fraction) · dram_bytes` by demoting victims (pinned
    /// entries stay). Returns the demotion transfers to charge.
    ///
    /// # Panics
    ///
    /// Panics unless `0 <= fraction <= 1`.
    pub fn apply_pressure(&mut self, now: Time, fraction: f64, queue: &QueueView) -> Vec<Transfer> {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "pressure fraction must be in [0, 1], got {fraction}"
        );
        let target = (self.cfg.tiers[0].capacity as f64 * (1.0 - fraction)) as u64;
        let mut transfers = Vec::new();
        let mark = self.trace_mark();
        if self.cfg.keying == crate::KeyingMode::ContentAddressed {
            let mut ws = super::shared::WorkingSet::new(queue);
            while self.dram_used_bytes() > target {
                if self.ca_free_dead_in(now, crate::TierId(0)) {
                    continue;
                }
                let acting = SessionId(u64::MAX);
                if !self.ca_demote_one(now, crate::TierId(0), acting, &mut ws, &mut transfers) {
                    break;
                }
            }
            self.emit_occupancy(mark, now);
            return transfers;
        }
        while self.dram_used_bytes() > target {
            let Some(victim) = self.choose_victim_in(crate::TierId(0), queue, None) else {
                break;
            };
            self.demote_session(now, victim, queue, None, &mut transfers);
        }
        self.emit_occupancy(mark, now);
        transfers
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{StoreConfig, TierId};
    use models::TierStack;

    fn store() -> AttentionStore {
        AttentionStore::new(StoreConfig {
            tiers: TierStack::two_tier(4_000_000_000, 40_000_000_000),
            ..StoreConfig::default()
        })
    }

    fn all_faults(read: f64, write: f64, corrupt: f64) -> FaultPlan {
        FaultPlan::new(99).with_ssd_errors(read, write, corrupt)
    }

    #[test]
    fn no_plan_takes_the_clean_path() {
        let mut s = store();
        let q = QueueView::empty();
        let sid = SessionId(1);
        let out = s.save(sid, 1_000_000, 100, Time::ZERO, &q);
        assert!(out.fitted && !out.failed && out.retries == 0);
        let f = s.load(sid, u64::MAX, Time::from_millis(1), &q);
        assert_eq!(f.lookup, Lookup::Hit(TierId(0)));
        assert!(f.degraded.is_none() && f.retries == 0 && f.backoff == Dur::ZERO);
        assert_eq!(*s.fault_stats(), FaultStats::default());
    }

    #[test]
    fn empty_plan_is_cleared_on_install() {
        let mut s = store();
        s.set_faults(FaultPlan::new(5));
        assert!(s.faults.is_none());
    }

    #[test]
    fn certain_read_errors_degrade_disk_hits_to_miss() {
        let mut s = store();
        let q = QueueView::empty();
        let sid = SessionId(7);
        s.set_faults(all_faults(1.0, 0.0, 0.0));
        s.save(sid, 1_000_000, 100, Time::ZERO, &q);
        // Force the entry onto disk so the read path rolls the dice.
        s.apply_pressure(Time::ZERO, 1.0, &q);
        assert_eq!(s.lookup(sid), Lookup::Hit(TierId(1)));
        let out = s.load(sid, u64::MAX, Time::from_millis(5), &q);
        assert_eq!((out.lookup, out.matched_tokens), (Lookup::Miss, 0));
        assert_eq!(out.degraded, Some(DegradeReason::ReadFailed));
        assert_eq!(
            out.retries,
            s.faults.as_ref().map(|p| p.retry.max_retries).unwrap_or(0)
        );
        assert!(out.backoff > Dur::ZERO);
        assert_eq!(s.fault_stats().read_failures, 1);
        assert!(s.entry(sid).is_none(), "degraded entry is invalidated");
    }

    #[test]
    fn certain_corruption_is_detected_on_load() {
        let mut s = store();
        let q = QueueView::empty();
        let sid = SessionId(9);
        s.set_faults(all_faults(0.0, 0.0, 1.0));
        s.save(sid, 1_000_000, 100, Time::ZERO, &q);
        let out = s.load(sid, u64::MAX, Time::from_millis(5), &q);
        assert_eq!((out.lookup, out.matched_tokens), (Lookup::Miss, 0));
        assert_eq!(out.degraded, Some(DegradeReason::Corrupted));
        assert_eq!(s.fault_stats().corruptions_detected, 1);
        assert!(s.entry(sid).is_none());
    }

    #[test]
    fn certain_write_errors_fail_the_save_and_drop_stale_state() {
        let mut s = store();
        let q = QueueView::empty();
        let sid = SessionId(4);
        s.save(sid, 500_000, 50, Time::ZERO, &q);
        s.set_faults(all_faults(0.0, 1.0, 0.0));
        let out = s.save(sid, 1_000_000, 100, Time::from_millis(10), &q);
        assert!(out.failed && !out.fitted);
        assert_eq!(s.fault_stats().write_failures, 1);
        assert!(s.entry(sid).is_none(), "stale entry dropped on failed save");
    }

    #[test]
    fn truncation_preserves_corruption() {
        let mut s = store();
        let q = QueueView::empty();
        let sid = SessionId(3);
        s.set_faults(all_faults(0.0, 0.0, 1.0));
        s.save(sid, 1_000_000, 100, Time::ZERO, &q);
        s.truncate(sid, 500_000, 50);
        let e = s.entry(sid).expect("still cached");
        assert!(!e.integrity_ok(sid), "corruption survives truncation");
        // And an honest entry stays honest through truncation.
        let mut clean = store();
        clean.save(sid, 1_000_000, 100, Time::ZERO, &q);
        clean.truncate(sid, 500_000, 50);
        assert!(clean.entry(sid).expect("cached").integrity_ok(sid));
    }

    #[test]
    fn pressure_squeezes_dram_residency() {
        let mut s = store();
        let q = QueueView::empty();
        for i in 0..3 {
            s.save(SessionId(i), 1_000_000_000, 1_000, Time::ZERO, &q);
        }
        let before = s.dram_used_bytes();
        assert!(before >= 3_000_000_000);
        let transfers = s.apply_pressure(Time::from_millis(1), 0.75, &q);
        assert!(!transfers.is_empty());
        assert!(s.dram_used_bytes() <= 1_000_000_000);
        for t in &transfers {
            assert!(t.is_demotion());
            assert_eq!((t.from, t.to), (TierId(0), TierId(1)));
        }
        assert!(s.entries.iter().any(|(_, e)| e.placement == TierId(1)));
    }

    #[test]
    fn fault_decisions_are_deterministic_across_runs() {
        let run = || {
            let mut s = store();
            s.set_faults(all_faults(0.3, 0.3, 0.3));
            let q = QueueView::empty();
            let mut log = Vec::new();
            for i in 0..50u64 {
                let sid = SessionId(i % 10);
                let sv = s.save(sid, 2_000_000, 200, Time::from_millis(i), &q);
                log.push((sv.retries, sv.failed));
                let f = s.load(sid, u64::MAX, Time::from_millis(i + 1), &q);
                log.push((f.retries, f.degraded.is_some()));
            }
            (log, *s.fault_stats())
        };
        assert_eq!(run(), run());
    }
}
