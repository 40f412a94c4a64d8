//! Per-tier victim orders: the one ordered-set type behind both the
//! per-session entry table and the content-addressed block ledger.
//!
//! Every victim pick of the store is "the least recently used item of
//! tier `t` that passes some filter". A [`TierOrder`] keeps, per tier,
//! an ordered set of `(last_access, insert_seq, id)` keys; `insert_seq`
//! is unique, so the first key that passes a filter is exactly the item
//! a full `min_by_key` scan would pick. The owners keep it exact by
//! routing every mutation through [`TierOrder::rekey`].

use std::collections::BTreeSet;
use std::fmt::Debug;

use sim::Time;

use crate::TierId;

/// An item's position in its tier's order: least recently used first,
/// ties broken by insertion order (unique), then the id.
pub(super) type OrderKey<Id> = (Time, u64, Id);

/// Where an item sits: its tier and key, or `None` when it is not in
/// the order at all (e.g. pinned).
pub(super) type Place<Id> = Option<(TierId, OrderKey<Id>)>;

/// One ordered set of keys per tier.
pub(super) struct TierOrder<Id> {
    tiers: Vec<BTreeSet<OrderKey<Id>>>,
}

impl<Id: Ord + Copy + Debug> TierOrder<Id> {
    /// Empty orders over `n_tiers` tiers.
    pub(super) fn new(n_tiers: usize) -> Self {
        TierOrder {
            tiers: (0..n_tiers).map(|_| BTreeSet::new()).collect(),
        }
    }

    /// Number of tiers.
    pub(super) fn n_tiers(&self) -> usize {
        self.tiers.len()
    }

    /// Moves an item from `old` to `new` (either may be `None`: the item
    /// enters or leaves the order). A no-op when nothing changed.
    pub(super) fn rekey(&mut self, old: Place<Id>, new: Place<Id>) {
        if old == new {
            return;
        }
        if let Some((tier, key)) = old {
            self.tiers[tier.0].remove(&key);
        }
        if let Some((tier, key)) = new {
            self.tiers[tier.0].insert(key);
        }
    }

    /// The ids of `tier`, least recently used first.
    pub(super) fn ids(&self, tier: TierId) -> impl Iterator<Item = Id> + '_ {
        self.tiers[tier.0].iter().map(|k| k.2)
    }

    /// Checks that this order holds exactly the keys of `want` (built
    /// from scratch by the caller); a stale or missing key shows up as a
    /// set difference. `name` labels the order in the error.
    pub(super) fn check(&self, want: &Self, name: &str) -> Result<(), String> {
        for (t, (have, want)) in self.tiers.iter().zip(&want.tiers).enumerate() {
            if let Some(k) = have.difference(want).next() {
                return Err(format!("tier {t}: {name} order holds stale key {k:?}"));
            }
            if let Some(k) = want.difference(have).next() {
                return Err(format!("tier {t}: {name} order misses key {k:?}"));
            }
        }
        Ok(())
    }
}
