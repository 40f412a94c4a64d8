//! Routing stage: which serving instance a turn lands on.
//!
//! In a cluster every arriving turn must be dispatched to one of N
//! engine instances before it is queued. The [`RouterPolicy`] trait
//! captures that decision; the paper-faithful default is
//! [`SessionAffinity`] — a session sticks to the instance that served
//! its first turn, so its KV transfers stay on one instance's PCIe links
//! and the shared AttentionStore sees a stable consumer per session.
//! [`LeastLoaded`] trades that cache affinity for load balance by always
//! picking the emptiest instance, letting `exp_cluster` surface the
//! affinity-vs-balance tradeoff in per-instance hit rates.

/// A point-in-time load summary of one engine instance, given to the
/// router at dispatch time.
#[derive(Debug, Clone, Copy)]
pub struct InstanceLoad {
    /// Jobs waiting in the instance's scheduler queue.
    pub queued: usize,
    /// Jobs decoding in the instance's continuous batch.
    pub batch: usize,
    /// Whether the instance is up. Routers must never pick a dead
    /// instance; the orchestrator guarantees at least one is alive.
    pub alive: bool,
}

impl Default for InstanceLoad {
    fn default() -> Self {
        InstanceLoad {
            queued: 0,
            batch: 0,
            alive: true,
        }
    }
}

impl InstanceLoad {
    /// Total jobs the instance currently holds.
    pub fn total(&self) -> usize {
        self.queued + self.batch
    }
}

/// Decides which instance an arriving turn runs on.
///
/// Implementations may keep state (the affinity table); the orchestrator
/// calls [`route`](RouterPolicy::route) exactly once per turn arrival,
/// in event order, so stateful routers stay deterministic.
pub trait RouterPolicy {
    /// Picks the instance for `session`'s next turn. `loads` has one
    /// entry per instance; the returned index must be `< loads.len()`.
    fn route(&mut self, session: u64, loads: &[InstanceLoad]) -> usize;

    /// Short label for reports (`"affinity"`, `"least-loaded"`).
    fn label(&self) -> &'static str;

    /// Notifies the router that `instance` went down, so stateful
    /// routers can drop mappings onto it. Stateless routers ignore it.
    fn on_instance_down(&mut self, _instance: usize) {}
}

/// Which router a cluster runs; the config-level enum.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RouterKind {
    /// Sticky session→instance mapping (first turn lands least-loaded).
    #[default]
    SessionAffinity,
    /// Every turn lands on the emptiest instance.
    LeastLoaded,
}

impl RouterKind {
    /// Instantiates the router.
    pub fn build(self) -> Box<dyn RouterPolicy> {
        match self {
            RouterKind::SessionAffinity => Box::new(SessionAffinity::new()),
            RouterKind::LeastLoaded => Box::new(LeastLoaded),
        }
    }

    /// Short label for reports.
    pub fn label(self) -> &'static str {
        match self {
            RouterKind::SessionAffinity => "affinity",
            RouterKind::LeastLoaded => "least-loaded",
        }
    }
}

/// Returns the least-loaded *alive* instance, lowest index on ties (so
/// N=1 always routes to instance 0).
fn least_loaded_index(loads: &[InstanceLoad]) -> usize {
    loads
        .iter()
        .enumerate()
        .filter(|(_, l)| l.alive)
        .min_by_key(|(i, l)| (l.total(), *i))
        .map(|(i, _)| i)
        .expect("at least one alive instance")
}

/// Session-affinity routing: a session's first turn lands on the
/// least-loaded instance and every later turn follows it there, keeping
/// the session's KV traffic on one instance's links.
#[derive(Debug, Default)]
pub struct SessionAffinity {
    assigned: sim::hash::FxHashMap<u64, usize>,
}

impl SessionAffinity {
    /// Creates an empty affinity table.
    pub fn new() -> Self {
        SessionAffinity::default()
    }
}

impl RouterPolicy for SessionAffinity {
    fn route(&mut self, session: u64, loads: &[InstanceLoad]) -> usize {
        let idx = *self
            .assigned
            .entry(session)
            .or_insert_with(|| least_loaded_index(loads));
        if loads[idx].alive {
            return idx;
        }
        // The assigned instance died since: re-home the session.
        let next = least_loaded_index(loads);
        self.assigned.insert(session, next);
        next
    }

    fn label(&self) -> &'static str {
        "affinity"
    }

    fn on_instance_down(&mut self, instance: usize) {
        // Drop every mapping onto the dead instance so future routes
        // re-home those sessions instead of consulting a stale entry.
        self.assigned.retain(|_, &mut i| i != instance);
    }
}

/// Pure load balancing: every turn (even of a returning session) lands
/// on the instance with the fewest queued + batched jobs.
#[derive(Debug, Default)]
pub struct LeastLoaded;

impl RouterPolicy for LeastLoaded {
    fn route(&mut self, _session: u64, loads: &[InstanceLoad]) -> usize {
        least_loaded_index(loads)
    }

    fn label(&self) -> &'static str {
        "least-loaded"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn loads(ls: &[(usize, usize)]) -> Vec<InstanceLoad> {
        ls.iter()
            .map(|&(queued, batch)| InstanceLoad {
                queued,
                batch,
                alive: true,
            })
            .collect()
    }

    #[test]
    fn affinity_sticks_after_first_route() {
        let mut r = SessionAffinity::new();
        // First turn: instance 1 is emptiest.
        assert_eq!(r.route(7, &loads(&[(3, 1), (0, 0)])), 1);
        // Later turns stick to instance 1 even when 0 empties out.
        assert_eq!(r.route(7, &loads(&[(0, 0), (9, 9)])), 1);
        // A different session routes independently.
        assert_eq!(r.route(8, &loads(&[(0, 0), (9, 9)])), 0);
    }

    #[test]
    fn least_loaded_follows_the_queue_and_batch() {
        let mut r = LeastLoaded;
        assert_eq!(r.route(7, &loads(&[(2, 2), (1, 2), (4, 0)])), 1);
        // Ties break to the lowest index.
        assert_eq!(r.route(7, &loads(&[(1, 1), (2, 0), (0, 2)])), 0);
    }

    #[test]
    fn single_instance_always_routes_to_zero() {
        for kind in [RouterKind::SessionAffinity, RouterKind::LeastLoaded] {
            let mut r = kind.build();
            for s in 0..10u64 {
                assert_eq!(r.route(s, &loads(&[(s as usize, 1)])), 0);
            }
        }
    }

    #[test]
    fn dead_instances_are_never_picked() {
        let mut ls = loads(&[(0, 0), (5, 5)]);
        ls[0].alive = false;
        // Least-loaded skips the (emptier) dead instance.
        assert_eq!(LeastLoaded.route(1, &ls), 1);
        // Affinity re-homes a session stuck to the dead instance...
        let mut r = SessionAffinity::new();
        assert_eq!(r.route(7, &loads(&[(0, 0), (5, 5)])), 0);
        assert_eq!(r.route(7, &ls), 1);
        // ...and sticks to the new home afterwards.
        assert_eq!(r.route(7, &loads(&[(0, 0), (5, 5)])), 1);
    }

    #[test]
    fn on_instance_down_clears_affinity_mappings() {
        let mut r = SessionAffinity::new();
        assert_eq!(r.route(7, &loads(&[(0, 0), (9, 9)])), 0);
        r.on_instance_down(0);
        let mut ls = loads(&[(0, 0), (9, 9)]);
        ls[0].alive = false;
        assert_eq!(r.route(7, &ls), 1);
    }

    #[test]
    fn kinds_expose_labels() {
        assert_eq!(RouterKind::SessionAffinity.label(), "affinity");
        assert_eq!(RouterKind::LeastLoaded.label(), "least-loaded");
        assert_eq!(RouterKind::default(), RouterKind::SessionAffinity);
        assert_eq!(RouterKind::SessionAffinity.build().label(), "affinity");
        assert_eq!(RouterKind::LeastLoaded.build().label(), "least-loaded");
    }
}
