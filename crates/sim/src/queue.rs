//! Stable-order event queue.
//!
//! Events are dispatched in increasing time order; events at the same
//! instant fire in insertion order. The total (time, sequence) key makes
//! simulations deterministic regardless of heap internals.
//!
//! Beside the heap the queue keeps single-slot *lanes*: a caller that
//! re-arms one pending event per key over and over (a GPU's next tick)
//! parks it in its lane instead of paying a heap push and pop over every
//! other pending event. Lane entries draw their sequence number from the
//! same counter as heap entries and `pop` takes the smallest `(time,
//! seq)` across both, so lanes never change the dispatch order.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::Time;

/// An entry in the queue, ordered by `(at, seq)`.
struct Entry<Ev> {
    at: Time,
    seq: u64,
    ev: Ev,
}

impl<Ev> PartialEq for Entry<Ev> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<Ev> Eq for Entry<Ev> {}

impl<Ev> PartialOrd for Entry<Ev> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl<Ev> Ord for Entry<Ev> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// A priority queue of timed events with deterministic tie-breaking.
pub struct EventQueue<Ev> {
    heap: BinaryHeap<Reverse<Entry<Ev>>>,
    /// At most one pending event per lane key.
    lanes: Vec<Option<Entry<Ev>>>,
    /// The occupied lane holding the smallest `(at, seq)`, if any.
    lane_head: Option<usize>,
    lanes_occupied: usize,
    next_seq: u64,
    pushed_total: u64,
}

impl<Ev> EventQueue<Ev> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            lanes: Vec::new(),
            lane_head: None,
            lanes_occupied: 0,
            next_seq: 0,
            pushed_total: 0,
        }
    }

    fn entry(&mut self, at: Time, ev: Ev) -> Entry<Ev> {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pushed_total += 1;
        Entry { at, seq, ev }
    }

    /// Schedules `ev` to fire at instant `at`.
    pub fn push(&mut self, at: Time, ev: Ev) {
        let e = self.entry(at, ev);
        self.heap.push(Reverse(e));
    }

    /// Schedules `ev` to fire at instant `at` in the single slot of
    /// `lane`. When the lane already holds an event, `ev` goes to the
    /// heap instead; either way it fires in the same `(time, insertion)`
    /// order as a plain [`push`](EventQueue::push).
    pub fn push_lane(&mut self, lane: usize, at: Time, ev: Ev) {
        let e = self.entry(at, ev);
        if lane >= self.lanes.len() {
            self.lanes.resize_with(lane + 1, || None);
        }
        if self.lanes[lane].is_some() {
            self.heap.push(Reverse(e));
            return;
        }
        if self
            .lane_head
            .is_none_or(|h| self.lanes[h].as_ref().is_some_and(|x| e < *x))
        {
            self.lane_head = Some(lane);
        }
        self.lanes[lane] = Some(e);
        self.lanes_occupied += 1;
    }

    /// Whether the earliest pending event sits in a lane (`false` when
    /// the heap's top is earlier or no lane is occupied).
    fn lane_first(&self) -> bool {
        match (self.lane_head, self.heap.peek()) {
            (None, _) => false,
            (Some(_), None) => true,
            (Some(h), Some(Reverse(top))) => self.lanes[h].as_ref().is_some_and(|x| x < top),
        }
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Time, Ev)> {
        if !self.lane_first() {
            return self.heap.pop().map(|Reverse(e)| (e.at, e.ev));
        }
        let h = self.lane_head.expect("lane_first implies an occupied lane");
        let e = self.lanes[h]
            .take()
            .expect("lane_head points at an occupied lane");
        self.lanes_occupied -= 1;
        self.lane_head = self
            .lanes
            .iter()
            .enumerate()
            .filter_map(|(i, l)| l.as_ref().map(|x| (x, i)))
            .min_by(|a, b| a.0.cmp(b.0))
            .map(|(_, i)| i);
        Some((e.at, e.ev))
    }

    /// Returns the time of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<&Time> {
        if self.lane_first() {
            self.lane_head
                .and_then(|h| self.lanes[h].as_ref())
                .map(|e| &e.at)
        } else {
            self.heap.peek().map(|Reverse(e)| &e.at)
        }
    }

    /// Returns the number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lanes_occupied
    }

    /// Returns `true` when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Returns the total number of events ever scheduled.
    pub fn pushed_total(&self) -> u64 {
        self.pushed_total
    }
}

impl<Ev> Default for EventQueue<Ev> {
    fn default() -> Self {
        EventQueue::new()
    }
}

/// Admission ledger for a bounded inbox: a capacity-checked occupancy
/// counter a consumer pairs with its actual queue.
///
/// The idiom (common in game-server subscriber queues) is that the
/// *producer* asks the inbox for a slot before touching the queue —
/// [`try_accept`](BoundedInbox::try_accept) either reserves a slot or
/// reports the overflow — and the consumer returns the slot with
/// [`release`](BoundedInbox::release) when it dequeues. Keeping the bound
/// here rather than inside the queue keeps the policy (what to do on
/// overflow: shed, degrade, backpressure) with the caller while the
/// accounting (occupancy, high-water, accept/reject totals) stays
/// deterministic and auditable.
#[derive(Debug, Clone)]
pub struct BoundedInbox {
    capacity: usize,
    depth: usize,
    high_water: usize,
    accepted: u64,
    rejected: u64,
}

impl BoundedInbox {
    /// Creates an inbox admitting at most `capacity` occupants at once.
    /// A zero capacity rejects everything.
    pub fn new(capacity: usize) -> Self {
        BoundedInbox {
            capacity,
            depth: 0,
            high_water: 0,
            accepted: 0,
            rejected: 0,
        }
    }

    /// Tries to reserve one slot. Returns `true` (and occupies the slot)
    /// when the inbox has room, `false` (counting a rejection) when full.
    pub fn try_accept(&mut self) -> bool {
        if self.depth < self.capacity {
            self.depth += 1;
            self.high_water = self.high_water.max(self.depth);
            self.accepted += 1;
            true
        } else {
            self.rejected += 1;
            false
        }
    }

    /// Occupies one slot unconditionally, allowed to exceed capacity.
    /// For recovery re-queues (crash or scale-down reroutes) that must
    /// never be shed: the overflow is bounded by the dead peer's own
    /// bounded occupancy, so the ledger stays finite.
    pub fn force_accept(&mut self) {
        self.depth += 1;
        self.high_water = self.high_water.max(self.depth);
        self.accepted += 1;
    }

    /// Returns one slot after the paired queue dequeues an occupant.
    ///
    /// # Panics
    ///
    /// Panics if the inbox is already empty — a release without a prior
    /// accept means the caller's queue and this ledger have diverged.
    pub fn release(&mut self) {
        assert!(self.depth > 0, "BoundedInbox::release on an empty inbox");
        self.depth -= 1;
    }

    /// Current occupancy.
    pub fn depth(&self) -> usize {
        self.depth
    }

    /// Maximum slots this inbox admits at once.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Peak occupancy ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total accepts over the inbox's lifetime.
    pub fn accepted(&self) -> u64 {
        self.accepted
    }

    /// Total rejections over the inbox's lifetime.
    pub fn rejected(&self) -> u64 {
        self.rejected
    }

    /// Whether the next [`try_accept`](BoundedInbox::try_accept) would
    /// reject.
    pub fn is_full(&self) -> bool {
        self.depth >= self.capacity
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_nanos(30), "c");
        q.push(Time::from_nanos(10), "a");
        q.push(Time::from_nanos(20), "b");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert!(q.pop().is_none());
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut q = EventQueue::new();
        let t = Time::from_nanos(5);
        for i in 0..50u32 {
            q.push(t, i);
        }
        for i in 0..50u32 {
            assert_eq!(q.pop().unwrap().1, i);
        }
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// One step against the queue: a heap push, a lane push or a pop.
        #[derive(Debug, Clone)]
        enum Op {
            Push(u64),
            PushLane(usize, u64),
            Pop,
        }

        fn op() -> impl Strategy<Value = Op> {
            prop_oneof![
                (0u64..50).prop_map(Op::Push),
                (0usize..4, 0u64..50).prop_map(|(l, t)| Op::PushLane(l, t)),
                Just(Op::Pop),
            ]
        }

        proptest! {
            /// Lanes are invisible in the dispatch order: any mix of
            /// heap pushes, lane pushes (occupied lanes included) and
            /// pops matches one plain heap keyed by (time, insertion).
            #[test]
            fn lanes_match_a_plain_heap(
                ops in proptest::collection::vec(op(), 1..120),
            ) {
                let mut q = EventQueue::new();
                let mut reference = BinaryHeap::new();
                let mut pushed = 0u64;
                let check = |q: &EventQueue<u64>, r: &BinaryHeap<Reverse<(Time, u64)>>, pushed| {
                    prop_assert_eq!(q.peek_time(), r.peek().map(|Reverse((t, _))| t));
                    prop_assert_eq!(q.len(), r.len());
                    prop_assert_eq!(q.is_empty(), r.is_empty());
                    prop_assert_eq!(q.pushed_total(), pushed);
                    Ok(())
                };
                for op in ops {
                    match op {
                        Op::Push(t) => {
                            q.push(Time::from_nanos(t), pushed);
                            reference.push(Reverse((Time::from_nanos(t), pushed)));
                            pushed += 1;
                        }
                        Op::PushLane(lane, t) => {
                            q.push_lane(lane, Time::from_nanos(t), pushed);
                            reference.push(Reverse((Time::from_nanos(t), pushed)));
                            pushed += 1;
                        }
                        Op::Pop => {
                            prop_assert_eq!(q.pop(), reference.pop().map(|Reverse(x)| x));
                        }
                    }
                    check(&q, &reference, pushed)?;
                }
                while let Some(Reverse(want)) = reference.pop() {
                    prop_assert_eq!(q.pop(), Some(want));
                    check(&q, &reference, pushed)?;
                }
                prop_assert!(q.pop().is_none());
            }

            /// Pops come out sorted by (time, insertion order) for any
            /// push sequence.
            #[test]
            fn pops_are_totally_ordered(
                times in proptest::collection::vec(0u64..1_000, 1..80),
            ) {
                let mut q = EventQueue::new();
                for (i, &t) in times.iter().enumerate() {
                    q.push(Time::from_nanos(t), i);
                }
                let mut prev: Option<(Time, usize)> = None;
                while let Some((at, tag)) = q.pop() {
                    if let Some((pt, ptag)) = prev {
                        prop_assert!(at >= pt);
                        if at == pt {
                            prop_assert!(tag > ptag, "insertion order broken");
                        }
                    }
                    prev = Some((at, tag));
                }
            }
        }
    }

    #[test]
    fn occupied_lane_falls_back_to_the_heap_in_order() {
        let mut q = EventQueue::new();
        q.push_lane(1, Time::from_nanos(20), "lane");
        q.push_lane(1, Time::from_nanos(10), "fallback");
        q.push(Time::from_nanos(20), "heap");
        q.push_lane(0, Time::from_nanos(20), "lane0");
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(&Time::from_nanos(10)));
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ["fallback", "lane", "heap", "lane0"]);
        assert!(q.is_empty());
    }

    #[test]
    fn bounded_inbox_sheds_at_capacity_and_recovers() {
        let mut inbox = BoundedInbox::new(2);
        assert!(!inbox.is_full());
        assert!(inbox.try_accept());
        assert!(inbox.try_accept());
        assert!(inbox.is_full());
        assert!(!inbox.try_accept());
        assert_eq!(inbox.depth(), 2);
        assert_eq!(inbox.high_water(), 2);
        assert_eq!(inbox.accepted(), 2);
        assert_eq!(inbox.rejected(), 1);
        inbox.release();
        assert!(inbox.try_accept());
        assert_eq!(inbox.high_water(), 2);
        assert_eq!(inbox.accepted(), 3);
    }

    #[test]
    fn force_accept_overflows_capacity_without_rejecting() {
        let mut inbox = BoundedInbox::new(1);
        assert!(inbox.try_accept());
        inbox.force_accept();
        assert_eq!(inbox.depth(), 2);
        assert_eq!(inbox.high_water(), 2);
        assert_eq!(inbox.rejected(), 0);
        assert!(!inbox.try_accept());
        inbox.release();
        inbox.release();
        assert_eq!(inbox.depth(), 0);
    }

    #[test]
    fn zero_capacity_inbox_rejects_everything() {
        let mut inbox = BoundedInbox::new(0);
        assert!(inbox.is_full());
        assert!(!inbox.try_accept());
        assert_eq!(inbox.rejected(), 1);
        assert_eq!(inbox.depth(), 0);
    }

    #[test]
    #[should_panic(expected = "release on an empty inbox")]
    fn empty_inbox_release_panics() {
        BoundedInbox::new(4).release();
    }

    #[test]
    fn counters_track_pushes() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        q.push(Time::ZERO, ());
        q.push(Time::ZERO, ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.pushed_total(), 2);
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.pushed_total(), 2);
    }
}
