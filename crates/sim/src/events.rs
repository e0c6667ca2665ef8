//! A stable min-priority event queue keyed by [`Cycle`], kept in lanes.
//!
//! The queue holds `LANES` lanes, each a `VecDeque` of `(time,
//! insertion-seq, payload)` entries sorted by `(time, seq)`. One seq
//! counter is shared by every lane, so a pop takes the least
//! `(time, seq)` over the lane fronts and events come out in exactly
//! `(time, insertion)` order, whatever lanes they were pushed on and in
//! whatever order. Payloads are small (the memory system's is a channel
//! index plus a `u32` op handle or an op id), so entries sit inline; the
//! lanes keep their capacity, so steady-state traffic performs no heap
//! allocation. A `tests`-side proptest holds the queue to a linear-scan
//! oracle.
//!
//! Lanes are a matter of speed only. A caller whose events of one kind
//! fire a fixed delay after the time being handled gives that kind a lane
//! of its own: such a lane receives its events almost in time order, so a
//! push nearly always appends, where one sorted queue for every kind
//! would insert mid-queue. A push earlier than its lane's back (an event
//! scheduled from a thread that is behind in virtual time) binary-searches
//! its place.

use std::collections::VecDeque;

use crate::clock::Cycle;

/// A deterministic min-priority queue of timestamped events in `LANES`
/// sorted lanes.
///
/// Events with equal timestamps pop in insertion order across all lanes,
/// which keeps the whole simulation reproducible run-to-run.
///
/// # Example
///
/// ```
/// use asap_sim::{Cycle, EventQueue};
///
/// let mut q: EventQueue<char, 2> = EventQueue::new();
/// q.push(0, Cycle(3), 'x');
/// q.push(1, Cycle(3), 'y');
/// q.push(0, Cycle(1), 'z'); // earlier than its lane's back
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['z', 'x', 'y']);
/// ```
pub struct EventQueue<E, const LANES: usize> {
    /// Pending events, each lane sorted by `(at, seq)`.
    lanes: [VecDeque<Entry<E>>; LANES],
    next_seq: u64,
}

/// A pending event. `seq` is unique across lanes, so the payload never
/// decides the order.
#[derive(Clone)]
struct Entry<E> {
    at: Cycle,
    seq: u64,
    payload: E,
}

/// `clone_from` reuses the destination's lane buffers (a derived
/// `clone_from` would reallocate them), which keeps repeated restores into
/// the same scratch machine allocation-free.
impl<E: Clone, const LANES: usize> Clone for EventQueue<E, LANES> {
    fn clone(&self) -> Self {
        EventQueue {
            lanes: self.lanes.clone(),
            next_seq: self.next_seq,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        for (lane, from) in self.lanes.iter_mut().zip(&src.lanes) {
            lane.clone_from(from);
        }
        self.next_seq = src.next_seq;
    }
}

impl<E, const LANES: usize> EventQueue<E, LANES> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            lanes: std::array::from_fn(|_| VecDeque::new()),
            next_seq: 0,
        }
    }

    /// Schedules `payload` on `lane` to fire at time `at`.
    ///
    /// # Panics
    ///
    /// If `lane >= LANES`.
    #[inline]
    pub fn push(&mut self, lane: usize, at: Cycle, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let lane = &mut self.lanes[lane];
        let entry = Entry { at, seq, payload };
        // `seq` exceeds every pending seq, so the entry goes after every
        // entry at or before `at`: at the back unless it is in the past.
        if lane.back().is_none_or(|e| e.at <= at) {
            lane.push_back(entry);
        } else {
            let i = lane.partition_point(|e| e.at <= at);
            lane.insert(i, entry);
        }
    }

    /// The lane whose front is the least pending `(at, seq)`, if any.
    #[inline]
    fn first_lane(&self) -> Option<usize> {
        let mut first: Option<(usize, (Cycle, u64))> = None;
        for (i, lane) in self.lanes.iter().enumerate() {
            if let Some(e) = lane.front() {
                if first.is_none_or(|(_, key)| (e.at, e.seq) < key) {
                    first = Some((i, (e.at, e.seq)));
                }
            }
        }
        first.map(|(i, _)| i)
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.pop_until(Cycle(u64::MAX))
    }

    /// Removes the earliest event only if it fires at or before `deadline`.
    #[inline]
    pub fn pop_until(&mut self, deadline: Cycle) -> Option<(Cycle, E)> {
        let lane = &mut self.lanes[self.first_lane()?];
        if lane.front()?.at > deadline {
            return None;
        }
        let Entry { at, payload, .. } = lane.pop_front()?;
        Some((at, payload))
    }

    /// Removes every pending event, lane by lane, in no particular time
    /// order, as the iterator is run. The lanes keep their capacity and
    /// the insertion counter keeps counting, so later pushes order exactly
    /// as if the events had been popped.
    pub fn drain(&mut self) -> impl Iterator<Item = (Cycle, E)> + '_ {
        self.lanes
            .iter_mut()
            .flat_map(|lane| lane.drain(..))
            .map(|e| (e.at, e.payload))
    }

    /// Timestamp of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<Cycle> {
        self.lanes
            .iter()
            .filter_map(|l| l.front())
            .map(|e| e.at)
            .min()
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.lanes.iter().map(VecDeque::len).sum()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.lanes.iter().all(VecDeque::is_empty)
    }
}

impl<E, const LANES: usize> Default for EventQueue<E, LANES> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E, const LANES: usize> std::fmt::Debug for EventQueue<E, LANES> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len())
            .field("next_at", &self.peek_time())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<i32, 1> = EventQueue::new();
        q.push(0, Cycle(30), 3);
        q.push(0, Cycle(10), 1);
        q.push(0, Cycle(20), 2);
        assert_eq!(q.pop(), Some((Cycle(10), 1)));
        assert_eq!(q.pop(), Some((Cycle(20), 2)));
        assert_eq!(q.pop(), Some((Cycle(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q: EventQueue<usize, 3> = EventQueue::new();
        for i in 0..100 {
            q.push(i % 3, Cycle(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle(5), i)));
        }
    }

    /// A push earlier than its lane's back lands after every entry at or
    /// before its time, so it pops after same-time events pushed before it.
    #[test]
    fn past_push_keeps_fifo_among_equal_times() {
        let mut q: EventQueue<char, 2> = EventQueue::new();
        q.push(0, Cycle(10), 'a');
        q.push(0, Cycle(10), 'b');
        q.push(0, Cycle(40), 'c');
        q.push(1, Cycle(10), 'd');
        q.push(0, Cycle(10), 'e'); // past push into lane 0
        q.push(0, Cycle(5), 'f'); // past push to the front
        let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, ['f', 'a', 'b', 'd', 'e', 'c']);
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q: EventQueue<char, 2> = EventQueue::new();
        q.push(1, Cycle(10), 'a');
        q.push(0, Cycle(20), 'b');
        assert_eq!(q.pop_until(Cycle(15)), Some((Cycle(10), 'a')));
        assert_eq!(q.pop_until(Cycle(15)), None);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_time_empty() {
        let q: EventQueue<(), 3> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q: EventQueue<&str, 2> = EventQueue::new();
        q.push(0, Cycle(2), "b");
        q.push(1, Cycle(1), "a");
        assert_eq!(q.pop(), Some((Cycle(1), "a")));
        q.push(1, Cycle(1), "c"); // earlier than "b" even though pushed later
        assert_eq!(q.pop(), Some((Cycle(1), "c")));
        assert_eq!(q.pop(), Some((Cycle(2), "b")));
    }

    #[test]
    fn debug_nonempty() {
        let mut q: EventQueue<(), 1> = EventQueue::new();
        q.push(0, Cycle(1), ());
        assert!(format!("{q:?}").contains("EventQueue"));
    }

    /// Events orders of magnitude apart, pushed out of time order, pop in
    /// global time order.
    #[test]
    fn far_future_events_pop_in_order() {
        let mut q: EventQueue<char, 2> = EventQueue::new();
        q.push(0, Cycle(u64::MAX / 2), 'd');
        q.push(0, Cycle(3), 'a');
        q.push(1, Cycle(1 << 40), 'c');
        q.push(1, Cycle(1 << 15), 'b');
        assert_eq!(q.peek_time(), Some(Cycle(3)));
        assert_eq!(q.pop(), Some((Cycle(3), 'a')));
        assert_eq!(q.pop(), Some((Cycle(1 << 15), 'b')));
        assert_eq!(q.pop(), Some((Cycle(1 << 40), 'c')));
        assert_eq!(q.pop(), Some((Cycle(u64::MAX / 2), 'd')));
        assert_eq!(q.pop(), None);
    }

    /// An event pushed earlier than the one `peek_time` just reported
    /// becomes the next to pop, whichever lane either is on.
    #[test]
    fn push_before_peeked_event_pops_first() {
        let mut q: EventQueue<char, 2> = EventQueue::new();
        q.push(0, Cycle(10_000), 'z');
        assert_eq!(q.peek_time(), Some(Cycle(10_000)));
        q.push(1, Cycle(1), 'a');
        assert_eq!(q.peek_time(), Some(Cycle(1)));
        assert_eq!(q.pop(), Some((Cycle(1), 'a')));
        assert_eq!(q.pop(), Some((Cycle(10_000), 'z')));
    }

    mod prop {
        use super::{Cycle, EventQueue};
        use proptest::prelude::*;

        /// Lanes of the queue under test.
        const LANES: usize = 3;

        /// The ordering oracle: pending `(at, seq, payload)` triples in a
        /// `Vec`, each pop taking the least `(at, seq)` by linear scan.
        /// It knows nothing of lanes.
        #[derive(Default)]
        struct Oracle {
            pending: Vec<(Cycle, u64, u32)>,
            next_seq: u64,
        }

        impl Oracle {
            fn push(&mut self, at: Cycle, payload: u32) {
                self.pending.push((at, self.next_seq, payload));
                self.next_seq += 1;
            }

            fn min(&self) -> Option<usize> {
                (0..self.pending.len()).min_by_key(|&i| (self.pending[i].0, self.pending[i].1))
            }

            fn peek_time(&self) -> Option<Cycle> {
                self.min().map(|i| self.pending[i].0)
            }

            fn pop(&mut self) -> Option<(Cycle, u32)> {
                let (at, _, payload) = self.pending.swap_remove(self.min()?);
                Some((at, payload))
            }
        }

        /// At most this many copies are driven at once; a new fork
        /// replaces the newest when the limit is reached.
        const MAX_COPIES: usize = 4;

        /// When a push fires.
        #[derive(Clone, Copy, Debug)]
        enum When {
            /// At this cycle.
            At(u64),
            /// This many cycles after (or, negative, before) the last
            /// time pushed on the lane: the simulator's fixed-delay
            /// traffic, with the "past" pushes of a thread behind in
            /// virtual time.
            AfterLast(i64),
        }

        #[derive(Clone, Debug)]
        enum Op {
            /// Push one event on this lane.
            Push(usize, When),
            /// Push a burst of events on one lane and cycle (FIFO
            /// tie-break stress).
            Burst(usize, When, u8),
            Pop,
            PopUntil(u64),
            /// Fork the first copy with `clone`; every later op drives
            /// the fork too.
            Clone,
            /// Churn a new queue off-trace (this many pushes from this
            /// cycle on, spread over the lanes, then pops of half of
            /// them), then `clone_from` the first copy into it; every
            /// later op drives it too.
            CloneFrom(u64, u8),
            /// Empty every copy with `drain`; later pushes must still pop
            /// in `(time, seq)` order.
            Drain,
        }

        fn cycle_strategy() -> impl Strategy<Value = u64> {
            prop_oneof![
                // Four shared cycles past the dense band: events there
                // stay pending while nearer ones pop, so later pushes tie
                // with them and the insertion-seq tie-break decides.
                1 => 6_000u64..6_004,
                // Dense near-term traffic, the simulator's common case.
                4 => 0u64..5_000,
                // Mid-range horizons.
                2 => 0u64..1 << 19,
                // Pathologically far future.
                1 => 0u64..u64::MAX / 2,
            ]
        }

        fn when_strategy() -> impl Strategy<Value = When> {
            prop_oneof![
                2 => cycle_strategy().prop_map(When::At),
                // Mostly at or after the lane's back, sometimes before it.
                3 => (0u64..260).prop_map(|d| When::AfterLast(d as i64 - 60)),
            ]
        }

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                4 => (0..LANES, when_strategy()).prop_map(|(l, w)| Op::Push(l, w)),
                1 => (0..LANES, when_strategy(), 2u8..6).prop_map(|(l, w, n)| Op::Burst(l, w, n)),
                3 => Just(Op::Pop),
                1 => cycle_strategy().prop_map(Op::PopUntil),
                1 => Just(Op::Clone),
                1 => (cycle_strategy(), 0u8..40).prop_map(|(c, n)| Op::CloneFrom(c, n)),
                1 => Just(Op::Drain),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

            /// Every copy of the queue emits the oracle's `(cycle, payload)`
            /// sequence, and agrees on `peek_time`/`len`, under arbitrary
            /// interleaved traffic over three lanes, in-lane pushes before
            /// the lane's back included, with forks by `clone` and
            /// `clone_from` taken mid-trace and drains that empty every
            /// copy.
            #[test]
            fn queue_matches_linear_scan_oracle(
                ops in proptest::collection::vec(op_strategy(), 1..200),
            ) {
                let mut copies: Vec<EventQueue<u32, LANES>> = vec![EventQueue::new()];
                let mut oracle = Oracle::default();
                let mut payload = 0u32;
                // The last time pushed on each lane.
                let mut last = [0u64; LANES];
                let mut time_of = |lane: usize, when: When| {
                    let t = match when {
                        When::At(t) => t,
                        When::AfterLast(d) => last[lane].saturating_add_signed(d),
                    };
                    last[lane] = t;
                    Cycle(t)
                };
                for op in &ops {
                    match *op {
                        Op::Push(lane, when) => {
                            let at = time_of(lane, when);
                            copies.iter_mut().for_each(|q| q.push(lane, at, payload));
                            oracle.push(at, payload);
                            payload += 1;
                        }
                        Op::Burst(lane, when, n) => {
                            let at = time_of(lane, when);
                            for _ in 0..n {
                                copies.iter_mut().for_each(|q| q.push(lane, at, payload));
                                oracle.push(at, payload);
                                payload += 1;
                            }
                        }
                        Op::Pop => {
                            let expect = oracle.pop();
                            for q in &mut copies {
                                prop_assert_eq!(q.pop(), expect);
                            }
                        }
                        Op::PopUntil(deadline) => {
                            let expect = match oracle.peek_time() {
                                Some(t) if t <= Cycle(deadline) => oracle.pop(),
                                _ => None,
                            };
                            for q in &mut copies {
                                prop_assert_eq!(q.pop_until(Cycle(deadline)), expect);
                            }
                        }
                        Op::Clone => {
                            let fork = copies[0].clone();
                            copies.truncate(MAX_COPIES - 1);
                            copies.push(fork);
                        }
                        Op::CloneFrom(at, n) => {
                            let mut spare = EventQueue::new();
                            for i in 0..u64::from(n) {
                                spare.push(i as usize % LANES, Cycle(at + i * 97), u32::MAX);
                            }
                            for _ in 0..n / 2 {
                                spare.pop();
                            }
                            spare.clone_from(&copies[0]);
                            copies.truncate(MAX_COPIES - 1);
                            copies.push(spare);
                        }
                        Op::Drain => {
                            // Drained in no particular order: compare as
                            // sorted lists (payloads are unique).
                            let mut want: Vec<(Cycle, u32)> =
                                oracle.pending.iter().map(|&(at, _, p)| (at, p)).collect();
                            want.sort_unstable();
                            oracle.pending.clear();
                            for q in &mut copies {
                                let mut got: Vec<(Cycle, u32)> = q.drain().collect();
                                got.sort_unstable();
                                prop_assert_eq!(&got, &want);
                            }
                        }
                    }
                    for q in &copies {
                        prop_assert_eq!(q.peek_time(), oracle.peek_time());
                        prop_assert_eq!(q.len(), oracle.pending.len());
                    }
                }
                // Drain: the full remaining order must match exactly.
                while let Some(expect) = oracle.pop() {
                    for q in &mut copies {
                        prop_assert_eq!(q.pop(), Some(expect));
                    }
                }
                for q in &copies {
                    prop_assert!(q.is_empty());
                }
            }
        }
    }
}
