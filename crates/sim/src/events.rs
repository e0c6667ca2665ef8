//! A stable min-priority event queue keyed by [`Cycle`].
//!
//! A `std` binary heap of `(time, insertion-seq, payload)` entries. Events
//! pop in `(time, insertion-seq)` order; `seq` is unique, so the payload
//! never decides the order and needs no ordering of its own. Payloads are
//! small (the memory system's is a channel index plus a `u32` op handle
//! or an op id), so the heap moves them inline; the heap keeps its
//! capacity, so steady-state traffic performs no heap allocation. A
//! `tests`-side proptest holds the queue to a linear-scan oracle.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::clock::Cycle;

/// A deterministic min-priority queue of timestamped events.
///
/// Events with equal timestamps pop in insertion order, which keeps the
/// whole simulation reproducible run-to-run.
///
/// # Example
///
/// ```
/// use asap_sim::{Cycle, EventQueue};
///
/// let mut q = EventQueue::new();
/// q.push(Cycle(3), 'x');
/// q.push(Cycle(3), 'y');
/// q.push(Cycle(1), 'z');
/// let order: Vec<char> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
/// assert_eq!(order, ['z', 'x', 'y']);
/// ```
pub struct EventQueue<E> {
    /// One entry per pending event.
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

/// A pending event. Ordered by `(at, seq)` alone, reversed, so the
/// `std` max-heap pops the earliest event first.
#[derive(Clone)]
struct Entry<E> {
    at: Cycle,
    seq: u64,
    payload: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        (self.at, self.seq) == (other.at, other.seq)
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// `clone_from` reuses the destination's heap buffer (a derived
/// `clone_from` would reallocate it), which keeps repeated restores into
/// the same scratch machine allocation-free.
impl<E: Clone> Clone for EventQueue<E> {
    fn clone(&self) -> Self {
        EventQueue {
            heap: self.heap.clone(),
            next_seq: self.next_seq,
        }
    }

    fn clone_from(&mut self, src: &Self) {
        self.heap.clone_from(&src.heap);
        self.next_seq = src.next_seq;
    }
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }

    /// Schedules `payload` to fire at time `at`.
    pub fn push(&mut self, at: Cycle, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Removes and returns the earliest event, if any.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        let Entry { at, payload, .. } = self.heap.pop()?;
        Some((at, payload))
    }

    /// Removes the earliest event only if it fires at or before `deadline`.
    #[inline]
    pub fn pop_until(&mut self, deadline: Cycle) -> Option<(Cycle, E)> {
        if self.peek_time()? <= deadline {
            self.pop()
        } else {
            None
        }
    }

    /// Timestamp of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
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
        let mut q = EventQueue::new();
        q.push(Cycle(30), 3);
        q.push(Cycle(10), 1);
        q.push(Cycle(20), 2);
        assert_eq!(q.pop(), Some((Cycle(10), 1)));
        assert_eq!(q.pop(), Some((Cycle(20), 2)));
        assert_eq!(q.pop(), Some((Cycle(30), 3)));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn equal_times_are_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Cycle(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((Cycle(5), i)));
        }
    }

    #[test]
    fn pop_until_respects_deadline() {
        let mut q = EventQueue::new();
        q.push(Cycle(10), 'a');
        q.push(Cycle(20), 'b');
        assert_eq!(q.pop_until(Cycle(15)), Some((Cycle(10), 'a')));
        assert_eq!(q.pop_until(Cycle(15)), None);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn peek_time_empty() {
        let q: EventQueue<()> = EventQueue::new();
        assert_eq!(q.peek_time(), None);
        assert!(q.is_empty());
    }

    #[test]
    fn interleaved_push_pop_keeps_order() {
        let mut q = EventQueue::new();
        q.push(Cycle(2), "b");
        q.push(Cycle(1), "a");
        assert_eq!(q.pop(), Some((Cycle(1), "a")));
        q.push(Cycle(1), "c"); // earlier than "b" even though pushed later
        assert_eq!(q.pop(), Some((Cycle(1), "c")));
        assert_eq!(q.pop(), Some((Cycle(2), "b")));
    }

    #[test]
    fn debug_nonempty() {
        let mut q = EventQueue::new();
        q.push(Cycle(1), ());
        assert!(format!("{q:?}").contains("EventQueue"));
    }

    /// Events orders of magnitude apart, pushed out of time order, pop in
    /// global time order.
    #[test]
    fn far_future_events_pop_in_order() {
        let mut q = EventQueue::new();
        q.push(Cycle(u64::MAX / 2), 'd');
        q.push(Cycle(3), 'a');
        q.push(Cycle(1 << 15), 'b');
        q.push(Cycle(1 << 40), 'c');
        assert_eq!(q.peek_time(), Some(Cycle(3)));
        assert_eq!(q.pop(), Some((Cycle(3), 'a')));
        assert_eq!(q.pop(), Some((Cycle(1 << 15), 'b')));
        assert_eq!(q.pop(), Some((Cycle(1 << 40), 'c')));
        assert_eq!(q.pop(), Some((Cycle(u64::MAX / 2), 'd')));
        assert_eq!(q.pop(), None);
    }

    /// An event pushed earlier than the one `peek_time` just reported
    /// becomes the next to pop.
    #[test]
    fn push_before_peeked_event_pops_first() {
        let mut q = EventQueue::new();
        q.push(Cycle(10_000), 'z');
        assert_eq!(q.peek_time(), Some(Cycle(10_000)));
        q.push(Cycle(1), 'a');
        assert_eq!(q.peek_time(), Some(Cycle(1)));
        assert_eq!(q.pop(), Some((Cycle(1), 'a')));
        assert_eq!(q.pop(), Some((Cycle(10_000), 'z')));
    }

    mod prop {
        use super::{Cycle, EventQueue};
        use proptest::prelude::*;

        /// The ordering oracle: pending `(at, seq, payload)` triples in a
        /// `Vec`, each pop taking the least `(at, seq)` by linear scan.
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

        #[derive(Clone, Debug)]
        enum Op {
            /// Push one event at this cycle.
            Push(u64),
            /// Push a burst of events on the same cycle (FIFO tie-break
            /// stress).
            Burst(u64, u8),
            Pop,
            PopUntil(u64),
            /// Fork the first copy with `clone`; every later op drives
            /// the fork too.
            Clone,
            /// Churn a new queue off-trace (this many pushes from this
            /// cycle on, then pops of half of them), then `clone_from`
            /// the first copy into it; every later op drives it too.
            CloneFrom(u64, u8),
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

        fn op_strategy() -> impl Strategy<Value = Op> {
            prop_oneof![
                3 => cycle_strategy().prop_map(Op::Push),
                1 => (cycle_strategy(), 2u8..6).prop_map(|(c, n)| Op::Burst(c, n)),
                3 => Just(Op::Pop),
                1 => cycle_strategy().prop_map(Op::PopUntil),
                1 => Just(Op::Clone),
                1 => (cycle_strategy(), 0u8..40).prop_map(|(c, n)| Op::CloneFrom(c, n)),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig { cases: 128, ..ProptestConfig::default() })]

            /// Every copy of the queue emits the oracle's `(cycle, payload)`
            /// sequence, and agrees on `peek_time`/`len`, under arbitrary
            /// interleaved traffic with forks by `clone` and `clone_from`
            /// taken mid-trace.
            #[test]
            fn queue_matches_linear_scan_oracle(
                ops in proptest::collection::vec(op_strategy(), 1..200),
            ) {
                let mut copies = vec![EventQueue::new()];
                let mut oracle = Oracle::default();
                let mut payload = 0u32;
                for op in &ops {
                    match *op {
                        Op::Push(at) => {
                            copies.iter_mut().for_each(|q| q.push(Cycle(at), payload));
                            oracle.push(Cycle(at), payload);
                            payload += 1;
                        }
                        Op::Burst(at, n) => {
                            for _ in 0..n {
                                copies.iter_mut().for_each(|q| q.push(Cycle(at), payload));
                                oracle.push(Cycle(at), payload);
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
                                spare.push(Cycle(at + i * 97), u32::MAX);
                            }
                            for _ in 0..n / 2 {
                                spare.pop();
                            }
                            spare.clone_from(&copies[0]);
                            copies.truncate(MAX_COPIES - 1);
                            copies.push(spare);
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
