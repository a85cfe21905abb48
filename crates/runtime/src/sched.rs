//! The discrete-event scheduler core: the engine's time-advance
//! substrate.
//!
//! [`Scheduler`] is a deterministic min-heap of timestamped events with
//! FIFO tie-breaking and a tracked current time. The engine's run loop
//! pops a `Scheduler<u32>` of task ids (plus a sentinel id for fault
//! events); every wake the task state machine, the fault plan or a
//! timeout schedules goes through it. The engine's phase logic (fault
//! cursor, epoch boundary, queue-depth sampler, NPU clock domain) lives
//! in plain structs driven from that loop; see `docs/ENGINE.md`.
//!
//! # Determinism
//!
//! * Events at distinct cycles fire in cycle order.
//! * Events at the **same** cycle fire in the order they were
//!   scheduled (FIFO by a monotone sequence number). The engine's RNG
//!   draw order, and so every result, depends on this.
//! * Both rules are one comparison: each entry carries the key
//!   `(time << 64) | seq` as a `u128`, so a heap step compares one
//!   integer. The sequence number is a `u64` and never wraps, so the
//!   packed order is exactly the `(time, seq)` order.
//! * The tracked time never runs backwards: it is the max of all
//!   popped timestamps.
//!
//! # Example
//!
//! ```
//! use camdn_runtime::sched::Scheduler;
//!
//! // Two tasks that each re-arm themselves 10 cycles after every wake.
//! let mut s = Scheduler::new();
//! s.push(0, 0u32);
//! s.push(0, 1u32);
//! let mut fired = Vec::new();
//! while let Some((now, tid)) = s.pop() {
//!     fired.push((now, tid));
//!     if now < 20 {
//!         s.push(now + 10, tid);
//!     }
//! }
//! assert_eq!(fired, [(0, 0), (0, 1), (10, 0), (10, 1), (20, 0), (20, 1)]);
//! assert_eq!(s.now(), 20);
//! ```

use camdn_common::types::Cycle;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A deterministic time-ordered event heap with FIFO tie-breaking and
/// a tracked current time.
///
/// Payloads are opaque; events pop in `(time, insertion sequence)`
/// order.
///
/// ```
/// use camdn_runtime::sched::Scheduler;
///
/// let mut s = Scheduler::new();
/// s.push(10, "b");
/// s.push(5, "a");
/// s.push(10, "c");
/// assert_eq!(s.pop(), Some((5, "a")));
/// assert_eq!(s.pop(), Some((10, "b"))); // FIFO among ties
/// assert_eq!(s.now(), 10);
/// ```
#[derive(Debug, Clone)]
pub struct Scheduler<E> {
    heap: BinaryHeap<Reverse<Entry<E>>>,
    seq: u64,
    now: Cycle,
}

/// A pending event under its packed `(time << 64) | seq` key: one
/// `u128` compare orders by time, then by insertion sequence.
#[derive(Debug, Clone)]
struct Entry<E> {
    key: u128,
    payload: E,
}

impl<E> Entry<E> {
    fn time(&self) -> Cycle {
        (self.key >> 64) as Cycle
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for Entry<E> {}
impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

impl<E> Scheduler<E> {
    /// Creates an empty scheduler at master cycle 0.
    pub fn new() -> Self {
        Scheduler {
            heap: BinaryHeap::new(),
            seq: 0,
            now: 0,
        }
    }

    /// Schedules `payload` at absolute master cycle `time`.
    pub fn push(&mut self, time: Cycle, payload: E) {
        let key = (u128::from(time) << 64) | u128::from(self.seq);
        self.seq += 1;
        self.heap.push(Reverse(Entry { key, payload }));
    }

    /// Removes and returns the earliest event, advancing the tracked
    /// current time. The heap never travels backwards: the tracked
    /// time is the max of all popped timestamps.
    pub fn pop(&mut self) -> Option<(Cycle, E)> {
        self.heap.pop().map(|Reverse(e)| {
            let time = e.time();
            self.now = self.now.max(time);
            (time, e.payload)
        })
    }

    /// Master cycle of the latest popped event (0 before the first pop).
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Time of the earliest pending event.
    pub fn peek_time(&self) -> Option<Cycle> {
        self.heap.peek().map(|Reverse(e)| e.time())
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

impl<E> Default for Scheduler<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scheduler_orders_by_time_then_fifo() {
        let mut s = Scheduler::new();
        s.push(30, 3);
        s.push(10, 1);
        s.push(10, 2);
        assert_eq!(s.pop(), Some((10, 1)));
        assert_eq!(s.pop(), Some((10, 2)));
        assert_eq!(s.now(), 10);
        assert_eq!(s.pop(), Some((30, 3)));
        assert_eq!(s.now(), 30);
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn orders_by_time() {
        let mut s = Scheduler::new();
        s.push(30, 3);
        s.push(10, 1);
        s.push(20, 2);
        assert_eq!(s.pop(), Some((10, 1)));
        assert_eq!(s.pop(), Some((20, 2)));
        assert_eq!(s.pop(), Some((30, 3)));
    }

    #[test]
    fn fifo_among_equal_times() {
        let mut s = Scheduler::new();
        for i in 0..100 {
            s.push(7, i);
        }
        for i in 0..100 {
            assert_eq!(s.pop(), Some((7, i)));
        }
    }

    #[test]
    fn fifo_among_equal_times_at_both_ends_of_the_clock() {
        // The time sits in the key's high half: the extremes must not
        // bleed into the sequence bits.
        let mut s = Scheduler::new();
        for i in 0..10 {
            s.push(u64::MAX, i);
            s.push(0, 100 + i);
        }
        for i in 0..10 {
            assert_eq!(s.pop(), Some((0, 100 + i)));
        }
        for i in 0..10 {
            assert_eq!(s.peek_time(), Some(u64::MAX));
            assert_eq!(s.pop(), Some((u64::MAX, i)));
        }
        assert_eq!(s.now(), u64::MAX);
        assert_eq!(s.pop(), None);
    }

    #[test]
    fn peek_and_len() {
        let mut s = Scheduler::new();
        assert!(s.is_empty());
        assert_eq!(s.peek_time(), None);
        s.push(42, ());
        assert_eq!(s.peek_time(), Some(42));
        assert_eq!(s.len(), 1);
        assert_eq!(s.now(), 0, "peeking does not advance time");
    }

    #[test]
    fn interleaved_push_pop_stays_ordered() {
        let mut s = Scheduler::new();
        s.push(5, 'a');
        s.push(1, 'b');
        assert_eq!(s.pop(), Some((1, 'b')));
        s.push(3, 'c');
        s.push(2, 'd');
        assert_eq!(s.pop(), Some((2, 'd')));
        assert_eq!(s.pop(), Some((3, 'c')));
        assert_eq!(s.pop(), Some((5, 'a')));
        // An event pushed into the past pops next but leaves the
        // tracked time where it was.
        s.push(4, 'e');
        assert_eq!(s.pop(), Some((4, 'e')));
        assert_eq!(s.now(), 5);
    }
}
