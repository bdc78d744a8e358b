//! A deterministic discrete-event scheduler.
//!
//! Events are ordered by `(time, sequence)`: ties in simulated time are
//! broken by insertion order, so a run is a pure function of its inputs.
//!
//! The heap holds 16-byte keys, not events: a key is the event's instant
//! in its high 64 bits, then its sequence number, then the slot of a
//! slab that holds its payload. Sequence numbers are unique, so the key
//! orders exactly by `(time, sequence)` and the slot never decides. A
//! sift moves keys only; a payload is written once when it is scheduled
//! and read once when it pops, and its slot goes back to a free list for
//! the next event, so a queue in steady state allocates nothing.

use crate::time::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bits of a key's low word that hold the payload's slot; the bits above
/// them hold the sequence number.
const SLOT_BITS: u32 = 24;
/// Events that may be pending at once.
const MAX_SLOTS: usize = 1 << SLOT_BITS;
/// Events that may be scheduled over a queue's life.
const MAX_SEQ: u64 = 1 << (64 - SLOT_BITS);

/// An event queue over payloads of type `E`.
#[derive(Debug)]
pub struct EventQueue<E> {
    /// A min-heap of keys: `at << 64 | seq << SLOT_BITS | slot`.
    heap: BinaryHeap<Reverse<u128>>,
    /// Payloads by slot; `None` where the slot is free.
    slab: Vec<Option<E>>,
    /// Free slots of `slab`, the last freed reused first.
    free: Vec<u32>,
    /// Events scheduled so far: the next sequence number.
    seq: u64,
    now: SimTime,
}

impl<E> EventQueue<E> {
    /// Creates an empty queue positioned at `t = 0`. It allocates
    /// nothing until the first event is scheduled.
    pub fn new() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// Schedules `payload` to fire at `at`.
    ///
    /// # Panics
    /// Panics if `at` is in the simulator's past: events may not rewrite
    /// history. Panics, rather than wrap or reorder, once 2^40 events
    /// have been scheduled or 2^24 are pending at once.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        assert!(
            at >= self.now,
            "cannot schedule an event at {at} before current time {}",
            self.now
        );
        assert!(self.seq < MAX_SEQ, "event sequence numbers exhausted");
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = Some(payload);
                slot
            }
            None => {
                assert!(
                    self.slab.len() < MAX_SLOTS,
                    "more than {MAX_SLOTS} events pending"
                );
                self.slab.push(Some(payload));
                (self.slab.len() - 1) as u32
            }
        };
        let tag = self.seq << SLOT_BITS | u64::from(slot);
        self.seq += 1;
        self.heap
            .push(Reverse(u128::from(at.as_nanos()) << 64 | u128::from(tag)));
    }

    /// Removes and returns the earliest event, advancing the clock to its
    /// timestamp. Returns `None` when the queue is exhausted.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let Reverse(key) = self.heap.pop()?;
        let at = instant(key);
        debug_assert!(at >= self.now, "event queue went backwards");
        let slot = key as u32 & (MAX_SLOTS as u32 - 1);
        let payload = self.slab[slot as usize]
            .take()
            .expect("a queued key's slot holds its payload");
        self.free.push(slot);
        self.now = at;
        Some((at, payload))
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|&Reverse(key)| instant(key))
    }

    /// Current simulated time (timestamp of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events waiting in the queue.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total number of events processed so far.
    pub fn processed(&self) -> u64 {
        self.seq - self.heap.len() as u64
    }
}

/// The instant a key fires at: its high 64 bits.
fn instant(key: u128) -> SimTime {
    SimTime::from_nanos((key >> 64) as u64)
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    fn secs(s: f64) -> SimTime {
        SimTime::from_secs_f64(s)
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(secs(3.0), "c");
        q.schedule(secs(1.0), "a");
        q.schedule(secs(2.0), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_pop_in_insertion_order() {
        let mut q = EventQueue::new();
        let t = secs(5.0);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, p)| p).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(secs(2.0), ());
        q.schedule(secs(7.0), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), secs(2.0));
        q.pop();
        assert_eq!(q.now(), secs(7.0));
        assert_eq!(q.processed(), 2);
    }

    #[test]
    fn events_may_schedule_at_current_time() {
        let mut q = EventQueue::new();
        q.schedule(secs(1.0), 0);
        q.pop();
        q.schedule(secs(1.0), 1); // same instant as `now` is allowed
        assert_eq!(q.pop().map(|(_, p)| p), Some(1));
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_in_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(secs(5.0), ());
        q.pop();
        q.schedule(secs(1.0), ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(secs(4.0), ());
        assert_eq!(q.peek_time(), Some(secs(4.0)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn a_held_queue_reuses_its_slots() {
        // Hold model: pop one, schedule one. The slab stays at its
        // peak of pending events however long the queue is held.
        let mut q = EventQueue::new();
        for i in 0..64u64 {
            q.schedule(SimTime::from_nanos(i * 7 % 64), i);
        }
        let peak = q.slab.len();
        for i in 0..10_000u64 {
            let (at, _) = q.pop().expect("the queue never empties");
            q.schedule(at + SimDuration::from_nanos(1 + i % 97), i);
            assert_eq!(q.slab.len(), peak, "pop {i} grew the slab");
        }
        assert_eq!(q.len(), 64);
        assert_eq!(q.processed(), 10_000);
    }

    #[test]
    #[should_panic(expected = "sequence numbers exhausted")]
    fn sequence_overflow_panics() {
        let mut q = EventQueue::new();
        q.seq = MAX_SEQ;
        q.schedule(SimTime::ZERO, ());
    }

    #[test]
    #[should_panic(expected = "events pending")]
    fn slot_overflow_panics() {
        let mut q = EventQueue::new();
        q.slab.resize_with(MAX_SLOTS, || Some(()));
        q.schedule(SimTime::ZERO, ());
    }
}
