//! The deterministic event queue.
//!
//! Events pop in ascending `(timestamp, insertion-seq)` order, so
//! same-time events are FIFO and a given seed always produces the
//! identical execution. The queue is one `BinaryHeap`: since trace
//! arrivals are read from a cursor instead of being queued, it holds only
//! in-flight work (hundreds of events, not a trace's worth).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A future event: timestamp, insertion sequence number, payload.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

// BinaryHeap is a max-heap; we invert the ordering to pop the earliest event,
// breaking timestamp ties by insertion order (lower seq first). The FIFO
// tie-break is what makes same-time event handling deterministic.
impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Entry<E> {}

/// A priority queue of timestamped events with deterministic ordering.
///
/// Events pop in ascending timestamp order; events scheduled for the same
/// instant pop in the order they were scheduled. Given identical inputs the
/// pop sequence is identical, which is the foundation of reproducible
/// experiments across the workspace.
///
/// # Example
///
/// ```
/// use tacc_sim::{EventQueue, SimTime};
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2.0), "late");
/// q.schedule(SimTime::from_secs(1.0), "early");
/// q.schedule(SimTime::from_secs(1.0), "early-2");
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "early")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(1.0), "early-2")));
/// assert_eq!(q.pop(), Some((SimTime::from_secs(2.0), "late")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
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
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Entry { at, seq, payload });
    }

    /// Removes and returns the earliest event, or `None` if the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        self.heap.pop().map(|e| (e.at, e.payload))
    }

    /// Timestamp of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Total events ever scheduled: a deterministic function of the
    /// schedule script, gated in `BENCH_hotpath.json` as `wheel_insert`.
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.heap.len())
            .field("scheduled_total", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn drain<E>(q: &mut EventQueue<E>) -> Vec<E> {
        std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect()
    }

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for (t, name) in [(3.0, "c"), (1.0, "a"), (2.0, "b")] {
            q.schedule(SimTime::from_secs(t), name);
        }
        assert_eq!(drain(&mut q), vec!["a", "b", "c"]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5.0);
        for i in 0..100 {
            q.schedule(t, i);
        }
        assert_eq!(drain(&mut q), (0..100).collect::<Vec<_>>());
    }

    /// Same-timestamp events pop in scheduling order at any instant:
    /// integral, fractional, and days out.
    #[test]
    fn same_time_fifo_holds_for_wheel_and_oracle() {
        for t in [7.0, 7.25, 4096.0 * 3.5] {
            let at = SimTime::from_secs(t);
            let mut q = EventQueue::new();
            for i in 0..64 {
                q.schedule(at, i);
            }
            assert_eq!(drain(&mut q), (0..64).collect::<Vec<_>>(), "FIFO at t={t}");
        }
    }

    #[test]
    fn peek_does_not_remove() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(7.0), ());
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(7.0)));
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
        q.pop();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn interleaved_schedule_and_pop_stay_ordered() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10.0), "x");
        assert_eq!(q.pop().map(|(_, e)| e), Some("x"));
        // Scheduling after popping still orders correctly.
        q.schedule(SimTime::from_secs(20.0), "z");
        q.schedule(SimTime::from_secs(15.0), "y");
        assert_eq!(q.pop().map(|(_, e)| e), Some("y"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("z"));
        assert_eq!(q.scheduled_total(), 3);
    }

    #[test]
    fn overflow_resident_event_inside_advanced_window_pops_in_order() {
        // An event scheduled far ahead must still pop before a nearer one
        // scheduled after the clock has moved close to it.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(0.5), "t0");
        q.schedule(SimTime::from_secs(4_106.0), "far");
        assert_eq!(q.pop().map(|(_, e)| e), Some("t0"));
        q.schedule(SimTime::from_secs(4_596.0), "later");
        assert_eq!(drain(&mut q), vec!["far", "later"]);
    }

    #[test]
    fn scheduling_into_the_past_rewinds_correctly() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5_000.0), "b");
        assert_eq!(q.pop().map(|(_, e)| e), Some("b"));
        q.schedule(SimTime::from_secs(6_000.0), "c");
        q.schedule(SimTime::from_secs(1.0), "past");
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(1.0)));
        assert_eq!(q.pop().map(|(_, e)| e), Some("past"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("c"));
        assert!(q.is_empty());
    }
}
