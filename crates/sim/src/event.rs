//! The deterministic event queue.
//!
//! Two implementations share one contract: events pop in ascending
//! `(timestamp, insertion-seq)` order, so same-time events are FIFO and a
//! given seed always produces the identical execution.
//!
//! * [`EventQueue`] — the production implementation, a calendar-queue
//!   event wheel: near-future events live in fixed-width time buckets so
//!   the common schedule/pop cycle touches a single `Vec`; far-future
//!   events wait in an overflow heap and cascade into the wheel in window
//!   batches as simulated time advances.
//! * [`HeapEventQueue`] — the original `BinaryHeap` implementation,
//!   retained as the differential oracle. The property tests drive both
//!   with identical scripts and demand byte-equal pop streams.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// A future event: timestamp, insertion sequence number, payload.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    payload: E,
}

impl<E> Entry<E> {
    /// The total pop-order key: earlier time first, then scheduling order.
    fn key(&self) -> (SimTime, u64) {
        (self.at, self.seq)
    }
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

/// Work counters maintained by the [`EventQueue`] wheel: deterministic
/// functions of the schedule/pop script, CI-gated alongside the scheduler
/// counters in `BENCH_hotpath.json`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WheelStats {
    /// Events placed directly into a wheel bucket at schedule time
    /// (the event fired within the current wheel window).
    pub inserts: u64,
    /// Events moved from the overflow heap into wheel buckets when the
    /// wheel emptied and the window advanced (each event cascades at most
    /// once).
    pub cascades: u64,
}

/// Wheel geometry: `BUCKETS` buckets of `WIDTH_SECS` each. The window
/// covers `BUCKETS * WIDTH_SECS` simulated seconds (~68 minutes), sized so
/// the short-horizon churn of a scheduling round — rotations, staging
/// completions, near finishes — stays on the O(1) bucket path while
/// trace-load submits spanning days wait in the overflow heap.
const BUCKETS: usize = 4096;
const MASK: u64 = (BUCKETS - 1) as u64;
const WIDTH_SECS: f64 = 1.0;
/// Words in the bucket-occupancy bitmap (one bit per bucket).
const WORDS: usize = BUCKETS / 64;

/// A priority queue of timestamped events with deterministic ordering.
///
/// Events pop in ascending timestamp order; events scheduled for the same
/// instant pop in the order they were scheduled. Given identical inputs the
/// pop sequence is identical, which is the foundation of reproducible
/// experiments across the workspace.
///
/// Internally a calendar-queue event wheel (see the module docs); the
/// bucket layout is invisible through this API and is continuously checked
/// against [`HeapEventQueue`] by the differential property tests.
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
    /// `BUCKETS` fixed-width buckets. Invariant: every bucketed entry has
    /// `abs_bucket(at) ∈ [cursor, cursor + BUCKETS)`, so each bucket holds
    /// at most one "lap" and position order from the cursor is time order.
    buckets: Vec<Vec<Entry<E>>>,
    /// Bit `p` is set iff `buckets[p]` is non-empty, so the next occupied
    /// bucket is a few `trailing_zeros` away instead of a walk over empty
    /// `Vec` headers.
    occupied: [u64; WORDS],
    /// Absolute (un-wrapped) bucket index of the wheel's current position.
    cursor: u64,
    /// Entries currently in buckets (the rest are in `overflow`).
    in_buckets: usize,
    /// Far-future events (beyond the wheel window), min-first by `(at, seq)`.
    overflow: BinaryHeap<Entry<E>>,
    len: usize,
    next_seq: u64,
    stats: WheelStats,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

/// Absolute bucket index for a timestamp. Both insertion and the pop scan
/// use this same computation, so boundary timestamps land consistently.
fn abs_bucket(at: SimTime) -> u64 {
    (at.as_secs() / WIDTH_SECS).floor() as u64
}

impl<E> EventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        EventQueue {
            buckets: (0..BUCKETS).map(|_| Vec::new()).collect(),
            occupied: [0; WORDS],
            cursor: 0,
            in_buckets: 0,
            overflow: BinaryHeap::new(),
            len: 0,
            next_seq: 0,
            stats: WheelStats::default(),
        }
    }

    /// Schedules `payload` to fire at time `at`.
    pub fn schedule(&mut self, at: SimTime, payload: E) {
        let seq = self.next_seq;
        self.next_seq += 1;
        let entry = Entry { at, seq, payload };
        let abs = abs_bucket(at);
        if abs < self.cursor {
            // Scheduling into the past (never done by the platform, but
            // allowed by the API): evacuate the wheel so the single-lap
            // invariant survives the cursor rewind.
            self.rewind(abs);
        }
        self.len += 1;
        if abs < self.cursor + BUCKETS as u64 {
            self.stats.inserts += 1;
            self.push_bucket(abs, entry);
        } else {
            self.overflow.push(entry);
        }
    }

    /// Removes and returns the earliest event, or `None` if the queue is empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.len == 0 {
            return None;
        }
        if self.in_buckets == 0 {
            self.cascade();
        }
        let bucket_pos = self.scan_buckets();
        // An overflow entry can be earlier than every bucketed one when it
        // was scheduled beyond the window that existed at its insert time
        // and the cursor has since advanced past it.
        let from_overflow = match (bucket_pos, self.overflow.peek()) {
            (Some((pos, idx)), Some(over)) => over.key() < self.buckets[pos][idx].key(),
            (None, Some(_)) => true,
            (Some(_), None) => false,
            (None, None) => unreachable!("len > 0 but no entry found"),
        };
        self.len -= 1;
        if from_overflow {
            // tacc-lint: allow(panic-surface, reason = "pop follows a successful peek of the same heap; the candidate cannot vanish in between")
            let e = self.overflow.pop().expect("peeked entry present");
            return Some((e.at, e.payload));
        }
        // tacc-lint: allow(panic-surface, reason = "from_overflow is false only when the bucket scan produced a candidate")
        let (pos, idx) = bucket_pos.expect("bucket candidate present");
        self.cursor = abs_bucket(self.buckets[pos][idx].at);
        self.in_buckets -= 1;
        let e = self.buckets[pos].swap_remove(idx);
        if self.buckets[pos].is_empty() {
            self.occupied[pos / 64] &= !(1 << (pos % 64));
        }
        Some((e.at, e.payload))
    }

    /// Timestamp of the earliest pending event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        let bucket_at = self
            .scan_buckets()
            .map(|(pos, idx)| self.buckets[pos][idx].key());
        let overflow_at = self.overflow.peek().map(Entry::key);
        match (bucket_at, overflow_at) {
            (Some(b), Some(o)) => Some(b.min(o).0),
            (Some(b), None) => Some(b.0),
            (None, Some(o)) => Some(o.0),
            (None, None) => None,
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total events ever scheduled (diagnostic counter).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }

    /// The wheel's deterministic work counters.
    pub fn wheel_stats(&self) -> WheelStats {
        self.stats
    }

    /// Finds the earliest bucketed entry: first occupied bucket position
    /// at or after the cursor, wrapping (single-lap invariant makes
    /// position order time order), then the min `(at, seq)` within it. Read-only; `pop`
    /// advances the cursor afterwards so repeated scans stay amortized
    /// O(1) per event.
    fn scan_buckets(&self) -> Option<(usize, usize)> {
        if self.in_buckets == 0 {
            return None;
        }
        // From the cursor's bit to the end of its word, then the following
        // words all the way round, and last the bits of the cursor's own
        // word that sit behind it (a full lap away).
        let start = (self.cursor & MASK) as usize;
        let (word, bit) = (start / 64, start % 64);
        let ahead = u64::MAX << bit;
        for step in 0..=WORDS {
            let w = (word + step) % WORDS;
            let mask = match step {
                0 => ahead,
                WORDS => !ahead,
                _ => u64::MAX,
            };
            let bits = self.occupied[w] & mask;
            if bits == 0 {
                continue;
            }
            let pos = w * 64 + bits.trailing_zeros() as usize;
            let idx = self.buckets[pos]
                .iter()
                .enumerate()
                .min_by_key(|(_, e)| e.key())
                .map(|(i, _)| i)
                // tacc-lint: allow(panic-surface, reason = "the occupancy bit is set only while the bucket holds an entry")
                .expect("occupied bucket is non-empty");
            return Some((pos, idx));
        }
        unreachable!("in_buckets > 0 but all buckets empty");
    }

    /// Advances the window to the earliest overflow event and moves every
    /// overflow event inside the new window into its bucket. Called only
    /// when the wheel is empty, so the cursor may move freely.
    fn cascade(&mut self) {
        debug_assert_eq!(self.in_buckets, 0);
        let Some(front) = self.overflow.peek() else {
            return;
        };
        self.cursor = abs_bucket(front.at);
        let window_end = self.cursor + BUCKETS as u64;
        while let Some(front) = self.overflow.peek() {
            let abs = abs_bucket(front.at);
            if abs >= window_end {
                break;
            }
            // tacc-lint: allow(panic-surface, reason = "pop follows a successful peek of the same heap; the candidate cannot vanish in between")
            let entry = self.overflow.pop().expect("peeked entry present");
            self.stats.cascades += 1;
            self.push_bucket(abs, entry);
        }
    }

    /// Files `entry` under absolute bucket `abs` (inside the window).
    fn push_bucket(&mut self, abs: u64, entry: Entry<E>) {
        let pos = (abs & MASK) as usize;
        self.in_buckets += 1;
        self.occupied[pos / 64] |= 1 << (pos % 64);
        self.buckets[pos].push(entry);
    }

    /// Cursor rewind for past-scheduling: dump all bucketed entries into
    /// the overflow heap (they re-enter via `cascade`), then move the
    /// cursor back.
    fn rewind(&mut self, abs: u64) {
        if self.in_buckets > 0 {
            for bucket in &mut self.buckets {
                for entry in bucket.drain(..) {
                    self.overflow.push(entry);
                }
            }
            self.occupied = [0; WORDS];
            self.in_buckets = 0;
        }
        self.cursor = abs;
    }
}

impl<E> std::fmt::Debug for EventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("EventQueue")
            .field("pending", &self.len)
            .field("scheduled_total", &self.next_seq)
            .field("in_buckets", &self.in_buckets)
            .field("cursor", &self.cursor)
            .field("stats", &self.stats)
            .finish()
    }
}

/// The original `BinaryHeap`-backed queue, kept as the differential oracle
/// for [`EventQueue`]. Same API, same `(timestamp, seq)` contract; the
/// property tests in this module and `crates/sim/tests/` drive both with
/// identical scripts and require byte-equal pop streams.
#[derive(Default)]
pub struct HeapEventQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    next_seq: u64,
}

impl<E> HeapEventQueue<E> {
    /// Creates an empty queue.
    pub fn new() -> Self {
        HeapEventQueue {
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

    /// Total events ever scheduled (diagnostic counter).
    pub fn scheduled_total(&self) -> u64 {
        self.next_seq
    }
}

impl<E> std::fmt::Debug for HeapEventQueue<E> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("HeapEventQueue")
            .field("pending", &self.heap.len())
            .field("scheduled_total", &self.next_seq)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        for (t, name) in [(3.0, "c"), (1.0, "a"), (2.0, "b")] {
            q.schedule(SimTime::from_secs(t), name);
        }
        let order: Vec<&str> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(5.0);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    /// The FIFO tie-break regression test of ISSUE 9: same-timestamp
    /// events must pop in scheduling order on *both* implementations,
    /// including timestamps that sit exactly on a bucket boundary and in
    /// the far-future (overflow) region of the wheel.
    #[test]
    fn same_time_fifo_holds_for_wheel_and_oracle() {
        // Exact bucket boundary, mid-bucket, and beyond-window times.
        let boundary = WIDTH_SECS * 7.0;
        let far = WIDTH_SECS * (BUCKETS as f64) * 3.5;
        for t in [boundary, boundary + 0.25, far] {
            let at = SimTime::from_secs(t);
            let mut wheel = EventQueue::new();
            let mut oracle = HeapEventQueue::new();
            for i in 0..64 {
                wheel.schedule(at, i);
                oracle.schedule(at, i);
            }
            let w: Vec<i32> = std::iter::from_fn(|| wheel.pop().map(|(_, e)| e)).collect();
            let o: Vec<i32> = std::iter::from_fn(|| oracle.pop().map(|(_, e)| e)).collect();
            assert_eq!(w, (0..64).collect::<Vec<_>>(), "wheel FIFO at t={t}");
            assert_eq!(o, (0..64).collect::<Vec<_>>(), "oracle FIFO at t={t}");
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
    fn far_future_events_cascade_from_overflow() {
        let mut q = EventQueue::new();
        let far = SimTime::from_secs(WIDTH_SECS * (BUCKETS as f64) * 2.0 + 13.0);
        q.schedule(far, "far");
        q.schedule(SimTime::from_secs(1.0), "near");
        assert_eq!(q.wheel_stats().inserts, 1, "only the near event buckets");
        assert_eq!(q.pop().map(|(_, e)| e), Some("near"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("far"));
        assert_eq!(q.wheel_stats().cascades, 1, "the far event cascaded in");
        assert!(q.is_empty());
    }

    #[test]
    fn overflow_resident_event_inside_advanced_window_pops_in_order() {
        // An event beyond the window at insert time stays in overflow even
        // after the cursor advances past its bucket; pop must still return
        // it in global order.
        let mut q = EventQueue::new();
        let window = WIDTH_SECS * BUCKETS as f64;
        q.schedule(SimTime::from_secs(0.5), "t0");
        q.schedule(SimTime::from_secs(window + 10.0), "overflowed");
        assert_eq!(q.pop().map(|(_, e)| e), Some("t0"));
        // Advance the cursor beyond the overflowed event's bucket via a
        // bucketed event that is later than it.
        q.schedule(SimTime::from_secs(window + 500.0), "later");
        assert_eq!(q.pop().map(|(_, e)| e), Some("overflowed"));
        assert_eq!(q.pop().map(|(_, e)| e), Some("later"));
        assert!(q.is_empty());
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

    #[test]
    fn heap_oracle_matches_wheel_on_mixed_script() {
        let mut wheel = EventQueue::new();
        let mut oracle = HeapEventQueue::new();
        let times = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
        for (i, t) in times.iter().enumerate() {
            let at = SimTime::from_secs(t * WIDTH_SECS * BUCKETS as f64 / 4.0);
            wheel.schedule(at, i);
            oracle.schedule(at, i);
        }
        loop {
            let (w, o) = (wheel.pop(), oracle.pop());
            assert_eq!(w, o);
            if w.is_none() {
                break;
            }
        }
    }
}
