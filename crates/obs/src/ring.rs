//! [`Ring`]: the one bounded store, under the bus and the decision trace.

use std::collections::{vec_deque, VecDeque};

/// A bounded FIFO. Once full, each push evicts the oldest item and
/// counts it dropped; a push never fails and never reorders.
#[derive(Debug)]
pub struct Ring<T> {
    capacity: usize,
    items: VecDeque<T>,
    dropped: u64,
}

impl<T> Ring<T> {
    /// New ring retaining at most `capacity` items (minimum 1).
    pub fn new(capacity: usize) -> Self {
        Ring {
            capacity: capacity.max(1),
            items: VecDeque::new(),
            dropped: 0,
        }
    }

    /// Appends `item`. Returns the item evicted to make room, if the ring
    /// was full — hot callers recycle its allocations.
    pub fn push(&mut self, item: T) -> Option<T> {
        let full = self.items.len() == self.capacity;
        let evicted = if full { self.items.pop_front() } else { None };
        self.dropped += u64::from(full);
        self.items.push_back(item);
        evicted
    }

    /// Number of items retained.
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Items evicted to make room.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Retained items, oldest first.
    pub fn iter(&self) -> vec_deque::Iter<'_, T> {
        self.items.iter()
    }

    /// The `n` most recent items, oldest first.
    pub fn recent(&self, n: usize) -> Vec<&T> {
        self.items.range(self.len().saturating_sub(n)..).collect()
    }
}
