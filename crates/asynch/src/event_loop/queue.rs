//! The loop's event queue: simulated time, earliest first.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// A discrete-event queue: items come out by ascending time, and items
/// scheduled for the same time in the order they were pushed — so a run is
/// a function of what was pushed, never of the heap's internals.
#[derive(Debug)]
pub(super) struct EventQueue<T> {
    heap: BinaryHeap<Entry<T>>,
    /// How many items have been pushed: the next one's tie-breaker.
    seq: u64,
}

#[derive(Debug)]
struct Entry<T> {
    at: u64,
    seq: u64,
    item: T,
}

impl<T> Default for EventQueue<T> {
    fn default() -> Self {
        Self {
            heap: BinaryHeap::new(),
            seq: 0,
        }
    }
}

impl<T> EventQueue<T> {
    /// Schedule `item` for time `at`.
    pub(super) fn push(&mut self, at: u64, item: T) {
        self.seq += 1;
        let seq = self.seq;
        self.heap.push(Entry { at, seq, item });
    }

    /// The earliest item and its time, unless it is due after `until`
    /// (then it stays queued).
    pub(super) fn pop_until(&mut self, until: u64) -> Option<(u64, T)> {
        if self.heap.peek()?.at > until {
            return None;
        }
        self.heap.pop().map(|e| (e.at, e.item))
    }

    /// Is nothing scheduled?
    pub(super) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

// `BinaryHeap` is a max-heap: the ordering is reversed to pop the earliest
// `(at, seq)` first.  `seq` is unique per queue, so this is a total order.
impl<T> Ord for Entry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}
impl<T> PartialOrd for Entry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> PartialEq for Entry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl<T> Eq for Entry<T> {}
