//! Event queue internals: actor identifiers and the ordered queue.

use crate::time::VirtualTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::fmt;

/// Identifier of an actor registered with a [`crate::Simulation`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ActorId(pub usize);

impl fmt::Display for ActorId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "actor#{}", self.0)
    }
}

/// A message in the event queue, delivered to `dst` at `at`.
#[derive(Debug)]
pub(crate) struct Event<M> {
    pub at: VirtualTime,
    /// Tie-breaker preserving insertion order for equal timestamps.
    pub seq: u64,
    pub dst: ActorId,
    pub msg: M,
}

impl<M> PartialEq for Event<M> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<M> Eq for Event<M> {}

impl<M> Ord for Event<M> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest event pops first.
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<M> PartialOrd for Event<M> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// Time-ordered event queue with FIFO tie-breaking.
#[derive(Debug)]
pub(crate) struct EventQueue<M> {
    heap: BinaryHeap<Event<M>>,
    next_seq: u64,
}

impl<M> Default for EventQueue<M> {
    fn default() -> Self {
        EventQueue {
            heap: BinaryHeap::new(),
            next_seq: 0,
        }
    }
}

impl<M> EventQueue<M> {
    pub fn push(&mut self, at: VirtualTime, dst: ActorId, msg: M) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { at, seq, dst, msg });
    }

    pub fn pop(&mut self) -> Option<Event<M>> {
        self.heap.pop()
    }

    pub fn peek_time(&self) -> Option<VirtualTime> {
        self.heap.peek().map(|e| e.at)
    }

    /// When the last message queued for `dst` is due, if any is.
    pub fn last_due(&self, dst: ActorId) -> Option<VirtualTime> {
        self.heap
            .iter()
            .filter(|e| e.dst == dst)
            .map(|e| e.at)
            .max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q: EventQueue<u32> = EventQueue::default();
        let (a, b) = (ActorId(0), ActorId(1));
        q.push(VirtualTime::from_nanos(50), a, 1);
        q.push(VirtualTime::from_nanos(10), b, 2);
        q.push(VirtualTime::from_nanos(10), a, 3);
        q.push(VirtualTime::from_nanos(30), b, 4);
        assert_eq!(q.last_due(a), Some(VirtualTime::from_nanos(50)));
        assert_eq!(q.last_due(b), Some(VirtualTime::from_nanos(30)));
        assert_eq!(q.last_due(ActorId(2)), None);
        let order: Vec<u32> = std::iter::from_fn(|| q.pop()).map(|e| e.msg).collect();
        // Equal timestamps (messages 2 and 3) preserve insertion order.
        assert_eq!(order, vec![2, 3, 4, 1]);
        assert_eq!(q.peek_time(), None);
    }
}
