//! Event queue internals: actor identifiers, timer tags and the ordered queue.

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

/// Application-chosen tag identifying a timer.
pub type TimerTag = u64;

/// What is delivered when an event fires.
#[derive(Debug)]
pub(crate) enum EventKind<M> {
    /// Deliver a message to the destination actor.
    Message { from: Option<ActorId>, msg: M },
    /// Fire a timer previously scheduled by the destination actor.
    Timer(TimerTag),
    /// Kill the destination actor (fail-stop).
    Fail,
}

/// An entry in the event queue.
#[derive(Debug)]
pub(crate) struct Event<M> {
    pub at: VirtualTime,
    /// Tie-breaker preserving insertion order for equal timestamps.
    pub seq: u64,
    pub dst: ActorId,
    pub kind: EventKind<M>,
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
    pub fn push(&mut self, at: VirtualTime, dst: ActorId, kind: EventKind<M>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Event { at, seq, dst, kind });
    }

    pub fn pop(&mut self) -> Option<Event<M>> {
        self.heap.pop()
    }

    pub fn peek_time(&self) -> Option<VirtualTime> {
        self.heap.peek().map(|e| e.at)
    }

    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order_with_fifo_ties() {
        let mut q: EventQueue<u32> = EventQueue::default();
        let a = ActorId(0);
        q.push(VirtualTime::from_nanos(50), a, EventKind::Timer(1));
        q.push(VirtualTime::from_nanos(10), a, EventKind::Timer(2));
        q.push(VirtualTime::from_nanos(10), a, EventKind::Timer(3));
        q.push(VirtualTime::from_nanos(30), a, EventKind::Timer(4));
        let order: Vec<TimerTag> = std::iter::from_fn(|| q.pop())
            .map(|e| match e.kind {
                EventKind::Timer(t) => t,
                _ => unreachable!(),
            })
            .collect();
        // Equal timestamps (tags 2 and 3) preserve insertion order.
        assert_eq!(order, vec![2, 3, 4, 1]);
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
    }
}
