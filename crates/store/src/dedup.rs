//! The clock-ordered duplicate-suppression log (§5.3).
//!
//! A store instance remembers, for every packet that may still be replayed,
//! the updates that packet already induced and what each returned, so a
//! re-issued update is *emulated* instead of applied twice. The log is keyed
//! by the packet's logical clock — counter-major, so "everything up to
//! counter `c`" is a prefix — and a packet's few updates sit inline in its
//! slot, naming their object by the store's dense entry id rather than by a
//! copy of the key.
//!
//! Nothing below the **replay floor** is kept: once no packet log can
//! replay a clock, its slot is dead weight. [`DedupLog::forget_below`]
//! pops that prefix; [`DedupLog::forget_clock`] drops one packet (the
//! simulator root's per-packet delete).
//!
//! Resident memory is `packets from the floor up × updates per packet ×
//! entry bytes`: a counter update is 32 bytes, a packet's slot 64 with its
//! key, and the tree's nodes run about half full under ascending clocks —
//! some 120 bytes per packet and shard, against roughly a kilobyte per
//! update for the pair of key-cloning maps this replaces. Any other update
//! adds one boxed `(Operation, Value)`.

use crate::key::Clock;
use crate::ops::Operation;
use crate::value::Value;
use std::collections::btree_map::{BTreeMap, Entry};

/// What an update applied and what the store answered. The per-packet
/// counters — `Increment` answered with an integer — are nearly all of the
/// log and are held in 24 bytes; any other update is boxed (its one
/// allocation).
#[derive(Debug, Clone)]
enum Logged {
    Increment { delta: i64, returned: i64 },
    Other(Box<(Operation, Value)>),
}

impl Logged {
    fn new(op: &Operation, returned: &Value) -> Logged {
        match (op, returned) {
            (Operation::Increment(delta), Value::Int(returned)) => Logged::Increment {
                delta: *delta,
                returned: *returned,
            },
            _ => Logged::Other(Box::new((op.clone(), returned.clone()))),
        }
    }

    fn is(&self, op: &Operation) -> bool {
        match self {
            Logged::Increment { delta, .. } => *op == Operation::Increment(*delta),
            Logged::Other(other) => other.0 == *op,
        }
    }

    fn returned(&self) -> Value {
        match self {
            Logged::Increment { returned, .. } => Value::Int(*returned),
            Logged::Other(other) => other.1.clone(),
        }
    }

    fn pair(&self) -> (Operation, Value) {
        match self {
            Logged::Increment { delta, returned } => {
                (Operation::Increment(*delta), Value::Int(*returned))
            }
            Logged::Other(other) => (**other).clone(),
        }
    }
}

/// One logged update: which object (dense entry id) and what happened.
#[derive(Debug, Clone)]
struct Update {
    entry: u32,
    logged: Logged,
}

/// The updates one packet induced on this store instance. Nearly every
/// packet issues one update per shard, so the first sits inline and the
/// spill vector stays unallocated.
#[derive(Debug, Clone)]
struct Slot {
    first: Update,
    rest: Vec<Update>,
}

impl Slot {
    fn len(&self) -> usize {
        1 + self.rest.len()
    }

    fn iter(&self) -> impl Iterator<Item = &Update> {
        std::iter::once(&self.first).chain(&self.rest)
    }
}

/// Counter-major ordering key: all roots' packets with counter `c` sort
/// before any packet with counter `c + 1`.
fn order(clock: Clock) -> u64 {
    clock.0.rotate_left(Clock::ROOT_BITS)
}

fn clock_of(order: u64) -> Clock {
    Clock(order.rotate_right(Clock::ROOT_BITS))
}

/// See the module documentation.
#[derive(Debug, Clone, Default)]
pub(crate) struct DedupLog {
    slots: BTreeMap<u64, Slot>,
    /// Updates held across all slots, so `len()` is O(1).
    updates: usize,
    /// Most updates any single packet has held here (sizes the sentinel's
    /// bound on the log).
    widest: usize,
    /// Logged non-deterministic values per packet and slot (Appendix A),
    /// under the same ordering key so both logs forget a packet together.
    nondet: BTreeMap<u64, Vec<(u32, Value)>>,
}

/// One packet's place in the log, found once: an apply first asks it
/// whether the update is a duplicate and, if not, records the update there
/// without searching the tree again.
pub(crate) struct PacketSlot<'a> {
    slot: Entry<'a, u64, Slot>,
    updates: &'a mut usize,
    widest: &'a mut usize,
}

impl PacketSlot<'_> {
    /// What `op` on `entry` returned when this packet first induced it, if
    /// that is on record. A packet may issue several different updates
    /// against one object (seeding a list), so the operation is part of the
    /// match.
    pub(crate) fn find(&self, entry: u32, op: &Operation) -> Option<Value> {
        let Entry::Occupied(slot) = &self.slot else {
            return None;
        };
        slot.get()
            .iter()
            .find(|u| u.entry == entry && u.logged.is(op))
            .map(|u| u.logged.returned())
    }

    /// Record that this packet induced `op` on `entry`, answered with
    /// `returned`.
    pub(crate) fn record(self, entry: u32, op: &Operation, returned: &Value) {
        let update = Update {
            entry,
            logged: Logged::new(op, returned),
        };
        let held = match self.slot {
            Entry::Occupied(slot) => {
                let slot = slot.into_mut();
                slot.rest.push(update);
                slot.len()
            }
            Entry::Vacant(vacant) => {
                vacant.insert(Slot {
                    first: update,
                    rest: Vec::new(),
                });
                1
            }
        };
        *self.updates += 1;
        *self.widest = (*self.widest).max(held);
    }
}

impl DedupLog {
    /// Updates currently retained.
    pub(crate) fn len(&self) -> usize {
        self.updates
    }

    /// Most updates one packet has held in this log so far.
    pub(crate) fn widest_slot(&self) -> usize {
        self.widest
    }

    /// The place of `clock`'s packet in the log.
    pub(crate) fn packet(&mut self, clock: Clock) -> PacketSlot<'_> {
        PacketSlot {
            slot: self.slots.entry(order(clock)),
            updates: &mut self.updates,
            widest: &mut self.widest,
        }
    }

    /// The non-deterministic value of `(clock, slot)`: `candidate` on first
    /// request, the logged value ever after.
    pub(crate) fn nondet_value(&mut self, clock: Clock, slot: u32, candidate: Value) -> Value {
        let values = self.nondet.entry(order(clock)).or_default();
        match values.iter().find(|(s, _)| *s == slot) {
            Some((_, logged)) => logged.clone(),
            None => {
                values.push((slot, candidate.clone()));
                candidate
            }
        }
    }

    /// Drop everything `clock` induced. One removal per log.
    pub(crate) fn forget_clock(&mut self, clock: Clock) {
        if let Some(slot) = self.slots.remove(&order(clock)) {
            self.updates -= slot.len();
        }
        self.nondet.remove(&order(clock));
    }

    /// Drop every packet whose counter is below `floor`, whichever root
    /// stamped it: a prefix of the log.
    pub(crate) fn forget_below(&mut self, floor: u64) {
        let bound = floor << Clock::ROOT_BITS;
        if bound >> Clock::ROOT_BITS != floor {
            // A floor past the counter range (the "top" of a run that can
            // never replay) shifts bits out: everything goes.
            self.clear();
            return;
        }
        while let Some(first) = self.slots.first_entry().filter(|e| *e.key() < bound) {
            self.updates -= first.remove().len();
        }
        while let Some(first) = self.nondet.first_entry().filter(|e| *e.key() < bound) {
            first.remove();
        }
    }

    /// Every retained update as `(clock, entry id, operation, returned)`,
    /// in clock order (for durable images).
    pub(crate) fn iter(&self) -> impl Iterator<Item = (Clock, u32, Operation, Value)> + '_ {
        self.slots.iter().flat_map(|(k, slot)| {
            slot.iter().map(|u| {
                let (op, returned) = u.logged.pair();
                (clock_of(*k), u.entry, op, returned)
            })
        })
    }

    /// Every logged non-deterministic value as `(clock, slot, value)`.
    pub(crate) fn nondet_iter(&self) -> impl Iterator<Item = (Clock, u32, &Value)> {
        self.nondet
            .iter()
            .flat_map(|(k, values)| values.iter().map(|(s, v)| (clock_of(*k), *s, v)))
    }

    /// Drop the update log (a restore from a Figure-7 checkpoint rebuilds it
    /// from the NF-side logs); logged non-determinism stays.
    pub(crate) fn clear_updates(&mut self) {
        self.slots.clear();
        self.updates = 0;
    }

    /// Drop everything.
    pub(crate) fn clear(&mut self) {
        self.clear_updates();
        self.nondet.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn incr(n: i64) -> Operation {
        Operation::Increment(n)
    }

    #[test]
    fn prefix_pop_spans_roots_and_keeps_the_rest() {
        let mut log = DedupLog::default();
        for root in 0..2u8 {
            for c in 1..=4u64 {
                log.packet(Clock::with_root(root, c))
                    .record(7, &incr(1), &Value::Int(c as i64));
            }
        }
        // A second update of one packet, and one that is not a counter.
        log.packet(Clock::with_root(0, 3))
            .record(7, &incr(2), &Value::Int(9));
        log.packet(Clock::with_root(0, 4))
            .record(8, &Operation::PopFront, &Value::None);
        assert_eq!(log.len(), 10);
        assert_eq!(log.widest_slot(), 2);
        let find = |log: &mut DedupLog, root: u8, c: u64, entry: u32, op: &Operation| {
            log.packet(Clock::with_root(root, c)).find(entry, op)
        };
        // Below 3 means counters 1 and 2 of both roots.
        log.forget_below(3);
        assert_eq!(log.len(), 6);
        assert_eq!(find(&mut log, 1, 2, 7, &incr(1)), None);
        assert_eq!(find(&mut log, 1, 3, 7, &incr(1)), Some(Value::Int(3)));
        // Same object and clock, different operation: its own record.
        assert_eq!(find(&mut log, 0, 3, 7, &incr(2)), Some(Value::Int(9)));
        assert_eq!(find(&mut log, 0, 3, 8, &incr(2)), None);
        assert_eq!(
            find(&mut log, 0, 4, 8, &Operation::PopFront),
            Some(Value::None)
        );
        // Asking is not recording.
        assert_eq!(log.len(), 6);
        log.forget_clock(Clock::with_root(0, 3));
        assert_eq!(log.len(), 4);
        // The top of the counter range clears the log.
        log.forget_below(u64::MAX);
        assert_eq!(log.len(), 0);
        assert_eq!(log.iter().count(), 0);
    }

    #[test]
    fn nondet_values_are_forgotten_with_their_packet() {
        let mut log = DedupLog::default();
        let (a, b) = (Clock::with_root(0, 5), Clock::with_root(1, 9));
        assert_eq!(log.nondet_value(a, 0, Value::Int(1)), Value::Int(1));
        assert_eq!(log.nondet_value(a, 0, Value::Int(2)), Value::Int(1));
        assert_eq!(log.nondet_value(a, 1, Value::Int(3)), Value::Int(3));
        assert_eq!(log.nondet_value(b, 0, Value::Int(4)), Value::Int(4));
        assert_eq!(log.nondet_iter().count(), 3);
        log.forget_clock(a);
        assert_eq!(log.nondet_value(a, 0, Value::Int(2)), Value::Int(2));
        log.forget_below(10);
        assert_eq!(log.nondet_iter().count(), 0);
    }
}
