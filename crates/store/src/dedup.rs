//! The duplicate-suppression log (§5.3), indexed by clock counter.
//!
//! A store instance remembers, for every packet that may still be replayed,
//! the updates that packet already induced and what each returned, so a
//! re-issued update is *emulated* instead of applied twice. Per root id the
//! log is a [`CounterWindow`] of slots, one per clock counter: finding a
//! packet's slot is one subtraction, and its updates are recorded there,
//! naming their object by the store's dense entry id rather than by
//! a copy of the key.
//!
//! Nothing below the **replay floor** is kept: once no packet log can
//! replay a clock, its slot is dead weight. [`DedupLog::forget_below`]
//! pops that prefix of every root's window; [`DedupLog::forget_clock`]
//! takes one packet's cell (the simulator root's per-packet delete).
//!
//! The counters are dense by construction — the root hands out `1..=N` —
//! so a window's span, from the lowest to the highest counter it holds, is
//! the packets still replayable and nothing else. Resident memory is one
//! 48-byte cell per counter in that span and per root, rounded up to the
//! deque's power-of-two capacity, whether or not the packet touched this
//! shard. A packet's first two updates sit inline in its cell; a third
//! moves them into a spill vector, and any update that is not an integer
//! increment adds one boxed `(Operation, Value)`.
//! [`DedupLog::spans`] reports the cells, [`DedupLog::len`] the updates.
//! Logged non-deterministic values are rare and keep a small ordered map
//! of their own, which [`DedupLog::clear_updates`] leaves alone.

use crate::backend::codec::{Dec, Enc};
use crate::key::Clock;
use crate::ops::Operation;
use crate::value::Value;
use crate::window::CounterWindow;
use std::collections::BTreeMap;

/// One logged update: which object (dense entry id), what it applied and
/// what the store answered. The per-packet counters — `Increment` answered
/// with an integer — are nearly all of the log and are held in 24 bytes,
/// entry id included; any other update is boxed (its one allocation).
#[derive(Debug, Clone)]
enum Update {
    Increment {
        entry: u32,
        delta: i64,
        returned: i64,
    },
    Other {
        entry: u32,
        logged: Box<(Operation, Value)>,
    },
}

impl Update {
    fn new(entry: u32, op: &Operation, returned: &Value) -> Update {
        match (op, returned) {
            (Operation::Increment(delta), Value::Int(returned)) => Update::Increment {
                entry,
                delta: *delta,
                returned: *returned,
            },
            _ => Update::Other {
                entry,
                logged: Box::new((op.clone(), returned.clone())),
            },
        }
    }

    fn entry(&self) -> u32 {
        match self {
            Update::Increment { entry, .. } | Update::Other { entry, .. } => *entry,
        }
    }

    fn is(&self, entry: u32, op: &Operation) -> bool {
        self.entry() == entry
            && match self {
                Update::Increment { delta, .. } => *op == Operation::Increment(*delta),
                Update::Other { logged, .. } => logged.0 == *op,
            }
    }

    fn returned(&self) -> Value {
        match self {
            Update::Increment { returned, .. } => Value::Int(*returned),
            Update::Other { logged, .. } => logged.1.clone(),
        }
    }

    /// The operation, then what it returned.
    fn encode(&self, e: &mut Enc<'_>) {
        match self {
            Update::Increment {
                delta, returned, ..
            } => {
                e.operation(&Operation::Increment(*delta));
                e.value(&Value::Int(*returned));
            }
            Update::Other { logged, .. } => {
                e.operation(&logged.0);
                e.value(&logged.1);
            }
        }
    }
}

/// The updates one packet induced on this store instance, in the order
/// they were recorded. Nearly every packet issues one or two updates per
/// shard (the NAT's two counters share one), so those sit inline and only a
/// third allocates.
#[derive(Debug, Clone)]
enum Slot {
    One(Update),
    Two([Update; 2]),
    Many(Vec<Update>),
}

impl Slot {
    fn updates(&self) -> &[Update] {
        match self {
            Slot::One(update) => std::slice::from_ref(update),
            Slot::Two(pair) => pair,
            Slot::Many(all) => all,
        }
    }

    fn len(&self) -> usize {
        self.updates().len()
    }

    fn push(&mut self, update: Update) {
        // `Vec::new()` does not allocate: the placeholder costs nothing.
        *self = match std::mem::replace(self, Slot::Many(Vec::new())) {
            Slot::One(first) => Slot::Two([first, update]),
            Slot::Two([first, second]) => Slot::Many(vec![first, second, update]),
            Slot::Many(mut all) => {
                all.push(update);
                Slot::Many(all)
            }
        };
    }
}

/// Counter-major order of a packet across roots: all roots' packets with
/// counter `c` sort before any packet with counter `c + 1`.
type Order = (u64, u8);

fn order(clock: Clock) -> Order {
    (clock.counter(), clock.root())
}

fn clock_of((counter, root): Order) -> Clock {
    Clock::with_root(root, counter)
}

/// See the module documentation.
#[derive(Debug, Clone, Default)]
pub(crate) struct DedupLog {
    /// Per root id, its packets' slots by clock counter; grown on first use.
    roots: Vec<CounterWindow<Slot>>,
    /// Updates held across all slots, so `len()` is O(1).
    updates: usize,
    /// Most updates any single packet has held here (sizes the sentinel's
    /// bound on the log).
    widest: usize,
    /// Logged non-deterministic values per packet and slot (Appendix A),
    /// forgotten with their packet.
    nondet: BTreeMap<Order, Vec<(u32, Value)>>,
}

/// One packet's place in the log: an apply first asks it whether the
/// update is a duplicate and, if not, records the update there. Asking
/// grows nothing.
pub(crate) struct PacketSlot<'a> {
    window: &'a mut CounterWindow<Slot>,
    counter: u64,
    updates: &'a mut usize,
    widest: &'a mut usize,
}

impl PacketSlot<'_> {
    /// What `op` on `entry` returned when this packet first induced it, if
    /// that is on record. A packet may issue several different updates
    /// against one object (seeding a list), so the operation is part of the
    /// match.
    pub(crate) fn find(&self, entry: u32, op: &Operation) -> Option<Value> {
        self.window
            .get(self.counter)?
            .updates()
            .iter()
            .find(|u| u.is(entry, op))
            .map(Update::returned)
    }

    /// Record that this packet induced `op` on `entry`, answered with
    /// `returned`.
    pub(crate) fn record(self, entry: u32, op: &Operation, returned: &Value) {
        let update = Update::new(entry, op, returned);
        let held = match self.window.cell(self.counter) {
            Some(slot) => {
                slot.push(update);
                slot.len()
            }
            empty => {
                *empty = Some(Slot::One(update));
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

    /// Per root id, the counters its window spans (the cells it pays for).
    pub(crate) fn spans(&self) -> impl Iterator<Item = u64> + '_ {
        self.roots.iter().map(CounterWindow::span)
    }

    /// The place of `clock`'s packet in the log.
    #[inline]
    pub(crate) fn packet(&mut self, clock: Clock) -> PacketSlot<'_> {
        let root = clock.root() as usize;
        if root >= self.roots.len() {
            self.roots.resize_with(root + 1, CounterWindow::new);
        }
        PacketSlot {
            window: &mut self.roots[root],
            counter: clock.counter(),
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

    /// Drop everything `clock` induced: one cell, one map entry.
    pub(crate) fn forget_clock(&mut self, clock: Clock) {
        let window = self.roots.get_mut(clock.root() as usize);
        if let Some(slot) = window.and_then(|w| w.take(clock.counter())) {
            self.updates -= slot.len();
        }
        self.nondet.remove(&order(clock));
    }

    /// Drop every packet whose counter is below `floor`, whichever root
    /// stamped it: a prefix of every window.
    pub(crate) fn forget_below(&mut self, floor: u64) {
        let updates = &mut self.updates;
        for window in &mut self.roots {
            window.pop_below(floor, |slot| *updates -= slot.len());
        }
        while let Some(first) = self.nondet.first_entry().filter(|e| e.key().0 < floor) {
            first.remove();
        }
    }

    /// Every retained packet with its clock, counter-major across roots: a
    /// merge of the roots' windows, each already in counter order.
    fn packets(&self) -> impl Iterator<Item = (Clock, &Slot)> {
        let mut windows: Vec<_> = self.roots.iter().map(|w| w.iter().peekable()).collect();
        std::iter::from_fn(move || {
            let (_, root) = windows
                .iter_mut()
                .enumerate()
                .filter_map(|(root, w)| Some((w.peek()?.0, root)))
                .min()?;
            let (counter, slot) = windows[root].next()?;
            Some((Clock::with_root(root as u8, counter), slot))
        })
    }

    /// Every logged non-deterministic value as `(clock, slot, value)`.
    fn nondet_iter(&self) -> impl Iterator<Item = (Clock, u32, &Value)> {
        self.nondet
            .iter()
            .flat_map(|(k, values)| values.iter().map(|(s, v)| (clock_of(*k), *s, v)))
    }

    /// The log as a checkpoint image writes it: the update count, then
    /// every update as `(clock, entry id, operation, returned)`, packets in
    /// counter-major order; then the non-deterministic values as `(clock,
    /// slot, value)`, in the same order.
    pub(crate) fn encode(&self, e: &mut Enc<'_>) {
        e.u32(self.updates as u32);
        for (clock, slot) in self.packets() {
            for update in slot.updates() {
                e.u64(clock.0);
                e.u32(update.entry());
                update.encode(e);
            }
        }
        e.u32(self.nondet.values().map(Vec::len).sum::<usize>() as u32);
        for (clock, slot, value) in self.nondet_iter() {
            e.u64(clock.0);
            e.u32(slot);
            e.value(value);
        }
    }

    /// The log [`DedupLog::encode`] wrote, for a store of `entries` objects:
    /// `None` if an update names an entry id outside it.
    pub(crate) fn decode(d: &mut Dec<'_>, entries: usize) -> Option<DedupLog> {
        let mut log = DedupLog::default();
        for _ in 0..d.u32()? {
            let clock = Clock(d.u64()?);
            let entry = d.u32()?;
            if entry as usize >= entries {
                return None;
            }
            let (op, returned) = (d.operation()?, d.value()?);
            log.packet(clock).record(entry, &op, &returned);
        }
        for _ in 0..d.u32()? {
            log.nondet_value(Clock(d.u64()?), d.u32()?, d.value()?);
        }
        Some(log)
    }

    /// Drop the update log (a restore from a Figure-7 checkpoint rebuilds it
    /// from the NF-side logs); logged non-determinism stays.
    pub(crate) fn clear_updates(&mut self) {
        self.roots.iter_mut().for_each(CounterWindow::clear);
        self.updates = 0;
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
        // A second and a third update of one packet (the third spills),
        // and one that is not a counter.
        log.packet(Clock::with_root(0, 3))
            .record(7, &incr(2), &Value::Int(9));
        log.packet(Clock::with_root(0, 3))
            .record(9, &incr(1), &Value::Int(1));
        log.packet(Clock::with_root(0, 4))
            .record(8, &Operation::PopFront, &Value::None);
        assert_eq!(log.len(), 11);
        assert_eq!(log.widest_slot(), 3);
        let find = |log: &mut DedupLog, root: u8, c: u64, entry: u32, op: &Operation| {
            log.packet(Clock::with_root(root, c)).find(entry, op)
        };
        // Below 3 means counters 1 and 2 of both roots.
        log.forget_below(3);
        assert_eq!(log.len(), 7);
        assert_eq!(find(&mut log, 1, 2, 7, &incr(1)), None);
        assert_eq!(find(&mut log, 1, 3, 7, &incr(1)), Some(Value::Int(3)));
        // Same object and clock, different operation: its own record.
        assert_eq!(find(&mut log, 0, 3, 7, &incr(2)), Some(Value::Int(9)));
        assert_eq!(find(&mut log, 0, 3, 9, &incr(1)), Some(Value::Int(1)));
        assert_eq!(find(&mut log, 0, 3, 8, &incr(2)), None);
        assert_eq!(
            find(&mut log, 0, 4, 8, &Operation::PopFront),
            Some(Value::None)
        );
        // Asking is not recording.
        assert_eq!(log.len(), 7);
        log.forget_clock(Clock::with_root(0, 3));
        assert_eq!(log.len(), 4);
        // The top of the counter range clears the log.
        log.forget_below(u64::MAX);
        assert_eq!(log.len(), 0);
        assert_eq!(log.packets().count(), 0);
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

    /// One increment logged for each clock, returning the counter.
    fn logged(clocks: &[Clock]) -> DedupLog {
        let mut log = DedupLog::default();
        for &clock in clocks {
            let counter = clock.counter() as i64;
            log.packet(clock).record(1, &incr(1), &Value::Int(counter));
        }
        log
    }

    fn clocks(log: &DedupLog) -> Vec<Clock> {
        log.packets().map(|(clock, _)| clock).collect()
    }

    fn found(log: &mut DedupLog, clock: Clock) -> Option<Value> {
        log.packet(clock).find(1, &incr(1))
    }

    #[test]
    #[cfg(target_pointer_width = "64")]
    fn a_cell_is_48_bytes() {
        // What the module documentation charges per counter and root: two
        // 24-byte updates inline, the spill vector sharing their space.
        assert_eq!(std::mem::size_of::<Update>(), 24);
        assert_eq!(std::mem::size_of::<Option<Slot>>(), 48);
    }

    #[test]
    fn a_clock_below_the_window_grows_its_front() {
        let at = |c| Clock::with_root(0, c);
        let mut log = logged(&[at(50), at(51), at(48)]);
        assert_eq!(log.spans().collect::<Vec<_>>(), [4]);
        assert_eq!(clocks(&log), [at(48), at(50), at(51)]);
        assert_eq!(found(&mut log, at(48)), Some(Value::Int(48)));
        assert_eq!(found(&mut log, at(49)), None);
        // Asking about a clock further down grows nothing.
        assert_eq!(found(&mut log, at(2)), None);
        assert_eq!(log.spans().sum::<u64>(), 4);
    }

    #[test]
    fn a_gap_of_ten_thousand_counters_is_spanned_and_popped() {
        let at = |c| Clock::with_root(0, c);
        let mut log = logged(&[at(1), at(10_001)]);
        assert_eq!((log.len(), log.spans().sum::<u64>()), (2, 10_001));
        assert_eq!(found(&mut log, at(5_000)), None);
        assert_eq!(found(&mut log, at(10_001)), Some(Value::Int(10_001)));
        // Popping the low end sheds the empty gap with it.
        log.forget_below(2);
        assert_eq!((log.len(), log.spans().sum::<u64>()), (1, 1));
        assert_eq!(clocks(&log), [at(10_001)]);
    }

    #[test]
    fn interleaved_roots_iterate_in_the_counter_major_order() {
        let drawn: Vec<Clock> = [(1, 7), (0, 9), (1, 3), (0, 3), (2, 8), (0, 1), (1, 9)]
            .into_iter()
            .map(|(root, c)| Clock::with_root(root, c))
            .collect();
        let log = logged(&drawn);
        // Counter-major, as checkpoint images write it: the
        // counter bits rotated above the root bits.
        let mut tree_order = drawn.clone();
        tree_order.sort_by_key(|c| c.0.rotate_left(Clock::ROOT_BITS));
        assert_eq!(clocks(&log), tree_order);
        assert_eq!(log.spans().collect::<Vec<_>>(), [9, 7, 1]);
    }

    #[test]
    fn forgetting_a_clock_outside_the_window_changes_nothing() {
        let at = |root, c| Clock::with_root(root, c);
        let mut log = logged(&[at(0, 10), at(0, 12)]);
        for outside in [
            at(0, 9),
            at(0, 11),
            at(0, 13),
            at(0, 0),
            at(1, 10),
            at(7, 12),
        ] {
            log.forget_clock(outside);
        }
        assert_eq!((log.len(), log.spans().sum::<u64>()), (2, 3));
        // Forgetting the bottom sheds it and the empty cell above it.
        log.forget_clock(at(0, 10));
        assert_eq!((log.len(), log.spans().sum::<u64>()), (1, 1));
        assert_eq!(clocks(&log), [at(0, 12)]);
    }

    #[test]
    fn a_floor_between_two_roots_windows_empties_one_and_keeps_the_other() {
        let at = |root, c| Clock::with_root(root, c);
        let mut log = logged(&[at(0, 1), at(0, 2), at(0, 3), at(1, 20), at(1, 21)]);
        log.forget_below(10);
        assert_eq!(log.len(), 2);
        assert_eq!(log.spans().collect::<Vec<_>>(), [0, 2]);
        assert_eq!(clocks(&log), [at(1, 20), at(1, 21)]);
        // An emptied window restarts wherever its root's next packet lands.
        log.packet(at(0, 40)).record(1, &incr(1), &Value::Int(40));
        assert_eq!(log.spans().collect::<Vec<_>>(), [1, 2]);
    }

    #[test]
    fn the_top_of_the_counter_range_empties_every_window() {
        let at = |root, c| Clock::with_root(root, c);
        let mut log = logged(&[at(0, 1), at(3, 1 << 40), at(1, (1 << 56) - 1)]);
        log.nondet_value(at(2, 5), 0, Value::Int(1));
        log.forget_below(u64::MAX);
        assert_eq!((log.len(), log.spans().sum::<u64>()), (0, 0));
        assert_eq!((log.packets().count(), log.nondet_iter().count()), (0, 0));
    }
}
