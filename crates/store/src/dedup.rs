//! The duplicate-suppression log (§5.3), indexed by clock counter.
//!
//! A store instance remembers, for every packet that may still be replayed,
//! the updates that packet already induced and what each returned, so a
//! re-issued update is *emulated* instead of applied twice. Per root id the
//! log is a [`CounterWindow`] of 8-byte heads, one per clock counter: finding
//! a packet's updates is one subtraction and one read. The updates
//! themselves sit in one ring shared by every root, 32 bytes each, in the
//! order they were recorded, a packet's chained from its first; each names
//! its object by the store's dense entry id rather than by a copy of the
//! key.
//!
//! Nothing below the **replay floor** is kept: once no packet log can
//! replay a clock, its updates are dead weight. [`DedupLog::forget_below`]
//! pops that prefix of every root's window, and the ring frees its oldest
//! updates up to the first one still held: one comparison per update, no
//! packet walked. [`DedupLog::forget_clock`] takes one packet's head (the
//! simulator root's per-packet delete) and marks its updates, which the
//! ring frees once they are its oldest.
//!
//! The counters are dense by construction — the root hands out `1..=N` —
//! so a window's span, from the lowest to the highest counter it holds, is
//! the packets still replayable and nothing else. Resident memory is one
//! 8-byte head per counter in that span and per root, rounded up to a power
//! of two, whether or not the packet touched this shard, plus one 32-byte
//! ring cell per update from the oldest held to the newest, rounded up to a
//! power of two. A packet's updates arrive in about counter order, so the
//! ring holds little besides what is held; once it is warm an update
//! allocates nothing, however many a packet holds. An update whose
//! operation and answer are integers — increments, decrements, pushes and
//! pops of integers, an integer set — is held in its cell; any other keeps
//! its `(Operation, Value)` in a side table whose slots are reused too, so
//! only the values it clones allocate. Sequence numbers count modulo 2^32,
//! and the ring holds at most 2^31 updates at once (64 GiB of cells).
//! [`DedupLog::spans`] reports the heads, [`DedupLog::len`] the updates.
//! Logged non-deterministic values are rare and keep a small ordered map
//! of their own.

use crate::backend::codec::{Dec, Enc};
use crate::key::Clock;
use crate::ops::Operation;
use crate::value::Value;
use crate::window::CounterWindow;
use std::collections::BTreeMap;
use std::num::NonZeroU32;

/// What a logged update applied. The integer kinds keep their argument in
/// [`Update::arg`] and their integer answer in [`Update::returned`];
/// [`Kind::Other`] keeps the index of its `(Operation, Value)` in
/// [`UpdateRing::others`] in `arg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Increment,
    Decrement,
    Set,
    PushBack,
    PushFront,
    PopFront,
    PopBack,
    Other,
}

impl Kind {
    /// In discriminant order, to read a kind back from its byte.
    const ALL: [Kind; 8] = [
        Kind::Increment,
        Kind::Decrement,
        Kind::Set,
        Kind::PushBack,
        Kind::PushFront,
        Kind::PopFront,
        Kind::PopBack,
        Kind::Other,
    ];

    /// The integer kind of `op` and its argument, if `op` takes an integer
    /// or nothing.
    #[inline]
    fn of(op: &Operation) -> Option<(Kind, i64)> {
        Some(match op {
            Operation::Increment(d) => (Kind::Increment, *d),
            Operation::Decrement(d) => (Kind::Decrement, *d),
            Operation::Set(Value::Int(v)) => (Kind::Set, *v),
            Operation::PushBack(Value::Int(v)) => (Kind::PushBack, *v),
            Operation::PushFront(Value::Int(v)) => (Kind::PushFront, *v),
            Operation::PopFront => (Kind::PopFront, 0),
            Operation::PopBack => (Kind::PopBack, 0),
            _ => return None,
        })
    }

    /// The operation an integer kind logged with `arg`; `None` for
    /// [`Kind::Other`].
    fn operation(self, arg: i64) -> Option<Operation> {
        Some(match self {
            Kind::Increment => Operation::Increment(arg),
            Kind::Decrement => Operation::Decrement(arg),
            Kind::Set => Operation::Set(Value::Int(arg)),
            Kind::PushBack => Operation::PushBack(Value::Int(arg)),
            Kind::PushFront => Operation::PushFront(Value::Int(arg)),
            Kind::PopFront => Operation::PopFront,
            Kind::PopBack => Operation::PopBack,
            Kind::Other => return None,
        })
    }
}

/// The high bits of [`Update::tag`] hold the kind, the low ones the counter.
const KIND_SHIFT: u32 = 56;
const COUNTER_MASK: u64 = (1 << KIND_SHIFT) - 1;
/// The kind byte of an update that was forgotten before it was freed.
const FORGOTTEN: u64 = 0xff;

/// One logged update, in 32 bytes: its packet's clock counter and its kind,
/// which object (dense entry id), what it applied and answered, and where
/// the packet's next update sits.
#[derive(Debug, Clone, Copy)]
struct Update {
    /// The counter in the low 56 bits, the [`Kind`] (or [`FORGOTTEN`]) above.
    tag: u64,
    entry: u32,
    /// How many sequence numbers further on the packet's next update sits;
    /// 0 for none.
    next: u32,
    arg: i64,
    returned: i64,
}

impl Update {
    /// What a cell of a new ring holds until an update is recorded there.
    const EMPTY: Update = Update {
        tag: 0,
        entry: 0,
        next: 0,
        arg: 0,
        returned: 0,
    };

    fn kind(&self) -> Kind {
        Kind::ALL[(self.tag >> KIND_SHIFT) as usize]
    }

    fn counter(&self) -> u64 {
        self.tag & COUNTER_MASK
    }

    fn forgotten(&self) -> bool {
        self.tag >> KIND_SHIFT == FORGOTTEN
    }
}

/// A packet's updates here: where the first sits and how many there are.
#[derive(Debug, Clone, Copy)]
struct Head {
    first: u32,
    count: NonZeroU32,
}

/// Every root's updates in the order they were recorded, in a ring of
/// power-of-two length: sequence number `s` (counted modulo 2^32) sits at
/// `s & (len − 1)`. An update is freed from the oldest end once its packet
/// fell below the floor or was forgotten, so freeing costs one comparison
/// per update and never walks a packet.
#[derive(Debug, Clone, Default)]
struct UpdateRing {
    cells: Vec<Update>,
    /// The oldest update not yet freed, and the next to be recorded.
    oldest: u32,
    next: u32,
    /// The operation and answer of each [`Kind::Other`] update, at the slot
    /// its `arg` names; a freed slot is reset and reused.
    others: Vec<(Operation, Value)>,
    free_others: Vec<u32>,
}

impl UpdateRing {
    #[inline]
    fn get(&self, seq: u32) -> &Update {
        &self.cells[seq as usize & (self.cells.len() - 1)]
    }

    #[inline]
    fn get_mut(&mut self, seq: u32) -> &mut Update {
        let mask = self.cells.len() - 1;
        &mut self.cells[seq as usize & mask]
    }

    /// A packet's updates, from its first, in the order they were recorded,
    /// with their sequence numbers.
    fn chain(&self, head: Head) -> impl Iterator<Item = (u32, &Update)> {
        let mut at = head.first;
        (0..head.count.get()).map(move |_| {
            let seq = at;
            let update = self.get(seq);
            at = seq.wrapping_add(update.next);
            (seq, update)
        })
    }

    /// Whether `update` logged `op`.
    #[inline]
    fn logged_op(&self, update: &Update, op: &Operation) -> bool {
        match update.kind() {
            Kind::Other => self.others[update.arg as usize].0 == *op,
            kind => Kind::of(op) == Some((kind, update.arg)),
        }
    }

    /// What `update` answered.
    fn returned(&self, update: &Update) -> Value {
        match update.kind() {
            Kind::Other => self.others[update.arg as usize].1.clone(),
            _ => Value::Int(update.returned),
        }
    }

    /// Record the update of the packet with `counter` as the newest; its
    /// sequence number.
    #[inline]
    fn push(&mut self, counter: u64, entry: u32, op: &Operation, returned: &Value) -> u32 {
        let (kind, arg, returned) = match (Kind::of(op), returned) {
            (Some((kind, arg)), Value::Int(returned)) => (kind, arg, *returned),
            _ => (Kind::Other, i64::from(self.keep_other(op, returned)), 0),
        };
        if self.next.wrapping_sub(self.oldest) as usize == self.cells.len() {
            self.grow();
        }
        let seq = self.next;
        *self.get_mut(seq) = Update {
            tag: counter | (kind as u64) << KIND_SHIFT,
            entry,
            next: 0,
            arg,
            returned,
        };
        self.next = seq.wrapping_add(1);
        seq
    }

    /// Double the ring, moving every update not yet freed into a new one.
    /// (Lengthening it in place put `steady`'s `peak_rss_mb` up 5 %.)
    #[cold]
    fn grow(&mut self) {
        let len = (self.cells.len() * 2).max(64);
        assert!(
            len <= 1 << 31,
            "the duplicate-suppression log holds at most 2^31 updates at once"
        );
        let mut cells = vec![Update::EMPTY; len];
        let mut seq = self.oldest;
        while seq != self.next {
            cells[seq as usize & (len - 1)] = *self.get(seq);
            seq = seq.wrapping_add(1);
        }
        self.cells = cells;
    }

    /// The side slot of an update that is not an integer one.
    #[cold]
    fn keep_other(&mut self, op: &Operation, returned: &Value) -> u32 {
        let logged = (op.clone(), returned.clone());
        match self.free_others.pop() {
            Some(slot) => {
                self.others[slot as usize] = logged;
                slot
            }
            None => {
                self.others.push(logged);
                self.others.len() as u32 - 1
            }
        }
    }

    /// Mark a packet's updates forgotten, to be freed when they are the
    /// oldest.
    fn forget(&mut self, head: Head) {
        let mut at = head.first;
        for _ in 0..head.count.get() {
            let update = *self.get(at);
            if update.kind() == Kind::Other {
                self.free_other(update.arg as u32);
            }
            self.get_mut(at).tag = FORGOTTEN << KIND_SHIFT;
            at = at.wrapping_add(update.next);
        }
    }

    fn free_other(&mut self, slot: u32) {
        self.others[slot as usize] = (Operation::Get, Value::None);
        self.free_others.push(slot);
    }

    /// Free the oldest updates up to the first one still held: its
    /// packet's counter is `floor` or above and it was not forgotten.
    fn free_below(&mut self, floor: u64) {
        while self.oldest != self.next {
            let update = *self.get(self.oldest);
            if !update.forgotten() {
                if update.counter() >= floor {
                    break;
                }
                if update.kind() == Kind::Other {
                    self.free_other(update.arg as u32);
                }
            }
            self.oldest = self.oldest.wrapping_add(1);
        }
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
    /// Per root id, each packet's updates by clock counter; grown on first
    /// use.
    roots: Vec<CounterWindow<Head>>,
    updates: UpdateRing,
    /// The floor of the last [`DedupLog::forget_below`].
    floor: u64,
    /// Updates held, so `len()` is O(1).
    held: usize,
    /// Most updates any single packet has held here (sizes the sentinel's
    /// bound on the log).
    widest: usize,
    /// Logged non-deterministic values per packet and slot (Appendix A),
    /// forgotten with their packet.
    nondet: BTreeMap<Order, Vec<(u32, Value)>>,
}

/// One packet's place in the log, found with one window read: an apply
/// first asks it whether the update is a duplicate and, if not, records the
/// update there. Asking grows nothing.
pub(crate) struct PacketSlot<'a> {
    log: &'a mut DedupLog,
    root: usize,
    counter: u64,
    /// The packet's updates here, if it has any.
    head: Option<Head>,
}

impl PacketSlot<'_> {
    /// What `op` on `entry` returned when this packet first induced it, if
    /// that is on record. A packet may issue several different updates
    /// against one object (seeding a list), so the operation is part of the
    /// match.
    pub(crate) fn find(&self, entry: u32, op: &Operation) -> Option<Value> {
        let (updates, head) = (&self.log.updates, self.head?);
        let mut at = head.first;
        for _ in 0..head.count.get() {
            let update = updates.get(at);
            if update.entry == entry && updates.logged_op(update, op) {
                return Some(updates.returned(update));
            }
            at = at.wrapping_add(update.next);
        }
        None
    }

    /// Record that this packet induced `op` on `entry`, answered with
    /// `returned`, after its last update here.
    pub(crate) fn record(self, entry: u32, op: &Operation, returned: &Value) {
        let log = self.log;
        let new = log.updates.push(self.counter, entry, op, returned);
        log.held += 1;
        let window = &mut log.roots[self.root];
        let Some(head) = self.head else {
            let count = NonZeroU32::MIN;
            *window.cell(self.counter) = Some(Head { first: new, count });
            log.widest = log.widest.max(1);
            return;
        };
        let mut last = head.first;
        for _ in 1..head.count.get() {
            last = last.wrapping_add(log.updates.get(last).next);
        }
        log.updates.get_mut(last).next = new.wrapping_sub(last);
        let count = head.count.saturating_add(1);
        if let Some(held) = window.get_mut(self.counter) {
            *held = Head { count, ..head };
        }
        log.widest = log.widest.max(count.get() as usize);
    }
}

impl DedupLog {
    /// Updates currently retained.
    pub(crate) fn len(&self) -> usize {
        self.held
    }

    /// Most updates one packet has held in this log so far.
    pub(crate) fn widest_slot(&self) -> usize {
        self.widest
    }

    /// Per root id, the counters its window spans (the heads it pays for).
    pub(crate) fn spans(&self) -> impl Iterator<Item = u64> + '_ {
        self.roots.iter().map(CounterWindow::span)
    }

    /// The place of `clock`'s packet in the log.
    #[inline]
    pub(crate) fn packet(&mut self, clock: Clock) -> PacketSlot<'_> {
        let root = clock.root() as usize;
        let head = match self.roots.get(root) {
            Some(window) => window.get(clock.counter()).copied(),
            None => {
                self.roots.resize_with(root + 1, CounterWindow::new);
                None
            }
        };
        PacketSlot {
            log: self,
            root,
            counter: clock.counter(),
            head,
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

    /// Drop everything `clock` induced: one packet's updates, one map entry.
    pub(crate) fn forget_clock(&mut self, clock: Clock) {
        let window = self.roots.get_mut(clock.root() as usize);
        if let Some(head) = window.and_then(|w| w.take(clock.counter())) {
            self.held -= head.count.get() as usize;
            self.updates.forget(head);
            self.updates.free_below(self.floor);
        }
        self.nondet.remove(&order(clock));
    }

    /// Drop every packet whose counter is below `floor`, whichever root
    /// stamped it: a prefix of every window, and of the update ring up to its
    /// first update still held.
    pub(crate) fn forget_below(&mut self, floor: u64) {
        let held = &mut self.held;
        for window in &mut self.roots {
            window.pop_below(floor, |head| *held -= head.count.get() as usize);
        }
        self.floor = self.floor.max(floor);
        self.updates.free_below(self.floor);
        while let Some(first) = self.nondet.first_entry().filter(|e| e.key().0 < floor) {
            first.remove();
        }
    }

    /// Every retained packet with its clock and first update, counter-major
    /// across roots: a merge of the roots' windows, each already in counter
    /// order.
    fn packets(&self) -> impl Iterator<Item = (Clock, Head)> + '_ {
        let mut windows: Vec<_> = self.roots.iter().map(|w| w.iter().peekable()).collect();
        std::iter::from_fn(move || {
            let (_, root) = windows
                .iter_mut()
                .enumerate()
                .filter_map(|(root, w)| Some((w.peek()?.0, root)))
                .min()?;
            let (counter, head) = windows[root].next()?;
            Some((Clock::with_root(root as u8, counter), *head))
        })
    }

    /// Every logged non-deterministic value as `(clock, slot, value)`.
    fn nondet_iter(&self) -> impl Iterator<Item = (Clock, u32, &Value)> {
        self.nondet
            .iter()
            .flat_map(|(k, values)| values.iter().map(|(s, v)| (clock_of(*k), *s, v)))
    }

    /// The log as a checkpoint image writes it: the packet count, then
    /// each packet in counter-major order as its clock and its update count,
    /// and each of its updates, in the order they were recorded, as its
    /// entry id, its kind and, for an integer kind, the argument (but for a
    /// pop) and the answer, zigzagged; for any other, the operation and the
    /// value. Counts and numbers are varints, so a counter's increment is
    /// five to seven bytes. Then the non-deterministic values as `(clock,
    /// slot, value)`, in the same order.
    pub(crate) fn encode(&self, e: &mut Enc<'_>) {
        e.u32(self.packets().count() as u32);
        for (clock, head) in self.packets() {
            e.u64(clock.0);
            e.varint(u64::from(head.count.get()));
            for (_, update) in self.updates.chain(head) {
                e.varint(u64::from(update.entry));
                let kind = update.kind();
                e.u8(kind as u8);
                match kind {
                    Kind::Other => {
                        let (op, returned) = &self.updates.others[update.arg as usize];
                        e.operation(op);
                        e.value(returned);
                    }
                    Kind::PopFront | Kind::PopBack => e.varint(zigzag(update.returned)),
                    _ => {
                        e.varint(zigzag(update.arg));
                        e.varint(zigzag(update.returned));
                    }
                }
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
    /// `None` if an update names an entry id outside it, or a packet holds
    /// no update.
    pub(crate) fn decode(d: &mut Dec<'_>, entries: usize) -> Option<DedupLog> {
        let mut log = DedupLog::default();
        for _ in 0..d.u32()? {
            let clock = Clock(d.u64()?);
            for _ in 0..d.varint().filter(|&n| n > 0)? {
                let entry = u32::try_from(d.varint()?).ok()?;
                if entry as usize >= entries {
                    return None;
                }
                let kind = *Kind::ALL.get(usize::from(d.u8()?))?;
                let int = |d: &mut Dec<'_>| d.varint().map(|v| Value::Int(unzigzag(v)));
                let (op, returned) = match kind {
                    Kind::Other => (d.operation()?, d.value()?),
                    Kind::PopFront | Kind::PopBack => (kind.operation(0)?, int(d)?),
                    _ => (kind.operation(unzigzag(d.varint()?))?, int(d)?),
                };
                log.packet(clock).record(entry, &op, &returned);
            }
        }
        for _ in 0..d.u32()? {
            log.nondet_value(Clock(d.u64()?), d.u32()?, d.value()?);
        }
        Some(log)
    }
}

/// An `i64` as a `u64` whose small magnitudes are small: 0, -1, 1, -2, …
/// map to 0, 1, 2, 3, ….
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

fn unzigzag(v: u64) -> i64 {
    (v >> 1) as i64 ^ -((v & 1) as i64)
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
        // A second and a third update of one packet, and one that is not a
        // counter.
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
    fn a_head_is_8_bytes_and_an_update_32() {
        // What the module documentation charges: a head per counter and
        // root, a ring cell per update.
        assert_eq!(std::mem::size_of::<Option<Head>>(), 8);
        assert_eq!(std::mem::size_of::<Update>(), 32);
    }

    #[test]
    fn freed_cells_are_reused_and_non_integer_updates_keep_their_values() {
        let at = |c| Clock::with_root(0, c);
        let mut log = DedupLog::default();
        // Five updates of one packet, two of them not integers.
        let list = Operation::PushBack(Value::list_of_ints([1, 2]));
        let ops = [
            (incr(3), Value::Int(3)),
            (Operation::Decrement(1), Value::Int(2)),
            (list.clone(), Value::Int(1)),
            (Operation::PopFront, Value::None),
            (Operation::Set(Value::Int(7)), Value::Int(7)),
        ];
        for (op, returned) in &ops {
            log.packet(at(1)).record(4, op, returned);
        }
        assert_eq!((log.len(), log.widest_slot()), (5, 5));
        for (op, returned) in &ops {
            assert_eq!(log.packet(at(1)).find(4, op).as_ref(), Some(returned));
        }
        assert_eq!(log.packet(at(1)).find(4, &Operation::Decrement(2)), None);
        assert_eq!(log.packet(at(1)).find(5, &incr(3)), None);
        log.forget_clock(at(1));
        assert_eq!(log.len(), 0);
        // The next packet takes the freed cells and side slots: nothing grows.
        let (cells, others) = (log.updates.cells.len(), log.updates.others.len());
        for (op, returned) in &ops {
            log.packet(at(2)).record(4, op, returned);
        }
        assert_eq!(
            (log.updates.cells.len(), log.updates.others.len()),
            (cells, others)
        );
        assert_eq!(log.packet(at(2)).find(4, &list), Some(Value::Int(1)));
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

    #[test]
    fn an_update_behind_a_newer_packet_leaves_the_count_at_once_and_the_ring_later() {
        let at = |c| Clock::with_root(0, c);
        // Recorded out of counter order, as two vertices' drains interleave.
        let mut log = logged(&[at(10), at(5), at(6)]);
        log.forget_below(8);
        assert_eq!((log.len(), clocks(&log)), (1, vec![at(10)]));
        // 5 and 6 sit behind 10 in the ring until 10 is freed too.
        assert_eq!(log.updates.next.wrapping_sub(log.updates.oldest), 3);
        assert_eq!(found(&mut log, at(10)), Some(Value::Int(10)));
        log.forget_below(11);
        assert_eq!(
            (log.len(), log.updates.next.wrapping_sub(log.updates.oldest)),
            (0, 0)
        );
        // A forgotten packet is freed once it is the oldest.
        let mut log = logged(&[at(1), at(2), at(3)]);
        log.forget_clock(at(2));
        assert_eq!(
            (log.len(), log.updates.next.wrapping_sub(log.updates.oldest)),
            (2, 3)
        );
        log.forget_clock(at(1));
        assert_eq!(
            (log.len(), log.updates.next.wrapping_sub(log.updates.oldest)),
            (1, 1)
        );
        assert_eq!(found(&mut log, at(3)), Some(Value::Int(3)));
    }

    #[test]
    fn sequence_numbers_wrap_around_the_ring_and_past_u32_max() {
        let at = |c| Clock::with_root(0, c);
        let mut log = DedupLog::default();
        (log.updates.oldest, log.updates.next) = (u32::MAX - 40, u32::MAX - 40);
        // Two updates a packet, as the NAT's two counters, past the wrap
        // of the sequence numbers and through two growths of the ring.
        for entry in 0..2 {
            for c in 1..=100 {
                log.packet(at(c))
                    .record(entry, &incr(1), &Value::Int(c as i64));
            }
        }
        assert!(log.updates.next < log.updates.oldest, "wrapped");
        assert_eq!((log.len(), log.widest_slot()), (200, 2));
        for c in [1, 50, 100] {
            assert_eq!(
                log.packet(at(c)).find(1, &incr(1)),
                Some(Value::Int(c as i64))
            );
        }
        let encode = |log: &DedupLog| {
            let mut buf = Vec::new();
            log.encode(&mut Enc::reuse(&mut buf));
            buf
        };
        let image = encode(&log);
        let payload = &image[crate::backend::codec::FRAME_HEADER..];
        let decoded = DedupLog::decode(&mut Dec::new(payload), 2).expect("decodes");
        assert_eq!(encode(&decoded), image);
        log.forget_below(101);
        assert_eq!(
            (log.len(), log.updates.next.wrapping_sub(log.updates.oldest)),
            (0, 0)
        );
    }
}
