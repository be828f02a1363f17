//! Per-vertex output logging and the runtime port of the per-packet XOR
//! delete protocol (§5, Figure 6; FTMB-style output logging per PAPERS.md).
//!
//! The root's [`crate::PacketLog`] can only restore packets at the chain
//! *entry*; a replay injected there is eaten by upstream duplicate
//! suppression before it reaches a mid-chain or tail replacement. Closing
//! that gap needs two things, both of which live here:
//!
//! - [`VertexLogs`]: one table of bounded [`crate::PacketLog`]s keyed by the
//!   vertex that writes them. The root is the chain's first logging vertex
//!   (its injection log sits under [`ROOT_VERTEX`]); every other *armed*
//!   vertex (an upstream of some vertex the fault plan may kill) logs its
//!   egress stream. The supervisor replays from the logs of the killed
//!   vertex's upstreams, so replayed packets enter the chain at the right
//!   depth. Each log is a window of pages indexed by clock counter, so
//!   logging a packet writes one cell and a truncation or XOR sweep walks
//!   pages in place (see [`crate::PacketLog`]).
//! - [`XorDeleteLedger`]: Figure 6's commit vector, on both substrates. On
//!   the engine each logging vertex folds a per-packet [`delete_token`] into
//!   both the packet envelope (`TaggedPacket::xor_vector`) and the ledger;
//!   the sink delivers the envelope's vector back. A counter *delivered with
//!   zero residue* is confirmed end-to-end: the logs may delete it, and a
//!   tail replacement may skip re-emitting it — bounding the re-delivery
//!   window of a tail kill to the unconfirmed suffix.

use crate::message::TaggedPacket;
use crate::root::ROOT_VERTEX;
use crate::rootlog::PacketLog;
use chc_store::{CounterWindow, InstanceId, VertexId};
use std::sync::{Mutex, MutexGuard};

/// A nonzero XOR delete token for one logged egress packet.
///
/// The simulator's [`crate::message::xor_token`] keys tokens by state object;
/// the runtime protocol tokens the *logged packet itself*, so the token mixes
/// the logging instance with the packet's clock counter. Bit 15 is forced so
/// the token can never be zero (a zero token would make the fold a no-op and
/// a forged "confirmed" indistinguishable from a real one).
pub fn delete_token(instance: InstanceId, counter: u64) -> u32 {
    let low = ((counter as u32) ^ (counter >> 32) as u32) & 0x7fff;
    ((instance.0 & 0xffff) << 16) | low | 0x8000
}

const DELIVERED: u64 = 1 << 63;

/// A cell's residue, if its counter is delivered.
fn delivered(cell: u64) -> Option<u32> {
    (cell & DELIVERED != 0).then_some(cell as u32)
}

fn dirty(cell: u64) -> bool {
    delivered(cell).is_some_and(|residue| residue != 0)
}

/// One cell per clock counter in flight, in a [`CounterWindow`]: bit 63
/// records that the counter is *delivered* (the engine's sink has its first
/// copy, the simulator's root its delete request), the low 32 bits XOR
/// delete tokens. A counter is *confirmed* once delivered and *deletable*
/// once delivered with zero residue; delivered with nonzero residue, it is
/// a protocol violation the sentinel reports. Cells are dropped one by one
/// and below a floor that only rises; a dropped counter answers as not
/// delivered, and folds at or below the floor are ignored.
#[derive(Debug, Default)]
pub struct XorDeleteLedger {
    cells: CounterWindow<u64>,
    /// Counters below it were released.
    start: u64,
    held: usize,
    high_water: usize,
    released_dirty: u64,
}

impl XorDeleteLedger {
    fn edit(&mut self, counter: u64, edit: impl FnOnce(&mut u64)) {
        if counter < self.start {
            return;
        }
        let cell = self.cells.cell(counter);
        if cell.is_none() {
            self.held += 1;
            self.high_water = self.high_water.max(self.held);
        }
        edit(cell.get_or_insert(0));
    }

    /// Fold the `token` a logging vertex or the store issued for the
    /// counter into its residue.
    pub fn fold(&mut self, counter: u64, token: u32) {
        self.edit(counter, |cell| *cell ^= u64::from(token));
    }

    /// The counter's packet reached its end carrying `vector`: fold the
    /// vector back out and mark the counter delivered. A repeat carries the
    /// same tokens again, so it replaces the residue the first one left.
    pub fn deliver(&mut self, counter: u64, vector: u32) {
        self.edit(counter, |cell| {
            let residue = if *cell & DELIVERED == 0 { *cell } else { 0 };
            *cell = DELIVERED | (residue ^ u64::from(vector));
        });
    }

    fn residue(&self, counter: u64) -> Option<u32> {
        self.cells.get(counter).copied().and_then(delivered)
    }

    /// Whether the counter is delivered.
    pub fn confirmed(&self, counter: u64) -> bool {
        self.residue(counter).is_some()
    }

    /// Delivered with zero residue: safe to delete from every packet log.
    pub fn deletable(&self, counter: u64) -> bool {
        self.residue(counter) == Some(0)
    }

    /// Drop the counter's cell: a later fold or delivery starts it afresh.
    pub fn take(&mut self, counter: u64) {
        self.held -= usize::from(self.cells.take(counter).is_some());
    }

    /// Drop every deletable cell; how many went.
    pub fn sweep(&mut self) -> usize {
        let (before, held) = (self.held, &mut self.held);
        self.cells.retain(|&mut cell| {
            let swept = delivered(cell) == Some(0);
            *held -= usize::from(swept);
            !swept
        });
        before - self.held
    }

    /// Raise the floor to `floor` (never lower it), dropping every cell at
    /// or below it and counting the dirty ones.
    pub fn release_through(&mut self, floor: u64) {
        self.start = self.start.max(floor.saturating_add(1));
        let (held, released_dirty) = (&mut self.held, &mut self.released_dirty);
        self.cells.pop_below(self.start, |cell| {
            *held -= 1;
            *released_dirty += u64::from(dirty(cell));
        });
    }

    /// Delivered counters with nonzero residue, released or held.
    pub fn dirty_confirmed(&self) -> u64 {
        let held = self.cells.iter().filter(|&(_, &cell)| dirty(cell)).count();
        self.released_dirty + held as u64
    }

    /// Every counter with a cell, lowest first.
    pub fn counters(&self) -> impl Iterator<Item = u64> + '_ {
        self.cells.iter().map(|(counter, _)| counter)
    }

    /// The most cells held at once.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

/// Per-log statistics snapshot, surfaced through `FaultReport`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VertexLogStats {
    pub vertex: VertexId,
    pub high_water: usize,
    pub truncated: u64,
    pub deleted: u64,
    pub final_len: usize,
    pub rejected: u64,
}

/// The engine's packet logs, one table keyed by logging vertex: the root's
/// injection log under [`ROOT_VERTEX`] (always armed) plus one bounded egress
/// log per armed vertex. The table is fixed before the run starts; each log
/// has its own lock so logging vertices never contend with the root or with
/// each other. A run arms a few logs at most, so the table is a vector in id
/// order and a logging packet finds its log by a scan of it, not by a tree
/// or a hash.
#[derive(Debug)]
pub struct VertexLogs {
    logs: Vec<(VertexId, Mutex<PacketLog>)>,
}

impl VertexLogs {
    /// A table holding the root's log, of `root_capacity`, and nothing else.
    pub fn new(root_capacity: usize) -> VertexLogs {
        let root = Mutex::new(PacketLog::new(root_capacity));
        VertexLogs {
            logs: vec![(ROOT_VERTEX, root)],
        }
    }

    /// Arm `vertex` with its own egress log. Call before sharing the
    /// table; arming is not possible once the run starts.
    pub fn arm(&mut self, vertex: VertexId, capacity: usize) {
        if let Err(at) = self.logs.binary_search_by_key(&vertex, |(v, _)| *v) {
            let log = Mutex::new(PacketLog::new(capacity));
            self.logs.insert(at, (vertex, log));
        }
    }

    /// The log of `vertex` — [`ROOT_VERTEX`] for the root's — if armed.
    #[inline]
    pub fn log(&self, vertex: VertexId) -> Option<MutexGuard<'_, PacketLog>> {
        self.logs
            .iter()
            .find(|(v, _)| *v == vertex)
            .map(|(_, log)| lock(log))
    }

    /// Every logging vertex, in id order (so the root comes last).
    pub fn armed(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.logs.iter().map(|(v, _)| *v)
    }

    /// Every packet the logs of `sources` hold, merged in clock order: the
    /// replay stream for a vertex fed by those sources.
    pub fn snapshot(&self, sources: &[VertexId]) -> Vec<TaggedPacket> {
        let mut merged: Vec<TaggedPacket> = sources
            .iter()
            .filter_map(|v| self.log(*v))
            .flat_map(|log| log.snapshot())
            .collect();
        merged.sort_by_key(|tp| tp.clock);
        merged
    }

    /// Statistics for every log, in id order.
    pub fn stats(&self) -> Vec<VertexLogStats> {
        self.logs
            .iter()
            .map(|(v, m)| {
                let l = lock(m);
                VertexLogStats {
                    vertex: *v,
                    high_water: l.high_water(),
                    truncated: l.truncated(),
                    deleted: l.deleted(),
                    final_len: l.len(),
                    rejected: l.rejected(),
                }
            })
            .collect()
    }
}

fn lock(log: &Mutex<PacketLog>) -> MutexGuard<'_, PacketLog> {
    log.lock().unwrap_or_else(|p| p.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_packet::Packet;
    use chc_store::Clock;

    fn tp(counter: u64) -> TaggedPacket {
        TaggedPacket::new(
            Packet::builder().id(counter).build(),
            Clock::with_root(0, counter),
        )
    }

    #[test]
    fn delete_tokens_are_nonzero_and_distinguish_instances() {
        for counter in [0u64, 1, 0x7fff, 0x8000, u64::MAX] {
            for inst in [0u32, 1, 0xffff, u32::MAX] {
                assert_ne!(delete_token(InstanceId(inst), counter), 0);
            }
        }
        assert_ne!(
            delete_token(InstanceId(1), 5),
            delete_token(InstanceId(2), 5)
        );
    }

    #[test]
    fn ledger_confirms_and_cancels() {
        let mut ledger = XorDeleteLedger::default();
        let held = |l: &XorDeleteLedger| l.counters().count();
        let t = delete_token(InstanceId(3), 7);
        ledger.fold(7, t);
        assert!(!ledger.confirmed(7));
        // Delivered without the token in its vector: the residue stays.
        ledger.deliver(7, 0);
        assert!(ledger.confirmed(7));
        assert!(!ledger.deletable(7), "delivered but residue outstanding");
        assert_eq!(ledger.dirty_confirmed(), 1);
        // A late fold cancels it (a commit after the delete request).
        ledger.fold(7, t);
        assert!(ledger.deletable(7));
        assert_eq!(ledger.dirty_confirmed(), 0);
        assert_eq!((held(&ledger), ledger.sweep(), held(&ledger)), (1, 1, 0));
        assert!(!ledger.confirmed(7), "a swept counter starts afresh");
        // A repeat delivery replaces the residue the first one left.
        ledger.deliver(8, t);
        ledger.deliver(8, t);
        assert!(!ledger.deletable(8));
        ledger.fold(8, t);
        assert!(ledger.deletable(8));
    }

    #[test]
    fn the_floor_ignores_what_it_released_and_counts_the_dirty() {
        let mut ledger = XorDeleteLedger::default();
        for c in [2, 3, 5, 9] {
            ledger.fold(c, 0x8000);
            ledger.deliver(c, 0);
        }
        ledger.fold(3, 0x8000);
        ledger.fold(4, 0x8000);
        let held = |l: &XorDeleteLedger| l.counters().collect::<Vec<_>>();
        assert_eq!((held(&ledger).len(), ledger.high_water()), (5, 5));
        // 2 and 5 still carry a token; 3 cancelled and 4 is in flight.
        ledger.release_through(4);
        assert_eq!(held(&ledger), [5, 9]);
        assert_eq!(ledger.dirty_confirmed(), 3, "2 released, 5 and 9 held");
        // At or below the floor a late fold or delivery is ignored, and a
        // released counter answers as not delivered.
        ledger.fold(1, 0x8000);
        ledger.deliver(4, 0x8000);
        assert!(!ledger.confirmed(2) && !ledger.confirmed(4) && !ledger.deletable(3));
        assert_eq!(held(&ledger), [5, 9]);
        // A lower floor changes nothing.
        ledger.release_through(3);
        assert!(ledger.confirmed(5) && !ledger.confirmed(6));
        ledger.take(9);
        ledger.take(9);
        assert_eq!((held(&ledger), ledger.high_water()), (vec![5], 5));
    }

    #[test]
    fn two_logging_vertices_cancel_through_one_envelope() {
        // The envelope accumulates both vertices' tokens; the sink folds the
        // accumulated vector once and the cell still cancels to zero.
        let mut ledger = XorDeleteLedger::default();
        let a = delete_token(InstanceId(1), 2);
        let b = delete_token(InstanceId(2), 2);
        ledger.fold(2, a);
        ledger.fold(2, b);
        ledger.deliver(2, a ^ b);
        assert!(ledger.deletable(2));
    }

    #[test]
    fn vertex_logs_arm_and_delete_confirmed() {
        let mut logs = VertexLogs::new(8);
        logs.arm(VertexId(2), 4);
        logs.arm(ROOT_VERTEX, 1);
        assert_eq!(
            logs.log(ROOT_VERTEX).unwrap().capacity(),
            8,
            "arming twice keeps the first log"
        );
        assert!(logs.log(VertexId(3)).is_none());
        assert_eq!(
            logs.armed().collect::<Vec<_>>(),
            vec![VertexId(2), ROOT_VERTEX]
        );
        for c in 1..=3 {
            logs.log(ROOT_VERTEX).unwrap().insert(tp(c));
            logs.log(VertexId(2)).unwrap().insert(tp(c + 1));
        }
        // A merged snapshot is clock-ordered across its sources.
        let counters = |sources: &[VertexId]| -> Vec<u64> {
            let merged = logs.snapshot(sources);
            merged.iter().map(|tp| tp.clock.counter()).collect()
        };
        assert_eq!(counters(&[ROOT_VERTEX]), [1, 2, 3]);
        assert_eq!(counters(&[VertexId(2), ROOT_VERTEX]), [1, 2, 2, 3, 3, 4]);
        assert!(counters(&[VertexId(3)]).is_empty());

        // The XOR sweep treats both logs alike.
        let mut ledger = XorDeleteLedger::default();
        for c in [1, 2] {
            ledger.deliver(c, 0);
        }
        for v in [VertexId(2), ROOT_VERTEX] {
            let mut log = logs.log(v).unwrap();
            log.delete_where(|c| ledger.deletable(c.counter()));
        }
        let stats = logs.stats();
        let row = |i: usize| (stats[i].vertex, stats[i].deleted, stats[i].final_len);
        assert_eq!(stats.len(), 2);
        assert_eq!(row(0), (VertexId(2), 1, 2));
        assert_eq!(row(1), (ROOT_VERTEX, 2, 1));
        assert_eq!(stats[0].high_water, 3);
    }
}
