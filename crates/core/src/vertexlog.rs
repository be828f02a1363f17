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
//!   depth.
//! - [`XorDeleteLedger`]: the runtime's commit-vector. Each logging vertex
//!   folds a per-packet [`delete_token`] into both the packet envelope
//!   (`TaggedPacket::xor_vector`) and the ledger slot of the packet's clock
//!   counter; the sink folds the envelope's accumulated vector back and marks
//!   the counter delivered. A slot that is *delivered with zero residue* is
//!   confirmed end-to-end: the logging vertex may delete it, and a tail
//!   replacement may skip re-emitting it — bounding the re-delivery window of
//!   a tail kill to the unconfirmed suffix.

use crate::message::TaggedPacket;
use crate::root::ROOT_VERTEX;
use crate::rootlog::PacketLog;
use chc_store::{InstanceId, VertexId};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Reserved instance id the warm-standby root stamps onto the packets it
/// replays after taking over injection (`TaggedPacket::replay_for`). Above
/// every id the planner hands out.
pub const STANDBY_ROOT_ID: InstanceId = InstanceId(u32::MAX - 1);

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
const RESIDUE_MASK: u64 = 0xffff_ffff;

/// One atomic slot per clock counter: bit 63 records first-copy delivery at
/// the sink, the low 32 bits accumulate XOR delete tokens. A counter is
/// *confirmed* once delivered; it is *deletable* once delivered with zero
/// residue (every token folded in by a logging vertex was folded back out by
/// the sink). A delivered slot with nonzero residue at shutdown means a
/// token was folded exactly once — a protocol violation the sentinel reports.
#[derive(Debug, Default)]
pub struct XorDeleteLedger {
    slots: Vec<AtomicU64>,
}

impl XorDeleteLedger {
    /// A ledger covering clock counters `1..=max_counter` (slot 0 unused so
    /// counters index directly).
    pub fn new(max_counter: u64) -> XorDeleteLedger {
        let mut slots = Vec::with_capacity(max_counter as usize + 1);
        slots.resize_with(max_counter as usize + 1, AtomicU64::default);
        XorDeleteLedger { slots }
    }

    fn slot(&self, counter: u64) -> Option<&AtomicU64> {
        self.slots.get(counter as usize)
    }

    /// Fold `token` into the counter's accumulator (used by both sides of
    /// the protocol: the logging vertex folds its token in, the sink folds
    /// the envelope's accumulated vector back out).
    pub fn fold(&self, counter: u64, token: u32) {
        if let Some(s) = self.slot(counter) {
            s.fetch_xor(token as u64, Ordering::AcqRel);
        }
    }

    /// Record first-copy delivery of the counter at the sink.
    pub fn mark_delivered(&self, counter: u64) {
        if let Some(s) = self.slot(counter) {
            s.fetch_or(DELIVERED, Ordering::AcqRel);
        }
    }

    /// Whether the sink has delivered the counter's first copy.
    pub fn confirmed(&self, counter: u64) -> bool {
        self.slot(counter)
            .is_some_and(|s| s.load(Ordering::Acquire) & DELIVERED != 0)
    }

    /// The counter's current XOR accumulator (zero once every folded token
    /// cancelled out).
    pub fn residue(&self, counter: u64) -> u32 {
        self.slot(counter)
            .map_or(0, |s| (s.load(Ordering::Acquire) & RESIDUE_MASK) as u32)
    }

    /// Delivered with zero residue: safe to delete from every vertex log.
    pub fn deletable(&self, counter: u64) -> bool {
        self.slot(counter).is_some_and(|s| {
            let v = s.load(Ordering::Acquire);
            v & DELIVERED != 0 && v & RESIDUE_MASK == 0
        })
    }

    /// Counters delivered but with nonzero residue — each is a violation of
    /// the delete protocol (a token folded in but never folded back out, or
    /// vice versa). Scanned at shutdown by the sentinel.
    pub fn dirty_confirmed(&self) -> Vec<u64> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| {
                let v = s.load(Ordering::Relaxed);
                v & DELIVERED != 0 && v & RESIDUE_MASK != 0
            })
            .map(|(c, _)| c as u64)
            .collect()
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
/// each other.
#[derive(Debug)]
pub struct VertexLogs {
    logs: BTreeMap<VertexId, Mutex<PacketLog>>,
}

impl VertexLogs {
    /// A table holding the root's log, of `root_capacity`, and nothing else.
    pub fn new(root_capacity: usize) -> VertexLogs {
        let root = Mutex::new(PacketLog::new(root_capacity));
        VertexLogs {
            logs: BTreeMap::from([(ROOT_VERTEX, root)]),
        }
    }

    /// Arm `vertex` with its own egress log. Call before sharing the
    /// table; arming is not possible once the run starts.
    pub fn arm(&mut self, vertex: VertexId, capacity: usize) {
        self.logs
            .entry(vertex)
            .or_insert_with(|| Mutex::new(PacketLog::new(capacity)));
    }

    /// The log of `vertex` — [`ROOT_VERTEX`] for the root's — if armed.
    pub fn log(&self, vertex: VertexId) -> Option<MutexGuard<'_, PacketLog>> {
        self.logs.get(&vertex).map(lock)
    }

    /// Every logging vertex, in id order (so the root comes last).
    pub fn armed(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.logs.keys().copied()
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
        let ledger = XorDeleteLedger::new(10);
        let t = delete_token(InstanceId(3), 7);
        ledger.fold(7, t);
        assert!(!ledger.confirmed(7));
        assert_eq!(ledger.residue(7), t);
        // Sink delivers the first copy and folds the envelope vector back.
        ledger.mark_delivered(7);
        assert!(ledger.confirmed(7));
        assert!(!ledger.deletable(7), "delivered but residue outstanding");
        assert_eq!(ledger.dirty_confirmed(), vec![7]);
        ledger.fold(7, t);
        assert!(ledger.deletable(7));
        assert!(ledger.dirty_confirmed().is_empty());
        // Out-of-range counters are ignored, not a panic.
        ledger.fold(999, t);
        ledger.mark_delivered(999);
        assert!(!ledger.confirmed(999));
    }

    #[test]
    fn two_logging_vertices_cancel_through_one_envelope() {
        // The envelope accumulates both vertices' tokens; the sink folds the
        // accumulated vector once and the slot still cancels to zero.
        let ledger = XorDeleteLedger::new(4);
        let a = delete_token(InstanceId(1), 2);
        let b = delete_token(InstanceId(2), 2);
        ledger.fold(2, a);
        ledger.fold(2, b);
        let envelope = a ^ b;
        ledger.fold(2, envelope);
        ledger.mark_delivered(2);
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
        let ledger = XorDeleteLedger::new(8);
        for c in [1, 2] {
            ledger.mark_delivered(c);
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
