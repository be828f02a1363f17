//! Per-vertex output logging (§5; FTMB-style output logging per
//! PAPERS.md).
//!
//! The root's [`crate::PacketLog`] can only restore packets at the chain
//! *entry*; a replay injected there is eaten by upstream duplicate
//! suppression before it reaches a mid-chain or tail replacement. Closing
//! that gap needs two things, both of which live here:
//!
//! - [`replay_sources`]: the one rule for where a vertex's replay comes
//!   from, on both substrates — the root's log for an entry vertex, the
//!   egress logs of its on-path upstreams otherwise, so replayed packets
//!   enter the chain at the right depth.
//! - [`VertexLogs`]: one table of bounded [`crate::PacketLog`]s keyed by the
//!   vertex that writes them. The root is the chain's first logging vertex
//!   (its injection log sits under [`ROOT_VERTEX`]); every other *armed*
//!   vertex (a source of some vertex that may fail) logs its egress stream.
//!   A failover or clone instance takes its own replay out of the table
//!   ([`VertexLogs::replay`]). Each log is a window of pages indexed by clock
//!   counter, so logging or deleting a packet touches one cell and a
//!   truncation pops pages (see [`crate::PacketLog`]).
//!
//! The substrates free log entries by different rules. The simulator's root
//! unlogs a packet from every row when the chain confirms it: its delete
//! request, from the exit or from the on-path vertex that dropped it, lands
//! ([`VertexLogs::remove`]). The real-thread engine cuts each log at its own
//! commit frontier and nothing else (`chc_runtime::replay`).

use crate::dag::LogicalDag;
use crate::message::TaggedPacket;
use crate::root::ROOT_VERTEX;
use crate::rootlog::PacketLog;
use crate::splitter::Splitter;
use chc_store::{Clock, VertexId};
use std::sync::{Mutex, MutexGuard};

/// The logs a replacement of `vertex` replays from (§5.3): the root's
/// (`[ROOT_VERTEX]`) for an entry vertex; for a mid-chain or tail vertex the
/// egress logs of its on-path upstreams, so the replay re-enters the chain at
/// the vertex's own depth and upstream duplicate suppression can never eat
/// it. Off-path vertices emit nothing, so they are never a source.
pub fn replay_sources(dag: &LogicalDag, vertex: VertexId) -> Vec<VertexId> {
    if dag.entries().contains(&vertex) {
        return vec![ROOT_VERTEX];
    }
    let mut ups = dag.upstream_of(vertex);
    ups.retain(|u| dag.vertex(*u).is_some_and(|v| !v.off_path));
    ups
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

/// The packet logs, one table keyed by logging vertex: the root's
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

    /// Log a copy an instance of `vertex` forwards into its row, if armed:
    /// every copy, replays included (FTMB's output logging, §5.3), but one
    /// mirrored to a straggler's clone, whose original the straggler logs.
    pub fn log_forwarded(&self, vertex: VertexId, tp: &TaggedPacket) {
        if let Some(mut log) = self.log(vertex).filter(|_| !tp.replicated) {
            log.insert(tp.clone());
        }
    }

    /// Every logging vertex, in id order (so the root comes last).
    pub fn armed(&self) -> impl Iterator<Item = VertexId> + '_ {
        self.logs.iter().map(|(v, _)| *v)
    }

    /// The replay of instance `index` of a vertex fed by `sources`: a
    /// snapshot of those logs, merged in clock order, that keeps the copies
    /// `splitter` routes to `index`, as their originals were. Every failover
    /// and clone instance, on either substrate, takes its replay here.
    pub fn replay(
        &self,
        sources: &[VertexId],
        splitter: &Splitter,
        index: usize,
    ) -> Vec<TaggedPacket> {
        let mut merged: Vec<TaggedPacket> = (sources.iter())
            .filter_map(|v| self.log(*v))
            .flat_map(|log| log.snapshot())
            .filter(|tp| splitter.instance_for(&tp.packet, tp.clock) == index)
            .collect();
        merged.sort_by_key(|tp| tp.clock);
        merged
    }

    /// Unlog `clock` from every log: the simulator's root deletes a packet
    /// the chain confirmed everywhere at once, which keeps each egress log
    /// no larger than the root's. Returns whether the root's log held it.
    pub fn remove(&self, clock: &Clock) -> bool {
        let mut held = false;
        for (v, log) in &self.logs {
            held |= lock(log).remove(clock) && *v == ROOT_VERTEX;
        }
        held
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
    use chc_packet::{FiveTuple, Packet, Scope};

    fn tp(counter: u64) -> TaggedPacket {
        TaggedPacket::new(
            Packet::builder().id(counter).build(),
            Clock::with_root(0, counter),
        )
    }

    #[test]
    fn a_replay_keeps_the_copies_routed_to_its_index() {
        let logs = VertexLogs::new(64);
        let flow = |port| FiveTuple::tcp([10, 0, 0, 1].into(), port, [10, 0, 0, 2].into(), 80);
        for c in 1..=32 {
            let packet = Packet::builder().id(c).tuple(flow(c as u16)).build();
            let tp = TaggedPacket::new(packet, Clock::with_root(0, c));
            logs.log(ROOT_VERTEX).unwrap().insert(tp);
        }
        let two = Splitter::new(VertexId(1), Scope::FiveTuple, 2);
        let [zero, one] = [0, 1].map(|i| logs.replay(&[ROOT_VERTEX], &two, i));
        assert_eq!(zero.len() + one.len(), 32);
        assert!(!zero.is_empty() && !one.is_empty());
        for (index, replay) in [(0, &zero), (1, &one)] {
            assert!(replay.is_sorted_by_key(|tp| tp.clock));
            for tp in replay {
                assert_eq!(two.instance_for(&tp.packet, tp.clock), index);
            }
        }
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
        // A merged replay is clock-ordered across its sources; one instance
        // replays everything.
        let one = Splitter::new(VertexId(9), Scope::FiveTuple, 1);
        let counters = |sources: &[VertexId]| -> Vec<u64> {
            let merged = logs.replay(sources, &one, 0);
            merged.iter().map(|tp| tp.clock.counter()).collect()
        };
        assert_eq!(counters(&[ROOT_VERTEX]), [1, 2, 3]);
        assert_eq!(counters(&[VertexId(2), ROOT_VERTEX]), [1, 2, 2, 3, 3, 4]);
        assert!(counters(&[VertexId(3)]).is_empty());

        // A delete treats both logs alike.
        for c in [1, 2] {
            logs.remove(&Clock::with_root(0, c));
        }
        let stats = logs.stats();
        let row = |i: usize| (stats[i].vertex, stats[i].deleted, stats[i].final_len);
        assert_eq!(stats.len(), 2);
        assert_eq!(row(0), (VertexId(2), 1, 2));
        assert_eq!(row(1), (ROOT_VERTEX, 2, 1));
        assert_eq!(stats[0].high_water, 3);
    }
}
