//! The chain root: logical clocks, packet logging, the delete/commit
//! protocol, and root failover (§5, §5.4).
//!
//! The root is a special splitter at the chain entry. For every input packet
//! it (1) stamps a unique logical clock through its [`RootCore`], which
//! persists the clock and recovers it, (2) logs the packet through the same
//! core, in the [`ROOT_VERTEX`] row of the [`VertexLogs`] it shares with the
//! instances, until the chain tail confirms that processing — and every
//! state update the packet induced — has finished, and (3)
//! forwards it to the entry vertex chosen by scope-aware partitioning. The
//! root replays nothing itself: a failover or straggler clone instance of
//! an entry vertex takes its replay out of the root's row
//! ([`VertexLogs::replay`]). Deletion follows the XOR commit-vector protocol
//! of Figure 6 so that a packet is never un-logged while some non-blocking
//! state update it induced is still uncommitted: every commit signal and
//! every delete request folds into the counter's cell of the root's
//! [`XorDeleteLedger`], and the packet is unlogged from every row — its cell
//! dropped with it — once the request came and the tokens cancelled. (The
//! real-thread engine keeps no ledger: it cuts its logs at commit frontiers
//! alone, `chc_runtime::replay`.)

use crate::chain::Topology;
use crate::config::ChainConfig;
use crate::instance::send_to_vertex;
use crate::message::{Msg, TaggedPacket};
use crate::root_core::{RootCore, CLOCK_PERSIST_PERIOD};
use crate::splitter::PartitionTable;
use crate::vertexlog::VertexLogs;
use chc_sim::{Actor, ActorId, Ctx, SimDuration};
use chc_store::{Clock, CounterWindow, StoreServer, VertexId};
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::Arc;

/// Pseudo vertex id under which the root stores its own durable metadata
/// (the persisted logical clock).
pub const ROOT_VERTEX: VertexId = VertexId(u32::MAX);

/// Packets a root's log may hold before the root drops new arrivals
/// (buffer-bloat guard, §5). The [`VertexLogs`] rows of both substrates and
/// the sentinel's log bound all read it; it is larger than every trace in
/// the repository.
pub const ROOT_LOG_CAPACITY: usize = 1_000_000;

/// Counters exposed by the root for experiments and reports.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RootStats {
    /// Packets stamped and logged.
    pub packets_in: u64,
    /// Packets dropped because the log exceeded its capacity.
    pub dropped: u64,
    /// Log entries deleted after chain-tail confirmation.
    pub deleted: u64,
    /// Largest log size observed.
    pub log_high_water: usize,
}

const DELIVERED: u64 = 1 << 63;

/// Figure 6's commit vector at the root: one cell per clock counter in
/// flight, in a [`CounterWindow`]. Bit 63 records that the counter is
/// *delivered* (its delete request came), the low 32 bits XOR the tokens of
/// its commit signals and delete vector. A counter is *deletable* once
/// delivered with zero residue.
///
/// Every fold or delivery that leaves a counter deletable also lists it, so
/// the per-packet delete ([`XorDeleteLedger::delete_pending`]) visits what
/// changed since it last ran, not every cell or logged packet held.
#[derive(Debug, Default)]
pub struct XorDeleteLedger {
    cells: CounterWindow<u64>,
    /// Counters an edit left deletable since the last delete pass, in the
    /// order they became so. One may have been taken or edited again since,
    /// or be listed twice: the pass checks each again.
    pending: Vec<u64>,
}

impl XorDeleteLedger {
    fn edit(&mut self, counter: u64, edit: impl FnOnce(&mut u64)) {
        let cell = self.cells.cell(counter).get_or_insert(0);
        edit(cell);
        if *cell == DELIVERED {
            self.pending.push(counter);
        }
    }

    /// Fold a commit signal's `token` into the counter's residue.
    pub fn fold(&mut self, counter: u64, token: u32) {
        self.edit(counter, |cell| *cell ^= u64::from(token));
    }

    /// The counter's delete request came carrying `vector`: fold the vector
    /// back out and mark the counter delivered. A repeat carries the same
    /// tokens again, so it replaces the residue the first one left.
    pub fn deliver(&mut self, counter: u64, vector: u32) {
        self.edit(counter, |cell| {
            let residue = if *cell & DELIVERED == 0 { *cell } else { 0 };
            *cell = DELIVERED | (residue ^ u64::from(vector));
        });
    }

    /// Figure 6's per-packet delete: every counter an edit left deletable
    /// since the last call that still is — held, delivered, zero residue —
    /// loses its cell and is handed to `delete`, which unlogs it. Visits the
    /// counters that changed, not the cells held; how many went.
    pub fn delete_pending(&mut self, mut delete: impl FnMut(u64)) -> usize {
        let mut pending = std::mem::take(&mut self.pending);
        let mut deleted = 0;
        for &counter in &pending {
            if self.cells.get(counter) == Some(&DELIVERED) {
                self.cells.take(counter);
                delete(counter);
                deleted += 1;
            }
        }
        // The list keeps its capacity: a warm pass allocates nothing.
        pending.clear();
        self.pending = pending;
        deleted
    }

    /// Every counter with a cell, lowest first.
    pub fn counters(&self) -> impl Iterator<Item = u64> + '_ {
        self.cells.iter().map(|(counter, _)| counter)
    }
}

/// The root actor. See the module documentation.
pub struct RootActor {
    /// Stamps the clocks, persists and recovers them.
    core: RootCore,
    config: ChainConfig,
    entry_vertices: Vec<VertexId>,
    partition: Rc<RefCell<PartitionTable>>,
    topology: Rc<RefCell<Topology>>,
    store: Arc<StoreServer>,
    /// The chain's packet logs: the root logs into the [`ROOT_VERTEX`] row
    /// what is still being processed somewhere in the chain.
    logs: Rc<VertexLogs>,
    /// Figure 6's residue per counter: commit tokens and delete vectors
    /// fold in, a delete request marks the counter finished.
    ledger: XorDeleteLedger,
    /// The counts the actor keeps; `stats()` fills `dropped` and `log_high_water` from the log.
    stats: RootStats,
}

impl RootActor {
    /// Create a root stamping through `core`: a fresh [`RootCore::default`]
    /// at chain bring-up, or a failover root's [`RootCore::recovered`], whose
    /// clock resumes from the one persisted in the store (§5.4 "Root") and
    /// whose log row starts empty.
    pub fn new(
        core: RootCore,
        config: ChainConfig,
        entry_vertices: Vec<VertexId>,
        partition: Rc<RefCell<PartitionTable>>,
        topology: Rc<RefCell<Topology>>,
        store: Arc<StoreServer>,
        logs: Rc<VertexLogs>,
    ) -> RootActor {
        RootActor {
            core,
            config,
            entry_vertices,
            partition,
            topology,
            store,
            logs,
            ledger: XorDeleteLedger::default(),
            stats: RootStats::default(),
        }
    }

    /// The root's counters; the drop count and high water are its row's.
    pub fn stats(&self) -> RootStats {
        let log = self.logs.log(ROOT_VERTEX).expect("the root's row");
        RootStats {
            dropped: log.rejected(),
            log_high_water: log.high_water(),
            ..self.stats
        }
    }

    fn handle_input(&mut self, mut tp: TaggedPacket, ctx: &mut Ctx<'_, Msg>) {
        tp.clock = self.core.stamp(Some(&*self.store));
        // A full log drops the packet, as on the engine's root (the chain
        // tolerates gaps).
        if !self.core.log(&self.logs, &tp) {
            return;
        }
        self.stats.packets_in += 1;
        // Per-packet root overhead: local logging plus the amortized clock
        // persistence cost (§7.2).
        let costs = self.config.costs;
        let persist = costs.clock_persist.as_nanos() / CLOCK_PERSIST_PERIOD;
        let delay = costs.root_local_log + SimDuration::from_nanos(persist);
        for &vertex in &self.entry_vertices {
            send_to_vertex(&self.partition, &self.topology, vertex, &tp, delay, ctx);
        }
    }

    /// Unlog every packet whose delete request came and whose every token
    /// cancelled: the ledger lists those the last message left so. The
    /// counter's cell goes with it, so a straggler's repeat request starts
    /// afresh.
    fn delete_cancelled(&mut self) {
        let (logs, store, stats) = (&self.logs, &self.store, &mut self.stats);
        self.ledger.delete_pending(|counter| {
            let clock = Clock(counter);
            logs.remove(&clock);
            store.forget_clock(clock);
            stats.deleted += 1;
        });
    }
}

impl Actor<Msg> for RootActor {
    fn on_message(&mut self, _from: Option<ActorId>, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::Data(tp) => self.handle_input(tp, ctx),
            Msg::DeleteRequest { clock, xor_vector } => {
                self.ledger.deliver(clock.counter(), xor_vector);
                self.delete_cancelled();
            }
            Msg::CommitSignal { clock, token } => {
                self.ledger.fold(clock.counter(), token);
                self.delete_cancelled();
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::SharedStore;
    use chc_packet::Packet;
    use chc_sim::{Simulation, VirtualTime};

    #[test]
    fn ledger_confirms_and_cancels() {
        let mut ledger = XorDeleteLedger::default();
        let held = |l: &XorDeleteLedger| l.counters().collect::<Vec<_>>();
        let a = 0x0003_8007;
        ledger.fold(7, a);
        assert_eq!(ledger.delete_pending(|_| {}), 0, "in flight");
        // Delivered without the token in its vector: the residue stays.
        ledger.deliver(7, 0);
        assert_eq!(ledger.delete_pending(|_| {}), 0, "residue outstanding");
        // A late fold cancels it (a commit after the delete request).
        ledger.fold(7, a);
        let mut deleted = Vec::new();
        assert_eq!(ledger.delete_pending(|c| deleted.push(c)), 1);
        assert_eq!((deleted, held(&ledger)), (vec![7], vec![]));
        assert_eq!(ledger.delete_pending(|_| {}), 0, "deleted once");
        // A repeat delivery replaces the residue the first one left.
        ledger.deliver(8, a);
        ledger.deliver(8, a);
        assert_eq!(ledger.delete_pending(|_| {}), 0);
        ledger.fold(8, a);
        assert_eq!(ledger.delete_pending(|_| {}), 1);
        assert!(held(&ledger).is_empty());
    }

    #[test]
    fn two_commits_cancel_through_one_delete_vector() {
        // Two instances updated state for the packet: the delete request
        // carries both tokens, and the cell cancels once both commits came.
        let mut ledger = XorDeleteLedger::default();
        let (a, b) = (0x0003_8007, 0x0005_8007);
        ledger.fold(2, a);
        ledger.deliver(2, a ^ b);
        assert_eq!(ledger.delete_pending(|_| {}), 0, "one commit outstanding");
        ledger.fold(2, b);
        assert_eq!(ledger.delete_pending(|_| {}), 1);
        assert_eq!(ledger.counters().count(), 0);
    }

    #[test]
    fn a_full_log_uses_up_the_rejected_arrivals_counter() {
        let root = RootActor::new(
            RootCore::default(),
            ChainConfig::default(),
            Vec::new(),
            Rc::default(),
            Rc::default(),
            SharedStore::new(),
            Rc::new(VertexLogs::new(2)),
        );
        let mut sim: Simulation<Msg> = Simulation::new(1);
        let at = sim.add_actor(Box::new(root));
        let arrival = |id| {
            Msg::Data(TaggedPacket::new(
                Packet::builder().id(id).build(),
                Clock::default(),
            ))
        };
        for id in 1..=3 {
            sim.inject_at(VirtualTime::from_micros(id), at, arrival(id));
        }
        // Confirming clock 1 frees a slot for the fourth arrival.
        let (clock, xor_vector) = (Clock::with_root(0, 1), 0);
        sim.inject_at(
            VirtualTime::from_micros(4),
            at,
            Msg::DeleteRequest { clock, xor_vector },
        );
        sim.inject_at(VirtualTime::from_micros(5), at, arrival(4));
        sim.run();
        let root = sim.actor::<RootActor>(at).unwrap();
        let logged: Vec<_> = (root.logs.log(ROOT_VERTEX).unwrap())
            .snapshot()
            .iter()
            .map(|tp| tp.clock.counter())
            .collect();
        assert_eq!(
            logged,
            vec![2, 4],
            "the rejected third arrival used counter 3"
        );
        let stats = root.stats();
        assert_eq!((stats.packets_in, stats.dropped, stats.deleted), (3, 1, 1));
        assert_eq!(stats.log_high_water, 2);
    }

    /// Figure 6's orderings, one counter each, in the order the messages
    /// reach the root: what stays logged and how many deletes the root
    /// counts.
    #[test]
    fn figure_6_orderings_delete_once_the_tokens_cancel() {
        let root = RootActor::new(
            RootCore::default(),
            ChainConfig::default(),
            Vec::new(),
            Rc::default(),
            Rc::default(),
            SharedStore::new(),
            Rc::new(VertexLogs::new(ROOT_LOG_CAPACITY)),
        );
        let mut sim: Simulation<Msg> = Simulation::new(1);
        let at = sim.add_actor(Box::new(root));
        let mut t = 0;
        let mut send = |sim: &mut Simulation<Msg>, msg| {
            t += 1;
            sim.inject_at(VirtualTime::from_micros(t), at, msg);
        };
        for id in 1..=7 {
            let pkt = Packet::builder().id(id).build();
            send(
                &mut sim,
                Msg::Data(TaggedPacket::new(pkt, Clock::default())),
            );
        }
        let clock = |c| Clock::with_root(0, c);
        let delete = |c, xor_vector| Msg::DeleteRequest {
            clock: clock(c),
            xor_vector,
        };
        let commit = |c, token| Msg::CommitSignal {
            clock: clock(c),
            token,
        };
        let (a, b) = (0x0001_0007, 0x0002_0009);
        // 1: the commit arrives before the delete request.
        send(&mut sim, commit(1, a));
        send(&mut sim, delete(1, a));
        // 2: the delete request arrives before the commit.
        send(&mut sim, delete(2, a));
        send(&mut sim, commit(2, a));
        // 3: two commits after the delete; only the second completes it.
        send(&mut sim, delete(3, a ^ b));
        send(&mut sim, commit(3, a));
        // 4: as 3, but the second commit never comes: 4 stays logged.
        send(&mut sim, delete(4, a ^ b));
        send(&mut sim, commit(4, a));
        send(&mut sim, commit(3, b));
        // 5: a repeat delete request after the first completed (a straggler
        // clone's copy): the counter starts fresh and is deleted again.
        send(&mut sim, delete(5, 0));
        send(&mut sim, delete(5, 0));
        // 6: a commit after the delete, then a repeat request that carries
        // it: deleted again.
        send(&mut sim, delete(6, 0));
        send(&mut sim, commit(6, b));
        send(&mut sim, delete(6, b));
        // 7: a repeat request while the first still waits replaces its
        // vector rather than cancelling it: 7 stays logged for its commit.
        send(&mut sim, delete(7, a));
        send(&mut sim, delete(7, a));
        sim.run();
        let root = sim.actor::<RootActor>(at).unwrap();
        let logged: Vec<_> = (root.logs.log(ROOT_VERTEX).unwrap())
            .snapshot()
            .iter()
            .map(|tp| tp.clock.counter())
            .collect();
        assert_eq!(logged, [4, 7]);
        assert_eq!(root.ledger.counters().collect::<Vec<_>>(), [4, 7]);
        let stats = root.stats();
        assert_eq!((stats.packets_in, stats.deleted), (7, 7));
        assert_eq!(stats.log_high_water, 7);
    }
}
