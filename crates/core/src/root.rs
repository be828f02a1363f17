//! The chain root: logical clocks, packet logging, the delete request,
//! and root failover (§5, §5.4).
//!
//! The root is a special splitter at the chain entry. For every input packet
//! it (1) stamps a unique logical clock through its [`RootCore`], which
//! persists the clock and recovers it, (2) logs the packet through the same
//! core, in the [`ROOT_VERTEX`] row of the [`VertexLogs`] it shares with the
//! instances, until the chain confirms that processing has finished, and (3)
//! forwards it to the entry vertex chosen by scope-aware partitioning. The
//! root replays nothing itself: a failover or straggler clone instance of
//! an entry vertex takes its replay out of the root's row
//! ([`VertexLogs::replay`]).
//!
//! The chain confirms a packet with one delete request, from its exit or
//! from the on-path vertex that dropped it; the root then unlogs it from
//! every row and drops its store dedup record. The paper's Figure 6 also
//! waits for the XOR of the packet's update tokens to cancel, because a
//! non-blocking update commits later at a remote store. The simulator's
//! store applies each update when it is issued, so by the time the request
//! lands every update the packet induced has committed, and the request
//! alone is the rule. (The real-thread engine sends no requests: it cuts
//! its logs at commit frontiers alone, `chc_runtime::replay`.)

use crate::chain::Topology;
use crate::config::ChainConfig;
use crate::instance::send_to_vertex;
use crate::message::{Msg, TaggedPacket};
use crate::root_core::{RootCore, CLOCK_PERSIST_PERIOD};
use crate::splitter::PartitionTable;
use crate::vertexlog::VertexLogs;
use chc_sim::{Actor, Ctx, SimDuration};
use chc_store::{Clock, StoreServer, VertexId};
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
    /// Packets unlogged on their delete request, each once.
    pub deleted: u64,
    /// Largest log size observed.
    pub log_high_water: usize,
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

    /// The chain confirmed `clock`: its exit sent it on, or an on-path
    /// vertex dropped it. Unlog it from every row and drop its store dedup
    /// record. A repeat request (a straggler clone's or a replay's copy)
    /// finds nothing to unlog.
    fn delete(&mut self, clock: Clock) {
        if self.logs.remove(&clock) {
            self.stats.deleted += 1;
        }
        self.store.forget_clock(clock);
    }
}

impl Actor<Msg> for RootActor {
    fn on_message(&mut self, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::Data(tp) => self.handle_input(tp, ctx),
            Msg::DeleteRequest { clock } => self.delete(clock),
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
        let mut sim: Simulation<Msg> = Simulation::new(SimDuration::ZERO);
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
        let clock = Clock::with_root(0, 1);
        sim.inject_at(
            VirtualTime::from_micros(4),
            at,
            Msg::DeleteRequest { clock },
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

    /// A delete request unlogs its packet from every row at once; a repeat
    /// (a straggler clone's or a replay's copy) finds nothing and is not
    /// counted, and a packet no request names stays logged.
    #[test]
    fn a_delete_request_unlogs_its_packet_from_every_row_once() {
        let mut logs = VertexLogs::new(ROOT_LOG_CAPACITY);
        logs.arm(VertexId(2), ROOT_LOG_CAPACITY);
        let logs = Rc::new(logs);
        let root = RootActor::new(
            RootCore::default(),
            ChainConfig::default(),
            Vec::new(),
            Rc::default(),
            Rc::default(),
            SharedStore::new(),
            Rc::clone(&logs),
        );
        let mut sim: Simulation<Msg> = Simulation::new(SimDuration::ZERO);
        let at = sim.add_actor(Box::new(root));
        let mut t = 0;
        let mut send = |sim: &mut Simulation<Msg>, msg| {
            t += 1;
            sim.inject_at(VirtualTime::from_micros(t), at, msg);
        };
        for id in 1..=4 {
            let pkt = Packet::builder().id(id).build();
            let tp = TaggedPacket::new(pkt, Clock::with_root(0, id));
            logs.log_forwarded(VertexId(2), &tp);
            send(
                &mut sim,
                Msg::Data(TaggedPacket::new(tp.packet, Clock::default())),
            );
        }
        let delete = |c| Msg::DeleteRequest {
            clock: Clock::with_root(0, c),
        };
        for c in [1, 3, 3, 1, 9] {
            send(&mut sim, delete(c));
        }
        sim.run();
        let root = sim.actor::<RootActor>(at).unwrap();
        let logged = |v| -> Vec<u64> {
            let log = logs.log(v).unwrap();
            log.snapshot().iter().map(|tp| tp.clock.counter()).collect()
        };
        assert_eq!(logged(ROOT_VERTEX), [2, 4]);
        assert_eq!(logged(VertexId(2)), [2, 4]);
        let stats = root.stats();
        assert_eq!((stats.packets_in, stats.deleted), (4, 2));
        assert_eq!(stats.log_high_water, 4);
    }
}
