//! The chain root: logical clocks, packet logging, the delete/commit
//! protocol, replay, and root failover (§5, §5.4).
//!
//! The root is a special splitter at the chain entry. For every input packet
//! it (1) stamps a unique logical clock (root instance id in the high bits),
//! (2) logs the packet until the chain tail confirms that processing — and
//! every state update the packet induced — has finished, and (3) forwards it
//! to the entry vertex chosen by scope-aware partitioning. Logged packets are
//! replayed when an NF instance fails over or a straggler clone is
//! initialised. Deletion follows the XOR commit-vector protocol of Figure 6
//! so that a packet is never un-logged while some non-blocking state update
//! it induced is still uncommitted.

use crate::chain::Topology;
use crate::config::ChainConfig;
use crate::message::{Msg, TaggedPacket};
use crate::rootlog::PacketLog;
use crate::splitter::PartitionTable;
use chc_sim::{Actor, ActorId, Ctx, SimDuration};
use chc_store::{Clock, InstanceId, ObjectKey, Operation, StateKey, StoreServer, Value, VertexId};
use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;
use std::sync::Arc;

/// Pseudo vertex id under which the root stores its own durable metadata
/// (the persisted logical clock).
pub const ROOT_VERTEX: VertexId = VertexId(u32::MAX);

/// The root persists its logical clock to the store every this many packets
/// (§7.2: persisting on every packet costs 29 µs, every 100th 0.29 µs). A
/// failover root resumes at the persisted value plus this period, so it never
/// reuses a clock the failed root may already have handed out.
pub const CLOCK_PERSIST_PERIOD: u64 = 100;

/// Packets a root's log may hold before the root drops new arrivals
/// (buffer-bloat guard, §5). The simulator's root, the engine's
/// [`VertexLogs`](crate::VertexLogs) rows and the sentinel's log bound all
/// read it; it is larger than every trace in the repository.
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
    /// Packets replayed (for failover / clone initialisation).
    pub replayed: u64,
    /// Largest log size observed.
    pub log_high_water: usize,
}

/// The root actor. See the module documentation.
pub struct RootActor {
    root_id: u8,
    config: ChainConfig,
    counter: u64,
    entry_vertices: Vec<VertexId>,
    partition: Rc<RefCell<PartitionTable>>,
    topology: Rc<RefCell<Topology>>,
    store: Arc<StoreServer>,
    /// Logged packets still being processed somewhere in the chain (shared
    /// with the real-thread engine via [`crate::rootlog::PacketLog`]).
    log: PacketLog,
    /// XOR of commit signals received for packets not yet deleted.
    commits: HashMap<Clock, u32>,
    /// Packets whose delete request arrived while updates were outstanding:
    /// remaining XOR vector to cancel.
    awaiting_delete: HashMap<Clock, u32>,
    /// Whether this root is a failover instance that must recover its clock
    /// from the datastore on start (§5.4 "Root").
    recover_on_start: bool,
    /// The counts the actor keeps; `stats()` fills `dropped` and `log_high_water` from the log.
    stats: RootStats,
}

impl RootActor {
    /// Create a fresh root (chain bring-up).
    pub fn new(
        root_id: u8,
        config: ChainConfig,
        entry_vertices: Vec<VertexId>,
        partition: Rc<RefCell<PartitionTable>>,
        topology: Rc<RefCell<Topology>>,
        store: Arc<StoreServer>,
    ) -> RootActor {
        RootActor {
            root_id,
            config,
            counter: 0,
            entry_vertices,
            partition,
            topology,
            store,
            log: PacketLog::new(ROOT_LOG_CAPACITY),
            commits: HashMap::new(),
            awaiting_delete: HashMap::new(),
            recover_on_start: false,
            stats: RootStats::default(),
        }
    }

    /// Create a failover root that recovers the logical clock from the store
    /// when it starts (its packet log starts empty: packets logged locally by
    /// the failed root are lost, which the chain tolerates as network drops —
    /// Theorem B.3.1).
    pub fn recovered(
        root_id: u8,
        config: ChainConfig,
        entry_vertices: Vec<VertexId>,
        partition: Rc<RefCell<PartitionTable>>,
        topology: Rc<RefCell<Topology>>,
        store: Arc<StoreServer>,
    ) -> RootActor {
        let mut root = RootActor::new(root_id, config, entry_vertices, partition, topology, store);
        root.recover_on_start = true;
        root
    }

    /// The root's counters; the drop count and high water are the log's.
    pub fn stats(&self) -> RootStats {
        RootStats {
            dropped: self.log.rejected(),
            log_high_water: self.log.high_water(),
            ..self.stats
        }
    }

    /// Key under which the root persists its clock.
    pub fn clock_key(root_id: u8) -> StateKey {
        StateKey::shared(
            ROOT_VERTEX,
            ObjectKey::named(&format!("root_clock_{root_id}")),
        )
    }

    fn persist_clock(&self) {
        let key = RootActor::clock_key(self.root_id);
        let _ = self.store.apply(
            InstanceId(u32::MAX),
            &key,
            &Operation::Set(Value::Int(self.counter as i64)),
            None,
        );
    }

    /// Per-packet root overhead: local logging plus the amortized clock
    /// persistence cost (§7.2).
    fn per_packet_overhead(&self) -> SimDuration {
        let costs = self.config.costs;
        costs.root_local_log
            + SimDuration::from_nanos(costs.clock_persist.as_nanos() / CLOCK_PERSIST_PERIOD)
    }

    fn forward(&mut self, tp: TaggedPacket, ctx: &mut Ctx<'_, Msg>, extra_delay: SimDuration) {
        let entries = self.entry_vertices.clone();
        for vertex in entries {
            let route = self
                .partition
                .borrow_mut()
                .route_clocked(vertex, &tp.packet, tp.clock);
            let Some(route) = route else { continue };
            let target = self
                .topology
                .borrow()
                .actor_of(vertex, route.instance_index);
            if let Some(actor) = target {
                let mut copy = tp.clone();
                copy.mark.first_of_move |= route.mark.first_of_move;
                copy.mark.last_of_move |= route.mark.last_of_move;
                ctx.send_with_extra_delay(actor, Msg::Data(copy), extra_delay);
            }
            if let Some(mirror) = route.mirror_index {
                if let Some(actor) = self.topology.borrow().actor_of(vertex, mirror) {
                    let mut copy = tp.clone();
                    copy.replicated = true;
                    ctx.send_with_extra_delay(actor, Msg::Data(copy), extra_delay);
                }
            }
        }
    }

    fn handle_input(&mut self, mut tp: TaggedPacket, ctx: &mut Ctx<'_, Msg>) {
        self.counter += 1;
        tp.clock = Clock::with_root(self.root_id, self.counter);
        if self.counter.is_multiple_of(CLOCK_PERSIST_PERIOD) {
            self.persist_clock();
        }
        // Buffer-bloat guard (§5): a full log drops the packet, whose clock
        // stays used up, as on the engine's root (the chain tolerates gaps).
        if !self.log.insert(tp.clone()) {
            return;
        }
        self.stats.packets_in += 1;
        let overhead = self.per_packet_overhead();
        self.forward(tp, ctx, overhead);
    }

    fn try_delete(&mut self, clock: Clock, remaining: u32) {
        if remaining == 0 {
            self.log.remove(&clock);
            self.commits.remove(&clock);
            self.awaiting_delete.remove(&clock);
            self.store.forget_clock(clock);
            self.stats.deleted += 1;
        } else {
            self.awaiting_delete.insert(clock, remaining);
        }
    }

    fn handle_delete(&mut self, clock: Clock, xor_vector: u32) {
        let committed = self.commits.remove(&clock).unwrap_or(0);
        self.try_delete(clock, xor_vector ^ committed);
    }

    fn handle_commit(&mut self, clock: Clock, token: u32) {
        if let Some(pending) = self.awaiting_delete.get(&clock).copied() {
            self.try_delete(clock, pending ^ token);
        } else {
            *self.commits.entry(clock).or_insert(0) ^= token;
        }
    }

    fn handle_replay(&mut self, target: InstanceId, ctx: &mut Ctx<'_, Msg>) {
        let logged = self.log.snapshot();
        let n = logged.len();
        for (i, mut tp) in logged.into_iter().enumerate() {
            tp.replay_for = Some(target);
            tp.mark.last_of_replay = i + 1 == n;
            self.stats.replayed += 1;
            // Replay is paced: packets leave back-to-back at a small fixed
            // spacing so they do not arrive as one burst at time zero.
            let pacing = SimDuration::from_nanos(200 * (i as u64 + 1));
            self.forward(tp, ctx, pacing);
        }
    }
}

impl Actor<Msg> for RootActor {
    fn on_start(&mut self, _ctx: &mut Ctx<'_, Msg>) {
        if self.recover_on_start {
            // §5.4: the failover root reads the last persisted clock value and
            // resumes at `persisted + persist period` so it never reuses a
            // clock the failed root may already have handed out (footnote 5).
            let key = RootActor::clock_key(self.root_id);
            let persisted = self.store.peek(&key).as_int().max(0) as u64;
            self.counter = persisted + CLOCK_PERSIST_PERIOD;
        }
    }

    fn on_message(&mut self, _from: Option<ActorId>, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::Data(tp) => self.handle_input(tp, ctx),
            Msg::DeleteRequest { clock, xor_vector } => self.handle_delete(clock, xor_vector),
            Msg::CommitSignal { clock, token } => self.handle_commit(clock, token),
            Msg::ReplayRequest { target } => self.handle_replay(target, ctx),
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
    fn clock_key_is_per_root() {
        assert_ne!(RootActor::clock_key(0), RootActor::clock_key(1));
        assert_eq!(RootActor::clock_key(3).vertex, ROOT_VERTEX);
    }

    #[test]
    fn a_full_log_uses_up_the_rejected_arrivals_counter() {
        let mut root = RootActor::new(
            0,
            ChainConfig::default(),
            Vec::new(),
            Rc::default(),
            Rc::default(),
            SharedStore::new(),
        );
        root.log = PacketLog::new(2);
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
        let logged: Vec<_> = root
            .log
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
}
