//! The NF instance runtime.
//!
//! [`NfInstanceActor`] hosts one NF instance: it owns the operator-supplied
//! [`crate::NetworkFunction`] code, inside the [`InstanceCore`] that runs each
//! packet's step (duplicate suppression at the input queue, the NF, its
//! alerts and counters), and its [`StateClient`]. It pulls packets from its
//! input queue, accounts processing time (multi-worker capacity model),
//! forwards outputs through the downstream splitters, and implements the
//! simulator's halves of the CHC protocols:
//!
//! * buffering and lazy ownership acquisition during per-flow state handover
//!   (Figure 4 steps 3–8),
//! * replay for clones and failover instances (§5.3): on the controller's
//!   [`Msg::Replay`] the instance takes its own snapshot of the packet logs
//!   and processes it before the live traffic it buffered meanwhile,
//! * egress logging: an instance of a vertex some other vertex replays from
//!   copies each live packet it forwards into its vertex's row of the shared
//!   [`VertexLogs`],
//! * commit-signal emission for the root's XOR delete protocol (Figure 6),
//! * callback delivery for read-heavy cached objects, and
//! * chain-tail duties: the "delete-before-output" rule of §5.4.

use crate::chain::Topology;
use crate::config::ChainConfig;
use crate::instance_core::{InstanceCore, InstanceCounters, Step};
use crate::message::{Msg, TaggedPacket};
use crate::splitter::PartitionTable;
use crate::state::StateClient;
use crate::vertexlog::VertexLogs;
use chc_packet::ScopeKey;
use chc_sim::{
    Actor, ActorId, Ctx, Histogram, SimDuration, Throughput, TimeSeries, VirtualTime, WorkerPool,
};
use chc_store::{Clock, InstanceId, VertexId};
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

/// Processing workers (threads) per instance; they bound its throughput. The
/// paper runs its multi-threaded NF processes on 8-core servers.
const WORKERS: usize = 8;

/// Static parameters of one instance (separated out to keep construction
/// readable).
pub struct InstanceParams {
    /// Logical vertex this instance belongs to.
    pub vertex: VertexId,
    /// This instance's id.
    pub instance: InstanceId,
    /// Downstream vertices (on-path and off-path) to forward to.
    pub downstream: Vec<VertexId>,
    /// True when the instance starts as a straggler clone or failover target:
    /// it buffers live traffic until its [`Msg::Replay`] has been processed
    /// (§5.3).
    pub awaiting_replay: bool,
    /// The chain's packet logs: the instance replays from them, and when its
    /// vertex has a row (some vertex replays from its egress) it logs there
    /// every live packet it forwards.
    pub logs: Rc<VertexLogs>,
}

/// Per-instance timings read back by benches and tests; the counters are
/// the core's ([`NfInstanceActor::counters`]).
#[derive(Default)]
pub struct InstanceMetrics {
    /// Per-packet processing time (service time only).
    pub proc_time: Histogram,
    /// Processing-time time series (for Figures 9 and 13).
    pub series: TimeSeries,
    /// Bytes/packets completed over time.
    pub throughput: Throughput,
}

/// The actor hosting one NF instance. See the module documentation.
pub struct NfInstanceActor {
    params: InstanceParams,
    core: InstanceCore,
    /// Client-side datastore library (public so the chain controller can
    /// harvest write-ahead logs, read logs and cached per-flow state during
    /// datastore recovery).
    pub client: StateClient,
    config: ChainConfig,
    partition: Rc<RefCell<PartitionTable>>,
    topology: Rc<RefCell<Topology>>,
    root: ActorId,
    sink: ActorId,
    pub(crate) workers: WorkerPool,
    /// Artificial extra per-packet delay (straggler emulation).
    extra_delay: SimDuration,
    /// Scope keys whose per-flow state is still owned by the old instance;
    /// their packets are buffered until `HandoverComplete` (Figure 4 step 4).
    awaiting_handover: HashSet<ScopeKey>,
    /// True while a clone/failover instance waits for its replay.
    awaiting_replay: bool,
    /// Packets buffered by the two mechanisms above, in arrival order.
    buffer: Vec<TaggedPacket>,
    /// When the most recent handover completed (used by the R2 experiment).
    pub handover_completed_at: Option<VirtualTime>,
    /// Measurements.
    pub metrics: InstanceMetrics,
}

impl NfInstanceActor {
    /// Create an instance actor around `core`, which it gives a duplicate
    /// window.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        params: InstanceParams,
        mut core: InstanceCore,
        client: StateClient,
        config: ChainConfig,
        partition: Rc<RefCell<PartitionTable>>,
        topology: Rc<RefCell<Topology>>,
        root: ActorId,
        sink: ActorId,
    ) -> NfInstanceActor {
        let awaiting_replay = params.awaiting_replay;
        core.track_duplicates(config.duplicate_suppression);
        NfInstanceActor {
            params,
            core,
            client,
            config,
            partition,
            topology,
            root,
            sink,
            workers: WorkerPool::new(WORKERS),
            extra_delay: SimDuration::ZERO,
            awaiting_handover: HashSet::new(),
            awaiting_replay,
            buffer: Vec::new(),
            handover_completed_at: None,
            metrics: InstanceMetrics::default(),
        }
    }

    /// What the instance's step counted so far.
    pub fn counters(&self) -> &InstanceCounters {
        self.core.counters()
    }

    /// The scope key of a packet under this vertex's partitioning scope.
    fn own_scope_key(&self, tp: &TaggedPacket) -> Option<ScopeKey> {
        self.partition
            .borrow()
            .splitter(self.params.vertex)
            .map(|s| s.scope_key(&tp.packet))
    }

    fn handle_data(&mut self, tp: TaggedPacket, ctx: &mut Ctx<'_, Msg>) {
        // Replay gating for clones / failover instances: live traffic is
        // buffered until the replay has been processed.
        if self.awaiting_replay {
            self.buffer.push(tp);
            return;
        }
        // Handover buffering (Figure 4 steps 3–4): when the first packet of a
        // reallocated flow group arrives, check whether the per-flow state is
        // still associated with the old instance; if so, buffer this group's
        // packets until the store's handover notification arrives. If the old
        // instance already flushed and released (the notification raced ahead
        // of the traffic), processing continues immediately.
        if let Some(key) = self.own_scope_key(&tp) {
            if tp.first_of_move {
                let conn = ScopeKey::Flow(tp.packet.connection_key());
                if self.client.per_flow_owned_elsewhere(conn) {
                    self.awaiting_handover.insert(key);
                }
            }
            if self.awaiting_handover.contains(&key) {
                self.buffer.push(tp);
                return;
            }
        }
        self.process_packet(tp, ctx);
    }

    /// A clone or failover instance's replay (§5.3): it takes its own
    /// snapshot of the logs and puts each logged copy, marked as replayed
    /// for this instance, through the per-packet step; only then does it
    /// drain the live packets buffered meanwhile. An empty replay opens the
    /// gate at once.
    fn replay(&mut self, sources: &[VertexId], index: usize, ctx: &mut Ctx<'_, Msg>) {
        let packets = {
            let table = self.partition.borrow();
            let splitter = table.splitter(self.params.vertex).expect("a splitter");
            self.params.logs.replay(sources, splitter, index)
        };
        for mut tp in packets {
            tp.replay_for = Some(self.params.instance);
            self.process_packet(tp, ctx);
        }
        self.awaiting_replay = false;
        self.drain_buffer(ctx);
    }

    fn drain_buffer(&mut self, ctx: &mut Ctx<'_, Msg>) {
        let buffered = std::mem::take(&mut self.buffer);
        for tp in buffered {
            // Re-run the gating checks: a drained packet may still belong to
            // a different flow group that is waiting for its own handover.
            self.handle_data(tp, ctx);
        }
    }

    /// Process one packet through the NF (all gating already done).
    fn process_packet(&mut self, mut tp: TaggedPacket, ctx: &mut Ctx<'_, Msg>) {
        let now = ctx.now();
        let step = self.core.on_packet(&mut tp, &mut self.client, now);
        if step == Step::Suppressed {
            return;
        }

        // The packet's processing time: base cost + state-access charges +
        // any artificial straggler delay + (for the chain tail) the
        // synchronous delete round trip.
        let mut proc = self.config.costs.base_processing + self.extra_delay + self.core.charge();
        if self.core.exit() {
            proc += self.config.costs.delete_roundtrip;
        }
        let finish = self.workers.serve(now, proc);
        let delay = finish - now;

        self.metrics.proc_time.record(proc);
        // The time series records the *total* per-packet time (queueing +
        // service): that is what Figures 9 and 13 plot — blocking-op spikes
        // and the post-recovery backlog drain both show up in it.
        self.metrics.series.push(now, delay.as_micros_f64());
        self.metrics.throughput.record(finish, tp.packet.len as u64);

        // Commit tokens: fold into the packet's XOR vector and signal the
        // root (the store signals commits; one store→root hop of latency).
        // Off-path NFs process *copies* whose vectors never reach the chain
        // tail, so they do not participate in the delete protocol.
        let off_path = self.core.off_path();
        let via_store = delay + self.config.costs.store_one_way;
        if !off_path {
            for &token in self.core.tokens() {
                tp.absorb_update_token(token);
                let signal = Msg::CommitSignal {
                    clock: tp.clock,
                    token,
                };
                ctx.send_with_extra_delay(self.root, signal, via_store);
            }
        }

        // Callbacks produced by our updates to read-heavy shared objects.
        for (other, key, value) in self.client.take_pending_callbacks() {
            if let Some(actor) = self.topology.borrow().actor_of_instance(other) {
                ctx.send_with_extra_delay(actor, Msg::CallbackUpdate { key, value }, via_store);
            }
        }

        // Forwarding. A dropped packet's journey through the chain ends here
        // (even if this is not the chain tail), so the root may unlog it;
        // an exit sends its delete request before the output packet is
        // released towards the end host (§5.4).
        let delete = Msg::DeleteRequest {
            clock: tp.clock,
            xor_vector: tp.xor_vector,
        };
        match step {
            Step::Dropped if !off_path => ctx.send_with_extra_delay(self.root, delete, delay),
            Step::Forward { exit } => {
                // A replayed or replicated copy is not logged: another
                // instance of the vertex may process the same clock.
                if tp.replay_for.is_none() && !tp.replicated {
                    if let Some(mut log) = self.params.logs.log(self.params.vertex) {
                        log.insert(tp.clone());
                    }
                }
                if exit {
                    ctx.send_with_extra_delay(self.root, delete, delay);
                    ctx.send_with_extra_delay(self.sink, Msg::Delivered(tp.clone()), delay);
                }
                for &vertex in &self.params.downstream {
                    send_to_vertex(&self.partition, &self.topology, vertex, &tp, delay, ctx);
                }
            }
            _ => {}
        }
    }

    fn handle_flush(&mut self, new_owner: InstanceId, ctx: &mut Ctx<'_, Msg>) {
        self.client.flush_per_flow(true, Clock(0));
        if let Some(actor) = self.topology.borrow().actor_of_instance(new_owner) {
            // The datastore notifies the new instance of the handover
            // (Figure 4 step 6): one hop to the store plus one hop to the new
            // instance.
            ctx.send_with_extra_delay(
                actor,
                Msg::HandoverComplete,
                self.config.costs.store_one_way.times(2),
            );
        }
    }

    fn handle_handover_complete(&mut self, ctx: &mut Ctx<'_, Msg>) {
        // Ownership is acquired lazily on the first state access (the store
        // records the new instance as owner once the old one released it);
        // here we only need to release the buffered packets, in order.
        self.awaiting_handover.clear();
        self.handover_completed_at = Some(ctx.now());
        self.drain_buffer(ctx);
    }
}

/// Send `tp` towards `vertex`, `delay` from now: to the instance its
/// splitter picks, with the route's handover mark, and as a replicated copy
/// to a straggler's clone. The root and every instance forward through it.
pub(crate) fn send_to_vertex(
    partition: &RefCell<PartitionTable>,
    topology: &RefCell<Topology>,
    vertex: VertexId,
    tp: &TaggedPacket,
    delay: SimDuration,
    ctx: &mut Ctx<'_, Msg>,
) {
    let mut table = partition.borrow_mut();
    let Some(route) = table.route_clocked(vertex, &tp.packet, tp.clock) else {
        return;
    };
    let topology = topology.borrow();
    if let Some(actor) = topology.actor_of(vertex, route.instance_index) {
        let mut copy = tp.clone();
        copy.first_of_move = route.first_of_move;
        ctx.send_with_extra_delay(actor, Msg::Data(copy), delay);
    }
    let mirror = route.mirror_index;
    if let Some(actor) = mirror.and_then(|i| topology.actor_of(vertex, i)) {
        let mut copy = tp.clone();
        copy.replicated = true;
        ctx.send_with_extra_delay(actor, Msg::Data(copy), delay);
    }
}

impl Actor<Msg> for NfInstanceActor {
    fn on_message(&mut self, _from: Option<ActorId>, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::Data(tp) => self.handle_data(tp, ctx),
            Msg::CallbackUpdate { key, value } => self.client.handle_callback(&key, value),
            Msg::HandoverComplete => self.handle_handover_complete(ctx),
            Msg::Replay { sources, index } => self.replay(&sources, index, ctx),
            Msg::FlushRequest { notify } => self.handle_flush(notify, ctx),
            Msg::SetProcessingDelay { extra_nanos } => {
                self.extra_delay = SimDuration::from_nanos(extra_nanos);
            }
            _ => {}
        }
    }
}
