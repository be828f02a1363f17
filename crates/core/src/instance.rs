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
//! * replay gating for clones and failover instances (process replayed
//!   traffic first, buffer live traffic until the replay ends),
//! * commit-signal emission for the root's XOR delete protocol (Figure 6),
//! * callback delivery for read-heavy cached objects, and
//! * chain-tail duties: the "delete-before-output" rule of §5.4.

use crate::chain::Topology;
use crate::config::ChainConfig;
use crate::instance_core::{InstanceCore, InstanceCounters, Step};
use crate::message::{Msg, TaggedPacket};
use crate::splitter::PartitionTable;
use crate::state::StateClient;
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
    /// it processes replayed traffic first and buffers live traffic until the
    /// packet marked "last of replay" has been processed (§5.3).
    pub awaiting_replay: bool,
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
    workers: WorkerPool,
    /// Artificial extra per-packet delay (straggler emulation).
    extra_delay: SimDuration,
    /// Scope keys whose per-flow state is still owned by the old instance;
    /// their packets are buffered until `HandoverComplete` (Figure 4 step 4).
    awaiting_handover: HashSet<ScopeKey>,
    /// True while a clone/failover instance waits for the end of replay.
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
        // Replay gating for clones / failover instances: live (non-replay)
        // traffic is buffered until the replay burst has been consumed.
        if self.awaiting_replay && tp.replay_for != Some(self.params.instance) {
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
            if tp.mark.first_of_move {
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
        let end_of_replay = tp.replay_for == Some(self.params.instance) && tp.mark.last_of_replay;
        self.process_packet(tp, ctx);
        if end_of_replay && self.awaiting_replay {
            self.awaiting_replay = false;
            self.drain_buffer(ctx);
        }
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
                if exit {
                    ctx.send_with_extra_delay(self.root, delete, delay);
                    ctx.send_with_extra_delay(self.sink, Msg::Delivered(tp.clone()), delay);
                }
                for vertex in self.params.downstream.clone() {
                    self.forward_to_vertex(vertex, &tp, delay, ctx);
                }
            }
            _ => {}
        }
    }

    fn forward_to_vertex(
        &mut self,
        vertex: VertexId,
        tp: &TaggedPacket,
        delay: SimDuration,
        ctx: &mut Ctx<'_, Msg>,
    ) {
        let route = self
            .partition
            .borrow_mut()
            .route_clocked(vertex, &tp.packet, tp.clock);
        let Some(route) = route else { return };
        let target = self
            .topology
            .borrow()
            .actor_of(vertex, route.instance_index);
        if let Some(actor) = target {
            let mut copy = tp.clone();
            copy.mark.first_of_move = route.mark.first_of_move;
            copy.mark.last_of_move = route.mark.last_of_move;
            ctx.send_with_extra_delay(actor, Msg::Data(copy), delay);
        }
        if let Some(mirror) = route.mirror_index {
            if let Some(actor) = self.topology.borrow().actor_of(vertex, mirror) {
                let mut copy = tp.clone();
                copy.replicated = true;
                ctx.send_with_extra_delay(actor, Msg::Data(copy), delay);
            }
        }
    }

    fn handle_flush(&mut self, new_owner: InstanceId, ctx: &mut Ctx<'_, Msg>) {
        self.client.flush_per_flow(true, Clock::with_root(0, 0));
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

impl Actor<Msg> for NfInstanceActor {
    fn on_message(&mut self, _from: Option<ActorId>, msg: Msg, ctx: &mut Ctx<'_, Msg>) {
        match msg {
            Msg::Data(tp) => self.handle_data(tp, ctx),
            Msg::CallbackUpdate { key, value } => self.client.handle_callback(&key, value),
            Msg::HandoverComplete => self.handle_handover_complete(ctx),
            Msg::FlushRequest { notify } => self.handle_flush(notify, ctx),
            Msg::SetProcessingDelay { extra_nanos } => {
                self.extra_delay = SimDuration::from_nanos(extra_nanos);
            }
            _ => {}
        }
    }
}
