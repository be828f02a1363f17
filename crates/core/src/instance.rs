//! The NF instance runtime.
//!
//! [`NfInstanceActor`] hosts one NF instance: it owns the operator-supplied
//! [`NetworkFunction`] code and its [`StateClient`], pulls packets from its
//! input queue, runs the NF, accounts processing time (multi-worker capacity
//! model), forwards outputs through the downstream splitters, and implements
//! the per-instance halves of the CHC protocols:
//!
//! * duplicate suppression at the input queue for replayed / replicated
//!   packets (§5.3),
//! * buffering and lazy ownership acquisition during per-flow state handover
//!   (Figure 4 steps 3–8),
//! * replay gating for clones and failover instances (process replayed
//!   traffic first, buffer live traffic until the replay ends),
//! * commit-signal emission for the root's XOR delete protocol (Figure 6),
//! * callback delivery for read-heavy cached objects, and
//! * chain-tail duties: the "delete-before-output" rule of §5.4.

use crate::chain::Topology;
use crate::clock_window::ClockWindow;
use crate::config::ChainConfig;
use crate::message::{Msg, TaggedPacket};
use crate::nf::{Action, NetworkFunction, NfContext};
use crate::splitter::PartitionTable;
use crate::state::StateClient;
use chc_packet::ScopeKey;
use chc_sim::{Actor, ActorId, Ctx, Histogram, SimDuration, Throughput, TimeSeries, VirtualTime};
use chc_store::{Clock, InstanceId, VertexId};
use std::cell::RefCell;
use std::collections::HashSet;
use std::rc::Rc;

/// Processing workers (threads) per instance; they bound its throughput. The
/// paper runs its multi-threaded NF processes on 8-core servers.
const WORKERS: usize = 8;

/// Static parameters of one instance (separated out to keep construction
/// readable).
#[derive(Clone)]
pub struct InstanceParams {
    /// Logical vertex this instance belongs to.
    pub vertex: VertexId,
    /// This instance's id.
    pub instance: InstanceId,
    /// Downstream vertices (on-path and off-path) to forward to.
    pub downstream: Vec<VertexId>,
    /// True if this vertex is an exit of the chain (sends output to the end
    /// host and issues delete requests).
    pub is_tail: bool,
    /// True if the vertex is off-path (receives copies, emits no chain
    /// output).
    pub off_path: bool,
    /// True when the instance starts as a straggler clone or failover target:
    /// it processes replayed traffic first and buffers live traffic until the
    /// packet marked "last of replay" has been processed (§5.3).
    pub awaiting_replay: bool,
}

/// Per-instance measurements read back by benches and tests.
#[derive(Default)]
pub struct InstanceMetrics {
    /// Packets fully processed (including replays and duplicates).
    pub processed: u64,
    /// Packets the NF decided to drop.
    pub dropped_by_nf: u64,
    /// Duplicate packets suppressed at the input queue.
    pub suppressed_duplicates: u64,
    /// Duplicate packets that were *processed* (suppression disabled or the
    /// duplicate was not marked as replay/replicated).
    pub duplicate_packets: u64,
    /// State updates issued while processing duplicate packets.
    pub duplicate_state_updates: u64,
    /// Per-packet processing time (service time only).
    pub proc_time: Histogram,
    /// Per-packet time in the instance including queueing for a worker.
    pub total_time: Histogram,
    /// Processing-time time series (for Figures 9 and 13).
    pub series: TimeSeries,
    /// Bytes/packets completed over time.
    pub throughput: Throughput,
    /// Alerts raised by the NF, with the packet clock that triggered them.
    pub alerts: Vec<(Clock, String)>,
}

/// The actor hosting one NF instance. See the module documentation.
pub struct NfInstanceActor {
    params: InstanceParams,
    nf: Box<dyn NetworkFunction>,
    /// Client-side datastore library (public so the chain controller can
    /// harvest write-ahead logs, read logs and cached per-flow state during
    /// datastore recovery).
    pub client: StateClient,
    config: ChainConfig,
    partition: Rc<RefCell<PartitionTable>>,
    topology: Rc<RefCell<Topology>>,
    root: ActorId,
    sink: ActorId,
    /// Worker occupancy: each entry is the time the worker becomes free.
    workers: Vec<VirtualTime>,
    /// Artificial extra per-packet delay (straggler emulation).
    extra_delay: SimDuration,
    /// Clocks already seen at this instance (duplicate detection).
    seen_clocks: ClockWindow,
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
    /// Create an instance actor.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        params: InstanceParams,
        nf: Box<dyn NetworkFunction>,
        client: StateClient,
        config: ChainConfig,
        partition: Rc<RefCell<PartitionTable>>,
        topology: Rc<RefCell<Topology>>,
        root: ActorId,
        sink: ActorId,
    ) -> NfInstanceActor {
        let awaiting_replay = params.awaiting_replay;
        NfInstanceActor {
            params,
            nf,
            client,
            config,
            partition,
            topology,
            root,
            sink,
            workers: vec![VirtualTime::ZERO; WORKERS],
            extra_delay: SimDuration::ZERO,
            seen_clocks: ClockWindow::new(),
            awaiting_handover: HashSet::new(),
            awaiting_replay,
            buffer: Vec::new(),
            handover_completed_at: None,
            metrics: InstanceMetrics::default(),
        }
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

        // Duplicate handling (§5.3): the logical clock is unique per input
        // packet, so seeing a clock twice always means a replayed or
        // replicated copy (one of the two copies may be the unmarked
        // original when it was still in flight at replay time). With
        // suppression enabled the duplicate is dropped at the queue.
        let duplicate = !self.seen_clocks.insert(tp.clock);
        if duplicate {
            if self.config.duplicate_suppression {
                self.metrics.suppressed_duplicates += 1;
                return;
            }
            self.metrics.duplicate_packets += 1;
        }

        // Worker capacity model: the packet is served by the earliest-free
        // worker; service starts when both the packet and the worker are
        // ready.
        let (widx, free_at) = self
            .workers
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|(_, t)| *t)
            .expect("at least one worker");
        let start = now.max(free_at);

        // Run the NF.
        let mut nf_ctx = NfContext::new(&mut self.client, tp.clock, now);
        let action = self.nf.process(&tp.packet, &mut nf_ctx);
        let alerts = nf_ctx.take_alerts();
        for alert in alerts {
            self.metrics.alerts.push((tp.clock, alert));
        }

        // Assemble the packet's processing time: base cost + state-access
        // charges + any artificial straggler delay + (for the chain tail) the
        // synchronous delete round trip.
        let mut proc = self.config.costs.base_processing + self.extra_delay;
        proc += self.client.take_charge();
        let is_chain_output = self.params.is_tail && !self.params.off_path;
        if is_chain_output {
            proc += self.config.costs.delete_roundtrip;
        }
        let finish = start + proc;
        self.workers[widx] = finish;

        // Metrics.
        self.metrics.processed += 1;
        self.metrics.proc_time.record(proc);
        self.metrics.total_time.record(finish - now);
        // The time series records the *total* per-packet time (queueing +
        // service): that is what Figures 9 and 13 plot — blocking-op spikes
        // and the post-recovery backlog drain both show up in it.
        self.metrics
            .series
            .push(now, (finish - now).as_micros_f64());
        self.metrics.throughput.record(finish, tp.packet.len as u64);

        // Commit tokens: fold into the packet's XOR vector and signal the
        // root (the store signals commits; one store→root hop of latency).
        // Off-path NFs process *copies* whose vectors never reach the chain
        // tail, so they do not participate in the delete protocol.
        let tokens: Vec<u32> = self.client.take_packet_tokens().collect();
        if duplicate {
            self.metrics.duplicate_state_updates += tokens.len() as u64;
        }
        if !self.params.off_path {
            for token in tokens {
                tp.absorb_update_token(token);
                ctx.send_with_extra_delay(
                    self.root,
                    Msg::CommitSignal {
                        clock: tp.clock,
                        token,
                    },
                    (finish - now) + self.config.costs.store_one_way,
                );
            }
        }

        // Callbacks produced by our updates to read-heavy shared objects.
        for (other, key, value) in self.client.take_pending_callbacks() {
            if let Some(actor) = self.topology.borrow().actor_of_instance(other) {
                ctx.send_with_extra_delay(
                    actor,
                    Msg::CallbackUpdate { key, value },
                    (finish - now) + self.config.costs.store_one_way,
                );
            }
        }

        // Forwarding.
        let delay = finish - now;
        match action {
            Action::Drop => {
                self.metrics.dropped_by_nf += 1;
                if !self.params.off_path {
                    // The packet's journey through the chain ends here (even
                    // if this is not the chain tail); let the root unlog it.
                    ctx.send_with_extra_delay(
                        self.root,
                        Msg::DeleteRequest {
                            clock: tp.clock,
                            xor_vector: tp.xor_vector,
                        },
                        delay,
                    );
                }
            }
            Action::Forward(out_pkt) => {
                tp.packet = out_pkt;
                if self.params.off_path {
                    // Off-path NFs consume copies; nothing flows onward.
                    return;
                }
                if is_chain_output {
                    // §5.4: the delete request is sent before the output
                    // packet is released towards the end host.
                    ctx.send_with_extra_delay(
                        self.root,
                        Msg::DeleteRequest {
                            clock: tp.clock,
                            xor_vector: tp.xor_vector,
                        },
                        delay,
                    );
                    ctx.send_with_extra_delay(self.sink, Msg::Delivered(tp.clone()), delay);
                }
                for vertex in self.params.downstream.clone() {
                    self.forward_to_vertex(vertex, &tp, delay, ctx);
                }
            }
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
