//! The NF instance thread: pulls packet batches from its input rings, hands
//! each packet to its [`InstanceCore`] — the per-packet step the simulator
//! runs too: duplicate suppression, the unmodified
//! [`chc_core::NetworkFunction`] against a [`StateClient`] backed by the
//! sharded store, alerts and counters — and forwards outputs through the
//! scope-aware splitters. A planned kill fail-stops it mid-stream and hands
//! its wiring to the supervisor; the replacement runs the same body on that
//! wiring, after it has put its own replay through the same per-packet step
//! (§5.3: replayed packets first, live traffic once the last is done).

use crate::engine::EngineShared;
use crate::fault::InstanceRecovery;
use crate::plan::InstancePlan;
use crate::report::RuntimeInstanceReport;
use crate::telemetry::{StoreTimer, TimedHandle, VertexStageMetrics};
use crate::wiring::{forwards_in_order, idle_wait, Downstream, InputRing, InstanceWiring, OutLink};
use chc_core::{delete_token, InstanceCore, StateClient, Step, TaggedPacket};
use chc_sim::VirtualTime;
use chc_store::{Clock, StateKey, StateScope, Value};
use chc_telemetry::{EventKind, SpanEvent, SpanKind, TraceLane};
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};
use std::time::Instant;

/// Callback notifications (store → instance) for read-heavy cached objects.
/// Unlike the packet path this is many-producers → one-consumer and very low
/// rate, so a mutexed vector is the right tool.
pub(crate) type Inbox = Arc<Mutex<Vec<(StateKey, Value)>>>;

/// What a fail-stopped instance hands to the supervisor: its complete SPSC
/// wiring, ready for a replacement thread to take over. Unflushed output
/// buffers have already been discarded (a crashed process loses them), and
/// in-flight packets still queued in the input rings survive, exactly as
/// packets in the network survive an endpoint crash.
pub(crate) struct DyingInstance {
    pub(crate) slot: usize,
    pub(crate) wiring: InstanceWiring,
}

/// Arms one instance thread with its fail-stop trigger
/// ([`InstancePlan::kill_at`]) and the channel its wiring leaves through.
pub(crate) struct KillSwitch {
    pub(crate) slot: usize,
    pub(crate) at_counter: u64,
    pub(crate) tx: mpsc::Sender<DyingInstance>,
}

/// What an instance thread hands back when it exits.
pub(crate) struct InstanceResult {
    pub(crate) report: RuntimeInstanceReport,
    /// The instance fail-stopped; its counters are partial.
    pub(crate) failed: bool,
    /// A replacement's failover record, once its replay is done.
    pub(crate) recovery: Option<InstanceRecovery>,
}

/// One instance thread's state between set-up and exit.
struct Instance<'a> {
    plan: InstancePlan,
    wiring: InstanceWiring,
    shared: &'a EngineShared,
    client: StateClient,
    /// Span state: on-path instances time queue wait, service and store RTT
    /// of the timed packets; the store handle feeds the same per-vertex
    /// histograms. Off-path instances consume copies outside the delivery
    /// path, so timing them would break the decomposition's telescoping.
    spans: bool,
    lane: TraceLane,
    stage: Arc<VertexStageMetrics>,
    store_timer: Rc<StoreTimer>,
    /// Ring-transfer batches consumed, and replayed packets not re-emitted
    /// (`RuntimeInstanceReport::replay_egress_gated`).
    batches_in: u64,
    egress_gated: u64,
    /// The core's duplicate window (fault mode only) is pruned at the
    /// instance's own watermark while that watermark is exact: every input
    /// ring clock-ordered — fixed at wiring time — and nothing fail-stopped
    /// yet (see `prune_seen`).
    prunable: bool,
}

/// Body of one NF instance thread — a planned instance, armed with `kill`
/// when the fault plan targets it, or a failover replacement
/// ([`InstancePlan::takeover`]) on its predecessor's wiring.
pub(crate) fn run_instance(
    plan: InstancePlan,
    wiring: InstanceWiring,
    shared: &EngineShared,
    mut kill: Option<KillSwitch>,
) -> InstanceResult {
    let mut me = set_up(plan, wiring, shared);
    let recovery = replay(&mut me);
    // Increments leave in clock order, and may fold once a replay is drained.
    if forwards_in_order(&me.wiring.inputs) && !me.plan.core.admits_repeats() {
        me.client.declare_ordered_writer();
    }
    let failed = match run_batches(&mut me, &mut kill) {
        Some(killed_at_clock) => {
            let switch = kill.take().expect("fail-stop without a kill switch");
            fail_stop(&mut me, switch, killed_at_clock);
            true
        }
        None => {
            shut_down(&mut me);
            false
        }
    };
    // Both exits report the core's counters and its duplicate window.
    let (plan, counters) = (&me.plan, me.plan.core.counters());
    let report = RuntimeInstanceReport {
        vertex: plan.vertex,
        instance: plan.instance,
        processed: counters.processed,
        dropped_by_nf: counters.dropped_by_nf,
        suppressed_duplicates: counters.suppressed_duplicates,
        alerts: counters.alerts.clone(),
        batches_in: me.batches_in,
        replay_egress_gated: me.egress_gated,
        dedup_window_bytes: plan.core.window_bytes(),
        buffered_refused: me.client.stats().buffered_refused,
    };
    InstanceResult {
        report,
        failed,
        recovery,
    }
}

/// Set-up, on the instance's own thread.
fn set_up(plan: InstancePlan, wiring: InstanceWiring, shared: &EngineShared) -> Instance<'_> {
    let spans = shared.telemetry.config.observers && !plan.core.off_path();
    let stage: Arc<VertexStageMetrics> = shared
        .telemetry
        .stages
        .get(&plan.vertex)
        .cloned()
        .unwrap_or_default();
    let store_timer = Rc::new(StoreTimer::default());

    // The client is constructed *inside* the thread: it is deliberately not
    // Send (the simulator backend is single-threaded); only the store handle
    // crosses the thread boundary.
    let handle: Box<dyn chc_core::StateHandle> = if spans {
        Box::new(TimedHandle {
            inner: Arc::clone(&shared.server),
            stage: Arc::clone(&stage),
            timer: Rc::clone(&store_timer),
        })
    } else {
        Box::new(Arc::clone(&shared.server))
    };
    let mut client = StateClient::new(
        plan.vertex,
        plan.instance,
        handle,
        shared.config.mode,
        shared.config.costs,
        &plan.objects,
    );
    if shared.write_behind {
        // Capped at the ring batch: the buffer drains exactly at batch
        // boundaries unless an op-heavy batch overflows it first.
        client.set_write_behind(true, shared.batch);
    }
    if plan.replicas > 1 {
        // Another instance of this vertex reads and writes the same
        // cross-flow objects: a copy kept while exclusive (Table 1 row 4)
        // would be maintained by nobody, so they are served by the store.
        for object in &plan.objects {
            if matches!(object.scope, StateScope::CrossFlow(_)) {
                client.set_exclusive(&object.name, false, Clock(0));
            }
        }
    }
    Instance {
        batches_in: 0,
        egress_gated: 0,
        prunable: shared.fault_mode && wiring.inputs.iter().all(|r| r.ordered),
        lane: TraceLane::Vertex {
            vertex: plan.vertex.0,
            instance: plan.instance.0 as u64,
        },
        plan,
        wiring,
        shared,
        client,
        spans,
        stage,
        store_timer,
    }
}

/// A replacement's first job (§5.3): take a snapshot of its vertex's replay
/// sources, keep the copies that route to its own index, and put each
/// through the per-packet step, marked as replayed for it. Its store
/// effects land and its outputs are flushed before the replay is journaled
/// complete; only then does the caller pop a live ring. A planned instance
/// has nothing to replay.
fn replay(me: &mut Instance<'_>) -> Option<InstanceRecovery> {
    let shared = me.shared;
    let (vertex, index, replacement) = (me.plan.vertex, me.plan.index, me.plan.instance);
    let Some(takeover) = &me.plan.takeover else {
        return None;
    };
    let (failed_instance, started) = (takeover.failed, takeover.started);
    let snapshot = shared
        .logs
        .replay(&takeover.sources, &takeover.splitter, index);
    let packets_replayed = snapshot.len() as u64;
    for (i, mut tp) in snapshot.into_iter().enumerate() {
        if i % shared.batch == 0 {
            // Ring-batch strides, as the batch loop pops: store callbacks
            // and buffered store ops land at every boundary.
            drain_store_buffer(&mut me.client, shared);
            me.take_callbacks();
        }
        tp.replay_for = Some(replacement);
        if let Some(tag) = tp.trace {
            shared.telemetry.trace_span(SpanEvent {
                trace_id: tag.id,
                lane: me.lane,
                kind: SpanKind::ReplayInject,
                t_ns: shared.telemetry.now_ns(),
                dur_ns: 0,
            });
        }
        shared.telemetry.replay_progress.inc();
        me.step(tp, false);
    }
    drain_store_buffer(&mut me.client, shared);
    me.wiring.links_mut().for_each(OutLink::flush);

    let (vertex_id, index_id) = (vertex.0, index as u32);
    shared.telemetry.event(EventKind::ReplayComplete {
        vertex: vertex_id,
        index: index_id,
        instance: replacement.0 as u64,
        packets_replayed,
    });
    let recovery_wall = started.unwrap_or_else(Instant::now).elapsed();
    shared.telemetry.event(EventKind::FailoverEnd {
        vertex: vertex_id,
        index: index_id,
        instance: replacement.0 as u64,
        recovery_ns: recovery_wall.as_nanos() as u64,
    });
    // Truncation may go on (see `EngineShared::replays_running`).
    shared.replays_running.fetch_sub(1, Ordering::AcqRel);
    Some(InstanceRecovery {
        vertex,
        index,
        failed_instance,
        replacement,
        packets_replayed,
        recovery_wall,
    })
}

/// The batch loop. Returns the clock that tripped the kill switch when the
/// instance fail-stops, `None` once every input ring is exhausted.
fn run_batches(me: &mut Instance<'_>, kill: &mut Option<KillSwitch>) -> Option<u64> {
    let shared = me.shared;
    let mut work: Vec<TaggedPacket> = Vec::with_capacity(shared.batch);
    let mut idle_streak = 0u32;
    loop {
        me.take_callbacks();
        let mut moved = 0usize;
        for i in 0..me.wiring.inputs.len() {
            let n = me.wiring.inputs[i].rx.pop_batch(&mut work, shared.batch);
            if n == 0 {
                continue;
            }
            if let Some(s) = &shared.telemetry.sentinel {
                s.ledger.ring_popped.add(n as u64);
            }
            moved += n;
            me.batches_in += 1;
            for (pos, tp) in work.drain(..).enumerate() {
                // Fail-stop trigger: die *before* processing the packet.
                // Everything still queued (this batch's tail included) stays
                // in flight for the replacement; the already-popped remainder
                // of *this* batch dies with the instance and is booked as
                // kill-lost so conservation still closes.
                if let Some(k) = &kill {
                    if tp.clock.counter() >= k.at_counter {
                        if let Some(s) = &shared.telemetry.sentinel {
                            s.ledger.kill_lost.add((n - pos) as u64);
                        }
                        // Every packet processed before the kill must have
                        // its store effects applied, exactly as on the per-op
                        // path — the buffer is part of the process image and
                        // would otherwise die here.
                        drain_store_buffer(&mut me.client, shared);
                        return Some(tp.clock.counter());
                    }
                }
                let input = &mut me.wiring.inputs[i];
                input.last_counter = input.last_counter.max(tp.clock.counter());
                me.step(tp, true);
            }
        }

        if moved > 0 {
            idle_streak = 0;
            // Ring batch boundary: land the batch's buffered store ops as
            // one batched apply. In fault mode this must precede the
            // watermark (commit implies durable — a confirmed packet's
            // store effects survive any later crash); outside fault mode it
            // bounds write-behind latency to one wake-up.
            drain_store_buffer(&mut me.client, shared);
            if shared.fault_mode {
                // Commit implies durable: flush the batched outputs before
                // publishing the watermark, so a crash after publication can
                // never lose a confirmed packet's effects.
                me.wiring.links_mut().for_each(OutLink::flush);
                publish_watermark(shared, &me.plan, &me.wiring.inputs);
                if me.prunable {
                    prune_seen(&mut me.plan.core, shared, &me.wiring.inputs);
                }
            }
        } else {
            // Idle: release buffered output so downstream instances are not
            // starved by a partially filled batch, then check for shutdown.
            // An armed kill that never fired drops its switch on return, so
            // the supervisor sees the fault channel disconnect.
            drain_store_buffer(&mut me.client, shared);
            me.wiring.links_mut().for_each(OutLink::flush);
            if me.wiring.inputs.iter_mut().all(|r| r.rx.is_exhausted()) {
                return None;
            }
            idle_streak += 1;
            idle_wait(idle_streak, &mut me.wiring.inputs);
        }
    }
}

impl Instance<'_> {
    /// Store callbacks keep read-heavy cached objects fresh (Table 1); the
    /// rate is low, so one drain per wake-up is plenty.
    fn take_callbacks(&mut self) {
        let inbox = &self.shared.inboxes[self.plan.instance.0 as usize];
        let mut inbox = inbox.lock().unwrap_or_else(|e| e.into_inner());
        for (key, value) in inbox.drain(..) {
            self.client.handle_callback(&key, value);
        }
    }

    /// The per-packet step, for a live packet and a replayed one alike: the
    /// core admits or suppresses it and runs the NF, the spans of a timed
    /// or traced packet are recorded, and the output is forwarded (egress
    /// logging and the tail's replay gate included).
    #[inline]
    fn step(&mut self, mut tp: TaggedPacket, live: bool) {
        let shared = self.shared;
        let traced = tp.trace.map(|t| t.id);
        // Span timing covers live timed packets only: a replayed packet's
        // hop stamp is stale, and its processing is recovery work, not
        // steady-state service time. A replayed *traced* packet still gets a
        // service span (marked replay) so a trace shows the killed vertex's
        // packets being re-processed by the replacement; it never feeds the
        // stage histograms.
        let timed = self.spans && live && tp.is_timed();
        let t_in = (timed || (traced.is_some() && !live)).then(|| {
            self.store_timer.arm();
            shared.telemetry.now_ns()
        });
        // The wall clock is the cost on threads: the core's charge is left
        // unread.
        let now = VirtualTime::from_nanos(tp.packet.arrival_ns);
        let step = self.plan.core.on_packet(&mut tp, &mut self.client, now);
        if step == Step::Suppressed {
            // A repeated clock is a replay or a re-injection (§5.3): the
            // core counted it, and nothing else happens to it.
            self.store_timer.disarm();
            if let Some(id) = traced {
                shared.telemetry.trace_span(SpanEvent {
                    trace_id: id,
                    lane: self.lane,
                    kind: SpanKind::Suppress,
                    t_ns: t_in.unwrap_or_else(|| shared.telemetry.now_ns()),
                    dur_ns: 0,
                });
            }
            return;
        }
        forward_callbacks(&mut self.client, shared);
        if let Some(t_in) = t_in {
            let t_out = shared.telemetry.now_ns();
            let store_ns = self.store_timer.disarm();
            let dur_ns = t_out.saturating_sub(t_in);
            let (stage, mut queue_wait_ns) = (&self.stage, 0);
            if timed {
                queue_wait_ns = t_in.saturating_sub(tp.hop_ns);
                stage.queue_ns.record(queue_wait_ns);
                stage.store_ns.record(store_ns);
                stage.service_ns.record(dur_ns.saturating_sub(store_ns));
                // This stage lets go: the next hop measures its queue wait
                // from here.
                tp.hop_ns = t_out;
            }
            if let Some(id) = traced {
                shared.telemetry.trace_span(SpanEvent {
                    trace_id: id,
                    lane: self.lane,
                    kind: SpanKind::Service {
                        queue_wait_ns,
                        store_ns,
                        replay: !live,
                    },
                    t_ns: t_in,
                    dur_ns,
                });
            }
        }
        let InstanceWiring {
            outs, sink_link, ..
        } = &mut self.wiring;
        if forward(tp, step, &self.plan, shared, outs, sink_link) {
            self.egress_gated += 1;
        }
    }
}

/// Fail-stop: unflushed output batches die with the process; the wiring
/// goes to the supervisor for the replacement thread.
fn fail_stop(me: &mut Instance<'_>, switch: KillSwitch, killed_at_clock: u64) {
    for link in me.wiring.links_mut() {
        link.buf.clear();
    }
    // Journal the death *before* notifying the supervisor, so the kill
    // event is causally ordered before every failover event.
    me.shared.telemetry.event(EventKind::InstanceKilled {
        vertex: me.plan.vertex.0,
        index: me.plan.index as u32,
        instance: me.plan.instance.0 as u64,
        clock: killed_at_clock,
    });
    me.shared.fail_stopped.store(true, Ordering::Relaxed);
    let _ = switch.tx.send(DyingInstance {
        slot: switch.slot,
        wiring: std::mem::take(&mut me.wiring),
    });
}

/// Healthy shutdown: whatever the last (partial) batch buffered must reach
/// the store before the streams close and the final watermark.
fn shut_down(me: &mut Instance<'_>) {
    drain_store_buffer(&mut me.client, me.shared);
    for link in me.wiring.links_mut() {
        link.flush();
        link.producer.close();
    }
    if me.shared.fault_mode {
        publish_watermark(me.shared, &me.plan, &me.wiring.inputs);
        if me.prunable {
            prune_seen(&mut me.plan.core, me.shared, &me.wiring.inputs);
        }
    }
}

/// Hand the callbacks a store update produced for *other* instances to
/// their inboxes.
fn forward_callbacks(client: &mut StateClient, shared: &EngineShared) {
    for (other, key, value) in client.take_pending_callbacks() {
        if let Some(inbox) = shared.inboxes.get(other.0 as usize) {
            inbox
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push((key, value));
        }
    }
}

/// Drain the client's write-behind buffer (one batched store apply) and
/// forward any callbacks the drained ops produced. Called at ring batch
/// boundaries and before every barrier the buffered ops must not cross —
/// commit-watermark publication, the fail-stop kill point, and shutdown.
/// (Blocking reads/pops, exclusivity loss and per-flow flushes drain inside
/// [`StateClient`] itself.)
fn drain_store_buffer(client: &mut StateClient, shared: &EngineShared) {
    if client.drain_write_behind() > 0 {
        forward_callbacks(client, shared);
    }
}

/// The highest counter such that every packet with a smaller-or-equal
/// counter routed to this instance has been popped: each ring delivers
/// counters monotonically, so the minimum of the per-ring maxima is exactly
/// that frontier.
fn watermark(inputs: &[InputRing]) -> u64 {
    inputs.iter().map(|r| r.last_counter).min().unwrap_or(0)
}

/// Publish this instance's commit watermark ([`watermark`], after the
/// caller processed and flushed everything it popped). A replacement only
/// gets here once its replay is done, after which its inherited watermark
/// is true again because every logged packet routed to it has been
/// re-flushed.
fn publish_watermark(shared: &EngineShared, plan: &InstancePlan, inputs: &[InputRing]) {
    if !plan.core.off_path() {
        shared.publish_watermark(plan.slot(), watermark(inputs));
    }
}

/// Forget the duplicate window up to the instance's own watermark. Sound
/// only for an instance whose input rings are all clock-ordered (the caller's
/// `prunable`) and only until the first fail-stop anywhere in the chain: each
/// ordered ring has then delivered every clock at or below its maximum,
/// routing is clock-pure, so every clock at or below the watermark that can
/// still arrive here — a replay, a re-injection — was already processed
/// here. After a fail-stop that no longer holds: the packets that died in
/// the failed component's output buffers come back *below* the watermarks
/// of everything downstream, which has meanwhile seen newer traffic, and
/// must not be mistaken for repeats — so from then on the window only grows
/// (one bit per packet). The flag is read after the pops that fed the
/// watermark, so a watermark that includes post-failure traffic always
/// sees it raised.
fn prune_seen(core: &mut InstanceCore, shared: &EngineShared, inputs: &[InputRing]) {
    if !shared.fail_stopped.load(Ordering::Relaxed) {
        core.forget_through(Clock(watermark(inputs)));
    }
}

/// Forward the outcome of one processed packet. True when a tail
/// replacement gated a replayed packet instead of re-emitting it.
fn forward(
    mut tp: TaggedPacket,
    step: Step,
    plan: &InstancePlan,
    shared: &EngineShared,
    outs: &mut [Downstream],
    sink_link: &mut Option<OutLink>,
) -> bool {
    // Dropped, or consumed off the path: nothing flows onward.
    let Step::Forward { exit } = step else {
        return false;
    };
    // FTMB-style egress logging: this vertex is the on-path upstream of some
    // killed non-entry vertex, so its live output stream is that kill's
    // replay source. The XOR delete token is folded into the envelope
    // *before* logging and forwarding, so the logged copy and the delivered
    // copy carry identical vectors and the sink's fold cancels the ledger
    // entry exactly (Figure 6), and precedes the watermark that covers the
    // packet. Replayed packets are not re-logged (their tokens are already
    // accounted; re-folding would un-cancel them).
    if plan.log_egress && tp.replay_for.is_none() {
        let token = delete_token(plan.instance, tp.clock.counter());
        tp.absorb_update_token(token);
        if let Some(mut ledger) = shared.ledger() {
            ledger.fold(tp.clock.counter(), token);
        }
        if let Some(mut log) = shared.logs.log(plan.vertex) {
            log.insert(tp.clone());
        }
    }
    // A tail replacement bounds its re-delivery window with the XOR ledger:
    // a replayed packet whose clock the sink already confirmed is processed
    // for its (store-deduped) state effects but not re-emitted to the end
    // host. Only an exit has a sink link; the ledger is unlocked by then.
    let gated = exit
        && tp.replay_for.is_some()
        && shared
            .ledger()
            .is_some_and(|l| l.confirmed(tp.clock.counter()));
    if !gated {
        if let Some(link) = sink_link {
            link.push(tp.clone(), shared.batch);
        }
    }
    for d in outs {
        d.route(&tp, shared.batch);
    }
    gated
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::plan::tests::{fw_nat_lb, NAT};
    use crate::plan::ChainPlan;
    use crate::wiring::wire;
    use chc_core::ChainConfig;
    use chc_packet::{TraceConfig, TraceGenerator};

    /// Only the simulator reads the XOR tokens of a packet's store updates
    /// (Figure 6): an engine instance's client records none, though its NF
    /// updates state.
    #[test]
    fn an_engine_instance_records_no_update_tokens() {
        let (config, rt) = (ChainConfig::default(), RuntimeConfig::default());
        let trace = TraceGenerator::new(TraceConfig::small(3)).generate();
        let mut plan = ChainPlan::new(&fw_nat_lb(), &config, &rt, trace.len()).unwrap();
        let shared = EngineShared::new(&plan, config, &rt);
        let mut wired = wire(&plan, &shared.telemetry);
        let (mut instances, _) = plan.take_threads();
        let slot = instances.iter().position(|p| p.vertex == NAT).unwrap();
        let (nat, wiring) = (
            instances.swap_remove(slot),
            wired.instances.swap_remove(slot),
        );
        let mut me = set_up(nat, wiring, &shared);
        for (n, packet) in (1..).zip(trace.packets.iter().take(64)) {
            let mut tp = TaggedPacket::new(packet.clone(), Clock(n));
            me.plan
                .core
                .on_packet(&mut tp, &mut me.client, VirtualTime::ZERO);
            assert!(me.plan.core.tokens().is_empty());
        }
        let stats = me.client.stats();
        assert!(stats.blocking_ops + stats.non_blocking_ops > 0);
    }
}
