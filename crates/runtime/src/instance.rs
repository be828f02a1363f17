//! The NF instance thread: pulls packet batches from its input rings, runs
//! the unmodified [`chc_core::NetworkFunction`] against a [`StateClient`]
//! backed by the sharded store, and forwards outputs through the scope-aware
//! splitters. A planned kill fail-stops it mid-stream and hands its wiring
//! to the supervisor; the replacement runs the same body on that wiring.

use crate::engine::EngineShared;
use crate::plan::InstancePlan;
use crate::report::RuntimeInstanceReport;
use crate::telemetry::{StoreTimer, TimedHandle, VertexStageMetrics};
use crate::wiring::{idle_wait, Downstream, InputRing, InstanceWiring, OutLink};
use chc_core::{delete_token, Action, ClockWindow, NfContext, StateClient, TaggedPacket};
use chc_sim::VirtualTime;
use chc_store::{Clock, StateKey, StateScope, Value};
use chc_telemetry::{EventKind, SpanEvent, SpanKind, TraceLane};
use std::rc::Rc;
use std::sync::atomic::Ordering;
use std::sync::{mpsc, Arc, Mutex};

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
    stage: Arc<VertexStageMetrics>,
    store_timer: Rc<StoreTimer>,
    report: RuntimeInstanceReport,
    /// Clocks seen at this input queue (fault mode only). Pruned at the
    /// instance's own watermark while that watermark is exact: every live
    /// ring clock-ordered — fixed at wiring time, `prunable` — and nothing
    /// fail-stopped yet (see `prune_seen`).
    seen: ClockWindow,
    prunable: bool,
}

/// Body of one NF instance thread — a planned instance, armed with `kill`
/// when the fault plan targets it, or a failover replacement
/// ([`InstancePlan::replaces`]) on its predecessor's wiring.
pub(crate) fn run_instance(
    plan: InstancePlan,
    wiring: InstanceWiring,
    shared: &EngineShared,
    mut kill: Option<KillSwitch>,
) -> InstanceResult {
    let mut me = set_up(plan, wiring, shared);
    match run_batches(&mut me, &mut kill) {
        Some(killed_at_clock) => {
            let switch = kill.take().expect("fail-stop without a kill switch");
            fail_stop(me, switch, killed_at_clock)
        }
        None => shut_down(me),
    }
}

/// Set-up, on the instance's own thread.
fn set_up(plan: InstancePlan, wiring: InstanceWiring, shared: &EngineShared) -> Instance<'_> {
    let spans = shared.telemetry.config.spans && !plan.off_path;
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
    // Client-side WAL / read logs serve a store recovery drill the engine
    // never runs, and they grow with the packet count.
    client.set_recovery_logging(false);
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
                client.set_exclusive(&object.name, false, Clock::with_root(0, 0));
            }
        }
    }
    let mut live = wiring.inputs.iter().filter(|r| !r.replay);
    Instance {
        report: RuntimeInstanceReport {
            vertex: plan.vertex,
            instance: plan.instance,
            processed: 0,
            dropped_by_nf: 0,
            suppressed_duplicates: 0,
            alerts: Vec::new(),
            batches_in: 0,
            replay_egress_gated: 0,
            dedup_window_bytes: 0,
        },
        seen: ClockWindow::new(),
        prunable: shared.dedup && live.all(|r| r.ordered),
        plan,
        wiring,
        shared,
        client,
        spans,
        stage,
        store_timer,
    }
}

/// The batch loop. Returns the clock that tripped the kill switch when the
/// instance fail-stops, `None` once every input ring is exhausted.
fn run_batches(me: &mut Instance<'_>, kill: &mut Option<KillSwitch>) -> Option<u64> {
    let shared = me.shared;
    let (spans, stage, store_timer) = (me.spans, &me.stage, &me.store_timer);
    let (plan, client, result) = (&mut me.plan, &mut me.client, &mut me.report);
    let InstanceWiring {
        inputs,
        outs,
        sink_link,
    } = &mut me.wiring;
    let my_inbox = Arc::clone(&shared.inboxes[plan.instance.0 as usize]);
    let mut work: Vec<TaggedPacket> = Vec::with_capacity(shared.batch);
    let mut idle_streak = 0u32;
    let lane = TraceLane::Vertex {
        vertex: plan.vertex.0,
        instance: plan.instance.0 as u64,
    };

    loop {
        // Store callbacks keep read-heavy cached objects fresh (Table 1); the
        // rate is low, so one drain per wake-up is plenty.
        {
            let mut inbox = my_inbox.lock().unwrap_or_else(|e| e.into_inner());
            for (key, value) in inbox.drain(..) {
                client.handle_callback(&key, value);
            }
        }

        let mut moved = 0usize;
        for input in inputs.iter_mut() {
            work.clear();
            let n = input.rx.pop_batch(&mut work, shared.batch);
            if n == 0 {
                continue;
            }
            if let Some(s) = &shared.telemetry.sentinel {
                s.ledger.ring_popped.add(n as u64);
            }
            moved += n;
            result.batches_in += 1;
            let live = !input.replay;
            for (pos, mut tp) in work.drain(..).enumerate() {
                if live {
                    // Fail-stop trigger: die *before* processing the packet.
                    // Everything still queued (this batch's tail included)
                    // stays in flight for the replacement; the already-popped
                    // remainder of *this* batch dies with the instance and is
                    // booked as kill-lost so conservation still closes.
                    if let Some(k) = &kill {
                        if tp.clock.counter() >= k.at_counter {
                            if let Some(s) = &shared.telemetry.sentinel {
                                s.ledger.kill_lost.add((n - pos) as u64);
                            }
                            // Every packet processed before the kill must
                            // have its store effects applied, exactly as on
                            // the per-op path — the buffer is part of the
                            // process image and would otherwise die here.
                            drain_store_buffer(client, shared);
                            return Some(tp.clock.counter());
                        }
                    }
                    input.last_counter = input.last_counter.max(tp.clock.counter());
                }
                let traced = tp.trace.map(|t| t.id);
                // Duplicate suppression at the input queue (§5.3): the clock
                // is unique per input packet, so a repeat is always a replay
                // or re-injection; it is counted, never silently processed.
                if shared.dedup && !me.seen.insert(tp.clock) {
                    result.suppressed_duplicates += 1;
                    if let Some(id) = traced {
                        shared.telemetry.trace_span(SpanEvent {
                            trace_id: id,
                            lane,
                            kind: SpanKind::Suppress,
                            t_ns: shared.telemetry.now_ns(),
                            dur_ns: 0,
                        });
                    }
                    continue;
                }
                // Span timing covers live timed packets only: a replayed
                // packet's hop stamp is stale, and its processing is
                // recovery work, not steady-state service time. A replayed
                // *traced* packet still gets a service span (marked replay)
                // so a trace shows the killed vertex's packets being
                // re-processed by the replacement; it never feeds the stage
                // histograms.
                let timed = spans && live && tp.is_timed();
                let t_in = (timed || (traced.is_some() && !live)).then(|| {
                    store_timer.arm();
                    shared.telemetry.now_ns()
                });
                let action = run_nf(&tp, plan, client, shared, result);
                if let Some(t_in) = t_in {
                    let t_out = shared.telemetry.now_ns();
                    let store_ns = store_timer.disarm();
                    let dur_ns = t_out.saturating_sub(t_in);
                    let mut queue_wait_ns = 0;
                    if timed {
                        queue_wait_ns = t_in.saturating_sub(tp.hop_ns);
                        stage.queue_ns.record(queue_wait_ns);
                        stage.store_ns.record(store_ns);
                        stage.service_ns.record(dur_ns.saturating_sub(store_ns));
                        // This stage lets go: the next hop measures its
                        // queue wait from here.
                        tp.hop_ns = t_out;
                    }
                    if let Some(id) = traced {
                        shared.telemetry.trace_span(SpanEvent {
                            trace_id: id,
                            lane,
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
                forward(tp, action, plan, shared, outs, sink_link, result);
            }
        }

        if moved > 0 {
            idle_streak = 0;
            // Ring batch boundary: land the batch's buffered store ops as
            // one batched apply. In fault mode this must precede the
            // watermark (commit implies durable — a confirmed packet's
            // store effects survive any later crash); outside fault mode it
            // bounds write-behind latency to one wake-up.
            drain_store_buffer(client, shared);
            if shared.fault_mode {
                // Commit implies durable: flush the batched outputs before
                // publishing the watermark, so a crash after publication can
                // never lose a confirmed packet's effects.
                flush_all(outs, sink_link);
                publish_watermark(shared, plan, inputs);
                if me.prunable {
                    prune_seen(&mut me.seen, shared, inputs);
                }
            }
        } else {
            // Idle: release buffered output so downstream instances are not
            // starved by a partially filled batch, then check for shutdown.
            drain_store_buffer(client, shared);
            flush_all(outs, sink_link);
            if kill.is_some()
                && inputs
                    .iter_mut()
                    .filter(|r| !r.replay)
                    .all(|r| r.rx.is_exhausted())
            {
                // The live stream ended without reaching the trigger: this
                // kill can no longer fire. Dropping the switch lets the
                // supervisor observe a disconnected channel and wind down.
                *kill = None;
            }
            if inputs.iter_mut().all(|r| r.rx.is_exhausted()) {
                return None;
            }
            idle_streak += 1;
            idle_wait(idle_streak, inputs);
        }
    }
}

/// Fail-stop: unflushed output batches die with the process; the wiring
/// goes to the supervisor for the replacement thread.
fn fail_stop(mut me: Instance<'_>, switch: KillSwitch, killed_at_clock: u64) -> InstanceResult {
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
        wiring: me.wiring,
    });
    InstanceResult {
        report: me.report,
        failed: true,
    }
}

/// Healthy shutdown: whatever the last (partial) batch buffered must reach
/// the store before the streams close and the final watermark.
fn shut_down(mut me: Instance<'_>) -> InstanceResult {
    drain_store_buffer(&mut me.client, me.shared);
    for link in me.wiring.links_mut() {
        link.flush();
        link.producer.close();
    }
    if me.shared.fault_mode {
        publish_watermark(me.shared, &me.plan, &mut me.wiring.inputs);
        if me.prunable {
            prune_seen(&mut me.seen, me.shared, &me.wiring.inputs);
        }
    }
    me.report.dedup_window_bytes = me.seen.resident_bytes();
    InstanceResult {
        report: me.report,
        failed: false,
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

fn flush_all(outs: &mut [Downstream], sink_link: &mut Option<OutLink>) {
    crate::wiring::links_mut(outs)
        .chain(sink_link)
        .for_each(OutLink::flush);
}

/// The highest counter such that every live packet with a smaller-or-equal
/// counter routed to this instance has been popped: each live ring delivers
/// counters monotonically, so the minimum of the per-ring maxima is exactly
/// that frontier. Replay rings are excluded (their traffic is redundant by
/// construction).
fn live_watermark(inputs: &[InputRing]) -> u64 {
    inputs
        .iter()
        .filter(|r| !r.replay)
        .map(|r| r.last_counter)
        .min()
        .unwrap_or(0)
}

/// Publish this instance's commit watermark ([`live_watermark`], after the
/// caller processed and flushed everything it popped). A replacement stays
/// silent until its replay ring drains, after which its inherited watermark
/// is true again because every logged packet has been re-flushed.
fn publish_watermark(shared: &EngineShared, plan: &InstancePlan, inputs: &mut [InputRing]) {
    if plan.off_path {
        return;
    }
    if plan.replaces.is_some() && inputs.iter_mut().any(|r| r.replay && !r.rx.is_exhausted()) {
        return;
    }
    shared.publish_watermark(plan.slot(), live_watermark(inputs));
}

/// Forget the duplicate window up to the instance's own watermark. Sound
/// only for an instance whose live rings are all clock-ordered (the caller's
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
fn prune_seen(seen: &mut ClockWindow, shared: &EngineShared, inputs: &[InputRing]) {
    if !shared.fail_stopped.load(Ordering::Relaxed) {
        seen.forget_through(Clock::with_root(0, live_watermark(inputs)));
    }
}

/// Run one packet through the NF, leaving the forwarding to [`forward`] so a
/// timed packet's egress stamp can be taken in between.
fn run_nf(
    tp: &TaggedPacket,
    plan: &mut InstancePlan,
    client: &mut StateClient,
    shared: &EngineShared,
    result: &mut RuntimeInstanceReport,
) -> Action {
    let now = VirtualTime::from_nanos(tp.packet.arrival_ns);
    let mut ctx = NfContext::new(client, tp.clock, now);
    let action = plan.nf.process(&tp.packet, &mut ctx);
    for alert in ctx.take_alerts() {
        result.alerts.push((tp.clock, alert));
    }
    result.processed += 1;

    // The virtual cost model does not apply on real threads; wall-clock time
    // *is* the cost. The accumulators still need draining.
    let _ = client.take_charge();
    let _ = client.take_packet_tokens();
    forward_callbacks(client, shared);
    action
}

/// Forward the outcome of one processed packet.
fn forward(
    mut tp: TaggedPacket,
    action: Action,
    plan: &InstancePlan,
    shared: &EngineShared,
    outs: &mut [Downstream],
    sink_link: &mut Option<OutLink>,
    result: &mut RuntimeInstanceReport,
) {
    let Action::Forward(out_pkt) = action else {
        result.dropped_by_nf += 1;
        return;
    };
    tp.packet = out_pkt;
    if plan.off_path {
        // Off-path NFs consume copies; nothing flows onward.
        return;
    }
    // FTMB-style egress logging: this vertex is the on-path upstream of some
    // killed non-entry vertex, so its live output stream is that kill's
    // replay source. The XOR delete token is folded into the envelope
    // *before* logging and forwarding, so the logged copy and the delivered
    // copy carry identical vectors and the sink's fold cancels the ledger
    // entry exactly (Figure 6). Replayed packets are not re-logged (their
    // tokens are already accounted; re-folding would un-cancel them).
    if plan.log_egress && tp.replay_for.is_none() {
        let token = delete_token(plan.instance, tp.clock.counter());
        tp.absorb_update_token(token);
        if let Some(ledger) = &shared.ledger {
            ledger.fold(tp.clock.counter(), token);
        }
        if let Some(mut log) = shared.logs.log(plan.vertex) {
            log.insert(tp.clone());
        }
    }
    if plan.is_tail {
        // A tail replacement bounds its re-delivery window with the XOR
        // ledger: a replayed packet whose clock the sink already confirmed
        // is processed for its (store-deduped) state effects but not
        // re-emitted to the end host.
        let gated = tp.replay_for.is_some()
            && shared
                .ledger
                .as_ref()
                .is_some_and(|l| l.confirmed(tp.clock.counter()));
        if gated {
            result.replay_egress_gated += 1;
        } else if let Some(link) = sink_link {
            link.push(tp.clone(), shared.batch);
        }
    }
    for d in outs {
        d.route(&tp, shared.batch);
    }
}
