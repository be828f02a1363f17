//! The NF instance thread: pulls packet batches from its input rings, hands
//! each packet to its [`InstanceCore`] — the per-packet step the simulator
//! runs too: duplicate suppression, the unmodified
//! [`chc_core::NetworkFunction`] against a [`StateClient`] backed by the
//! sharded store, alerts and counters — and forwards outputs through the
//! scope-aware splitters. A planned kill fail-stops it mid-stream; the same
//! thread then begins the failover and runs the replacement its kill
//! carried, on the same wiring, which first puts its own replay through the
//! same per-packet step (§5.3: replayed packets first, live traffic once the
//! last is done). At each batch boundary in fault mode an instance flushes
//! its outputs stamped with its watermark, publishes the watermark and
//! prunes its duplicate window to it, whether or not anything has failed.

use crate::engine::EngineShared;
use crate::fault::InstanceRecovery;
use crate::plan::InstancePlan;
use crate::replay::begin_failover;
use crate::report::RuntimeInstanceReport;
use crate::telemetry::{StoreTimer, TimedHandle, VertexStageMetrics};
use crate::wiring::{frontier, idle_wait, route_all, Batch, Downstream, InstanceWiring, OutLink};
use chc_core::{StateClient, Step, TaggedPacket};
use chc_packet::PacketId;
use chc_sim::VirtualTime;
use chc_store::{Clock, StateKey, StateScope, Value};
use chc_telemetry::{EventKind, SpanEvent, SpanKind, TraceLane};
use std::rc::Rc;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Callback notifications (store → instance) for read-heavy cached objects.
/// Unlike the packet path this is many-producers → one-consumer and very low
/// rate, so a mutexed vector is the right tool.
pub(crate) type Inbox = Arc<Mutex<Vec<(StateKey, Value)>>>;

/// What an instance thread hands back when it exits.
pub(crate) struct InstanceResult {
    pub(crate) report: RuntimeInstanceReport,
    /// The instance fail-stopped; its counters are partial.
    pub(crate) failed: bool,
    /// A replacement's failover record, once its replay is done.
    pub(crate) recovery: Option<InstanceRecovery>,
    /// The ids of the packets its NF dropped, for the sentinel's books;
    /// recorded only on the path and while the sentinel is on.
    pub(crate) dropped_ids: Vec<PacketId>,
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
    /// Ring-transfer batches consumed.
    batches_in: u64,
    /// Ids of the packets the NF dropped, when the sentinel keeps books.
    dropped_ids: Option<Vec<PacketId>>,
}

/// Body of one NF instance thread: a planned instance or, on the thread of
/// the instance it replaces, a failover replacement
/// ([`InstancePlan::takeover`]). When the instance's kill fires, the thread
/// begins the failover and runs the replacement on the dead instance's
/// wiring, so it hands back both results, the dead instance's first.
pub(crate) fn run_instance(
    mut plan: InstancePlan,
    wiring: InstanceWiring,
    shared: &EngineShared,
) -> Vec<InstanceResult> {
    let kill = plan.kill.take();
    let mut me = set_up(plan, wiring, shared);
    let recovery = replay(&mut me);
    // Increments leave in clock order, and may fold once a replay is drained.
    if me.plan.in_order && !me.plan.core.admits_repeats() {
        me.client.declare_ordered_writer();
    }
    let killed_at = run_batches(&mut me, kill.as_ref().map(|k| k.at_counter));
    match killed_at {
        Some(clock) => fail_stop(&mut me, clock),
        None => shut_down(&mut me),
    }
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
        dedup_window_bytes: plan.core.window_bytes(),
        buffered_refused: me.client.stats().buffered_refused,
    };
    let mut results = vec![InstanceResult {
        report,
        failed: killed_at.is_some(),
        recovery,
        dropped_ids: me.dropped_ids.take().unwrap_or_default(),
    }];
    if let (Some(kill), Some(_)) = (kill, killed_at) {
        // The dead instance's NF, client and cache die with it; its wiring
        // goes on to the replacement.
        let (slot, wiring) = (me.plan.slot(), std::mem::take(&mut me.wiring));
        drop(me);
        let seed = begin_failover(shared, slot, *kill.seed);
        results.extend(run_instance(seed, wiring, shared));
    }
    results
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
    let books = shared.telemetry.sentinel.is_some() && !plan.core.off_path();
    Instance {
        batches_in: 0,
        dropped_ids: books.then(Vec::new),
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
/// through the per-packet step as a replay. Its store effects land and its
/// outputs are flushed before the replay is journaled complete; only then
/// does the caller pop a live ring. A planned instance has nothing to
/// replay.
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
    // The stamp follows the clock-ordered replay. The snapshot holds all the
    // predecessor popped (logged upstream before it was forwarded) and, for
    // an instance in order, which replays one log written in clock order,
    // every copy routed here below one it holds.
    let popped = frontier(&me.wiring.inputs);
    let cap = if me.plan.in_order { u64::MAX } else { popped };
    let mut replayed = popped;
    for (i, tp) in snapshot.into_iter().enumerate() {
        if i % shared.batch == 0 {
            // Ring-batch strides, as the batch loop pops: store callbacks
            // and buffered store ops land at every boundary.
            drain_store_buffer(&mut me.client, shared);
            me.take_callbacks();
            let below = tp.clock.counter().saturating_sub(1).min(cap);
            me.wiring.links_mut().for_each(|l| l.set_frontier(below));
        }
        replayed = replayed.max(tp.clock.counter().min(cap));
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
    for link in me.wiring.links_mut() {
        link.set_frontier(replayed);
        link.flush();
    }

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
    Some(InstanceRecovery {
        vertex,
        index,
        failed_instance,
        replacement,
        packets_replayed,
        recovery_wall,
    })
}

/// The batch loop. Returns the clock that reached `kill_at` when the
/// instance fail-stops, `None` once every input ring is exhausted.
fn run_batches(me: &mut Instance<'_>, kill_at: Option<u64>) -> Option<u64> {
    let shared = me.shared;
    let mut idle_streak = 0u32;
    loop {
        me.take_callbacks();
        let mut moved = 0usize;
        for i in 0..me.wiring.inputs.len() {
            let Some(mut batch) = me.wiring.inputs[i].pop() else {
                continue;
            };
            if let Some(s) = &shared.telemetry.sentinel {
                s.ledger.ring_popped.add(batch.len() as u64);
            }
            moved += batch.len();
            me.batches_in += 1;
            let killed = me.consume(&mut batch, kill_at);
            // The buffer goes back to its link's pool, on a fail-stop too.
            me.wiring.inputs[i].recycle(batch);
            if killed.is_some() {
                return killed;
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
                // never lose a confirmed packet's effects. The flush carries
                // the watermark to every consumer as its ring's stamp.
                let frontier = frontier(&me.wiring.inputs);
                for link in me.wiring.links_mut() {
                    link.set_frontier(frontier);
                    link.flush();
                }
                commit(shared, &mut me.plan, frontier);
            }
        } else {
            // Idle: release buffered output so downstream instances are not
            // starved by a partially filled batch, then check for shutdown.
            drain_store_buffer(&mut me.client, shared);
            me.wiring.links_mut().for_each(OutLink::flush);
            if me.wiring.inputs.iter_mut().all(|r| r.is_exhausted()) {
                return None;
            }
            idle_streak += 1;
            idle_wait(idle_streak, &mut me.wiring.inputs);
        }
    }
}

impl Instance<'_> {
    /// Put one popped ring batch through the per-packet step,
    /// emptying it. Returns the clock that reaches `kill_at`, if one does:
    /// the instance dies *before* processing that packet. Everything
    /// still queued stays in flight for the replacement; the popped
    /// remainder of this batch dies with the instance and is booked as
    /// kill-lost, so conservation still closes.
    #[inline]
    fn consume(&mut self, batch: &mut Batch, kill_at: Option<u64>) -> Option<u64> {
        let shared = self.shared;
        let n = batch.len();
        for (pos, tp) in batch.drain(..).enumerate() {
            if let Some(at_counter) = kill_at {
                if tp.clock.counter() >= at_counter {
                    if let Some(s) = &shared.telemetry.sentinel {
                        s.ledger.kill_lost.add((n - pos) as u64);
                    }
                    // Every packet processed before the kill must have its
                    // store effects applied, exactly as on the per-op path —
                    // the buffer is part of the process image and would
                    // otherwise die here.
                    drain_store_buffer(&mut self.client, shared);
                    return Some(tp.clock.counter());
                }
            }
            self.step(tp, true);
        }
        None
    }

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
        let (core, client) = (&mut self.plan.core, &mut self.client);
        let step = core.on_packet(&mut tp, client, now, !live);
        if let (Step::Dropped, Some(ids)) = (step, &mut self.dropped_ids) {
            ids.push(tp.packet.id);
        }
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
        forward(tp, step, &self.plan, shared, outs, sink_link);
    }
}

/// Fail-stop: unflushed output batches die with the process (their buffers
/// stay with their links); the wiring stays with the thread for the
/// replacement. In-flight packets still queued in the input rings survive,
/// exactly as packets in the network survive an endpoint crash.
fn fail_stop(me: &mut Instance<'_>, killed_at_clock: u64) {
    for link in me.wiring.links_mut() {
        drop(link.discard());
    }
    // Journal the death *before* the failover begins, so the kill event is
    // causally ordered before every failover event.
    me.shared.telemetry.event(EventKind::InstanceKilled {
        vertex: me.plan.vertex.0,
        index: me.plan.index as u32,
        instance: me.plan.instance.0 as u64,
        clock: killed_at_clock,
    });
}

/// Healthy shutdown: whatever the last (partial) batch buffered must reach
/// the store before the streams close and the final watermark.
fn shut_down(me: &mut Instance<'_>) {
    drain_store_buffer(&mut me.client, me.shared);
    let frontier = frontier(&me.wiring.inputs);
    for link in me.wiring.links_mut() {
        if me.shared.fault_mode {
            link.set_frontier(frontier);
        }
        link.flush();
        link.close();
    }
    if me.shared.fault_mode {
        commit(me.shared, &mut me.plan, frontier);
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

/// Commit through `watermark`, the instance's input [`frontier`], once it
/// processed and flushed everything it popped: publish it, and forget the
/// duplicate window up to it, since every clock at or below it that can
/// still arrive — a replay, a re-injection — was processed here. That holds
/// through a fail-stop upstream: what died in the failed producer's output
/// buffers lies above its last stamp. A replacement only gets here once its
/// replay is done and re-flushed, which makes its inherited watermark true.
fn commit(shared: &EngineShared, plan: &mut InstancePlan, watermark: u64) {
    if !plan.core.off_path() {
        shared.publish_watermark(plan.slot(), watermark);
    }
    plan.core.forget_through(Clock(watermark));
}

/// Forward the outcome of one processed packet.
fn forward(
    tp: TaggedPacket,
    step: Step,
    plan: &InstancePlan,
    shared: &EngineShared,
    outs: &mut [Downstream],
    sink_link: &mut Option<OutLink>,
) {
    // Dropped, or consumed off the path: nothing flows onward.
    if !matches!(step, Step::Forward { .. }) {
        return;
    }
    // FTMB-style egress logging, if this vertex is the on-path upstream of
    // some killed non-entry vertex: its output stream, replays included, is
    // that kill's replay source. The entry is logged before the packet is
    // forwarded, so it precedes the watermark that covers the packet.
    shared.logs.log_forwarded(plan.vertex, &tp);
    // A tail replacement re-emits its whole replay: the sink counts a copy
    // of a clock it already delivered as a replay shadow. The packet moves
    // into its last destination; only a fan-out copies it.
    if let Some(link) = sink_link {
        if outs.is_empty() {
            link.push(tp, shared.batch);
            return;
        }
        link.push(tp.clone(), shared.batch);
    }
    route_all(outs, tp, shared.batch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::fault::FaultPlan;
    use crate::plan::tests::{fw_nat_lb, FW, LB, NAT};
    use crate::plan::ChainPlan;
    use crate::wiring::wire;
    use chc_core::ChainConfig;
    use chc_packet::{Trace, TraceConfig, TraceGenerator};
    use chc_store::VertexId;
    use std::sync::atomic::Ordering;

    /// A kill inside a popped ring batch loses that batch's remainder, not
    /// its buffer: the batch goes back to its link's pool, and the dying
    /// instance's half-filled output buffers stay with their links.
    #[test]
    fn a_fail_stop_mid_batch_keeps_every_link_pool_whole() {
        let (config, rt) = (ChainConfig::default(), RuntimeConfig::with_batch_size(8));
        let trace = TraceGenerator::new(TraceConfig::small(5)).generate();
        let mut plan = ChainPlan::new(&fw_nat_lb(), &config, &rt, trace.len()).unwrap();
        let shared = EngineShared::new(&plan, config, &rt);
        let mut wired = wire(&plan, &shared.telemetry);
        let mut instances = plan.take_threads();
        let slot = instances.iter().position(|p| p.vertex == FW).unwrap();
        let (fw, wiring) = (
            instances.swap_remove(slot),
            wired.instances.swap_remove(slot),
        );
        let feed = &mut wired.root_outs[0].links[0];
        let pool = feed.buffers_at_rest();
        // Two and a half batches, the firewall killed at the fifth packet.
        for (n, packet) in (1..).zip(trace.packets.iter().take(20)) {
            feed.push(TaggedPacket::new(packet.clone(), Clock(n)), shared.batch);
        }
        feed.flush();
        let mut me = set_up(fw, wiring, &shared);
        assert_eq!(run_batches(&mut me, Some(5)), Some(5));
        fail_stop(&mut me, 5);
        assert_eq!(me.wiring.inputs[0].rx.queued(), 2, "two batches in flight");
        assert_eq!(feed.buffers_at_rest(), pool, "the popped batch came back");
        for link in me.wiring.links_mut() {
            assert_eq!(
                link.buffers_at_rest(),
                pool,
                "nothing flushed, nothing lost"
            );
        }
        let ledger = &shared.telemetry.sentinel.as_ref().unwrap().ledger;
        assert_eq!(ledger.kill_lost.get(), 4, "the popped remainder died");
    }

    /// A run of fw → NAT → LB that kills the NAT and the LB: the firewall
    /// logs its egress for the NAT's replacement, and the NAT, planned or
    /// replacement, for the LB's. Slot 1 is the NAT's.
    fn nat_and_lb_killed() -> (ChainPlan, EngineShared, Trace) {
        let trace = TraceGenerator::new(TraceConfig::small(3)).generate();
        let kills = FaultPlan::new().kill(NAT, 0, 500).kill(LB, 0, 600);
        let (config, rt) = (ChainConfig::default(), RuntimeConfig::with_batch_size(8));
        let rt = rt.with_fault(kills);
        let plan = ChainPlan::new(&fw_nat_lb(), &config, &rt, trace.len()).unwrap();
        let shared = EngineShared::new(&plan, config, &rt);
        (plan, shared, trace)
    }

    /// The copies `vertex`'s row holds: each counter and its replay bit.
    fn row(shared: &EngineShared, vertex: VertexId) -> Vec<(u64, bool)> {
        let log = shared.logs.log(vertex).expect("an armed row").snapshot();
        log.iter()
            .map(|tp| (tp.clock.counter(), tp.replayed))
            .collect()
    }

    /// Packets the NAT forwarded, out of its counters.
    fn forwarded(me: &Instance<'_>) -> usize {
        let c = me.plan.core.counters();
        (c.processed - c.dropped_by_nf) as usize
    }

    /// A survivor that meets a replayed copy for the first time processes
    /// it live: it logs the copy it forwards, and logs it untagged, since the
    /// replay bit lasts one hop.
    #[test]
    fn a_survivor_logs_a_replayed_copy_it_forwards_untagged() {
        let (mut plan, shared, trace) = nat_and_lb_killed();
        let mut wired = wire(&plan, &shared.telemetry);
        let nat = plan.take_threads().swap_remove(1);
        let mut me = set_up(nat, wired.instances.swap_remove(1), &shared);
        for (n, packet) in (1..).zip(trace.packets.iter().take(6)) {
            let mut tp = TaggedPacket::new(packet.clone(), Clock(n));
            tp.replayed = true;
            me.step(tp, true);
        }
        let logged = row(&shared, NAT);
        assert!(forwarded(&me) > 0);
        assert_eq!(logged.len(), forwarded(&me));
        assert!(logged.iter().all(|&(_, replayed)| !replayed), "{logged:?}");
    }

    /// A replacement logs what it forwards out of its replay, tagged: a
    /// replacement of the vertex it logs for may need those copies.
    #[test]
    fn a_replacement_logs_its_replay_tagged() {
        let (mut plan, shared, trace) = nat_and_lb_killed();
        let mut wired = wire(&plan, &shared.telemetry);
        let kill = plan.take_threads().swap_remove(1).kill;
        let seed = *kill.expect("the NAT's kill").seed;
        // What the firewall forwarded before the NAT died.
        for (n, packet) in (1..).zip(trace.packets.iter().take(6)) {
            let tp = TaggedPacket::new(packet.clone(), Clock(n));
            shared.logs.log_forwarded(FW, &tp);
        }
        let mut me = set_up(seed, wired.instances.swap_remove(1), &shared);
        let recovery = replay(&mut me).expect("a replacement replays");
        assert_eq!(recovery.packets_replayed, 6);
        let logged = row(&shared, NAT);
        assert!(forwarded(&me) > 0);
        assert_eq!(logged.len(), forwarded(&me));
        assert!(logged.iter().all(|&(_, replayed)| replayed), "{logged:?}");
    }

    /// A replacement treats every clock at or below its predecessor's last
    /// watermark as done: a copy of one, which the logs it replays may no
    /// longer hold, is suppressed, not processed and sent on again.
    #[test]
    fn a_replacement_suppresses_what_its_predecessor_committed() {
        let (mut plan, shared, trace) = nat_and_lb_killed();
        let mut wired = wire(&plan, &shared.telemetry);
        let kill = plan.take_threads().swap_remove(1).kill;
        shared.publish_watermark(1, 4);
        let seed = begin_failover(&shared, 1, *kill.expect("the NAT's kill").seed);
        let mut me = set_up(seed, wired.instances.swap_remove(1), &shared);
        let steps: Vec<Step> = (3..=6u64)
            .map(|n| {
                let mut tp = TaggedPacket::new(trace.packets[n as usize].clone(), Clock(n));
                me.plan
                    .core
                    .on_packet(&mut tp, &mut me.client, VirtualTime::ZERO, true)
            })
            .collect();
        assert_eq!(steps[..2], [Step::Suppressed; 2]);
        assert!(
            steps[2..].iter().all(|s| *s != Step::Suppressed),
            "{steps:?}"
        );
        assert_eq!(shared.watermarks[1].load(Ordering::Acquire), 0);
    }
}
