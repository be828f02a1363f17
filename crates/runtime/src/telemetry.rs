//! Telemetry wiring for the real-thread engine: per-stage span metrics on
//! the packet path, a store-RTT-timing state handle, the gauge monitor
//! thread, and the telemetry section of the final report.
//!
//! ## Timed packets and the decomposition identity
//!
//! Span timing is sampled: a packet is *timed* when its clock counter is a
//! multiple of [`chc_core::TIMED_PERIOD`] or it carries a trace tag
//! ([`TaggedPacket::is_timed`](chc_core::TaggedPacket::is_timed)) — a pure
//! function of the trace, so every hop agrees without coordination. Only
//! timed packets cost clock reads and histogram records; the rest cross a
//! hop for a ring slot and an NF call.
//!
//! The stamps ride in the packet's envelope. The root writes the injection
//! time into `inject_ns` and `hop_ns`; each on-path instance reads `hop_ns`
//! as "when the previous stage let go of this packet", measures its own
//! queue wait and service time, and overwrites it with its egress time
//! before forwarding; the sink reads the last value as its final-hop wait
//! and `inject_ns` for the end-to-end sample. The hops therefore
//! *telescope*: for every timed packet,
//!
//! ```text
//! e2e = Σ_vertex (queue + service + store) + sink_wait
//! ```
//!
//! holds exactly, which is the consistency check the benchmark and tests
//! assert on the histogram means. Store RTT is measured inside
//! [`TimedHandle`] and *subtracted* from the enclosing service time, so the
//! three per-vertex components are disjoint.

use crate::config::TelemetryConfig;
use crate::engine::EngineShared;
use crate::fault::FaultReport;
use crate::report::RuntimeReport;
use crate::spsc::RingProbe;
use chc_core::root::ROOT_VERTEX;
use chc_core::StateHandle;
use chc_store::{Clock, InstanceId, StateKey, StoreServer, Value, VertexId};
use chc_telemetry::{
    ConservationLedger, Counter, Event, EventJournal, EventKind, GaugeSeries, HistSummary,
    InvariantKind, Sentinel, SentinelReport, SpanEvent, StreamingHistogram, TelemetrySeries,
    TraceCollector, Violation,
};
use std::cell::Cell;
use std::collections::{BTreeSet, HashMap};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Per-vertex stage histograms, shared by every instance of the vertex
/// (recording is `&self` and lock-free, so sharing costs nothing).
#[derive(Debug, Default)]
pub(crate) struct VertexStageMetrics {
    /// Wait between the previous stage's egress and this vertex's ingress
    /// (ring residency + batching delay).
    pub(crate) queue_ns: StreamingHistogram,
    /// NF processing time, store round trips excluded.
    pub(crate) service_ns: StreamingHistogram,
    /// Store round trips: one sample per timed packet (the store time inside
    /// its service span, usually 0) and one per write-behind drain that ran
    /// outside such a span.
    pub(crate) store_ns: StreamingHistogram,
    /// Ops per write-behind drain, recorded where every drain passes
    /// ([`TimedHandle::apply_batch`]); empty when write-behind is off.
    pub(crate) flush_depth: StreamingHistogram,
}

/// Shared state of the invariant sentinel: the copy-conservation ledger the
/// packet path feeds, the journal checker the sentinel thread polls, and
/// the violations collected from every checker.
pub(crate) struct SentinelState {
    /// Ring push/pop/kill-loss counters (see [`ConservationLedger`]).
    pub(crate) ledger: ConservationLedger,
    /// Every violation detected so far, in detection order.
    pub(crate) violations: Mutex<Vec<Violation>>,
    /// Journal checker plus the next journal sequence number it will poll.
    /// One lock serves the sentinel thread and the shutdown drain.
    pub(crate) checker: Mutex<(Sentinel, u64)>,
    /// Sink arrivals put through the per-flow order checker.
    pub(crate) deliveries_checked: AtomicU64,
}

impl SentinelState {
    fn new() -> SentinelState {
        SentinelState {
            ledger: ConservationLedger::new(),
            violations: Mutex::new(Vec::new()),
            checker: Mutex::new((Sentinel::new(), 0)),
            deliveries_checked: AtomicU64::new(0),
        }
    }
}

/// Run-wide telemetry state shared by every engine thread.
pub(crate) struct RunTelemetry {
    /// Copy of the run's telemetry switches.
    pub(crate) config: TelemetryConfig,
    /// Run epoch; all event and series timestamps are relative to this.
    pub(crate) t0: Instant,
    /// Stage histograms per vertex.
    pub(crate) stages: HashMap<VertexId, Arc<VertexStageMetrics>>,
    /// Final hop: last vertex egress → sink arrival.
    pub(crate) sink_wait: StreamingHistogram,
    /// Control-plane event journal, when enabled.
    pub(crate) journal: Option<EventJournal>,
    /// The root's commit frontier as last journaled (`Relaxed`: it
    /// publishes nothing, and truncation passes never overlap).
    last_frontier: AtomicU64,
    /// Packets replayed so far across all failovers (monitor gauge).
    pub(crate) replay_progress: Counter,
    /// Causal-trace span collector, when flow-sampled tracing is on.
    pub(crate) tracer: Option<TraceCollector>,
    /// Invariant-sentinel state, when the sentinel is on. `Arc` so the
    /// ledger can be shared with every [`crate::wiring::OutLink`].
    pub(crate) sentinel: Option<Arc<SentinelState>>,
}

impl RunTelemetry {
    pub(crate) fn new(
        config: TelemetryConfig,
        t0: Instant,
        vertices: impl IntoIterator<Item = VertexId>,
    ) -> RunTelemetry {
        RunTelemetry {
            config,
            t0,
            stages: vertices
                .into_iter()
                .map(|v| (v, Arc::new(VertexStageMetrics::default())))
                .collect(),
            sink_wait: StreamingHistogram::new(),
            journal: config.journal.then(EventJournal::new),
            last_frontier: AtomicU64::new(0),
            replay_progress: Counter::new(),
            tracer: config.tracing_on().then(TraceCollector::new),
            sentinel: config.sentinel.then(|| Arc::new(SentinelState::new())),
        }
    }

    /// Nanoseconds since the run epoch.
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Record a journal event (no-op when the journal is off).
    pub(crate) fn event(&self, kind: EventKind) {
        if let Some(j) = &self.journal {
            j.record(self.now_ns(), kind);
        }
    }

    /// Journal the root's commit frontier if a truncation pass found it
    /// past where it was last journaled; `dropped` is what that pass cut from
    /// the root's log. (Entries the XOR sweep deleted ahead of the frontier
    /// are gone by the time it reaches them, so the cut alone cannot tell
    /// whether the frontier moved.)
    pub(crate) fn frontier_advanced(&self, frontier: u64, dropped: u64) {
        let last = self.last_frontier.fetch_max(frontier, Ordering::Relaxed);
        if last < frontier {
            self.event(EventKind::CommitFrontier { frontier, dropped });
        }
    }

    /// Record a causal-trace span (no-op when tracing is off).
    #[inline]
    pub(crate) fn trace_span(&self, span: SpanEvent) {
        if let Some(t) = &self.tracer {
            t.record(span);
        }
    }

    /// Record an invariant violation: journaled as an `invariant_violation`
    /// event (when the journal is on) and collected for the run report.
    pub(crate) fn violation(&self, v: Violation) {
        if let Some(state) = &self.sentinel {
            self.event(EventKind::InvariantViolation {
                code: v.invariant.code(),
                observed: v.observed,
                expected: v.expected,
            });
            state
                .violations
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .push(v);
        }
    }
}

/// The per-thread switch between an instance loop and its [`TimedHandle`]:
/// the loop arms it around a timed packet's NF call, the handle adds the
/// store time it measures meanwhile, and the loop takes the sum back to
/// split the span into service and store. Both ends live on the instance
/// thread, so plain cells do.
#[derive(Default)]
pub(crate) struct StoreTimer {
    armed: Cell<bool>,
    ns: Cell<u64>,
}

impl StoreTimer {
    /// Start accumulating store time for the packet about to be processed.
    pub(crate) fn arm(&self) {
        self.ns.set(0);
        self.armed.set(true);
    }

    fn add(&self, ns: u64) {
        self.ns.set(self.ns.get() + ns);
    }

    /// Stop, returning the store time accumulated since [`StoreTimer::arm`].
    pub(crate) fn disarm(&self) -> u64 {
        self.armed.set(false);
        self.ns.take()
    }
}

/// A [`StateHandle`] that times store operations for the span decomposition.
///
/// A per-op [`apply`](StateHandle::apply) is timed only while the instance
/// loop has the [`StoreTimer`] armed, i.e. inside a timed packet; otherwise
/// it is a plain call. A write-behind drain is always timed — there is one
/// per ring batch, not one per packet — and lands in the armed packet's
/// store time or, outside one, as its own `store_ns` sample.
pub(crate) struct TimedHandle {
    pub(crate) inner: Arc<StoreServer>,
    pub(crate) stage: Arc<VertexStageMetrics>,
    pub(crate) timer: Rc<StoreTimer>,
}

impl StateHandle for TimedHandle {
    fn apply(
        &self,
        requester: InstanceId,
        key: &StateKey,
        op: &chc_store::Operation,
        clock: Option<Clock>,
    ) -> Result<chc_store::store::ApplyResult, chc_store::StoreError> {
        if !self.timer.armed.get() {
            return self.inner.apply(requester, key, op, clock);
        }
        let started = Instant::now();
        let result = self.inner.apply(requester, key, op, clock);
        let ns = started.elapsed().as_nanos() as u64;
        self.timer.add(ns);
        result
    }

    // Without this override the trait's default would fall back to per-op
    // `apply`, defeating the one-lock-per-shard batching the write-behind
    // drain exists for.
    fn apply_batch(
        &self,
        requester: InstanceId,
        ops: &[(StateKey, chc_store::Operation, Option<Clock>)],
    ) -> Vec<Result<chc_store::store::ApplyResult, chc_store::StoreError>> {
        // Every drain passes here — the cap-triggered ones inside
        // `StateClient::flush_op` as well as the ring-batch boundary ones.
        self.stage.flush_depth.record(ops.len() as u64);
        let started = Instant::now();
        let results = self.inner.apply_batch(requester, ops);
        let ns = started.elapsed().as_nanos() as u64;
        if self.timer.armed.get() {
            self.timer.add(ns);
        } else {
            self.stage.store_ns.record(ns);
        }
        results
    }

    fn register_callback(&self, key: &StateKey, instance: InstanceId) {
        self.inner.register_callback(key, instance);
    }

    fn release_ownership(
        &self,
        key: &StateKey,
        instance: InstanceId,
    ) -> Result<(), chc_store::StoreError> {
        StateHandle::release_ownership(&self.inner, key, instance)
    }

    fn acquire_ownership(
        &self,
        key: &StateKey,
        instance: InstanceId,
    ) -> Result<(), chc_store::StoreError> {
        StateHandle::acquire_ownership(&self.inner, key, instance)
    }

    fn owner_of(&self, key: &StateKey) -> Option<InstanceId> {
        StateHandle::owner_of(&self.inner, key)
    }

    fn nondet(&self, clock: Clock, slot: u32, candidate: Value) -> Value {
        StateHandle::nondet(&self.inner, clock, slot, candidate)
    }

    fn ts_snapshot(&self) -> chc_store::TsSnapshot {
        StateHandle::ts_snapshot(&self.inner)
    }

    fn is_failed(&self) -> bool {
        StateHandle::is_failed(&self.inner)
    }
}

/// Body of the monitor thread: samples every gauge at `interval`, always
/// taking one initial sample immediately and one final sample when `stop`
/// is raised, so even a very short run yields at least two points per
/// series. Returns the collected time series.
///
/// Gauges: `ring.<edge>.depth` per labelled probe in `rings`; per-shard op
/// rates; `shard.<i>.wal_depth` per shard of `journaled_shards`; in fault
/// mode `rootlog.len`, plus `vertexlog.len` — total across armed vertex
/// egress logs — when any vertex is armed.
pub(crate) fn run_monitor(
    rings: Vec<(String, RingProbe)>,
    journaled_shards: &BTreeSet<usize>,
    shared: &EngineShared,
    interval: Duration,
    stop: &AtomicBool,
) -> TelemetrySeries {
    let telemetry = &shared.telemetry;
    let server = &*shared.server;
    let log = shared.fault_mode.then_some(&shared.logs);
    let shard_count = server.shard_count();
    let mut out = TelemetrySeries::new();
    for (label, _) in &rings {
        out.series
            .push(GaugeSeries::new(format!("ring.{label}.depth")));
    }
    let shard_base = out.series.len();
    for s in 0..shard_count {
        out.series
            .push(GaugeSeries::new(format!("shard.{s}.ops_per_sec")));
    }
    let wal_base = out.series.len();
    for s in journaled_shards {
        out.series
            .push(GaugeSeries::new(format!("shard.{s}.wal_depth")));
    }
    let log_idx = log.is_some().then(|| {
        out.series.push(GaugeSeries::new("rootlog.len"));
        out.series.len() - 1
    });
    let vlog_idx = log
        .is_some_and(|l| l.armed().any(|v| v != ROOT_VERTEX))
        .then(|| {
            out.series.push(GaugeSeries::new("vertexlog.len"));
            out.series.len() - 1
        });
    // Durable-engine gauges: segment files and on-disk bytes across shards.
    // Only meaningful (and only emitted) on the append-only backend.
    let durable_idx = (server.backend_kind() == chc_store::BackendKind::AppendOnly).then(|| {
        out.series.push(GaugeSeries::new("store.segments"));
        out.series.push(GaugeSeries::new("store.durable_bytes"));
        out.series.len() - 2
    });
    // The duplicate-suppression log: flat when the replay floor keeps up
    // with the commit frontier, zero on a run with no fault plan.
    out.series.push(GaugeSeries::new("store.update_log_len"));
    let dedup_idx = out.series.len() - 1;
    out.series.push(GaugeSeries::new("replay.packets"));
    let replay_idx = out.series.len() - 1;

    let mut prev_ops: Vec<u64> = vec![0; shard_count];
    let mut prev_t_ns = 0u64;
    let mut first = true;

    let sample = |out: &mut TelemetrySeries,
                  prev_ops: &mut Vec<u64>,
                  prev_t_ns: &mut u64,
                  first: &mut bool| {
        let t_ns = telemetry.now_ns();
        for (i, (_, probe)) in rings.iter().enumerate() {
            out.series[i].push(t_ns, probe.depth() as f64);
        }
        let ops = server.ops_per_shard();
        let dt_s = (t_ns.saturating_sub(*prev_t_ns)) as f64 / 1e9;
        for (s, &now) in ops.iter().enumerate() {
            let rate = if *first || dt_s <= 0.0 {
                0.0
            } else {
                (now.saturating_sub(prev_ops[s])) as f64 / dt_s
            };
            out.series[shard_base + s].push(t_ns, rate);
        }
        *prev_ops = ops;
        *prev_t_ns = t_ns;
        *first = false;
        for (j, &s) in journaled_shards.iter().enumerate() {
            out.series[wal_base + j].push(t_ns, server.shard_journal_len(s) as f64);
        }
        if let (Some(idx), Some(log)) = (log_idx, log) {
            let rows = log.stats();
            let len = |root: bool| {
                let of_kind = rows.iter().filter(|r| (r.vertex == ROOT_VERTEX) == root);
                of_kind.map(|r| r.final_len).sum::<usize>() as f64
            };
            out.series[idx].push(t_ns, len(true));
            if let Some(idx) = vlog_idx {
                out.series[idx].push(t_ns, len(false));
            }
        }
        if let Some(idx) = durable_idx {
            out.series[idx].push(t_ns, server.durable_segments() as f64);
            out.series[idx + 1].push(t_ns, server.durable_bytes() as f64);
        }
        out.series[dedup_idx].push(t_ns, server.update_log_len() as f64);
        out.series[replay_idx].push(t_ns, telemetry.replay_progress.get() as f64);
    };

    sample(&mut out, &mut prev_ops, &mut prev_t_ns, &mut first);
    let mut last_sample = Instant::now();
    // Cap the nap so a long cadence cannot delay shutdown by more than
    // ~10ms, but never nap *shorter* than the cadence: waking faster than
    // the sampling rate just preempts the pipeline (on a single-core host
    // every spurious wake-up is a context switch on the hot path).
    let nap = interval.min(Duration::from_millis(10));
    while !stop.load(Ordering::Acquire) {
        std::thread::sleep(nap);
        if last_sample.elapsed() >= interval {
            sample(&mut out, &mut prev_ops, &mut prev_t_ns, &mut first);
            last_sample = Instant::now();
        }
    }
    sample(&mut out, &mut prev_ops, &mut prev_t_ns, &mut first);
    out
}

/// Drain new journal events through the sentinel's streaming checker,
/// recording any violations they expose. Safe to call from the sentinel
/// thread and from the shutdown path — one lock serializes them.
pub(crate) fn drain_sentinel_journal(telemetry: &RunTelemetry) {
    let (Some(state), Some(journal)) = (&telemetry.sentinel, &telemetry.journal) else {
        return;
    };
    let mut guard = state.checker.lock().unwrap_or_else(|e| e.into_inner());
    let (checker, next_seq) = &mut *guard;
    for event in journal.events_since(*next_seq) {
        *next_seq = event.seq + 1;
        for v in checker.observe(&event) {
            telemetry.violation(v);
        }
    }
}

/// Body of the sentinel thread: polls the event journal and feeds it to the
/// streaming invariant checker while the engine runs. Control-plane rate —
/// the per-packet checks (flow order, conservation counters) run in-line on
/// the sink and instance threads, not here. Performs one final drain after
/// `stop` is raised so no event recorded before shutdown is missed.
pub(crate) fn run_sentinel(telemetry: &RunTelemetry, stop: &AtomicBool) {
    loop {
        let stopping = stop.load(Ordering::Acquire);
        drain_sentinel_journal(telemetry);
        if stopping {
            break;
        }
        // Journal events are control-plane-rate (spawns, failover phases,
        // frontier advances), so a coarse poll loses nothing — and on an
        // oversubscribed host every extra wakeup preempts a worker thread,
        // which showed up as measurable throughput overhead at 500µs.
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Shutdown pass of the invariant sentinel over the report the run is about
/// to return: drain the journal tail (the final frontier truncation happens
/// after the worker scope ends, so the sentinel thread never sees it), then
/// check the whole-run invariants that only close at shutdown — failover
/// completion, packet conservation, exactly-once delivery, the dedup-log
/// bound and the packet-log bounds. `sink_arrivals` counts every copy the
/// sink popped (duplicates included); `frontier` is the final commit
/// frontier (0 outside fault mode). Returns the sentinel section of the
/// report, or `None` when the sentinel was off.
pub(crate) fn finalize_sentinel(
    shared: &EngineShared,
    run: &RuntimeReport,
    sink_arrivals: u64,
    frontier: u64,
) -> Option<SentinelReport> {
    let telemetry = &shared.telemetry;
    let state = telemetry.sentinel.as_ref()?;
    drain_sentinel_journal(telemetry);
    let t_ns = telemetry.now_ns();
    let violation = |invariant, observed, expected, detail: String| {
        telemetry.violation(Violation {
            invariant,
            t_ns,
            observed,
            expected,
            detail,
        });
    };

    // Failed instances count too: what they processed was popped.
    let instances = || run.instances.iter().chain(&run.failed_instances);
    let mut out = SentinelReport {
        ring_pushed: state.ledger.ring_pushed.get(),
        ring_popped: state.ledger.ring_popped.get(),
        kill_lost: state.ledger.kill_lost.get(),
        processed: instances().map(|r| r.processed).sum(),
        suppressed: instances().map(|r| r.suppressed_duplicates).sum(),
        sink_arrivals,
        ..SentinelReport::default()
    };
    check_failover_completion(state, &violation);
    check_conservation(&out, &violation);
    check_exactly_once(run, &violation);
    check_dedup_log_bound(run, &shared.server, &violation);
    if let Some(fault) = &run.fault {
        check_packet_log_bounds(shared, fault, (run.injected, frontier), &violation);
    }

    let checker = state.checker.lock().unwrap_or_else(|e| e.into_inner());
    out.events_checked = checker.0.events_checked;
    out.frontier_advances = checker.0.frontier_advances;
    out.deliveries_checked = state.deliveries_checked.load(Ordering::Relaxed);
    out.violations = state
        .violations
        .lock()
        .unwrap_or_else(|e| e.into_inner())
        .clone();
    Some(out)
}

/// How a shutdown check reports: `(invariant, observed, expected, detail)`.
type Report<'a> = &'a dyn Fn(InvariantKind, u64, u64, String);

/// Every failover the journal saw begin also ended, and a killed root was
/// taken over.
fn check_failover_completion(state: &SentinelState, report: Report<'_>) {
    let (unfinished, root_pending) = {
        let guard = state.checker.lock().unwrap_or_else(|e| e.into_inner());
        (
            guard.0.unfinished_failovers(),
            guard.0.root_handoff_pending(),
        )
    };
    if root_pending {
        report(
            InvariantKind::RootHandoff,
            1,
            0,
            "root was killed but no standby ever took over injection".into(),
        );
    }
    for (vertex, index) in unfinished {
        report(
            InvariantKind::FailoverPhase,
            vertex as u64,
            index as u64,
            format!("vertex {vertex} index {index}: failover never reached failover_end"),
        );
    }
}

/// Copy conservation on the rings: everything pushed was popped, and every
/// popped copy was processed, suppressed, lost to a kill or delivered.
fn check_conservation(c: &SentinelReport, report: Report<'_>) {
    let (pushed, popped, kill_lost) = (c.ring_pushed, c.ring_popped, c.kill_lost);
    if pushed != popped {
        report(
            InvariantKind::Conservation,
            popped,
            pushed,
            format!(
                "{} copies pushed into rings but {popped} popped: {} still in flight at shutdown",
                pushed,
                pushed as i64 - popped as i64
            ),
        );
    }
    let accounted = c.processed + c.suppressed + kill_lost + c.sink_arrivals;
    if popped != accounted {
        report(
            InvariantKind::Conservation,
            accounted,
            popped,
            format!(
                "popped copies unaccounted: {popped} popped vs {} processed + {} suppressed \
                 + {kill_lost} kill-lost + {} sink arrivals",
                c.processed, c.suppressed, c.sink_arrivals
            ),
        );
    }
}

/// No clock reached the sink twice unless a re-injection drill sent it.
fn check_exactly_once(run: &RuntimeReport, report: Report<'_>) {
    let reinjected = run.fault.as_ref().map_or(0, |f| f.reinjected);
    if run.duplicates > 0 && reinjected == 0 {
        report(
            InvariantKind::ExactlyOnce,
            run.duplicates,
            0,
            format!(
                "{} duplicate clocks reached the sink without a re-injection drill",
                run.duplicates
            ),
        );
    }
}

/// The dedup log keeps nothing below the replay floor, so it holds at most
/// the updates of the packets from the floor up — none at all on a run
/// without a fault plan, whose floor starts at the top.
fn check_dedup_log_bound(run: &RuntimeReport, server: &StoreServer, report: Report<'_>) {
    // Most updates one packet ever held per shard log, summed over shards.
    let widest_packet = server.update_log_widest_packet() as u64;
    let replayable = (run.injected + 1).saturating_sub(run.store_replay_floor);
    let dedup_bound = replayable.saturating_mul(widest_packet);
    let dedup_log_len = run.store_update_log_len as u64;
    if dedup_log_len > dedup_bound {
        report(
            InvariantKind::DedupLogBound,
            dedup_log_len,
            dedup_bound,
            format!(
                "store dedup log holds {dedup_log_len} updates, above the {replayable} packets \
                 from replay floor {} to injected {} x {widest_packet} updates per packet",
                run.store_replay_floor, run.injected
            ),
        );
    }
}

/// Fault-mode bounds on the packet logs: the root's log ends no longer than
/// the unconfirmed suffix past the final frontier; no log of the table —
/// they share one capacity — ever outgrew it; and every delivered clock's
/// XOR delete tokens cancelled.
fn check_packet_log_bounds(
    shared: &EngineShared,
    fault: &FaultReport,
    (injected, frontier): (u64, u64),
    report: Report<'_>,
) {
    let capacity = shared.config.root_log_capacity as u64;
    let final_len = fault.log_final_len as u64;
    let bound = injected.saturating_sub(frontier);
    if final_len > bound {
        report(
            InvariantKind::RootlogBound,
            final_len,
            bound,
            format!(
                "root log holds {final_len} entries, above the unconfirmed suffix \
                 injected {injected} - frontier {frontier}"
            ),
        );
    }
    for row in shared.logs.stats() {
        let high_water = row.high_water as u64;
        if high_water > capacity {
            report(
                InvariantKind::RootlogBound,
                high_water,
                capacity,
                format!(
                    "the packet log of vertex {} reached {high_water} entries, above its \
                     capacity {capacity}",
                    row.vertex
                ),
            );
        }
    }
    // Delivered clock counters whose token residue never cancelled.
    let xor_dirty = (shared.ledger.as_ref()).map_or(0, |l| l.dirty_confirmed().len() as u64);
    if xor_dirty > 0 {
        report(
            InvariantKind::XorResidue,
            xor_dirty,
            0,
            format!("{xor_dirty} delivered clocks finished with nonzero XOR delete-token residue"),
        );
    }
}

/// Latency decomposition of one chain stage (all instances of one vertex),
/// sampled on the timed packets: `queue.count` and `service.count` are the
/// timed live packets the vertex processed, not every packet.
#[derive(Debug, Clone)]
pub struct StageReport {
    /// The vertex this stage aggregates.
    pub vertex: VertexId,
    /// Ring residency + batching wait before processing.
    pub queue: HistSummary,
    /// NF processing time, store round trips excluded.
    pub service: HistSummary,
    /// Synchronous store RTT: one sample per timed packet (the store time
    /// inside its service span) plus one per write-behind drain that ran
    /// between packets.
    pub store: HistSummary,
    /// Ops per write-behind drain at this stage, every drain counted
    /// (zero-count when the store fast path was off).
    pub flush_depth: HistSummary,
}

impl StageReport {
    /// Mean total time a packet spends at this stage.
    fn mean_total_ns(&self) -> f64 {
        self.queue.mean_ns + self.service.mean_ns + self.store.mean_ns
    }
}

/// Telemetry section of a [`crate::RuntimeReport`], present when any
/// [`TelemetryConfig`] switch was on.
#[derive(Debug, Clone, Default)]
pub struct TelemetryReport {
    /// Per-vertex latency decomposition, in vertex-id order. Empty when
    /// spans were off.
    pub stages: Vec<StageReport>,
    /// Final hop: last vertex egress → sink arrival. Zero-count when spans
    /// were off.
    pub sink_wait: HistSummary,
    /// Gauge time series from the monitor thread. Empty when no sampling
    /// cadence was configured.
    pub series: TelemetrySeries,
    /// Journal events in global record order. Empty when the journal was
    /// off.
    pub events: Vec<Event>,
    /// Causal-trace spans in record order (per lane, the owning thread's
    /// program order). Empty when tracing was off. Export with
    /// [`chc_telemetry::chrome_trace_json`].
    pub trace_spans: Vec<SpanEvent>,
    /// Spans rejected because the trace collector hit its capacity.
    pub trace_dropped: u64,
}

impl TelemetryReport {
    /// Sum of the per-stage mean components plus the final sink hop — the
    /// spans' reconstruction of the end-to-end mean latency. Timed packets
    /// take exactly one instance per vertex and their hop stamps telescope,
    /// so this tracks the e2e histogram's mean; packets an NF drops and the
    /// drain samples in `store` are the divergence sources.
    pub fn decomposed_mean_ns(&self) -> f64 {
        self.stages
            .iter()
            .map(StageReport::mean_total_ns)
            .sum::<f64>()
            + self.sink_wait.mean_ns
    }

    /// Events of one kind name, in record order.
    pub fn events_named(&self, name: &str) -> Vec<&Event> {
        self.events
            .iter()
            .filter(|e| e.kind.name() == name)
            .collect()
    }
}

/// Assemble the report section from the shared state (called once, after
/// every engine thread has joined).
pub(crate) fn assemble_report(
    telemetry: &RunTelemetry,
    series: TelemetrySeries,
) -> TelemetryReport {
    let mut stages: Vec<StageReport> = telemetry
        .stages
        .iter()
        .filter(|(_, m)| m.service_ns.count() > 0)
        .map(|(v, m)| StageReport {
            vertex: *v,
            queue: m.queue_ns.summary(),
            service: m.service_ns.summary(),
            store: m.store_ns.summary(),
            flush_depth: m.flush_depth.summary(),
        })
        .collect();
    stages.sort_by_key(|s| s.vertex);
    TelemetryReport {
        stages,
        sink_wait: telemetry.sink_wait.summary(),
        series,
        events: telemetry
            .journal
            .as_ref()
            .map(EventJournal::snapshot)
            .unwrap_or_default(),
        trace_spans: telemetry
            .tracer
            .as_ref()
            .map(TraceCollector::snapshot)
            .unwrap_or_default(),
        trace_dropped: telemetry
            .tracer
            .as_ref()
            .map(TraceCollector::dropped)
            .unwrap_or_default(),
    }
}
