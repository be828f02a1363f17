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
//! `TimedHandle` and *subtracted* from the enclosing service time, so the
//! three per-vertex components are disjoint.

use crate::config::TelemetryConfig;
use crate::engine::EngineShared;
use crate::fault::FaultReport;
use crate::report::RuntimeReport;
use crate::wiring::LinkGauge;
use chc_core::root::{ROOT_LOG_CAPACITY, ROOT_VERTEX};
use chc_core::StateHandle;
use chc_packet::{Packet, PacketId};
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
    /// Entries per write-behind drain (ops, unless an ordered writer folds a
    /// counter's increments into one), recorded where every drain passes
    /// ([`TimedHandle::apply_batch`]); empty when write-behind is off.
    pub(crate) flush_depth: StreamingHistogram,
}

/// Shared state of the invariant sentinel: the copy-conservation ledger the
/// packet path feeds, the event checker every event passes as it is
/// recorded, and the violations collected from every checker.
pub(crate) struct SentinelState {
    /// Ring push/pop/kill-loss counters (see [`ConservationLedger`]).
    pub(crate) ledger: ConservationLedger,
    /// Every violation detected so far, in detection order.
    pub(crate) violations: Mutex<Vec<Violation>>,
    /// The event checker; [`RunTelemetry::event`] numbers, journals and
    /// checks each event under this lock.
    pub(crate) checker: Mutex<Sentinel>,
    /// Sink arrivals put through the delivery-order checker.
    pub(crate) deliveries_checked: AtomicU64,
}

impl SentinelState {
    fn new() -> SentinelState {
        SentinelState {
            ledger: ConservationLedger::new(),
            violations: Mutex::new(Vec::new()),
            checker: Mutex::new(Sentinel::new()),
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
    /// Packets replayed so far across all failovers (monitor gauge; the
    /// sentinel's conservation books count them beside the ring pops).
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
            journal: config.observers.then(EventJournal::new),
            last_frontier: AtomicU64::new(0),
            replay_progress: Counter::new(),
            tracer: config.tracing_on().then(TraceCollector::new),
            sentinel: config.observers.then(|| Arc::new(SentinelState::new())),
        }
    }

    /// Nanoseconds since the run epoch.
    #[inline]
    pub(crate) fn now_ns(&self) -> u64 {
        self.t0.elapsed().as_nanos() as u64
    }

    /// Record a control-plane event: journaled when the journal is on, and
    /// checked by the sentinel when it is on. With the sentinel on, the
    /// event is numbered (its journal index, or the checker's count when
    /// nothing is journaled), journaled and observed under the checker's
    /// lock, so the checker sees every event once, in `seq` order, when it
    /// happens. What it flags is journaled after the lock is released.
    pub(crate) fn event(&self, kind: EventKind) {
        let checker =
            (self.sentinel.as_ref()).map(|s| s.checker.lock().unwrap_or_else(|e| e.into_inner()));
        let t_ns = self.now_ns();
        let journaled = self.journal.as_ref().map(|j| j.record(t_ns, kind));
        let Some(mut checker) = checker else {
            return;
        };
        let seq = journaled.unwrap_or(checker.events_checked);
        let violations = checker.observe(&Event { seq, t_ns, kind });
        drop(checker);
        for v in violations {
            self.violation(v);
        }
    }

    /// Journal the root's commit frontier if a truncation pass found it
    /// past where it was last journaled; `dropped` is what that pass cut from
    /// the root's log. (A frontier can move and cut nothing: counters a dead
    /// root lost or a full log rejected were never logged.)
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
        let started = self.timer.armed.get().then(Instant::now);
        let result = self.inner.apply(requester, key, op, clock);
        if let Some(started) = started {
            self.timer.add(started.elapsed().as_nanos() as u64);
        }
        result
    }

    // One call into the server per drain, so the one-lock-per-shard
    // batching the write-behind drain exists for survives the wrapper.
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

    fn register_ordered_writer(&self, writer: InstanceId) -> bool {
        self.inner.register_ordered_writer(writer)
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

    fn is_failed(&self) -> bool {
        StateHandle::is_failed(&self.inner)
    }
}

/// Body of the monitor thread: samples every gauge at `interval`, always
/// taking one initial sample immediately and one final sample when `stop`
/// is raised, so even a very short run yields at least two points per
/// series. Returns the collected time series.
///
/// Gauges: `ring.<edge>.depth`, the packets (not batch slots) queued on
/// each labelled link of `rings`; per-shard op rates; `shard.<i>.journal_len`
/// per shard of `journaled_shards`; in fault mode `rootlog.len`, plus
/// `vertexlog.len` — total across armed vertex egress logs — when any
/// vertex is armed.
pub(crate) fn run_monitor(
    rings: Vec<(String, Arc<LinkGauge>)>,
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
    let journal_base = out.series.len();
    for s in journaled_shards {
        out.series
            .push(GaugeSeries::new(format!("shard.{s}.journal_len")));
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
    // Durable-engine gauges: segment files and bytes handed to them across
    // shards, and the most bytes one shard has staged that the persister has
    // not yet written. Only meaningful (and only emitted) on the append-only
    // backend.
    let durable_idx = (server.backend_kind() == chc_store::BackendKind::AppendOnly).then(|| {
        out.series.push(GaugeSeries::new("store.segments"));
        out.series.push(GaugeSeries::new("store.durable_bytes"));
        out.series.push(GaugeSeries::new("store.persist_lag_bytes"));
        out.series.len() - 3
    });
    // The duplicate-suppression log — the updates it holds and the clock
    // counters its windows span, one cell each: flat when the replay floor
    // keeps up with the commit frontier, zero on a run with no fault plan.
    out.series.push(GaugeSeries::new("store.update_log_len"));
    out.series.push(GaugeSeries::new("store.update_log_span"));
    let dedup_idx = out.series.len() - 2;
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
        for (i, (_, gauge)) in rings.iter().enumerate() {
            out.series[i].push(t_ns, gauge.depth() as f64);
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
            out.series[journal_base + j].push(t_ns, server.shard_journal_len(s) as f64);
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
            out.series[idx + 2].push(t_ns, server.persist_lag_bytes() as f64);
        }
        out.series[dedup_idx].push(t_ns, server.update_log_len() as f64);
        out.series[dedup_idx + 1].push(t_ns, server.update_log_span() as f64);
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

/// What the books invariant reads beside the report.
pub(crate) struct Books<'a> {
    /// The trace the root took its packets from, in order.
    pub(crate) trace: &'a [Packet],
    /// The highest clock the sink delivered, and every counter below it
    /// that it did not deliver.
    pub(crate) undelivered: (u64, Vec<u64>),
    /// The ids of the packets an on-path NF dropped, in any order and
    /// possibly repeated (a replacement drops again what it replays).
    pub(crate) dropped: Vec<PacketId>,
}

/// Shutdown pass of the invariant sentinel over the report the run is about
/// to return: the whole-run invariants that only close at shutdown —
/// failover completion, packet conservation, exactly-once delivery, the
/// books, the dedup-log bound and the packet-log bounds. `sink_arrivals`
/// counts every copy the sink popped (duplicates included); `last_counter`
/// is the last clock counter stamped, the highest (above `run.injected` once
/// a new root resumed past a crashed one); `frontier` is the final commit
/// frontier (0 outside fault mode). Returns the sentinel section of the
/// report, or `None` when the sentinel was off.
pub(crate) fn finalize_sentinel(
    shared: &EngineShared,
    run: &RuntimeReport,
    (sink_arrivals, books): (u64, Books<'_>),
    (last_counter, frontier): (u64, u64),
) -> Option<SentinelReport> {
    let telemetry = &shared.telemetry;
    let state = telemetry.sentinel.as_ref()?;
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
        replayed: telemetry.replay_progress.get(),
        processed: instances().map(|r| r.processed).sum(),
        suppressed: instances().map(|r| r.suppressed_duplicates).sum(),
        sink_arrivals,
        ..SentinelReport::default()
    };
    check_failover_completion(state, &violation);
    check_conservation(&out, &violation);
    check_exactly_once(run, &violation);
    check_books(run, books, last_counter, &violation);
    check_dedup_log_bound(&shared.server, last_counter, &violation);
    if let Some(fault) = &run.fault {
        check_packet_log_bounds(shared, fault, (last_counter, frontier), &violation);
    }

    let checker = state.checker.lock().unwrap_or_else(|e| e.into_inner());
    out.events_checked = checker.events_checked;
    out.frontier_advances = checker.frontier_advances;
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
/// followed by a new one.
fn check_failover_completion(state: &SentinelState, report: Report<'_>) {
    let (unfinished, root_pending) = {
        let guard = state.checker.lock().unwrap_or_else(|e| e.into_inner());
        (guard.unfinished_failovers(), guard.root_handoff_pending())
    };
    if root_pending {
        report(
            InvariantKind::RootHandoff,
            1,
            0,
            "root was killed but no new root ever took over injection".into(),
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
/// popped or replayed copy was processed, suppressed, lost to a kill or
/// delivered. A replacement takes its replayed copies from a log snapshot,
/// never from a ring, so they enter the books beside the pops.
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
    let (taken, accounted) = (
        popped + c.replayed,
        c.processed + c.suppressed + kill_lost + c.sink_arrivals,
    );
    if taken != accounted {
        report(
            InvariantKind::Conservation,
            accounted,
            taken,
            format!(
                "copies unaccounted: {popped} popped + {} replayed vs {} processed \
                 + {} suppressed + {kill_lost} kill-lost + {} sink arrivals",
                c.replayed, c.processed, c.suppressed, c.sink_arrivals
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

/// Every packet the root took is accounted for: delivered, or else by its
/// id dropped by an on-path NF or lost with a crashed root
/// (`RootTakeover::lost`). A full root log records no ids, so what is left
/// may be at most the count it rejected. Ids, not counts, so a packet
/// dropped twice cannot hide one lost. The sink names what it delivered by
/// clock, the root's name for each packet it took; the trace maps the
/// counters it did not deliver to ids, so no check reads the whole trace.
fn check_books(run: &RuntimeReport, books: Books<'_>, last_counter: u64, report: Report<'_>) {
    let fault = run.fault.as_ref();
    let takeover = fault.and_then(|f| f.root_takeover.as_ref());
    let rejected = fault.map_or(0, |f| f.log_rejected);
    let mut accounted = books.dropped;
    accounted.extend(takeover.iter().flat_map(|t| &t.lost));
    accounted.sort_unstable();
    // A new root resumes above counters nobody stamped; the trace goes on.
    let (skip, resumed) = takeover.map_or((u64::MAX, 0), |t| (t.killed_at, t.resumed_at));
    let position = |c: u64| {
        if c < skip {
            c - 1
        } else {
            c - resumed + skip - 1
        }
    };
    let (top, mut gaps) = books.undelivered;
    gaps.extend(top + 1..=last_counter);
    let missing: Vec<PacketId> = (gaps.into_iter())
        .filter(|&c| !(skip..resumed).contains(&c))
        .filter_map(|c| books.trace.get(position(c) as usize).map(|p| p.id))
        .filter(|id| accounted.binary_search(id).is_err())
        .collect();
    let unaccounted = missing.len() as u64;
    if unaccounted > rejected {
        report(
            InvariantKind::Books,
            unaccounted,
            rejected,
            format!(
                "{unaccounted} packets the root took were neither delivered, dropped by an NF \
                 nor lost with a root, and a full root log rejected {rejected}; the first: {:?}",
                &missing[..missing.len().min(8)]
            ),
        );
    }
}

/// The dedup log keeps nothing below the replay floor, so it holds at most
/// the updates of the packets from the floor up — none at all on a run
/// without a fault plan, whose floor starts at the top — and what it pays
/// for follows the same bound: no shard's window of one root spans more
/// than the counters from the floor up to the last one stamped. Reads the
/// log and the floor from `server`, each shard pruned at the floor first.
fn check_dedup_log_bound(server: &StoreServer, last_counter: u64, report: Report<'_>) {
    let floor = server.replay_floor();
    let replayable = (last_counter + 1).saturating_sub(floor);
    // Most updates one packet ever held per shard log, summed over shards.
    let widest_packet = server.update_log_widest_packet() as u64;
    let dedup_bound = replayable.saturating_mul(widest_packet);
    let dedup_log_len = server.update_log_len() as u64;
    if dedup_log_len > dedup_bound {
        report(
            InvariantKind::DedupLogBound,
            dedup_log_len,
            dedup_bound,
            format!(
                "store dedup log holds {dedup_log_len} updates, above the {replayable} packets \
                 from replay floor {floor} to counter {last_counter} x {widest_packet} updates \
                 per packet"
            ),
        );
    }
    let widest_span = server.update_log_widest_span();
    if widest_span > replayable {
        report(
            InvariantKind::DedupLogBound,
            widest_span,
            replayable,
            format!(
                "a store shard's dedup window spans {widest_span} clock counters, above the \
                 {replayable} from replay floor {floor} to counter {last_counter}"
            ),
        );
    }
}

/// Fault-mode bounds on the packet logs: the root's log ends no longer than
/// the unconfirmed suffix from the final frontier to the last counter, and
/// no log of the table — they share one capacity — ever outgrew it.
fn check_packet_log_bounds(
    shared: &EngineShared,
    fault: &FaultReport,
    (last_counter, frontier): (u64, u64),
    report: Report<'_>,
) {
    let capacity = ROOT_LOG_CAPACITY as u64;
    let final_len = fault.log_final_len as u64;
    let bound = last_counter.saturating_sub(frontier);
    if final_len > bound {
        report(
            InvariantKind::RootlogBound,
            final_len,
            bound,
            format!(
                "root log holds {final_len} entries, above the unconfirmed suffix \
                 counter {last_counter} - frontier {frontier}"
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
    /// Entries per write-behind drain at this stage, every drain counted
    /// (zero-count when the store fast path was off). An entry is one op,
    /// or in an ordered writer one counter's folded increments.
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
    /// The monitor thread's gauge time series. Empty when no sampling
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::fault::RootTakeover;
    use crate::plan::tests::fw_nat_lb;
    use crate::plan::ChainPlan;
    use chc_core::ChainConfig;
    use chc_store::{BackendKind, ObjectKey, Operation};
    use std::cell::RefCell;

    #[test]
    fn eight_writers_are_each_checked_once_in_journal_order() {
        const WRITERS: u32 = 8;
        const PER_WRITER: u64 = 500;
        let telemetry = RunTelemetry::new(TelemetryConfig::default(), Instant::now(), []);
        let start = std::sync::Barrier::new(WRITERS as usize);
        std::thread::scope(|s| {
            for vertex in 0..WRITERS {
                let (telemetry, start) = (&telemetry, &start);
                s.spawn(move || {
                    start.wait();
                    for clock in 0..PER_WRITER {
                        telemetry.event(EventKind::InstanceKilled {
                            vertex,
                            index: 0,
                            instance: clock,
                            clock,
                        });
                    }
                });
            }
        });
        let events = telemetry.journal.as_ref().expect("journal on").snapshot();
        assert_eq!(events.len() as u64, u64::from(WRITERS) * PER_WRITER);
        let sentinel = telemetry.sentinel.as_ref().expect("sentinel on");
        let checked = sentinel
            .checker
            .lock()
            .expect("no writer panicked")
            .events_checked;
        assert_eq!(checked, events.len() as u64);
        // Unsorted: the journal's own order is the seq order.
        assert!(events.iter().enumerate().all(|(i, e)| e.seq == i as u64));
    }

    #[test]
    fn a_forged_frontier_regression_is_flagged_as_it_is_recorded() {
        let (config, rt) = (ChainConfig::default(), RuntimeConfig::default());
        let plan = ChainPlan::new(&fw_nat_lb(), &config, &rt, 20).expect("valid plan");
        let shared = EngineShared::new(&plan, config, &rt);
        let telemetry = &shared.telemetry;
        telemetry.event(EventKind::CommitFrontier {
            frontier: 40,
            dropped: 40,
        });
        telemetry.event(EventKind::CommitFrontier {
            frontier: 39,
            dropped: 0,
        });
        // No thread ran: the violation is the very next journal entry.
        let events = telemetry.journal.as_ref().expect("journal on").snapshot();
        let code = InvariantKind::FrontierMonotonic.code();
        assert_eq!(events.len(), 3);
        assert_eq!(
            (events[2].seq, events[2].kind),
            (
                2,
                EventKind::InvariantViolation {
                    code,
                    observed: 39,
                    expected: 40
                }
            )
        );
        let books = Books {
            trace: &[],
            undelivered: (0, Vec::new()),
            dropped: Vec::new(),
        };
        let report = finalize_sentinel(&shared, &RuntimeReport::default(), (0, books), (0, 0));
        let report = report.expect("sentinel on");
        let flagged: Vec<_> = report.violations.iter().map(|v| v.invariant).collect();
        assert_eq!(flagged, [InvariantKind::FrontierMonotonic]);
        assert_eq!((report.events_checked, report.frontier_advances), (3, 2));
    }

    /// Six packets taken, counters 1–6; the sink delivered 1–3, and there
    /// are three drop records, which a count would take for the other three.
    /// But 4 was dropped twice (its replay dropped it again) and 6 never
    /// turns up: the books name it, unless a full root log rejected one
    /// packet or a root crash lost 6.
    #[test]
    fn the_books_compare_ids_not_counts() {
        let trace: Vec<Packet> = (1..=6).map(|id| Packet::builder().id(id).build()).collect();
        let mut run = RuntimeReport::default();
        let flagged = |run: &RuntimeReport| {
            let seen = RefCell::new(Vec::new());
            let books = Books {
                trace: &trace,
                undelivered: (3, Vec::new()),
                dropped: [4, 5, 4].map(PacketId).to_vec(),
            };
            check_books(run, books, 6, &|kind, observed, expected, detail| {
                seen.borrow_mut().push((kind, observed, expected, detail));
            });
            seen.into_inner()
        };
        let missing = flagged(&run);
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].0, InvariantKind::Books);
        assert_eq!((missing[0].1, missing[0].2), (1, 0));
        assert!(missing[0].3.contains("[PacketId(6)]"), "{}", missing[0].3);

        let mut fault = FaultReport {
            log_rejected: 1,
            ..FaultReport::default()
        };
        run.fault = Some(fault.clone());
        assert!(flagged(&run).is_empty(), "a full root log rejected it");
        fault.log_rejected = 0;
        fault.root_takeover = Some(RootTakeover {
            killed_at: 7,
            resumed_at: 101,
            lost: vec![PacketId(6)],
            recovery_wall: Duration::ZERO,
        });
        run.fault = Some(fault);
        assert!(flagged(&run).is_empty(), "the dead root lost it");
    }

    #[test]
    fn replayed_copies_close_the_books_beside_the_pops() {
        // A replacement replayed 5 logged copies (no ring pop) and processed
        // them with 90 popped ones; 2 more popped copies died in a kill and
        // 3 reached the sink.
        let books = SentinelReport {
            ring_pushed: 95,
            ring_popped: 95,
            kill_lost: 2,
            replayed: 5,
            processed: 88,
            suppressed: 7,
            sink_arrivals: 3,
            ..SentinelReport::default()
        };
        let flagged = |c: &SentinelReport| {
            let seen = RefCell::new(Vec::new());
            check_conservation(c, &|kind, observed, expected, _| {
                seen.borrow_mut().push((kind, observed, expected));
            });
            seen.into_inner()
        };
        assert_eq!(flagged(&books), []);
        // Leave the replayed copies out and five processed copies have no
        // source.
        let unreplayed = SentinelReport {
            replayed: 0,
            ..books
        };
        assert_eq!(
            flagged(&unreplayed),
            [(InvariantKind::Conservation, 100, 95)]
        );
    }

    /// What the dedup-log check reports over `server` after `injected`
    /// packets, as `(invariant, observed, expected)`.
    fn dedup_violations(server: &StoreServer, injected: u64) -> Vec<(InvariantKind, u64, u64)> {
        let seen = RefCell::new(Vec::new());
        check_dedup_log_bound(server, injected, &|kind, observed, expected, _| {
            seen.borrow_mut().push((kind, observed, expected));
        });
        seen.into_inner()
    }

    #[test]
    fn the_dedup_bound_checks_what_the_log_spans_not_only_what_it_holds() {
        let server = StoreServer::with_backend(1, BackendKind::Memory);
        server.track_replays();
        let key = StateKey::shared(VertexId(1), ObjectKey::named("pkt_count"));
        let log = |counter| {
            let clock = Some(Clock::with_root(0, counter));
            server
                .apply(InstanceId(0), &key, &Operation::Increment(1), clock)
                .unwrap();
        };
        log(1);
        log(10);
        // Ten packets injected: two updates held, ten counters spanned.
        assert_eq!(dedup_violations(&server, 10), []);
        // A forged clock far past the last injected counter: three updates
        // are well inside the length bound, but the window spans 1..=1000.
        log(1_000);
        assert_eq!(
            dedup_violations(&server, 10),
            [(InvariantKind::DedupLogBound, 1_000, 11)]
        );
        // The floor prunes the log before the check reads it: two updates
        // over 10..=1000, against the one counter from floor 10 to
        // injected 10.
        server.forget_through(9);
        assert_eq!(
            dedup_violations(&server, 10),
            [
                (InvariantKind::DedupLogBound, 2, 1),
                (InvariantKind::DedupLogBound, 991, 1)
            ]
        );
        assert_eq!(dedup_violations(&server, 1_000), []);
    }
}
