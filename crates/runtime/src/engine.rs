//! The real-thread chain engine.
//!
//! [`run_chain_realtime`] executes a [`LogicalDag`] on OS threads in five
//! steps, each a call:
//!
//! 1. **plan** — [`ChainPlan::new`] decides everything that can be decided
//!    before the first packet and raises every [`RuntimeError`];
//! 2. **wire** — `EngineShared` opens the store, telemetry and packet
//!    logs, `wiring` lays one bounded SPSC ring ([`crate::spsc`])
//!    per (producer, consumer) pair, so the packet path takes no locks;
//! 3. **spawn** — one thread per **NF instance** (`instance`: pulls
//!    packet batches from its input rings, runs the unmodified
//!    [`chc_core::NetworkFunction`] against a `StateClient` backed by the
//!    sharded [`StoreServer`], forwards through the scope-aware splitters), a
//!    **sink** thread (`sink`: de-duplicates by clock, measures
//!    root→sink latency on the timed packets) and the gauge monitor
//!    ([`crate::telemetry`]) when sampling is on; the calling thread is the
//!    **root** (`root`), stamping logical clocks in trace order and feeding
//!    the entry vertices. A fault plan adds no thread: a killed instance's
//!    thread runs its failover and then its replacement ([`crate::replay`]),
//!    and the root cuts the packet logs once per page of its log;
//! 4. **join** — in the order the threads depend on each other
//!    (`Running::join`): instances, sink, monitor;
//! 5. **report** — the final log truncation, the shutdown invariant checks
//!    and the [`RuntimeReport`].
//!
//! Packets move in configurable batches that amortize ring and store-client
//! overhead. Each thread owns its wiring as plain vectors, clock-keyed sets
//! are bitmaps indexed by the clock counter ([`chc_core::ClockWindow`]), and
//! only one packet in [`chc_core::TIMED_PERIOD`] (plus every traced one)
//! pays for clock reads and histogram records — so an untimed packet on a
//! healthy run crosses a hop without hashing, reading a clock or touching a
//! shared counter.
//!
//! Routing is the *same* scope-aware [`chc_core::Splitter`] logic the
//! simulator uses, driven purely by `(packet, logical clock)` — including
//! pre-planned elastic scale-out events — so a given trace partitions
//! identically on both substrates and their outputs can be compared for
//! chain output equivalence.
//!
//! # Fail-stop failure injection (R1/R6 on the wall-clock path)
//!
//! When [`RuntimeConfig::fault`] schedules failures, the engine additionally
//! runs the paper's replay/failover machinery on real threads — packet logs
//! truncated at commit frontiers that advance only by ring stamps
//! ([`crate::wiring`]) and never pause, duplicate suppression at every input
//! queue, pruned at the same frontiers, replacements that replay their own
//! log before they take live traffic, the sink's window absorbing a tail
//! kill's re-delivery, and a root crash that loses what §5.4 says it loses
//! before a new root resumes from the persisted clock; the crate docs give
//! the overview and [`crate::replay`] the protocol.
//!
//! The healthy path pays none of this: with an empty plan no log is kept,
//! no watermark is published and no duplicate tracking runs — the store's
//! replay floor starts at the top, so clocked updates are never logged.

use crate::config::{RuntimeConfig, STORE_SHARDS};
use crate::fault::FaultReport;
use crate::instance::{run_instance, Inbox, InstanceResult};
use crate::plan::{ChainPlan, InstancePlan};
use crate::replay::truncate_logs;
use crate::report::RuntimeReport;
use crate::root::{run_root, Injection};
use crate::sink::{run_sink, SinkResult};
use crate::telemetry::{assemble_report, finalize_sentinel, run_monitor, Books, RunTelemetry};
use crate::wiring::{wire, Downstream, Wired};
use chc_core::dag::DagError;
use chc_core::root::{ROOT_LOG_CAPACITY, ROOT_VERTEX};
use chc_core::{ChainConfig, LogicalDag, VertexLogs};
use chc_packet::Trace;
use chc_store::{StoreServer, VertexId};
use chc_telemetry::{EventKind, TelemetrySeries};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, ScopedJoinHandle};
use std::time::Instant;

/// Errors surfaced while planning a real-thread run; raised by
/// [`ChainPlan::new`] and nowhere else.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The logical DAG failed validation.
    Dag(DagError),
    /// The scale event names a vertex not present in the DAG.
    UnknownScaleVertex(VertexId),
    /// A fault-plan kill names a vertex not present in the DAG.
    UnknownFaultVertex(VertexId),
    /// A fault-plan kill names an instance index the vertex does not have.
    FaultIndexOutOfRange {
        /// The targeted vertex.
        vertex: VertexId,
        /// The requested instance index.
        index: usize,
        /// How many instances the vertex actually has.
        instances: usize,
    },
    /// Two kills target the same instance slot.
    DuplicateKill {
        /// The targeted vertex.
        vertex: VertexId,
        /// The doubly-targeted instance index.
        index: usize,
    },
    /// A kill trigger lies outside the trace, so it could never fire.
    KillOutsideTrace {
        /// The requested trigger counter.
        at_counter: u64,
        /// Packets in the trace.
        trace_len: usize,
    },
    /// A shard fault names a shard the store does not have.
    ShardOutOfRange {
        /// The requested shard.
        shard: usize,
        /// How many shards the store has.
        shards: usize,
    },
    /// A shard fault trigger (restart or checkpoint) lies outside the trace.
    ShardFaultOutsideTrace {
        /// The requested trigger counter.
        at_counter: u64,
        /// Packets in the trace.
        trace_len: usize,
    },
    /// A re-injection counter lies outside the trace.
    ReinjectOutsideTrace {
        /// The requested counter.
        counter: u64,
        /// Packets in the trace.
        trace_len: usize,
    },
    /// A root kill is planned together with other faults. The new root
    /// resumes above counters the dead one never stamped, so a fault keyed
    /// on one of them would never fire.
    RootKillNotAlone {
        /// The planned root kill.
        at_counter: u64,
        /// Instance kills, shard faults and re-injections planned with it.
        others: usize,
    },
}

impl std::fmt::Display for RuntimeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RuntimeError::Dag(e) => write!(f, "invalid DAG: {e}"),
            RuntimeError::UnknownScaleVertex(v) => {
                write!(f, "scale event references unknown vertex {v}")
            }
            RuntimeError::UnknownFaultVertex(v) => {
                write!(f, "fault plan references unknown vertex {v}")
            }
            RuntimeError::FaultIndexOutOfRange {
                vertex,
                index,
                instances,
            } => write!(
                f,
                "fault plan kills instance {index} of vertex {vertex}, which has {instances}"
            ),
            RuntimeError::DuplicateKill { vertex, index } => write!(
                f,
                "fault plan kills instance {index} of vertex {vertex} more than once"
            ),
            RuntimeError::KillOutsideTrace {
                at_counter,
                trace_len,
            } => write!(
                f,
                "kill trigger {at_counter} lies outside the {trace_len}-packet trace"
            ),
            RuntimeError::ShardOutOfRange { shard, shards } => {
                write!(f, "shard fault targets shard {shard} of {shards}")
            }
            RuntimeError::ShardFaultOutsideTrace {
                at_counter,
                trace_len,
            } => write!(
                f,
                "shard fault trigger {at_counter} lies outside the {trace_len}-packet trace"
            ),
            RuntimeError::ReinjectOutsideTrace { counter, trace_len } => write!(
                f,
                "re-injection counter {counter} lies outside the {trace_len}-packet trace"
            ),
            RuntimeError::RootKillNotAlone { at_counter, others } => write!(
                f,
                "the root kill at {at_counter} is planned with {others} other faults; \
                 a root kill must be the plan's only fault"
            ),
        }
    }
}

impl std::error::Error for RuntimeError {}

impl From<DagError> for RuntimeError {
    fn from(e: DagError) -> RuntimeError {
        RuntimeError::Dag(e)
    }
}

/// Engine state shared by every thread of one run.
pub(crate) struct EngineShared {
    pub(crate) server: Arc<StoreServer>,
    /// Callback inboxes indexed by instance id (ids are dense: planned
    /// instances first, then the replacements in fault-plan order).
    pub(crate) inboxes: Vec<Inbox>,
    pub(crate) config: ChainConfig,
    pub(crate) batch: usize,
    /// True when a fault plan is active: the commit protocol runs and
    /// flushes happen at every batch boundary (commit implies durable).
    pub(crate) fault_mode: bool,
    /// Run-wide telemetry: stage histograms, event journal, trace collector.
    pub(crate) telemetry: RunTelemetry,
    /// The packet logs, one per row of `ChainPlan::log_scopes`: the root's
    /// injection log plus the egress log of every armed upstream of a killed
    /// non-entry vertex.
    pub(crate) logs: VertexLogs,
    /// Commit watermarks by plan slot (the sink's is the last): the highest
    /// clock counter such that every packet at or below it routed to the
    /// slot's component has been processed and its effects flushed
    /// downstream. A replacement publishes under the slot it inherits; an
    /// unpublished slot reads zero and so holds every frontier it is in.
    pub(crate) watermarks: Vec<AtomicU64>,
    /// The cut lock: the root's truncation passes and every failover start
    /// take turns under it (see [`crate::replay`]).
    pub(crate) cut_lock: Mutex<()>,
    /// Store fast path: when true every instance client buffers
    /// non-blocking store ops, up to one ring batch of them, and drains them
    /// as one batched apply at ring batch boundaries (and before every
    /// correctness barrier).
    pub(crate) write_behind: bool,
}

impl EngineShared {
    /// Open what the threads of a run share: the store, telemetry, the
    /// packet logs and the callback inboxes.
    pub(crate) fn new(plan: &ChainPlan, config: ChainConfig, rt: &RuntimeConfig) -> EngineShared {
        let server = StoreServer::with_backend(STORE_SHARDS, rt.store_backend);
        for &shard in &plan.journaled_shards {
            server.set_shard_journaling(shard, true);
        }
        if !plan.journaled_shards.is_empty() {
            // On files, before any packet thread exists to journal.
            server.start_persister();
        }
        if plan.fault_mode {
            // Kills, shard restarts and the re-injection drill re-issue
            // clocks: the store logs them for duplicate suppression, and the
            // root raises its floor as it cuts the packet logs. With
            // no fault plan it keeps no log at all (its default). A server
            // that applied an op already would refuse, and duplicates would
            // go unsuppressed.
            let declared = server.track_replays();
            assert!(declared, "the store took an op before fault mode declared");
        }
        // Packet logs: the root's injection log plus one egress log per
        // armed upstream vertex, all bounded by the same capacity.
        let mut logs = VertexLogs::new(ROOT_LOG_CAPACITY);
        for (v, _) in &plan.log_scopes {
            logs.arm(*v, ROOT_LOG_CAPACITY);
        }
        let kills = plan.instances.iter().filter(|p| p.kill.is_some()).count();
        EngineShared {
            server,
            inboxes: (0..plan.instances.len() + kills)
                .map(|_| Arc::new(Mutex::new(Vec::new())))
                .collect(),
            config,
            batch: plan.batch,
            fault_mode: plan.fault_mode,
            telemetry: RunTelemetry::new(rt.telemetry, Instant::now(), plan.topo.iter().copied()),
            logs,
            watermarks: (0..=plan.instances.len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            cut_lock: Mutex::new(()),
            write_behind: rt.write_behind,
        }
    }

    /// Publish `slot`'s commit watermark. Monotonic: a stale publication
    /// never regresses it. `Release`, paired with the `Acquire` load in
    /// [`EngineShared::frontier`]: whoever cuts a log at the watermark also
    /// sees the store applies and ring flushes that made it true.
    pub(crate) fn publish_watermark(&self, slot: usize, counter: u64) {
        self.watermarks[slot].fetch_max(counter, Ordering::Release);
    }

    /// The clock counter every slot of `scope` has committed through: a log
    /// truncating against that scope may forget everything at or below it,
    /// because no replay can need it again.
    pub(crate) fn frontier(&self, scope: &[usize]) -> u64 {
        let watermark = |&slot: &usize| self.watermarks[slot].load(Ordering::Acquire);
        scope.iter().map(watermark).min().unwrap_or(0)
    }
}

/// Execute `dag` over `trace` on real threads. See the module docs.
pub fn run_chain_realtime(
    dag: &LogicalDag,
    config: ChainConfig,
    rt: &RuntimeConfig,
    trace: &Trace,
) -> Result<RuntimeReport, RuntimeError> {
    let mut plan = ChainPlan::new(dag, &config, rt, trace.len())?;
    let shared = EngineShared::new(&plan, config, rt);
    let wired = wire(&plan, &shared.telemetry);
    let threads = plan.take_threads();
    let joined = thread::scope(|scope| {
        let (running, root_outs) = spawn(scope, &plan, &shared, threads, wired);
        // The calling thread is the root.
        let injection = run_root(trace, &plan, &shared, root_outs);
        running.join(injection)
    });
    Ok(report(&shared, &plan, joined, trace))
}

/// The threads of a run, between spawn and join.
struct Running<'scope> {
    /// One per planned instance: its results, a replacement's after a
    /// killed instance's.
    instances: Vec<ScopedJoinHandle<'scope, Vec<InstanceResult>>>,
    sink: ScopedJoinHandle<'scope, SinkResult>,
    monitor: Option<ScopedJoinHandle<'scope, TelemetrySeries>>,
    monitor_stop: Arc<AtomicBool>,
}

/// What the joined threads hand to the report.
struct Joined {
    injection: Injection,
    instances: Vec<InstanceResult>,
    sink: SinkResult,
    series: TelemetrySeries,
}

/// Start every thread but the root, which is the caller: it gets back its
/// output rings.
///
/// Spawn order: each `InstanceSpawn` is journaled here, in slot order,
/// before that instance's thread starts, so it precedes anything the
/// instance journals; a killed instance's thread journals its replacement's
/// `ReplacementSpawn` before it runs the replacement.
fn spawn<'scope, 'env>(
    scope: &'scope thread::Scope<'scope, 'env>,
    plan: &'env ChainPlan,
    shared: &'env EngineShared,
    instances: Vec<InstancePlan>,
    wired: Wired,
) -> (Running<'scope>, Vec<Downstream>) {
    let telemetry = &shared.telemetry;
    let instances = instances
        .into_iter()
        .zip(wired.instances)
        .map(|(instance, wiring)| {
            telemetry.event(EventKind::InstanceSpawn {
                vertex: instance.vertex.0,
                index: instance.index as u32,
                instance: instance.instance.0 as u64,
            });
            scope.spawn(move || run_instance(instance, wiring, shared))
        })
        .collect();

    let (sink_inputs, ordered) = (wired.sink_inputs, wired.sink_ordered);
    let scale_cut = plan.scale.map(|s| s.first_counter);
    let sink = scope.spawn(move || run_sink(sink_inputs, &ordered, shared, scale_cut));

    // The monitor samples the gauges until `monitor_stop` is raised.
    let monitor_stop = Arc::new(AtomicBool::new(false));
    let monitor = telemetry.config.sample_interval.map(|interval| {
        let (rings, shards) = (wired.gauges, &plan.journaled_shards);
        let stop = Arc::clone(&monitor_stop);
        scope.spawn(move || run_monitor(rings, shards, shared, interval, &stop))
    });

    let running = Running {
        instances,
        sink,
        monitor,
        monitor_stop,
    };
    (running, wired.root_outs)
}

impl Running<'_> {
    /// Join every thread, given what the root's own injection returned.
    ///
    /// Join order: each thread exits once its input rings are exhausted, so
    /// the instance threads (a replacement on its predecessor's), then the
    /// sink follow their producers; the monitor runs until told to stop,
    /// after everything it watches has finished.
    fn join(self, injection: Injection) -> Joined {
        let instances = (self.instances.into_iter())
            .flat_map(|h| h.join().expect("instance thread panicked"))
            .collect();
        let sink = self.sink.join().expect("sink thread panicked");
        self.monitor_stop.store(true, Ordering::Release);
        let series = self
            .monitor
            .map(|h| h.join().expect("monitor thread panicked"))
            .unwrap_or_default();
        Joined {
            injection,
            instances,
            sink,
            series,
        }
    }
}

/// Assemble the run's report: the final truncation pass, the shutdown
/// invariant checks, the telemetry section and the store's final state.
fn report(shared: &EngineShared, plan: &ChainPlan, joined: Joined, trace: &Trace) -> RuntimeReport {
    let Joined {
        injection,
        instances: results,
        sink,
        series,
    } = joined;
    let (mut instances, mut failed_instances) = (Vec::new(), Vec::new());
    let (mut recoveries, mut dropped) = (Vec::new(), Vec::new());
    for r in results {
        recoveries.extend(r.recovery);
        dropped.extend(r.dropped_ids);
        if r.failed {
            failed_instances.push(r.report);
        } else {
            instances.push(r.report);
        }
    }
    instances.sort_by_key(|r| (r.vertex, r.instance));

    let (stamped, last_counter) = (injection.stamped, injection.last_counter);
    let mut final_frontier = 0u64;
    let fault_report = plan.fault_mode.then(|| {
        // Nothing is in flight any more — the re-injection drill included —
        // so the last cut is uncapped.
        final_frontier = truncate_logs(shared, &plan.log_scopes, u64::MAX);
        // One row per log, in id order: the root's (`ROOT_VERTEX`, always
        // armed) is the last.
        let mut vertex_logs = shared.logs.stats();
        let root_log = vertex_logs.pop().expect("the root's row");
        debug_assert_eq!(root_log.vertex, ROOT_VERTEX);
        FaultReport {
            recoveries,
            shard_recoveries: injection.shard_recoveries,
            log_high_water: root_log.high_water,
            log_truncated: root_log.truncated,
            log_final_len: root_log.final_len,
            log_rejected: root_log.rejected,
            reinjected: injection.reinjected,
            root_takeover: injection.takeover,
            aborts: Vec::new(),
            vertex_logs,
        }
    });

    let server = &shared.server;
    let mut run = RuntimeReport {
        delivered: sink.core.delivered(),
        sink_window_bytes: sink.window_bytes,
        duplicates: sink.core.duplicates,
        duplicate_clocks: sink.core.duplicate_clocks,
        delivered_ids: sink.core.delivered_ids,
        replay_window_suppressed: sink.core.replay_shadows,
        delivered_bytes: sink.core.bytes,
        injected: stamped,
        elapsed: sink.finished_at,
        latency: sink.latency,
        instances,
        failed_instances,
        store_ops: server.total_ops(),
        store_ops_per_shard: server.ops_per_shard(),
        store_update_log_len: server.update_log_len(),
        store_replay_floor: server.replay_floor(),
        final_state: server.dump(),
        fault: fault_report,
        telemetry: None,
        invariants: None,
    };
    // Shutdown invariant pass — before the telemetry section is assembled,
    // so violation events it journals appear in the report's event list.
    let books = Books {
        trace: &trace.packets,
        undelivered: sink.undelivered,
        dropped,
    };
    run.invariants = finalize_sentinel(
        shared,
        &run,
        (sink.core.arrivals, books),
        (last_counter, final_frontier),
    );
    if !shared.telemetry.config.is_disabled() {
        run.telemetry = Some(assemble_report(&shared.telemetry, series));
    }
    run
}
