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
//!    root→sink latency on the timed packets), the sentinel and monitor
//!    ([`crate::telemetry`]) and, under a fault plan, the **supervisor**
//!    ([`crate::replay`]) and the warm standby; the calling thread is the
//!    **root** (`root`), stamping logical clocks in trace order and
//!    feeding the entry vertices;
//! 4. **join** — in the order the threads depend on each other
//!    (`Running::join`);
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
//! truncated at commit frontiers, duplicate suppression at every input
//! queue, replacement threads fed through dedicated replay rings, the XOR
//! delete window for tail kills, a warm standby for the root; the crate docs
//! give the overview and [`crate::replay`] the protocol.
//!
//! The healthy path pays none of this: with an empty plan no log is kept,
//! no watermark is published and no duplicate tracking runs — the store's
//! replay floor starts at the top, so clocked updates are never logged.

use crate::config::RuntimeConfig;
use crate::fault::FaultReport;
use crate::instance::{run_instance, DyingInstance, Inbox, InstanceResult, KillSwitch};
use crate::plan::{ChainPlan, InstancePlan};
use crate::replay::{truncate_logs, Replacements, Supervisor, SupervisorOutcome};
use crate::report::RuntimeReport;
use crate::root::{run_root, run_standby, Injection, RootIo, RootShared};
use crate::sink::{run_sink, SinkResult};
use crate::telemetry::{
    assemble_report, finalize_sentinel, run_monitor, run_sentinel, RunTelemetry,
};
use crate::wiring::{wire, Downstream, Wired};
use chc_core::dag::DagError;
use chc_core::root::ROOT_VERTEX;
use chc_core::{ChainConfig, LogicalDag, VertexLogs, XorDeleteLedger};
use chc_packet::Trace;
use chc_store::{StoreServer, VertexId};
use chc_telemetry::{EventKind, TelemetrySeries};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{mpsc, Arc, Mutex};
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
    /// True when instances suppress duplicate clocks at their input queues.
    pub(crate) dedup: bool,
    /// Raised by an instance or the root as it fail-stops, before it hands
    /// its wiring on. From then on replayed clocks can fill gaps below a
    /// watermark, so no instance prunes its duplicate window any further.
    /// Relaxed on both sides: the flag publishes no data, and its
    /// visibility rides the hand-off itself — fault channel, replacement
    /// spawn, then the rings' release/acquire edges — so whoever pops a
    /// packet sent after the fail-stop also sees the flag.
    pub(crate) fail_stopped: AtomicBool,
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
    /// XOR delete ledger bounding replay re-delivery windows; present
    /// whenever the plan kills instances or the root.
    pub(crate) ledger: Option<XorDeleteLedger>,
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
        let server = StoreServer::with_backend(rt.store_shards, rt.store_backend);
        for &shard in &plan.journaled_shards {
            server.set_shard_journaling(shard, true);
        }
        if !plan.fault_mode {
            // No fault plan, no replay source: no clocked update can ever be
            // a duplicate, so the store keeps no duplicate-suppression log
            // at all.
            server.forget_through(u64::MAX);
        }
        // Packet logs: the root's injection log plus one egress log per
        // armed upstream vertex, all bounded by the same capacity; and the
        // XOR delete ledger that tracks, per clock counter, which logged
        // tokens are still outstanding and whether the sink confirmed
        // delivery.
        let mut logs = VertexLogs::new(config.root_log_capacity);
        for (v, _) in &plan.log_scopes {
            logs.arm(*v, config.root_log_capacity);
        }
        EngineShared {
            server,
            inboxes: (0..plan.instances.len() + plan.seeds.len())
                .map(|_| Arc::new(Mutex::new(Vec::new())))
                .collect(),
            config,
            batch: plan.batch,
            fault_mode: plan.fault_mode,
            dedup: plan.dedup,
            fail_stopped: AtomicBool::new(false),
            telemetry: RunTelemetry::new(rt.telemetry, Instant::now(), plan.topo.iter().copied()),
            logs,
            watermarks: (0..=plan.instances.len())
                .map(|_| AtomicU64::new(0))
                .collect(),
            ledger: plan
                .xor_ledger
                .then(|| XorDeleteLedger::new(plan.trace_len as u64)),
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
    let done_injecting = AtomicBool::new(false);
    let root = RootShared::new(trace, &plan, &shared, &done_injecting);
    let joined = thread::scope(|scope| {
        let (running, root_outs, standby_tx) = spawn(scope, &plan, &shared, threads, wired, root);
        // The calling thread is the root.
        let injection = run_root(&root, root_outs, standby_tx);
        running.join(injection)
    });
    Ok(report(&shared, &plan, joined))
}

/// The threads of a run, between spawn and join.
struct Running<'scope> {
    instances: Vec<ScopedJoinHandle<'scope, InstanceResult>>,
    sink: ScopedJoinHandle<'scope, SinkResult>,
    sentinel: Option<ScopedJoinHandle<'scope, ()>>,
    monitor: Option<ScopedJoinHandle<'scope, TelemetrySeries>>,
    watchers_stop: Arc<AtomicBool>,
    supervisor: Option<ScopedJoinHandle<'scope, (SupervisorOutcome, Replacements<'scope>)>>,
    standby: Option<ScopedJoinHandle<'scope, Option<Injection>>>,
}

/// What the joined threads hand to the report.
struct Joined {
    injection: Injection,
    /// Present in fault mode.
    supervisor: Option<SupervisorOutcome>,
    instances: Vec<InstanceResult>,
    sink: SinkResult,
    series: TelemetrySeries,
}

/// Start every thread but the root, which is the caller: it gets back its
/// output rings and the channel that hands them to the standby.
///
/// Spawn order: each `InstanceSpawn` is journaled here, in slot order,
/// before that instance's thread starts, so it precedes anything the
/// instance journals; the standby is spawned before injection starts, so a
/// root kill never waits for a thread to come up.
fn spawn<'scope, 'env>(
    scope: &'scope thread::Scope<'scope, 'env>,
    plan: &'env ChainPlan,
    shared: &'env EngineShared,
    (instances, seeds): (Vec<InstancePlan>, HashMap<usize, InstancePlan>),
    wired: Wired,
    root: RootShared<'env>,
) -> (Running<'scope>, Vec<Downstream>, mpsc::Sender<RootIo>) {
    let telemetry = &shared.telemetry;
    let (fault_tx, fault_rx) = mpsc::channel::<DyingInstance>();
    let instances = instances
        .into_iter()
        .zip(wired.instances)
        .enumerate()
        .map(|(slot, (instance, wiring))| {
            let kill = instance.kill_at.map(|at_counter| KillSwitch {
                slot,
                at_counter,
                tx: fault_tx.clone(),
            });
            telemetry.event(EventKind::InstanceSpawn {
                vertex: instance.vertex.0,
                index: instance.index as u32,
                instance: instance.instance.0 as u64,
            });
            scope.spawn(move || run_instance(instance, wiring, shared, kill))
        })
        .collect();
    // Only armed instances hold the fault channel now: once each has fired
    // or dropped its switch, the supervisor sees it disconnect.
    drop(fault_tx);

    let (sink_inputs, scale_cut) = (wired.sink_inputs, plan.scale.map(|s| s.first_counter));
    let sink = scope.spawn(move || run_sink(sink_inputs, shared, scale_cut));

    // The watchers. The sentinel consumes the event journal while the run is
    // live, so a frontier regression or phase-order break surfaces as a
    // violation event at detection time, not at shutdown; the monitor
    // samples the gauges. Both run until `watchers_stop` is raised.
    let watchers_stop = Arc::new(AtomicBool::new(false));
    let sentinel = (telemetry.sentinel.is_some() && telemetry.journal.is_some()).then(|| {
        let stop = Arc::clone(&watchers_stop);
        scope.spawn(move || run_sentinel(&shared.telemetry, &stop))
    });
    let monitor = telemetry.config.sample_interval.map(|interval| {
        let (rings, shards) = (wired.probes, &plan.journaled_shards);
        let stop = Arc::clone(&watchers_stop);
        scope.spawn(move || run_monitor(rings, shards, shared, interval, &stop))
    });

    let supervisor = plan.fault_mode.then(|| {
        let supervisor = Supervisor::new(scope, fault_rx, plan, seeds, shared);
        let (replay_outs, done) = (wired.replay_outs, root.done_injecting);
        scope.spawn(move || supervisor.run(replay_outs, done))
    });

    let (standby_tx, standby_rx) = mpsc::channel::<RootIo>();
    let standby = plan
        .root_kill
        .map(|killed_at| scope.spawn(move || run_standby(root, standby_rx, killed_at)));

    let running = Running {
        instances,
        sink,
        sentinel,
        monitor,
        watchers_stop,
        supervisor,
        standby,
    };
    (running, wired.root_outs, standby_tx)
}

impl Running<'_> {
    /// Join every thread, given what the root's own injection returned.
    ///
    /// Join order: the standby (when armed) finishes injection and raises
    /// `done_injecting`, so it is joined before the supervisor, which waits
    /// on that flag; the supervisor exits once every planned kill resolved
    /// and closes the replay rings, so it is joined before the instances,
    /// which drain those rings and exit after it; replacements, then the
    /// sink, follow their producers; the sentinel and the monitor run until
    /// told to stop, after everything they watch has finished.
    fn join(self, mut injection: Injection) -> Joined {
        let standby = self
            .standby
            .and_then(|h| h.join().expect("standby thread panicked"));
        if let Some(standby) = standby {
            let mut shard_recoveries = injection.shard_recoveries;
            shard_recoveries.extend(standby.shard_recoveries);
            injection = Injection {
                shard_recoveries,
                ..standby
            };
        }
        let supervisor = self
            .supervisor
            .map(|h| h.join().expect("supervisor thread panicked"));
        let mut instances: Vec<InstanceResult> = self
            .instances
            .into_iter()
            .map(|h| h.join().expect("instance thread panicked"))
            .collect();
        let (supervisor, replacements) = supervisor.unzip();
        for h in replacements.into_iter().flatten() {
            instances.push(h.join().expect("replacement thread panicked"));
        }
        let sink = self.sink.join().expect("sink thread panicked");
        self.watchers_stop.store(true, Ordering::Release);
        if let Some(h) = self.sentinel {
            h.join().expect("sentinel thread panicked");
        }
        let series = self
            .monitor
            .map(|h| h.join().expect("monitor thread panicked"))
            .unwrap_or_default();
        Joined {
            injection,
            supervisor,
            instances,
            sink,
            series,
        }
    }
}

/// Assemble the run's report: the final truncation pass, the shutdown
/// invariant checks, the telemetry section and the store's final state.
fn report(shared: &EngineShared, plan: &ChainPlan, joined: Joined) -> RuntimeReport {
    let Joined {
        injection,
        supervisor,
        instances: results,
        sink,
        series,
    } = joined;
    let (mut instances, mut failed_instances) = (Vec::new(), Vec::new());
    for r in results {
        if r.failed {
            failed_instances.push(r.report);
        } else {
            instances.push(r.report);
        }
    }
    instances.sort_by_key(|r| (r.vertex, r.instance));

    let mut final_frontier = 0u64;
    let fault_report = supervisor.map(|sup| {
        // Nothing is in flight any more — the re-injection drill included —
        // so the last cut is uncapped.
        final_frontier = truncate_logs(shared, &plan.log_scopes, u64::MAX);
        // One row per log, in id order: the root's (`ROOT_VERTEX`, always
        // armed) is the last.
        let mut vertex_logs = shared.logs.stats();
        let root_log = vertex_logs.pop().expect("the root's row");
        debug_assert_eq!(root_log.vertex, ROOT_VERTEX);
        FaultReport {
            recoveries: sup.recoveries,
            shard_recoveries: injection.shard_recoveries,
            log_high_water: root_log.high_water,
            log_truncated: root_log.truncated + root_log.deleted,
            log_final_len: root_log.final_len,
            log_rejected: root_log.rejected,
            reinjected: injection.reinjected,
            root_takeover: injection.takeover,
            aborts: sup.aborts,
            vertex_logs,
        }
    });

    let server = &shared.server;
    let mut run = RuntimeReport {
        delivered: sink.delivered_ids.len() - sink.duplicates as usize,
        duplicates: sink.duplicates,
        duplicate_clocks: sink.duplicate_clocks,
        delivered_ids: sink.delivered_ids,
        replay_window_suppressed: sink.replay_window_suppressed,
        delivered_bytes: sink.bytes,
        injected: injection.counter,
        elapsed: sink.finished_at,
        latency: sink.latency,
        sink_window_bytes: sink.window_bytes,
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
    run.invariants = finalize_sentinel(shared, &run, sink.arrivals, final_frontier);
    if !shared.telemetry.config.is_disabled() {
        run.telemetry = Some(assemble_report(&shared.telemetry, series));
    }
    run
}
