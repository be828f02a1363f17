//! The real-thread chain engine.
//!
//! [`run_chain_realtime`] executes a [`LogicalDag`] on OS threads:
//!
//! * a **root** (the calling thread) stamps logical clocks in trace order
//!   and feeds the entry vertices,
//! * one thread per **NF instance** pulls packet batches from its input
//!   rings, runs the unmodified [`chc_core::NetworkFunction`] against a
//!   [`StateClient`] backed by the sharded [`StoreServer`], and forwards
//!   outputs through the scope-aware splitters,
//! * a **sink** thread ([`crate::sink`]) collects chain output,
//!   de-duplicates by clock and measures root→sink wall-clock latency on the
//!   timed packets.
//!
//! Every (producer, consumer) pair is connected by exactly one bounded SPSC
//! ring ([`crate::spsc`]), so the packet path takes no locks; packets move in
//! configurable batches that amortize ring and store-client overhead. Each
//! thread owns its wiring as plain vectors ([`crate::wiring`]), clock-keyed
//! sets are bitmaps indexed by the clock counter ([`ClockWindow`]), and only
//! one packet in [`chc_core::TIMED_PERIOD`] (plus every traced one) pays
//! for clock reads and histogram records — so an untimed packet on a healthy
//! run crosses a hop without hashing, reading a clock or touching a shared
//! counter.
//!
//! Routing is the *same* scope-aware [`Splitter`] logic the simulator uses,
//! driven purely by `(packet, logical clock)` — including pre-planned
//! elastic scale-out events — so a given trace partitions identically on
//! both substrates and their outputs can be compared for chain output
//! equivalence.
//!
//! # Fail-stop failure injection (R1/R6 on the wall-clock path)
//!
//! When [`RuntimeConfig::fault`] schedules failures, the engine additionally
//! runs the paper's replay/failover machinery on real threads:
//!
//! * the root keeps a bounded **packet log** keyed by logical clock
//!   ([`chc_core::PacketLog`]), and every on-path upstream of a killed
//!   non-entry vertex keeps an FTMB-style **egress log** of its own output
//!   ([`chc_core::VertexLogs`]); every chain component publishes a
//!   **commit watermark** to the store after flushing each batch
//!   ([`StoreServer::publish_commit`]), and a **supervisor thread** truncates
//!   each log up to its own commit frontier, bounding replay memory;
//! * each NF instance suppresses duplicate clocks at its input queue
//!   (§5.3), so replayed traffic is idempotent end to end;
//! * a killed instance hands its SPSC wiring to the supervisor, which spawns
//!   a **replacement thread** under a fresh instance id, re-associates the
//!   failed instance's per-flow store state, and **replays** the killed
//!   vertex's replay source — the root log for an entry, the merged upstream
//!   egress logs otherwise — through dedicated replay rings that enter the
//!   chain at the killed vertex's own depth, so upstream duplicate
//!   suppression can never eat a replay; live flows keep their ring order
//!   throughout (see [`crate::replay`]);
//! * every logged egress packet carries a per-packet **XOR delete token**
//!   folded into its envelope ([`chc_core::XorDeleteLedger`], Figure 6); the
//!   sink cancels the tokens on first delivery, which lets a **tail
//!   replacement** bound its re-delivery window (a replayed packet whose
//!   clock the sink confirmed is processed but not re-emitted) and lets the
//!   supervisor delete individual log entries the frontier cannot cover;
//! * a plan may kill the **root** itself: a pre-spawned warm standby thread
//!   shadows the root's clock counter, inherits the live rings on death,
//!   replays the unconfirmed suffix of the root log, and resumes injection
//!   where the root died.
//!
//! The healthy path pays none of this: with an empty plan no log is kept,
//! no watermark is published and no duplicate tracking runs — the store's
//! replay floor starts at the top, so clocked updates are never logged.

use crate::config::{RingWait, RuntimeConfig, ScaleEvent};
use crate::fault::{FaultReport, RootTakeover, ShardRecovery};
use crate::replay::{raise_replay_floor, run_supervisor, ReplacementSeed, ReplaySource};
use crate::report::{RuntimeInstanceReport, RuntimeReport};
use crate::sink::run_sink;
use crate::telemetry::{
    assemble_report, finalize_sentinel, run_monitor, run_sentinel, MonitorTargets, RunTelemetry,
    SentinelInputs, SentinelState, StoreTimer, TimedHandle, VertexStageMetrics,
};
use crate::wiring::{
    forwards_in_order, idle_wait, links_mut, Downstream, InputRing, OutLink, RingPlan,
};
use chc_core::dag::DagError;
use chc_core::{
    delete_token, Action, ChainConfig, ClockWindow, LogicalDag, NetworkFunction, NfContext,
    Splitter, StateClient, TaggedPacket, VertexLogs, XorDeleteLedger, STANDBY_ROOT_ID,
};
use chc_packet::{flow_sampled, Scope, Trace, TraceTag};
use chc_sim::VirtualTime;
use chc_store::{Clock, InstanceId, StateKey, StoreServer, Value, VertexId, SINK_COMMIT_SOURCE};
use chc_telemetry::{EventKind, FlowOrderChecker, SpanEvent, SpanKind, TraceLane};
use std::collections::{BTreeSet, HashMap, HashSet};
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::thread;
use std::time::Instant;

/// Errors surfaced while planning a real-thread run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RuntimeError {
    /// The logical DAG failed validation.
    Dag(DagError),
    /// The scale event names a vertex not present in the DAG.
    UnknownScaleVertex(VertexId),
    /// A fault-plan kill names a vertex not present in the DAG.
    UnknownFaultVertex(VertexId),
    /// Legacy rejection, raised only under
    /// [`RuntimeConfig::legacy_entry_only_failover`]: a fault-plan kill
    /// targets a non-entry vertex. The engine now restores any vertex from
    /// its upstream egress logs; this error reproduces the old entry-only
    /// behaviour for comparison runs.
    KillNotAtEntry(VertexId),
    /// Legacy rejection, raised only under
    /// [`RuntimeConfig::legacy_entry_only_failover`]: a fault-plan kill
    /// targets a vertex that delivers directly to the end host. The XOR
    /// delete ledger now bounds a tail replacement's re-delivery window, so
    /// tail kills are accepted by default.
    KillAtChainTail(VertexId),
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
    /// Instance kills need clock-tagged store updates: duplicate suppression
    /// at the store is what makes replay idempotent.
    FaultNeedsClockTags,
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
            RuntimeError::KillNotAtEntry(v) => {
                write!(
                    f,
                    "fault plan kills vertex {v}, which is not a chain entry; \
                     legacy_entry_only_failover restricts replay to \
                     entry-vertex instances"
                )
            }
            RuntimeError::KillAtChainTail(v) => {
                write!(
                    f,
                    "fault plan kills vertex {v}, which outputs directly to the \
                     end host; legacy_entry_only_failover predates the XOR \
                     delete window that bounds tail re-deliveries"
                )
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
            RuntimeError::FaultNeedsClockTags => write!(
                f,
                "instance kills require clock_tag_updates (store-side duplicate \
                 suppression makes replay idempotent)"
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

/// Identity and wiring of one planned instance.
pub(crate) struct InstancePlan {
    pub(crate) vertex: VertexId,
    pub(crate) instance: InstanceId,
    pub(crate) off_path: bool,
    pub(crate) is_tail: bool,
    /// This vertex is the on-path upstream of some killed non-entry vertex:
    /// every live Forward it emits is tokenized and copied into its egress
    /// log, the replay source for that kill.
    pub(crate) log_egress: bool,
    pub(crate) downstream: Vec<VertexId>,
    pub(crate) nf: Box<dyn NetworkFunction>,
    pub(crate) objects: Vec<chc_core::StateObjectSpec>,
}

/// Callback notifications (store → instance) for read-heavy cached objects.
/// Unlike the packet path this is many-producers → one-consumer and very low
/// rate, so a mutexed vector is the right tool.
type Inbox = Arc<Mutex<Vec<(StateKey, Value)>>>;

/// Engine state shared by every thread of one run.
pub(crate) struct EngineShared {
    pub(crate) server: Arc<StoreServer>,
    /// Callback inboxes indexed by instance id (ids are dense: planned
    /// instances first, then the replacements in fault-plan order).
    pub(crate) inboxes: Vec<Inbox>,
    pub(crate) config: ChainConfig,
    pub(crate) batch: usize,
    pub(crate) record_logs: bool,
    pub(crate) clock_tags: bool,
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
    pub(crate) telemetry: Arc<RunTelemetry>,
    /// The root's injection log plus the per-vertex egress logs of every
    /// armed upstream of a killed non-entry vertex.
    pub(crate) logs: Arc<VertexLogs>,
    /// XOR delete ledger bounding replay re-delivery windows; present
    /// whenever the plan kills instances or the root.
    pub(crate) ledger: Option<Arc<XorDeleteLedger>>,
    /// Store fast path: when true every instance client buffers
    /// non-blocking store ops and drains them as one batched apply at ring
    /// batch boundaries (and before every correctness barrier).
    pub(crate) write_behind: bool,
    /// Write-behind buffer cap in ops ([`RuntimeConfig::effective_store_batch`]).
    pub(crate) store_batch: usize,
    /// How instance and sink threads wait on empty rings.
    pub(crate) ring_wait: RingWait,
}

/// What a fail-stopped instance hands to the supervisor: its complete SPSC
/// wiring, ready for a replacement thread to take over. Unflushed output
/// buffers have already been discarded (a crashed process loses them), and
/// in-flight packets still queued in the input rings survive, exactly as
/// packets in the network survive an endpoint crash.
pub(crate) struct DyingInstance {
    pub(crate) slot: usize,
    pub(crate) inputs: Vec<InputRing>,
    pub(crate) outs: Vec<Downstream>,
    pub(crate) sink_link: Option<OutLink>,
}

/// Arms one instance thread with its fail-stop trigger.
pub(crate) struct KillSwitch {
    pub(crate) slot: usize,
    /// Replica index within the vertex (for the event journal).
    pub(crate) index: usize,
    pub(crate) at_counter: u64,
    pub(crate) tx: mpsc::Sender<DyingInstance>,
}

/// What an instance thread hands back when it exits.
pub(crate) struct InstanceResult {
    pub(crate) vertex: VertexId,
    pub(crate) instance: InstanceId,
    pub(crate) processed: u64,
    pub(crate) dropped_by_nf: u64,
    pub(crate) suppressed_duplicates: u64,
    pub(crate) alerts: Vec<(Clock, String)>,
    pub(crate) batches_in: u64,
    pub(crate) replay_egress_gated: u64,
    pub(crate) dedup_window_bytes: usize,
    pub(crate) failed: bool,
}

impl InstanceResult {
    fn into_report(self) -> RuntimeInstanceReport {
        RuntimeInstanceReport {
            vertex: self.vertex,
            instance: self.instance,
            processed: self.processed,
            dropped_by_nf: self.dropped_by_nf,
            suppressed_duplicates: self.suppressed_duplicates,
            alerts: self.alerts,
            batches_in: self.batches_in,
            replay_egress_gated: self.replay_egress_gated,
            dedup_window_bytes: self.dedup_window_bytes,
        }
    }
}

/// Execute `dag` over `trace` on real threads. See the module docs.
pub fn run_chain_realtime(
    dag: &LogicalDag,
    config: ChainConfig,
    rt: &RuntimeConfig,
    trace: &Trace,
) -> Result<RuntimeReport, RuntimeError> {
    let topo = dag.topo_order()?;
    if let Some(scale) = rt.scale {
        if dag.vertex(scale.vertex).is_none() {
            return Err(RuntimeError::UnknownScaleVertex(scale.vertex));
        }
    }
    let batch = rt.batch_size.max(1);
    let depth = rt.queue_depth.max(batch * 2);
    let fault = rt.fault.clone();
    let fault_mode = !fault.is_empty();
    let dedup = fault_mode && config.duplicate_suppression;
    if (!fault.kills.is_empty() || fault.root_kill.is_some()) && !rt.clock_tag_updates {
        return Err(RuntimeError::FaultNeedsClockTags);
    }

    // ------------------------------------------------------------------
    // Plan: splitters, instance identities, NF code.
    // ------------------------------------------------------------------

    // Same scope choice as ChainController::new: the coarsest partitionable
    // scope minimises shared state; Global cannot spread load, so it is
    // skipped.
    let mut splitters: HashMap<VertexId, Splitter> = HashMap::new();
    for v in dag.vertices() {
        let scope = v
            .scopes()
            .into_iter()
            .filter(|s| *s != Scope::Global)
            .max()
            .unwrap_or(Scope::FiveTuple);
        splitters.insert(v.id, Splitter::new(v.id, scope, v.parallelism));
    }

    // Instance identities in ChainController order (vertex declaration order,
    // then index), with the scale-out instance appended last — ids must match
    // the simulator's so per-flow datastore keys line up across substrates.
    let exits = dag.exits();
    let mut plans: Vec<InstancePlan> = Vec::new();
    // Replica index within its vertex, per plan slot (for the event journal).
    let mut slot_index: Vec<usize> = Vec::new();
    let mut next_instance = 0u32;
    for v in dag.vertices() {
        for idx in 0..v.parallelism {
            let nf = v.build_nf();
            let objects = nf.state_objects();
            plans.push(InstancePlan {
                vertex: v.id,
                instance: InstanceId(next_instance),
                off_path: v.off_path,
                is_tail: exits.contains(&v.id),
                log_egress: false,
                downstream: dag.downstream_of(v.id),
                nf,
                objects,
            });
            slot_index.push(idx);
            next_instance += 1;
        }
    }
    if let Some(scale) = rt.scale {
        let v = dag.vertex(scale.vertex).expect("validated above");
        let nf = v.build_nf();
        let objects = nf.state_objects();
        plans.push(InstancePlan {
            vertex: v.id,
            instance: InstanceId(next_instance),
            off_path: v.off_path,
            is_tail: exits.contains(&v.id),
            log_egress: false,
            downstream: dag.downstream_of(v.id),
            nf,
            objects,
        });
        slot_index.push(v.parallelism);
        let splitter = splitters.get_mut(&scale.vertex).expect("splitter exists");
        splitter.schedule_scale(scale.first_counter, v.parallelism + 1);
        next_instance += 1;
    }

    // Instance indices per vertex, in id order (= index order).
    let mut by_vertex: HashMap<VertexId, Vec<usize>> = HashMap::new();
    for (i, p) in plans.iter().enumerate() {
        by_vertex.entry(p.vertex).or_default().push(i);
    }
    let entries = dag.entries();

    // ------------------------------------------------------------------
    // Fault plan validation and replacement seeds.
    // ------------------------------------------------------------------

    // Replacement instance ids are assigned in fault-plan order, after every
    // planned instance — the same ids the simulator hands out when the
    // equivalence test calls `failover_instance` in the same order.
    let mut seeds: HashMap<usize, ReplacementSeed> = HashMap::new();
    let mut kill_at_by_slot: Vec<Option<(u64, usize)>> = vec![None; plans.len()];
    for kill in &fault.kills {
        let Some(v) = dag.vertex(kill.vertex) else {
            return Err(RuntimeError::UnknownFaultVertex(kill.vertex));
        };
        if rt.legacy_entry_only_failover {
            // Escape hatch reproducing the pre-egress-log engine: only
            // entry, non-tail vertices were recoverable then.
            if !entries.contains(&kill.vertex) {
                return Err(RuntimeError::KillNotAtEntry(kill.vertex));
            }
            if exits.contains(&kill.vertex) && !v.off_path {
                return Err(RuntimeError::KillAtChainTail(kill.vertex));
            }
        }
        let slots = by_vertex
            .get(&kill.vertex)
            .map(Vec::as_slice)
            .unwrap_or(&[]);
        let Some(&slot) = slots.get(kill.index) else {
            return Err(RuntimeError::FaultIndexOutOfRange {
                vertex: kill.vertex,
                index: kill.index,
                instances: slots.len(),
            });
        };
        if kill.at_counter == 0 || kill.at_counter > trace.len() as u64 {
            return Err(RuntimeError::KillOutsideTrace {
                at_counter: kill.at_counter,
                trace_len: trace.len(),
            });
        }
        if seeds.contains_key(&slot) {
            return Err(RuntimeError::DuplicateKill {
                vertex: kill.vertex,
                index: kill.index,
            });
        }
        kill_at_by_slot[slot] = Some((kill.at_counter, kill.index));
        let nf = v.build_nf();
        let objects = nf.state_objects();
        seeds.insert(
            slot,
            ReplacementSeed {
                kill: *kill,
                old_instance: plans[slot].instance,
                plan: InstancePlan {
                    vertex: kill.vertex,
                    instance: InstanceId(next_instance),
                    off_path: v.off_path,
                    is_tail: exits.contains(&kill.vertex),
                    log_egress: false,
                    downstream: dag.downstream_of(kill.vertex),
                    nf,
                    objects,
                },
            },
        );
        next_instance += 1;
    }
    if let Some(at) = fault.root_kill {
        if at == 0 || at > trace.len() as u64 {
            return Err(RuntimeError::KillOutsideTrace {
                at_counter: at,
                trace_len: trace.len(),
            });
        }
    }

    // Replay sources: a killed entry is restored from the root's injection
    // log; a killed mid-chain or tail vertex from the egress logs of its
    // on-path upstream vertices (FTMB-style per-vertex output logging), so
    // the replay re-enters the chain at the killed vertex's own depth and
    // upstream duplicate suppression can never eat it. Off-path vertices
    // emit nothing, so they are never a replay source.
    let mut preds: HashMap<VertexId, Vec<VertexId>> = HashMap::new();
    for v in dag.vertices() {
        if v.off_path {
            continue;
        }
        for d in dag.downstream_of(v.id) {
            preds.entry(d).or_default().push(v.id);
        }
    }
    let mut replay_sources: HashMap<VertexId, ReplaySource> = HashMap::new();
    let mut logging: BTreeSet<VertexId> = BTreeSet::new();
    for kill in &fault.kills {
        if replay_sources.contains_key(&kill.vertex) {
            continue;
        }
        if entries.contains(&kill.vertex) {
            replay_sources.insert(kill.vertex, ReplaySource::Root);
        } else {
            let ups = preds.get(&kill.vertex).cloned().unwrap_or_default();
            logging.extend(ups.iter().copied());
            replay_sources.insert(kill.vertex, ReplaySource::Upstream(ups));
        }
    }
    // Arm egress logging on every instance of a logging vertex — and on its
    // replacement, should the logging vertex itself be killed, so the log
    // keeps covering live traffic across that failover.
    for p in &mut plans {
        p.log_egress = logging.contains(&p.vertex);
    }
    for seed in seeds.values_mut() {
        seed.plan.log_egress = logging.contains(&seed.plan.vertex);
    }

    let shards = rt.store_shards.max(1);
    let mut shard_checkpoints: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut shard_restarts: HashMap<u64, Vec<usize>> = HashMap::new();
    for sf in &fault.shard_faults {
        if sf.shard >= shards {
            return Err(RuntimeError::ShardOutOfRange {
                shard: sf.shard,
                shards,
            });
        }
        for at in std::iter::once(sf.at_counter).chain(sf.checkpoint_at) {
            if at == 0 || at > trace.len() as u64 {
                return Err(RuntimeError::ShardFaultOutsideTrace {
                    at_counter: at,
                    trace_len: trace.len(),
                });
            }
        }
        if let Some(cp) = sf.checkpoint_at {
            shard_checkpoints.entry(cp).or_default().push(sf.shard);
        }
        shard_restarts
            .entry(sf.at_counter)
            .or_default()
            .push(sf.shard);
    }
    let reinject_set: HashSet<u64> = fault.reinject.iter().copied().collect();
    for &counter in &reinject_set {
        if counter == 0 || counter > trace.len() as u64 {
            return Err(RuntimeError::ReinjectOutsideTrace {
                counter,
                trace_len: trace.len(),
            });
        }
    }

    // ------------------------------------------------------------------
    // Wiring: one SPSC ring per (producer, consumer) pair.
    // ------------------------------------------------------------------

    // Sentinel state exists before the wiring because every OutLink carries
    // a handle to the conservation ledger.
    let sentinel_state = rt
        .telemetry
        .sentinel
        .then(|| Arc::new(SentinelState::new()));

    let slots_of = |v: &VertexId| by_vertex.get(v).map(Vec::as_slice).unwrap_or(&[]);
    let mut rings = RingPlan {
        inputs: (0..plans.len()).map(|_| Vec::new()).collect(),
        sink_inputs: Vec::new(),
        probes: Vec::new(),
        monitor_on: rt.telemetry.sample_interval.is_some(),
        depth,
        batch,
        sentinel: sentinel_state.clone(),
    };

    // Root → entry instances.
    let root_outs: Vec<Downstream> = entries
        .iter()
        .map(|entry| Downstream {
            splitter: splitters[entry].clone(),
            links: rings.fan_out("root", *entry, slots_of(entry), Some(true)),
        })
        .collect();

    // Supervisor → instances of each *killed* vertex: one replay ring per
    // instance, idle until a failover replays that vertex's replay source.
    // Replay traffic never shares a ring with live traffic, so live flows
    // keep their order; and the rings sit at the killed vertex's own depth —
    // its replacement inherits them with the rest of the wiring, so replays
    // enter the chain exactly where the loss happened.
    let killed: BTreeSet<VertexId> = fault.kills.iter().map(|k| k.vertex).collect();
    let replay_outs: HashMap<VertexId, Downstream> = killed
        .iter()
        .map(|kv| {
            let links = rings.fan_out("replay", *kv, slots_of(kv), None);
            let splitter = splitters[kv].clone();
            (*kv, Downstream { splitter, links })
        })
        .collect();

    // Instance → downstream instances (on-path producers only; off-path
    // vertices consume copies and emit nothing, as in the simulator), then
    // tail instances → sink. In topological order, so an instance's inputs
    // are complete — and its output order known — before its outputs are
    // wired.
    let mut outs: Vec<Vec<Downstream>> = (0..plans.len()).map(|_| Vec::new()).collect();
    let mut sink_outs: Vec<Option<OutLink>> = (0..plans.len()).map(|_| None).collect();
    for &i in topo.iter().flat_map(&slots_of) {
        if plans[i].off_path {
            continue;
        }
        let from = format!("v{}.{}", plans[i].vertex.0, slot_index[i]);
        let ordered = forwards_in_order(&rings.inputs[i]);
        for d in &plans[i].downstream {
            outs[i].push(Downstream {
                splitter: splitters[d].clone(),
                links: rings.fan_out(&from, *d, slots_of(d), Some(ordered)),
            });
        }
        if plans[i].is_tail {
            sink_outs[i] = Some(rings.sink_link(&from));
        }
    }
    let RingPlan {
        inputs,
        sink_inputs,
        probes: mut ring_probes,
        ..
    } = rings;

    // Callback inboxes, indexed by instance id (replacements included).
    let inboxes: Vec<Inbox> = (0..next_instance)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();

    // ------------------------------------------------------------------
    // Shared infrastructure: store, telemetry, packet log.
    // ------------------------------------------------------------------

    let server = StoreServer::with_backend(rt.store_shards, rt.store_backend);
    for sf in &fault.shard_faults {
        server.set_shard_journaling(sf.shard, true);
    }
    if !fault_mode {
        // No fault plan, no replay source: no clocked update can ever be a
        // duplicate, so the store keeps no duplicate-suppression log at all.
        server.forget_through(u64::MAX);
    }
    let telemetry = Arc::new(RunTelemetry::new(
        rt.telemetry,
        Instant::now(),
        dag.vertices().iter().map(|v| v.id),
        sentinel_state,
    ));

    // Packet logs: the root's injection log plus one egress log per armed
    // upstream vertex, all bounded by the same capacity; and the XOR delete
    // ledger that tracks, per clock counter, which logged tokens are still
    // outstanding and whether the sink confirmed delivery.
    let mut vertex_logs = VertexLogs::new(config.root_log_capacity);
    for &v in &logging {
        vertex_logs.arm(v, config.root_log_capacity);
    }
    let logs = Arc::new(vertex_logs);
    let ledger: Option<Arc<XorDeleteLedger>> = (fault_mode
        && (!fault.kills.is_empty() || fault.root_kill.is_some()))
    .then(|| Arc::new(XorDeleteLedger::new(trace.len() as u64)));

    let shared = Arc::new(EngineShared {
        server: Arc::clone(&server),
        inboxes,
        config,
        batch,
        record_logs: rt.record_recovery_logs,
        clock_tags: rt.clock_tag_updates,
        fault_mode,
        dedup,
        fail_stopped: AtomicBool::new(false),
        telemetry: Arc::clone(&telemetry),
        logs: Arc::clone(&logs),
        ledger: ledger.clone(),
        write_behind: rt.write_behind,
        store_batch: rt.effective_store_batch(),
        ring_wait: rt.ring_wait,
    });

    // Commit sources bounding the root log: every on-path instance plus the
    // sink must confirm a counter before the supervisor may truncate it.
    let commit_sources: Vec<InstanceId> = plans
        .iter()
        .filter(|p| !p.off_path)
        .map(|p| p.instance)
        .chain(std::iter::once(SINK_COMMIT_SOURCE))
        .collect();
    // Each armed egress log truncates against its *own* scope: the on-path
    // instances strictly downstream of the logging vertex, plus the sink.
    // (The logging vertex's own watermark says nothing about whether its
    // egress has been consumed yet.)
    let vertex_commit_scopes: Vec<(VertexId, Vec<InstanceId>)> = logging
        .iter()
        .map(|&u| {
            let mut below: HashSet<VertexId> = HashSet::new();
            let mut stack = dag.downstream_of(u);
            while let Some(d) = stack.pop() {
                if below.insert(d) {
                    stack.extend(dag.downstream_of(d));
                }
            }
            let srcs: Vec<InstanceId> = plans
                .iter()
                .filter(|p| !p.off_path && below.contains(&p.vertex))
                .map(|p| p.instance)
                .chain(std::iter::once(SINK_COMMIT_SOURCE))
                .collect();
            (u, srcs)
        })
        .collect();
    let done_injecting = Arc::new(AtomicBool::new(false));
    let root_ctx = RootShared {
        trace,
        telemetry: &telemetry,
        logs: &logs,
        server: &server,
        scale: rt.scale,
        trace_ppm: rt.telemetry.trace_sample_ppm,
        fault_mode,
        batch,
        reinject_set: &reinject_set,
        shard_checkpoints: &shard_checkpoints,
        shard_restarts: &shard_restarts,
        inject_spans: true,
    };

    let result =
        thread::scope(|scope| {
            let (fault_tx, fault_rx) = mpsc::channel::<DyingInstance>();

            // ---------------- instance threads ----------------
            let mut handles = Vec::new();
            for (slot, (plan, (ins, out_map), sink_link)) in
                zip3(plans, inputs.into_iter().zip(outs), sink_outs).enumerate()
            {
                let shared = Arc::clone(&shared);
                let kill = kill_at_by_slot[slot].map(|(at_counter, index)| KillSwitch {
                    slot,
                    index,
                    at_counter,
                    tx: fault_tx.clone(),
                });
                telemetry.event(EventKind::InstanceSpawn {
                    vertex: plan.vertex.0,
                    index: slot_index[slot] as u32,
                    instance: plan.instance.0 as u64,
                });
                handles.push(scope.spawn(move || {
                    run_instance(plan, ins, out_map, sink_link, shared, kill, false)
                }));
            }
            drop(fault_tx);

            // ---------------- sink thread ----------------
            let sink_commit = fault_mode.then(|| Arc::clone(&server));
            let sink_telemetry = Arc::clone(&telemetry);
            // Per-flow delivery-order checking rides the sink thread (one
            // map lookup per live arrival); a pre-planned scale cut exempts
            // cross-cut pairs because the cut re-routes flows.
            let sink_flow_order = telemetry
                .sentinel
                .is_some()
                .then(|| FlowOrderChecker::new(rt.scale.map(|s| s.first_counter)));
            let sink_ledger = ledger.clone();
            let sink_handle = scope.spawn(move || {
                run_sink(
                    sink_inputs,
                    batch,
                    sink_commit,
                    sink_ledger,
                    sink_telemetry,
                    sink_flow_order,
                    rt.ring_wait,
                )
            });

            // ---------------- sentinel thread ----------------
            // Consumes the event journal while the run is live, so a
            // frontier regression or phase-order break surfaces as a
            // violation event at detection time, not at shutdown.
            let sentinel_stop = Arc::new(AtomicBool::new(false));
            let sentinel_handle = (telemetry.sentinel.is_some() && telemetry.journal.is_some())
                .then(|| {
                    let telemetry = Arc::clone(&telemetry);
                    let stop = Arc::clone(&sentinel_stop);
                    scope.spawn(move || run_sentinel(telemetry, stop))
                });

            // ---------------- monitor thread ----------------
            let monitor_stop = Arc::new(AtomicBool::new(false));
            let monitor_handle = rt.telemetry.sample_interval.map(|interval| {
                let targets = MonitorTargets {
                    rings: std::mem::take(&mut ring_probes),
                    server: Arc::clone(&server),
                    journaled_shards: fault
                        .shard_faults
                        .iter()
                        .map(|sf| sf.shard)
                        .collect::<BTreeSet<usize>>()
                        .into_iter()
                        .collect(),
                    log: fault_mode.then(|| Arc::clone(&logs)),
                };
                let telemetry = Arc::clone(&telemetry);
                let stop = Arc::clone(&monitor_stop);
                scope.spawn(move || run_monitor(targets, telemetry, interval, stop))
            });

            // ---------------- supervisor thread ----------------
            let sup_handle = fault_mode.then(|| {
                let shared = Arc::clone(&shared);
                let logs = Arc::clone(&logs);
                let ledger = ledger.clone();
                let done = Arc::clone(&done_injecting);
                let sources = commit_sources.clone();
                let scopes = vertex_commit_scopes.clone();
                // A re-injected copy travels the chain with no log holding
                // it and no watermark covering it: while the supervisor
                // runs, the store's replay floor stays below the drill.
                let floor_cap = reinject_set.iter().min().map_or(u64::MAX, |c| c - 1);
                scope.spawn(move || {
                    run_supervisor(
                        scope,
                        fault_rx,
                        seeds,
                        replay_outs,
                        replay_sources,
                        logs,
                        ledger,
                        shared,
                        sources,
                        scopes,
                        floor_cap,
                        done,
                    )
                })
            });

            // ---------------- warm standby root ----------------
            // Pre-spawned before injection starts: it blocks on the handover
            // channel, shadowing the root's clock counter, and wakes only if
            // the plan fail-stops the root mid-trace.
            let (standby_tx, standby_rx) = mpsc::channel::<RootIo>();
            let standby_handle = fault.root_kill.map(|kill_at| {
                let ledger = ledger.clone();
                let done = Arc::clone(&done_injecting);
                let (telemetry, logs) = (root_ctx.telemetry, root_ctx.logs);
                scope.spawn(
                    move || -> (u64, u64, Vec<ShardRecovery>, Option<RootTakeover>) {
                        let Ok(mut io) = standby_rx.recv() else {
                            // Unsignalled channel drop: the root never died
                            // (cannot happen with a validated root kill).
                            return (0, 0, Vec::new(), None);
                        };
                        let started = Instant::now();
                        // The Root trace lane is single-writer; the standby
                        // skips Inject spans rather than interleave with the
                        // dead root's lane.
                        let ctx = RootShared {
                            inject_spans: false,
                            ..root_ctx
                        };
                        // Replay the unconfirmed suffix of the root log
                        // through the inherited live rings, marked as
                        // standby replay. Replayed counters all sit below
                        // the resume point, so per-ring watermarks stay
                        // monotone; entry seen-sets and the sink's replay
                        // window absorb the copies the chain already has —
                        // only the packets that died in the root's buffers
                        // flow through for the first time.
                        let snapshot = {
                            let lg = logs.root();
                            lg.snapshot()
                        };
                        let mut replayed = 0u64;
                        for mut tp in snapshot {
                            if ledger
                                .as_ref()
                                .is_some_and(|l| l.confirmed(tp.clock.counter()))
                            {
                                continue;
                            }
                            tp.replay_for = Some(STANDBY_ROOT_ID);
                            route_to_entries(&ctx, &mut io, &tp);
                            replayed += 1;
                            telemetry.replay_progress.inc();
                        }
                        links_mut(&mut io.outs).for_each(OutLink::flush);
                        let resumed_at = io.counter + 1;
                        telemetry.event(EventKind::RootTakeover {
                            resumed_at,
                            packets_replayed: replayed,
                        });
                        let mut shard_recs = Vec::new();
                        run_root_injection(&ctx, &mut io, None, &mut shard_recs);
                        let reinjected = finish_injection(&ctx, &mut io);
                        done.store(true, Ordering::Release);
                        let takeover = RootTakeover {
                            killed_at: kill_at,
                            resumed_at,
                            packets_replayed: replayed,
                            recovery_wall: started.elapsed(),
                        };
                        (io.counter, reinjected, shard_recs, Some(takeover))
                    },
                )
            });

            // ---------------- root (this thread) ----------------
            let mut io = RootIo {
                outs: root_outs,
                reinject_buf: Vec::new(),
                counter: 0,
            };
            let mut shard_recoveries: Vec<ShardRecovery> = Vec::new();
            run_root_injection(&root_ctx, &mut io, fault.root_kill, &mut shard_recoveries);
            let mut root_reinjected = 0u64;
            let root_counter;
            if let Some(kill_at) = fault.root_kill {
                // Fail-stop: the root dies just before injecting `kill_at`.
                // Its unflushed output buffers die with it (what a crashed
                // process loses); the live rings themselves survive, exactly
                // like packets in the network, and the warm standby inherits
                // them together with the shadowed counter.
                telemetry.event(EventKind::RootKilled {
                    at_counter: kill_at,
                });
                shared.fail_stopped.store(true, Ordering::Relaxed);
                links_mut(&mut io.outs).for_each(|link| link.buf.clear());
                root_counter = io.counter;
                standby_tx
                    .send(io)
                    .expect("standby thread holds the receiver");
            } else {
                root_reinjected = finish_injection(&root_ctx, &mut io);
                root_counter = io.counter;
                drop(io);
                done_injecting.store(true, Ordering::Release);
            }
            drop(standby_tx);

            // The standby (when armed) finishes injection and sets
            // done_injecting, so it must be joined before the supervisor,
            // which waits on that flag.
            let standby_out = standby_handle.map(|h| h.join().expect("standby thread panicked"));
            let (injected_counter, reinjected, standby_shards, root_takeover) = match standby_out {
                Some((c, r, recs, takeover)) if takeover.is_some() => (c, r, recs, takeover),
                _ => (root_counter, root_reinjected, Vec::new(), None),
            };
            shard_recoveries.extend(standby_shards);

            // The supervisor exits once every planned kill resolved and closes
            // the replay rings; instances drain and exit after it.
            let sup = sup_handle.map(|h| h.join().expect("supervisor thread panicked"));

            let mut instance_results: Vec<InstanceResult> = handles
                .into_iter()
                .map(|h| h.join().expect("instance thread panicked"))
                .collect();
            let (recoveries, aborts, replacement_handles) = match sup {
                Some(outcome) => (outcome.recoveries, outcome.aborts, outcome.replacements),
                None => (Vec::new(), Vec::new(), Vec::new()),
            };
            for h in replacement_handles {
                instance_results.push(h.join().expect("replacement thread panicked"));
            }
            let sink = sink_handle.join().expect("sink thread panicked");
            sentinel_stop.store(true, Ordering::Release);
            if let Some(h) = sentinel_handle {
                h.join().expect("sentinel thread panicked");
            }
            monitor_stop.store(true, Ordering::Release);
            let series = monitor_handle
                .map(|h| h.join().expect("monitor thread panicked"))
                .unwrap_or_default();
            (
                injected_counter,
                reinjected,
                shard_recoveries,
                recoveries,
                aborts,
                root_takeover,
                instance_results,
                sink,
                series,
            )
        });
    let (
        injected,
        reinjected,
        shard_recoveries,
        recoveries,
        aborts,
        root_takeover,
        instance_results,
        sink,
        series,
    ) = result;

    let mut instances = Vec::new();
    let mut failed_instances = Vec::new();
    for r in instance_results {
        if r.failed {
            failed_instances.push(r.into_report());
        } else {
            instances.push(r.into_report());
        }
    }
    instances.sort_by_key(|r| (r.vertex, r.instance));

    // Final frontier pass: every surviving component has published its last
    // watermark by now, so this is the tightest truncation the commit
    // protocol can justify.
    let mut final_frontier = 0u64;
    let fault_report = fault_mode.then(|| {
        let remap = |srcs: &[InstanceId]| -> Vec<InstanceId> {
            let mut srcs = srcs.to_vec();
            for rec in &recoveries {
                for s in srcs.iter_mut() {
                    if *s == rec.failed_instance {
                        *s = rec.replacement;
                    }
                }
            }
            srcs
        };
        let frontier = server.commit_frontier(&remap(&commit_sources));
        final_frontier = frontier;
        let (high_water, truncated, final_len, rejected) = {
            let mut lg = logs.root();
            let dropped = lg.truncate_confirmed(0, frontier);
            if dropped > 0 {
                telemetry.event(EventKind::CommitFrontier {
                    frontier,
                    dropped: dropped as u64,
                });
            }
            (lg.high_water(), lg.truncated(), lg.len(), lg.rejected())
        };
        // Per-vertex egress logs truncate against their own scopes, then an
        // XOR sweep deletes every remaining entry whose clock the ledger
        // proves both delivered and fully cancelled (Figure 6's per-packet
        // deletes, which cover what the frontier cannot).
        for (v, srcs) in &vertex_commit_scopes {
            let vf = server.commit_frontier(&remap(srcs));
            if let Some(mut vl) = logs.vertex(*v) {
                vl.truncate_confirmed(0, vf);
                if let Some(ledger) = &ledger {
                    vl.delete_where(|c| ledger.deletable(c.counter()));
                }
            }
        }
        // Every thread has joined — nothing is in flight, the re-injection
        // drill included — so the store may forget what the logs forgot.
        raise_replay_floor(&server, &logs, frontier);
        FaultReport {
            recoveries,
            shard_recoveries,
            log_high_water: high_water,
            log_truncated: truncated,
            log_final_len: final_len,
            log_rejected: rejected,
            reinjected,
            root_takeover,
            aborts,
            vertex_logs: logs.stats(),
        }
    });

    // Shutdown invariant pass — before the telemetry report is assembled,
    // so violation events it journals appear in the report's event list.
    let processed_total: u64 = instances
        .iter()
        .chain(failed_instances.iter())
        .map(|r| r.processed)
        .sum();
    let suppressed_total: u64 = instances
        .iter()
        .chain(failed_instances.iter())
        .map(|r| r.suppressed_duplicates)
        .sum();
    let store_update_log_len = server.update_log_len();
    let store_replay_floor = server.replay_floor();
    let invariants = finalize_sentinel(
        &telemetry,
        &SentinelInputs {
            injected,
            reinjected,
            duplicates: sink.duplicates,
            sink_arrivals: sink.arrivals,
            processed: processed_total,
            suppressed: suppressed_total,
            fault_mode,
            frontier: final_frontier,
            log_final_len: fault_report.as_ref().map_or(0, |f| f.log_final_len as u64),
            log_high_water: fault_report.as_ref().map_or(0, |f| f.log_high_water as u64),
            log_capacity: config.root_log_capacity as u64,
            vertex_log_high_water: fault_report.as_ref().map_or(0, |f| {
                f.vertex_logs
                    .iter()
                    .map(|s| s.high_water as u64)
                    .max()
                    .unwrap_or(0)
            }),
            xor_dirty: ledger
                .as_ref()
                .map_or(0, |l| l.dirty_confirmed().len() as u64),
            dedup_log_len: store_update_log_len as u64,
            dedup_widest_packet: server.update_log_widest_packet() as u64,
            replay_floor: store_replay_floor,
        },
    );

    let telemetry_report =
        (!rt.telemetry.is_disabled()).then(|| assemble_report(&telemetry, series));

    Ok(RuntimeReport {
        delivered: sink.delivered_ids.len() - sink.duplicates as usize,
        duplicates: sink.duplicates,
        duplicate_clocks: sink.duplicate_clocks,
        delivered_ids: sink.delivered_ids,
        replay_window_suppressed: sink.replay_window_suppressed,
        delivered_bytes: sink.bytes,
        injected,
        elapsed: sink.finished_at,
        latency: sink.latency,
        sink_window_bytes: sink.window_bytes,
        instances,
        failed_instances,
        store_ops: server.total_ops(),
        store_ops_per_shard: server.ops_per_shard(),
        store_update_log_len,
        store_replay_floor,
        final_state: server.dump(),
        fault: fault_report,
        telemetry: telemetry_report,
        invariants,
    })
}

/// Zip three equal-length collections (std has no 3-way zip that keeps
/// by-value iteration readable).
fn zip3<A, B, C>(
    a: Vec<A>,
    b: impl Iterator<Item = B>,
    c: Vec<C>,
) -> impl Iterator<Item = (A, B, C)> {
    a.into_iter().zip(b).zip(c).map(|((a, b), c)| (a, b, c))
}

/// Everything the stamping loop reads, shared between the root (the calling
/// thread) and the warm standby that takes over if the plan kills the root.
#[derive(Clone, Copy)]
struct RootShared<'a> {
    trace: &'a Trace,
    telemetry: &'a RunTelemetry,
    logs: &'a VertexLogs,
    server: &'a StoreServer,
    scale: Option<ScaleEvent>,
    trace_ppm: u32,
    fault_mode: bool,
    batch: usize,
    reinject_set: &'a HashSet<u64>,
    shard_checkpoints: &'a HashMap<u64, Vec<usize>>,
    shard_restarts: &'a HashMap<u64, Vec<usize>>,
    /// Only the original root records Inject trace spans: the Root trace
    /// lane is single-writer, and the standby resumes after the dead root's
    /// last span.
    inject_spans: bool,
}

/// The injection state handed from the dead root to the warm standby: the
/// live output rings (one fan-out per entry vertex), the re-injection
/// buffer, and the clock counter the standby shadows — injection resumes
/// exactly where the root died.
struct RootIo {
    outs: Vec<Downstream>,
    reinject_buf: Vec<TaggedPacket>,
    counter: u64,
}

/// Stamp and inject the trace from `io.counter` onward, stopping — without
/// injecting — just before `stop_before`, the planned root fail-stop point.
fn run_root_injection(
    ctx: &RootShared<'_>,
    io: &mut RootIo,
    stop_before: Option<u64>,
    shard_recoveries: &mut Vec<ShardRecovery>,
) {
    for pkt in ctx.trace.iter().skip(io.counter as usize) {
        let next = io.counter + 1;
        if stop_before == Some(next) {
            return;
        }
        if ctx.fault_mode {
            if let Some(targets) = ctx.shard_checkpoints.get(&next) {
                for &s in targets {
                    ctx.server.checkpoint_shard(s);
                }
            }
            if let Some(targets) = ctx.shard_restarts.get(&next) {
                for &s in targets {
                    let started = Instant::now();
                    let stats = ctx.server.restart_shard(s);
                    ctx.telemetry.event(EventKind::ShardRestart {
                        shard: s as u32,
                        ops_replayed: stats.replayed_ops as u64,
                    });
                    shard_recoveries.push(ShardRecovery {
                        shard: s,
                        at_counter: next,
                        restored_from_checkpoint: stats.restored_from_checkpoint,
                        replayed_ops: stats.replayed_ops,
                        recovery_wall: started.elapsed(),
                    });
                }
            }
        }
        io.counter += 1;
        let counter = io.counter;
        if let Some(scale) = ctx.scale {
            if counter == scale.first_counter {
                ctx.telemetry.event(EventKind::ScaleCut {
                    vertex: scale.vertex.0,
                    at_counter: counter,
                });
            }
        }
        let mut tp = TaggedPacket::new(pkt.clone(), Clock::with_root(0, counter));
        // Flow-sampled causal tracing: tag before the packet-log insert so
        // replayed copies carry the tag too.
        if ctx.telemetry.tracer.is_some() && flow_sampled(pkt.flow_key(), ctx.trace_ppm) {
            tp.trace = Some(TraceTag::new(counter));
        }
        // Span epoch of a timed packet: the root "lets go" of it at
        // injection. Stamped before the log insert too, so a replayed copy
        // still measures from the original injection.
        if tp.is_timed() {
            let now_ns = ctx.telemetry.now_ns();
            tp.inject_ns = now_ns;
            tp.hop_ns = now_ns;
            if tp.trace.is_some() && ctx.inject_spans {
                ctx.telemetry.trace_span(SpanEvent {
                    trace_id: counter,
                    lane: TraceLane::Root,
                    kind: SpanKind::Inject,
                    t_ns: now_ns,
                    dur_ns: 0,
                });
            }
        }
        if ctx.fault_mode {
            if !ctx.logs.root().insert(tp.clone()) {
                // Buffer-bloat guard (§5): a full log rejects the packet
                // instead of queueing without bound.
                continue;
            }
            if ctx.reinject_set.contains(&counter) {
                io.reinject_buf.push(tp.clone());
            }
        }
        route_to_entries(ctx, io, &tp);
    }
}

/// Route one stamped packet to the entry instances through the live rings.
fn route_to_entries(ctx: &RootShared<'_>, io: &mut RootIo, tp: &TaggedPacket) {
    for entry in &mut io.outs {
        entry.route(tp, ctx.batch);
    }
}

/// Re-injection drill (saved logged packets sent a second time, unmarked:
/// downstream queue suppression or the sink's duplicate accounting must
/// absorb them) plus the final flush/close of the live rings. Run by
/// whichever thread finishes injection — the root on a healthy run, the
/// standby after a takeover. Returns the number of re-injected packets.
fn finish_injection(ctx: &RootShared<'_>, io: &mut RootIo) -> u64 {
    let mut reinjected = 0u64;
    let buffered: Vec<TaggedPacket> = io.reinject_buf.drain(..).collect();
    for tp in buffered {
        route_to_entries(ctx, io, &tp);
        reinjected += 1;
    }
    for link in links_mut(&mut io.outs) {
        link.flush();
        link.producer.close();
    }
    reinjected
}

/// Body of one NF instance thread (also used for failover replacements, with
/// `replacement = true`: commit publication is then gated until the replay
/// rings drain, because an inherited watermark only becomes true again once
/// the replayed packets have been re-flushed downstream).
pub(crate) fn run_instance(
    mut plan: InstancePlan,
    mut inputs: Vec<InputRing>,
    mut outs: Vec<Downstream>,
    mut sink_link: Option<OutLink>,
    shared: Arc<EngineShared>,
    mut kill: Option<KillSwitch>,
    replacement: bool,
) -> InstanceResult {
    // Span state: on-path instances time queue wait, service and store RTT
    // of the timed packets; the store handle below feeds the same per-vertex
    // histograms. Off-path instances consume copies outside the delivery
    // path, so timing them would break the decomposition's telescoping.
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
    client.set_recovery_logging(shared.record_logs);
    client.set_clock_tagging(shared.clock_tags);
    if shared.write_behind {
        client.set_write_behind(true, shared.store_batch);
    }

    let my_inbox = Arc::clone(&shared.inboxes[plan.instance.0 as usize]);
    let mut result = InstanceResult {
        vertex: plan.vertex,
        instance: plan.instance,
        processed: 0,
        dropped_by_nf: 0,
        suppressed_duplicates: 0,
        alerts: Vec::new(),
        batches_in: 0,
        replay_egress_gated: 0,
        dedup_window_bytes: 0,
        failed: false,
    };
    let mut work: Vec<TaggedPacket> = Vec::with_capacity(shared.batch);
    // Clocks seen at this input queue (fault mode only). Pruned at the
    // instance's own watermark while that watermark is exact: every live
    // ring clock-ordered — fixed at wiring time, `prunable` — and nothing
    // fail-stopped yet (see `prune_seen`).
    let mut seen = ClockWindow::new();
    let prunable = shared.dedup && inputs.iter().filter(|r| !r.replay).all(|r| r.ordered);
    let mut killed_at_clock = 0u64;
    let mut idle_streak = 0u32;
    let lane = TraceLane::Vertex {
        vertex: plan.vertex.0,
        instance: plan.instance.0 as u64,
    };

    'run: loop {
        // Store callbacks keep read-heavy cached objects fresh (Table 1); the
        // rate is low, so one drain per wake-up is plenty.
        {
            let mut inbox = my_inbox.lock().unwrap_or_else(|e| e.into_inner());
            for (key, value) in inbox.drain(..) {
                client.handle_callback(&key, value);
            }
        }

        let mut moved = 0usize;
        for input in &mut inputs {
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
                            killed_at_clock = tp.clock.counter();
                            result.failed = true;
                            if let Some(s) = &shared.telemetry.sentinel {
                                s.ledger.kill_lost.add((n - pos) as u64);
                            }
                            // Every packet processed before the kill must
                            // have its store effects applied, exactly as on
                            // the per-op path — the buffer is part of the
                            // process image and would otherwise die here.
                            drain_store_buffer(&mut client, &shared);
                            break 'run;
                        }
                    }
                    input.last_counter = input.last_counter.max(tp.clock.counter());
                }
                let traced = tp.trace.map(|t| t.id);
                // Duplicate suppression at the input queue (§5.3): the clock
                // is unique per input packet, so a repeat is always a replay
                // or re-injection; it is counted, never silently processed.
                if shared.dedup && !seen.insert(tp.clock) {
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
                let action = run_nf(&tp, &mut plan, &mut client, &shared, &mut result);
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
                forward(
                    tp,
                    action,
                    &plan,
                    &shared,
                    &mut outs,
                    &mut sink_link,
                    &mut result,
                );
            }
        }

        if moved > 0 {
            idle_streak = 0;
            // Ring batch boundary: land the batch's buffered store ops as
            // one batched apply. In fault mode this must precede the
            // watermark (commit implies durable — a confirmed packet's
            // store effects survive any later crash); outside fault mode it
            // bounds write-behind latency to one wake-up.
            drain_store_buffer(&mut client, &shared);
            if shared.fault_mode {
                // Commit implies durable: flush the batched outputs before
                // publishing the watermark, so a crash after publication can
                // never lose a confirmed packet's effects.
                flush_all(&mut outs, &mut sink_link);
                publish_watermark(&shared, &plan, &mut inputs, replacement);
                if prunable {
                    prune_seen(&mut seen, &shared, &inputs);
                }
            }
        } else {
            // Idle: release buffered output so downstream instances are not
            // starved by a partially filled batch, then check for shutdown.
            drain_store_buffer(&mut client, &shared);
            flush_all(&mut outs, &mut sink_link);
            if kill.is_some()
                && inputs
                    .iter_mut()
                    .filter(|r| !r.replay)
                    .all(|r| r.rx.is_exhausted())
            {
                // The live stream ended without reaching the trigger: this
                // kill can no longer fire. Dropping the switch lets the
                // supervisor observe a disconnected channel and wind down.
                kill = None;
            }
            if inputs.iter_mut().all(|r| r.rx.is_exhausted()) {
                break;
            }
            idle_streak += 1;
            idle_wait(shared.ring_wait, idle_streak, &mut inputs);
        }
    }

    if result.failed {
        // Fail-stop: unflushed output batches die with the process; the
        // wiring goes to the supervisor for the replacement thread.
        for link in links_mut(&mut outs).chain(&mut sink_link) {
            link.buf.clear();
        }
        let k = kill.take().expect("fail-stop without a kill switch");
        // Journal the death *before* notifying the supervisor, so the kill
        // event is causally ordered before every failover event.
        shared.telemetry.event(EventKind::InstanceKilled {
            vertex: plan.vertex.0,
            index: k.index as u32,
            instance: plan.instance.0 as u64,
            clock: killed_at_clock,
        });
        shared.fail_stopped.store(true, Ordering::Relaxed);
        let _ = k.tx.send(DyingInstance {
            slot: k.slot,
            inputs,
            outs,
            sink_link,
        });
        return result;
    }

    // Healthy shutdown: whatever the last (partial) batch buffered must
    // reach the store before the streams close and the final watermark.
    drain_store_buffer(&mut client, &shared);
    for link in links_mut(&mut outs).chain(&mut sink_link) {
        link.flush();
        link.producer.close();
    }
    if shared.fault_mode {
        publish_watermark(&shared, &plan, &mut inputs, replacement);
        if prunable {
            prune_seen(&mut seen, &shared, &inputs);
        }
    }
    result.dedup_window_bytes = seen.resident_bytes();
    result
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
    links_mut(outs).chain(sink_link).for_each(OutLink::flush);
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
fn publish_watermark(
    shared: &EngineShared,
    plan: &InstancePlan,
    inputs: &mut [InputRing],
    replacement: bool,
) {
    if plan.off_path {
        return;
    }
    if replacement && inputs.iter_mut().any(|r| r.replay && !r.rx.is_exhausted()) {
        return;
    }
    let wm = live_watermark(inputs);
    if wm > 0 {
        shared.server.publish_commit(plan.instance, wm);
    }
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
    result: &mut InstanceResult,
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
    result: &mut InstanceResult,
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
        if let Some(mut log) = shared.logs.vertex(plan.vertex) {
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
