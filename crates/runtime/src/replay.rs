//! Failover supervision and packet replay for the real-thread engine.
//!
//! The supervisor is a dedicated thread that owns everything the hot path
//! must not touch: the fail-stop channel, the replacement seeds, the
//! supervisor-side **replay rings** into every killed vertex's instances,
//! and the commit-frontier truncation of the packet logs.
//!
//! ## Failover (§5.4 "NF instance", on wall clocks)
//!
//! When an armed instance fail-stops, it sends its SPSC wiring through the
//! fault channel and exits. The supervisor then:
//!
//! 1. re-associates the failed instance's per-flow store state with the
//!    pre-assigned replacement id ([`StoreServer::reassign_owner`] — the
//!    store always holds the authoritative copy because cached per-flow
//!    updates are flushed, Theorem B.5.1),
//! 2. spawns the **replacement thread** on the inherited wiring: in-flight
//!    packets still queued in the input rings survive, exactly like packets
//!    sitting in the network across an endpoint crash,
//! 3. **replays** the killed vertex's [`ReplaySource`] — the root's
//!    injection log for an entry vertex, the merged egress logs of its
//!    on-path upstream vertices (FTMB-style output logging) otherwise —
//!    marked `replay_for = replacement`, through the killed vertex's own
//!    replay rings: one ring per instance of that vertex, so live flows
//!    keep their ring order and replay enters the chain at the killed
//!    vertex's depth rather than re-traversing the whole upstream prefix.
//!
//! Replay is idempotent end to end: instances suppress duplicate clocks at
//! their input queues, the store suppresses duplicate clocked updates, tail
//! replacements gate re-emission on the XOR delete ledger, and the sink
//! absorbs the residual re-delivery window into its own (separately
//! counted) suppression — the chain's duplicate accounting stays at zero.
//!
//! **Overlapping failovers**: a second armed instance may die while the
//! first failover's replay is still in flight — and because the dead
//! instance stops draining its own replay ring, the in-flight replay would
//! stall on it. Failover is therefore split into a *begin* phase (state
//! hand-off + replacement spawn, cheap and never blocking) and a *replay*
//! phase: whenever a replay push backs up, the supervisor first begins any
//! newly arrived failover, so the new replacement inherits the stalled ring
//! and drains it, and the push resumes.
//!
//! A failover the supervisor genuinely cannot complete — a replay ring that
//! stays full though no further fail-stop arrived (the consumer stopped
//! draining), or a wiring hand-off with no replacement seed — is
//! **aborted**, not allowed to hang the run: the supervisor journals a
//! `failover_abort` event, records it in [`SupervisorOutcome::aborts`]
//! (surfaced through `RuntimeReport::fault`), and winds down normally.
//!
//! ## Log truncation (Figure 6)
//!
//! Between fault events the supervisor truncates every packet log up to its
//! own commit frontier — for the root log, the minimum watermark published
//! by every on-path instance and the sink; for a vertex egress log, the
//! minimum over the instances *strictly downstream* of the logging vertex
//! plus the sink. Before the first failover every ring delivers counters
//! monotonically, so the frontier proves completion exactly; while further
//! kills are still armed after a failover, truncation pauses (replayed
//! traffic makes ring order non-monotone, so the frontier could briefly
//! overclaim); once the last kill resolved it resumes, where truncation is
//! unconditionally safe because no future replay exists. On top of the
//! frontier, egress logs also run the paper's per-packet XOR deletes
//! (Figure 6): any entry whose clock the ledger proves delivered and fully
//! cancelled is dropped individually, frontier or not.
//!
//! ## The store's replay floor
//!
//! The same step bounds the store's duplicate-suppression log. A clocked
//! update can only be a duplicate if some replay source re-issues its
//! packet, and there are exactly three: the root log, a vertex egress log,
//! and the re-injection drill's buffer. Right after truncation the root log
//! holds nothing at or below the root frontier; every egress log's scope is
//! a subset of the root's commit sources, so its own frontier is at least
//! as high and it holds nothing there either (XOR deletes only remove
//! more). The supervisor therefore raises [`StoreServer::forget_through`]
//! to the root frontier — capped below the smallest re-injection counter
//! for as long as it runs, because a re-injected copy is in flight after it
//! left the buffer and no watermark covers it. Truncation pauses while
//! replays may be in flight, and so does the floor.

use crate::engine::{DyingInstance, EngineShared, InstancePlan, InstanceResult};
use crate::fault::{FailoverAbort, InstanceKill, InstanceRecovery};
use crate::wiring::{Downstream, OutLink};
use chc_core::{TaggedPacket, VertexLogs, XorDeleteLedger};
use chc_store::{InstanceId, StoreServer, VertexId};
use chc_telemetry::{EventKind, SpanEvent, SpanKind, TraceLane};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;
use std::time::{Duration, Instant};

/// Total consecutive empty push attempts (each one a scheduler yield) the
/// supervisor tolerates on a replay ring — without a new fail-stop arriving
/// to explain the backpressure — before declaring the failover stalled and
/// aborting it. A live consumer drains a ring in microseconds; a million
/// yields is far past any plausible scheduling hiccup.
const REPLAY_MAX_SPINS: usize = 1_000_000;

/// Spin quantum between checks of the fault channel while a replay push is
/// backed up: long enough that a healthy consumer clears the ring within
/// one quantum, short enough that an overlapping fail-stop is begun (and
/// its replacement starts draining) promptly.
const RESCUE_QUANTUM: usize = 20_000;

/// Where the supervisor reads the replay stream for one killed vertex.
pub(crate) enum ReplaySource {
    /// The killed vertex is a chain entry: replay the root's injection log.
    Root,
    /// The killed vertex sits mid-chain or at the tail: replay the merged
    /// egress logs of its on-path upstream vertices, sorted by clock.
    Upstream(Vec<VertexId>),
}

/// Everything prepared ahead of time for one planned failover: the kill it
/// answers, the id being replaced, and the fully-built replacement plan
/// (fresh NF code, pre-assigned instance id). Built on the planning thread
/// because NF builders are `Rc`-based and must not cross threads.
pub(crate) struct ReplacementSeed {
    pub(crate) kill: InstanceKill,
    pub(crate) old_instance: InstanceId,
    pub(crate) plan: InstancePlan,
}

/// What the supervisor hands back when it winds down.
pub(crate) struct SupervisorOutcome<'scope> {
    pub(crate) recoveries: Vec<InstanceRecovery>,
    pub(crate) aborts: Vec<FailoverAbort>,
    pub(crate) replacements: Vec<thread::ScopedJoinHandle<'scope, InstanceResult>>,
}

/// A begun failover whose replay has not run yet: the replacement thread is
/// already up and draining the inherited wiring.
struct ReplayJob {
    kill: InstanceKill,
    old_instance: InstanceId,
    replacement: InstanceId,
    started: Instant,
}

/// Body of the supervisor thread. Exits once the root finished injecting and
/// every armed kill either executed or provably can no longer fire (its
/// instance drained its live rings and dropped the fault channel), then
/// closes the replay rings so the chain can drain.
#[allow(clippy::too_many_arguments)]
pub(crate) fn run_supervisor<'scope, 'env>(
    scope: &'scope thread::Scope<'scope, 'env>,
    rx: mpsc::Receiver<DyingInstance>,
    mut seeds: HashMap<usize, ReplacementSeed>,
    mut replay_outs: HashMap<VertexId, Downstream>,
    replay_sources: HashMap<VertexId, ReplaySource>,
    logs: Arc<VertexLogs>,
    ledger: Option<Arc<XorDeleteLedger>>,
    shared: Arc<EngineShared>,
    mut sources: Vec<InstanceId>,
    mut vertex_scopes: Vec<(VertexId, Vec<InstanceId>)>,
    floor_cap: u64,
    done_injecting: Arc<AtomicBool>,
) -> SupervisorOutcome<'scope> {
    let mut outcome = SupervisorOutcome {
        recoveries: Vec::new(),
        aborts: Vec::new(),
        replacements: Vec::new(),
    };
    let mut disconnected = false;
    loop {
        match rx.recv_timeout(Duration::from_micros(500)) {
            Ok(dying) => {
                let mut pending = VecDeque::new();
                if let Some(job) = begin_failover(
                    scope,
                    dying,
                    &mut seeds,
                    &shared,
                    &mut sources,
                    &mut vertex_scopes,
                    &mut outcome,
                ) {
                    pending.push_back(job);
                }
                while let Some(job) = pending.pop_front() {
                    // Begin every failover that is already queued before
                    // replaying: each begun replacement is a live consumer
                    // this replay may need (see the module docs).
                    while begin_next_pending(
                        scope,
                        &rx,
                        &mut seeds,
                        &shared,
                        &mut sources,
                        &mut vertex_scopes,
                        &mut pending,
                        &mut outcome,
                    ) {}
                    run_replay(
                        scope,
                        job,
                        &rx,
                        &mut seeds,
                        &mut replay_outs,
                        &replay_sources,
                        &logs,
                        &shared,
                        &mut sources,
                        &mut vertex_scopes,
                        &mut pending,
                        &mut outcome,
                    );
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            Err(mpsc::RecvTimeoutError::Disconnected) => {
                disconnected = true;
                // A disconnected channel returns immediately; pace the loop.
                thread::sleep(Duration::from_micros(200));
            }
        }

        // Frontier truncation: exact before the first failover, paused while
        // more kills are armed, harmless after the last one (see module
        // docs). Each log truncates against its own commit scope; egress
        // logs additionally run the per-packet XOR delete sweep.
        if outcome.recoveries.is_empty() || seeds.is_empty() {
            let frontier = shared.server.commit_frontier(&sources);
            let dropped = logs.root().truncate_confirmed(0, frontier);
            if dropped > 0 {
                shared.telemetry.event(EventKind::CommitFrontier {
                    frontier,
                    dropped: dropped as u64,
                });
            }
            for (v, srcs) in &vertex_scopes {
                let vf = shared.server.commit_frontier(srcs);
                if let Some(mut vl) = logs.vertex(*v) {
                    vl.truncate_confirmed(0, vf);
                    if let Some(l) = &ledger {
                        vl.delete_where(|c| l.deletable(c.counter()));
                    }
                }
            }
            raise_replay_floor(&shared.server, &logs, frontier.min(floor_cap));
        }

        if done_injecting.load(Ordering::Acquire) && (seeds.is_empty() || disconnected) {
            break;
        }
    }

    for link in replay_outs.values_mut().flat_map(|d| &mut d.links) {
        // Bounded: an aborted failover may have left a stalled ring behind,
        // and the wind-down must not hang on it.
        let _ = link.try_flush(REPLAY_MAX_SPINS);
        link.producer.close();
    }
    outcome
}

/// Tell the store that no packet log can replay a clock at or below `floor`
/// any more (see the module docs for why the root frontier is that bound).
pub(crate) fn raise_replay_floor(server: &StoreServer, logs: &VertexLogs, floor: u64) {
    if floor == 0 {
        return;
    }
    debug_assert!(
        logs.root().first_counter().is_none_or(|c| c > floor)
            && logs
                .armed()
                .filter_map(|v| logs.vertex(v)?.first_counter())
                .all(|c| c > floor),
        "a packet log still holds a clock at or below the replay floor {floor}"
    );
    server.forget_through(floor);
}

/// Begin one failover: remove the seed, hand the failed instance's store
/// state to the replacement, and spawn the replacement thread on the
/// inherited wiring. Never blocks. Returns the replay job still to run, or
/// `None` when the hand-off had no seed (recorded as an abort).
fn begin_failover<'scope, 'env>(
    scope: &'scope thread::Scope<'scope, 'env>,
    dying: DyingInstance,
    seeds: &mut HashMap<usize, ReplacementSeed>,
    shared: &Arc<EngineShared>,
    sources: &mut [InstanceId],
    vertex_scopes: &mut [(VertexId, Vec<InstanceId>)],
    outcome: &mut SupervisorOutcome<'scope>,
) -> Option<ReplayJob> {
    let started = Instant::now();
    let Some(seed) = seeds.remove(&dying.slot) else {
        // A wiring hand-off without a seed cannot happen (only armed
        // instances hold the channel); if it ever does, surface the lost
        // wiring as an aborted failover instead of silently dropping it.
        shared.telemetry.event(EventKind::FailoverAbort {
            vertex: u32::MAX,
            index: dying.slot as u32,
            instance: u64::MAX,
        });
        outcome.aborts.push(FailoverAbort {
            vertex: VertexId(u32::MAX),
            index: dying.slot,
            reason: "no replacement seed for the failed slot".to_string(),
        });
        return None;
    };
    let replacement = seed.plan.instance;
    shared.telemetry.event(EventKind::FailoverBegin {
        vertex: seed.kill.vertex.0,
        index: seed.kill.index as u32,
        instance: seed.old_instance.0 as u64,
    });

    // 1. The replacement takes over the failed instance's per-flow state.
    shared.server.reassign_owner(seed.old_instance, replacement);
    for s in sources.iter_mut() {
        if *s == seed.old_instance {
            *s = replacement;
        }
    }
    for (_, srcs) in vertex_scopes.iter_mut() {
        for s in srcs.iter_mut() {
            if *s == seed.old_instance {
                *s = replacement;
            }
        }
    }

    // 2. Spawn the replacement thread on the inherited wiring.
    let shared_clone = Arc::clone(shared);
    let kill = seed.kill;
    let old_instance = seed.old_instance;
    let handle = scope.spawn(move || {
        crate::engine::run_instance(
            seed.plan,
            dying.inputs,
            dying.outs,
            dying.sink_link,
            shared_clone,
            None,
            true,
        )
    });
    outcome.replacements.push(handle);
    shared.telemetry.event(EventKind::ReplacementSpawn {
        vertex: kill.vertex.0,
        index: kill.index as u32,
        instance: replacement.0 as u64,
    });
    Some(ReplayJob {
        kill,
        old_instance,
        replacement,
        started,
    })
}

/// Begin the next failover waiting on the fault channel, if any. Returns
/// whether a hand-off was consumed (begun or recorded as an abort).
#[allow(clippy::too_many_arguments)]
fn begin_next_pending<'scope, 'env>(
    scope: &'scope thread::Scope<'scope, 'env>,
    rx: &mpsc::Receiver<DyingInstance>,
    seeds: &mut HashMap<usize, ReplacementSeed>,
    shared: &Arc<EngineShared>,
    sources: &mut [InstanceId],
    vertex_scopes: &mut [(VertexId, Vec<InstanceId>)],
    pending: &mut VecDeque<ReplayJob>,
    outcome: &mut SupervisorOutcome<'scope>,
) -> bool {
    match rx.try_recv() {
        Ok(dying) => {
            if let Some(job) =
                begin_failover(scope, dying, seeds, shared, sources, vertex_scopes, outcome)
            {
                pending.push_back(job);
            }
            true
        }
        Err(_) => false,
    }
}

/// Step 3 of one failover: replay the killed vertex's replay source through
/// *its* replay rings. Routing is the same clock-pure splitter logic as
/// live traffic, so replayed packets reach exactly the instances the
/// originals were (or would have been) routed to; survivors suppress them
/// by clock. No ledger filtering here: replaying the full snapshot keeps
/// the stream identical to what the killed instance could have seen, and
/// every already-absorbed copy is suppressed downstream anyway.
#[allow(clippy::too_many_arguments)]
fn run_replay<'scope, 'env>(
    scope: &'scope thread::Scope<'scope, 'env>,
    job: ReplayJob,
    rx: &mpsc::Receiver<DyingInstance>,
    seeds: &mut HashMap<usize, ReplacementSeed>,
    replay_outs: &mut HashMap<VertexId, Downstream>,
    replay_sources: &HashMap<VertexId, ReplaySource>,
    logs: &Arc<VertexLogs>,
    shared: &Arc<EngineShared>,
    sources: &mut [InstanceId],
    vertex_scopes: &mut [(VertexId, Vec<InstanceId>)],
    pending: &mut VecDeque<ReplayJob>,
    outcome: &mut SupervisorOutcome<'scope>,
) {
    let vertex = job.kill.vertex.0;
    let index = job.kill.index as u32;
    let replacement = job.replacement;
    let snapshot: Vec<TaggedPacket> = match replay_sources.get(&job.kill.vertex) {
        Some(ReplaySource::Upstream(ups)) => {
            let mut merged = Vec::new();
            for u in ups {
                if let Some(log) = logs.vertex(*u) {
                    merged.extend(log.snapshot());
                }
            }
            merged.sort_by_key(|tp| tp.clock);
            merged
        }
        _ => logs.root().snapshot(),
    };
    let mut replayed = 0u64;
    let mut stalled = false;
    if let Some(Downstream { splitter, links }) = replay_outs.get_mut(&job.kill.vertex) {
        for mut tp in snapshot {
            tp.replay_for = Some(replacement);
            if shared.telemetry.tracer.is_some() {
                if let Some(tag) = tp.trace {
                    shared.telemetry.trace_span(SpanEvent {
                        trace_id: tag.id,
                        lane: TraceLane::Supervisor,
                        kind: SpanKind::ReplayInject,
                        t_ns: shared.telemetry.now_ns(),
                        dur_ns: 0,
                    });
                }
            }
            let idx = splitter.instance_for(&tp.packet, tp.clock);
            let pushed = links[idx].push_bounded(tp, shared.batch, RESCUE_QUANTUM)
                || flush_with_rescue(
                    &mut links[idx],
                    scope,
                    rx,
                    seeds,
                    shared,
                    sources,
                    vertex_scopes,
                    pending,
                    outcome,
                );
            if !pushed {
                stalled = true;
                break;
            }
            replayed += 1;
            shared.telemetry.replay_progress.inc();
        }
        if !stalled {
            for link in links.iter_mut() {
                if !(link.try_flush(RESCUE_QUANTUM)
                    || flush_with_rescue(
                        link,
                        scope,
                        rx,
                        seeds,
                        shared,
                        sources,
                        vertex_scopes,
                        pending,
                        outcome,
                    ))
                {
                    stalled = true;
                    break;
                }
            }
        }
        if stalled {
            // Abandon the replay rather than hang the run: drop whatever is
            // still buffered (unflushed copies are never booked as "in the
            // network") so the wind-down flush stays bounded too.
            for link in links.iter_mut() {
                link.buf.clear();
            }
        }
    }
    if stalled {
        shared.telemetry.event(EventKind::FailoverAbort {
            vertex,
            index,
            instance: replacement.0 as u64,
        });
        outcome.aborts.push(FailoverAbort {
            vertex: job.kill.vertex,
            index: job.kill.index,
            reason: "replay ring stalled: the replacement stopped draining".to_string(),
        });
        return;
    }
    shared.telemetry.event(EventKind::ReplayComplete {
        vertex,
        index,
        instance: replacement.0 as u64,
        packets_replayed: replayed,
    });

    let recovery_wall = job.started.elapsed();
    shared.telemetry.event(EventKind::FailoverEnd {
        vertex,
        index,
        instance: replacement.0 as u64,
        recovery_ns: recovery_wall.as_nanos() as u64,
    });
    outcome.recoveries.push(InstanceRecovery {
        vertex: job.kill.vertex,
        index: job.kill.index,
        failed_instance: job.old_instance,
        replacement,
        packets_replayed: replayed,
        recovery_wall,
    });
}

/// Keep flushing a backed-up replay link, beginning any overlapping
/// failover that arrives meanwhile (its replacement is the consumer the
/// flush may be waiting on, so each begun failover resets the stall
/// budget). Returns `false` once [`REPLAY_MAX_SPINS`] empty pushes passed
/// with no new fail-stop arriving — the consumer genuinely stopped.
#[allow(clippy::too_many_arguments)]
fn flush_with_rescue<'scope, 'env>(
    link: &mut OutLink,
    scope: &'scope thread::Scope<'scope, 'env>,
    rx: &mpsc::Receiver<DyingInstance>,
    seeds: &mut HashMap<usize, ReplacementSeed>,
    shared: &Arc<EngineShared>,
    sources: &mut [InstanceId],
    vertex_scopes: &mut [(VertexId, Vec<InstanceId>)],
    pending: &mut VecDeque<ReplayJob>,
    outcome: &mut SupervisorOutcome<'scope>,
) -> bool {
    let mut budget = REPLAY_MAX_SPINS;
    loop {
        if begin_next_pending(
            scope,
            rx,
            seeds,
            shared,
            sources,
            vertex_scopes,
            pending,
            outcome,
        ) {
            budget = REPLAY_MAX_SPINS;
        }
        if link.try_flush(RESCUE_QUANTUM) {
            return true;
        }
        budget = budget.saturating_sub(RESCUE_QUANTUM);
        if budget == 0 {
            return false;
        }
    }
}
