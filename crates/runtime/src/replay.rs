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
//! 3. **replays** the killed vertex's replay sources
//!    (`ChainPlan::replay_sources`) — the root's injection log for an entry
//!    vertex, the merged egress logs of its on-path upstream vertices
//!    (FTMB-style output logging) otherwise —
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
//! Every packet log — the root's is the first — is one row of
//! `ChainPlan::log_scopes`, and between fault events the supervisor treats
//! every row alike ([`truncate_logs`]). It cuts the log at its own commit
//! frontier, the lowest watermark in `EngineShared::watermarks` over the
//! row's scope: every on-path instance and the sink for the root's log, the
//! instances *strictly downstream* of the logging vertex plus the sink for an
//! egress log. Then it runs the paper's per-packet XOR deletes: any entry
//! whose clock the ledger proves delivered and fully cancelled is dropped
//! individually, frontier or not.
//!
//! Before the first failover every ring delivers counters monotonically, so
//! the frontier proves completion exactly; while further kills are still
//! armed after a failover, truncation pauses (replayed traffic makes ring
//! order non-monotone, so the frontier could briefly overclaim); once the
//! last kill resolved it resumes, where truncation is unconditionally safe
//! because no future replay exists. A failover zeroes the dead instance's
//! watermark slot before the replacement — which publishes under the same
//! slot — starts, and a replacement stays silent until its replay rings are
//! exhausted: until then every frontier that contains the slot reads zero,
//! and only the XOR deletes keep those logs bounded.
//!
//! ## The store's replay floor
//!
//! The same step bounds the store's duplicate-suppression log. A clocked
//! update can only be a duplicate if some replay source re-issues its
//! packet, and there are exactly two kinds: a packet log and the
//! re-injection drill's buffer. Every egress log's scope is a subset of the
//! root's, so the root's frontier is the lowest, and right after a pass no
//! log holds anything at or below it (XOR deletes only remove more). The
//! supervisor therefore raises [`StoreServer::forget_through`] to the root's
//! frontier — capped below the smallest re-injection counter for as long as
//! it runs, because a re-injected copy is in flight after it left the buffer
//! and no watermark covers it. Truncation pauses while replays may be in
//! flight, and so does the floor.

use crate::engine::EngineShared;
use crate::fault::{FailoverAbort, InstanceRecovery};
use crate::instance::{run_instance, DyingInstance, InstanceResult};
use crate::plan::{ChainPlan, InstancePlan};
use crate::wiring::{Downstream, OutLink};
use chc_core::VertexLogs;
use chc_store::{InstanceId, StoreServer, VertexId};
use chc_telemetry::{EventKind, SpanEvent, SpanKind, TraceLane};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
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

/// The replacement threads the supervisor spawned, for the engine to join.
pub(crate) type Replacements<'scope> = Vec<thread::ScopedJoinHandle<'scope, InstanceResult>>;

/// What the supervisor hands back when it winds down.
pub(crate) struct SupervisorOutcome {
    pub(crate) recoveries: Vec<InstanceRecovery>,
    pub(crate) aborts: Vec<FailoverAbort>,
}

/// A begun failover whose replay has not run yet: the replacement thread is
/// already up and draining the inherited wiring.
struct ReplayJob {
    vertex: VertexId,
    index: usize,
    old_instance: InstanceId,
    replacement: InstanceId,
    started: Instant,
}

/// The supervisor thread's state. Everything a failover touches lives here,
/// so beginning one — from the main loop or from inside a stalled replay —
/// is a method call.
pub(crate) struct Supervisor<'scope, 'env> {
    scope: &'scope thread::Scope<'scope, 'env>,
    rx: mpsc::Receiver<DyingInstance>,
    shared: &'env EngineShared,
    replay_sources: &'env BTreeMap<VertexId, Vec<VertexId>>,
    log_scopes: &'env [(VertexId, Vec<usize>)],
    floor_cap: u64,
    /// The replacement prepared for each armed slot, until its kill fires.
    seeds: HashMap<usize, InstancePlan>,
    /// Failovers begun but not yet replayed.
    pending: VecDeque<ReplayJob>,
    replacements: Replacements<'scope>,
    outcome: SupervisorOutcome,
}

impl<'scope, 'env> Supervisor<'scope, 'env> {
    pub(crate) fn new(
        scope: &'scope thread::Scope<'scope, 'env>,
        rx: mpsc::Receiver<DyingInstance>,
        plan: &'env ChainPlan,
        seeds: HashMap<usize, InstancePlan>,
        shared: &'env EngineShared,
    ) -> Self {
        Supervisor {
            scope,
            rx,
            shared,
            replay_sources: &plan.replay_sources,
            log_scopes: &plan.log_scopes,
            floor_cap: plan.floor_cap,
            seeds,
            pending: VecDeque::new(),
            replacements: Vec::new(),
            outcome: SupervisorOutcome {
                recoveries: Vec::new(),
                aborts: Vec::new(),
            },
        }
    }

    /// Body of the supervisor thread. Exits once the root finished injecting
    /// and every armed kill either executed or provably can no longer fire
    /// (its instance drained its live rings and dropped the fault channel),
    /// then closes the replay rings so the chain can drain.
    pub(crate) fn run(
        mut self,
        mut replay_outs: HashMap<VertexId, Downstream>,
        done_injecting: &AtomicBool,
    ) -> (SupervisorOutcome, Replacements<'scope>) {
        let mut disconnected = false;
        loop {
            match self.rx.recv_timeout(Duration::from_micros(500)) {
                Ok(dying) => {
                    self.begin_failover(dying);
                    while let Some(job) = self.pending.pop_front() {
                        // Begin every failover that is already queued before
                        // replaying: each begun replacement is a live
                        // consumer this replay may need (see the module
                        // docs).
                        while self.begin_next_pending() {}
                        self.run_replay(job, &mut replay_outs);
                    }
                }
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    disconnected = true;
                    // A disconnected channel returns immediately; pace the
                    // loop.
                    thread::sleep(Duration::from_micros(200));
                }
            }

            // Frontier truncation: exact before the first failover, paused
            // while more kills are armed, harmless after the last one (see
            // module docs).
            if self.outcome.recoveries.is_empty() || self.seeds.is_empty() {
                truncate_logs(self.shared, self.log_scopes, self.floor_cap);
            }

            if done_injecting.load(Ordering::Acquire) && (self.seeds.is_empty() || disconnected) {
                break;
            }
        }

        for link in replay_outs.values_mut().flat_map(|d| &mut d.links) {
            // Bounded: an aborted failover may have left a stalled ring
            // behind, and the wind-down must not hang on it.
            let _ = link.try_flush(REPLAY_MAX_SPINS);
            link.producer.close();
        }
        (self.outcome, self.replacements)
    }

    /// Begin one failover: remove the seed, hand the failed instance's store
    /// state to the replacement, and spawn the replacement thread on the
    /// inherited wiring. Never blocks. Queues the replay still to run; a
    /// hand-off with no seed is recorded as an abort instead.
    fn begin_failover(&mut self, dying: DyingInstance) {
        let started = Instant::now();
        let shared = self.shared;
        let seed = self.seeds.remove(&dying.slot);
        let Some((seed, old_instance)) = seed.and_then(|s| s.replaces.map(|old| (s, old))) else {
            // A wiring hand-off without a seed cannot happen (only armed
            // instances hold the channel); if it ever does, surface the lost
            // wiring as an aborted failover instead of silently dropping it.
            shared.telemetry.event(EventKind::FailoverAbort {
                vertex: u32::MAX,
                index: dying.slot as u32,
                instance: u64::MAX,
            });
            self.outcome.aborts.push(FailoverAbort {
                vertex: VertexId(u32::MAX),
                index: dying.slot,
                reason: "no replacement seed for the failed slot".to_string(),
            });
            return;
        };
        let (vertex, index, replacement) = (seed.vertex, seed.index, seed.instance);
        shared.telemetry.event(EventKind::FailoverBegin {
            vertex: vertex.0,
            index: index as u32,
            instance: old_instance.0 as u64,
        });

        // 1. The replacement takes over the failed instance's per-flow
        //    state and its watermark slot, which starts over: until the
        //    replacement publishes, every frontier the slot is in stays put.
        shared.server.reassign_owner(old_instance, replacement);
        shared.watermarks[dying.slot].store(0, Ordering::Release);

        // 2. Spawn the replacement thread on the inherited wiring.
        let handle = self
            .scope
            .spawn(move || run_instance(seed, dying.wiring, shared, None));
        self.replacements.push(handle);
        shared.telemetry.event(EventKind::ReplacementSpawn {
            vertex: vertex.0,
            index: index as u32,
            instance: replacement.0 as u64,
        });
        self.pending.push_back(ReplayJob {
            vertex,
            index,
            old_instance,
            replacement,
            started,
        });
    }

    /// Begin the next failover waiting on the fault channel, if any. Returns
    /// whether a hand-off was consumed (begun or recorded as an abort).
    fn begin_next_pending(&mut self) -> bool {
        match self.rx.try_recv() {
            Ok(dying) => {
                self.begin_failover(dying);
                true
            }
            Err(_) => false,
        }
    }

    /// Step 3 of one failover: replay the killed vertex's replay source
    /// through *its* replay rings. Routing is the same clock-pure splitter
    /// logic as live traffic, so replayed packets reach exactly the
    /// instances the originals were (or would have been) routed to;
    /// survivors suppress them by clock. No ledger filtering here: replaying
    /// the full snapshot keeps the stream identical to what the killed
    /// instance could have seen, and every already-absorbed copy is
    /// suppressed downstream anyway.
    fn run_replay(&mut self, job: ReplayJob, replay_outs: &mut HashMap<VertexId, Downstream>) {
        let shared = self.shared;
        let (vertex, index) = (job.vertex.0, job.index as u32);
        let replacement = job.replacement;
        let sources = self.replay_sources.get(&job.vertex);
        let snapshot = shared.logs.snapshot(sources.map_or(&[], Vec::as_slice));
        let mut replayed = 0u64;
        let mut stalled = false;
        if let Some(Downstream { splitter, links }) = replay_outs.get_mut(&job.vertex) {
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
                let link = &mut links[splitter.instance_for(&tp.packet, tp.clock)];
                if !(link.push_bounded(tp, shared.batch, RESCUE_QUANTUM)
                    || self.flush_with_rescue(link))
                {
                    stalled = true;
                    break;
                }
                replayed += 1;
                shared.telemetry.replay_progress.inc();
            }
            if !stalled {
                stalled = !links
                    .iter_mut()
                    .all(|link| link.try_flush(RESCUE_QUANTUM) || self.flush_with_rescue(link));
            }
            if stalled {
                // Abandon the replay rather than hang the run: drop whatever
                // is still buffered (unflushed copies are never booked as "in
                // the network") so the wind-down flush stays bounded too.
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
            self.outcome.aborts.push(FailoverAbort {
                vertex: job.vertex,
                index: job.index,
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
        self.outcome.recoveries.push(InstanceRecovery {
            vertex: job.vertex,
            index: job.index,
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
    fn flush_with_rescue(&mut self, link: &mut OutLink) -> bool {
        let mut budget = REPLAY_MAX_SPINS;
        loop {
            if self.begin_next_pending() {
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
}

/// One truncation pass (see the module docs) over `log_scopes`, the plan's
/// rows of `(logging vertex, commit scope)`: cut each log at the frontier of
/// its own scope, then sweep it for entries the XOR ledger proves both
/// delivered and fully cancelled (Figure 6's per-packet deletes, which cover
/// what the frontier cannot). The first row is the root's, whose scope
/// contains every other and whose frontier is therefore the lowest: its
/// advance is journaled, the store forgets what the logs forgot up to it —
/// capped at `floor_cap` — and it is returned. The supervisor runs a pass
/// between fault events. The engine runs one more after every thread joined:
/// every surviving component has published its last watermark by then, so
/// that cut is the tightest the commit protocol can justify.
pub(crate) fn truncate_logs(
    shared: &EngineShared,
    log_scopes: &[(VertexId, Vec<usize>)],
    floor_cap: u64,
) -> u64 {
    let mut roots_cut = None;
    for (vertex, scope) in log_scopes {
        let frontier = shared.frontier(scope);
        let mut dropped = 0;
        if let Some(mut log) = shared.logs.log(*vertex) {
            dropped = log.truncate_confirmed(0, frontier);
            if let Some(ledger) = &shared.ledger {
                log.delete_where(|c| ledger.deletable(c.counter()));
            }
        }
        roots_cut.get_or_insert((frontier, dropped as u64));
    }
    let (frontier, dropped) = roots_cut.unwrap_or_default();
    shared.telemetry.frontier_advanced(frontier, dropped);
    raise_replay_floor(&shared.server, &shared.logs, frontier.min(floor_cap));
    frontier
}

/// Tell the store that no packet log can replay a clock at or below `floor`
/// any more (see the module docs for why the root's frontier is that bound).
fn raise_replay_floor(server: &StoreServer, logs: &VertexLogs, floor: u64) {
    if floor == 0 {
        return;
    }
    debug_assert!(
        logs.armed()
            .filter_map(|v| logs.log(v)?.first_counter())
            .all(|c| c > floor),
        "a packet log still holds a clock at or below the replay floor {floor}"
    );
    server.forget_through(floor);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuntimeConfig;
    use crate::fault::FaultPlan;
    use crate::plan::tests::{fw_nat_lb, FW, NAT};
    use chc_core::root::ROOT_VERTEX;
    use chc_core::{delete_token, ChainConfig, TaggedPacket};
    use chc_packet::{TraceConfig, TraceGenerator};
    use chc_store::Clock;

    /// fw→nat→lb with a planned NAT kill: the firewall's egress log is
    /// armed and truncates against slots 1–3 (NAT, LB, sink), the root's
    /// against all four.
    fn armed_run() -> (ChainPlan, EngineShared) {
        let (config, rt) = (ChainConfig::default(), RuntimeConfig::default());
        let rt = rt.with_fault(FaultPlan::new().kill(NAT, 0, 15));
        let plan = ChainPlan::new(&fw_nat_lb(), &config, &rt, 20).expect("valid plan");
        let shared = EngineShared::new(&plan, config, &rt);
        (plan, shared)
    }

    fn held(shared: &EngineShared, vertex: VertexId) -> Vec<u64> {
        let log = shared.logs.snapshot(&[vertex]);
        log.iter().map(|tp| tp.clock.counter()).collect()
    }

    #[test]
    fn watermarks_are_monotonic_and_a_frontier_is_the_lowest_of_its_scope() {
        let (_, shared) = armed_run();
        assert_eq!(shared.watermarks.len(), 4, "three instances and the sink");
        for (slot, watermark) in [(0, 40), (1, 25), (3, 30)] {
            shared.publish_watermark(slot, watermark);
        }
        // A stale publication never regresses a slot.
        shared.publish_watermark(0, 10);
        assert_eq!(shared.frontier(&[0]), 40);
        assert_eq!(shared.frontier(&[0, 1, 3]), 25);
        // A slot that never published holds the frontier at zero, and an
        // empty scope commits nothing.
        assert_eq!(shared.frontier(&[0, 1, 2, 3]), 0);
        assert_eq!(shared.frontier(&[]), 0);
        // What `begin_failover` does to the dead instance's slot: it starts
        // over, and the replacement's first publication counts again.
        shared.watermarks[1].store(0, Ordering::Release);
        assert_eq!(shared.frontier(&[0, 1, 3]), 0);
        shared.publish_watermark(1, 26);
        assert_eq!(shared.frontier(&[0, 1, 3]), 26);
    }

    #[test]
    fn one_pass_cuts_each_log_at_its_own_frontier_sweeps_and_raises_the_floor() {
        let (plan, shared) = armed_run();
        let scopes = &plan.log_scopes;
        let ledger = shared.ledger.as_ref().expect("a kill needs the ledger");
        let trace = TraceGenerator::new(TraceConfig::small(1)).generate();
        // Counters 1..=10 injected, and logged again — tokenized — as they
        // left the firewall (instance 0).
        let mut egress = Vec::new();
        for (pkt, counter) in trace.iter().zip(1..=10u64) {
            let mut tp = TaggedPacket::new(pkt.clone(), Clock::with_root(0, counter));
            assert!(shared.logs.log(ROOT_VERTEX).unwrap().insert(tp.clone()));
            let token = delete_token(InstanceId(0), counter);
            tp.absorb_update_token(token);
            ledger.fold(counter, token);
            assert!(shared.logs.log(FW).expect("armed").insert(tp.clone()));
            egress.push(tp);
        }
        // Watermarks by slot, the sink's (3) among the lowest — and the end
        // host already has counter 7, ahead of every frontier.
        for (slot, watermark) in [(0, 4), (1, 6), (2, 5), (3, 4)] {
            shared.publish_watermark(slot, watermark);
        }
        ledger.fold(7, egress[6].xor_vector);
        ledger.mark_delivered(7);

        // Supervisor-style pass, the floor capped below a drill at 4. Both
        // frontiers are the sink's 4, and the XOR sweep takes the delivered 7
        // out of the root's log exactly as out of the firewall's.
        assert_eq!(truncate_logs(&shared, scopes, 3), 4);
        assert_eq!(held(&shared, ROOT_VERTEX), [5, 6, 8, 9, 10]);
        assert_eq!(held(&shared, FW), [5, 6, 8, 9, 10]);
        assert_eq!(shared.server.replay_floor(), 4, "capped at 3, so 4 up");

        // Each log is cut at its own frontier. The firewall's watermark is
        // in the root's scope only: held at 4 (a live firewall is never the
        // laggard), it keeps 5 in the root's log while the firewall's own
        // log, whose scope is through 5 once the sink is, lets it go.
        shared.publish_watermark(3, 6);
        assert_eq!(truncate_logs(&shared, scopes, 3), 4);
        assert_eq!(held(&shared, ROOT_VERTEX), [5, 6, 8, 9, 10]);
        assert_eq!(held(&shared, FW), [6, 8, 9, 10]);

        // The NAT dies: `begin_failover` zeroes its slot, which is in both
        // scopes, so neither log is cut again until the replacement
        // publishes — and the floor stays where it was.
        shared.watermarks[1].store(0, Ordering::Release);
        for slot in [0, 2, 3] {
            shared.publish_watermark(slot, 9);
        }
        assert_eq!(truncate_logs(&shared, scopes, u64::MAX), 0);
        assert_eq!(held(&shared, ROOT_VERTEX), [5, 6, 8, 9, 10]);
        assert_eq!(held(&shared, FW), [6, 8, 9, 10]);
        assert_eq!(shared.server.replay_floor(), 4, "the floor is monotonic");

        // Final-style pass: the replacement confirmed through 9 too, and
        // nothing is in flight, so the floor is uncapped.
        shared.publish_watermark(1, 9);
        assert_eq!(truncate_logs(&shared, scopes, u64::MAX), 9);
        assert_eq!(held(&shared, ROOT_VERTEX), [10]);
        assert_eq!(held(&shared, FW), [10]);
        assert_eq!(shared.server.replay_floor(), 10);
        let root_row = *shared.logs.stats().last().expect("the root's row");
        assert_eq!((root_row.truncated, root_row.deleted), (8, 1));
    }
}
