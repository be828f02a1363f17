//! Failover supervision and log truncation for the real-thread engine.
//!
//! The supervisor is a dedicated thread that touches no packet. It owns the
//! fail-stop channel, the replacement seeds and the commit-frontier
//! truncation of the packet logs; a replacement does its own replay.
//!
//! ## Failover (§5.3–§5.4 "NF instance", on wall clocks)
//!
//! When an armed instance fail-stops, it sends its SPSC wiring through the
//! fault channel and exits. The supervisor then **begins** the failover:
//!
//! 1. re-associates the failed instance's per-flow store state with the
//!    pre-assigned replacement id ([`StoreServer::reassign_owner`] — the
//!    store always holds the authoritative copy because cached per-flow
//!    updates are flushed, Theorem B.5.1),
//! 2. zeroes the failed instance's watermark slot, which the replacement
//!    inherits,
//! 3. journals `replacement_spawn` and spawns the **replacement thread** on
//!    the inherited wiring: in-flight packets still queued in the input
//!    rings survive, exactly like packets sitting in the network across an
//!    endpoint crash. The spawn is journaled before the thread starts, so a
//!    fast replay cannot journal its completion first.
//!
//! The replacement **replays its own log** before it pops a live ring, as
//! the simulator's failover instance does (§5.3: replayed packets first,
//! live traffic once the last one is done). It snapshots its vertex's replay
//! sources (`Takeover::sources`, from the plan) — the root's injection log
//! for an entry vertex, the merged egress logs of its on-path upstream
//! vertices (FTMB-style output logging) otherwise, so the replay enters the
//! chain at the killed vertex's depth — keeps the copies its vertex's
//! splitter routes to its own index, marks them `replay_for = replacement`
//! and puts each through the per-packet step the batch loop runs. Then it
//! lands its store effects, flushes its outputs, journals `replay_complete`
//! and `failover_end`, and reports its [`crate::fault::InstanceRecovery`]
//! when it exits. A surviving replica of the same vertex never sees a
//! replayed copy.
//!
//! Replay is idempotent end to end: instances suppress duplicate clocks at
//! their input queues, the store suppresses duplicate clocked updates, tail
//! replacements gate re-emission on the XOR delete ledger, and the sink
//! absorbs the residual re-delivery window into its own (separately
//! counted) suppression — the chain's duplicate accounting stays at zero.
//!
//! **Why the replacement's snapshot is complete.** The supervisor zeroes the
//! dead slot before the spawn. Every log the replacement reads has the dead
//! slot in its commit scope (the root's scope holds every on-path slot, an
//! egress log's every slot strictly downstream of the logging vertex), so
//! from that moment on no frontier cut can drop an entry from it: the
//! snapshot the replacement takes later holds everything one taken at the
//! zeroing would have held. The one exception is XOR-swept entries, which
//! the sink has already seen delivered with every token cancelled; a
//! snapshot the supervisor took itself would race those sweeps in the same
//! way. So the supervisor runs no pass at all while a replay runs
//! (`EngineShared::replays_running`): a sweep between the hand-off and the
//! snapshot would take out the delivered entries a tail replacement gates,
//! and one during the replay would drop the ledger cells that prove them
//! delivered, so their copies would reach the sink again as replay
//! shadows. Each replacement reads the logs on its own thread and only pushes
//! downstream, so overlapping failovers need no coordination: a replay that
//! backs up waits on a live consumer further down an acyclic chain.
//!
//! A wiring hand-off with no replacement seed cannot happen (only armed
//! instances hold the channel); if it ever does it is **aborted**, not
//! allowed to hang the run: the supervisor journals a `failover_abort`
//! event and returns a [`FailoverAbort`] (surfaced through
//! `RuntimeReport::fault`).
//!
//! ## Log truncation (Figure 6)
//!
//! Every packet log — the root's is the first — is one row of
//! `ChainPlan::log_scopes`, and between fault events the supervisor treats
//! every row alike (`truncate_logs`). It cuts the log at its own commit
//! frontier, the lowest watermark in `EngineShared::watermarks` over the
//! row's scope: every on-path instance and the sink for the root's log, the
//! instances *strictly downstream* of the logging vertex plus the sink for an
//! egress log. Then it runs the paper's per-packet XOR deletes: any entry
//! whose clock the ledger proves delivered and fully cancelled is dropped
//! individually, frontier or not.
//!
//! Before the first failover every ring delivers counters monotonically, so
//! the frontier proves completion exactly; while a replay runs (above), and
//! while further kills are still armed after a failover has begun,
//! truncation pauses (replayed traffic
//! makes ring order non-monotone downstream of a replacement, so the
//! frontier could briefly overclaim); once the last kill resolved it
//! resumes, where truncation is unconditionally safe because no future
//! replay exists. A replacement publishes under the dead instance's slot
//! only once its replay is done: until then every frontier that contains
//! the slot reads zero.
//!
//! So a failover is a transient, not a freeze until the end of the run: as
//! soon as the replacement has replayed and flushed, it publishes again at
//! its next batch boundary, after it has processed and flushed every packet
//! it popped. From then on the frontier, every log cut at it, the store's
//! replay floor and the durable engine's checkpoint images move again.
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
use crate::fault::FailoverAbort;
use crate::instance::{run_instance, DyingInstance, InstanceResult};
use crate::plan::{ChainPlan, InstancePlan};
use chc_core::root::ROOT_VERTEX;
use chc_core::VertexLogs;
use chc_store::{Clock, StoreServer, VertexId};
use chc_telemetry::EventKind;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

/// The replacement threads the supervisor spawned, for the engine to join.
pub(crate) type Replacements<'scope> = Vec<thread::ScopedJoinHandle<'scope, InstanceResult>>;

/// The supervisor thread's state.
pub(crate) struct Supervisor<'scope, 'env> {
    scope: &'scope thread::Scope<'scope, 'env>,
    rx: mpsc::Receiver<DyingInstance>,
    shared: &'env EngineShared,
    log_scopes: &'env [(VertexId, Vec<usize>)],
    floor_cap: u64,
    /// The replacement prepared for each armed slot, until its kill fires.
    seeds: HashMap<usize, InstancePlan>,
    /// A failover has begun: truncation pauses while kills are still armed.
    failed_over: bool,
    replacements: Replacements<'scope>,
    aborts: Vec<FailoverAbort>,
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
            log_scopes: &plan.log_scopes,
            floor_cap: plan.floor_cap,
            seeds,
            failed_over: false,
            replacements: Vec::new(),
            aborts: Vec::new(),
        }
    }

    /// Body of the supervisor thread. Exits once the root finished injecting
    /// and every armed kill either executed or provably can no longer fire
    /// (its instance drained its rings and dropped the fault channel).
    pub(crate) fn run(
        mut self,
        done_injecting: &AtomicBool,
    ) -> (Vec<FailoverAbort>, Replacements<'scope>) {
        let mut disconnected = false;
        loop {
            match self.rx.recv_timeout(Duration::from_micros(500)) {
                Ok(dying) => self.begin_failover(dying),
                Err(mpsc::RecvTimeoutError::Timeout) => {}
                Err(mpsc::RecvTimeoutError::Disconnected) => {
                    disconnected = true;
                    // A disconnected channel returns immediately; pace the
                    // loop.
                    thread::sleep(Duration::from_micros(200));
                }
            }

            // Frontier truncation: exact before the first failover, paused
            // while a replay runs or more kills are armed, harmless after
            // the last one (see module docs).
            let replaying = self.shared.replays_running.load(Ordering::Acquire) > 0;
            if !replaying && (!self.failed_over || self.seeds.is_empty()) {
                truncate_logs(self.shared, self.log_scopes, self.floor_cap);
            }

            if done_injecting.load(Ordering::Acquire) && (self.seeds.is_empty() || disconnected) {
                break;
            }
        }
        (self.aborts, self.replacements)
    }

    /// Begin one failover: remove the seed, hand the failed instance's store
    /// state and watermark slot to the replacement, and spawn the
    /// replacement thread on the inherited wiring, which replays on its own.
    /// Never blocks. A hand-off with no seed is recorded as an abort.
    fn begin_failover(&mut self, dying: DyingInstance) {
        let shared = self.shared;
        let Some(mut seed) = self.seeds.remove(&dying.slot) else {
            shared.telemetry.event(EventKind::FailoverAbort {
                vertex: u32::MAX,
                index: dying.slot as u32,
                instance: u64::MAX,
            });
            self.aborts.push(FailoverAbort {
                vertex: VertexId(u32::MAX),
                index: dying.slot,
                reason: "no replacement seed for the failed slot".to_string(),
            });
            return;
        };
        let takeover = seed.takeover.as_mut().expect("a seed replaces an instance");
        takeover.started = Some(Instant::now());
        let (vertex, index) = (seed.vertex.0, seed.index as u32);
        shared.telemetry.event(EventKind::FailoverBegin {
            vertex,
            index,
            instance: takeover.failed.0 as u64,
        });
        // The replacement takes over the failed instance's per-flow state
        // and its watermark slot, which starts over: until the replacement
        // has replayed and publishes, every frontier the slot is in stays
        // put, and so does every log the replay reads.
        shared.server.reassign_owner(takeover.failed, seed.instance);
        shared.watermarks[dying.slot].store(0, Ordering::Release);
        shared.telemetry.event(EventKind::ReplacementSpawn {
            vertex,
            index,
            instance: seed.instance.0 as u64,
        });
        self.failed_over = true;
        shared.replays_running.fetch_add(1, Ordering::AcqRel);
        let handle = self
            .scope
            .spawn(move || run_instance(seed, dying.wiring, shared, None));
        self.replacements.push(handle);
    }
}

/// One truncation pass (see the module docs) over `log_scopes`, the plan's
/// rows of `(logging vertex, commit scope)`: cut each log at the frontier of
/// its own scope. The first row is the root's, whose scope contains every
/// other and whose frontier is therefore the lowest: its advance is
/// journaled, the ledger (locked for the whole pass) and the store forget
/// what the logs forgot up to it — the store capped at `floor_cap` — and it
/// is returned. Above it, every counter the ledger lists as newly delivered
/// and fully cancelled leaves every log and the ledger, one by one (Figure
/// 6's per-packet deletes, which cover what the frontier cannot): the pass
/// visits what changed since the last one, not what the logs hold. The supervisor runs a pass between fault events. The
/// engine runs one more after every thread joined: every surviving component
/// has published its last watermark by then, so that cut is the tightest the
/// commit protocol can justify.
pub(crate) fn truncate_logs(
    shared: &EngineShared,
    log_scopes: &[(VertexId, Vec<usize>)],
    floor_cap: u64,
) -> u64 {
    let mut ledger = shared.ledger();
    let mut roots_cut = None;
    for (vertex, scope) in log_scopes {
        let frontier = shared.frontier(scope);
        let mut dropped = 0;
        if let Some(mut log) = shared.logs.log(*vertex) {
            dropped = log.truncate_confirmed(frontier);
        }
        roots_cut.get_or_insert((frontier, dropped as u64));
    }
    let (frontier, dropped) = roots_cut.unwrap_or_default();
    if let Some(ledger) = &mut ledger {
        ledger.release_through(frontier);
        ledger.delete_pending(|counter| shared.logs.remove(&Clock(counter)));
        debug_assert!(
            {
                let root_log = shared.logs.log(ROOT_VERTEX).expect("the root's log");
                ledger.counters().all(|c| root_log.contains(&Clock(c)))
            },
            "the delete ledger holds a counter the root's log does not"
        );
    }
    drop(ledger);
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
    use chc_store::{Clock, InstanceId};

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
        let log = shared.logs.log(vertex).unwrap().snapshot();
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
        let ledger = || shared.ledger().expect("a kill needs the ledger");
        let counters = || ledger().counters().collect::<Vec<_>>();
        let trace = TraceGenerator::new(TraceConfig::small(1)).generate();
        // Counters 1..=10 injected, and logged again — tokenized — as they
        // left the firewall (instance 0).
        let mut egress = Vec::new();
        for (pkt, counter) in trace.iter().zip(1..=10u64) {
            let mut tp = TaggedPacket::new(pkt.clone(), Clock(counter));
            assert!(shared.logs.log(ROOT_VERTEX).unwrap().insert(tp.clone()));
            let token = delete_token(InstanceId(0), counter);
            tp.absorb_update_token(token);
            ledger().fold(counter, token);
            assert!(shared.logs.log(FW).expect("armed").insert(tp.clone()));
            egress.push(tp);
        }
        // Watermarks by slot, the sink's (3) among the lowest — and the end
        // host already has counter 7, ahead of every frontier.
        for (slot, watermark) in [(0, 4), (1, 6), (2, 5), (3, 4)] {
            shared.publish_watermark(slot, watermark);
        }
        ledger().deliver(7, egress[6].xor_vector);

        // Supervisor-style pass, the floor capped below a drill at 4. Both
        // frontiers are the sink's 4, and the XOR sweep takes the delivered 7
        // out of the root's log exactly as out of the firewall's. The
        // ledger lets go of the same counters: it is released through the
        // root's frontier and drops what the sweep took.
        assert_eq!(truncate_logs(&shared, scopes, 3), 4);
        assert_eq!(held(&shared, ROOT_VERTEX), [5, 6, 8, 9, 10]);
        assert_eq!(held(&shared, FW), [5, 6, 8, 9, 10]);
        assert_eq!(counters(), [5, 6, 8, 9, 10]);
        // A released or swept counter answers as not delivered: a frontier
        // may overclaim once replays ran, so only a held cell proves it.
        assert!(!ledger().confirmed(7));
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
        assert_eq!(counters(), [10]);
        assert_eq!(ledger().high_water(), 10);
        assert_eq!(ledger().dirty_confirmed(), 0);
        assert_eq!(shared.server.replay_floor(), 10);
        let root_row = *shared.logs.stats().last().expect("the root's row");
        assert_eq!((root_row.truncated, root_row.deleted), (8, 1));
    }
}
