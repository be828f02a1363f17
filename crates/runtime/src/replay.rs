//! Failover and log truncation for the real-thread engine.
//!
//! No thread of its own runs either: a killed instance's thread begins its
//! failover and runs the replacement, which does its own replay, and the
//! root cuts the packet logs at their commit frontiers once per page of its
//! log.
//!
//! ## Failover (§5.3–§5.4 "NF instance", on wall clocks)
//!
//! An armed instance's plan carries its kill counter and the replacement
//! seed together. When the instance fail-stops, its thread discards its
//! unflushed output batches, journals the kill and **begins** the failover
//! (`begin_failover`):
//!
//! 1. journals `failover_begin`,
//! 2. re-associates the failed instance's per-flow store state with the
//!    pre-assigned replacement id ([`StoreServer::reassign_owner`] — the
//!    store always holds the authoritative copy because cached per-flow
//!    updates are flushed, Theorem B.5.1),
//! 3. zeroes the failed instance's watermark slot, which the replacement
//!    inherits, and makes the slot's last value its duplicate floor,
//! 4. journals `replacement_spawn` and runs the **replacement** on the
//!    same thread and the same wiring: in-flight packets still queued in
//!    the input rings survive, exactly like packets sitting in the network
//!    across an endpoint crash. The wiring never changes threads, and the
//!    thread returns both instances' results, the dead one's first.
//!
//! The replacement **replays its own log** before it pops a live ring, as
//! the simulator's failover instance does (§5.3: replayed packets first,
//! live traffic once the last one is done). It snapshots its vertex's replay
//! sources (`Takeover::sources`, from the plan) — the root's injection log
//! for an entry vertex, the merged egress logs of its on-path upstream
//! vertices (FTMB-style output logging) otherwise, so the replay enters the
//! chain at the killed vertex's depth — keeps the copies its vertex's
//! splitter routes to its own index and puts each through the per-packet
//! step the batch loop runs, as a replay, logging what it forwards like any
//! output. Then it lands its store effects, flushes its outputs, journals
//! `replay_complete` and `failover_end`, and reports its
//! [`crate::fault::InstanceRecovery`] when it exits. A surviving replica of
//! the same vertex never sees a replayed copy.
//!
//! Replay is idempotent end to end: instances suppress duplicate clocks at
//! their input queues, the store suppresses duplicate clocked updates, and
//! the sink absorbs a tail replacement's re-delivery into its own window as
//! replay shadows (separately counted) — the chain's duplicate accounting
//! stays at zero. The sink's window is one bit per injected clock and is
//! never pruned, so it covers every counter a tail replay can re-emit.
//!
//! **Why the replacement's snapshot is complete.** The dying thread zeroes
//! the dead slot before the replacement starts, holding the cut lock
//! (`EngineShared::cut_lock`), the lock every truncation pass holds from its
//! first watermark read to its last cut. Every log the replacement reads has
//! the dead slot in its commit scope (the root's scope holds every on-path
//! slot, an egress log's every slot strictly downstream of the logging
//! vertex), so from the moment the lock is released no frontier cut can
//! drop an entry from it: the snapshot the replacement takes later holds
//! everything one taken at the zeroing would have held, and truncation need
//! not pause while it replays. The lock makes passes and failover starts
//! take turns: a pass either ends before the slot is zeroed or begins
//! after, so a root descheduled in mid-pass cannot cut at watermarks read
//! before a failover began once a replay has moved them. That is the lock's
//! one job. Each replacement reads the logs on its own thread and only
//! pushes downstream, so overlapping failovers need no coordination: a
//! replay that backs up waits on a live consumer further down an acyclic
//! chain.
//!
//! ## Log truncation
//!
//! Every packet log — the root's is the first — is one row of
//! `ChainPlan::log_scopes`, and a pass treats every row alike
//! (`truncate_logs`). It cuts the log at its own commit frontier, the
//! lowest watermark in `EngineShared::watermarks` over the row's scope:
//! every on-path instance and the sink for the root's log, the instances
//! *strictly downstream* of the logging vertex plus the sink for an egress
//! log. That cut is the engine's only deletion rule. It departs from the
//! paper's Figure 6, which also deletes each entry once its XOR tokens
//! cancel: on the engine those deletes freed almost nothing the frontier
//! did not, and cost a lock per logged packet and a pause of every pass
//! while a replay ran (DESIGN.md "Tail kills: one deletion rule on each
//! substrate").
//!
//! The root runs a pass each time it starts a new page of its log
//! (`page_pass`, every `PAGE_CELLS` = 256 counters), so a cut frees
//! memory a page at a time, and a pass comes with the injection that grows
//! the logs: a log stays within the rings' depth plus a page of the
//! frontier, whichever thread the host leaves off the CPU, since a stalled
//! instance stalls the rings and with them the root. The engine runs one
//! more pass once every thread has joined.
//!
//! The frontier never overclaims, through a failover or after one: a ring's
//! frontier is its producer's stamp ([`crate::wiring`]), and a producer
//! stamps only what it has published, so no copy a replay still owes lies
//! at or below it. So passes never pause, however many kills are still
//! armed. A
//! replacement publishes under the dead instance's slot only once its
//! replay is done: until then every frontier that contains the slot reads
//! zero.
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
//! log holds anything at or below it. Each pass therefore raises
//! [`StoreServer::forget_through`] to the root's frontier — capped below
//! the smallest re-injection counter until the final pass, because a
//! re-injected copy is in flight after it left the buffer and no watermark
//! covers it.

use crate::engine::EngineShared;
use crate::plan::{ChainPlan, InstancePlan};
use chc_core::VertexLogs;
use chc_store::{Clock, StoreServer, VertexId};
use chc_telemetry::EventKind;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// Begin one failover, on the thread of the instance that just fail-stopped
/// in `slot`: hand its store state and watermark slot to `seed`, the
/// replacement its kill carried, which then runs on this thread and wiring
/// and replays on its own.
pub(crate) fn begin_failover(
    shared: &EngineShared,
    slot: usize,
    mut seed: InstancePlan,
) -> InstancePlan {
    let takeover = seed.takeover.as_mut().expect("a seed replaces an instance");
    takeover.started = Some(Instant::now());
    let (vertex, index) = (seed.vertex.0, seed.index as u32);
    shared.telemetry.event(EventKind::FailoverBegin {
        vertex,
        index,
        instance: takeover.failed.0 as u64,
    });
    {
        // The replacement takes over the failed instance's per-flow state
        // and its watermark slot, which starts over: until it has replayed
        // and publishes, every frontier the slot is in stays put, and so
        // does every log the replay reads. A clock at or below the old
        // watermark was done here, so a later copy of it is a repeat.
        let _cut = shared.cut_lock.lock().unwrap_or_else(|e| e.into_inner());
        shared.server.reassign_owner(takeover.failed, seed.instance);
        seed.core
            .forget_through(Clock(shared.watermarks[slot].swap(0, Ordering::AcqRel)));
    }
    shared.telemetry.event(EventKind::ReplacementSpawn {
        vertex,
        index,
        instance: seed.instance.0 as u64,
    });
    seed
}

/// The root's pass at each root-log page boundary: [`truncate_logs`] under
/// the cut lock (see the module docs).
pub(crate) fn page_pass(shared: &EngineShared, plan: &ChainPlan) {
    let _cut = shared.cut_lock.lock().unwrap_or_else(|e| e.into_inner());
    truncate_logs(shared, &plan.log_scopes, plan.floor_cap);
}

/// One truncation pass (see the module docs) over `log_scopes`, the plan's
/// rows of `(logging vertex, commit scope)`: cut each log at the frontier of
/// its own scope. The first row is the root's, whose scope contains every
/// other and whose frontier is therefore the lowest: its advance is
/// journaled, the store forgets what the logs forgot up to it — capped at
/// `floor_cap` — and it is returned. The root runs a pass once per page of
/// its log ([`page_pass`]). The engine runs one more after every thread
/// joined: every surviving component has published its last watermark by
/// then, so that cut is the tightest the commit protocol can justify.
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
            dropped = log.truncate_confirmed(frontier);
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
    use chc_core::{ChainConfig, TaggedPacket};
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
    fn one_pass_cuts_each_log_at_its_own_frontier_and_raises_the_floor() {
        let (plan, shared) = armed_run();
        let scopes = &plan.log_scopes;
        let trace = TraceGenerator::new(TraceConfig::small(1)).generate();
        // Counters 1..=10 injected, and logged again as they left the
        // firewall.
        for (pkt, counter) in trace.iter().zip(1..=10u64) {
            let tp = TaggedPacket::new(pkt.clone(), Clock(counter));
            assert!(shared.logs.log(ROOT_VERTEX).unwrap().insert(tp.clone()));
            assert!(shared.logs.log(FW).expect("armed").insert(tp));
        }
        // Watermarks by slot, the sink's (3) among the lowest.
        for (slot, watermark) in [(0, 4), (1, 6), (2, 5), (3, 4)] {
            shared.publish_watermark(slot, watermark);
        }

        // A page pass, the floor capped below a drill at 4. Both
        // frontiers are the sink's 4, and nothing above a frontier leaves a
        // log.
        assert_eq!(truncate_logs(&shared, scopes, 3), 4);
        assert_eq!(held(&shared, ROOT_VERTEX), [5, 6, 7, 8, 9, 10]);
        assert_eq!(held(&shared, FW), [5, 6, 7, 8, 9, 10]);
        assert_eq!(shared.server.replay_floor(), 4, "capped at 3, so 4 up");

        // Each log is cut at its own frontier. The firewall's watermark is
        // in the root's scope only: held at 4 (a live firewall is never the
        // laggard), it keeps 5 in the root's log while the firewall's own
        // log, whose scope is through 5 once the sink is, lets it go.
        shared.publish_watermark(3, 6);
        assert_eq!(truncate_logs(&shared, scopes, 3), 4);
        assert_eq!(held(&shared, ROOT_VERTEX), [5, 6, 7, 8, 9, 10]);
        assert_eq!(held(&shared, FW), [6, 7, 8, 9, 10]);

        // The NAT dies: `begin_failover` zeroes its slot, which is in both
        // scopes, so neither log is cut again until the replacement
        // publishes — and the floor stays where it was.
        shared.watermarks[1].store(0, Ordering::Release);
        for slot in [0, 2, 3] {
            shared.publish_watermark(slot, 9);
        }
        assert_eq!(truncate_logs(&shared, scopes, u64::MAX), 0);
        assert_eq!(held(&shared, ROOT_VERTEX), [5, 6, 7, 8, 9, 10]);
        assert_eq!(held(&shared, FW), [6, 7, 8, 9, 10]);
        assert_eq!(shared.server.replay_floor(), 4, "the floor is monotonic");

        // Final-style pass: the replacement confirmed through 9 too, and
        // nothing is in flight, so the floor is uncapped.
        shared.publish_watermark(1, 9);
        assert_eq!(truncate_logs(&shared, scopes, u64::MAX), 9);
        assert_eq!(held(&shared, ROOT_VERTEX), [10]);
        assert_eq!(held(&shared, FW), [10]);
        assert_eq!(shared.server.replay_floor(), 10);
        let root_row = *shared.logs.stats().last().expect("the root's row");
        assert_eq!((root_row.truncated, root_row.deleted), (9, 0));
    }
}
