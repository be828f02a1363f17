//! Fault-injected runs of the real-thread engine: instance kill + failover
//! with replay, store shard restarts from the per-shard journal, and the
//! sink's exact duplicate accounting under deliberate re-injection.
//!
//! The common yardstick is a healthy run of the same seeded trace: failures
//! plus recovery must reproduce its delivered packet set and its shared
//! state digest, with zero duplicates at the sink (R1/R6).

use chc_core::{ChainConfig, LogicalDag, VertexSpec};
use chc_nf::nat::{FREE_PORTS, PORT_MAP};
use chc_nf::{Firewall, LoadBalancer, Nat};
use chc_packet::{PacketId, Trace, TraceConfig, TraceGenerator};
use chc_runtime::{
    run_chain_realtime, ChainPlan, FaultPlan, RuntimeConfig, RuntimeError, RuntimeReport,
};
use chc_store::{BackendKind, InstanceId, Value, VertexId};
use chc_telemetry::EventKind;
use std::rc::Rc;

const FW: VertexId = VertexId(1);
const NAT: VertexId = VertexId(2);
const LB: VertexId = VertexId(3);

fn firewall_nat() -> LogicalDag {
    LogicalDag::linear(vec![
        VertexSpec::new(
            1,
            "firewall",
            Rc::new(|| Box::new(Firewall::with_default_policy())),
        ),
        VertexSpec::new(2, "nat", Rc::new(|| Box::new(Nat::default()))),
    ])
}

fn fw_nat_lb() -> LogicalDag {
    LogicalDag::linear(vec![
        VertexSpec::new(
            1,
            "firewall",
            Rc::new(|| Box::new(Firewall::with_default_policy())),
        ),
        VertexSpec::new(2, "nat", Rc::new(|| Box::new(Nat::default()))),
        VertexSpec::new(
            3,
            "lb",
            Rc::new(|| Box::new(LoadBalancer::with_default_backends())),
        ),
    ])
}

fn wide_firewall_nat() -> LogicalDag {
    LogicalDag::linear(vec![
        VertexSpec::new(
            1,
            "firewall",
            Rc::new(|| Box::new(Firewall::with_default_policy())),
        )
        .with_parallelism(2),
        VertexSpec::new(2, "nat", Rc::new(|| Box::new(Nat::default()))),
    ])
}

fn nat_only() -> LogicalDag {
    LogicalDag::linear(vec![VertexSpec::new(
        2,
        "nat",
        Rc::new(|| Box::new(Nat::default())),
    )])
}

fn trace_for(seed: u64) -> Trace {
    TraceGenerator::new(TraceConfig::small(seed)).generate()
}

fn run(dag: &LogicalDag, cfg: ChainConfig, rt: RuntimeConfig, trace: &Trace) -> RuntimeReport {
    run_chain_realtime(dag, cfg, &rt, trace).unwrap()
}

fn sorted_ids(report: &RuntimeReport) -> Vec<PacketId> {
    let mut ids = report.delivered_ids.clone();
    ids.sort_unstable();
    ids.dedup();
    ids
}

/// The invariant sentinel runs by default and must stay silent on every
/// correct run — healthy, faulted and recovered alike.
fn assert_no_violations(report: &RuntimeReport) {
    let inv = report.invariants.as_ref().expect("sentinel on by default");
    assert!(inv.ok(), "sentinel violations: {:?}", inv.violations);
}

/// The default NAT's ports are conserved: those the `port_map` entries hold
/// are pairwise distinct and, with what is left in `free_ports`, exactly the
/// initial pool. The shared digest cannot see this — it leaves per-flow
/// objects out and reads the pool as a multiset — so a pop answered with a
/// port some other connection already holds would pass it.
fn assert_pool_conserved(report: &RuntimeReport) {
    let mut ports = Vec::new();
    for (key, value, _) in report
        .final_state
        .iter()
        .filter(|(k, _, _)| k.vertex == NAT)
    {
        match &*key.object.name {
            PORT_MAP => ports.push(value.as_int()),
            FREE_PORTS => {
                let free = value.as_list().expect("the pool is a list");
                ports.extend(free.iter().map(Value::as_int));
            }
            _ => {}
        }
    }
    ports.sort_unstable();
    assert!(
        ports.iter().copied().eq(20_000..20_000 + 4_096),
        "ports handed out twice or lost: {ports:?}"
    );
}

#[test]
fn instance_kill_recovers_to_the_healthy_outcome() {
    // The entry dies in the two-NF chain and in the three-NF one.
    for dag in [firewall_nat(), fw_nat_lb()] {
        entry_kill_recovers_to_the_healthy_outcome(&dag);
    }
}

fn entry_kill_recovers_to_the_healthy_outcome(dag: &LogicalDag) {
    let trace = trace_for(91);
    let kill_at = (trace.len() / 2) as u64;
    // Instance ids follow the planned instances, one per vertex here.
    let replacement_id = InstanceId(dag.vertices().len() as u32);

    let healthy = run(
        dag,
        ChainConfig::default(),
        RuntimeConfig::with_batch_size(8),
        &trace,
    );
    let faulted = run(
        dag,
        ChainConfig::default(),
        RuntimeConfig::with_batch_size(8).with_fault(FaultPlan::new().kill(FW, 0, kill_at)),
        &trace,
    );

    // R1: failover must not lose or duplicate chain output...
    assert_eq!(
        faulted.duplicates, 0,
        "replay leaked duplicates to the sink"
    );
    assert_no_violations(&healthy);
    assert_no_violations(&faulted);
    assert_eq!(sorted_ids(&healthy), sorted_ids(&faulted));
    // ...and shared state must converge to the no-failure outcome (replay is
    // idempotent thanks to store-side clock deduplication).
    assert_eq!(healthy.shared_digest(), faulted.shared_digest());

    // The failed instance's partial report is kept apart; the replacement
    // (a fresh instance id) shows up in the live set and processed traffic.
    assert_eq!(faulted.failed_instances.len(), 1);
    assert_eq!(faulted.failed_instances[0].instance, InstanceId(0));
    let replacement = faulted
        .instances
        .iter()
        .find(|i| i.instance == replacement_id)
        .expect("replacement instance missing from the report");
    assert_eq!(replacement.vertex, FW);
    assert!(replacement.processed > 0, "replacement processed nothing");

    // Recovery metrics: the log was bounded by truncation, packets were
    // replayed, and the recovery took measurable wall-clock time.
    let fault = faulted.fault.as_ref().expect("fault report missing");
    assert_eq!(fault.recoveries.len(), 1);
    let rec = &fault.recoveries[0];
    assert_eq!(
        (rec.failed_instance, rec.replacement),
        (InstanceId(0), replacement_id)
    );
    assert!(rec.packets_replayed > 0, "nothing was replayed");
    assert!(rec.recovery_wall.as_nanos() > 0);
    assert!(fault.log_high_water > 0);
    assert!(
        fault.log_truncated > 0,
        "commit-frontier truncation never dropped a confirmed packet"
    );
    assert!(
        fault.log_final_len < fault.log_high_water,
        "the log never shrank below its high-water mark"
    );
    assert_eq!(fault.log_rejected, 0, "the bounded log rejected packets");

    // Replay produced duplicates somewhere — and every one of them was
    // suppressed at an input queue, not at the sink.
    let suppressed: u64 = faulted
        .instances
        .iter()
        .map(|i| i.suppressed_duplicates)
        .sum();
    assert!(suppressed > 0, "replay should hit queue-level suppression");
}

#[test]
fn instance_kill_is_deterministic_across_batch_sizes() {
    let trace = trace_for(17);
    let kill_at = (trace.len() / 3) as u64;
    let mut digests = Vec::new();
    let mut id_sets = Vec::new();
    for batch in [1usize, 8, 64] {
        let report = run(
            &firewall_nat(),
            ChainConfig::default(),
            RuntimeConfig::with_batch_size(batch).with_fault(FaultPlan::new().kill(FW, 0, kill_at)),
            &trace,
        );
        assert_eq!(report.duplicates, 0, "batch {batch}");
        assert_no_violations(&report);
        digests.push(report.shared_digest());
        id_sets.push(sorted_ids(&report));
    }
    assert!(digests.windows(2).all(|w| w[0] == w[1]));
    assert!(id_sets.windows(2).all(|w| w[0] == w[1]));
}

#[test]
fn shard_restart_recovers_from_checkpoint_plus_journal() {
    let trace = trace_for(23);
    let mid = (trace.len() / 2) as u64;
    let healthy = run(
        &firewall_nat(),
        ChainConfig::default(),
        RuntimeConfig::with_batch_size(16),
        &trace,
    );
    // Restart every shard once, checkpointing some earlier: recovery must be
    // invisible in the observables regardless.
    let mut plan = FaultPlan::new();
    for shard in 0..4 {
        let checkpoint = (shard % 2 == 0).then_some(mid / 2 + shard as u64);
        plan = plan.restart_shard(shard, mid + shard as u64, checkpoint);
    }
    let faulted = run(
        &firewall_nat(),
        ChainConfig::default(),
        RuntimeConfig::with_batch_size(16).with_fault(plan),
        &trace,
    );
    assert_eq!(faulted.duplicates, 0);
    assert_no_violations(&faulted);
    assert_eq!(sorted_ids(&healthy), sorted_ids(&faulted));
    assert_eq!(healthy.shared_digest(), faulted.shared_digest());
    let fault = faulted.fault.as_ref().expect("fault report missing");
    assert_eq!(fault.shard_recoveries.len(), 4);
    // How much lands in the checkpoint versus the journal suffix depends on
    // how far the pipeline had progressed when each trigger fired (the
    // split itself is unit-tested deterministically in chc-store); what
    // must hold here is that recovery actually rebuilt state.
    let rebuilt: usize = fault
        .shard_recoveries
        .iter()
        .map(|r| r.replayed_ops + r.restored_from_checkpoint)
        .sum();
    assert!(rebuilt > 0, "no shard rebuilt any state");
}

#[test]
fn combined_kill_and_checkpointed_shard_restart_stay_exact() {
    // Replay after the kill re-sends clocks that were applied *before* the
    // shard's checkpoint: the restarted shard must still emulate them from
    // its durable image (a checkpoint that dropped the duplicate-suppression
    // log would double-apply here and corrupt the digest).
    let trace = trace_for(41);
    let quarter = (trace.len() / 4) as u64;
    let healthy = run(
        &firewall_nat(),
        ChainConfig::default(),
        RuntimeConfig::with_batch_size(8),
        &trace,
    );
    let mut plan = FaultPlan::new().kill(FW, 0, 3 * quarter);
    for shard in 0..4 {
        plan = plan.restart_shard(shard, 2 * quarter, Some(quarter));
    }
    let faulted = run(
        &firewall_nat(),
        ChainConfig::default(),
        RuntimeConfig::with_batch_size(8).with_fault(plan),
        &trace,
    );
    assert_eq!(faulted.duplicates, 0);
    assert_no_violations(&faulted);
    assert_eq!(sorted_ids(&healthy), sorted_ids(&faulted));
    assert_eq!(healthy.shared_digest(), faulted.shared_digest());
    let fault = faulted.fault.as_ref().unwrap();
    assert_eq!(fault.recoveries.len(), 1);
    assert_eq!(fault.shard_recoveries.len(), 4);
}

#[test]
fn pruned_dedup_log_still_covers_kill_restart_and_reinjection() {
    // Both engines by name, whatever `CHC_STORE_BACKEND` says: a plain
    // `cargo test` then restarts checkpointed shards from segment files too.
    for backend in [BackendKind::Memory, BackendKind::AppendOnly] {
        kill_restart_and_reinjection_on(backend);
    }
}

fn kill_restart_and_reinjection_on(backend: BackendKind) {
    // Every replay source at once: an instance kill (root-log replay), a
    // checkpointed restart of every shard (journal replay of a pruned log)
    // and a re-injection drill whose copies reach the store unsuppressed in
    // a run that keeps pruning behind the commit frontier. The store's
    // duplicate suppression must still absorb every re-issued update, with
    // a log no longer than the packets the logs never truncated.
    let rt = || RuntimeConfig::with_batch_size(8).with_store_backend(backend);
    let trace = trace_for(41);
    let quarter = (trace.len() / 4) as u64;
    let healthy = run(&firewall_nat(), ChainConfig::default(), rt(), &trace);
    // A healthy run has no replay source: the floor starts at the top and
    // the store never logs an update.
    assert_eq!(healthy.store_update_log_len, 0);
    assert_eq!(healthy.store_replay_floor, u64::MAX);

    let reinjected = [quarter / 2, quarter + 3, 2 * quarter + 5];
    let mut plan = FaultPlan::new()
        .kill(FW, 0, 3 * quarter)
        .reinject(reinjected);
    for shard in 0..4 {
        plan = plan.restart_shard(shard, 2 * quarter, Some(quarter));
    }
    let faulted = run(
        &firewall_nat(),
        ChainConfig::default(),
        rt().with_fault(plan),
        &trace,
    );
    assert_eq!(faulted.duplicates, 0);
    assert_no_violations(&faulted);
    assert_eq!(sorted_ids(&healthy), sorted_ids(&faulted));
    assert_eq!(healthy.shared_digest(), faulted.shared_digest());
    let fault = faulted.fault.as_ref().unwrap();
    assert_eq!(fault.recoveries.len(), 1);
    assert_eq!(fault.shard_recoveries.len(), 4);
    assert_eq!(fault.reinjected, reinjected.len() as u64);
    assert!(fault.aborts.is_empty());
    // The log holds updates only for packets from the floor up — exactly
    // the packets the root log still holds after its final truncation. A
    // firewall → NAT packet induces at most a handful of store updates.
    let replayable = (faulted.injected + 1).saturating_sub(faulted.store_replay_floor);
    assert!(replayable <= fault.log_final_len as u64);
    assert!(
        faulted.store_update_log_len as u64 <= 8 * replayable,
        "{} updates retained for {replayable} replayable packets",
        faulted.store_update_log_len
    );

    // The same drill with queue-level suppression off: the re-injected
    // copies run the NFs again and only the store's log keeps state exact.
    let mut plan = FaultPlan::new().reinject(reinjected);
    for shard in 0..4 {
        plan = plan.restart_shard(shard, 2 * quarter, Some(quarter));
    }
    let unsuppressed = run(
        &firewall_nat(),
        ChainConfig {
            duplicate_suppression: false,
            ..ChainConfig::default()
        },
        rt().with_fault(plan),
        &trace,
    );
    assert_no_violations(&unsuppressed);
    assert_eq!(unsuppressed.duplicates, reinjected.len() as u64);
    assert_eq!(healthy.shared_digest(), unsuppressed.shared_digest());
}

#[test]
fn reinjection_is_counted_exactly_at_the_sink() {
    let trace = trace_for(7);
    // Re-inject three logged packets after the trace. With queue-level
    // suppression disabled they flow the whole chain again; the NAT-only
    // chain forwards everything, so the sink must see each one exactly once
    // more — counted, not silently deduplicated.
    let counters = [5u64, 17, 40];
    let cfg = ChainConfig {
        duplicate_suppression: false,
        ..ChainConfig::default()
    };
    let report = run(
        &nat_only(),
        cfg,
        RuntimeConfig::with_batch_size(8).with_fault(FaultPlan::new().reinject(counters)),
        &trace,
    );
    assert_eq!(report.duplicates, counters.len() as u64);
    // Deliberate re-injection: sink duplicates are expected and accounted,
    // so the exactly-once invariant must NOT fire.
    assert_no_violations(&report);
    let mut dup_counters: Vec<u64> = report
        .duplicate_clocks
        .iter()
        .map(|c| c.counter())
        .collect();
    dup_counters.sort_unstable();
    assert_eq!(dup_counters, counters);
    assert_eq!(
        report.fault.as_ref().unwrap().reinjected,
        counters.len() as u64
    );
    // Store-side clock deduplication still made the re-run state-neutral.
    let healthy = run(
        &nat_only(),
        ChainConfig::default(),
        RuntimeConfig::with_batch_size(8),
        &trace,
    );
    assert_eq!(healthy.shared_digest(), report.shared_digest());
}

#[test]
fn reinjection_is_suppressed_at_the_queue_when_enabled() {
    let trace = trace_for(7);
    let report = run(
        &nat_only(),
        ChainConfig::default(),
        RuntimeConfig::with_batch_size(8).with_fault(FaultPlan::new().reinject([5u64, 17])),
        &trace,
    );
    // With suppression on (the default), the duplicates die at the NAT's
    // input queue and the sink stays clean.
    assert_eq!(report.duplicates, 0);
    assert_no_violations(&report);
    let suppressed: u64 = report
        .instances
        .iter()
        .map(|i| i.suppressed_duplicates)
        .sum();
    assert_eq!(suppressed, 2);
}

#[test]
fn fault_plans_are_validated() {
    // Planning is pure: every rejection below comes out of `ChainPlan::new`
    // with no thread started.
    let trace = trace_for(3);
    let cfg = ChainConfig::default();
    let plan_with = |plan: FaultPlan| {
        let rt = RuntimeConfig::with_batch_size(8).with_fault(plan);
        ChainPlan::new(&firewall_nat(), &cfg, &rt, trace.len()).map(|_| ())
    };

    assert_eq!(
        plan_with(FaultPlan::new().kill(VertexId(9), 0, 10)),
        Err(RuntimeError::UnknownFaultVertex(VertexId(9)))
    );
    // Non-entry and tail kills are accepted (per-vertex egress logs replay
    // at the right depth, the XOR delete window bounds tail re-delivery).
    assert_eq!(plan_with(FaultPlan::new().kill(NAT, 0, 10)), Ok(()));
    assert_eq!(
        plan_with(FaultPlan::new().kill_root(0)),
        Err(RuntimeError::KillOutsideTrace {
            at_counter: 0,
            trace_len: trace.len()
        })
    );
    assert_eq!(
        plan_with(FaultPlan::new().kill(FW, 3, 10)),
        Err(RuntimeError::FaultIndexOutOfRange {
            vertex: FW,
            index: 3,
            instances: 1
        })
    );
    assert_eq!(
        plan_with(FaultPlan::new().kill(FW, 0, 0)),
        Err(RuntimeError::KillOutsideTrace {
            at_counter: 0,
            trace_len: trace.len()
        })
    );
    assert_eq!(
        plan_with(FaultPlan::new().kill(FW, 0, 10).kill(FW, 0, 20)),
        Err(RuntimeError::DuplicateKill {
            vertex: FW,
            index: 0
        })
    );
    assert_eq!(
        plan_with(FaultPlan::new().restart_shard(9, 10, None)),
        Err(RuntimeError::ShardOutOfRange {
            shard: 9,
            shards: 4
        })
    );
    let past_the_end = trace.len() as u64 + 1;
    assert_eq!(
        plan_with(FaultPlan::new().restart_shard(0, 10, Some(past_the_end))),
        Err(RuntimeError::ShardFaultOutsideTrace {
            at_counter: past_the_end,
            trace_len: trace.len()
        })
    );
    assert_eq!(
        plan_with(FaultPlan::new().reinject([0u64])),
        Err(RuntimeError::ReinjectOutsideTrace {
            counter: 0,
            trace_len: trace.len()
        })
    );
    // A root kill is the plan's only fault: the new root skips counters a
    // kill, a shard fault or the drill may be keyed on.
    let with_root_kill = [
        FaultPlan::new().kill(NAT, 0, 10),
        FaultPlan::new().restart_shard(0, 10, None),
        FaultPlan::new().reinject([5u64, 6]),
    ];
    for (plan, others) in with_root_kill.into_iter().zip([1, 1, 2]) {
        assert_eq!(
            plan_with(plan.kill_root(20)),
            Err(RuntimeError::RootKillNotAlone {
                at_counter: 20,
                others
            })
        );
    }
    // End to end, the engine surfaces a plan error unchanged.
    let rt = RuntimeConfig::with_batch_size(8).with_fault(FaultPlan::new().kill(FW, 3, 10));
    assert_eq!(
        run_chain_realtime(&firewall_nat(), cfg, &rt, &trace).map(|_| ()),
        Err(RuntimeError::FaultIndexOutOfRange {
            vertex: FW,
            index: 3,
            instances: 1
        })
    );
}

#[test]
fn mid_chain_kill_replays_from_the_upstream_egress_log() {
    let trace = trace_for(53);
    let kill_at = (trace.len() / 2) as u64;
    let healthy = run(
        &fw_nat_lb(),
        ChainConfig::default(),
        RuntimeConfig::with_batch_size(8),
        &trace,
    );
    let faulted = run(
        &fw_nat_lb(),
        ChainConfig::default(),
        RuntimeConfig::with_batch_size(8).with_fault(FaultPlan::new().kill(NAT, 0, kill_at)),
        &trace,
    );
    assert_eq!(faulted.duplicates, 0);
    assert!(faulted.duplicate_clocks.is_empty());
    assert_no_violations(&healthy);
    assert_no_violations(&faulted);
    assert_eq!(sorted_ids(&healthy), sorted_ids(&faulted));
    assert_eq!(healthy.shared_digest(), faulted.shared_digest());
    // Whatever the replacement re-processed, on a copy of the pool it read
    // back from the store, no port was handed out twice and none was lost.
    assert_pool_conserved(&healthy);
    assert_pool_conserved(&faulted);

    let fault = faulted.fault.as_ref().expect("fault report missing");
    assert_eq!(fault.recoveries.len(), 1);
    assert!(fault.recoveries[0].packets_replayed > 0);
    // The replay source was the firewall's egress log, not the root's: the
    // upstream of the killed vertex was armed and actually logged traffic.
    let fw_log = fault
        .vertex_logs
        .iter()
        .find(|s| s.vertex == FW)
        .expect("upstream egress log missing from the report");
    assert!(fw_log.high_water > 0, "the firewall never logged egress");
    assert_eq!(fw_log.rejected, 0);
}

#[test]
fn the_frontier_moves_again_after_a_failover() {
    // Both engines by name, whatever `CHC_STORE_BACKEND` says.
    for backend in [BackendKind::Memory, BackendKind::AppendOnly] {
        frontier_moves_after_a_mid_kill_on(backend);
    }
}

fn frontier_moves_after_a_mid_kill_on(backend: BackendKind) {
    // A failover is a transient: once the NAT replacement's replay has
    // completed, the replacement publishes its watermark again and the
    // commit frontier moves on while the trace is still running — not only
    // in the engine's final pass.
    let trace = TraceGenerator::new(TraceConfig {
        seed: 37,
        connections: 800,
        mean_packets_per_connection: 24,
        ..TraceConfig::default()
    })
    .generate();
    assert!(trace.len() >= 20_000, "{} packets", trace.len());
    let kill_at = (trace.len() / 2) as u64;
    let rt = RuntimeConfig::with_batch_size(32)
        .with_store_backend(backend)
        .with_fault(FaultPlan::new().kill(NAT, 0, kill_at));
    let faulted = run(&fw_nat_lb(), ChainConfig::default(), rt, &trace);
    assert_eq!(faulted.duplicates, 0, "{backend:?}");
    assert_no_violations(&faulted);
    let fault = faulted.fault.as_ref().expect("fault report missing");
    assert_eq!(fault.recoveries.len(), 1, "{backend:?}");
    assert!(fault.aborts.is_empty(), "{backend:?}: {:?}", fault.aborts);

    let telemetry = faulted.telemetry.as_ref().expect("telemetry on by default");
    let ended = telemetry.events_named("failover_end");
    assert_eq!(ended.len(), 1, "{backend:?}");
    let after: Vec<u64> = telemetry
        .events_named("commit_frontier")
        .into_iter()
        .filter(|e| e.seq > ended[0].seq)
        .map(|e| match e.kind {
            EventKind::CommitFrontier { frontier, .. } => frontier,
            ref other => panic!("wrong payload: {other:?}"),
        })
        .collect();
    // The frontier only moves up. The first advance after `failover_end`
    // need not pass the kill: the LB's and the sink's watermarks can still
    // sit at the last batch boundary below it, waiting for the replacement's
    // output, when the NAT's slot unfreezes. What must hold is that the
    // supervisor carries it past the kill while the trace runs.
    assert!(
        after.windows(2).all(|w| w[0] < w[1]),
        "{backend:?}: frontier advances after the failover do not increase: {after:?}"
    );
    // The engine's final pass journals the last advance; a frozen frontier
    // journals nothing else after the failover.
    let live = after.split_last().map_or(&[][..], |(_, live)| live);
    assert!(
        live.iter().any(|&frontier| frontier > kill_at),
        "{backend:?}: no advance before the final pass is past the kill at {kill_at}: {after:?}"
    );
}

#[test]
fn tail_kill_bounds_redelivery_with_the_xor_delete_window() {
    let trace = trace_for(67);
    let kill_at = (trace.len() / 2) as u64;
    let healthy = run(
        &firewall_nat(),
        ChainConfig::default(),
        RuntimeConfig::with_batch_size(8),
        &trace,
    );
    let faulted = run(
        &firewall_nat(),
        ChainConfig::default(),
        RuntimeConfig::with_batch_size(8).with_fault(FaultPlan::new().kill(NAT, 0, kill_at)),
        &trace,
    );
    assert_eq!(faulted.duplicates, 0);
    assert!(faulted.duplicate_clocks.is_empty());
    assert_no_violations(&healthy);
    assert_no_violations(&faulted);
    assert_eq!(sorted_ids(&healthy), sorted_ids(&faulted));
    assert_eq!(healthy.shared_digest(), faulted.shared_digest());

    // The tail replacement re-processed the replayed suffix, but the XOR
    // delete ledger gated everything already confirmed at the sink: gated
    // packets plus the sink's replay-window suppression account for every
    // replayed copy that could have reached the end host twice.
    let replacement = faulted
        .instances
        .iter()
        .find(|i| i.vertex == NAT && i.instance != InstanceId(1))
        .expect("tail replacement missing");
    // Whether a given replayed copy is caught at the replacement's egress
    // (ledger already confirmed when it re-emits) or at the sink (the
    // confirmation raced the re-emission) depends on thread timing; the
    // window bound is the sum of the two.
    assert!(
        replacement.replay_egress_gated + faulted.replay_window_suppressed > 0,
        "no replayed copy of a delivered clock was ever caught by the window"
    );
}

#[test]
fn tail_kill_in_a_three_nf_chain_replays_from_the_nat_log() {
    // Same protocol, one level deeper: the LB tail dies in the 3-NF chain,
    // so the replacement is fed from the NAT's egress log (not the root's)
    // and its re-emissions are gated by the XOR delete window.
    let trace = trace_for(71);
    let kill_at = (trace.len() / 2) as u64;
    let healthy = run(
        &fw_nat_lb(),
        ChainConfig::default(),
        RuntimeConfig::with_batch_size(8),
        &trace,
    );
    let faulted = run(
        &fw_nat_lb(),
        ChainConfig::default(),
        RuntimeConfig::with_batch_size(8).with_fault(FaultPlan::new().kill(LB, 0, kill_at)),
        &trace,
    );
    assert_eq!(faulted.duplicates, 0);
    assert!(faulted.duplicate_clocks.is_empty());
    assert_no_violations(&faulted);
    assert_eq!(sorted_ids(&healthy), sorted_ids(&faulted));
    assert_eq!(healthy.shared_digest(), faulted.shared_digest());
    let fault = faulted.fault.as_ref().expect("fault report");
    assert_eq!(fault.recoveries.len(), 1);
    assert!(fault.aborts.is_empty());
    // The NAT (the killed tail's upstream) armed an egress log and it saw
    // traffic; the root log alone would replay at the wrong depth.
    assert!(
        fault
            .vertex_logs
            .iter()
            .any(|vl| vl.vertex == NAT && vl.high_water > 0),
        "no armed NAT egress log in {:?}",
        fault.vertex_logs
    );
}

#[test]
fn entry_and_tail_single_vertex_kill_recovers() {
    // A single-NF chain's vertex is entry *and* tail: replay comes from the
    // root log and the XOR delete window plus sink-side replay suppression
    // keep the end host exactly-once.
    let trace = trace_for(29);
    let kill_at = (trace.len() / 2) as u64;
    let healthy = run(
        &nat_only(),
        ChainConfig::default(),
        RuntimeConfig::with_batch_size(8),
        &trace,
    );
    let faulted = run(
        &nat_only(),
        ChainConfig::default(),
        RuntimeConfig::with_batch_size(8).with_fault(FaultPlan::new().kill(NAT, 0, kill_at)),
        &trace,
    );
    assert_eq!(faulted.duplicates, 0);
    assert!(faulted.duplicate_clocks.is_empty());
    assert_no_violations(&faulted);
    assert_eq!(sorted_ids(&healthy), sorted_ids(&faulted));
    assert_eq!(healthy.shared_digest(), faulted.shared_digest());
}

#[test]
fn root_kill_loses_only_what_the_dead_root_held() {
    // The root dies above the two-NF chain and above the three-NF one.
    for dag in [firewall_nat(), fw_nat_lb()] {
        root_kill_hands_over(&dag);
    }
}

/// The crash model of §5.4, checked against the sink's books: the new root
/// resumes one persist period above the persisted clock; the packets in the
/// dead root's unflushed output batch (one ring here, so at most batch − 1
/// of them) are lost, and nothing else is; everything else is delivered
/// exactly once, as a healthy run over the trace without the lost packets
/// delivers it. The kill point leaves a partial batch behind, so the crash
/// does lose packets.
fn root_kill_hands_over(dag: &LogicalDag) {
    let trace = trace_for(83);
    let kill_at = (trace.len() / 2) as u64;
    let batch = 8;
    let faulted = run(
        dag,
        ChainConfig::default(),
        RuntimeConfig::with_batch_size(batch).with_fault(FaultPlan::new().kill_root(kill_at)),
        &trace,
    );
    let takeover = (faulted.fault.as_ref())
        .expect("fault report missing")
        .root_takeover
        .clone()
        .expect("takeover record missing");
    assert_eq!(takeover.killed_at, kill_at);
    assert_eq!(
        takeover.resumed_at,
        100 * ((kill_at - 1) / 100) + 101,
        "the new root resumes at the persisted clock plus one persist period"
    );
    assert!(takeover.lost.len() < batch, "lost {:?}", takeover.lost);
    assert!(!takeover.lost.is_empty(), "kill at {kill_at}: nothing lost");
    assert!(takeover.recovery_wall.as_nanos() > 0);

    let mut survivors = trace.clone();
    survivors.packets.retain(|p| !takeover.lost.contains(&p.id));
    let healthy = run(
        dag,
        ChainConfig::default(),
        RuntimeConfig::with_batch_size(batch),
        &survivors,
    );
    assert_eq!(faulted.duplicates, 0);
    assert!(faulted.duplicate_clocks.is_empty());
    assert_no_violations(&faulted);
    assert_eq!(sorted_ids(&healthy), sorted_ids(&faulted));
    assert_eq!(healthy.shared_digest(), faulted.shared_digest());
    assert_eq!(faulted.injected, trace.len() as u64, "trace not completed");
}

#[test]
fn overlapping_kills_do_not_double_count_duplicates() {
    // Two failovers whose replay windows overlap (both firewall replicas die
    // around the same clock) stress the duplicate accounting: every replayed
    // copy must land in queue-level suppression or the sink's replay-window
    // counter, never in `duplicates`/`duplicate_clocks` — double-counting
    // there was exactly the bug class this accounting split fixes.
    let trace = trace_for(59);
    let third = (trace.len() / 3) as u64;
    let healthy = run(
        &wide_firewall_nat(),
        ChainConfig::default(),
        RuntimeConfig::with_batch_size(8),
        &trace,
    );
    let faulted = run(
        &wide_firewall_nat(),
        ChainConfig::default(),
        RuntimeConfig::with_batch_size(8).with_fault(FaultPlan::new().kill(FW, 0, third).kill(
            FW,
            1,
            third + 4,
        )),
        &trace,
    );
    assert_eq!(faulted.duplicates, 0, "overlapping replays double-counted");
    assert!(faulted.duplicate_clocks.is_empty());
    assert_no_violations(&faulted);
    assert_eq!(sorted_ids(&healthy), sorted_ids(&faulted));
    assert_eq!(healthy.shared_digest(), faulted.shared_digest());
    let fault = faulted.fault.as_ref().expect("fault report missing");
    assert_eq!(fault.recoveries.len(), 2);
    assert!(
        fault.aborts.is_empty(),
        "a failover aborted: {:?}",
        fault.aborts
    );
}

#[test]
fn a_surviving_replica_sees_no_replay() {
    // §5.3: the replacement replays its own log, the copies routed to its
    // own index, so the firewall replica that did not die processes exactly
    // its healthy share and never meets a replayed copy.
    let trace = trace_for(59);
    let kill_at = (trace.len() / 2) as u64;
    let survivor = |report: &RuntimeReport| {
        report
            .instances
            .iter()
            .find(|i| i.vertex == FW && i.instance == InstanceId(1))
            .cloned()
            .expect("the surviving firewall replica")
    };
    let healthy = run(
        &wide_firewall_nat(),
        ChainConfig::default(),
        RuntimeConfig::with_batch_size(8),
        &trace,
    );
    let faulted = run(
        &wide_firewall_nat(),
        ChainConfig::default(),
        RuntimeConfig::with_batch_size(8).with_fault(FaultPlan::new().kill(FW, 0, kill_at)),
        &trace,
    );
    assert_eq!(faulted.duplicates, 0);
    assert!(faulted.duplicate_clocks.is_empty());
    assert_no_violations(&healthy);
    assert_no_violations(&faulted);
    assert_eq!(sorted_ids(&healthy), sorted_ids(&faulted));
    assert_eq!(healthy.shared_digest(), faulted.shared_digest());
    let fault = faulted.fault.as_ref().expect("fault report missing");
    assert_eq!(fault.recoveries.len(), 1);
    assert!(fault.recoveries[0].packets_replayed > 0);

    let (before, after) = (survivor(&healthy), survivor(&faulted));
    assert_eq!(after.suppressed_duplicates, 0, "the survivor saw a replay");
    assert_eq!(after.processed, before.processed);
}

/// The NAT of fw → NAT → LB has one clock-ordered input, so it folds its
/// counters' increments and the store suppresses their duplicates by the
/// NAT's mark on each counter. Killed mid-stream, its replacement inherits
/// those marks with the NAT's per-flow state, then replays packets the dead
/// NAT had already applied: clocks at or below the inherited marks, which
/// the store emulates. So more NAT packets are processed than a healthy run
/// processes, and the state is the healthy run's.
#[test]
fn a_nat_replacement_inherits_the_marks_of_the_nat_it_replaces() {
    for seed in [53u64, 71] {
        let trace = trace_for(seed);
        let kill_at = (trace.len() / 2) as u64;
        let rt = || RuntimeConfig::with_batch_size(8);
        let healthy = run(&fw_nat_lb(), ChainConfig::default(), rt(), &trace);
        let plan = FaultPlan::new().kill(NAT, 0, kill_at);
        let faulted = run(
            &fw_nat_lb(),
            ChainConfig::default(),
            rt().with_fault(plan),
            &trace,
        );
        assert_no_violations(&faulted);
        assert_eq!(faulted.duplicates, 0);
        assert_eq!(faulted.buffered_refused(), 0);
        assert_eq!(sorted_ids(&healthy), sorted_ids(&faulted));
        assert_eq!(
            healthy.shared_digest(),
            faulted.shared_digest(),
            "seed {seed}"
        );
        let nat = |r: &RuntimeReport| -> u64 {
            let all = r.instances.iter().chain(&r.failed_instances);
            all.filter(|i| i.vertex == NAT).map(|i| i.processed).sum()
        };
        assert!(
            nat(&faulted) > nat(&healthy),
            "seed {seed}: the replacement re-issued nothing the NAT had applied"
        );
    }
}

/// Behind two firewall instances the NAT interleaves two rings, so its
/// increments reach the store out of clock order: it is not an ordered
/// writer, never folds, and its duplicates stay with the log. A store op a
/// NAT packet at least, and the healthy state after a firewall kill.
#[test]
fn an_unordered_nat_never_folds_and_recovers_exactly() {
    let trace = trace_for(59);
    let rt = || RuntimeConfig::with_batch_size(8);
    let healthy = run(&wide_firewall_nat(), ChainConfig::default(), rt(), &trace);
    let plan = FaultPlan::new().kill(FW, 0, (trace.len() / 2) as u64);
    let faulted = run(
        &wide_firewall_nat(),
        ChainConfig::default(),
        rt().with_fault(plan),
        &trace,
    );
    assert_no_violations(&faulted);
    assert_eq!(faulted.buffered_refused(), 0);
    assert_eq!(healthy.shared_digest(), faulted.shared_digest());
    for report in [&healthy, &faulted] {
        let nat = report.instances.iter().find(|i| i.vertex == NAT).unwrap();
        assert!(
            report.store_ops >= nat.processed,
            "{} store ops for {} NAT packets: the NAT folded",
            report.store_ops,
            nat.processed
        );
    }
}
