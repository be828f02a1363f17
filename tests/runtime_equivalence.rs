//! Substrate equivalence: the real-thread runtime and the deterministic
//! simulator must produce COE-equivalent output for the same seeded trace —
//! the same delivered packet set, no duplicates, the same alerts and the
//! same final shared-state digest — including across an elastic scale-out
//! event **and across a mid-trace instance failure with recovery**, and
//! deterministically across seeds and repeated runs.
//!
//! Two mechanisms carry the equivalence:
//!
//! * the logical-clock-keyed traffic cut
//!   (`ChainController::schedule_scale_up` / `RuntimeConfig::with_scale`):
//!   the flow→instance history is a pure function of the input trace, so
//!   both substrates partition identically even though one runs in virtual
//!   time and the other on wall clocks; and
//! * idempotent replay: both substrates suppress duplicate clocks at
//!   instance queues and at the store, so killing an instance mid-trace and
//!   replaying the root's packet log converges both of them to the *same*
//!   observables a failure-free run produces — which is exactly the paper's
//!   R1 claim, checked here across substrates and seeds.

use chc_bench::faultgen::FaultGen;
use chc_core::coe::{coe_violations, run_ideal_chain};
use chc_core::root::ROOT_VERTEX;
use chc_core::{ChainConfig, ChainController, LogicalDag, VertexSpec};
use chc_nf::{Firewall, Nat};
use chc_packet::{PacketId, Trace, TraceConfig, TraceGenerator};
use chc_runtime::{
    run_chain_realtime, shared_state_digest, FaultPlan, InstanceKill, RuntimeConfig,
};
use chc_sim::VirtualTime;
use chc_store::{InstanceId, StateKey, Value, VertexId};
use std::collections::BTreeMap;
use std::rc::Rc;

const FW_VERTEX: VertexId = VertexId(1);
const NAT_VERTEX: VertexId = VertexId(2);

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

fn trace_for(seed: u64) -> Trace {
    TraceGenerator::new(TraceConfig::small(seed)).generate()
}

/// Digest of the simulator's final shared state, excluding the root's own
/// metadata (the persisted clock has no runtime counterpart).
fn sim_digest(entries: Vec<(StateKey, Value, Option<InstanceId>)>) -> BTreeMap<String, String> {
    shared_state_digest(
        entries
            .into_iter()
            .filter(|(k, _, _)| k.vertex != ROOT_VERTEX),
    )
}

/// Run the simulator with a scale-out cut at `first_counter`, returning
/// (sorted delivered ids, duplicates, alerts, shared digest).
fn run_sim(
    trace: &Trace,
    seed: u64,
    first_counter: u64,
) -> (Vec<PacketId>, u64, Vec<String>, BTreeMap<String, String>) {
    let mut chain = ChainController::new(firewall_nat(), ChainConfig::default(), seed).unwrap();
    chain.schedule_scale_up(NAT_VERTEX, first_counter);
    chain.inject_trace(trace);
    chain.run();
    let metrics = chain.metrics();
    let mut ids = chain.delivered_ids();
    ids.sort_unstable();
    let alerts = metrics.alerts().into_iter().map(|(_, m)| m).collect();
    let digest = sim_digest(chain.store.with(|s| s.entries()));
    (ids, metrics.sink_duplicates, alerts, digest)
}

/// Run the real-thread engine with the same scale cut, returning the same
/// observables.
fn run_rt(
    trace: &Trace,
    first_counter: u64,
    batch: usize,
) -> (Vec<PacketId>, u64, Vec<String>, BTreeMap<String, String>) {
    let rt_cfg = RuntimeConfig::with_batch_size(batch).with_scale(NAT_VERTEX, first_counter);
    let report =
        run_chain_realtime(&firewall_nat(), ChainConfig::default(), &rt_cfg, trace).unwrap();
    // The online sentinel checked the run (scale-cut aware) and found
    // nothing: frontier monotone, flows in order, copies conserved.
    let inv = report.invariants.as_ref().expect("sentinel on by default");
    assert!(inv.ok(), "sentinel violations: {:?}", inv.violations);
    let mut ids = report.delivered_ids.clone();
    ids.sort_unstable();
    let alerts = report.alerts().into_iter().map(|(_, m)| m).collect();
    let digest = report.shared_digest();
    (ids, report.duplicates, alerts, digest)
}

#[test]
fn runtime_matches_simulator_across_scale_out_and_seeds() {
    for seed in [11u64, 23, 47] {
        let trace = trace_for(seed);
        let cut = (trace.len() / 2) as u64;

        let (sim_ids, sim_dups, sim_alerts, sim_state) = run_sim(&trace, seed, cut);
        let (rt_ids, rt_dups, rt_alerts, rt_state) = run_rt(&trace, cut, 16);

        assert_eq!(sim_dups, 0, "seed {seed}: simulator sink saw duplicates");
        assert_eq!(rt_dups, 0, "seed {seed}: runtime sink saw duplicates");
        assert!(
            !sim_ids.is_empty(),
            "seed {seed}: simulator delivered nothing"
        );
        assert_eq!(sim_ids, rt_ids, "seed {seed}: delivered packet sets differ");
        assert_eq!(sim_alerts, rt_alerts, "seed {seed}: alert multisets differ");
        assert_eq!(
            sim_state, rt_state,
            "seed {seed}: final shared state differs"
        );

        // The runtime itself is deterministic run-to-run, and the batch size
        // is an implementation detail that must not leak into the output.
        let (rt_ids2, _, _, rt_state2) = run_rt(&trace, cut, 4);
        assert_eq!(
            rt_ids, rt_ids2,
            "seed {seed}: runtime output varies across runs"
        );
        assert_eq!(
            rt_state, rt_state2,
            "seed {seed}: runtime state varies across runs"
        );
    }
}

/// Run the simulator with a fail-stop kill of one firewall (entry) instance
/// at the trigger packet's arrival time, followed by failover + replay.
fn run_sim_with_kill(
    trace: &Trace,
    seed: u64,
    kill: &InstanceKill,
) -> (Vec<PacketId>, u64, Vec<String>, BTreeMap<String, String>) {
    let mut chain = ChainController::new(firewall_nat(), ChainConfig::default(), seed).unwrap();
    chain.inject_trace(trace);
    // The runtime triggers on the logical clock; the simulator reaches the
    // same point by running to the trigger packet's arrival (packet n is
    // stamped counter n). The exact crash instant need not line up — replay
    // converges both substrates to the failure-free observables.
    let at = trace.packets[(kill.at_counter - 1) as usize].arrival_ns;
    chain.run_until(VirtualTime::from_nanos(at));
    chain.fail_instance(kill.vertex, kill.index);
    chain.failover_instance(kill.vertex, kill.index);
    chain.run();
    let metrics = chain.metrics();
    let mut ids = chain.delivered_ids();
    ids.sort_unstable();
    let alerts = metrics.alerts().into_iter().map(|(_, m)| m).collect();
    let digest = sim_digest(chain.store.with(|s| s.entries()));
    (ids, metrics.sink_duplicates, alerts, digest)
}

/// Run the real-thread engine with the same seeded kill as a `FaultPlan`.
fn run_rt_with_kill(
    trace: &Trace,
    kill: &InstanceKill,
    batch: usize,
) -> (Vec<PacketId>, u64, Vec<String>, BTreeMap<String, String>) {
    let rt_cfg = RuntimeConfig::with_batch_size(batch).with_fault(FaultPlan::new().kill(
        kill.vertex,
        kill.index,
        kill.at_counter,
    ));
    let report =
        run_chain_realtime(&firewall_nat(), ChainConfig::default(), &rt_cfg, trace).unwrap();
    // The engine really executed the failover, with replay — and the
    // sentinel watched the whole recovery without flagging anything.
    let inv = report.invariants.as_ref().expect("sentinel on by default");
    assert!(inv.ok(), "sentinel violations: {:?}", inv.violations);
    let fault = report.fault.as_ref().expect("fault report present");
    assert_eq!(fault.recoveries.len(), 1, "failover did not run");
    assert!(fault.recoveries[0].packets_replayed > 0, "nothing replayed");
    assert_eq!(report.failed_instances.len(), 1);
    let mut ids = report.delivered_ids.clone();
    ids.sort_unstable();
    let alerts = report.alerts().into_iter().map(|(_, m)| m).collect();
    let digest = report.shared_digest();
    (ids, report.duplicates, alerts, digest)
}

#[test]
fn runtime_matches_simulator_across_instance_failure_and_recovery() {
    for seed in [7u64, 19, 37] {
        let trace = trace_for(seed);
        // Same seeded fault scenario on both substrates: one firewall
        // (entry) instance killed in the middle third of the trace.
        let kill = FaultGen::new(seed).entry_kill(FW_VERTEX, 1, trace.len());

        let (sim_ids, sim_dups, sim_alerts, sim_state) = run_sim_with_kill(&trace, seed, &kill);
        let (rt_ids, rt_dups, rt_alerts, rt_state) = run_rt_with_kill(&trace, &kill, 16);

        // R6 at the end host: recovery must not manufacture duplicates.
        assert_eq!(sim_dups, 0, "seed {seed}: simulator sink saw duplicates");
        assert_eq!(rt_dups, 0, "seed {seed}: runtime sink saw duplicates");
        // R1 across substrates: identical delivered sets, alert multisets
        // and shared-state digests despite the crash.
        assert!(
            !sim_ids.is_empty(),
            "seed {seed}: simulator delivered nothing"
        );
        assert_eq!(sim_ids, rt_ids, "seed {seed}: delivered packet sets differ");
        assert_eq!(sim_alerts, rt_alerts, "seed {seed}: alert multisets differ");
        assert_eq!(
            sim_state, rt_state,
            "seed {seed}: final shared state differs"
        );

        // And the failure was absorbed entirely: both substrates converge to
        // the observables of a failure-free run of the same trace.
        let (healthy_ids, _, _, healthy_state) = {
            let report = run_chain_realtime(
                &firewall_nat(),
                ChainConfig::default(),
                &RuntimeConfig::with_batch_size(16),
                &trace,
            )
            .unwrap();
            let mut ids = report.delivered_ids.clone();
            ids.sort_unstable();
            (ids, 0u64, (), report.shared_digest())
        };
        assert_eq!(healthy_ids, rt_ids, "seed {seed}: failover lost packets");
        assert_eq!(
            healthy_state, rt_state,
            "seed {seed}: failover perturbed shared state"
        );
    }
}

/// The failure matrix: a seeded kill at **every chain position** — entry,
/// mid-chain, tail, and the root stamping thread itself — must converge the
/// real-thread engine to the simulator's observables for the same trace,
/// with zero sentinel violations.
///
/// The simulator absorbs any single instance failure into the failure-free
/// observables (that is its R1 property, asserted by its own tier-1 tests),
/// so a healthy simulator run is the yardstick for every position; the
/// entry column is additionally checked against a simulator run that
/// executes the same seeded kill (see
/// `runtime_matches_simulator_across_instance_failure_and_recovery`).
#[test]
fn runtime_failure_matrix_matches_simulator_at_every_position() {
    const MID_VERTEX: VertexId = VertexId(2);
    const TAIL_VERTEX: VertexId = VertexId(3);
    // Three on-path vertices so entry, mid and tail are distinct positions:
    // a firewall in front of a double NAT (enterprise NAT behind a
    // carrier-grade one). Every NF here keeps order-insensitive shared
    // state (counters and port *pools*, compared as multisets), so the
    // digest is comparable across substrates — a load balancer's
    // arrival-order-dependent byte counters would not be.
    let matrix_chain = || {
        LogicalDag::linear(vec![
            VertexSpec::new(
                1,
                "firewall",
                Rc::new(|| Box::new(Firewall::with_default_policy())),
            ),
            VertexSpec::new(2, "nat", Rc::new(|| Box::new(Nat::default()))),
            VertexSpec::new(3, "cgnat", Rc::new(|| Box::new(Nat::default()))),
        ])
    };

    for seed in [7u64, 19, 37] {
        let trace = trace_for(seed);
        let len = trace.len();

        // Simulator yardstick: one healthy run of the same trace.
        let mut chain = ChainController::new(matrix_chain(), ChainConfig::default(), seed).unwrap();
        chain.inject_trace(&trace);
        chain.run();
        let metrics = chain.metrics();
        assert_eq!(metrics.sink_duplicates, 0);
        let mut sim_ids = chain.delivered_ids();
        sim_ids.sort_unstable();
        let sim_state = sim_digest(chain.store.with(|s| s.entries()));

        let mut gen = FaultGen::new(seed);
        let plans = [
            ("entry", gen.kill_plan(FW_VERTEX, 1, len)),
            ("mid", gen.kill_plan(MID_VERTEX, 1, len)),
            ("tail", gen.kill_plan(TAIL_VERTEX, 1, len)),
            ("root", gen.root_kill_plan(len)),
        ];
        for (position, plan) in plans {
            let rt_cfg = RuntimeConfig::with_batch_size(16).with_fault(plan.clone());
            let report =
                run_chain_realtime(&matrix_chain(), ChainConfig::default(), &rt_cfg, &trace)
                    .unwrap();
            let inv = report.invariants.as_ref().expect("sentinel on by default");
            assert!(
                inv.ok(),
                "seed {seed} {position}: sentinel violations: {:?}",
                inv.violations
            );
            assert_eq!(
                report.duplicates, 0,
                "seed {seed} {position}: runtime sink saw duplicates"
            );
            let fault = report.fault.as_ref().expect("fault report present");
            assert!(
                fault.aborts.is_empty(),
                "seed {seed} {position}: failover aborted: {:?}",
                fault.aborts
            );
            if position == "root" {
                let takeover = fault.root_takeover.expect("takeover record");
                assert_eq!(takeover.killed_at, plan.root_kill.unwrap());
            } else {
                assert_eq!(
                    fault.recoveries.len(),
                    1,
                    "seed {seed} {position}: failover did not run"
                );
                assert!(fault.recoveries[0].packets_replayed > 0);
            }
            let mut ids = report.delivered_ids.clone();
            ids.sort_unstable();
            assert_eq!(
                sim_ids, ids,
                "seed {seed} {position}: delivered packet sets differ"
            );
            assert_eq!(
                sim_state,
                report.shared_digest(),
                "seed {seed} {position}: final shared state differs"
            );
        }
    }
}

/// The write-behind store fast path is an amortization, not a semantic
/// change: with the buffer on or off, the engine must deliver the same
/// packet set, raise the same alerts and leave the same shared-state digest
/// — across seeds, with the sentinel watching every run. (The buffer's cap
/// is the ring batch; drains at other caps are checked where the buffer
/// lives, in `chc-core`'s `client_tables_model` and `state` tests.)
#[test]
fn write_behind_preserves_chain_output_equivalence() {
    let run = |trace: &Trace, write_behind: bool| {
        let cfg = RuntimeConfig::with_batch_size(16).with_write_behind(write_behind);
        let report =
            run_chain_realtime(&firewall_nat(), ChainConfig::default(), &cfg, trace).unwrap();
        let inv = report.invariants.as_ref().expect("sentinel on by default");
        assert!(inv.ok(), "sentinel violations: {:?}", inv.violations);
        assert_eq!(report.duplicates, 0);
        let mut ids = report.delivered_ids.clone();
        ids.sort_unstable();
        let alerts: Vec<String> = report.alerts().into_iter().map(|(_, m)| m).collect();
        (ids, alerts, report.shared_digest())
    };

    for seed in [13u64, 29, 53] {
        let trace = trace_for(seed);
        let off = run(&trace, false);
        assert!(!off.0.is_empty(), "seed {seed}: delivered nothing");
        let on = run(&trace, true);
        assert_eq!(off.0, on.0, "seed {seed}: delivered sets differ");
        assert_eq!(off.1, on.1, "seed {seed}: alert multisets differ");
        assert_eq!(off.2, on.2, "seed {seed}: shared digests differ");
    }
}

#[test]
fn runtime_without_scaling_matches_the_ideal_chain() {
    let trace = trace_for(31);
    let report = run_chain_realtime(
        &firewall_nat(),
        ChainConfig::default(),
        &RuntimeConfig::with_batch_size(32),
        &trace,
    )
    .unwrap();
    assert_eq!(report.duplicates, 0);
    let inv = report.invariants.as_ref().expect("sentinel on by default");
    assert!(inv.ok(), "sentinel violations: {:?}", inv.violations);

    // The paper's correctness criterion: the physical chain's observable
    // behaviour equals the ideal single-instance, infinite-capacity chain's.
    let ideal = run_ideal_chain(&firewall_nat(), &trace);
    let alerts = report.alerts();
    let violations = coe_violations(
        &ideal,
        &report.delivered_ids,
        report.duplicates,
        &alerts,
        false,
    );
    assert!(violations.is_empty(), "COE violations: {violations:?}");
}
