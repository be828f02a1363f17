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
use chc_core::{ChainConfig, ChainController, LogicalDag, Splitter, VertexSpec};
use chc_nf::loadbalancer::SERVER_CONNS;
use chc_nf::{Firewall, LoadBalancer, Nat};
use chc_packet::{
    Direction, FiveTuple, Packet, PacketId, TcpFlags, Trace, TraceConfig, TraceGenerator,
};
use chc_runtime::{
    run_chain_realtime, shared_state_digest, FaultPlan, InstanceKill, RuntimeConfig,
};
use chc_sim::VirtualTime;
use chc_store::{BackendKind, InstanceId, StateKey, Value, VertexId};
use std::collections::BTreeMap;
use std::net::Ipv4Addr;
use std::rc::Rc;

const FW_VERTEX: VertexId = VertexId(1);
const NAT_VERTEX: VertexId = VertexId(2);
const LB_VERTEX: VertexId = VertexId(3);

/// Ring batch and depth of the two-instance load-balancer run, and the shape
/// of a phase of its trace: `LB_PHASE_ROUNDS` data packets per connection
/// make at least `LB_RING_DEPTH + 2 * LB_BATCH` packets after the last SYN.
const LB_BATCH: usize = 8;
const LB_RING_DEPTH: usize = 32;
const LB_PHASE_CONNECTIONS: usize = 8;
const LB_PHASE_ROUNDS: usize = (LB_RING_DEPTH + 2 * LB_BATCH) / LB_PHASE_CONNECTIONS;

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

/// Three on-path vertices so entry, mid and tail are distinct positions: a
/// firewall in front of a double NAT (enterprise NAT behind a carrier-grade
/// one). Every NF here keeps order-insensitive shared state (counters and
/// port *pools*, compared as multisets), so the digest is comparable across
/// substrates — a load balancer's arrival-order-dependent byte counters
/// would not be.
fn firewall_nat_cgnat() -> LogicalDag {
    LogicalDag::linear(vec![
        VertexSpec::new(
            1,
            "firewall",
            Rc::new(|| Box::new(Firewall::with_default_policy())),
        ),
        VertexSpec::new(2, "nat", Rc::new(|| Box::new(Nat::default()))),
        VertexSpec::new(3, "cgnat", Rc::new(|| Box::new(Nat::default()))),
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
    let digest = sim_digest(chain.store.dump());
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
    let digest = sim_digest(chain.store.dump());
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
        let kill = FaultGen::new(seed).kill_at(FW_VERTEX, 1, trace.len());

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
/// mid-chain, tail, and the root itself — must converge the real-thread
/// engine to the simulator's observables, with zero sentinel violations.
///
/// A healthy simulator run of the same trace is the yardstick for every
/// instance position, and the simulator runs the same seeded kill too: its
/// failover instance replays its own snapshot of the packet logs (the
/// root's at the entry, its upstream's egress log mid-chain and at the
/// tail), and must end with the healthy run's delivered ids and digest and
/// no duplicates. Each seed also kills two different vertices, nine
/// counters apart, on both substrates: the engine must be exact, the
/// simulator must lose nothing. A tail replacement re-emits what it
/// replays, so the sink sees replay shadows there; they are reported, not
/// bounded. A root crash loses, by §5.4, the packets in the dead root's
/// unflushed output batch, so the root column's yardstick is a healthy
/// simulator run of the trace without them.
#[test]
fn runtime_failure_matrix_matches_simulator_at_every_position() {
    const MID_VERTEX: VertexId = VertexId(2);
    const TAIL_VERTEX: VertexId = VertexId(3);

    // Root crashes that lost at least one packet.
    let mut lossy_root_kills = 0;
    for seed in [7u64, 19, 37] {
        let trace = trace_for(seed);
        let len = trace.len();

        // Simulator yardstick: one healthy run of the same trace.
        let mut chain =
            ChainController::new(firewall_nat_cgnat(), ChainConfig::default(), seed).unwrap();
        chain.inject_trace(&trace);
        chain.run();
        let metrics = chain.metrics();
        assert_eq!(metrics.sink_duplicates, 0);
        assert_eq!(metrics.sink_replay_shadows, 0);
        let mut sim_ids = chain.delivered_ids();
        sim_ids.sort_unstable();
        let sim_state = sim_digest(chain.store.dump());

        let mut gen = FaultGen::new(seed);
        let plans = [
            ("entry", gen.kill_plan(FW_VERTEX, 1, len)),
            ("mid", gen.kill_plan(MID_VERTEX, 1, len)),
            ("tail", gen.kill_plan(TAIL_VERTEX, 1, len)),
            ("root", gen.root_kill_plan(len)),
            ("two", {
                let (first, second) = match seed {
                    7 => (FW_VERTEX, MID_VERTEX),
                    19 => (MID_VERTEX, TAIL_VERTEX),
                    _ => (FW_VERTEX, TAIL_VERTEX),
                };
                let at = (len / 2) as u64;
                FaultPlan::new().kill(first, 0, at).kill(second, 0, at + 9)
            }),
        ];
        // Every seed runs on the default medium (`CHC_STORE_BACKEND`, memory
        // unless set); the first one names both, so a plain `cargo test`
        // reaches the failover path on files too.
        let backends = match seed {
            7 => vec![BackendKind::Memory, BackendKind::AppendOnly],
            _ => vec![RuntimeConfig::default().store_backend],
        };
        let positions = plans
            .iter()
            .flat_map(|p| backends.iter().map(move |b| (p, *b)));
        for ((position, plan), backend) in positions {
            let position = format!("{position} on {backend:?}");
            let rt_cfg = RuntimeConfig::with_batch_size(16)
                .with_store_backend(backend)
                .with_fault(plan.clone());
            let report = run_chain_realtime(
                &firewall_nat_cgnat(),
                ChainConfig::default(),
                &rt_cfg,
                &trace,
            )
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
            assert_eq!(
                report.buffered_refused(),
                0,
                "seed {seed} {position}: the store refused a buffered op"
            );
            let fault = report.fault.as_ref().expect("fault report present");
            assert!(
                fault.aborts.is_empty(),
                "seed {seed} {position}: failover aborted: {:?}",
                fault.aborts
            );
            // The yardstick: the healthy simulator run, or for a root crash
            // the healthy simulator run without the packets it lost.
            let (sim_ids, sim_state) = if let Some(killed_at) = plan.root_kill {
                let takeover = fault.root_takeover.as_ref().expect("takeover record");
                assert_eq!(takeover.killed_at, killed_at);
                assert_eq!(
                    takeover.resumed_at,
                    100 * ((killed_at - 1) / 100) + 101,
                    "seed {seed} {position}: resumed off the persisted clock"
                );
                // One root ring (a single firewall) at batch 16.
                assert!(
                    takeover.lost.len() < 16,
                    "seed {seed} {position}: lost {:?}",
                    takeover.lost
                );
                assert_eq!(report.injected, len as u64, "seed {seed} {position}");
                lossy_root_kills += usize::from(!takeover.lost.is_empty());
                let mut survivors = trace.clone();
                survivors.packets.retain(|p| !takeover.lost.contains(&p.id));
                let mut chain =
                    ChainController::new(firewall_nat_cgnat(), ChainConfig::default(), seed)
                        .unwrap();
                chain.inject_trace(&survivors);
                chain.run();
                assert_eq!(chain.metrics().sink_duplicates, 0);
                let mut ids = chain.delivered_ids();
                ids.sort_unstable();
                (ids, sim_digest(chain.store.dump()))
            } else {
                assert_eq!(
                    fault.recoveries.len(),
                    plan.kills.len(),
                    "seed {seed} {position}: a failover did not run"
                );
                assert!(fault.recoveries[0].packets_replayed > 0);
                (sim_ids.clone(), sim_state.clone())
            };
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
            // The simulator with the same seeded instance kills, each as
            // `run_sim_with_kill` runs one.
            if plan.kills.is_empty() {
                continue;
            }
            let mut chain =
                ChainController::new(firewall_nat_cgnat(), ChainConfig::default(), seed).unwrap();
            chain.inject_trace(&trace);
            for kill in &plan.kills {
                let at = trace.packets[(kill.at_counter - 1) as usize].arrival_ns;
                chain.run_until(VirtualTime::from_nanos(at));
                chain.fail_instance(kill.vertex, kill.index);
                chain.failover_instance(kill.vertex, kill.index);
            }
            chain.run();
            let metrics = chain.metrics();
            if plan.kills.len() > 1 {
                // The simulator loses nothing to two kills, but is exact on
                // fewer plans than the engine. Its root unlogs a confirmed
                // clock from every row and drops its store dedup record
                // when the clock's delete request lands, while a replay's
                // copy of it can still reach a second, fresh replacement:
                // that replacement
                // applies the copy's updates again and, at the tail, sends
                // it to the end host again (ROADMAP item 27).
                let mut kill_ids = chain.delivered_ids();
                kill_ids.sort_unstable();
                kill_ids.dedup();
                assert_eq!(
                    kill_ids, sim_ids,
                    "seed {seed} {position}: simulator lost ids"
                );
                let exact = sim_digest(chain.store.dump()) == sim_state;
                let duplicates = metrics.sink_duplicates;
                println!("seed {seed} {position}: simulator duplicates {duplicates}, state exact {exact}");
                continue;
            }
            assert_eq!(
                metrics.sink_duplicates, 0,
                "seed {seed} {position}: simulator sink saw duplicates"
            );
            assert_eq!(
                metrics.root.deleted + metrics.root.dropped,
                metrics.root.packets_in,
                "seed {seed} {position}: the simulator's root kept packets logged"
            );
            if plan.kills.iter().any(|kill| kill.vertex == TAIL_VERTEX) {
                let shadows = metrics.sink_replay_shadows;
                println!("seed {seed} {position}: simulator replay shadows {shadows}");
            }
            let mut kill_ids = chain.delivered_ids();
            kill_ids.sort_unstable();
            let kill_state = sim_digest(chain.store.dump());
            assert_eq!(
                kill_ids, sim_ids,
                "seed {seed} {position}: simulator kill changed the delivered ids"
            );
            assert_eq!(
                kill_ids, ids,
                "seed {seed} {position}: simulator kill and engine delivered differ"
            );
            assert_eq!(
                kill_state, sim_state,
                "seed {seed} {position}: simulator kill changed the shared state"
            );
            assert_eq!(
                kill_state,
                report.shared_digest(),
                "seed {seed} {position}: simulator kill and engine state differ"
            );
        }
    }
    assert!(lossy_root_kills > 0, "no root crash lost a packet");
}

/// A mid-chain kill leaks nothing on the simulator: once the run drains,
/// the root has unlogged every packet it took (each is confirmed by the
/// exit or by the vertex that dropped it), and the store's duplicate
/// suppression holds no update — though the NAT's replacement replays
/// clocks whose updates the store already applied.
#[test]
fn a_mid_chain_kill_leaves_no_packet_logged_on_the_simulator() {
    for seed in [7u64, 19, 37] {
        let trace = trace_for(seed);
        let mut chain =
            ChainController::new(firewall_nat_cgnat(), ChainConfig::default(), seed).unwrap();
        chain.inject_trace(&trace);
        let at = trace.packets[trace.len() / 2].arrival_ns;
        chain.run_until(VirtualTime::from_nanos(at));
        chain.fail_instance(NAT_VERTEX, 0);
        chain.failover_instance(NAT_VERTEX, 0);
        chain.run();
        let root = chain.metrics().root;
        assert_eq!(
            root.deleted + root.dropped,
            root.packets_in,
            "seed {seed}: the root kept packets logged"
        );
        assert_eq!(chain.store.update_log_len(), 0, "seed {seed}");
    }
}

/// The write-behind store fast path is an amortization, not a semantic
/// change: with the buffer on or off, the engine must deliver the same
/// packet set, raise the same alerts and leave the same shared-state digest
/// — across seeds, with the sentinel watching every run. (The buffer's cap
/// is the ring batch; drains at other caps are checked where the buffer
/// lives, in `chc-core`'s `client_tables_model` and `state` tests.) With no
/// fault plan the buffer also folds each counter's increments, so the second
/// input runs two load-balancer instances that fold the same shared byte
/// counters, on the phased trace where two instances have one right answer.
#[test]
fn write_behind_preserves_chain_output_equivalence() {
    let run = |(dag, cfg): &(LogicalDag, RuntimeConfig), trace: &Trace, write_behind: bool| {
        let cfg = cfg.clone().with_write_behind(write_behind);
        let report = run_chain_realtime(dag, ChainConfig::default(), &cfg, trace).unwrap();
        let inv = report.invariants.as_ref().expect("sentinel on by default");
        assert!(inv.ok(), "sentinel violations: {:?}", inv.violations);
        assert_eq!(report.duplicates, 0);
        assert_eq!(report.buffered_refused(), 0);
        let mut ids = report.delivered_ids.clone();
        ids.sort_unstable();
        let alerts: Vec<String> = report.alerts().into_iter().map(|(_, m)| m).collect();
        (ids, alerts, report.shared_digest())
    };

    let fw_nat = (firewall_nat(), RuntimeConfig::with_batch_size(16));
    let fw_nat_lb = (
        firewall_nat_lb(2),
        RuntimeConfig {
            queue_depth: LB_RING_DEPTH,
            ..RuntimeConfig::with_batch_size(LB_BATCH)
        },
    );
    for seed in [13u64, 29, 53] {
        for (chain, trace) in [
            (&fw_nat, trace_for(seed)),
            (&fw_nat_lb, phased_lb_trace(seed).0),
        ] {
            let off = run(chain, &trace, false);
            assert!(!off.0.is_empty(), "seed {seed}: delivered nothing");
            let on = run(chain, &trace, true);
            assert_eq!(off.0, on.0, "seed {seed}: delivered sets differ");
            assert_eq!(off.1, on.1, "seed {seed}: alert multisets differ");
            assert_eq!(off.2, on.2, "seed {seed}: shared digests differ");
        }
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

/// firewall → NAT → LB with `parallelism` load-balancer instances.
fn firewall_nat_lb(parallelism: usize) -> LogicalDag {
    let lb = VertexSpec::new(
        3,
        "lb",
        Rc::new(|| Box::new(LoadBalancer::with_default_backends())),
    );
    let mut vertices = firewall_nat().vertices().to_vec();
    vertices.push(lb.with_parallelism(parallelism));
    LogicalDag::linear(vertices)
}

/// A trace on which two load-balancer instances have one right answer.
///
/// Which backend a connection gets depends on the order connections open
/// in, and with two instances that order is the scheduler's; and the NF
/// updates its connection table by read-then-set, so two instances updating
/// it at once lose updates. Neither is what this test is about, so the
/// trace rules both out: connections only open (least-loaded selection
/// then fills the backends round-robin whatever the order), all carry the
/// same bytes, and they come in three phases aimed at instance 0, then 1,
/// then 0 again. After its last SYN a phase sends `LB_PHASE_ROUNDS` data
/// packets per connection — more than a ring plus the NAT's output buffer
/// plus one pop can hold, so the NAT cannot hand the next phase's first SYN
/// to the other instance before this one has finished its own: the rings
/// order the phases, no sleep does. Returns the trace and its connection
/// count.
fn phased_lb_trace(seed: u64) -> (Trace, usize) {
    let dag = firewall_nat_lb(2);
    let splitter = Splitter::for_vertex(dag.vertex(LB_VERTEX).unwrap());
    let mut packets: Vec<Packet> = Vec::new();
    let mut connections = 0usize;
    for (phase, instance) in [0usize, 1, 0].into_iter().enumerate() {
        let packet = |id: u64, conn: usize, flags: TcpFlags, server: Ipv4Addr| {
            let client = Ipv4Addr::new(10, seed as u8, phase as u8, conn as u8 + 1);
            // 100 µs apart: the simulator's instances are multi-worker, and
            // a data packet close behind its SYN overtakes it there.
            Packet::builder()
                .id(id)
                .tuple(FiveTuple::tcp(client, 40_000, server, 80))
                .direction(Direction::FromInitiator)
                .flags(flags)
                .len(100)
                .arrival_ns(id * 100_000)
                .build()
        };
        // The first server address the LB's own splitter sends to `instance`.
        let server = (1..=255u8)
            .map(|host| Ipv4Addr::new(54, 0, 0, host))
            .find(|&server| {
                let probe = packet(0, 0, TcpFlags::SYN, server);
                splitter.instance_for_key(&splitter.scope_key(&probe)) == instance
            })
            .expect("some address hashes to each instance");
        let opens = LB_PHASE_CONNECTIONS + (seed as usize + phase) % 4;
        let syns = (0..opens).map(|conn| (conn, TcpFlags::SYN));
        let data = (0..LB_PHASE_ROUNDS * opens).map(|i| (i % opens, TcpFlags::ACK));
        for (conn, flags) in syns.chain(data) {
            packets.push(packet(packets.len() as u64 + 1, conn, flags, server));
        }
        connections += opens;
    }
    let trace = Trace {
        packets,
        trojan_hosts: Vec::new(),
        scanner_hosts: Vec::new(),
    };
    (trace, connections)
}

/// Active connections per backend, in backend order.
fn server_conns(entries: &[(StateKey, Value, Option<InstanceId>)]) -> Vec<i64> {
    let table = entries
        .iter()
        .find(|(k, _, _)| k.vertex == LB_VERTEX && &*k.object.name == SERVER_CONNS)
        .map(|(_, v, _)| v.as_list().expect("the table is a list"))
        .expect("the load balancer installed its table");
    table.iter().map(Value::as_int).collect()
}

/// Two instances of a vertex share its cross-flow state through the store:
/// the load balancer's per-server connection table is write/read-often, a
/// copy of it is only good while one instance has the object to itself, and
/// with two instances planned neither does. An instance that kept deciding
/// on its own copy would count its own connections only and overwrite the
/// other's; here both must leave exactly the table — and the digest — the
/// simulator's single ideal instance leaves.
#[test]
fn two_load_balancer_instances_share_one_connection_table() {
    for seed in [5u64, 17, 43] {
        let (trace, connections) = phased_lb_trace(seed);

        let mut chain =
            ChainController::new(firewall_nat_lb(1), ChainConfig::default(), seed).unwrap();
        chain.inject_trace(&trace);
        chain.run();
        let mut sim_ids = chain.delivered_ids();
        sim_ids.sort_unstable();
        let sim_state = chain.store.dump();

        let rt_cfg = RuntimeConfig {
            queue_depth: LB_RING_DEPTH,
            ..RuntimeConfig::with_batch_size(LB_BATCH)
        };
        let report =
            run_chain_realtime(&firewall_nat_lb(2), ChainConfig::default(), &rt_cfg, &trace)
                .unwrap();
        let inv = report.invariants.as_ref().expect("sentinel on by default");
        assert!(inv.ok(), "sentinel violations: {:?}", inv.violations);
        assert_eq!(report.duplicates, 0, "seed {seed}");
        let lbs = report.instances.iter().filter(|i| i.vertex == LB_VERTEX);
        let processed: Vec<u64> = lbs.map(|i| i.processed).collect();
        assert!(
            processed.len() == 2 && processed.iter().all(|&n| n > 0),
            "seed {seed}: both instances must see traffic, saw {processed:?}"
        );
        let mut rt_ids = report.delivered_ids.clone();
        rt_ids.sort_unstable();
        assert_eq!(rt_ids.len(), trace.len(), "seed {seed}: nothing is dropped");
        assert_eq!(sim_ids, rt_ids, "seed {seed}: delivered packet sets differ");

        // Opens only: least-loaded selection fills the backends in turn.
        let backends = 4;
        let expected: Vec<i64> = (0..backends)
            .map(|b| (connections / backends + usize::from(b < connections % backends)) as i64)
            .collect();
        assert_eq!(server_conns(&sim_state), expected, "seed {seed}: simulator");
        assert_eq!(
            server_conns(&report.final_state),
            expected,
            "seed {seed}: an instance decided on a copy the other never saw"
        );
        assert_eq!(
            sim_digest(sim_state),
            report.shared_digest(),
            "seed {seed}: final shared state differs"
        );
    }
}

/// Two load-balancer instances, each with one clock-ordered input, fold the
/// same shared byte counters in fault mode, each under a mark of its own on
/// every counter: one writer's mark never covers the other's clocks. With
/// instance 1 killed in the phase aimed at it, its replacement inherits its
/// marks and replays; both must leave the simulator's single instance's
/// state.
#[test]
fn two_load_balancers_fold_one_byte_counter_under_separate_marks() {
    for seed in [5u64, 17, 43] {
        let (trace, _) = phased_lb_trace(seed);
        let mut chain =
            ChainController::new(firewall_nat_lb(1), ChainConfig::default(), seed).unwrap();
        chain.inject_trace(&trace);
        chain.run();
        let sim_state = sim_digest(chain.store.dump());

        let kill_at = (trace.len() / 2) as u64;
        let rt_cfg = RuntimeConfig {
            queue_depth: LB_RING_DEPTH,
            ..RuntimeConfig::with_batch_size(LB_BATCH)
        }
        .with_fault(FaultPlan::new().kill(LB_VERTEX, 1, kill_at));
        let report =
            run_chain_realtime(&firewall_nat_lb(2), ChainConfig::default(), &rt_cfg, &trace)
                .unwrap();
        let inv = report.invariants.as_ref().expect("sentinel on by default");
        assert!(inv.ok(), "sentinel violations: {:?}", inv.violations);
        assert_eq!(report.duplicates, 0, "seed {seed}");
        assert_eq!(report.buffered_refused(), 0, "seed {seed}");
        let fault = report.fault.as_ref().expect("fault report present");
        assert_eq!(
            fault.recoveries.len(),
            1,
            "seed {seed}: the kill never fired"
        );
        assert_eq!(
            sim_state,
            report.shared_digest(),
            "seed {seed}: final shared state differs"
        );
    }
}
