//! Integration tests: a full CHC chain (NAT → portscan detector → load
//! balancer, with the Trojan detector off-path) processing synthetic traces
//! on the simulator, checked for chain output equivalence against the ideal
//! single-instance chain.

use chc::prelude::*;
use chc_core::coe::{coe_violations, run_ideal_chain};
use chc_core::{ChainController, LogicalDag, VertexSpec};
use chc_packet::PacketId;
use chc_store::{Clock, VertexId};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::rc::Rc;

fn standard_chain() -> LogicalDag {
    let mut dag = LogicalDag::linear(vec![
        VertexSpec::new(1, "nat", Rc::new(|| Box::new(Nat::default()))),
        VertexSpec::new(
            2,
            "portscan",
            Rc::new(|| Box::new(PortscanDetector::default())),
        ),
        VertexSpec::new(
            3,
            "lb",
            Rc::new(|| Box::new(LoadBalancer::with_default_backends())),
        ),
    ]);
    let trojan = dag.add_vertex(
        VertexSpec::new(4, "trojan", Rc::new(|| Box::new(TrojanDetector::new()))).off_path(),
    );
    dag.add_edge(VertexId(1), trojan);
    dag
}

fn small_trace(seed: u64) -> Trace {
    TraceGenerator::new(TraceConfig::small(seed).with_trojans(2).with_scanners(0.1)).generate()
}

#[test]
fn chain_delivers_traffic_and_matches_ideal_chain() {
    let trace = small_trace(5);
    let ideal = run_ideal_chain(&standard_chain(), &trace);

    let mut chain = ChainController::new(standard_chain(), ChainConfig::default(), 1).unwrap();
    chain.inject_trace(&trace);
    chain.run();
    let metrics = chain.metrics();

    // Every instance processed traffic and the sink saw no duplicates.
    assert!(metrics.sink_delivered > 0);
    assert_eq!(metrics.sink_duplicates, 0);
    assert_eq!(metrics.sink_replay_shadows, 0);
    assert_eq!(metrics.root.dropped, 0);

    // COE: delivered set and alerts match the ideal chain.
    let violations = coe_violations(
        &ideal,
        &chain.delivered_ids(),
        metrics.sink_duplicates,
        &metrics.alerts(),
        false,
    );
    assert!(violations.is_empty(), "COE violations: {violations:?}");

    // The Trojan signatures injected into the trace were all detected.
    let trojan_alerts = metrics
        .alerts()
        .iter()
        .filter(|(_, m)| m.contains("trojan"))
        .count();
    assert_eq!(trojan_alerts, 2);

    // The root eventually unlogged every packet it accepted (the XOR commit
    // protocol converged).
    assert_eq!(metrics.root.deleted, metrics.root.packets_in);
}

#[test]
fn chain_works_under_every_externalization_mode() {
    let trace = small_trace(7);
    let ideal = run_ideal_chain(&standard_chain(), &trace);
    for mode in ExternalizationMode::all() {
        let cfg = ChainConfig::with_mode(mode);
        let mut chain = ChainController::new(standard_chain(), cfg, 2).unwrap();
        chain.inject_trace(&trace);
        chain.run();
        let metrics = chain.metrics();
        let violations = coe_violations(
            &ideal,
            &chain.delivered_ids(),
            metrics.sink_duplicates,
            &metrics.alerts(),
            false,
        );
        assert!(
            violations.is_empty(),
            "mode {:?}: {violations:?}",
            mode.label()
        );
        assert_eq!(metrics.sink_replay_shadows, 0);
    }
}

#[test]
fn nf_failover_preserves_output_equivalence() {
    let trace = small_trace(9);
    let ideal = run_ideal_chain(&standard_chain(), &trace);

    let mut chain = ChainController::new(standard_chain(), ChainConfig::default(), 3).unwrap();
    chain.inject_trace(&trace);
    // Run a third of the trace, crash the NAT, fail over, finish.
    let third = trace.packets[trace.len() / 3].arrival_ns;
    chain.run_until(VirtualTime::from_nanos(third));
    chain.fail_instance(VertexId(1), 0);
    chain.failover_instance(VertexId(1), 0);
    chain.run();

    let metrics = chain.metrics();
    // Failover must not create duplicates at the end host (R6), and alerts
    // must match the ideal chain. In-flight packets may be lost exactly as a
    // network drop would lose them.
    let violations = coe_violations(
        &ideal,
        &chain.delivered_ids(),
        metrics.sink_duplicates,
        &metrics.alerts(),
        true,
    );
    assert!(
        violations.is_empty(),
        "COE violations after failover: {violations:?}"
    );
    assert_eq!(metrics.sink_duplicates, 0);
    assert_eq!(metrics.sink_replay_shadows, 0);
}

#[test]
fn elastic_scale_up_moves_flows_without_loss_or_reorder() {
    let trace = small_trace(11);
    let ideal = run_ideal_chain(&standard_chain(), &trace);

    let mut chain = ChainController::new(standard_chain(), ChainConfig::default(), 4).unwrap();
    chain.inject_trace(&trace);
    let midpoint = trace.packets[trace.len() / 2].arrival_ns;
    chain.run_until(VirtualTime::from_nanos(midpoint));

    // Scale the NAT up and move a slice of flows onto the new instance.
    let (_, new_index) = chain.scale_up(VertexId(1));
    let keys: Vec<_> = {
        let splitter_scope = chc_packet::Scope::FiveTuple;
        trace
            .packets
            .iter()
            .map(|p| splitter_scope.key_of(p))
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .take(40)
            .collect()
    };
    chain.move_flows(VertexId(1), &keys, new_index);
    chain.run();

    let metrics = chain.metrics();
    // The new instance took over some traffic.
    let new_instance_report = &metrics.vertex(VertexId(1))[new_index];
    assert!(
        new_instance_report.counters.processed > 0,
        "new instance processed nothing"
    );
    // And chain output equivalence still holds, with no duplicates or drops.
    let violations = coe_violations(
        &ideal,
        &chain.delivered_ids(),
        metrics.sink_duplicates,
        &metrics.alerts(),
        false,
    );
    assert!(
        violations.is_empty(),
        "COE violations after scale-up: {violations:?}"
    );
    assert_eq!(metrics.sink_replay_shadows, 0);
}

#[test]
fn straggler_clone_suppresses_duplicates() {
    let trace = small_trace(13);
    let mut chain = ChainController::new(standard_chain(), ChainConfig::default(), 5).unwrap();
    chain.inject_trace(&trace);
    let early = trace.packets[trace.len() / 4].arrival_ns;
    chain.run_until(VirtualTime::from_nanos(early));

    // The NAT becomes a straggler; CHC deploys a clone fed by replicated
    // traffic and replays logged packets to it.
    chain.set_straggler(VertexId(1), 0, SimDuration::from_micros(8));
    chain.clone_for_straggler(VertexId(1), 0);
    chain.run();

    let metrics = chain.metrics();
    // Replication + replay would naively double packets at the downstream
    // portscan detector and at the sink; CHC suppresses all of it.
    assert_eq!(metrics.sink_duplicates, 0);
    assert_eq!(metrics.sink_replay_shadows, 0);
    let portscan = &metrics.vertex(VertexId(2))[0];
    assert_eq!(
        portscan.counters.duplicate_packets, 0,
        "duplicates processed downstream"
    );
    assert!(
        portscan.counters.suppressed_duplicates > 0,
        "expected suppressed duplicates downstream"
    );
}

#[test]
fn every_unsuppressed_straggler_repeat_reaches_the_end_host_books() {
    // Table 5's suppression-off run, small: NAT → portscan, the NAT cloned as
    // a straggler a quarter of the way in.
    let dag = LogicalDag::linear(vec![
        VertexSpec::new(1, "nat", Rc::new(|| Box::new(Nat::default()))),
        VertexSpec::new(
            2,
            "portscan",
            Rc::new(|| Box::new(PortscanDetector::default())),
        ),
    ]);
    let trace = TraceGenerator::new(
        TraceConfig {
            seed: 5,
            connections: 40,
            ..TraceConfig::trace2_like(0.001)
        }
        .with_load_fraction(0.3),
    )
    .generate();
    let cfg = ChainConfig {
        duplicate_suppression: false,
        ..Default::default()
    };
    let mut chain = ChainController::new(dag, cfg, 55).unwrap();
    chain.inject_trace(&trace);
    let quarter = trace.packets[trace.len() / 4].arrival_ns;
    chain.run_until(VirtualTime::from_nanos(quarter));
    chain.set_straggler(VertexId(1), 0, SimDuration::from_micros(6));
    chain.clone_for_straggler(VertexId(1), 0);
    chain.run();

    let metrics = chain.metrics();
    let portscan = &metrics.vertex(VertexId(2))[0];
    // A replayed copy that lands after its original is a replay shadow; an
    // original that lands after its replayed copy is a duplicate. Together
    // they are every copy the exit processed twice.
    assert!(
        metrics.sink_replay_shadows > 0,
        "no replayed copy came late"
    );
    assert_eq!(
        metrics.sink_duplicates + metrics.sink_replay_shadows,
        portscan.counters.duplicate_packets
    );
}

/// A failover before the first packet arrives has nothing to replay: the
/// replacement opens its gate at once and serves every packet.
#[test]
fn a_failover_with_nothing_to_replay_serves_at_once() {
    let trace = small_trace(7);
    let run = |fail: bool| {
        let mut chain = ChainController::new(standard_chain(), ChainConfig::default(), 7).unwrap();
        chain.inject_trace(&trace);
        if fail {
            chain.fail_instance(VertexId(1), 0);
            chain.failover_instance(VertexId(1), 0);
        }
        chain.run();
        let mut ids = chain.delivered_ids();
        ids.sort_unstable();
        ids
    };
    let healthy = run(false);
    assert!(!healthy.is_empty());
    assert_eq!(run(true), healthy, "the replacement served nothing");
}

/// The NAT, alerting with the id of every packet it processes, so a test
/// can tell which packets an instance saw.
struct TappedNat(Nat);

impl NetworkFunction for TappedNat {
    fn name(&self) -> &str {
        "nat"
    }

    fn state_objects(&self) -> Vec<StateObjectSpec> {
        self.0.state_objects()
    }

    fn process(&mut self, packet: &Packet, ctx: &mut NfContext<'_>) -> Action {
        ctx.alert(packet.id.0.to_string());
        self.0.process(packet, ctx)
    }
}

/// A straggler's clone mirrors the straggler: it takes no partition of its
/// own, so it processes only packets routed to the straggler's index, and
/// the other replica never sees a replayed copy.
#[test]
fn a_straggler_clone_takes_no_partition_of_its_own() {
    let nat = VertexSpec::new(1, "nat", Rc::new(|| Box::new(TappedNat(Nat::default()))));
    let nat = nat.with_parallelism(2);
    // A carrier-grade NAT behind it: it forwards every packet whatever the
    // order, so a straggler's late copies cannot change what is delivered.
    let cgnat = VertexSpec::new(2, "cgnat", Rc::new(|| Box::new(Nat::default())));
    let dag = || LogicalDag::linear(vec![nat.clone(), cgnat.clone()]);
    let trace = small_trace(6);
    let run = |clone: bool| {
        let mut chain = ChainController::new(dag(), ChainConfig::default(), 6).unwrap();
        chain.inject_trace(&trace);
        if clone {
            let quarter = trace.packets[trace.len() / 4].arrival_ns;
            chain.run_until(VirtualTime::from_nanos(quarter));
            chain.set_straggler(VertexId(1), 0, SimDuration::from_micros(8));
            chain.clone_for_straggler(VertexId(1), 0);
        }
        chain.run();
        let mut ids = chain.delivered_ids();
        ids.sort_unstable();
        (ids, chain.metrics())
    };
    let (healthy, _) = run(false);
    let (ids, metrics) = run(true);
    // Instance ids in deployment order: the two replicas, then the clone.
    let nats = metrics.vertex(VertexId(1));
    let (other, clone) = (nats[1], nats[2]);
    let splitter = chc_core::Splitter::for_vertex(&nat);
    let packets: HashMap<PacketId, &Packet> = trace.iter().map(|p| (p.id, p)).collect();
    assert!(clone.counters.processed > 0, "the clone processed nothing");
    for (clock, id) in &clone.counters.alerts {
        let packet = packets[&PacketId(id.parse().unwrap())];
        assert_eq!(splitter.instance_for(packet, *clock), 0, "clock {clock:?}");
    }
    assert_eq!(other.counters.suppressed_duplicates, 0);
    assert_eq!(ids, healthy, "the clone lost packets");
}

#[test]
fn store_failover_recovers_shared_state() {
    let trace = small_trace(17);
    let mut chain = ChainController::new(standard_chain(), ChainConfig::default(), 6).unwrap();
    chain.inject_trace(&trace);
    let mid = trace.packets[trace.len() / 2].arrival_ns;
    chain.run_until(VirtualTime::from_nanos(mid));
    chain.checkpoint_store();
    // Keep processing past the checkpoint, then crash and recover the store.
    let later = trace.packets[trace.len() * 3 / 4].arrival_ns;
    chain.run_until(VirtualTime::from_nanos(later));
    let counter_key = chc_store::StateKey::shared(
        VertexId(1),
        chc_store::ObjectKey::named(chc_nf::nat::PKT_COUNT),
    );
    let before = chain.store.peek(&counter_key);
    let report = chain.recover_store();
    let after = chain.store.peek(&counter_key);
    assert_eq!(before, after, "shared counter must survive store failover");
    assert!(
        report.replayed_ops > 0,
        "recovery replayed write-ahead log entries"
    );
    // The chain keeps running correctly afterwards.
    chain.run();
    let metrics = chain.metrics();
    assert_eq!(metrics.sink_duplicates, 0);
    assert_eq!(metrics.sink_replay_shadows, 0);
}

/// Every client's (WAL length, read-log length, store ops issued), one
/// instance per vertex.
fn recovery_logs(chain: &mut ChainController) -> Vec<(usize, usize, u64)> {
    (1..=4)
        .filter_map(|v| {
            chain.with_instance(VertexId(v), 0, |a| {
                let stats = a.client.stats();
                let ops = stats.blocking_ops + stats.non_blocking_ops;
                (a.client.wal().len(), a.client.read_log().len(), ops)
            })
        })
        .collect()
}

/// The store's shared objects by key, an absent object and a `None` one
/// alike.
fn shared_state(chain: &ChainController) -> BTreeMap<String, Value> {
    chain
        .store
        .dump()
        .into_iter()
        .filter(|(key, value, _)| key.instance.is_none() && *value != Value::None)
        .map(|(key, value, _)| (key.to_string(), value))
        .collect()
}

/// A store checkpoint cuts every client's recovery logs at the image: from
/// one checkpoint to the next a WAL holds at most the store ops its
/// instance issued in between. The store recovered from the cut logs holds
/// every shared object as it stood before the crash, the root's persisted
/// clock among them, but one load balancer byte counter: it comes back one
/// 64-byte packet short, and recovery from uncut logs loses the same
/// increment.
#[test]
fn a_store_checkpoint_cuts_the_recovery_logs_to_what_follows_it() {
    let trace = small_trace(17);
    let mut chain = ChainController::new(standard_chain(), ChainConfig::default(), 6).unwrap();
    chain.inject_trace(&trace);
    let at = |i: usize| VirtualTime::from_nanos(trace.packets[trace.len() * i / 4].arrival_ns);
    let mut cut = recovery_logs(&mut chain);
    for q in 1..=2 {
        chain.run_until(at(q));
        let grown = recovery_logs(&mut chain);
        for (&(_, _, ops_then), &(wal, _, ops_now)) in cut.iter().zip(&grown) {
            assert!(wal as u64 <= ops_now - ops_then, "{wal} WAL entries");
        }
        assert!(grown.iter().any(|&(wal, _, _)| wal > 0), "nothing logged");
        chain.checkpoint_store();
        cut = recovery_logs(&mut chain);
        assert!(cut.iter().all(|&(_, reads, _)| reads == 0));
    }
    chain.run_until(at(3));
    let before = shared_state(&chain);
    chain.fail_store();
    chain.recover_store();
    let after = shared_state(&chain);
    let root_clock = |state: &BTreeMap<String, Value>| {
        let clock = state.iter().find(|(key, _)| key.ends_with("/root_clock_0"));
        clock.map(|(_, value)| value.clone())
    };
    assert!(root_clock(&before).is_some(), "the root persisted no clock");
    assert_eq!(root_clock(&after), root_clock(&before));
    let wrong: BTreeSet<&String> = (before.keys().chain(after.keys()))
        .filter(|key| before.get(*key) != after.get(*key))
        .collect();
    let lb_bytes = format!("{}/shared/server_bytes[host:10.99.0.1]", VertexId(3));
    assert_eq!(wrong, BTreeSet::from([&lb_bytes]));
    let short = before[&lb_bytes].as_int() - after[&lb_bytes].as_int();
    assert_eq!(short, 64);
}

/// Figure 7 after an NF failover: the NAT dies after the store's
/// checkpoint, and its replacement replays clocks the checkpoint already
/// holds, under an instance id the checkpoint's `TS` has never seen. The
/// store crashes later and recovers, and the shared counter comes back as
/// it stood before the crash — as a recovery without the failover brings it
/// back, not with the replayed clocks applied a second time.
#[test]
fn store_recovery_after_an_nf_failover_matches_the_healthy_recovery() {
    let trace = small_trace(23);
    let at = |i: usize| VirtualTime::from_nanos(trace.packets[trace.len() * i / 4].arrival_ns);
    let counter_key = chc_store::StateKey::shared(
        VertexId(1),
        chc_store::ObjectKey::named(chc_nf::nat::PKT_COUNT),
    );
    // (pre-crash, recovered) counter, with or without the NAT failover.
    let recovery = |nat_fails: bool| {
        let mut chain = ChainController::new(standard_chain(), ChainConfig::default(), 6).unwrap();
        chain.inject_trace(&trace);
        chain.run_until(at(1));
        chain.checkpoint_store();
        if nat_fails {
            chain.fail_instance(VertexId(1), 0);
            chain.failover_instance(VertexId(1), 0);
        }
        chain.run_until(at(2));
        let before = chain.store.peek(&counter_key);
        chain.fail_store();
        chain.recover_store();
        let after = chain.store.peek(&counter_key);
        chain.run();
        assert_eq!(chain.metrics().sink_duplicates, 0);
        (before, after)
    };
    let (healthy_before, healthy_after) = recovery(false);
    let (failover_before, failover_after) = recovery(true);
    assert_eq!(healthy_after, healthy_before, "the healthy recovery");
    assert_eq!(
        failover_after, failover_before,
        "replayed clocks applied twice"
    );
    assert_eq!(failover_after, healthy_after);
}

/// The simulator is one of the store's two replay sources (failover,
/// straggler clones, Figure 7): its store keeps a duplicate-suppression
/// log while packets are in flight.
#[test]
fn the_simulators_store_logs_updates_for_duplicate_suppression() {
    let trace = small_trace(17);
    let mut chain = ChainController::new(standard_chain(), ChainConfig::default(), 6).unwrap();
    assert_eq!(chain.store.replay_floor(), 0);
    chain.inject_trace(&trace);
    chain.run_until(VirtualTime::from_nanos(
        trace.packets[trace.len() / 2].arrival_ns,
    ));
    assert!(chain.store.update_log_len() > 0);
}

#[test]
fn root_failover_resumes_with_larger_clocks() {
    let trace = small_trace(19);
    let mut chain = ChainController::new(standard_chain(), ChainConfig::default(), 7).unwrap();
    chain.inject_trace(&trace);
    let mid = trace.packets[trace.len() / 2].arrival_ns;
    chain.run_until(VirtualTime::from_nanos(mid));
    chain.fail_root();
    chain.recover_root();
    chain.run();
    let metrics = chain.metrics();
    // Packets that were at the failed root are lost (allowed, as a network
    // drop), but nothing is duplicated and the chain kept processing.
    assert_eq!(metrics.sink_duplicates, 0);
    assert_eq!(metrics.sink_replay_shadows, 0);
    assert!(metrics.sink_delivered > 0);
}

#[test]
fn store_recovery_keeps_the_callback_registrations_its_checkpoint_holds() {
    use chc_nf::firewall::BLACKLISTED;
    use chc_packet::ScopeKey;
    use chc_store::Operation;
    let firewall = VertexSpec::new(1, "firewall", Rc::new(|| Box::new(Firewall::default())));
    let dag = LogicalDag::linear(vec![firewall.with_parallelism(2)]);
    let mut chain = ChainController::new(dag, ChainConfig::default(), 8).unwrap();
    let host = Some(ScopeKey::Host(std::net::Ipv4Addr::new(10, 0, 0, 5)));
    // Instance 1 caches the read-heavy blacklist entry, which subscribes it.
    chain.with_instance(VertexId(1), 1, |a| {
        a.client.read(BLACKLISTED, host, Clock::with_root(0, 1))
    });
    chain.checkpoint_store();
    chain.fail_store();
    chain.recover_store();
    // Instance 0 blacklists the host: the recovered store still tells
    // instance 1, whose cache would otherwise stay stale for good.
    let notified: Vec<InstanceId> = chain
        .with_instance(VertexId(1), 0, |a| {
            let blacklist = Operation::Set(Value::Int(1));
            a.client
                .update(BLACKLISTED, host, blacklist, Clock::with_root(0, 2));
            a.client
                .take_pending_callbacks()
                .map(|(to, _, _)| to)
                .collect()
        })
        .unwrap();
    assert_eq!(notified, [chain.instances_of(VertexId(1))[1]]);
}

/// A diamond vertex: alerts with the length it sees when `alert`, drops
/// every packet whose id is a multiple of `drop_multiple_of`, and forwards
/// the rest `grow` bytes longer.
struct Grow {
    grow: u32,
    drop_multiple_of: u64,
    alert: bool,
}

impl NetworkFunction for Grow {
    fn name(&self) -> &str {
        "grow"
    }

    fn state_objects(&self) -> Vec<StateObjectSpec> {
        Vec::new()
    }

    fn process(&mut self, packet: &Packet, ctx: &mut NfContext<'_>) -> Action {
        if self.alert {
            ctx.alert(format!("{} len {}", packet.id, packet.len));
        }
        if packet.id.0.is_multiple_of(self.drop_multiple_of) {
            return Action::Drop;
        }
        let mut out = packet.clone();
        out.len += self.grow;
        Action::Forward(out)
    }
}

/// a → {b, c} → d: d sees up to two copies of each packet, b's 10 bytes
/// longer and c's 20.
fn diamond() -> LogicalDag {
    let vertex = |id: u32, grow, drop_multiple_of, alert| {
        let factory = move || -> Box<dyn NetworkFunction> {
            Box::new(Grow {
                grow,
                drop_multiple_of,
                alert,
            })
        };
        VertexSpec::new(id, "grow", Rc::new(factory))
    };
    let mut dag = LogicalDag::new();
    let a = dag.add_vertex(vertex(1, 0, 5, false));
    let b = dag.add_vertex(vertex(2, 10, 3, false));
    let c = dag.add_vertex(vertex(3, 20, 4, false));
    let d = dag.add_vertex(vertex(4, 0, 7, true));
    for (from, to) in [(a, b), (a, c), (b, d), (c, d)] {
        dag.add_edge(from, to);
    }
    dag
}

#[test]
fn the_ideal_chain_delivers_and_alerts_in_a_pinned_order() {
    // The COE checks compare sets; this pins the ideal chain's sequences.
    let trace = small_trace(5);
    let ideal = run_ideal_chain(&standard_chain(), &trace);
    let ids: Vec<PacketId> = trace.iter().map(|p| p.id).collect();
    assert_eq!(
        (ids.len(), ideal.delivered),
        (2601, ids),
        "every packet, in trace order"
    );
    let trojan = |counter, host| {
        (
            Clock::with_root(0, counter),
            format!("trojan detected at host {host}"),
        )
    };
    let alerts = [trojan(872, "10.66.0.1"), trojan(1753, "10.66.0.0")];
    assert_eq!(ideal.alerts, alerts);

    // Fan-in: d runs each packet's copies in the order its upstreams ran,
    // c before b (the topological order pops the last ready vertex first),
    // and an exit's repeated clock reaches the delivered list again.
    let packets = (1..=8).map(|i| Packet::builder().id(i).len(100).build());
    let trace = Trace {
        packets: packets.collect(),
        ..Trace::default()
    };
    let ideal = run_ideal_chain(&diamond(), &trace);
    let delivered: Vec<u64> = ideal.delivered.iter().map(|id| id.0).collect();
    assert_eq!(delivered, [1, 1, 2, 2, 3, 4, 6, 8]);
    let seen = |counter, id, len| (Clock::with_root(0, counter), format!("pkt#{id} len {len}"));
    let alerts = [
        seen(1, 1, 120),
        seen(1, 1, 110),
        seen(2, 2, 120),
        seen(2, 2, 110),
        seen(3, 3, 120),
        seen(4, 4, 110),
        seen(6, 6, 120),
        seen(7, 7, 120),
        seen(7, 7, 110),
        seen(8, 8, 110),
    ];
    assert_eq!(ideal.alerts, alerts);
}
