//! Smoke tests of the real-thread engine: chains run to completion, deliver
//! every packet exactly once, and populate the sharded store.

use chc_core::{
    ChainConfig, LogicalDag, RootCore, Splitter, TaggedPacket, VertexSpec, TIMED_PERIOD,
};
use chc_nf::{Firewall, LoadBalancer, Nat};
use chc_packet::{Trace, TraceConfig, TraceGenerator};
use chc_runtime::wiring::link;
use chc_runtime::{run_chain_realtime, FaultPlan, RuntimeConfig, RuntimeError};
use chc_store::{BackendKind, VertexId};
use std::rc::Rc;
use std::thread;
use std::time::{Duration, Instant};

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

#[test]
fn three_nf_chain_delivers_exactly_once() {
    let trace = TraceGenerator::new(TraceConfig::small(42)).generate();
    let report = run_chain_realtime(
        &fw_nat_lb(),
        ChainConfig::default(),
        &RuntimeConfig::with_batch_size(16),
        &trace,
    )
    .unwrap();

    assert_eq!(report.injected, trace.len() as u64);
    assert_eq!(report.duplicates, 0);
    assert!(report.delivered > 0);
    // Firewall drops (blocked ports) plus NAT pool exhaustion are the only
    // reasons a packet may be missing at the sink.
    let dropped: u64 = report.instances.iter().map(|i| i.dropped_by_nf).sum();
    assert_eq!(report.delivered as u64 + dropped, report.injected);
    // All three instances processed traffic; batching was in effect.
    assert_eq!(report.instances.len(), 3);
    for inst in &report.instances {
        assert!(
            inst.processed > 0,
            "instance {:?} processed nothing",
            inst.instance
        );
    }
    // The store served traffic across its shards and holds final state.
    assert!(report.store_ops > 0);
    assert_eq!(report.store_ops_per_shard.len(), 4);
    assert!(!report.final_state.is_empty());
    assert!(!report.shared_digest().is_empty());
    // Latency was measured on the timed packets: every TIMED_PERIOD-th
    // clock counter (packet `i` of the trace carries counter `i + 1`).
    let delivered: std::collections::HashSet<_> = report.delivered_ids.iter().copied().collect();
    let timed = trace
        .packets
        .iter()
        .enumerate()
        .filter(|(i, p)| (*i as u64 + 1).is_multiple_of(TIMED_PERIOD) && delivered.contains(&p.id))
        .count();
    assert!(timed > 0);
    assert_eq!(report.latency.len(), timed);
    assert!(report.pps() > 0.0 && report.gbps() > 0.0);
}

#[test]
fn batch_size_one_matches_large_batches() {
    let trace = TraceGenerator::new(TraceConfig::small(7)).generate();
    let mut digests = Vec::new();
    let mut delivered = Vec::new();
    for batch in [1usize, 64] {
        let report = run_chain_realtime(
            &fw_nat_lb(),
            ChainConfig::default(),
            &RuntimeConfig::with_batch_size(batch),
            &trace,
        )
        .unwrap();
        assert_eq!(report.duplicates, 0);
        let mut ids = report.delivered_ids.clone();
        ids.sort_unstable();
        delivered.push(ids);
        digests.push(report.shared_digest());
    }
    assert_eq!(
        delivered[0], delivered[1],
        "batch size must not change the delivered set"
    );
    assert_eq!(
        digests[0], digests[1],
        "batch size must not change final shared state"
    );
}

/// Store ops a healthy run of `trace` applies per packet, with the
/// write-behind buffer on or off.
fn store_ops_per_packet(trace: &Trace, write_behind: bool) -> f64 {
    let cfg = RuntimeConfig::default().with_write_behind(write_behind);
    let report = run_chain_realtime(&fw_nat_lb(), ChainConfig::default(), &cfg, trace).unwrap();
    assert_eq!(report.duplicates, 0);
    report.store_ops as f64 / trace.len() as f64
}

/// Without a fault plan the store's replay floor is at the top, so each
/// instance's write-behind buffer folds a counter's increments: a drain
/// carries one entry per counter where the per-op path applies one op per
/// increment, and the store applies what is left. The traces are the
/// benchmark's `steady` and `churn` at seed 97 (its `TraceConfig`s);
/// `--nocapture` prints what each run folds away.
#[test]
fn a_healthy_run_folds_each_counters_increments() {
    for (name, connections, mean_packets, most) in
        [("steady", 160, 440, 0.15), ("churn", 4_000, 5, 0.6)]
    {
        let trace = TraceGenerator::new(TraceConfig {
            seed: 97,
            connections,
            mean_packets_per_connection: mean_packets,
            ..TraceConfig::default()
        })
        .generate();
        let per_op = store_ops_per_packet(&trace, false);
        let folded = store_ops_per_packet(&trace, true);
        println!(
            "{name}: {} packets, store ops a packet {per_op:.2} per op, {folded:.2} folded \
             ({:.2} folded away)",
            trace.len(),
            per_op - folded
        );
        assert!(
            folded < most * per_op,
            "{name}: {folded:.2} of {per_op:.2} store ops a packet left"
        );
    }
}

/// The `failover` workload's trace (seed 97, 1,500 connections × 24
/// packets, as the benchmark builds it).
fn failover_trace() -> Trace {
    TraceGenerator::new(TraceConfig {
        seed: 97,
        connections: 1_500,
        mean_packets_per_connection: 24,
        ..TraceConfig::default()
    })
    .generate()
}

/// The three plans of the `failover` trace that price fault mode: none; a
/// NAT kill armed at the last counter, which puts the run in fault mode;
/// and the benchmark's (NAT kill at N/2, the four shards checkpointed at
/// N/8 and restarted at N/4).
fn failover_plans(n: u64) -> [(&'static str, Option<FaultPlan>); 3] {
    let nat = VertexId(2);
    let mut benchmark = FaultPlan::new().kill(nat, 0, n / 2);
    for shard in 0..4 {
        benchmark = benchmark.restart_shard(shard, n / 4, Some(n / 8));
    }
    [
        ("healthy", None),
        (
            "NAT kill armed at n",
            Some(FaultPlan::new().kill(nat, 0, n)),
        ),
        ("benchmark plan", Some(benchmark)),
    ]
}

/// One run of `trace` under `plan`, the write-behind buffer on or off: store
/// ops a packet and packets a second of the whole call.
fn failover_run(trace: &Trace, plan: Option<FaultPlan>, write_behind: bool) -> (f64, f64) {
    let mut rt = RuntimeConfig::default().with_write_behind(write_behind);
    if let Some(plan) = plan {
        rt = rt.with_fault(plan);
    }
    let started = Instant::now();
    let report = run_chain_realtime(&fw_nat_lb(), ChainConfig::default(), &rt, trace).unwrap();
    let wall = started.elapsed().as_secs_f64();
    assert_eq!(report.duplicates, 0);
    assert_eq!(report.buffered_refused(), 0);
    let n = trace.len() as f64;
    (report.store_ops as f64 / n, n / wall)
}

/// Fault mode folds too: the NAT and the load balancer each have one
/// clock-ordered input, so a drain of their write-behind buffers carries one
/// entry per counter, where the per-op path applies one op per increment.
/// A run that does not fold drains every op it buffered, the per-op count
/// (3.3 a packet on this trace); one that folds, about 0.75. So the bound is
/// the per-op count of the same plan, halved: a fold must take away at least
/// every other op, which sits far from both distributions.
#[test]
fn an_armed_kill_folds_each_counters_increments() {
    let trace = failover_trace();
    let [_, (_, armed), _] = failover_plans(trace.len() as u64);
    let (per_op, _) = failover_run(&trace, armed.clone(), false);
    let (folded, _) = failover_run(&trace, armed, true);
    assert!(
        folded < per_op / 2.0,
        "{folded:.2} store ops a packet with a kill armed, {per_op:.2} per op"
    );
}

/// Fault mode is one of the store's two replay sources: a run with a kill
/// armed holds a duplicate-suppression log while it runs, and a healthy
/// run, which declares none, holds none at any sample.
#[test]
fn only_a_fault_mode_run_keeps_a_dedup_log() {
    let trace = failover_trace();
    let [(_, healthy), (_, armed), _] = failover_plans(trace.len() as u64);
    // The most updates the monitor saw the log hold, and the final floor.
    let sampled = |plan: Option<FaultPlan>| {
        let mut rt = RuntimeConfig::default().with_sample_interval(Duration::from_micros(200));
        if let Some(plan) = plan {
            rt = rt.with_fault(plan);
        }
        let report = run_chain_realtime(&fw_nat_lb(), ChainConfig::default(), &rt, &trace).unwrap();
        assert_eq!(report.duplicates, 0);
        let series = &report.telemetry.as_ref().expect("telemetry").series;
        let log = series.get("store.update_log_len").expect("a sampled log");
        assert!(!log.points.is_empty(), "the monitor sampled no log length");
        let most = log.points.iter().map(|p| p.value).fold(0.0, f64::max);
        (most, report.store_replay_floor)
    };
    assert_eq!(sampled(healthy), (0.0, u64::MAX));
    let (most, floor) = sampled(armed);
    assert!(most > 0.0, "an armed run sampled no dedup log");
    assert!(
        floor < u64::MAX,
        "the truncation passes keep a floor below the top"
    );
}

/// What fault mode costs on the `failover` trace, per plan: store ops a
/// packet and the median packets a second of five runs (whole-call wall
/// time, unpinned). A measurement, not a check: `cargo test --release -p
/// chc-runtime --test engine_smoke -- --ignored --nocapture fault_mode`.
#[test]
#[ignore = "a measurement; run it with --ignored --nocapture"]
fn fault_mode_costs_on_the_failover_trace() {
    let trace = failover_trace();
    for (name, plan) in failover_plans(trace.len() as u64) {
        let mut runs: Vec<(f64, f64)> = (0..5)
            .map(|_| failover_run(&trace, plan.clone(), true))
            .collect();
        runs.sort_by(|a, b| a.1.total_cmp(&b.1));
        let (ops, pps) = runs[2];
        println!(
            "{name}: {ops:.2} store ops a packet, {:.0} k pps",
            pps / 1e3
        );
    }
}

/// What the commit-frontier cut, the engine's only deletion rule, leaves in
/// the packet logs on the `failover` trace, under the benchmark's plan and
/// under a tail kill (the load balancer at N/2): per log, its high water,
/// the entries the cut freed and those left at the end; per run, the
/// copies replayed and the replay shadows the sink absorbed. Three runs
/// each. A measurement, not a check: `cargo test --release -p chc-runtime
/// --test engine_smoke -- --ignored --nocapture packet_logs`.
#[test]
#[ignore = "a measurement; run it with --ignored --nocapture"]
fn packet_logs_under_the_frontier_cut() {
    let trace = failover_trace();
    let n = trace.len() as u64;
    let [_, _, (_, benchmark)] = failover_plans(n);
    let tail = FaultPlan::new().kill(VertexId(3), 0, n / 2);
    for (name, plan) in [("benchmark plan", benchmark), ("tail kill", Some(tail))] {
        for run in 1..=3 {
            let rt = RuntimeConfig::default().with_fault(plan.clone().expect("a fault plan"));
            let report = run_chain_realtime(&fw_nat_lb(), ChainConfig::default(), &rt, &trace)
                .expect("a valid plan");
            assert_eq!(report.duplicates, 0);
            let fault = report.fault.as_ref().expect("a fault report");
            let mut logs = vec![format!(
                "root {} high, {} cut, {} left",
                fault.log_high_water, fault.log_truncated, fault.log_final_len
            )];
            logs.extend(fault.vertex_logs.iter().map(|row| {
                format!(
                    "{} {} high, {} cut, {} left",
                    row.vertex, row.high_water, row.truncated, row.final_len
                )
            }));
            println!(
                "{name}, run {run}: {n} packets; {}; {} replayed, {} shadows",
                logs.join("; "),
                fault.packets_replayed(),
                report.replay_window_suppressed
            );
        }
    }
}

/// The root alone, over the `forward` workload's trace: stamp, wrap, route
/// through the entry splitter and push to a link whose consumer thread pops
/// and recycles each ring batch, as the engine's root does on a healthy run
/// (no log, no clock persisted). Packets a second.
fn root_only_pps(trace: &Trace, splitter: &Splitter, rt: &RuntimeConfig) -> f64 {
    let batch = rt.batch_size;
    let (mut out, mut input) = link(rt.queue_depth, batch);
    let drain = thread::spawn(move || {
        while !input.is_exhausted() {
            match input.pop() {
                Some(popped) => input.recycle(popped),
                None => thread::yield_now(),
            }
        }
    });
    let start = Instant::now();
    let mut root = RootCore::default();
    for pkt in &trace.packets {
        let tp = TaggedPacket::new(pkt.clone(), root.stamp(None));
        assert_eq!(splitter.instance_for(&tp.packet, tp.clock), 0);
        out.push(tp, batch);
    }
    out.flush();
    out.close();
    drain.join().unwrap();
    trace.len() as f64 / start.elapsed().as_secs_f64()
}

/// Whether the root is `forward`'s ceiling (ROADMAP 25(a)): the root-only
/// pass against `run_chain_realtime` on the same firewall-only chain and
/// trace, five runs each, medians printed. A measurement, not a check:
/// `cargo test --release -p chc-runtime --test engine_smoke -- --ignored
/// --nocapture the_root_alone`.
#[test]
#[ignore = "a measurement; run it with --ignored --nocapture"]
fn the_root_alone_against_the_forward_chain() {
    let trace = TraceGenerator::new(TraceConfig {
        seed: 97,
        connections: 1_200,
        mean_packets_per_connection: 440,
        ..TraceConfig::default()
    })
    .generate();
    let firewall = VertexSpec::new(
        1,
        "firewall",
        Rc::new(|| Box::new(Firewall::with_default_policy())),
    );
    let splitter = Splitter::for_vertex(&firewall);
    let dag = LogicalDag::linear(vec![firewall]);
    let rt = RuntimeConfig::default().with_store_backend(BackendKind::Memory);
    let median = |mut runs: Vec<f64>| {
        runs.sort_by(f64::total_cmp);
        runs[runs.len() / 2]
    };
    let root = median(
        (0..5)
            .map(|_| root_only_pps(&trace, &splitter, &rt))
            .collect(),
    );
    let chain = median(
        (0..5)
            .map(|_| {
                let start = Instant::now();
                let report = run_chain_realtime(&dag, ChainConfig::default(), &rt, &trace);
                assert_eq!(report.unwrap().duplicates, 0);
                trace.len() as f64 / start.elapsed().as_secs_f64()
            })
            .collect(),
    );
    println!(
        "forward trace, {} packets, {} CPUs: root alone {:.2} M packets/s, \
         chain {:.2} M packets/s (root alone / chain = {:.2})",
        trace.len(),
        thread::available_parallelism().map_or(0, |n| n.get()),
        root / 1e6,
        chain / 1e6,
        root / chain
    );
}

#[test]
fn scale_event_spawns_and_uses_the_extra_instance() {
    let trace = TraceGenerator::new(TraceConfig::small(11)).generate();
    let cut = (trace.len() / 2) as u64;
    let report = run_chain_realtime(
        &fw_nat_lb(),
        ChainConfig::default(),
        &RuntimeConfig::with_batch_size(8).with_scale(VertexId(2), cut),
        &trace,
    )
    .unwrap();
    assert_eq!(report.duplicates, 0);
    assert_eq!(report.instances.len(), 4, "scale target pre-spawned");
    let nat_instances: Vec<_> = report
        .instances
        .iter()
        .filter(|i| i.vertex == VertexId(2))
        .collect();
    assert_eq!(nat_instances.len(), 2);
    for inst in &nat_instances {
        assert!(inst.processed > 0, "both NAT instances must see traffic");
    }
}

#[test]
fn invalid_inputs_are_rejected() {
    let trace = TraceGenerator::new(TraceConfig::small(1)).generate();
    let err = run_chain_realtime(
        &fw_nat_lb(),
        ChainConfig::default(),
        &RuntimeConfig::default().with_scale(VertexId(99), 10),
        &trace,
    )
    .unwrap_err();
    assert_eq!(err, RuntimeError::UnknownScaleVertex(VertexId(99)));

    let mut cyclic = LogicalDag::new();
    cyclic.add_vertex(VertexSpec::new(
        1,
        "a",
        Rc::new(|| Box::new(Nat::default())),
    ));
    cyclic.add_vertex(VertexSpec::new(
        2,
        "b",
        Rc::new(|| Box::new(Nat::default())),
    ));
    cyclic.add_edge(VertexId(1), VertexId(2));
    cyclic.add_edge(VertexId(2), VertexId(1));
    assert!(matches!(
        run_chain_realtime(
            &cyclic,
            ChainConfig::default(),
            &RuntimeConfig::default(),
            &trace
        ),
        Err(RuntimeError::Dag(_))
    ));
}
