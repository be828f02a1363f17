//! Observability of the real-thread engine: the monitor's gauge time
//! series, the per-stage latency decomposition, and the control-plane
//! event journal — including its causal ordering across a failover.

use chc_core::{ChainConfig, LogicalDag, VertexSpec, TIMED_PERIOD};
use chc_nf::{Firewall, Nat};
use chc_packet::{Trace, TraceConfig, TraceGenerator};
use chc_runtime::{run_chain_realtime, FaultPlan, RuntimeConfig, RuntimeReport, TelemetryConfig};
use chc_store::{BackendKind, VertexId};
use chc_telemetry::EventKind;
use std::collections::HashSet;
use std::rc::Rc;
use std::time::Duration;

const FW: VertexId = VertexId(1);
const NAT: VertexId = VertexId(2);

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

fn run(rt: RuntimeConfig, trace: &Trace) -> RuntimeReport {
    run_chain_realtime(&firewall_nat(), ChainConfig::default(), &rt, trace).unwrap()
}

/// Delivered packets of an untraced run that were timed: packet `i` of the
/// trace carries clock counter `i + 1`, and every `TIMED_PERIOD`-th counter
/// is timed.
fn timed_delivered(trace: &Trace, report: &RuntimeReport) -> usize {
    let delivered: HashSet<_> = report.delivered_ids.iter().copied().collect();
    trace
        .packets
        .iter()
        .enumerate()
        .filter(|(i, p)| (*i as u64 + 1).is_multiple_of(TIMED_PERIOD) && delivered.contains(&p.id))
        .count()
}

#[test]
fn monitor_collects_monotonic_gauge_series_and_shuts_down_cleanly() {
    let trace = trace_for(11);
    let report = run(
        RuntimeConfig::with_batch_size(8).with_sample_interval(Duration::from_millis(1)),
        &trace,
    );
    // run_chain_realtime returning at all proves the monitor thread joined
    // (the engine joins every scoped thread); the series prove it sampled.
    let telemetry = report.telemetry.as_ref().expect("telemetry on by default");
    let series = &telemetry.series;
    assert!(!series.series.is_empty(), "monitor produced no series");
    assert!(
        series.is_monotonic(),
        "gauge timestamps regressed within a series"
    );
    for g in &series.series {
        assert!(
            g.len() >= 2,
            "series {} missing initial/final sample",
            g.name
        );
    }
    // Every gauge family the config promises is present.
    assert!(series.with_prefix("ring.").count() > 0);
    let rates: Vec<_> = series.with_prefix("shard.").collect();
    assert!(rates.iter().any(|g| g.name.ends_with(".ops_per_sec")));
    // Healthy run: no fault plan, so no WAL/packet-log gauges, and replay
    // progress stays flat at zero.
    assert!(!rates.iter().any(|g| g.name.ends_with(".wal_depth")));
    assert!(series.get("rootlog.len").is_none());
    let replay = series.get("replay.packets").expect("replay gauge");
    assert!(replay.points.iter().all(|p| p.value == 0.0));
    // The store served real traffic, so some shard rate sample is nonzero.
    assert!(
        rates.iter().any(|g| g.points.iter().any(|p| p.value > 0.0)),
        "all shard op rates were zero despite store traffic"
    );
}

/// On files the monitor adds the durable gauges, persist lag among them: a
/// shard restart plan journals every faulted shard from the start, so bytes
/// reach the files, and the lag sampled never exceeds the staging cap.
#[test]
fn file_runs_sample_segments_durable_bytes_and_persist_lag() {
    let trace = trace_for(13);
    let restart_at = (trace.len() / 2) as u64;
    let plan = (0..4).fold(FaultPlan::new(), |plan, shard| {
        plan.restart_shard(shard, restart_at, None)
    });
    let report = run(
        RuntimeConfig::with_batch_size(8)
            .with_sample_interval(Duration::from_millis(1))
            .with_store_backend(BackendKind::AppendOnly)
            .with_fault(plan),
        &trace,
    );
    let series = &report.telemetry.as_ref().expect("telemetry").series;
    let durable = series.get("store.durable_bytes").expect("durable bytes");
    assert!(durable.points.iter().any(|p| p.value > 0.0));
    assert!(series.get("store.segments").is_some());
    let lag = series.get("store.persist_lag_bytes").expect("persist lag");
    assert!(lag.len() >= 2);
    assert!(lag.points.iter().all(|p| p.value <= (64 << 10) as f64));
}

#[test]
fn stage_decomposition_tracks_the_end_to_end_latency() {
    let trace = trace_for(29);
    let report = run(RuntimeConfig::with_batch_size(8), &trace);
    let telemetry = report.telemetry.as_ref().expect("telemetry on by default");

    // One stage per vertex, in vertex order, each having timed every timed
    // packet that reached it: one counter in TIMED_PERIOD at the entry, the
    // delivered ones among them at the sink.
    let vertices: Vec<VertexId> = telemetry.stages.iter().map(|s| s.vertex).collect();
    assert_eq!(vertices, vec![FW, NAT]);
    let fw = &telemetry.stages[0];
    assert_eq!(fw.queue.count, fw.service.count);
    assert_eq!(fw.service.count, report.injected / TIMED_PERIOD);
    let timed = timed_delivered(&trace, &report);
    assert!(timed > 0 && timed < report.delivered);
    assert_eq!(telemetry.sink_wait.count as usize, timed);
    assert_eq!(report.latency.len(), timed);

    // The hop stamps telescope (queue + service + store per vertex, plus
    // the final sink hop) on every timed packet, so the reconstructed mean
    // must track the e2e histogram's mean; timed packets the firewall drops
    // and the between-packet drain samples in `store` are the only
    // divergence sources.
    let e2e = report.latency.mean();
    let decomposed = telemetry.decomposed_mean_ns();
    assert!(e2e > 0.0 && decomposed > 0.0);
    assert!(
        (decomposed - e2e).abs() / e2e < 0.25,
        "decomposed {decomposed:.0} ns strays from e2e {e2e:.0} ns"
    );
}

#[test]
fn disabling_telemetry_removes_the_report_section() {
    let trace = trace_for(11);
    let report = run(
        RuntimeConfig::with_batch_size(8).with_telemetry(TelemetryConfig::disabled()),
        &trace,
    );
    assert!(report.telemetry.is_none());
    assert!(
        report.invariants.is_none(),
        "disabled() turns the sentinel off"
    );
    // The end-to-end histogram is independent of the telemetry switches.
    assert_eq!(report.latency.len(), timed_delivered(&trace, &report));
}

#[test]
fn failover_journal_records_the_recovery_in_causal_order() {
    let trace = trace_for(91);
    let kill_at = (trace.len() / 2) as u64;
    let report = run(
        RuntimeConfig::with_batch_size(8).with_fault(FaultPlan::new().kill(FW, 0, kill_at)),
        &trace,
    );
    let telemetry = report.telemetry.as_ref().expect("telemetry on by default");
    let fault = report.fault.as_ref().expect("fault report");
    let recovery = &fault.recoveries[0];

    // The sentinel checked every event of this journal as it was recorded,
    // and found nothing wrong.
    let inv = report.invariants.as_ref().expect("sentinel on by default");
    assert!(inv.ok(), "sentinel violations: {:?}", inv.violations);
    assert_eq!(inv.events_checked as usize, telemetry.events.len());

    // The journal holds exactly one event of each failover phase, and their
    // sequence numbers order them causally: the kill strictly precedes the
    // supervisor's begin → spawn → replay → end.
    let seq_of = |name: &str| -> u64 {
        let found = telemetry.events_named(name);
        assert_eq!(found.len(), 1, "expected exactly one {name} event");
        found[0].seq
    };
    let killed = seq_of("instance_killed");
    let begin = seq_of("failover_begin");
    let spawn = seq_of("replacement_spawn");
    let replay = seq_of("replay_complete");
    let end = seq_of("failover_end");
    assert!(killed < begin && begin < spawn && spawn < replay && replay < end);

    // Timestamps agree with the causal order (all clocks come from the one
    // run epoch).
    let t_of = |name: &str| telemetry.events_named(name)[0].t_ns;
    assert!(t_of("instance_killed") <= t_of("failover_begin"));
    assert!(t_of("failover_begin") <= t_of("failover_end"));

    // Event payloads match the fault report's measured recovery exactly.
    match &telemetry.events_named("instance_killed")[0].kind {
        EventKind::InstanceKilled {
            vertex,
            index,
            instance,
            clock,
        } => {
            assert_eq!((*vertex, *index), (FW.0, 0));
            assert_eq!(*instance, recovery.failed_instance.0 as u64);
            assert!(
                *clock >= kill_at,
                "kill fired at clock {clock}, before the armed counter {kill_at}"
            );
        }
        other => panic!("wrong payload: {other:?}"),
    }
    match &telemetry.events_named("replay_complete")[0].kind {
        EventKind::ReplayComplete {
            instance,
            packets_replayed,
            ..
        } => {
            assert_eq!(*instance, recovery.replacement.0 as u64);
            assert_eq!(*packets_replayed, recovery.packets_replayed);
        }
        other => panic!("wrong payload: {other:?}"),
    }
    match &telemetry.events_named("failover_end")[0].kind {
        EventKind::FailoverEnd { recovery_ns, .. } => {
            assert_eq!(*recovery_ns, recovery.recovery_wall.as_nanos() as u64);
        }
        other => panic!("wrong payload: {other:?}"),
    }

    // Truncation advanced the commit frontier at least once, and every
    // spawn the run journaled (initial instances + the replacement) is
    // accounted for.
    assert!(
        !telemetry.events_named("commit_frontier").is_empty(),
        "no commit-frontier advance was journaled"
    );
    let spawns = telemetry.events_named("instance_spawn").len();
    assert_eq!(spawns, 2, "firewall + NAT initial spawns");
    assert_eq!(telemetry.events_named("replacement_spawn").len(), 1);
}
