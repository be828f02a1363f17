//! Causal tracing and the invariant sentinel on real failover runs: the
//! exported Chrome trace must be loadable (balanced, per-lane monotone) and
//! must show the killed vertex's packets coming back as replay spans; the
//! sentinel must stay silent on correct runs and flag a seeded
//! commit-frontier regression.

use chc_core::{ChainConfig, LogicalDag, VertexSpec, TIMED_PERIOD};
use chc_nf::{Firewall, Nat};
use chc_packet::{flow_sampled, Trace, TraceConfig, TraceGenerator, TRACE_PPM_FULL};
use chc_runtime::{
    chrome_trace_json, run_chain_realtime, validate_chrome_trace, FaultPlan, InvariantKind,
    RuntimeConfig, RuntimeReport, SpanKind, TraceLane,
};
use chc_store::VertexId;
use chc_telemetry::{Event, EventKind, Sentinel};
use std::rc::Rc;

const FW: VertexId = VertexId(1);

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

/// The sentinel section must exist (it is on by default) and be clean.
fn assert_sentinel_clean(report: &RuntimeReport) {
    let inv = report.invariants.as_ref().expect("sentinel on by default");
    assert!(
        inv.ok(),
        "sentinel violations on a correct run: {:?}",
        inv.violations
    );
    assert!(
        inv.events_checked > 0,
        "sentinel consumed no journal events"
    );
    // Replay-delivered packets are exempt from the flow-order check (their
    // ring order is legitimately non-monotone), so in faulted runs the
    // checker sees a subset of deliveries; healthy tests assert equality.
    assert!(
        inv.deliveries_checked > 0 && inv.deliveries_checked as usize <= report.delivered,
        "flow-order checker saw {} of {} deliveries",
        inv.deliveries_checked,
        report.delivered
    );
    assert_eq!(
        inv.ring_pushed, inv.ring_popped,
        "ring copies in flight after shutdown"
    );
}

#[test]
fn traced_failover_exports_a_loadable_trace_with_replay_spans() {
    let trace = trace_for(91);
    let kill_at = (trace.len() / 2) as u64;
    let report = run(
        RuntimeConfig::with_batch_size(8)
            .with_fault(FaultPlan::new().kill(FW, 0, kill_at))
            .with_trace_sample_ppm(TRACE_PPM_FULL),
        &trace,
    );
    assert_eq!(report.duplicates, 0);
    assert_sentinel_clean(&report);

    let telemetry = report.telemetry.as_ref().expect("telemetry on");
    let spans = &telemetry.trace_spans;
    assert_eq!(telemetry.trace_dropped, 0);

    // Full sampling: every injected packet got a root inject span with its
    // clock counter as the trace id.
    let injects = spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Inject))
        .count();
    assert_eq!(injects as u64, report.injected);

    // The export is Perfetto-loadable in shape: balanced B/E nesting and
    // monotone timestamps on every lane.
    let json = chrome_trace_json(spans);
    let shape = validate_chrome_trace(&json).expect("invalid Chrome trace");
    assert_eq!(shape.begins, shape.ends);
    // Root, sink, supervisor, both original instances and the replacement.
    assert!(shape.lanes >= 6, "only {} lanes", shape.lanes);

    // The failover is visible: the supervisor lane carries replay_inject
    // spans for the logged packets...
    let replay_injects: Vec<u64> = spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::ReplayInject))
        .map(|s| s.trace_id)
        .collect();
    assert!(
        !replay_injects.is_empty(),
        "no replay_inject spans recorded"
    );
    assert!(spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::ReplayInject))
        .all(|s| s.lane == TraceLane::Supervisor));

    // ...and the replacement's lane (fresh instance id 2 on the killed
    // vertex) shows replayed service spans for them.
    let replacement_lane = TraceLane::Vertex {
        vertex: FW.0,
        instance: 2,
    };
    let replayed_service: Vec<u64> = spans
        .iter()
        .filter(|s| {
            s.lane == replacement_lane && matches!(s.kind, SpanKind::Service { replay: true, .. })
        })
        .map(|s| s.trace_id)
        .collect();
    assert!(
        !replayed_service.is_empty(),
        "replacement processed no replayed packets on its lane"
    );
    // Every replayed service corresponds to a supervisor re-injection, and
    // every re-injected packet was root-stamped first.
    let inject_ids: std::collections::HashSet<u64> = spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Inject))
        .map(|s| s.trace_id)
        .collect();
    for id in &replayed_service {
        assert!(
            replay_injects.contains(id),
            "service replay {id} never re-injected"
        );
        assert!(
            inject_ids.contains(id),
            "replayed {id} missing its root inject span"
        );
    }

    // Queue-level duplicate suppression of replayed copies shows up too.
    assert!(
        spans.iter().any(|s| matches!(s.kind, SpanKind::Suppress)),
        "replay produced no suppress spans"
    );
}

#[test]
fn flow_sampling_is_deterministic_and_flow_complete() {
    let trace = trace_for(29);
    let ppm = 500_000; // half the flows
    let report = run(
        RuntimeConfig::with_batch_size(8).with_trace_sample_ppm(ppm),
        &trace,
    );
    assert_sentinel_clean(&report);
    // Healthy run: every delivery goes through the flow-order checker.
    assert_eq!(
        report.invariants.as_ref().unwrap().deliveries_checked as usize,
        report.delivered
    );
    let spans = &report.telemetry.as_ref().unwrap().trace_spans;

    // Expected trace-id set, derived from the trace alone: packet i gets
    // clock counter i+1, and sampling is a pure function of the flow key.
    let expected: std::collections::BTreeSet<u64> = trace
        .packets
        .iter()
        .enumerate()
        .filter(|(_, p)| flow_sampled(p.flow_key(), ppm))
        .map(|(i, _)| i as u64 + 1)
        .collect();
    assert!(!expected.is_empty(), "sampling rate chose no flows");
    assert!(
        (expected.len() as u64) < report.injected,
        "sampling rate chose every packet"
    );

    let injected_ids: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Inject))
        .map(|s| s.trace_id)
        .collect();
    assert_eq!(
        injected_ids, expected,
        "sampled set is not flow-deterministic"
    );
    // No span of any kind leaks from an unsampled packet.
    assert!(spans.iter().all(|s| expected.contains(&s.trace_id)));

    // And the export still validates at partial sampling.
    validate_chrome_trace(&chrome_trace_json(spans)).expect("invalid Chrome trace");
}

#[test]
fn traced_packets_are_timed_and_their_hops_telescope_exactly() {
    let trace = trace_for(29);
    let ppm = 500_000; // half the flows
    let report = run(
        RuntimeConfig::with_batch_size(8).with_trace_sample_ppm(ppm),
        &trace,
    );
    assert_sentinel_clean(&report);
    let telemetry = report.telemetry.as_ref().unwrap();
    assert_eq!(telemetry.trace_dropped, 0);

    // Timed = every TIMED_PERIOD-th counter plus every packet of a traced
    // flow, both pure functions of the trace; the sink samples exactly the
    // delivered ones among them.
    let delivered: std::collections::HashSet<_> = report.delivered_ids.iter().copied().collect();
    let is_traced = |i: usize| flow_sampled(trace.packets[i].flow_key(), ppm);
    let timed_delivered = (0..trace.len())
        .filter(|&i| is_traced(i) || (i as u64 + 1).is_multiple_of(TIMED_PERIOD))
        .filter(|&i| delivered.contains(&trace.packets[i].id))
        .count();
    assert_eq!(report.latency.len(), timed_delivered);
    assert_eq!(telemetry.sink_wait.count as usize, timed_delivered);

    // Every traced packet, whatever its counter, was timed at every hop it
    // reached: its service spans carry the queue wait measured from the
    // envelope's hop stamp, and for a delivered packet the spans add up to
    // the end-to-end latency to the nanosecond —
    // e2e = Σ (queue + service + store) + sink_wait, with service + store
    // the span's duration.
    let mut checked = 0;
    for i in (0..trace.len()).filter(|&i| is_traced(i)) {
        let id = i as u64 + 1;
        let of_packet: Vec<_> = telemetry
            .trace_spans
            .iter()
            .filter(|s| s.trace_id == id)
            .collect();
        let inject = of_packet
            .iter()
            .find(|s| matches!(s.kind, SpanKind::Inject))
            .expect("traced packet without an inject span");
        let mut hops = 0u64;
        let mut egress = inject.t_ns;
        for s in &of_packet {
            if let SpanKind::Service {
                queue_wait_ns,
                store_ns,
                replay,
            } = s.kind
            {
                assert!(!replay);
                assert_eq!(
                    s.t_ns,
                    egress + queue_wait_ns,
                    "queue wait starts at the previous egress"
                );
                assert!(store_ns <= s.dur_ns);
                hops += queue_wait_ns + s.dur_ns;
                egress = s.t_ns + s.dur_ns;
            }
        }
        assert!(hops > 0, "traced packet {id} has no service span");
        let deliver = of_packet.iter().find_map(|s| match s.kind {
            SpanKind::Deliver { wait_ns, duplicate } => Some((s.t_ns, wait_ns, duplicate)),
            _ => None,
        });
        assert_eq!(
            deliver.is_some(),
            delivered.contains(&trace.packets[i].id),
            "deliver span of packet {id}"
        );
        if let Some((t_ns, wait_ns, duplicate)) = deliver {
            assert!(!duplicate);
            assert_eq!(
                t_ns - inject.t_ns,
                hops + wait_ns,
                "packet {id} does not telescope"
            );
            checked += 1;
        }
    }
    assert!(checked > 0, "no traced packet was delivered");
}

#[test]
fn zero_sampling_collects_no_spans() {
    let trace = trace_for(11);
    let report = run(RuntimeConfig::with_batch_size(8), &trace);
    assert_sentinel_clean(&report);
    let telemetry = report.telemetry.as_ref().unwrap();
    assert!(telemetry.trace_spans.is_empty());
    assert_eq!(telemetry.trace_dropped, 0);
}

#[test]
fn sentinel_flags_an_injected_frontier_regression() {
    // A real faulted run's journal is clean end to end...
    let trace = trace_for(91);
    let kill_at = (trace.len() / 2) as u64;
    let report = run(
        RuntimeConfig::with_batch_size(8).with_fault(FaultPlan::new().kill(FW, 0, kill_at)),
        &trace,
    );
    assert_sentinel_clean(&report);
    let events = &report.telemetry.as_ref().unwrap().events;
    let frontiers: Vec<&Event> = events
        .iter()
        .filter(|e| matches!(e.kind, EventKind::CommitFrontier { .. }))
        .collect();
    assert!(!frontiers.is_empty(), "run journaled no frontier advances");

    let mut sentinel = Sentinel::new();
    let mut violations = Vec::new();
    for e in events.iter() {
        violations.extend(sentinel.observe(e));
    }
    assert!(
        violations.is_empty(),
        "replayed journal raised: {violations:?}"
    );

    // ...until a regressed commit-frontier event is appended: the sentinel
    // must catch it as a monotonicity violation naming both values.
    let last = match frontiers.last().unwrap().kind {
        EventKind::CommitFrontier { frontier, .. } => frontier,
        _ => unreachable!(),
    };
    assert!(last > 0);
    let forged = Event {
        seq: events.last().unwrap().seq + 1,
        t_ns: events.last().unwrap().t_ns + 1,
        kind: EventKind::CommitFrontier {
            frontier: last - 1,
            dropped: 0,
        },
    };
    let caught = sentinel.observe(&forged);
    assert_eq!(caught.len(), 1);
    assert_eq!(caught[0].invariant, InvariantKind::FrontierMonotonic);
    assert_eq!(caught[0].observed, last - 1);
    assert_eq!(caught[0].expected, last);
}
