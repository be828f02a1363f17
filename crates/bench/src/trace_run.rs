//! One fully-sampled traced failover on the real-thread engine: the run
//! behind `paper_eval --trace-out`. A seeded kill at a named chain position
//! of firewall → NAT → LB, every flow trace-sampled, the spans exported as
//! Chrome trace-event JSON (load it at <https://ui.perfetto.dev>) and the
//! document validated before it is handed back.
//!
//! Throughput, latency and recovery time are not measured here: they are
//! rows of the repository benchmark (`BENCHMARK.json`).

use crate::faultgen::FaultGen;
use crate::Scale;
use chc_core::{ChainConfig, LogicalDag, VertexSpec};
use chc_nf::{Firewall, LoadBalancer, Nat};
use chc_packet::{Trace, TraceConfig, TraceGenerator, TRACE_PPM_FULL};
use chc_runtime::{
    chrome_trace_json, run_chain_realtime, validate_chrome_trace, FaultPlan, RuntimeConfig,
    SpanKind, TelemetryReport, TraceShape,
};
use chc_store::VertexId;
use std::fmt::Write as _;
use std::rc::Rc;

/// Seed of the trace and of the fault plan.
const SEED: u64 = 97;

/// The 3-NF chain of the paper's running example: firewall → NAT → LB.
fn chain() -> LogicalDag {
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

/// Scale 1 is 2,000 connections of 24 packets on average; never fewer than
/// 100 connections, so the middle-third kill always has traffic behind it.
fn trace(scale: Scale) -> Trace {
    TraceGenerator::new(TraceConfig {
        seed: SEED,
        connections: ((2_000.0 * scale.0).max(100.0)) as usize,
        mean_packets_per_connection: 24,
        ..TraceConfig::default()
    })
    .generate()
}

/// The kill positions a traced failover can exercise, in chain order.
/// `entry`/`mid`/`tail` name the chain's three vertices; `root` crashes the
/// root itself, and a new root on the same thread resumes from the clock it
/// persisted, losing the packets in the dead root's output buffers.
pub const KILL_POSITIONS: [&str; 4] = ["entry", "mid", "tail", "root"];

/// The seeded fault plan for a named kill position on the chain. Panics on
/// a name outside [`KILL_POSITIONS`].
fn position_plan(position: &str, trace_len: usize) -> FaultPlan {
    let mut gen = FaultGen::new(SEED);
    match position {
        "entry" => gen.kill_plan(VertexId(1), 1, trace_len),
        "mid" => gen.kill_plan(VertexId(2), 1, trace_len),
        "tail" => gen.kill_plan(VertexId(3), 1, trace_len),
        "root" => gen.root_kill_plan(trace_len),
        other => panic!("unknown kill position '{other}' (expected entry|mid|tail|root)"),
    }
}

/// Outcome of one traced failover.
#[derive(Debug, Clone)]
pub struct TraceRunRecord {
    /// Packets in the trace.
    pub packets: u64,
    /// `replay_inject` spans on the supervisor lane — log entries
    /// re-injected for the replacement (none for a root kill: nothing
    /// replays what a crashed root loses).
    pub replay_inject_spans: usize,
    /// `service` spans with `replay:1` — replayed packets the replacement
    /// actually processed (rather than suppressed en route).
    pub replay_service_spans: usize,
    /// Shape of the exported document, as counted by
    /// [`validate_chrome_trace`].
    pub shape: TraceShape,
    /// Invariant-sentinel violations during the run — must be zero.
    pub invariant_violations: usize,
    /// The run's telemetry: the collected spans, the control-plane event
    /// journal of the failover, stage histograms and gauge series.
    pub telemetry: TelemetryReport,
    /// The Perfetto-loadable Chrome trace-event JSON document.
    pub trace_json: String,
}

/// Kill at a named chain position (see [`KILL_POSITIONS`]) mid-trace with
/// causal tracing at full sampling, export the collected spans as Chrome
/// trace-event JSON, and validate the document's shape (balanced `B`/`E`
/// nesting, per-lane timestamp monotonicity). Panics if the export does
/// not validate.
pub fn runtime_trace_experiment_at(scale: Scale, position: &str) -> (String, TraceRunRecord) {
    let trace = trace(scale);
    let cfg = RuntimeConfig::with_batch_size(8)
        .with_fault(position_plan(position, trace.len()))
        .with_trace_sample_ppm(TRACE_PPM_FULL);
    let mut report =
        run_chain_realtime(&chain(), ChainConfig::default(), &cfg, &trace).expect("valid dag");

    let telemetry = report.telemetry.take().expect("telemetry enabled");
    let spans = &telemetry.trace_spans;
    let trace_json = chrome_trace_json(spans);
    let shape = match validate_chrome_trace(&trace_json) {
        Ok(shape) => shape,
        Err(e) => panic!("traced failover exported an invalid Chrome trace: {e}"),
    };
    let count = |pred: fn(&SpanKind) -> bool| spans.iter().filter(|s| pred(&s.kind)).count();
    let record = TraceRunRecord {
        packets: report.injected,
        replay_inject_spans: count(|k| matches!(k, SpanKind::ReplayInject)),
        replay_service_spans: count(|k| matches!(k, SpanKind::Service { replay: true, .. })),
        shape,
        invariant_violations: report.invariants.map_or(0, |i| i.violations.len()),
        telemetry,
        trace_json,
    };

    let mut out =
        format!("Causal trace — {position} kill under full flow sampling, Chrome trace export\n");
    let _ = writeln!(
        out,
        "  {} packets traced: {} spans on {} lanes ({} dropped)",
        record.packets,
        record.telemetry.trace_spans.len(),
        record.shape.lanes,
        record.telemetry.trace_dropped
    );
    let _ = writeln!(
        out,
        "  replay visible in the trace: {} replay_inject spans (supervisor lane), \
         {} replayed service spans",
        record.replay_inject_spans, record.replay_service_spans
    );
    let _ = writeln!(
        out,
        "  export shape: {} events, {} B / {} E (validated)   sentinel violations: {}",
        record.shape.events, record.shape.begins, record.shape.ends, record.invariant_violations
    );
    (out, record)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_experiment_exports_a_valid_trace_with_replay_spans() {
        for position in KILL_POSITIONS {
            let (text, record) = runtime_trace_experiment_at(Scale(0.05), position);
            assert!(text.contains("Chrome trace export"));
            let telemetry = &record.telemetry;
            assert!(!telemetry.trace_spans.is_empty(), "{position}: no spans");
            assert_eq!(telemetry.trace_dropped, 0, "{position}");
            // The exporter was validated inside the experiment; re-check the
            // counted shape is internally consistent.
            assert_eq!(record.shape.begins, record.shape.ends, "{position}");
            assert!(record.shape.lanes >= 3, "root, instances and sink lanes");
            assert_eq!(record.invariant_violations, 0, "{position}: sentinel");
            assert!(record.trace_json.contains("\"ph\":\"M\""));
            // A killed vertex's logged packets must reappear as replay
            // spans: supervisor re-injections, and replayed service at the
            // replacement. A root kill replays nothing.
            if position != "root" {
                assert!(record.replay_inject_spans > 0, "{position}: no replay");
                assert!(record.replay_service_spans > 0, "{position}");
                assert!(record.trace_json.contains("replay_inject"));
                let journaled = |name| telemetry.events.iter().any(|e| e.kind.name() == name);
                assert!(journaled("replay_complete"), "{position}: journal");
            }
        }
    }
}
