//! The duplicate windows have a bound: the sink keeps one bit per injected
//! clock, and an instance's input-queue window (fault mode) is pruned at the
//! instance's own watermark until the first fail-stop, after which it grows
//! by one bit per packet. Both exits, healthy and fail-stopped, report it.

use chc_core::{ChainConfig, ClockWindow, LogicalDag, VertexSpec};
use chc_nf::{Firewall, Nat};
use chc_packet::{Trace, TraceConfig, TraceGenerator};
use chc_runtime::{run_chain_realtime, FaultPlan, RuntimeConfig, RuntimeReport};
use chc_store::VertexId;
use std::rc::Rc;

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

/// Long flows, so the trace spans several window pages.
fn long_trace(seed: u64) -> Trace {
    let trace = TraceGenerator::new(TraceConfig {
        seed,
        connections: 250,
        mean_packets_per_connection: 300,
        ..TraceConfig::default()
    })
    .generate();
    assert!(
        trace.len() as u64 > 2 * ClockWindow::PAGE_BITS,
        "trace of {} packets does not span three pages",
        trace.len()
    );
    trace
}

fn run(rt: RuntimeConfig, trace: &Trace) -> RuntimeReport {
    let report = run_chain_realtime(&firewall_nat(), ChainConfig::default(), &rt, trace).unwrap();
    assert_eq!(report.duplicates, 0);
    let inv = report.invariants.as_ref().expect("sentinel on by default");
    assert!(inv.ok(), "sentinel violations: {:?}", inv.violations);
    report
}

/// ⌈N/8⌉ bytes plus one page.
fn whole_window_bound(packets: u64) -> usize {
    (packets as usize).div_ceil(8) + ClockWindow::PAGE_BYTES
}

#[test]
fn sink_window_is_a_bit_per_injected_packet() {
    let trace = long_trace(5);
    let report = run(RuntimeConfig::with_batch_size(32), &trace);
    assert!(report.sink_window_bytes >= ClockWindow::PAGE_BYTES);
    assert!(
        report.sink_window_bytes <= whole_window_bound(report.injected),
        "sink window holds {} bytes for {} packets",
        report.sink_window_bytes,
        report.injected
    );
    // No fault plan, no duplicate tracking at the input queues at all.
    assert!(report.instances.iter().all(|i| i.dedup_window_bytes == 0));
}

#[test]
fn instance_window_is_pruned_at_the_watermark_until_something_fails() {
    let trace = long_trace(6);
    let n = trace.len() as u64;

    // Fault mode with nothing fail-stopping (a shard restart only): every
    // instance ends with its watermark at its last counter, so the window
    // holds (last_counter − watermark) = 0 bits plus at most the one page
    // the watermark sits in — not the three pages the trace spans.
    let restart = run(
        RuntimeConfig::with_batch_size(32).with_fault(FaultPlan::new().restart_shard(
            0,
            n / 2,
            None,
        )),
        &trace,
    );
    assert_eq!(restart.instances.len(), 2);
    for inst in &restart.instances {
        assert!(inst.processed > ClockWindow::PAGE_BITS);
        assert!(
            inst.dedup_window_bytes <= ClockWindow::PAGE_BYTES,
            "instance {:?} kept {} bytes",
            inst.instance,
            inst.dedup_window_bytes
        );
    }

    // With a kill the windows stop pruning at the fail-stop (replayed clocks
    // may then fill gaps below a watermark), so they grow — by a bit per
    // packet, never past the whole-window bound.
    let kill = run(
        RuntimeConfig::with_batch_size(32).with_fault(FaultPlan::new().kill(VertexId(1), 0, n / 2)),
        &trace,
    );
    let nat = kill
        .instances
        .iter()
        .find(|i| i.vertex == VertexId(2))
        .expect("nat survived");
    assert!(nat.dedup_window_bytes > ClockWindow::PAGE_BYTES);
    for inst in kill.instances.iter().chain(&kill.failed_instances) {
        assert!(inst.dedup_window_bytes <= whole_window_bound(n));
    }

    // A fail-stopped instance reports the window it died with, too.
    let nat_kill = run(
        RuntimeConfig::with_batch_size(32).with_fault(FaultPlan::new().kill(VertexId(2), 0, n / 2)),
        &trace,
    );
    let killed = nat_kill
        .failed_instances
        .iter()
        .find(|i| i.vertex == VertexId(2))
        .expect("the killed nat reports");
    assert!(killed.dedup_window_bytes > 0);
    assert!(killed.dedup_window_bytes <= whole_window_bound(n));
}
