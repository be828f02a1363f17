//! The duplicate windows have a bound: the sink keeps one bit per injected
//! clock, and an instance's input-queue window (fault mode) is pruned at the
//! instance's own watermark, through every failover and after it. Both
//! exits, healthy and fail-stopped, report it. The packet logs, cut at their
//! commit frontiers alone, never hold more than a small fraction of the
//! trace, however many kills a run has.

use chc_core::root::ROOT_VERTEX;
use chc_core::{ChainConfig, ClockWindow, LogicalDag, VertexSpec};
use chc_nf::{Firewall, LoadBalancer, Nat};
use chc_packet::{Trace, TraceConfig, TraceGenerator};
use chc_runtime::{run_chain_realtime, FaultPlan, RuntimeConfig, RuntimeReport};
use chc_store::VertexId;
use std::rc::Rc;

/// The first `len` vertices of firewall → NAT → load balancer.
fn chain(len: usize) -> LogicalDag {
    let mut specs = vec![
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
    ];
    specs.truncate(len);
    LogicalDag::linear(specs)
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
    run_on(&chain(2), rt, trace)
}

fn run_on(dag: &LogicalDag, rt: RuntimeConfig, trace: &Trace) -> RuntimeReport {
    let report = run_chain_realtime(dag, ChainConfig::default(), &rt, trace).unwrap();
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

/// Every instance's window, the dead ones' included, holds one page.
fn assert_windows_one_page(report: &RuntimeReport, what: &str) {
    for inst in report.instances.iter().chain(&report.failed_instances) {
        assert!(
            inst.dedup_window_bytes <= ClockWindow::PAGE_BYTES,
            "{what}: instance {:?} kept {} bytes",
            inst.instance,
            inst.dedup_window_bytes
        );
    }
}

#[test]
fn instance_window_is_pruned_at_the_watermark_through_a_kill() {
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

    // A kill changes nothing: a ring's frontier is its producer's stamp,
    // which never passes a copy the dead firewall lost, so the NAT prunes
    // on through the failover, and so does the replacement.
    let kill = run(
        RuntimeConfig::with_batch_size(32).with_fault(FaultPlan::new().kill(VertexId(1), 0, n / 2)),
        &trace,
    );
    assert!(kill.instances.iter().any(|i| i.vertex == VertexId(2)));
    assert_windows_one_page(&kill, "firewall kill");

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
    assert_windows_one_page(&nat_kill, "NAT kill");
}

#[test]
fn the_frontier_alone_bounds_every_packet_log() {
    // A mid-chain NAT kill, which arms the firewall's egress log, and a
    // tail kill. The engine cuts each log at its own commit frontier and
    // deletes nothing else, yet a log holds an eighth of the trace at most:
    // the root cuts every log once per page of its own, so the root's and
    // the armed upstream's stay within the rings' depth and a page of the
    // frontier. A stalled thread stalls the rings and with them the root's
    // injection, so the bound holds on every run; each plan runs three
    // times.
    let trace = long_trace(7);
    let n = trace.len() as u64;
    for (len, plan) in [(3, "mid-chain"), (2, "tail")] {
        for _ in 0..3 {
            let rt = RuntimeConfig::with_batch_size(32).with_fault(FaultPlan::new().kill(
                VertexId(2),
                0,
                n / 2,
            ));
            let report = run_on(&chain(len), rt, &trace);
            assert_eq!(report.injected, n);
            let fault = report.fault.as_ref().expect("a fault report");
            let [egress] = fault.vertex_logs[..] else {
                panic!("{plan}: not one armed egress log: {:?}", fault.vertex_logs);
            };
            for (vertex, high) in [
                (ROOT_VERTEX, fault.log_high_water),
                (egress.vertex, egress.high_water),
            ] {
                assert!(high > 0, "{plan}: log {vertex} never held a packet");
                assert!(
                    high as u64 * 8 < n,
                    "{plan}: log {vertex} held {high} of {n} packets"
                );
            }
        }
    }
}

#[test]
fn two_kills_leave_every_log_and_window_bounded() {
    // The firewall killed at n/4 and the load balancer at 3n/4: the root's
    // log feeds the first replay, the NAT's egress log the second. Every
    // log is cut at its frontier and every window pruned at its watermark
    // through both failovers and between them, so each log holds an eighth
    // of the trace at most and each window one page. Three runs.
    let trace = long_trace(7);
    let n = trace.len() as u64;
    for run_no in 0..3 {
        let plan = FaultPlan::new()
            .kill(VertexId(1), 0, n / 4)
            .kill(VertexId(3), 0, 3 * n / 4);
        let rt = RuntimeConfig::with_batch_size(32).with_fault(plan);
        let report = run_on(&chain(3), rt, &trace);
        let what = format!("run {run_no}");
        assert_eq!(report.injected, n);
        let fault = report.fault.as_ref().expect("a fault report");
        assert_eq!(fault.recoveries.len(), 2, "{what}");
        let [egress] = fault.vertex_logs[..] else {
            panic!("{what}: not one armed egress log: {:?}", fault.vertex_logs);
        };
        assert_eq!(egress.vertex, VertexId(2), "{what}: the NAT logs");
        for (vertex, high) in [
            (ROOT_VERTEX, fault.log_high_water),
            (egress.vertex, egress.high_water),
        ] {
            assert!(high > 0, "{what}: log {vertex} never held a packet");
            assert!(
                high as u64 * 8 <= n,
                "{what}: log {vertex} held {high} of {n} packets"
            );
        }
        assert_windows_one_page(&report, &what);
    }
}
