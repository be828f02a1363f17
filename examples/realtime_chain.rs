//! Run the firewall → NAT → load-balancer chain on the real-thread engine,
//! scale the NAT out mid-trace, and print throughput/latency plus the final
//! shared-state digest.
//!
//! Usage: `cargo run --release --example realtime_chain`

use chc::prelude::*;
use chc_core::LogicalDag;
use chc_core::VertexSpec;
use std::rc::Rc;

fn main() {
    let dag = LogicalDag::linear(vec![
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
    ]);

    let trace = TraceGenerator::new(TraceConfig::small(7)).generate();
    println!("trace: {} packets", trace.len());

    // Scale the NAT from one to two instances halfway through the trace.
    // The cut is keyed on the logical clock, so it lands on the same packet
    // on every run (and on the simulator).
    let cut = (trace.len() / 2) as u64;
    let rt_cfg = RuntimeConfig::with_batch_size(32).with_scale(VertexId(2), cut);

    let report =
        run_chain_realtime(&dag, ChainConfig::default(), &rt_cfg, &trace).expect("valid chain");

    let latency = report.latency_summary();
    println!(
        "delivered {} / {} packets ({} duplicates) in {:?}",
        report.delivered, report.injected, report.duplicates, report.elapsed
    );
    println!(
        "throughput: {:.0} pps, {:.3} Gbps",
        report.pps(),
        report.gbps()
    );
    println!("root→sink latency: p50={} p95={}", latency.p50, latency.p95);
    for inst in &report.instances {
        println!(
            "  {} {}: processed {} (dropped {}), {} input batches",
            inst.vertex, inst.instance, inst.processed, inst.dropped_by_nf, inst.batches_in
        );
    }
    println!(
        "store: {} ops across shards {:?}",
        report.store_ops, report.store_ops_per_shard
    );
    if let Some(telemetry) = &report.telemetry {
        println!("latency decomposition (mean per timed packet, 1 in 16):");
        for stage in &telemetry.stages {
            println!(
                "  vertex {}: queue {:.1} us + service {:.1} us + store {:.1} us",
                stage.vertex.0,
                stage.queue.mean_ns / 1e3,
                stage.service.mean_ns / 1e3,
                stage.store.mean_ns / 1e3
            );
        }
        println!(
            "  sink wait {:.1} us; components sum to {:.1} us vs e2e mean {:.1} us",
            telemetry.sink_wait.mean_ns / 1e3,
            telemetry.decomposed_mean_ns() / 1e3,
            report.latency.mean() / 1e3
        );
    }
    println!("shared state digest:");
    for (key, value) in report.shared_digest() {
        let rendered = if value.len() > 60 {
            format!("{}…", value.chars().take(60).collect::<String>())
        } else {
            value
        };
        println!("  {key} = {rendered}");
    }
}
