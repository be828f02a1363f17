//! Quickstart: deploy a three-NF CHC chain, push a synthetic trace through
//! it, and print per-instance latency/throughput plus the chain's alerts.
//!
//! Run with: `cargo run --example quickstart`

use chc::prelude::*;
use chc_core::LogicalDag;
use chc_store::VertexId;
use std::rc::Rc;

fn main() {
    // 1. Describe the logical chain: NAT → portscan detector → load balancer.
    let dag = LogicalDag::linear(vec![
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

    // 2. Deploy it with the full CHC state-management design (externalized
    //    state, caching, non-blocking updates).
    let config = ChainConfig::default();
    let mut chain = ChainController::new(dag, config, 42).expect("valid chain");

    // 3. Generate a synthetic trace (the paper uses campus→EC2 captures; see
    //    DESIGN.md for the substitution) with a few port scanners in it.
    let trace = TraceGenerator::new(TraceConfig::small(42).with_scanners(0.1)).generate();
    println!("input trace: {:?}", trace.stats());

    // 4. Run the chain to completion and inspect what happened.
    chain.inject_trace(&trace);
    chain.run();
    let metrics = chain.metrics();

    println!("\nper-instance results:");
    for inst in &metrics.instances {
        println!(
            "  vertex {:?} instance {:?}: {} packets, median proc {:.2} us, {:.2} Gbps",
            inst.vertex,
            inst.instance,
            inst.processed,
            inst.proc_time.p50.as_micros_f64(),
            inst.throughput_gbps
        );
    }
    println!(
        "\nend host received {} packets ({} duplicates)",
        metrics.sink_delivered, metrics.sink_duplicates
    );
    println!(
        "root logged {} packets, deleted {}",
        metrics.root.packets_in, metrics.root.deleted
    );

    println!("\nalerts raised by the chain:");
    for (clock, alert) in metrics.alerts() {
        println!("  [{clock}] {alert}");
    }

    // 5. Shared state is externalized: read the NAT's packet counter straight
    //    from the store.
    let key = chc_store::StateKey::shared(
        VertexId(1),
        chc_store::ObjectKey::named(chc::nf::nat::PKT_COUNT),
    );
    println!(
        "\nNAT total packet counter in the store: {}",
        chain.store.peek(&key)
    );
}
