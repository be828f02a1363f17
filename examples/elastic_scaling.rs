//! Elastic scaling: add a second NAT instance mid-trace and move a slice of
//! flows onto it with the Figure 4 handover protocol (loss-free and
//! order-preserving), then verify chain output equivalence.
//!
//! Run with: `cargo run --example elastic_scaling`

use chc::prelude::*;
use chc_core::coe::{coe_violations, run_ideal_chain};
use chc_core::LogicalDag;
use chc_packet::Scope;
use chc_store::VertexId;
use std::collections::BTreeSet;
use std::rc::Rc;

fn chain_dag() -> LogicalDag {
    LogicalDag::linear(vec![
        VertexSpec::new(1, "nat", Rc::new(|| Box::new(Nat::default()))),
        VertexSpec::new(
            2,
            "portscan",
            Rc::new(|| Box::new(PortscanDetector::default())),
        ),
    ])
}

fn main() {
    let trace = TraceGenerator::new(TraceConfig::small(7)).generate();
    let ideal = run_ideal_chain(&chain_dag(), &trace);

    let mut chain = ChainController::new(chain_dag(), ChainConfig::default(), 7).unwrap();
    chain.inject_trace(&trace);

    // Process half of the trace on one NAT instance.
    let mid = trace.packets[trace.len() / 2].arrival_ns;
    chain.run_until(VirtualTime::from_nanos(mid));
    println!("half-way point reached at {}", chain.now());

    // Scale up and reallocate 50 flows to the new instance. The old instance
    // flushes and releases their per-flow state; the new instance buffers
    // their packets until the handover completes.
    let (new_instance, new_index) = chain.scale_up(VertexId(1));
    let keys: Vec<_> = trace
        .packets
        .iter()
        .map(|p| Scope::FiveTuple.key_of(p))
        .collect::<BTreeSet<_>>()
        .into_iter()
        .take(50)
        .collect();
    let start = chain.now();
    chain.move_flows(VertexId(1), &keys, new_index);
    chain.run();

    let handover = chain
        .with_instance(VertexId(1), new_index, |a| a.handover_completed_at)
        .flatten();
    println!(
        "moved {} flow groups to instance {new_instance}; handover completed in {:.3} ms",
        keys.len(),
        handover.map(|t| (t - start).as_millis_f64()).unwrap_or(0.0)
    );

    let metrics = chain.metrics();
    for inst in metrics.vertex(VertexId(1)) {
        println!(
            "  NAT instance {:?} processed {} packets (median {:.2} us)",
            inst.instance,
            inst.counters.processed,
            inst.proc_time.p50.as_micros_f64()
        );
    }

    let violations = coe_violations(
        &ideal,
        &chain.delivered_ids(),
        metrics.sink_duplicates,
        &metrics.alerts(),
        false,
    );
    println!(
        "chain output equivalence after scaling: {}",
        if violations.is_empty() {
            "HOLDS".to_string()
        } else {
            format!("VIOLATED: {violations:?}")
        }
    );
}
