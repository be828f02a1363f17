//! Safe fault recovery (R1/R6): crash an NF instance, the root and the
//! datastore in turn, recover each, and show that the end host never sees
//! duplicates and shared state survives.
//!
//! Run with: `cargo run --example fault_recovery`

use chc::prelude::*;
use chc_core::LogicalDag;
use chc_store::{ObjectKey, StateKey, VertexId};
use std::rc::Rc;

fn main() {
    let dag = LogicalDag::linear(vec![
        VertexSpec::new(1, "nat", Rc::new(|| Box::new(Nat::default()))),
        VertexSpec::new(
            2,
            "portscan",
            Rc::new(|| Box::new(PortscanDetector::default())),
        ),
    ]);
    let mut chain = ChainController::new(dag, ChainConfig::default(), 99).unwrap();
    let trace = TraceGenerator::new(TraceConfig::small(99)).generate();
    chain.inject_trace(&trace);

    let quarter = |i: usize| VirtualTime::from_nanos(trace.packets[trace.len() * i / 4].arrival_ns);

    // 1. NF failure: the NAT crashes, a failover instance takes over its
    //    externalized state and the root replays in-flight packets to it.
    chain.run_until(quarter(1));
    chain.checkpoint_store();
    println!("[{}] NAT instance crashes", chain.now());
    chain.fail_instance(VertexId(1), 0);
    let failover = chain.failover_instance(VertexId(1), 0);
    println!("    failover instance {failover} takes over, replay requested");

    // 2. Datastore failure: shared state is rebuilt from the checkpoint plus
    //    the instances' write-ahead logs; per-flow state comes back from the
    //    instances' caches.
    chain.run_until(quarter(2));
    let counter = StateKey::shared(VertexId(1), ObjectKey::named(chc::nf::nat::PKT_COUNT));
    let before = chain.store.peek(&counter);
    println!(
        "[{}] datastore instance crashes (NAT pkt_count = {before})",
        chain.now()
    );
    chain.fail_store();
    let report = chain.recover_store();
    let after = chain.store.peek(&counter);
    println!(
        "    recovered: case {}, {} ops replayed, {} per-flow objects restored, pkt_count = {after}",
        report.case, report.replayed_ops, report.per_flow_restored
    );

    // 3. Root failure: the failover root reads the persisted clock and
    //    resumes; packets logged only at the failed root are lost exactly as
    //    network drops would be.
    chain.run_until(quarter(3));
    println!("[{}] root crashes", chain.now());
    chain.fail_root();
    chain.recover_root();
    println!("    failover root resumes from the persisted logical clock");

    chain.run();
    let metrics = chain.metrics();
    println!(
        "\nend of trace: {} packets delivered, {} duplicates at the end host, {} alerts",
        metrics.sink_delivered,
        metrics.sink_duplicates,
        metrics.alerts().len()
    );
    assert_eq!(
        metrics.sink_duplicates, 0,
        "R6: recovery must never duplicate output"
    );
    assert_eq!(
        metrics.sink_replay_shadows, 0,
        "R6: no replayed copy may reach the end host twice either"
    );
}
