//! Smoke tests of the real-thread engine: chains run to completion, deliver
//! every packet exactly once, and populate the sharded store.

use chc_core::{ChainConfig, LogicalDag, VertexSpec, TIMED_PERIOD};
use chc_nf::{Firewall, LoadBalancer, Nat};
use chc_packet::{TraceConfig, TraceGenerator};
use chc_runtime::{run_chain_realtime, RuntimeConfig, RuntimeError};
use chc_store::VertexId;
use std::rc::Rc;

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
