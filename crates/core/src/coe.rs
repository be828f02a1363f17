//! Chain output equivalence (COE) checking.
//!
//! COE (§1) requires that the collective action of all NF instances in a
//! physical chain matches that of a hypothetical chain of single,
//! infinite-capacity NFs processing packets in arrival order. This module
//! runs that *ideal chain* over a trace and provides helpers for comparing
//! the real chain's observable behaviour (delivered packets, alerts, final
//! shared state) against it — the paper's correctness criterion, used by the
//! integration tests and the R4/R5/R6 experiments.

use crate::config::{ChainConfig, ExternalizationMode};
use crate::dag::LogicalDag;
use crate::nf::{Action, NetworkFunction, NfContext};
use crate::state::{SharedStore, StateClient};
use chc_packet::{Packet, PacketId, Trace};
use chc_sim::VirtualTime;
use chc_store::{Clock, InstanceId, StoreServer, VertexId};
use std::collections::HashMap;
use std::sync::Arc;

/// Result of running the ideal single-instance, no-failure chain.
pub struct IdealChainResult {
    /// Packet ids delivered by the chain exits, in processing order.
    pub delivered: Vec<PacketId>,
    /// Alerts raised anywhere in the chain, in `(clock, message)` order.
    pub alerts: Vec<(Clock, String)>,
    /// The ideal chain's final externalized state.
    pub store: Arc<StoreServer>,
    /// Packet ids dropped by NF decisions.
    pub dropped: Vec<PacketId>,
}

/// Run the ideal chain: one instance per vertex, infinite capacity, packets
/// processed strictly in arrival order, no failures or reallocation.
pub fn run_ideal_chain(dag: &LogicalDag, trace: &Trace) -> IdealChainResult {
    let order = dag.topo_order().expect("valid DAG");
    let store = SharedStore::new();
    let config = ChainConfig::with_mode(ExternalizationMode::ExternalizedCachedNonBlocking);

    // One NF + client per vertex. Ideal instances get ids above any the
    // physical chain would use so their per-flow keys never collide.
    let mut nfs: HashMap<VertexId, (Box<dyn NetworkFunction>, StateClient)> = HashMap::new();
    for (i, v) in dag.vertices().iter().enumerate() {
        let nf = v.build_nf();
        let objects = nf.state_objects();
        let client = StateClient::new(
            v.id,
            InstanceId(1_000_000 + i as u32),
            Box::new(store.clone()),
            config.mode,
            config.costs,
            &objects,
        );
        nfs.insert(v.id, (nf, client));
    }

    let exits = dag.exits();
    let mut delivered = Vec::new();
    let mut dropped = Vec::new();
    let mut alerts = Vec::new();

    for (i, pkt) in trace.iter().enumerate() {
        let clock = Clock::with_root(0, i as u64 + 1);
        // Inputs per vertex for this packet (entry vertices see the packet).
        let mut inputs: HashMap<VertexId, Vec<Packet>> = HashMap::new();
        for entry in dag.entries() {
            inputs.entry(entry).or_default().push(pkt.clone());
        }
        for vertex in &order {
            let Some(packets) = inputs.remove(vertex) else {
                continue;
            };
            let off_path = dag.vertex(*vertex).map(|v| v.off_path).unwrap_or(false);
            let (nf, client) = nfs.get_mut(vertex).expect("nf exists");
            for input in packets {
                let mut ctx =
                    NfContext::new(client, clock, VirtualTime::from_nanos(pkt.arrival_ns));
                let action = nf.process(&input, &mut ctx);
                for alert in ctx.take_alerts() {
                    alerts.push((clock, alert));
                }
                client.take_charge();
                client.take_packet_tokens();
                client.take_pending_callbacks();
                match action {
                    Action::Drop => {
                        if exits.contains(vertex) {
                            dropped.push(input.id);
                        }
                    }
                    Action::Forward(out) => {
                        if off_path {
                            continue;
                        }
                        if exits.contains(vertex) {
                            delivered.push(out.id);
                        }
                        for d in dag.downstream_of(*vertex) {
                            inputs.entry(d).or_default().push(out.clone());
                        }
                    }
                }
            }
        }
    }

    IdealChainResult {
        delivered,
        alerts,
        store,
        dropped,
    }
}

/// Compare a physical chain's observable output against the ideal chain.
///
/// Returns a list of human-readable violations; an empty list means COE holds
/// for the properties checked:
///
/// * every packet delivered by the physical chain was also delivered by the
///   ideal chain (no spurious forwarding or un-dropped packets),
/// * the physical chain delivered no duplicates (checked by the caller via
///   the sink's duplicate counter, passed in),
/// * the multisets of alert messages match (same detections, e.g. the same
///   Trojans found and the same hosts blocked).
///
/// Packet *loss* relative to the ideal chain is only a violation when
/// `allow_loss` is false: the COE definition permits behaviours equivalent to
/// network drops (e.g. packets that were in flight when a root failed,
/// Theorem B.3.1), so recovery experiments pass `allow_loss = true`.
pub fn coe_violations(
    ideal: &IdealChainResult,
    delivered: &[PacketId],
    duplicates_at_sink: u64,
    alerts: &[(Clock, String)],
    allow_loss: bool,
) -> Vec<String> {
    let mut violations = Vec::new();

    let ideal_set: std::collections::HashSet<PacketId> = ideal.delivered.iter().copied().collect();
    let actual_set: std::collections::HashSet<PacketId> = delivered.iter().copied().collect();

    for id in &actual_set {
        if !ideal_set.contains(id) {
            violations.push(format!(
                "packet {id} delivered but the ideal chain dropped it"
            ));
        }
    }
    if !allow_loss {
        for id in &ideal_set {
            if !actual_set.contains(id) {
                violations.push(format!("packet {id} missing from the chain output"));
            }
        }
    }
    if duplicates_at_sink > 0 {
        violations.push(format!(
            "{duplicates_at_sink} duplicate packets reached the end host"
        ));
    }

    let mut ideal_alerts: HashMap<String, i64> = HashMap::new();
    for (_, m) in &ideal.alerts {
        *ideal_alerts.entry(m.clone()).or_default() += 1;
    }
    let mut actual_alerts: HashMap<String, i64> = HashMap::new();
    for (_, m) in alerts {
        *actual_alerts.entry(m.clone()).or_default() += 1;
    }
    for (msg, n) in &ideal_alerts {
        let got = actual_alerts.get(msg).copied().unwrap_or(0);
        if got < *n {
            violations.push(format!(
                "alert {msg:?}: ideal chain raised {n}, chain raised {got}"
            ));
        }
    }
    for (msg, n) in &actual_alerts {
        let expected = ideal_alerts.get(msg).copied().unwrap_or(0);
        if *n > expected {
            violations.push(format!(
                "alert {msg:?}: chain raised {n}, ideal chain raised only {expected}"
            ));
        }
    }
    violations
}
