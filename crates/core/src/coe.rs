//! Chain output equivalence (COE) checking.
//!
//! COE (§1) requires that the collective action of all NF instances in a
//! physical chain matches that of a hypothetical chain of single,
//! infinite-capacity NFs processing packets in arrival order. This module
//! runs that *ideal chain* over a trace on the run-to-completion driver
//! ([`InlineChain`]) and provides helpers for comparing the real chain's
//! observable behaviour (delivered packets and alerts) against it — the
//! paper's correctness criterion, used by the integration tests and the
//! R4/R5/R6 experiments.

use crate::config::ChainConfig;
use crate::dag::LogicalDag;
use crate::inline::InlineChain;
use chc_packet::{PacketId, Trace};
use chc_sim::VirtualTime;
use chc_store::Clock;
use std::collections::HashMap;

/// Result of running the ideal single-instance, no-failure chain.
pub struct IdealChainResult {
    /// Packet ids delivered by the chain exits, in processing order.
    pub delivered: Vec<PacketId>,
    /// Alerts raised anywhere in the chain, in `(clock, message)` order.
    pub alerts: Vec<(Clock, String)>,
}

/// Run the ideal chain: one instance per vertex, infinite capacity, packets
/// processed strictly in arrival order, no failures or reallocation.
pub fn run_ideal_chain(dag: &LogicalDag, trace: &Trace) -> IdealChainResult {
    let mut chain = InlineChain::new(dag, &ChainConfig::default());
    for (i, pkt) in trace.iter().enumerate() {
        let now = VirtualTime::from_nanos(pkt.arrival_ns);
        chain.step(pkt, Clock(i as u64 + 1), now);
    }

    // Alerts in `(clock, message)` order: clocks rise with the trace, and
    // one packet's alerts keep the order the vertices raised them in.
    let mut alerts: Vec<(Clock, String)> = (0..dag.vertices().len())
        .flat_map(|i| chain.core(i).counters().alerts.iter().cloned())
        .collect();
    alerts.sort_by_key(|(clock, _)| *clock);

    let delivered = chain.sink.delivered_ids;
    IdealChainResult { delivered, alerts }
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

    for id in actual_set.difference(&ideal_set) {
        violations.push(format!(
            "packet {id} delivered but the ideal chain dropped it"
        ));
    }
    if !allow_loss {
        for id in ideal_set.difference(&actual_set) {
            violations.push(format!("packet {id} missing from the chain output"));
        }
    }
    if duplicates_at_sink > 0 {
        violations.push(format!(
            "{duplicates_at_sink} duplicate packets reached the end host"
        ));
    }

    // Each alert message's count on the ideal chain and on the chain.
    let mut counts: HashMap<&str, (i64, i64)> = HashMap::new();
    for (_, m) in &ideal.alerts {
        counts.entry(m).or_default().0 += 1;
    }
    for (_, m) in alerts {
        counts.entry(m).or_default().1 += 1;
    }
    for (msg, (n, got)) in counts {
        if got < n {
            violations.push(format!(
                "alert {msg:?}: ideal chain raised {n}, chain raised {got}"
            ));
        } else if got > n {
            violations.push(format!(
                "alert {msg:?}: chain raised {got}, ideal chain raised only {n}"
            ));
        }
    }
    violations
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_kind_of_difference_is_a_violation_and_loss_only_when_barred() {
        let alert = |counter, m: &str| (Clock(counter), m.to_string());
        let ideal = IdealChainResult {
            delivered: vec![PacketId(1), PacketId(2)],
            alerts: vec![alert(1, "scan"), alert(2, "scan"), alert(2, "trojan")],
        };
        let same = coe_violations(&ideal, &[PacketId(2), PacketId(1)], 0, &ideal.alerts, false);
        assert!(same.is_empty(), "{same:?}");
        let lossy = coe_violations(&ideal, &[PacketId(2)], 0, &ideal.alerts, true);
        assert!(lossy.is_empty(), "{lossy:?}");

        let alerts = [alert(1, "scan"), alert(3, "blocked"), alert(4, "blocked")];
        let delivered = [PacketId(2), PacketId(3)];
        let mut found = coe_violations(&ideal, &delivered, 4, &alerts, false);
        found.sort();
        assert_eq!(
            found,
            [
                "4 duplicate packets reached the end host",
                "alert \"blocked\": chain raised 2, ideal chain raised only 0",
                "alert \"scan\": ideal chain raised 2, chain raised 1",
                "alert \"trojan\": ideal chain raised 1, chain raised 0",
                "packet pkt#1 missing from the chain output",
                "packet pkt#3 delivered but the ideal chain dropped it",
            ]
        );
    }
}
