//! Measurements and state digests produced by a real-thread chain run.

use crate::fault::FaultReport;
use crate::telemetry::TelemetryReport;
use chc_core::root::ROOT_VERTEX;
use chc_sim::{SimDuration, Summary};
use chc_store::{Clock, InstanceId, StateKey, Value, VertexId};
use chc_telemetry::StreamingHistogram;
use std::collections::BTreeMap;
use std::time::Duration;

/// Per-instance counters harvested when an instance thread exits.
#[derive(Debug, Clone)]
pub struct RuntimeInstanceReport {
    /// Vertex the instance belongs to.
    pub vertex: VertexId,
    /// Instance id (matches the id the simulator would assign).
    pub instance: InstanceId,
    /// Packets fully processed.
    pub processed: u64,
    /// Packets the NF decided to drop.
    pub dropped_by_nf: u64,
    /// Duplicate clocks suppressed at the input queue (§5.3; nonzero only
    /// when a fault plan re-sends traffic through replay or re-injection).
    pub suppressed_duplicates: u64,
    /// Alerts raised by the NF, with the packet clock that triggered them.
    pub alerts: Vec<(Clock, String)>,
    /// Ring-transfer batches consumed (shows batching effectiveness:
    /// `processed / batches_in` approaches the configured batch size under
    /// load).
    pub batches_in: u64,
    /// Resident bytes of the input queue's duplicate window
    /// ([`chc_core::ClockWindow`]) when the instance exited: 0 on a run
    /// without a fault plan, which tracks no duplicates at all.
    pub dedup_window_bytes: usize,
    /// Buffered store entries refused (`StateClientStats::buffered_refused`).
    pub buffered_refused: u64,
}

/// Result of one [`crate::run_chain_realtime`] run.
#[derive(Debug, Clone, Default)]
pub struct RuntimeReport {
    /// Distinct packets delivered to the sink.
    pub delivered: usize,
    /// Duplicate packets observed at the sink (same clock twice) — must stay
    /// zero in every healthy run *and* in every failover run (replayed
    /// traffic is suppressed before it can re-reach the end host).
    pub duplicates: u64,
    /// The clock of every duplicate sink arrival, in arrival order: the
    /// sink accounts duplicates exactly rather than silently deduplicating,
    /// so tests can assert the precise expected multiset.
    pub duplicate_clocks: Vec<Clock>,
    /// Trace packet ids delivered, in sink arrival order.
    pub delivered_ids: Vec<chc_packet::PacketId>,
    /// Replay-marked copies the sink absorbed because their clock had
    /// already been delivered — the re-delivery window of mid-chain, tail
    /// and root failovers. Counted separately from `duplicates`: these are
    /// the *expected* shadow of replay-based recovery (at most the copies
    /// the replacements replayed), not an exactly-once violation, and they
    /// never enter `duplicate_clocks`.
    pub replay_window_suppressed: u64,
    /// Bytes delivered to the sink.
    pub delivered_bytes: u64,
    /// Packets injected by the root.
    pub injected: u64,
    /// Wall-clock duration from first injection to sink completion.
    pub elapsed: Duration,
    /// Root→sink latency (wall clock) of the delivered *timed* packets —
    /// every [`chc_core::TIMED_PERIOD`]-th clock counter plus every packet
    /// of a traced flow — so its `len()` is that count, not `delivered`. A
    /// bounded streaming histogram: summaries need only `&self`;
    /// percentiles carry ≤ ~3% bucket quantization (count/mean/min/max stay
    /// exact).
    pub latency: StreamingHistogram,
    /// Resident bytes of the sink's duplicate window at exit: one bit per
    /// injected clock, rounded up to [`chc_core::ClockWindow`] pages.
    pub sink_window_bytes: usize,
    /// Per-instance counters of every instance alive at the end of the run
    /// (failover replacements included).
    pub instances: Vec<RuntimeInstanceReport>,
    /// Partial counters of instances that fail-stopped mid-run. Kept out of
    /// [`RuntimeReport::alerts`], matching the simulator, whose metrics
    /// harvest only covers the instances deployed at harvest time.
    pub failed_instances: Vec<RuntimeInstanceReport>,
    /// Total operations the store served.
    pub store_ops: u64,
    /// Operations served by each store shard.
    pub store_ops_per_shard: Vec<u64>,
    /// Clock-tagged updates the store still held for duplicate suppression
    /// at the end of the run: 0 without a fault plan (the replay floor
    /// starts at the top), otherwise bounded by the packets from
    /// `store_replay_floor` up.
    pub store_update_log_len: usize,
    /// The store's final replay floor: the lowest clock counter a packet
    /// log could still have replayed.
    pub store_replay_floor: u64,
    /// Final store content as `(canonical key, value, owner)`.
    pub final_state: Vec<(StateKey, Value, Option<InstanceId>)>,
    /// Recovery metrics, present when a fault plan was active: per-failover
    /// packets replayed and recovery wall-clock time, shard restarts, and
    /// the packet log's high-water mark and truncation counters.
    pub fault: Option<FaultReport>,
    /// Telemetry section — per-stage latency decomposition, gauge time
    /// series from the monitor thread, and the control-plane event journal.
    /// Present unless the run disabled every [`crate::TelemetryConfig`]
    /// switch.
    pub telemetry: Option<TelemetryReport>,
    /// Invariant-sentinel section, present when
    /// [`crate::TelemetryConfig::observers`] were on: every detected
    /// violation (empty in a correct run) plus the counters proving how
    /// much was checked — journal events, sink deliveries, and the ring
    /// conservation ledger.
    pub invariants: Option<chc_telemetry::SentinelReport>,
}

impl RuntimeReport {
    /// Buffered store entries refused, failed instances included: 0 if correct.
    pub fn buffered_refused(&self) -> u64 {
        let all = self.instances.iter().chain(&self.failed_instances);
        all.map(|i| i.buffered_refused).sum()
    }

    /// End-to-end throughput in packets per second.
    pub fn pps(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s > 0.0 {
            self.delivered as f64 / s
        } else {
            0.0
        }
    }

    /// End-to-end goodput in Gbit/s.
    pub fn gbps(&self) -> f64 {
        let s = self.elapsed.as_secs_f64();
        if s > 0.0 {
            (self.delivered_bytes as f64 * 8.0) / s / 1e9
        } else {
            0.0
        }
    }

    /// Five-number summary of the root→sink wall-clock latency. Takes
    /// `&self`: the streaming histogram summarizes from a snapshot of its
    /// atomics, with no sort-on-read (the exact `chc_sim::Histogram`
    /// remains available where tests need exact percentiles).
    pub fn latency_summary(&self) -> Summary {
        let p = |p: f64| SimDuration::from_nanos(self.latency.percentile(p));
        Summary {
            p5: p(5.0),
            p25: p(25.0),
            p50: p(50.0),
            p75: p(75.0),
            p95: p(95.0),
            mean: SimDuration::from_nanos(self.latency.mean() as u64),
            count: self.latency.len(),
        }
    }

    /// All alerts raised anywhere in the chain, sorted by packet clock.
    pub fn alerts(&self) -> Vec<(Clock, String)> {
        let mut alerts: Vec<(Clock, String)> = self
            .instances
            .iter()
            .flat_map(|r| r.alerts.clone())
            .collect();
        alerts.sort();
        alerts
    }

    /// Digest of the final shared state (see [`shared_state_digest`]),
    /// excluding framework metadata persisted under the root's pseudo
    /// vertex — it has no NF-state meaning and differs legitimately across
    /// substrates.
    pub fn shared_digest(&self) -> BTreeMap<String, String> {
        shared_state_digest(
            self.final_state
                .iter()
                .filter(|(k, _, _)| k.vertex != ROOT_VERTEX)
                .cloned(),
        )
    }
}

/// Render a value into a canonical, order-insensitive form.
///
/// List contents are sorted: the store serializes concurrent pops/pushes in
/// arrival order, and arrival order legitimately differs between the
/// simulator's virtual time and real threads — but the *multiset* of, e.g.,
/// remaining free NAT ports must match exactly.
fn canonical_value(v: &Value) -> String {
    match v {
        Value::List(items) => {
            let mut rendered: Vec<String> = items.iter().map(canonical_value).collect();
            rendered.sort();
            format!("list{{{}}}", rendered.join(","))
        }
        Value::Bytes(b) => format!("bytes{b:02x?}"),
        other => other.to_string(),
    }
}

/// Digest the *shared* (cross-flow) objects of a store dump: canonical key →
/// canonical value, in key order.
///
/// Per-flow objects are excluded deliberately: their values may depend on
/// store arrival order (the NAT maps each connection to *a* unique free
/// port, but which one depends on pop order), while shared objects — packet
/// counters, the remaining port pool, blacklists — must be identical across
/// substrates for chain output equivalence to hold.
pub fn shared_state_digest(
    entries: impl IntoIterator<Item = (StateKey, Value, Option<InstanceId>)>,
) -> BTreeMap<String, String> {
    entries
        .into_iter()
        .filter(|(_, _, owner)| owner.is_none())
        .map(|(k, v, _)| (k.to_string(), canonical_value(&v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_store::ObjectKey;

    fn key(name: &str) -> StateKey {
        StateKey::shared(VertexId(1), ObjectKey::named(name))
    }

    #[test]
    fn digest_ignores_list_order_and_per_flow_entries() {
        let a = vec![
            (key("pool"), Value::list_of_ints([3, 1, 2]), None),
            (key("count"), Value::Int(7), None),
            (key("flow"), Value::Int(9), Some(InstanceId(0))),
        ];
        let b = vec![
            (key("count"), Value::Int(7), None),
            (key("pool"), Value::list_of_ints([2, 3, 1]), None),
            (key("flow"), Value::Int(1234), Some(InstanceId(5))),
        ];
        let da = shared_state_digest(a);
        let db = shared_state_digest(b);
        assert_eq!(da, db);
        assert_eq!(da.len(), 2, "per-flow entries excluded");
    }

    #[test]
    fn digest_detects_real_differences() {
        let a = vec![(key("count"), Value::Int(7), None)];
        let b = vec![(key("count"), Value::Int(8), None)];
        assert_ne!(shared_state_digest(a), shared_state_digest(b));
    }
}
