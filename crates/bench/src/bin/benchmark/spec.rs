//! What the benchmark measures: the workloads, the metric names with their
//! units, directions and regression bounds, and the validation applied to
//! all of them at start-up. `BENCHMARK.json` at the repository root is this
//! table rendered by `--emit-spec`; a test keeps the two identical.

use chc_core::{LogicalDag, VertexSpec};
use chc_nf::{Firewall, LoadBalancer, Nat};
use chc_packet::{Trace, TraceConfig, TraceGenerator};
use chc_runtime::FaultPlan;
use chc_store::{BackendKind, VertexId};
use std::rc::Rc;

/// Seconds one run measures for (the `run_seconds` of `BENCHMARK.json`).
pub const RUN_SECONDS: u64 = 20;

/// The relative path of this directory, the only entry of `paths`.
pub const BENCH_DIR: &str = "crates/bench/src/bin/benchmark";

/// Store shards of every run (`RuntimeConfig::default().store_shards`; the
/// failover plan names each of them).
pub const SHARDS: usize = 4;

/// Which chain a workload runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Chain {
    /// `firewall` alone: bare forwarding.
    Firewall,
    /// `firewall → nat → lb`, the paper's running example.
    FirewallNatLb,
}

/// Vertex id of the NAT in [`Chain::FirewallNatLb`] (the failover target).
pub const NAT_VERTEX: VertexId = VertexId(2);

impl Chain {
    /// Build the logical DAG.
    pub fn dag(&self) -> LogicalDag {
        let firewall = VertexSpec::new(
            1,
            "firewall",
            Rc::new(|| Box::new(Firewall::with_default_policy())),
        );
        match self {
            Chain::Firewall => LogicalDag::linear(vec![firewall]),
            Chain::FirewallNatLb => LogicalDag::linear(vec![
                firewall,
                VertexSpec::new(NAT_VERTEX.0, "nat", Rc::new(|| Box::new(Nat::default()))),
                VertexSpec::new(
                    3,
                    "lb",
                    Rc::new(|| Box::new(LoadBalancer::with_default_backends())),
                ),
            ]),
        }
    }
}

/// One set of inputs the benchmark runs.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// One line: why this workload is in the set.
    pub why: &'static str,
    pub chain: Chain,
    /// TCP connections in the generated trace.
    pub connections: usize,
    /// Mean data packets per connection (share of packets on the
    /// connection set-up path is roughly `3 / (mean + 3)`).
    pub mean_packets: usize,
    /// Kill the NAT's instance 0 at N/2 and restart every shard at N/4 from
    /// a checkpoint taken at N/8.
    pub failover: bool,
    pub backend: BackendKind,
}

/// Packets a `--quick` (test) trace aims for.
const QUICK_PACKETS: usize = 2_000;

impl Workload {
    /// The trace configuration for a seed.
    pub fn trace_config(&self, seed: u64, quick: bool) -> TraceConfig {
        let connections = if quick {
            (QUICK_PACKETS / (self.mean_packets + 4)).max(12)
        } else {
            self.connections
        };
        TraceConfig {
            seed,
            connections,
            mean_packets_per_connection: self.mean_packets,
            ..TraceConfig::default()
        }
    }

    /// Generate the trace: the only thing the product sees of a seed.
    pub fn trace(&self, seed: u64, quick: bool) -> Trace {
        TraceGenerator::new(self.trace_config(seed, quick)).generate()
    }

    /// The fault plan for a trace of `n` packets (empty on healthy
    /// workloads). It is the combination `crates/runtime/tests/failover.rs`
    /// proves exact: replay after the kill re-sends clocks applied before
    /// the shards' checkpoints.
    pub fn fault_plan(&self, n: usize) -> FaultPlan {
        if !self.failover {
            return FaultPlan::new();
        }
        let n = n as u64;
        let mut plan = FaultPlan::new().kill(NAT_VERTEX, 0, n / 2);
        for shard in 0..SHARDS {
            plan = plan.restart_shard(shard, n / 4, Some(n / 8));
        }
        plan
    }
}

/// The workloads, in the order they run.
pub const WORKLOADS: [Workload; 5] = [
    Workload {
        name: "forward",
        why: "Bare forwarding through a firewall-only chain: rings, root stamping, sink and telemetry do nearly all the work; a store or StateClient change must not move it.",
        chain: Chain::Firewall,
        connections: 1_200,
        mean_packets: 440,
        failover: false,
        backend: BackendKind::Memory,
    },
    Workload {
        name: "steady",
        why: "firewall-nat-lb over long flows (Trace1-like): cached per-flow state and write-behind batches dominate; the headline throughput row.",
        chain: Chain::FirewallNatLb,
        connections: 160,
        mean_packets: 440,
        failover: false,
        backend: BackendKind::Memory,
    },
    Workload {
        name: "churn",
        why: "Same chain over 5-packet flows (Trace2-like): blocking pops and reads, ownership, cache inserts and store growth; shows a fast-path gain bought with a slower set-up path.",
        chain: Chain::FirewallNatLb,
        connections: 4_000,
        mean_packets: 5,
        failover: false,
        backend: BackendKind::Memory,
    },
    Workload {
        name: "failover",
        why: "NAT instance kill plus restart of all four store shards from checkpoints: packet logs, commit publishing, duplicate suppression, journaling and replay price correctness under failure.",
        chain: Chain::FirewallNatLb,
        connections: 1_500,
        mean_packets: 24,
        failover: true,
        backend: BackendKind::Memory,
    },
    Workload {
        name: "failover_durable",
        why: "The failover plan on the append-only file backend: every journal record goes to a segment file and checkpoints compact, so the store write path dominates.",
        chain: Chain::FirewallNatLb,
        connections: 500,
        mean_packets: 24,
        failover: true,
        backend: BackendKind::AppendOnly,
    },
];

/// Look a workload up by name.
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Which way a metric improves.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn label(&self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// A metric's name, unit and direction; end-to-end metrics add the share of
/// the parent's median by which they may worsen.
#[derive(Debug, Clone, Copy)]
pub struct MetricSpec {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    pub bound: Option<f64>,
}

const fn e2e(name: &'static str, unit: &'static str, better: Better, bound: f64) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn lower(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Lower,
        bound: None,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> MetricSpec {
    MetricSpec {
        name,
        unit,
        better: Better::Higher,
        bound: None,
    }
}

/// End-to-end metrics: measured pinned to one CPU with tracing off.
pub const END_TO_END: [MetricSpec; 5] = [
    e2e("setup_s", "s", Better::Lower, 0.25),
    e2e("chain_pps", "packets/s", Better::Higher, 0.25),
    e2e("pkt_p50_ns", "ns", Better::Lower, 0.25),
    e2e("pkt_p99_ns", "ns", Better::Lower, 0.25),
    e2e("peak_rss_mb", "MB", Better::Lower, 0.25),
];

/// Ladder rungs, bottom up. A layer's cost is the difference to the rung
/// below.
pub const RUNGS: [&str; 7] = [
    "ladder.rung0_traditional_ns_per_pkt",
    "ladder.rung1_shared_store_ns_per_pkt",
    "ladder.rung2_store_server_ns_per_pkt",
    "ladder.rung3_journaled_ns_per_pkt",
    "ladder.rung4_engine_quiet_ns_per_pkt",
    "ladder.rung5_engine_default_ns_per_pkt",
    "ladder.rung6_engine_traced_ns_per_pkt",
];

/// Per-layer metrics: all from the traced run. Layers are the crate names.
pub const PER_LAYER: [MetricSpec; 67] = [
    lower(RUNGS[0], "ns/pkt"),
    lower(RUNGS[1], "ns/pkt"),
    lower(RUNGS[2], "ns/pkt"),
    lower(RUNGS[3], "ns/pkt"),
    lower(RUNGS[4], "ns/pkt"),
    lower(RUNGS[5], "ns/pkt"),
    lower(RUNGS[6], "ns/pkt"),
    lower("packet.gen_ns_per_pkt", "ns/pkt"),
    lower("nf.process_ns_per_pkt", "ns/pkt"),
    lower("nf.firewall_p50_ns", "ns"),
    lower("nf.nat_p50_ns", "ns"),
    lower("nf.lb_p50_ns", "ns"),
    lower("nf.drop_share", "ratio"),
    higher("core.inline_pps", "packets/s"),
    lower("core.client_ns_per_pkt", "ns/pkt"),
    lower("core.chc_overhead_p50_ns", "ns"),
    higher("core.cache_hit_ratio", "ratio"),
    lower("core.blocking_ops_per_pkt", "ops/pkt"),
    lower("core.nonblocking_ops_per_pkt", "ops/pkt"),
    higher("core.flush_depth_mean", "ops"),
    lower("core.drain_ns_per_op", "ns/op"),
    lower("core.log_high_water", "packets"),
    lower("store.ops_per_pkt", "ops/pkt"),
    lower("store.instance_ns_per_pkt", "ns/pkt"),
    lower("store.server_ns_per_pkt", "ns/pkt"),
    lower("store.journal_ns_per_pkt", "ns/pkt"),
    lower("store.apply_p50_ns", "ns"),
    lower("store.apply_p99_ns", "ns"),
    lower("store.apply_batch_ns_per_op", "ns/op"),
    lower("store.durable_bytes_per_op", "B/op"),
    lower("store.durable_segments", "count"),
    lower("store.restart_ms", "ms"),
    lower("store.restart_replayed_ops", "ops"),
    lower("store.shard_skew", "ratio"),
    lower("store.state_bytes", "B"),
    lower("store.keys", "count"),
    lower("runtime.self_ns_per_pkt", "ns/pkt"),
    lower("runtime.spsc_ns_per_item", "ns"),
    higher("runtime.mean_batch", "packets"),
    lower("runtime.queue_wait_mean_us", "us"),
    lower("runtime.service_mean_ns", "ns"),
    lower("runtime.store_rtt_mean_ns", "ns"),
    lower("runtime.sojourn_p50_us", "us"),
    lower("runtime.sojourn_p99_us", "us"),
    lower("runtime.pps_rep_spread_pct", "%"),
    higher("runtime.pps_all_cpus", "packets/s"),
    lower("runtime.pps_all_cpus_spread_pct", "%"),
    lower("runtime.cpu_ns_per_pkt", "ns/pkt"),
    lower("runtime.fault_mode_ns_per_pkt", "ns/pkt"),
    lower("runtime.recovery_ms", "ms"),
    lower("runtime.recovery_instance_ms", "ms"),
    lower("runtime.recovery_shard_ms_max", "ms"),
    lower("runtime.packets_replayed", "packets"),
    lower("runtime.suppressed_duplicates", "packets"),
    lower("telemetry.self_ns_per_pkt", "ns/pkt"),
    lower("telemetry.tracing_ns_per_pkt", "ns/pkt"),
    lower("telemetry.hist_record_ns", "ns"),
    lower("telemetry.counter_inc_ns", "ns"),
    lower("telemetry.journal_event_ns", "ns"),
    lower("telemetry.trace_dropped", "spans"),
    lower("telemetry.invariant_violations", "count"),
    lower("sim.wall_ns_per_pkt", "ns/pkt"),
    higher("sim.virtual_pps", "packets/s"),
    lower("host.calib_ns", "ns"),
    lower("host.factor", "ratio"),
    lower("host.calib_drift_pct", "%"),
    lower("bench.trace_overhead_pct", "%"),
];

fn charset_ok(s: &str, extra: &str, max: usize) -> bool {
    !s.is_empty()
        && s.len() <= max
        && s.chars()
            .all(|c| c.is_ascii_alphanumeric() || extra.contains(c))
}

/// A metric or workload name: `[A-Za-z0-9_.-]+`, at most 64 characters,
/// starting with a letter or digit.
pub fn valid_name(name: &str) -> bool {
    charset_ok(name, "_.-", 64) && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// A unit: letters, digits and `_/%.-`, at most 16 characters.
pub fn valid_unit(unit: &str) -> bool {
    charset_ok(unit, "_/%.-", 16)
}

/// Check a whole table the way start-up does: every name and unit well
/// formed, names unique across all three lists, list sizes within the
/// contract (≤ 16 end-to-end, ≤ 128 per-layer, 2–8 workloads), every
/// end-to-end bound in (0, 0.25], and a `setup_s` metric present.
pub fn validate(
    workloads: &[(&str, &str)],
    end_to_end: &[MetricSpec],
    per_layer: &[MetricSpec],
) -> Result<(), String> {
    if !(2..=8).contains(&workloads.len()) {
        return Err(format!("{} workloads, want 2 to 8", workloads.len()));
    }
    if !(1..=16).contains(&end_to_end.len()) {
        return Err(format!(
            "{} end-to-end metrics, want 1 to 16",
            end_to_end.len()
        ));
    }
    if !(1..=128).contains(&per_layer.len()) {
        return Err(format!(
            "{} per-layer metrics, want 1 to 128",
            per_layer.len()
        ));
    }
    let mut seen = std::collections::BTreeSet::new();
    for (name, why) in workloads {
        if !valid_name(name) || !seen.insert(*name) {
            return Err(format!("bad or repeated workload name {name:?}"));
        }
        if why.is_empty() || why.len() > 200 || why.contains('\n') {
            return Err(format!(
                "workload {name}: `why` must be one line of at most 200 characters"
            ));
        }
    }
    for m in end_to_end.iter().chain(per_layer) {
        if !valid_name(m.name) || !seen.insert(m.name) {
            return Err(format!("bad or repeated metric name {:?}", m.name));
        }
        if !valid_unit(m.unit) {
            return Err(format!("metric {}: bad unit {:?}", m.name, m.unit));
        }
    }
    for m in end_to_end {
        match m.bound {
            Some(b) if b > 0.0 && b <= 0.25 => {}
            other => {
                return Err(format!(
                    "metric {}: bound {other:?} outside (0, 0.25]",
                    m.name
                ))
            }
        }
    }
    if per_layer.iter().any(|m| m.bound.is_some()) {
        return Err("per-layer metrics carry no bound".into());
    }
    match end_to_end.iter().find(|m| m.name == "setup_s") {
        Some(m) if m.unit == "s" && m.better == Better::Lower => Ok(()),
        _ => Err("end-to-end metrics must include setup_s in s, lower is better".into()),
    }
}

/// Validate the built-in tables.
pub fn validate_builtin() -> Result<(), String> {
    let workloads: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
    validate(&workloads, &END_TO_END, &PER_LAYER)
}

/// Render the built-in tables as the `BENCHMARK.json` contract document.
pub fn benchmark_json() -> String {
    let list = |rows: Vec<String>| format!("[\n    {}\n  ]", rows.join(",\n    "));
    let metric = |m: &MetricSpec| {
        let bound = m
            .bound
            .map_or(String::new(), |b| format!(", \"bound\": {b}"));
        format!(
            "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{}\"{bound}}}",
            m.name,
            m.unit,
            m.better.label()
        )
    };
    let workloads = WORKLOADS
        .iter()
        .map(|w| format!("{{\"name\": \"{}\", \"why\": \"{}\"}}", w.name, w.why))
        .collect();
    format!(
        "{{\n  \"command\": [\"cargo\", \"run\", \"--release\", \"--offline\", \"--quiet\", \"--manifest-path\", \"{BENCH_DIR}/Cargo.toml\", \"--\"],\n  \"paths\": [\"{BENCH_DIR}\"],\n  \"run_seconds\": {RUN_SECONDS},\n  \"workloads\": {},\n  \"end_to_end\": {},\n  \"per_layer\": {}\n}}\n",
        list(workloads),
        list(END_TO_END.iter().map(metric).collect()),
        list(PER_LAYER.iter().map(metric).collect()),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_and_unit_validators() {
        for good in ["chain_pps", "store.apply_p99_ns", "a", "9lives", "x-y.z_0"] {
            assert!(valid_name(good), "{good}");
        }
        let long = "n".repeat(65);
        for bad in [
            "",
            "has space",
            "slash/name",
            "_lead",
            ".lead",
            "ünï",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
        for good in ["ns", "ns/pkt", "%", "packets/s", "1/s", "B/op"] {
            assert!(valid_unit(good), "{good}");
        }
        for bad in ["", "a b", "seventeen_chars__", "µs"] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn builtin_tables_pass_and_broken_tables_do_not() {
        validate_builtin().expect("built-in tables");
        let w = [("a", "why"), ("b", "why")];
        let good = e2e("setup_s", "s", Better::Lower, 0.25);
        let layer = lower("x.y", "ns");
        assert!(validate(&w, &[good], &[layer]).is_ok());
        // Repeated name across lists, bad unit, bound out of range, missing
        // setup_s, too few workloads, too many end-to-end metrics.
        assert!(validate(&w, &[good], &[lower("setup_s", "s")]).is_err());
        assert!(validate(&w, &[good], &[lower("x.y", "n s")]).is_err());
        assert!(validate(&w, &[e2e("setup_s", "s", Better::Lower, 0.3)], &[layer]).is_err());
        assert!(validate(&w, &[e2e("t", "s", Better::Lower, 0.1)], &[layer]).is_err());
        assert!(validate(&w[..1], &[good], &[layer]).is_err());
        assert!(validate(&[("a", "why"), ("a", "why")], &[good], &[layer]).is_err());
        assert!(validate(&w, &[good; 17], &[layer]).is_err());
        assert!(validate(&[("a", "two\nlines"), ("b", "why")], &[good], &[layer]).is_err());
    }

    #[test]
    fn fault_plans_follow_the_trace_length() {
        let healthy = workload("steady").unwrap();
        assert!(healthy.fault_plan(1000).is_empty());
        let plan = workload("failover").unwrap().fault_plan(1000);
        assert_eq!(plan.kills.len(), 1);
        assert_eq!(
            (plan.kills[0].vertex, plan.kills[0].at_counter),
            (NAT_VERTEX, 500)
        );
        assert_eq!(plan.shard_faults.len(), SHARDS);
        assert!(plan
            .shard_faults
            .iter()
            .all(|f| f.at_counter == 250 && f.checkpoint_at == Some(125)));
        assert!(workload("nope").is_none());
    }

    #[test]
    fn traces_depend_only_on_the_seed() {
        let w = workload("churn").unwrap();
        let a = w.trace(5, true);
        let b = w.trace(5, true);
        let c = w.trace(6, true);
        assert_eq!(a.packets, b.packets);
        assert_ne!(a.packets, c.packets);
        assert!(a.len() > 500 && a.len() < 8_000, "{}", a.len());
    }
}
