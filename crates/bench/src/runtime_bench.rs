//! Real-thread chain benchmarks: packets/s and latency percentiles for an
//! NF chain executed on both substrates (the `chc_sim` discrete-event
//! simulator and the `chc_runtime` thread engine), at several batch sizes.
//!
//! The runtime rows measure *wall-clock* throughput the way §7 of the paper
//! measures its testbed; the simulator row reports virtual-time goodput plus
//! the wall time it took to simulate, which contextualizes how much faster
//! than real time the simulation runs at small scales.

use crate::Scale;
use chc_core::{ChainConfig, ChainController, LogicalDag, SinkActor, VertexSpec};
use chc_nf::{Firewall, LoadBalancer, Nat};
use chc_packet::{Trace, TraceConfig, TraceGenerator, TRACE_PPM_FULL};
use chc_runtime::{
    chrome_trace_json, run_chain_realtime, validate_chrome_trace, RuntimeConfig, SpanKind,
    TelemetryConfig, TelemetryReport, TraceShape,
};
use chc_sim::Histogram;
use chc_store::{
    BackendKind, Clock, InstanceId, ObjectKey, Operation, StateKey, StoreServer, Value, VertexId,
};
use chc_telemetry::{Event, HistSummary};
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The chain every record in this module measures.
pub const BENCH_CHAIN: &str = "firewall-nat-lb";

/// One measured configuration, serializable to JSON by [`RuntimeBenchRecord::to_json`].
#[derive(Debug, Clone)]
pub struct RuntimeBenchRecord {
    /// Chain label (see [`BENCH_CHAIN`]).
    pub chain: String,
    /// `"realtime"` or `"simulator"`.
    pub substrate: String,
    /// Ring batch size (0 for the simulator, which has no rings).
    pub batch_size: usize,
    /// Packets injected at the root.
    pub packets: u64,
    /// Distinct packets delivered to the sink.
    pub delivered: u64,
    /// Wall-clock seconds the run took.
    pub wall_s: f64,
    /// End-to-end throughput in packets/s (wall clock for the runtime,
    /// virtual time for the simulator).
    pub pps: f64,
    /// End-to-end goodput in Gbit/s (same timebase as `pps`).
    pub gbps: f64,
    /// Median root→sink per-packet latency in microseconds.
    pub p50_us: f64,
    /// 99th-percentile root→sink per-packet latency in microseconds.
    pub p99_us: f64,
    /// Operations served by the datastore during the run (0 where the
    /// substrate does not expose the counter).
    pub store_ops: u64,
}

impl RuntimeBenchRecord {
    /// Render as a JSON object (hand-rolled: the build environment has no
    /// serde_json; every field is numeric or a known-safe ASCII label).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"chain\":\"{}\",\"substrate\":\"{}\",\"batch_size\":{},\"packets\":{},\
             \"delivered\":{},\"wall_s\":{:.6},\"pps\":{:.1},\"gbps\":{:.4},\
             \"p50_us\":{:.2},\"p99_us\":{:.2},\"store_ops\":{}}}",
            self.chain,
            self.substrate,
            self.batch_size,
            self.packets,
            self.delivered,
            self.wall_s,
            self.pps,
            self.gbps,
            self.p50_us,
            self.p99_us,
            self.store_ops
        )
    }
}

/// The 3-NF chain of the paper's running example: firewall → NAT → LB.
pub fn bench_chain() -> LogicalDag {
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

fn bench_trace(scale: Scale) -> Trace {
    TraceGenerator::new(TraceConfig {
        seed: 97,
        connections: ((2_000.0 * scale.0).max(100.0)) as usize,
        mean_packets_per_connection: 24,
        ..TraceConfig::default()
    })
    .generate()
}

/// The scale factor whose bench trace holds roughly `packets` packets
/// (scale 1 generates 2 000 connections averaging 24 packets each, so one
/// packet costs 1/48 000 of a scale unit; the generator floors at 100
/// connections). Backs `paper_eval --packets`.
pub fn scale_for_packets(packets: u64) -> Scale {
    Scale(packets as f64 / 48_000.0)
}

/// Measure the real-thread engine at each batch size.
pub fn bench_realtime(scale: Scale, batch_sizes: &[usize]) -> Vec<RuntimeBenchRecord> {
    let trace = bench_trace(scale);
    let dag = bench_chain();
    batch_sizes
        .iter()
        .map(|&batch| {
            let rt_cfg = RuntimeConfig::with_batch_size(batch);
            // Best of three: these rows feed the `--baseline` regression
            // gate, and on a shared host a single run's throughput is
            // dominated by scheduler luck (spreads above 30% observed);
            // the per-config ceiling is the stable, comparable number.
            let (report, wall_s) = (0..3)
                .map(|_| {
                    let start = Instant::now();
                    let report = run_chain_realtime(&dag, ChainConfig::default(), &rt_cfg, &trace)
                        .expect("valid dag");
                    (report, start.elapsed().as_secs_f64())
                })
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .expect("at least one run");
            assert_eq!(report.duplicates, 0, "healthy runs deliver exactly once");
            let summary = report.latency_summary();
            let p99 = report.latency.percentile(99.0);
            RuntimeBenchRecord {
                chain: BENCH_CHAIN.to_string(),
                substrate: "realtime".to_string(),
                batch_size: batch,
                packets: report.injected,
                delivered: report.delivered as u64,
                wall_s,
                pps: report.pps(),
                gbps: report.gbps(),
                p50_us: summary.p50.as_micros_f64(),
                p99_us: p99 as f64 / 1e3,
                store_ops: report.store_ops,
            }
        })
        .collect()
}

/// Measure the same chain on the discrete-event simulator (virtual-time
/// throughput; wall time is the cost of simulating).
pub fn bench_simulator(scale: Scale) -> RuntimeBenchRecord {
    let trace = bench_trace(scale);
    let mut chain = ChainController::new(bench_chain(), ChainConfig::default(), 97).unwrap();
    chain.inject_trace(&trace);
    let start = Instant::now();
    chain.run();
    let wall_s = start.elapsed().as_secs_f64();
    let metrics = chain.metrics();

    // Root→sink latency in virtual time: sink receive time minus the
    // packet's arrival at the chain entry (clock counter n is the n-th
    // injected packet).
    let mut latency = Histogram::new();
    let sink = chain
        .sim
        .actor::<SinkActor>(chain.handles().sink)
        .expect("sink");
    for (at, clock, _) in &sink.received {
        let idx = (clock.counter() - 1) as usize;
        if let Some(pkt) = trace.packets.get(idx) {
            latency.record_nanos(at.as_nanos().saturating_sub(pkt.arrival_ns));
        }
    }
    // Virtual-time pps across the delivery span.
    let span_s = sink
        .received
        .iter()
        .map(|(t, _, _)| t.as_nanos())
        .max()
        .zip(sink.received.iter().map(|(t, _, _)| t.as_nanos()).min())
        .map(|(hi, lo)| (hi.saturating_sub(lo)) as f64 / 1e9)
        .unwrap_or(0.0);
    let pps = if span_s > 0.0 {
        metrics.sink_delivered as f64 / span_s
    } else {
        0.0
    };

    RuntimeBenchRecord {
        chain: BENCH_CHAIN.to_string(),
        substrate: "simulator".to_string(),
        batch_size: 0,
        packets: metrics.root.packets_in,
        delivered: metrics.sink_delivered as u64,
        wall_s,
        pps,
        gbps: metrics.sink_gbps,
        p50_us: latency.median().as_micros_f64(),
        p99_us: latency.percentile(99.0).as_micros_f64(),
        store_ops: 0,
    }
}

/// The default batch sizes the evaluation sweeps: one small (latency-lean)
/// and one large (throughput-lean).
pub const DEFAULT_BATCH_SIZES: [usize; 2] = [8, 64];

/// Run the full substrate comparison, returning the human-readable section
/// and the machine-readable records.
pub fn runtime_chain_experiment(scale: Scale) -> (String, Vec<RuntimeBenchRecord>) {
    let mut records = bench_realtime(scale, &DEFAULT_BATCH_SIZES);
    records.push(bench_simulator(scale));

    let mut out = String::from(
        "Real-thread chain engine — firewall → NAT → LB (3 NFs), sharded store (4 shards)\n",
    );
    let _ = writeln!(
        out,
        "  {:<11} {:>6} {:>9} {:>11} {:>9} {:>9} {:>9}",
        "substrate", "batch", "packets", "pps", "Gbps", "p50 us", "p99 us"
    );
    for r in &records {
        let _ = writeln!(
            out,
            "  {:<11} {:>6} {:>9} {:>11.0} {:>9.3} {:>9.1} {:>9.1}",
            r.substrate, r.batch_size, r.packets, r.pps, r.gbps, r.p50_us, r.p99_us
        );
    }
    out.push_str(
        "  (simulator row: virtual-time throughput/latency; wall_s in the JSON is simulation cost)\n",
    );
    (out, records)
}

/// One arm of the storage-backend comparison: either a multi-threaded
/// store-op throughput run (`mode == "ops"`) or a recovery-time measurement
/// at a given journal depth (`mode == "recovery"`), on the in-memory or the
/// append-only flat-file engine.
///
/// The JSON deliberately carries no `"substrate"` key — that key anchors the
/// `--baseline` reader's throughput-row extractor, and these rows are
/// informational (new experiments must never retroactively gate against a
/// baseline that predates them).
#[derive(Debug, Clone)]
pub struct StoreBackendRecord {
    /// Backend label (`"memory"` or `"append-only"`).
    pub backend: String,
    /// `"ops"` (throughput) or `"recovery"` (restart timing).
    pub mode: String,
    /// Store shards in the run.
    pub shards: usize,
    /// Concurrent client threads (1 for recovery rows).
    pub threads: usize,
    /// Total operations applied.
    pub ops: u64,
    /// Wall-clock seconds: the apply phase for `"ops"` rows, the
    /// `restart_shard` call for `"recovery"` rows.
    pub wall_s: f64,
    /// Journaled store ops per second (0 for recovery rows).
    pub ops_per_sec: f64,
    /// Ops journaled before the restart (0 for ops rows).
    pub history: u64,
    /// Journal entries resident at restart time. On the append-only engine
    /// auto-compaction bounds this by the checkpoint interval regardless of
    /// `history` — the O(delta) claim, in data.
    pub journal_depth: usize,
    /// Entries actually replayed by `restart_shard`.
    pub replayed_ops: usize,
    /// Restart wall time in microseconds (0 for ops rows).
    pub restart_micros: f64,
    /// Correctness failures observed by the arm's own oracle (final-sum
    /// check for ops rows, state-neutrality check for recovery rows).
    pub invariant_violations: usize,
}

impl StoreBackendRecord {
    /// Render as a JSON object (hand-rolled, like [`RuntimeBenchRecord`]).
    pub fn to_json(&self) -> String {
        format!(
            "{{\"experiment\":\"store_backend\",\"backend\":\"{}\",\"mode\":\"{}\",\
             \"shards\":{},\"threads\":{},\"ops\":{},\"wall_s\":{:.6},\
             \"ops_per_sec\":{:.1},\"history\":{},\"journal_depth\":{},\
             \"replayed_ops\":{},\"restart_micros\":{:.1},\"invariant_violations\":{}}}",
            self.backend,
            self.mode,
            self.shards,
            self.threads,
            self.ops,
            self.wall_s,
            self.ops_per_sec,
            self.history,
            self.journal_depth,
            self.replayed_ops,
            self.restart_micros,
            self.invariant_violations
        )
    }
}

/// Multi-threaded journaled-apply throughput on one backend: 4 shards, 4
/// client threads, each thread incrementing its own key set under unique
/// clocks, with a final-sum oracle.
fn one_store_backend_ops_arm(kind: BackendKind, scale: Scale) -> StoreBackendRecord {
    const SHARDS: usize = 4;
    const THREADS: usize = 4;
    const KEYS_PER_THREAD: u64 = 64;
    let per_thread = (20_000.0 * scale.0).max(500.0) as u64;
    let server = StoreServer::with_backend(SHARDS, kind);
    for s in 0..SHARDS {
        server.set_shard_journaling(s, true);
    }
    let start = Instant::now();
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let server = Arc::clone(&server);
            thread::spawn(move || {
                for i in 0..per_thread {
                    let k = StateKey::shared(
                        VertexId(t as u32),
                        ObjectKey::named(&format!("bk-{t}-{}", i % KEYS_PER_THREAD)),
                    );
                    server
                        .apply(
                            InstanceId(t as u32),
                            &k,
                            &Operation::Increment(1),
                            Some(Clock::with_root(t as u8, i + 1)),
                        )
                        .expect("bench apply");
                }
            })
        })
        .collect();
    for h in handles {
        h.join().expect("bench thread");
    }
    let wall_s = start.elapsed().as_secs_f64();
    // Oracle: each thread's keys must sum to exactly its op count.
    let mut violations = 0usize;
    for t in 0..THREADS {
        let sum: i64 = (0..KEYS_PER_THREAD)
            .map(|i| {
                let k =
                    StateKey::shared(VertexId(t as u32), ObjectKey::named(&format!("bk-{t}-{i}")));
                match server.peek(&k) {
                    Value::Int(v) => v,
                    _ => 0,
                }
            })
            .sum();
        if sum != per_thread as i64 {
            violations += 1;
        }
    }
    let total = per_thread * THREADS as u64;
    StoreBackendRecord {
        backend: kind.label().to_string(),
        mode: "ops".to_string(),
        shards: SHARDS,
        threads: THREADS,
        ops: total,
        wall_s,
        ops_per_sec: total as f64 / wall_s,
        history: 0,
        journal_depth: 0,
        replayed_ops: 0,
        restart_micros: 0.0,
        invariant_violations: violations,
    }
}

/// Recovery time at one journal depth: journal `history` ops into a single
/// shard (the replay floor trailing the writer), then time a crash +
/// recover, checking state neutrality.
fn one_store_backend_recovery_arm(kind: BackendKind, history: u64) -> StoreBackendRecord {
    let server = StoreServer::with_backend(1, kind);
    server.set_shard_journaling(0, true);
    let k = StateKey::shared(VertexId(0), ObjectKey::named("bk-recovery"));
    for c in 1..=history {
        server
            .apply(
                InstanceId(0),
                &k,
                &Operation::Increment(1),
                Some(Clock::with_root(0, c)),
            )
            .expect("bench apply");
        // The replay floor trails the writer by a ring backlog, as the
        // runtime's supervisor moves it: checkpoint images then carry the
        // packets still replayable, not the history.
        if c % 256 == 0 {
            server.forget_through(c - 64);
        }
    }
    let journal_depth = server.shard_journal_len(0);
    let before = server.peek(&k);
    let start = Instant::now();
    let stats = server.restart_shard(0);
    let restart = start.elapsed();
    let violations = usize::from(server.peek(&k) != before);
    StoreBackendRecord {
        backend: kind.label().to_string(),
        mode: "recovery".to_string(),
        shards: 1,
        threads: 1,
        ops: history,
        wall_s: restart.as_secs_f64(),
        ops_per_sec: 0.0,
        history,
        journal_depth,
        replayed_ops: stats.replayed_ops,
        restart_micros: restart.as_secs_f64() * 1e6,
        invariant_violations: violations,
    }
}

/// The journal depths the recovery half of the backend comparison sweeps.
const STORE_BACKEND_HISTORIES: [u64; 3] = [2_000, 8_000, 32_000];

/// The storage-backend comparison behind the `store_backend` records of
/// `paper_eval --json`: journaled store-op throughput plus recovery time at
/// increasing journal depths, on the in-memory engine and the append-only
/// flat-file engine. The memory rows replay the full history on restart;
/// the append-only rows replay only the post-checkpoint suffix, so their
/// restart cost stays flat as the history grows.
pub fn store_backend_experiment(scale: Scale) -> (String, Vec<StoreBackendRecord>) {
    let mut records = Vec::new();
    for kind in [BackendKind::Memory, BackendKind::AppendOnly] {
        records.push(one_store_backend_ops_arm(kind, scale));
        for (i, base) in STORE_BACKEND_HISTORIES.iter().enumerate() {
            // Keep every depth past the compaction interval (and the depths
            // distinct) even at tiny scales, so the append-only engine
            // always shows a bounded replay suffix against the memory
            // engine's full-history replay.
            let floor = (chc_store::DEFAULT_CHECKPOINT_INTERVAL + 256 * (i + 1)) as u64;
            let history = ((*base as f64 * scale.0) as u64).max(floor);
            records.push(one_store_backend_recovery_arm(kind, history));
        }
    }

    let mut out =
        String::from("Storage backends — journaled throughput and restart cost vs journal depth\n");
    let _ = writeln!(
        out,
        "  {:<12} {:<9} {:>9} {:>12} {:>8} {:>9} {:>12} {:>10}",
        "backend", "mode", "ops", "ops/s", "history", "replayed", "restart us", "violations"
    );
    for r in &records {
        let _ = writeln!(
            out,
            "  {:<12} {:<9} {:>9} {:>12.0} {:>8} {:>9} {:>12.1} {:>10}",
            r.backend,
            r.mode,
            r.ops,
            r.ops_per_sec,
            r.history,
            r.replayed_ops,
            r.restart_micros,
            r.invariant_violations
        );
    }
    out.push_str(
        "  (append-only restarts replay only the post-checkpoint suffix; memory replays all)\n",
    );
    (out, records)
}

/// Measured outcome of the recovery-time experiment: the real-thread
/// engine's answer to the paper's Figure 13 (NF failover) on wall clocks.
#[derive(Debug, Clone)]
pub struct RecoveryRecord {
    /// Chain position of the kill: `"entry"`, `"mid"`, `"tail"` or
    /// `"root"` (the stamping thread itself; a warm standby takes over).
    pub position: String,
    /// Packets in the trace.
    pub packets: u64,
    /// Logical-clock counter at which the instance was killed.
    pub kill_at: u64,
    /// Logged packets replayed to the replacement.
    pub packets_replayed: u64,
    /// Largest root packet log observed (bounded by commit truncation).
    pub log_high_water: usize,
    /// Log entries dropped by commit-frontier truncation.
    pub log_truncated: u64,
    /// Fail-stop detection → replay completion, in microseconds.
    pub recovery_us: f64,
    /// Duplicate clocks suppressed at input queues chain-wide (replay cost).
    pub suppressed_duplicates: u64,
    /// Duplicates observed at the sink — must be zero (R6).
    pub sink_duplicates: u64,
    /// Whether delivered set and shared-state digest matched a healthy run.
    pub matches_healthy: bool,
    /// Invariant-sentinel violations detected during the faulted run — must
    /// be zero (the sentinel runs by default; see
    /// `chc_runtime::RuntimeReport::invariants`).
    pub invariant_violations: usize,
    /// Wall-clock seconds of the faulted run end to end.
    pub wall_s: f64,
    /// The faulted run's control-plane event journal (spawns, the kill, the
    /// failover phases, commit-frontier advances), in record order.
    pub events: Vec<Event>,
}

impl RecoveryRecord {
    /// Render as a JSON object (hand-rolled, like [`RuntimeBenchRecord`]).
    pub fn to_json(&self) -> String {
        let events: Vec<String> = self.events.iter().map(Event::to_json).collect();
        format!(
            "{{\"chain\":\"{BENCH_CHAIN}\",\"position\":\"{}\",\"packets\":{},\"kill_at\":{},\
             \"packets_replayed\":{},\"log_high_water\":{},\"log_truncated\":{},\
             \"recovery_us\":{:.1},\"suppressed_duplicates\":{},\
             \"sink_duplicates\":{},\"matches_healthy\":{},\
             \"invariant_violations\":{},\"wall_s\":{:.6},\
             \"events\":[{}]}}",
            self.position,
            self.packets,
            self.kill_at,
            self.packets_replayed,
            self.log_high_water,
            self.log_truncated,
            self.recovery_us,
            self.suppressed_duplicates,
            self.sink_duplicates,
            self.matches_healthy,
            self.invariant_violations,
            self.wall_s,
            events.join(",")
        )
    }
}

/// The kill positions the recovery-vs-position experiment sweeps, in chain
/// order. `entry`/`mid`/`tail` name the three vertices of [`BENCH_CHAIN`];
/// `root` kills the stamping thread itself (warm-standby takeover).
pub const KILL_POSITIONS: [&str; 4] = ["entry", "mid", "tail", "root"];

/// The seeded fault plan for a named kill position on [`BENCH_CHAIN`], plus
/// the trigger counter it samples. Panics on an unknown position name.
pub fn position_plan(position: &str, seed: u64, trace_len: usize) -> (chc_runtime::FaultPlan, u64) {
    use crate::faultgen::FaultGen;
    let mut gen = FaultGen::new(seed);
    let plan = match position {
        "entry" => gen.kill_plan(chc_store::VertexId(1), 1, trace_len),
        "mid" => gen.kill_plan(chc_store::VertexId(2), 1, trace_len),
        "tail" => gen.kill_plan(chc_store::VertexId(3), 1, trace_len),
        "root" => gen.root_kill_plan(trace_len),
        other => panic!("unknown kill position '{other}' (expected entry|mid|tail|root)"),
    };
    let at = plan
        .root_kill
        .or_else(|| plan.kills.first().map(|k| k.at_counter))
        .expect("plan carries a trigger");
    (plan, at)
}

/// Execute one faulted run against an already-measured healthy run of the
/// same trace and distill it into a [`RecoveryRecord`]. Works for every
/// position: instance kills read the supervisor's recovery record, a root
/// kill reads the warm standby's takeover record.
fn run_one_recovery(
    dag: &LogicalDag,
    trace: &Trace,
    healthy: &chc_runtime::RuntimeReport,
    plan: chc_runtime::FaultPlan,
    position: &str,
    kill_at: u64,
) -> RecoveryRecord {
    let start = Instant::now();
    let faulted = run_chain_realtime(
        dag,
        ChainConfig::default(),
        &RuntimeConfig::with_batch_size(8).with_fault(plan),
        trace,
    )
    .expect("valid dag");
    let wall_s = start.elapsed().as_secs_f64();

    let sorted = |r: &chc_runtime::RuntimeReport| {
        let mut ids = r.delivered_ids.clone();
        ids.sort_unstable();
        ids.dedup();
        ids
    };
    let matches_healthy =
        sorted(healthy) == sorted(&faulted) && healthy.shared_digest() == faulted.shared_digest();
    let fault = faulted.fault.as_ref().expect("fault report present");
    assert!(
        fault.aborts.is_empty(),
        "{position} failover aborted: {:?}",
        fault.aborts
    );
    // Replay volume and detection→completion time come from whichever
    // recovery machinery the position exercises.
    let (packets_replayed, recovery_wall) = match fault.recoveries.first() {
        Some(r) => (r.packets_replayed, r.recovery_wall),
        None => {
            let t = fault
                .root_takeover
                .as_ref()
                .expect("root kill produces a takeover record");
            (t.packets_replayed, t.recovery_wall)
        }
    };
    RecoveryRecord {
        position: position.to_string(),
        packets: faulted.injected,
        kill_at,
        packets_replayed,
        log_high_water: fault.log_high_water,
        log_truncated: fault.log_truncated,
        recovery_us: recovery_wall.as_secs_f64() * 1e6,
        suppressed_duplicates: faulted
            .instances
            .iter()
            .map(|i| i.suppressed_duplicates)
            .sum(),
        sink_duplicates: faulted.duplicates,
        matches_healthy,
        invariant_violations: faulted
            .invariants
            .as_ref()
            .map(|i| i.violations.len())
            .unwrap_or(0),
        wall_s,
        events: faulted
            .telemetry
            .as_ref()
            .map(|t| t.events.clone())
            .unwrap_or_default(),
    }
}

fn healthy_run(dag: &LogicalDag, trace: &Trace) -> chc_runtime::RuntimeReport {
    run_chain_realtime(
        dag,
        ChainConfig::default(),
        &RuntimeConfig::with_batch_size(8),
        trace,
    )
    .expect("valid dag")
}

/// Kill the firewall (entry) instance mid-trace on the real-thread engine,
/// fail over with replay, and measure recovery. The healthy run of the same
/// trace is the correctness yardstick: identical delivered set and shared
/// digest, zero sink duplicates.
pub fn runtime_recovery_experiment(scale: Scale) -> (String, RecoveryRecord) {
    let trace = bench_trace(scale);
    let dag = bench_chain();
    let (plan, kill_at) = position_plan("entry", 97, trace.len());
    let healthy = healthy_run(&dag, &trace);
    let record = run_one_recovery(&dag, &trace, &healthy, plan, "entry", kill_at);

    let mut out = String::from(
        "Real-thread NF failover — firewall killed mid-trace, replacement + replay (R1)\n",
    );
    let _ = writeln!(
        out,
        "  kill at clock {:>7} of {:>7} packets   replayed {:>6}   recovery {:>9.1} us",
        record.kill_at, record.packets, record.packets_replayed, record.recovery_us
    );
    let _ = writeln!(
        out,
        "  log high-water {:>6} (truncated {:>6})   suppressed dups {:>6}   sink dups {}",
        record.log_high_water,
        record.log_truncated,
        record.suppressed_duplicates,
        record.sink_duplicates
    );
    let _ = writeln!(
        out,
        "  delivered set + shared-state digest match healthy run: {}",
        if record.matches_healthy { "yes" } else { "NO" }
    );
    let _ = writeln!(
        out,
        "  event journal: {} control-plane events recorded   sentinel violations: {}",
        record.events.len(),
        record.invariant_violations
    );
    (out, record)
}

/// Recovery time versus kill position: one seeded kill at each chain depth
/// (entry, mid, tail) plus a root kill handled by the warm standby, all on
/// the same trace and all checked against one healthy run. This is the
/// wall-clock analogue of the paper's recovery-time evaluation, extended to
/// every position the engine now covers; mid/tail replays come from the
/// killed vertex's *upstream* egress log, so the rows also show how the
/// replay volume shrinks with chain depth under commit truncation.
pub fn runtime_recovery_by_position_experiment(scale: Scale) -> (String, Vec<RecoveryRecord>) {
    let trace = bench_trace(scale);
    let dag = bench_chain();
    let healthy = healthy_run(&dag, &trace);
    let records: Vec<RecoveryRecord> = KILL_POSITIONS
        .iter()
        .map(|position| {
            let (plan, kill_at) = position_plan(position, 97, trace.len());
            run_one_recovery(&dag, &trace, &healthy, plan, position, kill_at)
        })
        .collect();

    let mut out = String::from(
        "Recovery time vs kill position — one seeded kill per chain depth, same trace\n",
    );
    let _ = writeln!(
        out,
        "  {:<6} {:>8} {:>9} {:>12} {:>10} {:>9} {:>8}",
        "kill", "at", "replayed", "recovery us", "supp dups", "sink dup", "matches"
    );
    for r in &records {
        let _ = writeln!(
            out,
            "  {:<6} {:>8} {:>9} {:>12.1} {:>10} {:>9} {:>8}",
            r.position,
            r.kill_at,
            r.packets_replayed,
            r.recovery_us,
            r.suppressed_duplicates,
            r.sink_duplicates,
            if r.matches_healthy { "yes" } else { "NO" }
        );
    }
    (out, records)
}

/// Measured outcome of the telemetry experiment: one instrumented run's
/// per-stage latency decomposition, gauge time series and event journal,
/// plus the paired enabled/disabled throughput that prices the
/// instrumentation itself.
#[derive(Debug, Clone)]
pub struct TelemetryBenchRecord {
    /// Ring batch size of the instrumented run.
    pub batch_size: usize,
    /// Gauge sampling cadence in milliseconds.
    pub sample_ms: u64,
    /// Mean root→sink latency of the instrumented run, from the end-to-end
    /// histogram (the yardstick the decomposition must reconstruct).
    pub e2e_mean_ns: f64,
    /// Median root→sink latency of the instrumented run.
    pub e2e_p50_ns: u64,
    /// The run's telemetry section: per-stage decomposition, gauge series,
    /// journal events.
    pub report: TelemetryReport,
    /// Best-of-five throughput with the full observability layer on:
    /// standard telemetry plus 1%-flow-sampled causal tracing plus the
    /// invariant sentinel.
    pub pps_enabled: f64,
    /// Best-of-five throughput with tracing and the sentinel off but the
    /// same standard telemetry surface (stage spans, journal, gauges) —
    /// the arm the 5% budget diffs against.
    pub pps_disabled: f64,
    /// Invariant-sentinel violations detected in the instrumented run —
    /// must be zero.
    pub invariant_violations: usize,
}

impl TelemetryBenchRecord {
    /// The spans' reconstruction of the mean end-to-end latency.
    pub fn decomposed_mean_ns(&self) -> f64 {
        self.report.decomposed_mean_ns()
    }

    /// Throughput cost of the tracing + sentinel layer in percent
    /// (positive = the layer costs throughput; small negatives are
    /// run-to-run noise).
    pub fn overhead_pct(&self) -> f64 {
        if self.pps_disabled > 0.0 {
            (self.pps_disabled - self.pps_enabled) / self.pps_disabled * 100.0
        } else {
            0.0
        }
    }

    /// Render as a JSON object (hand-rolled, like [`RuntimeBenchRecord`]).
    pub fn to_json(&self) -> String {
        let stages: Vec<String> = self
            .report
            .stages
            .iter()
            .map(|s| {
                format!(
                    "{{\"vertex\":{},\"queue\":{},\"service\":{},\"store\":{},\
                     \"flush_depth\":{}}}",
                    s.vertex.0,
                    summary_json(&s.queue),
                    summary_json(&s.service),
                    summary_json(&s.store),
                    summary_json(&s.flush_depth)
                )
            })
            .collect();
        let gauges: Vec<String> = self
            .report
            .series
            .series
            .iter()
            .map(|g| {
                let pts: Vec<String> = g
                    .points
                    .iter()
                    .map(|p| format!("[{},{:.1}]", p.t_ns, p.value))
                    .collect();
                format!("{{\"name\":\"{}\",\"points\":[{}]}}", g.name, pts.join(","))
            })
            .collect();
        let events: Vec<String> = self.report.events.iter().map(Event::to_json).collect();
        format!(
            "{{\"chain\":\"{BENCH_CHAIN}\",\"batch_size\":{},\"sample_ms\":{},\
             \"e2e_mean_ns\":{:.1},\"e2e_p50_ns\":{},\"decomposed_mean_ns\":{:.1},\
             \"sink_wait\":{},\"stages\":[{}],\"gauges\":[{}],\"events\":[{}],\
             \"trace_spans\":{},\"trace_dropped\":{},\"invariant_violations\":{},\
             \"overhead\":{{\"pps_enabled\":{:.1},\"pps_disabled\":{:.1},\"overhead_pct\":{:.2}}}}}",
            self.batch_size,
            self.sample_ms,
            self.e2e_mean_ns,
            self.e2e_p50_ns,
            self.decomposed_mean_ns(),
            summary_json(&self.report.sink_wait),
            stages.join(","),
            gauges.join(","),
            events.join(","),
            self.report.trace_spans.len(),
            self.report.trace_dropped,
            self.invariant_violations,
            self.pps_enabled,
            self.pps_disabled,
            self.overhead_pct()
        )
    }
}

/// Render a [`HistSummary`] as a JSON object.
fn summary_json(s: &HistSummary) -> String {
    format!(
        "{{\"count\":{},\"mean_ns\":{:.1},\"min_ns\":{},\"p50_ns\":{},\
         \"p95_ns\":{},\"p99_ns\":{},\"max_ns\":{}}}",
        s.count, s.mean_ns, s.min_ns, s.p50_ns, s.p95_ns, s.p99_ns, s.max_ns
    )
}

/// Per-million rate the telemetry experiment samples flows for causal
/// tracing: 1% — the always-on diagnostic rate whose cost the overhead
/// record must price inside the 5% budget.
pub const TELEMETRY_BENCH_TRACE_PPM: u32 = 10_000;

/// Run the chain fully instrumented (spans + journal + gauge sampling at
/// `sample`, causal tracing at 1% of flows, invariant sentinel on), then
/// price the instrumentation with paired best-of-two runs — telemetry on
/// versus [`TelemetryConfig::disabled`] — on the same trace.
///
/// The small (latency-lean) batch size is used so the decomposition is
/// dominated by real per-stage work rather than batching delay.
pub fn runtime_telemetry_experiment(
    scale: Scale,
    sample: Duration,
) -> (String, TelemetryBenchRecord) {
    let trace = bench_trace(scale);
    let dag = bench_chain();
    let batch = DEFAULT_BATCH_SIZES[0];
    let instrumented_cfg = RuntimeConfig::with_batch_size(batch)
        .with_sample_interval(sample)
        .with_trace_sample_ppm(TELEMETRY_BENCH_TRACE_PPM);
    let report = run_chain_realtime(&dag, ChainConfig::default(), &instrumented_cfg, &trace)
        .expect("valid dag");
    let telemetry = report.telemetry.clone().expect("telemetry enabled");

    // Overhead: identical runs where the switches under test are the only
    // difference. The budget prices *this observability layer* — 1%
    // flow-sampled causal tracing plus the invariant sentinel — so the
    // comparison arm keeps the standard telemetry surface (stage spans,
    // journal, gauges at the same cadence) and turns off only tracing and
    // the sentinel; diffing against a dark engine would charge this gate
    // for the long-standing stage/gauge machinery instead. Run-to-run
    // noise on a loaded host easily exceeds the effect being measured, so
    // the pairs are *interleaved* (drift hits both configs equally rather
    // than whichever happened to run last) and the best of five is kept
    // per config — the ratio of per-config ceilings converges on the true
    // cost where a single pair mostly measures scheduler luck (this number
    // is gated at 5% by `--baseline`, so it must be stable). The
    // instrumented run above is the warm-up.
    let disabled_cfg = RuntimeConfig::with_batch_size(batch)
        .with_telemetry(TelemetryConfig {
            trace_sample_ppm: 0,
            sentinel: false,
            ..TelemetryConfig::default()
        })
        .with_sample_interval(sample);
    let one_pps = |cfg: &RuntimeConfig| -> f64 {
        run_chain_realtime(&dag, ChainConfig::default(), cfg, &trace)
            .expect("valid dag")
            .pps()
    };
    let mut pps_enabled = 0.0f64;
    let mut pps_disabled = 0.0f64;
    for _ in 0..5 {
        pps_disabled = pps_disabled.max(one_pps(&disabled_cfg));
        pps_enabled = pps_enabled.max(one_pps(&instrumented_cfg));
    }

    let record = TelemetryBenchRecord {
        batch_size: batch,
        sample_ms: sample.as_millis() as u64,
        e2e_mean_ns: report.latency.mean(),
        e2e_p50_ns: report.latency.percentile(50.0),
        report: telemetry,
        pps_enabled,
        pps_disabled,
        invariant_violations: report
            .invariants
            .as_ref()
            .map(|i| i.violations.len())
            .unwrap_or(0),
    };

    let mut out = String::from(
        "Telemetry — per-stage latency decomposition, gauges, event journal (batch 8)\n",
    );
    let _ = writeln!(
        out,
        "  {:<10} {:>10} {:>11} {:>9} {:>9}",
        "stage", "queue us", "service us", "store us", "total us"
    );
    for s in &record.report.stages {
        let _ = writeln!(
            out,
            "  vertex {:<3} {:>10.2} {:>11.2} {:>9.2} {:>9.2}",
            s.vertex.0,
            s.queue.mean_ns / 1e3,
            s.service.mean_ns / 1e3,
            s.store.mean_ns / 1e3,
            s.mean_total_ns() / 1e3
        );
    }
    let _ = writeln!(
        out,
        "  sink wait  {:>10.2} us",
        record.report.sink_wait.mean_ns / 1e3
    );
    let rel = if record.e2e_mean_ns > 0.0 {
        (record.decomposed_mean_ns() - record.e2e_mean_ns) / record.e2e_mean_ns * 100.0
    } else {
        0.0
    };
    let _ = writeln!(
        out,
        "  e2e mean {:.2} us, decomposed sum {:.2} us ({rel:+.1}%)",
        record.e2e_mean_ns / 1e3,
        record.decomposed_mean_ns() / 1e3
    );
    let _ = writeln!(
        out,
        "  gauge series: {}   journal events: {}   trace spans (1% flows): {}   \
         sentinel violations: {}",
        record.report.series.series.len(),
        record.report.events.len(),
        record.report.trace_spans.len(),
        record.invariant_violations
    );
    let _ = writeln!(
        out,
        "  overhead: {:.0} pps with tracing+sentinel vs {:.0} pps telemetry-only ({:+.2}%)",
        record.pps_enabled,
        record.pps_disabled,
        record.overhead_pct()
    );
    (out, record)
}

/// Measured outcome of the traced-failover experiment: the entry instance
/// is killed mid-trace while *every* flow is trace-sampled, so the exported
/// Chrome trace shows the killed vertex's packets reappearing as replay
/// spans on the supervisor and replacement lanes.
#[derive(Debug, Clone)]
pub struct TraceRunRecord {
    /// Packets in the trace.
    pub packets: u64,
    /// Flow-sampling rate the run traced at (ppm; this experiment uses
    /// full sampling).
    pub sample_ppm: u32,
    /// Span events collected.
    pub spans: usize,
    /// Spans dropped at the collector's capacity bound (0 at bench scales).
    pub dropped: u64,
    /// `replay_inject` spans on the supervisor lane — log entries
    /// re-injected for the replacement.
    pub replay_inject_spans: usize,
    /// `service` spans with `replay:1` — replayed packets actually
    /// processed by the replacement (rather than suppressed en route).
    pub replay_service_spans: usize,
    /// Shape of the exported document, as counted by
    /// [`validate_chrome_trace`] (the export is validated before being
    /// returned).
    pub shape: TraceShape,
    /// Invariant-sentinel violations during the traced faulted run — must
    /// be zero.
    pub invariant_violations: usize,
    /// The Perfetto-loadable Chrome trace-event JSON document.
    pub trace_json: String,
}

/// Kill the entry instance mid-trace with causal tracing at full sampling —
/// see [`runtime_trace_experiment_at`] for the position-parameterized form
/// behind `paper_eval --trace-kill`.
pub fn runtime_trace_experiment(scale: Scale) -> (String, TraceRunRecord) {
    runtime_trace_experiment_at(scale, "entry")
}

/// Kill at a named chain position (`entry`/`mid`/`tail`/`root`) mid-trace
/// with causal tracing at full sampling, export the collected spans as
/// Chrome trace-event JSON, and validate the document's shape (balanced
/// `B`/`E` nesting, per-lane timestamp monotonicity). This is the run
/// behind `paper_eval --trace-out`.
pub fn runtime_trace_experiment_at(scale: Scale, position: &str) -> (String, TraceRunRecord) {
    let trace = bench_trace(scale);
    let dag = bench_chain();
    let (plan, _) = position_plan(position, 97, trace.len());
    let cfg = RuntimeConfig::with_batch_size(8)
        .with_fault(plan)
        .with_trace_sample_ppm(TRACE_PPM_FULL);
    let report = run_chain_realtime(&dag, ChainConfig::default(), &cfg, &trace).expect("valid dag");

    let telemetry = report.telemetry.as_ref().expect("telemetry enabled");
    let spans = &telemetry.trace_spans;
    let trace_json = chrome_trace_json(spans);
    let shape = match validate_chrome_trace(&trace_json) {
        Ok(shape) => shape,
        Err(e) => panic!("traced failover exported an invalid Chrome trace: {e}"),
    };

    let replay_inject_spans = spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::ReplayInject))
        .count();
    let replay_service_spans = spans
        .iter()
        .filter(|s| matches!(s.kind, SpanKind::Service { replay: true, .. }))
        .count();
    let record = TraceRunRecord {
        packets: report.injected,
        sample_ppm: TRACE_PPM_FULL,
        spans: spans.len(),
        dropped: telemetry.trace_dropped,
        replay_inject_spans,
        replay_service_spans,
        shape,
        invariant_violations: report
            .invariants
            .as_ref()
            .map(|i| i.violations.len())
            .unwrap_or(0),
        trace_json,
    };

    let mut out =
        format!("Causal trace — {position} kill under full flow sampling, Chrome trace export\n");
    let _ = writeln!(
        out,
        "  {} packets traced: {} spans on {} lanes ({} dropped)",
        record.packets, record.spans, record.shape.lanes, record.dropped
    );
    let _ = writeln!(
        out,
        "  replay visible in the trace: {} replay_inject spans (supervisor lane), \
         {} replayed service spans",
        record.replay_inject_spans, record.replay_service_spans
    );
    let _ = writeln!(
        out,
        "  export shape: {} events, {} B / {} E (validated)   sentinel violations: {}",
        record.shape.events, record.shape.begins, record.shape.ends, record.invariant_violations
    );
    (out, record)
}

/// Serialize bench records (plus run metadata and, when measured, the
/// recovery experiment) into the `BENCH_*.json` document `paper_eval
/// --json` writes.
pub fn records_to_json(
    scale: Scale,
    records: &[RuntimeBenchRecord],
    recovery: Option<&RecoveryRecord>,
    by_position: Option<&[RecoveryRecord]>,
    telemetry: Option<&TelemetryBenchRecord>,
    store_backend: Option<&[StoreBackendRecord]>,
) -> String {
    let rows: Vec<String> = records
        .iter()
        .map(|r| format!("    {}", r.to_json()))
        .collect();
    let recovery_field = match recovery {
        Some(r) => format!(",\n  \"recovery\": {}", r.to_json()),
        None => String::new(),
    };
    // One record per line so the line-oriented baseline reader can recover
    // each position's row independently.
    let by_position_field = match by_position {
        Some(rs) if !rs.is_empty() => {
            let rows: Vec<String> = rs.iter().map(|r| format!("    {}", r.to_json())).collect();
            format!(
                ",\n  \"recovery_by_position\": [\n{}\n  ]",
                rows.join(",\n")
            )
        }
        _ => String::new(),
    };
    let telemetry_field = match telemetry {
        Some(t) => format!(",\n  \"telemetry\": {}", t.to_json()),
        None => String::new(),
    };
    // One arm per line; these rows carry no "substrate" field so the
    // baseline reader never mistakes them for gated throughput rows.
    let store_backend_field = match store_backend {
        Some(rs) if !rs.is_empty() => {
            let rows: Vec<String> = rs.iter().map(|r| format!("    {}", r.to_json())).collect();
            format!(",\n  \"store_backend\": [\n{}\n  ]", rows.join(",\n"))
        }
        _ => String::new(),
    };
    format!(
        "{{\n  \"generated_by\": \"paper_eval\",\n  \"scale\": {},\n  \"runtime_chain\": [\n{}\n  ]{}{}{}{}\n}}\n",
        scale.0,
        rows.join(",\n"),
        recovery_field,
        by_position_field,
        telemetry_field,
        store_backend_field
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn realtime_bench_produces_sane_records() {
        let records = bench_realtime(Scale(0.05), &[4, 32]);
        assert_eq!(records.len(), 2);
        for r in &records {
            assert_eq!(r.chain, BENCH_CHAIN);
            assert_eq!(r.substrate, "realtime");
            assert!(r.packets > 0 && r.delivered > 0);
            assert!(r.delivered <= r.packets);
            assert!(r.pps > 0.0 && r.wall_s > 0.0);
            assert!(r.p50_us <= r.p99_us);
            assert!(r.store_ops > 0);
        }
    }

    #[test]
    fn simulator_bench_and_json_shape() {
        let sim = bench_simulator(Scale(0.05));
        assert_eq!(sim.substrate, "simulator");
        assert!(sim.delivered > 0 && sim.pps > 0.0);

        let json = records_to_json(Scale(0.05), &[sim], None, None, None, None);
        assert!(json.contains("\"runtime_chain\""));
        assert!(json.contains("\"substrate\":\"simulator\""));
        assert!(json.contains("\"generated_by\": \"paper_eval\""));
        // Balanced braces/brackets (cheap well-formedness check without a
        // JSON parser in the workspace).
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn store_backend_comparison_records_both_engines_cleanly() {
        let (text, records) = store_backend_experiment(Scale(0.02));
        assert!(text.contains("Storage backends"));
        // 1 throughput row + 3 recovery depths, per backend.
        assert_eq!(records.len(), 8);
        for backend in ["memory", "append_only"] {
            assert_eq!(
                records
                    .iter()
                    .filter(|r| r.backend == backend && r.mode == "ops")
                    .count(),
                1
            );
            assert_eq!(
                records
                    .iter()
                    .filter(|r| r.backend == backend && r.mode == "recovery")
                    .count(),
                3
            );
        }
        for r in &records {
            assert_eq!(r.invariant_violations, 0, "oracle must stay clean");
            match r.mode.as_str() {
                "ops" => assert!(r.ops > 0 && r.ops_per_sec > 0.0 && r.wall_s > 0.0),
                "recovery" => {
                    assert!(r.history > 0 && r.restart_micros > 0.0);
                    // The memory engine replays the whole history; the
                    // append-only engine auto-compacts, so its replayed
                    // suffix is bounded by the checkpoint interval.
                    if r.backend == "memory" {
                        assert_eq!(r.replayed_ops as u64, r.history);
                    } else {
                        assert!(
                            r.replayed_ops < chc_store::DEFAULT_CHECKPOINT_INTERVAL,
                            "append-only restart must be O(ops since checkpoint)"
                        );
                        assert!((r.replayed_ops as u64) < r.history);
                    }
                }
                other => panic!("unexpected mode {other}"),
            }
        }

        let json = records_to_json(Scale(0.02), &[], None, None, None, Some(&records));
        assert!(json.contains("\"store_backend\""));
        assert!(json.contains("\"experiment\":\"store_backend\""));
        assert!(json.contains("\"backend\":\"memory\""));
        assert!(json.contains("\"backend\":\"append_only\""));
        // Informational rows: the baseline gate keys on "substrate".
        for line in json.lines().filter(|l| l.contains("\"store_backend\":")) {
            assert!(!line.contains("\"substrate\""));
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn scale_for_packets_inverts_the_trace_sizer() {
        // scale 1.0 ~ 48k packets, so asking for 48k must round-trip.
        assert!((scale_for_packets(48_000).0 - 1.0).abs() < 1e-9);
        assert!((scale_for_packets(4_800).0 - 0.1).abs() < 1e-9);
    }

    #[test]
    fn recovery_experiment_measures_a_correct_failover() {
        let (text, record) = runtime_recovery_experiment(Scale(0.05));
        assert!(text.contains("failover"));
        assert!(record.matches_healthy, "failover diverged from healthy run");
        assert_eq!(record.sink_duplicates, 0);
        assert_eq!(record.invariant_violations, 0, "sentinel must stay clean");
        assert!(record.packets_replayed > 0);
        assert!(record.recovery_us > 0.0);

        assert!(
            !record.events.is_empty(),
            "faulted run journals control-plane events"
        );
        for phase in [
            "instance_killed",
            "failover_begin",
            "replacement_spawn",
            "replay_complete",
            "failover_end",
        ] {
            assert!(
                record.events.iter().any(|e| e.kind.name() == phase),
                "missing {phase} event"
            );
        }

        let json = records_to_json(Scale(0.05), &[], Some(&record), None, None, None);
        assert!(json.contains("\"recovery\""));
        assert!(json.contains("\"packets_replayed\""));
        assert!(json.contains("\"failover_begin\""));
        assert!(json.contains("\"invariant_violations\":0"));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }

    #[test]
    fn recovery_by_position_covers_every_position_correctly() {
        let (text, records) = runtime_recovery_by_position_experiment(Scale(0.05));
        assert!(text.contains("kill position"));
        assert_eq!(records.len(), KILL_POSITIONS.len());
        for (r, expect) in records.iter().zip(KILL_POSITIONS) {
            assert_eq!(r.position, expect);
            assert!(r.matches_healthy, "{expect} kill diverged from healthy");
            assert_eq!(r.sink_duplicates, 0, "{expect} kill delivered duplicates");
            assert_eq!(r.invariant_violations, 0, "{expect} kill tripped sentinel");
            assert!(r.kill_at > 0 && r.kill_at <= r.packets);
            assert!(r.recovery_us > 0.0);
        }
        // Instance kills replay logged packets; the root takeover may
        // legitimately replay zero (everything before the kill confirmed).
        for r in &records[..3] {
            assert!(
                r.packets_replayed > 0,
                "{} kill replayed nothing",
                r.position
            );
        }

        let json = records_to_json(Scale(0.05), &[], None, Some(&records), None, None);
        assert!(json.contains("\"recovery_by_position\""));
        for p in KILL_POSITIONS {
            assert!(json.contains(&format!("\"position\":\"{p}\"")));
        }
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn telemetry_experiment_decomposes_latency() {
        let (text, record) = runtime_telemetry_experiment(Scale(0.05), Duration::from_millis(2));
        assert!(text.contains("decomposition"));
        assert_eq!(record.report.stages.len(), 3, "one stage per chain vertex");
        for s in &record.report.stages {
            assert!(s.service.count > 0, "vertex {} saw packets", s.vertex.0);
        }
        assert!(record.report.sink_wait.count > 0);

        // The hop stamps telescope, so the component sum must track the
        // end-to-end mean (drops at the firewall and clock-read jitter are
        // the only divergence sources).
        let e2e = record.e2e_mean_ns;
        let dec = record.decomposed_mean_ns();
        assert!(e2e > 0.0 && dec > 0.0);
        assert!(
            (dec - e2e).abs() / e2e < 0.25,
            "decomposed {dec:.0} ns vs e2e {e2e:.0} ns"
        );

        // Gauge series exist and each carries at least first + final sample.
        assert!(!record.report.series.series.is_empty());
        for g in &record.report.series.series {
            assert!(g.points.len() >= 2, "series {} too short", g.name);
        }

        // The instrumented run also carries 1% causal tracing and the
        // sentinel; neither may report problems.
        assert_eq!(record.invariant_violations, 0, "sentinel must stay clean");
        assert_eq!(record.report.trace_dropped, 0);

        let json = records_to_json(Scale(0.05), &[], None, None, Some(&record), None);
        assert!(json.contains("\"telemetry\""));
        assert!(json.contains("\"stages\""));
        assert!(json.contains("\"gauges\""));
        assert!(json.contains("\"overhead\""));
        assert!(json.contains("\"trace_spans\""));
        assert!(json.contains("\"invariant_violations\""));
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
    }

    #[test]
    fn trace_experiment_exports_a_valid_trace_with_replay_spans() {
        let (text, record) = runtime_trace_experiment(Scale(0.05));
        assert!(text.contains("Chrome trace export"));
        assert!(record.spans > 0, "full sampling must collect spans");
        assert_eq!(record.dropped, 0);
        assert_eq!(record.sample_ppm, TRACE_PPM_FULL);
        // The exporter was validated inside the experiment; re-check the
        // counted shape is internally consistent.
        assert_eq!(record.shape.begins, record.shape.ends);
        assert!(record.shape.lanes >= 3, "root, instances and sink lanes");
        // The killed entry vertex's logged packets must reappear as replay
        // spans: supervisor re-injections, and replayed service at the
        // replacement.
        assert!(
            record.replay_inject_spans > 0,
            "replay not visible in trace"
        );
        assert!(record.replay_service_spans > 0);
        assert_eq!(record.invariant_violations, 0, "sentinel must stay clean");
        assert!(record.trace_json.contains("\"ph\":\"M\""));
        assert!(record.trace_json.contains("replay_inject"));
    }
}
