//! The traced run of one workload: the seven-rung ladder, the spans of the
//! rung-2 pass, and every per-layer metric. Layers are the crate names. All
//! numbers come from timing calls into public functions from this
//! directory, or from counters the product already returns.

use crate::host::{self, Pinned};
use crate::inline::{digest_of, run_pass, InlineChain, Pass};
use crate::run::{
    chc_pass, engine_config, engine_rep, reference_from, store_for, Calibration, RunOptions, Setup,
};
use crate::spans::{check_nesting, Span, SpanLog, StoreTimes, TimedHandle};
use crate::spec::{Workload, RUNGS};
use crate::stats::{percentile_ns, ratio, Pick, Summary};
use crate::verify::{Reference, Tally};
use chc_core::{ChainConfig, ChainController, ExternalizationMode, SharedStore, StateHandle};
use chc_runtime::{spsc, RuntimeConfig, RuntimeError, RuntimeReport, TelemetryConfig};
use chc_store::StoreServer;
use chc_telemetry::{Counter, EventJournal, EventKind, StreamingHistogram};
use std::cell::RefCell;
use std::hint::black_box;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Ladder rounds: at least, at most. Each round runs every rung once, in
/// order, so a slow host phase lands on all rungs alike.
const MIN_ROUNDS: usize = 3;
const MAX_ROUNDS: usize = 8;
/// Flow-trace sampling of rung 6, in parts per million of flows (1 %).
const RUNG6_TRACE_PPM: u32 = 10_000;
/// Repetitions of the set made on every CPU the process may use.
const UNPINNED_REPS: usize = 3;
/// Direct calls per telemetry micro-measurement.
const MICRO_CALLS: u64 = 1_000_000;

/// What the traced run measured.
pub struct Layers {
    pub packets: usize,
    pub rounds: usize,
    /// Every per-layer metric, by name.
    pub metrics: Vec<(&'static str, Summary)>,
    pub host_unstable: bool,
    pub tally: Tally,
    /// Where the spans went, how many were written and how many `chain`
    /// trees passed the nesting check.
    pub span_file: PathBuf,
    pub spans: usize,
    pub span_trees: usize,
    /// The ladder's rounds, rung by rung, and the calibration readings.
    pub samples: Vec<(&'static str, Vec<f64>)>,
}

fn ns_per_pkt(wall: Duration, packets: usize) -> f64 {
    wall.as_nanos() as f64 / packets.max(1) as f64
}

fn inline_pass(
    setup: &Setup,
    mode: ExternalizationMode,
    handle: impl FnMut() -> Box<dyn StateHandle>,
) -> Pass {
    let mut chain = InlineChain::new(&setup.dag, mode, handle);
    run_pass(&mut chain, &setup.trace, None)
}

/// A rung's value (the low percentile of its rounds) minus the rung below's,
/// with the spread of the round-by-round differences: the two rungs of one
/// round run seconds apart, so a host phase mostly cancels in each pair.
fn rung_difference(upper: &[f64], lower: &[f64]) -> Summary {
    let pairs: Vec<f64> = upper.iter().zip(lower).map(|(u, l)| u - l).collect();
    let spread = Summary::of(&pairs, Pick::Median);
    Summary {
        value: Summary::of(upper, Pick::Low).value - Summary::of(lower, Pick::Low).value,
        ..spread
    }
}

/// Everything the ladder's rounds accumulate.
#[derive(Default)]
struct Ladder {
    rungs: [Vec<f64>; 7],
    /// Rung with the workload's fault plan on top of rung 5.
    faulted: Vec<f64>,
    p50_rung0: Vec<f64>,
    p50_rung2: Vec<f64>,
    restart_ms: Vec<f64>,
    restart_replayed: Vec<f64>,
    recovery_ms: Vec<f64>,
    recovery_instance_ms: Vec<f64>,
    recovery_shard_ms: Vec<f64>,
    packets_replayed: Vec<f64>,
    suppressed: Vec<f64>,
    log_high_water: Vec<f64>,
    violations: u64,
    /// Last report of rungs 5 and 6, for the counters they carry.
    default_report: Option<RuntimeReport>,
    traced_report: Option<RuntimeReport>,
    /// Rung-2 pass and store of the last round, and the rung-3 store.
    rung2: Option<(Pass, Arc<StoreServer>)>,
    rung3_durable: (u64, usize, u64),
    /// The traced rung-2 pass of every round (cost) and of the last (data).
    traced_rung2_ns: Vec<f64>,
    traced_rung2: Option<TracedPass>,
}

/// A traced pass: every NF call and every store call timed, spans recorded
/// every 64th packet.
struct TracedPass {
    pass: Pass,
    store: StoreTimes,
    nf_names: Vec<String>,
    spans: Vec<Span>,
}

/// Run a traced pass in `mode` over whatever store `inner` hands out.
fn traced_pass(
    setup: &Setup,
    mode: ExternalizationMode,
    mut inner: impl FnMut() -> Box<dyn StateHandle>,
) -> TracedPass {
    let log = SpanLog::new();
    let times = Rc::new(RefCell::new(StoreTimes::default()));
    let mut chain = InlineChain::new(&setup.dag, mode, || {
        Box::new(TimedHandle {
            inner: inner(),
            log: log.clone(),
            times: Rc::clone(&times),
        })
    });
    let nf_names = chain.nf_names();
    let pass = run_pass(&mut chain, &setup.trace, Some(&log));
    drop(chain);
    TracedPass {
        pass,
        store: times.take(),
        nf_names,
        spans: log.spans(),
    }
}

fn engine_step(
    what: &str,
    setup: &Setup,
    rt: &RuntimeConfig,
    reference: &Reference,
    tally: &mut Tally,
    violations: &mut u64,
) -> (f64, Option<RuntimeReport>) {
    let (result, wall) = engine_rep(setup, rt);
    tally.check_engine(what, reference, &result);
    *violations += sentinel_violations(&result);
    (ns_per_pkt(wall, setup.trace.len()), result.ok())
}

fn sentinel_violations(result: &Result<RuntimeReport, RuntimeError>) -> u64 {
    result
        .as_ref()
        .ok()
        .and_then(|r| r.invariants.as_ref())
        .map_or(0, |i| i.violations.len() as u64)
}

impl Ladder {
    /// One round: every rung once, bottom up.
    fn round(
        &mut self,
        workload: &Workload,
        setup: &Setup,
        reference: &Reference,
        tally: &mut Tally,
    ) {
        let chc = ExternalizationMode::ExternalizedCachedNonBlocking;
        let n = setup.trace.len();
        let digest = |server: &Arc<StoreServer>| Some(digest_of(server.dump()));

        // Rung 0: NFs with all state local. Rung 1: full CHC mode over the
        // single-threaded store. Neither store is a `StoreServer`, so only
        // the delivered set is comparable.
        let mut pass = inline_pass(setup, ExternalizationMode::Traditional, || {
            Box::new(SharedStore::new())
        });
        tally.check_pass("rung 0", reference, &pass.delivered, None);
        self.rungs[0].push(pass.ns_per_pkt());
        self.p50_rung0
            .push(percentile_ns(&mut pass.samples, 50.0) as f64);

        let store = SharedStore::new();
        let pass = inline_pass(setup, chc, || Box::new(store.clone()));
        tally.check_pass("rung 1", reference, &pass.delivered, None);
        self.rungs[1].push(pass.ns_per_pkt());

        // Rung 2: over the sharded server — the configuration `pkt_p50_ns`
        // uses on healthy workloads. Rung 3: journaling on every shard.
        let server = store_for(workload, false);
        let mut pass = chc_pass(setup, &server);
        tally.check_pass("rung 2", reference, &pass.delivered, digest(&server));
        self.rungs[2].push(pass.ns_per_pkt());
        self.p50_rung2
            .push(percentile_ns(&mut pass.samples, 50.0) as f64);
        self.rung2 = Some((pass, server));

        // Rung 2 again, traced: its cost against the untraced pass is the
        // tracing overhead; the last round's spans are the ones written.
        let server = store_for(workload, false);
        let traced = traced_pass(setup, chc, || Box::new(Arc::clone(&server)));
        let delivered = &traced.pass.delivered;
        tally.check_pass("traced rung 2", reference, delivered, digest(&server));
        self.traced_rung2_ns.push(traced.pass.ns_per_pkt());
        self.traced_rung2 = Some(traced);

        let server = store_for(workload, true);
        let pass = chc_pass(setup, &server);
        tally.check_pass("rung 3", reference, &pass.delivered, digest(&server));
        self.rungs[3].push(pass.ns_per_pkt());
        self.rung3_durable = (
            server.durable_bytes(),
            server.durable_segments(),
            server.total_ops(),
        );
        // Crash and rebuild the busiest shard from its journal; the state it
        // comes back with must still be the reference's.
        let ops = server.ops_per_shard();
        let busiest = (0..ops.len()).max_by_key(|&i| ops[i]).unwrap_or(0);
        let start = Instant::now();
        let stats = server.restart_shard(busiest);
        self.restart_ms.push(start.elapsed().as_secs_f64() * 1e3);
        self.restart_replayed.push(stats.replayed_ops as f64);
        let what = "rung 3 after restart_shard";
        tally.check_pass(what, reference, &pass.delivered, digest(&server));

        // Rungs 4–6: the engine, healthy, with telemetry off, at its
        // default, and with 1 % of flows traced on top.
        let healthy = engine_config(workload, n, false);
        let quiet = healthy.clone().with_telemetry(TelemetryConfig::disabled());
        let traced = healthy.clone().with_trace_sample_ppm(RUNG6_TRACE_PPM);
        let v = &mut self.violations;
        self.rungs[4].push(engine_step("rung 4", setup, &quiet, reference, tally, v).0);
        let (ns, report) = engine_step("rung 5", setup, &healthy, reference, tally, v);
        self.rungs[5].push(ns);
        self.default_report = report.or(self.default_report.take());
        let (ns, report) = engine_step("rung 6", setup, &traced, reference, tally, v);
        self.rungs[6].push(ns);
        self.traced_report = report.or(self.traced_report.take());

        if workload.failover {
            let faulted = engine_config(workload, n, true);
            let (ns, report) = engine_step("faulted rung", setup, &faulted, reference, tally, v);
            self.faulted.push(ns);
            if let Some(report) = report {
                self.suppressed.push(
                    report
                        .instances
                        .iter()
                        .chain(&report.failed_instances)
                        .map(|i| i.suppressed_duplicates)
                        .sum::<u64>() as f64,
                );
                if let Some(fault) = report.fault {
                    let ms = |d: Duration| d.as_secs_f64() * 1e3;
                    self.recovery_ms.push(ms(fault.max_recovery_wall()));
                    self.recovery_instance_ms.push(
                        fault
                            .recoveries
                            .iter()
                            .map(|r| ms(r.recovery_wall))
                            .fold(0.0, f64::max),
                    );
                    self.recovery_shard_ms.push(
                        fault
                            .shard_recoveries
                            .iter()
                            .map(|r| ms(r.recovery_wall))
                            .fold(0.0, f64::max),
                    );
                    self.packets_replayed.push(fault.packets_replayed() as f64);
                    self.log_high_water.push(fault.log_high_water as f64);
                }
            }
        }
    }
}

/// ns per item through an SPSC ring in ring batches of 32, producer and
/// consumer on this one thread (the cost of the ring's own bookkeeping, not
/// of a cross-core cache-line transfer, which one CPU cannot show).
fn spsc_ns_per_item() -> f64 {
    const BATCH: usize = 32;
    let (mut tx, mut rx) = spsc::ring::<u64>(1024);
    let (mut inbox, mut outbox) = (Vec::with_capacity(BATCH), Vec::with_capacity(BATCH));
    let batches = MICRO_CALLS as usize / BATCH;
    let start = Instant::now();
    for b in 0..batches {
        inbox.extend((0..BATCH).map(|i| (b * BATCH + i) as u64));
        tx.push_batch(&mut inbox);
        outbox.clear();
        rx.pop_batch(&mut outbox, BATCH);
        black_box(&outbox);
    }
    start.elapsed().as_nanos() as f64 / (batches * BATCH) as f64
}

fn ns_per_call(calls: u64, mut f: impl FnMut(u64)) -> f64 {
    let start = Instant::now();
    for i in 0..calls {
        f(black_box(i));
    }
    start.elapsed().as_nanos() as f64 / calls as f64
}

/// The simulator over the same trace: wall cost per packet, and its
/// virtual-time throughput (deterministic; never comparable with wall time).
fn simulate(setup: &Setup, workload: &Workload, seed: u64) -> Result<(f64, f64), String> {
    let mut chain = ChainController::new(workload.chain.dag(), ChainConfig::default(), seed)
        .map_err(|e| format!("simulator rejected the DAG: {e:?}"))?;
    chain.inject_trace(&setup.trace);
    let start = Instant::now();
    let report = chain.run();
    let wall = start.elapsed();
    let virtual_s = report.end_time.as_nanos() as f64 / 1e9;
    let delivered = chain.metrics().sink_delivered as f64;
    Ok((
        ns_per_pkt(wall, setup.trace.len()),
        ratio(delivered, virtual_s),
    ))
}

fn write_spans(path: &Path, spans: &[Span]) -> Result<(), String> {
    let io = |e: std::io::Error| format!("{}: {e}", path.display());
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(io)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
    for span in spans {
        writeln!(out, "{}", span.to_json()).map_err(io)?;
    }
    out.flush().map_err(io)
}

/// Mean over an engine report's stages of one latency component, summed
/// along the chain (a packet visits every stage once).
fn stage_sum(report: &RuntimeReport, pick: impl Fn(&chc_runtime::StageReport) -> f64) -> f64 {
    report
        .telemetry
        .as_ref()
        .map_or(0.0, |t| t.stages.iter().map(&pick).sum())
}

/// The per-layer metrics measured so far, by name.
#[derive(Default)]
struct Metrics(Vec<(&'static str, Summary)>);

impl Metrics {
    fn put(&mut self, name: &'static str, summary: impl Into<Summary>) {
        self.0.push((name, summary.into()));
    }
}

/// Run the traced set of one workload. `span_dir` receives
/// `<workload>-<seed>.trace.jsonl`.
pub fn per_layer(opts: &RunOptions, pinned: &Pinned, span_dir: &Path) -> Result<Layers, String> {
    let workload = opts.workload;
    let mut tally = Tally::default();
    let mut calibration = Calibration::default();
    let mut metrics = Metrics::default();
    let low = |v: &[f64]| Summary::of(v, Pick::Low);
    let median = |v: &[f64]| Summary::of(v, Pick::Median);

    // packet: trace generation alone, then the set-up the rungs share.
    let gens = if opts.quick { 1 } else { 3 };
    let mut gen_ns = Vec::with_capacity(gens);
    for _ in 0..gens {
        let start = Instant::now();
        let trace = workload.trace(opts.seed, opts.quick);
        gen_ns.push(ns_per_pkt(start.elapsed(), trace.len()));
    }
    metrics.put("packet.gen_ns_per_pkt", low(&gen_ns));
    let (setup, _) = Setup::build(workload, opts.seed, opts.quick);
    let n = setup.trace.len();

    // The reference: a rung-2 pass, checked against the ideal chain.
    let first = chc_pass(&setup, &setup.server);
    let reference = reference_from(&setup, &first, &mut tally);
    drop(first);

    // The ladder. Rounds beyond the minimum are added while they fit the
    // time budget.
    let mut ladder = Ladder::default();
    let (min_rounds, max_rounds) = if opts.quick {
        (1, 1)
    } else {
        (MIN_ROUNDS, MAX_ROUNDS)
    };
    let budget = Duration::from_secs_f64(opts.seconds.max(0.0));
    let (mut measured, mut round_cost) = (Duration::ZERO, Duration::ZERO);
    let mut rounds = 0;
    while rounds < min_rounds || (rounds < max_rounds && measured + round_cost <= budget) {
        let start = Instant::now();
        calibration.around(|| ladder.round(workload, &setup, &reference, &mut tally));
        round_cost = round_cost.max(start.elapsed());
        measured += start.elapsed();
        rounds += 1;
    }
    for (name, values) in RUNGS.iter().zip(&ladder.rungs) {
        metrics.put(name, low(values));
    }

    // The traced passes: rung 2's of the last round with its spans, and one
    // each of rungs 0 and 1 for the NF and store-instance times under them.
    let traced = ladder.traced_rung2.take().expect("at least one round");
    let span_file = span_dir.join(format!("{}-{}.trace.jsonl", workload.name, opts.seed));
    write_spans(&span_file, &traced.spans)?;
    let span_trees = check_nesting(&traced.spans, 0.02)?;
    let traced_rung0 = traced_pass(&setup, ExternalizationMode::Traditional, || {
        Box::new(SharedStore::new())
    });
    let delivered = &traced_rung0.pass.delivered;
    tally.check_pass("traced rung 0", &reference, delivered, None);
    let store = SharedStore::new();
    let traced_rung1 = traced_pass(
        &setup,
        ExternalizationMode::ExternalizedCachedNonBlocking,
        || Box::new(store.clone()),
    );
    let delivered = &traced_rung1.pass.delivered;
    tally.check_pass("traced rung 1", &reference, delivered, None);

    // nf: the NFs alone (rung 0) and each NF's span in full CHC mode.
    metrics.put("nf.process_ns_per_pkt", low(&ladder.rungs[0]));
    for (metric, nf) in [
        ("nf.firewall_p50_ns", "firewall"),
        ("nf.nat_p50_ns", "nat"),
        ("nf.lb_p50_ns", "lb"),
    ] {
        let p50 = traced
            .nf_names
            .iter()
            .position(|name| name == nf)
            .map_or(0, |i| {
                percentile_ns(&mut traced.pass.nf_ns[i].clone(), 50.0)
            });
        metrics.put(metric, Summary::exact(p50 as f64));
    }
    metrics.put(
        "nf.drop_share",
        1.0 - reference.delivered.len() as f64 / n as f64,
    );

    // core: the client library between the NFs and the store.
    let (rung2_pass, rung2_server) = ladder.rung2.take().expect("at least one round");
    let stats = rung2_pass.stats;
    let accesses = (stats.cache_hits + stats.blocking_ops + stats.non_blocking_ops).max(1);
    let nf_total = |pass: &Pass| -> f64 {
        pass.nf_ns
            .iter()
            .flatten()
            .map(|&ns| ns as f64)
            .sum::<f64>()
            / n as f64
    };
    let inline_pps: Vec<f64> = ladder.rungs[2].iter().map(|ns| 1e9 / ns).collect();
    metrics.put("core.inline_pps", Summary::of(&inline_pps, Pick::High));
    // NF-span self time at rung 2 (store time behind the handle removed)
    // minus the NF spans of rung 0, both from traced passes.
    let store_in_nfs =
        (traced.store.total_ns() as f64 - traced.pass.drain_ns as f64).max(0.0) / n as f64;
    metrics.put(
        "core.client_ns_per_pkt",
        nf_total(&traced.pass) - store_in_nfs - nf_total(&traced_rung0.pass),
    );
    metrics.put(
        "core.chc_overhead_p50_ns",
        rung_difference(&ladder.p50_rung2, &ladder.p50_rung0),
    );
    metrics.put(
        "core.cache_hit_ratio",
        stats.cache_hits as f64 / accesses as f64,
    );
    metrics.put(
        "core.blocking_ops_per_pkt",
        stats.blocking_ops as f64 / n as f64,
    );
    metrics.put(
        "core.nonblocking_ops_per_pkt",
        stats.non_blocking_ops as f64 / n as f64,
    );
    let default_report = ladder.default_report.take();
    let (drains, drained) = default_report
        .as_ref()
        .and_then(|r| r.telemetry.as_ref())
        .map_or((0u64, 0.0), |t| {
            t.stages.iter().fold((0, 0.0), |(c, ops), s| {
                (
                    c + s.flush_depth.count,
                    ops + s.flush_depth.count as f64 * s.flush_depth.mean_ns,
                )
            })
        });
    metrics.put("core.flush_depth_mean", ratio(drained, drains as f64));
    metrics.put(
        "core.drain_ns_per_op",
        rung2_pass.drain_ns as f64 / rung2_pass.drained_ops.max(1) as f64,
    );
    metrics.put("core.log_high_water", median(&ladder.log_high_water));

    // store: counted on the single-client rung-2 pass, timed behind the
    // wrapping handle, and priced by rung differences.
    let shard_ops = rung2_server.ops_per_shard();
    let total_ops = rung2_server.total_ops();
    metrics.put("store.ops_per_pkt", total_ops as f64 / n as f64);
    metrics.put(
        "store.instance_ns_per_pkt",
        traced_rung1.store.total_ns() as f64 / n as f64,
    );
    metrics.put(
        "store.server_ns_per_pkt",
        rung_difference(&ladder.rungs[2], &ladder.rungs[1]),
    );
    metrics.put(
        "store.journal_ns_per_pkt",
        rung_difference(&ladder.rungs[3], &ladder.rungs[2]),
    );
    let mut applies = traced.store.apply_ns.clone();
    metrics.put(
        "store.apply_p50_ns",
        percentile_ns(&mut applies, 50.0) as f64,
    );
    metrics.put(
        "store.apply_p99_ns",
        percentile_ns(&mut applies, 99.0) as f64,
    );
    metrics.put(
        "store.apply_batch_ns_per_op",
        traced.store.batch_ns as f64 / traced.store.batch_ops.max(1) as f64,
    );
    let (durable_bytes, durable_segments, journaled_ops) = ladder.rung3_durable;
    metrics.put(
        "store.durable_bytes_per_op",
        durable_bytes as f64 / journaled_ops.max(1) as f64,
    );
    metrics.put("store.durable_segments", durable_segments as f64);
    metrics.put("store.restart_ms", low(&ladder.restart_ms));
    metrics.put(
        "store.restart_replayed_ops",
        median(&ladder.restart_replayed),
    );
    let mean_ops = total_ops as f64 / shard_ops.len().max(1) as f64;
    let max_ops = shard_ops.iter().copied().max().unwrap_or(0) as f64;
    metrics.put("store.shard_skew", ratio(max_ops, mean_ops));
    metrics.put("store.state_bytes", rung2_server.state_bytes() as f64);
    metrics.put("store.keys", rung2_server.len() as f64);
    drop((rung2_pass, rung2_server));

    // runtime: what threads, rings and the fault machinery add.
    metrics.put(
        "runtime.self_ns_per_pkt",
        rung_difference(&ladder.rungs[4], &ladder.rungs[2]),
    );
    metrics.put("runtime.spsc_ns_per_item", spsc_ns_per_item());
    if let Some(report) = &default_report {
        let (processed, batches) = report.instances.iter().fold((0u64, 0u64), |(p, b), i| {
            (p + i.processed, b + i.batches_in)
        });
        metrics.put(
            "runtime.mean_batch",
            processed as f64 / batches.max(1) as f64,
        );
        metrics.put(
            "runtime.queue_wait_mean_us",
            stage_sum(report, |s| s.queue.mean_ns) / 1e3,
        );
        metrics.put(
            "runtime.service_mean_ns",
            stage_sum(report, |s| s.service.mean_ns),
        );
        metrics.put(
            "runtime.store_rtt_mean_ns",
            stage_sum(report, |s| s.store.mean_ns),
        );
        // Root→sink under unpaced injection: ring backlog, informational.
        metrics.put(
            "runtime.sojourn_p50_us",
            report.latency.percentile(50.0) as f64 / 1e3,
        );
        metrics.put(
            "runtime.sojourn_p99_us",
            report.latency.percentile(99.0) as f64 / 1e3,
        );
    }
    let pps_default: Vec<f64> = ladder.rungs[5].iter().map(|ns| 1e9 / ns).collect();
    metrics.put(
        "runtime.pps_rep_spread_pct",
        median(&pps_default).spread_pct(),
    );
    // The same repetitions on every CPU the process may use, with process
    // CPU time: what real cores would see. It does not repeat on a shared
    // host, so it is reported with its spread and never gated.
    let healthy = engine_config(workload, n, false);
    let reps = if opts.quick { 1 } else { UNPINNED_REPS };
    // Only the engine calls sit between the two CPU-time readings; the
    // repetitions are verified afterwards.
    let cpu_before = host::process_cpu_ns();
    let wide_runs = pinned.unpinned(|| {
        (0..reps)
            .map(|_| engine_rep(&setup, &healthy))
            .collect::<Vec<_>>()
    })?;
    let cpu_ns = host::process_cpu_ns().saturating_sub(cpu_before);
    let mut wide_pps = Vec::with_capacity(reps);
    for (i, (result, wall)) in wide_runs.iter().enumerate() {
        tally.check_engine(&format!("all-CPU repetition {}", i + 1), &reference, result);
        ladder.violations += sentinel_violations(result);
        wide_pps.push(n as f64 / wall.as_secs_f64());
    }
    drop(wide_runs);
    let wide_summary = Summary::of(&wide_pps, Pick::High);
    metrics.put("runtime.pps_all_cpus", wide_summary);
    metrics.put("runtime.pps_all_cpus_spread_pct", wide_summary.spread_pct());
    metrics.put("runtime.cpu_ns_per_pkt", cpu_ns as f64 / (n * reps) as f64);
    metrics.put(
        "runtime.fault_mode_ns_per_pkt",
        rung_difference(&ladder.faulted, &ladder.rungs[5][..ladder.faulted.len()]),
    );
    metrics.put("runtime.recovery_ms", median(&ladder.recovery_ms));
    metrics.put(
        "runtime.recovery_instance_ms",
        median(&ladder.recovery_instance_ms),
    );
    metrics.put(
        "runtime.recovery_shard_ms_max",
        median(&ladder.recovery_shard_ms),
    );
    metrics.put("runtime.packets_replayed", median(&ladder.packets_replayed));
    metrics.put("runtime.suppressed_duplicates", median(&ladder.suppressed));

    // telemetry: rung differences for the engine's own observation, direct
    // calls for the primitives.
    metrics.put(
        "telemetry.self_ns_per_pkt",
        rung_difference(&ladder.rungs[5], &ladder.rungs[4]),
    );
    metrics.put(
        "telemetry.tracing_ns_per_pkt",
        rung_difference(&ladder.rungs[6], &ladder.rungs[5]),
    );
    let hist = StreamingHistogram::new();
    metrics.put(
        "telemetry.hist_record_ns",
        ns_per_call(MICRO_CALLS, |i| hist.record(i & 0xffff)),
    );
    let counter = Counter::new();
    metrics.put(
        "telemetry.counter_inc_ns",
        ns_per_call(MICRO_CALLS, |_| counter.inc()),
    );
    black_box((hist.count(), counter.get()));
    let journal = EventJournal::new();
    let event = |i: u64| EventKind::InstanceSpawn {
        vertex: 1,
        index: 0,
        instance: i,
    };
    metrics.put(
        "telemetry.journal_event_ns",
        ns_per_call(MICRO_CALLS / 4, |i| {
            journal.record(i, event(i));
        }),
    );
    drop(journal);
    let trace_dropped = ladder
        .traced_report
        .as_ref()
        .and_then(|r| r.telemetry.as_ref())
        .map_or(0, |t| t.trace_dropped);
    metrics.put("telemetry.trace_dropped", trace_dropped as f64);
    metrics.put("telemetry.invariant_violations", ladder.violations as f64);

    // sim: the equivalence oracle, not the product path.
    let (sim_wall, sim_virtual) = simulate(&setup, workload, opts.seed)?;
    metrics.put("sim.wall_ns_per_pkt", sim_wall);
    metrics.put("sim.virtual_pps", sim_virtual);

    // host and harness.
    let clean_rounds = calibration.clean_steps().iter().filter(|c| **c).count();
    metrics.put("host.calib_ns", calibration.summary());
    metrics.put("host.factor", calibration.factor());
    metrics.put("host.calib_drift_pct", calibration.drift_pct());
    let overhead = rung_difference(&ladder.traced_rung2_ns, &ladder.rungs[2]);
    let untraced = low(&ladder.rungs[2]).value;
    metrics.put(
        "bench.trace_overhead_pct",
        overhead.scaled(ratio(100.0, untraced)),
    );

    Ok(Layers {
        packets: n,
        rounds,
        metrics: metrics.0,
        host_unstable: !opts.quick && clean_rounds < MIN_ROUNDS,
        tally,
        span_file,
        spans: traced.spans.len(),
        span_trees,
        samples: RUNGS
            .iter()
            .copied()
            .zip(ladder.rungs.iter().cloned())
            .chain([
                ("faulted_rung_ns_per_pkt", ladder.faulted.clone()),
                ("traced_rung2_ns_per_pkt", ladder.traced_rung2_ns.clone()),
                ("calib_ns", calibration.readings()),
            ])
            .collect(),
    })
}
