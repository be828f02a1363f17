//! One harness per paper experiment. See the crate documentation.

use chc_baselines::{run_single_nf, sweep_modes, FtmbModel, OpenNfModel, StatelessNfModel};
use chc_core::{
    ChainConfig, ChainController, InlineChain, LogicalDag, NetworkFunction, VertexSpec,
};
use chc_nf::{LoadBalancer, Nat, PortscanDetector, Scrubber, TrojanDetector};
use chc_packet::{Scope, Trace, TraceConfig, TraceGenerator};
use chc_sim::{SimDuration, VirtualTime};
use chc_store::{BackendKind, Clock, InstanceId, Operation, StoreServer, Value, VertexId};
use std::fmt::Write as _;
use std::rc::Rc;
use std::sync::Arc;

/// Experiment scale: 1.0 runs trace sizes comparable to quick CI runs;
/// larger values use more packets (the paper's traces have millions).
#[derive(Debug, Clone, Copy)]
pub struct Scale(pub f64);

impl Default for Scale {
    fn default() -> Self {
        Scale(1.0)
    }
}

impl Scale {
    fn connections(&self, base: usize) -> usize {
        ((base as f64) * self.0).max(50.0) as usize
    }
}

fn eval_trace(scale: Scale, seed: u64) -> Trace {
    TraceGenerator::new(TraceConfig {
        seed,
        connections: scale.connections(800),
        ..TraceConfig::trace2_like(0.001)
    })
    .generate()
}

/// A named factory of one of the paper's evaluated NFs.
type NamedNfFactory = (&'static str, fn() -> Box<dyn NetworkFunction>);

fn nf_factories() -> [NamedNfFactory; 4] {
    [
        ("NAT", || Box::new(Nat::default())),
        (
            "Portscan detector",
            || Box::new(PortscanDetector::default()),
        ),
        ("Trojan detector", || Box::new(TrojanDetector::new())),
        ("Load balancer", || {
            Box::new(LoadBalancer::with_default_backends())
        }),
    ]
}

/// Figure 8: per-packet processing-time percentiles per NF under
/// T / EO / EO+C / EO+C+NA.
pub fn fig08_latency(scale: Scale) -> String {
    let trace = eval_trace(scale, 8);
    let mut out =
        String::from("Figure 8 — per-packet processing time (us) [p5 / p25 / p50 / p75 / p95]\n");
    for (name, factory) in nf_factories() {
        let _ = writeln!(out, "  {name}:");
        for (mode, summary, _) in sweep_modes(factory, &trace, 8) {
            let _ = writeln!(
                out,
                "    {:<8} {:>8.2} {:>8.2} {:>8.2} {:>8.2} {:>8.2}",
                mode.label(),
                summary.p5.as_micros_f64(),
                summary.p25.as_micros_f64(),
                summary.p50.as_micros_f64(),
                summary.p75.as_micros_f64(),
                summary.p95.as_micros_f64(),
            );
        }
    }
    out
}

/// Figure 10: per-instance throughput (Gbps) per NF under T / EO / EO+C+NA.
pub fn fig10_throughput(scale: Scale) -> String {
    let trace = eval_trace(scale, 10);
    let mut out = String::from("Figure 10 — per-instance throughput (Gbps)\n");
    for (name, factory) in nf_factories() {
        let rows = sweep_modes(factory, &trace, 8);
        let _ = writeln!(
            out,
            "  {:<18} T={:>5.2}  EO={:>5.2}  EO+C+NA={:>5.2}",
            name, rows[0].2, rows[1].2, rows[3].2
        );
    }
    out
}

/// Figure 9: cross-flow state caching — per-packet latency of the portscan
/// detector before / while / after a second instance shares its per-host
/// state (sharing forces blocking store updates on SYN-ACK/RST packets).
pub fn fig09_crossflow_cache(scale: Scale) -> String {
    let trace = TraceGenerator::new(
        TraceConfig {
            seed: 9,
            connections: scale.connections(600),
            ..TraceConfig::trace2_like(0.001)
        }
        .with_scanners(0.2),
    )
    .generate();
    let config = ChainConfig::default();
    let mut chain: InlineChain =
        InlineChain::single(Box::new(PortscanDetector::default()), &config);
    // From a third of the trace to two thirds, a second instance processes
    // some of the same hosts: the upstream splitter signals this instance to
    // stop caching the shared likelihood object (Table 1 row 4), then to
    // resume. The phase of a packet is the number of flips before it.
    let flips = [(trace.len() / 3, false), (2 * trace.len() / 3, true)];
    let mut phase_sums = [0.0f64; 3];
    let mut phase_counts = [0u64; 3];
    for (i, pkt) in trace.iter().enumerate() {
        for &(_, exclusive) in flips.iter().filter(|(at, _)| *at == i) {
            let clock = Clock(i as u64);
            chain
                .client(0)
                .set_exclusive(chc_nf::portscan::LIKELIHOOD, exclusive, clock);
        }
        let now = VirtualTime::from_nanos(pkt.arrival_ns);
        chain.step(pkt, Clock(i as u64 + 1), now);
        let charge = chain.core(0).charge() + config.costs.base_processing;
        let phase = flips.iter().filter(|(at, _)| i >= *at).count();
        phase_sums[phase] += charge.as_micros_f64();
        phase_counts[phase] += 1;
    }
    let mean = |p: usize| phase_sums[p] / phase_counts[p].max(1) as f64;
    format!(
        "Figure 9 — portscan detector per-packet latency (us, mean)\n  \
         exclusive (cached):        {:.2}\n  \
         shared with 2nd instance:  {:.2}\n  \
         merged back (cached):      {:.2}\n",
        mean(0),
        mean(1),
        mean(2)
    )
}

/// §7.1 "Operation offloading": offloaded operations vs. naive lock +
/// read-modify-write for shared state.
pub fn offload_vs_locks(_scale: Scale) -> String {
    let model = StatelessNfModel::default();
    let naive = model.rmw_packet_latency(2);
    let offload = model.offload_packet_latency(2, true);
    let offload_na = model.offload_packet_latency(2, false);
    format!(
        "§7.1 operation offloading — 2 shared-state updates per packet\n  \
         naive lock + read-modify-write: {:.1} us\n  \
         CHC offloaded (wait for ACK):   {:.1} us   ({:.2}x better)\n  \
         CHC offloaded (no ACK wait):    {:.2} us\n",
        naive.as_micros_f64(),
        offload.as_micros_f64(),
        naive.as_micros_f64() / offload.as_micros_f64(),
        offload_na.as_micros_f64()
    )
}

/// §7.1 "Datastore performance": operations per second of one sharded store
/// server (real threads, wall-clock time).
pub fn datastore_throughput(scale: Scale) -> String {
    let server = StoreServer::new(4);
    let threads = 4;
    let per_thread = (100_000.0 * scale.0.max(0.2)) as u64;
    let start = std::time::Instant::now();
    let mut handles = Vec::new();
    for t in 0..threads {
        let server = Arc::clone(&server);
        handles.push(std::thread::spawn(move || {
            for i in 0..per_thread {
                let key = chc_store::StateKey::shared(
                    VertexId(t),
                    chc_store::ObjectKey::scoped(
                        "bench",
                        chc_packet::ScopeKey::Port((i % 1_000) as u16),
                    ),
                );
                let op = match i % 3 {
                    0 => Operation::Increment(1),
                    1 => Operation::Get,
                    _ => Operation::Set(Value::Int(i as i64)),
                };
                let _ = server.apply(InstanceId(t), &key, &op, None);
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    let elapsed = start.elapsed().as_secs_f64();
    let ops = (per_thread * threads as u64) as f64;
    format!(
        "§7.1 datastore performance — {} ops over {} threads / 4 shards\n  {:.2} M ops/s (mixed get/set/increment)\n",
        ops as u64,
        threads,
        ops / elapsed / 1e6
    )
}

/// §7.2: metadata overheads (clock persistence, packet logging, delete
/// round trip), from the calibrated cost model.
pub fn metadata_overhead(_scale: Scale) -> String {
    let costs = ChainConfig::default().costs;
    let clock = |n: u64| costs.clock_persist.as_micros_f64() / n as f64;
    format!(
        "§7.2 metadata overheads (per packet)\n  \
         clock persisted every packet:   {:.1} us\n  \
         clock persisted every 10 pkts:  {:.1} us\n  \
         clock persisted every 100 pkts: {:.2} us\n  \
         packet log at root (local):     {:.1} us\n  \
         packet log in datastore:        {:.1} us\n  \
         synchronous delete-before-output: {:.1} us (async: ~0, at the risk of duplicates on tail failure)\n",
        clock(1),
        clock(10),
        clock(100),
        costs.root_local_log.as_micros_f64(),
        (costs.root_local_log + costs.store_log_extra).as_micros_f64(),
        costs.delete_roundtrip.as_micros_f64()
    )
}

/// Figure 11 (R3): strongly consistent shared-state updates — CHC vs. an
/// OpenNF-style controller that forwards each packet to every instance.
pub fn fig11_state_sharing(scale: Scale) -> String {
    let trace = eval_trace(scale, 11);
    let cfg = ChainConfig::default();
    let mut chc = run_single_nf(&mut Nat::default(), &cfg, &trace, 8);
    let chc_summary = chc.summary();
    let mut opennf = OpenNfModel::default().consistent_update_cdf(2, trace.len(), 11);
    format!(
        "Figure 11 — strongly consistent shared state across 2 NAT instances (per-packet us)\n  \
         CHC    p50={:.1}  p95={:.1}\n  \
         OpenNF p50={:.1}  p95={:.1}   (CHC median {:.0}% lower)\n",
        chc_summary.p50.as_micros_f64(),
        chc_summary.p95.as_micros_f64(),
        opennf.median().as_micros_f64(),
        opennf.percentile(95.0).as_micros_f64(),
        (1.0 - chc_summary.p50.as_micros_f64() / opennf.median().as_micros_f64()) * 100.0
    )
}

/// Figure 12 (R1): state availability — CHC externalization vs. FTMB-style
/// periodic checkpointing.
pub fn fig12_fault_tolerance(scale: Scale) -> String {
    let trace = eval_trace(scale, 12);
    let cfg = ChainConfig::default();
    let mut chc = run_single_nf(&mut Nat::default(), &cfg, &trace, 8);
    let chc_summary = chc.summary();
    let ftmb = FtmbModel::default();
    let mut ftmb_hist =
        ftmb.latency_distribution(trace.iter().map(|p| VirtualTime::from_nanos(p.arrival_ns)));
    format!(
        "Figure 12 — fault tolerance overhead on the NAT (per-packet us)\n  \
         CHC   p50={:.1}  p75={:.1}  p95={:.1}\n  \
         FTMB  p50={:.1}  p75={:.1}  p95={:.1}  (periodic checkpoint stalls)\n",
        chc_summary.p50.as_micros_f64(),
        chc_summary.p75.as_micros_f64(),
        chc_summary.p95.as_micros_f64(),
        ftmb_hist.median().as_micros_f64(),
        ftmb_hist.percentile(75.0).as_micros_f64(),
        ftmb_hist.percentile(95.0).as_micros_f64()
    )
}

fn nat_portscan_chain() -> LogicalDag {
    LogicalDag::linear(vec![
        VertexSpec::new(1, "nat", Rc::new(|| Box::new(Nat::default()))),
        VertexSpec::new(
            2,
            "portscan",
            Rc::new(|| Box::new(PortscanDetector::default())),
        ),
    ])
}

/// Figure 13 (R6): per-packet latency around an NF failure and failover
/// (windowed averages of the failover instance's packet times).
pub fn fig13_nf_failover(scale: Scale) -> String {
    let mut out = String::from("Figure 13 — NAT failover: windowed mean packet time (us)\n");
    for load in [0.3, 0.5] {
        let trace = TraceGenerator::new(
            TraceConfig {
                seed: 13,
                connections: scale.connections(500),
                ..TraceConfig::trace2_like(0.001)
            }
            .with_load_fraction(load),
        )
        .generate();
        let mut chain =
            ChainController::new(nat_portscan_chain(), ChainConfig::default(), 13).unwrap();
        chain.inject_trace(&trace);
        let fail_at = trace.packets[trace.len() / 2].arrival_ns;
        chain.run_until(VirtualTime::from_nanos(fail_at));
        chain.fail_instance(VertexId(1), 0);
        // Failure detection plus bringing up the failover container takes a
        // moment; traffic keeps arriving meanwhile and is replayed afterwards,
        // which is what produces the latency spike the figure shows.
        chain.run_until(VirtualTime::from_nanos(fail_at) + SimDuration::from_millis(1));
        chain.failover_instance(VertexId(1), 0);
        chain.run();
        let series = chain.instance_series(VertexId(1), 0);
        // Windowed means after the failure instant.
        let window = SimDuration::from_micros(500);
        let mut peak: f64 = 0.0;
        let mut recovered_after = None;
        for w in 0..40u64 {
            let from =
                VirtualTime::from_nanos(fail_at) + SimDuration::from_nanos(window.as_nanos() * w);
            let to = from + window;
            let mean = series
                .iter()
                .filter(|(t, _)| *t >= from && *t < to)
                .map(|(_, v)| *v)
                .fold((0.0, 0u32), |(s, n), v| (s + v, n + 1));
            if mean.1 > 0 {
                let m = mean.0 / mean.1 as f64;
                peak = peak.max(m);
                if recovered_after.is_none() && m < 50.0 && w > 0 {
                    recovered_after = Some(w as f64 * window.as_millis_f64());
                }
            }
        }
        let _ = writeln!(
            out,
            "  load {:>3.0}%: peak windowed latency {:>8.0} us, back to normal after ~{:.1} ms",
            load * 100.0,
            peak,
            recovered_after.unwrap_or(40.0 * window.as_millis_f64())
        );
    }
    out
}

/// Figure 14 (R6): datastore-instance recovery time vs. number of NAT
/// instances and checkpoint interval, measured as a store shard's restart
/// from its checkpoint plus the journal of what the NATs applied since.
pub fn fig14_store_recovery(scale: Scale) -> String {
    // Ops per journal record: a write-behind batch's worth. The deepest
    // cell at scale 1 is under 500 records, short of the journal's
    // 1,024-record compaction, so every op since the checkpoint replays.
    const BATCH: usize = 256;
    let mut out = String::from("Figure 14 — shared-state recovery of a store instance\n");
    let key = chc_store::StateKey::shared(VertexId(1), chc_store::ObjectKey::named("pkt_count"));
    for instances in [5usize, 10] {
        for interval_ms in [30u64, 75, 150] {
            // Ops issued per instance since the last checkpoint: the paper's
            // NATs process ≈9.4 Gbps ≈ 820 Kpps with one shared-counter
            // update per packet, split across the instances.
            let pps_total = 820_000.0 * scale.0.max(0.2);
            let ops_since_checkpoint = (pps_total * (interval_ms as f64 / 1_000.0)) as usize;
            let share = ops_since_checkpoint / instances;
            // Journal each NAT's updates since the checkpoint, then time the
            // shard's restart (wall clock).
            let store = StoreServer::with_backend(1, BackendKind::Memory);
            store.set_shard_journaling(0, true);
            store.checkpoint_shard(0);
            for i in 0..instances {
                let ops: Vec<_> = (0..share)
                    .map(|n| Clock((i * share + n) as u64 + 1))
                    .map(|clock| (key.clone(), Operation::Increment(1), Some(clock)))
                    .collect();
                for batch in ops.chunks(BATCH) {
                    store.apply_batch(InstanceId(i as u32), batch);
                }
            }
            let start = std::time::Instant::now();
            let report = store.restart_shard(0);
            let wall_ms = start.elapsed().as_secs_f64() * 1_000.0;
            let _ = writeln!(
                out,
                "  {:>2} NATs, checkpoint every {:>3} ms: {:>7} ops replayed, recovery ≈ {:>7.1} ms",
                instances, interval_ms, report.replayed_ops, wall_ms
            );
        }
    }
    out
}

/// Table 5 (R5): duplicates at the downstream portscan detector when a
/// straggler NAT is cloned, with and without duplicate suppression.
pub fn tab5_duplicates(scale: Scale) -> String {
    let mut out =
        String::from("Table 5 — straggler clone duplicates at the downstream portscan detector\n");
    for load in [0.3, 0.5] {
        for suppression in [false, true] {
            let trace = TraceGenerator::new(
                TraceConfig {
                    seed: 5,
                    connections: scale.connections(400),
                    ..TraceConfig::trace2_like(0.001)
                }
                .with_load_fraction(load),
            )
            .generate();
            let cfg = ChainConfig {
                duplicate_suppression: suppression,
                ..Default::default()
            };
            let mut chain = ChainController::new(nat_portscan_chain(), cfg, 55).unwrap();
            chain.inject_trace(&trace);
            let quarter = trace.packets[trace.len() / 4].arrival_ns;
            chain.run_until(VirtualTime::from_nanos(quarter));
            chain.set_straggler(VertexId(1), 0, SimDuration::from_micros(6));
            chain.clone_for_straggler(VertexId(1), 0);
            chain.run();
            let metrics = chain.metrics();
            let portscan = &metrics.vertex(VertexId(2))[0];
            let _ = writeln!(
                out,
                "  load {:>3.0}%, suppression {:>3}: duplicate packets processed = {:>6}, duplicate state updates = {:>6}, suppressed = {:>6}, end-host duplicates = {}",
                load * 100.0,
                if suppression { "on" } else { "off" },
                portscan.counters.duplicate_packets,
                portscan.counters.duplicate_state_updates,
                portscan.counters.suppressed_duplicates,
                metrics.sink_duplicates + metrics.sink_replay_shadows
            );
        }
    }
    out
}

/// §7.3 R2: cross-instance state transfer — CHC flow move vs. OpenNF
/// loss-free move.
pub fn r2_state_move(scale: Scale) -> String {
    let trace = TraceGenerator::new(TraceConfig {
        seed: 2,
        connections: scale.connections(800),
        ..TraceConfig::trace2_like(0.001)
    })
    .generate();
    let mut chain = ChainController::new(nat_portscan_chain(), ChainConfig::default(), 2).unwrap();
    chain.inject_trace(&trace);
    let mid = trace.packets[trace.len() / 2].arrival_ns;
    chain.run_until(VirtualTime::from_nanos(mid));
    let (_, new_index) = chain.scale_up(VertexId(1));
    // Move a batch of flows to the new instance.
    let keys: Vec<_> = trace
        .packets
        .iter()
        .map(|p| Scope::FiveTuple.key_of(p))
        .collect::<std::collections::BTreeSet<_>>()
        .into_iter()
        .take(200)
        .collect();
    let moved = keys.len();
    let start = chain.now();
    chain.move_flows(VertexId(1), &keys, new_index);
    chain.run();
    let completed = chain
        .with_instance(VertexId(1), new_index, |a| a.handover_completed_at)
        .flatten()
        .unwrap_or(start);
    let chc_ms = (completed - start).as_millis_f64();
    let opennf_ms = OpenNfModel::default().loss_free_move(4_000).as_millis_f64();
    // Scale OpenNF's per-flow copy cost to the same number of flows moved.
    let opennf_scaled = OpenNfModel::default().loss_free_move(moved).as_millis_f64();
    format!(
        "§7.3 R2 — reallocating {moved} flows to a new NAT instance\n  \
         CHC handover (no state copied):      {:.3} ms\n  \
         OpenNF loss-free move ({moved} flows): {:.3} ms\n  \
         OpenNF loss-free move (4000 flows):  {:.3} ms (paper's scenario)\n",
        chc_ms, opennf_scaled, opennf_ms
    )
}

/// §7.3 R4: chain-wide ordering — Trojan detection accuracy when upstream
/// scrubbers are slowed down, CHC logical clocks vs. observation order.
pub fn r4_chain_ordering(scale: Scale) -> String {
    let mut out = String::from("R4 — Trojan signatures detected (11 injected)\n");
    for (label, slow_instances) in [
        ("W1 (1 slow scrubber)", 1usize),
        ("W2 (2 slow)", 2),
        ("W3 (3 slow)", 3),
    ] {
        let mut detected = Vec::new();
        for use_clocks in [true, false] {
            let trace = TraceGenerator::new(
                TraceConfig {
                    seed: 4,
                    connections: scale.connections(400),
                    trojan_background_fraction: 0.1,
                    ..TraceConfig::trace2_like(0.001)
                }
                .with_trojans(11),
            )
            .generate();
            let detector: Rc<dyn Fn() -> Box<dyn NetworkFunction>> = if use_clocks {
                Rc::new(|| Box::new(TrojanDetector::new()))
            } else {
                Rc::new(|| Box::new(TrojanDetector::without_chain_clocks()))
            };
            let mut dag = LogicalDag::linear(vec![VertexSpec::new(
                1,
                "scrubber",
                Rc::new(|| Box::new(Scrubber::new())),
            )
            .with_parallelism(3)]);
            let trojan = dag.add_vertex(VertexSpec::new(2, "trojan", detector).off_path());
            dag.add_edge(VertexId(1), trojan);
            let mut chain = ChainController::new(dag, ChainConfig::default(), 44).unwrap();
            // Partition scrubber traffic by service port so SSH/FTP/IRC flows
            // land on different instances (the Figure 2 deployment), and slow
            // some of them down.
            chain.inject_trace(&trace);
            for idx in 0..slow_instances {
                chain.set_straggler(VertexId(1), idx, SimDuration::from_micros(75));
            }
            chain.run();
            let metrics = chain.metrics();
            let found = metrics
                .alerts()
                .iter()
                .filter(|(_, m)| m.contains("trojan"))
                .count();
            detected.push(found);
        }
        let _ = writeln!(
            out,
            "  {label}: CHC (logical clocks) = {}/11, no chain-wide ordering = {}/11",
            detected[0], detected[1]
        );
    }
    out
}

/// §7.3 root failover: time for a failover root to resume stamping.
pub fn root_recovery(_scale: Scale) -> String {
    let costs = ChainConfig::default().costs;
    // One store read for the persisted clock plus one query round trip to the
    // downstream instances for the current flow allocation.
    let t = costs.store_rtt() + costs.inter_nf_link.times(2);
    format!(
        "§7.3 root failover — clock read + flow-allocation query ≈ {:.1} us\n",
        t.as_micros_f64()
    )
}

/// Run every experiment and concatenate the reports.
pub fn run_all(scale: Scale) -> String {
    let mut out = String::new();
    type Section = (&'static str, fn(Scale) -> String);
    let sections: Vec<Section> = vec![
        ("fig08", fig08_latency),
        ("fig09", fig09_crossflow_cache),
        ("fig10", fig10_throughput),
        ("offload", offload_vs_locks),
        ("datastore", datastore_throughput),
        ("metadata", metadata_overhead),
        ("fig11", fig11_state_sharing),
        ("fig12", fig12_fault_tolerance),
        ("fig13", fig13_nf_failover),
        ("fig14", fig14_store_recovery),
        ("tab5", tab5_duplicates),
        ("r2", r2_state_move),
        ("r4", r4_chain_ordering),
        ("root", root_recovery),
    ];
    for (name, f) in sections {
        let _ = writeln!(out, "==== {name} ====");
        out.push_str(&f(scale));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_experiments_produce_reports() {
        let s = Scale(0.2);
        assert!(fig09_crossflow_cache(s).contains("shared"));
        assert!(offload_vs_locks(s).contains("offloaded"));
        assert!(metadata_overhead(s).contains("clock"));
        assert!(root_recovery(s).contains("failover"));
    }

    #[test]
    fn r2_move_is_orders_of_magnitude_faster_than_opennf() {
        let report = r2_state_move(Scale(0.3));
        assert!(report.contains("CHC handover"));
    }
}
