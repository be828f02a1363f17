//! A standalone single-NF runner: a one-NF [`chc_core::InlineChain`] over a
//! trace. A packet's latency is the NF's base cost plus the client's
//! state-access charge of its stage, queued on the same workers
//! ([`chc_sim::WorkerPool`]) as the simulator's instances. This mirrors the
//! paper's §7.1 methodology ("We study each NF type in isolation first")
//! and backs the Figure 8/10/11/12 harnesses.

use chc_core::{ChainConfig, ExternalizationMode, InlineChain, NetworkFunction};
use chc_packet::Trace;
use chc_sim::{Histogram, Summary, Throughput, VirtualTime, WorkerPool};
use chc_store::Clock;

/// Result of a single-NF run.
pub struct SingleNfRun {
    /// Per-packet processing-time distribution.
    pub latency: Histogram,
    /// Sustained throughput in Gbps under the worker capacity model.
    pub throughput_gbps: f64,
    /// Packets processed.
    pub processed: u64,
}

impl SingleNfRun {
    /// Five-number latency summary (the paper's box plots).
    pub fn summary(&mut self) -> Summary {
        self.latency.summary()
    }
}

/// Run `nf` over `trace` under `config`, with `workers` parallel processing
/// threads per instance (the paper's NFs are multi-threaded processes).
pub fn run_single_nf(
    nf: &mut dyn NetworkFunction,
    config: &ChainConfig,
    trace: &Trace,
    workers: usize,
) -> SingleNfRun {
    let mut latency = Histogram::new();
    let mut throughput = Throughput::new();
    let mut pool = WorkerPool::new(workers);
    let mut chain = InlineChain::single(nf, config);

    for (i, pkt) in trace.iter().enumerate() {
        let arrival = VirtualTime::from_nanos(pkt.arrival_ns);
        chain.step(pkt, Clock(i as u64 + 1), arrival);
        let proc = config.costs.base_processing + chain.core(0).charge();
        let finish = pool.serve(arrival, proc);
        latency.record(proc);
        throughput.record(finish, pkt.len as u64);
    }

    SingleNfRun {
        latency,
        throughput_gbps: throughput.gbps(),
        processed: chain.core(0).counters().processed,
    }
}

/// Sweep all four externalization modes for one NF, returning
/// `(mode, latency summary, throughput)` rows — exactly the data behind
/// Figures 8 and 10.
pub fn sweep_modes(
    mut make_nf: impl FnMut() -> Box<dyn NetworkFunction>,
    trace: &Trace,
    workers: usize,
) -> Vec<(ExternalizationMode, Summary, f64)> {
    ExternalizationMode::all()
        .into_iter()
        .map(|mode| {
            let config = ChainConfig::with_mode(mode);
            let mut nf = make_nf();
            let mut run = run_single_nf(nf.as_mut(), &config, trace, workers);
            (mode, run.summary(), run.throughput_gbps)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_nf::{Nat, PortscanDetector};
    use chc_packet::{TraceConfig, TraceGenerator};
    use chc_sim::SimDuration;

    fn trace() -> Trace {
        TraceGenerator::new(TraceConfig::small(21)).generate()
    }

    #[test]
    fn traditional_vs_externalized_latency_shape() {
        let trace = trace();
        let rows = sweep_modes(|| Box::new(Nat::default()), &trace, 8);
        assert_eq!(rows.len(), 4);
        let t = rows[0].1.p50;
        let eo = rows[1].1.p50;
        let eo_c = rows[2].1.p50;
        let full = rows[3].1.p50;
        // The paper's Figure 8 shape: EO ≫ EO+C > EO+C+NA ≈ T.
        assert!(eo > eo_c, "EO {eo} should exceed EO+C {eo_c}");
        assert!(eo_c > full, "EO+C {eo_c} should exceed EO+C+NA {full}");
        assert!(
            full < t + SimDuration::from_micros(1),
            "full CHC within 1us of traditional"
        );
        // Throughput collapses under EO and recovers with the optimizations.
        assert!(rows[1].2 < rows[0].2);
        assert!(rows[3].2 > rows[1].2 * 2.0);
    }

    #[test]
    fn detectors_unaffected_by_externalization_on_data_packets() {
        // Scan/Trojan detectors do not update state on every packet, so even
        // the unoptimized EO mode barely moves their median (the paper sees
        // no noticeable impact).
        let trace = trace();
        let rows = sweep_modes(|| Box::new(PortscanDetector::default()), &trace, 8);
        let t = rows[0].1.p50.as_micros_f64();
        let eo = rows[1].1.p50.as_micros_f64();
        assert!(eo - t < 30.0, "median grew by {}us", eo - t);
    }
}
