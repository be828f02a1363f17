//! A standalone single-NF runner.
//!
//! Drives one NF instance over a trace without deploying a whole chain:
//! per-packet latency is the NF's base processing cost plus the state-access
//! charges of the client library, and throughput follows the same
//! multi-worker capacity model as [`chc_core::instance::NfInstanceActor`].
//! This mirrors the paper's §7.1 methodology ("We study each NF type in
//! isolation first") and backs the Figure 8/9/10 harnesses.

use chc_core::{
    Action, ChainConfig, ExternalizationMode, NetworkFunction, NfContext, SharedStore, StateClient,
};
use chc_packet::Trace;
use chc_sim::{Histogram, SimDuration, Summary, Throughput, TimeSeries, VirtualTime};
use chc_store::{Clock, InstanceId, StoreServer, VertexId};
use std::sync::Arc;

/// Result of a single-NF run.
pub struct SingleNfRun {
    /// Per-packet processing-time distribution.
    pub latency: Histogram,
    /// Per-packet processing time as a time series (packet index → µs).
    pub series: TimeSeries,
    /// Sustained throughput in Gbps under the worker capacity model.
    pub throughput_gbps: f64,
    /// Packets processed.
    pub processed: u64,
    /// Packets the NF dropped.
    pub dropped: u64,
    /// Alerts raised.
    pub alerts: Vec<String>,
    /// The store backing the run (for state inspection).
    pub store: Arc<StoreServer>,
}

impl SingleNfRun {
    /// Five-number latency summary (the paper's box plots).
    pub fn summary(&mut self) -> Summary {
        self.latency.summary()
    }
}

/// Run `nf` over `trace` under `mode`, with `workers` parallel processing
/// threads per instance (the paper's NFs are multi-threaded processes).
pub fn run_single_nf(
    nf: &mut dyn NetworkFunction,
    mode: ExternalizationMode,
    config: &ChainConfig,
    trace: &Trace,
    workers: usize,
) -> SingleNfRun {
    let store = SharedStore::new();
    run_single_nf_with_store(nf, mode, config, trace, workers, &store, 0)
}

/// Like [`run_single_nf`] but against an existing store and with an explicit
/// instance id (used when several instances must share state).
pub fn run_single_nf_with_store(
    nf: &mut dyn NetworkFunction,
    mode: ExternalizationMode,
    config: &ChainConfig,
    trace: &Trace,
    workers: usize,
    store: &Arc<StoreServer>,
    instance: u32,
) -> SingleNfRun {
    let mut client = StateClient::new(
        VertexId(1),
        InstanceId(instance),
        Box::new(store.clone()),
        mode,
        config.costs,
        &nf.state_objects(),
    );
    let mut latency = Histogram::new();
    let mut series = TimeSeries::new();
    let mut throughput = Throughput::new();
    let mut workers_busy = vec![VirtualTime::ZERO; workers.max(1)];
    let mut alerts = Vec::new();
    let mut dropped = 0u64;
    let mut processed = 0u64;

    for (i, pkt) in trace.iter().enumerate() {
        let arrival = VirtualTime::from_nanos(pkt.arrival_ns);
        let clock = Clock::with_root(0, i as u64 + 1);
        let mut ctx = NfContext::new(&mut client, clock, arrival);
        let action = nf.process(pkt, &mut ctx);
        alerts.extend(ctx.take_alerts());
        let proc = config.costs.base_processing + client.take_charge();
        client.take_packet_tokens();
        client.take_pending_callbacks();

        // Worker capacity model.
        let (widx, free_at) = workers_busy
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|(_, t)| *t)
            .expect("worker");
        let start = arrival.max(free_at);
        let finish = start + proc;
        workers_busy[widx] = finish;

        latency.record(proc);
        series.push(arrival, proc.as_micros_f64());
        throughput.record(finish, pkt.len as u64);
        processed += 1;
        if matches!(action, Action::Drop) {
            dropped += 1;
        }
    }

    SingleNfRun {
        latency,
        series,
        throughput_gbps: throughput.gbps(),
        processed,
        dropped,
        alerts,
        store: store.clone(),
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
            let mut run = run_single_nf(nf.as_mut(), mode, &config, trace, workers);
            (mode, run.summary(), run.throughput_gbps)
        })
        .collect()
}

/// Extra processing delay added to every packet, modelling a straggling or
/// resource-contended instance (used by the R4/R5 experiments).
pub fn run_with_fixed_delay(
    nf: &mut dyn NetworkFunction,
    mode: ExternalizationMode,
    config: &ChainConfig,
    trace: &Trace,
    workers: usize,
    extra: SimDuration,
) -> SingleNfRun {
    let mut cfg = *config;
    cfg.costs.base_processing += extra;
    run_single_nf(nf, mode, &cfg, trace, workers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_nf::{Nat, PortscanDetector};
    use chc_packet::{TraceConfig, TraceGenerator};

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

    #[test]
    fn fixed_delay_shifts_latency() {
        let trace = trace();
        let cfg = ChainConfig::with_mode(ExternalizationMode::ExternalizedCachedNonBlocking);
        let mut nat = Nat::default();
        let mut slow = run_with_fixed_delay(
            &mut nat,
            cfg.mode,
            &cfg,
            &trace,
            8,
            SimDuration::from_micros(10),
        );
        let mut nat2 = Nat::default();
        let mut fast = run_single_nf(&mut nat2, cfg.mode, &cfg, &trace, 8);
        assert!(slow.summary().p50 > fast.summary().p50 + SimDuration::from_micros(9));
    }
}
