//! # chc-bench
//!
//! Benchmark harnesses that regenerate every table and figure of the CHC
//! paper's evaluation (§7). Each `fig*`/`tab*`/`r*` function runs the
//! corresponding experiment on the simulator (or, for the datastore
//! microbenchmark, on real threads) and returns a human-readable report whose
//! rows mirror what the paper plots. The `paper_eval` binary runs them all;
//! `EXPERIMENTS.md` records paper-reported versus measured values.
//!
//! Absolute numbers are not expected to match the paper's testbed; the
//! *shape* of each result (which system wins, by roughly what factor, where
//! behaviour changes) is the reproduction target — see `DESIGN.md`.

pub mod baseline;
pub mod experiments;
pub mod faultgen;
pub mod runtime_bench;

pub use baseline::{
    compare_with_baseline, parse_baseline, Baseline, BaselineDiff, PPS_REGRESSION_BUDGET_PCT,
    TELEMETRY_OVERHEAD_BUDGET_PCT,
};
pub use experiments::*;
pub use runtime_bench::{
    bench_realtime, bench_simulator, position_plan, records_to_json, runtime_chain_experiment,
    runtime_recovery_by_position_experiment, runtime_recovery_experiment,
    runtime_telemetry_experiment, runtime_trace_experiment, runtime_trace_experiment_at,
    scale_for_packets, store_backend_experiment, RecoveryRecord, RuntimeBenchRecord,
    StoreBackendRecord, TelemetryBenchRecord, TraceRunRecord, BENCH_CHAIN, DEFAULT_BATCH_SIZES,
    KILL_POSITIONS,
};
