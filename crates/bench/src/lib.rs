//! # chc-bench
//!
//! The paper-figure harness: each `fig*`/`tab*`/`r*` function of
//! [`experiments`] regenerates one table or figure of the CHC paper's
//! evaluation (§7) on the simulator (or, for the datastore microbenchmark,
//! on real threads) and returns a human-readable report whose rows mirror
//! what the paper plots. The `paper_eval` binary runs them all, and exports
//! a traced failover of the real-thread engine ([`trace_run`]).
//!
//! Absolute numbers are not expected to match the paper's testbed; the
//! *shape* of each result (which system wins, by roughly what factor, where
//! behaviour changes) is the reproduction target — see `DESIGN.md`. What the
//! real-thread engine costs per packet is measured by the repository
//! benchmark (`src/bin/benchmark/`, `BENCHMARK.json`), not here.

pub mod experiments;
pub mod faultgen;
pub mod trace_run;

pub use experiments::*;
pub use trace_run::{runtime_trace_experiment_at, TraceRunRecord, KILL_POSITIONS};
