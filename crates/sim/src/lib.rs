//! # chc-sim
//!
//! A deterministic discrete-event simulation substrate used to run CHC chains
//! without the testbed hardware the paper uses (CloudLab servers, 10 G NICs,
//! Mellanox VMA kernel bypass).
//!
//! The simulator provides:
//!
//! * virtual time in nanoseconds ([`VirtualTime`], [`SimDuration`]),
//! * an actor-style executor ([`Simulation`]) that delivers typed messages to
//!   registered [`Actor`]s in timestamp order over one link — the same
//!   latency for every hop — and externally injected messages,
//! * fail-stop failure injection and recovery (actors can be killed and
//!   replaced later, matching the paper's §5.4 failure model), and
//! * measurement utilities ([`metrics`]): percentile histograms, time series
//!   and throughput accounting used by the benchmark harnesses, and
//! * the multi-worker capacity model of one NF instance ([`WorkerPool`]).
//!
//! Determinism: the simulation draws no random numbers, and ties in the
//! event queue are broken in insertion order, so a given program always
//! produces the same history.

pub mod event;
pub mod metrics;
pub mod sim;
pub mod time;
pub mod workers;

pub use event::ActorId;
pub use metrics::{Histogram, Summary, Throughput, TimeSeries};
pub use sim::{Actor, Ctx, Simulation, SimulationReport};
pub use time::{SimDuration, VirtualTime};
pub use workers::WorkerPool;
