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
//!   latency for every hop, with an optional drop probability
//!   ([`LinkConfig`]),
//! * timers and externally injected events,
//! * fail-stop failure injection and recovery (actors can be killed at a
//!   chosen virtual time and replaced later, matching the paper's §5.4
//!   failure model), and
//! * measurement utilities ([`metrics`]): percentile histograms, time series
//!   and throughput accounting used by the benchmark harnesses, and
//! * the multi-worker capacity model of one NF instance ([`WorkerPool`]).
//!
//! Determinism: all randomness comes from a single seeded RNG owned by the
//! simulation, and ties in the event queue are broken by insertion sequence
//! numbers, so a given (seed, program) pair always produces the same history.

pub mod event;
pub mod link;
pub mod metrics;
pub mod sim;
pub mod time;
pub mod workers;

pub use event::{ActorId, TimerTag};
pub use link::LinkConfig;
pub use metrics::{Histogram, Summary, Throughput, TimeSeries};
pub use sim::{Actor, Ctx, Simulation, SimulationReport};
pub use time::{SimDuration, VirtualTime};
pub use workers::WorkerPool;
