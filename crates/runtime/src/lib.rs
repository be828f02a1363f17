//! # chc-runtime
//!
//! The real-thread execution substrate for CHC chains.
//!
//! The simulator in [`chc_sim`] runs chains deterministically in virtual
//! time; this crate runs the *same* [`chc_core::LogicalDag`] — the same
//! [`chc_core::NetworkFunction`] implementations, the same
//! [`chc_core::StateClient`] caching strategies, the same scope-aware
//! [`chc_core::Splitter`] partitioning — on OS threads against wall clocks,
//! the way the paper's prototype runs on its testbed (§6–§7):
//!
//! * **one thread per NF instance**, connected by bounded lock-free SPSC
//!   rings ([`spsc`]) that carry **ring batches**: a ring slot holds one
//!   buffer of up to [`RuntimeConfig::batch_size`] packets, drawn from a
//!   fixed pool each link owns and handed back empty through a return ring
//!   ([`wiring`]), so no hop allocates and a packet is copied once per hop,
//! * a **root thread** that stamps per-packet logical clocks in trace order
//!   (requirement R4) and feeds the entry splitters,
//! * a **sharded store backend** ([`chc_store::StoreServer`]) in which each
//!   state object is pinned to exactly one shard by key hash, matching the
//!   paper's no-locking datastore design (§4.3), and
//! * a **sink** that de-duplicates by clock and reports delivered packets,
//!   throughput and root→sink latency percentiles.
//!
//! Elastic scale-out is supported as a pre-planned event whose traffic cut
//! is keyed on the logical clock ([`RuntimeConfig::with_scale`]); because the
//! simulator's `ChainController::schedule_scale_up` keys the cut the same
//! way, a given seeded trace partitions identically on both substrates and
//! the outputs can be checked for chain output equivalence
//! ([`report::shared_state_digest`]).
//!
//! **Fail-stop failure injection** runs on the same wall-clock path
//! ([`RuntimeConfig::fault`], [`fault::FaultPlan`]) and covers **every
//! chain position**: the root keeps a bounded packet log keyed by logical
//! clock, upstreams of any killed mid-chain or tail vertex additionally
//! keep per-vertex egress logs (FTMB-style output logging), and chain
//! components publish commit watermarks to the engine's slot array so every
//! log can be truncated at its own frontier; the root cuts them once per
//! page of its log. A killed instance's own thread executes its failover: it
//! hands the dead instance's store state and watermark slot to the
//! replacement its kill carried and runs that replacement on the same SPSC
//! wiring; the replacement first replays, at the right chain depth, the
//! copies of the killed vertex's upstream (or root) log that route to it,
//! and only then takes live traffic ([`replay`], §5.3) —
//! the sink absorbs a tail replacement's re-emission as replay shadows,
//! a killed root loses its clock, log and unflushed batches
//! and a new root resumes from the clock it persisted in the store
//! ([`fault::RootTakeover`], §5.4), and store shard
//! restarts replay per-shard journals. Recovery metrics (packets
//! replayed, log high-water marks, recovery wall-clock time) land in
//! [`RuntimeReport::fault`].
//! Straggler cloning remains simulator-only; see `DESIGN.md`.
//!
//! **Observability** ([`TelemetryConfig`]): per-stage latency decomposition
//! via telescoping hop stamps, a control-plane event journal, live gauge
//! sampling, flow-sampled **causal tracing**
//! ([`RuntimeConfig::with_trace_sample_ppm`]) whose per-hop spans export as
//! Perfetto-loadable Chrome trace JSON
//! ([`chc_telemetry::chrome_trace_json`]), and an online **invariant
//! sentinel** ([`TelemetryConfig::observers`]) that continuously checks
//! commit-frontier monotonicity, per-flow delivery order, packet
//! conservation, exactly-once delivery, the root-log bound and failover
//! phase order, reporting violations in [`RuntimeReport::invariants`].

// One screen per function: the engine's orchestration stays a sequence of
// calls, and clippy (threshold in the root clippy.toml) fails the build when
// a function outgrows that.
#![deny(clippy::too_many_lines)]

pub mod config;
pub mod engine;
pub mod fault;
mod instance;
pub mod plan;
pub mod replay;
pub mod report;
mod root;
mod sink;
pub mod spsc;
pub mod telemetry;
pub mod wiring;

pub use config::{RuntimeConfig, ScaleEvent, TelemetryConfig};
pub use engine::{run_chain_realtime, RuntimeError};
pub use fault::{
    FailoverAbort, FaultPlan, FaultReport, InstanceKill, InstanceRecovery, RootTakeover,
    ShardFault, ShardRecovery,
};
pub use plan::ChainPlan;
pub use report::{shared_state_digest, RuntimeInstanceReport, RuntimeReport};
pub use telemetry::{StageReport, TelemetryReport};

// Sentinel and tracing vocabulary, re-exported so report consumers need not
// depend on chc-telemetry directly.
pub use chc_telemetry::{
    chrome_trace_json, validate_chrome_trace, InvariantKind, SentinelReport, SpanEvent, SpanKind,
    TraceLane, TraceShape, Violation,
};
