//! # chc-core
//!
//! The CHC NFV framework — the primary contribution of *"Correctness and
//! Performance for Stateful Chained Network Functions"* (NSDI'19).
//!
//! CHC runs operator-defined chains of network functions while guaranteeing
//! **chain output equivalence (COE)**: the collective action of all NF
//! instances equals that of an ideal chain of infinite-capacity single NFs,
//! even under elastic scaling, straggler mitigation, NF/root/store failures
//! and traffic reallocation. It does so with three building blocks:
//!
//! 1. **State externalization** — all NF state lives in the external store of
//!    [`chc_store`], accessed through the client-side library in
//!    [`state`], which implements the scope/access-pattern-aware caching and
//!    non-blocking update strategies of Table 1 and offloads operations so the
//!    store serializes shared-state updates (R1, R2, R3).
//! 2. **Metadata** — per-packet logical clocks stamped by the chain [`root`],
//!    root-side packet logs with the XOR commit-vector protocol of §5.4,
//!    store-side clock-tagged update logs, and per-NF operation/read logs
//!    (R4, R5, R6).
//! 3. **Protocols** — scope-aware traffic partitioning ([`splitter`]), the
//!    state-handover protocol of Figure 4 (elastic scaling), straggler
//!    mitigation by clone-and-replay with three-way duplicate suppression
//!    (§5.3), and failover procedures for NF instances, the root and store
//!    instances (§5.4) orchestrated by [`chain::ChainController`].
//!
//! The framework executes on the deterministic discrete-event substrate of
//! [`chc_sim`]; see `DESIGN.md` at the repository root for the execution
//! model and the mapping from paper experiments to benchmark harnesses.

pub mod cache;
pub mod chain;
pub mod clock_window;
pub mod coe;
pub mod config;
pub mod dag;
pub mod instance;
pub mod message;
pub mod nf;
pub mod root;
pub mod rootlog;
pub mod sink;
pub mod splitter;
pub mod state;
pub mod vertexlog;

pub use cache::CacheStrategy;
pub use chain::{ChainController, ChainMetrics};
pub use clock_window::ClockWindow;
pub use config::{ChainConfig, CostModel, ExternalizationMode};
pub use dag::{LogicalDag, StateObjectSpec, VertexSpec};
pub use instance::NfInstanceActor;
pub use message::{Msg, PacketMark, TaggedPacket, TIMED_PERIOD};
pub use nf::{Action, NetworkFunction, NfContext, ProcessResult};
pub use root::RootActor;
pub use rootlog::PacketLog;
pub use sink::SinkActor;
pub use splitter::{PartitionTable, Splitter};
pub use state::{SharedStore, StateClient, StateHandle};
pub use vertexlog::{delete_token, VertexLogStats, VertexLogs, XorDeleteLedger, STANDBY_ROOT_ID};

// Re-export the identifiers shared with the store crate so NF authors only
// need `chc_core` in scope.
pub use chc_store::{AccessPattern, Clock, InstanceId, StateScope, VertexId};
