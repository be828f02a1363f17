//! # chc-store
//!
//! The CHC external state store (the paper's "datastore", §4.3).
//!
//! CHC externalizes all NF state into an in-memory key-value store so that
//! state survives NF crashes (requirement R1) and so that shared-state
//! consistency (R3) reduces to the store serializing *operations* offloaded
//! by NF instances, instead of instances locking/copying state.
//!
//! This crate provides:
//!
//! * the key schema with vertex/instance metadata ([`key`]): per-flow objects
//!   are keyed `vertexID + instanceID + objKey` (only the owning instance may
//!   update them), shared objects `vertexID + objKey`;
//! * values and offloadable operations ([`value`], [`ops`]) — increment /
//!   decrement, push / pop, compare-and-update, plus registrable custom
//!   operations (Table 2);
//! * a single store instance ([`store::StoreInstance`]) implementing
//!   operation serialization, ownership checks, callback registration for
//!   read-heavy cached objects, clock-tagged update logging used for
//!   duplicate suppression (§5.3), checkpointing with `TS` metadata and
//!   store-computed non-deterministic values (Appendix A);
//! * client-side write-ahead/read logs ([`wal`]) and the shared-state
//!   recovery algorithm with `TS` selection (§5.4, Figure 7) in [`recovery`];
//! * pluggable per-shard storage engines ([`backend`]): the in-memory
//!   journal/checkpoint engine the server shipped with, and an append-only
//!   flat-file engine with checkpoint compaction whose shard restart is
//!   O(ops-since-checkpoint);
//! * a sharded, thread-safe server ([`server::StoreServer`]) used by the
//!   real-thread throughput benchmarks (the paper reports ≈5.1 M ops/s per
//!   store instance).

pub mod backend;
mod dedup;
pub mod error;
pub mod key;
pub mod ops;
pub mod recovery;
pub mod server;
pub mod store;
pub mod value;
pub mod wal;

pub use backend::{
    AppendOnlyBackend, BackendConfig, BackendKind, JournalRecord, MemoryBackend, ScratchDir,
    StorageBackend,
};
pub use error::StoreError;
pub use key::{AccessPattern, Clock, InstanceId, ObjectKey, StateKey, StateScope, VertexId};
pub use ops::{Condition, OpOutcome, Operation};
pub use recovery::{recover_shared_state, select_recovery_ts, RecoveryInput, RecoveryReport};
pub use server::{ShardRecoveryStats, StoreServer};
pub use store::{Checkpoint, DurableImage, NonDetKind, StoreInstance};
pub use value::Value;
pub use wal::{ReadLogEntry, TsSnapshot, WriteAheadLog};
