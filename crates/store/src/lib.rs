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
//!   decrement, push / pop, compare-and-update (Table 2);
//! * a single store instance ([`store::StoreInstance`]) implementing
//!   operation serialization, ownership checks, callback registration for
//!   read-heavy cached objects, clock-tagged update logging used for
//!   duplicate suppression (§5.3), checkpoint images and store-computed
//!   non-deterministic values (Appendix A);
//! * [`window::CounterWindow`], the ring indexed by a dense clock counter
//!   behind both the store's duplicate-suppression log and
//!   `chc_core::ClockWindow`;
//! * the per-shard storage engine ([`backend`]): an append-only journal with
//!   checkpoint compaction, whose shard restart is O(ops-since-checkpoint),
//!   over bytes in memory or flat files. It is the one store recovery (R6,
//!   §5.4) on both substrates: a crashed shard comes back from its
//!   checkpoint image plus the journal that follows it;
//! * a sharded, thread-safe server ([`server::StoreServer`]), the datastore
//!   both substrates run on (the paper reports ≈5.1 M ops/s per store
//!   instance).

pub mod backend;
mod dedup;
pub mod error;
pub mod key;
pub mod ops;
pub mod server;
pub mod store;
pub mod value;
pub mod window;

pub use backend::{BackendKind, JournalRecord, ScratchDir};
pub use error::StoreError;
pub use key::{AccessPattern, Clock, InstanceId, ObjectKey, StateKey, StateScope, VertexId};
pub use ops::{Condition, OpOutcome, Operation};
pub use server::{ShardRecoveryStats, StoreServer, TsSnapshot};
pub use store::StoreInstance;
pub use value::Value;
pub use window::CounterWindow;
