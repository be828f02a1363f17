//! Pluggable durable storage backends for [`crate::server::StoreServer`]
//! shards.
//!
//! The paper's consistency protocol (operation offloading, duplicate
//! suppression, checkpoint + journal recovery, §4.3/§5.4) is independent of
//! *how* a shard persists its state, and the S6/StatelessNF line of work
//! argues the engine under a chained-NF store should be swappable. This
//! module cuts that seam: a [`StorageBackend`] owns one shard's
//! [`StoreInstance`] together with its durable side — the write-ahead
//! journal, the checkpoint image and the crash/recover/restart lifecycle —
//! and the sharded server drives every shard through the trait.
//!
//! Two engines are provided:
//!
//! * [`MemoryBackend`] — the original in-memory journal + full-image
//!   checkpoint, extracted unchanged. The default.
//! * [`AppendOnlyBackend`] — ordered, keyspace-prefixed records appended to
//!   flat files under a per-shard directory (`std::fs` only), all keys and
//!   file offsets resident in memory, with periodic checkpoint compaction so
//!   `restart_shard` replays only the suffix past the last checkpoint —
//!   O(delta), not O(history).

mod append_only;
mod codec;
mod memory;

pub(crate) use append_only::DEFAULT_CHECKPOINT_INTERVAL;
pub use append_only::{AppendOnlyBackend, ScratchDir};
pub use memory::MemoryBackend;

use crate::key::{Clock, InstanceId, StateKey};
use crate::ops::{CustomOpFn, Operation};
use crate::store::StoreInstance;
use std::path::PathBuf;

/// Which storage engine a [`crate::server::StoreServer`] runs its shards on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// In-memory journal and checkpoint (the original engine; default).
    #[default]
    Memory,
    /// Append-only flat-file segments with checkpoint compaction.
    AppendOnly,
}

impl BackendKind {
    /// Resolve the backend from the `CHC_STORE_BACKEND` environment variable
    /// (`memory` or `append-only`; unset/unknown falls back to memory). This
    /// is the CI knob that re-runs the store, failover and equivalence
    /// suites on the durable engine without touching any call site.
    pub fn from_env() -> BackendKind {
        match std::env::var("CHC_STORE_BACKEND") {
            Ok(v) => match v.trim().to_ascii_lowercase().as_str() {
                "append-only" | "append_only" | "appendonly" | "file" => BackendKind::AppendOnly,
                _ => BackendKind::Memory,
            },
            Err(_) => BackendKind::Memory,
        }
    }
}

/// Backend selection plus engine tuning, as consumed by
/// [`crate::server::StoreServer::with_config`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BackendConfig {
    /// Which engine to run shards on.
    pub kind: BackendKind,
    /// Root directory for the append-only engine's per-shard subdirectories.
    /// `None` (the default) uses an ephemeral scratch directory under the
    /// workspace `target/`, removed when the server is dropped.
    pub dir: Option<PathBuf>,
    /// Append-only compaction cadence: after this many journaled records the
    /// engine writes a checkpoint image and truncates older segments, which
    /// is what bounds `restart_shard` to O(ops-since-checkpoint).
    pub checkpoint_interval: usize,
}

impl Default for BackendConfig {
    fn default() -> Self {
        BackendConfig {
            kind: BackendKind::default(),
            dir: None,
            checkpoint_interval: DEFAULT_CHECKPOINT_INTERVAL,
        }
    }
}

impl BackendConfig {
    /// The in-memory engine.
    pub fn memory() -> BackendConfig {
        BackendConfig::default()
    }

    /// The append-only flat-file engine on an ephemeral scratch directory.
    pub fn append_only() -> BackendConfig {
        BackendConfig {
            kind: BackendKind::AppendOnly,
            ..BackendConfig::default()
        }
    }

    /// The engine named by `CHC_STORE_BACKEND` (defaults elsewhere).
    pub fn from_env() -> BackendConfig {
        BackendConfig {
            kind: BackendKind::from_env(),
            ..BackendConfig::default()
        }
    }
}

/// One durable record of a shard's write-ahead journal. The journal captures
/// everything needed to rebuild a shard's in-memory state exactly: applied
/// operations with their duplicate-suppression clocks, callback and custom-op
/// registrations, and per-flow ownership reassignments.
pub enum JournalRecord {
    /// One applied operation (emulated duplicates mutate nothing and are
    /// not journaled).
    Apply {
        /// Instance that issued the operation.
        requester: InstanceId,
        /// Target object.
        key: StateKey,
        /// The applied operation.
        op: Operation,
        /// Duplicate-suppression clock, if the inducing packet carried one.
        clock: Option<Clock>,
    },
    /// A change-callback registration.
    Callback {
        /// Watched object.
        key: StateKey,
        /// Instance to notify.
        instance: InstanceId,
    },
    /// A custom-operation registration. The function pointer itself is not
    /// serializable; durable engines persist the name and re-resolve it from
    /// the resident registration table on recovery (production stores
    /// re-register custom ops from code at boot the same way).
    CustomOp {
        /// Registered name.
        name: String,
        /// The registered function.
        f: CustomOpFn,
    },
    /// A bulk per-flow ownership reassignment (NF failover, §5.4).
    Reassign {
        /// Failed instance.
        from: InstanceId,
        /// Replacement instance.
        to: InstanceId,
    },
    /// One batched [`crate::server::StoreServer::apply_batch`] submission to
    /// this shard: the applied (not emulated) ops in execution order. Replay is
    /// element-wise, so recovery from a batched journal is identical to
    /// recovery from the same ops journaled one record each.
    ApplyBatch {
        /// Instance that issued the batch.
        requester: InstanceId,
        /// Successfully applied ops, in execution order.
        ops: Vec<(StateKey, Operation, Option<Clock>)>,
    },
}

/// What [`StorageBackend::recover`] did, for reports and the recovery-time
/// experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ShardRecoveryStats {
    /// Objects restored from the latest checkpoint.
    pub restored_from_checkpoint: usize,
    /// Journal operations re-applied on top of the checkpoint.
    pub replayed_ops: usize,
    /// Callback / custom-op / ownership records re-installed.
    pub reinstalled_records: usize,
}

/// One shard's storage engine: the live [`StoreInstance`] plus the durable
/// side that survives [`StorageBackend::crash`].
///
/// The server serializes all calls per shard behind one lock, so
/// implementations are single-threaded; `Send` lets shards move across the
/// server's threads.
pub trait StorageBackend: Send {
    /// Which engine this is.
    fn kind(&self) -> BackendKind;

    /// The live in-memory instance this backend fronts.
    fn instance(&self) -> &StoreInstance;

    /// Mutable access to the live instance (the server applies operations
    /// through it, then journals with [`StorageBackend::append`]).
    fn instance_mut(&mut self) -> &mut StoreInstance;

    /// Enable or disable journaling. Disabling clears the durable side
    /// (journaling is an opt-in cost; the healthy hot path stays
    /// journal-free).
    fn set_journaling(&mut self, enabled: bool);

    /// True while journaling is on.
    fn journaling(&self) -> bool;

    /// Journal records currently pending replay (appended since the last
    /// checkpoint).
    fn journal_len(&self) -> usize;

    /// Durably record one mutation. Called under the shard lock immediately
    /// after the in-memory apply succeeded, so durable order is exactly
    /// execution order. No-op while journaling is off. Takes the record: the
    /// in-memory engine keeps it, so the caller builds it once.
    fn append(&mut self, record: JournalRecord);

    /// Register a custom operation: installs it on the live instance, keeps
    /// it resolvable across recoveries, and journals the registration when
    /// journaling is on.
    fn register_custom_op(&mut self, name: &str, f: CustomOpFn);

    /// Checkpoint the current instance image and truncate the journal
    /// (records preceding a checkpoint are no longer needed for recovery —
    /// Figure 7's "latest checkpoint"). Returns the number of objects
    /// captured.
    fn checkpoint(&mut self) -> usize;

    /// Fail-stop: wipe the in-memory state. The durable side survives, as a
    /// disk-backed log would.
    fn crash(&mut self);

    /// Rebuild the in-memory state from the latest checkpoint plus the
    /// journal suffix. Re-applying journal records with their original
    /// duplicate-suppression clocks reconstructs both the values and the
    /// metadata exactly as they stood before the crash. The rebuilt
    /// instance may sit below the server's replay floor (a decoded image
    /// starts at zero); the server raises it before releasing the shard.
    fn recover(&mut self) -> ShardRecoveryStats;

    /// Number of durable segment files currently held (0 for in-memory
    /// engines). Telemetry gauge.
    fn segment_count(&self) -> usize {
        0
    }

    /// Bytes of durable state currently held on disk (0 for in-memory
    /// engines). Telemetry gauge.
    fn durable_bytes(&self) -> u64 {
        0
    }
}

/// Shared journal-replay step: re-apply one record to `instance`, updating
/// `stats`. Both engines funnel recovery through this so replay semantics
/// cannot drift between them. Applies go through
/// [`StoreInstance::replay_journaled`]: the journal holds only operations
/// that were applied live, so replay never second-guesses them against the
/// duplicate-suppression log.
pub(crate) fn replay_record(
    instance: &mut StoreInstance,
    record: &JournalRecord,
    stats: &mut ShardRecoveryStats,
) {
    match record {
        JournalRecord::Apply {
            requester,
            key,
            op,
            clock,
        } => {
            let _ = instance.replay_journaled(*requester, key, op, *clock);
            stats.replayed_ops += 1;
        }
        JournalRecord::Callback { key, instance: who } => {
            instance.register_callback(key, *who);
            stats.reinstalled_records += 1;
        }
        JournalRecord::CustomOp { name, f } => {
            instance.register_custom_op(name, *f);
            stats.reinstalled_records += 1;
        }
        JournalRecord::Reassign { from, to } => {
            instance.reassign_owner(*from, *to);
            stats.reinstalled_records += 1;
        }
        JournalRecord::ApplyBatch { requester, ops } => {
            for (key, op, clock) in ops {
                let _ = instance.replay_journaled(*requester, key, op, *clock);
                stats.replayed_ops += 1;
            }
        }
    }
}
