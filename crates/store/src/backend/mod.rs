//! Pluggable durable storage backends for [`crate::server::StoreServer`]
//! shards.
//!
//! The paper's consistency protocol (operation offloading, duplicate
//! suppression, checkpoint + journal recovery, §4.3/§5.4) is independent of
//! *how* a shard persists its state, and the S6/StatelessNF line of work
//! argues the engine under a chained-NF store should be swappable. This
//! module cuts that seam in two. A [`Shard`] is what the server locks: the
//! live [`StoreInstance`], the journaling switch, the resident custom-op
//! table and the one recovery routine — restore the latest checkpoint,
//! re-register the custom ops, re-apply every later record through
//! `replay_record` — both engines' records, so replay semantics cannot
//! drift between them. A [`StorageBackend`] is only where the shard's
//! history goes: it appends journal records, writes and restores
//! checkpoints, and hands back the records past the latest one.
//!
//! Two engines are provided:
//!
//! * [`MemoryBackend`] — an in-memory journal + full-image checkpoint. The
//!   default.
//! * [`AppendOnlyBackend`] — ordered records appended to flat files under a
//!   per-shard directory (`std::fs` only), with periodic checkpoint
//!   compaction so `restart_shard` replays only the suffix past the last
//!   checkpoint — O(delta), not O(history).

mod append_only;
mod codec;
mod memory;

pub(crate) use append_only::DEFAULT_CHECKPOINT_INTERVAL;
pub use append_only::{AppendOnlyBackend, ScratchDir};
pub use memory::MemoryBackend;

use crate::key::{Clock, InstanceId, StateKey};
use crate::ops::{CustomOpFn, CustomOpResolver, Operation};
use crate::store::StoreInstance;

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
    /// A custom-operation registration, by name: a function pointer cannot
    /// be persisted, so replay resolves the name through the shard's
    /// resident table (production stores re-register custom ops from code at
    /// boot the same way).
    CustomOp {
        /// Registered name.
        name: String,
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

/// What [`Shard::recover`] did, for reports and the recovery-time
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

/// Where one shard's history goes: its write-ahead journal and its latest
/// checkpoint, which survive a shard crash.
///
/// The server serializes all calls per shard behind one lock, so
/// implementations are single-threaded; `Send` lets shards move across the
/// server's threads.
pub trait StorageBackend: Send {
    /// Durably record one mutation. Called under the shard lock immediately
    /// after the in-memory apply succeeded, so durable order is exactly
    /// execution order. Takes the record: the in-memory engine keeps it, so
    /// the caller builds it once. Returns true when the engine wants a
    /// checkpoint now.
    fn append(&mut self, record: JournalRecord) -> bool;

    /// Checkpoint `instance` and truncate the journal (records preceding a
    /// checkpoint are no longer needed for recovery — Figure 7's "latest
    /// checkpoint"). Returns the number of objects captured.
    fn checkpoint(&mut self, instance: &StoreInstance) -> usize;

    /// The instance the latest checkpoint holds, if there is one, with the
    /// custom-op names it captured resolved through `resolve`.
    fn restore(&self, resolve: CustomOpResolver<'_>) -> Option<StoreInstance>;

    /// Visit every record appended since the latest checkpoint, in order.
    fn for_each_record(&self, visit: &mut dyn FnMut(&JournalRecord));

    /// Journal records currently pending replay (appended since the last
    /// checkpoint).
    fn journal_len(&self) -> usize;

    /// Drop the journal and the checkpoint.
    fn clear(&mut self);

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

/// One store shard: the live [`StoreInstance`], the journaling switch, the
/// resident custom-op table and recovery, over the [`StorageBackend`] that
/// keeps its history.
pub struct Shard {
    instance: StoreInstance,
    journaling: bool,
    /// Every custom operation registered on this shard. Function pointers
    /// cannot be persisted, so recovery re-installs them from here, whether
    /// or not journaling was on when they were registered.
    custom_ops: Vec<(String, CustomOpFn)>,
    backend: Box<dyn StorageBackend>,
}

impl Shard {
    /// A shard over `backend`, with journaling off and an empty instance:
    /// call [`Shard::recover`] to load what the backend already holds.
    pub fn new(backend: Box<dyn StorageBackend>) -> Shard {
        Shard {
            instance: StoreInstance::new(),
            journaling: false,
            custom_ops: Vec::new(),
            backend,
        }
    }

    /// The live instance.
    pub fn instance(&self) -> &StoreInstance {
        &self.instance
    }

    /// Mutable access to the live instance (the server applies operations
    /// through it, then journals the ones that mutated something).
    pub fn instance_mut(&mut self) -> &mut StoreInstance {
        &mut self.instance
    }

    /// The engine the shard's history goes to.
    pub(crate) fn backend(&self) -> &dyn StorageBackend {
        &*self.backend
    }

    /// True while journaling is on.
    pub(crate) fn journaling(&self) -> bool {
        self.journaling
    }

    /// Enable or disable journaling. Disabling clears the durable side
    /// (journaling is an opt-in cost; the healthy hot path stays
    /// journal-free).
    pub(crate) fn set_journaling(&mut self, enabled: bool) {
        self.journaling = enabled;
        if !enabled {
            self.backend.clear();
        }
    }

    /// Journal one mutation while journaling is on, and checkpoint when the
    /// engine asks for it.
    pub(crate) fn append(&mut self, record: JournalRecord) {
        if self.journaling && self.backend.append(record) {
            self.backend.checkpoint(&self.instance);
        }
    }

    /// Register a custom operation: installs it on the live instance, keeps
    /// it for every later recovery, and journals the registration.
    pub(crate) fn register_custom_op(&mut self, name: &str, f: CustomOpFn) {
        self.instance.register_custom_op(name, f);
        self.custom_ops.retain(|(n, _)| n != name);
        self.custom_ops.push((name.to_string(), f));
        self.append(JournalRecord::CustomOp {
            name: name.to_string(),
        });
    }

    /// Checkpoint the live instance; returns the number of objects captured.
    pub(crate) fn checkpoint(&mut self) -> usize {
        self.backend.checkpoint(&self.instance)
    }

    /// Fail-stop: wipe the in-memory state. The backend survives, as a
    /// disk-backed log would.
    pub(crate) fn crash(&mut self) {
        self.instance = StoreInstance::new();
    }

    /// Rebuild the instance: restore the latest checkpoint, re-register the
    /// resident custom ops, then re-apply every later record. Re-applying
    /// journal records with their original duplicate-suppression clocks
    /// reconstructs both the values and the metadata exactly as they stood
    /// before the crash. The rebuilt instance may sit below the server's
    /// replay floor (it starts at zero); the server raises it before
    /// releasing the shard.
    pub fn recover(&mut self) -> ShardRecoveryStats {
        let (instance, table) = (&mut self.instance, &self.custom_ops);
        *instance = self
            .backend
            .restore(&|name| resolve(table, name))
            .unwrap_or_default();
        let mut stats = ShardRecoveryStats {
            restored_from_checkpoint: instance.len(),
            ..ShardRecoveryStats::default()
        };
        for (name, f) in table {
            instance.register_custom_op(name, *f);
        }
        self.backend
            .for_each_record(&mut |record| replay_record(instance, table, record, &mut stats));
        stats
    }
}

/// The function registered as `name` in a resident custom-op table.
fn resolve(table: &[(String, CustomOpFn)], name: &str) -> Option<CustomOpFn> {
    table.iter().find(|(n, _)| n == name).map(|(_, f)| *f)
}

/// The journal-replay step: re-apply one record to `instance`, updating
/// `stats`. Every engine's records come back through here, so replay
/// semantics cannot drift between them. Applies go through
/// [`StoreInstance::replay_journaled`]: the journal holds only operations
/// that were applied live, so replay never second-guesses them against the
/// duplicate-suppression log.
fn replay_record(
    instance: &mut StoreInstance,
    custom_ops: &[(String, CustomOpFn)],
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
        JournalRecord::CustomOp { name } => {
            if let Some(f) = resolve(custom_ops, name) {
                instance.register_custom_op(name, f);
            }
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
