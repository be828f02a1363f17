//! Durable storage for [`crate::server::StoreServer`] shards: one engine,
//! two media.
//!
//! The paper's consistency protocol (operation offloading, duplicate
//! suppression, checkpoint + journal recovery, §4.3/§5.4) is independent of
//! *where* a shard persists its state. A [`Shard`] is what the server locks:
//! the live [`StoreInstance`], the journaling switch, the resident custom-op
//! table, the one buffer its journal records are encoded into, and the one
//! recovery routine — restore the latest checkpoint, re-register the custom
//! ops, re-apply every later record through `replay_record`. Its [`Engine`]
//! is where the shard's history goes: it appends journal frames, writes and
//! restores checkpoint images, and hands back the records past the latest
//! one.
//!
//! A journal record and a checkpoint image are bytes. The shard encodes a
//! record once, under its lock, straight from the borrowed key and operation
//! into its reused frame buffer (`codec`: `[u32 len][u32 sum][payload]`),
//! and the engine copies the finished frame into its active segment; an
//! image is one frame encoded straight from the live instance. The engine
//! compacts by one rule: once a journal holds `DEFAULT_CHECKPOINT_INTERVAL`
//! (1,024) records, `append` asks for a checkpoint and the shard takes one.
//! So a journaled shard holds fewer records than that however long it runs,
//! and `restart_shard` replays only the suffix past the last checkpoint —
//! O(delta), not O(history).
//!
//! The engine's bytes live on one of two media, chosen by [`BackendKind`]:
//! in memory (the default; process-lifetime, no IO) or in files under a
//! per-shard directory (`std::fs` only). Open, compaction, checkpoint,
//! restore and replay are the same code on both. On files the engine only
//! stages bytes under the shard lock; a server's one persister thread
//! writes them in batches, outside it (`persister.rs`).

mod append_only;
pub(crate) mod codec;
mod files;
mod persister;

pub use append_only::Engine;
pub use codec::{decode_image_frame, encode_image_frame};
pub use files::ScratchDir;
pub(crate) use persister::Persister;
#[cfg(test)]
pub(crate) use persister::HARD_CAP;

use crate::key::{Clock, InstanceId, StateKey};
use crate::ops::{CustomOpFn, Operation};
use crate::store::StoreInstance;
use crate::value::Value;
use codec::Enc;

/// Compaction cadence of the engine, in journaled records: high enough
/// that the small conformance-suite scenarios never auto-checkpoint
/// mid-test, low enough that a long run keeps its journal, and recovery,
/// bounded.
pub(crate) const DEFAULT_CHECKPOINT_INTERVAL: usize = 1024;

/// Which medium a [`crate::server::StoreServer`]'s shard engines keep their
/// bytes on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum BackendKind {
    /// Segments and image as bytes in memory (default).
    #[default]
    Memory,
    /// Segments and image as flat files in a per-shard directory.
    AppendOnly,
}

impl BackendKind {
    /// Resolve the medium from the `CHC_STORE_BACKEND` environment variable:
    /// `memory` or `append-only`, unset meaning memory. This is the CI knob
    /// that re-runs the store, failover and equivalence suites on files
    /// without touching any call site.
    ///
    /// # Panics
    ///
    /// On any other value: a misspelt knob would otherwise run the memory
    /// medium and pass.
    pub fn from_env() -> BackendKind {
        std::env::var_os("CHC_STORE_BACKEND").map_or(BackendKind::Memory, |v| {
            BackendKind::named(&v.to_string_lossy())
        })
    }

    fn named(name: &str) -> BackendKind {
        match name {
            "memory" => BackendKind::Memory,
            "append-only" => BackendKind::AppendOnly,
            _ => panic!("CHC_STORE_BACKEND={name:?}: expected `memory` or `append-only`"),
        }
    }
}

/// One durable record of a shard's write-ahead journal, decoded. The journal
/// captures everything needed to rebuild a shard's in-memory state exactly:
/// applied operations with their duplicate-suppression clocks, callback and
/// custom-op registrations, per-flow ownership changes and logged
/// non-deterministic values.
///
/// This is the form recovery replays, not the form the journal keeps: the
/// engine holds records as frames of bytes. The hot records, `Apply` and
/// `ApplyBatch`, are encoded by the server straight from the ops it applied,
/// with no value of this type built; the rare ones are built and encoded
/// as values of it ([`JournalRecord::to_frame`]).
#[derive(Debug, Clone, PartialEq)]
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
    /// One object's owner set by a handover (§5.1, Figure 4): an acquire or
    /// a release that changed it.
    Owner {
        /// The per-flow object.
        key: StateKey,
        /// Its owner from here on (`None`: released).
        owner: Option<InstanceId>,
    },
    /// A non-deterministic value the shard logged (Appendix A), so a packet
    /// replayed after a restart observes it again.
    Nondet {
        /// Clock of the packet that asked.
        clock: Clock,
        /// Which of the packet's values.
        slot: u32,
        /// The logged value.
        value: Value,
    },
    /// One batched [`crate::server::StoreServer::apply_batch`] submission to
    /// this shard: the applied (not emulated) ops in submission order. Replay
    /// is element-wise, so recovery from a batched journal is identical to
    /// recovery from the same ops journaled one record each.
    ApplyBatch {
        /// Instance that issued the batch.
        requester: InstanceId,
        /// Successfully applied ops, in submission order.
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
    /// Callback, custom-op, ownership and non-determinism records
    /// re-installed.
    pub reinstalled_records: usize,
    /// The latest checkpoint image failed its frame check or decode. The
    /// journal suffix was replayed over an empty instance, so every write
    /// only that image held is lost.
    pub image_rejected: bool,
    /// A live journal segment could not be read. Replay stopped before it,
    /// so the shard holds a prefix of its history, and the segment was left
    /// as it was, not truncated.
    pub segment_unreadable: bool,
}

/// A checkpoint image that exists but does not decode: see
/// [`ShardRecoveryStats::image_rejected`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ImageRejected;

/// A live segment that cannot be read: see
/// [`ShardRecoveryStats::segment_unreadable`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SegmentUnreadable;

/// One store shard: the live [`StoreInstance`], the journaling switch, the
/// resident custom-op table, the journal's frame buffer and recovery, over
/// the [`Engine`] that keeps its history.
pub struct Shard {
    instance: StoreInstance,
    journaling: bool,
    /// Every custom operation registered on this shard. Function pointers
    /// cannot be persisted, so recovery re-installs them from here, whether
    /// or not journaling was on when they were registered.
    custom_ops: Vec<(String, CustomOpFn)>,
    /// The buffer every journal record of this shard is encoded into. It is
    /// reused, so it stops allocating once it has held the largest record;
    /// it starts empty, so a shard that never journals never allocates it.
    frame: Vec<u8>,
    engine: Engine,
}

impl Shard {
    /// A shard over `engine`, with journaling off and an empty instance:
    /// call [`Shard::recover`] to load what the engine already holds.
    pub fn new(engine: Engine) -> Shard {
        Shard {
            instance: StoreInstance::new(),
            journaling: false,
            custom_ops: Vec::new(),
            frame: Vec::new(),
            engine,
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
    pub(crate) fn engine(&self) -> &Engine {
        &self.engine
    }

    /// Enable or disable journaling. Disabling clears the durable side
    /// (journaling is an opt-in cost; the healthy hot path stays
    /// journal-free).
    pub(crate) fn set_journaling(&mut self, enabled: bool) {
        self.journaling = enabled;
        if !enabled {
            self.engine.clear();
        }
    }

    /// Journal one record while journaling is on, and checkpoint when the
    /// engine asks for it. `encode` writes the record into the shard's frame
    /// buffer and says whether there is anything to append: a batch whose
    /// every op was emulated has nothing.
    pub(crate) fn journal(&mut self, encode: impl FnOnce(&mut Enc<'_>) -> bool) {
        if !self.journaling {
            return;
        }
        let mut enc = Enc::reuse(&mut self.frame);
        if encode(&mut enc) && self.engine.append(enc.finish()) {
            self.engine.checkpoint(&self.instance);
        }
    }

    /// The frame last encoded: the record last appended, unless its `encode`
    /// declined it.
    #[cfg(test)]
    pub(crate) fn last_frame(&self) -> &[u8] {
        &self.frame
    }

    /// Journal one record given in decoded form: the rare kinds
    /// (registrations, reassignments).
    pub(crate) fn append(&mut self, record: &JournalRecord) {
        self.journal(|e| {
            record.encode(e);
            true
        });
    }

    /// Register a custom operation: installs it on the live instance, keeps
    /// it for every later recovery, and journals the registration.
    pub(crate) fn register_custom_op(&mut self, name: &str, f: CustomOpFn) {
        self.instance.register_custom_op(name, f);
        self.custom_ops.retain(|(n, _)| n != name);
        self.custom_ops.push((name.to_string(), f));
        self.append(&JournalRecord::CustomOp {
            name: name.to_string(),
        });
    }

    /// Checkpoint the live instance; returns the number of objects captured.
    pub(crate) fn checkpoint(&mut self) -> usize {
        self.engine.checkpoint(&self.instance)
    }

    /// Fail-stop: wipe the live instance, which answers nothing until
    /// recovered. The engine's bytes survive, on either medium, staged ones
    /// included.
    pub(crate) fn crash(&mut self) {
        self.instance = StoreInstance::new();
        self.instance.set_failed(true);
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
        let restored = self.engine.restore(&|name| resolve(table, name));
        let image_rejected = restored.is_err();
        *instance = restored.ok().flatten().unwrap_or_default();
        let mut stats = ShardRecoveryStats {
            restored_from_checkpoint: instance.len(),
            image_rejected,
            ..ShardRecoveryStats::default()
        };
        for (name, f) in table {
            instance.register_custom_op(name, *f);
        }
        stats.segment_unreadable = self
            .engine
            .for_each_record(&mut |record| replay_record(instance, table, record, &mut stats))
            .is_err();
        stats
    }
}

/// The function registered as `name` in a resident custom-op table.
fn resolve(table: &[(String, CustomOpFn)], name: &str) -> Option<CustomOpFn> {
    table.iter().find(|(n, _)| n == name).map(|(_, f)| *f)
}

/// The journal-replay step: re-apply one record to `instance`, updating
/// `stats`. Applies go through [`StoreInstance::replay_journaled`]: the
/// journal holds only operations that were applied live, so replay never
/// second-guesses them against the duplicate-suppression log.
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
        JournalRecord::Owner { key, owner } => {
            instance.set_owner(key, *owner);
            stats.reinstalled_records += 1;
        }
        JournalRecord::Nondet { clock, slot, value } => {
            instance.nondet_value(*clock, *slot, value.clone());
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

#[cfg(test)]
mod tests {
    use super::BackendKind;

    #[test]
    fn the_backend_knob_accepts_exactly_two_spellings() {
        assert_eq!(BackendKind::named("memory"), BackendKind::Memory);
        assert_eq!(BackendKind::named("append-only"), BackendKind::AppendOnly);
        for typo in ["append_only", "appendonly", "file", "Memory", " memory", ""] {
            let panic = std::panic::catch_unwind(|| BackendKind::named(typo))
                .expect_err(&format!("{typo:?} was accepted"));
            let message = panic.downcast_ref::<String>().expect("a formatted message");
            assert!(message.contains("`memory` or `append-only`"), "{message}");
        }
    }
}
