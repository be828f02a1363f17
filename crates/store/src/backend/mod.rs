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
//! image is one frame encoded straight from the live instance. An op names
//! an entry replay will already hold by its 4-byte dense id, and any other
//! object by its key: the shard tracks how many entries replaying its
//! engine rebuilds under the live ids, and recovery resolves the ids as it
//! replays, from the image's entries and each entry a record creates.
//!
//! The engine compacts by one rule: once a journal holds
//! `DEFAULT_CHECKPOINT_INTERVAL` (1,024) records, `append` asks for a
//! checkpoint and the shard takes one.
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
        /// It was an ordered writer: its clocked increments raise its marks
        /// ([`crate::server::StoreServer::register_ordered_writer`]).
        ordered: bool,
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
    /// journal suffix was replayed over an empty instance up to its first
    /// frame naming an entry by id, which is reported as
    /// [`ShardRecoveryStats::unknown_entry`]: entry ids count from the
    /// image's entries, so without the image no id resolves. Every write
    /// only that image held is lost, and so is every write from that frame
    /// on.
    pub image_rejected: bool,
    /// A live journal segment could not be read. Replay stopped before it,
    /// so the shard holds a prefix of its history, and the segment was left
    /// as it was, not truncated.
    pub segment_unreadable: bool,
    /// A journal frame named an entry by an id that neither the image nor
    /// an earlier frame created. Replay stopped before that frame, as before
    /// an unreadable segment, and the frame was left where it was.
    pub unknown_entry: bool,
}

/// A checkpoint image that exists but does not decode: see
/// [`ShardRecoveryStats::image_rejected`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ImageRejected;

/// Why journal replay stopped short of the end: see
/// [`ShardRecoveryStats::segment_unreadable`] and
/// [`ShardRecoveryStats::unknown_entry`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ReplayStopped {
    SegmentUnreadable,
    UnknownEntry,
}

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
    /// How many entries replaying the engine rebuilds with the live
    /// instance's ids, when that is known: a frame may name those by id.
    /// Set where the engine and the instance agree — an empty engine under
    /// an empty instance, a checkpoint, a recovery — and carried from frame
    /// to frame; an entry created without a frame loses it until the next
    /// checkpoint, and frames name objects by key meanwhile.
    replay_ids: Option<u32>,
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
            replay_ids: engine.is_empty().then_some(0),
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

    /// Whether journaling is on.
    pub(crate) fn journaling(&self) -> bool {
        self.journaling
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
            self.replay_ids = Some(0);
        }
    }

    /// The live instance's entry count: what a caller about to change the
    /// instance hands [`Shard::journal`] afterwards.
    pub(crate) fn ids(&self) -> u32 {
        self.instance.len() as u32
    }

    /// Journal one record while journaling is on, and checkpoint when the
    /// engine asks for it. `since` is the entry count before the change the
    /// record journals ([`Shard::ids`]). `encode` writes the record into the
    /// shard's frame buffer — naming by id any entry below the count it is
    /// handed, which replay will have rebuilt when it reads the frame, and
    /// every other object by key — and says whether there is anything to
    /// append: a batch whose every op was emulated has nothing.
    pub(crate) fn journal(&mut self, since: u32, encode: impl FnOnce(&mut Enc<'_>, u32) -> bool) {
        if !self.journaling {
            return;
        }
        let in_step = self.replay_ids == Some(since);
        let mut enc = Enc::reuse(&mut self.frame);
        if !encode(&mut enc, if in_step { since } else { 0 }) {
            return;
        }
        // Replaying the frame creates what the change created, under the
        // same ids, if replay had the live ids before it.
        self.replay_ids = in_step.then(|| self.instance.len() as u32);
        if self.engine.append(enc.finish()) {
            self.checkpoint();
        }
    }

    /// The frame last encoded: the record last appended, unless its `encode`
    /// declined it.
    #[cfg(test)]
    pub(crate) fn last_frame(&self) -> &[u8] {
        &self.frame
    }

    /// Journal one record given in decoded form: the rare kinds
    /// (registrations, reassignments) that create no entry.
    pub(crate) fn append(&mut self, record: &JournalRecord) {
        self.journal(self.ids(), |e, _| {
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
        self.replay_ids = Some(self.ids());
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
    /// before the crash. A frame names an object by the id the entry had
    /// live, which replay resolves as it goes: the image's entries in id
    /// order, then each entry a replayed record creates. The rebuilt
    /// instance may sit below the server's replay floor (it starts at zero);
    /// the server raises it before releasing the shard.
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
        // Entry ids count from the image's entries, so a rejected image
        // leaves every id the suffix names unresolvable, those of the
        // entries it creates too: replay stops at the first.
        let anchored = !image_rejected;
        let mut names = instance.keys_by_id();
        let replayed = self
            .engine
            .for_each_record(&mut names, &mut |record, names| {
                replay_record(
                    instance,
                    table,
                    record,
                    &mut stats,
                    anchored.then_some(names),
                );
            });
        match replayed {
            Ok(()) => {}
            Err(ReplayStopped::SegmentUnreadable) => stats.segment_unreadable = true,
            Err(ReplayStopped::UnknownEntry) => stats.unknown_entry = true,
        }
        self.replay_ids = Some(self.ids());
        stats
    }
}

/// The function registered as `name` in a resident custom-op table.
fn resolve(table: &[(String, CustomOpFn)], name: &str) -> Option<CustomOpFn> {
    table.iter().find(|(n, _)| n == name).map(|(_, f)| *f)
}

/// The journal-replay step: re-apply one record to `instance`, updating
/// `stats`, and add each entry it creates to `names`, if ids resolve at
/// all. Applies go through
/// [`StoreInstance::replay_journaled`]: the journal holds only operations
/// that were applied live, so replay never second-guesses them against the
/// duplicate-suppression log.
fn replay_record(
    instance: &mut StoreInstance,
    custom_ops: &[(String, CustomOpFn)],
    record: &JournalRecord,
    stats: &mut ShardRecoveryStats,
    mut names: Option<&mut Vec<StateKey>>,
) {
    // A record changes at most one object at a time, so an entry it
    // created is the one its key names.
    let mut created = |instance: &StoreInstance, key: &StateKey| {
        if let Some(names) = names.as_deref_mut().filter(|n| instance.len() > n.len()) {
            names.push(key.clone());
        }
    };
    match record {
        JournalRecord::Apply {
            requester,
            key,
            op,
            clock,
        } => {
            let _ = instance.replay_journaled(*requester, key, op, *clock);
            created(instance, key);
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
            created(instance, key);
            stats.reinstalled_records += 1;
        }
        JournalRecord::Nondet { clock, slot, value } => {
            instance.nondet_value(*clock, *slot, value.clone());
            stats.reinstalled_records += 1;
        }
        JournalRecord::ApplyBatch {
            requester,
            ordered,
            ops,
        } => {
            for (key, op, clock) in ops {
                let _ = instance.apply_named(*requester, key, op, *clock, false, *ordered);
                created(instance, key);
                stats.replayed_ops += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::codec::Named;
    use super::{BackendKind, Engine, JournalRecord, ScratchDir, Shard};
    use crate::key::{Clock, InstanceId, ObjectKey, StateKey, VertexId};
    use crate::ops::Operation;
    use crate::value::Value;

    /// A frame that names an entry by an id no image or earlier frame
    /// created stops replay where it stands, on both media: it is reported,
    /// nothing from it on is applied, nothing panics, and the journal keeps
    /// its bytes — a reopened engine counts the frame whole and does not cut
    /// it as a torn tail.
    #[test]
    fn a_frame_naming_an_unknown_entry_stops_replay_and_is_reported() {
        let scratch = ScratchDir::new("unknown-entry");
        for on_files in [false, true] {
            let mut shard = Shard::new(match on_files {
                false => Engine::in_memory(None, Vec::new(), 1024),
                true => Engine::open(scratch.path(), 1024),
            });
            shard.set_journaling(true);
            let (requester, key) = (
                InstanceId(1),
                StateKey::shared(VertexId(0), ObjectKey::named("a")),
            );
            let bump = |shard: &mut Shard, named: Named<'_>, c: u64| {
                let since = shard.ids();
                let (op, clock) = (Operation::Increment(1), Some(Clock::with_root(0, c)));
                shard
                    .instance_mut()
                    .apply(requester, &key, &op, clock)
                    .unwrap();
                shard.journal(since, |e, _| {
                    e.apply_record(requester, named, &op, clock);
                    true
                });
            };
            // Creates entry 0, then names an entry 7 nobody created, then
            // names entry 0 as a well-formed frame would.
            bump(&mut shard, Named::Key(&key), 1);
            bump(&mut shard, Named::Id(7), 2);
            bump(&mut shard, Named::Id(0), 3);
            shard.append(&JournalRecord::Reassign {
                from: InstanceId(1),
                to: InstanceId(2),
            });
            assert_eq!(shard.engine().journal_len(), 4);
            shard.crash();
            let stats = shard.recover();
            assert!(
                stats.unknown_entry && !stats.segment_unreadable,
                "{stats:?}"
            );
            assert_eq!((stats.replayed_ops, stats.reinstalled_records), (1, 0));
            assert_eq!(shard.instance().peek(&key), Value::Int(1));
            if on_files {
                shard.engine().persist();
                let reopened = Engine::open(scratch.path(), 1024);
                assert_eq!(reopened.journal_len(), 4, "the frames were cut");
            }
        }
    }

    /// A rejected image leaves the ids its suffix names unanchored: replay
    /// applies the frames before the first one naming an entry by id,
    /// reports `unknown_entry` there, and never resolves an id to an entry
    /// that only the suffix created.
    #[test]
    fn a_rejected_image_stops_its_suffix_at_the_first_id_named_frame() {
        let scratch = ScratchDir::new("rejected-image-suffix");
        let mut shard = Shard::new(Engine::open(scratch.path(), 1024));
        shard.set_journaling(true);
        let requester = InstanceId(1);
        let [a, b, c] = ["a", "b", "c"].map(|n| StateKey::shared(VertexId(0), ObjectKey::named(n)));
        let bump = |shard: &mut Shard, key: &StateKey, named: Named<'_>, at: u64| {
            let since = shard.ids();
            let (op, clock) = (Operation::Increment(1), Some(Clock::with_root(0, at)));
            shard
                .instance_mut()
                .apply(requester, key, &op, clock)
                .unwrap();
            shard.journal(since, |e, _| {
                e.apply_record(requester, named, &op, clock);
                true
            });
        };
        bump(&mut shard, &a, Named::Key(&a), 1);
        bump(&mut shard, &b, Named::Key(&b), 2);
        shard.checkpoint();
        // Entry 2 is created by a frame; then `a`, entry 0 in the image,
        // named by id, and `c` by id. Over an empty instance `c` would be
        // entry 0.
        bump(&mut shard, &c, Named::Key(&c), 3);
        bump(&mut shard, &a, Named::Id(0), 4);
        bump(&mut shard, &c, Named::Id(2), 5);
        shard.engine().persist();
        let image = std::fs::read_dir(scratch.path())
            .unwrap()
            .map(|entry| entry.unwrap().path())
            .find(|path| path.extension().is_some_and(|e| e == "img"))
            .expect("an image");
        let mut bytes = std::fs::read(&image).unwrap();
        *bytes.last_mut().unwrap() ^= 0x40;
        std::fs::write(&image, bytes).unwrap();
        shard.crash();
        let stats = shard.recover();
        assert!(
            stats.image_rejected && stats.unknown_entry && !stats.segment_unreadable,
            "{stats:?}"
        );
        assert_eq!((stats.restored_from_checkpoint, stats.replayed_ops), (0, 1));
        let peek = |key| shard.instance().peek(key);
        assert_eq!(
            [peek(&a), peek(&b), peek(&c)],
            [Value::None, Value::None, Value::Int(1)]
        );
    }

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
