//! The original in-memory shard engine, extracted behind [`StorageBackend`].

use super::{replay_record, BackendKind, JournalRecord, ShardRecoveryStats, StorageBackend};
use crate::ops::CustomOpFn;
use crate::store::StoreInstance;

/// In-memory journal + full-image checkpoint: the engine the server shipped
/// with, behavior-identical. "Durability" is process-lifetime (it survives
/// [`StorageBackend::crash`], which models fail-stop of the shard, not of the
/// process) — exactly what the failover drills and equivalence tests need,
/// with zero I/O on the hot path.
#[derive(Default)]
pub struct MemoryBackend {
    instance: StoreInstance,
    enabled: bool,
    /// Full image of the shard at the last checkpoint — values *and*
    /// metadata (callback registrations, custom operations, the
    /// duplicate-suppression log). The Figure-7 [`crate::store::Checkpoint`]
    /// type carries only entries + `TS` because the client-side recovery
    /// algorithm rebuilds the rest from the NF logs; a shard-local
    /// checkpoint has no such second source, so truncating the journal
    /// against anything less than the full image would silently lose the
    /// metadata.
    checkpoint: Option<StoreInstance>,
    records: Vec<JournalRecord>,
}

impl MemoryBackend {
    /// A fresh, empty shard with journaling off.
    pub fn new() -> MemoryBackend {
        MemoryBackend::default()
    }
}

impl StorageBackend for MemoryBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Memory
    }

    fn instance(&self) -> &StoreInstance {
        &self.instance
    }

    fn instance_mut(&mut self) -> &mut StoreInstance {
        &mut self.instance
    }

    fn set_journaling(&mut self, enabled: bool) {
        self.enabled = enabled;
        if !enabled {
            self.checkpoint = None;
            self.records.clear();
        }
    }

    fn journaling(&self) -> bool {
        self.enabled
    }

    fn journal_len(&self) -> usize {
        self.records.len()
    }

    fn append(&mut self, record: JournalRecord) {
        if self.enabled {
            self.records.push(record);
        }
    }

    fn register_custom_op(&mut self, name: &str, f: CustomOpFn) {
        self.instance.register_custom_op(name, f);
        if self.enabled {
            self.records.push(JournalRecord::CustomOp {
                name: name.to_string(),
                f,
            });
        }
    }

    fn checkpoint(&mut self) -> usize {
        let image = self.instance.clone();
        let captured = image.len();
        self.checkpoint = Some(image);
        self.records.clear();
        captured
    }

    fn crash(&mut self) {
        self.instance = StoreInstance::new();
    }

    fn recover(&mut self) -> ShardRecoveryStats {
        let mut stats = ShardRecoveryStats::default();
        if let Some(image) = &self.checkpoint {
            self.instance = image.clone();
            stats.restored_from_checkpoint = image.len();
        }
        for record in &self.records {
            replay_record(&mut self.instance, record, &mut stats);
        }
        stats
    }
}
