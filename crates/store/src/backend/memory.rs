//! The in-memory storage engine.

use super::{JournalRecord, StorageBackend};
use crate::ops::CustomOpResolver;
use crate::store::StoreInstance;

/// In-memory journal + full-image checkpoint: the engine the server shipped
/// with. "Durability" is process-lifetime (it survives a shard crash, which
/// models fail-stop of the shard, not of the process) — exactly what the
/// failover drills and equivalence tests need, with zero I/O on the hot
/// path.
#[derive(Default)]
pub struct MemoryBackend {
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
    /// A fresh engine with an empty journal and no checkpoint.
    pub fn new() -> MemoryBackend {
        MemoryBackend::default()
    }
}

impl StorageBackend for MemoryBackend {
    fn append(&mut self, record: JournalRecord) -> bool {
        self.records.push(record);
        false
    }

    fn checkpoint(&mut self, instance: &StoreInstance) -> usize {
        self.records.clear();
        self.checkpoint.insert(instance.clone()).len()
    }

    fn restore(&self, _resolve: CustomOpResolver<'_>) -> Option<StoreInstance> {
        self.checkpoint.clone()
    }

    fn for_each_record(&self, visit: &mut dyn FnMut(&JournalRecord)) {
        self.records.iter().for_each(visit);
    }

    fn journal_len(&self) -> usize {
        self.records.len()
    }

    fn clear(&mut self) {
        self.checkpoint = None;
        self.records.clear();
    }
}
