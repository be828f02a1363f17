//! The in-memory storage engine: journal frames back to back in one arena,
//! plus a full-image checkpoint. It compacts like the append-only engine:
//! once its journal holds `DEFAULT_CHECKPOINT_INTERVAL` records, the shard
//! checkpoints and the arena empties, so a journaled shard's memory is
//! bounded by its state, not by the length of the run.

use super::codec::scan_frames;
use super::{ImageRejected, JournalRecord, StorageBackend, DEFAULT_CHECKPOINT_INTERVAL};
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
    /// Every frame appended since the checkpoint, back to back: the same
    /// bytes the append-only engine writes to a segment. Compaction empties
    /// it in O(1) and keeps its capacity, so once it has held one
    /// checkpoint interval of records it stops allocating.
    frames: Vec<u8>,
    /// Frames in `frames`.
    records: usize,
}

impl MemoryBackend {
    /// A fresh engine with an empty journal and no checkpoint.
    pub fn new() -> MemoryBackend {
        MemoryBackend::default()
    }
}

impl StorageBackend for MemoryBackend {
    fn append(&mut self, frame: &[u8]) -> bool {
        self.frames.extend_from_slice(frame);
        self.records += 1;
        self.records >= DEFAULT_CHECKPOINT_INTERVAL
    }

    fn checkpoint(&mut self, instance: &StoreInstance) -> usize {
        self.frames.clear();
        self.records = 0;
        self.checkpoint.insert(instance.clone()).len()
    }

    fn restore(
        &self,
        _resolve: CustomOpResolver<'_>,
    ) -> Result<Option<StoreInstance>, ImageRejected> {
        Ok(self.checkpoint.clone())
    }

    fn for_each_record(&self, visit: &mut dyn FnMut(&JournalRecord)) {
        scan_frames(&self.frames, visit);
    }

    fn journal_len(&self) -> usize {
        self.records
    }

    fn clear(&mut self) {
        self.checkpoint = None;
        self.frames.clear();
        self.records = 0;
    }
}
