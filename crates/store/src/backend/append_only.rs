//! The storage engine: a shard's journal and checkpoint image, kept
//! append-only on one of two media. Its rules are written once, here:
//!
//! * **Append**: a record is a frame `[u32 len][u32 sum][payload]` that the
//!   shard encoded once, under its lock (`codec`), copied to the end of the
//!   active segment, so a segment is an ordered history. Once warm an append
//!   allocates nothing. Reads never come here.
//! * **Compaction**: once the journal holds `checkpoint_interval` records,
//!   `append` asks for a checkpoint and the shard takes one. The image is the
//!   whole shard as one frame, encoded straight from the live instance; the
//!   medium replaces its image with it atomically, rotates to a fresh segment
//!   and deletes everything older. Recovery replays only the records past
//!   the image: O(ops since checkpoint), never O(history).
//! * **Open** counts the records of the live segments and truncates a torn
//!   tail of the active one, so new appends never hide behind garbage. A
//!   segment it cannot read is never truncated.
//! * **Restore** decodes the image in place. One that fails its frame check
//!   or decode is reported, not read as an empty shard; so is a live segment
//!   that cannot be read, and replay stops before it.
//!
//! The media store bytes and set no policy. **Files** (`files.rs`) keep a
//! per-shard directory of segment files and one image file. The engine's
//! appends and checkpoints only stage bytes for them, and a drain writes
//! them, off the shard lock (`persister.rs`); the engine's reads run that
//! drain first. **Memory** keeps one segment and the image as `Vec<u8>`s: an
//! append is one `extend_from_slice`, rotation clears the segment and keeps
//! its capacity, and the image is the encoded buffer itself. It survives a
//! shard crash, which models fail-stop of the shard, not of the process.

use super::codec::{
    decode_image_frame, decode_record, encode_image_frame, scan_frames, Undecodable,
};
use super::files::Files;
use super::persister::Persister;
use super::{ImageRejected, JournalRecord, ReplayStopped};
use crate::key::StateKey;
use crate::store::StoreInstance;
use std::borrow::Cow;
use std::path::PathBuf;
use std::sync::Arc;

/// One shard's history over one medium. See the module docs for its rules.
pub struct Engine {
    medium: Medium,
    checkpoint_interval: usize,
    /// Records appended since the newest image.
    records: usize,
    /// Bytes of the last image this engine wrote: the next one's capacity.
    image_len: usize,
}

/// Where an [`Engine`] keeps its bytes.
enum Medium {
    Files(Files),
    Memory {
        image: Option<Vec<u8>>,
        segment: Vec<u8>,
    },
}

impl Engine {
    /// An engine over the directory `dir`, created if missing. What it holds
    /// stays: a [`super::Shard`] over the engine loads it with `recover`,
    /// exactly as a restarted shard would. It has no persister thread: what
    /// it stages is written at [`Engine::persist`], when the engine reads
    /// its files, when it is dropped, and when the staged bytes reach their
    /// cap.
    pub fn open(dir: impl Into<PathBuf>, checkpoint_interval: usize) -> Engine {
        Engine::over(
            Medium::Files(Files::open(dir.into(), None)),
            checkpoint_interval,
        )
    }

    /// An engine over `dir` whose staged bytes `persister` writes.
    pub(crate) fn open_persisted(
        dir: PathBuf,
        checkpoint_interval: usize,
        persister: &Arc<Persister>,
    ) -> Engine {
        let files = Files::open(dir, Some(Arc::clone(persister)));
        Engine::over(Medium::Files(files), checkpoint_interval)
    }

    /// An engine over bytes in memory: the newest checkpoint image, if any,
    /// and the journal segment past it. A server's shard starts from
    /// `(None, Vec::new())`, which allocates nothing.
    pub fn in_memory(
        image: Option<Vec<u8>>,
        segment: Vec<u8>,
        checkpoint_interval: usize,
    ) -> Engine {
        Engine::over(Medium::Memory { image, segment }, checkpoint_interval)
    }

    fn over(mut medium: Medium, checkpoint_interval: usize) -> Engine {
        // The last segment visited is the active one: `intact` is its intact
        // length if it could be read, and a segment not read is not cut.
        // A frame that names an entry no image is at hand to resolve is
        // whole: recovery resolves it, or reports it.
        let (mut records, mut intact) = (0, None);
        medium.for_each_segment(&mut |bytes| {
            intact = bytes.map(|bytes| {
                scan_frames(bytes, &mut |payload| {
                    let whole = decode_record(payload, &[]) != Err(Undecodable::Torn);
                    records += usize::from(whole);
                    whole
                })
            });
        });
        if let Some(intact) = intact {
            medium.truncate_active(intact);
        }
        Engine {
            medium,
            checkpoint_interval: checkpoint_interval.max(1),
            records,
            image_len: 0,
        }
    }

    /// Append one finished frame (`[u32 len][u32 sum][payload]`, as
    /// [`JournalRecord::to_frame`] builds it). The shard calls this under its
    /// lock right after the apply, so journal order is execution order.
    /// Returns true once the journal holds its compaction cadence: time to
    /// checkpoint.
    pub fn append(&mut self, frame: &[u8]) -> bool {
        self.medium.append(frame);
        self.records += 1;
        self.records >= self.checkpoint_interval
    }

    /// Make `instance` the newest image and truncate the journal (records
    /// preceding a checkpoint are no longer needed for recovery). Returns the number of objects captured.
    pub fn checkpoint(&mut self, instance: &StoreInstance) -> usize {
        // A buffer of this image's own, sized by the last one. In memory it
        // becomes the image; a buffer kept per shard across checkpoints would
        // hold a second image's worth of memory for good.
        let mut image = Vec::with_capacity(self.image_len);
        self.image_len = encode_image_frame(instance, &mut image).len();
        self.medium.replace_image(Some(image));
        self.records = 0;
        instance.len()
    }

    /// The instance the newest image holds, if there is one; an error if
    /// there is one and it does not decode.
    pub(crate) fn restore(&self) -> Result<Option<StoreInstance>, ImageRejected> {
        match self.medium.image() {
            None => Ok(None),
            Some(image) => decode_image_frame(&image).map(Some).ok_or(ImageRejected),
        }
    }

    /// Visit every record appended since the newest image, in order, with
    /// the entry ids its ops name resolved through `names` (entry id order;
    /// `visit` adds the entries each record creates). Replay stops at the
    /// first live segment that cannot be read, or at the first frame naming
    /// an id `names` does not hold, and says which.
    pub(crate) fn for_each_record(
        &self,
        names: &mut Vec<StateKey>,
        visit: &mut dyn FnMut(&JournalRecord, &mut Vec<StateKey>),
    ) -> Result<(), ReplayStopped> {
        let mut stopped = None;
        self.medium.for_each_segment(&mut |bytes| match bytes {
            Some(bytes) if stopped.is_none() => {
                scan_frames(bytes, &mut |payload| match decode_record(payload, names) {
                    Ok(record) => {
                        visit(&record, names);
                        true
                    }
                    Err(Undecodable::Torn) => false,
                    Err(Undecodable::UnknownEntry) => {
                        stopped = Some(ReplayStopped::UnknownEntry);
                        false
                    }
                });
            }
            _ => _ = stopped.get_or_insert(ReplayStopped::SegmentUnreadable),
        });
        stopped.map_or(Ok(()), Err)
    }

    /// True while the engine holds neither an image nor a journal byte.
    pub(crate) fn is_empty(&self) -> bool {
        match &self.medium {
            Medium::Files(files) => files.is_empty(),
            Medium::Memory { image, segment } => image.is_none() && segment.is_empty(),
        }
    }

    /// The barrier: write every byte the engine has staged for its files,
    /// on the caller's thread (a no-op in memory).
    pub fn persist(&self) {
        if let Some(files) = self.files() {
            files.persist();
        }
    }

    /// Records appended since the newest image.
    pub(crate) fn journal_len(&self) -> usize {
        self.records
    }

    /// Drop the journal and the image.
    pub(crate) fn clear(&mut self) {
        self.medium.replace_image(None);
        self.records = 0;
    }

    /// Segment files held (0 in memory). Telemetry gauge.
    pub(crate) fn segment_count(&self) -> usize {
        self.files().map_or(0, Files::segment_count)
    }

    /// Bytes of segments and image handed to the files, staged or written
    /// (0 in memory). Telemetry gauge.
    pub(crate) fn durable_bytes(&self) -> u64 {
        self.files().map_or(0, Files::durable_bytes)
    }

    fn files(&self) -> Option<&Files> {
        match &self.medium {
            Medium::Files(files) => Some(files),
            Medium::Memory { .. } => None,
        }
    }
}

impl Medium {
    fn append(&mut self, frame: &[u8]) {
        match self {
            Medium::Files(files) => files.append(frame),
            Medium::Memory { segment, .. } => segment.extend_from_slice(frame),
        }
    }

    /// Every live segment's bytes, oldest first; `None` for one that cannot
    /// be read.
    fn for_each_segment(&self, visit: &mut dyn FnMut(Option<&[u8]>)) {
        match self {
            Medium::Files(files) => files.for_each_segment(visit),
            Medium::Memory { segment, .. } => visit(Some(segment)),
        }
    }

    fn truncate_active(&mut self, len: usize) {
        match self {
            Medium::Files(files) => files.truncate_active(len),
            Medium::Memory { segment, .. } => segment.truncate(len),
        }
    }

    fn image(&self) -> Option<Cow<'_, [u8]>> {
        match self {
            Medium::Files(files) => files.image(),
            Medium::Memory { image, .. } => image.as_deref().map(Cow::Borrowed),
        }
    }

    /// Replace the image atomically (`None` deletes it), rotate to a fresh
    /// segment and delete the history the image supersedes.
    fn replace_image(&mut self, new: Option<Vec<u8>>) {
        match self {
            Medium::Files(files) => files.replace_image(new),
            Medium::Memory { image, segment } => {
                *image = new;
                segment.clear();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::super::{ScratchDir, Shard, ShardRecoveryStats, DEFAULT_CHECKPOINT_INTERVAL};
    use super::*;
    use crate::key::{Clock, InstanceId, ObjectKey, StateKey, VertexId};
    use crate::ops::Operation;
    use crate::value::Value;
    use std::fs::{self, OpenOptions};
    use std::path::Path;

    fn key(name: &str) -> StateKey {
        StateKey::shared(VertexId(0), ObjectKey::named(name))
    }

    fn shard(dir: &Path, checkpoint_interval: usize) -> Shard {
        Shard::new(Engine::open(dir, checkpoint_interval))
    }

    fn apply(s: &mut Shard, key: &StateKey, op: Operation, clock: Option<Clock>) {
        let requester = InstanceId(1);
        let result = s.instance_mut().apply(requester, key, &op, clock);
        assert!(result.is_ok());
        s.append(&JournalRecord::Apply {
            requester,
            key: key.clone(),
            op,
            clock,
        });
    }

    #[test]
    fn journaled_writes_survive_crash_and_recover() {
        let scratch = ScratchDir::new("aob-basic");
        let mut b = shard(scratch.path(), DEFAULT_CHECKPOINT_INTERVAL);
        b.set_journaling(true);
        for c in 1..=10u64 {
            apply(
                &mut b,
                &key("counter"),
                Operation::Increment(1),
                Some(Clock::with_root(0, c)),
            );
        }
        assert_eq!(b.engine().journal_len(), 10);
        assert!(b.engine().durable_bytes() > 0);
        b.crash();
        assert_eq!(b.instance().peek(&key("counter")), Value::None);
        let stats = b.recover();
        assert_eq!(stats.replayed_ops, 10);
        assert_eq!(b.instance().peek(&key("counter")), Value::Int(10));
        // The duplicate-suppression log came back with the state.
        let r = b
            .instance_mut()
            .apply(
                InstanceId(1),
                &key("counter"),
                &Operation::Increment(1),
                Some(Clock::with_root(0, 7)),
            )
            .unwrap();
        assert!(r.outcome.emulated);
    }

    #[test]
    fn auto_compaction_bounds_journal_and_restart_work() {
        let scratch = ScratchDir::new("aob-compact");
        let mut b = shard(scratch.path(), 8);
        b.set_journaling(true);
        for c in 1..=30u64 {
            apply(
                &mut b,
                &key("k"),
                Operation::Increment(1),
                Some(Clock::with_root(0, c)),
            );
        }
        // Auto-checkpoints fired at 8, 16 and 24 appends: the journal holds
        // only the suffix, and exactly one segment + one image remain.
        assert_eq!(b.engine().journal_len(), 30 % 8);
        assert_eq!(b.engine().segment_count(), 1);
        b.crash();
        let stats = b.recover();
        assert_eq!(
            stats.replayed_ops,
            30 % 8,
            "O(delta) replay, not O(history)"
        );
        assert_eq!(stats.restored_from_checkpoint, 1);
        assert_eq!(b.instance().peek(&key("k")), Value::Int(30));
    }

    #[test]
    fn reopen_resumes_from_disk_and_truncates_torn_tail() {
        let scratch = ScratchDir::new("aob-reopen");
        let dir = scratch.path().to_path_buf();
        let mut b = shard(&dir, DEFAULT_CHECKPOINT_INTERVAL);
        b.set_journaling(true);
        for c in 1..=6u64 {
            apply(
                &mut b,
                &key("x"),
                Operation::Increment(1),
                Some(Clock::with_root(0, c)),
            );
        }
        b.checkpoint();
        for c in 7..=9u64 {
            apply(
                &mut b,
                &key("x"),
                Operation::Increment(1),
                Some(Clock::with_root(0, c)),
            );
        }
        drop(b);
        // Tear the last record: chop 3 bytes off the segment the image at
        // sequence 0 rotated to.
        let seg = dir.join("seg-00000001.log");
        let len = fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 3)
            .unwrap();

        let mut b = shard(&dir, DEFAULT_CHECKPOINT_INTERVAL);
        assert_eq!(b.engine().journal_len(), 2, "torn third record dropped");
        let stats = b.recover();
        assert_eq!(stats.restored_from_checkpoint, 1);
        assert_eq!(stats.replayed_ops, 2);
        // Checkpointed writes were never at risk; intact post-checkpoint
        // records replayed.
        assert_eq!(b.instance().peek(&key("x")), Value::Int(8));
        // Appends continue cleanly after the truncation point: enabling
        // journaling keeps the reopened durable state, and the new record
        // lands after the repaired tail.
        b.set_journaling(true);
        apply(
            &mut b,
            &key("x"),
            Operation::Increment(1),
            Some(Clock::with_root(0, 10)),
        );
        b.crash();
        let stats = b.recover();
        assert_eq!(stats.replayed_ops, 3);
        assert_eq!(b.instance().peek(&key("x")), Value::Int(9));
    }

    #[test]
    fn disabling_journaling_wipes_durable_state() {
        let scratch = ScratchDir::new("aob-wipe");
        let mut b = shard(scratch.path(), DEFAULT_CHECKPOINT_INTERVAL);
        b.set_journaling(true);
        apply(&mut b, &key("a"), Operation::Increment(1), None);
        b.checkpoint();
        apply(&mut b, &key("a"), Operation::Increment(1), None);
        assert!(b.engine().durable_bytes() > 0);
        b.set_journaling(false);
        assert_eq!(b.engine().durable_bytes(), 0);
        assert_eq!(b.engine().journal_len(), 0);
        b.crash();
        let stats = b.recover();
        assert_eq!(stats, ShardRecoveryStats::default());
        assert!(b.instance().is_empty());
    }

    #[test]
    fn scratch_dir_cleans_up_on_drop() {
        let scratch = ScratchDir::new("aob-hygiene");
        let path = scratch.path().to_path_buf();
        let mut b = shard(&path, DEFAULT_CHECKPOINT_INTERVAL);
        b.set_journaling(true);
        apply(&mut b, &key("z"), Operation::Increment(1), None);
        assert!(path.join("seg-00000000.log").exists());
        drop(b);
        drop(scratch);
        assert!(!path.exists(), "scratch dir removed on drop");
    }
}
