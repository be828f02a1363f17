//! The append-only flat-file storage engine.
//!
//! Layout (timestore-style ordered appends), one directory per shard:
//!
//! ```text
//! shard-3/
//!   ckpt-00000007.img   # newest checkpoint image (the whole shard)
//!   seg-00000008.log    # active journal segment: records past the image
//! ```
//!
//! * **Records** are appended in execution order, each a frame
//!   `[u32 len][u32 sum][payload]` that the shard encoded once, under its
//!   lock (`codec`), so a segment is an ordered history — byte for byte what
//!   the memory engine keeps in its arena. `append` is one `write_all` of
//!   that frame and allocates nothing. A torn tail (crash mid-write) fails
//!   the length or checksum test and is dropped at recovery; on reopen the
//!   active segment is truncated back to its last intact record so new
//!   appends can never hide behind garbage. Reads never come here: the shard
//!   serves them from its live [`StoreInstance`].
//! * **Checkpoint compaction**: every `checkpoint_interval` journaled
//!   records (the server passes `DEFAULT_CHECKPOINT_INTERVAL`, the cadence
//!   the memory engine follows too), or on an explicit `checkpoint_shard`,
//!   the engine writes the full image of the shard (`ckpt-<seq>.img`,
//!   atomically via rename), rotates to a fresh segment and deletes
//!   everything older. The image is one frame, encoded straight from the
//!   live instance into a buffer of the checkpoint's own and decoded in
//!   place on restore (`codec::encode_image_frame`). An image that fails its
//!   frame check or decode is reported, not read as an empty shard.
//!   Recovery replays only the records past the newest image —
//!   O(delta in ops-since-checkpoint), never O(history).
//!
//! `std::fs` only; the container has no crates.io access.

use super::codec::{decode_image_frame, encode_image_frame, scan_frames};
use super::{ImageRejected, JournalRecord, StorageBackend};
use crate::ops::CustomOpResolver;
use crate::store::StoreInstance;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// One durable journal segment on disk.
struct Segment {
    seq: u64,
    /// Bytes of intact records (the file may briefly be longer mid-append).
    bytes: u64,
}

/// Append-only flat-file engine. See the module docs for the layout.
pub struct AppendOnlyBackend {
    dir: PathBuf,
    checkpoint_interval: usize,
    /// Sealed + active segments, ascending by `seq`; the last is active.
    segments: Vec<Segment>,
    /// The active segment, open for append.
    active: File,
    /// Records appended since the newest checkpoint image.
    pending_records: usize,
    /// Sequence of the newest checkpoint image, and its size.
    ckpt_seq: Option<u64>,
    ckpt_bytes: u64,
}

impl AppendOnlyBackend {
    /// Open (or create) the engine over `dir`. Existing durable state is
    /// scanned — newest checkpoint located, records counted, a torn
    /// active-segment tail truncated — and stays on disk: a
    /// [`super::Shard`] over the engine loads it with `recover`, exactly as
    /// a restarted shard would.
    pub fn open(dir: impl Into<PathBuf>, checkpoint_interval: usize) -> AppendOnlyBackend {
        let dir = dir.into();
        fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));

        // Scan the directory for checkpoint images and segments.
        let mut ckpts: Vec<u64> = Vec::new();
        let mut segs: Vec<u64> = Vec::new();
        for entry in fs::read_dir(&dir).unwrap_or_else(|e| panic!("read {}: {e}", dir.display())) {
            let name = match entry {
                Ok(e) => e.file_name().to_string_lossy().into_owned(),
                Err(_) => continue,
            };
            if let Some(seq) = parse_seq(&name, "ckpt-", ".img") {
                ckpts.push(seq);
            } else if let Some(seq) = parse_seq(&name, "seg-", ".log") {
                segs.push(seq);
            }
        }
        let ckpt_seq = ckpts.iter().copied().max();
        let ckpt_bytes = ckpt_seq
            .and_then(|seq| fs::metadata(ckpt_path(&dir, seq)).ok())
            .map(|m| m.len())
            .unwrap_or(0);
        // Compaction leftovers (a crash between image rename and deletion)
        // are finished off here; stale images likewise.
        for &seq in &ckpts {
            if Some(seq) != ckpt_seq {
                let _ = fs::remove_file(ckpt_path(&dir, seq));
            }
        }
        segs.retain(|&seq| {
            let live = ckpt_seq.is_none_or(|c| seq > c);
            if !live {
                let _ = fs::remove_file(seg_path(&dir, seq));
            }
            live
        });
        segs.sort_unstable();

        // Re-scan live segments: count pending records and find each
        // segment's intact length.
        let mut pending_records = 0usize;
        let mut segments = Vec::new();
        for &seq in &segs {
            let bytes = fs::read(seg_path(&dir, seq)).unwrap_or_default();
            let intact = scan_frames(&bytes, &mut |_| pending_records += 1);
            segments.push(Segment {
                seq,
                bytes: intact as u64,
            });
        }
        if segments.is_empty() {
            let seq = ckpt_seq.map_or(0, |c| c + 1);
            segments.push(Segment { seq, bytes: 0 });
        }
        let active_meta = segments.last().expect("at least one segment");
        let path = seg_path(&dir, active_meta.seq);
        // Truncate a torn tail so future appends land after the last intact
        // record instead of behind it.
        let file = OpenOptions::new()
            .create(true)
            .write(true)
            .read(true)
            .truncate(false)
            .open(&path)
            .unwrap_or_else(|e| panic!("open {}: {e}", path.display()));
        file.set_len(active_meta.bytes)
            .unwrap_or_else(|e| panic!("truncate {}: {e}", path.display()));
        let active = OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("append {}: {e}", path.display()));
        drop(file);

        AppendOnlyBackend {
            dir,
            checkpoint_interval: checkpoint_interval.max(1),
            segments,
            active,
            pending_records,
            ckpt_seq,
            ckpt_bytes,
        }
    }

    /// Path of the segment currently being appended to (crash-injection
    /// tests truncate this file at arbitrary offsets).
    pub fn active_segment_path(&self) -> PathBuf {
        seg_path(&self.dir, self.segments.last().expect("active segment").seq)
    }

    /// Delete every segment and start the journal over in one empty
    /// segment `seq`.
    fn reset_journal(&mut self, seq: u64) {
        for seg in &self.segments {
            let _ = fs::remove_file(seg_path(&self.dir, seg.seq));
        }
        self.segments = vec![Segment { seq, bytes: 0 }];
        let path = seg_path(&self.dir, seq);
        self.active = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .unwrap_or_else(|e| panic!("open {}: {e}", path.display()));
        self.pending_records = 0;
    }
}

impl StorageBackend for AppendOnlyBackend {
    fn append(&mut self, frame: &[u8]) -> bool {
        let seg = self.segments.last_mut().expect("active segment");
        // The path is built only for the message: an append allocates
        // nothing.
        if let Err(e) = self.active.write_all(frame) {
            panic!("append {}: {e}", seg_path(&self.dir, seg.seq).display());
        }
        seg.bytes += frame.len() as u64;
        self.pending_records += 1;
        // Periodic compaction: fold the journal into a checkpoint image so
        // recovery work stays proportional to ops-since-checkpoint.
        self.pending_records >= self.checkpoint_interval
    }

    fn checkpoint(&mut self, instance: &StoreInstance) -> usize {
        // A buffer of this checkpoint's own, sized by the last image: one
        // kept per shard would hold an image's worth of memory for good.
        let mut buf = Vec::with_capacity(self.ckpt_bytes as usize);
        let frame = encode_image_frame(instance, &mut buf);
        let seq = self.segments.last().expect("active segment").seq;
        // Write the image to a temp name and rename: the newest intact
        // `ckpt-*.img` is the recovery anchor, so it must appear atomically.
        let tmp = self.dir.join(format!("ckpt-{seq:08}.tmp"));
        let final_path = ckpt_path(&self.dir, seq);
        File::create(&tmp)
            .and_then(|mut file| file.write_all(frame))
            .unwrap_or_else(|e| panic!("write {}: {e}", tmp.display()));
        fs::rename(&tmp, &final_path)
            .unwrap_or_else(|e| panic!("rename {}: {e}", final_path.display()));

        // Rotate to a fresh segment, then compact everything the image
        // supersedes: all segments (the image covers through the active
        // one's end) and the previous image.
        let old_ckpt = self.ckpt_seq.replace(seq);
        self.ckpt_bytes = frame.len() as u64;
        self.reset_journal(seq + 1);
        if let Some(old) = old_ckpt.filter(|old| *old != seq) {
            let _ = fs::remove_file(ckpt_path(&self.dir, old));
        }
        instance.len()
    }

    fn restore(
        &self,
        resolve: CustomOpResolver<'_>,
    ) -> Result<Option<StoreInstance>, ImageRejected> {
        let Some(seq) = self.ckpt_seq else {
            return Ok(None);
        };
        let frame = fs::read(ckpt_path(&self.dir, seq)).unwrap_or_default();
        decode_image_frame(&frame, resolve)
            .map(Some)
            .ok_or(ImageRejected)
    }

    fn for_each_record(&self, visit: &mut dyn FnMut(&JournalRecord)) {
        for seg in &self.segments {
            let bytes = fs::read(seg_path(&self.dir, seg.seq)).unwrap_or_default();
            scan_frames(&bytes, visit);
        }
    }

    fn journal_len(&self) -> usize {
        self.pending_records
    }

    fn clear(&mut self) {
        let next = self.segments.last().map_or(0, |s| s.seq + 1);
        self.reset_journal(next);
        if let Some(seq) = self.ckpt_seq.take() {
            let _ = fs::remove_file(ckpt_path(&self.dir, seq));
        }
        self.ckpt_bytes = 0;
    }

    fn segment_count(&self) -> usize {
        self.segments.len()
    }

    fn durable_bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.bytes).sum::<u64>() + self.ckpt_bytes
    }
}

fn seg_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("seg-{seq:08}.log"))
}

fn ckpt_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("ckpt-{seq:08}.img"))
}

fn parse_seq(name: &str, prefix: &str, suffix: &str) -> Option<u64> {
    name.strip_prefix(prefix)?
        .strip_suffix(suffix)?
        .parse()
        .ok()
}

/// A process-unique scratch directory under the workspace `target/`,
/// removed (recursively, best-effort) on drop — so repeated `cargo test`
/// runs never accumulate segments.
pub struct ScratchDir {
    path: PathBuf,
}

static SCRATCH_SEQ: AtomicU64 = AtomicU64::new(0);

impl ScratchDir {
    /// Create `target/chc-store-scratch/<pid>-<seq>-<label>/`.
    pub fn new(label: &str) -> ScratchDir {
        let path = target_root().join("chc-store-scratch").join(format!(
            "{}-{}-{label}",
            std::process::id(),
            SCRATCH_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        fs::create_dir_all(&path).unwrap_or_else(|e| panic!("create {}: {e}", path.display()));
        ScratchDir { path }
    }

    /// The scratch directory path.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for ScratchDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.path);
    }
}

/// The workspace `target/` directory: `CARGO_TARGET_DIR` if set, else the
/// nearest ancestor's existing `target/`, else a `target/` under the current
/// directory.
fn target_root() -> PathBuf {
    if let Ok(dir) = std::env::var("CARGO_TARGET_DIR") {
        return PathBuf::from(dir);
    }
    let cwd = std::env::current_dir().unwrap_or_else(|_| PathBuf::from("."));
    let mut dir = cwd.clone();
    for _ in 0..6 {
        let candidate = dir.join("target");
        if candidate.is_dir() {
            return candidate;
        }
        if !dir.pop() {
            break;
        }
    }
    cwd.join("target")
}

#[cfg(test)]
mod tests {
    use super::super::{Shard, ShardRecoveryStats, DEFAULT_CHECKPOINT_INTERVAL};
    use super::*;
    use crate::key::{Clock, InstanceId, ObjectKey, StateKey, VertexId};
    use crate::ops::Operation;
    use crate::value::Value;

    fn key(name: &str) -> StateKey {
        StateKey::shared(VertexId(0), ObjectKey::named(name))
    }

    fn shard(dir: &Path, checkpoint_interval: usize) -> Shard {
        Shard::new(Box::new(AppendOnlyBackend::open(dir, checkpoint_interval)))
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
        assert_eq!(b.backend().journal_len(), 10);
        assert!(b.backend().durable_bytes() > 0);
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
        assert_eq!(b.backend().journal_len(), 30 % 8);
        assert_eq!(b.backend().segment_count(), 1);
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
        // Tear the last record: chop 3 bytes off the segment.
        let seg = AppendOnlyBackend::open(&dir, DEFAULT_CHECKPOINT_INTERVAL).active_segment_path();
        let len = fs::metadata(&seg).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 3)
            .unwrap();

        let mut b = shard(&dir, DEFAULT_CHECKPOINT_INTERVAL);
        assert_eq!(b.backend().journal_len(), 2, "torn third record dropped");
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
        assert!(b.backend().durable_bytes() > 0);
        b.set_journaling(false);
        assert_eq!(b.backend().durable_bytes(), 0);
        assert_eq!(b.backend().journal_len(), 0);
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
