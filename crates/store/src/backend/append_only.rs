//! The append-only flat-file storage engine.
//!
//! Layout (timestore-style ordered appends), one directory per shard:
//!
//! ```text
//! shard-3/
//!   ckpt-00000007.img   # newest checkpoint image (full durable image)
//!   seg-00000008.log    # active journal segment: records past the image
//! ```
//!
//! * **Records** are appended in execution order, each framed as
//!   `[u32 len][u32 fnv1a(payload)][payload]`, so a segment is an ordered
//!   history. A torn tail (crash mid-write) fails the length or checksum
//!   test and is dropped at recovery; on reopen the active segment is
//!   truncated back to its last intact record so new appends can never hide
//!   behind garbage. Reads never come here: the shard serves them from its
//!   live [`StoreInstance`].
//! * **Checkpoint compaction**: every `checkpoint_interval` journaled
//!   records (or on an explicit `checkpoint_shard`) the engine writes the
//!   full durable image (`ckpt-<seq>.img`, atomically via rename), rotates
//!   to a fresh segment and deletes everything older. Recovery therefore
//!   replays only the records past the newest image — O(delta in
//!   ops-since-checkpoint), never O(history).
//!
//! `std::fs` only; the container has no crates.io access.

use super::codec::{fnv32, Dec, Enc};
use super::{JournalRecord, StorageBackend};
use crate::key::{Clock, InstanceId};
use crate::ops::CustomOpResolver;
use crate::store::{DurableImage, StoreInstance};
use std::fs::{self, File, OpenOptions};
use std::io::{Read, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default compaction cadence, in journaled records. High enough that the
/// small conformance-suite scenarios behave byte-for-byte like the memory
/// engine (no auto-checkpoint fires mid-test), low enough that long runs
/// keep recovery O(delta).
pub(crate) const DEFAULT_CHECKPOINT_INTERVAL: usize = 1024;

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
            let (records, bytes) = scan_segment(&seg_path(&dir, seq));
            pending_records += records.len();
            segments.push(Segment { seq, bytes });
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

    /// Write one finished frame ([`Enc::into_frame`]); returns its length.
    fn write_frame(file: &mut File, path: &Path, frame: &[u8]) -> u64 {
        file.write_all(frame)
            .unwrap_or_else(|e| panic!("append {}: {e}", path.display()));
        file.flush()
            .unwrap_or_else(|e| panic!("flush {}: {e}", path.display()));
        frame.len() as u64
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
    fn append(&mut self, record: JournalRecord) -> bool {
        let frame = encode_record(&record);
        let seg = self.segments.last_mut().expect("active segment");
        let path = seg_path(&self.dir, seg.seq);
        seg.bytes += Self::write_frame(&mut self.active, &path, &frame);
        self.pending_records += 1;
        // Periodic compaction: fold the journal into a checkpoint image so
        // recovery work stays proportional to ops-since-checkpoint.
        self.pending_records >= self.checkpoint_interval
    }

    fn checkpoint(&mut self, instance: &StoreInstance) -> usize {
        let image = instance.durable_image();
        let captured = image.entries.len();
        let frame = encode_image(&image);
        let seq = self.segments.last().expect("active segment").seq;
        // Write the image to a temp name and rename: the newest intact
        // `ckpt-*.img` is the recovery anchor, so it must appear atomically.
        let tmp = self.dir.join(format!("ckpt-{seq:08}.tmp"));
        let final_path = ckpt_path(&self.dir, seq);
        let mut file =
            File::create(&tmp).unwrap_or_else(|e| panic!("create {}: {e}", tmp.display()));
        let written = Self::write_frame(&mut file, &tmp, &frame);
        drop(file);
        fs::rename(&tmp, &final_path)
            .unwrap_or_else(|e| panic!("rename {}: {e}", final_path.display()));

        // Rotate to a fresh segment, then compact everything the image
        // supersedes: all segments (the image covers through the active
        // one's end) and the previous image.
        let old_ckpt = self.ckpt_seq.replace(seq);
        self.ckpt_bytes = written;
        self.reset_journal(seq + 1);
        if let Some(old) = old_ckpt.filter(|old| *old != seq) {
            let _ = fs::remove_file(ckpt_path(&self.dir, old));
        }
        captured
    }

    fn restore(&self, resolve: CustomOpResolver<'_>) -> Option<StoreInstance> {
        let image = read_image(&ckpt_path(&self.dir, self.ckpt_seq?)).unwrap_or_default();
        Some(StoreInstance::from_durable_image(image, resolve))
    }

    fn for_each_record(&self, visit: &mut dyn FnMut(&JournalRecord)) {
        for seg in &self.segments {
            let (records, _) = scan_segment(&seg_path(&self.dir, seg.seq));
            records.iter().for_each(&mut *visit);
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

/// Decode every intact record of a segment. Returns the records plus the
/// byte length of the intact prefix (a torn tail — short frame, failed
/// checksum, or undecodable payload — ends the scan).
fn scan_segment(path: &Path) -> (Vec<JournalRecord>, u64) {
    let mut buf = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            if f.read_to_end(&mut buf).is_err() {
                return (Vec::new(), 0);
            }
        }
        Err(_) => return (Vec::new(), 0),
    }
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= buf.len() {
        let len = u32::from_le_bytes(buf[pos..pos + 4].try_into().unwrap()) as usize;
        let sum = u32::from_le_bytes(buf[pos + 4..pos + 8].try_into().unwrap());
        let Some(end) = pos.checked_add(8).and_then(|p| p.checked_add(len)) else {
            break;
        };
        if end > buf.len() {
            break;
        }
        let payload = &buf[pos + 8..end];
        if fnv32(payload) != sum {
            break;
        }
        let Some(record) = decode_record(payload) else {
            break;
        };
        records.push(record);
        pos = end;
    }
    (records, pos as u64)
}

/// Read and decode a framed checkpoint image.
fn read_image(path: &Path) -> Option<DurableImage> {
    let mut buf = Vec::new();
    File::open(path).ok()?.read_to_end(&mut buf).ok()?;
    if buf.len() < 8 {
        return None;
    }
    let len = u32::from_le_bytes(buf[..4].try_into().unwrap()) as usize;
    let sum = u32::from_le_bytes(buf[4..8].try_into().unwrap());
    let payload = buf.get(8..8 + len)?;
    if fnv32(payload) != sum {
        return None;
    }
    decode_image(payload)
}

/// Encode one journal record as a finished frame.
fn encode_record(record: &JournalRecord) -> Vec<u8> {
    let mut e = Enc::new();
    match record {
        JournalRecord::Apply {
            requester,
            key,
            op,
            clock,
        } => {
            e.u8(0);
            e.u32(requester.0);
            e.state_key(key);
            e.operation(op);
            e.opt_clock(*clock);
        }
        JournalRecord::Callback { key, instance } => {
            e.u8(1);
            e.u32(instance.0);
            e.state_key(key);
        }
        JournalRecord::CustomOp { name } => {
            e.u8(2);
            e.str(name);
        }
        JournalRecord::Reassign { from, to } => {
            e.u8(3);
            e.u32(from.0);
            e.u32(to.0);
        }
        JournalRecord::ApplyBatch { requester, ops } => {
            e.u8(4);
            e.u32(requester.0);
            e.u32(ops.len() as u32);
            for (key, op, clock) in ops {
                e.state_key(key);
                e.operation(op);
                e.opt_clock(*clock);
            }
        }
    }
    e.into_frame()
}

fn decode_record(payload: &[u8]) -> Option<JournalRecord> {
    let mut d = Dec::new(payload);
    let record = match d.u8()? {
        0 => JournalRecord::Apply {
            requester: InstanceId(d.u32()?),
            key: d.state_key()?,
            op: d.operation()?,
            clock: d.opt_clock()?,
        },
        1 => JournalRecord::Callback {
            instance: InstanceId(d.u32()?),
            key: d.state_key()?,
        },
        2 => JournalRecord::CustomOp { name: d.str()? },
        3 => JournalRecord::Reassign {
            from: InstanceId(d.u32()?),
            to: InstanceId(d.u32()?),
        },
        4 => {
            let requester = InstanceId(d.u32()?);
            let n = d.u32()? as usize;
            let mut ops = Vec::with_capacity(n.min(1 << 16));
            for _ in 0..n {
                ops.push((d.state_key()?, d.operation()?, d.opt_clock()?));
            }
            JournalRecord::ApplyBatch { requester, ops }
        }
        _ => return None,
    };
    d.is_exhausted().then_some(record)
}

fn encode_image(image: &DurableImage) -> Vec<u8> {
    let mut e = Enc::new();
    e.u32(image.entries.len() as u32);
    for (key, value, owner) in &image.entries {
        e.state_key(key);
        e.value(value);
        match owner {
            None => e.u8(0),
            Some(o) => {
                e.u8(1);
                e.u32(o.0);
            }
        }
    }
    e.u32(image.ts.len() as u32);
    for (instance, clock) in &image.ts {
        e.u32(instance.0);
        e.u64(clock.0);
    }
    e.u32(image.update_log.len() as u32);
    for (key, clock, ops) in &image.update_log {
        e.state_key(key);
        e.u64(clock.0);
        e.u32(ops.len() as u32);
        for (op, returned) in ops {
            e.operation(op);
            e.value(returned);
        }
    }
    e.u32(image.nondet_log.len() as u32);
    for (clock, slot, value) in &image.nondet_log {
        e.u64(clock.0);
        e.u32(*slot);
        e.value(value);
    }
    e.u32(image.callbacks.len() as u32);
    for (key, who) in &image.callbacks {
        e.state_key(key);
        e.u32(who.len() as u32);
        for i in who {
            e.u32(i.0);
        }
    }
    e.u32(image.custom_op_names.len() as u32);
    for name in &image.custom_op_names {
        e.str(name);
    }
    e.u8(u8::from(image.failed));
    e.into_frame()
}

fn decode_image(payload: &[u8]) -> Option<DurableImage> {
    let mut d = Dec::new(payload);
    let mut image = DurableImage::default();
    for _ in 0..d.u32()? {
        let key = d.state_key()?;
        let value = d.value()?;
        let owner = match d.u8()? {
            0 => None,
            1 => Some(InstanceId(d.u32()?)),
            _ => return None,
        };
        image.entries.push((key, value, owner));
    }
    for _ in 0..d.u32()? {
        image.ts.push((InstanceId(d.u32()?), Clock(d.u64()?)));
    }
    for _ in 0..d.u32()? {
        let key = d.state_key()?;
        let clock = Clock(d.u64()?);
        let mut ops = Vec::new();
        for _ in 0..d.u32()? {
            ops.push((d.operation()?, d.value()?));
        }
        image.update_log.push((key, clock, ops));
    }
    for _ in 0..d.u32()? {
        image
            .nondet_log
            .push((Clock(d.u64()?), d.u32()?, d.value()?));
    }
    for _ in 0..d.u32()? {
        let key = d.state_key()?;
        let mut who = Vec::new();
        for _ in 0..d.u32()? {
            who.push(InstanceId(d.u32()?));
        }
        image.callbacks.push((key, who));
    }
    for _ in 0..d.u32()? {
        image.custom_op_names.push(d.str()?);
    }
    image.failed = d.u8()? != 0;
    d.is_exhausted().then_some(image)
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
    use super::super::{Shard, ShardRecoveryStats};
    use super::*;
    use crate::key::{ObjectKey, StateKey, VertexId};
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
        s.append(JournalRecord::Apply {
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
