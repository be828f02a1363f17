//! The file medium: one directory per shard, `std::fs` only.
//!
//! ```text
//! shard-3/
//!   ckpt-00000007.img   # newest checkpoint image (the whole shard)
//!   seg-00000008.log    # active journal segment: records past the image
//! ```
//!
//! A segment is named by its sequence number, and an image by the sequence
//! of the segment it supersedes. The medium stores bytes and sets no policy:
//! what a frame is, when to checkpoint and how to recover is the engine's
//! ([`super::Engine`]).

use std::borrow::Cow;
use std::fs::{self, File, OpenOptions};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// A shard's directory, its live segments and its newest image.
pub(super) struct Files {
    dir: PathBuf,
    /// Live segments as `(seq, bytes)`, ascending; the last is `active`.
    segments: Vec<(u64, u64)>,
    /// The active segment, open for append.
    active: File,
    /// Sequence and size of the newest checkpoint image.
    image: Option<(u64, u64)>,
}

impl Files {
    /// Open (or create) `dir`. Images older than the newest, and segments the
    /// newest image supersedes, are compaction leftovers (a crash between the
    /// image's rename and their deletion) and are deleted here.
    pub(super) fn open(dir: PathBuf) -> Files {
        fs::create_dir_all(&dir).unwrap_or_else(|e| panic!("create {}: {e}", dir.display()));
        let (mut images, mut segments) = (Vec::new(), Vec::new());
        for entry in fs::read_dir(&dir)
            .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
            .flatten()
        {
            let name = entry.file_name();
            let name = name.to_string_lossy();
            let bytes = entry.metadata().map_or(0, |m| m.len());
            if let Some(seq) = parse_seq(&name, "ckpt-", ".img") {
                images.push((seq, bytes));
            } else if let Some(seq) = parse_seq(&name, "seg-", ".log") {
                segments.push((seq, bytes));
            }
        }
        let image = images.iter().copied().max();
        let newest = image.map(|(seq, _)| seq);
        for &(seq, _) in images.iter().filter(|(seq, _)| Some(*seq) != newest) {
            let _ = fs::remove_file(ckpt_path(&dir, seq));
        }
        segments.retain(|&(seq, _)| {
            let live = newest.is_none_or(|c| seq > c);
            if !live {
                let _ = fs::remove_file(seg_path(&dir, seq));
            }
            live
        });
        segments.sort_unstable();
        if segments.is_empty() {
            segments.push((newest.map_or(0, |c| c + 1), 0));
        }
        let active = open_append(&dir, segments[segments.len() - 1].0);
        Files {
            dir,
            segments,
            active,
            image,
        }
    }

    fn active_seq(&self) -> u64 {
        self.segments.last().map_or(0, |&(seq, _)| seq)
    }

    /// One `write_all` of a finished frame. The path is built only for the
    /// message: an append allocates nothing.
    pub(super) fn append(&mut self, frame: &[u8]) {
        if let Err(e) = self.active.write_all(frame) {
            panic!(
                "append {}: {e}",
                seg_path(&self.dir, self.active_seq()).display()
            );
        }
        if let Some((_, bytes)) = self.segments.last_mut() {
            *bytes += frame.len() as u64;
        }
    }

    /// Every live segment's bytes, oldest first.
    pub(super) fn for_each_segment(&self, visit: &mut dyn FnMut(&[u8])) {
        for &(seq, _) in &self.segments {
            visit(&fs::read(seg_path(&self.dir, seq)).unwrap_or_default());
        }
    }

    /// Cut the active segment back to `len` bytes, so appends land after
    /// its last intact record instead of behind a torn one.
    pub(super) fn truncate_active(&mut self, len: usize) {
        let seq = self.active_seq();
        self.active
            .set_len(len as u64)
            .unwrap_or_else(|e| panic!("truncate {}: {e}", seg_path(&self.dir, seq).display()));
        if let Some((_, bytes)) = self.segments.last_mut() {
            *bytes = len as u64;
        }
    }

    /// The newest image's bytes, if there is one (empty if it cannot be
    /// read, which the engine then rejects).
    pub(super) fn image(&self) -> Option<Cow<'_, [u8]>> {
        let (seq, _) = self.image?;
        Some(Cow::Owned(
            fs::read(ckpt_path(&self.dir, seq)).unwrap_or_default(),
        ))
    }

    /// Make `image` the newest image, or delete the image if `None`. A new
    /// image is written to a temp name and renamed, so it appears
    /// atomically: the newest intact `ckpt-*.img` is the recovery anchor.
    /// It covers through the active segment's end, so the journal restarts
    /// in a fresh segment, and every older segment and image is deleted.
    pub(super) fn replace_image(&mut self, image: Option<&[u8]>) {
        let seq = self.active_seq();
        let old = self.image.take();
        if let Some(image) = image {
            let tmp = self.dir.join(format!("ckpt-{seq:08}.tmp"));
            let path = ckpt_path(&self.dir, seq);
            File::create(&tmp)
                .and_then(|mut file| file.write_all(image))
                .unwrap_or_else(|e| panic!("write {}: {e}", tmp.display()));
            fs::rename(&tmp, &path).unwrap_or_else(|e| panic!("rename {}: {e}", path.display()));
            self.image = Some((seq, image.len() as u64));
        }
        self.restart_journal(seq + 1);
        if let Some((old, _)) = old.filter(|(old, _)| *old != seq) {
            let _ = fs::remove_file(ckpt_path(&self.dir, old));
        }
    }

    /// Delete every segment and start the journal over in one empty
    /// segment `seq`.
    fn restart_journal(&mut self, seq: u64) {
        for &(old, _) in &self.segments {
            let _ = fs::remove_file(seg_path(&self.dir, old));
        }
        self.segments = vec![(seq, 0)];
        self.active = open_append(&self.dir, seq);
    }

    pub(super) fn segment_count(&self) -> usize {
        self.segments.len()
    }

    pub(super) fn durable_bytes(&self) -> u64 {
        let image = self.image.map_or(0, |(_, bytes)| bytes);
        self.segments.iter().map(|&(_, bytes)| bytes).sum::<u64>() + image
    }
}

fn open_append(dir: &Path, seq: u64) -> File {
    let path = seg_path(dir, seq);
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .unwrap_or_else(|e| panic!("open {}: {e}", path.display()))
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
