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
//!
//! The medium is split at the shard lock. [`Files`] is the engine's side: it
//! hands each frame and each checkpoint to the shard's [`Outbox`] and keeps
//! the gauges, and makes no syscall. [`Dir`] is the directory. After open
//! only the outbox's drain routine writes it (`persister.rs`), and reads
//! follow a drain: every write, rename and delete there returns an
//! `io::Result`.

use super::persister::{Outbox, Persister, Rotation};
use std::borrow::Cow;
use std::fs::{self, File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The engine's side of a shard's directory: what it has handed over, and
/// where to.
pub(super) struct Files {
    /// Live segments as `(seq, bytes)`, ascending, counting every byte
    /// handed over, written yet or not; the last is active.
    segments: Vec<(u64, u64)>,
    /// Sequence and size of the newest image handed over.
    image: Option<(u64, u64)>,
    outbox: Arc<Outbox>,
    /// The server's persister thread; a standalone engine has none, and
    /// writes at its barriers.
    persister: Option<Arc<Persister>>,
}

impl Files {
    /// Open (or create) `dir`, staging into an outbox that `persister`
    /// drains, if there is one.
    pub(super) fn open(dir: PathBuf, persister: Option<Arc<Persister>>) -> Files {
        let (dir, (segments, image)) = Dir::open(dir);
        let outbox = Arc::new(Outbox::new(dir));
        if let Some(persister) = &persister {
            persister.adopt(Arc::clone(&outbox));
        }
        Files {
            segments,
            image,
            outbox,
            persister,
        }
    }

    /// True while no image and no journal byte was handed over.
    pub(super) fn is_empty(&self) -> bool {
        self.image.is_none() && self.segments.iter().all(|&(_, bytes)| bytes == 0)
    }

    fn active_seq(&self) -> u64 {
        self.segments.last().map_or(0, |&(seq, _)| seq)
    }

    /// Hand a finished frame over: it is copied into the shard's staging
    /// buffer, and a drain writes it.
    pub(super) fn append(&mut self, frame: &[u8]) {
        self.outbox.stage(frame, self.persister.as_ref());
        if let Some((_, bytes)) = self.segments.last_mut() {
            *bytes += frame.len() as u64;
        }
    }

    /// Every live segment's bytes, oldest first, once everything staged is
    /// written; `None` for one that cannot be read.
    pub(super) fn for_each_segment(&self, visit: &mut dyn FnMut(Option<&[u8]>)) {
        self.outbox
            .with_drained(&mut Vec::new(), |dir| dir.for_each_segment(visit));
    }

    /// Cut the active segment back to `len` bytes, so appends land after
    /// its last intact record instead of behind a torn one.
    pub(super) fn truncate_active(&mut self, len: usize) {
        self.outbox
            .with_drained(&mut Vec::new(), |dir| dir.truncate_active(len));
        if let Some((_, bytes)) = self.segments.last_mut() {
            *bytes = len as u64;
        }
    }

    /// The newest image's bytes, if there is one (empty if it cannot be
    /// read, which the engine then rejects).
    pub(super) fn image(&self) -> Option<Cow<'_, [u8]>> {
        self.outbox
            .with_drained(&mut Vec::new(), |dir| dir.read_image())
            .map(Cow::Owned)
    }

    /// Make `image` the newest image, or delete the image if `None`. It
    /// covers through the active segment's end, so the journal restarts in
    /// a fresh segment, and every older segment and image goes.
    pub(super) fn replace_image(&mut self, image: Option<Vec<u8>>) {
        let seq = self.active_seq();
        self.image = image.as_ref().map(|image| (seq, image.len() as u64));
        self.segments.clear();
        self.segments.push((seq + 1, 0));
        self.outbox
            .stage_rotation(Rotation { seq, image }, self.persister.as_ref());
    }

    /// The barrier: write everything staged, on the caller's thread.
    pub(super) fn persist(&self) {
        self.outbox.drain();
    }

    pub(super) fn segment_count(&self) -> usize {
        self.segments.len()
    }

    /// Bytes handed to the medium, staged or written: once written, what
    /// the directory holds.
    pub(super) fn durable_bytes(&self) -> u64 {
        let image = self.image.map_or(0, |(_, bytes)| bytes);
        self.segments.iter().map(|&(_, bytes)| bytes).sum::<u64>() + image
    }
}

impl Drop for Files {
    fn drop(&mut self) {
        self.persist();
    }
}

/// A shard's directory as it is on file: its live segments, the active one
/// open for append, and its newest image. The outbox's writer lock guards
/// it.
pub(super) struct Dir {
    path: PathBuf,
    /// Sequences of the live segment files, ascending; the last is active.
    segments: Vec<u64>,
    active: File,
    /// Sequence of the newest image file.
    image: Option<u64>,
    /// The first IO error; from then on nothing is written.
    error: Option<io::Error>,
    /// Drains that did IO `(on the persister thread, elsewhere)`.
    #[cfg(test)]
    pub(super) io_threads: (usize, usize),
}

/// The live segments as `(seq, bytes)` and the newest image as `(seq,
/// bytes)`, as `Dir::open` found them.
type Found = (Vec<(u64, u64)>, Option<(u64, u64)>);

impl Dir {
    /// Open (or create) `path`. Images older than the newest, and segments
    /// the newest image supersedes, are compaction leftovers (a crash
    /// between the image's rename and their deletion) and are deleted here.
    fn open(path: PathBuf) -> (Dir, Found) {
        fs::create_dir_all(&path).unwrap_or_else(|e| panic!("create {}: {e}", path.display()));
        let (segments, image) = Dir::scan(&path);
        let active =
            open_append(&path, segments[segments.len() - 1].0).unwrap_or_else(|e| panic!("{e}"));
        let dir = Dir {
            segments: segments.iter().map(|&(seq, _)| seq).collect(),
            active,
            image: image.map(|(seq, _)| seq),
            error: None,
            #[cfg(test)]
            io_threads: (0, 0),
            path,
        };
        (dir, (segments, image))
    }

    fn scan(path: &Path) -> Found {
        let (mut images, mut segments) = (Vec::new(), Vec::new());
        for entry in fs::read_dir(path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()))
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
            let _ = fs::remove_file(ckpt_path(path, seq));
        }
        segments.retain(|&(seq, _)| {
            let live = newest.is_none_or(|c| seq > c);
            if !live {
                let _ = fs::remove_file(seg_path(path, seq));
            }
            live
        });
        segments.sort_unstable();
        if segments.is_empty() {
            segments.push((newest.map_or(0, |c| c + 1), 0));
        }
        (segments, image)
    }

    fn active_seq(&self) -> u64 {
        self.segments.last().copied().unwrap_or(0)
    }

    /// The first IO error, if one stopped this directory's writes.
    pub(super) fn error(&self) -> Option<&io::Error> {
        self.error.as_ref()
    }

    /// Write what one drain took: the rotation first, then the frames that
    /// follow it, as one `write_all`. After the first error nothing is
    /// written, and what is handed over is dropped.
    pub(super) fn persist(&mut self, rotation: Option<Rotation>, frames: &[u8]) {
        if self.error.is_some() {
            return;
        }
        #[cfg(test)]
        self.note_io();
        let rotated = rotation.map_or(Ok(()), |rotation| self.rotate(rotation));
        if let Err(e) = rotated.and_then(|()| self.append(frames)) {
            self.error = Some(e);
        }
    }

    #[cfg(test)]
    fn note_io(&mut self) {
        let on = std::thread::current().name() == Some(super::persister::PERSISTER_THREAD);
        let (persister, elsewhere) = &mut self.io_threads;
        *if on { persister } else { elsewhere } += 1;
    }

    fn append(&mut self, frames: &[u8]) -> io::Result<()> {
        if frames.is_empty() {
            return Ok(());
        }
        let seq = self.active_seq();
        self.active
            .write_all(frames)
            .map_err(|e| context(e, "append", &seg_path(&self.path, seq)))
    }

    /// Make the rotation's image the newest one (written to a temp name and
    /// renamed, so it appears atomically: the newest intact `ckpt-*.img` is
    /// the recovery anchor), delete every segment it supersedes, start the
    /// journal over in segment `seq + 1`, and delete the older image.
    fn rotate(&mut self, Rotation { seq, image }: Rotation) -> io::Result<()> {
        let old = self.image.take();
        if let Some(image) = image {
            let tmp = self.path.join(format!("ckpt-{seq:08}.tmp"));
            let path = ckpt_path(&self.path, seq);
            File::create(&tmp)
                .and_then(|mut file| file.write_all(&image))
                .map_err(|e| context(e, "write", &tmp))?;
            fs::rename(&tmp, &path).map_err(|e| context(e, "rename", &path))?;
            self.image = Some(seq);
        }
        for &old in &self.segments {
            remove(&seg_path(&self.path, old))?;
        }
        self.segments.clear();
        self.segments.push(seq + 1);
        self.active = open_append(&self.path, seq + 1)?;
        match old.filter(|old| *old != seq) {
            Some(old) => remove(&ckpt_path(&self.path, old)),
            None => Ok(()),
        }
    }

    /// Every live segment's bytes, oldest first; `None` for one that cannot
    /// be read.
    fn for_each_segment(&self, visit: &mut dyn FnMut(Option<&[u8]>)) {
        for &seq in &self.segments {
            visit(fs::read(seg_path(&self.path, seq)).ok().as_deref());
        }
    }

    fn read_image(&self) -> Option<Vec<u8>> {
        let seq = self.image?;
        Some(fs::read(ckpt_path(&self.path, seq)).unwrap_or_default())
    }

    fn truncate_active(&mut self, len: usize) {
        if self.error.is_some() {
            return;
        }
        let seq = self.active_seq();
        if let Err(e) = self.active.set_len(len as u64) {
            self.error = Some(context(e, "truncate", &seg_path(&self.path, seq)));
        }
    }
}

/// `e`, naming what failed on which path.
fn context(e: io::Error, what: &str, path: &Path) -> io::Error {
    io::Error::new(e.kind(), format!("{what} {}: {e}", path.display()))
}

/// Delete `path`; one already gone is not an error.
fn remove(path: &Path) -> io::Result<()> {
    match fs::remove_file(path) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => Err(context(e, "delete", path)),
        _ => Ok(()),
    }
}

fn open_append(dir: &Path, seq: u64) -> io::Result<File> {
    let path = seg_path(dir, seq);
    OpenOptions::new()
        .create(true)
        .append(true)
        .open(&path)
        .map_err(|e| context(e, "open", &path))
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
