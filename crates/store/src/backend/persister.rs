//! Staging and the persister: how a file shard's bytes reach its files with
//! no syscall on the packet thread.
//!
//! Each file shard has an [`Outbox`]. Under the shard lock the engine copies
//! each finished frame into the outbox's staging buffer, and a checkpoint
//! hands over its encoded image and the segment rotation. One drain routine
//! writes what is staged: it takes it under the staging lock, then, holding
//! only the outbox's writer lock, writes the image (tmp write + rename),
//! deletes the old segments, opens the new one, and writes the frames with
//! one `write_all`. It has two callers. The server's [`Persister`] thread
//! drains every shard in turn once per [`PERIOD`]. The barrier runs it on
//! the caller's thread before the engine reads its files (open, recovery)
//! and when the engine is dropped. Neither takes a shard lock.
//!
//! A checkpoint supersedes every record before it, so staging one drops the
//! frames still staged, and a second before a drain drops the first's
//! image: a shard holds at most one image not yet written, besides the one a
//! drain is writing. Either way a crash leaves the old image and a prefix of
//! its segment.

use super::files::Dir;
use std::io;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, OnceLock, PoisonError};
use std::thread::{self, JoinHandle, Thread};
use std::time::Duration;

/// How often the persister drains every shard when nothing unparks it. On
/// one CPU each wake-up is a context switch, so a period of milliseconds
/// costs hundreds of them a second where a `write(2)` per record cost
/// hundreds of thousands; a longer one (5 ms) bought no throughput on
/// `failover_durable`. A process death loses at most one period's records,
/// and never more than [`HARD_CAP`].
const PERIOD: Duration = Duration::from_millis(2);

/// Staged bytes at which an append unparks the persister before its period
/// is up. A busy shard stages several MB/s, so it is written in pieces of
/// about this size, and the persister has until [`HARD_CAP`] to be
/// scheduled.
const WAKE_AT: usize = 16 << 10;

/// Unwritten frame bytes past which an append waits for a drain: the bound
/// on a shard's persist lag. A larger cap stalls less often but costs
/// resident memory, since a staging buffer and the drain's copy each grow to
/// the lag's high-water on every server alive. At 32 KiB the stalls cost
/// `failover_durable` throughput; past 64 KiB `peak_rss_mb` grew with the
/// cap and bought little. It stays below glibc's 128 KiB mmap threshold, so
/// freeing a buffer never moves that threshold.
pub(crate) const HARD_CAP: usize = 64 << 10;

/// The persister thread's name.
pub(crate) const PERSISTER_THREAD: &str = "chc-persister";

fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A checkpoint handed over: the image of sequence `seq` (`None` deletes
/// the image), after which the journal starts over in segment `seq + 1`.
pub(super) struct Rotation {
    pub(super) seq: u64,
    pub(super) image: Option<Vec<u8>>,
}

/// What a shard has handed over and a drain has not yet taken.
#[derive(Default)]
struct Staged {
    /// Frames, in append order; they follow `rotation`, if there is one.
    bytes: Vec<u8>,
    rotation: Option<Rotation>,
    /// Frame bytes a drain took and has not finished writing.
    in_flight: usize,
}

impl Staged {
    fn lag(&self) -> usize {
        self.bytes.len() + self.in_flight
    }
}

/// One file shard's hand-over point: the staged bytes the engine fills
/// under the shard lock, and the directory a drain writes them to.
pub(super) struct Outbox {
    staged: Mutex<Staged>,
    /// Notified when a drain has written what it took.
    written: Condvar,
    dir: Mutex<Dir>,
}

impl Outbox {
    pub(super) fn new(dir: Dir) -> Outbox {
        Outbox {
            staged: Mutex::default(),
            written: Condvar::new(),
            dir: Mutex::new(dir),
        }
    }

    /// Stage one frame. Past the cap the append waits for the persister to
    /// write, or, where there is none, drains first on this thread.
    pub(super) fn stage(&self, frame: &[u8], persister: Option<&Arc<Persister>>) {
        let thread = persister.and_then(Persister::start);
        let mut staged = lock(&self.staged);
        while staged.lag() > 0 && staged.lag() + frame.len() > HARD_CAP {
            if let Some(thread) = thread {
                thread.unpark();
                let waited = self.written.wait_timeout(staged, PERIOD);
                staged = waited.unwrap_or_else(PoisonError::into_inner).0;
            } else {
                drop(staged);
                self.drain();
                staged = lock(&self.staged);
            }
        }
        // Room for a drain's worth at the first append, so a warm append
        // allocates nothing; the buffer doubles at most twice more, to the
        // cap.
        if staged.bytes.capacity() == 0 {
            staged.bytes.reserve(WAKE_AT);
        }
        let before = staged.lag();
        staged.bytes.extend_from_slice(frame);
        if before < WAKE_AT && staged.lag() >= WAKE_AT {
            if let Some(thread) = thread {
                thread.unpark();
            }
        }
    }

    /// Stage a checkpoint. It supersedes the frames still staged and any
    /// rotation not yet taken, which are dropped.
    pub(super) fn stage_rotation(&self, rotation: Rotation, persister: Option<&Arc<Persister>>) {
        if let Some(persister) = persister {
            persister.start();
        }
        let mut staged = lock(&self.staged);
        staged.bytes.clear();
        let superseded = staged.rotation.replace(rotation);
        drop(staged);
        drop(superseded);
    }

    /// The barrier: write everything staged, on the caller's thread.
    pub(super) fn drain(&self) {
        self.with_drained(&mut Vec::new(), |_| ());
    }

    /// The drain routine, then `read` over the directory, with nothing
    /// written in between. What is staged is copied into `buf` under the
    /// staging lock and written under the writer lock alone, which also
    /// keeps two drains in order.
    pub(super) fn with_drained<R>(&self, buf: &mut Vec<u8>, read: impl FnOnce(&mut Dir) -> R) -> R {
        let mut dir = lock(&self.dir);
        let rotation = {
            let mut staged = lock(&self.staged);
            buf.clear();
            buf.extend_from_slice(&staged.bytes);
            staged.in_flight = staged.bytes.len();
            staged.bytes.clear();
            staged.rotation.take()
        };
        if rotation.is_some() || !buf.is_empty() {
            dir.persist(rotation, buf);
            lock(&self.staged).in_flight = 0;
            self.written.notify_all();
        }
        read(&mut dir)
    }

    /// Frame bytes handed over and not yet written.
    fn lag(&self) -> usize {
        lock(&self.staged).lag()
    }

    /// The IO error that stopped this shard's writes, if one did.
    fn error(&self) -> Option<io::Error> {
        let dir = lock(&self.dir);
        dir.error().map(|e| io::Error::new(e.kind(), e.to_string()))
    }
}

/// The thread that writes a server's file shards: every [`PERIOD`], or
/// when an append unparks it, it drains each shard's outbox in shard order.
/// It is spawned at the first hand-over, or earlier by
/// `StoreServer::start_persister`, so a server that never journals never
/// starts it; it is stopped, after a final drain, when the server is
/// dropped.
#[derive(Default)]
pub(crate) struct Persister {
    outboxes: Mutex<Vec<Arc<Outbox>>>,
    thread: OnceLock<Option<Thread>>,
    handle: Mutex<Option<JoinHandle<()>>>,
    stop: AtomicBool,
}

impl Persister {
    pub(crate) fn new() -> Arc<Persister> {
        Arc::default()
    }

    /// Drain `outbox` from here on, after those adopted before it.
    pub(super) fn adopt(&self, outbox: Arc<Outbox>) {
        lock(&self.outboxes).push(outbox);
    }

    /// The persister thread, spawned at the first call. `None` if it could
    /// not be spawned: the shards then write at their barriers and when
    /// full.
    pub(crate) fn start(self: &Arc<Self>) -> Option<&Thread> {
        let spawn = || {
            let persister = Arc::clone(self);
            // The one buffer every drain of the thread copies into.
            let buf = Vec::with_capacity(WAKE_AT);
            let handle = thread::Builder::new()
                .name(PERSISTER_THREAD.into())
                .spawn(move || persister.run(buf))
                .ok()?;
            let thread = handle.thread().clone();
            *lock(&self.handle) = Some(handle);
            Some(thread)
        };
        self.thread.get_or_init(spawn).as_ref()
    }

    fn run(&self, mut buf: Vec<u8>) {
        loop {
            let stopping = self.stop.load(Ordering::Acquire);
            let shards = lock(&self.outboxes).len();
            for shard in 0..shards {
                let outbox = Arc::clone(&lock(&self.outboxes)[shard]);
                outbox.with_drained(&mut buf, |_| ());
            }
            if stopping {
                return;
            }
            thread::park_timeout(PERIOD);
        }
    }

    /// Stop the thread after a final drain of every shard, and join it.
    pub(crate) fn stop(&self) {
        self.stop.store(true, Ordering::Release);
        let handle = lock(&self.handle).take();
        if let Some(handle) = handle {
            handle.thread().unpark();
            let _ = handle.join();
        }
    }

    /// The barrier for every shard, on the caller's thread.
    pub(crate) fn drain_all(&self) {
        let outboxes = lock(&self.outboxes).clone();
        outboxes.iter().for_each(|outbox| outbox.drain());
    }

    /// The most frame bytes any one shard has handed over and not yet
    /// written.
    pub(crate) fn lag_bytes(&self) -> u64 {
        let outboxes = lock(&self.outboxes);
        outboxes.iter().map(|o| o.lag()).max().unwrap_or(0) as u64
    }

    /// The IO error that stopped `shard`'s writes, if one did.
    pub(crate) fn error(&self, shard: usize) -> Option<io::Error> {
        let outbox = Arc::clone(lock(&self.outboxes).get(shard)?);
        outbox.error()
    }

    /// Drains that did IO, summed over shards: `(on this persister's
    /// thread, on any other)`.
    #[cfg(test)]
    pub(crate) fn io_threads(&self) -> (usize, usize) {
        lock(&self.outboxes).iter().fold((0, 0), |(on, off), o| {
            let (o_on, o_off) = lock(&o.dir).io_threads;
            (on + o_on, off + o_off)
        })
    }

    /// Nothing is staged, pending or being written on any shard.
    #[cfg(test)]
    pub(crate) fn idle(&self) -> bool {
        lock(&self.outboxes).iter().all(|o| {
            let staged = lock(&o.staged);
            staged.lag() == 0 && staged.rotation.is_none()
        })
    }
}
