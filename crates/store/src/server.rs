//! A sharded, thread-safe datastore server.
//!
//! The paper's datastore is multi-threaded: "A thread can handle multiple
//! state objects; however, each state object is only handled by a single
//! thread to avoid locking overhead" (§4.3), and a single store instance
//! sustains ≈5.1 M ops/s on the microbenchmark of §7.1.
//!
//! [`StoreServer`] reproduces that structure: objects are sharded by the
//! stable hash of their canonical key, every shard is an independent
//! [`crate::StoreInstance`] behind its own lock, and because an object maps to
//! exactly one shard, operations on different objects proceed in parallel
//! with no shared locking. The real-thread Criterion benchmark
//! (`benches/store_ops.rs`) measures this type directly. Both substrates run
//! on it: the simulator on one shard in memory, the engine on several. An
//! object's owner lives on its shard, a non-deterministic value on the shard
//! its clock picks.
//!
//! Two fault-tolerance facilities back the real-thread failover protocols:
//!
//! * **Per-shard journaling** (§5.4): with journaling enabled, every applied
//!   operation (plus callback registrations, ownership changes and logged
//!   non-deterministic values) is appended to a
//!   shard-local write-ahead journal that models the durable log a
//!   production store keeps on disk. [`StoreServer::checkpoint_shard`]
//!   snapshots a shard and truncates its journal;
//!   [`StoreServer::crash_shard`] wipes the in-memory state (fail-stop);
//!   [`StoreServer::recover_shard`] rebuilds it from the latest
//!   checkpoint plus the journal suffix. [`StoreServer::restart_shard`] does
//!   crash + recovery under one lock hold so concurrent clients observe an
//!   outage as latency, never as state loss.
//!
//! * **Replay floor**: below it updates are neither looked up nor logged for
//!   duplicate suppression, and no non-deterministic value or increment mark
//!   is kept; each shard prunes its log under the lock hold it takes anyway.
//!   A fresh server starts with the floor at the top, `u64::MAX`: with no
//!   replay source no clock is ever re-issued, so it keeps no log at all. A
//!   replay source declares itself once, before the first op
//!   ([`StoreServer::track_replays`]), which lowers the floor to 0. There
//!   are two: the engine in fault mode (kills, shard restarts, the
//!   re-injection drill), whose root then raises the floor as it
//!   truncates the packet logs ([`StoreServer::forget_through`]), and the
//!   simulator's `ChainController` (failover, straggler clones).
//!
//! Each shard is a [`Shard`] (see [`crate::backend`]) over one append-only
//! [`Engine`], whose journal segments and checkpoint image are bytes in
//! memory by default and per-shard files on [`BackendKind::AppendOnly`]. It
//! compacts every 1,024 journaled records, making `restart_shard`
//! O(delta in ops-since-checkpoint). On files a shard only stages its bytes
//! under its lock; the server's one persister thread writes them, outside
//! every shard lock ([`StoreServer::persist_lag_bytes`] is how far behind it
//! is, [`StoreServer::persist_error`] what stopped it).

use crate::backend::codec::Named;
pub use crate::backend::ShardRecoveryStats;
use crate::backend::{
    BackendKind, Engine, JournalRecord, Persister, ScratchDir, Shard, DEFAULT_CHECKPOINT_INTERVAL,
};
use crate::error::StoreError;
use crate::key::{Clock, InstanceId, StateKey};
use crate::ops::Operation;
use crate::store::{ApplyResult, StoreInstance};
use crate::value::Value;
use parking_lot::{Mutex, MutexGuard, RwLock};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// An empty type the benchmark still names, kept until it stops
/// (ROADMAP 4(d)); the store holds nothing for it to carry.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct TsSnapshot;

/// One [`Shard`] of a [`StoreServer`] behind its own lock, plus an op
/// counter so load skew across shards is observable. The journal append
/// happens under the same lock hold as the apply, so the journal replays to
/// exactly the state the applies left.
struct Slot {
    shard: Mutex<Shard>,
    ops: AtomicU64,
}

/// Where one op of a batch goes: its shard and, inside a run, the op that
/// follows it in the run; once applied on a journaling shard, the entry it
/// went to. Eight bytes, as a batch routes up to [`StoreServer::ROUTED_ON_STACK`] ops
/// in a stack array it initializes whole.
#[derive(Clone, Copy, Default)]
struct Route {
    shard: u16,
    /// Index of the run's next op; 0 ends the run (no op follows one at
    /// index 0, so 0 is free). Runs form only in a batch routed on the
    /// stack, so the index fits.
    next: u8,
    /// The op is applied by the op before it in its run.
    follows: bool,
    /// The dense id of the op's entry, what its journal frame names it by.
    entry: u32,
}

/// How a journal frame names `key`'s entry `id`: by the id if replay will
/// have rebuilt it, below `named_below`; by the key otherwise.
fn named(key: &StateKey, id: u32, named_below: u32) -> Named<'_> {
    if id < named_below {
        Named::Id(id)
    } else {
        Named::Key(key)
    }
}

impl Route {
    fn next(&self) -> Option<usize> {
        (self.next != 0).then_some(usize::from(self.next))
    }
}

fn is_increment(op: &Operation) -> bool {
    matches!(op, Operation::Increment(_))
}

/// A sharded store server safe to share across threads (`Arc<StoreServer>`).
pub struct StoreServer {
    slots: Vec<Slot>,
    backend_kind: BackendKind,
    /// The replay floor: the lowest clock counter a packet log may still
    /// replay; everything below is dead to duplicate suppression. `u64::MAX`
    /// until [`StoreServer::track_replays`]. Shards pick it up lazily, under
    /// the lock hold they take anyway. `Relaxed` suffices: the value
    /// publishes no other data, a shard that reads a stale (lower) floor
    /// merely keeps a few log entries a little longer, and the declaration
    /// stores 0 while it holds every shard lock.
    replay_floor: AtomicU64,
    /// See [`StoreServer::register_ordered_writer`]; unread until `any_ordered`.
    ordered_writers: RwLock<Vec<InstanceId>>,
    any_ordered: AtomicBool,
    /// Writes the file shards' staged bytes (`None` in memory).
    persister: Option<Arc<Persister>>,
    /// Keeps the file medium's ephemeral scratch directory alive for the
    /// server's lifetime (removed when the server is dropped).
    _scratch: Option<ScratchDir>,
}

impl Drop for StoreServer {
    /// The persister's final drain and join come before the shards and the
    /// scratch directory go.
    fn drop(&mut self) {
        if let Some(persister) = &self.persister {
            persister.stop();
        }
    }
}

impl StoreServer {
    /// Create a server with `shards` independent shards (the paper's
    /// microbenchmark uses four store threads), on the medium named by the
    /// `CHC_STORE_BACKEND` environment variable (memory by default).
    pub fn new(shards: usize) -> Arc<StoreServer> {
        StoreServer::with_backend(shards, BackendKind::from_env())
    }

    /// Create a server on an explicitly chosen medium. Files give each
    /// shard its own subdirectory (`shard-<i>/`) of a scratch directory that
    /// is removed when the server is dropped, and the server one persister
    /// thread, started at the first byte a shard hands over.
    ///
    /// # Panics
    ///
    /// With more than 65,536 shards.
    pub fn with_backend(shards: usize, kind: BackendKind) -> Arc<StoreServer> {
        assert!(shards <= 1 << 16, "{shards} shards: at most 65,536");
        let scratch = (kind == BackendKind::AppendOnly).then(|| ScratchDir::new("store-server"));
        let persister = scratch.is_some().then(Persister::new);
        let engine = |i: usize| match (&scratch, &persister) {
            (Some(dir), Some(persister)) => Engine::open_persisted(
                dir.path().join(format!("shard-{i}")),
                DEFAULT_CHECKPOINT_INTERVAL,
                persister,
            ),
            _ => Engine::in_memory(None, Vec::new(), DEFAULT_CHECKPOINT_INTERVAL),
        };
        Arc::new(StoreServer {
            slots: (0..shards.max(1))
                .map(|i| Slot {
                    shard: Mutex::new(Shard::new(engine(i))),
                    ops: AtomicU64::new(0),
                })
                .collect(),
            backend_kind: kind,
            replay_floor: AtomicU64::new(u64::MAX),
            ordered_writers: RwLock::default(),
            any_ordered: AtomicBool::new(false),
            persister,
            _scratch: scratch,
        })
    }

    /// Which medium this server's shard engines keep their bytes on.
    pub fn backend_kind(&self) -> BackendKind {
        self.backend_kind
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.slots.len()
    }

    /// The shard an object is pinned to. Stable for the server's lifetime:
    /// "each state object is only handled by a single thread" (§4.3).
    /// Reads the hash the key carries; nothing is hashed here.
    pub fn shard_index(&self, key: &StateKey) -> usize {
        (key.shard_hash() % self.slots.len() as u64) as usize
    }

    /// Operations served by each shard since construction, in shard order.
    /// The spread shows how evenly `shard_hash` distributes the working set.
    pub fn ops_per_shard(&self) -> Vec<u64> {
        self.slots
            .iter()
            .map(|s| s.ops.load(Ordering::Relaxed))
            .collect()
    }

    fn slot_of(&self, key: &StateKey) -> &Slot {
        &self.slots[self.shard_index(key)]
    }

    /// Lock one shard and bring it up to the current replay floor, so every
    /// apply, checkpoint and recovery under this hold sees a log pruned at
    /// the floor.
    fn lock_at_floor<'a>(&self, slot: &'a Slot) -> MutexGuard<'a, Shard> {
        let mut shard = slot.shard.lock();
        let floor = self.replay_floor.load(Ordering::Relaxed);
        if floor > shard.instance().replay_floor() {
            shard.instance_mut().raise_floor(floor);
        }
        shard
    }

    /// Every shard, locked in turn.
    fn shards(&self) -> impl Iterator<Item = MutexGuard<'_, Shard>> {
        self.slots.iter().map(|s| s.shard.lock())
    }

    /// Every shard, locked in turn at the current replay floor.
    fn shards_at_floor(&self) -> impl Iterator<Item = MutexGuard<'_, Shard>> {
        self.slots.iter().map(|s| self.lock_at_floor(s))
    }

    /// Apply an operation on one shard, journaling it when the shard's
    /// journal is enabled and the operation mutated something — an emulated
    /// duplicate changes nothing, and replaying it after its original's log
    /// entry was pruned would apply it a second time. The journal append
    /// happens under the shard's lock so the journal order is exactly the
    /// execution order.
    fn apply_on_shard(
        &self,
        slot: &Slot,
        requester: InstanceId,
        key: &StateKey,
        op: &Operation,
        clock: Option<Clock>,
    ) -> Result<ApplyResult, StoreError> {
        slot.ops.fetch_add(1, Ordering::Relaxed);
        let mut shard = self.lock_at_floor(slot);
        let since = shard.ids();
        let (result, id) = shard
            .instance_mut()
            .apply_named(requester, key, op, clock, true, false);
        if matches!(&result, Ok(r) if !r.outcome.emulated) {
            shard.journal(since, |e, named_below| {
                e.apply_record(requester, named(key, id, named_below), op, clock);
                true
            });
        }
        result
    }

    /// Apply an operation (see [`crate::StoreInstance::apply`]).
    pub fn apply(
        &self,
        requester: InstanceId,
        key: &StateKey,
        op: &Operation,
        clock: Option<Clock>,
    ) -> Result<ApplyResult, StoreError> {
        self.apply_on_shard(self.slot_of(key), requester, key, op, clock)
    }

    /// The longest batch [`StoreServer::apply_batch`] routes on the stack,
    /// well above any write-behind cap; a longer batch allocates one routing
    /// buffer and forms no runs.
    pub const ROUTED_ON_STACK: usize = 256;

    /// Route each of `ops` to its shard and, up to
    /// [`StoreServer::ROUTED_ON_STACK`] ops, link its runs in the same pass.
    /// `latest` remembers, per slot picked by the top byte of the key's
    /// hash, the last op whose key landed there. An op is linked behind it
    /// if both are `Increment`s of the same key; any other op on that slot
    /// ends the run. So no op on a run's object sits between two of its
    /// ops, and two objects that share a slot merely form no run. A batch
    /// whose keys are all distinct pays a slot read, a compare and a slot
    /// write per op.
    fn route(&self, ops: &[(StateKey, Operation, Option<Clock>)], route: &mut [Route]) {
        let runs = ops.len() <= Self::ROUTED_ON_STACK;
        let mut latest = [0u8; 256];
        for (i, (key, op, _)) in ops.iter().enumerate() {
            route[i].shard = self.shard_index(key) as u16;
            if !runs {
                continue;
            }
            let slot = &mut latest[(key.shard_hash() >> 56) as usize];
            // An untouched slot reads 0, and op 0 only matches if it landed
            // there.
            let j = usize::from(*slot);
            if j < i && is_increment(op) && is_increment(&ops[j].1) && ops[j].0 == *key {
                route[j].next = i as u8;
                route[i].follows = true;
            }
            *slot = i as u8;
        }
    }

    /// Apply a slice of operations, taking each involved shard's lock **once
    /// per batch** instead of once per op.
    ///
    /// Each op's shard is worked out once, into a routing buffer; each shard
    /// then applies and journals exactly its own ops from it. Results come
    /// back in submission order. Within a shard, ops execute in submission
    /// order, except that a **run** — two or more `Increment`s of one key
    /// with no other op on its object between them, found by the same
    /// routing pass — is applied as one run (`StoreInstance::apply_run`) at
    /// the position of its first op. Only ops of other objects move
    /// across it, so every result, value and log entry is what sequential
    /// applies give. The shard's journal receives a single
    /// [`JournalRecord::ApplyBatch`] covering the batch's applied ops in
    /// submission order, encoded straight from `ops` — replayed
    /// element-wise, so crash/recover semantics are identical to the same
    /// ops applied sequentially. Ops on different shards may interleave with
    /// concurrent writers exactly as sequential applies would; the batch is
    /// an amortization, not a transaction; see [`StoreServer::register_ordered_writer`].
    pub fn apply_batch(
        &self,
        requester: InstanceId,
        ops: &[(StateKey, Operation, Option<Clock>)],
    ) -> Vec<Result<ApplyResult, StoreError>> {
        // At the top floor nothing is suppressed: no writer's marks matter.
        let ordered = self.replay_floor.load(Ordering::Relaxed) < u64::MAX
            && self.any_ordered.load(Ordering::Relaxed)
            && self.ordered_writers.read().contains(&requester);
        if let ([(key, op, clock)], false) = (ops, ordered) {
            return vec![self.apply(requester, key, op, *clock)];
        }
        // Up to `ROUTED_ON_STACK` ops the only allocation of a batch is its
        // result vector; every slot is overwritten below, since each op
        // belongs to one shard.
        let mut results: Vec<Result<ApplyResult, StoreError>> =
            ops.iter().map(|_| Err(StoreError::Unavailable)).collect();
        let mut on_stack = [Route::default(); Self::ROUTED_ON_STACK];
        let mut on_heap = Vec::new();
        let route = if ops.len() <= Self::ROUTED_ON_STACK {
            &mut on_stack[..ops.len()]
        } else {
            on_heap.resize(ops.len(), Route::default());
            &mut on_heap[..]
        };
        self.route(ops, route);
        // Each shard writes the entry ids of its applied ops back into the
        // routing buffer while its runs still read it.
        let route = Cell::from_mut(route).as_slice_of_cells();
        for (index, slot) in self.slots.iter().enumerate() {
            // This shard's ops with their submission indices, in order.
            let mine = || {
                route
                    .iter()
                    .zip(ops)
                    .enumerate()
                    .filter(move |(_, (at, _))| at.get().shard as usize == index)
                    .map(|(i, (_, op))| (i, op))
            };
            let count = mine().count();
            if count == 0 {
                continue;
            }
            slot.ops.fetch_add(count as u64, Ordering::Relaxed);
            let mut shard = self.lock_at_floor(slot);
            let (since, journaling) = (shard.ids(), shard.journaling());
            for (i, (key, _, _)) in mine().filter(|&(i, _)| !route[i].get().follows) {
                let run = std::iter::successors(Some(i), |&j| route[j].get().next()).map(|j| {
                    let (_, op, clock) = &ops[j];
                    (j, op, *clock)
                });
                let instance = shard.instance_mut();
                // Only a journal names entries: a healthy shard stores no id.
                if journaling {
                    instance.apply_run(requester, key, run, true, ordered, |j, entry, r| {
                        results[j] = r;
                        route[j].set(Route {
                            entry,
                            ..route[j].get()
                        });
                    });
                } else {
                    instance.apply_run(requester, key, run, true, ordered, |j, _, r| {
                        results[j] = r;
                    });
                }
            }
            // Journal append under the shard lock hold, like
            // `apply_on_shard`: the record lists the applied ops in
            // submission order, which replays to what they left in the order
            // they ran, and emulated duplicates stay out of it. The record is
            // encoded from the submitted ops, nothing cloned, naming by id
            // each entry replay holds before the frame; a batch whose every
            // op was emulated appends nothing.
            shard.journal(since, |e, named_below| {
                let applied = |i: usize| matches!(&results[i], Ok(r) if !r.outcome.emulated);
                e.open_batch(requester, ordered);
                let mut applied_ops = 0;
                for (i, (key, op, clock)) in mine().filter(|&(i, _)| applied(i)) {
                    e.batch_op(named(key, route[i].get().entry, named_below), op, *clock);
                    applied_ops += 1;
                }
                e.close_batch(applied_ops);
                applied_ops > 0
            });
        }
        results
    }

    /// Read a value without metadata effects.
    pub fn peek(&self, key: &StateKey) -> Value {
        self.slot_of(key).shard.lock().instance().peek(key)
    }

    /// Register a change callback for `instance` on `key`.
    pub fn register_callback(&self, key: &StateKey, instance: InstanceId) {
        let mut shard = self.slot_of(key).shard.lock();
        shard.instance_mut().register_callback(key, instance);
        shard.append(&JournalRecord::Callback {
            key: key.clone(),
            instance,
        });
    }

    /// Re-associate every per-flow object owned by `from` with `to` (NF
    /// instance failover, §5.4: the replacement instance takes over the
    /// failed instance's externalized per-flow state). An ordered `from`
    /// hands `to` its increment marks and its registration.
    pub fn reassign_owner(&self, from: InstanceId, to: InstanceId) -> usize {
        if self.ordered_writers.read().contains(&from) {
            self.register_ordered_writer(to);
        }
        let mut moved = 0;
        for mut shard in self.shards() {
            moved += shard.instance_mut().reassign_owner(from, to);
            shard.append(&JournalRecord::Reassign { from, to });
        }
        moved
    }

    /// Register `writer` as issuing each entry's increments in clock order:
    /// its batched increments are then suppressed by its marks, so may fold.
    /// Always true (the answer `StateHandle::register_ordered_writer` wants).
    /// `Relaxed` suffices for `any_ordered`: a writer registers on its own
    /// thread before its first batch, or before its thread is spawned.
    pub fn register_ordered_writer(&self, writer: InstanceId) -> bool {
        self.ordered_writers.write().push(writer);
        self.any_ordered.store(true, Ordering::Relaxed);
        true
    }

    /// Current owner of a per-flow object, if any.
    pub fn owner_of(&self, key: &StateKey) -> Option<InstanceId> {
        self.slot_of(key).shard.lock().instance().owner_of(key)
    }

    /// Associate `who` with the object (step 7 of the Figure 4 handover).
    /// Fails while another instance still owns it.
    pub fn acquire_ownership(&self, key: &StateKey, who: InstanceId) -> Result<(), StoreError> {
        self.change_owner(key, |s| s.acquire_ownership(key, who))
    }

    /// Disassociate `who` from the object (step 5 of the handover).
    pub fn release_ownership(&self, key: &StateKey, who: InstanceId) -> Result<(), StoreError> {
        self.change_owner(key, |s| s.release_ownership(key, who))
    }

    /// Run an ownership call on the object's shard, journaling the owner it
    /// leaves if that moved.
    fn change_owner(
        &self,
        key: &StateKey,
        call: impl FnOnce(&mut StoreInstance) -> Result<(), StoreError>,
    ) -> Result<(), StoreError> {
        let mut shard = self.slot_of(key).shard.lock();
        let (since, before) = (shard.ids(), shard.instance().owner_of(key));
        call(shard.instance_mut())?;
        let owner = shard.instance().owner_of(key);
        if owner != before {
            // The acquire may have created the entry: journaled by key.
            let record = JournalRecord::Owner {
                key: key.clone(),
                owner,
            };
            shard.journal(since, |e, _| {
                record.encode(e);
                true
            });
        }
        Ok(())
    }

    /// The non-deterministic value of `(clock, slot)` (Appendix A):
    /// `candidate` on first request, the logged value ever after. It is
    /// logged, and journaled, on the shard the clock picks, so a packet
    /// replayed after a restart observes it again.
    pub fn nondet(&self, clock: Clock, slot: u32, candidate: Value) -> Value {
        let at = &self.slots[(clock.0 % self.slots.len() as u64) as usize];
        let mut shard = self.lock_at_floor(at);
        let value = shard.instance_mut().nondet_value(clock, slot, candidate);
        shard.append(&JournalRecord::Nondet {
            clock,
            slot,
            value: value.clone(),
        });
        value
    }

    /// True while some shard is crashed and not yet recovered: it answers
    /// nothing.
    pub fn is_failed(&self) -> bool {
        self.shards().any(|s| s.instance().is_failed())
    }

    /// Forget everything logged for `clock` on every shard — its updates
    /// and its non-deterministic values: the root deleted the packet.
    pub fn forget_clock(&self, clock: Clock) {
        self.shards()
            .for_each(|mut s| s.instance_mut().forget_clock(clock));
    }

    /// Total operations served since construction.
    pub fn total_ops(&self) -> u64 {
        self.ops_per_shard().iter().sum()
    }

    /// Total number of objects across all shards.
    pub fn len(&self) -> usize {
        self.shards().map(|s| s.instance().len()).sum()
    }

    /// True if no shard holds any object.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes of live state across all shards.
    pub fn state_bytes(&self) -> usize {
        self.shards().map(|s| s.instance().state_bytes()).sum()
    }

    /// Durable segment files currently held across all shards (0 in
    /// memory). Telemetry gauge.
    pub fn durable_segments(&self) -> usize {
        self.shards().map(|s| s.engine().segment_count()).sum()
    }

    /// Bytes of durable state (segments + checkpoint images) across all
    /// shards (0 in memory), counting what is staged for the files with
    /// what is written: once written, what they hold. Telemetry gauge.
    pub fn durable_bytes(&self) -> u64 {
        self.shards().map(|s| s.engine().durable_bytes()).sum()
    }

    /// The most journal bytes any one shard has handed to its files and the
    /// persister has not yet written (0 in memory): what a process death
    /// would lose. Bounded by the staging cap (64 KiB per shard), past which
    /// an append waits. Telemetry gauge; it takes no shard lock.
    pub fn persist_lag_bytes(&self) -> u64 {
        self.persister.as_ref().map_or(0, |p| p.lag_bytes())
    }

    /// The IO error that stopped the persister writing `shard`'s files, if
    /// one did (never in memory). The shard keeps serving from memory; from
    /// then on what it hands over is dropped, not written.
    pub fn persist_error(&self, shard: usize) -> Option<std::io::Error> {
        self.persister.as_ref()?.error(shard)
    }

    /// Start the persister thread now rather than at the first byte a
    /// shard hands over (a no-op in memory or once started). A caller about
    /// to start the threads that journal calls this first, so the spawn
    /// does not run under a shard lock on their path.
    pub fn start_persister(&self) {
        if let Some(persister) = &self.persister {
            persister.start();
        }
    }

    /// The barrier: write every shard's staged bytes now, on the caller's
    /// thread (a no-op in memory).
    pub fn persist(&self) {
        if let Some(persister) = &self.persister {
            persister.drain_all();
        }
    }

    // ------------------------------------------------------------------
    // Shard fault tolerance: journaling, crash, recovery (§5.4)
    // ------------------------------------------------------------------

    /// Enable or disable the write-ahead journal of one shard. Disabling
    /// clears the durable side (journaling is an opt-in cost; the healthy
    /// hot path stays journal-free).
    pub fn set_shard_journaling(&self, shard: usize, enabled: bool) {
        self.slots[shard].shard.lock().set_journaling(enabled);
    }

    /// Number of journal records currently pending replay for `shard`.
    pub fn shard_journal_len(&self, shard: usize) -> usize {
        self.slots[shard].shard.lock().engine().journal_len()
    }

    /// Snapshot one shard into its durable checkpoint and truncate the
    /// journal: records preceding a checkpoint are no longer needed for
    /// recovery. The snapshot is the full shard image, so truncation loses
    /// nothing — not the callback registrations and not the
    /// duplicate-suppression log. On files this also compacts the on-disk
    /// segments. Returns the number of objects captured. A crashed shard
    /// holds nothing of its history, so checkpointing it captures nothing
    /// and leaves its image and journal as they are, for recovery.
    pub fn checkpoint_shard(&self, shard: usize) -> usize {
        self.lock_at_floor(&self.slots[shard]).checkpoint()
    }

    /// Fail-stop one shard: its in-memory state is wiped, and it answers
    /// nothing until recovered. The durable side (checkpoint + journal)
    /// survives, as a disk-backed log would.
    pub fn crash_shard(&self, shard: usize) {
        self.slots[shard].shard.lock().crash();
    }

    /// Rebuild one (crashed) shard from its latest checkpoint plus the
    /// journal suffix. Re-applying journal records with their original
    /// duplicate-suppression clocks reconstructs both the values and the
    /// metadata exactly as they stood before the crash.
    pub fn recover_shard(&self, shard: usize) -> ShardRecoveryStats {
        self.recover_locked(&mut self.slots[shard].shard.lock())
    }

    /// Recover under the caller's lock hold. The rebuilt instance starts at
    /// floor zero (journal replay logs the whole suffix again); raising it
    /// to the server's floor before the lock is released prunes that again.
    fn recover_locked(&self, shard: &mut Shard) -> ShardRecoveryStats {
        let stats = shard.recover();
        shard.instance_mut().raise_floor(self.replay_floor());
        stats
    }

    /// Crash and recover one shard under a single lock hold: concurrent
    /// clients observe the outage as latency on that shard, never as lost or
    /// phantom state. This is the restart the real-thread fault injector
    /// drives ([`ShardRecoveryStats`] feeds the recovery-time experiment).
    pub fn restart_shard(&self, shard: usize) -> ShardRecoveryStats {
        let mut shard = self.slots[shard].shard.lock();
        shard.crash();
        self.recover_locked(&mut shard)
    }

    // ------------------------------------------------------------------
    // The replay floor (bounding the duplicate-suppression log)
    // ------------------------------------------------------------------

    /// Declare a replay source: some packet log may re-issue a clock this
    /// server already saw, so from here on it logs clocked updates,
    /// non-deterministic values and increment marks for duplicate
    /// suppression. Lowers the replay floor from the top, where a fresh
    /// server keeps it, to 0. Call it once, before the first op: it returns
    /// `false`, and changes nothing, once any shard has been brought to a
    /// floor above 0 (an op applied, a value logged, an image or a log
    /// length read), since what that shard forgot cannot come back. A
    /// repeated declaration changes nothing.
    pub fn track_replays(&self) -> bool {
        let shards: Vec<_> = self.shards().collect();
        if shards.iter().any(|s| s.instance().replay_floor() > 0) {
            return false;
        }
        // Under every shard lock: no shard can take the top floor between
        // the check and the store. A floor already below the top stays.
        let _ =
            self.replay_floor
                .compare_exchange(u64::MAX, 0, Ordering::Relaxed, Ordering::Relaxed);
        true
    }

    /// Declare that no packet log can replay a clock whose counter is at or
    /// below `counter` any more. From here on such clocks are neither looked
    /// up nor logged, and every shard drops what it holds for them the next
    /// time its lock is taken. Monotonic: a lower value is ignored, and
    /// without [`StoreServer::track_replays`] the floor is already at the
    /// top.
    pub fn forget_through(&self, counter: u64) {
        self.replay_floor
            .fetch_max(counter.saturating_add(1), Ordering::Relaxed);
    }

    /// The replay floor: the lowest clock counter a packet log may still
    /// replay: `u64::MAX` on a server with no replay source, else one above
    /// the last [`StoreServer::forget_through`], 0 while nothing has been
    /// forgotten.
    pub fn replay_floor(&self) -> u64 {
        self.replay_floor.load(Ordering::Relaxed)
    }

    /// Clock-tagged updates currently retained for duplicate suppression,
    /// across all shards, each pruned at the current floor first. O(shards).
    pub fn update_log_len(&self) -> usize {
        self.shards_at_floor()
            .map(|s| s.instance().update_log_len())
            .sum()
    }

    /// Clock counters the duplicate-suppression log spans, summed over
    /// shards, each pruned at the current floor first: what
    /// its heads cost in memory, 8 bytes per counter, where
    /// [`StoreServer::update_log_len`] counts the updates it holds.
    /// O(shards).
    pub fn update_log_span(&self) -> u64 {
        self.shards_at_floor()
            .map(|s| s.instance().update_log_span())
            .sum()
    }

    /// The widest span of any one shard's log, pruned at the current floor:
    /// what the sentinel bounds by the packets from the floor up.
    pub fn update_log_widest_span(&self) -> u64 {
        self.shards_at_floor()
            .map(|s| s.instance().update_log_span())
            .max()
            .unwrap_or(0)
    }

    /// Summed over shards, the most updates a single packet has ever held
    /// in a shard's log: what one packet above the floor can cost.
    pub fn update_log_widest_packet(&self) -> usize {
        self.shards()
            .map(|s| s.instance().update_log_widest_packet())
            .sum()
    }

    /// Every stored object across all shards as `(canonical key, value,
    /// owner)`. Order is unspecified; callers sort as needed. Used for final
    /// state digests in the substrate-equivalence tests.
    pub fn dump(&self) -> Vec<(StateKey, Value, Option<InstanceId>)> {
        self.shards().flat_map(|s| s.instance().entries()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{ObjectKey, VertexId};
    use chc_packet::ScopeKey;
    use std::net::Ipv4Addr;
    use std::thread;
    use std::time::{Duration, Instant};

    fn key(name: &str, host: u8) -> StateKey {
        StateKey::shared(
            VertexId(0),
            ObjectKey::scoped(name, ScopeKey::Host(Ipv4Addr::new(10, 0, 0, host))),
        )
    }

    #[test]
    fn sharding_is_stable_and_complete() {
        let server = StoreServer::new(4);
        assert_eq!(server.shard_count(), 4);
        for h in 0..32u8 {
            server
                .apply(InstanceId(0), &key("c", h), &Operation::Increment(1), None)
                .unwrap();
        }
        assert_eq!(server.len(), 32);
        assert_eq!(server.total_ops(), 32);
        for h in 0..32u8 {
            assert_eq!(server.peek(&key("c", h)), Value::Int(1));
        }
    }

    #[test]
    fn concurrent_increments_from_many_threads_are_serialized() {
        let server = StoreServer::new(4);
        let threads = 8;
        let per_thread = 1_000;
        let mut handles = Vec::new();
        for t in 0..threads {
            let server = Arc::clone(&server);
            handles.push(thread::spawn(move || {
                let k = key("shared_counter", 1);
                for _ in 0..per_thread {
                    server
                        .apply(InstanceId(t), &k, &Operation::Increment(1), None)
                        .unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(
            server.peek(&key("shared_counter", 1)),
            Value::Int((threads as i64) * per_thread)
        );
    }

    #[test]
    fn concurrent_pop_hands_out_each_port_once() {
        // The NAT's free-port pool: concurrent pops must never hand the same
        // port to two instances (the store serializes pops).
        let server = StoreServer::new(2);
        let pool = StateKey::shared(VertexId(1), ObjectKey::named("free_ports"));
        for port in 0..2_000i64 {
            server
                .apply(
                    InstanceId(0),
                    &pool,
                    &Operation::PushBack(Value::Int(port)),
                    None,
                )
                .unwrap();
        }
        let mut handles = Vec::new();
        for t in 0..4u32 {
            let server = Arc::clone(&server);
            let pool = pool.clone();
            handles.push(thread::spawn(move || {
                let mut got = Vec::new();
                for _ in 0..500 {
                    let r = server
                        .apply(InstanceId(t), &pool, &Operation::PopFront, None)
                        .unwrap();
                    got.push(r.outcome.returned.as_int());
                }
                got
            }));
        }
        let mut all: Vec<i64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 2_000, "every port handed out exactly once");
    }

    #[test]
    fn clocked_duplicates_suppressed_through_server() {
        let server = StoreServer::new(2);
        server.track_replays();
        let k = key("pkt_count", 9);
        let clock = Clock::with_root(0, 7);
        let a = server
            .apply(InstanceId(0), &k, &Operation::Increment(1), Some(clock))
            .unwrap();
        let b = server
            .apply(InstanceId(0), &k, &Operation::Increment(1), Some(clock))
            .unwrap();
        assert!(!a.outcome.emulated && b.outcome.emulated);
        assert_eq!(server.peek(&k), Value::Int(1));
    }

    #[test]
    fn apply_batch_matches_sequential_apply_and_survives_restart() {
        let seq = StoreServer::new(4);
        let bat = StoreServer::new(4);
        for s in 0..4 {
            seq.set_shard_journaling(s, true);
            bat.set_shard_journaling(s, true);
        }
        seq.track_replays();
        bat.track_replays();
        // A mixed batch spanning shards, with a clocked duplicate inside it.
        let ops: Vec<(StateKey, Operation, Option<Clock>)> = (0..24u8)
            .map(|h| {
                (
                    key("c", h % 6),
                    Operation::Increment(i64::from(h)),
                    Some(Clock::with_root(0, u64::from(h % 20) + 1)),
                )
            })
            .collect();
        let seq_results: Vec<_> = ops
            .iter()
            .map(|(k, op, clock)| seq.apply(InstanceId(1), k, op, *clock))
            .collect();
        let bat_results = bat.apply_batch(InstanceId(1), &ops);
        assert_eq!(bat_results.len(), seq_results.len());
        for (s, b) in seq_results.iter().zip(&bat_results) {
            let (s, b) = (s.as_ref().unwrap(), b.as_ref().unwrap());
            assert_eq!(s.outcome.returned, b.outcome.returned);
            assert_eq!(s.outcome.emulated, b.outcome.emulated);
            assert_eq!(s.new_value, b.new_value);
        }
        let sorted_dump = |s: &StoreServer| {
            let mut d = s.dump();
            d.sort_by_key(|(k, _, _)| k.to_string());
            d
        };
        assert_eq!(sorted_dump(&seq), sorted_dump(&bat));
        assert_eq!(seq.total_ops(), bat.total_ops());
        // Crash + recover every shard: the batched journal record replays
        // element-wise to the same state.
        let before = sorted_dump(&bat);
        for s in 0..4 {
            bat.crash_shard(s);
            bat.recover_shard(s);
        }
        assert_eq!(sorted_dump(&bat), before);
    }

    /// One encoder, one record: over random batches with clocked duplicates
    /// in them, the frame each shard journals is exactly its applied,
    /// non-emulated ops in submission order — as it decodes and as its
    /// engine decodes it back, the equivalent [`JournalRecord::ApplyBatch`],
    /// in no more bytes than that record's key-named frame — and a batch of
    /// nothing but duplicates journals nothing. On both media.
    #[test]
    fn a_batch_journals_its_applied_ops_through_the_one_encoder() {
        use crate::backend::codec::{decode_record, FRAME_HEADER};
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const SHARDS: usize = 3;
        let requester = InstanceId(1);
        for kind in [BackendKind::Memory, BackendKind::AppendOnly] {
            let mut rng = StdRng::seed_from_u64(31);
            let server = StoreServer::with_backend(SHARDS, kind);
            server.track_replays();
            for s in 0..SHARDS {
                server.set_shard_journaling(s, true);
            }
            let journal_lens = |server: &StoreServer| -> Vec<usize> {
                (0..SHARDS).map(|s| server.shard_journal_len(s)).collect()
            };
            for _ in 0..40 {
                let batch: Vec<(StateKey, Operation, Option<Clock>)> = (0..rng.gen_range(2..24))
                    .map(|_| {
                        // Clocks from two runs of counters, 1..24 and 101..124.
                        let clock = rng
                            .gen_bool(0.85)
                            .then(|| Clock(rng.gen_range(0..2u64) * 100 + rng.gen_range(1..24u64)));
                        let op = Operation::Increment(rng.gen_range(1..3));
                        (key("b", rng.gen_range(0..8)), op, clock)
                    })
                    .collect();
                let before = journal_lens(&server);
                let results = server.apply_batch(requester, &batch);
                for (s, before) in before.into_iter().enumerate() {
                    let applied: Vec<_> = batch
                        .iter()
                        .zip(&results)
                        .filter(|((k, _, _), r)| {
                            server.shard_index(k) == s && !r.as_ref().unwrap().outcome.emulated
                        })
                        .map(|(op, _)| op.clone())
                        .collect();
                    let grew = server.shard_journal_len(s) - before;
                    assert_eq!(grew, usize::from(!applied.is_empty()), "{kind:?}");
                    if applied.is_empty() {
                        continue;
                    }
                    let record = JournalRecord::ApplyBatch {
                        requester,
                        ordered: false,
                        ops: applied,
                    };
                    // Every entry the frame names by id existed before it,
                    // so the live instance's ids resolve it as replay would.
                    let shard = server.slots[s].shard.lock();
                    let mut names = shard.instance().keys_by_id();
                    let frame = &shard.last_frame()[FRAME_HEADER..];
                    assert_eq!(decode_record(frame, &names), Ok(record.clone()));
                    assert!(shard.last_frame().len() <= record.to_frame().len());
                    let mut last = None;
                    let read = shard
                        .engine()
                        .for_each_record(&mut names, &mut |r, _| last = Some(r.clone()));
                    assert!(read.is_ok(), "{kind:?}");
                    assert_eq!(last, Some(record), "{kind:?}");
                }
                // The clocked part again: every op a duplicate, no record.
                let again: Vec<_> = batch.into_iter().filter(|(_, _, c)| c.is_some()).collect();
                let before = journal_lens(&server);
                let results = server.apply_batch(requester, &again);
                assert!(results.iter().all(|r| r.as_ref().unwrap().outcome.emulated));
                assert_eq!(journal_lens(&server), before, "{kind:?}");
            }
        }
    }

    /// Shard by shard, batches full of runs leave each `StoreInstance` as
    /// sequential applies do: the same answers when every op is re-issued.
    /// Where every packet touches its keys in one order and no batch splits
    /// a packet, the checkpoint images are equal byte for byte; otherwise
    /// they may differ in the order of a packet's updates only, which no
    /// answer observes.
    #[test]
    fn runs_leave_every_shard_instance_as_sequential_applies_do() {
        use crate::backend::codec::encode_image_frame;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        const SHARDS: usize = 2;
        let requester = InstanceId(1);
        for seed in 0..64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let one_order = seed % 2 == 0;
            let hot: Vec<StateKey> = (0..rng.gen_range(1..=4u8)).map(|h| key("hot", h)).collect();
            let mut packets: Vec<Vec<(StateKey, Operation, Option<Clock>)>> = Vec::new();
            for counter in 1..=64u64 {
                // Redelivered packets: an earlier one again, clock and all.
                if counter > 1 && rng.gen_bool(0.2) {
                    let earlier = rng.gen_range(packets.len().saturating_sub(12)..packets.len());
                    packets.push(packets[earlier].clone());
                }
                let clock = (!rng.gen_bool(0.1)).then(|| Clock::with_root(0, counter));
                let mut keys = hot.clone();
                if !one_order {
                    let by = rng.gen_range(0..keys.len());
                    keys.rotate_left(by);
                    if rng.gen_bool(0.5) {
                        keys.reverse();
                    }
                    let touched = rng.gen_range(1..=keys.len());
                    keys.truncate(touched);
                }
                let ops = keys
                    .into_iter()
                    .map(|k| (k, Operation::Increment(rng.gen_range(1..3)), clock));
                packets.push(ops.collect());
            }
            let ops: Vec<_> = packets.iter().flatten().cloned().collect();
            // Drains of 32 ops, cut between packets when the images are
            // compared and anywhere otherwise.
            let mut batches: Vec<Vec<_>> = Vec::new();
            if one_order {
                for packet in packets {
                    match batches.last_mut() {
                        Some(batch) if batch.len() + packet.len() <= 32 => batch.extend(packet),
                        _ => batches.push(packet),
                    }
                }
            } else {
                batches = ops.chunks(32).map(<[_]>::to_vec).collect();
            }
            let (seq, bat) = (StoreServer::new(SHARDS), StoreServer::new(SHARDS));
            seq.track_replays();
            bat.track_replays();
            let images = |server: &StoreServer| -> Vec<Vec<u8>> {
                server
                    .slots
                    .iter()
                    .map(|slot| {
                        encode_image_frame(slot.shard.lock().instance(), &mut Vec::new()).to_vec()
                    })
                    .collect()
            };
            for round in ["first", "re-issued"] {
                let seq_results: Vec<_> = ops
                    .iter()
                    .map(|(k, op, clock)| seq.apply(requester, k, op, *clock))
                    .collect();
                let bat_results: Vec<_> = batches
                    .iter()
                    .flat_map(|batch| bat.apply_batch(requester, batch))
                    .collect();
                assert_eq!(seq_results, bat_results, "seed {seed}, {round}");
                if one_order {
                    for (s, (seq, bat)) in images(&seq).iter().zip(images(&bat)).enumerate() {
                        assert!(*seq == bat, "seed {seed}, {round}: image of shard {s}");
                    }
                }
            }
        }
    }

    /// Wait, up to ten seconds, for the persister to have written
    /// everything staged.
    fn until_persisted(server: &StoreServer) {
        let persister = server.persister.as_ref().expect("a file server");
        let deadline = Instant::now() + Duration::from_secs(10);
        while !persister.idle() {
            assert!(Instant::now() < deadline, "the persister stalled");
            thread::sleep(Duration::from_millis(1));
        }
    }

    /// `threads` writers, each issuing `batches` journaled batches of `len`
    /// increments with clocks of its own.
    fn journaled_storm(server: &Arc<StoreServer>, threads: u32, batches: u64, len: u8) {
        let writers: Vec<_> = (0..threads)
            .map(|t| {
                let server = Arc::clone(server);
                thread::spawn(move || {
                    for b in 0..batches {
                        let ops: Vec<_> = (0..len)
                            .map(|h| {
                                let counter = b * u64::from(len) + u64::from(h) + 1;
                                let first = u64::from(t) * batches * u64::from(len);
                                let clock = Some(Clock(first + counter));
                                (key("storm", h), Operation::Increment(1), clock)
                            })
                            .collect();
                        let results = server.apply_batch(InstanceId(t), &ops);
                        assert!(results.iter().all(Result::is_ok));
                    }
                })
            })
            .collect();
        writers.into_iter().for_each(|w| w.join().unwrap());
    }

    /// Journaled batches with auto-checkpoints and no restart, on files:
    /// every write, rename and delete ran on the persister thread, and none
    /// on the threads that applied the batches.
    #[test]
    fn every_file_write_runs_on_the_persister_thread() {
        let server = StoreServer::with_backend(2, BackendKind::AppendOnly);
        (0..2).for_each(|s| server.set_shard_journaling(s, true));
        journaled_storm(&server, 2, 1_500, 8);
        until_persisted(&server);
        let (on, elsewhere) = server.persister.as_ref().unwrap().io_threads();
        assert!(on > 0, "the persister wrote nothing");
        assert_eq!(elsewhere, 0, "{elsewhere} drains did IO off the persister");
        // The batches crossed the compaction cadence: images were written,
        // and each shard is down to one segment past its image.
        let journaled: usize = (0..2).map(|s| server.shard_journal_len(s)).sum();
        assert!(journaled < 2 * 1_500, "no checkpoint ran");
        assert_eq!(server.durable_segments(), 2);
        assert!(server.persist_error(0).is_none() && server.persist_error(1).is_none());
    }

    /// Persist lag is bounded: a storm of journaled batches from two
    /// threads never shows a shard more than the staging cap behind, and a
    /// barrier brings every shard to zero.
    #[test]
    fn persist_lag_stays_under_the_cap_and_a_barrier_clears_it() {
        use crate::backend::HARD_CAP;
        let server = StoreServer::with_backend(2, BackendKind::AppendOnly);
        (0..2).for_each(|s| server.set_shard_journaling(s, true));
        let storm = {
            let server = Arc::clone(&server);
            thread::spawn(move || journaled_storm(&server, 2, 3_000, 32))
        };
        let mut widest = 0;
        while !storm.is_finished() {
            widest = widest.max(server.persist_lag_bytes());
            assert!(widest <= HARD_CAP as u64, "lag {widest} past the cap");
        }
        storm.join().unwrap();
        server.persist();
        assert_eq!(server.persist_lag_bytes(), 0);
        assert!(server.durable_bytes() > 0);
    }

    /// An IO error on the persister is a value: removing a shard's
    /// directory under a running persister makes its next checkpoint fail
    /// to write, the error is reported for that shard alone, and the shard
    /// keeps serving. Its lock is never poisoned, and what it stages from
    /// then on is dropped.
    #[test]
    fn a_persister_io_error_is_reported_not_a_panic() {
        let server = StoreServer::with_backend(2, BackendKind::AppendOnly);
        (0..2).for_each(|s| server.set_shard_journaling(s, true));
        let k = key("io", 1);
        let shard = server.shard_index(&k);
        let bump = |c: u64| {
            let clock = Some(Clock::with_root(0, c));
            server.apply(InstanceId(0), &k, &Operation::Increment(1), clock)
        };
        bump(1).unwrap();
        until_persisted(&server);
        let dir = server._scratch.as_ref().unwrap().path();
        std::fs::remove_dir_all(dir.join(format!("shard-{shard}"))).unwrap();
        server.checkpoint_shard(shard);
        let deadline = Instant::now() + Duration::from_secs(10);
        let error = loop {
            if let Some(error) = server.persist_error(shard) {
                break error;
            }
            assert!(Instant::now() < deadline, "no error reported");
            thread::sleep(Duration::from_millis(1));
        };
        assert_eq!(error.kind(), std::io::ErrorKind::NotFound, "{error}");
        assert!(error.to_string().contains("ckpt-"), "{error}");
        assert!(server.persist_error(1 - shard).is_none());
        // The shard still serves, and its lag drains to zero.
        for c in 2..=50 {
            bump(c).unwrap();
        }
        assert_eq!(server.peek(&k), Value::Int(50));
        until_persisted(&server);
        assert_eq!(server.persist_lag_bytes(), 0);
        assert!(server.shard_journal_len(shard) > 0);
    }

    #[test]
    fn dump_covers_all_shards() {
        let server = StoreServer::new(3);
        for h in 0..12u8 {
            server
                .apply(InstanceId(0), &key("d", h), &Operation::Increment(1), None)
                .unwrap();
        }
        let mut dump = server.dump();
        assert_eq!(dump.len(), 12);
        dump.sort_by_key(|(k, _, _)| k.to_string());
        assert!(dump.iter().all(|(_, v, _)| *v == Value::Int(1)));
    }

    #[test]
    fn journaled_shard_restart_reconstructs_state_exactly() {
        let server = StoreServer::new(2);
        server.track_replays();
        // Journal both shards so every key is covered regardless of hashing.
        for s in 0..2 {
            server.set_shard_journaling(s, true);
        }
        let k = key("counter", 3);
        // Register a change callback *before* the checkpoint: the durable
        // image must carry it, or cached readers go silently stale after a
        // restart.
        server.register_callback(&k, InstanceId(7));
        for c in 1..=10u64 {
            server
                .apply(
                    InstanceId(0),
                    &k,
                    &Operation::Increment(1),
                    Some(Clock::with_root(0, c)),
                )
                .unwrap();
        }
        let shard = server.shard_index(&k);
        // Checkpoint mid-stream, keep writing, then restart the shard.
        let captured = server.checkpoint_shard(shard);
        assert_eq!(captured, 1);
        assert_eq!(server.shard_journal_len(shard), 0, "journal truncated");
        for c in 11..=15u64 {
            server
                .apply(
                    InstanceId(1),
                    &k,
                    &Operation::Increment(1),
                    Some(Clock::with_root(0, c)),
                )
                .unwrap();
        }
        let before = server.peek(&k);
        let stats = server.restart_shard(shard);
        assert_eq!(stats.restored_from_checkpoint, 1);
        assert_eq!(stats.replayed_ops, 5);
        assert_eq!(server.peek(&k), before, "restart must be state-neutral");
        // Duplicate-suppression metadata was rebuilt too: re-sending an
        // already-applied clocked op is still emulated — for clocks applied
        // after the checkpoint (journal replay) *and* before it (full-image
        // checkpoint), so a replay spanning the checkpoint cannot
        // double-apply.
        for c in [15u64, 5] {
            let r = server
                .apply(
                    InstanceId(1),
                    &k,
                    &Operation::Increment(1),
                    Some(Clock::with_root(0, c)),
                )
                .unwrap();
            assert!(r.outcome.emulated, "clock {c} must survive the restart");
        }
        assert_eq!(server.peek(&k), before, "dedup re-checks stayed neutral");
        // The pre-checkpoint callback registration survived: a new update
        // still notifies the registered instance.
        let r = server
            .apply(
                InstanceId(0),
                &k,
                &Operation::Increment(1),
                Some(Clock::with_root(0, 99)),
            )
            .unwrap();
        assert!(
            r.notify.contains(&InstanceId(7)),
            "callback registration lost across the restart"
        );
    }

    #[test]
    fn crash_without_journal_loses_state_and_with_it_does_not() {
        let server = StoreServer::new(1);
        let k = key("x", 1);
        server
            .apply(InstanceId(0), &k, &Operation::Increment(7), None)
            .unwrap();
        server.crash_shard(0);
        assert_eq!(server.peek(&k), Value::None, "fail-stop wipes memory");
        // A crashed shard answers nothing until it is recovered.
        assert!(server.is_failed());
        let refused = server.apply(InstanceId(0), &k, &Operation::Increment(7), None);
        assert_eq!(refused.unwrap_err(), StoreError::Unavailable);
        assert_eq!(server.recover_shard(0), ShardRecoveryStats::default());
        assert!(!server.is_failed());
        // With the journal on, the same crash recovers.
        server.set_shard_journaling(0, true);
        server
            .apply(InstanceId(0), &k, &Operation::Increment(7), None)
            .unwrap();
        server.crash_shard(0);
        let stats = server.recover_shard(0);
        assert_eq!(stats.replayed_ops, 1);
        assert_eq!(server.peek(&k), Value::Int(7));
    }

    #[test]
    fn a_fresh_server_keeps_no_replay_log() {
        // No replay source declared: the floor is at the top, so clocked
        // updates and non-deterministic values leave nothing behind, and
        // a re-issued clock is simply applied again.
        let server = StoreServer::new(4);
        for c in 1..=1_000u64 {
            let clock = Some(Clock::with_root(0, c));
            let k = key("n", (c % 16) as u8);
            let result = server.apply(InstanceId(0), &k, &Operation::Increment(1), clock);
            assert!(!result.unwrap().outcome.emulated);
            assert_eq!(
                server.nondet(Clock::with_root(0, c), 0, Value::Int(1)),
                Value::Int(1)
            );
            assert_eq!(
                server.nondet(Clock::with_root(0, c), 0, Value::Int(2)),
                Value::Int(2)
            );
        }
        assert_eq!(server.update_log_len(), 0);
        assert_eq!(server.update_log_span(), 0);
        assert_eq!(server.replay_floor(), u64::MAX);
    }

    #[test]
    fn a_late_replay_declaration_is_refused() {
        let clock = Some(Clock::with_root(0, 1));
        let (k, op) = (key("k", 1), Operation::Increment(1));
        // Before the first op: taken, and repeating it changes nothing.
        let early = StoreServer::new(2);
        assert!(early.track_replays());
        early.apply(InstanceId(0), &k, &op, clock).unwrap();
        assert!(early.track_replays());
        assert_eq!((early.replay_floor(), early.update_log_len()), (0, 1));
        // After it: refused, and the server stays at the top, where the op
        // it already applied left no record to suppress its repeat by.
        let late = StoreServer::new(2);
        late.apply(InstanceId(0), &k, &op, clock).unwrap();
        assert!(!late.track_replays());
        assert_eq!(late.replay_floor(), u64::MAX);
        let again = late.apply(InstanceId(0), &k, &op, clock).unwrap();
        assert!(!again.outcome.emulated);
        // Reading a log length brings every shard to the floor too.
        let read = StoreServer::new(2);
        assert_eq!(read.update_log_len(), 0);
        assert!(!read.track_replays());
    }

    #[test]
    fn reassign_owner_spans_shards() {
        let server = StoreServer::new(4);
        for h in 0..16u8 {
            let k = StateKey::per_flow(
                VertexId(0),
                InstanceId(2),
                ObjectKey::scoped("conn", ScopeKey::Host(Ipv4Addr::new(10, 0, 0, h))),
            );
            server
                .apply(InstanceId(2), &k, &Operation::Increment(1), None)
                .unwrap();
        }
        let moved = server.reassign_owner(InstanceId(2), InstanceId(9));
        assert_eq!(moved, 16);
        let owners: Vec<Option<InstanceId>> =
            server.dump().into_iter().map(|(_, _, o)| o).collect();
        assert!(owners.iter().all(|o| *o == Some(InstanceId(9))));
    }
}
