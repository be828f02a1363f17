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
//! (`benches/store_ops.rs`) measures this type directly.
//!
//! Two fault-tolerance facilities back the real-thread failover protocols:
//!
//! * **Per-shard journaling** (§5.4): with journaling enabled, every applied
//!   operation (plus callback registrations, custom-op registrations and
//!   ownership reassignments) is appended to a shard-local write-ahead
//!   journal that models the durable log a production store keeps on disk.
//!   [`StoreServer::checkpoint_shard`] snapshots a shard and truncates its
//!   journal; [`StoreServer::crash_shard`] wipes the in-memory state
//!   (fail-stop); [`StoreServer::recover_shard`] rebuilds it from the latest
//!   checkpoint plus the journal suffix. [`StoreServer::restart_shard`] does
//!   crash + recovery under one lock hold so concurrent clients observe an
//!   outage as latency, never as state loss.
//!
//! * **Replay floor**: the supervisor that truncates the engine's packet logs
//!   tells the store which clocks no log can replay any more
//!   ([`StoreServer::forget_through`]); below that floor updates are neither
//!   looked up nor logged for duplicate suppression, and each shard prunes
//!   its log under the lock hold it takes anyway.
//!
//! Each shard is a [`Shard`] (see [`crate::backend`]) over a pluggable
//! [`StorageBackend`]: the in-memory engine above is the default, and the
//! append-only flat-file engine persists the journal to per-shard segment
//! files with checkpoint compaction, making `restart_shard` O(delta in
//! ops-since-checkpoint).

pub use crate::backend::ShardRecoveryStats;
use crate::backend::{
    AppendOnlyBackend, BackendKind, JournalRecord, MemoryBackend, ScratchDir, Shard,
    StorageBackend, DEFAULT_CHECKPOINT_INTERVAL,
};
use crate::error::StoreError;
use crate::key::{Clock, InstanceId, StateKey};
use crate::ops::{CustomOpFn, Operation};
use crate::store::ApplyResult;
use crate::value::Value;
use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One [`Shard`] of a [`StoreServer`] behind its own lock, plus an op
/// counter so load skew across shards is observable. The journal append
/// happens under the same lock hold as the apply, so durable order is
/// exactly execution order.
struct Slot {
    shard: Mutex<Shard>,
    ops: AtomicU64,
}

/// A sharded store server safe to share across threads (`Arc<StoreServer>`).
pub struct StoreServer {
    slots: Vec<Slot>,
    backend_kind: BackendKind,
    /// The replay floor: the lowest clock counter a packet log may still
    /// replay; everything below is dead to duplicate suppression. Shards pick it
    /// up lazily, under the lock hold they take anyway. `Relaxed` suffices:
    /// the value publishes no other data, and a shard that reads a stale
    /// (lower) floor merely keeps a few log entries a little longer.
    replay_floor: AtomicU64,
    /// Keeps the append-only engine's ephemeral scratch directory alive for
    /// the server's lifetime (removed when the server is dropped).
    _scratch: Option<ScratchDir>,
}

impl StoreServer {
    /// Create a server with `shards` independent shards (the paper's
    /// microbenchmark uses four store threads), on the engine named by the
    /// `CHC_STORE_BACKEND` environment variable (in-memory by default).
    pub fn new(shards: usize) -> Arc<StoreServer> {
        StoreServer::with_backend(shards, BackendKind::from_env())
    }

    /// Create a server on an explicitly chosen engine. The append-only
    /// engine gives each shard its own subdirectory (`shard-<i>/`) of a
    /// scratch directory that is removed when the server is dropped.
    pub fn with_backend(shards: usize, kind: BackendKind) -> Arc<StoreServer> {
        let scratch = (kind == BackendKind::AppendOnly).then(|| ScratchDir::new("store-server"));
        let backend = |i: usize| -> Box<dyn StorageBackend> {
            match &scratch {
                None => Box::new(MemoryBackend::new()),
                Some(dir) => Box::new(AppendOnlyBackend::open(
                    dir.path().join(format!("shard-{i}")),
                    DEFAULT_CHECKPOINT_INTERVAL,
                )),
            }
        };
        Arc::new(StoreServer {
            slots: (0..shards.max(1))
                .map(|i| Slot {
                    shard: Mutex::new(Shard::new(backend(i))),
                    ops: AtomicU64::new(0),
                })
                .collect(),
            backend_kind: kind,
            replay_floor: AtomicU64::new(0),
            _scratch: scratch,
        })
    }

    /// Which storage engine this server's shards run on.
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

    /// Register a custom operation on every shard.
    pub fn register_custom_op(&self, name: &str, f: CustomOpFn) {
        for slot in &self.slots {
            slot.shard.lock().register_custom_op(name, f);
        }
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
        let result = shard.instance_mut().apply(requester, key, op, clock);
        if shard.journaling() && matches!(&result, Ok(r) if !r.outcome.emulated) {
            shard.append(JournalRecord::Apply {
                requester,
                key: key.clone(),
                op: op.clone(),
                clock,
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

    /// Apply a slice of operations, taking each involved shard's lock **once
    /// per batch** instead of once per op.
    ///
    /// Results come back in submission order. Within a shard, ops execute in
    /// submission order, and the shard's journal receives a single
    /// [`JournalRecord::ApplyBatch`] covering the batch's applied ops —
    /// replayed element-wise, so crash/recover semantics are identical to
    /// the same ops applied sequentially. Ops on different shards may
    /// interleave with concurrent writers exactly as sequential applies
    /// would; the batch is an amortization, not a transaction.
    pub fn apply_batch(
        &self,
        requester: InstanceId,
        ops: &[(StateKey, Operation, Option<Clock>)],
    ) -> Vec<Result<ApplyResult, StoreError>> {
        if let [(key, op, clock)] = ops {
            return vec![self.apply(requester, key, op, *clock)];
        }
        // The only allocation of a batch is its result vector; every slot
        // is overwritten below, since each op belongs to one shard.
        let mut results: Vec<Result<ApplyResult, StoreError>> =
            ops.iter().map(|_| Err(StoreError::Unavailable)).collect();
        for (index, slot) in self.slots.iter().enumerate() {
            let mine =
                |(key, _, _): &(StateKey, Operation, Option<Clock>)| self.shard_index(key) == index;
            let count = ops.iter().filter(|op| mine(op)).count();
            if count == 0 {
                continue;
            }
            slot.ops.fetch_add(count as u64, Ordering::Relaxed);
            let mut shard = self.lock_at_floor(slot);
            for (i, (key, op, clock)) in ops.iter().enumerate().filter(|(_, op)| mine(op)) {
                results[i] = shard.instance_mut().apply(requester, key, op, *clock);
            }
            // Journal append under the shard lock hold, like
            // `apply_on_shard`: journal order is exactly execution order,
            // and emulated duplicates stay out of it.
            if shard.journaling() {
                // Sized to the shard's share of the batch, not grown by
                // doubling: the in-memory engine keeps this vector for as
                // long as it keeps the record.
                let mut applied = Vec::with_capacity(count);
                applied.extend(
                    ops.iter()
                        .zip(&results)
                        .filter(|(op, result)| {
                            mine(op) && matches!(result, Ok(r) if !r.outcome.emulated)
                        })
                        .map(|(op, _)| op.clone()),
                );
                if !applied.is_empty() {
                    shard.append(JournalRecord::ApplyBatch {
                        requester,
                        ops: applied,
                    });
                }
            }
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
        shard.append(JournalRecord::Callback {
            key: key.clone(),
            instance,
        });
    }

    /// Re-associate every per-flow object owned by `from` with `to` (NF
    /// instance failover, §5.4: the replacement instance takes over the
    /// failed instance's externalized per-flow state).
    pub fn reassign_owner(&self, from: InstanceId, to: InstanceId) -> usize {
        let mut moved = 0;
        for slot in &self.slots {
            let mut shard = slot.shard.lock();
            moved += shard.instance_mut().reassign_owner(from, to);
            shard.append(JournalRecord::Reassign { from, to });
        }
        moved
    }

    /// Total operations served since construction.
    pub fn total_ops(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.ops.load(Ordering::Relaxed))
            .sum()
    }

    /// Total number of objects across all shards.
    pub fn len(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.shard.lock().instance().len())
            .sum()
    }

    /// True if no shard holds any object.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate resident bytes of live state across all shards.
    pub fn state_bytes(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.shard.lock().instance().state_bytes())
            .sum()
    }

    /// Durable segment files currently held across all shards (0 on the
    /// in-memory engine). Telemetry gauge.
    pub fn durable_segments(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.shard.lock().backend().segment_count())
            .sum()
    }

    /// Bytes of durable state (segments + checkpoint images) across all
    /// shards (0 on the in-memory engine). Telemetry gauge.
    pub fn durable_bytes(&self) -> u64 {
        self.slots
            .iter()
            .map(|s| s.shard.lock().backend().durable_bytes())
            .sum()
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
        self.slots[shard].shard.lock().backend().journal_len()
    }

    /// Snapshot one shard into its durable checkpoint and truncate the
    /// journal: records preceding a checkpoint are no longer needed for
    /// recovery (Figure 7's "latest checkpoint"). The snapshot is the full
    /// shard image, so truncation loses nothing — not the callback or
    /// custom-op registrations and not the duplicate-suppression log. On the
    /// append-only engine this also compacts the on-disk segments.
    pub fn checkpoint_shard(&self, shard: usize) -> usize {
        self.lock_at_floor(&self.slots[shard]).checkpoint()
    }

    /// Fail-stop one shard: its in-memory state is wiped. The durable side
    /// (checkpoint + journal) survives, as a disk-backed log would.
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
        shard
            .instance_mut()
            .raise_floor(self.replay_floor.load(Ordering::Relaxed));
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

    /// Declare that no packet log can replay a clock whose counter is at or
    /// below `counter` any more. From here on such clocks are neither looked
    /// up nor logged, and every shard drops what it holds for them the next
    /// time its lock is taken. Monotonic: a lower value is ignored. A run
    /// that can never replay anything passes `u64::MAX`.
    pub fn forget_through(&self, counter: u64) {
        self.replay_floor
            .fetch_max(counter.saturating_add(1), Ordering::Relaxed);
    }

    /// The replay floor: the lowest clock counter a packet log may still
    /// replay (one above the last [`StoreServer::forget_through`]; 0 while
    /// nothing has been forgotten).
    pub fn replay_floor(&self) -> u64 {
        self.replay_floor.load(Ordering::Relaxed)
    }

    /// Clock-tagged updates currently retained for duplicate suppression,
    /// across all shards, each pruned at the current floor first. O(shards).
    pub fn update_log_len(&self) -> usize {
        self.slots
            .iter()
            .map(|s| self.lock_at_floor(s).instance().update_log_len())
            .sum()
    }

    /// Summed over shards, the most updates a single packet has ever held
    /// in a shard's log: what one packet above the floor can cost.
    pub fn update_log_widest_packet(&self) -> usize {
        self.slots
            .iter()
            .map(|s| s.shard.lock().instance().update_log_widest_packet())
            .sum()
    }

    /// Every stored object across all shards as `(canonical key, value,
    /// owner)`. Order is unspecified; callers sort as needed. Used for final
    /// state digests in the substrate-equivalence tests.
    pub fn dump(&self) -> Vec<(StateKey, Value, Option<InstanceId>)> {
        let mut out = Vec::new();
        for slot in &self.slots {
            out.extend(slot.shard.lock().instance().entries());
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{ObjectKey, VertexId};
    use chc_packet::ScopeKey;
    use std::net::Ipv4Addr;
    use std::thread;

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
