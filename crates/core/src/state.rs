//! The client-side datastore library (§4.3, Table 1).
//!
//! Every NF instance owns a [`StateClient`]. The client resolves object names
//! into fully qualified datastore keys (vertex / instance metadata), picks a
//! [`CacheStrategy`] per object from its declared scope and access pattern,
//! and performs the accesses:
//!
//! * **cached** accesses are applied to the local copy and flushed to the
//!   store with non-blocking semantics (per-flow objects, read-heavy
//!   cross-flow objects via callbacks, exclusive write-often objects),
//! * **offloaded** updates are sent to the store which serializes and applies
//!   them; the NF either waits for the ACK (one RTT) or not, depending on the
//!   externalization mode (§7.1 models #1–#3),
//! * **blocking** reads always cost a round trip.
//!
//! The client also maintains the metadata CHC needs for correctness: the
//! write-ahead log of shared-state updates and the read log of `(value, TS)`
//! pairs used for datastore recovery (§5.4), the XOR tokens of updates issued
//! for the in-flight packet (Figure 6), and the accumulated virtual-time
//! charge that the instance runtime adds to the packet's processing latency.

use crate::cache::CacheStrategy;
use crate::config::{CostModel, ExternalizationMode};
use crate::dag::StateObjectSpec;
use crate::message::xor_token;
use chc_packet::ScopeKey;
use chc_sim::SimDuration;
use chc_store::key::{KeyPrefix, PrehashedMap, Scoped};
use chc_store::ops::apply_in_place;
use chc_store::store::{shared_key, ApplyResult};
use chc_store::{
    Clock, InstanceId, Operation, ReadLogEntry, StateKey, StateScope, StoreError, StoreInstance,
    StoreServer, TsSnapshot, Value, VertexId, WriteAheadLog,
};
use std::cell::RefCell;
use std::collections::hash_map::Entry;
use std::collections::HashSet;
use std::rc::Rc;
use std::sync::Arc;
use std::vec::Drain;

/// Abstraction over how a client reaches its datastore instance, so the same
/// client library runs on the single-threaded simulated store and on the
/// sharded multi-threaded [`StoreServer`].
pub trait StateHandle {
    /// Apply an operation (see [`StoreInstance::apply`]).
    fn apply(
        &self,
        requester: InstanceId,
        key: &StateKey,
        op: &Operation,
        clock: Option<Clock>,
    ) -> Result<ApplyResult, StoreError>;
    /// Apply a slice of operations, returning per-op results in submission
    /// order. The default is a sequential loop; backends that can amortize
    /// locking across the batch (the sharded [`StoreServer`]) override it.
    fn apply_batch(
        &self,
        requester: InstanceId,
        ops: &[(StateKey, Operation, Option<Clock>)],
    ) -> Vec<Result<ApplyResult, StoreError>> {
        ops.iter()
            .map(|(key, op, clock)| self.apply(requester, key, op, *clock))
            .collect()
    }
    /// Register a change callback.
    fn register_callback(&self, key: &StateKey, instance: InstanceId);
    /// Release per-flow ownership.
    fn release_ownership(&self, key: &StateKey, instance: InstanceId) -> Result<(), StoreError>;
    /// Acquire per-flow ownership.
    fn acquire_ownership(&self, key: &StateKey, instance: InstanceId) -> Result<(), StoreError>;
    /// Current owner of a per-flow object.
    fn owner_of(&self, key: &StateKey) -> Option<InstanceId>;
    /// Store-computed non-deterministic value (Appendix A).
    fn nondet(&self, clock: Clock, slot: u32, candidate: Value) -> Value;
    /// Current `TS` metadata (last clock per instance).
    fn ts_snapshot(&self) -> TsSnapshot;
    /// True if the store instance is currently failed.
    fn is_failed(&self) -> bool;
}

/// A store instance shared by the components of a simulated chain
/// (single-threaded; the simulator provides determinism).
#[derive(Clone, Default)]
pub struct SharedStore(Rc<RefCell<StoreInstance>>);

impl SharedStore {
    /// Create an empty shared store.
    pub fn new() -> SharedStore {
        SharedStore::default()
    }

    /// Borrow the underlying instance mutably (panics if already borrowed).
    pub fn with<R>(&self, f: impl FnOnce(&mut StoreInstance) -> R) -> R {
        f(&mut self.0.borrow_mut())
    }

    /// Mark the store failed / recovered (fail-stop model).
    pub fn set_failed(&self, failed: bool) {
        self.0.borrow_mut().set_failed(failed);
    }

    /// Replace the contents with a recovered instance.
    pub fn replace(&self, instance: StoreInstance) {
        *self.0.borrow_mut() = instance;
    }
}

impl StateHandle for SharedStore {
    fn apply(
        &self,
        requester: InstanceId,
        key: &StateKey,
        op: &Operation,
        clock: Option<Clock>,
    ) -> Result<ApplyResult, StoreError> {
        self.0.borrow_mut().apply(requester, key, op, clock)
    }
    fn register_callback(&self, key: &StateKey, instance: InstanceId) {
        self.0.borrow_mut().register_callback(key, instance);
    }
    fn release_ownership(&self, key: &StateKey, instance: InstanceId) -> Result<(), StoreError> {
        self.0.borrow_mut().release_ownership(key, instance)
    }
    fn acquire_ownership(&self, key: &StateKey, instance: InstanceId) -> Result<(), StoreError> {
        self.0.borrow_mut().acquire_ownership(key, instance)
    }
    fn owner_of(&self, key: &StateKey) -> Option<InstanceId> {
        self.0.borrow().owner_of(key)
    }
    fn nondet(&self, clock: Clock, slot: u32, candidate: Value) -> Value {
        self.0.borrow_mut().nondet_value(clock, slot, candidate)
    }
    fn ts_snapshot(&self) -> TsSnapshot {
        TsSnapshot::new(self.0.borrow().ts().clone())
    }
    fn is_failed(&self) -> bool {
        self.0.borrow().is_failed()
    }
}

impl StateHandle for Arc<StoreServer> {
    fn apply(
        &self,
        requester: InstanceId,
        key: &StateKey,
        op: &Operation,
        clock: Option<Clock>,
    ) -> Result<ApplyResult, StoreError> {
        StoreServer::apply(self, requester, key, op, clock)
    }
    fn apply_batch(
        &self,
        requester: InstanceId,
        ops: &[(StateKey, Operation, Option<Clock>)],
    ) -> Vec<Result<ApplyResult, StoreError>> {
        StoreServer::apply_batch(self, requester, ops)
    }
    fn register_callback(&self, key: &StateKey, instance: InstanceId) {
        StoreServer::register_callback(self, key, instance);
    }
    fn release_ownership(&self, _key: &StateKey, _instance: InstanceId) -> Result<(), StoreError> {
        Ok(())
    }
    fn acquire_ownership(&self, _key: &StateKey, _instance: InstanceId) -> Result<(), StoreError> {
        Ok(())
    }
    fn owner_of(&self, _key: &StateKey) -> Option<InstanceId> {
        None
    }
    fn nondet(&self, _clock: Clock, _slot: u32, candidate: Value) -> Value {
        candidate
    }
    fn ts_snapshot(&self) -> TsSnapshot {
        TsSnapshot::default()
    }
    fn is_failed(&self) -> bool {
        false
    }
}

/// Statistics the client keeps for reports and experiments.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StateClientStats {
    /// Operations answered from a local cache.
    pub cache_hits: u64,
    /// Blocking store round trips (reads, exclusive-lost updates, ACK waits).
    pub blocking_ops: u64,
    /// Operations issued with non-blocking semantics.
    pub non_blocking_ops: u64,
    /// Operations applied purely locally (traditional mode).
    pub local_ops: u64,
}

/// One object the client knows: what its declaration resolves to and the
/// local copies it holds, so an access costs one name comparison, the hash
/// of its scope key and one probe of this object's own table.
struct ObjectSlot {
    /// Vertex + name, hashed once; an access hashes only its scope key, and
    /// a key is assembled from the two when an op leaves for the store.
    prefix: KeyPrefix,
    /// The owner this object's keys carry: this instance for a per-flow
    /// object, nobody for a shared (cross-flow) one.
    owner: Option<InstanceId>,
    strategy: CacheStrategy,
    /// Whether this instance currently has exclusive access (relevant for
    /// [`CacheStrategy::CacheIfExclusive`]).
    exclusive: bool,
    /// Local copies by scope key (the object's entire state in traditional
    /// mode), under the hash a key to the store would carry.
    table: PrehashedMap<Scoped, Value>,
}

impl ObjectSlot {
    /// May the object be served from the local table right now?
    fn cacheable(&self, mode: ExternalizationMode) -> bool {
        mode.caching()
            && match self.strategy {
                CacheStrategy::NonBlockingNoCache => false,
                CacheStrategy::CacheWithPeriodicFlush | CacheStrategy::CacheWithCallbacks => true,
                CacheStrategy::CacheIfExclusive => self.exclusive,
            }
    }

    fn key(&self, at: Scoped) -> StateKey {
        self.prefix.key(self.owner, at)
    }

    /// Apply `op` to the local copy at `at` where it lies (creating it on
    /// first touch); an inapplicable operation leaves the copy alone and
    /// returns nothing, as the store would answer with an error.
    fn apply_local(&mut self, at: Scoped, op: &Operation) -> Value {
        let (prefix, owner) = (&self.prefix, self.owner);
        let cached = self.table.entry(at).or_default();
        match apply_in_place(|| prefix.key(owner, at), cached, op, None) {
            Ok((returned, _)) => returned,
            Err(_) => Value::None,
        }
    }

    /// Hand every local copy to the store as an authoritative `Set` (and
    /// optionally release its ownership) and forget it. Returns how many.
    fn flush(
        &mut self,
        store: &dyn StateHandle,
        instance: InstanceId,
        clock: Clock,
        release_ownership: bool,
    ) -> usize {
        let flushed = self.table.len();
        for (at, value) in self.table.drain() {
            let key = self.prefix.key(self.owner, at);
            let _ = store.apply(instance, &key, &Operation::Set(value), Some(clock));
            if release_ownership {
                let _ = store.release_ownership(&key, instance);
            }
        }
        flushed
    }
}

/// The per-instance client-side datastore library.
pub struct StateClient {
    vertex: VertexId,
    instance: InstanceId,
    store: Box<dyn StateHandle>,
    mode: ExternalizationMode,
    costs: CostModel,
    /// The NF's objects, resolved once, each with its local copies: a
    /// handful per NF, so a call finds its object by scanning this list. An
    /// object the NF never declared joins on first use.
    objects: Vec<ObjectSlot>,
    /// Callback registrations already made (avoid duplicates).
    callbacks_registered: HashSet<StateKey>,
    /// Write-ahead log of shared-state updates (store recovery, §5.4).
    wal: WriteAheadLog,
    /// Read log of shared-state reads with their `TS` snapshots.
    read_log: Vec<ReadLogEntry>,
    /// Whether the WAL / read log are recorded. On by default; the
    /// real-thread runtime disables it for long throughput runs that never
    /// exercise store recovery, since both logs grow with the packet count.
    recovery_logging: bool,
    /// Write-behind buffer: non-blocking flushes coalesced for one batched
    /// `apply_batch` round trip instead of a store call per op. Off by
    /// default (ops flush inline); the real-thread runtime enables it and
    /// drains at ring-batch boundaries. The WAL append and XOR token of a
    /// buffered op are recorded at buffer time — both are independent of the
    /// apply result — and the buffered clock tags keep store-side duplicate
    /// suppression (and hence replay idempotency) intact.
    write_behind: Option<Vec<(StateKey, Operation, Option<Clock>)>>,
    /// Buffered ops that force an in-place drain when reached (bounds both
    /// buffer memory and the store-visible staleness window).
    write_behind_cap: usize,
    /// Latency charged to the packet currently being processed.
    charge: SimDuration,
    /// XOR tokens of store updates issued for the current packet (Figure 6).
    packet_tokens: Vec<u32>,
    /// Callback notifications the store produced for *other* instances while
    /// this client updated shared objects; the instance runtime turns them
    /// into `CallbackUpdate` messages.
    pending_callbacks: Vec<(InstanceId, StateKey, Value)>,
    /// Statistics.
    stats: StateClientStats,
}

impl StateClient {
    /// Create a client for one NF instance.
    pub fn new(
        vertex: VertexId,
        instance: InstanceId,
        store: Box<dyn StateHandle>,
        mode: ExternalizationMode,
        costs: CostModel,
        objects: &[StateObjectSpec],
    ) -> StateClient {
        let objects = objects
            .iter()
            .map(|o| ObjectSlot {
                prefix: KeyPrefix::new(vertex, Arc::from(o.name.as_str())),
                owner: (o.scope == StateScope::PerFlow).then_some(instance),
                strategy: CacheStrategy::select(o.scope, o.access),
                exclusive: true,
                table: PrehashedMap::default(),
            })
            .collect();
        StateClient {
            vertex,
            instance,
            store,
            mode,
            costs,
            objects,
            callbacks_registered: HashSet::new(),
            wal: WriteAheadLog::new(),
            read_log: Vec::new(),
            recovery_logging: true,
            write_behind: None,
            write_behind_cap: 0,
            charge: SimDuration::ZERO,
            packet_tokens: Vec::new(),
            pending_callbacks: Vec::new(),
            stats: StateClientStats::default(),
        }
    }

    /// The owning instance id.
    pub fn instance(&self) -> InstanceId {
        self.instance
    }

    /// The vertex id.
    pub fn vertex(&self) -> VertexId {
        self.vertex
    }

    /// Externalization mode in force.
    pub fn mode(&self) -> ExternalizationMode {
        self.mode
    }

    /// Statistics so far.
    pub fn stats(&self) -> StateClientStats {
        self.stats
    }

    /// The client's write-ahead log (collected by store recovery).
    pub fn wal(&self) -> &WriteAheadLog {
        &self.wal
    }

    /// Enable or disable the client-side recovery logs (WAL + read log).
    /// They are required for datastore recovery (§5.4) and enabled by
    /// default; substrates that never recover a store (e.g. pure throughput
    /// benchmarks on the real-thread runtime) switch them off so memory does
    /// not grow with the packet count.
    pub fn set_recovery_logging(&mut self, enabled: bool) {
        self.recovery_logging = enabled;
    }

    /// Enable or disable write-behind coalescing of non-blocking flushes.
    /// `cap` bounds the buffer; reaching it drains in place. Disabling
    /// drains anything still buffered first. While enabled, the caller owns
    /// the drain cadence via [`StateClient::drain_write_behind`]; the client
    /// itself drains before every store access that could observe buffered
    /// effects (blocking reads, offloaded updates, exclusivity loss,
    /// per-flow flushes, nondet queries).
    pub fn set_write_behind(&mut self, enabled: bool, cap: usize) {
        if enabled {
            self.write_behind_cap = cap.max(1);
            if self.write_behind.is_none() {
                self.write_behind = Some(Vec::with_capacity(self.write_behind_cap));
            }
        } else {
            self.drain_write_behind();
            self.write_behind = None;
        }
    }

    /// Ops currently sitting in the write-behind buffer.
    pub fn write_behind_depth(&self) -> usize {
        self.write_behind.as_ref().map_or(0, Vec::len)
    }

    /// Flush the write-behind buffer as one batched store round trip.
    /// Returns the number of ops drained. Callback notifications produced
    /// by the batch land in the pending-callback list exactly as inline
    /// flushes would.
    pub fn drain_write_behind(&mut self) -> usize {
        let Some(buf) = self.write_behind.as_mut() else {
            return 0;
        };
        if buf.is_empty() {
            return 0;
        }
        let mut ops = std::mem::take(buf);
        let results = self.store.apply_batch(self.instance, &ops);
        for ((key, _, _), result) in ops.iter().zip(results) {
            if let Ok(result) = result {
                self.queue_callbacks(key, &result);
            }
        }
        let drained = ops.len();
        // Hand the allocation back to the buffer.
        ops.clear();
        self.write_behind = Some(ops);
        drained
    }

    /// Queue what the store wants other instances told about `key`. Only an
    /// object with subscribers has anyone to notify, and that is when the
    /// store sends its value along.
    fn queue_callbacks(&mut self, key: &StateKey, result: &ApplyResult) {
        if let Some(value) = &result.new_value {
            for other in &result.notify {
                self.pending_callbacks
                    .push((*other, key.clone(), value.clone()));
            }
        }
    }

    /// The client's read log (collected by store recovery).
    pub fn read_log(&self) -> &[ReadLogEntry] {
        &self.read_log
    }

    fn slot(&self, object: &str) -> Option<&ObjectSlot> {
        self.objects.iter().find(|o| o.prefix.name() == object)
    }

    /// Index of `object`'s slot. An object the NF never declared is
    /// registered here, once: shared, on the conservative blocking path
    /// until exclusivity is granted.
    fn slot_index(&mut self, object: &str) -> usize {
        if let Some(i) = self.objects.iter().position(|o| o.prefix.name() == object) {
            return i;
        }
        self.objects.push(ObjectSlot {
            prefix: KeyPrefix::new(self.vertex, Arc::from(object)),
            owner: None,
            strategy: CacheStrategy::CacheIfExclusive,
            exclusive: false,
            table: PrehashedMap::default(),
        });
        self.objects.len() - 1
    }

    /// The fully qualified key used for an object (of one no access has
    /// named yet: the shared key it would get).
    pub fn state_key(&self, object: &str, scope_key: Option<ScopeKey>) -> StateKey {
        match self.slot(object) {
            Some(slot) => slot.key(slot.prefix.scoped(scope_key)),
            None => shared_key(self.vertex, object, scope_key),
        }
    }

    fn charge_rtt(&mut self) {
        self.charge += self.costs.store_rtt();
        self.stats.blocking_ops += 1;
    }

    fn charge_cache_hit(&mut self) {
        self.charge += self.costs.cache_hit;
        self.stats.cache_hits += 1;
    }

    fn charge_async(&mut self) {
        self.charge += self.costs.async_issue;
        self.stats.non_blocking_ops += 1;
    }

    /// Latency accumulated for the current packet; resets the accumulator.
    /// The instance runtime adds this to the packet's processing time.
    pub fn take_charge(&mut self) -> SimDuration {
        std::mem::take(&mut self.charge)
    }

    /// XOR tokens of updates issued to the store for the current packet;
    /// resets the list (dropping the returned iterator empties it, and the
    /// list keeps its allocation for the next packet). The runtime folds
    /// them into the packet's commit vector and emits the corresponding
    /// commit signals.
    pub fn take_packet_tokens(&mut self) -> Drain<'_, u32> {
        self.packet_tokens.drain(..)
    }

    /// Callback notifications produced by the store while this client issued
    /// updates (instances other than this one that registered for the changed
    /// objects); the runtime delivers them as messages. Resets the list,
    /// like [`StateClient::take_packet_tokens`].
    pub fn take_pending_callbacks(&mut self) -> Drain<'_, (InstanceId, StateKey, Value)> {
        self.pending_callbacks.drain(..)
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// Read an object's value. A hit in the object's table — and every
    /// read in traditional mode — builds no key and hashes only the scope key.
    pub fn read(&mut self, object: &str, scope_key: Option<ScopeKey>, clock: Clock) -> Value {
        let i = self.slot_index(object);
        let slot = &self.objects[i];
        let at = slot.prefix.scoped(scope_key);
        if !self.mode.externalized() {
            self.stats.local_ops += 1;
            return slot.table.get(&at).cloned().unwrap_or_default();
        }
        let cacheable = slot.cacheable(self.mode);
        if cacheable {
            if let Some(v) = slot.table.get(&at).cloned() {
                self.charge_cache_hit();
                return v;
            }
        }
        let key = slot.key(at);
        let (shared, uses_callbacks) = (slot.owner.is_none(), slot.strategy.uses_callbacks());
        // Blocking read from the store. Buffered write-behind ops on this
        // key (or any other) must be visible to it: drain first.
        self.drain_write_behind();
        self.charge_rtt();
        let result = match self
            .store
            .apply(self.instance, &key, &Operation::Get, Some(clock))
        {
            Ok(r) => r,
            Err(_) => return Value::None,
        };
        let value = result.outcome.returned;
        // Record the read (value + TS) for datastore recovery, shared objects only.
        if self.recovery_logging && shared {
            self.read_log.push(ReadLogEntry {
                clock,
                key: key.clone(),
                value: value.clone(),
                ts: self.store.ts_snapshot(),
            });
        }
        // Populate the table and, for read-heavy objects, register the
        // store callback that will keep it fresh.
        if cacheable {
            self.objects[i].table.insert(at, value.clone());
            if uses_callbacks && self.callbacks_registered.insert(key.clone()) {
                self.store.register_callback(&key, self.instance);
            }
        }
        value
    }

    // ------------------------------------------------------------------
    // Updates
    // ------------------------------------------------------------------

    /// Apply an update (or any non-`Get` operation) to an object.
    pub fn update(
        &mut self,
        object: &str,
        scope_key: Option<ScopeKey>,
        op: Operation,
        clock: Clock,
    ) -> Value {
        let i = self.slot_index(object);
        let mode = self.mode;
        let slot = &mut self.objects[i];
        let at = slot.prefix.scoped(scope_key);

        // Traditional NF: purely local state.
        if !mode.externalized() {
            self.stats.local_ops += 1;
            return slot.apply_local(at, &op);
        }

        let strategy = slot.strategy;
        let blocking_required = !op.is_non_blocking_eligible();
        // A copy this client keeps current itself, by applying to it every
        // op it issues (a `CacheWithCallbacks` copy is the store's to keep).
        let maintained = slot.cacheable(mode) && strategy != CacheStrategy::CacheWithCallbacks;

        if maintained && !blocking_required {
            // Apply to the local copy; flush to the store with non-blocking
            // semantics (the flush keeps the store authoritative for fault
            // tolerance but is off the packet's critical path).
            let returned = slot.apply_local(at, &op);
            let key = slot.key(at);
            self.charge_cache_hit();
            self.stats.non_blocking_ops += 1;
            self.flush_op(key, op, clock);
            return returned;
        }
        let key = slot.key(at);
        let (shared, exclusive) = (slot.owner.is_none(), slot.exclusive);

        // Offloaded to the store. Blocking cost depends on the operation and
        // the externalization mode:
        //  * ops needing their result (pops) and updates to shared objects
        //    whose exclusivity was lost are charged a full round trip,
        //  * other updates are non-blocking: one RTT when the NF waits for
        //    the ACK (modes #1/#2), one async-issue cost when it does not
        //    (mode #3); the framework then owns retransmission.
        let lost_exclusive = strategy == CacheStrategy::CacheIfExclusive && !exclusive;
        if blocking_required || lost_exclusive || strategy == CacheStrategy::CacheWithCallbacks {
            self.charge_rtt();
        } else if self.mode.skip_acks() {
            self.charge_async();
            // Fire-and-forget: the NF does not wait for the ACK in this
            // mode, so with write-behind on the op coalesces into the batch
            // buffer and there is no store result to return. Only uncached
            // objects take this shortcut (a held copy is settled against
            // the store's answer below; in practice only
            // `NonBlockingNoCache` objects reach this arm).
            let uncached = strategy == CacheStrategy::NonBlockingNoCache
                || !self.objects[i].table.contains_key(&at);
            if self.write_behind.is_some() && uncached {
                self.flush_op(key, op, clock);
                return Value::None;
            }
        } else {
            self.charge_rtt();
        }

        // Offloaded ops observe the store directly (pops read it, blocking
        // updates return its value): buffered write-behind ops go first.
        self.drain_write_behind();
        let result = match self.store.apply(self.instance, &key, &op, Some(clock)) {
            Ok(r) => r,
            Err(_) => return Value::None,
        };
        self.queue_callbacks(&key, &result);
        self.packet_tokens.push(xor_token(self.instance, &key));
        // The store returned the op's result, not the object: a local copy
        // stays coherent by whichever of three rules fits who maintains it.
        if let Entry::Occupied(mut copy) = self.objects[i].table.entry(at) {
            match result.new_value {
                // The object has subscribers (a client that cached a
                // read-heavy object registered itself): the store sent its
                // value, as it sends it to every other subscriber.
                Some(value) => {
                    copy.insert(value);
                }
                // A copy this client maintains: the drain above made it
                // equal to the store, so the op the store just applied
                // keeps it equal — and an op the store only emulated moved
                // neither.
                None if maintained => {
                    if !result.outcome.emulated {
                        let _ = apply_in_place(|| key.clone(), copy.get_mut(), &op, None);
                    }
                }
                // Nobody keeps this copy current (a callback filed it for
                // an object this client neither maintains nor subscribes
                // to): once the store has moved on it is wrong.
                None => {
                    copy.remove();
                }
            }
        }
        if self.recovery_logging && shared {
            self.wal.append(clock, key, op);
        }
        result.outcome.returned
    }

    /// Hand one update to the store with non-blocking semantics.
    ///
    /// With write-behind enabled the op is buffered for a batched drain
    /// instead of applied inline; the WAL append and XOR token still happen
    /// immediately (neither depends on the apply result), so recovery logs
    /// and the Figure 6 commit tokens are identical either way.
    fn flush_op(&mut self, key: StateKey, op: Operation, clock: Clock) {
        if self.recovery_logging && key.instance.is_none() {
            self.wal.append(clock, key.clone(), op.clone());
        }
        self.packet_tokens.push(xor_token(self.instance, &key));
        if let Some(buf) = self.write_behind.as_mut() {
            buf.push((key, op, Some(clock)));
            if buf.len() >= self.write_behind_cap {
                self.drain_write_behind();
            }
            return;
        }
        if let Ok(result) = self.store.apply(self.instance, &key, &op, Some(clock)) {
            self.queue_callbacks(&key, &result);
        }
    }

    /// Store-computed non-deterministic value (Appendix A).
    pub fn nondet(&mut self, clock: Clock, slot: u32, candidate: Value) -> Value {
        if !self.mode.externalized() {
            return candidate;
        }
        self.drain_write_behind();
        self.charge_rtt();
        self.store.nondet(clock, slot, candidate)
    }

    // ------------------------------------------------------------------
    // Callbacks, exclusivity and handover support
    // ------------------------------------------------------------------

    /// Handle a store callback: refresh the cached copy of a read-heavy
    /// object (the NF author never sees this; §4.3 "Cross-flow state").
    pub fn handle_callback(&mut self, key: &StateKey, value: Value) {
        let i = self.slot_index(&key.object.name);
        let slot = &mut self.objects[i];
        let at = slot.prefix.scoped(key.object.scope_key);
        slot.table.insert(at, value);
    }

    /// Grant or revoke exclusive access to a write/read-often cross-flow
    /// object (driven by the upstream splitter's partitioning). Losing
    /// exclusivity flushes the cached copies to the store.
    pub fn set_exclusive(&mut self, object: &str, exclusive: bool, clock: Clock) {
        let i = self.slot_index(object);
        self.objects[i].exclusive = exclusive;
        if !exclusive {
            // Buffered increments on this object must reach the store before
            // the authoritative `Set`s below, or they would re-apply on top
            // of them at the next drain. Flushing lets other instances
            // observe the values and empties the table (subsequent updates
            // go to the store).
            self.drain_write_behind();
            self.objects[i].flush(&*self.store, self.instance, clock, false);
        }
    }

    /// True if the instance currently has exclusive access to the object.
    pub fn is_exclusive(&self, object: &str) -> bool {
        self.slot(object).is_some_and(|o| o.exclusive)
    }

    /// Flush every cached per-flow object (and optionally release ownership),
    /// as required when the flow is reallocated to another instance
    /// (Figure 4 step 5) or when recovering a failed store instance.
    ///
    /// Returns the number of objects flushed.
    pub fn flush_per_flow(&mut self, release_ownership: bool, clock: Clock) -> usize {
        // Same ordering constraint as exclusivity loss: buffered ops
        // precede the authoritative `Set` flushes.
        self.drain_write_behind();
        let (store, instance) = (&*self.store, self.instance);
        self.objects
            .iter_mut()
            .filter(|o| o.owner.is_some())
            .map(|o| o.flush(store, instance, clock, release_ownership))
            .sum()
    }

    /// Snapshot of the cached per-flow objects (used to recover a failed
    /// store instance: the caches hold the freshest per-flow values).
    pub fn cached_per_flow(&self) -> Vec<(StateKey, Value)> {
        self.objects
            .iter()
            .filter(|o| o.owner.is_some())
            .flat_map(|o| o.table.iter().map(|(at, v)| (o.key(*at), v.clone())))
            .collect()
    }

    /// Try to take ownership of a per-flow object (Figure 4 step 7 — the new
    /// instance associates its id once the old instance released the state).
    pub fn try_acquire(
        &mut self,
        object: &str,
        scope_key: Option<ScopeKey>,
    ) -> Result<(), StoreError> {
        let key = self.state_key(object, scope_key);
        self.store.acquire_ownership(&key, self.instance)
    }

    /// Is any of this NF's per-flow objects for the given connection still
    /// associated with a *different* instance? This is Figure 4 step 3: when
    /// the first packet of a reallocated flow arrives, the new instance
    /// checks the store; if the old owner has not released the state yet it
    /// must buffer the flow's packets until the handover notification.
    pub fn per_flow_owned_elsewhere(&self, conn_key: ScopeKey) -> bool {
        self.objects.iter().filter(|o| o.owner.is_some()).any(|o| {
            let key = o.key(o.prefix.scoped(Some(conn_key)));
            self.store
                .owner_of(&key)
                .is_some_and(|owner| owner != self.instance)
        })
    }

    /// Drop all cached state (used to model an NF crash: everything the
    /// instance held internally disappears; only the store copy survives).
    /// Un-drained write-behind ops are part of that loss — a crash forfeits
    /// them exactly as it forfeits the cache they were applied to.
    pub fn drop_all_local_state(&mut self) {
        for slot in &mut self.objects {
            slot.table.clear();
        }
        if let Some(buf) = self.write_behind.as_mut() {
            buf.clear();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_packet::Scope;
    use chc_store::AccessPattern;

    fn specs() -> Vec<StateObjectSpec> {
        vec![
            StateObjectSpec::cross_flow(
                "pkt_count",
                Scope::Global,
                AccessPattern::WriteMostlyReadRarely,
            ),
            StateObjectSpec::per_flow("port_map", AccessPattern::ReadMostly),
            StateObjectSpec::cross_flow("likelihood", Scope::SrcIp, AccessPattern::ReadWriteOften),
            StateObjectSpec::cross_flow("config", Scope::Global, AccessPattern::ReadMostly),
        ]
    }

    fn client(mode: ExternalizationMode, store: &SharedStore) -> StateClient {
        StateClient::new(
            VertexId(1),
            InstanceId(0),
            Box::new(store.clone()),
            mode,
            CostModel::default(),
            &specs(),
        )
    }

    fn clock(n: u64) -> Clock {
        Clock::with_root(0, n)
    }

    #[test]
    fn traditional_mode_keeps_state_local() {
        let store = SharedStore::new();
        let mut c = client(ExternalizationMode::Traditional, &store);
        c.update("pkt_count", None, Operation::Increment(1), clock(1));
        assert_eq!(c.read("pkt_count", None, clock(2)), Value::Int(1));
        // Nothing reached the store.
        assert!(store.with(|s| s.is_empty()));
        assert_eq!(c.take_charge(), SimDuration::ZERO);
        assert_eq!(c.stats().local_ops, 2);
    }

    #[test]
    fn externalized_blocking_ops_cost_round_trips() {
        let store = SharedStore::new();
        let mut c = client(ExternalizationMode::Externalized, &store);
        c.update("pkt_count", None, Operation::Increment(1), clock(1));
        let charge = c.take_charge();
        assert_eq!(charge, CostModel::default().store_rtt());
        // The update reached the store.
        assert_eq!(
            store.with(|s| s.peek(&c.state_key("pkt_count", None))),
            Value::Int(1)
        );
        // Reads also pay an RTT in this mode.
        c.read("pkt_count", None, clock(2));
        assert_eq!(c.take_charge(), CostModel::default().store_rtt());
    }

    #[test]
    fn full_chc_mode_hides_counter_update_latency() {
        let store = SharedStore::new();
        let mut c = client(ExternalizationMode::ExternalizedCachedNonBlocking, &store);
        c.update("pkt_count", None, Operation::Increment(1), clock(1));
        let charge = c.take_charge();
        assert!(
            charge < SimDuration::from_micros(1),
            "non-blocking issue, got {charge}"
        );
        assert_eq!(
            store.with(|s| s.peek(&c.state_key("pkt_count", None))),
            Value::Int(1)
        );
        assert_eq!(c.stats().non_blocking_ops, 1);
    }

    #[test]
    fn per_flow_objects_are_cached_and_flushed() {
        let store = SharedStore::new();
        let mut c = client(ExternalizationMode::ExternalizedCachedNonBlocking, &store);
        let sk = Some(ScopeKey::Port(4242));
        c.update("port_map", sk, Operation::Set(Value::Int(8080)), clock(1));
        // Cached: the read is a cache hit, far below one RTT.
        let v = c.read("port_map", sk, clock(2));
        assert_eq!(v, Value::Int(8080));
        let charge = c.take_charge();
        assert!(charge < SimDuration::from_micros(2), "got {charge}");
        // The flush keeps the store authoritative.
        assert_eq!(
            store.with(|s| s.peek(&c.state_key("port_map", sk))),
            Value::Int(8080)
        );
        // And it is visible for store recovery via the cached snapshot.
        assert_eq!(c.cached_per_flow().len(), 1);
    }

    #[test]
    fn read_heavy_objects_use_callbacks() {
        let store = SharedStore::new();
        let mut a = client(ExternalizationMode::ExternalizedCachedNonBlocking, &store);
        let mut b = StateClient::new(
            VertexId(1),
            InstanceId(1),
            Box::new(store.clone()),
            ExternalizationMode::ExternalizedCachedNonBlocking,
            CostModel::default(),
            &specs(),
        );
        // b reads the read-heavy object → caches it and registers a callback.
        assert_eq!(b.read("config", None, clock(1)), Value::None);
        assert!(store.with(|s| !s
            .callback_registrations(&b.state_key("config", None))
            .is_empty()));
        // a updates it: the update goes straight to the store (blocking).
        a.update("config", None, Operation::Set(Value::Int(7)), clock(2));
        assert!(a.take_charge() >= CostModel::default().store_rtt());
        // The framework delivers the callback; b's cache refreshes.
        let key = b.state_key("config", None);
        b.handle_callback(&key, Value::Int(7));
        assert_eq!(b.read("config", None, clock(3)), Value::Int(7));
        assert_eq!(b.stats().cache_hits, 1);
    }

    #[test]
    fn exclusivity_loss_forces_blocking_updates_and_flush() {
        let store = SharedStore::new();
        let mut c = client(ExternalizationMode::ExternalizedCachedNonBlocking, &store);
        // While exclusive, the write/read-often object is cached.
        c.update("likelihood", None, Operation::Increment(5), clock(1));
        assert!(c.take_charge() < SimDuration::from_micros(1));
        assert!(c.is_exclusive("likelihood"));
        // Another instance starts sharing → exclusivity revoked, cache flushed.
        c.set_exclusive("likelihood", false, clock(2));
        assert!(!c.is_exclusive("likelihood"));
        assert_eq!(
            store.with(|s| s.peek(&c.state_key("likelihood", None))),
            Value::Int(5)
        );
        // Updates now block on the store.
        c.update("likelihood", None, Operation::Increment(1), clock(3));
        assert_eq!(c.take_charge(), CostModel::default().store_rtt());
        // Regaining exclusivity restores caching.
        c.set_exclusive("likelihood", true, clock(4));
        c.read("likelihood", None, clock(5));
        c.take_charge();
        c.update("likelihood", None, Operation::Increment(1), clock(6));
        assert!(c.take_charge() < SimDuration::from_micros(1));
    }

    #[test]
    fn after_an_offloaded_op_a_copy_follows_whoever_maintains_it() {
        let store = SharedStore::new();
        let mut c = client(ExternalizationMode::ExternalizedCachedNonBlocking, &store);
        let in_store =
            |c: &StateClient, name: &str| store.with(|s| s.peek(&c.state_key(name, None)));
        let pool = |ports: &[i64]| Value::list_of_ints(ports.iter().copied());

        // This client's own copy (write/read-often, exclusive): the store
        // answers a blocking pop with the head and the copy pops too.
        c.update(
            "likelihood",
            None,
            Operation::Set(pool(&[7, 8, 9])),
            clock(1),
        );
        let pop = Operation::PopFront;
        assert_eq!(
            c.update("likelihood", None, pop.clone(), clock(2)),
            Value::Int(7)
        );
        assert_eq!(c.read("likelihood", None, clock(3)), pool(&[8, 9]));
        // The same pop replayed: the store emulates it — the port it
        // remembers, nothing moved — and so the copy must not move either.
        assert_eq!(c.update("likelihood", None, pop, clock(2)), Value::Int(7));
        assert_eq!(c.read("likelihood", None, clock(3)), pool(&[8, 9]));
        assert_eq!(in_store(&c, "likelihood"), pool(&[8, 9]));

        // A copy the store keeps current (read-heavy; the read that cached
        // it registered the callback): the store sends the value back.
        assert_eq!(c.read("config", None, clock(4)), Value::None);
        c.update("config", None, Operation::Increment(5), clock(5));
        assert_eq!(c.read("config", None, clock(6)), Value::Int(5));
        assert_eq!(c.stats().cache_hits, 4, "three reads and the seeding set");

        // A copy nobody keeps current (a callback filed it for an object
        // this client neither caches nor subscribes to) is dropped: losing
        // exclusivity, which writes surviving copies back, writes nothing.
        let key = c.state_key("pkt_count", None);
        c.handle_callback(&key, Value::Int(100));
        c.update("pkt_count", None, Operation::Increment(1), clock(7));
        c.set_exclusive("pkt_count", false, clock(8));
        assert_eq!(in_store(&c, "pkt_count"), Value::Int(1));
    }

    #[test]
    fn wal_and_read_log_cover_shared_objects_only() {
        let store = SharedStore::new();
        let mut c = client(ExternalizationMode::Externalized, &store);
        c.update("pkt_count", None, Operation::Increment(1), clock(1));
        c.read("pkt_count", None, clock(2));
        let sk = Some(ScopeKey::Port(99));
        c.update("port_map", sk, Operation::Set(Value::Int(1)), clock(3));
        c.read("port_map", sk, clock(4));
        assert_eq!(
            c.wal().len(),
            1,
            "only the shared counter update is WAL-logged"
        );
        assert_eq!(c.read_log().len(), 1, "only the shared read is TS-logged");
        assert_eq!(c.read_log()[0].clock, clock(2));
    }

    #[test]
    fn packet_tokens_track_store_updates() {
        let store = SharedStore::new();
        let mut c = client(ExternalizationMode::ExternalizedCachedNonBlocking, &store);
        c.update("pkt_count", None, Operation::Increment(1), clock(1));
        let tokens: Vec<u32> = c.take_packet_tokens().collect();
        assert_eq!(tokens.len(), 1);
        assert_ne!(tokens[0], 0);
        assert_eq!(c.take_packet_tokens().len(), 0, "taking resets the list");
    }

    #[test]
    fn flush_per_flow_releases_ownership() {
        let store = SharedStore::new();
        let mut c = client(ExternalizationMode::ExternalizedCachedNonBlocking, &store);
        let sk = Some(ScopeKey::Port(1000));
        c.update("port_map", sk, Operation::Set(Value::Int(1)), clock(1));
        let key = c.state_key("port_map", sk);
        assert_eq!(store.with(|s| s.owner_of(&key)), Some(InstanceId(0)));
        let flushed = c.flush_per_flow(true, clock(2));
        assert_eq!(flushed, 1);
        assert_eq!(store.with(|s| s.owner_of(&key)), None);
        // The new instance can now acquire it.
        let mut newer = StateClient::new(
            VertexId(1),
            InstanceId(5),
            Box::new(store.clone()),
            ExternalizationMode::ExternalizedCachedNonBlocking,
            CostModel::default(),
            &specs(),
        );
        assert!(newer.try_acquire("port_map", sk).is_ok());
    }

    #[test]
    fn nondet_values_are_stable_across_replay() {
        let store = SharedStore::new();
        let mut c = client(ExternalizationMode::ExternalizedCachedNonBlocking, &store);
        let v1 = c.nondet(clock(9), 0, Value::Int(111));
        let v2 = c.nondet(clock(9), 0, Value::Int(222));
        assert_eq!(v1, v2);
    }

    #[test]
    fn write_behind_buffers_flushes_until_drained() {
        let store = SharedStore::new();
        let mut c = client(ExternalizationMode::ExternalizedCachedNonBlocking, &store);
        c.set_write_behind(true, 64);
        c.update("pkt_count", None, Operation::Increment(1), clock(1));
        c.update("pkt_count", None, Operation::Increment(1), clock(2));
        // The store lags until the drain.
        assert_eq!(c.write_behind_depth(), 2);
        assert_eq!(
            store.with(|s| s.peek(&c.state_key("pkt_count", None))),
            Value::None
        );
        // WAL and XOR tokens were recorded at buffer time, not drain time.
        assert_eq!(c.wal().len(), 2);
        assert_eq!(c.take_packet_tokens().len(), 2);
        assert_eq!(c.drain_write_behind(), 2);
        assert_eq!(
            store.with(|s| s.peek(&c.state_key("pkt_count", None))),
            Value::Int(2)
        );
        assert_eq!(c.write_behind_depth(), 0);
        // A blocking read sees the drained value (and would drain first
        // itself if anything were still buffered).
        assert_eq!(c.read("pkt_count", None, clock(3)), Value::Int(2));
    }

    #[test]
    fn write_behind_drains_at_cap_and_before_blocking_access() {
        let store = SharedStore::new();
        let mut c = client(ExternalizationMode::ExternalizedCachedNonBlocking, &store);
        c.set_write_behind(true, 2);
        c.update("pkt_count", None, Operation::Increment(1), clock(1));
        assert_eq!(c.write_behind_depth(), 1);
        // Reaching the cap drains in place.
        c.update("pkt_count", None, Operation::Increment(1), clock(2));
        assert_eq!(c.write_behind_depth(), 0);
        assert_eq!(
            store.with(|s| s.peek(&c.state_key("pkt_count", None))),
            Value::Int(2)
        );
        // A blocking read on an uncached object drains the buffer first.
        c.update("pkt_count", None, Operation::Increment(1), clock(3));
        assert_eq!(c.write_behind_depth(), 1);
        c.read("config", None, clock(4));
        assert_eq!(c.write_behind_depth(), 0);
        assert_eq!(
            store.with(|s| s.peek(&c.state_key("pkt_count", None))),
            Value::Int(3)
        );
        // Disabling drains whatever is left.
        c.update("pkt_count", None, Operation::Increment(1), clock(5));
        c.set_write_behind(false, 0);
        assert_eq!(
            store.with(|s| s.peek(&c.state_key("pkt_count", None))),
            Value::Int(4)
        );
    }

    #[test]
    fn write_behind_drains_before_exclusivity_loss() {
        let store = SharedStore::new();
        let mut c = client(ExternalizationMode::ExternalizedCachedNonBlocking, &store);
        c.set_write_behind(true, 64);
        c.update("likelihood", None, Operation::Increment(5), clock(1));
        assert_eq!(c.write_behind_depth(), 1);
        // Losing exclusivity flushes the cached value via `Set`; the
        // buffered increment must land first or the next drain would
        // double-apply on top of the Set.
        c.set_exclusive("likelihood", false, clock(2));
        assert_eq!(c.write_behind_depth(), 0);
        assert_eq!(
            store.with(|s| s.peek(&c.state_key("likelihood", None))),
            Value::Int(5)
        );
    }

    #[test]
    fn crash_drops_local_state_but_store_survives() {
        let store = SharedStore::new();
        let mut c = client(ExternalizationMode::ExternalizedCachedNonBlocking, &store);
        let sk = Some(ScopeKey::Port(7));
        c.update("port_map", sk, Operation::Set(Value::Int(42)), clock(1));
        c.drop_all_local_state();
        // R1: the value is still available externally.
        assert_eq!(
            store.with(|s| s.peek(&c.state_key("port_map", sk))),
            Value::Int(42)
        );
        assert!(c.cached_per_flow().is_empty());
    }
}
