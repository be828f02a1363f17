//! A single datastore instance.
//!
//! [`StoreInstance`] is the in-memory key-value store at the heart of CHC
//! (§4.3). It serializes offloaded operations, enforces per-flow ownership,
//! tracks callback registrations for read-heavy cached objects, logs
//! clock-tagged updates of in-flight packets for duplicate suppression
//! (§5.3), maintains the per-instance `TS` metadata and periodic checkpoints
//! used for store recovery (§5.4, Figure 7), and computes/logs
//! non-deterministic values (Appendix A).
//!
//! The struct itself is single-threaded; the simulated chain wraps it in a
//! store actor, and [`crate::server::StoreServer`] shards several instances
//! across threads for the real-thread throughput benchmarks (the paper pins
//! each state object to exactly one store thread to avoid locking overhead).

use crate::dedup::DedupLog;
use crate::error::StoreError;
use crate::key::{CanonKey, CanonMap, CanonView, Clock, InstanceId, ObjectKey, StateKey, VertexId};
use crate::ops::{apply_in_place, CustomOpFn, OpOutcome, Operation};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};

/// An entry stored at a canonical key.
#[derive(Debug, Clone, Default, PartialEq)]
struct Entry {
    value: Value,
    /// For per-flow objects: the instance currently allowed to update the
    /// object. `None` for shared objects (any instance of the vertex may
    /// issue operations; the store serializes them).
    owner: Option<InstanceId>,
    /// Dense id, assigned at creation and stable for the instance's life
    /// (entries are never removed): how the dedup log names this object.
    id: u32,
}

/// Kinds of non-deterministic values an NF may request from the store
/// (Appendix A). The store logs the value per (clock, slot) so replayed
/// packets observe identical non-determinism.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum NonDetKind {
    /// A random number (e.g. for sampling decisions).
    Random,
    /// A timestamp ("gettimeofday").
    Timestamp,
    /// Any other locally computed non-deterministic quantity.
    Other,
}

/// A consistent snapshot of a store instance: the state plus the `TS`
/// metadata (the logical clock of the last operation executed on behalf of
/// each NF instance), as described in §5.4 "Datastore instance".
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct Checkpoint {
    entries: BTreeMap<String, (StateKey, Value, Option<InstanceId>)>,
    /// Logical clock of the last operation applied per instance.
    pub ts: HashMap<InstanceId, Clock>,
    /// Virtual time at which the checkpoint was taken (informational).
    pub taken_at_ns: u64,
}

impl Checkpoint {
    /// Number of objects captured.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the checkpoint holds no objects.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Look up the value of a key in the checkpoint.
    pub fn value_of(&self, key: &StateKey) -> Option<&Value> {
        self.entries
            .get(&key.canonical().to_string())
            .map(|(_, v, _)| v)
    }
}

/// Result of applying an operation at the store.
#[derive(Debug, Clone, PartialEq)]
pub struct ApplyResult {
    /// The operation outcome returned to the requester.
    pub outcome: OpOutcome,
    /// Instances (other than the requester) that registered callbacks on the
    /// object and must be notified of the new value.
    pub notify: Vec<InstanceId>,
    /// The object's value after the operation — what callbacks carry — when
    /// the object has callback subscribers, the requester included. Whole
    /// values travel to subscribers only (§4.3); without one the requester
    /// gets `outcome` and nothing is copied.
    pub new_value: Option<Value>,
}

/// Who holds a copy of the object at `key` that callbacks keep current. Only
/// they are sent its value; an op on anything else copies nothing but its
/// own result.
fn subscribers<'a>(
    callbacks: &'a CanonMap<HashSet<InstanceId>>,
    key: &StateKey,
) -> Option<&'a HashSet<InstanceId>> {
    if callbacks.is_empty() {
        return None;
    }
    callbacks
        .get(key as &dyn CanonView)
        .filter(|set| !set.is_empty())
}

/// A single CHC datastore instance. See the module documentation.
#[derive(Default, Clone)]
pub struct StoreInstance {
    entries: CanonMap<Entry>,
    custom_ops: HashMap<String, CustomOpFn>,
    /// Duplicate-suppression log: per packet clock, the updates it induced
    /// here and what each returned. Kept only while some packet log could
    /// still replay the packet — the root's delete forgets one clock, the
    /// replay floor a whole prefix.
    dedup: DedupLog,
    /// The replay floor: the lowest clock counter a packet log may still
    /// replay. Updates of packets below it cannot be duplicates, so they
    /// are neither looked up nor logged. Zero until someone raises it.
    floor: u64,
    /// Last operation clock per requesting instance (the `TS` metadata).
    ts: HashMap<InstanceId, Clock>,
    /// Callback registrations per canonical key.
    callbacks: CanonMap<HashSet<InstanceId>>,
    /// Fail-stop flag: a failed instance answers nothing.
    failed: bool,
    /// Counters for reports.
    ops_applied: u64,
    ops_emulated: u64,
}

impl StoreInstance {
    /// Create an empty store instance.
    pub fn new() -> StoreInstance {
        StoreInstance::default()
    }

    /// Register a custom operation under `name` (Table 2, "Developers can
    /// also load custom operations").
    pub fn register_custom_op(&mut self, name: &str, f: CustomOpFn) {
        self.custom_ops.insert(name.to_string(), f);
    }

    /// Mark the instance failed / recovered.
    pub fn set_failed(&mut self, failed: bool) {
        self.failed = failed;
    }

    /// True if the instance is currently failed.
    pub fn is_failed(&self) -> bool {
        self.failed
    }

    /// Number of objects stored.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if the store holds no objects.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total operations applied (excluding emulated duplicates).
    pub fn ops_applied(&self) -> u64 {
        self.ops_applied
    }

    /// Operations answered from the duplicate-suppression log.
    pub fn ops_emulated(&self) -> u64 {
        self.ops_emulated
    }

    /// Approximate bytes of state stored.
    pub fn state_bytes(&self) -> usize {
        self.entries.values().map(|e| e.value.size_bytes()).sum()
    }

    fn check_available(&self) -> Result<(), StoreError> {
        if self.failed {
            Err(StoreError::Unavailable)
        } else {
            Ok(())
        }
    }

    fn entry(&self, key: &StateKey) -> Option<&Entry> {
        self.entries.get(key as &dyn CanonView)
    }

    fn entry_mut(&mut self, key: &StateKey) -> Option<&mut Entry> {
        self.entries.get_mut(key as &dyn CanonView)
    }

    /// The entry at `key`, created empty and unowned if absent.
    fn entry_or_create(&mut self, key: &StateKey) -> &mut Entry {
        let id = self.entries.len() as u32;
        self.entries.entry(CanonKey::of(key)).or_insert(Entry {
            id,
            ..Entry::default()
        })
    }

    /// Apply an operation on behalf of `requester`.
    ///
    /// `clock` is the logical clock of the packet that induced the operation;
    /// when present it drives the `TS` metadata and duplicate suppression:
    /// if an update for the same `(key, clock)` was already applied the store
    /// *emulates* the operation, returning the previously returned value
    /// without mutating state (§5.3, Figure 5b). A clock below the replay
    /// floor ([`StoreInstance::forget_through`]) cannot be a duplicate: it
    /// still moves `TS`, but is neither looked up nor logged.
    pub fn apply(
        &mut self,
        requester: InstanceId,
        key: &StateKey,
        op: &Operation,
        clock: Option<Clock>,
    ) -> Result<ApplyResult, StoreError> {
        self.apply_inner(requester, key, op, clock, true)
    }

    /// Re-apply a journaled operation during shard recovery. The journal
    /// holds exactly the operations that were applied live (emulated ones
    /// are not journaled), so replay applies without consulting the log —
    /// whatever the floor was then or is now — and logs the update again
    /// only if its clock can still be replayed.
    pub fn replay_journaled(
        &mut self,
        requester: InstanceId,
        key: &StateKey,
        op: &Operation,
        clock: Option<Clock>,
    ) -> Result<ApplyResult, StoreError> {
        self.apply_inner(requester, key, op, clock, false)
    }

    /// [`StoreInstance::apply`], or with `suppress_duplicates` off
    /// [`StoreInstance::replay_journaled`]. Nothing here hashes: the maps
    /// are probed under the hash `key` carries.
    fn apply_inner(
        &mut self,
        requester: InstanceId,
        key: &StateKey,
        op: &Operation,
        clock: Option<Clock>,
        suppress_duplicates: bool,
    ) -> Result<ApplyResult, StoreError> {
        self.check_available()?;
        // Only mutating ops of packets that can still be replayed take part
        // in duplicate suppression.
        let replayable = clock.filter(|c| !op.is_read_only() && c.counter() >= self.floor);

        // A missing object is built on the side and only installed once the
        // operation succeeded (a failed first touch leaves no entry behind).
        let mut fresh = None;
        let (entry, created) = match self.entries.get_mut(key as &dyn CanonView) {
            Some(entry) => (entry, false),
            None => {
                let entry = fresh.insert(Entry {
                    value: Value::None,
                    owner: key.instance,
                    id: self.entries.len() as u32,
                });
                (entry, true)
            }
        };

        if key.is_per_flow() {
            if let Some(owner) = entry.owner.filter(|o| *o != requester) {
                return Err(StoreError::NotOwner {
                    key: key.clone(),
                    requester,
                    owner: Some(owner),
                });
            }
        }

        // A re-issued operation is recognised by (key, clock, operation).
        let packet = replayable.map(|c| self.dedup.packet(c));
        if let Some(packet) = packet.as_ref().filter(|_| suppress_duplicates && !created) {
            if let Some(prev) = packet.find(entry.id, op) {
                self.ops_emulated += 1;
                return Ok(ApplyResult {
                    outcome: OpOutcome::emulated(prev),
                    notify: Vec::new(),
                    new_value: subscribers(&self.callbacks, key).map(|_| entry.value.clone()),
                });
            }
        }

        let custom = &self.custom_ops;
        let resolver = |name: &str| custom.get(name).copied();
        let (returned, changed) =
            apply_in_place(|| key.clone(), &mut entry.value, op, Some(&resolver))?;
        // First touch of a per-flow object records its owner.
        if key.is_per_flow() && entry.owner.is_none() {
            entry.owner = key.instance;
        }

        if let Some(c) = clock {
            self.ts.insert(requester, c);
        }
        if let Some(packet) = packet {
            packet.record(entry.id, op, &returned);
        }
        self.ops_applied += 1;

        // Subscribers are sent the object. Without one — the common case,
        // one branch — the op copies nothing but its own result.
        let (notify, new_value) = match subscribers(&self.callbacks, key) {
            None => (Vec::new(), None),
            Some(set) => {
                let others = set.iter().copied().filter(|i| *i != requester);
                let notify = if changed {
                    others.collect()
                } else {
                    Vec::new()
                };
                (notify, Some(entry.value.clone()))
            }
        };
        if let Some(fresh) = fresh {
            self.entries.insert(CanonKey::of(key), fresh);
        }

        Ok(ApplyResult {
            outcome: OpOutcome::applied(returned),
            notify,
            new_value,
        })
    }

    /// Read a value without touching metadata (used by reports and tests).
    pub fn peek(&self, key: &StateKey) -> Value {
        self.entry(key).map(|e| e.value.clone()).unwrap_or_default()
    }

    /// Current `TS` metadata (last clock applied per instance).
    pub fn ts(&self) -> &HashMap<InstanceId, Clock> {
        &self.ts
    }

    /// All keys currently stored for a vertex (used by recovery tooling).
    pub fn keys_of_vertex(&self, vertex: VertexId) -> Vec<StateKey> {
        self.entries
            .keys()
            .map(CanonKey::state_key)
            .filter(|k| k.vertex == vertex)
            .cloned()
            .collect()
    }

    /// All keys whose object name matches `name`.
    pub fn keys_named(&self, name: &str) -> Vec<StateKey> {
        self.entries
            .keys()
            .map(CanonKey::state_key)
            .filter(|k| &*k.object.name == name)
            .cloned()
            .collect()
    }

    // ------------------------------------------------------------------
    // Ownership management (per-flow state handover, §5.1 / Figure 4)
    // ------------------------------------------------------------------

    /// Current owner of a per-flow object, if any.
    pub fn owner_of(&self, key: &StateKey) -> Option<InstanceId> {
        self.entry(key).and_then(|e| e.owner)
    }

    /// Disassociate `instance` from the object (step 5 of the handover).
    /// Only the current owner may release; releasing an unowned object is a
    /// no-op so retried handovers stay idempotent.
    pub fn release_ownership(
        &mut self,
        key: &StateKey,
        instance: InstanceId,
    ) -> Result<(), StoreError> {
        self.check_available()?;
        if let Some(entry) = self.entry_mut(key) {
            match entry.owner {
                Some(o) if o == instance => entry.owner = None,
                Some(o) => {
                    return Err(StoreError::NotOwner {
                        key: key.clone(),
                        requester: instance,
                        owner: Some(o),
                    })
                }
                None => {}
            }
        }
        Ok(())
    }

    /// Associate `instance` with the object (step 7 of the handover). Fails
    /// while another instance still owns it.
    pub fn acquire_ownership(
        &mut self,
        key: &StateKey,
        instance: InstanceId,
    ) -> Result<(), StoreError> {
        self.check_available()?;
        let entry = self.entry_or_create(key);
        match entry.owner {
            None => {
                entry.owner = Some(instance);
                Ok(())
            }
            Some(o) if o == instance => Ok(()),
            Some(o) => Err(StoreError::NotOwner {
                key: key.clone(),
                requester: instance,
                owner: Some(o),
            }),
        }
    }

    /// Reassign ownership of every per-flow object currently owned by `from`
    /// to `to` (used for NF failover, where the framework re-associates the
    /// failed instance's state with the failover instance, §5.4).
    pub fn reassign_owner(&mut self, from: InstanceId, to: InstanceId) -> usize {
        let mut n = 0;
        for entry in self.entries.values_mut() {
            if entry.owner == Some(from) {
                entry.owner = Some(to);
                n += 1;
            }
        }
        n
    }

    // ------------------------------------------------------------------
    // Callbacks (read-heavy cached cross-flow objects, Table 1)
    // ------------------------------------------------------------------

    /// Register `instance` to be notified whenever the object changes.
    pub fn register_callback(&mut self, key: &StateKey, instance: InstanceId) {
        self.callbacks
            .entry(CanonKey::of(key))
            .or_default()
            .insert(instance);
    }

    /// Remove a callback registration.
    pub fn unregister_callback(&mut self, key: &StateKey, instance: InstanceId) {
        if let Some(set) = self.callbacks.get_mut(key as &dyn CanonView) {
            set.remove(&instance);
        }
    }

    /// Instances registered for callbacks on `key`.
    pub fn callback_registrations(&self, key: &StateKey) -> Vec<InstanceId> {
        self.callbacks
            .get(key as &dyn CanonView)
            .map(|s| s.iter().copied().collect())
            .unwrap_or_default()
    }

    // ------------------------------------------------------------------
    // Duplicate-suppression log maintenance
    // ------------------------------------------------------------------

    /// Forget everything logged for `clock` — its updates and its
    /// non-deterministic values. Called when the root deletes the packet (it
    /// is no longer in flight anywhere).
    pub fn forget_clock(&mut self, clock: Clock) {
        self.dedup.forget_clock(clock);
    }

    /// Raise the replay floor to just above `counter`: forget everything
    /// logged for packets with a clock counter at or below it (whichever
    /// root stamped them), and stop looking up or logging such clocks. The
    /// caller asserts that no packet log can replay them any more. The floor
    /// never moves down.
    pub fn forget_through(&mut self, counter: u64) {
        self.raise_floor(counter.saturating_add(1));
    }

    /// Raise the replay floor to `floor` (see
    /// [`StoreInstance::replay_floor`]); a lower value is ignored.
    pub(crate) fn raise_floor(&mut self, floor: u64) {
        if floor > self.floor {
            self.floor = floor;
            self.dedup.forget_below(floor);
        }
    }

    /// The replay floor: the lowest clock counter that may still be
    /// replayed; counters below it are neither looked up nor logged (0 until
    /// [`StoreInstance::forget_through`] raises it).
    pub fn replay_floor(&self) -> u64 {
        self.floor
    }

    /// Number of clock-tagged updates currently retained. O(1).
    pub fn update_log_len(&self) -> usize {
        self.dedup.len()
    }

    /// Most updates a single packet has ever held in the log of this
    /// instance (what one packet above the floor can cost).
    pub fn update_log_widest_packet(&self) -> usize {
        self.dedup.widest_slot()
    }

    // ------------------------------------------------------------------
    // Non-deterministic values (Appendix A)
    // ------------------------------------------------------------------

    /// Return the non-deterministic value for `(clock, slot)`, computing and
    /// logging `candidate` on first request. A replayed packet (same clock)
    /// observes the identical value, keeping straggler clones and failover
    /// instances deterministic. Below the replay floor there is no replay to
    /// keep deterministic, so the candidate is returned unlogged.
    pub fn nondet_value(&mut self, clock: Clock, slot: u32, candidate: Value) -> Value {
        if clock.counter() < self.floor {
            return candidate;
        }
        self.dedup.nondet_value(clock, slot, candidate)
    }

    // ------------------------------------------------------------------
    // Checkpoint / restore (store fault tolerance, §5.4)
    // ------------------------------------------------------------------

    /// Take a checkpoint of all state plus the `TS` metadata.
    pub fn checkpoint(&self, taken_at_ns: u64) -> Checkpoint {
        let entries = self
            .entries()
            .into_iter()
            .map(|(k, v, o)| (k.to_string(), (k, v, o)))
            .collect();
        Checkpoint {
            entries,
            ts: self.ts.clone(),
            taken_at_ns,
        }
    }

    /// Replace the store contents with a checkpoint (used to boot a failover
    /// store instance before the write-ahead logs are re-executed).
    pub fn restore(&mut self, checkpoint: &Checkpoint) {
        self.entries.clear();
        for (key, value, owner) in checkpoint.entries.values() {
            self.install(key, value.clone(), *owner);
        }
        self.ts = checkpoint.ts.clone();
        self.dedup.clear_updates();
        self.failed = false;
    }

    /// Directly install a value (used when recovering per-flow state from the
    /// caches of NF instances, which hold the freshest copy, §5.4).
    pub fn install(&mut self, key: &StateKey, value: Value, owner: Option<InstanceId>) {
        let entry = self.entry_or_create(key);
        entry.value = value;
        entry.owner = owner.or(key.instance);
    }

    /// Every stored object as `(canonical key, value, owner)`. Used by the
    /// substrate-equivalence checks to digest final state and by recovery
    /// tooling; order is unspecified.
    pub fn entries(&self) -> Vec<(StateKey, Value, Option<InstanceId>)> {
        self.entries
            .iter()
            .map(|(k, e)| (k.state_key().clone(), e.value.clone(), e.owner))
            .collect()
    }

    // ------------------------------------------------------------------
    // Durable full-image capture (storage backends, `crate::backend`)
    // ------------------------------------------------------------------

    /// Capture the *complete* instance — values, ownership, `TS`, the
    /// duplicate-suppression log, logged non-determinism, callback
    /// registrations and counters — as plain data a durable backend can
    /// encode byte-by-byte. The log holds nothing at or below the replay
    /// floor, so neither does the image: its size follows the packets still
    /// replayable, not the history. Custom operations are captured by *name*
    /// only (function pointers are not serializable); the backend
    /// re-resolves them from its resident registration table on restore.
    /// Sequences are deterministically ordered so the same state always
    /// encodes to the same bytes.
    pub fn durable_image(&self) -> DurableImage {
        // Key order is the order of the keys' printed forms: print each key
        // once, and remember where each entry landed, by id.
        let mut ordered: Vec<(&CanonKey, &Entry)> = self.entries.iter().collect();
        ordered.sort_by_cached_key(|(key, _)| key.state_key().to_string());
        let mut rank_of = vec![0u32; ordered.len()];
        for (rank, (_, entry)) in ordered.iter().enumerate() {
            rank_of[entry.id as usize] = rank as u32;
        }
        let entries = ordered
            .iter()
            .map(|(key, entry)| (key.state_key().clone(), entry.value.clone(), entry.owner))
            .collect();
        // The log names objects by entry id; the image names them by key and
        // orders them by (key, clock) — which is (rank, clock), so nothing
        // is printed or cloned per logged update.
        let mut logged: Vec<(u32, Clock, (Operation, Value))> = self
            .dedup
            .iter()
            .map(|(clock, entry, op, returned)| (rank_of[entry as usize], clock, (op, returned)))
            .collect();
        // Stable: the updates of one (key, clock) keep their order.
        logged.sort_by_key(|(rank, clock, _)| (*rank, *clock));
        let mut update_log: UpdateLogImage = Vec::new();
        let mut open = None;
        for (rank, clock, update) in logged {
            match update_log.last_mut() {
                Some((_, _, ops)) if open == Some((rank, clock)) => ops.push(update),
                _ => {
                    let key = ordered[rank as usize].0.state_key().clone();
                    update_log.push((key, clock, vec![update]));
                    open = Some((rank, clock));
                }
            }
        }
        let mut ts: Vec<(InstanceId, Clock)> = self.ts.iter().map(|(i, c)| (*i, *c)).collect();
        ts.sort_unstable_by_key(|(i, _)| *i);
        let mut nondet_log: Vec<(Clock, u32, Value)> = self
            .dedup
            .nondet_iter()
            .map(|(c, slot, v)| (c, slot, v.clone()))
            .collect();
        nondet_log.sort_by_key(|(c, slot, _)| (*c, *slot));
        let mut callbacks: Vec<(StateKey, Vec<InstanceId>)> = self
            .callbacks
            .iter()
            .map(|(k, set)| {
                let mut who: Vec<InstanceId> = set.iter().copied().collect();
                who.sort_unstable();
                (k.state_key().clone(), who)
            })
            .collect();
        callbacks.sort_by_cached_key(|(k, _)| k.to_string());
        let mut custom_op_names: Vec<String> = self.custom_ops.keys().cloned().collect();
        custom_op_names.sort();
        DurableImage {
            entries,
            ts,
            update_log,
            nondet_log,
            callbacks,
            custom_op_names,
            failed: self.failed,
            ops_applied: self.ops_applied,
            ops_emulated: self.ops_emulated,
        }
    }

    /// Rebuild an instance from a [`DurableImage`]. `resolve` maps captured
    /// custom-operation names back to registered functions (names it cannot
    /// resolve are dropped — the owning backend re-registers its resident
    /// table on top regardless). The replay floor is the server's knowledge,
    /// not the image's: the rebuilt instance starts at floor zero and the
    /// server raises it again under the lock hold that recovered the shard.
    pub fn from_durable_image(
        image: DurableImage,
        resolve: &dyn Fn(&str) -> Option<CustomOpFn>,
    ) -> StoreInstance {
        let mut instance = StoreInstance::new();
        for (key, value, owner) in image.entries {
            let entry = instance.entry_or_create(&key);
            entry.value = value;
            entry.owner = owner;
        }
        instance.ts = image.ts.into_iter().collect();
        for (key, clock, ops) in image.update_log {
            let id = instance.entry_or_create(&key).id;
            for (op, returned) in ops {
                instance.dedup.packet(clock).record(id, &op, &returned);
            }
        }
        for (clock, slot, value) in image.nondet_log {
            instance.dedup.nondet_value(clock, slot, value);
        }
        for (key, who) in image.callbacks {
            instance
                .callbacks
                .insert(CanonKey::of(&key), who.into_iter().collect());
        }
        for name in image.custom_op_names {
            if let Some(f) = resolve(&name) {
                instance.custom_ops.insert(name, f);
            }
        }
        instance.failed = image.failed;
        instance.ops_applied = image.ops_applied;
        instance.ops_emulated = image.ops_emulated;
        instance
    }
}

/// Key-and-clock-ordered duplicate-suppression log entries of a
/// [`DurableImage`]: per `(key, clock)`, the applied update operations and
/// the value each returned.
pub type UpdateLogImage = Vec<(StateKey, Clock, Vec<(Operation, Value)>)>;

/// The complete durable image of a [`StoreInstance`], as plain ordered data.
/// See [`StoreInstance::durable_image`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DurableImage {
    /// Stored objects: `(canonical key, value, owner)`, key-ordered.
    pub entries: Vec<(StateKey, Value, Option<InstanceId>)>,
    /// The `TS` metadata, instance-ordered.
    pub ts: Vec<(InstanceId, Clock)>,
    /// Duplicate-suppression log entries.
    pub update_log: UpdateLogImage,
    /// Logged non-deterministic values per `(clock, slot)`.
    pub nondet_log: Vec<(Clock, u32, Value)>,
    /// Callback registrations per canonical key, instance-ordered.
    pub callbacks: Vec<(StateKey, Vec<InstanceId>)>,
    /// Names of registered custom operations (functions re-resolved on
    /// restore).
    pub custom_op_names: Vec<String>,
    /// Fail-stop flag.
    pub failed: bool,
    /// Operations applied (excluding emulated duplicates).
    pub ops_applied: u64,
    /// Operations answered from the duplicate-suppression log.
    pub ops_emulated: u64,
}

/// Convenience constructor for per-flow keys used across the workspace.
pub fn per_flow_key(
    vertex: VertexId,
    instance: InstanceId,
    name: &str,
    scope_key: chc_packet::ScopeKey,
) -> StateKey {
    StateKey::per_flow(vertex, instance, ObjectKey::scoped(name, scope_key))
}

/// Convenience constructor for shared keys used across the workspace.
pub fn shared_key(
    vertex: VertexId,
    name: &str,
    scope_key: Option<chc_packet::ScopeKey>,
) -> StateKey {
    match scope_key {
        Some(sk) => StateKey::shared(vertex, ObjectKey::scoped(name, sk)),
        None => StateKey::shared(vertex, ObjectKey::named(name)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_packet::ScopeKey;
    use std::net::Ipv4Addr;

    fn v() -> VertexId {
        VertexId(1)
    }

    fn shared(name: &str) -> StateKey {
        StateKey::shared(v(), ObjectKey::named(name))
    }

    fn per_flow(name: &str, instance: u32) -> StateKey {
        StateKey::per_flow(
            v(),
            InstanceId(instance),
            ObjectKey::scoped(name, ScopeKey::Host(Ipv4Addr::new(10, 0, 0, 1))),
        )
    }

    #[test]
    fn operations_serialize_across_instances() {
        let mut store = StoreInstance::new();
        let key = shared("pkt_count");
        for i in 0..10 {
            let who = InstanceId(i % 3);
            store
                .apply(who, &key, &Operation::Increment(1), None)
                .unwrap();
        }
        assert_eq!(store.peek(&key), Value::Int(10));
        assert_eq!(store.ops_applied(), 10);
    }

    #[test]
    fn per_flow_ownership_enforced() {
        let mut store = StoreInstance::new();
        let key1 = per_flow("conn", 1);
        store
            .apply(InstanceId(1), &key1, &Operation::Set(Value::Int(5)), None)
            .unwrap();
        // Another instance may not touch it, even via its own key.
        let key2 = per_flow("conn", 2);
        let err = store
            .apply(InstanceId(2), &key2, &Operation::Increment(1), None)
            .unwrap_err();
        assert!(matches!(
            err,
            StoreError::NotOwner {
                owner: Some(InstanceId(1)),
                ..
            }
        ));
        // Handover: release then acquire, after which instance 2 may update.
        store.release_ownership(&key1, InstanceId(1)).unwrap();
        store.acquire_ownership(&key2, InstanceId(2)).unwrap();
        store
            .apply(InstanceId(2), &key2, &Operation::Increment(1), None)
            .unwrap();
        assert_eq!(store.peek(&key2), Value::Int(6));
        assert_eq!(store.owner_of(&key1), Some(InstanceId(2)));
    }

    #[test]
    fn release_by_non_owner_rejected() {
        let mut store = StoreInstance::new();
        let key = per_flow("conn", 1);
        store
            .apply(InstanceId(1), &key, &Operation::Set(Value::Int(1)), None)
            .unwrap();
        assert!(store.release_ownership(&key, InstanceId(9)).is_err());
        assert!(store.acquire_ownership(&key, InstanceId(9)).is_err());
        // Acquiring what you already own is idempotent.
        assert!(store
            .acquire_ownership(&per_flow("conn", 1), InstanceId(1))
            .is_ok());
    }

    #[test]
    fn duplicate_updates_are_emulated() {
        let mut store = StoreInstance::new();
        let key = shared("pkt_count");
        let clock = Clock::with_root(0, 42);
        let first = store
            .apply(InstanceId(0), &key, &Operation::Increment(1), Some(clock))
            .unwrap();
        assert!(!first.outcome.emulated);
        assert_eq!(first.outcome.returned, Value::Int(1));
        // A replayed packet issues the same update with the same clock.
        let second = store
            .apply(InstanceId(0), &key, &Operation::Increment(1), Some(clock))
            .unwrap();
        assert!(second.outcome.emulated);
        assert_eq!(second.outcome.returned, Value::Int(1));
        assert_eq!(store.peek(&key), Value::Int(1), "state not double-counted");
        assert_eq!(store.ops_emulated(), 1);
        // Once the packet is deleted at the root the log entry is dropped and
        // a (hypothetical) new packet reusing the clock would apply normally.
        store.forget_clock(clock);
        assert_eq!(store.update_log_len(), 0);
        let third = store
            .apply(InstanceId(0), &key, &Operation::Increment(1), Some(clock))
            .unwrap();
        assert!(!third.outcome.emulated);
        assert_eq!(store.peek(&key), Value::Int(2));
    }

    #[test]
    fn replay_floor_prunes_the_log_and_stops_logging_below_it() {
        let mut store = StoreInstance::new();
        let key = shared("pkt_count");
        let incr = Operation::Increment(1);
        for c in 1..=6 {
            let clock = Clock::with_root((c % 2) as u8, c);
            store
                .apply(InstanceId(0), &key, &incr, Some(clock))
                .unwrap();
        }
        assert_eq!(store.update_log_len(), 6);
        // No packet log can replay counters 1..=4 any more, whichever root.
        store.forget_through(4);
        assert_eq!(store.replay_floor(), 5);
        assert_eq!(store.update_log_len(), 2);
        // Below the floor an update cannot be a duplicate: it applies, moves
        // `TS`, and leaves no trace in the log.
        let late = Clock::with_root(0, 3);
        let r = store.apply(InstanceId(7), &key, &incr, Some(late)).unwrap();
        assert!(!r.outcome.emulated);
        assert_eq!(store.peek(&key), Value::Int(7));
        assert_eq!(store.ts()[&InstanceId(7)], late);
        assert_eq!(store.update_log_len(), 2);
        // At and above it, suppression works as before.
        let live = Clock::with_root(1, 5);
        let r = store.apply(InstanceId(0), &key, &incr, Some(live)).unwrap();
        assert!(r.outcome.emulated);
        // The floor never moves down.
        store.forget_through(2);
        assert_eq!(store.replay_floor(), 5);
        // Journal replay applies what was applied live, without asking the
        // log, and logs it again only while it is replayable.
        let r = store
            .replay_journaled(InstanceId(0), &key, &incr, Some(live))
            .unwrap();
        assert!(!r.outcome.emulated);
        assert_eq!(store.peek(&key), Value::Int(8));
        assert_eq!(store.update_log_len(), 3);
    }

    #[test]
    fn reads_are_never_emulated() {
        let mut store = StoreInstance::new();
        let key = shared("x");
        let clock = Clock::with_root(0, 1);
        store
            .apply(
                InstanceId(0),
                &key,
                &Operation::Set(Value::Int(3)),
                Some(clock),
            )
            .unwrap();
        let r1 = store
            .apply(InstanceId(0), &key, &Operation::Get, Some(clock))
            .unwrap();
        let r2 = store
            .apply(InstanceId(0), &key, &Operation::Get, Some(clock))
            .unwrap();
        assert!(!r1.outcome.emulated && !r2.outcome.emulated);
        assert_eq!(r2.outcome.returned, Value::Int(3));
    }

    #[test]
    fn ts_metadata_tracks_last_clock_per_instance() {
        let mut store = StoreInstance::new();
        let key = shared("x");
        store
            .apply(
                InstanceId(1),
                &key,
                &Operation::Increment(1),
                Some(Clock::with_root(0, 5)),
            )
            .unwrap();
        store
            .apply(
                InstanceId(2),
                &key,
                &Operation::Increment(1),
                Some(Clock::with_root(0, 9)),
            )
            .unwrap();
        store
            .apply(
                InstanceId(1),
                &key,
                &Operation::Increment(1),
                Some(Clock::with_root(0, 11)),
            )
            .unwrap();
        assert_eq!(store.ts()[&InstanceId(1)], Clock::with_root(0, 11));
        assert_eq!(store.ts()[&InstanceId(2)], Clock::with_root(0, 9));
    }

    #[test]
    fn callbacks_notify_other_registered_instances() {
        let mut store = StoreInstance::new();
        let key = shared("likelihood");
        store.register_callback(&key, InstanceId(1));
        store.register_callback(&key, InstanceId(2));
        let res = store
            .apply(InstanceId(1), &key, &Operation::Increment(5), None)
            .unwrap();
        // The updater itself is not notified.
        assert_eq!(res.notify, vec![InstanceId(2)]);
        assert_eq!(res.new_value, Some(Value::Int(5)));
        // A read does not trigger callbacks.
        let res = store
            .apply(InstanceId(2), &key, &Operation::Get, None)
            .unwrap();
        assert!(res.notify.is_empty());
        store.unregister_callback(&key, InstanceId(2));
        let res = store
            .apply(InstanceId(1), &key, &Operation::Increment(1), None)
            .unwrap();
        assert!(res.notify.is_empty());
    }

    #[test]
    fn the_value_goes_to_subscribers_only_applied_or_emulated() {
        let mut store = StoreInstance::new();
        let (watched, plain) = (shared("config"), shared("free_ports"));
        // The requester counts: a client that cached the object registered
        // itself, and its copy is the store's to keep current.
        store.register_callback(&watched, InstanceId(1));
        let clock = Some(Clock::with_root(0, 7));
        let push = Operation::PushBack(Value::Int(3));
        let after = Value::list_of_ints([3]);
        for (key, sent) in [(&watched, Some(after)), (&plain, None)] {
            let applied = store.apply(InstanceId(1), key, &push, clock).unwrap();
            assert!(!applied.outcome.emulated);
            assert_eq!(applied.new_value, sent, "{key} applied");
            let emulated = store.apply(InstanceId(1), key, &push, clock).unwrap();
            assert!(emulated.outcome.emulated);
            assert_eq!(emulated.new_value, sent, "{key} emulated");
            // An op that changes nothing notifies nobody but is answered
            // the same way.
            let read = store.apply(InstanceId(2), key, &Operation::Get, None);
            assert_eq!(read.unwrap().new_value, sent, "{key} read");
        }
        // The last subscriber gone, the object is like any other.
        store.unregister_callback(&watched, InstanceId(1));
        let r = store.apply(InstanceId(1), &watched, &push, None).unwrap();
        assert_eq!(r.new_value, None);
    }

    #[test]
    fn no_callback_when_value_unchanged() {
        let mut store = StoreInstance::new();
        let key = shared("cfg");
        store
            .apply(InstanceId(1), &key, &Operation::Set(Value::Int(1)), None)
            .unwrap();
        store.register_callback(&key, InstanceId(2));
        // compare-and-update whose condition fails leaves the value unchanged.
        let res = store
            .apply(
                InstanceId(1),
                &key,
                &Operation::CompareAndUpdate {
                    condition: crate::ops::Condition::Absent,
                    new: Value::Int(9),
                },
                None,
            )
            .unwrap();
        assert!(res.notify.is_empty());
    }

    #[test]
    fn checkpoint_and_restore() {
        let mut store = StoreInstance::new();
        let key = shared("x");
        store
            .apply(
                InstanceId(1),
                &key,
                &Operation::Increment(7),
                Some(Clock::with_root(0, 3)),
            )
            .unwrap();
        let cp = store.checkpoint(123);
        assert_eq!(cp.len(), 1);
        assert_eq!(cp.value_of(&key), Some(&Value::Int(7)));
        assert_eq!(cp.ts[&InstanceId(1)], Clock::with_root(0, 3));

        // Keep mutating after the checkpoint, then simulate a crash.
        store
            .apply(InstanceId(1), &key, &Operation::Increment(1), None)
            .unwrap();
        assert_eq!(store.peek(&key), Value::Int(8));
        let mut recovered = StoreInstance::new();
        recovered.restore(&cp);
        assert_eq!(recovered.peek(&key), Value::Int(7));
        assert_eq!(recovered.ts()[&InstanceId(1)], Clock::with_root(0, 3));
    }

    #[test]
    fn failed_store_is_unavailable() {
        let mut store = StoreInstance::new();
        store.set_failed(true);
        let err = store
            .apply(InstanceId(0), &shared("x"), &Operation::Get, None)
            .unwrap_err();
        assert_eq!(err, StoreError::Unavailable);
        assert!(store.is_failed());
        store.set_failed(false);
        assert!(store
            .apply(InstanceId(0), &shared("x"), &Operation::Get, None)
            .is_ok());
    }

    #[test]
    fn nondet_values_replay_identically() {
        let mut store = StoreInstance::new();
        let clock = Clock::with_root(0, 77);
        let first = store.nondet_value(clock, 0, Value::Int(12345));
        // The replayed request proposes a different candidate but must get
        // the originally logged value back.
        let replay = store.nondet_value(clock, 0, Value::Int(99999));
        assert_eq!(first, replay);
        // A different slot of the same packet is independent.
        let other = store.nondet_value(clock, 1, Value::Int(7));
        assert_eq!(other, Value::Int(7));
        // Deleting the packet clears the log.
        store.forget_clock(clock);
        let fresh = store.nondet_value(clock, 0, Value::Int(1));
        assert_eq!(fresh, Value::Int(1));
    }

    #[test]
    fn reassign_owner_moves_all_per_flow_objects() {
        let mut store = StoreInstance::new();
        for host in 0..5u8 {
            let key = StateKey::per_flow(
                v(),
                InstanceId(1),
                ObjectKey::scoped("conn", ScopeKey::Host(Ipv4Addr::new(10, 0, 0, host))),
            );
            store
                .apply(
                    InstanceId(1),
                    &key,
                    &Operation::Set(Value::Int(host as i64)),
                    None,
                )
                .unwrap();
        }
        let moved = store.reassign_owner(InstanceId(1), InstanceId(7));
        assert_eq!(moved, 5);
        let key2 = StateKey::per_flow(
            v(),
            InstanceId(7),
            ObjectKey::scoped("conn", ScopeKey::Host(Ipv4Addr::new(10, 0, 0, 3))),
        );
        store
            .apply(InstanceId(7), &key2, &Operation::Increment(1), None)
            .unwrap();
        assert_eq!(store.peek(&key2), Value::Int(4));
    }

    #[test]
    fn custom_op_via_store() {
        fn clamp_add(current: &Value, arg: &Value) -> (Value, Value) {
            let v = Value::Int((current.as_int() + arg.as_int()).min(100));
            (v.clone(), v)
        }
        let mut store = StoreInstance::new();
        store.register_custom_op("clamp_add", clamp_add);
        let key = shared("score");
        let op = Operation::Custom {
            name: "clamp_add".into(),
            arg: Value::Int(80),
        };
        store.apply(InstanceId(0), &key, &op, None).unwrap();
        store.apply(InstanceId(0), &key, &op, None).unwrap();
        assert_eq!(store.peek(&key), Value::Int(100));
    }

    #[test]
    fn key_helpers_and_queries() {
        let mut store = StoreInstance::new();
        let k1 = shared_key(v(), "a", None);
        let k2 = per_flow_key(v(), InstanceId(1), "b", ScopeKey::Port(80));
        store
            .apply(InstanceId(1), &k1, &Operation::Set(Value::Int(1)), None)
            .unwrap();
        store
            .apply(InstanceId(1), &k2, &Operation::Set(Value::Int(2)), None)
            .unwrap();
        assert_eq!(store.keys_of_vertex(v()).len(), 2);
        assert_eq!(store.keys_named("a").len(), 1);
        assert!(store.state_bytes() >= 16);
        store.install(&k1, Value::Int(9), None);
        assert_eq!(store.peek(&k1), Value::Int(9));
    }
}
