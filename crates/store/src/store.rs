//! A single datastore instance.
//!
//! [`StoreInstance`] is the in-memory key-value store at the heart of CHC
//! (§4.3). It serializes offloaded operations, enforces per-flow ownership,
//! tracks callback registrations for read-heavy cached objects, logs
//! clock-tagged updates of in-flight packets for duplicate suppression
//! (§5.3), maintains the per-instance `TS` metadata that store recovery
//! reads (§5.4, Figure 7), encodes itself as a checkpoint image, and
//! computes/logs non-deterministic values (Appendix A).
//!
//! The struct itself is single-threaded: it is one shard of a
//! [`crate::server::StoreServer`], which holds it under a lock (the paper
//! pins each state object to exactly one store thread to avoid locking
//! overhead).

use crate::backend::codec::{Dec, Enc};
use crate::dedup::DedupLog;
use crate::error::StoreError;
use crate::key::{CanonKey, CanonMap, CanonView, Clock, InstanceId, ObjectKey, StateKey, VertexId};
use crate::ops::{apply_in_place, CustomOpFn, CustomOpResolver, OpOutcome, Operation};
use crate::value::Value;
use std::collections::{HashMap, HashSet};

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
    /// Where its increment marks are in `StoreInstance::marks`, plus one;
    /// 0 while it has none. It sits in padding: the entry stays 48 bytes.
    marks: u32,
}

/// Per ordered writer, the newest clock counter of its increments on an entry.
type Marks = Vec<(InstanceId, u64)>;

impl Entry {
    fn marks<'a>(&self, all: &'a [Marks]) -> &'a [(InstanceId, u64)] {
        self.marks.checked_sub(1).map_or(&[], |i| &all[i as usize])
    }

    /// Raise `writer`'s increment mark on this entry to `counter`.
    fn raise_mark(&mut self, all: &mut Vec<Marks>, writer: InstanceId, counter: u64) {
        if self.marks == 0 {
            all.push(Vec::new());
            self.marks = all.len() as u32;
        }
        let marks = &mut all[self.marks as usize - 1];
        match marks.iter_mut().find(|(w, _)| *w == writer) {
            Some((_, m)) => *m = counter.max(*m),
            None => marks.push((writer, counter)),
        }
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

/// The owner that refuses `requester` an op on `key` when `entry` is
/// another instance's per-flow object.
fn refusing_owner(entry: &Entry, key: &StateKey, requester: InstanceId) -> Option<InstanceId> {
    entry.owner.filter(|o| key.is_per_flow() && *o != requester)
}

/// A single CHC datastore instance. See the module documentation.
#[derive(Default, Clone)]
pub struct StoreInstance {
    entries: CanonMap<Entry>,
    custom_ops: HashMap<String, CustomOpFn>,
    /// Duplicate-suppression log: per packet clock, the updates it induced
    /// here and what each returned, in a window indexed by clock counter.
    /// Kept only while some packet log could still replay the packet — the
    /// root's delete forgets one clock, the replay floor a whole prefix.
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
    /// The marks that suppress ordered writers' duplicates (`Entry::marks`).
    marks: Vec<Marks>,
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

    /// The entry at `key`, created empty and unowned if absent.
    fn entry_or_create(&mut self, key: &StateKey) -> &mut Entry {
        let id = self.entries.len() as u32;
        self.entries.entry(CanonKey::of(key)).or_insert(Entry {
            id,
            ..Entry::default()
        })
    }

    /// Apply an operation on behalf of `requester`: a run of one (see
    /// `StoreInstance::apply_run`).
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
        self.apply_named(requester, key, op, clock, true, false).0
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
        self.apply_named(requester, key, op, clock, false, false).0
    }

    /// One op as a run of one, `TS` moved to its clock if it applied, and
    /// the dense id of the entry it went to handed back with its result:
    /// what a journal frame names the entry by.
    pub(crate) fn apply_named(
        &mut self,
        requester: InstanceId,
        key: &StateKey,
        op: &Operation,
        clock: Option<Clock>,
        suppress_duplicates: bool,
        ordered: bool,
    ) -> (Result<ApplyResult, StoreError>, u32) {
        let (mut result, mut id) = (Err(StoreError::Unavailable), 0);
        let run = [((), op, clock)];
        let answer = |(), i, r| (id, result) = (i, r);
        let last = self.apply_run(requester, key, run, suppress_duplicates, ordered, answer);
        if let Some(clock) = last {
            self.set_ts(requester, clock);
        }
        (result, id)
    }

    /// Apply a **run** — operations on one key, in order — as if each were
    /// applied on its own with [`StoreInstance::apply`], handing each op's
    /// result to `answer` with the tag it came with and the dense id of the
    /// object's entry: the one apply routine.
    /// The run pays once for what its ops share: the map probe, the owner
    /// check and the subscriber lookup. Each op still gets its own duplicate
    /// lookup, log record and result, so a duplicate clock inside the run is
    /// emulated against the op before it. Without `suppress_duplicates`
    /// (journal replay) no op consults the log. An `ordered` writer's clocked
    /// increment at or above the floor is instead a duplicate iff at or below
    /// its mark on the entry, which applying it raises. Nothing here hashes:
    /// the maps are probed under the hash `key` carries. `TS` is the caller's:
    /// the run returns its last applied clocked op, and whoever applied the
    /// ops around it knows which of them came last.
    pub(crate) fn apply_run<'o, T>(
        &mut self,
        requester: InstanceId,
        key: &StateKey,
        run: impl IntoIterator<Item = (T, &'o Operation, Option<Clock>)>,
        suppress_duplicates: bool,
        ordered: bool,
        mut answer: impl FnMut(T, u32, Result<ApplyResult, StoreError>),
    ) -> Option<Clock> {
        if self.failed {
            for (tag, _, _) in run {
                answer(tag, 0, Err(StoreError::Unavailable));
            }
            return None;
        }
        // A missing object is built on the side and only installed once an
        // operation succeeded (a failed first touch leaves no entry behind).
        let mut fresh = None;
        let (entry, mut created) = match self.entries.get_mut(key as &dyn CanonView) {
            Some(entry) => (entry, false),
            None => {
                let entry = fresh.insert(Entry {
                    value: Value::None,
                    owner: key.instance,
                    id: self.entries.len() as u32,
                    marks: 0,
                });
                (entry, true)
            }
        };
        let mut refused = refusing_owner(entry, key, requester);
        let subscribers = subscribers(&self.callbacks, key);
        let custom = &self.custom_ops;
        let resolver = |name: &str| custom.get(name).copied();
        let mut last_clock = None;

        for (tag, op, clock) in run {
            if let Some(owner) = refused {
                let err = StoreError::NotOwner {
                    key: key.clone(),
                    requester,
                    owner: Some(owner),
                };
                answer(tag, entry.id, Err(err));
                continue;
            }
            // Only mutating ops of packets that can still be replayed take
            // part in duplicate suppression. A re-issued operation is
            // recognised by (key, clock, operation).
            let replayable = clock.filter(|c| !op.is_read_only() && c.counter() >= self.floor);
            let marked = replayable.filter(|_| ordered && matches!(op, Operation::Increment(_)));
            let packet = replayable.filter(|_| marked.is_none());
            let packet = packet.map(|c| self.dedup.packet(c));
            let seen = |c: &Clock| {
                (entry.marks(&self.marks).iter()).any(|&(w, m)| w == requester && c.counter() <= m)
            };
            if suppress_duplicates && !created {
                let prev = match &packet {
                    Some(packet) => packet.find(entry.id, op),
                    None => marked.filter(seen).map(|_| entry.value.clone()),
                };
                if let Some(prev) = prev {
                    let result = ApplyResult {
                        outcome: OpOutcome::emulated(prev),
                        notify: Vec::new(),
                        new_value: subscribers.map(|_| entry.value.clone()),
                    };
                    answer(tag, entry.id, Ok(result));
                    continue;
                }
            }

            let (returned, changed) =
                match apply_in_place(|| key.clone(), &mut entry.value, op, Some(&resolver)) {
                    Ok(applied) => applied,
                    Err(err) => {
                        answer(tag, entry.id, Err(err));
                        continue;
                    }
                };
            created = false;
            if clock.is_some() {
                last_clock = clock;
            }
            if let Some(packet) = packet {
                packet.record(entry.id, op, &returned);
            } else if let Some(c) = marked {
                entry.raise_mark(&mut self.marks, requester, c.counter());
            }
            // Subscribers are sent the object. Without one — the common
            // case, one branch — the op copies nothing but its own result.
            let (notify, new_value) = match subscribers {
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
            let result = ApplyResult {
                outcome: OpOutcome::applied(returned),
                notify,
                new_value,
            };
            answer(tag, entry.id, Ok(result));
            // First touch of a per-flow object records its owner, which
            // may refuse the rest of the run.
            if key.is_per_flow() && entry.owner.is_none() {
                entry.owner = key.instance;
                refused = refusing_owner(entry, key, requester);
            }
        }

        if let Some(fresh) = fresh.filter(|_| !created) {
            self.entries.insert(CanonKey::of(key), fresh);
        }
        last_clock
    }

    /// Set `requester`'s `TS` (the clock of its last applied clocked op)
    /// to `clock`.
    pub(crate) fn set_ts(&mut self, requester: InstanceId, clock: Clock) {
        self.ts.insert(requester, clock);
    }

    /// Read a value without touching metadata (used by reports and tests).
    pub fn peek(&self, key: &StateKey) -> Value {
        self.entry(key).map(|e| e.value.clone()).unwrap_or_default()
    }

    /// Current `TS` metadata (last clock applied per instance).
    pub fn ts(&self) -> &HashMap<InstanceId, Clock> {
        &self.ts
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
        if let Some(entry) = self.entries.get_mut(key as &dyn CanonView) {
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
    /// failed instance's state with the failover instance, §5.4). `to`
    /// inherits `from`'s increment marks too, so the increments it replays
    /// are suppressed as `from`'s would have been.
    pub fn reassign_owner(&mut self, from: InstanceId, to: InstanceId) -> usize {
        let mut n = 0;
        for entry in self.entries.values_mut() {
            if entry.owner == Some(from) {
                entry.owner = Some(to);
                n += 1;
            }
        }
        let marks = self.marks.iter_mut().flatten();
        marks.filter(|(w, _)| *w == from).for_each(|(w, _)| *w = to);
        n
    }

    /// Make `owner` the owner of `key`'s object, creating it empty if
    /// absent: what a journaled ownership change replays to.
    pub(crate) fn set_owner(&mut self, key: &StateKey, owner: Option<InstanceId>) {
        self.entry_or_create(key).owner = owner;
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
    /// logged for packets with a clock counter at or below it, and stop
    /// looking up or logging such clocks. The
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

    /// The clock counters the log spans, from the lowest to the highest it
    /// holds: it pays an 8-byte head for each, however few updates it holds.
    /// Nothing below the replay floor, so a root stamping `1..=N` spans at
    /// most `N + 1 - floor`.
    pub fn update_log_span(&self) -> u64 {
        self.dedup.span()
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

    /// Directly install a value (used when recovering per-flow state from the
    /// caches of NF instances, which hold the freshest copy, §5.4).
    pub fn install(&mut self, key: &StateKey, value: Value, owner: Option<InstanceId>) {
        let entry = self.entry_or_create(key);
        entry.value = value;
        entry.owner = owner.or(key.instance);
    }

    /// Every entry's key, in dense entry-id order: what a journal frame's ids
    /// resolve to.
    pub(crate) fn keys_by_id(&self) -> Vec<StateKey> {
        let mut keys: Vec<(u32, StateKey)> = (self.entries.iter())
            .map(|(key, entry)| (entry.id, key.state_key().clone()))
            .collect();
        keys.sort_unstable_by_key(|&(id, _)| id);
        // Collected in place: one buffer of keys, not two.
        keys.into_iter().map(|(_, key)| key).collect()
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
    // Checkpoint images (storage backends, `crate::backend`)
    // ------------------------------------------------------------------

    /// Write the *complete* instance as a checkpoint image — values,
    /// ownership, `TS`, the duplicate-suppression log, logged
    /// non-determinism, callback registrations, custom-op names and the
    /// fail-stop flag — straight from the live maps, with no owned copy in
    /// between. Entries go in dense entry-id order as `(key, value, owner)`,
    /// so the log names its objects by id, as it does in memory: no key is
    /// printed, cloned or sorted per entry or per update. The log holds
    /// nothing below the replay floor, so neither does the image. Custom
    /// operations are captured by name only; `TS`, callbacks and names are
    /// small and sorted, so the same instance always encodes to the same
    /// bytes.
    pub(crate) fn encode_image(&self, e: &mut Enc<'_>) {
        let mut by_id = vec![None; self.entries.len()];
        for (key, entry) in &self.entries {
            by_id[entry.id as usize] = Some((key, entry));
        }
        e.u32(by_id.len() as u32);
        for (key, entry) in by_id.iter().flatten() {
            e.state_key(key.state_key());
            e.value(&entry.value);
            e.opt_instance(entry.owner);
        }
        let mut ts: Vec<(&InstanceId, &Clock)> = self.ts.iter().collect();
        ts.sort_unstable();
        e.u32(ts.len() as u32);
        for (instance, clock) in ts {
            e.u32(instance.0);
            e.u64(clock.0);
        }
        self.dedup.encode(e);
        let mut callbacks: Vec<_> = self.callbacks.iter().collect();
        callbacks.sort_by_cached_key(|(key, _)| key.state_key().to_string());
        e.u32(callbacks.len() as u32);
        for (key, who) in callbacks {
            let mut who: Vec<InstanceId> = who.iter().copied().collect();
            who.sort_unstable();
            e.state_key(key.state_key());
            e.u32(who.len() as u32);
            who.iter().for_each(|i| e.u32(i.0));
        }
        let mut names: Vec<&String> = self.custom_ops.keys().collect();
        names.sort_unstable();
        e.u32(names.len() as u32);
        names.iter().for_each(|name| e.str(name));
        e.u8(u8::from(self.failed));
        // Live marks as `(entry id, writer, counter)`, a section only if any.
        let live = || {
            let marks = by_id.iter().flatten();
            let marks = marks.flat_map(|(_, e)| e.marks(&self.marks).iter().map(|m| (e.id, *m)));
            marks.filter(|m| m.1 .1 >= self.floor)
        };
        if live().next().is_some() {
            e.u32(live().count() as u32);
            live().for_each(|(id, (writer, m))| (e.u32(id), e.u32(writer.0), e.u64(m)).2);
        }
    }

    /// Rebuild an instance from an image [`StoreInstance::encode_image`]
    /// wrote, re-creating its entries in image order so that every entry id
    /// — what the log names objects by — survives. `None` unless `d` holds
    /// exactly one well-formed image: among others, a log entry naming an
    /// id past the entries is rejected. `resolve` maps the captured custom-op
    /// names back to functions (a name it cannot resolve is dropped; the
    /// shard re-registers its resident table on top regardless). The replay
    /// floor is the server's knowledge, not the image's: the rebuilt
    /// instance starts at floor zero and the server raises it again under
    /// the lock hold that recovered the shard.
    pub(crate) fn decode_image(
        d: &mut Dec<'_>,
        resolve: CustomOpResolver<'_>,
    ) -> Option<StoreInstance> {
        let mut instance = StoreInstance::new();
        let entries = d.u32()?;
        instance.entries.reserve(entries.min(1 << 16) as usize);
        for id in 0..entries {
            let entry = instance.entry_or_create(&d.state_key()?);
            // A key seen twice would shift every later id.
            if entry.id != id {
                return None;
            }
            entry.value = d.value()?;
            entry.owner = d.opt_instance()?;
        }
        for _ in 0..d.u32()? {
            instance.ts.insert(InstanceId(d.u32()?), Clock(d.u64()?));
        }
        instance.dedup = DedupLog::decode(d, instance.entries.len())?;
        for _ in 0..d.u32()? {
            let key = CanonKey::of(&d.state_key()?);
            let who = (0..d.u32()?)
                .map(|_| d.u32().map(InstanceId))
                .collect::<Option<_>>()?;
            instance.callbacks.insert(key, who);
        }
        for _ in 0..d.u32()? {
            let name = d.str()?;
            if let Some(f) = resolve(&name) {
                instance.custom_ops.insert(name, f);
            }
        }
        instance.failed = d.u8()? != 0;
        if !d.is_exhausted() {
            let mut by_id: Vec<&mut Entry> = instance.entries.values_mut().collect();
            by_id.sort_unstable_by_key(|e| e.id);
            for _ in 0..d.u32()? {
                let entry = by_id.get_mut(d.u32()? as usize)?;
                entry.raise_mark(&mut instance.marks, InstanceId(d.u32()?), d.u64()?);
            }
        }
        d.is_exhausted().then_some(instance)
    }
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

    type Answer = Result<ApplyResult, StoreError>;

    /// `ops` applied one by one on `seq` and as one run on `run`: both
    /// instances' answers, in order.
    fn sequential_and_run(
        seq: &mut StoreInstance,
        run: &mut StoreInstance,
        requester: InstanceId,
        key: &StateKey,
        ops: &[(Operation, Option<Clock>)],
    ) -> (Vec<Answer>, Vec<Answer>) {
        let one_by_one = ops
            .iter()
            .map(|(op, clock)| seq.apply(requester, key, op, *clock))
            .collect();
        let mut together = Vec::new();
        let tagged = ops.iter().map(|(op, clock)| ((), op, *clock));
        if let Some(last) = run.apply_run(requester, key, tagged, true, false, |(), _, r| {
            together.push(r)
        }) {
            run.set_ts(requester, last);
        }
        (one_by_one, together)
    }

    #[test]
    fn a_run_answers_each_op_as_its_own_apply_and_reports_its_last_applied_clock() {
        use crate::backend::codec::encode_image_frame;
        let (mut seq, mut run) = (StoreInstance::new(), StoreInstance::new());
        let key = shared("pkt_count");
        let at = |c| Some(Clock::with_root(0, c));
        // Three ops of packet 2 — the third a duplicate of the first inside
        // the run — and an op without a clock between.
        let ops = [
            (Operation::Increment(1), at(1)),
            (Operation::Increment(2), at(2)),
            (Operation::Increment(1), at(2)),
            (Operation::Increment(2), at(2)),
            (Operation::Increment(5), None),
            (Operation::Increment(1), at(3)),
        ];
        let (one_by_one, together) =
            sequential_and_run(&mut seq, &mut run, InstanceId(4), &key, &ops);
        assert_eq!(one_by_one, together);
        assert!(together[3].as_ref().unwrap().outcome.emulated);
        assert_eq!(run.peek(&key), Value::Int(10));
        assert_eq!(run.ts()[&InstanceId(4)], Clock::with_root(0, 3));
        assert_eq!(seq.ts(), run.ts());
        assert_eq!(
            encode_image_frame(&seq, &mut Vec::new()),
            encode_image_frame(&run, &mut Vec::new())
        );
        // Re-issued, every clocked op is a duplicate; `TS` names the last op
        // that applied, the unclocked one, which leaves it where it was.
        let (one_by_one, together) =
            sequential_and_run(&mut seq, &mut run, InstanceId(4), &key, &ops);
        assert_eq!(one_by_one, together);
        let emulated: Vec<bool> = together
            .iter()
            .map(|r| r.as_ref().unwrap().outcome.emulated)
            .collect();
        assert_eq!(emulated, [true, true, true, true, false, true]);
        assert_eq!(run.ts()[&InstanceId(4)], Clock::with_root(0, 3));
        assert_eq!(seq.ts(), run.ts());
    }

    #[test]
    fn a_run_on_a_released_per_flow_object_is_refused_after_its_claim() {
        // Instance 3's object, released: the first op claims it for the
        // instance its key names, which is not the requester, so the rest of
        // the run is refused exactly as single applies are.
        let (mut seq, mut run) = (StoreInstance::new(), StoreInstance::new());
        let key = per_flow("conn", 3);
        for store in [&mut seq, &mut run] {
            store
                .apply(InstanceId(3), &key, &Operation::Set(Value::Int(0)), None)
                .unwrap();
            store.release_ownership(&key, InstanceId(3)).unwrap();
        }
        let ops = vec![(Operation::Increment(1), None); 3];
        let (one_by_one, together) =
            sequential_and_run(&mut seq, &mut run, InstanceId(7), &key, &ops);
        assert_eq!(one_by_one, together);
        assert!(together[0].is_ok());
        assert!(together[1..].iter().all(|r| matches!(
            r,
            Err(StoreError::NotOwner {
                owner: Some(InstanceId(3)),
                ..
            })
        )));
        assert_eq!(run.peek(&key), Value::Int(1));
        // A fresh object of another instance refuses the whole run and is
        // not created.
        let fresh = per_flow("other", 3);
        let (one_by_one, together) =
            sequential_and_run(&mut seq, &mut run, InstanceId(7), &fresh, &ops);
        assert_eq!(one_by_one, together);
        assert!(together.iter().all(Result::is_err));
        assert_eq!((seq.len(), run.len()), (1, 1));
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
            let clock = Clock(c);
            store
                .apply(InstanceId(0), &key, &incr, Some(clock))
                .unwrap();
        }
        assert_eq!(store.update_log_len(), 6);
        // No packet log can replay counters 1..=4 any more.
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
        let live = Clock(5);
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
        use crate::backend::codec::{decode_image_frame, encode_image_frame};
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
        let image = encode_image_frame(&store, &mut Vec::new()).to_vec();

        // Keep mutating after the checkpoint, then simulate a crash.
        store
            .apply(InstanceId(1), &key, &Operation::Increment(1), None)
            .unwrap();
        assert_eq!(store.peek(&key), Value::Int(8));
        let recovered = decode_image_frame(&image, &|_| None).unwrap();
        assert_eq!(recovered.len(), 1);
        assert_eq!(recovered.peek(&key), Value::Int(7));
        assert_eq!(recovered.ts()[&InstanceId(1)], Clock::with_root(0, 3));
    }

    #[test]
    fn an_image_whose_log_names_a_missing_entry_is_rejected() {
        use crate::backend::codec::FRAME_HEADER as HEADER;
        use crate::backend::codec::{decode_image_frame, encode_image_frame, folded_word_fnv};
        let mut store = StoreInstance::new();
        let clock = Some(Clock::with_root(0, 1));
        store
            .apply(InstanceId(0), &shared("x"), &Operation::Increment(1), clock)
            .unwrap();
        let mut image = encode_image_frame(&store, &mut Vec::new()).to_vec();
        // The logged update's entry id (a one-byte varint), then its kind,
        // argument and answer (one byte each), three empty tables and the
        // fail-stop flag.
        let at = image.len() - (1 + 1 + 1 + 1 + 3 * 4 + 1);
        assert_eq!(image[at..at + 2], [0, 0], "entry 0, an increment");
        image[at] = 1;
        let sum = folded_word_fnv(&image[HEADER..]).to_le_bytes();
        image[4..HEADER].copy_from_slice(&sum);
        assert!(decode_image_frame(&image, &|_| None).is_none());
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
        let k2 = StateKey::per_flow(
            v(),
            InstanceId(1),
            ObjectKey::scoped("b", ScopeKey::Port(80)),
        );
        store
            .apply(InstanceId(1), &k1, &Operation::Set(Value::Int(1)), None)
            .unwrap();
        store
            .apply(InstanceId(1), &k2, &Operation::Set(Value::Int(2)), None)
            .unwrap();
        assert!(store.state_bytes() >= 16);
        store.install(&k1, Value::Int(9), None);
        assert_eq!(store.peek(&k1), Value::Int(9));
    }
}
