//! [`StateClient`]'s per-object tables against the single cache they replaced.
//!
//! The client keeps one table per declared object, keyed by scope key under
//! the hash a store key would carry, and assembles a [`StateKey`] only when
//! an op leaves for the store. The model is the design it replaced, spelled
//! out naively: one `HashMap<(name, scope key), Value>` for everything,
//! every key built up front through the public constructors, whole-cache
//! scans for flushes. Random sequences of reads, updates (cached, offloaded,
//! blocking, inapplicable), replays of the last few updates under their
//! clocks, exclusivity changes, per-flow flushes, callbacks (including a name
//! first seen through one), crashes and drains — in every externalization
//! mode, write-behind on and off — must agree on every returned value, on the
//! statistics (store updates included), on `cached_per_flow()` as a set, and
//! on the store's contents after a drain.
//!
//! One thing the model does not port: the old client refreshed its copy from
//! the object every store result carried. The store now returns an op's
//! result and sends the object to callback subscribers only, so the model
//! never reads `ApplyResult::new_value` — it asks its store who subscribes
//! and what the value is — and states the client's three rules for a copy
//! after an offloaded op outright: install the store's value if the object
//! has subscribers, apply the op to a copy the client maintains itself
//! unless the store emulated it, drop any other copy.
//!
//! Callbacks are only delivered for cross-flow objects, as in the system
//! (the store registers them for `CacheWithCallbacks` objects alone): the
//! old cache filed a callback under the canonical key, which for a per-flow
//! object no read ever looked up.
//!
//! The same schedule also drives a fold arm ([`FoldArm`]): two buffering
//! clients, each on its own store whose replay floor is at the top, one of
//! them folding increments. They must agree on every answer, on their
//! statistics and, whenever both buffers are empty,
//! on the store's contents and on the last value each subscriber was sent.
//!
//! A fault arm ([`FaultArm`]) runs the same two clients with a finite
//! replay floor, the folding one a declared ordered writer whose increments
//! the store suppresses by a mark per entry. A kill drops both buffers and
//! hands each client's state and marks to a replacement, which re-issues a
//! suffix of the logged updates straddling what the store applied, per op,
//! before it declares itself and folds: after the replay the stores'
//! contents and each subscriber's last value must agree.
//!
//! The vendored proptest shim has no collection strategies, so each case
//! draws a seed and derives its random scenario from a `StdRng` — failures
//! stay reproducible because the seed is part of the case.

use chc_core::state::StateClientStats;
use chc_core::{
    CacheStrategy, CostModel, ExternalizationMode, SharedStore, StateClient, StateHandle,
    StateObjectSpec,
};
use chc_packet::{FlowKey, Scope, ScopeKey};
use chc_store::ops::apply_operation;
use chc_store::store::ApplyResult;
use chc_store::{
    AccessPattern, Clock, InstanceId, ObjectKey, Operation, StateKey, StateScope, StoreError,
    StoreServer, Value, VertexId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::net::Ipv4Addr;
use std::sync::{Arc, Mutex};

const VERTEX: VertexId = VertexId(1);
const INSTANCE: InstanceId = InstanceId(0);
/// Registered for callbacks on one object, so updates produce notifications.
const WATCHER: InstanceId = InstanceId(9);

/// One declared object per strategy of Table 1, and a name the NF never
/// declared.
const NAMES: [&str; 5] = ["pkt_count", "port_map", "likelihood", "config", "surprise"];

fn specs() -> Vec<StateObjectSpec> {
    vec![
        StateObjectSpec::cross_flow(
            NAMES[0],
            Scope::Global,
            AccessPattern::WriteMostlyReadRarely,
        ),
        StateObjectSpec::per_flow(NAMES[1], AccessPattern::ReadMostly),
        StateObjectSpec::cross_flow(NAMES[2], Scope::SrcIp, AccessPattern::ReadWriteOften),
        StateObjectSpec::cross_flow(NAMES[3], Scope::Global, AccessPattern::ReadMostly),
    ]
}

fn scope_keys() -> [Option<ScopeKey>; 8] {
    [
        None,
        Some(ScopeKey::Global),
        Some(ScopeKey::Port(1)),
        Some(ScopeKey::Port(2)),
        Some(ScopeKey::Host(Ipv4Addr::new(10, 0, 0, 1))),
        Some(ScopeKey::Host(Ipv4Addr::new(10, 0, 0, 2))),
        Some(ScopeKey::Flow(FlowKey(1))),
        Some(ScopeKey::Flow(FlowKey(1 << 64))),
    ]
}

struct ModelObject {
    per_flow: bool,
    strategy: CacheStrategy,
    exclusive: bool,
}

/// The replaced design, kept as the reference.
struct Model {
    mode: ExternalizationMode,
    store: Arc<StoreServer>,
    objects: HashMap<String, ModelObject>,
    cache: HashMap<(String, Option<ScopeKey>), Value>,
    callbacks_registered: HashSet<StateKey>,
    write_behind: Option<Vec<(StateKey, Operation, Option<Clock>)>>,
    cap: usize,
    stats: StateClientStats,
    pending: Vec<(InstanceId, StateKey, Value)>,
}

impl Model {
    fn new(
        mode: ExternalizationMode,
        store: Arc<StoreServer>,
        write_behind: Option<usize>,
    ) -> Model {
        let objects = specs()
            .into_iter()
            .map(|o| {
                let object = ModelObject {
                    per_flow: o.scope == StateScope::PerFlow,
                    strategy: CacheStrategy::select(o.scope, o.access),
                    exclusive: true,
                };
                (o.name, object)
            })
            .collect();
        Model {
            mode,
            store,
            objects,
            cache: HashMap::new(),
            callbacks_registered: HashSet::new(),
            write_behind: write_behind.map(|_| Vec::new()),
            cap: write_behind.unwrap_or(0),
            stats: StateClientStats::default(),
            pending: Vec::new(),
        }
    }

    /// An undeclared object is shared and blocking until granted exclusivity.
    fn object(&mut self, name: &str) -> &mut ModelObject {
        self.objects.entry(name.to_string()).or_insert(ModelObject {
            per_flow: false,
            strategy: CacheStrategy::CacheIfExclusive,
            exclusive: false,
        })
    }

    fn key(&self, name: &str, scope_key: Option<ScopeKey>) -> StateKey {
        let object = match scope_key {
            Some(sk) => ObjectKey::scoped(name, sk),
            None => ObjectKey::named(name),
        };
        if self.per_flow(name) {
            StateKey::per_flow(VERTEX, INSTANCE, object)
        } else {
            StateKey::shared(VERTEX, object)
        }
    }

    fn per_flow(&self, name: &str) -> bool {
        self.objects.get(name).is_some_and(|o| o.per_flow)
    }

    fn cacheable(&mut self, name: &str) -> bool {
        let caching = self.mode.caching();
        let object = self.object(name);
        caching
            && match object.strategy {
                CacheStrategy::NonBlockingNoCache => false,
                CacheStrategy::CacheWithPeriodicFlush | CacheStrategy::CacheWithCallbacks => true,
                CacheStrategy::CacheIfExclusive => object.exclusive,
            }
    }

    /// What a callback carries: the store's value right after the op.
    fn notified(&mut self, key: &StateKey, notify: &[InstanceId]) {
        for other in notify {
            let value = self.store.peek(key);
            self.pending.push((*other, key.clone(), value));
        }
    }

    fn drain(&mut self) {
        for (key, op, clock) in self
            .write_behind
            .as_mut()
            .map(std::mem::take)
            .unwrap_or_default()
        {
            match self.store.apply(INSTANCE, &key, &op, clock) {
                Ok(r) => self.notified(&key, &r.notify),
                Err(_) => self.stats.buffered_refused += 1,
            }
        }
    }

    fn read(&mut self, name: &str, scope_key: Option<ScopeKey>, clock: Clock) -> Value {
        let key = self.key(name, scope_key);
        let slot = (name.to_string(), scope_key);
        if !self.mode.externalized() {
            self.stats.local_ops += 1;
            return self.cache.get(&slot).cloned().unwrap_or_default();
        }
        let cacheable = self.cacheable(name);
        if cacheable {
            if let Some(v) = self.cache.get(&slot) {
                self.stats.cache_hits += 1;
                return v.clone();
            }
        }
        self.drain();
        self.stats.blocking_ops += 1;
        let Ok(result) = self
            .store
            .apply(INSTANCE, &key, &Operation::Get, Some(clock))
        else {
            return Value::None;
        };
        let value = result.outcome.returned;
        if cacheable {
            self.cache.insert(slot, value.clone());
            if self.object(name).strategy.uses_callbacks()
                && self.callbacks_registered.insert(key.clone())
            {
                self.store.register_callback(&key, INSTANCE);
            }
        }
        value
    }

    fn apply_to_cached(
        &mut self,
        key: &StateKey,
        slot: (String, Option<ScopeKey>),
        op: &Operation,
    ) -> Value {
        let cached = self.cache.entry(slot).or_default();
        match apply_operation(key, cached, op) {
            Ok((new, returned)) => {
                *cached = new;
                returned
            }
            Err(_) => Value::None,
        }
    }

    fn flush_op(&mut self, key: StateKey, op: Operation, clock: Clock) {
        self.stats.store_updates += 1;
        if let Some(buf) = self.write_behind.as_mut() {
            buf.push((key, op, Some(clock)));
            if buf.len() >= self.cap {
                self.drain();
            }
            return;
        }
        if let Ok(r) = self.store.apply(INSTANCE, &key, &op, Some(clock)) {
            self.notified(&key, &r.notify);
        }
    }

    fn update(
        &mut self,
        name: &str,
        scope_key: Option<ScopeKey>,
        op: Operation,
        clock: Clock,
    ) -> Value {
        let key = self.key(name, scope_key);
        let slot = (name.to_string(), scope_key);
        if !self.mode.externalized() {
            self.stats.local_ops += 1;
            return self.apply_to_cached(&key, slot, &op);
        }
        let cacheable = self.cacheable(name);
        let (strategy, exclusive) = (self.object(name).strategy, self.object(name).exclusive);
        let blocking_required = !op.is_non_blocking_eligible();
        if cacheable && !blocking_required && strategy != CacheStrategy::CacheWithCallbacks {
            let returned = self.apply_to_cached(&key, slot, &op);
            self.stats.cache_hits += 1;
            self.stats.non_blocking_ops += 1;
            self.flush_op(key, op, clock);
            return returned;
        }
        let lost_exclusive = strategy == CacheStrategy::CacheIfExclusive && !exclusive;
        if blocking_required || lost_exclusive || strategy == CacheStrategy::CacheWithCallbacks {
            self.stats.blocking_ops += 1;
        } else if self.mode.skip_acks() {
            self.stats.non_blocking_ops += 1;
            let uncached =
                strategy == CacheStrategy::NonBlockingNoCache || !self.cache.contains_key(&slot);
            if self.write_behind.is_some() && uncached {
                self.flush_op(key, op, clock);
                return Value::None;
            }
        } else {
            self.stats.blocking_ops += 1;
        }
        self.drain();
        let Ok(result) = self.store.apply(INSTANCE, &key, &op, Some(clock)) else {
            return Value::None;
        };
        self.notified(&key, &result.notify);
        self.stats.store_updates += 1;
        // The old client overwrote its copy with the value every result
        // carried. The store now sends that value to subscribers only, so a
        // copy is refreshed by whoever maintains it, or dropped.
        if self.cache.contains_key(&slot) {
            // This model is the store's only client, so the store's
            // subscribers are the ones it registered.
            if self.callbacks_registered.contains(&key) {
                self.cache.insert(slot, self.store.peek(&key));
            } else if cacheable && strategy != CacheStrategy::CacheWithCallbacks {
                // This client's own copy, equal to the store since the
                // drain: it moves exactly when the store did.
                if !result.outcome.emulated {
                    self.apply_to_cached(&key, slot, &op);
                }
            } else {
                self.cache.remove(&slot);
            }
        }
        result.outcome.returned
    }

    /// Remove the cached entries `pick` selects and hand each to the store
    /// as an authoritative `Set`.
    fn flush_where(
        &mut self,
        clock: Clock,
        release: bool,
        pick: impl Fn(&Model, &str) -> bool,
    ) -> usize {
        self.drain();
        let slots: Vec<(String, Option<ScopeKey>)> = self
            .cache
            .keys()
            .filter(|(name, _)| pick(self, name))
            .cloned()
            .collect();
        for slot in &slots {
            let key = self.key(&slot.0, slot.1);
            let value = self.cache.remove(slot).expect("collected above");
            let _ = self
                .store
                .apply(INSTANCE, &key, &Operation::Set(value), Some(clock));
            if release {
                let _ = self.store.release_ownership(&key, INSTANCE);
            }
        }
        slots.len()
    }

    fn set_exclusive(&mut self, name: &str, exclusive: bool, clock: Clock) {
        self.object(name).exclusive = exclusive;
        if !exclusive {
            self.flush_where(clock, false, |_, n| n == name);
        }
    }

    fn flush_per_flow(&mut self, release: bool, clock: Clock) -> usize {
        self.flush_where(clock, release, Model::per_flow)
    }

    fn cached_per_flow(&self) -> BTreeSet<String> {
        self.cache
            .iter()
            .filter(|((name, _), _)| self.per_flow(name))
            .map(|((name, sk), value)| format!("{} = {value:?}", self.key(name, *sk)))
            .collect()
    }

    fn drop_all_local_state(&mut self) {
        self.cache.clear();
        if let Some(buf) = self.write_behind.as_mut() {
            buf.clear();
        }
    }
}

/// What a client submitted to its store, one `apply_batch` each.
type Batches = Arc<Mutex<Vec<Vec<(StateKey, Operation, Option<Clock>)>>>>;

/// A store handle that records every batch before applying it.
struct Recording {
    store: Arc<StoreServer>,
    batches: Batches,
}

impl StateHandle for Recording {
    fn apply(
        &self,
        requester: InstanceId,
        key: &StateKey,
        op: &Operation,
        clock: Option<Clock>,
    ) -> Result<ApplyResult, StoreError> {
        StateHandle::apply(&self.store, requester, key, op, clock)
    }
    fn apply_batch(
        &self,
        requester: InstanceId,
        ops: &[(StateKey, Operation, Option<Clock>)],
    ) -> Vec<Result<ApplyResult, StoreError>> {
        self.batches.lock().unwrap().push(ops.to_vec());
        StateHandle::apply_batch(&self.store, requester, ops)
    }
    fn register_callback(&self, key: &StateKey, instance: InstanceId) {
        self.store.register_callback(key, instance);
    }
    fn release_ownership(&self, key: &StateKey, instance: InstanceId) -> Result<(), StoreError> {
        self.store.release_ownership(key, instance)
    }
    fn acquire_ownership(&self, key: &StateKey, instance: InstanceId) -> Result<(), StoreError> {
        self.store.acquire_ownership(key, instance)
    }
    fn owner_of(&self, key: &StateKey) -> Option<InstanceId> {
        self.store.owner_of(key)
    }
    fn nondet(&self, clock: Clock, slot: u32, candidate: Value) -> Value {
        self.store.nondet(clock, slot, candidate)
    }
    fn is_failed(&self) -> bool {
        self.store.is_failed()
    }
    fn register_ordered_writer(&self, writer: InstanceId) -> bool {
        self.store.register_ordered_writer(writer)
    }
}

/// Each key's submitted ops in submission order, over a run of batches.
fn per_key(batches: Vec<Vec<(StateKey, Operation, Option<Clock>)>>) -> Vec<PerKey> {
    let mut keys: Vec<PerKey> = Vec::new();
    for (key, op, clock) in batches.into_iter().flatten() {
        let at = keys.iter().position(|(k, _)| *k == key);
        let at = at.unwrap_or_else(|| {
            keys.push((key, Vec::new()));
            keys.len() - 1
        });
        keys[at].1.push((op, clock));
    }
    keys
}

/// One key's ops, each with its clock.
type PerKey = (StateKey, Vec<(Operation, Option<Clock>)>);

/// Is `folded` the per-op sequence `per_op` with runs of increments summed
/// into one entry each, which carries the clock of the run's last?
fn folds_from(
    per_op: &[(Operation, Option<Clock>)],
    folded: &[(Operation, Option<Clock>)],
) -> bool {
    let mut ops = per_op.iter();
    let all_match = folded.iter().all(|(op, clock)| match op {
        // The schedule draws positive increments, so a run's partial sums
        // rise and meet the folded sum at most once.
        Operation::Increment(sum) => {
            let mut so_far = 0;
            loop {
                match ops.next() {
                    Some((Operation::Increment(delta), at)) => {
                        so_far += delta;
                        if so_far >= *sum {
                            break so_far == *sum && at == clock;
                        }
                    }
                    _ => break false,
                }
            }
        }
        _ => ops.next() == Some(&(op.clone(), *clock)),
    });
    all_match && ops.next().is_none()
}

/// Two clients over one schedule, `[per-op, folded]`, each buffering with
/// the same cap on its own one-shard store with the floor at the top: the
/// store the engine folds against.
struct FoldArm {
    clients: [StateClient; 2],
    stores: [Arc<StoreServer>; 2],
    /// Per client, the last value each subscriber was sent for each key.
    notified: [HashMap<(InstanceId, String), Value>; 2],
    /// Per client, the batches it submitted since both buffers were last
    /// empty.
    batches: [Batches; 2],
}

impl FoldArm {
    fn new(mode: ExternalizationMode, cap: usize, watched: &StateKey) -> FoldArm {
        let stores = [SharedStore::new(), SharedStore::new()];
        let batches = [Batches::default(), Batches::default()];
        let mut clients = [0, 1].map(|i| {
            let store = &stores[i];
            store.forget_through(u64::MAX);
            store.register_callback(watched, WATCHER);
            let handle = Box::new(Recording {
                store: Arc::clone(store),
                batches: Arc::clone(&batches[i]),
            });
            let mut client = StateClient::new(
                VERTEX,
                INSTANCE,
                handle,
                mode,
                CostModel::default(),
                &specs(),
            );
            client.set_write_behind(true, cap);
            client
        });
        clients[1].declare_ordered_writer();
        FoldArm {
            clients,
            stores,
            notified: Default::default(),
            batches,
        }
    }

    /// Run one access on both clients, which must answer alike.
    fn both<T: PartialEq + std::fmt::Debug>(
        &mut self,
        context: &str,
        mut access: impl FnMut(&mut StateClient) -> T,
    ) {
        let [per_op, folded] = &mut self.clients;
        assert_eq!(access(per_op), access(folded), "fold arm: {context}");
    }

    fn drain(&mut self) {
        for client in &mut self.clients {
            client.drain_write_behind();
        }
    }

    /// A crash forfeits what is buffered, and a folding buffer holds more
    /// than a per-op one that reached its cap sooner. Folding is only ever
    /// on where no fault is planned, so the arm drains before it crashes.
    fn crash(&mut self) {
        for client in &mut self.clients {
            client.drain_write_behind();
            client.drop_all_local_state();
        }
    }

    /// The end of a packet: the statistics agree; once nothing is buffered,
    /// so do the stores and what each subscriber last heard.
    fn check(&mut self, context: &str) {
        for (client, notified) in self.clients.iter_mut().zip(&mut self.notified) {
            for (to, key, value) in client.take_pending_callbacks() {
                notified.insert((to, key.to_string()), value);
            }
        }
        let [per_op, folded] = &self.clients;
        // A refused folded entry is one refusal for all the ops it carries.
        let stats = |c: &StateClient| StateClientStats {
            buffered_refused: 0,
            ..c.stats()
        };
        assert_eq!(stats(per_op), stats(folded), "fold arm stats: {context}");
        if per_op.write_behind_depth() + folded.write_behind_depth() > 0 {
            return;
        }
        // Every op issued so far has reached both stores: the folding
        // client's batches each in clock order, and its ops on each key
        // the per-op client's, with runs of increments summed.
        let [per_op, folded] = self
            .batches
            .each_ref()
            .map(|b| std::mem::take(&mut *b.lock().unwrap()));
        for batch in &folded {
            let clocks: Vec<Option<Clock>> = batch.iter().map(|(_, _, c)| *c).collect();
            assert!(
                clocks.is_sorted(),
                "fold arm batch out of clock order {clocks:?}: {context}"
            );
        }
        let (per_op, folded) = (per_key(per_op), per_key(folded));
        assert_eq!(per_op.len(), folded.len(), "fold arm keys: {context}");
        for (key, ops) in &per_op {
            let of_key = folded.iter().find(|(k, _)| k == key).map(|(_, f)| f);
            assert!(
                of_key.is_some_and(|f| folds_from(ops, f)),
                "fold arm {key}: {ops:?} vs {of_key:?}: {context}"
            );
        }
        let [a, b] = &self.stores;
        assert_eq!(contents(a), contents(b), "fold arm dump: {context}");
        let [per_op, folded] = &self.notified;
        assert_eq!(per_op, folded, "fold arm callbacks: {context}");
    }
}

/// An update as the fault arm logs it, to replay it: object, scope key, op
/// and clock.
type Logged = (&'static str, Option<ScopeKey>, Operation, Clock);

/// Two clients, `[per-op, folding]`, each on its own one-shard store whose
/// replay floor rises, the folding one a declared ordered writer. Their
/// buffers share a cap no schedule reaches, so both drain at the same
/// barriers and a kill forfeits the same ops from both.
struct FaultArm {
    mode: ExternalizationMode,
    clients: [StateClient; 2],
    stores: [Arc<StoreServer>; 2],
    notified: [HashMap<(InstanceId, String), Value>; 2],
    /// The updates issued since the floor, which a replay may re-issue.
    log: Vec<Logged>,
}

impl FaultArm {
    const CAP: usize = 1 << 10;

    fn new(mode: ExternalizationMode, watched: &StateKey) -> FaultArm {
        let stores = [SharedStore::new(), SharedStore::new()];
        stores.iter().for_each(|s| _ = s.track_replays());
        stores
            .iter()
            .for_each(|s| s.register_callback(watched, WATCHER));
        let mut arm = FaultArm {
            mode,
            clients: stores
                .each_ref()
                .map(|s| FaultArm::client(mode, s, INSTANCE)),
            stores,
            notified: Default::default(),
            log: Vec::new(),
        };
        arm.clients[1].declare_ordered_writer();
        arm
    }

    fn client(mode: ExternalizationMode, store: &Arc<StoreServer>, id: InstanceId) -> StateClient {
        let handle = Box::new(Arc::clone(store));
        let mut client = StateClient::new(VERTEX, id, handle, mode, CostModel::default(), &specs());
        client.set_write_behind(true, FaultArm::CAP);
        client
    }

    fn update(&mut self, logged: Logged, context: &str) {
        let (name, scope_key, op, clock) = logged.clone();
        let [per_op, folding] = &mut self.clients;
        let issue = |c: &mut StateClient| c.update(name, scope_key, op.clone(), clock);
        assert_eq!(issue(per_op), issue(folding), "fault arm: {context}");
        self.log.push(logged);
        self.collect();
    }

    fn read(&mut self, name: &str, scope_key: Option<ScopeKey>, clock: Clock, context: &str) {
        let [per_op, folding] = &mut self.clients;
        let (a, b) = (
            per_op.read(name, scope_key, clock),
            folding.read(name, scope_key, clock),
        );
        assert_eq!(a, b, "fault arm read: {context}");
        self.collect();
    }

    fn collect(&mut self) {
        for (client, notified) in self.clients.iter_mut().zip(&mut self.notified) {
            for (to, key, value) in client.take_pending_callbacks() {
                notified.insert((to, key.to_string()), value);
            }
        }
    }

    /// Drain both; then no logged update older than the `keep` newest can
    /// be replayed, and both floors rise to the oldest kept.
    fn drain(&mut self, keep: usize) {
        for client in &mut self.clients {
            client.drain_write_behind();
        }
        self.collect();
        let cut = self.log.len().saturating_sub(keep);
        if let Some(&(_, _, _, oldest)) = self.log.get(cut) {
            self.stores
                .iter()
                .for_each(|s| s.forget_through(oldest.counter() - 1));
        }
        self.log.drain(..cut);
    }

    /// Kill both writers, buffers and all, and replace each with instance
    /// `next`, which inherits the dead one's state and marks, replays the
    /// logged updates from `from` on (at most up to the first the buffers
    /// lost) per op, drains, and only then declares itself ordered.
    fn kill_and_replay(&mut self, next: InstanceId, from: usize, context: &str) {
        let lost = self.clients[0].write_behind_depth();
        let from = from.min(self.log.len() - lost);
        for (client, store) in self.clients.iter_mut().zip(&self.stores) {
            client.drop_all_local_state();
            store.reassign_owner(client.instance(), next);
            *client = FaultArm::client(self.mode, store, next);
        }
        let replay = self.log[from..].to_vec();
        for (name, scope_key, op, clock) in replay {
            let [per_op, folding] = &mut self.clients;
            let issue = |c: &mut StateClient| c.update(name, scope_key, op.clone(), clock);
            assert_eq!(issue(per_op), issue(folding), "fault arm replay: {context}");
            self.collect();
        }
        self.drain(usize::MAX);
        self.clients[1].declare_ordered_writer();
        let [a, b] = &self.stores;
        assert_eq!(contents(a), contents(b), "fault arm dump: {context}");
        let [per_op, folding] = &self.notified;
        assert_eq!(per_op, folding, "fault arm callbacks: {context}");
    }
}

fn draw_op(rng: &mut StdRng) -> Operation {
    match rng.gen_range(0..10u32) {
        0..=2 => Operation::Increment(rng.gen_range(1..4)),
        3 => Operation::Set(Value::Int(rng.gen_range(0..5))),
        // A pool, so that pops have something to hand out.
        4 => Operation::Set(Value::list_of_ints(0..rng.gen_range(2..9))),
        5 => Operation::Delete,
        // Blocking: the NF consumes what a pop returns.
        6 | 7 => Operation::PopFront,
        // Builds a list on an absent object, inapplicable to an integer.
        8 => Operation::PushBack(Value::Int(rng.gen_range(0..3))),
        _ => Operation::Decrement(1),
    }
}

fn contents(store: &StoreServer) -> Vec<String> {
    let mut entries: Vec<String> = store
        .dump()
        .into_iter()
        .map(|(key, value, owner)| format!("{key} = {value:?} owned by {owner:?}"))
        .collect();
    entries.sort();
    entries
}

fn sorted<T: std::fmt::Debug>(items: impl Iterator<Item = T>) -> Vec<String> {
    let mut out: Vec<String> = items.map(|i| format!("{i:?}")).collect();
    out.sort();
    out
}

proptest! {
    #[test]
    fn per_object_tables_match_the_single_cache_model(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mode = ExternalizationMode::all()[rng.gen_range(0..4usize)];
        let write_behind = rng.gen_bool(0.5).then(|| rng.gen_range(1..=6usize));
        let (store, model_store) = (SharedStore::new(), SharedStore::new());
        let mut client = StateClient::new(
            VERTEX,
            INSTANCE,
            Box::new(store.clone()),
            mode,
            CostModel::default(),
            &specs(),
        );
        if let Some(cap) = write_behind {
            client.set_write_behind(true, cap);
        }
        let mut model = Model::new(mode, model_store.clone(), write_behind);
        let watched = model.key(NAMES[0], None);
        store.register_callback(&watched, WATCHER);
        model_store.register_callback(&watched, WATCHER);
        let mut arm = FoldArm::new(mode, write_behind.unwrap_or(6), &watched);

        let steps = rng.gen_range(40..=160u64);
        let (mut name, mut scope_key) = (NAMES[0], None);
        let mut recent = VecDeque::new();
        for step in 1..=steps {
            // Even, so that a step may issue a second packet right after it.
            let clock = Clock::with_root(0, 2 * step);
            // Half the steps stay on the previous step's object, so runs of
            // operations on one copy (fill, pop, pop) are common.
            if rng.gen_bool(0.5) {
                name = NAMES[rng.gen_range(0..NAMES.len())];
                scope_key = scope_keys()[rng.gen_range(0..8usize)];
            }
            let context = format!("{mode:?} wb {write_behind:?} step {step} {name} {scope_key:?}");
            match rng.gen_range(0..28u32) {
                0..=7 => {
                    let got = client.read(name, scope_key, clock);
                    prop_assert_eq!(got, model.read(name, scope_key, clock), "read {}", context);
                    arm.both(&context, |c| c.read(name, scope_key, clock));
                }
                8..=17 => {
                    let op = draw_op(&mut rng);
                    let got = client.update(name, scope_key, op.clone(), clock);
                    let want = model.update(name, scope_key, op.clone(), clock);
                    prop_assert_eq!(got, want, "{:?} {}", op, context);
                    arm.both(&context, |c| c.update(name, scope_key, op.clone(), clock));
                    recent.push_back((name, scope_key, op, clock));
                    if recent.len() > 4 {
                        recent.pop_front();
                    }
                }
                24 | 25 => {
                    // A replay: the last few updates again, in order, under
                    // their clocks. The store emulates those it applied,
                    // and what the client does to its copies must follow.
                    for (name, scope_key, op, clock) in recent.iter().cloned() {
                        let got = client.update(name, scope_key, op.clone(), clock);
                        let want = model.update(name, scope_key, op.clone(), clock);
                        prop_assert_eq!(got, want, "replayed {:?} at {} {}", op, clock, context);
                        arm.both(&context, |c| c.update(name, scope_key, op.clone(), clock));
                    }
                }
                26 | 27 => {
                    // Two packets of increments to the same few counters, as
                    // the NAT and the load balancer issue them: the second
                    // packet's folds land inside the buffer, not at its back.
                    let counters: Vec<_> = (0..3)
                        .map(|_| (NAMES[rng.gen_range(0..3usize)], scope_keys()[rng.gen_range(0..3usize)]))
                        .collect();
                    for clock in [clock, Clock(clock.counter() + 1)] {
                        for &(name, scope_key) in &counters {
                            let op = Operation::Increment(rng.gen_range(1..4));
                            let got = client.update(name, scope_key, op.clone(), clock);
                            let want = model.update(name, scope_key, op.clone(), clock);
                            prop_assert_eq!(got, want, "packet {:?} {} {}", op, clock, context);
                            arm.both(&context, |c| c.update(name, scope_key, op.clone(), clock));
                        }
                    }
                }
                18 => {
                    let exclusive = rng.gen_bool(0.5);
                    client.set_exclusive(name, exclusive, clock);
                    model.set_exclusive(name, exclusive, clock);
                    arm.both(&context, |c| c.set_exclusive(name, exclusive, clock));
                }
                19 => {
                    let release = rng.gen_bool(0.5);
                    let flushed = client.flush_per_flow(release, clock);
                    prop_assert_eq!(flushed, model.flush_per_flow(release, clock), "{}", context);
                    arm.both(&context, |c| c.flush_per_flow(release, clock));
                }
                20 | 21 if name != NAMES[1] => {
                    // Possibly the first the client hears of `name`.
                    let key = model.key(name, scope_key);
                    let value = Value::Int(rng.gen_range(10..20));
                    client.handle_callback(&key, value.clone());
                    arm.both(&context, |c| c.handle_callback(&key, value.clone()));
                    model.cache.insert((name.to_string(), scope_key), value);
                }
                22 => {
                    client.drop_all_local_state();
                    model.drop_all_local_state();
                    arm.crash();
                }
                _ => {
                    client.drain_write_behind();
                    model.drain();
                    arm.drain();
                }
            }
            // A key from the client's prefix path is the key the public
            // constructors build, hash included.
            let key = client.state_key(name, scope_key);
            prop_assert_eq!(&key, &model.key(name, scope_key), "{}", context);
            prop_assert_eq!(key.shard_hash(), model.key(name, scope_key).shard_hash());
            prop_assert_eq!(client.is_exclusive(name), model.object(name).exclusive, "{}", context);
            prop_assert_eq!(client.stats(), model.stats, "{}", context);
            prop_assert_eq!(
                sorted(client.take_pending_callbacks()),
                sorted(model.pending.drain(..)),
                "{}", context
            );
            let cached: BTreeSet<String> = client
                .cached_per_flow()
                .into_iter()
                .map(|(key, value)| format!("{key} = {value:?}"))
                .collect();
            prop_assert_eq!(cached, model.cached_per_flow(), "{}", context);
            if step == steps || rng.gen_range(0..8u32) == 0 {
                client.drain_write_behind();
                model.drain();
                prop_assert_eq!(contents(&store), contents(&model_store), "{}", context);
                arm.drain();
            }
            arm.check(&context);
        }
    }
}

proptest! {
    /// The fault arm's schedule: updates and reads, drains that raise the
    /// floor, and kills each followed by its replacement's replay.
    #[test]
    fn a_mark_folding_writer_recovers_as_a_per_op_one(seed in any::<u64>()) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mode = ExternalizationMode::all()[rng.gen_range(0..4usize)];
        let watched = StateKey::shared(VERTEX, ObjectKey::named(NAMES[0]));
        let mut arm = FaultArm::new(mode, &watched);
        let (mut name, mut scope_key, mut next) = (NAMES[0], None, INSTANCE.0);
        for step in 1..=rng.gen_range(40..=160u64) {
            let clock = Clock(step);
            if rng.gen_bool(0.5) {
                name = NAMES[rng.gen_range(0..NAMES.len())];
                scope_key = scope_keys()[rng.gen_range(0..8usize)];
            }
            let context = format!("{mode:?} step {step} {name} {scope_key:?}");
            match rng.gen_range(0..20u32) {
                0..=12 => arm.update((name, scope_key, draw_op(&mut rng), clock), &context),
                13 | 14 => arm.read(name, scope_key, clock, &context),
                15..=17 => arm.drain(rng.gen_range(0..8)),
                _ => {
                    next += 1;
                    let from = rng.gen_range(0..=arm.log.len());
                    arm.kill_and_replay(InstanceId(next), from, &context);
                }
            }
        }
        next += 1;
        arm.kill_and_replay(InstanceId(next), 0, "the last kill");
    }
}
