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
//! statistics and logs, on `cached_per_flow()` as a set, and on the store's
//! contents after a drain.
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
use chc_store::{
    AccessPattern, Clock, InstanceId, ObjectKey, Operation, StateKey, StateScope, StoreServer,
    Value, VertexId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeSet, HashMap, HashSet, VecDeque};
use std::net::Ipv4Addr;
use std::sync::Arc;

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
    tokens: usize,
    wal_len: usize,
    read_log_len: usize,
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
            tokens: 0,
            wal_len: 0,
            read_log_len: 0,
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
            if let Ok(r) = self.store.apply(INSTANCE, &key, &op, clock) {
                self.notified(&key, &r.notify);
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
        if key.instance.is_none() {
            self.read_log_len += 1;
        }
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
        match apply_operation(key, cached, op, None) {
            Ok((new, returned)) => {
                *cached = new;
                returned
            }
            Err(_) => Value::None,
        }
    }

    fn flush_op(&mut self, key: StateKey, op: Operation, clock: Clock) {
        if key.instance.is_none() {
            self.wal_len += 1;
        }
        self.tokens += 1;
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
        if key.instance.is_none() {
            self.wal_len += 1;
        }
        self.notified(&key, &result.notify);
        self.tokens += 1;
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

        let steps = rng.gen_range(40..=160u64);
        let (mut name, mut scope_key) = (NAMES[0], None);
        let mut recent = VecDeque::new();
        for step in 1..=steps {
            let clock = Clock::with_root(0, step);
            // Half the steps stay on the previous step's object, so runs of
            // operations on one copy (fill, pop, pop) are common.
            if rng.gen_bool(0.5) {
                name = NAMES[rng.gen_range(0..NAMES.len())];
                scope_key = scope_keys()[rng.gen_range(0..8usize)];
            }
            let context = format!("{mode:?} wb {write_behind:?} step {step} {name} {scope_key:?}");
            match rng.gen_range(0..26u32) {
                0..=7 => {
                    let got = client.read(name, scope_key, clock);
                    prop_assert_eq!(got, model.read(name, scope_key, clock), "read {}", context);
                }
                8..=17 => {
                    let op = draw_op(&mut rng);
                    let got = client.update(name, scope_key, op.clone(), clock);
                    let want = model.update(name, scope_key, op.clone(), clock);
                    prop_assert_eq!(got, want, "{:?} {}", op, context);
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
                    }
                }
                18 => {
                    let exclusive = rng.gen_bool(0.5);
                    client.set_exclusive(name, exclusive, clock);
                    model.set_exclusive(name, exclusive, clock);
                }
                19 => {
                    let release = rng.gen_bool(0.5);
                    let flushed = client.flush_per_flow(release, clock);
                    prop_assert_eq!(flushed, model.flush_per_flow(release, clock), "{}", context);
                }
                20 | 21 if name != NAMES[1] => {
                    // Possibly the first the client hears of `name`.
                    let key = model.key(name, scope_key);
                    let value = Value::Int(rng.gen_range(10..20));
                    client.handle_callback(&key, value.clone());
                    model.cache.insert((name.to_string(), scope_key), value);
                }
                22 => {
                    client.drop_all_local_state();
                    model.drop_all_local_state();
                }
                _ => {
                    client.drain_write_behind();
                    model.drain();
                }
            }
            // A key from the client's prefix path is the key the public
            // constructors build, hash included.
            let key = client.state_key(name, scope_key);
            prop_assert_eq!(&key, &model.key(name, scope_key), "{}", context);
            prop_assert_eq!(key.shard_hash(), model.key(name, scope_key).shard_hash());
            prop_assert_eq!(client.is_exclusive(name), model.object(name).exclusive, "{}", context);
            prop_assert_eq!(client.stats(), model.stats, "{}", context);
            prop_assert_eq!(client.take_packet_tokens().count(), std::mem::take(&mut model.tokens), "{}", context);
            prop_assert_eq!(client.wal().len(), model.wal_len, "{}", context);
            prop_assert_eq!(client.read_log().len(), model.read_log_len, "{}", context);
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
            }
        }
    }
}
