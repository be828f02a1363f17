//! The duplicate-suppression log against a naive oracle.
//!
//! [`StoreInstance`] keeps one clock-ordered log whose slots hold a packet's
//! updates inline and name objects by entry id; the oracle is the structure
//! it replaced, spelled out: a `HashMap<(key, clock), Vec<(op, returned)>>`
//! searched linearly, pruned by scanning. Random `apply` / `forget_clock` /
//! `forget_through` sequences — several different operations on one
//! `(key, clock)`, re-issued duplicates on both sides of every floor — must
//! give identical outcomes, emulation flags, stored values and log lengths.
//!
//! A second mode widens the clock space to thousands of counters, drawn
//! either sparse over the whole range or walking downwards, so the
//! window also grows at the front, spans long gaps and loses long prefixes
//! to the floor.
//!
//! The vendored proptest shim has no collection strategies, so each case
//! draws a seed and derives its random scenario from a `StdRng` — failures
//! stay reproducible because the seed is part of the case.

use chc_store::backend::{decode_image_frame, encode_image_frame};
use chc_store::ops::apply_operation;
use chc_store::{
    Clock, InstanceId, ObjectKey, Operation, StateKey, StoreInstance, Value, VertexId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

/// The replaced design, kept as the reference.
#[derive(Default)]
struct Oracle {
    values: HashMap<StateKey, Value>,
    log: HashMap<(StateKey, Clock), Vec<(Operation, Value)>>,
    /// Clocks with a counter below this are neither looked up nor logged.
    floor: u64,
}

impl Oracle {
    /// Returns `(returned, emulated, value after)`.
    fn apply(
        &mut self,
        key: &StateKey,
        op: &Operation,
        clock: Option<Clock>,
    ) -> (Value, bool, Value) {
        let current = self.values.get(key).cloned().unwrap_or_default();
        let replayable = clock.filter(|c| !op.is_read_only() && c.counter() >= self.floor);
        if let Some(c) = replayable {
            let logged = self.log.get(&(key.clone(), c));
            if let Some((_, prev)) = logged.and_then(|ops| ops.iter().find(|(o, _)| o == op)) {
                return (prev.clone(), true, current);
            }
        }
        let (new_value, returned) = apply_operation(key, &current, op).expect("typed ops");
        self.values.insert(key.clone(), new_value.clone());
        if let Some(c) = replayable {
            self.log
                .entry((key.clone(), c))
                .or_default()
                .push((op.clone(), returned.clone()));
        }
        (returned, false, new_value)
    }

    fn forget_clock(&mut self, clock: Clock) {
        self.log.retain(|(_, c), _| *c != clock);
    }

    fn forget_through(&mut self, counter: u64) {
        self.floor = self.floor.max(counter + 1);
        let floor = self.floor;
        self.log.retain(|(_, c), _| c.counter() >= floor);
    }

    fn len(&self) -> usize {
        self.log.values().map(Vec::len).sum()
    }
}

fn key(i: usize) -> StateKey {
    // Integer-valued and list-valued objects never share a key, so every
    // drawn operation is applicable.
    StateKey::shared(
        VertexId((i % 2) as u32),
        ObjectKey::named(&format!("obj{i}")),
    )
}

fn draw_op(rng: &mut StdRng, list: bool) -> Operation {
    if list {
        match rng.gen_range(0..4u32) {
            0 => Operation::PushBack(Value::Int(rng.gen_range(0..3))),
            1 => Operation::PushFront(Value::Int(rng.gen_range(0..3))),
            2 => Operation::PopFront,
            _ => Operation::Get,
        }
    } else {
        match rng.gen_range(0..5u32) {
            0 | 1 => Operation::Increment(rng.gen_range(1..3)),
            2 => Operation::Set(Value::Int(rng.gen_range(0..4))),
            3 => Operation::Delete,
            _ => Operation::Get,
        }
    }
}

/// How a case draws the counters of its clocks.
#[derive(Clone, Copy)]
enum Counters {
    /// A dozen or fewer, so re-issues and several ops per `(key, clock)`
    /// are the norm, not the exception.
    Few,
    /// Up to 5,000: half the cases draw anywhere in the range, half walk
    /// down from the top with re-issues just above the walk.
    Wide,
}

/// Draws the clock counters of one case.
struct CounterDraw {
    top: u64,
    /// `Some(position)` when walking downwards.
    walk: Option<u64>,
}

impl CounterDraw {
    fn new(rng: &mut StdRng, counters: Counters) -> CounterDraw {
        match counters {
            Counters::Few => CounterDraw {
                top: rng.gen_range(4..=12),
                walk: None,
            },
            Counters::Wide => {
                let top = rng.gen_range(1_000..=5_000);
                CounterDraw {
                    top,
                    walk: rng.gen_bool(0.5).then_some(top),
                }
            }
        }
    }

    fn next(&mut self, rng: &mut StdRng) -> u64 {
        match &mut self.walk {
            None => rng.gen_range(0..=self.top),
            Some(at) if rng.gen_bool(0.3) => (*at + rng.gen_range(0..=30u64)).min(self.top),
            Some(at) => {
                *at = at.saturating_sub(rng.gen_range(0..=60u64));
                *at
            }
        }
    }
}

/// One random `apply` / `forget_clock` / `forget_through` sequence, checked
/// step by step against the oracle and then through a checkpoint image.
fn store_agrees_with_the_oracle(seed: u64, counters: Counters) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut store = StoreInstance::new();
    let mut oracle = Oracle::default();
    // Every other object has a callback subscriber: those, and only those,
    // are sent whole values.
    for k in (0..6).step_by(2) {
        store.register_callback(&key(k), InstanceId(9));
    }
    let mut draw = CounterDraw::new(&mut rng, counters);
    let steps = match counters {
        Counters::Few => rng.gen_range(20..=200usize),
        Counters::Wide => rng.gen_range(100..=400usize),
    };
    for _ in 0..steps {
        match rng.gen_range(0..20u32) {
            0 => {
                let clock = Clock(draw.next(&mut rng));
                store.forget_clock(clock);
                oracle.forget_clock(clock);
            }
            1 => {
                // Advances up to half the range, so traffic lands on both
                // sides of the floor; the floor never moves down.
                let counter = rng.gen_range(0..=draw.top / 2);
                store.forget_through(counter);
                oracle.forget_through(counter);
                prop_assert_eq!(store.replay_floor(), oracle.floor);
            }
            _ => {
                let k = rng.gen_range(0..6usize);
                let key = key(k);
                let op = draw_op(&mut rng, k >= 4);
                let clock = rng.gen_bool(0.9).then(|| Clock(draw.next(&mut rng)));
                let got = store
                    .apply(InstanceId(rng.gen_range(0..3)), &key, &op, clock)
                    .expect("typed ops");
                let (returned, emulated, value) = oracle.apply(&key, &op, clock);
                prop_assert_eq!(&got.outcome.returned, &returned, "{:?} {:?}", op, clock);
                prop_assert_eq!(got.outcome.emulated, emulated, "{:?} {:?}", op, clock);
                prop_assert_eq!(&got.new_value, &(k % 2 == 0).then(|| value.clone()));
                prop_assert_eq!(store.peek(&key), value);
            }
        }
        prop_assert_eq!(store.update_log_len(), oracle.len());
    }
    // The checkpoint image carries the same log: rebuilt from it, the store
    // makes the same decisions.
    let image = encode_image_frame(&store, &mut Vec::new()).to_vec();
    let mut rebuilt = decode_image_frame(&image).expect("an image decodes");
    if store.replay_floor() > 0 {
        rebuilt.forget_through(store.replay_floor() - 1);
    }
    prop_assert_eq!(rebuilt.update_log_len(), oracle.len());
    for ((key, clock), ops) in &oracle.log {
        for (op, returned) in ops {
            let got = rebuilt.apply(InstanceId(0), key, op, Some(*clock)).unwrap();
            prop_assert!(got.outcome.emulated);
            prop_assert_eq!(&got.outcome.returned, returned);
        }
    }
}

proptest! {
    #[test]
    fn dedup_log_matches_the_naive_oracle(seed in any::<u64>()) {
        store_agrees_with_the_oracle(seed, Counters::Few);
    }

    #[test]
    fn dedup_log_matches_the_naive_oracle_over_wide_sparse_and_descending_counters(
        seed in any::<u64>()
    ) {
        store_agrees_with_the_oracle(seed, Counters::Wide);
    }
}
