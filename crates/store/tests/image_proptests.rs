//! A checkpoint image round-trips the whole instance.
//!
//! The storage engine checkpoints a shard by encoding its live
//! [`StoreInstance`] straight into one frame ([`encode_image_frame`]) and
//! restores it by decoding that frame straight into a new one
//! ([`decode_image_frame`]). Random instances — per-flow owners, logged
//! updates that are not integer increments, non-deterministic values,
//! callbacks and a raised replay floor — must come back equal: the same
//! entries, log length and span and callback registrations; every update
//! they were issued answers the same on both, so each logged one is emulated
//! with what it first returned; and the decoded instance encodes to the same
//! bytes. An image is a function of the state alone: the same updates of
//! shared objects issued by another instance image to the same bytes. Every
//! strict prefix and every single-byte flip of a frame is rejected.
//!
//! The vendored proptest shim has no collection strategies, so each case
//! draws a seed and derives its random scenario from a `StdRng` — failures
//! stay reproducible because the seed is part of the case.

use chc_packet::{FlowKey, ScopeKey};
use chc_store::backend::{decode_image_frame, encode_image_frame};
use chc_store::{
    Clock, InstanceId, ObjectKey, Operation, StateKey, StoreInstance, Value, VertexId,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;

const KEYS: usize = 9;

/// Key `i`: a shared counter, a per-flow counter owned by instance `i % 2`,
/// or a shared list, by `i % 3`.
fn key(i: usize) -> StateKey {
    let vertex = VertexId((i % 2) as u32);
    match i % 3 {
        0 => StateKey::shared(vertex, ObjectKey::named(&format!("count{i}"))),
        1 => StateKey::per_flow(
            vertex,
            InstanceId((i % 2) as u32),
            ObjectKey::scoped("conn", ScopeKey::Flow(FlowKey(i as u128 * 0x1_0000_0001))),
        ),
        _ => StateKey::shared(vertex, ObjectKey::named(&format!("list{i}"))),
    }
}

fn draw_op(rng: &mut StdRng, list: bool) -> Operation {
    if list {
        match rng.gen_range(0..4u32) {
            0 | 1 => Operation::PushBack(Value::Int(rng.gen_range(0..9))),
            2 => Operation::PopFront,
            _ => Operation::Get,
        }
    } else {
        match rng.gen_range(0..5u32) {
            0..=2 => Operation::Increment(rng.gen_range(1..4)),
            3 => Operation::Set(Value::Pair(rng.gen_range(0..4), 1)),
            _ => Operation::Get,
        }
    }
}

/// An update the instance was issued: who, on what, which op, which clock.
type Issued = (InstanceId, StateKey, Operation, Option<Clock>);

/// A random instance and every update it was issued.
fn random_instance(rng: &mut StdRng) -> (StoreInstance, Vec<Issued>) {
    let mut store = StoreInstance::new();
    let top = rng.gen_range(8..=40u64);
    let clock = |rng: &mut StdRng| Clock(rng.gen_range(1..=top));
    let mut issued = Vec::new();
    for _ in 0..rng.gen_range(10..=60usize) {
        match rng.gen_range(0..20u32) {
            0 => store.forget_through(rng.gen_range(0..=top / 3)),
            1 => store.forget_clock(clock(rng)),
            2 => store.register_callback(
                &key(rng.gen_range(0..KEYS)),
                InstanceId(rng.gen_range(0..4)),
            ),
            3 | 4 => {
                let candidate = Value::Int(rng.gen_range(0..1_000));
                store.nondet_value(clock(rng), rng.gen_range(0..3), candidate);
            }
            _ => {
                let k = rng.gen_range(0..KEYS);
                let key = key(k);
                let requester = key.instance.unwrap_or(InstanceId(rng.gen_range(0..3)));
                let op = draw_op(rng, k % 3 == 2);
                let clock = rng.gen_bool(0.9).then(|| clock(rng));
                // A pop of an empty list is an error like any other answer.
                let _ = store.apply(requester, &key, &op, clock);
                issued.push((requester, key, op, clock));
            }
        }
    }
    (store, issued)
}

fn entries(store: &StoreInstance) -> HashMap<StateKey, (Value, Option<InstanceId>)> {
    store
        .entries()
        .into_iter()
        .map(|(key, value, owner)| (key, (value, owner)))
        .collect()
}

fn callbacks(store: &StoreInstance) -> Vec<Vec<InstanceId>> {
    (0..KEYS)
        .map(|k| {
            let mut who = store.callback_registrations(&key(k));
            who.sort_unstable();
            who
        })
        .collect()
}

fn round_trip(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (store, issued) = random_instance(&mut rng);
    let mut buf = Vec::new();
    let frame = encode_image_frame(&store, &mut buf).to_vec();
    let mut decoded = decode_image_frame(&frame).expect("an image decodes");

    prop_assert_eq!(entries(&decoded), entries(&store));
    prop_assert_eq!(decoded.update_log_len(), store.update_log_len());
    prop_assert_eq!(decoded.update_log_span(), store.update_log_span());
    prop_assert_eq!(callbacks(&decoded), callbacks(&store));
    let mut again = Vec::new();
    prop_assert_eq!(encode_image_frame(&decoded, &mut again), &frame[..]);

    // The updates of shared objects, issued by instance 1 or by instance 2
    // to fresh instances, logged or not (the top floor, a server with no
    // replay source): the two images are the same bytes.
    for top_floor in [false, true] {
        let image_by = |who: u32| {
            let mut store = StoreInstance::new();
            if top_floor {
                store.forget_through(u64::MAX);
            }
            for (_, key, op, clock) in issued.iter().filter(|i| i.1.instance.is_none()) {
                let _ = store.apply(InstanceId(who), key, op, *clock);
            }
            encode_image_frame(&store, &mut Vec::new()).to_vec()
        };
        prop_assert_eq!(image_by(1), image_by(2), "top floor: {}", top_floor);
    }

    // What the server does after a restore: raise the floor again.
    if store.replay_floor() > 0 {
        decoded.forget_through(store.replay_floor() - 1);
    }
    let mut live = store.clone();
    // A logged non-deterministic value is answered instead of the candidate
    // (which no draw logs).
    let candidate = Value::Int(-1);
    for clock in (0..=40).map(Clock) {
        for slot in 0..3 {
            prop_assert_eq!(
                live.nondet_value(clock, slot, candidate.clone()),
                decoded.nondet_value(clock, slot, candidate.clone())
            );
        }
    }
    for (requester, key, op, clock) in &issued {
        let answer = |instance: &mut StoreInstance| {
            instance.apply(*requester, key, op, *clock).map(|mut r| {
                r.notify.sort_unstable();
                r
            })
        };
        prop_assert_eq!(
            answer(&mut decoded),
            answer(&mut live),
            "{:?} {:?}",
            op,
            clock
        );
    }
}

fn rejections(seed: u64) {
    let mut rng = StdRng::seed_from_u64(seed);
    let (store, _) = random_instance(&mut rng);
    let mut buf = Vec::new();
    let frame = encode_image_frame(&store, &mut buf).to_vec();
    for cut in 0..frame.len() {
        prop_assert!(
            decode_image_frame(&frame[..cut]).is_none(),
            "prefix {}",
            cut
        );
    }
    let mut corrupt = frame.clone();
    for at in 0..frame.len() {
        let flip = rng.gen_range(1..=u8::MAX);
        corrupt[at] ^= flip;
        prop_assert!(
            decode_image_frame(&corrupt).is_none(),
            "byte {} ^ {:#04x}",
            at,
            flip
        );
        corrupt[at] = frame[at];
    }
    // Nor does a frame with anything behind it decode.
    corrupt.push(0);
    prop_assert!(decode_image_frame(&corrupt).is_none());
}

proptest! {
    #[test]
    fn an_image_round_trips_the_whole_instance(seed in any::<u64>()) {
        round_trip(seed);
    }

    #[test]
    fn every_prefix_and_every_flipped_byte_of_an_image_is_rejected(seed in any::<u64>()) {
        rejections(seed);
    }
}
