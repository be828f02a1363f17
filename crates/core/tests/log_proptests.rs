//! Property tests for the packet-log machinery failover replays from
//! (§5.4 commit-frontier truncation, Figure 6 XOR deletes): for arbitrary
//! logged clock sets, commit frontiers and delete-protocol histories,
//!
//! * [`PacketLog::truncate_confirmed`] drops **exactly** the counters at or
//!   below the frontier — an un-committed clock (above the frontier) is
//!   never dropped, so a replacement can always be re-fed from the log, and
//! * [`XorDeleteLedger::delete_pending`] unlogs, with [`PacketLog::remove`],
//!   exactly the counters whose delete protocol completed, never one whose
//!   envelope is still in flight, and
//! * the [`XorDeleteLedger`], a window of cells cut at a floor, answers
//!   like one flat slot per counter for every counter above the floor.
//!
//! The vendored proptest shim has no collection strategies, so each case
//! draws a seed and derives its random scenario from a `StdRng` — failures
//! stay reproducible because the seed is the whole scenario.
//!
//! Each case runs against one log of a [`VertexLogs`] table, reached through
//! `log(v)` — the root's under [`ROOT_VERTEX`] or a vertex's egress log, by
//! the seed: the table treats them alike, and the log beside the one under
//! test must come out untouched. Counters span several of the log's
//! 256-counter pages.
//!
//! A model check drives one [`PacketLog`] and a `BTreeMap<Clock,
//! TaggedPacket>` oracle through the same random interleaving of every
//! operation and compares every answer, so the paged layout is held to the
//! tree's behaviour.

use chc_core::root::ROOT_VERTEX;
use chc_core::{delete_token, PacketLog, TaggedPacket, VertexLogs, XorDeleteLedger};
use chc_packet::Packet;
use chc_store::{Clock, InstanceId, VertexId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};

const EGRESS: VertexId = VertexId(2);

/// A table with the root's log and one egress log, and which of the two the
/// case exercises, then the bystander.
fn table(rng: &mut StdRng) -> (VertexLogs, VertexId, VertexId) {
    let mut logs = VertexLogs::new(1_024);
    logs.arm(EGRESS, 1_024);
    if rng.gen_bool(0.5) {
        (logs, ROOT_VERTEX, EGRESS)
    } else {
        (logs, EGRESS, ROOT_VERTEX)
    }
}

fn tp(counter: u64) -> TaggedPacket {
    TaggedPacket::new(
        Packet::builder().id(counter).build(),
        Clock::with_root(0, counter),
    )
}

proptest! {
    /// Frontier truncation never drops an un-committed clock, and never
    /// keeps a committed one.
    #[test]
    fn truncation_never_drops_an_uncommitted_clock(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let max = rng.gen_range(1..=1_200u64);
        let (logs, under_test, bystander) = table(&mut rng);
        logs.log(bystander).unwrap().insert(tp(1));
        let mut log = logs.log(under_test).unwrap();
        let mut logged = BTreeSet::new();
        for _ in 0..rng.gen_range(1..=512usize) {
            let c = rng.gen_range(1..=max);
            if log.insert(tp(c)) {
                logged.insert(c);
            }
        }
        let frontier = rng.gen_range(0..=max + 5);
        let dropped = log.truncate_confirmed(frontier);

        let kept: BTreeSet<u64> =
            log.snapshot().iter().map(|t| t.clock.counter()).collect();
        let expected_kept: BTreeSet<u64> =
            logged.iter().copied().filter(|c| *c > frontier).collect();
        prop_assert_eq!(&kept, &expected_kept, "frontier {} mis-truncated", frontier);
        prop_assert_eq!(dropped, logged.len() - expected_kept.len());
        prop_assert_eq!(log.len(), expected_kept.len());
        prop_assert_eq!(logs.log(bystander).unwrap().len(), 1);
    }

    /// The XOR delete sweep removes exactly the delivered-and-cancelled
    /// counters: a clock whose token was folded in but never folded back out
    /// by the sink (or never delivered at all) survives every sweep.
    #[test]
    fn xor_delete_sweep_only_removes_confirmed_clocks(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let max = rng.gen_range(1..=900u64);
        let mut ledger = XorDeleteLedger::default();
        let (logs, under_test, bystander) = table(&mut rng);
        let mut log = logs.log(under_test).unwrap();
        let mut logged = BTreeSet::new();
        let mut cancelled = BTreeSet::new();
        for c in 1..=max {
            if !rng.gen_bool(0.7) {
                continue;
            }
            assert!(log.insert(tp(c)));
            logged.insert(c);
            let token = delete_token(InstanceId(rng.gen_range(0..4)), c);
            ledger.fold(c, token);
            // Three protocol states: in flight, delivered but uncancelled
            // (the sink never folded the envelope back out), and confirmed.
            match rng.gen_range(0..3u32) {
                0 => {}
                1 => ledger.deliver(c, 0),
                _ => {
                    ledger.deliver(c, token);
                    cancelled.insert(c);
                }
            }
        }
        let delete = |ledger: &mut XorDeleteLedger, log: &mut PacketLog| {
            ledger.delete_pending(|c| assert!(log.remove(&Clock::with_root(0, c))))
        };
        let swept = delete(&mut ledger, &mut log);
        let kept: BTreeSet<u64> =
            log.snapshot().iter().map(|t| t.clock.counter()).collect();
        let expected_kept: BTreeSet<u64> =
            logged.difference(&cancelled).copied().collect();
        prop_assert_eq!(&kept, &expected_kept);
        prop_assert_eq!(swept, cancelled.len());
        // Sweeping is idempotent: a second pass finds nothing new.
        prop_assert_eq!(delete(&mut ledger, &mut log), 0);
        prop_assert!(logs.log(bystander).unwrap().is_empty());
    }
}

/// A packet at `counter`, with `id` telling apart the copies logged under
/// one clock.
fn tagged(counter: u64, id: u64) -> TaggedPacket {
    TaggedPacket::new(Packet::builder().id(id).build(), Clock(counter))
}

/// The log's behaviour, kept in the tree it used to be.
#[derive(Default)]
struct Oracle {
    entries: BTreeMap<Clock, TaggedPacket>,
    capacity: usize,
    high_water: usize,
    truncated: u64,
    deleted: u64,
    rejected: u64,
}

impl Oracle {
    fn insert(&mut self, tp: TaggedPacket) -> bool {
        if self.entries.len() >= self.capacity {
            self.rejected += 1;
            return false;
        }
        self.entries.insert(tp.clock, tp);
        self.high_water = self.high_water.max(self.entries.len());
        true
    }

    /// Drop what `doomed` selects; how many went.
    fn drop_where(&mut self, doomed: impl Fn(&Clock) -> bool) -> usize {
        let before = self.entries.len();
        self.entries.retain(|c, _| !doomed(c));
        before - self.entries.len()
    }

    fn truncate_confirmed(&mut self, up_to: u64) -> usize {
        if up_to == 0 {
            return 0;
        }
        let dropped = self.drop_where(|c| c.counter() <= up_to);
        self.truncated += dropped as u64;
        dropped
    }
}

/// A clock-keyed predicate the seed picks: about one clock in `modulus`.
fn confirmed_by(salt: u64, modulus: u64) -> impl Fn(&Clock) -> bool {
    move |c: &Clock| {
        ((c.0 ^ salt).wrapping_mul(0x9e37_79b9_7f4a_7c15) >> 32).is_multiple_of(modulus)
    }
}

proptest! {
    /// Every answer of the paged log equals the tree model's, over random
    /// interleavings of inserts (fresh and replacing), removes,
    /// truncations, XOR-style sweeps and capacity rejections.
    #[test]
    fn the_log_answers_like_a_clock_keyed_tree(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        // Counters from a base on, over about six pages; the base sits on,
        // just below or just above a page boundary, or anywhere.
        let base = match rng.gen_range(0..4u32) {
            0 => 1,
            1 => 255,
            2 => 256 * rng.gen_range(1..64u64),
            _ => rng.gen_range(1..1u64 << 40),
        };
        let span = rng.gen_range(1..=1_500u64);
        let capacity = rng.gen_range(1..=1_200usize);
        let mut log = PacketLog::new(capacity);
        let mut oracle = Oracle { capacity, ..Oracle::default() };
        let clock = |rng: &mut StdRng| Clock(base + rng.gen_range(0..span));
        for step in 0..rng.gen_range(1..=600u64) {
            match rng.gen_range(0..100u32) {
                0..=54 => {
                    let c = clock(&mut rng);
                    let tp = tagged(c.counter(), step);
                    prop_assert_eq!(log.insert(tp.clone()), oracle.insert(tp), "insert {:?}", c);
                }
                55..=69 => {
                    let c = clock(&mut rng);
                    let existed = oracle.entries.remove(&c).is_some();
                    oracle.deleted += u64::from(existed);
                    prop_assert_eq!(log.remove(&c), existed, "remove {:?}", c);
                }
                70..=79 => {
                    let up_to = match rng.gen_range(0..4u32) {
                        0 => 0,
                        1 => base + span + 10,
                        _ => base + rng.gen_range(0..span),
                    };
                    prop_assert_eq!(
                        log.truncate_confirmed(up_to),
                        oracle.truncate_confirmed(up_to),
                        "truncate through {}", up_to
                    );
                }
                80..=86 => {
                    let salt = rng.gen::<u64>();
                    let modulus = rng.gen_range(1..=8u64);
                    let doomed: Vec<Clock> = oracle.entries.keys().copied()
                        .filter(|c| confirmed_by(salt, modulus)(c)).collect();
                    let swept = doomed.iter().filter(|c| log.remove(c)).count();
                    let expected = oracle.drop_where(confirmed_by(salt, modulus));
                    oracle.deleted += expected as u64;
                    prop_assert_eq!(swept, expected, "sweep");
                }
                87..=95 => {
                    let c = clock(&mut rng);
                    prop_assert_eq!(log.contains(&c), oracle.entries.contains_key(&c));
                }
                _ => {
                    let expected: Vec<TaggedPacket> = oracle.entries.values().cloned().collect();
                    prop_assert_eq!(log.snapshot(), expected, "snapshot at step {}", step);
                }
            }
            prop_assert_eq!(log.len(), oracle.entries.len());
            prop_assert_eq!(log.is_full(), oracle.entries.len() >= capacity);
            prop_assert_eq!(
                log.first_counter(),
                oracle.entries.keys().next().map(Clock::counter)
            );
        }
        let expected: Vec<TaggedPacket> = oracle.entries.values().cloned().collect();
        prop_assert_eq!(log.snapshot(), expected, "snapshot order or content");
        prop_assert_eq!(log.is_empty(), oracle.entries.is_empty());
        prop_assert_eq!(
            (log.high_water(), log.truncated(), log.deleted(), log.rejected()),
            (oracle.high_water, oracle.truncated, oracle.deleted, oracle.rejected)
        );
        prop_assert_eq!(log.capacity(), capacity);
    }
}

const DELIVERED: u64 = 1 << 63;

/// The ledger as it was, one flat slot per counter from `base` on, with the
/// floor and the dropped cells written beside it: a dropped slot is `None`,
/// and a fold or delivery at or below the floor does nothing.
struct FlatLedger {
    base: u64,
    slots: Vec<Option<u64>>,
    floor: Option<u64>,
    released_dirty: u64,
    high_water: usize,
}

impl FlatLedger {
    fn released(&self, c: u64) -> bool {
        self.floor.is_some_and(|f| c <= f)
    }

    fn slot(&mut self, c: u64) -> Option<&mut u64> {
        if self.released(c) {
            return None;
        }
        let slot = self.slots[(c - self.base) as usize].get_or_insert(0);
        Some(slot)
    }

    fn held(&self) -> usize {
        self.slots.iter().flatten().count()
    }

    fn answer(&self, c: u64, holds: impl Fn(u64) -> bool) -> bool {
        self.slots[(c - self.base) as usize].is_some_and(holds)
    }

    fn dirty(v: u64) -> bool {
        v & DELIVERED != 0 && v as u32 != 0
    }

    fn deletable(v: u64) -> bool {
        v & DELIVERED != 0 && v as u32 == 0
    }
}

proptest! {
    /// The windowed ledger answers like a flat slot per counter over random
    /// folds, deliveries, takes, sweeps and releases: the same answer for every
    /// counter above the floor, folds at or below it ignored, and the dirty
    /// cells it released counted like the flat ledger's.
    #[test]
    fn the_ledger_answers_like_a_flat_slot_per_counter(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let base = match rng.gen_range(0..3u32) {
            0 => 0,
            1 => rng.gen_range(1..512u64),
            _ => rng.gen_range(1..1u64 << 40),
        };
        let span = rng.gen_range(1..=700u64);
        let mut ledger = XorDeleteLedger::default();
        let mut flat = FlatLedger {
            base,
            slots: vec![None; span as usize],
            floor: None,
            released_dirty: 0,
            high_water: 0,
        };
        // Few distinct tokens, so residues cancel often.
        let token = |rng: &mut StdRng| delete_token(InstanceId(rng.gen_range(0..3)), 0);
        for step in 0..rng.gen_range(1..=800u32) {
            let c = base + rng.gen_range(0..span);
            match rng.gen_range(0..100u32) {
                0..=34 => {
                    let t = token(&mut rng);
                    ledger.fold(c, t);
                    if let Some(v) = flat.slot(c) {
                        *v ^= u64::from(t);
                    }
                }
                35..=54 => {
                    // The vector a packet carries home: its tokens, or none.
                    let vector = if rng.gen_bool(0.5) { token(&mut rng) } else { 0 };
                    ledger.deliver(c, vector);
                    if let Some(v) = flat.slot(c) {
                        // A repeat replaces what the first one left.
                        let residue = if *v & DELIVERED == 0 { *v } else { 0 };
                        *v = DELIVERED | (residue ^ u64::from(vector));
                    }
                }
                55..=64 => {
                    ledger.take(c);
                    flat.slots[(c - base) as usize] = None;
                }
                65..=69 => {
                    let before = flat.held();
                    for slot in &mut flat.slots {
                        if slot.is_some_and(FlatLedger::deletable) {
                            *slot = None;
                        }
                    }
                    let deleted = ledger.delete_pending(|_| {});
                    prop_assert_eq!(deleted, before - flat.held(), "sweep at {}", step);
                }
                70..=77 => {
                    let f = base.saturating_sub(2) + rng.gen_range(0..span + 4);
                    ledger.release_through(f);
                    if flat.floor.is_none_or(|old| f > old) {
                        flat.floor = Some(f);
                        for (i, slot) in flat.slots.iter_mut().enumerate() {
                            if base + i as u64 <= f {
                                if let Some(v) = slot.take() {
                                    flat.released_dirty += u64::from(FlatLedger::dirty(v));
                                }
                            }
                        }
                    }
                }
                _ => {
                    let released = flat.released(c);
                    prop_assert_eq!(ledger.confirmed(c), flat.answer(c, |v| v & DELIVERED != 0),
                        "confirmed({}) at step {}, released {}", c, step, released);
                    prop_assert_eq!(ledger.deletable(c), flat.answer(c, FlatLedger::deletable),
                        "deletable({}) at step {}, released {}", c, step, released);
                }
            }
            flat.high_water = flat.high_water.max(flat.held());
            prop_assert_eq!(ledger.counters().count(), flat.held(), "held after step {}", step);
        }
        let held: Vec<u64> = (base..base + span)
            .filter(|&c| flat.slots[(c - base) as usize].is_some())
            .collect();
        prop_assert_eq!(ledger.counters().collect::<Vec<_>>(), held);
        let dirty_held = flat.slots.iter().flatten().filter(|&&v| FlatLedger::dirty(v)).count();
        prop_assert_eq!(ledger.dirty_confirmed(), flat.released_dirty + dirty_held as u64);
        prop_assert_eq!(ledger.high_water(), flat.high_water);
    }
}
