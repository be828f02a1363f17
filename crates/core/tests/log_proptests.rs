//! Property tests for the packet-log machinery failover replays from
//! (§5.4 commit-frontier truncation, Figure 6 XOR deletes): for arbitrary
//! logged clock sets, commit frontiers and delete-protocol histories,
//!
//! * [`PacketLog::truncate_confirmed`] drops **exactly** the counters at or
//!   below the frontier — an un-committed clock (above the frontier) is
//!   never dropped, so a replacement can always be re-fed from the log, and
//! * [`PacketLog::delete_where`] against an [`XorDeleteLedger`] removes
//!   exactly the counters whose delete protocol completed, never one whose
//!   envelope is still in flight.
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
//! tree's behaviour, with one rule the tree did not have written down:
//! truncation drops only the entries of the root id it names.

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
        let dropped = log.truncate_confirmed(0, frontier);

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
        let ledger = XorDeleteLedger::new(max);
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
                1 => ledger.mark_delivered(c),
                _ => {
                    ledger.mark_delivered(c);
                    ledger.fold(c, token);
                    cancelled.insert(c);
                }
            }
        }
        let swept = log.delete_where(|clock| ledger.deletable(clock.counter()));
        let kept: BTreeSet<u64> =
            log.snapshot().iter().map(|t| t.clock.counter()).collect();
        let expected_kept: BTreeSet<u64> =
            logged.difference(&cancelled).copied().collect();
        prop_assert_eq!(&kept, &expected_kept);
        prop_assert_eq!(swept, cancelled.len());
        // Sweeping is idempotent: a second pass finds nothing new.
        prop_assert_eq!(
            log.delete_where(|clock| ledger.deletable(clock.counter())),
            0
        );
        prop_assert!(logs.log(bystander).unwrap().is_empty());
    }
}

/// A packet of root `root` at `counter`, with `id` telling apart the copies
/// logged under one clock.
fn tagged(root: u8, counter: u64, id: u64) -> TaggedPacket {
    TaggedPacket::new(
        Packet::builder().id(id).build(),
        Clock::with_root(root, counter),
    )
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

    fn truncate_confirmed(&mut self, root: u8, up_to: u64) -> usize {
        if up_to == 0 {
            return 0;
        }
        let dropped = self.drop_where(|c| c.root() == root && c.counter() <= up_to);
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
    /// interleavings of inserts (fresh and replacing), removes, per-root
    /// truncations, XOR-style sweeps and capacity rejections.
    #[test]
    fn the_log_answers_like_a_clock_keyed_tree(seed in 0u64..1_000_000) {
        let mut rng = StdRng::seed_from_u64(seed);
        let roots = rng.gen_range(1..=3u8);
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
        let clock = |rng: &mut StdRng| {
            Clock::with_root(rng.gen_range(0..roots), base + rng.gen_range(0..span))
        };
        for step in 0..rng.gen_range(1..=600u64) {
            match rng.gen_range(0..100u32) {
                0..=54 => {
                    let c = clock(&mut rng);
                    let tp = tagged(c.root(), c.counter(), step);
                    prop_assert_eq!(log.insert(tp.clone()), oracle.insert(tp), "insert {:?}", c);
                }
                55..=69 => {
                    let c = clock(&mut rng);
                    let existed = oracle.entries.remove(&c).is_some();
                    prop_assert_eq!(log.remove(&c), existed, "remove {:?}", c);
                }
                70..=79 => {
                    let root = rng.gen_range(0..roots);
                    let up_to = match rng.gen_range(0..4u32) {
                        0 => 0,
                        1 => base + span + 10,
                        _ => base + rng.gen_range(0..span),
                    };
                    prop_assert_eq!(
                        log.truncate_confirmed(root, up_to),
                        oracle.truncate_confirmed(root, up_to),
                        "truncate root {} through {}", root, up_to
                    );
                }
                80..=86 => {
                    let salt = rng.gen::<u64>();
                    let modulus = rng.gen_range(1..=8u64);
                    let swept = log.delete_where(confirmed_by(salt, modulus));
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
