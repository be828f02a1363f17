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
//! test must come out untouched.

use chc_core::root::ROOT_VERTEX;
use chc_core::{delete_token, TaggedPacket, VertexLogs, XorDeleteLedger};
use chc_packet::Packet;
use chc_store::{Clock, InstanceId, VertexId};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

const EGRESS: VertexId = VertexId(2);

/// A table with the root's log and one egress log, and which of the two the
/// case exercises, then the bystander.
fn table(rng: &mut StdRng) -> (VertexLogs, VertexId, VertexId) {
    let mut logs = VertexLogs::new(256);
    logs.arm(EGRESS, 256);
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
        let max = rng.gen_range(1..=200u64);
        let (logs, under_test, bystander) = table(&mut rng);
        logs.log(bystander).unwrap().insert(tp(1));
        let mut log = logs.log(under_test).unwrap();
        let mut logged = BTreeSet::new();
        for _ in 0..rng.gen_range(1..=128usize) {
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
        let max = rng.gen_range(1..=100u64);
        let ledger = XorDeleteLedger::new(max);
        let (logs, under_test, bystander) = table(&mut rng);
        let mut log = logs.log(under_test).unwrap();
        let mut logged = BTreeSet::new();
        let mut cancelled = BTreeSet::new();
        for c in 1..=max {
            if !rng.gen_bool(0.7) {
                continue;
            }
            log.insert(tp(c));
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
