//! Online invariant sentinel: continuous checks of the paper's correctness
//! properties against the event journal and the delivery stream, while the
//! engine runs.
//!
//! ## Invariant list (and the paper property each encodes)
//!
//! * **Frontier monotonicity** — the commit frontier (minimum confirmed
//!   clock over every on-path component and the sink) may only advance;
//!   a regression would mean the root log truncated entries that were not
//!   actually confirmed, voiding the bounded-replay guarantee (§5.4,
//!   Figure 6).
//! * **Per-flow delivery order** — the sink must observe each flow's live
//!   packets in clock order: CHC's root clock serializes state updates, and
//!   SPSC ring FIFO per route preserves it end to end (requirement R4,
//!   "ordered updates"). Replayed copies and pre/post scale-cut pairs are
//!   exempt (recovery traffic may legitimately arrive late; a scale cut
//!   re-routes a flow to a different instance).
//! * **Packet conservation** — every packet copy pushed into an SPSC ring
//!   is eventually popped, and every popped copy is accounted: processed,
//!   suppressed as a duplicate (§5.3), destroyed by a fail-stop kill, or
//!   delivered. Nothing is silently lost or invented (the run-level form of
//!   "injected = delivered + dropped + suppressed + in-flight").
//! * **Exactly-once delivery** — without deliberate re-injection the sink
//!   must see zero duplicate clocks, failover replay included (§5.3).
//! * **Bounded root log** — the packet log never exceeds its configured
//!   capacity, and its final depth is bounded by the un-confirmed suffix
//!   `injected − frontier` (§5, buffer-bloat bound).
//! * **Failover phase order** — for each failed slot: killed → failover
//!   begin → replacement spawned → replay complete → failover end (§5.4,
//!   "NF instance" recovery protocol).
//! * **Root handoff** — a killed root is followed by exactly one new root,
//!   which resumes at or above the counter the dead one was killed at: no
//!   takeover without a kill, no double kill, no resume below the kill, no
//!   kill left without a takeover at shutdown (§5.4, "root" recovery).
//!
//! Violations are recorded as journal events (`invariant_violation`) and
//! surfaced in the run report, so every existing failover/equivalence test
//! asserts `violations == 0` for free.

use crate::journal::{Event, EventKind};
use crate::metrics::Counter;
use std::collections::hash_map::{Entry, RandomState};
use std::collections::HashMap;
use std::hash::{BuildHasher, Hasher};

/// Which invariant a violation belongs to. Codes are stable (journal events
/// carry them numerically to keep `EventKind` `Copy`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum InvariantKind {
    /// Commit frontier regressed.
    FrontierMonotonic,
    /// A flow's live packets reached the sink out of clock order.
    FlowOrdering,
    /// A packet copy was lost or invented somewhere in the pipeline.
    Conservation,
    /// Duplicate clocks reached the sink without a re-injection drill.
    ExactlyOnce,
    /// The root packet log exceeded its bound.
    RootlogBound,
    /// Failover phases out of order.
    FailoverPhase,
    /// Root kill / takeover protocol broken: a takeover without a prior root
    /// kill, a takeover that resumes below the killed counter, a double
    /// kill, or a killed root no new root ever took over for.
    RootHandoff,
    /// The store's duplicate-suppression log holds more than the packets
    /// above the replay floor can account for (entries that should have
    /// been pruned at the floor, or a healthy run that logged at all).
    DedupLogBound,
    /// A packet the root took is unaccounted for: neither delivered,
    /// dropped by an on-path NF, lost with a crashed root nor rejected by a
    /// full root log.
    Books,
}

impl InvariantKind {
    /// Stable numeric code (journal representation). A retired code is not
    /// reused: 8 named the engine's XOR delete-token residue.
    pub fn code(&self) -> u32 {
        match self {
            InvariantKind::FrontierMonotonic => 1,
            InvariantKind::FlowOrdering => 2,
            InvariantKind::Conservation => 3,
            InvariantKind::ExactlyOnce => 4,
            InvariantKind::RootlogBound => 5,
            InvariantKind::FailoverPhase => 6,
            InvariantKind::RootHandoff => 7,
            InvariantKind::DedupLogBound => 9,
            InvariantKind::Books => 10,
        }
    }

    /// Inverse of [`InvariantKind::code`].
    pub fn from_code(code: u32) -> Option<InvariantKind> {
        Some(match code {
            1 => InvariantKind::FrontierMonotonic,
            2 => InvariantKind::FlowOrdering,
            3 => InvariantKind::Conservation,
            4 => InvariantKind::ExactlyOnce,
            5 => InvariantKind::RootlogBound,
            6 => InvariantKind::FailoverPhase,
            7 => InvariantKind::RootHandoff,
            9 => InvariantKind::DedupLogBound,
            10 => InvariantKind::Books,
            _ => return None,
        })
    }

    /// Stable snake_case name.
    pub fn name(&self) -> &'static str {
        match self {
            InvariantKind::FrontierMonotonic => "frontier_monotonic",
            InvariantKind::FlowOrdering => "flow_ordering",
            InvariantKind::Conservation => "conservation",
            InvariantKind::ExactlyOnce => "exactly_once",
            InvariantKind::RootlogBound => "rootlog_bound",
            InvariantKind::FailoverPhase => "failover_phase",
            InvariantKind::RootHandoff => "root_handoff",
            InvariantKind::DedupLogBound => "dedup_log_bound",
            InvariantKind::Books => "books",
        }
    }
}

/// Name for a numeric invariant code (used by the journal's JSONL
/// rendering; unknown codes render as `"unknown"`).
pub fn invariant_name(code: u32) -> &'static str {
    InvariantKind::from_code(code).map_or("unknown", |k| k.name())
}

/// One detected invariant violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Which invariant broke.
    pub invariant: InvariantKind,
    /// When it was detected, nanoseconds since the run epoch.
    pub t_ns: u64,
    /// The offending observed value (meaning depends on the invariant:
    /// regressed frontier, out-of-order clock, actual count, …).
    pub observed: u64,
    /// The bound or expected value it broke.
    pub expected: u64,
    /// Human-readable description.
    pub detail: String,
}

/// Per-slot failover phase, advanced by the journal events.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FailoverPhase {
    Killed,
    Begun,
    Spawned,
    Replayed,
    Ended,
}

/// Streaming checker over the event journal: feed it events in sequence
/// order and collect violations. Pure state machine — no clocks, no I/O —
/// so it is driven identically by the engine, which hands it each event as
/// the event is recorded, and by tests injecting synthetic event streams.
#[derive(Debug, Default)]
pub struct Sentinel {
    last_frontier: u64,
    phases: HashMap<(u32, u32), FailoverPhase>,
    /// The counter the root was killed at, once it was.
    root_killed_at: Option<u64>,
    root_recovered: bool,
    /// Events observed.
    pub events_checked: u64,
    /// `commit_frontier` events observed.
    pub frontier_advances: u64,
}

impl Sentinel {
    /// A fresh checker.
    pub fn new() -> Sentinel {
        Sentinel::default()
    }

    /// Observe one journal event; returns any violations it exposes.
    pub fn observe(&mut self, event: &Event) -> Vec<Violation> {
        let mut out = Vec::new();
        self.events_checked += 1;
        let t_ns = event.t_ns;
        match event.kind {
            EventKind::CommitFrontier { frontier, .. } => {
                self.frontier_advances += 1;
                if frontier < self.last_frontier {
                    out.push(Violation {
                        invariant: InvariantKind::FrontierMonotonic,
                        t_ns,
                        observed: frontier,
                        expected: self.last_frontier,
                        detail: format!(
                            "commit frontier regressed from {} to {frontier}",
                            self.last_frontier
                        ),
                    });
                }
                self.last_frontier = self.last_frontier.max(frontier);
            }
            EventKind::InstanceKilled { vertex, index, .. } => {
                self.phases.insert((vertex, index), FailoverPhase::Killed);
            }
            EventKind::FailoverBegin { vertex, index, .. } => {
                out.extend(self.advance(
                    (vertex, index),
                    FailoverPhase::Killed,
                    FailoverPhase::Begun,
                    t_ns,
                    "failover_begin before instance_killed",
                ));
            }
            EventKind::ReplacementSpawn { vertex, index, .. } => {
                out.extend(self.advance(
                    (vertex, index),
                    FailoverPhase::Begun,
                    FailoverPhase::Spawned,
                    t_ns,
                    "replacement_spawn before failover_begin",
                ));
            }
            EventKind::ReplayComplete { vertex, index, .. } => {
                out.extend(self.advance(
                    (vertex, index),
                    FailoverPhase::Spawned,
                    FailoverPhase::Replayed,
                    t_ns,
                    "replay_complete before replacement_spawn",
                ));
            }
            EventKind::FailoverEnd { vertex, index, .. } => {
                out.extend(self.advance(
                    (vertex, index),
                    FailoverPhase::Replayed,
                    FailoverPhase::Ended,
                    t_ns,
                    "failover_end before replay_complete",
                ));
            }
            EventKind::RootKilled { at_counter } => {
                if self.root_killed_at.is_some() {
                    out.push(Violation {
                        invariant: InvariantKind::RootHandoff,
                        t_ns,
                        observed: at_counter,
                        expected: 0,
                        detail: "second root_killed — the root can only fail-stop once".into(),
                    });
                }
                self.root_killed_at = Some(at_counter);
            }
            EventKind::RootTakeover { resumed_at, .. } => {
                match self.root_killed_at {
                    None => out.push(Violation {
                        invariant: InvariantKind::RootHandoff,
                        t_ns,
                        observed: resumed_at,
                        expected: 0,
                        detail: "root_takeover without a preceding root_killed".into(),
                    }),
                    // Below the kill, the new root would reuse a clock the
                    // dead one may have handed out.
                    Some(killed_at) if resumed_at < killed_at => out.push(Violation {
                        invariant: InvariantKind::RootHandoff,
                        t_ns,
                        observed: resumed_at,
                        expected: killed_at,
                        detail: format!(
                            "root_takeover resumed at {resumed_at}, below the killed counter \
                             {killed_at}"
                        ),
                    }),
                    Some(_) => {}
                }
                self.root_recovered = true;
            }
            // Spawns, scale cuts, shard restarts and our own violation
            // events carry no phase obligations.
            EventKind::InstanceSpawn { .. }
            | EventKind::ScaleCut { .. }
            | EventKind::ShardRestart { .. }
            | EventKind::InvariantViolation { .. } => {}
        }
        out
    }

    fn advance(
        &mut self,
        slot: (u32, u32),
        required: FailoverPhase,
        next: FailoverPhase,
        t_ns: u64,
        what: &str,
    ) -> Option<Violation> {
        let current = self.phases.get(&slot).copied();
        self.phases.insert(slot, next);
        if current == Some(required) {
            return None;
        }
        Some(Violation {
            invariant: InvariantKind::FailoverPhase,
            t_ns,
            observed: current.map_or(0, |p| p as u64 + 1),
            expected: required as u64 + 1,
            detail: format!("vertex {} index {}: {what}", slot.0, slot.1),
        })
    }

    /// Failover slots that started a phase sequence but never reached
    /// `failover_end` (checked at shutdown).
    pub fn unfinished_failovers(&self) -> Vec<(u32, u32)> {
        self.phases
            .iter()
            .filter(|(_, p)| **p != FailoverPhase::Ended)
            .map(|(slot, _)| *slot)
            .collect()
    }

    /// The root was killed but no new root ever took over (checked at
    /// shutdown).
    pub fn root_handoff_pending(&self) -> bool {
        self.root_killed_at.is_some() && !self.root_recovered
    }
}

/// Streaming per-flow delivery-order checker, fed by the sink with every
/// non-duplicate live arrival.
///
/// `scale_cut` is the clock counter of a pre-planned scale-out event, if
/// any: the cut legitimately re-routes flows to a different instance, so
/// pre-cut and post-cut packets of one flow may interleave at the sink;
/// ordering is only required within each side of the cut.
#[derive(Debug, Default)]
pub struct FlowOrderChecker {
    last: HashMap<u128, u64, FlowKeyHash>,
    scale_cut: Option<u64>,
    /// Arrivals checked.
    pub checked: u64,
}

/// Hash state for the checker's 128-bit flow keys: one seeded multiply-fold
/// instead of SipHash over sixteen bytes, on the sink's per-delivery path.
/// The seed is drawn per checker from std's `RandomState`, so colliding keys
/// cannot be prepared ahead of a run.
#[derive(Debug, Clone, Copy)]
struct FlowKeyHash {
    seed: u64,
}

impl Default for FlowKeyHash {
    fn default() -> FlowKeyHash {
        FlowKeyHash {
            seed: RandomState::new().build_hasher().finish(),
        }
    }
}

impl BuildHasher for FlowKeyHash {
    type Hasher = FlowKeyHasher;

    fn build_hasher(&self) -> FlowKeyHasher {
        FlowKeyHasher(self.seed)
    }
}

/// See [`FlowKeyHash`]. Starts at the seed; `write_u128` is the only call
/// a `u128` key makes.
struct FlowKeyHasher(u64);

impl Hasher for FlowKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        for b in bytes {
            self.0 = (self.0 ^ *b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u128(&mut self, key: u128) {
        const ODD: u64 = 0x9e37_79b9_7f4a_7c15;
        let folded = ((key as u64) ^ self.0).wrapping_mul(ODD) ^ (key >> 64) as u64;
        let mixed = folded.wrapping_mul(ODD);
        // The table indexes with the low bits, a product carries its entropy
        // in the high ones.
        self.0 = mixed ^ (mixed >> 32);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

impl FlowOrderChecker {
    /// A checker; `scale_cut` per the type docs.
    pub fn new(scale_cut: Option<u64>) -> FlowOrderChecker {
        FlowOrderChecker {
            scale_cut,
            ..FlowOrderChecker::default()
        }
    }

    /// Observe a live (non-replay, non-duplicate) delivery of flow `flow`
    /// with clock counter `counter`. `t_ns` supplies the violation's
    /// timestamp and is only called when there is one, so a correct run
    /// reads no clock here.
    pub fn observe(
        &mut self,
        flow: u128,
        counter: u64,
        t_ns: impl FnOnce() -> u64,
    ) -> Option<Violation> {
        self.checked += 1;
        let prev = match self.last.entry(flow) {
            Entry::Vacant(slot) => {
                slot.insert(counter);
                return None;
            }
            Entry::Occupied(mut slot) => {
                let prev = *slot.get();
                if counter > prev {
                    slot.insert(counter);
                }
                prev
            }
        };
        let same_side = match self.scale_cut {
            Some(cut) => (prev >= cut) == (counter >= cut),
            None => true,
        };
        if same_side && counter <= prev {
            return Some(Violation {
                invariant: InvariantKind::FlowOrdering,
                t_ns: t_ns(),
                observed: counter,
                expected: prev + 1,
                detail: format!("flow {flow:#x}: clock {counter} delivered after {prev}"),
            });
        }
        None
    }
}

/// Copy-level conservation ledger, updated on the packet path (gated on the
/// sentinel switch). `ring_pushed` counts at flush time — copies sitting in
/// an unflushed output buffer when an instance fail-stops die with it, like
/// bytes in a crashed process's socket buffer, and are deliberately never
/// counted as "in the network".
#[derive(Debug, Default)]
pub struct ConservationLedger {
    /// Copies pushed into any SPSC ring (root, instances).
    pub ring_pushed: Counter,
    /// Copies popped from any SPSC ring (instances, sink).
    pub ring_popped: Counter,
    /// Popped copies destroyed by a fail-stop kill (the batch tail the
    /// dying instance had already dequeued but not processed).
    pub kill_lost: Counter,
}

impl ConservationLedger {
    /// A zeroed ledger.
    pub fn new() -> ConservationLedger {
        ConservationLedger::default()
    }
}

/// Sentinel section of a run report: the violations plus the counters that
/// prove how much was actually checked.
#[derive(Debug, Clone, Default)]
pub struct SentinelReport {
    /// Every detected violation, in detection order. Empty in a correct run.
    pub violations: Vec<Violation>,
    /// Journal events the sentinel consumed.
    pub events_checked: u64,
    /// `commit_frontier` advances observed.
    pub frontier_advances: u64,
    /// Sink arrivals put through the per-flow order checker.
    pub deliveries_checked: u64,
    /// Copies pushed into SPSC rings over the run.
    pub ring_pushed: u64,
    /// Copies popped from SPSC rings over the run.
    pub ring_popped: u64,
    /// Popped copies destroyed by fail-stop kills.
    pub kill_lost: u64,
    /// Logged copies failover replacements took from a log snapshot: they
    /// enter an instance without a ring pop.
    pub replayed: u64,
    /// Packets fully processed by NF instances (all instances, failed and
    /// replacements included).
    pub processed: u64,
    /// Duplicate copies suppressed at input queues.
    pub suppressed: u64,
    /// Copies that arrived at the sink (duplicates included).
    pub sink_arrivals: u64,
}

impl SentinelReport {
    /// True when no invariant was violated.
    pub fn ok(&self) -> bool {
        self.violations.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(seq: u64, kind: EventKind) -> Event {
        Event {
            seq,
            t_ns: seq * 100,
            kind,
        }
    }

    fn failover_events(vertex: u32, index: u32) -> Vec<EventKind> {
        let instance = 7;
        vec![
            EventKind::InstanceKilled {
                vertex,
                index,
                instance,
                clock: 50,
            },
            EventKind::FailoverBegin {
                vertex,
                index,
                instance,
            },
            EventKind::ReplacementSpawn {
                vertex,
                index,
                instance: instance + 1,
            },
            EventKind::ReplayComplete {
                vertex,
                index,
                instance: instance + 1,
                packets_replayed: 40,
            },
            EventKind::FailoverEnd {
                vertex,
                index,
                instance: instance + 1,
                recovery_ns: 1000,
            },
        ]
    }

    #[test]
    fn clean_failover_sequence_passes() {
        let mut s = Sentinel::new();
        for (i, kind) in failover_events(1, 0).into_iter().enumerate() {
            assert!(s.observe(&ev(i as u64, kind)).is_empty(), "step {i}");
        }
        assert!(s.unfinished_failovers().is_empty());
        assert_eq!(s.events_checked, 5);
    }

    #[test]
    fn out_of_order_failover_is_caught() {
        let mut s = Sentinel::new();
        let evs = failover_events(1, 0);
        // Skip failover_begin: replacement_spawn right after the kill.
        assert!(s.observe(&ev(0, evs[0])).is_empty());
        let v = s.observe(&ev(1, evs[2]));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, InvariantKind::FailoverPhase);
    }

    #[test]
    fn frontier_regression_is_caught_and_advance_is_not() {
        let mut s = Sentinel::new();
        for (i, f) in [10u64, 25, 25, 40].into_iter().enumerate() {
            let v = s.observe(&ev(
                i as u64,
                EventKind::CommitFrontier {
                    frontier: f,
                    dropped: 1,
                },
            ));
            assert!(v.is_empty(), "monotone frontier {f} flagged");
        }
        let v = s.observe(&ev(
            9,
            EventKind::CommitFrontier {
                frontier: 12,
                dropped: 0,
            },
        ));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, InvariantKind::FrontierMonotonic);
        assert_eq!(v[0].observed, 12);
        assert_eq!(v[0].expected, 40);
        assert_eq!(s.frontier_advances, 5);
    }

    #[test]
    fn flow_order_checker_flags_regressions_only_within_a_side() {
        let mut c = FlowOrderChecker::new(None);
        assert!(c.observe(0xaa, 5, || 0).is_none());
        assert!(c.observe(0xaa, 9, || 0).is_none());
        assert!(c.observe(0xbb, 7, || 0).is_none(), "other flow independent");
        let v = c.observe(0xaa, 8, || 0).expect("regression caught");
        assert_eq!(v.invariant, InvariantKind::FlowOrdering);
        assert_eq!(c.checked, 4);

        // With a scale cut at 100, pre-cut stragglers may trail post-cut
        // packets (the flow moved instances) — but order within each side
        // still holds.
        let mut c = FlowOrderChecker::new(Some(100));
        assert!(c.observe(0xcc, 150, || 0).is_none());
        assert!(c.observe(0xcc, 90, || 0).is_none(), "cross-cut is exempt");
        assert!(c.observe(0xcc, 160, || 0).is_none());
        assert!(
            c.observe(0xcc, 155, || 0).is_some(),
            "post-cut regression still caught"
        );
    }

    #[test]
    fn root_handoff_protocol_is_checked() {
        // Clean kill → takeover sequence.
        let mut s = Sentinel::new();
        assert!(s
            .observe(&ev(0, EventKind::RootKilled { at_counter: 50 }))
            .is_empty());
        assert!(s.root_handoff_pending());
        assert!(s
            .observe(&ev(
                1,
                EventKind::RootTakeover {
                    resumed_at: 101,
                    packets_lost: 7,
                },
            ))
            .is_empty());
        assert!(!s.root_handoff_pending());
        // A second kill is a violation.
        let v = s.observe(&ev(2, EventKind::RootKilled { at_counter: 60 }));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, InvariantKind::RootHandoff);

        // Takeover without any kill is a violation.
        let mut s = Sentinel::new();
        let v = s.observe(&ev(
            0,
            EventKind::RootTakeover {
                resumed_at: 1,
                packets_lost: 0,
            },
        ));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, InvariantKind::RootHandoff);
    }

    #[test]
    fn a_takeover_below_the_killed_counter_is_a_violation() {
        // A forged journal: the root died before stamping 250, and the new
        // root claims to resume at 200, reusing clocks the dead one stamped.
        let mut s = Sentinel::new();
        assert!(s
            .observe(&ev(0, EventKind::RootKilled { at_counter: 250 }))
            .is_empty());
        let v = s.observe(&ev(
            1,
            EventKind::RootTakeover {
                resumed_at: 200,
                packets_lost: 3,
            },
        ));
        assert_eq!(v.len(), 1);
        assert_eq!(v[0].invariant, InvariantKind::RootHandoff);
        assert_eq!((v[0].observed, v[0].expected), (200, 250));
        // It still answers the kill: nothing is pending at shutdown.
        assert!(!s.root_handoff_pending());
        // Resuming exactly at the killed counter is allowed.
        let mut s = Sentinel::new();
        s.observe(&ev(0, EventKind::RootKilled { at_counter: 201 }));
        let resumed = EventKind::RootTakeover {
            resumed_at: 201,
            packets_lost: 0,
        };
        assert!(s.observe(&ev(1, resumed)).is_empty());
    }

    #[test]
    fn codes_round_trip_and_name() {
        for k in [
            InvariantKind::FrontierMonotonic,
            InvariantKind::FlowOrdering,
            InvariantKind::Conservation,
            InvariantKind::ExactlyOnce,
            InvariantKind::RootlogBound,
            InvariantKind::FailoverPhase,
            InvariantKind::RootHandoff,
            InvariantKind::DedupLogBound,
            InvariantKind::Books,
        ] {
            assert_eq!(InvariantKind::from_code(k.code()), Some(k));
            assert_eq!(invariant_name(k.code()), k.name());
        }
        assert_eq!(invariant_name(999), "unknown");
        // Code 8 named the engine's XOR delete residue; retired codes are
        // not reused.
        assert_eq!(InvariantKind::from_code(8), None);
    }
}
