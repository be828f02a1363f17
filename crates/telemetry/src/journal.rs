//! Structured event journal: a bounded-cost, append-only record of the
//! control-plane moments of a run (spawns, kills, failover phases, commit
//! frontier advances), timestamped against the engine's run epoch.
//!
//! Events carry raw numeric ids (`u32` vertex ids, `u64` instance ids)
//! rather than runtime types so this crate stays dependency-free and below
//! every other CHC layer. Rendering is hand-rolled JSONL (the workspace has
//! no JSON serializer for arbitrary values).

use std::sync::Mutex;

/// What happened. Field meanings:
/// `vertex` — `VertexId.0`; `index` — replica slot within the vertex;
/// `instance` — `InstanceId.0`; `clock` — root clock counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[allow(missing_docs)] // field meanings documented on the enum and variants
pub enum EventKind {
    /// An NF instance thread started (initial wiring or replacement).
    InstanceSpawn {
        vertex: u32,
        index: u32,
        instance: u64,
    },
    /// A fault-injected instance stopped processing; `clock` is the last
    /// clock counter it observed before dying.
    InstanceKilled {
        vertex: u32,
        index: u32,
        instance: u64,
        clock: u64,
    },
    /// The supervisor accepted a death notice and began failover.
    FailoverBegin {
        vertex: u32,
        index: u32,
        instance: u64,
    },
    /// The replacement instance thread was spawned.
    ReplacementSpawn {
        vertex: u32,
        index: u32,
        instance: u64,
    },
    /// Replay of the root packet log into the replacement finished.
    ReplayComplete {
        vertex: u32,
        index: u32,
        instance: u64,
        packets_replayed: u64,
    },
    /// Failover completed end to end; `recovery_ns` is the supervisor-
    /// measured wall time from death notice to recovered.
    FailoverEnd {
        vertex: u32,
        index: u32,
        instance: u64,
        recovery_ns: u64,
    },
    /// The commit frontier advanced and the root log was truncated up to
    /// `frontier`, dropping `dropped` entries.
    CommitFrontier { frontier: u64, dropped: u64 },
    /// The root switched the vertex's replica set at `at_counter` (scale
    /// event cutover).
    ScaleCut { vertex: u32, at_counter: u64 },
    /// A store shard was restarted and replayed `ops_replayed` journal ops.
    ShardRestart { shard: u32, ops_replayed: u64 },
    /// The root crashed before stamping `at_counter`; its unflushed output
    /// buffers were lost with it.
    RootKilled { at_counter: u64 },
    /// A new root took over injection: it resumed stamping at `resumed_at`,
    /// above the persisted clock, after the crash lost `packets_lost`
    /// packets.
    RootTakeover { resumed_at: u64, packets_lost: u64 },
    /// A failover was abandoned mid-flight (replay ring stalled because the
    /// replacement stopped draining, or no replacement seed existed for the
    /// failed slot). The run continues degraded instead of hanging; the
    /// human-readable reason lives in `FaultReport::aborts`.
    FailoverAbort {
        vertex: u32,
        index: u32,
        instance: u64,
    },
    /// The invariant sentinel detected a violation. `code` is the stable
    /// [`crate::sentinel::InvariantKind`] code; `observed`/`expected` carry
    /// the offending value and the bound it broke (kept numeric so the
    /// event stays `Copy`; the full detail string lives in the run report).
    InvariantViolation {
        code: u32,
        observed: u64,
        expected: u64,
    },
}

impl EventKind {
    /// Stable snake_case name used in JSONL output.
    pub fn name(&self) -> &'static str {
        match self {
            EventKind::InstanceSpawn { .. } => "instance_spawn",
            EventKind::InstanceKilled { .. } => "instance_killed",
            EventKind::FailoverBegin { .. } => "failover_begin",
            EventKind::ReplacementSpawn { .. } => "replacement_spawn",
            EventKind::ReplayComplete { .. } => "replay_complete",
            EventKind::FailoverEnd { .. } => "failover_end",
            EventKind::CommitFrontier { .. } => "commit_frontier",
            EventKind::ScaleCut { .. } => "scale_cut",
            EventKind::ShardRestart { .. } => "shard_restart",
            EventKind::RootKilled { .. } => "root_killed",
            EventKind::RootTakeover { .. } => "root_takeover",
            EventKind::FailoverAbort { .. } => "failover_abort",
            EventKind::InvariantViolation { .. } => "invariant_violation",
        }
    }
}

/// One journal entry. `seq` is its index in the journal, assigned under the
/// journal's lock, so causality between threads is decidable even when
/// coarse clocks tie.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    /// Global record order (0-based): the entry's index in the journal.
    pub seq: u64,
    /// Nanoseconds since the run epoch.
    pub t_ns: u64,
    /// The event payload.
    pub kind: EventKind,
}

impl Event {
    /// Render as a single JSON object (one JSONL line, no trailing newline).
    pub fn to_json(&self) -> String {
        let mut s = format!(
            "{{\"seq\":{},\"t_ns\":{},\"event\":\"{}\"",
            self.seq,
            self.t_ns,
            self.kind.name()
        );
        use std::fmt::Write as _;
        match self.kind {
            EventKind::InstanceSpawn {
                vertex,
                index,
                instance,
            } => {
                let _ = write!(
                    s,
                    ",\"vertex\":{vertex},\"index\":{index},\"instance\":{instance}"
                );
            }
            EventKind::InstanceKilled {
                vertex,
                index,
                instance,
                clock,
            } => {
                let _ = write!(
                    s,
                    ",\"vertex\":{vertex},\"index\":{index},\"instance\":{instance},\"clock\":{clock}"
                );
            }
            EventKind::FailoverBegin {
                vertex,
                index,
                instance,
            }
            | EventKind::ReplacementSpawn {
                vertex,
                index,
                instance,
            }
            | EventKind::FailoverAbort {
                vertex,
                index,
                instance,
            } => {
                let _ = write!(
                    s,
                    ",\"vertex\":{vertex},\"index\":{index},\"instance\":{instance}"
                );
            }
            EventKind::ReplayComplete {
                vertex,
                index,
                instance,
                packets_replayed,
            } => {
                let _ = write!(
                    s,
                    ",\"vertex\":{vertex},\"index\":{index},\"instance\":{instance},\"packets_replayed\":{packets_replayed}"
                );
            }
            EventKind::FailoverEnd {
                vertex,
                index,
                instance,
                recovery_ns,
            } => {
                let _ = write!(
                    s,
                    ",\"vertex\":{vertex},\"index\":{index},\"instance\":{instance},\"recovery_ns\":{recovery_ns}"
                );
            }
            EventKind::CommitFrontier { frontier, dropped } => {
                let _ = write!(s, ",\"frontier\":{frontier},\"dropped\":{dropped}");
            }
            EventKind::ScaleCut { vertex, at_counter } => {
                let _ = write!(s, ",\"vertex\":{vertex},\"at_counter\":{at_counter}");
            }
            EventKind::ShardRestart {
                shard,
                ops_replayed,
            } => {
                let _ = write!(s, ",\"shard\":{shard},\"ops_replayed\":{ops_replayed}");
            }
            EventKind::RootKilled { at_counter } => {
                let _ = write!(s, ",\"at_counter\":{at_counter}");
            }
            EventKind::RootTakeover {
                resumed_at,
                packets_lost,
            } => {
                let _ = write!(
                    s,
                    ",\"resumed_at\":{resumed_at},\"packets_lost\":{packets_lost}"
                );
            }
            EventKind::InvariantViolation {
                code,
                observed,
                expected,
            } => {
                let _ = write!(
                    s,
                    ",\"invariant\":\"{}\",\"code\":{code},\"observed\":{observed},\"expected\":{expected}",
                    crate::sentinel::invariant_name(code)
                );
            }
        }
        s.push('}');
        s
    }
}

/// Thread-safe append-only journal. Recording takes a short mutex on the
/// event vector — events are control-plane-rate (spawns, failovers), never
/// per-packet, so contention is irrelevant. An event's `seq` is the index
/// it is pushed at, so the vector is in `seq` order by construction.
#[derive(Debug, Default)]
pub struct EventJournal {
    events: Mutex<Vec<Event>>,
}

impl EventJournal {
    /// An empty journal.
    pub fn new() -> EventJournal {
        EventJournal::default()
    }

    /// Append an event observed `t_ns` nanoseconds after the run epoch.
    /// Returns the assigned global sequence number.
    pub fn record(&self, t_ns: u64, kind: EventKind) -> u64 {
        let mut events = self.events.lock().expect("journal poisoned");
        let seq = events.len() as u64;
        events.push(Event { seq, t_ns, kind });
        seq
    }

    /// Copy of all events, in sequence order.
    pub fn snapshot(&self) -> Vec<Event> {
        self.events.lock().expect("journal poisoned").clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_sequence_and_renders_jsonl() {
        let j = EventJournal::new();
        j.record(
            100,
            EventKind::InstanceKilled {
                vertex: 1,
                index: 0,
                instance: 7,
                clock: 42,
            },
        );
        j.record(
            200,
            EventKind::FailoverBegin {
                vertex: 1,
                index: 0,
                instance: 7,
            },
        );
        j.record(
            300,
            EventKind::CommitFrontier {
                frontier: 40,
                dropped: 40,
            },
        );
        let events = j.snapshot();
        assert_eq!(events.len(), 3);
        assert!(events.windows(2).all(|w| w[0].seq < w[1].seq));

        let lines: Vec<String> = events.iter().map(Event::to_json).collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].contains("\"event\":\"instance_killed\""));
        assert!(lines[0].contains("\"clock\":42"));
        assert!(lines[2].contains("\"frontier\":40"));
        for l in lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
        }
    }

    #[test]
    fn concurrent_records_get_unique_seqs() {
        let j = std::sync::Arc::new(EventJournal::new());
        std::thread::scope(|s| {
            for t in 0..4u32 {
                let j = std::sync::Arc::clone(&j);
                s.spawn(move || {
                    for i in 0..100u64 {
                        j.record(
                            i,
                            EventKind::ScaleCut {
                                vertex: t,
                                at_counter: i,
                            },
                        );
                    }
                });
            }
        });
        let seqs: Vec<u64> = j.snapshot().iter().map(|e| e.seq).collect();
        assert_eq!(seqs, (0..400).collect::<Vec<u64>>(), "seq is the index");
    }
}
