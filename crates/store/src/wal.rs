//! Client-side logs used for datastore fault tolerance (§5.4).
//!
//! Each NF instance locally appends the shared-state update operations it
//! issues to a write-ahead log, and records with every shared-state *read*
//! the `TS` metadata the store returned (the set of per-instance logical
//! clocks of the last operations the store had executed) together with the
//! value it read. When a store instance fails, these logs plus the latest
//! checkpoint are sufficient to roll the store forward to a state consistent
//! with every instance's view (Figure 7).

use crate::key::{Clock, InstanceId, StateKey};
use crate::ops::Operation;
use crate::value::Value;
use std::collections::HashMap;

/// The `TS` metadata: the logical clock of the last state operation the store
/// executed on behalf of each NF instance at some point in time.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TsSnapshot(pub HashMap<InstanceId, Clock>);

impl TsSnapshot {
    /// Build from a map.
    pub fn new(map: HashMap<InstanceId, Clock>) -> TsSnapshot {
        TsSnapshot(map)
    }

    /// The clock recorded for `instance`, if any.
    pub fn clock_of(&self, instance: InstanceId) -> Option<Clock> {
        self.0.get(&instance).copied()
    }

    /// True if any instance's entry equals `clock`.
    pub fn contains_clock(&self, clock: Clock) -> bool {
        self.0.values().any(|c| *c == clock)
    }
}

/// One entry of an instance's write-ahead log: an update operation issued to
/// the store, tagged with the clock of the packet that induced it.
#[derive(Debug, Clone, PartialEq)]
pub struct WalEntry {
    /// Logical clock of the inducing packet.
    pub clock: Clock,
    /// Target object.
    pub key: StateKey,
    /// The offloaded operation.
    pub op: Operation,
}

/// An NF instance's local write-ahead log of shared-state update operations.
///
/// Entries are appended in issue order, which per the paper follows a strict
/// clock order for a given instance. The log tracks whether that held
/// (`clock_ordered`): the common strictly-increasing case gets
/// binary-search suffix/truncation (`slice::partition_point`), while logs
/// with out-of-order or duplicate clocks (the Figure-7 recovery drills
/// construct these) transparently fall back to the exact linear scans.
#[derive(Debug, Clone, PartialEq)]
pub struct WriteAheadLog {
    entries: Vec<WalEntry>,
    /// True while appended clocks have been strictly increasing, i.e. the
    /// entries are sorted with no duplicates and binary search is exact.
    clock_ordered: bool,
}

impl Default for WriteAheadLog {
    fn default() -> WriteAheadLog {
        WriteAheadLog {
            entries: Vec::new(),
            clock_ordered: true,
        }
    }
}

impl WriteAheadLog {
    /// Create an empty log.
    pub fn new() -> WriteAheadLog {
        WriteAheadLog::default()
    }

    /// Append an update operation.
    pub fn append(&mut self, clock: Clock, key: StateKey, op: Operation) {
        if let Some(last) = self.entries.last() {
            if clock <= last.clock {
                self.clock_ordered = false;
            }
        }
        self.entries.push(WalEntry { clock, key, op });
    }

    /// Entries in append order.
    pub fn entries(&self) -> &[WalEntry] {
        &self.entries
    }

    /// Number of logged operations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing was logged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Drop entries whose clock is `<= up_to` (log truncation after a store
    /// checkpoint makes older entries unnecessary). O(log n) + move on an
    /// ordered log, O(n) otherwise.
    pub fn truncate_through(&mut self, up_to: Clock) {
        if self.clock_ordered {
            let cut = self.entries.partition_point(|e| e.clock <= up_to);
            self.entries.drain(..cut);
        } else {
            self.entries.retain(|e| e.clock > up_to);
        }
    }

    /// The suffix of entries strictly after the entry with clock `after`
    /// (or the whole log when `after` is `None` / not found before any entry).
    /// O(log n) on an ordered log, O(n) otherwise.
    pub fn entries_after(&self, after: Option<Clock>) -> &[WalEntry] {
        match after {
            None => &self.entries,
            Some(c) if self.clock_ordered => {
                // Sorted, duplicate-free: the first clock `> c` is both "just
                // past the matching entry" and "the resume point when `c` was
                // never logged" — exactly what the linear scan computes.
                &self.entries[self.entries.partition_point(|e| e.clock <= c)..]
            }
            Some(c) => {
                match self.entries.iter().position(|e| e.clock == c) {
                    Some(idx) => &self.entries[idx + 1..],
                    // The referenced clock is not in the log (e.g. it was a
                    // read, or the log was truncated past it): every entry
                    // with a larger clock still needs re-execution.
                    None => {
                        let idx = self.entries.iter().position(|e| e.clock > c);
                        match idx {
                            Some(i) => &self.entries[i..],
                            None => &[],
                        }
                    }
                }
            }
        }
    }

    /// Traverse the log in reverse and return the latest update entry whose
    /// clock satisfies `pred` (the core step of the TS-selection algorithm).
    pub fn latest_matching(&self, mut pred: impl FnMut(Clock) -> bool) -> Option<&WalEntry> {
        self.entries.iter().rev().find(|e| pred(e.clock))
    }
}

/// A record of one shared-state read: the clock of the reading packet, the
/// `TS` snapshot the store returned alongside the value, and the value read.
#[derive(Debug, Clone, PartialEq)]
pub struct ReadLogEntry {
    /// Logical clock of the packet whose processing issued the read.
    pub clock: Clock,
    /// Object that was read.
    pub key: StateKey,
    /// Value returned by the store.
    pub value: Value,
    /// `TS` snapshot returned with the read.
    pub ts: TsSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::key::{ObjectKey, VertexId};

    fn key() -> StateKey {
        StateKey::shared(VertexId(0), ObjectKey::named("x"))
    }

    fn clock(n: u64) -> Clock {
        Clock::with_root(0, n)
    }

    #[test]
    fn append_and_suffix() {
        let mut wal = WriteAheadLog::new();
        for n in [5, 9, 12, 20] {
            wal.append(clock(n), key(), Operation::Increment(1));
        }
        assert_eq!(wal.len(), 4);
        assert_eq!(wal.entries_after(None).len(), 4);
        assert_eq!(wal.entries_after(Some(clock(9))).len(), 2);
        // Clock not present in the log: resume at the first larger clock.
        assert_eq!(wal.entries_after(Some(clock(10))).len(), 2);
        assert_eq!(wal.entries_after(Some(clock(20))).len(), 0);
        assert_eq!(wal.entries_after(Some(clock(99))).len(), 0);
    }

    #[test]
    fn truncate_and_reverse_search() {
        let mut wal = WriteAheadLog::new();
        for n in [1, 2, 3, 4, 5] {
            wal.append(clock(n), key(), Operation::Increment(1));
        }
        let found = wal.latest_matching(|c| c.counter() <= 3).unwrap();
        assert_eq!(found.clock, clock(3));
        wal.truncate_through(clock(3));
        assert_eq!(wal.len(), 2);
        assert!(wal.latest_matching(|c| c.counter() <= 3).is_none());
        assert!(!wal.is_empty());
    }

    #[test]
    fn ts_snapshot_queries() {
        let mut m = HashMap::new();
        m.insert(InstanceId(1), clock(15));
        m.insert(InstanceId(2), clock(30));
        let ts = TsSnapshot::new(m);
        assert!(ts.contains_clock(clock(15)));
        assert!(!ts.contains_clock(clock(16)));
        assert_eq!(ts.clock_of(InstanceId(2)), Some(clock(30)));
        assert_eq!(ts.clock_of(InstanceId(9)), None);
    }
}
