//! Datastore failover: shared-state recovery with `TS` selection.
//!
//! §5.4 "Datastore instance" and Figure 7 of the paper. A failover store
//! instance boots from the latest checkpoint — a shard's image, as
//! [`crate::StoreServer::shard_image`] encodes it — and must be rolled
//! forward to a state consistent with every NF instance's view of packet
//! processing:
//!
//! * **Case 1** — no NF read shared state since the checkpoint: re-execute
//!   each instance's write-ahead log starting from the clocks recorded in the
//!   checkpoint's `TS`. Any interleaving yields a state reachable by the
//!   ideal NF (Theorem B.5.2), so a deterministic per-instance replay is used.
//! * **Case 2** — some NF read shared state since the checkpoint: the store
//!   must be rolled forward so that every read that already happened would
//!   have observed the same value. The algorithm selects, among the `TS`
//!   snapshots attached to reads, the one corresponding to the most recent
//!   read (not the largest clock!), initialises the read object with the
//!   value returned by that read, and re-executes each instance's log from
//!   the per-instance clocks in the selected `TS`.

use crate::backend::decode_image_frame;
use crate::key::{Clock, InstanceId};
use crate::store::StoreInstance;
use crate::wal::{ReadLogEntry, WriteAheadLog};
use std::collections::{BTreeMap, HashMap};

/// Everything the framework gathers to recover a failed store instance.
#[derive(Debug, Clone, Default)]
pub struct RecoveryInput {
    /// The failed instance's checkpoint image (empty or undecodable: start empty).
    pub image: Vec<u8>,
    /// Per-NF-instance write-ahead logs of shared-state updates issued since
    /// (at least) the checkpoint.
    pub wals: HashMap<InstanceId, WriteAheadLog>,
    /// Per-NF-instance logs of shared-state reads (value + `TS`) since the
    /// checkpoint.
    pub read_logs: HashMap<InstanceId, Vec<ReadLogEntry>>,
}

/// What recovery did, for reporting and for the Figure 14 experiment.
#[derive(Debug, Clone, PartialEq)]
pub struct RecoveryReport {
    /// `1` when no post-checkpoint reads existed, `2` otherwise.
    pub case: u8,
    /// Number of operations re-executed from write-ahead logs.
    pub replayed_ops: usize,
    /// Number of per-flow objects restored from instance caches (filled in by
    /// the caller when it also recovers per-flow state).
    pub per_flow_restored: usize,
    /// The clock of the read whose `TS` was selected (Case 2 only).
    pub selected_read_clock: Option<Clock>,
}

/// Select the `TS` snapshot to recover from, following Figure 7.
///
/// Returns `None` when no reads happened since the checkpoint (Case 1);
/// otherwise returns the selected read entry (Case 2).
pub fn select_recovery_ts<'a>(
    wals: &HashMap<InstanceId, WriteAheadLog>,
    read_logs: &'a HashMap<InstanceId, Vec<ReadLogEntry>>,
) -> Option<&'a ReadLogEntry> {
    // Gather every read entry (each carries a TS snapshot).
    let mut candidates: Vec<&ReadLogEntry> = read_logs.values().flat_map(|v| v.iter()).collect();
    if candidates.is_empty() {
        return None;
    }

    // Deterministic instance iteration order.
    let instances: BTreeMap<InstanceId, &WriteAheadLog> =
        wals.iter().map(|(k, v)| (*k, v)).collect();

    // For each instance, walk its log in reverse to find the latest update
    // whose clock appears in some remaining candidate TS; then discard
    // candidates that do not contain that clock (they cannot correspond to
    // the most recent read).
    for (_, wal) in instances {
        let found =
            wal.latest_matching(|clock| candidates.iter().any(|r| r.ts.contains_clock(clock)));
        if let Some(entry) = found {
            candidates.retain(|r| r.ts.contains_clock(entry.clock));
            if candidates.len() <= 1 {
                break;
            }
        }
    }

    // Among the remaining candidates pick the most recent read (largest read
    // clock) — they are mutually consistent at this point.
    candidates.into_iter().max_by_key(|r| r.clock)
}

/// Recover the shared state of a failed store instance.
///
/// Recovery runs object by object (the Figure 7 algorithm describes a single
/// shared object; a store instance typically holds many):
///
/// * objects that no NF read since the checkpoint are rolled forward by
///   re-executing every write-ahead-log entry issued after the clocks in the
///   checkpoint's `TS` (Case 1),
/// * objects that were read are initialised with the value of the most recent
///   read (selected by the `TS`-selection algorithm restricted to that
///   object) and rolled forward from the selected `TS` (Case 2).
///
/// The image is decoded whole — ownership, callback registrations, logged
/// non-determinism and the duplicate-suppression log come back with the
/// values. The log stays through the rollforward: a client logs an update
/// the failed instance may already have applied before the checkpoint, and
/// without a `TS` in the image to skip it, re-executing it is emulated
/// against the checkpoint's record instead of applied twice.
///
/// Returns the recovered [`StoreInstance`] together with a report. Per-flow
/// state is *not* handled here: the framework separately re-installs it from
/// the owning instances' caches (they always hold the freshest copy,
/// Theorem B.5.1) via [`StoreInstance::install`].
pub fn recover_shared_state(input: &RecoveryInput) -> (StoreInstance, RecoveryReport) {
    let mut store = decode_image_frame(&input.image, &|_| None).unwrap_or_default();
    let checkpoint_ts = store.ts().clone();

    // Group write-ahead-log entries and reads by canonical object.
    let mut keys: Vec<_> = input
        .wals
        .values()
        .flat_map(|w| w.entries().iter().map(|e| e.key.canonical()))
        .collect();
    keys.sort_by_key(|k| k.to_string());
    keys.dedup();

    let mut replayed = 0usize;
    let mut any_case2 = false;
    let mut selected_read_clock = None;

    for key in keys {
        // Per-instance logs restricted to this object.
        let mut wals_for_key: HashMap<InstanceId, WriteAheadLog> = HashMap::new();
        for (instance, wal) in &input.wals {
            let mut filtered = WriteAheadLog::new();
            for e in wal.entries().iter().filter(|e| e.key.canonical() == key) {
                filtered.append(e.clock, e.key.clone(), e.op.clone());
            }
            if !filtered.is_empty() {
                wals_for_key.insert(*instance, filtered);
            }
        }
        let mut reads_for_key: HashMap<InstanceId, Vec<ReadLogEntry>> = HashMap::new();
        for (instance, reads) in &input.read_logs {
            let filtered: Vec<ReadLogEntry> = reads
                .iter()
                .filter(|r| r.key.canonical() == key)
                .cloned()
                .collect();
            if !filtered.is_empty() {
                reads_for_key.insert(*instance, filtered);
            }
        }

        let selection = select_recovery_ts(&wals_for_key, &reads_for_key);
        if let Some(read) = selection {
            any_case2 = true;
            selected_read_clock = Some(read.clock);
            store.install(&read.key, read.value.clone(), None);
        }

        // Re-execute, per instance, every logged update on this object after
        // the clock recorded for that instance in the selected TS (or after
        // the checkpoint TS when the instance does not appear). Re-execution
        // goes through duplicate suppression: an update the checkpoint's log
        // holds is emulated, not applied again. Otherwise Theorems B.5.2 /
        // B.5.3 only require the replay order to be a plausible
        // serialization.
        let instances: BTreeMap<InstanceId, &WriteAheadLog> =
            wals_for_key.iter().map(|(k, v)| (*k, v)).collect();
        for (instance, wal) in instances {
            let after = selection
                .and_then(|read| read.ts.clock_of(instance))
                .or_else(|| checkpoint_ts.get(&instance).copied());
            for entry in wal.entries_after(after) {
                let _ = store.apply(instance, &entry.key, &entry.op, Some(entry.clock));
                replayed += 1;
            }
        }
    }

    (
        store,
        RecoveryReport {
            case: if any_case2 { 2 } else { 1 },
            replayed_ops: replayed,
            per_flow_restored: 0,
            selected_read_clock,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::encode_image_frame;
    use crate::key::{ObjectKey, StateKey, VertexId};
    use crate::ops::Operation;
    use crate::value::Value;
    use crate::wal::TsSnapshot;

    fn clock(n: u64) -> Clock {
        Clock::with_root(0, n)
    }

    fn key() -> StateKey {
        StateKey::shared(VertexId(0), ObjectKey::named("shared_counter"))
    }

    /// Reconstructs the scenario of Figure 7: four instances I1..I4 issue
    /// updates/reads against one shared object; the store crashes after
    /// executing a prefix; recovery must select TS18 (the most recent read).
    fn figure7_input() -> RecoveryInput {
        // The "live" store that will crash: replays the paper's order of
        // operations at the datastore (Figure 7, bottom row) up to the crash.
        let mut live = StoreInstance::new();
        let k = key();

        // Checkpoint at time t with TS19 applied? The figure's checkpoint is
        // earlier; we start from an empty checkpoint (time t) for clarity.
        let image = encode_image_frame(&live, &mut Vec::new()).to_vec();

        // Per-instance operation logs (Figure 7, top): U = increment.
        // I1: U9  U20 U15 U35
        // I2: U11 U22 U25 R27 U30
        // I3: U8  U17 R18 U23
        // I4: U13 R19 U31 U32
        let mut wals: HashMap<InstanceId, WriteAheadLog> = HashMap::new();
        let mut read_logs: HashMap<InstanceId, Vec<ReadLogEntry>> = HashMap::new();
        for (i, ops) in [
            (1u32, vec![9u64, 20, 15, 35]),
            (2, vec![11, 22, 25, 30]),
            (3, vec![8, 17, 23]),
            (4, vec![13, 31, 32]),
        ] {
            let mut wal = WriteAheadLog::new();
            for c in ops {
                wal.append(clock(c), k.clone(), Operation::Increment(1));
            }
            wals.insert(InstanceId(i), wal);
            read_logs.insert(InstanceId(i), Vec::new());
        }

        // The datastore applied, in order (Figure 7 bottom):
        // U9 U8 U13 U20 U11 R19 U22 U17 U25 U15 R27 U30 U31 R18 U23 | crash | U32 U35
        // Reads return TS snapshots:
        //   R19 -> TS19 {I1:20, I2:11, I3:8,  I4:13}
        //   R27 -> TS27 {I1:15, I2:25, I3:17, I4:13}
        //   R18 -> TS18 {I1:15, I2:30, I3:17, I4:31}
        let applied_before_crash = [9u64, 8, 13, 20, 11, 22, 17, 25, 15, 30, 31];
        let owner_of = |c: u64| match c {
            9 | 20 | 15 | 35 => InstanceId(1),
            11 | 22 | 25 | 30 => InstanceId(2),
            8 | 17 | 23 => InstanceId(3),
            _ => InstanceId(4),
        };
        let mut value_after = HashMap::new();
        for (idx, c) in applied_before_crash.iter().enumerate() {
            live.apply(owner_of(*c), &k, &Operation::Increment(1), Some(clock(*c)))
                .unwrap();
            value_after.insert(idx, live.peek(&k));
        }

        // Reads interleave at the positions shown above. Model their TS and
        // observed value per the paper's figure.
        let ts = |v: Vec<(u32, u64)>| {
            TsSnapshot::new(
                v.into_iter()
                    .map(|(i, c)| (InstanceId(i), clock(c)))
                    .collect(),
            )
        };
        read_logs
            .get_mut(&InstanceId(4))
            .unwrap()
            .push(ReadLogEntry {
                clock: clock(19),
                key: k.clone(),
                value: Value::Int(5), // after U9 U8 U13 U20 U11
                ts: ts(vec![(1, 20), (2, 11), (3, 8), (4, 13)]),
            });
        read_logs
            .get_mut(&InstanceId(2))
            .unwrap()
            .push(ReadLogEntry {
                clock: clock(27),
                key: k.clone(),
                value: Value::Int(9), // after ... U15
                ts: ts(vec![(1, 15), (2, 25), (3, 17), (4, 13)]),
            });
        read_logs
            .get_mut(&InstanceId(3))
            .unwrap()
            .push(ReadLogEntry {
                clock: clock(18),
                key: k.clone(),
                value: Value::Int(11), // after ... U31 (most recent read before crash)
                ts: ts(vec![(1, 15), (2, 30), (3, 17), (4, 31)]),
            });

        RecoveryInput {
            image,
            wals,
            read_logs,
        }
    }

    #[test]
    fn figure7_selects_ts18() {
        let input = figure7_input();
        let selected = select_recovery_ts(&input.wals, &input.read_logs).unwrap();
        assert_eq!(selected.clock, clock(18));
        assert_eq!(selected.ts.clock_of(InstanceId(1)), Some(clock(15)));
        assert_eq!(selected.ts.clock_of(InstanceId(4)), Some(clock(31)));
    }

    #[test]
    fn figure7_recovery_replays_the_right_suffix() {
        let input = figure7_input();
        let (store, report) = recover_shared_state(&input);
        assert_eq!(report.case, 2);
        assert_eq!(report.selected_read_clock, Some(clock(18)));
        // The paper: from I1 replay U35; from I3 replay U23; from I4 replay
        // U32; from I2 nothing (its last op U30 is already covered by TS18).
        assert_eq!(report.replayed_ops, 3);
        // Recovered value = value read at R18 (11 increments) + 3 replayed.
        assert_eq!(store.peek(&key()), Value::Int(14));
        // The recovered state matches a no-failure execution in which every
        // instance's operations were all applied exactly once: 4+4+3+3 = 14.
        let total_ops: usize = input.wals.values().map(|w| w.len()).sum();
        assert_eq!(store.peek(&key()).as_int(), total_ops as i64);
    }

    #[test]
    fn case1_without_reads_replays_everything_after_checkpoint() {
        let k = key();
        // Build a store, checkpoint midway, keep updating, then crash.
        let mut live = StoreInstance::new();
        let mut wal1 = WriteAheadLog::new();
        let mut wal2 = WriteAheadLog::new();
        for c in 1..=4u64 {
            live.apply(InstanceId(1), &k, &Operation::Increment(1), Some(clock(c)))
                .unwrap();
            wal1.append(clock(c), k.clone(), Operation::Increment(1));
        }
        let image = encode_image_frame(&live, &mut Vec::new()).to_vec();
        for c in 5..=7u64 {
            live.apply(InstanceId(1), &k, &Operation::Increment(1), Some(clock(c)))
                .unwrap();
            wal1.append(clock(c), k.clone(), Operation::Increment(1));
        }
        for c in 8..=9u64 {
            live.apply(InstanceId(2), &k, &Operation::Increment(1), Some(clock(c)))
                .unwrap();
            wal2.append(clock(c), k.clone(), Operation::Increment(1));
        }
        let expected = live.peek(&k);

        let mut wals = HashMap::new();
        wals.insert(InstanceId(1), wal1);
        wals.insert(InstanceId(2), wal2);
        let input = RecoveryInput {
            image,
            wals,
            read_logs: HashMap::new(),
        };
        let (recovered, report) = recover_shared_state(&input);
        assert_eq!(report.case, 1);
        assert_eq!(report.replayed_ops, 5);
        assert_eq!(recovered.peek(&k), expected);
    }

    #[test]
    fn empty_input_recovers_empty_store() {
        let (store, report) = recover_shared_state(&RecoveryInput::default());
        assert_eq!(report.replayed_ops, 0);
        assert_eq!(report.case, 1);
        assert!(store.is_empty());
    }
}
