//! Output checking. Every repetition is checked, not a sample of them: the
//! delivered-id set and the shared-state digest must equal the inline
//! reference pass, with no duplicates, sentinel violations or abandoned
//! failovers. An operation is one injected packet in one repetition.

use chc_packet::PacketId;
use chc_runtime::{RuntimeError, RuntimeReport};
use std::collections::BTreeMap;

/// What a correct repetition delivers and leaves in the store.
#[derive(Debug, Clone, PartialEq)]
pub struct Reference {
    /// Packets in the trace.
    pub packets: u64,
    /// Ids the chain forwards, ascending.
    pub delivered: Vec<PacketId>,
    /// Shared-state digest after the trace.
    pub digest: BTreeMap<String, String>,
}

impl Reference {
    pub fn new(
        packets: usize,
        mut delivered: Vec<PacketId>,
        digest: BTreeMap<String, String>,
    ) -> Reference {
        delivered.sort_unstable();
        Reference {
            packets: packets as u64,
            delivered,
            digest,
        }
    }
}

/// Attempted and failed operations of a run, with a line per failed
/// repetition saying why.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub notes: Vec<String>,
}

impl Tally {
    fn record(&mut self, packets: u64, failed: u64, what: &str, why: impl FnOnce() -> String) {
        self.attempted += packets;
        if failed > 0 {
            self.failed += failed.min(packets);
            self.notes.push(format!("{what}: {}", why()));
        }
    }

    /// Check one pass or repetition's observable output against the
    /// reference. A packet missing, extra or duplicated is one failure; a
    /// digest mismatch, or any `fatal` reason, fails every packet of the
    /// repetition.
    fn check(
        &mut self,
        what: &str,
        reference: &Reference,
        delivered: &[PacketId],
        duplicates: u64,
        digest: &BTreeMap<String, String>,
        fatal: Option<String>,
    ) {
        if let Some(reason) = fatal {
            return self.record(reference.packets, reference.packets, what, || reason);
        }
        if *digest != reference.digest {
            return self.record(reference.packets, reference.packets, what, || {
                "shared-state digest differs from the reference pass".into()
            });
        }
        let mut got = delivered.to_vec();
        got.sort_unstable();
        let repeated = got.windows(2).filter(|w| w[0] == w[1]).count() as u64;
        got.dedup();
        let (mut missing, mut extra) = (0u64, 0u64);
        let (mut a, mut b) = (reference.delivered.iter().peekable(), got.iter().peekable());
        loop {
            match (a.peek(), b.peek()) {
                (Some(x), Some(y)) if x == y => {
                    a.next();
                    b.next();
                }
                (Some(x), Some(y)) if x < y => {
                    missing += 1;
                    a.next();
                }
                (Some(_), Some(_)) | (None, Some(_)) => {
                    extra += 1;
                    b.next();
                }
                (Some(_), None) => {
                    missing += 1;
                    a.next();
                }
                (None, None) => break,
            }
        }
        let failed = missing + extra + duplicates.max(repeated);
        self.record(reference.packets, failed, what, || {
            format!(
                "{missing} missing, {extra} extra, {} duplicated",
                duplicates.max(repeated)
            )
        });
    }

    /// Check one inline pass: the ids it delivered and the digest of the
    /// store it ran on (`None` where the pass's store is not a `StoreServer`
    /// and only the delivered set is comparable).
    pub fn check_pass(
        &mut self,
        what: &str,
        reference: &Reference,
        delivered: &[PacketId],
        digest: Option<BTreeMap<String, String>>,
    ) {
        let digest = digest.as_ref().unwrap_or(&reference.digest);
        self.check(what, reference, delivered, 0, digest, None);
    }

    /// Check one engine repetition.
    pub fn check_engine(
        &mut self,
        what: &str,
        reference: &Reference,
        result: &Result<RuntimeReport, RuntimeError>,
    ) {
        let report = match result {
            Ok(report) => report,
            Err(e) => {
                let reason = format!("run_chain_realtime failed: {e:?}");
                return self.check(what, reference, &[], 0, &BTreeMap::new(), Some(reason));
            }
        };
        let violations = report.invariants.as_ref().map_or(0, |i| i.violations.len());
        let aborts = report.fault.as_ref().map_or(0, |f| f.aborts.len());
        let fatal = if violations > 0 {
            Some(format!("{violations} sentinel violations"))
        } else if aborts > 0 {
            Some(format!("{aborts} failovers abandoned"))
        } else if report.injected != reference.packets {
            Some(format!(
                "{} of {} packets injected",
                report.injected, reference.packets
            ))
        } else {
            None
        };
        self.check(
            what,
            reference,
            &report.delivered_ids,
            report.duplicates,
            &report.shared_digest(),
            fatal,
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(v: &[u64]) -> Vec<PacketId> {
        v.iter().map(|&i| PacketId(i)).collect()
    }

    fn digest(v: &str) -> BTreeMap<String, String> {
        BTreeMap::from([("k".to_string(), v.to_string())])
    }

    fn reference() -> Reference {
        Reference::new(6, ids(&[5, 1, 3, 2]), digest("7"))
    }

    #[test]
    fn an_exact_repetition_counts_its_packets_and_no_failure() {
        let mut t = Tally::default();
        t.check(
            "rep",
            &reference(),
            &ids(&[3, 2, 1, 5]),
            0,
            &digest("7"),
            None,
        );
        assert_eq!((t.attempted, t.failed), (6, 0));
        assert!(t.notes.is_empty());
    }

    #[test]
    fn missing_extra_and_duplicated_packets_fail_one_operation_each() {
        let mut t = Tally::default();
        // 5 missing, 4 extra, 2 delivered twice.
        t.check(
            "rep",
            &reference(),
            &ids(&[1, 2, 2, 3, 4]),
            0,
            &digest("7"),
            None,
        );
        assert_eq!((t.attempted, t.failed), (6, 3));
        // The sink's own duplicate count is honoured when it is larger.
        t.check(
            "rep",
            &reference(),
            &ids(&[1, 2, 3, 5]),
            2,
            &digest("7"),
            None,
        );
        assert_eq!((t.attempted, t.failed), (12, 5));
        assert_eq!(t.notes.len(), 2);
    }

    #[test]
    fn a_corrupted_reference_digest_fails_the_whole_repetition() {
        let mut corrupted = reference();
        corrupted.digest.insert("k".into(), "8".into());
        let mut t = Tally::default();
        t.check(
            "rep",
            &corrupted,
            &ids(&[1, 2, 3, 5]),
            0,
            &digest("7"),
            None,
        );
        assert_eq!((t.attempted, t.failed), (6, 6));
        // So does any fatal reason, whatever was delivered.
        t.check(
            "rep",
            &reference(),
            &ids(&[1, 2, 3, 5]),
            0,
            &digest("7"),
            Some("abort".into()),
        );
        assert_eq!((t.attempted, t.failed), (12, 12));
    }

    #[test]
    fn failures_never_exceed_the_packets_of_the_repetition() {
        let mut t = Tally::default();
        let junk: Vec<u64> = (100..140).collect();
        t.check("rep", &reference(), &ids(&junk), 0, &digest("7"), None);
        assert_eq!((t.attempted, t.failed), (6, 6));
    }
}
