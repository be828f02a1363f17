//! Off-path Trojan detector (§2.1, §6; De Carli et al. \[12\]).
//!
//! The detector watches a copy of the traffic and flags a host that performs,
//! *in this order*: (1) an SSH connection, (2) FTP downloads of an HTML, a
//! ZIP and an EXE file, and (3) IRC activity. A different order does not
//! indicate a Trojan, so the detector must reason about the true order in
//! which connections entered the network — requirement R4. In CHC it uses the
//! chain-wide logical clock carried by every packet; legacy frameworks only
//! offer the local observation order, which intervening slow/recovering NFs
//! can scramble (the Figure 2 scenario and the R4 experiment).

use chc_core::{Action, NetworkFunction, NfContext, StateObjectSpec};
use chc_packet::{AppProtocol, FtpTransferKind, Packet, Scope, ScopeKey};
use chc_store::{AccessPattern, Operation, Value};

/// Name of the per-host protocol-event log object.
pub const EVENTS: &str = "proto_events";
/// Name of the per-host "already reported" marker object.
pub const REPORTED: &str = "trojan_reported";

/// Event codes stored in the per-host log (paired with an ordering stamp).
const EV_SSH: i64 = 1;
const EV_FTP_HTML: i64 = 2;
const EV_FTP_ZIP: i64 = 3;
const EV_FTP_EXE: i64 = 4;
const EV_IRC: i64 = 5;

/// The off-path Trojan detector.
pub struct TrojanDetector {
    /// Use the chain-wide logical clock for ordering (CHC). When false, the
    /// detector falls back to its local observation order — the behaviour of
    /// frameworks without chain-wide ordering guarantees.
    use_chain_clocks: bool,
    /// Local observation counter (fallback ordering).
    observed: u64,
}

impl TrojanDetector {
    /// Detector using CHC's chain-wide logical clocks (the default).
    pub fn new() -> TrojanDetector {
        TrojanDetector {
            use_chain_clocks: true,
            observed: 0,
        }
    }

    /// Detector that only sees local arrival order (models running the same
    /// NF on a framework without chain-wide ordering, for the R4 comparison).
    pub fn without_chain_clocks() -> TrojanDetector {
        TrojanDetector {
            use_chain_clocks: false,
            observed: 0,
        }
    }

    fn event_code(packet: &Packet) -> Option<i64> {
        match packet.app {
            AppProtocol::Ssh => Some(EV_SSH),
            AppProtocol::Ftp(FtpTransferKind::Html) => Some(EV_FTP_HTML),
            AppProtocol::Ftp(FtpTransferKind::Zip) => Some(EV_FTP_ZIP),
            AppProtocol::Ftp(FtpTransferKind::Exe) => Some(EV_FTP_EXE),
            AppProtocol::Irc => Some(EV_IRC),
            _ => None,
        }
    }

    /// Does the per-host event log contain the full signature in order?
    fn signature_complete(events: &[(i64, u64)]) -> bool {
        // Earliest stamp of each stage.
        let earliest = |code: i64| {
            events
                .iter()
                .filter(|(c, _)| *c == code)
                .map(|(_, t)| *t)
                .min()
        };
        let Some(ssh) = earliest(EV_SSH) else {
            return false;
        };
        let stages = [EV_FTP_HTML, EV_FTP_ZIP, EV_FTP_EXE];
        let mut prev = ssh;
        for stage in stages {
            // Each FTP stage must occur after the SSH connection (the paper
            // requires the downloads to follow the SSH step; their mutual
            // order is not part of the signature).
            let Some(t) = events
                .iter()
                .filter(|(c, s)| *c == stage && *s > ssh)
                .map(|(_, s)| *s)
                .min()
            else {
                return false;
            };
            prev = prev.max(t);
        }
        // IRC activity must come last.
        events.iter().any(|(c, t)| *c == EV_IRC && *t > prev)
    }
}

impl Default for TrojanDetector {
    fn default() -> Self {
        TrojanDetector::new()
    }
}

impl NetworkFunction for TrojanDetector {
    fn name(&self) -> &str {
        "trojan-detector"
    }

    fn state_objects(&self) -> Vec<StateObjectSpec> {
        vec![
            // Arrival order of IRC/FTP/SSH flows per host: cross-flow,
            // write/read often (Table 4).
            StateObjectSpec::cross_flow(EVENTS, Scope::SrcIp, AccessPattern::ReadWriteOften),
            StateObjectSpec::cross_flow(REPORTED, Scope::SrcIp, AccessPattern::ReadWriteOften),
        ]
    }

    fn process(&mut self, packet: &Packet, ctx: &mut NfContext<'_>) -> Action {
        // Only connection attempts of the relevant protocols feed the
        // signature (one event per connection).
        if !packet.is_connection_attempt() {
            return Action::Forward(packet.clone());
        }
        let Some(code) = Self::event_code(packet) else {
            return Action::Forward(packet.clone());
        };
        let host = ScopeKey::Host(packet.initiator());

        // Ordering stamp: chain-wide logical clock (CHC) or local order.
        self.observed += 1;
        let stamp = if self.use_chain_clocks {
            ctx.clock().counter()
        } else {
            self.observed
        };

        ctx.push_back(EVENTS, Some(host), Value::Pair(code, stamp as i64));

        if ctx.read(REPORTED, Some(host)).as_int() != 0 {
            return Action::Forward(packet.clone());
        }
        let log = ctx.read(EVENTS, Some(host));
        let events: Vec<(i64, u64)> = log
            .as_list()
            .map(|l| {
                l.iter()
                    .map(|v| {
                        let (c, t) = v.as_pair();
                        (c, t as u64)
                    })
                    .collect()
            })
            .unwrap_or_default();
        if Self::signature_complete(&events) {
            // Report once per host and remember it (compare-and-update keeps
            // this idempotent across instances).
            let updated = ctx.update(
                REPORTED,
                Some(host),
                Operation::CompareAndUpdate {
                    condition: chc_store::Condition::Absent,
                    new: Value::Int(1),
                },
            );
            if updated.as_int() == 1 {
                ctx.alert(format!("trojan detected at host {}", packet.initiator()));
            }
        }
        Action::Forward(packet.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::client_for;
    use chc_core::{SharedStore, StateClient};
    use chc_packet::{Direction, FiveTuple, TcpFlags};
    use chc_sim::VirtualTime;
    use chc_store::Clock;
    use std::net::Ipv4Addr;

    fn conn_attempt(host: u8, app: AppProtocol, sport: u16) -> Packet {
        let t = FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, host),
            sport,
            Ipv4Addr::new(54, 0, 0, 2),
            app.default_port(),
        );
        Packet::builder()
            .tuple(t)
            .direction(Direction::FromInitiator)
            .flags(TcpFlags::SYN)
            .app(app)
            .build()
    }

    fn feed(
        nf: &mut TrojanDetector,
        client: &mut StateClient,
        pkts: &[(Packet, u64)],
    ) -> Vec<String> {
        let mut alerts = Vec::new();
        for (p, clock) in pkts {
            let mut ctx = NfContext::new(client, Clock::with_root(0, *clock), VirtualTime::ZERO);
            nf.process(p, &mut ctx);
            alerts.extend(ctx.take_alerts());
        }
        alerts
    }

    fn signature(host: u8) -> Vec<(Packet, u64)> {
        vec![
            (conn_attempt(host, AppProtocol::Ssh, 10_001), 10),
            (
                conn_attempt(host, AppProtocol::Ftp(FtpTransferKind::Html), 10_002),
                20,
            ),
            (
                conn_attempt(host, AppProtocol::Ftp(FtpTransferKind::Zip), 10_003),
                30,
            ),
            (
                conn_attempt(host, AppProtocol::Ftp(FtpTransferKind::Exe), 10_004),
                40,
            ),
            (conn_attempt(host, AppProtocol::Irc, 10_005), 50),
        ]
    }

    #[test]
    fn detects_the_full_signature_once() {
        let store = SharedStore::new();
        let mut nf = TrojanDetector::new();
        let mut client = client_for(&nf, &store, 0);
        let alerts = feed(&mut nf, &mut client, &signature(3));
        assert_eq!(alerts.len(), 1);
        assert!(alerts[0].contains("10.0.0.3"));
        // Repeating IRC traffic does not re-alert.
        let more = vec![(conn_attempt(3, AppProtocol::Irc, 10_009), 60)];
        assert!(feed(&mut nf, &mut client, &more).is_empty());
    }

    #[test]
    fn wrong_order_is_not_a_trojan() {
        let store = SharedStore::new();
        let mut nf = TrojanDetector::new();
        let mut client = client_for(&nf, &store, 0);
        // IRC first, then SSH, then the FTP transfers: benign.
        let pkts = vec![
            (conn_attempt(4, AppProtocol::Irc, 10_001), 10),
            (conn_attempt(4, AppProtocol::Ssh, 10_002), 20),
            (
                conn_attempt(4, AppProtocol::Ftp(FtpTransferKind::Html), 10_003),
                30,
            ),
            (
                conn_attempt(4, AppProtocol::Ftp(FtpTransferKind::Zip), 10_004),
                40,
            ),
            (
                conn_attempt(4, AppProtocol::Ftp(FtpTransferKind::Exe), 10_005),
                50,
            ),
        ];
        assert!(feed(&mut nf, &mut client, &pkts).is_empty());
    }

    #[test]
    fn chain_clocks_survive_out_of_order_delivery() {
        // The packets *arrive* at the detector in scrambled order (slow
        // upstream scrubber), but their logical clocks reflect the true
        // network-entry order, so the CHC detector still finds the Trojan...
        let store = SharedStore::new();
        let mut nf = TrojanDetector::new();
        let mut client = client_for(&nf, &store, 0);
        let mut pkts = signature(6);
        pkts.swap(0, 4); // IRC observed first, SSH last
        pkts.swap(1, 3);
        let alerts = feed(&mut nf, &mut client, &pkts);
        assert_eq!(alerts.len(), 1);

        // ...whereas a detector limited to observation order misses it.
        let store2 = SharedStore::new();
        let mut legacy = TrojanDetector::without_chain_clocks();
        let mut client2 = client_for(&legacy, &store2, 0);
        let alerts = feed(&mut legacy, &mut client2, &pkts);
        assert!(alerts.is_empty());
    }

    #[test]
    fn partial_signature_does_not_alert() {
        let store = SharedStore::new();
        let mut nf = TrojanDetector::new();
        let mut client = client_for(&nf, &store, 0);
        let pkts = vec![
            (conn_attempt(8, AppProtocol::Ssh, 10_001), 1),
            (
                conn_attempt(8, AppProtocol::Ftp(FtpTransferKind::Zip), 10_002),
                2,
            ),
            (conn_attempt(8, AppProtocol::Irc, 10_003), 3),
        ];
        assert!(feed(&mut nf, &mut client, &pkts).is_empty());
    }
}
