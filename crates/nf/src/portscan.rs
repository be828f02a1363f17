//! Portscan detector (§6, Table 4; Schechter et al. \[26\]).
//!
//! Threshold-random-walk style detection: each connection attempt by a host
//! moves the host's "likelihood of being malicious" up (refused attempt) or
//! down (accepted attempt). A host whose likelihood crosses the threshold is
//! reported and its subsequent traffic dropped. Likelihood is cross-flow
//! state keyed by source host — the canonical example of shared state that
//! cannot be partitioned away when flows of one host land on different
//! instances (Figure 9 experiment).

use chc_core::{Action, NetworkFunction, NfContext, StateObjectSpec};
use chc_packet::{Packet, Scope, ScopeKey, TcpEvent};
use chc_store::{AccessPattern, Value};

/// Name of the per-host likelihood object.
pub const LIKELIHOOD: &str = "likelihood";
/// Name of the per-connection pending-attempt object.
pub const PENDING: &str = "pending_conn";

/// Scale factor applied to the likelihood score (stored as an integer).
const UP: i64 = 2;
const DOWN: i64 = 1;

/// TRW-style portscan detector.
pub struct PortscanDetector {
    /// Likelihood value at which a host is declared malicious and blocked.
    threshold: i64,
}

impl PortscanDetector {
    /// Create a detector that blocks a host once its likelihood reaches
    /// `threshold` (each refused attempt adds 2, each accepted one subtracts
    /// 1, never below zero).
    pub fn new(threshold: i64) -> PortscanDetector {
        PortscanDetector { threshold }
    }
}

impl Default for PortscanDetector {
    fn default() -> Self {
        PortscanDetector::new(10)
    }
}

impl NetworkFunction for PortscanDetector {
    fn name(&self) -> &str {
        "portscan-detector"
    }

    fn state_objects(&self) -> Vec<StateObjectSpec> {
        vec![
            // Likelihood of being malicious (per host): cross-flow, write/read often.
            StateObjectSpec::cross_flow(LIKELIHOOD, Scope::SrcIp, AccessPattern::ReadWriteOften),
            // Pending connection-initiation requests: per-flow, write/read often.
            StateObjectSpec::per_flow(PENDING, AccessPattern::ReadWriteOften),
        ]
    }

    fn process(&mut self, packet: &Packet, ctx: &mut NfContext<'_>) -> Action {
        let host = ScopeKey::Host(packet.initiator());
        let conn = ScopeKey::Flow(packet.connection_key());

        // Is this host already blocked?
        let likelihood = ctx.read(LIKELIHOOD, Some(host)).as_int();
        if likelihood >= self.threshold {
            return Action::Drop;
        }

        match packet.tcp_event(false) {
            TcpEvent::ConnectionAttempt => {
                // Remember the pending attempt with the packet's clock.
                ctx.set(PENDING, Some(conn), Value::Int(ctx.clock().0 as i64));
            }
            TcpEvent::ConnectionAccepted => {
                let pending = ctx.read(PENDING, Some(conn));
                if !pending.is_none() {
                    ctx.set(PENDING, Some(conn), Value::None);
                    let v = ctx.decrement(LIKELIHOOD, Some(host), DOWN).as_int();
                    if v < 0 {
                        ctx.set(LIKELIHOOD, Some(host), Value::Int(0));
                    }
                }
            }
            TcpEvent::ConnectionRefused => {
                let pending = ctx.read(PENDING, Some(conn));
                if !pending.is_none() {
                    ctx.set(PENDING, Some(conn), Value::None);
                }
                let v = ctx.increment(LIKELIHOOD, Some(host), UP).as_int();
                if v >= self.threshold {
                    ctx.alert(format!("portscan: blocking host {}", packet.initiator()));
                }
            }
            _ => {}
        }
        Action::Forward(packet.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::client_for;
    use chc_core::{Action, SharedStore, StateClient};
    use chc_packet::{Direction, FiveTuple, TcpFlags};
    use chc_sim::VirtualTime;
    use chc_store::Clock;
    use std::net::Ipv4Addr;

    fn attempt(host: u8, port: u16) -> (Packet, Packet) {
        let t = FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, host),
            40_000 + port,
            Ipv4Addr::new(54, 0, 0, 1),
            port,
        );
        let syn = Packet::builder()
            .tuple(t)
            .direction(Direction::FromInitiator)
            .flags(TcpFlags::SYN)
            .build();
        let rst = Packet::builder()
            .tuple(t.reversed())
            .direction(Direction::FromResponder)
            .flags(TcpFlags::RST)
            .build();
        (syn, rst)
    }

    fn run(
        nf: &mut PortscanDetector,
        client: &mut StateClient,
        p: &Packet,
        n: u64,
    ) -> (Action, Vec<String>) {
        let mut ctx = NfContext::new(client, Clock::with_root(0, n), VirtualTime::ZERO);
        let a = nf.process(p, &mut ctx);
        (a, ctx.take_alerts())
    }

    #[test]
    fn repeated_refusals_block_the_scanner() {
        let store = SharedStore::new();
        let mut nf = PortscanDetector::new(6);
        let mut client = client_for(&nf, &store, 0);
        let mut clock = 0;
        let mut alerts = Vec::new();
        for port in 1..=3u16 {
            let (syn, rst) = attempt(9, port);
            clock += 1;
            alerts.extend(run(&mut nf, &mut client, &syn, clock).1);
            clock += 1;
            alerts.extend(run(&mut nf, &mut client, &rst, clock).1);
        }
        assert_eq!(alerts.len(), 1, "exactly one blocking alert");
        assert!(alerts[0].contains("10.0.0.9"));
        // Further traffic from the blocked host is dropped.
        let (syn, _) = attempt(9, 99);
        let (action, _) = run(&mut nf, &mut client, &syn, clock + 1);
        assert_eq!(action, Action::Drop);
        // An innocent host is unaffected.
        let (syn, _) = attempt(10, 80);
        assert!(run(&mut nf, &mut client, &syn, clock + 2).0.is_forward());
    }

    #[test]
    fn successful_connections_lower_the_likelihood() {
        let store = SharedStore::new();
        let mut nf = PortscanDetector::new(4);
        let mut client = client_for(&nf, &store, 0);
        // one refusal (+2)
        let (syn, rst) = attempt(7, 1);
        run(&mut nf, &mut client, &syn, 1);
        run(&mut nf, &mut client, &rst, 2);
        // one success (-1)
        let t = FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, 7),
            41_000,
            Ipv4Addr::new(54, 0, 0, 1),
            80,
        );
        let syn = Packet::builder()
            .tuple(t)
            .direction(Direction::FromInitiator)
            .flags(TcpFlags::SYN)
            .build();
        let synack = Packet::builder()
            .tuple(t.reversed())
            .direction(Direction::FromResponder)
            .flags(TcpFlags::SYN_ACK)
            .build();
        run(&mut nf, &mut client, &syn, 3);
        run(&mut nf, &mut client, &synack, 4);
        let host = ScopeKey::Host(Ipv4Addr::new(10, 0, 0, 7));
        let v = store.peek(&client.state_key(LIKELIHOOD, Some(host)));
        assert_eq!(v.as_int(), 1);
    }

    #[test]
    fn two_instances_share_likelihood_state() {
        // The same scanner's attempts observed by two different detector
        // instances still accumulate into one likelihood value (R3).
        let store = SharedStore::new();
        let mut a = PortscanDetector::new(6);
        let mut b = PortscanDetector::new(6);
        let mut ca = client_for(&a, &store, 1);
        let mut cb = client_for(&b, &store, 2);
        // The framework revokes exclusive caching of the shared likelihood
        // object when the traffic split makes both instances process the same
        // hosts (Table 1 row 4); emulate that here since there is no chain.
        ca.set_exclusive(LIKELIHOOD, false, Clock::with_root(0, 0));
        cb.set_exclusive(LIKELIHOOD, false, Clock::with_root(0, 0));
        let mut alerts = Vec::new();
        for port in 1..=3u16 {
            let (syn, rst) = attempt(5, port);
            if port % 2 == 0 {
                alerts.extend(run(&mut a, &mut ca, &syn, port as u64 * 10).1);
                alerts.extend(run(&mut a, &mut ca, &rst, port as u64 * 10 + 1).1);
            } else {
                alerts.extend(run(&mut b, &mut cb, &syn, port as u64 * 10).1);
                alerts.extend(run(&mut b, &mut cb, &rst, port as u64 * 10 + 1).1);
            }
        }
        assert_eq!(
            alerts.len(),
            1,
            "blocking decision made across instances: {alerts:?}"
        );
    }
}
