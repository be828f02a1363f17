//! A simple stateful firewall (first hop of the Figure 2 chain).
//!
//! Blocks traffic to a configurable set of destination ports and to hosts an
//! operator (or another NF) has blacklisted via shared state, and counts
//! blocked packets per source host.

use chc_core::{Action, NetworkFunction, NfContext, StateObjectSpec};
use chc_packet::{Packet, Scope, ScopeKey};
use chc_store::{AccessPattern, Value};
use std::net::Ipv4Addr;

/// Name of the per-host blocked-packet counter.
pub const BLOCKED_COUNT: &str = "blocked_count";
/// Name of the shared blacklist membership object (per host, 0/1).
pub const BLACKLISTED: &str = "blacklisted";

/// A port/blacklist firewall.
pub struct Firewall {
    /// Sorted and deduplicated: a policy is a handful of ports, looked up
    /// once per packet by binary search.
    blocked_ports: Vec<u16>,
}

impl Firewall {
    /// Create a firewall blocking the given destination ports.
    pub fn new(blocked_ports: impl IntoIterator<Item = u16>) -> Firewall {
        let mut blocked_ports: Vec<u16> = blocked_ports.into_iter().collect();
        blocked_ports.sort_unstable();
        blocked_ports.dedup();
        Firewall { blocked_ports }
    }

    /// A firewall with the conventional "block telnet and NetBIOS" policy.
    pub fn with_default_policy() -> Firewall {
        Firewall::new([23, 137, 139, 445])
    }

    /// Helper used by tests and operators: blacklist a host directly in the
    /// shared store through any instance's context.
    pub fn blacklist(ctx: &mut NfContext<'_>, host: Ipv4Addr) {
        ctx.set(BLACKLISTED, Some(ScopeKey::Host(host)), Value::Int(1));
    }
}

impl Default for Firewall {
    fn default() -> Self {
        Firewall::with_default_policy()
    }
}

impl NetworkFunction for Firewall {
    fn name(&self) -> &str {
        "firewall"
    }

    fn state_objects(&self) -> Vec<StateObjectSpec> {
        vec![
            StateObjectSpec::cross_flow(
                BLOCKED_COUNT,
                Scope::SrcIp,
                AccessPattern::WriteMostlyReadRarely,
            ),
            StateObjectSpec::cross_flow(BLACKLISTED, Scope::SrcIp, AccessPattern::ReadMostly),
        ]
    }

    fn process(&mut self, packet: &Packet, ctx: &mut NfContext<'_>) -> Action {
        let host = ScopeKey::Host(packet.initiator());
        let service_port = match packet.direction {
            chc_packet::Direction::FromInitiator => packet.tuple.dst_port,
            chc_packet::Direction::FromResponder => packet.tuple.src_port,
        };
        let blacklisted = ctx.read(BLACKLISTED, Some(host)).as_int() != 0;
        if blacklisted || self.blocked_ports.binary_search(&service_port).is_ok() {
            ctx.increment(BLOCKED_COUNT, Some(host), 1);
            return Action::Drop;
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

    fn to_port(port: u16) -> Packet {
        let t = FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, 5),
            50_000,
            Ipv4Addr::new(54, 0, 0, 1),
            port,
        );
        Packet::builder()
            .tuple(t)
            .direction(Direction::FromInitiator)
            .flags(TcpFlags::SYN)
            .build()
    }

    fn run(fw: &mut Firewall, c: &mut StateClient, p: &Packet, n: u64) -> Action {
        let mut ctx = NfContext::new(c, Clock::with_root(0, n), VirtualTime::ZERO);
        fw.process(p, &mut ctx)
    }

    #[test]
    fn blocks_configured_ports_and_counts() {
        let store = SharedStore::new();
        let mut fw = Firewall::with_default_policy();
        let mut c = client_for(&fw, &store, 0);
        assert_eq!(run(&mut fw, &mut c, &to_port(23), 1), Action::Drop);
        assert!(run(&mut fw, &mut c, &to_port(80), 2).is_forward());
        let key = c.state_key(
            BLOCKED_COUNT,
            Some(ScopeKey::Host(Ipv4Addr::new(10, 0, 0, 5))),
        );
        assert_eq!(store.peek(&key).as_int(), 1);
    }

    #[test]
    fn blacklisted_hosts_are_dropped() {
        let store = SharedStore::new();
        let mut fw = Firewall::new([]);
        let mut c = client_for(&fw, &store, 0);
        assert!(run(&mut fw, &mut c, &to_port(80), 1).is_forward());
        {
            let mut ctx = NfContext::new(&mut c, Clock::with_root(0, 2), VirtualTime::ZERO);
            Firewall::blacklist(&mut ctx, Ipv4Addr::new(10, 0, 0, 5));
        }
        assert_eq!(run(&mut fw, &mut c, &to_port(80), 3), Action::Drop);
    }
}
