//! Source NAT (§6 "NAT", Table 4).
//!
//! The NAT keeps a dynamic pool of available public ports in the datastore.
//! On a new connection it pops a free port (the store performs the pop on its
//! behalf, so concurrent instances never hand out the same port), records the
//! per-connection port mapping, and rewrites the source port of outbound /
//! the destination port of inbound packets. It also maintains two chain-wide
//! packet counters updated on every packet.

use chc_core::{Action, NetworkFunction, NfContext, StateObjectSpec};
use chc_packet::{Direction, Packet, Protocol, Scope, ScopeKey};
use chc_store::{AccessPattern, Condition, Operation, Value};

/// Name of the free-port pool object.
pub const FREE_PORTS: &str = "free_ports";
/// Name of the per-connection port-mapping object.
pub const PORT_MAP: &str = "port_map";
/// Name of the total-packet counter.
pub const PKT_COUNT: &str = "pkt_count";
/// Name of the TCP-packet counter.
pub const TCP_PKT_COUNT: &str = "tcp_pkt_count";

/// A source NAT network function.
pub struct Nat {
    /// First port of the pool handed out on initialisation.
    pool_start: u16,
    /// Number of ports in the pool.
    pool_size: u16,
    /// Whether the pool has been pushed to the store yet.
    pool_initialised: bool,
}

impl Nat {
    /// Create a NAT managing `pool_size` public ports starting at
    /// `pool_start`.
    pub fn new(pool_start: u16, pool_size: u16) -> Nat {
        Nat {
            pool_start,
            pool_size,
            pool_initialised: false,
        }
    }

    fn ensure_pool(&mut self, ctx: &mut NfContext<'_>) {
        if self.pool_initialised {
            return;
        }
        self.pool_initialised = true;
        // Seed the pool at most once chain-wide. A read-then-push sequence
        // would double-seed when two instances start concurrently (and would
        // re-seed a legitimately exhausted pool); instead the whole pool is
        // installed with an offloaded compare-and-update (Table 2 row 3)
        // whose "absent" condition the store evaluates under serialization —
        // exactly one instance's attempt wins on any substrate.
        let existing = ctx.read(FREE_PORTS, None);
        if !existing.is_none() {
            return;
        }
        let pool = Value::list_of_ints((0..self.pool_size).map(|i| (self.pool_start + i) as i64));
        ctx.update(
            FREE_PORTS,
            None,
            Operation::CompareAndUpdate {
                condition: Condition::Absent,
                new: pool,
            },
        );
    }

    fn connection_scope(packet: &Packet) -> ScopeKey {
        ScopeKey::Flow(packet.connection_key())
    }
}

impl Default for Nat {
    fn default() -> Self {
        Nat::new(20_000, 4_096)
    }
}

impl NetworkFunction for Nat {
    fn name(&self) -> &str {
        "nat"
    }

    fn state_objects(&self) -> Vec<StateObjectSpec> {
        vec![
            // Available ports: cross-flow, write/read often.
            StateObjectSpec::cross_flow(FREE_PORTS, Scope::Global, AccessPattern::ReadWriteOften),
            // Total TCP packets / total packets: cross-flow, write mostly.
            StateObjectSpec::cross_flow(
                TCP_PKT_COUNT,
                Scope::Global,
                AccessPattern::WriteMostlyReadRarely,
            ),
            StateObjectSpec::cross_flow(
                PKT_COUNT,
                Scope::Global,
                AccessPattern::WriteMostlyReadRarely,
            ),
            // Per-connection port mapping: per-flow, write rarely read mostly.
            StateObjectSpec::per_flow(PORT_MAP, AccessPattern::ReadMostly),
        ]
    }

    fn process(&mut self, packet: &Packet, ctx: &mut NfContext<'_>) -> Action {
        self.ensure_pool(ctx);
        let conn = Self::connection_scope(packet);

        // Counters are updated on every packet (non-blocking, write-mostly).
        ctx.increment(PKT_COUNT, None, 1);
        if packet.tuple.protocol == Protocol::Tcp {
            ctx.increment(TCP_PKT_COUNT, None, 1);
        }

        // Allocate a public port for new outbound connections.
        let mut mapping = ctx.read(PORT_MAP, Some(conn));
        if mapping.is_none() && packet.is_connection_attempt() {
            let allocated = ctx.update(FREE_PORTS, None, Operation::PopFront);
            let port = match allocated {
                Value::Int(p) if p > 0 => p,
                // Pool exhausted: the paper's NAT would drop the connection.
                _ => return Action::Drop,
            };
            ctx.set(PORT_MAP, Some(conn), Value::Int(port));
            mapping = Value::Int(port);
        }

        // Rewrite ports according to the mapping (if any).
        let mut out = packet.clone();
        if let Value::Int(port) = mapping {
            match packet.direction {
                Direction::FromInitiator => out.tuple.src_port = port as u16,
                Direction::FromResponder => out.tuple.dst_port = port as u16,
            }
        }
        Action::Forward(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::client_for;
    use chc_core::SharedStore;
    use chc_packet::{FiveTuple, TcpFlags};
    use chc_sim::VirtualTime;
    use chc_store::Clock;
    use std::net::Ipv4Addr;

    fn pkt(sport: u16, flags: TcpFlags, dir: Direction) -> Packet {
        let t = FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            sport,
            Ipv4Addr::new(54, 0, 0, 1),
            80,
        );
        let t = if dir == Direction::FromResponder {
            t.reversed()
        } else {
            t
        };
        Packet::builder()
            .tuple(t)
            .direction(dir)
            .flags(flags)
            .len(100)
            .build()
    }

    fn process(nat: &mut Nat, client: &mut chc_core::StateClient, p: &Packet, n: u64) -> Action {
        let mut ctx = NfContext::new(client, Clock::with_root(0, n), VirtualTime::ZERO);
        nat.process(p, &mut ctx)
    }

    #[test]
    fn allocates_port_on_syn_and_keeps_mapping() {
        let store = SharedStore::new();
        let mut nat = Nat::new(30_000, 16);
        let mut client = client_for(&nat, &store, 0);
        let syn = pkt(5555, TcpFlags::SYN, Direction::FromInitiator);
        let out = process(&mut nat, &mut client, &syn, 1);
        let Action::Forward(out) = out else {
            panic!("expected forward")
        };
        assert_eq!(out.tuple.src_port, 30_000);
        // Subsequent packets of the same connection reuse the mapping.
        let data = pkt(5555, TcpFlags::ACK, Direction::FromInitiator);
        let Action::Forward(out2) = process(&mut nat, &mut client, &data, 2) else {
            panic!()
        };
        assert_eq!(out2.tuple.src_port, 30_000);
        // The reverse direction rewrites the destination port.
        let reply = pkt(5555, TcpFlags::ACK, Direction::FromResponder);
        let Action::Forward(back) = process(&mut nat, &mut client, &reply, 3) else {
            panic!()
        };
        assert_eq!(back.tuple.dst_port, 30_000);
        // Counters were updated once per packet.
        assert_eq!(
            store.peek(&client.state_key(PKT_COUNT, None)),
            Value::Int(3)
        );
        assert_eq!(
            store.peek(&client.state_key(TCP_PKT_COUNT, None)),
            Value::Int(3)
        );
    }

    #[test]
    fn different_connections_get_different_ports() {
        let store = SharedStore::new();
        let mut nat = Nat::new(30_000, 16);
        let mut client = client_for(&nat, &store, 0);
        let a = pkt(1111, TcpFlags::SYN, Direction::FromInitiator);
        let b = pkt(2222, TcpFlags::SYN, Direction::FromInitiator);
        let Action::Forward(oa) = process(&mut nat, &mut client, &a, 1) else {
            panic!()
        };
        let Action::Forward(ob) = process(&mut nat, &mut client, &b, 2) else {
            panic!()
        };
        assert_ne!(oa.tuple.src_port, ob.tuple.src_port);
    }

    #[test]
    fn pool_exhaustion_drops_new_connections() {
        let store = SharedStore::new();
        let mut nat = Nat::new(40_000, 1);
        let mut client = client_for(&nat, &store, 0);
        let a = pkt(1111, TcpFlags::SYN, Direction::FromInitiator);
        let b = pkt(2222, TcpFlags::SYN, Direction::FromInitiator);
        assert!(process(&mut nat, &mut client, &a, 1).is_forward());
        assert_eq!(process(&mut nat, &mut client, &b, 2), Action::Drop);
    }

    #[test]
    fn two_instances_share_the_port_pool() {
        let store = SharedStore::new();
        let mut nat1 = Nat::new(50_000, 4);
        let mut nat2 = Nat::new(50_000, 4);
        let mut c1 = client_for(&nat1, &store, 1);
        let mut c2 = client_for(&nat2, &store, 2);
        let mut ports = Vec::new();
        for (i, sport) in [(1u64, 1000u16), (2, 2000), (3, 3000), (4, 4000)] {
            let p = pkt(sport, TcpFlags::SYN, Direction::FromInitiator);
            let (nat, client) = if i % 2 == 0 {
                (&mut nat2, &mut c2)
            } else {
                (&mut nat1, &mut c1)
            };
            let Action::Forward(out) = process(nat, client, &p, i) else {
                panic!()
            };
            ports.push(out.tuple.src_port);
        }
        ports.sort_unstable();
        ports.dedup();
        assert_eq!(ports.len(), 4, "no port handed out twice across instances");
    }
}
