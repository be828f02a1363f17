//! Layer-4 load balancer (§6, Table 4).
//!
//! The load balancer tracks the active connection count of every backend
//! server. A new connection is assigned to the least-loaded backend (the
//! datastore performs the selection on the NF's behalf, so concurrent
//! instances agree); the connection-to-server mapping is per-flow state, and
//! a per-server byte counter is updated on every packet.

use chc_core::{Action, NetworkFunction, NfContext, StateObjectSpec};
use chc_packet::{Direction, Packet, Scope, ScopeKey, TcpEvent};
use chc_store::{AccessPattern, Condition, Operation, Value};
use std::net::Ipv4Addr;

/// Name of the per-backend active-connection table (one list object).
pub const SERVER_CONNS: &str = "server_conns";
/// Name of the per-backend byte counter.
pub const SERVER_BYTES: &str = "server_bytes";
/// Name of the per-connection backend mapping.
pub const CONN_SERVER: &str = "conn_server";

/// Least-loaded L4 load balancer.
pub struct LoadBalancer {
    backends: Vec<Ipv4Addr>,
    initialised: bool,
}

impl LoadBalancer {
    /// Create a load balancer spreading connections over `backends`.
    pub fn new(backends: Vec<Ipv4Addr>) -> LoadBalancer {
        LoadBalancer {
            backends,
            initialised: false,
        }
    }

    /// Default pool of four backends (10.99.0.1-4).
    pub fn with_default_backends() -> LoadBalancer {
        LoadBalancer::new((1..=4).map(|i| Ipv4Addr::new(10, 99, 0, i)).collect())
    }

    fn ensure_table(&mut self, ctx: &mut NfContext<'_>) {
        if self.initialised {
            return;
        }
        self.initialised = true;
        let existing = ctx.read(SERVER_CONNS, None);
        if !existing.is_none() {
            return;
        }
        // Install the zeroed table at most once chain-wide: the store
        // evaluates the "absent" condition under serialization, so
        // concurrently starting instances cannot clobber live counts.
        ctx.update(
            SERVER_CONNS,
            None,
            Operation::CompareAndUpdate {
                condition: Condition::Absent,
                new: Value::list_of_ints(self.backends.iter().map(|_| 0i64)),
            },
        );
    }

    fn pick_least_loaded(table: &Value) -> usize {
        table
            .as_list()
            .map(|l| {
                l.iter()
                    .enumerate()
                    .min_by_key(|(_, v)| v.as_int())
                    .map(|(i, _)| i)
                    .unwrap_or(0)
            })
            .unwrap_or(0)
    }

    fn adjust(table: &Value, idx: usize, delta: i64) -> Value {
        let mut list = table.as_list().cloned().unwrap_or_default();
        while list.len() <= idx {
            list.push_back(Value::Int(0));
        }
        let v = list[idx].as_int() + delta;
        list[idx] = Value::Int(v.max(0));
        Value::List(list)
    }
}

impl NetworkFunction for LoadBalancer {
    fn name(&self) -> &str {
        "load-balancer"
    }

    fn state_objects(&self) -> Vec<StateObjectSpec> {
        vec![
            // Per-server active connections: cross-flow, write/read often.
            StateObjectSpec::cross_flow(SERVER_CONNS, Scope::Global, AccessPattern::ReadWriteOften),
            // Per-server byte counter: cross-flow, write mostly read rarely.
            StateObjectSpec::cross_flow(
                SERVER_BYTES,
                Scope::DstIp,
                AccessPattern::WriteMostlyReadRarely,
            ),
            // Connection-to-server mapping: per-flow, write rarely read mostly.
            StateObjectSpec::per_flow(CONN_SERVER, AccessPattern::ReadMostly),
        ]
    }

    fn process(&mut self, packet: &Packet, ctx: &mut NfContext<'_>) -> Action {
        self.ensure_table(ctx);
        let conn = ScopeKey::Flow(packet.connection_key());

        // Assign new connections to the least-loaded backend.
        let mut assigned = ctx.read(CONN_SERVER, Some(conn)).as_int();
        if packet.is_connection_attempt() && assigned == 0 {
            let table = ctx.read(SERVER_CONNS, None);
            let idx = Self::pick_least_loaded(&table);
            ctx.set(SERVER_CONNS, None, Self::adjust(&table, idx, 1));
            // store 1-based index so "0" can mean "unassigned"
            ctx.set(CONN_SERVER, Some(conn), Value::Int(idx as i64 + 1));
            assigned = idx as i64 + 1;
        }
        if assigned == 0 {
            // Mid-connection packet of a connection we never saw (e.g. trace
            // tail after scaling); forward unmodified.
            return Action::Forward(packet.clone());
        }
        let idx = (assigned - 1) as usize;
        let backend = self
            .backends
            .get(idx)
            .copied()
            .unwrap_or(packet.responder());

        // Per-server byte counter on every packet (write-mostly).
        ctx.increment(
            SERVER_BYTES,
            Some(ScopeKey::Host(backend)),
            packet.len as i64,
        );

        // Connection teardown releases the backend slot.
        if matches!(
            packet.tcp_event(true),
            TcpEvent::ConnectionClosed | TcpEvent::ConnectionReset
        ) {
            let table = ctx.read(SERVER_CONNS, None);
            ctx.set(SERVER_CONNS, None, Self::adjust(&table, idx, -1));
        }

        // Rewrite the destination (or source for return traffic) to the
        // chosen backend.
        let mut out = packet.clone();
        match packet.direction {
            Direction::FromInitiator => out.tuple.dst_ip = backend,
            Direction::FromResponder => out.tuple.src_ip = backend,
        }
        Action::Forward(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::client_for;
    use chc_core::{SharedStore, StateClient};
    use chc_packet::{FiveTuple, TcpFlags};
    use chc_sim::VirtualTime;
    use chc_store::Clock;

    fn syn(sport: u16) -> Packet {
        let t = FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            sport,
            Ipv4Addr::new(54, 0, 0, 9),
            80,
        );
        Packet::builder()
            .tuple(t)
            .direction(Direction::FromInitiator)
            .flags(TcpFlags::SYN)
            .len(64)
            .build()
    }

    fn fin(sport: u16) -> Packet {
        let t = FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            sport,
            Ipv4Addr::new(54, 0, 0, 9),
            80,
        );
        Packet::builder()
            .tuple(t)
            .direction(Direction::FromInitiator)
            .flags(TcpFlags::FIN | TcpFlags::ACK)
            .len(64)
            .build()
    }

    fn run(lb: &mut LoadBalancer, c: &mut StateClient, p: &Packet, n: u64) -> Packet {
        let mut ctx = NfContext::new(c, Clock::with_root(0, n), VirtualTime::ZERO);
        match lb.process(p, &mut ctx) {
            Action::Forward(out) => out,
            Action::Drop => panic!("LB never drops"),
        }
    }

    #[test]
    fn new_connections_spread_across_backends() {
        let store = SharedStore::new();
        let mut lb = LoadBalancer::with_default_backends();
        let mut c = client_for(&lb, &store, 0);
        let mut chosen = Vec::new();
        for (i, sport) in (1..=4u16).enumerate() {
            let out = run(&mut lb, &mut c, &syn(sport), i as u64 + 1);
            chosen.push(out.tuple.dst_ip);
        }
        chosen.sort_unstable();
        chosen.dedup();
        assert_eq!(
            chosen.len(),
            4,
            "least-loaded selection spreads the first four connections"
        );
    }

    #[test]
    fn connection_stickiness_and_release() {
        let store = SharedStore::new();
        let mut lb = LoadBalancer::with_default_backends();
        let mut c = client_for(&lb, &store, 0);
        let first = run(&mut lb, &mut c, &syn(1000), 1);
        // A data packet of the same connection keeps the same backend.
        let mut data = syn(1000);
        data.flags = TcpFlags::ACK;
        let second = run(&mut lb, &mut c, &data, 2);
        assert_eq!(first.tuple.dst_ip, second.tuple.dst_ip);
        // Closing the connection frees the slot; the next connection can pick
        // the same backend again (it is the least loaded once more).
        run(&mut lb, &mut c, &fin(1000), 3);
        let table = c.read(SERVER_CONNS, None, Clock::with_root(0, 4));
        let total: i64 = table.as_list().unwrap().iter().map(|v| v.as_int()).sum();
        assert_eq!(total, 0, "all slots released");
    }

    #[test]
    fn byte_counters_accumulate_per_backend() {
        let store = SharedStore::new();
        let mut lb = LoadBalancer::with_default_backends();
        let mut c = client_for(&lb, &store, 0);
        let out = run(&mut lb, &mut c, &syn(2000), 1);
        let backend = out.tuple.dst_ip;
        let mut data = syn(2000);
        data.flags = TcpFlags::ACK;
        data.len = 1500;
        run(&mut lb, &mut c, &data, 2);
        let key = c.state_key(SERVER_BYTES, Some(ScopeKey::Host(backend)));
        assert_eq!(store.peek(&key).as_int(), 64 + 1500);
    }
}
