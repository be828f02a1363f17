//! Property-based tests for the packet substrate.

use chc_packet::{Direction, FiveTuple, FlowKey, Packet, Protocol, Scope, TcpFlags};
use proptest::prelude::*;
use std::net::Ipv4Addr;

fn arb_protocol() -> impl Strategy<Value = Protocol> {
    prop_oneof![
        Just(Protocol::Tcp),
        Just(Protocol::Udp),
        Just(Protocol::Icmp)
    ]
}

fn arb_tuple() -> impl Strategy<Value = FiveTuple> {
    (
        any::<u32>(),
        any::<u32>(),
        any::<u16>(),
        any::<u16>(),
        arb_protocol(),
    )
        .prop_map(|(s, d, sp, dp, proto)| {
            // ICMP has no transport ports.
            let (sp, dp) = if proto == Protocol::Icmp {
                (0, 0)
            } else {
                (sp, dp)
            };
            FiveTuple {
                src_ip: Ipv4Addr::from(s),
                dst_ip: Ipv4Addr::from(d),
                src_port: sp,
                dst_port: dp,
                protocol: proto,
            }
        })
}

fn arb_packet() -> impl Strategy<Value = Packet> {
    (
        arb_tuple(),
        any::<u64>(),
        0u8..32,
        64u32..1500,
        any::<bool>(),
        any::<u64>(),
    )
        .prop_map(|(tuple, id, flags, len, from_init, arrival)| {
            Packet::builder()
                .id(id)
                .tuple(tuple)
                .direction(if from_init {
                    Direction::FromInitiator
                } else {
                    Direction::FromResponder
                })
                .flags(TcpFlags(flags))
                .len(len)
                .arrival_ns(arrival)
                .build()
        })
}

proptest! {
    /// FlowKey embeds the 5-tuple bijectively.
    #[test]
    fn flow_key_round_trips(tuple in arb_tuple()) {
        prop_assert_eq!(FlowKey::from_tuple(&tuple).to_tuple(), tuple);
    }

    /// The bidirectional key is invariant under tuple reversal.
    #[test]
    fn bidirectional_key_symmetric(tuple in arb_tuple()) {
        prop_assert_eq!(tuple.bidirectional_key(), tuple.reversed().bidirectional_key());
    }

    /// Every scope maps the two directions of a connection to the same key,
    /// so scope-aware partitioning never splits a connection's state.
    #[test]
    fn scopes_direction_agnostic(pkt in arb_packet()) {
        let mut rev = pkt.clone();
        rev.tuple = pkt.tuple.reversed();
        rev.direction = pkt.direction.reverse();
        for scope in Scope::all() {
            prop_assert_eq!(scope.key_of(&pkt), scope.key_of(&rev));
        }
    }

    /// Stable hashes are deterministic.
    #[test]
    fn stable_hash_deterministic(pkt in arb_packet()) {
        for scope in Scope::all() {
            let k = scope.key_of(&pkt);
            prop_assert_eq!(k.stable_hash(), k.stable_hash());
        }
    }
}
