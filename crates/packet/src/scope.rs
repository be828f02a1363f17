//! State scopes: the header granularity at which an NF keys its state.
//!
//! §4.1 of the paper makes state scope a first-class entity: every vertex
//! program exposes a `.scope()` list — the packet header field sets used to
//! key its state objects, ordered from most to least fine grained. CHC's
//! scope-aware traffic partitioning walks this list from coarse to fine to
//! find a split that avoids cross-instance state sharing while keeping load
//! balanced.

use crate::{FlowKey, Packet};
use std::fmt;
use std::net::Ipv4Addr;

/// Granularity at which a state object is keyed.
///
/// Ordered from most fine grained (`FiveTuple`) to least (`Global`); the
/// derived `Ord` implementation follows that order so splitters can sort a
/// vertex's scope list.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Scope {
    /// Keyed on the full connection 5-tuple (per-flow state).
    FiveTuple,
    /// Keyed on the (source IP, destination IP) pair.
    HostPair,
    /// Keyed on the connection initiator / source host.
    SrcIp,
    /// Keyed on the destination host.
    DstIp,
    /// Keyed on the destination port (e.g. per-service counters).
    DstPort,
    /// A single object shared by all traffic of the vertex.
    Global,
}

impl Scope {
    /// Extract the key of this scope from a packet.
    ///
    /// Two packets that must share the state object keyed at this scope
    /// return equal [`ScopeKey`]s.
    pub fn key_of(&self, pkt: &Packet) -> ScopeKey {
        match self {
            Scope::FiveTuple => ScopeKey::Flow(pkt.connection_key()),
            Scope::HostPair => {
                let (a, b) = (pkt.initiator(), pkt.responder());
                ScopeKey::HostPair(a.min(b), a.max(b))
            }
            Scope::SrcIp => ScopeKey::Host(pkt.initiator()),
            Scope::DstIp => ScopeKey::Host(pkt.responder()),
            // The "destination port" of a connection is the responder-side
            // (service) port, regardless of which direction this particular
            // packet travels — otherwise the two directions of one connection
            // would map to different per-service state.
            Scope::DstPort => ScopeKey::Port(match pkt.direction {
                crate::Direction::FromInitiator => pkt.tuple.dst_port,
                crate::Direction::FromResponder => pkt.tuple.src_port,
            }),
            Scope::Global => ScopeKey::Global,
        }
    }

    /// All scopes from finest to coarsest.
    pub fn all() -> [Scope; 6] {
        [
            Scope::FiveTuple,
            Scope::HostPair,
            Scope::SrcIp,
            Scope::DstIp,
            Scope::DstPort,
            Scope::Global,
        ]
    }
}

impl fmt::Display for Scope {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Scope::FiveTuple => "5-tuple",
            Scope::HostPair => "host-pair",
            Scope::SrcIp => "src-ip",
            Scope::DstIp => "dst-ip",
            Scope::DstPort => "dst-port",
            Scope::Global => "global",
        };
        write!(f, "{s}")
    }
}

/// The value a packet maps to under a given [`Scope`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum ScopeKey {
    /// A connection key.
    Flow(FlowKey),
    /// A pair of hosts (order-normalised).
    HostPair(Ipv4Addr, Ipv4Addr),
    /// A single host.
    Host(Ipv4Addr),
    /// A transport port.
    Port(u16),
    /// The single global key.
    Global,
}

impl ScopeKey {
    /// A stable 64-bit hash of the key, used for partitioning decisions and
    /// as part of datastore keys.
    pub fn stable_hash(&self) -> u64 {
        // FNV-1a over a canonical byte encoding; deterministic across runs
        // (unlike `std::hash::Hash` with `RandomState`), which the splitter
        // relies on for reproducible partitioning decisions.
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat = |b: u8| {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        };
        match self {
            ScopeKey::Flow(k) => {
                eat(1);
                for b in k.0.to_be_bytes() {
                    eat(b);
                }
            }
            ScopeKey::HostPair(a, b) => {
                eat(2);
                for x in a.octets().iter().chain(b.octets().iter()) {
                    eat(*x);
                }
            }
            ScopeKey::Host(a) => {
                eat(3);
                for x in a.octets() {
                    eat(x);
                }
            }
            ScopeKey::Port(p) => {
                eat(4);
                for b in p.to_be_bytes() {
                    eat(b);
                }
            }
            ScopeKey::Global => eat(5),
        }
        h
    }
}

impl fmt::Display for ScopeKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScopeKey::Flow(k) => write!(f, "{k}"),
            ScopeKey::HostPair(a, b) => write!(f, "{a}<->{b}"),
            ScopeKey::Host(a) => write!(f, "host:{a}"),
            ScopeKey::Port(p) => write!(f, "port:{p}"),
            ScopeKey::Global => write!(f, "global"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Direction, FiveTuple, Packet};

    fn pkt(src: [u8; 4], sport: u16, dst: [u8; 4], dport: u16) -> Packet {
        Packet::builder()
            .tuple(FiveTuple::tcp(
                Ipv4Addr::from(src),
                sport,
                Ipv4Addr::from(dst),
                dport,
            ))
            .direction(Direction::FromInitiator)
            .build()
    }

    #[test]
    fn ordering_fine_to_coarse() {
        assert!(Scope::Global > Scope::SrcIp);
        assert!(Scope::SrcIp > Scope::FiveTuple);
        assert!(Scope::FiveTuple <= Scope::Global);
        let all = Scope::all();
        let mut sorted = all;
        sorted.sort();
        assert_eq!(all, sorted);
    }

    #[test]
    fn src_ip_scope_groups_flows_of_same_host() {
        let a = pkt([10, 0, 0, 1], 1111, [8, 8, 8, 8], 80);
        let b = pkt([10, 0, 0, 1], 2222, [9, 9, 9, 9], 443);
        let c = pkt([10, 0, 0, 2], 1111, [8, 8, 8, 8], 80);
        assert_eq!(Scope::SrcIp.key_of(&a), Scope::SrcIp.key_of(&b));
        assert_ne!(Scope::SrcIp.key_of(&a), Scope::SrcIp.key_of(&c));
        assert_ne!(Scope::FiveTuple.key_of(&a), Scope::FiveTuple.key_of(&b));
    }

    #[test]
    fn src_ip_scope_is_direction_agnostic() {
        // The responder's reply packet must map to the same src-ip key as the
        // initiator's packet, otherwise per-host state would be split across
        // instances when traffic is partitioned on that scope.
        let fwd = pkt([10, 0, 0, 1], 1111, [8, 8, 8, 8], 80);
        let mut rev = fwd.clone();
        rev.tuple = fwd.tuple.reversed();
        rev.direction = Direction::FromResponder;
        assert_eq!(Scope::SrcIp.key_of(&fwd), Scope::SrcIp.key_of(&rev));
        assert_eq!(Scope::HostPair.key_of(&fwd), Scope::HostPair.key_of(&rev));
        assert_eq!(Scope::FiveTuple.key_of(&fwd), Scope::FiveTuple.key_of(&rev));
    }

    #[test]
    fn global_scope_single_key() {
        let a = pkt([1, 2, 3, 4], 1, [5, 6, 7, 8], 2);
        let b = pkt([9, 9, 9, 9], 3, [7, 7, 7, 7], 4);
        assert_eq!(Scope::Global.key_of(&a), Scope::Global.key_of(&b));
    }

    #[test]
    fn stable_hash_distinguishes_variants() {
        let host = ScopeKey::Host(Ipv4Addr::new(10, 0, 0, 1));
        let port = ScopeKey::Port(80);
        assert_ne!(host.stable_hash(), port.stable_hash());
        assert_eq!(
            host.stable_hash(),
            ScopeKey::Host(Ipv4Addr::new(10, 0, 0, 1)).stable_hash()
        );
    }
}
