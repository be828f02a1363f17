//! Flow identification: transport protocols, 5-tuples and flow keys.
//!
//! An NF keys per-flow state on the connection 5-tuple (§4.3 of the paper:
//! `vertex ID + instance ID + obj key`, where the object key for per-flow
//! objects is derived from the 5-tuple). Cross-flow state is keyed on coarser
//! header subsets (e.g. source IP), which is modelled by [`crate::Scope`].

use std::fmt;
use std::net::Ipv4Addr;

/// Transport-layer protocol of a packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Protocol {
    /// Transmission Control Protocol (IP protocol number 6).
    Tcp,
    /// User Datagram Protocol (IP protocol number 17).
    Udp,
    /// Internet Control Message Protocol (IP protocol number 1).
    Icmp,
    /// Any other IP protocol, identified by its protocol number.
    Other(u8),
}

impl Protocol {
    /// IP protocol number used on the wire.
    pub fn number(&self) -> u8 {
        match self {
            Protocol::Tcp => 6,
            Protocol::Udp => 17,
            Protocol::Icmp => 1,
            Protocol::Other(n) => *n,
        }
    }

    /// Build a [`Protocol`] from an IP protocol number.
    pub fn from_number(n: u8) -> Protocol {
        match n {
            6 => Protocol::Tcp,
            17 => Protocol::Udp,
            1 => Protocol::Icmp,
            other => Protocol::Other(other),
        }
    }
}

impl fmt::Display for Protocol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Protocol::Tcp => write!(f, "tcp"),
            Protocol::Udp => write!(f, "udp"),
            Protocol::Icmp => write!(f, "icmp"),
            Protocol::Other(n) => write!(f, "proto({n})"),
        }
    }
}

/// Direction of a packet relative to the connection initiator.
///
/// Several NFs (e.g. the portscan detector) need to distinguish packets sent
/// by the host that opened a connection from packets sent by the responder.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// From the connection initiator towards the responder.
    FromInitiator,
    /// From the responder back to the initiator.
    FromResponder,
}

impl Direction {
    /// The opposite direction.
    pub fn reverse(self) -> Direction {
        match self {
            Direction::FromInitiator => Direction::FromResponder,
            Direction::FromResponder => Direction::FromInitiator,
        }
    }
}

/// The classic connection 5-tuple: source/destination address and port plus
/// transport protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FiveTuple {
    /// Source IPv4 address.
    pub src_ip: Ipv4Addr,
    /// Destination IPv4 address.
    pub dst_ip: Ipv4Addr,
    /// Source transport port (0 for protocols without ports).
    pub src_port: u16,
    /// Destination transport port (0 for protocols without ports).
    pub dst_port: u16,
    /// Transport protocol.
    pub protocol: Protocol,
}

impl FiveTuple {
    /// Construct a TCP 5-tuple.
    pub fn tcp(src_ip: Ipv4Addr, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) -> FiveTuple {
        FiveTuple {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            protocol: Protocol::Tcp,
        }
    }

    /// Construct a UDP 5-tuple.
    pub fn udp(src_ip: Ipv4Addr, src_port: u16, dst_ip: Ipv4Addr, dst_port: u16) -> FiveTuple {
        FiveTuple {
            src_ip,
            dst_ip,
            src_port,
            dst_port,
            protocol: Protocol::Udp,
        }
    }

    /// The 5-tuple of the reverse direction (source and destination swapped).
    pub fn reversed(&self) -> FiveTuple {
        FiveTuple {
            src_ip: self.dst_ip,
            dst_ip: self.src_ip,
            src_port: self.dst_port,
            dst_port: self.src_port,
            protocol: self.protocol,
        }
    }

    /// A direction-agnostic identifier: both directions of the same connection
    /// map to the same [`FlowKey`]. NFs that track connections (rather than
    /// unidirectional flows) key their per-flow state on this.
    pub fn bidirectional_key(&self) -> FlowKey {
        let fwd = FlowKey::from_tuple(self);
        let rev = FlowKey::from_tuple(&self.reversed());
        if fwd.0 <= rev.0 {
            fwd
        } else {
            rev
        }
    }

    /// Unidirectional flow key for this exact tuple.
    pub fn flow_key(&self) -> FlowKey {
        FlowKey::from_tuple(self)
    }
}

impl fmt::Display for FiveTuple {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{} -> {}:{} [{}]",
            self.src_ip, self.src_port, self.dst_ip, self.dst_port, self.protocol
        )
    }
}

/// A compact, hashable identifier for a flow, derived from a [`FiveTuple`].
///
/// The key is a stable 128-bit value built from the tuple fields (the paper's
/// datastore keys are 128-bit; see §7.1 "Datastore performance"). It is *not*
/// a cryptographic hash — it embeds the tuple bijectively so that distinct
/// tuples always map to distinct keys.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FlowKey(pub u128);

impl FlowKey {
    /// Derive the key from a 5-tuple (direction sensitive).
    pub fn from_tuple(t: &FiveTuple) -> FlowKey {
        let src: u32 = t.src_ip.into();
        let dst: u32 = t.dst_ip.into();
        let v: u128 = ((src as u128) << 96)
            | ((dst as u128) << 64)
            | ((t.src_port as u128) << 48)
            | ((t.dst_port as u128) << 32)
            | (t.protocol.number() as u128);
        FlowKey(v)
    }

    /// Reconstruct the 5-tuple encoded in this key.
    pub fn to_tuple(&self) -> FiveTuple {
        let v = self.0;
        FiveTuple {
            src_ip: Ipv4Addr::from(((v >> 96) & 0xffff_ffff) as u32),
            dst_ip: Ipv4Addr::from(((v >> 64) & 0xffff_ffff) as u32),
            src_port: ((v >> 48) & 0xffff) as u16,
            dst_port: ((v >> 32) & 0xffff) as u16,
            protocol: Protocol::from_number((v & 0xff) as u8),
        }
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "flow:{:032x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tuple() -> FiveTuple {
        FiveTuple::tcp(
            Ipv4Addr::new(10, 0, 0, 1),
            4242,
            Ipv4Addr::new(192, 168, 1, 9),
            80,
        )
    }

    #[test]
    fn protocol_number_round_trip() {
        for p in [
            Protocol::Tcp,
            Protocol::Udp,
            Protocol::Icmp,
            Protocol::Other(89),
        ] {
            assert_eq!(Protocol::from_number(p.number()), p);
        }
    }

    #[test]
    fn flow_key_round_trip() {
        let t = tuple();
        assert_eq!(FlowKey::from_tuple(&t).to_tuple(), t);
    }

    #[test]
    fn reversed_swaps_endpoints() {
        let t = tuple();
        let r = t.reversed();
        assert_eq!(r.src_ip, t.dst_ip);
        assert_eq!(r.dst_port, t.src_port);
        assert_eq!(r.reversed(), t);
    }

    #[test]
    fn bidirectional_key_is_direction_agnostic() {
        let t = tuple();
        assert_eq!(t.bidirectional_key(), t.reversed().bidirectional_key());
        // ... but the unidirectional keys differ.
        assert_ne!(t.flow_key(), t.reversed().flow_key());
    }

    #[test]
    fn distinct_tuples_distinct_keys() {
        let a = tuple();
        let mut b = a;
        b.src_port = 4243;
        assert_ne!(a.flow_key(), b.flow_key());
    }

    #[test]
    fn direction_reverse() {
        assert_eq!(Direction::FromInitiator.reverse(), Direction::FromResponder);
        assert_eq!(Direction::FromResponder.reverse(), Direction::FromInitiator);
    }
}
