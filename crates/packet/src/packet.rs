//! The [`Packet`] type processed by NFs and moved through CHC chains.
//!
//! A packet carries the parsed header fields NFs care about plus the payload
//! length. CHC-specific metadata (logical clocks, replay and handover marks)
//! is deliberately *not* part of this type: the framework
//! wraps packets in its own envelope (`chc_core::message::TaggedPacket`), just
//! as the real system attaches metadata outside the NF-visible packet.

use crate::{AppProtocol, Direction, FiveTuple, FlowKey, Protocol, TcpEvent, TcpFlags};
use std::fmt;
use std::net::Ipv4Addr;

/// Unique identifier of a packet within a trace (assigned by the generator).
///
/// This is *not* the CHC logical clock — it identifies the packet in the input
/// stream so that chain-output-equivalence checks can match outputs against
/// inputs irrespective of what the framework did in between.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default)]
pub struct PacketId(pub u64);

impl fmt::Display for PacketId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "pkt#{}", self.0)
    }
}

/// A network packet as seen by a network function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Packet {
    /// Identifier within the input trace.
    pub id: PacketId,
    /// Connection 5-tuple.
    pub tuple: FiveTuple,
    /// Direction relative to the connection initiator.
    pub direction: Direction,
    /// TCP flags (empty for non-TCP packets).
    pub flags: TcpFlags,
    /// Total packet length in bytes (headers + payload), as used for
    /// byte counters and throughput accounting.
    pub len: u32,
    /// Application protocol label (what a DPI engine would report).
    pub app: AppProtocol,
    /// Arrival timestamp at the network entry point, in nanoseconds of
    /// virtual time. Zero when unknown.
    pub arrival_ns: u64,
}

impl Packet {
    /// Start building a packet.
    pub fn builder() -> PacketBuilder {
        PacketBuilder::default()
    }

    /// Unidirectional flow key (direction sensitive).
    pub fn flow_key(&self) -> FlowKey {
        self.tuple.flow_key()
    }

    /// Direction-agnostic connection key.
    pub fn connection_key(&self) -> FlowKey {
        self.tuple.bidirectional_key()
    }

    /// The host that initiated the connection this packet belongs to.
    pub fn initiator(&self) -> Ipv4Addr {
        match self.direction {
            Direction::FromInitiator => self.tuple.src_ip,
            Direction::FromResponder => self.tuple.dst_ip,
        }
    }

    /// The responding host of the connection this packet belongs to.
    pub fn responder(&self) -> Ipv4Addr {
        match self.direction {
            Direction::FromInitiator => self.tuple.dst_ip,
            Direction::FromResponder => self.tuple.src_ip,
        }
    }

    /// Connection-level TCP event carried by this packet.
    pub fn tcp_event(&self, established: bool) -> TcpEvent {
        if self.tuple.protocol != Protocol::Tcp {
            return TcpEvent::None;
        }
        TcpEvent::classify(self.flags, self.direction, established)
    }

    /// True if this is the first packet of a new connection attempt.
    pub fn is_connection_attempt(&self) -> bool {
        self.tuple.protocol == Protocol::Tcp && self.flags.syn() && !self.flags.ack()
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {} {}B [{}] {}",
            self.id, self.tuple, self.len, self.flags, self.app
        )
    }
}

/// Builder for [`Packet`] used throughout tests, examples and the trace
/// generator.
#[derive(Debug, Clone)]
pub struct PacketBuilder {
    id: PacketId,
    tuple: FiveTuple,
    direction: Direction,
    flags: TcpFlags,
    len: u32,
    app: AppProtocol,
    arrival_ns: u64,
}

impl Default for PacketBuilder {
    fn default() -> Self {
        PacketBuilder {
            id: PacketId(0),
            tuple: FiveTuple::tcp(
                Ipv4Addr::new(10, 0, 0, 1),
                10000,
                Ipv4Addr::new(10, 0, 0, 2),
                80,
            ),
            direction: Direction::FromInitiator,
            flags: TcpFlags::ACK,
            len: 64,
            app: AppProtocol::Other,
            arrival_ns: 0,
        }
    }
}

impl PacketBuilder {
    /// Set the packet identifier.
    pub fn id(mut self, id: u64) -> Self {
        self.id = PacketId(id);
        self
    }

    /// Set the 5-tuple.
    pub fn tuple(mut self, tuple: FiveTuple) -> Self {
        self.tuple = tuple;
        self
    }

    /// Set the direction.
    pub fn direction(mut self, direction: Direction) -> Self {
        self.direction = direction;
        self
    }

    /// Set the TCP flags.
    pub fn flags(mut self, flags: TcpFlags) -> Self {
        self.flags = flags;
        self
    }

    /// Set the total length in bytes.
    pub fn len(mut self, len: u32) -> Self {
        self.len = len;
        self
    }

    /// Set the application protocol label.
    pub fn app(mut self, app: AppProtocol) -> Self {
        self.app = app;
        self
    }

    /// Set the arrival timestamp in nanoseconds.
    pub fn arrival_ns(mut self, t: u64) -> Self {
        self.arrival_ns = t;
        self
    }

    /// Finish building.
    pub fn build(self) -> Packet {
        Packet {
            id: self.id,
            tuple: self.tuple,
            direction: self.direction,
            flags: self.flags,
            len: self.len,
            app: self.app,
            arrival_ns: self.arrival_ns,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_defaults_and_overrides() {
        let p = Packet::builder()
            .id(7)
            .len(1434)
            .flags(TcpFlags::SYN)
            .app(AppProtocol::Ssh)
            .arrival_ns(123)
            .build();
        assert_eq!(p.id, PacketId(7));
        assert_eq!(p.len, 1434);
        assert!(p.is_connection_attempt());
        assert_eq!(p.app, AppProtocol::Ssh);
        assert_eq!(p.arrival_ns, 123);
    }

    #[test]
    fn initiator_responder_follow_direction() {
        let t = FiveTuple::tcp(Ipv4Addr::new(1, 1, 1, 1), 5, Ipv4Addr::new(2, 2, 2, 2), 80);
        let fwd = Packet::builder()
            .tuple(t)
            .direction(Direction::FromInitiator)
            .build();
        let rev = Packet::builder()
            .tuple(t.reversed())
            .direction(Direction::FromResponder)
            .build();
        assert_eq!(fwd.initiator(), Ipv4Addr::new(1, 1, 1, 1));
        assert_eq!(rev.initiator(), Ipv4Addr::new(1, 1, 1, 1));
        assert_eq!(fwd.responder(), Ipv4Addr::new(2, 2, 2, 2));
        assert_eq!(rev.responder(), Ipv4Addr::new(2, 2, 2, 2));
        // Both directions share the connection key.
        assert_eq!(fwd.connection_key(), rev.connection_key());
    }

    #[test]
    fn tcp_event_for_udp_is_none() {
        let t = FiveTuple::udp(
            Ipv4Addr::new(1, 1, 1, 1),
            53,
            Ipv4Addr::new(2, 2, 2, 2),
            5353,
        );
        let p = Packet::builder().tuple(t).flags(TcpFlags::SYN).build();
        assert_eq!(p.tcp_event(false), TcpEvent::None);
        assert!(!p.is_connection_attempt());
    }
}
