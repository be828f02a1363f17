//! TCP control flags and the connection-level events NFs derive from them.
//!
//! The portscan detector (Schechter et al., the paper's reference \[26\]) and
//! the NAT react to connection initiation and teardown rather than to raw
//! packets, so the trace generator annotates packets with flags from which a
//! [`TcpEvent`] can be derived.

use std::fmt;
use std::ops::{BitOr, BitOrAssign};

/// TCP header flags (subset relevant to connection tracking).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TcpFlags(pub u8);

impl TcpFlags {
    /// FIN: sender has finished sending data.
    pub const FIN: TcpFlags = TcpFlags(0x01);
    /// SYN: synchronise sequence numbers (connection setup).
    pub const SYN: TcpFlags = TcpFlags(0x02);
    /// RST: reset the connection.
    pub const RST: TcpFlags = TcpFlags(0x04);
    /// PSH: push buffered data to the application.
    pub const PSH: TcpFlags = TcpFlags(0x08);
    /// ACK: the acknowledgement number is valid.
    pub const ACK: TcpFlags = TcpFlags(0x10);
    /// No flags set (used for non-TCP packets).
    pub const NONE: TcpFlags = TcpFlags(0);

    /// SYN+ACK convenience constant (second step of the handshake).
    pub const SYN_ACK: TcpFlags = TcpFlags(0x02 | 0x10);

    /// Does this flag set contain all flags of `other`?
    pub fn contains(&self, other: TcpFlags) -> bool {
        self.0 & other.0 == other.0
    }

    /// True if the SYN flag is set.
    pub fn syn(&self) -> bool {
        self.contains(TcpFlags::SYN)
    }

    /// True if the ACK flag is set.
    pub fn ack(&self) -> bool {
        self.contains(TcpFlags::ACK)
    }

    /// True if the RST flag is set.
    pub fn rst(&self) -> bool {
        self.contains(TcpFlags::RST)
    }

    /// True if the FIN flag is set.
    pub fn fin(&self) -> bool {
        self.contains(TcpFlags::FIN)
    }
}

impl BitOr for TcpFlags {
    type Output = TcpFlags;
    fn bitor(self, rhs: TcpFlags) -> TcpFlags {
        TcpFlags(self.0 | rhs.0)
    }
}

impl BitOrAssign for TcpFlags {
    fn bitor_assign(&mut self, rhs: TcpFlags) {
        self.0 |= rhs.0;
    }
}

impl fmt::Display for TcpFlags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut parts = Vec::new();
        if self.syn() {
            parts.push("SYN");
        }
        if self.ack() {
            parts.push("ACK");
        }
        if self.fin() {
            parts.push("FIN");
        }
        if self.rst() {
            parts.push("RST");
        }
        if self.contains(TcpFlags::PSH) {
            parts.push("PSH");
        }
        if parts.is_empty() {
            write!(f, "-")
        } else {
            write!(f, "{}", parts.join("|"))
        }
    }
}

/// Connection-level event derived from a packet's flags and direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TcpEvent {
    /// Initiator sent a SYN: a new connection attempt.
    ConnectionAttempt,
    /// Responder answered with SYN+ACK: the attempt succeeded.
    ConnectionAccepted,
    /// Responder answered with RST (or the attempt otherwise failed).
    ConnectionRefused,
    /// Either side sent FIN: orderly teardown.
    ConnectionClosed,
    /// A reset in the middle of an established connection.
    ConnectionReset,
    /// An ordinary data/ack packet of an established connection.
    Data,
    /// Not a TCP packet or no connection-level meaning.
    None,
}

impl TcpEvent {
    /// Classify a packet by its flags and direction.
    ///
    /// `established` should be true when the observer has already seen the
    /// handshake complete for this connection; it disambiguates a refused
    /// connection (RST answering a SYN) from a reset of a live connection.
    pub fn classify(flags: TcpFlags, dir: crate::Direction, established: bool) -> TcpEvent {
        use crate::Direction::*;
        if flags.syn() && !flags.ack() && dir == FromInitiator {
            TcpEvent::ConnectionAttempt
        } else if flags.syn() && flags.ack() && dir == FromResponder {
            TcpEvent::ConnectionAccepted
        } else if flags.rst() {
            if established {
                TcpEvent::ConnectionReset
            } else {
                TcpEvent::ConnectionRefused
            }
        } else if flags.fin() {
            TcpEvent::ConnectionClosed
        } else if flags.0 != 0 {
            TcpEvent::Data
        } else {
            TcpEvent::None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Direction;

    #[test]
    fn flag_predicates() {
        let f = TcpFlags::SYN | TcpFlags::ACK;
        assert!(f.syn() && f.ack() && !f.fin() && !f.rst());
        assert_eq!(f, TcpFlags::SYN_ACK);
        assert_eq!(f.to_string(), "SYN|ACK");
    }

    #[test]
    fn classify_handshake() {
        assert_eq!(
            TcpEvent::classify(TcpFlags::SYN, Direction::FromInitiator, false),
            TcpEvent::ConnectionAttempt
        );
        assert_eq!(
            TcpEvent::classify(TcpFlags::SYN_ACK, Direction::FromResponder, false),
            TcpEvent::ConnectionAccepted
        );
        assert_eq!(
            TcpEvent::classify(TcpFlags::RST, Direction::FromResponder, false),
            TcpEvent::ConnectionRefused
        );
        assert_eq!(
            TcpEvent::classify(TcpFlags::RST, Direction::FromResponder, true),
            TcpEvent::ConnectionReset
        );
        assert_eq!(
            TcpEvent::classify(
                TcpFlags::FIN | TcpFlags::ACK,
                Direction::FromInitiator,
                true
            ),
            TcpEvent::ConnectionClosed
        );
        assert_eq!(
            TcpEvent::classify(TcpFlags::ACK, Direction::FromInitiator, true),
            TcpEvent::Data
        );
        assert_eq!(
            TcpEvent::classify(TcpFlags::NONE, Direction::FromInitiator, true),
            TcpEvent::None
        );
    }

    #[test]
    fn display_empty() {
        assert_eq!(TcpFlags::NONE.to_string(), "-");
    }
}
