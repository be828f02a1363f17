//! # chc-packet
//!
//! Packet, flow and trace substrate for the CHC NFV framework reproduction.
//!
//! The CHC paper evaluates its framework with packet traces collected between a
//! campus network and AWS EC2. Those traces are not publicly available, so this
//! crate provides:
//!
//! * a compact [`Packet`] representation carrying the header fields network
//!   functions actually inspect (5-tuple, TCP flags, payload length, an
//!   application-protocol tag used by the Trojan-detector scenario),
//! * [`FiveTuple`] / [`FlowKey`] types plus the notion of a *state scope*
//!   ([`Scope`]) — the set of header fields an NF uses to key its state
//!   objects (§4.1 of the paper),
//! * a seeded synthetic [`trace`] generator that reproduces the structural
//!   properties the evaluation depends on (connection counts, packet-size
//!   distributions, protocol mix, Trojan signatures, load levels).
//!
//! Everything in this crate is deterministic given a seed, which is what makes
//! chain-output-equivalence (COE) checks in `chc-core` possible.

pub mod app;
pub mod flow;
pub mod packet;
pub mod scope;
pub mod tag;
pub mod tcp;
pub mod trace;

pub use app::{AppProtocol, FtpTransferKind};
pub use flow::{Direction, FiveTuple, FlowKey, Protocol};
pub use packet::{Packet, PacketBuilder, PacketId};
pub use scope::{Scope, ScopeKey};
pub use tag::{flow_sampled, TraceTag, TRACE_PPM_FULL};
pub use tcp::{TcpEvent, TcpFlags};
pub use trace::{Trace, TraceConfig, TraceGenerator, TraceStats};
