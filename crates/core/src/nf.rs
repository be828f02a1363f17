//! The NF programming interface.
//!
//! Network functions in CHC are written against a small synchronous API:
//! [`NetworkFunction::process`] receives each packet together with an
//! [`NfContext`] through which all state is accessed. The context is backed
//! by the client-side datastore library ([`crate::state::StateClient`]), so
//! an NF never knows whether a given object was served from a local cache,
//! a non-blocking offloaded operation, or a blocking store round trip — that
//! is decided by the per-object strategy of Table 1 and by the configured
//! externalization mode.

use crate::dag::StateObjectSpec;
use crate::state::StateClient;
use chc_packet::{Packet, ScopeKey};
use chc_sim::VirtualTime;
use chc_store::{Clock, Operation, StateKey, Value};

/// What an NF asks the framework to do with the packet it just processed.
#[derive(Debug, Clone, PartialEq)]
pub enum Action {
    /// Forward the (possibly rewritten) packet to the downstream vertex
    /// (or to the end host if this is the chain tail).
    Forward(Packet),
    /// Drop the packet (e.g. a firewall or scan blocker decision).
    Drop,
}

impl Action {
    /// True if the action forwards a packet.
    pub fn is_forward(&self) -> bool {
        matches!(self, Action::Forward(_))
    }
}

/// A stateful network function.
///
/// Implementations declare their state objects (name, scope, access pattern —
/// Table 4 of the paper lists the objects of the four evaluated NFs) and
/// process one packet at a time. All state access goes through the context.
pub trait NetworkFunction: Send {
    /// Human-readable NF type name ("nat", "portscan-detector", ...).
    fn name(&self) -> &str;

    /// The state objects this NF maintains. The framework uses the scopes to
    /// partition traffic (§4.1) and the access patterns to pick caching
    /// strategies (Table 1).
    fn state_objects(&self) -> Vec<StateObjectSpec>;

    /// Process one packet.
    fn process(&mut self, packet: &Packet, ctx: &mut NfContext<'_>) -> Action;
}

/// Per-packet context handed to [`NetworkFunction::process`].
pub struct NfContext<'a> {
    state: &'a mut StateClient,
    clock: Clock,
    now: VirtualTime,
    alerts: Vec<String>,
}

impl<'a> NfContext<'a> {
    /// Create a context for one packet (called by the instance runtime).
    pub fn new(state: &'a mut StateClient, clock: Clock, now: VirtualTime) -> NfContext<'a> {
        NfContext {
            state,
            clock,
            now,
            alerts: Vec::new(),
        }
    }

    /// The packet's chain-wide logical clock (requirement R4: NFs can reason
    /// about the true arrival order at the chain entry regardless of what
    /// upstream instances did).
    pub fn clock(&self) -> Clock {
        self.clock
    }

    /// Current virtual time.
    pub fn now(&self) -> VirtualTime {
        self.now
    }

    /// Raise an operator-visible alert (blocked host, detected Trojan, ...).
    pub fn alert(&mut self, message: impl Into<String>) {
        self.alerts.push(message.into());
    }

    /// Alerts raised so far (consumed by the runtime).
    pub fn take_alerts(&mut self) -> Vec<String> {
        std::mem::take(&mut self.alerts)
    }

    // --------------------------------------------------------------
    // State access. All methods are keyed by the object *name* declared in
    // `state_objects()` plus an optional scope key; the client library turns
    // that into a full datastore key with vertex/instance metadata.
    // --------------------------------------------------------------

    /// Read the current value of an object.
    pub fn read(&mut self, object: &str, key: Option<ScopeKey>) -> Value {
        self.state.read(object, key, self.clock)
    }

    /// Apply an arbitrary offloaded operation and return its result.
    pub fn update(&mut self, object: &str, key: Option<ScopeKey>, op: Operation) -> Value {
        self.state.update(object, key, op, self.clock)
    }

    /// Increment a counter object.
    pub fn increment(&mut self, object: &str, key: Option<ScopeKey>, delta: i64) -> Value {
        self.update(object, key, Operation::Increment(delta))
    }

    /// Decrement a counter object.
    pub fn decrement(&mut self, object: &str, key: Option<ScopeKey>, delta: i64) -> Value {
        self.update(object, key, Operation::Decrement(delta))
    }

    /// Overwrite an object.
    pub fn set(&mut self, object: &str, key: Option<ScopeKey>, value: Value) -> Value {
        self.update(object, key, Operation::Set(value))
    }

    /// Push a value onto a list object.
    pub fn push_back(&mut self, object: &str, key: Option<ScopeKey>, value: Value) -> Value {
        self.update(object, key, Operation::PushBack(value))
    }

    /// Pop a value from a list object (blocking: the NF needs the result).
    pub fn pop_front(&mut self, object: &str, key: Option<ScopeKey>) -> Value {
        self.update(object, key, Operation::PopFront)
    }

    /// A store-computed non-deterministic value (Appendix A): the store logs
    /// the value per (packet clock, slot) so replayed packets observe exactly
    /// the same value. `candidate` is the locally computed proposal used on
    /// first request.
    pub fn nondet(&mut self, slot: u32, candidate: Value) -> Value {
        self.state.nondet(self.clock, slot, candidate)
    }

    /// The fully qualified datastore key the client library would use for an
    /// object (exposed for NFs that need to reason about identity, mostly in
    /// tests).
    pub fn state_key(&self, object: &str, key: Option<ScopeKey>) -> StateKey {
        self.state.state_key(object, key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn action_predicates() {
        let p = Packet::builder().build();
        assert!(Action::Forward(p).is_forward());
        assert!(!Action::Drop.is_forward());
    }
}
