//! Key schema and state-object metadata.
//!
//! §4.3 of the paper: "the key for a per-flow (5 tuple) state object is:
//! `vertex ID + instance ID + obj key` [...] The instance ID ensures that only
//! the instance to which the flow is assigned can update the corresponding
//! state object. [...] Likewise, the key for shared objects, e.g. pkt_count,
//! is: `vertex ID + obj key`." Vertex IDs also prevent conflicts when two
//! logical vertices use the same object name.

use chc_packet::{Scope, ScopeKey};
use serde::{Deserialize, Serialize};
use std::borrow::Borrow;
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::Arc;

/// Identifier of a logical chain vertex (an NF type in the logical DAG).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct VertexId(pub u32);

impl fmt::Display for VertexId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

/// Identifier of a physical NF instance of some vertex.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct InstanceId(pub u32);

impl fmt::Display for InstanceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "i{}", self.0)
    }
}

/// Per-packet logical clock assigned by the chain root (§5).
///
/// The high bits encode the root instance that stamped the packet so that
/// "delete" requests can be routed back to the right root when multiple root
/// instances are used (§5, "Logical clocks, logging").
#[derive(
    Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Default, Serialize, Deserialize,
)]
pub struct Clock(pub u64);

impl Clock {
    /// Number of high-order bits reserved for the root instance id.
    pub const ROOT_BITS: u32 = 8;

    /// Build a clock value carrying the root instance id in its high bits.
    pub fn with_root(root: u8, counter: u64) -> Clock {
        let shift = 64 - Self::ROOT_BITS;
        Clock(((root as u64) << shift) | (counter & ((1u64 << shift) - 1)))
    }

    /// The root instance id encoded in this clock.
    pub fn root(&self) -> u8 {
        (self.0 >> (64 - Self::ROOT_BITS)) as u8
    }

    /// The per-root counter portion of the clock.
    pub fn counter(&self) -> u64 {
        self.0 & ((1u64 << (64 - Self::ROOT_BITS)) - 1)
    }

    /// The next clock value from the same root.
    pub fn next(&self) -> Clock {
        Clock::with_root(self.root(), self.counter() + 1)
    }
}

impl fmt::Display for Clock {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}:{}", self.root(), self.counter())
    }
}

/// Whether a state object is confined to one flow or shared across flows
/// (and hence potentially across instances). Mirrors Table 1's "Scope" row.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum StateScope {
    /// Keyed per flow/connection: with scope-aware partitioning exactly one
    /// instance updates it at a time.
    PerFlow,
    /// Keyed across flows at the given granularity (e.g. per source host,
    /// per port, or one global object).
    CrossFlow(Scope),
}

impl StateScope {
    /// The packet-header scope used to key objects of this state scope.
    pub fn packet_scope(&self) -> Scope {
        match self {
            StateScope::PerFlow => Scope::FiveTuple,
            StateScope::CrossFlow(s) => *s,
        }
    }

    /// True for cross-flow (potentially shared) state.
    pub fn is_shared(&self) -> bool {
        matches!(self, StateScope::CrossFlow(_))
    }
}

/// How an NF accesses a state object. Together with [`StateScope`] this
/// selects the caching strategy of Table 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AccessPattern {
    /// Updated on (almost) every packet, read rarely — e.g. packet/byte
    /// counters. Eligible for non-blocking updates.
    WriteMostlyReadRarely,
    /// Written rarely, read often — e.g. a NAT's per-connection port mapping
    /// or a read-heavy shared object. Eligible for caching with callbacks.
    ReadMostly,
    /// Both written and read frequently — e.g. the portscan detector's
    /// per-host likelihood.
    ReadWriteOften,
}

/// Name/identity of a state object *within* a vertex, optionally specialised
/// by a [`ScopeKey`] (e.g. the per-host counter for host 10.0.0.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ObjectKey {
    /// The state object's name as declared by the NF (e.g. `"pkt_count"`).
    /// A shared handle: cloning a key bumps a reference count instead of
    /// copying the name, so keys can be built and moved per operation
    /// without touching the allocator.
    pub name: Arc<str>,
    /// The scope-key instance this object refers to (`None` for singleton
    /// objects such as a global list of free ports).
    pub scope_key: Option<ScopeKey>,
}

impl ObjectKey {
    /// A singleton object with no per-scope specialisation.
    pub fn named(name: &str) -> ObjectKey {
        ObjectKey::shared_name(Arc::from(name), None)
    }

    /// An object specialised for a scope key (per-flow, per-host, ...).
    pub fn scoped(name: &str, key: ScopeKey) -> ObjectKey {
        ObjectKey::shared_name(Arc::from(name), Some(key))
    }

    /// An object under an already-shared name handle (no allocation): what a
    /// client that resolved its declared objects once uses per operation.
    pub fn shared_name(name: Arc<str>, scope_key: Option<ScopeKey>) -> ObjectKey {
        ObjectKey { name, scope_key }
    }
}

impl fmt::Display for ObjectKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.scope_key {
            Some(k) => write!(f, "{}[{}]", self.name, k),
            None => write!(f, "{}", self.name),
        }
    }
}

/// A complete datastore key with its CHC metadata.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct StateKey {
    /// Logical vertex that owns the object.
    pub vertex: VertexId,
    /// Owning instance for per-flow objects; `None` for shared objects.
    pub instance: Option<InstanceId>,
    /// Object identity within the vertex.
    pub object: ObjectKey,
}

impl StateKey {
    /// Key of a per-flow object owned by `instance`.
    pub fn per_flow(vertex: VertexId, instance: InstanceId, object: ObjectKey) -> StateKey {
        StateKey {
            vertex,
            instance: Some(instance),
            object,
        }
    }

    /// Key of a shared (cross-flow) object.
    pub fn shared(vertex: VertexId, object: ObjectKey) -> StateKey {
        StateKey {
            vertex,
            instance: None,
            object,
        }
    }

    /// True if this key carries per-flow ownership metadata.
    pub fn is_per_flow(&self) -> bool {
        self.instance.is_some()
    }

    /// The same object identity without the instance metadata. Used to look
    /// up an object across a handover (the instance id changes but the
    /// vertex + object identity is stable).
    pub fn canonical(&self) -> StateKey {
        StateKey {
            vertex: self.vertex,
            instance: None,
            object: self.object.clone(),
        }
    }

    /// Stable 64-bit hash used to shard objects across store threads /
    /// instances (each object lives on exactly one shard, §4.3).
    pub fn shard_hash(&self) -> u64 {
        const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let mut h = OFFSET;
        let mut eat_bytes = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(PRIME);
            }
        };
        eat_bytes(&self.vertex.0.to_be_bytes());
        eat_bytes(self.object.name.as_bytes());
        if let Some(sk) = &self.object.scope_key {
            eat_bytes(&sk.stable_hash().to_be_bytes());
        }
        h
    }
}

/// The identity of an object as the shard maps see it: vertex + object,
/// without the owner metadata (a per-flow key and its shared form name the
/// same stored object, which is what lets a handover find it), together with
/// the stable [`StateKey::shard_hash`] the server already computed to pick
/// the shard.
///
/// Implemented by the owned map key ([`CanonKey`]) and by a borrowed
/// [`Probe`] over any `&StateKey`, so a map keyed by `CanonKey` is looked up
/// without building — or cloning — a canonical key.
pub(crate) trait CanonView {
    /// `shard_hash()` of the object.
    fn hash64(&self) -> u64;
    /// Owning vertex.
    fn vertex(&self) -> VertexId;
    /// Object identity within the vertex.
    fn object(&self) -> &ObjectKey;
}

impl Hash for dyn CanonView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash64());
    }
}

impl PartialEq for dyn CanonView + '_ {
    fn eq(&self, other: &Self) -> bool {
        self.hash64() == other.hash64()
            && self.vertex() == other.vertex()
            && self.object() == other.object()
    }
}

impl Eq for dyn CanonView + '_ {}

/// Owned canonical key of a shard map, carrying its hash so neither a probe
/// nor a table resize ever re-reads the name bytes.
#[derive(Debug, Clone)]
pub(crate) struct CanonKey {
    hash: u64,
    vertex: VertexId,
    object: ObjectKey,
}

impl CanonKey {
    /// The canonical form of `key`.
    pub(crate) fn of(key: &StateKey) -> CanonKey {
        CanonKey {
            hash: key.shard_hash(),
            vertex: key.vertex,
            object: key.object.clone(),
        }
    }

    /// The canonical key as a (shared-form) [`StateKey`].
    pub(crate) fn to_state_key(&self) -> StateKey {
        StateKey::shared(self.vertex, self.object.clone())
    }
}

impl CanonView for CanonKey {
    fn hash64(&self) -> u64 {
        self.hash
    }
    fn vertex(&self) -> VertexId {
        self.vertex
    }
    fn object(&self) -> &ObjectKey {
        &self.object
    }
}

impl Hash for CanonKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

impl PartialEq for CanonKey {
    fn eq(&self, other: &CanonKey) -> bool {
        (self as &dyn CanonView) == (other as &dyn CanonView)
    }
}

impl Eq for CanonKey {}

impl<'a> Borrow<dyn CanonView + 'a> for CanonKey {
    fn borrow(&self) -> &(dyn CanonView + 'a) {
        self
    }
}

/// A borrowed canonical view of any key, with its hash computed once.
pub(crate) struct Probe<'a> {
    hash: u64,
    key: &'a StateKey,
}

impl<'a> Probe<'a> {
    /// View `key` canonically, hashing it here.
    pub(crate) fn new(key: &'a StateKey) -> Probe<'a> {
        Probe::hashed(key, key.shard_hash())
    }

    /// View `key` canonically under an already-computed `shard_hash()`.
    pub(crate) fn hashed(key: &'a StateKey, hash: u64) -> Probe<'a> {
        debug_assert_eq!(hash, key.shard_hash());
        Probe { hash, key }
    }

    /// The probed key as given (owner metadata included).
    pub(crate) fn key(&self) -> &'a StateKey {
        self.key
    }

    /// An owned canonical key for inserting the probed object.
    pub(crate) fn to_canon(&self) -> CanonKey {
        CanonKey {
            hash: self.hash,
            vertex: self.key.vertex,
            object: self.key.object.clone(),
        }
    }
}

impl CanonView for Probe<'_> {
    fn hash64(&self) -> u64 {
        self.hash
    }
    fn vertex(&self) -> VertexId {
        self.key.vertex
    }
    fn object(&self) -> &ObjectKey {
        &self.key.object
    }
}

/// Hasher of the shard maps: the key already carries a 64-bit FNV-1a hash,
/// so hashing is one fold. Every key of one shard shares `hash % shards`;
/// folding the high half down keeps the table's bucket index (taken from the
/// low bits) independent of that residue.
///
/// This trades SipHash's resistance to crafted collisions for speed on keys
/// derived from packet headers; `shard_hash` has the same exposure already.
#[derive(Default)]
pub(crate) struct PrehashedHasher(u64);

impl Hasher for PrehashedHasher {
    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 29)
    }
}

/// A shard map keyed by canonical object identity.
pub(crate) type CanonMap<V> =
    std::collections::HashMap<CanonKey, V, BuildHasherDefault<PrehashedHasher>>;

impl fmt::Display for StateKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.instance {
            Some(i) => write!(f, "{}/{}/{}", self.vertex, i, self.object),
            None => write!(f, "{}/shared/{}", self.vertex, self.object),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_packet::ScopeKey;
    use std::net::Ipv4Addr;

    #[test]
    fn clock_encodes_root_in_high_bits() {
        let c = Clock::with_root(3, 12345);
        assert_eq!(c.root(), 3);
        assert_eq!(c.counter(), 12345);
        assert_eq!(c.next().counter(), 12346);
        assert_eq!(c.next().root(), 3);
        // Clocks from a higher root id always compare greater than clocks
        // from a lower root id; ordering within a root follows the counter.
        assert!(Clock::with_root(0, u32::MAX as u64) < Clock::with_root(1, 0));
        assert!(Clock::with_root(1, 5) < Clock::with_root(1, 6));
    }

    #[test]
    fn per_flow_and_shared_keys_differ() {
        let v = VertexId(7);
        let obj = ObjectKey::scoped("bytes", ScopeKey::Host(Ipv4Addr::new(10, 0, 0, 1)));
        let pf = StateKey::per_flow(v, InstanceId(1), obj.clone());
        let sh = StateKey::shared(v, obj);
        assert!(pf.is_per_flow());
        assert!(!sh.is_per_flow());
        assert_ne!(pf, sh);
        assert_eq!(pf.canonical(), sh);
        // Canonical identity shards identically regardless of owner.
        assert_eq!(pf.shard_hash(), sh.shard_hash());
    }

    #[test]
    fn vertex_id_prevents_cross_vertex_conflicts() {
        let a = StateKey::shared(VertexId(1), ObjectKey::named("count"));
        let b = StateKey::shared(VertexId(2), ObjectKey::named("count"));
        assert_ne!(a, b);
        assert_ne!(a.shard_hash(), b.shard_hash());
    }

    #[test]
    fn state_scope_helpers() {
        assert!(!StateScope::PerFlow.is_shared());
        assert!(StateScope::CrossFlow(Scope::SrcIp).is_shared());
        assert_eq!(StateScope::PerFlow.packet_scope(), Scope::FiveTuple);
        assert_eq!(
            StateScope::CrossFlow(Scope::SrcIp).packet_scope(),
            Scope::SrcIp
        );
    }

    #[test]
    fn display_forms() {
        let k = StateKey::per_flow(
            VertexId(1),
            InstanceId(4),
            ObjectKey::scoped("map", ScopeKey::Port(80)),
        );
        let s = k.to_string();
        assert!(s.contains("v1") && s.contains("i4") && s.contains("map"));
        assert!(Clock::with_root(2, 9).to_string().contains("c2:9"));
    }
}
