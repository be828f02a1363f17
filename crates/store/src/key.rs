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

/// One step of the key hash: a 64×64→128-bit multiply of the running hash
/// mixed with the next word, high half folded onto the low. The only hash
/// function of the store and core crates.
#[inline]
fn fold(hash: u64, word: u64) -> u64 {
    let wide = u128::from(hash ^ word) * 0x9e37_79b9_7f4a_7c15_u128;
    (wide as u64) ^ ((wide >> 64) as u64)
}

/// Hash of what every key of one declared object shares: vertex and name.
fn prefix_hash(vertex: VertexId, name: &str) -> u64 {
    let mut hash = fold(0x2545_f491_4f6c_dd1d, u64::from(vertex.0));
    for chunk in name.as_bytes().chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        hash = fold(hash, u64::from_le_bytes(word));
    }
    // The length separates "ab" + "\0" from "ab": chunks are zero-padded.
    fold(hash, name.len() as u64)
}

/// The hash of one key: the object's prefix hash folded with the scope
/// key's variant and words — three multiplies whatever the variant. A pure
/// function of (vertex, name, scope key), with no per-process seed: `hash %
/// shards` places objects, and the append-only engine reopens directories an
/// earlier process wrote.
#[inline]
fn scoped_hash(prefix: u64, scope_key: Option<ScopeKey>) -> u64 {
    let (variant, a, b) = match scope_key {
        None => (0, 0, 0),
        Some(ScopeKey::Flow(flow)) => (1, flow.0 as u64, (flow.0 >> 64) as u64),
        Some(ScopeKey::HostPair(a, b)) => (2, u64::from(u32::from(a)), u64::from(u32::from(b))),
        Some(ScopeKey::Host(a)) => (3, u64::from(u32::from(a)), 0),
        Some(ScopeKey::Port(p)) => (4, u64::from(p), 0),
        Some(ScopeKey::Global) => (5, 0, 0),
    };
    fold(fold(fold(prefix, variant), a), b)
}

/// What every key of one declared object shares — vertex and name — with
/// its part of the key hash computed once. A client keeps one per object
/// and derives each access's [`Scoped`] hash, and each key that leaves for
/// the store, from it.
#[derive(Debug, Clone)]
pub struct KeyPrefix {
    vertex: VertexId,
    name: Arc<str>,
    hash: u64,
}

impl KeyPrefix {
    /// The prefix of object `name` of `vertex`.
    pub fn new(vertex: VertexId, name: Arc<str>) -> KeyPrefix {
        let hash = prefix_hash(vertex, &name);
        KeyPrefix { vertex, name, hash }
    }

    /// The object's declared name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The object's instance at `scope_key`, hashed here and nowhere else.
    #[inline]
    pub fn scoped(&self, scope_key: Option<ScopeKey>) -> Scoped {
        Scoped {
            hash: scoped_hash(self.hash, scope_key),
            scope_key,
        }
    }

    /// The full key of `at` (which [`KeyPrefix::scoped`] of this prefix
    /// made), owned by `instance`: a reference-count bump, no hashing.
    pub fn key(&self, instance: Option<InstanceId>, at: Scoped) -> StateKey {
        debug_assert_eq!(at.hash, scoped_hash(self.hash, at.scope_key));
        StateKey {
            vertex: self.vertex,
            instance,
            object: ObjectKey::shared_name(Arc::clone(&self.name), at.scope_key),
            hash: at.hash,
        }
    }
}

/// A scope key together with the hash of the key it selects under one
/// [`KeyPrefix`]: the `Copy` key of that object's client-side table.
/// (`hash` leads in both structs so derived equality rejects on it first.)
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Scoped {
    hash: u64,
    scope_key: Option<ScopeKey>,
}

impl Hash for Scoped {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// A complete datastore key with its CHC metadata.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct StateKey {
    /// [`scoped_hash`] of (vertex, name, scope key), computed where the key
    /// was built. Private, so every key is built in this module.
    hash: u64,
    /// Logical vertex that owns the object.
    pub vertex: VertexId,
    /// Owning instance for per-flow objects; `None` for shared objects.
    pub instance: Option<InstanceId>,
    /// Object identity within the vertex.
    pub object: ObjectKey,
}

impl StateKey {
    /// A key built from its parts, hashed here.
    pub(crate) fn new(vertex: VertexId, instance: Option<InstanceId>, object: ObjectKey) -> Self {
        let hash = scoped_hash(prefix_hash(vertex, &object.name), object.scope_key);
        StateKey {
            vertex,
            instance,
            object,
            hash,
        }
    }

    /// Key of a per-flow object owned by `instance`.
    pub fn per_flow(vertex: VertexId, instance: InstanceId, object: ObjectKey) -> StateKey {
        StateKey::new(vertex, Some(instance), object)
    }

    /// Key of a shared (cross-flow) object.
    pub fn shared(vertex: VertexId, object: ObjectKey) -> StateKey {
        StateKey::new(vertex, None, object)
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
            instance: None,
            ..self.clone()
        }
    }

    /// Stable 64-bit hash of the object identity (vertex, name, scope key;
    /// not the owner), carried by the key since it was built. Shards objects
    /// across store threads (each object lives on exactly one shard, §4.3),
    /// indexes the shard maps and the client tables, and names the object in
    /// commit tokens.
    #[inline]
    pub fn shard_hash(&self) -> u64 {
        self.hash
    }
}

impl Hash for StateKey {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.hash);
    }
}

/// A key as the shard maps see it: vertex + object under the carried hash,
/// without the owner metadata (a per-flow key and its shared form name the
/// same stored object, which is what lets a handover find it). A trait
/// object so that a map keyed by [`CanonKey`] is looked up with a borrowed
/// `&StateKey` — no canonical copy, no hashing.
pub(crate) trait CanonView {
    /// The key viewed.
    fn key(&self) -> &StateKey;
}

impl CanonView for StateKey {
    fn key(&self) -> &StateKey {
        self
    }
}

impl Hash for dyn CanonView + '_ {
    fn hash<H: Hasher>(&self, state: &mut H) {
        state.write_u64(self.key().hash);
    }
}

impl PartialEq for dyn CanonView + '_ {
    fn eq(&self, other: &Self) -> bool {
        let (a, b) = (self.key(), other.key());
        a.hash == b.hash && a.vertex == b.vertex && a.object == b.object
    }
}

impl Eq for dyn CanonView + '_ {}

/// Owned key of a shard map: a [`StateKey`] in canonical form.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub(crate) struct CanonKey(StateKey);

impl CanonKey {
    /// The canonical form of `key`.
    pub(crate) fn of(key: &StateKey) -> CanonKey {
        CanonKey(key.canonical())
    }

    /// The canonical (shared-form) key.
    pub(crate) fn state_key(&self) -> &StateKey {
        &self.0
    }
}

impl<'a> Borrow<dyn CanonView + 'a> for CanonKey {
    fn borrow(&self) -> &(dyn CanonView + 'a) {
        &self.0
    }
}

/// Hasher of every map whose keys carry their hash ([`StateKey`], the shard
/// maps' canonical keys, [`Scoped`]): the key writes that one word and the
/// hasher hands it on. Every key of one shard shares `hash % shards`;
/// folding the high half down keeps the table's bucket index (taken from the
/// low bits) independent of that residue.
///
/// This trades SipHash's resistance to crafted collisions for speed on keys
/// derived from packet headers (DESIGN.md, "What one state access costs").
#[derive(Default)]
pub struct PrehashedHasher(u64);

impl Hasher for PrehashedHasher {
    fn write_u64(&mut self, hash: u64) {
        self.0 = hash;
    }

    fn write(&mut self, _: &[u8]) {
        unreachable!("a prehashed map's key writes its carried hash as one u64");
    }

    fn finish(&self) -> u64 {
        self.0 ^ (self.0 >> 29)
    }
}

/// A map whose keys carry their hash.
pub type PrehashedMap<K, V> = std::collections::HashMap<K, V, BuildHasherDefault<PrehashedHasher>>;

/// A shard map keyed by canonical object identity.
pub(crate) type CanonMap<V> = PrehashedMap<CanonKey, V>;

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
