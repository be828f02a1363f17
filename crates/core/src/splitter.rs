//! Scope-aware traffic partitioning (§4.1).
//!
//! CHC inserts a splitter after every NF instance (and a special root
//! splitter at the chain entry). The splitter partitions the upstream
//! output across the instances of the downstream vertex such that
//! (1) each flow is processed by a single instance, (2) flows that share
//! state land on the same instance whenever the chosen scope allows it, and
//! (3) load stays balanced. The scope is chosen per downstream vertex from
//! the vertex's `.scope()` list, coarse → fine, stopping at the coarsest
//! scope that still balances load ([`choose_partition_scope`]).
//!
//! In this reproduction the partitioning decision is held in a
//! [`PartitionTable`] shared by all upstream senders of a vertex (the paper
//! pushes the same "final scope" to all upstream splitters), so routing is
//! consistent chain-wide and reallocation decisions are made in one place.

use crate::dag::VertexSpec;
use chc_packet::{Packet, Scope, ScopeKey};
use chc_store::{Clock, VertexId};
use std::collections::HashMap;

/// The routing decision for one packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Route {
    /// Index of the chosen downstream instance (into the vertex's instance
    /// list held by the chain controller).
    pub instance_index: usize,
    /// The packet is the first of a moved flow group to reach its new
    /// instance (Figure 4, step 2).
    pub first_of_move: bool,
    /// Index of an instance that must receive a *copy* of the packet
    /// (straggler clone replication, §5.3).
    pub mirror_index: Option<usize>,
}

/// Per-downstream-vertex splitter state.
#[derive(Debug, Clone)]
pub struct Splitter {
    /// Downstream vertex this splitter feeds.
    pub vertex: VertexId,
    /// Scope used to partition traffic.
    pub scope: Scope,
    /// Number of downstream instances.
    instances: usize,
    /// Explicit overrides installed by reallocation (scope key → instance).
    overrides: HashMap<ScopeKey, usize>,
    /// Scope keys whose next routed packet must carry the `first_of_move`
    /// mark (the flow was just reallocated to a new instance).
    pending_first_mark: HashMap<ScopeKey, usize>,
    /// Replicate packets routed to `.0` also to `.1` (straggler clone).
    mirror: Option<(usize, usize)>,
    /// Scheduled elastic scale events as `(first_counter, instance_count)`:
    /// packets whose logical-clock counter is `>= first_counter` are hashed
    /// across `instance_count` instances. Keying the cut on the *logical
    /// clock* instead of wall/virtual time makes the flow→instance history a
    /// pure function of the input trace, so the simulator and the real-thread
    /// runtime partition identically and their outputs stay COE-comparable.
    scale_plan: Vec<(u64, usize)>,
}

impl Splitter {
    /// Create a splitter for `vertex` with `instances` downstream instances,
    /// partitioning on `scope`.
    pub fn new(vertex: VertexId, scope: Scope, instances: usize) -> Splitter {
        Splitter {
            vertex,
            scope,
            instances: instances.max(1),
            overrides: HashMap::new(),
            pending_first_mark: HashMap::new(),
            mirror: None,
            scale_plan: Vec::new(),
        }
    }

    /// The splitter a vertex is deployed with, on either substrate:
    /// partitioned on the coarsest *partitionable* scope of the vertex's
    /// state objects. Coarser scopes minimise shared state, but the global
    /// scope cannot spread load across instances, so it is skipped (§4.1
    /// walks from coarse to fine until load balances); a vertex with no
    /// partitionable scope splits per flow. This one rule decides which
    /// instance sees which flow, so the simulator and the real-thread engine
    /// both call it and partition a trace identically.
    pub fn for_vertex(v: &VertexSpec) -> Splitter {
        let scope = v
            .scopes()
            .into_iter()
            .filter(|s| *s != Scope::Global)
            .max()
            .unwrap_or(Scope::FiveTuple);
        Splitter::new(v.id, scope, v.parallelism)
    }

    /// Schedule an elastic scale event: packets with clock counter
    /// `>= first_counter` are partitioned across `instances` instances.
    /// Events may be scheduled in any order; the one with the largest
    /// matching `first_counter` wins.
    pub fn schedule_scale(&mut self, first_counter: u64, instances: usize) {
        self.scale_plan.push((first_counter, instances.max(1)));
        self.scale_plan.sort_unstable();
    }

    /// The instance count in force for a packet stamped with `clock`.
    pub fn instances_at(&self, clock: Clock) -> usize {
        let mut n = self.instances;
        for (first, count) in &self.scale_plan {
            if clock.counter() >= *first {
                n = *count;
            }
        }
        n
    }

    /// Grow the downstream instance set (elastic scale-up).
    pub fn set_instance_count(&mut self, n: usize) {
        self.instances = n.max(1);
    }

    /// The scope key a packet maps to under this splitter's scope.
    pub fn scope_key(&self, pkt: &Packet) -> ScopeKey {
        self.scope.key_of(pkt)
    }

    /// Default (hash-based) instance for a scope key, before overrides.
    pub fn default_instance(&self, key: &ScopeKey) -> usize {
        (key.stable_hash() % self.instances as u64) as usize
    }

    /// Current instance for a scope key (overrides included).
    pub fn instance_for_key(&self, key: &ScopeKey) -> usize {
        self.overrides
            .get(key)
            .copied()
            .unwrap_or_else(|| self.default_instance(key))
    }

    /// The instance a packet stamped with `clock` routes to, honoring both
    /// explicit overrides and scheduled scale events. Pure (no mark state),
    /// so the real-thread runtime can route from a shared immutable splitter.
    pub fn instance_for(&self, pkt: &Packet, clock: Clock) -> usize {
        let instances = self.instances_at(clock);
        // A vertex with one instance and no reallocation has nothing to
        // decide, so the common chain pays neither the scope hash nor the
        // override probe.
        let reallocated = !self.overrides.is_empty();
        if instances == 1 && !reallocated {
            return 0;
        }
        let key = self.scope_key(pkt);
        if reallocated {
            if let Some(idx) = self.overrides.get(&key) {
                return *idx;
            }
        }
        (key.stable_hash() % instances as u64) as usize
    }

    /// Route a packet carrying a logical clock: pick the instance (the hash
    /// spread honors scale events scheduled for that clock), attach any
    /// pending move mark, and report the mirror target if replication is
    /// active.
    pub fn route_clocked(&mut self, pkt: &Packet, clock: Clock) -> Route {
        let key = self.scope_key(pkt);
        let idx = self.instance_for(pkt, clock);
        let mut first_of_move = false;
        if let Some(target) = self.pending_first_mark.get(&key).copied() {
            first_of_move = target == idx;
            self.pending_first_mark.remove(&key);
        }
        let mirror_index = match self.mirror {
            Some((of, to)) if of == idx => Some(to),
            _ => None,
        };
        Route {
            instance_index: idx,
            first_of_move,
            mirror_index,
        }
    }

    /// Reallocate the given scope keys to `new_instance`. Subsequent packets
    /// of those keys route to the new instance; the first of each carries the
    /// `first_of_move` mark (Figure 4 step 2). Returns the previous instance
    /// of each key so the controller can tell the old instances to flush and
    /// release state (step 1/5).
    pub fn reallocate(&mut self, keys: &[ScopeKey], new_instance: usize) -> Vec<(ScopeKey, usize)> {
        let mut previous = Vec::new();
        for key in keys {
            let old = self.instance_for_key(key);
            if old != new_instance {
                previous.push((*key, old));
                self.overrides.insert(*key, new_instance);
                self.pending_first_mark.insert(*key, new_instance);
            }
        }
        previous
    }

    /// Start replicating packets routed to instance `of` also to `to`
    /// (straggler clone). Stops any previous replication.
    pub fn set_mirror(&mut self, of: usize, to: usize) {
        self.mirror = Some((of, to));
    }
}

/// The chain-wide partitioning state: one [`Splitter`] per vertex, shared by
/// every upstream sender of that vertex.
#[derive(Debug, Default)]
pub struct PartitionTable {
    splitters: HashMap<VertexId, Splitter>,
}

impl PartitionTable {
    /// Create an empty table.
    pub fn new() -> PartitionTable {
        PartitionTable::default()
    }

    /// Install (or replace) the splitter for a vertex.
    pub fn insert(&mut self, splitter: Splitter) {
        self.splitters.insert(splitter.vertex, splitter);
    }

    /// The splitter feeding `vertex`.
    pub fn splitter(&self, vertex: VertexId) -> Option<&Splitter> {
        self.splitters.get(&vertex)
    }

    /// Mutable access to the splitter feeding `vertex`.
    pub fn splitter_mut(&mut self, vertex: VertexId) -> Option<&mut Splitter> {
        self.splitters.get_mut(&vertex)
    }

    /// Route a clock-stamped packet towards `vertex` (scale-plan aware).
    pub fn route_clocked(&mut self, vertex: VertexId, pkt: &Packet, clock: Clock) -> Option<Route> {
        self.splitters
            .get_mut(&vertex)
            .map(|s| s.route_clocked(pkt, clock))
    }

    /// Vertices with installed splitters.
    pub fn vertices(&self) -> Vec<VertexId> {
        self.splitters.keys().copied().collect()
    }
}

/// Choose the partitioning scope for a downstream vertex (§4.1).
///
/// `scopes` is the vertex's `.scope()` list ordered fine → coarse (see
/// [`crate::dag::VertexSpec::scopes`]); `sample` is a sample of recent
/// packets (the vertex manager's statistics); `instances` the number of
/// downstream instances; `imbalance_threshold` the tolerated ratio between
/// the most-loaded instance and the average (e.g. 1.5).
///
/// The algorithm walks the list from the *coarsest* scope towards finer ones
/// and returns the first scope whose hash assignment keeps the load within
/// the threshold — coarser scopes minimise cross-instance state sharing, so
/// they are preferred whenever they balance load.
pub fn choose_partition_scope(
    scopes: &[Scope],
    sample: &[Packet],
    instances: usize,
    imbalance_threshold: f64,
) -> Scope {
    if scopes.is_empty() {
        return Scope::FiveTuple;
    }
    if instances <= 1 || sample.is_empty() {
        // A single instance is trivially balanced; use the coarsest scope.
        return *scopes.iter().max().unwrap();
    }
    let mut ordered: Vec<Scope> = scopes.to_vec();
    ordered.sort();
    // coarse → fine
    for scope in ordered.iter().rev() {
        let mut load = vec![0usize; instances];
        for pkt in sample {
            let key = scope.key_of(pkt);
            load[(key.stable_hash() % instances as u64) as usize] += 1;
        }
        let max = *load.iter().max().unwrap() as f64;
        let avg = sample.len() as f64 / instances as f64;
        if max <= avg * imbalance_threshold {
            return *scope;
        }
    }
    // Nothing balanced: fall back to the finest scope (most keys, best
    // balance, most sharing).
    ordered[0]
}

#[cfg(test)]
mod tests {
    use super::*;
    use chc_packet::{TraceConfig, TraceGenerator};
    use std::collections::HashSet;

    fn sample(n: usize) -> Vec<Packet> {
        let trace = TraceGenerator::new(TraceConfig::small(3)).generate();
        trace.packets.into_iter().take(n).collect()
    }

    #[test]
    fn flows_stick_to_one_instance() {
        let mut s = Splitter::new(VertexId(1), Scope::FiveTuple, 4);
        let pkts = sample(500);
        let mut seen: HashMap<ScopeKey, usize> = HashMap::new();
        for p in &pkts {
            let r = s.route_clocked(p, Clock::default());
            let key = s.scope_key(p);
            let prev = seen.insert(key, r.instance_index);
            if let Some(prev) = prev {
                assert_eq!(prev, r.instance_index, "flow migrated without reallocation");
            }
            assert!(r.instance_index < 4);
            assert!(r.mirror_index.is_none());
        }
    }

    #[test]
    fn reallocation_marks_first_packet_only() {
        let mut s = Splitter::new(VertexId(1), Scope::SrcIp, 2);
        let pkts = sample(50);
        let key = s.scope_key(&pkts[0]);
        let old = s.instance_for_key(&key);
        let new = 1 - old;
        let prev = s.reallocate(&[key], new);
        assert_eq!(prev, vec![(key, old)]);
        // First packet of the moved group carries the mark; later ones do not.
        let matching: Vec<&Packet> = pkts.iter().filter(|p| s.scope_key(p) == key).collect();
        assert!(!matching.is_empty());
        let r1 = s.route_clocked(matching[0], Clock::default());
        assert_eq!(r1.instance_index, new);
        assert!(r1.first_of_move);
        if matching.len() > 1 {
            let r2 = s.route_clocked(matching[1], Clock::default());
            assert!(!r2.first_of_move);
            assert_eq!(r2.instance_index, new);
        }
        assert_eq!(s.instance_for_key(&key), new);
        // Reallocating to where it already lives is a no-op.
        assert!(s.reallocate(&[key], new).is_empty());
    }

    #[test]
    fn mirroring_replicates_to_clone() {
        let mut s = Splitter::new(VertexId(1), Scope::FiveTuple, 3);
        // add a clone as instance 2's mirror (index 3 after scale-up)
        s.set_instance_count(4);
        s.set_mirror(2, 3);
        let pkts = sample(200);
        let mut mirrored = 0;
        for p in &pkts {
            let r = s.route_clocked(p, Clock::default());
            if r.instance_index == 2 {
                assert_eq!(r.mirror_index, Some(3));
                mirrored += 1;
            } else {
                assert_eq!(r.mirror_index, None);
            }
        }
        assert!(mirrored > 0);
    }

    #[test]
    fn scale_plan_cuts_on_the_logical_clock() {
        let mut s = Splitter::new(VertexId(1), Scope::FiveTuple, 1);
        s.schedule_scale(100, 2);
        let pkts = sample(300);
        // Before the cut every packet routes to instance 0; after it the
        // spread uses both instances — and the decision depends only on the
        // packet's clock, so re-routing the same packet is deterministic.
        let mut post_spread = HashSet::new();
        for (i, p) in pkts.iter().enumerate() {
            let clock = Clock::with_root(0, i as u64 + 1);
            let idx = s.instance_for(p, clock);
            if clock.counter() < 100 {
                assert_eq!(idx, 0, "pre-scale packets stay on the single instance");
            } else {
                post_spread.insert(idx);
            }
            assert_eq!(idx, s.instance_for(p, clock), "routing is pure");
            assert_eq!(s.route_clocked(p, clock).instance_index, idx);
        }
        assert_eq!(
            post_spread.len(),
            2,
            "post-scale traffic uses both instances"
        );
        assert_eq!(s.instances_at(Clock::with_root(0, 99)), 1);
        assert_eq!(s.instances_at(Clock::with_root(0, 100)), 2);
    }

    #[test]
    fn partition_table_routes_per_vertex() {
        let mut t = PartitionTable::new();
        t.insert(Splitter::new(VertexId(1), Scope::SrcIp, 2));
        t.insert(Splitter::new(VertexId(2), Scope::FiveTuple, 3));
        let pkts = sample(10);
        assert!(t
            .route_clocked(VertexId(1), &pkts[0], Clock::default())
            .is_some());
        assert!(t
            .route_clocked(VertexId(9), &pkts[0], Clock::default())
            .is_none());
        assert_eq!(t.vertices().len(), 2);
        assert!(t.splitter(VertexId(2)).is_some());
        t.splitter_mut(VertexId(2)).unwrap().set_instance_count(5);
    }

    #[test]
    fn scope_choice_prefers_coarse_when_balanced() {
        let pkts = sample(2_000);
        // With many client hosts, src-ip hashing balances well across 2
        // instances, so the coarser scope should win over 5-tuple.
        let scope = choose_partition_scope(&[Scope::FiveTuple, Scope::SrcIp], &pkts, 2, 1.5);
        assert_eq!(scope, Scope::SrcIp);
        // A single instance always takes the coarsest scope.
        assert_eq!(
            choose_partition_scope(&[Scope::FiveTuple, Scope::Global], &pkts, 1, 1.5),
            Scope::Global
        );
        // Global scope can never balance two instances: fall back to finer.
        let scope = choose_partition_scope(&[Scope::FiveTuple, Scope::Global], &pkts, 2, 1.2);
        assert_eq!(scope, Scope::FiveTuple);
        // Defaults for degenerate inputs.
        assert_eq!(choose_partition_scope(&[], &pkts, 2, 1.5), Scope::FiveTuple);
    }
}
