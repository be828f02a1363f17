//! The operator-facing DAG API (§3 of the paper).
//!
//! Operators define a *logical* chain: each vertex is an NF type with its
//! code (a [`NetworkFunction`] factory), configuration, state objects and a
//! default parallelism; edges represent the flow of packets (or, for off-path
//! NFs such as the Trojan detector, copies of packets). The framework
//! compiles the logical DAG into a physical DAG with one or more instances
//! per vertex ([`crate::chain::ChainController`]).

use crate::nf::NetworkFunction;
use crate::root::ROOT_VERTEX;
use chc_packet::Scope;
use chc_store::{AccessPattern, StateScope, VertexId};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt;
use std::rc::Rc;

/// Declaration of one state object an NF maintains (name, scope, access
/// pattern) — the rows of Table 4.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateObjectSpec {
    /// Object name used by the NF when accessing it.
    pub name: String,
    /// Per-flow or cross-flow, and at which header granularity.
    pub scope: StateScope,
    /// How the NF accesses it (drives the Table 1 strategy).
    pub access: AccessPattern,
}

impl StateObjectSpec {
    /// Declare a per-flow object.
    pub fn per_flow(name: &str, access: AccessPattern) -> StateObjectSpec {
        StateObjectSpec {
            name: name.to_string(),
            scope: StateScope::PerFlow,
            access,
        }
    }

    /// Declare a cross-flow object keyed at `scope`.
    pub fn cross_flow(name: &str, scope: Scope, access: AccessPattern) -> StateObjectSpec {
        StateObjectSpec {
            name: name.to_string(),
            scope: StateScope::CrossFlow(scope),
            access,
        }
    }
}

/// Factory that builds a fresh NF instance for a vertex.
pub type NfFactory = Rc<dyn Fn() -> Box<dyn NetworkFunction>>;

/// A vertex of the logical DAG: an NF type plus its deployment parameters.
#[derive(Clone)]
pub struct VertexSpec {
    /// Stable identifier (also used in datastore keys).
    pub id: VertexId,
    /// Human-readable name.
    pub name: String,
    /// Number of instances to deploy initially (the operator's default
    /// parallelism; scaling logic may change it at run time).
    pub parallelism: usize,
    /// True for off-path NFs (they receive a *copy* of traffic and their
    /// output does not continue down the chain), like the Trojan detector.
    pub off_path: bool,
    /// Factory producing the NF code for each instance.
    pub factory: NfFactory,
}

impl VertexSpec {
    /// Create a vertex with parallelism 1.
    pub fn new(id: u32, name: &str, factory: NfFactory) -> VertexSpec {
        VertexSpec {
            id: VertexId(id),
            name: name.to_string(),
            parallelism: 1,
            off_path: false,
            factory,
        }
    }

    /// Set the initial parallelism.
    pub fn with_parallelism(mut self, n: usize) -> VertexSpec {
        self.parallelism = n.max(1);
        self
    }

    /// Mark the vertex as off-path.
    pub fn off_path(mut self) -> VertexSpec {
        self.off_path = true;
        self
    }

    /// Instantiate the NF code once (used to interrogate state objects).
    pub fn build_nf(&self) -> Box<dyn NetworkFunction> {
        (self.factory)()
    }

    /// The state-object declarations of this vertex's NF.
    pub fn state_objects(&self) -> Vec<StateObjectSpec> {
        self.build_nf().state_objects()
    }

    /// The vertex's `.scope()` list (§4.1): the packet-header scopes of its
    /// state objects ordered from most to least fine grained.
    pub fn scopes(&self) -> Vec<Scope> {
        // `Scope` orders fine → coarse and BTreeSet iterates in that order,
        // matching the paper's ordering of the `.scope()` list.
        let scopes: BTreeSet<Scope> = self
            .state_objects()
            .iter()
            .map(|o| o.scope.packet_scope())
            .collect();
        scopes.into_iter().collect()
    }
}

impl fmt::Debug for VertexSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("VertexSpec")
            .field("id", &self.id)
            .field("name", &self.name)
            .field("parallelism", &self.parallelism)
            .field("off_path", &self.off_path)
            .finish()
    }
}

/// Errors produced when validating a logical DAG.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DagError {
    /// Two vertices share an id.
    DuplicateVertex(VertexId),
    /// A vertex uses [`ROOT_VERTEX`], the id the root's own clock and
    /// packet log are kept under.
    ReservedVertex(VertexId),
    /// An edge references an unknown vertex.
    UnknownVertex(VertexId),
    /// The graph contains a cycle.
    Cyclic,
    /// The DAG has no entry vertex (every vertex has predecessors).
    NoEntry,
}

impl fmt::Display for DagError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DagError::DuplicateVertex(v) => write!(f, "duplicate vertex id {v}"),
            DagError::ReservedVertex(v) => write!(f, "vertex id {v} is reserved for the root"),
            DagError::UnknownVertex(v) => write!(f, "edge references unknown vertex {v}"),
            DagError::Cyclic => write!(f, "the NF graph contains a cycle"),
            DagError::NoEntry => write!(f, "the NF graph has no entry vertex"),
        }
    }
}

impl std::error::Error for DagError {}

/// The operator-defined logical NF chain.
#[derive(Clone, Default)]
pub struct LogicalDag {
    vertices: Vec<VertexSpec>,
    edges: Vec<(VertexId, VertexId)>,
}

impl LogicalDag {
    /// Create an empty DAG.
    pub fn new() -> LogicalDag {
        LogicalDag::default()
    }

    /// Add a vertex and return its id.
    pub fn add_vertex(&mut self, vertex: VertexSpec) -> VertexId {
        let id = vertex.id;
        self.vertices.push(vertex);
        id
    }

    /// Add a directed edge `from → to`.
    pub fn add_edge(&mut self, from: VertexId, to: VertexId) {
        self.edges.push((from, to));
    }

    /// All vertices.
    pub fn vertices(&self) -> &[VertexSpec] {
        &self.vertices
    }

    /// Look up a vertex by id.
    pub fn vertex(&self, id: VertexId) -> Option<&VertexSpec> {
        self.vertices.iter().find(|v| v.id == id)
    }

    /// Ids of vertices immediately downstream of `id`.
    pub fn downstream_of(&self, id: VertexId) -> Vec<VertexId> {
        self.edges
            .iter()
            .filter(|(f, _)| *f == id)
            .map(|(_, t)| *t)
            .collect()
    }

    /// Ids of vertices immediately upstream of `id`.
    pub fn upstream_of(&self, id: VertexId) -> Vec<VertexId> {
        self.edges
            .iter()
            .filter(|(_, t)| *t == id)
            .map(|(f, _)| *f)
            .collect()
    }

    /// Entry vertices (no predecessors): where the root splitter sends
    /// incoming traffic.
    pub fn entries(&self) -> Vec<VertexId> {
        self.vertices
            .iter()
            .map(|v| v.id)
            .filter(|id| self.upstream_of(*id).is_empty())
            .collect()
    }

    /// Exit vertices (no on-path successors): their output goes to the end
    /// host and they issue the chain-tail "delete" requests.
    pub fn exits(&self) -> Vec<VertexId> {
        self.vertices
            .iter()
            .filter(|v| !v.off_path)
            .map(|v| v.id)
            .filter(|id| {
                self.downstream_of(*id)
                    .into_iter()
                    .filter(|d| self.vertex(*d).map(|v| !v.off_path).unwrap_or(false))
                    .count()
                    == 0
            })
            .collect()
    }

    /// Validate the graph and return a topological order of vertex ids.
    pub fn topo_order(&self) -> Result<Vec<VertexId>, DagError> {
        // Unique ids, none of them the root's.
        let mut seen = BTreeSet::new();
        for v in &self.vertices {
            if v.id == ROOT_VERTEX {
                return Err(DagError::ReservedVertex(v.id));
            }
            if !seen.insert(v.id) {
                return Err(DagError::DuplicateVertex(v.id));
            }
        }
        // Edges reference known vertices.
        for (f, t) in &self.edges {
            if !seen.contains(f) {
                return Err(DagError::UnknownVertex(*f));
            }
            if !seen.contains(t) {
                return Err(DagError::UnknownVertex(*t));
            }
        }
        if self.vertices.is_empty() {
            return Ok(Vec::new());
        }
        if self.entries().is_empty() {
            return Err(DagError::NoEntry);
        }
        // Kahn's algorithm.
        let mut in_deg: BTreeMap<VertexId, usize> =
            self.vertices.iter().map(|v| (v.id, 0)).collect();
        for (_, t) in &self.edges {
            *in_deg.get_mut(t).unwrap() += 1;
        }
        let mut ready: Vec<VertexId> = in_deg
            .iter()
            .filter(|(_, d)| **d == 0)
            .map(|(v, _)| *v)
            .collect();
        let mut order = Vec::new();
        while let Some(v) = ready.pop() {
            order.push(v);
            for d in self.downstream_of(v) {
                let e = in_deg.get_mut(&d).unwrap();
                *e -= 1;
                if *e == 0 {
                    ready.push(d);
                }
            }
        }
        if order.len() != self.vertices.len() {
            return Err(DagError::Cyclic);
        }
        Ok(order)
    }

    /// Convenience constructor: a linear chain of the given vertices (each
    /// forwarding to the next), the common deployment in the paper.
    pub fn linear(vertices: Vec<VertexSpec>) -> LogicalDag {
        let mut dag = LogicalDag::new();
        let ids: Vec<VertexId> = vertices.into_iter().map(|v| dag.add_vertex(v)).collect();
        for pair in ids.windows(2) {
            dag.add_edge(pair[0], pair[1]);
        }
        dag
    }
}

impl fmt::Debug for LogicalDag {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("LogicalDag")
            .field("vertices", &self.vertices)
            .field("edges", &self.edges)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nf::{Action, NfContext};
    use chc_packet::Packet;

    struct NoopNf;
    impl NetworkFunction for NoopNf {
        fn name(&self) -> &str {
            "noop"
        }
        fn state_objects(&self) -> Vec<StateObjectSpec> {
            vec![
                StateObjectSpec::per_flow("flow_bytes", AccessPattern::WriteMostlyReadRarely),
                StateObjectSpec::cross_flow(
                    "host_conns",
                    Scope::SrcIp,
                    AccessPattern::ReadWriteOften,
                ),
            ]
        }
        fn process(&mut self, packet: &Packet, _ctx: &mut NfContext<'_>) -> Action {
            Action::Forward(packet.clone())
        }
    }

    fn vertex(id: u32, name: &str) -> VertexSpec {
        VertexSpec::new(id, name, Rc::new(|| Box::new(NoopNf)))
    }

    #[test]
    fn linear_chain_structure() {
        let dag = LogicalDag::linear(vec![vertex(1, "a"), vertex(2, "b"), vertex(3, "c")]);
        assert_eq!(dag.entries(), vec![VertexId(1)]);
        assert_eq!(dag.exits(), vec![VertexId(3)]);
        assert_eq!(dag.downstream_of(VertexId(1)), vec![VertexId(2)]);
        assert_eq!(dag.upstream_of(VertexId(3)), vec![VertexId(2)]);
        assert_eq!(dag.topo_order().unwrap().len(), 3);
    }

    #[test]
    fn off_path_vertices_are_not_exits() {
        let mut dag = LogicalDag::linear(vec![vertex(1, "nat"), vertex(2, "lb")]);
        let trojan = dag.add_vertex(vertex(3, "trojan").off_path());
        dag.add_edge(VertexId(1), trojan);
        // The LB is still the only exit; the off-path Trojan detector is not.
        assert_eq!(dag.exits(), vec![VertexId(2)]);
        assert_eq!(
            dag.downstream_of(VertexId(1)),
            vec![VertexId(2), VertexId(3)]
        );
    }

    #[test]
    fn a_vertex_replays_from_the_root_or_its_on_path_upstreams() {
        // 1 → 2 → 3, and an off-path 4 fed by 1 that also feeds 3.
        let mut dag = LogicalDag::linear(vec![vertex(1, "a"), vertex(2, "b"), vertex(3, "c")]);
        let off = dag.add_vertex(vertex(4, "tap").off_path());
        dag.add_edge(VertexId(1), off);
        dag.add_edge(off, VertexId(3));
        let sources = |v| crate::vertexlog::replay_sources(&dag, VertexId(v));
        assert_eq!(sources(1), [ROOT_VERTEX]);
        assert_eq!(sources(2), [VertexId(1)]);
        assert_eq!(
            sources(3),
            [VertexId(2)],
            "an off-path vertex emits nothing"
        );
    }

    #[test]
    fn cycle_and_duplicate_detection() {
        let mut dag = LogicalDag::new();
        dag.add_vertex(vertex(1, "a"));
        dag.add_vertex(vertex(2, "b"));
        dag.add_edge(VertexId(1), VertexId(2));
        dag.add_edge(VertexId(2), VertexId(1));
        assert!(matches!(
            dag.topo_order(),
            Err(DagError::NoEntry) | Err(DagError::Cyclic)
        ));

        let mut dup = LogicalDag::new();
        dup.add_vertex(vertex(1, "a"));
        dup.add_vertex(vertex(1, "again"));
        assert_eq!(
            dup.topo_order(),
            Err(DagError::DuplicateVertex(VertexId(1)))
        );

        let mut unknown = LogicalDag::new();
        unknown.add_vertex(vertex(1, "a"));
        unknown.add_edge(VertexId(1), VertexId(9));
        assert_eq!(
            unknown.topo_order(),
            Err(DagError::UnknownVertex(VertexId(9)))
        );
    }

    #[test]
    fn the_roots_vertex_id_is_reserved() {
        let dag = LogicalDag::linear(vec![vertex(1, "a"), vertex(ROOT_VERTEX.0, "root?")]);
        assert_eq!(dag.topo_order(), Err(DagError::ReservedVertex(ROOT_VERTEX)));
    }

    #[test]
    fn scopes_are_ordered_fine_to_coarse() {
        let v = vertex(1, "noop");
        let scopes = v.scopes();
        assert_eq!(scopes, vec![Scope::FiveTuple, Scope::SrcIp]);
        assert_eq!(v.state_objects().len(), 2);
        assert!(!format!("{v:?}").is_empty());
    }

    #[test]
    fn parallelism_and_builders() {
        let v = vertex(4, "ids").with_parallelism(3);
        assert_eq!(v.parallelism, 3);
        assert_eq!(vertex(5, "x").with_parallelism(0).parallelism, 1);
        let nf = v.build_nf();
        assert_eq!(nf.name(), "noop");
    }
}
