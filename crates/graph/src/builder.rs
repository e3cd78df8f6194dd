//! Incremental construction of [`PortGraph`]s with validation.

use crate::graph::PortGraph;
use crate::ids::{NodeId, Port};
use std::collections::HashSet;
use std::fmt;

/// Errors reported while building or validating a graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A node index was out of range for the declared node count.
    NodeOutOfRange {
        /// The offending node.
        node: NodeId,
        /// Number of nodes declared at construction.
        num_nodes: usize,
    },
    /// A self loop `{v, v}` was added; the model forbids them.
    SelfLoop(NodeId),
    /// The same undirected edge was added twice; the model forbids
    /// parallel edges.
    DuplicateEdge(NodeId, NodeId),
    /// The built graph is not connected (required by the dispersion model).
    Disconnected {
        /// Number of nodes reachable from node 0.
        reachable: usize,
        /// Total number of nodes.
        num_nodes: usize,
    },
    /// The graph has no nodes.
    Empty,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::NodeOutOfRange { node, num_nodes } => {
                write!(f, "node {node} out of range (graph has {num_nodes} nodes)")
            }
            GraphError::SelfLoop(v) => write!(f, "self loop at node {v} is not allowed"),
            GraphError::DuplicateEdge(u, v) => {
                write!(f, "duplicate edge {{{u}, {v}}} is not allowed")
            }
            GraphError::Disconnected {
                reachable,
                num_nodes,
            } => write!(
                f,
                "graph is disconnected: only {reachable} of {num_nodes} nodes reachable from node 0"
            ),
            GraphError::Empty => write!(f, "graph must have at least one node"),
        }
    }
}

impl std::error::Error for GraphError {}

/// Hash state for the duplicate-edge set (and the random-regular repair
/// pass's). The keys are canonicalized `(min, max)` node pairs — already
/// unique, well-distributed u64s — so one splitmix64 finalizer round
/// replaces SipHash, which profiles as the hot spot of building 10^5-edge
/// graphs.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EdgeKeyHash;

#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct EdgeKeyHasher(u64);

impl std::hash::Hasher for EdgeKeyHasher {
    fn write(&mut self, bytes: &[u8]) {
        // Fallback for non-u32 writes (tuple layout changes, prefixes):
        // FNV-1a, correct for any byte stream.
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn write_u32(&mut self, v: u32) {
        // Two writes pack the (u32, u32) key into one u64.
        self.0 = self.0.rotate_left(32) ^ u64::from(v);
    }

    fn finish(&self) -> u64 {
        let mut z = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

impl std::hash::BuildHasher for EdgeKeyHash {
    type Hasher = EdgeKeyHasher;

    fn build_hasher(&self) -> EdgeKeyHasher {
        EdgeKeyHasher(0)
    }
}

/// Builder for [`PortGraph`].
///
/// Ports are assigned per node in edge-insertion order: the first edge
/// incident to `v` gets port 1 at `v`, the second port 2, and so on. Use
/// [`crate::generators::permute_ports`] to randomize the labeling afterwards
/// (the model makes no promise about any correlation between the two labels
/// of an edge).
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    num_nodes: usize,
    /// Undirected edges in insertion order. The CSR arrays are produced by a
    /// counting sort over this list in [`GraphBuilder::build`]; a flat list
    /// keeps construction at O(1) heap allocations instead of one small
    /// `Vec` per node.
    edges: Vec<(NodeId, NodeId)>,
    /// Running degree of each node; doubles as the port counter (ports are
    /// assigned per node in edge-insertion order).
    degrees: Vec<u32>,
    edge_set: HashSet<(u32, u32), EdgeKeyHash>,
    name: String,
}

impl GraphBuilder {
    /// Start a builder for a graph on `num_nodes` nodes.
    pub fn new(num_nodes: usize) -> Self {
        GraphBuilder {
            num_nodes,
            // Most families are sparse (m = Θ(n)); reserving n slots up
            // front spares the dense-growth reallocation cascade without
            // hurting small builders. Dense families still grow amortized.
            edges: Vec::with_capacity(num_nodes),
            degrees: vec![0; num_nodes],
            edge_set: HashSet::with_capacity_and_hasher(num_nodes, EdgeKeyHash),
            name: String::from("custom"),
        }
    }

    /// Set the human-readable name recorded on the built graph.
    pub fn name(mut self, name: impl Into<String>) -> Self {
        self.name = name.into();
        self
    }

    /// Number of edges added so far.
    pub fn num_edges(&self) -> usize {
        self.edge_set.len()
    }

    /// Current degree of `v`.
    pub fn degree(&self, v: NodeId) -> usize {
        self.degrees[v.index()] as usize
    }

    /// Whether the undirected edge `{u, v}` has already been added.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        let key = if u.0 <= v.0 { (u.0, v.0) } else { (v.0, u.0) };
        self.edge_set.contains(&key)
    }

    /// Add the undirected edge `{u, v}`.
    ///
    /// Returns the ports assigned at `u` and at `v` respectively.
    pub fn add_edge(&mut self, u: NodeId, v: NodeId) -> Result<(Port, Port), GraphError> {
        if u.index() >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange {
                node: u,
                num_nodes: self.num_nodes,
            });
        }
        if v.index() >= self.num_nodes {
            return Err(GraphError::NodeOutOfRange {
                node: v,
                num_nodes: self.num_nodes,
            });
        }
        if u == v {
            return Err(GraphError::SelfLoop(u));
        }
        let key = if u.0 <= v.0 { (u.0, v.0) } else { (v.0, u.0) };
        if !self.edge_set.insert(key) {
            return Err(GraphError::DuplicateEdge(u, v));
        }
        let pu = Port::from_offset(self.degrees[u.index()] as usize);
        let pv = Port::from_offset(self.degrees[v.index()] as usize);
        self.degrees[u.index()] += 1;
        self.degrees[v.index()] += 1;
        self.edges.push((u, v));
        Ok((pu, pv))
    }

    /// Finalize into an immutable [`PortGraph`].
    pub fn build(self) -> Result<PortGraph, GraphError> {
        if self.num_nodes == 0 {
            return Err(GraphError::Empty);
        }
        // Counting-sort the flat edge list into CSR form. Replaying edges in
        // insertion order reproduces the per-node port order that add_edge
        // promised, and each entry's local slot at the far endpoint is
        // exactly the far node's fill cursor at that moment — which is the
        // back-port add_edge assigned.
        let mut offsets = Vec::with_capacity(self.num_nodes + 1);
        offsets.push(0usize);
        let mut total = 0usize;
        for &d in &self.degrees {
            total += d as usize;
            offsets.push(total);
        }
        let mut neighbors = vec![NodeId(0); total];
        let mut back_ports = vec![Port::from_offset(0); total];
        let mut fill = vec![0u32; self.num_nodes];
        for &(u, v) in &self.edges {
            let (ui, vi) = (u.index(), v.index());
            let (lu, lv) = (fill[ui] as usize, fill[vi] as usize);
            neighbors[offsets[ui] + lu] = v;
            back_ports[offsets[ui] + lu] = Port::from_offset(lv);
            neighbors[offsets[vi] + lv] = u;
            back_ports[offsets[vi] + lv] = Port::from_offset(lu);
            fill[ui] += 1;
            fill[vi] += 1;
        }
        let graph = PortGraph {
            offsets,
            neighbors,
            back_ports,
            name: self.name,
        };
        let reachable = crate::properties::reachable_from(&graph, NodeId(0));
        if reachable != graph.num_nodes() {
            return Err(GraphError::Disconnected {
                reachable,
                num_nodes: graph.num_nodes(),
            });
        }
        debug_assert!(crate::validate::check_port_labeling(&graph).is_ok());
        Ok(graph)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ports_assigned_in_insertion_order() {
        let mut b = GraphBuilder::new(4).name("path4");
        assert_eq!(
            b.add_edge(NodeId(0), NodeId(1)).unwrap(),
            (Port(1), Port(1))
        );
        assert_eq!(
            b.add_edge(NodeId(1), NodeId(2)).unwrap(),
            (Port(2), Port(1))
        );
        assert_eq!(
            b.add_edge(NodeId(2), NodeId(3)).unwrap(),
            (Port(2), Port(1))
        );
        let g = b.build().unwrap();
        assert_eq!(g.name(), "path4");
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.traverse(NodeId(0), Port(1)), (NodeId(1), Port(1)));
        assert_eq!(g.traverse(NodeId(1), Port(2)), (NodeId(2), Port(1)));
    }

    #[test]
    fn rejects_self_loop() {
        let mut b = GraphBuilder::new(2);
        assert_eq!(
            b.add_edge(NodeId(0), NodeId(0)),
            Err(GraphError::SelfLoop(NodeId(0)))
        );
    }

    #[test]
    fn rejects_duplicate_edge_in_either_direction() {
        let mut b = GraphBuilder::new(2);
        b.add_edge(NodeId(0), NodeId(1)).unwrap();
        assert_eq!(
            b.add_edge(NodeId(1), NodeId(0)),
            Err(GraphError::DuplicateEdge(NodeId(1), NodeId(0)))
        );
    }

    #[test]
    fn rejects_out_of_range_node() {
        let mut b = GraphBuilder::new(2);
        assert!(matches!(
            b.add_edge(NodeId(0), NodeId(5)),
            Err(GraphError::NodeOutOfRange { .. })
        ));
    }

    #[test]
    fn rejects_disconnected_graph() {
        let mut b = GraphBuilder::new(4);
        b.add_edge(NodeId(0), NodeId(1)).unwrap();
        b.add_edge(NodeId(2), NodeId(3)).unwrap();
        assert!(matches!(
            b.build(),
            Err(GraphError::Disconnected {
                reachable: 2,
                num_nodes: 4
            })
        ));
    }

    #[test]
    fn rejects_empty_graph() {
        assert_eq!(GraphBuilder::new(0).build(), Err(GraphError::Empty));
    }

    #[test]
    fn single_node_graph_is_fine() {
        let g = GraphBuilder::new(1).build().unwrap();
        assert_eq!(g.num_nodes(), 1);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.degree(NodeId(0)), 0);
    }

    #[test]
    fn error_display_is_informative() {
        let e = GraphError::DuplicateEdge(NodeId(1), NodeId(2));
        assert!(e.to_string().contains("duplicate edge"));
        let e = GraphError::Disconnected {
            reachable: 1,
            num_nodes: 3,
        };
        assert!(e.to_string().contains("disconnected"));
    }
}
