//! The immutable, CSR-packed port-labeled graph.

use crate::ids::{NodeId, Port};

/// A simple, undirected, connected(-checkable), anonymous, port-labeled graph.
///
/// Internally the adjacency is stored in CSR (compressed sparse row) form:
/// for node `v`, the slice `neighbors[offsets[v] .. offsets[v+1]]` lists the
/// neighbors reachable through ports `1..=δ_v` in port order, and the
/// parallel slice `back_ports[..]` gives, for each of those edges, the port
/// label assigned to the edge at the *other* endpoint. The latter is what an
/// agent observes as its incoming port (`pin`) after traversing the edge.
///
/// Construction goes through [`crate::GraphBuilder`] or the
/// [`crate::generators`], both of which validate the structure (distinct
/// 1-based ports at every node, symmetric edges, no self-loops or parallel
/// edges).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PortGraph {
    pub(crate) offsets: Vec<usize>,
    pub(crate) neighbors: Vec<NodeId>,
    pub(crate) back_ports: Vec<Port>,
    pub(crate) name: String,
}

impl PortGraph {
    /// Assemble directly from pre-validated CSR arrays (used by
    /// [`crate::Topology::to_port_graph`], which materializes implicit
    /// families with their exact port labeling).
    pub(crate) fn from_csr_parts(
        offsets: Vec<usize>,
        neighbors: Vec<NodeId>,
        back_ports: Vec<Port>,
        name: String,
    ) -> PortGraph {
        debug_assert!(!offsets.is_empty());
        debug_assert_eq!(neighbors.len(), back_ports.len());
        debug_assert_eq!(*offsets.last().unwrap(), neighbors.len());
        PortGraph {
            offsets,
            neighbors,
            back_ports,
            name,
        }
    }

    /// Number of nodes `n`.
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m`.
    #[inline]
    pub fn num_edges(&self) -> usize {
        self.neighbors.len() / 2
    }

    /// Degree `δ_v` of node `v`.
    #[inline]
    pub fn degree(&self, v: NodeId) -> usize {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    /// Maximum degree `Δ` over all nodes.
    pub fn max_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|i| self.degree(NodeId(i as u32)))
            .max()
            .unwrap_or(0)
    }

    /// A short human-readable label describing how the graph was generated.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Iterator over all node ids `0..n`.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.num_nodes() as u32).map(NodeId)
    }

    /// Iterator over the valid ports `1..=δ_v` at node `v`.
    pub fn ports(&self, v: NodeId) -> impl Iterator<Item = Port> + '_ {
        (1..=self.degree(v) as u32).map(Port)
    }

    /// The neighbor reached by leaving `v` through port `p` (the paper's
    /// `N(v, p)`).
    ///
    /// # Panics
    /// Panics if `p` is not a valid port at `v`.
    #[inline]
    pub fn neighbor(&self, v: NodeId, p: Port) -> NodeId {
        let base = self.offsets[v.index()];
        assert!(
            p.offset() < self.degree(v),
            "port {p} out of range at node {v} (degree {})",
            self.degree(v)
        );
        self.neighbors[base + p.offset()]
    }

    /// Traverse the edge leaving `v` through port `p`.
    ///
    /// Returns the node reached and the **incoming port** at that node, i.e.
    /// the port an arriving agent would observe as its `pin` value.
    #[inline]
    pub fn traverse(&self, v: NodeId, p: Port) -> (NodeId, Port) {
        let base = self.offsets[v.index()];
        assert!(
            p.offset() < self.degree(v),
            "port {p} out of range at node {v} (degree {})",
            self.degree(v)
        );
        (
            self.neighbors[base + p.offset()],
            self.back_ports[base + p.offset()],
        )
    }

    /// Hot-path [`traverse`](PortGraph::traverse): identical results for
    /// every valid `(v, p)`, but port validity is the *caller's* contract —
    /// checked only by `debug_assert!`, so release builds carry no panicking
    /// range test. The simulator validates the port once against
    /// [`degree`](PortGraph::degree) and then calls this.
    #[inline]
    pub fn traverse_fast(&self, v: NodeId, p: Port) -> (NodeId, Port) {
        debug_assert!(
            p.0 >= 1 && p.offset() < self.degree(v),
            "port {p} out of range at node {v} (degree {})",
            self.degree(v)
        );
        let i = self.offsets[v.index()] + p.offset();
        (self.neighbors[i], self.back_ports[i])
    }

    /// All neighbors of `v`, in port order.
    pub fn neighbors_of(&self, v: NodeId) -> &[NodeId] {
        &self.neighbors[self.offsets[v.index()]..self.offsets[v.index() + 1]]
    }

    /// The port at `v` leading to `u`, if `{v, u}` is an edge (the paper's
    /// `p_v(u)`). Linear in `δ_v`.
    pub fn port_to(&self, v: NodeId, u: NodeId) -> Option<Port> {
        self.neighbors_of(v)
            .iter()
            .position(|&w| w == u)
            .map(Port::from_offset)
    }

    /// Whether `{u, v}` is an edge.
    pub fn has_edge(&self, u: NodeId, v: NodeId) -> bool {
        self.port_to(u, v).is_some()
    }

    /// Iterate over every undirected edge once, as
    /// `(u, port_at_u, v, port_at_v)` with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (NodeId, Port, NodeId, Port)> + '_ {
        self.nodes().flat_map(move |u| {
            self.ports(u).filter_map(move |p| {
                let (v, q) = self.traverse(u, p);
                (u < v).then_some((u, p, v, q))
            })
        })
    }

    /// Sum of all degrees (= 2m).
    pub fn degree_sum(&self) -> usize {
        self.neighbors.len()
    }

    /// Minimum degree over all nodes.
    pub fn min_degree(&self) -> usize {
        (0..self.num_nodes())
            .map(|i| self.degree(NodeId(i as u32)))
            .min()
            .unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use crate::builder::GraphBuilder;
    use crate::ids::{NodeId, Port};

    fn triangle() -> crate::PortGraph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(NodeId(0), NodeId(1)).unwrap();
        b.add_edge(NodeId(1), NodeId(2)).unwrap();
        b.add_edge(NodeId(2), NodeId(0)).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn basic_counts() {
        let g = triangle();
        assert_eq!(g.num_nodes(), 3);
        assert_eq!(g.num_edges(), 3);
        assert_eq!(g.degree_sum(), 6);
        assert_eq!(g.max_degree(), 2);
        assert_eq!(g.min_degree(), 2);
    }

    #[test]
    fn traverse_is_involutive() {
        let g = triangle();
        for v in g.nodes() {
            for p in g.ports(v) {
                let (u, pin) = g.traverse(v, p);
                assert_ne!(u, v, "no self loops");
                let (back, back_pin) = g.traverse(u, pin);
                assert_eq!(back, v);
                assert_eq!(back_pin, p);
            }
        }
    }

    #[test]
    fn port_to_agrees_with_neighbor() {
        let g = triangle();
        for v in g.nodes() {
            for p in g.ports(v) {
                let u = g.neighbor(v, p);
                assert_eq!(g.port_to(v, u), Some(p));
                assert!(g.has_edge(v, u));
                assert!(g.has_edge(u, v));
            }
        }
        assert_eq!(g.port_to(NodeId(0), NodeId(0)), None);
    }

    #[test]
    fn edges_iterates_each_edge_once() {
        let g = triangle();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges.len(), 3);
        for (u, p, v, q) in edges {
            assert!(u < v);
            assert_eq!(g.traverse(u, p), (v, q));
            assert_eq!(g.traverse(v, q), (u, p));
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn invalid_port_panics() {
        let g = triangle();
        let _ = g.neighbor(NodeId(0), Port(3));
    }
}
