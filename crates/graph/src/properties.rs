//! Structural properties: BFS distances, connectivity, diameter, trees.

use crate::graph::PortGraph;
use crate::ids::NodeId;
use std::collections::VecDeque;

/// Number of nodes reachable from `start` (including `start`).
///
/// Runs on every `GraphBuilder::build`, so it traverses with a flat seen
/// bitmap and a grow-only visit stack instead of paying for the per-node
/// `Option<usize>` distances that [`bfs_distances`] materializes.
pub fn reachable_from(g: &PortGraph, start: NodeId) -> usize {
    let mut seen = vec![false; g.num_nodes()];
    let mut stack = vec![start];
    seen[start.index()] = true;
    let mut count = 1usize;
    while let Some(v) = stack.pop() {
        for &u in g.neighbors_of(v) {
            if !seen[u.index()] {
                seen[u.index()] = true;
                count += 1;
                stack.push(u);
            }
        }
    }
    count
}

/// Whether the graph is connected.
pub fn is_connected(g: &PortGraph) -> bool {
    g.num_nodes() > 0 && reachable_from(g, NodeId(0)) == g.num_nodes()
}

/// BFS distances from `start`; `None` for unreachable nodes.
pub fn bfs_distances(g: &PortGraph, start: NodeId) -> Vec<Option<usize>> {
    let mut dist = vec![None; g.num_nodes()];
    let mut queue = VecDeque::new();
    dist[start.index()] = Some(0);
    queue.push_back(start);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()].expect("queued nodes have a distance");
        for &u in g.neighbors_of(v) {
            if dist[u.index()].is_none() {
                dist[u.index()] = Some(dv + 1);
                queue.push_back(u);
            }
        }
    }
    dist
}

/// Eccentricity of `v`: the largest BFS distance from `v` to any node.
///
/// Returns `None` if some node is unreachable from `v`.
pub fn eccentricity(g: &PortGraph, v: NodeId) -> Option<usize> {
    let dist = bfs_distances(g, v);
    dist.iter()
        .copied()
        .collect::<Option<Vec<_>>>()
        .map(|ds| ds.into_iter().max().unwrap_or(0))
}

/// Exact diameter by running a BFS from every node. `O(n·m)`; intended for
/// the graph sizes used in tests and experiments.
pub fn diameter(g: &PortGraph) -> Option<usize> {
    let mut best = 0usize;
    for v in g.nodes() {
        best = best.max(eccentricity(g, v)?);
    }
    Some(best)
}

/// Fast diameter *lower bound* via a double BFS sweep (exact on trees).
pub fn diameter_double_sweep(g: &PortGraph) -> Option<usize> {
    if g.num_nodes() == 0 {
        return None;
    }
    let d0 = bfs_distances(g, NodeId(0));
    let far = argmax(&d0)?;
    let d1 = bfs_distances(g, far);
    let far2 = argmax(&d1)?;
    d1[far2.index()]
}

fn argmax(dist: &[Option<usize>]) -> Option<NodeId> {
    let mut best: Option<(usize, usize)> = None;
    for (i, d) in dist.iter().enumerate() {
        let d = (*d)?;
        if best.map(|(_, bd)| d > bd).unwrap_or(true) {
            best = Some((i, d));
        }
    }
    best.map(|(i, _)| NodeId(i as u32))
}

/// Whether the graph is a tree (connected with `m = n - 1`).
pub fn is_tree(g: &PortGraph) -> bool {
    is_connected(g) && g.num_edges() + 1 == g.num_nodes()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn line_distances_and_diameter() {
        let g = generators::line(10);
        let d = bfs_distances(&g, NodeId(0));
        for (i, di) in d.iter().enumerate() {
            assert_eq!(*di, Some(i));
        }
        assert_eq!(diameter(&g), Some(9));
        assert_eq!(diameter_double_sweep(&g), Some(9));
        assert!(is_tree(&g));
    }

    #[test]
    fn ring_diameter() {
        let g = generators::ring(10);
        assert_eq!(diameter(&g), Some(5));
        assert!(!is_tree(&g));
        assert!(is_connected(&g));
    }

    #[test]
    fn complete_graph_diameter_is_one() {
        let g = generators::complete(6);
        assert_eq!(diameter(&g), Some(1));
    }

    #[test]
    fn star_eccentricities() {
        let g = generators::star(9); // center + 8 leaves
        assert_eq!(eccentricity(&g, NodeId(0)), Some(1));
        assert_eq!(eccentricity(&g, NodeId(1)), Some(2));
        assert_eq!(diameter(&g), Some(2));
        assert!(is_tree(&g));
    }

    #[test]
    fn double_sweep_is_exact_on_trees() {
        let g = generators::random_tree(64, 42);
        assert_eq!(diameter(&g), diameter_double_sweep(&g));
    }

    #[test]
    fn double_sweep_lower_bounds_diameter() {
        let g = generators::erdos_renyi_connected(40, 0.15, 7);
        let exact = diameter(&g).unwrap();
        let sweep = diameter_double_sweep(&g).unwrap();
        assert!(sweep <= exact);
    }

    #[test]
    fn singleton_graph() {
        let g = crate::GraphBuilder::new(1).build().unwrap();
        assert_eq!(diameter(&g), Some(0));
        assert!(is_connected(&g));
        assert!(is_tree(&g));
    }
}
