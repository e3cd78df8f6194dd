//! Randomized graph families and port-label permutation.

use crate::builder::{EdgeKeyHash, GraphBuilder};
use crate::graph::PortGraph;
use crate::ids::{NodeId, Port};
use disp_rng::prelude::*;
use std::collections::HashSet;

/// Uniform random labeled tree on `n ≥ 1` nodes (via a random Prüfer
/// sequence), deterministic for a given `seed`.
pub fn random_tree(n: usize, seed: u64) -> PortGraph {
    assert!(n >= 1, "random tree needs at least one node");
    let mut b = GraphBuilder::new(n).name(format!("rtree-{n}-s{seed}"));
    if n == 1 {
        return b.build().unwrap();
    }
    if n == 2 {
        b.add_edge(NodeId(0), NodeId(1)).unwrap();
        return b.build().unwrap();
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let prufer: Vec<usize> = (0..n - 2).map(|_| rng.random_range(0..n)).collect();
    let mut degree = vec![1usize; n];
    for &p in &prufer {
        degree[p] += 1;
    }
    // Standard Prüfer decoding.
    let mut ptr = 0usize;
    while degree[ptr] != 1 {
        ptr += 1;
    }
    let mut leaf = ptr;
    for &p in &prufer {
        b.add_edge(NodeId(leaf as u32), NodeId(p as u32)).unwrap();
        degree[p] -= 1;
        if degree[p] == 1 && p < ptr {
            leaf = p;
        } else {
            ptr += 1;
            while degree[ptr] != 1 {
                ptr += 1;
            }
            leaf = ptr;
        }
    }
    b.add_edge(NodeId(leaf as u32), NodeId((n - 1) as u32))
        .unwrap();
    b.build().unwrap()
}

/// Connected Erdős–Rényi graph `G(n, p)`: sample `G(n, p)`, then add a uniform
/// random spanning-tree edge set to guarantee connectivity. Deterministic for
/// a given `seed`.
pub fn erdos_renyi_connected(n: usize, p: f64, seed: u64) -> PortGraph {
    assert!(n >= 1, "Erdős–Rényi graph needs at least one node");
    assert!(
        (0.0..=1.0).contains(&p),
        "edge probability must be in [0, 1]"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let mut b = GraphBuilder::new(n).name(format!("er-{n}-p{p}-s{seed}"));
    // Random spanning tree first (random permutation + random attachment)
    // guarantees connectivity without skewing the degree distribution much.
    let n32 = n as u32;
    let mut order: Vec<u32> = (0..n32).collect();
    order.shuffle(&mut rng);
    let mut tree: Vec<(u32, u32)> = Vec::with_capacity(n);
    for i in 1..n {
        let j = rng.random_range(0..i);
        let (u, v) = (order[i], order[j]);
        b.add_edge(NodeId(u), NodeId(v)).unwrap();
        tree.push((u.min(v), u.max(v)));
    }
    // Every pair is visited once, so when a pair comes up the only edge
    // that can already exist is a tree edge. Each row `u` is drawn in runs
    // between its tree neighbors (from the sorted tree list, closed by a
    // sentinel no row matches): one coin per other pair, none for a tree
    // pair, and no edge-set probe at all.
    tree.sort_unstable();
    tree.push((n32, n32));
    let coin = Bernoulli::new(p);
    let mut next = 0;
    for u in 0..n32 {
        let mut from = u + 1;
        while from < n32 {
            let to = if tree[next].0 == u {
                next += 1;
                tree[next - 1].1
            } else {
                n32
            };
            for v in from..to {
                if coin.sample(&mut rng) {
                    b.add_edge(NodeId(u), NodeId(v)).unwrap();
                }
            }
            from = to + 1;
        }
    }
    b.build().unwrap()
}

/// Random `d`-regular simple connected graph on `n` nodes via the
/// configuration model with rejection and retry. Requires `n·d` even,
/// `d < n`, and `d ≥ 2`. Deterministic for a given `seed`.
pub fn random_regular(n: usize, d: usize, seed: u64) -> PortGraph {
    assert!(d >= 2, "random regular graph needs degree ≥ 2");
    assert!(d < n, "degree must be smaller than node count");
    assert!((n * d).is_multiple_of(2), "n·d must be even");
    let mut rng = StdRng::seed_from_u64(seed);
    // Configuration model with edge-switch repair of self loops / parallel
    // edges, retried if the repaired graph ends up disconnected (rare for
    // d ≥ 2 on the sizes we use).
    for _attempt in 0..200u32 {
        if let Some(g) = try_random_regular(n, d, &mut rng, seed) {
            return g;
        }
    }
    panic!("failed to sample a simple connected {d}-regular graph on {n} nodes after 200 attempts");
}

fn try_random_regular(n: usize, d: usize, rng: &mut StdRng, seed: u64) -> Option<PortGraph> {
    let mut stubs: Vec<usize> = (0..n * d).map(|i| i / d).collect();
    stubs.shuffle(rng);
    let mut edges: Vec<(usize, usize)> = stubs.chunks_exact(2).map(|p| (p[0], p[1])).collect();
    let edge_key = |u: usize, v: usize| (u.min(v) as u32, u.max(v) as u32);
    let mut seen = HashSet::with_capacity_and_hasher(edges.len(), EdgeKeyHash);
    // Repair pass: repeatedly swap a bad edge with a random other edge.
    for _ in 0..(20 * edges.len() + 100) {
        seen.clear();
        let bad = edges
            .iter()
            .position(|&(u, v)| u == v || !seen.insert(edge_key(u, v)));
        let Some(i) = bad else { break };
        let j = rng.random_range(0..edges.len());
        if i == j {
            continue;
        }
        // Swap one endpoint of edge i with one endpoint of edge j.
        let (a, b) = edges[i];
        let (c, dd) = edges[j];
        edges[i] = (a, c);
        edges[j] = (b, dd);
    }
    let mut b = GraphBuilder::new(n).name(format!("rreg-{n}-d{d}-s{seed}"));
    for &(u, v) in &edges {
        if u == v || b.has_edge(NodeId(u as u32), NodeId(v as u32)) {
            return None; // repair did not converge; retry with a fresh pairing
        }
        b.add_edge(NodeId(u as u32), NodeId(v as u32)).ok()?;
    }
    b.build().ok()
}

/// Return a copy of `g` with the port labels at every node permuted by a
/// seeded random permutation.
///
/// The structure (node set, edge set) is unchanged; only the local labels
/// move. Algorithms that are correct on anonymous port-labeled graphs must
/// behave identically (up to which node each agent ends on) on the permuted
/// graph; tests use this to catch accidental dependence on construction
/// order.
pub fn permute_ports(g: &PortGraph, seed: u64) -> PortGraph {
    let mut rng = StdRng::seed_from_u64(seed);
    let n = g.num_nodes();
    // For each node, a permutation of its ports: perm[v][old_offset] = new_offset.
    let mut perms: Vec<Vec<usize>> = Vec::with_capacity(n);
    for v in g.nodes() {
        let d = g.degree(v);
        let mut p: Vec<usize> = (0..d).collect();
        p.shuffle(&mut rng);
        perms.push(p);
    }
    let mut offsets = vec![0usize; n + 1];
    for v in 0..n {
        offsets[v + 1] = offsets[v] + g.degree(NodeId(v as u32));
    }
    let total = offsets[n];
    let mut neighbors = vec![NodeId(0); total];
    let mut back_ports = vec![Port(1); total];
    for v in g.nodes() {
        for p in g.ports(v) {
            let (u, q) = g.traverse(v, p);
            let new_p = perms[v.index()][p.offset()];
            let new_q = perms[u.index()][q.offset()];
            neighbors[offsets[v.index()] + new_p] = u;
            back_ports[offsets[v.index()] + new_p] = Port::from_offset(new_q);
        }
    }
    PortGraph {
        offsets,
        neighbors,
        back_ports,
        name: format!("{}-permuted-s{}", g.name(), seed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::deterministic;
    use crate::properties;
    use crate::validate;

    #[test]
    fn random_tree_is_tree() {
        for seed in 0..5 {
            let g = random_tree(50, seed);
            validate::check_port_labeling(&g).unwrap();
            assert!(properties::is_tree(&g), "seed {seed} produced a non-tree");
        }
    }

    #[test]
    fn random_tree_small_sizes() {
        assert_eq!(random_tree(1, 0).num_nodes(), 1);
        let g2 = random_tree(2, 0);
        assert_eq!(g2.num_edges(), 1);
        let g3 = random_tree(3, 1);
        assert!(properties::is_tree(&g3));
    }

    #[test]
    fn random_tree_is_deterministic_per_seed() {
        let a = random_tree(40, 9);
        let b = random_tree(40, 9);
        let c = random_tree(40, 10);
        assert_eq!(a, b);
        assert_ne!(a, c);
    }

    #[test]
    fn erdos_renyi_is_connected_and_valid() {
        for seed in 0..5 {
            let g = erdos_renyi_connected(60, 0.05, seed);
            validate::check_port_labeling(&g).unwrap();
            assert!(properties::is_connected(&g));
            assert!(g.num_edges() >= 59);
        }
    }

    #[test]
    fn erdos_renyi_p_zero_is_a_tree() {
        let g = erdos_renyi_connected(30, 0.0, 3);
        assert!(properties::is_tree(&g));
    }

    #[test]
    fn erdos_renyi_p_one_is_complete() {
        let g = erdos_renyi_connected(12, 1.0, 3);
        assert_eq!(g.num_edges(), 12 * 11 / 2);
    }

    #[test]
    fn random_regular_degrees() {
        for &(n, d) in &[(20usize, 3usize), (24, 4), (30, 5)] {
            let g = random_regular(n, d, 11);
            validate::check_port_labeling(&g).unwrap();
            assert!(properties::is_connected(&g));
            assert_eq!(g.min_degree(), d);
            assert_eq!(g.max_degree(), d);
        }
    }

    #[test]
    fn permuted_ports_preserve_structure() {
        let g = deterministic::grid2d(5, 5);
        let h = permute_ports(&g, 99);
        validate::check_port_labeling(&h).unwrap();
        assert_eq!(g.num_nodes(), h.num_nodes());
        assert_eq!(g.num_edges(), h.num_edges());
        for v in g.nodes() {
            assert_eq!(g.degree(v), h.degree(v));
            let mut gn: Vec<_> = g.neighbors_of(v).to_vec();
            let mut hn: Vec<_> = h.neighbors_of(v).to_vec();
            gn.sort();
            hn.sort();
            assert_eq!(gn, hn, "neighbor sets must be preserved at {v}");
        }
    }

    #[test]
    fn permuted_ports_traverse_is_still_involutive() {
        let g = erdos_renyi_connected(25, 0.2, 5);
        let h = permute_ports(&g, 7);
        for v in h.nodes() {
            for p in h.ports(v) {
                let (u, pin) = h.traverse(v, p);
                assert_eq!(h.traverse(u, pin), (v, p));
            }
        }
    }
}
