//! Initial-placement families: how the `k` agents are laid out on the graph
//! before the first activation.
//!
//! The paper's experiments only ever start *rooted* (all agents on one
//! node), but the surrounding literature runs the same algorithms from
//! scattered and clustered starts. A [`Placement`] is the value-level,
//! seed-deterministic description of such a start configuration: the same
//! `(placement, graph, k, seed)` always produces the same position vector,
//! which is what lets the campaign engine reproduce trials byte-for-byte
//! from recorded seeds.

use disp_graph::{NodeId, Topology};
use disp_rng::prelude::*;

/// A named, parameterized family of initial configurations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Placement {
    /// All `k` agents start on node 0 — the paper's rooted configuration.
    Rooted,
    /// Each agent starts at an independently, uniformly drawn node
    /// (seeded, **with** replacement — collisions form multi-agent groups,
    /// the general configuration of Kshemkalyani et al.). Note that
    /// sampling *without* replacement would already be a valid dispersion.
    ScatteredUniform,
    /// Agents split round-robin across `clusters` distinct, uniformly drawn
    /// camp nodes (seeded). `cluster1` is a rooted start at a random node.
    Clustered {
        /// Number of camps the agents are divided into (≥ 1).
        clusters: usize,
    },
    /// The adversarial two-camp configuration: agents split evenly across
    /// two nodes at (approximately) diametral BFS distance — found by a
    /// seeded double sweep, ties to the smallest node id — so the camps'
    /// DFS territories must interleave across the whole graph.
    AdversarialSpread,
}

impl Placement {
    /// Canonical label (part of the scenario-label grammar): `rooted`,
    /// `scatter`, `cluster<c>`, `spread`.
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// Inverse of [`Placement::label`].
    pub fn from_label(label: &str) -> Option<Placement> {
        match label {
            "rooted" => Some(Placement::Rooted),
            "scatter" => Some(Placement::ScatteredUniform),
            "spread" => Some(Placement::AdversarialSpread),
            _ => {
                let digits = label.strip_prefix("cluster")?;
                let clusters: usize = digits.parse().ok().filter(|&c| c >= 1)?;
                // Canonical integers only ("cluster04", "cluster+4" are
                // rejected) — placement labels stay a bijection.
                (clusters.to_string() == digits).then_some(Placement::Clustered { clusters })
            }
        }
    }

    /// Whether every agent starts on the same node (what the paper's rooted
    /// algorithms require).
    pub fn is_rooted(&self) -> bool {
        matches!(
            *self,
            Placement::Rooted | Placement::Clustered { clusters: 1 }
        )
    }

    /// One representative of every placement family, in report order.
    pub fn all() -> Vec<Placement> {
        vec![
            Placement::Rooted,
            Placement::ScatteredUniform,
            Placement::Clustered { clusters: 4 },
            Placement::AdversarialSpread,
        ]
    }

    /// The start node of every agent (`positions[i]` is agent `i`'s node),
    /// fully determined by `(self, graph, k, seed)`.
    ///
    /// # Panics
    /// Panics if `k == 0` or `k > n` (the dispersion model requires
    /// `k ≤ n`).
    pub fn positions(&self, graph: &Topology, k: usize, seed: u64) -> Vec<NodeId> {
        let n = graph.num_nodes();
        assert!(k >= 1, "a placement needs at least one agent");
        assert!(
            k <= n,
            "placement {} requires k ≤ n (got k={k}, n={n})",
            self.label()
        );
        match *self {
            Placement::Rooted => vec![NodeId(0); k],
            Placement::ScatteredUniform => {
                let mut rng = StdRng::seed_from_u64(seed);
                (0..k)
                    .map(|_| NodeId(rng.random_range(0..n as u64) as u32))
                    .collect()
            }
            Placement::Clustered { clusters } => {
                let camps = clusters.clamp(1, k.min(n));
                let centers = sample_distinct(n, camps, seed);
                (0..k).map(|i| NodeId(centers[i % camps] as u32)).collect()
            }
            Placement::AdversarialSpread => two_diametral_camps(graph, k, seed),
        }
    }
}

/// Writes the canonical label ([`Placement::label`]).
impl std::fmt::Display for Placement {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Placement::Rooted => f.write_str("rooted"),
            Placement::ScatteredUniform => f.write_str("scatter"),
            Placement::Clustered { clusters } => write!(f, "cluster{clusters}"),
            Placement::AdversarialSpread => f.write_str("spread"),
        }
    }
}

/// `count` distinct values from `0..n`, uniformly, via a partial
/// Fisher–Yates shuffle (order matters: the draw order is part of the
/// deterministic contract).
fn sample_distinct(n: usize, count: usize, seed: u64) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut pool: Vec<usize> = (0..n).collect();
    for i in 0..count {
        let j = rng.random_range(i as u64..n as u64) as usize;
        pool.swap(i, j);
    }
    pool.truncate(count);
    pool
}

/// The two-camp adversarial start: a seeded double sweep (farthest node
/// from a random start, then farthest node from that) lands on an
/// approximately diametral node pair; agents alternate between the camps.
fn two_diametral_camps(graph: &Topology, k: usize, seed: u64) -> Vec<NodeId> {
    let n = graph.num_nodes();
    let mut rng = StdRng::seed_from_u64(seed);
    let start = NodeId(rng.random_range(0..n as u64) as u32);
    let a = farthest_from(graph, start);
    let b = farthest_from(graph, a);
    (0..k).map(|i| if i % 2 == 0 { a } else { b }).collect()
}

/// The node at maximum BFS distance from `v` (ties to the smallest id).
fn farthest_from(graph: &Topology, v: NodeId) -> NodeId {
    let dist = bfs_from(graph, v);
    let far = (0..graph.num_nodes())
        .filter(|&u| dist[u] != usize::MAX)
        .max_by_key(|&u| (dist[u], std::cmp::Reverse(u)))
        .expect("graphs are non-empty");
    NodeId(far as u32)
}

/// BFS distances on a connected graph (unreachable nodes get `usize::MAX`
/// so they are never preferred).
fn bfs_from(graph: &Topology, start: NodeId) -> Vec<usize> {
    let n = graph.num_nodes();
    let mut dist = vec![usize::MAX; n];
    dist[start.index()] = 0;
    let mut queue = std::collections::VecDeque::from([start]);
    while let Some(v) = queue.pop_front() {
        let dv = dist[v.index()];
        for port in 1..=graph.degree(v) {
            let (u, _) = graph.traverse(v, disp_graph::Port(port as u32));
            if dist[u.index()] == usize::MAX {
                dist[u.index()] = dv + 1;
                queue.push_back(u);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::AgentId;
    use disp_graph::generators;

    /// Agents grouped by start node, in node order.
    fn occupied_nodes(positions: &[NodeId]) -> Vec<(NodeId, Vec<AgentId>)> {
        let mut groups: std::collections::BTreeMap<u32, Vec<AgentId>> = Default::default();
        for (i, &v) in positions.iter().enumerate() {
            groups.entry(v.0).or_default().push(AgentId(i as u32));
        }
        groups
            .into_iter()
            .map(|(v, agents)| (NodeId(v), agents))
            .collect()
    }

    fn graphs() -> Vec<Topology> {
        vec![
            generators::line(17).into(),
            generators::ring(12).into(),
            generators::star(20).into(),
            generators::grid2d(5, 5).into(),
            generators::random_tree(24, 3).into(),
            Topology::complete(16),
            Topology::torus(4, 5),
        ]
    }

    #[test]
    fn labels_round_trip() {
        for p in Placement::all() {
            assert_eq!(Placement::from_label(&p.label()), Some(p), "{p}");
        }
        assert_eq!(
            Placement::from_label("cluster7"),
            Some(Placement::Clustered { clusters: 7 })
        );
        assert_eq!(Placement::from_label("cluster0"), None);
        assert_eq!(Placement::from_label("cluster04"), None);
        assert_eq!(Placement::from_label("cluster+4"), None);
        assert_eq!(Placement::from_label("clusterx"), None);
        assert_eq!(Placement::from_label("nope"), None);
    }

    #[test]
    fn positions_are_valid_and_seed_deterministic() {
        for g in graphs() {
            for p in Placement::all() {
                for k in [1, 2, g.num_nodes() / 2, g.num_nodes()] {
                    let a = p.positions(&g, k, 42);
                    let b = p.positions(&g, k, 42);
                    let c = p.positions(&g, k, 43);
                    assert_eq!(a, b, "{p} on {} must be deterministic", g.name());
                    assert_eq!(a.len(), k);
                    assert!(a.iter().all(|v| v.index() < g.num_nodes()));
                    // A different seed may coincide for tiny/rooted cases but
                    // must not crash; for the seeded families at half
                    // occupancy it should actually move something. (The
                    // two-camp spread is exempt: the double sweep lands on
                    // the same diametral pair from almost every start.)
                    if k >= 4
                        && !p.is_rooted()
                        && p != Placement::AdversarialSpread
                        && k <= g.num_nodes() / 2
                    {
                        assert_ne!(a, c, "{p} on {} ignored its seed", g.name());
                    }
                }
            }
        }
    }

    #[test]
    fn rooted_stacks_everyone_on_node_zero() {
        let g = Topology::from(generators::ring(9));
        assert_eq!(Placement::Rooted.positions(&g, 4, 7), vec![NodeId(0); 4]);
        assert!(Placement::Rooted.is_rooted());
        assert!(Placement::Clustered { clusters: 1 }.is_rooted());
        assert!(!Placement::ScatteredUniform.is_rooted());
    }

    #[test]
    fn scattered_draws_with_replacement() {
        // Independent uniform draws collide (birthday bound): the start is
        // a *general* configuration with multi-agent groups, not an
        // already-valid dispersion. 30 iid draws over 36 nodes leave
        // distinct-node probability < 2e-7, so any seed works here.
        let g = Topology::from(generators::grid2d(6, 6));
        let pos = Placement::ScatteredUniform.positions(&g, 30, 5);
        let mut nodes: Vec<_> = pos.iter().map(|v| v.index()).collect();
        nodes.sort_unstable();
        nodes.dedup();
        assert!(
            nodes.len() < 30,
            "iid uniform draws should produce at least one collision"
        );
        assert!(nodes.len() > 10, "but not collapse onto a few nodes");
    }

    #[test]
    fn clustered_uses_exactly_the_camp_count() {
        let g = Topology::from(generators::grid2d(6, 6));
        let pos = Placement::Clustered { clusters: 4 }.positions(&g, 19, 11);
        let groups = occupied_nodes(&pos);
        assert_eq!(groups.len(), 4);
        // Round-robin assignment balances camps within one agent.
        let sizes: Vec<usize> = groups.iter().map(|(_, a)| a.len()).collect();
        assert!(sizes.iter().all(|&s| s == 4 || s == 5), "{sizes:?}");
        // More camps than agents degrades to one agent per camp.
        let few = Placement::Clustered { clusters: 9 }.positions(&g, 3, 11);
        assert_eq!(occupied_nodes(&few).len(), 3);
    }

    #[test]
    fn spread_forms_two_camps_at_diametral_distance() {
        let g = Topology::from(generators::line(21));
        for seed in [0, 9, 77] {
            let pos = Placement::AdversarialSpread.positions(&g, 9, seed);
            let groups = occupied_nodes(&pos);
            // On a line the double sweep always lands on the endpoints,
            // whatever the seeded start was.
            let camps: Vec<usize> = groups.iter().map(|(v, _)| v.index()).collect();
            assert_eq!(camps, vec![0, 20], "seed {seed}");
            let sizes: Vec<usize> = groups.iter().map(|(_, a)| a.len()).collect();
            assert_eq!(sizes.iter().sum::<usize>(), 9);
            assert!(sizes.iter().all(|&s| s == 4 || s == 5), "{sizes:?}");
        }
    }

    #[test]
    #[should_panic(expected = "k ≤ n")]
    fn too_many_agents_rejected() {
        let g = Topology::from(generators::ring(4));
        let _ = Placement::ScatteredUniform.positions(&g, 5, 0);
    }
}
