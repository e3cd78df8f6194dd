//! Differential property suite for the [`EdgeLiveness`] overlay.
//!
//! Seeded-loop property tests (the workspace's proptest substitute) over
//! 400+ fuzzed kill/revive sequences: after every single mutation, the
//! overlay's live-degree / live-port / traverse answers must be
//! byte-identical to a **naive freshly-rebuilt CSR** of the surviving
//! edges — the `Θ(m)`-per-round implementation the overlay exists to
//! replace. "Identical" is precise: the overlay keeps base port numbers,
//! the rebuild renumbers surviving ports compactly in base order, and the
//! rank map between the two must commute with `traverse` (including the
//! back-port an agent observes as `pin`), the rebuilt labeling must stay a
//! port involution, and half-edge liveness must stay symmetric. Covered on
//! every CSR scale family (line, ring, star, random tree) *and* every
//! implicit family (complete, hypercube, torus) through the same API.

use disp_graph::generators::GraphFamily;
use disp_graph::{EdgeLiveness, NodeId, Port, Topology};
use disp_rng::prelude::*;

/// The naive rebuild: CSR arrays of the surviving edges, surviving ports
/// renumbered `1..=live_deg` in base-port order.
struct NaiveCsr {
    offsets: Vec<usize>,
    neighbors: Vec<NodeId>,
    back_ports: Vec<Port>,
    /// `rank[v][base_port_offset]` = compacted port at `v`, or `None` if
    /// that base port is currently dead.
    rank: Vec<Vec<Option<Port>>>,
}

impl NaiveCsr {
    fn rebuild(topo: &Topology, live: &EdgeLiveness) -> NaiveCsr {
        let n = topo.num_nodes();
        let mut rank: Vec<Vec<Option<Port>>> = Vec::with_capacity(n);
        for v in topo.nodes() {
            let mut next = 0u32;
            rank.push(
                topo.ports(v)
                    .map(|p| {
                        live.is_alive(topo, v, p).then(|| {
                            next += 1;
                            Port(next)
                        })
                    })
                    .collect(),
            );
        }
        let mut offsets = Vec::with_capacity(n + 1);
        let mut neighbors = Vec::new();
        let mut back_ports = Vec::new();
        offsets.push(0usize);
        for v in topo.nodes() {
            for p in topo.ports(v) {
                if rank[v.index()][p.offset()].is_none() {
                    continue;
                }
                let (u, pin) = topo.traverse(v, p);
                neighbors.push(u);
                back_ports.push(
                    rank[u.index()][pin.offset()]
                        .expect("surviving edge must survive at both endpoints"),
                );
            }
            offsets.push(neighbors.len());
        }
        NaiveCsr {
            offsets,
            neighbors,
            back_ports,
            rank,
        }
    }

    fn degree(&self, v: NodeId) -> usize {
        self.offsets[v.index() + 1] - self.offsets[v.index()]
    }

    fn traverse(&self, v: NodeId, p: Port) -> (NodeId, Port) {
        let slot = self.offsets[v.index()] + p.offset();
        (self.neighbors[slot], self.back_ports[slot])
    }
}

/// The full differential check of one world state.
fn check_equivalent(topo: &Topology, live: &EdgeLiveness, ctx: &str) {
    let naive = NaiveCsr::rebuild(topo, live);
    for v in topo.nodes() {
        // 1. Live degree answers match the rebuild.
        assert_eq!(
            live.live_degree(topo, v),
            naive.degree(v),
            "{ctx}: deg({v})"
        );
        // 2. The i-th live base port maps to compacted port i+1, and
        //    traversal commutes with the rank map — same neighbor, and the
        //    observed pin is exactly the compacted rank of the base pin.
        let live_ports: Vec<Port> = live.live_ports(topo, v).collect();
        assert_eq!(live_ports.len(), naive.degree(v), "{ctx}: ports({v})");
        for (i, &p) in live_ports.iter().enumerate() {
            assert_eq!(
                naive.rank[v.index()][p.offset()],
                Some(Port(i as u32 + 1)),
                "{ctx}: rank({v},{p})"
            );
            let (u, pin) = topo.traverse(v, p);
            let (nu, npin) = naive.traverse(v, Port(i as u32 + 1));
            assert_eq!(nu, u, "{ctx}: neighbor({v},{p})");
            assert_eq!(
                Some(npin),
                naive.rank[u.index()][pin.offset()],
                "{ctx}: pin({v},{p})"
            );
            // 3. Half-edge liveness is symmetric.
            assert!(live.is_alive(topo, u, pin), "{ctx}: asymmetric ({v},{p})");
        }
        // 4. The rebuilt labeling is still a port involution.
        for i in 1..=naive.degree(v) as u32 {
            let (u, pin) = naive.traverse(v, Port(i));
            assert_ne!(u, v, "{ctx}: self loop at {v}");
            assert_eq!(
                naive.traverse(u, pin),
                (v, Port(i)),
                "{ctx}: rebuilt not involutive at ({v},{i})"
            );
        }
    }
}

fn families() -> Vec<GraphFamily> {
    vec![
        GraphFamily::Line,
        GraphFamily::Ring,
        GraphFamily::Star,
        GraphFamily::RandomTree,
        GraphFamily::Complete,
        GraphFamily::Hypercube,
        GraphFamily::Torus,
    ]
}

#[test]
fn overlay_matches_naive_rebuild_over_400_fuzzed_sequences() {
    let mut sequences = 0usize;
    let mut mutations = 0usize;
    for (fi, family) in families().iter().enumerate() {
        for (ni, &n) in [6usize, 9, 16, 27].iter().enumerate() {
            for rep in 0..4u64 {
                let seed = mix(&[0x11FE_0001, fi as u64, ni as u64, rep]);
                let mut rng = StdRng::seed_from_u64(seed);
                let topo = family.instantiate_topology(n, seed);
                let mut live = EdgeLiveness::new(&topo);
                let ctx = format!("{family} n={n} rep={rep}");
                check_equivalent(&topo, &live, &ctx);
                // A killed-edge ledger so revive draws target real dead
                // edges (pure random (v,p) draws would rarely revive).
                let mut dead: Vec<(NodeId, Port)> = Vec::new();
                for op in 0..24 {
                    let revive = !dead.is_empty() && rng.random_bool(0.4);
                    if revive {
                        let i = rng.random_range(0..dead.len() as u64) as usize;
                        let (v, p) = dead.swap_remove(i);
                        assert!(live.revive(&topo, v, p), "{ctx}: ledger out of sync");
                    } else {
                        let v = NodeId(rng.random_range(0..topo.num_nodes() as u64) as u32);
                        let deg = topo.degree(v) as u64;
                        if deg == 0 {
                            continue;
                        }
                        let p = Port(rng.random_range(0..deg) as u32 + 1);
                        if live.kill(&topo, v, p) {
                            dead.push((v, p));
                        }
                    }
                    mutations += 1;
                    check_equivalent(&topo, &live, &format!("{ctx} op={op}"));
                }
                // Restore everything: the overlay must return to the base.
                for (v, p) in dead.drain(..) {
                    assert!(live.revive(&topo, v, p), "{ctx}: final revive");
                }
                assert_eq!(live.dead_edges(), 0, "{ctx}: not fully restored");
                for v in topo.nodes() {
                    assert_eq!(live.live_degree(&topo, v), topo.degree(v), "{ctx}: {v}");
                }
                check_equivalent(&topo, &live, &format!("{ctx} restored"));
                sequences += 1;
            }
        }
    }
    assert!(sequences >= 100, "only {sequences} sequences");
    assert!(
        mutations >= 400,
        "only {mutations} fuzzed mutations checked"
    );
}

#[test]
fn dynamic_ring_round_pattern_is_cheap_and_exact() {
    // The exact pattern the DynamicAdversary drives: one edge dies per
    // round, the previous one comes back — on a large ring, each round is
    // O(1) and the overlay never drifts from the two-ports-down state.
    let topo = GraphFamily::Ring.instantiate_topology(100_000, 1);
    let mut live = EdgeLiveness::new(&topo);
    let mut prev: Option<(NodeId, Port)> = None;
    for round in 0..1_000u64 {
        if let Some((v, p)) = prev.take() {
            assert!(live.revive(&topo, v, p));
        }
        let v = NodeId((mix(&[0xD11A, round]) % 100_000) as u32);
        let p = Port((mix(&[0xD11B, round]) % 2) as u32 + 1);
        assert!(live.kill(&topo, v, p));
        assert_eq!(live.dead_edges(), 1);
        assert_eq!(live.live_degree(&topo, v), 1);
        prev = Some((v, p));
    }
    let (v, p) = prev.unwrap();
    live.revive(&topo, v, p);
    assert_eq!(live.dead_edges(), 0);
}
