//! Edge-liveness overlay: dynamic worlds without touching the base graph.
//!
//! The dynamic-graph models of the dispersion literature (e.g. the dynamic
//! ring of arXiv 2408.12220, where an adversary removes one edge per round
//! and restores it the next) need a topology whose edge set changes every
//! round. Rebuilding a CSR graph per round is `Θ(m)` — hopeless at the
//! `n = 10^5..10^6` scale the campaigns run — and renumbering ports would
//! invalidate every port an agent has memorized.
//!
//! [`EdgeLiveness`] solves both: the immutable [`Topology`] base stays
//! untouched (port numbering included), while a compact overlay records
//! which edges are currently *dead*. [`EdgeLiveness::kill`] and
//! [`EdgeLiveness::revive`] flip both half-edges of an undirected edge in
//! O(1), and "is port `p` usable" is an O(1) read. "How many usable ports
//! does `v` have right now" is computed on demand — a popcount over the
//! node's slot range (dense) or a scan of the tiny dead set (sparse) —
//! rather than maintained as a counter array: kill/revive run at *every
//! round boundary* of a dynamic run, so they must stay pure bit flips,
//! while live-degree reads come from verifiers and tests only.
//!
//! Two representations back the same API:
//!
//! * **Dense** (CSR bases): one bit per half-edge — `2m` bits, indexed by
//!   the base CSR's own prefix-sum offsets (no duplicate table).
//! * **Sparse** (implicit bases — complete/hypercube/torus): a hash set of
//!   *dead* half-edges. Implicit families exist precisely because `Θ(m)`
//!   storage is unaffordable there, and at any instant only a handful of
//!   edges are dead, so the overlay must be proportional to the *dead* set.
//!   The set is probed on the movement path and only ever *counted* (an
//!   order-independent scan) for live-degree reads, so determinism is
//!   unaffected by hash order.
//!
//! The differential suite in `tests/proptest_liveness.rs` proves the
//! overlay equivalent to a naive freshly-rebuilt CSR of the surviving
//! edges after arbitrary kill/revive sequences, on all graph families.

use crate::ids::{NodeId, Port};
use crate::topology::Topology;
use std::collections::HashSet;

/// Compact liveness overlay over an immutable [`Topology`].
///
/// All methods take the base topology as an argument (rather than holding a
/// reference) so the overlay can live alongside the topology inside one
/// owning struct (the simulator's `World`) without self-references.
#[derive(Clone, Debug)]
pub struct EdgeLiveness {
    repr: Repr,
    /// Count of dead *half*-edges (always even).
    dead_half_edges: usize,
}

#[derive(Clone, Debug)]
enum Repr {
    /// One bit per half-edge (set = dead). Slots are indexed by the base
    /// CSR's *own* prefix-sum table (`offsets[v] + (p-1)`), not a private
    /// copy: the movement path and the fault adversaries have the graph's
    /// offsets line in cache already, so sharing it keeps the overlay's
    /// per-probe cost to one extra bit load.
    Dense { bits: Vec<u64> },
    /// Encoded dead half-edges (`v << 32 | p`).
    Sparse(HashSet<u64>),
}

#[inline]
fn encode(v: NodeId, p: Port) -> u64 {
    ((v.0 as u64) << 32) | p.0 as u64
}

/// Slot of half-edge `(v, p)` in the dense bitvec: the base CSR's own
/// prefix-sum offset plus the port offset.
#[inline]
fn dense_slot(topo: &Topology, v: NodeId, p: Port) -> usize {
    match topo {
        Topology::Csr(g) => g.offsets[v.index()] + p.offset(),
        _ => unreachable!("dense liveness overlays only back CSR topologies"),
    }
}

impl EdgeLiveness {
    /// A fully-alive overlay for `topo`. `Θ(m)` *bits* for CSR bases,
    /// `O(1)` for implicit bases (dead-edge storage grows with the dead
    /// set only).
    pub fn new(topo: &Topology) -> EdgeLiveness {
        let repr = match topo {
            Topology::Csr(g) => Repr::Dense {
                bits: vec![0u64; g.degree_sum().div_ceil(64)],
            },
            _ => Repr::Sparse(HashSet::new()),
        };
        EdgeLiveness {
            repr,
            dead_half_edges: 0,
        }
    }

    #[inline]
    fn slot_dead(&self, topo: &Topology, v: NodeId, p: Port) -> bool {
        match &self.repr {
            Repr::Dense { bits } => {
                let slot = dense_slot(topo, v, p);
                bits[slot / 64] & (1u64 << (slot % 64)) != 0
            }
            Repr::Sparse(dead) => dead.contains(&encode(v, p)),
        }
    }

    /// Mark half-edge `(v, p)` dead; returns whether it was alive before.
    fn set_dead(&mut self, topo: &Topology, v: NodeId, p: Port) -> bool {
        match &mut self.repr {
            Repr::Dense { bits } => {
                let slot = dense_slot(topo, v, p);
                let (word, mask) = (slot / 64, 1u64 << (slot % 64));
                let was_alive = bits[word] & mask == 0;
                bits[word] |= mask;
                was_alive
            }
            Repr::Sparse(dead) => dead.insert(encode(v, p)),
        }
    }

    /// Mark half-edge `(v, p)` alive; returns whether it was dead before.
    fn set_alive(&mut self, topo: &Topology, v: NodeId, p: Port) -> bool {
        match &mut self.repr {
            Repr::Dense { bits } => {
                let slot = dense_slot(topo, v, p);
                let (word, mask) = (slot / 64, 1u64 << (slot % 64));
                let was_dead = bits[word] & mask != 0;
                bits[word] &= !mask;
                was_dead
            }
            Repr::Sparse(dead) => dead.remove(&encode(v, p)),
        }
    }

    /// Whether the edge behind port `p` at node `v` is currently alive.
    ///
    /// # Panics
    /// Panics if `p` is not a valid port at `v` in the base topology
    /// (liveness never changes the port universe, only its usability).
    #[inline]
    pub fn is_alive(&self, topo: &Topology, v: NodeId, p: Port) -> bool {
        assert!(
            p.0 >= 1 && p.offset() < topo.degree(v),
            "port {p} out of range at node {v} (degree {})",
            topo.degree(v)
        );
        !self.slot_dead(topo, v, p)
    }

    /// Kill the undirected edge leaving `v` through port `p` (both
    /// half-edges flip, both endpoints' live degrees drop). Returns `true`
    /// if the edge was alive, `false` if it was already dead (a no-op).
    ///
    /// # Panics
    /// Panics if `p` is not a valid port at `v` in the base topology.
    pub fn kill(&mut self, topo: &Topology, v: NodeId, p: Port) -> bool {
        let (u, pin) = topo.traverse(v, p);
        if !self.set_dead(topo, v, p) {
            return false;
        }
        let flipped = self.set_dead(topo, u, pin);
        debug_assert!(flipped, "half-edges out of sync at ({v},{p})↔({u},{pin})");
        self.dead_half_edges += 2;
        true
    }

    /// Restore the undirected edge leaving `v` through port `p`. Returns
    /// `true` if the edge was dead, `false` if it was already alive (a
    /// no-op).
    ///
    /// # Panics
    /// Panics if `p` is not a valid port at `v` in the base topology.
    pub fn revive(&mut self, topo: &Topology, v: NodeId, p: Port) -> bool {
        let (u, pin) = topo.traverse(v, p);
        if !self.set_alive(topo, v, p) {
            return false;
        }
        let flipped = self.set_alive(topo, u, pin);
        debug_assert!(flipped, "half-edges out of sync at ({v},{p})↔({u},{pin})");
        self.dead_half_edges -= 2;
        true
    }

    /// Current live degree of `v`: base degree minus incident dead edges.
    /// Computed on demand — `O(δ_v / 64)` for dense bases (a popcount over
    /// the node's slot range), `O(dead)` for sparse ones (a scan of the
    /// dead set, whose size the fault models keep tiny) — so the per-round
    /// kill/revive path never maintains a counter array.
    pub fn live_degree(&self, topo: &Topology, v: NodeId) -> usize {
        let degree = topo.degree(v);
        let dead_here = match &self.repr {
            Repr::Dense { bits } => {
                let start = dense_slot(topo, v, Port(1));
                let end = start + degree;
                let mut count = 0usize;
                let mut slot = start;
                while slot < end {
                    let word = slot / 64;
                    let lo = slot % 64;
                    let span = (end - slot).min(64 - lo);
                    let mask = if span == 64 {
                        u64::MAX
                    } else {
                        ((1u64 << span) - 1) << lo
                    };
                    count += (bits[word] & mask).count_ones() as usize;
                    slot += span;
                }
                count
            }
            // Order-independent count, so hash iteration order is harmless.
            Repr::Sparse(dead) => dead.iter().filter(|&&e| (e >> 32) == v.0 as u64).count(),
        };
        degree - dead_here
    }

    /// Number of currently-dead undirected edges.
    #[inline]
    pub fn dead_edges(&self) -> usize {
        self.dead_half_edges / 2
    }

    /// Iterator over the currently-live ports at `v`, in base port order.
    /// Port numbers are the *base* labels (they never renumber); the `i`-th
    /// yielded port corresponds to port `i+1` of a compacted rebuild of the
    /// surviving graph.
    pub fn live_ports<'a>(
        &'a self,
        topo: &'a Topology,
        v: NodeId,
    ) -> impl Iterator<Item = Port> + 'a {
        topo.ports(v).filter(move |&p| !self.slot_dead(topo, v, p))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn kill_and_revive_flip_both_half_edges_and_degrees() {
        let topo = Topology::from(generators::ring(6));
        let mut live = EdgeLiveness::new(&topo);
        assert_eq!(live.dead_edges(), 0);
        let (v, p) = (NodeId(2), Port(2)); // edge 2–3
        let (u, pin) = topo.traverse(v, p);
        assert!(live.kill(&topo, v, p));
        assert!(!live.is_alive(&topo, v, p));
        assert!(!live.is_alive(&topo, u, pin));
        assert_eq!(live.live_degree(&topo, v), 1);
        assert_eq!(live.live_degree(&topo, u), 1);
        assert_eq!(live.dead_edges(), 1);
        // Idempotent kill, then revive from the *other* endpoint.
        assert!(!live.kill(&topo, v, p));
        assert!(live.revive(&topo, u, pin));
        assert!(live.is_alive(&topo, v, p));
        assert_eq!(live.live_degree(&topo, v), 2);
        assert_eq!(live.dead_edges(), 0);
        assert!(!live.revive(&topo, v, p));
    }

    #[test]
    fn implicit_families_use_the_sparse_overlay() {
        let topo = Topology::complete(1_000_000);
        // Θ(m) storage would OOM here; construction must stay O(n).
        let mut live = EdgeLiveness::new(&topo);
        let (v, p) = (NodeId(17), Port(123));
        assert!(live.kill(&topo, v, p));
        assert!(!live.is_alive(&topo, v, p));
        assert_eq!(live.live_degree(&topo, v), 999_998);
        let (u, pin) = topo.traverse(v, p);
        assert!(!live.is_alive(&topo, u, pin));
        assert!(live.revive(&topo, v, p));
        assert_eq!(live.dead_edges(), 0);
    }

    #[test]
    fn live_ports_preserve_base_numbering() {
        let topo = Topology::from(generators::star(5));
        let mut live = EdgeLiveness::new(&topo);
        live.kill(&topo, NodeId(0), Port(2));
        let ports: Vec<Port> = live.live_ports(&topo, NodeId(0)).collect();
        assert_eq!(ports, vec![Port(1), Port(3), Port(4)]);
        assert_eq!(live.live_degree(&topo, NodeId(0)), 3);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn liveness_rejects_invalid_ports() {
        let topo = Topology::from(generators::ring(4));
        let live = EdgeLiveness::new(&topo);
        let _ = live.is_alive(&topo, NodeId(0), Port(3));
    }
}
