//! The census the paper protocols keep of their agents (DESIGN.md §13.1).
//!
//! [`Census`] owns the role tags of `ks-dfs`, `probe-dfs` and `sync-seeker`
//! behind one write point, [`Census::set_tag`], which keeps the number of
//! agents per memory class (a coarse role whose footprint depends on `k`
//! and `Δ` only) exact, so each of the protocols' shared answers costs at
//! most `O(classes)`. [`Settlers`] is the `node → settler` index, a cache of
//! the locally observable "does this node host a settled agent";
//! `random-walk` uses it alone. The class named `"settled"` holds the
//! settled agents: [`Census::is_settled`] and the flight recorder key on it.

use disp_graph::{NodeId, Port};
use disp_sim::{AgentId, World};

/// The `None` of a packed port field: ports are 1-based, so `Port(0)` is
/// free.
pub(crate) const NO_PORT: Port = Port(0);

/// Decode a packed port field.
#[inline]
pub(crate) fn opt(p: Port) -> Option<Port> {
    (p != NO_PORT).then_some(p)
}

/// Encode a packed port field.
#[inline]
pub(crate) fn enc(p: Option<Port>) -> Port {
    p.unwrap_or(NO_PORT)
}

/// The role tags of `k` agents in `C` memory classes, their per-class
/// counts and footprints, and the settler index.
#[derive(Debug)]
pub(crate) struct Census<const C: usize> {
    tags: Vec<u8>,
    /// The memory class of each tag.
    class_of: [u8; 256],
    counts: [u32; C],
    /// Footprint per class, in bits.
    bits: [usize; C],
    names: &'static [&'static str; C],
    /// The class named `"settled"`.
    settled: usize,
    pub(crate) settlers: Settlers,
}

impl<const C: usize> Census<C> {
    /// A census of `world`'s agents with initial `tags`; `class` maps a
    /// tag to its memory class.
    pub(crate) fn new(
        world: &World,
        tags: Vec<u8>,
        class: impl Fn(u8) -> usize,
        names: &'static [&'static str; C],
        bits: [usize; C],
    ) -> Self {
        let class_of: [u8; 256] = std::array::from_fn(|t| class(t as u8) as u8);
        let mut counts = [0; C];
        for &t in &tags {
            counts[class_of[t as usize] as usize] += 1;
        }
        let settled = names.iter().position(|&n| n == "settled");
        Census {
            tags,
            class_of,
            counts,
            bits,
            names,
            settled: settled.expect("a settled class"),
            settlers: Settlers::new(world),
        }
    }

    fn class(&self, t: u8) -> usize {
        self.class_of[t as usize] as usize
    }

    pub(crate) fn tag(&self, i: usize) -> u8 {
        self.tags[i]
    }

    /// The one write point of the tags; keeps the per-class counts exact.
    pub(crate) fn set_tag(&mut self, i: usize, t: u8) {
        self.counts[self.class(self.tags[i])] -= 1;
        self.counts[self.class(t)] += 1;
        self.tags[i] = t;
    }

    /// Whether every agent holds a settlement claim.
    pub(crate) fn is_terminated(&self) -> bool {
        self.settlers.count() == self.tags.len()
    }

    pub(crate) fn is_settled(&self, agent: AgentId) -> bool {
        self.class(self.tags[agent.index()]) == self.settled
    }

    pub(crate) fn memory_bits(&self, agent: AgentId) -> usize {
        self.bits[self.class(self.tags[agent.index()])]
    }

    /// Exactly the maximum of [`Census::memory_bits`] over the agents.
    pub(crate) fn max_memory_bits(&self) -> Option<usize> {
        (0..C)
            .filter(|&c| self.counts[c] > 0)
            .map(|c| self.bits[c])
            .max()
            .or(Some(0))
    }

    pub(crate) fn class_counts(&self, out: &mut Vec<(&'static str, u32)>) {
        out.extend(self.names.iter().copied().zip(self.counts));
    }
}

/// The `node → settler` index and the number of claims held. A second
/// claim of a node replaces the first and counts again: the invariant
/// harness, not this cache, reports two settlers on one node.
#[derive(Debug)]
pub(crate) struct Settlers {
    /// The settler of each node, `u32::MAX` for none.
    at: Vec<u32>,
    count: usize,
}

impl Settlers {
    pub(crate) fn new(world: &World) -> Self {
        Settlers {
            at: vec![u32::MAX; world.graph().num_nodes()],
            count: 0,
        }
    }

    #[inline]
    pub(crate) fn at(&self, node: NodeId) -> Option<AgentId> {
        let a = self.at[node.index()];
        (a != u32::MAX).then_some(AgentId(a))
    }

    #[inline]
    pub(crate) fn claim(&mut self, node: NodeId, agent: AgentId) {
        self.at[node.index()] = agent.0;
        self.count += 1;
    }

    #[inline]
    pub(crate) fn release(&mut self, node: NodeId) {
        self.at[node.index()] = u32::MAX;
        self.count -= 1;
    }

    pub(crate) fn count(&self) -> usize {
        self.count
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_second_claim_of_a_node_counts_without_a_panic() {
        let world = World::new_rooted(disp_graph::generators::line(3), 1, NodeId(0));
        let mut settlers = Settlers::new(&world);
        settlers.claim(NodeId(1), AgentId(4));
        settlers.claim(NodeId(1), AgentId(5));
        assert_eq!(settlers.at(NodeId(1)), Some(AgentId(5)));
        assert_eq!(settlers.count(), 2);
        settlers.release(NodeId(1));
        assert_eq!((settlers.at(NodeId(1)), settlers.count()), (None, 1));
        assert_eq!(settlers.at(NodeId(0)), None);
    }
}
