//! The OPODIS'21-style group-DFS dispersion baseline (`O(min{m, kΔ})` time,
//! `O(log(k+Δ))` bits per agent), usable under both the SYNC and ASYNC
//! schedulers.
//!
//! ## Algorithm
//!
//! All unsettled agents that started on the same node travel together as a
//! *group* led by the largest-ID agent among them. At every node the group
//! visits for the first time, the smallest-ID unsettled member settles and
//! becomes the node's *settler*; the settler stores the port back to its DFS
//! parent and a scan cursor over its remaining ports. The group then examines
//! the settler's ports one at a time: it moves to the neighbor, settles an
//! agent there if the neighbor is free, and otherwise returns and advances
//! the cursor. When a node's ports are exhausted the group backtracks to the
//! parent. The traversal therefore charges `O(1)` group moves per examined
//! edge, i.e. `O(min{m, kΔ})` time overall.
//!
//! ## General initial configurations
//!
//! Multiple groups (one per initially-occupied node) run their DFSs
//! concurrently and treat *any* settled agent — of any group — as an occupied
//! node. This replaces the size-based subsumption of Kshemkalyani–Sharma with
//! a simpler scheme (documented in `DESIGN.md`): if a group exhausts its DFS
//! with members still unsettled (it got boxed into a "pocket" of occupied
//! nodes), the leftover members switch to *scatter mode* — independent seeded
//! random walks that settle on the first free node found. Scatter mode keeps
//! the algorithm correct on every input; its time is measured empirically
//! rather than bounded analytically.
//!
//! ## Group movement protocol
//!
//! The leader never outruns its followers: it publishes a move order (a port
//! plus a flip bit), waits until every follower has executed it and left the
//! node, and only then moves itself. This costs a small constant factor over
//! the paper's idealized counting and works identically under asynchronous
//! activation.
//!
//! ## Structure-of-arrays state (DESIGN.md §13)
//!
//! Per-agent state is a `u8` tag (role × stage, the follower's `executed`
//! bit folded in — see the private `tag` module) plus packed parallel fields. Unlike the
//! rooted protocols this baseline has one leader *per group*, so leader
//! payload stays per-agent: `p0` = published order port (`Port(0)` = no
//! order yet), `p3` = the order's flip bit (`Port(1)`/`Port(0)`), `p1` =
//! return port, `p2` = arrival pin, `aux0` = group size, `aux1` = tree
//! label. Followers keep their leader's id in `aux0`; settlers keep the
//! parent port in `p0`, the scan cursor in `aux0` and the tree label in
//! `aux1`; scatter walkers keep their 64-bit xorshift state split across
//! `aux0`/`aux1`. The tags, their per-class counts and the `node → settler`
//! index live in the crate's census (DESIGN.md §13.1). The golden corpus
//! (`tests/golden_corpus.rs`) pins this rewrite step-for-step to the
//! enum-of-structs implementation it replaced.

use crate::census::{enc, opt, Census, NO_PORT};
use disp_graph::Port;
use disp_sim::{bits, ActivationCtx, AgentId, AgentProtocol, World};

/// The flattened role × stage tag (`_F`/`_T` fold the follower's `executed`
/// boolean into the byte).
mod tag {
    /// Follower with `executed == false`. Fields: `aux0` = leader id.
    pub const FOLLOWER_F: u8 = 0;
    /// Follower with `executed == true`.
    pub const FOLLOWER_T: u8 = 1;
    /// Settled. Fields: `p0` = parent port (opt), `aux0` = scan cursor,
    /// `aux1` = tree label.
    pub const SETTLED: u8 = 2;
    /// Scatter walker. Fields: `aux0`/`aux1` = xorshift state halves.
    pub const SCATTER: u8 = 3;

    // Leader phases (fields: `p0` = order port (opt), `p3` = order flip
    // bit, `p1` = return port (opt), `p2` = arrival pin (opt), `aux0` =
    // group size, `aux1` = tree label).
    pub const LEAD_DECIDE: u8 = 4;
    pub const LEAD_DEPART_SCAN: u8 = 5;
    pub const LEAD_DEPART_RETURN: u8 = 6;
    pub const LEAD_DEPART_BACKTRACK: u8 = 7;
    pub const LEAD_CHECK_NEIGHBOR: u8 = 8;
}

/// Number of memory classes (coarse roles with a fixed bit footprint):
/// follower, settled, scatter, leader.
const CLASSES: usize = 4;

/// Class names, in class order.
const CLASS_NAMES: [&str; CLASSES] = ["follower", "settled", "scatter", "leader"];

/// The memory class of a tag — the coarse role.
fn class(t: u8) -> usize {
    match t {
        tag::FOLLOWER_F | tag::FOLLOWER_T => 0,
        tag::SETTLED => 1,
        tag::SCATTER => 2,
        _ => 3,
    }
}

/// Per-class footprint in bits (the same accounting the pre-SoA enum
/// variants used).
fn class_bits_table(k: usize, max_degree: usize) -> [usize; CLASSES] {
    let id = bits::id_bits(k);
    let port = bits::port_bits(max_degree);
    let opt_port = bits::opt_port_bits(max_degree);
    [
        // follower: own id + leader id + executed flag
        id + id + bits::flag_bits(),
        // settled: id + parent + cursor + treelabel
        id + opt_port + port + 1 + id,
        // scatter: id + xorshift state
        id + 64,
        // leader: phase tag + group size counter + order (flag+port) +
        // return/arrival ports + treelabel + own id.
        id + 3 + bits::counter_bits(k as u64) + bits::flag_bits() + opt_port + 2 * opt_port + id,
    ]
}

/// The group-DFS baseline protocol (rooted and general configurations),
/// structure-of-arrays layout.
#[derive(Debug)]
pub struct KsDfs {
    /// Role × stage per agent (see [`tag`]) and the settler index.
    census: Census<CLASSES>,
    /// Packed port fields (`NO_PORT` = none); meaning per role in [`tag`].
    p0: Vec<Port>,
    p1: Vec<Port>,
    p2: Vec<Port>,
    p3: Vec<Port>,
    /// Packed counter / reference fields; meaning per role in [`tag`].
    aux0: Vec<u32>,
    aux1: Vec<u32>,
    scatter_seed: u64,
}

impl KsDfs {
    /// Build the protocol for the given world. One group is formed per
    /// initially-occupied node, led by the largest-ID agent on that node.
    pub fn new(world: &World) -> Self {
        Self::with_seed(world, 0xD15F_ECE5)
    }

    /// Like [`KsDfs::new`] with an explicit seed for the scatter-mode RNG.
    pub fn with_seed(world: &World, scatter_seed: u64) -> Self {
        let k = world.num_agents();
        let mut tags = vec![tag::FOLLOWER_F; k];
        let mut aux0 = vec![0; k];
        let mut aux1 = vec![0; k];
        for v in world.graph().nodes() {
            let mut leader: Option<AgentId> = None;
            let mut count = 0usize;
            for a in world.agents_at(v) {
                count += 1;
                leader = Some(match leader {
                    Some(l) if l >= a => l,
                    _ => a,
                });
            }
            let Some(leader) = leader else { continue };
            for a in world.agents_at(v) {
                let i = a.index();
                if a == leader {
                    tags[i] = tag::LEAD_DECIDE;
                    aux0[i] = count as u32 - 1;
                    aux1[i] = a.0 + 1; // tree label = algorithmic id
                } else {
                    aux0[i] = leader.0;
                }
            }
        }
        let bits = class_bits_table(k, world.graph().max_degree());
        KsDfs {
            census: Census::new(world, tags, class, &CLASS_NAMES, bits),
            p0: vec![NO_PORT; k],
            p1: vec![NO_PORT; k],
            p2: vec![NO_PORT; k],
            p3: vec![NO_PORT; k],
            aux0,
            aux1,
            scatter_seed,
        }
    }

    #[inline]
    fn is_follower_of(&self, a: AgentId, leader: AgentId) -> bool {
        self.census.tag(a.index()) <= tag::FOLLOWER_T && self.aux0[a.index()] == leader.0
    }

    /// Smallest-ID co-located follower of `leader` (unsettled group member).
    fn smallest_follower_here(&self, ctx: &ActivationCtx<'_>, leader: AgentId) -> Option<AgentId> {
        ctx.colocated_iter()
            .filter(|&a| self.is_follower_of(a, leader))
            .min_by_key(|a| a.0)
    }

    /// Settle `agent` and park it: a settled agent's activations are no-ops
    /// forever (its scan cursor is mutated passively by visiting leaders).
    fn settle(
        &mut self,
        ctx: &mut ActivationCtx<'_>,
        agent: AgentId,
        parent_port: Option<Port>,
        treelabel: u32,
    ) {
        let i = agent.index();
        self.census.set_tag(i, tag::SETTLED);
        self.census.settlers.claim(ctx.node(), agent);
        self.p0[i] = enc(parent_port);
        self.aux0[i] = 1; // scan cursor starts at port 1
        self.aux1[i] = treelabel;
        ctx.park(agent);
    }

    /// Publish a new group move order (port + toggled flip bit).
    #[inline]
    fn publish_order(&mut self, leader: usize, port: Port) {
        let flip = self.p0[leader] == NO_PORT || self.p3[leader] != Port(1);
        self.p0[leader] = port;
        self.p3[leader] = Port(flip as u32);
    }

    fn act_leader(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
        let a = agent.index();
        match self.census.tag(a) {
            tag::LEAD_DECIDE => {
                match self.census.settlers.at(ctx.node()) {
                    None => {
                        // First visit of this node by anyone: settle here.
                        let arrival_pin = opt(self.p2[a]);
                        let treelabel = self.aux1[a];
                        if self.aux0[a] == 0 {
                            // The leader is the last unsettled member.
                            self.settle(ctx, agent, arrival_pin, treelabel);
                            return;
                        }
                        let chosen = self
                            .smallest_follower_here(ctx, agent)
                            .expect("group_size > 0 implies a co-located follower");
                        self.settle(ctx, chosen, arrival_pin, treelabel);
                        self.aux0[a] -= 1;
                        // Stay in Decide: the settler now exists and scanning
                        // starts at the next activation.
                    }
                    Some(settler) => {
                        // Scan the settler's ports. The DFS bookkeeping lives
                        // in the settler (legal: it is co-located).
                        let s = settler.index();
                        let parent_port = opt(self.p0[s]);
                        let mut next_port = self.aux0[s];
                        if self.aux1[s] != self.aux1[a] {
                            // Another group's DFS settled this node before we
                            // could (under ASYNC a foreign scan can reach our
                            // home node before our leader's first
                            // activation). The whole group must fall back
                            // together: scattering only the leader would
                            // strand its followers waiting for orders from a
                            // leader that no longer exists.
                            self.scatter_group(agent, ctx);
                            return;
                        }
                        // Skip the parent port in the scan.
                        if Some(Port(next_port)) == parent_port {
                            next_port += 1;
                        }
                        if next_port as usize > ctx.degree() {
                            // Node exhausted: backtrack, or finish/fallback at
                            // the root.
                            match parent_port {
                                Some(p) => {
                                    self.publish_order(a, p);
                                    self.census.set_tag(a, tag::LEAD_DEPART_BACKTRACK);
                                }
                                None => {
                                    // Root exhausted with members left: the
                                    // group is boxed in ("pocket"); fall back
                                    // to scatter mode for the remaining
                                    // members (including the leader).
                                    self.scatter_group(agent, ctx);
                                }
                            }
                        } else {
                            // Examine the neighbor behind `next_port`.
                            self.aux0[s] = next_port + 1;
                            self.publish_order(a, Port(next_port));
                            self.census.set_tag(a, tag::LEAD_DEPART_SCAN);
                        }
                    }
                }
            }

            t @ (tag::LEAD_DEPART_SCAN | tag::LEAD_DEPART_RETURN | tag::LEAD_DEPART_BACKTRACK) => {
                debug_assert_ne!(self.p0[a], NO_PORT, "departing without an order");
                if !ctx.colocated_iter().any(|f| self.is_follower_of(f, agent)) {
                    // All followers executed the order; follow them.
                    let pin = ctx.move_via(self.p0[a]);
                    self.p2[a] = pin;
                    if t == tag::LEAD_DEPART_SCAN {
                        self.p1[a] = pin;
                        self.census.set_tag(a, tag::LEAD_CHECK_NEIGHBOR);
                    } else {
                        self.census.set_tag(a, tag::LEAD_DECIDE);
                    }
                }
                // else: keep waiting for stragglers.
            }

            tag::LEAD_CHECK_NEIGHBOR => {
                let rp = opt(self.p1[a]).expect("checking a neighbor without a return port");
                if self.census.settlers.at(ctx.node()).is_some() {
                    // Occupied: go back and try the next port.
                    self.publish_order(a, rp);
                    self.census.set_tag(a, tag::LEAD_DEPART_RETURN);
                } else {
                    // Free node: settle here (forward move of the DFS).
                    let treelabel = self.aux1[a];
                    if self.aux0[a] == 0 {
                        self.settle(ctx, agent, Some(rp), treelabel);
                        return;
                    }
                    let chosen = self
                        .smallest_follower_here(ctx, agent)
                        .expect("group_size > 0 implies a co-located follower");
                    self.settle(ctx, chosen, Some(rp), treelabel);
                    self.aux0[a] -= 1;
                    self.census.set_tag(a, tag::LEAD_DECIDE);
                }
            }

            t => unreachable!("act_leader on non-leader tag {t}"),
        }
    }

    #[inline]
    fn scatter_state(&self, agent: AgentId) -> u64 {
        self.scatter_seed ^ (0x9E37_79B9_7F4A_7C15u64.wrapping_mul(agent.index() as u64 + 1))
    }

    #[inline]
    fn set_scatter(&mut self, agent: AgentId, rng: u64) {
        let i = agent.index();
        self.census.set_tag(i, tag::SCATTER);
        self.aux0[i] = rng as u32;
        self.aux1[i] = (rng >> 32) as u32;
    }

    /// Switch the whole co-located group (leader included) to scatter mode.
    fn scatter_group(&mut self, leader: AgentId, ctx: &ActivationCtx<'_>) {
        for a in ctx.colocated_iter() {
            if self.is_follower_of(a, leader) {
                self.set_scatter(a, self.scatter_state(a));
            }
        }
        self.set_scatter(leader, self.scatter_state(leader));
    }

    fn act_follower(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
        let a = agent.index();
        let leader = AgentId(self.aux0[a]);
        let executed = self.census.tag(a) == tag::FOLLOWER_T;
        // Execute the leader's published order, if a fresh one is visible.
        if ctx.is_colocated(leader)
            && self.census.tag(leader.index()) >= tag::LEAD_DECIDE
            && self.p0[leader.index()] != NO_PORT
        {
            let flip = self.p3[leader.index()] == Port(1);
            if flip != executed {
                ctx.move_via(self.p0[leader.index()]);
                self.census.set_tag(
                    a,
                    if flip {
                        tag::FOLLOWER_T
                    } else {
                        tag::FOLLOWER_F
                    },
                );
            }
        }
    }

    fn act_scatter(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
        let a = agent.index();
        // If the current node is free of settlers, settle here (activation
        // order breaks ties between walkers arriving in the same round).
        if self.census.settlers.at(ctx.node()).is_none() {
            self.settle(ctx, agent, None, agent.0 + 1);
            return;
        }
        // Otherwise take a pseudo-random step (xorshift64*).
        let mut rng = (self.aux1[a] as u64) << 32 | self.aux0[a] as u64;
        rng ^= rng << 13;
        rng ^= rng >> 7;
        rng ^= rng << 17;
        let d = ctx.degree();
        if d > 0 {
            let port = Port((rng % d as u64) as u32 + 1);
            ctx.move_via(port);
        }
        self.aux0[a] = rng as u32;
        self.aux1[a] = (rng >> 32) as u32;
    }
}

impl AgentProtocol for KsDfs {
    fn on_activate(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
        match self.census.tag(agent.index()) {
            tag::FOLLOWER_F | tag::FOLLOWER_T => self.act_follower(agent, ctx),
            tag::SETTLED => {}
            tag::SCATTER => self.act_scatter(agent, ctx),
            _ => self.act_leader(agent, ctx),
        }
    }

    fn is_terminated(&self) -> bool {
        self.census.is_terminated()
    }

    fn is_settled(&self, agent: AgentId) -> bool {
        self.census.is_settled(agent)
    }

    fn memory_bits(&self, agent: AgentId) -> usize {
        self.census.memory_bits(agent)
    }

    fn max_memory_bits(&self) -> Option<usize> {
        self.census.max_memory_bits()
    }

    fn class_counts(&self, out: &mut Vec<(&'static str, u32)>) {
        self.census.class_counts(out);
    }

    fn name(&self) -> &'static str {
        "ks-dfs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_dispersion, envelope};
    use disp_graph::{generators, NodeId};
    use disp_sim::{
        AsyncRunner, LaggingAdversary, RandomSubsetAdversary, RoundRobinAdversary, RunConfig,
        SyncRunner,
    };

    fn run_sync(world: &mut World) -> disp_sim::Outcome {
        let mut proto = KsDfs::new(world);
        let out = SyncRunner::new(RunConfig::default())
            .run(world, &mut proto)
            .expect("ks-dfs must terminate");
        check_dispersion(world).expect("ks-dfs must disperse");
        out
    }

    #[test]
    fn rooted_on_line_settles_everyone() {
        let g = generators::line(12);
        let mut world = World::new_rooted(g, 12, NodeId(0));
        let out = run_sync(&mut world);
        assert!(out.terminated);
        assert!(envelope::within_min_m_k_delta(&out, 20.0));
    }

    #[test]
    fn rooted_on_line_from_middle() {
        let g = generators::line(15);
        let mut world = World::new_rooted(g, 15, NodeId(7));
        run_sync(&mut world);
    }

    #[test]
    fn rooted_on_star() {
        let g = generators::star(16);
        let mut world = World::new_rooted(g, 16, NodeId(0));
        let out = run_sync(&mut world);
        assert!(out.rounds > 0);
    }

    #[test]
    fn rooted_on_star_from_leaf() {
        let g = generators::star(16);
        let mut world = World::new_rooted(g, 16, NodeId(3));
        run_sync(&mut world);
    }

    #[test]
    fn rooted_fewer_agents_than_nodes() {
        let g = generators::random_tree(40, 5);
        let mut world = World::new_rooted(g, 17, NodeId(0));
        run_sync(&mut world);
    }

    #[test]
    fn rooted_on_complete_graph() {
        let g = generators::complete(10);
        let mut world = World::new_rooted(g, 10, NodeId(4));
        run_sync(&mut world);
    }

    #[test]
    fn rooted_on_random_graphs_many_seeds() {
        for seed in 0..5 {
            let g = generators::erdos_renyi_connected(30, 0.15, seed);
            let mut world = World::new_rooted(g, 30, NodeId(0));
            run_sync(&mut world);
        }
    }

    #[test]
    fn single_agent_settles_immediately() {
        let g = generators::ring(5);
        let mut world = World::new_rooted(g, 1, NodeId(2));
        let out = run_sync(&mut world);
        assert!(out.rounds <= 2);
        assert_eq!(world.position(AgentId(0)), NodeId(2));
    }

    #[test]
    fn two_agents() {
        let g = generators::line(4);
        let mut world = World::new_rooted(g, 2, NodeId(1));
        run_sync(&mut world);
    }

    #[test]
    fn general_two_groups_on_line() {
        let g = generators::line(10);
        let positions = vec![
            NodeId(0),
            NodeId(0),
            NodeId(0),
            NodeId(9),
            NodeId(9),
            NodeId(9),
        ];
        let mut world = World::new(g, positions);
        run_sync(&mut world);
    }

    #[test]
    fn general_groups_collide_in_middle() {
        // Two large groups from both ends of a short line are forced into the
        // pocket/scatter fallback or tight interleaving; either way the final
        // configuration must be dispersed.
        let g = generators::line(8);
        let positions = vec![
            NodeId(0),
            NodeId(0),
            NodeId(0),
            NodeId(0),
            NodeId(7),
            NodeId(7),
            NodeId(7),
            NodeId(7),
        ];
        let mut world = World::new(g, positions);
        run_sync(&mut world);
    }

    #[test]
    fn general_random_placements() {
        for seed in 0..4 {
            let g = generators::erdos_renyi_connected(36, 0.12, seed);
            let n = g.num_nodes();
            let positions: Vec<NodeId> = (0..24)
                .map(|i| NodeId(((i * 7 + seed as usize * 3) % n) as u32))
                .collect();
            let mut world = World::new(g, positions);
            run_sync(&mut world);
        }
    }

    #[test]
    fn dispersion_configuration_is_a_fixpoint_quickly() {
        // Agents already dispersed: every group has size 1, each leader
        // settles at its own start node.
        let g = generators::ring(9);
        let positions: Vec<NodeId> = (0..6).map(|i| NodeId(i as u32)).collect();
        let mut world = World::new(g, positions);
        let out = run_sync(&mut world);
        assert!(out.rounds <= 2);
        assert_eq!(out.total_moves, 0);
    }

    #[test]
    fn async_round_robin_disperses() {
        let g = generators::random_tree(20, 9);
        let mut world = World::new_rooted(g, 20, NodeId(0));
        let mut proto = KsDfs::new(&world);
        let out = AsyncRunner::new(RunConfig::default(), RoundRobinAdversary::new(20))
            .run(&mut world, &mut proto)
            .unwrap();
        check_dispersion(&world).unwrap();
        assert!(out.epochs > 0);
    }

    #[test]
    fn async_random_subset_disperses() {
        let g = generators::erdos_renyi_connected(25, 0.15, 3);
        let mut world = World::new_rooted(g, 25, NodeId(0));
        let mut proto = KsDfs::new(&world);
        let out = AsyncRunner::new(
            RunConfig::default(),
            RandomSubsetAdversary::new(0.5, 25, 11),
        )
        .run(&mut world, &mut proto)
        .unwrap();
        check_dispersion(&world).unwrap();
        assert!(out.epochs > 0);
        assert!(out.steps >= out.epochs);
    }

    #[test]
    fn async_lagging_adversary_disperses_general_config() {
        let g = generators::grid2d(5, 5);
        let positions = vec![
            NodeId(0),
            NodeId(0),
            NodeId(24),
            NodeId(24),
            NodeId(12),
            NodeId(12),
            NodeId(12),
        ];
        let mut world = World::new(g, positions);
        let mut proto = KsDfs::new(&world);
        AsyncRunner::new(RunConfig::default(), LaggingAdversary::new(6, 7, 5))
            .run(&mut world, &mut proto)
            .unwrap();
        check_dispersion(&world).unwrap();
    }

    #[test]
    fn memory_stays_logarithmic() {
        let g = generators::star(64);
        let mut world = World::new_rooted(g, 64, NodeId(0));
        let out = run_sync(&mut world);
        assert!(
            envelope::memory_logarithmic(&out, 30.0),
            "peak {} bits is not O(log(k+Δ))",
            out.peak_memory_bits
        );
    }

    #[test]
    fn time_scales_like_m_on_dense_graphs() {
        // On the complete graph, m = k(k-1)/2 dominates, and the baseline's
        // time should grow clearly super-linearly in k.
        let t = |k: usize| {
            let g = generators::complete(k);
            let mut world = World::new_rooted(g, k, NodeId(0));
            run_sync(&mut world).rounds as f64
        };
        let t16 = t(16);
        let t32 = t(32);
        // Doubling k should much more than double the time (quadratic-ish).
        assert!(
            t32 / t16 > 2.5,
            "expected super-linear growth, got {t16} -> {t32}"
        );
    }
}
