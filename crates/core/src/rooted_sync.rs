//! Seeker-based synchronous dispersion (`Sync_Probe`, Algorithms 2 and 5–7).
//!
//! This protocol reproduces the *probing structure* of the paper's SYNC
//! algorithm `RootedSyncDisp`: at every DFS node the leader dispatches a pool
//! of **seekers** in parallel, one unprobed port each; each seeker makes a
//! round trip (optionally waiting a configurable number of rounds at the
//! neighbor, the paper's 6-round wait) and reports whether the neighbor
//! hosts a settler. With a pool of `p` seekers, `min{k, δ_w}` ports are
//! covered in `⌈min{k, δ_w}/p⌉` iterations of `O(1)` rounds each.
//!
//! **Fidelity note (see `DESIGN.md`).** The full Theorem 6.1 algorithm
//! additionally leaves ≥ ⌈k/3⌉ DFS-tree nodes empty (Algorithm 1, module
//! [`crate::empty_node`]) and covers them by oscillating settlers (module
//! [`crate::oscillation`]) so that the seeker pool never shrinks below
//! ⌈k/3⌉. This implementation settles an agent at every visited node
//! instead, so the pool shrinks as the DFS progresses: the measured time is
//! `O(k)` whenever node degrees stay below the remaining pool size and
//! degrades toward the `O(k log k)` of the DISC'24 baseline on high-degree
//! graphs. The empty-node selection and oscillation components are
//! implemented and verified separately; wiring them into this protocol is
//! the one fidelity gap of this reproduction (`DESIGN.md` §2, "Known
//! deviations").
//!
//! ## Structure-of-arrays state (DESIGN.md §13)
//!
//! Per-agent state is a `u8` tag (role × stage, booleans such as a seeker's
//! `saw_settler` folded in — see the private `tag` module) plus packed
//! parallel fields: `p0` (a seeker's probe port / a settler's parent port,
//! `Port(0)` = none), `p1` (a seeker's return pin) and `aux0` (a seeker's
//! wait counter). The protocol has exactly **one** leader, so its phase
//! payload — group size, movement order, probe counters — lives in plain
//! struct scalars instead of per-agent enum variants. The tags, their
//! per-class counts and the `node → settler` index live in the crate's
//! census (DESIGN.md §13.1). The golden corpus (`tests/golden_corpus.rs`)
//! pins this rewrite step-for-step to the enum-of-structs implementation
//! it replaced.

use crate::census::{enc, opt, Census, NO_PORT};
use disp_graph::Port;
use disp_sim::{bits, ActivationCtx, AgentId, AgentProtocol, World};

/// Tuning knobs (also swept by the `ablations` binary).
#[derive(Debug, Clone, Copy)]
pub struct SyncConfig {
    /// Rounds a seeker waits at the probed neighbor before returning. The
    /// paper uses 6 (needed when tree nodes can be empty and are covered by
    /// oscillating settlers); with every node settled, 1 suffices.
    pub wait_rounds: u32,
    /// Cap on the number of seekers dispatched per probe iteration
    /// (`None` = use every available unsettled agent, the default).
    pub max_probers: Option<usize>,
}

impl Default for SyncConfig {
    fn default() -> Self {
        SyncConfig {
            wait_rounds: 1,
            max_probers: None,
        }
    }
}

/// The flattened role × stage tag (`_F`/`_T` fold the `saw_settler` /
/// `executed` booleans into the byte).
mod tag {
    /// Follower with `executed == false` (group-order flip protocol).
    pub const FOLLOWER_F: u8 = 0;
    /// Follower with `executed == true`.
    pub const FOLLOWER_T: u8 = 1;
    /// Settled at the current node. Fields: `p0` = parent port (opt).
    pub const SETTLED: u8 = 2;

    // Seeker (fields: `p0` = probe port, `p1` = return pin (opt), `aux0` =
    // wait rounds left; `saw_settler` in the tag).
    pub const SEEK_OUT: u8 = 3;
    pub const SEEK_WAIT_F: u8 = 4;
    pub const SEEK_WAIT_T: u8 = 5;
    pub const SEEK_RET_F: u8 = 6;
    pub const SEEK_RET_T: u8 = 7;

    // Leader phases (payload in the protocol's scalar fields — there is
    // exactly one leader).
    pub const LEAD_DECIDE: u8 = 8;
    pub const LEAD_PROBE_ASSIGN: u8 = 9;
    pub const LEAD_PROBE_WAIT: u8 = 10;
    pub const LEAD_SOLO_OUT: u8 = 11;
    pub const LEAD_SOLO_WAIT_F: u8 = 12;
    pub const LEAD_SOLO_WAIT_T: u8 = 13;
    pub const LEAD_SOLO_RET_F: u8 = 14;
    pub const LEAD_SOLO_RET_T: u8 = 15;
    pub const LEAD_DEPART_FORWARD: u8 = 16;
    pub const LEAD_DEPART_BACKTRACK: u8 = 17;
    pub const LEAD_ARRIVE_FORWARD: u8 = 18;
}

/// Number of memory classes (coarse roles with a fixed bit footprint):
/// follower, settled, seeker, leader.
const CLASSES: usize = 4;

/// Class names, in class order.
const CLASS_NAMES: [&str; CLASSES] = ["follower", "settled", "seeker", "leader"];

/// The memory class of a tag — the coarse role.
fn class(t: u8) -> usize {
    match t {
        tag::FOLLOWER_F | tag::FOLLOWER_T => 0,
        tag::SETTLED => 1,
        tag::SEEK_OUT..=tag::SEEK_RET_T => 2,
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
        // follower: id + executed flag
        id + 1,
        // settled: id + parent port
        id + opt_port,
        // seeker: id + stage + port + pin + wait counter + flag
        id + 2 + port + opt_port + bits::counter_bits(8) + 1,
        // leader: id + phase + counters + ports
        id + 3
            + bits::counter_bits(k as u64)
            + 1
            + port
            + 2 * opt_port
            + bits::counter_bits(max_degree as u64)
            + opt_port
            + opt_port,
    ]
}

/// The seeker-probing SYNC dispersion protocol (rooted configurations),
/// structure-of-arrays layout.
#[derive(Debug)]
pub struct RootedSyncDisp {
    config: SyncConfig,
    /// Role × stage per agent (see [`tag`]) and the settler index.
    census: Census<CLASSES>,
    /// Seeker probe port / settler parent port (`NO_PORT` = none).
    p0: Vec<Port>,
    /// Seeker return pin (`NO_PORT` = none).
    p1: Vec<Port>,
    /// Seeker wait counter.
    aux0: Vec<u32>,
    leader: AgentId,
    /// Reusable buffer for the seeker-pool and returned-seeker scans.
    scratch: Vec<AgentId>,
    // --- leader phase payload (one leader ⇒ plain scalars) ---
    /// Unsettled followers remaining in the group.
    group_size: usize,
    /// Group movement order: the port (`NO_PORT` = no order yet) ...
    order_port: Port,
    /// ... and its flip bit (the followers' "have I executed this order").
    order_flip: bool,
    /// Pin of the edge the leader arrived through (opt).
    arrival_pin: Port,
    /// Ports checked at the current node.
    checked: u32,
    /// Smallest port found leading to a fully-unsettled neighbor (opt).
    next_empty: Port,
    /// Pin recorded for the leader's own solo probe (opt).
    solo_pin: Port,
    /// Seekers dispatched in the current probe iteration.
    assigned: u32,
    /// Rounds left in the leader's solo wait.
    solo_left: u32,
    max_probe_iterations: u32,
    current_probe_iterations: u32,
}

impl RootedSyncDisp {
    /// Build the protocol for a rooted world with default configuration.
    pub fn new(world: &World) -> Self {
        Self::with_config(world, SyncConfig::default())
    }

    /// Build the protocol with explicit tuning knobs.
    pub fn with_config(world: &World, config: SyncConfig) -> Self {
        let k = world.num_agents();
        let root = world.position(AgentId(0));
        assert!(
            (0..k).all(|i| world.position(AgentId(i as u32)) == root),
            "RootedSyncDisp handles rooted initial configurations"
        );
        let leader = AgentId(k as u32 - 1);
        let mut tags = vec![tag::FOLLOWER_F; k];
        tags[leader.index()] = tag::LEAD_DECIDE;
        let bits = class_bits_table(k, world.graph().max_degree());
        RootedSyncDisp {
            config,
            census: Census::new(world, tags, class, &CLASS_NAMES, bits),
            p0: vec![NO_PORT; k],
            p1: vec![NO_PORT; k],
            aux0: vec![0; k],
            leader,
            scratch: Vec::new(),
            group_size: k - 1,
            order_port: NO_PORT,
            order_flip: false,
            arrival_pin: NO_PORT,
            checked: 0,
            next_empty: NO_PORT,
            solo_pin: NO_PORT,
            assigned: 0,
            solo_left: 0,
            max_probe_iterations: 0,
            current_probe_iterations: 0,
        }
    }

    /// Largest number of probe iterations observed at a single node.
    pub fn max_probe_iterations(&self) -> u32 {
        self.max_probe_iterations
    }

    /// Settle `agent` and park it: settlers in this protocol are never
    /// recruited, so their activations are no-ops forever.
    fn settle(&mut self, ctx: &mut ActivationCtx<'_>, agent: AgentId, parent_port: Option<Port>) {
        self.census.set_tag(agent.index(), tag::SETTLED);
        self.census.settlers.claim(ctx.node(), agent);
        self.p0[agent.index()] = enc(parent_port);
        ctx.park(agent);
    }

    /// The co-located follower with the smallest id, if any.
    fn min_follower_here(&self, ctx: &ActivationCtx<'_>) -> Option<AgentId> {
        ctx.colocated_iter()
            .filter(|a| self.census.tag(a.index()) <= tag::FOLLOWER_T)
            .min_by_key(|a| a.0)
    }

    #[allow(clippy::too_many_lines)]
    fn act_leader(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
        let a = agent.index();
        match self.census.tag(a) {
            tag::LEAD_DECIDE => {
                if self.census.settlers.at(ctx.node()).is_none() {
                    let arrival_pin = opt(self.arrival_pin);
                    if self.group_size == 0 {
                        self.settle(ctx, agent, arrival_pin);
                        return;
                    }
                    let chosen = self.min_follower_here(ctx).expect("group is co-located");
                    self.settle(ctx, chosen, arrival_pin);
                    self.group_size -= 1;
                } else {
                    self.checked = 0;
                    self.next_empty = NO_PORT;
                    self.current_probe_iterations = 0;
                    self.census.set_tag(a, tag::LEAD_PROBE_ASSIGN);
                }
            }

            tag::LEAD_PROBE_ASSIGN => {
                if self.next_empty != NO_PORT || self.checked as usize >= ctx.degree() {
                    self.movement_phase(ctx, agent);
                } else {
                    self.current_probe_iterations += 1;
                    self.max_probe_iterations =
                        self.max_probe_iterations.max(self.current_probe_iterations);
                    let mut pool = std::mem::take(&mut self.scratch);
                    pool.clear();
                    pool.extend(
                        ctx.colocated_iter()
                            .filter(|h| self.census.tag(h.index()) <= tag::FOLLOWER_T),
                    );
                    pool.sort_unstable_by_key(|h| h.0);
                    if let Some(cap) = self.config.max_probers {
                        pool.truncate(cap.max(1));
                    }
                    if pool.is_empty() {
                        // Leader probes the next port itself.
                        let port = Port(self.checked + 1);
                        self.solo_pin = ctx.move_via(port);
                        self.census.set_tag(a, tag::LEAD_SOLO_OUT);
                    } else {
                        let want = (ctx.degree() - self.checked as usize).min(pool.len());
                        for (i, seeker) in pool.iter().take(want).enumerate() {
                            let s = seeker.index();
                            self.census.set_tag(s, tag::SEEK_OUT);
                            self.p0[s] = Port(self.checked + 1 + i as u32);
                            self.p1[s] = NO_PORT;
                        }
                        self.checked += want as u32;
                        self.assigned = want as u32;
                        self.census.set_tag(a, tag::LEAD_PROBE_WAIT);
                    }
                    pool.clear();
                    self.scratch = pool;
                }
            }

            tag::LEAD_PROBE_WAIT => {
                let mut returned = std::mem::take(&mut self.scratch);
                returned.clear();
                returned.extend(ctx.colocated_iter().filter(|s| {
                    matches!(
                        self.census.tag(s.index()),
                        tag::SEEK_RET_F | tag::SEEK_RET_T
                    )
                }));
                if returned.len() as u32 == self.assigned {
                    let flip = self.order_port != NO_PORT && self.order_flip;
                    for &s in &returned {
                        let si = s.index();
                        let port = self.p0[si];
                        if self.census.tag(si) == tag::SEEK_RET_F {
                            self.next_empty = match opt(self.next_empty) {
                                Some(q) if q < port => q,
                                _ => port,
                            };
                        }
                        self.census.set_tag(
                            si,
                            if flip {
                                tag::FOLLOWER_T
                            } else {
                                tag::FOLLOWER_F
                            },
                        );
                    }
                    self.census.set_tag(a, tag::LEAD_PROBE_ASSIGN);
                }
                returned.clear();
                self.scratch = returned;
            }

            tag::LEAD_SOLO_OUT => {
                let saw = self.census.settlers.at(ctx.node()).is_some();
                self.solo_left = self.config.wait_rounds;
                self.census.set_tag(
                    a,
                    if saw {
                        tag::LEAD_SOLO_WAIT_T
                    } else {
                        tag::LEAD_SOLO_WAIT_F
                    },
                );
            }

            t @ (tag::LEAD_SOLO_WAIT_F | tag::LEAD_SOLO_WAIT_T) => {
                let saw =
                    t == tag::LEAD_SOLO_WAIT_T || self.census.settlers.at(ctx.node()).is_some();
                if self.solo_left == 0 {
                    ctx.move_via(opt(self.solo_pin).expect("solo pin recorded"));
                    self.census.set_tag(
                        a,
                        if saw {
                            tag::LEAD_SOLO_RET_T
                        } else {
                            tag::LEAD_SOLO_RET_F
                        },
                    );
                } else {
                    self.solo_left -= 1;
                    self.census.set_tag(
                        a,
                        if saw {
                            tag::LEAD_SOLO_WAIT_T
                        } else {
                            tag::LEAD_SOLO_WAIT_F
                        },
                    );
                }
            }

            t @ (tag::LEAD_SOLO_RET_F | tag::LEAD_SOLO_RET_T) => {
                if t == tag::LEAD_SOLO_RET_F {
                    self.next_empty = Port(self.checked + 1);
                }
                self.checked += 1;
                self.solo_pin = NO_PORT;
                self.census.set_tag(a, tag::LEAD_PROBE_ASSIGN);
            }

            t @ (tag::LEAD_DEPART_FORWARD | tag::LEAD_DEPART_BACKTRACK) => {
                debug_assert_ne!(self.order_port, NO_PORT, "departing without an order");
                if !ctx
                    .colocated_iter()
                    .any(|h| self.census.tag(h.index()) <= tag::FOLLOWER_T)
                {
                    let pin = ctx.move_via(self.order_port);
                    self.arrival_pin = pin;
                    self.census.set_tag(
                        a,
                        if t == tag::LEAD_DEPART_FORWARD {
                            tag::LEAD_ARRIVE_FORWARD
                        } else {
                            tag::LEAD_DECIDE
                        },
                    );
                }
            }

            tag::LEAD_ARRIVE_FORWARD => {
                debug_assert!(self.census.settlers.at(ctx.node()).is_none());
                let arrival_pin = opt(self.arrival_pin);
                if self.group_size == 0 {
                    self.settle(ctx, agent, arrival_pin);
                    return;
                }
                let chosen = self.min_follower_here(ctx).expect("group is co-located");
                self.settle(ctx, chosen, arrival_pin);
                self.group_size -= 1;
                self.census.set_tag(a, tag::LEAD_DECIDE);
            }

            t => unreachable!("act_leader on non-leader tag {t}"),
        }
    }

    /// Issue the next group movement order (forward to the discovered empty
    /// neighbor or backtrack to the parent), flipping the order bit.
    fn movement_phase(&mut self, ctx: &ActivationCtx<'_>, leader: AgentId) {
        let flip = self.order_port == NO_PORT || !self.order_flip;
        let (p, depart) = match opt(self.next_empty) {
            Some(p) => (p, tag::LEAD_DEPART_FORWARD),
            None => {
                let settler = self
                    .census
                    .settlers
                    .at(ctx.node())
                    .expect("backtracking from a settled node");
                let p = opt(self.p0[settler.index()])
                    .expect("the DFS root can only be exhausted after everyone settled");
                (p, tag::LEAD_DEPART_BACKTRACK)
            }
        };
        self.order_port = p;
        self.order_flip = flip;
        self.census.set_tag(leader.index(), depart);
    }

    fn act_follower(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
        let a = agent.index();
        let executed = self.census.tag(a) == tag::FOLLOWER_T;
        if ctx.is_colocated(self.leader)
            && self.census.tag(self.leader.index()) >= tag::LEAD_DECIDE
            && self.order_port != NO_PORT
            && self.order_flip != executed
        {
            ctx.move_via(self.order_port);
            self.census.set_tag(
                a,
                if self.order_flip {
                    tag::FOLLOWER_T
                } else {
                    tag::FOLLOWER_F
                },
            );
        }
    }

    fn act_seeker(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
        let a = agent.index();
        match self.census.tag(a) {
            tag::SEEK_OUT => {
                self.p1[a] = ctx.move_via(self.p0[a]);
                self.aux0[a] = self.config.wait_rounds;
                self.census.set_tag(a, tag::SEEK_WAIT_F);
            }
            t @ (tag::SEEK_WAIT_F | tag::SEEK_WAIT_T) => {
                let saw = t == tag::SEEK_WAIT_T || self.census.settlers.at(ctx.node()).is_some();
                if self.aux0[a] == 0 {
                    ctx.move_via(opt(self.p1[a]).expect("pin recorded"));
                    self.census.set_tag(
                        a,
                        if saw {
                            tag::SEEK_RET_T
                        } else {
                            tag::SEEK_RET_F
                        },
                    );
                } else {
                    self.aux0[a] -= 1;
                    self.census.set_tag(
                        a,
                        if saw {
                            tag::SEEK_WAIT_T
                        } else {
                            tag::SEEK_WAIT_F
                        },
                    );
                }
            }
            tag::SEEK_RET_F | tag::SEEK_RET_T => {}
            t => unreachable!("act_seeker on non-seeker tag {t}"),
        }
    }
}

impl AgentProtocol for RootedSyncDisp {
    fn on_activate(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
        match self.census.tag(agent.index()) {
            tag::FOLLOWER_F | tag::FOLLOWER_T => self.act_follower(agent, ctx),
            tag::SETTLED => {}
            tag::SEEK_OUT..=tag::SEEK_RET_T => self.act_seeker(agent, ctx),
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
        "rooted-sync-seeker"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_dispersion, envelope};
    use disp_graph::{generators, NodeId};
    use disp_sim::{Outcome, RunConfig, SyncRunner};

    fn run(world: &mut World, config: SyncConfig) -> (Outcome, RootedSyncDisp) {
        let mut proto = RootedSyncDisp::with_config(world, config);
        let out = SyncRunner::new(RunConfig::default())
            .run(world, &mut proto)
            .expect("must terminate");
        check_dispersion(world).expect("must disperse");
        (out, proto)
    }

    #[test]
    fn line_is_linear_time() {
        let g = generators::line(64);
        let mut world = World::new_rooted(g, 64, NodeId(0));
        let (out, _) = run(&mut world, SyncConfig::default());
        assert!(out.terminated);
        assert!(
            envelope::within_linear(&out, 20.0),
            "rounds {} not O(k) on the line",
            out.rounds
        );
    }

    #[test]
    fn ring_and_grid_disperse() {
        let g = generators::ring(30);
        let mut world = World::new_rooted(g, 30, NodeId(3));
        run(&mut world, SyncConfig::default());
        let g = generators::grid2d(6, 6);
        let mut world = World::new_rooted(g, 36, NodeId(0));
        run(&mut world, SyncConfig::default());
    }

    #[test]
    fn random_trees_and_graphs() {
        for seed in 0..4 {
            let g = generators::random_tree(40, seed);
            let mut world = World::new_rooted(g, 40, NodeId(0));
            run(&mut world, SyncConfig::default());
        }
        for seed in 0..3 {
            let g = generators::erdos_renyi_connected(35, 0.12, seed);
            let mut world = World::new_rooted(g, 35, NodeId(2));
            run(&mut world, SyncConfig::default());
        }
    }

    #[test]
    fn star_probes_in_few_iterations_with_a_large_pool() {
        // With an uncapped pool, probing the hub takes O(1) iterations while
        // more than ~Δ unsettled agents remain.
        let g = generators::star(48);
        let mut world = World::new_rooted(g, 48, NodeId(0));
        let (out, proto) = run(&mut world, SyncConfig::default());
        assert!(out.terminated);
        assert!(proto.max_probe_iterations() <= 48);
    }

    #[test]
    fn seeker_cap_ablation_increases_iterations() {
        let g = generators::star(30);
        let mut w1 = World::new_rooted(g.clone(), 30, NodeId(0));
        let (_, uncapped) = run(&mut w1, SyncConfig::default());
        let mut w2 = World::new_rooted(g, 30, NodeId(0));
        let (_, capped) = run(
            &mut w2,
            SyncConfig {
                wait_rounds: 1,
                max_probers: Some(3),
            },
        );
        assert!(
            capped.max_probe_iterations() >= uncapped.max_probe_iterations(),
            "capping the pool cannot reduce probe iterations"
        );
    }

    #[test]
    fn wait_rounds_ablation_costs_time_but_preserves_correctness() {
        let g = generators::random_tree(30, 7);
        let mut w1 = World::new_rooted(g.clone(), 30, NodeId(0));
        let (fast, _) = run(
            &mut w1,
            SyncConfig {
                wait_rounds: 1,
                max_probers: None,
            },
        );
        let mut w2 = World::new_rooted(g, 30, NodeId(0));
        let (slow, _) = run(
            &mut w2,
            SyncConfig {
                wait_rounds: 6,
                max_probers: None,
            },
        );
        assert!(slow.rounds > fast.rounds);
    }

    #[test]
    fn k_smaller_than_n() {
        let g = generators::erdos_renyi_connected(50, 0.08, 5);
        let mut world = World::new_rooted(g, 20, NodeId(0));
        run(&mut world, SyncConfig::default());
    }

    #[test]
    fn tiny_k() {
        for k in 1..=3 {
            let g = generators::ring(5);
            let mut world = World::new_rooted(g, k, NodeId(1));
            let (out, _) = run(&mut world, SyncConfig::default());
            assert!(out.terminated);
        }
    }

    #[test]
    fn memory_is_logarithmic() {
        let g = generators::complete(40);
        let mut world = World::new_rooted(g, 40, NodeId(0));
        let (out, _) = run(&mut world, SyncConfig::default());
        assert!(envelope::memory_logarithmic(&out, 30.0));
    }

    #[test]
    fn faster_than_probe_dfs_on_dense_graphs() {
        // The seeker pool checks many ports per O(1) rounds without the
        // recruit-and-see-off overhead, so on dense graphs it beats the
        // doubling-probe protocol run synchronously.
        let k = 36;
        let g = generators::complete(k);
        let mut w1 = World::new_rooted(g.clone(), k, NodeId(0));
        let (seeker_out, _) = run(&mut w1, SyncConfig::default());
        let mut w2 = World::new_rooted(g, k, NodeId(0));
        let mut probe = crate::ProbeDfs::new(&w2);
        let probe_out = SyncRunner::new(RunConfig::default())
            .run(&mut w2, &mut probe)
            .unwrap();
        assert!(
            seeker_out.rounds < probe_out.rounds,
            "seeker probing ({}) should beat doubling probing ({}) on K_{k}",
            seeker_out.rounds,
            probe_out.rounds
        );
    }
}
