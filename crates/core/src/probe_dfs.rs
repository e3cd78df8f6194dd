//! Doubling-probe DFS dispersion: the paper's `RootedAsyncDisp`
//! (Algorithm 8, built from `Async_Probe` = Algorithm 3 and
//! `Guest_See_Off` = Algorithm 4, Theorem 7.1).
//!
//! Run under the ASYNC scheduler this is the paper's `O(k log k)`-epoch,
//! `O(log(k+Δ))`-bit rooted dispersion algorithm. Run under the SYNC
//! scheduler the very same protocol reproduces the Sudo et al. [DISC'24]
//! style doubling-probe baseline (`O(k log k)` rounds), which is what the
//! paper extends to asynchrony.
//!
//! ## How probing works
//!
//! The group (leader `a_max` plus the unsettled followers) sits at a DFS node
//! `w` whose settler `α(w)` stays put. To find a fully-unsettled neighbor:
//!
//! 1. The leader assigns one unprobed port each to the available helpers
//!    (unsettled followers plus *guests* — settlers recruited from already
//!    probed neighbors). Each helper makes a round trip through its port.
//! 2. A helper that finds a settler at the neighbor recruits it: the settler
//!    walks to `w` and becomes a guest (remembering the port of `w` it came
//!    in through, so it can go home later). A helper that finds no settler
//!    reports the port as leading to a fully-unsettled node.
//! 3. Every completed iteration without a hit doubles the helper pool, so at
//!    most `O(log min{k, δ_w})` iterations (2 epochs each) are needed.
//! 4. Before the DFS moves on, `Guest_See_Off` sends every guest home in
//!    `O(log k)` halving rounds: guests are paired, each pair walks to the
//!    first guest's home, the second guest confirms the first arrived and
//!    returns; a single leftover guest is escorted by `α(w)` itself.
//!
//! Waiting until guests are confirmed home is what makes the probe results
//! trustworthy under asynchrony (paper §4.3): a node reported empty really
//! is fully unsettled, never the momentarily-vacant home of a helper.
//!
//! ## Flat-state execution
//!
//! This implementation rides the follower group in a world *cohort* (see
//! `disp_sim::world`): followers are enrolled as passengers, the leader
//! moves the whole group with one O(1) cohort move per edge, and followers
//! are extracted only to settle or to serve as probers. Settled agents and
//! idle guests are parked off the runners' worklist and woken exactly when
//! another agent's action makes them actionable (a recruit, a probe
//! assignment, a see-off order). The realized schedule is the one where
//! every follower executes the leader's movement order immediately — a
//! legal refinement of the flip-order movement protocol under both
//! schedulers (`DESIGN.md` §8). Whether a node hosts a settled agent is
//! one lookup in the census's `node → settler` index, not a scan.
//!
//! ## Structure-of-arrays state (DESIGN.md §13)
//!
//! Per-agent state is stored data-oriented rather than as a
//! `Vec<AgentState>` of enums: one `u8` tag per agent (role × stage,
//! flattened — see the private `tag` module; the crate's census keeps the
//! tags and their per-class counts, DESIGN.md §13.1) plus parallel packed
//! field arrays (`p0..p3` for ports, `Port(0)` meaning none, and
//! `aux0`/`aux1` for counters and agent references). An activation reads
//! the tag byte, dispatches, and touches only the two or three fields its
//! arm needs, instead of copying a 40-byte enum in and out of the state
//! vector. The rider / idle-guest / returned-prober lists thread through
//! one shared [`ListArena`] slab (intrusive index-linked lists), so after
//! construction the protocol performs no further heap allocation beyond
//! one reusable scratch buffer. `tests/golden_corpus.rs` pins this rewrite
//! step-for-step to the enum-of-structs implementation it replaced.
//!
//! This protocol assumes a **rooted** initial configuration (all agents on
//! one node); see `DESIGN.md` for how general configurations are handled.
//!
//! ## Dynamic-graph hardening
//!
//! Every move goes through the fallible [`ActivationCtx::try_move_via`] /
//! [`ActivationCtx::try_move_cohort_via`] path: when the dynamic adversary
//! has the chosen edge down ([`MoveError::EdgeDown`]), the agent simply
//! stays in its current stage and retries on its next activation — no state
//! advances, so when the edge returns (one round later, in the
//! arXiv 2408.12220 model) the walk resumes exactly where it stalled. This
//! is what lets the registry declare `supports_dynamic` for `probe-dfs`.

use crate::census::{enc, opt, Census, NO_PORT};
use disp_graph::Port;
use disp_sim::{
    bits, ActivationCtx, AgentId, AgentProtocol, ListArena, ListHandle, MoveError, World,
};

/// Attempt a move; `None` means the edge is down — wait in place and retry
/// on the next activation. Any other failure is a protocol bug.
fn try_move(ctx: &mut ActivationCtx<'_>, port: Port) -> Option<Port> {
    match ctx.try_move_via(port) {
        Ok(pin) => Some(pin),
        Err(MoveError::EdgeDown { .. }) => None,
        Err(e) => panic!("illegal probe-dfs move: {e}"),
    }
}

/// Milestone code recorded (when tracing is enabled) each time an agent
/// settles: exactly `k` of these fire in a dispersing run, one per agent,
/// at the node it ends on. Unsettling (a settler recruited as a guest and
/// later re-settled) records the code again at the new settlement.
pub const MILESTONE_SETTLED: u32 = 1;

/// The flattened role × stage tag — the one byte the dispatcher reads.
///
/// Grouped by role, contiguous per role so dispatch and memory accounting
/// test one range; boolean stage payloads (`found_settler`) are folded into
/// the tag so the packed field arrays hold only ports, counters and agent
/// references.
mod tag {
    /// Unsettled follower riding the leader's cohort (parked).
    pub const RIDER: u8 = 0;
    /// Settled at the current node. Fields: `p0` = parent port (opt).
    pub const SETTLED: u8 = 1;

    // Prober (fields: `p0` = probe port, `p1` = pin (opt), `p2` = origin
    // home port — `NO_PORT` means the prober is a follower, a real port a
    // recruited guest —, `p3` = origin saved parent port (opt), `aux0` =
    // recruited settler id while waiting for it to leave).
    pub const PROBER_OUT: u8 = 2;
    pub const PROBER_AT_NEIGHBOR: u8 = 3;
    pub const PROBER_WAIT_GUEST_GONE: u8 = 4;
    pub const PROBER_GO_HOME_EMPTY: u8 = 5;
    pub const PROBER_GO_HOME_FOUND: u8 = 6;
    pub const PROBER_RETURNED_EMPTY: u8 = 7;
    pub const PROBER_RETURNED_FOUND: u8 = 8;

    // Guest (fields: `p0` = saved parent port (opt), `p1` = travel port —
    // the walk port while moving, the home port while idle).
    pub const GUEST_TO_PROBE_SITE: u8 = 9;
    pub const GUEST_IDLE: u8 = 10;
    pub const GUEST_GOING_HOME: u8 = 11;

    // Escort (fields: `p0` = via, `p1` = pin (opt), `p2` = own home port —
    // `NO_PORT` means the escort is the node settler α(w) —, `p3` = own
    // saved parent port (opt), `aux0` = α(w)'s parent port, sentinel-coded).
    pub const ESCORT_GOING: u8 = 12;
    pub const ESCORT_AT_PARTNER_HOME: u8 = 13;
    pub const ESCORT_RETURNED: u8 = 14;

    // Leader (fields: `p0` = arrival pin (opt), `p1` = smallest port found
    // empty (opt), `p2` = solo-probe pin (opt), `aux0` = ports checked,
    // `aux1` = phase payload: probers assigned / recruited settler id /
    // expected idle guests).
    pub const LEAD_ENROLL: u8 = 15;
    pub const LEAD_DECIDE: u8 = 16;
    pub const LEAD_PROBE_ASSIGN: u8 = 17;
    pub const LEAD_PROBE_WAIT: u8 = 18;
    pub const LEAD_SOLO_OUT: u8 = 19;
    pub const LEAD_SOLO_AT_NEIGHBOR: u8 = 20;
    pub const LEAD_SOLO_WAIT_GUEST_GONE: u8 = 21;
    pub const LEAD_SOLO_RETURN_EMPTY: u8 = 22;
    pub const LEAD_SOLO_RETURN_FOUND: u8 = 23;
    pub const LEAD_SEE_OFF_ASSIGN: u8 = 24;
    pub const LEAD_SEE_OFF_WAIT: u8 = 25;
    pub const LEAD_SEE_OFF_WAIT_SETTLER: u8 = 26;
    pub const LEAD_ARRIVE_FORWARD: u8 = 27;
}

/// Number of memory classes (coarse roles with a fixed bit footprint):
/// rider, prober, guest, escort, settled, leader.
const CLASSES: usize = 6;

/// Class names, in class order.
const CLASS_NAMES: [&str; CLASSES] = ["rider", "prober", "guest", "escort", "settled", "leader"];

/// The memory class of a tag — the coarse role; every stage of a role has
/// the same persistent footprint.
fn class(t: u8) -> usize {
    match t {
        tag::RIDER => 0,
        tag::SETTLED => 4,
        tag::PROBER_OUT..=tag::PROBER_RETURNED_FOUND => 1,
        tag::GUEST_TO_PROBE_SITE..=tag::GUEST_GOING_HOME => 2,
        tag::ESCORT_GOING..=tag::ESCORT_RETURNED => 3,
        _ => 5,
    }
}

/// Per-class footprint in bits, counted as the paper counts it (the same
/// accounting the pre-SoA enum variants used).
fn class_bits_table(k: usize, max_degree: usize) -> [usize; CLASSES] {
    let id = bits::id_bits(k);
    let port = bits::port_bits(max_degree);
    let opt_port = bits::opt_port_bits(max_degree);
    [
        // rider: id + riding flag
        id + 1,
        // prober: id + stage + port + pin + origin flag + origin id + ports
        id + 3 + port + opt_port + 1 + id + 2 * opt_port,
        // guest: id + stage + saved parent + travel port
        id + 2 + opt_port + port,
        // escort: id + stage + guest ports + via + pin
        id + 2 + 2 * opt_port + port + opt_port,
        // settled: id + parent port
        id + opt_port,
        // leader: id + phase + counters + ports
        id + 4
            + bits::counter_bits(k as u64)
            + 1
            + port
            + 2 * opt_port
            + bits::counter_bits(max_degree as u64)
            + opt_port
            + opt_port,
    ]
}

/// The doubling-probe dispersion protocol (rooted configurations),
/// structure-of-arrays layout.
#[derive(Debug)]
pub struct ProbeDfs {
    /// Role × stage per agent (see [`tag`]) and the settler index.
    census: Census<CLASSES>,
    /// Packed port fields (`NO_PORT` = none); meaning per role in [`tag`].
    p0: Vec<Port>,
    p1: Vec<Port>,
    p2: Vec<Port>,
    p3: Vec<Port>,
    /// Packed counter / agent-reference fields; meaning per role in [`tag`].
    aux0: Vec<u32>,
    aux1: Vec<u32>,
    k: usize,
    /// The shared slab behind the three bookkeeping lists.
    lists: ListArena,
    /// Unsettled followers riding the cohort, ascending by id (front =
    /// smallest, the next to settle or probe).
    riders: ListHandle,
    /// Guests idle at the current probe node, ascending by id.
    idle_guests: ListHandle,
    /// Probers back at the probe node in arrival order, awaiting collection.
    returned_probers: ListHandle,
    /// Reusable drain buffer for prober collection and see-off pairing.
    scratch: Vec<AgentId>,
    /// Counts `Async_Probe` invocations (one per `Decide`), for tests.
    probe_invocations: u64,
    /// Largest number of probe iterations within a single invocation.
    max_probe_iterations: u32,
    current_probe_iterations: u32,
}

impl ProbeDfs {
    /// Build the protocol for a rooted world (all agents on one node).
    pub fn new(world: &World) -> Self {
        let k = world.num_agents();
        let root = world.position(AgentId(0));
        assert!(
            (0..k).all(|i| world.position(AgentId(i as u32)) == root),
            "ProbeDfs handles rooted initial configurations; use KsDfs or the general wrappers for scattered starts"
        );
        let leader = AgentId(k as u32 - 1);
        let mut tags = vec![tag::RIDER; k];
        tags[leader.index()] = tag::LEAD_ENROLL;
        let bits = class_bits_table(k, world.graph().max_degree());
        let mut lists = ListArena::new(k);
        let mut riders = ListHandle::new();
        for i in 0..k as u32 - 1 {
            lists.push_back(&mut riders, AgentId(i));
        }
        ProbeDfs {
            census: Census::new(world, tags, class, &CLASS_NAMES, bits),
            p0: vec![NO_PORT; k],
            p1: vec![NO_PORT; k],
            p2: vec![NO_PORT; k],
            p3: vec![NO_PORT; k],
            aux0: vec![0; k],
            aux1: vec![0; k],
            k,
            lists,
            riders,
            idle_guests: ListHandle::new(),
            returned_probers: ListHandle::new(),
            scratch: Vec::new(),
            probe_invocations: 0,
            max_probe_iterations: 0,
            current_probe_iterations: 0,
        }
    }

    /// Number of `Async_Probe` invocations so far (≤ 2(k-1) by Theorem 7.1's
    /// accounting).
    pub fn probe_invocations(&self) -> u64 {
        self.probe_invocations
    }

    /// Largest number of doubling iterations observed within one probe
    /// invocation (should stay `O(log min{k, Δ})`).
    pub fn max_probe_iterations(&self) -> u32 {
        self.max_probe_iterations
    }

    fn settle(&mut self, ctx: &mut ActivationCtx<'_>, agent: AgentId, parent_port: Option<Port>) {
        self.census.set_tag(agent.index(), tag::SETTLED);
        self.census.settlers.claim(ctx.node(), agent);
        self.p0[agent.index()] = enc(parent_port);
        ctx.milestone(agent, MILESTONE_SETTLED);
        ctx.park(agent);
    }

    fn unsettle(&mut self, ctx: &mut ActivationCtx<'_>, settler: AgentId) -> Option<Port> {
        debug_assert_eq!(
            self.census.tag(settler.index()),
            tag::SETTLED,
            "unsettle on a non-settled agent"
        );
        let parent_port = opt(self.p0[settler.index()]);
        self.census.settlers.release(ctx.node());
        ctx.wake(settler);
        parent_port
    }

    /// Settle the smallest rider at the current node — or the leader itself
    /// when the group is exhausted, in which case `true` is returned.
    fn settle_next(
        &mut self,
        ctx: &mut ActivationCtx<'_>,
        leader: AgentId,
        arrival_pin: Option<Port>,
    ) -> bool {
        match self.lists.pop_front(&mut self.riders) {
            None => {
                self.settle(ctx, leader, arrival_pin);
                true
            }
            Some(chosen) => {
                ctx.extract(chosen);
                self.settle(ctx, chosen, arrival_pin);
                // Test-of-the-test (see Cargo.toml): at the third
                // settlement, settle a second agent on the same node. The
                // invariant harness must catch this at that very step.
                #[cfg(feature = "inject-collision")]
                if self.census.settlers.count() == 3 {
                    if let Some(extra) = self.lists.pop_front(&mut self.riders) {
                        ctx.extract(extra);
                        self.settle(ctx, extra, arrival_pin);
                    }
                }
                false
            }
        }
    }

    // ------------------------------------------------------------------
    // Leader
    // ------------------------------------------------------------------

    #[allow(clippy::too_many_lines)]
    fn act_leader(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
        let a = agent.index();
        match self.census.tag(a) {
            tag::LEAD_ENROLL => {
                for i in 0..self.k as u32 {
                    if AgentId(i) != agent {
                        ctx.enroll(AgentId(i));
                    }
                }
                self.census.set_tag(a, tag::LEAD_DECIDE);
            }

            tag::LEAD_DECIDE => {
                if self.census.settlers.at(ctx.node()).is_none() {
                    // Start node: settle the smallest follower (or the leader
                    // itself if it is alone).
                    let arrival_pin = opt(self.p0[a]);
                    self.settle_next(ctx, agent, arrival_pin);
                } else {
                    // Begin a fresh Async_Probe invocation at this node.
                    self.aux0[a] = 0;
                    self.p1[a] = NO_PORT;
                    self.probe_invocations += 1;
                    self.current_probe_iterations = 0;
                    self.census.set_tag(a, tag::LEAD_PROBE_ASSIGN);
                }
            }

            tag::LEAD_PROBE_ASSIGN => {
                let checked = self.aux0[a];
                if self.p1[a] != NO_PORT || checked as usize >= ctx.degree() {
                    let next = if self.idle_guests.is_empty() {
                        // Settler is present; falls through to movement.
                        tag::LEAD_SEE_OFF_WAIT_SETTLER
                    } else {
                        tag::LEAD_SEE_OFF_ASSIGN
                    };
                    self.census.set_tag(a, next);
                } else {
                    self.current_probe_iterations += 1;
                    self.max_probe_iterations =
                        self.max_probe_iterations.max(self.current_probe_iterations);
                    let avail = self.idle_guests.len() + self.riders.len();
                    if avail == 0 {
                        // The leader is the only unsettled agent left at this
                        // node: probe the next port itself.
                        let port = Port(checked + 1);
                        if let Some(pin) = try_move(ctx, port) {
                            self.p2[a] = pin;
                            self.census.set_tag(a, tag::LEAD_SOLO_OUT);
                        }
                    } else {
                        // Assign the `want` smallest-id helpers from the
                        // union of idle guests and riders (both lists are
                        // ascending: merge by taking the smaller front).
                        let want = (ctx.degree() - checked as usize).min(avail);
                        for i in 0..want {
                            let port = Port(checked + 1 + i as u32);
                            let take_guest = match (self.idle_guests.front(), self.riders.front()) {
                                (Some(g), Some(r)) => g.0 < r.0,
                                (Some(_), None) => true,
                                (None, _) => false,
                            };
                            let helper = if take_guest {
                                let g = self
                                    .lists
                                    .pop_front(&mut self.idle_guests)
                                    .expect("guest available");
                                let gi = g.index();
                                debug_assert_eq!(self.census.tag(gi), tag::GUEST_IDLE);
                                // Guest home port / saved parent move to the
                                // prober origin slots p2/p3.
                                self.p2[gi] = self.p1[gi];
                                self.p3[gi] = self.p0[gi];
                                ctx.wake(g);
                                g
                            } else {
                                let r = self
                                    .lists
                                    .pop_front(&mut self.riders)
                                    .expect("rider available");
                                ctx.extract(r);
                                let ri = r.index();
                                self.p2[ri] = NO_PORT;
                                self.p3[ri] = NO_PORT;
                                r
                            };
                            let h = helper.index();
                            self.census.set_tag(h, tag::PROBER_OUT);
                            self.p0[h] = port;
                            self.p1[h] = NO_PORT;
                        }
                        self.aux0[a] = checked + want as u32;
                        self.aux1[a] = want as u32;
                        self.census.set_tag(a, tag::LEAD_PROBE_WAIT);
                    }
                }
            }

            tag::LEAD_PROBE_WAIT => {
                if self.returned_probers.len() as u32 == self.aux1[a] {
                    // Collect reports, revert probers (in arrival order).
                    let mut probers = std::mem::take(&mut self.scratch);
                    self.lists
                        .drain_into(&mut self.returned_probers, &mut probers);
                    for &prober in &probers {
                        let p = prober.index();
                        let found_settler = match self.census.tag(p) {
                            tag::PROBER_RETURNED_FOUND => true,
                            tag::PROBER_RETURNED_EMPTY => false,
                            t => unreachable!("returned prober in stage {t}"),
                        };
                        if !found_settler {
                            let port = self.p0[p];
                            self.p1[a] = match opt(self.p1[a]) {
                                Some(q) if q < port => q,
                                _ => port,
                            };
                        }
                        if self.p2[p] == NO_PORT {
                            // Follower origin: back onto the cohort.
                            self.census.set_tag(p, tag::RIDER);
                            ctx.enroll(prober);
                            self.lists.insert_sorted(&mut self.riders, prober);
                        } else {
                            // Guest origin: back to idling at the probe node.
                            self.census.set_tag(p, tag::GUEST_IDLE);
                            self.p0[p] = self.p3[p];
                            self.p1[p] = self.p2[p];
                            ctx.park(prober);
                            self.lists.insert_sorted(&mut self.idle_guests, prober);
                        }
                    }
                    probers.clear();
                    self.scratch = probers;
                    self.census.set_tag(a, tag::LEAD_PROBE_ASSIGN);
                }
            }

            tag::LEAD_SOLO_OUT => {
                // Arrived at the solo-probed neighbor.
                self.census.set_tag(a, tag::LEAD_SOLO_AT_NEIGHBOR);
            }

            tag::LEAD_SOLO_AT_NEIGHBOR => {
                if let Some(settler) = self.census.settlers.at(ctx.node()) {
                    let parent_port = self.unsettle(ctx, settler);
                    let s = settler.index();
                    self.census.set_tag(s, tag::GUEST_TO_PROBE_SITE);
                    self.p0[s] = enc(parent_port);
                    self.p1[s] = self.p2[a];
                    debug_assert_ne!(self.p1[s], NO_PORT, "solo pin recorded");
                    self.aux1[a] = settler.0;
                    self.census.set_tag(a, tag::LEAD_SOLO_WAIT_GUEST_GONE);
                } else {
                    let pin = self.p2[a];
                    debug_assert_ne!(pin, NO_PORT, "solo pin recorded");
                    if try_move(ctx, pin).is_some() {
                        self.census.set_tag(a, tag::LEAD_SOLO_RETURN_EMPTY);
                    }
                }
            }

            tag::LEAD_SOLO_WAIT_GUEST_GONE => {
                let recruited = AgentId(self.aux1[a]);
                if !ctx.is_colocated(recruited) {
                    let pin = self.p2[a];
                    debug_assert_ne!(pin, NO_PORT, "solo pin recorded");
                    if try_move(ctx, pin).is_some() {
                        self.census.set_tag(a, tag::LEAD_SOLO_RETURN_FOUND);
                    }
                }
            }

            t @ (tag::LEAD_SOLO_RETURN_EMPTY | tag::LEAD_SOLO_RETURN_FOUND) => {
                // Back at the DFS node.
                if t == tag::LEAD_SOLO_RETURN_EMPTY {
                    self.p1[a] = Port(self.aux0[a] + 1);
                }
                self.aux0[a] += 1;
                self.p2[a] = NO_PORT;
                self.census.set_tag(a, tag::LEAD_PROBE_ASSIGN);
            }

            tag::LEAD_SEE_OFF_ASSIGN => {
                let x = self.idle_guests.len();
                match x {
                    0 => self.movement(ctx, agent, tag::LEAD_SEE_OFF_ASSIGN),
                    1 => {
                        // α(w) escorts the single leftover guest home.
                        let guest = self
                            .lists
                            .pop_front(&mut self.idle_guests)
                            .expect("one idle guest");
                        let settler = self
                            .census
                            .settlers
                            .at(ctx.node())
                            .expect("probe node must have a settler");
                        let g = guest.index();
                        debug_assert_eq!(self.census.tag(g), tag::GUEST_IDLE);
                        let home_port = self.p1[g];
                        let settler_parent = self.unsettle(ctx, settler);
                        // The guest walks home: p0 (saved parent) stays and
                        // p1 already holds the home port it walks through.
                        self.census.set_tag(g, tag::GUEST_GOING_HOME);
                        ctx.wake(guest);
                        let s = settler.index();
                        self.census.set_tag(s, tag::ESCORT_GOING);
                        self.p0[s] = home_port;
                        self.p1[s] = NO_PORT;
                        self.p2[s] = NO_PORT;
                        self.p3[s] = NO_PORT;
                        self.aux0[s] = enc(settler_parent).0;
                        self.census.set_tag(a, tag::LEAD_SEE_OFF_WAIT_SETTLER);
                    }
                    x => {
                        let pairs = x / 2;
                        let mut guests = std::mem::take(&mut self.scratch);
                        self.lists.drain_into(&mut self.idle_guests, &mut guests);
                        for i in 0..pairs {
                            let walker = guests[2 * i];
                            let escort = guests[2 * i + 1];
                            let w = walker.index();
                            let e = escort.index();
                            let walker_parent = self.p0[w];
                            let walker_home = self.p1[w];
                            let escort_parent = self.p0[e];
                            let escort_home = self.p1[e];
                            // The first guest walks home (p1 already holds
                            // its home port); the second escorts it there.
                            self.census.set_tag(w, tag::GUEST_GOING_HOME);
                            ctx.wake(walker);
                            self.census.set_tag(e, tag::ESCORT_GOING);
                            self.p0[e] = walker_home;
                            self.p1[e] = NO_PORT;
                            self.p2[e] = escort_home;
                            self.p3[e] = escort_parent;
                            self.aux0[e] = walker_parent.0;
                            ctx.wake(escort);
                        }
                        // An odd leftover guest stays idle (and parked).
                        if x % 2 == 1 {
                            self.lists.push_back(&mut self.idle_guests, guests[x - 1]);
                        }
                        guests.clear();
                        self.scratch = guests;
                        self.aux1[a] = (x - pairs) as u32;
                        self.census.set_tag(a, tag::LEAD_SEE_OFF_WAIT);
                    }
                }
            }

            tag::LEAD_SEE_OFF_WAIT => {
                if self.idle_guests.len() as u32 == self.aux1[a] {
                    self.census.set_tag(a, tag::LEAD_SEE_OFF_ASSIGN);
                }
            }

            tag::LEAD_SEE_OFF_WAIT_SETTLER => {
                if self.census.settlers.at(ctx.node()).is_some() {
                    self.movement(ctx, agent, tag::LEAD_SEE_OFF_WAIT_SETTLER);
                }
            }

            tag::LEAD_ARRIVE_FORWARD => {
                debug_assert!(
                    self.census.settlers.at(ctx.node()).is_none(),
                    "forward target must be fully unsettled"
                );
                let arrival_pin = opt(self.p0[a]);
                if !self.settle_next(ctx, agent, arrival_pin) {
                    self.census.set_tag(a, tag::LEAD_DECIDE);
                }
            }

            t => unreachable!("act_leader on non-leader tag {t}"),
        }
    }

    /// Execute the DFS move (forward to the discovered unsettled neighbor, or
    /// backtrack to the parent) — the whole cohort rides along. When the
    /// dynamic adversary has the edge down, the group stays put and the
    /// leader remains in `stay`, retrying on its next activation.
    fn movement(&mut self, ctx: &mut ActivationCtx<'_>, leader: AgentId, stay: u8) {
        let a = leader.index();
        let (p, arrived) = match opt(self.p1[a]) {
            Some(p) => (p, tag::LEAD_ARRIVE_FORWARD),
            None => {
                let settler = self
                    .census
                    .settlers
                    .at(ctx.node())
                    .expect("backtracking from a settled node");
                debug_assert_eq!(self.census.tag(settler.index()), tag::SETTLED);
                let p = opt(self.p0[settler.index()])
                    .expect("DFS root can only be exhausted after every agent settled");
                (p, tag::LEAD_DECIDE)
            }
        };
        match ctx.try_move_cohort_via(p) {
            Ok(pin) => {
                self.p0[a] = pin;
                self.census.set_tag(a, arrived);
            }
            Err(MoveError::EdgeDown { .. }) => self.census.set_tag(a, stay),
            Err(e) => panic!("illegal probe-dfs cohort move: {e}"),
        }
    }

    // ------------------------------------------------------------------
    // Helpers
    // ------------------------------------------------------------------

    fn act_prober(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
        let a = agent.index();
        match self.census.tag(a) {
            tag::PROBER_OUT => {
                if let Some(p) = try_move(ctx, self.p0[a]) {
                    self.p1[a] = p;
                    self.census.set_tag(a, tag::PROBER_AT_NEIGHBOR);
                }
            }
            tag::PROBER_AT_NEIGHBOR => {
                if let Some(settler) = self.census.settlers.at(ctx.node()) {
                    let parent_port = self.unsettle(ctx, settler);
                    let s = settler.index();
                    self.census.set_tag(s, tag::GUEST_TO_PROBE_SITE);
                    self.p0[s] = enc(parent_port);
                    self.p1[s] = self.p1[a];
                    debug_assert_ne!(self.p1[s], NO_PORT, "pin recorded on the way out");
                    self.aux0[a] = settler.0;
                    self.census.set_tag(a, tag::PROBER_WAIT_GUEST_GONE);
                } else {
                    self.census.set_tag(a, tag::PROBER_GO_HOME_EMPTY);
                }
            }
            tag::PROBER_WAIT_GUEST_GONE => {
                let recruited = AgentId(self.aux0[a]);
                if !ctx.is_colocated(recruited) {
                    self.census.set_tag(a, tag::PROBER_GO_HOME_FOUND);
                }
            }
            t @ (tag::PROBER_GO_HOME_EMPTY | tag::PROBER_GO_HOME_FOUND) => {
                let pin = self.p1[a];
                debug_assert_ne!(pin, NO_PORT, "pin recorded on the way out");
                if try_move(ctx, pin).is_some() {
                    self.census.set_tag(
                        a,
                        if t == tag::PROBER_GO_HOME_FOUND {
                            tag::PROBER_RETURNED_FOUND
                        } else {
                            tag::PROBER_RETURNED_EMPTY
                        },
                    );
                    self.lists.push_back(&mut self.returned_probers, agent);
                    ctx.park(agent);
                }
            }
            tag::PROBER_RETURNED_EMPTY | tag::PROBER_RETURNED_FOUND => {}
            t => unreachable!("act_prober on non-prober tag {t}"),
        }
    }

    fn act_guest(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
        let a = agent.index();
        match self.census.tag(a) {
            tag::GUEST_TO_PROBE_SITE => {
                let Some(pin) = try_move(ctx, self.p1[a]) else {
                    return;
                };
                self.census.set_tag(a, tag::GUEST_IDLE);
                self.p1[a] = pin;
                self.lists.insert_sorted(&mut self.idle_guests, agent);
                ctx.park(agent);
            }
            tag::GUEST_IDLE => {}
            tag::GUEST_GOING_HOME => {
                if try_move(ctx, self.p1[a]).is_none() {
                    return;
                }
                // Re-settle at home: p0 already holds the saved parent port.
                self.census.set_tag(a, tag::SETTLED);
                self.census.settlers.claim(ctx.node(), agent);
                ctx.park(agent);
            }
            t => unreachable!("act_guest on non-guest tag {t}"),
        }
    }

    fn act_escort(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
        let a = agent.index();
        match self.census.tag(a) {
            tag::ESCORT_GOING => {
                if let Some(p) = try_move(ctx, self.p0[a]) {
                    self.p1[a] = p;
                    self.census.set_tag(a, tag::ESCORT_AT_PARTNER_HOME);
                }
            }
            tag::ESCORT_AT_PARTNER_HOME => {
                // Wait until the partner guest has arrived and re-settled.
                if self.census.settlers.at(ctx.node()).is_some() {
                    let pin = self.p1[a];
                    debug_assert_ne!(pin, NO_PORT, "pin recorded on the way out");
                    if try_move(ctx, pin).is_some() {
                        self.census.set_tag(a, tag::ESCORT_RETURNED);
                    }
                }
            }
            tag::ESCORT_RETURNED => {
                // Restore.
                if self.p2[a] == NO_PORT {
                    // α(w): re-settle at the probe node.
                    self.census.set_tag(a, tag::SETTLED);
                    self.census.settlers.claim(ctx.node(), agent);
                    self.p0[a] = Port(self.aux0[a]);
                    ctx.park(agent);
                } else {
                    // A guest escort: back to idling at the probe node.
                    self.census.set_tag(a, tag::GUEST_IDLE);
                    self.p0[a] = self.p3[a];
                    self.p1[a] = self.p2[a];
                    self.lists.insert_sorted(&mut self.idle_guests, agent);
                    ctx.park(agent);
                }
            }
            t => unreachable!("act_escort on non-escort tag {t}"),
        }
    }
}

impl AgentProtocol for ProbeDfs {
    fn on_activate(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
        match self.census.tag(agent.index()) {
            tag::RIDER | tag::SETTLED => {}
            tag::PROBER_OUT..=tag::PROBER_RETURNED_FOUND => self.act_prober(agent, ctx),
            tag::GUEST_TO_PROBE_SITE..=tag::GUEST_GOING_HOME => self.act_guest(agent, ctx),
            tag::ESCORT_GOING..=tag::ESCORT_RETURNED => self.act_escort(agent, ctx),
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
        "probe-dfs"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::verify::{check_dispersion, envelope};
    use disp_graph::{generators, NodeId, Topology};
    use disp_sim::{
        AsyncRunner, LaggingAdversary, Outcome, RandomSubsetAdversary, RoundRobinAdversary,
        RunConfig, SyncRunner,
    };

    fn run_sync(world: &mut World) -> (Outcome, ProbeDfs) {
        let mut proto = ProbeDfs::new(world);
        let out = SyncRunner::new(RunConfig::default())
            .run(world, &mut proto)
            .expect("probe-dfs must terminate");
        check_dispersion(world).expect("probe-dfs must disperse");
        (out, proto)
    }

    fn run_async(world: &mut World, seed: u64) -> (Outcome, ProbeDfs) {
        let mut proto = ProbeDfs::new(world);
        let k = world.num_agents();
        let out = AsyncRunner::new(
            RunConfig::default(),
            RandomSubsetAdversary::new(0.5, k, seed),
        )
        .run(world, &mut proto)
        .expect("probe-dfs must terminate");
        check_dispersion(world).expect("probe-dfs must disperse");
        (out, proto)
    }

    #[test]
    fn line_rooted_sync() {
        let g = generators::line(16);
        let mut world = World::new_rooted(g, 16, NodeId(0));
        let (out, _) = run_sync(&mut world);
        assert!(out.terminated);
        assert!(envelope::within_k_log_k(&out, 25.0));
    }

    #[test]
    fn star_rooted_sync_probes_in_logarithmic_iterations() {
        let g = generators::star(40);
        let mut world = World::new_rooted(g, 40, NodeId(0));
        let (_, proto) = run_sync(&mut world);
        // Doubling probers: ⌈log₂ 39⌉ + 1 iterations at the hub at most.
        assert!(
            proto.max_probe_iterations() <= 8,
            "expected O(log k) probe iterations, saw {}",
            proto.max_probe_iterations()
        );
    }

    #[test]
    fn star_rooted_from_leaf() {
        let g = generators::star(24);
        let mut world = World::new_rooted(g, 24, NodeId(5));
        run_sync(&mut world);
    }

    #[test]
    fn complete_graph_rooted() {
        let g = generators::complete(12);
        let mut world = World::new_rooted(g, 12, NodeId(3));
        run_sync(&mut world);
    }

    #[test]
    fn implicit_topologies_rooted() {
        for t in [
            Topology::complete(24),
            Topology::hypercube(5),
            Topology::torus(5, 5),
        ] {
            let k = t.num_nodes();
            let mut world = World::new_rooted(t.clone(), k, NodeId(1));
            run_sync(&mut world);
            let mut world = World::new_rooted(t, k, NodeId(0));
            run_async(&mut world, 7);
        }
    }

    #[test]
    fn random_trees_many_seeds() {
        for seed in 0..4 {
            let g = generators::random_tree(30, seed);
            let mut world = World::new_rooted(g, 30, NodeId(0));
            run_sync(&mut world);
        }
    }

    #[test]
    fn random_graphs_k_less_than_n() {
        for seed in 0..3 {
            let g = generators::erdos_renyi_connected(40, 0.1, seed);
            let mut world = World::new_rooted(g, 25, NodeId(1));
            run_sync(&mut world);
        }
    }

    #[test]
    fn tiny_configurations() {
        for k in 1..=4 {
            let g = generators::line(6);
            let mut world = World::new_rooted(g, k, NodeId(2));
            let (out, _) = run_sync(&mut world);
            assert!(out.terminated, "k={k} must terminate");
        }
    }

    #[test]
    fn probe_invocation_count_is_at_most_2k() {
        let g = generators::random_tree(40, 11);
        let mut world = World::new_rooted(g, 40, NodeId(0));
        let (_, proto) = run_sync(&mut world);
        assert!(
            proto.probe_invocations() <= 2 * 40,
            "Async_Probe invoked {} times, expected ≤ 2(k-1)",
            proto.probe_invocations()
        );
    }

    #[test]
    fn async_round_robin() {
        let g = generators::random_tree(25, 2);
        let mut world = World::new_rooted(g, 25, NodeId(0));
        let mut proto = ProbeDfs::new(&world);
        let out = AsyncRunner::new(RunConfig::default(), RoundRobinAdversary::new(25))
            .run(&mut world, &mut proto)
            .unwrap();
        check_dispersion(&world).unwrap();
        assert!(envelope::within_k_log_k(&out, 40.0));
    }

    #[test]
    fn async_random_subset_various_seeds() {
        for seed in 0..3 {
            let g = generators::erdos_renyi_connected(30, 0.12, seed);
            let mut world = World::new_rooted(g, 30, NodeId(0));
            run_async(&mut world, seed * 7 + 1);
        }
    }

    #[test]
    fn async_lagging_adversary() {
        let g = generators::star(20);
        let mut world = World::new_rooted(g, 20, NodeId(0));
        let mut proto = ProbeDfs::new(&world);
        AsyncRunner::new(RunConfig::default(), LaggingAdversary::new(5, 20, 9))
            .run(&mut world, &mut proto)
            .unwrap();
        check_dispersion(&world).unwrap();
    }

    #[test]
    fn async_grid() {
        let g = generators::grid2d(5, 5);
        let mut world = World::new_rooted(g, 25, NodeId(12));
        run_async(&mut world, 3);
    }

    #[test]
    fn memory_stays_logarithmic() {
        let g = generators::star(80);
        let mut world = World::new_rooted(g, 80, NodeId(0));
        let (out, _) = run_sync(&mut world);
        assert!(
            envelope::memory_logarithmic(&out, 30.0),
            "peak {} bits is not O(log(k+Δ))",
            out.peak_memory_bits
        );
    }

    #[test]
    fn rides_are_charged_like_individual_moves() {
        // On a rooted line, the agent settling at distance d must have been
        // charged exactly d moves for the ride (plus any probe trips), and
        // the total is Θ(k²)/2-ish — the cohort compression must not change
        // the accounting.
        let k = 24;
        let g = generators::line(k);
        let mut world = World::new_rooted(g, k, NodeId(0));
        let (out, _) = run_sync(&mut world);
        let lower = (k * (k - 1) / 2) as u64;
        assert!(
            out.total_moves >= lower,
            "total_moves {} below the ride sum {lower}",
            out.total_moves
        );
        assert!(out.max_moves_per_agent >= (k as u64) - 1);
    }

    #[test]
    fn beats_scan_baseline_on_the_complete_graph() {
        // The separating instance for probing vs scanning is a dense graph:
        // on K_k the scan baseline pays Θ(k²) (each new node re-examines the
        // already-settled neighbors one at a time) while doubling probes pay
        // O(k log k). The star is *not* separating — there every scan hits an
        // empty leaf immediately — which is exactly the `min{m, kΔ}` shape
        // the paper's Table 1 describes.
        let k = 40;
        let g = generators::complete(k);
        let mut probe_world = World::new_rooted(g.clone(), k, NodeId(0));
        let (probe_out, _) = run_sync(&mut probe_world);
        let mut scan_world = World::new_rooted(g, k, NodeId(0));
        let mut scan = crate::KsDfs::new(&scan_world);
        let scan_out = SyncRunner::new(RunConfig::default())
            .run(&mut scan_world, &mut scan)
            .unwrap();
        assert!(
            (probe_out.rounds as f64) < 0.7 * scan_out.rounds as f64,
            "probe {} rounds should clearly beat scan {} rounds on K_{k}",
            probe_out.rounds,
            scan_out.rounds
        );
        assert!(envelope::within_k_log_k(&probe_out, 30.0));
    }

    #[test]
    #[should_panic(expected = "rooted")]
    fn rejects_non_rooted_start() {
        let g = generators::line(6);
        let world = World::new(g, vec![NodeId(0), NodeId(3)]);
        let _ = ProbeDfs::new(&world);
    }
}
