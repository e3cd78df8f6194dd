//! The world: agent positions, co-location, the movement API — and the
//! flat-state machinery that makes million-agent runs tractable.
//!
//! ## Flat state
//!
//! Positions are a flat array; per-node occupancy is an intrusive, index-
//! linked doubly-linked list (`head[v]` / `next[a]` / `prev[a]`), so a move
//! is O(1) pointer surgery with zero allocation and co-location queries
//! borrow straight from the arrays. "Is agent `x` here?" needs no list at
//! all: [`ActivationCtx::is_colocated`] answers it in O(1) from the flat
//! position, cohort and crash arrays.
//!
//! ## The active-agent worklist
//!
//! The runners only activate agents on the world's *active* list. A protocol
//! may [`ActivationCtx::park`] an agent whose `on_activate` has become a
//! guaranteed no-op (a settled agent, a passenger waiting for extraction)
//! and must [`ActivationCtx::wake`] it when some other agent's action makes
//! it actionable again (a prober recruiting a settler). Skipped activations
//! are *credited* in the time accounting, so rounds/steps/epochs are
//! identical to activating everyone — the worklist only removes the O(k)
//! per-round scan over agents that would do nothing.
//!
//! **Contract**: parking an agent whose activation could still act changes
//! behaviour; the invariant harness (`crates/core/tests/invariants.rs`)
//! exists to catch such protocol bugs.
//!
//! ## Cohorts (convoy rides)
//!
//! DFS-style dispersion moves a whole group of unsettled agents one edge at
//! a time; simulating each passenger's move individually costs Θ(k²) work
//! on a rooted line. A *cohort* compresses the ride: a driver enrolls
//! co-located agents ([`ActivationCtx::enroll`]), moves the whole cohort
//! with one O(1) operation per edge ([`ActivationCtx::move_cohort_via`]),
//! and extracts members back into the world when they are needed
//! ([`ActivationCtx::extract`]). Every member is still charged one move per
//! edge ridden (`total_moves` eagerly, `moves_per_agent` on extraction), so
//! the reported metrics equal the per-agent execution's; the realized
//! schedule is the one where every passenger executes the driver's order
//! immediately — a valid refinement of the follower/flip-order movement
//! protocol (see `DESIGN.md` §8). Riding agents are parked and invisible to
//! co-location queries; their authoritative position is the cohort's node.

use crate::ids::AgentId;
use crate::metrics::Metrics;
use crate::observe::Observer;
use crate::trace::TraceEvent;
use disp_graph::{EdgeLiveness, NodeId, Port, Topology};

const NONE: u32 = u32::MAX;

/// Errors that a movement attempt can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MoveError {
    /// The agent already traversed an edge during this activation.
    AlreadyMoved,
    /// The requested port does not exist at the agent's current node.
    InvalidPort {
        /// The requested port.
        port: Port,
        /// Degree of the node the agent is at.
        degree: usize,
    },
    /// The port exists but its edge is currently dead (dynamic world).
    /// Unlike [`MoveError::InvalidPort`] this is *not* a protocol bug: a
    /// dynamic adversary may cut any edge, and the model's response is to
    /// wait out the round — protocols recover via
    /// [`ActivationCtx::try_move_via`].
    EdgeDown {
        /// The requested port.
        port: Port,
    },
}

impl std::fmt::Display for MoveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MoveError::AlreadyMoved => write!(f, "agent already moved during this activation"),
            MoveError::InvalidPort { port, degree } => {
                write!(f, "port {port} invalid at a node of degree {degree}")
            }
            MoveError::EdgeDown { port } => {
                write!(f, "the edge behind port {port} is currently removed")
            }
        }
    }
}

impl std::error::Error for MoveError {}

#[derive(Debug, Clone)]
struct Cohort {
    /// Current node of the whole cohort.
    node: NodeId,
    /// Edges traversed by the cohort since creation.
    hops: u64,
    /// Number of riding members.
    members: u32,
    /// Head of the member list (threaded through `next`/`prev`).
    head: u32,
    /// The driving agent — needed to sever `driving` when the last member
    /// leaves and the slot goes back on the free list.
    driver: u32,
}

/// Mutable world state: where every agent is, plus bookkeeping.
///
/// The world does not know anything about the algorithm being run; protocols
/// keep their own per-agent state and interact with the world only through
/// [`ActivationCtx`].
#[derive(Debug, Clone)]
pub struct World {
    graph: Topology,
    /// Concrete position of every non-riding agent; for riders the
    /// authoritative position is their cohort's node.
    positions: Vec<NodeId>,
    /// Per-node occupancy list head (concrete agents only).
    head: Vec<u32>,
    /// Intrusive list links; an agent is threaded either through its node's
    /// occupancy list or through its cohort's member list.
    next: Vec<u32>,
    prev: Vec<u32>,
    cohorts: Vec<Cohort>,
    /// Recyclable `cohorts` slots: a cohort whose last member leaves goes
    /// back here, so trials that form and disband many convoys reuse a
    /// handful of slots instead of growing `cohorts` forever.
    free_cohorts: Vec<u32>,
    /// `agent → cohort` while riding, `NONE` otherwise.
    cohort_of: Vec<u32>,
    /// `agent → cohort` while driving one, `NONE` otherwise.
    driving: Vec<u32>,
    /// Cohort hop count at the moment the agent enrolled.
    ride_start: Vec<u64>,
    /// The scheduler worklist (unsorted; swap-removed on park).
    active: Vec<AgentId>,
    /// `agent → index in active`, `NONE` when parked.
    active_pos: Vec<u32>,
    /// Ascending copy of `active`, valid while `active_clean`. Runners read
    /// the sorted worklist every round/step but the worklist itself only
    /// changes on park/wake/crash — caching the sort here turns the common
    /// quiet round's snapshot into a no-op (ASYNC) or a small memcpy (SYNC).
    active_sorted: Vec<AgentId>,
    /// Whether `active_sorted` currently mirrors `active`.
    active_clean: bool,
    /// Genuine park/wake transitions (`true` = woke) since the last
    /// [`World::drain_transitions`] call, in occurrence order. The runners
    /// drain this every round/step: the SYNC runner to inject same-round
    /// wakes, the ASYNC runner to feed the adversary's timer structures and
    /// the clock's epoch requirement bookkeeping.
    transitions: Vec<(AgentId, bool)>,
    moved: Vec<bool>,
    /// Edge-liveness overlay; `None` (the common case) means every edge is
    /// alive and movement skips the liveness probe entirely.
    liveness: Option<EdgeLiveness>,
    /// Crash-fault flags: a dead agent is permanently parked, unlinked from
    /// occupancy, and excluded from dispersion verification.
    dead: Vec<bool>,
    dead_count: usize,
    metrics: Metrics,
}

/// Reset `v` to `len` copies of `fill`, keeping its allocation.
fn refill<T: Copy>(v: &mut Vec<T>, len: usize, fill: T) {
    v.clear();
    v.resize(len, fill);
}

/// A recyclable allocation shell for [`World`]s.
///
/// Campaigns that run thousands of *small* trials (the batched micro-trial
/// path) spend a measurable share of their time in the ~15 `Vec`
/// allocations each `World::new` performs. A pool keeps the buffers of a
/// finished world and rebuilds the next trial's world inside them:
/// [`WorldPool::take`] is state-identical to [`World::new`] (the
/// `pooled_world_is_indistinguishable_from_a_fresh_one` test pins this), so
/// pooled and unpooled trials of the same seed produce byte-identical
/// outcomes. After the first trial of a batch, `take` allocates nothing as
/// long as instance sizes do not grow.
#[derive(Debug, Default)]
pub struct WorldPool {
    shell: Option<World>,
}

impl WorldPool {
    /// An empty pool; the first [`WorldPool::take`] falls back to
    /// [`World::new`].
    pub fn new() -> Self {
        WorldPool::default()
    }

    /// Build a world for `positions`, reusing the pooled allocations when
    /// available.
    pub fn take(&mut self, graph: impl Into<Topology>, positions: Vec<NodeId>) -> World {
        match self.shell.take() {
            None => World::new(graph, positions),
            Some(shell) => World::rebuild(shell, graph.into(), positions),
        }
    }

    /// Return a finished world's allocations to the pool (its graph and
    /// run state are discarded on the next [`WorldPool::take`]).
    pub fn put(&mut self, world: World) {
        self.shell = Some(world);
    }
}

impl World {
    /// Create a world with the given initial agent positions (`positions[i]`
    /// is the start node of agent `i`).
    pub fn new(graph: impl Into<Topology>, positions: Vec<NodeId>) -> Self {
        let graph = graph.into();
        let k = positions.len();
        Self::check_instance(&graph, &positions);
        let mut world = World {
            graph,
            positions,
            head: Vec::new(),
            next: Vec::new(),
            prev: Vec::new(),
            cohorts: Vec::new(),
            free_cohorts: Vec::new(),
            cohort_of: Vec::new(),
            driving: Vec::new(),
            ride_start: Vec::new(),
            active: Vec::new(),
            active_pos: Vec::new(),
            active_sorted: Vec::new(),
            active_clean: false,
            transitions: Vec::new(),
            moved: Vec::new(),
            liveness: None,
            dead: Vec::new(),
            dead_count: 0,
            metrics: Metrics::new(k),
        };
        world.init_buffers();
        world
    }

    /// Rebuild a world inside `shell`'s allocations — the [`WorldPool`]
    /// fast path. Must leave every field exactly as [`World::new`] would;
    /// the exhaustive destructure below makes adding a `World` field
    /// without deciding its reset policy a compile error.
    fn rebuild(shell: World, graph: Topology, positions: Vec<NodeId>) -> World {
        Self::check_instance(&graph, &positions);
        let k = positions.len();
        let World {
            graph: _,
            positions: _,
            head,
            next,
            prev,
            mut cohorts,
            mut free_cohorts,
            cohort_of,
            driving,
            ride_start,
            active,
            active_pos,
            mut active_sorted,
            active_clean: _,
            mut transitions,
            moved,
            liveness: _,
            dead,
            dead_count: _,
            metrics: old_metrics,
        } = shell;
        cohorts.clear();
        free_cohorts.clear();
        active_sorted.clear();
        transitions.clear();
        let mut world = World {
            graph,
            positions,
            head,
            next,
            prev,
            cohorts,
            free_cohorts,
            cohort_of,
            driving,
            ride_start,
            active,
            active_pos,
            active_sorted,
            active_clean: false,
            transitions,
            moved,
            liveness: None,
            dead,
            dead_count: 0,
            metrics: old_metrics.into_reset(k),
        };
        world.init_buffers();
        world
    }

    fn check_instance(graph: &Topology, positions: &[NodeId]) {
        assert!(!positions.is_empty(), "a world needs at least one agent");
        assert!(
            positions.len() <= graph.num_nodes(),
            "the dispersion model requires k ≤ n (got k={} agents on n={} nodes)",
            positions.len(),
            graph.num_nodes()
        );
    }

    /// Size every per-node/per-agent buffer for the current instance and
    /// link the occupancy lists. Shared by [`World::new`] (fresh buffers)
    /// and [`World::rebuild`] (pooled buffers).
    fn init_buffers(&mut self) {
        let k = self.positions.len();
        let n = self.graph.num_nodes();
        refill(&mut self.head, n, NONE);
        refill(&mut self.next, k, NONE);
        refill(&mut self.prev, k, NONE);
        refill(&mut self.cohort_of, k, NONE);
        refill(&mut self.driving, k, NONE);
        refill(&mut self.ride_start, k, 0);
        refill(&mut self.moved, k, false);
        refill(&mut self.dead, k, false);
        self.active.clear();
        self.active.extend((0..k as u32).map(AgentId));
        self.active_pos.clear();
        self.active_pos.extend(0..k as u32);
        self.active_sorted.clear();
        self.active_clean = false;
        // Link occupancy lists in reverse so list order is ascending by id
        // (link_to_node rewrites positions[i] with the same value).
        for i in (0..k).rev() {
            let v = self.positions[i];
            assert!(v.index() < n, "agent {i} starts at nonexistent node {v}");
            self.link_to_node(i, v);
        }
    }

    /// Create a *rooted* initial configuration: all `k` agents start on
    /// `root`.
    pub fn new_rooted(graph: impl Into<Topology>, k: usize, root: NodeId) -> Self {
        World::new(graph, vec![root; k])
    }

    /// Number of agents `k`.
    #[inline]
    pub fn num_agents(&self) -> usize {
        self.positions.len()
    }

    /// The underlying topology.
    ///
    /// Intended for verifiers, metrics and the experiment harness. Protocol
    /// implementations must not use it for algorithmic decisions — agents only
    /// ever observe their local node through [`ActivationCtx`].
    #[inline]
    pub fn graph(&self) -> &Topology {
        &self.graph
    }

    /// Current node of `agent` (cohort-aware).
    #[inline]
    pub fn position(&self, agent: AgentId) -> NodeId {
        let c = self.cohort_of[agent.index()];
        if c == NONE {
            self.positions[agent.index()]
        } else {
            self.cohorts[c as usize].node
        }
    }

    /// Current positions of all agents, indexed by agent (materialized; use
    /// [`World::position`] for single lookups).
    pub fn snapshot_positions(&self) -> Vec<NodeId> {
        (0..self.num_agents())
            .map(|i| self.position(AgentId(i as u32)))
            .collect()
    }

    /// Concrete agents currently located at node `v`, in ascending-insertion
    /// order. Cohort members riding through `v` are *not* listed; they are
    /// only reachable through their driver (see the module docs).
    #[inline]
    pub fn agents_at(&self, v: NodeId) -> AgentIter<'_> {
        AgentIter {
            next: &self.next,
            cur: self.head[v.index()],
        }
    }

    /// Movement and memory metrics accumulated so far.
    #[inline]
    pub fn metrics(&self) -> &Metrics {
        &self.metrics
    }

    // ------------------------------------------------------------------
    // Dynamic edges (liveness overlay)
    // ------------------------------------------------------------------

    /// Attach the edge-liveness overlay (idempotent). Static worlds never
    /// pay for it: without an overlay, movement skips the liveness probe.
    pub fn enable_liveness(&mut self) {
        if self.liveness.is_none() {
            self.liveness = Some(EdgeLiveness::new(&self.graph));
        }
    }

    /// The edge-liveness overlay, if any edge dynamics were enabled.
    #[inline]
    pub fn liveness(&self) -> Option<&EdgeLiveness> {
        self.liveness.as_ref()
    }

    /// Kill the edge behind port `p` at node `v` (attaching the overlay on
    /// first use). Returns whether the edge was alive. Agents standing on
    /// either endpoint are unaffected until they try to cross it.
    pub fn kill_edge(&mut self, v: NodeId, p: Port) -> bool {
        self.enable_liveness();
        let live = self.liveness.as_mut().expect("just enabled");
        live.kill(&self.graph, v, p)
    }

    /// Restore the edge behind port `p` at node `v`. Returns whether the
    /// edge was dead.
    pub fn revive_edge(&mut self, v: NodeId, p: Port) -> bool {
        self.enable_liveness();
        let live = self.liveness.as_mut().expect("just enabled");
        live.revive(&self.graph, v, p)
    }

    // ------------------------------------------------------------------
    // Crash faults
    // ------------------------------------------------------------------

    /// Whether `agent` has crashed.
    #[inline]
    pub fn is_dead(&self, agent: AgentId) -> bool {
        self.dead[agent.index()]
    }

    /// Number of crashed agents.
    #[inline]
    pub fn dead_count(&self) -> usize {
        self.dead_count
    }

    /// Crash `agent`: it permanently leaves the world. A settled victim's
    /// node is *orphaned* — the agent is unlinked from the occupancy list,
    /// so survivors see the node as free and may re-settle it. A driving
    /// victim's cohort disbands first (members rematerialize at the
    /// cohort's node, rides fully credited, and wake); a riding victim is
    /// extracted the same way before dying. The agent's last position stays
    /// readable via [`World::position`] for verification.
    ///
    /// Crashes are driven by the runners at round/step boundaries, never
    /// mid-activation.
    ///
    /// # Panics
    /// Panics if `agent` already crashed.
    pub fn crash(&mut self, agent: AgentId) {
        let a = agent.index();
        assert!(!self.dead[a], "agent {agent} crashed twice");
        if self.driving[a] != NONE {
            // Disband: extract members one at a time (each extract pops the
            // member list's head).
            while let Some(member) = self.cohort_members(agent).next() {
                self.extract_member(member);
            }
        }
        if self.cohort_of[a] != NONE {
            self.extract_member(agent);
        }
        self.unlink_from_node(a);
        self.park(agent);
        self.dead[a] = true;
        self.dead_count += 1;
    }

    /// Mutable access to metrics (used by the runners for memory sampling).
    #[inline]
    pub(crate) fn metrics_mut(&mut self) -> &mut Metrics {
        &mut self.metrics
    }

    // ------------------------------------------------------------------
    // Worklist
    // ------------------------------------------------------------------

    /// Whether `agent` is on the active worklist.
    #[inline]
    pub fn is_active(&self, agent: AgentId) -> bool {
        self.active_pos[agent.index()] != NONE
    }

    /// Number of active (schedulable) agents.
    #[inline]
    pub fn active_count(&self) -> usize {
        self.active.len()
    }

    /// The active list sorted ascending by agent id (the SYNC runner's
    /// per-round activation order and the ASYNC adversaries' canonical
    /// worklist view), served from the cache — the sort reruns only when a
    /// park/wake/crash dirtied the worklist since the last call.
    pub(crate) fn active_sorted(&mut self) -> &[AgentId] {
        if !self.active_clean {
            self.active_sorted.clear();
            self.active_sorted.extend_from_slice(&self.active);
            self.active_sorted.sort_unstable();
            self.active_clean = true;
        }
        &self.active_sorted
    }

    /// The sorted active list together with the `agent → worklist slot`
    /// index (`NONE` = `u32::MAX` when parked): the worklist half of an
    /// adversary's [`StepView`](crate::adversary::StepView).
    pub(crate) fn schedule_view(&mut self) -> (&[AgentId], &[u32]) {
        self.active_sorted();
        (&self.active_sorted, &self.active_pos)
    }

    /// Copy the sorted active list into `buf` (for callers that go on to
    /// mutate their copy, like the SYNC runner's same-round wake injection).
    pub(crate) fn snapshot_active_sorted(&mut self, buf: &mut Vec<AgentId>) {
        self.active_sorted();
        buf.clear();
        buf.extend_from_slice(&self.active_sorted);
    }

    /// The active worklist in internal (unsorted) order — set semantics
    /// only; the clock's epoch bookkeeping iterates it.
    #[inline]
    pub(crate) fn active_slice(&self) -> &[AgentId] {
        &self.active
    }

    /// Drain the park/wake transitions recorded since the last call
    /// (`true` = woke), in occurrence order.
    pub(crate) fn drain_transitions(&mut self, buf: &mut Vec<(AgentId, bool)>) {
        buf.clear();
        buf.append(&mut self.transitions);
    }

    /// Remove `agent` from the worklist (no-op if already parked).
    pub fn park(&mut self, agent: AgentId) {
        let i = self.active_pos[agent.index()];
        if i == NONE {
            return;
        }
        let last = self.active.pop().expect("active_pos points into active");
        if last != agent {
            self.active[i as usize] = last;
            self.active_pos[last.index()] = i;
        }
        self.active_pos[agent.index()] = NONE;
        self.active_clean = false;
        self.transitions.push((agent, false));
    }

    /// Put `agent` back on the worklist (no-op if already active).
    pub fn wake(&mut self, agent: AgentId) {
        if self.active_pos[agent.index()] != NONE {
            return;
        }
        self.active_pos[agent.index()] = self.active.len() as u32;
        self.active.push(agent);
        self.active_clean = false;
        self.transitions.push((agent, true));
    }

    // ------------------------------------------------------------------
    // Occupancy list surgery
    // ------------------------------------------------------------------

    fn unlink_from_node(&mut self, a: usize) {
        let v = self.positions[a].index();
        let (p, n) = (self.prev[a], self.next[a]);
        if p == NONE {
            self.head[v] = n;
        } else {
            self.next[p as usize] = n;
        }
        if n != NONE {
            self.prev[n as usize] = p;
        }
    }

    fn link_to_node(&mut self, a: usize, v: NodeId) {
        let h = self.head[v.index()];
        self.prev[a] = NONE;
        self.next[a] = h;
        if h != NONE {
            self.prev[h as usize] = a as u32;
        }
        self.head[v.index()] = a as u32;
        self.positions[a] = v;
    }

    // ------------------------------------------------------------------
    // Cohorts
    // ------------------------------------------------------------------

    /// Number of members riding in `driver`'s cohort (0 if it has none).
    pub fn cohort_len(&self, driver: AgentId) -> usize {
        match self.driving[driver.index()] {
            NONE => 0,
            c => self.cohorts[c as usize].members as usize,
        }
    }

    /// Iterator over the members of `driver`'s cohort (unspecified order).
    pub fn cohort_members(&self, driver: AgentId) -> AgentIter<'_> {
        let cur = match self.driving[driver.index()] {
            NONE => NONE,
            c => self.cohorts[c as usize].head,
        };
        AgentIter {
            next: &self.next,
            cur,
        }
    }

    fn enroll(&mut self, driver: AgentId, member: AgentId) {
        assert_ne!(driver, member, "a driver cannot enroll itself");
        let m = member.index();
        assert_eq!(
            self.cohort_of[m], NONE,
            "agent {member} is already riding a cohort"
        );
        assert_eq!(
            self.driving[m], NONE,
            "agent {member} drives a cohort and cannot ride one"
        );
        let at = self.positions[driver.index()];
        assert_eq!(
            self.positions[m], at,
            "cohort members must be co-located with the driver"
        );
        let c = match self.driving[driver.index()] {
            NONE => {
                let fresh = Cohort {
                    node: at,
                    hops: 0,
                    members: 0,
                    head: NONE,
                    driver: driver.0,
                };
                let c = match self.free_cohorts.pop() {
                    Some(c) => {
                        self.cohorts[c as usize] = fresh;
                        c
                    }
                    None => {
                        let c = self.cohorts.len() as u32;
                        self.cohorts.push(fresh);
                        c
                    }
                };
                self.driving[driver.index()] = c;
                c
            }
            c => c,
        } as usize;
        debug_assert_eq!(self.cohorts[c].node, at, "cohort strayed from driver");
        self.unlink_from_node(m);
        // Link into the cohort's member list.
        let h = self.cohorts[c].head;
        self.prev[m] = NONE;
        self.next[m] = h;
        if h != NONE {
            self.prev[h as usize] = m as u32;
        }
        self.cohorts[c].head = m as u32;
        self.cohorts[c].members += 1;
        self.cohort_of[m] = c as u32;
        self.ride_start[m] = self.cohorts[c].hops;
        self.park(member);
    }

    fn extract(&mut self, driver: AgentId, member: AgentId) {
        let c = self.cohort_of[member.index()];
        assert!(
            c != NONE && self.driving[driver.index()] == c,
            "agent {member} is not riding {driver}'s cohort"
        );
        self.extract_member(member);
    }

    /// Extract `member` from whatever cohort it rides, keyed by the
    /// member's own `cohort_of` link (the crash path has no driver in
    /// hand).
    fn extract_member(&mut self, member: AgentId) {
        let m = member.index();
        let c = self.cohort_of[m];
        assert!(c != NONE, "agent {member} is not riding a cohort");
        let c = c as usize;
        // Unlink from the member list.
        let (p, n) = (self.prev[m], self.next[m]);
        if p == NONE {
            self.cohorts[c].head = n;
        } else {
            self.next[p as usize] = n;
        }
        if n != NONE {
            self.prev[n as usize] = p;
        }
        self.cohorts[c].members -= 1;
        self.cohort_of[m] = NONE;
        // Materialize at the cohort's node and settle the ride's accounting.
        let node = self.cohorts[c].node;
        let ridden = self.cohorts[c].hops - self.ride_start[m];
        self.metrics.credit_rider_moves(member, ridden);
        self.link_to_node(m, node);
        self.wake(member);
        // An emptied cohort's slot is recycled; the driver starts a fresh
        // one on its next enroll.
        if self.cohorts[c].members == 0 {
            self.driving[self.cohorts[c].driver as usize] = NONE;
            self.cohorts[c].head = NONE;
            self.free_cohorts.push(c as u32);
        }
    }

    /// Fold the pending per-agent move accounting of every live cohort into
    /// the metrics (runners call this before building an [`crate::Outcome`],
    /// so mid-ride limit hits still report faithful `max_moves_per_agent`).
    pub fn sync_ride_accounting(&mut self) {
        for c in 0..self.cohorts.len() {
            let hops = self.cohorts[c].hops;
            let mut m = self.cohorts[c].head;
            while m != NONE {
                let ridden = hops - self.ride_start[m as usize];
                self.ride_start[m as usize] = hops;
                self.metrics.credit_rider_moves(AgentId(m), ridden);
                m = self.next[m as usize];
            }
        }
    }

    // ------------------------------------------------------------------
    // Activation plumbing
    // ------------------------------------------------------------------

    /// Prepare `agent` for one activation (resets its per-activation move
    /// budget). Called by the runners.
    pub(crate) fn begin_activation(&mut self, agent: AgentId) {
        self.moved[agent.index()] = false;
    }

    /// Borrow an [`ActivationCtx`] for `agent` that reports to `observer`.
    /// Runners call this right after [`World::begin_activation`].
    pub(crate) fn ctx<'w>(
        &'w mut self,
        agent: AgentId,
        time: u64,
        observer: &'w mut dyn Observer,
    ) -> ActivationCtx<'w> {
        ActivationCtx {
            world: self,
            observer,
            agent,
            time,
        }
    }

    fn apply_move(
        &mut self,
        agent: AgentId,
        port: Port,
        time: u64,
        observer: &mut dyn Observer,
    ) -> Result<Port, MoveError> {
        let a = agent.index();
        debug_assert_eq!(
            self.cohort_of[a], NONE,
            "riding agents are parked and never move themselves"
        );
        if self.moved[a] {
            return Err(MoveError::AlreadyMoved);
        }
        let from = self.positions[a];
        let degree = self.graph.degree(from);
        if port.0 == 0 || port.offset() >= degree {
            return Err(MoveError::InvalidPort { port, degree });
        }
        if let Some(live) = &self.liveness {
            if !live.is_alive(&self.graph, from, port) {
                return Err(MoveError::EdgeDown { port });
            }
        }
        // The port was just validated against `degree`, so take the
        // branch-free path (no re-validation, no internal dispatch work).
        let (to, pin) = self.graph.traverse_fast(from, port);
        self.moved[a] = true;
        self.unlink_from_node(a);
        self.link_to_node(a, to);
        self.metrics.record_move(agent);
        observer.event(TraceEvent::Move {
            agent,
            from,
            to,
            port,
            pin,
            time,
        });
        Ok(pin)
    }
}

/// Borrowed iterator over an intrusive agent list (node occupancy or cohort
/// membership). Zero allocation.
#[derive(Clone)]
pub struct AgentIter<'w> {
    next: &'w [u32],
    cur: u32,
}

impl Iterator for AgentIter<'_> {
    type Item = AgentId;

    #[inline]
    fn next(&mut self) -> Option<AgentId> {
        if self.cur == NONE {
            return None;
        }
        let a = AgentId(self.cur);
        self.cur = self.next[self.cur as usize];
        Some(a)
    }
}

/// An agent's restricted view of the world during one activation.
///
/// The context exposes exactly what the model allows an activated agent to
/// see and do: its own location's degree, the set of co-located agents, and
/// one move through a local port. Reading/writing co-located agents' *state*
/// is the protocol's business (the protocol owns all agent state); the
/// context provides the co-location information needed to do so lawfully —
/// plus the scheduling (park/wake) and cohort operations described in the
/// module docs, which are simulation-level accelerations of protocol-legal
/// behaviour. Moves, cohort moves and milestones are reported to the run's
/// [`Observer`].
pub struct ActivationCtx<'w> {
    world: &'w mut World,
    observer: &'w mut dyn Observer,
    agent: AgentId,
    time: u64,
}

impl<'w> ActivationCtx<'w> {
    /// The agent being activated.
    #[inline]
    pub fn agent(&self) -> AgentId {
        self.agent
    }

    /// The node the agent currently occupies.
    #[inline]
    pub fn node(&self) -> NodeId {
        self.world.positions[self.agent.index()]
    }

    /// Degree `δ_v` of the current node (the number of local ports).
    #[inline]
    pub fn degree(&self) -> usize {
        self.world.graph.degree(self.node())
    }

    /// The current simulation time (round number in SYNC, step number in
    /// ASYNC). Protocols may use it only for round-counting waits, which the
    /// model permits (agents can count their own activations).
    #[inline]
    pub fn time(&self) -> u64 {
        self.time
    }

    /// All concrete agents at the current node — **including** the activated
    /// agent — as a borrowing, zero-alloc iterator. Cohort members riding
    /// through the node are not listed (their driver speaks for them).
    #[inline]
    pub fn agents_here(&self) -> AgentIter<'_> {
        self.world.agents_at(self.node())
    }

    /// Iterator over the co-located agents (self excluded), borrowing from
    /// the world — no allocation.
    #[inline]
    pub fn colocated_iter(&self) -> impl Iterator<Item = AgentId> + '_ {
        let me = self.agent;
        self.agents_here().filter(move |&a| a != me)
    }

    /// Whether `other` is one of the co-located agents, in O(1): exactly
    /// `colocated_iter().any(|a| a == other)`. True iff `other` is not the
    /// activated agent, has not crashed, is not riding a cohort and stands
    /// on this node — a crashed agent keeps its last position and a rider
    /// its enrollment node, so both flags are checked before the position.
    #[inline]
    pub fn is_colocated(&self, other: AgentId) -> bool {
        let o = other.index();
        other != self.agent
            && !self.world.dead[o]
            && self.world.cohort_of[o] == NONE
            && self.world.positions[o] == self.node()
    }

    /// Whether this agent already used its move for this activation.
    #[inline]
    pub fn has_moved(&self) -> bool {
        self.world.moved[self.agent.index()]
    }

    /// Move through local port `port`; returns the incoming port (`pin`) at
    /// the destination.
    ///
    /// # Panics
    /// Panics if the agent already moved during this activation or the port
    /// is invalid — both indicate protocol bugs.
    pub fn move_via(&mut self, port: Port) -> Port {
        self.try_move_via(port)
            .unwrap_or_else(|e| panic!("agent {} illegal move: {e}", self.agent))
    }

    /// Fallible variant of [`ActivationCtx::move_via`]. In dynamic worlds
    /// this is the only lawful way to move: `Err(MoveError::EdgeDown)`
    /// means the adversary cut the edge this round, and the agent should
    /// wait (retry on a later activation) rather than panic.
    pub fn try_move_via(&mut self, port: Port) -> Result<Port, MoveError> {
        self.world
            .apply_move(self.agent, port, self.time, &mut *self.observer)
    }

    // ------------------------------------------------------------------
    // Scheduling
    // ------------------------------------------------------------------

    /// Park `target` (often the activated agent itself): remove it from the
    /// runners' worklist. Only lawful when `target`'s future activations are
    /// guaranteed no-ops until some agent wakes it — see the module docs.
    pub fn park(&mut self, target: AgentId) {
        self.world.park(target);
    }

    /// Wake a parked agent (no-op when already active). Call whenever this
    /// agent's action makes `target` actionable again.
    pub fn wake(&mut self, target: AgentId) {
        self.world.wake(target);
    }

    /// Report a protocol-defined [`TraceEvent::Milestone`] for `target` at
    /// its current node (settlement, subsumption, phase change…) to the
    /// run's observer. Protocols emit unconditionally; each protocol
    /// documents its `code` constants.
    pub fn milestone(&mut self, target: AgentId, code: u32) {
        self.observer.event(TraceEvent::Milestone {
            agent: target,
            node: self.world.positions[target.index()],
            code,
            time: self.time,
        });
    }

    // ------------------------------------------------------------------
    // Cohorts
    // ------------------------------------------------------------------

    /// Enroll a co-located, concrete agent into this agent's cohort
    /// (creating the cohort on first use). The member is parked; its
    /// position follows the cohort until [`ActivationCtx::extract`].
    pub fn enroll(&mut self, member: AgentId) {
        self.world.enroll(self.agent, member);
    }

    /// Extract a member from this agent's cohort: it rematerializes at the
    /// cohort's node, is charged one move per edge ridden, and is woken.
    pub fn extract(&mut self, member: AgentId) {
        self.world.extract(self.agent, member);
    }

    /// Number of members currently riding this agent's cohort.
    pub fn cohort_len(&self) -> usize {
        self.world.cohort_len(self.agent)
    }

    /// Move this agent **and its cohort** through `port` as one operation:
    /// the driver pays a normal move, every member is charged one ride hop,
    /// and the cohort's node follows. Returns the driver's incoming port.
    ///
    /// # Panics
    /// Panics on an illegal driver move, or if the cohort is not at the
    /// driver's node (the driver wandered off on a solo trip and must return
    /// before moving the cohort).
    pub fn move_cohort_via(&mut self, port: Port) -> Port {
        self.try_move_cohort_via(port)
            .unwrap_or_else(|e| panic!("agent {} illegal cohort move: {e}", self.agent))
    }

    /// Fallible variant of [`ActivationCtx::move_cohort_via`]: returns
    /// `Err(MoveError::EdgeDown)` (leaving driver and cohort in place) when
    /// the adversary has cut the edge. A cohort away from the driver's node
    /// is still a protocol bug and still panics.
    pub fn try_move_cohort_via(&mut self, port: Port) -> Result<Port, MoveError> {
        let from = self.node();
        let c = self.world.driving[self.agent.index()];
        if c != NONE {
            let cohort = &self.world.cohorts[c as usize];
            assert_eq!(
                cohort.node, from,
                "cohort moves require the driver to be at the cohort's node"
            );
        }
        let pin = self.try_move_via(port)?;
        if c != NONE {
            let to = self.world.positions[self.agent.index()];
            let cohort = &mut self.world.cohorts[c as usize];
            cohort.node = to;
            if cohort.members > 0 {
                cohort.hops += 1;
                let members = cohort.members;
                self.world.metrics.record_cohort_move(members as u64);
                self.observer.event(TraceEvent::CohortMove {
                    driver: self.agent,
                    from,
                    to,
                    port,
                    members,
                    time: self.time,
                });
            }
        }
        Ok(pin)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disp_graph::generators;

    fn world_on_ring(k: usize) -> World {
        World::new_rooted(generators::ring(6), k, NodeId(0))
    }

    fn at(w: &World, v: u32) -> Vec<AgentId> {
        w.agents_at(NodeId(v)).collect()
    }

    /// The `()` observer, borrowed for as long as a test's context lives
    /// (a zero-sized box allocates nothing).
    fn nobody() -> &'static mut () {
        Box::leak(Box::new(()))
    }

    #[test]
    fn cohort_slots_are_recycled_when_a_cohort_empties() {
        let mut w = world_on_ring(4);
        w.begin_activation(AgentId(3));
        let mut ctx = w.ctx(AgentId(3), 0, nobody());
        ctx.enroll(AgentId(0));
        ctx.enroll(AgentId(1));
        ctx.move_cohort_via(Port(1));
        ctx.extract(AgentId(0));
        ctx.extract(AgentId(1));
        assert_eq!(w.cohort_len(AgentId(3)), 0);
        assert_eq!(w.cohorts.len(), 1);
        assert_eq!(w.free_cohorts, vec![0]);
        // A different driver's next convoy reuses the slot (agents 0 and 1
        // materialized at the old cohort's node, so 0 can drive 1).
        w.begin_activation(AgentId(0));
        let mut ctx = w.ctx(AgentId(0), 1, nobody());
        ctx.enroll(AgentId(1));
        assert_eq!(w.cohorts.len(), 1);
        assert!(w.free_cohorts.is_empty());
        assert_eq!(w.cohort_len(AgentId(0)), 1);
        // The ride accounting starts fresh in the reused slot.
        assert_eq!(w.cohorts[0].hops, 0);
        assert_eq!(w.cohorts[0].driver, 0);
    }

    #[test]
    fn pooled_world_is_indistinguishable_from_a_fresh_one() {
        // Dirty a world thoroughly: convoys, moves, parks, a crash.
        let mut pool = WorldPool::new();
        let mut w = pool.take(generators::ring(6), vec![NodeId(0); 5]);
        w.begin_activation(AgentId(4));
        let mut ctx = w.ctx(AgentId(4), 0, nobody());
        ctx.enroll(AgentId(1));
        ctx.enroll(AgentId(2));
        ctx.move_cohort_via(Port(1));
        ctx.extract(AgentId(1));
        w.park(AgentId(0));
        w.crash(AgentId(3));
        pool.put(w);
        // Rebuild on a *different* instance and compare every field against
        // a from-scratch construction (Debug covers the full state).
        let spec = || (generators::line(7), vec![NodeId(3), NodeId(3), NodeId(0)]);
        let (g, pos) = spec();
        let recycled = pool.take(g, pos);
        let (g, pos) = spec();
        let fresh = World::new(g, pos);
        assert_eq!(format!("{recycled:?}"), format!("{fresh:?}"));
    }

    #[test]
    fn rooted_world_colocates_all_agents() {
        let w = world_on_ring(4);
        assert_eq!(w.num_agents(), 4);
        assert_eq!(at(&w, 0).len(), 4);
        assert_eq!(at(&w, 1).len(), 0);
        for a in 0..4 {
            assert_eq!(w.position(AgentId(a)), NodeId(0));
        }
        // List order is ascending by agent id at construction.
        assert_eq!(at(&w, 0), (0..4).map(AgentId).collect::<Vec<_>>());
    }

    #[test]
    fn move_updates_positions_and_colocation() {
        let mut w = world_on_ring(2);
        w.begin_activation(AgentId(0));
        let pin = w.ctx(AgentId(0), 0, nobody()).move_via(Port(1));
        // Ring built with edges (i, i+1): port 1 of node 0 goes to node 1,
        // arriving on node 1's port 1.
        assert_eq!(pin, Port(1));
        assert_eq!(w.position(AgentId(0)), NodeId(1));
        assert_eq!(at(&w, 0), vec![AgentId(1)]);
        assert_eq!(at(&w, 1), vec![AgentId(0)]);
        assert_eq!(w.metrics().total_moves(), 1);
    }

    #[test]
    fn second_move_in_one_activation_is_rejected() {
        let mut w = world_on_ring(1);
        w.begin_activation(AgentId(0));
        let mut ctx = w.ctx(AgentId(0), 0, nobody());
        ctx.move_via(Port(1));
        assert_eq!(ctx.try_move_via(Port(1)), Err(MoveError::AlreadyMoved));
    }

    #[test]
    fn next_activation_restores_move_budget() {
        let mut w = world_on_ring(1);
        for t in 0..6u64 {
            w.begin_activation(AgentId(0));
            w.ctx(AgentId(0), t, nobody()).move_via(Port(2));
        }
        assert_eq!(w.metrics().total_moves(), 6);
        // Walking port 2 six times around a 6-ring returns to the start.
        assert_eq!(w.position(AgentId(0)), NodeId(0));
    }

    #[test]
    fn invalid_port_is_rejected() {
        let mut w = world_on_ring(1);
        w.begin_activation(AgentId(0));
        let mut ctx = w.ctx(AgentId(0), 0, nobody());
        assert!(matches!(
            ctx.try_move_via(Port(3)),
            Err(MoveError::InvalidPort { .. })
        ));
        assert!(matches!(
            ctx.try_move_via(Port(0)),
            Err(MoveError::InvalidPort { .. })
        ));
    }

    #[test]
    fn colocated_excludes_self() {
        let mut w = world_on_ring(3);
        w.begin_activation(AgentId(1));
        let ctx = w.ctx(AgentId(1), 0, nobody());
        let peers: Vec<AgentId> = ctx.colocated_iter().collect();
        assert_eq!(peers.len(), 2);
        assert!(!peers.contains(&AgentId(1)));
        assert!(ctx.is_colocated(AgentId(0)) && ctx.is_colocated(AgentId(2)));
        assert!(!ctx.is_colocated(AgentId(1)));
        assert_eq!(ctx.agents_here().count(), 3);
        assert!(ctx.agents_here().any(|a| a == AgentId(1)));
    }

    #[test]
    #[should_panic(expected = "k ≤ n")]
    fn more_agents_than_nodes_is_rejected() {
        let _ = World::new_rooted(generators::ring(3), 4, NodeId(0));
    }

    #[test]
    fn trace_records_moves_when_enabled() {
        let mut w = world_on_ring(1);
        let mut trace = crate::trace::Trace::new();
        w.begin_activation(AgentId(0));
        w.ctx(AgentId(0), 7, &mut trace).move_via(Port(1));
        assert_eq!(trace.events().len(), 1);
        match trace.events()[0] {
            TraceEvent::Move {
                agent,
                from,
                to,
                time,
                ..
            } => {
                assert_eq!(agent, AgentId(0));
                assert_eq!(from, NodeId(0));
                assert_eq!(to, NodeId(1));
                assert_eq!(time, 7);
            }
            _ => panic!("expected a move event"),
        }
    }

    #[test]
    fn park_and_wake_maintain_the_worklist() {
        let mut w = world_on_ring(4);
        assert_eq!(w.active_count(), 4);
        assert!(w.is_active(AgentId(2)));
        w.park(AgentId(2));
        w.park(AgentId(2)); // idempotent
        assert!(!w.is_active(AgentId(2)));
        assert_eq!(w.active_count(), 3);
        w.wake(AgentId(2));
        w.wake(AgentId(2)); // idempotent
        assert!(w.is_active(AgentId(2)));
        let mut buf = Vec::new();
        w.snapshot_active_sorted(&mut buf);
        assert_eq!(buf, (0..4).map(AgentId).collect::<Vec<_>>());
        // The transition log recorded the genuine transitions only (the
        // idempotent repeats left no trace).
        let mut log = Vec::new();
        w.drain_transitions(&mut log);
        assert_eq!(log, vec![(AgentId(2), false), (AgentId(2), true)]);
        w.drain_transitions(&mut log);
        assert!(log.is_empty());
    }

    #[test]
    fn cohort_ride_charges_members_and_tracks_position() {
        let mut w = world_on_ring(3);
        // Agent 2 drives agents 0 and 1 two hops around the ring.
        w.begin_activation(AgentId(2));
        let mut ctx = w.ctx(AgentId(2), 0, nobody());
        ctx.enroll(AgentId(0));
        ctx.enroll(AgentId(1));
        assert_eq!(ctx.cohort_len(), 2);
        ctx.move_cohort_via(Port(1));
        assert_eq!(w.position(AgentId(0)), NodeId(1));
        assert_eq!(w.position(AgentId(1)), NodeId(1));
        assert_eq!(at(&w, 1), vec![AgentId(2)], "riders are not listed");
        assert!(!w.is_active(AgentId(0)), "riders are parked");
        // 1 driver move + 2 rider hops.
        assert_eq!(w.metrics().total_moves(), 3);

        w.begin_activation(AgentId(2));
        w.ctx(AgentId(2), 1, nobody()).move_cohort_via(Port(2));
        assert_eq!(w.metrics().total_moves(), 6);
        assert_eq!(w.position(AgentId(0)), NodeId(2));

        // Extraction materializes at the cohort node, charges the ride and
        // wakes the member.
        w.begin_activation(AgentId(2));
        let mut ctx = w.ctx(AgentId(2), 2, nobody());
        ctx.extract(AgentId(0));
        assert_eq!(ctx.cohort_len(), 1);
        assert_eq!(w.position(AgentId(0)), NodeId(2));
        assert!(w.is_active(AgentId(0)));
        assert!(at(&w, 2).contains(&AgentId(0)));
        assert_eq!(w.metrics().moves_of(AgentId(0)), 2);
        assert_eq!(w.metrics().moves_of(AgentId(1)), 0, "still pending");
        w.sync_ride_accounting();
        assert_eq!(w.metrics().moves_of(AgentId(1)), 2);
        assert_eq!(w.metrics().max_moves_per_agent(), 2);
    }

    #[test]
    fn driver_solo_trip_leaves_cohort_behind() {
        let mut w = world_on_ring(2);
        w.begin_activation(AgentId(1));
        let mut ctx = w.ctx(AgentId(1), 0, nobody());
        ctx.enroll(AgentId(0));
        ctx.move_via(Port(1)); // solo: cohort stays at node 0
        assert_eq!(w.position(AgentId(0)), NodeId(0));
        assert_eq!(w.position(AgentId(1)), NodeId(1));
        // Coming back, the driver may move the cohort again.
        w.begin_activation(AgentId(1));
        w.ctx(AgentId(1), 1, nobody()).move_via(Port(1));
        assert_eq!(w.position(AgentId(1)), NodeId(0));
        w.begin_activation(AgentId(1));
        w.ctx(AgentId(1), 2, nobody()).move_cohort_via(Port(2));
        assert_eq!(w.position(AgentId(0)), NodeId(5));
    }

    #[test]
    #[should_panic(expected = "driver to be at the cohort's node")]
    fn moving_the_cohort_from_afar_is_rejected() {
        let mut w = world_on_ring(2);
        w.begin_activation(AgentId(1));
        let mut ctx = w.ctx(AgentId(1), 0, nobody());
        ctx.enroll(AgentId(0));
        ctx.move_via(Port(1));
        w.begin_activation(AgentId(1));
        w.ctx(AgentId(1), 1, nobody()).move_cohort_via(Port(1));
    }

    #[test]
    fn snapshot_positions_sees_riders() {
        let mut w = world_on_ring(3);
        w.begin_activation(AgentId(2));
        let mut ctx = w.ctx(AgentId(2), 0, nobody());
        ctx.enroll(AgentId(0));
        ctx.move_cohort_via(Port(1));
        assert_eq!(
            w.snapshot_positions(),
            vec![NodeId(1), NodeId(0), NodeId(1)]
        );
    }

    // ------------------------------------------------------------------
    // Dynamic edges and crash faults
    // ------------------------------------------------------------------

    #[test]
    fn dead_edges_refuse_moves_until_revived() {
        let mut w = world_on_ring(1);
        assert!(w.kill_edge(NodeId(0), Port(1))); // edge 0–1 down
        w.begin_activation(AgentId(0));
        let mut ctx = w.ctx(AgentId(0), 0, nobody());
        assert!(matches!(
            ctx.try_move_via(Port(1)),
            Err(MoveError::EdgeDown { port: Port(1) })
        ));
        // A refused move does not consume the per-activation move budget
        // and leaves the agent in place.
        assert!(!ctx.has_moved());
        assert_eq!(w.position(AgentId(0)), NodeId(0));
        assert_eq!(w.metrics().total_moves(), 0);
        assert!(w.revive_edge(NodeId(0), Port(1)));
        w.begin_activation(AgentId(0));
        assert_eq!(
            w.ctx(AgentId(0), 1, nobody()).try_move_via(Port(1)),
            Ok(Port(1))
        );
        assert_eq!(w.position(AgentId(0)), NodeId(1));
    }

    #[test]
    fn cohort_moves_respect_dead_edges() {
        let mut w = world_on_ring(2);
        w.kill_edge(NodeId(0), Port(1));
        w.begin_activation(AgentId(1));
        let mut ctx = w.ctx(AgentId(1), 0, nobody());
        ctx.enroll(AgentId(0));
        assert!(matches!(
            ctx.try_move_cohort_via(Port(1)),
            Err(MoveError::EdgeDown { .. })
        ));
        // Nothing moved: driver, rider and cohort node all stay put.
        assert_eq!(w.position(AgentId(1)), NodeId(0));
        assert_eq!(w.position(AgentId(0)), NodeId(0));
        assert_eq!(w.metrics().total_moves(), 0);
        w.begin_activation(AgentId(1));
        w.ctx(AgentId(1), 1, nobody()).move_cohort_via(Port(2));
        assert_eq!(w.position(AgentId(0)), NodeId(5));
    }

    #[test]
    fn crashing_a_settled_agent_orphans_its_node() {
        let mut w = world_on_ring(2);
        w.begin_activation(AgentId(0));
        let mut ctx = w.ctx(AgentId(0), 0, nobody());
        ctx.park(AgentId(0)); // "settled" from the scheduler's viewpoint
        w.crash(AgentId(0));
        assert!(w.is_dead(AgentId(0)));
        assert_eq!(w.dead_count(), 1);
        // The node is orphaned: occupancy no longer lists the corpse, so a
        // surviving agent sees an empty node and may re-settle there …
        assert_eq!(at(&w, 0), vec![AgentId(1)]);
        // … but the last position stays readable for forensics/verify.
        assert_eq!(w.position(AgentId(0)), NodeId(0));
        assert!(!w.is_active(AgentId(0)));
    }

    #[test]
    fn crashing_a_driver_disbands_its_cohort_in_place() {
        let mut w = world_on_ring(3);
        w.begin_activation(AgentId(2));
        let mut ctx = w.ctx(AgentId(2), 0, nobody());
        ctx.enroll(AgentId(0));
        ctx.enroll(AgentId(1));
        ctx.move_cohort_via(Port(1));
        w.crash(AgentId(2));
        // Riders rematerialize at the cohort node, charged and woken; only
        // the driver is gone.
        assert_eq!(w.position(AgentId(0)), NodeId(1));
        assert_eq!(w.position(AgentId(1)), NodeId(1));
        assert!(w.is_active(AgentId(0)));
        assert!(w.is_active(AgentId(1)));
        assert!(!w.is_dead(AgentId(0)));
        assert!(w.is_dead(AgentId(2)));
        let here = at(&w, 1);
        assert!(here.contains(&AgentId(0)) && here.contains(&AgentId(1)));
        assert!(!here.contains(&AgentId(2)));
        assert_eq!(w.metrics().moves_of(AgentId(0)), 1);
    }

    #[test]
    fn crashing_a_rider_extracts_only_that_rider() {
        let mut w = world_on_ring(3);
        w.begin_activation(AgentId(2));
        let mut ctx = w.ctx(AgentId(2), 0, nobody());
        ctx.enroll(AgentId(0));
        ctx.enroll(AgentId(1));
        ctx.move_cohort_via(Port(1));
        w.crash(AgentId(0));
        // The crashed rider is accounted for (its ride hops are credited)
        // and removed; the cohort keeps rolling with the survivor.
        assert!(w.is_dead(AgentId(0)));
        assert_eq!(w.position(AgentId(0)), NodeId(1));
        assert!(!w.is_active(AgentId(0)));
        assert_eq!(w.cohort_len(AgentId(2)), 1);
        w.begin_activation(AgentId(2));
        w.ctx(AgentId(2), 1, nobody()).move_cohort_via(Port(2));
        assert_eq!(w.position(AgentId(1)), NodeId(2));
        assert_eq!(w.position(AgentId(0)), NodeId(1), "corpse stays behind");
    }

    #[test]
    #[should_panic(expected = "crashed twice")]
    fn double_crash_is_rejected() {
        let mut w = world_on_ring(2);
        w.crash(AgentId(0));
        w.crash(AgentId(0));
    }
}
