//! Property suite for the O(1) co-location check
//! [`ActivationCtx::is_colocated`].
//!
//! Seeded-loop property tests (the workspace's proptest substitute): a
//! chaos protocol drives random small worlds through random sequences of
//! moves, cohort operations (`enroll`, `move_cohort_via`, solo driver trips,
//! `extract`), park/wake of itself and of others, and seeded crashes,
//! under both the SYNC and an ASYNC runner. After every single operation it
//! asserts, for every agent `x` — the activated agent itself, cohort
//! drivers, riders and crashed agents included —
//!
//! ```text
//! ctx.is_colocated(x) == ctx.colocated_iter().any(|a| a == x)
//! ```
//!
//! i.e. that the flat-array answer equals the occupancy-list scan it
//! replaces.

use disp_graph::{generators, NodeId, Port, PortGraph};
use disp_rng::prelude::*;
use disp_sim::{
    ActivationCtx, AgentId, AgentProtocol, AsyncRunner, CrashPlan, RandomSubsetAdversary,
    RunConfig, SyncRunner, World,
};

const NONE: u32 = u32::MAX;

/// How often each interesting kind of `x` was checked, summed over a run,
/// so the suite can prove it exercised every case it claims to.
#[derive(Debug, Default, Clone, Copy)]
struct Coverage {
    checks: u64,
    colocated: u64,
    self_checks: u64,
    riders: u64,
    drivers: u64,
    dead: u64,
}

/// A protocol that does something random on every activation and checks
/// the co-location contract after each step. It tracks cohorts and
/// crashes itself, only to keep its own requests legal.
struct Chaos {
    rng: StdRng,
    /// `agent → driver` while riding, `NONE` otherwise.
    driver_of: Vec<u32>,
    /// Riders per driver.
    members: Vec<u32>,
    /// Node of each driver's cohort (meaningful while `members > 0`).
    cohort_at: Vec<NodeId>,
    dead: Vec<bool>,
    activations_left: u64,
    cov: Coverage,
}

impl Chaos {
    fn new(k: usize, seed: u64, activations: u64) -> Chaos {
        Chaos {
            rng: StdRng::seed_from_u64(seed),
            driver_of: vec![NONE; k],
            members: vec![0; k],
            cohort_at: vec![NodeId(0); k],
            dead: vec![false; k],
            activations_left: activations,
            cov: Coverage::default(),
        }
    }

    fn check(&mut self, ctx: &ActivationCtx<'_>) {
        let k = self.driver_of.len();
        for x in (0..k as u32).map(AgentId) {
            let fast = ctx.is_colocated(x);
            let scan = ctx.colocated_iter().any(|a| a == x);
            assert_eq!(
                fast,
                scan,
                "is_colocated({x}) for activated agent {} at node {}",
                ctx.agent(),
                ctx.node()
            );
            self.cov.checks += 1;
            self.cov.colocated += fast as u64;
            self.cov.self_checks += (x == ctx.agent()) as u64;
            self.cov.riders += (self.driver_of[x.index()] != NONE) as u64;
            self.cov.drivers += (self.members[x.index()] > 0) as u64;
            self.cov.dead += self.dead[x.index()] as u64;
        }
    }

    fn pick<T: Copy>(&mut self, items: &[T]) -> Option<T> {
        (!items.is_empty()).then(|| items[self.rng.random_range(0..items.len())])
    }

    /// One random operation by `me`.
    fn step(&mut self, me: AgentId, ctx: &mut ActivationCtx<'_>) {
        let m = me.index();
        let k = self.driver_of.len();
        match self.rng.random_range(0..8u32) {
            // A solo move (a driver's solo trip leaves its cohort behind).
            0 | 1 => {
                if !ctx.has_moved() && ctx.degree() > 0 {
                    let port = Port(1 + self.rng.random_range(0..ctx.degree() as u32));
                    ctx.move_via(port);
                }
            }
            // Enroll a co-located concrete agent that drives no cohort.
            2 => {
                let candidates: Vec<AgentId> = ctx
                    .colocated_iter()
                    .filter(|a| self.members[a.index()] == 0)
                    .collect();
                let at_cohort = self.members[m] == 0 || self.cohort_at[m] == ctx.node();
                if let (Some(rider), true) = (self.pick(&candidates), at_cohort) {
                    ctx.enroll(rider);
                    self.driver_of[rider.index()] = me.0;
                    self.members[m] += 1;
                    self.cohort_at[m] = ctx.node();
                }
            }
            // Move the whole cohort (only from the cohort's node).
            3 => {
                let at_cohort = self.members[m] == 0 || self.cohort_at[m] == ctx.node();
                if at_cohort && !ctx.has_moved() && ctx.degree() > 0 {
                    let port = Port(1 + self.rng.random_range(0..ctx.degree() as u32));
                    ctx.move_cohort_via(port);
                    self.cohort_at[m] = ctx.node();
                }
            }
            // Extract one rider (it rematerializes at the cohort's node,
            // which need not be the driver's node).
            4 => {
                let riders: Vec<AgentId> = (0..k as u32)
                    .map(AgentId)
                    .filter(|a| self.driver_of[a.index()] == me.0)
                    .collect();
                if let Some(rider) = self.pick(&riders) {
                    ctx.extract(rider);
                    self.driver_of[rider.index()] = NONE;
                    self.members[m] -= 1;
                }
            }
            // Park a co-located agent, or wake any concrete living agent.
            5 => {
                let here: Vec<AgentId> = ctx.colocated_iter().collect();
                if let Some(x) = self.pick(&here) {
                    ctx.park(x);
                }
            }
            6 => {
                let x = AgentId(self.rng.random_range(0..k as u32));
                if self.driver_of[x.index()] == NONE && !self.dead[x.index()] {
                    ctx.wake(x);
                }
            }
            // Park itself now and then; someone else will wake it.
            _ => {
                if self.rng.random_bool(0.3) {
                    ctx.park(me);
                }
            }
        }
    }
}

impl AgentProtocol for Chaos {
    fn on_activate(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
        self.activations_left = self.activations_left.saturating_sub(1);
        self.check(ctx);
        for _ in 0..self.rng.random_range(1..4u32) {
            self.step(agent, ctx);
            self.check(ctx);
        }
    }

    fn on_crash(&mut self, agent: AgentId) {
        let a = agent.index();
        // The world disbanded a crashed driver's cohort in place and
        // extracted a crashed rider before unlinking it.
        if self.members[a] > 0 {
            for d in self.driver_of.iter_mut().filter(|d| **d == agent.0) {
                *d = NONE;
            }
            self.members[a] = 0;
        }
        let driver = std::mem::replace(&mut self.driver_of[a], NONE);
        if driver != NONE {
            self.members[driver as usize] -= 1;
        }
        self.dead[a] = true;
    }

    fn is_terminated(&self) -> bool {
        self.activations_left == 0
    }

    fn memory_bits(&self, _agent: AgentId) -> usize {
        0
    }
}

/// A random small world: graph family, size and a start configuration
/// stacked on a few nodes so co-location is common.
fn random_world(rng: &mut StdRng) -> World {
    let n = rng.random_range(3..10usize);
    let graph: PortGraph = match rng.random_range(0..5u32) {
        0 => generators::line(n),
        1 => generators::ring(n),
        2 => generators::star(n),
        3 => generators::complete(n),
        _ => generators::random_tree(n, rng.next_u64()),
    };
    let k = rng.random_range(1..n + 1);
    let stacks = rng.random_range(1..4usize);
    let positions = (0..k)
        .map(|_| NodeId(rng.random_range(0..stacks.min(n)) as u32))
        .collect();
    World::new(graph, positions)
}

fn run_case(seed: u64, asynchronous: bool) -> Coverage {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut world = random_world(&mut rng);
    let k = world.num_agents();
    let crashes = CrashPlan::new(rng.next_u64(), k, rng.random_range(0..k), 24);
    let mut proto = Chaos::new(k, rng.next_u64(), 400);
    let config = RunConfig::with_limits(200, 2_000);
    // Either way the run ends: the budget of activations runs out, every
    // agent ends up parked (a stall) or the limit is hit. Only the checks
    // made along the way matter.
    let _ = if asynchronous {
        AsyncRunner::new(config, RandomSubsetAdversary::new(0.6, k, rng.next_u64()))
            .with_crashes(crashes)
            .run(&mut world, &mut proto)
    } else {
        SyncRunner::new(config)
            .with_crashes(crashes)
            .run(&mut world, &mut proto)
    };
    proto.cov
}

#[test]
fn is_colocated_equals_the_occupancy_scan_under_random_operations() {
    let mut total = Coverage::default();
    for seed in 0..300u64 {
        let cov = run_case(seed, seed % 2 == 1);
        total.checks += cov.checks;
        total.colocated += cov.colocated;
        total.self_checks += cov.self_checks;
        total.riders += cov.riders;
        total.drivers += cov.drivers;
        total.dead += cov.dead;
    }
    // The suite must really have met every kind of agent it claims to
    // cover, not just passed vacuously.
    assert!(total.checks > 50_000, "{total:?}");
    assert!(total.colocated > 5_000, "{total:?}");
    assert!(total.self_checks > 5_000, "{total:?}");
    assert!(total.riders > 5_000, "{total:?}");
    assert!(total.drivers > 5_000, "{total:?}");
    assert!(total.dead > 5_000, "{total:?}");
}
