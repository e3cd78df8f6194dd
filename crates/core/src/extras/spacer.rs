//! `spacer` — a deliberately simple distance-`gap` dispersion algorithm for
//! **rooted rings**: agent `i` walks exactly `gap · i` hops in a fixed
//! direction and settles, producing a configuration whose pairwise settled
//! distance is exactly `gap` (when `k · gap ≤ n`).
//!
//! It exists for two reasons. First, it keeps proving the registry is open
//! (one module + one `Registry::with` call) now that `random-walk` has been
//! promoted into the builtin set. Second, it is the positive oracle for the
//! distance-`k` verifier: `spacer/gap=d` **must** pass `distd` and **must**
//! fail `dist(d+1)`, which pins the verifier's BFS from both sides.
//!
//! Moves go through the fallible path, so the dynamic-ring adversary merely
//! delays a hop (`supports_dynamic`).

use crate::scenario::{AlgorithmFactory, ParamValue, Params};
use disp_graph::Port;
use disp_sim::{bits, ActivationCtx, AgentId, AgentProtocol, MoveError, World};

/// The ring-spacing protocol. See the module docs.
#[derive(Debug)]
pub struct Spacer {
    /// Hops left before this agent settles.
    steps_left: Vec<u64>,
    /// Arrival port of the last hop (`None` before the first hop); the next
    /// exit is the *other* port, which keeps the walk direction fixed.
    last_pin: Vec<Option<Port>>,
    settled: Vec<bool>,
    settled_count: usize,
    gap: u64,
}

impl Spacer {
    /// Build the protocol for a rooted world on a ring.
    ///
    /// # Panics
    /// Panics when the world is not a rooted start on a ring (every node
    /// degree 2, `m = n`), when `gap == 0`, or when `k · gap > n` — the
    /// configurations where exact `gap`-spacing is impossible.
    pub fn new(world: &World, gap: u64) -> Self {
        let k = world.num_agents();
        let root = world.position(AgentId(0));
        assert!(
            (0..k).all(|i| world.position(AgentId(i as u32)) == root),
            "spacer handles rooted starts only"
        );
        let n = world.graph().num_nodes();
        assert!(
            world.graph().max_degree() == 2 && world.graph().num_edges() == n,
            "spacer requires a ring (every node degree 2)"
        );
        assert!(gap >= 1, "spacer gap must be at least 1");
        assert!(
            (k as u64).saturating_mul(gap) <= n as u64,
            "spacer needs k·gap ≤ n ({k}·{gap} > {n})"
        );
        Spacer {
            steps_left: (0..k as u64).map(|i| gap * i).collect(),
            last_pin: vec![None; k],
            settled: vec![false; k],
            settled_count: 0,
            gap,
        }
    }
}

impl AgentProtocol for Spacer {
    fn on_activate(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
        let i = agent.index();
        if self.settled[i] {
            return;
        }
        if self.steps_left[i] == 0 {
            self.settled[i] = true;
            self.settled_count += 1;
            ctx.park(agent);
            return;
        }
        // Same direction for everyone: out through port 1 first, then
        // always out through the port we did not arrive by.
        let port = match self.last_pin[i] {
            None => Port(1),
            Some(pin) => Port(3 - pin.0),
        };
        match ctx.try_move_via(port) {
            Ok(pin) => {
                self.last_pin[i] = Some(pin);
                self.steps_left[i] -= 1;
            }
            // Edge down: wait in place, retry next activation.
            Err(MoveError::EdgeDown { .. }) => {}
            Err(e) => panic!("agent {agent} illegal spacer move: {e}"),
        }
    }

    fn is_terminated(&self) -> bool {
        self.settled_count == self.settled.len()
    }

    fn is_settled(&self, agent: AgentId) -> bool {
        self.settled[agent.index()]
    }

    fn memory_bits(&self, _agent: AgentId) -> usize {
        // Remaining-hop counter, last arrival port, settled flag.
        bits::counter_bits(self.gap.saturating_mul(self.settled.len() as u64))
            + bits::opt_port_bits(2)
            + bits::flag_bits()
    }

    fn max_memory_bits(&self) -> Option<usize> {
        // Every agent carries the same footprint (none with no agents).
        Some(match self.settled.len() {
            0 => 0,
            _ => self.memory_bits(AgentId(0)),
        })
    }

    fn name(&self) -> &'static str {
        "spacer"
    }
}

/// Registry factory for [`Spacer`] — rooted rings, any schedule, dynamic
/// edges tolerated. Parameter: `gap` (target pairwise distance, default 2).
pub struct SpacerFactory;

impl AlgorithmFactory for SpacerFactory {
    fn label(&self) -> &'static str {
        "spacer"
    }

    fn supports_dynamic(&self) -> bool {
        true
    }

    fn default_params(&self) -> Params {
        Params::new().set("gap", ParamValue::U64(2))
    }

    fn build(&self, world: &World, params: &Params, _seed: u64) -> Box<dyn AgentProtocol> {
        Box::new(Spacer::new(world, params.u64_or("gap", 2)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenario::{Registry, ScenarioSpec, Schedule};
    use disp_graph::generators::GraphFamily;

    fn registry() -> Registry {
        Registry::builtin().with(SpacerFactory)
    }

    #[test]
    fn spacer_achieves_exactly_its_gap() {
        let reg = registry();
        // k = 6 on a 24-ring with gap 3: dist3 must hold, dist4 must not.
        let base = ScenarioSpec::new(GraphFamily::Ring, 6, "spacer")
            .with_occupancy(0.25)
            .with_param("gap", ParamValue::U64(3));
        let hit = base.clone().with_min_distance(3).run(&reg, 1).unwrap();
        assert!(hit.outcome.terminated);
        assert!(hit.dispersed, "gap=3 must satisfy dist3");
        let miss = base.with_min_distance(4).run(&reg, 1).unwrap();
        assert!(miss.outcome.terminated);
        assert!(!miss.dispersed, "gap=3 must fail dist4");
    }

    #[test]
    fn spacer_survives_the_dynamic_ring_adversary() {
        let reg = registry();
        let spec = ScenarioSpec::new(GraphFamily::Ring, 8, "spacer")
            .with_occupancy(0.5)
            .with_dynamic_ring(1)
            .with_min_distance(2);
        let a = spec.run(&reg, 11).unwrap();
        let b = spec.run(&reg, 11).unwrap();
        assert!(a.outcome.terminated);
        assert!(a.dispersed, "edge churn only delays the walks");
        assert_eq!(a.outcome, b.outcome, "fault injection is seed-determined");
    }

    #[test]
    fn spacer_runs_async_too() {
        let reg = registry();
        let spec = ScenarioSpec::new(GraphFamily::Ring, 6, "spacer")
            .with_occupancy(0.5)
            .with_schedule(Schedule::AsyncRoundRobin)
            .with_min_distance(2);
        let report = spec.run(&reg, 2).unwrap();
        assert!(report.dispersed);
    }

    #[test]
    #[should_panic(expected = "k·gap ≤ n")]
    fn spacer_rejects_overfull_rings() {
        let reg = registry();
        // k = 8 on an 8-ring with gap 2: 16 > 8.
        let spec = ScenarioSpec::new(GraphFamily::Ring, 8, "spacer");
        let _ = spec.run(&reg, 1);
    }
}
