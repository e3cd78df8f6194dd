//! A toy randomized dispersion algorithm: every unsettled agent performs an
//! independent seeded random walk and settles at the first node with no
//! settled agent on it.
//!
//! Correct on any connected graph, from any start, under any fair schedule
//! (settled nodes stay settled, `k ≤ n` keeps a free node available, and a
//! random walk on a connected graph visits every node with probability 1).
//! Time is expected cover-time-ish — far off the paper's bounds — which is
//! exactly why it is a useful registry guinea pig rather than a baseline.
//!
//! It is also the workspace's **fault-tolerant** algorithm: walks carry no
//! shared structure, so a crashed agent costs nothing beyond retracting its
//! settlement claim ([`AgentProtocol::on_crash`]) and a downed edge merely
//! delays one hop ([`ActivationCtx::try_move_via`] + wait). The registry
//! therefore declares both `supports_crash` and `supports_dynamic`.

use crate::census::Settlers;
use crate::scenario::{AlgorithmFactory, Params};
use disp_graph::{NodeId, Port};
use disp_rng::mix;
use disp_sim::{bits, ActivationCtx, AgentId, AgentProtocol, MoveError, World};

/// `home` sentinel: not settled.
const NONE: u32 = u32::MAX;

/// The random-walk protocol. See the module docs.
#[derive(Debug)]
pub struct RandomWalk {
    /// `agent → node it settled at`, `NONE` while walking.
    home: Vec<u32>,
    /// `node → settler` index of the locally observable "does this node
    /// host a settled agent" (settlers never move; a crashed settler's
    /// claim is released in [`AgentProtocol::on_crash`]).
    settlers: Settlers,
    /// Per-agent xorshift64* state (never zero).
    rng: Vec<u64>,
    dead_count: usize,
}

impl RandomWalk {
    /// Build the protocol; each agent's walk derives from `seed` and its id.
    pub fn new(world: &World, seed: u64) -> Self {
        let k = world.num_agents();
        RandomWalk {
            home: vec![NONE; k],
            settlers: Settlers::new(world),
            rng: (0..k as u64).map(|i| mix(&[seed, i]) | 1).collect(),
            dead_count: 0,
        }
    }

    fn next_u64(&mut self, agent: AgentId) -> u64 {
        let s = &mut self.rng[agent.index()];
        *s ^= *s << 13;
        *s ^= *s >> 7;
        *s ^= *s << 17;
        *s
    }
}

impl AgentProtocol for RandomWalk {
    fn on_activate(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
        if self.home[agent.index()] != NONE {
            return;
        }
        // Activations are sequential, so "no settled agent here" is a
        // race-free claim on this node.
        let node = ctx.node();
        if self.settlers.at(node).is_none() {
            self.settlers.claim(node, agent);
            self.home[agent.index()] = node.0;
            ctx.park(agent);
            return;
        }
        let degree = ctx.degree() as u64;
        let port = 1 + self.next_u64(agent) % degree;
        // A downed edge (dynamic adversary) is a one-round delay, not an
        // error: stay put and draw a fresh port next activation.
        match ctx.try_move_via(Port(port as u32)) {
            Ok(_) | Err(MoveError::EdgeDown { .. }) => {}
            Err(e) => panic!("agent {agent} illegal walk move: {e}"),
        }
    }

    fn on_crash(&mut self, agent: AgentId) {
        // Retract the corpse's settlement claim so a survivor can re-settle
        // the orphaned node; termination then needs survivors only.
        let home = std::mem::replace(&mut self.home[agent.index()], NONE);
        if home != NONE {
            self.settlers.release(NodeId(home));
        }
        self.dead_count += 1;
    }

    fn is_terminated(&self) -> bool {
        self.settlers.count() == self.home.len() - self.dead_count
    }

    fn is_settled(&self, agent: AgentId) -> bool {
        self.home[agent.index()] != NONE
    }

    fn memory_bits(&self, _agent: AgentId) -> usize {
        // One settled flag plus the walk's 64-bit RNG state.
        bits::flag_bits() + 64
    }

    fn max_memory_bits(&self) -> Option<usize> {
        // Every agent carries the same footprint (none with no agents).
        Some(match self.home.len() {
            0 => 0,
            _ => self.memory_bits(AgentId(0)),
        })
    }

    fn class_counts(&self, out: &mut Vec<(&'static str, u32)>) {
        let settled = self.settlers.count();
        let walking = (self.home.len() - settled - self.dead_count) as u32;
        out.push(("walking", walking));
        out.push(("settled", settled as u32));
    }

    fn name(&self) -> &'static str {
        "random-walk"
    }
}

/// Registry factory for [`RandomWalk`] — general starts, any schedule,
/// both fault models.
pub struct RandomWalkFactory;

impl AlgorithmFactory for RandomWalkFactory {
    fn label(&self) -> &'static str {
        "random-walk"
    }

    fn supports_general(&self) -> bool {
        true
    }

    fn supports_dynamic(&self) -> bool {
        true
    }

    fn supports_crash(&self) -> bool {
        true
    }

    fn build(&self, world: &World, _params: &Params, seed: u64) -> Box<dyn AgentProtocol> {
        Box::new(RandomWalk::new(world, seed))
    }
}

#[cfg(test)]
mod tests {
    use crate::scenario::{Registry, ScenarioSpec, Schedule};
    use disp_graph::generators::GraphFamily;
    use disp_sim::Placement;

    // `random-walk` is a builtin since the fault-worlds campaigns need a
    // crash-tolerant algorithm on every entry point.
    fn registry() -> Registry {
        Registry::builtin()
    }

    #[test]
    fn random_walk_disperses_from_every_placement_under_every_schedule() {
        let reg = registry();
        for placement in Placement::all() {
            for schedule in [Schedule::Sync, Schedule::AsyncRandom { prob: 0.7 }] {
                let spec = ScenarioSpec::new(GraphFamily::RandomTree, 12, "random-walk")
                    .with_placement(placement)
                    .with_schedule(schedule);
                let report = spec.run(&reg, 5).unwrap();
                assert!(report.dispersed, "{}", spec.label());
                assert!(report.outcome.terminated);
            }
        }
    }

    #[test]
    fn random_walk_is_seed_deterministic() {
        let reg = registry();
        let spec = ScenarioSpec::new(GraphFamily::Grid, 10, "random-walk")
            .with_placement(Placement::ScatteredUniform);
        let a = spec.run(&reg, 99).unwrap();
        let b = spec.run(&reg, 99).unwrap();
        assert_eq!(a.outcome, b.outcome);
    }
}
