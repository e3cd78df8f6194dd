//! Deterministic fault plans: edge churn and crash-faulty agents.
//!
//! Both fault models are **plans**, fully derived from a seed before the run
//! starts, never from execution state. That is what makes faulty campaigns
//! reproducible: the same seed yields the same kill schedule regardless of
//! thread count, kill/resume, or protocol behavior — the adversary is
//! oblivious, exactly like the activation adversaries of
//! [`crate::adversary`].
//!
//! * [`DynamicAdversary`] — the dynamic-graph model of *Time Optimal
//!   Distance-k-Dispersion on Dynamic Ring* (arXiv 2408.12220): at every
//!   round boundary the previously removed edge is restored and one seeded
//!   edge is removed, so exactly `rate` edges are missing while a round
//!   executes. Backed by the O(1) [`disp_graph::EdgeLiveness`] overlay.
//! * [`CrashPlan`] — `f` distinct victims drawn by a seeded partial
//!   Fisher–Yates shuffle, each assigned a crash time uniform in
//!   `[1, horizon]`. The runners apply due crashes at round boundaries
//!   (SYNC) / step boundaries (ASYNC) *before* snapshotting the worklist,
//!   so a batch never contains a freshly-crashed agent.

use crate::ids::AgentId;
use crate::world::World;
use disp_graph::{NodeId, Port};
use disp_rng::prelude::*;
use disp_rng::splitmix64;

/// Seed tag for the dynamic adversary's edge draws.
const SEED_DYN_EDGE: u64 = 0xFA17_0001;
/// Seed tag for the crash plan's victim/time draws.
const SEED_CRASH: u64 = 0xFA17_0002;

/// Seeded one-edge-per-round (generalized to `rate` edges) dynamic-graph
/// adversary. Each [`DynamicAdversary::advance`] restores the previous
/// round's removed edges and removes `rate` freshly drawn ones; the draw
/// sequence depends only on the seed and the advance count.
#[derive(Debug, Clone)]
pub struct DynamicAdversary {
    rate: u32,
    /// Splitmix stream state, derived once from the seed; each advance
    /// consumes `rate` draws, so the sequence is a pure function of the
    /// seed and the advance count — same obliviousness, no per-round
    /// multi-word hashing. `advance` runs at every round boundary of a
    /// dynamic run (worklist rounds are otherwise nearly free), so its
    /// constant matters: this keeps the dynamic-ring bench within the 2×
    /// envelope of the static ring.
    stream: u64,
    down: Vec<(NodeId, Port)>,
}

impl DynamicAdversary {
    /// A dynamic adversary removing `rate ≥ 1` edges per round.
    pub fn new(seed: u64, rate: u32) -> DynamicAdversary {
        assert!(rate >= 1, "a dynamic adversary must remove at least 1 edge");
        DynamicAdversary {
            rate,
            stream: mix(&[SEED_DYN_EDGE, seed]),
            down: Vec::with_capacity(rate as usize),
        }
    }

    /// Edges removed per round.
    pub fn rate(&self) -> u32 {
        self.rate
    }

    /// Advance one round boundary: restore last round's edges, remove the
    /// next seeded batch. O(`rate`) regardless of graph size.
    pub fn advance(&mut self, world: &mut World) {
        for (v, p) in self.down.drain(..) {
            let revived = world.revive_edge(v, p);
            debug_assert!(revived, "dynamic adversary lost track of ({v},{p})");
        }
        let n = world.graph().num_nodes() as u64;
        for _ in 0..self.rate {
            // One 64-bit draw per edge; both range reductions are Lemire
            // multiply-shifts (no division on the per-round path).
            let x = splitmix64(&mut self.stream);
            let v = NodeId((((x as u128 * n as u128) >> 64) as u64) as u32);
            let deg = world.graph().degree(v) as u64;
            if deg == 0 {
                continue;
            }
            let p = Port((((x >> 32) * deg) >> 32) as u32 + 1);
            // Two draws may hit the same edge; kill() reports the no-op and
            // the duplicate simply is not recorded (still deterministic).
            if world.kill_edge(v, p) {
                self.down.push((v, p));
            }
        }
    }
}

/// A deterministic crash schedule: `f` distinct victims, each with a crash
/// time in `[1, horizon]`, applied by the runners at time boundaries via
/// [`CrashPlan::next_due`].
#[derive(Debug, Clone)]
pub struct CrashPlan {
    /// Crash events sorted by `(time, agent)`.
    events: Vec<(u64, AgentId)>,
    next: usize,
}

impl CrashPlan {
    /// Derive a plan killing `f` of `k` agents at seeded times in
    /// `[1, horizon]`. Victims are drawn without replacement (a partial
    /// Fisher–Yates over `0..k`), so no agent crashes twice.
    pub fn new(seed: u64, k: usize, f: usize, horizon: u64) -> CrashPlan {
        assert!(f <= k, "cannot crash {f} of {k} agents");
        let mut rng = StdRng::seed_from_u64(mix(&[SEED_CRASH, seed]));
        let mut ids: Vec<u32> = (0..k as u32).collect();
        let horizon = horizon.max(1);
        let mut events = Vec::with_capacity(f);
        for i in 0..f {
            let j = i + rng.random_range(0..(k - i) as u64) as usize;
            ids.swap(i, j);
            let time = 1 + rng.random_range(0..horizon);
            events.push((time, AgentId(ids[i])));
        }
        events.sort_unstable();
        CrashPlan { events, next: 0 }
    }

    /// Number of crashes in the plan.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the plan holds no crashes at all.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// The full `(time, victim)` schedule (sorted), for tests and reports.
    pub fn events(&self) -> &[(u64, AgentId)] {
        &self.events
    }

    /// Pop the next victim whose crash time is `≤ now`, if any. Runners
    /// call this in a loop at every time boundary.
    pub fn next_due(&mut self, now: u64) -> Option<AgentId> {
        match self.events.get(self.next) {
            Some(&(time, victim)) if time <= now => {
                self.next += 1;
                Some(victim)
            }
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disp_graph::generators;

    #[test]
    fn crash_plans_are_deterministic_distinct_and_sorted() {
        let a = CrashPlan::new(42, 100, 10, 64);
        let b = CrashPlan::new(42, 100, 10, 64);
        assert_eq!(a.events(), b.events(), "same seed, same plan");
        assert_eq!(a.len(), 10);
        let mut victims: Vec<u32> = a.events().iter().map(|&(_, v)| v.0).collect();
        victims.sort_unstable();
        victims.dedup();
        assert_eq!(victims.len(), 10, "victims are distinct");
        for w in a.events().windows(2) {
            assert!(w[0] <= w[1], "events sorted");
        }
        for &(t, _) in a.events() {
            assert!((1..=64).contains(&t), "time {t} outside [1, horizon]");
        }
        let c = CrashPlan::new(43, 100, 10, 64);
        assert_ne!(a.events(), c.events(), "different seed, different plan");
    }

    #[test]
    fn next_due_pops_in_time_order() {
        let mut plan = CrashPlan::new(7, 10, 3, 8);
        let times: Vec<u64> = plan.events().iter().map(|&(t, _)| t).collect();
        let mut popped = Vec::new();
        for now in 0..=8 {
            while let Some(v) = plan.next_due(now) {
                popped.push((now, v));
            }
        }
        assert_eq!(popped.len(), 3);
        for (i, &(now, _)) in popped.iter().enumerate() {
            assert!(times[i] <= now, "event {i} fired before its time");
        }
        assert_eq!(plan.next_due(u64::MAX), None, "plan exhausted");
    }

    #[test]
    fn dynamic_adversary_holds_exactly_rate_edges_down() {
        let mut world = World::new_rooted(generators::ring(1000), 1, NodeId(0));
        let mut dynamics = DynamicAdversary::new(9, 1);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..200 {
            dynamics.advance(&mut world);
            let live = world.liveness().expect("advance enables liveness");
            assert_eq!(live.dead_edges(), 1);
            seen.insert(dynamics.down[0]);
        }
        assert!(seen.len() > 50, "draws must spread over the ring");
    }

    #[test]
    fn dynamic_adversary_is_reproducible() {
        let mut w1 = World::new_rooted(generators::ring(64), 1, NodeId(0));
        let mut w2 = World::new_rooted(generators::ring(64), 1, NodeId(0));
        let mut d1 = DynamicAdversary::new(5, 2);
        let mut d2 = DynamicAdversary::new(5, 2);
        for _ in 0..50 {
            d1.advance(&mut w1);
            d2.advance(&mut w2);
            assert_eq!(d1.down, d2.down);
        }
    }
}
