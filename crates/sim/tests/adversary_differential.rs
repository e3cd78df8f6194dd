//! Differential property tests for the event-driven adversaries.
//!
//! Each event-driven adversary (rotation-arithmetic round-robin, geometric
//! skip-sampling random subset, timer-wheel lagging, adaptive targeted) is
//! replayed against its retained naive O(k)-per-step reference
//! ([`disp_sim::adversary::reference`]) over seeded fuzzed grids of
//! `(k, steps, params)` **and** fuzzed worklist evolutions (agents parking
//! mid-run, waking later, victim sets shrinking as "settlement"
//! progresses). Both implementations must produce byte-identical
//! `(fire step, batch)` sequences — the clever data structures may change
//! the cost of a step, never its content.

use disp_rng::prelude::*;
use disp_sim::adversary::reference::{
    NaiveLagging, NaiveRandomSubset, NaiveRoundRobin, NaiveTargeted,
};
use disp_sim::adversary::{AdversaryError, StepView};
use disp_sim::{Adversary, AgentId};
use std::collections::HashSet;

/// How a [`ScriptedWorklist`] evolves after each batch.
#[derive(Debug, Clone, Copy)]
struct Script {
    /// Chance that a batch member parks.
    park: f64,
    /// Chance that a parked agent wakes.
    wake: f64,
    /// Chance that an active agent *outside* the batch parks. Such an agent
    /// still holds a pending timer-wheel entry, which its park leaves stale
    /// and an early wake must supersede.
    park_idle: f64,
    /// Chance that the clock jumps before the next scheduling call. Half
    /// the jumps are short (`1..=lag` steps skipped, nobody moves, so
    /// the entries still pending must survive the jump); half are idle
    /// stretches (every agent parks, `lag + 2..lag + 2 + gap` steps pass,
    /// and a non-empty set wakes, re-enrolling far ahead of the
    /// adversary's cursor).
    jump: f64,
    /// The adversary's `max_lag`, which the jump lengths are relative to.
    lag: u64,
    gap: u64,
}

/// The script the original differential cases run (it draws nothing for
/// the knobs it leaves at 0).
const BASE: Script = Script {
    park: 0.25,
    wake: 0.3,
    park_idle: 0.0,
    jump: 0.0,
    lag: 0,
    gap: 0,
};

/// A scripted worklist: evolves by parking and waking agents at random,
/// recording wake transitions in occurrence order — the same contract the
/// runner's transition log provides — and keeping the `agent → slot`
/// membership index the world hands adversaries (`u32::MAX` = parked).
struct ScriptedWorklist {
    active: Vec<AgentId>, // sorted
    pos: Vec<u32>,
    parked: Vec<AgentId>,
    woken: Vec<AgentId>,
    victims: HashSet<AgentId>,
}

/// What a scripted drive exercised, so a test can insist on its cases.
#[derive(Debug, Default, Clone, Copy)]
struct Exercised {
    /// Short clock jumps that pending entries survive.
    short_jumps: usize,
    /// Idle stretches longer than `max_lag + 1` steps.
    long_jumps: usize,
    /// Drives that ended with both adversaries stalled: a short jump can
    /// strand every active agent (their pending steps were skipped).
    stalls: usize,
    /// Agents parked while holding a pending entry, later woken.
    idle_parks: usize,
    /// One-agent batches.
    singletons: usize,
}

impl ScriptedWorklist {
    fn new(k: usize, rng: &mut StdRng) -> ScriptedWorklist {
        // Every agent starts active (worlds start fully active); a random
        // subset is designated victim.
        let victims = (0..k as u32)
            .map(AgentId)
            .filter(|_| rng.random_bool(0.4))
            .collect();
        ScriptedWorklist {
            active: (0..k as u32).map(AgentId).collect(),
            pos: (0..k as u32).collect(),
            parked: Vec::new(),
            woken: Vec::new(),
            victims,
        }
    }

    fn park(&mut self, a: AgentId) {
        if let Ok(i) = self.active.binary_search(&a) {
            self.active.remove(i);
            self.pos[a.index()] = u32::MAX;
            self.parked.push(a);
        }
    }

    fn wake(&mut self, i: usize) {
        let a = self.parked.swap_remove(i);
        if let Err(at) = self.active.binary_search(&a) {
            self.active.insert(at, a);
        }
        self.pos[a.index()] = a.0;
        self.woken.push(a);
    }

    /// Mutate the worklist after a batch, like a protocol would: some batch
    /// members park, some parked agents wake, some victims "settle" (leave
    /// the victim set). Wake order is the occurrence order. Returns the
    /// number of idle steps to skip before the next scheduling call.
    fn evolve(
        &mut self,
        batch: &[AgentId],
        script: Script,
        rng: &mut StdRng,
        seen: &mut Exercised,
    ) -> u64 {
        self.woken.clear();
        for &a in batch {
            // Keep at least one agent active: a real runner stalls out on
            // an empty worklist before ever calling the adversary again.
            if self.active.len() > 1 && rng.random_bool(script.park) {
                self.park(a);
            }
        }
        if script.park_idle > 0.0 {
            let idle: Vec<AgentId> = self
                .active
                .iter()
                .copied()
                .filter(|a| !batch.contains(a))
                .collect();
            for a in idle {
                if self.active.len() > 1 && rng.random_bool(script.park_idle) {
                    self.park(a);
                    seen.idle_parks += 1;
                }
            }
        }
        let mut i = 0;
        while i < self.parked.len() {
            if rng.random_bool(script.wake) {
                self.wake(i);
            } else {
                i += 1;
            }
        }
        if rng.random_bool(0.2) && !self.victims.is_empty() {
            let settle = *self.victims.iter().min().unwrap();
            self.victims.remove(&settle);
        }
        if script.jump > 0.0 && rng.random_bool(script.jump) {
            if rng.random_bool(0.5) {
                seen.short_jumps += 1;
                return 1 + rng.random_range(0..script.lag);
            }
            for a in self.active.clone() {
                self.park(a);
            }
            let wakers = 1 + rng.random_range(0..self.parked.len());
            for _ in 0..wakers {
                let i = rng.random_range(0..self.parked.len());
                self.wake(i);
            }
            seen.long_jumps += 1;
            return script.lag + 2 + rng.random_range(0..script.gap);
        }
        0
    }
}

/// Drive `fast` and `naive` through the same fuzzed worklist evolution and
/// assert byte-identical `(fire, batch)` sequences. Returns every batch for
/// fairness checks.
fn differential_drive(
    fast: &mut dyn Adversary,
    naive: &mut dyn Adversary,
    k: usize,
    batches: usize,
    script_seed: u64,
) -> Vec<(u64, Vec<AgentId>)> {
    scripted_drive(fast, naive, k, batches, script_seed, BASE).0
}

/// [`differential_drive`] under an explicit [`Script`], also reporting
/// what the drive exercised.
fn scripted_drive(
    fast: &mut dyn Adversary,
    naive: &mut dyn Adversary,
    k: usize,
    batches: usize,
    script_seed: u64,
    script: Script,
) -> (Vec<(u64, Vec<AgentId>)>, Exercised) {
    let mut rng = StdRng::seed_from_u64(script_seed);
    let mut wl = ScriptedWorklist::new(k, &mut rng);
    let mut out_fast: Vec<AgentId> = Vec::new();
    let mut out_naive: Vec<AgentId> = Vec::new();
    let mut produced = Vec::new();
    let mut seen = Exercised::default();
    let mut now = 0u64;
    for round in 0..batches {
        let victims = wl.victims.clone();
        let victim_fn = |a: AgentId| victims.contains(&a);
        let view = StepView::new(k, now, &wl.active, &wl.pos, &wl.woken, &victim_fn);
        let (fire_fast, fire_naive) = match (
            fast.next_step(&view, &mut out_fast),
            naive.next_step(&view, &mut out_naive),
        ) {
            (Ok(f), Ok(n)) => (f, n),
            (Err(AdversaryError::Stalled { .. }), Err(AdversaryError::Stalled { .. }))
                if seen.short_jumps > 0 =>
            {
                seen.stalls += 1;
                break;
            }
            (f, n) => panic!(
                "{} vs {}: {f:?} vs {n:?} at batch {round} (step {now})",
                fast.name(),
                naive.name()
            ),
        };
        assert_eq!(
            fire_fast,
            fire_naive,
            "{} vs {}: fire step diverged at batch {round} (step {now})",
            fast.name(),
            naive.name()
        );
        assert_eq!(
            out_fast,
            out_naive,
            "{} vs {}: batch diverged at step {fire_fast}",
            fast.name(),
            naive.name()
        );
        assert!(fire_fast >= now, "fired in the past");
        assert!(
            !out_fast.is_empty(),
            "{}: empty batch with {} active agents",
            fast.name(),
            wl.active.len()
        );
        for &a in &out_fast {
            assert!(
                wl.active.binary_search(&a).is_ok(),
                "{}: scheduled parked agent {a}",
                fast.name()
            );
        }
        if out_fast.len() == 1 {
            seen.singletons += 1;
        }
        produced.push((fire_fast, out_fast.clone()));
        let idle = wl.evolve(&out_fast, script, &mut rng, &mut seen);
        now = fire_fast + 1 + idle;
    }
    (produced, seen)
}

#[test]
fn round_robin_matches_naive_reference() {
    for case in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(mix(&[0x44_1F, case]));
        let k = 1 + rng.random_range(0..40usize);
        differential_drive(
            &mut disp_sim::RoundRobinAdversary::new(k),
            &mut NaiveRoundRobin::new(k),
            k,
            120,
            mix(&[0x5C21, case]),
        );
    }
}

#[test]
fn random_subset_matches_naive_reference() {
    for case in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(mix(&[0x44_2F, case]));
        let k = 1 + rng.random_range(0..40usize);
        let prob = 0.02 + (rng.random_range(0..98u32) as f64) / 100.0;
        let seed = rng.next_u64();
        differential_drive(
            &mut disp_sim::RandomSubsetAdversary::new(prob, k, seed),
            &mut NaiveRandomSubset::new(prob, k, seed),
            k,
            120,
            mix(&[0x5C22, case]),
        );
    }
}

#[test]
fn lagging_matches_naive_reference() {
    for case in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(mix(&[0x44_3F, case]));
        let k = 1 + rng.random_range(0..40usize);
        let max_lag = 1 + rng.random_range(0..9u64);
        let seed = rng.next_u64();
        let batches = differential_drive(
            &mut disp_sim::LaggingAdversary::new(max_lag, k, seed),
            &mut NaiveLagging::new(max_lag, k, seed),
            k,
            150,
            mix(&[0x5C23, case]),
        );
        // The doc contract: initial periods come from 1..=max_lag. An agent
        // can only park after its first activation (only batch members
        // park in the script), so every agent's first activation fires
        // strictly before step max_lag.
        let mut first = vec![u64::MAX; k];
        for (fire, batch) in &batches {
            for a in batch {
                first[a.index()] = first[a.index()].min(*fire);
            }
        }
        for (i, &f) in first.iter().enumerate() {
            assert!(
                f < max_lag,
                "agent {i} first fired at {f}, outside the documented 1..={max_lag} period range"
            );
        }
    }
}

#[test]
fn targeted_matches_naive_reference() {
    for case in 0..60u64 {
        let mut rng = StdRng::seed_from_u64(mix(&[0x44_4F, case]));
        let k = 1 + rng.random_range(0..40usize);
        let max_lag = 1 + rng.random_range(0..9u64);
        differential_drive(
            &mut disp_sim::TargetedAdversary::new(max_lag, k),
            &mut NaiveTargeted::new(max_lag, k),
            k,
            120,
            mix(&[0x5C24, case]),
        );
    }
}

#[test]
fn every_kind_is_fair_over_the_active_set() {
    // Across a long fuzzed run, every agent that spends the whole run
    // active must be scheduled at least once (fairness); agents parked the
    // whole time must never be.
    for case in 0..12u64 {
        let mut rng = StdRng::seed_from_u64(mix(&[0xFA_1E, case]));
        let k = 2 + rng.random_range(0..24usize);
        let adversaries: Vec<Box<dyn Adversary>> = vec![
            Box::new(disp_sim::RoundRobinAdversary::new(k)),
            Box::new(disp_sim::RandomSubsetAdversary::new(0.3, k, 5)),
            Box::new(disp_sim::LaggingAdversary::new(4, k, 5)),
            Box::new(disp_sim::TargetedAdversary::new(4, k)),
        ];
        for mut adv in adversaries {
            // Static worklist: everyone active except one permanently
            // parked agent; half the agents are victims.
            let parked = AgentId(rng.random_range(0..k as u32));
            let active: Vec<AgentId> = (0..k as u32)
                .map(AgentId)
                .filter(|&a| a != parked)
                .collect();
            let mut pos: Vec<u32> = (0..k as u32).collect();
            pos[parked.index()] = u32::MAX;
            let victims = |a: AgentId| a.0.is_multiple_of(2);
            let mut seen = HashSet::new();
            let mut out = Vec::new();
            let mut now = 0u64;
            for _ in 0..200 {
                let view = StepView::new(k, now, &active, &pos, &[], &victims);
                let fire = adv.next_step(&view, &mut out).expect("schedule");
                seen.extend(out.iter().copied());
                now = fire + 1;
            }
            assert!(
                !seen.contains(&parked),
                "{} scheduled a parked agent",
                adv.name()
            );
            assert_eq!(
                seen.len(),
                k - 1,
                "{} starved an active agent (case {case})",
                adv.name()
            );
        }
    }
}

/// A lagging case drawn from `tag`: `(k, max_lag, seed)` with `k` in
/// `1..=max_k` and `max_lag` in `1..=max_lag_cap`.
fn lagging_case(tag: u64, case: u64, max_k: usize, max_lag_cap: u64) -> (usize, u64, u64) {
    let mut rng = StdRng::seed_from_u64(mix(&[tag, case]));
    let k = 1 + rng.random_range(0..max_k);
    let max_lag = 1 + rng.random_range(0..max_lag_cap);
    (k, max_lag, rng.next_u64())
}

fn lagging_pair(k: usize, max_lag: u64, seed: u64) -> (disp_sim::LaggingAdversary, NaiveLagging) {
    (
        disp_sim::LaggingAdversary::new(max_lag, k, seed),
        NaiveLagging::new(max_lag, k, seed),
    )
}

#[test]
fn lagging_matches_naive_reference_across_clock_jumps() {
    // The clock skips steps: short jumps must keep the pending entries
    // (the tracked wheel index is re-derived at the new step), and idle
    // stretches longer than max_lag + 1 leave only the agents that wake
    // after them, re-enrolled far ahead of where the adversary last stood.
    let (mut seen, mut batches) = (Exercised::default(), 0);
    for case in 0..120u64 {
        let (k, max_lag, seed) = lagging_case(0x44_5F, case, 24, 9);
        let script = Script {
            jump: 0.08,
            lag: max_lag,
            gap: 2 * max_lag + 4,
            ..BASE
        };
        let (mut fast, mut naive) = lagging_pair(k, max_lag, seed);
        let (b, s) = scripted_drive(&mut fast, &mut naive, k, 150, mix(&[0x5C25, case]), script);
        batches += b.len();
        seen.short_jumps += s.short_jumps;
        seen.long_jumps += s.long_jumps;
        seen.stalls += s.stalls;
    }
    assert!(
        seen.short_jumps >= 200 && seen.long_jumps >= 200,
        "too few jumps exercised: {seen:?}"
    );
    assert!(
        batches >= 6_000,
        "drives stranded early: {batches} batches, {seen:?}"
    );
}

#[test]
fn lagging_matches_naive_reference_at_max_lag_one() {
    // A two-bucket wheel: every period is 1, so each bucket is reused every
    // other step and the tracked index wraps on every advance.
    for case in 0..40u64 {
        let (k, _, seed) = lagging_case(0x44_6F, case, 40, 1);
        for script in [
            BASE,
            Script {
                park_idle: 0.2,
                wake: 0.5,
                jump: 0.1,
                lag: 1,
                gap: 4,
                ..BASE
            },
        ] {
            let (mut fast, mut naive) = lagging_pair(k, 1, seed);
            scripted_drive(&mut fast, &mut naive, k, 150, mix(&[0x5C26, case]), script);
        }
    }
}

#[test]
fn lagging_matches_naive_reference_on_singleton_batches() {
    // Few agents over a long lag: most batches hold one agent, which draws
    // no order stream.
    let mut singletons = 0;
    for case in 0..40u64 {
        let (k, max_lag, seed) = lagging_case(0x44_7F, case, 3, 16);
        let script = Script { park: 0.5, ..BASE };
        let (mut fast, mut naive) = lagging_pair(k, max_lag, seed);
        let (_, seen) = scripted_drive(&mut fast, &mut naive, k, 150, mix(&[0x5C27, case]), script);
        singletons += seen.singletons;
    }
    assert!(singletons >= 2_000, "only {singletons} singleton batches");
}

#[test]
fn lagging_matches_naive_reference_when_parked_agents_hold_stale_entries() {
    // Active agents outside the batch park while their wheel entry is
    // pending, and wake again soon — usually before that entry's step comes
    // up, so the wheel holds two entries for them and only the newer stamp
    // may fire.
    let mut idle_parks = 0;
    for case in 0..40u64 {
        let (k, max_lag, seed) = lagging_case(0x44_8F, case, 24, 9);
        let script = Script {
            park_idle: 0.3,
            wake: 0.7,
            ..BASE
        };
        let (mut fast, mut naive) = lagging_pair(k, max_lag, seed);
        let (_, seen) = scripted_drive(&mut fast, &mut naive, k, 150, mix(&[0x5C28, case]), script);
        idle_parks += seen.idle_parks;
    }
    assert!(
        idle_parks >= 1_000,
        "only {idle_parks} pending entries parked"
    );
}

#[test]
fn random_subset_matches_naive_reference_across_clock_jumps() {
    // The per-step prefix-mixed streams are keyed by the step alone, so a
    // jumped clock must land on the reference's streams too.
    for case in 0..30u64 {
        let mut rng = StdRng::seed_from_u64(mix(&[0x44_9F, case]));
        let k = 1 + rng.random_range(0..24usize);
        let prob = 0.02 + (rng.random_range(0..98u32) as f64) / 100.0;
        let seed = rng.next_u64();
        let script = Script {
            park_idle: 0.1,
            jump: 0.15,
            lag: 5,
            gap: 40,
            ..BASE
        };
        scripted_drive(
            &mut disp_sim::RandomSubsetAdversary::new(prob, k, seed),
            &mut NaiveRandomSubset::new(prob, k, seed),
            k,
            120,
            mix(&[0x5C29, case]),
            script,
        );
    }
}
