//! Synchronous and asynchronous execution drivers.
//!
//! Both runners schedule off the world's **active-agent worklist** (see
//! [`crate::world`]): agents parked by the protocol are skipped instead of
//! activated into a guaranteed no-op. In SYNC the skipped activations are
//! credited per round; in ASYNC the event-driven adversary schedules only
//! active agents and the clock bulk-credits parked agents once per epoch at
//! the boundary (the adversarial procrastination rule — see
//! [`crate::clock::Clock`]), which makes a scheduler step cost O(active),
//! never O(k).

use crate::adversary::{Adversary, StepView};
use crate::clock::Clock;
use crate::fault::{CrashPlan, DynamicAdversary};
use crate::ids::AgentId;
use crate::metrics::Outcome;
use crate::observe::Observer;
use crate::protocol::AgentProtocol;
use crate::timeline::TimelinePoint;
use crate::world::World;

/// Limits and sampling knobs for a run.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Maximum SYNC rounds before the runner gives up.
    pub max_rounds: u64,
    /// Maximum ASYNC scheduler steps before the runner gives up.
    pub max_steps: u64,
    /// Sample per-agent memory every this many rounds/steps (a final sample
    /// is always taken). Smaller values catch short-lived peaks at the cost
    /// of `O(k)` work per sample. **`0` selects geometric sampling** (powers
    /// of two), which bounds total sampling work at `O(k log T)` — what
    /// million-agent runs need.
    pub memory_sample_interval: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            max_rounds: 5_000_000,
            max_steps: 20_000_000,
            memory_sample_interval: 4,
        }
    }
}

impl RunConfig {
    /// A config with explicit round/step limits (useful for tests that want
    /// small bounds).
    pub fn with_limits(max_rounds: u64, max_steps: u64) -> Self {
        RunConfig {
            max_rounds,
            max_steps,
            ..RunConfig::default()
        }
    }
}

/// Why a run did not complete.
#[derive(Debug, Clone, PartialEq)]
pub enum RunError {
    /// The protocol did not report termination within the configured limit
    /// (or stalled: every agent parked with the protocol unterminated, in
    /// which case no future activation can ever act and the runner gives up
    /// immediately instead of spinning to the limit).
    /// Carries the partial outcome observed so far.
    LimitExceeded {
        /// Metrics accumulated up to the point the limit was hit.
        outcome: Outcome,
    },
    /// The adversary broke its scheduling contract (an out-of-range agent
    /// id, a mid-run agent-count change, a backwards or empty batch). A
    /// buggy adversary fails its trial with this typed error; it must never
    /// take down the campaign process.
    Adversary {
        /// The scheduler step at which the fault surfaced.
        step: u64,
        /// What the adversary did wrong.
        reason: String,
        /// Metrics accumulated up to the fault (boxed to keep the error
        /// variant small on the happy path).
        outcome: Box<Outcome>,
    },
}

impl std::fmt::Display for RunError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RunError::LimitExceeded { outcome } => write!(
                f,
                "protocol did not terminate within the limit (rounds={}, steps={}, epochs={})",
                outcome.rounds, outcome.steps, outcome.epochs
            ),
            RunError::Adversary { step, reason, .. } => {
                write!(f, "adversary fault at step {step}: {reason}")
            }
        }
    }
}

impl std::error::Error for RunError {}

fn sample_memory<P: AgentProtocol + ?Sized>(world: &mut World, protocol: &P) {
    let max_bits = match protocol.max_memory_bits() {
        Some(max) => max,
        None => {
            let k = world.num_agents();
            (0..k)
                .map(|i| protocol.memory_bits(AgentId(i as u32)))
                .max()
                .unwrap_or(0)
        }
    };
    world.metrics_mut().record_memory_sample(max_bits);
}

fn should_sample(t: u64, interval: u64) -> bool {
    if interval == 0 {
        t.is_power_of_two()
    } else {
        t.is_multiple_of(interval)
    }
}

/// [`should_sample`] for a counter that only grows (the rounds, the
/// steps): one comparison per round or step, and the division only once
/// the counter reaches the next sample point.
struct Sampler {
    interval: u64,
    next: u64,
}

impl Sampler {
    fn new(interval: u64) -> Sampler {
        Sampler { interval, next: 0 }
    }

    /// Whether `t`, larger than every earlier argument, is a sample point.
    fn due(&mut self, t: u64) -> bool {
        if t < self.next {
            return false;
        }
        self.next = match self.interval {
            0 => t.checked_add(1).and_then(u64::checked_next_power_of_two),
            i => (t / i).checked_add(1).and_then(|q| q.checked_mul(i)),
        }
        .unwrap_or(u64::MAX);
        should_sample(t, self.interval)
    }
}

/// Sample one flight-recorder point from the current world + protocol
/// state. Pure observation: nothing here mutates either, so an observed run
/// is byte-identical to an unobserved one. Cost is O(classes) plus one
/// small allocation per sample — and samples happen only at the boundaries
/// an observer wants, never per activation.
fn timeline_point<P: AgentProtocol + ?Sized>(
    world: &World,
    protocol: &P,
    time: u64,
    batch: u64,
) -> TimelinePoint {
    let mut classes: Vec<(&'static str, u32)> = Vec::new();
    protocol.class_counts(&mut classes);
    let settled = classes
        .iter()
        .filter(|(name, _)| *name == "settled")
        .map(|&(_, count)| count as u64)
        .sum();
    let k = world.num_agents() as u64;
    let active = world.active_count() as u64;
    let crashed = world.dead_count() as u64;
    TimelinePoint {
        time,
        settled,
        active,
        parked: k.saturating_sub(active + crashed),
        crashed,
        moves: world.metrics().total_moves(),
        dead_edges: world.liveness().map_or(0, |l| l.dead_edges() as u64),
        batch,
        classes,
    }
}

/// Hand `observer` the boundary at `time` if it wants it.
fn observe_boundary<P: AgentProtocol + ?Sized, O: Observer>(
    observer: &mut O,
    world: &World,
    protocol: &P,
    time: u64,
    batch: u64,
) {
    if observer.wants_boundary(time) {
        observer.boundary(timeline_point(world, protocol, time, batch));
    }
}

/// Hand `observer` the final point at `time` if it wants it.
fn observe_final<P: AgentProtocol + ?Sized, O: Observer>(
    observer: &mut O,
    world: &World,
    protocol: &P,
    time: u64,
) {
    if observer.wants_final() {
        observer.final_point(timeline_point(world, protocol, time, 0));
    }
}

fn build_outcome(world: &World, clock: &Clock, terminated: bool) -> Outcome {
    Outcome {
        rounds: clock.rounds(),
        steps: clock.steps(),
        epochs: clock.epochs(),
        activations: clock.total_activations(),
        total_moves: world.metrics().total_moves(),
        max_moves_per_agent: world.metrics().max_moves_per_agent(),
        peak_memory_bits: world.metrics().peak_memory_bits(),
        terminated,
        k: world.num_agents(),
        n: world.graph().num_nodes(),
        m: world.graph().num_edges(),
        max_degree: world.graph().max_degree(),
    }
}

/// Drives a protocol under the synchronous scheduler: every **active** agent
/// is activated once per round, in agent-index order; parked agents' no-op
/// activations are credited without being executed.
///
/// Activating agents sequentially within a round is a deterministic
/// refinement of the synchronous model (it only ever gives agents *fresher*
/// information than true simultaneity would); the paper's algorithms are
/// leader-driven and insensitive to the difference, and the round counting —
/// which is what the reproduction measures — is identical. An agent woken
/// mid-round by a lower-id agent's action is activated later in the same
/// round, exactly as the full id-order sweep would have.
#[derive(Debug, Clone, Default)]
pub struct SyncRunner {
    config: RunConfig,
    dynamics: Option<DynamicAdversary>,
    crashes: Option<CrashPlan>,
}

impl SyncRunner {
    /// A runner with the given configuration.
    pub fn new(config: RunConfig) -> Self {
        SyncRunner {
            config,
            dynamics: None,
            crashes: None,
        }
    }

    /// Attach a dynamic-graph adversary: it advances at every round
    /// boundary (the previous round's removed edges come back, the next
    /// seeded batch goes down) before any agent of the round activates.
    pub fn with_dynamics(mut self, dynamics: DynamicAdversary) -> Self {
        self.dynamics = Some(dynamics);
        self
    }

    /// Attach a crash plan: due victims crash at the round boundary, before
    /// the round's worklist snapshot, and the protocol is notified via
    /// [`AgentProtocol::on_crash`].
    pub fn with_crashes(mut self, crashes: CrashPlan) -> Self {
        self.crashes = Some(crashes);
        self
    }

    /// Run `protocol` on `world` until it terminates or the round limit is
    /// hit.
    pub fn run<P: AgentProtocol + ?Sized>(
        &self,
        world: &mut World,
        protocol: &mut P,
    ) -> Result<Outcome, RunError> {
        self.run_observed(world, protocol, &mut ())
    }

    /// Like [`run`](SyncRunner::run), reporting to `observer` (see
    /// [`crate::observe`]): every event, the round boundaries it wants
    /// (the initial state is round 0) and the final point, also on the
    /// limit-exceeded path, so partial runs keep their tail.
    pub fn run_observed<P: AgentProtocol + ?Sized, O: Observer>(
        &self,
        world: &mut World,
        protocol: &mut P,
        observer: &mut O,
    ) -> Result<Outcome, RunError> {
        let k = world.num_agents();
        let mut clock = Clock::new(k);
        let mut queue: Vec<AgentId> = Vec::new();
        let mut transitions: Vec<(AgentId, bool)> = Vec::new();
        let mut sampler = Sampler::new(self.config.memory_sample_interval);
        // Fault plans are cloned so the runner stays reusable (`&self`).
        let mut dynamics = self.dynamics.clone();
        let mut crashes = self.crashes.clone();
        sample_memory(world, protocol);
        observe_boundary(observer, world, protocol, 0, 0);
        while !protocol.is_terminated() {
            if clock.rounds() >= self.config.max_rounds || world.active_count() == 0 {
                world.sync_ride_accounting();
                observe_final(observer, world, protocol, clock.rounds());
                return Err(RunError::LimitExceeded {
                    outcome: build_outcome(world, &clock, false),
                });
            }
            let now = clock.rounds();
            // Round boundary: the world changes before any agent acts.
            if let Some(dynamics) = dynamics.as_mut() {
                dynamics.advance(world);
            }
            if let Some(crashes) = crashes.as_mut() {
                let mut any = false;
                while let Some(victim) = crashes.next_due(now) {
                    world.crash(victim);
                    protocol.on_crash(victim);
                    any = true;
                }
                if any {
                    // Crash-induced parks/wakes are already reflected in the
                    // worklist the snapshot below reads; discard the log so
                    // the in-round wake bookkeeping doesn't replay them.
                    world.drain_transitions(&mut transitions);
                }
            }
            world.snapshot_active_sorted(&mut queue);
            let mut i = 0;
            while i < queue.len() {
                let agent = queue[i];
                i += 1;
                if !world.is_active(agent) {
                    // Parked earlier this round: its activation is a no-op.
                    continue;
                }
                world.begin_activation(agent);
                let mut ctx = world.ctx(agent, now, observer);
                protocol.on_activate(agent, &mut ctx);
                // Wakes with a larger id are still due this round.
                world.drain_transitions(&mut transitions);
                for &(w, woke) in &transitions {
                    if woke && w > agent {
                        if let Err(pos) = queue[i..].binary_search(&w) {
                            queue.insert(i + pos, w);
                        }
                    }
                }
            }
            clock.credit_round(k);
            if sampler.due(clock.rounds()) {
                sample_memory(world, protocol);
            }
            observe_boundary(observer, world, protocol, clock.rounds(), 0);
        }
        world.sync_ride_accounting();
        sample_memory(world, protocol);
        observe_final(observer, world, protocol, clock.rounds());
        Ok(build_outcome(world, &clock, true))
    }
}

/// Drives a protocol under an asynchronous scheduler controlled by an
/// event-driven [`Adversary`]. Time is reported in epochs.
///
/// Per step the adversary receives a [`StepView`] — the sorted active
/// worklist, the wake transitions of the previous batch and the protocol's
/// victim designation (`!is_settled`) — and writes the batch into a reused
/// buffer, returning the step it fires at (empty steps are skipped
/// wholesale). Parked agents are never scheduled; the clock bulk-credits
/// each of them one activation per epoch at the boundary. Adversary
/// contract violations surface as typed [`RunError::Adversary`] values.
pub struct AsyncRunner<A: Adversary> {
    config: RunConfig,
    adversary: A,
    dynamics: Option<DynamicAdversary>,
    crashes: Option<CrashPlan>,
}

impl<A: Adversary> AsyncRunner<A> {
    /// A runner with the given configuration and adversary.
    pub fn new(config: RunConfig, adversary: A) -> Self {
        AsyncRunner {
            config,
            adversary,
            dynamics: None,
            crashes: None,
        }
    }

    /// Attach a dynamic-graph adversary: it advances once before the first
    /// step and then at every epoch boundary (the ASYNC analogue of the
    /// SYNC per-round edge churn).
    pub fn with_dynamics(mut self, dynamics: DynamicAdversary) -> Self {
        self.dynamics = Some(dynamics);
        self
    }

    /// Attach a crash plan keyed on scheduler steps: due victims crash
    /// before the step's worklist snapshot, so a batch never contains a
    /// freshly-crashed agent.
    pub fn with_crashes(mut self, crashes: CrashPlan) -> Self {
        self.crashes = Some(crashes);
        self
    }

    /// Run `protocol` on `world` until it terminates or the step limit is
    /// hit.
    pub fn run<P: AgentProtocol + ?Sized>(
        &mut self,
        world: &mut World,
        protocol: &mut P,
    ) -> Result<Outcome, RunError> {
        self.run_observed(world, protocol, &mut ())
    }

    /// Like [`run`](AsyncRunner::run), reporting to `observer` (see
    /// [`crate::observe`]): every event, the **epoch boundaries** it wants
    /// (the initial state is epoch 0) and the final point, also on the
    /// limit-exceeded paths but not on an adversary fault. Boundary time
    /// is measured in epochs; a point's `batch` field carries the size of
    /// the adversary batch that closed the epoch.
    pub fn run_observed<P: AgentProtocol + ?Sized, O: Observer>(
        &mut self,
        world: &mut World,
        protocol: &mut P,
        observer: &mut O,
    ) -> Result<Outcome, RunError> {
        let k = world.num_agents();
        let mut clock = Clock::new(k);
        let mut batch: Vec<AgentId> = Vec::new();
        let mut transitions: Vec<(AgentId, bool)> = Vec::new();
        let mut woken_for_adv: Vec<AgentId> = Vec::new();
        let mut sampler = Sampler::new(self.config.memory_sample_interval);
        // Pre-run park/wake calls are already reflected in the worklist;
        // the adversary discovers pre-parked agents lazily.
        world.drain_transitions(&mut transitions);
        clock.init_epoch(world.active_slice().iter().copied());
        if let Some(dynamics) = self.dynamics.as_mut() {
            dynamics.advance(world);
        }
        sample_memory(world, protocol);
        observe_boundary(observer, world, protocol, 0, 0);
        while !protocol.is_terminated() {
            if clock.steps() >= self.config.max_steps || world.active_count() == 0 {
                world.sync_ride_accounting();
                observe_final(observer, world, protocol, clock.epochs());
                return Err(RunError::LimitExceeded {
                    outcome: build_outcome(world, &clock, false),
                });
            }
            if let Some(crashes) = self.crashes.as_mut() {
                let now = clock.steps();
                let mut any = false;
                while let Some(victim) = crashes.next_due(now) {
                    world.crash(victim);
                    protocol.on_crash(victim);
                    any = true;
                }
                if any {
                    // Feed the crash-induced transitions to the epoch
                    // bookkeeping and the adversary's wake feed.
                    world.drain_transitions(&mut transitions);
                    for &(a, woke) in &transitions {
                        if woke {
                            woken_for_adv.push(a);
                        } else {
                            clock.note_park(a);
                        }
                    }
                    // A crash may have terminated the protocol (the victim
                    // was the last unsettled agent) or emptied the active
                    // set; re-evaluate the loop conditions before asking
                    // the adversary to schedule anything.
                    continue;
                }
            }
            let scheduled = {
                let victims = |a: AgentId| !protocol.is_settled(a);
                // Borrows the world's cached sorted worklist and its O(1)
                // membership index — no copy, and the sort itself only
                // reruns after a park/wake/crash.
                let (active, active_pos) = world.schedule_view();
                let view = StepView::new(
                    k,
                    clock.steps(),
                    active,
                    active_pos,
                    &woken_for_adv,
                    &victims,
                );
                self.adversary.next_step(&view, &mut batch)
            };
            let fault = |world: &mut World, clock: &Clock, reason: String| {
                world.sync_ride_accounting();
                RunError::Adversary {
                    step: clock.steps(),
                    reason,
                    outcome: Box::new(build_outcome(world, clock, false)),
                }
            };
            let fire = match scheduled {
                Err(e) => return Err(fault(world, &clock, e.to_string())),
                Ok(fire) if fire < clock.steps() => {
                    return Err(fault(
                        world,
                        &clock,
                        format!("batch fired at step {fire}, before the current step"),
                    ))
                }
                Ok(_) if batch.is_empty() => {
                    return Err(fault(
                        world,
                        &clock,
                        "empty batch although agents are active".into(),
                    ))
                }
                Ok(fire) => fire,
            };
            if fire >= self.config.max_steps {
                // The next activity lies at or beyond the limit: the empty
                // steps up to the limit elapsed, nothing beyond it ran.
                clock.cap_steps(self.config.max_steps);
                world.sync_ride_accounting();
                observe_final(observer, world, protocol, clock.epochs());
                return Err(RunError::LimitExceeded {
                    outcome: build_outcome(world, &clock, false),
                });
            }
            for &agent in batch.iter() {
                if agent.index() >= k {
                    return Err(fault(
                        world,
                        &clock,
                        format!("agent id {agent} out of range (k = {k})"),
                    ));
                }
                if !world.is_active(agent) {
                    // Parked by an earlier batch member; skipped (its
                    // activations are bulk-credited at epoch boundaries).
                    continue;
                }
                world.begin_activation(agent);
                let mut ctx = world.ctx(agent, fire, observer);
                protocol.on_activate(agent, &mut ctx);
                clock.note_exec(agent);
            }
            woken_for_adv.clear();
            world.drain_transitions(&mut transitions);
            for &(a, woke) in &transitions {
                if woke {
                    woken_for_adv.push(a);
                } else {
                    clock.note_park(a);
                }
            }
            if clock.epoch_ready() {
                if protocol.is_terminated() {
                    // Time stops at the boundary: the epoch completed, but
                    // the parked agents' procrastinated boundary
                    // activations never happen.
                    clock.finish_final_epoch();
                } else {
                    clock.begin_epoch(world.active_slice().iter().copied());
                    if let Some(dynamics) = self.dynamics.as_mut() {
                        dynamics.advance(world);
                    }
                    let closing = batch.len() as u64;
                    observe_boundary(observer, world, protocol, clock.epochs(), closing);
                }
            }
            clock.finish_step(fire);
            if sampler.due(clock.steps()) {
                sample_memory(world, protocol);
            }
        }
        world.sync_ride_accounting();
        sample_memory(world, protocol);
        observe_final(observer, world, protocol, clock.epochs());
        Ok(build_outcome(world, &clock, true))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::adversary::{
        AdversaryError, LaggingAdversary, RandomSubsetAdversary, RoundRobinAdversary,
        TargetedAdversary,
    };
    use crate::world::ActivationCtx;
    use disp_graph::{generators, NodeId, Port};

    /// Every agent walks once around the ring (n moves each), then stops.
    struct WalkAround {
        laps_left: Vec<u32>,
    }

    impl WalkAround {
        fn new(k: usize, n: u32) -> Self {
            WalkAround {
                laps_left: vec![n; k],
            }
        }
    }

    impl AgentProtocol for WalkAround {
        fn on_activate(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
            if self.laps_left[agent.index()] > 0 {
                ctx.move_via(Port(2));
                self.laps_left[agent.index()] -= 1;
            }
        }
        fn is_terminated(&self) -> bool {
            self.laps_left.iter().all(|&l| l == 0)
        }
        fn memory_bits(&self, agent: AgentId) -> usize {
            crate::bits::counter_bits(self.laps_left[agent.index()] as u64)
        }
        fn name(&self) -> &'static str {
            "walk-around"
        }
    }

    /// Like [`WalkAround`] but agents park themselves when done — outcomes
    /// must match the non-parking version exactly.
    struct WalkAroundParking {
        laps_left: Vec<u32>,
    }

    impl AgentProtocol for WalkAroundParking {
        fn on_activate(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
            if self.laps_left[agent.index()] > 0 {
                ctx.move_via(Port(2));
                self.laps_left[agent.index()] -= 1;
                if self.laps_left[agent.index()] == 0 {
                    ctx.park(agent);
                }
            }
        }
        fn is_terminated(&self) -> bool {
            self.laps_left.iter().all(|&l| l == 0)
        }
        fn memory_bits(&self, agent: AgentId) -> usize {
            crate::bits::counter_bits(self.laps_left[agent.index()] as u64)
        }
    }

    #[test]
    fn sync_runner_counts_rounds_and_moves() {
        let g = generators::ring(8);
        let mut world = World::new_rooted(g, 3, NodeId(0));
        let mut proto = WalkAround::new(3, 8);
        let out = SyncRunner::new(RunConfig::default())
            .run(&mut world, &mut proto)
            .unwrap();
        assert!(out.terminated);
        assert_eq!(out.rounds, 8);
        assert_eq!(out.epochs, 8);
        assert_eq!(out.activations, 24);
        assert_eq!(out.total_moves, 24);
        assert_eq!(out.max_moves_per_agent, 8);
        assert_eq!(out.k, 3);
        assert_eq!(out.n, 8);
        // Everyone is back at the root.
        for i in 0..3 {
            assert_eq!(world.position(AgentId(i)), NodeId(0));
        }
    }

    #[test]
    fn parking_agents_does_not_change_the_outcome() {
        let g = generators::ring(8);
        let mut w1 = World::new_rooted(g.clone(), 3, NodeId(0));
        let mut w2 = World::new_rooted(g, 3, NodeId(0));
        let mut plain = WalkAround::new(3, 8);
        let mut parking = WalkAroundParking {
            laps_left: vec![8; 3],
        };
        let a = SyncRunner::new(RunConfig::default())
            .run(&mut w1, &mut plain)
            .unwrap();
        let b = SyncRunner::new(RunConfig::default())
            .run(&mut w2, &mut parking)
            .unwrap();
        assert_eq!(a, b, "credited activations must equal executed ones");
    }

    #[test]
    fn async_parking_at_the_end_matches_the_plain_run() {
        // All three agents finish and park in the same round-robin step;
        // the final epoch completes without spurious boundary credits.
        let g = generators::ring(8);
        let mut w1 = World::new_rooted(g.clone(), 3, NodeId(0));
        let mut w2 = World::new_rooted(g, 3, NodeId(0));
        let mut plain = WalkAround::new(3, 8);
        let mut parking = WalkAroundParking {
            laps_left: vec![8; 3],
        };
        let a = AsyncRunner::new(RunConfig::default(), RoundRobinAdversary::new(3))
            .run(&mut w1, &mut plain)
            .unwrap();
        let b = AsyncRunner::new(RunConfig::default(), RoundRobinAdversary::new(3))
            .run(&mut w2, &mut parking)
            .unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn sync_runner_reports_limit_exceeded() {
        struct Never;
        impl AgentProtocol for Never {
            fn on_activate(&mut self, _a: AgentId, _c: &mut ActivationCtx<'_>) {}
            fn is_terminated(&self) -> bool {
                false
            }
            fn memory_bits(&self, _a: AgentId) -> usize {
                0
            }
        }
        let g = generators::ring(4);
        let mut world = World::new_rooted(g, 2, NodeId(0));
        let err = SyncRunner::new(RunConfig::with_limits(10, 10))
            .run(&mut world, &mut Never)
            .unwrap_err();
        match err {
            RunError::LimitExceeded { outcome } => {
                assert_eq!(outcome.rounds, 10);
                assert!(!outcome.terminated);
            }
            other => panic!("expected LimitExceeded, got {other:?}"),
        }
    }

    #[test]
    fn stalled_worklist_fails_fast_instead_of_spinning() {
        // A buggy protocol that parks everyone without terminating must not
        // spin for max_rounds empty rounds.
        struct ParkAll;
        impl AgentProtocol for ParkAll {
            fn on_activate(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
                ctx.park(agent);
            }
            fn is_terminated(&self) -> bool {
                false
            }
            fn memory_bits(&self, _a: AgentId) -> usize {
                0
            }
        }
        let g = generators::ring(4);
        let mut world = World::new_rooted(g, 2, NodeId(0));
        let err = SyncRunner::new(RunConfig::default())
            .run(&mut world, &mut ParkAll)
            .unwrap_err();
        match err {
            RunError::LimitExceeded { outcome } => {
                assert!(
                    outcome.rounds <= 2,
                    "must fail fast, ran {}",
                    outcome.rounds
                );
            }
            other => panic!("expected LimitExceeded, got {other:?}"),
        }
    }

    #[test]
    fn async_round_robin_matches_sync_epochs() {
        let g = generators::ring(8);
        let mut world = World::new_rooted(g, 3, NodeId(0));
        let mut proto = WalkAround::new(3, 8);
        let out = AsyncRunner::new(RunConfig::default(), RoundRobinAdversary::new(3))
            .run(&mut world, &mut proto)
            .unwrap();
        assert!(out.terminated);
        assert_eq!(out.epochs, 8);
        assert_eq!(out.total_moves, 24);
        assert_eq!(out.activations, 24);
    }

    #[test]
    fn async_random_subset_takes_more_steps_but_same_moves() {
        let g = generators::ring(8);
        let mut world = World::new_rooted(g, 3, NodeId(0));
        let mut proto = WalkAround::new(3, 8);
        let out = AsyncRunner::new(RunConfig::default(), RandomSubsetAdversary::new(0.4, 3, 17))
            .run(&mut world, &mut proto)
            .unwrap();
        assert!(out.terminated);
        assert_eq!(out.total_moves, 24);
        assert!(
            out.steps >= out.epochs,
            "steps {} < epochs {}",
            out.steps,
            out.epochs
        );
        assert!(out.epochs >= 1);
        // With per-step activation probability 0.4, finishing 8 activations
        // per agent requires clearly more scheduler steps than rounds the
        // SYNC run needed.
        assert!(out.steps > 8);
    }

    #[test]
    fn async_lagging_adversary_still_terminates() {
        let g = generators::ring(6);
        let mut world = World::new_rooted(g, 4, NodeId(2));
        let mut proto = WalkAround::new(4, 6);
        let out = AsyncRunner::new(RunConfig::default(), LaggingAdversary::new(7, 4, 23))
            .run(&mut world, &mut proto)
            .unwrap();
        assert!(out.terminated);
        assert_eq!(out.total_moves, 24);
        assert_eq!(out.max_moves_per_agent, 6);
        assert!(out.epochs >= 1);
        assert!(out.steps >= out.epochs, "lagging stretches steps per epoch");
    }

    #[test]
    fn async_targeted_adversary_starves_walkers_but_terminates() {
        // WalkAround agents never settle, so everyone is a victim: the
        // adversary lags the whole schedule and steps ≈ max_lag · epochs.
        let g = generators::ring(6);
        let mut world = World::new_rooted(g, 3, NodeId(0));
        let mut proto = WalkAround::new(3, 6);
        let out = AsyncRunner::new(RunConfig::default(), TargetedAdversary::new(4, 3))
            .run(&mut world, &mut proto)
            .unwrap();
        assert!(out.terminated);
        assert_eq!(out.total_moves, 18);
        assert_eq!(out.epochs, 6);
        assert_eq!(out.steps, 6 * 4, "victims fire every 4th step only");
    }

    #[test]
    fn adversary_faults_are_typed_errors_not_panics() {
        struct OutOfRange;
        impl Adversary for OutOfRange {
            fn next_step(
                &mut self,
                view: &StepView<'_>,
                out: &mut Vec<AgentId>,
            ) -> Result<u64, AdversaryError> {
                out.clear();
                out.push(AgentId(99));
                Ok(view.step)
            }
            fn name(&self) -> &'static str {
                "out-of-range"
            }
        }
        let g = generators::ring(4);
        let mut world = World::new_rooted(g, 2, NodeId(0));
        let mut proto = WalkAround::new(2, 4);
        let err = AsyncRunner::new(RunConfig::default(), OutOfRange)
            .run(&mut world, &mut proto)
            .unwrap_err();
        match err {
            RunError::Adversary {
                reason, outcome, ..
            } => {
                assert!(reason.contains("out of range"), "{reason}");
                assert!(!outcome.terminated);
            }
            other => panic!("expected Adversary, got {other:?}"),
        }

        struct WrongK;
        impl Adversary for WrongK {
            fn next_step(
                &mut self,
                view: &StepView<'_>,
                _out: &mut Vec<AgentId>,
            ) -> Result<u64, AdversaryError> {
                Err(AdversaryError::AgentCountChanged {
                    expected: 7,
                    got: view.k,
                })
            }
            fn name(&self) -> &'static str {
                "wrong-k"
            }
        }
        let g = generators::ring(4);
        let mut world = World::new_rooted(g, 2, NodeId(0));
        let mut proto = WalkAround::new(2, 4);
        let err = AsyncRunner::new(RunConfig::default(), WrongK)
            .run(&mut world, &mut proto)
            .unwrap_err();
        assert!(matches!(err, RunError::Adversary { .. }), "{err:?}");
        assert!(err.to_string().contains("adversary fault"));
    }

    #[test]
    fn skipped_empty_steps_respect_the_step_limit() {
        // An adversary that always fires far in the future: the runner must
        // clamp the jump at max_steps and report LimitExceeded.
        struct FarFuture;
        impl Adversary for FarFuture {
            fn next_step(
                &mut self,
                view: &StepView<'_>,
                out: &mut Vec<AgentId>,
            ) -> Result<u64, AdversaryError> {
                out.clear();
                out.extend_from_slice(view.active);
                Ok(view.step + 1_000_000)
            }
            fn name(&self) -> &'static str {
                "far-future"
            }
        }
        let g = generators::ring(4);
        let mut world = World::new_rooted(g, 2, NodeId(0));
        let mut proto = WalkAround::new(2, 4);
        let err = AsyncRunner::new(RunConfig::with_limits(10, 1000), FarFuture)
            .run(&mut world, &mut proto)
            .unwrap_err();
        match err {
            RunError::LimitExceeded { outcome } => {
                assert_eq!(outcome.steps, 1000, "steps clamp at the limit");
                assert!(!outcome.terminated);
            }
            other => panic!("expected LimitExceeded, got {other:?}"),
        }
    }

    #[test]
    fn recorded_sync_run_matches_unrecorded_and_samples_boundaries() {
        let g = generators::ring(8);
        let mut w1 = World::new_rooted(g.clone(), 3, NodeId(0));
        let mut w2 = World::new_rooted(g, 3, NodeId(0));
        let mut p1 = WalkAround::new(3, 8);
        let mut p2 = WalkAround::new(3, 8);
        let runner = SyncRunner::new(RunConfig::default());
        let plain = runner.run(&mut w1, &mut p1).unwrap();
        let mut rec = crate::timeline::TimelineRecorder::new();
        let recorded = runner.run_observed(&mut w2, &mut p2, &mut rec).unwrap();
        assert_eq!(plain, recorded, "observation must never change results");
        let tl = rec.finish();
        // 8 rounds: initial point + one per boundary, no decimation.
        let times: Vec<u64> = tl.points.iter().map(|p| p.time).collect();
        assert_eq!(times, (0..=8).collect::<Vec<_>>());
        assert_eq!(tl.stride, 1);
        assert_eq!(tl.points[0].moves, 0);
        assert_eq!(tl.points.last().unwrap().moves, 24);
        assert_eq!(tl.points[0].active, 3);
        // WalkAround reports no classes: settled stays 0, histogram empty.
        assert!(tl
            .points
            .iter()
            .all(|p| p.classes.is_empty() && p.settled == 0));
    }

    #[test]
    fn recorded_async_run_samples_epoch_boundaries() {
        let g = generators::ring(8);
        let mut world = World::new_rooted(g, 3, NodeId(0));
        let mut proto = WalkAround::new(3, 8);
        let mut rec = crate::timeline::TimelineRecorder::new();
        let out = AsyncRunner::new(RunConfig::default(), RoundRobinAdversary::new(3))
            .run_observed(&mut world, &mut proto, &mut rec)
            .unwrap();
        assert!(out.terminated);
        assert_eq!(out.epochs, 8);
        let tl = rec.finish();
        assert_eq!(tl.points.first().unwrap().time, 0);
        assert_eq!(tl.points.last().unwrap().time, 8);
        for w in tl.points.windows(2) {
            assert!(w[0].time < w[1].time, "epoch times strictly increase");
            assert!(w[0].moves <= w[1].moves, "moves are cumulative");
        }
        // Interior boundary points carry the closing batch size (the
        // round-robin adversary schedules all 3 walkers per step).
        assert!(tl.points[1..tl.points.len() - 1]
            .iter()
            .all(|p| p.batch == 3));
    }

    #[test]
    fn recorded_limit_exceeded_run_keeps_its_tail() {
        struct Never;
        impl AgentProtocol for Never {
            fn on_activate(&mut self, _a: AgentId, _c: &mut ActivationCtx<'_>) {}
            fn is_terminated(&self) -> bool {
                false
            }
            fn memory_bits(&self, _a: AgentId) -> usize {
                0
            }
        }
        let g = generators::ring(4);
        let mut world = World::new_rooted(g, 2, NodeId(0));
        let mut rec = crate::timeline::TimelineRecorder::new();
        let err = SyncRunner::new(RunConfig::with_limits(10, 10))
            .run_observed(&mut world, &mut Never, &mut rec)
            .unwrap_err();
        assert!(matches!(err, RunError::LimitExceeded { .. }));
        let tl = rec.finish();
        assert_eq!(tl.points.first().unwrap().time, 0);
        assert_eq!(tl.points.last().unwrap().time, 10);
    }

    #[test]
    fn memory_peak_reflects_protocol_reports() {
        let g = generators::ring(8);
        let mut world = World::new_rooted(g, 2, NodeId(0));
        let mut proto = WalkAround::new(2, 8);
        let out = SyncRunner::new(RunConfig::default())
            .run(&mut world, &mut proto)
            .unwrap();
        // counter_bits(8) = 4 bits is the largest footprint.
        assert_eq!(out.peak_memory_bits, 4);
    }

    #[test]
    fn geometric_sampling_still_reports_a_peak() {
        let g = generators::ring(8);
        let mut world = World::new_rooted(g, 2, NodeId(0));
        let mut proto = WalkAround::new(2, 8);
        let config = RunConfig {
            memory_sample_interval: 0,
            ..RunConfig::default()
        };
        let out = SyncRunner::new(config).run(&mut world, &mut proto).unwrap();
        assert_eq!(out.peak_memory_bits, 4);
    }

    #[test]
    fn already_terminated_protocol_runs_zero_rounds() {
        let g = generators::ring(4);
        let mut world = World::new_rooted(g, 1, NodeId(0));
        let mut proto = WalkAround::new(1, 0);
        let out = SyncRunner::new(RunConfig::default())
            .run(&mut world, &mut proto)
            .unwrap();
        assert_eq!(out.rounds, 0);
        assert_eq!(out.total_moves, 0);
        assert!(out.terminated);
    }

    #[test]
    fn mid_round_wakes_with_larger_ids_run_in_the_same_round() {
        // Agent 0 wakes agent 2 (parked) on round 0; id-order semantics
        // require agent 2's activation to happen in that same round.
        struct Waker {
            woke: bool,
            acted: Vec<u64>,
        }
        impl AgentProtocol for Waker {
            fn on_activate(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
                if agent == AgentId(0) && !self.woke {
                    self.woke = true;
                    ctx.wake(AgentId(2));
                }
                if agent == AgentId(2) {
                    self.acted.push(ctx.time());
                }
            }
            fn is_terminated(&self) -> bool {
                self.woke && !self.acted.is_empty()
            }
            fn memory_bits(&self, _a: AgentId) -> usize {
                0
            }
        }
        let g = generators::ring(5);
        let mut world = World::new_rooted(g, 3, NodeId(0));
        world.park(AgentId(2));
        let mut proto = Waker {
            woke: false,
            acted: Vec::new(),
        };
        let out = SyncRunner::new(RunConfig::default())
            .run(&mut world, &mut proto)
            .unwrap();
        assert_eq!(out.rounds, 1);
        assert_eq!(proto.acted, vec![0], "agent 2 must act in round 0");
    }

    /// Like [`WalkAround`] but crash-aware: the walk is done when every
    /// *surviving* agent finished its laps.
    struct CrashAwareWalk {
        laps_left: Vec<u32>,
        dead: Vec<bool>,
        crashes_seen: Vec<AgentId>,
    }

    impl CrashAwareWalk {
        fn new(k: usize, n: u32) -> Self {
            CrashAwareWalk {
                laps_left: vec![n; k],
                dead: vec![false; k],
                crashes_seen: Vec::new(),
            }
        }
    }

    impl AgentProtocol for CrashAwareWalk {
        fn on_activate(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
            if self.laps_left[agent.index()] > 0 {
                ctx.move_via(Port(2));
                self.laps_left[agent.index()] -= 1;
            }
        }
        fn is_terminated(&self) -> bool {
            self.laps_left
                .iter()
                .zip(&self.dead)
                .all(|(&l, &d)| d || l == 0)
        }
        fn on_crash(&mut self, agent: AgentId) {
            self.dead[agent.index()] = true;
            self.crashes_seen.push(agent);
        }
        fn memory_bits(&self, _a: AgentId) -> usize {
            0
        }
    }

    #[test]
    fn sync_crash_plan_fires_and_notifies_the_protocol() {
        let run = |seed: u64| {
            let g = generators::ring(8);
            let mut world = World::new_rooted(g, 3, NodeId(0));
            let mut proto = CrashAwareWalk::new(3, 8);
            let plan = crate::fault::CrashPlan::new(seed, 3, 1, 4);
            let victim = plan.events()[0].1;
            let out = SyncRunner::new(RunConfig::default())
                .with_crashes(plan)
                .run(&mut world, &mut proto)
                .unwrap();
            assert!(out.terminated);
            assert_eq!(proto.crashes_seen, vec![victim]);
            assert!(world.is_dead(victim));
            assert_eq!(world.dead_count(), 1);
            // The corpse stopped mid-walk; survivors finished all laps.
            assert!(proto.laps_left[victim.index()] > 0);
            (out, victim)
        };
        let (a, va) = run(11);
        let (b, vb) = run(11);
        assert_eq!(a, b, "crash runs are deterministic");
        assert_eq!(va, vb);
    }

    #[test]
    fn async_crash_plan_is_deterministic_too() {
        let run = || {
            let g = generators::ring(8);
            let mut world = World::new_rooted(g, 3, NodeId(0));
            let mut proto = CrashAwareWalk::new(3, 8);
            AsyncRunner::new(RunConfig::default(), LaggingAdversary::new(3, 3, 7))
                .with_crashes(crate::fault::CrashPlan::new(13, 3, 1, 10))
                .run(&mut world, &mut proto)
                .unwrap()
        };
        let a = run();
        let b = run();
        assert!(a.terminated);
        assert_eq!(a, b);
    }

    #[test]
    fn sync_dynamic_edges_make_agents_wait_not_panic() {
        use crate::world::MoveError;
        // Patient walkers: on a dead edge they wait the round out instead
        // of crashing the run.
        struct PatientWalk {
            laps_left: Vec<u32>,
            waits: u64,
        }
        impl AgentProtocol for PatientWalk {
            fn on_activate(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
                if self.laps_left[agent.index()] > 0 {
                    match ctx.try_move_via(Port(2)) {
                        Ok(_) => self.laps_left[agent.index()] -= 1,
                        Err(MoveError::EdgeDown { .. }) => self.waits += 1,
                        Err(e) => panic!("unexpected move error: {e}"),
                    }
                }
            }
            fn is_terminated(&self) -> bool {
                self.laps_left.iter().all(|&l| l == 0)
            }
            fn memory_bits(&self, _a: AgentId) -> usize {
                0
            }
        }
        let g = generators::ring(8);
        let mut world = World::new_rooted(g, 3, NodeId(0));
        let mut proto = PatientWalk {
            laps_left: vec![8; 3],
            waits: 0,
        };
        let out = SyncRunner::new(RunConfig::default())
            .with_dynamics(crate::fault::DynamicAdversary::new(21, 1))
            .run(&mut world, &mut proto)
            .unwrap();
        assert!(out.terminated);
        assert_eq!(out.total_moves, 24, "waits do not consume moves");
        assert!(proto.waits > 0, "with 1/8 edges down someone must wait");
        assert!(
            out.rounds > 8,
            "waiting stretches rounds past the fault-free 8"
        );
    }

    #[test]
    fn async_woken_agents_reenter_the_lagging_schedule() {
        // Agent 1 parks itself at the start; agent 0 wakes it after its
        // fourth move. Both must finish their laps under the timer wheel.
        struct ParkThenWake {
            laps_left: Vec<u32>,
            parked_once: bool,
        }
        impl AgentProtocol for ParkThenWake {
            fn on_activate(&mut self, agent: AgentId, ctx: &mut ActivationCtx<'_>) {
                if agent == AgentId(1) && !self.parked_once {
                    self.parked_once = true;
                    ctx.park(agent);
                    return;
                }
                if self.laps_left[agent.index()] > 0 {
                    ctx.move_via(Port(2));
                    self.laps_left[agent.index()] -= 1;
                    if agent == AgentId(0) && self.laps_left[0] == 2 {
                        ctx.wake(AgentId(1));
                    }
                }
            }
            fn is_terminated(&self) -> bool {
                self.laps_left.iter().all(|&l| l == 0)
            }
            fn memory_bits(&self, _a: AgentId) -> usize {
                0
            }
        }
        let g = generators::ring(6);
        let mut world = World::new_rooted(g, 2, NodeId(0));
        let mut proto = ParkThenWake {
            laps_left: vec![6; 2],
            parked_once: false,
        };
        let out = AsyncRunner::new(RunConfig::default(), LaggingAdversary::new(3, 2, 5))
            .run(&mut world, &mut proto)
            .unwrap();
        assert!(out.terminated);
        assert_eq!(out.total_moves, 12);
    }
}
