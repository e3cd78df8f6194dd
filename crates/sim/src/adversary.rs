//! Event-driven ASYNC activation adversaries.
//!
//! The asynchronous model lets an adversary decide when each agent performs
//! its CCM cycles, subject only to "every agent is activated infinitely
//! often". An [`Adversary`] produces, per scheduler step, the batch of
//! agents to activate — **event-driven**: it writes into a caller-owned
//! reusable buffer (no per-step allocation), generates only the *due*
//! agents, and may jump over empty steps entirely (discrete-event style),
//! returning the step its batch fires at.
//!
//! ## Worklist integration
//!
//! Adversaries schedule over the world's **active** worklist (the
//! [`StepView`] handed to [`Adversary::next_step`]): agents the protocol has
//! parked are not scheduled at all — the runner credits their activations in
//! bulk at epoch boundaries (see [`crate::clock::Clock`]). The model reading
//! is that the adversary, being adversarial, procrastinates provably-no-op
//! agents to the fairness limit: a parked agent is activated exactly once
//! per epoch, at the boundary. This is what makes ASYNC per-step cost
//! O(active ·&nbsp;log) instead of O(k), and million-agent ASYNC campaigns
//! tractable.
//!
//! ## Determinism contract (stream migration, PR 4)
//!
//! Every random adversary derives its per-step randomness from fixed
//! sub-seed tags via [`mix`], so a step's schedule is a pure function of
//! `(seed, step, active worklist)` — no shared sequential stream whose
//! shape depends on earlier steps' content. The event-driven adversaries
//! hold each stream as a [`Mixer`] with the `(seed, tag)` prefix absorbed,
//! which yields exactly those words: an optimisation may make a draw
//! cheaper, never different. **These streams replace the
//! pre-PR-4 sequential streams**: recorded ASYNC trial outcomes from older
//! campaigns are not reproducible and must be re-run (the same applies to
//! the PR 2 placement-stream migration).
//!
//! Each event-driven adversary has a retained naive O(k)-per-step
//! counterpart in [`reference`](mod@reference), and the differential suite
//! (`crates/sim/tests/adversary_differential.rs`) proves both replay
//! byte-identical `(fire step, batch)` sequences over fuzzed grids.

use crate::ids::AgentId;
use disp_rng::prelude::*;

/// Sub-seed tags for the adversary streams (part of the reproducibility
/// contract, like the scenario sub-seed tags in `disp-core`).
const SUB_SUBSET: u64 = 0xAD5E_0001;
const SUB_FALLBACK: u64 = 0xAD5E_0002;
const SUB_PERIOD: u64 = 0xAD5E_0003;
const SUB_ORDER: u64 = 0xAD5E_0004;

/// The adversary's read-only window onto the execution at one scheduling
/// decision. Oblivious adversaries only read `step` and `active`; adaptive
/// ones ([`TargetedAdversary`]) also consult the protocol-designated victim
/// predicate.
pub struct StepView<'a> {
    /// Total number of agents (fixed for the whole run).
    pub k: usize,
    /// The earliest step the returned batch may fire at (= completed steps).
    pub step: u64,
    /// Currently active (schedulable) agents, sorted ascending by id.
    pub active: &'a [AgentId],
    /// Worklist membership by agent index: `u32::MAX` for a parked agent,
    /// anything else (the world stores the agent's worklist slot) for an
    /// active one. [`StepView::is_active`] reads it in O(1).
    pub active_pos: &'a [u32],
    /// Wake transitions since the previous `next_step` call, in occurrence
    /// order (an agent may appear more than once if it was woken, parked and
    /// woken again within one batch). Timer-based adversaries re-enroll
    /// these agents; stateless ones ignore the list.
    pub woken: &'a [AgentId],
    /// Whether an agent belongs to the protocol-designated victim set (for
    /// the paper's dispersion protocols: the unsettled agents — the DFS
    /// driver, its cohort and the probers, i.e. exactly the agents whose
    /// delay stalls progress).
    pub victims: &'a dyn Fn(AgentId) -> bool,
}

impl<'a> StepView<'a> {
    /// Assemble a view (the runner's job; tests build them directly).
    pub fn new(
        k: usize,
        step: u64,
        active: &'a [AgentId],
        active_pos: &'a [u32],
        woken: &'a [AgentId],
        victims: &'a dyn Fn(AgentId) -> bool,
    ) -> StepView<'a> {
        debug_assert!(active.windows(2).all(|w| w[0] < w[1]), "active not sorted");
        debug_assert_eq!(active_pos.len(), k, "membership index not sized to k");
        debug_assert!(
            active.iter().all(|a| active_pos[a.index()] != u32::MAX),
            "active agent marked parked"
        );
        StepView {
            k,
            step,
            active,
            active_pos,
            woken,
            victims,
        }
    }

    /// Whether `agent` is on the active worklist (O(1)).
    #[inline]
    pub fn is_active(&self, agent: AgentId) -> bool {
        self.active_pos[agent.index()] != u32::MAX
    }
}

/// Why an adversary refused to schedule — a buggy adversary fails its trial
/// with a typed error instead of poisoning the whole campaign process.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdversaryError {
    /// The runner's agent count does not match the count the adversary was
    /// built for. Adversaries fix `k` at construction (their period/stream
    /// state is sized for it); a mid-run change is rejected, never silently
    /// re-rolled.
    AgentCountChanged {
        /// The agent count at construction.
        expected: usize,
        /// The agent count the runner presented.
        got: usize,
    },
    /// The adversary could not produce a batch although active agents exist
    /// (an internal scheduling invariant broke).
    Stalled {
        /// The step at which scheduling gave up.
        step: u64,
    },
}

impl std::fmt::Display for AdversaryError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdversaryError::AgentCountChanged { expected, got } => write!(
                f,
                "adversary was built for k={expected} agents but was asked to schedule k={got}"
            ),
            AdversaryError::Stalled { step } => {
                write!(f, "adversary failed to produce a batch at step {step}")
            }
        }
    }
}

impl std::error::Error for AdversaryError {}

/// A source of ASYNC activation decisions.
pub trait Adversary {
    /// Write the next batch of activations into `out` (cleared first), in
    /// activation order, and return the step the batch fires at (≥
    /// `view.step`; steps in between are empty and are skipped wholesale).
    ///
    /// Contract: only active agents appear in the batch, and the batch is
    /// non-empty whenever `view.active` is non-empty (fairness requires
    /// activity); the runner treats violations as a failed trial. Agents in
    /// the batch may have been parked by *earlier batch members* by the time
    /// their turn comes — the runner skips those without executing them.
    fn next_step(
        &mut self,
        view: &StepView<'_>,
        out: &mut Vec<AgentId>,
    ) -> Result<u64, AdversaryError>;

    /// Human-readable name for reports.
    fn name(&self) -> &'static str;
}

impl Adversary for Box<dyn Adversary> {
    fn next_step(
        &mut self,
        view: &StepView<'_>,
        out: &mut Vec<AgentId>,
    ) -> Result<u64, AdversaryError> {
        (**self).next_step(view, out)
    }

    fn name(&self) -> &'static str {
        (**self).name()
    }
}

/// A value-level description of an adversary, separated from its RNG seed
/// and agent count. The experiment harness stores `AdversaryKind`s in its
/// grid and derives a fresh seed per trial, so construction has to be a
/// cheap, seedable, data-driven operation — this is that constructor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AdversaryKind {
    /// [`RoundRobinAdversary`].
    RoundRobin,
    /// [`RandomSubsetAdversary`] with the given per-step activation
    /// probability.
    RandomSubset {
        /// Per-agent activation probability per step.
        prob: f64,
    },
    /// [`LaggingAdversary`] with the given maximum per-agent lag.
    Lagging {
        /// Largest per-agent activation period.
        max_lag: u64,
    },
    /// [`TargetedAdversary`] with the given victim starvation lag.
    Targeted {
        /// Steps between consecutive victim activations.
        max_lag: u64,
    },
}

impl AdversaryKind {
    /// Instantiate the adversary for a `k`-agent run with the given seed
    /// (the seed is ignored by the deterministic round-robin and targeted
    /// adversaries).
    pub fn build(self, k: usize, seed: u64) -> Box<dyn Adversary> {
        match self {
            AdversaryKind::RoundRobin => Box::new(RoundRobinAdversary::new(k)),
            AdversaryKind::RandomSubset { prob } => {
                Box::new(RandomSubsetAdversary::new(prob, k, seed))
            }
            AdversaryKind::Lagging { max_lag } => Box::new(LaggingAdversary::new(max_lag, k, seed)),
            AdversaryKind::Targeted { max_lag } => Box::new(TargetedAdversary::new(max_lag, k)),
        }
    }
}

fn check_k(expected: usize, view: &StepView<'_>) -> Result<(), AdversaryError> {
    if view.k != expected {
        return Err(AdversaryError::AgentCountChanged {
            expected,
            got: view.k,
        });
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Round-robin
// ---------------------------------------------------------------------------

/// Activates every active agent once per step, rotating the starting id with
/// the step number, so each step is an epoch. The most benign legal
/// schedule; useful as a best-case reference and for differential testing
/// against SYNC runs. Batch generation is pure rotation arithmetic on the
/// sorted active worklist — O(active) per step, never O(k).
#[derive(Debug, Clone)]
pub struct RoundRobinAdversary {
    k: usize,
}

impl RoundRobinAdversary {
    /// A round-robin adversary for `k` agents.
    pub fn new(k: usize) -> Self {
        RoundRobinAdversary { k }
    }
}

impl Adversary for RoundRobinAdversary {
    fn next_step(
        &mut self,
        view: &StepView<'_>,
        out: &mut Vec<AgentId>,
    ) -> Result<u64, AdversaryError> {
        check_k(self.k, view)?;
        out.clear();
        let start = AgentId((view.step % self.k.max(1) as u64) as u32);
        let split = view.active.partition_point(|&a| a < start);
        out.extend_from_slice(&view.active[split..]);
        out.extend_from_slice(&view.active[..split]);
        Ok(view.step)
    }

    fn name(&self) -> &'static str {
        "round-robin"
    }
}

// ---------------------------------------------------------------------------
// Random subset (geometric skip-sampling)
// ---------------------------------------------------------------------------

/// Walk the sorted active list choosing each position independently with
/// probability `prob`, via geometric gap (skip) sampling: one uniform draw
/// per *chosen* agent instead of one Bernoulli draw per agent. The chosen
/// set is identical in distribution to per-agent Bernoulli sampling; the
/// construction (and therefore the exact stream) is the schedule's
/// definition. The naive reference samples through this function; the
/// event-driven adversary through [`GapSampler`], which must choose the
/// same agents from the same draws.
fn sample_gaps(rng: &mut StdRng, prob: f64, active: &[AgentId], out: &mut Vec<AgentId>) {
    if prob >= 1.0 {
        out.extend_from_slice(active);
        return;
    }
    let denom = (1.0 - prob).ln();
    if denom == 0.0 {
        // prob below ~1.1e-16: 1 − prob rounds to 1.0 and the gap formula
        // would degenerate to −inf (which casts to gap 0 — everyone, the
        // exact opposite of Bernoulli(prob)). Such a step selects no one;
        // the caller's fallback keeps the schedule fair.
        return;
    }
    let mut i = 0usize;
    while i < active.len() {
        let u = rng.random_f64();
        let gap = ((1.0 - u).ln() / denom).floor();
        if gap >= (active.len() - i) as f64 {
            break;
        }
        i += gap as usize;
        out.push(active[i]);
        i += 1;
    }
}

/// [`sample_gaps`] with its constants computed once per adversary and the
/// commonest gap decided without a logarithm.
///
/// A draw `u` skips `⌊q⌋` agents, `q = ln(1 − u) / ln(1 − prob)`. When
/// `1 − u` exceeds `exp(ln(1 − prob))·(1 + 10⁻⁶)`, the exact `q` is below
/// `1 − 10⁻⁶ / |ln(1 − prob)|`, at most `1 − 2·10⁻⁸` (`1 − prob ≥ 2⁻⁵³`),
/// and a quotient of a logarithm off by a few ulps is still below 1: the
/// gap is 0. That is a share `prob` of all draws. For the others, `⌊q⌋ ≥ r
/// ⟺ q ≥ r` for an integer `r`, and `q as usize` truncates the
/// non-negative `q`, so the `floor` call goes too.
#[derive(Debug, Clone, Copy)]
struct GapSampler {
    prob: f64,
    /// `ln(1 − prob)`, computed as `sample_gaps` computes it.
    denom: f64,
    /// `1 − u` above this means gap 0.
    zero_gap_above: f64,
}

impl GapSampler {
    fn new(prob: f64) -> GapSampler {
        let denom = (1.0 - prob).ln();
        GapSampler {
            prob,
            denom,
            zero_gap_above: denom.exp() * (1.0 + 1e-6),
        }
    }

    /// The agents to skip for the draw `u` with `remaining` agents left,
    /// `None` when the gap runs past them.
    #[inline]
    fn skip(&self, u: f64, remaining: usize) -> Option<usize> {
        let y = 1.0 - u;
        if y > self.zero_gap_above {
            return Some(0);
        }
        let q = y.ln() / self.denom;
        (q < remaining as f64).then_some(q as usize)
    }

    fn sample(&self, rng: &mut StdRng, active: &[AgentId], out: &mut Vec<AgentId>) {
        if self.prob >= 1.0 {
            out.extend_from_slice(active);
            return;
        }
        if self.denom == 0.0 {
            // As in `sample_gaps`: a step selects no one.
            return;
        }
        let mut i = 0usize;
        while i < active.len() {
            let Some(gap) = self.skip(rng.random_f64(), active.len() - i) else {
                break;
            };
            i += gap;
            out.push(active[i]);
            i += 1;
        }
    }
}

/// Activates each active agent independently with probability `prob` per
/// step, in a random order. Models uncoordinated agents with similar
/// speeds. Event-driven: per-step derived sub-streams (the schedule of step
/// `s` is a pure function of `(seed, s, active worklist)`), geometric
/// skip-sampling in O(chosen), and a fallback draw — on its **own** derived
/// sub-stream, so an empty step never shifts any other step's randomness —
/// that activates one uniformly random active agent when the sample comes
/// up empty.
#[derive(Debug)]
pub struct RandomSubsetAdversary {
    gaps: GapSampler,
    k: usize,
    /// `mix(&[seed, SUB_SUBSET, step])` with the constant prefix absorbed.
    subset: Mixer,
    /// `mix(&[seed, SUB_FALLBACK, step])` likewise.
    fallback: Mixer,
}

impl RandomSubsetAdversary {
    /// `prob` is the per-agent activation probability per step.
    pub fn new(prob: f64, k: usize, seed: u64) -> Self {
        assert!(
            prob > 0.0 && prob <= 1.0,
            "activation probability must be in (0, 1]"
        );
        RandomSubsetAdversary {
            gaps: GapSampler::new(prob),
            k,
            subset: Mixer::new(&[seed, SUB_SUBSET]),
            fallback: Mixer::new(&[seed, SUB_FALLBACK]),
        }
    }
}

impl Adversary for RandomSubsetAdversary {
    fn next_step(
        &mut self,
        view: &StepView<'_>,
        out: &mut Vec<AgentId>,
    ) -> Result<u64, AdversaryError> {
        check_k(self.k, view)?;
        out.clear();
        let mut rng = StdRng::seed_from_u64(self.subset.mix(&[view.step]));
        self.gaps.sample(&mut rng, view.active, out);
        if out.is_empty() && !view.active.is_empty() {
            let mut fb = StdRng::seed_from_u64(self.fallback.mix(&[view.step]));
            out.push(view.active[fb.random_range(0..view.active.len())]);
        }
        out.shuffle(&mut rng);
        Ok(view.step)
    }

    fn name(&self) -> &'static str {
        "random-subset"
    }
}

// ---------------------------------------------------------------------------
// Lagging (calendar-queue timer wheel)
// ---------------------------------------------------------------------------

/// The `j`-th activation period of `agent`: a stateless pure function of
/// the seed, drawn uniformly from the documented `1..=max_lag` range
/// (Lemire reduction on a mixed word — one derivation per draw, no shared
/// sequential stream).
fn period_of(seed: u64, max_lag: u64, agent: u32, draw: u64) -> u64 {
    period_from_word(mix(&[seed, SUB_PERIOD, agent as u64, draw]), max_lag)
}

/// The Lemire reduction of [`period_of`], shared with the prefix-mixed
/// fast path.
#[inline]
fn period_from_word(v: u64, max_lag: u64) -> u64 {
    1 + ((v as u128 * max_lag as u128) >> 64) as u64
}

const UNSCHEDULED: u64 = u64::MAX;

/// Each agent has its own activation period, redrawn from `1..=max_lag`
/// after every activation (and drawn from the same documented range at
/// construction — the first activation of every agent happens within the
/// first `max_lag` steps). Models strongly heterogeneous agent speeds —
/// some agents lag behind others by up to `max_lag` steps, stretching
/// epochs accordingly.
///
/// Event-driven implementation: a timer wheel of `max_lag + 1` buckets
/// keyed by due step. One `next_step` call costs O(due + woken + wheel
/// scan) — independent of `k` — and steps with nothing due are skipped
/// wholesale (the returned fire step jumps), which is what lets the
/// `n = 10^6` `async-lag` trials finish in seconds. Parked agents leave the
/// schedule lazily (their entry is dropped when its bucket comes up) and
/// re-enroll through [`StepView::woken`] with a fresh period; an agent's
/// period draw counter survives park/wake, so the whole schedule is
/// deterministic in `(seed, execution history)`.
///
/// Bookkeeping per draw is kept to the draw itself: the wheel index of the
/// cursor is tracked (every due step lies within `max_lag` of the cursor,
/// so no division), empty buckets are stepped over, the period and order
/// streams absorb their `(seed, tag)` prefix once, and a one-agent batch
/// derives no order stream (shuffling one element draws nothing).
#[derive(Debug)]
pub struct LaggingAdversary {
    max_lag: u64,
    k: usize,
    /// `mix(&[seed, SUB_PERIOD, agent, draw])` with the prefix absorbed.
    period: Mixer,
    /// `mix(&[seed, SUB_ORDER, step])` with the prefix absorbed.
    order: Mixer,
    /// Next scheduled due step per agent ([`UNSCHEDULED`] when parked or
    /// already consumed); doubles as the validity stamp for lazy deletion.
    next_due: Vec<u64>,
    /// Period draws consumed per agent (the stateless stream position).
    draws: Vec<u64>,
    /// `wheel[due % (max_lag + 1)]` holds the agents scheduled for `due`.
    wheel: Vec<Vec<u32>>,
    /// The next step the bucket scan starts from; all valid entries have
    /// `due ∈ [cursor, cursor + max_lag]`.
    cursor: u64,
    /// `cursor % wheel.len()`, kept in step with `cursor`.
    cursor_idx: usize,
}

impl LaggingAdversary {
    /// `max_lag ≥ 1` is the largest number of steps an agent can sleep
    /// between consecutive activations. All `k` initial periods are drawn at
    /// construction from `1..=max_lag` (agent `i`'s first activation is at
    /// step `period - 1`).
    pub fn new(max_lag: u64, k: usize, seed: u64) -> Self {
        assert!(max_lag >= 1, "max_lag must be at least 1");
        let mut adv = LaggingAdversary {
            max_lag,
            k,
            period: Mixer::new(&[seed, SUB_PERIOD]),
            order: Mixer::new(&[seed, SUB_ORDER]),
            next_due: vec![UNSCHEDULED; k],
            draws: vec![0; k],
            wheel: vec![Vec::new(); (max_lag + 1) as usize],
            cursor: 0,
            cursor_idx: 0,
        };
        for a in 0..k as u32 {
            let p = adv.draw_period(a);
            adv.schedule(a, p - 1);
        }
        adv
    }

    fn draw_period(&mut self, agent: u32) -> u64 {
        let d = self.draws[agent as usize];
        self.draws[agent as usize] += 1;
        period_from_word(self.period.mix(&[agent as u64, d]), self.max_lag)
    }

    /// Enroll `agent` for step `due`, in bucket `due % (max_lag + 1)`.
    /// Every due the schedule makes lies in `[cursor, cursor + max_lag]`,
    /// where the bucket is an offset from the tracked cursor index; only a
    /// caller that moves `view.step` backwards reaches the division.
    fn schedule(&mut self, agent: u32, due: u64) {
        self.next_due[agent as usize] = due;
        let ahead = due.wrapping_sub(self.cursor);
        let idx = if ahead <= self.max_lag {
            let idx = self.cursor_idx + ahead as usize;
            if idx >= self.wheel.len() {
                idx - self.wheel.len()
            } else {
                idx
            }
        } else {
            (due % self.wheel.len() as u64) as usize
        };
        self.wheel[idx].push(agent);
    }

    fn advance_cursor(&mut self) {
        self.cursor += 1;
        self.cursor_idx += 1;
        if self.cursor_idx == self.wheel.len() {
            self.cursor_idx = 0;
        }
    }
}

impl Adversary for LaggingAdversary {
    fn next_step(
        &mut self,
        view: &StepView<'_>,
        out: &mut Vec<AgentId>,
    ) -> Result<u64, AdversaryError> {
        check_k(self.k, view)?;
        if view.step > self.cursor {
            // The caller skipped steps: re-derive the tracked index once.
            self.cursor = view.step;
            self.cursor_idx = (view.step % self.wheel.len() as u64) as usize;
        }
        // Re-enroll woken agents: an agent woken by the batch at step
        // `view.step - 1` next activates a fresh period later.
        for &a in view.woken {
            let p = self.draw_period(a.0);
            self.schedule(a.0, view.step.max(1) - 1 + p);
        }
        out.clear();
        let ring = self.wheel.len() as u64;
        let mut scanned = 0u64;
        loop {
            // Every active agent holds a valid entry within the ring, so a
            // longer fruitless scan means the invariant broke.
            if scanned > ring {
                return Err(AdversaryError::Stalled { step: self.cursor });
            }
            let s = self.cursor;
            // Lazy deletion: only entries whose stamp still matches are
            // live (consuming resets the stamp, which also de-dups).
            for a in self.wheel[self.cursor_idx].drain(..) {
                if self.next_due[a as usize] == s {
                    self.next_due[a as usize] = UNSCHEDULED;
                    if view.is_active(AgentId(a)) {
                        out.push(AgentId(a));
                    }
                }
            }
            if out.is_empty() {
                self.advance_cursor();
                scanned += 1;
                continue;
            }
            out.sort_unstable();
            for &fired in out.iter() {
                let p = self.draw_period(fired.0);
                self.schedule(fired.0, s + p);
            }
            if out.len() > 1 {
                let mut order = StdRng::seed_from_u64(self.order.mix(&[s]));
                out.shuffle(&mut order);
            }
            self.advance_cursor();
            return Ok(s);
        }
    }

    fn name(&self) -> &'static str {
        "lagging"
    }
}

// ---------------------------------------------------------------------------
// Targeted (adaptive starvation)
// ---------------------------------------------------------------------------

/// The paper's lower-bound-style *adaptive* adversary: it starves the
/// protocol-designated victim set — the agents whose delay actually stalls
/// progress (for the dispersion protocols: the unsettled agents, i.e. the
/// current DFS driver, its cohort and the probers) — to the fairness limit,
/// activating each victim only every `max_lag`-th step, while activating
/// every non-victim active agent promptly at every step (wasting the
/// protocol's time on agents that have nothing to do).
///
/// Deterministic (no RNG); the victim set is re-evaluated every step
/// through the [`StepView::victims`] predicate, so the adversary adapts as
/// agents settle. Steps on which nothing is due are skipped wholesale.
#[derive(Debug, Clone)]
pub struct TargetedAdversary {
    max_lag: u64,
    k: usize,
}

impl TargetedAdversary {
    /// `max_lag ≥ 1` is the victim activation interval (victims fire at
    /// steps `max_lag − 1, 2·max_lag − 1, …`; `max_lag = 1` degenerates to
    /// activating everyone every step).
    pub fn new(max_lag: u64, k: usize) -> Self {
        assert!(max_lag >= 1, "max_lag must be at least 1");
        TargetedAdversary { max_lag, k }
    }
}

impl Adversary for TargetedAdversary {
    fn next_step(
        &mut self,
        view: &StepView<'_>,
        out: &mut Vec<AgentId>,
    ) -> Result<u64, AdversaryError> {
        check_k(self.k, view)?;
        out.clear();
        let ml = self.max_lag;
        let victim_turn = |s: u64| (s + 1).is_multiple_of(ml);
        let mut s = view.step;
        for &a in view.active {
            if !(view.victims)(a) || victim_turn(s) {
                out.push(a);
            }
        }
        if out.is_empty() && !view.active.is_empty() {
            // Every active agent is a victim: jump to the next victim turn.
            s = view.step + (ml - 1 - view.step % ml);
            debug_assert!(victim_turn(s) && s >= view.step);
            out.extend_from_slice(view.active);
        }
        Ok(s)
    }

    fn name(&self) -> &'static str {
        "targeted"
    }
}

// ---------------------------------------------------------------------------
// Naive references
// ---------------------------------------------------------------------------

/// Naive O(k)-per-step counterparts of the event-driven adversaries,
/// retained as the oracles of the differential suite
/// (`crates/sim/tests/adversary_differential.rs`): same declared schedule
/// semantics and sub-seed streams, implemented by brute force — full
/// per-step scans over all `k` agents, no timer wheel, no buffer tricks,
/// stepping through empty steps one by one. Never use these in campaigns.
pub mod reference {
    use super::*;

    /// Brute-force [`RoundRobinAdversary`]: walk the full rotation and
    /// filter by activity.
    #[derive(Debug, Clone)]
    pub struct NaiveRoundRobin {
        k: usize,
    }

    impl NaiveRoundRobin {
        /// A naive round-robin reference for `k` agents.
        pub fn new(k: usize) -> Self {
            NaiveRoundRobin { k }
        }
    }

    impl Adversary for NaiveRoundRobin {
        fn next_step(
            &mut self,
            view: &StepView<'_>,
            out: &mut Vec<AgentId>,
        ) -> Result<u64, AdversaryError> {
            check_k(self.k, view)?;
            out.clear();
            let start = (view.step % self.k.max(1) as u64) as usize;
            for i in 0..self.k {
                let a = AgentId(((start + i) % self.k) as u32);
                if view.is_active(a) {
                    out.push(a);
                }
            }
            Ok(view.step)
        }

        fn name(&self) -> &'static str {
            "naive-round-robin"
        }
    }

    /// Brute-force [`RandomSubsetAdversary`]: rebuilds the active list by
    /// scanning every agent, then applies the same per-step streams.
    #[derive(Debug)]
    pub struct NaiveRandomSubset {
        prob: f64,
        seed: u64,
        k: usize,
    }

    impl NaiveRandomSubset {
        /// A naive random-subset reference.
        pub fn new(prob: f64, k: usize, seed: u64) -> Self {
            assert!(prob > 0.0 && prob <= 1.0);
            NaiveRandomSubset { prob, seed, k }
        }
    }

    impl Adversary for NaiveRandomSubset {
        fn next_step(
            &mut self,
            view: &StepView<'_>,
            out: &mut Vec<AgentId>,
        ) -> Result<u64, AdversaryError> {
            check_k(self.k, view)?;
            out.clear();
            let active: Vec<AgentId> = (0..self.k as u32)
                .map(AgentId)
                .filter(|&a| view.is_active(a))
                .collect();
            let mut rng = StdRng::seed_from_u64(mix(&[self.seed, SUB_SUBSET, view.step]));
            sample_gaps(&mut rng, self.prob, &active, out);
            if out.is_empty() && !active.is_empty() {
                let mut fb = StdRng::seed_from_u64(mix(&[self.seed, SUB_FALLBACK, view.step]));
                out.push(active[fb.random_range(0..active.len())]);
            }
            out.shuffle(&mut rng);
            Ok(view.step)
        }

        fn name(&self) -> &'static str {
            "naive-random-subset"
        }
    }

    /// Brute-force [`LaggingAdversary`]: a flat `next_due` array scanned in
    /// full at every step (including the empty ones), with the same
    /// stateless period stream and wake handling.
    #[derive(Debug)]
    pub struct NaiveLagging {
        max_lag: u64,
        seed: u64,
        k: usize,
        next_due: Vec<u64>,
        draws: Vec<u64>,
    }

    impl NaiveLagging {
        /// A naive lagging reference (periods drawn at construction from
        /// `1..=max_lag`, like the event-driven adversary).
        pub fn new(max_lag: u64, k: usize, seed: u64) -> Self {
            assert!(max_lag >= 1);
            let mut adv = NaiveLagging {
                max_lag,
                seed,
                k,
                next_due: vec![UNSCHEDULED; k],
                draws: vec![0; k],
            };
            for a in 0..k as u32 {
                let p = adv.draw(a);
                adv.next_due[a as usize] = p - 1;
            }
            adv
        }

        fn draw(&mut self, agent: u32) -> u64 {
            let d = self.draws[agent as usize];
            self.draws[agent as usize] += 1;
            period_of(self.seed, self.max_lag, agent, d)
        }
    }

    impl Adversary for NaiveLagging {
        fn next_step(
            &mut self,
            view: &StepView<'_>,
            out: &mut Vec<AgentId>,
        ) -> Result<u64, AdversaryError> {
            check_k(self.k, view)?;
            for &a in view.woken {
                let p = self.draw(a.0);
                self.next_due[a.index()] = view.step.max(1) - 1 + p;
            }
            out.clear();
            let mut s = view.step;
            loop {
                if s > view.step + 2 * self.max_lag + 2 {
                    return Err(AdversaryError::Stalled { step: s });
                }
                for a in 0..self.k as u32 {
                    if self.next_due[a as usize] == s {
                        self.next_due[a as usize] = UNSCHEDULED;
                        if view.is_active(AgentId(a)) {
                            out.push(AgentId(a));
                        }
                    }
                }
                if out.is_empty() {
                    s += 1;
                    continue;
                }
                for &fired in out.iter() {
                    let p = self.draw(fired.0);
                    self.next_due[fired.index()] = s + p;
                }
                let mut order = StdRng::seed_from_u64(mix(&[self.seed, SUB_ORDER, s]));
                out.shuffle(&mut order);
                return Ok(s);
            }
        }

        fn name(&self) -> &'static str {
            "naive-lagging"
        }
    }

    /// Brute-force [`TargetedAdversary`]: full per-step scans, one step at
    /// a time.
    #[derive(Debug, Clone)]
    pub struct NaiveTargeted {
        max_lag: u64,
        k: usize,
    }

    impl NaiveTargeted {
        /// A naive targeted reference.
        pub fn new(max_lag: u64, k: usize) -> Self {
            assert!(max_lag >= 1);
            NaiveTargeted { max_lag, k }
        }
    }

    impl Adversary for NaiveTargeted {
        fn next_step(
            &mut self,
            view: &StepView<'_>,
            out: &mut Vec<AgentId>,
        ) -> Result<u64, AdversaryError> {
            check_k(self.k, view)?;
            out.clear();
            let mut s = view.step;
            loop {
                if s > view.step + self.max_lag {
                    return Err(AdversaryError::Stalled { step: s });
                }
                let victim_turn = (s + 1).is_multiple_of(self.max_lag);
                for a in 0..self.k as u32 {
                    let a = AgentId(a);
                    if view.is_active(a) && (!(view.victims)(a) || victim_turn) {
                        out.push(a);
                    }
                }
                if out.is_empty() && !view.active.is_empty() {
                    s += 1;
                    continue;
                }
                return Ok(s);
            }
        }

        fn name(&self) -> &'static str {
            "naive-targeted"
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    /// A little scripted worklist for driving adversaries without a world.
    struct Model {
        active: Vec<AgentId>,
        pos: Vec<u32>,
        woken: Vec<AgentId>,
        victims: HashSet<AgentId>,
    }

    impl Model {
        fn new(k: usize, active: Vec<AgentId>, victims: HashSet<AgentId>) -> Model {
            let mut pos = vec![u32::MAX; k];
            for (i, a) in active.iter().enumerate() {
                pos[a.index()] = i as u32;
            }
            Model {
                active,
                pos,
                woken: Vec::new(),
                victims,
            }
        }

        fn all_active(k: usize) -> Model {
            Model::new(k, (0..k as u32).map(AgentId).collect(), HashSet::new())
        }

        fn step<'a>(
            &'a self,
            k: usize,
            step: u64,
            victims: &'a dyn Fn(AgentId) -> bool,
        ) -> StepView<'a> {
            StepView::new(k, step, &self.active, &self.pos, &self.woken, victims)
        }
    }

    fn drive(adv: &mut dyn Adversary, k: usize, steps: u64) -> Vec<(u64, Vec<AgentId>)> {
        let model = Model::all_active(k);
        let not_victim = |_: AgentId| false;
        let mut out = Vec::new();
        let mut batches = Vec::new();
        let mut now = 0u64;
        while now < steps {
            let view = model.step(k, now, &not_victim);
            let fire = adv.next_step(&view, &mut out).expect("schedule");
            assert!(fire >= now, "{} went backwards", adv.name());
            batches.push((fire, out.clone()));
            now = fire + 1;
        }
        batches
    }

    fn activates_everyone_eventually(adv: &mut dyn Adversary, k: usize, horizon: u64) {
        let mut seen = HashSet::new();
        for (_, batch) in drive(adv, k, horizon) {
            for a in batch {
                assert!(a.index() < k, "{} produced out-of-range agent", adv.name());
                seen.insert(a);
            }
        }
        assert_eq!(seen.len(), k, "{} starved some agent", adv.name());
    }

    #[test]
    fn round_robin_covers_everyone_each_step() {
        let mut adv = RoundRobinAdversary::new(5);
        let model = Model::all_active(5);
        let not_victim = |_: AgentId| false;
        let mut out = Vec::new();
        adv.next_step(&model.step(5, 3, &not_victim), &mut out)
            .unwrap();
        assert_eq!(out.len(), 5);
        let set: HashSet<_> = out.iter().copied().collect();
        assert_eq!(set.len(), 5);
        activates_everyone_eventually(&mut RoundRobinAdversary::new(7), 7, 3);
    }

    #[test]
    fn round_robin_rotates_start_over_the_active_list() {
        let mut adv = RoundRobinAdversary::new(3);
        let model = Model::all_active(3);
        let not_victim = |_: AgentId| false;
        let mut out = Vec::new();
        for (step, first) in [(0u64, 0u32), (1, 1), (2, 2), (3, 0)] {
            adv.next_step(&model.step(3, step, &not_victim), &mut out)
                .unwrap();
            assert_eq!(out[0], AgentId(first));
        }
        // Rotation splits around the start id even when some agents are
        // parked.
        let model = Model::new(5, vec![AgentId(0), AgentId(2), AgentId(4)], HashSet::new());
        let mut adv = RoundRobinAdversary::new(5);
        adv.next_step(&model.step(5, 3, &not_victim), &mut out)
            .unwrap();
        assert_eq!(out, vec![AgentId(4), AgentId(0), AgentId(2)]);
    }

    #[test]
    fn random_subset_is_fair_and_nonempty() {
        for (_, batch) in drive(&mut RandomSubsetAdversary::new(0.3, 6, 42), 6, 50) {
            assert!(!batch.is_empty());
        }
        activates_everyone_eventually(&mut RandomSubsetAdversary::new(0.3, 6, 43), 6, 200);
    }

    #[test]
    fn random_subset_steps_are_pure_functions_of_seed_and_step() {
        // Same (seed, step) → same batch, regardless of what other steps
        // were generated in between (the pre-PR-4 sequential stream made
        // step schedules depend on earlier steps' content).
        let model = Model::all_active(8);
        let not_victim = |_: AgentId| false;
        let mut a = RandomSubsetAdversary::new(0.5, 8, 7);
        let mut b = RandomSubsetAdversary::new(0.5, 8, 7);
        let (mut out_a, mut out_b) = (Vec::new(), Vec::new());
        // `a` visits steps 0..20 in order; `b` visits only the even ones.
        for step in 0..20u64 {
            a.next_step(&model.step(8, step, &not_victim), &mut out_a)
                .unwrap();
            if step % 2 == 0 {
                b.next_step(&model.step(8, step, &not_victim), &mut out_b)
                    .unwrap();
                assert_eq!(out_a, out_b, "step {step}");
            }
        }
    }

    #[test]
    fn lagging_initial_periods_are_in_the_documented_range() {
        // Doc contract: periods come from 1..=max_lag, so every agent's
        // first activation happens within the first max_lag steps.
        for seed in 0..20u64 {
            let k = 9;
            let max_lag = 5;
            let mut adv = LaggingAdversary::new(max_lag, k, seed);
            let mut first_seen = vec![u64::MAX; k];
            for (fire, batch) in drive(&mut adv, k, max_lag) {
                for a in batch {
                    first_seen[a.index()] = first_seen[a.index()].min(fire);
                }
            }
            for (i, &s) in first_seen.iter().enumerate() {
                assert!(
                    s < max_lag,
                    "agent {i} first activated at step {s} ≥ max_lag {max_lag} (seed {seed})"
                );
            }
        }
    }

    #[test]
    fn lagging_adversary_is_fair_within_max_lag() {
        let k = 4;
        let mut adv = LaggingAdversary::new(5, k, 11);
        let mut last_seen = vec![0u64; k];
        for (fire, batch) in drive(&mut adv, k, 200) {
            for a in batch {
                last_seen[a.index()] = fire;
            }
            if fire > 10 {
                for (i, &seen) in last_seen.iter().enumerate() {
                    assert!(
                        fire - seen <= 5,
                        "agent {i} starved for more than max_lag steps"
                    );
                }
            }
        }
    }

    #[test]
    fn targeted_adversary_starves_victims_to_the_limit() {
        let k = 6;
        let mut adv = TargetedAdversary::new(4, k);
        let model = Model::new(
            k,
            (0..k as u32).map(AgentId).collect(),
            [AgentId(1), AgentId(4)].into_iter().collect(),
        );
        let victims = |a: AgentId| model.victims.contains(&a);
        let mut out = Vec::new();
        for step in 0..24u64 {
            let fire = adv
                .next_step(&model.step(k, step, &victims), &mut out)
                .unwrap();
            assert_eq!(fire, step, "non-victims exist, no skipping");
            let has_victims = out.contains(&AgentId(1)) || out.contains(&AgentId(4));
            if (step + 1) % 4 == 0 {
                assert_eq!(out.len(), k, "victim turn activates everyone");
                assert!(has_victims);
            } else {
                assert_eq!(out.len(), k - 2, "victims are starved off-turn");
                assert!(!has_victims);
            }
        }
    }

    #[test]
    fn targeted_adversary_skips_to_the_victim_turn_when_only_victims_remain() {
        let k = 3;
        let mut adv = TargetedAdversary::new(5, k);
        let model = Model::new(
            k,
            (0..k as u32).map(AgentId).collect(),
            (0..k as u32).map(AgentId).collect(),
        );
        let victims = |a: AgentId| model.victims.contains(&a);
        let mut out = Vec::new();
        let fire = adv
            .next_step(&model.step(k, 0, &victims), &mut out)
            .unwrap();
        assert_eq!(fire, 4, "jumped straight to the first victim turn");
        assert_eq!(out.len(), k);
        let fire = adv
            .next_step(&model.step(k, 5, &victims), &mut out)
            .unwrap();
        assert_eq!(fire, 9);
    }

    #[test]
    fn gap_sampler_matches_the_floor_of_the_log_ratio() {
        // Per draw, against the formula `sample_gaps` evaluates, at random
        // draws and at the draws closest to every integer gap boundary
        // (where the shortcut's margin and the truncation could slip).
        let mut probe = StdRng::seed_from_u64(0x6A95);
        let mut probs = vec![0.7, 0.3, 0.5, 0.02, 1e-3, 0.999, 1.0 - 1e-12, 1e-9];
        probs.extend((0..40).map(|_| probe.random_f64().max(1e-6)));
        for prob in probs {
            let g = GapSampler::new(prob);
            let denom = (1.0 - prob).ln();
            let formula = |u: f64, remaining: usize| {
                let gap = ((1.0 - u).ln() / denom).floor();
                (gap < remaining as f64).then_some(gap as usize)
            };
            let mut draws: Vec<f64> = (0..2_000).map(|_| probe.random_f64()).collect();
            // 1 − u = (1 − prob)^j is where the gap steps to j, and the
            // shortcut ends at 1 − u = zero_gap_above.
            let edges = (1..6)
                .map(|j| 1.0 - (denom * j as f64).exp())
                .chain([1.0 - g.zero_gap_above]);
            for edge in edges {
                let m = (edge * (1u64 << 53) as f64) as i64;
                for d in -3..=3 {
                    let m = (m + d).clamp(0, (1 << 53) - 1);
                    draws.push(m as f64 / (1u64 << 53) as f64);
                }
            }
            draws.push(0.0);
            for u in draws {
                for remaining in [1, 2, 3, 7, 1_000] {
                    assert_eq!(
                        g.skip(u, remaining),
                        formula(u, remaining),
                        "prob {prob}, u {u}, remaining {remaining}"
                    );
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "probability")]
    fn zero_probability_rejected() {
        let _ = RandomSubsetAdversary::new(0.0, 4, 1);
    }

    #[test]
    fn subnormal_probability_falls_back_to_one_agent_per_step() {
        // prob below the ln(1 − p) resolution must not degenerate into
        // activating everyone; the fallback keeps each step at one agent.
        let k = 8;
        let mut adv = RandomSubsetAdversary::new(1e-17, k, 3);
        let model = Model::all_active(k);
        let not_victim = |_: AgentId| false;
        let mut out = Vec::new();
        for step in 0..50u64 {
            adv.next_step(&model.step(k, step, &not_victim), &mut out)
                .unwrap();
            assert_eq!(out.len(), 1, "step {step} activated {}", out.len());
        }
    }

    #[test]
    fn mid_run_agent_count_change_is_a_typed_error() {
        let kinds = [
            AdversaryKind::RoundRobin,
            AdversaryKind::RandomSubset { prob: 0.4 },
            AdversaryKind::Lagging { max_lag: 3 },
            AdversaryKind::Targeted { max_lag: 3 },
        ];
        let model = Model::all_active(4);
        let not_victim = |_: AgentId| false;
        let mut out = Vec::new();
        for kind in kinds {
            let mut adv = kind.build(5, 7);
            let err = adv
                .next_step(&model.step(4, 0, &not_victim), &mut out)
                .unwrap_err();
            assert_eq!(
                err,
                AdversaryError::AgentCountChanged {
                    expected: 5,
                    got: 4
                },
                "{kind:?}"
            );
        }
    }

    #[test]
    fn kind_builds_matching_seeded_adversaries() {
        let kinds = [
            AdversaryKind::RoundRobin,
            AdversaryKind::RandomSubset { prob: 0.4 },
            AdversaryKind::Lagging { max_lag: 3 },
            AdversaryKind::Targeted { max_lag: 3 },
        ];
        for kind in kinds {
            let a = drive(&mut kind.build(5, 77), 5, 30);
            let b = drive(&mut kind.build(5, 77), 5, 30);
            assert_eq!(a, b, "{kind:?}");
            activates_everyone_eventually(&mut kind.build(5, 78), 5, 300);
        }
        assert_eq!(AdversaryKind::RoundRobin.build(4, 0).name(), "round-robin");
        assert_eq!(
            AdversaryKind::Targeted { max_lag: 2 }.build(4, 0).name(),
            "targeted"
        );
    }

    #[test]
    fn buffers_are_reused_not_reallocated() {
        // After warm-up the out buffer's capacity must stabilize: the
        // event-driven contract is zero per-step allocation in the caller's
        // buffer beyond high-water marks.
        let k = 32;
        let mut adv = RandomSubsetAdversary::new(0.5, k, 3);
        let model = Model::all_active(k);
        let not_victim = |_: AgentId| false;
        let mut out = Vec::with_capacity(k);
        let cap = out.capacity();
        for step in 0..200u64 {
            adv.next_step(&model.step(k, step, &not_victim), &mut out)
                .unwrap();
        }
        assert_eq!(out.capacity(), cap, "buffer grew past its high-water mark");
    }
}
