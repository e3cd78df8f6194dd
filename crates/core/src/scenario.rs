//! The scenario API: one open, canonical, round-trippable description of a
//! run, from the CLI all the way to the hot loop.
//!
//! A [`ScenarioSpec`] names everything that defines a run — graph family,
//! agent count and occupancy, [`Placement`] family, [`Schedule`], algorithm
//! (by registry label) with typed per-algorithm [`Params`], and [`Limits`] —
//! and round-trips losslessly through a canonical label string (see the
//! grammar below and `DESIGN.md` §7). Algorithms are not a closed enum:
//! they come from a [`Registry`] of [`AlgorithmFactory`] values, so adding
//! an algorithm is one module plus one registration line, never a
//! cross-crate `match` surgery.
//!
//! ## Canonical label grammar
//!
//! ```text
//! scenario  := family "/k" k ["/occ" float] "/" placement "/" schedule
//!              ["/dyn-ring" u64] ["/crash" u64]
//!              "/" algorithm ("/" key "=" value)*
//!              ["/dist" u64] ["/rounds" u64] ["/steps" u64]
//! ```
//!
//! * `family`    — a [`GraphFamily`] label (`rtree`, `er6`, `grid`, …)
//! * `placement` — a [`Placement`] label (`rooted`, `scatter`, `cluster4`,
//!   `spread`)
//! * `schedule`  — a [`Schedule`] label (`sync`, `async-rr`,
//!   `async-rand0.7`, `async-lag4`, `async-target4`); adversary seeds are
//!   **not** part of a scenario — every seed of a run derives from the
//!   single run seed
//! * `dyn-ringR` — the dynamic-graph adversary (arXiv 2408.12220): `R ≥ 1`
//!   seeded edges removed per round, restored the next; ring family only
//! * `crashF`    — the crash-fault plan: `F ≥ 1` agents die at seeded
//!   times; only crash-tolerant algorithms accept it
//! * `algorithm` — a [`Registry`] label (`ks-dfs`, `probe-dfs`,
//!   `sync-seeker`, `random-walk`, …)
//! * params      — sorted `key=value` segments with canonically formatted
//!   values ([`ParamValue`])
//! * `distD`     — the distance-`D` dispersion predicate (`D ≥ 2`;
//!   pairwise settled distance, verified by multi-source BFS)
//!
//! `occ`/`dyn-ring`/`crash`/`dist`/`rounds`/`steps` appear only when they
//! differ from their defaults (1.0 / absent / 0 / 1 / unlimited) — omission
//! *is* the canonical form.
//!
//! Examples: `rtree/k64/rooted/sync/probe-dfs`,
//! `er6/k32/scatter/async-rand0.7/ks-dfs`,
//! `ring/k24/rooted/sync/dyn-ring1/probe-dfs`,
//! `ring/k16/occ0.5/scatter/sync/crash3/random-walk`,
//! `star/k96/rooted/sync/sync-seeker/probers=32/wait=6`.
//!
//! Floats are formatted canonically ([`fmt_f64`]): the shortest
//! value-round-tripping decimal, always containing `.` or `e` so integers
//! and floats never collide; parsing rejects non-canonical spellings, which
//! is what makes `label → spec → label` the identity.

use crate::baselines::ks_dfs::KsDfs;
use crate::probe_dfs::ProbeDfs;
use crate::rooted_sync::{RootedSyncDisp, SyncConfig};
use crate::verify;
use disp_graph::generators::GraphFamily;
use disp_graph::{NodeId, Topology};
use disp_rng::mix;
use disp_sim::{
    Adversary, AdversaryKind, AgentProtocol, AsyncRunner, CrashPlan, DynamicAdversary, Observer,
    Outcome, Placement, RunConfig, RunError, SyncRunner, World, WorldPool,
};
use std::fmt::{self, Write as _};

// ---------------------------------------------------------------------------
// Canonical floats
// ---------------------------------------------------------------------------

/// Format a finite `f64` canonically: Rust's shortest round-trip decimal,
/// forced to contain `.` so a float is never mistaken for an integer
/// (`1.0` stays `"1.0"`, never `"1"`).
pub fn fmt_f64(v: f64) -> String {
    CanonicalF64(v).to_string()
}

/// Displays a finite `f64` in its canonical form ([`fmt_f64`]), for
/// writers that append to a buffer instead of allocating the text.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CanonicalF64(pub f64);

impl fmt::Display for CanonicalF64 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        debug_assert!(self.0.is_finite(), "canonical floats are finite");
        // `{}` never uses an exponent and prints a `.` exactly when a finite
        // value has a fractional part. Every other value — integral, or
        // non-finite in a release build — gets `.0`, so the text always
        // holds a `.`.
        write!(f, "{}", self.0)?;
        if !self.0.is_finite() || self.0.fract() == 0.0 {
            f.write_str(".0")?;
        }
        Ok(())
    }
}

/// Parse a float written by [`fmt_f64`], rejecting non-canonical spellings
/// (`"0.70"`, `".5"`, `"1"`) and non-finite values — the property that makes
/// label round-trips byte-identical.
pub fn parse_f64(s: &str) -> Option<f64> {
    let v: f64 = s.parse().ok()?;
    (v.is_finite() && fmt_f64(v) == s).then_some(v)
}

/// Parse an unsigned integer in canonical form: plain digits, no sign and
/// no leading zeros (`"08"`, `"+7"` are rejected). Keeps every integer in
/// the label grammar a bijection with its value, like [`parse_f64`] does
/// for floats.
pub fn parse_u64(s: &str) -> Option<u64> {
    let v: u64 = s.parse().ok()?;
    (v.to_string() == s).then_some(v)
}

// ---------------------------------------------------------------------------
// Schedules
// ---------------------------------------------------------------------------

/// Which scheduler a scenario runs under.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// Synchronous rounds.
    Sync,
    /// Asynchronous, round-robin activations (benign schedule).
    AsyncRoundRobin,
    /// Asynchronous, independent random activations with the given per-step
    /// probability.
    AsyncRandom {
        /// Per-agent activation probability per step.
        prob: f64,
    },
    /// Asynchronous with heterogeneous lags up to `max_lag`.
    AsyncLagging {
        /// Largest per-agent activation period.
        max_lag: u64,
    },
    /// Asynchronous with the adaptive targeted (starvation) adversary: the
    /// protocol-designated victim set — the unsettled agents, i.e. the DFS
    /// driver, its cohort and the probers — is activated only every
    /// `max_lag`-th step while everyone else is activated promptly. The
    /// paper's lower-bound adversarial shape; deterministic (no seed).
    AsyncTargeted {
        /// Steps between consecutive victim activations.
        max_lag: u64,
    },
}

impl Schedule {
    /// Canonical label: `sync`, `async-rr`, `async-rand<float>`,
    /// `async-lag<int>`, `async-target<int>`. Seeds are deliberately not
    /// encoded — a schedule label describes the adversary *family*, the run
    /// seed supplies its randomness.
    pub fn label(&self) -> String {
        self.to_string()
    }

    /// Inverse of [`Schedule::label`]. Rejects
    /// non-canonical float spellings, so `label ↔ value` is a bijection.
    pub fn from_label(label: &str) -> Option<Schedule> {
        match label {
            "sync" => Some(Schedule::Sync),
            "async-rr" => Some(Schedule::AsyncRoundRobin),
            _ => {
                if let Some(rest) = label.strip_prefix("async-rand") {
                    let prob = parse_f64(rest)?;
                    (prob > 0.0 && prob <= 1.0).then_some(Schedule::AsyncRandom { prob })
                } else if let Some(rest) = label.strip_prefix("async-target") {
                    let max_lag = parse_u64(rest)?;
                    (max_lag >= 1).then_some(Schedule::AsyncTargeted { max_lag })
                } else if let Some(rest) = label.strip_prefix("async-lag") {
                    let max_lag = parse_u64(rest)?;
                    (max_lag >= 1).then_some(Schedule::AsyncLagging { max_lag })
                } else {
                    None
                }
            }
        }
    }

    /// Whether this schedule is asynchronous.
    pub fn is_async(&self) -> bool {
        !matches!(self, Schedule::Sync)
    }

    /// The adversary this schedule runs under, as a seedable descriptor —
    /// `None` for the synchronous scheduler. The run seed supplies the
    /// adversary's seed.
    pub fn adversary(&self) -> Option<AdversaryKind> {
        match *self {
            Schedule::Sync => None,
            Schedule::AsyncRoundRobin => Some(AdversaryKind::RoundRobin),
            Schedule::AsyncRandom { prob } => Some(AdversaryKind::RandomSubset { prob }),
            Schedule::AsyncLagging { max_lag } => Some(AdversaryKind::Lagging { max_lag }),
            Schedule::AsyncTargeted { max_lag } => Some(AdversaryKind::Targeted { max_lag }),
        }
    }
}

/// Writes the canonical label ([`Schedule::label`]).
impl fmt::Display for Schedule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Schedule::Sync => f.write_str("sync"),
            Schedule::AsyncRoundRobin => f.write_str("async-rr"),
            Schedule::AsyncRandom { prob, .. } => write!(f, "async-rand{}", CanonicalF64(*prob)),
            Schedule::AsyncLagging { max_lag, .. } => write!(f, "async-lag{max_lag}"),
            Schedule::AsyncTargeted { max_lag } => write!(f, "async-target{max_lag}"),
        }
    }
}

// ---------------------------------------------------------------------------
// Typed per-algorithm parameters
// ---------------------------------------------------------------------------

/// A single typed parameter value with a canonical text form.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ParamValue {
    /// An unsigned integer, formatted as plain digits.
    U64(u64),
    /// A finite float, formatted by [`fmt_f64`] (always contains `.`/`e`).
    F64(f64),
    /// A boolean, formatted `true`/`false`.
    Bool(bool),
}

impl ParamValue {
    /// Inverse of the `Display` form. The three canonical forms are
    /// disjoint (digits / contains `.`|`e` / `true`|`false`), so the type is
    /// recovered from the text alone.
    pub fn parse(s: &str) -> Option<ParamValue> {
        if s == "true" || s == "false" {
            return Some(ParamValue::Bool(s == "true"));
        }
        if !s.is_empty() && s.bytes().all(|b| b.is_ascii_digit()) {
            let v: u64 = s.parse().ok()?;
            return (v.to_string() == s).then_some(ParamValue::U64(v));
        }
        parse_f64(s).map(ParamValue::F64)
    }

    /// The type name, used in mismatch errors.
    pub fn kind(&self) -> &'static str {
        match self {
            ParamValue::U64(_) => "u64",
            ParamValue::F64(_) => "f64",
            ParamValue::Bool(_) => "bool",
        }
    }
}

/// Writes the canonical text form (the label/JSON wire encoding), which
/// [`ParamValue::parse`] reads back.
impl fmt::Display for ParamValue {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            ParamValue::U64(v) => write!(f, "{v}"),
            ParamValue::F64(v) => write!(f, "{}", CanonicalF64(v)),
            ParamValue::Bool(v) => write!(f, "{v}"),
        }
    }
}

/// An ordered (sorted-by-key, duplicate-free) set of typed parameters — the
/// open replacement for hard-wired per-algorithm config structs on the run
/// path. Factories declare their legal keys via
/// [`AlgorithmFactory::default_params`]; validation checks names and types
/// against that declaration.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Params(Vec<(String, ParamValue)>);

impl Params {
    /// No parameters.
    pub fn new() -> Params {
        Params(Vec::new())
    }

    /// Set (or replace) a parameter. Keys are kept sorted so the canonical
    /// encodings are independent of call order.
    pub fn set(mut self, key: &str, value: ParamValue) -> Params {
        match self.0.binary_search_by(|(k, _)| k.as_str().cmp(key)) {
            Ok(i) => self.0[i].1 = value,
            Err(i) => self.0.insert(i, (key.to_string(), value)),
        }
        self
    }

    /// Look up a parameter.
    pub fn get(&self, key: &str) -> Option<&ParamValue> {
        self.0
            .binary_search_by(|(k, _)| k.as_str().cmp(key))
            .ok()
            .map(|i| &self.0[i].1)
    }

    /// Integer parameter with a default (factories use this in `build`).
    pub fn u64_or(&self, key: &str, default: u64) -> u64 {
        match self.get(key) {
            Some(ParamValue::U64(v)) => *v,
            _ => default,
        }
    }

    /// Iterate parameters in canonical (sorted) order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, &ParamValue)> {
        self.0.iter().map(|(k, v)| (k.as_str(), v))
    }

    /// Whether no parameters are set.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }
}

// ---------------------------------------------------------------------------
// Limits
// ---------------------------------------------------------------------------

/// Optional overrides of the runner's safety limits. `None` means "derive
/// from the instance" (see [`Limits::resolve`]); only overrides appear in
/// labels and JSON, so the default spec stays short.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Limits {
    /// Maximum SYNC rounds before the runner gives up.
    pub max_rounds: Option<u64>,
    /// Maximum ASYNC scheduler steps before the runner gives up.
    pub max_steps: Option<u64>,
}

/// The trivial round lower bound of a **rooted** start: within `d` time
/// units the `k` co-located agents can only occupy nodes of the radius-`d`
/// ball around the root, which holds at most `2d + 1` nodes when `Δ ≤ 2`
/// and at most `1 + Δ + Δ² + … + Δ^d` nodes otherwise. Any user-supplied
/// limit below this bound cannot possibly suffice and is rejected with a
/// typed error instead of burning a run.
pub fn rooted_round_lower_bound(k: usize, max_degree: usize) -> u64 {
    if k <= 1 {
        return 0;
    }
    if max_degree <= 2 {
        return (k as u64 - 1).div_ceil(2);
    }
    let delta = max_degree as u128;
    let (mut d, mut ball, mut frontier) = (0u64, 1u128, 1u128);
    while ball < k as u128 {
        frontier = frontier.saturating_mul(delta);
        ball = ball.saturating_add(frontier);
        d += 1;
    }
    d
}

/// The trivial round lower bound of a **dynamic ring** run (the arXiv
/// 2408.12220 model): a distance-`d` dispersion of `k` agents spans at
/// least `(k-1)·d` ring hops, and the edge-removing adversary can keep one
/// side of the root permanently cut, forcing all expansion through a
/// frontier that advances at most one hop per round — so `(k-1)·max(d,1)`
/// rounds are necessary. User limits below this bound are rejected with a
/// typed [`ScenarioError::LimitTooLow`].
pub fn dyn_ring_round_lower_bound(k: usize, min_distance: u64) -> u64 {
    if k <= 1 {
        return 0;
    }
    (k as u64 - 1).saturating_mul(min_distance.max(1))
}

impl Limits {
    /// Resolve into the engine's [`RunConfig`] for a concrete instance.
    ///
    /// Fixed default limits cannot serve both `k = 16` smoke runs and
    /// `n = 10^6` line graphs, so the defaults are derived from the
    /// instance: the round budget covers the `O(k log k)` and
    /// `O(min{m, kΔ})` envelopes of every implemented algorithm with a
    /// generous constant, and the step budget additionally scales with how
    /// many scheduler steps the adversary needs per epoch. Memory sampling
    /// switches to the geometric schedule (interval 0) for large `k`,
    /// bounding sampling work at `O(k log T)`. User overrides pass through
    /// untouched — hopeless ones are rejected up front with a typed
    /// [`ScenarioError::LimitTooLow`] by [`ScenarioSpec::validate`], and
    /// any that slip past the family-level bound simply run to a faithful
    /// limit-exceeded record instead of aborting a campaign mid-run.
    pub fn resolve(self, k: usize, m: usize, max_degree: usize, schedule: Schedule) -> RunConfig {
        self.resolve_with_faults(k, m, max_degree, schedule, None, 0)
    }

    /// [`Limits::resolve`] for a faulty world: the default budget is
    /// derived from the **live** worst case. Crashed agents shrink the
    /// effective `k` the envelope charges for (survivors do the remaining
    /// work), but each crash may orphan a settled node and force a
    /// re-settlement walk, so a per-crash recovery term is added back; a
    /// dynamic adversary stretches every distance by blocking edges, which
    /// multiplies the whole budget. Fault-free inputs reproduce
    /// [`Limits::resolve`] exactly.
    pub fn resolve_with_faults(
        self,
        k: usize,
        m: usize,
        max_degree: usize,
        schedule: Schedule,
        dyn_ring: Option<u64>,
        crashes: u64,
    ) -> RunConfig {
        let k_live = k.saturating_sub(crashes as usize).max(1);
        let log2k = (usize::BITS - k_live.next_power_of_two().leading_zeros()) as u64;
        let envelope = 64u64
            .saturating_mul(k_live as u64)
            .saturating_mul(log2k.max(1))
            .saturating_add(16u64.saturating_mul((m as u64).min(k_live as u64 * max_degree as u64)))
            // Each crash can orphan a settled node; re-settling it costs a
            // walk bounded by the k-ball the protocol operates in.
            .saturating_add(crashes.saturating_mul(16).saturating_mul(k as u64))
            // One edge down per round delays a frontier move with
            // probability ~1/n; a generous constant absorbs the stretch
            // plus adversarial placement of the cut.
            .saturating_mul(if dyn_ring.is_some() { 4 } else { 1 });
        let default_rounds = 10_000u64.saturating_add(envelope);
        let step_factor = match schedule {
            Schedule::Sync => 1,
            Schedule::AsyncRoundRobin => 2,
            Schedule::AsyncRandom { prob, .. } => (8.0 / prob.max(1e-6)).ceil() as u64,
            Schedule::AsyncLagging { max_lag, .. } => 4 * max_lag.max(1) + 4,
            // Victims fire every max_lag-th step, so time stretches by
            // exactly that factor (plus headroom).
            Schedule::AsyncTargeted { max_lag } => 2 * max_lag.max(1) + 4,
        };
        RunConfig {
            max_rounds: self.max_rounds.unwrap_or(default_rounds),
            max_steps: self
                .max_steps
                .unwrap_or_else(|| default_rounds.saturating_mul(step_factor)),
            memory_sample_interval: if k >= 4096 { 0 } else { 4 },
        }
    }
}

// ---------------------------------------------------------------------------
// Errors
// ---------------------------------------------------------------------------

/// Why a scenario is not runnable. Every illegal combination is a typed
/// error — never a panic and never silent misbehavior.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// The algorithm label is not in the registry.
    UnknownAlgorithm {
        /// The offending label.
        algorithm: String,
    },
    /// A scenario label does not match the grammar.
    BadLabel {
        /// The offending label.
        label: String,
        /// What went wrong.
        reason: String,
    },
    /// The algorithm requires a rooted start but the placement is not rooted
    /// (e.g. `probe-dfs` + `scatter`).
    PlacementUnsupported {
        /// Algorithm label.
        algorithm: String,
        /// Placement label.
        placement: String,
    },
    /// The algorithm cannot run under this schedule (e.g. `sync-seeker` +
    /// any ASYNC schedule).
    ScheduleUnsupported {
        /// Algorithm label.
        algorithm: String,
        /// Schedule label.
        schedule: String,
    },
    /// The scenario demands a fault model (`dyn-ring`/`crash`) the
    /// algorithm does not tolerate (e.g. `ks-dfs` + `crash2`: its
    /// backtracking reads settled agents' pointers, which a corpse orphans).
    FaultUnsupported {
        /// Algorithm label.
        algorithm: String,
        /// The fault dimension (`"dyn-ring"` or `"crash"`).
        fault: &'static str,
    },
    /// A parameter key the algorithm does not declare.
    UnknownParam {
        /// Algorithm label.
        algorithm: String,
        /// The offending key.
        key: String,
    },
    /// A parameter with the right key but an illegal value or type.
    BadParam {
        /// The offending key.
        key: String,
        /// What went wrong.
        reason: String,
    },
    /// A user-supplied runner limit below the placement's trivial lower
    /// bound — the run could never finish within it.
    LimitTooLow {
        /// Which limit (`"rounds"` or `"steps"`).
        key: &'static str,
        /// The supplied value.
        given: u64,
        /// The instance's trivial lower bound.
        lower_bound: u64,
    },
    /// A structurally invalid spec (k = 0, occupancy outside (0, 1], …).
    BadSpec {
        /// What went wrong.
        reason: String,
    },
    /// The run itself failed (limit exceeded).
    Run(RunError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnknownAlgorithm { algorithm } => {
                write!(f, "unknown algorithm '{algorithm}' (not in the registry)")
            }
            ScenarioError::BadLabel { label, reason } => {
                write!(f, "bad scenario label '{label}': {reason}")
            }
            ScenarioError::PlacementUnsupported {
                algorithm,
                placement,
            } => write!(
                f,
                "algorithm '{algorithm}' requires a rooted start; placement '{placement}' is not rooted"
            ),
            ScenarioError::ScheduleUnsupported {
                algorithm,
                schedule,
            } => write!(
                f,
                "algorithm '{algorithm}' cannot run under schedule '{schedule}'"
            ),
            ScenarioError::FaultUnsupported { algorithm, fault } => write!(
                f,
                "algorithm '{algorithm}' does not tolerate the '{fault}' fault model"
            ),
            ScenarioError::UnknownParam { algorithm, key } => {
                write!(f, "algorithm '{algorithm}' has no parameter '{key}'")
            }
            ScenarioError::BadParam { key, reason } => {
                write!(f, "bad value for parameter '{key}': {reason}")
            }
            ScenarioError::LimitTooLow {
                key,
                given,
                lower_bound,
            } => write!(
                f,
                "limit {key}={given} is below the placement's trivial lower bound {lower_bound}"
            ),
            ScenarioError::BadSpec { reason } => write!(f, "invalid scenario: {reason}"),
            ScenarioError::Run(e) => write!(f, "run failed: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<RunError> for ScenarioError {
    fn from(e: RunError) -> Self {
        ScenarioError::Run(e)
    }
}

// ---------------------------------------------------------------------------
// The algorithm registry
// ---------------------------------------------------------------------------

/// `Some(digits)` when `seg` is exactly `prefix` followed by one or more
/// ASCII digits — the shape of the reserved grammar tokens.
fn digits_suffix<'a>(seg: &'a str, prefix: &str) -> Option<&'a str> {
    seg.strip_prefix(prefix)
        .filter(|rest| !rest.is_empty() && rest.bytes().all(|b| b.is_ascii_digit()))
}

/// Whether `label` collides with a reserved grammar token (`dyn-ring<N>`,
/// `crash<N>`, `dist<N>`). Algorithm labels must avoid these shapes or
/// [`ScenarioSpec::from_label`] could not tell an algorithm segment from a
/// fault/verification segment.
fn is_reserved_label(label: &str) -> bool {
    ["dyn-ring", "crash", "dist"]
        .iter()
        .any(|tok| digits_suffix(label, tok).is_some())
}

/// A constructor + capability declaration for one algorithm. Implement this
/// (plus one [`Registry::with`] call) to plug a new algorithm into every
/// campaign, bench and CLI — nothing else in the workspace needs touching.
pub trait AlgorithmFactory: Send + Sync {
    /// Stable registry label (lowercase letters, digits and `-`; must not
    /// contain `/` or `=`, which the label grammar reserves).
    fn label(&self) -> &'static str;

    /// Whether the algorithm accepts non-rooted (general) starts.
    fn supports_general(&self) -> bool {
        false
    }

    /// Whether the algorithm runs under asynchronous schedules.
    fn supports_async(&self) -> bool {
        true
    }

    /// Whether the algorithm tolerates the dynamic-graph adversary
    /// (`dyn-ringR`): every move must go through the fallible
    /// `try_move_via` path and treat `EdgeDown` as "wait, retry later".
    fn supports_dynamic(&self) -> bool {
        false
    }

    /// Whether the algorithm tolerates crash faults (`crashF`): it must
    /// implement [`AgentProtocol::on_crash`], retract the corpse's claims,
    /// and terminate on the surviving agents alone.
    fn supports_crash(&self) -> bool {
        false
    }

    /// The legal parameters with their default values; validation checks
    /// scenario params against these keys and types.
    fn default_params(&self) -> Params {
        Params::new()
    }

    /// Construct the protocol for a prepared world. `seed` is the derived
    /// algorithm-internal seed of this run.
    fn build(&self, world: &World, params: &Params, seed: u64) -> Box<dyn AgentProtocol>;
}

/// An open collection of [`AlgorithmFactory`] values, keyed by label.
///
/// [`Registry::builtin`] carries the paper's algorithms; extras register on
/// top with [`Registry::with`]. Registration order is report order.
#[derive(Default)]
pub struct Registry {
    factories: Vec<Box<dyn AlgorithmFactory>>,
}

impl Registry {
    /// An empty registry.
    pub fn empty() -> Registry {
        Registry::default()
    }

    /// The built-in algorithms: `ks-dfs`, `probe-dfs`, `sync-seeker`,
    /// `random-walk` (the crash-tolerant one — memoryless walks survive
    /// arbitrary agent loss, which none of the DFS-structured algorithms
    /// do, so the fault-worlds campaigns need it built in).
    pub fn builtin() -> Registry {
        Registry::empty()
            .with(KsDfsFactory)
            .with(ProbeDfsFactory)
            .with(SyncSeekerFactory)
            .with(crate::extras::random_walk::RandomWalkFactory)
    }

    /// Register a factory, consuming and returning the registry so
    /// registration is a one-liner.
    ///
    /// # Panics
    /// Panics if the label is already taken or violates the label grammar —
    /// both are programming errors at registration time.
    pub fn with(mut self, factory: impl AlgorithmFactory + 'static) -> Registry {
        let label = factory.label();
        assert!(
            !label.is_empty()
                && label
                    .bytes()
                    .all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'-'),
            "algorithm label '{label}' violates the grammar (lowercase/digits/'-')"
        );
        assert!(
            !is_reserved_label(label),
            "algorithm label '{label}' collides with a reserved grammar token \
             (dyn-ring<N>/crash<N>/dist<N>)"
        );
        assert!(
            self.get(label).is_none(),
            "algorithm label '{label}' registered twice"
        );
        self.factories.push(Box::new(factory));
        self
    }

    /// Look up a factory by label.
    pub fn get(&self, label: &str) -> Option<&dyn AlgorithmFactory> {
        self.factories
            .iter()
            .find(|f| f.label() == label)
            .map(|f| f.as_ref())
    }

    /// All registered labels, in registration (= report) order.
    pub fn labels(&self) -> Vec<&'static str> {
        self.factories.iter().map(|f| f.label()).collect()
    }
}

impl fmt::Debug for Registry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_tuple("Registry").field(&self.labels()).finish()
    }
}

/// Factory for the OPODIS'21 group-DFS baseline (general starts, both
/// schedulers).
pub struct KsDfsFactory;

impl AlgorithmFactory for KsDfsFactory {
    fn label(&self) -> &'static str {
        "ks-dfs"
    }

    fn supports_general(&self) -> bool {
        true
    }

    fn build(&self, world: &World, _params: &Params, seed: u64) -> Box<dyn AgentProtocol> {
        Box::new(KsDfs::with_seed(world, seed))
    }
}

/// Factory for the paper's doubling-probe DFS (`RootedAsyncDisp`,
/// Theorem 7.1): rooted starts, both schedulers.
pub struct ProbeDfsFactory;

impl AlgorithmFactory for ProbeDfsFactory {
    fn label(&self) -> &'static str {
        "probe-dfs"
    }

    // Every move site goes through the fallible path and treats a downed
    // edge as "stay in this stage, retry next activation" — sound because
    // the dynamic adversary restores each removed edge one round later.
    fn supports_dynamic(&self) -> bool {
        true
    }

    fn build(&self, world: &World, _params: &Params, _seed: u64) -> Box<dyn AgentProtocol> {
        Box::new(ProbeDfs::new(world))
    }
}

/// Factory for the paper's seeker-pool synchronous algorithm (Theorem 6.1):
/// rooted starts, SYNC only.
///
/// Parameters: `wait` (rounds a seeker waits at a probed neighbor, default
/// 1) and `probers` (cap on seekers per probe iteration, `0` = uncapped).
pub struct SyncSeekerFactory;

impl AlgorithmFactory for SyncSeekerFactory {
    fn label(&self) -> &'static str {
        "sync-seeker"
    }

    fn supports_async(&self) -> bool {
        false
    }

    fn default_params(&self) -> Params {
        Params::new()
            .set("wait", ParamValue::U64(1))
            .set("probers", ParamValue::U64(0))
    }

    fn build(&self, world: &World, params: &Params, _seed: u64) -> Box<dyn AgentProtocol> {
        let config = SyncConfig {
            wait_rounds: params.u64_or("wait", 1) as u32,
            max_probers: match params.u64_or("probers", 0) {
                0 => None,
                cap => Some(cap as usize),
            },
        };
        Box::new(RootedSyncDisp::with_config(world, config))
    }
}

// ---------------------------------------------------------------------------
// The scenario spec
// ---------------------------------------------------------------------------

/// Sub-seed tags: every random aspect of a run derives from the single run
/// seed through `mix(&[seed, TAG])`. The tags (and therefore the streams)
/// are part of the reproducibility contract.
const SEED_GRAPH: u64 = 0xD15C_0001;
const SEED_PLACEMENT: u64 = 0xD15C_0002;
const SEED_ADVERSARY: u64 = 0xD15C_0003;
const SEED_ALGORITHM: u64 = 0xD15C_0004;
const SEED_DYNAMICS: u64 = 0xD15C_0005;
const SEED_CRASH: u64 = 0xD15C_0006;

/// The canonical description of one run. See the module docs for the label
/// grammar; construction goes through [`ScenarioSpec::new`] plus the
/// `with_*` builder methods.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Graph family to instantiate.
    pub family: GraphFamily,
    /// Number of agents.
    pub k: usize,
    /// Fraction of nodes carrying agents (the graph gets ≈ `k / occupancy`
    /// nodes; 1.0 = `k = n`).
    pub occupancy: f64,
    /// Initial placement family.
    pub placement: Placement,
    /// Scheduler (run seeds supply the adversary's randomness).
    pub schedule: Schedule,
    /// Dynamic-graph adversary: `Some(r)` removes `r` seeded edges per
    /// round (restored the next round); ring family only.
    pub dyn_ring: Option<u64>,
    /// Crash faults: this many agents die at seeded times (`0` = none).
    pub crashes: u64,
    /// The dispersion predicate's minimum pairwise settled distance
    /// (`1` = plain dispersion, the default).
    pub min_distance: u64,
    /// Algorithm registry label.
    pub algorithm: String,
    /// Typed per-algorithm parameters (only the overridden ones).
    pub params: Params,
    /// Runner limit overrides.
    pub limits: Limits,
}

/// The result of [`ScenarioSpec::run`].
#[derive(Debug, Clone)]
pub struct ScenarioReport {
    /// The canonical label of the scenario that ran.
    pub scenario: String,
    /// Raw measurements.
    pub outcome: Outcome,
    /// Whether the final configuration is a valid dispersion.
    pub dispersed: bool,
}

impl ScenarioSpec {
    /// A rooted, synchronous scenario at full occupancy with default
    /// parameters and limits — refine with the `with_*` methods.
    pub fn new(family: GraphFamily, k: usize, algorithm: &str) -> ScenarioSpec {
        ScenarioSpec {
            family,
            k,
            occupancy: 1.0,
            placement: Placement::Rooted,
            schedule: Schedule::Sync,
            dyn_ring: None,
            crashes: 0,
            min_distance: 1,
            algorithm: algorithm.to_string(),
            params: Params::new(),
            limits: Limits::default(),
        }
    }

    /// Enable the dynamic-ring adversary: `rate ≥ 1` seeded edges removed
    /// per round, restored the next round (arXiv 2408.12220 model).
    pub fn with_dynamic_ring(mut self, rate: u64) -> ScenarioSpec {
        self.dyn_ring = Some(rate);
        self
    }

    /// Enable crash faults: `crashes` agents die at seeded times.
    pub fn with_crashes(mut self, crashes: u64) -> ScenarioSpec {
        self.crashes = crashes;
        self
    }

    /// Require pairwise settled distance ≥ `d` at termination
    /// (distance-`d` dispersion; `1` is plain dispersion).
    pub fn with_min_distance(mut self, d: u64) -> ScenarioSpec {
        self.min_distance = d;
        self
    }

    /// Set the placement family.
    pub fn with_placement(mut self, placement: Placement) -> ScenarioSpec {
        self.placement = placement;
        self
    }

    /// Set the schedule.
    pub fn with_schedule(mut self, schedule: Schedule) -> ScenarioSpec {
        self.schedule = schedule;
        self
    }

    /// Set the occupancy.
    pub fn with_occupancy(mut self, occupancy: f64) -> ScenarioSpec {
        self.occupancy = occupancy;
        self
    }

    /// Set one algorithm parameter.
    pub fn with_param(mut self, key: &str, value: ParamValue) -> ScenarioSpec {
        self.params = self.params.set(key, value);
        self
    }

    /// Override the runner limits.
    pub fn with_limits(mut self, limits: Limits) -> ScenarioSpec {
        self.limits = limits;
        self
    }

    /// The canonical label — the identity of this scenario everywhere:
    /// trial ids, manifest fingerprints, CLI arguments, report rows.
    ///
    /// Built in one buffer sized for a typical label; `Display` writes the
    /// same text into any other buffer (`format!("{spec}#r{rep}")`).
    pub fn label(&self) -> String {
        let mut out = String::with_capacity(LABEL_CAPACITY);
        let _ = write!(out, "{self}");
        out
    }

    /// Parse a canonical label back into a spec. This checks the grammar
    /// only; combine with [`ScenarioSpec::validate`] (or use
    /// [`ScenarioSpec::parse`]) to also check the spec against a registry.
    pub fn from_label(label: &str) -> Result<ScenarioSpec, ScenarioError> {
        let bad = |reason: &str| ScenarioError::BadLabel {
            label: label.to_string(),
            reason: reason.to_string(),
        };
        let mut segments = label.split('/');
        let family_s = segments
            .next()
            .filter(|s| !s.is_empty())
            .ok_or_else(|| bad("empty label"))?;
        let family = GraphFamily::from_label(family_s)
            .ok_or_else(|| bad(&format!("unknown graph family '{family_s}'")))?;
        let k_s = segments.next().ok_or_else(|| bad("missing k segment"))?;
        let k: usize = k_s
            .strip_prefix('k')
            .and_then(parse_u64)
            .filter(|&k| k >= 1)
            .ok_or_else(|| bad(&format!("bad k segment '{k_s}'")))? as usize;
        let mut next = segments.next().ok_or_else(|| bad("missing placement"))?;
        let mut occupancy = 1.0;
        if let Some(rest) = next.strip_prefix("occ") {
            occupancy = parse_f64(rest).ok_or_else(|| bad(&format!("bad occupancy '{rest}'")))?;
            if occupancy == 1.0 {
                return Err(bad("occ1.0 must be omitted (canonical form)"));
            }
            next = segments.next().ok_or_else(|| bad("missing placement"))?;
        }
        let placement = Placement::from_label(next)
            .ok_or_else(|| bad(&format!("unknown placement '{next}'")))?;
        let sched_s = segments.next().ok_or_else(|| bad("missing schedule"))?;
        let schedule = Schedule::from_label(sched_s)
            .ok_or_else(|| bad(&format!("unknown schedule '{sched_s}'")))?;
        let mut next = segments.next().ok_or_else(|| bad("missing algorithm"))?;
        let mut dyn_ring = None;
        if let Some(digits) = digits_suffix(next, "dyn-ring") {
            let rate =
                parse_u64(digits).ok_or_else(|| bad(&format!("bad dyn-ring segment '{next}'")))?;
            if rate == 0 {
                return Err(bad("dyn-ring0 is meaningless (omit the segment)"));
            }
            dyn_ring = Some(rate);
            next = segments.next().ok_or_else(|| bad("missing algorithm"))?;
        }
        let mut crashes = 0;
        if let Some(digits) = digits_suffix(next, "crash") {
            let f = parse_u64(digits).ok_or_else(|| bad(&format!("bad crash segment '{next}'")))?;
            if f == 0 {
                return Err(bad("crash0 must be omitted (canonical form)"));
            }
            crashes = f;
            next = segments.next().ok_or_else(|| bad("missing algorithm"))?;
        }
        if is_reserved_label(next) {
            return Err(bad(&format!(
                "misplaced fault segment '{next}' (canonical order: dyn-ring, crash, algorithm)"
            )));
        }
        let algorithm = Some(next)
            .filter(|s| !s.is_empty() && !s.contains('='))
            .ok_or_else(|| bad("missing algorithm"))?
            .to_string();

        let mut params = Params::new();
        let mut min_distance = 1u64;
        let mut limits = Limits::default();
        let mut last_key: Option<String> = None;
        for seg in segments {
            if let Some((key, value)) = seg.split_once('=') {
                if min_distance != 1 || limits != Limits::default() {
                    return Err(bad("params must precede dist/limits"));
                }
                if last_key.as_deref().is_some_and(|prev| prev >= key) {
                    return Err(bad("params must be sorted and unique (canonical form)"));
                }
                let value = ParamValue::parse(value)
                    .ok_or_else(|| bad(&format!("bad value in '{seg}'")))?;
                last_key = Some(key.to_string());
                params = params.set(key, value);
            } else if let Some(digits) = seg.strip_prefix("dist") {
                if min_distance != 1 || limits != Limits::default() {
                    return Err(bad("duplicate or misordered dist segment"));
                }
                let d =
                    parse_u64(digits).ok_or_else(|| bad(&format!("bad dist segment '{seg}'")))?;
                if d < 2 {
                    return Err(bad("dist0/dist1 must be omitted (canonical form)"));
                }
                min_distance = d;
            } else if let Some(digits) = seg.strip_prefix("rounds") {
                if limits.max_rounds.is_some() || limits.max_steps.is_some() {
                    return Err(bad("duplicate or misordered limit segments"));
                }
                limits.max_rounds =
                    Some(parse_u64(digits).ok_or_else(|| bad(&format!("bad limit '{seg}'")))?);
            } else if let Some(digits) = seg.strip_prefix("steps") {
                if limits.max_steps.is_some() {
                    return Err(bad("duplicate steps limit"));
                }
                limits.max_steps =
                    Some(parse_u64(digits).ok_or_else(|| bad(&format!("bad limit '{seg}'")))?);
            } else {
                return Err(bad(&format!("unexpected segment '{seg}'")));
            }
        }
        Ok(ScenarioSpec {
            family,
            k,
            occupancy,
            placement,
            schedule,
            dyn_ring,
            crashes,
            min_distance,
            algorithm,
            params,
            limits,
        })
    }

    /// Parse and validate in one step.
    pub fn parse(label: &str, registry: &Registry) -> Result<ScenarioSpec, ScenarioError> {
        let spec = ScenarioSpec::from_label(label)?;
        spec.validate(registry)?;
        Ok(spec)
    }

    /// Check this spec against a registry: the algorithm exists, the
    /// placement/schedule combination is supported, every parameter is
    /// declared with the right type, and the numbers are sane.
    pub fn validate(&self, registry: &Registry) -> Result<(), ScenarioError> {
        let factory =
            registry
                .get(&self.algorithm)
                .ok_or_else(|| ScenarioError::UnknownAlgorithm {
                    algorithm: self.algorithm.clone(),
                })?;
        if self.k == 0 {
            return Err(ScenarioError::BadSpec {
                reason: "k must be at least 1".into(),
            });
        }
        if !(self.occupancy > 0.0 && self.occupancy <= 1.0) {
            return Err(ScenarioError::BadSpec {
                reason: format!("occupancy {} outside (0, 1]", self.occupancy),
            });
        }
        if !self.placement.is_rooted() && !factory.supports_general() {
            return Err(ScenarioError::PlacementUnsupported {
                algorithm: self.algorithm.clone(),
                placement: self.placement.label(),
            });
        }
        if self.schedule.is_async() && !factory.supports_async() {
            return Err(ScenarioError::ScheduleUnsupported {
                algorithm: self.algorithm.clone(),
                schedule: self.schedule.label(),
            });
        }
        if let Schedule::AsyncRandom { prob, .. } = self.schedule {
            if !(prob > 0.0 && prob <= 1.0) {
                return Err(ScenarioError::BadSpec {
                    reason: format!("activation probability {prob} outside (0, 1]"),
                });
            }
        }
        if let Schedule::AsyncLagging { max_lag, .. } | Schedule::AsyncTargeted { max_lag } =
            self.schedule
        {
            if max_lag == 0 {
                return Err(ScenarioError::BadSpec {
                    reason: "adversary max_lag must be at least 1".into(),
                });
            }
        }
        if self.min_distance == 0 {
            return Err(ScenarioError::BadSpec {
                reason: "min_distance must be at least 1".into(),
            });
        }
        if let Some(rate) = self.dyn_ring {
            if rate == 0 {
                return Err(ScenarioError::BadSpec {
                    reason: "dyn-ring rate must be at least 1".into(),
                });
            }
            // The arXiv 2408.12220 model removes edges from a *ring* —
            // the one family where every single-edge removal leaves the
            // graph connected, so progress is delayed, never made
            // impossible.
            if !matches!(self.family, GraphFamily::Ring) {
                return Err(ScenarioError::BadSpec {
                    reason: format!(
                        "dyn-ring requires the ring family (a ring minus an edge stays \
                         connected); got '{}'",
                        self.family.label()
                    ),
                });
            }
            if !factory.supports_dynamic() {
                return Err(ScenarioError::FaultUnsupported {
                    algorithm: self.algorithm.clone(),
                    fault: "dyn-ring",
                });
            }
        }
        if self.crashes > 0 {
            if self.crashes >= self.k as u64 {
                return Err(ScenarioError::BadSpec {
                    reason: format!(
                        "crash{} leaves no survivor among k = {} agents (need crashes < k)",
                        self.crashes, self.k
                    ),
                });
            }
            if !factory.supports_crash() {
                return Err(ScenarioError::FaultUnsupported {
                    algorithm: self.algorithm.clone(),
                    fault: "crash",
                });
            }
        }
        // Distance-d dispersion needs room: on a ring of n nodes the k
        // settled agents occupy k disjoint arcs of ≥ d nodes each.
        if self.min_distance >= 2 && matches!(self.family, GraphFamily::Ring) {
            let n_target = ((self.k as f64 / self.occupancy).ceil() as usize).max(self.k);
            if (self.k as u64).saturating_mul(self.min_distance) > n_target as u64 {
                return Err(ScenarioError::BadSpec {
                    reason: format!(
                        "distance-{} dispersion of {} agents needs a ring of at least {} \
                         nodes, but the instance has only {}",
                        self.min_distance,
                        self.k,
                        (self.k as u64).saturating_mul(self.min_distance),
                        n_target
                    ),
                });
            }
        }
        let declared = factory.default_params();
        for (key, value) in self.params.iter() {
            let default = declared
                .get(key)
                .ok_or_else(|| ScenarioError::UnknownParam {
                    algorithm: self.algorithm.clone(),
                    key: key.to_string(),
                })?;
            if default.kind() != value.kind() {
                return Err(ScenarioError::BadParam {
                    key: key.to_string(),
                    reason: format!("expected {}, got {}", default.kind(), value.kind()),
                });
            }
        }
        // Hopeless user limits are rejected before any trial runs. This
        // family-level check uses an *upper* bound on Δ (a sound, weaker
        // lower bound on the time needed); the exact check against the
        // realized instance happens again in [`Limits::resolve`].
        if self.placement.is_rooted() {
            let n_target = ((self.k as f64 / self.occupancy).ceil() as usize).max(self.k);
            let mut lower =
                rooted_round_lower_bound(self.k, self.family.max_degree_upper_bound(n_target));
            if self.dyn_ring.is_some() {
                lower = lower.max(dyn_ring_round_lower_bound(self.k, self.min_distance));
            }
            // Only the limit the scheduler actually consults is bounded
            // (SyncRunner reads max_rounds, AsyncRunner max_steps).
            let (key, given) = if self.schedule.is_async() {
                ("steps", self.limits.max_steps)
            } else {
                ("rounds", self.limits.max_rounds)
            };
            if let Some(given) = given {
                if given < lower {
                    return Err(ScenarioError::LimitTooLow {
                        key,
                        given,
                        lower_bound: lower,
                    });
                }
            }
        }
        Ok(())
    }

    /// Materialize the world and protocol of this scenario under `seed`,
    /// with the same sub-seed derivation [`ScenarioSpec::run`] uses. The
    /// invariant and schedule-fuzz harnesses build through this entry point
    /// so their oracles exercise exactly the instances campaigns run.
    pub fn build(
        &self,
        registry: &Registry,
        seed: u64,
    ) -> Result<(World, Box<dyn AgentProtocol>), ScenarioError> {
        self.build_pooled(registry, seed, &mut WorldPool::new())
    }

    /// [`ScenarioSpec::build`] with a [`WorldPool`]: the world is
    /// constructed inside the pool's recycled allocations when it has any.
    /// State-identical to an unpooled build (the pool contract), so pooled
    /// and unpooled runs of the same seed produce the same outcome.
    pub fn build_pooled(
        &self,
        registry: &Registry,
        seed: u64,
        pool: &mut WorldPool,
    ) -> Result<(World, Box<dyn AgentProtocol>), ScenarioError> {
        self.validate(registry)?;
        let factory = registry.get(&self.algorithm).expect("validated");
        let n_target = ((self.k as f64 / self.occupancy).ceil() as usize).max(self.k);
        // Dense structured families come back implicit (O(1) adjacency
        // arithmetic instead of Θ(m) materialized slots) — what lets the
        // `scale` campaign reach n = 10^6 in memory.
        let graph = self
            .family
            .instantiate_topology(n_target, mix(&[seed, SEED_GRAPH]));
        let k = self.k.min(graph.num_nodes());
        let positions = self
            .placement
            .positions(&graph, k, mix(&[seed, SEED_PLACEMENT]));
        let world = pool.take(graph, positions);
        let protocol = factory.build(&world, &self.params, mix(&[seed, SEED_ALGORITHM]));
        Ok((world, protocol))
    }

    /// The seeded adversary driving this scenario's schedule under `seed`
    /// for a `k`-agent world (`None` for SYNC) — pass
    /// `world.num_agents()`; adversaries fix their agent count at
    /// construction. Companion of [`ScenarioSpec::build`].
    pub fn build_adversary(&self, k: usize, seed: u64) -> Option<Box<dyn Adversary>> {
        self.schedule
            .adversary()
            .map(|kind| kind.build(k, mix(&[seed, SEED_ADVERSARY])))
    }

    /// The resolved runner configuration for the realized `world`.
    pub fn run_config(&self, world: &World) -> RunConfig {
        self.limits.resolve_with_faults(
            world.num_agents(),
            world.graph().num_edges(),
            world.graph().max_degree(),
            self.schedule,
            self.dyn_ring,
            self.crashes,
        )
    }

    /// The scenario's fault plans under `seed` for a `k`-agent world:
    /// the dynamic-edge adversary and the crash plan, each `None` when the
    /// spec does not ask for that fault dimension. Crash times are drawn
    /// from a horizon scaled to the instance (`2k` rounds under SYNC, `4k`
    /// steps under ASYNC) so every crash lands while the run is still in
    /// flight. Exposed so out-of-band harnesses can replay exactly the
    /// faults a [`ScenarioSpec::run`] of the same seed injects.
    pub fn build_faults(
        &self,
        k: usize,
        seed: u64,
    ) -> (Option<DynamicAdversary>, Option<CrashPlan>) {
        let dynamics = self.dyn_ring.map(|rate| {
            // Rates above u32::MAX are senseless (no graph has that
            // many edges down at once); saturate rather than panic.
            let rate = u32::try_from(rate).unwrap_or(u32::MAX);
            DynamicAdversary::new(mix(&[seed, SEED_DYNAMICS]), rate)
        });
        let crashes = (self.crashes > 0).then(|| {
            let f = (self.crashes as usize).min(k.saturating_sub(1));
            let horizon = if self.schedule.is_async() {
                (4 * k as u64).max(32)
            } else {
                (2 * k as u64).max(16)
            };
            CrashPlan::new(mix(&[seed, SEED_CRASH]), k, f, horizon)
        });
        (dynamics, crashes)
    }

    /// Drive a prepared world/protocol pair to completion under this
    /// spec's schedule and fault plans for `seed`, reporting to `observer`
    /// (see [`disp_sim::observe`]). The one place a scenario's adversary
    /// and faults meet the runners: harnesses that keep the world after the
    /// run (final positions, every-step checkers) call it on what
    /// [`ScenarioSpec::build`] returned.
    pub fn execute<O: Observer>(
        &self,
        world: &mut World,
        protocol: &mut dyn AgentProtocol,
        seed: u64,
        observer: &mut O,
    ) -> Result<Outcome, RunError> {
        let k = world.num_agents();
        let config = self.run_config(world);
        let adversary = self.build_adversary(k, seed);
        drive(
            world,
            protocol,
            config,
            adversary,
            self.build_faults(k, seed),
            observer,
        )
    }

    /// Execute the scenario under `seed`. The seed fully determines the run:
    /// graph instance, placement, adversary and algorithm-internal
    /// randomness all derive from it through fixed sub-seed tags.
    pub fn run(&self, registry: &Registry, seed: u64) -> Result<ScenarioReport, ScenarioError> {
        self.run_pooled(registry, seed, &mut WorldPool::new())
    }

    /// [`ScenarioSpec::run`] with a [`WorldPool`]: the trial's world is
    /// built from the pool's allocations and returned to it afterwards.
    /// The campaign pipeline drives every trial an engine thread runs
    /// through one pool, so only the first pays the world's allocation
    /// cost. Reports are byte-identical to unpooled runs of the same seed.
    pub fn run_pooled(
        &self,
        registry: &Registry,
        seed: u64,
        pool: &mut WorldPool,
    ) -> Result<ScenarioReport, ScenarioError> {
        self.run_observed(registry, seed, pool, &mut ())
    }

    /// [`ScenarioSpec::run_pooled`] with `observer` watching the run: the
    /// one trial body (build in `pool` → execute → verify, then hand the
    /// world back to the pool). A [`disp_sim::Trace`] collects the Move /
    /// CohortMove / Milestone events up to its cap; a
    /// [`disp_sim::TimelineRecorder`] samples settled/active/parked counts,
    /// the per-role class histogram, cumulative moves and fault-world
    /// gauges at round (SYNC) / epoch (ASYNC) boundaries, decimated into
    /// its budget. Observation does not perturb the run: the report is
    /// byte-identical to an unobserved run of the same seed, and what the
    /// observer saw is a pure function of `(self, seed)` and its settings.
    /// The caller owns the observer, so a run that hits its limit still
    /// leaves the partial trace or timeline in it.
    pub fn run_observed<O: Observer>(
        &self,
        registry: &Registry,
        seed: u64,
        pool: &mut WorldPool,
        observer: &mut O,
    ) -> Result<ScenarioReport, ScenarioError> {
        let (mut world, mut protocol) = self.build_pooled(registry, seed, pool)?;
        let outcome = self.execute(&mut world, protocol.as_mut(), seed, observer);
        let dispersed = outcome.is_ok() && verify::is_dispersed_at(&world, self.min_distance);
        pool.put(world);
        Ok(ScenarioReport {
            scenario: self.label(),
            outcome: outcome?,
            dispersed,
        })
    }
}

/// Bytes [`ScenarioSpec::label`] reserves: room for the labels of the
/// built-in grids plus a trial id's `#rN` suffix.
pub const LABEL_CAPACITY: usize = 64;

/// Writes the canonical label ([`ScenarioSpec::label`]).
impl fmt::Display for ScenarioSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/k{}", self.family, self.k)?;
        if self.occupancy != 1.0 {
            write!(f, "/occ{}", CanonicalF64(self.occupancy))?;
        }
        write!(f, "/{}/{}", self.placement, self.schedule)?;
        if let Some(rate) = self.dyn_ring {
            write!(f, "/dyn-ring{rate}")?;
        }
        if self.crashes > 0 {
            write!(f, "/crash{}", self.crashes)?;
        }
        write!(f, "/{}", self.algorithm)?;
        for (key, value) in self.params.iter() {
            write!(f, "/{key}={value}")?;
        }
        if self.min_distance > 1 {
            write!(f, "/dist{}", self.min_distance)?;
        }
        if let Some(r) = self.limits.max_rounds {
            write!(f, "/rounds{r}")?;
        }
        if let Some(s) = self.limits.max_steps {
            write!(f, "/steps{s}")?;
        }
        Ok(())
    }
}

/// Drive `factory`'s protocol on an explicit graph + position vector —
/// the escape hatch for hand-crafted starts (benches, examples) that the
/// placement families do not cover. Accepts a materialized [`disp_graph::PortGraph`] or
/// an implicit [`Topology`]. Runner limits resolve from the instance
/// ([`Limits::resolve`]). Returns the outcome and whether the final
/// configuration is a valid dispersion.
pub fn run_custom(
    factory: &dyn AlgorithmFactory,
    params: &Params,
    graph: impl Into<Topology>,
    positions: Vec<NodeId>,
    schedule: Schedule,
    limits: Limits,
    seed: u64,
) -> Result<(Outcome, bool), ScenarioError> {
    let graph = graph.into();
    let k = positions.len();
    let config = limits.resolve(k, graph.num_edges(), graph.max_degree(), schedule);
    let adversary = schedule
        .adversary()
        .map(|kind| kind.build(k, mix(&[seed, SEED_ADVERSARY])));
    let mut world = World::new(graph, positions);
    let mut protocol = factory.build(&world, params, mix(&[seed, SEED_ALGORITHM]));
    let outcome = drive(
        &mut world,
        protocol.as_mut(),
        config,
        adversary,
        (None, None),
        &mut (),
    )?;
    Ok((outcome, verify::is_dispersed(&world)))
}

/// Drive `protocol` on `world` to completion: the SYNC runner when there
/// is no adversary, the ASYNC runner under it otherwise, with the fault
/// plans attached. The one place the scenario layer builds a runner.
fn drive<O: Observer>(
    world: &mut World,
    protocol: &mut dyn AgentProtocol,
    config: RunConfig,
    adversary: Option<Box<dyn Adversary>>,
    (dynamics, crashes): (Option<DynamicAdversary>, Option<CrashPlan>),
    observer: &mut O,
) -> Result<Outcome, RunError> {
    match adversary {
        None => {
            let mut runner = SyncRunner::new(config);
            if let Some(d) = dynamics {
                runner = runner.with_dynamics(d);
            }
            if let Some(c) = crashes {
                runner = runner.with_crashes(c);
            }
            runner.run_observed(world, protocol, observer)
        }
        Some(adversary) => {
            let mut runner = AsyncRunner::new(config, adversary);
            if let Some(d) = dynamics {
                runner = runner.with_dynamics(d);
            }
            if let Some(c) = crashes {
                runner = runner.with_crashes(c);
            }
            runner.run_observed(world, protocol, observer)
        }
    }
}

/// Human-readable description of the canonical scenario-label grammar and
/// its vocabulary, as registered in `registry`.
///
/// This is the single source of the grammar help text: the `disp-campaign
/// scenarios` subcommand prints it and `disp-serve` serves it from
/// `GET /scenarios`, so the two entry points can never drift apart.
pub fn grammar_help(registry: &Registry) -> String {
    use disp_sim::Placement;
    use std::fmt::Write as _;
    let mut out = String::new();
    out.push_str("Canonical scenario-label grammar (DESIGN.md §7):\n\n");
    out.push_str("  family/k<K>[/occ<F>]/placement/schedule[/dyn-ring<R>][/crash<F>]\n");
    out.push_str("        /algorithm[/key=value...][/dist<D>][/rounds<N>][/steps<N>]\n\n");
    let families: Vec<String> = GraphFamily::all().iter().map(GraphFamily::label).collect();
    let _ = writeln!(out, "families   : {}", families.join(", "));
    let placements: Vec<String> = Placement::all().iter().map(Placement::label).collect();
    let _ = writeln!(
        out,
        "placements : {} (clusterC for any C ≥ 1)",
        placements.join(", ")
    );
    let schedules = [
        Schedule::Sync,
        Schedule::AsyncRoundRobin,
        Schedule::AsyncRandom { prob: 0.7 },
        Schedule::AsyncLagging { max_lag: 4 },
        Schedule::AsyncTargeted { max_lag: 4 },
    ];
    let schedules: Vec<String> = schedules.iter().map(Schedule::label).collect();
    let _ = writeln!(out, "schedules  : {} (any prob/lag)", schedules.join(", "));
    out.push_str("  async-randP : each active agent activates i.i.d. with prob P per step\n");
    out.push_str("  async-lagL  : per-agent periods redrawn from 1..=L after each activation\n");
    out.push_str("  async-targetL : adaptive starvation — the protocol's victim set (the\n");
    out.push_str("                unsettled agents: DFS driver, cohort, probers) fires only\n");
    out.push_str("                every L-th step; everyone else fires every step\n");
    let _ = writeln!(out, "algorithms : {}", registry.labels().join(", "));
    out.push_str("  dyn-ringR : dynamic-graph adversary — R seeded ring edges removed per\n");
    out.push_str("              round, restored the next round (ring family only; the\n");
    out.push_str("              algorithm must declare dynamic support)\n");
    out.push_str("  crashF    : F agents crash at seeded times (crash-tolerant algorithms\n");
    out.push_str("              only; F < k)\n");
    out.push_str("  distD     : termination requires pairwise settled distance >= D\n");
    out.push_str("              (D >= 2; verified by multi-source BFS on the base graph)\n");
    out.push_str("\nexample    : er6/k64/scatter/async-rand0.7/ks-dfs\n");
    out.push_str("example    : line/k100000/rooted/async-target4/probe-dfs\n");
    out.push_str("example    : ring/k24/rooted/sync/dyn-ring1/probe-dfs\n");
    out.push_str("example    : ring/k16/occ0.5/scatter/sync/crash3/random-walk\n");
    out.push_str("example    : ring/k12/occ0.25/rooted/sync/probe-dfs/dist2\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> Registry {
        Registry::builtin()
    }

    #[test]
    fn grammar_help_covers_the_registered_vocabulary() {
        let help = grammar_help(&reg());
        for needle in [
            "family/k<K>",
            "async-target",
            "ks-dfs, probe-dfs, sync-seeker, random-walk",
            "rooted",
            "scatter",
            "dyn-ring",
            "crash",
            "dist",
        ] {
            assert!(help.contains(needle), "grammar help misses '{needle}'");
        }
    }

    #[test]
    fn canonical_floats_round_trip_and_reject_noncanonical() {
        for v in [0.7, 0.5, 1.0, 0.125, 3.0, 1e-3, 123.456] {
            let s = fmt_f64(v);
            assert!(s.contains('.') || s.contains('e'), "{s}");
            assert_eq!(parse_f64(&s), Some(v), "{s}");
        }
        for bad in ["0.70", ".5", "1", "01.0", "nan", "inf", "1.", ""] {
            assert_eq!(parse_f64(bad), None, "'{bad}' must be rejected");
        }
    }

    #[test]
    fn schedule_labels_round_trip() {
        for sched in [
            Schedule::Sync,
            Schedule::AsyncRoundRobin,
            Schedule::AsyncRandom { prob: 0.7 },
            Schedule::AsyncRandom { prob: 1.0 },
            Schedule::AsyncLagging { max_lag: 4 },
            Schedule::AsyncTargeted { max_lag: 4 },
        ] {
            assert_eq!(Schedule::from_label(&sched.label()), Some(sched));
        }
        assert_eq!(Schedule::Sync.label(), "sync");
        assert_eq!(
            Schedule::AsyncTargeted { max_lag: 6 }.label(),
            "async-target6"
        );
        assert_eq!(Schedule::from_label("async-target0"), None);
        assert_eq!(Schedule::from_label("async-target04"), None);
        assert_eq!(
            Schedule::AsyncRandom { prob: 1.0 }.label(),
            "async-rand1.0",
            "integral probabilities keep their float marker"
        );
        assert_eq!(Schedule::from_label("async-rand0.70"), None);
        assert_eq!(Schedule::from_label("async-rand0.0"), None);
        assert_eq!(Schedule::from_label("async-lag0"), None);
        assert_eq!(Schedule::from_label("async-lag04"), None);
        assert_eq!(Schedule::from_label("nope"), None);
    }

    #[test]
    fn param_values_recover_their_type_from_text() {
        for v in [
            ParamValue::U64(0),
            ParamValue::U64(17),
            ParamValue::F64(0.5),
            ParamValue::F64(2.0),
            ParamValue::Bool(true),
            ParamValue::Bool(false),
        ] {
            assert_eq!(ParamValue::parse(&v.to_string()), Some(v));
        }
        assert_eq!(ParamValue::parse("007"), None, "non-canonical integer");
        assert_eq!(ParamValue::parse(""), None);
    }

    #[test]
    fn labels_are_stable() {
        let spec = ScenarioSpec::new(GraphFamily::RandomTree, 64, "probe-dfs");
        assert_eq!(spec.label(), "rtree/k64/rooted/sync/probe-dfs");
        let spec = ScenarioSpec::new(GraphFamily::ErdosRenyi { avg_degree: 6.0 }, 32, "ks-dfs")
            .with_placement(Placement::Clustered { clusters: 4 })
            .with_schedule(Schedule::AsyncLagging { max_lag: 4 });
        assert_eq!(spec.label(), "er6/k32/cluster4/async-lag4/ks-dfs");
        let spec = ScenarioSpec::new(GraphFamily::Star, 96, "sync-seeker")
            .with_param("wait", ParamValue::U64(6))
            .with_param("probers", ParamValue::U64(32))
            .with_occupancy(0.5)
            .with_limits(Limits {
                max_rounds: Some(10_000),
                max_steps: None,
            });
        assert_eq!(
            spec.label(),
            "star/k96/occ0.5/rooted/sync/sync-seeker/probers=32/wait=6/rounds10000"
        );
        let spec = ScenarioSpec::new(GraphFamily::Ring, 24, "probe-dfs").with_dynamic_ring(1);
        assert_eq!(spec.label(), "ring/k24/rooted/sync/dyn-ring1/probe-dfs");
        let spec = ScenarioSpec::new(GraphFamily::Ring, 16, "random-walk")
            .with_occupancy(0.5)
            .with_placement(Placement::ScatteredUniform)
            .with_crashes(3);
        assert_eq!(
            spec.label(),
            "ring/k16/occ0.5/scatter/sync/crash3/random-walk"
        );
        let spec = ScenarioSpec::new(GraphFamily::Ring, 12, "probe-dfs")
            .with_occupancy(0.25)
            .with_min_distance(2);
        assert_eq!(spec.label(), "ring/k12/occ0.25/rooted/sync/probe-dfs/dist2");
    }

    #[test]
    fn labels_round_trip_to_identical_specs() {
        let specs = [
            ScenarioSpec::new(GraphFamily::RandomTree, 64, "probe-dfs"),
            ScenarioSpec::new(GraphFamily::Grid, 20, "ks-dfs")
                .with_placement(Placement::ScatteredUniform)
                .with_schedule(Schedule::AsyncRandom { prob: 0.7 }),
            ScenarioSpec::new(GraphFamily::Star, 96, "sync-seeker")
                .with_param("wait", ParamValue::U64(6))
                .with_occupancy(0.25)
                .with_limits(Limits {
                    max_rounds: Some(9),
                    max_steps: Some(11),
                }),
            ScenarioSpec::new(GraphFamily::Ring, 24, "probe-dfs")
                .with_dynamic_ring(2)
                .with_crashes(3)
                .with_min_distance(4)
                .with_limits(Limits {
                    max_rounds: Some(100_000),
                    max_steps: None,
                }),
            ScenarioSpec::new(GraphFamily::Ring, 16, "random-walk")
                .with_placement(Placement::ScatteredUniform)
                .with_occupancy(0.5)
                .with_crashes(1),
        ];
        for spec in specs {
            let label = spec.label();
            let back = ScenarioSpec::from_label(&label).unwrap();
            assert_eq!(back, spec);
            assert_eq!(back.label(), label, "label → spec → label is identity");
        }
    }

    #[test]
    fn noncanonical_labels_are_rejected() {
        for label in [
            "",
            "rtree",
            "rtree/k0/rooted/sync/ks-dfs",
            "rtree/64/rooted/sync/ks-dfs",
            "nope/k8/rooted/sync/ks-dfs",
            "rtree/k8/occ1.0/rooted/sync/ks-dfs",
            "rtree/k8/occ0.70/rooted/sync/ks-dfs",
            "rtree/k8/hovering/sync/ks-dfs",
            "rtree/k8/rooted/whenever/ks-dfs",
            "rtree/k8/rooted/sync",
            "rtree/k8/rooted/sync/ks-dfs/b=1/a=1",
            "rtree/k8/rooted/sync/ks-dfs/a=1/a=2",
            "rtree/k8/rooted/sync/ks-dfs/rounds5/a=1",
            "rtree/k8/rooted/sync/ks-dfs/steps5/rounds5",
            "rtree/k8/rooted/sync/ks-dfs/bogus",
            "star/k8/rooted/sync/sync-seeker/wait=1.5.2",
            "rtree/k08/rooted/sync/ks-dfs",
            "rtree/k+8/rooted/sync/ks-dfs",
            "rtree/k8/cluster04/sync/ks-dfs",
            "rtree/k8/rooted/async-lag04/ks-dfs",
            "rtree/k8/rooted/sync/ks-dfs/rounds07",
            "rtree/k8/rooted/sync/ks-dfs/steps+5",
            "ring/k8/rooted/sync/dyn-ring0/probe-dfs",
            "ring/k8/rooted/sync/dyn-ring01/probe-dfs",
            "ring/k8/rooted/sync/crash0/random-walk",
            "ring/k8/rooted/sync/crash01/random-walk",
            "ring/k8/rooted/sync/crash1/dyn-ring1/random-walk",
            "ring/k8/rooted/sync/dyn-ring1/crash1",
            "ring/k8/rooted/sync/probe-dfs/dist0",
            "ring/k8/rooted/sync/probe-dfs/dist1",
            "ring/k8/rooted/sync/probe-dfs/dist02",
            "ring/k8/rooted/sync/probe-dfs/rounds5/dist2",
            "ring/k8/rooted/sync/probe-dfs/dist2/a=1",
        ] {
            let err = ScenarioSpec::from_label(label).unwrap_err();
            assert!(
                matches!(err, ScenarioError::BadLabel { .. }),
                "'{label}' gave {err:?}"
            );
        }
    }

    #[test]
    fn validation_catches_illegal_combinations() {
        let r = reg();
        let unknown = ScenarioSpec::new(GraphFamily::Line, 8, "quantum-dfs");
        assert!(matches!(
            unknown.validate(&r),
            Err(ScenarioError::UnknownAlgorithm { .. })
        ));
        let scattered_probe = ScenarioSpec::new(GraphFamily::Line, 8, "probe-dfs")
            .with_placement(Placement::ScatteredUniform);
        assert!(matches!(
            scattered_probe.validate(&r),
            Err(ScenarioError::PlacementUnsupported { .. })
        ));
        let async_seeker = ScenarioSpec::new(GraphFamily::Line, 8, "sync-seeker")
            .with_schedule(Schedule::AsyncRoundRobin);
        assert!(matches!(
            async_seeker.validate(&r),
            Err(ScenarioError::ScheduleUnsupported { .. })
        ));
        let bad_param = ScenarioSpec::new(GraphFamily::Line, 8, "sync-seeker")
            .with_param("warp", ParamValue::U64(9));
        assert!(matches!(
            bad_param.validate(&r),
            Err(ScenarioError::UnknownParam { .. })
        ));
        let bad_type = ScenarioSpec::new(GraphFamily::Line, 8, "sync-seeker")
            .with_param("wait", ParamValue::F64(1.5));
        assert!(matches!(
            bad_type.validate(&r),
            Err(ScenarioError::BadParam { .. })
        ));
        let bad_occ = ScenarioSpec::new(GraphFamily::Line, 8, "ks-dfs").with_occupancy(1.5);
        assert!(matches!(
            bad_occ.validate(&r),
            Err(ScenarioError::BadSpec { .. })
        ));
        // A cluster1 start is rooted-equivalent, so rooted-only algorithms
        // accept it.
        let cluster1 = ScenarioSpec::new(GraphFamily::Line, 8, "probe-dfs")
            .with_placement(Placement::Clustered { clusters: 1 });
        cluster1.validate(&r).unwrap();
    }

    #[test]
    fn fault_dimensions_validate_against_family_and_capabilities() {
        let r = reg();
        // dyn-ring demands the ring family …
        let dyn_line = ScenarioSpec::new(GraphFamily::Line, 8, "probe-dfs").with_dynamic_ring(1);
        assert!(matches!(
            dyn_line.validate(&r),
            Err(ScenarioError::BadSpec { .. })
        ));
        // … and an algorithm that declares dynamic support.
        let dyn_ks = ScenarioSpec::new(GraphFamily::Ring, 8, "ks-dfs").with_dynamic_ring(1);
        assert!(matches!(
            dyn_ks.validate(&r),
            Err(ScenarioError::FaultUnsupported {
                fault: "dyn-ring",
                ..
            })
        ));
        ScenarioSpec::new(GraphFamily::Ring, 8, "probe-dfs")
            .with_dynamic_ring(1)
            .validate(&r)
            .unwrap();
        // Crashes demand a crash-tolerant algorithm …
        let crash_probe = ScenarioSpec::new(GraphFamily::Ring, 8, "probe-dfs").with_crashes(2);
        assert!(matches!(
            crash_probe.validate(&r),
            Err(ScenarioError::FaultUnsupported { fault: "crash", .. })
        ));
        // … and at least one survivor.
        let all_dead = ScenarioSpec::new(GraphFamily::Ring, 8, "random-walk").with_crashes(8);
        assert!(matches!(
            all_dead.validate(&r),
            Err(ScenarioError::BadSpec { .. })
        ));
        ScenarioSpec::new(GraphFamily::Ring, 8, "random-walk")
            .with_crashes(7)
            .validate(&r)
            .unwrap();
        // Distance-k dispersion must fit on the ring: k·d ≤ n.
        let cramped = ScenarioSpec::new(GraphFamily::Ring, 8, "probe-dfs").with_min_distance(2);
        assert!(matches!(
            cramped.validate(&r),
            Err(ScenarioError::BadSpec { .. })
        ));
        ScenarioSpec::new(GraphFamily::Ring, 8, "probe-dfs")
            .with_min_distance(2)
            .with_occupancy(0.5)
            .validate(&r)
            .unwrap();
        // A user limit below the dynamic-ring frontier bound is typed.
        let tight = ScenarioSpec::new(GraphFamily::Ring, 32, "probe-dfs")
            .with_dynamic_ring(1)
            .with_limits(Limits {
                max_rounds: Some(20),
                max_steps: None,
            });
        match tight.validate(&r) {
            Err(ScenarioError::LimitTooLow {
                key,
                given,
                lower_bound,
            }) => {
                assert_eq!(key, "rounds");
                assert_eq!(given, 20);
                assert_eq!(lower_bound, 31, "(k-1)·max(d,1) = 31 beats ⌈31/2⌉");
            }
            other => panic!("expected LimitTooLow, got {other:?}"),
        }
    }

    #[test]
    fn every_builtin_runs_through_the_scenario_entry_point() {
        let r = reg();
        for algo in r.labels() {
            let spec = ScenarioSpec::new(GraphFamily::RandomTree, 20, algo);
            let report = spec.run(&r, 1).unwrap();
            assert!(report.dispersed, "{algo} must disperse");
            assert!(report.outcome.terminated);
            assert_eq!(report.scenario, spec.label());
        }
    }

    #[test]
    fn async_schedules_work_for_async_capable_algorithms() {
        let r = reg();
        for schedule in [
            Schedule::AsyncRoundRobin,
            Schedule::AsyncRandom { prob: 0.5 },
            Schedule::AsyncLagging { max_lag: 4 },
            Schedule::AsyncTargeted { max_lag: 4 },
        ] {
            for algo in ["ks-dfs", "probe-dfs"] {
                let spec = ScenarioSpec::new(GraphFamily::ErdosRenyi { avg_degree: 6.0 }, 24, algo)
                    .with_schedule(schedule);
                let report = spec.run(&r, 2).unwrap();
                assert!(report.dispersed, "{algo} under {schedule:?}");
                assert!(report.outcome.epochs >= 1);
            }
        }
    }

    #[test]
    fn placement_families_run_through_the_general_algorithm() {
        let r = reg();
        for placement in Placement::all() {
            let spec = ScenarioSpec::new(GraphFamily::Grid, 18, "ks-dfs").with_placement(placement);
            let report = spec.run(&r, 3).unwrap();
            assert!(report.dispersed, "{placement} start must disperse");
        }
    }

    #[test]
    fn runs_are_seed_deterministic_and_seed_sensitive() {
        let r = reg();
        let spec = ScenarioSpec::new(GraphFamily::RandomTree, 24, "ks-dfs")
            .with_placement(Placement::ScatteredUniform)
            .with_schedule(Schedule::AsyncRandom { prob: 0.6 });
        let a = spec.run(&r, 7).unwrap();
        let b = spec.run(&r, 7).unwrap();
        let c = spec.run(&r, 8).unwrap();
        assert_eq!(a.outcome, b.outcome);
        assert_ne!(
            (a.outcome.steps, a.outcome.total_moves),
            (c.outcome.steps, c.outcome.total_moves),
            "different seeds must differ somewhere"
        );
    }

    #[test]
    fn limit_overrides_surface_as_run_errors() {
        let r = reg();
        // Above the trivial lower bound but far below what the run needs:
        // the run starts and is recorded as a faithful limit hit.
        let spec = ScenarioSpec::new(GraphFamily::Line, 32, "probe-dfs").with_limits(Limits {
            max_rounds: Some(20),
            max_steps: Some(20),
        });
        match spec.run(&r, 1) {
            Err(ScenarioError::Run(RunError::LimitExceeded { outcome })) => {
                assert!(!outcome.terminated);
                assert_eq!(outcome.rounds, 20);
            }
            other => panic!("expected LimitExceeded, got {other:?}"),
        }
    }

    #[test]
    fn limits_below_the_trivial_lower_bound_are_typed_errors() {
        let r = reg();
        // 32 rooted agents on a line (Δ = 2) need at least ⌈31/2⌉ = 16
        // rounds to reach 32 distinct nodes; rounds=3 can never suffice.
        let spec = ScenarioSpec::new(GraphFamily::Line, 32, "probe-dfs").with_limits(Limits {
            max_rounds: Some(3),
            max_steps: None,
        });
        match spec.run(&r, 1) {
            Err(ScenarioError::LimitTooLow {
                key,
                given,
                lower_bound,
            }) => {
                assert_eq!(key, "rounds");
                assert_eq!(given, 3);
                assert_eq!(lower_bound, 16);
            }
            other => panic!("expected LimitTooLow, got {other:?}"),
        }
        // Non-rooted placements have no such bound — tiny limits run (and
        // get recorded as limit hits) instead of erroring.
        let scattered = ScenarioSpec::new(GraphFamily::Line, 32, "ks-dfs")
            .with_placement(Placement::ScatteredUniform)
            .with_limits(Limits {
                max_rounds: Some(3),
                max_steps: Some(3),
            });
        assert!(matches!(
            scattered.run(&r, 1),
            Err(ScenarioError::Run(RunError::LimitExceeded { .. }))
        ));
        // The bound only applies to the limit the scheduler consults: a
        // tiny /stepsN on a SYNC run (which never reads max_steps) is fine,
        // as is a tiny /roundsN on an ASYNC run.
        let sync_tiny_steps =
            ScenarioSpec::new(GraphFamily::Line, 32, "probe-dfs").with_limits(Limits {
                max_rounds: None,
                max_steps: Some(3),
            });
        assert!(sync_tiny_steps.run(&r, 1).is_ok(), "sync ignores max_steps");
        let async_tiny_rounds = ScenarioSpec::new(GraphFamily::Line, 32, "probe-dfs")
            .with_schedule(Schedule::AsyncRoundRobin)
            .with_limits(Limits {
                max_rounds: Some(3),
                max_steps: None,
            });
        assert!(
            async_tiny_rounds.run(&r, 1).is_ok(),
            "async ignores max_rounds"
        );
    }

    #[test]
    fn derived_default_limits_scale_with_the_instance() {
        // k = 10^6 on a line: the legacy fixed default (5·10^6 rounds) was
        // near the actual need; the derived budget leaves ample headroom.
        let cfg = Limits::default().resolve(1_000_000, 999_999, 2, Schedule::Sync);
        assert!(cfg.max_rounds > 1_000_000_000, "{}", cfg.max_rounds);
        assert_eq!(cfg.memory_sample_interval, 0, "geometric sampling");
        // Small instances keep dense sampling and a modest budget.
        let cfg = Limits::default().resolve(64, 63, 2, Schedule::Sync);
        assert_eq!(cfg.memory_sample_interval, 4);
        assert!(cfg.max_rounds >= 10_000);
        // Step budgets scale with the adversary's epoch cost.
        let rand = Limits::default().resolve(64, 63, 2, Schedule::AsyncRandom { prob: 0.5 });
        let sync = Limits::default().resolve(64, 63, 2, Schedule::Sync);
        assert!(rand.max_steps > sync.max_steps);
    }

    #[test]
    fn rooted_lower_bound_formula() {
        assert_eq!(rooted_round_lower_bound(1, 2), 0);
        assert_eq!(rooted_round_lower_bound(32, 2), 16, "line ball is 2d+1");
        assert_eq!(rooted_round_lower_bound(4, 3), 1, "1 + 3 ≥ 4");
        assert_eq!(rooted_round_lower_bound(5, 3), 2);
        // Δ = k-1 (star/complete): one hop suffices.
        assert_eq!(rooted_round_lower_bound(64, 63), 1);
    }

    #[test]
    fn sync_seeker_params_reach_the_protocol() {
        let r = reg();
        let default = ScenarioSpec::new(GraphFamily::Star, 48, "sync-seeker");
        let waity = default
            .clone()
            .with_param("wait", ParamValue::U64(6))
            .with_param("probers", ParamValue::U64(2));
        let fast = default.run(&r, 4).unwrap();
        let slow = waity.run(&r, 4).unwrap();
        assert!(fast.dispersed && slow.dispersed);
        assert!(
            slow.outcome.rounds > fast.outcome.rounds,
            "longer waits + capped seekers must cost rounds ({} vs {})",
            slow.outcome.rounds,
            fast.outcome.rounds
        );
    }

    #[test]
    fn registry_is_open_and_guards_duplicates() {
        let r = reg();
        assert_eq!(
            r.labels(),
            vec!["ks-dfs", "probe-dfs", "sync-seeker", "random-walk"]
        );
        assert!(r.get("ks-dfs").is_some());
        assert!(r.get("nope").is_none());
        let result = std::panic::catch_unwind(|| Registry::builtin().with(KsDfsFactory));
        assert!(result.is_err(), "duplicate labels must be rejected");
    }

    #[test]
    fn registry_rejects_reserved_grammar_tokens() {
        struct Impostor;
        impl AlgorithmFactory for Impostor {
            fn label(&self) -> &'static str {
                "crash2"
            }
            fn build(&self, world: &World, _: &Params, seed: u64) -> Box<dyn AgentProtocol> {
                Box::new(KsDfs::with_seed(world, seed))
            }
        }
        let result = std::panic::catch_unwind(|| Registry::empty().with(Impostor));
        assert!(result.is_err(), "'crash2' would shadow the crash token");
        // Non-digit suffixes are fine: 'crash-test' is a legal label shape.
        assert!(!is_reserved_label("crash-test"));
        assert!(!is_reserved_label("crash"));
        assert!(is_reserved_label("dyn-ring12"));
        assert!(is_reserved_label("dist3"));
    }

    #[test]
    fn dynamic_ring_runs_disperse_and_are_deterministic() {
        let r = reg();
        let spec = ScenarioSpec::new(GraphFamily::Ring, 24, "probe-dfs").with_dynamic_ring(1);
        let a = spec.run(&r, 5).unwrap();
        let b = spec.run(&r, 5).unwrap();
        assert!(a.dispersed, "probe-dfs must survive per-round edge churn");
        assert!(a.outcome.terminated);
        assert_eq!(a.outcome, b.outcome, "fault injection is seed-determined");
        // The churn costs rounds relative to the static ring.
        let static_spec = ScenarioSpec::new(GraphFamily::Ring, 24, "probe-dfs");
        let s = static_spec.run(&r, 5).unwrap();
        assert!(
            a.outcome.rounds >= s.outcome.rounds,
            "dynamic ({}) vs static ({})",
            a.outcome.rounds,
            s.outcome.rounds
        );
    }

    #[test]
    fn crash_runs_disperse_the_survivors() {
        let r = reg();
        let spec = ScenarioSpec::new(GraphFamily::Ring, 12, "random-walk")
            .with_occupancy(0.5)
            .with_placement(Placement::ScatteredUniform)
            .with_crashes(3);
        let a = spec.run(&r, 9).unwrap();
        let b = spec.run(&r, 9).unwrap();
        assert!(a.outcome.terminated);
        assert!(a.dispersed, "survivors must still disperse");
        assert_eq!(a.outcome, b.outcome);
    }

    fn recorded(
        spec: &ScenarioSpec,
        r: &Registry,
        seed: u64,
        budget: usize,
    ) -> (ScenarioReport, disp_sim::Timeline) {
        let mut recorder = disp_sim::TimelineRecorder::with_budget(budget);
        let report = spec
            .run_observed(r, seed, &mut WorldPool::new(), &mut recorder)
            .unwrap();
        (report, recorder.finish())
    }

    #[test]
    fn timeline_runs_match_plain_runs_and_sample_role_histograms() {
        let r = reg();
        let labels = [
            "ring/k16/rooted/sync/probe-dfs",
            "ring/k16/rooted/sync/ks-dfs",
            "line/k12/rooted/sync/sync-seeker",
            "ring/k16/rooted/async-lag3/probe-dfs",
            "ring/k16/rooted/sync/random-walk",
            "ring/k32/rooted/sync/crash4/random-walk",
        ];
        for algorithm in r.labels() {
            assert!(
                labels.iter().any(|l| l.ends_with(&format!("/{algorithm}"))),
                "builtin {algorithm} has no timeline case"
            );
        }
        for label in labels {
            let spec = ScenarioSpec::parse(label, &r).unwrap();
            let plain = spec.run(&r, 11).unwrap();
            let (report, tl) = recorded(&spec, &r, 11, 4096);
            assert_eq!(
                plain.outcome, report.outcome,
                "{label}: recording must not change results"
            );
            assert_eq!(plain.dispersed, report.dispersed, "{label}");
            assert!(report.dispersed, "{label}");
            let first = tl.points.first().unwrap();
            let last = tl.points.last().unwrap();
            assert_eq!(first.time, 0, "{label}");
            assert_eq!(
                last.time,
                if matches!(spec.schedule, Schedule::Sync) {
                    report.outcome.rounds
                } else {
                    report.outcome.epochs
                },
                "{label}: final point sits at the end of the run"
            );
            let k = report.outcome.k as u64;
            assert_eq!(
                last.settled,
                k - last.crashed,
                "{label}: every survivor settles by the end"
            );
            assert_eq!(last.moves, report.outcome.total_moves, "{label}");
            // Every point's histogram covers all agents and names a
            // "settled" class that matches the derived settled count.
            for p in &tl.points {
                let total: u64 = p.classes.iter().map(|&(_, c)| c as u64).sum();
                assert_eq!(total + p.crashed, k, "{label} t={}", p.time);
                let settled: u64 = p
                    .classes
                    .iter()
                    .filter(|(n, _)| *n == "settled")
                    .map(|&(_, c)| c as u64)
                    .sum();
                assert_eq!(settled, p.settled, "{label} t={}", p.time);
            }
            // And the whole thing is deterministic.
            let (_, tl2) = recorded(&spec, &r, 11, 4096);
            assert_eq!(tl, tl2, "{label}: timeline is a pure function of the run");
        }
    }

    #[test]
    fn timeline_budget_bounds_points_on_long_runs() {
        let r = reg();
        // A 256-agent rooted line takes hundreds of rounds — enough to
        // force decimation at a budget of 32.
        let spec = ScenarioSpec::parse("line/k256/rooted/sync/probe-dfs", &r).unwrap();
        let (report, tl) = recorded(&spec, &r, 7, 32);
        assert!(report.outcome.rounds > 64, "run long enough to decimate");
        assert!(tl.points.len() <= 33, "{} points", tl.points.len());
        assert!(tl.stride > 1);
        assert!(tl.decimation_level() >= 1);
        assert_eq!(tl.points.first().unwrap().time, 0);
        assert_eq!(tl.points.last().unwrap().time, report.outcome.rounds);
    }

    #[test]
    fn distance_k_scenarios_verify_with_the_stronger_predicate() {
        let r = reg();
        // occ0.25 → ring of 48 nodes for 12 agents: plain probe-dfs packs
        // them contiguously, which can never satisfy dist2 — the report
        // must come back undispersed rather than silently passing.
        let spec = ScenarioSpec::new(GraphFamily::Ring, 12, "probe-dfs")
            .with_occupancy(0.25)
            .with_min_distance(2);
        let report = spec.run(&r, 3).unwrap();
        assert!(report.outcome.terminated);
        assert!(
            !report.dispersed,
            "contiguous settlement cannot be distance-2 dispersed"
        );
    }
}
