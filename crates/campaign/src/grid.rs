//! Campaign descriptions: named grids of experiment points.
//!
//! A [`CampaignSpec`] is pure data — sections of scenario grids
//! (`family × k × placement × schedule × algorithm`, each a canonical
//! [`ScenarioSpec`]) plus a campaign seed. Everything downstream (trial
//! expansion, per-trial seeds, the checkpoint identity of the whole grid)
//! is derived deterministically from the scenarios' canonical labels, which
//! is what makes killed campaigns resumable and `--threads N` output
//! byte-identical — and what lets the manifest rebuild *any* campaign,
//! including ad-hoc `--scenario` grids, without a name lookup.

use disp_analysis::experiment::ExperimentPoint;
use disp_core::scenario::{ScenarioSpec, Schedule};
use disp_graph::generators::GraphFamily;
use disp_rng::{fnv1a, mix};
use disp_sim::Placement;

/// Sweep size preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// CI-sized sweep (4 families, k ≤ 128, 1 repetition).
    Quick,
    /// Paper-sized sweep (all families, k ≤ 512, 3 repetitions).
    Full,
}

impl Mode {
    /// Label used in manifests and CLI flags.
    pub fn label(&self) -> &'static str {
        match self {
            Mode::Quick => "quick",
            Mode::Full => "full",
        }
    }

    /// Inverse of [`Mode::label`].
    pub fn from_label(label: &str) -> Option<Mode> {
        match label {
            "quick" => Some(Mode::Quick),
            "full" => Some(Mode::Full),
            _ => None,
        }
    }
}

/// The k values swept by the harness in quick mode.
pub fn quick_ks() -> Vec<usize> {
    vec![16, 32, 64, 128]
}

/// The k values swept by the harness in full mode.
pub fn full_ks() -> Vec<usize> {
    vec![16, 32, 64, 128, 256, 512]
}

/// Build the sweep points for one campaign section: the cross product of
/// families × ks × algorithms at one placement and schedule.
pub fn section_points(
    families: &[GraphFamily],
    ks: &[usize],
    algorithms: &[&str],
    placement: Placement,
    schedule: Schedule,
    repetitions: usize,
) -> Vec<ExperimentPoint> {
    let mut points = Vec::new();
    for &family in families {
        for &k in ks {
            for algorithm in algorithms {
                points.push(ExperimentPoint::new(
                    ScenarioSpec::new(family, k, algorithm)
                        .with_placement(placement)
                        .with_schedule(schedule),
                    repetitions,
                ));
            }
        }
    }
    points
}

/// A named group of points reported as one table/CSV.
#[derive(Debug, Clone)]
pub struct Section {
    /// Section name (stable; used in report headings and CSV file names).
    pub name: String,
    /// Human description for report headings.
    pub title: String,
    /// The grid of this section.
    pub points: Vec<ExperimentPoint>,
}

impl Section {
    /// Build a section from static grid data.
    pub fn new(name: &str, title: &str, points: Vec<ExperimentPoint>) -> Section {
        Section {
            name: name.to_string(),
            title: title.to_string(),
            points,
        }
    }
}

/// One expanded unit of work: a `(point, repetition)` pair with its derived
/// seed.
#[derive(Debug, Clone)]
pub struct TrialSpec {
    /// Index of the owning section within the campaign.
    pub section: usize,
    /// The experiment point.
    pub point: ExperimentPoint,
    /// Repetition index.
    pub rep: usize,
    /// The derived per-trial seed (see [`trial_seed`]).
    pub seed: u64,
}

impl TrialSpec {
    /// The checkpoint identity of this trial: the scenario's canonical
    /// label plus the repetition index.
    pub fn trial_id(&self) -> String {
        self.point.trial_id(self.rep)
    }
}

/// A slot's names as the trial pipeline renders them once and lends them
/// to every use: the store lookup, the dedup key and the slot's events.
#[derive(Debug, Clone, Copy)]
pub struct SlotId<'a> {
    /// The trial id, `label#rN`.
    pub id: &'a str,
    /// The canonical scenario label, a prefix of `id`.
    pub label: &'a str,
    /// The repetition index.
    pub rep: usize,
}

impl<'a> SlotId<'a> {
    /// Name a slot by its rendered trial id `label#rN`.
    pub fn of(id: &'a str, rep: usize) -> SlotId<'a> {
        // The last `#` is the one the rep suffix put there.
        let label = id.rsplit_once('#').map_or(id, |(label, _)| label);
        SlotId { id, label, rep }
    }
}

/// Derive the seed of one trial from the campaign seed, the scenario's
/// canonical label and the repetition index.
///
/// The derivation goes through the *canonical label* (not the point's
/// position in the grid), so inserting or reordering points in a campaign
/// never changes the seeds — and therefore the results — of the points that
/// stayed.
pub fn trial_seed(campaign_seed: u64, point: &ExperimentPoint, rep: usize) -> u64 {
    seed_of(campaign_seed, fnv1a(point.point_id().as_bytes()), rep)
}

/// [`trial_seed`] from the FNV-1a digest of the point's label.
fn seed_of(campaign_seed: u64, label_digest: u64, rep: usize) -> u64 {
    mix(&[campaign_seed, label_digest, rep as u64])
}

/// A complete, named campaign description.
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Campaign name (`table1`, `figures`, …, or `custom` for `--scenario`
    /// grids); recorded in manifests.
    pub name: String,
    /// Sweep size preset.
    pub mode: Mode,
    /// The campaign seed all trial seeds derive from.
    pub seed: u64,
    /// Report sections.
    pub sections: Vec<Section>,
}

impl CampaignSpec {
    /// The Table-1 campaign: SYNC rooted rows + ASYNC rooted rows.
    pub fn table1(mode: Mode, seed: u64) -> CampaignSpec {
        let (families, ks, reps) = preset(mode);
        CampaignSpec {
            name: "table1".into(),
            mode,
            seed,
            sections: vec![
                Section::new(
                    "sync-rooted",
                    "SYNC, rooted configurations (rounds)",
                    section_points(
                        &families,
                        &ks,
                        &["ks-dfs", "probe-dfs", "sync-seeker"],
                        Placement::Rooted,
                        Schedule::Sync,
                        reps,
                    ),
                ),
                Section::new(
                    "async-rooted",
                    "ASYNC, rooted configurations (epochs, random-subset adversary)",
                    section_points(
                        &families,
                        &ks,
                        &["ks-dfs", "probe-dfs"],
                        Placement::Rooted,
                        Schedule::AsyncRandom { prob: 0.7 },
                        reps,
                    ),
                ),
            ],
        }
    }

    /// The figure-series campaign: the scaling series an experimental
    /// evaluation of the paper's claims would plot.
    pub fn figures(mode: Mode, seed: u64) -> CampaignSpec {
        let (families, ks, reps) = preset(mode);
        CampaignSpec {
            name: "figures".into(),
            mode,
            seed,
            sections: vec![
                Section::new(
                    "fig_sync_rooted",
                    "time vs k, SYNC rooted",
                    section_points(
                        &families,
                        &ks,
                        &["ks-dfs", "probe-dfs", "sync-seeker"],
                        Placement::Rooted,
                        Schedule::Sync,
                        reps,
                    ),
                ),
                Section::new(
                    "fig_async_rooted",
                    "time vs k, ASYNC rooted (random-subset adversary)",
                    section_points(
                        &families,
                        &ks,
                        &["ks-dfs", "probe-dfs"],
                        Placement::Rooted,
                        Schedule::AsyncRandom { prob: 0.7 },
                        reps,
                    ),
                ),
                Section::new(
                    "fig_async_lagging",
                    "time vs k, ASYNC rooted (lagging adversary)",
                    section_points(
                        &families,
                        &ks,
                        &["ks-dfs", "probe-dfs"],
                        Placement::Rooted,
                        Schedule::AsyncLagging { max_lag: 4 },
                        reps,
                    ),
                ),
            ],
        }
    }

    /// The placement campaign: genuinely non-rooted scenario classes
    /// (scattered-uniform, clustered, adversarial-spread starts) under all
    /// three schedule families, on the general-configuration algorithm.
    pub fn placements(mode: Mode, seed: u64) -> CampaignSpec {
        let (families, ks, reps) = preset(mode);
        let placements = [
            Placement::ScatteredUniform,
            Placement::Clustered { clusters: 4 },
            Placement::AdversarialSpread,
        ];
        let schedules: [(&str, &str, Schedule); 3] = [
            ("placements-sync", "SYNC (rounds)", Schedule::Sync),
            (
                "placements-async-rand",
                "ASYNC, random-subset adversary (epochs)",
                Schedule::AsyncRandom { prob: 0.7 },
            ),
            (
                "placements-async-lag",
                "ASYNC, lagging adversary (epochs)",
                Schedule::AsyncLagging { max_lag: 4 },
            ),
        ];
        let sections = schedules
            .into_iter()
            .map(|(name, sched_title, schedule)| {
                let mut points = Vec::new();
                for placement in placements {
                    // Half occupancy: at k = n every scattered/spread start
                    // is one agent per node and dispersion is trivial; with
                    // n ≈ 2k the placements actually have work to do.
                    points.extend(
                        section_points(&families, &ks, &["ks-dfs"], placement, schedule, reps)
                            .into_iter()
                            .map(|mut p| {
                                p.scenario = p.scenario.with_occupancy(0.5);
                                p
                            }),
                    );
                }
                Section::new(
                    name,
                    &format!("Non-rooted placements, {sched_title}"),
                    points,
                )
            })
            .collect();
        CampaignSpec {
            name: "placements".into(),
            mode,
            seed,
            sections,
        }
    }

    /// A deliberately small campaign for smoke tests and kill/resume demos:
    /// covers both schedulers and all three algorithms in a few seconds.
    pub fn mini(mode: Mode, seed: u64) -> CampaignSpec {
        let ks: Vec<usize> = match mode {
            Mode::Quick => vec![12, 24],
            Mode::Full => vec![12, 24, 48],
        };
        let families = [GraphFamily::Star, GraphFamily::RandomTree];
        CampaignSpec {
            name: "mini".into(),
            mode,
            seed,
            sections: vec![
                Section::new(
                    "mini-sync",
                    "mini smoke sweep, SYNC (rounds)",
                    section_points(
                        &families,
                        &ks,
                        &["ks-dfs", "probe-dfs", "sync-seeker"],
                        Placement::Rooted,
                        Schedule::Sync,
                        2,
                    ),
                ),
                Section::new(
                    "mini-async",
                    "mini smoke sweep, ASYNC (epochs)",
                    section_points(
                        &families,
                        &ks,
                        &["ks-dfs", "probe-dfs"],
                        Placement::Rooted,
                        Schedule::AsyncRandom { prob: 0.7 },
                        2,
                    ),
                ),
            ],
        }
    }

    /// The million-node scale campaign: the flat-state engine's showcase.
    ///
    /// Rooted SYNC `probe-dfs` on the four structured families the engine
    /// handles at scale — line, ring, torus (implicit), hypercube (implicit)
    /// — at `n ∈ {10^4, 10^5, 10^6}` with `k = n` and `k = n/4`
    /// (`occ0.25`). Hypercube sizes are the realized powers of two. All 24
    /// quick-mode trials complete in well under a minute single-threaded
    /// (the `n = 10^6` line trial alone is ~1.3 s / 143 MB RSS); `complete`
    /// is deliberately absent — `probe-dfs` pays `Θ(k²)` *moves* there, so
    /// no faithful sequential simulation finishes at `k = 10^6`.
    ///
    /// Full mode adds repetitions, the `ks-dfs` scan baseline at `n = 10^4`,
    /// the full ASYNC `async-lag4` grid up to `n = 10^6` on all four
    /// families, the adaptive `async-target4` starvation grid, and an
    /// `async-rr` control at `n = 10^4`. ASYNC at `n = 10^6` is what the
    /// event-driven adversaries (PR 4) bought: schedule generation is
    /// O(active) per step, so the `async-lag` line trial lands within the
    /// same order of magnitude as its SYNC counterpart (seconds, not
    /// hours); quick mode carries an `n = 10^5` async-lag smoke that CI
    /// checks for `--threads 1` vs `4` byte-identity.
    pub fn scale(mode: Mode, seed: u64) -> CampaignSpec {
        let families: [(GraphFamily, [usize; 3]); 4] = [
            (GraphFamily::Line, [10_000, 100_000, 1_000_000]),
            (GraphFamily::Ring, [10_000, 100_000, 1_000_000]),
            (GraphFamily::Torus, [10_000, 100_000, 1_000_000]),
            (GraphFamily::Hypercube, [16_384, 131_072, 1_048_576]),
        ];
        let reps = match mode {
            Mode::Quick => 1,
            Mode::Full => 2,
        };
        let grid = |occupancy: f64, divisor: usize, schedule: Schedule| -> Vec<ExperimentPoint> {
            families
                .iter()
                .flat_map(|&(family, ks)| {
                    ks.into_iter().map(move |k| {
                        let mut spec = ScenarioSpec::new(family, k / divisor, "probe-dfs")
                            .with_schedule(schedule);
                        if occupancy != 1.0 {
                            spec = spec.with_occupancy(occupancy);
                        }
                        ExperimentPoint::new(spec, reps)
                    })
                })
                .collect()
        };
        let lag = Schedule::AsyncLagging { max_lag: 4 };
        let mut sections = vec![
            Section::new(
                "scale-sync-full",
                "SYNC rooted probe-dfs, k = n (rounds)",
                grid(1.0, 1, Schedule::Sync),
            ),
            Section::new(
                "scale-sync-quarter",
                "SYNC rooted probe-dfs, k = n/4 (rounds)",
                grid(0.25, 4, Schedule::Sync),
            ),
        ];
        match mode {
            Mode::Quick => {
                // The async smoke CI leans on: small enough to stay cheap,
                // big enough (n = 10^5) to exercise the timer wheel and the
                // bulk epoch crediting for real.
                sections.push(Section::new(
                    "scale-async-lag",
                    "ASYNC lagging (max_lag 4) probe-dfs at n = 10^5 (epochs)",
                    section_points(
                        &[GraphFamily::Line, GraphFamily::Ring],
                        &[100_000],
                        &["probe-dfs"],
                        Placement::Rooted,
                        lag,
                        reps,
                    ),
                ));
            }
            Mode::Full => {
                let small: Vec<GraphFamily> = families.iter().map(|&(f, _)| f).collect();
                sections.push(Section::new(
                    "scale-baseline",
                    "SYNC rooted ks-dfs scan baseline at n = 10^4 (rounds)",
                    section_points(
                        &small,
                        &[10_000],
                        &["ks-dfs"],
                        Placement::Rooted,
                        Schedule::Sync,
                        reps,
                    ),
                ));
                sections.push(Section::new(
                    "scale-async-lag",
                    "ASYNC lagging (max_lag 4) probe-dfs, k = n up to 10^6 (epochs)",
                    grid(1.0, 1, lag),
                ));
                sections.push(Section::new(
                    "scale-async-target",
                    "ASYNC targeted starvation (max_lag 4) probe-dfs at n ≤ 10^5 (epochs)",
                    section_points(
                        &small,
                        &[10_000, 100_000],
                        &["probe-dfs"],
                        Placement::Rooted,
                        Schedule::AsyncTargeted { max_lag: 4 },
                        reps,
                    ),
                ));
                sections.push(Section::new(
                    "scale-async-rr",
                    "ASYNC round-robin probe-dfs at n = 10^4 (epochs)",
                    section_points(
                        &small,
                        &[10_000],
                        &["probe-dfs"],
                        Placement::Rooted,
                        Schedule::AsyncRoundRobin,
                        reps,
                    ),
                ));
            }
        }
        CampaignSpec {
            name: "scale".into(),
            mode,
            seed,
            sections,
        }
    }

    /// The fault-worlds campaign: rings under the dynamic edge adversary
    /// (one edge down per round, restored the next — the arXiv 2408.12220
    /// model), crash-fault plans that orphan settled nodes, and both at
    /// once. Ring-only by construction: the dynamic adversary is defined
    /// on rings, and crashes go to `random-walk`, the crash-tolerant
    /// algorithm. Like every campaign it is seed-deterministic, so CI
    /// byte-compares a quick run at `--threads 1` against `--threads 4`.
    pub fn fault_worlds(mode: Mode, seed: u64) -> CampaignSpec {
        let ks: Vec<usize> = match mode {
            Mode::Quick => vec![16, 32, 64],
            Mode::Full => vec![16, 32, 64, 128],
        };
        let reps = match mode {
            Mode::Quick => 1,
            Mode::Full => 3,
        };
        // A fixed fault fraction: k/8 crashes, at least one.
        let crashes_for = |k: usize| (k as u64 / 8).max(1);
        let lag = Schedule::AsyncLagging { max_lag: 4 };
        let dyn_section = |name: &str, title: &str, schedule: Schedule| {
            Section::new(
                name,
                title,
                ks.iter()
                    .flat_map(|&k| {
                        ["probe-dfs", "random-walk"].into_iter().map(move |alg| {
                            ExperimentPoint::new(
                                ScenarioSpec::new(GraphFamily::Ring, k, alg)
                                    .with_occupancy(0.5)
                                    .with_schedule(schedule)
                                    .with_dynamic_ring(1),
                                reps,
                            )
                        })
                    })
                    .collect(),
            )
        };
        let crash_section = |name: &str, title: &str, schedule: Schedule| {
            Section::new(
                name,
                title,
                ks.iter()
                    .map(|&k| {
                        ExperimentPoint::new(
                            ScenarioSpec::new(GraphFamily::Ring, k, "random-walk")
                                .with_occupancy(0.5)
                                .with_placement(Placement::ScatteredUniform)
                                .with_schedule(schedule)
                                .with_crashes(crashes_for(k)),
                            reps,
                        )
                    })
                    .collect(),
            )
        };
        let combined = Section::new(
            "churn-crash",
            "Edge churn and crash faults at once, SYNC (rounds)",
            ks.iter()
                .map(|&k| {
                    ExperimentPoint::new(
                        ScenarioSpec::new(GraphFamily::Ring, k, "random-walk")
                            .with_occupancy(0.5)
                            .with_dynamic_ring(1)
                            .with_crashes(crashes_for(k)),
                        reps,
                    )
                })
                .collect(),
        );
        CampaignSpec {
            name: "fault-worlds".into(),
            mode,
            seed,
            sections: vec![
                dyn_section(
                    "dyn-ring-sync",
                    "Dynamic ring, one edge down per round, SYNC (rounds)",
                    Schedule::Sync,
                ),
                dyn_section(
                    "dyn-ring-async-lag",
                    "Dynamic ring, one edge down per epoch, ASYNC lagging (epochs)",
                    lag,
                ),
                crash_section(
                    "crash-sync",
                    "Crash faults, scattered starts, SYNC (rounds)",
                    Schedule::Sync,
                ),
                crash_section(
                    "crash-async-lag",
                    "Crash faults, scattered starts, ASYNC lagging (epochs)",
                    lag,
                ),
                combined,
            ],
        }
    }

    /// An ad-hoc campaign from explicit scenarios (the CLI's `--scenario`
    /// path): one section, `reps` repetitions per scenario.
    pub fn custom(scenarios: Vec<ScenarioSpec>, reps: usize, seed: u64) -> CampaignSpec {
        CampaignSpec {
            name: "custom".into(),
            mode: Mode::Quick,
            seed,
            sections: vec![Section::new(
                "custom",
                "ad-hoc scenario grid",
                scenarios
                    .into_iter()
                    .map(|s| ExperimentPoint::new(s, reps.max(1)))
                    .collect(),
            )],
        }
    }

    /// Resolve a named campaign.
    pub fn by_name(name: &str, mode: Mode, seed: u64) -> Option<CampaignSpec> {
        match name {
            "table1" => Some(CampaignSpec::table1(mode, seed)),
            "figures" => Some(CampaignSpec::figures(mode, seed)),
            "placements" => Some(CampaignSpec::placements(mode, seed)),
            "scale" => Some(CampaignSpec::scale(mode, seed)),
            "fault-worlds" => Some(CampaignSpec::fault_worlds(mode, seed)),
            "mini" => Some(CampaignSpec::mini(mode, seed)),
            _ => None,
        }
    }

    /// Keep only the named sections (used by `--section`); unknown names
    /// yield an empty campaign, which the CLI reports as an error.
    pub fn with_sections(mut self, names: &[&str]) -> CampaignSpec {
        self.sections.retain(|s| names.contains(&s.name.as_str()));
        self
    }

    /// Expand the grid into trials, in deterministic grid order, with
    /// derived seeds.
    pub fn trials(&self) -> Vec<TrialSpec> {
        let mut out = Vec::with_capacity(self.slot_count());
        for (si, section) in self.sections.iter().enumerate() {
            for point in &section.points {
                let label = fnv1a(point.point_id().as_bytes());
                for rep in 0..point.repetitions.max(1) {
                    out.push(TrialSpec {
                        section: si,
                        point: point.clone(),
                        rep,
                        seed: seed_of(self.seed, label, rep),
                    });
                }
            }
        }
        out
    }

    /// The number of slots [`CampaignSpec::trials`] expands to, counted
    /// without expanding the grid (saturating, so a hostile grid cannot
    /// overflow the count).
    pub fn slot_count(&self) -> usize {
        self.sections
            .iter()
            .flat_map(|s| &s.points)
            .map(|p| p.repetitions.max(1))
            .fold(0, usize::saturating_add)
    }

    /// A stable fingerprint of the expanded grid + campaign seed, recorded
    /// in the manifest so `resume` can refuse a mismatched output
    /// directory. Derives purely from the scenarios' canonical labels (via
    /// the trial ids), never from in-memory representation details.
    pub fn grid_hash(&self) -> u64 {
        let ids: Vec<u64> = self
            .trials()
            .iter()
            .map(|t| fnv1a(t.trial_id().as_bytes()))
            .collect();
        let mut words = vec![self.seed];
        words.extend(ids);
        mix(&words)
    }
}

fn preset(mode: Mode) -> (Vec<GraphFamily>, Vec<usize>, usize) {
    match mode {
        Mode::Quick => (GraphFamily::quick(), quick_ks(), 1),
        Mode::Full => (GraphFamily::all(), full_ks(), 3),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disp_core::scenario::Registry;

    #[test]
    fn section_points_cover_the_grid() {
        let pts = section_points(
            &[GraphFamily::Line, GraphFamily::Star],
            &[16, 32],
            &["ks-dfs", "probe-dfs"],
            Placement::Rooted,
            Schedule::Sync,
            1,
        );
        assert_eq!(pts.len(), 2 * 2 * 2);
    }

    #[test]
    fn quick_ks_is_a_prefix_of_full_ks() {
        let quick = quick_ks();
        let full = full_ks();
        assert_eq!(&full[..quick.len()], &quick[..]);
    }

    #[test]
    fn trial_seeds_are_stable_and_distinct() {
        let spec = CampaignSpec::table1(Mode::Quick, 42);
        let a = spec.trials();
        let b = spec.trials();
        assert_eq!(a.len(), b.len());
        let mut seeds: Vec<u64> = a.iter().map(|t| t.seed).collect();
        assert_eq!(seeds, b.iter().map(|t| t.seed).collect::<Vec<_>>());
        seeds.sort_unstable();
        seeds.dedup();
        assert_eq!(seeds.len(), a.len(), "trial seeds must not collide");
    }

    #[test]
    fn trial_seeds_do_not_depend_on_grid_position() {
        let spec = CampaignSpec::table1(Mode::Quick, 42);
        let trials = spec.trials();
        for t in &trials {
            assert_eq!(t.seed, trial_seed(42, &t.point, t.rep));
        }
        // A different campaign seed moves every trial seed.
        let other = CampaignSpec::table1(Mode::Quick, 43).trials();
        assert!(trials.iter().zip(&other).all(|(a, b)| a.seed != b.seed));
    }

    #[test]
    fn grid_hash_detects_mode_seed_and_section_changes() {
        let base = CampaignSpec::table1(Mode::Quick, 1).grid_hash();
        assert_eq!(base, CampaignSpec::table1(Mode::Quick, 1).grid_hash());
        assert_ne!(base, CampaignSpec::table1(Mode::Quick, 2).grid_hash());
        assert_ne!(base, CampaignSpec::table1(Mode::Full, 1).grid_hash());
        assert_ne!(
            base,
            CampaignSpec::table1(Mode::Quick, 1)
                .with_sections(&["sync-rooted"])
                .grid_hash()
        );
        assert_ne!(base, CampaignSpec::figures(Mode::Quick, 1).grid_hash());
        assert_ne!(base, CampaignSpec::placements(Mode::Quick, 1).grid_hash());
    }

    #[test]
    fn by_name_round_trips() {
        for name in [
            "table1",
            "figures",
            "placements",
            "scale",
            "fault-worlds",
            "mini",
        ] {
            let spec = CampaignSpec::by_name(name, Mode::Quick, 7).unwrap();
            assert_eq!(spec.name, name);
        }
        assert!(CampaignSpec::by_name("nope", Mode::Quick, 7).is_none());
    }

    #[test]
    fn every_named_campaign_validates_against_the_builtin_registry() {
        let reg = Registry::builtin();
        for name in [
            "table1",
            "figures",
            "placements",
            "scale",
            "fault-worlds",
            "mini",
        ] {
            let spec = CampaignSpec::by_name(name, Mode::Full, 7).unwrap();
            for trial in spec.trials() {
                trial
                    .point
                    .scenario
                    .validate(&reg)
                    .unwrap_or_else(|e| panic!("{name}: {e}"));
            }
        }
    }

    #[test]
    fn placements_campaign_covers_new_scenario_classes_under_all_schedules() {
        let spec = CampaignSpec::placements(Mode::Quick, 1);
        assert_eq!(spec.sections.len(), 3, "one section per schedule family");
        for section in &spec.sections {
            let labels: Vec<String> = section.points.iter().map(|p| p.point_id()).collect();
            for placement in ["scatter", "cluster4", "spread"] {
                assert!(
                    labels.iter().any(|l| l.contains(&format!("/{placement}/"))),
                    "{} misses {placement}",
                    section.name
                );
            }
        }
    }

    #[test]
    fn scale_campaign_carries_the_async_sections() {
        let quick = CampaignSpec::scale(Mode::Quick, 1);
        let quick_labels: Vec<String> = quick.trials().iter().map(|t| t.point.point_id()).collect();
        assert!(
            quick_labels
                .iter()
                .any(|l| l == "line/k100000/rooted/async-lag4/probe-dfs"),
            "quick mode misses the async smoke line: {quick_labels:?}"
        );
        let full = CampaignSpec::scale(Mode::Full, 1);
        let full_labels: Vec<String> = full.trials().iter().map(|t| t.point.point_id()).collect();
        // The paper's adversarial regime at the engine's full scale: every
        // structured family at n = 10^6 under the lagging adversary, plus
        // the adaptive starvation grid.
        for expected in [
            "line/k1000000/rooted/async-lag4/probe-dfs",
            "ring/k1000000/rooted/async-lag4/probe-dfs",
            "torus/k1000000/rooted/async-lag4/probe-dfs",
            "hypercube/k1048576/rooted/async-lag4/probe-dfs",
            "line/k100000/rooted/async-target4/probe-dfs",
        ] {
            assert!(
                full_labels.iter().any(|l| l == expected),
                "full mode misses {expected}"
            );
        }
    }

    #[test]
    fn fault_worlds_campaign_covers_every_fault_dimension() {
        let spec = CampaignSpec::fault_worlds(Mode::Quick, 1);
        assert_eq!(spec.sections.len(), 5);
        let labels: Vec<String> = spec.trials().iter().map(|t| t.point.point_id()).collect();
        for expected in [
            "ring/k64/occ0.5/rooted/sync/dyn-ring1/probe-dfs",
            "ring/k64/occ0.5/rooted/async-lag4/dyn-ring1/random-walk",
            "ring/k64/occ0.5/scatter/sync/crash8/random-walk",
            "ring/k64/occ0.5/scatter/async-lag4/crash8/random-walk",
            "ring/k64/occ0.5/rooted/sync/dyn-ring1/crash8/random-walk",
        ] {
            assert!(
                labels.iter().any(|l| l == expected),
                "fault-worlds misses {expected}: {labels:?}"
            );
        }
    }

    #[test]
    fn custom_campaigns_expand_like_named_ones() {
        let scenarios = vec![
            ScenarioSpec::new(GraphFamily::Star, 8, "probe-dfs"),
            ScenarioSpec::new(GraphFamily::Line, 8, "ks-dfs")
                .with_placement(Placement::ScatteredUniform),
        ];
        let spec = CampaignSpec::custom(scenarios, 2, 5);
        assert_eq!(spec.trials().len(), 4);
        assert_eq!(spec.name, "custom");
        // Seeds still derive from labels, not positions.
        for t in spec.trials() {
            assert_eq!(t.seed, trial_seed(5, &t.point, t.rep));
        }
    }

    #[test]
    fn mode_labels_round_trip() {
        for mode in [Mode::Quick, Mode::Full] {
            assert_eq!(Mode::from_label(mode.label()), Some(mode));
        }
        assert_eq!(Mode::from_label("medium"), None);
    }
}
