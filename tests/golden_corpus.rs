//! The golden corpus, `tests/golden/corpus.digest`: one trial a line,
//! `<label>#r<rep> seed=<hex>`, then digests of its record line, its final
//! positions and its event stream (and, in the `observe` section, of the
//! exporters' bytes). Each `# section` is one test, which reruns its lines
//! and names every line that differs; `record_corpus` re-records them.
//! `tests/golden/README.md` says how each digest is made and when
//! re-recording is right.

use disp_campaign::telemetry::{timeline_to_jsonl, trace_to_jsonl};
use disp_rng::fnv1a;
use dispersion::analysis::{ExperimentPoint, TrialRecord};
use dispersion::core::extras::spacer::SpacerFactory;
use dispersion::core::scenario::{Registry, ScenarioSpec};
use dispersion::core::verify::is_dispersed_at;
use dispersion::sim::{
    Observer, RunError, TimelineRecorder, Trace, TraceEvent, WorldPool, DEFAULT_TIMELINE_BUDGET,
};
use std::fmt::Write as _;

/// The section whose lines also pin the trace and timeline exporters.
const OBSERVE: &str = "observe";

fn corpus_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/corpus.digest")
}

fn corpus() -> String {
    std::fs::read_to_string(corpus_path()).expect("tests/golden/corpus.digest")
}

/// The corpus as (section, line) pairs, in file order.
fn corpus_lines(text: &str) -> Vec<(&str, &str)> {
    let mut section = "";
    let mut lines = Vec::new();
    for line in text.lines().filter(|l| !l.trim().is_empty()) {
        match line.strip_prefix("# ") {
            Some(name) => section = name.trim(),
            None => lines.push((section, line)),
        }
    }
    lines
}

/// Counts a run's events and folds each one's variant and fields, one
/// 64-bit word at a time, with FNV-1a's xor-multiply step.
struct EventFold {
    events: u64,
    hash: u64,
}

impl EventFold {
    fn fold(&mut self, variant: u64, fields: &[u32], time: u64) {
        self.events += 1;
        self.mix(variant);
        for &field in fields {
            self.mix(field.into());
        }
        self.mix(time);
    }

    fn mix(&mut self, word: u64) {
        self.hash = (self.hash ^ word).wrapping_mul(0x0000_0100_0000_01B3);
    }
}

impl Observer for EventFold {
    fn event(&mut self, event: TraceEvent) {
        match event {
            TraceEvent::Move {
                agent,
                from,
                to,
                port,
                pin,
                time,
            } => self.fold(0, &[agent.0, from.0, to.0, port.0, pin.0], time),
            TraceEvent::CohortMove {
                driver,
                from,
                to,
                port,
                members,
                time,
            } => self.fold(1, &[driver.0, from.0, to.0, port.0, members], time),
            TraceEvent::Milestone {
                agent,
                node,
                code,
                time,
            } => self.fold(2, &[agent.0, node.0, code], time),
        }
    }
}

/// The `<label>#r<rep> seed=<hex>` a corpus line starts with.
fn trial_id(line: &str) -> Option<(&str, usize, u64)> {
    let (id, rest) = line.split_once(" seed=")?;
    let (label, rep) = id.rsplit_once("#r")?;
    let seed = u64::from_str_radix(rest.split(' ').next()?, 16).ok()?;
    Some((label, rep.parse().ok()?, seed))
}

/// Rerun the trial `line` names and write its line under the current
/// code. A limit-exceeded run is recorded as `run_trial` records it.
fn digest_line(line: &str, registry: &Registry, observe: bool) -> String {
    let (label, rep, seed) = trial_id(line).unwrap_or_else(|| panic!("not a corpus line: {line}"));
    let spec = ScenarioSpec::parse(label, registry).unwrap_or_else(|e| panic!("{label}: {e}"));
    assert_eq!(spec.label(), label, "corpus labels are canonical");
    let (mut world, mut protocol) = spec.build(registry, seed).expect("a valid corpus spec");
    let mut fold = EventFold {
        events: 0,
        hash: 0xCBF2_9CE4_8422_2325,
    };
    let (outcome, dispersed) = match spec.execute(&mut world, protocol.as_mut(), seed, &mut fold) {
        Ok(outcome) => (outcome, is_dispersed_at(&world, spec.min_distance)),
        Err(RunError::LimitExceeded { outcome }) => (outcome, false),
        Err(other) => panic!("{line}: {other}"),
    };
    let record = TrialRecord {
        point: ExperimentPoint::new(spec.clone(), 2),
        rep,
        seed,
        outcome,
        dispersed,
    };
    let positions: Vec<u8> = world
        .snapshot_positions()
        .iter()
        .flat_map(|node| node.0.to_le_bytes())
        .collect();
    let mut out = format!(
        "{label}#r{rep} seed={seed:016x} record={:016x} positions={:016x} trace={}:{:016x}",
        fnv1a(record.to_json_line().as_bytes()),
        fnv1a(&positions),
        fold.events,
        fold.hash,
    );
    if observe {
        write_exports(&spec, seed, registry, &mut out);
    }
    out
}

/// Append the exporters' digests: the trace's JSONL, then the timeline's
/// at the default budget and at 8, which forces decimation.
fn write_exports(spec: &ScenarioSpec, seed: u64, registry: &Registry, out: &mut String) {
    let mut trace = Trace::new();
    let _ = spec.run_observed(registry, seed, &mut WorldPool::new(), &mut trace);
    let digest = fnv1a(trace_to_jsonl(&trace).as_bytes());
    let _ = write!(out, " export={}:{digest:016x}", trace.events().len());
    for budget in [DEFAULT_TIMELINE_BUDGET, 8] {
        let mut recorder = TimelineRecorder::with_budget(budget);
        let _ = spec.run_observed(registry, seed, &mut WorldPool::new(), &mut recorder);
        let timeline = recorder.finish();
        let jsonl = timeline_to_jsonl(&timeline, &spec.label(), seed);
        // The `timeline_start` header only echoes the inputs.
        let body = jsonl.split_once('\n').expect("a timeline_start line").1;
        let (points, digest) = (timeline.points.len(), fnv1a(body.as_bytes()));
        let _ = write!(out, " timeline{budget}={points}:{digest:016x}");
    }
}

fn registry() -> Registry {
    Registry::builtin().with(SpacerFactory)
}

/// Rerun every line of `section` and name each one that differs.
fn check_section(section: &str) {
    let (text, registry) = (corpus(), registry());
    let lines: Vec<&str> = corpus_lines(&text)
        .into_iter()
        .filter_map(|(s, line)| (s == section).then_some(line))
        .collect();
    assert!(!lines.is_empty(), "the corpus has no section {section}");
    let diff: Vec<String> = lines
        .iter()
        .filter_map(|&want| {
            let got = digest_line(want, &registry, section == OBSERVE);
            (got != want).then(|| format!("  recorded {want}\n  observed {got}"))
        })
        .collect();
    let summary = format!(
        "{} of {} lines of section {section}",
        diff.len(),
        lines.len()
    );
    assert!(diff.is_empty(), "{summary} differ:\n{}", diff.join("\n"));
}

/// One test per section, and the list of sections the file must have.
macro_rules! sections {
    ($($test:ident: $section:literal,)*) => {
        const SECTIONS: &[&str] = &[$($section),*];
        $(
            #[test]
            fn $test() {
                check_section($section);
            }
        )*
    };
}

// The first six sections were recorded while the pre-SoA enum-state
// references still ran beside the live protocols: they hold the
// references' output.
sections! {
    probe_dfs_matches_the_aos_reference_across_the_grid: "probe-dfs-grid",
    sync_seeker_matches_the_aos_reference_across_the_grid: "sync-seeker-grid",
    ks_dfs_matches_the_aos_reference_across_the_grid: "ks-dfs-grid",
    sync_seeker_matches_under_non_default_params: "sync-seeker-params",
    probe_dfs_matches_the_aos_reference_in_dynamic_ring_worlds: "probe-dfs-dynamic-ring",
    larger_instances_match_too: "larger-instances",
    the_invariant_grid_replays_its_recorded_trials: "invariant-grid",
    the_fault_worlds_replay_their_recorded_trials: "fault-worlds",
    the_colocation_grid_replays_its_recorded_trials: "colocation",
    observers_see_the_recorded_streams: "observe",
}

#[test]
fn every_section_of_the_corpus_is_checked() {
    let text = corpus();
    let mut sections: Vec<&str> = corpus_lines(&text).into_iter().map(|(s, _)| s).collect();
    sections.dedup();
    assert_eq!(sections, SECTIONS);
}

/// Rewrites the digests of every line of `tests/golden/corpus.digest`
/// from the current code, keeping its sections, ids and seeds. Run it only
/// in a change that means to alter trial, trace or timeline bytes.
#[test]
#[ignore = "rewrites tests/golden/corpus.digest"]
fn record_corpus() {
    let (text, registry) = (corpus(), registry());
    let mut out = String::with_capacity(text.len());
    let mut current = "";
    for (section, line) in corpus_lines(&text) {
        if section != current {
            let _ = writeln!(out, "# {section}");
            current = section;
        }
        let _ = writeln!(out, "{}", digest_line(line, &registry, section == OBSERVE));
    }
    std::fs::write(corpus_path(), out).expect("write tests/golden/corpus.digest");
}
