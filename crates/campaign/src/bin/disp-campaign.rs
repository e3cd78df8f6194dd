//! The campaign CLI: run, resume and report experiment campaigns, and
//! observe one trial.
//!
//! ```text
//! disp-campaign run    [--campaign table1|figures|placements|scale|fault-worlds|mini]
//!                      [--scenario LABEL]... [--reps N]
//!                      [--quick|--full] [--threads N] [--batch N] [--seed S]
//!                      [--section NAME]... [--out DIR] [--force] [--events]
//!                      [--timeline] [--csv DIR | --format text|json]
//! disp-campaign resume --out DIR [--threads N] [--batch N] [--events]
//!                      [--timeline] [--csv DIR | --format text|json]
//! disp-campaign report --out DIR [--csv DIR | --format text|json] [--timeline]
//! disp-campaign trace  --scenario LABEL [--seed S] [--cap N] [--out FILE]
//! disp-campaign timeline --scenario LABEL [--seed S] [--budget N] [--out FILE]
//! disp-campaign scenarios
//! ```
//!
//! A campaign is either named (`--campaign`) or an ad-hoc grid of canonical
//! scenario labels (`--scenario`, repeatable — see `DESIGN.md` §7 for the
//! grammar, e.g. `rtree/k64/scatter/async-rand0.7/ks-dfs`). `run` without
//! `--out` executes in memory and prints the report; with `--out` every
//! finished trial is checkpointed to `DIR/trials.jsonl` (flushed per line),
//! so a killed run can be continued with `resume` — the manifest stores the
//! full grid as canonical labels, so ad-hoc campaigns resume exactly like
//! named ones. Results are byte-identical for any `--threads` value with
//! the same `--seed`. `trace` and `timeline` run one trial with the event
//! trace or the flight recorder observing it. Each subcommand's flags are
//! the table in [`CLI`]; any other flag is refused before work starts.

use disp_campaign::cli::{emit, Args, Cli, Command, Flag, Kind::*};
use disp_campaign::grid::{CampaignSpec, Mode};
use disp_campaign::report::{
    campaign_report_json, render_section_csv, render_section_markdown, section_measurements,
};
use disp_campaign::run::{run_trials, RunOptions, RunSummary};
use disp_campaign::signal;
use disp_campaign::store::{CampaignStore, TrialStore};
use disp_campaign::telemetry::{
    timeline_to_jsonl, trace_to_jsonl, EventSink, JsonlSink, Telemetry, TimelineSidecar,
};
use disp_core::scenario::{grammar_help, Registry, ScenarioSpec};
use disp_sim::{TimelineRecorder, Trace, WorldPool, DEFAULT_TIMELINE_BUDGET, DEFAULT_TRACE_CAP};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let words: Vec<String> = std::env::args().skip(1).collect();
    let args = CLI.parse_subcommand(&words);
    let registry = Registry::builtin();
    CLI.finish(match args.command.name {
        "run" => cmd_run(&args, &registry),
        "resume" => cmd_resume(&args, &registry),
        "report" => cmd_report(&args),
        "trace" | "timeline" => cmd_observe(&args, &registry),
        // One source of truth with the server's GET /scenarios endpoint.
        _ => emit(&grammar_help(&registry)),
    })
}

const SCENARIO: Flag = Flag::new("--scenario", Text);
const SEED: Flag = Flag::new("--seed", Unsigned);
const OUT: Flag = Flag::new("--out", Text);
const THREADS: Flag = Flag::new("--threads", Positive);
const BATCH: Flag = Flag::new("--batch", Positive);
const CSV: Flag = Flag::new("--csv", Text);
const FORMAT: Flag = Flag::new("--format", OneOf(&["text", "json"]));
const EVENTS: Flag = Flag::new("--events", Switch);
const TIMELINE: Flag = Flag::new("--timeline", Switch);

/// The flags each subcommand reads.
const CLI: Cli = Cli {
    name: "disp-campaign",
    usage: USAGE,
    commands: &[
        Command::new(
            "run",
            &[
                Flag::new("--campaign", Text),
                SCENARIO.repeated(),
                Flag::new("--reps", Positive),
                Flag::new("--quick", Switch),
                Flag::new("--full", Switch),
                THREADS,
                BATCH,
                SEED,
                Flag::new("--section", Text).repeated(),
                OUT,
                Flag::new("--force", Switch),
                CSV,
                FORMAT,
                EVENTS,
                TIMELINE,
            ],
        ),
        Command::new(
            "resume",
            &[OUT, THREADS, BATCH, CSV, FORMAT, EVENTS, TIMELINE],
        ),
        Command::new("report", &[OUT, CSV, FORMAT, TIMELINE]),
        Command::new(
            "trace",
            &[SCENARIO, SEED, Flag::new("--cap", Positive), OUT],
        ),
        Command::new(
            "timeline",
            &[SCENARIO, SEED, Flag::new("--budget", Positive), OUT],
        ),
        Command::new("scenarios", &[]),
    ],
};

const USAGE: &str = "\
disp-campaign — parallel, deterministic experiment campaigns

USAGE:
  disp-campaign run    [--campaign table1|figures|placements|scale|fault-worlds|mini]
                       [--scenario LABEL]... [--reps N]
                       [--quick|--full] [--threads N] [--batch N] [--seed S]
                       [--section NAME]... [--out DIR] [--force] [--events]
                       [--timeline] [--csv DIR | --format text|json]
  disp-campaign resume --out DIR [--threads N] [--batch N] [--events]
                       [--timeline] [--csv DIR | --format text|json]
  disp-campaign report --out DIR [--csv DIR | --format text|json] [--timeline]
  disp-campaign trace  --scenario LABEL [--seed S] [--cap N] [--out FILE]
  disp-campaign timeline --scenario LABEL [--seed S] [--budget N] [--out FILE]
  disp-campaign scenarios    (print the scenario-label grammar + vocabulary)

--scenario runs an ad-hoc grid of canonical scenario labels, e.g.
  disp-campaign run --scenario rtree/k64/scatter/async-rand0.7/ks-dfs --reps 3

--format json prints the machine-readable report document (the same schema
disp-serve returns from GET /runs/:id/results?format=summary).

--batch N steals work in runs of N contiguous grid trials — the fast path
for campaigns of many small trials. (Every engine thread reuses one warm
world-allocation pool whatever the batch.) Results, checkpoints and resumes
are byte-identical to --batch 1 (the default) for any thread count.

--events (requires --out) streams per-trial telemetry — start/finish with
wall-clock micros — to the DIR/events.jsonl sidecar. Timing is not content:
trials.jsonl stays byte-identical with or without --events.

--timeline on run/resume (requires --out) additionally records a decimated
flight-recorder timeline per executed trial — round-by-round settled /
active / parked counts and the per-role class histogram, within a fixed
point budget — to the DIR/timelines.jsonl sidecar. Recording is pure
observation: trials.jsonl stays byte-identical with or without --timeline.
On report, --timeline renders each recorded trial's settling curve as an
ASCII sparkline.

`trace` runs ONE trial of a scenario with the simulator's event trace
enabled and writes the log as JSONL (stdout, or --out FILE): every agent
move, cohort ride and protocol milestone, capped at --cap events. When the
cap truncates the log, the closing {\"event\":\"trace_end\"} line carries
\"truncated\":true plus a \"dropped\" count of events lost past the cap.

`timeline` runs ONE trial of a scenario with the flight recorder enabled
and writes the decimated timeline as JSONL (stdout, or --out FILE) —
byte-identical to what disp-serve's GET /timeline returns for the same
scenario and seed. --budget caps the number of retained points (default
4096); longer runs are decimated by stride doubling, keeping the first and
final boundaries exact.

Trial seeds derive from (campaign seed, canonical scenario label,
repetition): output is byte-identical for any --threads value. With --out,
finished trials stream to DIR/trials.jsonl (flushed per line); a killed run
resumes with `resume` — the manifest stores the grid as canonical labels,
so ad-hoc --scenario campaigns resume exactly like named ones. SIGINT and
SIGTERM stop a run gracefully: in-flight trials finish and checkpoint, and
the exact resume command is printed before exiting.
";

/// How `run`, `resume` and `report` print the campaign.
enum View {
    Markdown,
    Json,
    Csv(PathBuf),
}

fn view(args: &Args) -> Result<View, String> {
    match (args.get("--csv"), args.get::<String>("--format")) {
        (Some(_), Some(_)) => Err("--csv and --format are mutually exclusive".into()),
        (Some(dir), None) => Ok(View::Csv(dir)),
        (None, Some(format)) if format == "json" => Ok(View::Json),
        (None, _) => Ok(View::Markdown),
    }
}

fn build_spec(args: &Args, registry: &Registry) -> Result<CampaignSpec, String> {
    let (scenarios, seed) = (args.all("--scenario"), args.get("--seed").unwrap_or(1));
    let (quick, full) = (args.has("--quick"), args.has("--full"));
    // Conflicting or idle flags are errors, not silent precedence: a named
    // campaign carries its own grid and rep counts, and an ad-hoc grid has
    // no mode.
    if quick && full {
        return Err("--quick and --full are mutually exclusive".into());
    }
    if args.has("--force") && !args.has("--out") {
        return Err("--force requires --out DIR (without it there is nothing to overwrite)".into());
    }
    if !scenarios.is_empty() && args.has("--campaign") {
        return Err("--campaign and --scenario are mutually exclusive".into());
    }
    if !scenarios.is_empty() && (quick || full) {
        return Err(
            "--quick and --full only apply to named campaigns (a --scenario grid has no mode)"
                .into(),
        );
    }
    if scenarios.is_empty() && args.has("--reps") {
        return Err("--reps only applies to --scenario grids (named campaigns fix their own repetition counts)".into());
    }
    let spec = if scenarios.is_empty() {
        let name: String = args.get("--campaign").unwrap_or_else(|| "table1".into());
        let mode = if full { Mode::Full } else { Mode::Quick };
        CampaignSpec::by_name(&name, mode, seed)
            .ok_or_else(|| format!("unknown campaign '{name}'"))?
    } else {
        let scenarios = scenarios
            .iter()
            .map(|label| ScenarioSpec::parse(label, registry).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, String>>()?;
        CampaignSpec::custom(scenarios, args.get("--reps").unwrap_or(1), seed)
    };
    let sections = args.all("--section");
    if sections.is_empty() {
        return Ok(spec);
    }
    let names: Vec<&str> = sections.iter().map(String::as_str).collect();
    let filtered = spec.with_sections(&names);
    if filtered.sections.is_empty() {
        return Err(format!("no section matches {sections:?}"));
    }
    Ok(filtered)
}

fn print_summary(spec: &CampaignSpec, summary: &RunSummary, threads: usize) {
    eprintln!(
        "campaign {} ({}, seed {}): {} trials ({} skipped, {} executed) \
         in {:.2?} on {} thread(s); {} steals, per-worker {:?}",
        spec.name,
        spec.mode.label(),
        spec.seed,
        summary.total,
        summary.skipped,
        summary.executed,
        summary.wall,
        threads,
        summary.stats.steals,
        summary.stats.per_worker,
    );
}

/// On interrupt: the checkpoint (if any) is already flushed per line by the
/// appender, so the only job left is telling the user exactly how to
/// continue.
fn interrupt_error(args: &Args, threads: usize, summary: &RunSummary) -> String {
    let completed = summary.skipped + summary.executed;
    match args.get::<PathBuf>("--out") {
        Some(dir) => format!(
            "interrupted after {completed}/{} trials; checkpoint flushed — resume with:\n  \
             disp-campaign resume --out {} --threads {threads}",
            summary.total,
            dir.display(),
        ),
        None => format!(
            "interrupted after {completed}/{} trials; no --out was given, so the partial \
             in-memory results are discarded (re-run with --out DIR for a resumable checkpoint)",
            summary.total,
        ),
    }
}

/// Start the events.jsonl sidecar collector when `--events` was given.
/// Returns the hub to finish (flush + join) after the run.
fn start_events(args: &Args, store: Option<&CampaignStore>) -> Result<Option<Telemetry>, String> {
    if !args.has("--events") {
        return Ok(None);
    }
    let store = store.ok_or("--events requires --out DIR (the sidecar lives next to the store)")?;
    let sink = JsonlSink::create(&store.events_path())?;
    Ok(Some(Telemetry::start(Box::new(sink))))
}

fn finish_events(telemetry: Option<Telemetry>, store: Option<&CampaignStore>) {
    if let (Some(telemetry), Some(store)) = (telemetry, store) {
        let dropped = telemetry.finish();
        if dropped > 0 {
            eprintln!(
                "note: {dropped} telemetry event(s) dropped on a full channel (see the \
                 overflow marker at the end of {})",
                store.events_path().display()
            );
        }
    }
}

/// Start the timelines.jsonl sidecar when `--timeline` was given on
/// run/resume.
fn start_timelines(
    args: &Args,
    store: Option<&CampaignStore>,
) -> Result<Option<TimelineSidecar>, String> {
    if !args.has("--timeline") {
        return Ok(None);
    }
    let store =
        store.ok_or("--timeline requires --out DIR (the sidecar lives next to the store)")?;
    Ok(Some(TimelineSidecar::create(&store.timelines_path())?))
}

fn cmd_run(args: &Args, registry: &Registry) -> Result<(), String> {
    let view = view(args)?;
    let spec = build_spec(args, registry)?;
    let store = match args.get::<PathBuf>("--out") {
        Some(dir) => Some(CampaignStore::create(&dir, &spec, args.has("--force"))?),
        None => None,
    };
    execute(args, &view, &spec, store.as_ref(), registry)
}

fn cmd_resume(args: &Args, registry: &Registry) -> Result<(), String> {
    let view = view(args)?;
    let dir: PathBuf = args
        .get("--out")
        .ok_or("resume requires --out DIR (the directory of the killed run)")?;
    let (store, manifest) = CampaignStore::open(&dir)?;
    let spec = manifest.rebuild_spec()?;
    execute(args, &view, &spec, Some(&store), registry)
}

/// The shared tail of `run` and `resume`: the grid through the trial
/// pipeline, checkpointed into `store` when there is one, with the
/// `--events`/`--timeline` sidecars and Ctrl-C draining.
fn execute(
    args: &Args,
    view: &View,
    spec: &CampaignSpec,
    store: Option<&CampaignStore>,
    registry: &Registry,
) -> Result<(), String> {
    let threads = args.get("--threads").unwrap_or_else(|| {
        std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
    });
    let telemetry = start_events(args, store)?;
    let timelines = start_timelines(args, store)?;
    let checkpoint = store.map(CampaignStore::checkpoint).transpose()?;
    let handle = telemetry.as_ref().map(Telemetry::handle);
    let opts = RunOptions {
        threads,
        batch: args.get("--batch").unwrap_or(1),
        cancel: Some(signal::install()),
        events: handle.as_ref().map(|h| h as &dyn EventSink),
        timelines: timelines.as_ref(),
    };
    let checkpoint = checkpoint.as_ref().map(|c| c as &dyn TrialStore);
    let (records, summary) = run_trials(spec.trials(), registry, checkpoint, &opts)?;
    finish_events(telemetry, store);
    print_summary(spec, &summary, threads);
    if summary.cancelled {
        return Err(interrupt_error(args, threads, &summary));
    }
    render(view, spec, records)
}

/// `trace` / `timeline`: run one trial of one scenario with the event
/// trace or the flight recorder observing it and write what it saw as
/// JSONL (stdout by default, `--out FILE`). Uses the same encoders as
/// disp-serve's `GET /trace` and `GET /timeline`, so the two are
/// byte-identical for the same scenario + seed. A run that hits its limit
/// writes the partial log or timeline, then fails.
fn cmd_observe(args: &Args, registry: &Registry) -> Result<(), String> {
    let command = args.command.name;
    let label: String = args
        .get("--scenario")
        .ok_or_else(|| format!("{command} requires --scenario LABEL"))?;
    let spec = ScenarioSpec::parse(&label, registry).map_err(|e| e.to_string())?;
    let (label, seed, mut pool) = (
        spec.label(),
        args.get("--seed").unwrap_or(1),
        WorldPool::new(),
    );
    let (result, jsonl, summary) = if command == "timeline" {
        let budget = args.get("--budget").unwrap_or(DEFAULT_TIMELINE_BUDGET);
        let mut recorder = TimelineRecorder::with_budget(budget);
        let result = spec.run_observed(registry, seed, &mut pool, &mut recorder);
        let timeline = recorder.finish();
        let summary = format!(
            "recorded {label} (seed {seed}): {} point(s), decimation level {}",
            timeline.points.len(),
            timeline.decimation_level(),
        );
        (result, timeline_to_jsonl(&timeline, &label, seed), summary)
    } else {
        let mut trace = Trace::with_cap(args.get("--cap").unwrap_or(DEFAULT_TRACE_CAP));
        let result = spec.run_observed(registry, seed, &mut pool, &mut trace);
        let summary = format!(
            "traced {label} (seed {seed}): {} event(s){}",
            trace.events().len(),
            if trace.truncated() { ", truncated" } else { "" },
        );
        (result, trace_to_jsonl(&trace), summary)
    };
    match args.get::<PathBuf>("--out") {
        Some(path) => {
            std::fs::write(&path, &jsonl).map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("{summary} → {}", path.display());
        }
        None => emit(&jsonl)?,
    }
    let report = result.map_err(|e| e.to_string())?;
    eprintln!(
        "outcome: dispersed={} moves={} time={}",
        report.dispersed,
        report.outcome.total_moves,
        report.outcome.time()
    );
    Ok(())
}

/// The `report --timeline` view: parse `DIR/timelines.jsonl` and render
/// each recorded trial's settling curve as one ASCII sparkline row.
fn render_timelines(store: &CampaignStore) -> Result<(), String> {
    use disp_analysis::Json;
    let path = store.timelines_path();
    let text = std::fs::read_to_string(&path).map_err(|e| {
        format!(
            "read {}: {e} (record timelines with `run --timeline --out DIR`)",
            path.display()
        )
    })?;
    emit(&format!("# Timelines ({})\n\n", path.display()))?;
    let mut scenario = String::new();
    let mut seed = 0u64;
    let mut settled: Vec<f64> = Vec::new();
    let mut population = 0.0f64;
    let mut last_time = 0.0f64;
    for line in text.lines() {
        let Some(doc) = Json::parse(line).ok() else {
            continue;
        };
        match doc.get("event").and_then(Json::as_str) {
            Some("timeline_start") => {
                scenario = doc
                    .get("scenario")
                    .and_then(Json::as_str)
                    .unwrap_or("?")
                    .to_string();
                seed = doc.get("seed").and_then(Json::as_u64_lossless).unwrap_or(0);
                settled.clear();
                population = 0.0;
                last_time = 0.0;
            }
            Some("point") => {
                let s = doc.get("settled").and_then(Json::as_f64).unwrap_or(0.0);
                let active = doc.get("active").and_then(Json::as_f64).unwrap_or(0.0);
                let parked = doc.get("parked").and_then(Json::as_f64).unwrap_or(0.0);
                let crashed = doc.get("crashed").and_then(Json::as_f64).unwrap_or(0.0);
                settled.push(s);
                population = population.max(active + parked + crashed);
                last_time = doc.get("time").and_then(Json::as_f64).unwrap_or(last_time);
            }
            Some("timeline_end") => {
                let spark = disp_analysis::sparkline_scaled(&settled, population, 60);
                let final_settled = settled.last().copied().unwrap_or(0.0);
                emit(&format!(
                    "{scenario} seed={seed}\n  [{spark}] settled {}/{} at t={}\n",
                    final_settled as u64, population as u64, last_time as u64
                ))?;
            }
            _ => {}
        }
    }
    Ok(())
}

fn cmd_report(args: &Args) -> Result<(), String> {
    let view = view(args)?;
    let dir: PathBuf = args
        .get("--out")
        .ok_or("report requires --out DIR (a campaign directory)")?;
    let timeline = args.has("--timeline");
    if timeline && (args.has("--csv") || args.has("--format")) {
        return Err(
            "report --timeline draws settling curves and reads neither --csv nor --format".into(),
        );
    }
    let (store, manifest) = CampaignStore::open(&dir)?;
    if timeline {
        return render_timelines(&store);
    }
    let spec = manifest.rebuild_spec()?;
    let ingest = store.read_trials()?;
    if ingest.malformed > 0 {
        eprintln!(
            "note: skipped {} malformed line(s) (torn tail of a killed run)",
            ingest.malformed
        );
    }
    let completed = ingest.records.len();
    if completed < manifest.total_trials {
        eprintln!(
            "note: campaign is partial: {completed}/{} trials completed (use `resume` to finish)",
            manifest.total_trials
        );
    }
    render(&view, &spec, ingest.records)
}

fn render(
    view: &View,
    spec: &CampaignSpec,
    records: Vec<disp_analysis::TrialRecord>,
) -> Result<(), String> {
    let sections = section_measurements(spec, records);
    match view {
        View::Csv(csv_dir) => {
            std::fs::create_dir_all(csv_dir)
                .map_err(|e| format!("create {}: {e}", csv_dir.display()))?;
            for (section, ms) in &sections {
                let path = csv_dir.join(format!("{}.csv", section.name));
                std::fs::write(&path, render_section_csv(ms))
                    .map_err(|e| format!("write {}: {e}", path.display()))?;
                emit(&format!("wrote {} ({} rows)\n", path.display(), ms.len()))?;
            }
            Ok(())
        }
        View::Json => {
            let doc = campaign_report_json(spec, &sections).to_string_compact();
            emit(&format!("{doc}\n"))
        }
        View::Markdown => {
            let (name, mode) = (&spec.name, spec.mode.label());
            emit(&format!("# Campaign {name} ({mode} mode)\n\n"))?;
            for (section, ms) in &sections {
                emit(&format!("{}\n", render_section_markdown(section, ms)))?;
            }
            Ok(())
        }
    }
}
