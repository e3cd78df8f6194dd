//! The campaign CLI: run, resume and report experiment campaigns.
//!
//! ```text
//! disp-campaign run    [--campaign table1|figures|placements|scale|fault-worlds|mini]
//!                      [--scenario LABEL]... [--reps N]
//!                      [--quick|--full] [--threads N] [--seed S]
//!                      [--section NAME]... [--out DIR] [--force]
//! disp-campaign resume --out DIR [--threads N]
//! disp-campaign report --out DIR [--csv DIR]
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
//! the same `--seed`.

use disp_campaign::grid::{CampaignSpec, Mode};
use disp_campaign::report::{
    campaign_report_json, render_section_csv, render_section_markdown, section_measurements,
};
use disp_campaign::run::{run_trials, RunOptions, RunSummary};
use disp_campaign::signal;
use disp_campaign::store::{CampaignStore, TrialStore};
use disp_campaign::telemetry::{
    timeline_to_jsonl, trace_to_jsonl, JsonlSink, Telemetry, TimelineSidecar,
};
use disp_core::scenario::{grammar_help, Registry, ScenarioSpec};
use disp_sim::{TimelineRecorder, Trace, WorldPool, DEFAULT_TIMELINE_BUDGET, DEFAULT_TRACE_CAP};
use std::path::PathBuf;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let registry = Registry::builtin();
    // `<subcommand> --help` asks for the usage, wherever the flag sits.
    let wants_help = args.iter().skip(1).any(|a| a == "--help" || a == "-h");
    let result = match args.first().map(String::as_str) {
        Some("run" | "resume" | "report" | "trace" | "timeline" | "scenarios") if wants_help => {
            print!("{}", USAGE);
            Ok(())
        }
        Some("run") => cmd_run(&args[1..], &registry),
        Some("resume") => cmd_resume(&args[1..], &registry),
        Some("report") => cmd_report(&args[1..]),
        Some("trace") => cmd_observe(&args[1..], &registry, false),
        Some("timeline") => cmd_observe(&args[1..], &registry, true),
        Some("scenarios") => {
            cmd_scenarios(&registry);
            Ok(())
        }
        Some("--help" | "-h" | "help") | None => {
            print!("{}", USAGE);
            Ok(())
        }
        Some(other) => Err(format!("unknown subcommand '{other}'\n\n{USAGE}")),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(message) => {
            eprintln!("disp-campaign: {message}");
            ExitCode::FAILURE
        }
    }
}

const USAGE: &str = "\
disp-campaign — parallel, deterministic experiment campaigns

USAGE:
  disp-campaign run    [--campaign table1|figures|placements|scale|fault-worlds|mini]
                       [--scenario LABEL]... [--reps N]
                       [--quick|--full] [--threads N] [--batch N] [--seed S]
                       [--section NAME]... [--out DIR] [--force] [--events]
                       [--timeline]
  disp-campaign resume --out DIR [--threads N] [--batch N] [--events]
                       [--timeline]
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

struct Flags {
    campaign: Option<String>,
    scenarios: Vec<String>,
    reps: Option<usize>,
    mode: Mode,
    threads: usize,
    batch: usize,
    seed: u64,
    sections: Vec<String>,
    out: Option<PathBuf>,
    force: bool,
    csv: Option<PathBuf>,
    format: Format,
    events: bool,
    cap: Option<usize>,
    timeline: bool,
    budget: Option<usize>,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Format {
    Text,
    Json,
}

fn parse_flags(args: &[String]) -> Result<Flags, String> {
    let mut flags = Flags {
        campaign: None,
        scenarios: Vec::new(),
        reps: None,
        mode: Mode::Quick,
        threads: std::thread::available_parallelism()
            .map(|p| p.get())
            .unwrap_or(4),
        batch: 1,
        seed: 1,
        sections: Vec::new(),
        out: None,
        force: false,
        csv: None,
        format: Format::Text,
        events: false,
        cap: None,
        timeline: false,
        budget: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |name: &str| -> Result<String, String> {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} requires a value"))
        };
        match arg.as_str() {
            "--campaign" => flags.campaign = Some(value("--campaign")?),
            "--scenario" => flags.scenarios.push(value("--scenario")?),
            "--reps" => {
                flags.reps = Some(
                    value("--reps")?
                        .parse()
                        .map_err(|_| "--reps expects a positive integer".to_string())?,
                )
            }
            "--quick" => flags.mode = Mode::Quick,
            "--full" => flags.mode = Mode::Full,
            "--threads" => {
                flags.threads = value("--threads")?
                    .parse()
                    .map_err(|_| "--threads expects a positive integer".to_string())?
            }
            "--batch" => {
                let batch: usize = value("--batch")?
                    .parse()
                    .map_err(|_| "--batch expects a positive integer".to_string())?;
                if batch == 0 {
                    return Err("--batch expects a positive integer".into());
                }
                flags.batch = batch;
            }
            "--seed" => {
                flags.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed expects an unsigned integer".to_string())?
            }
            "--section" => flags.sections.push(value("--section")?),
            "--out" => flags.out = Some(PathBuf::from(value("--out")?)),
            "--csv" => flags.csv = Some(PathBuf::from(value("--csv")?)),
            "--format" => {
                flags.format = match value("--format")?.as_str() {
                    "text" => Format::Text,
                    "json" => Format::Json,
                    other => return Err(format!("--format expects text|json, got '{other}'")),
                }
            }
            "--force" => flags.force = true,
            "--events" => flags.events = true,
            "--timeline" => flags.timeline = true,
            "--budget" => {
                let budget: usize = value("--budget")?
                    .parse()
                    .map_err(|_| "--budget expects a positive integer".to_string())?;
                if budget == 0 {
                    return Err("--budget expects a positive integer".into());
                }
                flags.budget = Some(budget);
            }
            "--cap" => {
                let cap: usize = value("--cap")?
                    .parse()
                    .map_err(|_| "--cap expects a positive integer".to_string())?;
                if cap == 0 {
                    return Err("--cap expects a positive integer".into());
                }
                flags.cap = Some(cap);
            }
            other => return Err(format!("unknown flag '{other}'\n\n{USAGE}")),
        }
    }
    if flags.csv.is_some() && flags.format != Format::Text {
        return Err("--csv and --format are mutually exclusive".into());
    }
    Ok(flags)
}

fn build_spec(flags: &Flags, registry: &Registry) -> Result<CampaignSpec, String> {
    // Conflicting selectors are errors, not silent precedence: a named
    // campaign carries its own grid and rep counts.
    if !flags.scenarios.is_empty() && flags.campaign.is_some() {
        return Err("--campaign and --scenario are mutually exclusive".into());
    }
    if flags.scenarios.is_empty() && flags.reps.is_some() {
        return Err("--reps only applies to --scenario grids (named campaigns fix their own repetition counts)".into());
    }
    let spec = if flags.scenarios.is_empty() {
        let name = flags.campaign.as_deref().unwrap_or("table1");
        CampaignSpec::by_name(name, flags.mode, flags.seed)
            .ok_or_else(|| format!("unknown campaign '{name}'"))?
    } else {
        let scenarios = flags
            .scenarios
            .iter()
            .map(|label| ScenarioSpec::parse(label, registry).map_err(|e| e.to_string()))
            .collect::<Result<Vec<_>, String>>()?;
        CampaignSpec::custom(scenarios, flags.reps.unwrap_or(1), flags.seed)
    };
    if flags.sections.is_empty() {
        return Ok(spec);
    }
    let names: Vec<&str> = flags.sections.iter().map(String::as_str).collect();
    let filtered = spec.with_sections(&names);
    if filtered.sections.is_empty() {
        return Err(format!("no section matches {:?}", flags.sections));
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
fn interrupt_error(flags: &Flags, summary: &RunSummary) -> String {
    let completed = summary.skipped + summary.executed;
    match &flags.out {
        Some(dir) => format!(
            "interrupted after {completed}/{} trials; checkpoint flushed — resume with:\n  \
             disp-campaign resume --out {} --threads {}",
            summary.total,
            dir.display(),
            flags.threads,
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
fn start_events(flags: &Flags, store: Option<&CampaignStore>) -> Result<Option<Telemetry>, String> {
    if !flags.events {
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
    flags: &Flags,
    store: Option<&CampaignStore>,
) -> Result<Option<TimelineSidecar>, String> {
    if !flags.timeline {
        return Ok(None);
    }
    let store =
        store.ok_or("--timeline requires --out DIR (the sidecar lives next to the store)")?;
    Ok(Some(TimelineSidecar::create(&store.timelines_path())?))
}

fn cmd_run(args: &[String], registry: &Registry) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let spec = build_spec(&flags, registry)?;
    let store = match &flags.out {
        Some(dir) => Some(CampaignStore::create(dir, &spec, flags.force)?),
        None => None,
    };
    execute(&flags, &spec, store.as_ref(), registry)
}

fn cmd_resume(args: &[String], registry: &Registry) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let dir = flags
        .out
        .as_ref()
        .ok_or("resume requires --out DIR (the directory of the killed run)")?;
    let (store, manifest) = CampaignStore::open(dir)?;
    let spec = manifest.rebuild_spec()?;
    execute(&flags, &spec, Some(&store), registry)
}

/// The shared tail of `run` and `resume`: the grid through the trial
/// pipeline, checkpointed into `store` when there is one, with the
/// `--events`/`--timeline` sidecars and Ctrl-C draining.
fn execute(
    flags: &Flags,
    spec: &CampaignSpec,
    store: Option<&CampaignStore>,
    registry: &Registry,
) -> Result<(), String> {
    let telemetry = start_events(flags, store)?;
    let timelines = start_timelines(flags, store)?;
    let checkpoint = store.map(CampaignStore::checkpoint).transpose()?;
    let handle = telemetry.as_ref().map(Telemetry::handle);
    let opts = RunOptions {
        threads: flags.threads,
        batch: flags.batch,
        cancel: Some(signal::install()),
        telemetry: handle.as_ref(),
        timelines: timelines.as_ref(),
    };
    let checkpoint = checkpoint.as_ref().map(|c| c as &dyn TrialStore);
    let (records, summary) = run_trials(spec.trials(), registry, checkpoint, &opts)?;
    finish_events(telemetry, store);
    print_summary(spec, &summary, flags.threads);
    if summary.cancelled {
        return Err(interrupt_error(flags, &summary));
    }
    render(flags, spec, records)
}

/// `trace` / `timeline`: run one trial of one scenario with the event
/// trace or the flight recorder observing it and write what it saw as
/// JSONL (stdout by default, `--out FILE`). Uses the same encoders as
/// disp-serve's `GET /trace` and `GET /timeline`, so the two are
/// byte-identical for the same scenario + seed. A run that hits its limit
/// writes the partial log or timeline, then fails.
fn cmd_observe(args: &[String], registry: &Registry, timeline: bool) -> Result<(), String> {
    let command = if timeline { "timeline" } else { "trace" };
    let flags = parse_flags(args)?;
    if flags.campaign.is_some() {
        return Err(format!("{command} takes --scenario LABEL, not --campaign"));
    }
    let label = match flags.scenarios.as_slice() {
        [label] => label,
        [] => return Err(format!("{command} requires --scenario LABEL")),
        _ => {
            return Err(format!(
                "{command} runs exactly one scenario (one --scenario flag)"
            ))
        }
    };
    let spec = ScenarioSpec::parse(label, registry).map_err(|e| e.to_string())?;
    let (label, seed, mut pool) = (spec.label(), flags.seed, WorldPool::new());
    let (result, jsonl, summary) = if timeline {
        let budget = flags.budget.unwrap_or(DEFAULT_TIMELINE_BUDGET);
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
        let mut trace = Trace::with_cap(flags.cap.unwrap_or(DEFAULT_TRACE_CAP));
        let result = spec.run_observed(registry, seed, &mut pool, &mut trace);
        let summary = format!(
            "traced {label} (seed {seed}): {} event(s){}",
            trace.events().len(),
            if trace.truncated() { ", truncated" } else { "" },
        );
        (result, trace_to_jsonl(&trace), summary)
    };
    match &flags.out {
        Some(path) => {
            std::fs::write(path, &jsonl).map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("{summary} → {}", path.display());
        }
        None => print!("{jsonl}"),
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
    println!("# Timelines ({})\n", path.display());
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
                println!(
                    "{scenario} seed={seed}\n  [{spark}] settled {}/{} at t={}",
                    final_settled as u64, population as u64, last_time as u64
                );
            }
            _ => {}
        }
    }
    Ok(())
}

fn cmd_report(args: &[String]) -> Result<(), String> {
    let flags = parse_flags(args)?;
    let dir = flags
        .out
        .as_ref()
        .ok_or("report requires --out DIR (a campaign directory)")?;
    let (store, manifest) = CampaignStore::open(dir)?;
    if flags.timeline {
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
    render(&flags, &spec, ingest.records)
}

fn cmd_scenarios(registry: &Registry) {
    // One source of truth with the server's GET /scenarios endpoint.
    print!("{}", grammar_help(registry));
}

fn render(
    flags: &Flags,
    spec: &CampaignSpec,
    records: Vec<disp_analysis::TrialRecord>,
) -> Result<(), String> {
    let sections = section_measurements(spec, records);
    if let Some(csv_dir) = &flags.csv {
        std::fs::create_dir_all(csv_dir)
            .map_err(|e| format!("create {}: {e}", csv_dir.display()))?;
        for (section, ms) in &sections {
            let path = csv_dir.join(format!("{}.csv", section.name));
            std::fs::write(&path, render_section_csv(ms))
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            println!("wrote {} ({} rows)", path.display(), ms.len());
        }
        return Ok(());
    }
    if flags.format == Format::Json {
        println!(
            "{}",
            campaign_report_json(spec, &sections).to_string_compact()
        );
        return Ok(());
    }
    println!("# Campaign {} ({} mode)\n", spec.name, spec.mode.label());
    for (section, ms) in &sections {
        println!("{}", render_section_markdown(section, ms));
    }
    Ok(())
}
