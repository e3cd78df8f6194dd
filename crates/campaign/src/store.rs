//! The on-disk campaign store: a manifest plus an append-only JSONL trial
//! log with per-line flushing, giving crash-tolerant checkpoint/resume.
//!
//! Layout of a campaign directory:
//!
//! ```text
//! out/
//!   manifest.json   — campaign name, mode, seed, grid fingerprint, total
//!   trials.jsonl    — one TrialRecord per line, appended as trials finish
//! ```
//!
//! A killed run leaves a valid prefix of `trials.jsonl` (the final line may
//! be torn; ingestion skips it). `resume` reopens the directory, verifies
//! the manifest fingerprint against the rebuilt grid, and appends only the
//! missing trials.
//!
//! The trial pipeline ([`crate::run`]) sees a store only through the
//! [`TrialStore`] seam; [`Checkpoint`] is this directory behind it.

use crate::grid::{CampaignSpec, Mode, Section, SlotId, TrialSpec};
use disp_analysis::experiment::ExperimentPoint;
use disp_analysis::json::Json;
use disp_analysis::jsonl::{self, Ingest};
use disp_analysis::TrialRecord;
use disp_core::scenario::ScenarioSpec;
use std::collections::HashMap;
use std::fs::File;
use std::io::{BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// One section of a persisted campaign: its name/title plus every scenario
/// as a canonical label with its repetition count.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ManifestSection {
    /// Section name.
    pub name: String,
    /// Section title (report heading).
    pub title: String,
    /// `(canonical scenario label, repetitions)` pairs, in grid order.
    pub entries: Vec<(String, usize)>,
}

/// The persisted identity of a campaign run.
///
/// The manifest speaks canonical scenario labels: the full grid is stored,
/// so `resume`/`report` rebuild *exactly* the campaign that was started —
/// named or ad-hoc — without consulting `CampaignSpec::by_name`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Manifest {
    /// Campaign name (informational; `custom` for `--scenario` grids).
    pub campaign: String,
    /// Sweep size preset (informational).
    pub mode: Mode,
    /// Campaign seed.
    pub seed: u64,
    /// Fingerprint of the expanded grid (see `CampaignSpec::grid_hash`),
    /// itself derived from the canonical labels below.
    pub grid_hash: u64,
    /// Total number of trials in the grid.
    pub total_trials: usize,
    /// The full grid, as canonical labels.
    pub sections: Vec<ManifestSection>,
}

impl Manifest {
    /// Build the manifest describing `spec`.
    pub fn of(spec: &CampaignSpec) -> Manifest {
        Manifest {
            campaign: spec.name.clone(),
            mode: spec.mode,
            seed: spec.seed,
            grid_hash: spec.grid_hash(),
            total_trials: spec.trials().len(),
            sections: spec
                .sections
                .iter()
                .map(|s| ManifestSection {
                    name: s.name.clone(),
                    title: s.title.clone(),
                    entries: s
                        .points
                        .iter()
                        .map(|p| (p.point_id(), p.repetitions))
                        .collect(),
                })
                .collect(),
        }
    }

    /// Rebuild the campaign spec this manifest describes, by parsing the
    /// stored canonical labels.
    pub fn rebuild_spec(&self) -> Result<CampaignSpec, String> {
        let sections = self
            .sections
            .iter()
            .map(|ms| {
                let points = ms
                    .entries
                    .iter()
                    .map(|(label, reps)| {
                        ScenarioSpec::from_label(label)
                            .map(|scenario| ExperimentPoint::new(scenario, *reps))
                            .map_err(|e| format!("manifest: {e}"))
                    })
                    .collect::<Result<Vec<_>, String>>()?;
                Ok(Section {
                    name: ms.name.clone(),
                    title: ms.title.clone(),
                    points,
                })
            })
            .collect::<Result<Vec<_>, String>>()?;
        let spec = CampaignSpec {
            name: self.campaign.clone(),
            mode: self.mode,
            seed: self.seed,
            sections,
        };
        if spec.grid_hash() != self.grid_hash {
            return Err(format!(
                "grid fingerprint mismatch: manifest has {:#x}, rebuilt grid has {:#x} \
                 (the stored labels do not reproduce the recorded grid)",
                self.grid_hash,
                spec.grid_hash()
            ));
        }
        Ok(spec)
    }

    fn to_json(&self) -> Json {
        Json::Obj(vec![
            ("campaign".into(), Json::Str(self.campaign.clone())),
            ("mode".into(), Json::Str(self.mode.label().to_string())),
            // Seeds and fingerprints are full-range u64s; JSON numbers are
            // f64 and would round them, so both use the lossless encoding.
            ("seed".into(), Json::from_u64_lossless(self.seed)),
            ("grid_hash".into(), Json::from_u64_lossless(self.grid_hash)),
            ("total_trials".into(), Json::Num(self.total_trials as f64)),
            (
                "sections".into(),
                Json::Arr(
                    self.sections
                        .iter()
                        .map(|s| {
                            Json::Obj(vec![
                                ("name".into(), Json::Str(s.name.clone())),
                                ("title".into(), Json::Str(s.title.clone())),
                                (
                                    "entries".into(),
                                    Json::Arr(
                                        s.entries
                                            .iter()
                                            .map(|(label, reps)| {
                                                Json::Obj(vec![
                                                    ("scenario".into(), Json::Str(label.clone())),
                                                    ("reps".into(), Json::Num(*reps as f64)),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
        ])
    }

    fn from_json(v: &Json) -> Result<Manifest, String> {
        let mode_label = v
            .get("mode")
            .and_then(Json::as_str)
            .ok_or("manifest: missing mode")?;
        let sections = match v.get("sections") {
            Some(Json::Arr(items)) => items
                .iter()
                .map(|item| {
                    if item.as_str().is_some() {
                        // Pre-scenario manifests stored bare section names;
                        // their grids cannot be rebuilt from labels.
                        return Err(
                            "manifest: pre-scenario campaign directory (sections carry no \
                             scenario labels); re-run the campaign with this version"
                                .to_string(),
                        );
                    }
                    let entries = match item.get("entries") {
                        Some(Json::Arr(es)) => es
                            .iter()
                            .map(|e| {
                                let label = e
                                    .get("scenario")
                                    .and_then(Json::as_str)
                                    .ok_or("manifest: entry missing scenario")?
                                    .to_string();
                                let reps = e
                                    .get("reps")
                                    .and_then(Json::as_u64)
                                    .ok_or("manifest: entry missing reps")?
                                    as usize;
                                Ok((label, reps))
                            })
                            .collect::<Result<Vec<_>, String>>()?,
                        _ => return Err("manifest: section missing entries".to_string()),
                    };
                    Ok(ManifestSection {
                        name: item
                            .get("name")
                            .and_then(Json::as_str)
                            .ok_or("manifest: section missing name")?
                            .to_string(),
                        title: item
                            .get("title")
                            .and_then(Json::as_str)
                            .ok_or("manifest: section missing title")?
                            .to_string(),
                        entries,
                    })
                })
                .collect::<Result<Vec<_>, String>>()?,
            _ => Vec::new(),
        };
        Ok(Manifest {
            campaign: v
                .get("campaign")
                .and_then(Json::as_str)
                .ok_or("manifest: missing campaign")?
                .to_string(),
            mode: Mode::from_label(mode_label)
                .ok_or_else(|| format!("manifest: unknown mode '{mode_label}'"))?,
            seed: v
                .get("seed")
                .and_then(Json::as_u64_lossless)
                .ok_or("manifest: missing seed")?,
            grid_hash: v
                .get("grid_hash")
                .and_then(Json::as_u64_lossless)
                .ok_or("manifest: missing grid_hash")?,
            total_trials: v
                .get("total_trials")
                .and_then(Json::as_u64)
                .ok_or("manifest: missing total_trials")? as usize,
            sections,
        })
    }
}

/// Handle to a campaign directory.
#[derive(Debug)]
pub struct CampaignStore {
    dir: PathBuf,
}

impl CampaignStore {
    /// Create a fresh store for `spec` in `dir` (creating the directory).
    ///
    /// Refuses to overwrite an existing manifest unless `force` — a
    /// half-finished campaign is valuable state; clobbering it should be
    /// explicit.
    pub fn create(dir: &Path, spec: &CampaignSpec, force: bool) -> Result<CampaignStore, String> {
        let store = CampaignStore {
            dir: dir.to_path_buf(),
        };
        // Guard on the trial log as well as the manifest: a directory whose
        // manifest was lost but whose log holds completed trials is still a
        // campaign worth protecting from silent truncation.
        if !force && (store.manifest_path().exists() || store.trials_path().exists()) {
            return Err(format!(
                "{} already contains a campaign (use `resume`, or --force to overwrite)",
                dir.display()
            ));
        }
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let manifest = Manifest::of(spec);
        std::fs::write(
            store.manifest_path(),
            manifest.to_json().to_string_compact() + "\n",
        )
        .map_err(|e| format!("write manifest: {e}"))?;
        // Truncate any stale trial log from a --force overwrite.
        File::create(store.trials_path()).map_err(|e| format!("create trial log: {e}"))?;
        Ok(store)
    }

    /// Open an existing store and parse its manifest.
    pub fn open(dir: &Path) -> Result<(CampaignStore, Manifest), String> {
        let store = CampaignStore {
            dir: dir.to_path_buf(),
        };
        let text = std::fs::read_to_string(store.manifest_path())
            .map_err(|e| format!("read {}: {e}", store.manifest_path().display()))?;
        let manifest = Manifest::from_json(&Json::parse(text.trim())?)?;
        Ok((store, manifest))
    }

    /// The campaign directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Path of the manifest file.
    pub fn manifest_path(&self) -> PathBuf {
        self.dir.join("manifest.json")
    }

    /// Path of the JSONL trial log.
    pub fn trials_path(&self) -> PathBuf {
        self.dir.join("trials.jsonl")
    }

    /// Path of the telemetry *sidecar* (`events.jsonl`). Trial lifecycle
    /// events with wall-clock timing land here — never in `trials.jsonl`,
    /// which stays a pure function of `(grid, seed)`. The sidecar is
    /// informational: `resume` neither reads nor fingerprints it, and each
    /// telemetered run truncates and rewrites it.
    pub fn events_path(&self) -> PathBuf {
        self.dir.join("events.jsonl")
    }

    /// Path of the flight-recorder *sidecar* (`timelines.jsonl`). One
    /// decimated per-trial timeline chunk per executed trial lands here
    /// under `--timeline` — never in `trials.jsonl`, which stays a pure
    /// function of `(grid, seed)`. Like `events.jsonl`, the sidecar is
    /// informational: `resume` neither reads nor fingerprints it.
    pub fn timelines_path(&self) -> PathBuf {
        self.dir.join("timelines.jsonl")
    }

    /// Stream the trial log (tolerating a torn tail).
    pub fn read_trials(&self) -> Result<Ingest, String> {
        let file = File::open(self.trials_path())
            .map_err(|e| format!("read {}: {e}", self.trials_path().display()))?;
        jsonl::read_trials(BufReader::new(file)).map_err(|e| e.to_string())
    }

    /// Open this directory as the pipeline's store: the records already in
    /// `trials.jsonl` answer lookups (the resume scan), and an appender
    /// takes every fresh record.
    pub fn checkpoint(&self) -> Result<Checkpoint, String> {
        let records = if self.trials_path().exists() {
            self.read_trials()?.records
        } else {
            Vec::new()
        };
        Ok(Checkpoint {
            held: records.into_iter().map(|r| (r.trial_id(), r)).collect(),
            writer: self.appender()?,
        })
    }

    /// An appending, per-line-flushing trial writer (shareable across
    /// worker threads).
    ///
    /// If the log ends in a torn line (a kill mid-write leaves no trailing
    /// newline), a newline is emitted first so the next record starts on a
    /// fresh line instead of merging into — and thereby corrupting — the
    /// torn one.
    pub fn appender(&self) -> Result<TrialWriter, String> {
        let path = self.trials_path();
        let file = jsonl::open_append_with_repair(&path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        Ok(TrialWriter {
            inner: Mutex::new(BufWriter::new(file)),
        })
    }
}

/// Thread-safe appending writer for trial records.
#[derive(Debug)]
pub struct TrialWriter {
    inner: Mutex<BufWriter<File>>,
}

impl TrialWriter {
    /// Append one record and flush, so a kill loses at most in-flight
    /// trials.
    pub fn append(&self, record: &TrialRecord) {
        let mut w = self.inner.lock().unwrap();
        // An I/O failure mid-campaign should abort loudly, not silently
        // drop checkpoints.
        writeln!(w, "{}", record.to_json_line()).expect("append trial record");
        w.flush().expect("flush trial record");
    }
}

/// What a `cached` event and a job's per-point statistics read of a held
/// trial's outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TrialSummary {
    /// Rounds (SYNC) or epochs (ASYNC).
    pub time: u64,
    /// Total edge traversals.
    pub total_moves: u64,
    /// Whether the final configuration is a dispersion.
    pub dispersed: bool,
}

impl TrialSummary {
    /// The summary of `record`'s outcome.
    pub fn of(record: &TrialRecord) -> TrialSummary {
        TrialSummary {
            time: record.outcome.time(),
            total_moves: record.outcome.total_moves,
            dispersed: record.dispersed,
        }
    }
}

/// A finished trial as a store hands it out, in the form the store keeps.
#[derive(Debug, Clone)]
pub enum Held {
    /// A decoded record (the campaign checkpoint keeps these).
    Record(Box<TrialRecord>),
    /// A record line, byte-identical to [`TrialRecord::to_json_line`] of
    /// the record the requesting grid would produce, shared with the store
    /// that keeps it, and its outcome summary (the trial cache keeps
    /// these).
    Line(Arc<str>, TrialSummary),
}

impl Held {
    /// The outcome summary events report.
    pub fn summary(&self) -> TrialSummary {
        match self {
            Held::Record(record) => TrialSummary::of(record),
            Held::Line(_, summary) => *summary,
        }
    }

    /// The record, decoding a held line.
    pub fn into_record(self) -> Result<TrialRecord, String> {
        match self {
            Held::Record(record) => Ok(*record),
            Held::Line(line, _) => TrialRecord::from_json_line(&line),
        }
    }

    /// Append the record line (no newline) to `out`: a copy of a held
    /// line, or the encoding of a held record.
    pub fn write_line(&self, out: &mut String) {
        match self {
            Held::Record(record) => record.write_json_line(out),
            Held::Line(line, _) => out.push_str(line),
        }
    }
}

/// A store of finished trials — the trial pipeline's one lookup/insert
/// seam, implemented by the campaign [`Checkpoint`] and by the service's
/// content-addressed trial cache.
pub trait TrialStore: Sync {
    /// The finished trial in slot `trial`, named `slot`, if held — its
    /// line byte-identical to what executing it in this grid would
    /// produce.
    fn lookup(&self, trial: &TrialSpec, slot: SlotId) -> Option<Held>;
    /// Keep one freshly executed record. Called once per record, on the
    /// engine thread that ran it, as soon as it finishes.
    fn insert(&self, record: &TrialRecord);
}

/// A campaign directory opened as a [`TrialStore`] (see
/// [`CampaignStore::checkpoint`]): lookups by trial id against the records
/// on disk when it was opened, inserts appended and flushed one line each.
#[derive(Debug)]
pub struct Checkpoint {
    held: HashMap<String, TrialRecord>,
    writer: TrialWriter,
}

impl TrialStore for Checkpoint {
    fn lookup(&self, _: &TrialSpec, slot: SlotId) -> Option<Held> {
        let record = self.held.get(slot.id)?;
        Some(Held::Record(Box::new(record.clone())))
    }

    fn insert(&self, record: &TrialRecord) {
        self.writer.append(record);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use disp_core::scenario::Registry;
    use disp_graph::generators::GraphFamily;
    use disp_sim::Placement;
    use std::sync::atomic::{AtomicU64, Ordering};

    fn tmp_dir(tag: &str) -> PathBuf {
        static NEXT: AtomicU64 = AtomicU64::new(0);
        let id = NEXT.fetch_add(1, Ordering::Relaxed);
        std::env::temp_dir().join(format!(
            "disp-campaign-test-{}-{tag}-{id}",
            std::process::id()
        ))
    }

    #[test]
    fn manifest_round_trips() {
        let spec = CampaignSpec::table1(Mode::Quick, 9);
        let m = Manifest::of(&spec);
        let back =
            Manifest::from_json(&Json::parse(&m.to_json().to_string_compact()).unwrap()).unwrap();
        assert_eq!(back, m);
        let rebuilt = back.rebuild_spec().unwrap();
        assert_eq!(rebuilt.grid_hash(), spec.grid_hash());
    }

    #[test]
    fn create_open_append_and_resume_scan() {
        let dir = tmp_dir("store");
        let spec = CampaignSpec::table1(Mode::Quick, 5);
        let store = CampaignStore::create(&dir, &spec, false).unwrap();
        // Second create without force refuses; with force succeeds.
        assert!(CampaignStore::create(&dir, &spec, false).is_err());

        let trials = spec.trials();
        let writer = store.appender().unwrap();
        let rec = trials[0]
            .point
            .run_trial(&Registry::builtin(), trials[0].rep, trials[0].seed);
        writer.append(&rec);
        drop(writer);

        let (store2, manifest) = CampaignStore::open(&dir).unwrap();
        assert_eq!(manifest.campaign, "table1");
        assert_eq!(manifest.total_trials, trials.len());
        let checkpoint = store2.checkpoint().unwrap();
        let lookup = |t: &TrialSpec| {
            let id = t.trial_id();
            let held = checkpoint.lookup(t, SlotId::of(&id, t.rep));
            held.map(|h| h.into_record().unwrap())
        };
        assert_eq!(lookup(&trials[0]), Some(rec));
        assert_eq!(lookup(&trials[1]), None);
        drop(checkpoint);

        // A torn tail is tolerated.
        use std::fs::OpenOptions;
        use std::io::Write as _;
        let mut f = OpenOptions::new()
            .append(true)
            .open(store2.trials_path())
            .unwrap();
        write!(f, "{{\"point\":").unwrap();
        drop(f);
        let ingest = store2.read_trials().unwrap();
        assert_eq!(ingest.records.len(), 1);
        assert_eq!(ingest.malformed, 1);

        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn manifest_preserves_seeds_above_2_pow_53() {
        let spec = CampaignSpec::mini(Mode::Quick, u64::MAX - 77);
        let m = Manifest::of(&spec);
        let back =
            Manifest::from_json(&Json::parse(&m.to_json().to_string_compact()).unwrap()).unwrap();
        assert_eq!(back.seed, u64::MAX - 77);
        // The fingerprint check passes, so such a campaign is resumable.
        back.rebuild_spec().unwrap();
    }

    #[test]
    fn create_refuses_an_orphaned_trial_log() {
        let dir = tmp_dir("orphan");
        let spec = CampaignSpec::mini(Mode::Quick, 3);
        let store = CampaignStore::create(&dir, &spec, false).unwrap();
        let t = &spec.trials()[0];
        store
            .appender()
            .unwrap()
            .append(&t.point.run_trial(&Registry::builtin(), t.rep, t.seed));
        // Lose the manifest but keep the checkpointed trials.
        std::fs::remove_file(store.manifest_path()).unwrap();
        let err = CampaignStore::create(&dir, &spec, false).unwrap_err();
        assert!(err.contains("already contains a campaign"), "{err}");
        // The log was not truncated by the refused create.
        assert_eq!(store.read_trials().unwrap().records.len(), 1);
        // --force still clobbers explicitly.
        CampaignStore::create(&dir, &spec, true).unwrap();
        assert_eq!(store.read_trials().unwrap().records.len(), 0);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn rebuild_spec_rejects_fingerprint_mismatch() {
        let spec = CampaignSpec::table1(Mode::Quick, 5);
        let mut m = Manifest::of(&spec);
        m.grid_hash ^= 1;
        let err = m.rebuild_spec().unwrap_err();
        assert!(err.contains("fingerprint mismatch"), "{err}");
    }

    #[test]
    fn custom_campaigns_rebuild_from_stored_labels_alone() {
        use disp_core::scenario::{ScenarioSpec, Schedule};
        let spec = CampaignSpec::custom(
            vec![
                ScenarioSpec::new(GraphFamily::Star, 8, "probe-dfs"),
                ScenarioSpec::new(GraphFamily::Grid, 12, "ks-dfs")
                    .with_placement(Placement::Clustered { clusters: 3 })
                    .with_schedule(Schedule::AsyncRandom { prob: 0.7 }),
            ],
            2,
            9,
        );
        let m = Manifest::of(&spec);
        let text = m.to_json().to_string_compact();
        let back = Manifest::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, m);
        let rebuilt = back.rebuild_spec().unwrap();
        assert_eq!(rebuilt.grid_hash(), spec.grid_hash());
        let ids =
            |s: &CampaignSpec| -> Vec<String> { s.trials().iter().map(|t| t.trial_id()).collect() };
        assert_eq!(ids(&rebuilt), ids(&spec));
    }

    #[test]
    fn pre_scenario_manifests_are_rejected_with_a_clear_message() {
        let legacy = r#"{"campaign":"mini","mode":"quick","seed":"0000000000000007","grid_hash":"0000000000000001","total_trials":40,"sections":["mini-sync","mini-async"]}"#;
        let err = Manifest::from_json(&Json::parse(legacy).unwrap()).unwrap_err();
        assert!(err.contains("pre-scenario"), "{err}");
    }
}
