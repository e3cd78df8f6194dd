//! Streaming JSONL ingestion and merge of partial campaign results.
//!
//! The campaign engine appends one [`TrialRecord`] line per completed trial
//! and flushes after every line, so a killed run leaves a readable prefix —
//! possibly ending in a torn final line. Ingestion therefore tolerates (and
//! counts) malformed lines instead of failing; merge tolerates duplicate
//! trials (the last occurrence wins, matching "append after resume"
//! semantics).

use crate::experiment::{Measurement, TrialRecord};
use std::collections::BTreeMap;
use std::fs::{File, OpenOptions};
use std::io::BufRead;
use std::path::Path;

/// Result of streaming a JSONL trial file.
#[derive(Debug, Clone, Default)]
pub struct Ingest {
    /// Successfully parsed records, in file order.
    pub records: Vec<TrialRecord>,
    /// Number of non-empty lines that failed to parse (torn tail writes).
    pub malformed: usize,
}

/// Read trial records from a JSONL stream.
pub fn read_trials(reader: impl BufRead) -> std::io::Result<Ingest> {
    let mut ingest = Ingest::default();
    for line in reader.lines() {
        let line = line?;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        match TrialRecord::from_json_line(trimmed) {
            Ok(rec) => ingest.records.push(rec),
            Err(_) => ingest.malformed += 1,
        }
    }
    Ok(ingest)
}

/// Open a JSONL log for appending, repairing a torn tail first.
///
/// A kill mid-write can leave the final line without a trailing newline; a
/// naive append would merge the next record into the torn line and corrupt
/// *both*. If the file's last byte is not `\n`, a newline is emitted before
/// returning, so the next record starts on a fresh line. O(1): only the
/// final byte is read. Shared by the campaign store's trial log and the
/// serve trial cache — one durability-critical routine, one copy.
pub fn open_append_with_repair(path: &Path) -> std::io::Result<File> {
    use std::io::{Read, Seek, SeekFrom, Write};
    let needs_newline = File::open(path)
        .and_then(|mut f| {
            if f.seek(SeekFrom::End(0))? == 0 {
                return Ok(false);
            }
            f.seek(SeekFrom::End(-1))?;
            let mut last = [0u8; 1];
            f.read_exact(&mut last)?;
            Ok(last[0] != b'\n')
        })
        .unwrap_or(false);
    let mut file = OpenOptions::new().create(true).append(true).open(path)?;
    if needs_newline {
        writeln!(file)?;
    }
    Ok(file)
}

/// Deduplicate records by trial id (last occurrence wins) and return them
/// in a deterministic order (by trial id).
pub fn dedup_trials(records: Vec<TrialRecord>) -> Vec<TrialRecord> {
    let mut by_id: BTreeMap<String, TrialRecord> = BTreeMap::new();
    for rec in records {
        by_id.insert(rec.trial_id(), rec);
    }
    by_id.into_values().collect()
}

/// Merge (possibly partial) trial records into per-point measurements.
///
/// Records are grouped by [`crate::experiment::ExperimentPoint::point_id`];
/// within a group, repetitions are sorted by `rep` so the aggregate is
/// independent of completion order. Points with fewer completed repetitions
/// than requested still produce a measurement (over what exists) — callers
/// that care can compare `trials` against `point.repetitions`.
pub fn merge_trials(records: Vec<TrialRecord>) -> Vec<Measurement> {
    let mut groups: BTreeMap<String, Vec<TrialRecord>> = BTreeMap::new();
    for rec in dedup_trials(records) {
        groups.entry(rec.point.point_id()).or_default().push(rec);
    }
    groups
        .into_values()
        .map(|mut trials| {
            trials.sort_by_key(|t| t.rep);
            let point = trials[0].point.clone();
            Measurement::from_trials(&point, &trials)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::ExperimentPoint;
    use disp_core::scenario::{Registry, ScenarioSpec};
    use disp_graph::generators::GraphFamily;
    use std::io::Cursor;

    fn point(k: usize) -> ExperimentPoint {
        ExperimentPoint::new(ScenarioSpec::new(GraphFamily::Star, k, "probe-dfs"), 2)
    }

    #[test]
    fn reads_skips_torn_lines_and_merges() {
        let reg = Registry::builtin();
        let r0 = point(8).run_trial(&reg, 0, 1);
        let r1 = point(8).run_trial(&reg, 1, 2);
        let other = point(16).run_trial(&reg, 0, 3);
        let file = format!(
            "{}\n{}\n{}\n{{\"torn\": tru",
            r0.to_json_line(),
            r1.to_json_line(),
            other.to_json_line()
        );
        let ingest = read_trials(Cursor::new(file)).unwrap();
        assert_eq!(ingest.records.len(), 3);
        assert_eq!(ingest.malformed, 1);
        let merged = merge_trials(ingest.records);
        assert_eq!(merged.len(), 2);
        let m8 = merged.iter().find(|m| m.point.scenario.k == 8).unwrap();
        assert_eq!(
            m8.time_mean,
            (r0.outcome.time() as f64 + r1.outcome.time() as f64) / 2.0
        );
    }

    #[test]
    fn duplicate_trials_collapse_to_the_last_write() {
        let reg = Registry::builtin();
        let a = point(8).run_trial(&reg, 0, 1);
        let b = point(8).run_trial(&reg, 0, 99); // same trial id, different seed
        let deduped = dedup_trials(vec![a, b.clone()]);
        assert_eq!(deduped.len(), 1);
        assert_eq!(deduped[0].seed, b.seed);
    }

    #[test]
    fn merge_is_independent_of_record_order() {
        let reg = Registry::builtin();
        let r0 = point(8).run_trial(&reg, 0, 1);
        let r1 = point(8).run_trial(&reg, 1, 2);
        let fwd = merge_trials(vec![r0.clone(), r1.clone()]);
        let rev = merge_trials(vec![r1, r0]);
        assert_eq!(fwd.len(), rev.len());
        assert_eq!(fwd[0].time_mean, rev[0].time_mean);
        assert_eq!(fwd[0].time_min, rev[0].time_min);
    }
}
