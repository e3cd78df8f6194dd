//! The content-addressed trial cache — the cluster's shared storage tier.
//!
//! PR 2 made every trial a pure function of its *content identity* — the
//! canonical scenario label, the campaign seed and the repetition index:
//! the derived trial seed is `mix(campaign_seed, fnv1a(label), rep)`
//! ([`disp_campaign::grid::trial_seed`]) and the outcome is a deterministic
//! function of `(label, trial seed)`. That makes trial results perfectly
//! cacheable across submissions: any two requests that mention the same
//! `(label, seed, rep)` — in the same job, in overlapping jobs, or days
//! apart — denote byte-identical records.
//!
//! The cache address is exactly that content triple, carried as
//! `(label, rep, derived trial seed)` — the form every [`TrialRecord`]
//! already stores, so the cache re-derives its own keys from its persisted
//! records (content-addressing in both directions). Persistence layers over
//! the same JSONL trial log the campaign store uses: one record per line,
//! flushed per insert, torn tails tolerated on load, duplicate keys
//! collapsed. A cache directory is therefore inspectable (and greppable)
//! with the exact tooling that reads campaign checkpoints.
//!
//! The one field of a record that is *not* content is the grid's
//! advertised repetition count (`"repetitions"`), which only describes the
//! submitting grid. [`TrialCache::lookup`] rewrites it to the requesting
//! grid's value, so a cache hit is byte-identical to what a fresh offline
//! run of the requesting grid would have produced.
//!
//! # The promoted tier (PR 7)
//!
//! Serving a cluster promotes the cache from "a map with a log" to a real
//! storage tier:
//!
//! - **Budgets.** The in-memory index is a bounded LRU under a
//!   [`CacheBudget`] (entry count *and* byte size). Eviction drops the
//!   least-recently-used record from memory only — the on-disk log keeps
//!   it, and the cluster's digest reconciliation lets a worker re-supply an
//!   evicted record without re-executing it.
//! - **Bounded log growth.** Appends are suppressed for keys already on
//!   disk (tracked by a key-digest set), so repeated overlapping
//!   submissions no longer grow `cache.jsonl` without bound.
//! - **Compaction.** [`TrialCache::compact`] (online) and [`compact_file`]
//!   (offline, `disp-serve compact`) rewrite the live entries — first
//!   occurrence per key, original bytes preserved — to `cache.jsonl.new`
//!   and atomically rename it over the log. The rename is the commit
//!   point: a crash before it leaves the old log intact, a stale
//!   `cache.jsonl.new` is removed on open. Logs whose dead-entry ratio
//!   exceeds one half are compacted automatically on open.

use disp_analysis::jsonl;
use disp_analysis::TrialRecord;
use disp_campaign::grid::{SlotId, TrialSpec};
use disp_campaign::store::{Held, TrialStore, TrialSummary};
use disp_rng::{fnv1a, mix};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fmt::Write as _;
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// The 64-bit digest of a trial's content identity `(label, rep, seed)`:
/// the memory index's map key and the on-disk key set's element.
fn key_digest(label: &str, rep: usize, seed: u64) -> u64 {
    mix(&[fnv1a(label.as_bytes()), rep as u64, seed])
}

/// Render `record`'s canonical label into `buf` (cleared first).
fn label_into<'a>(buf: &'a mut String, record: &TrialRecord) -> &'a str {
    buf.clear();
    let _ = write!(buf, "{}", record.point.scenario);
    buf
}

/// Budgets for the in-memory index and the compaction trigger.
#[derive(Debug, Clone, Copy)]
pub struct CacheBudget {
    /// Maximum records held in memory (≥ 1 is always retained).
    pub max_entries: usize,
    /// Maximum total JSONL bytes held in memory (≥ 1 record is always
    /// retained, even when it alone exceeds the budget).
    pub max_bytes: usize,
    /// Logs shorter than this are never auto-compacted (compacting a
    /// 10-line log saves nothing and churns the disk).
    pub compact_min_lines: u64,
}

impl Default for CacheBudget {
    fn default() -> CacheBudget {
        CacheBudget {
            max_entries: 1 << 20,
            max_bytes: 512 << 20,
            compact_min_lines: 1024,
        }
    }
}

/// Statistics from one compaction pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactStats {
    /// Parseable lines read from the old log.
    pub lines_in: u64,
    /// Live (first-occurrence) lines written to the new log.
    pub lines_kept: u64,
    /// Bytes of the old log.
    pub bytes_in: u64,
    /// Bytes of the new log.
    pub bytes_out: u64,
}

/// One trial in memory: its record line, the few outcome fields events
/// read, and its LRU bookkeeping.
#[derive(Debug)]
struct Entry {
    /// The key's label, rep and seed: the map is keyed by their digest,
    /// and a digest alone could collide.
    label: Box<str>,
    rep: usize,
    seed: u64,
    /// The record line as this cache wrote or read it — the bytes
    /// `cache.jsonl` holds. Its length is the byte-budget unit.
    line: Arc<str>,
    /// The repetition count the line advertises.
    repetitions: usize,
    /// Whether `line` is exactly its record's `to_json_line()`: known for
    /// every line this cache encoded; for a line read from the log, found
    /// out when it is first served, so opening the log encodes nothing.
    canonical: Option<bool>,
    summary: TrialSummary,
    /// Stamp of this entry's newest position in the LRU queue; queue
    /// positions with older stamps are stale and skipped.
    stamp: u64,
}

impl Entry {
    fn new(label: &str, record: &TrialRecord, line: Arc<str>, canonical: Option<bool>) -> Entry {
        Entry {
            label: label.into(),
            rep: record.rep,
            seed: record.seed,
            line,
            repetitions: record.point.repetitions,
            canonical,
            summary: TrialSummary::of(record),
            stamp: 0,
        }
    }

    fn is(&self, label: &str, rep: usize, seed: u64) -> bool {
        (self.rep, self.seed) == (rep, seed) && *self.label == *label
    }

    /// Whether `line` can be served as it is to a grid of `repetitions`.
    fn verbatim(&mut self, repetitions: usize) -> bool {
        if self.repetitions != repetitions {
            return false;
        }
        *self.canonical.get_or_insert_with(|| {
            TrialRecord::from_json_line(&self.line).is_ok_and(|r| r.to_json_line() == *self.line)
        })
    }
}

/// The bounded in-memory index.
#[derive(Debug, Default)]
struct MemIndex {
    entries: HashMap<u64, Entry>,
    /// `(stamp, key digest)` pairs, oldest first. Touches push a fresh
    /// stamp instead of removing the old position (lazy invalidation).
    lru: VecDeque<(u64, u64)>,
    total_bytes: usize,
    next_stamp: u64,
}

impl MemIndex {
    fn touch(&mut self, digest: u64) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if let Some(e) = self.entries.get_mut(&digest) {
            e.stamp = stamp;
            self.lru.push_back((stamp, digest));
            self.prune();
        }
    }

    /// Insert `entry` under `digest` and evict LRU entries until the
    /// budget holds again. Returns the number of evictions.
    fn insert(&mut self, digest: u64, mut entry: Entry, budget: &CacheBudget) -> u64 {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        entry.stamp = stamp;
        self.lru.push_back((stamp, digest));
        self.total_bytes += entry.line.len();
        self.entries.insert(digest, entry);
        let mut evicted = 0;
        while (self.entries.len() > budget.max_entries || self.total_bytes > budget.max_bytes)
            && self.entries.len() > 1
        {
            let Some((stamp, digest)) = self.lru.pop_front() else {
                break;
            };
            let live = self.entries.get(&digest).is_some_and(|e| e.stamp == stamp);
            if live {
                let e = self.entries.remove(&digest).unwrap();
                self.total_bytes -= e.line.len();
                evicted += 1;
            }
        }
        self.prune();
        evicted
    }

    /// Lazy invalidation lets the queue accumulate stale positions; prune
    /// when they clearly dominate the live set.
    fn prune(&mut self) {
        if self.lru.len() > 2 * self.entries.len() + 64 {
            let entries = &self.entries;
            self.lru
                .retain(|(stamp, digest)| entries.get(digest).is_some_and(|e| e.stamp == *stamp));
        }
    }
}

/// The append-only persistence layer.
#[derive(Debug)]
struct DiskLog {
    writer: BufWriter<File>,
    path: PathBuf,
    /// Parseable lines currently in the log.
    lines: u64,
    /// Lines whose key already appeared earlier in the log (compaction
    /// would drop them).
    dead: u64,
    /// Key digests of every line in the log — the append suppressor.
    keys: HashSet<u64>,
}

/// A thread-safe, optionally persistent map from trial content identity to
/// the completed trial's record line, with an LRU-bounded memory index and
/// a compacting JSONL log.
#[derive(Debug)]
pub struct TrialCache {
    mem: Mutex<MemIndex>,
    /// Append-only JSONL log (absent for a purely in-memory cache).
    disk: Option<Mutex<DiskLog>>,
    budget: CacheBudget,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    /// Unparseable log lines skipped on open.
    skipped: u64,
}

impl TrialCache {
    /// An in-memory cache (tests, `--cache-dir`-less servers) under the
    /// default budget.
    pub fn in_memory() -> TrialCache {
        TrialCache::in_memory_with(CacheBudget::default())
    }

    /// An in-memory cache under an explicit budget.
    pub fn in_memory_with(budget: CacheBudget) -> TrialCache {
        TrialCache {
            mem: Mutex::new(MemIndex::default()),
            disk: None,
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            skipped: 0,
        }
    }

    /// Open (or create) a persistent cache in `dir` under the default
    /// budget. See [`TrialCache::open_with`].
    pub fn open(dir: &Path) -> Result<TrialCache, String> {
        TrialCache::open_with(dir, CacheBudget::default())
    }

    /// Open (or create) a persistent cache in `dir`, loading records from
    /// `dir/cache.jsonl` into the memory index (oldest evicted first when
    /// the budget is exceeded). Torn tails — a kill mid-append — are
    /// tolerated exactly as in the campaign store; duplicate keys collapse
    /// to the first occurrence (all occurrences are byte-identical by
    /// construction, so the choice is immaterial). A stale
    /// `cache.jsonl.new` from a compaction that died before its rename is
    /// removed — the rename is the commit point, so the old log is still
    /// the authoritative one. Logs with a dead-entry ratio above one half
    /// are compacted before the appender opens.
    pub fn open_with(dir: &Path, budget: CacheBudget) -> Result<TrialCache, String> {
        std::fs::create_dir_all(dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
        let path = dir.join("cache.jsonl");
        let stale = dir.join("cache.jsonl.new");
        if stale.exists() {
            std::fs::remove_file(&stale)
                .map_err(|e| format!("remove stale {}: {e}", stale.display()))?;
        }
        let mut mem = MemIndex::default();
        let mut keys = HashSet::new();
        let mut lines = 0u64;
        let mut dead = 0u64;
        let mut evictions = 0u64;
        let mut skipped = 0u64;
        if path.exists() {
            let file = File::open(&path).map_err(|e| format!("read {}: {e}", path.display()))?;
            let mut reader = BufReader::new(file);
            // One buffer each for the line and its label, reused across
            // the log.
            let (mut line, mut label) = (String::new(), String::new());
            loop {
                line.clear();
                let read = reader
                    .read_line(&mut line)
                    .map_err(|e| format!("read {}: {e}", path.display()))?;
                if read == 0 {
                    break;
                }
                let trimmed = line.trim();
                if trimmed.is_empty() {
                    continue;
                }
                // Malformed lines (torn tails) are skipped, like the
                // campaign store's ingest, and counted.
                let Ok(rec) = TrialRecord::from_json_line(trimmed) else {
                    skipped += 1;
                    continue;
                };
                lines += 1;
                let label = label_into(&mut label, &rec);
                let digest = key_digest(label, rec.rep, rec.seed);
                if !keys.insert(digest) {
                    dead += 1;
                    continue;
                }
                // The line is kept as read.
                let entry = Entry::new(label, &rec, trimmed.into(), None);
                evictions += mem.insert(digest, entry, &budget);
            }
        }
        if lines >= budget.compact_min_lines && dead * 2 > lines {
            let stats = compact_file(&path)?;
            lines = stats.lines_kept;
            dead = 0;
        }
        // Same torn-tail repair as the campaign store's appender (shared
        // helper: a kill mid-append must not merge the next record into
        // the torn line).
        let file = jsonl::open_append_with_repair(&path)
            .map_err(|e| format!("open {}: {e}", path.display()))?;
        Ok(TrialCache {
            mem: Mutex::new(mem),
            disk: Some(Mutex::new(DiskLog {
                writer: BufWriter::new(file),
                path,
                lines,
                dead,
                keys,
            })),
            budget,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(evictions),
            skipped,
        })
    }

    /// Look up the record for `(label, rep, seed)`, counting a hit or miss
    /// and refreshing the entry's LRU position.
    ///
    /// On a hit the returned record's advertised repetition count is
    /// rewritten to `repetitions` (see the module docs), making the record
    /// byte-identical to a fresh run of the requesting grid.
    pub fn lookup(
        &self,
        label: &str,
        rep: usize,
        seed: u64,
        repetitions: usize,
    ) -> Option<TrialRecord> {
        let found = self.find(label, rep, seed, repetitions, true);
        self.count(found.is_some());
        found.and_then(|(line, _)| TrialRecord::from_json_line(&line).ok())
    }

    /// [`TrialCache::lookup`] without the observability side effects (no
    /// hit/miss counting, no LRU refresh), as the record line the
    /// requesting grid is served, undecoded. Used by the cluster plumbing
    /// (reconciliation) so operator-facing counters keep meaning "a
    /// submission asked for this trial".
    pub fn peek(&self, label: &str, rep: usize, seed: u64, repetitions: usize) -> Option<Arc<str>> {
        self.find(label, rep, seed, repetitions, false)
            .map(|(line, _)| line)
    }

    /// The line to serve for `(label, rep, seed)` in a grid of
    /// `repetitions`, and its summary; `touch` refreshes its LRU position.
    /// A stored line is shared as is when it is exactly what encoding its
    /// record for that grid gives. A line written under another
    /// repetition count, or read from the log in an accepted but
    /// non-canonical spelling, is decoded and encoded again.
    fn find(
        &self,
        label: &str,
        rep: usize,
        seed: u64,
        repetitions: usize,
        touch: bool,
    ) -> Option<(Arc<str>, TrialSummary)> {
        let digest = key_digest(label, rep, seed);
        let (line, summary, verbatim) = {
            let mut mem = self.mem.lock().unwrap();
            let e = mem
                .entries
                .get_mut(&digest)
                .filter(|e| e.is(label, rep, seed))?;
            let found = (Arc::clone(&e.line), e.summary, e.verbatim(repetitions));
            if touch {
                mem.touch(digest);
            }
            found
        };
        if verbatim {
            return Some((line, summary));
        }
        let mut record = TrialRecord::from_json_line(&line).ok()?;
        record.point.repetitions = repetitions;
        Some((record.to_json_line().into(), summary))
    }

    fn count(&self, hit: bool) {
        let counter = if hit { &self.hits } else { &self.misses };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Insert a completed record (no-op if its key is already in memory)
    /// and, for persistent caches, append + flush it to `cache.jsonl` so a
    /// kill loses at most in-flight trials. Keys already on disk are not
    /// appended again — the suppression that keeps repeated overlapping
    /// submissions from growing the log without bound.
    pub fn insert(&self, record: &TrialRecord) {
        let mut label = String::new();
        let label = label_into(&mut label, record);
        let digest = key_digest(label, record.rep, record.seed);
        let line: Arc<str> = record.to_json_line().into();
        {
            let mut mem = self.mem.lock().unwrap();
            if mem.entries.contains_key(&digest) {
                return;
            }
            let entry = Entry::new(label, record, Arc::clone(&line), Some(true));
            let evicted = mem.insert(digest, entry, &self.budget);
            if evicted > 0 {
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
            }
        }
        if let Some(disk) = &self.disk {
            let mut d = disk.lock().unwrap();
            if d.keys.insert(digest) {
                // An unwritable cache should abort loudly, like the store.
                writeln!(d.writer, "{line}").expect("append cache record");
                d.writer.flush().expect("flush cache record");
                d.lines += 1;
            }
            if d.lines >= self.budget.compact_min_lines && d.dead * 2 > d.lines {
                compact_disk(&mut d).expect("compact cache log");
            }
        }
    }

    /// Compact the on-disk log now: rewrite live entries (first occurrence
    /// per key, original bytes preserved) to `cache.jsonl.new` and rename
    /// it over `cache.jsonl`. Readers holding the old file keep a
    /// consistent snapshot; readers opening the path see either the old or
    /// the new complete log, never a partial one. Errors for an in-memory
    /// cache.
    pub fn compact(&self) -> Result<CompactStats, String> {
        let disk = self
            .disk
            .as_ref()
            .ok_or_else(|| "in-memory cache has no log to compact".to_string())?;
        let mut d = disk.lock().unwrap();
        compact_disk(&mut d)
    }

    /// Number of records in the memory index.
    pub fn len(&self) -> usize {
        self.mem.lock().unwrap().entries.len()
    }

    /// Whether the memory index is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total JSONL bytes of the records in the memory index.
    pub fn bytes(&self) -> usize {
        self.mem.lock().unwrap().total_bytes
    }

    /// Lookup hits since construction.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Lookup misses since construction.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Records evicted from the memory index (including load-time
    /// evictions when the log exceeds the budget).
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Unparseable `cache.jsonl` lines skipped when the cache was opened:
    /// a torn tail, or a line corrupted in the middle of the log.
    pub fn skipped_lines(&self) -> u64 {
        self.skipped
    }

    /// Parseable lines currently in the on-disk log (0 for in-memory).
    pub fn disk_lines(&self) -> u64 {
        self.disk.as_ref().map_or(0, |d| d.lock().unwrap().lines)
    }
}

/// The trial pipeline's store seam: a lookup by the trial's content triple
/// that hands out the line to serve (shared, or re-encoded as
/// [`TrialCache::lookup`] rewrites it), an insert as [`TrialCache::insert`].
impl TrialStore for TrialCache {
    fn lookup(&self, trial: &TrialSpec, slot: SlotId) -> Option<Held> {
        let repetitions = trial.point.repetitions;
        let found = self.find(slot.label, trial.rep, trial.seed, repetitions, true);
        self.count(found.is_some());
        found.map(|(line, summary)| Held::Line(line, summary))
    }

    fn insert(&self, record: &TrialRecord) {
        TrialCache::insert(self, record);
    }
}

/// Compact while holding the disk lock, then swap in the fresh appender
/// and reset the log accounting.
fn compact_disk(d: &mut DiskLog) -> Result<CompactStats, String> {
    d.writer
        .flush()
        .map_err(|e| format!("flush before compact: {e}"))?;
    let (stats, keys) = compact_path(&d.path)?;
    let file = jsonl::open_append_with_repair(&d.path)
        .map_err(|e| format!("reopen {}: {e}", d.path.display()))?;
    d.writer = BufWriter::new(file);
    d.lines = stats.lines_kept;
    d.dead = 0;
    d.keys = keys;
    Ok(stats)
}

/// Offline compaction of a cache log (the `disp-serve compact` CLI):
/// stream `path`, keep the first occurrence of every key with its original
/// bytes, drop duplicates and torn/malformed lines, write the survivors to
/// `path.new` and atomically rename it over `path`. The rename is the
/// commit point — a crash at any earlier moment leaves the old log
/// untouched (and the leftover `path.new` is removed on the next open or
/// compaction).
pub fn compact_file(path: &Path) -> Result<CompactStats, String> {
    compact_path(path).map(|(stats, _)| stats)
}

fn compact_path(path: &Path) -> Result<(CompactStats, HashSet<u64>), String> {
    let file = File::open(path).map_err(|e| format!("read {}: {e}", path.display()))?;
    let new_path = path.with_extension("jsonl.new");
    let out = File::create(&new_path).map_err(|e| format!("create {}: {e}", new_path.display()))?;
    let mut writer = BufWriter::new(out);
    let mut keys = HashSet::new();
    let mut label = String::new();
    let mut stats = CompactStats {
        lines_in: 0,
        lines_kept: 0,
        bytes_in: 0,
        bytes_out: 0,
    };
    for line in BufReader::new(file).lines() {
        let line = line.map_err(|e| format!("read {}: {e}", path.display()))?;
        stats.bytes_in += line.len() as u64 + 1;
        let trimmed = line.trim();
        if trimmed.is_empty() {
            continue;
        }
        let Ok(rec) = TrialRecord::from_json_line(trimmed) else {
            continue; // torn tail or foreign junk: compaction drops it
        };
        stats.lines_in += 1;
        if !keys.insert(key_digest(label_into(&mut label, &rec), rec.rep, rec.seed)) {
            continue;
        }
        // The *original* bytes, not a re-serialization: live entries
        // survive compaction byte-identically by construction.
        writeln!(writer, "{trimmed}").map_err(|e| format!("write {}: {e}", new_path.display()))?;
        stats.lines_kept += 1;
        stats.bytes_out += trimmed.len() as u64 + 1;
    }
    writer
        .flush()
        .map_err(|e| format!("flush {}: {e}", new_path.display()))?;
    writer
        .into_inner()
        .map_err(|e| format!("flush {}: {e}", new_path.display()))?
        .sync_all()
        .map_err(|e| format!("sync {}: {e}", new_path.display()))?;
    std::fs::rename(&new_path, path)
        .map_err(|e| format!("rename {} over {}: {e}", new_path.display(), path.display()))?;
    Ok((stats, keys))
}

#[cfg(test)]
mod tests {
    use super::*;
    use disp_analysis::ExperimentPoint;
    use disp_campaign::grid::trial_seed;
    use disp_core::scenario::{Registry, ScenarioSpec};
    use disp_graph::generators::GraphFamily;
    use std::fs::OpenOptions;
    use std::path::PathBuf;

    fn tmp_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "disp-cluster-cache-test-{}-{tag}",
            std::process::id()
        ))
    }

    fn run_one(k: usize, reps: usize, campaign_seed: u64, rep: usize) -> TrialRecord {
        let point =
            ExperimentPoint::new(ScenarioSpec::new(GraphFamily::Star, k, "probe-dfs"), reps);
        let seed = trial_seed(campaign_seed, &point, rep);
        point.run_trial(&Registry::builtin(), rep, seed)
    }

    #[test]
    fn hit_after_insert_and_counters() {
        let cache = TrialCache::in_memory();
        let rec = run_one(8, 2, 7, 0);
        assert!(cache
            .lookup(&rec.point.point_id(), rec.rep, rec.seed, 2)
            .is_none());
        cache.insert(&rec);
        let hit = cache
            .lookup(&rec.point.point_id(), rec.rep, rec.seed, 2)
            .unwrap();
        assert_eq!(hit.to_json_line(), rec.to_json_line());
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn lookup_rewrites_the_advertised_repetition_count() {
        let cache = TrialCache::in_memory();
        let rec = run_one(8, 2, 7, 0);
        cache.insert(&rec);
        // A later grid mentions the same trial but asks for 5 repetitions:
        // the served record must read exactly as that grid's fresh run.
        let hit = cache
            .lookup(&rec.point.point_id(), rec.rep, rec.seed, 5)
            .unwrap();
        let mut fresh = rec.clone();
        fresh.point.repetitions = 5;
        assert_eq!(hit.to_json_line(), fresh.to_json_line());
    }

    #[test]
    fn peek_serves_without_counting_or_touching() {
        let cache = TrialCache::in_memory();
        let rec = run_one(8, 2, 7, 0);
        cache.insert(&rec);
        let got = cache
            .peek(&rec.point.point_id(), rec.rep, rec.seed, 2)
            .unwrap();
        assert_eq!(*got, rec.to_json_line());
        assert!(cache.peek("nope", 0, 1, 2).is_none());
        assert_eq!((cache.hits(), cache.misses()), (0, 0));
    }

    #[test]
    fn different_campaign_seeds_do_not_alias() {
        let cache = TrialCache::in_memory();
        let a = run_one(8, 2, 7, 0);
        cache.insert(&a);
        let b = run_one(8, 2, 8, 0); // same label+rep, different campaign seed
        assert!(cache
            .lookup(&b.point.point_id(), b.rep, b.seed, 2)
            .is_none());
    }

    #[test]
    fn persistent_cache_reloads_and_tolerates_torn_tails() {
        let dir = tmp_dir("persist");
        std::fs::remove_dir_all(&dir).ok();
        let rec = run_one(8, 2, 7, 0);
        let other = run_one(12, 2, 7, 1);
        {
            let cache = TrialCache::open(&dir).unwrap();
            cache.insert(&rec);
            cache.insert(&other);
            cache.insert(&other); // duplicate insert is a no-op
        }
        // Simulate a kill mid-append.
        {
            use std::io::Write as _;
            let mut f = OpenOptions::new()
                .append(true)
                .open(dir.join("cache.jsonl"))
                .unwrap();
            write!(f, "{{\"scenario\":").unwrap();
        }
        let cache = TrialCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 2);
        let hit = cache
            .lookup(&rec.point.point_id(), rec.rep, rec.seed, 2)
            .unwrap();
        assert_eq!(hit.to_json_line(), rec.to_json_line());
        // And the reloaded cache repairs the torn tail before appending, so
        // a new record lands on its own line instead of merging into the
        // torn one.
        let third = run_one(16, 2, 7, 0);
        cache.insert(&third);
        let reloaded = TrialCache::open(&dir).unwrap();
        assert_eq!(reloaded.len(), 3);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_reopened_cache_weighs_its_records_as_the_cache_that_wrote_them() {
        let dir = tmp_dir("reopen-bytes");
        std::fs::remove_dir_all(&dir).ok();
        let written = {
            let cache = TrialCache::open(&dir).unwrap();
            for (k, rep) in [(8, 0), (12, 1), (16, 0), (24, 1)] {
                cache.insert(&run_one(k, 2, 7, rep));
            }
            cache.bytes()
        };
        assert!(written > 0);
        assert_eq!(TrialCache::open(&dir).unwrap().bytes(), written);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_lines_are_skipped_and_counted_on_open() {
        let dir = tmp_dir("skipped");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (run_one(8, 2, 7, 0), run_one(12, 2, 7, 1));
        let mut log = format!(
            "{}\n{{\"scenario\":{{\"family\":\n{}\n",
            a.to_json_line(),
            b.to_json_line()
        );
        // Occupancies outside `validate`'s (0, 1]: none may become a key.
        for occupancy in ["1e400", "-1", "0", "1.5"] {
            let scenario = format!(r#"{{"scenario":{{"occupancy":{occupancy},"#);
            log.push_str(&a.to_json_line().replacen(r#"{"scenario":{"#, &scenario, 1));
            log.push('\n');
        }
        std::fs::write(dir.join("cache.jsonl"), log).unwrap();
        let cache = TrialCache::open(&dir).unwrap();
        for rec in [&a, &b] {
            let hit = cache.lookup(&rec.point.point_id(), rec.rep, rec.seed, 2);
            assert_eq!(hit.map(|r| r.to_json_line()), Some(rec.to_json_line()));
        }
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.skipped_lines(), 5);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn lru_eviction_respects_the_entry_budget() {
        let budget = CacheBudget {
            max_entries: 2,
            ..CacheBudget::default()
        };
        let cache = TrialCache::in_memory_with(budget);
        let a = run_one(8, 2, 7, 0);
        let b = run_one(12, 2, 7, 0);
        let c = run_one(16, 2, 7, 0);
        cache.insert(&a);
        cache.insert(&b);
        // Touch `a` so `b` is now the least recently used.
        assert!(cache
            .lookup(&a.point.point_id(), a.rep, a.seed, 2)
            .is_some());
        cache.insert(&c);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        assert!(cache.peek(&a.point.point_id(), a.rep, a.seed, 2).is_some());
        assert!(cache.peek(&b.point.point_id(), b.rep, b.seed, 2).is_none());
        assert!(cache.peek(&c.point.point_id(), c.rep, c.seed, 2).is_some());
    }

    #[test]
    fn lru_eviction_respects_the_byte_budget_but_keeps_one_entry() {
        let a = run_one(8, 2, 7, 0);
        let b = run_one(12, 2, 7, 0);
        let one_line = a.to_json_line().len();
        let budget = CacheBudget {
            // Room for one record, not two.
            max_bytes: one_line + one_line / 2,
            ..CacheBudget::default()
        };
        let cache = TrialCache::in_memory_with(budget);
        cache.insert(&a);
        assert_eq!(cache.len(), 1); // a lone over-budget record is retained
        cache.insert(&b);
        assert_eq!(cache.len(), 1);
        assert!(cache.evictions() >= 1);
        assert!(cache.bytes() <= budget.max_bytes);
        assert!(cache.peek(&b.point.point_id(), b.rep, b.seed, 2).is_some());
    }

    #[test]
    fn appends_are_suppressed_for_keys_already_on_disk() {
        let dir = tmp_dir("suppress");
        std::fs::remove_dir_all(&dir).ok();
        let rec = run_one(8, 2, 7, 0);
        {
            let cache = TrialCache::open(&dir).unwrap();
            cache.insert(&rec);
            assert_eq!(cache.disk_lines(), 1);
        }
        // A tiny memory budget forces the record out of memory; re-insert
        // must not append a duplicate line ("repeated overlapping
        // submissions" in miniature).
        let budget = CacheBudget {
            max_entries: 1,
            ..CacheBudget::default()
        };
        let other = run_one(12, 2, 7, 0);
        let cache = TrialCache::open_with(&dir, budget).unwrap();
        cache.insert(&other); // evicts `rec` from memory
        assert!(cache
            .peek(&rec.point.point_id(), rec.rep, rec.seed, 2)
            .is_none());
        cache.insert(&rec); // back in memory, but already on disk
        assert_eq!(cache.disk_lines(), 2);
        let text = std::fs::read_to_string(dir.join("cache.jsonl")).unwrap();
        assert_eq!(text.lines().count(), 2);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_preserves_live_entries_byte_identically() {
        let dir = tmp_dir("compact-bytes");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let a = run_one(8, 2, 7, 0);
        let b = run_one(12, 2, 7, 1);
        let path = dir.join("cache.jsonl");
        // A dirty legacy log: duplicates interleaved, torn tail at the end.
        let mut text = String::new();
        for line in [
            a.to_json_line(),
            b.to_json_line(),
            a.to_json_line(),
            b.to_json_line(),
            a.to_json_line(),
        ] {
            text.push_str(&line);
            text.push('\n');
        }
        text.push_str("{\"scenario\":");
        std::fs::write(&path, &text).unwrap();
        let stats = compact_file(&path).unwrap();
        assert_eq!((stats.lines_in, stats.lines_kept), (5, 2));
        let compacted = std::fs::read_to_string(&path).unwrap();
        let expected = format!("{}\n{}\n", a.to_json_line(), b.to_json_line());
        assert_eq!(compacted, expected);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dirty_logs_auto_compact_on_open() {
        let dir = tmp_dir("auto-compact");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let rec = run_one(8, 2, 7, 0);
        let line = rec.to_json_line();
        let path = dir.join("cache.jsonl");
        // 1 live key, 99 dead duplicates — over the 50% dead ratio and the
        // (lowered) minimum size.
        let mut text = String::new();
        for _ in 0..100 {
            text.push_str(&line);
            text.push('\n');
        }
        std::fs::write(&path, &text).unwrap();
        let budget = CacheBudget {
            compact_min_lines: 10,
            ..CacheBudget::default()
        };
        let cache = TrialCache::open_with(&dir, budget).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.disk_lines(), 1);
        drop(cache);
        let text = std::fs::read_to_string(&path).unwrap();
        assert_eq!(text, format!("{line}\n"));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn restart_mid_compaction_recovers_because_rename_is_the_commit_point() {
        let dir = tmp_dir("mid-compact");
        std::fs::remove_dir_all(&dir).ok();
        let rec = run_one(8, 2, 7, 0);
        {
            let cache = TrialCache::open(&dir).unwrap();
            cache.insert(&rec);
        }
        // A compaction that died before its rename leaves a partial
        // cache.jsonl.new behind; the old log is still authoritative.
        std::fs::write(dir.join("cache.jsonl.new"), "{\"scenario\":").unwrap();
        let cache = TrialCache::open(&dir).unwrap();
        assert_eq!(cache.len(), 1);
        assert!(!dir.join("cache.jsonl.new").exists());
        let hit = cache
            .peek(&rec.point.point_id(), rec.rep, rec.seed, 2)
            .unwrap();
        assert_eq!(*hit, rec.to_json_line());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn concurrent_readers_never_observe_a_torn_file_during_online_compaction() {
        use std::sync::atomic::AtomicBool;
        use std::sync::Arc;

        let dir = tmp_dir("online-compact");
        std::fs::remove_dir_all(&dir).ok();
        std::fs::create_dir_all(&dir).unwrap();
        let a = run_one(8, 2, 7, 0);
        let b = run_one(12, 2, 7, 1);
        let fresh: Vec<TrialRecord> = (0..20).map(|i| run_one(8 + i, 2, 99, 0)).collect();
        let appended: Vec<String> = fresh.iter().map(TrialRecord::to_json_line).collect();
        let path = dir.join("cache.jsonl");
        let mut text = String::new();
        for _ in 0..50 {
            text.push_str(&a.to_json_line());
            text.push('\n');
            text.push_str(&b.to_json_line());
            text.push('\n');
        }
        std::fs::write(&path, &text).unwrap();
        let cache = Arc::new(TrialCache::open(&dir).unwrap());
        let stop = Arc::new(AtomicBool::new(false));
        let reader = {
            let (path, stop) = (path.clone(), stop.clone());
            std::thread::spawn(move || {
                let mut snapshots = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let text = std::fs::read_to_string(&path).unwrap();
                    // Every snapshot must be a whole log: compaction
                    // publishes by rename, so every newline-terminated line
                    // parses. An append is not atomic against this read,
                    // though (it can cross a page boundary), so the last
                    // line may be a prefix of one the loop below appends —
                    // the torn tail a load tolerates — and nothing else.
                    let (whole, tail) = text.split_at(text.rfind('\n').map_or(0, |nl| nl + 1));
                    for line in whole.lines() {
                        TrialRecord::from_json_line(line).unwrap();
                    }
                    assert!(
                        tail.is_empty() || appended.iter().any(|line| line.starts_with(tail)),
                        "torn last line is not part of an append: {tail:?}"
                    );
                    snapshots += 1;
                }
                snapshots
            })
        };
        for (round, fresh) in fresh.iter().enumerate() {
            let stats = cache.compact().unwrap();
            if round == 0 {
                assert_eq!(stats.lines_kept, 2);
            }
            // Interleave appends so compaction runs against a log that is
            // also being written.
            cache.insert(fresh);
        }
        stop.store(true, Ordering::Relaxed);
        let snapshots = reader.join().unwrap();
        assert!(snapshots > 0, "reader never sampled the file");
        let reopened = TrialCache::open(&dir).unwrap();
        for rec in [&a, &b].into_iter().chain(&fresh) {
            assert!(
                reopened
                    .peek(&rec.point.point_id(), rec.rep, rec.seed, 2)
                    .is_some(),
                "{} missing after reopen",
                rec.point.point_id()
            );
        }
        std::fs::remove_dir_all(&dir).ok();
    }
}
