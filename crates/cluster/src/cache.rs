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
use disp_campaign::grid::TrialSpec;
use disp_campaign::store::TrialStore;
use disp_rng::{fnv1a, mix};
use std::collections::{HashMap, HashSet, VecDeque};
use std::fs::File;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// The content identity of a trial.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
struct CacheKey {
    /// Canonical scenario label.
    label: String,
    /// Repetition index within the grid point.
    rep: usize,
    /// The derived trial seed (a pure function of campaign seed + label +
    /// rep; included so grids run under different campaign seeds never
    /// alias).
    seed: u64,
}

impl CacheKey {
    /// A 64-bit digest of the key, used by the on-disk key set (and cheap
    /// enough to keep one per persisted line).
    fn digest(&self) -> u64 {
        mix(&[fnv1a(self.label.as_bytes()), self.rep as u64, self.seed])
    }
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

/// One in-memory record plus its LRU bookkeeping.
#[derive(Debug)]
struct Entry {
    rec: TrialRecord,
    /// Length of the record's JSONL line (the byte-budget unit).
    bytes: usize,
    /// Stamp of this entry's newest position in the LRU queue; queue
    /// positions with older stamps are stale and skipped.
    stamp: u64,
}

/// The bounded in-memory index.
#[derive(Debug, Default)]
struct MemIndex {
    entries: HashMap<CacheKey, Entry>,
    /// `(stamp, key)` pairs, oldest first. Touches push a fresh stamp
    /// instead of removing the old position (lazy invalidation).
    lru: VecDeque<(u64, CacheKey)>,
    total_bytes: usize,
    next_stamp: u64,
}

impl MemIndex {
    fn touch(&mut self, key: &CacheKey) {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        if let Some(e) = self.entries.get_mut(key) {
            e.stamp = stamp;
            self.lru.push_back((stamp, key.clone()));
        }
    }

    /// Insert `rec` under `key` and evict LRU entries until the budget
    /// holds again. Returns the number of evictions.
    fn insert(
        &mut self,
        key: CacheKey,
        rec: TrialRecord,
        bytes: usize,
        budget: &CacheBudget,
    ) -> u64 {
        let stamp = self.next_stamp;
        self.next_stamp += 1;
        self.lru.push_back((stamp, key.clone()));
        self.total_bytes += bytes;
        self.entries.insert(key, Entry { rec, bytes, stamp });
        let mut evicted = 0;
        while (self.entries.len() > budget.max_entries || self.total_bytes > budget.max_bytes)
            && self.entries.len() > 1
        {
            let Some((stamp, key)) = self.lru.pop_front() else {
                break;
            };
            let live = self.entries.get(&key).is_some_and(|e| e.stamp == stamp);
            if live {
                let e = self.entries.remove(&key).unwrap();
                self.total_bytes -= e.bytes;
                evicted += 1;
            }
        }
        // Lazy invalidation lets the queue accumulate stale positions;
        // prune when it clearly dominates the live set.
        if self.lru.len() > 2 * self.entries.len() + 64 {
            let entries = &self.entries;
            self.lru
                .retain(|(stamp, key)| entries.get(key).is_some_and(|e| e.stamp == *stamp));
        }
        evicted
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
/// the completed [`TrialRecord`], with an LRU-bounded memory index and a
/// compacting JSONL log.
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
            for line in BufReader::new(file).lines() {
                let line = line.map_err(|e| format!("read {}: {e}", path.display()))?;
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
                let key = key_of(&rec);
                if !keys.insert(key.digest()) {
                    dead += 1;
                    continue;
                }
                // Weighed by the line as read: `insert` wrote it as the
                // record's JSON line, so the lengths agree.
                evictions += mem.insert(key, rec, trimmed.len(), &budget);
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
        let key = CacheKey {
            label: label.to_string(),
            rep,
            seed,
        };
        let found = {
            let mut mem = self.mem.lock().unwrap();
            let found = mem.entries.get(&key).map(|e| e.rec.clone());
            if found.is_some() {
                mem.touch(&key);
            }
            found
        };
        match found {
            Some(mut rec) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                rec.point.repetitions = repetitions;
                Some(rec)
            }
            None => {
                self.misses.fetch_add(1, Ordering::Relaxed);
                None
            }
        }
    }

    /// [`TrialCache::lookup`] without the observability side effects: no
    /// hit/miss counting, no LRU refresh. Used by the cluster plumbing
    /// (reconciliation, result assembly) so operator-facing counters keep
    /// meaning "a submission asked for this trial".
    pub fn peek(
        &self,
        label: &str,
        rep: usize,
        seed: u64,
        repetitions: usize,
    ) -> Option<TrialRecord> {
        let key = CacheKey {
            label: label.to_string(),
            rep,
            seed,
        };
        let found = self
            .mem
            .lock()
            .unwrap()
            .entries
            .get(&key)
            .map(|e| e.rec.clone());
        found.map(|mut rec| {
            rec.point.repetitions = repetitions;
            rec
        })
    }

    /// Insert a completed record (no-op if its key is already in memory)
    /// and, for persistent caches, append + flush it to `cache.jsonl` so a
    /// kill loses at most in-flight trials. Keys already on disk are not
    /// appended again — the suppression that keeps repeated overlapping
    /// submissions from growing the log without bound.
    pub fn insert(&self, record: &TrialRecord) {
        let key = key_of(record);
        let line = record.to_json_line();
        {
            let mut mem = self.mem.lock().unwrap();
            if mem.entries.contains_key(&key) {
                return;
            }
            let evicted = mem.insert(key.clone(), record.clone(), line.len(), &self.budget);
            if evicted > 0 {
                self.evictions.fetch_add(evicted, Ordering::Relaxed);
            }
        }
        if let Some(disk) = &self.disk {
            let mut d = disk.lock().unwrap();
            if d.keys.insert(key.digest()) {
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
/// (its advertised repetition count rewritten, as in [`TrialCache::lookup`]),
/// an insert as [`TrialCache::insert`].
impl TrialStore for TrialCache {
    fn lookup(&self, trial: &TrialSpec) -> Option<TrialRecord> {
        let label = trial.point.point_id();
        TrialCache::lookup(self, &label, trial.rep, trial.seed, trial.point.repetitions)
    }

    fn insert(&self, record: &TrialRecord) {
        TrialCache::insert(self, record);
    }
}

fn key_of(rec: &TrialRecord) -> CacheKey {
    CacheKey {
        label: rec.point.point_id(),
        rep: rec.rep,
        seed: rec.seed,
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
        if !keys.insert(key_of(&rec).digest()) {
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
        assert_eq!(got.to_json_line(), rec.to_json_line());
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
        assert_eq!(hit.to_json_line(), rec.to_json_line());
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
