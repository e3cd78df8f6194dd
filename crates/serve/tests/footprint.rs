//! The heap a settled job keeps while it stays addressable, and the
//! allocations a warm slot costs. A counting global allocator tracks live
//! heap bytes and allocation calls while an in-process server runs cold
//! and warm jobs, each read the way the benchmark's clients read it: event
//! stream, results, then status once. The tests have their own binary
//! because the allocator is process-wide, and they take turns for the
//! same reason.

use disp_analysis::json::Json;
use disp_serve::cache::CacheBudget;
use disp_serve::{parse_metric, Client, ServeConfig, Server};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, AtomicU64, Ordering};
use std::sync::Mutex;

/// Live heap bytes, all threads.
static LIVE: AtomicIsize = AtomicIsize::new(0);
/// Allocation calls (`alloc`, `alloc_zeroed` and `realloc`), all threads.
static ALLOCS: AtomicU64 = AtomicU64::new(0);
/// Held by each test for its whole run, so the counters see one test.
static TURN: Mutex<()> = Mutex::new(());

struct Counting;

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged, so `System`'s guarantees carry over; the counter is a plain
// atomic and never touches the allocated memory.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc`'s contract.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: forwarded unchanged; the caller upholds `alloc_zeroed`'s contract.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, i.e. from `System`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from `System` with `layout`; the caller upholds
        // `realloc`'s contract for `new_size`.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(
                new_size as isize - layout.size() as isize,
                Ordering::Relaxed,
            );
            ALLOCS.fetch_add(1, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

/// The benchmark's job grid: every family, schedule and algorithm at
/// k = 16, 96 labels x 2 repetitions = 192 slots.
fn labels() -> Vec<String> {
    let mut out = Vec::new();
    for family in ["line", "torus", "hypercube", "rtree", "rreg4", "er6"] {
        for algo in ["sync-seeker", "probe-dfs", "ks-dfs", "random-walk"] {
            out.push(format!("{family}/k16/rooted/sync/{algo}"));
        }
        for schedule in ["async-rr", "async-lag4", "async-rand0.7", "async-target4"] {
            for algo in ["probe-dfs", "ks-dfs", "random-walk"] {
                out.push(format!("{family}/k16/rooted/{schedule}/{algo}"));
            }
        }
    }
    out
}

const SLOTS: usize = 192;
/// Trial-cache entries: two cold jobs fill it.
const CACHE_ENTRIES: usize = 2 * SLOTS;
/// Cold + warm rounds run before measuring: the cache reaches its budget
/// and the server's pools and buffers reach their working size.
const WARM_UP_ROUNDS: u64 = 3;
/// Rounds whose retained jobs are measured.
const MEASURED_ROUNDS: u64 = 6;
const BOUND_KIB: isize = 200;

/// Submit `body`, then read the job's event stream (which ends when it
/// settles), its results and its status.
fn run_job(client: &mut Client, body: &Json) {
    let resp = client.post_json("/runs", body).unwrap();
    assert_eq!(resp.status, 201, "{}", resp.text());
    let id = resp
        .json()
        .unwrap()
        .get("id")
        .and_then(Json::as_str)
        .unwrap()
        .to_string();
    for path in [
        format!("/runs/{id}/events"),
        format!("/runs/{id}/results"),
        format!("/runs/{id}"),
    ] {
        let resp = client.get(&path).unwrap();
        assert_eq!(resp.status, 200, "{path}: {}", resp.text());
    }
}

/// The submission of `labels` at 2 repetitions on `seed`.
fn submission(labels: &[String], seed: u64) -> Json {
    Json::Obj(vec![
        (
            "scenarios".into(),
            Json::Arr(labels.iter().map(|l| Json::Str(l.clone())).collect()),
        ),
        ("reps".into(), Json::Num(2.0)),
        ("seed".into(), Json::from_u64_lossless(seed)),
    ])
}

/// One cold job on a fresh seed, then the same grid warm.
fn round(client: &mut Client, labels: &[String], seed: u64) {
    let body = submission(labels, seed);
    run_job(client, &body);
    run_job(client, &body);
}

fn metric(client: &mut Client, name: &str) -> u64 {
    let body = client.get("/metrics").unwrap().text();
    parse_metric(&body, name).unwrap_or_else(|| panic!("metric {name} missing"))
}

#[test]
fn a_retained_192_slot_job_keeps_at_most_200_kib_of_heap() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let labels = labels();
    assert_eq!(labels.len() * 2, SLOTS);
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            http_threads: 2,
            job_threads: 1,
            cache_dir: None,
            cache_budget: CacheBudget {
                max_entries: CACHE_ENTRIES,
                ..CacheBudget::default()
            },
            coordinator: None,
        },
    )
    .unwrap();
    let mut client = Client::new(&server.addr().to_string());
    for seed in 0..WARM_UP_ROUNDS {
        round(&mut client, &labels, seed);
    }
    assert_eq!(
        metric(&mut client, "disp_cache_entries"),
        CACHE_ENTRIES as u64
    );
    let before = LIVE.load(Ordering::SeqCst);
    for seed in WARM_UP_ROUNDS..WARM_UP_ROUNDS + MEASURED_ROUNDS {
        round(&mut client, &labels, seed);
    }
    let after = LIVE.load(Ordering::SeqCst);
    // Every job is still retained, so the growth is theirs.
    assert_eq!(metric(&mut client, "disp_jobs_evicted_total"), 0);
    let per_job = (after - before) / (2 * MEASURED_ROUNDS as isize);
    assert!(
        per_job <= BOUND_KIB * 1024,
        "a retained {SLOTS}-slot job keeps {:.1} KiB of heap, above {BOUND_KIB} KiB",
        per_job as f64 / 1024.0
    );
    server.shutdown();
}

/// Allocation calls a warm slot may cost, its share of the HTTP reads
/// included: its slot in the expanded grid, and its share of the event
/// log's, the LRU queue's and the event stream's buffers.
const WARM_SLOT_ALLOCS: f64 = 2.0;

/// The fewest allocation calls of `runs` runs of the warm job `body`.
fn warm_allocs(client: &mut Client, body: &Json, runs: usize) -> u64 {
    (0..runs)
        .map(|_| {
            let before = ALLOCS.load(Ordering::SeqCst);
            run_job(client, body);
            ALLOCS.load(Ordering::SeqCst) - before
        })
        .min()
        .unwrap()
}

#[test]
fn a_warm_slot_costs_at_most_two_allocations() {
    let _turn = TURN.lock().unwrap_or_else(|e| e.into_inner());
    let labels = labels();
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            http_threads: 2,
            job_threads: 1,
            cache_dir: None,
            cache_budget: CacheBudget::default(),
            coordinator: None,
        },
    )
    .unwrap();
    let mut client = Client::new(&server.addr().to_string());
    // The same 96 points at 1 and at 2 repetitions, on seeds of their
    // own so that each grid's cached lines advertise its own count and
    // are served as stored: the jobs differ by 96 warm slots and by
    // nothing a point costs (parsing, validation, its statistics).
    let jobs = [(1, 11), (2, 12)].map(|(reps, seed)| {
        let mut body = submission(&labels, seed);
        if let Json::Obj(fields) = &mut body {
            fields[1].1 = Json::Num(reps as f64);
        }
        run_job(&mut client, &body);
        body
    });
    let [one, two] = jobs.map(|body| warm_allocs(&mut client, &body, 3) as f64);
    let per_slot = (two - one) / labels.len() as f64;
    println!("allocation calls per warm slot: {per_slot:.2}");
    assert!(
        per_slot <= WARM_SLOT_ALLOCS,
        "a warm slot costs {per_slot:.2} allocation calls, above {WARM_SLOT_ALLOCS}"
    );
    server.shutdown();
}
