//! The campaign-service daemon — standalone, coordinator or worker.
//!
//! ```text
//! disp-serve [--addr HOST:PORT] [--http-threads N] [--job-threads N]
//!            [--cache-dir DIR] [--cache-max-entries N] [--cache-max-bytes N]
//!            [--role coordinator [--batch-size N] [--lease-ttl-secs S]]
//! disp-serve --role worker --coordinator HOST:PORT [--worker-id ID]
//!            [--job-threads N] [--cache-dir DIR]
//! disp-serve compact --cache-dir DIR
//! ```
//!
//! The default role serves and executes campaigns in-process. A
//! *coordinator* accepts the same `POST /runs` API but shards each grid
//! into trial batches that *workers* pull over `/internal/*`; a worker
//! needs no listen address at all — it dials the coordinator, executes
//! leased batches and uploads the records. `compact` rewrites a cache log
//! offline, dropping superseded lines.
//!
//! All roles run until SIGINT/SIGTERM, then drain gracefully and exit 0.
//! With `--cache-dir` the trial cache persists across restarts, so a
//! restarted server (or worker) serves the same grids from disk without
//! recomputation.

use disp_campaign::cli::{emit, Args, Cli, Command, Flag, Kind::*};
use disp_campaign::signal;
use disp_cluster::WorkerShared;
use disp_serve::cache::{compact_file, CacheBudget};
use disp_serve::cluster::WorkerProcessConfig;
use disp_serve::{run_worker, CoordinatorConfig, ServeConfig, Server};
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::atomic::Ordering;
use std::time::Duration;

const USAGE: &str = "\
disp-serve — the deterministic campaign service

USAGE:
  disp-serve [--addr HOST:PORT] [--http-threads N] [--job-threads N]
             [--cache-dir DIR] [--cache-max-entries N] [--cache-max-bytes N]
             [--role coordinator [--batch-size N] [--lease-ttl-secs S]]
  disp-serve --role worker --coordinator HOST:PORT [--worker-id ID]
             [--job-threads N] [--cache-dir DIR]
  disp-serve compact --cache-dir DIR

Defaults: --addr 127.0.0.1:8080, 4 HTTP workers, one engine worker per
core, in-memory cache. --role coordinator serves the same API but farms
trial batches out to workers (defaults: --batch-size 4,
--lease-ttl-secs 10). --role worker dials a coordinator and executes
leased batches until SIGTERM or the coordinator drains. compact rewrites
DIR/cache.jsonl in place, dropping superseded lines. See README 'serve
quick-start' and 'running a cluster' for the endpoints.
";

const ADDR: Flag = Flag::new("--addr", Text);
const HTTP_THREADS: Flag = Flag::new("--http-threads", Positive);
const JOB_THREADS: Flag = Flag::new("--job-threads", Positive);
const CACHE_DIR: Flag = Flag::new("--cache-dir", Text);
const MAX_ENTRIES: Flag = Flag::new("--cache-max-entries", Positive);
const MAX_BYTES: Flag = Flag::new("--cache-max-bytes", Positive);
const ROLE: Flag = Flag::new("--role", OneOf(&["serve", "coordinator", "worker"]));

const SERVE: Command = Command::new(
    "--role serve",
    &[
        ADDR,
        HTTP_THREADS,
        JOB_THREADS,
        CACHE_DIR,
        MAX_ENTRIES,
        MAX_BYTES,
        ROLE,
    ],
);
const COORDINATOR: Command = Command::new(
    "--role coordinator",
    &[
        ADDR,
        HTTP_THREADS,
        JOB_THREADS,
        CACHE_DIR,
        MAX_ENTRIES,
        MAX_BYTES,
        ROLE,
        Flag::new("--batch-size", Positive),
        Flag::new("--lease-ttl-secs", Positive),
    ],
);
const WORKER: Command = Command::new(
    "--role worker",
    &[
        ROLE,
        Flag::new("--coordinator", Text),
        Flag::new("--worker-id", Text),
        JOB_THREADS,
        CACHE_DIR,
    ],
);
const COMPACT: Command = Command::new("compact", &[CACHE_DIR]);

/// The flags each role, and `compact`, reads.
const CLI: Cli = Cli {
    name: "disp-serve",
    usage: USAGE,
    commands: &[SERVE, COORDINATOR, WORKER, COMPACT],
};

fn main() -> ExitCode {
    let words: Vec<String> = std::env::args().skip(1).collect();
    if words.first().map(String::as_str) == Some("compact") {
        return CLI.finish(cmd_compact(&CLI.parse(&COMPACT, &words[1..])));
    }
    // The role picks the table the other flags are read against.
    let role = words.windows(2).find(|w| w[0] == "--role");
    let command = match role.map(|w| w[1].as_str()) {
        Some("coordinator") => &COORDINATOR,
        Some("worker") => &WORKER,
        _ => &SERVE,
    };
    CLI.finish(run(&CLI.parse(command, &words)))
}

fn run(args: &Args) -> Result<(), String> {
    let (defaults, cluster) = (ServeConfig::default(), CoordinatorConfig::default());
    let budget = defaults.cache_budget;
    let config = ServeConfig {
        http_threads: args.get("--http-threads").unwrap_or(defaults.http_threads),
        job_threads: args.get("--job-threads").unwrap_or(defaults.job_threads),
        cache_dir: args.get("--cache-dir"),
        cache_budget: CacheBudget {
            max_entries: args
                .get("--cache-max-entries")
                .unwrap_or(budget.max_entries),
            max_bytes: args.get("--cache-max-bytes").unwrap_or(budget.max_bytes),
            ..budget
        },
        coordinator: (args.command.name == COORDINATOR.name).then(|| CoordinatorConfig {
            batch_size: args.get("--batch-size").unwrap_or(cluster.batch_size),
            lease_ttl: args
                .get("--lease-ttl-secs")
                .map_or(cluster.lease_ttl, Duration::from_secs),
        }),
    };
    if args.command.name == WORKER.name {
        return run_worker_role(args, &config);
    }
    let role = args.command.name.trim_start_matches("--role ");
    let addr: String = args
        .get("--addr")
        .unwrap_or_else(|| "127.0.0.1:8080".into());

    let latch = signal::install();
    let server = Server::start(&addr, config.clone())?;
    eprintln!(
        "disp-serve: {} listening on {} ({} HTTP workers, {}, cache: {})",
        role,
        server.addr(),
        config.http_threads,
        match config.coordinator {
            Some(c) => format!("batches of {} with {:?} leases", c.batch_size, c.lease_ttl),
            None => format!("{} engine workers", config.job_threads),
        },
        match &config.cache_dir {
            Some(dir) => dir.display().to_string(),
            None => "in-memory".to_string(),
        },
    );
    while !latch.load(Ordering::SeqCst) {
        std::thread::sleep(Duration::from_millis(100));
    }
    eprintln!("disp-serve: signal received, draining…");
    server.shutdown();
    eprintln!("disp-serve: drained cleanly");
    Ok(())
}

/// `--role worker`: dial the coordinator and pull batches until SIGTERM
/// or a coordinator drain, then print the lifetime summary.
fn run_worker_role(args: &Args, config: &ServeConfig) -> Result<(), String> {
    let coordinator: String = args
        .get("--coordinator")
        .ok_or("--role worker requires --coordinator HOST:PORT")?;
    let id: String = args
        .get("--worker-id")
        .unwrap_or_else(|| format!("w-{}", std::process::id()));
    let latch = signal::install();
    let shared = WorkerShared::new();
    // Relay the process signal latch into the worker's stop flag so the
    // lease loop exits between batches (and a running batch is cancelled).
    let relay = {
        let shared = std::sync::Arc::clone(&shared);
        std::thread::spawn(move || {
            while !latch.load(Ordering::SeqCst) && !shared.stopping() {
                std::thread::sleep(Duration::from_millis(50));
            }
            shared.request_stop();
        })
    };
    let cfg = WorkerProcessConfig {
        id: id.clone(),
        threads: config.job_threads,
        cache_dir: config.cache_dir.clone(),
        poll: Duration::from_millis(200),
    };
    eprintln!(
        "disp-serve: worker {id} dialing {coordinator} ({} engine workers, cache: {})",
        cfg.threads,
        match &cfg.cache_dir {
            Some(dir) => dir.display().to_string(),
            None => "in-memory".to_string(),
        },
    );
    let result = run_worker(&coordinator, &cfg, &shared);
    shared.request_stop();
    let _ = relay.join();
    let summary = result?;
    eprintln!(
        "disp-serve: worker {id} done: {} batches, {} executed, {} local hits, \
         {} uploaded, {} abandoned",
        summary.batches, summary.executed, summary.local_hits, summary.uploaded, summary.abandoned,
    );
    Ok(())
}

/// `compact --cache-dir DIR`: offline compaction of `DIR/cache.jsonl`.
fn cmd_compact(args: &Args) -> Result<(), String> {
    let dir: PathBuf = args
        .get("--cache-dir")
        .ok_or("compact requires --cache-dir DIR")?;
    let log = dir.join("cache.jsonl");
    let stats = compact_file(&log)?;
    emit(&format!(
        "disp-serve: compacted {}: {} lines / {} bytes → {} lines / {} bytes\n",
        log.display(),
        stats.lines_in,
        stats.bytes_in,
        stats.lines_kept,
        stats.bytes_out,
    ))
}
