//! The dispersion workspace's benchmark.
//!
//! ```text
//! cargo run --release --manifest-path dispbench/Cargo.toml -- \
//!     --workload <trials-sync|trials-async|campaign-micro|serve-jobs> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One run builds its inputs from `--seed`, measures the workload for
//! `--seconds`, checks every output, and prints as its last stdout line
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Scratch files go under `.bench_work/` in the working directory.
//! `dispbench/README.md` defines every metric.

mod alloc;
mod campaign;
mod grids;
mod report;
mod serve;
mod trace;
mod trials;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

#[global_allocator]
static ALLOCATOR: alloc::Counting = alloc::Counting;

/// Engine threads, HTTP workers and client connections: the host has two
/// vCPUs, and load comes from this one process.
pub const THREADS: usize = 2;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: Duration,
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(Duration::from_secs_f64(s));
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace must be 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag '{other}'")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// This run's scratch directory, `.bench_work/<workload>-<seed>`, created
/// empty. It names no process id, so the paths a run allocates are the
/// same length in every run of one seed.
pub fn work_dir(args: &Args) -> Result<PathBuf, String> {
    let dir = PathBuf::from(".bench_work").join(format!("{}-{}", args.workload, args.seed));
    std::fs::remove_dir_all(&dir).ok();
    std::fs::create_dir_all(&dir).map_err(|e| format!("create {}: {e}", dir.display()))?;
    Ok(dir)
}

/// Write a traced run's spans to `.bench_work/spans-<workload>-<seed>.jsonl`.
pub fn write_spans(tracer: &trace::Tracer, args: &Args) -> Result<(), String> {
    std::fs::create_dir_all(".bench_work").map_err(|e| format!("create .bench_work: {e}"))?;
    let path =
        PathBuf::from(".bench_work").join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("write {}: {e}", path.display()))?;
    eprintln!(
        "dispbench: {} spans written to {}",
        tracer.len(),
        path.display()
    );
    Ok(())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("dispbench: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match args.workload.as_str() {
        "trials-sync" => trials::run(&args, &grids::SYNC_UNITS),
        "trials-async" => trials::run(&args, &grids::ASYNC_UNITS),
        "campaign-micro" => campaign::run(&args),
        "serve-jobs" => serve::run(&args),
        other => Err(format!("unknown workload '{other}'")),
    };
    match result {
        Ok((checks, mut metrics)) => {
            if args.trace {
                print_layers(&metrics);
            } else {
                metrics.put("peak_rss_mb", report::peak_rss_mb(), "MB");
                metrics.put("ok_ratio", checks.ok_ratio(), "ratio");
            }
            report::print(&checks, &metrics);
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("dispbench: {}: {e}", args.workload);
            ExitCode::FAILURE
        }
    }
}

/// The per-layer numbers, for people, on stderr: one row per layer, then
/// the counts, ratios and per-call times.
fn print_layers(metrics: &report::Metrics) {
    let value = |name: String| {
        metrics
            .iter()
            .find(|(n, _, _)| *n == name)
            .map_or(0.0, |(_, v, _)| *v)
    };
    eprintln!(
        "{:<22} {:>10} {:>12} {:>12}",
        "layer", "calls", "busy_ms", "self_ms"
    );
    for layer in trace::LAYERS {
        eprintln!(
            "{layer:<22} {:>10} {:>12.3} {:>12.3}",
            value(format!("{layer}.calls")),
            value(format!("{layer}.busy_ms")),
            value(format!("{layer}.self_ms")),
        );
    }
    let per_layer = |n: &str| {
        [".calls", ".busy_ms", ".self_ms"]
            .iter()
            .any(|s| n.ends_with(s))
    };
    for (name, value, unit) in metrics.iter().filter(|(n, _, _)| !per_layer(n)) {
        eprintln!("{name:<24} {value:>18.4} {unit}");
    }
}
