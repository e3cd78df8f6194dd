//! CI bench regression gate.
//!
//! ```text
//! bench-gate record   [--out BENCH_baseline.json] [--samples N]
//! bench-gate check    [--baseline BENCH_baseline.json] [--samples N]
//! bench-gate scaling  [--threads 1,2,4]
//! bench-gate timeline [--samples N]
//! ```
//!
//! `record` measures the gated hot paths (see `disp_bench::gate`) and writes
//! the baseline document; `check` re-measures and exits non-zero when any
//! workload is more than the baseline's tolerance (25%) slower. `scaling`
//! runs the batched micro campaign once untimed, then times one thread,
//! each listed thread count, and two copies of the campaign's trials run
//! at once outside the engine, each as its best of three interleaved
//! rounds, prints the wall-clock/speedup table with the host ceiling (2 ×
//! the one-thread wall ÷ the pair's wall, at most ×2),
//! and always asserts that sorted trial records are byte-identical across
//! every run. It fails when the best multi-thread speedup is below 0.8 ×
//! that ceiling; on a single core, or under a ceiling below ×1.1 (the
//! neighbours hold the other cores), the speed verdict is skipped
//! (determinism still proves out there).
//! `timeline` measures the `scale/line100k` trial with and without the
//! flight recorder in the same run and fails when the recorded variant
//! exceeds [`gate::TIMELINE_FACTOR`]× the plain one — the "observation is
//! (almost) free" acceptance bound.

use disp_bench::gate;
use disp_campaign::cli::{emit, Args, Cli, Command, Flag, Kind::*};
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "\
bench-gate — wall-clock regression gate for the dispersion hot paths

USAGE:
  bench-gate record   [--out FILE] [--samples N]      (write a fresh baseline)
  bench-gate check    [--baseline FILE] [--samples N] (fail on >25% regression)
  bench-gate scaling  [--threads 1,2,4]               (speedup vs the host ceiling + identity check)
  bench-gate timeline [--samples N]                   (flight-recorder overhead bound)
";

const SAMPLES: Flag = Flag::new("--samples", Positive);

/// The flags each subcommand reads.
const CLI: Cli = Cli {
    name: "bench-gate",
    usage: USAGE,
    commands: &[
        Command::new("record", &[Flag::new("--out", Text), SAMPLES]),
        Command::new("check", &[Flag::new("--baseline", Text), SAMPLES]),
        Command::new("scaling", &[Flag::new("--threads", Text)]),
        Command::new("timeline", &[SAMPLES]),
    ],
};

fn main() -> ExitCode {
    let words: Vec<String> = std::env::args().skip(1).collect();
    let args = CLI.parse_subcommand(&words);
    CLI.finish(run(&args))
}

fn run(args: &Args) -> Result<(), String> {
    let samples = args.get("--samples").unwrap_or(5);
    // `record --out` writes the baseline `check --baseline` reads.
    let path: PathBuf = (args.get("--out").or_else(|| args.get("--baseline")))
        .unwrap_or_else(|| "BENCH_baseline.json".into());
    match args.command.name {
        "record" => {
            let doc = gate::record(samples);
            std::fs::write(&path, doc + "\n")
                .map_err(|e| format!("write {}: {e}", path.display()))?;
            eprintln!("wrote {}", path.display());
            Ok(())
        }
        "check" => {
            let baseline = std::fs::read_to_string(&path)
                .map_err(|e| format!("read {}: {e}", path.display()))?;
            let rows = gate::check(&baseline, samples)?;
            let mut out = String::new();
            for row in &rows {
                let allocs = match row.allocs {
                    Some((base, measured, ratio)) => {
                        format!(", allocs {measured} vs {base:.0} (×{ratio:.2})")
                    }
                    None => String::new(),
                };
                out.push_str(&format!(
                    "{:<34} baseline {:>9.3} ms, measured {:>9.3} ms, ratio {:.2}{allocs}{}\n",
                    row.id,
                    row.baseline_ns / 1e6,
                    row.measured_ns / 1e6,
                    row.ratio,
                    if row.regressed { "  ← REGRESSED" } else { "" }
                ));
            }
            emit(&out)?;
            if rows.iter().any(|row| row.regressed) {
                return Err("hot-path regression above the tolerance".into());
            }
            Ok(())
        }
        "scaling" => {
            let threads: Vec<usize> = match args.get::<String>("--threads") {
                Some(list) => list
                    .split(',')
                    .map(|t| t.parse().ok().filter(|&n| n > 0))
                    .collect::<Option<_>>()
                    .ok_or("--threads expects a comma-separated list of positive integers")?,
                None => vec![1, 2, 4],
            };
            let report = gate::scaling(&threads)?;
            let mut out = format!(
                "micro campaign ({} identical sorted-record runs: one warm-up, then the best \
                 of {} interleaved rounds per count and per pair of copies):\n",
                1 + (report.rows.len() + 2) * gate::SCALING_ROUNDS,
                gate::SCALING_ROUNDS
            );
            for row in &report.rows {
                out.push_str(&format!(
                    "  threads {:>2}: {:>9.3} ms  speedup ×{:.2}\n",
                    row.threads,
                    row.wall_ns as f64 / 1e6,
                    row.speedup
                ));
            }
            out.push_str(&format!(
                "  2 copies at once, outside the engine: {:>9.3} ms  host ceiling ×{:.2} \
                 (2 × threads-1 wall ÷ pair wall, at most ×2)\n",
                report.pair_ns as f64 / 1e6,
                report.ceiling
            ));
            emit(&out)?;
            let cores = std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1);
            match gate::scaling_verdict(&report, cores) {
                gate::Verdict::Pass => Ok(()),
                gate::Verdict::Skip(why) => {
                    eprintln!("bench-gate: {why} — byte-identity verified, speedup gate skipped");
                    Ok(())
                }
                gate::Verdict::Fail(why) => Err(why),
            }
        }
        _ => {
            let (plain_ns, recorded_ns, ratio) = gate::timeline_overhead(samples);
            emit(&format!(
                "scale/line100k/probe-dfs: plain {:.3} ms, recorded {:.3} ms, ratio {:.3} \
                 (bound {:.2})\n",
                plain_ns / 1e6,
                recorded_ns / 1e6,
                ratio,
                gate::TIMELINE_FACTOR,
            ))?;
            if ratio > gate::TIMELINE_FACTOR {
                return Err(format!(
                    "flight-recorder overhead ×{ratio:.3} exceeds the ×{:.2} bound",
                    gate::TIMELINE_FACTOR
                ));
            }
            Ok(())
        }
    }
}
