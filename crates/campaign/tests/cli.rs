//! The `disp-campaign` binary's surface: the bare form and every
//! subcommand's `--help` / `-h` print the usage on stdout and exit 0, while
//! an unknown flag is still an error, and so is a flag `trace` or
//! `timeline` would not read; a trial that hits its limit still shows its
//! trace and timeline; timeline headers carry exact seeds; and a reader
//! that closes stdout early ends the command quietly.

use disp_analysis::{Json, TrialRecord};
use std::io::Read;
use std::path::PathBuf;
use std::process::{Command, Output, Stdio};

fn campaign(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_disp-campaign"))
        .args(args)
        .output()
        .expect("disp-campaign runs")
}

#[test]
fn every_subcommand_prints_the_usage_on_help() {
    let bare = campaign(&["--help"]);
    assert!(bare.status.success());
    let usage = String::from_utf8(bare.stdout).expect("utf-8 usage");
    assert!(usage.starts_with("disp-campaign"), "{usage}");
    for sub in ["run", "resume", "report", "trace", "timeline", "scenarios"] {
        for flag in ["--help", "-h"] {
            let out = campaign(&[sub, flag]);
            assert!(
                out.status.success(),
                "`{sub} {flag}` exited {:?}: {}",
                out.status,
                String::from_utf8_lossy(&out.stderr)
            );
            assert_eq!(String::from_utf8_lossy(&out.stdout), usage, "{sub} {flag}");
        }
    }
    // After other flags too, and before anything runs.
    let late = campaign(&["run", "--seed", "3", "--help"]);
    assert!(late.status.success());
    assert_eq!(String::from_utf8_lossy(&late.stdout), usage);
}

#[test]
fn an_unknown_flag_is_still_an_error() {
    let out = campaign(&["run", "--frobnicate"]);
    assert!(!out.status.success());
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("unknown flag '--frobnicate'"), "{err}");
}

#[test]
fn trace_and_timeline_reject_the_flags_they_do_not_read() {
    let label = "star/k8/rooted/sync/probe-dfs";
    for (sub, flags) in [
        ("timeline", &["--cap", "3"][..]),
        ("trace", &["--budget", "3"]),
        ("trace", &["--threads", "7", "--force", "--events"]),
        ("timeline", &["--reps", "2"]),
        ("trace", &["--campaign", "mini"]),
    ] {
        let mut args = vec![sub, "--scenario", label, "--seed", "2"];
        args.extend_from_slice(flags);
        let out = campaign(&args);
        assert_eq!(out.status.code(), Some(1), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?} ran anyway");
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains(&format!("{sub} does not take {}", flags[0])),
            "{args:?}: {err}"
        );
    }
    // Each reads its own bound.
    for (sub, bound) in [("trace", "--cap"), ("timeline", "--budget")] {
        let out = campaign(&[sub, "--scenario", label, "--seed", "2", bound, "4"]);
        assert!(out.status.success(), "{sub} {bound}");
    }
}

#[test]
fn a_reader_that_closes_stdout_early_ends_the_command_quietly() {
    // ~280 KB of trace, far more than a pipe buffers: the writer is still
    // writing when the reader goes away.
    let mut child = Command::new(env!("CARGO_BIN_EXE_disp-campaign"))
        .args(["trace", "--scenario", "star/k32/rooted/sync/probe-dfs"])
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("disp-campaign runs");
    let mut head = [0u8; 20];
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_exact(&mut head)
        .unwrap();
    // The read end closes here, with the rest of the trace unread.
    let out = child.wait_with_output().unwrap();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(!err.contains("panicked"), "{err}");
}

/// `/rounds20` stops a 32-agent rooted line long before it disperses.
const CUT_SHORT: &str = "line/k32/rooted/sync/probe-dfs/rounds20";

fn parse_lines(text: &str) -> Vec<Json> {
    text.lines()
        .map(|l| Json::parse(l).expect("a JSON line"))
        .collect()
}

fn event(doc: &Json) -> &str {
    doc.get("event").and_then(Json::as_str).unwrap_or_default()
}

#[test]
fn a_limit_exceeded_trial_still_writes_its_partial_trace_and_timeline() {
    for (sub, end) in [("trace", "trace_end"), ("timeline", "timeline_end")] {
        let out = campaign(&[sub, "--scenario", CUT_SHORT, "--seed", "3"]);
        assert_eq!(
            out.status.code(),
            Some(1),
            "{sub} reports the limit as a failure"
        );
        let err = String::from_utf8_lossy(&out.stderr);
        assert!(
            err.contains("did not terminate within the limit"),
            "{sub}: {err}"
        );
        let docs = parse_lines(&String::from_utf8(out.stdout).expect("utf-8 JSONL"));
        assert_eq!(
            docs.last().map(event),
            Some(end),
            "{sub}: the stream is whole"
        );
        assert!(docs.len() > 2, "{sub}: the stream holds what happened");
        if sub == "timeline" {
            // The forced final point sits at the limit.
            let last = &docs[docs.len() - 2];
            assert_eq!(event(last), "point");
            assert_eq!(last.get("time").and_then(Json::as_u64), Some(20));
        }
    }
}

#[test]
fn timeline_headers_carry_exact_seeds_through_the_sidecar_and_the_report() {
    // Seeds above 2^53 do not survive an f64.
    let seed = "3923277100652395404";
    let out = campaign(&[
        "timeline",
        "--scenario",
        "star/k8/rooted/sync/probe-dfs",
        "--seed",
        seed,
    ]);
    assert!(out.status.success());
    let docs = parse_lines(&String::from_utf8(out.stdout).expect("utf-8 JSONL"));
    let header_seed = docs[0].get("seed").and_then(Json::as_u64_lossless);
    assert_eq!(header_seed, seed.parse().ok());

    // Every executed trial leaves one timeline under its own derived seed
    // (uniform 64-bit values), the limit-exceeded ones included.
    let dir = std::env::temp_dir().join(format!("disp-campaign-cli-seeds-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let dir_arg = dir.to_str().expect("a UTF-8 temp path");
    let run = campaign(&[
        "run",
        "--timeline",
        "--seed",
        "5",
        "--reps",
        "2",
        "--threads",
        "1",
        "--out",
        dir_arg,
        "--scenario",
        "star/k8/rooted/sync/probe-dfs",
        "--scenario",
        CUT_SHORT,
    ]);
    assert!(
        run.status.success(),
        "{}",
        String::from_utf8_lossy(&run.stderr)
    );
    let read = |name: &str| std::fs::read_to_string(PathBuf::from(&dir).join(name)).unwrap();
    let mut trial_seeds: Vec<u64> = read("trials.jsonl")
        .lines()
        .map(|l| TrialRecord::from_json_line(l).expect("a trial record").seed)
        .collect();
    assert!(trial_seeds.iter().any(|&s| s > 1 << 53), "{trial_seeds:?}");
    let mut header_seeds: Vec<u64> = parse_lines(&read("timelines.jsonl"))
        .iter()
        .filter(|doc| event(doc) == "timeline_start")
        .map(|doc| {
            doc.get("seed")
                .and_then(Json::as_u64_lossless)
                .expect("a seed")
        })
        .collect();
    trial_seeds.sort_unstable();
    header_seeds.sort_unstable();
    assert_eq!(header_seeds, trial_seeds);

    let report = campaign(&["report", "--out", dir_arg, "--timeline"]);
    assert!(report.status.success());
    let view = String::from_utf8_lossy(&report.stdout);
    for s in &trial_seeds {
        assert!(
            view.contains(&format!("seed={s}\n")),
            "seed {s} missing from:\n{view}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
