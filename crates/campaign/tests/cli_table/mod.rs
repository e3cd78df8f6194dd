//! The table check behind every binary's command-line tests. A test spells
//! out, row by row, the words that select each subcommand (or role), its
//! name in messages and the flags it takes; [`check_table`] then holds the
//! binary to that table from the outside, before any work can start:
//!
//! - each flag of the binary a row does not take exits 1 with empty stdout
//!   and one stderr line `<name> does not take <flag> (it takes …)`, whose
//!   list is exactly the row's flags;
//! - each flag the row takes is read with a value of its kind, once, or
//!   again where the row marks it repeatable (`*`); a second copy of any
//!   other is refused;
//! - `0` for each positive-integer flag the row takes exits 1;
//! - `--help` and `-h` after the row's words print the binary's usage.
//!
//! Acceptance is shown without running anything: an unknown flag put last
//! is reached only once every flag before it was read.

use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// What one run of a binary did.
pub struct Run {
    pub code: Option<i32>,
    pub stdout: String,
    pub stderr: String,
}

/// Run `bin` with `args`. A child still running after 10 s started work
/// it should have refused: it is killed and the test fails.
pub fn run(bin: &str, args: &[&str]) -> Run {
    let mut child = Command::new(bin)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("the binary starts");
    let deadline = Instant::now() + Duration::from_secs(10);
    while child.try_wait().expect("wait for the child").is_none() {
        if Instant::now() > deadline {
            child.kill().ok();
            child.wait().ok();
            panic!("{bin} {args:?} was still running after 10 s");
        }
        std::thread::sleep(Duration::from_millis(5));
    }
    let out = child.wait_with_output().expect("the child's output");
    Run {
        code: out.status.code(),
        stdout: String::from_utf8_lossy(&out.stdout).into_owned(),
        stderr: String::from_utf8_lossy(&out.stderr).into_owned(),
    }
}

/// One subcommand or role: the words that select it, its name in
/// messages, and the flags it takes (`*` marks a repeatable flag).
pub type Row<'a> = (&'a [&'a str], &'a str, &'a str);

/// Require a refusal before any work: exit 1, nothing on stdout, and one
/// stderr line containing `message`, which is returned.
pub fn assert_refused(bin: &str, args: &[&str], message: &str) -> String {
    let run = run(bin, args);
    let what = format!("{args:?}:\n{}", run.stderr);
    assert_eq!(run.code, Some(1), "{what}");
    assert!(run.stdout.is_empty(), "{what}\nstdout: {}", run.stdout);
    assert_eq!(run.stderr.lines().count(), 1, "{what}");
    assert!(run.stderr.contains(message), "{what}\nwanted: {message}");
    run.stderr
}

/// Hold `bin` to `rows`. `flags` is every flag of the binary with a value
/// of its kind (`None` for a switch); `positive` names its
/// positive-integer flags.
pub fn check_table<'a>(
    bin: &str,
    flags: &[(&'a str, Option<&'a str>)],
    positive: &[&str],
    rows: &[Row<'a>],
) {
    let usage = run(bin, &["--help"]);
    assert_eq!(usage.code, Some(0), "{bin} --help: {}", usage.stderr);
    assert!(!usage.stdout.is_empty(), "{bin} --help printed nothing");
    for &(words, name, takes) in rows {
        let takes: Vec<(&str, bool)> = takes
            .split_whitespace()
            .map(|f| (f.trim_end_matches('*'), f.ends_with('*')))
            .collect();
        let with = |extra: &[&'a str]| [words, extra].concat();
        for (flag, value) in flags {
            let typed: Vec<&str> = std::iter::once(*flag).chain(*value).collect();
            match takes.iter().find(|(taken, _)| taken == flag) {
                None => {
                    let refusal = format!("{name} does not take {flag} (it takes ");
                    let line = assert_refused(bin, &with(&typed), &refusal);
                    let listed = line.split(" (it takes ").nth(1).unwrap_or_default();
                    let listed = listed.trim_end().trim_end_matches(')');
                    let mut listed: Vec<&str> = listed.split([',', ' ']).collect();
                    listed.retain(|w| w.starts_with("--"));
                    let mut expected: Vec<&str> = takes.iter().map(|(f, _)| *f).collect();
                    listed.sort_unstable();
                    expected.sort_unstable();
                    assert_eq!(listed, expected, "{bin} {name}: the flags it takes");
                }
                Some(_) if words.contains(flag) => {}
                Some(&(_, repeats)) => {
                    let once = with(&[&typed[..], &["--no-such-flag"]].concat());
                    assert_refused(bin, &once, "unknown flag '--no-such-flag'");
                    let twice = with(&[&typed[..], &typed, &["--no-such-flag"]].concat());
                    let refusal = if repeats {
                        "unknown flag '--no-such-flag'".to_string()
                    } else {
                        format!("{flag} is given more than once")
                    };
                    assert_refused(bin, &twice, &refusal);
                    if positive.contains(flag) {
                        assert_refused(bin, &with(&[flag, "0"]), &format!("{flag} expects a"));
                    }
                }
            }
        }
        for help in ["--help", "-h"] {
            let out = run(bin, &with(&[help]));
            assert_eq!(out.code, Some(0), "{bin} {words:?} {help}: {}", out.stderr);
            assert_eq!(out.stdout, usage.stdout, "{bin} {words:?} {help}");
        }
    }
}
