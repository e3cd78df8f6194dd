//! The `bench-gate` and `ablations` command lines: every subcommand reads
//! exactly the flags of its table and refuses the rest before it measures,
//! and `ablations` refuses a study it does not have.

#[path = "../../campaign/tests/cli_table/mod.rs"]
mod cli_table;

use cli_table::{assert_refused, check_table, Row};

const GATE: &str = env!("CARGO_BIN_EXE_bench-gate");
const ABLATIONS: &str = env!("CARGO_BIN_EXE_ablations");

#[test]
fn every_subcommand_of_bench_gate_reads_exactly_the_flags_of_its_table() {
    let flags = [
        ("--out", Some("/nonexistent/baseline.json")),
        ("--baseline", Some("/nonexistent/baseline.json")),
        ("--samples", Some("2")),
        ("--threads", Some("1,2")),
    ];
    let rows: [Row; 4] = [
        (&["record"], "record", "--out --samples"),
        (&["check"], "check", "--baseline --samples"),
        (&["scaling"], "scaling", "--threads"),
        (&["timeline"], "timeline", "--samples"),
    ];
    check_table(GATE, &flags, &["--samples", "--threads"], &rows);
}

#[test]
fn ablations_reads_a_known_study_and_a_thread_count() {
    let flags = [("--study", Some("all")), ("--threads", Some("2"))];
    let rows: [Row; 1] = [(&[], "ablations", "--study --threads")];
    check_table(ABLATIONS, &flags, &["--threads"], &rows);
    assert_refused(ABLATIONS, &["--threads", "abc"], "--threads expects a");
    let refusal = assert_refused(ABLATIONS, &["--study", "bogus"], "'bogus'");
    for study in ["seeker-fraction", "wait-length", "all"] {
        assert!(refusal.contains(study), "{refusal}");
    }
    assert_refused(ABLATIONS, &["--stduy", "all"], "unknown flag '--stduy'");
}
