//! The `disp-serve` and `disp-load` command lines: every role and
//! subcommand reads exactly the flags of its table and refuses the rest
//! before it binds, connects or measures; `watch --run` refuses the grid
//! flags it would ignore; and `disp-load` ends quietly when its reader
//! closes stdout early.

#[path = "../../campaign/tests/cli_table/mod.rs"]
mod cli_table;

use cli_table::{assert_refused, check_table, Row};
use disp_serve::{ServeConfig, Server};
use std::io::Read;
use std::process::{Command, Stdio};

const SERVE: &str = env!("CARGO_BIN_EXE_disp-serve");
const LOAD: &str = env!("CARGO_BIN_EXE_disp-load");
const LABEL: &str = "star/k8/rooted/sync/probe-dfs";

#[test]
fn every_role_of_disp_serve_reads_exactly_the_flags_of_its_table() {
    let flags = [
        ("--addr", Some("127.0.0.1:0")),
        ("--http-threads", Some("2")),
        ("--job-threads", Some("2")),
        ("--cache-dir", Some("/nonexistent/cache")),
        ("--cache-max-entries", Some("5")),
        ("--cache-max-bytes", Some("5000")),
        ("--role", Some("serve")),
        ("--batch-size", Some("2")),
        ("--lease-ttl-secs", Some("3")),
        ("--coordinator", Some("127.0.0.1:1")),
        ("--worker-id", Some("w9")),
    ];
    let positive = [
        "--http-threads",
        "--job-threads",
        "--cache-max-entries",
        "--cache-max-bytes",
        "--batch-size",
        "--lease-ttl-secs",
    ];
    let serve = "--addr --http-threads --job-threads --cache-dir --cache-max-entries \
                 --cache-max-bytes --role";
    let coordinator = format!("{serve} --batch-size --lease-ttl-secs");
    let rows: [Row; 5] = [
        (&[], "--role serve", serve),
        (&["--role", "serve"], "--role serve", serve),
        (
            &["--role", "coordinator"],
            "--role coordinator",
            &coordinator,
        ),
        (
            &["--role", "worker"],
            "--role worker",
            "--role --coordinator --worker-id --job-threads --cache-dir",
        ),
        (&["compact"], "compact", "--cache-dir"),
    ];
    check_table(SERVE, &flags, &positive, &rows);
}

#[test]
fn every_subcommand_of_disp_load_reads_exactly_the_flags_of_its_table() {
    let flags = [
        ("--addr", Some("127.0.0.1:1")),
        ("--connections", Some("2")),
        ("--requests", Some("5")),
        ("--scenario", Some(LABEL)),
        ("--grid", Some("micro")),
        ("--min-rps", Some("1.5")),
        ("--reps", Some("2")),
        ("--seed", Some("3")),
        ("--format", Some("json")),
        ("--target", Some("coordinator")),
        ("--run", Some("r1")),
        ("--path", Some("/healthz")),
    ];
    let grid = "--addr --scenario* --grid --reps --seed";
    let rows: [Row; 5] = [
        (
            &["bench"],
            "bench",
            "--addr --connections --requests --scenario* --grid --min-rps --reps --seed \
             --format --target",
        ),
        (&["once"], "once", grid),
        (&["events"], "events", grid),
        (
            &["watch"],
            "watch",
            "--addr --scenario* --grid --reps --seed --run",
        ),
        (&["get"], "get", "--addr --path"),
    ];
    check_table(
        LOAD,
        &flags,
        &["--connections", "--requests", "--reps"],
        &rows,
    );
}

#[test]
fn watch_refuses_grid_flags_when_it_attaches_to_a_run() {
    // Nothing listens on port 1: a watch that got as far as connecting
    // would fail with a transport error instead.
    let watch = ["watch", "--addr", "127.0.0.1:1", "--run", "r1"];
    for flag in [
        &["--scenario", LABEL][..],
        &["--grid", "micro"],
        &["--reps", "2"],
        &["--seed", "3"],
    ] {
        let args = [&watch[..], flag].concat();
        assert_refused(LOAD, &args, &format!("does not take {}", flag[0]));
    }
}

#[test]
fn disp_load_ends_quietly_when_its_reader_closes_stdout_early() {
    let server = Server::start(
        "127.0.0.1:0",
        ServeConfig {
            job_threads: 1,
            ..ServeConfig::default()
        },
    )
    .unwrap();
    // ~280 KB of trace, far more than a pipe buffers: the writer is still
    // writing when the reader goes away.
    let mut child = Command::new(LOAD)
        .args(["get", "--addr", &server.addr().to_string(), "--path"])
        .arg("/trace?scenario=star/k32/rooted/sync/probe-dfs&seed=2")
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("disp-load runs");
    let mut head = [0u8; 20];
    child
        .stdout
        .take()
        .expect("piped stdout")
        .read_exact(&mut head)
        .unwrap();
    // The read end closes here, with the rest of the trace unread.
    let out = child.wait_with_output().unwrap();
    server.shutdown();
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "{err}");
    assert!(!err.contains("panicked"), "{err}");
    assert_eq!(&head, b"{\"event\":\"milestone\"");
}
