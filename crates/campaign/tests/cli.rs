//! The `disp-campaign` binary's help surface: the bare form and every
//! subcommand's `--help` / `-h` print the usage on stdout and exit 0, while
//! an unknown flag is still an error.

use std::process::{Command, Output};

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
