//! `earsim run` rejects malformed numeric flags up front: exit status 2
//! and a message naming the flag, before any cell is simulated.

use std::process::Command;

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
        let out = Command::new(env!("CARGO_BIN_EXE_earsim"))
            .args(["--no-cache", "run", "--app", "BQCD", flag, value])
            .output()
            .expect("spawn earsim");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{flag} {value}: {stderr}");
        assert!(
            stderr.starts_with(&format!("{flag} expects")),
            "{flag} {value}: {stderr}"
        );
        // Nothing ran: no result table, no engine telemetry line.
        assert!(out.stdout.is_empty(), "{flag} {value} printed results");
        assert!(!stderr.contains("earsim-telemetry: {"), "{flag} {value}");
    }
}
