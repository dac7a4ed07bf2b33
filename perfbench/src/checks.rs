//! Output checks. Every mismatch a check finds is counted as a failed
//! operation by the workload that ran it.

use std::path::Path;

/// MD5 of `ear_experiments::run_all()` (= `earsim all` stdout) with
/// `EAR_UNCORE_DOMAINS` unset and the default energy model.
pub const TABLES_MD5: &str = "d7afe51f13a18c96d2a899ef10726ed0";

/// Whether the paper report matches its known digest.
pub fn tables_digest_ok(report: &str, expected_md5: &str) -> bool {
    crate::md5::hex(report.as_bytes()) == expected_md5
}

/// Failed operations of a `tables_cold` run: the engine's failed tasks,
/// plus one for the report when its digest does not match.
pub fn tables_failures(tasks_failed: u64, report: &str, expected_md5: &str) -> u64 {
    tasks_failed + u64::from(!tables_digest_ok(report, expected_md5))
}

/// Whether a sweep report carries both fitted-policy summary lines with
/// every one of `apps` workloads inside the budget.
pub fn sweep_summary_ok(report: &str, apps: usize) -> bool {
    let all = format!("{apps}/{apps} workloads");
    let within = report
        .lines()
        .any(|l| l.starts_with("fitted within the") && l.ends_with(&all));
    let beats = report
        .lines()
        .any(|l| l.starts_with("fitted matches or beats") && l.ends_with(&all));
    within && beats
}

/// Files of `dir` as `(name, bytes)`, sorted by name.
fn read_dir_sorted(dir: &Path) -> std::io::Result<Vec<(String, Vec<u8>)>> {
    let mut files = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name().to_string_lossy().into_owned();
        files.push((name, std::fs::read(entry.path())?));
    }
    files.sort();
    Ok(files)
}

/// Number of artifact mismatches between two sweep output directories:
/// files present on one side only, or with different bytes. An unreadable
/// directory counts as one mismatch; an empty pair counts as one too, since
/// a sweep always writes artifacts.
pub fn artifact_mismatches(a: &Path, b: &Path) -> u64 {
    let (fa, fb) = match (read_dir_sorted(a), read_dir_sorted(b)) {
        (Ok(x), Ok(y)) => (x, y),
        _ => return 1,
    };
    if fa.is_empty() && fb.is_empty() {
        return 1;
    }
    let mut bad = 0;
    for (name, bytes) in &fa {
        match fb.iter().find(|(n, _)| n == name) {
            Some((_, other)) if other == bytes => {}
            _ => bad += 1,
        }
    }
    bad + fb
        .iter()
        .filter(|(n, _)| !fa.iter().any(|(m, _)| m == n))
        .count() as u64
}

/// The raw text of a top-level numeric or boolean field of a result line.
pub fn json_field<'a>(line: &'a str, key: &str) -> Option<&'a str> {
    let pat = format!("\"{key}\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    Some(rest[..end].trim())
}

/// The value of metric `name` in a result line.
pub fn metric_value(line: &str, name: &str) -> Option<f64> {
    let pat = format!("\"{name}\": {{\"value\": ");
    let start = line.find(&pat)? + pat.len();
    let rest = &line[start..];
    rest[..rest.find(',')?].trim().parse().ok()
}

/// A numeric field of the engine's telemetry JSON.
pub fn telemetry_number(json: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let start = json.find(&pat)? + pat.len();
    let rest = &json[start..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse().ok()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digest_mismatch_is_detected() {
        let report = "Table I\n";
        let good = crate::md5::hex(report.as_bytes());
        assert!(tables_digest_ok(report, &good));
        assert!(!tables_digest_ok("Table I \n", &good));
        assert!(!tables_digest_ok(report, TABLES_MD5));
    }

    #[test]
    fn forced_digest_mismatch_counts_as_a_failed_operation() {
        let report = "Table I\n";
        let good = crate::md5::hex(report.as_bytes());
        assert_eq!(tables_failures(0, report, &good), 0);
        assert_eq!(tables_failures(0, report, TABLES_MD5), 1);
        assert_eq!(tables_failures(2, report, TABLES_MD5), 3);
        let mut o = crate::report::Outcome::default();
        for (name, _) in crate::report::END_TO_END {
            o.set(name, 1.0);
        }
        o.count(466, tables_failures(0, report, TABLES_MD5));
        let line = o.to_json(&crate::report::END_TO_END);
        assert_eq!(json_field(&line, "correct"), Some("false"));
        assert_eq!(json_field(&line, "failed"), Some("1"));
    }

    #[test]
    fn sweep_summary_needs_both_lines_complete() {
        let ok = "x\nfitted within the 7% penalty budget: 16/16 workloads\n\
                  fitted matches or beats ME energy saving: 16/16 workloads\n";
        assert!(sweep_summary_ok(ok, 16));
        let short = ok.replace(
            "beats ME energy saving: 16/16",
            "beats ME energy saving: 15/16",
        );
        assert!(!sweep_summary_ok(&short, 16));
        assert!(!sweep_summary_ok(
            "fitted within the 7% penalty budget: 16/16 workloads",
            16
        ));
    }

    #[test]
    fn artifact_directories_compare_by_name_and_bytes() {
        let root = std::env::temp_dir().join(format!("perfbench-checks-{}", std::process::id()));
        let (a, b) = (root.join("a"), root.join("b"));
        let write = |d: &Path, n: &str, s: &str| {
            std::fs::create_dir_all(d).and_then(|_| std::fs::write(d.join(n), s))
        };
        let setup = write(&a, "x.sweep", "1")
            .and(write(&b, "x.sweep", "1"))
            .and(write(&a, "y.sweep", "2"))
            .and(write(&b, "y.sweep", "2"));
        assert!(setup.is_ok());
        assert_eq!(artifact_mismatches(&a, &b), 0);
        assert!(write(&b, "y.sweep", "3").is_ok());
        assert_eq!(artifact_mismatches(&a, &b), 1);
        assert!(write(&b, "z.sweep", "3").is_ok());
        assert_eq!(artifact_mismatches(&a, &b), 2);
        assert_eq!(artifact_mismatches(&a, &root.join("missing")), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn result_lines_parse_back() {
        let line = "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
                    {\"wall_s\": {\"value\": 1.25, \"unit\": \"s\"}}}";
        assert_eq!(json_field(line, "attempted"), Some("12"));
        assert_eq!(json_field(line, "correct"), Some("true"));
        assert_eq!(metric_value(line, "wall_s"), Some(1.25));
        assert_eq!(metric_value(line, "setup_s"), None);
        let tele = "{\"tasks\":465,\"tasks_failed\":0,\"wall_s\":22.619}";
        assert_eq!(telemetry_number(tele, "tasks"), Some(465.0));
        assert_eq!(telemetry_number(tele, "wall_s"), Some(22.619));
    }
}
