//! Persistent result-cache behaviour: warm runs are served from disk with
//! bit-identical results, corruption degrades to a miss (never a panic,
//! never a wrong table), and a version-stamp mismatch (schema or code)
//! invalidates the whole store.

use ear_experiments::engine::{run_matrix_engine, EngineConfig};
use ear_experiments::{set_result_cache, RunKind};
use std::path::PathBuf;
use std::sync::Mutex;

/// The result cache is process-global state; tests that enable it must
/// not interleave.
static CACHE_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    CACHE_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

fn temp_store(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("earsim-cache-test-{}-{name}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn cells() -> Vec<(String, RunKind)> {
    vec![
        ("No policy".to_string(), RunKind::NoPolicy),
        (
            "Fixed 2.0".to_string(),
            RunKind::Fixed {
                cpu: 5,
                imc_ratio: Some(18),
            },
        ),
    ]
}

fn run() -> ear_experiments::MatrixRun {
    let targets = ear_workloads::by_name("BQCD").expect("known workload");
    run_matrix_engine(&targets, &cells(), &EngineConfig::new(2, 42))
}

fn entry_files(dir: &PathBuf) -> Vec<PathBuf> {
    std::fs::read_dir(dir)
        .map(|rd| {
            rd.flatten()
                .map(|e| e.path())
                .filter(|p| p.extension().is_some_and(|e| e == "entry"))
                .collect()
        })
        .unwrap_or_default()
}

#[test]
fn warm_run_is_served_from_disk_bit_identically() {
    let _g = lock();
    let dir = temp_store("warm");

    // Reference: cache disabled.
    set_result_cache(None);
    let plain = run();

    // Cold: populates the store, serves nothing.
    set_result_cache(Some(dir.clone()));
    let cold = run();
    assert_eq!(cold.summary.result_hits, 0);
    assert_eq!(cold.summary.result_misses, 2);
    assert_eq!(cold.summary.tasks, 4, "cold run schedules every task");
    assert_eq!(entry_files(&dir).len(), 2, "both cells stored");

    // Warm: everything from disk, nothing simulated.
    let warm = run();
    assert_eq!(warm.summary.result_hits, 2);
    assert_eq!(warm.summary.result_misses, 0);
    assert_eq!(warm.summary.tasks, 0, "warm run schedules nothing");

    // Disabled, cold and warm agree to the bit (RunResult is PartialEq
    // over f64 fields; any difference fails).
    let expect = plain.all().expect("plain run succeeds");
    assert_eq!(cold.all().expect("cold run succeeds"), expect);
    assert_eq!(warm.all().expect("warm run succeeds"), expect);

    set_result_cache(None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn corrupt_and_truncated_entries_degrade_to_misses() {
    let _g = lock();
    let dir = temp_store("corrupt");
    set_result_cache(Some(dir.clone()));
    let cold = run();
    let expect = cold.all().expect("cold run succeeds");

    let files = entry_files(&dir);
    assert_eq!(files.len(), 2);
    // Truncate one entry mid-file, garble the other's metrics.
    let text = std::fs::read_to_string(&files[0]).expect("entry readable");
    std::fs::write(&files[0], &text[..text.len() / 2]).expect("truncate");
    std::fs::write(&files[1], "key 0000000000000000\nnot a cache entry\n").expect("garble");

    let rerun = run();
    assert_eq!(rerun.summary.result_hits, 0, "corrupt entries must not hit");
    assert_eq!(rerun.summary.result_misses, 2);
    assert_eq!(
        rerun.summary.result_invalidations, 2,
        "both corrupt entries dropped"
    );
    assert_eq!(
        rerun.all().expect("rerun succeeds"),
        expect,
        "tables unchanged"
    );

    // The store healed: a further run hits again.
    let healed = run();
    assert_eq!(healed.summary.result_hits, 2);

    set_result_cache(None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn stale_schema_entries_are_dropped() {
    let _g = lock();
    let dir = temp_store("stale");
    set_result_cache(Some(dir.clone()));
    let cold = run();
    let expect = cold.all().expect("cold run succeeds");

    for file in entry_files(&dir) {
        let text = std::fs::read_to_string(&file).expect("entry readable");
        let stale = text.replacen("/v2", "/v0", 1);
        assert_ne!(stale, text, "schema marker must be present to stale");
        std::fs::write(&file, stale).expect("stale rewrite");
    }

    let rerun = run();
    assert_eq!(rerun.summary.result_hits, 0);
    assert!(rerun.summary.result_invalidations >= 2);
    assert_eq!(rerun.all().expect("rerun succeeds"), expect);

    set_result_cache(None);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn version_bump_invalidates_the_whole_store() {
    let _g = lock();
    let dir = temp_store("version");
    set_result_cache(Some(dir.clone()));
    run();
    assert_eq!(entry_files(&dir).len(), 2);

    // Simulate a store written by an older build.
    std::fs::write(dir.join("VERSION"), "earsim-result-cache/v0\n").expect("stamp old version");
    set_result_cache(Some(dir.clone()));
    assert!(
        entry_files(&dir).is_empty(),
        "schema mismatch must wipe every entry"
    );
    let version = std::fs::read_to_string(dir.join("VERSION")).expect("VERSION rewritten");
    assert_eq!(version.trim(), ear_experiments::cache::version_stamp());

    // And the wiped store is simply cold, not broken.
    let rerun = run();
    assert_eq!(rerun.summary.result_hits, 0);
    assert_eq!(rerun.summary.result_misses, 2);

    set_result_cache(None);
    let _ = std::fs::remove_dir_all(&dir);
}
