//! Persistent content-addressed result cache.
//!
//! Repeated campaigns mostly re-run identical cells: the same workload
//! targets, the same policy configuration, the same seeds. Like a build
//! system, the engine therefore caches each cell's averaged [`RunResult`]
//! on disk, keyed by a digest of **everything that determines the
//! result** — the code that computes it ([`SOURCE_FINGERPRINT`]),
//! workload characterisation (which fixes the node config), cell label,
//! run configuration (policy name, thresholds, fixed frequencies), the
//! effective energy model, run count, base seed, the seed-salting mode,
//! and the store schema version. A warm `earsim all` re-emits
//! byte-identical tables without simulating a single phase, and a store
//! filled by a different build of the simulator or policies misses.
//!
//! Design points:
//!
//! - **Disabled by default at the library level.** Only the `earsim`
//!   front end turns the store on (`--no-cache` / `EAR_CACHE=0` /
//!   `EAR_CACHE_DIR` to relocate it), so unit tests and library callers
//!   see engine semantics unchanged unless they opt in.
//! - **Bit-exact round-trips.** Metrics are stored as the hex of
//!   [`f64::to_bits`]; a hit reproduces the fresh result to the last bit,
//!   which keeps tables byte-identical across cache states.
//! - **Corruption is a miss, never a failure.** Entry parsing is routed
//!   through [`EarError`]; truncated, garbled or stale-schema files are
//!   deleted, counted as invalidations, and the cell simply runs.
//! - **Whole-store versioning.** A `VERSION` file pins the schema and the
//!   source fingerprint; any mismatch wipes every entry (the key layout
//!   may have changed, and entries keyed on other code can never hit).
//! - **No dependencies.** Hand-rolled FNV-1a keys and line-based entry
//!   files; `std::fs` only, atomic publish via temp file + rename.

use crate::fnv::{fnv1a, FNV_OFFSET};
use crate::harness::{RunKind, RunResult};
use ear_errors::EarError;
use ear_trace::metrics::{self, Metric};
use ear_workloads::WorkloadTargets;
use std::path::{Path, PathBuf};
use std::sync::{Mutex, PoisonError};

/// Store schema: the entry file layout **and** the key derivation. Bump on
/// any change to either; the version check wipes stale stores wholesale.
/// (Folding in [`SOURCE_FINGERPRINT`] needed no bump: every key it
/// produces hashes a `|code|` field no earlier key has, so entries from
/// before it can only miss.)
pub const CACHE_SCHEMA: &str = "earsim-result-cache/v2";

/// FNV-1a digest of the sources that produce a cell's numbers: the
/// `src` trees of archsim, core, dynais, mpisim, workloads and this crate,
/// hashed by `build.rs` with the same hasher as the keys. Folded into
/// every key, so editing any of that code turns a warm store cold, and
/// into the `VERSION` stamp, so the first process built from the edited
/// code wipes the entries the old code left behind. The key still carries
/// it because two builds can share one store: the key is what stops
/// either from serving the other's entries.
pub const SOURCE_FINGERPRINT: u64 = include!(concat!(env!("OUT_DIR"), "/source_fingerprint.rs"));

/// Where results are cached unless `EAR_CACHE_DIR` overrides it.
pub const DEFAULT_CACHE_DIR: &str = "target/earsim-cache";

static STORE: Mutex<Option<PathBuf>> = Mutex::new(None);

fn store_dir() -> Option<PathBuf> {
    STORE.lock().unwrap_or_else(PoisonError::into_inner).clone()
}

/// The default store location: `$EAR_CACHE_DIR` if set and non-empty,
/// else [`DEFAULT_CACHE_DIR`] relative to the working directory.
pub fn default_cache_dir() -> PathBuf {
    match std::env::var("EAR_CACHE_DIR") {
        Ok(d) if !d.trim().is_empty() => PathBuf::from(d),
        _ => PathBuf::from(DEFAULT_CACHE_DIR),
    }
}

/// The `VERSION` stamp of a store written by this code:
/// [`CACHE_SCHEMA`] and [`SOURCE_FINGERPRINT`].
pub fn version_stamp() -> String {
    stamp_for_code(SOURCE_FINGERPRINT)
}

fn stamp_for_code(code: u64) -> String {
    format!("{CACHE_SCHEMA} code={code:#018x}")
}

/// Enables (`Some(dir)`) or disables (`None`) the persistent result
/// cache process-wide. Enabling prepares the store: the directory is
/// created if missing and wiped if its `VERSION` file disagrees with
/// [`version_stamp`] (counted as an invalidation). Preparation failures
/// (e.g. an unwritable path) disable the cache rather than erroring —
/// caching is an optimisation, never a correctness dependency.
pub fn set_result_cache(dir: Option<PathBuf>) {
    let prepared = dir.and_then(|d| match prepare_store(&d) {
        Ok(()) => Some(d),
        Err(e) => {
            eprintln!("earsim: result cache disabled: {e}");
            None
        }
    });
    *STORE.lock().unwrap_or_else(PoisonError::into_inner) = prepared;
}

/// `(hits, misses, invalidations)` since process start.
pub fn result_cache_stats() -> (u64, u64, u64) {
    (
        metrics::get(Metric::ResultHits),
        metrics::get(Metric::ResultMisses),
        metrics::get(Metric::ResultInvalidations),
    )
}

/// Creates the store directory and enforces the version stamp: a missing
/// or mismatching `VERSION` file clears every entry and rewrites it.
fn prepare_store(dir: &Path) -> Result<(), EarError> {
    std::fs::create_dir_all(dir).map_err(|e| EarError::io(dir.display().to_string(), e))?;
    let version_path = dir.join("VERSION");
    let current = std::fs::read_to_string(&version_path).unwrap_or_default();
    let stamp = version_stamp();
    if current.trim() != stamp {
        let mut wiped = false;
        if let Ok(entries) = std::fs::read_dir(dir) {
            for entry in entries.flatten() {
                let p = entry.path();
                if p.extension().is_some_and(|e| e == "entry") {
                    let _ = std::fs::remove_file(&p);
                    wiped = true;
                }
            }
        }
        if wiped || !current.trim().is_empty() {
            metrics::add(Metric::ResultInvalidations, 1);
        }
        std::fs::write(&version_path, format!("{stamp}\n"))
            .map_err(|e| EarError::io(version_path.display().to_string(), e))?;
    }
    Ok(())
}

/// Digest of everything that determines a cell's averaged result. The
/// source fingerprint pins the code; the workload targets fix the
/// calibrated node config and the synthesised job; the [`RunKind`] debug
/// rendering covers the policy name and every threshold/setting; the
/// model override changes every EARL instance; and the seed inputs
/// (`runs`, `base_seed`, salt mode and cell salt) fix the noise streams.
pub fn result_key(
    targets: &WorkloadTargets,
    label: &str,
    kind: &RunKind,
    model: Option<&str>,
    runs: usize,
    base_seed: u64,
    salt: u64,
) -> u64 {
    key_for_code(
        SOURCE_FINGERPRINT,
        targets,
        label,
        kind,
        model,
        runs,
        base_seed,
        salt,
    )
}

/// [`result_key`] for the code with fingerprint `code`.
#[allow(clippy::too_many_arguments)]
fn key_for_code(
    code: u64,
    targets: &WorkloadTargets,
    label: &str,
    kind: &RunKind,
    model: Option<&str>,
    runs: usize,
    base_seed: u64,
    salt: u64,
) -> u64 {
    let mut h = FNV_OFFSET;
    fnv1a(&mut h, CACHE_SCHEMA.as_bytes());
    fnv1a(&mut h, b"|code|");
    fnv1a(&mut h, &code.to_le_bytes());
    fnv1a(&mut h, b"|targets|");
    fnv1a(&mut h, format!("{targets:?}").as_bytes());
    fnv1a(&mut h, b"|label|");
    fnv1a(&mut h, label.as_bytes());
    fnv1a(&mut h, b"|kind|");
    fnv1a(&mut h, format!("{kind:?}").as_bytes());
    fnv1a(&mut h, b"|model|");
    fnv1a(&mut h, model.unwrap_or("default").as_bytes());
    fnv1a(&mut h, b"|seeds|");
    fnv1a(&mut h, format!("{runs}/{base_seed}/{salt}").as_bytes());
    h
}

fn entry_path(dir: &Path, key: u64) -> PathBuf {
    dir.join(format!("{key:016x}.entry"))
}

/// The metric fields of a [`RunResult`], in entry-file order. The domain
/// count rides along as an exactly-representable f64 so every field shares
/// the hex-of-bits encoding.
const METRIC_FIELDS: [&str; 14] = [
    "time_s",
    "dc_power_w",
    "pkg_power_w",
    "dc_energy_j",
    "pkg_energy_j",
    "avg_cpu_ghz",
    "avg_imc_ghz",
    "imc_domains",
    "imc_dom0_ghz",
    "imc_dom1_ghz",
    "imc_dom2_ghz",
    "imc_dom3_ghz",
    "cpi",
    "gbs",
];

fn metrics(r: &RunResult) -> [f64; 14] {
    [
        r.time_s,
        r.dc_power_w,
        r.pkg_power_w,
        r.dc_energy_j,
        r.pkg_energy_j,
        r.avg_cpu_ghz,
        r.avg_imc_ghz,
        r.imc_domains as f64,
        r.imc_dom_ghz[0],
        r.imc_dom_ghz[1],
        r.imc_dom_ghz[2],
        r.imc_dom_ghz[3],
        r.cpi,
        r.gbs,
    ]
}

fn render_entry(key: u64, result: &RunResult) -> String {
    use std::fmt::Write as _;
    let mut out = String::with_capacity(256);
    let _ = writeln!(out, "{CACHE_SCHEMA}");
    let _ = writeln!(out, "key {key:016x}");
    let _ = writeln!(out, "label {}", result.label);
    for (name, v) in METRIC_FIELDS.iter().zip(metrics(result)) {
        let _ = writeln!(out, "{name} {:016x}", v.to_bits());
    }
    out
}

/// Parses an entry file; any deviation from the expected layout is a
/// [`EarError::Parse`] naming the offending line.
fn parse_entry(key: u64, text: &str) -> Result<RunResult, EarError> {
    let parse_err = |line: usize, message: String| EarError::Parse { line, message };
    let mut lines = text.lines();
    let schema = lines.next().unwrap_or_default();
    if schema != CACHE_SCHEMA {
        return Err(parse_err(
            1,
            format!("schema '{schema}', want '{CACHE_SCHEMA}'"),
        ));
    }
    let key_line = lines.next().unwrap_or_default();
    if key_line != format!("key {key:016x}") {
        return Err(parse_err(
            2,
            format!("key line '{key_line}' does not match {key:016x}"),
        ));
    }
    let label = lines
        .next()
        .and_then(|l| l.strip_prefix("label "))
        .ok_or_else(|| parse_err(3, "missing label line".to_string()))?
        .to_string();
    let mut values = [0.0f64; 14];
    for (i, (name, slot)) in METRIC_FIELDS.iter().zip(values.iter_mut()).enumerate() {
        let lineno = 4 + i;
        let line = lines
            .next()
            .ok_or_else(|| parse_err(lineno, format!("missing field '{name}'")))?;
        let hex = line
            .strip_prefix(name)
            .and_then(|r| r.strip_prefix(' '))
            .ok_or_else(|| parse_err(lineno, format!("want field '{name}', got '{line}'")))?;
        let bits = u64::from_str_radix(hex.trim(), 16)
            .map_err(|e| parse_err(lineno, format!("field '{name}': {e}")))?;
        *slot = f64::from_bits(bits);
    }
    Ok(RunResult {
        label,
        time_s: values[0],
        dc_power_w: values[1],
        pkg_power_w: values[2],
        dc_energy_j: values[3],
        pkg_energy_j: values[4],
        avg_cpu_ghz: values[5],
        avg_imc_ghz: values[6],
        imc_domains: values[7] as usize,
        imc_dom_ghz: [values[8], values[9], values[10], values[11]],
        cpi: values[12],
        gbs: values[13],
    })
}

/// Looks `key` up in the store. Returns `None` — and counts a miss — when
/// the cache is disabled, the entry is absent, or the entry is corrupt
/// (which also deletes the file and counts an invalidation). Only a
/// bit-exact, well-formed entry counts as a hit.
pub fn lookup(key: u64) -> Option<RunResult> {
    let dir = store_dir()?;
    let path = entry_path(&dir, key);
    let text = match std::fs::read_to_string(&path) {
        Ok(t) => t,
        Err(_) => {
            metrics::add(Metric::ResultMisses, 1);
            return None;
        }
    };
    match parse_entry(key, &text) {
        Ok(result) => {
            metrics::add(Metric::ResultHits, 1);
            Some(result)
        }
        Err(e) => {
            // Corrupt entries degrade to a miss; the cell re-runs and the
            // store heals on the subsequent write.
            eprintln!(
                "earsim: dropping corrupt cache entry {}: {e}",
                path.display()
            );
            let _ = std::fs::remove_file(&path);
            metrics::add(Metric::ResultInvalidations, 1);
            metrics::add(Metric::ResultMisses, 1);
            None
        }
    }
}

/// Publishes `result` under `key`. Failures are swallowed (stderr only):
/// a cache that cannot write is merely cold, never an error.
pub fn store(key: u64, result: &RunResult) {
    let Some(dir) = store_dir() else { return };
    let path = entry_path(&dir, key);
    let tmp = dir.join(format!("{key:016x}.tmp{}", std::process::id()));
    let text = render_entry(key, result);
    let published = std::fs::write(&tmp, &text).and_then(|()| std::fs::rename(&tmp, &path));
    if let Err(e) = published {
        let _ = std::fs::remove_file(&tmp);
        eprintln!("earsim: cache write failed for {}: {e}", path.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_result(label: &str) -> RunResult {
        RunResult {
            label: label.into(),
            time_s: 123.456789,
            dc_power_w: 321.0984,
            pkg_power_w: 250.5,
            dc_energy_j: 39_630.1,
            pkg_energy_j: 30_925.2,
            avg_cpu_ghz: 2.397,
            avg_imc_ghz: 2.4,
            imc_domains: 2,
            imc_dom_ghz: [2.4, 1.2, 0.0, 0.0],
            cpi: 0.5123,
            gbs: 21.7,
        }
    }

    #[test]
    fn entry_round_trips_bit_exact() {
        let r = sample_result("ME+eU 2%");
        let text = render_entry(0xdead_beef, &r);
        let back = parse_entry(0xdead_beef, &text).expect("well-formed entry");
        assert_eq!(back, r);
        assert_eq!(back.time_s.to_bits(), r.time_s.to_bits());
    }

    #[test]
    fn parse_rejects_malformations() {
        let r = sample_result("x");
        let good = render_entry(7, &r);
        // Truncation.
        let cut = &good[..good.len() / 2];
        assert!(parse_entry(7, cut).is_err());
        // Wrong schema.
        let stale = good.replacen(CACHE_SCHEMA, "earsim-result-cache/v1", 1);
        assert!(parse_entry(7, &stale).is_err());
        // Key mismatch (entry content addressed under another digest).
        assert!(parse_entry(8, &good).is_err());
        // Garbled metric.
        let garbled = good.replace("cpi ", "cpi zz");
        assert!(parse_entry(7, &garbled).is_err());
    }

    #[test]
    fn keys_separate_configurations() {
        let t = ear_workloads::by_name("BQCD").expect("known workload");
        let k =
            |label: &str, kind: &RunKind, seed: u64| result_key(&t, label, kind, None, 3, seed, 0);
        let no_policy = RunKind::NoPolicy;
        let me = RunKind::me(0.1);
        let me2 = RunKind::me(0.2);
        assert_ne!(k("a", &no_policy, 1), k("a", &me, 1));
        assert_ne!(k("a", &me, 1), k("a", &me2, 1), "thresholds must key");
        assert_ne!(k("a", &me, 1), k("a", &me, 2), "seed must key");
        assert_ne!(k("a", &me, 1), k("b", &me, 1), "label must key");
        assert_ne!(
            result_key(&t, "a", &me, Some("avx512"), 3, 1, 0),
            result_key(&t, "a", &me, None, 3, 1, 0),
            "model must key"
        );
        assert_ne!(
            result_key(&t, "a", &me, None, 3, 1, 0),
            result_key(&t, "a", &me, None, 3, 1, 4),
            "cell salt must key"
        );
    }

    /// The stale-cache regression: an entry stored by one build of the
    /// simulator must miss for a build with different sources, even when
    /// every other input is identical.
    #[test]
    fn changed_source_fingerprint_misses() {
        let t = ear_workloads::by_name("BQCD").expect("known workload");
        let me = RunKind::me(0.1);
        let key = |code: u64| key_for_code(code, &t, "a", &me, None, 3, 1, 0);
        assert_eq!(
            key(SOURCE_FINGERPRINT),
            result_key(&t, "a", &me, None, 3, 1, 0)
        );
        let old_code = SOURCE_FINGERPRINT ^ 1;
        assert_ne!(key(old_code), key(SOURCE_FINGERPRINT), "code must key");

        // A lookup reads the entry file named by the key: the new build
        // looks for another file, and even an entry copied under the new
        // name is rejected, because each entry records the key it was
        // stored under.
        let dir = Path::new("store");
        assert_ne!(
            entry_path(dir, key(old_code)),
            entry_path(dir, key(SOURCE_FINGERPRINT))
        );
        let old_entry = render_entry(key(old_code), &sample_result("a"));
        assert!(parse_entry(key(old_code), &old_entry).is_ok());
        assert!(parse_entry(key(SOURCE_FINGERPRINT), &old_entry).is_err());
    }

    /// The orphaned-entry regression: a store last opened by other code
    /// holds entries this code can never hit, so opening it empties it
    /// and restamps it for this code.
    #[test]
    fn store_stamped_by_other_code_is_emptied_on_open() {
        let t = ear_workloads::by_name("BQCD").expect("known workload");
        let me = RunKind::me(0.1);
        let key = |code: u64| key_for_code(code, &t, "a", &me, None, 3, 1, 0);
        let put = |dir: &Path, key: u64| {
            let path = entry_path(dir, key);
            std::fs::write(&path, render_entry(key, &sample_result("a"))).expect("write entry");
            path
        };
        let dir = std::env::temp_dir().join(format!("earsim-cache-stamp-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create store");
        let old_code = SOURCE_FINGERPRINT ^ 1;
        assert_ne!(stamp_for_code(old_code), version_stamp());
        std::fs::write(dir.join("VERSION"), stamp_for_code(old_code)).expect("stamp store");
        let orphan = put(&dir, key(old_code));

        let before = metrics::get(Metric::ResultInvalidations);
        prepare_store(&dir).expect("prepare store");
        assert!(!orphan.exists(), "entry keyed on other code survived");
        assert!(metrics::get(Metric::ResultInvalidations) > before);
        let version = std::fs::read_to_string(dir.join("VERSION")).expect("VERSION rewritten");
        assert_eq!(version.trim(), version_stamp());

        // Reopening with the same code keeps what this code stored.
        let kept = put(&dir, key(SOURCE_FINGERPRINT));
        prepare_store(&dir).expect("reopen store");
        assert!(
            kept.exists(),
            "reopening with the same code wiped the store"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Regression for the v2 schema: the key digests the *whole* targets
    /// Debug rendering, so a per-die run (`uncore_domains > 1`) can never
    /// collide with the single-knob run of the same workload. A collision
    /// here would serve a per-die result to a single-knob campaign (or
    /// vice versa) from a warm store.
    #[test]
    fn keys_separate_uncore_domain_counts() {
        let t1 = ear_workloads::by_name("BQCD").expect("known workload");
        let mut t2 = t1.clone();
        t2.uncore_domains = 2;
        assert!(
            format!("{t1:?}").contains("uncore_domains"),
            "targets Debug rendering must expose the domain count the key relies on"
        );
        let me = RunKind::me(0.1);
        assert_ne!(
            result_key(&t1, "a", &me, None, 3, 1, 0),
            result_key(&t2, "a", &me, None, 3, 1, 0),
            "uncore-domain count must key"
        );
    }
}
