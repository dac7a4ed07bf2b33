//! Measured break-even gating for the node-parallel driver.
//!
//! Fanning a job's nodes out across threads only pays when the per-node
//! work per iteration amortises the synchronisation it buys: on a machine
//! with few spare cores (or a job with tiny iterations) the parallel path
//! is strictly slower than [`crate::run_job_serial`] — the 0.51× regression
//! this module exists to prevent. Instead of guessing, the driver
//! *measures*: a one-off calibration times the rendezvous gate, the scoped
//! thread spawn and a family of canonical probe jobs, and derives the node
//! count below which parallel stepping cannot win on this machine. The
//! result is persisted alongside the experiment result cache so later
//! processes skip the measurement.
//!
//! Resolution order for the gate, strongest first:
//!
//! 1. [`set_override`] — programmatic, used by tests, benches and the
//!    `earsim --mpi-break-even` flag;
//! 2. the `EAR_MPI_BREAK_EVEN` environment variable;
//! 3. the persisted calibration file (`mpi_break_even.v1`);
//! 4. a fresh [`calibrate_now`] measurement, persisted for next time.
//!
//! A threshold of `0` is special: it forces the full parallel machinery,
//! bypassing both the gate and the in-job autotuner. That is the handle CI
//! and the determinism tests use to pin the parallel path even on machines
//! where it would never be chosen on merit.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

/// First line of the persisted calibration file; bump on layout changes.
/// Unknown schemas are treated as a miss and recalibrated, never migrated.
pub const BREAKEVEN_SCHEMA: &str = "earsim-mpi-breakeven/v1";

/// File name of the persisted calibration, stored in the same directory as
/// the experiment result cache (`$EAR_CACHE_DIR`, else `target/earsim-cache`
/// when run from a workspace root, else the system temp dir).
pub const BREAKEVEN_FILE: &str = "mpi_break_even.v1";

/// Node counts the calibration probes, in order. A machine where parallel
/// stepping never wins inside this range gets a break-even one past twice
/// the largest probe: jobs beyond the measured range still reach the
/// in-job autotuner, which backs off per job if parallelism does not pay.
pub const PROBE_NODES: [usize; 3] = [2, 4, 8];

/// What the one-off measurement learned about this machine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Calibration {
    /// Smallest probed node count at which parallel stepping beat serial;
    /// jobs below it skip the parallel path entirely.
    pub break_even_nodes: usize,
    /// Cost of one horizon-gate rendezvous (ns), all workers together.
    pub sync_ns: f64,
    /// Cost of spawning one scoped worker thread (ns).
    pub spawn_ns: f64,
}

// usize::MAX encodes "no override"; any other value is the threshold.
static OVERRIDE: AtomicUsize = AtomicUsize::new(usize::MAX);
static ENV_THRESHOLD: OnceLock<Option<usize>> = OnceLock::new();
static CALIBRATION: OnceLock<Calibration> = OnceLock::new();

/// Installs (or with `None` removes) a programmatic gate threshold that
/// outranks both `EAR_MPI_BREAK_EVEN` and the calibration. `Some(0)`
/// forces the parallel machinery unconditionally; `Some(n)` sends jobs
/// with fewer than `n` nodes down the serial path. `usize::MAX` is
/// reserved and treated as "no override" — use `usize::MAX - 1` to force
/// everything serial.
pub fn set_override(threshold: Option<usize>) {
    OVERRIDE.store(threshold.unwrap_or(usize::MAX), Ordering::Relaxed);
}

/// Parses an `EAR_MPI_BREAK_EVEN` value: a bare non-negative integer.
/// Anything else (including the reserved `usize::MAX`) is ignored.
fn parse_threshold(raw: &str) -> Option<usize> {
    let n: usize = raw.trim().parse().ok()?;
    (n != usize::MAX).then_some(n)
}

/// The active gate threshold, if any: the programmatic override, else the
/// environment variable. `None` means "use the calibrated break-even".
pub fn threshold() -> Option<usize> {
    match OVERRIDE.load(Ordering::Relaxed) {
        usize::MAX => *ENV_THRESHOLD.get_or_init(|| {
            std::env::var("EAR_MPI_BREAK_EVEN")
                .ok()
                .as_deref()
                .and_then(parse_threshold)
        }),
        n => Some(n),
    }
}

/// How [`crate::run_job`] should execute a job of `nodes` nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Decision {
    /// Below break-even: run `drive_serial`, returning permits immediately.
    Serial,
    /// Threshold 0: full parallel machinery, no autotune back-off.
    Forced,
    /// At or above break-even: parallel with in-job chunk autotuning.
    Tuned,
}

/// Applies the gate to a job's node count. Only consults (and possibly
/// triggers) the calibration when no explicit threshold is set.
pub fn decision(nodes: usize) -> Decision {
    match threshold() {
        Some(0) => Decision::Forced,
        Some(n) if nodes < n => Decision::Serial,
        Some(_) => Decision::Tuned,
        None if nodes < calibration().break_even_nodes => Decision::Serial,
        None => Decision::Tuned,
    }
}

/// The machine calibration: loaded from the persisted file if present,
/// else measured once per process (and persisted, best-effort).
pub fn calibration() -> &'static Calibration {
    CALIBRATION.get_or_init(|| {
        let path = store_path();
        if let Some(cal) = path.as_deref().and_then(load) {
            return cal;
        }
        let cal = calibrate_now();
        if let Some(p) = path {
            persist(&p, &cal);
        }
        cal
    })
}

/// Runs the full measurement now, ignoring overrides and the persisted
/// file, and returns the result without storing it anywhere.
pub fn calibrate_now() -> Calibration {
    let sync_ns = measure_sync_ns();
    let spawn_ns = measure_spawn_ns();
    let break_even_nodes = probe_break_even();
    Calibration {
        break_even_nodes,
        sync_ns,
        spawn_ns,
    }
}

/// Minimum of `reps` timed runs of `f`, in seconds.
fn best_secs(reps: usize, mut f: impl FnMut()) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps.max(1) {
        let t0 = Instant::now();
        f();
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Times one horizon-gate rendezvous between two workers (ns). On a
/// single-core box this is dominated by the yield-driven context switch —
/// exactly the cost the autotuner must charge per iteration.
fn measure_sync_ns() -> f64 {
    use crate::driver::HorizonGate;
    const ROUNDS: u64 = 512;
    let secs = best_secs(3, || {
        let gate = HorizonGate::new(2);
        std::thread::scope(|scope| {
            scope.spawn(|| {
                for r in 0..ROUNDS {
                    if gate.arrive(r).is_none() {
                        return;
                    }
                }
            });
            for r in 0..ROUNDS {
                if gate.arrive(r).is_none() {
                    return;
                }
            }
        });
    });
    secs / ROUNDS as f64 * 1e9
}

/// Times spawning and joining one scoped no-op thread (ns).
fn measure_spawn_ns() -> f64 {
    const SPAWNS: usize = 8;
    let secs = best_secs(3, || {
        std::thread::scope(|scope| {
            for _ in 0..SPAWNS {
                scope.spawn(|| {});
            }
        });
    });
    secs / SPAWNS as f64 * 1e9
}

/// A canonical small bulk-synchronous job for the break-even probe: light
/// per-iteration work, so the probe errs toward serial — a gate that is
/// too eager to parallelise is the failure mode this module fixes.
fn probe_job(nodes: usize) -> crate::JobSpec {
    use crate::{MpiCall, MpiEvent};
    crate::JobSpec::homogeneous(
        "breakeven-probe",
        nodes,
        40,
        vec![
            MpiEvent::new(MpiCall::Isend, 65536, 1),
            MpiEvent::new(MpiCall::Wait, 0, 0),
            MpiEvent::collective(MpiCall::Allreduce, 512),
        ],
        ear_archsim::PhaseDemand {
            instructions: 1e9,
            mem_bytes: 4e8,
            active_cores: 40,
            wait_seconds: 0.001,
            ..Default::default()
        },
        12,
    )
}

/// Races serial against forced-parallel stepping at each probe node count
/// and returns the first count where parallel wins by a clear margin.
fn probe_break_even() -> usize {
    let workers_cap = std::thread::available_parallelism().map_or(1, |n| n.get());
    for nodes in PROBE_NODES {
        let job = probe_job(nodes);
        let serial = best_secs(2, || {
            let mut cluster =
                ear_archsim::Cluster::new(ear_archsim::NodeConfig::sd530_6148(), nodes, 7777);
            let mut rts = vec![crate::NullRuntime; nodes];
            crate::run_job_serial(&mut cluster, &job, &mut rts);
        });
        let workers = nodes.min(workers_cap.max(2));
        let parallel = best_secs(2, || {
            let mut cluster =
                ear_archsim::Cluster::new(ear_archsim::NodeConfig::sd530_6148(), nodes, 7777);
            let mut rts = vec![crate::NullRuntime; nodes];
            crate::driver::drive_parallel_fixed(&mut cluster, &job, &mut rts, workers);
        });
        // Demand a 5% win: a dead heat at the probe shape will not survive
        // real jobs with the engine also competing for the cores.
        if parallel < serial * 0.95 {
            return nodes;
        }
    }
    // Parallel never won inside the probed range: gate everything up to
    // twice the largest probe, and let the in-job autotuner judge the rest.
    PROBE_NODES[PROBE_NODES.len() - 1] * 2 + 1
}

/// Directory the calibration persists in: `$EAR_CACHE_DIR` when set (the
/// same variable the experiment result cache honours), else
/// `target/earsim-cache` when the working directory has a `target/` (the
/// workspace root), else a directory under the system temp dir. `None`
/// only when every candidate is unusable.
fn store_path() -> Option<PathBuf> {
    let dir = match std::env::var("EAR_CACHE_DIR") {
        Ok(d) if !d.is_empty() => PathBuf::from(d),
        _ => {
            let local = Path::new("target");
            if local.is_dir() {
                local.join("earsim-cache")
            } else {
                std::env::temp_dir().join("earsim-cache")
            }
        }
    };
    Some(dir.join(BREAKEVEN_FILE))
}

/// Parses a persisted calibration; any malformed or out-of-range content
/// is a miss (recalibrate), never an error.
fn parse(text: &str) -> Option<Calibration> {
    let mut lines = text.lines();
    if lines.next()?.trim() != BREAKEVEN_SCHEMA {
        return None;
    }
    let mut break_even_nodes: Option<usize> = None;
    let mut sync_ns: Option<f64> = None;
    let mut spawn_ns: Option<f64> = None;
    for line in lines {
        let mut parts = line.split_whitespace();
        match (parts.next(), parts.next(), parts.next()) {
            (Some("break_even_nodes"), Some(v), None) => break_even_nodes = v.parse().ok(),
            (Some("sync_ns"), Some(v), None) => sync_ns = v.parse().ok(),
            (Some("spawn_ns"), Some(v), None) => spawn_ns = v.parse().ok(),
            (None, _, _) => {}
            _ => return None,
        }
    }
    let cal = Calibration {
        break_even_nodes: break_even_nodes?,
        sync_ns: sync_ns?,
        spawn_ns: spawn_ns?,
    };
    let sane = cal.break_even_nodes >= 2
        && cal.sync_ns.is_finite()
        && cal.sync_ns >= 0.0
        && cal.spawn_ns.is_finite()
        && cal.spawn_ns >= 0.0;
    sane.then_some(cal)
}

fn load(path: &Path) -> Option<Calibration> {
    parse(&std::fs::read_to_string(path).ok()?)
}

/// Serialises a calibration in the persisted file format.
fn render(cal: &Calibration) -> String {
    format!(
        "{BREAKEVEN_SCHEMA}\nbreak_even_nodes {}\nsync_ns {:.1}\nspawn_ns {:.1}\n",
        cal.break_even_nodes, cal.sync_ns, cal.spawn_ns
    )
}

/// Best-effort write-through: temp file + rename so a concurrent reader
/// never sees a torn file; any I/O failure just skips persistence.
fn persist(path: &Path, cal: &Calibration) {
    let Some(dir) = path.parent() else { return };
    if std::fs::create_dir_all(dir).is_err() {
        return;
    }
    let tmp = dir.join(format!("{BREAKEVEN_FILE}.tmp.{}", std::process::id()));
    if std::fs::write(&tmp, render(cal)).is_ok() && std::fs::rename(&tmp, path).is_err() {
        let _ = std::fs::remove_file(&tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn threshold_parsing_accepts_integers_only() {
        assert_eq!(parse_threshold("0"), Some(0));
        assert_eq!(parse_threshold(" 17 "), Some(17));
        assert_eq!(parse_threshold("4"), Some(4));
        assert_eq!(parse_threshold(""), None);
        assert_eq!(parse_threshold("two"), None);
        assert_eq!(parse_threshold("-3"), None);
        assert_eq!(parse_threshold("3.5"), None);
        assert_eq!(parse_threshold(&usize::MAX.to_string()), None);
    }

    #[test]
    fn persisted_format_round_trips() {
        let cal = Calibration {
            break_even_nodes: 4,
            sync_ns: 1234.5,
            spawn_ns: 56789.0,
        };
        let text = render(&cal);
        assert!(text.starts_with(BREAKEVEN_SCHEMA));
        let back = parse(&text).expect("round trip");
        assert_eq!(back.break_even_nodes, 4);
        assert!((back.sync_ns - 1234.5).abs() < 0.01);
        assert!((back.spawn_ns - 56789.0).abs() < 0.01);
    }

    #[test]
    fn corrupt_calibrations_are_misses() {
        assert!(parse("").is_none(), "empty file");
        assert!(parse("other-schema/v9\nbreak_even_nodes 2\n").is_none());
        assert!(
            parse(&format!("{BREAKEVEN_SCHEMA}\nbreak_even_nodes 2\n")).is_none(),
            "missing fields"
        );
        assert!(
            parse(&format!(
                "{BREAKEVEN_SCHEMA}\nbreak_even_nodes 1\nsync_ns 1\nspawn_ns 1\n"
            ))
            .is_none(),
            "break-even below 2 is nonsense"
        );
        assert!(
            parse(&format!(
                "{BREAKEVEN_SCHEMA}\nbreak_even_nodes 2\nsync_ns nan\nspawn_ns 1\n"
            ))
            .is_none(),
            "non-finite costs rejected"
        );
        assert!(
            parse(&format!(
                "{BREAKEVEN_SCHEMA}\nbreak_even_nodes 2 extra\nsync_ns 1\nspawn_ns 1\n"
            ))
            .is_none(),
            "trailing tokens rejected"
        );
    }

    #[test]
    fn decision_honours_the_override() {
        // The static is process-global; restore it before returning.
        set_override(Some(0));
        assert_eq!(decision(2), Decision::Forced);
        assert_eq!(decision(64), Decision::Forced);
        set_override(Some(6));
        assert_eq!(decision(2), Decision::Serial);
        assert_eq!(decision(5), Decision::Serial);
        assert_eq!(decision(6), Decision::Tuned);
        assert_eq!(decision(64), Decision::Tuned);
        set_override(None);
    }

    #[test]
    fn calibrate_now_is_sane() {
        let cal = calibrate_now();
        assert!(cal.break_even_nodes >= 2);
        assert!(cal.break_even_nodes <= PROBE_NODES[PROBE_NODES.len() - 1] * 2 + 1);
        assert!(cal.sync_ns.is_finite() && cal.sync_ns > 0.0);
        assert!(cal.spawn_ns.is_finite() && cal.spawn_ns > 0.0);
        // The round trip through the persisted format stays sane.
        assert!(parse(&render(&cal)).is_some());
    }
}
