//! The parallel experiment engine.
//!
//! A paper-sized evaluation is a matrix of (workload × configuration)
//! cells, each averaged over several runs. The engine schedules that work
//! at **(cell × run)** granularity on a bounded, dependency-free worker
//! pool (`std::thread::scope` plus an atomic work queue), so a
//! 3-run × 12-config table saturates every core instead of serialising
//! runs inside slow cells.
//!
//! Guarantees and features:
//!
//! - **Determinism regardless of worker count.** Every task derives its
//!   RNG seed from `(base_seed, cell salt, run index)` alone, and per-cell
//!   reductions always fold the run samples in run order, so the produced
//!   [`RunResult`]s are bit-identical for `--jobs 1` and `--jobs 64`.
//! - **Calibration cache.** `calibrate()` inverts the simulator models in
//!   closed form; the result only depends on the workload targets, so the
//!   engine memoises it process-wide. N cells of the same workload
//!   calibrate once.
//! - **Panic isolation.** A panicking task fails its *cell*, not the
//!   campaign: the engine records the failed cell's label and error in the
//!   [`EngineSummary`] and still returns every cell that succeeded.
//! - **Telemetry.** Per-task timing, per-cell wall time, and a
//!   machine-readable engine summary (tasks run, wall time, speedup vs a
//!   serial estimate, cache statistics). Every run also adds into the
//!   process-wide `ear_trace::metrics` registry, which renders the
//!   `earsim-telemetry` line for the `earsim` front end.
//!
//! The worker-pool default is [`default_jobs`]: the `--jobs N` flag (via
//! [`set_default_jobs`]), else the `EAR_JOBS` environment variable, else
//! `std::thread::available_parallelism()`.

use crate::cache;
use crate::harness::{make_runtime, RunKind, RunResult, Runtime};
use ear_mpisim::{permits, run_job, JobSpec};
use ear_trace::metrics::{self, Metric, Snapshot};
use ear_workloads::{build_job, calibrate, CalibratedWorkload, CalibrationError, WorkloadTargets};
use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

// ---------------------------------------------------------------------------
// Worker-count defaults
// ---------------------------------------------------------------------------

/// Process-wide override set by `--jobs N` (0 = unset).
static JOBS_OVERRIDE: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide default worker count (the `--jobs N` flag).
/// `0` clears the override.
pub fn set_default_jobs(jobs: usize) {
    JOBS_OVERRIDE.store(jobs, Ordering::Relaxed);
}

/// The default worker count: the [`set_default_jobs`] override if set,
/// else the `EAR_JOBS` environment variable, else the machine's available
/// parallelism.
pub fn default_jobs() -> usize {
    let over = JOBS_OVERRIDE.load(Ordering::Relaxed);
    if over > 0 {
        return over;
    }
    if let Ok(v) = std::env::var("EAR_JOBS") {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Process-wide energy-model override set by `--model NAME` (None = the
/// per-config default, i.e. `EarlConfig::default().model_name`).
static MODEL_OVERRIDE: Mutex<Option<String>> = Mutex::new(None);

/// Sets the process-wide energy-model name applied to every EARL instance
/// the harness builds (the `earsim --model NAME` flag). An empty name
/// clears the override.
pub fn set_default_model(name: &str) {
    let mut slot = MODEL_OVERRIDE
        .lock()
        .unwrap_or_else(PoisonError::into_inner);
    *slot = if name.is_empty() {
        None
    } else {
        Some(name.to_string())
    };
}

/// The process-wide energy-model override, if one was set.
pub fn default_model() -> Option<String> {
    MODEL_OVERRIDE
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .clone()
}

// ---------------------------------------------------------------------------
// Calibration cache
// ---------------------------------------------------------------------------

struct CacheEntry {
    workload: &'static str,
    computes: u32,
    cal: Arc<Result<CalibratedWorkload, CalibrationError>>,
}

static CAL_CACHE: OnceLock<Mutex<HashMap<u64, CacheEntry>>> = OnceLock::new();

fn lock_cache() -> std::sync::MutexGuard<'static, HashMap<u64, CacheEntry>> {
    // The closure held under this lock is `calibrate()`, which cannot
    // panic (it returns errors), so poisoning is recoverable noise.
    CAL_CACHE
        .get_or_init(|| Mutex::new(HashMap::new()))
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
}

/// A stable fingerprint of every calibration input. Workload *names* are
/// not unique keys — `synthetic::parametric(m)` reuses one name for a
/// family of targets — so the key hashes the full characterisation.
fn cache_key(t: &WorkloadTargets) -> u64 {
    // FNV-1a over the Debug rendering: WorkloadTargets is plain data and
    // its Debug output covers every field.
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in format!("{t:?}").bytes() {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}

/// Calibrates `targets`, memoised process-wide. The closed-form solve runs
/// at most once per distinct workload characterisation; every later call
/// (any cell, any engine run) is a cache hit.
pub fn calibrated(targets: &WorkloadTargets) -> Arc<Result<CalibratedWorkload, CalibrationError>> {
    let key = cache_key(targets);
    let mut cache = lock_cache();
    if let Some(entry) = cache.get(&key) {
        metrics::add(Metric::CalHits, 1);
        return Arc::clone(&entry.cal);
    }
    metrics::add(Metric::CalMisses, 1);
    // Calibration is a fast closed-form solve; holding the lock across it
    // guarantees exactly-once computation per key.
    let cal = Arc::new(calibrate(targets));
    cache.insert(
        key,
        CacheEntry {
            workload: targets.name,
            computes: 1,
            cal: Arc::clone(&cal),
        },
    );
    cal
}

/// Cache statistics: `(hits, misses)` since process start.
pub fn calibration_stats() -> (u64, u64) {
    (
        metrics::get(Metric::CalHits),
        metrics::get(Metric::CalMisses),
    )
}

/// How many times `calibrate()` actually ran for the named workload
/// (across all target variants sharing the name). Test instrumentation
/// for the once-per-workload guarantee.
pub fn calibration_count(workload: &str) -> u32 {
    lock_cache()
        .values()
        .filter(|e| e.workload == workload)
        .map(|e| e.computes)
        .sum()
}

// ---------------------------------------------------------------------------
// Seeds and single runs
// ---------------------------------------------------------------------------

/// Derives one task's RNG seed from `(base_seed, cell salt, run index)`.
/// With `salt == 0` this reproduces the pre-engine serial derivation
/// bit-for-bit, so single-cell results are unchanged.
pub fn run_seed(base_seed: u64, cell_salt: u64, run: usize) -> u64 {
    base_seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(cell_salt.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(run as u64 * 7919)
}

/// The metrics of one simulated run (one task's output).
#[derive(Debug, Clone, Copy, Default)]
struct RunSample {
    time_s: f64,
    dc_power_w: f64,
    pkg_power_w: f64,
    dc_energy_j: f64,
    pkg_energy_j: f64,
    avg_cpu_ghz: f64,
    avg_imc_ghz: f64,
    imc_domains: usize,
    imc_dom_ghz: [f64; 4],
    cpi: f64,
    gbs: f64,
}

/// Executes one run of one cell.
fn run_once(
    cal: &CalibratedWorkload,
    job: &JobSpec,
    kind: &RunKind,
    nodes: usize,
    seed: u64,
) -> RunSample {
    let mut cluster = ear_archsim::Cluster::new(cal.node_config.clone(), nodes, seed);
    // Capped cells run exactly as the fleet deploys them: the RAPL PL1
    // backstop armed at the cap underneath the policy, so an over-cap
    // search transient is throttled by the hardware instead of spending
    // watts the cap forbids. Uncapped cells never touch PL1 and stay
    // bit-identical to the historical runs.
    if let RunKind::Policy { settings, .. } = kind {
        if let Some(cap_w) = settings.cap_w.filter(|c| c.is_finite()) {
            let pkg_w = ear_jobstream::rapl_pkg_limit_w(&cal.node_config, cap_w);
            for node in cluster.nodes_mut() {
                node.set_rapl_limit_w(pkg_w, 1.0)
                    .unwrap_or_else(|e| panic!("arming the PL1 backstop failed: {e}"));
            }
        }
    }
    let mut rts: Vec<Runtime> = (0..nodes)
        .map(|i| {
            let mut rt = make_runtime(kind);
            rt.set_node_id(i as u64);
            rt
        })
        .collect();
    let report = run_job(&mut cluster, job, &mut rts);
    RunSample {
        time_s: report.seconds(),
        dc_power_w: report.avg_dc_power_w(),
        pkg_power_w: report.total_pkg_energy_j() / report.seconds() / nodes as f64,
        dc_energy_j: report.total_dc_energy_j(),
        pkg_energy_j: report.total_pkg_energy_j(),
        avg_cpu_ghz: report.avg_cpu_ghz(),
        avg_imc_ghz: report.avg_imc_ghz(),
        imc_domains: report.imc_domains(),
        imc_dom_ghz: std::array::from_fn(|d| report.imc_dom_ghz(d)),
        cpi: report.cpi(),
        gbs: report.gbs(),
    }
}

/// Folds run samples into the averaged [`RunResult`] — always in run
/// order, so the floating-point result is independent of which worker
/// finished first.
fn reduce(label: &str, samples: &[RunSample]) -> RunResult {
    let mut acc = RunResult {
        label: label.to_string(),
        time_s: 0.0,
        dc_power_w: 0.0,
        pkg_power_w: 0.0,
        dc_energy_j: 0.0,
        pkg_energy_j: 0.0,
        avg_cpu_ghz: 0.0,
        avg_imc_ghz: 0.0,
        imc_domains: 1,
        imc_dom_ghz: [0.0; 4],
        cpi: 0.0,
        gbs: 0.0,
    };
    for s in samples {
        acc.time_s += s.time_s;
        acc.dc_power_w += s.dc_power_w;
        acc.pkg_power_w += s.pkg_power_w;
        acc.dc_energy_j += s.dc_energy_j;
        acc.pkg_energy_j += s.pkg_energy_j;
        acc.avg_cpu_ghz += s.avg_cpu_ghz;
        acc.avg_imc_ghz += s.avg_imc_ghz;
        acc.imc_domains = acc.imc_domains.max(s.imc_domains);
        for d in 0..4 {
            acc.imc_dom_ghz[d] += s.imc_dom_ghz[d];
        }
        acc.cpi += s.cpi;
        acc.gbs += s.gbs;
    }
    let n = samples.len().max(1) as f64;
    acc.time_s /= n;
    acc.dc_power_w /= n;
    acc.pkg_power_w /= n;
    acc.dc_energy_j /= n;
    acc.pkg_energy_j /= n;
    acc.avg_cpu_ghz /= n;
    acc.avg_imc_ghz /= n;
    for d in 0..4 {
        acc.imc_dom_ghz[d] /= n;
    }
    acc.cpi /= n;
    acc.gbs /= n;
    acc
}

// ---------------------------------------------------------------------------
// Engine configuration and outcomes
// ---------------------------------------------------------------------------

/// How a matrix is executed.
#[derive(Debug, Clone)]
pub struct EngineConfig {
    /// Worker threads (0 = [`default_jobs`]).
    pub jobs: usize,
    /// Runs per cell (the paper averages three).
    pub runs: usize,
    /// Base seed; each task reseeds via [`run_seed`].
    pub base_seed: u64,
    /// When true (the default), each cell salts its seeds with its index
    /// so cells draw independent noise. `false` reproduces the legacy
    /// same-seed-per-cell derivation (used by the energy surface, where
    /// cells are compared against a same-seed reference).
    pub salt_by_index: bool,
    /// Tasks a worker claims per queue operation (0 or 1 = one at a
    /// time). Grid sweeps batch adjacent cells so one worker walks a
    /// contiguous frequency band: node/MSR setup amortises and the
    /// archsim stepping path stays hot between neighbouring cells. Results are bit-identical to unbatched runs — outcomes are
    /// slot-indexed and seeds depend only on `(base_seed, cell, run)`.
    pub batch: usize,
    /// Schedule pending cells in result-cache-key order instead of input
    /// order. A re-sweep or partial sweep then probes and refills the
    /// persistent cache in the same order it was written, keeping hits
    /// contiguous. Outcomes still come back in input order.
    pub key_order: bool,
}

impl EngineConfig {
    /// Config with `runs` runs per cell and the default worker count.
    pub fn new(runs: usize, base_seed: u64) -> Self {
        EngineConfig {
            jobs: 0,
            runs,
            base_seed,
            salt_by_index: true,
            batch: 1,
            key_order: false,
        }
    }

    /// Overrides the worker count.
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs;
        self
    }

    /// Uses the legacy seed derivation (no per-cell salt).
    pub fn legacy_seeds(mut self) -> Self {
        self.salt_by_index = false;
        self
    }

    /// Workers claim `batch` consecutive tasks per queue operation.
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.batch = batch;
        self
    }

    /// Schedules pending cells in result-cache-key order.
    pub fn key_ordered(mut self) -> Self {
        self.key_order = true;
        self
    }

    fn effective_jobs(&self) -> usize {
        if self.jobs > 0 {
            self.jobs
        } else {
            default_jobs()
        }
    }
}

/// One cell's outcome: the averaged result, or the error that failed it.
#[derive(Debug, Clone)]
pub struct CellOutcome {
    /// Cell label.
    pub label: String,
    /// Averaged result (`None` if any run of the cell failed).
    pub result: Option<RunResult>,
    /// First error of the cell's runs, if any.
    pub error: Option<String>,
    /// How many of the cell's runs failed.
    pub failed_runs: usize,
    /// Total busy time of the cell's tasks (s).
    pub busy_s: f64,
}

/// The machine-readable engine summary.
#[derive(Debug, Clone, Default)]
pub struct EngineSummary {
    /// Worker threads used.
    pub jobs: usize,
    /// Tasks scheduled (cells × runs).
    pub tasks: usize,
    /// Tasks that panicked or errored.
    pub tasks_failed: usize,
    /// Labels of cells with at least one failed task.
    pub failed_cells: Vec<String>,
    /// Engine wall time (s).
    pub wall_s: f64,
    /// Serial estimate: the sum of per-task busy times (s).
    pub serial_estimate_s: f64,
    /// Calibration-cache hits during this engine run.
    pub cal_hits: u64,
    /// Calibrations actually computed during this engine run.
    pub cal_misses: u64,
    /// Persistent result-cache hits during this engine run (cells that
    /// were served from disk without simulating).
    pub result_hits: u64,
    /// Persistent result-cache misses during this engine run.
    pub result_misses: u64,
    /// Corrupt or stale result-cache entries dropped during this run.
    pub result_invalidations: u64,
}

impl EngineSummary {
    /// Measured speedup against running every task serially.
    pub fn speedup(&self) -> f64 {
        if self.wall_s > 0.0 {
            self.serial_estimate_s / self.wall_s
        } else {
            1.0
        }
    }
}

/// A whole matrix run: per-cell outcomes plus the engine summary.
#[derive(Debug, Clone)]
pub struct MatrixRun {
    /// Outcomes, one per input cell, in input order.
    pub cells: Vec<CellOutcome>,
    /// Engine telemetry for this run.
    pub summary: EngineSummary,
}

impl MatrixRun {
    /// The `i`-th cell's result, if it succeeded.
    pub fn get(&self, i: usize) -> Option<&RunResult> {
        self.cells.get(i).and_then(|c| c.result.as_ref())
    }

    /// Every result if *all* cells succeeded, else `None` (use when rows
    /// are compared positionally and a partial matrix would mislead).
    pub fn all(&self) -> Option<Vec<RunResult>> {
        self.cells.iter().map(|c| c.result.clone()).collect()
    }

    /// The results of the cells that succeeded, input order preserved.
    pub fn successes(&self) -> Vec<RunResult> {
        self.cells.iter().filter_map(|c| c.result.clone()).collect()
    }

    /// Labels of the cells that failed.
    pub fn failed_labels(&self) -> Vec<String> {
        self.summary.failed_cells.clone()
    }
}

// ---------------------------------------------------------------------------
// The bounded worker pool
// ---------------------------------------------------------------------------

struct TaskOutcome {
    sample: Result<RunSample, String>,
    busy_s: f64,
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "task panicked".to_string()
    }
}

/// Runs a whole matrix (one workload × several configurations) through the
/// bounded worker pool at (cell × run) granularity.
pub fn run_matrix_engine(
    targets: &WorkloadTargets,
    cells: &[(String, RunKind)],
    config: &EngineConfig,
) -> MatrixRun {
    let started = Instant::now();
    let (hits0, misses0) = calibration_stats();
    let (rhits0, rmisses0, rinval0) = cache::result_cache_stats();
    let runs = config.runs.max(1);
    let jobs = config.effective_jobs().max(1);
    let mut scheduled_tasks = 0;

    // Calibrate and synthesise the job once — every cell of a matrix runs
    // the same workload.
    let cal = calibrated(targets);
    let outcomes: Vec<CellOutcome> = match cal.as_ref() {
        Err(e) => {
            // The workload itself is infeasible: every cell fails alike.
            scheduled_tasks = cells.len() * runs;
            cells
                .iter()
                .map(|(label, _)| CellOutcome {
                    label: label.clone(),
                    result: None,
                    error: Some(e.to_string()),
                    failed_runs: runs,
                    busy_s: 0.0,
                })
                .collect()
        }
        Ok(cal) => {
            // Persistent result cache: cells whose digest is already on
            // disk are served directly; only the rest are scheduled.
            let model = default_model();
            let keys: Vec<u64> = cells
                .iter()
                .enumerate()
                .map(|(i, (label, kind))| {
                    let salt = if config.salt_by_index { i as u64 } else { 0 };
                    cache::result_key(
                        targets,
                        label,
                        kind,
                        model.as_deref(),
                        runs,
                        config.base_seed,
                        salt,
                    )
                })
                .collect();
            let mut outcomes: Vec<Option<CellOutcome>> = Vec::new();
            outcomes.resize_with(cells.len(), || None);
            let mut pending: Vec<usize> = Vec::new();
            for (i, (label, _)) in cells.iter().enumerate() {
                match cache::lookup(keys[i]) {
                    Some(result) => {
                        outcomes[i] = Some(CellOutcome {
                            label: label.clone(),
                            result: Some(result),
                            error: None,
                            failed_runs: 0,
                            busy_s: 0.0,
                        });
                    }
                    None => pending.push(i),
                }
            }
            if config.key_order {
                // Cache-key order (ties broken by input index so the
                // schedule is total). Purely a scheduling choice: outcomes
                // are written back by slot and seeds are salted by the
                // original index, so results do not change.
                pending.sort_by_key(|&i| (keys[i], i));
            }
            if !pending.is_empty() {
                scheduled_tasks = pending.len() * runs;
                let job = build_job(cal);
                let fresh = run_cells(cal, &job, targets, cells, &pending, runs, jobs, config);
                for (&slot, outcome) in pending.iter().zip(fresh) {
                    if let Some(result) = &outcome.result {
                        cache::store(keys[slot], result);
                    }
                    outcomes[slot] = Some(outcome);
                }
            }
            outcomes.into_iter().flatten().collect()
        }
    };

    let (hits1, misses1) = calibration_stats();
    let (rhits1, rmisses1, rinval1) = cache::result_cache_stats();
    let failed_cells: Vec<String> = outcomes
        .iter()
        .filter(|c| c.result.is_none())
        .map(|c| c.label.clone())
        .collect();
    let summary = EngineSummary {
        jobs,
        tasks: scheduled_tasks,
        tasks_failed: outcomes.iter().map(|c| c.failed_runs).sum(),
        failed_cells,
        wall_s: started.elapsed().as_secs_f64(),
        serial_estimate_s: outcomes.iter().map(|c| c.busy_s).sum(),
        cal_hits: hits1.saturating_sub(hits0),
        cal_misses: misses1.saturating_sub(misses0),
        result_hits: rhits1.saturating_sub(rhits0),
        result_misses: rmisses1.saturating_sub(rmisses0),
        result_invalidations: rinval1.saturating_sub(rinval0),
    };
    record_process(&summary);
    MatrixRun {
        cells: outcomes,
        summary,
    }
}

/// Runs the `pending` cells (indices into `cells`) on the worker pool and
/// returns their outcomes in `pending` order. Cell seeds are salted by the
/// cell's *original* matrix index, so a partially cached matrix produces
/// the same per-cell noise streams as a cold one.
#[allow(clippy::too_many_arguments)]
fn run_cells(
    cal: &CalibratedWorkload,
    job: &JobSpec,
    targets: &WorkloadTargets,
    cells: &[(String, RunKind)],
    pending: &[usize],
    runs: usize,
    jobs: usize,
    config: &EngineConfig,
) -> Vec<CellOutcome> {
    let n_tasks = pending.len() * runs;
    let next = AtomicUsize::new(0);
    let slots: Vec<OnceLock<TaskOutcome>> = (0..n_tasks).map(|_| OnceLock::new()).collect();
    let batch = config.batch.clamp(1, n_tasks.max(1));
    let workers = jobs.min(n_tasks.div_ceil(batch)).max(1);

    // Nested-parallelism budget: the engine's `--jobs` allowance seeds the
    // shared permit pool; each busy worker holds one permit while it runs
    // a task, so a job only fans its nodes out across threads the engine
    // is not using (the straggling tail of a matrix, single-cell runs).
    permits::set_spare_threads(jobs);

    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| loop {
                // Claim `batch` consecutive tasks: adjacent grid cells run
                // back to back on one worker under one permit, so cluster
                // setup amortises across a frequency band.
                let start = next.fetch_add(batch, Ordering::Relaxed);
                if start >= n_tasks {
                    break;
                }
                let held = permits::acquire_guard(1);
                for i in start..(start + batch).min(n_tasks) {
                    let cell = pending[i / runs];
                    let run = i % runs;
                    let kind = &cells[cell].1;
                    let salt = if config.salt_by_index { cell as u64 } else { 0 };
                    let seed = run_seed(config.base_seed, salt, run);
                    let t0 = Instant::now();
                    let sample = catch_unwind(AssertUnwindSafe(|| {
                        run_once(cal, job, kind, targets.nodes, seed)
                    }))
                    .map_err(panic_message);
                    let _ = slots[i].set(TaskOutcome {
                        sample,
                        busy_s: t0.elapsed().as_secs_f64(),
                    });
                }
                drop(held);
            });
        }
    });

    // Reduce in task order: deterministic regardless of completion order.
    pending
        .iter()
        .enumerate()
        .map(|(p, &cell)| {
            let label = &cells[cell].0;
            let mut samples = Vec::with_capacity(runs);
            let mut error = None;
            let mut failed_runs = 0;
            let mut busy_s = 0.0;
            for run in 0..runs {
                let out = slots[p * runs + run].get().unwrap_or_else(|| {
                    panic!("task slot {p}x{run} was not filled before the scope ended")
                });
                busy_s += out.busy_s;
                match &out.sample {
                    Ok(s) => samples.push(*s),
                    Err(e) => {
                        failed_runs += 1;
                        if error.is_none() {
                            error = Some(e.clone());
                        }
                    }
                }
            }
            let result = if error.is_none() {
                Some(reduce(label, &samples))
            } else {
                None
            };
            CellOutcome {
                label: label.clone(),
                result,
                error,
                failed_runs,
                busy_s,
            }
        })
        .collect()
}

/// [`run_matrix_engine`] with the default configuration — the drop-in used
/// by the table/figure modules.
pub fn run_matrix_default(
    targets: &WorkloadTargets,
    cells: &[(String, RunKind)],
    runs: usize,
    base_seed: u64,
) -> MatrixRun {
    run_matrix_engine(targets, cells, &EngineConfig::new(runs, base_seed))
}

// ---------------------------------------------------------------------------
// Process-wide telemetry
// ---------------------------------------------------------------------------

/// Adds one engine run into the process-wide registry.
fn record_process(summary: &EngineSummary) {
    metrics::add(Metric::EngineRuns, 1);
    metrics::add(Metric::Tasks, summary.tasks as u64);
    metrics::add(Metric::TasksFailed, summary.tasks_failed as u64);
    for label in &summary.failed_cells {
        metrics::push_str(Metric::FailedCells, label);
    }
    metrics::add_f64(Metric::WallS, summary.wall_s);
    metrics::add_f64(Metric::SerialEstimateS, summary.serial_estimate_s);
    metrics::max(Metric::Jobs, summary.jobs as u64);
}

/// Records one workload's sweep: grid cells measured, cells served from
/// the persistent result cache, and the worst relative residual of its
/// surface fits. Aggregated into the `sweep` telemetry object.
pub fn record_sweep(cells: u64, cache_hits: u64, fit_residual_max: f64) {
    metrics::add(Metric::SweepCells, cells);
    metrics::add(Metric::SweepCacheHits, cache_hits);
    metrics::max_f64(Metric::SweepFitResidualMax, fit_residual_max);
}

/// The aggregated sweep counters: `(cells, cache_hits, fit_residual_max)`.
pub fn sweep_stats() -> (u64, u64, f64) {
    (
        metrics::get(Metric::SweepCells),
        metrics::get(Metric::SweepCacheHits),
        metrics::get_f64(Metric::SweepFitResidualMax),
    )
}

/// Values whose movement means the process ran the engine, served netd
/// traffic or drove a job stream; only then is there a line to print.
const ACTIVITY: [Metric; 12] = [
    Metric::EngineRuns,
    Metric::NetdAccepted,
    Metric::NetdRejected,
    Metric::NetdTimedOut,
    Metric::NetdRetried,
    Metric::NetdRequests,
    Metric::NetdDecodeErrors,
    Metric::NetdBatchedFlushes,
    Metric::PowercapCapsPushed,
    Metric::PowercapRebalances,
    Metric::PowercapJobsAdmitted,
    Metric::PowercapJobsCompleted,
];

/// The process-wide telemetry aggregated over every engine run so far, as
/// one JSON line — `None` if neither engine work, networked-daemon traffic
/// nor a job stream has happened in this process.
pub fn process_summary_json() -> Option<String> {
    let snapshot = Snapshot::read();
    ACTIVITY
        .iter()
        .any(|&m| snapshot.get(m) != 0)
        .then(|| snapshot.render())
}

/// Prints the process-wide engine summary to stderr (no-op if no engine
/// work ran). Called by `earsim` on exit so
/// stdout stays clean for the tables themselves.
pub fn print_process_summary() {
    if let Some(json) = process_summary_json() {
        eprintln!("earsim-telemetry: {json}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seed_derivation_matches_legacy_for_salt_zero() {
        for (base, run) in [(42u64, 0usize), (7, 1), (1001, 2)] {
            let legacy = base
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add(run as u64 * 7919);
            assert_eq!(run_seed(base, 0, run), legacy);
        }
    }

    #[test]
    fn seeds_differ_across_cells_and_runs() {
        let s = |cell, run| run_seed(99, cell, run);
        assert_ne!(s(0, 0), s(1, 0));
        assert_ne!(s(0, 0), s(0, 1));
        assert_ne!(s(1, 2), s(2, 1));
    }

    #[test]
    fn summary_speedup_is_serial_over_wall() {
        let s = EngineSummary {
            wall_s: 1.5,
            serial_estimate_s: 4.5,
            ..EngineSummary::default()
        };
        assert_eq!(s.speedup(), 3.0);
        assert_eq!(EngineSummary::default().speedup(), 1.0);
    }

    #[test]
    fn process_line_validates() {
        record_process(&EngineSummary::default());
        let line = process_summary_json().expect("an engine run was recorded");
        assert_eq!(metrics::validate(&line), Ok(()));
    }

    #[test]
    fn default_jobs_is_positive() {
        assert!(default_jobs() >= 1);
    }
}
