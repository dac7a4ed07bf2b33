//! The grid-scale frequency sweep engine (`earsim sweep`).
//!
//! Runs every workload across the full (pstate × uncore-ratio) grid and
//! fits T(f, u) / P(f, u) surfaces for the one-shot `fitted` policy. A
//! full characterisation — `grid × workloads × runs` — is the largest
//! cold-path campaign the experiment engine faces, so the sweep is
//! engineered as a fast path rather than a loop over cells:
//!
//! * **One matrix per workload.** The reference cell and the whole grid
//!   go through [`run_matrix_engine`] as a single matrix: calibration and
//!   job synthesis happen once per workload and every cell of the grid
//!   spreads across the worker pool.
//! * **Batched cell claims.** Workers claim one uncore row of the grid
//!   per queue operation ([`EngineConfig::with_batch`]): adjacent cells
//!   run back to back on one worker, amortising setup and keeping the
//!   archsim stepping path hot between neighbouring frequencies.
//! * **Cache-key scheduling.** Pending cells are ordered by their
//!   persistent result-cache key ([`EngineConfig::key_ordered`]), so a
//!   re-sweep or partial sweep probes and refills the cache in write
//!   order — warm re-sweeps are near-free and report their hits in the
//!   `sweep` telemetry object.
//!
//! Per-workload grids come from [`ear_workloads::sweep`]; the fitter is
//! [`ear_core::fit`]. The module also ships the model-accuracy harness
//! (fitted-vs-measured error tables) and the policy-vs-policy comparison
//! (min_energy / ME+NG-U / ME+eU / fitted) over the catalog.

use crate::engine::{self, run_matrix_engine, EngineConfig};
use crate::harness::{compare, format_table, RunKind, RunResult};
use ear_core::fit::{fit_poly2, residuals, FitResidual, FittedSurface};
use ear_core::{Avx512Model, PolicyCtx, PolicySettings};
use ear_errors::{EarError, EarResult};
use ear_workloads::sweep::{UNCORE_RATIO_MAX, UNCORE_RATIO_MIN};
use ear_workloads::{full_catalog, quick_spec, sweep_spec, SweepSpec, WorkloadTargets};
use std::path::{Path, PathBuf};

/// Artifact schema tag (first line of every `.sweep` file).
pub const SWEEP_SCHEMA: &str = "earsim-sweep/v1";

/// How a sweep campaign runs.
#[derive(Debug, Clone)]
pub struct SweepConfig {
    /// Reduced 3×3 grids (CI smoke, determinism tests).
    pub quick: bool,
    /// Runs averaged per cell (the paper averages three; the default 1
    /// keeps a cold full-catalog sweep fast).
    pub runs: usize,
    /// Base seed for every matrix.
    pub base_seed: u64,
    /// Workloads to sweep (paper names); empty = the full catalog.
    pub apps: Vec<String>,
    /// Artifact directory (`None` = no artifacts written).
    pub out_dir: Option<PathBuf>,
    /// Fail the campaign if any surface's worst relative fit residual
    /// exceeds this fraction (CI tolerance gate).
    pub max_residual: Option<f64>,
}

impl Default for SweepConfig {
    fn default() -> Self {
        SweepConfig {
            quick: false,
            runs: 1,
            base_seed: 9001,
            apps: Vec::new(),
            out_dir: None,
            max_residual: None,
        }
    }
}

/// One workload's measured grid plus its fitted surfaces.
#[derive(Debug, Clone)]
pub struct AppSweep {
    /// Workload name.
    pub app: String,
    /// Uncore domains per socket the grid ran with.
    pub domains: usize,
    /// Swept CPU pstates.
    pub cpu_pstates: Vec<usize>,
    /// Nominal GHz of each swept pstate.
    pub ghz: Vec<f64>,
    /// Swept uncore max-ratios (100 MHz units).
    pub imc_ratios: Vec<u8>,
    /// Reference run (nominal CPU, hardware UFS).
    pub reference: RunResult,
    /// Measured grid, row-major `[cpu][imc]`.
    pub grid: Vec<Vec<RunResult>>,
    /// The fitted T/P surface pair.
    pub surface: FittedSurface,
    /// Fit quality of the time surface.
    pub time_fit: FitResidual,
    /// Fit quality of the power surface.
    pub power_fit: FitResidual,
    /// Cells served from the persistent result cache.
    pub cache_hits: u64,
    /// Grid cells measured or served (reference included).
    pub cells: usize,
}

impl AppSweep {
    /// Worst relative residual across both fitted surfaces.
    pub fn worst_residual(&self) -> f64 {
        self.time_fit.max_rel.max(self.power_fit.max_rel)
    }
}

fn grid_cells(spec: &SweepSpec) -> Vec<(String, RunKind)> {
    let mut cells = vec![(
        "ref".to_string(),
        RunKind::Fixed {
            cpu: 1,
            imc_ratio: None,
        },
    )];
    for &ps in &spec.cpu_pstates {
        for &r in &spec.imc_ratios {
            cells.push((
                format!("cpu{ps}/imc{r}"),
                RunKind::Fixed {
                    cpu: ps,
                    imc_ratio: Some(r),
                },
            ));
        }
    }
    cells
}

/// Sweeps one workload over `spec`'s grid and fits its surfaces.
///
/// The whole grid runs as one engine matrix (legacy seeds), one uncore
/// row per claim, cells scheduled in cache-key order.
pub fn sweep_app(
    targets: &WorkloadTargets,
    spec: &SweepSpec,
    config: &SweepConfig,
) -> EarResult<AppSweep> {
    let cells = grid_cells(spec);
    let runs = config.runs.max(1);
    let ec = EngineConfig::new(runs, config.base_seed)
        .legacy_seeds()
        .with_batch(spec.imc_ratios.len().max(1) * runs)
        .key_ordered();
    let run = run_matrix_engine(targets, &cells, &ec);
    let Some(all) = run.all() else {
        return Err(EarError::Invariant(format!(
            "sweep {}: cells failed: {}",
            targets.name,
            run.failed_labels().join(", ")
        )));
    };
    assemble(targets, spec, all, run.summary.result_hits, cells.len())
}

fn assemble(
    targets: &WorkloadTargets,
    spec: &SweepSpec,
    all: Vec<RunResult>,
    cache_hits: u64,
    cells: usize,
) -> EarResult<AppSweep> {
    let pstates = targets.platform.node_config().pstates;
    let ghz: Vec<f64> = spec.cpu_pstates.iter().map(|&ps| pstates.ghz(ps)).collect();
    let reference = all[0].clone();
    let mut grid = Vec::with_capacity(spec.cpu_pstates.len());
    let mut t_samples = Vec::with_capacity(spec.cells());
    let mut p_samples = Vec::with_capacity(spec.cells());
    for (i, &f) in ghz.iter().enumerate() {
        let mut row = Vec::with_capacity(spec.imc_ratios.len());
        for (j, &r) in spec.imc_ratios.iter().enumerate() {
            let cell = all[1 + i * spec.imc_ratios.len() + j].clone();
            let u = f64::from(r) * 0.1;
            t_samples.push((f, u, cell.time_s));
            p_samples.push((f, u, cell.dc_power_w));
            row.push(cell);
        }
        grid.push(row);
    }
    let time = fit_poly2(&t_samples)?;
    let power = fit_poly2(&p_samples)?;
    let time_fit = residuals(&time, &t_samples);
    let power_fit = residuals(&power, &p_samples);
    let fold = |acc: (f64, f64), x: &f64| (acc.0.min(*x), acc.1.max(*x));
    let f_range = ghz.iter().fold((f64::INFINITY, f64::NEG_INFINITY), fold);
    let u_lo = f64::from(*spec.imc_ratios.iter().min().unwrap_or(&UNCORE_RATIO_MIN)) * 0.1;
    let u_hi = f64::from(*spec.imc_ratios.iter().max().unwrap_or(&UNCORE_RATIO_MAX)) * 0.1;
    let surface = FittedSurface {
        time,
        power,
        f_range_ghz: f_range,
        u_range_ghz: (u_lo, u_hi),
    };
    let sweep = AppSweep {
        app: targets.name.to_string(),
        domains: targets.uncore_domains,
        cpu_pstates: spec.cpu_pstates.clone(),
        ghz,
        imc_ratios: spec.imc_ratios.clone(),
        reference,
        grid,
        surface,
        time_fit,
        power_fit,
        cache_hits,
        cells,
    };
    engine::record_sweep(cells as u64, cache_hits, sweep.worst_residual());
    Ok(sweep)
}

// ---------------------------------------------------------------------------
// Artifacts
// ---------------------------------------------------------------------------

fn bits(x: f64) -> String {
    format!("{:016x}", x.to_bits())
}

/// Renders one workload's sweep artifact. Every float carries both a
/// human-readable decimal and its exact bit pattern, so the determinism
/// contract ("byte-identical at any `--jobs`, cold or warm") is checkable
/// with `cmp`.
pub fn render_artifact(s: &AppSweep) -> String {
    use std::fmt::Write as _;
    let mut out = String::new();
    let _ = writeln!(out, "{SWEEP_SCHEMA}");
    let _ = writeln!(out, "app: {}", s.app);
    let _ = writeln!(out, "domains: {}", s.domains);
    let _ = writeln!(
        out,
        "pstates: {}",
        s.cpu_pstates
            .iter()
            .map(|p| p.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );
    let _ = writeln!(
        out,
        "ratios: {}",
        s.imc_ratios
            .iter()
            .map(|r| r.to_string())
            .collect::<Vec<_>>()
            .join(" ")
    );
    let _ = writeln!(
        out,
        "ref: time_s={:.9}/{} power_w={:.9}/{}",
        s.reference.time_s,
        bits(s.reference.time_s),
        s.reference.dc_power_w,
        bits(s.reference.dc_power_w)
    );
    for (i, row) in s.grid.iter().enumerate() {
        for (j, cell) in row.iter().enumerate() {
            let _ = writeln!(
                out,
                "cell ps={} imc={}: time_s={:.9}/{} power_w={:.9}/{}",
                s.cpu_pstates[i],
                s.imc_ratios[j],
                cell.time_s,
                bits(cell.time_s),
                cell.dc_power_w,
                bits(cell.dc_power_w)
            );
        }
    }
    for (name, poly, fit) in [
        ("time", &s.surface.time, &s.time_fit),
        ("power", &s.surface.power, &s.power_fit),
    ] {
        let coeffs: Vec<String> = poly.coeffs.iter().map(|c| bits(*c)).collect();
        let _ = writeln!(out, "fit_{name}_coeffs: {}", coeffs.join(" "));
        let _ = writeln!(
            out,
            "fit_{name}_residual: max={:.6}%/{} mean={:.6}%/{}",
            fit.max_rel * 100.0,
            bits(fit.max_rel),
            fit.mean_rel * 100.0,
            bits(fit.mean_rel)
        );
    }
    out
}

/// A filesystem-safe artifact name for a workload.
fn artifact_name(app: &str) -> String {
    let safe: String = app
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '.' || c == '-' {
                c
            } else {
                '_'
            }
        })
        .collect();
    format!("{safe}.sweep")
}

/// Writes one workload's artifact into `dir`, returning its path.
pub fn write_artifact(dir: &Path, s: &AppSweep) -> EarResult<PathBuf> {
    let io_err = |path: &Path, e: std::io::Error| EarError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    };
    std::fs::create_dir_all(dir).map_err(|e| io_err(dir, e))?;
    let path = dir.join(artifact_name(&s.app));
    std::fs::write(&path, render_artifact(s)).map_err(|e| io_err(&path, e))?;
    Ok(path)
}

// ---------------------------------------------------------------------------
// The one-shot selection and the report tables
// ---------------------------------------------------------------------------

/// The `fitted` policy's one-shot choice on a surface, reported as
/// (pstate, ratio): the same evaluation the policy makes at runtime.
pub fn fitted_choice(targets: &WorkloadTargets, surface: &FittedSurface) -> (usize, u8) {
    let node = targets.platform.node_config();
    let model = Avx512Model::for_node(&node);
    let settings = PolicySettings::default();
    let ctx = PolicyCtx {
        pstates: &node.pstates,
        uncore_min_ratio: UNCORE_RATIO_MIN,
        uncore_max_ratio: UNCORE_RATIO_MAX,
        uncore_domains: targets.uncore_domains,
        model: &model,
        settings: &settings,
    };
    ear_core::policy::fitted::select_on_surface(surface, &ctx)
}

/// The fitted-vs-measured accuracy table (Hofmann-style model
/// validation): per workload, the relative error of the fitted surfaces
/// against the measured grid.
pub fn accuracy_table(sweeps: &[AppSweep]) -> String {
    let rows: Vec<Vec<String>> = sweeps
        .iter()
        .map(|s| {
            vec![
                s.app.clone(),
                format!("{}", s.cells),
                format!("{:.2}", s.time_fit.max_rel * 100.0),
                format!("{:.2}", s.time_fit.mean_rel * 100.0),
                format!("{:.2}", s.power_fit.max_rel * 100.0),
                format!("{:.2}", s.power_fit.mean_rel * 100.0),
            ]
        })
        .collect();
    format_table(
        "Sweep fit accuracy (fitted vs measured, % relative error)",
        &["Application", "cells", "T max", "T mean", "P max", "P mean"],
        &rows,
    )
}

/// One workload's policy-vs-policy comparison row data.
struct PolicyRow {
    app: String,
    rows: Vec<(String, crate::harness::Comparison)>,
    fitted_beats_me: bool,
    fitted_in_budget: bool,
}

/// The combined time-penalty budget the `fitted` policy is gated against:
/// the paper's CPU stage (5 %) plus uncore stage (2 %) thresholds.
pub const FITTED_PENALTY_BUDGET_PCT: f64 = 7.0;

fn policy_row(targets: &WorkloadTargets, s: &AppSweep, config: &SweepConfig) -> Option<PolicyRow> {
    let fitted = RunKind::Policy {
        name: "fitted".into(),
        settings: PolicySettings {
            fitted: Some(s.surface.clone()),
            ..Default::default()
        },
    };
    let cells = vec![
        ("No policy".to_string(), RunKind::NoPolicy),
        ("ME".to_string(), RunKind::me(0.05)),
        ("ME+NG-U".to_string(), RunKind::me_ng_u(0.05, 0.02)),
        ("ME+eU".to_string(), RunKind::me_eufs(0.05, 0.02)),
        ("fitted".to_string(), fitted),
    ];
    let run = run_matrix_engine(
        targets,
        &cells,
        &EngineConfig::new(config.runs.max(1), config.base_seed.wrapping_add(17)),
    );
    let all = run.all()?;
    let reference = &all[0];
    let rows: Vec<(String, crate::harness::Comparison)> = all[1..]
        .iter()
        .map(|r| (r.label.clone(), compare(reference, r)))
        .collect();
    let me = rows[0].1;
    let fit = rows[3].1;
    Some(PolicyRow {
        app: targets.name.to_string(),
        fitted_beats_me: fit.energy_saving_pct >= me.energy_saving_pct - 0.05,
        fitted_in_budget: fit.time_penalty_pct <= FITTED_PENALTY_BUDGET_PCT,
        rows,
    })
}

fn comparison_table(rows: &[PolicyRow]) -> String {
    let mut table_rows: Vec<Vec<String>> = Vec::new();
    for pr in rows {
        let mut row = vec![pr.app.clone()];
        for (_, c) in &pr.rows {
            row.push(format!(
                "{:+.1}/{:+.1}",
                c.time_penalty_pct, c.energy_saving_pct
            ));
        }
        table_rows.push(row);
    }
    let mut out = format_table(
        "Policy vs policy: time penalty / energy saving (%), vs no policy",
        &["Application", "ME", "ME+NG-U", "ME+eU", "fitted"],
        &table_rows,
    );
    let beats = rows.iter().filter(|r| r.fitted_beats_me).count();
    let in_budget = rows.iter().filter(|r| r.fitted_in_budget).count();
    out.push_str(&format!(
        "fitted within the {FITTED_PENALTY_BUDGET_PCT:.0}% penalty budget: {in_budget}/{} workloads\n\
         fitted matches or beats ME energy saving: {beats}/{} workloads\n",
        rows.len(),
        rows.len()
    ));
    out
}

// ---------------------------------------------------------------------------
// The campaign driver
// ---------------------------------------------------------------------------

fn campaign_targets(config: &SweepConfig) -> EarResult<Vec<WorkloadTargets>> {
    let mut targets = if config.apps.is_empty() {
        full_catalog()
    } else {
        let mut v = Vec::new();
        for name in &config.apps {
            v.push(
                ear_workloads::by_name(name)
                    .ok_or_else(|| EarError::unknown("workload", name.clone()))?,
            );
        }
        v
    };
    // Per-die sweep: EAR_UNCORE_DOMAINS > 1 re-characterises the catalog
    // on multi-domain nodes (the fixed ratio is applied to every die; the
    // result cache keys the domain count, so single-knob entries are
    // never served).
    if let Some(n) = crate::uncore_domains_override() {
        if n > 1 {
            for t in &mut targets {
                t.uncore_domains = n;
            }
        }
    }
    Ok(targets)
}

/// Runs the whole sweep campaign and renders the report: per-workload
/// summary, accuracy table, policy comparison. Artifacts are written when
/// `config.out_dir` is set; the campaign fails if any fit exceeds
/// `config.max_residual`.
pub fn run_sweep(config: &SweepConfig) -> EarResult<String> {
    use std::fmt::Write as _;
    let targets = campaign_targets(config)?;
    let mut sweeps = Vec::with_capacity(targets.len());
    let mut summary_rows: Vec<Vec<String>> = Vec::new();
    for t in &targets {
        let spec = if config.quick {
            quick_spec(t)
        } else {
            sweep_spec(t)
        };
        let s = sweep_app(t, &spec, config)?;
        if let Some(dir) = &config.out_dir {
            write_artifact(dir, &s)?;
        }
        let (ps, ratio) = fitted_choice(t, &s.surface);
        summary_rows.push(vec![
            s.app.clone(),
            format!("{}x{}", s.cpu_pstates.len(), s.imc_ratios.len()),
            format!("{}", s.cache_hits),
            format!("p{ps}/{:.1} GHz", t.platform.node_config().pstates.ghz(ps)),
            format!("{:.1} GHz", f64::from(ratio) * 0.1),
            format!("{:.2}%", s.worst_residual() * 100.0),
        ]);
        sweeps.push(s);
    }

    let mut out = format_table(
        &format!(
            "Sweep campaign: {} workloads, {} grids",
            sweeps.len(),
            if config.quick { "quick" } else { "full" },
        ),
        &[
            "Application",
            "grid",
            "cache hits",
            "fitted CPU",
            "fitted IMC",
            "worst fit err",
        ],
        &summary_rows,
    );
    out.push('\n');
    out.push_str(&accuracy_table(&sweeps));

    if let Some(tol) = config.max_residual {
        for s in &sweeps {
            if s.worst_residual() > tol {
                return Err(EarError::Invariant(format!(
                    "sweep {}: worst fit residual {:.2}% exceeds tolerance {:.2}%",
                    s.app,
                    s.worst_residual() * 100.0,
                    tol * 100.0
                )));
            }
        }
    }

    out.push('\n');
    let mut rows = Vec::new();
    for (t, s) in targets.iter().zip(&sweeps) {
        match policy_row(t, s, config) {
            Some(r) => rows.push(r),
            None => {
                let _ = writeln!(out, "[policy comparison for {} failed]", t.name);
            }
        }
    }
    out.push_str(&comparison_table(&rows));
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ear_workloads::by_name;

    fn quick_config() -> SweepConfig {
        SweepConfig {
            quick: true,
            ..Default::default()
        }
    }

    fn bt() -> WorkloadTargets {
        by_name("BT-MZ.C (OpenMP)").unwrap_or_else(|| panic!("catalog"))
    }

    #[test]
    fn fit_tracks_the_measured_grid() {
        let t = bt();
        let spec = quick_spec(&t);
        let s = sweep_app(&t, &spec, &quick_config()).unwrap_or_else(|e| panic!("{e}"));
        // The simulator's surfaces are smooth; a quadratic should stay
        // within a few percent on a 3×3 grid.
        assert!(s.worst_residual() < 0.10, "{:?}", (s.time_fit, s.power_fit));
        // And the fitted choice lands inside the swept window.
        let (ps, ratio) = fitted_choice(&t, &s.surface);
        assert!(spec.cpu_pstates.contains(&ps) || ps >= 1);
        assert!((UNCORE_RATIO_MIN..=UNCORE_RATIO_MAX).contains(&ratio));
    }

    #[test]
    fn artifact_is_schema_tagged_and_patterned() {
        let t = bt();
        let spec = quick_spec(&t);
        let s = sweep_app(&t, &spec, &quick_config()).unwrap_or_else(|e| panic!("{e}"));
        let a = render_artifact(&s);
        assert!(a.starts_with(SWEEP_SCHEMA));
        assert_eq!(a.matches("cell ps=").count(), spec.cells());
        assert!(a.contains("fit_time_coeffs:"));
        assert!(a.contains("fit_power_coeffs:"));
        assert_eq!(artifact_name("BT-MZ.C (OpenMP)"), "BT-MZ.C__OpenMP_.sweep");
    }
}
