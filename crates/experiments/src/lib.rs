//! # ear-experiments — regeneration of every table and figure
//!
//! One function per table and figure of the paper's evaluation, printed
//! by the `earsim` front end. The harness runs each (workload ×
//! configuration) cell three times — as the paper averages three real
//! runs — and reports penalties and savings against the matching
//! reference configuration.
//!
//! Execution goes through the [`engine`]: a dependency-free bounded worker
//! pool scheduling at (cell × run) granularity, with a process-wide
//! calibration cache, a persistent content-addressed result cache
//! ([`cache`], enabled by the `earsim` front end), per-task panic
//! isolation, deterministic results for any worker count, and
//! machine-readable run telemetry. Worker count: `--jobs N` on `earsim`,
//! the `EAR_JOBS` environment variable, or the machine's available
//! parallelism.
//!
//! Front end: `earsim table N`, `earsim fig N`, and `earsim all` (prints
//! everything, in paper order).

#![warn(missing_docs)]

pub mod bench;
pub mod cache;
pub mod chart;
pub mod csv;
pub mod engine;
pub mod figures;
mod fnv;
pub mod future_work;
pub mod harness;
pub mod powercap;
pub mod related_work;
pub mod surface;
pub mod sweep;
pub mod tables;

pub use cache::{default_cache_dir, result_cache_stats, set_result_cache};
pub use chart::{bar_chart, column_chart};
pub use engine::{
    default_jobs, default_model, print_process_summary, run_matrix_engine, set_default_jobs,
    set_default_model, EngineConfig, EngineSummary, MatrixRun,
};
pub use harness::{compare, format_table, run_cell, run_matrix, Comparison, RunKind, RunResult};
pub use powercap::run_powercap;
pub use sweep::{run_sweep, sweep_app, AppSweep, SweepConfig};

/// The `EAR_UNCORE_DOMAINS` override: `Some(n)` when the variable is set
/// to a valid domain count. `1` forces the legacy single-knob world —
/// [`run_all`] then omits the per-die Table VIII, keeping the report
/// byte-identical to the pre-domain releases — while `2..=4` re-runs the
/// GPU-offload probe with that many domains per socket.
pub fn uncore_domains_override() -> Option<usize> {
    let v = std::env::var("EAR_UNCORE_DOMAINS").ok()?;
    let n: usize = v.trim().parse().ok()?;
    (1..=ear_archsim::MAX_UNCORE_DOMAINS)
        .contains(&n)
        .then_some(n)
}

/// Runs every experiment and returns the full report (`earsim all`
/// prints this; EXPERIMENTS.md embeds it).
///
/// A figure whose regeneration fails (the figure entry points return
/// `Result` now) degrades to a one-line placeholder section instead of
/// aborting the other thirteen sections; on the committed catalog every
/// section succeeds, so the output is unchanged.
pub fn run_all() -> String {
    fn section(r: Result<String, ear_errors::EarError>) -> String {
        r.unwrap_or_else(|e| format!("[figure skipped: {e}]\n"))
    }
    let mut sections = vec![
        tables::table1(),
        section(figures::fig1()),
        tables::table2(),
        tables::table3(),
        tables::table4(),
        tables::table5(),
        tables::table6(),
        section(figures::fig3()),
        section(figures::fig4()),
        section(figures::fig5()),
        section(figures::fig6()),
        section(figures::fig7()),
        section(figures::fig8()),
        tables::table7(),
    ];
    // The per-die extension's table: everything above reproduces the
    // paper on single-knob nodes; `EAR_UNCORE_DOMAINS=1` pins the report
    // to exactly that (byte-identical to the pre-domain releases).
    if uncore_domains_override() != Some(1) {
        sections.push(tables::table8());
    }
    sections.join("\n")
}
