//! Integration tests of the parallel experiment engine: determinism
//! across worker counts, the once-per-workload calibration cache, and
//! per-cell panic isolation.

use ear_core::PolicySettings;
use ear_experiments::engine::{self, EngineConfig};
use ear_experiments::{run_cell, run_matrix, RunKind};
use ear_trace::json::Json;
use ear_workloads::{AppClass, Platform, WorkloadTargets};

fn small_cells() -> Vec<(String, RunKind)> {
    vec![
        ("No policy".to_string(), RunKind::NoPolicy),
        (
            "Fixed 2.0".to_string(),
            RunKind::Fixed {
                cpu: 5,
                imc_ratio: Some(18),
            },
        ),
        ("ME+eU".to_string(), RunKind::me_eufs(0.03, 0.02)),
    ]
}

/// The acceptance criterion: a fixed seed gives byte-identical results no
/// matter how many workers execute the matrix.
#[test]
fn results_are_bit_identical_across_worker_counts() {
    let targets = ear_workloads::by_name("BQCD").unwrap();
    let cells = small_cells();
    let serial =
        engine::run_matrix_engine(&targets, &cells, &EngineConfig::new(2, 9001).with_jobs(1));
    let parallel =
        engine::run_matrix_engine(&targets, &cells, &EngineConfig::new(2, 9001).with_jobs(8));
    let a = serial.all().expect("all cells succeed");
    let b = parallel.all().expect("all cells succeed");
    assert_eq!(a, b, "worker count changed the results");
    // The engine really scheduled at (cell × run) granularity.
    assert_eq!(serial.summary.tasks, cells.len() * 2);
    assert_eq!(serial.summary.jobs, 1);
    assert_eq!(parallel.summary.jobs, 8);
}

/// Seeds depend on (base_seed, cell, run) — different cells draw
/// different noise, different base seeds change everything.
#[test]
fn seeds_vary_by_cell_and_base() {
    let targets = ear_workloads::by_name("BQCD").unwrap();
    let cells = vec![
        ("a".to_string(), RunKind::NoPolicy),
        ("b".to_string(), RunKind::NoPolicy),
    ];
    let run = engine::run_matrix_default(&targets, &cells, 1, 4242);
    let a = run.get(0).unwrap();
    let b = run.get(1).unwrap();
    // Same configuration, different per-cell seeds: close but not equal.
    assert_ne!(a.dc_energy_j.to_bits(), b.dc_energy_j.to_bits());
    assert!((a.time_s - b.time_s).abs() / a.time_s < 0.02);
}

/// The calibration cache: N cells (and extra `run_cell`s) of one workload
/// calibrate exactly once.
#[test]
fn calibration_runs_once_per_workload() {
    let targets = WorkloadTargets {
        name: "ENGINE-CACHE-TEST",
        class: AppClass::CpuBound,
        platform: Platform::Sd530,
        nodes: 1,
        ranks_per_node: 40,
        active_cores: 40,
        time_s: 60.0,
        iterations: 30,
        cpi: 0.5,
        gbs: 20.0,
        dc_power_w: 330.0,
        vpi: 0.0,
        comm_fraction: 0.05,
        mem_overlap: 0.6,
        uncore_lat_cycles: 4.0,
        hw_ufs_bias: 0.0,
        calib_uncore_ghz: 2.4,
        uncore_domains: 1,
    };
    let cells = small_cells();
    let run = engine::run_matrix_engine(&targets, &cells, &EngineConfig::new(2, 77).with_jobs(4));
    assert!(run.all().is_some());
    assert_eq!(
        engine::calibration_count("ENGINE-CACHE-TEST"),
        1,
        "N cells of one workload must calibrate once"
    );
    // A later single-cell run hits the same cache entry.
    let _ = run_cell(&targets, &RunKind::NoPolicy, "again", 1, 78);
    assert_eq!(engine::calibration_count("ENGINE-CACHE-TEST"), 1);
}

/// A panicking cell fails alone: the rest of the matrix survives, and the
/// summary names the failed cell.
#[test]
fn panicking_cell_does_not_tear_down_the_matrix() {
    let targets = ear_workloads::by_name("BQCD").unwrap();
    let cells = vec![
        ("good".to_string(), RunKind::NoPolicy),
        (
            "bad".to_string(),
            RunKind::Policy {
                name: "no-such-policy".to_string(),
                settings: PolicySettings::default(),
            },
        ),
    ];
    let run = engine::run_matrix_engine(&targets, &cells, &EngineConfig::new(1, 5).with_jobs(2));
    assert!(run.get(0).is_some(), "good cell must survive");
    assert!(run.get(1).is_none(), "bad cell must fail");
    assert_eq!(run.failed_labels(), vec!["bad".to_string()]);
    assert_eq!(run.summary.tasks_failed, 1);
    assert!(
        run.cells[1]
            .error
            .as_deref()
            .unwrap_or("")
            .contains("unknown policy"),
        "error: {:?}",
        run.cells[1].error
    );
    // The failed label reaches the process-wide telemetry line (other
    // tests in this binary may have added their own failed cells).
    let line = engine::process_summary_json().expect("an engine run was recorded");
    let bad = Json::Str("bad".into());
    assert!(
        matches!(Json::parse(&line), Ok(root) if matches!(
            root.get("failed_cells"), Some(Json::Arr(cells)) if cells.contains(&bad)
        )),
        "{line}"
    );

    // The compatible wrapper drops the failed cell instead of panicking.
    let survivors = run_matrix(&targets, &cells, 1, 5);
    assert_eq!(survivors.len(), 1);
    assert_eq!(survivors[0].label, "good");
}

/// An infeasible workload fails every cell gracefully (no panic), with
/// the calibration error recorded.
#[test]
fn infeasible_calibration_fails_cells_without_panicking() {
    let mut targets = ear_workloads::by_name("BQCD").unwrap();
    targets.name = "ENGINE-INFEASIBLE-TEST";
    targets.gbs = 50_000.0; // far beyond any achievable bandwidth
    let cells = small_cells();
    let run = engine::run_matrix_engine(&targets, &cells, &EngineConfig::new(1, 6));
    assert!(run.all().is_none());
    assert_eq!(run.failed_labels().len(), cells.len());
    assert!(run.cells[0]
        .error
        .as_deref()
        .unwrap_or("")
        .contains("calibration"));
}

/// run_cell through the engine reproduces the historical serial seed
/// derivation: two calls with the same inputs agree bit-for-bit.
#[test]
fn run_cell_is_deterministic() {
    let targets = ear_workloads::by_name("BQCD").unwrap();
    let a = run_cell(&targets, &RunKind::NoPolicy, "x", 2, 123);
    let b = run_cell(&targets, &RunKind::NoPolicy, "x", 2, 123);
    assert_eq!(a, b);
}
