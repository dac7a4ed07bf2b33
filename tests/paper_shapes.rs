//! Programmatic regression tests of the paper's result *shapes*: the
//! qualitative claims of §VI, asserted against the same experiment data
//! `earsim table` and `earsim fig` print. If a model or policy change breaks a
//! reproduced shape, these fail.
//!
//! These re-run real experiment cells (3 averaged runs each) and take a
//! few seconds apiece.

use ear::experiments::figures;
use ear::experiments::tables;

/// Table III's shape: explicit UFS adds energy savings over plain DVFS on
/// every kernel, with small time penalties.
#[test]
fn kernels_eufs_beats_hw_ufs() {
    for (name, me, eu) in tables::table3_data() {
        assert!(
            eu.energy_saving_pct >= me.energy_saving_pct - 0.5,
            "{name}: eU {:.2}% vs ME {:.2}%",
            eu.energy_saving_pct,
            me.energy_saving_pct
        );
        assert!(
            eu.energy_saving_pct > 1.0,
            "{name}: eU saved only {:.2}%",
            eu.energy_saving_pct
        );
        assert!(
            eu.time_penalty_pct < 6.5,
            "{name}: penalty {:.2}%",
            eu.time_penalty_pct
        );
    }
}

/// Table IV's shape: under ME+eU the IMC frequency drops below the
/// hardware's choice on every kernel, while CUDA kernels fall furthest
/// (idle memory system).
#[test]
fn kernels_imc_drops_under_eufs() {
    let data = tables::table4_data();
    for (name, [none, _, eu]) in &data {
        assert!(
            eu.avg_imc_ghz < none.avg_imc_ghz - 0.15,
            "{name}: {:.2} -> {:.2}",
            none.avg_imc_ghz,
            eu.avg_imc_ghz
        );
    }
    let cuda_imc = data
        .iter()
        .filter(|(n, _)| n.contains("CUDA"))
        .map(|(_, [_, _, eu])| eu.avg_imc_ghz)
        .fold(f64::INFINITY, f64::min);
    assert!(
        cuda_imc < 1.7,
        "CUDA kernels should fall deepest: {cuda_imc}"
    );
}

/// Table VI's class split: CPU-bound applications keep nominal CPU under
/// ME; memory-bound ones are lowered (paper: HPCG 1.75, POP 2.23, …).
#[test]
fn applications_split_into_the_papers_classes() {
    for (name, [_, me, _]) in tables::table6_data() {
        let cpu_bound = matches!(
            name.as_str(),
            "BQCD" | "BT-MZ" | "GROMACS (I)" | "GROMACS (II)"
        );
        if cpu_bound {
            assert!(
                me.avg_cpu_ghz > 2.3,
                "{name}: ME lowered a CPU-bound app to {:.2}",
                me.avg_cpu_ghz
            );
        } else {
            assert!(
                me.avg_cpu_ghz < 2.3,
                "{name}: ME kept a memory-bound app at {:.2}",
                me.avg_cpu_ghz
            );
        }
    }
}

/// Table VII's shape: PCK-relative savings exceed DC-relative savings for
/// every application, with a non-constant gap (the paper's §VI argument).
#[test]
fn pck_exceeds_dc_savings_with_varying_gap() {
    let data = tables::table7_data();
    let mut gaps = Vec::new();
    for (name, dc, pck) in &data {
        assert!(pck > dc, "{name}: PCK {pck:.2} <= DC {dc:.2}");
        gaps.push(pck - dc);
    }
    let min = gaps.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = gaps.iter().cloned().fold(0.0f64, f64::max);
    assert!(max - min > 0.5, "gap suspiciously constant: {gaps:?}");
}

/// Fig. 3's shape: savings and penalties grow monotonically with
/// unc_policy_th, and power savings outpace time penalties.
#[test]
fn bqcd_threshold_sweep_is_monotone() {
    let data = figures::fig3_data().expect("fig 3 data");
    // Rows: ME, eU 1 %, eU 2 %, eU 3 %.
    let savings: Vec<f64> = data.iter().map(|(_, c)| c.energy_saving_pct).collect();
    for w in savings.windows(2) {
        assert!(w[1] >= w[0] - 0.3, "savings not monotone: {savings:?}");
    }
    for (label, c) in &data[1..] {
        assert!(
            c.power_saving_pct > c.time_penalty_pct * 2.0,
            "{label}: saving {:.2} vs penalty {:.2}",
            c.power_saving_pct,
            c.time_penalty_pct
        );
    }
}

/// Fig. 1's shape: the energy-saving curve over the uncore sweep rises,
/// peaks strictly inside the range, and declines at the bottom for the
/// memory-intensive kernel (the paper's §II observation).
#[test]
fn uncore_sweep_has_an_interior_energy_peak_for_lu() {
    let (_, points) = figures::fig1_data("LU.D (MPI)").expect("fig 1 data");
    let savings: Vec<f64> = points.iter().map(|p| p.vs_hw.energy_saving_pct).collect();
    let peak_idx = savings
        .iter()
        .enumerate()
        .max_by(|a, b| a.1.total_cmp(b.1))
        .map(|(i, _)| i)
        .unwrap();
    assert!(peak_idx > 2, "peak too close to the top: {savings:?}");
    assert!(
        peak_idx < savings.len() - 1,
        "no decline at the bottom: {savings:?}"
    );
    // Time penalty grows monotonically as the uncore drops.
    let pens: Vec<f64> = points.iter().map(|p| p.vs_hw.time_penalty_pct).collect();
    for w in pens.windows(2) {
        assert!(w[1] >= w[0] - 0.15, "penalties not monotone: {pens:?}");
    }
}
