//! Powercap experiments: cap sweep, cap-vs-throughput frontier, and the
//! oversubscribed job-stream stress scenario.
//!
//! Three artifacts, all driven through the same engine as the paper
//! tables so runs are cached, seeded and reproducible:
//!
//! * **Cap sweep** — each application runs uncapped to fix its nominal DC
//!   draw, then under the dual-knob `powercap` policy at 100 % down to
//!   50 % of that draw. The table reads as "what a fleet cap costs":
//!   delivered power, time penalty and energy against the uncapped run.
//! * **Frontier** — at every binding cap the dual-knob search races the
//!   pstate-only throttle baseline (identical control loop, uncore left
//!   to hardware UFS), both with the RAPL PL1 backstop armed at the cap
//!   exactly as the fleet deploys them. The advantage column isolates
//!   what the second knob buys: same watts, more work (Cuttlefish's
//!   observation, PAPERS.md) — and below the baseline's physical floor,
//!   caps only the second knob can reach at all.
//! * **Stress** — a short oversubscribed job stream: more demand than
//!   budget, every node capped well below its appetite, some below their
//!   physical floor. The scenario must drain (no job starves, zero
//!   protocol errors) with every node fully throttled; `over_W` records
//!   where the grant was infeasible.

use crate::engine::run_matrix_default;
use crate::harness::{format_table, run_cell, RunKind};
use crate::sweep::{sweep_app, SweepConfig};
use ear_core::fit::FittedSurface;
use ear_core::PolicySettings;
use ear_jobstream::{run_stream, StreamConfig};
use ear_workloads::apps::table5_apps;
use ear_workloads::sweep::SweepSpec;
use ear_workloads::WorkloadTargets;

/// Engine runs per cell (averaged), matching the paper tables' cadence.
const RUNS: usize = 2;

/// Base seed for every powercap experiment cell.
const SEED: u64 = 1501;

/// Cap levels swept, as fractions of each application's nominal DC draw.
const CAP_FRACTIONS: [f64; 6] = [1.0, 0.9, 0.8, 0.7, 0.6, 0.5];

/// Binding cap levels the frontier races (100 % excluded: an unbinding
/// cap leaves both sides at the reference point, so there is nothing to
/// compare).
const FRONTIER_FRACTIONS: [f64; 5] = [0.9, 0.8, 0.7, 0.6, 0.5];

/// The compute-bound trio the frontier focuses on: exactly the workloads
/// where uncore watts are cheapest relative to their throughput price,
/// i.e. where the second knob's contribution is largest and cleanest.
const FRONTIER_APPS: [&str; 3] = ["BQCD", "BT-MZ", "GROMACS (I)"];

/// Looks an application up in the Table 5 catalog.
fn app(name: &str) -> WorkloadTargets {
    table5_apps()
        .into_iter()
        .find(|t| t.name == name)
        .unwrap_or_else(|| panic!("workload '{name}' missing from the Table 5 catalog"))
}

/// The capped run kind: dual-knob `powercap` or the `powercap_pstate`
/// throttle baseline, at `cap_w` watts DC per node. The dual-knob runs
/// carry the app's fitted surface so the search warm-starts at the
/// predicted time-minimal point under the cap (the baseline ignores it
/// by construction).
fn capped(cap_w: f64, dual: bool, fitted: Option<FittedSurface>) -> RunKind {
    RunKind::Policy {
        name: if dual { "powercap" } else { "powercap_pstate" }.into(),
        settings: PolicySettings {
            cap_w: Some(cap_w),
            fitted,
            ..Default::default()
        },
    }
}

/// Fits the warm-start T/P surface from a compact characterisation grid —
/// what `earsim sweep` produces, on a reduced (pstate x uncore) grid so a
/// cold `earsim powercap` stays fast; cells land in the persistent result
/// cache either way.
fn warm_surface(t: &WorkloadTargets) -> Option<FittedSurface> {
    let spec = SweepSpec {
        cpu_pstates: vec![1, 2, 3, 4, 5, 6, 7],
        imc_ratios: vec![24, 22, 20, 18, 16, 14, 12],
    };
    sweep_app(t, &spec, &SweepConfig::default())
        .ok()
        .map(|s| s.surface)
}

/// The cap-sweep table: the dual-knob policy at 100 % → 50 % of each
/// application's nominal DC power.
pub fn cap_sweep() -> String {
    let mut rows = Vec::new();
    for name in FRONTIER_APPS {
        let t = app(name);
        let free = run_cell(&t, &RunKind::NoPolicy, "nominal", RUNS, SEED);
        let surface = warm_surface(&t);
        let cells: Vec<(String, RunKind)> = CAP_FRACTIONS
            .iter()
            .map(|frac| {
                (
                    format!("cap {:.0}%", frac * 100.0),
                    capped(free.dc_power_w * frac, true, surface.clone()),
                )
            })
            .collect();
        let run = run_matrix_default(&t, &cells, RUNS, SEED);
        for (i, frac) in CAP_FRACTIONS.iter().enumerate() {
            let cap_w = free.dc_power_w * frac;
            let Some(r) = run.get(i) else {
                rows.push(vec![name.to_string(), format!("{:.0}", frac * 100.0)]);
                continue;
            };
            let time_pct = (r.time_s / free.time_s - 1.0) * 100.0;
            let energy_pct = (r.dc_energy_j / free.dc_energy_j - 1.0) * 100.0;
            // Job-average power. With the PL1 backstop armed by the
            // engine, reachable caps land a few watts under (negative
            // `over W`); a positive residual appears only where the cap
            // sits below the node's physical floor — fully throttled,
            // both knobs at bottom — and records how far above an
            // infeasible cap physics kept the node.
            rows.push(vec![
                name.to_string(),
                format!("{:.0}", frac * 100.0),
                format!("{cap_w:.0}"),
                format!("{:.1}", r.dc_power_w),
                format!("{time_pct:+.1}"),
                format!("{energy_pct:+.1}"),
                format!("{:+.1}", r.dc_power_w - cap_w),
            ]);
        }
    }
    format_table(
        "Cap sweep: dual-knob powercap at 100% -> 50% of nominal DC power",
        &[
            "app", "cap %", "cap W", "avg W", "time %", "energy %", "over W",
        ],
        &rows,
    )
}

/// The pstate actuator's physical floor for this application: slowest
/// pstate with hardware UFS left in charge of the uncore (exactly the
/// baseline's configuration, fully throttled) — the least power a
/// pstate-only throttle can possibly deliver. Caps below this line are
/// unreachable for the baseline at *any* operating point; only the
/// explicit uncore clamp extends the frontier past it, because
/// stall-driven UFS never parks the uncore as deep as the policy's
/// floor ratio.
fn pstate_floor(t: &WorkloadTargets) -> f64 {
    let kind = RunKind::Fixed {
        cpu: ear_archsim::PstateTable::xeon_gold_6148().slowest(),
        imc_ratio: None,
    };
    run_cell(t, &kind, "pstate floor", RUNS, SEED).dc_power_w
}

/// The cap-vs-throughput frontier: dual-knob search vs the pstate-only
/// throttle at every binding cap. `advantage` is the pstate-only runtime
/// over the dual-knob runtime — above 1.00x the second knob bought
/// throughput at the same cap. Where the cap sits below the pstate
/// actuator's floor (`pstate_floor`) the baseline cannot meet it at
/// any operating point — its raw runtime is bought with watts the cap
/// forbids — so the cell reads `dual only`: that stretch of the
/// frontier exists solely because of the second knob.
pub fn frontier() -> String {
    let mut rows = Vec::new();
    for name in FRONTIER_APPS {
        let t = app(name);
        let free = run_cell(&t, &RunKind::NoPolicy, "nominal", RUNS, SEED);
        let floor_w = pstate_floor(&t);
        let surface = warm_surface(&t);
        for frac in FRONTIER_FRACTIONS {
            let cap_w = free.dc_power_w * frac;
            let cells = vec![
                ("dual".to_string(), capped(cap_w, true, surface.clone())),
                ("pstate-only".to_string(), capped(cap_w, false, None)),
            ];
            let run = run_matrix_default(&t, &cells, RUNS, SEED);
            let (Some(d), Some(p)) = (run.get(0), run.get(1)) else {
                rows.push(vec![name.to_string(), format!("{:.0}", frac * 100.0)]);
                continue;
            };
            let advantage = if cap_w < floor_w {
                "dual only".to_string()
            } else {
                format!("{:.2}x", p.time_s / d.time_s)
            };
            rows.push(vec![
                name.to_string(),
                format!("{:.0}", frac * 100.0),
                format!("{cap_w:.0}"),
                format!("{floor_w:.0}"),
                format!("{:.1}", d.time_s),
                format!("{:.1}", d.dc_power_w),
                format!("{:.1}", p.time_s),
                format!("{:.1}", p.dc_power_w),
                advantage,
            ]);
        }
    }
    let mut out = format_table(
        "Cap-vs-throughput frontier: dual-knob search vs pstate-only throttle",
        &[
            "app",
            "cap %",
            "cap W",
            "floor W",
            "dual s",
            "dual W",
            "pstate s",
            "pstate W",
            "advantage",
        ],
        &rows,
    );
    out.push_str(
        "(floor W: least power the pstate-only throttle can deliver — slowest pstate,\n \
         hardware UFS. 'dual only': cap below that floor, reachable only by clamping\n \
         the uncore deeper than stall-driven UFS parks it; the baseline's runtime\n \
         there is measured over the cap and disqualified.)\n",
    );
    out
}

/// The oversubscribed stress scenario: a 4-node fleet handed 700 W DC —
/// barely above its combined idle floor — against a burst of short jobs.
/// The stream must still drain (no job starves, no protocol errors) with
/// every node fully throttled. The per-node grants are *infeasible* —
/// below some applications' physical floor — so `over_W` records how far
/// above its grant physics kept each node; that, plus wait and run time,
/// is what an oversubscribed budget costs.
pub fn stress() -> String {
    let cfg = StreamConfig {
        fleet_nodes: 4,
        budget_w: 700.0,
        arrival_rate_per_hour: 240.0,
        max_jobs: 6,
        quick: true,
        ..Default::default()
    };
    match run_stream(cfg) {
        Ok(report) => report.render(),
        Err(e) => format!("stress scenario failed: {e}\n"),
    }
}

/// Everything `earsim powercap` prints: the cap sweep, the frontier and
/// the oversubscribed stress scenario.
pub fn run_powercap() -> String {
    let mut out = String::new();
    out.push_str(&cap_sweep());
    out.push('\n');
    out.push_str(&frontier());
    out.push('\n');
    out.push_str("== Oversubscribed budget: 4 nodes, 700 W DC ==\n");
    out.push_str(&stress());
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frontier_dominates_or_extends_at_every_cap() {
        // The frontier acceptance claim, cell by cell: wherever the cap is
        // reachable for the pstate-only throttle, the dual-knob search must
        // match or beat its runtime; below the pstate floor the baseline is
        // out of the game and dual must genuinely extend the frontier
        // (materially less power than the baseline's forbidden draw).
        for name in FRONTIER_APPS {
            let t = app(name);
            let free = run_cell(&t, &RunKind::NoPolicy, "nominal", RUNS, SEED);
            let floor_w = pstate_floor(&t);
            let surface = warm_surface(&t);
            for frac in FRONTIER_FRACTIONS {
                let cap_w = free.dc_power_w * frac;
                let d = run_cell(
                    &t,
                    &capped(cap_w, true, surface.clone()),
                    "dual",
                    RUNS,
                    SEED,
                );
                let p = run_cell(&t, &capped(cap_w, false, None), "pstate", RUNS, SEED);
                if cap_w >= floor_w {
                    assert!(
                        d.time_s <= p.time_s,
                        "{name} at {:.0}%: dual lost a reachable cap \
                         ({:.1} s vs {:.1} s at {cap_w:.0} W)",
                        frac * 100.0,
                        d.time_s,
                        p.time_s
                    );
                } else {
                    assert!(
                        d.dc_power_w < p.dc_power_w - 1.0,
                        "{name} at {:.0}%: cap {cap_w:.0} W is below the pstate \
                         floor {floor_w:.0} W but dual drew {:.1} W vs {:.1} W",
                        frac * 100.0,
                        d.dc_power_w,
                        p.dc_power_w
                    );
                }
            }
        }
    }

    #[test]
    fn stress_scenario_drains() {
        let out = stress();
        assert!(out.contains("jobs 6"), "not every job completed:\n{out}");
        assert!(out.contains("protocol_errors 0"), "{out}");
    }
}
