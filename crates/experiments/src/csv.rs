//! CSV export of experiment results, for external plotting.
//!
//! `earsim fig` prints tables and terminal charts; users who want
//! the paper's actual plots (matplotlib, gnuplot, pgfplots) need the raw
//! series. These helpers serialise [`RunResult`]s and comparison series
//! into plain CSV with a stable column order.

use crate::harness::{Comparison, RunResult};

/// Escapes a CSV field (quotes fields containing separators/quotes).
fn field(s: &str) -> String {
    if s.contains(',') || s.contains('"') || s.contains('\n') {
        format!("\"{}\"", s.replace('"', "\"\""))
    } else {
        s.to_string()
    }
}

/// Serialises run results: one row per configuration.
pub fn results_to_csv(results: &[RunResult]) -> String {
    let mut out = String::from(
        "label,time_s,dc_power_w,pkg_power_w,dc_energy_j,avg_cpu_ghz,avg_imc_ghz,cpi,gbs\n",
    );
    for r in results {
        out.push_str(&format!(
            "{},{:.6},{:.6},{:.6},{:.3},{:.4},{:.4},{:.4},{:.4}\n",
            field(&r.label),
            r.time_s,
            r.dc_power_w,
            r.pkg_power_w,
            r.dc_energy_j,
            r.avg_cpu_ghz,
            r.avg_imc_ghz,
            r.cpi,
            r.gbs
        ));
    }
    out
}

/// Serialises a comparison series (e.g. a figure's bars): one row per
/// labelled configuration.
pub fn comparisons_to_csv(series: &[(String, Comparison)]) -> String {
    let mut out = String::from(
        "label,time_penalty_pct,power_saving_pct,energy_saving_pct,pkg_power_saving_pct,gbs_penalty_pct\n",
    );
    for (label, c) in series {
        out.push_str(&format!(
            "{},{:.4},{:.4},{:.4},{:.4},{:.4}\n",
            field(label),
            c.time_penalty_pct,
            c.power_saving_pct,
            c.energy_saving_pct,
            c.pkg_power_saving_pct,
            c.gbs_penalty_pct
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(label: &str) -> RunResult {
        RunResult {
            label: label.to_string(),
            time_s: 100.0,
            dc_power_w: 320.0,
            pkg_power_w: 230.0,
            dc_energy_j: 32_000.0,
            pkg_energy_j: 23_000.0,
            avg_cpu_ghz: 2.4,
            avg_imc_ghz: 2.0,
            imc_domains: 1,
            imc_dom_ghz: [0.0; 4],
            cpi: 0.5,
            gbs: 20.0,
        }
    }

    #[test]
    fn results_csv_has_header_and_rows() {
        let csv = results_to_csv(&[result("No policy"), result("ME+eU")]);
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("label,time_s"));
        assert!(lines[1].starts_with("No policy,100.000000"));
        // Constant column count.
        for l in &lines {
            assert_eq!(l.matches(',').count(), 8, "{l}");
        }
    }

    #[test]
    fn fields_with_commas_are_quoted() {
        let csv = results_to_csv(&[result("GROMACS (I), run 2")]);
        assert!(csv.contains("\"GROMACS (I), run 2\""));
    }

    #[test]
    fn comparisons_csv_round_numbers() {
        let c = Comparison {
            time_penalty_pct: 1.5,
            power_saving_pct: 8.0,
            energy_saving_pct: 6.6,
            pkg_power_saving_pct: 11.0,
            gbs_penalty_pct: 1.4,
        };
        let csv = comparisons_to_csv(&[("ME+eU".to_string(), c)]);
        assert!(csv.contains("ME+eU,1.5000,8.0000,6.6000,11.0000,1.4000"));
    }
}
