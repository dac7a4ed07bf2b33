//! Terminal chart rendering for the figure regenerations.
//!
//! The paper presents Figs. 1 and 3–8 as bar/line charts; `earsim fig`
//! prints the numeric series (for EXPERIMENTS.md) *and* a horizontal bar
//! rendering so the visual shape — savings growing with thresholds, the
//! energy-saving peak in the uncore sweep — is inspectable in a terminal.

/// Renders labelled values as horizontal bars, scaled to the largest
/// absolute value. Negative values render to the left of the axis.
pub fn bar_chart(title: &str, rows: &[(String, f64)], unit: &str) -> String {
    use std::fmt::Write as _;
    const WIDTH: usize = 40;
    let mut out = String::new();
    let _ = writeln!(out, "-- {title} --");
    if rows.is_empty() {
        let _ = writeln!(out, "(no data)");
        return out;
    }
    let label_w = rows.iter().map(|(l, _)| l.len()).max().unwrap_or(0);
    let max_abs = rows
        .iter()
        .map(|(_, v)| v.abs())
        .fold(0.0f64, f64::max)
        .max(1e-12);
    for (label, value) in rows {
        let len = ((value.abs() / max_abs) * WIDTH as f64).round() as usize;
        let bar = "█".repeat(len);
        let sign = if *value < 0.0 { "-" } else { " " };
        let _ = writeln!(out, "{label:>label_w$} |{sign}{bar} {value:.2}{unit}");
    }
    out
}

/// Renders an x/y series as a compact column chart (one column per point,
/// 8 height levels via partial blocks) — enough to see a curve's shape.
pub fn column_chart(title: &str, points: &[(f64, f64)], unit: &str) -> String {
    use std::fmt::Write as _;
    const LEVELS: &[char] = &[' ', '▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
    let mut out = String::new();
    let _ = writeln!(out, "-- {title} --");
    if points.is_empty() {
        let _ = writeln!(out, "(no data)");
        return out;
    }
    let max = points
        .iter()
        .map(|(_, y)| *y)
        .fold(0.0f64, f64::max)
        .max(1e-12);
    let spark: String = points
        .iter()
        .map(|(_, y)| {
            let lvl = ((y.max(0.0) / max) * 8.0).round() as usize;
            LEVELS[lvl.min(8)]
        })
        .collect();
    // The empty case returned above; the destructure documents it.
    let (Some(first), Some(last)) = (points.first(), points.last()) else {
        return out;
    };
    let peak = points
        .iter()
        .cloned()
        .fold((f64::NAN, f64::NEG_INFINITY), |acc, p| {
            if p.1 > acc.1 {
                p
            } else {
                acc
            }
        });
    let _ = writeln!(out, "  [{spark}]");
    let _ = writeln!(
        out,
        "  x: {:.2} … {:.2}; peak {:.2}{unit} at x = {:.2}",
        first.0, last.0, peak.1, peak.0
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bars_scale_to_max() {
        let rows = vec![
            ("a".to_string(), 10.0),
            ("bb".to_string(), 5.0),
            ("ccc".to_string(), -2.5),
        ];
        let chart = bar_chart("unit", &rows, "%");
        let lines: Vec<&str> = chart.lines().collect();
        assert_eq!(lines.len(), 4);
        // The largest value gets the full 40 blocks.
        let full = lines[1].matches('█').count();
        let half = lines[2].matches('█').count();
        assert_eq!(full, 40);
        assert_eq!(half, 20);
        // Negative values carry the sign marker.
        assert!(lines[3].contains("|-"));
        // Labels right-aligned to the widest.
        assert!(lines[1].starts_with("  a "));
    }

    #[test]
    fn empty_chart_is_graceful() {
        assert!(bar_chart("t", &[], "").contains("no data"));
        assert!(column_chart("t", &[], "").contains("no data"));
    }

    #[test]
    fn columns_report_the_peak() {
        let pts: Vec<(f64, f64)> = (0..10i64)
            .map(|i| (i as f64, (10 - (i - 6).abs()) as f64))
            .collect();
        let c = column_chart("sweep", &pts, "%");
        assert!(c.contains("peak 10.00% at x = 6.00"), "{c}");
        // The spark line has one char per point.
        let spark_line = c.lines().nth(1).unwrap();
        assert_eq!(spark_line.trim().chars().count(), 10 + 2); // + brackets
    }

    #[test]
    fn zero_series_does_not_divide_by_zero() {
        let c = column_chart("flat", &[(0.0, 0.0), (1.0, 0.0)], "%");
        assert!(c.contains("peak 0.00%"));
        let rows = vec![("z".to_string(), 0.0)];
        let b = bar_chart("flat", &rows, "%");
        assert!(b.contains("0.00%"));
    }
}
