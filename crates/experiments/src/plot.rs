//! A terminal (character-cell) plot renderer for experiment results.
//!
//! Good enough to eyeball the *shape* of a reproduced figure — monotonicity,
//! crossovers, orderings — directly in the terminal, the way the paper's
//! plots are read.

use crate::result::ExperimentResult;
use std::fmt::Write as _;

const MARKERS: &[char] = &['*', '+', 'x', 'o', '#', '%', '@', '&'];

/// Renders the headline metric of every series as a character plot.
///
/// `width`/`height` size the plotting area (axes and legend come on top).
/// Series are assigned markers in label order; overlapping points keep the
/// first series' marker.
///
/// # Panics
///
/// Panics if `width` or `height` is smaller than 8 cells.
#[must_use]
pub fn render_plot(result: &ExperimentResult, width: usize, height: usize) -> String {
    assert!(width >= 8 && height >= 8, "plot area too small");

    let labels = result.labels();
    let mut all: Vec<(f64, f64)> = Vec::new();
    for l in &labels {
        all.extend(result.series(l));
    }
    if all.is_empty() {
        return format!("# {} — (no data)\n", result.id);
    }

    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y_min, mut y_max) = (0.0_f64, f64::NEG_INFINITY);
    for &(x, y) in &all {
        x_min = x_min.min(x);
        x_max = x_max.max(x);
        y_min = y_min.min(y);
        y_max = y_max.max(y);
    }
    if x_max == x_min {
        x_max = x_min + 1.0;
    }
    if y_max <= y_min {
        y_max = y_min + 1.0;
    }
    // a little headroom so the top curve is not glued to the frame
    y_max *= 1.05;

    let mut grid = vec![vec![' '; width]; height];
    let col = |x: f64| -> usize {
        (((x - x_min) / (x_max - x_min)) * (width - 1) as f64).round() as usize
    };
    let row = |y: f64| -> usize {
        let r = ((y - y_min) / (y_max - y_min)) * (height - 1) as f64;
        height - 1 - r.round() as usize
    };

    for (si, l) in labels.iter().enumerate() {
        let marker = MARKERS[si % MARKERS.len()];
        for (x, y) in result.series(l) {
            let (c, r) = (col(x), row(y));
            if grid[r][c] == ' ' {
                grid[r][c] = marker;
            }
        }
    }

    let mut out = String::new();
    let _ = writeln!(out, "# {} — {}", result.id, result.title);
    for (si, l) in labels.iter().enumerate() {
        let _ = writeln!(out, "#   {}  {}", MARKERS[si % MARKERS.len()], l);
    }
    let _ = writeln!(out, "{y_max:>9.2} ┬{}", "─".repeat(width));
    for (i, line) in grid.iter().enumerate() {
        let label = if i == height / 2 {
            format!("{:>9.9}", result.y_label)
        } else {
            " ".repeat(9)
        };
        let _ = writeln!(out, "{label} │{}", line.iter().collect::<String>());
    }
    let _ = writeln!(out, "{y_min:>9.2} ┴{}", "─".repeat(width));
    let _ = writeln!(
        out,
        "{:>10}{x_min:<8.1}{:>pad$}{x_max:>8.1}  ({})",
        "",
        "",
        result.x_label,
        pad = width.saturating_sub(16)
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::result::{latency_row, SweepPoint};
    use oml_sim::metrics::MetricsRow;
    use std::collections::BTreeMap;

    fn row(v: f64) -> MetricsRow {
        latency_row(v, 1, 0.0, 0.0)
    }

    fn sample() -> ExperimentResult {
        let mut points = Vec::new();
        for x in 0..10 {
            let mut series = BTreeMap::new();
            series.insert("rising".to_owned(), row(x as f64));
            series.insert("flat".to_owned(), row(4.0));
            points.push(SweepPoint {
                x: x as f64,
                series,
            });
        }
        ExperimentResult {
            id: "plot-test".into(),
            title: "a test".into(),
            x_label: "x".into(),
            y_label: "y".into(),
            points,
        }
    }

    #[test]
    fn renders_markers_and_legend() {
        let s = render_plot(&sample(), 40, 12);
        assert!(s.contains("plot-test"));
        // both series' markers appear (order: flat='*', rising='+')
        assert!(s.contains("*  flat"));
        assert!(s.contains("+  rising"));
        assert!(s.matches('+').count() >= 8, "rising series drawn");
    }

    #[test]
    fn rising_series_rises() {
        let s = render_plot(&sample(), 40, 12);
        // the rising series reaches the top band (the very first row may be
        // headroom) and starts at the bottom row
        let rows: Vec<&str> = s.lines().filter(|l| l.contains('│')).collect();
        assert!(
            rows[0].contains('+') || rows[1].contains('+'),
            "top band must hold the rising series:\n{s}"
        );
        assert!(rows.last().unwrap().contains('+'), "{s}");
    }

    #[test]
    fn empty_result_is_graceful() {
        let empty = ExperimentResult {
            id: "empty".into(),
            title: String::new(),
            x_label: "x".into(),
            y_label: "y".into(),
            points: Vec::new(),
        };
        assert!(render_plot(&empty, 40, 12).contains("no data"));
    }

    #[test]
    #[should_panic(expected = "too small")]
    fn tiny_canvas_rejected() {
        let _ = render_plot(&sample(), 4, 4);
    }
}
