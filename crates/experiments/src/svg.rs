//! SVG rendering of experiment results — publication-style line charts of
//! the regenerated figures, with no external dependencies.

use crate::result::ExperimentResult;
use std::fmt::Write as _;

/// Chart geometry and styling.
#[derive(Debug, Clone, Copy)]
pub struct SvgOptions {
    /// Total image width in pixels.
    pub width: u32,
    /// Total image height in pixels.
    pub height: u32,
    /// Margin around the plotting area (holds axes and labels).
    pub margin: u32,
}

impl Default for SvgOptions {
    fn default() -> Self {
        SvgOptions {
            width: 720,
            height: 480,
            margin: 64,
        }
    }
}

const PALETTE: &[&str] = &[
    "#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e", "#8c564b", "#e377c2", "#7f7f7f",
];
const DASHES: &[&str] = &["", "6,3", "2,3", "8,3,2,3", "4,2", "1,2", "10,4", "3,6"];

fn esc(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
}

/// Renders the headline metric of every series as an SVG line chart.
///
/// Series get distinct colours *and* dash patterns (so the chart still reads
/// in grayscale, like the paper's plots). Points are marked with small
/// circles; axes carry min/mid/max ticks.
///
/// # Panics
///
/// Panics if the geometry leaves no plotting area.
#[must_use]
pub fn render_svg(result: &ExperimentResult, opts: &SvgOptions) -> String {
    let m = opts.margin as f64;
    let w = opts.width as f64;
    let h = opts.height as f64;
    assert!(w > 2.0 * m && h > 2.0 * m, "margins leave no plotting area");

    let labels = result.labels();
    let mut all: Vec<(f64, f64)> = Vec::new();
    for l in &labels {
        all.extend(result.series(l));
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        r#"<svg xmlns="http://www.w3.org/2000/svg" viewBox="0 0 {} {}" font-family="Helvetica, Arial, sans-serif" font-size="13">"#,
        opts.width, opts.height
    );
    let _ = writeln!(
        out,
        r#"<rect width="{}" height="{}" fill="white"/>"#,
        opts.width, opts.height
    );
    let _ = writeln!(
        out,
        r#"<text x="{}" y="24" text-anchor="middle" font-size="15">{}</text>"#,
        w / 2.0,
        esc(&format!("{} — {}", result.id, result.title))
    );

    if all.is_empty() {
        let _ = writeln!(
            out,
            r#"<text x="{}" y="{}" text-anchor="middle">(no data)</text>"#,
            w / 2.0,
            h / 2.0
        );
        out.push_str("</svg>\n");
        return out;
    }

    let (mut x_min, mut x_max) = (f64::INFINITY, f64::NEG_INFINITY);
    let (y_min, mut y_max) = (0.0_f64, f64::NEG_INFINITY);
    for &(x, y) in &all {
        x_min = x_min.min(x);
        x_max = x_max.max(x);
        y_max = y_max.max(y);
    }
    if x_max == x_min {
        x_max = x_min + 1.0;
    }
    if y_max <= y_min {
        y_max = y_min + 1.0;
    }
    y_max *= 1.06;

    let px = |x: f64| m + (x - x_min) / (x_max - x_min) * (w - 2.0 * m);
    let py = |y: f64| h - m - (y - y_min) / (y_max - y_min) * (h - 2.0 * m);

    // axes
    let _ = writeln!(
        out,
        r#"<line x1="{}" y1="{}" x2="{}" y2="{}" stroke="black"/>"#,
        m,
        h - m,
        w - m,
        h - m
    );
    let _ = writeln!(
        out,
        r#"<line x1="{}" y1="{}" x2="{}" y2="{}" stroke="black"/>"#,
        m,
        m,
        m,
        h - m
    );
    // ticks: min/mid/max on both axes
    for t in [0.0_f64, 0.5, 1.0] {
        let xv = x_min + t * (x_max - x_min);
        let yv = y_min + t * (y_max - y_min);
        let _ = writeln!(
            out,
            r#"<line x1="{0}" y1="{1}" x2="{0}" y2="{2}" stroke="black"/><text x="{0}" y="{3}" text-anchor="middle">{4:.4}</text>"#,
            px(xv),
            h - m,
            h - m + 5.0,
            h - m + 20.0,
            xv
        );
        let _ = writeln!(
            out,
            r#"<line x1="{0}" y1="{1}" x2="{2}" y2="{1}" stroke="black"/><text x="{3}" y="{4}" text-anchor="end">{5:.4}</text>"#,
            m - 5.0,
            py(yv),
            m,
            m - 8.0,
            py(yv) + 4.0,
            yv
        );
    }
    // axis labels
    let _ = writeln!(
        out,
        r#"<text x="{}" y="{}" text-anchor="middle">{}</text>"#,
        w / 2.0,
        h - 12.0,
        esc(&result.x_label)
    );
    let _ = writeln!(
        out,
        r#"<text x="16" y="{}" text-anchor="middle" transform="rotate(-90 16 {})">{}</text>"#,
        h / 2.0,
        h / 2.0,
        esc(&result.y_label)
    );

    // series
    for (si, label) in labels.iter().enumerate() {
        let colour = PALETTE[si % PALETTE.len()];
        let dash = DASHES[si % DASHES.len()];
        let pts = result.series(label);
        let path: Vec<String> = pts
            .iter()
            .map(|&(x, y)| format!("{:.2},{:.2}", px(x), py(y)))
            .collect();
        let dash_attr = if dash.is_empty() {
            String::new()
        } else {
            format!(r#" stroke-dasharray="{dash}""#)
        };
        let _ = writeln!(
            out,
            r#"<polyline fill="none" stroke="{colour}" stroke-width="2"{dash_attr} points="{}"/>"#,
            path.join(" ")
        );
        for &(x, y) in &pts {
            let _ = writeln!(
                out,
                r#"<circle cx="{:.2}" cy="{:.2}" r="3" fill="{colour}"/>"#,
                px(x),
                py(y)
            );
        }
        // legend entry
        let ly = m + 18.0 * si as f64;
        let _ = writeln!(
            out,
            r#"<line x1="{0}" y1="{1}" x2="{2}" y2="{1}" stroke="{colour}" stroke-width="2"{dash_attr}/><text x="{3}" y="{4}">{5}</text>"#,
            m + 12.0,
            ly,
            m + 44.0,
            m + 50.0,
            ly + 4.0,
            esc(label)
        );
    }

    out.push_str("</svg>\n");
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
        for x in 0..5 {
            let mut series = BTreeMap::new();
            series.insert("a & b".to_owned(), row(x as f64));
            series.insert("flat".to_owned(), row(2.0));
            points.push(SweepPoint {
                x: x as f64,
                series,
            });
        }
        ExperimentResult {
            id: "svg-test".into(),
            title: "shapes <ok>".into(),
            x_label: "clients".into(),
            y_label: "time".into(),
            points,
        }
    }

    #[test]
    fn produces_wellformed_svg_with_all_series() {
        let svg = render_svg(&sample(), &SvgOptions::default());
        assert!(svg.starts_with("<svg"));
        assert!(svg.trim_end().ends_with("</svg>"));
        assert_eq!(svg.matches("<polyline").count(), 2);
        // 2 series × 5 points of markers, plus no stray circles
        assert_eq!(svg.matches("<circle").count(), 10);
        assert!(svg.contains("clients"));
    }

    #[test]
    fn escapes_markup_in_labels() {
        let svg = render_svg(&sample(), &SvgOptions::default());
        assert!(svg.contains("a &amp; b"));
        assert!(svg.contains("shapes &lt;ok&gt;"));
        assert!(!svg.contains("shapes <ok>"));
    }

    #[test]
    fn empty_result_renders_placeholder() {
        let empty = ExperimentResult {
            id: "empty".into(),
            title: String::new(),
            x_label: "x".into(),
            y_label: "y".into(),
            points: Vec::new(),
        };
        let svg = render_svg(&empty, &SvgOptions::default());
        assert!(svg.contains("no data"));
        assert!(svg.trim_end().ends_with("</svg>"));
    }

    #[test]
    #[should_panic(expected = "no plotting area")]
    fn degenerate_geometry_rejected() {
        let opts = SvgOptions {
            width: 100,
            height: 100,
            margin: 64,
        };
        let _ = render_svg(&sample(), &opts);
    }
}
