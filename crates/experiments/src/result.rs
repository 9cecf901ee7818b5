//! Experiment results and their renderings.

use oml_sim::metrics::MetricsRow;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// All series' measurements at one x-axis value.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// The x-axis value (mean gap `t_m`, or number of clients `C`).
    pub x: f64,
    /// Measurements per series label.
    pub series: BTreeMap<String, MetricsRow>,
}

/// One regenerated figure or table.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ExperimentResult {
    /// Short id ("fig8", "fig12", …).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Label of the x-axis.
    pub x_label: String,
    /// Label of the headline y value.
    pub y_label: String,
    /// Sweep points in x order.
    pub points: Vec<SweepPoint>,
}

impl ExperimentResult {
    /// Series labels, in first-seen order across points.
    #[must_use]
    pub fn labels(&self) -> Vec<String> {
        let mut labels = Vec::new();
        for p in &self.points {
            for l in p.series.keys() {
                if !labels.iter().any(|x| x == l) {
                    labels.push(l.clone());
                }
            }
        }
        labels
    }

    /// The `(x, comm_time)` polyline of one series.
    #[must_use]
    pub fn series(&self, label: &str) -> Vec<(f64, f64)> {
        self.points
            .iter()
            .filter_map(|p| p.series.get(label).map(|m| (p.x, m.comm_time)))
            .collect()
    }

    /// Derives a new result whose headline metric is `f(row)` — the Fig. 10
    /// (`call_time`) and Fig. 11 (`migration_time`) views of a Fig. 8 run.
    ///
    /// Confidence intervals are dropped: they were computed for the original
    /// headline metric.
    #[must_use]
    pub fn derive<F: Fn(&MetricsRow) -> f64>(
        &self,
        id: &str,
        y_label: &str,
        f: F,
    ) -> ExperimentResult {
        let points = self
            .points
            .iter()
            .map(|p| SweepPoint {
                x: p.x,
                series: p
                    .series
                    .iter()
                    .map(|(l, m)| {
                        let mut row = m.clone();
                        row.comm_time = f(m);
                        row.ci_half_width = None;
                        (l.clone(), row)
                    })
                    .collect(),
            })
            .collect();
        ExperimentResult {
            id: id.to_owned(),
            title: self.title.clone(),
            x_label: self.x_label.clone(),
            y_label: y_label.to_owned(),
            points,
        }
    }

    /// Linearly interpolated x at which series `a` first crosses above
    /// series `b` (the paper's break-even points in Fig. 12).
    #[must_use]
    pub fn crossover(&self, a: &str, b: &str) -> Option<f64> {
        let sa = self.series(a);
        let sb = self.series(b);
        let mut prev: Option<(f64, f64, f64)> = None;
        for ((x, ya), (x2, yb)) in sa.into_iter().zip(sb) {
            debug_assert_eq!(x, x2);
            if let Some((px, pya, pyb)) = prev {
                let was_below = pya <= pyb;
                let now_above = ya > yb;
                if was_below && now_above {
                    let d0 = pyb - pya;
                    let d1 = ya - yb;
                    let t = if d0 + d1 > 0.0 { d0 / (d0 + d1) } else { 0.5 };
                    return Some(px + t * (x - px));
                }
            }
            prev = Some((x, ya, yb));
        }
        None
    }

    /// Renders a fixed-width table with one row per x value and one column
    /// per series (headline metric), the way the paper's plots read.
    #[must_use]
    pub fn to_ascii_table(&self) -> String {
        let labels = self.labels();
        let mut out = String::new();
        let _ = writeln!(out, "# {} — {}", self.id, self.title);
        let _ = writeln!(out, "# y: {}", self.y_label);
        let _ = write!(out, "{:>12}", self.x_label);
        for l in &labels {
            let _ = write!(out, "  {l:>24}");
        }
        out.push('\n');
        for p in &self.points {
            let _ = write!(out, "{:>12.3}", p.x);
            for l in &labels {
                match p.series.get(l) {
                    Some(m) => {
                        let ci = m
                            .ci_half_width
                            .map_or_else(|| "      ".to_owned(), |h| format!("±{h:>5.3}"));
                        let _ = write!(out, "  {:>17.4} {ci}", m.comm_time);
                    }
                    None => {
                        let _ = write!(out, "  {:>24}", "-");
                    }
                }
            }
            out.push('\n');
        }
        out
    }

    /// Renders a CSV with full per-series columns (comm/call/migration/
    /// control times, denial rate, closure size).
    #[must_use]
    pub fn to_csv(&self) -> String {
        let labels = self.labels();
        let mut out = String::new();
        let _ = write!(out, "{}", self.x_label.replace(' ', "_"));
        for l in &labels {
            for col in [
                "comm_time",
                "call_time",
                "migration_time",
                "control_time",
                "ci_half_width",
                "calls",
                "denial_rate",
                "mean_closure",
                "call_p95",
            ] {
                let _ = write!(out, ",{}:{}", l.replace(' ', "_"), col);
            }
        }
        out.push('\n');
        for p in &self.points {
            let _ = write!(out, "{}", p.x);
            for l in &labels {
                if let Some(m) = p.series.get(l) {
                    let _ = write!(
                        out,
                        ",{},{},{},{},{},{},{},{},{}",
                        m.comm_time,
                        m.call_time,
                        m.migration_time,
                        m.control_time,
                        m.ci_half_width.unwrap_or(f64::NAN),
                        m.calls,
                        m.denial_rate,
                        m.mean_closure,
                        m.call_p95
                    );
                } else {
                    let _ = write!(out, ",,,,,,,,,");
                }
            }
            out.push('\n');
        }
        out
    }
}

/// A CSV that could not be parsed back into an [`ExperimentResult`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseCsvError(String);

impl std::fmt::Display for ParseCsvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid experiment csv: {}", self.0)
    }
}

impl std::error::Error for ParseCsvError {}

impl ExperimentResult {
    /// Parses a CSV produced by [`ExperimentResult::to_csv`] back into a
    /// result (labels come back with underscores instead of spaces — the
    /// CSV header encoding is lossy in that one respect).
    ///
    /// # Errors
    ///
    /// Returns [`ParseCsvError`] on malformed headers, non-numeric cells or
    /// ragged rows.
    pub fn from_csv(id: &str, csv: &str) -> Result<ExperimentResult, ParseCsvError> {
        let mut lines = csv.lines();
        let header = lines
            .next()
            .ok_or_else(|| ParseCsvError("empty file".into()))?;
        let mut cols = header.split(',');
        let x_label = cols
            .next()
            .ok_or_else(|| ParseCsvError("missing x column".into()))?
            .replace('_', " ");

        // header cells are "<label>:<field>"; collect labels in order
        let mut labels: Vec<String> = Vec::new();
        let mut fields_per_label = 0usize;
        for cell in cols {
            let (label, _field) = cell
                .split_once(':')
                .ok_or_else(|| ParseCsvError(format!("malformed header cell `{cell}`")))?;
            match labels.last() {
                Some(last) if last == label => fields_per_label += 1,
                _ => {
                    labels.push(label.to_owned());
                    fields_per_label = 1;
                }
            }
            let _ = fields_per_label;
        }
        const FIELDS: usize = 9;
        let expected_cells = 1 + labels.len() * FIELDS;

        let mut points = Vec::new();
        for (ln, line) in lines.enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let cells: Vec<&str> = line.split(',').collect();
            if cells.len() != expected_cells {
                return Err(ParseCsvError(format!(
                    "row {} has {} cells, expected {expected_cells}",
                    ln + 2,
                    cells.len()
                )));
            }
            let num = |s: &str| -> Result<f64, ParseCsvError> {
                s.parse()
                    .map_err(|_| ParseCsvError(format!("bad number `{s}` in row {}", ln + 2)))
            };
            let x = num(cells[0])?;
            let mut series = BTreeMap::new();
            for (li, label) in labels.iter().enumerate() {
                let base = 1 + li * FIELDS;
                let ci = num(cells[base + 4])?;
                series.insert(
                    label.clone(),
                    MetricsRow {
                        comm_time: num(cells[base])?,
                        call_time: num(cells[base + 1])?,
                        migration_time: num(cells[base + 2])?,
                        control_time: num(cells[base + 3])?,
                        ci_half_width: (!ci.is_nan()).then_some(ci),
                        calls: num(cells[base + 5])? as u64,
                        denial_rate: num(cells[base + 6])?,
                        mean_closure: num(cells[base + 7])?,
                        transfer_load: 0.0,
                        call_p95: num(cells[base + 8])?,
                    },
                );
            }
            points.push(SweepPoint { x, series });
        }
        Ok(ExperimentResult {
            id: id.to_owned(),
            title: format!("reloaded from csv ({id})"),
            x_label,
            y_label: "mean communication time per call".into(),
            points,
        })
    }
}

/// A row for results measured outside the simulator: one value as both
/// the headline and the call time (a latency, a recovered fraction), the
/// calls behind it, a denial rate and a p95 — every other column zero.
pub(crate) fn latency_row(value: f64, calls: u64, denial_rate: f64, call_p95: f64) -> MetricsRow {
    MetricsRow {
        comm_time: value,
        call_time: value,
        migration_time: 0.0,
        control_time: 0.0,
        ci_half_width: None,
        calls,
        denial_rate,
        mean_closure: 0.0,
        transfer_load: 0.0,
        call_p95,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(comm: f64) -> MetricsRow {
        MetricsRow {
            comm_time: comm,
            call_time: comm * 0.6,
            migration_time: comm * 0.3,
            control_time: comm * 0.1,
            ci_half_width: Some(0.01),
            calls: 1000,
            denial_rate: 0.25,
            mean_closure: 1.0,
            transfer_load: 0.0,
            call_p95: 0.0,
        }
    }

    fn sample_result() -> ExperimentResult {
        let mut points = Vec::new();
        for (x, a, b) in [(1.0, 1.0, 2.0), (2.0, 2.0, 2.0), (3.0, 3.0, 2.0)] {
            let mut series = BTreeMap::new();
            series.insert("alpha".to_owned(), row(a));
            series.insert("beta".to_owned(), row(b));
            points.push(SweepPoint { x, series });
        }
        ExperimentResult {
            id: "test".into(),
            title: "test sweep".into(),
            x_label: "clients".into(),
            y_label: "comm time".into(),
            points,
        }
    }

    #[test]
    fn labels_and_series_extraction() {
        let r = sample_result();
        assert_eq!(r.labels(), vec!["alpha".to_owned(), "beta".to_owned()]);
        assert_eq!(r.series("alpha"), vec![(1.0, 1.0), (2.0, 2.0), (3.0, 3.0)]);
    }

    #[test]
    fn crossover_interpolates() {
        let r = sample_result();
        // alpha crosses beta between x=2 (equal) and x=3 (above): the
        // crossing is interpolated within that segment.
        let x = r.crossover("alpha", "beta").unwrap();
        assert!((2.0..=3.0).contains(&x), "{x}");
        // beta never crosses alpha from below-to-above
        assert_eq!(r.crossover("beta", "alpha"), None);
    }

    #[test]
    fn ascii_table_contains_everything() {
        let t = sample_result().to_ascii_table();
        assert!(t.contains("alpha"));
        assert!(t.contains("beta"));
        assert!(t.contains("clients"));
        assert_eq!(t.lines().count(), 3 + 3); // 2 headers + column row + 3 points
    }

    #[test]
    fn csv_has_header_and_rows() {
        let c = sample_result().to_csv();
        let mut lines = c.lines();
        let header = lines.next().unwrap();
        assert!(header.starts_with("clients"));
        assert!(header.contains("alpha:comm_time"));
        assert_eq!(lines.count(), 3);
    }

    #[test]
    fn csv_round_trips() {
        let original = sample_result();
        let reloaded = ExperimentResult::from_csv("test", &original.to_csv()).unwrap();
        assert_eq!(reloaded.labels(), original.labels());
        assert_eq!(reloaded.points.len(), original.points.len());
        for (a, b) in original.points.iter().zip(&reloaded.points) {
            assert_eq!(a.x, b.x);
            for (label, ra) in &a.series {
                let rb = &b.series[label];
                assert_eq!(ra.comm_time, rb.comm_time);
                assert_eq!(ra.call_time, rb.call_time);
                assert_eq!(ra.ci_half_width, rb.ci_half_width);
                assert_eq!(ra.calls, rb.calls);
            }
        }
        // crossovers survive the round trip
        assert_eq!(
            original.crossover("alpha", "beta").is_some(),
            reloaded.crossover("alpha", "beta").is_some()
        );
    }

    #[test]
    fn csv_parser_reports_errors() {
        assert!(ExperimentResult::from_csv("x", "").is_err());
        assert!(ExperimentResult::from_csv("x", "clients,badheader\n").is_err());
        let ragged = "clients,a:comm_time,a:call_time,a:migration_time,a:control_time,a:ci_half_width,a:calls,a:denial_rate,a:mean_closure,a:call_p95\n1,2\n";
        let err = ExperimentResult::from_csv("x", ragged).unwrap_err();
        assert!(err.to_string().contains("cells"));
        let nonnum = "clients,a:comm_time,a:call_time,a:migration_time,a:control_time,a:ci_half_width,a:calls,a:denial_rate,a:mean_closure,a:call_p95\n1,x,0,0,0,NaN,1,0,1,0\n";
        assert!(ExperimentResult::from_csv("x", nonnum).is_err());
    }
}
