//! Metric tables, the line protocol between a workload process and the
//! harness that started it, and the little JSON the harness writes.

use std::fmt::Write as _;

/// An end-to-end metric: what a user of the runtime would see.
///
/// Every time-based metric carries the largest bound the benchmark contract
/// allows: measured over four batches of ten runs, the development host's
/// own drift from one quarter of an hour to the next was 5-13 % on these
/// numbers, clean windows notwithstanding (see `bench/README.md`). Memory
/// does not depend on the neighbours; its ten-run spread is the allocator's
/// (up to 3.8 %), and 15 % is four times that.
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may worsen before it
    /// counts as a regression. Mirrors `BENCHMARK.json` (a test checks).
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 6] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "ops_per_s",
        unit: "1/s",
        higher_is_better: true,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p50_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "op_p95_us",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_us_per_op",
        unit: "us",
        higher_is_better: false,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mib",
        unit: "MiB",
        higher_is_better: false,
        bound: 0.15,
    },
];

impl EndToEnd {
    /// By what share of `base` the value `now` is worse (negative: better).
    pub fn worsening(&self, base: f64, now: f64) -> f64 {
        let change = (now - base) / base;
        if self.higher_is_better {
            -change
        } else {
            change
        }
    }
}

/// A value as the workload process computes it: `(name, value, unit)`.
pub type Named = (&'static str, f64, &'static str);

/// One measured value, as the harness reads it back.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
}

/// Everything a workload process reported, parsed from its standard output.
#[derive(Debug, Default)]
pub struct Records {
    pub metrics: Vec<Metric>,
    pub attempted: u64,
    pub failed: u64,
    /// Output-check failures; empty means correct.
    pub errors: Vec<String>,
    /// Human-readable extras (`key`, `value`), printed but never compared.
    pub notes: Vec<(String, String)>,
}

impl Records {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }
}

// The child's side of the protocol: tab-separated lines on stdout.

pub fn emit_metric(name: &str, value: f64, unit: &str) {
    println!("metric\t{name}\t{value}\t{unit}");
}

pub fn emit_count(name: &str, value: u64) {
    println!("count\t{name}\t{value}");
}

pub fn emit_note(key: &str, value: &str) {
    println!("note\t{key}\t{}", value.replace(['\t', '\n'], " "));
}

pub fn emit_error(message: &str) {
    println!("error\t{}", message.replace(['\t', '\n'], " "));
}

/// Parses a child's standard output. A line that does not fit the protocol
/// is an error: a child must not print anything else there.
pub fn parse_records(stdout: &str) -> Records {
    let mut records = Records::default();
    for line in stdout.lines() {
        let fields: Vec<&str> = line.split('\t').collect();
        let parsed = match fields.as_slice() {
            ["metric", name, value, unit] => value.parse().ok().map(|value| {
                records.metrics.push(Metric {
                    name: (*name).to_owned(),
                    value,
                    unit: (*unit).to_owned(),
                });
            }),
            ["count", "attempted", n] => n.parse().ok().map(|n| records.attempted = n),
            ["count", "failed", n] => n.parse().ok().map(|n| records.failed = n),
            ["note", key, value] => {
                records.notes.push(((*key).to_owned(), (*value).to_owned()));
                Some(())
            }
            ["error", message] => {
                records.errors.push((*message).to_owned());
                Some(())
            }
            _ => None,
        };
        if parsed.is_none() {
            records
                .errors
                .push(format!("unreadable line from workload process: {line:?}"));
        }
    }
    records
}

/// `s` as a JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// `value` as a JSON number with every digit it was measured with (JSON has
/// no NaN or infinity: those become `null`, which a reader rejects).
pub fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

/// `{"name": {"value": v, "unit": "u"}, ...}` in the given order.
pub fn json_metrics(metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(&m.name),
                json_number(m.value),
                json_string(&m.unit)
            )
        })
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// The one-line result object the benchmark contract asks for.
pub fn json_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {}}}",
        json_metrics(metrics)
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_round_trip_through_the_line_protocol() {
        let stdout = "metric\tops_per_s\t198765.5\t1/s\n\
                      metric\tstore.wal.sync_us\t812.25\tus\n\
                      count\tattempted\t4000000\n\
                      count\tfailed\t0\n\
                      note\tsamples\t4000000 latencies\n";
        let records = parse_records(stdout);
        assert!(records.errors.is_empty());
        assert_eq!(records.get("ops_per_s"), Some(198_765.5));
        assert_eq!(records.get("store.wal.sync_us"), Some(812.25));
        assert_eq!((records.attempted, records.failed), (4_000_000, 0));
        assert_eq!(records.notes[0].1, "4000000 latencies");
    }

    #[test]
    fn stray_output_and_check_failures_are_errors() {
        let records = parse_records("hello\nerror\tobject 3: counter 5, acknowledged 6\n");
        assert_eq!(records.errors.len(), 2);
        assert!(records.errors[1].contains("acknowledged"));
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let metrics = [Metric {
            name: "op_p50_us".to_owned(),
            value: 9.375,
            unit: "us".to_owned(),
        }];
        assert_eq!(
            json_result(true, 10, 0, &metrics),
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \
             \"metrics\": {\"op_p50_us\": {\"value\": 9.375, \"unit\": \"us\"}}}"
        );
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
        assert_eq!(json_number(f64::NAN), "null");
    }

    #[test]
    fn worsening_follows_the_better_direction() {
        let ops = &END_TO_END[1];
        let p50 = &END_TO_END[2];
        assert!((ops.worsening(100.0, 90.0) - 0.10).abs() < 1e-12);
        assert!((p50.worsening(100.0, 90.0) + 0.10).abs() < 1e-12);
    }

    #[test]
    fn table_mirrors_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        for metric in &END_TO_END {
            let better = if metric.higher_is_better {
                "higher"
            } else {
                "lower"
            };
            let entry = format!(
                "{{\"name\": \"{}\", \"unit\": \"{}\", \"better\": \"{better}\", \"bound\": {}}}",
                metric.name, metric.unit, metric.bound
            );
            assert!(text.contains(&entry), "BENCHMARK.json lacks {entry}");
        }
        for workload in crate::workloads::NAMES {
            assert!(text.contains(&format!("{{\"name\": \"{workload}\"")));
        }
    }
}
