//! Machine-readable bench reports and the perf-regression gate.
//!
//! [`TraceLog::to_bench_json`] renders a drained log as a stable,
//! versioned JSON document (`schema`/`version` fields, name-sorted
//! arrays) meant to be committed as a baseline artifact — e.g.
//! `BENCH_quick.json` at the repo root. `forumcast bench compare`
//! parses two such documents into [`BenchReport`]s and calls
//! [`compare_reports`], which flags wall-time and p99 regressions
//! above configurable tolerances while ignoring spans too short to
//! measure reliably.
//!
//! The emitter is hand-rolled, like the Chrome trace writer;
//! [`BenchReport::from_json`] reads the documents back.

use crate::report::{escape_json, json_f64};
use crate::TraceLog;

/// Identifies the document type; readers must reject anything else.
pub const BENCH_SCHEMA: &str = "forumcast-bench";
/// Bumped on any backwards-incompatible change to the layout below.
pub const BENCH_VERSION: u64 = 1;

const NS_PER_MS: f64 = 1e6;

fn ms(ns: u64) -> f64 {
    ns as f64 / NS_PER_MS
}

impl TraceLog {
    /// Renders the log as a versioned bench report:
    ///
    /// ```json
    /// {
    ///   "schema": "forumcast-bench",
    ///   "version": 1,
    ///   "wall_ms": 544.98,
    ///   "spans":      [{"name","calls","total_ms","self_ms",
    ///                   "p50_ms","p90_ms","p99_ms","max_ms"}, …],
    ///   "counters":   [{"name","total","per_sec"}, …],
    ///   "histograms": [{"name","count","p50","p90","p99","max","sum"}, …]
    /// }
    /// ```
    ///
    /// All three arrays are sorted by name so committed baselines
    /// diff cleanly; span durations are milliseconds, percentiles
    /// come from the per-label duration histograms (≤ 3.1% bucket
    /// error, see [`crate::Histogram`]), and `per_sec` is the counter
    /// total over the wall time.
    pub fn to_bench_json(&self) -> String {
        let summary = self.summary();
        let mut rows = summary.rows.clone();
        rows.sort_by(|a, b| a.name.cmp(&b.name));
        let wall_s = self.wall_ns as f64 / 1e9;

        let mut out = String::with_capacity(256 + rows.len() * 160);
        out.push_str("{\n");
        out.push_str(&format!("  \"schema\": \"{BENCH_SCHEMA}\",\n"));
        out.push_str(&format!("  \"version\": {BENCH_VERSION},\n"));
        out.push_str(&format!("  \"wall_ms\": {},\n", json_f64(ms(self.wall_ns))));

        out.push_str("  \"spans\": [");
        for (i, row) in rows.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"calls\": {}, \"total_ms\": {}, \
                 \"self_ms\": {}, \"p50_ms\": {}, \"p90_ms\": {}, \"p99_ms\": {}, \
                 \"max_ms\": {}}}",
                escape_json(&row.name),
                row.calls,
                json_f64(ms(row.total_ns)),
                json_f64(ms(row.self_ns)),
                json_f64(ms(row.p50_ns())),
                json_f64(ms(row.p90_ns())),
                json_f64(ms(row.p99_ns())),
                json_f64(ms(row.max_ns())),
            ));
        }
        out.push_str(if rows.is_empty() { "],\n" } else { "\n  ],\n" });

        out.push_str("  \"counters\": [");
        for (i, (name, total)) in self.counters.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let per_sec = if wall_s > 0.0 {
                *total as f64 / wall_s
            } else {
                0.0
            };
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"total\": {total}, \"per_sec\": {}}}",
                escape_json(name),
                json_f64(per_sec),
            ));
        }
        out.push_str(if self.counters.is_empty() {
            "],\n"
        } else {
            "\n  ],\n"
        });

        out.push_str("  \"histograms\": [");
        for (i, (name, h)) in self.hists.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "\n    {{\"name\": \"{}\", \"count\": {}, \"p50\": {}, \"p90\": {}, \
                 \"p99\": {}, \"max\": {}, \"sum\": {}}}",
                escape_json(name),
                h.count(),
                h.quantile(0.50),
                h.quantile(0.90),
                h.quantile(0.99),
                h.max(),
                h.sum(),
            ));
        }
        out.push_str(if self.hists.is_empty() {
            "]\n"
        } else {
            "\n  ]\n"
        });
        out.push_str("}\n");
        out
    }
}

/// One span's stats as read back from a bench-report document.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchSpanStat {
    /// Span label (unit suffixes already stripped at emit time).
    pub name: String,
    /// Completed calls.
    pub calls: u64,
    /// Summed wall milliseconds across calls.
    pub total_ms: f64,
    /// 99th-percentile per-call milliseconds.
    pub p99_ms: f64,
}

/// A parsed bench report — the subset of the document the regression
/// gate consumes. [`BenchReport::from_json`] reads one; tests build
/// them directly.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct BenchReport {
    /// End-to-end wall milliseconds of the run.
    pub wall_ms: f64,
    /// Per-span stats, any order.
    pub spans: Vec<BenchSpanStat>,
}

impl BenchReport {
    /// Parses a `forumcast-bench` document, as
    /// [`TraceLog::to_bench_json`] writes it. Other schemas and
    /// versions are refused up front, so the gate never silently
    /// compares garbage.
    ///
    /// # Errors
    ///
    /// Returns a message naming the problem: invalid JSON, another
    /// schema or version, or a missing `wall_ms` or span field.
    pub fn from_json(json: &str) -> Result<BenchReport, String> {
        let v: serde::Value =
            serde_json::from_str(json).map_err(|e| format!("invalid JSON: {e}"))?;
        let schema = field(&v, "schema").and_then(|s| match s {
            serde::Value::Str(s) => Some(s.as_str()),
            _ => None,
        });
        if schema != Some(BENCH_SCHEMA) {
            return Err(format!(
                "not a `{BENCH_SCHEMA}` document (schema: {})",
                schema.unwrap_or("missing")
            ));
        }
        let version = field(&v, "version")
            .and_then(number)
            .ok_or("no schema version")? as u64;
        if version != BENCH_VERSION {
            return Err(format!(
                "bench schema version {version}; this build reads version {BENCH_VERSION}"
            ));
        }
        let wall_ms = field(&v, "wall_ms").and_then(number).ok_or("no wall_ms")?;
        let mut spans = Vec::new();
        if let Some(serde::Value::Array(items)) = field(&v, "spans") {
            for item in items {
                let name = match field(item, "name") {
                    Some(serde::Value::Str(s)) => s.clone(),
                    _ => return Err("a span has no name".into()),
                };
                let num = |key: &str| {
                    field(item, key)
                        .and_then(number)
                        .ok_or_else(|| format!("span `{name}` is missing {key}"))
                };
                spans.push(BenchSpanStat {
                    calls: num("calls")? as u64,
                    total_ms: num("total_ms")?,
                    p99_ms: num("p99_ms")?,
                    name,
                });
            }
        }
        Ok(BenchReport { wall_ms, spans })
    }
}

/// Reads `key` out of a parsed JSON object.
fn field<'a>(v: &'a serde::Value, key: &str) -> Option<&'a serde::Value> {
    match v {
        serde::Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Any JSON number as `f64` (bench reports mix integers and floats).
fn number(v: &serde::Value) -> Option<f64> {
    match v {
        serde::Value::F64(f) => Some(*f),
        serde::Value::I64(i) => Some(*i as f64),
        serde::Value::U64(u) => Some(*u as f64),
        _ => None,
    }
}

/// Gate thresholds for [`compare_reports`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CompareOptions {
    /// Maximum allowed `current / baseline` ratio for wall time and
    /// per-span totals (1.5 = fail beyond +50%).
    pub tolerance: f64,
    /// Maximum allowed ratio for per-span p99 — looser by default,
    /// tail percentiles are noisier than totals.
    pub p99_tolerance: f64,
    /// Spans (and wall times) whose *baseline* total is below this
    /// many milliseconds are reported but never gate: ratios of
    /// sub-noise-floor durations are meaningless.
    pub min_ms: f64,
}

impl Default for CompareOptions {
    fn default() -> Self {
        CompareOptions {
            tolerance: 1.5,
            p99_tolerance: 2.0,
            min_ms: 20.0,
        }
    }
}

/// One span's baseline-vs-current numbers.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchDelta {
    /// Span label.
    pub name: String,
    /// Baseline summed milliseconds.
    pub base_total_ms: f64,
    /// Current summed milliseconds.
    pub cur_total_ms: f64,
    /// Baseline p99 milliseconds.
    pub base_p99_ms: f64,
    /// Current p99 milliseconds.
    pub cur_p99_ms: f64,
}

impl BenchDelta {
    /// `current / baseline` total ratio (infinite when the baseline
    /// is zero and the current is not).
    pub fn ratio(&self) -> f64 {
        ratio_of(self.base_total_ms, self.cur_total_ms)
    }
}

fn ratio_of(base: f64, cur: f64) -> f64 {
    if base > 0.0 {
        cur / base
    } else if cur > 0.0 {
        f64::INFINITY
    } else {
        1.0
    }
}

/// The outcome of [`compare_reports`]: per-span deltas plus the list
/// of gate failures (empty = pass). Render with
/// [`BenchComparison::render`].
#[derive(Debug, Clone, PartialEq)]
pub struct BenchComparison {
    /// Wall milliseconds in the baseline.
    pub base_wall_ms: f64,
    /// Wall milliseconds in the current run.
    pub cur_wall_ms: f64,
    /// Per-span numbers for every span present in either report,
    /// sorted by baseline total descending (new spans at their
    /// current size). Spans missing from the current report are NOT
    /// here — they are failures.
    pub deltas: Vec<BenchDelta>,
    /// Human-readable gate failures, each naming the offending span.
    pub failures: Vec<String>,
}

impl BenchComparison {
    /// True when no regression tripped the gate.
    pub fn passed(&self) -> bool {
        self.failures.is_empty()
    }

    /// A table of per-span ratios followed by the verdict.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let name_w = self
            .deltas
            .iter()
            .map(|d| d.name.len())
            .max()
            .unwrap_or(4)
            .max(4);
        out.push_str(&format!(
            "{:<name_w$}  {:>12}  {:>12}  {:>7}  {:>10}  {:>10}\n",
            "span", "base ms", "cur ms", "ratio", "base p99", "cur p99"
        ));
        out.push_str(&format!(
            "{:<name_w$}  {:>12.2}  {:>12.2}  {:>6.2}x  {:>10}  {:>10}\n",
            "(wall)",
            self.base_wall_ms,
            self.cur_wall_ms,
            ratio_of(self.base_wall_ms, self.cur_wall_ms),
            "-",
            "-"
        ));
        for d in &self.deltas {
            out.push_str(&format!(
                "{:<name_w$}  {:>12.2}  {:>12.2}  {:>6.2}x  {:>10.2}  {:>10.2}\n",
                d.name,
                d.base_total_ms,
                d.cur_total_ms,
                d.ratio(),
                d.base_p99_ms,
                d.cur_p99_ms,
            ));
        }
        if self.passed() {
            out.push_str("bench compare: OK (no spans regressed past tolerance)\n");
        } else {
            for f in &self.failures {
                out.push_str(&format!("REGRESSION: {f}\n"));
            }
        }
        out
    }
}

/// Diffs `current` against `baseline`. A failure is recorded when:
///
/// - the wall time regressed past `tolerance` (baseline wall ≥
///   `min_ms`),
/// - a span's total regressed past `tolerance` (baseline total ≥
///   `min_ms`),
/// - a span's p99 regressed past `p99_tolerance` (baseline p99 ≥
///   `min_ms`), or
/// - a span with baseline total ≥ `min_ms` is missing from the
///   current report (a silently-dropped measurement must not read as
///   a speedup).
///
/// Spans only in `current` are listed in the deltas but never fail:
/// new instrumentation is not a regression.
pub fn compare_reports(
    baseline: &BenchReport,
    current: &BenchReport,
    opts: &CompareOptions,
) -> BenchComparison {
    let mut failures = Vec::new();
    let wall_ratio = ratio_of(baseline.wall_ms, current.wall_ms);
    if baseline.wall_ms >= opts.min_ms && wall_ratio > opts.tolerance {
        failures.push(format!(
            "wall time {:.2} ms -> {:.2} ms ({wall_ratio:.2}x > {:.2}x tolerance)",
            baseline.wall_ms, current.wall_ms, opts.tolerance
        ));
    }
    let mut deltas = Vec::new();
    for base in &baseline.spans {
        match current.spans.iter().find(|c| c.name == base.name) {
            Some(cur) => {
                let d = BenchDelta {
                    name: base.name.clone(),
                    base_total_ms: base.total_ms,
                    cur_total_ms: cur.total_ms,
                    base_p99_ms: base.p99_ms,
                    cur_p99_ms: cur.p99_ms,
                };
                if base.total_ms >= opts.min_ms && d.ratio() > opts.tolerance {
                    failures.push(format!(
                        "span `{}` total {:.2} ms -> {:.2} ms ({:.2}x > {:.2}x tolerance)",
                        d.name,
                        d.base_total_ms,
                        d.cur_total_ms,
                        d.ratio(),
                        opts.tolerance
                    ));
                }
                let p99_ratio = ratio_of(base.p99_ms, cur.p99_ms);
                if base.p99_ms >= opts.min_ms && p99_ratio > opts.p99_tolerance {
                    failures.push(format!(
                        "span `{}` p99 {:.2} ms -> {:.2} ms ({p99_ratio:.2}x > {:.2}x p99 tolerance)",
                        d.name, d.base_p99_ms, d.cur_p99_ms, opts.p99_tolerance
                    ));
                }
                deltas.push(d);
            }
            None => {
                if base.total_ms >= opts.min_ms {
                    failures.push(format!(
                        "span `{}` ({:.2} ms in baseline) missing from current report",
                        base.name, base.total_ms
                    ));
                }
            }
        }
    }
    for cur in &current.spans {
        if !baseline.spans.iter().any(|b| b.name == cur.name) {
            deltas.push(BenchDelta {
                name: cur.name.clone(),
                base_total_ms: 0.0,
                cur_total_ms: cur.total_ms,
                base_p99_ms: 0.0,
                cur_p99_ms: cur.p99_ms,
            });
        }
    }
    deltas.sort_by(|a, b| {
        b.base_total_ms
            .total_cmp(&a.base_total_ms)
            .then_with(|| a.name.cmp(&b.name))
    });
    BenchComparison {
        base_wall_ms: baseline.wall_ms,
        cur_wall_ms: current.wall_ms,
        deltas,
        failures,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Event, EventKind, Histogram};

    fn sample_log() -> TraceLog {
        let span = |path: &str, seq: u64, dur_ns: u64| Event {
            kind: EventKind::Span {
                dur_ns,
                self_ns: dur_ns,
            },
            path: path.to_string(),
            unit: None,
            seq,
            ts_ns: 0,
            tid: 0,
        };
        let mut h = Histogram::new();
        for v in [2u64, 3, 7] {
            h.record(v);
        }
        TraceLog {
            events: vec![
                span("run", 0, 100_000_000),
                span("run/step", 0, 30_000_000),
                span("run/step", 1, 50_000_000),
            ],
            counters: vec![("tokens".to_string(), 4_000)],
            hists: vec![("ckpt.write_ms".to_string(), h)],
            wall_ns: 200_000_000,
        }
    }

    fn as_u64(v: &serde::Value) -> u64 {
        match v {
            serde::Value::I64(i) => u64::try_from(*i).expect("non-negative"),
            serde::Value::U64(u) => *u,
            other => panic!("not an integer: {other:?}"),
        }
    }

    fn field<'v>(v: &'v serde::Value, key: &str) -> &'v serde::Value {
        let serde::Value::Object(fields) = v else {
            panic!("expected object")
        };
        fields
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v)
            .unwrap_or_else(|| panic!("missing field {key}"))
    }

    #[test]
    fn bench_json_is_versioned_and_complete() {
        let json = sample_log().to_bench_json();
        let v: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let serde::Value::Str(schema) = field(&v, "schema") else {
            panic!("schema must be a string")
        };
        assert_eq!(schema, BENCH_SCHEMA);
        assert_eq!(as_u64(field(&v, "version")), BENCH_VERSION);
        let serde::Value::Array(spans) = field(&v, "spans") else {
            panic!("spans must be an array")
        };
        assert_eq!(spans.len(), 2);
        // Name-sorted: run before step.
        let serde::Value::Str(first) = field(&spans[0], "name") else {
            panic!("name must be a string")
        };
        assert_eq!(first, "run");
        for key in [
            "calls", "total_ms", "self_ms", "p50_ms", "p90_ms", "p99_ms", "max_ms",
        ] {
            field(&spans[1], key);
        }
        // step: two calls totalling 80 ms.
        match field(&spans[1], "total_ms") {
            serde::Value::F64(t) => assert!((t - 80.0).abs() < 1e-9, "total_ms={t}"),
            other => panic!("total_ms not a float: {other:?}"),
        }
        let serde::Value::Array(counters) = field(&v, "counters") else {
            panic!("counters must be an array")
        };
        match field(&counters[0], "per_sec") {
            serde::Value::F64(r) => assert!((r - 20_000.0).abs() < 1e-6, "per_sec={r}"),
            other => panic!("per_sec not a float: {other:?}"),
        }
        let serde::Value::Array(hists) = field(&v, "histograms") else {
            panic!("histograms must be an array")
        };
        assert_eq!(as_u64(field(&hists[0], "count")), 3);
        assert_eq!(as_u64(field(&hists[0], "sum")), 12);
    }

    #[test]
    fn empty_log_still_emits_valid_document() {
        let log = TraceLog {
            events: vec![],
            counters: vec![],
            hists: vec![],
            wall_ns: 0,
        };
        let json = log.to_bench_json();
        let v: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        assert!(matches!(field(&v, "spans"), serde::Value::Array(a) if a.is_empty()));
    }

    #[test]
    fn from_json_reads_back_the_written_document_and_refuses_others() {
        let json = sample_log().to_bench_json();
        let report = BenchReport::from_json(&json).unwrap();
        assert!((report.wall_ms - 200.0).abs() < 1e-9);
        assert_eq!(report.spans.len(), 2);
        assert_eq!((report.spans[1].calls, report.spans[1].total_ms), (2, 80.0));
        for (doc, why) in [
            ("[]".to_string(), "not a `forumcast-bench` document"),
            (
                json.replace("\"version\": 1", "\"version\": 2"),
                "version 2",
            ),
            (json.replace("\"wall_ms\"", "\"wall\""), "no wall_ms"),
            (json.replacen("\"calls\": 2, ", "", 1), "is missing calls"),
        ] {
            let err = BenchReport::from_json(&doc).unwrap_err();
            assert!(err.contains(why), "{err}");
        }
    }

    fn report(spans: &[(&str, f64, f64)], wall: f64) -> BenchReport {
        BenchReport {
            wall_ms: wall,
            spans: spans
                .iter()
                .map(|&(name, total, p99)| BenchSpanStat {
                    name: name.to_string(),
                    calls: 1,
                    total_ms: total,
                    p99_ms: p99,
                })
                .collect(),
        }
    }

    #[test]
    fn identical_reports_pass() {
        let base = report(&[("run", 100.0, 40.0), ("step", 80.0, 30.0)], 200.0);
        let cmp = compare_reports(&base, &base.clone(), &CompareOptions::default());
        assert!(cmp.passed(), "{:?}", cmp.failures);
        assert_eq!(cmp.deltas.len(), 2);
        assert!(cmp.render().contains("bench compare: OK"));
    }

    #[test]
    fn total_regression_fails_naming_the_span() {
        let base = report(&[("run", 100.0, 40.0)], 200.0);
        let cur = report(&[("run", 400.0, 40.0)], 210.0);
        let cmp = compare_reports(&base, &cur, &CompareOptions::default());
        assert!(!cmp.passed());
        assert!(
            cmp.failures.iter().any(|f| f.contains("`run`")),
            "{:?}",
            cmp.failures
        );
        assert!(cmp.render().contains("REGRESSION"));
    }

    #[test]
    fn wall_regression_fails() {
        let base = report(&[], 200.0);
        let cur = report(&[], 900.0);
        let cmp = compare_reports(&base, &cur, &CompareOptions::default());
        assert!(cmp.failures.iter().any(|f| f.contains("wall time")));
    }

    #[test]
    fn p99_regression_uses_its_own_tolerance() {
        let base = report(&[("run", 100.0, 40.0)], 200.0);
        let cur = report(&[("run", 120.0, 90.0)], 200.0);
        let cmp = compare_reports(&base, &cur, &CompareOptions::default());
        assert!(
            cmp.failures.iter().any(|f| f.contains("p99")),
            "{:?}",
            cmp.failures
        );
        // Same p99 jump is fine when the baseline p99 is under the
        // noise floor.
        let base_small = report(&[("run", 100.0, 4.0)], 200.0);
        let cur_small = report(&[("run", 120.0, 9.0)], 200.0);
        let cmp = compare_reports(&base_small, &cur_small, &CompareOptions::default());
        assert!(cmp.passed(), "{:?}", cmp.failures);
    }

    #[test]
    fn small_spans_never_gate() {
        let base = report(&[("tiny", 1.0, 0.5)], 200.0);
        let cur = report(&[("tiny", 10.0, 5.0)], 200.0);
        let cmp = compare_reports(&base, &cur, &CompareOptions::default());
        assert!(cmp.passed(), "{:?}", cmp.failures);
    }

    #[test]
    fn missing_significant_span_fails_but_new_spans_pass() {
        let base = report(&[("run", 100.0, 40.0)], 200.0);
        let cur = report(&[("other", 50.0, 20.0)], 200.0);
        let cmp = compare_reports(&base, &cur, &CompareOptions::default());
        assert!(
            cmp.failures.iter().any(|f| f.contains("missing")),
            "{:?}",
            cmp.failures
        );
        // The new span appears in deltas with a zero baseline.
        assert!(cmp.deltas.iter().any(|d| d.name == "other"));
        // Reverse direction: extra current spans alone never fail.
        let cmp = compare_reports(&cur, &base, &CompareOptions::default());
        assert!(!cmp.passed(), "other went missing");
        let base2 = report(&[], 200.0);
        let cmp = compare_reports(&base2, &cur, &CompareOptions::default());
        assert!(cmp.passed(), "{:?}", cmp.failures);
    }
}
