//! Rendering a drained event log: Chrome trace-event JSON for
//! `chrome://tracing` / Perfetto, a canonical text form for
//! determinism tests, and a human-readable summary table with
//! per-span latency percentiles.

use crate::{Event, EventKind, Histogram};
use std::collections::HashMap;

/// Everything recorded between arming (or the previous drain) and one
/// [`crate::drain`] call: canonically ordered events, name-sorted
/// counter totals, name-sorted value histograms, and the wall time
/// covered.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceLog {
    /// Events in canonical `(path, unit, seq)` order.
    pub events: Vec<Event>,
    /// `(name, total)` counter pairs, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, histogram)` pairs from [`crate::observe`], sorted by
    /// name. Bucket counts are sums over every thread's observations,
    /// so the table is thread-count independent.
    pub hists: Vec<(String, Histogram)>,
    /// Nanoseconds from arming to the drain.
    pub wall_ns: u64,
}

impl TraceLog {
    /// Renders the log as Chrome trace-event JSON: spans as complete
    /// (`"ph":"X"`) events, marks as instants (`"ph":"i"`), metrics
    /// and final counter totals as counter (`"ph":"C"`) events.
    /// Timestamps are microseconds. Load the file via `chrome://tracing`
    /// or <https://ui.perfetto.dev>.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(128 + self.events.len() * 160);
        out.push_str("{\"traceEvents\":[");
        let mut first = true;
        let mut push = |s: String, out: &mut String| {
            if !first {
                out.push(',');
            }
            first = false;
            out.push('\n');
            out.push_str(&s);
        };
        for ev in &self.events {
            let name = escape_json(ev.name());
            let path = escape_json(&ev.path);
            let ts = us(ev.ts_ns);
            let entry = match ev.kind {
                EventKind::Span { dur_ns, self_ns } => format!(
                    "{{\"name\":\"{name}\",\"ph\":\"X\",\"ts\":{ts},\"dur\":{},\"pid\":1,\
                     \"tid\":{},\"args\":{{\"path\":\"{path}\",\"self_us\":{}}}}}",
                    us(dur_ns),
                    ev.tid,
                    us(self_ns),
                ),
                EventKind::Mark => format!(
                    "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\"pid\":1,\
                     \"tid\":{},\"args\":{{\"path\":\"{path}\",\"unit\":{}}}}}",
                    ev.tid,
                    ev.unit.map_or("null".to_string(), |u| u.to_string()),
                ),
                EventKind::Metric { value } => format!(
                    "{{\"name\":\"{name}\",\"ph\":\"C\",\"ts\":{ts},\"pid\":1,\
                     \"args\":{{\"value\":{},\"unit\":{}}}}}",
                    json_f64(value),
                    ev.unit.map_or("null".to_string(), |u| u.to_string()),
                ),
            };
            push(entry, &mut out);
        }
        for (cname, total) in &self.counters {
            let entry = format!(
                "{{\"name\":\"{}\",\"ph\":\"C\",\"ts\":{},\"pid\":1,\
                 \"args\":{{\"value\":{total}}}}}",
                escape_json(cname),
                us(self.wall_ns),
            );
            push(entry, &mut out);
        }
        out.push_str("\n],\"displayTimeUnit\":\"ms\"}\n");
        out
    }

    /// Renders only the deterministic projection of the log — paths,
    /// units, sequence numbers, exact metric bits, counter totals,
    /// histogram bucket tables; no timestamps, durations, or thread
    /// ids. Two runs of the same configuration must produce identical
    /// canonical lines at any thread count.
    pub fn canonical_lines(&self) -> Vec<String> {
        let mut lines =
            Vec::with_capacity(self.events.len() + self.counters.len() + self.hists.len());
        for ev in &self.events {
            let unit = ev.unit.map_or("-".to_string(), |u| u.to_string());
            lines.push(match ev.kind {
                EventKind::Span { .. } => {
                    format!("span {} unit={unit} seq={}", ev.path, ev.seq)
                }
                EventKind::Mark => {
                    format!("mark {} unit={unit} seq={}", ev.path, ev.seq)
                }
                EventKind::Metric { value } => format!(
                    "metric {} unit={unit} seq={} bits={:016x}",
                    ev.path,
                    ev.seq,
                    value.to_bits()
                ),
            });
        }
        for (name, total) in &self.counters {
            lines.push(format!("counter {name} = {total}"));
        }
        for (name, hist) in &self.hists {
            let buckets: Vec<String> = hist
                .nonzero_buckets()
                .map(|(floor, count)| format!("{floor}:{count}"))
                .collect();
            lines.push(format!(
                "hist {name} count={} sum={} max={} buckets=[{}]",
                hist.count(),
                hist.sum(),
                hist.max(),
                buckets.join(",")
            ));
        }
        lines
    }

    /// Aggregates the log into a [`Summary`]: one row per span label
    /// (unit suffixes stripped) with call count, total and self time,
    /// and a duration histogram over the label's calls (p50/p90/p99/
    /// max), plus wall-time coverage by the longest root span and the
    /// named value histograms from [`crate::observe`].
    pub fn summary(&self) -> Summary {
        let mut agg: HashMap<String, SpanRow> = HashMap::new();
        let mut root_ns: u64 = 0;
        for ev in &self.events {
            let EventKind::Span { dur_ns, self_ns } = ev.kind else {
                continue;
            };
            if !ev.path.contains('/') {
                root_ns = root_ns.max(dur_ns);
            }
            let row = agg
                .entry(ev.base_name().to_string())
                .or_insert_with(|| SpanRow {
                    name: ev.base_name().to_string(),
                    calls: 0,
                    total_ns: 0,
                    self_ns: 0,
                    durations: Histogram::new(),
                });
            row.calls += 1;
            row.total_ns += dur_ns;
            row.self_ns += self_ns;
            row.durations.record(dur_ns);
        }
        let mut rows: Vec<SpanRow> = agg.into_values().collect();
        rows.sort_by(|a, b| b.total_ns.cmp(&a.total_ns).then(a.name.cmp(&b.name)));
        Summary {
            wall_ns: self.wall_ns,
            covered_ns: root_ns,
            rows,
            counters: self.counters.clone(),
            hists: self.hists.clone(),
        }
    }
}

/// One aggregated span line in a [`Summary`].
#[derive(Debug, Clone, PartialEq)]
pub struct SpanRow {
    /// Span label with unit suffixes stripped.
    pub name: String,
    /// How many spans with this label completed.
    pub calls: u64,
    /// Summed wall duration across calls.
    pub total_ns: u64,
    /// Summed self time (duration minus same-thread child spans).
    pub self_ns: u64,
    /// Log-bucket histogram over the per-call wall durations (ns) —
    /// p50/p90/p99/max come from here.
    pub durations: Histogram,
}

impl SpanRow {
    /// Median per-call duration in nanoseconds.
    pub fn p50_ns(&self) -> u64 {
        self.durations.quantile(0.50)
    }

    /// 90th-percentile per-call duration in nanoseconds.
    pub fn p90_ns(&self) -> u64 {
        self.durations.quantile(0.90)
    }

    /// 99th-percentile per-call duration in nanoseconds.
    pub fn p99_ns(&self) -> u64 {
        self.durations.quantile(0.99)
    }

    /// Longest single call in nanoseconds (exact).
    pub fn max_ns(&self) -> u64 {
        self.durations.max()
    }
}

/// End-of-run aggregate view of a [`TraceLog`], rendered by
/// [`Summary::render`].
#[derive(Debug, Clone, PartialEq)]
pub struct Summary {
    /// Wall time from arming to drain.
    pub wall_ns: u64,
    /// Duration of the longest root span — how much of the wall the
    /// span hierarchy accounts for.
    pub covered_ns: u64,
    /// Per-label rows, longest total first.
    pub rows: Vec<SpanRow>,
    /// `(name, total)` counters, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// `(name, histogram)` value histograms, sorted by name.
    pub hists: Vec<(String, Histogram)>,
}

impl Summary {
    /// Fraction of wall time covered by the longest root span, in
    /// `[0, 1]`.
    pub fn coverage(&self) -> f64 {
        if self.wall_ns == 0 {
            0.0
        } else {
            self.covered_ns as f64 / self.wall_ns as f64
        }
    }

    /// Renders the summary table: wall line, one row per span label
    /// (calls, total, self, p50/p99/max per call, share of wall),
    /// then counter totals, then the value-histogram table
    /// (count/p50/p90/p99/max/sum in the recorded unit).
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "== metrics: wall {} ({:.1}% covered by spans) ==\n",
            fmt_dur(self.wall_ns),
            self.coverage() * 100.0
        ));
        if self.rows.is_empty() {
            out.push_str("(no spans recorded)\n");
        } else {
            let name_w = self
                .rows
                .iter()
                .map(|r| r.name.len())
                .max()
                .unwrap_or(4)
                .max(4);
            out.push_str(&format!(
                "{:<name_w$}  {:>6}  {:>10}  {:>10}  {:>9}  {:>9}  {:>9}  {:>6}\n",
                "span", "calls", "total", "self", "p50", "p99", "max", "%wall"
            ));
            for row in &self.rows {
                let pct = if self.wall_ns == 0 {
                    0.0
                } else {
                    row.total_ns as f64 / self.wall_ns as f64 * 100.0
                };
                out.push_str(&format!(
                    "{:<name_w$}  {:>6}  {:>10}  {:>10}  {:>9}  {:>9}  {:>9}  {:>5.1}%\n",
                    row.name,
                    row.calls,
                    fmt_dur(row.total_ns),
                    fmt_dur(row.self_ns),
                    fmt_dur(row.p50_ns()),
                    fmt_dur(row.p99_ns()),
                    fmt_dur(row.max_ns()),
                    pct
                ));
            }
        }
        if !self.counters.is_empty() {
            let name_w = self
                .counters
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(7)
                .max(7);
            out.push_str(&format!("{:<name_w$}  {:>12}\n", "counter", "total"));
            for (name, total) in &self.counters {
                out.push_str(&format!("{name:<name_w$}  {total:>12}\n"));
            }
        }
        if !self.hists.is_empty() {
            let name_w = self
                .hists
                .iter()
                .map(|(n, _)| n.len())
                .max()
                .unwrap_or(9)
                .max(9);
            out.push_str(&format!(
                "{:<name_w$}  {:>8}  {:>8}  {:>8}  {:>8}  {:>8}  {:>10}\n",
                "histogram", "count", "p50", "p90", "p99", "max", "sum"
            ));
            for (name, h) in &self.hists {
                out.push_str(&format!(
                    "{name:<name_w$}  {:>8}  {:>8}  {:>8}  {:>8}  {:>8}  {:>10}\n",
                    h.count(),
                    h.quantile(0.50),
                    h.quantile(0.90),
                    h.quantile(0.99),
                    h.max(),
                    h.sum()
                ));
            }
        }
        out
    }
}

/// Nanoseconds rendered as microseconds with sub-µs precision — the
/// unit Chrome trace timestamps use.
fn us(ns: u64) -> String {
    format!("{}.{:03}", ns / 1_000, ns % 1_000)
}

/// A human-friendly duration: picks ns/µs/ms/s by magnitude.
fn fmt_dur(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.2}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.1}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// A JSON number for `v`, or `null` when `v` is not finite (NaN
/// losses from divergence probes must not corrupt the trace file).
pub(crate) fn json_f64(v: f64) -> String {
    if v.is_finite() {
        let s = format!("{v}");
        // `Display` omits the decimal point for integral values;
        // keep it so strict parsers see a float consistently.
        if s.contains(['.', 'e', 'E']) {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

pub(crate) fn escape_json(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventKind;

    fn ev(kind: EventKind, path: &str, unit: Option<u64>, seq: u64) -> Event {
        Event {
            kind,
            path: path.to_string(),
            unit,
            seq,
            ts_ns: 1_500,
            tid: 0,
        }
    }

    fn sample() -> TraceLog {
        let mut write_ms = Histogram::new();
        for v in [3u64, 4, 9] {
            write_ms.record(v);
        }
        TraceLog {
            events: vec![
                ev(
                    EventKind::Span {
                        dur_ns: 9_000_000,
                        self_ns: 4_000_000,
                    },
                    "run",
                    None,
                    0,
                ),
                ev(
                    EventKind::Span {
                        dur_ns: 5_000_000,
                        self_ns: 5_000_000,
                    },
                    "run/fold#0",
                    Some(0),
                    0,
                ),
                ev(EventKind::Mark, "run/fold#0/ckpt.hit", Some(0), 0),
                ev(
                    EventKind::Metric { value: f64::NAN },
                    "run/fold#0/loss",
                    Some(2),
                    0,
                ),
            ],
            counters: vec![("sweeps".to_string(), 42)],
            hists: vec![("ckpt.write_ms".to_string(), write_ms)],
            wall_ns: 10_000_000,
        }
    }

    #[test]
    fn chrome_json_parses_and_maps_nan_to_null() {
        let json = sample().to_chrome_json();
        let v: serde::Value = serde_json::from_str(&json).expect("valid JSON");
        let serde::Value::Object(fields) = &v else {
            panic!("expected object")
        };
        let events = fields
            .iter()
            .find(|(k, _)| k == "traceEvents")
            .map(|(_, v)| v)
            .expect("traceEvents");
        let serde::Value::Array(items) = events else {
            panic!("expected array")
        };
        assert_eq!(items.len(), 5); // 4 events + 1 counter total
        assert!(json.contains("\"value\":null"), "NaN must become null");
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("\"ph\":\"C\""));
    }

    #[test]
    fn canonical_lines_exclude_timing_and_tid() {
        let mut log = sample();
        let base = log.canonical_lines();
        for e in &mut log.events {
            e.ts_ns += 12_345;
            e.tid += 7;
        }
        log.wall_ns += 999;
        assert_eq!(log.canonical_lines(), base);
        assert!(base.iter().any(|l| l.starts_with("counter sweeps = 42")));
        assert!(
            base.iter()
                .any(|l| l.starts_with("hist ckpt.write_ms count=3 sum=16 max=9")),
            "histograms must appear in the canonical projection: {base:?}"
        );
    }

    #[test]
    fn summary_aggregates_by_base_name_and_measures_coverage() {
        let s = sample().summary();
        assert_eq!(s.rows.len(), 2);
        assert_eq!(s.rows[0].name, "run");
        assert_eq!(s.rows[1].name, "fold");
        assert!((s.coverage() - 0.9).abs() < 1e-9);
        let rendered = s.render();
        assert!(rendered.contains("90.0% covered"));
        assert!(rendered.contains("sweeps"));
        assert!(rendered.contains("histogram"), "{rendered}");
        assert!(rendered.contains("ckpt.write_ms"), "{rendered}");
    }

    #[test]
    fn span_rows_report_percentiles_over_calls() {
        let durs = [1_000_000u64, 2_000_000, 3_000_000, 50_000_000];
        let events = durs
            .iter()
            .enumerate()
            .map(|(i, &d)| {
                ev(
                    EventKind::Span {
                        dur_ns: d,
                        self_ns: d,
                    },
                    "work",
                    None,
                    i as u64,
                )
            })
            .collect();
        let log = TraceLog {
            events,
            counters: vec![],
            hists: vec![],
            wall_ns: 60_000_000,
        };
        let s = log.summary();
        let row = &s.rows[0];
        assert_eq!(row.calls, 4);
        assert_eq!(row.max_ns(), 50_000_000);
        // p50 lands in the bucket holding the 2nd smallest (2 ms),
        // within the 3.1% bucket error.
        let p50 = row.p50_ns() as f64;
        assert!((1.9e6..=2.0e6).contains(&p50), "p50={p50}");
        // p99 of 4 calls is the max's bucket.
        assert!(row.p99_ns() as f64 >= 48.4e6, "p99={}", row.p99_ns());
    }

    #[test]
    fn duration_formatting_picks_sane_units() {
        assert_eq!(fmt_dur(12), "12ns");
        assert_eq!(fmt_dur(1_500), "1.5us");
        assert_eq!(fmt_dur(2_500_000), "2.50ms");
        assert_eq!(fmt_dur(3_210_000_000), "3.210s");
    }

    #[test]
    fn json_numbers_stay_floats() {
        assert_eq!(json_f64(1.0), "1.0");
        assert_eq!(json_f64(0.5), "0.5");
        assert_eq!(json_f64(f64::INFINITY), "null");
    }
}
