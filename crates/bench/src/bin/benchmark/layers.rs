//! Per-layer metrics, read off the trace of the traced phase: the
//! spans and counters the layers emit themselves, plus the
//! benchmark's own spans (`data.preprocess`, `features.assemble`,
//! `topics.question_topics`, `core.predict`, `core.train`,
//! `recsys.recommend`, `bench.fold`, `bench.op`, `bench.setup`) and
//! counters (`bench.*`) around its calls into the layers.

use std::collections::HashMap;

use forumcast_obs::{EventKind, TraceLog};

use crate::stats::PER_LAYER;

/// Training spans: the share of a fold not under one of these is
/// baselines plus held-out scoring.
const TRAIN_SPANS: [&str; 3] = ["ml.answer.train", "ml.vote.train", "ml.timing.train"];

/// Span totals by label (unit suffix stripped) and counter totals.
struct Totals {
    /// `(calls, total_ns, self_ns)` per span label.
    spans: HashMap<String, (u64, u64, u64)>,
    counters: HashMap<String, u64>,
}

impl Totals {
    /// Totals over every span of `log`, or, with `within`, only over
    /// spans whose path starts with it.
    fn new(log: &TraceLog, within: Option<&str>) -> Self {
        let mut spans: HashMap<String, (u64, u64, u64)> = HashMap::new();
        for ev in &log.events {
            let EventKind::Span { dur_ns, self_ns } = ev.kind else {
                continue;
            };
            if within.is_some_and(|prefix| !ev.path.starts_with(prefix)) {
                continue;
            }
            let row = spans.entry(ev.base_name().to_string()).or_default();
            row.0 += 1;
            row.1 += dur_ns;
            row.2 += self_ns;
        }
        Totals {
            spans,
            counters: log.counters.iter().cloned().collect(),
        }
    }

    fn calls(&self, span: &str) -> f64 {
        self.spans.get(span).map_or(0.0, |r| r.0 as f64)
    }

    fn total_ms(&self, span: &str) -> f64 {
        self.spans.get(span).map_or(0.0, |r| r.1 as f64 / 1e6)
    }

    fn self_ms(&self, span: &str) -> f64 {
        self.spans.get(span).map_or(0.0, |r| r.2 as f64 / 1e6)
    }

    fn count(&self, counter: &str) -> f64 {
        self.counters.get(counter).copied().unwrap_or(0) as f64
    }
}

/// `num / den`, or 0 when the layer did no work (`den == 0`).
fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// Every metric of [`PER_LAYER`], in table order. `overhead_frac` is
/// measured by the caller: traced against untraced time of the same
/// operations.
pub fn per_layer(log: &TraceLog, overhead_frac: f64) -> Vec<(&'static str, f64)> {
    let t = Totals::new(log, None);
    let ops = Totals::new(log, Some("bench.op"));
    let lda_ms = t.total_ms("lda.train");
    let tokens = t.count("lda.gibbs.tokens");
    let assembly_ms = t.self_ms("features.bucket") + t.total_ms("features.assemble");
    let pairs = t.count("features.pairs.pos")
        + t.count("features.pairs.neg")
        + t.count("bench.features.pairs");
    let train_pairs = t.count("bench.train.pairs");
    let predict_calls = t.count("bench.predict.calls");
    let routes = t.count("bench.routes");
    let fold_ms = t.total_ms("bench.fold");
    let values: HashMap<&str, f64> = HashMap::from([
        ("synth.generate_ms", t.total_ms("synth.generate")),
        ("data.preprocess_ms", t.total_ms("data.preprocess")),
        ("topics.lda_train_ms", lda_ms),
        ("topics.lda_train_calls", t.calls("lda.train")),
        ("topics.gibbs_tokens", tokens),
        (
            "topics.gibbs_mtokens_per_s",
            ratio(tokens / 1e6, lda_ms / 1e3),
        ),
        ("topics.infer_docs", t.count("lda.infer.docs")),
        ("graph.closeness_ms", t.total_ms("graph.closeness")),
        (
            "graph.betweenness_ms",
            t.total_ms("graph.betweenness") + t.total_ms("graph.betweenness_sampled"),
        ),
        (
            "graph.bfs_scratch_reuses",
            t.count("graph.bfs.scratch_reuses"),
        ),
        ("features.assembly_ms", assembly_ms),
        ("features.pairs", pairs),
        ("features.pairs_per_s", ratio(pairs, assembly_ms / 1e3)),
        (
            "ml.timing.train_pairs_per_s",
            ratio(train_pairs, t.total_ms("ml.timing.train") / 1e3),
        ),
        (
            "ml.vote.train_pairs_per_s",
            ratio(train_pairs, t.total_ms("ml.vote.train") / 1e3),
        ),
        (
            "ml.answer.train_pairs_per_s",
            ratio(train_pairs, t.total_ms("ml.answer.train") / 1e3),
        ),
        ("ml.logistic.epochs", t.count("ml.logistic.epochs")),
        ("core.predict_calls", predict_calls),
        (
            "core.predict_per_s",
            ratio(predict_calls, t.total_ms("core.predict") / 1e3),
        ),
        (
            "recsys.recommend_per_s",
            ratio(routes, t.total_ms("recsys.recommend") / 1e3),
        ),
        ("recsys.candidates_per_route", ratio(predict_calls, routes)),
        (
            "recsys.eligible_frac",
            ratio(t.count("bench.eligible"), predict_calls),
        ),
        ("recsys.unrouted", t.count("bench.unrouted")),
        (
            "eval.fold_other_frac",
            ratio(
                fold_ms - TRAIN_SPANS.iter().map(|s| ops.total_ms(s)).sum::<f64>(),
                fold_ms,
            ),
        ),
        ("par.tasks", t.count("par.tasks")),
        ("obs.overhead_frac", overhead_frac),
    ]);
    PER_LAYER
        .iter()
        .map(|m| {
            let v = values
                .get(m.name)
                .unwrap_or_else(|| panic!("per-layer metric {} is not derived", m.name));
            (m.name, *v)
        })
        .collect()
}

/// Each workload's dominant layer as a share of its traced ops, by
/// name: where an op's time goes, for a reader of the run's output.
pub fn shares(log: &TraceLog) -> Vec<(&'static str, f64)> {
    let ops = Totals::new(log, Some("bench.op"));
    let op_ms = ops.total_ms("bench.op");
    let assembly_ms = ops.self_ms("features.bucket") + ops.total_ms("features.assemble");
    vec![
        (
            "ml.timing.train / bench.fold",
            ratio(ops.total_ms("ml.timing.train"), ops.total_ms("bench.fold")),
        ),
        (
            "core.predict / bench.op",
            ratio(ops.total_ms("core.predict"), op_ms),
        ),
        ("features assembly / bench.op", ratio(assembly_ms, op_ms)),
        (
            "lda.train / bench.op",
            ratio(ops.total_ms("lda.train"), op_ms),
        ),
        (
            "graph.closeness / bench.op",
            ratio(ops.total_ms("graph.closeness"), op_ms),
        ),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span_event(path: &str, dur_ns: u64, self_ns: u64) -> forumcast_obs::Event {
        forumcast_obs::Event {
            kind: EventKind::Span { dur_ns, self_ns },
            path: path.to_string(),
            unit: None,
            seq: 0,
            ts_ns: 0,
            tid: 0,
        }
    }

    fn log(events: Vec<forumcast_obs::Event>, counters: &[(&str, u64)]) -> TraceLog {
        TraceLog {
            events,
            counters: counters.iter().map(|(k, v)| (k.to_string(), *v)).collect(),
            hists: Vec::new(),
            wall_ns: 0,
        }
    }

    fn metric(values: &[(&'static str, f64)], name: &str) -> f64 {
        values.iter().find(|(n, _)| *n == name).expect(name).1
    }

    #[test]
    fn every_declared_metric_is_derived_in_order() {
        let values = per_layer(&log(Vec::new(), &[]), 0.01);
        let names: Vec<&str> = values.iter().map(|(n, _)| *n).collect();
        let declared: Vec<&str> = PER_LAYER.iter().map(|m| m.name).collect();
        assert_eq!(names, declared);
        // A layer that did no work reports 0, never NaN.
        assert!(values.iter().all(|(_, v)| v.is_finite()));
    }

    /// The non-training share of a fold subtracts only training that
    /// ran inside a fold — not the serving workload's set-up training.
    #[test]
    fn fold_other_frac_counts_training_inside_folds_only() {
        let events = vec![
            span_event("bench.op#0/bench.fold", 1_000_000, 100_000),
            span_event("bench.op#0/bench.fold/ml.timing.train", 800_000, 800_000),
            span_event("bench.op#0/bench.fold/ml.vote.train", 100_000, 100_000),
            span_event(
                "bench.setup/core.train/ml.timing.train",
                5_000_000,
                5_000_000,
            ),
        ];
        let values = per_layer(&log(events, &[("bench.train.pairs", 400)]), 0.0);
        assert!((metric(&values, "eval.fold_other_frac") - 0.1).abs() < 1e-12);
        // 400 pairs over 5.8 ms of timing training.
        let rate = metric(&values, "ml.timing.train_pairs_per_s");
        assert!((rate - 400.0 / 5.8e-3).abs() < 1e-6, "{rate}");
    }

    #[test]
    fn rates_divide_work_by_busy_time() {
        let events = vec![
            span_event("bench.op#0/core.predict", 2_000_000, 2_000_000),
            span_event("bench.op#1/core.predict", 2_000_000, 2_000_000),
            span_event("bench.op#0/recsys.recommend", 500_000, 500_000),
            span_event("bench.op#1/recsys.recommend", 500_000, 500_000),
        ];
        let counters = [
            ("bench.predict.calls", 1_000),
            ("bench.routes", 2),
            ("bench.eligible", 10),
        ];
        let values = per_layer(&log(events, &counters), 0.0);
        assert!((metric(&values, "core.predict_per_s") - 250_000.0).abs() < 1e-6);
        assert!((metric(&values, "recsys.recommend_per_s") - 2_000.0).abs() < 1e-9);
        assert_eq!(metric(&values, "recsys.candidates_per_route"), 500.0);
        assert_eq!(metric(&values, "recsys.eligible_frac"), 0.01);
    }
}
