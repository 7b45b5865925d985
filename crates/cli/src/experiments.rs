//! The paper's experiments as `forumcast` commands: Table I
//! (`evaluate`), Figures 2–7, the design ablations and the Section V
//! routing demo. Each reads the preset of its `--scale` word and
//! writes its report to the command's output; `--json` additionally
//! dumps the machine-readable report.

use std::error::Error;
use std::io::Write;
use std::path::Path;

use forumcast_core::{DecayMode, PredictionMode, ResponsePredictor, TimingConfig, TrainingRows};
use forumcast_data::UserId;
use forumcast_eval::experiments::{fig3, fig4, fig5, fig6, fig7, run_cv_resumable, table1};
use forumcast_eval::fold::mean_std;
use forumcast_eval::{EvalConfig, ExperimentData};
use forumcast_graph::{dense_graph, qa_graph, GraphStats};
use forumcast_recsys::{score_candidates, Candidate, QuestionRouter, RouterConfig};

type CmdResult = Result<(), Box<dyn Error>>;

/// One paper experiment, run by the command of the same name.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Experiment {
    /// Table I: the three models against their baselines.
    Evaluate,
    /// Figure 2: SLN graph structure.
    Fig2,
    /// Figure 3: votes vs. response time.
    Fig3,
    /// Figure 4: feature CDFs.
    Fig4,
    /// Figure 5: topic-count sensitivity.
    Fig5,
    /// Figure 6: leave-one-feature-out importance.
    Fig6,
    /// Figure 7: feature groups × history length.
    Fig7,
    /// Design-choice deltas over uncheckpointed CV runs.
    Ablations,
    /// The Section V question-routing demo.
    Recsys,
}

impl Experiment {
    /// Every experiment, in the order the usage text lists them.
    pub const ALL: [Experiment; 9] = [
        Experiment::Evaluate,
        Experiment::Fig2,
        Experiment::Fig3,
        Experiment::Fig4,
        Experiment::Fig5,
        Experiment::Fig6,
        Experiment::Fig7,
        Experiment::Ablations,
        Experiment::Recsys,
    ];

    /// The command that runs it, which is also its root span.
    pub fn name(self) -> &'static str {
        match self {
            Experiment::Evaluate => "evaluate",
            Experiment::Fig2 => "fig2",
            Experiment::Fig3 => "fig3",
            Experiment::Fig4 => "fig4",
            Experiment::Fig5 => "fig5",
            Experiment::Fig6 => "fig6",
            Experiment::Fig7 => "fig7",
            Experiment::Ablations => "ablations",
            Experiment::Recsys => "recsys",
        }
    }

    /// The experiment a command names.
    pub fn from_name(name: &str) -> Option<Experiment> {
        Experiment::ALL.into_iter().find(|e| e.name() == name)
    }

    /// The boolean flags and the value-taking options it reads
    /// besides `--scale` and the run flags.
    pub fn options(self) -> (&'static [&'static str], &'static [&'static str]) {
        const CHECKPOINTED_CV: &[&str] = &["folds", "repeats", "resume"];
        match self {
            Experiment::Evaluate => (&["json"], &["topics", "folds", "repeats", "resume"]),
            Experiment::Fig2 | Experiment::Recsys => (&[], &[]),
            Experiment::Fig3 | Experiment::Fig4 => (&["json"], &[]),
            Experiment::Fig5 | Experiment::Fig6 | Experiment::Fig7 => (&["json"], CHECKPOINTED_CV),
            Experiment::Ablations => (&[], &["folds", "repeats"]),
        }
    }
}

/// Runs `experiment` on `config`, the preset of `scale` with the
/// command's options applied, and writes its report to `out`.
///
/// # Errors
///
/// Returns a CV failure (a fold that exhausted its retries or an
/// unusable checkpoint) or a failed write to `out`.
pub fn run(
    experiment: Experiment,
    scale: &str,
    config: &EvalConfig,
    json: bool,
    resume: Option<&str>,
    out: &mut dyn Write,
) -> CmdResult {
    let resume = resume.map(Path::new);
    match experiment {
        Experiment::Evaluate => evaluate(scale, config, json, resume, out),
        Experiment::Fig2 => fig2(scale, config, out),
        Experiment::Fig3 => fig3(scale, config, json, out),
        Experiment::Fig4 => fig4(scale, config, json, out),
        Experiment::Fig5 => fig5(scale, config, json, resume, out),
        Experiment::Fig6 => fig6(scale, config, json, resume, out),
        Experiment::Fig7 => fig7(scale, config, json, resume, out),
        Experiment::Ablations => ablations(scale, config, out),
        Experiment::Recsys => recsys(scale, config, out),
    }
}

/// The run header: the experiment, its scale word and the forum its
/// config generates, then a blank line.
fn header(out: &mut dyn Write, title: &str, scale: &str, config: &EvalConfig) -> CmdResult {
    writeln!(out, "=== forumcast :: {title} (scale: {scale}) ===")?;
    writeln!(
        out,
        "dataset: {} users, {} questions, K = {}\n",
        config.synth.num_users, config.synth.num_questions, config.extractor.lda.num_topics
    )?;
    Ok(())
}

/// Writes the report as pretty JSON after a `--- json ---` line when
/// `--json` was given.
fn dump_json<T: serde::Serialize>(out: &mut dyn Write, json: bool, report: &T) -> CmdResult {
    if json {
        writeln!(out, "\n--- json ---")?;
        writeln!(out, "{}", serde_json::to_string_pretty(report)?)?;
    }
    Ok(())
}

/// Table I: AUC/RMSE of the three baselines vs. our three models over
/// stratified cross-validation. Paper (Stack Overflow, 20K threads):
/// `a` 0.699 → 0.860 (+23.0%), `v` 1.554 → 1.213 (+21.9%), `r`
/// 34.247 → 26.353 (+22.8%).
fn evaluate(
    scale: &str,
    config: &EvalConfig,
    json: bool,
    resume: Option<&Path>,
    out: &mut dyn Write,
) -> CmdResult {
    writeln!(
        out,
        "running Table-I evaluation at scale `{scale}` ({} worker threads) …",
        config.worker_threads()
    )?;
    if let Some(path) = resume {
        writeln!(out, "checkpointing completed folds to `{}`", path.display())?;
    }
    let report = table1::run(config, resume).map_err(|e| format!("evaluation failed: {e}"))?;
    writeln!(out, "{report}")?;
    dump_json(out, json, &report)
}

/// Figure 2: the structure of the two SLN graphs (`G_QA` and `G_D`)
/// over the full dataset — average degrees (paper: 2.6 and 3.7),
/// disconnectedness, and the degree distribution behind the
/// visualization.
fn fig2(scale: &str, config: &EvalConfig, out: &mut dyn Write) -> CmdResult {
    header(out, "Figure 2 — SLN graph structure", scale, config)?;
    let (dataset, report) = config.synth.generate().preprocess();
    writeln!(out, "preprocessing: {report}")?;
    writeln!(out, "dataset: {}\n", dataset.stats())?;
    let qa = qa_graph(dataset.num_users(), dataset.threads());
    let dense = dense_graph(dataset.num_users(), dataset.threads());
    for (name, g) in [("G_QA", &qa), ("G_D", &dense)] {
        let s = GraphStats::compute(g);
        writeln!(out, "{name}:")?;
        writeln!(out, "  nodes = {}, edges = {}", s.num_nodes, s.num_edges)?;
        writeln!(
            out,
            "  average degree = {:.2} (paper: 2.6 QA / 3.7 D), variance = {:.2}, max = {}",
            s.average_degree, s.degree_variance, s.max_degree
        )?;
        writeln!(
            out,
            "  components = {} (largest {}, isolated {}) → disconnected: {}",
            s.num_components,
            s.largest_component,
            s.num_isolated,
            s.is_disconnected()
        )?;
        // Degree histogram (log-spaced buckets): the data behind the
        // ring-layout visualization.
        let mut buckets = [0usize; 8];
        for u in 0..s.num_nodes as u32 {
            let d = g.degree(u);
            let b = if d == 0 {
                0
            } else {
                (d.ilog2() as usize + 1).min(7)
            };
            buckets[b] += 1;
        }
        writeln!(
            out,
            "  degree histogram [0, 1, 2-3, 4-7, 8-15, 16-31, 32-63, 64+]:"
        )?;
        writeln!(out, "    {buckets:?}\n")?;
    }
    let denser = if dense.average_degree() > qa.average_degree() {
        "YES"
    } else {
        "NO"
    };
    writeln!(out, "shape check: avg degree G_D > G_QA? {denser}")?;
    Ok(())
}

/// Figure 3: net votes vs. response time for every answered `(u, q)`
/// pair; the paper finds no correlation.
fn fig3(scale: &str, config: &EvalConfig, json: bool, out: &mut dyn Write) -> CmdResult {
    header(out, "Figure 3 — votes vs. response time", scale, config)?;
    let (dataset, _) = config.synth.generate().preprocess();
    let report = fig3::run(&dataset, 1000);
    writeln!(out, "{report}")?;
    writeln!(
        out,
        "scatter sample (hours, votes) — first 20 of {}:",
        report.scatter.len()
    )?;
    for (r, v) in report.scatter.iter().take(20) {
        writeln!(out, "  {r:>10.3} {v:>6.1}")?;
    }
    dump_json(out, json, &report)
}

/// Figure 4: CDFs of selected features (panels a–f), printed as CSV
/// series suitable for replotting.
fn fig4(scale: &str, config: &EvalConfig, json: bool, out: &mut dyn Write) -> CmdResult {
    header(out, "Figure 4 — feature CDFs", scale, config)?;
    let (dataset, _) = config.synth.generate().preprocess();
    let report = fig4::run(&dataset, &config.extractor, 50, 2000);
    writeln!(out, "{report}")?;
    writeln!(out, "\nCSV series (label,value,fraction):")?;
    for series in std::iter::once(&report.answers_provided)
        .chain(&report.response_time_by_activity)
        .chain(&report.votes_by_activity)
        .chain(&report.topic_similarities)
        .chain(&report.question_lengths)
        .chain(&report.centralities)
    {
        for (v, f) in &series.points {
            writeln!(out, "{},{v:.6},{f:.3}", series.label)?;
        }
    }
    dump_json(out, json, &report)
}

/// Figure 5: percent change of each task metric as the number of LDA
/// topics `K` varies (paper: virtually no effect on `r̂`, small on
/// `â`, larger on `v̂`; default K = 8).
fn fig5(
    scale: &str,
    config: &EvalConfig,
    json: bool,
    resume: Option<&Path>,
    out: &mut dyn Write,
) -> CmdResult {
    header(out, "Figure 5 — topic-count sensitivity", scale, config)?;
    let (ks, reference): (Vec<usize>, usize) = if scale == "quick" {
        (vec![2, 4, 8], 4)
    } else {
        (vec![4, 8, 12, 15, 20], 8)
    };
    let report =
        fig5::run(config, &ks, reference, resume).map_err(|e| format!("fig5 failed: {e}"))?;
    writeln!(out, "{report}")?;
    // Shape check: r̂ should move least across K.
    let spread = |f: fn(&fig5::Fig5Point) -> f64| {
        let vals: Vec<f64> = report.points.iter().map(f).collect();
        vals.iter().cloned().fold(f64::MIN, f64::max)
            - vals.iter().cloned().fold(f64::MAX, f64::min)
    };
    let spread_r = spread(|p| p.pct_change.2);
    let spread_v = spread(|p| p.pct_change.1);
    writeln!(
        out,
        "shape check: |Δr| spread {spread_r:.2}% vs |Δv| spread {spread_v:.2}% \
         (paper: r least sensitive)"
    )?;
    dump_json(out, json, &report)
}

/// Figure 6: leave-one-feature-out importance for the vote (`v̂`) and
/// timing (`r̂`) tasks. The paper's headline: removing `r_u` costs the
/// timing task ~48% RMSE and removing `v_q` the vote task ~8.6%.
fn fig6(
    scale: &str,
    config: &EvalConfig,
    json: bool,
    resume: Option<&Path>,
    out: &mut dyn Write,
) -> CmdResult {
    header(
        out,
        "Figure 6 — leave-one-feature-out importance",
        scale,
        config,
    )?;
    let (dataset, _) = config.synth.generate().preprocess();
    let data = ExperimentData::build(&dataset, config);
    let report = fig6::run(&data, config, resume).map_err(|e| format!("fig6 failed: {e}"))?;
    writeln!(out, "{report}")?;
    for (timing, task) in [(true, "timing (r̂)"), (false, "votes (v̂)")] {
        writeln!(out, "top-5 for {task}:")?;
        for (f, pct) in report.ranked(timing).into_iter().take(5) {
            writeln!(out, "  {:<8} {:+.2}%", f.symbol(), pct)?;
        }
    }
    dump_json(out, json, &report)
}

/// Figure 7: RMSE with one feature group excluded as the history
/// window grows (`F(q) = D_{25−i} … D_{25}`, evaluation on days
/// 25–30).
fn fig7(
    scale: &str,
    config: &EvalConfig,
    json: bool,
    resume: Option<&Path>,
    out: &mut dyn Write,
) -> CmdResult {
    header(
        out,
        "Figure 7 — feature groups × history length",
        scale,
        config,
    )?;
    let windows: Vec<usize> = if scale == "quick" {
        vec![10, 24]
    } else {
        vec![5, 10, 15, 20, 24]
    };
    let report =
        fig7::run(config, &windows, 25, resume).map_err(|e| format!("fig7 failed: {e}"))?;
    writeln!(out, "{report}")?;
    for &w in &windows {
        writeln!(
            out,
            "most important at {w}d: votes → {:?}, timing → {:?}",
            report.most_important(w, false),
            report.most_important(w, true)
        )?;
    }
    dump_json(out, json, &report)
}

/// The design choices DESIGN.md calls out, one line per ablation:
/// signed-log feature compression, the timing predictor's isotonic
/// calibration, prediction formula, decay model and survival-weight
/// clamp, and the generator's timing-noise family.
fn ablations(scale: &str, config: &EvalConfig, out: &mut dyn Write) -> CmdResult {
    header(out, "Ablations — design-choice deltas", scale, config)?;
    let (dataset, _) = config.synth.generate().preprocess();
    let data = ExperimentData::build(&dataset, config);
    let mean = |values: Vec<f64>| mean_std(&values).0;
    let cv = |data: &ExperimentData, cfg: &EvalConfig, baselines: bool| {
        run_cv_resumable(data, cfg, None, baselines, None)
            .map_err(|e| format!("ablations failed: {e}"))
    };
    let mut line = |label: &str, cfg: &EvalConfig| -> CmdResult {
        let outcomes = cv(&data, cfg, false)?;
        let auc = mean(outcomes.iter().map(|o| o.auc).collect());
        let rv = mean(outcomes.iter().map(|o| o.rmse_votes).collect());
        let rt = mean(outcomes.iter().map(|o| o.rmse_time).collect());
        writeln!(
            out,
            "{label:<34} AUC {auc:.3}  RMSE(v) {rv:.3}  RMSE(r) {rt:.3}"
        )?;
        Ok(())
    };

    line("full model (defaults)", config)?;

    let mut cfg = config.clone();
    cfg.train.signed_log = false;
    line("- signed-log compression", &cfg)?;

    let mut cfg = config.clone();
    cfg.train.timing.calibrate = false;
    line("- isotonic calibration (timing)", &cfg)?;

    let mut cfg = config.clone();
    cfg.train.timing.prediction = PredictionMode::Conditional;
    line("timing: rare-event conditional", &cfg)?;

    let mut cfg = config.clone();
    cfg.train.timing = TimingConfig {
        decay: DecayMode::Constant(0.05),
        prediction: PredictionMode::PaperExpectation,
        ..config.train.timing.clone()
    };
    line("timing: const ω + paper formula", &cfg)?;

    let mut cfg = config.clone();
    cfg.train.timing.max_survival_weight = f64::INFINITY;
    line("timing: unclamped survival wts", &cfg)?;

    writeln!(out)?;
    writeln!(
        out,
        "(generator ablation) timing noise = pure point process (paper's own model family):"
    )?;
    let mut synth_pp = config.clone();
    synth_pp.synth.timing_noise = forumcast_synth::config::TimingNoise::PointProcess;
    let (ds_pp, _) = synth_pp.synth.generate().preprocess();
    let data_pp = ExperimentData::build(&ds_pp, &synth_pp);
    let outcomes = cv(&data_pp, &synth_pp, true)?;
    let rt = mean(outcomes.iter().map(|o| o.rmse_time).collect());
    let rt_b = mean(outcomes.iter().map(|o| o.rmse_time_baseline).collect());
    writeln!(
        out,
        "point-process noise: ours RMSE(r) {rt:.3} vs poisson {rt_b:.3} — with CV≈1 \
         delay noise, no regressor separates from the mean (see EXPERIMENTS.md)"
    )?;
    Ok(())
}

/// The Section V question-recommendation system: trains the three
/// predictors, then routes a stream of new questions through the LP
/// of Equation (2), sweeping the quality/timing tradeoff λ and
/// showing the load constraints in action.
fn recsys(scale: &str, config: &EvalConfig, out: &mut dyn Write) -> CmdResult {
    header(out, "Section V — question routing demo", scale, config)?;
    let (dataset, _) = config.synth.generate().preprocess();
    let data = ExperimentData::build(&dataset, config);

    // Train on the earlier 80% of target questions.
    let cut = (data.num_targets as f64 * 0.8) as usize;
    let mut rows = TrainingRows::new(data.dim);
    for t in 0..cut {
        let (pos, neg) = data.target_records(t);
        for p in pos {
            rows.answered(t, p.x.clone(), p.votes, p.response_time);
        }
        for n in neg {
            rows.unanswered(t, n.x.clone());
        }
    }
    let ts = rows.finish(&data.windows, data.num_users);
    writeln!(out, "training joint predictor on {cut} threads …")?;
    let model = ResponsePredictor::train(&ts, &config.train);

    // Route the remaining questions for several λ settings.
    for lambda in [0.0, 0.5, 2.0] {
        let mut router = QuestionRouter::new(RouterConfig {
            epsilon: 0.4,
            default_capacity: 1.0,
            load_window: 24.0,
        });
        let mut routed = 0usize;
        let mut infeasible = 0usize;
        let mut sum_votes = 0.0;
        let mut sum_time = 0.0;
        let mut now = 0.0;
        for t in cut..data.num_targets {
            now += 0.5; // questions arrive every half hour
            let (pos, neg) = data.target_records(t);
            let candidates = score_candidates(
                &model,
                data.windows[t],
                pos.iter().chain(neg).map(|r| (r.user, &r.x)),
            );
            match router.recommend(now, lambda, &candidates) {
                Some(rec) => {
                    routed += 1;
                    if let Some(top) = rec.ranking().first().copied() {
                        let c = candidates
                            .iter()
                            .find(|c| c.user == top)
                            .ok_or_else(|| format!("router ranked {top}, not a candidate"))?;
                        sum_votes += c.votes;
                        sum_time += c.response_time;
                        router.record_answer(now, top);
                    }
                }
                None => infeasible += 1,
            }
        }
        let n = routed.max(1) as f64;
        writeln!(
            out,
            "λ = {lambda:>3.1}: routed {routed} questions ({infeasible} infeasible under load caps); \
             top pick averages: v̂ = {:.2}, r̂ = {:.2} h",
            sum_votes / n,
            sum_time / n
        )?;
    }
    writeln!(out)?;
    writeln!(
        out,
        "shape check: larger λ should lower the average r̂ of the top pick"
    )?;

    // Load-constraint illustration on one question.
    let mut router = QuestionRouter::new(RouterConfig::default());
    let demo: Vec<Candidate> = (0..3)
        .map(|i| Candidate {
            user: UserId(i),
            answer_prob: 0.9,
            votes: 3.0 - i as f64,
            response_time: 1.0 + i as f64,
        })
        .collect();
    let first = router
        .recommend(0.0, 0.0, &demo)
        .ok_or("load demo: no feasible routing")?;
    writeln!(
        out,
        "\nload demo: first recommendation ranks {:?}",
        first.ranking()
    )?;
    router.record_answer(0.1, first.ranking()[0]);
    let second = router
        .recommend(0.2, 0.0, &demo)
        .ok_or("load demo: no feasible routing")?;
    writeln!(
        out,
        "after u{} answers (cap 1/24h), next ranks {:?}",
        first.ranking()[0].0,
        second.ranking()
    )?;
    Ok(())
}

#[cfg(test)]
mod tests {
    /// Runs `line` through the CLI and returns its exit code, stdout
    /// and stderr.
    fn run_line(line: &str) -> (i32, String, String) {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = crate::run(
            line.split_whitespace().map(str::to_owned),
            &mut out,
            &mut err,
        );
        let text = |bytes| String::from_utf8(bytes).unwrap();
        (code, text(out), text(err))
    }

    /// The two experiments that fit no model print their quick
    /// goldens byte for byte.
    #[test]
    fn fig2_and_fig3_print_their_quick_goldens() {
        for (line, golden) in [
            (
                "fig2 --scale quick",
                include_str!("../../../tests/golden/fig2_quick.txt"),
            ),
            ("fig3", include_str!("../../../tests/golden/fig3_quick.txt")),
        ] {
            let (code, text, err) = run_line(line);
            assert_eq!(code, 0, "{line}: {err}");
            assert_eq!(text, golden, "{line}");
        }
    }

    #[test]
    fn json_follows_the_report() {
        let (code, text, err) = run_line("fig3 --json");
        assert_eq!(code, 0, "{err}");
        let (report, json) = text.split_once("\n--- json ---\n").unwrap();
        assert_eq!(report, include_str!("../../../tests/golden/fig3_quick.txt"));
        assert!(json.starts_with("{\n  \"num_pairs\": 236,"), "{json}");
    }

    /// A fold that exhausts its retries fails the ablation sweep with a
    /// named error and exit 1, not a panic.
    #[test]
    fn ablations_fail_cleanly_when_a_fold_fails() {
        let (code, out, err) = run_line("ablations --threads 1 --faults fold-panic:0x9");
        assert_eq!(code, 1, "{out}{err}");
        assert_eq!(
            err,
            "error: ablations failed: cv fold job 0 failed after 3 attempt(s): \
             injected fault: fold-panic:0\n"
        );
    }
}
