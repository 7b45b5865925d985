//! Implementations of the CLI commands.

use std::error::Error;
use std::io::Write;

use rand::rngs::StdRng;
use rand::SeedableRng;

use forumcast_core::{sample_training_set, ResponsePredictor, TrainConfig};
use forumcast_data::{io as data_io, Dataset, QuestionId, UserId};
use forumcast_eval::{RunFlags, RunSession};
use forumcast_features::{ExtractorConfig, FeatureExtractor};
use forumcast_graph::{dense_graph, qa_graph, GraphStats};
use forumcast_recsys::{score_candidates, QuestionRouter, RouterConfig};
use forumcast_synth::SynthConfig;

use crate::args::{Command, USAGE};
use crate::experiments;

type CmdResult = Result<(), Box<dyn Error>>;

/// Executes a parsed command, writing human-readable output to `out`.
///
/// # Errors
///
/// Returns any I/O, parsing, or domain error encountered; `run`
/// converts it to a non-zero exit code.
pub fn execute(cmd: Command, out: &mut dyn Write) -> CmdResult {
    match cmd {
        Command::Help => {
            writeln!(out, "{USAGE}")?;
            Ok(())
        }
        Command::Generate {
            scale,
            config,
            threads,
            out: path,
        } => generate(&scale, &config, threads, &path, out),
        Command::Stats { data, gate } => {
            let session = RunSession::start(RunFlags::default())?;
            in_session(session, "stats", out, |out| stats(&data, gate, out))
        }
        Command::Train {
            data,
            fast,
            seed,
            out: path,
        } => {
            // Training uses `FORUMCAST_THREADS` workers, else every
            // core; the model is bitwise identical at any count.
            let session = RunSession::start(RunFlags::default())?;
            in_session(session, "train", out, |out| {
                train(&data, fast, seed, &path, out)
            })
        }
        Command::Predict {
            data,
            model,
            question,
            user,
        } => predict(&data, &model, question, user, out),
        Command::Route {
            data,
            model,
            question,
            lambda,
            epsilon,
            capacity,
            top,
        } => route(&data, &model, question, lambda, epsilon, capacity, top, out),
        Command::Experiment {
            experiment,
            scale,
            config,
            json,
            resume,
            run,
        } => {
            // `--threads` sizes the CV fold workers (`config.threads`)
            // and, through the session's `set_train_threads`, the
            // training workers; neither changes a result bit.
            let session = RunSession::start(run)?;
            in_session(session, experiment.name(), out, |out| {
                experiments::run(experiment, &scale, &config, json, resume.as_deref(), out)
            })
        }
        Command::BenchCompare {
            baseline,
            current,
            tolerance,
            p99_tolerance,
            min_ms,
        } => bench_compare(&baseline, &current, tolerance, p99_tolerance, min_ms, out),
        Command::AbTest { config, run } => {
            let session = RunSession::start(run)?;
            in_session(session, "abtest", out, |out| {
                writeln!(out, "{}", forumcast_abtest::run(&config))?;
                Ok(())
            })
        }
    }
}

/// Runs `body` under the root span `root`, then flushes the session's
/// trace, bench report and summary. A failed body flushes nothing.
fn in_session(
    session: RunSession,
    root: &str,
    out: &mut dyn Write,
    body: impl FnOnce(&mut dyn Write) -> CmdResult,
) -> CmdResult {
    {
        let _root = forumcast_obs::span(root);
        body(out)?;
    }
    session.finish(out)
}

fn generate(
    scale: &str,
    config: &SynthConfig,
    threads: usize,
    path: &str,
    out: &mut dyn Write,
) -> CmdResult {
    let dataset = forumcast_synth::generate_with_threads(config, threads);
    std::fs::write(path, data_io::to_json(&dataset)?)
        .map_err(|e| format!("cannot write dataset to `{path}`: {e}"))?;
    writeln!(
        out,
        "wrote {} ({} questions, {} users) to {path}",
        scale,
        dataset.num_questions(),
        dataset.num_users()
    )?;
    Ok(())
}

fn load_dataset(path: &str) -> Result<Dataset, Box<dyn Error>> {
    let json =
        std::fs::read_to_string(path).map_err(|e| format!("cannot read dataset `{path}`: {e}"))?;
    data_io::from_json(&json).map_err(|e| format!("invalid dataset `{path}`: {e}").into())
}

fn stats(data: &str, gate: bool, out: &mut dyn Write) -> CmdResult {
    let dataset = {
        let _s = forumcast_obs::span("stats.load");
        load_dataset(data)?
    };
    // Measured on the raw dataset: preprocessing drops exactly the
    // unanswered questions the first calibration check counts.
    let calibration = gate.then(|| forumcast_data::calibrate(&dataset));
    writeln!(out, "raw:   {}", dataset.stats())?;
    let (clean, report) = {
        let _s = forumcast_obs::span("stats.preprocess");
        dataset.preprocess()
    };
    writeln!(out, "clean: {}", clean.stats())?;
    writeln!(out, "preprocessing: {report}")?;
    let builders = [
        ("G_QA", qa_graph as fn(_, _) -> _),
        ("G_D", dense_graph as fn(_, _) -> _),
    ];
    for (i, (name, build)) in builders.into_iter().enumerate() {
        let _g_span = forumcast_obs::span_unit("stats.graph", i as u64);
        let g = build(clean.num_users(), clean.threads());
        let s = GraphStats::compute(&g);
        writeln!(
            out,
            "{name}: avg degree {:.2}, {} components (largest {}), disconnected {}",
            s.average_degree,
            s.num_components,
            s.largest_component,
            s.is_disconnected()
        )?;
    }
    if let Some(report) = calibration {
        writeln!(out, "calibration vs paper Section III:")?;
        write!(out, "{report}")?;
        if !report.passed() {
            return Err(format!(
                "calibration gate: {} metric(s) drifted out of the paper's \
                 Section III range",
                report.drifted().len()
            )
            .into());
        }
        writeln!(out, "calibration gate: ok")?;
    }
    Ok(())
}

/// Model + extractor are persisted together so `predict`/`route` can
/// featurize raw questions consistently: the extractor is refit from
/// the dataset with exactly the settings the model was trained on.
#[derive(serde::Serialize, serde::Deserialize)]
struct SavedModel {
    predictor: ResponsePredictor,
    history_threads: usize,
    /// Whether `train --fast` built the extractor (`None` in model
    /// files written before the setting was recorded).
    fast: Option<bool>,
    /// The LDA sampler the extractor's topic model was fit with.
    lda_sampler: Option<GibbsSampler>,
}

/// The one Gibbs sampler a model file may record. Files record it so
/// their bytes stay what earlier builds wrote; one that names a sampler
/// since removed fails to parse, so it is refused rather than refit
/// with a different sampler.
#[derive(Debug, Clone, Copy, PartialEq, Eq, serde::Serialize, serde::Deserialize)]
enum GibbsSampler {
    Dense,
}

/// Why `predict`/`route` cannot score a request.
#[derive(Debug)]
enum ScoreError {
    /// The model file does not record its extractor settings.
    MissingSettings { model: String },
    /// The model expects a different feature width than the refit
    /// extractor produces.
    DimensionMismatch {
        model: String,
        model_dim: usize,
        extractor_dim: usize,
    },
    /// The user id is outside the dataset's population.
    UnknownUser { user: u32, num_users: u32 },
}

impl std::fmt::Display for ScoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScoreError::MissingSettings { model } => write!(
                f,
                "model `{model}` does not record the extractor settings it was \
                 trained with (`fast`, `lda_sampler`); retrain it with `forumcast train`"
            ),
            ScoreError::DimensionMismatch {
                model,
                model_dim,
                extractor_dim,
            } => write!(
                f,
                "model `{model}` expects {model_dim}-dimensional features but its \
                 recorded extractor settings produce {extractor_dim}; retrain it \
                 with `forumcast train`"
            ),
            ScoreError::UnknownUser { user, num_users } => write!(
                f,
                "user u{user} not found: the dataset has {num_users} users"
            ),
        }
    }
}

impl Error for ScoreError {}

fn extractor_config(fast: bool) -> ExtractorConfig {
    if fast {
        ExtractorConfig::fast()
    } else {
        ExtractorConfig::paper()
    }
}

fn train(data: &str, fast: bool, seed: Option<u64>, path: &str, out: &mut dyn Write) -> CmdResult {
    let dataset = load_dataset(data)?;
    let (clean, _) = dataset.preprocess();
    let ex_cfg = extractor_config(fast);
    let extractor = FeatureExtractor::fit(clean.threads(), clean.num_users(), &ex_cfg);
    // One random non-answerer per answer as negative/survival samples.
    let ts = sample_training_set(
        clean.threads(),
        &extractor,
        clean.num_users(),
        clean.horizon(),
        |t| t.answers.len(),
        &mut StdRng::seed_from_u64(seed.unwrap_or(0x7EA1)),
    );
    let (na, nv, nt) = ts.counts();
    writeln!(
        out,
        "training on {na} answer / {nv} vote samples, {nt} threads …"
    )?;
    let train_cfg = if fast {
        TrainConfig::fast()
    } else {
        TrainConfig::default()
    };
    let predictor = ResponsePredictor::train(&ts, &train_cfg);
    let saved = SavedModel {
        predictor,
        history_threads: clean.num_questions(),
        fast: Some(fast),
        lda_sampler: Some(GibbsSampler::Dense),
    };
    std::fs::write(path, serde_json::to_string(&saved)?)
        .map_err(|e| format!("cannot write model to `{path}`: {e}"))?;
    writeln!(out, "model written to {path}")?;
    Ok(())
}

/// Loads a model and refits the (deterministic) feature extractor on
/// the dataset it was trained against, with the recorded settings.
fn load_model_and_extractor(
    data: &str,
    model: &str,
) -> Result<(Dataset, FeatureExtractor, ResponsePredictor), Box<dyn Error>> {
    let json =
        std::fs::read_to_string(model).map_err(|e| format!("cannot read model `{model}`: {e}"))?;
    let saved: SavedModel =
        serde_json::from_str(&json).map_err(|e| format!("invalid model `{model}`: {e}"))?;
    let (Some(fast), Some(GibbsSampler::Dense)) = (saved.fast, saved.lda_sampler) else {
        return Err(ScoreError::MissingSettings {
            model: model.to_owned(),
        }
        .into());
    };
    let ex_cfg = extractor_config(fast);
    // The width follows from the topic count alone, so a mismatch is
    // refused before paying for the fit.
    let model_dim = saved.predictor.normalizer().dim();
    let extractor_dim = forumcast_features::feature_dim(ex_cfg.lda.num_topics);
    if model_dim != extractor_dim {
        return Err(ScoreError::DimensionMismatch {
            model: model.to_owned(),
            model_dim,
            extractor_dim,
        }
        .into());
    }
    let dataset = load_dataset(data)?;
    let (clean, _) = dataset.preprocess();
    let extractor = FeatureExtractor::fit(clean.threads(), clean.num_users(), &ex_cfg);
    Ok((clean, extractor, saved.predictor))
}

fn predict(data: &str, model: &str, question: u32, user: u32, out: &mut dyn Write) -> CmdResult {
    let (clean, extractor, predictor) = load_model_and_extractor(data, model)?;
    let num_users = clean.num_users();
    if user >= num_users {
        return Err(ScoreError::UnknownUser { user, num_users }.into());
    }
    let thread = clean
        .thread(QuestionId(question))
        .ok_or_else(|| format!("question q{question} not found"))?;
    let d_q = extractor.question_topics(thread);
    let window = (clean.horizon() - thread.asked_at()).max(0.5);
    let x = extractor.features(UserId(user), thread, &d_q);
    let (a, v, r) = predictor.predict(&x, window);
    writeln!(out, "u{user} on q{question}:")?;
    writeln!(out, "  â = {a:.4} (answer probability)")?;
    writeln!(out, "  v̂ = {v:+.2} (net votes)")?;
    writeln!(out, "  r̂ = {r:.2} h (response time)")?;
    if let Some(observed) = thread.response_time_of(UserId(user)) {
        writeln!(out, "  observed: answered after {observed:.2} h")?;
    }
    Ok(())
}

#[allow(clippy::too_many_arguments)]
fn route(
    data: &str,
    model: &str,
    question: u32,
    lambda: f64,
    epsilon: f64,
    capacity: f64,
    top: usize,
    out: &mut dyn Write,
) -> CmdResult {
    let (clean, extractor, predictor) = load_model_and_extractor(data, model)?;
    let thread = clean
        .thread(QuestionId(question))
        .ok_or_else(|| format!("question q{question} not found"))?;
    let d_q = extractor.question_topics(thread);
    let window = (clean.horizon() - thread.asked_at()).max(0.5);

    // Candidates: every user that has answered anything, except the
    // asker (a deployment would use its own eligibility source).
    let ctx = extractor.context();
    let candidates = score_candidates(
        &predictor,
        window,
        (0..clean.num_users())
            .map(UserId)
            .filter(|&u| u != thread.asker() && ctx.answers_provided(u) != 0.0)
            .map(|u| (u, extractor.features(u, thread, &d_q))),
    );
    let mut router = QuestionRouter::new(RouterConfig {
        epsilon,
        default_capacity: capacity,
        load_window: 24.0,
    });
    match router.recommend(thread.asked_at(), lambda, &candidates) {
        None => writeln!(out, "no eligible answerers at ε = {epsilon}")?,
        Some(rec) => {
            writeln!(
                out,
                "routing q{question} (λ = {lambda}, ε = {epsilon}; objective {:+.3}):",
                rec.objective()
            )?;
            for (rank, u) in rec.ranking().into_iter().take(top).enumerate() {
                let c = candidates
                    .iter()
                    .find(|c| c.user == u)
                    .ok_or_else(|| format!("router ranked {u}, which is not a candidate"))?;
                let p = rec
                    .users()
                    .iter()
                    .position(|&x| x == u)
                    .map(|i| rec.probabilities()[i])
                    .ok_or_else(|| format!("router ranked {u} without a probability"))?;
                writeln!(
                    out,
                    "  #{:<2} {u}: p = {p:.3}, â = {:.3}, v̂ = {:+.2}, r̂ = {:.2} h",
                    rank + 1,
                    c.answer_prob,
                    c.votes,
                    c.response_time
                )?;
            }
        }
    }
    Ok(())
}

/// Reads a `forumcast-bench` document from `path`.
fn load_bench_report(path: &str) -> Result<forumcast_obs::BenchReport, Box<dyn Error>> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read bench report `{path}`: {e}"))?;
    forumcast_obs::BenchReport::from_json(&json)
        .map_err(|e| format!("invalid bench report `{path}`: {e}").into())
}

/// `forumcast bench compare <baseline> <current>`: the perf-regression
/// gate. Prints the per-span ratio table; exits non-zero (naming each
/// offending span) when the current report regressed past tolerance.
fn bench_compare(
    baseline: &str,
    current: &str,
    tolerance: f64,
    p99_tolerance: f64,
    min_ms: f64,
    out: &mut dyn Write,
) -> CmdResult {
    let base = load_bench_report(baseline)?;
    let cur = load_bench_report(current)?;
    let opts = forumcast_obs::CompareOptions {
        tolerance,
        p99_tolerance,
        min_ms,
    };
    let cmp = forumcast_obs::compare_reports(&base, &cur, &opts);
    write!(out, "{}", cmp.render())?;
    if cmp.passed() {
        Ok(())
    } else {
        Err(format!(
            "bench compare: {} regression(s) against `{baseline}`",
            cmp.failures.len()
        )
        .into())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Command;
    use crate::experiments::Experiment;
    use forumcast_eval::EvalConfig;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("forumcast-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
    }

    /// `generate --scale small --seed <seed> [--topics K]`.
    fn generate_small(seed: u64, topics: Option<usize>, threads: usize, out: &str) -> Command {
        let mut config = SynthConfig::small().with_seed(seed);
        if let Some(k) = topics {
            config = config.with_topics(k);
        }
        Command::Generate {
            scale: "small".into(),
            config,
            threads,
            out: out.into(),
        }
    }

    fn run_cmd(cmd: Command) -> (i32, String) {
        let mut buf = Vec::new();
        let code = match execute(cmd, &mut buf) {
            Ok(()) => 0,
            Err(e) => {
                buf.extend_from_slice(format!("error: {e}").as_bytes());
                1
            }
        };
        (code, String::from_utf8(buf).unwrap())
    }

    #[test]
    fn generate_stats_train_predict_route_pipeline() {
        let data_path = tmp("pipeline.json");
        let model_path = tmp("pipeline-model.json");

        let (code, text) = run_cmd(generate_small(11, Some(4), 0, &data_path));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("questions"));

        let (code, text) = run_cmd(Command::Stats {
            data: data_path.clone(),
            gate: false,
        });
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("G_QA"));

        let (code, text) = run_cmd(Command::Train {
            data: data_path.clone(),
            fast: true,
            seed: Some(1),
            out: model_path.clone(),
        });
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("model written"));

        // Find an answered pair to predict for.
        let clean = {
            let json = std::fs::read_to_string(&data_path).unwrap();
            let (ds, _) = forumcast_data::io::from_json(&json).unwrap().preprocess();
            ds
        };
        let pair = clean.answered_pairs()[0];
        let (code, text) = run_cmd(Command::Predict {
            data: data_path.clone(),
            model: model_path.clone(),
            question: pair.question.0,
            user: pair.user.0,
        });
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("â ="), "{text}");
        assert!(text.contains("observed"), "{text}");

        let (code, text) = run_cmd(Command::Route {
            data: data_path,
            model: model_path,
            question: pair.question.0,
            lambda: 0.5,
            epsilon: 0.0,
            capacity: 1.0,
            top: 3,
        });
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("#1"), "{text}");
    }

    #[test]
    fn generate_is_thread_count_invariant_and_stats_gate_passes() {
        let one = tmp("gen-t1.json");
        let two = tmp("gen-t2.json");
        for (threads, path) in [(1, &one), (2, &two)] {
            let (code, text) = run_cmd(generate_small(5, None, threads, path));
            assert_eq!(code, 0, "{text}");
        }
        assert_eq!(
            std::fs::read(&one).unwrap(),
            std::fs::read(&two).unwrap(),
            "sharded generation must be bitwise-identical at any thread count"
        );

        // The synthetic forum is calibrated to the paper's Section III
        // shape statistics, so the gate must pass on its own output.
        let (code, text) = run_cmd(Command::Stats {
            data: one.clone(),
            gate: true,
        });
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("calibration vs paper Section III:"), "{text}");
        assert!(text.contains("calibration gate: ok"), "{text}");
        assert!(!text.contains("DRIFT"), "{text}");
        std::fs::remove_file(&one).unwrap();
        std::fs::remove_file(&two).unwrap();
    }

    /// `--resume` round-trips: a checkpointed run, and a rerun that
    /// restores every fold from its checkpoint, print the plain run's
    /// report.
    #[test]
    fn evaluate_resume_round_trips() {
        let evaluate = |resume: Option<String>| {
            let mut config = EvalConfig::quick();
            config.threads = 2;
            let (code, text) = run_cmd(Command::Experiment {
                experiment: Experiment::Evaluate,
                scale: "quick".into(),
                config,
                json: false,
                resume,
                run: RunFlags {
                    threads: 2,
                    ..RunFlags::default()
                },
            });
            assert_eq!(code, 0, "{text}");
            text.lines()
                .filter(|l| !l.starts_with("checkpointing"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        let ckpt = tmp("evaluate-resume.ckpt");
        let _ = std::fs::remove_file(&ckpt);
        let plain = evaluate(None);
        assert!(plain.contains("Table I"), "{plain}");
        assert_eq!(evaluate(Some(ckpt.clone())), plain);
        assert_eq!(evaluate(Some(ckpt.clone())), plain);
        std::fs::remove_file(&ckpt).unwrap();
    }

    #[test]
    fn predict_unknown_question_fails_cleanly() {
        let data_path = tmp("unknown-q.json");
        let model_path = tmp("unknown-q-model.json");
        run_cmd(generate_small(2, Some(2), 0, &data_path));
        run_cmd(Command::Train {
            data: data_path.clone(),
            fast: true,
            seed: None,
            out: model_path.clone(),
        });
        let (code, text) = run_cmd(Command::Predict {
            data: data_path,
            model: model_path,
            question: 999_999,
            user: 0,
        });
        assert_eq!(code, 1);
        assert!(text.contains("not found"));
    }

    /// A user id past `|U|` is refused with an error naming the user
    /// and the population size, instead of indexing out of bounds.
    #[test]
    fn predict_unknown_user_fails_cleanly() {
        let data_path = tmp("unknown-u.json");
        let model_path = tmp("unknown-u-model.json");
        run_cmd(generate_small(2, Some(2), 0, &data_path));
        run_cmd(Command::Train {
            data: data_path.clone(),
            fast: true,
            seed: None,
            out: model_path.clone(),
        });
        let mut out = Vec::new();
        let code = crate::run(
            [
                "predict",
                "--data",
                &data_path,
                "--model",
                &model_path,
                "--question",
                "2",
                "--user",
                "999999",
            ]
            .map(str::to_owned),
            &mut out,
        );
        let text = String::from_utf8(out).unwrap();
        assert_eq!(code, 1, "{text}");
        assert!(
            text.contains("user u999999 not found: the dataset has 200 users"),
            "{text}"
        );
    }

    /// A model whose recorded extractor settings do not reproduce its
    /// feature width, that records none, or that names a removed LDA
    /// sampler is refused with a typed error instead of panicking
    /// inside the normalizer or refitting with other settings.
    #[test]
    fn predict_refuses_a_model_with_wrong_or_missing_settings() {
        let data_path = tmp("settings.json");
        let model_path = tmp("settings-model.json");
        let (code, text) = run_cmd(generate_small(3, Some(2), 0, &data_path));
        assert_eq!(code, 0, "{text}");
        let (code, text) = run_cmd(Command::Train {
            data: data_path.clone(),
            fast: true,
            seed: None,
            out: model_path.clone(),
        });
        assert_eq!(code, 0, "{text}");
        let json = std::fs::read_to_string(&data_path).unwrap();
        let (clean, _) = forumcast_data::io::from_json(&json).unwrap().preprocess();
        let pair = clean.answered_pairs()[0];
        let predict = || {
            run_cmd(Command::Predict {
                data: data_path.clone(),
                model: model_path.clone(),
                question: pair.question.0,
                user: pair.user.0,
            })
        };
        let (code, text) = predict();
        assert_eq!(code, 0, "{text}");

        let json = std::fs::read_to_string(&model_path).unwrap();
        let mut saved: SavedModel = serde_json::from_str(&json).unwrap();
        assert_eq!(saved.fast, Some(true));
        assert_eq!(saved.lda_sampler, Some(GibbsSampler::Dense));

        // A model trained with the removed sparse sampler is refused by
        // both commands instead of being refit with the dense one.
        let sparse = json.replace(r#""lda_sampler":"Dense""#, r#""lda_sampler":"Sparse""#);
        assert_ne!(sparse, json);
        std::fs::write(&model_path, sparse).unwrap();
        let route = run_cmd(Command::Route {
            data: data_path.clone(),
            model: model_path.clone(),
            question: pair.question.0,
            lambda: 0.5,
            epsilon: 0.0,
            capacity: 1.0,
            top: 3,
        });
        for (code, text) in [predict(), route] {
            assert_eq!(code, 1, "{text}");
            assert!(
                text.contains(&format!("invalid model `{model_path}`")),
                "{text}"
            );
        }

        saved.fast = Some(false);
        std::fs::write(&model_path, serde_json::to_string(&saved).unwrap()).unwrap();
        let (code, text) = predict();
        assert_eq!(code, 1, "{text}");
        let fast_dim = forumcast_features::feature_dim(ExtractorConfig::fast().lda.num_topics);
        let paper_dim = forumcast_features::feature_dim(ExtractorConfig::paper().lda.num_topics);
        assert!(
            text.contains(&format!(
                "expects {fast_dim}-dimensional features but its recorded \
                 extractor settings produce {paper_dim}"
            )),
            "{text}"
        );

        // The pre-fix layout: no recorded settings at all.
        #[derive(serde::Serialize)]
        struct Unversioned {
            predictor: ResponsePredictor,
            history_threads: usize,
        }
        let legacy = Unversioned {
            predictor: saved.predictor,
            history_threads: saved.history_threads,
        };
        std::fs::write(&model_path, serde_json::to_string(&legacy).unwrap()).unwrap();
        let (code, text) = predict();
        assert_eq!(code, 1, "{text}");
        assert!(
            text.contains("does not record the extractor settings"),
            "{text}"
        );
        std::fs::remove_file(&data_path).unwrap();
        std::fs::remove_file(&model_path).unwrap();
    }

    #[test]
    fn bench_compare_gates_on_regression() {
        let base = tmp("bench-base.json");
        let cur = tmp("bench-cur.json");
        let doc = |wall: f64, total: f64| {
            format!(
                "{{\"schema\": \"forumcast-bench\", \"version\": 1, \"wall_ms\": {wall},\n\
                 \"spans\": [{{\"name\": \"evaluate\", \"calls\": 1, \"total_ms\": {total},\n\
                 \"self_ms\": 1.0, \"p50_ms\": 1.0, \"p90_ms\": 1.0, \"p99_ms\": {total},\n\
                 \"max_ms\": {total}}}], \"counters\": [], \"histograms\": []}}"
            )
        };
        let cmd = |b: &str, c: &str| Command::BenchCompare {
            baseline: b.into(),
            current: c.into(),
            tolerance: 1.5,
            p99_tolerance: 2.0,
            min_ms: 20.0,
        };
        std::fs::write(&base, doc(100.0, 90.0)).unwrap();
        std::fs::write(&cur, doc(105.0, 95.0)).unwrap();
        let (code, text) = run_cmd(cmd(&base, &cur));
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("bench compare: OK"), "{text}");

        std::fs::write(&cur, doc(400.0, 380.0)).unwrap();
        let (code, text) = run_cmd(cmd(&base, &cur));
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("`evaluate`"), "{text}");

        std::fs::write(&cur, "{\"schema\": \"other\", \"version\": 1}").unwrap();
        let (code, text) = run_cmd(cmd(&base, &cur));
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("forumcast-bench"), "{text}");
    }

    #[test]
    fn stats_on_missing_file_fails() {
        let (code, text) = run_cmd(Command::Stats {
            data: tmp("does-not-exist.json"),
            gate: false,
        });
        assert_eq!(code, 1);
        assert!(text.contains("error"));
    }

    #[test]
    fn help_prints_usage() {
        let (code, text) = run_cmd(Command::Help);
        assert_eq!(code, 0);
        assert!(text.contains("usage: forumcast"));
    }
}
