//! Implementations of the CLI commands.

use std::error::Error;
use std::io::Write;
use std::path::Path;

use rand::rngs::StdRng;
use rand::SeedableRng;

use forumcast_abtest::AbTestConfig;
use forumcast_core::{sample_training_set, ResponsePredictor, TrainConfig};
use forumcast_data::{io as data_io, Dataset, QuestionId, UserId};
use forumcast_eval::{experiments::table1, EvalConfig};
use forumcast_features::{ExtractorConfig, FeatureExtractor, LdaSampler};
use forumcast_graph::{dense_graph, qa_graph, GraphStats};
use forumcast_recsys::{score_candidates, QuestionRouter, RouterConfig};
use forumcast_resilience::FaultPlan;
use forumcast_synth::SynthConfig;

use crate::args::{CkptAction, Command, USAGE};

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
            seed,
            topics,
            threads,
            out: path,
        } => generate(&scale, seed, topics, threads, &path, out),
        Command::Stats { data, gate } => {
            with_env_trace("stats", out, |out| stats(&data, gate, out))
        }
        Command::Train {
            data,
            fast,
            seed,
            lda_sampler,
            out: path,
        } => with_env_trace("train", out, |out| {
            train(&data, fast, seed, lda_sampler, &path, out)
        }),
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
        Command::Evaluate {
            scale,
            threads,
            lda_sampler,
            topics,
            resume,
            faults,
            trace,
            metrics,
            bench_json,
        } => evaluate(
            &scale,
            threads,
            lda_sampler,
            topics,
            resume.as_deref(),
            faults.as_deref(),
            trace.as_deref(),
            metrics,
            bench_json.as_deref(),
            out,
        ),
        Command::Ckpt { action, file } => ckpt(action, &file, out),
        Command::BenchCompare {
            baseline,
            current,
            tolerance,
            p99_tolerance,
            min_ms,
        } => bench_compare(&baseline, &current, tolerance, p99_tolerance, min_ms, out),
        Command::AbTest { scale, lambda } => abtest(&scale, lambda, out),
    }
}

/// Runs `body` under a root span, honouring the `FORUMCAST_TRACE` env
/// var: when set, the trace collector is armed and the collected
/// pipeline spans are written there afterwards. This is how commands
/// without their own `--trace` flag (`train`, `stats`) get tracing;
/// without the env var the probes stay no-ops.
fn with_env_trace(
    root: &'static str,
    out: &mut dyn Write,
    body: impl FnOnce(&mut dyn Write) -> CmdResult,
) -> CmdResult {
    let trace_path = std::env::var(forumcast_obs::TRACE_ENV).ok();
    if trace_path.is_some() {
        forumcast_obs::arm_for_process();
    }
    let result = {
        let _root = forumcast_obs::span(root);
        body(out)
    };
    if let Some(path) = trace_path {
        if result.is_ok() {
            let log = forumcast_obs::drain().ok_or("trace collector was disarmed mid-run")?;
            std::fs::write(&path, log.to_chrome_json())
                .map_err(|e| format!("cannot write trace to `{path}`: {e}"))?;
            writeln!(out, "trace written to {path}")?;
        }
    }
    result
}

fn synth_config(scale: &str) -> Result<SynthConfig, String> {
    match scale {
        "small" => Ok(SynthConfig::small()),
        "medium" => Ok(SynthConfig::medium()),
        "paper" => Ok(SynthConfig::paper_scale()),
        other => Err(format!("unknown scale `{other}` (small|medium|paper)")),
    }
}

fn generate(
    scale: &str,
    seed: Option<u64>,
    topics: Option<usize>,
    threads: usize,
    path: &str,
    out: &mut dyn Write,
) -> CmdResult {
    let mut cfg = synth_config(scale)?;
    if let Some(s) = seed {
        cfg = cfg.with_seed(s);
    }
    if let Some(k) = topics {
        cfg = cfg.with_topics(k);
    }
    let dataset = forumcast_synth::generate_with_threads(&cfg, threads);
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
    lda_sampler: Option<LdaSampler>,
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

fn extractor_config(fast: bool, lda_sampler: LdaSampler) -> ExtractorConfig {
    let mut cfg = if fast {
        ExtractorConfig::fast()
    } else {
        ExtractorConfig::paper()
    };
    cfg.lda.sampler = lda_sampler;
    cfg
}

fn train(
    data: &str,
    fast: bool,
    seed: Option<u64>,
    lda_sampler: LdaSampler,
    path: &str,
    out: &mut dyn Write,
) -> CmdResult {
    // Training uses `FORUMCAST_THREADS` workers, else every core; the
    // model is bitwise identical at any count.
    forumcast_ml::set_train_threads(0);
    let dataset = load_dataset(data)?;
    let (clean, _) = dataset.preprocess();
    let ex_cfg = extractor_config(fast, lda_sampler);
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
        lda_sampler: Some(lda_sampler),
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
    let (Some(fast), Some(lda_sampler)) = (saved.fast, saved.lda_sampler) else {
        return Err(ScoreError::MissingSettings {
            model: model.to_owned(),
        }
        .into());
    };
    let ex_cfg = extractor_config(fast, lda_sampler);
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

#[allow(clippy::too_many_arguments)]
fn evaluate(
    scale: &str,
    threads: usize,
    lda_sampler: LdaSampler,
    topics: Option<usize>,
    resume: Option<&str>,
    faults: Option<&str>,
    trace: Option<&str>,
    metrics: bool,
    bench_json: Option<&str>,
    out: &mut dyn Write,
) -> CmdResult {
    let mut cfg = match scale {
        "quick" => EvalConfig::quick(),
        "standard" => EvalConfig::standard(),
        "paper" => EvalConfig::paper(),
        other => return Err(format!("unknown scale `{other}`").into()),
    };
    cfg.threads = threads;
    // The same flag drives mini-batch gradient accumulation; the
    // fixed-order reduction keeps results bitwise identical at any
    // thread count, so this only affects wall time.
    forumcast_ml::set_train_threads(threads);
    cfg.extractor.lda.sampler = lda_sampler;
    if let Some(k) = topics {
        cfg.extractor = cfg.extractor.with_topics(k);
    }
    // --faults wins over the FORUMCAST_FAULTS env var.
    let plan = match faults {
        Some(spec) => Some(
            FaultPlan::parse(spec)
                .map_err(|e| format!("invalid value `{spec}` for --faults: {e}"))?,
        ),
        None => FaultPlan::from_env()
            .map_err(|e| format!("invalid {}: {e}", forumcast_resilience::FAULTS_ENV))?,
    };
    if let Some(plan) = plan {
        if !plan.is_empty() {
            plan.arm_for_process();
        }
    }
    // --trace wins over the FORUMCAST_TRACE env var. Either flag (or
    // the env var) arms the collector; without them the probes stay
    // no-ops and the output is byte-identical to an uninstrumented run.
    let env_trace = std::env::var(forumcast_obs::TRACE_ENV).ok();
    let trace_path = trace.map(str::to_owned).or(env_trace);
    let collect = trace_path.is_some() || metrics || bench_json.is_some();
    if collect {
        forumcast_obs::arm_for_process();
    }
    writeln!(
        out,
        "running Table-I evaluation at scale `{scale}` ({} worker threads) …",
        cfg.worker_threads()
    )?;
    if let Some(path) = resume {
        writeln!(out, "checkpointing completed folds to `{path}`")?;
    }
    let report = {
        let _root = forumcast_obs::span("evaluate");
        table1::run_with(&cfg, resume.map(Path::new))
            .map_err(|e| format!("evaluation failed: {e}"))?
    };
    writeln!(out, "{report}")?;
    if collect {
        let log = forumcast_obs::drain().ok_or("trace collector was disarmed mid-run")?;
        if let Some(path) = &trace_path {
            std::fs::write(path, log.to_chrome_json())
                .map_err(|e| format!("cannot write trace to `{path}`: {e}"))?;
            writeln!(out, "trace written to {path}")?;
        }
        if let Some(path) = bench_json {
            std::fs::write(path, log.to_bench_json())
                .map_err(|e| format!("cannot write bench report to `{path}`: {e}"))?;
            writeln!(out, "bench report written to {path}")?;
        }
        if metrics {
            writeln!(out, "{}", log.summary().render())?;
        }
    }
    Ok(())
}

/// Reads `key` out of a parsed JSON object.
fn bench_field<'a>(v: &'a serde::Value, key: &str) -> Option<&'a serde::Value> {
    match v {
        serde::Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

/// Any JSON number as `f64` (bench reports mix integers and floats).
fn bench_f64(v: &serde::Value) -> Option<f64> {
    match v {
        serde::Value::F64(f) => Some(*f),
        serde::Value::I64(i) => Some(*i as f64),
        serde::Value::U64(u) => Some(*u as f64),
        _ => None,
    }
}

/// Parses a `forumcast-bench` document, rejecting wrong schemas and
/// versions up front so the gate never silently compares garbage.
fn load_bench_report(path: &str) -> Result<forumcast_obs::BenchReport, Box<dyn Error>> {
    let json = std::fs::read_to_string(path)
        .map_err(|e| format!("cannot read bench report `{path}`: {e}"))?;
    let v: serde::Value = serde_json::from_str(&json)
        .map_err(|e| format!("invalid JSON in bench report `{path}`: {e}"))?;
    let schema = bench_field(&v, "schema").and_then(|s| match s {
        serde::Value::Str(s) => Some(s.as_str()),
        _ => None,
    });
    if schema != Some(forumcast_obs::BENCH_SCHEMA) {
        return Err(format!(
            "`{path}` is not a `{}` document (schema: {})",
            forumcast_obs::BENCH_SCHEMA,
            schema.unwrap_or("missing")
        )
        .into());
    }
    let version = bench_field(&v, "version")
        .and_then(bench_f64)
        .ok_or_else(|| format!("`{path}` has no schema version"))? as u64;
    if version != forumcast_obs::BENCH_VERSION {
        return Err(format!(
            "`{path}` is bench schema version {version}; this build reads version {}",
            forumcast_obs::BENCH_VERSION
        )
        .into());
    }
    let wall_ms = bench_field(&v, "wall_ms")
        .and_then(bench_f64)
        .ok_or_else(|| format!("`{path}` has no wall_ms"))?;
    let mut spans = Vec::new();
    if let Some(serde::Value::Array(items)) = bench_field(&v, "spans") {
        for item in items {
            let name = match bench_field(item, "name") {
                Some(serde::Value::Str(s)) => s.clone(),
                _ => return Err(format!("`{path}` has a span without a name").into()),
            };
            let num = |key: &str| {
                bench_field(item, key)
                    .and_then(bench_f64)
                    .ok_or_else(|| format!("`{path}` span `{name}` is missing {key}"))
            };
            spans.push(forumcast_obs::BenchSpanStat {
                calls: num("calls")? as u64,
                total_ms: num("total_ms")?,
                p99_ms: num("p99_ms")?,
                name,
            });
        }
    }
    Ok(forumcast_obs::BenchReport { wall_ms, spans })
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

/// `forumcast ckpt <inspect|verify|repair> --file <path>`: offline
/// tooling over the framed binary checkpoint store. All three run on
/// a pure, non-mutating scan of the file; only `repair` writes (it
/// truncates to the last valid frame via the same atomic tmp+rename+
/// fsync protocol the checkpoints themselves use).
fn ckpt(action: CkptAction, file: &str, out: &mut dyn Write) -> CmdResult {
    use forumcast_store::{scan, FrameIssue, SaveOptions, StoreFile};
    let path = Path::new(file);
    let bytes = std::fs::read(path).map_err(|e| format!("cannot read checkpoint `{file}`: {e}"))?;
    let report = scan(&bytes, path).map_err(|e| e.to_string())?;
    let issue_text = report.issue.as_ref().map(|issue| match issue {
        FrameIssue::Torn { offset } => {
            format!("torn frame at byte {offset} (incomplete tail write)")
        }
        FrameIssue::CrcMismatch { frame, offset } => {
            format!("CRC mismatch in frame {frame} at byte {offset}")
        }
    });
    match action {
        CkptAction::Inspect => {
            writeln!(out, "{file}:")?;
            writeln!(out, "  format version: {}", report.version)?;
            writeln!(out, "  fingerprint:    {}", report.fingerprint)?;
            writeln!(
                out,
                "  frames:         {} valid ({} of {} bytes)",
                report.frames.len(),
                report.valid_end,
                report.file_len
            )?;
            for (i, frame) in report.frames.iter().enumerate() {
                writeln!(out, "    frame {i}: {} payload bytes", frame.len())?;
            }
            match issue_text {
                Some(text) => writeln!(out, "  issue:          {text}")?,
                None => writeln!(out, "  issue:          none")?,
            }
            Ok(())
        }
        CkptAction::Verify => match issue_text {
            Some(text) => Err(format!(
                "checkpoint {file}: {text}; {} valid frame(s) precede the damage \
                 (`forumcast ckpt repair --file {file}` truncates to them)",
                report.frames.len()
            )
            .into()),
            None => {
                writeln!(
                    out,
                    "ok: {} frames, {} bytes, fingerprint `{}`",
                    report.frames.len(),
                    report.file_len,
                    report.fingerprint
                )?;
                Ok(())
            }
        },
        CkptAction::Repair => match issue_text {
            None => {
                writeln!(out, "nothing to repair: all frames verify")?;
                Ok(())
            }
            Some(text) => {
                let dropped = report.file_len - report.valid_end;
                let mut repaired =
                    StoreFile::new(report.fingerprint.clone(), report.frames.clone());
                repaired.version = report.version;
                repaired
                    .save(path, &SaveOptions::default())
                    .map_err(|e| format!("cannot write repaired checkpoint: {e}"))?;
                writeln!(
                    out,
                    "repaired {file}: dropped {dropped} damaged byte(s) ({text}); \
                     {} valid frame(s) kept — the next resume recomputes the lost tail",
                    report.frames.len()
                )?;
                Ok(())
            }
        },
    }
}

fn abtest(scale: &str, lambda: f64, out: &mut dyn Write) -> CmdResult {
    let cfg = match scale {
        "quick" => AbTestConfig::quick(),
        "standard" => AbTestConfig::standard(),
        other => return Err(format!("unknown scale `{other}`").into()),
    }
    .with_lambda(lambda);
    let report = forumcast_abtest::run(&cfg);
    writeln!(out, "{report}")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::args::Command;

    fn tmp(name: &str) -> String {
        let dir = std::env::temp_dir().join("forumcast-cli-tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name).to_string_lossy().into_owned()
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

        let (code, text) = run_cmd(Command::Generate {
            scale: "small".into(),
            seed: Some(11),
            topics: Some(4),
            threads: 0,
            out: data_path.clone(),
        });
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
            lda_sampler: LdaSampler::Sparse,
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
            let (code, text) = run_cmd(Command::Generate {
                scale: "small".into(),
                seed: Some(5),
                topics: None,
                threads,
                out: path.clone(),
            });
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
            let (code, text) = run_cmd(Command::Evaluate {
                scale: "quick".into(),
                threads: 2,
                lda_sampler: LdaSampler::Dense,
                topics: None,
                resume,
                faults: None,
                trace: None,
                metrics: false,
                bench_json: None,
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
        run_cmd(Command::Generate {
            scale: "small".into(),
            seed: Some(2),
            topics: Some(2),
            threads: 0,
            out: data_path.clone(),
        });
        run_cmd(Command::Train {
            data: data_path.clone(),
            fast: true,
            seed: None,
            lda_sampler: LdaSampler::Dense,
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
        run_cmd(Command::Generate {
            scale: "small".into(),
            seed: Some(2),
            topics: Some(2),
            threads: 0,
            out: data_path.clone(),
        });
        run_cmd(Command::Train {
            data: data_path.clone(),
            fast: true,
            seed: None,
            lda_sampler: LdaSampler::Dense,
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
    /// feature width, or that records none, is refused with a typed
    /// error instead of panicking inside the normalizer.
    #[test]
    fn predict_refuses_a_model_with_wrong_or_missing_settings() {
        let data_path = tmp("settings.json");
        let model_path = tmp("settings-model.json");
        let (code, text) = run_cmd(Command::Generate {
            scale: "small".into(),
            seed: Some(3),
            topics: Some(2),
            threads: 0,
            out: data_path.clone(),
        });
        assert_eq!(code, 0, "{text}");
        let (code, text) = run_cmd(Command::Train {
            data: data_path.clone(),
            fast: true,
            seed: None,
            lda_sampler: LdaSampler::Dense,
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
        assert_eq!(saved.lda_sampler, Some(LdaSampler::Dense));
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
    fn ckpt_inspect_verify_repair_roundtrip() {
        use forumcast_store::{SaveOptions, StoreFile};
        let file = tmp("ckpt-tool.ckpt");
        let path = std::path::Path::new(&file);
        StoreFile::new("cli-test v1", vec![vec![1, 2, 3], vec![4, 5], vec![6]])
            .save(path, &SaveOptions::default())
            .unwrap();

        let (code, text) = run_cmd(Command::Ckpt {
            action: CkptAction::Inspect,
            file: file.clone(),
        });
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("cli-test v1"), "{text}");
        assert!(text.contains("frame 2"), "{text}");

        let (code, text) = run_cmd(Command::Ckpt {
            action: CkptAction::Verify,
            file: file.clone(),
        });
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("ok: 3 frames"), "{text}");

        // Flip a bit in the last frame's CRC: verify must fail naming
        // the frame, and repair must truncate to the 2 intact frames.
        let mut bytes = std::fs::read(path).unwrap();
        *bytes.last_mut().unwrap() ^= 0x01;
        std::fs::write(path, &bytes).unwrap();
        let (code, text) = run_cmd(Command::Ckpt {
            action: CkptAction::Verify,
            file: file.clone(),
        });
        assert_eq!(code, 1, "{text}");
        assert!(text.contains("frame 2"), "{text}");

        let (code, text) = run_cmd(Command::Ckpt {
            action: CkptAction::Repair,
            file: file.clone(),
        });
        assert_eq!(code, 0, "{text}");
        assert!(text.contains("2 valid frame(s)"), "{text}");
        let (code, text) = run_cmd(Command::Ckpt {
            action: CkptAction::Verify,
            file: file.clone(),
        });
        assert_eq!(code, 0, "repaired file must verify clean: {text}");
        assert!(text.contains("ok: 2 frames"), "{text}");
        std::fs::remove_file(path).unwrap();
    }

    #[test]
    fn ckpt_verify_rejects_non_store_files() {
        let file = tmp("ckpt-tool.json");
        std::fs::write(&file, "{\"meta\":\"legacy\"}").unwrap();
        let (code, text) = run_cmd(Command::Ckpt {
            action: CkptAction::Verify,
            file: file.clone(),
        });
        assert_eq!(code, 1);
        assert!(text.contains("is not a binary store (bad magic)"), "{text}");
        std::fs::remove_file(&file).unwrap();
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
