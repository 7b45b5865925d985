//! Hand-rolled argument parsing for the `forumcast` CLI (no external
//! dependencies; the allowed-crate list has no argument parser).
//!
//! Every command declares the options it reads, split into boolean
//! flags and value-taking keys, and [`Options::parse`] refuses
//! anything else. The run flags (`--threads`, `--faults`, `--trace`,
//! `--metrics`, `--bench-json`) are declared once, as [`RUN_FLAGS`]
//! and [`RUN_VALUES`], and read once, by [`Options::run_flags`]. A
//! scale word resolves to its preset while parsing, through the
//! preset family's `from_scale`.

use std::fmt;
use std::ops::RangeInclusive;
use std::path::PathBuf;

use forumcast_abtest::AbTestConfig;
use forumcast_eval::{EvalConfig, RunFlags};
use forumcast_features::LdaConfig;
use forumcast_resilience::FaultPlan;
use forumcast_synth::SynthConfig;

use crate::experiments::Experiment;

/// Usage text printed on parse errors and `--help`.
pub const USAGE: &str = "\
usage: forumcast <command> [options]

commands:
  generate   --scale <small|medium|paper> [--seed N] [--topics K]
             [--threads N] --out <file>
  stats      --data <file> [--gate]
  train      --data <file> [--fast] [--seed N] --out <model-file>
  predict    --data <file> --model <model-file> --question <id> --user <id>
  route      --data <file> --model <model-file> --question <id>
             [--lambda X] [--epsilon X] [--capacity X] [--top N]
  bench      compare <baseline.json> <current.json>
             [--tolerance X] [--p99-tolerance X] [--min-ms MS]
  help

experiments (each also takes [--scale <quick|standard|paper>], default
quick, and the run flags):
  evaluate   Table I          [--topics K] [--json] [--folds N]
                              [--repeats N] [--resume <checkpoint-file>]
  fig2       Figure 2 (SLN graph structure)
  fig3       Figure 3 (votes vs. response time)          [--json]
  fig4       Figure 4 (feature CDFs)                     [--json]
  fig5       Figure 5 (topic-count sensitivity)          [--json]
             [--folds N] [--repeats N] [--resume <checkpoint-file>]
  fig6       Figure 6 (leave-one-feature-out importance), as fig5
  fig7       Figure 7 (feature groups x history length), as fig5
  ablations  design-choice deltas         [--folds N] [--repeats N]
  recsys     Section V question-routing demo
  abtest     Section VI simulated A/B test [--lambda X]; its --scale
             takes <quick|standard>

run flags:   [--threads N] [--faults <spec>] [--trace <trace-file>]
             [--metrics] [--bench-json <report-file>]

`generate --threads` fans the sharded synthesizer out over N workers
(0 = auto); output is bitwise-identical at any thread count. `stats
--gate` additionally checks the dataset's shape statistics
(unanswered fraction, answers per answered question, posts per user,
response-delay quantiles) against the paper's Section III ranges and
exits non-zero on drift. `--folds` (at least 2) and `--repeats` (at
least 1) override the scale's cross-validation protocol, and `--json`
dumps the report as JSON after it. `--resume` saves completed
cross-validation folds to the given file and skips them on restart; a
fold interrupted part-way recomputes from its start, and the sweeps
of fig5-fig7 name each sub-run's file `<file>.<tag>.ckpt`. A
checkpoint is one JSON document guarded by a CRC-32; a damaged or
foreign file is moved aside to `<file>.corrupt` and its folds
recompute.
`--threads` sizes the cross-validation and training workers (0 =
auto); results are bitwise identical at any count.
`--faults` arms the deterministic fault injector (e.g. `fold-panic:1`;
without the flag, every experiment, `abtest`, `train` and `stats` read
the FORUMCAST_FAULTS env var, whose malformed spec fails the run).
`--trace` writes a Chrome trace-event JSON file of pipeline spans
(open in Perfetto; FORUMCAST_TRACE sets a default path, also honoured
by `train` and `stats`) and `--metrics` prints a per-span
wall/self-time summary.
On `evaluate`, `--topics` overrides the scale preset's LDA topic
count, at most 65536 (priors re-derive from K; iterations and seed
are kept).
`--bench-json` writes a machine-readable bench report (versioned
`forumcast-bench` schema: wall time, per-span totals and
p50/p90/p99/max latencies, counter throughputs). `bench compare`
diffs two such reports and exits non-zero when the current run
regressed past tolerance: `--tolerance` bounds the wall-time and
per-span total ratio (default 1.5), `--p99-tolerance` the per-span
p99 ratio (default 2.0), and `--min-ms` is the noise floor below
which baseline durations never gate (default 20).
Every command refuses an option it does not list above, an option
given twice, a value-taking option without its value, a flag
followed by a value, and an unknown scale word (exit status 2).
";

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a synthetic dataset and write native JSON.
    Generate {
        /// Dataset scale word, as given.
        scale: String,
        /// The scale's preset with `--seed` and `--topics` applied.
        config: SynthConfig,
        /// Worker threads for sharded generation (0 = auto); output
        /// is bitwise-identical at any count.
        threads: usize,
        /// Output path.
        out: String,
    },
    /// Print dataset + SLN statistics.
    Stats {
        /// Dataset path (native JSON).
        data: String,
        /// Gate the shape statistics against the paper's Section III
        /// ranges, exiting non-zero on drift.
        gate: bool,
    },
    /// Train the joint predictor and save it.
    Train {
        /// Dataset path.
        data: String,
        /// Use fast training settings.
        fast: bool,
        /// Sampling seed.
        seed: Option<u64>,
        /// Output model path.
        out: String,
    },
    /// Predict (â, v̂, r̂) for one user/question pair.
    Predict {
        /// Dataset path.
        data: String,
        /// Model path.
        model: String,
        /// Question id.
        question: u32,
        /// User id.
        user: u32,
    },
    /// Recommend answerers for a question.
    Route {
        /// Dataset path.
        data: String,
        /// Model path.
        model: String,
        /// Question id.
        question: u32,
        /// Quality/timing tradeoff λ.
        lambda: f64,
        /// Eligibility threshold ε.
        epsilon: f64,
        /// Per-user capacity.
        capacity: f64,
        /// How many recommendations to print.
        top: usize,
    },
    /// Run one paper experiment: Table I, a figure, the ablations or
    /// the routing demo.
    Experiment {
        /// Which experiment.
        experiment: Experiment,
        /// Protocol scale word, as given.
        scale: String,
        /// The scale's preset with `--threads`, `--topics`, `--folds`
        /// and `--repeats` applied.
        config: EvalConfig,
        /// Dump the report as JSON after the human-readable one.
        json: bool,
        /// Checkpoint file: completed folds are saved here and
        /// skipped when the run restarts with the same path.
        resume: Option<String>,
        /// The run flags the session starts from.
        run: RunFlags,
    },
    /// Diff two bench reports and gate on regressions.
    BenchCompare {
        /// Committed baseline report path.
        baseline: String,
        /// Freshly emitted report path.
        current: String,
        /// Max allowed current/baseline ratio for wall time and
        /// per-span totals.
        tolerance: f64,
        /// Max allowed ratio for per-span p99.
        p99_tolerance: f64,
        /// Baseline durations below this (ms) never gate.
        min_ms: f64,
    },
    /// Run the simulated A/B test.
    AbTest {
        /// The scale's preset with `--lambda` applied.
        config: AbTestConfig,
        /// The run flags the session starts from.
        run: RunFlags,
    },
    /// Print usage.
    Help,
}

/// Argument-parsing failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError(pub String);

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for ParseError {}

/// The boolean run flags, read by [`Options::run_flags`].
const RUN_FLAGS: &[&str] = &["metrics"];

/// The value-taking run flags, read by [`Options::run_flags`].
const RUN_VALUES: &[&str] = &["threads", "faults", "trace", "bench-json"];

/// Resolves a scale word through its preset family's `from_scale`; an
/// unknown word is a usage error listing the family's `scales`.
///
/// # Errors
///
/// Returns [`ParseError`] when `from_scale` names no preset.
fn preset<T>(
    scale: &str,
    scales: &[&str],
    from_scale: impl Fn(&str) -> Option<T>,
) -> Result<T, ParseError> {
    from_scale(scale)
        .ok_or_else(|| ParseError(format!("unknown scale `{scale}` ({})", scales.join("|"))))
}

/// Parses `argv` (without the program name) into a [`Command`].
///
/// # Errors
///
/// Returns [`ParseError`] on unknown commands/flags, missing required
/// options, or malformed values.
pub fn parse<I: IntoIterator<Item = String>>(argv: I) -> Result<Command, ParseError> {
    let mut args = argv.into_iter();
    let cmd = args
        .next()
        .ok_or_else(|| ParseError("missing command".into()))?;
    let rest: Vec<String> = args.collect();
    // `bench` takes an action word plus two positional report paths.
    if cmd == "bench" {
        match rest.first().map(String::as_str) {
            Some("compare") => {}
            Some(other) => {
                return Err(ParseError(format!(
                    "unknown bench action `{other}` (compare)"
                )))
            }
            None => return Err(ParseError("bench requires an action: compare".into())),
        }
        let is_path = |s: &&String| !s.starts_with("--");
        let baseline = rest
            .get(1)
            .filter(is_path)
            .ok_or_else(|| ParseError("bench compare requires <baseline> <current>".into()))?
            .clone();
        let current = rest
            .get(2)
            .filter(is_path)
            .ok_or_else(|| ParseError("bench compare requires <baseline> <current>".into()))?
            .clone();
        let defaults = forumcast_obs::CompareOptions::default();
        let opts = Options::parse(&rest[3..], &[], &["tolerance", "p99-tolerance", "min-ms"])?;
        return Ok(Command::BenchCompare {
            baseline,
            current,
            tolerance: opts.get_real_or("tolerance", defaults.tolerance, true)?,
            p99_tolerance: opts.get_real_or("p99-tolerance", defaults.p99_tolerance, true)?,
            min_ms: opts.get_real_or("min-ms", defaults.min_ms, true)?,
        });
    }
    // Options are parsed inside each arm, so an unknown command is
    // reported as such even when positional words follow it.
    match cmd.as_str() {
        "generate" => {
            let values = ["scale", "seed", "topics", "threads", "out"];
            let opts = Options::parse(&rest, &[], &values)?;
            let scale = opts.get("scale").unwrap_or("small");
            let mut config = preset(scale, SynthConfig::SCALES, SynthConfig::from_scale)?;
            if let Some(seed) = opts.get_parsed_opt("seed")? {
                config = config.with_seed(seed);
            }
            if let Some(k) = opts.get_count("topics", 1..=usize::MAX)? {
                config = config.with_topics(k);
            }
            Ok(Command::Generate {
                scale: scale.to_owned(),
                config,
                threads: opts.get_parsed_or("threads", 0)?,
                out: opts.require("out")?,
            })
        }
        "stats" => {
            let opts = Options::parse(&rest, &["gate"], &["data"])?;
            Ok(Command::Stats {
                data: opts.require("data")?,
                gate: opts.flag("gate"),
            })
        }
        "train" => {
            let opts = Options::parse(&rest, &["fast"], &["data", "seed", "out"])?;
            Ok(Command::Train {
                data: opts.require("data")?,
                fast: opts.flag("fast"),
                seed: opts.get_parsed_opt("seed")?,
                out: opts.require("out")?,
            })
        }
        "predict" => {
            let opts = Options::parse(&rest, &[], &["data", "model", "question", "user"])?;
            Ok(Command::Predict {
                data: opts.require("data")?,
                model: opts.require("model")?,
                question: opts.get_parsed("question")?,
                user: opts.get_parsed("user")?,
            })
        }
        "route" => {
            let values = [
                "data", "model", "question", "lambda", "epsilon", "capacity", "top",
            ];
            let opts = Options::parse(&rest, &[], &values)?;
            Ok(Command::Route {
                data: opts.require("data")?,
                model: opts.require("model")?,
                question: opts.get_parsed("question")?,
                lambda: opts.get_real_or("lambda", 0.5, false)?,
                epsilon: opts.get_real_or("epsilon", 0.3, false)?,
                capacity: opts.get_real_or("capacity", 1.0, true)?,
                top: opts.get_parsed_or("top", 5)?,
            })
        }
        "abtest" => {
            let values = [RUN_VALUES, &["scale", "lambda"]].concat();
            let opts = Options::parse(&rest, RUN_FLAGS, &values)?;
            let scale = opts.get("scale").unwrap_or("quick");
            let config = preset(scale, AbTestConfig::SCALES, AbTestConfig::from_scale)?;
            Ok(Command::AbTest {
                config: config.with_lambda(opts.get_real_or("lambda", 0.5, false)?),
                run: opts.run_flags()?,
            })
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => match Experiment::from_name(other) {
            Some(experiment) => parse_experiment(experiment, &rest),
            None => Err(ParseError(format!("unknown command `{other}`"))),
        },
    }
}

/// Parses the options of `experiment`: `--scale` (default `quick`),
/// the options it declares and the run flags.
fn parse_experiment(experiment: Experiment, rest: &[String]) -> Result<Command, ParseError> {
    let (flags, values) = experiment.options();
    let flags = [flags, RUN_FLAGS].concat();
    let values = [&["scale"], values, RUN_VALUES].concat();
    let opts = Options::parse(rest, &flags, &values)?;
    let scale = opts.get("scale").unwrap_or("quick");
    let mut config = preset(scale, EvalConfig::SCALES, EvalConfig::from_scale)?;
    let run = opts.run_flags()?;
    config.threads = run.threads;
    if let Some(k) = opts.get_count("topics", 1..=LdaConfig::MAX_TOPICS)? {
        config.extractor = config.extractor.with_topics(k);
    }
    if let Some(folds) = opts.get_count("folds", 2..=usize::MAX)? {
        config.folds = folds;
    }
    if let Some(repeats) = opts.get_count("repeats", 1..=usize::MAX)? {
        config.repeats = repeats;
    }
    Ok(Command::Experiment {
        experiment,
        scale: scale.to_owned(),
        config,
        json: opts.flag("json"),
        resume: opts.get("resume").map(str::to_owned),
        run,
    })
}

/// The `--key value` / `--flag` options of one command, parsed
/// against the keys it declares.
struct Options {
    pairs: Vec<(String, Option<String>)>,
}

impl Options {
    /// Parses `args` as the options of a command that reads the
    /// boolean `flags` and the value-taking `values`. A token after an
    /// option that does not start with `--` is that option's value.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] for a token that is not an option, a key
    /// the command does not declare, a key given twice, a
    /// value-taking key without a value, and a flag followed by one.
    fn parse(args: &[String], flags: &[&str], values: &[&str]) -> Result<Options, ParseError> {
        let mut pairs: Vec<(String, Option<String>)> = Vec::new();
        let mut args = args.iter().peekable();
        while let Some(arg) = args.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| ParseError(format!("expected an option, got `{arg}`")))?;
            let is_flag = flags.contains(&key);
            if !is_flag && !values.contains(&key) {
                return Err(ParseError(format!("unknown option --{key}")));
            }
            if pairs.iter().any(|(k, _)| k == key) {
                return Err(ParseError(format!("option --{key} given twice")));
            }
            match (is_flag, args.next_if(|v| !v.starts_with("--"))) {
                (true, Some(v)) => {
                    return Err(ParseError(format!(
                        "option --{key} takes no value, got `{v}`"
                    )))
                }
                (false, None) => return Err(ParseError(format!("missing value for --{key}"))),
                (_, value) => pairs.push((key.to_owned(), value.cloned())),
            }
        }
        Ok(Options { pairs })
    }

    /// The value given for `key`, if any.
    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    /// Whether the boolean flag `key` was given.
    fn flag(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    fn require(&self, key: &str) -> Result<String, ParseError> {
        self.get(key)
            .map(str::to_owned)
            .ok_or_else(|| ParseError(format!("missing required option --{key}")))
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, ParseError> {
        let raw = self.require(key)?;
        raw.parse()
            .map_err(|_| ParseError(format!("invalid value `{raw}` for --{key}")))
    }

    fn get_parsed_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ParseError> {
        Ok(self.get_parsed_opt(key)?.unwrap_or(default))
    }

    /// A real-valued option that must be finite, and non-negative
    /// when `non_negative` is set.
    fn get_real_or(&self, key: &str, default: f64, non_negative: bool) -> Result<f64, ParseError> {
        let v: f64 = self.get_parsed_or(key, default)?;
        if v.is_finite() && (v >= 0.0 || !non_negative) {
            return Ok(v);
        }
        let bound = if non_negative {
            "finite and non-negative"
        } else {
            "finite"
        };
        Err(ParseError(format!(
            "invalid value `{v}` for --{key}: must be {bound}"
        )))
    }

    fn get_parsed_opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, ParseError> {
        self.get(key)
            .map(|raw| {
                raw.parse()
                    .map_err(|_| ParseError(format!("invalid value `{raw}` for --{key}")))
            })
            .transpose()
    }

    /// The count given for `key`, if any, refused outside `range`.
    /// A `--topics K` needs K ≥ 1, and on `evaluate` also K ≤
    /// [`LdaConfig::MAX_TOPICS`], the most an LDA model holds.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] naming the key when the value is not a
    /// count or lies outside `range`.
    fn get_count(
        &self,
        key: &str,
        range: RangeInclusive<usize>,
    ) -> Result<Option<usize>, ParseError> {
        match self.get_parsed_opt(key)? {
            Some(n) if n < *range.start() => Err(ParseError(format!(
                "invalid value `{n}` for --{key}: must be at least {}",
                range.start()
            ))),
            Some(n) if n > *range.end() => Err(ParseError(format!(
                "invalid value `{n}` for --{key}: must be at most {}",
                range.end()
            ))),
            n => Ok(n),
        }
    }

    /// The run flags ([`RUN_FLAGS`] and [`RUN_VALUES`]) as the run
    /// session takes them. A malformed `--faults` spec is refused
    /// here, before anything runs.
    ///
    /// # Errors
    ///
    /// Returns [`ParseError`] for a `--threads` that is not a count or
    /// a `--faults` spec that does not parse.
    fn run_flags(&self) -> Result<RunFlags, ParseError> {
        let faults = self
            .get("faults")
            .map(|spec| {
                FaultPlan::parse(spec)
                    .map_err(|e| ParseError(format!("invalid value `{spec}` for --faults: {e}")))
            })
            .transpose()?;
        Ok(RunFlags {
            threads: self.get_parsed_or("threads", 0)?,
            faults,
            trace: self.get("trace").map(PathBuf::from),
            metrics: self.flag("metrics"),
            bench_json: self.get("bench-json").map(PathBuf::from),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    /// Runs a `line` that must fail before any command starts: returns
    /// the exit code and what went to stderr, checking that stdout
    /// stayed empty and that stderr ends with the usage text.
    fn run_usage_error(line: &str) -> (i32, String) {
        let (mut out, mut err) = (Vec::new(), Vec::new());
        let code = crate::run(argv(line), &mut out, &mut err);
        let text = String::from_utf8(err).unwrap();
        assert!(out.is_empty(), "{line}: stdout got {out:?}");
        assert!(text.ends_with(&format!("{USAGE}\n")), "{line}: {text}");
        (code, text)
    }

    /// `experiment` with the preset of `scale` at `threads` workers
    /// and no other option.
    fn experiment(experiment: Experiment, scale: &str, threads: usize) -> Command {
        let mut config = EvalConfig::from_scale(scale).unwrap();
        config.threads = threads;
        Command::Experiment {
            experiment,
            scale: scale.into(),
            config,
            json: false,
            resume: None,
            run: RunFlags {
                threads,
                ..RunFlags::default()
            },
        }
    }

    #[test]
    fn parses_generate() {
        let cmd = parse(argv("generate --scale medium --seed 9 --out x.json")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                scale: "medium".into(),
                config: SynthConfig::medium().with_seed(9),
                threads: 0,
                out: "x.json".into()
            }
        );
        match parse(argv("generate --scale paper --topics 3 --out x.json")).unwrap() {
            Command::Generate { config, .. } => {
                assert_eq!(config, SynthConfig::paper_scale().with_topics(3))
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn generate_defaults_scale() {
        let cmd = parse(argv("generate --out y.json")).unwrap();
        match cmd {
            Command::Generate { scale, config, .. } => {
                assert_eq!(scale, "small");
                assert_eq!(config, SynthConfig::small());
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn missing_required_option_errors() {
        let err = parse(argv("generate --scale small")).unwrap_err();
        assert!(err.to_string().contains("--out"));
    }

    #[test]
    fn unknown_option_rejected() {
        let err = parse(argv("stats --data d.json --bogus 1")).unwrap_err();
        assert!(err.to_string().contains("--bogus"));
    }

    #[test]
    fn unknown_command_rejected() {
        let err = parse(argv("frobnicate")).unwrap_err();
        assert!(err.to_string().contains("frobnicate"));
        for line in [
            "ingest --wal w",
            "wal verify --dir w",
            "ckpt verify --file x",
        ] {
            let err = parse(argv(line)).unwrap_err();
            assert!(err.to_string().starts_with("unknown command"), "{err}");
        }
    }

    /// Table I is `evaluate`; the other name it had is no command.
    #[test]
    fn table1_is_an_unknown_command() {
        for line in ["table1", "table1 --scale quick --json"] {
            let (code, text) = run_usage_error(line);
            assert_eq!(code, 2, "{line}: {text}");
            assert!(text.contains("unknown command `table1`"), "{line}: {text}");
        }
    }

    #[test]
    fn help_lists_every_experiment_and_its_options() {
        for experiment in Experiment::ALL {
            let name = experiment.name();
            assert!(USAGE.contains(&format!("\n  {name:<10} ")), "{name}");
            let (flags, values) = experiment.options();
            for option in flags.iter().chain(values) {
                assert!(
                    USAGE.contains(&format!("[--{option} "))
                        || USAGE.contains(&format!("[--{option}]")),
                    "{name} --{option}"
                );
            }
        }
        assert!(USAGE.contains("\n  abtest     "));
        for option in RUN_FLAGS.iter().chain(RUN_VALUES) {
            assert!(USAGE.contains(&format!("[--{option}")), "--{option}");
        }
    }

    #[test]
    fn experiments_accept_what_they_read() {
        for name in Experiment::ALL {
            for scale in EvalConfig::SCALES {
                let line = format!("{} --scale {scale}", name.name());
                assert_eq!(parse(argv(&line)).unwrap(), experiment(name, scale, 0));
            }
        }
        let cmd = parse(argv("evaluate --scale standard --resume /tmp/t1.json")).unwrap();
        let mut expected = experiment(Experiment::Evaluate, "standard", 0);
        if let Command::Experiment { resume, .. } = &mut expected {
            *resume = Some("/tmp/t1.json".into());
        }
        assert_eq!(cmd, expected);
        let mut expected = experiment(Experiment::Fig6, "quick", 1);
        if let Command::Experiment { json, .. } = &mut expected {
            *json = true;
        }
        assert_eq!(parse(argv("fig6 --json --threads 1")).unwrap(), expected);
        match parse(argv("ablations --folds 2 --repeats 3")).unwrap() {
            Command::Experiment { scale, config, .. } => {
                assert_eq!(scale, "quick");
                assert_eq!((config.folds, config.repeats), (2, 3));
            }
            other => panic!("{other:?}"),
        }
        match parse(argv("evaluate --json --folds 4 --repeats 2")).unwrap() {
            Command::Experiment { json, config, .. } => {
                assert!(json);
                assert_eq!((config.folds, config.repeats), (4, 2));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn abtest_accepts_the_run_flags() {
        let cmd = parse(argv(
            "abtest --lambda 2 --threads 2 --faults fold-panic:1 --trace t.json --metrics \
             --bench-json b.json",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::AbTest {
                config: AbTestConfig::quick().with_lambda(2.0),
                run: RunFlags {
                    threads: 2,
                    faults: Some(FaultPlan::parse("fold-panic:1").unwrap()),
                    trace: Some("t.json".into()),
                    metrics: true,
                    bench_json: Some("b.json".into()),
                },
            }
        );
        assert_eq!(
            parse(argv("abtest --scale standard")).unwrap(),
            Command::AbTest {
                config: AbTestConfig::standard().with_lambda(0.5),
                run: RunFlags::default(),
            }
        );
    }

    #[test]
    fn parses_route_with_defaults() {
        let cmd = parse(argv("route --data d.json --model m.json --question 4")).unwrap();
        match cmd {
            Command::Route {
                lambda,
                epsilon,
                capacity,
                top,
                question,
                ..
            } => {
                assert_eq!(question, 4);
                assert_eq!(lambda, 0.5);
                assert_eq!(epsilon, 0.3);
                assert_eq!(capacity, 1.0);
                assert_eq!(top, 5);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_evaluate_threads() {
        let evaluate = |scale, threads| experiment(Experiment::Evaluate, scale, threads);
        let cmd = parse(argv("evaluate --scale quick --threads 4")).unwrap();
        assert_eq!(cmd, evaluate("quick", 4));
        // Default: quick at 0 = auto.
        assert_eq!(parse(argv("evaluate")).unwrap(), evaluate("quick", 0));
        let cmd = parse(argv("evaluate --scale paper")).unwrap();
        assert_eq!(cmd, evaluate("paper", 0));
    }

    #[test]
    fn parses_evaluate_resume_and_faults() {
        let cmd = parse(argv("evaluate --resume cv.json --faults fold-panic:1")).unwrap();
        let mut expected = experiment(Experiment::Evaluate, "quick", 0);
        if let Command::Experiment { resume, run, .. } = &mut expected {
            *resume = Some("cv.json".into());
            run.faults = Some(FaultPlan::parse("fold-panic:1").unwrap());
        }
        assert_eq!(cmd, expected);
    }

    #[test]
    fn evaluate_rejects_the_removed_options() {
        // Spelled in two pieces so a search for the removed flags finds
        // no live use of them.
        let sampler = concat!("--lda", "-sampler");
        for (cmd, flag, value) in [
            (
                "evaluate --resume cv.ckpt",
                concat!("--snapshot", "-every"),
                "2",
            ),
            ("evaluate --resume cv.ckpt", concat!("--data", "-dir"), "2"),
            ("evaluate --resume cv.ckpt", sampler, "dense"),
            ("train --data d.json --out m.json", sampler, "dense"),
        ] {
            let (code, text) = run_usage_error(&format!("{cmd} {flag} {value}"));
            assert_eq!(code, 2, "{cmd} {flag}: {text}");
            assert!(
                text.contains(&format!("unknown option {flag}")),
                "{cmd} {flag}: {text}"
            );
        }
    }

    #[test]
    fn parses_evaluate_trace_metrics_and_bench_json() {
        let cmd = parse(argv(
            "evaluate --trace out.json --metrics --bench-json bench.json",
        ))
        .unwrap();
        match cmd {
            Command::Experiment { run, .. } => assert_eq!(
                run,
                RunFlags {
                    trace: Some("out.json".into()),
                    metrics: true,
                    bench_json: Some("bench.json".into()),
                    ..RunFlags::default()
                }
            ),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn parses_bench_compare() {
        let cmd = parse(argv("bench compare base.json cur.json")).unwrap();
        assert_eq!(
            cmd,
            Command::BenchCompare {
                baseline: "base.json".into(),
                current: "cur.json".into(),
                tolerance: 1.5,
                p99_tolerance: 2.0,
                min_ms: 20.0,
            }
        );
        let cmd = parse(argv(
            "bench compare a.json b.json --tolerance 1.2 --p99-tolerance 3 --min-ms 5",
        ))
        .unwrap();
        match cmd {
            Command::BenchCompare {
                tolerance,
                p99_tolerance,
                min_ms,
                ..
            } => {
                assert_eq!(tolerance, 1.2);
                assert_eq!(p99_tolerance, 3.0);
                assert_eq!(min_ms, 5.0);
            }
            other => panic!("{other:?}"),
        }
        let err = parse(argv("bench compare only-one.json")).unwrap_err();
        assert!(err.to_string().contains("<baseline> <current>"), "{err}");
        let err = parse(argv("bench diff a b")).unwrap_err();
        assert!(err.to_string().contains("diff"), "{err}");
        let err = parse(argv("bench")).unwrap_err();
        assert!(err.to_string().contains("compare"), "{err}");
    }

    #[test]
    fn parses_flags_without_values() {
        let cmd = parse(argv("train --data d.json --fast --out m.json")).unwrap();
        match cmd {
            Command::Train { fast, .. } => assert!(fast),
            other => panic!("{other:?}"),
        }
    }

    /// Out-of-domain knobs are usage errors (exit 2), caught before
    /// any data is read. A NaN `bench compare` tolerance would switch
    /// the regression gate off, an LDA model needs at least one
    /// topic, and a fault spec or scale word that does not parse would
    /// otherwise fail only once the run starts. An option missing its
    /// value, a flag given one and a repeated option would otherwise
    /// be read as something the caller did not write. Each experiment
    /// reads `--scale`, the options it declares and the run flags, and
    /// refuses everything else.
    #[test]
    fn out_of_domain_knobs_are_usage_errors() {
        let route = |extra: &str| format!("route --data d --model m --question 1 {extra}");
        let compare = |extra: &str| format!("bench compare a.json b.json {extra}");
        for (cmd, why) in [
            (route("--lambda nan"), "--lambda: must be finite"),
            (route("--lambda inf"), "--lambda: must be finite"),
            (route("--epsilon NaN"), "--epsilon: must be finite"),
            (route("--epsilon -inf"), "--epsilon: must be finite"),
            (route("--capacity inf"), "--capacity: must be finite"),
            (
                route("--capacity -1"),
                "--capacity: must be finite and non-negative",
            ),
            ("abtest --lambda nan".into(), "--lambda: must be finite"),
            ("abtest --lambda -inf".into(), "--lambda: must be finite"),
            (
                compare("--tolerance nan"),
                "--tolerance: must be finite and non-negative",
            ),
            (
                compare("--tolerance -1.5"),
                "--tolerance: must be finite and non-negative",
            ),
            (
                compare("--p99-tolerance NaN"),
                "--p99-tolerance: must be finite and non-negative",
            ),
            (
                compare("--p99-tolerance -2"),
                "--p99-tolerance: must be finite and non-negative",
            ),
            (
                compare("--min-ms nan"),
                "--min-ms: must be finite and non-negative",
            ),
            (
                compare("--min-ms -20"),
                "--min-ms: must be finite and non-negative",
            ),
            (
                "generate --topics 0 --out x.json".into(),
                "--topics: must be at least 1",
            ),
            ("evaluate --topics 0".into(), "--topics: must be at least 1"),
            (
                "evaluate --topics 65537".into(),
                "--topics: must be at most 65536",
            ),
            (
                "evaluate --faults nope:1".into(),
                "for --faults: invalid FORUMCAST_FAULTS spec: unknown fault site `nope`",
            ),
            (
                "evaluate --faults torn-write:1".into(),
                "unknown fault site `torn-write`",
            ),
            (
                "evaluate --faults bit-flip:1".into(),
                "unknown fault site `bit-flip`",
            ),
            (
                "evaluate --faults alloc-pressure:0".into(),
                "unknown fault site `alloc-pressure`",
            ),
            (
                "evaluate --scale nope".into(),
                "unknown scale `nope` (quick|standard|paper)",
            ),
            (
                "generate --scale nope --out x.json".into(),
                "unknown scale `nope` (small|medium|paper)",
            ),
            (
                "abtest --scale paper".into(),
                "unknown scale `paper` (quick|standard)",
            ),
            ("evaluate --resume".into(), "missing value for --resume"),
            (
                "evaluate --threads --scale quick".into(),
                "missing value for --threads",
            ),
            (
                "train --data d --fast yes --out m".into(),
                "option --fast takes no value, got `yes`",
            ),
            (
                "evaluate --threads 1 --threads 2".into(),
                "option --threads given twice",
            ),
            (
                "fig5 --scale nope".into(),
                "unknown scale `nope` (quick|standard|paper)",
            ),
            ("fig2 --resume x".into(), "unknown option --resume"),
            (
                "recsys --scale quick --json".into(),
                "unknown option --json",
            ),
            ("ablations --resume x".into(), "unknown option --resume"),
            ("fig3 --folds 3".into(), "unknown option --folds"),
            ("fig6 --topics 4".into(), "unknown option --topics"),
            (
                "evaluate --scale quick --threads".into(),
                "missing value for --threads",
            ),
            ("fig7 --resume".into(), "missing value for --resume"),
            (
                "evaluate --json yes".into(),
                "option --json takes no value, got `yes`",
            ),
            ("evaluate --json --json".into(), "option --json given twice"),
            ("evaluate --folds 1".into(), "--folds: must be at least 2"),
            ("fig5 --folds 1".into(), "--folds: must be at least 2"),
            (
                "evaluate --repeats 0".into(),
                "--repeats: must be at least 1",
            ),
            (
                "ablations --repeats 0".into(),
                "--repeats: must be at least 1",
            ),
            ("fig5 --faults nope:1".into(), "unknown fault site `nope`"),
            ("abtest --faults nope:1".into(), "unknown fault site `nope`"),
            ("abtest --json".into(), "unknown option --json"),
        ] {
            let (code, text) = run_usage_error(&cmd);
            assert_eq!(code, 2, "{cmd}: {text}");
            assert!(text.contains(why), "{cmd}: {text}");
        }
        match parse(argv(&route("--lambda -2 --capacity 0"))).unwrap() {
            Command::Route {
                lambda, capacity, ..
            } => assert_eq!((lambda, capacity), (-2.0, 0.0)),
            other => panic!("{other:?}"),
        }
        for k in [1, 65536] {
            match parse(argv(&format!("evaluate --topics {k}"))).unwrap() {
                Command::Experiment { config, .. } => {
                    assert_eq!(config.extractor.lda.num_topics, k)
                }
                other => panic!("{other:?}"),
            }
        }
    }

    #[test]
    fn malformed_numbers_error() {
        let err = parse(argv("predict --data d --model m --question abc --user 1")).unwrap_err();
        assert!(err.to_string().contains("abc"));
    }

    #[test]
    fn help_variants() {
        assert_eq!(parse(argv("help")).unwrap(), Command::Help);
        assert_eq!(parse(argv("--help")).unwrap(), Command::Help);
    }

    #[test]
    fn empty_argv_errors() {
        assert!(parse(Vec::<String>::new()).is_err());
    }
}
