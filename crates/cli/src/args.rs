//! Hand-rolled argument parsing for the `forumcast` CLI (no external
//! dependencies; the allowed-crate list has no argument parser).

use std::fmt;

use forumcast_resilience::FaultPlan;

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
  evaluate   [--scale <quick|standard|paper>] [--threads N] [--topics K]
             [--resume <checkpoint-file>]
             [--faults <spec>] [--trace <trace-file>] [--metrics]
             [--bench-json <report-file>]
  ckpt       <inspect|verify|repair> --file <checkpoint-file>
  bench      compare <baseline.json> <current.json>
             [--tolerance X] [--p99-tolerance X] [--min-ms MS]
  abtest     [--scale <quick|standard>] [--lambda X]
  help

`generate --threads` fans the sharded synthesizer out over N workers
(0 = auto); output is bitwise-identical at any thread count. `stats
--gate` additionally checks the dataset's shape statistics
(unanswered fraction, answers per answered question, posts per user,
response-delay quantiles) against the paper's Section III ranges and
exits non-zero on drift. `--resume` saves completed cross-validation
folds to the given file and skips them on restart; a fold
interrupted part-way recomputes from its start. Checkpoints are
written in the framed, CRC-checksummed binary store; a damaged or
foreign file is moved aside to `<file>.corrupt` and its folds
recompute. `ckpt inspect` prints a checkpoint's header and frame
layout, `ckpt verify` exits non-zero naming the first damaged frame,
and `ckpt repair` truncates the file to its last valid frame.
`--faults` arms the deterministic fault injector (e.g. `fold-panic:1`;
without the flag, `evaluate`, `train` and `stats` read the
FORUMCAST_FAULTS env var, whose malformed spec fails the run).
`--trace` writes a Chrome trace-event JSON file of pipeline spans
(open in Perfetto; FORUMCAST_TRACE sets a default path, also honoured
by `train` and `stats`) and `--metrics` prints a per-span
wall/self-time summary.
On `evaluate`, `--topics` overrides the scale preset's LDA topic
count (priors re-derive from K; iterations and seed are kept).
`--bench-json` writes a machine-readable bench report (versioned
`forumcast-bench` schema: wall time, per-span totals and
p50/p90/p99/max latencies, counter throughputs). `bench compare`
diffs two such reports and exits non-zero when the current run
regressed past tolerance: `--tolerance` bounds the wall-time and
per-span total ratio (default 1.5), `--p99-tolerance` the per-span
p99 ratio (default 2.0), and `--min-ms` is the noise floor below
which baseline durations never gate (default 20).
";

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Generate a synthetic dataset and write native JSON.
    Generate {
        /// Dataset scale preset.
        scale: String,
        /// RNG seed.
        seed: Option<u64>,
        /// Latent topic count.
        topics: Option<usize>,
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
    /// Run the Table-I evaluation.
    Evaluate {
        /// Protocol scale.
        scale: String,
        /// Worker threads (0 = auto: `FORUMCAST_THREADS` env var,
        /// else available parallelism).
        threads: usize,
        /// Latent topic count override (`None` keeps the scale
        /// preset's default).
        topics: Option<usize>,
        /// Checkpoint file: completed folds are saved here and
        /// skipped when the run restarts with the same path.
        resume: Option<String>,
        /// Fault plan (same spec grammar as `FORUMCAST_FAULTS`).
        faults: Option<FaultPlan>,
        /// Chrome trace-event JSON output path (`FORUMCAST_TRACE`
        /// supplies a default when the flag is absent).
        trace: Option<String>,
        /// Print the per-span timing summary after the run.
        metrics: bool,
        /// Machine-readable bench report output path (versioned
        /// `forumcast-bench` schema).
        bench_json: Option<String>,
    },
    /// Inspect, verify, or repair a checkpoint file.
    Ckpt {
        /// What to do with the file.
        action: CkptAction,
        /// The checkpoint file.
        file: String,
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
        /// Scale preset.
        scale: String,
        /// Router λ.
        lambda: f64,
    },
    /// Print usage.
    Help,
}

/// Sub-action of the `ckpt` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptAction {
    /// Print the header and frame layout.
    Inspect,
    /// Exit non-zero naming the first damaged frame, if any.
    Verify,
    /// Truncate the file to its last valid frame.
    Repair,
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
    // `ckpt` takes a positional action word before its options.
    if cmd == "ckpt" {
        let action = match rest.first().map(String::as_str) {
            Some("inspect") => CkptAction::Inspect,
            Some("verify") => CkptAction::Verify,
            Some("repair") => CkptAction::Repair,
            Some(other) => {
                return Err(ParseError(format!(
                    "unknown ckpt action `{other}` (inspect|verify|repair)"
                )))
            }
            None => {
                return Err(ParseError(
                    "ckpt requires an action: inspect|verify|repair".into(),
                ))
            }
        };
        let opts = Options::parse(&rest[1..])?;
        let file = opts.require("file")?;
        opts.reject_unknown(&["file"])?;
        return Ok(Command::Ckpt { action, file });
    }
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
        let opts = Options::parse(&rest[3..])?;
        let c = Command::BenchCompare {
            baseline,
            current,
            tolerance: opts.get_real_or("tolerance", defaults.tolerance, true)?,
            p99_tolerance: opts.get_real_or("p99-tolerance", defaults.p99_tolerance, true)?,
            min_ms: opts.get_real_or("min-ms", defaults.min_ms, true)?,
        };
        opts.reject_unknown(&["tolerance", "p99-tolerance", "min-ms"])?;
        return Ok(c);
    }
    // Options are parsed inside each arm, so an unknown command is
    // reported as such even when positional words follow it.
    let opts = Options::parse(&rest);
    match cmd.as_str() {
        "generate" => {
            let opts = opts?;
            let c = Command::Generate {
                scale: opts.get_or("scale", "small")?,
                seed: opts.get_parsed_opt("seed")?,
                topics: opts.get_topics()?,
                threads: opts.get_parsed_or("threads", 0)?,
                out: opts.require("out")?,
            };
            opts.reject_unknown(&["scale", "seed", "topics", "threads", "out"])?;
            Ok(c)
        }
        "stats" => {
            let opts = opts?;
            let c = Command::Stats {
                data: opts.require("data")?,
                gate: opts.flag("gate"),
            };
            opts.reject_unknown(&["data", "gate"])?;
            Ok(c)
        }
        "train" => {
            let opts = opts?;
            let c = Command::Train {
                data: opts.require("data")?,
                fast: opts.flag("fast"),
                seed: opts.get_parsed_opt("seed")?,
                out: opts.require("out")?,
            };
            opts.reject_unknown(&["data", "fast", "seed", "out"])?;
            Ok(c)
        }
        "predict" => {
            let opts = opts?;
            let c = Command::Predict {
                data: opts.require("data")?,
                model: opts.require("model")?,
                question: opts.get_parsed("question")?,
                user: opts.get_parsed("user")?,
            };
            opts.reject_unknown(&["data", "model", "question", "user"])?;
            Ok(c)
        }
        "route" => {
            let opts = opts?;
            let c = Command::Route {
                data: opts.require("data")?,
                model: opts.require("model")?,
                question: opts.get_parsed("question")?,
                lambda: opts.get_real_or("lambda", 0.5, false)?,
                epsilon: opts.get_real_or("epsilon", 0.3, false)?,
                capacity: opts.get_real_or("capacity", 1.0, true)?,
                top: opts.get_parsed_or("top", 5)?,
            };
            opts.reject_unknown(&[
                "data", "model", "question", "lambda", "epsilon", "capacity", "top",
            ])?;
            Ok(c)
        }
        "evaluate" => {
            let opts = opts?;
            let c = Command::Evaluate {
                scale: opts.get_or("scale", "quick")?,
                threads: opts.get_parsed_or("threads", 0)?,
                topics: opts.get_topics()?,
                resume: opts.get("resume").map(str::to_owned),
                faults: opts.get_faults()?,
                trace: opts.get("trace").map(str::to_owned),
                metrics: opts.flag("metrics"),
                bench_json: opts.get("bench-json").map(str::to_owned),
            };
            opts.reject_unknown(&[
                "scale",
                "threads",
                "topics",
                "resume",
                "faults",
                "trace",
                "metrics",
                "bench-json",
            ])?;
            Ok(c)
        }
        "abtest" => {
            let opts = opts?;
            let c = Command::AbTest {
                scale: opts.get_or("scale", "quick")?,
                lambda: opts.get_real_or("lambda", 0.5, false)?,
            };
            opts.reject_unknown(&["scale", "lambda"])?;
            Ok(c)
        }
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(ParseError(format!("unknown command `{other}`"))),
    }
}

/// Flat `--key value` / `--flag` option bag.
struct Options {
    pairs: Vec<(String, Option<String>)>,
}

impl Options {
    fn parse(args: &[String]) -> Result<Options, ParseError> {
        let mut pairs = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let arg = &args[i];
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| ParseError(format!("expected an option, got `{arg}`")))?;
            // A following token that is not an option is this option's
            // value; otherwise it is a boolean flag.
            let value = args.get(i + 1).filter(|v| !v.starts_with("--"));
            match value {
                Some(v) => {
                    pairs.push((key.to_owned(), Some(v.clone())));
                    i += 2;
                }
                None => {
                    pairs.push((key.to_owned(), None));
                    i += 1;
                }
            }
        }
        Ok(Options { pairs })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .and_then(|(_, v)| v.as_deref())
    }

    fn flag(&self, key: &str) -> bool {
        self.pairs.iter().any(|(k, _)| k == key)
    }

    fn require(&self, key: &str) -> Result<String, ParseError> {
        self.get(key)
            .map(str::to_owned)
            .ok_or_else(|| ParseError(format!("missing required option --{key}")))
    }

    fn get_or(&self, key: &str, default: &str) -> Result<String, ParseError> {
        Ok(self.get(key).unwrap_or(default).to_owned())
    }

    fn get_parsed<T: std::str::FromStr>(&self, key: &str) -> Result<T, ParseError> {
        let raw = self.require(key)?;
        raw.parse()
            .map_err(|_| ParseError(format!("invalid value `{raw}` for --{key}")))
    }

    fn get_parsed_or<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, ParseError> {
        match self.get(key) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| ParseError(format!("invalid value `{raw}` for --{key}"))),
        }
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
        match self.get(key) {
            None => Ok(None),
            Some(raw) => raw
                .parse()
                .map(Some)
                .map_err(|_| ParseError(format!("invalid value `{raw}` for --{key}"))),
        }
    }

    /// The optional `--topics K` override; K = 0 is refused, since an
    /// LDA model needs at least one topic.
    fn get_topics(&self) -> Result<Option<usize>, ParseError> {
        match self.get_parsed_opt("topics")? {
            Some(0) => Err(ParseError(
                "invalid value `0` for --topics: must be at least 1".into(),
            )),
            k => Ok(k),
        }
    }

    /// The optional `--faults` plan; a malformed spec is refused here,
    /// before anything runs.
    fn get_faults(&self) -> Result<Option<FaultPlan>, ParseError> {
        self.get("faults")
            .map(|spec| {
                FaultPlan::parse(spec)
                    .map_err(|e| ParseError(format!("invalid value `{spec}` for --faults: {e}")))
            })
            .transpose()
    }

    fn reject_unknown(&self, allowed: &[&str]) -> Result<(), ParseError> {
        for (k, _) in &self.pairs {
            if !allowed.contains(&k.as_str()) {
                return Err(ParseError(format!("unknown option --{k}")));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_owned).collect()
    }

    #[test]
    fn parses_generate() {
        let cmd = parse(argv("generate --scale medium --seed 9 --out x.json")).unwrap();
        assert_eq!(
            cmd,
            Command::Generate {
                scale: "medium".into(),
                seed: Some(9),
                topics: None,
                threads: 0,
                out: "x.json".into()
            }
        );
    }

    #[test]
    fn generate_defaults_scale() {
        let cmd = parse(argv("generate --out y.json")).unwrap();
        match cmd {
            Command::Generate { scale, seed, .. } => {
                assert_eq!(scale, "small");
                assert_eq!(seed, None);
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
        for line in ["ingest --wal w", "wal verify --dir w"] {
            let err = parse(argv(line)).unwrap_err();
            assert!(err.to_string().starts_with("unknown command"), "{err}");
        }
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
        let cmd = parse(argv("evaluate --scale quick --threads 4")).unwrap();
        assert_eq!(
            cmd,
            Command::Evaluate {
                scale: "quick".into(),
                threads: 4,
                topics: None,
                resume: None,
                faults: None,
                trace: None,
                metrics: false,
                bench_json: None,
            }
        );
        // Default: 0 = auto.
        let cmd = parse(argv("evaluate")).unwrap();
        assert_eq!(
            cmd,
            Command::Evaluate {
                scale: "quick".into(),
                threads: 0,
                topics: None,
                resume: None,
                faults: None,
                trace: None,
                metrics: false,
                bench_json: None,
            }
        );
    }

    #[test]
    fn parses_evaluate_resume_and_faults() {
        let cmd = parse(argv("evaluate --resume cv.json --faults fold-panic:1")).unwrap();
        assert_eq!(
            cmd,
            Command::Evaluate {
                scale: "quick".into(),
                threads: 0,
                topics: None,
                resume: Some("cv.json".into()),
                faults: Some(FaultPlan::parse("fold-panic:1").unwrap()),
                trace: None,
                metrics: false,
                bench_json: None,
            }
        );
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
            let mut out = Vec::new();
            let code = crate::run(argv(&format!("{cmd} {flag} {value}")), &mut out);
            let text = String::from_utf8(out).unwrap();
            assert_eq!(code, 2, "{cmd} {flag}: {text}");
            assert!(
                text.contains(&format!("unknown option {flag}")),
                "{cmd} {flag}: {text}"
            );
        }
    }

    #[test]
    fn parses_evaluate_trace_and_metrics() {
        let cmd = parse(argv("evaluate --trace out.json --metrics")).unwrap();
        assert_eq!(
            cmd,
            Command::Evaluate {
                scale: "quick".into(),
                threads: 0,
                topics: None,
                resume: None,
                faults: None,
                trace: Some("out.json".into()),
                metrics: true,
                bench_json: None,
            }
        );
    }

    #[test]
    fn parses_evaluate_bench_json() {
        let cmd = parse(argv("evaluate --bench-json bench.json")).unwrap();
        match cmd {
            Command::Evaluate { bench_json, .. } => {
                assert_eq!(bench_json.as_deref(), Some("bench.json"));
            }
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
    /// topic, and a fault spec that does not parse would otherwise
    /// fail only once the run starts.
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
                "evaluate --faults nope:1".into(),
                "for --faults: invalid FORUMCAST_FAULTS spec: unknown fault site `nope`",
            ),
        ] {
            let mut out = Vec::new();
            let code = crate::run(argv(&cmd), &mut out);
            let text = String::from_utf8(out).unwrap();
            assert_eq!(code, 2, "{cmd}: {text}");
            assert!(text.contains(why), "{cmd}: {text}");
        }
        match parse(argv(&route("--lambda -2 --capacity 0"))).unwrap() {
            Command::Route {
                lambda, capacity, ..
            } => assert_eq!((lambda, capacity), (-2.0, 0.0)),
            other => panic!("{other:?}"),
        }
        match parse(argv("evaluate --topics 1")).unwrap() {
            Command::Evaluate { topics, .. } => assert_eq!(topics, Some(1)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn malformed_numbers_error() {
        let err = parse(argv("predict --data d --model m --question abc --user 1")).unwrap_err();
        assert!(err.to_string().contains("abc"));
    }

    #[test]
    fn parses_ckpt_subcommand() {
        let cmd = parse(argv("ckpt verify --file cv.ckpt")).unwrap();
        assert_eq!(
            cmd,
            Command::Ckpt {
                action: CkptAction::Verify,
                file: "cv.ckpt".into()
            }
        );
        for (word, action) in [
            ("inspect", CkptAction::Inspect),
            ("repair", CkptAction::Repair),
        ] {
            match parse(argv(&format!("ckpt {word} --file x"))).unwrap() {
                Command::Ckpt { action: a, .. } => assert_eq!(a, action),
                other => panic!("{other:?}"),
            }
        }
        let err = parse(argv("ckpt --file x")).unwrap_err();
        assert!(err.to_string().contains("action"), "{err}");
        let err = parse(argv("ckpt defrag --file x")).unwrap_err();
        assert!(err.to_string().contains("defrag"), "{err}");
        let err = parse(argv("ckpt verify")).unwrap_err();
        assert!(err.to_string().contains("--file"), "{err}");
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
