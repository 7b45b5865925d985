//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Every binary takes an optional leading scale word, then the
//! options its `main` reads, then the run flags:
//!
//! ```text
//! cargo run -p forumcast-bench --release --bin table1 -- [quick|standard|paper] [--json] ...
//! ```
//!
//! * `quick` — small synthetic dataset, seconds;
//! * `standard` (default) — medium dataset, one repeat of 5-fold CV;
//! * `paper` — medium dataset with the paper's 5 × 5-fold protocol.
//!
//! Each binary's [`BinSpec`] declares what it reads, and its usage
//! line ([`BinSpec::usage`]) is derived from that:
//!
//! * `--json` (`table1`, `fig3`–`fig7`) additionally dumps the
//!   machine-readable report to stdout;
//! * `--folds N` (at least 2) and `--repeats N` (at least 1) override
//!   the CV protocol of the binaries that run it (`table1`, `fig5`,
//!   `fig6`, `fig7`, `ablations`);
//! * `--resume <path>` (`table1`, `fig5`, `fig6`, `fig7`) checkpoints
//!   completed CV folds to `<path>` (plus per-sub-run suffixes for the
//!   sweep figures) and skips them when the run is restarted with the
//!   same path; a fold interrupted part-way recomputes from its start;
//! * `abtest` takes the A/B test's scale words, `quick|standard`.
//!
//! Everything else is refused as a usage error (exit status 2): an
//! unknown scale word or option, an option given twice, an option
//! missing its value, and a flag given one. [`parse`] is
//! `forumcast`'s own option grammar ([`forumcast_cli::args::Options`])
//! after the scale word.
//!
//! `--threads`, `--faults`, `--trace`, `--metrics` and `--bench-json`
//! mean what they mean on `forumcast evaluate`: the same reader turns
//! them into the [`RunFlags`] that [`parse_args`] starts the
//! [`RunSession`] from, which applies the flag-over-env rule
//! (`FORUMCAST_FAULTS`, `FORUMCAST_TRACE`), arms the fault plan and
//! the span collector, and sets the training workers. `--threads N`
//! therefore sizes both the CV fold workers and the training workers.
//! A malformed `--faults` is a usage error (exit 2); a malformed
//! `FORUMCAST_FAULTS` fails the run (exit 1). Binaries call [`finish`]
//! last to write the trace, the bench report (versioned
//! `forumcast-bench` schema, diffable with `forumcast bench compare`)
//! and the summary.
//!
//! All binary output goes through [`status!`] — one locked
//! whole-line write per call — so lines from instrumented parallel
//! work never interleave mid-line.

use std::io::Write as _;
use std::path::PathBuf;

use forumcast_abtest::AbTestConfig;
use forumcast_cli::args::{preset, Options, ParseError, RUN_FLAGS, RUN_VALUES};
use forumcast_eval::{EvalConfig, RunFlags, RunSession};
use forumcast_features::ExtractorConfig;
use forumcast_synth::SynthConfig;

/// What one regeneration binary reads from its command line besides
/// the run flags, which every binary takes.
pub struct BinSpec {
    /// The binary's name, for its usage line.
    pub name: &'static str,
    /// The scale words it takes; each names an [`EvalConfig`] preset.
    pub scales: &'static [&'static str],
    /// Its boolean flags.
    pub flags: &'static [&'static str],
    /// Its value-taking options.
    pub values: &'static [&'static str],
}

/// The options of a binary that runs the CV protocol and checkpoints
/// it.
const CHECKPOINTED_CV: &[&str] = &["folds", "repeats", "resume"];

/// `table1`: Table I.
pub const TABLE1: BinSpec = BinSpec {
    name: "table1",
    scales: EvalConfig::SCALES,
    flags: &["json"],
    values: CHECKPOINTED_CV,
};
/// `fig2`: SLN graph structure.
pub const FIG2: BinSpec = BinSpec {
    name: "fig2",
    scales: EvalConfig::SCALES,
    flags: &[],
    values: &[],
};
/// `fig3`: votes vs. response time.
pub const FIG3: BinSpec = BinSpec {
    name: "fig3",
    scales: EvalConfig::SCALES,
    flags: &["json"],
    values: &[],
};
/// `fig4`: feature CDFs.
pub const FIG4: BinSpec = BinSpec {
    name: "fig4",
    ..FIG3
};
/// `fig5`: topic-count sensitivity.
pub const FIG5: BinSpec = BinSpec {
    name: "fig5",
    ..TABLE1
};
/// `fig6`: leave-one-feature-out importance.
pub const FIG6: BinSpec = BinSpec {
    name: "fig6",
    ..TABLE1
};
/// `fig7`: feature groups × history length.
pub const FIG7: BinSpec = BinSpec {
    name: "fig7",
    ..TABLE1
};
/// `ablations`: design-choice deltas over uncheckpointed CV runs.
pub const ABLATIONS: BinSpec = BinSpec {
    name: "ablations",
    scales: EvalConfig::SCALES,
    flags: &[],
    values: &["folds", "repeats"],
};
/// `recsys`: the Section V routing demo.
pub const RECSYS: BinSpec = BinSpec {
    name: "recsys",
    ..FIG2
};
/// `abtest`: the simulated A/B test, at the A/B test's own scales.
pub const ABTEST: BinSpec = BinSpec {
    name: "abtest",
    scales: AbTestConfig::SCALES,
    ..FIG2
};

impl BinSpec {
    /// The usage line: the scale words, then the flags, then the
    /// value-taking options, the binary's own before the run flags.
    pub fn usage(&self) -> String {
        let mut line = format!("usage: {} [{}]", self.name, self.scales.join("|"));
        for flag in self.flags.iter().chain(RUN_FLAGS) {
            line += &format!(" [--{flag}]");
        }
        for key in self.values.iter().chain(RUN_VALUES) {
            let value = match *key {
                "faults" => "SPEC",
                "resume" | "trace" | "bench-json" => "PATH",
                _ => "N",
            };
            line += &format!(" [--{key} {value}]");
        }
        line
    }
}

/// Command-line options of a regeneration binary, as parsed.
#[derive(Debug)]
pub struct BinOptions {
    /// The scale word that was selected.
    pub scale: &'static str,
    /// Its evaluation configuration, with `--folds`, `--repeats` and
    /// `--threads` applied.
    pub config: EvalConfig,
    /// Dump the serialized report after the human-readable table.
    pub json: bool,
    /// Checkpoint file for resumable experiments (`--resume <path>`).
    pub resume: Option<PathBuf>,
}

/// Writes one fully formatted status line to stdout in a single
/// locked write. Use through the [`status!`] macro; routing every
/// line here keeps output from instrumented parallel sections from
/// interleaving mid-line.
pub fn status(args: std::fmt::Arguments<'_>) {
    let mut line = args.to_string();
    line.push('\n');
    let stdout = std::io::stdout();
    let mut lock = stdout.lock();
    lock.write_all(line.as_bytes()).expect("write status line");
}

/// `println!`-compatible status output for the regeneration binaries:
/// formats the line, then hands it to [`status`] as one write.
#[macro_export]
macro_rules! status {
    () => { $crate::status(format_args!("")) };
    ($($arg:tt)*) => { $crate::status(format_args!($($arg)*)) };
}

/// Parses a binary's arguments (without the program name) against
/// its spec: an optional leading scale word (default `standard`),
/// then the options it declares and the run flags. Arms nothing.
///
/// # Errors
///
/// Returns [`ParseError`] for an unknown scale word, an option the
/// binary does not declare, and any input [`Options::parse`] refuses,
/// a malformed `--faults`, `--folds` below 2 and `--repeats` below 1.
pub fn parse(spec: &BinSpec, args: &[String]) -> Result<(BinOptions, RunFlags), ParseError> {
    let (word, args) = match args.split_first() {
        Some((word, rest)) if !word.starts_with("--") => (word.as_str(), rest),
        _ => ("standard", args),
    };
    let scale = preset(word, spec.scales, |w| {
        spec.scales.iter().copied().find(|s| *s == w)
    })?;
    let mut config = preset(scale, EvalConfig::SCALES, EvalConfig::from_scale)?;
    let flags = [spec.flags, RUN_FLAGS].concat();
    let values = [spec.values, RUN_VALUES].concat();
    let opts = Options::parse(args, &flags, &values)?;
    let run = opts.run_flags()?;
    config.threads = run.threads;
    if let Some(folds) = opts.get_count("folds", 2)? {
        config.folds = folds;
    }
    if let Some(repeats) = opts.get_count("repeats", 1)? {
        config.repeats = repeats;
    }
    let opts = BinOptions {
        scale,
        config,
        json: opts.flag("json"),
        resume: opts.get("resume").map(PathBuf::from),
    };
    Ok((opts, run))
}

/// Parses `std::env::args` against `spec` and starts the run session.
/// A usage error exits 2 after printing the binary's usage line; a
/// malformed `FORUMCAST_FAULTS` exits 1.
pub fn parse_args(spec: &BinSpec) -> (BinOptions, RunSession) {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (opts, run) = parse(spec, &args).unwrap_or_else(|e| {
        eprintln!("error: {e}");
        eprintln!("{}", spec.usage());
        std::process::exit(2);
    });
    let session = RunSession::start(run).unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(1);
    });
    (opts, session)
}

/// Opens the experiment's root span when tracing is armed. Drop the
/// guard (or let it fall out of scope) before calling [`finish`] so
/// the root span's duration lands in the drained log.
#[must_use = "the root span measures the scope holding the guard"]
pub fn root_span(experiment: &str) -> forumcast_obs::SpanGuard {
    forumcast_obs::span(experiment)
}

/// Flushes the run session: writes the trace, the bench report and
/// the per-span summary that were asked for. Exits 1 naming the file
/// that could not be written.
pub fn finish(session: &RunSession) {
    if let Err(e) = session.finish(&mut std::io::stdout()) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

/// Prints the standard run header of a binary that runs
/// `opts.config`.
pub fn header(experiment: &str, opts: &BinOptions) {
    let config = &opts.config;
    status!(
        "{}",
        header_text(experiment, opts.scale, &config.synth, &config.extractor)
    );
}

/// The run header for the forum `synth` generates, featurized with
/// `extractor`; its trailing newline prints as the header's blank
/// line. A binary that runs some other config than its scale word's
/// [`EvalConfig`] (`abtest`) prints this with its own settings
/// instead of calling [`header`].
pub fn header_text(
    experiment: &str,
    scale: &str,
    synth: &SynthConfig,
    extractor: &ExtractorConfig,
) -> String {
    format!(
        "=== forumcast :: {experiment} (scale: {scale}) ===\n\
         dataset: {} users, {} questions, K = {}\n",
        synth.num_users, synth.num_questions, extractor.lda.num_topics
    )
}

/// Serializes a report as JSON when `--json` was passed.
pub fn maybe_json<T: serde::Serialize>(opts: &BinOptions, report: &T) {
    if opts.json {
        status!("\n--- json ---");
        status!(
            "{}",
            serde_json::to_string_pretty(report).expect("report serializes")
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const BINS: [&BinSpec; 10] = [
        &TABLE1, &FIG2, &FIG3, &FIG4, &FIG5, &FIG6, &FIG7, &ABLATIONS, &RECSYS, &ABTEST,
    ];

    /// Parses `line`, whose first word names the binary.
    fn parse_line(line: &str) -> Result<(BinOptions, RunFlags), ParseError> {
        let mut words = line.split_whitespace().map(str::to_owned);
        let name = words.next().unwrap();
        let spec = BINS.iter().find(|s| s.name == name).unwrap();
        parse(spec, &words.collect::<Vec<_>>())
    }

    #[test]
    fn each_binary_refuses_what_its_main_does_not_read() {
        for (line, why) in [
            ("table1 nope", "unknown scale `nope` (quick|standard|paper)"),
            ("table1 quick --threads", "missing value for --threads"),
            ("abtest paper", "unknown scale `paper` (quick|standard)"),
            ("ablations --resume x", "unknown option --resume"),
            ("fig2 --resume x", "unknown option --resume"),
            ("recsys quick --json", "unknown option --json"),
            ("table1 quick --folds 1", "--folds: must be at least 2"),
            ("table1 quick --repeats 0", "--repeats: must be at least 1"),
            ("table1 quick --json yes", "option --json takes no value"),
            ("table1 quick --json --json", "option --json given twice"),
            ("fig5 quick --faults nope:1", "unknown fault site `nope`"),
        ] {
            let err = parse_line(line).unwrap_err();
            assert!(err.to_string().contains(why), "{line}: {err}");
        }
    }

    #[test]
    fn each_binary_accepts_what_its_main_reads() {
        let (opts, run) = parse_line("table1 quick --threads 1").unwrap();
        assert_eq!(opts.scale, "quick");
        assert_eq!(opts.config.threads, 1);
        assert_eq!(opts.config.folds, EvalConfig::quick().folds);
        assert_eq!(
            run,
            RunFlags {
                threads: 1,
                ..RunFlags::default()
            }
        );
        let (opts, _) = parse_line("table1 standard --resume /tmp/t1.json").unwrap();
        assert_eq!(opts.config, EvalConfig::standard());
        assert_eq!(opts.resume, Some(PathBuf::from("/tmp/t1.json")));
        let (opts, run) = parse_line("recsys quick").unwrap();
        assert_eq!(
            (opts.scale, opts.json, run),
            ("quick", false, RunFlags::default())
        );
        let (opts, _) = parse_line("fig6 quick --json").unwrap();
        assert!(opts.json);
        let (opts, _) = parse_line("ablations --folds 2 --repeats 3").unwrap();
        assert_eq!(opts.scale, "standard");
        assert_eq!((opts.config.folds, opts.config.repeats), (2, 3));
        let (opts, run) = parse_line("abtest --metrics").unwrap();
        assert_eq!(opts.scale, "standard");
        assert!(run.metrics);
    }

    #[test]
    fn every_scale_word_of_every_binary_names_a_preset() {
        for spec in BINS {
            for scale in spec.scales {
                assert!(EvalConfig::from_scale(scale).is_some(), "{}", spec.name);
            }
        }
        for scale in ABTEST.scales {
            assert!(AbTestConfig::from_scale(scale).is_some(), "{scale}");
        }
    }

    #[test]
    fn header_names_the_forum_of_the_config_passed_in() {
        let mut config = AbTestConfig::from_scale("quick").unwrap();
        config.synth.num_users = 123;
        config.synth.num_questions = 45;
        config.extractor.lda.num_topics = 6;
        assert_eq!(
            header_text("A/B", "quick", &config.synth, &config.extractor),
            "=== forumcast :: A/B (scale: quick) ===\n\
             dataset: 123 users, 45 questions, K = 6\n"
        );
    }

    #[test]
    fn usage_lines_follow_the_declared_options() {
        assert_eq!(
            TABLE1.usage(),
            "usage: table1 [quick|standard|paper] [--json] [--metrics] [--folds N] \
             [--repeats N] [--resume PATH] [--threads N] [--faults SPEC] [--trace PATH] \
             [--bench-json PATH]"
        );
        assert_eq!(
            ABTEST.usage(),
            "usage: abtest [quick|standard] [--metrics] [--threads N] [--faults SPEC] \
             [--trace PATH] [--bench-json PATH]"
        );
    }
}
