//! Shared plumbing for the table/figure regeneration binaries.
//!
//! Every binary accepts an optional scale argument:
//!
//! ```text
//! cargo run -p forumcast-bench --release --bin table1 [quick|standard|paper] [--json]
//! ```
//!
//! * `quick` — small synthetic dataset, seconds;
//! * `standard` (default) — medium dataset, one repeat of 5-fold CV;
//! * `paper` — medium dataset with the paper's 5 × 5-fold protocol.
//!
//! `--json` additionally dumps the machine-readable report to stdout.
//! `--resume <path>` checkpoints completed CV folds to `<path>` (plus
//! per-sub-run suffixes for the sweep figures) and skips them when the
//! run is restarted with the same path; a fold interrupted part-way
//! recomputes from its start.
//!
//! `--threads`, `--faults`, `--trace`, `--metrics` and `--bench-json`
//! mean what they mean on `forumcast evaluate`: [`parse_args`] hands
//! them to the same [`RunSession`] the CLI uses, which applies the
//! flag-over-env rule (`FORUMCAST_FAULTS`, `FORUMCAST_TRACE`), arms
//! the fault plan and the span collector, and sets the training
//! workers. `--threads N` therefore sizes both the CV fold workers
//! and the training workers. A malformed `--faults` is a usage error
//! (exit 2); a malformed `FORUMCAST_FAULTS` fails the run (exit 1).
//! Binaries call [`finish`] last to write the trace, the bench
//! report (versioned `forumcast-bench` schema, diffable with
//! `forumcast bench compare`) and the summary.
//!
//! All binary output goes through [`status!`] — one locked
//! whole-line write per call — so lines from instrumented parallel
//! work never interleave mid-line.

use std::io::Write as _;
use std::path::PathBuf;

use forumcast_eval::{EvalConfig, RunSession};
use forumcast_resilience::FaultPlan;

/// Command-line options shared by the regeneration binaries.
#[derive(Debug)]
pub struct BinOptions {
    /// Resolved evaluation configuration.
    pub config: EvalConfig,
    /// Dump the serialized report after the human-readable table.
    pub json: bool,
    /// The scale name that was selected.
    pub scale: String,
    /// Checkpoint file for resumable experiments (`--resume <path>`).
    pub resume: Option<PathBuf>,
    /// The started run session, flushed by [`finish`].
    pub session: RunSession,
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

/// Parses `std::env::args` into [`BinOptions`] and starts the run
/// session. Unknown arguments abort with a usage message.
pub fn parse_args() -> BinOptions {
    let mut config = EvalConfig::standard();
    let mut scale = "standard".to_string();
    let mut json = false;
    let mut folds: Option<usize> = None;
    let mut repeats: Option<usize> = None;
    let mut threads: Option<usize> = None;
    let mut resume: Option<PathBuf> = None;
    let mut faults: Option<FaultPlan> = None;
    let mut trace: Option<PathBuf> = None;
    let mut metrics = false;
    let mut bench_json: Option<PathBuf> = None;
    let mut pending: Option<&str> = None;
    for arg in std::env::args().skip(1) {
        if let Some(key) = pending.take() {
            match key {
                "resume" => {
                    resume = Some(PathBuf::from(&arg));
                    continue;
                }
                "trace" => {
                    trace = Some(PathBuf::from(&arg));
                    continue;
                }
                "bench-json" => {
                    bench_json = Some(PathBuf::from(&arg));
                    continue;
                }
                "faults" => {
                    faults = Some(FaultPlan::parse(&arg).unwrap_or_else(|e| {
                        eprintln!("invalid value `{arg}` for --faults: {e}");
                        std::process::exit(2);
                    }));
                    continue;
                }
                _ => {}
            }
            let value: usize = arg.parse().unwrap_or_else(|_| {
                eprintln!("invalid value `{arg}` for --{key}");
                std::process::exit(2);
            });
            match key {
                "folds" => folds = Some(value),
                "threads" => threads = Some(value),
                _ => repeats = Some(value),
            }
            continue;
        }
        match arg.as_str() {
            "--folds" => {
                pending = Some("folds");
                continue;
            }
            "--repeats" => {
                pending = Some("repeats");
                continue;
            }
            "--threads" => {
                pending = Some("threads");
                continue;
            }
            "--resume" => {
                pending = Some("resume");
                continue;
            }
            "--faults" => {
                pending = Some("faults");
                continue;
            }
            "--trace" => {
                pending = Some("trace");
                continue;
            }
            "--bench-json" => {
                pending = Some("bench-json");
                continue;
            }
            "--metrics" => metrics = true,
            "quick" => {
                config = EvalConfig::quick();
                scale = "quick".into();
            }
            "standard" => {
                config = EvalConfig::standard();
                scale = "standard".into();
            }
            "paper" => {
                config = EvalConfig::paper();
                scale = "paper".into();
            }
            "--json" => json = true,
            other => {
                eprintln!("unknown argument `{other}`");
                eprintln!(
                    "usage: <bin> [quick|standard|paper] [--json] [--folds N] [--repeats N] \
                     [--threads N] [--resume PATH] [--faults SPEC] \
                     [--trace PATH] [--metrics] [--bench-json PATH]"
                );
                std::process::exit(2);
            }
        }
    }
    if let Some(key) = pending {
        eprintln!("missing value for --{key}");
        std::process::exit(2);
    }
    if let Some(f) = folds {
        config.folds = f.max(2);
    }
    if let Some(r) = repeats {
        config.repeats = r.max(1);
    }
    if let Some(t) = threads {
        // 0 = auto (FORUMCAST_THREADS env var, else machine
        // parallelism) — the same convention as EvalConfig::threads.
        config.threads = t;
    }
    let session = RunSession::start(config.threads, faults, trace, metrics, bench_json)
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(1);
        });
    BinOptions {
        config,
        json,
        scale,
        resume,
        session,
    }
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
pub fn finish(opts: &BinOptions) {
    if let Err(e) = opts.session.finish(&mut std::io::stdout()) {
        eprintln!("{e}");
        std::process::exit(1);
    }
}

/// Prints the standard run header.
pub fn header(experiment: &str, opts: &BinOptions) {
    status!("=== forumcast :: {experiment} (scale: {}) ===", opts.scale);
    status!(
        "dataset: {} users, {} questions, K = {}",
        opts.config.synth.num_users,
        opts.config.synth.num_questions,
        opts.config.extractor.lda.num_topics
    );
    status!();
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
