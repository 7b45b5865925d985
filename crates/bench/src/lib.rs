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
//! recomputes from its start. `--faults <spec>` arms the
//! deterministic fault injector (same grammar as `FORUMCAST_FAULTS`).
//! `--trace <path>` writes a Chrome trace-event JSON file of pipeline
//! spans (`FORUMCAST_TRACE` supplies a default path), `--metrics`
//! prints the per-span timing summary, and `--bench-json <path>`
//! writes the machine-readable bench report (versioned
//! `forumcast-bench` schema, diffable with `forumcast bench
//! compare`); binaries call [`finish`] last to flush all three.
//!
//! All binary output goes through [`status!`] — one locked
//! whole-line write per call — so lines from instrumented parallel
//! work never interleave mid-line.

use std::io::Write as _;
use std::path::PathBuf;

use forumcast_eval::EvalConfig;
use forumcast_resilience::FaultPlan;

/// Command-line options shared by the regeneration binaries.
#[derive(Debug, Clone)]
pub struct BinOptions {
    /// Resolved evaluation configuration.
    pub config: EvalConfig,
    /// Dump the serialized report after the human-readable table.
    pub json: bool,
    /// The scale name that was selected.
    pub scale: String,
    /// Checkpoint file for resumable experiments (`--resume <path>`).
    pub resume: Option<PathBuf>,
    /// Chrome trace-event JSON output path (`--trace <path>`, else
    /// the `FORUMCAST_TRACE` env var).
    pub trace: Option<PathBuf>,
    /// Print the per-span timing summary after the run (`--metrics`).
    pub metrics: bool,
    /// Machine-readable bench report output path
    /// (`--bench-json <path>`, `forumcast-bench` schema).
    pub bench_json: Option<PathBuf>,
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

/// Parses `std::env::args` into [`BinOptions`]. Unknown arguments
/// abort with a usage message.
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
    // --faults wins over FORUMCAST_FAULTS; either arms the injector
    // on the main thread, which every worker inherits.
    let plan = match faults {
        Some(plan) => Some(plan),
        None => FaultPlan::from_env().unwrap_or_else(|e| {
            eprintln!("invalid {}: {e}", forumcast_resilience::FAULTS_ENV);
            std::process::exit(2);
        }),
    };
    if let Some(plan) = plan {
        if !plan.is_empty() {
            plan.arm_for_process();
        }
    }
    // --trace wins over FORUMCAST_TRACE; either (or --metrics) arms
    // the span collector on the main thread, which every worker inherits.
    let trace = trace.or_else(|| {
        std::env::var(forumcast_obs::TRACE_ENV)
            .ok()
            .map(PathBuf::from)
    });
    if trace.is_some() || metrics || bench_json.is_some() {
        forumcast_obs::arm_for_process();
    }
    BinOptions {
        config,
        json,
        scale,
        resume,
        trace,
        metrics,
        bench_json,
    }
}

/// Opens the experiment's root span when tracing is armed. Drop the
/// guard (or let it fall out of scope) before calling [`finish`] so
/// the root span's duration lands in the drained log.
#[must_use = "the root span measures the scope holding the guard"]
pub fn root_span(experiment: &str) -> forumcast_obs::SpanGuard {
    forumcast_obs::span(experiment)
}

/// Flushes observability output: writes the Chrome trace file when
/// `--trace`/`FORUMCAST_TRACE` was given, the bench report when
/// `--bench-json` was, and prints the per-span summary when
/// `--metrics` was. A no-op when none were requested.
pub fn finish(opts: &BinOptions) {
    if opts.trace.is_none() && !opts.metrics && opts.bench_json.is_none() {
        return;
    }
    let Some(log) = forumcast_obs::drain() else {
        return;
    };
    if let Some(path) = &opts.trace {
        match std::fs::write(path, log.to_chrome_json()) {
            Ok(()) => status!("trace written to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write trace to `{}`: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if let Some(path) = &opts.bench_json {
        match std::fs::write(path, log.to_bench_json()) {
            Ok(()) => status!("bench report written to {}", path.display()),
            Err(e) => {
                eprintln!("cannot write bench report to `{}`: {e}", path.display());
                std::process::exit(1);
            }
        }
    }
    if opts.metrics {
        status!("{}", log.summary().render());
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_options_are_standard_scale() {
        // parse_args reads process args; here we just check defaults
        // used by the binaries compile-time contract.
        let opts = BinOptions {
            config: EvalConfig::standard(),
            json: false,
            scale: "standard".into(),
            resume: None,
            trace: None,
            metrics: false,
            bench_json: None,
        };
        assert_eq!(opts.config.repeats, 1);
        assert!(!opts.json);
    }
}
