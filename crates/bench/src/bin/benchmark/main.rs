//! `benchmark`: the end-to-end and per-layer benchmark of forumcast.
//!
//! ```text
//! benchmark --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--trace-out DIR]
//! benchmark --all [--seed N] [--seconds S] [--trace 0|1] [--trace-out DIR]
//! ```
//!
//! One run sets a workload up at least three times, until the set-ups
//! took a second (reporting the median set-up time). Then it runs the
//! workload's operation in a closed loop for `--seconds` (and at least
//! the workload's minimum number of operations), timing each call from
//! outside with tracing off, and checks every output. It prints what it
//! measured, then as its last line one JSON object: `correct`,
//! `attempted`, `failed` and the end-to-end `metrics`.
//!
//! `--trace 1` sets up once and runs the same untraced loop, as the
//! baseline of the tracing overhead; then it arms the span collector
//! and runs one traced set-up plus the workload's fixed number of
//! traced operations. The JSON then carries the per-layer metrics,
//! read off that trace. `--trace-out DIR` also writes the Chrome trace
//! and a per-layer JSON there.
//!
//! `--all` re-executes this binary once per workload, so each
//! workload's peak heap is its own, and prints every workload's
//! metrics. It exits non-zero if any run fails a check. See README.md
//! next to this file.

mod heap;
mod layers;
mod stats;
mod workloads;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use serde::Value;

use stats::{median, percentile, tail_percentile, END_TO_END, PER_LAYER};
use workloads::{Job, Size, Workload, THREADS};

#[global_allocator]
static HEAP: heap::Counting = heap::Counting;

/// The synthetic presets' own seed.
const DEFAULT_SEED: u64 = 0xF0CA57;
const DEFAULT_SECONDS: f64 = 10.0;
/// An untraced run sets up at least `SETUP_REPS` times, and keeps
/// going (up to `SETUP_MAX_REPS`) until set-ups took `SETUP_MIN_S`:
/// `setup_s` is their median, and a 30-ms set-up alone varies ±40%.
const SETUP_REPS: usize = 3;
const SETUP_MAX_REPS: usize = 15;
const SETUP_MIN_S: f64 = 1.0;
/// Failure messages printed per run; the rest are only counted.
const MAX_REPORTED_FAILURES: usize = 10;

const USAGE: &str = "usage: benchmark --workload <cv-fast|build-k64|build-paper|route-medium> \
[--seed N] [--seconds S] [--trace 0|1] [--trace-out DIR]\n       \
benchmark --all [--seed N] [--seconds S] [--trace 0|1] [--trace-out DIR]";

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: Option<Workload>,
    all: bool,
    seed: u64,
    seconds: f64,
    trace: bool,
    trace_out: Option<PathBuf>,
}

fn parse_u64(s: &str) -> Option<u64> {
    match s.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => s.parse().ok(),
    }
}

fn parse_args(raw: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        all: false,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
    };
    let mut raw = raw.into_iter();
    while let Some(flag) = raw.next() {
        if flag == "--all" {
            args.all = true;
            continue;
        }
        let value = raw
            .next()
            .ok_or_else(|| format!("missing value for {flag}"))?;
        let bad = || format!("invalid value `{value}` for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = Some(Workload::parse(&value).ok_or_else(bad)?),
            "--seed" => args.seed = parse_u64(&value).ok_or_else(bad)?,
            "--seconds" => {
                args.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            "--trace-out" => {
                args.trace_out = Some(PathBuf::from(&value));
                args.trace = true;
            }
            _ => return Err(format!("unknown argument `{flag}`")),
        }
    }
    if args.all == args.workload.is_some() {
        return Err("give exactly one of --workload and --all".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    // Every layer sizes its worker pool from this variable; set it
    // before any layer starts a thread.
    std::env::set_var(forumcast_par::THREADS_ENV, THREADS.to_string());
    forumcast_ml::set_train_threads(THREADS);
    match args.workload {
        Some(w) => {
            let run = run(w, &args);
            println!("{}", run.json());
            ExitCode::SUCCESS
        }
        None => drive(&args),
    }
}

/// What one run reports.
struct Run {
    attempted: usize,
    failed: usize,
    correct: bool,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

impl Run {
    fn json(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|&(name, unit, value)| {
                let entry = Value::Object(vec![
                    ("value".into(), Value::F64(value)),
                    ("unit".into(), Value::Str(unit.into())),
                ]);
                (name.to_string(), entry)
            })
            .collect();
        let root = Value::Object(vec![
            ("correct".into(), Value::Bool(self.correct)),
            ("attempted".into(), Value::U64(self.attempted as u64)),
            ("failed".into(), Value::U64(self.failed as u64)),
            ("metrics".into(), Value::Object(metrics)),
        ]);
        serde_json::to_string(&root).expect("the writer cannot fail")
    }
}

/// Operations of one loop: per-op wall seconds and failures.
struct Loop {
    secs: Vec<f64>,
    failed: usize,
}

/// Runs `job`'s operations in order until `seconds` have passed and at
/// least `min_ops` ran. Each op is timed from outside and isolated: a
/// panic or a failed check counts it as failed and the loop goes on.
/// Heap counting stops after the first op, which is the last one the
/// peak heap needs.
fn measure(job: &mut dyn Job, seconds: f64, min_ops: usize, op_name: &str) -> Loop {
    let start = Instant::now();
    let mut lp = Loop {
        secs: Vec::new(),
        failed: 0,
    };
    while lp.secs.len() < min_ops || start.elapsed().as_secs_f64() < seconds {
        let i = lp.secs.len();
        let t = Instant::now();
        let outcome = {
            let _span = forumcast_obs::span("bench.op");
            catch_unwind(AssertUnwindSafe(|| job.op(i)))
        };
        lp.secs.push(t.elapsed().as_secs_f64());
        heap::stop_counting();
        let error = match outcome {
            Ok(Ok(())) => continue,
            Ok(Err(e)) => e,
            Err(_) => "panicked".to_string(),
        };
        lp.failed += 1;
        if lp.failed <= MAX_REPORTED_FAILURES {
            eprintln!("{op_name} {i} failed: {error}");
        }
    }
    lp
}

fn run(w: Workload, args: &Args) -> Run {
    println!(
        "benchmark: workload {}, seed {:#x}, {THREADS} threads, {} s",
        w.name(),
        args.seed,
        args.seconds
    );
    let mut problems = Vec::new();
    let (min_reps, max_reps) = if args.trace {
        (1, 1)
    } else {
        (SETUP_REPS, SETUP_MAX_REPS)
    };
    let mut setup_secs: Vec<f64> = Vec::new();
    let mut digests = Vec::new();
    let mut job: Option<Box<dyn Job>> = None;
    while setup_secs.len() < min_reps
        || (setup_secs.len() < max_reps && setup_secs.iter().sum::<f64>() < SETUP_MIN_S)
    {
        // Free the previous set-up first, so peak memory is one
        // set-up's.
        drop(job.take());
        let t = Instant::now();
        let fresh = w.setup(args.seed, Size::Full);
        setup_secs.push(t.elapsed().as_secs_f64());
        digests.push(fresh.setup_digest());
        job = Some(fresh);
    }
    let mut job = job.expect("at least one set-up ran");
    if digests.windows(2).any(|d| d[0] != d[1]) {
        problems.push(format!("set-up is not deterministic: digests {digests:x?}"));
    }
    println!(
        "set-up: median {:.3} s of {} {:.3?}",
        median(&setup_secs),
        setup_secs.len(),
        setup_secs
    );

    let min_ops = if args.trace {
        w.min_ops(Size::Full).max(w.traced_ops())
    } else {
        w.min_ops(Size::Full)
    };
    let untraced = measure(job.as_mut(), args.seconds, min_ops, w.op_name());
    report_loop(w, &untraced);
    let (digest, notes) = job.outputs();
    for (name, value) in &notes {
        println!("quality: {name} = {value:.6}");
    }
    println!("output_digest: {digest:016x}");
    drop(job);

    let peak_heap_mb = heap::peak_bytes() as f64 / (1 << 20) as f64;
    println!(
        "memory: peak heap {peak_heap_mb:.3} MB, peak RSS {:.3} MB",
        forumcast_obs::peak_rss_kb() as f64 / 1024.0
    );

    let mut attempted = untraced.secs.len();
    let mut failed = untraced.failed;
    let metrics = if args.trace {
        let traced = traced_phase(w, args, &untraced);
        attempted += traced.attempted;
        failed += traced.failed;
        problems.extend(traced.problems);
        traced.metrics
    } else {
        let values = [
            median(&setup_secs),
            median(&untraced.secs) * 1e3,
            peak_heap_mb,
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(m, v)| (m.name, m.unit, v))
            .collect()
    };
    for p in &problems {
        eprintln!("check failed: {p}");
    }
    Run {
        attempted,
        failed,
        correct: failed == 0 && problems.is_empty(),
        metrics,
    }
}

fn report_loop(w: Workload, lp: &Loop) {
    let n = lp.secs.len();
    let mut sorted = lp.secs.clone();
    sorted.sort_by(f64::total_cmp);
    let tail = match tail_percentile(n) {
        Some(p) => format!("p{p} {:.3} ms", percentile(&sorted, p) * 1e3),
        None => "no tail percentile has 10 samples beyond it".to_string(),
    };
    println!(
        "ops: {n} {}s in {:.3} s, {} failed; p50 {:.3} ms, {tail} (n = {n})",
        w.op_name(),
        lp.secs.iter().sum::<f64>(),
        lp.failed,
        median(&lp.secs) * 1e3,
    );
}

struct Traced {
    attempted: usize,
    failed: usize,
    problems: Vec<String>,
    metrics: Vec<(&'static str, &'static str, f64)>,
}

/// One traced set-up plus the workload's fixed traced ops, with the
/// span collector armed. The overhead compares them with the same ops
/// of the untraced loop.
fn traced_phase(w: Workload, args: &Args, untraced: &Loop) -> Traced {
    let guard = forumcast_obs::arm();
    let mut job = {
        let _span = forumcast_obs::span("bench.setup");
        w.setup(args.seed, Size::Full)
    };
    let n = w.traced_ops();
    let traced = measure(job.as_mut(), 0.0, n, w.op_name());
    drop(job);
    let log = forumcast_obs::drain().expect("the collector is armed");
    drop(guard);

    let base: f64 = untraced.secs[..n].iter().sum();
    let overhead = traced.secs.iter().sum::<f64>() / base - 1.0;
    let values = layers::per_layer(&log, overhead);
    println!("{}", log.summary().render());
    for (name, share) in layers::shares(&log) {
        println!("share: {name} = {share:.4}");
    }
    let mut problems = Vec::new();
    if let Some(dir) = &args.trace_out {
        if let Err(e) = write_trace(dir, w, args.seed, &log, &values) {
            problems.push(format!("cannot write the trace to {}: {e}", dir.display()));
        }
    }
    Traced {
        attempted: traced.secs.len(),
        failed: traced.failed,
        problems,
        metrics: PER_LAYER
            .iter()
            .zip(values)
            .map(|(m, (_, v))| (m.name, m.unit, v))
            .collect(),
    }
}

/// Writes `<workload>-<seed>.trace.json` (Chrome trace-event format)
/// and `<workload>-<seed>.layers.json`: the per-layer metrics plus
/// every span's calls and total and self milliseconds, and every
/// counter.
fn write_trace(
    dir: &Path,
    w: Workload,
    seed: u64,
    log: &forumcast_obs::TraceLog,
    values: &[(&'static str, f64)],
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let stem = dir.join(format!("{}-{seed}", w.name()));
    std::fs::write(stem.with_extension("trace.json"), log.to_chrome_json())?;
    let summary = log.summary();
    let spans = summary
        .rows
        .iter()
        .map(|r| {
            let row = Value::Object(vec![
                ("calls".into(), Value::U64(r.calls)),
                ("total_ms".into(), Value::F64(r.total_ns as f64 / 1e6)),
                ("self_ms".into(), Value::F64(r.self_ns as f64 / 1e6)),
                ("p50_us".into(), Value::F64(r.p50_ns() as f64 / 1e3)),
            ]);
            (r.name.clone(), row)
        })
        .collect();
    let counters = log
        .counters
        .iter()
        .map(|(k, v)| (k.clone(), Value::U64(*v)))
        .collect();
    let metrics = values
        .iter()
        .map(|(k, v)| (k.to_string(), Value::F64(*v)))
        .collect();
    let root = Value::Object(vec![
        ("workload".into(), Value::Str(w.name().into())),
        ("seed".into(), Value::U64(seed)),
        ("per_layer".into(), Value::Object(metrics)),
        ("spans".into(), Value::Object(spans)),
        ("counters".into(), Value::Object(counters)),
    ]);
    let json = serde_json::to_string_pretty(&root).expect("the writer cannot fail");
    std::fs::write(stem.with_extension("layers.json"), json)
}

fn field<'a>(v: &'a Value, key: &str) -> Option<&'a Value> {
    match v {
        Value::Object(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
        _ => None,
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::F64(f) => Some(*f),
        Value::I64(i) => Some(*i as f64),
        Value::U64(u) => Some(*u as f64),
        _ => None,
    }
}

/// Re-executes this binary once per workload and prints each
/// workload's metrics.
fn drive(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("cannot locate this executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut ok = true;
    for w in Workload::ALL {
        let metrics = match run_child(&exe, w, args) {
            Ok(metrics) => metrics,
            Err(e) => {
                eprintln!("{}: {e}", w.name());
                ok = false;
                continue;
            }
        };
        println!("== {}", w.name());
        for m in table {
            match metrics.iter().find(|(name, _)| name == m.name) {
                Some((_, value)) => {
                    let bound = m.bound.map(|b| format!(", bound {b}")).unwrap_or_default();
                    println!(
                        "{:<30} {value:>14.6} {:<6} ({} is better{bound})",
                        m.name,
                        m.unit,
                        m.better.name()
                    )
                }
                None => {
                    println!("{:<30} missing", m.name);
                    ok = false;
                }
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs one workload in a child process and returns its metrics, or
/// why the run does not count.
fn run_child(exe: &Path, w: Workload, args: &Args) -> Result<Vec<(String, f64)>, String> {
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", w.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .stderr(Stdio::inherit());
    if let Some(dir) = &args.trace_out {
        cmd.arg("--trace-out").arg(dir);
    }
    let out = cmd.output().map_err(|e| format!("cannot run: {e}"))?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    print!("{stdout}");
    if !out.status.success() {
        return Err(format!("exited with {}", out.status));
    }
    let last = stdout.lines().last().unwrap_or_default();
    let result: Value = serde_json::from_str(last).map_err(|e| format!("bad result line: {e}"))?;
    if field(&result, "correct") != Some(&Value::Bool(true)) {
        return Err("an output check failed".into());
    }
    let Some(Value::Object(metrics)) = field(&result, "metrics") else {
        return Err("no metrics in the result line".into());
    };
    Ok(metrics
        .iter()
        .filter_map(|(name, m)| Some((name.clone(), number(field(m, "value")?)?)))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        parse_args(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_workload_and_all_command_lines() {
        let a = parse(&[
            "--workload",
            "route-medium",
            "--seed",
            "0xBEEF",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::RouteMedium));
        assert_eq!((a.seed, a.seconds, a.trace), (0xBEEF, 10.0, true));
        let b = parse(&["--all"]).unwrap();
        assert!(b.all && b.workload.is_none());
        assert_eq!((b.seed, b.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            &["--workload", "nope"][..],
            &["--workload", "build-k64", "--trace", "2"],
            &["--workload", "build-k64", "--seconds", "-1"],
            &["--workload", "build-k64", "--all"],
            &["--seed", "7"],
            &["--workload"],
            &["--workload", "build-k64", "--frobnicate", "1"],
        ] {
            assert!(parse(bad).is_err(), "{bad:?}");
        }
    }

    /// The result line has exactly the four keys, and every metric
    /// carries its value and unit.
    #[test]
    fn result_line_has_the_contract_shape() {
        let run = Run {
            attempted: 3,
            failed: 0,
            correct: true,
            metrics: vec![("setup_s", "s", 0.8127), ("op_p50_ms", "ms", 1.2034)],
        };
        let v: Value = serde_json::from_str(&run.json()).unwrap();
        let Value::Object(fields) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = field(field(&v, "metrics").unwrap(), "setup_s").unwrap();
        assert_eq!(number(field(setup, "value").unwrap()), Some(0.8127));
        assert_eq!(field(setup, "unit"), Some(&Value::Str("s".into())));
    }
}
