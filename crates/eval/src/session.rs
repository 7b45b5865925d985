//! The run session every `forumcast` experiment runs under: Table I
//! (`evaluate`), the figures, the ablations, the routing demo and the
//! A/B test, plus `train` and `stats`.
//!
//! The CLI parses the run flags with one grammar
//! (`forumcast_cli::args::Options::run_flags`) into a [`RunFlags`] and
//! hands it to [`RunSession::start`]. The session applies the one
//! precedence rule — a flag beats its environment variable
//! (`--faults` beats `FORUMCAST_FAULTS`, `--trace` beats
//! `FORUMCAST_TRACE`) — arms the fault plan and the span collector for
//! the process, and sets the training workers. After the run,
//! [`RunSession::finish`] drains the collector once and writes the
//! trace, the bench report and the per-span summary.
//!
//! A malformed `FORUMCAST_FAULTS` makes [`RunSession::start`] fail, and
//! the CLI reports that as a failed run (exit status 1): the spec is
//! not on the command line, so usage text would not help. A malformed
//! `--faults` never reaches the session; the CLI refuses it while
//! parsing, as a usage error (exit status 2).

use std::error::Error;
use std::io::Write;
use std::path::PathBuf;

use forumcast_resilience::{FaultPlan, FaultSpecError, FAULTS_ENV};

/// The run flags as parsed: `--threads`, `--faults`, `--trace`,
/// `--metrics` and `--bench-json`. The default is the empty set, which
/// `train` and `stats` run under.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunFlags {
    /// Worker threads (`0` = auto: `FORUMCAST_THREADS`, else every
    /// core).
    pub threads: usize,
    /// Fault plan (same spec grammar as `FORUMCAST_FAULTS`).
    pub faults: Option<FaultPlan>,
    /// Chrome trace-event JSON output path.
    pub trace: Option<PathBuf>,
    /// Print the per-span timing summary after the run.
    pub metrics: bool,
    /// Machine-readable bench report output path.
    pub bench_json: Option<PathBuf>,
}

/// One run's fault plan and telemetry sinks, resolved from the
/// command's flags and the environment.
#[derive(Debug)]
pub struct RunSession {
    /// The plan to arm; `None` when it would inject nothing.
    faults: Option<FaultPlan>,
    /// Chrome trace-event JSON output path.
    trace: Option<PathBuf>,
    /// Print the per-span timing summary after the run.
    metrics: bool,
    /// Machine-readable bench report output path.
    bench_json: Option<PathBuf>,
}

impl RunSession {
    /// Starts a session from the run flags the CLI parsed. An
    /// absent flag falls back to its environment variable. Arms the fault plan when it
    /// injects anything and the span collector when any sink was
    /// asked for, both for the calling thread and the threads it
    /// starts through `forumcast-par`; sets the training workers
    /// through [`forumcast_ml::set_train_threads`].
    ///
    /// # Errors
    ///
    /// Returns [`FaultSpecError`] when `--faults` is absent and
    /// `FORUMCAST_FAULTS` is malformed. Nothing is armed then.
    pub fn start(flags: RunFlags) -> Result<RunSession, FaultSpecError> {
        let threads = flags.threads;
        let mut session = RunSession::resolve(flags, |key| std::env::var(key).ok())?;
        if let Some(plan) = session.faults.take() {
            plan.arm_for_process();
        }
        if session.collects() {
            forumcast_obs::arm_for_process();
        }
        forumcast_ml::set_train_threads(threads);
        Ok(session)
    }

    /// Applies the flag-beats-env rule, reading variables through
    /// `env`. Arms nothing.
    fn resolve(
        flags: RunFlags,
        env: impl Fn(&str) -> Option<String>,
    ) -> Result<RunSession, FaultSpecError> {
        let RunFlags {
            faults,
            trace,
            metrics,
            bench_json,
            ..
        } = flags;
        let faults = match faults {
            Some(plan) => plan,
            None => FaultPlan::parse(&env(FAULTS_ENV).unwrap_or_default())?,
        };
        Ok(RunSession {
            faults: (!faults.is_empty()).then_some(faults),
            trace: trace.or_else(|| env(forumcast_obs::TRACE_ENV).map(PathBuf::from)),
            metrics,
            bench_json,
        })
    }

    /// Whether any sink needs the span collector.
    fn collects(&self) -> bool {
        self.trace.is_some() || self.metrics || self.bench_json.is_some()
    }

    /// Drains the collector once and writes what the run asked for:
    /// the Chrome trace, then the bench report (each followed by a
    /// "… written to <path>" line on `out`), then the per-span
    /// summary to `out`. Does nothing when no sink was asked for.
    /// Call it after the run's root span has closed, so its duration
    /// is in the log.
    ///
    /// # Errors
    ///
    /// Returns an error naming the file that could not be written, or
    /// the failure to write to `out`.
    pub fn finish(&self, out: &mut dyn Write) -> Result<(), Box<dyn Error>> {
        if !self.collects() {
            return Ok(());
        }
        let log = forumcast_obs::drain().ok_or("trace collector was disarmed mid-run")?;
        if let Some(path) = &self.trace {
            std::fs::write(path, log.to_chrome_json())
                .map_err(|e| format!("cannot write trace to `{}`: {e}", path.display()))?;
            writeln!(out, "trace written to {}", path.display())?;
        }
        if let Some(path) = &self.bench_json {
            std::fs::write(path, log.to_bench_json())
                .map_err(|e| format!("cannot write bench report to `{}`: {e}", path.display()))?;
            writeln!(out, "bench report written to {}", path.display())?;
        }
        if self.metrics {
            writeln!(out, "{}", log.summary().render())?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(spec: &str) -> FaultPlan {
        FaultPlan::parse(spec).unwrap()
    }

    /// Resolves against a fixed environment instead of the process's.
    fn resolve(
        faults: Option<FaultPlan>,
        trace: Option<&str>,
        env: &[(&str, &str)],
    ) -> Result<RunSession, FaultSpecError> {
        let flags = RunFlags {
            faults,
            trace: trace.map(PathBuf::from),
            ..RunFlags::default()
        };
        RunSession::resolve(flags, |key| {
            env.iter()
                .find(|(k, _)| *k == key)
                .map(|(_, v)| v.to_string())
        })
    }

    #[test]
    fn a_flag_beats_its_environment_variable() {
        let env = [
            (FAULTS_ENV, "fold-panic:7"),
            (forumcast_obs::TRACE_ENV, "env.json"),
        ];
        let s = resolve(Some(plan("nan-grad:1")), Some("flag.json"), &env).unwrap();
        assert_eq!(s.faults, Some(plan("nan-grad:1")));
        assert_eq!(s.trace, Some(PathBuf::from("flag.json")));
        // A flag wins even when its variable would not parse.
        let s = resolve(Some(plan("nan-grad:1")), None, &[(FAULTS_ENV, "nope:1")]).unwrap();
        assert_eq!(s.faults, Some(plan("nan-grad:1")));
    }

    #[test]
    fn the_environment_applies_without_a_flag() {
        let env = [
            (FAULTS_ENV, "fold-panic:7"),
            (forumcast_obs::TRACE_ENV, "env.json"),
        ];
        let s = resolve(None, None, &env).unwrap();
        assert_eq!(s.faults, Some(plan("fold-panic:7")));
        assert_eq!(s.trace, Some(PathBuf::from("env.json")));
        assert!(s.collects());
    }

    #[test]
    fn an_empty_plan_arms_nothing() {
        for (flag, env) in [
            (Some(plan("")), &[(FAULTS_ENV, "fold-panic:7")][..]),
            (None, &[(FAULTS_ENV, "  ")][..]),
            (None, &[][..]),
        ] {
            let s = resolve(flag, None, env).unwrap();
            assert_eq!(s.faults, None);
            assert!(!s.collects());
        }
    }

    #[test]
    fn a_malformed_environment_spec_is_an_error() {
        let err = resolve(None, None, &[(FAULTS_ENV, "nope:1")]).unwrap_err();
        assert!(
            err.to_string().contains("unknown fault site `nope`"),
            "{err}"
        );
    }
}
