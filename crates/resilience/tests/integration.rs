//! End-to-end resilience tests over the real CV harness: injected
//! faults heal bitwise-identically via retry, and an interrupted
//! sweep resumes from its checkpoint to the exact uninterrupted
//! output.
//!
//! The dev-dependency on `forumcast-eval` intentionally closes a
//! cycle in the test graph (eval → data → resilience): these tests
//! exercise the injector through the highest-level consumer.

use std::path::PathBuf;
use std::sync::OnceLock;

use forumcast_eval::{run_cv, run_cv_resumable, CvError, EvalConfig, ExperimentData, FoldOutcome};
use forumcast_resilience::{
    tmp_path, Checkpoint, CheckpointError, FaultPlan, FaultSite, FAULTS_ENV,
};

fn quick_config(threads: usize) -> EvalConfig {
    let mut cfg = EvalConfig::quick();
    cfg.folds = 2;
    cfg.repeats = 1;
    cfg.threads = threads;
    cfg
}

/// One shared dataset/feature build — by far the slowest part.
fn shared_data() -> &'static ExperimentData {
    static DATA: OnceLock<ExperimentData> = OnceLock::new();
    DATA.get_or_init(|| {
        let cfg = quick_config(1);
        let (ds, _) = cfg.synth.generate().preprocess();
        ExperimentData::build(&ds, &cfg)
    })
}

/// Every float of every outcome, as raw bits — the comparison the
/// determinism guarantees are stated in.
fn bits(outcomes: &[FoldOutcome]) -> Vec<u64> {
    outcomes
        .iter()
        .flat_map(|o| {
            [
                o.auc,
                o.auc_baseline,
                o.rmse_votes,
                o.rmse_votes_baseline,
                o.rmse_time,
                o.rmse_time_baseline,
            ]
        })
        .map(f64::to_bits)
        .collect()
}

/// Runs a CV sweep under the fault spec `spec` with the collector
/// armed in the same scope, and asserts that every planned shot fired:
/// a healed run whose workers never saw the plan would otherwise pass
/// vacuously.
fn run_cv_under(spec: &str, data: &ExperimentData, cfg: &EvalConfig) -> Vec<FoldOutcome> {
    let _faults = FaultPlan::parse(spec).unwrap().arm();
    let _obs = forumcast_obs::arm();
    let healed = run_cv(data, cfg, None, false);
    let log = forumcast_obs::drain().expect("collector armed");
    for site in FaultSite::ALL {
        // Shots per site, split as `FaultPlan::parse` splits them:
        // `site:unit` is one, `site:unitxN` is N.
        let planned: u64 = spec
            .split(',')
            .filter_map(|shot| shot.split_once(':'))
            .filter(|(name, _)| name.trim() == site.name())
            .map(|(_, rest)| {
                rest.split_once('x')
                    .map_or(1, |(_, n)| n.trim().parse().unwrap())
            })
            .sum();
        let name = format!("fault.fired.{site}");
        let fired = log
            .counters
            .iter()
            .find(|(n, _)| *n == name)
            .map_or(0, |(_, v)| *v);
        assert_eq!(fired, planned, "{name} at {} thread(s)", cfg.threads);
    }
    healed
}

fn temp_checkpoint(name: &str) -> PathBuf {
    let mut p = std::env::temp_dir();
    p.push(format!(
        "forumcast-resilience-{name}-{}.ckpt",
        std::process::id()
    ));
    let _ = std::fs::remove_file(&p);
    p
}

#[test]
fn injected_faults_heal_bitwise_identically() {
    let data = shared_data();
    for threads in [1, 2] {
        let cfg = quick_config(threads);
        let clean = run_cv(data, &cfg, None, false);
        // One panic in each fold job plus a NaN gradient in the vote
        // trainer: every fault is retried away and the healed run must
        // reproduce the fault-free bits.
        let healed = run_cv_under("fold-panic:0,fold-panic:1,nan-grad:3", data, &cfg);
        assert_eq!(
            bits(&clean),
            bits(&healed),
            "healed run diverged at {threads} thread(s)"
        );
    }
}

#[test]
fn interrupted_sweep_resumes_bitwise_identically() {
    let data = shared_data();
    for threads in [1, 2] {
        let cfg = quick_config(threads);
        let uninterrupted = run_cv(data, &cfg, None, false);

        // Kill the sweep after fold job 0: job 1 panics through all
        // three attempts, so the run dies with job 0 checkpointed.
        let path = temp_checkpoint(&format!("resume-t{threads}"));
        let opts = Some(path.as_path());
        {
            let _guard = FaultPlan::parse("fold-panic:1x3").unwrap().arm();
            let err = run_cv_resumable(data, &cfg, None, false, opts).unwrap_err();
            assert!(
                matches!(err, CvError::FoldFailed { job: 1, .. }),
                "expected job 1 to fail, got: {err}"
            );
        }

        // Resume fault-free: job 0 is restored from the checkpoint,
        // job 1 recomputed, and the concatenation matches the
        // uninterrupted run bit for bit.
        let resumed = run_cv_resumable(data, &cfg, None, false, opts).unwrap();
        assert_eq!(
            bits(&uninterrupted),
            bits(&resumed),
            "resumed run diverged at {threads} thread(s)"
        );
        std::fs::remove_file(&path).unwrap();
    }
}

#[test]
fn failed_checkpoint_write_leaves_no_partial_checkpoint_and_resumes() {
    let data = shared_data();
    let cfg = quick_config(1);
    let uninterrupted = run_cv(data, &cfg, None, false);

    // With 2 fold jobs at 1 thread, saves run in order: the first
    // holds 1 entry, the second 2. Fire the fault at the second save
    // so a good checkpoint already exists when the write "crashes".
    let path = temp_checkpoint("ckpt-write");
    let opts = Some(path.as_path());
    let tmp = tmp_path(&path);
    {
        let _guard = FaultPlan::parse("ckpt-write:2").unwrap().arm();
        let err = run_cv_resumable(data, &cfg, None, false, opts).unwrap_err();
        let msg = err.to_string();
        assert!(
            matches!(err, CvError::Checkpoint(_)) && msg.contains("injected fault"),
            "{msg}"
        );
    }

    // The fired shot truncated the tmp file but never renamed it: the
    // tmp does not load (and is moved aside), while the real
    // checkpoint still passes its CRC. The fingerprint is the CV
    // sweep's, so asking for another one proves the file parsed.
    let err = Checkpoint::<6>::load(&tmp, "").unwrap_err();
    assert!(
        matches!(err, CheckpointError::Corrupt { .. }),
        "tmp file should be a truncated, unparseable write: {err}"
    );
    let tmp_quarantined = PathBuf::from(format!("{}.corrupt", tmp.display()));
    std::fs::remove_file(&tmp_quarantined).unwrap();
    match Checkpoint::<6>::load(&path, "") {
        Err(CheckpointError::MetaMismatch { found, .. }) => {
            assert!(found.starts_with("cv folds=2 "), "{found}")
        }
        other => panic!("real checkpoint must stay intact, got {other:?}"),
    }

    // A fault-free rerun resumes from the intact checkpoint (job 0
    // restored, job 1 recomputed) and reproduces the uninterrupted
    // bits exactly.
    let resumed = run_cv_resumable(data, &cfg, None, false, opts).unwrap();
    assert_eq!(bits(&uninterrupted), bits(&resumed));
    std::fs::remove_file(&path).unwrap();
}

/// Smoke test for the `FORUMCAST_FAULTS` env path (`scripts/check.sh`
/// runs this suite with `fold-panic:1` set). The spec must be one the
/// bounded retry can heal — that is the point of the smoke pass.
#[test]
fn env_fault_spec_is_honored_and_healed() {
    let data = shared_data();
    let spec = std::env::var(FAULTS_ENV)
        .ok()
        .filter(|s| !s.trim().is_empty())
        .unwrap_or_else(|| "fold-panic:0".to_string());
    for threads in [1, 2] {
        let cfg = quick_config(threads);
        let clean = run_cv(data, &cfg, None, false);
        let healed = run_cv_under(&spec, data, &cfg);
        assert_eq!(bits(&clean), bits(&healed), "{threads} thread(s)");
    }
}
