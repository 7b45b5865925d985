//! Runners for every table and figure in the paper's evaluation.
//!
//! | Module | Reproduces |
//! |---|---|
//! | [`table1`] | Table I — baselines vs. our models on all three tasks |
//! | [`fig3`] | Figure 3 — net votes vs. response time (no correlation) |
//! | [`fig4`] | Figure 4 — CDFs of selected features |
//! | [`fig5`] | Figure 5 — sensitivity to the number of topics `K` |
//! | [`fig6`] | Figure 6 — leave-one-feature-out importance |
//! | [`fig7`] | Figure 7 — feature groups × history length |
//!
//! (Figure 2's graph statistics are reproduced directly from
//! `forumcast_graph::GraphStats` by the `forumcast fig2` command.)

pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod table1;

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Mutex;

use forumcast_par::parallel_try_map;
use forumcast_resilience::fault::{self, FaultSite};
use forumcast_resilience::{reclaim_tmp, with_retry, Checkpoint, CheckpointError};

use crate::config::EvalConfig;
use crate::data::{ExperimentData, PairRecord};
use crate::fold::{run_fold, FoldOutcome, MaskSpec};
use crate::split::stratified_folds;

/// Attempts per fold before a sweep fails. Fold work is a pure
/// function of its inputs, so a retried fold reproduces the fault-free
/// result bit for bit.
const FOLD_ATTEMPTS: usize = 3;

/// Derives the checkpoint file for one sub-run of a multi-CV sweep:
/// `<base>` with `.<tag>.ckpt` appended. The figure drivers run many
/// independent CVs (per `K`, per excluded feature, per history
/// window); giving each its own file under one `--resume` base path
/// lets a restarted sweep skip every completed fold of every sub-run.
pub fn sub_checkpoint(base: Option<&Path>, tag: &str) -> Option<PathBuf> {
    base.map(|b| {
        let mut name = b.as_os_str().to_os_string();
        name.push(format!(".{tag}.ckpt"));
        PathBuf::from(name)
    })
}

/// A CV sweep failed despite retries.
#[derive(Debug, Clone)]
#[non_exhaustive]
pub enum CvError {
    /// The checkpoint file could not be used.
    Checkpoint(CheckpointError),
    /// One fold job kept panicking until its attempts ran out.
    FoldFailed {
        /// Job index (repeat × folds + fold).
        job: usize,
        /// Attempts that ran.
        attempts: usize,
        /// Last panic message.
        message: String,
    },
}

impl fmt::Display for CvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CvError::Checkpoint(e) => write!(f, "{e}"),
            CvError::FoldFailed {
                job,
                attempts,
                message,
            } => write!(
                f,
                "cv fold job {job} failed after {attempts} attempt(s): {message}"
            ),
        }
    }
}

impl std::error::Error for CvError {}

impl From<CheckpointError> for CvError {
    fn from(e: CheckpointError) -> Self {
        CvError::Checkpoint(e)
    }
}

/// Fingerprint stored in CV checkpoints: enough of the protocol to
/// refuse resuming a differently-configured run.
fn cv_fingerprint(
    config: &EvalConfig,
    mask: Option<MaskSpec>,
    run_baselines: bool,
    jobs: usize,
) -> String {
    format!(
        "cv folds={} repeats={} seed={} negs={} mask={:?} baselines={} jobs={} k={}",
        config.folds,
        config.repeats,
        config.seed,
        config.negatives_per_positive,
        mask,
        run_baselines,
        jobs,
        config.extractor.lda.num_topics
    )
}

/// A fold's six metrics in field order: what its checkpoint entry holds.
fn metrics(o: &FoldOutcome) -> [f64; 6] {
    [
        o.auc,
        o.auc_baseline,
        o.rmse_votes,
        o.rmse_votes_baseline,
        o.rmse_time,
        o.rmse_time_baseline,
    ]
}

/// Inverse of [`metrics`].
fn from_metrics(m: [f64; 6]) -> FoldOutcome {
    let [auc, auc_baseline, rmse_votes, rmse_votes_baseline, rmse_time, rmse_time_baseline] = m;
    FoldOutcome {
        auc,
        auc_baseline,
        rmse_votes,
        rmse_votes_baseline,
        rmse_time,
        rmse_time_baseline,
    }
}

/// Runs the paper's CV protocol (`repeats` × `folds` iterations,
/// stratified by user) over prepared experiment data, in parallel.
///
/// [`run_cv_resumable`] without a checkpoint (bounded per-fold retry
/// still applies), for callers without a resume path.
///
/// # Panics
///
/// Panics when a fold job exhausts its retry attempts.
pub fn run_cv(
    data: &ExperimentData,
    config: &EvalConfig,
    mask: Option<MaskSpec>,
    run_baselines: bool,
) -> Vec<FoldOutcome> {
    run_cv_resumable(data, config, mask, run_baselines, None)
        .unwrap_or_else(|e| panic!("cross-validation failed: {e}"))
}

/// [`run_cv`] with fault isolation and checkpoint/resume. Folds run
/// in parallel.
///
/// Each fold job runs under `catch_unwind` with bounded retry, and is
/// instrumented with the `fold-panic` fault site (unit = job index).
/// With a `checkpoint` path, every completed fold is appended to
/// the file atomically; on a rerun, recorded folds are skipped and
/// merged back in job order, so an interrupted sweep resumes to
/// output bitwise-identical to an uninterrupted one at any thread
/// count. The fold is the unit of resume: a fold interrupted part-way
/// recomputes from its start.
///
/// A checkpoint that cannot be trusted — CRC damage, the wrong shape,
/// or a file that is not a JSON checkpoint at all — is quarantined to `<path>.corrupt` and its folds recompute (counted
/// `eval.checkpoint.corrupt_recovered`); the run does not abort.
///
/// # Errors
///
/// Returns [`CvError::FoldFailed`] when a fold exhausts its attempts,
/// and [`CvError::Checkpoint`] when the checkpoint file is unreadable,
/// cannot be saved, or belongs to a different configuration.
pub fn run_cv_resumable(
    data: &ExperimentData,
    config: &EvalConfig,
    mask: Option<MaskSpec>,
    run_baselines: bool,
    checkpoint: Option<&Path>,
) -> Result<Vec<FoldOutcome>, CvError> {
    let _span = forumcast_obs::span("eval.run_cv");
    let users = |rs: &[PairRecord]| -> Vec<u32> { rs.iter().map(|r| r.user.0).collect() };
    let pos_groups = users(&data.positives);
    let neg_groups = users(&data.negatives);
    let mut jobs = Vec::new();
    for rep in 0..config.repeats {
        let mut rng = StdRng::seed_from_u64(config.seed ^ (0xC5 + rep as u64));
        let pos_folds = stratified_folds(&pos_groups, config.folds, &mut rng);
        let neg_folds = stratified_folds(&neg_groups, config.folds, &mut rng);
        for fold in 0..config.folds {
            jobs.push((pos_folds.clone(), neg_folds.clone(), fold));
        }
    }

    let meta = cv_fingerprint(config, mask, run_baselines, jobs.len());
    let mut outcomes: Vec<Option<FoldOutcome>> = vec![None; jobs.len()];
    let checkpoint = match checkpoint {
        Some(path) => {
            // A crash mid-save leaves `<path>.tmp` behind; the real
            // file (if any) is still the last complete save, so the
            // leftover is reclaimed (counted `ckpt.tmp.reclaimed`).
            reclaim_tmp(path);
            let cp = match Checkpoint::load(path, &meta) {
                Ok(found) => found.unwrap_or_else(|| Checkpoint::new(meta.clone())),
                // An unusable checkpoint was already quarantined to
                // `<path>.corrupt` by the loader: fall back to a
                // counted full recompute instead of aborting the run.
                Err(e @ CheckpointError::Corrupt { .. }) => {
                    forumcast_obs::counter_add("eval.checkpoint.corrupt_recovered", 1);
                    eprintln!("warning: checkpoint unusable, recomputing its folds: {e}");
                    Checkpoint::new(meta.clone())
                }
                Err(e) => return Err(e.into()),
            };
            for (unit, metrics) in &cp.entries {
                if let Some(slot) = outcomes.get_mut(*unit as usize) {
                    *slot = Some(from_metrics(*metrics));
                    forumcast_obs::mark("eval.checkpoint.hit", *unit);
                    forumcast_obs::counter_add("eval.checkpoint.folds_skipped", 1);
                }
            }
            Some((Mutex::new(cp), path))
        }
        None => None,
    };

    let pending: Vec<usize> = (0..jobs.len()).filter(|&i| outcomes[i].is_none()).collect();

    let fresh = parallel_try_map(&pending, config.worker_threads(), |&job| {
        // Detached span: its path roots at `eval.fold#job` whether the
        // job ran on a worker thread or inline, keeping canonical
        // event logs identical across thread counts.
        let _fold_span = forumcast_obs::task_span("eval.fold", job as u64);
        let (pf, nf, fold) = &jobs[job];
        let outcome = with_retry(&format!("cv fold job {job}"), FOLD_ATTEMPTS, || {
            fault::panic_point(FaultSite::FoldPanic, job as u64);
            run_fold(data, config, pf, nf, *fold, mask, run_baselines, None)
        })
        .map_err(|e| CvError::FoldFailed {
            job,
            attempts: e.attempts,
            message: e.message,
        })?;
        if let Some((cp, path)) = &checkpoint {
            let mut cp = cp.lock().expect("checkpoint lock");
            cp.record(job as u64, metrics(&outcome));
            cp.save(path)?;
        }
        Ok::<FoldOutcome, CvError>(outcome)
    })?;
    for (&job, outcome) in pending.iter().zip(fresh) {
        outcomes[job] = Some(outcome);
    }
    Ok(outcomes
        .into_iter()
        .map(|o| o.expect("every job completed or restored"))
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sub-run's checkpoint is the base path with `.<tag>.ckpt`
    /// appended.
    #[test]
    fn sub_checkpoint_appends_the_tag_and_ckpt_extension() {
        let base = Path::new("out/run.ckpt");
        assert_eq!(
            sub_checkpoint(Some(base), "k8"),
            Some(PathBuf::from("out/run.ckpt.k8.ckpt"))
        );
        assert_eq!(
            sub_checkpoint(Some(Path::new("cv")), "w3.g1"),
            Some(PathBuf::from("cv.w3.g1.ckpt"))
        );
        assert_eq!(sub_checkpoint(None, "ref"), None);
    }

    #[test]
    fn run_cv_yields_repeats_times_folds_outcomes() {
        let mut cfg = EvalConfig::quick();
        cfg.folds = 2;
        cfg.repeats = 2;
        let (ds, _) = cfg.synth.generate().preprocess();
        let data = ExperimentData::build(&ds, &cfg);
        let outcomes = run_cv(&data, &cfg, None, false);
        assert_eq!(outcomes.len(), 4);
        assert!(outcomes.iter().all(|o| o.auc > 0.0));
    }

    #[test]
    fn run_cv_identical_across_thread_counts() {
        let mut cfg = EvalConfig::quick();
        cfg.folds = 2;
        cfg.repeats = 1;
        let (ds, _) = cfg.synth.generate().preprocess();
        cfg.threads = 1;
        let data = ExperimentData::build(&ds, &cfg);
        let serial = run_cv(&data, &cfg, None, false);
        for threads in [2, 7] {
            cfg.threads = threads;
            let par = run_cv(&data, &cfg, None, false);
            assert_eq!(serial, par, "fold outcomes changed with {threads} threads");
        }
    }

    fn temp_checkpoint(name: &str) -> std::path::PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("forumcast-cv-{name}-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&p);
        p
    }

    #[test]
    fn checkpointed_run_is_identical_and_skips_on_rerun() {
        let mut cfg = EvalConfig::quick();
        cfg.folds = 2;
        cfg.repeats = 1;
        let (ds, _) = cfg.synth.generate().preprocess();
        let data = ExperimentData::build(&ds, &cfg);
        let plain = run_cv(&data, &cfg, None, false);
        let path = temp_checkpoint("skip");
        let opts = Some(path.as_path());
        let first = run_cv_resumable(&data, &cfg, None, false, opts).unwrap();
        assert_eq!(plain, first);
        // Rerun: every fold restored from the file. Corrupting the
        // recorded outcomes proves nothing was recomputed.
        let meta = cv_fingerprint(&cfg, None, false, 2);
        let mut cp = Checkpoint::<6>::load(&path, &meta).unwrap().unwrap();
        for (_, m) in cp.entries.iter_mut() {
            m[0] = 0.123;
        }
        cp.save(&path).unwrap();
        let resumed = run_cv_resumable(&data, &cfg, None, false, opts).unwrap();
        assert!(resumed.iter().all(|o| o.auc == 0.123));
        std::fs::remove_file(&path).unwrap();
    }

    /// Checkpoints carry this string, so it must stay what earlier
    /// builds wrote or their folds would be refused on resume. It
    /// last changed when checkpoints became JSON and the constant
    /// `sampler=dense` was dropped.
    #[test]
    fn fingerprint_matches_earlier_checkpoints() {
        assert_eq!(
            cv_fingerprint(&EvalConfig::quick(), None, true, 3),
            "cv folds=3 repeats=1 seed=59297 negs=1 mask=None baselines=true \
             jobs=3 k=4"
        );
    }

    #[test]
    fn checkpoint_from_other_configuration_is_refused() {
        let mut cfg = EvalConfig::quick();
        cfg.folds = 2;
        cfg.repeats = 1;
        let (ds, _) = cfg.synth.generate().preprocess();
        let data = ExperimentData::build(&ds, &cfg);
        let path = temp_checkpoint("meta");
        Checkpoint::<6>::new("other run").save(&path).unwrap();
        let err = run_cv_resumable(&data, &cfg, None, false, Some(&path)).unwrap_err();
        assert!(
            matches!(
                err,
                CvError::Checkpoint(CheckpointError::MetaMismatch { .. })
            ),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    /// A fold-level checkpoint that cannot be trusted — CRC damage,
    /// a file in the un-checksummed JSON layout of old builds, or a
    /// binary checkpoint from the builds after them — is quarantined
    /// by the loader and the sweep recomputes (counted) instead of
    /// aborting.
    #[test]
    fn corrupt_fold_checkpoint_recomputes_instead_of_aborting() {
        let mut cfg = EvalConfig::quick();
        cfg.folds = 2;
        cfg.repeats = 1;
        let (ds, _) = cfg.synth.generate().preprocess();
        let data = ExperimentData::build(&ds, &cfg);
        let clean = run_cv(&data, &cfg, None, false);
        let meta = cv_fingerprint(&cfg, None, false, 2);

        // The same two entries as JSON, the layout of old builds.
        let json_era = format!(
            r#"{{"meta":{},"entries":[[0,{}],[1,{}]]}}"#,
            serde_json::to_string(&meta).unwrap(),
            serde_json::to_string(&clean[0]).unwrap(),
            serde_json::to_string(&clean[1]).unwrap()
        );
        for name in ["crc", "json-era", "binary-era"] {
            let path = temp_checkpoint(&format!("corrupt-fold-ckpt-{name}"));
            let opts = Some(path.as_path());
            run_cv_resumable(&data, &cfg, None, false, opts).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            let crc_digit = bytes.len() - 2;
            match name {
                // Change the last digit of the stored CRC: the file
                // still parses, but its checksum no longer matches.
                "crc" => bytes[crc_digit] ^= 0x01,
                "json-era" => bytes = json_era.clone().into_bytes(),
                _ => bytes = b"FCSTBIN1\x01\x05junk".to_vec(),
            }
            std::fs::write(&path, &bytes).unwrap();

            let obs = forumcast_obs::arm();
            let resumed = run_cv_resumable(&data, &cfg, None, false, opts).unwrap();
            let log = forumcast_obs::drain().expect("collector armed");
            drop(obs);
            assert_eq!(
                clean, resumed,
                "{name}: recomputed run must match the clean one"
            );
            assert!(
                log.counters
                    .iter()
                    .any(|(n, v)| n == "eval.checkpoint.corrupt_recovered" && *v == 1),
                "{name}: the recompute must be counted"
            );
            let quarantined = std::path::PathBuf::from(format!("{}.corrupt", path.display()));
            assert!(
                quarantined.exists(),
                "{name}: corrupt checkpoint must be moved aside, not deleted"
            );
            std::fs::remove_file(&quarantined).unwrap();
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// A stale `<path>.tmp` left by a crash mid-save is reclaimed
    /// when the run restarts, before the checkpoint is read.
    #[test]
    fn stale_checkpoint_tmp_is_reclaimed_on_restart() {
        let mut cfg = EvalConfig::quick();
        cfg.folds = 2;
        cfg.repeats = 1;
        let (ds, _) = cfg.synth.generate().preprocess();
        let data = ExperimentData::build(&ds, &cfg);
        let path = temp_checkpoint("tmp-reclaim");
        let tmp = forumcast_resilience::tmp_path(&path);
        std::fs::write(&tmp, b"half-written checkpoint junk").unwrap();
        let opts = Some(path.as_path());
        run_cv_resumable(&data, &cfg, None, false, opts).unwrap();
        assert!(!tmp.exists(), "stale tmp must be reclaimed at startup");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn exhausted_fold_retries_surface_the_job_index() {
        let mut cfg = EvalConfig::quick();
        cfg.folds = 2;
        cfg.repeats = 1;
        let (ds, _) = cfg.synth.generate().preprocess();
        let data = ExperimentData::build(&ds, &cfg);
        let _guard = forumcast_resilience::FaultPlan::parse("fold-panic:1x3")
            .unwrap()
            .arm();
        let err = run_cv_resumable(&data, &cfg, None, false, None).unwrap_err();
        match err {
            CvError::FoldFailed { job, attempts, .. } => {
                assert_eq!(job, 1);
                assert_eq!(attempts, 3);
            }
            other => panic!("expected FoldFailed, got {other}"),
        }
    }
}
