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
//! `forumcast_graph::GraphStats` by the `fig2` bench binary.)

pub mod fig3;
pub mod fig4;
pub mod fig5;
pub mod fig6;
pub mod fig7;
pub mod table1;

use rand::rngs::StdRng;
use rand::SeedableRng;
use std::fmt;
use std::path::PathBuf;
use std::sync::Mutex;

use forumcast_par::parallel_try_map;
use forumcast_resilience::fault::{self, FaultSite};
use forumcast_resilience::{reclaim_tmp, with_retry, Checkpoint, CheckpointError};

use crate::config::EvalConfig;
use crate::data::{ExperimentData, RowSource, Side};
use crate::fold::{run_fold_on, FoldOutcome, MaskSpec};
use crate::split::stratified_folds;

/// Resilience options for a CV sweep.
#[derive(Debug, Clone)]
pub struct CvOptions {
    /// Checkpoint file: completed fold outcomes are saved here after
    /// every fold, and recorded folds are skipped on a rerun.
    pub checkpoint: Option<PathBuf>,
    /// Attempts per fold before the sweep fails (≥ 1). Fold work is a
    /// pure function of its inputs, so a retried fold reproduces the
    /// fault-free result bit for bit.
    pub fold_attempts: usize,
}

impl Default for CvOptions {
    fn default() -> Self {
        CvOptions {
            checkpoint: None,
            fold_attempts: 3,
        }
    }
}

impl CvOptions {
    /// Options writing to (and resuming from) `checkpoint`.
    pub fn with_checkpoint(path: impl Into<PathBuf>) -> Self {
        CvOptions {
            checkpoint: Some(path.into()),
            ..CvOptions::default()
        }
    }
}

/// Derives the checkpoint file for one sub-run of a multi-CV sweep:
/// `<base>` with `.<tag>.json` appended. The figure drivers run many
/// independent CVs (per `K`, per excluded feature, per history
/// window); giving each its own file under one `--resume` base path
/// lets a restarted sweep skip every completed fold of every sub-run.
pub fn sub_checkpoint(base: Option<&std::path::Path>, tag: &str) -> Option<PathBuf> {
    base.map(|b| {
        let mut name = b.as_os_str().to_os_string();
        name.push(format!(".{tag}.json"));
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
    /// The experiment's rows could not be read — a spilled
    /// (columnar on-disk) row file is torn, corrupt, or unreadable.
    /// Never retried: re-reading a damaged file cannot heal it.
    Data {
        /// What failed.
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
            CvError::Data { message } => write!(f, "cv experiment data unusable: {message}"),
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
        "cv folds={} repeats={} seed={} negs={} mask={:?} baselines={} jobs={} sampler={} k={}",
        config.folds,
        config.repeats,
        config.seed,
        config.negatives_per_positive,
        mask,
        run_baselines,
        jobs,
        config.extractor.lda.sampler,
        config.extractor.lda.num_topics
    )
}

/// Runs the paper's CV protocol (`repeats` × `folds` iterations,
/// stratified by user) over prepared experiment data, in parallel.
///
/// Equivalent to [`run_cv_resumable`] with default [`CvOptions`]
/// (bounded per-fold retry, no checkpoint); kept as the infallible
/// entry point for callers without a resume path.
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
    run_cv_resumable(data, config, mask, run_baselines, &CvOptions::default())
        .unwrap_or_else(|e| panic!("cross-validation failed: {e}"))
}

/// [`run_cv`] over any [`RowSource`] — resident or spilled rows —
/// with fault isolation and checkpoint/resume. Folds run in parallel
/// either way; a spilled fold streams its rows from disk, so peak
/// memory is one fold's working set per worker instead of the full
/// feature matrix. Outcomes are the same bits for both sources, and
/// the checkpoint fingerprint has no data-source term, so a sweep
/// checkpointed over one source resumes over the other.
///
/// Each fold job runs under `catch_unwind` with bounded retry, and is
/// instrumented with the `fold-panic` fault site (unit = job index).
/// With a checkpoint configured, every completed fold is appended to
/// the file atomically; on a rerun, recorded folds are skipped and
/// merged back in job order, so an interrupted sweep resumes to
/// output bitwise-identical to an uninterrupted one at any thread
/// count. The fold is the unit of resume: a fold interrupted part-way
/// recomputes from its start.
///
/// A checkpoint that cannot be trusted — CRC damage, an undecodable
/// entry, or a file that is not a checkpoint store at all — is
/// quarantined to `<path>.corrupt` and its folds recompute (counted
/// `eval.checkpoint.corrupt_recovered`); the run does not abort.
///
/// # Errors
///
/// Returns [`CvError::FoldFailed`] when a fold exhausts its attempts,
/// [`CvError::Checkpoint`] when the checkpoint file is unreadable,
/// cannot be saved, or belongs to a different configuration, and
/// [`CvError::Data`] when the rows cannot be read.
pub fn run_cv_resumable<S: RowSource>(
    rows: &S,
    config: &EvalConfig,
    mask: Option<MaskSpec>,
    run_baselines: bool,
    options: &CvOptions,
) -> Result<Vec<FoldOutcome>, CvError> {
    let _span = forumcast_obs::span("eval.run_cv");
    let pos_groups = rows.users(Side::Positives);
    let neg_groups = rows.users(Side::Negatives);
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
    let checkpoint = match &options.checkpoint {
        Some(path) => {
            // A crash mid-save leaves `<path>.tmp` behind; the real
            // file (if any) is still the last complete save, so the
            // leftover is reclaimed (counted `ckpt.tmp.reclaimed`).
            reclaim_tmp(path);
            let cp = match Checkpoint::<FoldOutcome>::load(path, &meta) {
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
            for (unit, outcome) in &cp.entries {
                if let Some(slot) = outcomes.get_mut(*unit as usize) {
                    *slot = Some(*outcome);
                    forumcast_obs::mark("eval.checkpoint.hit", *unit);
                    forumcast_obs::counter_add("eval.checkpoint.folds_skipped", 1);
                }
            }
            Some((Mutex::new(cp), path.clone()))
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
        // Retry is for panics; a read error is returned as a value
        // and fails the sweep on its first occurrence.
        let outcome = with_retry(&format!("cv fold job {job}"), options.fold_attempts, || {
            fault::panic_point(FaultSite::FoldPanic, job as u64);
            run_fold_on(rows, config, pf, nf, *fold, mask, run_baselines)
        })
        .map_err(|e| CvError::FoldFailed {
            job,
            attempts: e.attempts,
            message: e.message,
        })?
        .map_err(|e| CvError::Data {
            message: e.to_string(),
        })?;
        if let Some((cp, path)) = &checkpoint {
            let mut cp = cp.lock().expect("checkpoint lock");
            cp.record(job as u64, outcome);
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
    use crate::columnar::SpilledExperiment;

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

    /// The data-plane headline: the one CV driver over the spilled
    /// columnar experiment — parallel folds streaming their rows from
    /// disk — reproduces the resident sweep bit for bit, across
    /// repeats (each repeat re-derives its fold assignment from the
    /// same seeds) and at any thread count.
    #[test]
    fn streamed_cv_is_bitwise_identical_to_resident_cv() {
        let mut cfg = EvalConfig::quick();
        cfg.folds = 2;
        cfg.repeats = 2;
        let (ds, _) = cfg.synth.generate().preprocess();
        let data = ExperimentData::build(&ds, &cfg);
        let resident_bits: Vec<u64> = run_cv(&data, &cfg, None, false)
            .iter()
            .flat_map(outcome_bits)
            .collect();

        let dir = temp_spill("bitwise");
        let spilled = SpilledExperiment::spill(&data, &cfg, &dir).unwrap();
        for threads in [1, 2, 7] {
            cfg.threads = threads;
            let streamed =
                run_cv_resumable(&spilled, &cfg, None, false, &CvOptions::default()).unwrap();
            let streamed_bits: Vec<u64> = streamed.iter().flat_map(outcome_bits).collect();
            assert_eq!(resident_bits, streamed_bits, "{threads} threads");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Damage a row file: the parallel sweep surfaces a typed data
    /// error on the first read instead of retrying or computing on a
    /// short experiment.
    #[test]
    fn truncated_row_file_fails_the_sweep_as_a_data_error() {
        let mut cfg = EvalConfig::quick();
        cfg.folds = 2;
        cfg.repeats = 1;
        cfg.threads = 2;
        let (ds, _) = cfg.synth.generate().preprocess();
        let data = ExperimentData::build(&ds, &cfg);
        let dir = temp_spill("torn");
        let spilled = SpilledExperiment::spill(&data, &cfg, &dir).unwrap();
        let pos = dir.join("pos.fcr");
        let bytes = std::fs::read(&pos).unwrap();
        std::fs::write(&pos, &bytes[..bytes.len() - 7]).unwrap();
        let err = run_cv_resumable(&spilled, &cfg, None, false, &CvOptions::default()).unwrap_err();
        assert!(matches!(err, CvError::Data { .. }), "{err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A streamed run killed at a fold (no in-process retry) resumes
    /// from its fold-level checkpoint to the resident run's bits.
    #[test]
    fn streamed_fold_kill_then_resume_matches_resident() {
        let mut cfg = EvalConfig::quick();
        cfg.folds = 2;
        cfg.repeats = 1;
        let (ds, _) = cfg.synth.generate().preprocess();
        let data = ExperimentData::build(&ds, &cfg);
        let clean = run_cv(&data, &cfg, None, false);
        let dir = temp_spill("foldkill");
        let spilled = SpilledExperiment::spill(&data, &cfg, &dir).unwrap();

        let path = temp_checkpoint("streamed-foldkill");
        let mut opts = CvOptions::with_checkpoint(&path);
        // fold_attempts = 1: the injected panic at fold job 1 kills
        // the whole run, the in-process analogue of a SIGKILL.
        opts.fold_attempts = 1;
        {
            let _guard = forumcast_resilience::FaultPlan::parse("fold-panic:1")
                .unwrap()
                .arm();
            let err = run_cv_resumable(&spilled, &cfg, None, false, &opts).unwrap_err();
            assert!(matches!(err, CvError::FoldFailed { job: 1, .. }), "{err}");
        }

        let resumed = run_cv_resumable(&spilled, &cfg, None, false, &opts).unwrap();
        let clean_bits: Vec<u64> = clean.iter().flat_map(outcome_bits).collect();
        let resumed_bits: Vec<u64> = resumed.iter().flat_map(outcome_bits).collect();
        assert_eq!(clean_bits, resumed_bits);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The fingerprint has no data-source term: a fold-level
    /// checkpoint written by a resident run resumes a streamed one,
    /// and the restored folds are the resident run's outcomes.
    #[test]
    fn resident_checkpoint_resumes_a_streamed_run() {
        let mut cfg = EvalConfig::quick();
        cfg.folds = 2;
        cfg.repeats = 1;
        let (ds, _) = cfg.synth.generate().preprocess();
        let data = ExperimentData::build(&ds, &cfg);
        let path = temp_checkpoint("resident-to-streamed");
        let opts = CvOptions::with_checkpoint(&path);
        let resident = run_cv_resumable(&data, &cfg, None, false, &opts).unwrap();

        // Mark the recorded outcomes: a restored fold carries the mark,
        // a recomputed one would not.
        let meta = cv_fingerprint(&cfg, None, false, 2);
        let mut cp = Checkpoint::<FoldOutcome>::load(&path, &meta)
            .unwrap()
            .unwrap();
        cp.entries.retain(|(unit, _)| *unit == 0);
        cp.entries[0].1.auc = 0.123;
        cp.save(&path).unwrap();

        let dir = temp_spill("resume");
        let spilled = SpilledExperiment::spill(&data, &cfg, &dir).unwrap();
        let streamed = run_cv_resumable(&spilled, &cfg, None, false, &opts).unwrap();
        assert_eq!(
            streamed[0].auc, 0.123,
            "fold 0 restored from the checkpoint"
        );
        assert_eq!(outcome_bits(&streamed[1]), outcome_bits(&resident[1]));
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
    }

    fn temp_spill(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("forumcast-cv-spill-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
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
        let opts = CvOptions::with_checkpoint(&path);
        let first = run_cv_resumable(&data, &cfg, None, false, &opts).unwrap();
        assert_eq!(plain, first);
        // Rerun: every fold restored from the file. Corrupting the
        // recorded outcomes proves nothing was recomputed.
        let meta = cv_fingerprint(&cfg, None, false, 2);
        let mut cp = Checkpoint::<FoldOutcome>::load(&path, &meta)
            .unwrap()
            .unwrap();
        for (_, o) in cp.entries.iter_mut() {
            o.auc = 0.123;
        }
        cp.save(&path).unwrap();
        let resumed = run_cv_resumable(&data, &cfg, None, false, &opts).unwrap();
        assert!(resumed.iter().all(|o| o.auc == 0.123));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn checkpoint_from_other_configuration_is_refused() {
        let mut cfg = EvalConfig::quick();
        cfg.folds = 2;
        cfg.repeats = 1;
        let (ds, _) = cfg.synth.generate().preprocess();
        let data = ExperimentData::build(&ds, &cfg);
        let path = temp_checkpoint("meta");
        Checkpoint::<FoldOutcome>::new("other run")
            .save(&path)
            .unwrap();
        let err = run_cv_resumable(&data, &cfg, None, false, &CvOptions::with_checkpoint(&path))
            .unwrap_err();
        assert!(
            matches!(
                err,
                CvError::Checkpoint(CheckpointError::MetaMismatch { .. })
            ),
            "{err}"
        );
        std::fs::remove_file(&path).unwrap();
    }

    fn outcome_bits(o: &FoldOutcome) -> Vec<u64> {
        [
            o.auc,
            o.auc_baseline,
            o.rmse_votes,
            o.rmse_votes_baseline,
            o.rmse_time,
            o.rmse_time_baseline,
        ]
        .iter()
        .map(|x| x.to_bits())
        .collect()
    }

    /// A fold-level checkpoint that cannot be trusted — CRC damage,
    /// or a file in the JSON layout of old builds — is quarantined by
    /// the loader and the sweep recomputes (counted) instead of
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
        for name in ["crc", "json-era"] {
            let path = temp_checkpoint(&format!("corrupt-fold-ckpt-{name}"));
            let opts = CvOptions::with_checkpoint(&path);
            run_cv_resumable(&data, &cfg, None, false, &opts).unwrap();
            let mut bytes = std::fs::read(&path).unwrap();
            if name == "crc" {
                // Flip a bit in the last frame's CRC: the frame is
                // complete but its checksum no longer matches.
                *bytes.last_mut().unwrap() ^= 0x08;
            } else {
                bytes = json_era.clone().into_bytes();
            }
            std::fs::write(&path, &bytes).unwrap();

            let obs = forumcast_obs::arm();
            let resumed = run_cv_resumable(&data, &cfg, None, false, &opts).unwrap();
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
        let tmp = forumcast_store::tmp_path(&path);
        std::fs::write(&tmp, b"half-written checkpoint junk").unwrap();
        let opts = CvOptions::with_checkpoint(&path);
        run_cv_resumable(&data, &cfg, None, false, &opts).unwrap();
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
        let err = run_cv_resumable(&data, &cfg, None, false, &CvOptions::default()).unwrap_err();
        match err {
            CvError::FoldFailed { job, attempts, .. } => {
                assert_eq!(job, 1);
                assert_eq!(attempts, 3);
            }
            other => panic!("expected FoldFailed, got {other}"),
        }
    }
}
