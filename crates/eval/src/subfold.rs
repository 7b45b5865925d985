//! Sub-fold (mid-training) checkpoint plumbing for resumable CV.
//!
//! A [`SubfoldHandle`] binds one fold job to its on-disk
//! [`TrainCheckpoint`] file: `<base>.fold<job>.train.ckpt` (framed
//! binary), next to the fold-level checkpoint at `<base>`. While the fold trains,
//! the handle persists every `snapshot_every`-th epoch's
//! [`TrainProgress`] atomically; when the fold is re-run after a
//! crash, the handle loads the latest snapshot back and the trainer
//! fast-forwards through the recorded epochs to a bitwise-identical
//! trajectory. A completed fold discards its file — the fold-level
//! checkpoint now carries the outcome.
//!
//! A handle also *reads* the legacy `<base>.fold<job>.train.json`
//! path left behind by a JSON-era build, so an in-flight resume
//! survives the format switch; new snapshots are always binary.
//!
//! Failure policy, per layer:
//!
//! * missing file — fresh fold, train from scratch;
//! * corrupt / truncated file — **never trusted**: quarantined to
//!   `<file>.corrupt` by the loader, counted under
//!   `eval.subfold.corrupt`, and ignored, falling back to a
//!   fold-start recompute (which still reproduces the uninterrupted
//!   run);
//! * stale fingerprint (file from a differently-configured run) — a
//!   hard [`CheckpointError::Stale`] error, surfaced *before* any
//!   fold work starts so the operator sees the remedy immediately;
//! * failed save — best-effort: counted under
//!   `eval.subfold.save_failed`, training continues (the fold merely
//!   loses resume granularity).

use std::path::{Path, PathBuf};
use std::time::Instant;

use forumcast_core::TrainProgress;
use forumcast_resilience::fault::{self, FaultSite};
use forumcast_resilience::{reclaim_tmp, CheckpointError, TrainCheckpoint};

/// One fold job's sub-fold checkpoint binding. See the module docs
/// for the failure policy.
#[derive(Debug)]
pub struct SubfoldHandle {
    path: PathBuf,
    /// Legacy JSON snapshot path, read (never written) so resumes
    /// survive the format migration.
    legacy_path: PathBuf,
    fingerprint: String,
    snapshot_every: usize,
    /// Fault unit for both the post-save kill probe (`fold-panic`)
    /// and the save-failure probes (`ckpt-write`, `torn-write`,
    /// `bit-flip`, `fsync-fail`): total job count + job index,
    /// disjoint from the fold-level unit spaces.
    kill_unit: u64,
}

impl SubfoldHandle {
    /// Binds fold `job` of the run fingerprinted by `cv_meta` to its
    /// snapshot file under `base` (the fold-level checkpoint path).
    /// `kill_unit` is the fault-probe unit (total jobs + job index).
    ///
    /// The fingerprint deliberately excludes the snapshot cadence:
    /// it does not perturb training, so resuming under a changed
    /// cadence still reproduces the uninterrupted run.
    pub fn new(
        base: &Path,
        job: usize,
        cv_meta: &str,
        snapshot_every: usize,
        kill_unit: u64,
    ) -> Self {
        let suffixed = |ext: &str| {
            let mut name = base.as_os_str().to_os_string();
            name.push(format!(".fold{job}.train.{ext}"));
            PathBuf::from(name)
        };
        SubfoldHandle {
            path: suffixed("ckpt"),
            legacy_path: suffixed("json"),
            fingerprint: format!("subfold-v1 job={job} {cv_meta}"),
            snapshot_every,
            kill_unit,
        }
    }

    /// The snapshot file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The snapshot cadence (epochs between saves; never 0 for a
    /// handle the CV driver constructs).
    pub fn snapshot_every(&self) -> usize {
        self.snapshot_every
    }

    /// The paths a resume may read: the primary path first, then the
    /// legacy JSON path a pre-migration build would have written.
    fn read_paths(&self) -> [&Path; 2] {
        [&self.path, &self.legacy_path]
    }

    /// Pre-flight check run before any fold work: surfaces a stale
    /// snapshot (wrong fingerprint) as a hard error carrying the
    /// path, both fingerprints, and the remedy. Every other state —
    /// missing, corrupt, valid — is acceptable here and resolved by
    /// [`load`](Self::load).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Stale`] exactly when a snapshot
    /// file (primary or legacy) exists, parses, and belongs to a
    /// different run.
    pub fn check(&self) -> Result<(), CheckpointError> {
        for path in self.read_paths() {
            if let Err(e @ CheckpointError::Stale { .. }) =
                TrainCheckpoint::<TrainProgress>::load(path, &self.fingerprint)
            {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Loads the resume snapshot, if a trustworthy one exists,
    /// preferring the primary path and falling back to the legacy
    /// JSON one. A stale `.tmp` leftover from a crash mid-save is
    /// reclaimed first. Corrupt or unreadable files are counted
    /// (`eval.subfold.corrupt`) and skipped — with no usable
    /// snapshot the fold recomputes from its start, which is always
    /// safe. Per-read time lands in the `ckpt.subfold.read_ms`
    /// latency histogram (p50/p99 in the timing summary).
    pub fn load(&self) -> Option<TrainProgress> {
        reclaim_tmp(&self.path);
        let started = Instant::now();
        let mut found = None;
        for path in self.read_paths() {
            match TrainCheckpoint::<TrainProgress>::load(path, &self.fingerprint) {
                Ok(Some(cp)) => {
                    found = Some(cp.payload);
                    break;
                }
                Ok(None) => {}
                Err(e) => {
                    forumcast_obs::counter_add("eval.subfold.corrupt", 1);
                    forumcast_obs::mark("eval.subfold.corrupt", self.kill_unit);
                    eprintln!("warning: ignoring unusable sub-fold checkpoint: {e}");
                }
            }
        }
        forumcast_obs::observe(
            "ckpt.subfold.read_ms",
            u64::try_from(started.elapsed().as_millis()).unwrap_or(u64::MAX),
        );
        found
    }

    /// Persists `progress` atomically, then
    /// probes the mid-training kill site (`fold-panic` at
    /// `kill_unit`) — the injected analogue of a crash landing right
    /// after a snapshot hits disk. Save failures are best-effort
    /// (counted, training continues).
    pub fn save(&self, progress: &TrainProgress) {
        match TrainCheckpoint::new(&*self.fingerprint, progress.clone())
            .save(&self.path, self.kill_unit)
        {
            Ok(()) => {}
            Err(e) => {
                forumcast_obs::counter_add("eval.subfold.save_failed", 1);
                eprintln!("warning: sub-fold checkpoint save failed (continuing): {e}");
            }
        }
        fault::panic_point(FaultSite::FoldPanic, self.kill_unit);
    }

    /// Removes the snapshot file (and any legacy-format leftover)
    /// once the fold completes — its result now lives in the
    /// fold-level checkpoint.
    pub fn discard(&self) {
        for path in self.read_paths() {
            let _ = std::fs::remove_file(path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_base(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!(
            "forumcast-subfold-{name}-{}.json",
            std::process::id()
        ));
        p
    }

    fn handle(base: &Path) -> SubfoldHandle {
        SubfoldHandle::new(base, 3, "cv folds=2 seed=1", 25, 10)
    }

    #[test]
    fn path_nests_under_the_fold_checkpoint_base() {
        let base = temp_base("path");
        let h = handle(&base);
        let expected = format!("{}.fold3.train.ckpt", base.display());
        assert_eq!(h.path().display().to_string(), expected);
    }

    #[test]
    fn save_load_discard_roundtrip() {
        let base = temp_base("roundtrip");
        let h = handle(&base);
        assert!(h.load().is_none(), "fresh handle has no snapshot");
        h.save(&TrainProgress::default());
        assert!(h.check().is_ok());
        assert!(h.load().is_some());
        h.discard();
        assert!(h.load().is_none());
    }

    #[test]
    fn corrupt_snapshot_is_ignored_not_trusted() {
        let base = temp_base("corrupt");
        let h = handle(&base);
        h.save(&TrainProgress::default());
        // Flip a bit in the last frame's CRC: the frame checksum
        // catches it and the loader quarantines the file rather than
        // trusting the contents.
        let mut bad = std::fs::read(h.path()).unwrap();
        *bad.last_mut().unwrap() ^= 0x10;
        std::fs::write(h.path(), &bad).unwrap();
        assert!(h.check().is_ok(), "corrupt is not stale");
        assert!(h.load().is_none());
        let quarantined = std::path::PathBuf::from(format!("{}.corrupt", h.path().display()));
        assert!(quarantined.exists(), "corrupt snapshot is moved aside");
        std::fs::remove_file(&quarantined).unwrap();
        h.discard();
    }

    #[test]
    fn legacy_json_snapshot_is_read_by_a_binary_handle() {
        let base = temp_base("legacy");
        let h = handle(&base);
        // A JSON-era build wrote the snapshot through the serde shim.
        let old = TrainCheckpoint::new(&*h.fingerprint, TrainProgress::default());
        std::fs::write(&h.legacy_path, serde_json::to_string_pretty(&old).unwrap()).unwrap();
        assert!(h.check().is_ok());
        assert!(
            h.load().is_some(),
            "the handle must fall back to the legacy JSON snapshot"
        );
        h.discard();
        assert!(
            !h.legacy_path.exists(),
            "discard removes the legacy file too"
        );
    }

    #[test]
    fn stale_tmp_leftover_is_reclaimed_on_load() {
        let base = temp_base("tmpreclaim");
        let h = handle(&base);
        let tmp = h.path().with_extension("tmp");
        std::fs::write(&tmp, b"half-written junk").unwrap();
        assert!(h.load().is_none());
        assert!(!tmp.exists(), "load must reclaim the stale tmp file");
    }

    #[test]
    fn stale_snapshot_fails_the_preflight_check() {
        let base = temp_base("stale");
        let writer = SubfoldHandle::new(&base, 3, "cv folds=5 seed=9", 25, 10);
        writer.save(&TrainProgress::default());
        let reader = handle(&base);
        let err = reader.check().unwrap_err();
        assert!(matches!(err, CheckpointError::Stale { .. }), "{err}");
        assert!(err.to_string().contains("--resume"), "{err}");
        writer.discard();
    }
}
