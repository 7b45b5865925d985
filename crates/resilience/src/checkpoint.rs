//! Checkpoint files for resumable sweeps.
//!
//! A [`Checkpoint`] records `(unit index, result)` entries — one per
//! completed work item, e.g. one CV fold — plus a free-form `meta`
//! fingerprint describing the run configuration. Drivers save the
//! checkpoint after every completed item (atomically: write to a
//! temporary file, fsync, then rename) and, on resume, load it back,
//! verify the fingerprint, and skip the recorded units. Because every
//! unit is a pure function of its inputs, merging checkpointed and
//! freshly computed results reproduces an uninterrupted run bit for
//! bit.
//!
//! # Format
//!
//! Checkpoints are written in the framed binary store from
//! `forumcast-store`: a CRC-guarded header carrying the fingerprint,
//! then one CRC-guarded frame per entry. Torn tails truncate to the
//! valid entry prefix (the lost tail is recomputed); any CRC mismatch
//! quarantines the file to `<path>.corrupt` and surfaces as
//! [`CheckpointError::Corrupt`]. So does a file that is not a store
//! at all (no store magic), whatever wrote it.
//!
//! # Fault sites
//!
//! Saves probe four sites (unit = the caller's save unit):
//! `ckpt-write` (truncated tmp, error before rename — the legacy
//! crash-mid-write), `torn-write` (final frame cut *after* a
//! successful rename), `bit-flip` (one payload bit flipped
//! post-rename), and `fsync-fail` (save errors at the sync step, old
//! checkpoint intact).

use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::path::Path;

use crate::fault::{self, FaultSite};
use forumcast_store::{
    decode_value, encode_value, tmp_path, Corruption, SaveOptions, StoreError, StoreFile,
};

pub use forumcast_store::reclaim_tmp;

/// Builds the [`SaveOptions`] for one save by probing the
/// media-damage fault sites at `unit`. `torn-write` and `bit-flip`
/// complete the save and plant damage for the next reader;
/// `fsync-fail` makes the save itself error.
fn injected_save_options(unit: u64) -> SaveOptions {
    let mut opts = SaveOptions::default();
    if fault::fires(FaultSite::TornWrite, unit) {
        opts.corruption = Some(Corruption::TearLastFrame);
    }
    if fault::fires(FaultSite::BitFlip, unit) {
        opts.corruption = Some(Corruption::FlipPayloadBit { bit: unit });
    }
    if fault::fires(FaultSite::FsyncFail, unit) {
        opts.fail_sync = Some(format!("{} fsync-fail:{unit}", fault::INJECTED_PREFIX));
    }
    opts
}

fn store_io_err(path: &Path, e: StoreError) -> CheckpointError {
    CheckpointError::Io {
        path: path.display().to_string(),
        message: e.to_string(),
    }
}

/// The legacy `ckpt-write` fault: leave a truncated tmp behind and
/// fail before the rename, exactly what a disk-full or power cut
/// mid-write does. Returns the error to surface when fired; `bytes`
/// is lazy so the unfired fast path costs one atomic load.
fn ckpt_write_fault(
    path: &Path,
    unit: u64,
    bytes: impl FnOnce() -> Vec<u8>,
) -> Option<CheckpointError> {
    if fault::fires(FaultSite::CkptWrite, unit) {
        let bytes = bytes();
        let _ = std::fs::write(tmp_path(path), &bytes[..bytes.len() / 2]);
        Some(CheckpointError::Io {
            path: path.display().to_string(),
            message: format!("{} ckpt-write:{unit}", fault::INJECTED_PREFIX),
        })
    } else {
        None
    }
}

/// Completed-unit log for one resumable run.
///
/// Generic over the per-unit result type; the serde shim's derive
/// does not handle generics, so `Serialize`/`Deserialize` are
/// implemented by hand over the shim's [`Value`] model.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint<T> {
    /// Fingerprint of the run configuration. [`Checkpoint::load`]
    /// refuses to resume when it does not match, so a checkpoint from
    /// a differently-configured run can never be silently merged.
    pub meta: String,
    /// `(unit index, result)` pairs, in completion order.
    pub entries: Vec<(u64, T)>,
}

impl<T> Checkpoint<T> {
    /// An empty checkpoint for a run described by `meta`.
    pub fn new(meta: impl Into<String>) -> Self {
        Checkpoint {
            meta: meta.into(),
            entries: Vec::new(),
        }
    }

    /// Records the result for `unit`, replacing any earlier entry.
    pub fn record(&mut self, unit: u64, result: T) {
        match self.entries.iter_mut().find(|(u, _)| *u == unit) {
            Some(slot) => slot.1 = result,
            None => self.entries.push((unit, result)),
        }
    }

    /// The recorded result for `unit`, if any.
    pub fn get(&self, unit: u64) -> Option<&T> {
        self.entries
            .iter()
            .find(|(u, _)| *u == unit)
            .map(|(_, r)| r)
    }
}

impl<T: Serialize> Checkpoint<T> {
    /// Atomically and durably saves the checkpoint: writes
    /// [`tmp_path`]`(path)`, fsyncs, renames over `path`, fsyncs the parent
    /// directory — a crash mid-write never corrupts an existing
    /// checkpoint, and a completed save survives power loss.
    ///
    /// Probes the `ckpt-write`, `torn-write`, `bit-flip`, and
    /// `fsync-fail` fault sites at unit = number of recorded entries.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on filesystem failure
    /// (including the injected `ckpt-write`/`fsync-fail` faults).
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let unit = self.entries.len() as u64;
        // One frame per entry: a torn tail costs only the last
        // entries, which resume recomputes.
        let frames: Vec<Vec<u8>> = self
            .entries
            .iter()
            .map(|(u, r)| encode_value(&Value::Array(vec![Value::U64(*u), r.to_value()])))
            .collect();
        let store = StoreFile::new(&self.meta, frames);
        if let Some(err) = ckpt_write_fault(path, unit, || store.encode()) {
            return Err(err);
        }
        // Transient failures (an injected or real fsync error) cost a
        // counted, deterministically-backed-off retry, not the save;
        // the options are re-probed per attempt so bounded fault shots
        // drain across retries.
        crate::retry::save_with_retry(|_| store.save(path, &injected_save_options(unit)))
            .map_err(|e| store_io_err(path, e))?;
        forumcast_obs::counter_add("ckpt.saves", 1);
        Ok(())
    }
}

impl<T: Deserialize> Checkpoint<T> {
    /// Loads a checkpoint, verifying its meta fingerprint. `Ok(None)`
    /// when `path` does not exist (a fresh run).
    ///
    /// Corruption policy: a torn tail silently yields the valid entry
    /// prefix (counted `store.frame.torn` — resume recomputes the lost
    /// tail); a CRC mismatch, an undecodable entry or a file that is
    /// not a store quarantines the file to `<path>.corrupt` (counted
    /// `ckpt.corrupt.quarantined`) and returns
    /// [`CheckpointError::Corrupt`].
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on unreadable files,
    /// [`CheckpointError::Corrupt`] on damage, and
    /// [`CheckpointError::MetaMismatch`] when the file belongs to a
    /// differently-configured run.
    pub fn load(path: &Path, expected_meta: &str) -> Result<Option<Self>, CheckpointError> {
        let store = match StoreFile::load(path) {
            Ok(store) => store,
            Err(StoreError::Io { source, .. }) if source.kind() == std::io::ErrorKind::NotFound => {
                return Ok(None)
            }
            Err(e) => return Err(load_error(path, e)),
        };
        let mut entries = Vec::with_capacity(store.frames.len());
        for (i, frame) in store.frames.iter().enumerate() {
            entries.push(decode_entry::<T>(path, i, frame)?);
        }
        if store.fingerprint != expected_meta {
            return Err(CheckpointError::MetaMismatch {
                path: path.display().to_string(),
                expected: expected_meta.to_string(),
                found: store.fingerprint,
            });
        }
        Ok(Some(Checkpoint {
            meta: store.fingerprint,
            entries,
        }))
    }
}

/// Translates a store-level load failure into a checkpoint error. The
/// store has already counted and quarantined CRC damage; a file
/// without the store magic is quarantined here, so a resume recomputes
/// instead of tripping over the same file again.
fn load_error(path: &Path, e: StoreError) -> CheckpointError {
    match e {
        StoreError::Io { source, .. } => CheckpointError::Io {
            path: path.display().to_string(),
            message: source.to_string(),
        },
        other => {
            if matches!(other, StoreError::NotAStore { .. }) {
                forumcast_store::quarantine(path);
            }
            CheckpointError::Corrupt {
                path: path.display().to_string(),
                message: other.to_string(),
            }
        }
    }
}

/// Decodes one `(unit, result)` checkpoint frame. A frame that
/// passed its CRC but fails decoding means schema drift, not media
/// damage — still quarantined so resume falls back to recompute
/// instead of looping on the same bad file.
fn decode_entry<T: Deserialize>(
    path: &Path,
    index: usize,
    frame: &[u8],
) -> Result<(u64, T), CheckpointError> {
    let corrupt = |message: String| {
        forumcast_store::quarantine(path);
        CheckpointError::Corrupt {
            path: path.display().to_string(),
            message,
        }
    };
    let value = decode_value(frame).map_err(|e| corrupt(format!("entry frame {index}: {e}")))?;
    let Value::Array(parts) = &value else {
        return Err(corrupt(format!("entry frame {index}: not a pair")));
    };
    let (Some(unit_v), Some(result_v), 2) = (parts.first(), parts.get(1), parts.len()) else {
        return Err(corrupt(format!("entry frame {index}: not a pair")));
    };
    let unit = match unit_v {
        Value::U64(u) => *u,
        Value::I64(u) if *u >= 0 => *u as u64,
        _ => return Err(corrupt(format!("entry frame {index}: bad unit index"))),
    };
    let result =
        T::from_value(result_v).map_err(|e| corrupt(format!("entry frame {index}: {e}")))?;
    Ok((unit, result))
}

/// Failure loading or saving a [`Checkpoint`].
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum CheckpointError {
    /// Filesystem read/write failed.
    Io {
        /// Checkpoint path.
        path: String,
        /// Underlying error.
        message: String,
    },
    /// The file exists but is not a valid checkpoint.
    Corrupt {
        /// Checkpoint path.
        path: String,
        /// Parse error.
        message: String,
    },
    /// The file belongs to a run with a different configuration.
    MetaMismatch {
        /// Checkpoint path.
        path: String,
        /// Fingerprint of the current run.
        expected: String,
        /// Fingerprint stored in the file.
        found: String,
    },
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io { path, message } => {
                write!(f, "checkpoint {path}: i/o error: {message}")
            }
            CheckpointError::Corrupt { path, message } => {
                write!(f, "checkpoint {path}: corrupt: {message}")
            }
            CheckpointError::MetaMismatch {
                path,
                expected,
                found,
            } => write!(
                f,
                "checkpoint {path}: belongs to a different run (expected `{expected}`, found `{found}`); \
                 delete it or pass a matching configuration"
            ),
        }
    }
}

impl std::error::Error for CheckpointError {}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fault::FaultPlan;
    use std::path::PathBuf;

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("forumcast-ckpt-{name}-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(p.with_extension("ckpt.corrupt"));
        p
    }

    #[test]
    fn save_load_roundtrip_preserves_entries_bitwise() {
        let path = temp_path("roundtrip");
        let mut cp: Checkpoint<f64> = Checkpoint::new("run A");
        cp.record(3, 0.1 + 0.2);
        cp.record(1, f64::MIN_POSITIVE);
        cp.save(&path).unwrap();
        let head = std::fs::read(&path).unwrap();
        assert!(
            head.starts_with(&forumcast_store::MAGIC),
            "save must write the binary store format"
        );
        let back = Checkpoint::<f64>::load(&path, "run A").unwrap().unwrap();
        assert_eq!(back.meta, "run A");
        assert_eq!(back.entries.len(), 2);
        for ((u, x), (bu, bx)) in cp.entries.iter().zip(&back.entries) {
            assert_eq!(u, bu);
            assert_eq!(x.to_bits(), bx.to_bits());
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn record_replaces_existing_unit() {
        let mut cp: Checkpoint<i32> = Checkpoint::new("m");
        cp.record(5, 1);
        cp.record(5, 2);
        assert_eq!(cp.entries.len(), 1);
        assert_eq!(cp.get(5), Some(&2));
        assert_eq!(cp.get(6), None);
    }

    #[test]
    fn missing_file_loads_as_none() {
        let path = temp_path("missing");
        assert_eq!(Checkpoint::<f64>::load(&path, "m").unwrap(), None);
    }

    #[test]
    fn meta_mismatch_is_refused() {
        let path = temp_path("meta");
        Checkpoint::<i32>::new("run A").save(&path).unwrap();
        let err = Checkpoint::<i32>::load(&path, "run B").unwrap_err();
        assert!(matches!(err, CheckpointError::MetaMismatch { .. }), "{err}");
        assert!(err.to_string().contains("run B"));
        assert!(path.exists(), "meta mismatch must not quarantine");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn non_store_file_is_reported_as_corrupt_and_quarantined() {
        // Garbage, and a well-formed checkpoint in the JSON layout of
        // old builds: neither is a store, so both are damage.
        for bytes in ["{ not json", r#"{"meta":"m","entries":[[0,7]]}"#] {
            let path = temp_path("corrupt");
            std::fs::write(&path, bytes).unwrap();
            let err = Checkpoint::<i32>::load(&path, "m").unwrap_err();
            assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
            assert!(err.to_string().contains("forumcast-ckpt-corrupt"));
            let quarantined = path.with_extension("ckpt.corrupt");
            assert!(quarantined.exists(), "a non-store file must be moved aside");
            assert!(!path.exists());
            std::fs::remove_file(&quarantined).unwrap();
        }
    }

    #[test]
    fn torn_write_fault_loses_only_the_tail_entries() {
        let path = temp_path("torn-write");
        let mut cp: Checkpoint<i32> = Checkpoint::new("m");
        cp.record(0, 10);
        cp.record(1, 11);
        cp.record(2, 12);
        {
            let _guard = FaultPlan::parse("torn-write:3").unwrap().arm();
            // Save succeeds: the tear is post-rename media damage.
            cp.save(&path).unwrap();
        }
        let back = Checkpoint::<i32>::load(&path, "m").unwrap().unwrap();
        assert_eq!(back.entries, vec![(0, 10), (1, 11)]);
        assert!(
            path.exists(),
            "torn checkpoint is truncated, not quarantined"
        );
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn bit_flip_fault_is_detected_and_quarantined() {
        let path = temp_path("bit-flip");
        let mut cp: Checkpoint<f64> = Checkpoint::new("m");
        cp.record(0, 1.0);
        cp.record(1, 2.0);
        {
            let _guard = FaultPlan::parse("bit-flip:2").unwrap().arm();
            cp.save(&path).unwrap();
        }
        let err = Checkpoint::<f64>::load(&path, "m").unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("CRC mismatch"), "{err}");
        let quarantined = path.with_extension("ckpt.corrupt");
        assert!(quarantined.exists());
        assert!(!path.exists());
        std::fs::remove_file(&quarantined).unwrap();
    }

    #[test]
    fn fsync_fail_fault_errors_and_keeps_the_old_checkpoint() {
        let path = temp_path("fsync-fail");
        let mut cp: Checkpoint<i32> = Checkpoint::new("m");
        cp.record(0, 1);
        cp.save(&path).unwrap();
        cp.record(1, 2);
        {
            // Three shots exhaust the bounded save retry (x3 =
            // SAVE_ATTEMPTS), so the failure is permanent.
            let _guard = FaultPlan::parse("fsync-fail:2x3").unwrap().arm();
            let err = cp.save(&path).unwrap_err();
            assert!(
                err.to_string().contains("fsync-fail:2"),
                "injected sync failure must be typed: {err}"
            );
        }
        // The previous checkpoint survives untouched and loadable.
        let back = Checkpoint::<i32>::load(&path, "m").unwrap().unwrap();
        assert_eq!(back.entries, vec![(0, 1)]);
        std::fs::remove_file(&path).unwrap();
    }

    /// An armed plan is the arming thread's alone: an unarmed thread
    /// saving a checkpoint with the same entry count while the plan is
    /// armed neither consumes its shots nor fails.
    #[test]
    fn a_plan_armed_on_one_thread_never_fires_on_another() {
        let armed = std::sync::Barrier::new(2);
        let saved = std::sync::Barrier::new(2);
        let two_entries = |name: &str| {
            let mut cp: Checkpoint<i32> = Checkpoint::new("m");
            cp.record(0, 1);
            cp.record(1, 2);
            (temp_path(name), cp)
        };
        std::thread::scope(|s| {
            s.spawn(|| {
                let (path, cp) = two_entries("hermetic-armed");
                let _guard = FaultPlan::parse("fsync-fail:2x3").unwrap().arm();
                armed.wait();
                // The other thread saves while this plan is armed.
                saved.wait();
                let err = cp
                    .save(&path)
                    .expect_err("the arming thread's save must fail");
                assert!(err.to_string().contains("fsync-fail:2"), "{err}");
                assert!(!path.exists(), "a failed first save leaves no checkpoint");
                let _ = std::fs::remove_file(tmp_path(&path));
            });
            s.spawn(|| {
                let (path, cp) = two_entries("hermetic-unarmed");
                armed.wait();
                let result = cp.save(&path);
                saved.wait();
                result.expect("another thread's plan fired here");
                std::fs::remove_file(&path).unwrap();
            });
        });
    }

    #[test]
    fn transient_fsync_fail_is_healed_by_counted_retries() {
        let path = temp_path("fsync-retry");
        let mut cp: Checkpoint<i32> = Checkpoint::new("m");
        cp.record(0, 1);
        cp.record(1, 2);
        {
            // Two shots fail attempts 0 and 1; attempt 2 saves clean.
            let _guard = FaultPlan::parse("fsync-fail:2x2").unwrap().arm();
            let obs = forumcast_obs::arm();
            cp.save(&path).expect("transient sync failure must heal");
            let log = forumcast_obs::drain().expect("collector armed");
            drop(obs);
            let retries = log
                .counters
                .iter()
                .find(|(n, _)| n == "ckpt.save.retries")
                .map(|(_, v)| *v)
                .unwrap_or(0);
            assert_eq!(retries, 2, "each failed attempt is one counted retry");
        }
        let back = Checkpoint::<i32>::load(&path, "m").unwrap().unwrap();
        assert_eq!(back.entries, vec![(0, 1), (1, 2)]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_tmp_is_reclaimed_and_counted() {
        let path = temp_path("tmp-reclaim");
        let tmp = tmp_path(&path);
        std::fs::write(&tmp, b"half a checkpoint").unwrap();
        let guard = forumcast_obs::arm();
        assert!(reclaim_tmp(&path));
        let log = forumcast_obs::drain().expect("collector armed");
        drop(guard);
        assert!(!tmp.exists());
        assert!(
            log.counters
                .iter()
                .any(|(n, v)| n == "ckpt.tmp.reclaimed" && *v >= 1),
            "reclaim must be counted"
        );
        assert!(!reclaim_tmp(&path), "nothing left to reclaim");
    }
}
