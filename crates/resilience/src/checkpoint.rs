//! Checkpoint files for resumable sweeps.
//!
//! A [`Checkpoint`] records `(unit index, metrics)` entries — one per
//! completed work item, e.g. one CV fold, whose result is `N` `f64`
//! metrics — plus a free-form `meta` fingerprint describing the run
//! configuration. Callers save the checkpoint after every completed
//! item and, on resume, load it back, verify the fingerprint, and skip
//! the recorded units. Because every unit is a pure function of its
//! inputs, merging checkpointed and freshly computed results
//! reproduces an uninterrupted run bit for bit.
//!
//! # Format
//!
//! One JSON document, the only place that knows its layout:
//!
//! ```text
//! {"fingerprint":"<meta>","entries":[[<unit>,[<bits>,…]],…],"crc32":<u32>}
//! ```
//!
//! Entries are in completion order. Each metric is stored as its
//! `f64::to_bits()` integer, so NaN payloads, −0.0, subnormals and
//! infinities come back bit for bit (a JSON float cannot carry NaN or
//! ±inf at all). `crc32` covers the compact serialization of
//! `{fingerprint, entries}` and is checked before the fingerprint is
//! compared.
//!
//! A file that is not UTF-8 JSON (e.g. a binary checkpoint written by
//! older builds), has the wrong shape or fails its CRC is quarantined
//! to `<path>.corrupt` and surfaces as [`CheckpointError::Corrupt`];
//! the caller recomputes its units. Any damage costs the whole file.
//!
//! Saves write `<path>.tmp`, fsync it, rename it over `path` and fsync
//! the parent directory, so a crash mid-save never damages the
//! committed checkpoint and a completed save survives power loss. A
//! tmp left by a crash is removed by [`reclaim_tmp`].
//!
//! # Fault sites
//!
//! Saves probe two sites (unit = entries recorded at save time):
//! `ckpt-write` (truncated tmp, error before the rename — a crash
//! mid-write) and `fsync-fail` (the save errors at the sync step, the
//! old checkpoint intact).

use serde::{Deserialize, Serialize, Value};
use std::fmt;
use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::crc32::crc32;
use crate::fault::{self, FaultSite};

/// Completed-unit log for one resumable run whose units each yield
/// `N` `f64` metrics.
#[derive(Debug, Clone, PartialEq)]
pub struct Checkpoint<const N: usize> {
    /// Fingerprint of the run configuration. [`Checkpoint::load`]
    /// refuses to resume when it does not match, so a checkpoint from
    /// a differently-configured run can never be silently merged.
    pub meta: String,
    /// `(unit index, metrics)` pairs, in completion order.
    pub entries: Vec<(u64, [f64; N])>,
}

impl<const N: usize> Checkpoint<N> {
    /// An empty checkpoint for a run described by `meta`.
    pub fn new(meta: impl Into<String>) -> Self {
        Checkpoint {
            meta: meta.into(),
            entries: Vec::new(),
        }
    }

    /// Records the metrics for `unit`, replacing any earlier entry.
    pub fn record(&mut self, unit: u64, metrics: [f64; N]) {
        match self.entries.iter_mut().find(|(u, _)| *u == unit) {
            Some(slot) => slot.1 = metrics,
            None => self.entries.push((unit, metrics)),
        }
    }

    /// The recorded metrics for `unit`, if any.
    pub fn get(&self, unit: u64) -> Option<&[f64; N]> {
        self.entries
            .iter()
            .find(|(u, _)| *u == unit)
            .map(|(_, m)| m)
    }

    /// Atomically and durably saves the checkpoint: writes
    /// [`tmp_path`]`(path)`, fsyncs, renames over `path`, fsyncs the
    /// parent directory. A failed attempt is retried by
    /// [`save_with_retry`](crate::retry::save_with_retry).
    ///
    /// Probes the `ckpt-write` and `fsync-fail` fault sites at unit =
    /// number of recorded entries.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on filesystem failure
    /// (including the injected `ckpt-write`/`fsync-fail` faults).
    pub fn save(&self, path: &Path) -> Result<(), CheckpointError> {
        let unit = self.entries.len() as u64;
        let text = encode(&self.meta, &self.entries);
        let tmp = tmp_path(path);
        let io_error = |message: String| CheckpointError::Io {
            path: path.display().to_string(),
            message,
        };
        if fault::fires(FaultSite::CkptWrite, unit) {
            let _ = fs::write(&tmp, &text.as_bytes()[..text.len() / 2]);
            return Err(io_error(format!(
                "{} ckpt-write:{unit}",
                fault::INJECTED_PREFIX
            )));
        }
        // Transient failures (an injected or real fsync error) cost a
        // counted, deterministically-backed-off retry, not the save;
        // the `fsync-fail` site is re-probed per attempt, so bounded
        // fault shots drain across retries.
        crate::retry::save_with_retry(|_| write_durably(path, &tmp, text.as_bytes(), unit))
            .map_err(|e| io_error(e.to_string()))?;
        forumcast_obs::counter_add("ckpt.saves", 1);
        Ok(())
    }

    /// Loads a checkpoint, verifying its CRC and then its meta
    /// fingerprint. `Ok(None)` when `path` does not exist (a fresh
    /// run).
    ///
    /// A file that does not parse, has the wrong shape or fails its
    /// CRC is quarantined to `<path>.corrupt` (counted
    /// `ckpt.corrupt.quarantined`).
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on unreadable files,
    /// [`CheckpointError::Corrupt`] on damage, and
    /// [`CheckpointError::MetaMismatch`] when the file belongs to a
    /// differently-configured run.
    pub fn load(path: &Path, expected_meta: &str) -> Result<Option<Self>, CheckpointError> {
        let bytes = match fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(CheckpointError::Io {
                    path: path.display().to_string(),
                    message: e.to_string(),
                })
            }
        };
        let checkpoint = decode(&bytes).map_err(|why| {
            let message = match quarantine(path) {
                Some(dest) => format!("{why}; quarantined to {}", dest.display()),
                None => why,
            };
            CheckpointError::Corrupt {
                path: path.display().to_string(),
                message,
            }
        })?;
        if checkpoint.meta != expected_meta {
            return Err(CheckpointError::MetaMismatch {
                path: path.display().to_string(),
                expected: expected_meta.to_string(),
                found: checkpoint.meta,
            });
        }
        Ok(Some(checkpoint))
    }
}

/// Compact JSON of an object with `fields`, in order.
fn json(fields: &[(String, Value)]) -> String {
    serde_json::to_string(&Value::Object(fields.to_vec())).expect("the JSON writer cannot fail")
}

/// The file's text: `{fingerprint, entries}` with every metric as its
/// IEEE bits, then `crc32` over that much as compact JSON.
fn encode<const N: usize>(meta: &str, entries: &[(u64, [f64; N])]) -> String {
    let bits: Vec<(u64, [u64; N])> = entries
        .iter()
        .map(|(unit, metrics)| (*unit, metrics.map(f64::to_bits)))
        .collect();
    let mut doc = vec![
        ("fingerprint".to_owned(), meta.to_value()),
        ("entries".to_owned(), bits.to_value()),
    ];
    let crc = crc32(json(&doc).as_bytes());
    doc.push(("crc32".to_owned(), crc.to_value()));
    json(&doc)
}

/// Parses a checkpoint file, or says why it cannot be trusted.
fn decode<const N: usize>(bytes: &[u8]) -> Result<Checkpoint<N>, String> {
    let text = std::str::from_utf8(bytes).map_err(|_| "not a JSON checkpoint".to_owned())?;
    let doc: Value =
        serde_json::from_str(text).map_err(|e| format!("not a JSON checkpoint: {e}"))?;
    let Value::Object(mut fields) = doc else {
        return Err("not a JSON object".to_owned());
    };
    let stored = match fields.pop() {
        Some((key, crc)) if key == "crc32" => {
            u32::from_value(&crc).map_err(|e| format!("bad crc32: {e}"))?
        }
        _ => return Err("no trailing crc32 field".to_owned()),
    };
    if crc32(json(&fields).as_bytes()) != stored {
        return Err("CRC mismatch".to_owned());
    }
    let (fingerprint, entries) = match &fields[..] {
        [(f, fingerprint), (e, entries)] if f == "fingerprint" && e == "entries" => {
            (fingerprint, entries)
        }
        _ => return Err("expected the fields fingerprint, entries, crc32".to_owned()),
    };
    let shape = |e: serde::DeError| format!("wrong shape: {e}");
    let fingerprint = String::from_value(fingerprint).map_err(shape)?;
    let entries = Vec::<(u64, Vec<u64>)>::from_value(entries).map_err(shape)?;
    let entries = entries
        .into_iter()
        .map(|(unit, bits)| {
            let bits: [u64; N] = bits.try_into().map_err(|bits: Vec<u64>| {
                format!(
                    "wrong shape: unit {unit} holds {} metrics, expected {N}",
                    bits.len()
                )
            })?;
            Ok((unit, bits.map(f64::from_bits)))
        })
        .collect::<Result<_, String>>()?;
    Ok(Checkpoint {
        meta: fingerprint,
        entries,
    })
}

/// One save attempt: write `tmp`, fsync it, rename it over `path`,
/// fsync the parent directory so the rename itself is durable. The
/// `fsync-fail` site fails the attempt at the sync step and removes
/// the tmp (a *real* crash mid-save is what leaves one behind).
fn write_durably(path: &Path, tmp: &Path, bytes: &[u8], unit: u64) -> std::io::Result<()> {
    let mut file = File::create(tmp)?;
    file.write_all(bytes)?;
    if fault::fires(FaultSite::FsyncFail, unit) {
        drop(file);
        let _ = fs::remove_file(tmp);
        return Err(std::io::Error::other(format!(
            "{} fsync-fail:{unit}",
            fault::INJECTED_PREFIX
        )));
    }
    file.sync_all()?;
    drop(file);
    fs::rename(tmp, path)?;
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(parent)?.sync_all()
}

/// The temporary file a save writes before renaming it over `path`:
/// `<path>.tmp`, the whole file name with `.tmp` appended, so a
/// sibling that only shares the stem (`x.tmp` next to `x.ckpt`) is
/// never touched.
pub fn tmp_path(path: &Path) -> PathBuf {
    let mut name = path.as_os_str().to_owned();
    name.push(".tmp");
    PathBuf::from(name)
}

/// Removes a stale [`tmp_path`] left behind by a crash between the
/// tmp write and the rename, counting `ckpt.tmp.reclaimed` when one
/// was present. Call at resume start, before any load.
pub fn reclaim_tmp(path: &Path) -> bool {
    match fs::remove_file(tmp_path(path)) {
        Ok(()) => {
            forumcast_obs::counter_add("ckpt.tmp.reclaimed", 1);
            true
        }
        Err(_) => false,
    }
}

/// Moves `path` aside to the first free of `<path>.corrupt`,
/// `<path>.corrupt.1`, … (so a repeat quarantine never overwrites
/// earlier evidence), counting `ckpt.corrupt.quarantined`.
/// Best-effort: returns the destination if the rename succeeded.
fn quarantine(path: &Path) -> Option<PathBuf> {
    let mut base = path.as_os_str().to_owned();
    base.push(".corrupt");
    let dest = (0u64..)
        .map(|n| {
            let mut name = base.clone();
            if n > 0 {
                name.push(format!(".{n}"));
            }
            PathBuf::from(name)
        })
        .find(|candidate| !candidate.exists())?;
    fs::rename(path, &dest).ok()?;
    forumcast_obs::counter_add("ckpt.corrupt.quarantined", 1);
    Some(dest)
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

    fn temp_path(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("forumcast-ckpt-{name}-{}.ckpt", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(p.with_extension("ckpt.corrupt"));
        p
    }

    /// Loads `path` expecting damage: the file must be reported
    /// corrupt for the reason `why` and moved aside, not deleted.
    fn assert_quarantined<const N: usize>(path: &Path, meta: &str, why: &str) {
        let err = Checkpoint::<N>::load(path, meta).unwrap_err();
        assert!(
            matches!(err, CheckpointError::Corrupt { .. }) && err.to_string().contains(why),
            "{why}: {err}"
        );
        let quarantined = path.with_extension("ckpt.corrupt");
        assert!(quarantined.exists(), "{why}: must be moved aside");
        assert!(!path.exists(), "{why}");
        std::fs::remove_file(&quarantined).unwrap();
    }

    #[test]
    fn save_load_roundtrip_preserves_entries_bitwise() {
        let path = temp_path("roundtrip");
        let mut cp: Checkpoint<4> = Checkpoint::new("run A");
        let nan = f64::from_bits(0x7FF8_0000_DEAD_BEEF);
        cp.record(3, [nan, -0.0, f64::from_bits(1), f64::INFINITY]);
        cp.record(
            1,
            [0.1 + 0.2, f64::MIN_POSITIVE, -f64::NAN, f64::NEG_INFINITY],
        );
        cp.save(&path).unwrap();
        let head = std::fs::read(&path).unwrap();
        assert!(
            head.starts_with(br#"{"fingerprint":"run A","entries":[[3,["#),
            "save must write the JSON format"
        );
        let back = Checkpoint::<4>::load(&path, "run A").unwrap().unwrap();
        assert_eq!(back.meta, "run A");
        let bits = |cp: &Checkpoint<4>| -> Vec<(u64, [u64; 4])> {
            cp.entries
                .iter()
                .map(|(u, m)| (*u, m.map(f64::to_bits)))
                .collect()
        };
        assert_eq!(bits(&cp), bits(&back));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn record_replaces_existing_unit() {
        let mut cp: Checkpoint<1> = Checkpoint::new("m");
        cp.record(5, [1.0]);
        cp.record(5, [2.0]);
        assert_eq!(cp.entries.len(), 1);
        assert_eq!(cp.get(5), Some(&[2.0]));
        assert_eq!(cp.get(6), None);
    }

    #[test]
    fn missing_file_loads_as_none() {
        let path = temp_path("missing");
        assert_eq!(Checkpoint::<1>::load(&path, "m").unwrap(), None);
    }

    #[test]
    fn meta_mismatch_is_refused() {
        let path = temp_path("meta");
        Checkpoint::<1>::new("run A").save(&path).unwrap();
        let err = Checkpoint::<1>::load(&path, "run B").unwrap_err();
        assert!(matches!(err, CheckpointError::MetaMismatch { .. }), "{err}");
        assert!(err.to_string().contains("run B"));
        assert!(path.exists(), "meta mismatch must not quarantine");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn damaged_or_foreign_file_is_reported_as_corrupt_and_quarantined() {
        let mut cp: Checkpoint<2> = Checkpoint::new("run A");
        cp.record(0, [1.0, 2.0]);
        let full = encode(&cp.meta, &cp.entries);
        assert!(full.contains("46071") && full.contains("run A"), "{full}");
        for (text, why) in [
            ("{ not json".to_owned(), "not a JSON checkpoint"),
            // The un-checksummed JSON layout of old builds.
            (
                r#"{"meta":"run A","entries":[[0,[1.0,2.0]]]}"#.to_owned(),
                "no trailing crc32",
            ),
            (full[..full.len() / 2].to_owned(), "not a JSON checkpoint"),
            // Edits that leave the file parseable: one digit of a
            // metric's bits, one character of the fingerprint. The CRC
            // is checked first, so a damaged fingerprint is damage, not
            // another run's file.
            (full.replacen("46071", "46072", 1), "CRC mismatch"),
            (full.replacen("run A", "run B", 1), "CRC mismatch"),
        ] {
            let path = temp_path("corrupt");
            std::fs::write(&path, text).unwrap();
            assert_quarantined::<2>(&path, "run A", why);
        }
        // A sound file whose entries hold another number of metrics.
        let path = temp_path("corrupt");
        cp.save(&path).unwrap();
        assert_quarantined::<1>(&path, "run A", "wrong shape");
        // A second quarantine of the same path keeps the first one's
        // evidence.
        for _ in 0..2 {
            std::fs::write(&path, "{").unwrap();
            Checkpoint::<2>::load(&path, "run A").unwrap_err();
        }
        let first = path.with_extension("ckpt.corrupt");
        let second = path.with_extension("ckpt.corrupt.1");
        assert!(first.exists() && second.exists());
        std::fs::remove_file(first).unwrap();
        std::fs::remove_file(second).unwrap();
    }

    #[test]
    fn fsync_fail_fault_errors_and_keeps_the_old_checkpoint() {
        let path = temp_path("fsync-fail");
        let mut cp: Checkpoint<1> = Checkpoint::new("m");
        cp.record(0, [1.0]);
        cp.save(&path).unwrap();
        cp.record(1, [2.0]);
        {
            // Three shots exhaust the bounded save retry (x3 =
            // SAVE_ATTEMPTS), so the failure is permanent.
            let _guard = FaultPlan::parse("fsync-fail:2x3").unwrap().arm();
            let err = cp.save(&path).unwrap_err();
            assert!(
                err.to_string().contains("fsync-fail:2"),
                "injected sync failure must be typed: {err}"
            );
            assert!(!tmp_path(&path).exists(), "a failed sync removes its tmp");
        }
        // The previous checkpoint survives untouched and loadable.
        let back = Checkpoint::<1>::load(&path, "m").unwrap().unwrap();
        assert_eq!(back.entries, vec![(0, [1.0])]);
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
            let mut cp: Checkpoint<1> = Checkpoint::new("m");
            cp.record(0, [1.0]);
            cp.record(1, [2.0]);
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
        let mut cp: Checkpoint<1> = Checkpoint::new("m");
        cp.record(0, [1.0]);
        cp.record(1, [2.0]);
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
        let back = Checkpoint::<1>::load(&path, "m").unwrap().unwrap();
        assert_eq!(back.entries, vec![(0, [1.0]), (1, [2.0])]);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_tmp_is_reclaimed_and_counted() {
        let path = temp_path("tmp-reclaim");
        let tmp = tmp_path(&path);
        std::fs::write(&tmp, b"half a checkpoint").unwrap();
        // A sibling that only shares the stem is not a tmp of `path`.
        let sibling = path.with_extension("tmp");
        std::fs::write(&sibling, b"someone else's file").unwrap();
        let guard = forumcast_obs::arm();
        assert!(reclaim_tmp(&path));
        let log = forumcast_obs::drain().expect("collector armed");
        drop(guard);
        assert!(!tmp.exists());
        assert!(sibling.exists(), "a stem sibling must be spared");
        std::fs::remove_file(&sibling).unwrap();
        assert!(
            log.counters
                .iter()
                .any(|(n, v)| n == "ckpt.tmp.reclaimed" && *v >= 1),
            "reclaim must be counted"
        );
        assert!(!reclaim_tmp(&path), "nothing left to reclaim");
    }
}
