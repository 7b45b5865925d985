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
//! [`CheckpointError::Corrupt`]. Checkpoints from JSON-era builds are
//! still **read**: loads sniff the file magic, so an old JSON
//! checkpoint resumes seamlessly and the next save migrates it to
//! binary.
//!
//! # Fault sites
//!
//! Saves probe four sites (unit = the caller's save unit):
//! `ckpt-write` (truncated tmp, error before rename — the legacy
//! crash-mid-write), `torn-write` (final frame cut *after* a
//! successful rename), `bit-flip` (one payload bit flipped
//! post-rename), and `fsync-fail` (save errors at the sync step, old
//! checkpoint intact).

use serde::{expect_object, missing_field, obj_get, Deserialize, Serialize, Value};
use std::fmt;
use std::path::Path;

use crate::fault::{self, FaultSite};
use forumcast_store::{
    decode_value, encode_value, is_store_bytes, Corruption, SaveOptions, StoreError, StoreFile,
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
        let tmp = path.with_extension("tmp");
        let _ = std::fs::write(&tmp, &bytes[..bytes.len() / 2]);
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
    /// `<path>.tmp`, fsyncs, renames over `path`, fsyncs the parent
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
    /// when `path` does not exist (a fresh run). The format is
    /// sniffed from the file magic: binary stores and legacy JSON
    /// checkpoints both load through this one entry point.
    ///
    /// Corruption policy: a torn binary tail silently yields the
    /// valid entry prefix (counted `store.frame.torn` — resume
    /// recomputes the lost tail); a CRC mismatch or malformed JSON
    /// quarantines the file to `<path>.corrupt` (counted
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
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(CheckpointError::Io {
                    path: path.display().to_string(),
                    message: e.to_string(),
                })
            }
        };
        let cp = if is_store_bytes(&bytes) {
            Self::load_binary(path)?
        } else {
            Self::load_json(path, &bytes)?
        };
        if cp.meta != expected_meta {
            return Err(CheckpointError::MetaMismatch {
                path: path.display().to_string(),
                expected: expected_meta.to_string(),
                found: cp.meta,
            });
        }
        Ok(Some(cp))
    }

    fn load_binary(path: &Path) -> Result<Self, CheckpointError> {
        let store = load_store(path)?;
        let mut entries = Vec::with_capacity(store.frames.len());
        for (i, frame) in store.frames.iter().enumerate() {
            entries.push(decode_entry::<T>(path, i, frame)?);
        }
        Ok(Checkpoint {
            meta: store.fingerprint,
            entries,
        })
    }

    fn load_json(path: &Path, bytes: &[u8]) -> Result<Self, CheckpointError> {
        let corrupt = |message: String| {
            forumcast_store::quarantine(path);
            CheckpointError::Corrupt {
                path: path.display().to_string(),
                message,
            }
        };
        let json = std::str::from_utf8(bytes).map_err(|e| corrupt(format!("not UTF-8: {e}")))?;
        serde_json::from_str(json).map_err(|e| corrupt(e.to_string()))
    }
}

/// Loads the raw store, translating store-level failures into
/// checkpoint errors (the store has already counted and quarantined
/// as its policy dictates).
fn load_store(path: &Path) -> Result<StoreFile, CheckpointError> {
    StoreFile::load(path).map_err(|e| match e {
        StoreError::Io { source, .. } => CheckpointError::Io {
            path: path.display().to_string(),
            message: source.to_string(),
        },
        other => CheckpointError::Corrupt {
            path: path.display().to_string(),
            message: other.to_string(),
        },
    })
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

impl<T: Serialize> Serialize for Checkpoint<T> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("meta".to_string(), self.meta.to_value()),
            ("entries".to_string(), self.entries.to_value()),
        ])
    }
}

impl<T: Deserialize> Deserialize for Checkpoint<T> {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        let fields = expect_object(v, "Checkpoint")?;
        let meta = String::from_value(
            obj_get(fields, "meta").ok_or_else(|| missing_field("meta", "Checkpoint"))?,
        )?;
        let entries = Vec::<(u64, T)>::from_value(
            obj_get(fields, "entries").ok_or_else(|| missing_field("entries", "Checkpoint"))?,
        )?;
        Ok(Checkpoint { meta, entries })
    }
}

/// Current on-disk format version for [`TrainCheckpoint`] files.
/// Bumped whenever the payload layout changes incompatibly; readers
/// refuse (as [`CheckpointError::Corrupt`]) anything else.
pub const SUBFOLD_FORMAT_VERSION: u32 = 1;

/// A versioned, fingerprinted single-payload checkpoint for sub-fold
/// (mid-training) state. Where [`Checkpoint`] logs completed units,
/// `TrainCheckpoint` holds *one* in-flight snapshot — the latest
/// epoch-granular training state of the fold currently running — and
/// nests beside the fold-level checkpoint (`<base>.fold<N>.train.ckpt`
/// next to `<base>`; `.train.json` from JSON-era builds).
///
/// The same crash-consistency contract applies: saves are atomic and
/// durable (tmp + fsync + rename, probing the save fault sites),
/// loads verify the format version and the run fingerprint, and a
/// file that fails either check is never silently trusted.
#[derive(Debug, Clone, PartialEq)]
pub struct TrainCheckpoint<T> {
    /// On-disk format version; always [`SUBFOLD_FORMAT_VERSION`] for
    /// values produced by this build.
    pub version: u32,
    /// Fingerprint of the run configuration *and* the fold this
    /// snapshot belongs to. [`TrainCheckpoint::load`] refuses to
    /// resume ([`CheckpointError::Stale`]) when it does not match.
    pub fingerprint: String,
    /// The mid-training snapshot.
    pub payload: T,
}

impl<T> TrainCheckpoint<T> {
    /// Wraps `payload` in the current format version under
    /// `fingerprint`.
    pub fn new(fingerprint: impl Into<String>, payload: T) -> Self {
        TrainCheckpoint {
            version: SUBFOLD_FORMAT_VERSION,
            fingerprint: fingerprint.into(),
            payload,
        }
    }
}

impl<T: Serialize> TrainCheckpoint<T> {
    /// Atomically and durably saves the snapshot, probing the
    /// `ckpt-write`/`torn-write`/`bit-flip`/`fsync-fail` fault sites
    /// at `unit` — the caller picks a unit disjoint from fold-level
    /// saves so shot plans can target either layer independently.
    ///
    /// Layout: frame 0 is the format version, frame 1 the payload;
    /// the fingerprint rides in the store header.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on filesystem failure.
    pub fn save(&self, path: &Path, unit: u64) -> Result<(), CheckpointError> {
        let started = std::time::Instant::now();
        let frames = vec![
            encode_value(&Value::U64(u64::from(self.version))),
            encode_value(&self.payload.to_value()),
        ];
        let store = StoreFile::new(&self.fingerprint, frames);
        if let Some(err) = ckpt_write_fault(path, unit, || store.encode()) {
            return Err(err);
        }
        let bytes =
            crate::retry::save_with_retry(|_| store.save(path, &injected_save_options(unit)))
                .map_err(|e| store_io_err(path, e))?;
        forumcast_obs::counter_add("ckpt.subfold.saves", 1);
        // Snapshot cost telemetry. Per-write durations go through the
        // histogram path so the summary can report p50/p99 instead of
        // only a lifetime total.
        forumcast_obs::counter_add("ckpt.subfold.bytes", bytes);
        forumcast_obs::observe(
            "ckpt.subfold.write_ms",
            started.elapsed().as_millis() as u64,
        );
        Ok(())
    }
}

impl<T: Deserialize> TrainCheckpoint<T> {
    /// Loads a sub-fold snapshot, verifying format version and
    /// fingerprint; the on-disk format is sniffed from the file
    /// magic. `Ok(None)` when `path` does not exist.
    ///
    /// # Errors
    ///
    /// Returns [`CheckpointError::Io`] on unreadable files,
    /// [`CheckpointError::Corrupt`] on damage (a torn or
    /// CRC-mismatched snapshot is never partially trusted — unlike
    /// fold-level entries, half a training state is useless) or an
    /// unknown format version, and [`CheckpointError::Stale`] when
    /// the file belongs to a differently-configured run or a
    /// different fold.
    pub fn load(path: &Path, expected_fingerprint: &str) -> Result<Option<Self>, CheckpointError> {
        let bytes = match std::fs::read(path) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => {
                return Err(CheckpointError::Io {
                    path: path.display().to_string(),
                    message: e.to_string(),
                })
            }
        };
        let cp = if is_store_bytes(&bytes) {
            Self::load_binary(path)?
        } else {
            Self::load_json(path, &bytes)?
        };
        if cp.version != SUBFOLD_FORMAT_VERSION {
            return Err(CheckpointError::Corrupt {
                path: path.display().to_string(),
                message: format!(
                    "unknown sub-fold format version {} (this build reads version {})",
                    cp.version, SUBFOLD_FORMAT_VERSION
                ),
            });
        }
        if cp.fingerprint != expected_fingerprint {
            return Err(CheckpointError::Stale {
                path: path.display().to_string(),
                expected: expected_fingerprint.to_string(),
                found: cp.fingerprint,
            });
        }
        Ok(Some(cp))
    }

    fn load_binary(path: &Path) -> Result<Self, CheckpointError> {
        let corrupt = |message: String| CheckpointError::Corrupt {
            path: path.display().to_string(),
            message,
        };
        let store = load_store(path)?;
        // A torn tail left fewer than the two required frames: the
        // snapshot is unusable, which for a sub-fold means "recompute
        // the fold from its start".
        if store.frames.len() < 2 {
            return Err(corrupt(format!(
                "sub-fold snapshot truncated: {} of 2 frames survived",
                store.frames.len()
            )));
        }
        let version = match decode_value(&store.frames[0])
            .map_err(|e| corrupt(format!("version frame: {e}")))?
        {
            Value::U64(v) => u32::try_from(v).unwrap_or(u32::MAX),
            Value::I64(v) if v >= 0 => u32::try_from(v).unwrap_or(u32::MAX),
            other => return Err(corrupt(format!("version frame: unexpected {other:?}"))),
        };
        let payload_value =
            decode_value(&store.frames[1]).map_err(|e| corrupt(format!("payload frame: {e}")))?;
        let payload =
            T::from_value(&payload_value).map_err(|e| corrupt(format!("payload: {e}")))?;
        Ok(TrainCheckpoint {
            version,
            fingerprint: store.fingerprint,
            payload,
        })
    }

    fn load_json(path: &Path, bytes: &[u8]) -> Result<Self, CheckpointError> {
        let corrupt = |message: String| {
            forumcast_store::quarantine(path);
            CheckpointError::Corrupt {
                path: path.display().to_string(),
                message,
            }
        };
        let json = std::str::from_utf8(bytes).map_err(|e| corrupt(format!("not UTF-8: {e}")))?;
        serde_json::from_str(json).map_err(|e| corrupt(e.to_string()))
    }
}

impl<T: Serialize> Serialize for TrainCheckpoint<T> {
    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("version".to_string(), self.version.to_value()),
            ("fingerprint".to_string(), self.fingerprint.to_value()),
            ("payload".to_string(), self.payload.to_value()),
        ])
    }
}

impl<T: Deserialize> Deserialize for TrainCheckpoint<T> {
    fn from_value(v: &Value) -> Result<Self, serde::DeError> {
        let fields = expect_object(v, "TrainCheckpoint")?;
        let version = u32::from_value(
            obj_get(fields, "version")
                .ok_or_else(|| missing_field("version", "TrainCheckpoint"))?,
        )?;
        let fingerprint = String::from_value(
            obj_get(fields, "fingerprint")
                .ok_or_else(|| missing_field("fingerprint", "TrainCheckpoint"))?,
        )?;
        let payload = T::from_value(
            obj_get(fields, "payload")
                .ok_or_else(|| missing_field("payload", "TrainCheckpoint"))?,
        )?;
        Ok(TrainCheckpoint {
            version,
            fingerprint,
            payload,
        })
    }
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
    /// A sub-fold snapshot whose fingerprint does not match the
    /// current run — left behind by an earlier, differently-configured
    /// invocation.
    Stale {
        /// Sub-fold checkpoint path.
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
            CheckpointError::Stale {
                path,
                expected,
                found,
            } => write!(
                f,
                "stale sub-fold checkpoint {path}: this run expects fingerprint `{expected}` \
                 but the file carries `{found}`; delete the file to discard that partial \
                 training state, or rerun with the `--resume` path and configuration of the \
                 run that wrote it"
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
        p.push(format!("forumcast-ckpt-{name}-{}.json", std::process::id()));
        let _ = std::fs::remove_file(&p);
        let _ = std::fs::remove_file(p.with_extension("json.corrupt"));
        p
    }

    /// Writes `value` as a JSON-era build did, through the serde shim.
    fn write_json<T: Serialize>(path: &Path, value: &T) {
        std::fs::write(path, serde_json::to_string_pretty(value).unwrap()).unwrap();
    }

    #[test]
    fn save_load_roundtrip_preserves_entries_bitwise() {
        for json_era in [false, true] {
            let path = temp_path(&format!("roundtrip-{json_era}"));
            let mut cp: Checkpoint<f64> = Checkpoint::new("run A");
            cp.record(3, 0.1 + 0.2);
            cp.record(1, f64::MIN_POSITIVE);
            if json_era {
                write_json(&path, &cp);
            } else {
                cp.save(&path).unwrap();
            }
            let back = Checkpoint::<f64>::load(&path, "run A").unwrap().unwrap();
            assert_eq!(back.meta, "run A");
            assert_eq!(back.entries.len(), 2);
            for ((u, x), (bu, bx)) in cp.entries.iter().zip(&back.entries) {
                assert_eq!(u, bu);
                assert_eq!(x.to_bits(), bx.to_bits());
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn save_writes_binary_and_json_still_loads() {
        let path = temp_path("default-binary");
        let mut cp: Checkpoint<i32> = Checkpoint::new("m");
        cp.record(0, 7);
        cp.save(&path).unwrap();
        let head = std::fs::read(&path).unwrap();
        assert!(
            forumcast_store::is_store_bytes(&head),
            "save must write the binary store format"
        );
        // Overwrite with the JSON-era encoding: the sniffing load
        // reads it transparently.
        write_json(&path, &cp);
        let back = Checkpoint::<i32>::load(&path, "m").unwrap().unwrap();
        assert_eq!(back.get(0), Some(&7));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn subfold_save_reports_bytes_and_write_duration() {
        let path = temp_path("save-cost");
        let cp = TrainCheckpoint::new("fp", vec![1u32, 2, 3]);
        let guard = forumcast_obs::arm();
        cp.save(&path, 0).unwrap();
        let log = forumcast_obs::drain().expect("collector armed");
        drop(guard);
        let counter = |name: &str| {
            log.counters
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| *v)
        };
        let written = std::fs::metadata(&path).unwrap().len();
        // Concurrent unarmed tests may also save while we are armed,
        // so assert lower bounds rather than exact equality.
        assert!(counter("ckpt.subfold.saves").unwrap() >= 1);
        assert!(
            counter("ckpt.subfold.bytes").unwrap() >= written,
            "byte counter must cover at least this save's payload"
        );
        let write_hist = log
            .hists
            .iter()
            .find(|(n, _)| n == "ckpt.subfold.write_ms")
            .map(|(_, h)| h)
            .expect("write duration must land in the latency histogram");
        assert!(write_hist.count() >= 1);
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
    fn corrupt_json_is_reported_and_quarantined() {
        let path = temp_path("corrupt");
        std::fs::write(&path, "{ not json").unwrap();
        let err = Checkpoint::<i32>::load(&path, "m").unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("forumcast-ckpt-corrupt"));
        let quarantined = path.with_extension("json.corrupt");
        assert!(quarantined.exists(), "corrupt JSON must be moved aside");
        assert!(!path.exists());
        std::fs::remove_file(&quarantined).unwrap();
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
        let quarantined = path.with_extension("json.corrupt");
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
    fn subfold_roundtrip_preserves_payload_bitwise() {
        for json_era in [false, true] {
            let path = temp_path(&format!("subfold-roundtrip-{json_era}"));
            let cp = TrainCheckpoint::new("fold 3 of run A", vec![0.1 + 0.2, f64::MIN_POSITIVE]);
            if json_era {
                write_json(&path, &cp);
            } else {
                cp.save(&path, 0).unwrap();
            }
            let back = TrainCheckpoint::<Vec<f64>>::load(&path, "fold 3 of run A")
                .unwrap()
                .unwrap();
            assert_eq!(back.version, SUBFOLD_FORMAT_VERSION);
            for (x, bx) in cp.payload.iter().zip(&back.payload) {
                assert_eq!(x.to_bits(), bx.to_bits());
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    /// JSON drops NaN (serializes as null, rejected or zeroed on
    /// read); binary must carry non-finite payload bits verbatim so
    /// the validation layer above can reject them with its *typed*
    /// error instead of silently mutating state.
    #[test]
    fn subfold_binary_preserves_nonfinite_bits() {
        let path = temp_path("subfold-nan");
        let bits = 0x7FF8_0000_DEAD_BEEFu64;
        let cp = TrainCheckpoint::new("f", vec![f64::from_bits(bits)]);
        cp.save(&path, 0).unwrap();
        let back = TrainCheckpoint::<Vec<f64>>::load(&path, "f")
            .unwrap()
            .unwrap();
        assert_eq!(back.payload[0].to_bits(), bits);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn subfold_missing_file_loads_as_none() {
        let path = temp_path("subfold-missing");
        assert_eq!(TrainCheckpoint::<i32>::load(&path, "f").unwrap(), None);
    }

    #[test]
    fn subfold_unknown_version_is_corrupt_not_trusted() {
        for json_era in [false, true] {
            let path = temp_path(&format!("subfold-version-{json_era}"));
            let mut cp = TrainCheckpoint::new("f", 7i32);
            cp.version = SUBFOLD_FORMAT_VERSION + 1;
            if json_era {
                write_json(&path, &cp);
            } else {
                cp.save(&path, 0).unwrap();
            }
            let err = TrainCheckpoint::<i32>::load(&path, "f").unwrap_err();
            assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
            assert!(err.to_string().contains("format version"));
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn subfold_truncated_json_is_corrupt_not_trusted() {
        let path = temp_path("subfold-truncated");
        write_json(&path, &TrainCheckpoint::new("f", vec![1.0f64, 2.0]));
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::write(&path, &json[..json.len() / 2]).unwrap();
        let err = TrainCheckpoint::<Vec<f64>>::load(&path, "f").unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
        let quarantined = path.with_extension("json.corrupt");
        assert!(quarantined.exists(), "corrupt JSON snapshot is moved aside");
        std::fs::remove_file(&quarantined).unwrap();
    }

    #[test]
    fn subfold_torn_binary_is_corrupt_not_partially_trusted() {
        let path = temp_path("subfold-torn");
        let cp = TrainCheckpoint::new("f", vec![1.0f64; 64]);
        {
            let _guard = FaultPlan::parse("torn-write:5").unwrap().arm();
            cp.save(&path, 5).unwrap();
        }
        let err = TrainCheckpoint::<Vec<f64>>::load(&path, "f").unwrap_err();
        assert!(matches!(err, CheckpointError::Corrupt { .. }), "{err}");
        assert!(err.to_string().contains("truncated"), "{err}");
        std::fs::remove_file(&path).unwrap();
    }

    /// The stale-fingerprint error must hand the operator everything
    /// needed to act: the offending path, both fingerprints, and the
    /// `--resume` remedy.
    #[test]
    fn subfold_stale_fingerprint_names_path_fingerprints_and_remedy() {
        let path = temp_path("subfold-stale");
        TrainCheckpoint::new("quick scale, 5 folds", 7i32)
            .save(&path, 0)
            .unwrap();
        let err = TrainCheckpoint::<i32>::load(&path, "full scale, 10 folds").unwrap_err();
        assert!(matches!(err, CheckpointError::Stale { .. }), "{err}");
        let msg = err.to_string();
        assert!(msg.contains(path.display().to_string().as_str()), "{msg}");
        assert!(msg.contains("full scale, 10 folds"), "{msg}");
        assert!(msg.contains("quick scale, 5 folds"), "{msg}");
        assert!(msg.contains("--resume"), "{msg}");
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn stale_tmp_is_reclaimed_and_counted() {
        let path = temp_path("tmp-reclaim");
        let tmp = path.with_extension("tmp");
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
