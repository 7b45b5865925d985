//! Columnar on-disk experiment store: the feature matrix spilled to
//! disk so paper-scale++ evaluations hold only per-record metadata
//! (a few scalars per pair) and the active fold's working set
//! resident.
//!
//! # Layout
//!
//! A spill directory holds three files in the framed, CRC-checked
//! store container (`forumcast-store`):
//!
//! * `pos.fcr` / `neg.fcr` — the pair records, one **row group** per
//!   frame. Each payload packs the group's columns contiguously:
//!   users (`u32` LE), targets (`u32` LE), votes (`f64` LE bits),
//!   response times (`f64` LE bits), then the feature block
//!   feature-major (`dim` columns of `n` `f64`s each).
//! * `meta.fcr` — one frame with the experiment shape (dim, topic
//!   count, `|U|`, target count, row totals) and the per-target
//!   observation windows.
//!
//! `meta.fcr` is written *last*, after the row files are synced, so a
//! crash mid-spill leaves a directory that [`SpilledExperiment::open`]
//! refuses (no meta) instead of a silently short experiment.
//!
//! # Guarantees
//!
//! Inherited from the store container and tightened at this layer:
//! a torn tail in a row file is a *detected truncation* (row counts
//! are cross-checked against `meta.fcr`), a CRC mismatch quarantines
//! the damaged file and surfaces a typed error, and a well-formed
//! frame whose payload disagrees with the declared shape is a
//! [`ColumnarError::Malformed`] — never silent garbage rows.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use forumcast_data::{Dataset, UserId};
use forumcast_features::FeatureLayout;
use forumcast_store::{frame_bytes, header_bytes, tmp_path, FrameReader, StoreError};

use crate::config::EvalConfig;
use crate::data::{build_each, ExperimentData, PairRecord, RowMeta, RowSource, Side};

/// Rows per on-disk row group (one store frame). Large enough to
/// amortize frame overhead and CRC work, small enough that one
/// decoded group (~`512 × dim × 8` bytes) stays far below a fold's
/// working set.
pub const ROW_GROUP: usize = 512;

/// A columnar spill failed or a spilled file cannot be trusted.
#[derive(Debug)]
pub enum ColumnarError {
    /// Container-level failure (I/O, magic, CRC quarantine, version).
    Store(StoreError),
    /// A structurally valid frame whose payload contradicts the
    /// declared experiment shape (bad column sizes, row-count
    /// mismatch against `meta.fcr`).
    Malformed {
        /// File the damage was found in.
        path: PathBuf,
        /// What disagreed.
        message: String,
    },
}

impl std::fmt::Display for ColumnarError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ColumnarError::Store(e) => e.fmt(f),
            ColumnarError::Malformed { path, message } => {
                write!(f, "columnar file {} malformed: {message}", path.display())
            }
        }
    }
}

impl std::error::Error for ColumnarError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ColumnarError::Store(e) => Some(e),
            ColumnarError::Malformed { .. } => None,
        }
    }
}

impl From<StoreError> for ColumnarError {
    fn from(e: StoreError) -> Self {
        ColumnarError::Store(e)
    }
}

/// An experiment whose feature matrix lives on disk: the shape,
/// windows, and per-record metadata are resident; feature vectors
/// stream back one row group at a time through [`RowStream`].
#[derive(Debug)]
pub struct SpilledExperiment {
    /// Feature dimension `18 + 2K`.
    pub dim: usize,
    /// Slot layout for masking experiments.
    pub layout: FeatureLayout,
    /// Population size `|U|`.
    pub num_users: usize,
    /// Number of evaluation-target questions.
    pub num_targets: usize,
    /// Observation window per target.
    pub windows: Vec<f64>,
    /// Metadata for every positive record, in spill (row) order.
    pub pos: Vec<RowMeta>,
    /// Metadata for every negative record, in spill (row) order.
    pub neg: Vec<RowMeta>,
    dir: PathBuf,
}

impl SpilledExperiment {
    /// Builds experiment data directly into `dir`, spilling each
    /// history bucket's row groups as they are produced — the full
    /// feature matrix never materializes in memory. The record
    /// stream is identical to [`ExperimentData::build`] at any
    /// worker-thread count.
    ///
    /// # Errors
    ///
    /// [`ColumnarError`] when the spill directory cannot be written.
    ///
    /// # Panics
    ///
    /// Panics when the dataset has too few threads for the warmup
    /// split (as [`ExperimentData::build`] does).
    pub fn build(
        dataset: &Dataset,
        config: &EvalConfig,
        dir: &Path,
    ) -> Result<Self, ColumnarError> {
        let threads = dataset.threads();
        let warmup = ((threads.len() as f64 * config.warmup_frac) as usize)
            .clamp(1, threads.len().saturating_sub(1));
        std::fs::create_dir_all(dir).map_err(|source| {
            ColumnarError::Store(StoreError::Io {
                path: dir.to_path_buf(),
                source,
            })
        })?;

        let fingerprint = spill_fingerprint(config);
        let started = Instant::now();
        let mut pos_writer = RowWriter::create(&dir.join(POS_FILE), &fingerprint)?;
        let mut neg_writer = RowWriter::create(&dir.join(NEG_FILE), &fingerprint)?;
        let mut io_error: Option<ColumnarError> = None;
        let shape = build_each(
            dataset,
            config,
            warmup,
            &config.extractor,
            &mut |pos, neg| {
                if io_error.is_some() {
                    return;
                }
                let r = pos_writer
                    .push_all(pos)
                    .and_then(|()| neg_writer.push_all(neg));
                if let Err(e) = r {
                    io_error = Some(e);
                }
            },
        );
        if let Some(e) = io_error {
            return Err(e);
        }
        let pos = pos_writer.finish()?;
        let neg = neg_writer.finish()?;

        let spilled = SpilledExperiment {
            dim: shape.layout.dim(),
            layout: shape.layout,
            num_users: shape.num_users,
            num_targets: shape.num_targets,
            windows: shape.windows,
            pos,
            neg,
            dir: dir.to_path_buf(),
        };
        spilled.write_meta(&fingerprint)?;
        let ms = started.elapsed().as_millis() as u64;
        forumcast_obs::observe("data.columnar.write_ms", ms.max(1));
        forumcast_obs::counter_add(
            "data.columnar.rows_written",
            (spilled.pos.len() + spilled.neg.len()) as u64,
        );
        Ok(spilled)
    }

    /// Spills an already-materialized experiment — the shape every
    /// equivalence test uses to prove the streamed path reproduces
    /// the resident one bit for bit.
    ///
    /// # Errors
    ///
    /// [`ColumnarError`] when the spill directory cannot be written.
    pub fn spill(
        data: &ExperimentData,
        config: &EvalConfig,
        dir: &Path,
    ) -> Result<Self, ColumnarError> {
        std::fs::create_dir_all(dir).map_err(|source| {
            ColumnarError::Store(StoreError::Io {
                path: dir.to_path_buf(),
                source,
            })
        })?;
        let fingerprint = spill_fingerprint(config);
        let started = Instant::now();
        let mut pos_writer = RowWriter::create(&dir.join(POS_FILE), &fingerprint)?;
        pos_writer.push_all(data.positives.clone())?;
        let pos = pos_writer.finish()?;
        let mut neg_writer = RowWriter::create(&dir.join(NEG_FILE), &fingerprint)?;
        neg_writer.push_all(data.negatives.clone())?;
        let neg = neg_writer.finish()?;
        let spilled = SpilledExperiment {
            dim: data.dim,
            layout: data.layout,
            num_users: data.num_users,
            num_targets: data.num_targets,
            windows: data.windows.clone(),
            pos,
            neg,
            dir: dir.to_path_buf(),
        };
        spilled.write_meta(&fingerprint)?;
        let ms = started.elapsed().as_millis() as u64;
        forumcast_obs::observe("data.columnar.write_ms", ms.max(1));
        Ok(spilled)
    }

    /// Reopens a spill directory written by an earlier [`build`]
    /// (`Self::build`) or [`spill`](Self::spill): reads `meta.fcr`,
    /// then streams both row files once to restore the resident
    /// metadata columns, cross-checking row counts and shape.
    ///
    /// # Errors
    ///
    /// [`ColumnarError`] on any damage: a missing or corrupt file, a
    /// torn row file (count mismatch vs. `meta.fcr`), or a shape
    /// contradiction.
    pub fn open(dir: &Path) -> Result<Self, ColumnarError> {
        let meta_path = dir.join(META_FILE);
        let mut meta_reader = FrameReader::open(&meta_path)?;
        let malformed = |message: String| ColumnarError::Malformed {
            path: meta_path.clone(),
            message,
        };
        let frame = meta_reader
            .next_frame()?
            .ok_or_else(|| malformed("missing meta frame".into()))?;
        let mut cur = Cursor::new(&frame);
        let dim = cur.varint()? as usize;
        let topics = cur.varint()? as usize;
        let num_users = cur.varint()? as usize;
        let num_targets = cur.varint()? as usize;
        let n_pos = cur.varint()? as usize;
        let n_neg = cur.varint()? as usize;
        let windows = cur.f64s(num_targets)?;
        cur.expect_end()?;
        let layout = FeatureLayout::new(topics);
        if layout.dim() != dim {
            return Err(malformed(format!(
                "dim {dim} disagrees with {topics} topics (expected {})",
                layout.dim()
            )));
        }

        let read_metas = |file: &str, expected: usize| {
            let mut stream = RowStream::open(&dir.join(file), dim, expected)?;
            let mut metas = Vec::with_capacity(expected);
            while let Some((meta, _x)) = stream.next_row()? {
                metas.push(meta);
            }
            Ok::<_, ColumnarError>(metas)
        };
        Ok(SpilledExperiment {
            dim,
            layout,
            num_users,
            num_targets,
            windows,
            pos: read_metas(POS_FILE, n_pos)?,
            neg: read_metas(NEG_FILE, n_neg)?,
            dir: dir.to_path_buf(),
        })
    }

    /// Streams the feature vectors of `side` from disk, in spill
    /// order.
    ///
    /// # Errors
    ///
    /// [`ColumnarError`] when the row file cannot be opened.
    pub fn stream(&self, side: Side) -> Result<RowStream, ColumnarError> {
        let (file, rows) = match side {
            Side::Positives => (POS_FILE, self.pos.len()),
            Side::Negatives => (NEG_FILE, self.neg.len()),
        };
        RowStream::open(&self.dir.join(file), self.dim, rows)
    }

    /// Reads everything back into a resident [`ExperimentData`] —
    /// the equivalence bridge for tests and hash comparisons.
    ///
    /// # Errors
    ///
    /// [`ColumnarError`] on any read failure.
    pub fn to_resident(&self) -> Result<ExperimentData, ColumnarError> {
        let read = |side| {
            let mut records = Vec::with_capacity(self.len(side));
            let mut stream = self.stream(side)?;
            while let Some((meta, x)) = stream.next_row()? {
                records.push(PairRecord {
                    user: meta.user,
                    target: meta.target,
                    x,
                    votes: meta.votes,
                    response_time: meta.response_time,
                });
            }
            Ok::<_, ColumnarError>(records)
        };
        let positives = read(Side::Positives)?;
        let negatives = read(Side::Negatives)?;
        Ok(ExperimentData {
            dim: self.dim,
            layout: self.layout,
            num_users: self.num_users,
            num_targets: self.num_targets,
            positives,
            negatives,
            windows: self.windows.clone(),
        })
    }

    /// The spill directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn metas(&self, side: Side) -> &[RowMeta] {
        match side {
            Side::Positives => &self.pos,
            Side::Negatives => &self.neg,
        }
    }

    fn write_meta(&self, fingerprint: &str) -> Result<(), ColumnarError> {
        let mut payload = Vec::new();
        write_varint(&mut payload, self.dim as u64);
        write_varint(&mut payload, self.layout.num_topics as u64);
        write_varint(&mut payload, self.num_users as u64);
        write_varint(&mut payload, self.num_targets as u64);
        write_varint(&mut payload, self.pos.len() as u64);
        write_varint(&mut payload, self.neg.len() as u64);
        for &w in &self.windows {
            payload.extend_from_slice(&w.to_bits().to_le_bytes());
        }
        let path = self.dir.join(META_FILE);
        let mut bytes = header_bytes(fingerprint);
        bytes.extend_from_slice(&frame_bytes(&payload));
        durable_write(&path, &bytes)
    }
}

impl RowSource for SpilledExperiment {
    type Error = ColumnarError;

    fn layout(&self) -> FeatureLayout {
        self.layout
    }

    fn num_users(&self) -> usize {
        self.num_users
    }

    fn windows(&self) -> &[f64] {
        &self.windows
    }

    fn len(&self, side: Side) -> usize {
        self.metas(side).len()
    }

    fn users(&self, side: Side) -> Vec<u32> {
        self.metas(side).iter().map(|m| m.user.0).collect()
    }

    fn for_each_row(
        &self,
        side: Side,
        f: &mut dyn FnMut(RowMeta, &[f64]),
    ) -> Result<(), ColumnarError> {
        let mut stream = self.stream(side)?;
        while let Some((meta, x)) = stream.next_row()? {
            f(meta, &x);
        }
        Ok(())
    }
}

const POS_FILE: &str = "pos.fcr";
const NEG_FILE: &str = "neg.fcr";
const META_FILE: &str = "meta.fcr";

fn spill_fingerprint(config: &EvalConfig) -> String {
    format!(
        "columnar seed={} topics={} warmup={} buckets={} negs={}",
        config.seed,
        config.extractor.lda.num_topics,
        config.warmup_frac,
        config.buckets,
        config.negatives_per_positive
    )
}

/// Writes `bytes` durably: tmp → `sync_all` → rename → parent fsync.
fn durable_write(path: &Path, bytes: &[u8]) -> Result<(), ColumnarError> {
    let io_err = |source: std::io::Error| {
        ColumnarError::Store(StoreError::Io {
            path: path.to_path_buf(),
            source,
        })
    };
    let tmp = tmp_path(path);
    let mut f = File::create(&tmp).map_err(io_err)?;
    f.write_all(bytes).map_err(io_err)?;
    f.sync_all().map_err(io_err)?;
    std::fs::rename(&tmp, path).map_err(io_err)?;
    if let Some(parent) = path.parent() {
        if let Ok(d) = File::open(parent) {
            let _ = d.sync_all();
        }
    }
    Ok(())
}

/// Incremental row-group writer for one row file: buffers records,
/// flushes a columnar frame every [`ROW_GROUP`] rows, and keeps the
/// resident metadata column as it goes.
struct RowWriter {
    path: PathBuf,
    out: BufWriter<File>,
    buf: Vec<PairRecord>,
    meta: Vec<RowMeta>,
    dim: Option<usize>,
}

impl RowWriter {
    fn create(path: &Path, fingerprint: &str) -> Result<RowWriter, ColumnarError> {
        let tmp = tmp_path(path);
        let file = File::create(&tmp).map_err(|source| {
            ColumnarError::Store(StoreError::Io {
                path: tmp.clone(),
                source,
            })
        })?;
        let mut w = RowWriter {
            path: path.to_path_buf(),
            out: BufWriter::new(file),
            buf: Vec::with_capacity(ROW_GROUP),
            meta: Vec::new(),
            dim: None,
        };
        w.write(&header_bytes(fingerprint))?;
        Ok(w)
    }

    fn push_all(&mut self, records: Vec<PairRecord>) -> Result<(), ColumnarError> {
        for r in records {
            self.dim.get_or_insert(r.x.len());
            self.buf.push(r);
            if self.buf.len() == ROW_GROUP {
                self.flush_group()?;
            }
        }
        Ok(())
    }

    fn flush_group(&mut self) -> Result<(), ColumnarError> {
        if self.buf.is_empty() {
            return Ok(());
        }
        let dim = self.dim.unwrap_or(0);
        let group: Vec<PairRecord> = std::mem::take(&mut self.buf);
        let payload = encode_group(&group, dim);
        for r in &group {
            self.meta.push(RowMeta {
                user: r.user,
                target: r.target,
                votes: r.votes,
                response_time: r.response_time,
            });
        }
        let frame = frame_bytes(&payload);
        self.write(&frame)
    }

    fn write(&mut self, bytes: &[u8]) -> Result<(), ColumnarError> {
        self.out.write_all(bytes).map_err(|source| {
            ColumnarError::Store(StoreError::Io {
                path: self.path.clone(),
                source,
            })
        })
    }

    /// Flushes the tail group, syncs, and renames into place.
    fn finish(mut self) -> Result<Vec<RowMeta>, ColumnarError> {
        self.flush_group()?;
        let io_err = |path: PathBuf| {
            move |source: std::io::Error| ColumnarError::Store(StoreError::Io { path, source })
        };
        self.out.flush().map_err(io_err(self.path.clone()))?;
        let file = self
            .out
            .into_inner()
            .map_err(|e| io_err(self.path.clone())(e.into_error()))?;
        file.sync_all().map_err(io_err(self.path.clone()))?;
        std::fs::rename(tmp_path(&self.path), &self.path).map_err(io_err(self.path.clone()))?;
        if let Some(parent) = self.path.parent() {
            if let Ok(d) = File::open(parent) {
                let _ = d.sync_all();
            }
        }
        Ok(self.meta)
    }
}

/// Encodes one row group: counts, then each column contiguous, then
/// the feature block feature-major.
fn encode_group(group: &[PairRecord], dim: usize) -> Vec<u8> {
    let n = group.len();
    let mut payload = Vec::with_capacity(16 + n * 24 + n * dim * 8);
    write_varint(&mut payload, n as u64);
    write_varint(&mut payload, dim as u64);
    for r in group {
        payload.extend_from_slice(&r.user.0.to_le_bytes());
    }
    for r in group {
        payload.extend_from_slice(&(r.target as u32).to_le_bytes());
    }
    for r in group {
        payload.extend_from_slice(&r.votes.to_bits().to_le_bytes());
    }
    for r in group {
        payload.extend_from_slice(&r.response_time.to_bits().to_le_bytes());
    }
    for j in 0..dim {
        for r in group {
            payload.extend_from_slice(&r.x[j].to_bits().to_le_bytes());
        }
    }
    payload
}

fn write_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            out.push(byte);
            break;
        }
        out.push(byte | 0x80);
    }
}

/// A bounds-checked payload cursor.
struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
    path: PathBuf,
}

impl<'a> Cursor<'a> {
    fn new(bytes: &'a [u8]) -> Cursor<'a> {
        Cursor {
            bytes,
            pos: 0,
            path: PathBuf::new(),
        }
    }

    fn at(bytes: &'a [u8], path: &Path) -> Cursor<'a> {
        Cursor {
            bytes,
            pos: 0,
            path: path.to_path_buf(),
        }
    }

    fn malformed(&self, message: impl Into<String>) -> ColumnarError {
        ColumnarError::Malformed {
            path: self.path.clone(),
            message: message.into(),
        }
    }

    fn varint(&mut self) -> Result<u64, ColumnarError> {
        let mut v = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = *self
                .bytes
                .get(self.pos)
                .ok_or_else(|| self.malformed("truncated varint"))?;
            self.pos += 1;
            v |= u64::from(byte & 0x7F) << shift;
            if byte & 0x80 == 0 {
                return Ok(v);
            }
        }
        Err(self.malformed("varint overflow"))
    }

    fn take(&mut self, len: usize) -> Result<&'a [u8], ColumnarError> {
        let end = self
            .pos
            .checked_add(len)
            .filter(|&e| e <= self.bytes.len())
            .ok_or_else(|| self.malformed(format!("{len}-byte column overruns payload")))?;
        let slice = &self.bytes[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    fn u32s(&mut self, n: usize) -> Result<Vec<u32>, ColumnarError> {
        let raw = self.take(n.checked_mul(4).ok_or_else(|| self.malformed("count"))?)?;
        Ok(raw
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect())
    }

    fn f64s(&mut self, n: usize) -> Result<Vec<f64>, ColumnarError> {
        let raw = self.take(n.checked_mul(8).ok_or_else(|| self.malformed("count"))?)?;
        Ok(raw
            .chunks_exact(8)
            .map(|c| {
                f64::from_bits(u64::from_le_bytes([
                    c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7],
                ]))
            })
            .collect())
    }

    fn expect_end(&self) -> Result<(), ColumnarError> {
        if self.pos == self.bytes.len() {
            Ok(())
        } else {
            Err(self.malformed(format!(
                "{} trailing bytes after declared columns",
                self.bytes.len() - self.pos
            )))
        }
    }
}

/// One decoded row group, transposed back to row-major features.
struct DecodedGroup {
    meta: Vec<RowMeta>,
    /// Row-major `n × dim`.
    x: Vec<f64>,
    dim: usize,
    cursor: usize,
}

fn decode_group(payload: &[u8], dim: usize, path: &Path) -> Result<DecodedGroup, ColumnarError> {
    let mut cur = Cursor::at(payload, path);
    let n = cur.varint()? as usize;
    let group_dim = cur.varint()? as usize;
    if group_dim != dim {
        return Err(cur.malformed(format!("group dim {group_dim}, experiment dim {dim}")));
    }
    let users = cur.u32s(n)?;
    let targets = cur.u32s(n)?;
    let votes = cur.f64s(n)?;
    let times = cur.f64s(n)?;
    let mut x = vec![0.0f64; n * dim];
    for j in 0..dim {
        let col = cur.f64s(n)?;
        for (i, v) in col.into_iter().enumerate() {
            x[i * dim + j] = v;
        }
    }
    cur.expect_end()?;
    let meta = (0..n)
        .map(|i| RowMeta {
            user: UserId(users[i]),
            target: targets[i] as usize,
            votes: votes[i],
            response_time: times[i],
        })
        .collect();
    Ok(DecodedGroup {
        meta,
        x,
        dim,
        cursor: 0,
    })
}

/// Streams one row file back a row group at a time; only the current
/// decoded group is resident.
pub struct RowStream {
    path: PathBuf,
    reader: FrameReader,
    dim: usize,
    expected_rows: usize,
    rows: usize,
    group: Option<DecodedGroup>,
    read_ns: u64,
    reported: bool,
}

impl RowStream {
    fn open(path: &Path, dim: usize, expected_rows: usize) -> Result<RowStream, ColumnarError> {
        let reader = FrameReader::open(path)?;
        Ok(RowStream {
            path: path.to_path_buf(),
            reader,
            dim,
            expected_rows,
            rows: 0,
            group: None,
            read_ns: 0,
            reported: false,
        })
    }

    /// Yields the next record's metadata and feature vector, or
    /// `Ok(None)` after the last row.
    ///
    /// # Errors
    ///
    /// [`ColumnarError::Store`] on container damage (a CRC-mismatched
    /// frame is quarantined first) and [`ColumnarError::Malformed`]
    /// on a shape contradiction — including a torn file that ends
    /// before the expected row count, or a file that runs past it.
    pub fn next_row(&mut self) -> Result<Option<(RowMeta, Vec<f64>)>, ColumnarError> {
        loop {
            if let Some(group) = &mut self.group {
                if group.cursor < group.meta.len() {
                    // Callers index per-row state by row number, so a
                    // file longer than declared is damage, not data.
                    if self.rows == self.expected_rows {
                        return Err(ColumnarError::Malformed {
                            path: self.path.clone(),
                            message: format!(
                                "row file holds more than the {} rows declared",
                                self.expected_rows
                            ),
                        });
                    }
                    let i = group.cursor;
                    group.cursor += 1;
                    self.rows += 1;
                    let meta = group.meta[i];
                    let x = group.x[i * group.dim..(i + 1) * group.dim].to_vec();
                    return Ok(Some((meta, x)));
                }
                self.group = None;
            }
            let started = Instant::now();
            let frame = self.reader.next_frame()?;
            self.read_ns += started.elapsed().as_nanos() as u64;
            match frame {
                Some(payload) => {
                    let started = Instant::now();
                    let decoded = decode_group(&payload, self.dim, &self.path)?;
                    self.read_ns += started.elapsed().as_nanos() as u64;
                    if decoded.meta.is_empty() {
                        return Err(ColumnarError::Malformed {
                            path: self.path.clone(),
                            message: "empty row group".into(),
                        });
                    }
                    self.group = Some(decoded);
                }
                None => {
                    self.report();
                    // `Ok(None)` from the frame layer is either the
                    // clean end of the file or a torn tail's valid
                    // prefix; the resident row count distinguishes
                    // them, so truncation is never silent.
                    if self.rows != self.expected_rows {
                        forumcast_obs::counter_add("data.columnar.truncated", 1);
                        return Err(ColumnarError::Malformed {
                            path: self.path.clone(),
                            message: format!(
                                "torn row file: {} of {} rows readable",
                                self.rows, self.expected_rows
                            ),
                        });
                    }
                    return Ok(None);
                }
            }
        }
    }

    fn report(&mut self) {
        if !self.reported {
            self.reported = true;
            forumcast_obs::observe("data.columnar.read_ms", (self.read_ns / 1_000_000).max(1));
        }
    }
}

impl Drop for RowStream {
    fn drop(&mut self) {
        self.report();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn temp_dir(name: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("forumcast-columnar-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn quick() -> (ExperimentData, EvalConfig) {
        let cfg = EvalConfig::quick();
        let (ds, _) = cfg.synth.generate().preprocess();
        (ExperimentData::build(&ds, &cfg), cfg)
    }

    #[test]
    fn spill_roundtrips_bitwise() {
        let (data, cfg) = quick();
        let dir = temp_dir("roundtrip");
        let spilled = SpilledExperiment::spill(&data, &cfg, &dir).unwrap();
        assert_eq!(spilled.pos.len(), data.positives.len());
        assert_eq!(spilled.neg.len(), data.negatives.len());
        let back = spilled.to_resident().unwrap();
        assert_eq!(back.positives, data.positives);
        assert_eq!(back.negatives, data.negatives);
        assert_eq!(back.windows, data.windows);
        assert_eq!(back.dim, data.dim);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn build_spills_the_same_records_as_the_resident_build() {
        let cfg = EvalConfig::quick();
        let (ds, _) = cfg.synth.generate().preprocess();
        let resident = ExperimentData::build(&ds, &cfg);
        let dir = temp_dir("build");
        let spilled = SpilledExperiment::build(&ds, &cfg, &dir).unwrap();
        let back = spilled.to_resident().unwrap();
        assert_eq!(back.positives, resident.positives);
        assert_eq!(back.negatives, resident.negatives);
        assert_eq!(back.windows, resident.windows);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_restores_shape_and_metadata() {
        let (data, cfg) = quick();
        let dir = temp_dir("open");
        let spilled = SpilledExperiment::spill(&data, &cfg, &dir).unwrap();
        let reopened = SpilledExperiment::open(&dir).unwrap();
        assert_eq!(reopened.dim, spilled.dim);
        assert_eq!(reopened.num_users, spilled.num_users);
        assert_eq!(reopened.num_targets, spilled.num_targets);
        assert_eq!(reopened.windows, spilled.windows);
        assert_eq!(reopened.pos, spilled.pos);
        assert_eq!(reopened.neg, spilled.neg);
        let back = reopened.to_resident().unwrap();
        assert_eq!(back.positives, data.positives);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn open_without_meta_is_refused() {
        let (data, cfg) = quick();
        let dir = temp_dir("nometa");
        SpilledExperiment::spill(&data, &cfg, &dir).unwrap();
        std::fs::remove_file(dir.join(META_FILE)).unwrap();
        assert!(SpilledExperiment::open(&dir).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_row_file_is_a_detected_truncation_not_silent_loss() {
        let (data, cfg) = quick();
        let dir = temp_dir("torn");
        let spilled = SpilledExperiment::spill(&data, &cfg, &dir).unwrap();
        let path = dir.join(POS_FILE);
        let bytes = std::fs::read(&path).unwrap();
        // Cut into the final frame: the frame layer truncates to the
        // valid prefix, and the row layer reports the shortfall.
        std::fs::write(&path, &bytes[..bytes.len() - 9]).unwrap();
        let mut stream = spilled.stream(Side::Positives).unwrap();
        let err = loop {
            match stream.next_row() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("truncation must not end the stream cleanly"),
                Err(e) => break e,
            }
        };
        assert!(
            matches!(&err, ColumnarError::Malformed { message, .. } if message.contains("torn")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn row_file_longer_than_declared_is_malformed() {
        let (data, pos, _, _) = pristine();
        let dir = temp_dir("long");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join(POS_FILE), pos).unwrap();
        let declared = data.positives.len() - 1;
        let mut stream = RowStream::open(&dir.join(POS_FILE), data.dim, declared).unwrap();
        let mut rows = 0;
        let err = loop {
            match stream.next_row() {
                Ok(Some(_)) => rows += 1,
                Ok(None) => panic!("an over-long file must not end the stream cleanly"),
                Err(e) => break e,
            }
        };
        assert_eq!(rows, declared, "every declared row is yielded first");
        assert!(
            matches!(&err, ColumnarError::Malformed { message, .. } if message.contains("more than")),
            "{err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// Pristine spill bytes shared by the proptest sweep: generating
    /// and spilling once keeps the 32-case sweep fast.
    type Pristine = (ExperimentData, Vec<u8>, Vec<u8>, Vec<u8>);

    fn pristine() -> &'static Pristine {
        use std::sync::OnceLock;
        static CELL: OnceLock<Pristine> = OnceLock::new();
        CELL.get_or_init(|| {
            let (data, cfg) = quick();
            let dir = temp_dir("pristine");
            SpilledExperiment::spill(&data, &cfg, &dir).unwrap();
            let pos = std::fs::read(dir.join(POS_FILE)).unwrap();
            let neg = std::fs::read(dir.join(NEG_FILE)).unwrap();
            let meta = std::fs::read(dir.join(META_FILE)).unwrap();
            std::fs::remove_dir_all(&dir).unwrap();
            (data, pos, neg, meta)
        })
    }

    proptest::proptest! {
        /// The no-silent-garbage sweep: any single-bit flip or
        /// truncation of a row file either surfaces a typed error
        /// (torn tail detected by the row-count cross-check, CRC
        /// mismatch quarantined) or leaves the decoded experiment
        /// bitwise-identical to the pristine one. No damaged byte
        /// ever reaches a fold as data.
        #[test]
        fn corrupted_row_files_never_yield_silent_garbage(
            frac in 0.0f64..1.0,
            bit in 0u32..8,
            truncate in proptest::prelude::any::<bool>(),
            hit_neg in proptest::prelude::any::<bool>(),
        ) {
            let (clean, pos, neg, meta) = pristine();
            let mut pos = pos.clone();
            let mut neg = neg.clone();
            {
                let bytes = if hit_neg { &mut neg } else { &mut pos };
                let idx = ((bytes.len() - 1) as f64 * frac) as usize;
                if truncate {
                    bytes.truncate(idx.max(1));
                } else {
                    bytes[idx] ^= 1u8 << bit;
                }
            }
            let dir = temp_dir("prop-sweep");
            std::fs::create_dir_all(&dir).unwrap();
            std::fs::write(dir.join(POS_FILE), &pos).unwrap();
            std::fs::write(dir.join(NEG_FILE), &neg).unwrap();
            std::fs::write(dir.join(META_FILE), meta).unwrap();
            // Err is the acceptable typed rejection; Ok must be bitwise clean.
            if let Ok(back) = SpilledExperiment::open(&dir).and_then(|s| s.to_resident()) {
                proptest::prop_assert_eq!(&back.positives, &clean.positives);
                proptest::prop_assert_eq!(&back.negatives, &clean.negatives);
            }
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }

    #[test]
    fn crc_flip_mid_file_quarantines_and_errors() {
        let (data, cfg) = quick();
        let dir = temp_dir("crc");
        let spilled = SpilledExperiment::spill(&data, &cfg, &dir).unwrap();
        let path = dir.join(POS_FILE);
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let mut stream = spilled.stream(Side::Positives).unwrap();
        let err = loop {
            match stream.next_row() {
                Ok(Some(_)) => continue,
                Ok(None) => panic!("corruption must not end the stream cleanly"),
                Err(e) => break e,
            }
        };
        match err {
            ColumnarError::Store(StoreError::CrcMismatch { .. }) => {
                assert!(!path.exists(), "damaged file must be quarantined");
            }
            // A flip landing in a length varint can also surface as a
            // declared-length/shape contradiction — typed either way.
            ColumnarError::Malformed { .. } | ColumnarError::Store(_) => {}
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
