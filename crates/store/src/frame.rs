//! Framed file format, durability protocol, and corruption policy.
//!
//! On-disk layout:
//!
//! ```text
//! ┌──────────────────────────────────────────────────────────────┐
//! │ magic  "FCSTBIN1"                                    8 bytes │
//! ├──────────────────────────────────────────────────────────────┤
//! │ header body: varint format version                           │
//! │              varint fingerprint length, fingerprint UTF-8    │
//! │ header CRC32 over the header body             4 bytes, LE    │
//! ├──────────────────────────────────────────────────────────────┤
//! │ frame 0: varint payload length                               │
//! │          payload bytes (one encoded Value)                   │
//! │          CRC32 over length varint + payload   4 bytes, LE    │
//! ├──────────────────────────────────────────────────────────────┤
//! │ frame 1 … frame N−1                                          │
//! └──────────────────────────────────────────────────────────────┘
//! ```
//!
//! Each frame CRC covers its *length varint* as well as the payload,
//! so a bit flip anywhere inside a complete frame is a guaranteed
//! CRC mismatch (CRC-32 detects all single-bit errors); a flip that
//! inflates a length varint past the end of the file degrades to a
//! torn tail, which truncates to the valid frame prefix. Either way
//! no mutated payload byte ever reaches a caller.
//!
//! Durability protocol ([`StoreFile::save`]): write `<path>.tmp` →
//! `File::sync_all` → rename over `path` → `sync_all` on the parent
//! directory handle, so the rename itself is durable. Readers
//! ([`StoreFile::load`]) apply the corruption policy: torn tail →
//! valid prefix + `store.frame.torn` counter; CRC mismatch →
//! quarantine the file to `<path>.corrupt` (+`store.crc.mismatch`,
//! `ckpt.corrupt.quarantined`) and return a typed error naming the
//! frame. [`scan`] is the pure, non-mutating variant backing the
//! `forumcast ckpt` CLI — it never counts, renames, or truncates.

use std::fs::{self, File};
use std::io::Write as _;
use std::path::{Path, PathBuf};

use crate::crc32::crc32;
use crate::varint;

/// File magic: identifies a forumcast binary store.
pub const MAGIC: [u8; 8] = *b"FCSTBIN1";

/// Current container format version (the header is self-describing;
/// payload schema evolution is the fingerprint's job).
pub const FORMAT_VERSION: u64 = 1;

/// Errors from store reads and writes.
#[derive(Debug)]
pub enum StoreError {
    /// An OS-level failure, with the path being operated on.
    Io {
        /// Path the operation touched.
        path: PathBuf,
        /// Underlying error.
        source: std::io::Error,
    },
    /// The file does not begin with [`MAGIC`] — not a binary store.
    NotAStore {
        /// Offending path.
        path: PathBuf,
    },
    /// The header is unreadable: CRC mismatch or malformed fields.
    HeaderCorrupt {
        /// Offending path.
        path: PathBuf,
        /// What specifically failed.
        detail: String,
    },
    /// A well-formed header from a newer format version.
    UnsupportedVersion {
        /// Offending path.
        path: PathBuf,
        /// Version found in the header.
        version: u64,
    },
    /// A complete frame whose CRC does not match its contents.
    CrcMismatch {
        /// Offending path (after any quarantine rename, the
        /// original path; the message names the quarantine target).
        path: PathBuf,
        /// Zero-based index of the bad frame.
        frame: usize,
        /// Byte offset of the frame start within the file.
        offset: usize,
        /// Quarantine destination, if the file was moved.
        quarantined_to: Option<PathBuf>,
    },
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "store io error at {}: {source}", path.display())
            }
            StoreError::NotAStore { path } => {
                write!(f, "{} is not a binary store (bad magic)", path.display())
            }
            StoreError::HeaderCorrupt { path, detail } => {
                write!(f, "store header corrupt in {}: {detail}", path.display())
            }
            StoreError::UnsupportedVersion { path, version } => write!(
                f,
                "store {} has format version {version}, newer than supported {FORMAT_VERSION}",
                path.display()
            ),
            StoreError::CrcMismatch {
                path,
                frame,
                offset,
                quarantined_to,
            } => {
                write!(
                    f,
                    "CRC mismatch in frame {frame} (offset {offset}) of {}",
                    path.display()
                )?;
                if let Some(q) = quarantined_to {
                    write!(f, "; file quarantined to {}", q.display())?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Injected corruption applied by [`StoreFile::save`] *after* the
/// bytes are assembled — simulating media-level damage that the
/// tmp+rename protocol cannot see. The save still completes (write,
/// sync, rename) and returns `Ok`, exactly like a real torn write
/// that bites after the rename was made durable.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Corruption {
    /// Cut the file midway through its final frame (or midway
    /// through the header when there are no frames).
    TearLastFrame,
    /// Flip one bit of frame payload. `bit` indexes the
    /// concatenation of all frame payload bytes, modulo its size, so
    /// any value is valid and deterministic.
    FlipPayloadBit {
        /// Global payload bit index (wrapped).
        bit: u64,
    },
}

/// Knobs for [`StoreFile::save`]. `Default` is a clean, durable save.
#[derive(Debug, Default)]
pub struct SaveOptions {
    /// Damage to inject into the written bytes (fault testing).
    pub corruption: Option<Corruption>,
    /// When set, the save fails at the `sync_all` step with an I/O
    /// error carrying this message, after removing the tmp file —
    /// simulating an fsync failure surfaced before the rename.
    pub fail_sync: Option<String>,
}

/// Why a scan stopped before the end of the file.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FrameIssue {
    /// The final bytes are an incomplete frame (torn write): not
    /// enough bytes for the declared length plus its CRC.
    Torn {
        /// Byte offset where the incomplete frame begins.
        offset: usize,
    },
    /// A complete frame failed its CRC check.
    CrcMismatch {
        /// Zero-based index of the bad frame.
        frame: usize,
        /// Byte offset of the frame start.
        offset: usize,
    },
}

/// Result of a pure structural [`scan`].
#[derive(Debug)]
pub struct Scan {
    /// Format version from the header.
    pub version: u64,
    /// Config fingerprint from the header.
    pub fingerprint: String,
    /// Payloads of the valid frame prefix.
    pub frames: Vec<Vec<u8>>,
    /// Byte offset one past the last valid frame — the truncation
    /// point a repair would cut to.
    pub valid_end: usize,
    /// Total file length in bytes.
    pub file_len: usize,
    /// The problem that stopped the scan, if any.
    pub issue: Option<FrameIssue>,
}

/// An in-memory store file: header metadata plus raw frame payloads.
#[derive(Debug, Clone, PartialEq)]
pub struct StoreFile {
    /// Container format version (written as [`FORMAT_VERSION`]).
    pub version: u64,
    /// Free-form config fingerprint; readers compare it against the
    /// fingerprint they expect before trusting the payloads.
    pub fingerprint: String,
    /// Frame payloads, typically one encoded `Value` each.
    pub frames: Vec<Vec<u8>>,
}

impl StoreFile {
    /// Creates a store at the current format version.
    pub fn new(fingerprint: impl Into<String>, frames: Vec<Vec<u8>>) -> Self {
        StoreFile {
            version: FORMAT_VERSION,
            fingerprint: fingerprint.into(),
            frames,
        }
    }

    /// Serializes the store to its on-disk byte layout.
    pub fn encode(&self) -> Vec<u8> {
        self.encode_with_payload_spans().0
    }

    /// Serializes and also returns the (start, end) byte range of
    /// each frame's *payload* within the output — used by injected
    /// corruption to target payload bits precisely.
    fn encode_with_payload_spans(&self) -> (Vec<u8>, Vec<(usize, usize)>) {
        let mut out = Vec::with_capacity(64 + self.frames.iter().map(Vec::len).sum::<usize>());
        out.extend_from_slice(&MAGIC);

        let mut header = Vec::with_capacity(16 + self.fingerprint.len());
        varint::write_u64(&mut header, self.version);
        varint::write_u64(&mut header, self.fingerprint.len() as u64);
        header.extend_from_slice(self.fingerprint.as_bytes());
        let header_crc = crc32(&header);
        out.extend_from_slice(&header);
        out.extend_from_slice(&header_crc.to_le_bytes());

        let mut spans = Vec::with_capacity(self.frames.len());
        for payload in &self.frames {
            let frame_start = out.len();
            varint::write_u64(&mut out, payload.len() as u64);
            let payload_start = out.len();
            out.extend_from_slice(payload);
            spans.push((payload_start, out.len()));
            let frame_crc = crc32(&out[frame_start..]);
            out.extend_from_slice(&frame_crc.to_le_bytes());
        }
        (out, spans)
    }

    /// Atomically and durably writes the store to `path`, returning
    /// the number of bytes in the file.
    ///
    /// Protocol: write [`tmp_path`]`(path)`, fsync the file, rename
    /// over `path`, fsync the parent directory.
    ///
    /// # Errors
    ///
    /// [`StoreError::Io`] on any filesystem failure, including the
    /// injected `fail_sync` fault (tmp is removed first so no stale
    /// leftover survives an injected sync failure — a *real* crash
    /// mid-protocol is what leaves tmps behind, covered by
    /// [`reclaim_tmp`]).
    pub fn save(&self, path: &Path, opts: &SaveOptions) -> Result<u64, StoreError> {
        let (mut bytes, payload_spans) = self.encode_with_payload_spans();

        match &opts.corruption {
            None => {}
            Some(Corruption::TearLastFrame) => {
                let cut = match payload_spans.last() {
                    // Midway through the final frame's payload: the
                    // length varint promises more than remains.
                    Some(&(start, end)) => start + (end - start) / 2,
                    // No frames: tear the header itself.
                    None => bytes.len() / 2,
                };
                bytes.truncate(cut.max(1));
            }
            Some(Corruption::FlipPayloadBit { bit }) => {
                let total: usize = payload_spans.iter().map(|(s, e)| e - s).sum();
                if total > 0 {
                    let byte_idx = (bit / 8) as usize % total;
                    let mask = 1u8 << (bit % 8) as u8;
                    let mut remaining = byte_idx;
                    for &(start, end) in &payload_spans {
                        let len = end - start;
                        if remaining < len {
                            bytes[start + remaining] ^= mask;
                            break;
                        }
                        remaining -= len;
                    }
                }
            }
        }

        let tmp = tmp_path(path);
        let io_err = |p: &Path| {
            let p = p.to_path_buf();
            move |source: std::io::Error| StoreError::Io { path: p, source }
        };

        let mut file = File::create(&tmp).map_err(io_err(&tmp))?;
        file.write_all(&bytes).map_err(io_err(&tmp))?;

        if let Some(msg) = &opts.fail_sync {
            drop(file);
            let _ = fs::remove_file(&tmp);
            return Err(StoreError::Io {
                path: tmp,
                source: std::io::Error::other(msg.clone()),
            });
        }

        file.sync_all().map_err(io_err(&tmp))?;
        drop(file);
        fs::rename(&tmp, path).map_err(io_err(path))?;
        sync_parent_dir(path)?;
        Ok(bytes.len() as u64)
    }

    /// Reads a store from `path`, applying the corruption policy:
    ///
    /// - torn tail → the valid frame prefix is returned and
    ///   `store.frame.torn` is counted;
    /// - frame or header CRC mismatch → the file is renamed to
    ///   `<path>.corrupt` (`store.crc.mismatch` +
    ///   `ckpt.corrupt.quarantined` counted) and a typed error names
    ///   the frame;
    /// - bad magic → [`StoreError::NotAStore`], file untouched (the
    ///   caller decides whether a foreign file is damage);
    /// - newer format version with a valid header CRC →
    ///   [`StoreError::UnsupportedVersion`], file untouched.
    ///
    /// # Errors
    ///
    /// [`StoreError`] as above, or [`StoreError::Io`] if the file
    /// cannot be read.
    pub fn load(path: &Path) -> Result<StoreFile, StoreError> {
        let bytes = fs::read(path).map_err(|source| StoreError::Io {
            path: path.to_path_buf(),
            source,
        })?;
        let scan = match scan(&bytes, path) {
            Ok(scan) => scan,
            Err(err @ StoreError::HeaderCorrupt { .. }) => {
                forumcast_obs::counter_add("store.crc.mismatch", 1);
                quarantine(path);
                return Err(err);
            }
            Err(other) => return Err(other),
        };
        match scan.issue {
            None => {}
            Some(FrameIssue::Torn { .. }) => {
                forumcast_obs::counter_add("store.frame.torn", 1);
            }
            Some(FrameIssue::CrcMismatch { frame, offset }) => {
                forumcast_obs::counter_add("store.crc.mismatch", 1);
                let quarantined_to = quarantine(path);
                return Err(StoreError::CrcMismatch {
                    path: path.to_path_buf(),
                    frame,
                    offset,
                    quarantined_to,
                });
            }
        }
        Ok(StoreFile {
            version: scan.version,
            fingerprint: scan.fingerprint,
            frames: scan.frames,
        })
    }
}

/// Pure structural walk of store bytes: parses the header, then
/// frames until the end of the file, a torn tail, or a CRC mismatch.
/// Never mutates anything and never touches counters — this is the
/// read path for `forumcast ckpt inspect`/`verify`/`repair`.
///
/// # Errors
///
/// [`StoreError::NotAStore`] on bad magic,
/// [`StoreError::HeaderCorrupt`] on a damaged header,
/// [`StoreError::UnsupportedVersion`] on a valid newer header.
/// Frame-level problems are *not* errors here: they are reported in
/// [`Scan::issue`] alongside the valid prefix.
pub fn scan(bytes: &[u8], path: &Path) -> Result<Scan, StoreError> {
    if bytes.len() < MAGIC.len() || bytes[..MAGIC.len()] != MAGIC {
        return Err(StoreError::NotAStore {
            path: path.to_path_buf(),
        });
    }
    let header_corrupt = |detail: &str| StoreError::HeaderCorrupt {
        path: path.to_path_buf(),
        detail: detail.to_owned(),
    };

    let mut pos = MAGIC.len();
    let header_start = pos;
    let (version, used) =
        varint::read_u64(&bytes[pos..]).map_err(|_| header_corrupt("bad version varint"))?;
    pos += used;
    let (fp_len, used) = varint::read_u64(&bytes[pos..])
        .map_err(|_| header_corrupt("bad fingerprint length varint"))?;
    pos += used;
    let fp_len = usize::try_from(fp_len)
        .ok()
        .filter(|&n| n <= bytes.len().saturating_sub(pos))
        .ok_or_else(|| header_corrupt("fingerprint length exceeds file"))?;
    let fp_bytes = &bytes[pos..pos + fp_len];
    pos += fp_len;
    if bytes.len() < pos + 4 {
        return Err(header_corrupt("truncated header CRC"));
    }
    let stored = u32::from_le_bytes(bytes[pos..pos + 4].try_into().unwrap());
    if crc32(&bytes[header_start..pos]) != stored {
        return Err(header_corrupt("header CRC mismatch"));
    }
    let fingerprint = std::str::from_utf8(fp_bytes)
        .map_err(|_| header_corrupt("fingerprint is not UTF-8"))?
        .to_owned();
    pos += 4;
    if version > FORMAT_VERSION {
        return Err(StoreError::UnsupportedVersion {
            path: path.to_path_buf(),
            version,
        });
    }

    let mut frames = Vec::new();
    let mut valid_end = pos;
    let mut issue = None;
    while pos < bytes.len() {
        let frame_start = pos;
        let Ok((payload_len, len_used)) = varint::read_u64(&bytes[pos..]) else {
            issue = Some(FrameIssue::Torn {
                offset: frame_start,
            });
            break;
        };
        // A complete frame needs the length varint, the payload, and
        // 4 CRC bytes; anything short of that is a torn tail.
        let fixed = pos + len_used + 4;
        let Some(payload_len) = usize::try_from(payload_len)
            .ok()
            .filter(|&n| fixed <= bytes.len() && n <= bytes.len() - fixed)
        else {
            issue = Some(FrameIssue::Torn {
                offset: frame_start,
            });
            break;
        };
        let payload_start = pos + len_used;
        let crc_start = payload_start + payload_len;
        let stored = u32::from_le_bytes(bytes[crc_start..crc_start + 4].try_into().unwrap());
        if crc32(&bytes[frame_start..crc_start]) != stored {
            issue = Some(FrameIssue::CrcMismatch {
                frame: frames.len(),
                offset: frame_start,
            });
            break;
        }
        frames.push(bytes[payload_start..crc_start].to_vec());
        pos = crc_start + 4;
        valid_end = pos;
    }

    Ok(Scan {
        version,
        fingerprint,
        frames,
        valid_end,
        file_len: bytes.len(),
        issue,
    })
}

/// What one incremental varint read found.
enum VarintRead {
    /// A complete varint: the value and its raw encoded bytes.
    Value(u64, Vec<u8>),
    /// Clean end of file before the first byte.
    Eof,
    /// The file ended mid-varint, or the encoding overflowed — the
    /// incremental analogue of a torn tail.
    Torn,
}

/// Reads one LEB128 varint from `r`, byte by byte.
fn read_varint(r: &mut impl std::io::Read) -> std::io::Result<VarintRead> {
    let mut buf = Vec::with_capacity(varint::MAX_LEN);
    loop {
        let mut byte = [0u8; 1];
        match r.read(&mut byte)? {
            0 => {
                return Ok(if buf.is_empty() {
                    VarintRead::Eof
                } else {
                    VarintRead::Torn
                });
            }
            _ => buf.push(byte[0]),
        }
        if byte[0] & 0x80 == 0 || buf.len() >= varint::MAX_LEN {
            return Ok(match varint::read_u64(&buf) {
                Ok((value, used)) if used == buf.len() => VarintRead::Value(value, buf),
                _ => VarintRead::Torn,
            });
        }
    }
}

/// A streaming store reader: parses the header on open, then yields
/// one frame payload at a time — the whole file is never resident,
/// which is what lets the columnar dataset reader hold a single row
/// group in memory. Applies the same corruption policy as
/// [`StoreFile::load`]: torn tail → the valid prefix was already
/// yielded and the stream ends cleanly (`store.frame.torn` counted);
/// CRC mismatch → the file is quarantined and a typed error names
/// the frame.
#[derive(Debug)]
pub struct FrameReader {
    path: PathBuf,
    file: std::io::BufReader<File>,
    version: u64,
    fingerprint: String,
    file_len: u64,
    pos: u64,
    frame_index: usize,
    done: bool,
}

impl FrameReader {
    /// Opens `path` and validates the header (magic, version,
    /// fingerprint, header CRC).
    ///
    /// # Errors
    ///
    /// Mirrors [`StoreFile::load`]: [`StoreError::NotAStore`] on bad
    /// magic (file untouched), [`StoreError::HeaderCorrupt`] on
    /// header damage (file quarantined, `store.crc.mismatch`
    /// counted), [`StoreError::UnsupportedVersion`] on a valid newer
    /// header, [`StoreError::Io`] on filesystem failure.
    pub fn open(path: &Path) -> Result<FrameReader, StoreError> {
        let io_err = |source: std::io::Error| StoreError::Io {
            path: path.to_path_buf(),
            source,
        };
        let file = File::open(path).map_err(io_err)?;
        let file_len = file.metadata().map_err(io_err)?.len();
        let mut reader = std::io::BufReader::new(file);

        let mut magic = [0u8; 8];
        if std::io::Read::read_exact(&mut reader, &mut magic).is_err() || magic != MAGIC {
            return Err(StoreError::NotAStore {
                path: path.to_path_buf(),
            });
        }

        let header_corrupt = |reader: std::io::BufReader<File>, detail: &str| {
            drop(reader);
            forumcast_obs::counter_add("store.crc.mismatch", 1);
            quarantine(path);
            StoreError::HeaderCorrupt {
                path: path.to_path_buf(),
                detail: detail.to_owned(),
            }
        };

        // Header body: version varint, fingerprint length varint,
        // fingerprint bytes — accumulated verbatim for the CRC check.
        let mut header = Vec::new();
        let version = match read_varint(&mut reader).map_err(io_err)? {
            VarintRead::Value(v, raw) => {
                header.extend_from_slice(&raw);
                v
            }
            _ => return Err(header_corrupt(reader, "bad version varint")),
        };
        let fp_len = match read_varint(&mut reader).map_err(io_err)? {
            VarintRead::Value(v, raw) => {
                header.extend_from_slice(&raw);
                v
            }
            _ => return Err(header_corrupt(reader, "bad fingerprint length varint")),
        };
        let Some(fp_len) = usize::try_from(fp_len)
            .ok()
            .filter(|&n| (n as u64) <= file_len.saturating_sub(MAGIC.len() as u64))
        else {
            return Err(header_corrupt(reader, "fingerprint length exceeds file"));
        };
        let fp_start = header.len();
        header.resize(fp_start + fp_len, 0);
        if std::io::Read::read_exact(&mut reader, &mut header[fp_start..]).is_err() {
            return Err(header_corrupt(reader, "truncated fingerprint"));
        }
        let mut crc_bytes = [0u8; 4];
        if std::io::Read::read_exact(&mut reader, &mut crc_bytes).is_err() {
            return Err(header_corrupt(reader, "truncated header CRC"));
        }
        if crc32(&header) != u32::from_le_bytes(crc_bytes) {
            return Err(header_corrupt(reader, "header CRC mismatch"));
        }
        let Ok(fingerprint) = std::str::from_utf8(&header[fp_start..]).map(str::to_owned) else {
            return Err(header_corrupt(reader, "fingerprint is not UTF-8"));
        };
        if version > FORMAT_VERSION {
            return Err(StoreError::UnsupportedVersion {
                path: path.to_path_buf(),
                version,
            });
        }

        let pos = MAGIC.len() as u64 + header.len() as u64 + 4;
        Ok(FrameReader {
            path: path.to_path_buf(),
            file: reader,
            version,
            fingerprint,
            file_len,
            pos,
            frame_index: 0,
            done: false,
        })
    }

    /// Container format version from the header.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Config fingerprint from the header.
    pub fn fingerprint(&self) -> &str {
        &self.fingerprint
    }

    /// Frames yielded so far.
    pub fn frames_read(&self) -> usize {
        self.frame_index
    }

    /// Reads the next frame payload. `Ok(None)` at the clean end of
    /// the file *or* at a torn tail (the valid prefix semantics of
    /// [`StoreFile::load`]; `store.frame.torn` is counted).
    ///
    /// # Errors
    ///
    /// [`StoreError::CrcMismatch`] on a damaged complete frame — the
    /// file is quarantined first — or [`StoreError::Io`].
    pub fn next_frame(&mut self) -> Result<Option<Vec<u8>>, StoreError> {
        if self.done {
            return Ok(None);
        }
        let io_err = |path: &Path| {
            let path = path.to_path_buf();
            move |source: std::io::Error| StoreError::Io { path, source }
        };
        let frame_start = self.pos;
        let (payload_len, len_bytes) =
            match read_varint(&mut self.file).map_err(io_err(&self.path))? {
                VarintRead::Eof => {
                    self.done = true;
                    return Ok(None);
                }
                VarintRead::Torn => return Ok(self.torn()),
                VarintRead::Value(v, raw) => (v, raw),
            };
        // A complete frame needs the length varint, the payload, and
        // 4 CRC bytes; a declared length past the end of the file is
        // a torn tail, exactly as in `scan`.
        let fixed = frame_start + len_bytes.len() as u64 + 4;
        let Some(payload_len) = usize::try_from(payload_len)
            .ok()
            .filter(|&n| fixed <= self.file_len && n as u64 <= self.file_len - fixed)
        else {
            return Ok(self.torn());
        };
        let len_used = len_bytes.len();
        let mut frame = len_bytes;
        frame.resize(len_used + payload_len, 0);
        if std::io::Read::read_exact(&mut self.file, &mut frame[len_used..]).is_err() {
            return Ok(self.torn());
        }
        let mut crc_bytes = [0u8; 4];
        if std::io::Read::read_exact(&mut self.file, &mut crc_bytes).is_err() {
            return Ok(self.torn());
        }
        if crc32(&frame) != u32::from_le_bytes(crc_bytes) {
            self.done = true;
            forumcast_obs::counter_add("store.crc.mismatch", 1);
            let quarantined_to = quarantine(&self.path);
            return Err(StoreError::CrcMismatch {
                path: self.path.clone(),
                frame: self.frame_index,
                offset: frame_start as usize,
                quarantined_to,
            });
        }
        self.frame_index += 1;
        self.pos = frame_start + len_used as u64 + payload_len as u64 + 4;
        Ok(Some(frame.split_off(len_used)))
    }

    /// Marks the stream torn: count, stop, end-of-stream.
    fn torn(&mut self) -> Option<Vec<u8>> {
        self.done = true;
        forumcast_obs::counter_add("store.frame.torn", 1);
        None
    }
}

/// Serializes just the container header — magic, format version,
/// fingerprint, header CRC — the prefix an append-only writer lays
/// down once before streaming frames with [`frame_bytes`].
/// Concatenating this with any sequence of `frame_bytes` outputs
/// yields exactly the byte layout [`scan`] parses.
pub fn header_bytes(fingerprint: &str) -> Vec<u8> {
    let mut out = Vec::with_capacity(MAGIC.len() + 16 + fingerprint.len());
    out.extend_from_slice(&MAGIC);
    let mut header = Vec::with_capacity(16 + fingerprint.len());
    varint::write_u64(&mut header, FORMAT_VERSION);
    varint::write_u64(&mut header, fingerprint.len() as u64);
    header.extend_from_slice(fingerprint.as_bytes());
    let crc = crc32(&header);
    out.extend_from_slice(&header);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// Serializes one frame — length varint, payload, CRC32 over both —
/// the unit an append-only writer adds per record.
pub fn frame_bytes(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(payload.len() + 14);
    varint::write_u64(&mut out, payload.len() as u64);
    out.extend_from_slice(payload);
    let crc = crc32(&out);
    out.extend_from_slice(&crc.to_le_bytes());
    out
}

/// The quarantine destination for a corrupt file: the first *free* of
/// `<path>.corrupt`, `<path>.corrupt.1`, `<path>.corrupt.2`, … so a
/// repeat corruption of the same path never overwrites the forensic
/// evidence an earlier quarantine preserved.
pub fn corrupt_path(path: &Path) -> PathBuf {
    let mut base = path.as_os_str().to_owned();
    base.push(".corrupt");
    let first = PathBuf::from(&base);
    if !first.exists() {
        return first;
    }
    for n in 1u64.. {
        let mut name = base.clone();
        name.push(format!(".{n}"));
        let candidate = PathBuf::from(name);
        if !candidate.exists() {
            return candidate;
        }
    }
    unreachable!("some numbered quarantine slot is free")
}

/// Moves `path` aside to [`corrupt_path`], counting
/// `ckpt.corrupt.quarantined`. Best-effort: returns the destination
/// if the rename succeeded. The quarantined copy is preserved for
/// post-mortem inspection rather than deleted.
pub fn quarantine(path: &Path) -> Option<PathBuf> {
    let dest = corrupt_path(path);
    match fs::rename(path, &dest) {
        Ok(()) => {
            forumcast_obs::counter_add("ckpt.corrupt.quarantined", 1);
            Some(dest)
        }
        Err(_) => None,
    }
}

/// The temporary file [`StoreFile::save`] writes before renaming it
/// over `path`: `<path>.tmp`, the whole file name with `.tmp`
/// appended, so a sibling that only shares the stem (`x.tmp` next to
/// `x.ckpt`) is never touched.
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

/// Fsyncs the directory containing `path`, making a just-completed
/// rename durable.
fn sync_parent_dir(path: &Path) -> Result<(), StoreError> {
    let parent = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.to_path_buf(),
        _ => PathBuf::from("."),
    };
    let dir = File::open(&parent).map_err(|source| StoreError::Io {
        path: parent.clone(),
        source,
    })?;
    dir.sync_all().map_err(|source| StoreError::Io {
        path: parent,
        source,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("forumcast-store-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).expect("create tmp dir");
        dir
    }

    fn sample() -> StoreFile {
        StoreFile::new(
            "test-fp v1",
            vec![b"first payload".to_vec(), b"second".to_vec(), vec![0; 32]],
        )
    }

    #[test]
    fn save_load_roundtrips() {
        let dir = tmp_dir("roundtrip");
        let path = dir.join("a.ckpt");
        let store = sample();
        let bytes = store.save(&path, &SaveOptions::default()).expect("save");
        assert_eq!(bytes, fs::metadata(&path).expect("meta").len());
        let back = StoreFile::load(&path).expect("load");
        assert_eq!(back, store);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn empty_store_roundtrips() {
        let dir = tmp_dir("empty");
        let path = dir.join("e.ckpt");
        let store = StoreFile::new("fp", vec![]);
        store.save(&path, &SaveOptions::default()).expect("save");
        let back = StoreFile::load(&path).expect("load");
        assert_eq!(back.frames.len(), 0);
        assert_eq!(back.fingerprint, "fp");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn torn_tail_truncates_to_valid_prefix() {
        let dir = tmp_dir("torn");
        let path = dir.join("t.ckpt");
        let store = sample();
        store
            .save(
                &path,
                &SaveOptions {
                    corruption: Some(Corruption::TearLastFrame),
                    fail_sync: None,
                },
            )
            .expect("save returns ok — the tear is post-rename damage");
        let back = StoreFile::load(&path).expect("torn tail is recoverable");
        assert_eq!(back.frames, store.frames[..2].to_vec());
        assert!(path.exists(), "torn file is not quarantined");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn bit_flip_quarantines_and_names_the_frame() {
        let dir = tmp_dir("flip");
        let path = dir.join("f.ckpt");
        sample()
            .save(
                &path,
                &SaveOptions {
                    // Payload byte 13 is inside frame 1.
                    corruption: Some(Corruption::FlipPayloadBit { bit: 13 * 8 + 2 }),
                    fail_sync: None,
                },
            )
            .expect("save");
        let err = StoreFile::load(&path).expect_err("flip must be detected");
        match err {
            StoreError::CrcMismatch {
                frame,
                quarantined_to,
                ..
            } => {
                assert_eq!(frame, 1);
                let dest = quarantined_to.expect("quarantined");
                assert_eq!(dest, path.with_extension("ckpt.corrupt"));
                assert!(dest.exists());
                assert!(!path.exists(), "original must be moved aside");
            }
            other => panic!("expected CrcMismatch, got {other}"),
        }
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn fail_sync_surfaces_injected_error_and_leaves_no_tmp() {
        let dir = tmp_dir("sync");
        let path = dir.join("s.ckpt");
        let err = sample()
            .save(
                &path,
                &SaveOptions {
                    corruption: None,
                    fail_sync: Some("injected fault: fsync-fail".into()),
                },
            )
            .expect_err("sync failure must error");
        assert!(err.to_string().contains("injected fault: fsync-fail"));
        assert!(!path.exists());
        assert!(!tmp_path(&path).exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn not_a_store_leaves_file_alone() {
        let dir = tmp_dir("json");
        let path = dir.join("legacy.json");
        fs::write(&path, b"{\"meta\":\"v1\"}").expect("write");
        let err = StoreFile::load(&path).expect_err("json is not a store");
        assert!(matches!(err, StoreError::NotAStore { .. }));
        assert!(path.exists(), "legacy files must survive the sniff");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn future_version_is_typed_and_not_quarantined() {
        let dir = tmp_dir("future");
        let path = dir.join("v9.ckpt");
        let mut future = sample();
        future.version = FORMAT_VERSION + 8;
        future.save(&path, &SaveOptions::default()).expect("save");
        let err = StoreFile::load(&path).expect_err("future version");
        assert!(matches!(
            err,
            StoreError::UnsupportedVersion { version, .. } if version == FORMAT_VERSION + 8
        ));
        assert!(path.exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn header_corruption_quarantines() {
        let dir = tmp_dir("header");
        let path = dir.join("h.ckpt");
        sample().save(&path, &SaveOptions::default()).expect("save");
        let mut bytes = fs::read(&path).expect("read");
        bytes[MAGIC.len()] ^= 0x40; // version varint bit
        fs::write(&path, &bytes).expect("rewrite");
        let err = StoreFile::load(&path).expect_err("header damage");
        assert!(matches!(err, StoreError::HeaderCorrupt { .. }), "{err}");
        assert!(path.with_extension("ckpt.corrupt").exists());
        assert!(!path.exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn scan_reports_issue_without_mutating() {
        let dir = tmp_dir("scan");
        let path = dir.join("s.ckpt");
        sample()
            .save(
                &path,
                &SaveOptions {
                    corruption: Some(Corruption::FlipPayloadBit { bit: 0 }),
                    fail_sync: None,
                },
            )
            .expect("save");
        let bytes = fs::read(&path).expect("read");
        let scan = scan(&bytes, &path).expect("scannable");
        assert_eq!(
            scan.issue,
            Some(FrameIssue::CrcMismatch {
                frame: 0,
                offset: scan.valid_end
            })
        );
        assert!(scan.frames.is_empty());
        assert!(path.exists(), "scan never quarantines");
        assert!(!corrupt_path(&path).exists());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn reclaim_tmp_removes_stale_leftover_and_spares_stem_siblings() {
        let dir = tmp_dir("reclaim");
        let path = dir.join("x.ckpt");
        let stale = dir.join("x.ckpt.tmp");
        let sibling = dir.join("x.tmp");
        fs::write(&stale, b"half-written").expect("write stale tmp");
        fs::write(&sibling, b"a user's file").expect("write sibling");
        assert!(reclaim_tmp(&path));
        assert!(!stale.exists());
        assert!(sibling.exists(), "a sibling sharing the stem is not ours");
        assert!(!reclaim_tmp(&path), "second reclaim finds nothing");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn truncating_to_valid_end_yields_a_clean_store() {
        // The repair operation: cut the file at Scan::valid_end.
        let dir = tmp_dir("repair");
        let path = dir.join("r.ckpt");
        let store = sample();
        store
            .save(
                &path,
                &SaveOptions {
                    corruption: Some(Corruption::TearLastFrame),
                    fail_sync: None,
                },
            )
            .expect("save");
        let bytes = fs::read(&path).expect("read");
        let report = scan(&bytes, &path).expect("scannable");
        assert!(matches!(report.issue, Some(FrameIssue::Torn { .. })));
        fs::write(&path, &bytes[..report.valid_end]).expect("truncate");
        let back = StoreFile::load(&path).expect("repaired loads clean");
        assert_eq!(back.frames, store.frames[..2].to_vec());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn repeated_quarantine_never_clobbers_earlier_evidence() {
        let dir = tmp_dir("requarantine");
        let path = dir.join("q.ckpt");
        fs::write(&path, b"first corpse").expect("write");
        let first = quarantine(&path).expect("first quarantine");
        assert_eq!(first, path.with_extension("ckpt.corrupt"));
        fs::write(&path, b"second corpse").expect("rewrite");
        let second = quarantine(&path).expect("second quarantine");
        assert_eq!(second, path.with_extension("ckpt.corrupt.1"));
        fs::write(&path, b"third corpse").expect("rewrite");
        let third = quarantine(&path).expect("third quarantine");
        assert_eq!(third, path.with_extension("ckpt.corrupt.2"));
        assert_eq!(fs::read(&first).expect("first"), b"first corpse");
        assert_eq!(fs::read(&second).expect("second"), b"second corpse");
        assert_eq!(fs::read(&third).expect("third"), b"third corpse");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frame_reader_streams_a_clean_file() {
        let dir = tmp_dir("reader-clean");
        let path = dir.join("c.ckpt");
        let store = sample();
        store.save(&path, &SaveOptions::default()).expect("save");
        let mut reader = FrameReader::open(&path).expect("open");
        assert_eq!(reader.version(), FORMAT_VERSION);
        assert_eq!(reader.fingerprint(), store.fingerprint);
        let mut frames = Vec::new();
        while let Some(frame) = reader.next_frame().expect("read") {
            frames.push(frame);
        }
        assert_eq!(frames, store.frames);
        assert_eq!(reader.frames_read(), 3);
        assert!(reader.next_frame().expect("idempotent end").is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frame_reader_torn_tail_yields_valid_prefix() {
        let dir = tmp_dir("reader-torn");
        let path = dir.join("t.ckpt");
        let store = sample();
        store
            .save(
                &path,
                &SaveOptions {
                    corruption: Some(Corruption::TearLastFrame),
                    fail_sync: None,
                },
            )
            .expect("save");
        let mut reader = FrameReader::open(&path).expect("open");
        let mut frames = Vec::new();
        while let Some(frame) = reader.next_frame().expect("read") {
            frames.push(frame);
        }
        assert_eq!(frames, store.frames[..2].to_vec());
        assert!(path.exists(), "torn file is not quarantined");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frame_reader_crc_flip_quarantines_and_names_the_frame() {
        let dir = tmp_dir("reader-flip");
        let path = dir.join("f.ckpt");
        sample()
            .save(
                &path,
                &SaveOptions {
                    // Payload byte 13 is inside frame 1.
                    corruption: Some(Corruption::FlipPayloadBit { bit: 13 * 8 + 2 }),
                    fail_sync: None,
                },
            )
            .expect("save");
        let mut reader = FrameReader::open(&path).expect("open");
        assert!(reader.next_frame().expect("frame 0 is intact").is_some());
        let err = reader.next_frame().expect_err("flip must be detected");
        match err {
            StoreError::CrcMismatch {
                frame,
                quarantined_to,
                ..
            } => {
                assert_eq!(frame, 1);
                let dest = quarantined_to.expect("quarantined");
                assert!(dest.exists());
                assert!(!path.exists(), "original must be moved aside");
            }
            other => panic!("expected CrcMismatch, got {other}"),
        }
        assert!(reader.next_frame().expect("stream over").is_none());
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn frame_reader_matches_scan_on_appended_bytes() {
        let dir = tmp_dir("reader-append");
        let path = dir.join("a.ckpt");
        let store = sample();
        let mut appended = header_bytes(&store.fingerprint);
        for frame in &store.frames {
            appended.extend_from_slice(&frame_bytes(frame));
        }
        fs::write(&path, &appended).expect("write");
        let mut reader = FrameReader::open(&path).expect("open");
        let mut frames = Vec::new();
        while let Some(frame) = reader.next_frame().expect("read") {
            frames.push(frame);
        }
        assert_eq!(frames, store.frames);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn append_encoders_match_whole_file_encode() {
        // `header_bytes` + a `frame_bytes` per payload must be
        // byte-identical to `StoreFile::encode` — the contract that
        // lets an append-only writer produce files `scan` parses.
        let store = sample();
        let mut appended = header_bytes(&store.fingerprint);
        for frame in &store.frames {
            appended.extend_from_slice(&frame_bytes(frame));
        }
        assert_eq!(appended, store.encode());
        let report = scan(&appended, Path::new("a.ckpt")).expect("scannable");
        assert_eq!(report.frames, store.frames);
        assert!(report.issue.is_none());
    }
}
