//! Crash-consistent framed binary record store.
//!
//! The durability substrate for forumcast's checkpoint/resume stack:
//! a versioned file header carrying a config fingerprint, followed by
//! length-prefixed frames that each carry a CRC32, with payloads in a
//! postcard-style varint/little-endian codec over the serde shim's
//! `Value` tree.
//!
//! Guarantees:
//!
//! - **No silent garbage.** Every byte of every frame (including its
//!   length prefix) is covered by a CRC32; the header carries its
//!   own. A torn tail truncates to the last valid frame (counted
//!   `store.frame.torn`); a CRC mismatch quarantines the file to
//!   `<path>.corrupt` and returns a typed error so callers fall back
//!   to a counted recompute.
//! - **Durable saves.** tmp write → `sync_all` → rename → parent
//!   directory fsync, so a completed [`StoreFile::save`] survives
//!   power loss.
//! - **Bitwise float fidelity.** `f64` payloads are stored as raw
//!   IEEE bits — checkpointed fold results come back identical down
//!   to the last NaN payload bit, which JSON cannot promise.
//!
//! Layering: this crate depends only on the serde shim and
//! `forumcast-obs` (counters). Fault *sites* live in
//! `forumcast-resilience`, which maps fired probes into
//! [`SaveOptions`] here — keeping the store itself dependency-free
//! of the resilience machinery it underpins.

pub mod codec;
pub mod crc32;
pub mod frame;
pub mod varint;

pub use codec::{decode_value, encode_value, CodecError, MAX_DEPTH};
pub use crc32::crc32;
pub use frame::{
    corrupt_path, quarantine, reclaim_tmp, scan, tmp_path, Corruption, FrameIssue, SaveOptions,
    Scan, StoreError, StoreFile, FORMAT_VERSION, MAGIC,
};
