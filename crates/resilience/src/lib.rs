//! Resilience layer for forumcast pipelines: deterministic fault
//! injection, panic-isolated retry, and checkpoint/resume.
//!
//! A multi-hour evaluation sweep must not lose everything to a
//! panicking fold worker, a diverged optimizer step, or a failed
//! checkpoint write. This crate provides the three mechanisms the rest of the
//! workspace plugs into:
//!
//! * [`fault`] — a [`FaultPlan`] parsed from the `FORUMCAST_FAULTS`
//!   environment variable (or a CLI flag) that injects panics, I/O
//!   errors, and NaN gradients at *deterministic* sites, so the
//!   recovery paths can be exercised reproducibly in CI;
//! * [`retry`] — [`with_retry`], a `catch_unwind`-based bounded retry
//!   wrapper that isolates panics from one work item (e.g. one CV
//!   fold) without poisoning the rest of the run;
//! * [`checkpoint`] — a [`Checkpoint`] file, one CRC-guarded JSON
//!   document, recording the metrics of completed work items so an
//!   interrupted run can resume and skip them, with a meta fingerprint
//!   guarding against resuming into a differently-configured run.
//!
//! # Determinism contract
//!
//! Faults fire by *logical unit index* (fold job number, optimizer
//! step number, checkpoint save number), never by wall clock or arrival
//! order, and each configured shot fires a bounded number of times.
//! Because retried work is itself a pure function of its inputs, a
//! healed run produces output bitwise-identical to a fault-free run
//! at any thread count.

pub mod checkpoint;
mod crc32;
pub mod fault;
pub mod retry;

pub use checkpoint::{reclaim_tmp, tmp_path, Checkpoint, CheckpointError};
pub use fault::{FaultGuard, FaultPlan, FaultScope, FaultSite, FaultSpecError, FAULTS_ENV};
pub use retry::{save_with_retry, with_retry, RetryExhausted, SAVE_ATTEMPTS};
