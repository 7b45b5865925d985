//! Panic-isolated bounded retry.
//!
//! [`with_retry`] runs a closure under [`std::panic::catch_unwind`]
//! up to a fixed number of attempts. It is the containment boundary
//! around per-fold CV work: an injected (or real) panic in one fold
//! is caught, the fold is re-run, and — because fold work is a pure
//! function of its inputs and injected faults fire a bounded number
//! of times — the retried result is bitwise-identical to a fault-free
//! run.

use std::any::Any;
use std::fmt;
use std::panic::{catch_unwind, AssertUnwindSafe};

/// All attempts of a retried operation panicked.
#[derive(Debug, Clone)]
pub struct RetryExhausted {
    /// What was being retried (e.g. `cv fold 3`).
    pub label: String,
    /// How many attempts ran.
    pub attempts: usize,
    /// Panic message of the last attempt.
    pub message: String,
}

impl fmt::Display for RetryExhausted {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} failed after {} attempt(s); last panic: {}",
            self.label, self.attempts, self.message
        )
    }
}

impl std::error::Error for RetryExhausted {}

/// Extracts a human-readable message from a caught panic payload.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Runs `f` until it returns without panicking, up to `attempts`
/// times. Panics are caught per attempt; state captured by `f` is
/// assumed to stay consistent across an unwind (fold work operates on
/// shared *read-only* inputs, which trivially satisfy this).
///
/// # Errors
///
/// Returns [`RetryExhausted`] carrying the last panic message when
/// every attempt panicked.
///
/// # Panics
///
/// Panics when `attempts == 0`.
pub fn with_retry<T, F: FnMut() -> T>(
    label: &str,
    attempts: usize,
    mut f: F,
) -> Result<T, RetryExhausted> {
    assert!(attempts > 0, "retry needs at least one attempt");
    let mut last = String::new();
    for attempt in 0..attempts {
        match catch_unwind(AssertUnwindSafe(&mut f)) {
            Ok(v) => return Ok(v),
            Err(payload) => {
                last = panic_message(payload.as_ref());
                forumcast_obs::counter_add("retry.panics", 1);
                forumcast_obs::mark("retry.panic", attempt as u64);
            }
        }
    }
    Err(RetryExhausted {
        label: label.to_string(),
        attempts,
        message: last,
    })
}

/// How many times checkpoint saves attempt a transiently failing
/// I/O operation before giving up (first try + two retries).
pub const SAVE_ATTEMPTS: usize = 3;

/// Deterministic backoff schedule between save retries, indexed by the
/// zero-based attempt that just failed. Fixed (no jitter, no clock
/// reads) so a faulted run behaves identically every time.
const SAVE_BACKOFF_MS: [u64; SAVE_ATTEMPTS] = [1, 2, 4];

/// Runs a fallible I/O operation up to [`SAVE_ATTEMPTS`] times with
/// the deterministic [`SAVE_BACKOFF_MS`] schedule between failures —
/// the containment boundary around checkpoint saves, where an
/// injected (or real) transient `fsync`/write failure should cost a
/// counted retry, not the save. Each retry bumps the
/// `ckpt.save.retries` counter and emits a `ckpt.save.retry` mark at
/// the failing attempt index, so healed saves stay visible in
/// telemetry.
///
/// Retries re-invoke `f` with the attempt number; callers whose
/// failure is produced by a bounded fault plan (shots drain per
/// probe) heal exactly when the plan runs out of shots, making the
/// retry count itself deterministic.
///
/// # Errors
///
/// Returns the final attempt's error once all [`SAVE_ATTEMPTS`] fail.
pub fn save_with_retry<T, E>(mut f: impl FnMut(usize) -> Result<T, E>) -> Result<T, E> {
    let mut attempt = 0;
    loop {
        match f(attempt) {
            Ok(v) => return Ok(v),
            Err(e) => {
                if attempt + 1 >= SAVE_ATTEMPTS {
                    return Err(e);
                }
                forumcast_obs::counter_add("ckpt.save.retries", 1);
                forumcast_obs::mark("ckpt.save.retry", attempt as u64);
                std::thread::sleep(std::time::Duration::from_millis(SAVE_BACKOFF_MS[attempt]));
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn first_success_returns_immediately() {
        let calls = AtomicUsize::new(0);
        let out = with_retry("op", 3, || {
            calls.fetch_add(1, Ordering::Relaxed);
            42
        });
        assert_eq!(out.unwrap(), 42);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn panic_then_success_heals() {
        let calls = AtomicUsize::new(0);
        let out = with_retry("op", 3, || {
            if calls.fetch_add(1, Ordering::Relaxed) == 0 {
                panic!("injected fault: test");
            }
            7
        });
        assert_eq!(out.unwrap(), 7);
        assert_eq!(calls.load(Ordering::Relaxed), 2);
    }

    #[test]
    fn exhausted_retry_reports_label_attempts_and_message() {
        let err =
            with_retry::<(), _>("cv fold 3", 2, || panic!("injected fault: boom")).unwrap_err();
        assert_eq!(err.attempts, 2);
        assert!(err.to_string().contains("cv fold 3"));
        assert!(err.to_string().contains("boom"));
    }

    #[test]
    #[should_panic(expected = "at least one attempt")]
    fn zero_attempts_rejected() {
        let _ = with_retry("op", 0, || ());
    }

    #[test]
    fn save_retry_heals_transient_failures() {
        let calls = AtomicUsize::new(0);
        let out: Result<u32, String> = save_with_retry(|attempt| {
            assert_eq!(attempt, calls.fetch_add(1, Ordering::Relaxed));
            if attempt < 2 {
                Err("transient".into())
            } else {
                Ok(9)
            }
        });
        assert_eq!(out.unwrap(), 9);
        assert_eq!(calls.load(Ordering::Relaxed), SAVE_ATTEMPTS);
    }

    #[test]
    fn save_retry_surfaces_the_last_error_when_exhausted() {
        let calls = AtomicUsize::new(0);
        let out: Result<(), String> = save_with_retry(|attempt| {
            calls.fetch_add(1, Ordering::Relaxed);
            Err(format!("attempt {attempt} failed"))
        });
        assert_eq!(out.unwrap_err(), "attempt 2 failed");
        assert_eq!(calls.load(Ordering::Relaxed), SAVE_ATTEMPTS);
    }
}
