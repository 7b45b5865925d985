//! Deterministic fault injection.
//!
//! A [`FaultPlan`] names *sites* (places in the pipeline instrumented
//! with a probe) and *unit indices* (the logical work item at that
//! site: fold job number, optimizer step number, save number). When
//! a plan is armed, the probe for `(site, unit)` fires as many times
//! as the plan has shots for it, then goes quiet — so a retry of the
//! same unit succeeds, and the healed output is bitwise-identical to
//! a fault-free run regardless of which worker thread hit the fault
//! first.
//!
//! Plans are written as a comma-separated spec, e.g.
//! `fold-panic:1,nan-grad:3` ("panic the first attempt of fold job 1;
//! corrupt optimizer step 3"), with an optional `xN` multiplicity
//! suffix (`fold-panic:1x3` fires three attempts in a row — enough to
//! exhaust a bounded retry and simulate a hard failure). Front doors
//! take the spec from a `--faults` flag or, without one, the
//! [`FAULTS_ENV`] environment variable (the run session in
//! `forumcast-eval` applies that rule for all of them).
//!
//! An armed plan belongs to the thread that armed it, not to the
//! process; other threads see it only after entering its
//! [`FaultScope`], as `forumcast-par` workers do.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::fmt;
use std::marker::PhantomData;
use std::sync::{Arc, Mutex, Once, PoisonError};

/// Environment variable holding the fault-plan spec.
pub const FAULTS_ENV: &str = "FORUMCAST_FAULTS";

/// Prefix of every injected panic payload / error message. The panic
/// hook installed when a plan is armed suppresses backtraces for
/// payloads with this prefix so CI logs stay readable; real panics
/// still print normally.
pub const INJECTED_PREFIX: &str = "injected fault:";

/// An instrumented place in the pipeline where faults can fire.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[non_exhaustive]
pub enum FaultSite {
    /// Panic inside a CV fold worker (unit = fold job index).
    FoldPanic,
    /// NaN written into the gradient buffer before an optimizer step
    /// (unit = cumulative step index within one trainer).
    NanGrad,
    /// Failure writing a checkpoint's temporary file, leaving a
    /// truncated `.tmp` behind — the atomic tmp+rename path must keep
    /// the real checkpoint intact (unit = entries recorded at save
    /// time).
    CkptWrite,
    /// `fsync` failure during a checkpoint save: the save errors out
    /// before the rename, leaving the previous checkpoint intact
    /// (unit = same save-unit as `ckpt-write`).
    FsyncFail,
}

impl FaultSite {
    /// All sites, in spec-name order.
    pub const ALL: [FaultSite; 4] = [
        FaultSite::FoldPanic,
        FaultSite::NanGrad,
        FaultSite::CkptWrite,
        FaultSite::FsyncFail,
    ];

    /// The spec name (`fold-panic`, `nan-grad`, `ckpt-write`,
    /// `fsync-fail`).
    pub fn name(self) -> &'static str {
        match self {
            FaultSite::FoldPanic => "fold-panic",
            FaultSite::NanGrad => "nan-grad",
            FaultSite::CkptWrite => "ckpt-write",
            FaultSite::FsyncFail => "fsync-fail",
        }
    }

    fn from_name(name: &str) -> Result<Self, FaultSpecError> {
        FaultSite::ALL
            .into_iter()
            .find(|s| s.name() == name)
            .ok_or_else(|| {
                let names: Vec<&str> = FaultSite::ALL.iter().map(|s| s.name()).collect();
                FaultSpecError(format!(
                    "unknown fault site `{name}` (expected one of: {})",
                    names.join(", ")
                ))
            })
    }
}

impl fmt::Display for FaultSite {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// A malformed fault-plan spec.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultSpecError(pub String);

impl fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid {FAULTS_ENV} spec: {}", self.0)
    }
}

impl std::error::Error for FaultSpecError {}

/// A set of faults to inject: `(site, unit, shots)` triples. Armed
/// via [`FaultPlan::arm`]; while armed, probes at the named sites
/// fire deterministically.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct FaultPlan {
    shots: Vec<(FaultSite, u64, u32)>,
}

impl FaultPlan {
    /// Parses a spec like `fold-panic:1,ckpt-write:0,nan-grad:3x2`.
    /// Empty (or all-whitespace) specs parse to an empty plan.
    ///
    /// # Errors
    ///
    /// Returns [`FaultSpecError`] on unknown sites or unparsable
    /// indices/multiplicities.
    pub fn parse(spec: &str) -> Result<Self, FaultSpecError> {
        let mut shots = Vec::new();
        for part in spec.split(',') {
            let part = part.trim();
            if part.is_empty() {
                continue;
            }
            let (site_s, rest) = part
                .split_once(':')
                .ok_or_else(|| FaultSpecError(format!("`{part}` is not of the form site:index")))?;
            let (idx_s, count_s) = match rest.split_once('x') {
                Some((i, c)) => (i, c),
                None => (rest, "1"),
            };
            let site = FaultSite::from_name(site_s.trim())?;
            let unit: u64 = idx_s.trim().parse().map_err(|_| {
                FaultSpecError(format!(
                    "`{}` is not a valid unit index in `{part}`",
                    idx_s.trim()
                ))
            })?;
            let count: u32 = count_s.trim().parse().map_err(|_| {
                FaultSpecError(format!(
                    "`{}` is not a valid shot count in `{part}`",
                    count_s.trim()
                ))
            })?;
            if count == 0 {
                return Err(FaultSpecError(format!(
                    "shot count must be >= 1 in `{part}`"
                )));
            }
            shots.push((site, unit, count));
        }
        Ok(FaultPlan { shots })
    }

    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.shots.is_empty()
    }

    /// Arms the plan for the current thread (and the threads it hands
    /// its [`FaultScope`] to) and returns a guard that disarms it on
    /// drop. Other threads' probes never see it.
    pub fn arm(self) -> FaultGuard {
        install_quiet_hook();
        let mut remaining: HashMap<(FaultSite, u64), u32> = HashMap::new();
        for (site, unit, count) in &self.shots {
            *remaining.entry((*site, *unit)).or_insert(0) += count;
        }
        FaultScope(Some(Arc::new(Mutex::new(remaining)))).enter()
    }

    /// Arms the plan on the calling thread for the rest of its life —
    /// for binaries wiring up `--faults` / [`FAULTS_ENV`] on the main
    /// thread at startup; `forumcast-par` workers inherit it.
    pub fn arm_for_process(self) {
        std::mem::forget(self.arm());
    }
}

/// An armed plan's remaining shots, shared by the threads of its scope.
type Shots = Mutex<HashMap<(FaultSite, u64), u32>>;

static HOOK: Once = Once::new();

thread_local! {
    /// Whether this thread has a plan: the one read a disarmed probe
    /// makes (`const`, no destructor).
    static ARMED: Cell<bool> = const { Cell::new(false) };
    static ACTIVE: RefCell<Option<Arc<Shots>>> = const { RefCell::new(None) };
}

/// The calling thread's armed plan (or none), to hand to the threads
/// it starts: [`FaultScope::capture`] before spawning,
/// [`FaultScope::enter`] first thing on each new thread.
pub struct FaultScope(Option<Arc<Shots>>);

impl FaultScope {
    /// The current thread's scope.
    pub fn capture() -> FaultScope {
        FaultScope(ACTIVE.with_borrow(Clone::clone))
    }

    /// Makes this scope the current thread's until the guard drops.
    pub fn enter(&self) -> FaultGuard {
        ARMED.set(self.0.is_some());
        FaultGuard {
            prev: ACTIVE.replace(self.0.clone()),
            _thread_bound: PhantomData,
        }
    }
}

/// Ends an armed or entered scope on drop, restoring the thread's
/// previous plan. It must drop on the thread that created it.
#[must_use = "the plan is disarmed when the guard drops"]
pub struct FaultGuard {
    prev: Option<Arc<Shots>>,
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for FaultGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        ARMED.set(prev.is_some());
        let _ = ACTIVE.try_with(|a| a.replace(prev));
    }
}

fn install_quiet_hook() {
    HOOK.call_once(|| {
        let prev = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let injected = payload
                .downcast_ref::<String>()
                .map(|s| s.starts_with(INJECTED_PREFIX))
                .or_else(|| {
                    payload
                        .downcast_ref::<&str>()
                        .map(|s| s.starts_with(INJECTED_PREFIX))
                })
                .unwrap_or(false);
            if !injected {
                prev(info);
            }
        }));
    });
}

/// Consumes one shot for `(site, unit)` from the current thread's
/// armed plan, if any. Returns `false` when no plan is armed here, the
/// plan has no shot for this probe, or all its shots already fired.
/// The armed-check fast path is a single thread-local read, so probes
/// are safe in hot loops.
pub fn fires(site: FaultSite, unit: u64) -> bool {
    if !ARMED.get() {
        return false;
    }
    let fired = ACTIVE
        .with_borrow(|shots| {
            let mut shots = shots
                .as_ref()?
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            let left = shots.get_mut(&(site, unit)).filter(|n| **n > 0)?;
            *left -= 1;
            Some(())
        })
        .is_some();
    if fired && forumcast_obs::is_enabled() {
        forumcast_obs::counter_add(&format!("fault.fired.{}", site.name()), 1);
        forumcast_obs::mark("fault.fired", unit);
    }
    fired
}

/// Panics with an injected-fault payload when `(site, unit)` fires.
pub fn panic_point(site: FaultSite, unit: u64) {
    if fires(site, unit) {
        panic!("{INJECTED_PREFIX} {site}:{unit}");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_accepts_sites_indices_and_multiplicity() {
        let plan = FaultPlan::parse(" fold-panic:1 , ckpt-write:0, nan-grad:3x2 ").unwrap();
        assert_eq!(
            plan.shots,
            vec![
                (FaultSite::FoldPanic, 1, 1),
                (FaultSite::CkptWrite, 0, 1),
                (FaultSite::NanGrad, 3, 2),
            ]
        );
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("  ,  ").unwrap().is_empty());
        for site in FaultSite::ALL {
            let plan = FaultPlan::parse(&format!("{site}:3x2")).unwrap();
            assert_eq!(plan.shots, vec![(site, 3, 2)], "{site} must round-trip");
        }
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "fold-panic",
            "nope:1",
            "fold-panic:x",
            "fold-panic:1x0",
            "fold-panic:1xq",
        ] {
            let err = FaultPlan::parse(bad).unwrap_err();
            assert!(err.to_string().contains(FAULTS_ENV), "{err}");
        }
        // An unknown site is a typed error, not a panic, and the
        // message lists exactly the sites that exist. The checkpoint
        // media-damage sites are gone, and so is the simulated
        // allocation failure (a failed allocation aborts; it cannot be
        // caught and retried).
        for unknown in [
            "wal-torn-append",
            "torn-write",
            "bit-flip",
            "alloc-pressure",
        ] {
            let err = FaultPlan::parse(&format!("{unknown}:1")).unwrap_err();
            let msg = err.to_string();
            assert!(
                msg.contains(&format!("unknown fault site `{unknown}`")),
                "{msg}"
            );
            for site in FaultSite::ALL {
                assert!(msg.contains(site.name()), "{msg} omits {site}");
            }
        }
    }

    #[test]
    fn fires_exactly_the_configured_number_of_times() {
        let _guard = FaultPlan::parse("fold-panic:7x2").unwrap().arm();
        assert!(fires(FaultSite::FoldPanic, 7));
        assert!(fires(FaultSite::FoldPanic, 7));
        assert!(!fires(FaultSite::FoldPanic, 7));
        assert!(!fires(FaultSite::FoldPanic, 8));
        assert!(!fires(FaultSite::NanGrad, 7));
    }

    #[test]
    fn disarmed_probes_never_fire() {
        {
            let _guard = FaultPlan::parse("nan-grad:0").unwrap().arm();
        }
        assert!(!fires(FaultSite::NanGrad, 0));
    }

    #[test]
    fn panic_point_payload_carries_the_injected_prefix() {
        let _guard = FaultPlan::parse("fold-panic:2").unwrap().arm();
        let payload =
            std::panic::catch_unwind(|| panic_point(FaultSite::FoldPanic, 2)).unwrap_err();
        let msg = payload.downcast_ref::<String>().unwrap();
        assert!(msg.starts_with(INJECTED_PREFIX), "{msg}");
        assert!(msg.contains("fold-panic:2"));
    }
}
