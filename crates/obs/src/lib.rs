//! Zero-dependency observability for forumcast: hierarchical span
//! timers, monotonic counters, per-epoch training telemetry, named
//! latency histograms, and a structured event sink that renders
//! Chrome trace-event JSON (loadable in `chrome://tracing` /
//! Perfetto), a machine-readable bench report, and a human-readable
//! end-of-run summary table.
//!
//! The repo is offline, so this is built from scratch instead of
//! vendoring `tracing`. The collector is **sharded**: each recording
//! thread owns a private buffer (a [`Shard`]) registered with its
//! collector, so the armed emit path takes no global lock — only one
//! uncontended per-thread mutex plus one atomic fetch-add for the
//! collector's arrival order. [`drain`] merges all shards back into
//! the canonical event log.
//!
//! An armed collector belongs to the thread that called [`arm`], not to
//! the process; other threads record into it only after entering its
//! [`Scope`], as `forumcast-par` workers do.
//!
//! # Determinism contract
//!
//! Instrumentation never feeds back into computation: probes only
//! *read* pipeline state, and timings are recorded, not consumed.
//! Event identity is logical — a full hierarchical *path* (span
//! labels, with `#unit` suffixes for indexed work like CV folds) plus
//! an occurrence sequence number per `(path, unit)` key — so two runs
//! of the same configuration produce identical canonicalized event
//! sequences regardless of thread count; only timestamps and thread
//! ids differ, and [`TraceLog::canonical_lines`] excludes both.
//!
//! Sharding preserves the contract because nothing about the merge
//! depends on which shard an event landed in: the sequence number is
//! derived from the collector's arrival order (an atomic counter
//! sampled at record time, so any happens-before chain between two
//! events at the same `(path, unit)` — a retry after a failed attempt,
//! epochs of one training loop — orders them identically at every
//! thread count), counters merge by commutative sum, and histogram
//! buckets merge by element-wise sum.
//!
//! Parallel work items must be delimited with [`task_span`] (a
//! *detached* span that roots its own path) so that the paths of
//! events recorded inside them do not depend on which thread — or
//! whether the single-thread inline fallback — ran the item.
//!
//! # Cost when disabled
//!
//! Every probe starts with one read of a `const`-initialised
//! thread-local flag and a branch; no allocation, no locking, no
//! clock read. Hot loops (Gibbs sweeps, optimizer steps) can call
//! probes unconditionally.
//!
//! # Cost when armed
//!
//! One atomic fetch-add (arrival order) plus one lock of the
//! thread's own shard mutex, which no other thread touches until
//! [`drain`] — so concurrent emitters never serialize against each
//! other the way the pre-sharding single global mutex forced them
//! to. Shards are pooled: a thread leaving its scope (the guard of
//! [`Scope::enter`] dropping at the end of a `forumcast-par` worker)
//! marks its shard free for the next thread that enters, so long runs
//! with many short-lived worker scopes keep a bounded shard set.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::marker::PhantomData;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Instant;

mod bench;
mod hist;
mod report;

pub use bench::{
    compare_reports, BenchComparison, BenchDelta, BenchReport, BenchSpanStat, CompareOptions,
    BENCH_SCHEMA, BENCH_VERSION,
};
pub use hist::Histogram;
pub use report::{SpanRow, Summary, TraceLog};

/// Environment variable naming the trace output file. When set, CLI
/// and bench entry points arm the collector at startup and write the
/// Chrome trace-event JSON here on exit.
pub const TRACE_ENV: &str = "FORUMCAST_TRACE";

static NEXT_TID: AtomicU64 = AtomicU64::new(0);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
    static STACK: RefCell<Vec<Frame>> = const { RefCell::new(Vec::new()) };
    /// Whether this thread is in an armed scope: the one read a disarmed
    /// probe makes (`const`, no destructor).
    static ENABLED: Cell<bool> = const { Cell::new(false) };
    static MEMBER: RefCell<Option<Member>> = const { RefCell::new(None) };
}

struct Frame {
    path: String,
    start: Instant,
    child_ns: u64,
    detached: bool,
}

/// One thread's private event buffer. The owning thread is the only
/// writer; [`drain`] is the only other reader, so the mutex is
/// effectively uncontended on the emit path.
struct Shard {
    /// Claimed by a thread in the scope. Cleared when the thread
    /// leaves (its [`Member`] drops) so the shard returns to the pool
    /// for the next thread that enters.
    busy: AtomicBool,
    data: Mutex<ShardData>,
}

#[derive(Default)]
struct ShardData {
    events: Vec<RawEvent>,
    counters: HashMap<String, u64>,
    hists: HashMap<String, Histogram>,
}

/// An event as buffered in a shard: no sequence number yet (that is
/// assigned at drain from the collector's arrival order).
struct RawEvent {
    kind: EventKind,
    path: String,
    unit: Option<u64>,
    order: u64,
    ts_ns: u64,
    tid: u64,
}

/// One armed collector, shared by the threads of its scope.
struct Collector {
    start: Instant,
    /// Arrival order, sampled once per event with one fetch-add.
    /// Sequence numbers derive from it at drain time: any two events at
    /// the same `(path, unit)` with a happens-before relation get the
    /// same relative order at every thread count.
    order: AtomicU64,
    shards: Mutex<Vec<Arc<Shard>>>,
    /// Claims served from the pool: a shard-pool diagnostic, not part of
    /// the drained log (it depends on the thread count, which the
    /// canonical log must not).
    reused: AtomicU64,
}

impl Collector {
    /// Claims a free pooled shard, or allocates one. Cold path: runs
    /// once per thread per scope.
    fn claim(&self) -> Arc<Shard> {
        let mut shards = self.shards.lock().unwrap_or_else(PoisonError::into_inner);
        for shard in shards.iter() {
            if shard
                .busy
                .compare_exchange(false, true, Ordering::AcqRel, Ordering::Acquire)
                .is_ok()
            {
                self.reused.fetch_add(1, Ordering::Relaxed);
                return Arc::clone(shard);
            }
        }
        let shard = Arc::new(Shard {
            busy: AtomicBool::new(true),
            data: Mutex::new(ShardData::default()),
        });
        shards.push(Arc::clone(&shard));
        shard
    }
}

/// A thread's place in a collector: the shard it claimed, freed for
/// reuse when the thread leaves the scope.
struct Member {
    collector: Arc<Collector>,
    shard: Arc<Shard>,
}

impl Drop for Member {
    fn drop(&mut self) {
        self.shard.busy.store(false, Ordering::Release);
    }
}

/// What one recorded [`Event`] measured.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum EventKind {
    /// A completed timed span.
    Span {
        /// Total wall duration of the span.
        dur_ns: u64,
        /// Duration minus time spent in (non-detached) child spans on
        /// the same thread.
        self_ns: u64,
    },
    /// An instantaneous occurrence (fault firing, checkpoint hit,
    /// divergence retry).
    Mark,
    /// A sampled value indexed by a logical unit — e.g. per-epoch
    /// training loss, where `unit` is the epoch number.
    Metric {
        /// The sampled value.
        value: f64,
    },
}

/// One recorded observation. Identity is `(path, unit, seq)`:
/// deterministic for a fixed configuration, unlike `ts_ns`/`tid`.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// What was measured.
    pub kind: EventKind,
    /// Hierarchical location: span labels joined by `/`, where an
    /// indexed label is `name#unit`. For marks and metrics the final
    /// segment is the mark/metric name itself.
    pub path: String,
    /// Logical unit index (fold job, epoch, record), when indexed.
    pub unit: Option<u64>,
    /// Occurrence number among events with the same `(path, unit)`.
    pub seq: u64,
    /// Nanoseconds since the collector was armed (span start time for
    /// spans). Not deterministic.
    pub ts_ns: u64,
    /// Small per-thread id, assigned at each thread's first probe.
    /// Not deterministic.
    pub tid: u64,
}

impl Event {
    /// The final path segment — the event's own label.
    pub fn name(&self) -> &str {
        self.path.rsplit('/').next().unwrap_or(&self.path)
    }

    /// [`Event::name`] with any `#unit` suffix stripped — the label
    /// spans of the same kind share, used for summary aggregation.
    pub fn base_name(&self) -> &str {
        let name = self.name();
        match name.rsplit_once('#') {
            Some((base, idx)) if idx.bytes().all(|b| b.is_ascii_digit()) => base,
            _ => name,
        }
    }
}

/// True when the current thread is in an armed collector's scope.
/// Probes check this themselves; callers only need it to skip
/// *preparing* expensive inputs (e.g. computing a gradient norm or
/// formatting a dynamic name).
pub fn is_enabled() -> bool {
    ENABLED.get()
}

/// Ends an armed or entered scope on drop, restoring the thread's
/// previous one and freeing its shard. It must drop on the thread that
/// created it.
#[must_use = "the scope ends when the guard drops"]
pub struct ObsGuard {
    prev: Option<Member>,
    _thread_bound: PhantomData<*const ()>,
}

impl Drop for ObsGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        ENABLED.set(prev.is_some());
        // The replaced member drops outside the borrow, freeing its
        // shard.
        let _ = MEMBER.try_with(|m| m.replace(prev));
    }
}

/// Arms a fresh collector for the current thread (and the threads it
/// hands its [`Scope`] to) and returns a guard that disarms it on
/// drop. Other threads are untouched.
pub fn arm() -> ObsGuard {
    Scope(Some(Arc::new(Collector {
        start: Instant::now(),
        order: AtomicU64::new(0),
        shards: Mutex::new(Vec::new()),
        reused: AtomicU64::new(0),
    })))
    .enter()
}

/// Arms the collector on the calling thread for the rest of its life —
/// for binaries wiring up `--trace` / [`TRACE_ENV`] on the main thread
/// at startup; `forumcast-par` workers inherit it.
pub fn arm_for_process() {
    std::mem::forget(arm());
}

/// The calling thread's armed collector (or none), to hand to the
/// threads it starts: [`Scope::capture`] before spawning,
/// [`Scope::enter`] first thing on each new thread.
pub struct Scope(Option<Arc<Collector>>);

impl Scope {
    /// The current thread's scope.
    pub fn capture() -> Scope {
        Scope(MEMBER.with_borrow(|m| m.as_ref().map(|m| Arc::clone(&m.collector))))
    }

    /// Makes this scope the current thread's until the guard drops. An
    /// armed scope claims the thread's shard here, before any timed
    /// work.
    pub fn enter(&self) -> ObsGuard {
        let member = self.0.as_ref().map(|collector| Member {
            shard: collector.claim(),
            collector: Arc::clone(collector),
        });
        ENABLED.set(member.is_some());
        ObsGuard {
            prev: MEMBER.replace(member),
            _thread_bound: PhantomData,
        }
    }
}

/// Shard-pool diagnostics for the current thread's armed scope: how
/// many shards were freshly allocated and how many registrations
/// reused a freed shard. Thread-count dependent, so deliberately *not*
/// part of the drained log; exposed for tests and benches only.
pub fn shard_stats() -> (u64, u64) {
    Scope::capture().0.map_or((0, 0), |c| {
        let created = c
            .shards
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .len();
        (created as u64, c.reused.load(Ordering::Relaxed))
    })
}

/// Runs `f` against the current thread's shard. Returns `None` outside
/// an armed scope — the observation is dropped.
fn with_shard<R>(f: impl FnOnce(&mut ShardData, &Collector) -> R) -> Option<R> {
    MEMBER.with_borrow(|member| {
        let member = member.as_ref()?;
        let mut data = member
            .shard
            .data
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        Some(f(&mut data, &member.collector))
    })
}

/// Snapshots everything the current thread's collector recorded since
/// arming (or the previous drain) into a [`TraceLog`] with canonically
/// ordered events, leaving the collector armed and empty. `None`
/// outside an armed scope.
///
/// The merge is thread-count independent: events sort by
/// `(path, unit, arrival order)` and the per-`(path, unit)` sequence
/// number is their rank in that order; counters sum; histogram
/// buckets sum.
pub fn drain() -> Option<TraceLog> {
    let mut raw: Vec<RawEvent> = Vec::new();
    let mut counter_map: HashMap<String, u64> = HashMap::new();
    let mut hist_map: HashMap<String, Histogram> = HashMap::new();
    let collector = Scope::capture().0?;
    let shards = collector.shards.lock();
    for shard in shards.unwrap_or_else(PoisonError::into_inner).iter() {
        let mut data = shard.data.lock().unwrap_or_else(PoisonError::into_inner);
        raw.append(&mut data.events);
        for (name, total) in data.counters.drain() {
            *counter_map.entry(name).or_insert(0) += total;
        }
        for (name, hist) in data.hists.drain() {
            match hist_map.get_mut(&name) {
                Some(merged) => merged.merge(&hist),
                None => {
                    hist_map.insert(name, hist);
                }
            }
        }
    }
    let wall_ns = collector.start.elapsed().as_nanos() as u64;
    // Canonical total order: (path, unit, seq) is unique — seq ranks
    // same-(path, unit) occurrences by arrival order — and
    // none of the three depend on thread count or wall clock.
    raw.sort_by(|a, b| (a.path.as_str(), a.unit, a.order).cmp(&(b.path.as_str(), b.unit, b.order)));
    let mut events: Vec<Event> = Vec::with_capacity(raw.len());
    for ev in raw {
        let seq = match events.last() {
            Some(prev) if prev.path == ev.path && prev.unit == ev.unit => prev.seq + 1,
            _ => 0,
        };
        events.push(Event {
            kind: ev.kind,
            path: ev.path,
            unit: ev.unit,
            seq,
            ts_ns: ev.ts_ns,
            tid: ev.tid,
        });
    }
    let mut counters: Vec<(String, u64)> = counter_map.into_iter().collect();
    counters.sort();
    let mut hists: Vec<(String, Histogram)> = hist_map.into_iter().collect();
    hists.sort_by(|a, b| a.0.cmp(&b.0));
    Some(TraceLog {
        events,
        counters,
        hists,
        wall_ns,
    })
}

/// Times a scope as a child of the current thread's innermost span.
/// Record on drop; a no-op (no allocation, no clock read) when the
/// collector is disarmed.
#[must_use = "a span measures the scope holding the guard"]
pub fn span(name: &str) -> SpanGuard {
    span_impl(name, None, false)
}

/// [`span`] with a logical unit index: labeled `name#unit` so
/// repeated indexed work (bucket 0, bucket 1, …) gets distinct paths.
#[must_use = "a span measures the scope holding the guard"]
pub fn span_unit(name: &str, unit: u64) -> SpanGuard {
    span_impl(name, Some(unit), false)
}

/// A *detached* span for one parallel work item (e.g. one CV fold):
/// its path roots at `name#unit` regardless of what the executing
/// thread was doing, and its duration is *not* charged to any parent
/// span's child time. This keeps event paths identical whether the
/// item ran on a worker thread or on the caller via the single-thread
/// inline fallback.
#[must_use = "a span measures the scope holding the guard"]
pub fn task_span(name: &str, unit: u64) -> SpanGuard {
    span_impl(name, Some(unit), true)
}

fn span_impl(name: &str, unit: Option<u64>, detached: bool) -> SpanGuard {
    if !is_enabled() {
        return SpanGuard {
            active: false,
            unit: None,
        };
    }
    let label = match unit {
        Some(u) => format!("{name}#{u}"),
        None => name.to_string(),
    };
    STACK.with(|s| {
        let mut stack = s.borrow_mut();
        let path = match stack.last() {
            Some(parent) if !detached => format!("{}/{label}", parent.path),
            _ => label,
        };
        stack.push(Frame {
            path,
            start: Instant::now(),
            child_ns: 0,
            detached,
        });
    });
    SpanGuard { active: true, unit }
}

/// Ends its span on drop, recording duration and self time.
pub struct SpanGuard {
    active: bool,
    unit: Option<u64>,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if !self.active {
            return;
        }
        let Some(frame) = STACK.with(|s| s.borrow_mut().pop()) else {
            return;
        };
        let dur_ns = frame.start.elapsed().as_nanos() as u64;
        if !frame.detached {
            STACK.with(|s| {
                if let Some(parent) = s.borrow_mut().last_mut() {
                    parent.child_ns += dur_ns;
                }
            });
        }
        let self_ns = dur_ns.saturating_sub(frame.child_ns);
        record(
            EventKind::Span { dur_ns, self_ns },
            frame.path,
            self.unit,
            frame.start,
        );
    }
}

/// Adds `delta` to the named monotonic counter.
pub fn counter_add(name: &str, delta: u64) {
    if !is_enabled() {
        return;
    }
    with_shard(|data, _| match data.counters.get_mut(name) {
        Some(v) => *v += delta,
        None => {
            data.counters.insert(name.to_string(), delta);
        }
    });
}

/// Records `value` into the named latency histogram — the scalable
/// path for high-frequency per-operation measurements (checkpoint
/// write/read times, per-request latencies): each observation is one
/// bucket increment in the thread's shard, not an event allocation,
/// and shards merge by bucket sum at [`drain`]. Values are
/// unit-agnostic; by convention the name carries the unit
/// (`data.columnar.write_ms`). Summaries report count/p50/p90/p99/max.
pub fn observe(name: &str, value: u64) {
    if !is_enabled() {
        return;
    }
    with_shard(|data, _| match data.hists.get_mut(name) {
        Some(h) => h.record(value),
        None => {
            let mut h = Histogram::new();
            h.record(value);
            data.hists.insert(name.to_string(), h);
        }
    });
}

/// Records a sampled value for logical unit `unit` (e.g. per-epoch
/// training loss, `unit` = epoch index) under the current span path.
pub fn metric(name: &str, unit: u64, value: f64) {
    if !is_enabled() {
        return;
    }
    record(
        EventKind::Metric { value },
        path_under_current(name),
        Some(unit),
        Instant::now(),
    );
}

/// Records an instantaneous occurrence for logical unit `unit` (fault
/// firing, checkpoint hit, retry) under the current span path.
pub fn mark(name: &str, unit: u64) {
    if !is_enabled() {
        return;
    }
    record(
        EventKind::Mark,
        path_under_current(name),
        Some(unit),
        Instant::now(),
    );
}

/// Peak resident set size of this process in KiB, read from the
/// `VmHWM` line of `/proc/self/status`. Returns 0 when the procfs
/// field is unavailable (non-Linux), so callers can gate the report
/// on a non-zero value instead of special-casing platforms. Used by
/// the streamed-fold evaluation path and the check.sh RSS smoke to
/// assert that spilling keeps only one fold resident.
pub fn peak_rss_kb() -> u64 {
    let status = match std::fs::read_to_string("/proc/self/status") {
        Ok(s) => s,
        Err(_) => return 0,
    };
    for line in status.lines() {
        if let Some(rest) = line.strip_prefix("VmHWM:") {
            return rest
                .trim()
                .trim_end_matches("kB")
                .trim()
                .parse()
                .unwrap_or(0);
        }
    }
    0
}

fn path_under_current(name: &str) -> String {
    STACK.with(|s| match s.borrow().last() {
        Some(parent) => format!("{}/{name}", parent.path),
        None => name.to_string(),
    })
}

fn record(kind: EventKind, path: String, unit: Option<u64>, at: Instant) {
    let tid = TID.with(|t| *t);
    with_shard(|data, collector| {
        let order = collector.order.fetch_add(1, Ordering::Relaxed);
        let ts_ns = at.saturating_duration_since(collector.start).as_nanos() as u64;
        data.events.push(RawEvent {
            kind,
            path,
            unit,
            order,
            ts_ns,
            tid,
        });
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peak_rss_is_nonzero_on_linux_and_never_panics() {
        let kb = peak_rss_kb();
        if cfg!(target_os = "linux") {
            assert!(kb > 0, "VmHWM should be readable on Linux");
        }
    }

    #[test]
    fn disabled_probes_are_inert() {
        assert!(!is_enabled());
        let _s = span("never");
        counter_add("never", 1);
        metric("never", 0, 1.0);
        mark("never", 0);
        observe("never", 1);
        assert!(drain().is_none());
    }

    #[test]
    fn spans_nest_and_account_self_vs_child_time() {
        let _g = arm();
        {
            let _outer = span("outer");
            std::thread::sleep(std::time::Duration::from_millis(2));
            {
                let _inner = span("inner");
                std::thread::sleep(std::time::Duration::from_millis(2));
            }
        }
        let log = drain().unwrap();
        let paths: Vec<&str> = log.events.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(paths, vec!["outer", "outer/inner"]);
        let outer = &log.events[0];
        let inner = &log.events[1];
        let (EventKind::Span { dur_ns, self_ns }, EventKind::Span { dur_ns: in_dur, .. }) =
            (&outer.kind, &inner.kind)
        else {
            panic!("expected span events");
        };
        assert!(dur_ns >= in_dur, "outer contains inner");
        assert_eq!(self_ns + in_dur, *dur_ns, "self = dur - child");
    }

    #[test]
    fn task_spans_root_their_own_paths() {
        let _g = arm();
        {
            let _outer = span("outer");
            let _fold = task_span("fold", 3);
            let _step = span("step");
            mark("hit", 7);
        }
        let log = drain().unwrap();
        let paths: Vec<&str> = log.events.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(
            paths,
            vec!["fold#3", "fold#3/step", "fold#3/step/hit", "outer"]
        );
        // Detached time is not charged to the parent.
        let outer = log.events.iter().find(|e| e.path == "outer").unwrap();
        let fold = log.events.iter().find(|e| e.path == "fold#3").unwrap();
        let EventKind::Span { dur_ns, self_ns } = outer.kind else {
            panic!("expected a span event");
        };
        assert!(matches!(fold.kind, EventKind::Span { .. }));
        assert_eq!(self_ns, dur_ns, "the detached fold is not outer's child");
    }

    #[test]
    fn counters_accumulate_and_drain_resets() {
        let _g = arm();
        counter_add("sweeps", 2);
        counter_add("sweeps", 3);
        counter_add("docs", 1);
        let log = drain().unwrap();
        assert_eq!(
            log.counters,
            vec![("docs".to_string(), 1), ("sweeps".to_string(), 5)]
        );
        let log2 = drain().unwrap();
        assert!(log2.counters.is_empty() && log2.events.is_empty());
    }

    #[test]
    fn seq_numbers_order_repeated_events_at_one_path() {
        let _g = arm();
        for epoch in 0..3 {
            metric("loss", epoch, epoch as f64 * 0.5);
        }
        metric("loss", 1, 99.0); // retry of epoch 1
        let log = drain().unwrap();
        let keys: Vec<(u64, u64)> = log
            .events
            .iter()
            .map(|e| (e.unit.unwrap(), e.seq))
            .collect();
        assert_eq!(keys, vec![(0, 0), (1, 0), (1, 1), (2, 0)]);
    }

    #[test]
    fn seq_respects_happens_before_across_threads() {
        // A sequential retry chain that hops threads — attempt 1 on
        // one worker, attempt 2 on another — must keep its temporal
        // order in `seq`, because the second attempt's arrival order
        // is sampled strictly after the first attempt finished.
        let _g = arm();
        let scope = &Scope::capture();
        for attempt in [1.0f64, 2.0] {
            std::thread::scope(|s| {
                s.spawn(move || {
                    let _in = scope.enter();
                    let _t = task_span("job", 0);
                    metric("attempt", 0, attempt);
                });
            });
        }
        let log = drain().unwrap();
        let vals: Vec<(u64, f64)> = log
            .events
            .iter()
            .filter_map(|e| match e.kind {
                EventKind::Metric { value } => Some((e.seq, value)),
                _ => None,
            })
            .collect();
        assert_eq!(vals, vec![(0, 1.0), (1, 2.0)]);
    }

    #[test]
    fn canonical_lines_are_thread_count_independent() {
        let run = |threads: usize| {
            let _g = arm();
            let jobs: Vec<u64> = (0..6).collect();
            let work = |&job: &u64| {
                let _t = task_span("job", job);
                counter_add("jobs.done", 1);
                observe("job.latency", job + 10);
                metric("job.value", 0, job as f64 * 1.5);
            };
            if threads == 1 {
                jobs.iter().for_each(work);
            } else {
                let scope = &Scope::capture();
                std::thread::scope(|s| {
                    for chunk in jobs.chunks(jobs.len() / threads) {
                        s.spawn(move || {
                            let _in = scope.enter();
                            chunk.iter().for_each(work);
                        });
                    }
                });
            }
            drain().unwrap().canonical_lines()
        };
        assert_eq!(run(1), run(3));
    }

    #[test]
    fn armed_emit_takes_no_global_lock() {
        // Regression guard for the sharding refactor: while one thread
        // holds its own shard mutex, another thread must still finish
        // an emit. Under one global emit lock the second emit blocks
        // and the holder times out.
        let _g = arm();
        let scope = &Scope::capture();
        let held = &std::sync::Barrier::new(2);
        let (emitted, done) = std::sync::mpsc::channel();
        std::thread::scope(|s| {
            s.spawn(move || {
                let _in = scope.enter();
                with_shard(|_, _| {
                    held.wait();
                    done.recv_timeout(std::time::Duration::from_secs(30))
                        .expect("an emit blocked on another thread's shard");
                });
            });
            s.spawn(move || {
                let _in = scope.enter();
                held.wait();
                {
                    let _sp = task_span("hammer", 1);
                    counter_add("hits", 1);
                }
                emitted.send(()).unwrap();
            });
        });
        let log = drain().unwrap();
        assert_eq!(log.counters, vec![("hits".to_string(), 1)]);
        assert_eq!(log.events.len(), 1, "{:?}", log.events);
        assert_eq!(shard_stats(), (3, 0), "each thread gets its own shard");
    }

    #[test]
    fn shards_recycle_across_worker_scopes() {
        let _g = arm();
        let scope = &Scope::capture();
        for round in 0..5u64 {
            std::thread::scope(|s| {
                s.spawn(move || {
                    let _in = scope.enter();
                    counter_add("round.hits", 1);
                    mark("round", round);
                });
            });
        }
        let log = drain().unwrap();
        assert_eq!(log.counters, vec![("round.hits".to_string(), 5)]);
        assert_eq!(
            shard_stats(),
            (2, 4),
            "sequential workers must reuse one pooled shard"
        );
    }

    #[test]
    fn an_armed_scope_is_invisible_to_other_threads() {
        let barrier = &std::sync::Barrier::new(2);
        let (log, (enabled, drained)) = std::thread::scope(|s| {
            let armed = s.spawn(move || {
                let _g = arm();
                counter_add("a.hits", 1);
                barrier.wait();
                mark("a.mark", 0);
                barrier.wait();
                drain().unwrap()
            });
            let unarmed = s.spawn(move || {
                barrier.wait();
                let enabled = is_enabled();
                {
                    let _sp = span("b.span");
                    counter_add("b.hits", 1);
                    mark("b.mark", 0);
                    observe("b.lat", 1);
                }
                let drained = drain().is_some();
                barrier.wait();
                (enabled, drained)
            });
            (armed.join().unwrap(), unarmed.join().unwrap())
        });
        assert!(!enabled, "another thread's arm leaked here");
        assert!(!drained, "an unarmed thread drained a collector");
        assert_eq!(log.counters, vec![("a.hits".to_string(), 1)]);
        let paths: Vec<&str> = log.events.iter().map(|e| e.path.as_str()).collect();
        assert_eq!(paths, vec!["a.mark"]);
        assert!(log.hists.is_empty());
    }

    #[test]
    fn observe_merges_histograms_across_threads() {
        let run = |threads: usize| {
            let _g = arm();
            let values: Vec<u64> = (1..=100).collect();
            if threads == 1 {
                for &v in &values {
                    observe("lat", v);
                }
            } else {
                let scope = &Scope::capture();
                std::thread::scope(|s| {
                    for chunk in values.chunks(values.len() / threads) {
                        s.spawn(move || {
                            let _in = scope.enter();
                            for &v in chunk {
                                observe("lat", v);
                            }
                        });
                    }
                });
            }
            drain().unwrap()
        };
        let one = run(1);
        let four = run(4);
        assert_eq!(one.hists, four.hists, "bucket sums are order-free");
        let (name, h) = &one.hists[0];
        assert_eq!(name, "lat");
        assert_eq!(h.count(), 100);
        assert_eq!(h.sum(), 5050);
        assert_eq!(h.max(), 100);
        assert!(h.quantile(0.5) >= 48 && h.quantile(0.5) <= 52);
    }

    #[test]
    fn base_name_strips_numeric_unit_suffixes_only() {
        let ev = |path: &str| Event {
            kind: EventKind::Mark,
            path: path.to_string(),
            unit: None,
            seq: 0,
            ts_ns: 0,
            tid: 0,
        };
        assert_eq!(ev("a/b/fold#12").base_name(), "fold");
        assert_eq!(ev("a/c#sharp").base_name(), "c#sharp");
        assert_eq!(ev("plain").base_name(), "plain");
    }
}
