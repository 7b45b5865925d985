//! Criterion bench: overhead of the observability probes.
//!
//! The disarmed collector is the case that matters — every span,
//! counter, and metric probe sits on a pipeline hot path and must
//! cost no more than one thread-local flag read when no
//! `--trace`/`--metrics` run is collecting. The armed variants
//! quantify what a collecting run pays, and an instrumented LDA sweep
//! compares the end-to-end cost on a real workload both ways.

use std::collections::HashMap;
use std::sync::Mutex;
use std::time::Instant;

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use forumcast_synth::SynthConfig;
use forumcast_text::{tokenize_filtered, Corpus, Vocabulary};
use forumcast_topics::{LdaConfig, LdaModel};

fn bench_probe_overhead(c: &mut Criterion) {
    let mut group = c.benchmark_group("obs/probes");

    // Disarmed: the production default. Each probe should reduce to
    // one thread-local flag read and an immediate return.
    group.bench_function("span_disarmed", |b| {
        b.iter(|| {
            let _s = forumcast_obs::span("bench.noop");
        })
    });
    group.bench_function("counter_disarmed", |b| {
        b.iter(|| forumcast_obs::counter_add("bench.noop", 1))
    });
    group.bench_function("metric_disarmed", |b| {
        b.iter(|| forumcast_obs::metric("bench.noop", 0, 1.0))
    });

    // Armed: what a collecting run pays per probe. Drain between
    // measurements so the event log cannot grow without bound.
    let guard = forumcast_obs::arm();
    group.bench_function("span_armed", |b| {
        b.iter(|| {
            let _s = forumcast_obs::span("bench.noop");
        });
        forumcast_obs::drain();
    });
    group.bench_function("counter_armed", |b| {
        b.iter(|| forumcast_obs::counter_add("bench.noop", 1));
        forumcast_obs::drain();
    });
    drop(guard);
    group.finish();
}

/// Reference reimplementation of the pre-sharding record path: every
/// armed probe funnels through one process-wide mutex, and the
/// per-`(path, unit)` sequence number is assigned eagerly under that
/// lock via a HashMap keyed by a clone of the path. Kept inline here
/// (the production collector no longer has this path) so the
/// contended-emit bench always compares the shipped sharded design
/// against the design it replaced with the same per-probe work:
/// label formatting, two clock reads per span, and the locked
/// seq-map + event push.
struct MutexCollector {
    start: Instant,
    state: Mutex<MutexState>,
}

#[derive(Default)]
struct MutexState {
    #[allow(clippy::type_complexity)]
    events: Vec<(String, u64, u64, u64, u64)>,
    seq: HashMap<(String, u64), u64>,
    counters: HashMap<String, u64>,
}

impl MutexCollector {
    fn new() -> Self {
        MutexCollector {
            start: Instant::now(),
            state: Mutex::new(MutexState::default()),
        }
    }

    fn task_span(&self, name: &str, unit: u64) {
        let path = format!("{name}#{unit}");
        let at = Instant::now();
        let dur_ns = at.elapsed().as_nanos() as u64;
        let ts_ns = at.saturating_duration_since(self.start).as_nanos() as u64;
        let mut s = self.state.lock().unwrap();
        let slot = s.seq.entry((path.clone(), unit)).or_insert(0);
        let seq = *slot;
        *slot += 1;
        s.events.push((path, unit, seq, ts_ns, dur_ns));
    }

    fn counter_add(&self, name: &str, delta: u64) {
        let mut s = self.state.lock().unwrap();
        match s.counters.get_mut(name) {
            Some(v) => *v += delta,
            None => {
                s.counters.insert(name.to_string(), delta);
            }
        }
    }

    fn drain(&self) -> usize {
        // The pre-sharding drain also sorted into canonical
        // (path, unit, seq) order — keep that cost in the reference so
        // the per-iteration work matches the real collector's drain.
        let mut s = self.state.lock().unwrap();
        let mut events = std::mem::take(&mut s.events);
        let counter_map = std::mem::take(&mut s.counters);
        s.seq.clear();
        drop(s);
        events.sort_by(|a, b| (a.0.as_str(), a.1, a.2).cmp(&(b.0.as_str(), b.1, b.2)));
        let mut counters: Vec<(String, u64)> = counter_map.into_iter().collect();
        counters.sort();
        events.len() + counters.len()
    }
}

fn bench_contended_emit(c: &mut Criterion) {
    // Armed emit under multi-thread contention: `global_mutex` is the
    // [`MutexCollector`] reference (the pre-sharding design),
    // `sharded` is the real collector, where an armed emit takes only
    // the emitting thread's own uncontended shard lock. One iteration
    // spawns the worker threads, emits EMITS span+counter pairs per
    // thread, and drains — both variants push the same probe volume
    // and reclaim memory at the same point.
    const EMITS: usize = 4_000;

    let mut group = c.benchmark_group("obs/contended_emit");
    group.sample_size(10);
    for threads in [1usize, 2, 4] {
        group.bench_with_input(
            BenchmarkId::new("global_mutex", threads),
            &threads,
            |b, &t| {
                let collector = MutexCollector::new();
                b.iter(|| {
                    std::thread::scope(|s| {
                        for unit in 0..t as u64 {
                            let collector = &collector;
                            s.spawn(move || {
                                for _ in 0..EMITS {
                                    collector.task_span("bench.contended", unit);
                                    collector.counter_add("bench.contended.hits", 1);
                                }
                            });
                        }
                    });
                    collector.drain()
                })
            },
        );
        group.bench_with_input(BenchmarkId::new("sharded", threads), &threads, |b, &t| {
            let guard = forumcast_obs::arm();
            let scope = &forumcast_obs::Scope::capture();
            b.iter(|| {
                std::thread::scope(|s| {
                    for unit in 0..t as u64 {
                        s.spawn(move || {
                            let _in = scope.enter();
                            for _ in 0..EMITS {
                                let _s = forumcast_obs::task_span("bench.contended", unit);
                                forumcast_obs::counter_add("bench.contended.hits", 1);
                            }
                        });
                    }
                });
                forumcast_obs::drain()
            });
            drop(guard);
        });
    }
    group.finish();
}

fn bench_instrumented_workload(c: &mut Criterion) {
    // A real instrumented hot path: LDA training fires the sweep
    // counter once per Gibbs sweep. Disarmed vs armed shows the
    // end-to-end overhead on actual work.
    let ds = SynthConfig::small().generate();
    let docs: Vec<Vec<String>> = ds
        .threads()
        .iter()
        .flat_map(|t| t.posts().map(|p| tokenize_filtered(&p.body.text)))
        .collect();
    let mut vocab = Vocabulary::new();
    for d in &docs {
        vocab.observe(d);
    }
    vocab.prune(2, 0.6);
    let corpus = Corpus::from_token_docs(&docs, &vocab);
    let cfg = LdaConfig::new(5).with_iterations(20);

    let mut group = c.benchmark_group("obs/lda_train");
    group.sample_size(10);
    group.bench_function("disarmed", |b| b.iter(|| LdaModel::train(&corpus, &cfg)));
    group.bench_with_input(BenchmarkId::new("armed", "trace"), &(), |b, ()| {
        let _guard = forumcast_obs::arm();
        b.iter(|| LdaModel::train(&corpus, &cfg));
        forumcast_obs::drain();
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_probe_overhead,
    bench_contended_emit,
    bench_instrumented_workload
);
criterion_main!(benches);
