//! Observability integration tests over the real CV harness.
//!
//! The collector's determinism contract: the canonical event log —
//! `(path, unit, seq)`-ordered events with timings stripped — and the
//! counter table are identical for any worker-thread count, and
//! counters count *exactly* (one increment per logical occurrence,
//! retries included).

use std::sync::OnceLock;

use forumcast_eval::{run_cv, EvalConfig, ExperimentData};
use forumcast_resilience::FaultPlan;

fn quick_config(threads: usize) -> EvalConfig {
    let mut cfg = EvalConfig::quick();
    cfg.folds = 2;
    cfg.repeats = 1;
    cfg.threads = threads;
    cfg
}

fn shared_data() -> &'static ExperimentData {
    static DATA: OnceLock<ExperimentData> = OnceLock::new();
    DATA.get_or_init(|| {
        let cfg = quick_config(1);
        let (ds, _) = cfg.synth.generate().preprocess();
        ExperimentData::build(&ds, &cfg)
    })
}

fn counter(log: &forumcast_obs::TraceLog, name: &str) -> u64 {
    log.counters
        .iter()
        .find(|(n, _)| n == name)
        .map_or(0, |(_, v)| *v)
}

#[test]
fn canonical_event_log_is_thread_count_independent() {
    let data = shared_data();
    let mut logs = Vec::new();
    // 7 deliberately exceeds the 2 fold jobs: idle workers must not
    // perturb the canonical lines either.
    for threads in [1, 2, 7] {
        let cfg = quick_config(threads);
        let guard = forumcast_obs::arm();
        let _ = run_cv(data, &cfg, None, false);
        let log = forumcast_obs::drain().expect("collector armed");
        drop(guard);
        logs.push((threads, log.canonical_lines(), log.counters.clone()));
    }
    let (_, lines_1, counters_1) = &logs[0];
    for (threads, lines_n, counters_n) in &logs[1..] {
        assert_eq!(
            lines_1, lines_n,
            "event log diverged between 1 and {threads} threads"
        );
        assert_eq!(
            counters_1, counters_n,
            "counters diverged between 1 and {threads} threads"
        );
    }
    assert!(
        lines_1.iter().any(|l| l.contains("eval.run_cv")),
        "missing eval.run_cv span: {lines_1:?}"
    );
    assert!(
        lines_1.iter().any(|l| l.contains("eval.fold#0")),
        "missing eval.fold#0 span: {lines_1:?}"
    );
}

/// The bucket topic fits run as parallel items: each is a detached
/// `features.topics#b` task span, so its `lda.train` path is the same
/// whether it ran inline on one thread or on a worker.
#[test]
fn build_event_log_is_thread_count_independent() {
    let (ds, _) = quick_config(1).synth.generate().preprocess();
    let mut logs = Vec::new();
    for threads in [1, 2, 7] {
        let cfg = quick_config(threads);
        let guard = forumcast_obs::arm();
        let _ = ExperimentData::build(&ds, &cfg);
        let mut log = forumcast_obs::drain().expect("collector armed");
        drop(guard);
        // How many BFS scratches the centralities' pool creates, and
        // so how many sources reuse one, depends on how its workers
        // interleave: the one counter outside the contract.
        log.counters
            .retain(|(name, _)| name != "graph.bfs.scratch_reuses");
        logs.push((threads, log.canonical_lines(), log.counters.clone()));
    }
    let (_, lines_1, counters_1) = &logs[0];
    for (threads, lines_n, counters_n) in &logs[1..] {
        assert_eq!(
            lines_1, lines_n,
            "event log diverged between 1 and {threads} threads"
        );
        assert_eq!(
            counters_1, counters_n,
            "counters diverged between 1 and {threads} threads"
        );
    }
    for b in 0..quick_config(1).buckets {
        let path = format!("span features.topics#{b}/lda.train ");
        assert!(
            lines_1.iter().any(|l| l.starts_with(&path)),
            "missing {path}: {lines_1:?}"
        );
    }
}

#[test]
fn fold_retry_and_fault_counters_are_exact() {
    let data = shared_data();
    let cfg = quick_config(1);

    // Fault-free: no retries, no fired faults, one span per fold.
    let clean = {
        let guard = forumcast_obs::arm();
        let _ = run_cv(data, &cfg, None, false);
        let log = forumcast_obs::drain().expect("collector armed");
        drop(guard);
        log
    };
    assert_eq!(counter(&clean, "retry.panics"), 0);
    assert_eq!(counter(&clean, "fault.fired.fold-panic"), 0);

    // One injected panic per fold job: each fires the fault counter
    // once and costs exactly one retry; the healed reruns add a
    // second eval.fold span occurrence (seq 1) per job.
    let faulted = {
        let _faults = FaultPlan::parse("fold-panic:0,fold-panic:1").unwrap().arm();
        let guard = forumcast_obs::arm();
        let _ = run_cv(data, &cfg, None, false);
        let log = forumcast_obs::drain().expect("collector armed");
        drop(guard);
        log
    };
    assert_eq!(counter(&faulted, "retry.panics"), 2);
    assert_eq!(counter(&faulted, "fault.fired.fold-panic"), 2);

    // The fold span wraps the whole retry ladder, so each job still
    // records exactly one eval.fold span; the per-attempt evidence is
    // the retry.panic mark nested under it.
    let count_events = |log: &forumcast_obs::TraceLog, path: &str, spans_only: bool| {
        log.events
            .iter()
            .filter(|e| {
                e.path == path
                    && (!spans_only || matches!(e.kind, forumcast_obs::EventKind::Span { .. }))
            })
            .count()
    };
    for unit in [0, 1] {
        let fold = format!("eval.fold#{unit}");
        assert_eq!(
            count_events(&clean, &fold, true),
            1,
            "clean run, fold {unit}"
        );
        assert_eq!(
            count_events(&faulted, &fold, true),
            1,
            "faulted run, fold {unit}"
        );
        let mark = format!("eval.fold#{unit}/retry.panic");
        assert_eq!(
            count_events(&clean, &mark, false),
            0,
            "clean run, fold {unit}"
        );
        assert_eq!(
            count_events(&faulted, &mark, false),
            1,
            "faulted run, fold {unit}"
        );
    }
}
