//! Assembling experiment data: pair records with features, targets,
//! negative samples, and observation windows.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use std::convert::Infallible;

use forumcast_data::{Dataset, UserId};
use forumcast_features::{
    ExtractorConfig, FeatureExtractor, FeatureLayout, PostTopics, TokenizedPosts,
};
use forumcast_resilience::fault::{self, FaultSite};
use forumcast_resilience::with_retry;

use crate::config::EvalConfig;

/// One `(u, q)` record: the raw feature vector plus targets.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PairRecord {
    /// The user.
    pub user: UserId,
    /// Index of the target question within [`ExperimentData`] (dense,
    /// 0-based over evaluation targets).
    pub target: usize,
    /// Raw (unnormalized) feature vector `x_{u,q}`.
    pub x: Vec<f64>,
    /// `v_{u,q}` (0 for negative records).
    pub votes: f64,
    /// `r_{u,q}` in hours (0 for negative records).
    pub response_time: f64,
}

/// A fully materialized experiment: positives (observed answers),
/// balanced negatives, per-target observation windows, and the
/// feature layout. Built once per protocol setting and shared by all
/// CV folds.
#[derive(Debug, Clone)]
pub struct ExperimentData {
    /// Feature dimension `18 + 2K`.
    pub dim: usize,
    /// Slot layout for masking experiments.
    pub layout: FeatureLayout,
    /// Population size `|U|`.
    pub num_users: usize,
    /// Number of evaluation-target questions.
    pub num_targets: usize,
    /// Observed answer pairs.
    pub positives: Vec<PairRecord>,
    /// Sampled non-answering pairs (`a_{u,q} = 0`), balanced per the
    /// paper's protocol; they double as the survival-term samples of
    /// the point-process likelihood.
    pub negatives: Vec<PairRecord>,
    /// Observation window `T − t(p_{q0})` per target.
    pub windows: Vec<f64>,
}

impl ExperimentData {
    /// Builds experiment data from a preprocessed dataset under the
    /// config's history protocol: the first `warmup_frac` of threads
    /// are history only; the remaining targets are processed in
    /// `buckets` chronological buckets, each using an extractor
    /// fitted on **all prior threads**.
    ///
    /// # Panics
    ///
    /// Panics when the dataset has too few threads for the warmup
    /// split.
    pub fn build(dataset: &Dataset, config: &EvalConfig) -> Self {
        let threads = dataset.threads();
        let warmup = ((threads.len() as f64 * config.warmup_frac) as usize)
            .clamp(1, threads.len().saturating_sub(1));
        Self::build_with_ranges(dataset, config, warmup, &config.extractor)
    }

    /// Builds experiment data where targets are `threads[warmup..]`
    /// and each bucket's features come from an extractor fitted on
    /// every earlier thread. Exposed for the history-window
    /// experiments (Figure 7) which pick their own ranges.
    pub fn build_with_ranges(
        dataset: &Dataset,
        config: &EvalConfig,
        warmup: usize,
        extractor_config: &ExtractorConfig,
    ) -> Self {
        let mut positives = Vec::new();
        let mut negatives = Vec::new();
        let shape = build_each(
            dataset,
            config,
            warmup,
            extractor_config,
            &mut |pos, neg| {
                positives.extend(pos);
                negatives.extend(neg);
            },
        );
        ExperimentData {
            dim: shape.layout.dim(),
            layout: shape.layout,
            num_users: shape.num_users,
            num_targets: shape.num_targets,
            positives,
            negatives,
            windows: shape.windows,
        }
    }
}

/// Resident per-record metadata: everything about a pair except its
/// feature vector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RowMeta {
    /// The user.
    pub user: UserId,
    /// Dense target index.
    pub target: usize,
    /// `v_{u,q}` (0 for negatives).
    pub votes: f64,
    /// `r_{u,q}` in hours (0 for negatives).
    pub response_time: f64,
}

impl PairRecord {
    /// The record's metadata (everything but `x`).
    pub fn meta(&self) -> RowMeta {
        RowMeta {
            user: self.user,
            target: self.target,
            votes: self.votes,
            response_time: self.response_time,
        }
    }
}

/// One record side of an experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// Observed answer pairs.
    Positives,
    /// Sampled non-answering pairs.
    Negatives,
}

/// The rows of a prepared experiment, as one CV fold reads them:
/// implemented by the resident [`ExperimentData`] and by the spilled
/// [`SpilledExperiment`](crate::columnar::SpilledExperiment), so the
/// fold body and the CV driver are written once for both.
pub trait RowSource: Sync {
    /// Why a pass over the rows can fail: [`Infallible`] when the
    /// rows are resident, a read error when they stream from disk.
    type Error: std::fmt::Display + Send;

    /// Slot layout (and so the feature dimension).
    fn layout(&self) -> FeatureLayout;

    /// Population size `|U|`.
    fn num_users(&self) -> usize;

    /// Observation window per target; its length is the target count.
    fn windows(&self) -> &[f64];

    /// Number of records on `side`.
    fn len(&self, side: Side) -> usize;

    /// The user column of `side`, in row order — the strata of
    /// [`stratified_folds`](crate::split::stratified_folds).
    fn users(&self, side: Side) -> Vec<u32>;

    /// Visits every record on `side` once, in row order.
    ///
    /// # Errors
    ///
    /// [`Self::Error`] when the rows cannot be read.
    fn for_each_row(
        &self,
        side: Side,
        f: &mut dyn FnMut(RowMeta, &[f64]),
    ) -> Result<(), Self::Error>;
}

impl ExperimentData {
    fn records(&self, side: Side) -> &[PairRecord] {
        match side {
            Side::Positives => &self.positives,
            Side::Negatives => &self.negatives,
        }
    }
}

impl RowSource for ExperimentData {
    type Error = Infallible;

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
        self.records(side).len()
    }

    fn users(&self, side: Side) -> Vec<u32> {
        self.records(side).iter().map(|r| r.user.0).collect()
    }

    fn for_each_row(
        &self,
        side: Side,
        f: &mut dyn FnMut(RowMeta, &[f64]),
    ) -> Result<(), Infallible> {
        for r in self.records(side) {
            f(r.meta(), &r.x);
        }
        Ok(())
    }
}

/// Everything a build produces besides the pair records themselves —
/// the part a spilled (on-disk) experiment keeps resident.
#[derive(Debug, Clone)]
pub(crate) struct BuildShape {
    pub layout: FeatureLayout,
    pub num_users: usize,
    pub num_targets: usize,
    pub windows: Vec<f64>,
}

/// Core build loop shared by the resident and the spilled (columnar
/// on-disk) experiment paths: runs the history protocol bucket by
/// bucket and hands each bucket's records to `sink` instead of
/// materializing the whole experiment. The record stream — contents
/// *and* order — is identical to what
/// [`ExperimentData::build_with_ranges`] accumulates, at any
/// worker-thread count.
pub(crate) fn build_each(
    dataset: &Dataset,
    config: &EvalConfig,
    warmup: usize,
    extractor_config: &ExtractorConfig,
    sink: &mut dyn FnMut(Vec<PairRecord>, Vec<PairRecord>),
) -> BuildShape {
    let _span = forumcast_obs::span("features.build");
    let threads = dataset.threads();
    assert!(
        warmup >= 1 && warmup < threads.len(),
        "warmup split {warmup} out of range for {} threads",
        threads.len()
    );
    let horizon = dataset.horizon();
    let num_targets = threads.len() - warmup;
    let buckets = config.buckets.max(1).min(num_targets);
    let worker_threads = config.worker_threads();
    let mut rng = StdRng::seed_from_u64(config.seed ^ 0xDA7A);

    let mut total_pos = 0u64;
    let mut total_neg = 0u64;
    let mut windows = vec![0.0; num_targets];

    // Bucket `b` targets `threads[start..end]`, with every earlier
    // thread as its history.
    let bucket_size = num_targets.div_ceil(buckets);
    let bounds: Vec<(usize, usize)> = (0..buckets)
        .map(|b| {
            let start = warmup + b * bucket_size;
            (start, (start + bucket_size).min(threads.len()))
        })
        .take_while(|&(start, end)| start < end)
        .collect();

    // Pass 0 (parallel): every bucket's topic model. Each history is
    // a prefix of the last bucket's, so the posts tokenize once; each
    // fit is an independent Gibbs chain with its own seeded RNG, so
    // the fits run concurrently and stay bit-identical. `parallel_map`
    // claims items in index order, so the largest history goes first
    // and the smaller ones share the other workers. Each fit gets a
    // detached task span, so its `lda.train` path is the same whether
    // it ran inline (one thread) or on a worker.
    let fitted = {
        let last_start = bounds.last().map_or(warmup, |&(start, _)| start);
        let posts = TokenizedPosts::new(&threads[..last_start]);
        let largest_first: Vec<usize> = (0..bounds.len()).rev().collect();
        let mut fitted = forumcast_par::parallel_map(&largest_first, worker_threads, |&b| {
            let _span = forumcast_obs::task_span("features.topics", b as u64);
            PostTopics::fit_prefix(&posts, bounds[b].0, &extractor_config.lda)
        });
        fitted.reverse();
        fitted
    };

    for (b, (&(start, end), topics)) in bounds.iter().zip(fitted).enumerate() {
        let _bucket_span = forumcast_obs::span_unit("features.bucket", b as u64);

        // Pass 1 (serial): windows, answerer lists, and negative
        // sampling. Sampling stays sequential in thread order so
        // the RNG stream — and therefore every sampled user — is
        // identical to the serial implementation regardless of
        // the worker-thread count.
        let mut plans: Vec<(&forumcast_data::Thread, usize, Vec<UserId>, Vec<UserId>)> =
            Vec::with_capacity(end - start);
        for (gi, thread) in threads[start..end].iter().enumerate() {
            let target = start + gi - warmup;
            windows[target] = (horizon - thread.asked_at()).max(0.5);

            let mut answerers: Vec<UserId> = thread.answers.iter().map(|a| a.author).collect();
            answerers.sort_unstable();
            answerers.dedup();
            // Balanced negatives, sampled "equally across
            // questions": one per positive in this thread.
            let wanted = (answerers.len() as f64 * config.negatives_per_positive).round() as usize;
            let mut guard = 0;
            let mut sampled: Vec<UserId> = Vec::with_capacity(wanted);
            while sampled.len() < wanted && guard < wanted * 50 {
                guard += 1;
                let u = UserId(rng.gen_range(0..dataset.num_users()));
                if u == thread.asker() || answerers.contains(&u) || sampled.contains(&u) {
                    continue;
                }
                sampled.push(u);
            }
            plans.push((thread, target, answerers, sampled));
        }

        // The bucket's extractor: pass 0's topics plus the history's
        // aggregates and centralities. It drops, topics and all, at
        // the end of the bucket.
        let extractor = FeatureExtractor::from_topics(
            &threads[..start],
            dataset.num_users(),
            topics,
            extractor_config.betweenness,
        );

        // Pass 2 (parallel): per-thread feature extraction. Each
        // `(u, q)` vector is a pure function of the extractor and the
        // plan, and results are flattened in thread order, so the
        // output is identical for any worker-thread count. The RNG
        // was consumed entirely in pass 1, so this pass can be
        // retried wholesale. The `alloc-pressure` probe simulates
        // an allocation failure here — the largest transient
        // allocation of the build — and one bounded retry degrades
        // it to a recomputed bucket instead of an aborted sweep.
        let per_thread = with_retry(&format!("features bucket {b}"), 2, || {
            fault::panic_point(FaultSite::AllocPressure, b as u64);
            forumcast_par::parallel_map(
                &plans,
                worker_threads,
                |(thread, target, answerers, sampled)| {
                    let d_q = extractor.question_topics(thread);
                    let pos: Vec<PairRecord> = answerers
                        .iter()
                        .map(|&u| {
                            let a = thread.answer_by(u).expect("answered");
                            PairRecord {
                                user: u,
                                target: *target,
                                x: extractor.features(u, thread, &d_q),
                                votes: a.votes as f64,
                                response_time: a.timestamp - thread.asked_at(),
                            }
                        })
                        .collect();
                    let neg: Vec<PairRecord> = sampled
                        .iter()
                        .map(|&u| PairRecord {
                            user: u,
                            target: *target,
                            x: extractor.features(u, thread, &d_q),
                            votes: 0.0,
                            response_time: 0.0,
                        })
                        .collect();
                    (pos, neg)
                },
            )
        })
        .unwrap_or_else(|e| panic!("experiment data build failed: {e}"));
        let mut bucket_pos = Vec::new();
        let mut bucket_neg = Vec::new();
        for (pos, neg) in per_thread {
            bucket_pos.extend(pos);
            bucket_neg.extend(neg);
        }
        total_pos += bucket_pos.len() as u64;
        total_neg += bucket_neg.len() as u64;
        sink(bucket_pos, bucket_neg);
    }

    forumcast_obs::counter_add("features.pairs.pos", total_pos);
    forumcast_obs::counter_add("features.pairs.neg", total_neg);
    BuildShape {
        layout: FeatureLayout::new(extractor_dim_topics(extractor_config)),
        num_users: dataset.num_users() as usize,
        num_targets,
        windows,
    }
}

/// Topic count configured in an extractor config.
fn extractor_dim_topics(config: &ExtractorConfig) -> usize {
    config.lda.num_topics
}

#[cfg(test)]
mod tests {
    use super::*;
    use forumcast_synth::SynthConfig;

    fn quick_data() -> ExperimentData {
        let cfg = EvalConfig::quick();
        let (ds, _) = cfg.synth.generate().preprocess();
        ExperimentData::build(&ds, &cfg)
    }

    #[test]
    fn positives_match_dataset_answers() {
        let cfg = EvalConfig::quick();
        let (ds, _) = cfg.synth.generate().preprocess();
        let data = ExperimentData::build(&ds, &cfg);
        let warmup = (ds.num_questions() as f64 * cfg.warmup_frac) as usize;
        let expected: usize = ds.threads()[warmup..]
            .iter()
            .map(|t| {
                let mut u: Vec<_> = t.answers.iter().map(|a| a.author).collect();
                u.sort_unstable();
                u.dedup();
                u.len()
            })
            .sum();
        assert_eq!(data.positives.len(), expected);
        assert_eq!(data.num_targets, ds.num_questions() - warmup);
    }

    #[test]
    fn negatives_are_balanced_and_disjoint_from_positives() {
        let data = quick_data();
        let diff = (data.negatives.len() as f64 - data.positives.len() as f64).abs();
        let rel = diff / (data.positives.len() as f64);
        assert!(
            rel < 0.05,
            "{} negatives vs {} positives",
            data.negatives.len(),
            data.positives.len()
        );
        use std::collections::HashSet;
        let pos: HashSet<(u32, usize)> = data
            .positives
            .iter()
            .map(|p| (p.user.0, p.target))
            .collect();
        for nrec in &data.negatives {
            assert!(!pos.contains(&(nrec.user.0, nrec.target)));
        }
    }

    #[test]
    fn feature_vectors_have_layout_dim_and_are_finite() {
        let data = quick_data();
        for r in data.positives.iter().chain(&data.negatives) {
            assert_eq!(r.x.len(), data.dim);
            assert!(r.x.iter().all(|v| v.is_finite()));
        }
    }

    #[test]
    fn windows_are_positive_and_targets_covered() {
        let data = quick_data();
        assert!(data.windows.iter().all(|&w| w > 0.0));
        assert_eq!(data.windows.len(), data.num_targets);
        assert!(data.positives.iter().all(|p| p.target < data.num_targets));
    }

    #[test]
    fn response_times_fit_in_windows() {
        let data = quick_data();
        for p in &data.positives {
            assert!(
                p.response_time <= data.windows[p.target] + 1e-9,
                "r {} vs window {}",
                p.response_time,
                data.windows[p.target]
            );
        }
    }

    #[test]
    fn build_identical_across_thread_counts() {
        let mut cfg = EvalConfig::quick();
        let (ds, _) = cfg.synth.generate().preprocess();
        cfg.threads = 1;
        let serial = ExperimentData::build(&ds, &cfg);
        for threads in [2, 7] {
            cfg.threads = threads;
            let par = ExperimentData::build(&ds, &cfg);
            assert_eq!(serial.positives, par.positives, "{threads} threads");
            assert_eq!(serial.negatives, par.negatives, "{threads} threads");
            assert_eq!(serial.windows, par.windows, "{threads} threads");
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn degenerate_warmup_panics() {
        let cfg = EvalConfig::quick();
        let (ds, _) = SynthConfig::small().generate().preprocess();
        ExperimentData::build_with_ranges(&ds, &cfg, ds.num_questions(), &cfg.extractor);
    }

    /// One simulated allocation failure per bucket heals via the
    /// bucket retry, and the healed build is identical to a
    /// fault-free one — the sweep degrades gracefully instead of
    /// aborting.
    #[test]
    fn alloc_pressure_heals_to_an_identical_build() {
        let cfg = EvalConfig::quick();
        let (ds, _) = cfg.synth.generate().preprocess();
        let clean = ExperimentData::build(&ds, &cfg);
        let _guard = forumcast_resilience::FaultPlan::parse("alloc-pressure:0,alloc-pressure:1")
            .unwrap()
            .arm();
        let healed = ExperimentData::build(&ds, &cfg);
        assert_eq!(clean.positives, healed.positives);
        assert_eq!(clean.negatives, healed.negatives);
        assert_eq!(clean.windows, healed.windows);
    }

    /// Exhausting the bucket retry is a hard, labeled failure.
    #[test]
    #[should_panic(expected = "features bucket 0")]
    fn alloc_pressure_exhausting_retries_aborts_with_the_bucket_label() {
        let cfg = EvalConfig::quick();
        let (ds, _) = cfg.synth.generate().preprocess();
        let _guard = forumcast_resilience::FaultPlan::parse("alloc-pressure:0x2")
            .unwrap()
            .arm();
        ExperimentData::build(&ds, &cfg);
    }
}
