//! Assembling experiment data: pair records with features, targets,
//! negative samples, and observation windows.

use std::ops::Range;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use forumcast_data::{Dataset, UserId};
use forumcast_features::{
    ExtractorConfig, FeatureExtractor, FeatureLayout, PostTopics, TokenizedPosts,
};

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
        let _span = forumcast_obs::span("features.build");
        let threads = dataset.threads();
        assert!(
            warmup >= 1 && warmup < threads.len(),
            "warmup split {warmup} out of range for {} threads",
            threads.len()
        );
        let horizon = dataset.horizon();
        let num_targets = threads.len() - warmup;
        let worker_threads = config.worker_threads();
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xDA7A);

        let mut positives = Vec::new();
        let mut negatives = Vec::new();
        let mut windows = vec![0.0; num_targets];

        let bounds = ExperimentData::bucket_ranges(threads.len(), warmup, config.buckets);

        // Pass 0 (parallel): every bucket's topic model. Each history is
        // a prefix of the last bucket's, so the posts tokenize once; each
        // fit is an independent Gibbs chain with its own seeded RNG, so
        // the fits run concurrently and stay bit-identical. `parallel_map`
        // claims items in index order, so the largest history goes first
        // and the smaller ones share the other workers. Each fit gets a
        // detached task span, so its `lda.train` path is the same whether
        // it ran inline (one thread) or on a worker.
        let fitted = {
            let last_start = bounds.last().map_or(warmup, |r| r.start);
            let posts = TokenizedPosts::new(&threads[..last_start]);
            let largest_first: Vec<usize> = (0..bounds.len()).rev().collect();
            let mut fitted = forumcast_par::parallel_map(&largest_first, worker_threads, |&b| {
                let _span = forumcast_obs::task_span("features.topics", b as u64);
                PostTopics::fit_prefix(&posts, bounds[b].start, &extractor_config.lda)
            });
            fitted.reverse();
            fitted
        };

        for (b, (&Range { start, end }, topics)) in bounds.iter().zip(fitted).enumerate() {
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
                let wanted =
                    (answerers.len() as f64 * config.negatives_per_positive).round() as usize;
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
            // aggregates and centralities. It frees the history posts'
            // distributions once the aggregates that read them are
            // built, and drops at the end of the bucket.
            let extractor = FeatureExtractor::new(
                &threads[..start],
                dataset.num_users(),
                topics,
                extractor_config.betweenness,
            );

            // Pass 2 (parallel): per-thread feature extraction. Each
            // `(u, q)` vector is a pure function of the extractor and the
            // plan, and results are flattened in thread order, so the
            // output is identical for any worker-thread count.
            let per_thread = forumcast_par::parallel_map(
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
            );
            // Both sides grow by exactly this bucket's records.
            positives.reserve_exact(per_thread.iter().map(|(pos, _)| pos.len()).sum());
            negatives.reserve_exact(per_thread.iter().map(|(_, neg)| neg.len()).sum());
            for (pos, neg) in per_thread {
                positives.extend(pos);
                negatives.extend(neg);
            }
        }

        forumcast_obs::counter_add("features.pairs.pos", positives.len() as u64);
        forumcast_obs::counter_add("features.pairs.neg", negatives.len() as u64);
        let layout = FeatureLayout::new(extractor_config.lda.num_topics);
        ExperimentData {
            dim: layout.dim(),
            layout,
            num_users: dataset.num_users() as usize,
            num_targets,
            positives,
            negatives,
            windows,
        }
    }

    /// The target threads of each bucket [`build_with_ranges`] fits one
    /// extractor for, over `num_threads` threads with `warmup` history
    /// threads in `buckets` buckets: bucket `b`'s history is every
    /// thread before its range.
    ///
    /// [`build_with_ranges`]: ExperimentData::build_with_ranges
    pub fn bucket_ranges(num_threads: usize, warmup: usize, buckets: usize) -> Vec<Range<usize>> {
        let num_targets = num_threads.saturating_sub(warmup);
        let buckets = buckets.clamp(1, num_targets.max(1));
        let bucket_size = num_targets.div_ceil(buckets);
        (0..buckets)
            .map(|b| {
                let start = warmup + b * bucket_size;
                start..(start + bucket_size).min(num_threads)
            })
            .take_while(|r| r.start < r.end)
            .collect()
    }

    /// Target `t`'s positive and negative records. The build stores
    /// both sides in target order, so each is one contiguous run.
    pub fn target_records(&self, t: usize) -> (&[PairRecord], &[PairRecord]) {
        let run = |rs: &[PairRecord]| {
            rs.partition_point(|r| r.target < t)..rs.partition_point(|r| r.target <= t)
        };
        (
            &self.positives[run(&self.positives)],
            &self.negatives[run(&self.negatives)],
        )
    }
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
        // Both sides are stored in target order, which
        // `target_records` relies on.
        for side in [&data.positives, &data.negatives] {
            assert!(side.windows(2).all(|w| w[0].target <= w[1].target));
        }
    }

    #[test]
    fn target_records_slice_each_side_by_target() {
        let rec = |user: u32, target: usize| PairRecord {
            user: UserId(user),
            target,
            x: vec![user as f64],
            votes: 0.0,
            response_time: 0.0,
        };
        let layout = FeatureLayout::new(1);
        let data = ExperimentData {
            dim: layout.dim(),
            layout,
            num_users: 9,
            num_targets: 4,
            positives: vec![rec(1, 0), rec(2, 0), rec(3, 2), rec(4, 3)],
            negatives: vec![rec(5, 1), rec(6, 2), rec(7, 2)],
            windows: vec![1.0; 4],
        };
        let users = |rs: &[PairRecord]| rs.iter().map(|r| r.user.0).collect::<Vec<_>>();
        let sliced: Vec<_> = (0..5)
            .map(|t| {
                let (p, n) = data.target_records(t);
                (users(p), users(n))
            })
            .collect();
        assert_eq!(
            sliced,
            [
                (vec![1, 2], vec![]),
                (vec![], vec![5]),
                (vec![3], vec![6, 7]),
                (vec![4], vec![]),
                (vec![], vec![]),
            ]
        );
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

    /// Each bucket's targets are outside its history, so the extractor
    /// infers their topics from their text: no target may be in its
    /// bucket's history.
    #[test]
    fn no_target_is_in_its_buckets_history() {
        let cfg = EvalConfig::quick();
        let (ds, _) = cfg.synth.generate().preprocess();
        let threads = ds.threads();
        let warmup = (threads.len() as f64 * cfg.warmup_frac) as usize;
        for buckets in [1, 2, 3, 7] {
            let ranges = ExperimentData::bucket_ranges(threads.len(), warmup, buckets);
            assert_eq!(ranges.first().map(|r| r.start), Some(warmup));
            assert_eq!(ranges.last().map(|r| r.end), Some(threads.len()));
            for r in &ranges {
                let history: std::collections::HashSet<_> =
                    threads[..r.start].iter().map(|t| t.id).collect();
                assert!(
                    threads[r.clone()].iter().all(|t| !history.contains(&t.id)),
                    "{buckets} buckets: a target of {r:?} is in its history"
                );
            }
        }
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn degenerate_warmup_panics() {
        let cfg = EvalConfig::quick();
        let (ds, _) = SynthConfig::small().generate().preprocess();
        ExperimentData::build_with_ranges(&ds, &cfg, ds.num_questions(), &cfg.extractor);
    }
}
