//! One cross-validation iteration: train our models + baselines on
//! the train folds, evaluate AUC/RMSE on the held-out fold.

use serde::{Deserialize, Serialize};

use forumcast_core::{ResponsePredictor, TrainingRows};
use forumcast_features::{FeatureGroup, FeatureId};

use crate::baselines::Baselines;
use crate::config::EvalConfig;
use crate::data::{ExperimentData, PairRecord};
use crate::metrics::{auc, rmse};

/// What to exclude from the feature vector in an importance study.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MaskSpec {
    /// Zero one logical feature (Figure 6).
    Feature(FeatureId),
    /// Zero a whole group (Figure 7).
    Group(FeatureGroup),
}

/// Metrics from one fold: ours and the baselines'.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub struct FoldOutcome {
    /// AUC of the logistic `â` model.
    pub auc: f64,
    /// AUC of the SPARFA baseline.
    pub auc_baseline: f64,
    /// RMSE of the deep-network `v̂` model.
    pub rmse_votes: f64,
    /// RMSE of the MF baseline.
    pub rmse_votes_baseline: f64,
    /// RMSE of the point-process `r̂` model (hours).
    pub rmse_time: f64,
    /// RMSE of the Poisson-regression baseline (hours).
    pub rmse_time_baseline: f64,
}

/// Runs one CV iteration. `pos_folds` / `neg_folds` assign a fold id
/// to every positive / negative record; records with fold `test_fold`
/// are held out. `mask` optionally zeroes feature slots everywhere
/// (train and test), implementing the exclusion protocols of Figures
/// 6–7. `run_baselines` can be disabled for masking sweeps (the
/// baselines don't use features, so their numbers would not change).
///
/// Each side is walked once in row order: a training row goes to a
/// [`TrainingRows`] builder (answer and vote samples in row order,
/// timing threads in target order once both sides are done); a
/// held-out row is kept by reference for evaluation.
///
/// `_unused` is always `None`. It exists only so that the benchmark
/// binary (`crates/bench/src/bin/benchmark`), which still makes the
/// eight-argument call, keeps compiling. The next change to the
/// benchmark drops it (ROADMAP.md, item 12).
#[allow(clippy::too_many_arguments)] // the seven fold arguments plus `_unused`
pub fn run_fold(
    data: &ExperimentData,
    config: &EvalConfig,
    pos_folds: &[usize],
    neg_folds: &[usize],
    test_fold: usize,
    mask: Option<MaskSpec>,
    run_baselines: bool,
    _unused: Option<std::convert::Infallible>,
) -> FoldOutcome {
    assert_eq!(pos_folds.len(), data.positives.len(), "pos fold map size");
    assert_eq!(neg_folds.len(), data.negatives.len(), "neg fold map size");

    let layout = data.layout;
    let windows = &data.windows;
    let masked = |x: &[f64]| -> Vec<f64> {
        let mut v = x.to_vec();
        match mask {
            Some(MaskSpec::Feature(f)) => layout.mask_feature(&mut v, f),
            Some(MaskSpec::Group(g)) => layout.mask_group(&mut v, g),
            None => {}
        }
        v
    };

    // --- our models ---
    let mut train = TrainingRows::new(layout.dim());
    // Held-out rows for evaluation, and — for the baselines — the
    // training rows.
    let mut test_pos: Vec<&PairRecord> = Vec::new();
    let mut test_neg: Vec<&PairRecord> = Vec::new();
    let mut train_pos: Vec<&PairRecord> = Vec::new();
    let mut train_neg: Vec<&PairRecord> = Vec::new();

    for (r, &fold) in data.positives.iter().zip(pos_folds) {
        if fold == test_fold {
            test_pos.push(r);
        } else {
            train.answered(r.target, masked(&r.x), r.votes, r.response_time);
            if run_baselines {
                train_pos.push(r);
            }
        }
    }
    for (r, &fold) in data.negatives.iter().zip(neg_folds) {
        if fold == test_fold {
            test_neg.push(r);
        } else {
            train.unanswered(r.target, masked(&r.x));
            if run_baselines {
                train_neg.push(r);
            }
        }
    }
    let ts = train.finish(windows, data.num_users);

    let model = ResponsePredictor::train(&ts, &config.train);
    drop(ts);

    // --- evaluation ---
    let mut scores = Vec::with_capacity(test_pos.len() + test_neg.len());
    let mut labels = Vec::with_capacity(scores.capacity());
    for r in &test_pos {
        scores.push(model.predict_answer(&masked(&r.x)));
        labels.push(true);
    }
    for r in &test_neg {
        scores.push(model.predict_answer(&masked(&r.x)));
        labels.push(false);
    }
    let our_auc = auc(&scores, &labels);

    let vote_pred: Vec<f64> = test_pos
        .iter()
        .map(|r| model.predict_votes(&masked(&r.x)))
        .collect();
    let vote_true: Vec<f64> = test_pos.iter().map(|r| r.votes).collect();
    let our_rmse_votes = rmse(&vote_pred, &vote_true);

    let time_pred: Vec<f64> = test_pos
        .iter()
        .map(|r| model.predict_response_time(&masked(&r.x), windows[r.target]))
        .collect();
    let time_true: Vec<f64> = test_pos.iter().map(|r| r.response_time).collect();
    let our_rmse_time = rmse(&time_pred, &time_true);

    // --- baselines ---
    let (auc_b, rmse_v_b, rmse_t_b) = if run_baselines {
        let baselines = Baselines::train(
            data.num_users,
            windows.len(),
            layout.dim(),
            &train_pos,
            &train_neg,
            config.seed ^ 0xBA5E,
        );
        let scores_b: Vec<f64> = test_pos
            .iter()
            .chain(&test_neg)
            .map(|r| baselines.score_answer(r))
            .collect();
        let votes_b: Vec<f64> = test_pos
            .iter()
            .map(|r| baselines.predict_votes(r))
            .collect();
        let times_b: Vec<f64> = test_pos
            .iter()
            .map(|r| baselines.predict_response_time(&r.x))
            .collect();
        (
            auc(&scores_b, &labels),
            rmse(&votes_b, &vote_true),
            rmse(&times_b, &time_true),
        )
    } else {
        (0.0, 0.0, 0.0)
    };

    FoldOutcome {
        auc: our_auc,
        auc_baseline: auc_b,
        rmse_votes: our_rmse_votes,
        rmse_votes_baseline: rmse_v_b,
        rmse_time: our_rmse_time,
        rmse_time_baseline: rmse_t_b,
    }
}

/// Mean and standard deviation of a metric across fold outcomes.
pub fn mean_std(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (0.0, 0.0);
    }
    let n = values.len() as f64;
    let mean = values.iter().sum::<f64>() / n;
    let var = values.iter().map(|v| (v - mean) * (v - mean)).sum::<f64>() / n;
    (mean, var.sqrt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::split::stratified_folds;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fold_run_produces_sane_metrics() {
        let cfg = EvalConfig::quick();
        let (ds, _) = cfg.synth.generate().preprocess();
        let data = ExperimentData::build(&ds, &cfg);
        let mut rng = StdRng::seed_from_u64(cfg.seed);
        let pos_groups: Vec<u32> = data.positives.iter().map(|p| p.user.0).collect();
        let pos_folds = stratified_folds(&pos_groups, cfg.folds, &mut rng);
        let neg_groups: Vec<u32> = data.negatives.iter().map(|p| p.user.0).collect();
        let neg_folds = stratified_folds(&neg_groups, cfg.folds, &mut rng);

        let out = run_fold(&data, &cfg, &pos_folds, &neg_folds, 0, None, true, None);
        assert!((0.0..=1.0).contains(&out.auc));
        assert!((0.0..=1.0).contains(&out.auc_baseline));
        assert!(out.rmse_votes > 0.0 && out.rmse_votes.is_finite());
        assert!(out.rmse_time > 0.0 && out.rmse_time.is_finite());
        // The whole point of the paper: features beat index-only
        // baselines on the answer task.
        assert!(out.auc > 0.6, "our AUC {}", out.auc);
    }

    #[test]
    fn masked_fold_runs_without_baselines() {
        let cfg = EvalConfig::quick();
        let (ds, _) = cfg.synth.generate().preprocess();
        let data = ExperimentData::build(&ds, &cfg);
        let mut rng = StdRng::seed_from_u64(1);
        let pos_groups: Vec<u32> = data.positives.iter().map(|p| p.user.0).collect();
        let pos_folds = stratified_folds(&pos_groups, 3, &mut rng);
        let neg_groups: Vec<u32> = data.negatives.iter().map(|p| p.user.0).collect();
        let neg_folds = stratified_folds(&neg_groups, 3, &mut rng);
        let out = run_fold(
            &data,
            &cfg,
            &pos_folds,
            &neg_folds,
            1,
            Some(MaskSpec::Group(FeatureGroup::Social)),
            false,
            None,
        );
        assert_eq!(out.auc_baseline, 0.0);
        assert!(out.rmse_time.is_finite());
    }

    #[test]
    fn mean_std_known_values() {
        let (m, s) = mean_std(&[1.0, 3.0]);
        assert_eq!(m, 2.0);
        assert_eq!(s, 1.0);
        assert_eq!(mean_std(&[]), (0.0, 0.0));
    }
}
