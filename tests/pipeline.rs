//! End-to-end integration test: synthetic forum → preprocessing →
//! topics/graphs/features → all three predictors → evaluation —
//! the full pipeline of the paper's Figure 1, across every crate.

use forumcast::eval::experiments::run_cv;
use forumcast::eval::split::stratified_folds;
use forumcast::eval::{auc, EvalConfig, ExperimentData};
use forumcast::prelude::*;

fn quick_config() -> EvalConfig {
    let mut cfg = EvalConfig::quick().with_seed(314);
    cfg.folds = 3;
    cfg
}

#[test]
fn full_pipeline_trains_and_beats_chance() {
    let cfg = quick_config();
    let (dataset, report) = cfg.synth.generate().preprocess();
    assert!(report.questions_kept > 100, "{report}");

    let data = ExperimentData::build(&dataset, &cfg);
    assert!(data.positives.len() > 100);
    assert_eq!(data.dim, 18 + 2 * cfg.extractor.lda.num_topics);

    let outcomes = run_cv(&data, &cfg, None, false);
    assert_eq!(outcomes.len(), cfg.folds);
    for o in &outcomes {
        // Answer task must clearly beat chance on every fold.
        assert!(o.auc > 0.65, "fold AUC {}", o.auc);
        assert!(o.rmse_votes.is_finite() && o.rmse_votes > 0.0);
        assert!(o.rmse_time.is_finite() && o.rmse_time > 0.0);
    }
}

#[test]
fn predictor_generalizes_across_the_three_tasks() {
    let cfg = quick_config();
    let (dataset, _) = cfg.synth.generate().preprocess();
    let data = ExperimentData::build(&dataset, &cfg);

    // Hand-rolled single split (last fold held out).
    let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(7);
    let pos_groups: Vec<u32> = data.positives.iter().map(|p| p.user.0).collect();
    let pos_folds = stratified_folds(&pos_groups, 3, &mut rng);
    let neg_groups: Vec<u32> = data.negatives.iter().map(|n| n.user.0).collect();
    let neg_folds = stratified_folds(&neg_groups, 3, &mut rng);

    let mut rows = TrainingRows::new(data.dim);
    for (i, p) in data.positives.iter().enumerate() {
        if pos_folds[i] != 0 {
            rows.answered(p.target, p.x.clone(), p.votes, p.response_time);
        }
    }
    for (i, n) in data.negatives.iter().enumerate() {
        if neg_folds[i] != 0 {
            rows.unanswered(n.target, n.x.clone());
        }
    }
    let ts = rows.finish(&data.windows, data.num_users);
    let model = ResponsePredictor::train(&ts, &cfg.train);

    // Held-out answer AUC.
    let mut scores = Vec::new();
    let mut labels = Vec::new();
    for (i, p) in data.positives.iter().enumerate() {
        if pos_folds[i] == 0 {
            scores.push(model.predict_answer(&p.x));
            labels.push(true);
        }
    }
    for (i, n) in data.negatives.iter().enumerate() {
        if neg_folds[i] == 0 {
            scores.push(model.predict_answer(&n.x));
            labels.push(false);
        }
    }
    let a = auc(&scores, &labels);
    assert!(a > 0.65, "held-out AUC {a}");

    // Vote predictions correlate positively with observed votes.
    let vp: Vec<f64> = data
        .positives
        .iter()
        .enumerate()
        .filter(|(i, _)| pos_folds[*i] == 0)
        .map(|(_, p)| model.predict_votes(&p.x))
        .collect();
    let vt: Vec<f64> = data
        .positives
        .iter()
        .enumerate()
        .filter(|(i, _)| pos_folds[*i] == 0)
        .map(|(_, p)| p.votes)
        .collect();
    let corr = forumcast::eval::pearson(&vp, &vt);
    assert!(corr > 0.2, "vote prediction correlation {corr}");

    // Timing predictions are positive and within windows.
    for (i, p) in data.positives.iter().enumerate() {
        if pos_folds[i] == 0 {
            let r = model.predict_response_time(&p.x, data.windows[p.target]);
            assert!(
                r >= 0.0 && r <= data.windows[p.target] * 1.01,
                "r̂ {r} outside window {}",
                data.windows[p.target]
            );
        }
    }
}

#[test]
fn masked_groups_change_predictions() {
    use forumcast::eval::fold::{run_fold, MaskSpec};

    let cfg = quick_config();
    let (dataset, _) = cfg.synth.generate().preprocess();
    let data = ExperimentData::build(&dataset, &cfg);
    let mut rng: rand::rngs::StdRng = rand::SeedableRng::seed_from_u64(9);
    let pos_groups: Vec<u32> = data.positives.iter().map(|p| p.user.0).collect();
    let pos_folds = stratified_folds(&pos_groups, 3, &mut rng);
    let neg_groups: Vec<u32> = data.negatives.iter().map(|n| n.user.0).collect();
    let neg_folds = stratified_folds(&neg_groups, 3, &mut rng);

    let full = run_fold(&data, &cfg, &pos_folds, &neg_folds, 0, None, false, None);
    let no_user = run_fold(
        &data,
        &cfg,
        &pos_folds,
        &neg_folds,
        0,
        Some(MaskSpec::Group(FeatureGroup::User)),
        false,
        None,
    );
    // Removing the user group must change (typically worsen) the
    // timing task, which the paper identifies as user-driven.
    assert_ne!(full.rmse_time, no_user.rmse_time);
    assert!(
        no_user.auc <= full.auc + 0.1,
        "masking should not help much"
    );
}
