//! Figure 6: leave-one-feature-out importance for `v̂` and `r̂`.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

use forumcast_features::FeatureId;

use crate::config::EvalConfig;
use crate::data::ExperimentData;
use crate::experiments::{run_cv_resumable, sub_checkpoint, CvError};
use crate::fold::{mean_std, MaskSpec};

/// Importance of one feature: % increase in RMSE when it is removed.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Bar {
    /// The excluded feature.
    pub feature: FeatureId,
    /// %ΔRMSE on the vote task (positive = feature was helping).
    pub votes_pct: f64,
    /// %ΔRMSE on the timing task.
    pub time_pct: f64,
}

/// The full Figure 6 report: one bar per logical feature.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig6Report {
    /// Full-feature-set reference RMSEs `(votes, time)`.
    pub reference: (f64, f64),
    /// Bars in paper feature order.
    pub bars: Vec<Fig6Bar>,
}

impl Fig6Report {
    /// Features sorted by importance for the given task
    /// (`true` = timing task).
    pub fn ranked(&self, timing: bool) -> Vec<(FeatureId, f64)> {
        let mut v: Vec<(FeatureId, f64)> = self
            .bars
            .iter()
            .map(|b| (b.feature, if timing { b.time_pct } else { b.votes_pct }))
            .collect();
        v.sort_by(|a, b| b.1.total_cmp(&a.1));
        v
    }
}

impl fmt::Display for Fig6Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 6 — leave-one-feature-out %ΔRMSE (reference: v {:.3}, r {:.3})",
            self.reference.0, self.reference.1
        )?;
        writeln!(
            f,
            "{:<8} {:<14} {:>10} {:>10}",
            "Feature", "Group", "Δv %", "Δr %"
        )?;
        for b in &self.bars {
            writeln!(
                f,
                "{:<8} {:<14} {:>+10.2} {:>+10.2}",
                b.feature.symbol(),
                b.feature.group().to_string(),
                b.votes_pct,
                b.time_pct
            )?;
        }
        Ok(())
    }
}

/// Runs the leave-one-feature-out study on prebuilt experiment data:
/// a full CV per excluded feature (20 runs) plus one reference run,
/// all without baselines. With a `checkpoint` base path, the
/// reference run checkpoints into `<base>.ref.ckpt` and the run
/// excluding the `i`-th feature into `<base>.feat<i>.ckpt`.
///
/// # Errors
///
/// Returns [`CvError`] when a fold exhausts its retries or a
/// checkpoint file is unusable.
pub fn run(
    data: &ExperimentData,
    config: &EvalConfig,
    checkpoint: Option<&Path>,
) -> Result<Fig6Report, CvError> {
    let ref_ckpt = sub_checkpoint(checkpoint, "ref");
    let reference = run_cv_resumable(data, config, None, false, ref_ckpt.as_deref())?;
    let ref_v = mean_std(&reference.iter().map(|o| o.rmse_votes).collect::<Vec<_>>()).0;
    let ref_t = mean_std(&reference.iter().map(|o| o.rmse_time).collect::<Vec<_>>()).0;

    // The run_cv calls already parallelize folds internally; sweep
    // features sequentially to bound memory.
    let mut bars = Vec::with_capacity(FeatureId::ALL.len());
    for (i, &feature) in FeatureId::ALL.iter().enumerate() {
        let ckpt = sub_checkpoint(checkpoint, &format!("feat{i}"));
        let mask = Some(MaskSpec::Feature(feature));
        let outcomes = run_cv_resumable(data, config, mask, false, ckpt.as_deref())?;
        let v = mean_std(&outcomes.iter().map(|o| o.rmse_votes).collect::<Vec<_>>()).0;
        let t = mean_std(&outcomes.iter().map(|o| o.rmse_time).collect::<Vec<_>>()).0;
        bars.push(Fig6Bar {
            feature,
            votes_pct: (v - ref_v) / ref_v * 100.0,
            time_pct: (t - ref_t) / ref_t * 100.0,
        });
    }

    Ok(Fig6Report {
        reference: (ref_v, ref_t),
        bars,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranked_orders_by_importance() {
        let report = Fig6Report {
            reference: (1.0, 10.0),
            bars: vec![
                Fig6Bar {
                    feature: FeatureId::AnswersProvided,
                    votes_pct: 1.0,
                    time_pct: 40.0,
                },
                Fig6Bar {
                    feature: FeatureId::NetQuestionVotes,
                    votes_pct: 8.0,
                    time_pct: 2.0,
                },
            ],
        };
        assert_eq!(report.ranked(true)[0].0, FeatureId::AnswersProvided);
        assert_eq!(report.ranked(false)[0].0, FeatureId::NetQuestionVotes);
        assert!(report.to_string().contains("a_u"));
    }

    #[test]
    #[ignore = "minutes-long: 21 CV runs"]
    fn quick_study_runs() {
        let mut cfg = EvalConfig::quick();
        cfg.folds = 2;
        let (dataset, _) = cfg.synth.generate().preprocess();
        let data = ExperimentData::build(&dataset, &cfg);
        let report = run(&data, &cfg, None).unwrap();
        assert_eq!(report.bars.len(), 20);
    }
}
