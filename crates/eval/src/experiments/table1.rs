//! Table I: performance on all three prediction tasks vs. baselines.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

use crate::config::EvalConfig;
use crate::data::ExperimentData;
use crate::experiments::{run_cv_resumable, CvError};
use crate::fold::mean_std;

/// One row of Table I.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Row {
    /// Prediction task (`a_uq`, `v_uq`, `r_uq`).
    pub task: String,
    /// Metric name (AUC or RMSE).
    pub metric: String,
    /// Baseline mean ± std across CV iterations.
    pub baseline: (f64, f64),
    /// Our model's mean ± std.
    pub ours: (f64, f64),
    /// Relative improvement over the baseline, in percent (higher
    /// AUC / lower RMSE is better).
    pub improvement_pct: f64,
}

/// The full Table I report.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table1Report {
    /// The three task rows.
    pub rows: Vec<Table1Row>,
    /// CV iterations behind each mean.
    pub iterations: usize,
}

impl fmt::Display for Table1Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Table I — prediction performance over {} CV iterations",
            self.iterations
        )?;
        writeln!(
            f,
            "{:<6} {:<6} {:>18} {:>18} {:>12}",
            "Task", "Metric", "Baseline", "Our model", "Improvement"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<6} {:<6} {:>10.3} ±{:<6.3} {:>10.3} ±{:<6.3} {:>10.1}%",
                r.task, r.metric, r.baseline.0, r.baseline.1, r.ours.0, r.ours.1, r.improvement_pct
            )?;
        }
        Ok(())
    }
}

/// Runs the Table I experiment: full CV with baselines on the
/// standard protocol (`Ω = Q`, bucketed prior history).
///
/// With `checkpoint` set, completed folds are saved after each fold
/// and skipped when rerun with the same path; a fold interrupted
/// part-way recomputes from its start.
///
/// # Errors
///
/// Returns [`CvError`] when a fold exhausts its retries or the
/// checkpoint file is unusable.
pub fn run(config: &EvalConfig, checkpoint: Option<&Path>) -> Result<Table1Report, CvError> {
    let (dataset, _) = config.synth.generate().preprocess();
    let data = ExperimentData::build(&dataset, config);
    let outcomes = run_cv_resumable(&data, config, None, true, checkpoint)?;
    Ok(report_from(&outcomes))
}

/// Builds the report from raw fold outcomes (exposed for reuse by the
/// bench harness and tests).
pub fn report_from(outcomes: &[crate::fold::FoldOutcome]) -> Table1Report {
    let collect =
        |f: fn(&crate::fold::FoldOutcome) -> f64| -> Vec<f64> { outcomes.iter().map(f).collect() };
    let auc_ours = mean_std(&collect(|o| o.auc));
    let auc_base = mean_std(&collect(|o| o.auc_baseline));
    let votes_ours = mean_std(&collect(|o| o.rmse_votes));
    let votes_base = mean_std(&collect(|o| o.rmse_votes_baseline));
    let time_ours = mean_std(&collect(|o| o.rmse_time));
    let time_base = mean_std(&collect(|o| o.rmse_time_baseline));

    let rows = vec![
        Table1Row {
            task: "a_uq".into(),
            metric: "AUC".into(),
            baseline: auc_base,
            ours: auc_ours,
            improvement_pct: if auc_base.0 > 0.0 {
                (auc_ours.0 - auc_base.0) / auc_base.0 * 100.0
            } else {
                0.0
            },
        },
        Table1Row {
            task: "v_uq".into(),
            metric: "RMSE".into(),
            baseline: votes_base,
            ours: votes_ours,
            improvement_pct: if votes_base.0 > 0.0 {
                (votes_base.0 - votes_ours.0) / votes_base.0 * 100.0
            } else {
                0.0
            },
        },
        Table1Row {
            task: "r_uq".into(),
            metric: "RMSE".into(),
            baseline: time_base,
            ours: time_ours,
            improvement_pct: if time_base.0 > 0.0 {
                (time_base.0 - time_ours.0) / time_base.0 * 100.0
            } else {
                0.0
            },
        },
    ];
    Table1Report {
        rows,
        iterations: outcomes.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fold::FoldOutcome;

    #[test]
    fn report_math_is_correct() {
        let outcomes = vec![
            FoldOutcome {
                auc: 0.9,
                auc_baseline: 0.6,
                rmse_votes: 1.0,
                rmse_votes_baseline: 2.0,
                rmse_time: 10.0,
                rmse_time_baseline: 20.0,
            },
            FoldOutcome {
                auc: 0.8,
                auc_baseline: 0.7,
                rmse_votes: 1.2,
                rmse_votes_baseline: 1.8,
                rmse_time: 12.0,
                rmse_time_baseline: 18.0,
            },
        ];
        let report = report_from(&outcomes);
        assert_eq!(report.iterations, 2);
        // AUC: ours 0.85 vs base 0.65 → +30.77%.
        assert!((report.rows[0].improvement_pct - (0.2 / 0.65 * 100.0)).abs() < 1e-9);
        // Votes RMSE: base 1.9 vs ours 1.1 → +42.1%.
        assert!((report.rows[1].improvement_pct - (0.8 / 1.9 * 100.0)).abs() < 1e-9);
        let text = report.to_string();
        assert!(text.contains("a_uq"));
        assert!(text.contains("Improvement"));
    }

    #[test]
    #[ignore = "minutes-long: full quick-protocol CV with baselines"]
    fn quick_run_beats_baselines() {
        let report = run(&EvalConfig::quick(), None).unwrap();
        assert!(report.rows[0].improvement_pct > 0.0, "{report}");
    }
}
