//! Figure 7: feature-group importance as a function of the amount of
//! historical data available for inference.
//!
//! Protocol (Section IV-D): evaluation targets are fixed to the last
//! days of the dataset (`Ω = D_25 ∪ … ∪ D_30`); the inference window
//! `F(q) = D_{25−i} ∪ … ∪ D_{25}` varies over
//! `i ∈ {5, 10, 15, 20, 25}`; for each window one of the four feature
//! groups is excluded and the model's RMSE is measured.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

use forumcast_data::DayPartition;
use forumcast_features::FeatureGroup;

use crate::config::EvalConfig;
use crate::data::ExperimentData;
use crate::experiments::{run_cv_resumable, sub_checkpoint, CvError, CvOptions};
use crate::fold::{mean_std, MaskSpec};

/// RMSEs for one (history window, excluded group) cell.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Cell {
    /// Days of history `i`.
    pub history_days: usize,
    /// The excluded group (`None` = full feature set, for reference).
    pub excluded: Option<FeatureGroup>,
    /// Mean RMSE on the vote task.
    pub rmse_votes: f64,
    /// Mean RMSE on the timing task.
    pub rmse_time: f64,
}

/// The Figure 7 grid.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig7Report {
    /// All cells, grouped by window then exclusion.
    pub cells: Vec<Fig7Cell>,
}

impl Fig7Report {
    /// The most important group (largest RMSE when excluded) for a
    /// given window and task.
    pub fn most_important(&self, history_days: usize, timing: bool) -> Option<FeatureGroup> {
        self.cells
            .iter()
            .filter(|c| c.history_days == history_days && c.excluded.is_some())
            .max_by(|a, b| {
                let av = if timing { a.rmse_time } else { a.rmse_votes };
                let bv = if timing { b.rmse_time } else { b.rmse_votes };
                av.total_cmp(&bv)
            })
            .and_then(|c| c.excluded)
    }
}

impl fmt::Display for Fig7Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 7 — RMSE with one feature group excluded, by history window"
        )?;
        writeln!(
            f,
            "{:>8} {:<16} {:>10} {:>10}",
            "History", "Excluded", "RMSE(v)", "RMSE(r)"
        )?;
        for c in &self.cells {
            writeln!(
                f,
                "{:>7}d {:<16} {:>10.3} {:>10.3}",
                c.history_days,
                c.excluded.map_or("(none)".to_string(), |g| g.to_string()),
                c.rmse_votes,
                c.rmse_time
            )?;
        }
        Ok(())
    }
}

/// Runs the Figure 7 experiment. `windows` are the history lengths
/// in days (paper: `[5, 10, 15, 20, 25]`); `eval_from_day` is the
/// first evaluation day (paper: 25).
///
/// # Panics
///
/// Panics when a CV run fails despite per-fold retries.
pub fn run(config: &EvalConfig, windows: &[usize], eval_from_day: usize) -> Fig7Report {
    run_with(config, windows, eval_from_day, None).unwrap_or_else(|e| panic!("fig7: {e}"))
}

/// [`run`] with an optional checkpoint base path: the cell for window
/// `w` with the full feature set checkpoints into
/// `<base>.w<w>.ref.ckpt` and the cell excluding the `j`-th group
/// into `<base>.w<w>.g<j>.ckpt`.
///
/// # Errors
///
/// Returns [`CvError`] when a fold exhausts its retries or a
/// checkpoint file is unusable.
pub fn run_with(
    config: &EvalConfig,
    windows: &[usize],
    eval_from_day: usize,
    checkpoint: Option<&Path>,
) -> Result<Fig7Report, CvError> {
    let (dataset, _) = config.synth.generate().preprocess();
    let days = DayPartition::new(&dataset);
    let last_day = days.num_days();
    let mut cells = Vec::new();

    for &w in windows {
        let from_day = eval_from_day.saturating_sub(w).max(1);
        // Contiguous index range: history days [from_day, eval_from_day)
        // followed by target days [eval_from_day, last_day].
        let history_idx = days.questions_in_days(from_day, eval_from_day - 1);
        let target_idx = days.questions_in_days(eval_from_day, last_day);
        if history_idx.is_empty() || target_idx.is_empty() {
            continue;
        }
        let mut selected = history_idx.clone();
        selected.extend(&target_idx);
        let sub = dataset.select(&selected);
        let warmup = history_idx.len();

        // One bucket: the extractor is fitted on exactly F(q).
        let mut cfg = config.clone();
        cfg.buckets = 1;
        let data = ExperimentData::build_with_ranges(&sub, &cfg, warmup, &cfg.extractor);

        let run_cell = |excluded: Option<FeatureGroup>, tag: String| -> Result<Fig7Cell, CvError> {
            let mask = excluded.map(MaskSpec::Group);
            let opts = CvOptions {
                checkpoint: sub_checkpoint(checkpoint, &tag),
                ..CvOptions::default()
            };
            let outcomes = run_cv_resumable(&data, &cfg, mask, false, &opts)?;
            let v = mean_std(&outcomes.iter().map(|o| o.rmse_votes).collect::<Vec<_>>()).0;
            let t = mean_std(&outcomes.iter().map(|o| o.rmse_time).collect::<Vec<_>>()).0;
            Ok(Fig7Cell {
                history_days: w,
                excluded,
                rmse_votes: v,
                rmse_time: t,
            })
        };
        cells.push(run_cell(None, format!("w{w}.ref"))?);
        for (j, g) in FeatureGroup::ALL.into_iter().enumerate() {
            cells.push(run_cell(Some(g), format!("w{w}.g{j}"))?);
        }
    }
    Ok(Fig7Report { cells })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn most_important_picks_max_rmse() {
        let report = Fig7Report {
            cells: vec![
                Fig7Cell {
                    history_days: 5,
                    excluded: Some(FeatureGroup::User),
                    rmse_votes: 1.0,
                    rmse_time: 30.0,
                },
                Fig7Cell {
                    history_days: 5,
                    excluded: Some(FeatureGroup::Question),
                    rmse_votes: 2.0,
                    rmse_time: 10.0,
                },
                Fig7Cell {
                    history_days: 5,
                    excluded: None,
                    rmse_votes: 0.9,
                    rmse_time: 9.0,
                },
            ],
        };
        assert_eq!(
            report.most_important(5, true),
            Some(FeatureGroup::User),
            "timing should blame the user group"
        );
        assert_eq!(
            report.most_important(5, false),
            Some(FeatureGroup::Question)
        );
        assert_eq!(report.most_important(9, true), None);
        assert!(report.to_string().contains("(none)"));
    }

    #[test]
    #[ignore = "minutes-long: trains 5 models per history window"]
    fn quick_fig7_runs() {
        let mut cfg = EvalConfig::quick();
        cfg.folds = 2;
        let report = run(&cfg, &[10, 20], 25);
        assert!(!report.cells.is_empty());
    }
}
