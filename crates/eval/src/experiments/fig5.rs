//! Figure 5: sensitivity of each task to the number of topics `K`.

use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::Path;

use crate::config::EvalConfig;
use crate::data::ExperimentData;
use crate::experiments::{run_cv_resumable, sub_checkpoint, CvError, CvOptions};
use crate::fold::mean_std;

/// Metrics at one value of `K`.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct Fig5Point {
    /// Number of topics.
    pub k: usize,
    /// Mean AUC on `â`.
    pub auc: f64,
    /// Mean RMSE on `v̂`.
    pub rmse_votes: f64,
    /// Mean RMSE on `r̂`.
    pub rmse_time: f64,
    /// Percent change of each metric relative to the reference `K`
    /// (positive = better: AUC up, RMSE down).
    pub pct_change: (f64, f64, f64),
}

/// The Figure 5 sweep.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Fig5Report {
    /// Reference topic count (the paper's default, 8).
    pub reference_k: usize,
    /// One point per swept `K`.
    pub points: Vec<Fig5Point>,
}

impl fmt::Display for Fig5Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "Figure 5 — topic-count sensitivity (%-change vs K={})",
            self.reference_k
        )?;
        writeln!(
            f,
            "{:>4} {:>8} {:>10} {:>10} | {:>8} {:>8} {:>8}",
            "K", "AUC", "RMSE(v)", "RMSE(r)", "Δa %", "Δv %", "Δr %"
        )?;
        for p in &self.points {
            writeln!(
                f,
                "{:>4} {:>8.3} {:>10.3} {:>10.3} | {:>+8.2} {:>+8.2} {:>+8.2}",
                p.k,
                p.auc,
                p.rmse_votes,
                p.rmse_time,
                p.pct_change.0,
                p.pct_change.1,
                p.pct_change.2
            )?;
        }
        Ok(())
    }
}

/// Runs the sweep over `ks` (the paper varies K around its default
/// of 8; pass e.g. `[4, 8, 12, 15, 20]`). Baselines are skipped —
/// they do not use topics.
///
/// # Panics
///
/// Panics when `ks` does not contain `reference_k`, or when the
/// sweep fails despite per-fold retries.
pub fn run(config: &EvalConfig, ks: &[usize], reference_k: usize) -> Fig5Report {
    run_with(config, ks, reference_k, None).unwrap_or_else(|e| panic!("fig5: {e}"))
}

/// [`run`] with an optional checkpoint base path: each swept `K`
/// checkpoints into `<base>.k<K>.ckpt`.
///
/// # Errors
///
/// Returns [`CvError`] when a fold exhausts its retries or a
/// checkpoint file is unusable.
///
/// # Panics
///
/// Panics when `ks` does not contain `reference_k`.
pub fn run_with(
    config: &EvalConfig,
    ks: &[usize],
    reference_k: usize,
    checkpoint: Option<&Path>,
) -> Result<Fig5Report, CvError> {
    assert!(
        ks.contains(&reference_k),
        "reference K={reference_k} must be part of the sweep"
    );
    let (dataset, _) = config.synth.generate().preprocess();
    let mut raw = Vec::new();
    for &k in ks {
        let mut cfg = config.clone();
        cfg.extractor = cfg.extractor.with_topics(k);
        let data = ExperimentData::build(&dataset, &cfg);
        let opts = CvOptions {
            checkpoint: sub_checkpoint(checkpoint, &format!("k{k}")),
            ..CvOptions::default()
        };
        let outcomes = run_cv_resumable(&data, &cfg, None, false, &opts)?;
        let auc = mean_std(&outcomes.iter().map(|o| o.auc).collect::<Vec<_>>()).0;
        let rv = mean_std(&outcomes.iter().map(|o| o.rmse_votes).collect::<Vec<_>>()).0;
        let rt = mean_std(&outcomes.iter().map(|o| o.rmse_time).collect::<Vec<_>>()).0;
        raw.push((k, auc, rv, rt));
    }
    let &(_, ref_auc, ref_rv, ref_rt) = raw
        .iter()
        .find(|&&(k, ..)| k == reference_k)
        .expect("reference in sweep");
    let points = raw
        .iter()
        .map(|&(k, auc, rv, rt)| Fig5Point {
            k,
            auc,
            rmse_votes: rv,
            rmse_time: rt,
            pct_change: (
                (auc - ref_auc) / ref_auc * 100.0,
                (ref_rv - rv) / ref_rv * 100.0,
                (ref_rt - rt) / ref_rt * 100.0,
            ),
        })
        .collect();
    Ok(Fig5Report {
        reference_k,
        points,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_display_includes_all_ks() {
        let report = Fig5Report {
            reference_k: 8,
            points: vec![
                Fig5Point {
                    k: 4,
                    auc: 0.8,
                    rmse_votes: 1.2,
                    rmse_time: 11.0,
                    pct_change: (-1.0, -2.0, 0.1),
                },
                Fig5Point {
                    k: 8,
                    auc: 0.81,
                    rmse_votes: 1.18,
                    rmse_time: 11.0,
                    pct_change: (0.0, 0.0, 0.0),
                },
            ],
        };
        let text = report.to_string();
        assert!(text.contains("K=8"));
        assert!(text.lines().count() >= 4);
    }

    #[test]
    #[should_panic(expected = "must be part of the sweep")]
    fn missing_reference_panics() {
        run(&EvalConfig::quick(), &[4], 8);
    }

    #[test]
    #[ignore = "minutes-long: trains models for several K values"]
    fn sweep_runs_on_quick_config() {
        let mut cfg = EvalConfig::quick();
        cfg.folds = 2;
        let report = run(&cfg, &[2, 4], 4);
        assert_eq!(report.points.len(), 2);
        assert_eq!(report.points[1].pct_change.0, 0.0);
    }
}
