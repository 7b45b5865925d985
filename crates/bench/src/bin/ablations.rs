//! Ablation bench: measures the design choices DESIGN.md calls out,
//! one line per ablation.
//!
//! * timing-noise model of the generator (log-normal vs. pure point
//!   process);
//! * the timing predictor's prediction formula (paper expectation vs.
//!   rare-event conditional vs. exact first-event) and isotonic
//!   calibration;
//! * constant vs. learned decay `ω` (the paper evaluated both);
//! * signed-log feature compression for our models;
//! * the Poisson baseline's feature scaling (raw, per the paper, vs.
//!   z-scored — stronger than the paper's).

use forumcast_bench::{finish, header, parse_args, root_span, status, ABLATIONS};
use forumcast_core::{DecayMode, PredictionMode, TimingConfig};
use forumcast_eval::experiments::run_cv;
use forumcast_eval::fold::mean_std;
use forumcast_eval::ExperimentData;

fn main() {
    let (opts, session) = parse_args(&ABLATIONS);
    let root = root_span("ablations");
    header("Ablations — design-choice deltas", &opts);
    let base_cfg = opts.config.clone();
    let (dataset, _) = base_cfg.synth.generate().preprocess();
    let data = ExperimentData::build(&dataset, &base_cfg);

    let run = |label: &str, cfg: &forumcast_eval::EvalConfig| {
        let outcomes = run_cv(&data, cfg, None, false);
        let auc = mean_std(&outcomes.iter().map(|o| o.auc).collect::<Vec<_>>()).0;
        let rv = mean_std(&outcomes.iter().map(|o| o.rmse_votes).collect::<Vec<_>>()).0;
        let rt = mean_std(&outcomes.iter().map(|o| o.rmse_time).collect::<Vec<_>>()).0;
        status!("{label:<34} AUC {auc:.3}  RMSE(v) {rv:.3}  RMSE(r) {rt:.3}");
    };

    run("full model (defaults)", &base_cfg);

    let mut cfg = base_cfg.clone();
    cfg.train.signed_log = false;
    run("- signed-log compression", &cfg);

    let mut cfg = base_cfg.clone();
    cfg.train.timing.calibrate = false;
    run("- isotonic calibration (timing)", &cfg);

    let mut cfg = base_cfg.clone();
    cfg.train.timing.prediction = PredictionMode::Conditional;
    run("timing: rare-event conditional", &cfg);

    let mut cfg = base_cfg.clone();
    cfg.train.timing = TimingConfig {
        decay: DecayMode::Constant(0.05),
        prediction: PredictionMode::PaperExpectation,
        ..base_cfg.train.timing.clone()
    };
    run("timing: const ω + paper formula", &cfg);

    let mut cfg = base_cfg.clone();
    cfg.train.timing.max_survival_weight = f64::INFINITY;
    run("timing: unclamped survival wts", &cfg);

    status!();
    status!("(generator ablation) timing noise = pure point process (paper's own model family):");
    let mut synth_pp = base_cfg.clone();
    synth_pp.synth.timing_noise = forumcast_synth::config::TimingNoise::PointProcess;
    let (ds_pp, _) = synth_pp.synth.generate().preprocess();
    let data_pp = ExperimentData::build(&ds_pp, &synth_pp);
    let outcomes = run_cv(&data_pp, &synth_pp, None, true);
    let rt = mean_std(&outcomes.iter().map(|o| o.rmse_time).collect::<Vec<_>>()).0;
    let rt_b = mean_std(
        &outcomes
            .iter()
            .map(|o| o.rmse_time_baseline)
            .collect::<Vec<_>>(),
    )
    .0;
    status!(
        "point-process noise: ours RMSE(r) {rt:.3} vs poisson {rt_b:.3} — with CV≈1 \
         delay noise, no regressor separates from the mean (see EXPERIMENTS.md)"
    );
    drop(root);
    finish(&session);
}
