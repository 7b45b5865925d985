//! Regenerates **Figure 6**: leave-one-feature-out importance for the
//! vote (`v̂`) and timing (`r̂`) tasks. The paper's headline: removing
//! `r_u` costs the timing task ~48% RMSE; removing `v_q` costs the
//! vote task ~8.6%; user features matter for timing, question features
//! for votes; social features matter for both.

use forumcast_bench::{finish, header, maybe_json, parse_args, root_span, status, FIG6};
use forumcast_eval::experiments::fig6;

fn main() {
    let (opts, session) = parse_args(&FIG6);
    let root = root_span("fig6");
    header("Figure 6 — leave-one-feature-out importance", &opts);
    let (dataset, _) = opts.config.synth.generate().preprocess();
    let data = forumcast_eval::ExperimentData::build(&dataset, &opts.config);
    let report = fig6::run(&data, &opts.config, opts.resume.as_deref()).unwrap_or_else(|e| {
        eprintln!("fig6 failed: {e}");
        std::process::exit(1);
    });
    status!("{report}");
    status!("top-5 for timing (r̂):");
    for (f, pct) in report.ranked(true).into_iter().take(5) {
        status!("  {:<8} {:+.2}%", f.symbol(), pct);
    }
    status!("top-5 for votes (v̂):");
    for (f, pct) in report.ranked(false).into_iter().take(5) {
        status!("  {:<8} {:+.2}%", f.symbol(), pct);
    }
    maybe_json(&opts, &report);
    drop(root);
    finish(&session);
}
