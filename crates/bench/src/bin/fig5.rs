//! Regenerates **Figure 5**: percent change of each task metric as
//! the number of LDA topics `K` varies (paper: virtually no effect on
//! `r̂`, small on `â`, larger on `v̂`; default K = 8).

use forumcast_bench::{finish, header, maybe_json, parse_args, root_span, status, FIG5};
use forumcast_eval::experiments::fig5;

fn main() {
    let (opts, session) = parse_args(&FIG5);
    let root = root_span("fig5");
    header("Figure 5 — topic-count sensitivity", &opts);
    let (ks, reference): (Vec<usize>, usize) = if opts.scale == "quick" {
        (vec![2, 4, 8], 4)
    } else {
        (vec![4, 8, 12, 15, 20], 8)
    };
    let report =
        fig5::run(&opts.config, &ks, reference, opts.resume.as_deref()).unwrap_or_else(|e| {
            eprintln!("fig5 failed: {e}");
            std::process::exit(1);
        });
    status!("{report}");
    // Shape check: r̂ should move least across K.
    let spread = |f: &dyn Fn(&fig5::Fig5Point) -> f64| -> f64 {
        let vals: Vec<f64> = report.points.iter().map(f).collect();
        vals.iter().cloned().fold(f64::MIN, f64::max)
            - vals.iter().cloned().fold(f64::MAX, f64::min)
    };
    let spread_r = spread(&|p: &fig5::Fig5Point| p.pct_change.2);
    let spread_v = spread(&|p: &fig5::Fig5Point| p.pct_change.1);
    status!("shape check: |Δr| spread {spread_r:.2}% vs |Δv| spread {spread_v:.2}% (paper: r least sensitive)");
    maybe_json(&opts, &report);
    drop(root);
    finish(&session);
}
