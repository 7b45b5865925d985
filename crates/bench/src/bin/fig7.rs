//! Regenerates **Figure 7**: RMSE with one feature *group* excluded,
//! as the history window grows (`F(q) = D_{25−i} … D_{25}`,
//! evaluation on days 25–30).

use forumcast_bench::{finish, header, maybe_json, parse_args, root_span, status};
use forumcast_eval::experiments::fig7;

fn main() {
    let opts = parse_args();
    let root = root_span("fig7");
    header("Figure 7 — feature groups × history length", &opts);
    let windows: Vec<usize> = if opts.scale == "quick" {
        vec![10, 24]
    } else {
        vec![5, 10, 15, 20, 24]
    };
    let report =
        fig7::run(&opts.config, &windows, 25, opts.resume.as_deref()).unwrap_or_else(|e| {
            eprintln!("fig7 failed: {e}");
            std::process::exit(1);
        });
    status!("{report}");
    for &w in &windows {
        status!(
            "most important at {w}d: votes → {:?}, timing → {:?}",
            report.most_important(w, false),
            report.most_important(w, true)
        );
    }
    maybe_json(&opts, &report);
    drop(root);
    finish(&opts);
}
