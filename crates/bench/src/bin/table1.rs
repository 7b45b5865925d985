//! Regenerates **Table I**: AUC/RMSE of the three baselines vs. our
//! three models over stratified cross-validation.
//!
//! Paper reference values (Stack Overflow, 20K threads):
//! `a`: 0.699 → 0.860 (+23.0%); `v`: 1.554 → 1.213 (+21.9%);
//! `r`: 34.247 → 26.353 (+22.8%).

use forumcast_bench::{finish, header, maybe_json, parse_args, root_span, status};
use forumcast_eval::experiments::table1;

fn main() {
    let opts = parse_args();
    let root = root_span("table1");
    header("Table I — prediction performance vs. baselines", &opts);
    let report = table1::run_with(&opts.config, opts.resume.as_deref()).unwrap_or_else(|e| {
        eprintln!("table1 failed: {e}");
        std::process::exit(1);
    });
    status!("{report}");
    status!(
        "paper shape check: all three improvements positive? {}",
        if report.rows.iter().all(|r| r.improvement_pct > 0.0) {
            "YES"
        } else {
            "NO"
        }
    );
    maybe_json(&opts, &report);
    drop(root);
    finish(&opts);
}
