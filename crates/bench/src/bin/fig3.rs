//! Regenerates **Figure 3**: net votes vs. response time for every
//! answered `(u, q)` pair — the paper finds *no correlation*.

use forumcast_bench::{finish, header, maybe_json, parse_args, root_span, status, FIG3};
use forumcast_eval::experiments::fig3;

fn main() {
    let (opts, session) = parse_args(&FIG3);
    let root = root_span("fig3");
    header("Figure 3 — votes vs. response time", &opts);
    let (dataset, _) = opts.config.synth.generate().preprocess();
    let report = fig3::run(&dataset, 1000);
    status!("{report}");
    status!(
        "scatter sample (hours, votes) — first 20 of {}:",
        report.scatter.len()
    );
    for (r, v) in report.scatter.iter().take(20) {
        status!("  {r:>10.3} {v:>6.1}");
    }
    maybe_json(&opts, &report);
    drop(root);
    finish(&session);
}
