//! Runs the simulated **A/B test** of the Section-V recommender —
//! the paper's proposed future-work evaluation ("comparing the net
//! votes and response times observed in a group with the system in
//! use to one with it not", Section VI) — across a sweep of λ.

use forumcast_abtest::{run, AbTestConfig};
use forumcast_bench::{finish, header_text, parse_args, root_span, status, ABTEST};

fn main() {
    let (opts, session) = parse_args(&ABTEST);
    let root = root_span("abtest");
    let base =
        AbTestConfig::from_scale(opts.scale).expect("ABTEST takes AbTestConfig's scale words");
    // The header names the forum this binary runs: the A/B test's
    // own synth and extractor settings, not its scale word's
    // `EvalConfig`.
    let experiment = "Section VI — simulated A/B test of the recommender";
    status!(
        "{}",
        header_text(experiment, opts.scale, &base.synth, &base.extractor)
    );
    for &lambda in &[0.0, 0.5, 2.0] {
        let report = run(&base.clone().with_lambda(lambda));
        status!("{report}");
    }
    status!("shape check: higher λ should reduce the treatment arm's mean delay;");
    status!("λ = 0 should maximize its mean votes.");
    drop(root);
    finish(&session);
}
