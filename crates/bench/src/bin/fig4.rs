//! Regenerates **Figure 4**: CDFs of selected features (panels a–f),
//! printed as CSV series suitable for replotting.

use forumcast_bench::{finish, header, maybe_json, parse_args, root_span, status, FIG4};
use forumcast_eval::experiments::fig4;

fn main() {
    let (opts, session) = parse_args(&FIG4);
    let root = root_span("fig4");
    header("Figure 4 — feature CDFs", &opts);
    let (dataset, _) = opts.config.synth.generate().preprocess();
    let report = fig4::run(&dataset, &opts.config.extractor, 50, 2000);
    status!("{report}");

    status!("\nCSV series (label,value,fraction):");
    let dump = |series: &fig4::CdfSeries| {
        for (v, f) in &series.points {
            status!("{},{v:.6},{f:.3}", series.label);
        }
    };
    dump(&report.answers_provided);
    for s in report
        .response_time_by_activity
        .iter()
        .chain(&report.votes_by_activity)
        .chain(&report.topic_similarities)
        .chain(&report.question_lengths)
        .chain(&report.centralities)
    {
        dump(s);
    }
    maybe_json(&opts, &report);
    drop(root);
    finish(&session);
}
