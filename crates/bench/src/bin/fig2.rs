//! Regenerates **Figure 2**: the structure of the two SLN graphs
//! (`G_QA` and `G_D`) over the full dataset — average degrees (paper:
//! 2.6 and 3.7), disconnectedness, and the degree distribution behind
//! the visualization.

use forumcast_bench::{finish, header, parse_args, root_span, status, FIG2};
use forumcast_graph::{dense_graph, qa_graph, GraphStats};

fn main() {
    let (opts, session) = parse_args(&FIG2);
    let root = root_span("fig2");
    header("Figure 2 — SLN graph structure", &opts);
    let (dataset, report) = opts.config.synth.generate().preprocess();
    status!("preprocessing: {report}");
    status!("dataset: {}", dataset.stats());
    status!();

    let qa = qa_graph(dataset.num_users(), dataset.threads());
    let dense = dense_graph(dataset.num_users(), dataset.threads());
    for (name, g) in [("G_QA", &qa), ("G_D", &dense)] {
        let s = GraphStats::compute(g);
        status!("{name}:");
        status!("  nodes = {}, edges = {}", s.num_nodes, s.num_edges);
        status!(
            "  average degree = {:.2} (paper: 2.6 QA / 3.7 D), variance = {:.2}, max = {}",
            s.average_degree,
            s.degree_variance,
            s.max_degree
        );
        status!(
            "  components = {} (largest {}, isolated {}) → disconnected: {}",
            s.num_components,
            s.largest_component,
            s.num_isolated,
            s.is_disconnected()
        );
        // Degree histogram (log-spaced buckets) — the data behind the
        // ring-layout visualization.
        let mut buckets = [0usize; 8];
        for u in 0..s.num_nodes as u32 {
            let d = g.degree(u);
            let b = if d == 0 {
                0
            } else {
                (d.ilog2() as usize + 1).min(7)
            };
            buckets[b] += 1;
        }
        status!("  degree histogram [0, 1, 2-3, 4-7, 8-15, 16-31, 32-63, 64+]:");
        status!("    {buckets:?}");
        status!();
    }
    status!(
        "shape check: avg degree G_D > G_QA? {}",
        if dense.average_degree() > qa.average_degree() {
            "YES"
        } else {
            "NO"
        }
    );
    drop(root);
    finish(&session);
}
