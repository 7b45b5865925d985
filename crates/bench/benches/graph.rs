//! Criterion bench: SLN graph construction and centrality
//! algorithms (exact vs. pivot-sampled Brandes).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};

use forumcast_graph::{
    betweenness, betweenness_sampled, bfs_distances, closeness, dense_graph, qa_graph, BfsScratch,
    GraphStats,
};
use forumcast_synth::SynthConfig;

fn bench_graph(c: &mut Criterion) {
    let ds = SynthConfig::medium().generate();
    let (ds, _) = ds.preprocess();
    let mut group = c.benchmark_group("graph");
    group.sample_size(10);

    group.bench_function("build_qa", |b| {
        b.iter(|| qa_graph(ds.num_users(), ds.threads()))
    });
    group.bench_function("build_dense", |b| {
        b.iter(|| dense_graph(ds.num_users(), ds.threads()))
    });

    let g = qa_graph(ds.num_users(), ds.threads());
    group.bench_function("closeness", |b| b.iter(|| closeness(&g)));
    // Multi-source BFS gains grow with n: the paper's 14,643 users.
    let (paper, _) = SynthConfig::paper_scale().generate().preprocess();
    let g_paper = qa_graph(paper.num_users(), paper.threads());
    group.bench_function("closeness_paper", |b| b.iter(|| closeness(&g_paper)));
    group.bench_function("betweenness_exact", |b| b.iter(|| betweenness(&g)));
    for &pivots in &[64usize, 256] {
        group.bench_with_input(
            BenchmarkId::new("betweenness_sampled", pivots),
            &pivots,
            |b, &p| b.iter(|| betweenness_sampled(&g, p, 7)),
        );
    }
    group.bench_function("stats", |b| b.iter(|| GraphStats::compute(&g)));

    // Scratch reuse vs per-call allocation: the one-shot bfs_distances
    // allocates fresh buffers per source; the pooled scratch is what
    // the centrality kernels run on.
    let sources: Vec<u32> = (0..g.num_nodes() as u32).step_by(97).collect();
    group.bench_function("bfs_alloc_per_source", |b| {
        b.iter(|| {
            for &s in &sources {
                let d = bfs_distances(&g, s);
                criterion::black_box(d);
            }
        })
    });
    group.bench_function("bfs_scratch_reuse", |b| {
        let mut scratch = BfsScratch::new();
        b.iter(|| {
            for &s in &sources {
                scratch.run(&g, s);
                criterion::black_box(scratch.visited().len());
            }
        })
    });
    group.finish();
}

criterion_group!(benches, bench_graph);
criterion_main!(benches);
