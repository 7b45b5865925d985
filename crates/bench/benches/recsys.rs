//! Criterion bench: the routing LP's greedy exact solver and the
//! stateful router.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use forumcast_data::UserId;
use forumcast_recsys::{solve_routing, Candidate, QuestionRouter, RouterConfig, RoutingProblem};

fn random_problem(n: usize, seed: u64) -> RoutingProblem {
    let mut rng = StdRng::seed_from_u64(seed);
    RoutingProblem::new(
        (0..n).map(|_| rng.gen_range(-2.0..5.0)).collect(),
        (0..n).map(|_| rng.gen_range(0.05..0.8)).collect(),
    )
}

fn bench_recsys(c: &mut Criterion) {
    let mut group = c.benchmark_group("recsys");
    for &n in &[10usize, 100, 1000] {
        let p = random_problem(n, n as u64);
        group.bench_with_input(BenchmarkId::new("greedy", n), &p, |b, p| {
            b.iter(|| solve_routing(p))
        });
    }

    let candidates: Vec<Candidate> = (0..500)
        .map(|i| Candidate {
            user: UserId(i),
            answer_prob: 0.3 + (i % 7) as f64 / 10.0,
            votes: (i % 11) as f64 - 3.0,
            response_time: 0.5 + (i % 5) as f64,
        })
        .collect();
    group.bench_function("router_recommend_500", |b| {
        let mut router = QuestionRouter::new(RouterConfig::default());
        b.iter(|| router.recommend(1.0, 0.5, &candidates))
    });
    group.finish();
}

criterion_group!(benches, bench_recsys);
criterion_main!(benches);
