//! Integration test: predictions → Section-V router, end to end.

use forumcast::eval::{EvalConfig, ExperimentData};
use forumcast::prelude::*;

#[test]
fn trained_predictions_route_questions() {
    let cfg = EvalConfig::quick().with_seed(1234);
    let (dataset, _) = cfg.synth.generate().preprocess();
    let data = ExperimentData::build(&dataset, &cfg);

    // Train on the first 80% of targets.
    let cut = data.num_targets * 4 / 5;
    let mut rows = TrainingRows::new(data.dim);
    for p in data.positives.iter().filter(|p| p.target < cut) {
        rows.answered(p.target, p.x.clone(), p.votes, p.response_time);
    }
    for n in data.negatives.iter().filter(|n| n.target < cut) {
        rows.unanswered(n.target, n.x.clone());
    }
    let ts = rows.finish(&data.windows, data.num_users);
    let model = ResponsePredictor::train(&ts, &TrainConfig::fast());

    let mut router = QuestionRouter::new(RouterConfig {
        epsilon: 0.3,
        default_capacity: 3.0,
        load_window: 24.0,
    });

    let mut routed = 0;
    let mut ranked_real_answerer_first = 0;
    for t in cut..data.num_targets {
        let (pos, neg) = data.target_records(t);
        let candidates = score_candidates(
            &model,
            data.windows[t],
            pos.iter().chain(neg).map(|r| (r.user, &r.x)),
        );
        if candidates.is_empty() {
            continue;
        }
        if let Some(rec) = router.recommend(t as f64 * 0.1, 0.5, &candidates) {
            routed += 1;
            // Distribution sanity.
            let total: f64 = rec.probabilities().iter().sum();
            assert!((total - 1.0).abs() < 1e-9);
            // Does the router tend to surface real answerers?
            if let Some(&top) = rec.ranking().first() {
                if pos.iter().any(|p| p.user == top) {
                    ranked_real_answerer_first += 1;
                }
            }
        }
    }
    assert!(routed > 10, "routed only {routed} questions");
    // Eligible sets mix real answerers with random negatives; the
    // trained â should put actual answerers on top far more than the
    // ~50% a coin flip would.
    let hit_rate = ranked_real_answerer_first as f64 / routed as f64;
    assert!(hit_rate > 0.55, "hit rate {hit_rate}");
}

#[test]
fn router_draw_eventually_covers_support() {
    let mut router = QuestionRouter::new(RouterConfig {
        epsilon: 0.0,
        default_capacity: 0.5,
        load_window: 24.0,
    });
    let candidates = [
        Candidate {
            user: UserId(0),
            answer_prob: 0.9,
            votes: 5.0,
            response_time: 1.0,
        },
        Candidate {
            user: UserId(1),
            answer_prob: 0.9,
            votes: 3.0,
            response_time: 1.0,
        },
        Candidate {
            user: UserId(2),
            answer_prob: 0.9,
            votes: 1.0,
            response_time: 1.0,
        },
    ];
    let rec = router.recommend(0.0, 0.0, &candidates).expect("feasible");
    // Capacity 0.5 forces a split across the two best users.
    let mut state = 0u32;
    let mut src = move || {
        state = state.wrapping_mul(1664525).wrapping_add(1013904223);
        (state >> 8) as f64 / (1u32 << 24) as f64
    };
    let mut seen = std::collections::HashSet::new();
    for _ in 0..200 {
        if let Some(u) = rec.draw(&mut src) {
            seen.insert(u);
        }
    }
    assert!(seen.contains(&UserId(0)) && seen.contains(&UserId(1)));
    assert!(!seen.contains(&UserId(2)), "zero-mass user drawn");
}
