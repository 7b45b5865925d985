//! Demonstrates the **Section V** question-recommendation system:
//! trains the three predictors, then routes a stream of new questions
//! through the LP of Equation (2), sweeping the quality/timing
//! tradeoff λ and showing the load constraints in action.

use forumcast_bench::{finish, header, parse_args, root_span, status};
use forumcast_core::{ResponsePredictor, TrainingRows};
use forumcast_data::UserId;
use forumcast_eval::ExperimentData;
use forumcast_recsys::{score_candidates, Candidate, QuestionRouter, RouterConfig};

fn main() {
    let opts = parse_args();
    let root = root_span("recsys");
    header("Section V — question routing demo", &opts);
    let cfg = &opts.config;
    let (dataset, _) = cfg.synth.generate().preprocess();
    let data = ExperimentData::build(&dataset, cfg);

    // Train on the earlier 80% of target questions.
    let cut = (data.num_targets as f64 * 0.8) as usize;
    let mut rows = TrainingRows::new(data.dim);
    for t in 0..cut {
        let (pos, neg) = data.target_records(t);
        for p in pos {
            rows.answered(t, p.x.clone(), p.votes, p.response_time);
        }
        for n in neg {
            rows.unanswered(t, n.x.clone());
        }
    }
    let ts = rows.finish(&data.windows, data.num_users);
    status!("training joint predictor on {cut} threads …");
    let model = ResponsePredictor::train(&ts, &cfg.train);

    // Route the remaining questions for several λ settings.
    for &lambda in &[0.0, 0.5, 2.0] {
        let mut router = QuestionRouter::new(RouterConfig {
            epsilon: 0.4,
            default_capacity: 1.0,
            load_window: 24.0,
        });
        let mut routed = 0usize;
        let mut infeasible = 0usize;
        let mut sum_votes = 0.0;
        let mut sum_time = 0.0;
        let mut now = 0.0;
        for t in cut..data.num_targets {
            now += 0.5; // questions arrive every half hour
            let (pos, neg) = data.target_records(t);
            let candidates = score_candidates(
                &model,
                data.windows[t],
                pos.iter().chain(neg).map(|r| (r.user, &r.x)),
            );
            match router.recommend(now, lambda, &candidates) {
                Some(rec) => {
                    routed += 1;
                    if let Some(top) = rec.ranking().first().copied() {
                        let c = candidates.iter().find(|c| c.user == top).expect("ranked");
                        sum_votes += c.votes;
                        sum_time += c.response_time;
                        router.record_answer(now, top);
                    }
                }
                None => infeasible += 1,
            }
        }
        let n = routed.max(1) as f64;
        status!(
            "λ = {lambda:>3.1}: routed {routed} questions ({infeasible} infeasible under load caps); \
             top pick averages: v̂ = {:.2}, r̂ = {:.2} h",
            sum_votes / n,
            sum_time / n
        );
    }
    status!();
    status!("shape check: larger λ should lower the average r̂ of the top pick");

    // Load-constraint illustration on one question.
    let mut router = QuestionRouter::new(RouterConfig::default());
    let demo: Vec<Candidate> = (0..3)
        .map(|i| Candidate {
            user: UserId(i),
            answer_prob: 0.9,
            votes: 3.0 - i as f64,
            response_time: 1.0 + i as f64,
        })
        .collect();
    let first = router.recommend(0.0, 0.0, &demo).expect("feasible");
    status!(
        "\nload demo: first recommendation ranks {:?}",
        first.ranking()
    );
    router.record_answer(0.1, first.ranking()[0]);
    let second = router.recommend(0.2, 0.0, &demo).expect("feasible");
    status!(
        "after u{} answers (cap 1/24h), next ranks {:?}",
        first.ranking()[0].0,
        second.ranking()
    );
    drop(root);
    finish(&opts);
}
