//! Question routing (the paper's Section V): use the trained
//! predictors to recommend answerers for incoming questions under a
//! quality/timing tradeoff `λ` and per-user load caps.
//!
//! ```text
//! cargo run --release --example question_routing
//! ```

use forumcast::prelude::*;

fn main() {
    // Reuse the evaluation plumbing to get a trained-ready dataset:
    // features for every (user, question) candidate pair.
    let cfg = EvalConfig::quick().with_seed(21);
    let (dataset, _) = cfg.synth.generate().preprocess();
    let data = ExperimentData::build(&dataset, &cfg);

    // Train the joint predictor on the first 80% of target threads.
    let cut = data.num_targets * 4 / 5;
    let mut rows = TrainingRows::new(data.dim);
    for p in data.positives.iter().filter(|p| p.target < cut) {
        rows.answered(p.target, p.x.clone(), p.votes, p.response_time);
    }
    for n in data.negatives.iter().filter(|n| n.target < cut) {
        rows.unanswered(n.target, n.x.clone());
    }
    let ts = rows.finish(&data.windows, data.num_users);
    println!("training joint predictor …");
    let model = ResponsePredictor::train(&ts, &TrainConfig::fast());

    // Route the remaining questions with two different λ values —
    // λ = 0 optimizes pure quality, larger λ trades votes for speed.
    for &lambda in &[0.0, 1.0] {
        let mut router = QuestionRouter::new(RouterConfig {
            epsilon: 0.4,
            default_capacity: 2.0,
            load_window: 24.0,
        });
        println!("\n── routing with λ = {lambda} ──");
        let mut shown = 0;
        for t in cut..data.num_targets {
            let (pos, neg) = data.target_records(t);
            let candidates = score_candidates(
                &model,
                data.windows[t],
                pos.iter().chain(neg).map(|r| (r.user, &r.x)),
            );
            let now = t as f64 * 0.5;
            if let Some(rec) = router.recommend(now, lambda, &candidates) {
                if let Some(&top) = rec.ranking().first() {
                    router.record_answer(now, top);
                    if shown < 5 {
                        let c = candidates.iter().find(|c| c.user == top).expect("ranked");
                        println!(
                            "  question #{t}: recommend {top} (â {:.2}, v̂ {:+.2}, r̂ {:.1} h; objective {:+.2})",
                            c.answer_prob,
                            c.votes,
                            c.response_time,
                            rec.objective()
                        );
                        shown += 1;
                    }
                }
            }
        }
    }
    println!("\nλ raised → the router favors faster (if lower-voted) answerers.");
}
