//! Quickstart: generate a forum, extract the paper's 20 features,
//! train the three predictors, and inspect predictions for one
//! question.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use forumcast::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn main() {
    // 1. A synthetic Stack-Overflow-like forum (30 simulated days),
    //    preprocessed exactly as in the paper's Section III-A.
    let raw = SynthConfig::small().with_seed(7).generate();
    let (dataset, report) = raw.preprocess();
    println!("preprocessing: {report}");
    println!("dataset: {}", dataset.stats());

    // 2. Fit the feature pipeline (LDA topics + SLN graphs + user
    //    aggregates) on the first 80% of threads as history.
    let split = dataset.num_questions() * 4 / 5;
    let history = &dataset.threads()[..split];
    let extractor = FeatureExtractor::fit(history, dataset.num_users(), &ExtractorConfig::fast());
    println!(
        "feature pipeline ready: dim = {} (18 + 2K, K = {})",
        extractor.dim(),
        extractor.topics().num_topics()
    );

    // 3. Build a training set over the history threads themselves:
    //    answers become positive samples for all three tasks, and one
    //    random non-answerer per answer is a negative + survival sample.
    let horizon = dataset.horizon();
    let ts = sample_training_set(
        history,
        &extractor,
        dataset.num_users(),
        horizon,
        |t| t.answers.len(),
        &mut StdRng::seed_from_u64(0x5EED),
    );
    let (na, nv, nt) = ts.counts();
    println!("training on {na} answer samples, {nv} vote samples, {nt} threads …");
    let model = ResponsePredictor::train(&ts, &TrainConfig::fast());

    // 4. Predict for a held-out question: its real answerer vs. a
    //    random bystander.
    let target = &dataset.threads()[split];
    let d_q = extractor.question_topics(target);
    let window = (horizon - target.asked_at()).max(0.5);
    let answerer = target.answers[0].author;
    let bystander = (0..dataset.num_users())
        .map(UserId)
        .find(|&u| !target.answered_by(u) && u != target.asker())
        .expect("some bystander");

    println!(
        "\nheld-out question {} (asked at {:.1} h):",
        target.id,
        target.asked_at()
    );
    for (name, u) in [("actual answerer", answerer), ("bystander", bystander)] {
        let x = extractor.features(u, target, &d_q);
        let (a, v, r) = model.predict(&x, window);
        println!("  {name:<16} {u}: â = {a:.3}, v̂ = {v:+.2} votes, r̂ = {r:.2} h");
    }
    let observed = &target.answers[0];
    println!(
        "  observed          {}: answered after {:.2} h with {} votes",
        answerer,
        observed.timestamp - target.asked_at(),
        observed.votes
    );
}
