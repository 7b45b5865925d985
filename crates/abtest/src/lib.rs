//! Simulated A/B test of the Section-V question recommender — the
//! evaluation the paper leaves as future work:
//!
//! > "The main next step … is incorporating our recommendation system
//! > into an online forum platform to observe its impact; the quality
//! > of the approach could be evaluated through A/B testing, comparing
//! > the net votes and response times observed in a group with the
//! > system in use to one with it not." (Section VI)
//!
//! The harness runs the synthetic forum ([`forumcast_synth`]) through
//! a **warmup phase** (organic behavior), trains the three predictors
//! offline on the warmup data, then replays the remaining question
//! stream through two arms:
//!
//! * **control** — answerers chosen by the organic process;
//! * **treatment** — the router recommends answerers (Eq. (2) of the
//!   paper); a recommended user *accepts* with probability tied to
//!   their organic inclination (`1 − e^{−κ·weight}`), and the router
//!   draws again on decline, falling back to the organic answerer
//!   after `max_attempts`.
//!
//! Both arms realize outcomes (votes, delays) from the same latent
//! user profiles, so the measured lift is causal within the
//! simulation.
//!
//! # Example
//!
//! ```no_run
//! use forumcast_abtest::{AbTestConfig, run};
//!
//! let report = run(&AbTestConfig::quick());
//! println!("{report}");
//! assert!(report.treatment.questions > 0);
//! ```

use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use std::fmt;

use forumcast_core::{sample_training_set, ResponsePredictor, TrainConfig};
use forumcast_data::{Dataset, Thread, UserId};
use forumcast_features::{ExtractorConfig, FeatureExtractor};
use forumcast_recsys::{score_candidates, QuestionRouter, RouterConfig};
use forumcast_synth::{ForumSimulator, QuestionEvent, SynthConfig};

/// Configuration of the simulated A/B test.
#[derive(Debug, Clone, PartialEq)]
pub struct AbTestConfig {
    /// Forum generator settings.
    pub synth: SynthConfig,
    /// Questions simulated organically before the intervention (the
    /// predictors train on these).
    pub warmup_questions: usize,
    /// Questions replayed through both arms.
    pub eval_questions: usize,
    /// Feature-extraction settings for offline training.
    pub extractor: ExtractorConfig,
    /// Predictor training settings.
    pub train: TrainConfig,
    /// Quality/timing tradeoff `λ_{q′}` used by the router.
    pub lambda: f64,
    /// Router eligibility threshold ε and load settings.
    pub router: RouterConfig,
    /// Acceptance scale κ: recommended users accept with probability
    /// `1 − e^{−κ·organic weight}`.
    pub acceptance_kappa: f64,
    /// Redraws before falling back to the organic answerer.
    pub max_attempts: usize,
    /// RNG seed for training-side sampling.
    pub seed: u64,
}

impl AbTestConfig {
    /// The scale words [`AbTestConfig::from_scale`] resolves.
    pub const SCALES: &'static [&'static str] = &["quick", "standard"];

    /// The preset a scale word names, `None` for any other word.
    pub fn from_scale(scale: &str) -> Option<Self> {
        match scale {
            "quick" => Some(AbTestConfig::quick()),
            "standard" => Some(AbTestConfig::standard()),
            _ => None,
        }
    }

    /// Small test-scale configuration (seconds).
    pub fn quick() -> Self {
        AbTestConfig {
            synth: SynthConfig::small(),
            warmup_questions: 200,
            eval_questions: 100,
            extractor: ExtractorConfig::fast(),
            train: TrainConfig::fast(),
            lambda: 0.5,
            router: RouterConfig {
                epsilon: 0.3,
                default_capacity: 3.0,
                load_window: 24.0,
            },
            acceptance_kappa: 0.5,
            max_attempts: 4,
            seed: 0xAB7E57,
        }
    }

    /// Medium-scale configuration for the `abtest` bench binary.
    pub fn standard() -> Self {
        AbTestConfig {
            synth: SynthConfig::medium(),
            warmup_questions: 2_000,
            eval_questions: 1_000,
            extractor: ExtractorConfig::paper(),
            train: TrainConfig::default(),
            ..AbTestConfig::quick()
        }
    }

    /// Sets the router's quality/timing tradeoff λ.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }
}

/// Realized outcomes of one experimental arm.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct ArmStats {
    /// Questions that received at least one answer in this arm.
    pub questions: usize,
    /// Total realized answers.
    pub answers: usize,
    /// Mean net votes per answer.
    pub mean_votes: f64,
    /// Mean response delay per answer (hours).
    pub mean_delay: f64,
    /// Median response delay (hours).
    pub median_delay: f64,
}

impl ArmStats {
    fn from_outcomes(outcomes: &[(i32, f64)], questions: usize) -> ArmStats {
        if outcomes.is_empty() {
            return ArmStats {
                questions,
                ..ArmStats::default()
            };
        }
        let n = outcomes.len() as f64;
        let mut delays: Vec<f64> = outcomes.iter().map(|&(_, d)| d).collect();
        delays.sort_by(|a, b| a.total_cmp(b));
        ArmStats {
            questions,
            answers: outcomes.len(),
            mean_votes: outcomes.iter().map(|&(v, _)| v as f64).sum::<f64>() / n,
            mean_delay: delays.iter().sum::<f64>() / n,
            median_delay: delays[delays.len() / 2],
        }
    }
}

/// The A/B comparison.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AbTestReport {
    /// Control arm (organic answering).
    pub control: ArmStats,
    /// Treatment arm (router-recommended answering).
    pub treatment: ArmStats,
    /// Recommendations accepted / offered in the treatment arm.
    pub acceptance_rate: f64,
    /// Questions where the router had no feasible recommendation and
    /// fell back to organic.
    pub fallbacks: usize,
    /// The λ the router optimized with.
    pub lambda: f64,
}

impl AbTestReport {
    /// Vote lift of the treatment arm (absolute).
    pub fn vote_lift(&self) -> f64 {
        self.treatment.mean_votes - self.control.mean_votes
    }

    /// Delay reduction of the treatment arm in hours (positive =
    /// faster answers under the recommender).
    pub fn delay_reduction(&self) -> f64 {
        self.control.mean_delay - self.treatment.mean_delay
    }
}

impl fmt::Display for AbTestReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "A/B test (λ = {}):", self.lambda)?;
        writeln!(
            f,
            "{:<11} {:>6} {:>8} {:>10} {:>12} {:>12}",
            "arm", "qs", "answers", "votes", "delay(mean)", "delay(p50)"
        )?;
        for (name, arm) in [("control", &self.control), ("treatment", &self.treatment)] {
            writeln!(
                f,
                "{:<11} {:>6} {:>8} {:>10.3} {:>11.2}h {:>11.2}h",
                name, arm.questions, arm.answers, arm.mean_votes, arm.mean_delay, arm.median_delay
            )?;
        }
        writeln!(
            f,
            "lift: votes {:+.3}, delay {:+.2} h; acceptance {:.0}%, {} fallbacks",
            self.vote_lift(),
            self.delay_reduction(),
            self.acceptance_rate * 100.0,
            self.fallbacks
        )
    }
}

/// Runs the simulated A/B test.
///
/// # Panics
///
/// Panics when the warmup produces no answered threads to train on.
pub fn run(config: &AbTestConfig) -> AbTestReport {
    let mut sim = ForumSimulator::new(&config.synth);

    // --- Phase 1: organic warmup + offline training ---
    let warmup_threads = sim.run_organic(config.warmup_questions);
    let warmup =
        Dataset::new(config.synth.num_users, warmup_threads).expect("simulator invariants hold");
    let (warmup, _) = warmup.preprocess();
    assert!(
        warmup.num_questions() > 0,
        "warmup produced no answered threads"
    );
    let extractor = FeatureExtractor::fit(warmup.threads(), warmup.num_users(), &config.extractor);
    // Offline training: all answers as positives, two random
    // non-answerers per thread as negative/survival samples.
    let ts = sample_training_set(
        warmup.threads(),
        &extractor,
        warmup.num_users(),
        warmup.horizon(),
        |_| 2,
        &mut StdRng::seed_from_u64(config.seed),
    );
    let model = ResponsePredictor::train(&ts, &config.train);

    // --- Phase 2: replay the question stream through both arms ---
    let mut router = QuestionRouter::new(config.router.clone());
    let mut control_outcomes: Vec<(i32, f64)> = Vec::new();
    let mut treatment_outcomes: Vec<(i32, f64)> = Vec::new();
    let mut control_questions = 0;
    let mut treatment_questions = 0;
    let mut offered = 0usize;
    let mut accepted = 0usize;
    let mut fallbacks = 0usize;

    for _ in 0..config.eval_questions {
        let ev = sim.next_question();
        let organic = sim.organic_answerers(&ev);
        if organic.is_empty() {
            continue;
        }
        // Control arm: realize the organic answers.
        control_questions += 1;
        for &u in &organic {
            for post in sim.realize_answer(&ev, u) {
                control_outcomes.push((post.votes, post.timestamp - ev.time()));
            }
        }

        // Treatment arm: route the first answering slot; remaining
        // organic answerers (if any) still respond on their own.
        treatment_questions += 1;
        let chosen = recommend_answerer(
            &mut sim,
            &mut router,
            &extractor,
            &model,
            &ev,
            config,
            &mut offered,
            &mut accepted,
        );
        let treated: Vec<u32> = match chosen {
            Some(u) => std::iter::once(u)
                .chain(organic.iter().copied().filter(|&o| o != u).skip(1))
                .collect(),
            None => {
                fallbacks += 1;
                organic.clone()
            }
        };
        for &u in &treated {
            for post in sim.realize_answer(&ev, u) {
                treatment_outcomes.push((post.votes, post.timestamp - ev.time()));
            }
        }
        if let Some(u) = chosen {
            router.record_answer(ev.time(), UserId(u));
        }
    }

    AbTestReport {
        control: ArmStats::from_outcomes(&control_outcomes, control_questions),
        treatment: ArmStats::from_outcomes(&treatment_outcomes, treatment_questions),
        acceptance_rate: if offered > 0 {
            accepted as f64 / offered as f64
        } else {
            0.0
        },
        fallbacks,
        lambda: config.lambda,
    }
}

/// Routes one question in the treatment arm: scores every candidate,
/// asks the router, then walks its ranking until a candidate accepts.
#[allow(clippy::too_many_arguments)]
fn recommend_answerer(
    sim: &mut ForumSimulator,
    router: &mut QuestionRouter,
    extractor: &FeatureExtractor,
    model: &ResponsePredictor,
    ev: &QuestionEvent,
    config: &AbTestConfig,
    offered: &mut usize,
    accepted: &mut usize,
) -> Option<u32> {
    // Feature the candidates against the *warmup* history (offline
    // deployment: the model and features are trained once).
    let pseudo_thread = Thread::new(u32::MAX, ev.question.clone(), Vec::new());
    let d_q = extractor.question_topics(&pseudo_thread);
    let window = (sim.horizon() - ev.time()).max(0.5);
    let candidates = score_candidates(
        model,
        window,
        ev.candidates.iter().map(|&u| {
            let u = UserId(u);
            (u, extractor.features(u, &pseudo_thread, &d_q))
        }),
    );
    let rec = router.recommend(ev.time(), config.lambda, &candidates)?;
    for &user in rec.ranking().iter().take(config.max_attempts) {
        *offered += 1;
        if sim.accepts(ev, user.0, config.acceptance_kappa) {
            *accepted += 1;
            return Some(user.0);
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_abtest_produces_balanced_arms() {
        let report = run(&AbTestConfig::quick());
        assert!(report.control.questions > 20, "{report}");
        assert_eq!(report.control.questions, report.treatment.questions);
        assert!(report.control.answers > 0 && report.treatment.answers > 0);
        assert!(report.control.mean_delay > 0.0);
        assert!((0.0..=1.0).contains(&report.acceptance_rate));
    }

    #[test]
    fn quality_routing_lifts_votes_or_speed() {
        // λ = 0 optimizes votes alone; the treatment arm should not be
        // materially worse on votes than control.
        let report = run(&AbTestConfig::quick().with_lambda(0.0));
        assert!(
            report.vote_lift() > -0.3,
            "quality routing should not hurt votes: {report}"
        );
    }

    #[test]
    fn lambda_shifts_the_objective_toward_speed() {
        // More evaluation questions than `quick` so the comparison is
        // a routing signal rather than sampling noise.
        let mut cfg = AbTestConfig::quick();
        cfg.eval_questions = 300;
        let fast = run(&cfg.clone().with_lambda(3.0));
        let quality = run(&cfg.with_lambda(0.0));
        // Same simulation seed: the speed-optimizing router should
        // produce no slower typical answers than the quality-optimizing
        // one. Compare medians, not means — per-answer delays are
        // heavy-tailed (organic stragglers run to tens of hours), so a
        // few-hundred-sample mean is dominated by whichever arm drew
        // the worse outliers, not by the routing policy under test.
        assert!(
            fast.treatment.median_delay <= quality.treatment.median_delay + 0.5,
            "fast median {} vs quality median {}",
            fast.treatment.median_delay,
            quality.treatment.median_delay
        );
    }

    #[test]
    fn report_display_mentions_both_arms() {
        let report = run(&AbTestConfig::quick());
        let text = report.to_string();
        assert!(text.contains("control"));
        assert!(text.contains("treatment"));
        assert!(text.contains("lift"));
    }

    #[test]
    fn report_serializes() {
        let report = run(&AbTestConfig::quick());
        let json = serde_json::to_string(&report).unwrap();
        let back: AbTestReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back, report);
    }
}
