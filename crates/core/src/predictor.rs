//! The joint response predictor: `â`, `v̂`, `r̂` behind one API.

use rand::Rng;
use serde::{Deserialize, Serialize};

use forumcast_data::{Hours, Thread, UserId};
use forumcast_features::{FeatureExtractor, Normalizer};

use crate::answer::{AnswerConfig, AnswerPredictor};
use crate::timing::{ThreadObservation, TimingConfig, TimingPredictor};
use crate::votes::{VoteConfig, VotePredictor};

/// Labeled training data for all three tasks, in raw (unnormalized)
/// feature space, usually built with [`TrainingRows`].
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct TrainingSet {
    dim: usize,
    answer_xs: Vec<Vec<f64>>,
    answer_ys: Vec<bool>,
    vote_xs: Vec<Vec<f64>>,
    vote_ys: Vec<f64>,
    timing_threads: Vec<ThreadObservation>,
}

impl TrainingSet {
    /// Creates an empty training set for `dim`-dimensional features.
    ///
    /// # Panics
    ///
    /// Panics when `dim == 0`.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        TrainingSet {
            dim,
            ..TrainingSet::default()
        }
    }

    /// Feature dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Adds an answer-task sample (`a_{u,q}` label).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn push_answer(&mut self, x: Vec<f64>, answered: bool) {
        assert_eq!(x.len(), self.dim, "dimension mismatch");
        self.answer_xs.push(x);
        self.answer_ys.push(answered);
    }

    /// Adds a vote-task sample (`v_{u,q}` target).
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn push_vote(&mut self, x: Vec<f64>, votes: f64) {
        assert_eq!(x.len(), self.dim, "dimension mismatch");
        self.vote_xs.push(x);
        self.vote_ys.push(votes);
    }

    /// Adds one thread's timing observation: answerer features with
    /// delays, sampled non-answerer features, observation window, and
    /// population size.
    ///
    /// # Panics
    ///
    /// Panics on dimension mismatch.
    pub fn push_timing_thread(
        &mut self,
        answers: Vec<(Vec<f64>, f64)>,
        non_answerers: Vec<Vec<f64>>,
        window: f64,
        population: usize,
    ) {
        for (x, _) in &answers {
            assert_eq!(x.len(), self.dim, "dimension mismatch");
        }
        for x in &non_answerers {
            assert_eq!(x.len(), self.dim, "dimension mismatch");
        }
        self.timing_threads.push(ThreadObservation {
            answers,
            non_answerers,
            window,
            population,
        });
    }

    /// Number of answer / vote / timing samples.
    pub fn counts(&self) -> (usize, usize, usize) {
        (
            self.answer_xs.len(),
            self.vote_xs.len(),
            self.timing_threads.len(),
        )
    }
}

/// Builds a [`TrainingSet`] from `(user, question)` rows. Answer and
/// vote samples are pushed in call order; [`finish`](Self::finish)
/// then appends one timing thread per target with an answer, in
/// target order, grouping its answerers with its non-answerers as the
/// point-process likelihood does. A row of the wrong dimension panics.
#[derive(Debug, Clone)]
pub struct TrainingRows {
    ts: TrainingSet,
    threads: Vec<TargetRows>,
}

/// One target's answerers with their delays, and its non-answerers.
type TargetRows = (Vec<(Vec<f64>, f64)>, Vec<Vec<f64>>);

impl TrainingRows {
    /// Starts an empty set of `dim`-dimensional rows.
    ///
    /// # Panics
    ///
    /// Panics when `dim == 0`.
    pub fn new(dim: usize) -> Self {
        TrainingRows {
            ts: TrainingSet::new(dim),
            threads: Vec::new(),
        }
    }

    fn thread(&mut self, target: usize) -> &mut TargetRows {
        if self.threads.len() <= target {
            self.threads.resize_with(target + 1, Default::default);
        }
        &mut self.threads[target]
    }

    /// Adds a user who answered `target` with `votes` net votes,
    /// `delay` hours after it was asked.
    pub fn answered(&mut self, target: usize, x: Vec<f64>, votes: f64, delay: f64) {
        self.ts.push_answer(x.clone(), true);
        self.ts.push_vote(x.clone(), votes);
        self.thread(target).0.push((x, delay));
    }

    /// Adds a user who did not answer `target`.
    pub fn unanswered(&mut self, target: usize, x: Vec<f64>) {
        self.ts.push_answer(x.clone(), false);
        self.thread(target).1.push(x);
    }

    /// Appends the timing threads: `windows[t]` is target `t`'s
    /// observation window in hours, `population` is `|U|`.
    ///
    /// # Panics
    ///
    /// Panics when a target with an answer has no window.
    pub fn finish(mut self, windows: &[f64], population: usize) -> TrainingSet {
        for (t, (answers, non)) in self.threads.into_iter().enumerate() {
            if !answers.is_empty() {
                self.ts
                    .push_timing_thread(answers, non, windows[t], population);
            }
        }
        self.ts
    }
}

/// Samples a training set from observed threads. Thread `i` is target
/// `i`, with each answer an answered row and `negatives_for(thread)`
/// non-answerers: uniform draws from `0..num_users` that skip the
/// asker and the answerers, at most 50 draws per thread. A thread's
/// window runs to `horizon`, and is at least half an hour.
pub fn sample_training_set(
    threads: &[Thread],
    extractor: &FeatureExtractor,
    num_users: u32,
    horizon: Hours,
    negatives_for: impl Fn(&Thread) -> usize,
    rng: &mut impl Rng,
) -> TrainingSet {
    let mut rows = TrainingRows::new(extractor.dim());
    let mut windows = Vec::with_capacity(threads.len());
    for (target, thread) in threads.iter().enumerate() {
        let d_q = extractor.question_topics(thread);
        windows.push((horizon - thread.asked_at()).max(0.5));
        for a in &thread.answers {
            let x = extractor.features(a.author, thread, &d_q);
            let delay = a.timestamp - thread.asked_at();
            rows.answered(target, x, a.votes as f64, delay);
        }
        let (wanted, mut sampled, mut draws) = (negatives_for(thread), 0, 0);
        while sampled < wanted && draws < 50 {
            draws += 1;
            let u = UserId(rng.gen_range(0..num_users));
            if !thread.answered_by(u) && u != thread.asker() {
                rows.unanswered(target, extractor.features(u, thread, &d_q));
                sampled += 1;
            }
        }
    }
    rows.finish(&windows, num_users as usize)
}

/// Configuration for [`ResponsePredictor::train`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrainConfig {
    /// Answer-task (logistic regression) settings.
    pub answer: AnswerConfig,
    /// Vote-task (deep network) settings.
    pub votes: VoteConfig,
    /// Timing-task (point process) settings.
    pub timing: TimingConfig,
    /// Apply `sign(x)·ln(1+|x|)` to every feature slot before
    /// z-scoring. Most of the 20 features are heavy-tailed counts
    /// (answers, votes, lengths, centralities); compressing them keeps
    /// a handful of power users from dominating the linear model and
    /// the network inputs.
    pub signed_log: bool,
}

impl Default for TrainConfig {
    fn default() -> Self {
        TrainConfig {
            answer: AnswerConfig::default(),
            votes: VoteConfig::default(),
            timing: TimingConfig::default(),
            signed_log: true,
        }
    }
}

impl TrainConfig {
    /// Faster settings for tests and examples.
    pub fn fast() -> Self {
        TrainConfig {
            answer: AnswerConfig {
                epochs: 30,
                ..AnswerConfig::default()
            },
            votes: VoteConfig::fast(),
            timing: TimingConfig::fast(),
            signed_log: true,
        }
    }
}

/// The paper's full system: all three predictors sharing one
/// preprocessing pipeline (optional signed-log compression followed
/// by z-scoring) fitted on the training features.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ResponsePredictor {
    signed_log: bool,
    normalizer: Normalizer,
    answer: AnswerPredictor,
    votes: VotePredictor,
    timing: TimingPredictor,
}

/// `sign(x)·ln(1+|x|)` applied element-wise.
fn signed_log(x: &[f64]) -> Vec<f64> {
    x.iter()
        .map(|&v| v.signum() * (1.0 + v.abs()).ln())
        .collect()
}

/// Why [`ResponsePredictor::try_train`] refused a training set: a
/// task has no rows to learn from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NoTrainingData {
    /// The first task without rows: `"answer"`, `"vote"` or `"timing"`.
    pub task: &'static str,
}

impl std::fmt::Display for NoTrainingData {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "no training data for the {} task: the forum has no answered question to learn from",
            self.task
        )
    }
}

impl std::error::Error for NoTrainingData {}

impl TrainingSet {
    /// The first task with no rows, if any.
    fn missing_task(&self) -> Option<NoTrainingData> {
        let task = if self.answer_xs.is_empty() {
            "answer"
        } else if self.vote_xs.is_empty() {
            "vote"
        } else if self.timing_threads.is_empty() {
            "timing"
        } else {
            return None;
        };
        Some(NoTrainingData { task })
    }
}

impl ResponsePredictor {
    /// Trains all three models on `ts`.
    ///
    /// # Panics
    ///
    /// Panics when any task has no training data; callers that have
    /// not checked use [`try_train`](Self::try_train).
    pub fn train(ts: &TrainingSet, config: &TrainConfig) -> Self {
        Self::train_with_workers(ts, config, crate::timing::training_workers())
    }

    /// [`train`](Self::train), or the task with no training data.
    pub fn try_train(ts: &TrainingSet, config: &TrainConfig) -> Result<Self, NoTrainingData> {
        match ts.missing_task() {
            Some(missing) => Err(missing),
            None => Ok(Self::train(ts, config)),
        }
    }

    /// [`train`](Self::train) with the timing stage on an explicit
    /// number of training workers (see [`TimingPredictor::train`]).
    /// The model is bit-identical at any count.
    pub(crate) fn train_with_workers(
        ts: &TrainingSet,
        config: &TrainConfig,
        timing_workers: usize,
    ) -> Self {
        if let Some(missing) = ts.missing_task() {
            panic!("all three tasks need training data: {missing}");
        }
        let pre = |x: &[f64]| -> Vec<f64> {
            if config.signed_log {
                signed_log(x)
            } else {
                x.to_vec()
            }
        };
        // Normalizer fitted on the union of task inputs, each row
        // preprocessed as the fit reads it.
        let normalizer = Normalizer::fit(ts.answer_xs.iter().chain(&ts.vote_xs).map(|x| pre(x)));
        let tf = |x: &[f64]| normalizer.transform(&pre(x));

        let answer = {
            let answer_xs: Vec<Vec<f64>> = ts.answer_xs.iter().map(|x| tf(x)).collect();
            AnswerPredictor::train(&answer_xs, &ts.answer_ys, &config.answer)
        };
        let votes = {
            let vote_xs: Vec<Vec<f64>> = ts.vote_xs.iter().map(|x| tf(x)).collect();
            VotePredictor::train(&vote_xs, &ts.vote_ys, &config.votes)
        };
        let timing_threads: Vec<ThreadObservation> = ts
            .timing_threads
            .iter()
            .map(|t| ThreadObservation {
                answers: t.answers.iter().map(|(x, r)| (tf(x), *r)).collect(),
                non_answerers: t.non_answerers.iter().map(|x| tf(x)).collect(),
                window: t.window,
                population: t.population,
            })
            .collect();
        let timing =
            TimingPredictor::train_with_workers(&timing_threads, &config.timing, timing_workers);

        ResponsePredictor {
            signed_log: config.signed_log,
            normalizer,
            answer,
            votes,
            timing,
        }
    }

    /// Applies the fitted preprocessing pipeline to a raw feature
    /// vector.
    fn preprocess(&self, x: &[f64]) -> Vec<f64> {
        if self.signed_log {
            self.normalizer.transform(&signed_log(x))
        } else {
            self.normalizer.transform(x)
        }
    }

    /// `â_{u,q}` — probability the user answers (raw feature space).
    pub fn predict_answer(&self, x: &[f64]) -> f64 {
        self.answer.predict(&self.preprocess(x))
    }

    /// `v̂_{u,q}` — predicted net votes (raw feature space).
    pub fn predict_votes(&self, x: &[f64]) -> f64 {
        self.votes.predict(&self.preprocess(x))
    }

    /// `r̂_{u,q}` — predicted response time in hours, for a question
    /// with `window` observable hours (raw feature space).
    pub fn predict_response_time(&self, x: &[f64], window: f64) -> f64 {
        self.timing.predict(&self.preprocess(x), window)
    }

    /// All three predictions at once: `(â, v̂, r̂)`.
    pub fn predict(&self, x: &[f64], window: f64) -> (f64, f64, f64) {
        let z = self.preprocess(x);
        (
            self.answer.predict(&z),
            self.votes.predict(&z),
            self.timing.predict(&z, window),
        )
    }

    /// The individual predictors (normalized feature space).
    pub fn parts(&self) -> (&AnswerPredictor, &VotePredictor, &TimingPredictor) {
        (&self.answer, &self.votes, &self.timing)
    }

    /// The fitted feature normalizer.
    pub fn normalizer(&self) -> &Normalizer {
        &self.normalizer
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A 2-feature world: feature 0 drives answering & speed, feature
    /// 1 drives votes. Both raw features are on a large scale to
    /// exercise normalization.
    fn training_set() -> TrainingSet {
        let mut ts = TrainingSet::new(2);
        for i in 0..60 {
            let active = i % 2 == 0;
            let skilled = i % 3 == 0;
            let x = vec![
                if active { 500.0 } else { 100.0 },
                if skilled { 80.0 } else { 20.0 },
            ];
            ts.push_answer(x.clone(), active);
            ts.push_vote(x.clone(), if skilled { 5.0 } else { 0.0 });
            if active {
                ts.push_timing_thread(
                    vec![(x, 2.0 + (i % 4) as f64)],
                    vec![vec![100.0, 20.0]],
                    100.0,
                    30,
                );
            }
        }
        ts
    }

    #[test]
    fn joint_training_learns_all_three_tasks() {
        let ts = training_set();
        let model = ResponsePredictor::train(&ts, &TrainConfig::fast());
        // Answer: active archetype scores higher.
        assert!(model.predict_answer(&[500.0, 20.0]) > model.predict_answer(&[100.0, 20.0]));
        // Votes: skilled archetype scores higher.
        assert!(model.predict_votes(&[100.0, 80.0]) > model.predict_votes(&[100.0, 20.0]) + 1.0);
        // Timing: finite, positive, within the window.
        let r = model.predict_response_time(&[500.0, 20.0], 100.0);
        assert!(r > 0.0 && r < 100.0, "r̂ = {r}");
    }

    #[test]
    fn predict_returns_all_three() {
        let ts = training_set();
        let model = ResponsePredictor::train(&ts, &TrainConfig::fast());
        let (a, v, r) = model.predict(&[500.0, 80.0], 50.0);
        assert!((0.0..=1.0).contains(&a));
        assert!(v.is_finite());
        assert!(r > 0.0);
    }

    fn train_on(ts: &TrainingSet, workers: usize) -> ResponsePredictor {
        ResponsePredictor::train_with_workers(ts, &TrainConfig::fast(), workers)
    }

    #[test]
    fn two_timing_workers_train_a_bit_identical_model() {
        let ts = training_set();
        assert_eq!(
            serde_json::to_string(&train_on(&ts, 1)).unwrap(),
            serde_json::to_string(&train_on(&ts, 2)).unwrap()
        );
    }

    /// The logs agree but for the lockstep's per-lane clock counters,
    /// which only the two-worker schedule has; the work counts agree.
    #[test]
    fn two_timing_workers_emit_the_same_obs_log() {
        let ts = training_set();
        let log = |workers: usize| {
            let _armed = forumcast_obs::arm();
            train_on(&ts, workers);
            let mut log = forumcast_obs::drain().expect("armed");
            let lanes = ["ml.timing.mu_lane.", "ml.timing.omega_lane."];
            let (clocks, counters): (Vec<_>, Vec<_>) = std::mem::take(&mut log.counters)
                .into_iter()
                .partition(|(name, _)| lanes.iter().any(|lane| name.starts_with(lane)));
            log.counters = counters;
            let clocks: Vec<String> = clocks.into_iter().map(|(name, _)| name).collect();
            (log.canonical_lines(), log.counters, log.hists, clocks)
        };
        let mut serial = log(1);
        let calibrate = "span ml.timing.train/ml.timing.calibrate ";
        assert!(
            serial.0.iter().any(|l| l.starts_with(calibrate)),
            "{serial:?}"
        );
        for counter in [
            "ml.timing.steps",
            "ml.timing.rows",
            "ml.timing.param_updates",
        ] {
            assert!(serial.1.iter().any(|(name, n)| name == counter && *n > 0));
        }
        assert!(serial.3.is_empty(), "{:?}", serial.3);
        let lockstep = log(2);
        assert_eq!(lockstep.3.len(), 4, "{:?}", lockstep.3);
        serial.3 = lockstep.3.clone();
        assert_eq!(serial, lockstep);
    }

    fn json(ts: &TrainingSet) -> String {
        serde_json::to_string(ts).unwrap()
    }

    /// Rows of three targets, interleaved: answer and vote samples keep
    /// call order, timing threads come out in target order, and target
    /// 2 (non-answerers only) gets no timing thread.
    #[test]
    fn training_rows_equal_the_hand_written_pushes() {
        let x = |v: f64| vec![v, -v];
        let mut rows = TrainingRows::new(2);
        rows.answered(1, x(1.0), 4.0, 0.5);
        rows.unanswered(0, x(2.0));
        rows.unanswered(2, x(3.0));
        rows.answered(0, x(4.0), -1.0, 2.0);
        rows.unanswered(1, x(5.0));
        rows.answered(1, x(6.0), 0.0, 7.5);
        let built = rows.finish(&[10.0, 20.0, 30.0], 9);

        let mut ts = TrainingSet::new(2);
        ts.push_answer(x(1.0), true);
        ts.push_vote(x(1.0), 4.0);
        ts.push_answer(x(2.0), false);
        ts.push_answer(x(3.0), false);
        ts.push_answer(x(4.0), true);
        ts.push_vote(x(4.0), -1.0);
        ts.push_answer(x(5.0), false);
        ts.push_answer(x(6.0), true);
        ts.push_vote(x(6.0), 0.0);
        ts.push_timing_thread(vec![(x(4.0), 2.0)], vec![x(2.0)], 10.0, 9);
        ts.push_timing_thread(vec![(x(1.0), 0.5), (x(6.0), 7.5)], vec![x(5.0)], 20.0, 9);
        assert_eq!(built.counts(), (6, 3, 2));
        assert_eq!(json(&built), json(&ts));
    }

    #[test]
    fn training_rows_without_an_answer_have_no_timing_thread() {
        let mut rows = TrainingRows::new(1);
        rows.unanswered(3, vec![1.0]);
        let mut ts = TrainingSet::new(1);
        ts.push_answer(vec![1.0], false);
        // No target has an answer, so no window is read.
        assert_eq!(json(&rows.finish(&[], 5)), json(&ts));
    }

    #[test]
    fn empty_training_rows_finish_empty() {
        let built = TrainingRows::new(3).finish(&[], 5);
        assert_eq!(built.counts(), (0, 0, 0));
        assert_eq!(json(&built), json(&TrainingSet::new(3)));
    }

    #[test]
    fn counts_reflect_pushes() {
        let ts = training_set();
        let (a, v, t) = ts.counts();
        assert_eq!(a, 60);
        assert_eq!(v, 60);
        assert_eq!(t, 30);
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn wrong_dimension_push_panics() {
        TrainingSet::new(2).push_answer(vec![1.0], true);
    }

    #[test]
    #[should_panic(expected = "all three tasks")]
    fn missing_task_data_panics() {
        let mut ts = TrainingSet::new(1);
        ts.push_answer(vec![1.0], true);
        ResponsePredictor::train(&ts, &TrainConfig::fast());
    }

    #[test]
    fn try_train_names_the_task_without_rows() {
        let mut ts = TrainingSet::new(1);
        let missing =
            |ts: &TrainingSet| ResponsePredictor::try_train(ts, &TrainConfig::fast()).err();
        assert_eq!(missing(&ts), Some(NoTrainingData { task: "answer" }));
        ts.push_answer(vec![1.0], true);
        assert_eq!(missing(&ts), Some(NoTrainingData { task: "vote" }));
        ts.push_vote(vec![1.0], 2.0);
        assert_eq!(missing(&ts), Some(NoTrainingData { task: "timing" }));
        let message = missing(&ts).unwrap().to_string();
        assert!(message.contains("timing task"), "{message}");
        assert!(ResponsePredictor::try_train(&training_set(), &TrainConfig::fast()).is_ok());
    }

    #[test]
    fn serde_roundtrip() {
        let ts = training_set();
        let model = ResponsePredictor::train(&ts, &TrainConfig::fast());
        let json = serde_json::to_string(&model).unwrap();
        let back: ResponsePredictor = serde_json::from_str(&json).unwrap();
        assert_eq!(
            back.predict_votes(&[100.0, 80.0]),
            model.predict_votes(&[100.0, 80.0])
        );
    }
}
