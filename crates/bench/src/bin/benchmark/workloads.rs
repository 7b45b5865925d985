//! The four workloads. Each makes its inputs from the seed, sets up
//! what its operation needs, then runs one operation at a time through
//! the layers' public functions and checks every output.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use forumcast_core::{ResponsePredictor, TrainConfig, TrainingSet};
use forumcast_data::{Dataset, Thread, UserId};
use forumcast_eval::experiments::table1;
use forumcast_eval::fold::run_fold;
use forumcast_eval::split::stratified_folds;
use forumcast_eval::{EvalConfig, ExperimentData, FoldOutcome, PairRecord};
use forumcast_features::{ExtractorConfig, FeatureExtractor};
use forumcast_obs::{counter_add, span};
use forumcast_recsys::{Candidate, QuestionRouter, Recommendation, RouterConfig};
use forumcast_synth::SynthConfig;

use crate::stats::Digest;

/// Worker threads every layer may use: the whole load comes from this
/// one process, on at most two cores.
pub const THREADS: usize = 2;

/// Routing knobs of the serving workload (Section V): quality/time
/// tradeoff λ, eligibility threshold ε, and one answer per user per
/// 24-hour window.
const LAMBDA: f64 = 0.5;
const EPSILON: f64 = 0.3;
const CAPACITY: f64 = 1.0;
const LOAD_WINDOW_H: f64 = 24.0;

/// Share of threads (chronologically first) the serving model is
/// fitted on; the rest are the questions routed.
const ROUTE_HISTORY_FRAC: f64 = 0.7;

/// Seed of the non-answerer sampling in the serving training set — the
/// default of `forumcast train`.
const ROUTE_TRAIN_SEED: u64 = 0x7EA1;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    CvFast,
    BuildK64,
    BuildPaper,
    RouteMedium,
}

/// Input scale: `Full` is what the benchmark measures; `Smoke` is a
/// tiny forum that runs every code path in seconds, even unoptimised.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Size {
    Full,
    Smoke,
}

impl Workload {
    pub const ALL: [Workload; 4] = [
        Workload::CvFast,
        Workload::BuildK64,
        Workload::BuildPaper,
        Workload::RouteMedium,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::CvFast => "cv-fast",
            Workload::BuildK64 => "build-k64",
            Workload::BuildPaper => "build-paper",
            Workload::RouteMedium => "route-medium",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one operation of the workload is.
    pub fn op_name(self) -> &'static str {
        match self {
            Workload::CvFast => "fold",
            Workload::BuildK64 | Workload::BuildPaper => "build",
            Workload::RouteMedium => "request",
        }
    }

    /// Operations every measured run completes, however long they
    /// take, and the ones its `outputs()` are taken over: a full
    /// cross-validation for `cv-fast`, so each run reports a whole
    /// Table I; two builds, so a build's output is always checked
    /// against a repeat of itself; and a fixed number of route
    /// requests, so the routing quality does not depend on how many
    /// requests fit in the run.
    pub fn min_ops(self, size: Size) -> usize {
        match (self, size) {
            (Workload::CvFast, _) => 5,
            (Workload::BuildK64 | Workload::BuildPaper, _) => 2,
            (Workload::RouteMedium, Size::Full) => 2000,
            (Workload::RouteMedium, Size::Smoke) => 4,
        }
    }

    /// Operations of the traced phase. A fixed amount of work, so the
    /// per-layer totals of two commits compare directly.
    pub fn traced_ops(self) -> usize {
        match self {
            Workload::BuildK64 => 2,
            Workload::BuildPaper => 1,
            Workload::CvFast | Workload::RouteMedium => self.min_ops(Size::Full),
        }
    }

    /// Builds the workload's inputs from `seed` and everything its
    /// operation needs. This is the timed set-up.
    pub fn setup(self, seed: u64, size: Size) -> Box<dyn Job> {
        let medium = scaled(SynthConfig::medium(), size).with_seed(seed);
        match self {
            Workload::CvFast => Box::new(CvJob::new(medium, size)),
            Workload::BuildK64 => {
                let extractor = ExtractorConfig::fast().with_topics(64);
                Box::new(BuildJob::new(medium, scaled_lda(extractor, size)))
            }
            Workload::BuildPaper => {
                let synth = scaled(SynthConfig::paper_scale(), size).with_seed(seed);
                Box::new(BuildJob::new(
                    synth,
                    scaled_lda(ExtractorConfig::fast(), size),
                ))
            }
            Workload::RouteMedium => Box::new(RouteJob::new(medium, size)),
        }
    }
}

/// One set-up workload, ready to run operations.
pub trait Job {
    /// Digest of what set-up built; one seed must always give one
    /// digest.
    fn setup_digest(&self) -> u64;

    /// Runs operation `i` (called with 0, 1, 2, … in order) and checks
    /// its output.
    fn op(&mut self, i: usize) -> Result<(), String>;

    /// A digest of the outputs of the first `min_ops` operations, and
    /// the quality numbers they give, by name. Operations past those
    /// are checked but leave this unchanged.
    fn outputs(&self) -> (u64, Vec<(&'static str, f64)>);
}

fn scaled(full: SynthConfig, size: Size) -> SynthConfig {
    match size {
        Size::Full => full,
        Size::Smoke => SynthConfig {
            num_users: 80,
            num_questions: 160,
            candidate_pool: 30,
            ..SynthConfig::small()
        },
    }
}

fn scaled_lda(mut extractor: ExtractorConfig, size: Size) -> ExtractorConfig {
    if size == Size::Smoke {
        extractor.lda.iterations = 5;
        extractor.lda.infer_iterations = 5;
    }
    extractor
}

fn scaled_train(size: Size) -> TrainConfig {
    let mut train = TrainConfig::fast();
    if size == Size::Smoke {
        train.answer.epochs = 2;
        train.votes.epochs = 2;
        train.timing.epochs = 2;
    }
    train
}

/// Generates the synthetic forum and applies the paper's
/// preprocessing — the program only ever sees this dataset.
fn forum(synth: &SynthConfig) -> Dataset {
    let raw = forumcast_synth::generate_with_threads(synth, THREADS);
    let _span = span("data.preprocess");
    raw.preprocess().0
}

fn distinct_answerers(thread: &Thread) -> usize {
    let mut users: Vec<UserId> = thread.answers.iter().map(|a| a.author).collect();
    users.sort_unstable();
    users.dedup();
    users.len()
}

fn digest_records(d: &mut Digest, records: &[PairRecord]) {
    d.u64(records.len() as u64);
    for r in records {
        d.u64(u64::from(r.user.0));
        d.u64(r.target as u64);
        d.f64(r.votes);
        d.f64(r.response_time);
        r.x.iter().for_each(|&v| d.f64(v));
    }
}

/// `cv-fast`: one fold of 5-fold cross-validation per operation —
/// train the answer, vote and timing models and the three baselines on
/// four folds, score the fifth.
struct CvJob {
    config: EvalConfig,
    data: ExperimentData,
    pos_folds: Vec<usize>,
    neg_folds: Vec<usize>,
    /// First outcome of each fold; every later run of the fold must
    /// repeat it exactly.
    outcomes: Vec<Option<FoldOutcome>>,
}

impl CvJob {
    fn new(synth: SynthConfig, size: Size) -> Self {
        // The standard protocol (medium forum, 5 folds × 1 repeat,
        // bucketed history) with the fast extractor and fast training:
        // a standard-training fold takes ~20 s, too long for a 10-s run.
        let mut config = EvalConfig::standard();
        config.synth = synth;
        config.extractor = scaled_lda(ExtractorConfig::fast(), size);
        config.train = scaled_train(size);
        config.threads = THREADS;
        let dataset = forum(&config.synth);
        let data = ExperimentData::build(&dataset, &config);
        // Repeat 0's fold assignment, drawn exactly as
        // `run_cv_resumable` draws it, so the folds add up to the same
        // Table I.
        let mut rng = StdRng::seed_from_u64(config.seed ^ 0xC5);
        let groups =
            |records: &[PairRecord]| -> Vec<u32> { records.iter().map(|r| r.user.0).collect() };
        let pos_folds = stratified_folds(&groups(&data.positives), config.folds, &mut rng);
        let neg_folds = stratified_folds(&groups(&data.negatives), config.folds, &mut rng);
        CvJob {
            outcomes: vec![None; config.folds],
            config,
            data,
            pos_folds,
            neg_folds,
        }
    }

    fn complete(&self) -> Option<Vec<FoldOutcome>> {
        self.outcomes.iter().copied().collect()
    }
}

fn check_fold(o: &FoldOutcome) -> Result<(), String> {
    let all = [
        o.auc,
        o.auc_baseline,
        o.rmse_votes,
        o.rmse_votes_baseline,
        o.rmse_time,
        o.rmse_time_baseline,
    ];
    if all.iter().any(|v| !v.is_finite()) {
        return Err(format!("non-finite fold outcome {o:?}"));
    }
    if [o.auc, o.auc_baseline]
        .iter()
        .any(|a| *a <= 0.0 || *a >= 1.0)
    {
        return Err(format!("AUC outside (0, 1) in {o:?}"));
    }
    if all[2..].iter().any(|r| *r <= 0.0) {
        return Err(format!("non-positive RMSE in {o:?}"));
    }
    Ok(())
}

impl Job for CvJob {
    fn setup_digest(&self) -> u64 {
        let mut d = Digest::default();
        digest_records(&mut d, &self.data.positives);
        digest_records(&mut d, &self.data.negatives);
        for &f in self.pos_folds.iter().chain(&self.neg_folds) {
            d.u64(f as u64);
        }
        d.finish()
    }

    fn op(&mut self, i: usize) -> Result<(), String> {
        let fold = i % self.config.folds;
        let train_pairs = self
            .pos_folds
            .iter()
            .chain(&self.neg_folds)
            .filter(|&&f| f != fold)
            .count();
        counter_add("bench.train.pairs", train_pairs as u64);
        let outcome = {
            let _span = span("bench.fold");
            run_fold(
                &self.data,
                &self.config,
                &self.pos_folds,
                &self.neg_folds,
                fold,
                None,
                true,
                None,
            )
        };
        check_fold(&outcome)?;
        match self.outcomes[fold] {
            Some(first) if first != outcome => Err(format!(
                "fold {fold} gave {outcome:?}, its first run gave {first:?}"
            )),
            Some(_) => Ok(()),
            None => {
                self.outcomes[fold] = Some(outcome);
                Ok(())
            }
        }
    }

    fn outputs(&self) -> (u64, Vec<(&'static str, f64)>) {
        let Some(outcomes) = self.complete() else {
            return (0, Vec::new());
        };
        let mut d = Digest::default();
        for o in &outcomes {
            for v in [
                o.auc,
                o.auc_baseline,
                o.rmse_votes,
                o.rmse_votes_baseline,
                o.rmse_time,
                o.rmse_time_baseline,
            ] {
                d.f64(v);
            }
        }
        let t = table1::report_from(&outcomes);
        let notes = vec![
            ("a_uq_auc", t.rows[0].ours.0),
            ("a_uq_auc_baseline", t.rows[0].baseline.0),
            ("v_uq_rmse", t.rows[1].ours.0),
            ("v_uq_rmse_baseline", t.rows[1].baseline.0),
            ("r_uq_rmse", t.rows[2].ours.0),
            ("r_uq_rmse_baseline", t.rows[2].baseline.0),
        ];
        (d.finish(), notes)
    }
}

/// `build-k64` and `build-paper`: one `ExperimentData::build` per
/// operation — fit topics and graph features on each bucket's history
/// and assemble every positive and sampled negative pair.
struct BuildJob {
    config: EvalConfig,
    dataset: Dataset,
    /// Distinct answerers over the target threads: what the positives
    /// must number.
    expected_positives: usize,
    first: Option<(u64, usize)>,
}

impl BuildJob {
    fn new(synth: SynthConfig, extractor: ExtractorConfig) -> Self {
        let mut config = EvalConfig::standard();
        config.synth = synth;
        config.extractor = extractor;
        config.threads = THREADS;
        let dataset = forum(&config.synth);
        let threads = dataset.threads();
        let warmup = ((threads.len() as f64 * config.warmup_frac) as usize)
            .clamp(1, threads.len().saturating_sub(1));
        let expected_positives = threads[warmup..].iter().map(distinct_answerers).sum();
        BuildJob {
            config,
            dataset,
            expected_positives,
            first: None,
        }
    }
}

fn check_build(data: &ExperimentData, expected_positives: usize, dim: usize) -> Result<(), String> {
    let (pos, neg) = (data.positives.len(), data.negatives.len());
    if pos != expected_positives {
        return Err(format!(
            "{pos} positives, but the target threads have {expected_positives} distinct answerers"
        ));
    }
    if (neg as f64 - pos as f64).abs() > 0.05 * pos as f64 {
        return Err(format!("{neg} negatives for {pos} positives"));
    }
    for r in data.positives.iter().chain(&data.negatives) {
        if r.x.len() != dim || r.x.iter().any(|v| !v.is_finite()) {
            return Err(format!(
                "pair (u{}, target {}) has a bad feature vector of length {} (want {dim})",
                r.user.0,
                r.target,
                r.x.len()
            ));
        }
    }
    Ok(())
}

impl Job for BuildJob {
    fn setup_digest(&self) -> u64 {
        self.dataset.fnv1a_hash()
    }

    fn op(&mut self, _i: usize) -> Result<(), String> {
        let data = ExperimentData::build(&self.dataset, &self.config);
        let dim = 18 + 2 * self.config.extractor.lda.num_topics;
        check_build(&data, self.expected_positives, dim)?;
        let mut d = Digest::default();
        digest_records(&mut d, &data.positives);
        digest_records(&mut d, &data.negatives);
        let out = (d.finish(), data.positives.len() + data.negatives.len());
        match self.first {
            Some(first) if first != out => Err(format!(
                "build gave digest {:016x}, the first build gave {:016x}",
                out.0, first.0
            )),
            Some(_) => Ok(()),
            None => {
                self.first = Some(out);
                Ok(())
            }
        }
    }

    fn outputs(&self) -> (u64, Vec<(&'static str, f64)>) {
        let (digest, pairs) = self.first.unwrap_or_default();
        (digest, vec![("pairs", pairs as f64)])
    }
}

/// `route-medium`: one routing request per operation, from a single
/// client that waits for each reply (a closed loop). A request scores
/// every user with answer history for the question and solves the
/// §V routing LP over the eligible ones.
struct RouteJob {
    dataset: Dataset,
    horizon: f64,
    /// `dataset.threads()[cut..]` are the questions routed, cycled in
    /// arrival order.
    cut: usize,
    extractor: FeatureExtractor,
    predictor: ResponsePredictor,
    /// Users with at least one answer in the history: the candidates.
    pool: Vec<UserId>,
    router: QuestionRouter,
    /// Requests the quality numbers and the rankings digest cover.
    quality_requests: usize,
    scored: usize,
    eligible: usize,
    routed: usize,
    unrouted: usize,
    objective_sum: f64,
    rankings: Digest,
}

/// The training set `forumcast train` builds: every answer of the
/// history threads, plus one seeded non-answerer per answer as a
/// negative and survival sample.
fn route_training_set(
    dataset: &Dataset,
    history: &[Thread],
    extractor: &FeatureExtractor,
) -> TrainingSet {
    let mut rng = StdRng::seed_from_u64(ROUTE_TRAIN_SEED);
    let horizon = dataset.horizon();
    let mut ts = TrainingSet::new(extractor.dim());
    for thread in history {
        let d_q = extractor.question_topics(thread);
        let window = (horizon - thread.asked_at()).max(0.5);
        let mut answers = Vec::new();
        for a in &thread.answers {
            let x = extractor.features(a.author, thread, &d_q);
            ts.push_answer(x.clone(), true);
            ts.push_vote(x.clone(), a.votes as f64);
            answers.push((x, a.timestamp - thread.asked_at()));
        }
        let mut negatives = Vec::new();
        let mut guard = 0;
        while negatives.len() < thread.answers.len() && guard < 50 {
            guard += 1;
            let u = UserId(rng.gen_range(0..dataset.num_users()));
            if thread.answered_by(u) || u == thread.asker() {
                continue;
            }
            let x = extractor.features(u, thread, &d_q);
            ts.push_answer(x.clone(), false);
            negatives.push(x);
        }
        if !answers.is_empty() {
            ts.push_timing_thread(answers, negatives, window, dataset.num_users() as usize);
        }
    }
    ts
}

impl RouteJob {
    fn new(synth: SynthConfig, size: Size) -> Self {
        let dataset = forum(&synth);
        let cut = (dataset.num_questions() as f64 * ROUTE_HISTORY_FRAC) as usize;
        let history = &dataset.threads()[..cut];
        let extractor = FeatureExtractor::fit(
            history,
            dataset.num_users(),
            &scaled_lda(ExtractorConfig::fast(), size),
        );
        let ts = {
            let _span = span("features.assemble");
            route_training_set(&dataset, history, &extractor)
        };
        let (pairs, _, _) = ts.counts();
        counter_add("bench.features.pairs", pairs as u64);
        counter_add("bench.train.pairs", pairs as u64);
        let predictor = {
            let _span = span("core.train");
            ResponsePredictor::train(&ts, &scaled_train(size))
        };
        let ctx = extractor.context();
        let pool = (0..dataset.num_users())
            .map(UserId)
            .filter(|&u| ctx.answers_provided(u) > 0.0)
            .collect();
        RouteJob {
            horizon: dataset.horizon(),
            dataset,
            cut,
            extractor,
            predictor,
            pool,
            router: QuestionRouter::new(RouterConfig {
                epsilon: EPSILON,
                default_capacity: CAPACITY,
                load_window: LOAD_WINDOW_H,
            }),
            quality_requests: Workload::RouteMedium.min_ops(size),
            scored: 0,
            eligible: 0,
            routed: 0,
            unrouted: 0,
            objective_sum: 0.0,
            rankings: Digest::default(),
        }
    }

    /// Adds one request to the quality numbers and the rankings digest.
    fn tally(&mut self, scored: usize, eligible: usize, rec: Option<&Recommendation>) {
        self.scored += scored;
        self.eligible += eligible;
        let Some(rec) = rec else {
            self.unrouted += 1;
            self.rankings.u64(u64::MAX);
            return;
        };
        let ranking = rec.ranking();
        self.rankings.u64(ranking.len() as u64);
        ranking
            .iter()
            .for_each(|u| self.rankings.u64(u64::from(u.0)));
        self.routed += 1;
        self.objective_sum += rec.objective();
    }
}

impl Job for RouteJob {
    fn setup_digest(&self) -> u64 {
        // The fitted model, read back through its predictions for the
        // first routed question.
        let thread = &self.dataset.threads()[self.cut];
        let d_q = self.extractor.question_topics(thread);
        let mut d = Digest::default();
        for &u in self.pool.iter().take(64) {
            let (a, v, r) = self
                .predictor
                .predict(&self.extractor.features(u, thread, &d_q), 1.0);
            [a, v, r].into_iter().for_each(|x| d.f64(x));
        }
        d.finish()
    }

    fn op(&mut self, i: usize) -> Result<(), String> {
        let routed_questions = &self.dataset.threads()[self.cut..];
        let thread = &routed_questions[i % routed_questions.len()];
        // Each pass over the questions starts one horizon later, so the
        // previous pass's load records have expired.
        let now = thread.asked_at() + (i / routed_questions.len()) as f64 * self.horizon;
        let window = (self.horizon - thread.asked_at()).max(0.5);
        let users: Vec<UserId> = self
            .pool
            .iter()
            .copied()
            .filter(|&u| u != thread.asker())
            .collect();
        let d_q = {
            let _span = span("topics.question_topics");
            self.extractor.question_topics(thread)
        };
        let xs: Vec<Vec<f64>> = {
            let _span = span("features.assemble");
            users
                .iter()
                .map(|&u| self.extractor.features(u, thread, &d_q))
                .collect()
        };
        let candidates: Vec<Candidate> = {
            let _span = span("core.predict");
            users
                .iter()
                .zip(&xs)
                .map(|(&user, x)| {
                    let (answer_prob, votes, response_time) = self.predictor.predict(x, window);
                    Candidate {
                        user,
                        answer_prob,
                        votes,
                        response_time,
                    }
                })
                .collect()
        };
        let rec = {
            let _span = span("recsys.recommend");
            self.router.recommend(now, LAMBDA, &candidates)
        };
        let eligible = candidates
            .iter()
            .filter(|c| c.answer_prob >= EPSILON)
            .count();
        counter_add("bench.features.pairs", users.len() as u64);
        counter_add("bench.predict.calls", users.len() as u64);
        counter_add("bench.routes", 1);
        counter_add("bench.eligible", eligible as u64);

        for c in &candidates {
            let ok = (0.0..=1.0).contains(&c.answer_prob)
                && c.votes.is_finite()
                && c.response_time.is_finite()
                && c.response_time >= 0.0;
            if !ok {
                return Err(format!("bad prediction {c:?}"));
            }
        }
        match &rec {
            Some(rec) => {
                let p = rec.probabilities();
                let total: f64 = p.iter().sum();
                if p.iter().any(|x| !(0.0..=1.0).contains(x)) || total > 1.0 + 1e-9 {
                    return Err(format!("routing probabilities {p:?} sum to {total}"));
                }
                if let Some(&top) = rec.ranking().first() {
                    self.router.record_answer(now, top);
                }
            }
            None => counter_add("bench.unrouted", 1),
        }
        if i < self.quality_requests {
            self.tally(users.len(), eligible, rec.as_ref());
        }
        Ok(())
    }

    fn outputs(&self) -> (u64, Vec<(&'static str, f64)>) {
        let requests = (self.routed + self.unrouted).max(1) as f64;
        let notes = vec![
            ("route_unrouted_frac", self.unrouted as f64 / requests),
            (
                "route_objective",
                self.objective_sum / self.routed.max(1) as f64,
            ),
            ("candidates_per_route", self.scored as f64 / requests),
            (
                "eligible_frac",
                self.eligible as f64 / self.scored.max(1) as f64,
            ),
        ];
        (self.rankings.finish(), notes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every workload runs end to end at smoke size and its checks
    /// pass. A repeated set-up reproduces the same inputs, and
    /// operations past `min_ops` leave the outputs as they were, so a
    /// run's digest and quality numbers do not depend on its length.
    #[test]
    fn every_workload_runs_and_checks_at_smoke_size() {
        for w in Workload::ALL {
            let run = |ops: usize| {
                let mut job = w.setup(7, Size::Smoke);
                for i in 0..ops {
                    job.op(i)
                        .unwrap_or_else(|e| panic!("{}: op {i}: {e}", w.name()));
                }
                job
            };
            let n = w.min_ops(Size::Smoke);
            let (job, longer) = (run(n), run(n + 2));
            assert_eq!(job.setup_digest(), longer.setup_digest(), "{}", w.name());
            let (digest, notes) = job.outputs();
            assert_ne!(digest, 0, "{}", w.name());
            assert!(
                notes.iter().all(|(_, v)| v.is_finite()),
                "{}: {notes:?}",
                w.name()
            );
            assert_eq!(longer.outputs(), (digest, notes), "{}", w.name());
        }
    }

    /// The cross-validation workload's folds are the folds
    /// `run_cv_resumable` runs: the same Table I comes out.
    #[test]
    fn cv_folds_match_the_library_cross_validation() {
        let mut job = CvJob::new(scaled(SynthConfig::medium(), Size::Smoke), Size::Smoke);
        for i in 0..job.config.folds {
            job.op(i).expect("fold passes its checks");
        }
        let ours = job.complete().expect("every fold ran");
        let library = forumcast_eval::run_cv(&job.data, &job.config, None, true);
        assert_eq!(ours, library);
    }

    #[test]
    fn check_fold_rejects_out_of_range_outcomes() {
        let good = FoldOutcome {
            auc: 0.7,
            auc_baseline: 0.6,
            rmse_votes: 1.0,
            rmse_votes_baseline: 1.2,
            rmse_time: 9.0,
            rmse_time_baseline: 9.5,
        };
        assert!(check_fold(&good).is_ok());
        for bad in [
            FoldOutcome { auc: 1.0, ..good },
            FoldOutcome {
                rmse_time: 0.0,
                ..good
            },
            FoldOutcome {
                rmse_votes: f64::NAN,
                ..good
            },
        ] {
            assert!(check_fold(&bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("cv"), None);
    }
}
