//! Per-user and per-pair aggregates over a history partition `F(q)`.

use crate::topics::PostTopics;
use forumcast_data::{Post, Thread, UserId};
use forumcast_graph::{
    betweenness, betweenness_sampled, closeness, dense_graph_counted, qa_graph,
    resource_allocation, Graph,
};

/// How betweenness centrality is computed for the SLN graphs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BetweennessMode {
    /// Exact Brandes — O(V·E), fine up to a few thousand users.
    Exact,
    /// Pivot-sampled Brandes with the given pivot count and seed —
    /// needed at the paper's 14K-user scale.
    Sampled {
        /// Number of BFS pivots.
        pivots: usize,
        /// RNG seed for pivot selection.
        seed: u64,
    },
}

/// Everything the 20 features need, precomputed once per history
/// partition: user aggregates (features i–v), SLN graphs and
/// centralities (xv–xx), thread co-occurrence (xiv), and the per-user
/// answer history with topic distributions (xi, xii).
#[derive(Debug, Clone)]
pub struct FeatureContext {
    num_users: u32,
    num_topics: usize,
    // --- user features ---
    answers_provided: Vec<f64>,
    questions_asked: Vec<f64>,
    net_answer_votes: Vec<f64>,
    median_response_time: Vec<f64>,
    /// `d_u` per user, flat `N × K`.
    user_topics: Vec<f64>,
    /// Topics *discussed* (asked + answered) per user, flat `N × K` —
    /// used by feature (xiii), whose definition covers all of a user's
    /// discussion activity.
    discussed_topics: Vec<f64>,
    // --- social ---
    qa: Graph,
    dense: Graph,
    closeness_qa: Vec<f64>,
    betweenness_qa: Vec<f64>,
    closeness_dense: Vec<f64>,
    betweenness_dense: Vec<f64>,
    /// `h_{u,v}` per adjacency entry of `dense` (the same pairs), at
    /// [`Graph::edge_index`].
    cooccurrence: Vec<u32>,
    // --- per-user answer history, CSR ---
    /// `answered[answered_offsets[u]..answered_offsets[u + 1]]` is
    /// user `u`'s answered history questions, in history order.
    answered_offsets: Vec<u32>,
    /// `(history question index, votes)` of each answered question.
    answered: Vec<(u32, i32)>,
    /// Topic distribution of each history question, flat `H × K`,
    /// indexed as in the `history` slice passed to
    /// [`FeatureContext::build`].
    hist_question_topics: Vec<f64>,
}

impl FeatureContext {
    /// Builds the context over `history` threads, using `topics` for
    /// post topic distributions.
    ///
    /// # Panics
    ///
    /// Panics when a post references a user `>= num_users`.
    pub fn build(
        history: &[Thread],
        num_users: u32,
        topics: &PostTopics,
        betweenness_mode: BetweennessMode,
    ) -> Self {
        let mut context = FeatureContext::aggregate(history, num_users, topics);
        context.add_graphs(history, betweenness_mode);
        context
    }

    /// Every aggregate that reads `topics` (and the other per-user
    /// ones), with empty graphs and centralities: only
    /// [`add_graphs`](Self::add_graphs) makes it a usable context. That
    /// step needs no topics, so a caller can free them in between.
    ///
    /// # Panics
    ///
    /// Panics when a post references a user `>= num_users`.
    pub(crate) fn aggregate(history: &[Thread], num_users: u32, topics: &PostTopics) -> Self {
        let n = num_users as usize;
        let k = topics.num_topics();
        let uniform = vec![1.0 / k as f64; k];
        let mut answers_provided = vec![0.0; n];
        let mut questions_asked = vec![0.0; n];
        let mut net_answer_votes = vec![0.0; n];
        let mut response_times: Vec<Vec<f64>> = vec![Vec::new(); n];
        // Per-user sums of post distributions, in post order, and how
        // many posts each sum holds: the mean is taken once, after.
        let mut user_topics = vec![0.0; n * k];
        let mut user_posts = vec![0usize; n];
        let mut discussed_topics = vec![0.0; n * k];
        let mut discussed_posts = vec![0usize; n];
        let mut answered_offsets = vec![0u32; n + 1];
        let mut hist_question_topics = Vec::with_capacity(history.len() * k);

        for t in history {
            let asker = t.asker().index();
            assert!(asker < n, "asker out of range");
            questions_asked[asker] += 1.0;
            let d_q = topics.question(t.id).unwrap_or(&uniform);
            add_row(&mut discussed_topics, &mut discussed_posts, asker, d_q);
            hist_question_topics.extend_from_slice(d_q);

            for a in &t.answers {
                let u = a.author.index();
                assert!(u < n, "answerer out of range");
                answers_provided[u] += 1.0;
                net_answer_votes[u] += a.votes as f64;
                response_times[u].push(a.timestamp - t.asked_at());
                let d_a = topics.answer(t.id, a.author).unwrap_or(&uniform);
                add_row(&mut discussed_topics, &mut discussed_posts, u, d_a);
                add_row(&mut user_topics, &mut user_posts, u, d_a);
            }
            for a in first_answers(t) {
                answered_offsets[a.author.index() + 1] += 1;
            }
        }

        let median_response_time = response_times
            .iter()
            .map(|v| forumcast_ml_median(v))
            .collect();
        drop(response_times);
        to_means(&mut user_topics, &user_posts, &uniform);
        to_means(&mut discussed_topics, &discussed_posts, &uniform);

        // Each user's answered questions, in history order.
        for u in 0..n {
            answered_offsets[u + 1] += answered_offsets[u];
        }
        let mut answered = vec![(0, 0); answered_offsets[n] as usize];
        let mut next = answered_offsets.clone();
        for (qi, t) in history.iter().enumerate() {
            for a in first_answers(t) {
                let at = &mut next[a.author.index()];
                answered[*at as usize] = (qi as u32, a.votes);
                *at += 1;
            }
        }

        FeatureContext {
            num_users,
            num_topics: k,
            answers_provided,
            questions_asked,
            net_answer_votes,
            median_response_time,
            user_topics,
            discussed_topics,
            qa: Graph::new(0),
            dense: Graph::new(0),
            closeness_qa: Vec::new(),
            betweenness_qa: Vec::new(),
            closeness_dense: Vec::new(),
            betweenness_dense: Vec::new(),
            cooccurrence: Vec::new(),
            answered_offsets,
            answered,
            hist_question_topics,
        }
    }

    /// Builds the SLN graphs of `history`, their centralities and the
    /// co-occurrence counts, completing an
    /// [`aggregate`](Self::aggregate)d context.
    pub(crate) fn add_graphs(&mut self, history: &[Thread], betweenness_mode: BetweennessMode) {
        let qa = qa_graph(self.num_users, history);
        let (dense, cooccurrence) = dense_graph_counted(self.num_users, history);
        let (betweenness_qa, betweenness_dense) = match betweenness_mode {
            BetweennessMode::Exact => (betweenness(&qa), betweenness(&dense)),
            BetweennessMode::Sampled { pivots, seed } => (
                betweenness_sampled(&qa, pivots, seed),
                betweenness_sampled(&dense, pivots, seed ^ 0x9E3779B9),
            ),
        };
        self.closeness_qa = closeness(&qa);
        self.closeness_dense = closeness(&dense);
        self.betweenness_qa = betweenness_qa;
        self.betweenness_dense = betweenness_dense;
        self.qa = qa;
        self.dense = dense;
        self.cooccurrence = cooccurrence;
    }

    /// Number of users.
    pub fn num_users(&self) -> u32 {
        self.num_users
    }

    /// Number of topics `K`.
    pub fn num_topics(&self) -> usize {
        self.num_topics
    }

    /// (i) `a_u`.
    pub fn answers_provided(&self, u: UserId) -> f64 {
        self.answers_provided[u.index()]
    }

    /// (ii) `o_u = a_u / (1 + questions asked)`.
    pub fn answer_ratio(&self, u: UserId) -> f64 {
        self.answers_provided[u.index()] / (1.0 + self.questions_asked[u.index()])
    }

    /// (iii) `v_u`.
    pub fn net_answer_votes(&self, u: UserId) -> f64 {
        self.net_answer_votes[u.index()]
    }

    /// (iv) `r_u` (0 when the user never answered).
    pub fn median_response_time(&self, u: UserId) -> f64 {
        self.median_response_time[u.index()]
    }

    /// (v) `d_u` (uniform when the user never answered).
    pub fn user_topics(&self, u: UserId) -> &[f64] {
        self.row(&self.user_topics, u.index())
    }

    /// Topics discussed by `u` across questions *and* answers —
    /// the distribution feature (xiii) compares between answerer and
    /// asker (uniform when the user never posted).
    pub fn discussed_topics(&self, u: UserId) -> &[f64] {
        self.row(&self.discussed_topics, u.index())
    }

    /// (xiv) `h_{u,v}` — threads both users participated in.
    pub fn cooccurrence(&self, u: UserId, v: UserId) -> f64 {
        self.dense
            .edge_index(u.0, v.0)
            .map_or(0.0, |i| f64::from(self.cooccurrence[i]))
    }

    /// (xv) `l^QA_u`.
    pub fn closeness_qa(&self, u: UserId) -> f64 {
        self.closeness_qa[u.index()]
    }

    /// (xvi) `b^QA_u`.
    pub fn betweenness_qa(&self, u: UserId) -> f64 {
        self.betweenness_qa[u.index()]
    }

    /// (xvii) `Re^QA_{u,v}`.
    pub fn resource_allocation_qa(&self, u: UserId, v: UserId) -> f64 {
        resource_allocation(&self.qa, u.0, v.0)
    }

    /// (xviii) `l^D_u`.
    pub fn closeness_dense(&self, u: UserId) -> f64 {
        self.closeness_dense[u.index()]
    }

    /// (xix) `b^D_u`.
    pub fn betweenness_dense(&self, u: UserId) -> f64 {
        self.betweenness_dense[u.index()]
    }

    /// (xx) `Re^D_{u,v}`.
    pub fn resource_allocation_dense(&self, u: UserId, v: UserId) -> f64 {
        resource_allocation(&self.dense, u.0, v.0)
    }

    /// The question–answer graph `G_QA`.
    pub fn qa_graph(&self) -> &Graph {
        &self.qa
    }

    /// The denser graph `G_D`.
    pub fn dense_graph(&self) -> &Graph {
        &self.dense
    }

    /// (xi)/(xii): iterates over `u`'s answered history questions as
    /// `(topic distribution, votes received)` pairs.
    pub fn answer_history(&self, u: UserId) -> impl Iterator<Item = (&[f64], i32)> {
        let (start, end) = (
            self.answered_offsets[u.index()],
            self.answered_offsets[u.index() + 1],
        );
        self.answered[start as usize..end as usize]
            .iter()
            .map(|&(qi, votes)| (self.row(&self.hist_question_topics, qi as usize), votes))
    }

    /// Row `i` of a flat `K`-strided table.
    fn row<'a>(&self, table: &'a [f64], i: usize) -> &'a [f64] {
        &table[i * self.num_topics..(i + 1) * self.num_topics]
    }
}

/// Adds the distribution `d` to user `u`'s row of the flat `K`-strided
/// `sums` and counts it.
fn add_row(sums: &mut [f64], posts: &mut [usize], u: usize, d: &[f64]) {
    let k = d.len();
    for (s, &x) in sums[u * k..(u + 1) * k].iter_mut().zip(d) {
        *s += x;
    }
    posts[u] += 1;
}

/// Turns each row of summed distributions into their mean, the same
/// bits [`forumcast_topics::mean_distribution`] gives for the summed
/// list; a row of no posts becomes `uniform`.
fn to_means(sums: &mut [f64], posts: &[usize], uniform: &[f64]) {
    for (row, &count) in sums.chunks_exact_mut(uniform.len()).zip(posts) {
        if count == 0 {
            row.copy_from_slice(uniform);
        } else {
            let n = count as f64;
            for m in row {
                *m /= n;
            }
        }
    }
}

/// Each answerer of `t` once, with their first answer in `t`.
fn first_answers(t: &Thread) -> impl Iterator<Item = &Post> {
    t.answers
        .iter()
        .enumerate()
        .filter(|&(i, a)| t.answers[..i].iter().all(|b| b.author != a.author))
        .map(|(_, a)| a)
}

/// Median without pulling the ml crate into the dependency graph.
fn forumcast_ml_median(v: &[f64]) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(|a, b| a.total_cmp(b));
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use forumcast_data::{Post, PostBody, QuestionId, Thread};
    use forumcast_topics::{mean_distribution, LdaConfig};

    fn post(u: u32, t: f64, v: i32, text: &str) -> Post {
        Post::new(UserId(u), t, v, PostBody::words(text))
    }

    /// u0 asks q0 (answered by u1 at +2h with 3 votes, u2 at +4h, 1v);
    /// u1 asks q1 (answered by u2 at +1h, 5v). u3 inactive.
    fn tiny_history() -> Vec<Thread> {
        vec![
            Thread::new(
                0,
                post(0, 0.0, 2, "alpha alpha beta"),
                vec![
                    post(1, 2.0, 3, "alpha beta beta"),
                    post(2, 4.0, 1, "gamma gamma"),
                ],
            ),
            Thread::new(
                1,
                post(1, 10.0, 0, "gamma gamma delta"),
                vec![post(2, 11.0, 5, "delta delta")],
            ),
        ]
    }

    fn ctx() -> FeatureContext {
        let history = tiny_history();
        let topics = PostTopics::fit(&history, &LdaConfig::new(2).with_iterations(20));
        FeatureContext::build(&history, 4, &topics, BetweennessMode::Exact)
    }

    #[test]
    fn user_aggregates_match_hand_counts() {
        let c = ctx();
        assert_eq!(c.answers_provided(UserId(2)), 2.0);
        assert_eq!(c.answers_provided(UserId(1)), 1.0);
        assert_eq!(c.answers_provided(UserId(3)), 0.0);
        assert_eq!(c.net_answer_votes(UserId(2)), 6.0);
        // u1: 1 answer, 1 question asked → o = 1/(1+1).
        assert_eq!(c.answer_ratio(UserId(1)), 0.5);
        // u2: 2 answers, 0 questions → o = 2.
        assert_eq!(c.answer_ratio(UserId(2)), 2.0);
        // u2 response times: 4h and 1h → median 2.5.
        assert_eq!(c.median_response_time(UserId(2)), 2.5);
        assert_eq!(c.median_response_time(UserId(3)), 0.0);
    }

    #[test]
    fn cooccurrence_counts_threads() {
        let c = ctx();
        // u1 and u2 share both threads.
        assert_eq!(c.cooccurrence(UserId(1), UserId(2)), 2.0);
        assert_eq!(c.cooccurrence(UserId(2), UserId(1)), 2.0);
        assert_eq!(c.cooccurrence(UserId(0), UserId(2)), 1.0);
        assert_eq!(c.cooccurrence(UserId(0), UserId(3)), 0.0);
    }

    /// The co-occurrence counts on the dense graph's adjacency equal
    /// counting every participant pair of every thread into a map, on
    /// every pair, and the answer-history CSR equals per-user lists.
    #[test]
    fn dense_counts_and_answer_history_match_per_pair_maps() {
        use forumcast_synth::SynthConfig;
        use std::collections::HashMap;
        let (clean, _) = SynthConfig::small().with_seed(3).generate().preprocess();
        let history = &clean.threads()[..150];
        let n = clean.num_users();
        let topics = PostTopics::fit(history, &LdaConfig::new(2).with_iterations(2));
        let c = FeatureContext::build(history, n, &topics, BetweennessMode::Exact);

        let mut counts: HashMap<(u32, u32), f64> = HashMap::new();
        let mut answered: Vec<Vec<(usize, i32)>> = vec![Vec::new(); n as usize];
        for (qi, t) in history.iter().enumerate() {
            let users = t.participants();
            for (i, &u) in users.iter().enumerate() {
                for &v in &users[i + 1..] {
                    *counts.entry((u.0, v.0)).or_insert(0.0) += 1.0;
                }
            }
            let mut seen = Vec::new();
            for a in &t.answers {
                if !seen.contains(&a.author) {
                    seen.push(a.author);
                    answered[a.author.index()].push((qi, a.votes));
                }
            }
        }
        assert!(
            counts.values().any(|&h| h > 1.0),
            "some pair shares threads"
        );
        for (&(u, v), &h) in &counts {
            assert_eq!(c.cooccurrence(UserId(u), UserId(v)).to_bits(), h.to_bits());
            assert_eq!(c.cooccurrence(UserId(v), UserId(u)).to_bits(), h.to_bits());
        }
        assert_eq!(c.dense_graph().num_edges(), counts.len());
        for u in 0..n {
            let got: Vec<(Vec<f64>, i32)> = c
                .answer_history(UserId(u))
                .map(|(d, votes)| (d.to_vec(), votes))
                .collect();
            let want: Vec<(Vec<f64>, i32)> = answered[u as usize]
                .iter()
                .map(|&(qi, votes)| (topics.question(history[qi].id).unwrap().to_vec(), votes))
                .collect();
            assert_eq!(got, want, "answer history of u{u}");
        }
    }

    #[test]
    fn graphs_have_expected_edges() {
        let c = ctx();
        // G_QA: 0-1, 0-2 (q0), 1-2 (q1).
        assert_eq!(c.qa_graph().num_edges(), 3);
        // G_D adds answerer-answerer 1-2 (already in QA via q1).
        assert_eq!(c.dense_graph().num_edges(), 3);
        assert!(c.closeness_qa(UserId(1)) > 0.0);
        assert_eq!(c.closeness_qa(UserId(3)), 0.0);
        assert_eq!(c.betweenness_qa(UserId(3)), 0.0);
    }

    #[test]
    fn resource_allocation_consistent_with_graph() {
        let c = ctx();
        // In the triangle 0-1-2 every pair shares exactly one common
        // neighbor of degree 2.
        assert!((c.resource_allocation_qa(UserId(0), UserId(1)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn answer_history_exposes_votes_and_topics() {
        let c = ctx();
        let hist: Vec<(Vec<f64>, i32)> = c
            .answer_history(UserId(2))
            .map(|(d, v)| (d.to_vec(), v))
            .collect();
        assert_eq!(hist.len(), 2);
        let votes: Vec<i32> = hist.iter().map(|(_, v)| *v).collect();
        assert!(votes.contains(&1) && votes.contains(&5));
        for (d, _) in &hist {
            assert!((d.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn user_topics_are_the_mean_of_the_users_posts() {
        let history = tiny_history();
        let topics = PostTopics::fit(&history, &LdaConfig::new(2).with_iterations(20));
        let c = FeatureContext::build(&history, 4, &topics, BetweennessMode::Exact);
        let answer = |q: u32, u: u32| topics.answer(QuestionId(q), UserId(u)).unwrap().to_vec();
        let question = |q: u32| topics.question(QuestionId(q)).unwrap().to_vec();
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let answered = mean_distribution(&[answer(0, 2), answer(1, 2)], 2);
        assert_eq!(bits(c.user_topics(UserId(2))), bits(&answered));
        let discussed = mean_distribution(&[answer(0, 1), question(1)], 2);
        assert_eq!(bits(c.discussed_topics(UserId(1))), bits(&discussed));
        assert_eq!(c.discussed_topics(UserId(3)), &[0.5, 0.5]);
    }

    #[test]
    fn inactive_user_gets_uniform_topics() {
        let c = ctx();
        assert_eq!(c.user_topics(UserId(3)), &[0.5, 0.5]);
    }

    #[test]
    fn sampled_betweenness_mode_runs() {
        let history = tiny_history();
        let topics = PostTopics::fit(&history, &LdaConfig::new(2).with_iterations(10));
        let c = FeatureContext::build(
            &history,
            4,
            &topics,
            BetweennessMode::Sampled { pivots: 2, seed: 1 },
        );
        // Sampled values are approximate but finite.
        assert!(c.betweenness_qa(UserId(1)).is_finite());
    }

    #[test]
    fn empty_history_context() {
        let topics = PostTopics::fit(&[], &LdaConfig::new(2).with_iterations(5));
        let c = FeatureContext::build(&[], 3, &topics, BetweennessMode::Exact);
        assert_eq!(c.answers_provided(UserId(0)), 0.0);
        assert_eq!(c.cooccurrence(UserId(0), UserId(1)), 0.0);
        assert_eq!(c.qa_graph().num_edges(), 0);
    }
}
