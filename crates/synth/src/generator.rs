//! The forum simulator entry point: turns a latent population into a
//! complete dataset. The stepwise machinery lives in
//! [`crate::simulator`]; this module provides the one-shot
//! [`generate`] and the thread-count-invariant sharded
//! [`generate_with_threads`].

use forumcast_data::{Dataset, Thread};

use crate::config::SynthConfig;
#[cfg(test)]
use crate::simulator::{poisson, sample_decaying_process};
use crate::simulator::{ForumSimulator, SHARD_SIZE};

/// Generates a synthetic forum dataset per `config`. Deterministic
/// given `config.seed` — equivalent to
/// [`generate_with_threads`]`(config, 0)` (auto thread count), which
/// is safe because sharded output is bitwise-identical at any thread
/// count.
///
/// See the crate docs and DESIGN.md §3 for the generative process and
/// the paper statistics it is calibrated against.
///
/// # Example
///
/// ```
/// use forumcast_synth::{generate, SynthConfig};
/// let ds = generate(&SynthConfig::small());
/// assert_eq!(ds.num_questions(), SynthConfig::small().num_questions);
/// ```
pub fn generate(config: &SynthConfig) -> Dataset {
    generate_with_threads(config, 0)
}

/// Half-open question ranges, one per [`SHARD_SIZE`] shard.
fn shard_ranges(num_questions: usize) -> Vec<(usize, usize)> {
    (0..num_questions)
        .step_by(SHARD_SIZE)
        .map(|start| (start, (start + SHARD_SIZE).min(num_questions)))
        .collect()
}

/// One shard of threads from a worker positioned at `start`.
fn run_shard(sim: &ForumSimulator, start: usize, end: usize) -> Vec<Thread> {
    let _g = forumcast_obs::task_span("synth.shard", (start / SHARD_SIZE) as u64);
    let mut worker = sim.at_question(start as u32);
    worker.run_organic(end - start)
}

/// Sharded generation: questions are produced in independent
/// [`SHARD_SIZE`] shards (per-question seed derivation + shard-local
/// social memory), fanned out over up to `threads` workers (0 = auto)
/// and merged in fixed shard order — the output is bitwise-identical
/// at any thread count, and identical to a serial
/// [`ForumSimulator::run_organic`] sweep.
pub fn generate_with_threads(config: &SynthConfig, threads: usize) -> Dataset {
    let _span = forumcast_obs::span("synth.generate");
    let sim = ForumSimulator::new(config);
    let shards = shard_ranges(config.num_questions);
    let max_threads = forumcast_par::resolve_threads(threads);
    let per_shard: Vec<Vec<Thread>> =
        forumcast_par::parallel_map(&shards, max_threads, |&(start, end)| {
            run_shard(&sim, start, end)
        });
    let _merge = forumcast_obs::span("synth.merge");
    let mut all = Vec::with_capacity(config.num_questions);
    for batch in per_shard {
        all.extend(batch);
    }
    Dataset::new(config.num_users, all).expect("generator invariants hold")
}

#[cfg(test)]
mod tests {
    use super::*;
    use forumcast_data::Dataset;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use std::collections::HashMap;

    fn small_dataset() -> Dataset {
        generate(&SynthConfig::small().with_seed(42))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = small_dataset();
        let b = small_dataset();
        assert_eq!(a, b);
    }

    #[test]
    fn generation_is_identical_across_thread_counts() {
        let cfg = SynthConfig::small().with_seed(42);
        let h1 = generate_with_threads(&cfg, 1).fnv1a_hash();
        let h2 = generate_with_threads(&cfg, 2).fnv1a_hash();
        let h7 = generate_with_threads(&cfg, 7).fnv1a_hash();
        assert_eq!(h1, h2, "2 threads diverge from serial");
        assert_eq!(h1, h7, "7 threads diverge from serial");
    }

    #[test]
    fn generation_is_prefix_stable_as_the_forum_grows() {
        // Growing num_questions must never perturb earlier questions:
        // per-question seeds depend only on (seed, id) and shard
        // boundaries are fixed multiples of SHARD_SIZE.
        let small = SynthConfig::small().with_seed(11);
        let mut bigger = small.clone();
        bigger.num_questions += 173;
        let a = generate(&small);
        let b = generate(&bigger);
        // Thread vectors are time-sorted, so compare per question id:
        // every original question must be byte-identical in the
        // grown forum.
        for t in a.threads() {
            assert_eq!(
                Some(t),
                b.thread(t.id),
                "question {} changed when the forum grew",
                t.id.0
            );
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = generate(&SynthConfig::small().with_seed(1));
        let b = generate(&SynthConfig::small().with_seed(2));
        assert_ne!(a, b);
    }

    #[test]
    fn unanswered_fraction_near_config() {
        let ds = small_dataset();
        let unanswered = ds.threads().iter().filter(|t| !t.is_answered()).count();
        let frac = unanswered as f64 / ds.num_questions() as f64;
        assert!((frac - 0.4).abs() < 0.12, "unanswered fraction {frac}");
    }

    #[test]
    fn answered_questions_average_about_1_5_answers() {
        let (clean, _) = small_dataset().preprocess();
        let avg = clean.num_answers() as f64 / clean.num_questions() as f64;
        assert!((1.2..1.9).contains(&avg), "avg answers {avg}");
    }

    #[test]
    fn question_lengths_are_lognormal_around_300() {
        let ds = small_dataset();
        let mut word_lens: Vec<f64> = ds
            .threads()
            .iter()
            .map(|t| t.question.body.word_len() as f64)
            .collect();
        word_lens.sort_by(|a, b| a.total_cmp(b));
        let median = word_lens[word_lens.len() / 2];
        assert!((200.0..450.0).contains(&median), "median word len {median}");
        // Some questions have no code at all.
        assert!(ds.threads().iter().any(|t| t.question.body.code_len() == 0));
        assert!(ds
            .threads()
            .iter()
            .any(|t| t.question.body.code_len() > 300));
    }

    #[test]
    fn votes_and_response_times_are_uncorrelated() {
        let (clean, _) = generate(&SynthConfig::medium().with_seed(3)).preprocess();
        let pairs = clean.answered_pairs();
        assert!(pairs.len() > 500);
        let n = pairs.len() as f64;
        let mv = pairs.iter().map(|p| p.votes as f64).sum::<f64>() / n;
        let mr = pairs.iter().map(|p| p.response_time).sum::<f64>() / n;
        let mut cov = 0.0;
        let mut vv = 0.0;
        let mut vr = 0.0;
        for p in &pairs {
            let dv = p.votes as f64 - mv;
            let dr = p.response_time - mr;
            cov += dv * dr;
            vv += dv * dv;
            vr += dr * dr;
        }
        let corr = cov / (vv.sqrt() * vr.sqrt());
        assert!(corr.abs() < 0.1, "vote/time correlation {corr}");
    }

    #[test]
    fn active_users_respond_faster() {
        let (clean, _) = generate(&SynthConfig::medium().with_seed(4)).preprocess();
        let pairs = clean.answered_pairs();
        // Median response time of users with many vs few answers.
        let mut per_user: HashMap<u32, Vec<f64>> = HashMap::new();
        for p in &pairs {
            per_user.entry(p.user.0).or_default().push(p.response_time);
        }
        let median = |v: &mut Vec<f64>| {
            v.sort_by(|a, b| a.total_cmp(b));
            v[v.len() / 2]
        };
        let mut active = Vec::new();
        let mut casual = Vec::new();
        for (_, mut times) in per_user {
            let m = median(&mut times);
            if times.len() >= 5 {
                active.push(m);
            } else if times.len() == 1 {
                casual.push(m);
            }
        }
        assert!(active.len() > 5, "need some active users");
        let avg = |v: &[f64]| v.iter().sum::<f64>() / v.len() as f64;
        assert!(
            avg(&active) < avg(&casual),
            "active median {} vs casual {}",
            avg(&active),
            avg(&casual)
        );
    }

    #[test]
    fn answer_matrix_is_sparse() {
        let (clean, _) = small_dataset().preprocess();
        let stats = clean.stats();
        assert!(
            stats.answer_matrix_density < 0.05,
            "density {}",
            stats.answer_matrix_density
        );
    }

    #[test]
    fn decaying_process_sampler_respects_bounds() {
        let mut rng = StdRng::seed_from_u64(5);
        for _ in 0..200 {
            let t = sample_decaying_process(&mut rng, 0.5, 0.08, 100.0);
            assert!(t > 0.0 && t <= 100.0, "t = {t}");
        }
    }

    #[test]
    fn decaying_process_higher_mu_means_faster() {
        let mut rng = StdRng::seed_from_u64(6);
        let avg = |mu: f64, rng: &mut StdRng| -> f64 {
            (0..400)
                .map(|_| sample_decaying_process(rng, mu, 0.05, 200.0))
                .sum::<f64>()
                / 400.0
        };
        let slow = avg(0.05, &mut rng);
        let fast = avg(2.0, &mut rng);
        assert!(fast < slow, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn poisson_small_mean_mostly_zero_or_one() {
        let mut rng = StdRng::seed_from_u64(7);
        let draws: Vec<usize> = (0..2000).map(|_| poisson(&mut rng, 0.47)).collect();
        let mean = draws.iter().sum::<usize>() as f64 / draws.len() as f64;
        assert!((mean - 0.47).abs() < 0.08, "poisson mean {mean}");
    }

    #[test]
    fn preprocessing_artifacts_exist() {
        // The generator injects rare duplicates/zero-delays; over a
        // medium dataset at least one of each should appear.
        let ds = generate(&SynthConfig::medium().with_seed(8));
        let (_, report) = ds.preprocess();
        assert!(
            report.duplicate_answers + report.zero_delay_answers > 0,
            "{report:?}"
        );
    }
}
