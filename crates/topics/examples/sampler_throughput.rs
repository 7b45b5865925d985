//! Dense-vs-sparse Gibbs throughput on a Zipf-skewed synthetic
//! corpus, across topic counts. Each (K, sampler) pair is timed over
//! [`ROUNDS`] rounds that alternate which sampler goes first, and the
//! example prints the median and the min–max of each. Every round of
//! a pair must train the same model bits; the example panics if not.
//! Run with `--release`:
//!
//! ```text
//! cargo run --release -p forumcast-topics --example sampler_throughput
//! ```

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use forumcast_text::{BagOfWords, Corpus};
use forumcast_topics::{LdaConfig, LdaModel, LdaSampler};

/// Topic-structured corpus: `themes` disjoint word blocks, each doc
/// drawing ~90% of its tokens from one home theme with Zipf-skewed
/// word popularity inside the block — the shape real forum text has
/// and the shape that concentrates `n_kw` rows.
fn themed_corpus(num_docs: usize, themes: usize, words_per_theme: usize, seed: u64) -> Corpus {
    let vocab = themes * words_per_theme;
    let mut rng = StdRng::seed_from_u64(seed);
    let h: f64 = (1..=words_per_theme).map(|j| 1.0 / j as f64).sum();
    let docs: Vec<BagOfWords> = (0..num_docs)
        .map(|d| {
            let home = d % themes;
            let len = rng.gen_range(20..80);
            let ids: Vec<usize> = (0..len)
                .map(|_| {
                    let theme = if rng.gen_bool(0.9) {
                        home
                    } else {
                        rng.gen_range(0..themes)
                    };
                    let mut u = rng.gen::<f64>() * h;
                    let mut j = 0;
                    while j + 1 < words_per_theme {
                        u -= 1.0 / (j + 1) as f64;
                        if u <= 0.0 {
                            break;
                        }
                        j += 1;
                    }
                    theme * words_per_theme + j
                })
                .collect();
            BagOfWords::from_ids(&ids)
        })
        .collect();
    Corpus::from_bows(docs, vocab)
}

/// Timed rounds per (K, sampler) pair.
const ROUNDS: usize = 7;

/// FNV-1a over the bit patterns of a model's φ and θ.
fn model_bits(model: &LdaModel) -> u64 {
    let phi = (0..model.num_topics()).flat_map(|t| model.topic_words(t));
    let theta = (0..model.num_docs()).flat_map(|d| model.doc_topics(d));
    phi.chain(theta).fold(0xcbf2_9ce4_8422_2325, |h, x| {
        x.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Median and min–max of `ms`, formatted for one report column.
fn summary(ms: &mut [f64]) -> (f64, String) {
    ms.sort_by(f64::total_cmp);
    let median = ms[ms.len() / 2];
    let range = format!("{median:7.1} ms [{:7.1}–{:7.1}]", ms[0], ms[ms.len() - 1]);
    (median, range)
}

fn main() {
    let corpus = themed_corpus(400, 12, 50, 7);
    let tokens: usize = (0..corpus.num_docs())
        .map(|d| corpus.doc(d).total() as usize)
        .sum();
    println!(
        "corpus: {} docs, {} tokens; {ROUNDS} alternating rounds per K, median [min–max]",
        corpus.num_docs(),
        tokens
    );
    let samplers = [LdaSampler::Dense, LdaSampler::Sparse];
    for &k in &[4usize, 8, 16, 32, 64] {
        let mut ms = [Vec::new(), Vec::new()];
        let mut bits: [Option<u64>; 2] = [None, None];
        for round in 0..ROUNDS {
            let order = if round % 2 == 0 { [0, 1] } else { [1, 0] };
            for s in order {
                let cfg = LdaConfig::new(k)
                    .with_iterations(30)
                    .with_sampler(samplers[s]);
                let t0 = Instant::now();
                let m = LdaModel::train(&corpus, &cfg);
                ms[s].push(t0.elapsed().as_secs_f64() * 1e3);
                let got = model_bits(&m);
                let want = *bits[s].get_or_insert(got);
                assert_eq!(
                    got, want,
                    "{} K={k}: round {round} trained different model bits",
                    samplers[s]
                );
            }
        }
        let (dense, dense_range) = summary(&mut ms[0]);
        let (sparse, sparse_range) = summary(&mut ms[1]);
        println!(
            "K={k:3}  dense {dense_range}  sparse {sparse_range}  speedup {:.2}x",
            dense / sparse
        );
    }
}
