//! Gibbs sampler throughput on a Zipf-skewed synthetic corpus, across
//! topic counts on both sides of the tree-summed draw's threshold
//! (24 topics). Each of [`ROUNDS`] rounds trains every K once,
//! alternating ascending and descending K order so drift in the host's
//! speed spreads over all K, and the example prints each K's median
//! and min–max time and its cost per token per sweep. Every round of a
//! K must train the same model bits; the example panics if not. Run
//! with `--release`:
//!
//! ```text
//! cargo run --release -p forumcast-topics --example sampler_throughput
//! ```

use std::time::Instant;

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use forumcast_text::Corpus;
use forumcast_topics::{LdaConfig, LdaModel};

/// Topic-structured corpus: `themes` disjoint word blocks, each doc
/// drawing ~90% of its tokens from one home theme with Zipf-skewed
/// word popularity inside the block — the shape real forum text has
/// and the shape that concentrates `n_kw` rows.
fn themed_corpus(num_docs: usize, themes: usize, words_per_theme: usize, seed: u64) -> Corpus {
    let vocab = themes * words_per_theme;
    let mut rng = StdRng::seed_from_u64(seed);
    let h: f64 = (1..=words_per_theme).map(|j| 1.0 / j as f64).sum();
    let mut corpus = Corpus::new(vocab);
    for d in 0..num_docs {
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
        corpus.push_doc(ids);
    }
    corpus
}

/// Timed rounds per K.
const ROUNDS: usize = 7;

/// FNV-1a over the bit patterns of a model's φ and θ.
fn model_bits(model: &LdaModel) -> u64 {
    let phi = (0..model.num_topics()).flat_map(|t| model.topic_words(t));
    let theta = (0..model.num_docs()).flat_map(|d| model.doc_topics(d).iter().copied());
    phi.chain(theta).fold(0xcbf2_9ce4_8422_2325, |h, x| {
        x.to_bits()
            .to_le_bytes()
            .iter()
            .fold(h, |h, &b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
    })
}

/// Gibbs sweeps per training run.
const SWEEPS: usize = 30;

fn main() {
    let corpus = themed_corpus(400, 12, 50, 7);
    let tokens = corpus.num_tokens();
    println!(
        "corpus: {} docs, {} tokens, {SWEEPS} sweeps; {ROUNDS} alternating rounds per K, median [min–max]",
        corpus.num_docs(),
        tokens
    );
    let ks = [4usize, 8, 16, 20, 24, 32, 64];
    let mut ms = vec![Vec::new(); ks.len()];
    let mut bits: Vec<Option<u64>> = vec![None; ks.len()];
    for round in 0..ROUNDS {
        let mut order: Vec<usize> = (0..ks.len()).collect();
        if round % 2 == 1 {
            order.reverse();
        }
        for i in order {
            let k = ks[i];
            let cfg = LdaConfig::new(k).with_iterations(SWEEPS);
            let t0 = Instant::now();
            let m = LdaModel::train(&corpus, &cfg);
            ms[i].push(t0.elapsed().as_secs_f64() * 1e3);
            let got = model_bits(&m);
            let want = *bits[i].get_or_insert(got);
            assert_eq!(
                got, want,
                "K={k}: round {round} trained different model bits"
            );
        }
    }
    for (k, ms) in ks.iter().zip(&mut ms) {
        ms.sort_by(f64::total_cmp);
        let median = ms[ms.len() / 2];
        println!(
            "K={k:3}  {median:7.1} ms [{:7.1}–{:7.1}]  {:6.1} ns/token/sweep",
            ms[0],
            ms[ms.len() - 1],
            median * 1e6 / (tokens * SWEEPS) as f64
        );
    }
}
