//! Experiment configuration.

use forumcast_core::TrainConfig;
use forumcast_features::ExtractorConfig;
use forumcast_synth::SynthConfig;

/// Configuration shared by all experiments: dataset scale, feature
/// extraction, the history protocol, and training settings.
#[derive(Debug, Clone, PartialEq)]
pub struct EvalConfig {
    /// Synthetic dataset parameters (substitutes the paper's Stack
    /// Overflow crawl; see DESIGN.md §3).
    pub synth: SynthConfig,
    /// Feature extraction (LDA topics, betweenness mode).
    pub extractor: ExtractorConfig,
    /// Fraction of (chronologically first) threads reserved as pure
    /// history: they are never evaluation targets. Approximates the
    /// paper's `F(q) = {q′ : q′ ≤ q}` tractably.
    pub warmup_frac: f64,
    /// Number of history-refresh buckets over the target range: the
    /// extractor is refitted on all prior threads at each bucket
    /// boundary instead of per-question.
    pub buckets: usize,
    /// Cross-validation folds (paper: 5).
    pub folds: usize,
    /// CV repetitions (paper: 5, for 25 iterations total).
    pub repeats: usize,
    /// Negative `(u, q)` samples per positive (paper: balanced, 1.0).
    pub negatives_per_positive: f64,
    /// Model training settings.
    pub train: TrainConfig,
    /// Worker threads for folds/sweeps (0 = auto).
    pub threads: usize,
    /// Master seed.
    pub seed: u64,
}

impl EvalConfig {
    /// The scale words [`EvalConfig::from_scale`] resolves.
    pub const SCALES: &'static [&'static str] = &["quick", "standard", "paper"];

    /// The preset a scale word names, `None` for any other word.
    pub fn from_scale(scale: &str) -> Option<Self> {
        match scale {
            "quick" => Some(EvalConfig::quick()),
            "standard" => Some(EvalConfig::standard()),
            "paper" => Some(EvalConfig::paper()),
            _ => None,
        }
    }

    /// Paper-faithful protocol on the medium synthetic dataset:
    /// 5 folds × 5 repeats.
    pub fn paper() -> Self {
        EvalConfig {
            synth: SynthConfig::medium(),
            extractor: ExtractorConfig::paper(),
            warmup_frac: 0.3,
            buckets: 3,
            folds: 5,
            repeats: 5,
            negatives_per_positive: 1.0,
            train: TrainConfig::default(),
            threads: 0,
            seed: 0xE7A1,
        }
    }

    /// One repeat of 5-fold CV on the medium dataset — the default
    /// for the bundled experiment binaries.
    pub fn standard() -> Self {
        EvalConfig {
            repeats: 1,
            ..EvalConfig::paper()
        }
    }

    /// Small dataset, reduced epochs, 3 folds — for tests and smoke
    /// runs (minutes → seconds).
    pub fn quick() -> Self {
        EvalConfig {
            synth: SynthConfig::small(),
            extractor: ExtractorConfig::fast(),
            warmup_frac: 0.3,
            buckets: 2,
            folds: 3,
            repeats: 1,
            negatives_per_positive: 1.0,
            train: TrainConfig::fast(),
            threads: 0,
            seed: 0xE7A1,
        }
    }

    /// Sets the master seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Resolved worker-thread count.
    pub fn worker_threads(&self) -> usize {
        if self.threads > 0 {
            self.threads
        } else {
            forumcast_par::default_threads(8)
        }
    }
}

impl Default for EvalConfig {
    fn default() -> Self {
        EvalConfig::standard()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_differ_in_cost() {
        assert!(EvalConfig::quick().folds < EvalConfig::paper().folds);
        assert!(EvalConfig::paper().repeats > EvalConfig::standard().repeats);
        // The binaries' default scale runs one CV repeat.
        assert_eq!(EvalConfig::standard().repeats, 1);
    }

    #[test]
    fn worker_threads_resolves() {
        let mut c = EvalConfig::quick();
        assert!(c.worker_threads() >= 1);
        c.threads = 3;
        assert_eq!(c.worker_threads(), 3);
    }

    #[test]
    fn with_seed_sets_seed() {
        assert_eq!(EvalConfig::quick().with_seed(9).seed, 9);
    }
}
