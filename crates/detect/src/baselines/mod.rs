//! Related-work baseline detectors.
//!
//! The paper's related work evaluates web-robot detection via data-mining
//! over session features (Stevanovic et al. \[1\]) and probabilistic
//! reasoning (Stassopoulou & Dikaiakos \[2\]). These baselines reproduce that
//! family, hand-rolled because no mature Rust ML stack is available
//! offline:
//!
//! * [`RateLimiter`] — the naive operational baseline every shop starts
//!   with: a pure request-rate threshold.
//! * [`SignatureOnly`] — user-agent blocklisting alone.
//! * [`NaiveBayes`] — Gaussian naive Bayes over session features.
//! * [`Logistic`] — logistic regression trained by SGD.
//! * [`Cart`] — a CART decision tree (Gini impurity).
//!
//! The learned models consume the same
//! [`SessionFeatures`](crate::SessionFeatures) vector as Arcane, train on
//! a labelled log (the generator provides ground truth)
//! and classify **per request**, so their output is comparable to the two
//! main tools in every experiment.

mod cart;
mod logistic;
mod naive_bayes;
mod rate_limiter;
mod signature_only;

pub use cart::{Cart, CartParams};
pub use logistic::{Logistic, LogisticParams};
pub use naive_bayes::NaiveBayes;
pub use rate_limiter::RateLimiter;
pub use signature_only::SignatureOnly;

use divscrape_httplog::EntryRef;
use divscrape_traffic::LabelledLog;

use crate::session::{Sessionizer, SessionizerConfig};
use crate::{ClientKey, Detector, Verdict};

/// Dimensionality of the session feature vector.
pub const FEATURE_DIM: usize = 14;

/// A labelled per-request feature set extracted from a log.
#[derive(Debug, Clone)]
pub struct TrainingSet {
    xs: Vec<[f64; FEATURE_DIM]>,
    ys: Vec<bool>,
}

impl TrainingSet {
    /// Extracts per-request feature vectors (with ground-truth labels) from
    /// a labelled log. `stride` keeps every `stride`-th request (1 = all) to
    /// bound training cost on large logs.
    ///
    /// # Panics
    ///
    /// Panics if `stride == 0`.
    pub fn from_log(log: &LabelledLog, stride: usize) -> Self {
        assert!(stride > 0, "stride must be at least 1");
        let mut sessions = Sessionizer::new(SessionizerConfig::default());
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for (i, (entry, truth)) in log.iter().enumerate() {
            let features = sessions.observe(&entry.view());
            if i % stride == 0 {
                xs.push(features.feature_vector());
                ys.push(truth.is_malicious());
            }
        }
        Self { xs, ys }
    }

    /// Builds a training set from pre-extracted examples (e.g. features
    /// computed over a tool's own labelled corpus).
    ///
    /// # Panics
    ///
    /// Panics if `xs` and `ys` differ in length.
    pub fn from_parts(xs: Vec<[f64; FEATURE_DIM]>, ys: Vec<bool>) -> Self {
        assert_eq!(xs.len(), ys.len(), "features and labels must align");
        Self { xs, ys }
    }

    /// The feature vectors.
    pub fn features(&self) -> &[[f64; FEATURE_DIM]] {
        &self.xs
    }

    /// The labels (true = malicious).
    pub fn labels(&self) -> &[bool] {
        &self.ys
    }

    /// Number of examples.
    pub fn len(&self) -> usize {
        self.xs.len()
    }

    /// Whether the set is empty.
    pub fn is_empty(&self) -> bool {
        self.xs.is_empty()
    }

    /// Number of positive (malicious) examples.
    pub fn positives(&self) -> usize {
        self.ys.iter().filter(|y| **y).count()
    }
}

/// A trained model that scores one session-feature snapshot.
pub trait SessionModel {
    /// Stable name for reports.
    fn model_name(&self) -> &'static str;

    /// Malice score in `[0, 1]`.
    fn score(&self, x: &[f64; FEATURE_DIM]) -> f64;
}

/// Wraps a [`SessionModel`] as a streaming per-request [`Detector`].
#[derive(Debug, Clone)]
pub struct SessionModelDetector<M> {
    model: M,
    sessions: Sessionizer,
    threshold: f64,
    min_requests: u32,
}

impl<M: SessionModel> SessionModelDetector<M> {
    /// Wraps `model`, alerting when its score reaches `threshold` and the
    /// session has at least `min_requests` requests of evidence.
    pub fn new(model: M, threshold: f64, min_requests: u32) -> Self {
        Self {
            model,
            sessions: Sessionizer::new(SessionizerConfig::default()),
            threshold,
            min_requests,
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The alert threshold.
    pub fn threshold(&self) -> f64 {
        self.threshold
    }

    /// The per-entry step with the client key precomputed: fold the entry
    /// into its session and score the session's features.
    fn observe_keyed(&mut self, key: ClientKey, entry: &EntryRef<'_>) -> Verdict {
        let features = self.sessions.observe_with_key(key, entry);
        let enough = features.requests >= self.min_requests;
        let score = self.model.score(&features.feature_vector());
        Verdict::new(enough && score >= self.threshold, score as f32)
    }
}

impl<M: SessionModel> Detector for SessionModelDetector<M> {
    fn name(&self) -> &str {
        self.model.model_name()
    }

    fn observe(&mut self, entry: &EntryRef<'_>) -> Verdict {
        self.observe_keyed(entry.client_key(), entry)
    }

    fn observe_batch_refs(&mut self, entries: &[EntryRef<'_>], out: &mut Vec<Verdict>) {
        out.reserve(entries.len());
        for run in crate::detector::client_runs(entries) {
            // One key hash per client run; the sessionizer and model still
            // see every entry.
            let key = run[0].client_key();
            out.extend(run.iter().map(|entry| self.observe_keyed(key, entry)));
        }
    }

    fn reset(&mut self) {
        self.sessions.reset();
    }

    fn set_eviction(&mut self, cfg: crate::EvictionConfig) {
        self.sessions.set_eviction(cfg);
    }

    fn eviction_stats(&self) -> crate::EvictionStats {
        self.sessions.eviction_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use divscrape_traffic::{generate, ScenarioConfig};

    #[test]
    fn training_set_extraction_is_labelled_and_strided() {
        let log = generate(&ScenarioConfig::tiny(3)).unwrap();
        let full = TrainingSet::from_log(&log, 1);
        assert_eq!(full.len(), log.len());
        assert_eq!(full.positives() as u64, log.malicious_count());
        let strided = TrainingSet::from_log(&log, 4);
        assert_eq!(strided.len(), log.len().div_ceil(4));
        assert!(!strided.is_empty());
    }

    #[test]
    #[should_panic]
    fn zero_stride_is_rejected() {
        let log = generate(&ScenarioConfig::tiny(3)).unwrap();
        let _ = TrainingSet::from_log(&log, 0);
    }

    #[test]
    fn feature_vectors_are_finite() {
        let log = generate(&ScenarioConfig::tiny(9)).unwrap();
        let set = TrainingSet::from_log(&log, 1);
        for x in set.features() {
            assert!(x.iter().all(|v| v.is_finite()));
        }
    }
}
