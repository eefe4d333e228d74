//! Hand-rolled supervised learning for the Opprentice reproduction.
//!
//! The original prototype used scikit-learn (§5); the Rust ecosystem has no
//! canonical equivalent, so this crate implements the required learners from
//! scratch:
//!
//! * [`tree`] — CART decision trees (gini impurity, fully grown by default,
//!   per-node random feature subsets) — §4.4.2's "preliminaries",
//! * [`forest`] — Breiman random forests: bootstrap aggregation over fully
//!   grown randomized trees, anomaly probability = vote fraction — the
//!   algorithm Opprentice actually uses,
//! * [`compiled`] — trained forests flattened into a contiguous,
//!   cache-friendly node arena for fast (bit-identical) serving-path
//!   inference,
//! * [`baselines`] — the §5.3.2 comparison algorithms: decision tree,
//!   Gaussian naive Bayes, logistic regression and linear SVM, all behind
//!   one [`Classifier`] trait,
//! * [`metrics`] — precision/recall, PR curves and AUCPR (the paper's
//!   accuracy measures, §2.2 and §5.3),
//! * [`feature_select`] — mutual-information feature ranking (used to order
//!   features in the Fig. 10 robustness experiment),
//! * [`cv`] — contiguous k-fold splits for the 5-fold cThld baseline
//!   (§4.5.2).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baselines;
mod binned;
pub mod compiled;
pub mod cv;
pub mod dataset;
pub mod feature_select;
pub mod forest;
pub mod metrics;
pub mod persist;
pub mod tree;

pub use binned::TrainingSet;
pub use compiled::CompiledForest;
pub use dataset::Dataset;
pub use forest::{RandomForest, RandomForestParams};
pub use metrics::{auc_pr, pr_curve, PrPoint};

/// A binary anomaly classifier producing a monotone anomaly score.
///
/// The score scale is classifier-specific (a probability for forests, a
/// margin for SVMs, a log-odds for logistic regression); only its ordering
/// matters for PR curves and AUCPR, and a classification threshold (cThld)
/// picks an operating point on it.
pub trait Classifier: Send {
    /// Fits the classifier on a training set.
    fn fit(&mut self, data: &Dataset);

    /// Anomaly score of one sample (higher = more anomalous).
    fn score(&self, features: &[f64]) -> f64;

    /// Scores a whole dataset (row per sample).
    fn score_all(&self, data: &Dataset) -> Vec<f64> {
        (0..data.len()).map(|i| self.score(data.row(i))).collect()
    }

    /// Algorithm name for reports.
    fn name(&self) -> &'static str;
}
