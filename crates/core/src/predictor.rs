//! Online cThld prediction (§4.5.2).
//!
//! The best cThld of a week is only knowable in hindsight, so online
//! detection needs a prediction. The paper's method is EWMA over the
//! historical best cThlds —
//!
//! `cThld_p(i) = α · cThld_b(i−1) + (1−α) · cThld_p(i−1)`, α = 0.8 —
//!
//! initialized by 5-fold cross-validation on the first training set, and
//! compared against using 5-fold cross-validation every week (the baseline
//! Fig. 13 shows losing).

use crate::cthld::{pc_score, Preference};
use opprentice_learn::cv::k_fold;
use opprentice_learn::{RandomForest, RandomForestParams, TrainingSet};
use opprentice_numeric::parallel::configured_threads;

/// The EWMA cThld predictor (α = 0.8 in the paper: "to quickly catch up
/// with the cThld variation").
#[derive(Debug, Clone)]
pub struct EwmaCthldPredictor {
    alpha: f64,
    prediction: Option<f64>,
}

impl EwmaCthldPredictor {
    /// Creates a predictor with smoothing constant `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        Self {
            alpha,
            prediction: None,
        }
    }

    /// The paper's configuration (α = 0.8).
    pub fn paper() -> Self {
        Self::new(0.8)
    }

    /// Seeds the first prediction (the paper uses 5-fold cross-validation
    /// on the first training set). A non-finite seed carries no information
    /// and is ignored — the prediction state is left untouched, so the
    /// predictor can never hold a NaN.
    pub fn initialize(&mut self, cthld: f64) {
        if !cthld.is_finite() {
            return;
        }
        self.prediction = Some(cthld.clamp(0.0, 1.0));
    }

    /// The cThld to use for the upcoming week (`None` before
    /// initialization).
    pub fn predict(&self) -> Option<f64> {
        self.prediction
    }

    /// Folds in the best cThld of the week that just ended, producing the
    /// next week's prediction. A non-finite input is ignored (NaN would
    /// otherwise survive the clamp and poison every later prediction);
    /// the current prediction — or the forest default 0.5 before
    /// initialization — is returned unchanged in that case.
    pub fn update(&mut self, best_cthld: f64) -> f64 {
        if !best_cthld.is_finite() {
            return self.prediction.unwrap_or(0.5);
        }
        let next = match self.prediction {
            None => best_cthld,
            Some(prev) => self.alpha * best_cthld + (1.0 - self.alpha) * prev,
        };
        let next = next.clamp(0.0, 1.0);
        self.prediction = Some(next);
        next
    }
}

/// The candidate grid of §4.5.2: "we evaluate 1000 cThld candidates in a
/// range of [0, 1]" with 0.001 granularity.
pub fn cthld_candidates() -> impl Iterator<Item = f64> {
    (0..=1000).map(|i| i as f64 / 1000.0)
}

/// Average PC-Score of each cThld candidate over scored samples: the core
/// of the 5-fold method. `scores`/`truth` are one fold's test data.
fn fold_pc_scores(scores: &[f64], truth: &[bool], pref: &Preference) -> Vec<f64> {
    // Sort descending; prefix true-positive counts.
    let mut pairs: Vec<(f64, bool)> = scores.iter().copied().zip(truth.iter().copied()).collect();
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));
    let total_pos = pairs.iter().filter(|(_, t)| *t).count() as f64;
    let mut prefix_tp = Vec::with_capacity(pairs.len() + 1);
    prefix_tp.push(0.0);
    for (_, t) in &pairs {
        prefix_tp.push(prefix_tp.last().unwrap() + f64::from(u8::from(*t)));
    }

    cthld_candidates()
        .map(|c| {
            // Number of samples with score >= c (pairs sorted descending).
            let count = pairs.partition_point(|(s, _)| *s >= c);
            let tp = prefix_tp[count];
            let recall = if total_pos == 0.0 {
                1.0
            } else {
                tp / total_pos
            };
            let precision = if count == 0 { 1.0 } else { tp / count as f64 };
            pc_score(recall, precision, pref)
        })
        .collect()
}

/// 5-fold cross-validated cThld selection (§4.5.2): for each fold, train on
/// the other folds and score the held-out block; pick the candidate with
/// the best average PC-Score. Returns 0.5 (the default) when the training
/// set is unusable (e.g. no positives at all).
///
/// The fold forests share `train`'s column sort with every other fit on
/// it (the retrain job fits its model on the same set), and each scores
/// its held-out rows in place through its compiled form, which predicts
/// bit-identically to the tree walk.
pub fn five_fold_cthld(train: &TrainingSet, pref: &Preference, params: &RandomForestParams) -> f64 {
    let k = 5usize;
    let data = train.data();
    let positives = data.positives();
    if data.len() < k * 2 || positives == 0 || positives == data.len() {
        return 0.5;
    }
    let threads = configured_threads();
    let mut sums = vec![0.0; 1001];
    let mut used_folds = 0usize;
    for test in k_fold(data.len(), k) {
        let truth = &data.labels()[test.clone()];
        if truth.iter().filter(|&&l| l).count() == positives {
            // The fold's training part holds no anomaly.
            continue;
        }
        let mut forest = RandomForest::new(params.clone());
        forest.fit_held_out(train, test.clone(), threads);
        let compiled = forest.compile();
        let scores: Vec<f64> = test.map(|i| compiled.predict(data.row(i))).collect();
        let pc = fold_pc_scores(&scores, truth, pref);
        for (s, p) in sums.iter_mut().zip(pc) {
            *s += p;
        }
        used_folds += 1;
    }
    if used_folds == 0 {
        return 0.5;
    }
    // Many candidates often tie at the maximum (e.g. on cleanly separable
    // folds every threshold in the margin is equally good); take the median
    // of the tied range for a robust, centered choice.
    let max = sums.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    let tied: Vec<usize> = sums
        .iter()
        .enumerate()
        .filter(|(_, &s)| s >= max - 1e-9)
        .map(|(i, _)| i)
        .collect();
    tied[tied.len() / 2] as f64 / 1000.0
}

#[cfg(test)]
mod tests {
    use super::*;
    use opprentice_learn::Dataset;

    #[test]
    fn ewma_initialization_and_update() {
        let mut p = EwmaCthldPredictor::paper();
        assert_eq!(p.predict(), None);
        p.initialize(0.5);
        assert_eq!(p.predict(), Some(0.5));
        // 0.8 * 0.9 + 0.2 * 0.5 = 0.82.
        let next = p.update(0.9);
        assert!((next - 0.82).abs() < 1e-12);
        assert_eq!(p.predict(), Some(next));
    }

    #[test]
    fn ewma_without_init_adopts_first_best() {
        let mut p = EwmaCthldPredictor::paper();
        assert_eq!(p.update(0.7), 0.7);
    }

    #[test]
    fn ewma_tracks_drifting_best_cthlds() {
        let mut p = EwmaCthldPredictor::paper();
        p.initialize(0.1);
        for _ in 0..10 {
            p.update(0.9);
        }
        assert!(p.predict().unwrap() > 0.85);
    }

    #[test]
    fn predictions_stay_in_unit_interval() {
        let mut p = EwmaCthldPredictor::new(1.0);
        p.update(5.0);
        assert_eq!(p.predict(), Some(1.0));
    }

    #[test]
    fn non_finite_inputs_are_ignored() {
        let mut p = EwmaCthldPredictor::paper();
        for junk in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(p.update(junk), 0.5, "uninitialized fallback");
            assert_eq!(p.predict(), None);
            p.initialize(junk);
            assert_eq!(p.predict(), None);
        }
        p.initialize(0.4);
        for junk in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(p.update(junk), 0.4);
            assert_eq!(p.predict(), Some(0.4));
            p.initialize(junk);
            assert_eq!(p.predict(), Some(0.4));
        }
    }

    #[test]
    fn candidates_cover_unit_interval_finely() {
        let c: Vec<f64> = cthld_candidates().collect();
        assert_eq!(c.len(), 1001);
        assert_eq!(c[0], 0.0);
        assert_eq!(c[1000], 1.0);
        assert!((c[1] - 0.001).abs() < 1e-12);
    }

    #[test]
    fn fold_pc_scores_peak_at_separating_threshold() {
        let pref = Preference::moderate();
        // Scores separate perfectly at 0.55.
        let scores = [0.9, 0.8, 0.7, 0.6, 0.4, 0.3, 0.2, 0.1];
        let truth = [true, true, true, true, false, false, false, false];
        let pc = fold_pc_scores(&scores, &truth, &pref);
        let best = pc
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0 as f64
            / 1000.0;
        assert!(best > 0.4 && best <= 0.6, "best {best}");
    }

    #[test]
    fn five_fold_finds_a_sane_cthld_on_separable_data() {
        let mut d = Dataset::new(1);
        // Label depends on the feature with a clean margin around 5.
        for block in 0..5 {
            for i in 0..40 {
                let v = (i % 10) as f64 + (block % 2) as f64 * 0.1;
                d.push(&[v], v >= 5.0);
            }
        }
        let params = RandomForestParams {
            n_trees: 10,
            ..Default::default()
        };
        let c = five_fold_cthld(&TrainingSet::new(&d), &Preference::moderate(), &params);
        assert!(c > 0.05 && c < 0.95, "cthld {c}");
    }

    #[test]
    fn degenerate_training_sets_return_default() {
        let mut all_normal = Dataset::new(1);
        for i in 0..100 {
            all_normal.push(&[i as f64], false);
        }
        let params = RandomForestParams {
            n_trees: 4,
            ..Default::default()
        };
        assert_eq!(
            five_fold_cthld(
                &TrainingSet::new(&all_normal),
                &Preference::moderate(),
                &params
            ),
            0.5
        );
    }
}
