//! The static detector-combination baselines of §5.3.1: the normalization
//! schema \[21\] and the majority vote \[8\].
//!
//! "These two methods are designed to combine different detectors, but they
//! treat them equally no matter their accuracy" — which is exactly why they
//! lose to the random forest when most of the 133 configurations are
//! inaccurate (Fig. 9, Table 4).
//!
//! Both papers leave the per-detector scaling open, so this module makes
//! the standard choice explicit: each configuration is normalized by a high
//! quantile of its own severity history (normalization schema), or votes
//! when its severity exceeds a high quantile of that history (majority
//! vote). Sweeping the combined score's threshold then draws their PR
//! curves, exactly as for any other score stream.

use crate::features::FeatureMatrix;
use opprentice_numeric::stats::quantile;

/// The quantile of each configuration's severity history used as its scale
/// (normalization) or voting sThld (majority vote).
const SCALE_QUANTILE: f64 = 0.99;

/// Per-configuration severity scales over the given point range.
fn config_scales(matrix: &FeatureMatrix, fit_range: std::ops::Range<usize>) -> Vec<f64> {
    let m = matrix.n_features();
    let mut scales = Vec::with_capacity(m);
    for c in 0..m {
        let xs: Vec<f64> = fit_range
            .clone()
            .filter(|&i| matrix.usable(i))
            .map(|i| matrix.row(i)[c])
            .collect();
        let q = quantile(&xs, SCALE_QUANTILE).unwrap_or(1.0);
        scales.push(if q > 0.0 { q } else { 1.0 });
    }
    scales
}

/// The normalization schema \[21\]: each severity is rescaled to `[0, 1]` by
/// its configuration's own scale (clamped), and the combined score is the
/// equal-weight mean. Scales are fit on `fit_range` (the training data) and
/// scores are emitted for `score_range`.
pub fn normalization_schema(
    matrix: &FeatureMatrix,
    fit_range: std::ops::Range<usize>,
    score_range: std::ops::Range<usize>,
) -> Vec<Option<f64>> {
    let scales = config_scales(matrix, fit_range);
    let m = matrix.n_features();
    score_range
        .map(|i| {
            if !matrix.usable(i) {
                return None;
            }
            let row = matrix.row(i);
            let sum: f64 = (0..m).map(|c| (row[c] / scales[c]).min(1.0)).sum();
            Some(sum / m as f64)
        })
        .collect()
}

/// The majority vote \[8\]: each configuration votes "anomaly" when its
/// severity exceeds its own sThld (a high quantile of its history); the
/// combined score is the fraction of voting configurations. "Equally
/// weighted vote" — every configuration counts the same.
pub fn majority_vote(
    matrix: &FeatureMatrix,
    fit_range: std::ops::Range<usize>,
    score_range: std::ops::Range<usize>,
) -> Vec<Option<f64>> {
    let sthlds = config_scales(matrix, fit_range);
    let m = matrix.n_features();
    score_range
        .map(|i| {
            if !matrix.usable(i) {
                return None;
            }
            let row = matrix.row(i);
            let votes = (0..m)
                .filter(|&c| row[c] >= sthlds[c] && row[c] > 0.0)
                .count();
            Some(votes as f64 / m as f64)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A small matrix: 3 features, 100 points. Feature 0 is informative
    /// (high on the last 5 points), features 1-2 are noise.
    fn toy_matrix() -> FeatureMatrix {
        let mut m = FeatureMatrix::new(vec!["good".into(), "noise1".into(), "noise2".into()]);
        for i in 0..100 {
            let good = if i >= 95 { 50.0 } else { (i % 7) as f64 * 0.1 };
            let n1 = ((i * 13) % 10) as f64;
            let n2 = ((i * 29) % 10) as f64;
            m.push_row(&[Some(good), Some(n1), Some(n2)], true);
        }
        m
    }

    #[test]
    fn normalization_scores_in_unit_range() {
        let m = toy_matrix();
        let scores = normalization_schema(&m, 0..90, 0..100);
        for s in scores.iter().flatten() {
            assert!((0.0..=1.0).contains(s));
        }
    }

    #[test]
    fn informative_feature_raises_combined_score() {
        let m = toy_matrix();
        let scores = normalization_schema(&m, 0..90, 0..100);
        let anomalous = scores[97].unwrap();
        let normal = scores[10].unwrap();
        assert!(anomalous > normal, "{anomalous} vs {normal}");
    }

    #[test]
    fn majority_vote_fraction_counts_exceeding_configs() {
        let m = toy_matrix();
        let scores = majority_vote(&m, 0..90, 0..100);
        // At point 97, only the informative feature exceeds its q99 —
        // fraction should be about 1/3.
        let v = scores[97].unwrap();
        assert!(v > 0.0 && v <= 1.0);
    }

    #[test]
    fn unusable_points_get_no_score() {
        let mut m = FeatureMatrix::new(vec!["a".into()]);
        m.push_row(&[Some(1.0)], true);
        m.push_row(&[None], false);
        m.push_row(&[Some(2.0)], true);
        let norm = normalization_schema(&m, 0..3, 0..3);
        assert!(norm[1].is_none());
        let vote = majority_vote(&m, 0..3, 0..3);
        assert!(vote[1].is_none());
    }

    #[test]
    fn scales_fit_on_training_range_only() {
        // A feature that explodes in the test range must be normalized by
        // its *training* scale, producing clamped scores of 1.
        let mut m = FeatureMatrix::new(vec!["a".into()]);
        for i in 0..50 {
            m.push_row(&[Some((i % 5) as f64)], true);
        }
        m.push_row(&[Some(1000.0)], true);
        let scores = normalization_schema(&m, 0..50, 50..51);
        assert_eq!(scores[0], Some(1.0));
    }
}
