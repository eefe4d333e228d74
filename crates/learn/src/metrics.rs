//! Precision/recall machinery (§2.2, §4.5.1, §5.3).
//!
//! "We use recall (# of true anomalous points detected / # of true anomalous
//! points) and precision (# of true anomalous points detected / # of
//! anomalous points detected) to measure the detection accuracy … A PR curve
//! plots precision against recall for every possible cThld … we use the area
//! under the PR curve (AUCPR) as the accuracy measure."

/// One operating point on a PR curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PrPoint {
    /// The score threshold that produces this point (predict anomaly when
    /// `score >= threshold`).
    pub threshold: f64,
    /// Recall at this threshold.
    pub recall: f64,
    /// Precision at this threshold.
    pub precision: f64,
}

/// Recall and precision of binary predictions against ground truth.
/// Precision of zero predictions is defined as 1 (no false alarms).
pub fn precision_recall(predicted: &[bool], truth: &[bool]) -> (f64, f64) {
    assert_eq!(predicted.len(), truth.len(), "length mismatch");
    let mut tp = 0usize;
    let mut fp = 0usize;
    let mut fn_ = 0usize;
    for (&p, &t) in predicted.iter().zip(truth) {
        match (p, t) {
            (true, true) => tp += 1,
            (true, false) => fp += 1,
            (false, true) => fn_ += 1,
            (false, false) => {}
        }
    }
    let recall = if tp + fn_ == 0 {
        1.0
    } else {
        tp as f64 / (tp + fn_) as f64
    };
    let precision = if tp + fp == 0 {
        1.0
    } else {
        tp as f64 / (tp + fp) as f64
    };
    (recall, precision)
}

/// The F-Score (harmonic mean) of a PR point: `2·p·r / (p + r)`.
pub fn f_score(recall: f64, precision: f64) -> f64 {
    if recall + precision == 0.0 {
        0.0
    } else {
        2.0 * recall * precision / (recall + precision)
    }
}

/// Builds the PR curve of anomaly scores against ground truth: one point per
/// distinct score threshold, ordered from the highest threshold (low recall)
/// to the lowest (recall 1). Samples without a score (`None`, e.g. detector
/// warm-up) are excluded from both counts, matching §4.3.2's skip rule.
pub fn pr_curve(scores: &[Option<f64>], truth: &[bool]) -> Vec<PrPoint> {
    assert_eq!(scores.len(), truth.len(), "length mismatch");
    let mut pairs: Vec<(f64, bool)> = scores
        .iter()
        .zip(truth)
        .filter_map(|(s, &t)| s.map(|s| (s, t)))
        .collect();
    let total_pos = pairs.iter().filter(|(_, t)| *t).count() as f64;
    if pairs.is_empty() || total_pos == 0.0 {
        return Vec::new();
    }
    // Descending by score: lowering the threshold admits points in order.
    pairs.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite scores"));

    let mut out = Vec::new();
    let mut tp = 0.0;
    let mut predicted = 0.0;
    let mut i = 0;
    while i < pairs.len() {
        let threshold = pairs[i].0;
        // Admit every sample tied at this score.
        while i < pairs.len() && pairs[i].0 == threshold {
            predicted += 1.0;
            if pairs[i].1 {
                tp += 1.0;
            }
            i += 1;
        }
        out.push(PrPoint {
            threshold,
            recall: tp / total_pos,
            precision: tp / predicted,
        });
    }
    out
}

/// Area under the PR curve \[50\], computed as average precision (the
/// step-function integral over recall). Returns 0 for an empty curve.
pub fn auc_pr(curve: &[PrPoint]) -> f64 {
    let mut area = 0.0;
    let mut prev_recall = 0.0;
    for p in curve {
        area += (p.recall - prev_recall) * p.precision;
        prev_recall = p.recall;
    }
    area
}

/// Convenience: AUCPR directly from scores and truth.
pub fn auc_pr_of(scores: &[Option<f64>], truth: &[bool]) -> f64 {
    auc_pr(&pr_curve(scores, truth))
}

/// The maximum precision among curve points with `recall >= min_recall` —
/// Table 4's "maximum precision when recall ≥ 0.66". `None` when the curve
/// never reaches the recall bar.
pub fn max_precision_at_recall(curve: &[PrPoint], min_recall: f64) -> Option<f64> {
    curve
        .iter()
        .filter(|p| p.recall >= min_recall)
        .map(|p| p.precision)
        .max_by(|a, b| a.partial_cmp(b).expect("finite precision"))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn some(v: &[f64]) -> Vec<Option<f64>> {
        v.iter().map(|&x| Some(x)).collect()
    }

    #[test]
    fn precision_recall_basics() {
        let predicted = [true, true, false, false];
        let truth = [true, false, true, false];
        let (r, p) = precision_recall(&predicted, &truth);
        assert_eq!(r, 0.5);
        assert_eq!(p, 0.5);
    }

    #[test]
    fn no_predictions_has_perfect_precision() {
        let (r, p) = precision_recall(&[false, false], &[true, false]);
        assert_eq!(r, 0.0);
        assert_eq!(p, 1.0);
    }

    #[test]
    fn f_score_harmonic_mean() {
        assert_eq!(f_score(1.0, 1.0), 1.0);
        assert_eq!(f_score(0.0, 1.0), 0.0);
        assert!((f_score(0.5, 1.0) - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn perfect_scores_give_auc_one() {
        let scores = some(&[0.9, 0.8, 0.1, 0.2]);
        let truth = [true, true, false, false];
        let curve = pr_curve(&scores, &truth);
        assert!((auc_pr(&curve) - 1.0).abs() < 1e-12);
        // The top point: recall 0.5, precision 1.
        assert_eq!(curve[0].recall, 0.5);
        assert_eq!(curve[0].precision, 1.0);
    }

    #[test]
    fn inverted_scores_give_low_auc() {
        let scores = some(&[0.1, 0.2, 0.9, 0.8]);
        let truth = [true, true, false, false];
        let auc = auc_pr_of(&scores, &truth);
        assert!(auc < 0.5, "auc {auc}");
    }

    #[test]
    fn random_scores_auc_near_prevalence() {
        // With uninformative scores, AUCPR ≈ positive prevalence.
        let n = 20_000;
        let scores: Vec<Option<f64>> = (0..n)
            .map(|i| Some(((i * 2654435761usize) % 1000) as f64))
            .collect();
        let truth: Vec<bool> = (0..n).map(|i| (i * 40503) % 10 == 0).collect();
        let auc = auc_pr_of(&scores, &truth);
        assert!((auc - 0.1).abs() < 0.03, "auc {auc}");
    }

    #[test]
    fn ties_are_admitted_together() {
        let scores = some(&[0.5, 0.5, 0.5]);
        let truth = [true, false, true];
        let curve = pr_curve(&scores, &truth);
        assert_eq!(curve.len(), 1);
        assert_eq!(curve[0].recall, 1.0);
        assert!((curve[0].precision - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn warm_up_points_are_excluded() {
        let scores = vec![None, Some(0.9), Some(0.1)];
        let truth = [true, true, false];
        let curve = pr_curve(&scores, &truth);
        // Only one positive is scored; full recall reachable.
        assert_eq!(curve.last().unwrap().recall, 1.0);
    }

    #[test]
    fn empty_or_positive_free_curve_is_empty() {
        assert!(pr_curve(&[], &[]).is_empty());
        let scores = some(&[0.1, 0.2]);
        assert!(pr_curve(&scores, &[false, false]).is_empty());
    }

    #[test]
    fn recall_is_monotone_along_curve() {
        let scores = some(&[0.9, 0.1, 0.5, 0.7, 0.3, 0.8]);
        let truth = [true, false, true, false, true, true];
        let curve = pr_curve(&scores, &truth);
        for w in curve.windows(2) {
            assert!(w[0].recall <= w[1].recall);
            assert!(w[0].threshold > w[1].threshold);
        }
        assert_eq!(curve.last().unwrap().recall, 1.0);
    }

    #[test]
    fn max_precision_at_recall_table4_semantics() {
        let curve = vec![
            PrPoint {
                threshold: 0.9,
                recall: 0.3,
                precision: 1.0,
            },
            PrPoint {
                threshold: 0.5,
                recall: 0.7,
                precision: 0.8,
            },
            PrPoint {
                threshold: 0.1,
                recall: 1.0,
                precision: 0.4,
            },
        ];
        assert_eq!(max_precision_at_recall(&curve, 0.66), Some(0.8));
        assert_eq!(max_precision_at_recall(&curve, 0.99), Some(0.4));
        assert_eq!(max_precision_at_recall(&curve, 2.0), None);
    }
}
