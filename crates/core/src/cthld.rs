//! cThld configuration (§4.5.1): turning an accuracy preference into a
//! classification threshold.
//!
//! "Configuring cThlds is a general method to trade off between precision
//! and recall … we develop a simple but effective accuracy metric based on
//! F-Score, namely PC-Score (preference-centric score), to explicitly take
//! operators' preference into account when deciding cThlds."

use opprentice_learn::metrics::{f_score, PrPoint};

/// The operators' accuracy preference: "recall ≥ recall and
/// precision ≥ precision" (§2.2). The operators in the paper specified
/// 0.66 / 0.66.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Preference {
    /// Minimum acceptable recall.
    pub recall: f64,
    /// Minimum acceptable precision.
    pub precision: f64,
}

impl Preference {
    /// The paper's studied preference: recall ≥ 0.66 and precision ≥ 0.66.
    pub fn moderate() -> Self {
        Self {
            recall: 0.66,
            precision: 0.66,
        }
    }

    /// §5.5's "sensitive-to-precision": recall ≥ 0.6 and precision ≥ 0.8.
    pub fn sensitive_to_precision() -> Self {
        Self {
            recall: 0.6,
            precision: 0.8,
        }
    }

    /// §5.5's "sensitive-to-recall": recall ≥ 0.8 and precision ≥ 0.6.
    pub fn sensitive_to_recall() -> Self {
        Self {
            recall: 0.8,
            precision: 0.6,
        }
    }

    /// Whether an operating point satisfies the preference.
    pub fn satisfied_by(&self, recall: f64, precision: f64) -> bool {
        recall >= self.recall && precision >= self.precision
    }

    /// The preference box scaled down by `ratio ≥ 1` (Fig. 12's line
    /// charts "lower" the preference by scaling the box up; requiring
    /// `r ≥ R/ratio` is the same box growth).
    pub fn scaled(&self, ratio: f64) -> Preference {
        Preference {
            recall: self.recall / ratio,
            precision: self.precision / ratio,
        }
    }
}

/// The PC-Score of an operating point (§4.5.1): its F-Score, plus an
/// incentive constant of 1 when the point satisfies the preference — which
/// guarantees satisfying points always outrank non-satisfying ones.
pub fn pc_score(recall: f64, precision: f64, pref: &Preference) -> f64 {
    let f = f_score(recall, precision);
    if pref.satisfied_by(recall, precision) {
        f + 1.0
    } else {
        f
    }
}

/// The cThld-selection metrics compared in §5.5 / Fig. 12.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CthldMetric {
    /// The random forest's default threshold, 0.5.
    Default,
    /// Maximize the F-Score.
    FScore,
    /// SD(1,1) \[46\]: minimize the Euclidean distance to (recall, precision)
    /// = (1, 1).
    Sd11,
    /// Maximize the PC-Score for a preference — Opprentice's choice.
    PcScore(Preference),
}

/// Selects the operating point of `curve` under `metric`. Returns `None`
/// for an empty curve.
pub fn select_operating_point(curve: &[PrPoint], metric: CthldMetric) -> Option<PrPoint> {
    if curve.is_empty() {
        return None;
    }
    match metric {
        CthldMetric::Default => {
            // Operating at cThld 0.5 admits every point scored >= 0.5: the
            // lowest-threshold curve point still at or above 0.5, or "no
            // detections" when the whole curve sits below.
            curve
                .iter()
                .rev()
                .find(|p| p.threshold >= 0.5)
                .copied()
                .or(Some(PrPoint {
                    threshold: 0.5,
                    recall: 0.0,
                    precision: 1.0,
                }))
        }
        CthldMetric::FScore => curve
            .iter()
            .max_by(|a, b| {
                f_score(a.recall, a.precision)
                    .partial_cmp(&f_score(b.recall, b.precision))
                    .expect("finite f-score")
            })
            .copied(),
        CthldMetric::Sd11 => curve
            .iter()
            .min_by(|a, b| {
                let d = |p: &PrPoint| (1.0 - p.recall).powi(2) + (1.0 - p.precision).powi(2);
                d(a).partial_cmp(&d(b)).expect("finite distance")
            })
            .copied(),
        CthldMetric::PcScore(pref) => curve
            .iter()
            .max_by(|a, b| {
                pc_score(a.recall, a.precision, &pref)
                    .partial_cmp(&pc_score(b.recall, b.precision, &pref))
                    .expect("finite pc-score")
            })
            .copied(),
    }
}

/// The best cThld of a curve under the PC-Score (§4.5.2's "best cThld"):
/// the threshold of the PC-Score-optimal point.
pub fn best_cthld(curve: &[PrPoint], pref: &Preference) -> Option<f64> {
    select_operating_point(curve, CthldMetric::PcScore(*pref)).map(|p| p.threshold)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn point(t: f64, r: f64, p: f64) -> PrPoint {
        PrPoint {
            threshold: t,
            recall: r,
            precision: p,
        }
    }

    /// A curve shaped like Fig. 6: high precision at low recall, decaying.
    fn fig6_like_curve() -> Vec<PrPoint> {
        vec![
            point(0.95, 0.2, 0.98),
            point(0.80, 0.45, 0.95),
            point(0.60, 0.55, 0.92),
            point(0.45, 0.70, 0.80),
            point(0.30, 0.80, 0.65),
            point(0.15, 0.90, 0.40),
            point(0.05, 1.00, 0.15),
        ]
    }

    #[test]
    fn pc_score_adds_incentive_inside_preference() {
        let pref = Preference::moderate();
        let inside = pc_score(0.7, 0.7, &pref);
        let outside = pc_score(0.99, 0.65, &pref);
        assert!(inside > 1.0);
        assert!(outside < 1.0);
        assert!(inside > outside);
    }

    #[test]
    fn satisfying_points_always_outrank_non_satisfying() {
        let pref = Preference {
            recall: 0.5,
            precision: 0.9,
        };
        // A barely-satisfying point vs a high-F non-satisfying point.
        assert!(pc_score(0.5, 0.9, &pref) > pc_score(0.95, 0.89, &pref));
    }

    #[test]
    fn pc_score_selection_adapts_to_preference() {
        let curve = fig6_like_curve();
        // Preference (1): recall >= 0.75, precision >= 0.6.
        let p1 = select_operating_point(
            &curve,
            CthldMetric::PcScore(Preference {
                recall: 0.75,
                precision: 0.6,
            }),
        )
        .unwrap();
        assert!(p1.recall >= 0.75 && p1.precision >= 0.6, "{p1:?}");
        // Preference (2): recall >= 0.5, precision >= 0.9.
        let p2 = select_operating_point(
            &curve,
            CthldMetric::PcScore(Preference {
                recall: 0.5,
                precision: 0.9,
            }),
        )
        .unwrap();
        assert!(p2.recall >= 0.5 && p2.precision >= 0.9, "{p2:?}");
        assert_ne!(p1.threshold, p2.threshold);
    }

    #[test]
    fn fscore_and_sd11_ignore_the_preference() {
        let curve = fig6_like_curve();
        let f1 = select_operating_point(&curve, CthldMetric::FScore).unwrap();
        let s1 = select_operating_point(&curve, CthldMetric::Sd11).unwrap();
        // Same answer regardless of any preference — they take none.
        assert_eq!(
            f1,
            select_operating_point(&curve, CthldMetric::FScore).unwrap()
        );
        assert_eq!(
            s1,
            select_operating_point(&curve, CthldMetric::Sd11).unwrap()
        );
    }

    #[test]
    fn default_metric_operates_at_half() {
        let curve = fig6_like_curve();
        let d = select_operating_point(&curve, CthldMetric::Default).unwrap();
        assert_eq!(d.threshold, 0.60); // lowest curve threshold >= 0.5
                                       // All-below-0.5 curve: no detections.
        let low = vec![point(0.3, 0.9, 0.9)];
        let d2 = select_operating_point(&low, CthldMetric::Default).unwrap();
        assert_eq!(d2.recall, 0.0);
        assert_eq!(d2.precision, 1.0);
    }

    #[test]
    fn unsatisfiable_preference_still_picks_best_fscore() {
        // §4.5.1: "in the case when a PR curve has no points inside the
        // preference region … it can still choose approximate recall and
        // precision."
        let curve = vec![
            point(0.9, 0.2, 0.3),
            point(0.5, 0.4, 0.25),
            point(0.1, 0.6, 0.2),
        ];
        let pref = Preference {
            recall: 0.95,
            precision: 0.95,
        };
        let chosen = select_operating_point(&curve, CthldMetric::PcScore(pref)).unwrap();
        let f_best = curve
            .iter()
            .map(|p| f_score(p.recall, p.precision))
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(f_score(chosen.recall, chosen.precision), f_best);
    }

    #[test]
    fn scaled_preference_grows_the_box() {
        let pref = Preference::moderate();
        let scaled = pref.scaled(2.0);
        assert!(scaled.recall < pref.recall);
        assert!(scaled.satisfied_by(0.4, 0.4));
        assert!(!pref.satisfied_by(0.4, 0.4));
    }

    #[test]
    fn empty_curve_yields_none() {
        assert_eq!(select_operating_point(&[], CthldMetric::FScore), None);
        assert_eq!(best_cthld(&[], &Preference::moderate()), None);
    }
}
