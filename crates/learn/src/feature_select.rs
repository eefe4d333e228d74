//! Mutual-information feature ranking.
//!
//! §5.3.2: "The features are added in the order of their mutual information
//! \[51\], a common metric of feature selection." Each feature is discretized
//! into quantile bins and its MI with the binary label computed; the
//! Fig. 10 experiment trains every learner on the top-k features for
//! growing k.

use crate::Dataset;

/// Number of quantile bins used to discretize a feature.
const BINS: usize = 16;

/// Mutual information (nats) between quantile-binned `values` and the
/// binary `labels`.
pub fn mutual_information(values: &[f64], labels: &[bool]) -> f64 {
    assert_eq!(values.len(), labels.len(), "length mismatch");
    let n = values.len();
    if n == 0 {
        return 0.0;
    }

    // Quantile bin edges.
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("finite values"));
    let edges: Vec<f64> = (1..BINS).map(|b| sorted[b * n / BINS]).collect();
    let bin_of = |v: f64| edges.partition_point(|&e| e <= v);

    let mut joint = [[0usize; 2]; BINS];
    let mut label_count = [0usize; 2];
    for (&v, &l) in values.iter().zip(labels) {
        joint[bin_of(v)][l as usize] += 1;
        label_count[l as usize] += 1;
    }

    let nf = n as f64;
    let mut mi = 0.0;
    for row in &joint {
        let bin_total = (row[0] + row[1]) as f64;
        if bin_total == 0.0 {
            continue;
        }
        for y in 0..2 {
            let c = row[y] as f64;
            if c == 0.0 || label_count[y] == 0 {
                continue;
            }
            let p_xy = c / nf;
            let p_x = bin_total / nf;
            let p_y = label_count[y] as f64 / nf;
            mi += p_xy * (p_xy / (p_x * p_y)).ln();
        }
    }
    mi.max(0.0)
}

/// Ranks all feature columns by mutual information with the labels,
/// descending. Returns `(column, mi)` pairs.
pub fn rank_features(data: &Dataset) -> Vec<(usize, f64)> {
    let mut ranked: Vec<(usize, f64)> = (0..data.n_features())
        .map(|c| (c, mutual_information(&data.column(c), data.labels())))
        .collect();
    ranked.sort_by(|a, b| {
        b.1.partial_cmp(&a.1)
            .expect("finite MI")
            .then(a.0.cmp(&b.0))
    });
    ranked
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn perfectly_informative_feature_has_high_mi() {
        let labels: Vec<bool> = (0..1000).map(|i| i % 5 == 0).collect();
        let values: Vec<f64> = labels.iter().map(|&l| if l { 10.0 } else { 0.0 }).collect();
        let mi = mutual_information(&values, &labels);
        // Upper bound is H(Y) = 0.2 ln(1/0.2) + 0.8 ln(1/0.8) ≈ 0.5 nats.
        assert!(mi > 0.4, "mi {mi}");
    }

    #[test]
    fn independent_feature_has_near_zero_mi() {
        let labels: Vec<bool> = (0..2000).map(|i| i % 5 == 0).collect();
        let values: Vec<f64> = (0..2000)
            .map(|i| ((i * 2654435761usize) % 997) as f64)
            .collect();
        let mi = mutual_information(&values, &labels);
        assert!(mi < 0.02, "mi {mi}");
    }

    #[test]
    fn constant_feature_has_zero_mi() {
        let labels: Vec<bool> = (0..100).map(|i| i % 2 == 0).collect();
        let mi = mutual_information(&[3.0; 100], &labels);
        assert!(mi.abs() < 1e-12);
    }

    #[test]
    fn ranking_puts_informative_feature_first() {
        let mut d = Dataset::new(3);
        for i in 0..500 {
            let label = i % 4 == 0;
            let informative = if label { 5.0 } else { 0.0 };
            let noisy = ((i * 7919) % 100) as f64;
            let partial = if label { 3.0 } else { ((i * 31) % 6) as f64 };
            d.push(&[noisy, informative, partial], label);
        }
        let ranked = rank_features(&d);
        assert_eq!(ranked[0].0, 1, "{ranked:?}");
        assert_eq!(ranked[2].0, 0, "{ranked:?}");
        assert!(ranked[0].1 > ranked[1].1 && ranked[1].1 > ranked[2].1);
    }

    #[test]
    fn mi_is_symmetric_under_label_flip() {
        let labels: Vec<bool> = (0..400).map(|i| i % 3 == 0).collect();
        let flipped: Vec<bool> = labels.iter().map(|l| !l).collect();
        let values: Vec<f64> = (0..400).map(|i| (i % 7) as f64).collect();
        let a = mutual_information(&values, &labels);
        let b = mutual_information(&values, &flipped);
        assert!((a - b).abs() < 1e-12);
    }
}
