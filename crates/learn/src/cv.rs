//! Contiguous k-fold splits.
//!
//! §4.5.2's baseline cThld predictor: "a historical training set is divided
//! into k subsets of the same length. In each test (k tests in total), a
//! classifier is trained using k−1 of the subsets and tested on the rest
//! one with a cThld candidate." Folds are *contiguous* because the data is
//! a time series — shuffling points across time would leak seasonal
//! context between train and test.
//!
//! A fold is its held-out block; its training part is every other row,
//! which [`crate::RandomForest::fit_held_out`] trains on without a copy.

use std::ops::Range;

/// Splits `n` samples into `k` contiguous folds, returning each fold's
/// held-out block in order. Earlier folds absorb the remainder, so fold
/// sizes differ by at most one.
///
/// # Panics
///
/// Panics if `k == 0` or `k > n`.
pub fn k_fold(n: usize, k: usize) -> Vec<Range<usize>> {
    assert!(k > 0, "k must be positive");
    assert!(k <= n, "more folds than samples");
    let base = n / k;
    let extra = n % k;
    let mut folds = Vec::with_capacity(k);
    let mut start = 0usize;
    for f in 0..k {
        let len = base + usize::from(f < extra);
        folds.push(start..start + len);
        start += len;
    }
    folds
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn folds_partition_the_data() {
        let folds = k_fold(103, 5);
        assert_eq!(folds.len(), 5);
        let mut covered = [false; 103];
        for f in &folds {
            for i in f.clone() {
                assert!(!covered[i], "index {i} in two test folds");
                covered[i] = true;
            }
        }
        assert!(covered.iter().all(|&c| c));
    }

    #[test]
    fn fold_sizes_balanced() {
        let folds = k_fold(103, 5);
        let sizes: Vec<usize> = folds.iter().map(|f| f.len()).collect();
        assert_eq!(sizes.iter().sum::<usize>(), 103);
        assert!(sizes.iter().all(|&s| s == 20 || s == 21));
    }

    #[test]
    fn test_blocks_are_contiguous_and_ordered() {
        let folds = k_fold(60, 4);
        for w in folds.windows(2) {
            assert_eq!(w[0].end, w[1].start);
        }
    }

    #[test]
    #[should_panic(expected = "more folds than samples")]
    fn too_many_folds_rejected() {
        let _ = k_fold(3, 5);
    }
}
