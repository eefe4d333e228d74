//! Random forests (Breiman \[28\]) — the learning algorithm Opprentice runs.
//!
//! §4.4.2: "a random forest adds some elements of randomness. First, each
//! tree is trained on subsets sampled from the original training set.
//! Second, instead of evaluating all the features at each level, the trees
//! only consider a random subset of the features each time. All the trees
//! are fully grown in this way without pruning. The random forest then
//! combines those trees by majority vote … if 40 trees out of 100 classify
//! the point into an anomaly, its anomaly probability is 40%."
//!
//! Training parallelizes across trees with scoped threads (the paper notes
//! "training of random forests is also able to be parallelized", §5.8); on
//! a single-core host it degrades to sequential work.
//!
//! **Determinism.** Tree `t` draws its bootstrap sample and split
//! randomness from RNG streams derived *only* from the master seed and `t`
//! (`seed · φ64 + t`, golden-ratio mixing), never from which worker thread
//! built it or in what order. Parallel training is therefore bit-identical
//! to sequential training — [`RandomForest::fit_with_threads`] with any
//! thread count produces the same forest, which `tests/train_differential.rs`
//! proves structurally (tree bytes, probabilities, compiled arena).

use crate::binned::{fit_binned, BinnedDataset};
use crate::tree::{fit_on_indices, DecisionTree, TreeParams};
use crate::{Classifier, Dataset};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Random-forest hyperparameters. The paper stresses that forests "have
/// only two parameters and are not very sensitive to them" \[38\]: the tree
/// count and the per-node feature subset size.
#[derive(Debug, Clone, PartialEq)]
pub struct RandomForestParams {
    /// Number of trees.
    pub n_trees: usize,
    /// Features per node (`None` = √m, the standard default).
    pub max_features: Option<usize>,
    /// Bootstrap sample size as a fraction of the training set.
    pub sample_fraction: f64,
    /// Depth cap (`None` = fully grown, the paper's configuration).
    pub max_depth: Option<usize>,
    /// Histogram split resolution: `Some(bins)` pre-discretizes features
    /// into quantile bins (fast, the default); `None` uses exact CART
    /// splits (slow, for small data or verification).
    pub n_bins: Option<usize>,
    /// Master seed; the forest is deterministic given it.
    pub seed: u64,
}

impl Default for RandomForestParams {
    fn default() -> Self {
        Self {
            n_trees: 60,
            max_features: None,
            sample_fraction: 1.0,
            max_depth: None,
            n_bins: Some(64),
            seed: 42,
        }
    }
}

/// A trained random forest.
pub struct RandomForest {
    params: RandomForestParams,
    trees: Vec<DecisionTree>,
}

impl RandomForest {
    /// Creates an untrained forest.
    pub fn new(params: RandomForestParams) -> Self {
        Self {
            params,
            trees: Vec::new(),
        }
    }

    /// Anomaly probability: the mean of the trees' leaf probabilities —
    /// scikit-learn's `predict_proba` semantics, which the original
    /// prototype used. With fully grown trees the leaves are (near) pure,
    /// so this coincides with the paper's "fraction of trees classifying
    /// the point into an anomaly" up to leaf impurity.
    pub fn predict_proba(&self, features: &[f64]) -> f64 {
        assert!(!self.trees.is_empty(), "forest not fitted");
        let total: f64 = self.trees.iter().map(|t| t.predict_proba(features)).sum();
        total / self.trees.len() as f64
    }

    /// The strict majority-vote fraction of §4.4.2's description ("if 40
    /// trees out of 100 classify the point into an anomaly, its anomaly
    /// probability is 40%").
    pub fn vote_fraction(&self, features: &[f64]) -> f64 {
        assert!(!self.trees.is_empty(), "forest not fitted");
        let votes = self
            .trees
            .iter()
            .filter(|t| t.predict_proba(features) >= 0.5)
            .count();
        votes as f64 / self.trees.len() as f64
    }

    /// Number of trained trees.
    pub fn tree_count(&self) -> usize {
        self.trees.len()
    }

    /// The trained trees (read-only).
    pub fn trees(&self) -> &[DecisionTree] {
        &self.trees
    }

    /// The hyperparameters this forest was created with.
    pub fn params(&self) -> &RandomForestParams {
        &self.params
    }

    /// Assembles a forest from already-built trees and the hyperparameters
    /// they were trained with (persistence restore). Keeping the real
    /// params means a restored forest refits exactly like the original.
    pub(crate) fn from_trees(params: RandomForestParams, trees: Vec<DecisionTree>) -> Self {
        Self { params, trees }
    }

    /// Trains the forest on `data` with an explicit worker-thread count
    /// (clamped to `1..=n_trees`).
    ///
    /// The trained forest is **bit-identical for every thread count**: tree
    /// `t` seeds its bootstrap and split RNGs purely from `(master seed, t)`,
    /// so thread scheduling cannot leak into the model. `threads == 1` runs
    /// a plain sequential loop on the calling thread with no spawning at
    /// all — the reference every parallel run is differentially tested
    /// against. [`Classifier::fit`] delegates here with one thread per
    /// available core.
    pub fn fit_with_threads(&mut self, data: &Dataset, threads: usize) {
        assert!(!data.is_empty(), "empty training set");
        let n = data.len();
        let m = data.n_features();
        let max_features = self
            .params
            .max_features
            .unwrap_or_else(|| (m as f64).sqrt().round().max(1.0) as usize);
        let sample_n = ((n as f64 * self.params.sample_fraction).round() as usize).clamp(1, n);

        let binned = self
            .params
            .n_bins
            .map(|b| BinnedDataset::from_dataset(data, b));
        let n_trees = self.params.n_trees;
        let threads = threads.clamp(1, n_trees.max(1));

        let params = &self.params;
        let binned_ref = binned.as_ref();
        // Everything random about tree `t` derives from this seed alone.
        let build = |t: usize| -> DecisionTree {
            let tree_seed = params
                .seed
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add(t as u64);
            let mut rng = StdRng::seed_from_u64(tree_seed);
            // Bootstrap: sample with replacement.
            let mut indices: Vec<usize> = (0..sample_n).map(|_| rng.gen_range(0..n)).collect();
            let tp = TreeParams {
                max_features: Some(max_features),
                max_depth: params.max_depth,
                min_samples_split: 2,
                seed: tree_seed ^ 0xA5A5_5A5A,
            };
            match binned_ref {
                Some(b) => fit_binned(tp, b, &mut indices),
                None => fit_on_indices(tp, data, &mut indices),
            }
        };

        if threads == 1 {
            self.trees = (0..n_trees).map(build).collect();
            return;
        }

        let chunk = n_trees.div_ceil(threads);
        let mut trees: Vec<(usize, DecisionTree)> = Vec::with_capacity(n_trees);
        std::thread::scope(|scope| {
            let mut handles = Vec::new();
            for t0 in (0..n_trees).step_by(chunk) {
                let hi = (t0 + chunk).min(n_trees);
                let build = &build;
                handles
                    .push(scope.spawn(move || (t0..hi).map(|t| (t, build(t))).collect::<Vec<_>>()));
            }
            for h in handles {
                trees.extend(h.join().expect("tree-training thread panicked"));
            }
        });
        trees.sort_by_key(|(t, _)| *t);
        self.trees = trees.into_iter().map(|(_, t)| t).collect();
    }
}

impl Classifier for RandomForest {
    fn fit(&mut self, data: &Dataset) {
        // Honour the process-wide OPPRENTICE_THREADS budget — the same
        // knob the extraction worker pool uses. Tree construction is
        // bit-identical for any thread count (per-tree seeding).
        self.fit_with_threads(data, opprentice_numeric::parallel::configured_threads());
    }

    fn score(&self, features: &[f64]) -> f64 {
        self.predict_proba(features)
    }

    fn name(&self) -> &'static str {
        "random forest"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Noisy concept: anomaly iff f0 + f1 > 10, plus irrelevant features.
    fn noisy_dataset(n: usize, n_noise: usize, seed: u64) -> Dataset {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut d = Dataset::new(2 + n_noise);
        for _ in 0..n {
            let f0: f64 = rng.gen_range(0.0..10.0);
            let f1: f64 = rng.gen_range(0.0..10.0);
            let mut row = vec![f0, f1];
            for _ in 0..n_noise {
                row.push(rng.gen_range(0.0..10.0));
            }
            d.push(&row, f0 + f1 > 10.0);
        }
        d
    }

    fn accuracy(c: &dyn Classifier, d: &Dataset) -> f64 {
        let correct = (0..d.len())
            .filter(|&i| (c.score(d.row(i)) >= 0.5) == d.label(i))
            .count();
        correct as f64 / d.len() as f64
    }

    #[test]
    fn forest_generalizes_on_held_out_data() {
        let train = noisy_dataset(800, 4, 1);
        let test = noisy_dataset(400, 4, 2);
        let mut f = RandomForest::new(RandomForestParams {
            n_trees: 30,
            ..Default::default()
        });
        f.fit(&train);
        let acc = accuracy(&f, &test);
        assert!(acc > 0.93, "accuracy {acc}");
    }

    #[test]
    fn vote_fraction_is_quantized_and_tracks_probability() {
        let train = noisy_dataset(300, 0, 3);
        let mut f = RandomForest::new(RandomForestParams {
            n_trees: 10,
            ..Default::default()
        });
        f.fit(&train);
        let v = f.vote_fraction(&[5.0, 5.001]);
        // Votes must be a multiple of 1/10.
        assert!((v * 10.0 - (v * 10.0).round()).abs() < 1e-9, "v {v}");
        // Mean-leaf probability stays in [0, 1] and agrees in direction.
        let p_hi = f.predict_proba(&[9.0, 9.0]);
        let p_lo = f.predict_proba(&[1.0, 1.0]);
        assert!((0.0..=1.0).contains(&p_hi) && (0.0..=1.0).contains(&p_lo));
        assert!(p_hi > p_lo);
    }

    #[test]
    fn deterministic_given_seed() {
        let train = noisy_dataset(200, 2, 4);
        let mut a = RandomForest::new(RandomForestParams {
            n_trees: 8,
            seed: 7,
            ..Default::default()
        });
        let mut b = RandomForest::new(RandomForestParams {
            n_trees: 8,
            seed: 7,
            ..Default::default()
        });
        a.fit(&train);
        b.fit(&train);
        let probe = noisy_dataset(50, 2, 5);
        for i in 0..probe.len() {
            assert_eq!(a.predict_proba(probe.row(i)), b.predict_proba(probe.row(i)));
        }
    }

    #[test]
    fn explicit_thread_counts_all_give_the_same_forest() {
        let train = noisy_dataset(250, 3, 13);
        let probe = noisy_dataset(60, 3, 14);
        let params = RandomForestParams {
            n_trees: 9,
            seed: 17,
            ..Default::default()
        };
        let mut reference = RandomForest::new(params.clone());
        reference.fit_with_threads(&train, 1);
        for threads in [2, 3, 4, 8, 64] {
            let mut f = RandomForest::new(params.clone());
            f.fit_with_threads(&train, threads);
            assert_eq!(f.tree_count(), reference.tree_count());
            for i in 0..probe.len() {
                assert_eq!(
                    f.predict_proba(probe.row(i)),
                    reference.predict_proba(probe.row(i)),
                    "threads={threads} point {i}"
                );
            }
        }
        // The default `fit` (auto thread count) matches the reference too.
        let mut auto = RandomForest::new(params);
        auto.fit(&train);
        for i in 0..probe.len() {
            assert_eq!(
                auto.predict_proba(probe.row(i)),
                reference.predict_proba(probe.row(i))
            );
        }
    }

    #[test]
    fn different_seeds_give_different_forests() {
        let train = noisy_dataset(200, 2, 4);
        let mut a = RandomForest::new(RandomForestParams {
            n_trees: 8,
            seed: 7,
            ..Default::default()
        });
        let mut b = RandomForest::new(RandomForestParams {
            n_trees: 8,
            seed: 8,
            ..Default::default()
        });
        a.fit(&train);
        b.fit(&train);
        let probe = noisy_dataset(100, 2, 6);
        let diff = (0..probe.len())
            .filter(|&i| a.predict_proba(probe.row(i)) != b.predict_proba(probe.row(i)))
            .count();
        assert!(diff > 0, "forests identical across seeds");
    }

    #[test]
    fn robust_to_many_irrelevant_features() {
        // The §5.3.2 story in miniature: accuracy holds up as noise
        // features are added.
        let clean_train = noisy_dataset(600, 0, 10);
        let clean_test = noisy_dataset(300, 0, 11);
        let noisy_train = noisy_dataset(600, 30, 10);
        let noisy_test = noisy_dataset(300, 30, 11);

        let mut f1 = RandomForest::new(RandomForestParams {
            n_trees: 30,
            ..Default::default()
        });
        f1.fit(&clean_train);
        let acc_clean = accuracy(&f1, &clean_test);

        let mut f2 = RandomForest::new(RandomForestParams {
            n_trees: 30,
            ..Default::default()
        });
        f2.fit(&noisy_train);
        let acc_noisy = accuracy(&f2, &noisy_test);

        assert!(
            acc_noisy > acc_clean - 0.07,
            "clean {acc_clean} noisy {acc_noisy}"
        );
    }

    #[test]
    fn tree_count_matches_params() {
        let train = noisy_dataset(100, 0, 12);
        let mut f = RandomForest::new(RandomForestParams {
            n_trees: 5,
            ..Default::default()
        });
        f.fit(&train);
        assert_eq!(f.tree_count(), 5);
    }

    #[test]
    #[should_panic(expected = "forest not fitted")]
    fn predict_before_fit_panics() {
        let f = RandomForest::new(RandomForestParams::default());
        let _ = f.predict_proba(&[1.0]);
    }
}

#[cfg(test)]
mod binned_vs_exact_tests {
    use super::*;
    use crate::metrics::auc_pr_of;
    use tests_support::noisy_dataset;

    mod tests_support {
        use super::super::Dataset;
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};

        pub fn noisy_dataset(n: usize, n_noise: usize, seed: u64) -> Dataset {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut d = Dataset::new(2 + n_noise);
            for _ in 0..n {
                let f0: f64 = rng.gen_range(0.0..10.0);
                let f1: f64 = rng.gen_range(0.0..10.0);
                let mut row = vec![f0, f1];
                for _ in 0..n_noise {
                    row.push(rng.gen_range(0.0..10.0));
                }
                d.push(&row, f0 + f1 > 10.0);
            }
            d
        }
    }

    #[test]
    fn binned_forest_matches_exact_forest_accuracy() {
        let train = noisy_dataset(600, 5, 21);
        let test = noisy_dataset(400, 5, 22);
        let auc = |n_bins: Option<usize>| {
            let mut f = RandomForest::new(RandomForestParams {
                n_trees: 20,
                n_bins,
                ..Default::default()
            });
            f.fit(&train);
            let scores: Vec<Option<f64>> = (0..test.len())
                .map(|i| Some(f.score(test.row(i))))
                .collect();
            auc_pr_of(&scores, test.labels())
        };
        let exact = auc(None);
        let binned = auc(Some(64));
        assert!(exact > 0.9, "exact {exact}");
        assert!(binned > exact - 0.05, "binned {binned} vs exact {exact}");
    }
}
