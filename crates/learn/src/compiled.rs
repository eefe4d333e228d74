//! Compiled (flattened) forest inference — the serving hot path.
//!
//! [`crate::forest::RandomForest::predict_proba`] walks a `Vec<Node>` of
//! enum variants per tree: every step pattern-matches a tag and chases a
//! child index laid out in training (depth-first) order. That is fine for
//! evaluation but wasteful for a server scoring every incoming point: the
//! match is an unpredictable branch and the node layout scatters each
//! root-to-leaf path across the allocation.
//!
//! [`CompiledForest`] flattens a trained forest into one contiguous node
//! arena shared by all trees. Each node packs into a single 16-byte record
//! (half the size of the training-time enum node), so one descent step
//! touches exactly one cache line:
//!
//! * `feature: u32` — split feature index, or `LEAF` for leaves,
//! * `first_child: u32` — arena index of the `< threshold` child; the
//!   `>=` child is always the next slot, so descending a level is the
//!   branch-free `idx = first_child + (x >= threshold)`,
//! * `threshold: f64` — split threshold; for leaves this slot holds the
//!   leaf's anomaly probability (leaves are encoded inline — no separate
//!   leaf table, no enum tag).
//!
//! Trees are laid out breadth-first, so the top of every tree — the nodes
//! every single prediction touches — sits in a few consecutive cache
//! lines. Predictions are bit-identical to the tree-walk path: the same
//! `x < threshold` comparison picks the same child, the same leaf
//! probabilities accumulate in the same tree order, and the same division
//! produces the same `f64`. The arena is also the stored model
//! ([`crate::persist`]).

use crate::forest::RandomForest;
use crate::tree::Node;

/// Sentinel in [`PackedNode::feature`] marking a leaf slot.
pub(crate) const LEAF: u32 = u32::MAX;

/// One flattened node: 16 bytes, so a 64-byte cache line holds four.
/// Equality compares thresholds as `f64` values (always finite here) — used
/// by the differential suite to prove two compiled arenas identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct PackedNode {
    /// Split feature index; `LEAF` marks leaves.
    pub(crate) feature: u32,
    /// Arena index of the `< threshold` child; the `>=` child is
    /// `first_child + 1`. Unused (0) for leaves.
    pub(crate) first_child: u32,
    /// Split threshold; leaf probability for leaf slots.
    pub(crate) threshold: f64,
}

/// A trained [`RandomForest`] flattened for fast inference.
///
/// Build one with [`RandomForest::compile`], or decode a stored one with
/// [`CompiledForest::from_bytes`]; it borrows nothing and can be sent to
/// another thread. Compiling is cheap (one pass over the nodes) and done
/// once per retrain, not per prediction.
#[derive(Debug, Clone, PartialEq)]
pub struct CompiledForest {
    /// All trees' nodes, each tree breadth-first in its own contiguous
    /// run: the `k`-th split of a tree rooted at `r` has its children at
    /// `r + 1 + 2k`.
    pub(crate) nodes: Vec<PackedNode>,
    /// Root slot of each tree, in training order.
    pub(crate) roots: Vec<u32>,
}

impl CompiledForest {
    /// Lays out one tree breadth-first so each split's children occupy
    /// adjacent slots. Returns the root's arena index.
    fn compile_tree(&mut self, nodes: &[Node]) -> u32 {
        let root = self.alloc(1);
        // (index into `nodes`, assigned arena slot) — a FIFO gives the
        // breadth-first order; the arena grows exactly nodes.len() slots.
        let mut queue = std::collections::VecDeque::from([(0usize, root)]);
        while let Some((ni, slot)) = queue.pop_front() {
            match nodes[ni] {
                Node::Leaf { prob } => {
                    self.nodes[slot as usize] = PackedNode {
                        feature: LEAF,
                        first_child: 0,
                        threshold: prob,
                    };
                }
                Node::Split {
                    feature,
                    threshold,
                    left,
                    right,
                } => {
                    let base = self.alloc(2);
                    self.nodes[slot as usize] = PackedNode {
                        feature: feature as u32,
                        first_child: base,
                        threshold,
                    };
                    queue.push_back((left, base));
                    queue.push_back((right, base + 1));
                }
            }
        }
        root
    }

    /// Reserves `n` zeroed adjacent slots, returning the first index.
    fn alloc(&mut self, n: usize) -> u32 {
        let at = self.nodes.len() as u32;
        self.nodes.resize(
            self.nodes.len() + n,
            PackedNode {
                feature: LEAF,
                first_child: 0,
                threshold: 0.0,
            },
        );
        at
    }

    /// Number of trees.
    pub fn tree_count(&self) -> usize {
        self.roots.len()
    }

    /// Total arena slots (equals the forest's total node count).
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Heap bytes the model holds: 16 per node, 4 per tree.
    pub fn heap_bytes(&self) -> usize {
        self.nodes.capacity() * std::mem::size_of::<PackedNode>()
            + self.roots.capacity() * std::mem::size_of::<u32>()
    }

    /// Walks one tree to its leaf probability.
    // The negated comparison is deliberate: it is the exact complement the
    // tree-walk branch takes, including for NaN (see below).
    #[allow(clippy::neg_cmp_op_on_partial_ord)]
    #[inline]
    fn leaf_prob(&self, root: u32, features: &[f64]) -> f64 {
        let mut node = self.nodes[root as usize];
        while node.feature != LEAF {
            // `!(x < t)` rather than `x >= t` so NaN features take the same
            // (right) branch the tree-walk `if x < t { left } else { right }`
            // takes — bit-identical on *any* input, not just finite ones.
            let right = !(features[node.feature as usize] < node.threshold) as u32;
            node = self.nodes[(node.first_child + right) as usize];
        }
        node.threshold
    }

    /// Anomaly probability of one sample — bit-identical to
    /// [`RandomForest::predict_proba`] on the source forest.
    pub fn predict(&self, features: &[f64]) -> f64 {
        let total: f64 = self
            .roots
            .iter()
            .map(|&root| self.leaf_prob(root, features))
            .sum();
        total / self.roots.len() as f64
    }

    /// Anomaly probabilities of a batch of samples.
    ///
    /// Rows are scored one at a time, trees inner: a row's features (~1 KiB
    /// at 133 features) stay L1-resident across every tree, while the arena
    /// streams through once per row. (A trees-outer row-blocked variant was
    /// measured and lost on realistic arena sizes — the shared top-of-tree
    /// nodes are few, and re-streaming a block of wide rows per tree costs
    /// more than it saves.) Every output is bit-identical to
    /// [`CompiledForest::predict`] (and hence to the tree walk) on the same
    /// row.
    pub fn predict_batch<R: AsRef<[f64]>>(&self, rows: &[R]) -> Vec<f64> {
        rows.iter().map(|row| self.predict(row.as_ref())).collect()
    }
}

impl RandomForest {
    /// Flattens the fitted forest into a [`CompiledForest`] for serving.
    ///
    /// # Panics
    ///
    /// Panics if the forest has not been fitted.
    pub fn compile(&self) -> CompiledForest {
        assert!(self.tree_count() > 0, "forest not fitted");
        let total: usize = self.trees().iter().map(|t| t.node_count()).sum();
        let mut compiled = CompiledForest {
            nodes: Vec::with_capacity(total),
            roots: Vec::with_capacity(self.tree_count()),
        };
        for tree in self.trees() {
            let root = compiled.compile_tree(tree.nodes());
            compiled.roots.push(root);
        }
        compiled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::RandomForestParams;
    use crate::{Classifier, Dataset};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

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

    #[test]
    fn compiled_matches_tree_walk_bit_for_bit() {
        let train = noisy_dataset(400, 3, 9);
        let mut f = RandomForest::new(RandomForestParams {
            n_trees: 17,
            seed: 11,
            ..Default::default()
        });
        f.fit(&train);
        let compiled = f.compile();
        assert_eq!(compiled.tree_count(), 17);
        let probes = noisy_dataset(200, 3, 10);
        for i in 0..probes.len() {
            let walk = f.predict_proba(probes.row(i));
            let fast = compiled.predict(probes.row(i));
            assert_eq!(walk.to_bits(), fast.to_bits(), "row {i}");
        }
    }

    #[test]
    fn predict_batch_matches_predict() {
        let train = noisy_dataset(300, 0, 12);
        let mut f = RandomForest::new(RandomForestParams {
            n_trees: 8,
            ..Default::default()
        });
        f.fit(&train);
        let compiled = f.compile();
        let probes = noisy_dataset(64, 0, 13);
        let rows: Vec<&[f64]> = (0..probes.len()).map(|i| probes.row(i)).collect();
        let batch = compiled.predict_batch(&rows);
        for (i, row) in rows.iter().enumerate() {
            assert_eq!(batch[i].to_bits(), compiled.predict(row).to_bits());
        }
    }

    #[test]
    fn arena_size_matches_source_forest() {
        let train = noisy_dataset(200, 1, 14);
        let mut f = RandomForest::new(RandomForestParams {
            n_trees: 5,
            ..Default::default()
        });
        f.fit(&train);
        let compiled = f.compile();
        let total: usize = f.trees().iter().map(|t| t.node_count()).sum();
        assert_eq!(compiled.node_count(), total);
    }

    #[test]
    fn single_leaf_trees_compile() {
        // A constant-label dataset grows pure single-leaf trees.
        let mut d = Dataset::new(1);
        for i in 0..8 {
            d.push(&[i as f64], false);
        }
        let mut f = RandomForest::new(RandomForestParams {
            n_trees: 3,
            ..Default::default()
        });
        f.fit(&d);
        let compiled = f.compile();
        assert_eq!(compiled.predict(&[5.0]), 0.0);
        assert_eq!(compiled.predict(&[5.0]), f.predict_proba(&[5.0]));
    }

    #[test]
    #[should_panic(expected = "forest not fitted")]
    fn compiling_unfitted_forest_panics() {
        let f = RandomForest::new(RandomForestParams::default());
        let _ = f.compile();
    }
}
