//! Compact binary persistence for trained models.
//!
//! A deployed Opprentice instance retrains weekly (§4.1) but must survive
//! process restarts without waiting a week, so the model that serves, the
//! [`CompiledForest`] arena, is saved and restored in a small custom
//! binary layout (no general serialization framework for model weights):
//!
//! ```text
//! magic "OPRF" | version u16 = 6
//! tree_count u32
//! per tree:  n_nodes u32
//! per node:  feature u32 (u32::MAX = leaf) | value f64 (threshold, or leaf probability)
//! ```
//!
//! Nodes follow the arena's breadth-first order. No child link or root
//! index is stored: the `k`-th split of a tree has its children at
//! `root + 1 + 2k`, and each tree starts where the previous one ends, so
//! the decoder rebuilds both and no file can express a cycle or a shared
//! child. Decoding refuses a tree whose splits do not close over its node
//! count, a split on a feature the caller's rows do not have, and a leaf
//! probability outside `[0, 1]`, and never allocates more than the length
//! of its input justifies: a decoded model predicts on any row of
//! `n_features` values without panicking.
//!
//! Integers are little-endian. v1 and v3 held the training-time forest
//! (v3 is still [`RandomForest::to_bytes`], its fingerprint, which nothing
//! decodes); v2, v4 and v5 are `opprentice-core`'s session snapshot.

use crate::compiled::{CompiledForest, PackedNode, LEAF};
use crate::forest::{RandomForest, RandomForestParams};
use crate::tree::{DecisionTree, Node};
use bytes::{Buf, BufMut};

const MAGIC: &[u8; 4] = b"OPRF";
/// The version of the compiled-model layout.
const MODEL_VERSION: u16 = 6;
/// Bytes of one stored node: `feature u32 | value f64`.
const NODE_BYTES: usize = 12;

/// Errors produced when decoding a persisted model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The buffer ended before the structure was complete.
    Truncated,
    /// The magic bytes did not match.
    BadMagic,
    /// The format version is not supported.
    UnsupportedVersion(u16),
    /// Bytes remained after the last tree.
    TrailingBytes(usize),
    /// A hyperparameter field held a value outside its legal domain.
    BadParam(&'static str),
    /// The model could not serve; the reason is named.
    BadModel(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Truncated => write!(f, "buffer truncated"),
            PersistError::BadMagic => write!(f, "bad magic bytes"),
            PersistError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            PersistError::TrailingBytes(n) => write!(f, "{n} trailing bytes after last tree"),
            PersistError::BadParam(name) => write!(f, "hyperparameter `{name}` out of domain"),
            PersistError::BadModel(why) => write!(f, "unservable model: {why}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Appends the hyperparameter block (`n_trees u32 | sample_fraction f64 |
/// seed u64 | opt u8 (bit0 max_features, bit1 max_depth, bit2 n_bins) |
/// [u32 each]`) to `out`. The session snapshot in `opprentice-core` and
/// the forest fingerprint embed it.
pub fn encode_params(p: &RandomForestParams, out: &mut Vec<u8>) {
    out.put_u32_le(p.n_trees as u32);
    out.put_f64_le(p.sample_fraction);
    out.put_u64_le(p.seed);
    let opt = u8::from(p.max_features.is_some())
        | u8::from(p.max_depth.is_some()) << 1
        | u8::from(p.n_bins.is_some()) << 2;
    out.put_u8(opt);
    for field in [p.max_features, p.max_depth, p.n_bins]
        .into_iter()
        .flatten()
    {
        out.put_u32_le(field as u32);
    }
}

/// Reads a block written by [`encode_params`] off the front of `buf`,
/// validating every field and length before use.
///
/// # Errors
///
/// [`PersistError::Truncated`] if `buf` ends inside the block;
/// [`PersistError::BadParam`] if the optional-params bitmap has unknown
/// bits, or the params are ones no fit can use
/// ([`RandomForestParams::validate`] names the field).
pub fn decode_params(buf: &mut &[u8]) -> Result<RandomForestParams, PersistError> {
    if buf.remaining() < 4 + 8 + 8 + 1 {
        return Err(PersistError::Truncated);
    }
    let n_trees = buf.get_u32_le() as usize;
    let sample_fraction = buf.get_f64_le();
    let seed = buf.get_u64_le();
    let opt = buf.get_u8();
    if opt > 0b111 {
        return Err(PersistError::BadParam("optional-params bitmap"));
    }
    let mut opt_field = |bit: u8| -> Result<Option<usize>, PersistError> {
        if opt & (1 << bit) == 0 {
            return Ok(None);
        }
        if buf.remaining() < 4 {
            return Err(PersistError::Truncated);
        }
        Ok(Some(buf.get_u32_le() as usize))
    };
    let max_features = opt_field(0)?;
    let max_depth = opt_field(1)?;
    let n_bins = opt_field(2)?;
    let params = RandomForestParams {
        n_trees,
        max_features,
        sample_fraction,
        max_depth,
        n_bins,
        seed,
    };
    params.validate().map_err(PersistError::BadParam)?;
    Ok(params)
}

fn encode_tree(tree: &DecisionTree, out: &mut Vec<u8>) {
    let nodes = tree.nodes();
    out.put_u32_le(nodes.len() as u32);
    for node in nodes {
        match node {
            Node::Leaf { prob } => {
                out.put_u8(0);
                out.put_f64_le(*prob);
            }
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                out.put_u8(1);
                out.put_u32_le(*feature as u32);
                out.put_f64_le(*threshold);
                out.put_u32_le(*left as u32);
                out.put_u32_le(*right as u32);
            }
        }
    }
}

impl RandomForest {
    /// Serializes the trained trees and their hyperparameters in the v3
    /// layout (`magic | version u16 = 3 | params block | tree_count u32`,
    /// then per tree `n_nodes u32` and per node a tag byte: `0` = leaf
    /// `{ prob f64 }`, `1` = split `{ feature u32, threshold f64, left u32,
    /// right u32 }`, in training order).
    ///
    /// This is the forest's canonical fingerprint: every node of every
    /// tree, for comparing and hashing forests. Nothing decodes it; the
    /// stored model is [`CompiledForest::to_bytes`].
    ///
    /// # Panics
    ///
    /// Panics if the forest has not been fitted.
    pub fn to_bytes(&self) -> Vec<u8> {
        assert!(self.tree_count() > 0, "forest not fitted");
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.put_u16_le(3);
        encode_params(self.params(), &mut out);
        out.put_u32_le(self.tree_count() as u32);
        for tree in self.trees() {
            encode_tree(tree, &mut out);
        }
        out
    }
}

impl CompiledForest {
    /// Serializes the model in the v6 layout of the module docs.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = MAGIC.to_vec();
        out.put_u16_le(MODEL_VERSION);
        out.put_u32_le(self.roots.len() as u32);
        for (t, &root) in self.roots.iter().enumerate() {
            let end = self
                .roots
                .get(t + 1)
                .map_or(self.nodes.len(), |&r| r as usize);
            let tree = &self.nodes[root as usize..end];
            out.put_u32_le(tree.len() as u32);
            for node in tree {
                out.put_u32_le(node.feature);
                out.put_f64_le(node.threshold);
            }
        }
        out
    }

    /// Decodes [`CompiledForest::to_bytes`] output for rows of
    /// `n_features` values. The model predicts bit-identically to the one
    /// encoded.
    ///
    /// # Errors
    ///
    /// [`PersistError::BadModel`] names why a well-framed model could not
    /// serve (see the module docs); the other variants reject the framing.
    pub fn from_bytes(mut buf: &[u8], n_features: usize) -> Result<CompiledForest, PersistError> {
        if buf.remaining() < 4 + 2 + 4 {
            return Err(PersistError::Truncated);
        }
        if buf.get_u32_le() != u32::from_le_bytes(*MAGIC) {
            return Err(PersistError::BadMagic);
        }
        let version = buf.get_u16_le();
        if version != MODEL_VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }
        let n_trees = buf.get_u32_le() as usize;
        if n_trees == 0 {
            return Err(PersistError::BadModel("no trees"));
        }
        // Each tree takes its count and at least one node, and every byte
        // past the counts belongs to a node: both allocations are bounded
        // by the buffer, and exact for a well-formed one.
        if n_trees as u64 * (4 + NODE_BYTES) as u64 > buf.remaining() as u64 {
            return Err(PersistError::Truncated);
        }
        let mut roots = Vec::with_capacity(n_trees);
        let mut nodes = Vec::with_capacity((buf.remaining() - 4 * n_trees) / NODE_BYTES);
        for _ in 0..n_trees {
            if buf.remaining() < 4 {
                return Err(PersistError::Truncated);
            }
            let n_nodes = buf.get_u32_le() as usize;
            if n_nodes as u64 * NODE_BYTES as u64 > buf.remaining() as u64 {
                return Err(PersistError::Truncated);
            }
            let root = nodes.len() as u32;
            roots.push(root);
            // Slots handed out so far: the root, then two per split. A node
            // past them is one no split reaches.
            let unclosed = PersistError::BadModel("tree splits do not close");
            let mut reached = 1;
            for slot in 0..n_nodes {
                if slot >= reached {
                    return Err(unclosed);
                }
                let (feature, value) = (buf.get_u32_le(), buf.get_f64_le());
                let first_child = if feature != LEAF {
                    if feature as usize >= n_features {
                        return Err(PersistError::BadModel("split feature past the row width"));
                    }
                    reached += 2;
                    root + reached as u32 - 2
                } else if (0.0..=1.0).contains(&value) {
                    0
                } else {
                    return Err(PersistError::BadModel("leaf probability outside [0, 1]"));
                };
                nodes.push(PackedNode {
                    feature,
                    first_child,
                    threshold: value,
                });
            }
            if reached != n_nodes {
                return Err(unclosed);
            }
        }
        if buf.has_remaining() {
            return Err(PersistError::TrailingBytes(buf.remaining()));
        }
        Ok(CompiledForest { nodes, roots })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::RandomForestParams;
    use crate::{Classifier, Dataset};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn trained_forest(n_bins: Option<usize>) -> (RandomForest, Dataset) {
        let mut rng = StdRng::seed_from_u64(77);
        let mut d = Dataset::new(3);
        for _ in 0..400 {
            let row = [
                rng.gen_range(0.0..10.0),
                rng.gen_range(0.0..10.0),
                rng.gen_range(0.0..10.0),
            ];
            d.push(&row, row[0] + row[1] > 10.0);
        }
        let mut f = RandomForest::new(RandomForestParams {
            n_trees: 9,
            n_bins,
            ..Default::default()
        });
        f.fit(&d);
        (f, d)
    }

    fn model_bytes() -> Vec<u8> {
        trained_forest(Some(64)).0.compile().to_bytes()
    }

    /// A one-tree model: header, tree count 1, then `nodes` as
    /// `(feature, value)` pairs.
    fn one_tree(nodes: &[(u32, f64)]) -> Vec<u8> {
        let mut bytes = b"OPRF".to_vec();
        bytes.put_u16_le(MODEL_VERSION);
        bytes.put_u32_le(1);
        bytes.put_u32_le(nodes.len() as u32);
        for &(feature, value) in nodes {
            bytes.put_u32_le(feature);
            bytes.put_f64_le(value);
        }
        bytes
    }

    #[test]
    fn round_trip_is_the_same_arena() {
        for n_bins in [Some(64), None] {
            let (forest, data) = trained_forest(n_bins);
            let compiled = forest.compile();
            let bytes = compiled.to_bytes();
            let restored = CompiledForest::from_bytes(&bytes, 3).unwrap();
            assert_eq!(restored, compiled);
            assert_eq!(restored.to_bytes(), bytes);
            for i in 0..data.len() {
                assert_eq!(
                    restored.predict(data.row(i)).to_bits(),
                    forest.predict_proba(data.row(i)).to_bits(),
                    "row {i}"
                );
            }
        }
    }

    /// 12 bytes per node, 4 per tree, 10 of header: the documented layout.
    #[test]
    fn encoded_length_follows_the_layout() {
        let compiled = trained_forest(Some(64)).0.compile();
        assert_eq!(
            compiled.to_bytes().len(),
            10 + 4 * compiled.tree_count() + 12 * compiled.node_count()
        );
        let leaf = one_tree(&[(LEAF, 0.25)]);
        assert_eq!(
            CompiledForest::from_bytes(&leaf, 1)
                .unwrap()
                .predict(&[7.0]),
            0.25
        );
    }

    #[test]
    fn bad_magic_and_other_versions_rejected() {
        let mut bytes = model_bytes();
        bytes[0] = b'X';
        assert_eq!(
            CompiledForest::from_bytes(&bytes, 3),
            Err(PersistError::BadMagic)
        );
        // The v3 forest fingerprint is not a model file.
        let fingerprint = trained_forest(Some(64)).0.to_bytes();
        assert_eq!(
            CompiledForest::from_bytes(&fingerprint, 3),
            Err(PersistError::UnsupportedVersion(3))
        );
    }

    #[test]
    fn truncation_detected_everywhere() {
        let bytes = model_bytes();
        // Every strict prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert!(
                CompiledForest::from_bytes(&bytes[..cut], 3).is_err(),
                "prefix {cut} accepted"
            );
        }
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = model_bytes();
        bytes.push(0xAB);
        assert_eq!(
            CompiledForest::from_bytes(&bytes, 3),
            Err(PersistError::TrailingBytes(1))
        );
    }

    #[test]
    fn hostile_counts_cannot_allocate() {
        // u32::MAX trees with no tree bytes, then one tree claiming
        // u32::MAX nodes backed by a single leaf: both are refused before
        // any allocation sized by the count.
        let mut trees = b"OPRF".to_vec();
        trees.put_u16_le(MODEL_VERSION);
        trees.put_u32_le(u32::MAX);
        assert_eq!(
            CompiledForest::from_bytes(&trees, 3),
            Err(PersistError::Truncated)
        );
        let mut nodes = one_tree(&[(LEAF, 0.5)]);
        nodes[10..14].copy_from_slice(&u32::MAX.to_le_bytes());
        assert_eq!(
            CompiledForest::from_bytes(&nodes, 3),
            Err(PersistError::Truncated)
        );
    }

    /// Models that cannot be walked: no trees, a split whose child slots
    /// run past its tree, a split no parent reaches (it would be its own
    /// child), and leftover leaves.
    #[test]
    fn trees_whose_splits_do_not_close_are_rejected() {
        let mut empty = b"OPRF".to_vec();
        empty.put_u16_le(MODEL_VERSION);
        empty.put_u32_le(0);
        assert_eq!(
            CompiledForest::from_bytes(&empty, 3),
            Err(PersistError::BadModel("no trees"))
        );
        for nodes in [
            &[(0, 0.5)][..],
            &[(0, 0.5), (LEAF, 1.0)],
            &[(LEAF, 1.0), (0, 0.5), (LEAF, 1.0)],
            &[(0, 0.5), (LEAF, 1.0), (LEAF, 0.0), (LEAF, 0.0)],
            &[(0, 0.5), (1, 0.5), (LEAF, 0.0), (LEAF, 1.0)],
        ] {
            assert_eq!(
                CompiledForest::from_bytes(&one_tree(nodes), 3),
                Err(PersistError::BadModel("tree splits do not close")),
                "{nodes:?}"
            );
        }
        let closed = one_tree(&[(0, 0.5), (1, 0.5), (LEAF, 0.0), (LEAF, 1.0), (LEAF, 0.5)]);
        let model = CompiledForest::from_bytes(&closed, 3).unwrap();
        assert_eq!(model.predict(&[0.0, 0.0, 0.0]), 1.0);
        assert_eq!(model.predict(&[0.0, 9.0, 0.0]), 0.5);
        assert_eq!(model.predict(&[9.0, 0.0, 0.0]), 0.0);
    }

    #[test]
    fn splits_past_the_row_width_and_bad_leaves_are_rejected() {
        let split_on = |feature| one_tree(&[(feature, 0.5), (LEAF, 0.0), (LEAF, 1.0)]);
        assert!(CompiledForest::from_bytes(&split_on(2), 3).is_ok());
        for feature in [3, 1_000_000, LEAF - 1] {
            assert_eq!(
                CompiledForest::from_bytes(&split_on(feature), 3),
                Err(PersistError::BadModel("split feature past the row width")),
                "{feature}"
            );
        }
        for prob in [-0.0, 1.0] {
            assert!(CompiledForest::from_bytes(&one_tree(&[(LEAF, prob)]), 1).is_ok());
        }
        for prob in [-0.5, 1.5, f64::NAN, f64::INFINITY] {
            assert_eq!(
                CompiledForest::from_bytes(&one_tree(&[(LEAF, prob)]), 1),
                Err(PersistError::BadModel("leaf probability outside [0, 1]")),
                "{prob}"
            );
        }
    }

    #[test]
    fn error_messages_are_descriptive() {
        assert_eq!(PersistError::Truncated.to_string(), "buffer truncated");
        assert!(PersistError::BadModel("no trees")
            .to_string()
            .contains("no trees"));
    }

    /// The fingerprint carries every non-default hyperparameter: a forest
    /// refit with other params hashes differently.
    #[test]
    fn fingerprint_covers_the_hyperparameters() {
        let params = RandomForestParams {
            n_trees: 5,
            max_features: Some(2),
            sample_fraction: 0.75,
            max_depth: Some(9),
            n_bins: None,
            seed: 0xDEAD_BEEF,
        };
        let mut rng = StdRng::seed_from_u64(3);
        let mut d = Dataset::new(2);
        for _ in 0..120 {
            let row = [rng.gen_range(0.0..10.0), rng.gen_range(0.0..10.0)];
            d.push(&row, row[0] > 5.0);
        }
        let mut f = RandomForest::new(params.clone());
        f.fit(&d);
        let mut block = Vec::new();
        encode_params(&params, &mut block);
        assert_eq!(&f.to_bytes()[6..6 + block.len()], &block[..]);
        assert_eq!(decode_params(&mut block.as_slice()), Ok(params));
    }

    #[test]
    fn bad_sample_fraction_rejected() {
        let mut block = Vec::new();
        encode_params(&RandomForestParams::default(), &mut block);
        // sample_fraction sits right after n_trees.
        block[4..12].copy_from_slice(&(-1.0f64).to_le_bytes());
        assert_eq!(
            decode_params(&mut block.as_slice()),
            Err(PersistError::BadParam("sample_fraction"))
        );
    }

    /// Params a fit would panic on: zero trees, or a bin count outside
    /// `2..=RandomForestParams::MAX_BINS`.
    #[test]
    fn unusable_tree_and_bin_counts_rejected() {
        let block = |n_trees: usize, n_bins: Option<usize>| {
            let mut out = Vec::new();
            encode_params(
                &RandomForestParams {
                    n_trees,
                    n_bins,
                    ..Default::default()
                },
                &mut out,
            );
            out
        };
        let decode = |bytes: Vec<u8>| decode_params(&mut bytes.as_slice());
        assert_eq!(
            decode(block(0, Some(64))).err(),
            Some(PersistError::BadParam("n_trees"))
        );
        let max = RandomForestParams::MAX_BINS;
        for bins in [0, 1, max + 1, u16::MAX as usize] {
            assert_eq!(
                decode(block(3, Some(bins))).err(),
                Some(PersistError::BadParam("n_bins")),
                "{bins} bins"
            );
        }
        for bins in [Some(2), Some(max), None] {
            assert_eq!(decode(block(3, bins)).unwrap().n_bins, bins);
        }
    }
}
