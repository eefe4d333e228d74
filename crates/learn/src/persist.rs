//! Compact binary persistence for trained models.
//!
//! A deployed Opprentice instance retrains weekly (§4.1) but must survive
//! process restarts without waiting a week — so trained forests can be
//! saved and restored. The format is a small custom binary layout (the
//! workspace deliberately avoids general serialization frameworks for model
//! weights):
//!
//! ```text
//! magic "OPRF" | version u16 = 3
//! params:    n_trees u32 | sample_fraction f64 | seed u64
//!            opt u8 (bit0 max_features, bit1 max_depth, bit2 n_bins) | [u32 each]
//! tree_count u32
//! per tree:  n_nodes u32
//! per node:  tag u8 — 0 = leaf { prob f64 }
//!                     1 = split { feature u32, threshold f64, left u32, right u32 }
//! ```
//!
//! All integers are little-endian. Loading validates the magic, version,
//! params, tags and node links. Version history: v1 persisted only the
//! trees (restores silently got default hyperparameters); v2 is the
//! session-snapshot container in `opprentice-core`, which shares the
//! `OPRF` magic — forest files skip it so the two decoders reject each
//! other's bytes with a clear version error; v3 adds the hyperparameter
//! block so a restored forest refits exactly like the original.

use crate::forest::{RandomForest, RandomForestParams};
use crate::tree::{from_nodes, DecisionTree, Node, TreeParams};
use bytes::{Buf, BufMut};

const MAGIC: &[u8; 4] = b"OPRF";
const VERSION: u16 = 3;

/// Errors produced when decoding a persisted model.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PersistError {
    /// The buffer ended before the structure was complete.
    Truncated,
    /// The magic bytes did not match.
    BadMagic,
    /// The format version is not supported.
    UnsupportedVersion(u16),
    /// An unknown node tag was encountered.
    BadTag(u8),
    /// A split node referenced a node index out of range.
    BadLink(u32),
    /// A tree contained no nodes.
    EmptyTree,
    /// Bytes remained after the last tree.
    TrailingBytes(usize),
    /// A hyperparameter field held a value outside its legal domain.
    BadParam(&'static str),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Truncated => write!(f, "buffer truncated"),
            PersistError::BadMagic => write!(f, "bad magic bytes"),
            PersistError::UnsupportedVersion(v) => write!(f, "unsupported version {v}"),
            PersistError::BadTag(t) => write!(f, "unknown node tag {t}"),
            PersistError::BadLink(i) => write!(f, "node link {i} out of range"),
            PersistError::EmptyTree => write!(f, "tree with no nodes"),
            PersistError::TrailingBytes(n) => write!(f, "{n} trailing bytes after last tree"),
            PersistError::BadParam(name) => write!(f, "hyperparameter `{name}` out of domain"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Appends the hyperparameter block (the `params` line of the layout
/// above) to `out`. The session snapshot in `opprentice-core` embeds the
/// same block.
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

fn decode_tree(buf: &mut &[u8]) -> Result<DecisionTree, PersistError> {
    if buf.remaining() < 4 {
        return Err(PersistError::Truncated);
    }
    let n_nodes = buf.get_u32_le() as usize;
    if n_nodes == 0 {
        return Err(PersistError::EmptyTree);
    }
    // The smallest node (a leaf) takes 9 bytes, so a hostile count larger
    // than the bytes could possibly hold must not reach the allocator.
    if n_nodes as u64 * 9 > buf.remaining() as u64 {
        return Err(PersistError::Truncated);
    }
    let mut nodes = Vec::with_capacity(n_nodes);
    for _ in 0..n_nodes {
        if buf.remaining() < 1 {
            return Err(PersistError::Truncated);
        }
        match buf.get_u8() {
            0 => {
                if buf.remaining() < 8 {
                    return Err(PersistError::Truncated);
                }
                nodes.push(Node::leaf(buf.get_f64_le()));
            }
            1 => {
                if buf.remaining() < 4 + 8 + 4 + 4 {
                    return Err(PersistError::Truncated);
                }
                let feature = buf.get_u32_le() as usize;
                let threshold = buf.get_f64_le();
                let left = buf.get_u32_le();
                let right = buf.get_u32_le();
                for link in [left, right] {
                    if link as usize >= n_nodes {
                        return Err(PersistError::BadLink(link));
                    }
                }
                nodes.push(Node::split(
                    feature,
                    threshold,
                    left as usize,
                    right as usize,
                ));
            }
            t => return Err(PersistError::BadTag(t)),
        }
    }
    Ok(from_nodes(TreeParams::default(), nodes))
}

impl RandomForest {
    /// Serializes the trained trees to the compact binary format.
    ///
    /// # Panics
    ///
    /// Panics if the forest has not been fitted.
    pub fn to_bytes(&self) -> Vec<u8> {
        assert!(self.tree_count() > 0, "forest not fitted");
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.put_u16_le(VERSION);
        encode_params(self.params(), &mut out);
        out.put_u32_le(self.tree_count() as u32);
        for tree in self.trees() {
            encode_tree(tree, &mut out);
        }
        out
    }

    /// Restores a forest from [`RandomForest::to_bytes`] output. The
    /// restored forest scores identically to the original and carries the
    /// original hyperparameters, so refitting it reproduces the original
    /// training exactly.
    pub fn from_bytes(mut buf: &[u8]) -> Result<RandomForest, PersistError> {
        if buf.remaining() < 4 + 2 {
            return Err(PersistError::Truncated);
        }
        let mut magic = [0u8; 4];
        buf.copy_to_slice(&mut magic);
        if &magic != MAGIC {
            return Err(PersistError::BadMagic);
        }
        let version = buf.get_u16_le();
        if version != VERSION {
            return Err(PersistError::UnsupportedVersion(version));
        }
        let params = decode_params(&mut buf)?;
        if buf.remaining() < 4 {
            return Err(PersistError::Truncated);
        }
        let n_trees = buf.get_u32_le() as usize;
        // The smallest tree (count + one leaf) takes 13 bytes; bound the
        // allocation by what the buffer could possibly hold.
        if n_trees as u64 * 13 > buf.remaining() as u64 {
            return Err(PersistError::Truncated);
        }
        let mut trees = Vec::with_capacity(n_trees);
        for _ in 0..n_trees {
            trees.push(decode_tree(&mut buf)?);
        }
        if buf.has_remaining() {
            return Err(PersistError::TrailingBytes(buf.remaining()));
        }
        Ok(RandomForest::from_trees(params, trees))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::forest::RandomForestParams;
    use crate::{Classifier, Dataset};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn trained_forest() -> (RandomForest, Dataset) {
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
            ..Default::default()
        });
        f.fit(&d);
        (f, d)
    }

    #[test]
    fn round_trip_preserves_predictions() {
        let (forest, data) = trained_forest();
        let bytes = forest.to_bytes();
        let restored = RandomForest::from_bytes(&bytes).unwrap();
        assert_eq!(restored.tree_count(), forest.tree_count());
        for i in 0..data.len() {
            assert_eq!(
                forest.predict_proba(data.row(i)),
                restored.predict_proba(data.row(i)),
                "row {i}"
            );
        }
    }

    #[test]
    fn bad_magic_rejected() {
        let (forest, _) = trained_forest();
        let mut bytes = forest.to_bytes();
        bytes[0] = b'X';
        assert_eq!(
            RandomForest::from_bytes(&bytes).err(),
            Some(PersistError::BadMagic)
        );
    }

    #[test]
    fn wrong_version_rejected() {
        let (forest, _) = trained_forest();
        let mut bytes = forest.to_bytes();
        bytes[4] = 99;
        assert!(matches!(
            RandomForest::from_bytes(&bytes),
            Err(PersistError::UnsupportedVersion(_))
        ));
    }

    #[test]
    fn truncation_detected_everywhere() {
        let (forest, _) = trained_forest();
        let bytes = forest.to_bytes();
        // Every strict prefix must fail cleanly, never panic.
        for cut in 0..bytes.len() {
            assert!(
                RandomForest::from_bytes(&bytes[..cut]).is_err(),
                "prefix {cut} accepted"
            );
        }
    }

    #[test]
    fn corrupt_tag_rejected() {
        let (forest, _) = trained_forest();
        let mut bytes = forest.to_bytes();
        // First node tag lives right after magic + version + params block
        // (fixed fields + opt byte + one optional u32: the default n_bins)
        // + tree count + first tree's node count.
        let idx = 4 + 2 + (4 + 8 + 8 + 1 + 4) + 4 + 4;
        bytes[idx] = 7;
        assert_eq!(
            RandomForest::from_bytes(&bytes).err(),
            Some(PersistError::BadTag(7))
        );
    }

    #[test]
    fn error_messages_are_descriptive() {
        assert_eq!(PersistError::Truncated.to_string(), "buffer truncated");
        assert!(PersistError::BadLink(9).to_string().contains('9'));
    }

    #[test]
    fn trailing_bytes_rejected() {
        let (forest, _) = trained_forest();
        let mut bytes = forest.to_bytes();
        bytes.push(0xAB);
        assert_eq!(
            RandomForest::from_bytes(&bytes).err(),
            Some(PersistError::TrailingBytes(1))
        );
    }

    /// Magic + version + a minimal valid params block (no optional fields).
    fn header_with_params() -> Vec<u8> {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(b"OPRF");
        bytes.put_u16_le(3);
        bytes.put_u32_le(1); // params.n_trees
        bytes.put_f64_le(1.0); // sample_fraction
        bytes.put_u64_le(42); // seed
        bytes.put_u8(0); // no optional fields
        bytes
    }

    #[test]
    fn hostile_tree_count_cannot_allocate() {
        // Header claims u32::MAX trees but carries no tree bytes: must be
        // rejected before any allocation sized by the count.
        let mut bytes = header_with_params();
        bytes.put_u32_le(u32::MAX);
        assert_eq!(
            RandomForest::from_bytes(&bytes).err(),
            Some(PersistError::Truncated)
        );
    }

    #[test]
    fn hostile_node_count_cannot_allocate() {
        // One tree claiming u32::MAX nodes, backed by a single leaf.
        let mut bytes = header_with_params();
        bytes.put_u32_le(1);
        bytes.put_u32_le(u32::MAX);
        bytes.put_u8(0);
        bytes.put_f64_le(0.5);
        assert_eq!(
            RandomForest::from_bytes(&bytes).err(),
            Some(PersistError::Truncated)
        );
    }

    #[test]
    fn hyperparameters_round_trip() {
        // Every non-default field survives persistence, so a restored
        // forest refits exactly like the original (the v1 format silently
        // reset restores to default hyperparameters).
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
        let restored = RandomForest::from_bytes(&f.to_bytes()).unwrap();
        assert_eq!(restored.params(), &params);

        // Refitting the restored forest reproduces the original training.
        let mut refit = RandomForest::new(restored.params().clone());
        refit.fit(&d);
        for i in 0..d.len() {
            assert_eq!(refit.predict_proba(d.row(i)), f.predict_proba(d.row(i)));
        }
    }

    #[test]
    fn bad_sample_fraction_rejected() {
        let (forest, _) = trained_forest();
        let mut bytes = forest.to_bytes();
        // sample_fraction sits right after magic + version + n_trees.
        let at = 4 + 2 + 4;
        bytes[at..at + 8].copy_from_slice(&(-1.0f64).to_le_bytes());
        assert_eq!(
            RandomForest::from_bytes(&bytes).err(),
            Some(PersistError::BadParam("sample_fraction"))
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
