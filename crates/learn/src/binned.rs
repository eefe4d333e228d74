//! Histogram-binned tree construction for random forests.
//!
//! Exact CART re-sorts each feature at every node — O(k · n log n) per
//! level — which is too slow for weekly retraining over months of KPI data
//! on a small host. The standard remedy (as in gradient-boosting systems)
//! is to pre-discretize each feature into quantile bins once per fit; a
//! split candidate is then a bin boundary and each node costs
//! O(k · n + k · bins). Split thresholds are mapped back to raw feature
//! values, so trained trees classify ordinary `f64` rows.
//!
//! The quantiles come from one sort per feature column, in the order a
//! stable `partial_cmp` sort gives (ties, signed zeros included, in row
//! order), done once per [`TrainingSet`] and shared by every forest
//! fitted on it. A fit that holds a contiguous block of rows out (a cThld
//! cross-validation fold) filters the held-out rows from each sorted
//! column in O(n): the result is exactly the sorted column of the
//! remaining rows, so its edges and codes equal those of a copied subset,
//! sorted afresh (DESIGN.md §16).
//!
//! Accuracy impact is negligible here: severities are features, and a
//! 64-quantile resolution vastly exceeds what a detector threshold needs.

use crate::tree::{from_nodes, DecisionTree, Node, TreeParams};
use crate::Dataset;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::OnceLock;

/// A training set whose feature columns are sorted once, on the first
/// binned fit, and shared by every forest fitted on it afterwards.
///
/// Build one per dataset and fit through
/// [`RandomForest::fit_held_out`](crate::RandomForest::fit_held_out): the
/// first model of a stream and its five cThld folds then pay for one sort,
/// not six. Exact-split forests never sort.
pub struct TrainingSet<'a> {
    data: &'a Dataset,
    /// Every feature column's rows in ascending order of value,
    /// column-major: entry `k` of column `f` sits at `f * n + k`. Ties
    /// keep row order, which is what a stable sort by `partial_cmp` gives,
    /// so `-0.0` and `0.0` are ties too. Values are read back from the
    /// dataset, not copied.
    sorted: OnceLock<Vec<u32>>,
}

impl<'a> TrainingSet<'a> {
    /// Wraps `data`; nothing is sorted until a binned fit needs it.
    ///
    /// # Panics
    ///
    /// Panics if `data` has more than `u32::MAX` rows.
    pub fn new(data: &'a Dataset) -> Self {
        assert!(u32::try_from(data.len()).is_ok(), "too many rows");
        Self {
            data,
            sorted: OnceLock::new(),
        }
    }

    /// The wrapped dataset.
    pub fn data(&self) -> &'a Dataset {
        self.data
    }

    /// The shared sort, built on first use with up to `threads` workers
    /// (the result does not depend on the count).
    fn sorted(&self, threads: usize) -> &[u32] {
        self.sorted.get_or_init(|| {
            let (n, m) = (self.data.len(), self.data.n_features());
            let mut rows = vec![0u32; n * m];
            per_column_run(&mut rows, n, m, threads, |features, run| {
                let mut keyed: Vec<u128> = Vec::with_capacity(n);
                for (f, out) in features.zip(run.chunks_mut(n)) {
                    keyed.clear();
                    keyed.extend(
                        (0..n)
                            .map(|i| u128::from(order_key(self.data.row(i)[f])) << 32 | i as u128),
                    );
                    // Keys are unique once the row breaks ties, so the
                    // unstable sort yields the stable order.
                    keyed.sort_unstable();
                    for (slot, &k) in out.iter_mut().zip(&keyed) {
                        *slot = k as u32;
                    }
                }
            });
            rows
        })
    }
}

/// Splits the `m` feature columns into at most `threads` contiguous runs
/// and calls `work` on each run with its columns' part of `out` (`stride`
/// entries per column), on scoped threads. Returns the runs' results in
/// column order. Every column is computed alone, so the result does not
/// depend on `threads`.
fn per_column_run<T: Send, R: Send>(
    out: &mut [T],
    stride: usize,
    m: usize,
    threads: usize,
    work: impl Fn(Range<usize>, &mut [T]) -> R + Sync,
) -> Vec<R> {
    let per_run = m.div_ceil(threads.clamp(1, m.max(1))).max(1);
    if per_run >= m {
        return vec![work(0..m, out)];
    }
    std::thread::scope(|scope| {
        let work = &work;
        let handles: Vec<_> = out
            .chunks_mut(per_run * stride)
            .enumerate()
            .map(|(c, run)| {
                let columns = c * per_run..((c + 1) * per_run).min(m);
                scope.spawn(move || work(columns, run))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("column worker panicked"))
            .collect()
    })
}

/// A `u64` whose order is the numeric order of finite `v`, with `-0.0`
/// and `0.0` equal (adding `0.0` turns `-0.0` into `0.0`). Ordering by
/// `(key, row)` is therefore exactly a stable `partial_cmp` sort: ties,
/// signed zeros included, stay in row order, so the zero an edge picks
/// (and with it a threshold's sign bit) matches a fresh sort of any
/// subset. A raw-bits or `total_cmp` order would put every `-0.0` first.
fn order_key(v: f64) -> u64 {
    let bits = (v + 0.0).to_bits();
    if bits >> 63 == 1 {
        !bits
    } else {
        bits | 1 << 63
    }
}

/// One fit's view of a [`TrainingSet`]: per-feature quantile bins of the
/// rows outside a held-out block, as column-major bin codes.
#[derive(Debug)]
pub(crate) struct BinnedDataset<'a> {
    /// Rows of the whole training set: the stride of one code column.
    n_rows: usize,
    /// Column-major bin codes indexed by row of the whole training set;
    /// `code = #edges <= value`. Held-out rows' codes are never read.
    codes: Vec<u16>,
    /// Per feature: ascending distinct bin edges. A split "code <= b" is
    /// equivalent to "value < edges[b]".
    edges: Vec<Vec<f64>>,
    labels: &'a [bool],
}

impl<'a> BinnedDataset<'a> {
    /// Bins the rows of `set` outside `held_out` into at most `n_bins`
    /// quantile bins per feature, with up to `threads` workers: the same
    /// edges and codes as binning a copy of those rows.
    ///
    /// # Panics
    ///
    /// Panics if `n_bins < 2`, `n_bins > u16::MAX as usize`, `held_out`
    /// reaches past the last row, or no row remains.
    pub(crate) fn new(
        set: &'a TrainingSet,
        held_out: Range<usize>,
        n_bins: usize,
        threads: usize,
    ) -> Self {
        assert!((2..=u16::MAX as usize).contains(&n_bins), "bad bin count");
        let data = set.data;
        let n = data.len();
        assert!(held_out.end <= n, "held-out block out of range");
        let kept = n - held_out.len();
        assert!(kept > 0, "empty training set");
        let m = data.n_features();
        let sorted = set.sorted(threads);
        let mut codes = vec![0u16; n * m];
        let edges = per_column_run(&mut codes, n, m, threads, |features, run| {
            // The kept part of one sorted column.
            let mut col: Vec<(f64, u32)> = Vec::with_capacity(kept);
            features
                .zip(run.chunks_mut(n))
                .map(|(f, column)| {
                    col.clear();
                    col.extend(
                        sorted[f * n..(f + 1) * n]
                            .iter()
                            .filter(|&&r| !held_out.contains(&(r as usize)))
                            .map(|&r| (data.row(r as usize)[f], r)),
                    );
                    let mut e: Vec<f64> = (1..n_bins).map(|b| col[b * kept / n_bins].0).collect();
                    e.dedup();
                    // Drop edges equal to the minimum: they can never split.
                    while e.first().is_some_and(|&x| x <= col[0].0) {
                        e.remove(0);
                    }
                    // Values ascend, so each code is the previous one plus
                    // the edges passed since.
                    let mut code = 0usize;
                    for &(v, r) in &col {
                        while code < e.len() && e[code] <= v {
                            code += 1;
                        }
                        column[r as usize] = code as u16;
                    }
                    e
                })
                .collect::<Vec<_>>()
        })
        .concat();
        Self {
            n_rows: n,
            codes,
            edges,
            labels: data.labels(),
        }
    }

    pub(crate) fn n_features(&self) -> usize {
        self.edges.len()
    }

    /// The bin codes of feature `f`, indexed by row.
    #[inline]
    pub(crate) fn column(&self, f: usize) -> &[u16] {
        &self.codes[f * self.n_rows..(f + 1) * self.n_rows]
    }

    /// Number of candidate split boundaries for feature `f`.
    pub(crate) fn n_edges(&self, f: usize) -> usize {
        self.edges[f].len()
    }

    /// The raw-value threshold of split boundary `b` of feature `f`.
    pub(crate) fn threshold(&self, f: usize, b: usize) -> f64 {
        self.edges[f][b]
    }
}

/// One distinct row of a bootstrap sample: its row in the whole training
/// set, how many times the bootstrap drew it, and its label.
///
/// Counting by weight instead of repeating the row is exact: every count
/// the builder compares or divides (node size, positives, histogram
/// buckets) is the same integer, and the order of rows within a node
/// changes no count, so the trees and the RNG stream are unchanged.
#[derive(Debug, Clone, Copy)]
struct Sample {
    row: u32,
    weight: u32,
    label: bool,
}

/// Node size and positives of `samples`, both weighted.
fn counts(samples: &[Sample]) -> (u32, u32) {
    samples.iter().fold((0, 0), |(n, pos), s| {
        (n + s.weight, pos + if s.label { s.weight } else { 0 })
    })
}

/// Finds the gini-optimal `(feature, boundary)` among `features`, scanning
/// bin histograms of a node of `n` samples, `total_pos` of them positive.
/// Returns `None` when nothing separates the node.
///
/// Histograms count in `u32`: the sums are integers, so converting them
/// to `f64` gives exactly the values an `f64` histogram would hold.
fn best_binned_split(
    data: &BinnedDataset,
    samples: &[Sample],
    (n, total_pos): (u32, u32),
    features: &[usize],
    scratch: &mut Vec<[u32; 2]>,
) -> Option<(usize, usize)> {
    let n = f64::from(n);
    let total_pos = f64::from(total_pos);
    let mut best: Option<(f64, usize, usize)> = None;

    for &f in features {
        let n_edges = data.n_edges(f);
        if n_edges == 0 {
            continue;
        }
        scratch.clear();
        scratch.resize(n_edges + 1, [0; 2]);
        let codes = data.column(f);
        for s in samples {
            scratch[codes[s.row as usize] as usize][s.label as usize] += s.weight;
        }
        let mut left_n = 0u32;
        let mut left_pos = 0u32;
        // Candidate b: left = codes 0..=b, i.e. value < edges[b]. An empty
        // bucket repeats the previous candidate's score, which cannot
        // beat it strictly, so it is skipped.
        for (b, bucket) in scratch.iter().enumerate().take(n_edges) {
            if *bucket == [0; 2] {
                continue;
            }
            left_n += bucket[0] + bucket[1];
            left_pos += bucket[1];
            let (left_n, left_pos) = (f64::from(left_n), f64::from(left_pos));
            if left_n == 0.0 || left_n == n {
                continue;
            }
            let right_n = n - left_n;
            let right_pos = total_pos - left_pos;
            let gini = |cnt: f64, pos: f64| {
                let p = pos / cnt;
                2.0 * p * (1.0 - p)
            };
            let weighted =
                (left_n / n) * gini(left_n, left_pos) + (right_n / n) * gini(right_n, right_pos);
            if best.is_none_or(|(w, _, _)| weighted < w) {
                best = Some((weighted, f, b));
            }
        }
    }
    best.map(|(_, f, b)| (f, b))
}

/// Recursive histogram-based tree builder matching the exact builder's
/// stopping rules (purity, `min_samples_split`, depth cap, no usable split).
#[allow(clippy::too_many_arguments)] // recursion state; a struct would add no clarity
fn build(
    data: &BinnedDataset,
    params: &TreeParams,
    nodes: &mut Vec<Node>,
    samples: &mut [Sample],
    depth: usize,
    rng: &mut StdRng,
    feature_pool: &mut Vec<usize>,
    scratch: &mut Vec<[u32; 2]>,
) -> usize {
    let (n, positives) = counts(samples);
    let prob = f64::from(positives) / f64::from(n);

    let depth_capped = params.max_depth.is_some_and(|d| depth >= d);
    if positives == 0 || positives == n || (n as usize) < params.min_samples_split || depth_capped {
        nodes.push(Node::leaf(prob));
        return nodes.len() - 1;
    }

    let m = data.n_features();
    let k = params.max_features.unwrap_or(m).clamp(1, m);
    if k < m {
        feature_pool.shuffle(rng);
    }

    match best_binned_split(data, samples, (n, positives), &feature_pool[..k], scratch) {
        None => {
            nodes.push(Node::leaf(prob));
            nodes.len() - 1
        }
        Some((feature, boundary)) => {
            let codes = data.column(feature);
            let mut mid = 0usize;
            for i in 0..samples.len() {
                if codes[samples[i].row as usize] as usize <= boundary {
                    samples.swap(i, mid);
                    mid += 1;
                }
            }
            if mid == 0 || mid == samples.len() {
                // The chosen boundary did not separate this node (can happen
                // when every sample sits on one side of every edge).
                nodes.push(Node::leaf(prob));
                return nodes.len() - 1;
            }
            let threshold = data.threshold(feature, boundary);
            let placeholder = nodes.len();
            nodes.push(Node::leaf(prob)); // replaced below
            let (left_ids, right_ids) = samples.split_at_mut(mid);
            let left = build(
                data,
                params,
                nodes,
                left_ids,
                depth + 1,
                rng,
                feature_pool,
                scratch,
            );
            let right = build(
                data,
                params,
                nodes,
                right_ids,
                depth + 1,
                rng,
                feature_pool,
                scratch,
            );
            nodes[placeholder] = Node::split(feature, threshold, left, right);
            placeholder
        }
    }
}

/// Fits a tree on pre-binned data over a bootstrap sample: `indices` are
/// rows of the whole training set (never held-out ones), repeated as
/// drawn. The histogram entry point used by the random forest.
pub(crate) fn fit_binned(
    params: TreeParams,
    data: &BinnedDataset,
    indices: &[usize],
) -> DecisionTree {
    let mut weights = vec![0u32; data.n_rows];
    for &i in indices {
        weights[i] += 1;
    }
    let mut samples: Vec<Sample> = weights
        .iter()
        .zip(data.labels)
        .zip(0u32..)
        .filter(|((&weight, _), _)| weight > 0)
        .map(|((&weight, &label), row)| Sample { row, weight, label })
        .collect();
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut nodes = Vec::new();
    let mut feature_pool: Vec<usize> = (0..data.n_features()).collect();
    let mut scratch = Vec::new();
    build(
        data,
        &params,
        &mut nodes,
        &mut samples,
        0,
        &mut rng,
        &mut feature_pool,
        &mut scratch,
    );
    from_nodes(params, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row of `d` once, as a bootstrap that drew each row once.
    fn every_row(d: &Dataset) -> Vec<Sample> {
        (0..d.len())
            .map(|i| Sample {
                row: i as u32,
                weight: 1,
                label: d.label(i),
            })
            .collect()
    }

    fn toy() -> Dataset {
        let mut d = Dataset::new(2);
        for i in 0..100 {
            d.push(&[i as f64, (i % 7) as f64], i >= 60);
        }
        d
    }

    #[test]
    fn codes_are_monotone_in_value() {
        let d = toy();
        let set = TrainingSet::new(&d);
        let b = BinnedDataset::new(&set, 0..0, 16, 1);
        for i in 1..d.len() {
            assert!(b.column(0)[i] >= b.column(0)[i - 1]);
        }
    }

    #[test]
    fn threshold_consistent_with_codes() {
        let d = toy();
        let set = TrainingSet::new(&d);
        let b = BinnedDataset::new(&set, 0..0, 16, 1);
        // For every sample and boundary: code <= b  <=>  value < threshold.
        for i in 0..d.len() {
            let v = d.row(i)[0];
            for bd in 0..b.n_edges(0) {
                let by_code = b.column(0)[i] as usize <= bd;
                let by_value = v < b.threshold(0, bd);
                assert_eq!(by_code, by_value, "i={i} b={bd}");
            }
        }
    }

    #[test]
    fn best_split_separates_the_classes() {
        let d = toy();
        let set = TrainingSet::new(&d);
        let b = BinnedDataset::new(&set, 0..0, 32, 1);
        let samples = every_row(&d);
        let mut scratch = Vec::new();
        let (f, bd) =
            best_binned_split(&b, &samples, counts(&samples), &[0, 1], &mut scratch).unwrap();
        assert_eq!(f, 0);
        let t = b.threshold(f, bd);
        assert!((55.0..=65.0).contains(&t), "threshold {t}");
    }

    #[test]
    fn constant_feature_has_no_edges() {
        let mut d = Dataset::new(1);
        for _ in 0..50 {
            d.push(&[5.0], false);
        }
        let set = TrainingSet::new(&d);
        let b = BinnedDataset::new(&set, 0..0, 8, 1);
        assert_eq!(b.n_edges(0), 0);
        let samples = every_row(&d);
        let mut scratch = Vec::new();
        assert_eq!(
            best_binned_split(&b, &samples, counts(&samples), &[0], &mut scratch),
            None
        );
    }

    #[test]
    fn binned_tree_is_pure_on_training_data() {
        let d = toy();
        let set = TrainingSet::new(&d);
        let b = BinnedDataset::new(&set, 0..0, 64, 1);
        let indices: Vec<usize> = (0..d.len()).collect();
        let t = fit_binned(TreeParams::default(), &b, &indices);
        for i in 0..d.len() {
            assert_eq!(t.predict_proba(d.row(i)) >= 0.5, d.label(i), "row {i}");
        }
    }

    #[test]
    fn binned_tree_respects_depth_cap() {
        let d = toy();
        let set = TrainingSet::new(&d);
        let b = BinnedDataset::new(&set, 0..0, 64, 1);
        let indices: Vec<usize> = (0..d.len()).collect();
        let t = fit_binned(
            TreeParams {
                max_depth: Some(2),
                ..Default::default()
            },
            &b,
            &indices,
        );
        assert!(t.depth() <= 2);
    }

    #[test]
    fn duplicate_heavy_feature_dedups_edges() {
        let mut d = Dataset::new(1);
        for i in 0..100 {
            d.push(&[if i < 90 { 0.0 } else { 1.0 }], i >= 90);
        }
        let set = TrainingSet::new(&d);
        let b = BinnedDataset::new(&set, 0..0, 16, 1);
        assert!(b.n_edges(0) >= 1);
        let samples = every_row(&d);
        let mut scratch = Vec::new();
        let (_, bd) =
            best_binned_split(&b, &samples, counts(&samples), &[0], &mut scratch).unwrap();
        let t = b.threshold(0, bd);
        assert!(t > 0.0 && t <= 1.0, "threshold {t}");
    }

    /// Bits of every edge and the codes of the given rows, per feature.
    fn binning(b: &BinnedDataset, rows: &[usize]) -> Vec<(Vec<u64>, Vec<u16>)> {
        (0..b.n_features())
            .map(|f| {
                let edges = b.edges[f].iter().map(|e| e.to_bits()).collect();
                (edges, rows.iter().map(|&i| b.column(f)[i]).collect())
            })
            .collect()
    }

    #[test]
    fn held_out_binning_equals_binning_a_copy() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(5);
        for n in [7usize, 40, 301] {
            let mut d = Dataset::new(3);
            for _ in 0..n {
                let row = [
                    // Heavy ties, both signed zeros among them.
                    [-1.0, -0.0, 0.0, 2.0][rng.gen_range(0..4)],
                    rng.gen_range(0..5) as f64,
                    rng.gen_range(-1.0..1.0),
                ];
                d.push(&row, rng.gen_bool(0.3));
            }
            let set = TrainingSet::new(&d);
            for held_out in [0..0, 0..n / 5, n / 3..n / 2, n - n / 5..n] {
                let kept: Vec<usize> = (0..n).filter(|i| !held_out.contains(i)).collect();
                let copy = d.subset(&kept);
                let copy_set = TrainingSet::new(&copy);
                for bins in [2, 4, 64] {
                    let shared = BinnedDataset::new(&set, held_out.clone(), bins, 3);
                    let fresh = BinnedDataset::new(&copy_set, 0..0, bins, 1);
                    assert_eq!(
                        binning(&shared, &kept),
                        binning(&fresh, &(0..kept.len()).collect::<Vec<_>>()),
                        "n={n} held out {held_out:?}, {bins} bins"
                    );
                }
            }
        }
    }

    #[test]
    fn order_key_orders_like_partial_cmp() {
        let values = [
            f64::MIN,
            -1e300,
            -1.5,
            -f64::MIN_POSITIVE,
            -1e-310,
            -0.0,
            0.0,
            1e-310,
            f64::MIN_POSITIVE,
            1.5,
            1e300,
            f64::MAX,
        ];
        for &a in &values {
            for &b in &values {
                assert_eq!(
                    order_key(a).cmp(&order_key(b)),
                    a.partial_cmp(&b).unwrap(),
                    "{a:e} vs {b:e}"
                );
            }
        }
    }
}
