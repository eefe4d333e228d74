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
//! fitted on it. The sort marks each entry that ties the one before it,
//! so a fit bins a column in one walk over its sorted rows: it skips a
//! contiguous held-out block (a cThld cross-validation fold), takes the
//! edges, their dedup and the codes from the tie groups, and reads back
//! the value of an edge row only. The kept part of a sorted column is
//! exactly the sorted column of the kept rows, so the edges and codes
//! equal those of a copied subset, sorted afresh (DESIGN.md §16).
//!
//! Codes are column-major and carry the row's label in their low bit
//! (`code << 1 | label`): one byte per (row, feature) up to 128 bins (the
//! default is 64), two beyond. A node's histogram is one flat `u32` array
//! indexed by that packed key (DESIGN.md §16.4).
//!
//! Accuracy impact is negligible here: severities are features, and a
//! 64-quantile resolution vastly exceeds what a detector threshold needs.

use crate::tree::{from_nodes, DecisionTree, Node, TreeParams};
use crate::{Dataset, RandomForestParams};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::{Mutex, OnceLock};

/// Bit 31 of a sorted entry: its value ties the previous entry's (equal
/// [`order_key`]). The low 31 bits are the row.
const TIE: u32 = 1 << 31;

/// Columns whose keys the sort builds from one pass over the rows (one
/// 64-byte stretch of a row serves all of them), and the unit of work
/// [`per_column_run`] hands to a worker.
const KEY_BLOCK: usize = 8;

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
    /// so `-0.0` and `0.0` are ties too; an entry that ties the one before
    /// it has [`TIE`] set. Values are read back from the dataset, not
    /// copied.
    sorted: OnceLock<Vec<u32>>,
}

impl<'a> TrainingSet<'a> {
    /// Wraps `data`; nothing is sorted until a binned fit needs it.
    ///
    /// # Panics
    ///
    /// Panics if `data` has more than `2^31` rows: a row index must leave
    /// bit 31 free for the tie mark.
    pub fn new(data: &'a Dataset) -> Self {
        assert!(data.len() <= TIE as usize, "too many rows");
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
            per_column_run(&mut rows, n, m, threads, |block, run| {
                // The block's keys, column-major, from one pass over the rows.
                let mut keys = vec![0u64; block.len() * n];
                for i in 0..n {
                    for (j, &v) in self.data.row(i)[block.clone()].iter().enumerate() {
                        keys[j * n + i] = order_key(v);
                    }
                }
                let mut packed = Vec::with_capacity(n);
                for (column, out) in keys.chunks(n).zip(run.chunks_mut(n)) {
                    sort_column(column, &mut packed, out);
                }
            });
            rows
        })
    }
}

/// Writes the rows of one column into `out` in ascending order of their
/// order keys `keys`, ties in row order, and marks each tie with [`TIE`].
///
/// Each row becomes one `u64`: the top bits of its key above the row's
/// bits. These are unique, so an unstable sort orders them exactly; only
/// rows whose key tops are equal can still be out of `(key, row)` order,
/// and each such run is checked, and re-sorted if it is. `packed` is
/// scratch.
fn sort_column(keys: &[u64], packed: &mut Vec<u64>, out: &mut [u32]) {
    let row_bits = u64::BITS - (keys.len() as u64).leading_zeros();
    packed.clear();
    packed.extend(
        (0u32..)
            .zip(keys)
            .map(|(r, &k)| k >> row_bits << row_bits | u64::from(r)),
    );
    packed.sort_unstable();
    let mut runs = out;
    for run in packed.chunk_by(|a, b| a >> row_bits == b >> row_bits) {
        let (rows, rest) = runs.split_at_mut(run.len());
        runs = rest;
        for (slot, &p) in rows.iter_mut().zip(run) {
            *slot = (p & ((1 << row_bits) - 1)) as u32;
        }
        let key = |r: &u32| keys[*r as usize];
        if !rows.is_sorted_by_key(key) {
            rows.sort_unstable_by_key(|r| (key(r), *r));
        }
        let mut prev = key(&rows[0]);
        for r in &mut rows[1..] {
            let k = key(r);
            if k == prev {
                *r |= TIE;
            }
            prev = k;
        }
    }
}

/// Calls `work` on every run of [`KEY_BLOCK`] feature columns (the last
/// may be shorter) of the `m` in `out`, with that run's part of `out`
/// (`stride` entries per column), on up to `threads` scoped threads that
/// each take the next run as they finish one, so columns that cost more
/// do not leave a worker waiting. Returns the runs' results in column
/// order. Every column is computed alone, so the result does not depend
/// on `threads`.
fn per_column_run<T: Send, R: Send>(
    out: &mut [T],
    stride: usize,
    m: usize,
    threads: usize,
    work: impl Fn(Range<usize>, &mut [T]) -> R + Sync,
) -> Vec<R> {
    let mut runs = out
        .chunks_mut(KEY_BLOCK * stride)
        .enumerate()
        .map(|(c, run)| (c, c * KEY_BLOCK..m.min((c + 1) * KEY_BLOCK), run));
    let workers = threads.clamp(1, m.div_ceil(KEY_BLOCK));
    if workers == 1 {
        return runs.map(|(_, columns, run)| work(columns, run)).collect();
    }
    let queue = Mutex::new(&mut runs);
    let mut done: Vec<(usize, R)> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..workers)
            .map(|_| {
                scope.spawn(|| {
                    let mut done = Vec::new();
                    loop {
                        let next = queue.lock().expect("column queue poisoned").next();
                        let Some((c, columns, run)) = next else {
                            return done;
                        };
                        done.push((c, work(columns, run)));
                    }
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("column worker panicked"))
            .collect()
    });
    done.sort_unstable_by_key(|&(c, _)| c);
    done.into_iter().map(|(_, r)| r).collect()
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

/// One entry of a code column: a row's bin code with its label in the low
/// bit, `code << 1 | label`.
pub(crate) trait Code: Copy + Default + Send + Sync {
    /// Bin counts whose packed codes fit this type.
    const MAX_BINS: usize;

    fn pack(code: usize, label: bool) -> Self;

    /// The packed value: `code << 1 | label`.
    fn key(self) -> usize;
}

impl Code for u8 {
    const MAX_BINS: usize = 1 << 7;

    #[inline]
    fn pack(code: usize, label: bool) -> Self {
        (code << 1 | usize::from(label)) as u8
    }

    #[inline]
    fn key(self) -> usize {
        self.into()
    }
}

impl Code for u16 {
    const MAX_BINS: usize = RandomForestParams::MAX_BINS;

    #[inline]
    fn pack(code: usize, label: bool) -> Self {
        (code << 1 | usize::from(label)) as u16
    }

    #[inline]
    fn key(self) -> usize {
        self.into()
    }
}

/// One fit's view of a [`TrainingSet`]: per-feature quantile bins of the
/// rows outside a held-out block, as column-major packed codes.
#[derive(Debug)]
pub(crate) struct BinnedDataset<C> {
    /// Rows of the whole training set: the stride of one code column.
    n_rows: usize,
    /// Column-major codes indexed by row of the whole training set, label
    /// packed in (see [`Code`]); `code = #edges <= value`. No fit reads a
    /// held-out row's entry.
    codes: Vec<C>,
    /// Per feature: ascending distinct bin edges. A split "code <= b" is
    /// equivalent to "value < edges[b]".
    edges: Vec<Vec<f64>>,
}

impl<C: Code> BinnedDataset<C> {
    /// Bins the rows of `set` outside `held_out` into at most `n_bins`
    /// quantile bins per feature, with up to `threads` workers: the same
    /// edges and codes as binning a copy of those rows.
    ///
    /// # Panics
    ///
    /// Panics if `n_bins` is outside `2..=C::MAX_BINS`, `held_out` reaches
    /// past the last row, or no row remains.
    pub(crate) fn new(
        set: &TrainingSet,
        held_out: Range<usize>,
        n_bins: usize,
        threads: usize,
    ) -> Self {
        assert!((2..=C::MAX_BINS).contains(&n_bins), "bad bin count");
        let data = set.data;
        let n = data.len();
        assert!(held_out.end <= n, "held-out block out of range");
        let kept = n - held_out.len();
        assert!(kept > 0, "empty training set");
        let m = data.n_features();
        let sorted = set.sorted(threads);
        let mut codes = vec![C::default(); n * m];
        let edges = per_column_run(&mut codes, n, m, threads, |features, run| {
            features
                .zip(run.chunks_mut(n))
                .map(|(f, column)| {
                    bin_column(
                        &sorted[f * n..(f + 1) * n],
                        &held_out,
                        n_bins,
                        data.labels(),
                        |r| data.row(r)[f],
                        column,
                    )
                })
                .collect::<Vec<_>>()
        })
        .concat();
        Self {
            n_rows: n,
            codes,
            edges,
        }
    }

    pub(crate) fn n_features(&self) -> usize {
        self.edges.len()
    }

    /// The packed codes of feature `f`, indexed by row.
    #[inline]
    pub(crate) fn column(&self, f: usize) -> &[C] {
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

/// Bins one column from its tie-marked sorted rows: returns the edges of
/// the rows outside `held_out`, and writes every row's packed code into
/// `out` (held-out rows get `#edges <= value` too, though no fit reads
/// them).
///
/// Over the `kept` rows in sorted order, edge `b` (for `b` in
/// `1..n_bins`) is the value at position `b * kept / n_bins`; equal edges
/// collapse to the first, and edges equal to the minimum are dropped, as
/// they can never split. Equal values are exactly a tie group, so an edge
/// survives iff it is the first one inside a tie group other than the
/// first kept row's, and only that row's value is read. A held-out entry
/// still links the groups around it: the tie bits chain through it.
///
/// Two passes, with no branch per entry that the data decides: the first
/// locates the edge positions and the groups they start, the second
/// counts group starts into codes.
fn bin_column<C: Code>(
    sorted: &[u32],
    held_out: &Range<usize>,
    n_bins: usize,
    labels: &[bool],
    value: impl Fn(usize) -> f64,
    out: &mut [C],
) -> Vec<f64> {
    let row = |e: u32| (e & !TIE) as usize;
    let is_kept = |e: &u32| row(*e).wrapping_sub(held_out.start) >= held_out.len();
    let kept = sorted.len() - held_out.len();
    // The sorted index of the kept row at each ascending kept position:
    // whole blocks of entries are counted first, without a branch per
    // entry, then the last block entry by entry.
    let (mut i, mut seen) = (0, 0);
    let mut locate = |position: usize| {
        if held_out.is_empty() {
            return position;
        }
        loop {
            let block = &sorted[i..sorted.len().min(i + COUNT_BLOCK)];
            let in_block = block.iter().filter(|e| is_kept(e)).count();
            if seen + in_block > position {
                break;
            }
            seen += in_block;
            i += block.len();
        }
        while seen <= position {
            seen += usize::from(is_kept(&sorted[i]));
            i += 1;
        }
        i - 1
    };
    // Where each edge's tie group starts in `sorted`, and its row.
    let mut starts = Vec::new();
    let mut edge_rows = Vec::new();
    // The minimum's entry, then each edge's: an edge whose group has no
    // start after the previous one's entry shares that group.
    let mut prev = locate(0);
    for b in 1..n_bins {
        let at = locate(b * kept / n_bins);
        if let Some(start) = (prev + 1..=at).rev().find(|&j| sorted[j] & TIE == 0) {
            starts.push(start);
            edge_rows.push(row(sorted[at]));
        }
        prev = at;
    }
    // The values are read together, so their cache misses overlap.
    let edges = edge_rows.into_iter().map(value).collect();
    let mut code = 0;
    let mut next = starts.first().copied();
    for (j, &e) in sorted.iter().enumerate() {
        if Some(j) == next {
            code += 1;
            next = starts.get(code).copied();
        }
        let r = row(e);
        out[r] = C::pack(code, labels[r]);
    }
    edges
}

/// Sorted entries [`bin_column`] counts per step while it looks for an
/// edge position past a held-out block.
const COUNT_BLOCK: usize = 32;

/// A fit's bins at the narrowest code width its bin count allows.
pub(crate) enum Binned {
    /// Up to 128 bins: one byte per (row, feature).
    Byte(BinnedDataset<u8>),
    /// Up to [`RandomForestParams::MAX_BINS`].
    Wide(BinnedDataset<u16>),
}

impl Binned {
    /// Bins the rows of `set` outside `held_out`; see
    /// [`BinnedDataset::new`].
    pub(crate) fn new(
        set: &TrainingSet,
        held_out: Range<usize>,
        n_bins: usize,
        threads: usize,
    ) -> Self {
        if n_bins <= u8::MAX_BINS {
            Binned::Byte(BinnedDataset::new(set, held_out, n_bins, threads))
        } else {
            Binned::Wide(BinnedDataset::new(set, held_out, n_bins, threads))
        }
    }

    /// Fits one tree; see [`fit_binned`].
    pub(crate) fn fit_tree(&self, params: TreeParams, indices: &[usize]) -> DecisionTree {
        match self {
            Binned::Byte(data) => fit_binned(params, data, indices),
            Binned::Wide(data) => fit_binned(params, data, indices),
        }
    }
}

/// One distinct row of a bootstrap sample: its row in the whole training
/// set and how many times the bootstrap drew it. Its label is in its codes.
///
/// Counting by weight instead of repeating the row is exact: every count
/// the builder compares or divides (node size, positives, histogram
/// buckets) is the same integer, and the order of rows within a node
/// changes no count, so the trees and the RNG stream are unchanged.
#[derive(Debug, Clone, Copy)]
struct Sample {
    row: u32,
    weight: u32,
}

/// A node's size and positives, both weighted.
type Counts = (u32, u32);

/// Features whose histograms one pass over a node's samples fills: a
/// sample is loaded once for all of them, and updates that consecutive
/// samples make to one heavy bucket land in different arrays, so they do
/// not wait on each other's stores.
const FILL_GROUP: usize = 4;

/// Adds the weights of `samples` into one histogram per column of
/// `columns` (at most [`FILL_GROUP`]), by packed code: column `j`'s
/// histogram is `hist[j * stride..][..stride]`.
fn fill<C: Code>(hist: &mut [u32], stride: usize, columns: &[&[C]], samples: &[Sample]) {
    let hist = &mut hist[..columns.len() * stride];
    hist.fill(0);
    if let [c0, c1, c2, c3] = columns {
        let (h0, rest) = hist.split_at_mut(stride);
        let (h1, rest) = rest.split_at_mut(stride);
        let (h2, h3) = rest.split_at_mut(stride);
        for s in samples {
            let (r, w) = (s.row as usize, s.weight);
            h0[c0[r].key()] += w;
            h1[c1[r].key()] += w;
            h2[c2[r].key()] += w;
            h3[c3[r].key()] += w;
        }
    } else {
        for (h, column) in hist.chunks_exact_mut(stride).zip(columns) {
            for s in samples {
                h[column[s.row as usize].key()] += s.weight;
            }
        }
    }
}

/// The gini-optimal split of a node: feature, boundary, and the counts of
/// its left side (codes `0..=boundary`).
#[derive(Debug, PartialEq)]
struct Split {
    feature: usize,
    boundary: usize,
    left: Counts,
}

/// Finds the gini-optimal split among `features`, scanning bin histograms
/// of a node of `n` samples, `total_pos` of them positive; ties go to the
/// first in feature order, then boundary order. Returns `None` when
/// nothing separates the node.
///
/// Histograms count in `u32`: the sums are integers, so converting them
/// to `f64` gives exactly the values an `f64` histogram would hold.
fn best_binned_split<C: Code>(
    data: &BinnedDataset<C>,
    samples: &[Sample],
    (n, total_pos): Counts,
    features: &[usize],
    hist: &mut Vec<u32>,
) -> Option<Split> {
    let node = (f64::from(n), f64::from(total_pos));
    let mut best = None;
    // Features without an edge cannot split; the rest go in groups of
    // [`FILL_GROUP`], scanned in the order given.
    let mut splittable = features.iter().copied().filter(|&f| data.n_edges(f) > 0);
    loop {
        let mut group = [0; FILL_GROUP];
        let len = group
            .iter_mut()
            .zip(splittable.by_ref())
            .map(|(slot, f)| *slot = f)
            .count();
        if len == 0 {
            break;
        }
        let group = &group[..len];
        let stride = group
            .iter()
            .map(|&f| 2 * (data.n_edges(f) + 1))
            .max()
            .unwrap_or(0);
        if hist.len() < len * stride {
            hist.resize(len * stride, 0);
        }
        let mut columns: [&[C]; FILL_GROUP] = [&[]; FILL_GROUP];
        for (column, &f) in columns.iter_mut().zip(group) {
            *column = data.column(f);
        }
        fill(hist, stride, &columns[..len], samples);
        for (&f, h) in group.iter().zip(hist.chunks(stride)) {
            scan(&h[..2 * data.n_edges(f)], f, node, &mut best);
        }
    }
    best.map(|(_, split)| split)
}

/// Scans the candidates of feature `f` over its histogram `hist` (one
/// `u32` per packed key, up to its last edge) in a node of `n` samples,
/// `total_pos` of them positive, and keeps the first strictly better one
/// in `best`, with its weighted gini.
fn scan(hist: &[u32], f: usize, (n, total_pos): (f64, f64), best: &mut Option<(f64, Split)>) {
    let mut left_n = 0u32;
    let mut left_pos = 0u32;
    // Candidate b: left = codes 0..=b, i.e. value < edges[b]. An empty
    // bucket repeats the previous candidate's score, which cannot beat
    // it strictly, so it is skipped: each run of 64 buckets is masked
    // first, and only the set bits are visited, in order.
    for (run, buckets) in hist.chunks(128).enumerate() {
        let mut filled = buckets
            .chunks_exact(2)
            .enumerate()
            .fold(0u64, |mask, (j, bucket)| {
                mask | u64::from(bucket[0] | bucket[1] != 0) << j
            });
        while filled != 0 {
            let j = filled.trailing_zeros() as usize;
            filled &= filled - 1;
            let (neg, pos) = (buckets[2 * j], buckets[2 * j + 1]);
            left_n += neg + pos;
            left_pos += pos;
            let left = (left_n, left_pos);
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
            if best.as_ref().is_none_or(|(w, _)| weighted < *w) {
                *best = Some((
                    weighted,
                    Split {
                        feature: f,
                        boundary: run * 64 + j,
                        left,
                    },
                ));
            }
        }
    }
}

/// Recursive histogram-based tree builder matching the exact builder's
/// stopping rules (purity, `min_samples_split`, depth cap, no usable
/// split), and the state it carries down the recursion.
struct Builder<'d, C> {
    data: &'d BinnedDataset<C>,
    params: &'d TreeParams,
    nodes: Vec<Node>,
    rng: StdRng,
    feature_pool: Vec<usize>,
    hist: Vec<u32>,
    /// A node's right-hand samples while it is partitioned.
    spill: Vec<Sample>,
}

impl<C: Code> Builder<'_, C> {
    /// Builds the subtree of `samples`, whose counts are `(n, positives)`,
    /// and returns its root's index.
    fn build(&mut self, samples: &mut [Sample], (n, positives): Counts, depth: usize) -> usize {
        let prob = f64::from(positives) / f64::from(n);

        let depth_capped = self.params.max_depth.is_some_and(|d| depth >= d);
        if positives == 0
            || positives == n
            || (n as usize) < self.params.min_samples_split
            || depth_capped
        {
            self.nodes.push(Node::leaf(prob));
            return self.nodes.len() - 1;
        }

        let m = self.data.n_features();
        let k = self.params.max_features.unwrap_or(m).clamp(1, m);
        if k < m {
            self.feature_pool.shuffle(&mut self.rng);
        }

        let split = best_binned_split(
            self.data,
            samples,
            (n, positives),
            &self.feature_pool[..k],
            &mut self.hist,
        );
        let Some(Split {
            feature,
            boundary,
            left,
        }) = split
        else {
            self.nodes.push(Node::leaf(prob));
            return self.nodes.len() - 1;
        };
        // "code <= boundary" on the packed key: the label is the low bit.
        // The partition is stable, so each child's rows stay in ascending
        // order and its fills read the code columns front to back.
        let last_left = 2 * boundary + 1;
        let codes = self.data.column(feature);
        let mut mid = 0usize;
        self.spill.clear();
        for i in 0..samples.len() {
            let s = samples[i];
            if codes[s.row as usize].key() <= last_left {
                samples[mid] = s;
                mid += 1;
            } else {
                self.spill.push(s);
            }
        }
        samples[mid..].copy_from_slice(&self.spill);
        // A candidate has weight on both sides, so it separates the node.
        debug_assert!(mid > 0 && mid < samples.len(), "degenerate split");
        let threshold = self.data.threshold(feature, boundary);
        let placeholder = self.nodes.len();
        self.nodes.push(Node::leaf(prob)); // replaced below
        let (left_ids, right_ids) = samples.split_at_mut(mid);
        let right = (n - left.0, positives - left.1);
        let left = self.build(left_ids, left, depth + 1);
        let right = self.build(right_ids, right, depth + 1);
        self.nodes[placeholder] = Node::split(feature, threshold, left, right);
        placeholder
    }
}

/// Fits a tree on pre-binned data over a bootstrap sample: `indices` are
/// rows of the whole training set (never held-out ones), repeated as
/// drawn. The histogram entry point used by the random forest.
pub(crate) fn fit_binned<C: Code>(
    params: TreeParams,
    data: &BinnedDataset<C>,
    indices: &[usize],
) -> DecisionTree {
    let mut weights = vec![0u32; data.n_rows];
    for &i in indices {
        weights[i] += 1;
    }
    // Any column carries the labels.
    let labels = data.column(0);
    let mut positives = 0;
    let mut samples: Vec<Sample> = weights
        .iter()
        .zip(0u32..)
        .filter(|&(&weight, _)| weight > 0)
        .map(|(&weight, row)| {
            positives += weight * (labels[row as usize].key() & 1) as u32;
            Sample { row, weight }
        })
        .collect();
    let mut builder = Builder {
        data,
        params: &params,
        nodes: Vec::new(),
        rng: StdRng::seed_from_u64(params.seed),
        feature_pool: (0..data.n_features()).collect(),
        hist: Vec::new(),
        spill: Vec::new(),
    };
    builder.build(&mut samples, (indices.len() as u32, positives), 0);
    let nodes = builder.nodes;
    from_nodes(params, nodes)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every row of `d` once, as a bootstrap that drew each row once.
    fn every_row(d: &Dataset) -> Vec<Sample> {
        (0..d.len() as u32)
            .map(|row| Sample { row, weight: 1 })
            .collect()
    }

    /// Weighted size and positives of every row of `d`.
    fn all_counts(d: &Dataset) -> Counts {
        (d.len() as u32, d.positives() as u32)
    }

    /// The bin code of row `i` of feature `f`, label bit stripped.
    fn code<C: Code>(b: &BinnedDataset<C>, f: usize, i: usize) -> usize {
        b.column(f)[i].key() >> 1
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
        let b = BinnedDataset::<u8>::new(&set, 0..0, 16, 1);
        for i in 1..d.len() {
            assert!(code(&b, 0, i) >= code(&b, 0, i - 1));
        }
    }

    #[test]
    fn threshold_consistent_with_codes() {
        let d = toy();
        let set = TrainingSet::new(&d);
        let b = BinnedDataset::<u8>::new(&set, 0..0, 16, 1);
        // For every sample and boundary: code <= b  <=>  value < threshold.
        for i in 0..d.len() {
            let v = d.row(i)[0];
            for bd in 0..b.n_edges(0) {
                let by_code = code(&b, 0, i) <= bd;
                let by_value = v < b.threshold(0, bd);
                assert_eq!(by_code, by_value, "i={i} b={bd}");
            }
        }
    }

    #[test]
    fn labels_ride_in_the_low_bit() {
        let d = toy();
        let set = TrainingSet::new(&d);
        let b = BinnedDataset::<u16>::new(&set, 0..0, 300, 2);
        for f in 0..d.n_features() {
            for i in 0..d.len() {
                assert_eq!(b.column(f)[i].key() & 1 == 1, d.label(i), "f={f} i={i}");
            }
        }
    }

    #[test]
    fn sort_marks_exactly_the_ties() {
        let mut d = Dataset::new(2);
        for i in 0..50 {
            let v = [-0.0, 0.0, 1.5, -2.0, 0.25][i % 5];
            d.push(&[v, (i % 3) as f64 + i as f64 / 100.0], i % 4 == 0);
        }
        let set = TrainingSet::new(&d);
        let sorted = set.sorted(2);
        for f in 0..d.n_features() {
            let column = &sorted[f * d.len()..(f + 1) * d.len()];
            let value = |e: u32| d.row((e & !TIE) as usize)[f];
            assert_eq!(column[0] & TIE, 0);
            for w in column.windows(2) {
                assert!(value(w[0]) <= value(w[1]), "f={f}");
                assert_eq!(w[1] & TIE != 0, value(w[0]) == value(w[1]), "f={f}");
            }
        }
    }

    /// Keys that share their top bits but not their low ones land in one
    /// run of the packed sort, out of key order: the run is re-sorted.
    #[test]
    fn sort_column_orders_keys_that_share_their_top_bits() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(3);
        for n in [1usize, 2, 5, 300, 5000] {
            let keys: Vec<u64> = (0..n)
                .map(|_| match rng.gen_range(0..3) {
                    0 => 7 << 40 | rng.gen_range(0..64),
                    1 => rng.gen(),
                    _ => 1 << 63,
                })
                .collect();
            let mut want: Vec<(u64, u32)> = keys.iter().copied().zip(0..).collect();
            want.sort_unstable();
            let mut out = vec![0; n];
            sort_column(&keys, &mut Vec::new(), &mut out);
            let rows: Vec<u32> = out.iter().map(|&e| e & !TIE).collect();
            assert_eq!(rows, want.iter().map(|w| w.1).collect::<Vec<_>>(), "n={n}");
            for (k, &e) in out.iter().enumerate() {
                let tie = k > 0 && want[k].0 == want[k - 1].0;
                assert_eq!(e & TIE != 0, tie, "n={n} entry {k}");
            }
        }
    }

    #[test]
    fn best_split_separates_the_classes() {
        let d = toy();
        let set = TrainingSet::new(&d);
        let b = BinnedDataset::<u8>::new(&set, 0..0, 32, 1);
        let samples = every_row(&d);
        let mut hist = Vec::new();
        let split = best_binned_split(&b, &samples, all_counts(&d), &[0, 1], &mut hist).unwrap();
        assert_eq!(split.feature, 0);
        let t = b.threshold(split.feature, split.boundary);
        assert!((55.0..=65.0).contains(&t), "threshold {t}");
        let left: Vec<usize> = (0..d.len()).filter(|&i| d.row(i)[0] < t).collect();
        let left_pos = left.iter().filter(|&&i| d.label(i)).count();
        assert_eq!(split.left, (left.len() as u32, left_pos as u32));
    }

    #[test]
    fn grouped_fill_sums_like_a_plain_one() {
        let d = toy();
        let set = TrainingSet::new(&d);
        let b = BinnedDataset::<u8>::new(&set, 0..0, 8, 1);
        let samples: Vec<Sample> = (0..d.len() as u32)
            .map(|row| Sample {
                row,
                weight: row % 3 + 1,
            })
            .collect();
        let stride = 2 * (b.n_edges(0).max(b.n_edges(1)) + 1);
        let columns = [b.column(0), b.column(1), b.column(1), b.column(0)];
        for len in 1..=FILL_GROUP {
            let mut grouped = vec![7; FILL_GROUP * stride];
            fill(&mut grouped, stride, &columns[..len], &samples);
            for (h, column) in grouped.chunks(stride).zip(&columns[..len]) {
                let mut plain = vec![0; stride];
                for s in &samples {
                    plain[column[s.row as usize].key()] += s.weight;
                }
                assert_eq!(h, plain, "{len} columns");
            }
        }
    }

    #[test]
    fn constant_feature_has_no_edges() {
        let mut d = Dataset::new(1);
        for _ in 0..50 {
            d.push(&[5.0], false);
        }
        let set = TrainingSet::new(&d);
        let b = BinnedDataset::<u8>::new(&set, 0..0, 8, 1);
        assert_eq!(b.n_edges(0), 0);
        let samples = every_row(&d);
        let mut hist = Vec::new();
        assert_eq!(
            best_binned_split(&b, &samples, all_counts(&d), &[0], &mut hist),
            None
        );
    }

    #[test]
    fn binned_tree_is_pure_on_training_data() {
        let d = toy();
        let set = TrainingSet::new(&d);
        let b = BinnedDataset::<u8>::new(&set, 0..0, 64, 1);
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
        let b = BinnedDataset::<u8>::new(&set, 0..0, 64, 1);
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
        let b = BinnedDataset::<u8>::new(&set, 0..0, 16, 1);
        assert!(b.n_edges(0) >= 1);
        let samples = every_row(&d);
        let mut hist = Vec::new();
        let split = best_binned_split(&b, &samples, all_counts(&d), &[0], &mut hist).unwrap();
        let t = b.threshold(0, split.boundary);
        assert!(t > 0.0 && t <= 1.0, "threshold {t}");
    }

    /// Bits of every edge and the packed codes of the given rows, per
    /// feature.
    fn binning<C: Code>(b: &BinnedDataset<C>, rows: &[usize]) -> Vec<(Vec<u64>, Vec<usize>)> {
        (0..b.n_features())
            .map(|f| {
                let edges = b.edges[f].iter().map(|e| e.to_bits()).collect();
                (edges, rows.iter().map(|&i| b.column(f)[i].key()).collect())
            })
            .collect()
    }

    /// Binning the rows outside `held_out` through the shared sort, and
    /// a copy of them afresh, at `C`'s width.
    fn shared_and_fresh<C: Code>(
        set: &TrainingSet,
        copy: &Dataset,
        held_out: Range<usize>,
        bins: usize,
    ) -> [Vec<(Vec<u64>, Vec<usize>)>; 2] {
        let n = set.data().len();
        let kept: Vec<usize> = (0..n).filter(|i| !held_out.contains(i)).collect();
        let shared = BinnedDataset::<C>::new(set, held_out, bins, 3);
        let fresh = BinnedDataset::<C>::new(&TrainingSet::new(copy), 0..0, bins, 1);
        [
            binning(&shared, &kept),
            binning(&fresh, &(0..kept.len()).collect::<Vec<_>>()),
        ]
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
                for bins in [2, 4, 64, 128] {
                    let [shared, fresh] =
                        shared_and_fresh::<u8>(&set, &copy, held_out.clone(), bins);
                    assert_eq!(shared, fresh, "n={n} held out {held_out:?}, {bins} bins");
                    let [wide, _] = shared_and_fresh::<u16>(&set, &copy, held_out.clone(), bins);
                    assert_eq!(
                        wide, shared,
                        "n={n} held out {held_out:?}, {bins} bins, u16"
                    );
                }
                let [shared, fresh] = shared_and_fresh::<u16>(&set, &copy, held_out.clone(), 300);
                assert_eq!(shared, fresh, "n={n} held out {held_out:?}, 300 bins");
            }
        }
    }

    /// The tie-group walk against the rule it implements, spelled out on
    /// the kept values in sorted order.
    #[test]
    fn edges_follow_the_quantile_rule() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(9);
        for n in [1usize, 2, 9, 57, 400] {
            let mut d = Dataset::new(1);
            for _ in 0..n {
                let v = [-0.0, 0.0, 3.0, -1.0][rng.gen_range(0..4)] + rng.gen_range(0..3) as f64;
                d.push(&[v], rng.gen_bool(0.5));
            }
            let set = TrainingSet::new(&d);
            for held_out in [0..0, 0..n / 2, n / 3..n - n / 3] {
                if held_out.len() == n {
                    continue;
                }
                let mut col: Vec<f64> = (0..n)
                    .filter(|i| !held_out.contains(i))
                    .map(|i| d.row(i)[0])
                    .collect();
                col.sort_by(|a, b| a.partial_cmp(b).unwrap());
                for bins in [2, 3, 16, 128] {
                    let kept = col.len();
                    let mut want: Vec<f64> = (1..bins).map(|b| col[b * kept / bins]).collect();
                    want.dedup();
                    want.retain(|&e| e > col[0]);
                    let b = BinnedDataset::<u8>::new(&set, held_out.clone(), bins, 1);
                    let bits = |e: &[f64]| e.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
                    assert_eq!(bits(&b.edges[0]), bits(&want), "n={n} {held_out:?} {bins}");
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
