//! Sliding-window order statistics for the extraction hot path.
//!
//! The MAD-family detectors (TSD MAD, historical MAD, wavelet) need the
//! median / MAD / max-|x| of a bounded trailing window on every point or
//! every spread refresh. Re-collecting and re-sorting the window each time
//! — what the first implementation did — costs `O(n log n)` per query and
//! one allocation per point. [`SortedWindow`] keeps the window *both* in
//! arrival order (a ring, for running-moment queries that must match the
//! arrival-order summation of [`crate::stats`]) and in sorted order (for
//! order statistics), maintained lazily: pushes go to pending lists and are
//! merged into the sorted array only when a query needs it, with no
//! steady-state allocation. The merge costs `O(k log k)` to sort `k`
//! pending updates, `O(k log(n / k))` galloping searches to place them, and
//! one bulk copy per untouched run between them — a `memcpy` instead of a
//! compare-and-branch per element.
//!
//! Every query is **bit-identical** to the naive recompute it replaces:
//!
//! * [`SortedWindow::median`] returns exactly `stats::median(&collected)`
//!   (same middle elements, same two-middle average) — up to the sign of
//!   zero when the window mixes `-0.0` and `0.0` (they compare equal, so
//!   which representative lands on the middle index depends on merge
//!   history; the values are numerically identical and every detector use
//!   passes the median through a subtraction + `abs`, so severities are
//!   unaffected),
//! * [`SortedWindow::mad`] returns exactly `stats::mad(&collected)` — the
//!   deviations `|x − median|` over sorted data form two monotone runs
//!   (decreasing left of the median, increasing right of it), so their
//!   median is an `O(log n)` k-th-of-two-sorted-runs selection, without
//!   materializing or sorting the deviation vector,
//! * [`SortedWindow::max_abs`] equals
//!   `collected.iter().map(|x| x.abs()).fold(0.0, f64::max)` — on sorted
//!   data the maximum magnitude sits at one of the two ends,
//! * [`SortedWindow::mean`] / [`SortedWindow::std_dev`] iterate the ring in
//!   arrival order, reproducing `stats::mean` / `stats::std_dev` on the
//!   collected window term for term (float addition is order-sensitive, so
//!   sorted-order summation would *not* be bit-identical).
//!
//! [`SlotRings`] serves the seasonal detectors (TSD, historical
//! average/MAD), which keep a short window per slot of the week or day —
//! tens of thousands of windows at a 1-minute interval. It stores each
//! slot's history once, as one flat ring of the longest window, reads every
//! shorter window as a suffix of it, and keeps sorted copies of the
//! suffixes that need order statistics. The free functions
//! [`median_of_sorted`] and [`mad_of_sorted`] are the order-statistic
//! queries both types share.
//!
//! `NaN` must not be pushed; the detector layer filters missing points.

use std::collections::VecDeque;

/// A bounded sliding window with cheap order-statistic queries.
///
/// Pushing beyond the capacity evicts the oldest value. All query methods
/// are bit-identical to collecting the window into a `Vec` (arrival order)
/// and calling the corresponding [`crate::stats`] function.
#[derive(Debug, Clone, Default)]
pub struct SortedWindow {
    cap: usize,
    /// Arrival-order view.
    ring: VecDeque<f64>,
    /// Sorted view, valid once pending updates are merged.
    sorted: Vec<f64>,
    /// Values pushed since the last merge.
    pending_add: Vec<f64>,
    /// Values evicted since the last merge.
    pending_remove: Vec<f64>,
    /// Reused merge output buffer.
    merge_buf: Vec<f64>,
    /// More churn than content since the last merge: the next query
    /// rebuilds the sorted view from the ring, so pushes stop recording
    /// pending updates (bounding them by the window size).
    stale: bool,
}

impl SortedWindow {
    /// An empty window holding at most `cap` values.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`.
    pub fn new(cap: usize) -> Self {
        assert!(cap > 0, "window capacity must be positive");
        Self {
            cap,
            ..Self::default()
        }
    }

    /// Number of values currently held.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// `true` when the window holds no values.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The oldest value, if any.
    pub fn front(&self) -> Option<f64> {
        self.ring.front().copied()
    }

    /// Pushes a value, evicting the oldest if the window is full.
    ///
    /// `v` must not be `NaN` (order statistics are undefined on NaN; this
    /// mirrors the panic the `stats` sorts would raise).
    pub fn push(&mut self, v: f64) {
        debug_assert!(!v.is_nan(), "NaN pushed into SortedWindow");
        self.ring.push_back(v);
        let evicted = (self.ring.len() > self.cap)
            .then(|| self.ring.pop_front().expect("non-empty after push"));
        if self.stale {
            return;
        }
        self.pending_add.push(v);
        if let Some(old) = evicted {
            self.pending_remove.push(old);
        }
        if self.pending_add.len() + self.pending_remove.len() >= self.sorted.len() {
            self.stale = true;
            self.pending_add.clear();
            self.pending_remove.clear();
        }
    }

    /// The values in arrival order (oldest first).
    pub fn iter(&self) -> impl Iterator<Item = f64> + '_ {
        self.ring.iter().copied()
    }

    /// Arrival-order arithmetic mean; `None` when empty. Bit-identical to
    /// `stats::mean` over the collected window.
    pub fn mean(&self) -> Option<f64> {
        if self.ring.is_empty() {
            return None;
        }
        Some(self.ring.iter().sum::<f64>() / self.ring.len() as f64)
    }

    /// Arrival-order population standard deviation; `None` when empty.
    /// Bit-identical to `stats::std_dev` over the collected window.
    pub fn std_dev(&self) -> Option<f64> {
        let m = self.mean()?;
        let var = self.ring.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / self.ring.len() as f64;
        Some(var.sqrt())
    }

    /// Merges pending pushes/evictions into the sorted view.
    fn ensure_sorted(&mut self) {
        if self.stale {
            // More churn than content: rebuild from the ring outright.
            self.sorted.clear();
            self.sorted.extend(self.ring.iter().copied());
            self.sorted
                .sort_unstable_by(|a, b| a.partial_cmp(b).expect("NaN in SortedWindow"));
            self.stale = false;
            return;
        }
        if self.pending_add.is_empty() && self.pending_remove.is_empty() {
            return;
        }

        let cmp = |a: &f64, b: &f64| a.partial_cmp(b).expect("NaN in SortedWindow");
        self.pending_add.sort_unstable_by(cmp);
        self.pending_remove.sort_unstable_by(cmp);

        // Cancel values that were pushed and evicted between queries; the
        // window is a multiset, so value-level cancellation is exact.
        {
            let (add, rem) = (&mut self.pending_add, &mut self.pending_remove);
            let (mut i, mut j, mut wi, mut wj) = (0, 0, 0, 0);
            while i < add.len() && j < rem.len() {
                if add[i] == rem[j] {
                    i += 1;
                    j += 1;
                } else if add[i] < rem[j] {
                    add[wi] = add[i];
                    wi += 1;
                    i += 1;
                } else {
                    rem[wj] = rem[j];
                    wj += 1;
                    j += 1;
                }
            }
            while i < add.len() {
                add[wi] = add[i];
                wi += 1;
                i += 1;
            }
            while j < rem.len() {
                rem[wj] = rem[j];
                wj += 1;
                j += 1;
            }
            add.truncate(wi);
            rem.truncate(wj);
        }

        // Run-copy merge: the pending events (surviving additions and
        // evictions, disjoint by value after cancellation) are visited in
        // value order; each one's cut in `sorted` is found by galloping from
        // the previous cut, and the untouched run in between is copied in
        // bulk. An addition goes in front of the first element not below it
        // (equal values: additions first), an eviction drops the first
        // element equal to it, so equal values (including `-0.0` vs `0.0`)
        // land in slots fixed by the push and query history alone.
        self.merge_buf.clear();
        let (add, rem, sorted) = (&self.pending_add, &self.pending_remove, &self.sorted);
        let out = &mut self.merge_buf;
        let (mut ai, mut ri, mut cut) = (0, 0, 0);
        while ai < add.len() || ri < rem.len() {
            let take_add = ri == rem.len() || (ai < add.len() && add[ai] < rem[ri]);
            let target = if take_add { add[ai] } else { rem[ri] };
            let pos = cut + gallop_lower_bound(&sorted[cut..], target);
            out.extend_from_slice(&sorted[cut..pos]);
            if take_add {
                out.push(target);
                ai += 1;
                cut = pos;
            } else {
                debug_assert!(
                    pos < sorted.len() && sorted[pos] == target,
                    "eviction of a value not in the window"
                );
                ri += 1;
                cut = pos + 1;
            }
        }
        out.extend_from_slice(&sorted[cut..]);
        std::mem::swap(&mut self.sorted, &mut self.merge_buf);
        self.pending_add.clear();
        self.pending_remove.clear();
    }

    /// Median; `None` when empty. Bit-identical to `stats::median` over the
    /// collected window.
    pub fn median(&mut self) -> Option<f64> {
        self.ensure_sorted();
        median_of_sorted(&self.sorted)
    }

    /// Median absolute deviation × 1.4826 (the Gaussian-consistent scale);
    /// `None` when empty. Bit-identical to `stats::mad` over the collected
    /// window, computed allocation-free in `O(log n)` after the merge (see
    /// [`mad_of_sorted`]).
    pub fn mad(&mut self) -> Option<f64> {
        self.ensure_sorted();
        mad_of_sorted(&self.sorted)
    }

    /// Maximum magnitude, 0.0 when empty. Bit-identical to
    /// `window.iter().map(|x| x.abs()).fold(0.0, f64::max)`.
    ///
    /// Read off the ends of the sorted view when it is current (a median
    /// or MAD query just merged it); otherwise one pass over the ring —
    /// cheaper than merging for two ends, and the maximum of non-NaN
    /// magnitudes does not depend on the order they are visited in.
    pub fn max_abs(&mut self) -> f64 {
        if self.ring.is_empty() {
            return 0.0;
        }
        if self.stale || !self.pending_add.is_empty() || !self.pending_remove.is_empty() {
            return self.ring.iter().fold(0.0, |m, &x| {
                let a = x.abs();
                if a > m {
                    a
                } else {
                    m
                }
            });
        }
        let first = self.sorted[0].abs();
        let last = self.sorted[self.sorted.len() - 1].abs();
        first.max(last)
    }
}

/// Per-slot seasonal history for many slots at once: one flat ring of the
/// `cap` newest values per slot, plus optional sorted copies of shorter
/// suffixes.
///
/// Built for detectors that keep, for every slot of the day or week, the
/// values seen at that slot over several window lengths. Every window
/// length receives the same pushes (the value, whenever present) and
/// evicts oldest-first, so the window of length `k` is exactly the newest
/// `min(len, k)` values of the longest one: each length is read as a
/// suffix of the slot's single ring rather than kept as a window of its
/// own.
///
/// Storage is one zero-initialized allocation (untouched slots cost no
/// resident memory) of one contiguous block per slot, plus a
/// `(head, len)` pair per slot. A slot's block is its ring of `cap` values
/// followed, for each window length `k` registered with
/// [`SlotRings::with_sorted`], by the slot's newest `k` values in
/// ascending order, maintained eagerly on push: a rank count and one
/// `copy_within` place the new value and drop the evicted one. Everything
/// one push or
/// query touches is adjacent, so a slot last visited a day or a week ago
/// costs one run of consecutive cache lines rather than a miss per window.
///
/// Queries are bit-identical to collecting the suffix into a `Vec` in
/// arrival order and calling the corresponding [`crate::stats`] function:
/// [`SlotRings::mean`] / [`SlotRings::mean_std_dev`] sum the suffix oldest
/// first, exactly as [`SortedWindow::mean`] / [`SortedWindow::std_dev`]
/// iterate their ring, and [`median_of_sorted`] / [`mad_of_sorted`] over
/// [`SlotRings::sorted`] give the median (up to the sign of a zero, as for
/// [`SortedWindow`]) and the MAD.
#[derive(Debug, Clone)]
pub struct SlotRings {
    cap: usize,
    /// Values per slot block: `cap` plus every sorted length.
    block: usize,
    /// `slots × block` values; slot `s` owns
    /// `values[s * block..(s + 1) * block]`.
    values: Vec<f64>,
    /// Per slot: the next write position and the number of values held.
    state: Vec<(u32, u32)>,
    /// `(k, offset)` of each sorted copy within a block: the first
    /// `min(len, k)` values from `offset` on are ascending.
    sorted: Vec<(usize, usize)>,
}

impl SlotRings {
    /// `slots` empty rings holding at most `cap` values each.
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0` or `cap` does not fit a `u32`.
    pub fn new(slots: usize, cap: usize) -> Self {
        Self::with_sorted(slots, cap, &[])
    }

    /// Like [`SlotRings::new`], also keeping a sorted copy of every slot's
    /// newest `k` values for each `k` in `sorted_lens` (the suffixes
    /// [`SlotRings::sorted`] can be asked for).
    ///
    /// # Panics
    ///
    /// Panics if `cap == 0`, `cap` does not fit a `u32`, or a length in
    /// `sorted_lens` is 0 or above `cap`.
    pub fn with_sorted(slots: usize, cap: usize, sorted_lens: &[usize]) -> Self {
        assert!(cap > 0, "window capacity must be positive");
        assert!(u32::try_from(cap).is_ok(), "window capacity too large");
        let mut sorted: Vec<(usize, usize)> = Vec::new();
        let mut block = cap;
        for &k in sorted_lens {
            assert!((1..=cap).contains(&k), "sorted suffix length out of range");
            if sorted.iter().all(|&(seen, _)| seen != k) {
                sorted.push((k, block));
                block += k;
            }
        }
        Self {
            cap,
            block,
            values: vec![0.0; slots * block],
            state: vec![(0, 0); slots],
            sorted,
        }
    }

    /// Number of values slot `slot` holds (at most the capacity).
    #[inline]
    pub fn len(&self, slot: usize) -> usize {
        self.state[slot].1 as usize
    }

    /// Pushes `v` into slot `slot`, evicting its oldest value once full,
    /// and updates every sorted suffix copy.
    ///
    /// `v` must not be `NaN`.
    pub fn push(&mut self, slot: usize, v: f64) {
        debug_assert!(!v.is_nan(), "NaN pushed into SlotRings");
        let cap = self.cap;
        let (head, len) = self.state[slot];
        let (head, len) = (head as usize, len as usize);
        let block = &mut self.values[slot * self.block..(slot + 1) * self.block];
        let (ring, copies) = block.split_at_mut(cap);
        for &(k, offset) in &self.sorted {
            let run = &mut copies[offset - cap..offset - cap + k];
            let held = len.min(k);
            // Rank of `v` among the held values: where it goes, ahead of
            // equal values. A branch-free count beats a binary search on
            // windows this short.
            let below = count_below(&run[..held], v);
            if held < k {
                run.copy_within(below..held, below + 1);
                run[below] = v;
                continue;
            }
            // The suffix is full: its oldest value, `k` pushes back, leaves
            // (the first copy equal to it — equal values are
            // interchangeable), and the values between its slot and `v`'s
            // shift one place toward the gap.
            let old = ring[if head >= k { head - k } else { head + cap - k }];
            let at = count_below(run, old);
            debug_assert!(at < k && run[at] == old, "evicted value not in the suffix");
            if below <= at {
                run.copy_within(below..at, below + 1);
                run[below] = v;
            } else {
                run.copy_within(at + 1..below, at);
                run[below - 1] = v;
            }
        }
        ring[head] = v;
        let head = if head + 1 == cap { 0 } else { head + 1 };
        let len = (len + 1).min(cap);
        self.state[slot] = (head as u32, len as u32);
    }

    /// The newest `min(len, k)` values of slot `slot` in arrival order
    /// (oldest first), as two runs: the second is non-empty only when the
    /// suffix wraps around the end of the slot's ring.
    #[inline]
    pub fn suffix(&self, slot: usize, k: usize) -> (&[f64], &[f64]) {
        let cap = self.cap;
        let (head, len) = self.state[slot];
        let (head, n) = (head as usize, (len as usize).min(k));
        let ring = &self.values[slot * self.block..slot * self.block + cap];
        if n <= head {
            (&ring[head - n..head], &[])
        } else {
            (&ring[cap - (n - head)..], &ring[..head])
        }
    }

    /// Arrival-order mean of the newest `min(len, k)` values; `None` when
    /// the slot is empty. Bit-identical to `stats::mean` over the suffix.
    #[inline]
    pub fn mean(&self, slot: usize, k: usize) -> Option<f64> {
        let (a, b) = self.suffix(slot, k);
        let n = a.len() + b.len();
        if n == 0 {
            return None;
        }
        Some(a.iter().chain(b).sum::<f64>() / n as f64)
    }

    /// Arrival-order mean and population standard deviation of the newest
    /// `min(len, k)` values; `None` when the slot is empty. Bit-identical
    /// to `(stats::mean, stats::std_dev)` over the suffix.
    #[inline]
    pub fn mean_std_dev(&self, slot: usize, k: usize) -> Option<(f64, f64)> {
        let m = self.mean(slot, k)?;
        let (a, b) = self.suffix(slot, k);
        let n = a.len() + b.len();
        let var = a.iter().chain(b).map(|x| (x - m) * (x - m)).sum::<f64>() / n as f64;
        Some((m, var.sqrt()))
    }

    /// The newest `min(len, k)` values of slot `slot`, ascending.
    ///
    /// # Panics
    ///
    /// Panics if `k` was not registered with [`SlotRings::with_sorted`].
    #[inline]
    pub fn sorted(&self, slot: usize, k: usize) -> &[f64] {
        let &(_, offset) = self
            .sorted
            .iter()
            .find(|&&(seen, _)| seen == k)
            .expect("no sorted copy kept for this suffix length");
        let start = slot * self.block + offset;
        &self.values[start..start + self.len(slot).min(k)]
    }
}

/// How many values of `xs` are below `v`: for ascending `xs`, the index of
/// the first value not below `v`.
#[inline]
fn count_below(xs: &[f64], v: f64) -> usize {
    xs.iter().map(|&x| usize::from(x < v)).sum()
}

/// Median of an ascending slice; `None` when empty. Bit-identical to
/// `stats::median` over the same values in any order (up to the sign of a
/// zero median, see the module docs).
#[inline]
pub fn median_of_sorted(s: &[f64]) -> Option<f64> {
    let n = s.len();
    if n == 0 {
        return None;
    }
    Some(if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    })
}

/// Median absolute deviation × 1.4826 of an ascending slice; `None` when
/// empty. Bit-identical to `stats::mad` over the same values in any order.
///
/// `O(log n)` and allocation-free: over sorted values the deviations
/// `|x − median|` form a non-decreasing run leftwards of the median and
/// another rightwards of it, so the deviation median is a
/// k-th-of-two-sorted-runs selection (binary search on how many of the `k`
/// smallest come from the left run).
pub fn mad_of_sorted(s: &[f64]) -> Option<f64> {
    let med = median_of_sorted(s)?;
    let n = s.len();
    let split = s.partition_point(|&x| x < med);
    // `(x − med).abs()` on both sides, as the naive deviation vector.
    let left = |i: usize| (s[split - 1 - i] - med).abs();
    let right = |j: usize| (s[split + j] - med).abs();
    let (a, b) = (split, n - split);

    // Take the `t = (n - 1) / 2 + 1` smallest deviations: `i` from the
    // left run, `t - i` from the right. The smallest `i` whose next left
    // deviation is not below the last right one taken is a valid split
    // (the predicate is monotone in `i`).
    let t = (n - 1) / 2 + 1;
    let (mut lo, mut hi) = (t.saturating_sub(b), t.min(a));
    while lo < hi {
        let i = (lo + hi) / 2;
        if left(i) < right(t - i - 1) {
            lo = i + 1;
        } else {
            hi = i;
        }
    }
    let (i, j) = (lo, t - lo);
    // Rank `(n - 1) / 2`: the larger of the last deviation taken from each
    // run.
    let dev_lo = match (i > 0, j > 0) {
        (true, true) => left(i - 1).max(right(j - 1)),
        (true, false) => left(i - 1),
        (false, true) => right(j - 1),
        (false, false) => unreachable!("t >= 1"),
    };
    let raw = if n % 2 == 1 {
        dev_lo
    } else {
        // Rank `n / 2`: the smaller of the next deviation in each run.
        let dev_hi = match (i < a, j < b) {
            (true, true) => left(i).min(right(j)),
            (true, false) => left(i),
            (false, true) => right(j),
            (false, false) => unreachable!("rank n / 2 exists"),
        };
        (dev_lo + dev_hi) / 2.0
    };
    Some(raw * 1.4826)
}

/// `xs.partition_point(|&x| x < target)` for sorted `xs`, found by
/// galloping from the front: probe offsets 1, 3, 7, … until an element is
/// not below `target`, then binary-search the last bracket. Merge events
/// cluster near the previous cut, so the bracket is usually tiny.
#[inline]
fn gallop_lower_bound(xs: &[f64], target: f64) -> usize {
    let mut lo = 0;
    let mut step = 1;
    while lo + step <= xs.len() && xs[lo + step - 1] < target {
        lo += step;
        step *= 2;
    }
    let hi = (lo + step).min(xs.len());
    lo + xs[lo..hi].partition_point(|&x| x < target)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;

    /// Deterministic xorshift values in a modest range, with duplicates.
    fn pseudo_stream(n: usize) -> Vec<f64> {
        let mut state = 0x9e3779b97f4a7c15u64;
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Quantize so exact duplicates occur regularly.
                ((state % 2000) as f64 - 1000.0) / 8.0
            })
            .collect()
    }

    fn collected(w: &SortedWindow) -> Vec<f64> {
        w.iter().collect()
    }

    #[test]
    fn matches_stats_functions_bit_for_bit_under_churn() {
        for cap in [1usize, 2, 3, 7, 64] {
            let mut w = SortedWindow::new(cap);
            for (i, v) in pseudo_stream(400).into_iter().enumerate() {
                w.push(v);
                // Query at irregular strides so pushes batch up between
                // merges (the lazy path) and also back-to-back (k = 1).
                if i % 5 == 0 || i % 7 == 0 {
                    let xs = collected(&w);
                    assert_eq!(w.len(), xs.len());
                    assert_eq!(
                        w.median().map(f64::to_bits),
                        stats::median(&xs).map(f64::to_bits),
                        "median cap={cap} i={i}"
                    );
                    assert_eq!(
                        w.mad().map(f64::to_bits),
                        stats::mad(&xs).map(f64::to_bits),
                        "mad cap={cap} i={i}"
                    );
                    assert_eq!(
                        w.mean().map(f64::to_bits),
                        stats::mean(&xs).map(f64::to_bits),
                        "mean cap={cap} i={i}"
                    );
                    assert_eq!(
                        w.std_dev().map(f64::to_bits),
                        stats::std_dev(&xs).map(f64::to_bits),
                        "std_dev cap={cap} i={i}"
                    );
                    let naive = xs.iter().map(|x| x.abs()).fold(0.0, f64::max);
                    assert_eq!(w.max_abs().to_bits(), naive.to_bits(), "max_abs");
                }
            }
        }
    }

    #[test]
    fn eviction_keeps_only_the_newest_cap_values() {
        let mut w = SortedWindow::new(3);
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            w.push(v);
        }
        assert_eq!(collected(&w), vec![3.0, 4.0, 5.0]);
        assert_eq!(w.front(), Some(3.0));
        assert_eq!(w.median(), Some(4.0));
    }

    #[test]
    fn duplicate_values_cancel_correctly() {
        // Push/evict the same value repeatedly between queries: the
        // pending-cancellation path must keep multiset counts right.
        let mut w = SortedWindow::new(4);
        for _ in 0..3 {
            w.push(7.0);
        }
        w.push(1.0);
        assert_eq!(w.median(), Some(7.0));
        for _ in 0..4 {
            w.push(7.0); // evicts the three 7.0s and the 1.0
        }
        assert_eq!(w.median(), Some(7.0));
        assert_eq!(w.mad(), Some(0.0));
        w.push(-9.0);
        w.push(-9.0);
        assert_eq!(collected(&w), vec![7.0, 7.0, -9.0, -9.0]);
        assert_eq!(w.median(), Some((-9.0 + 7.0) / 2.0));
        assert_eq!(w.max_abs(), 9.0);
    }

    #[test]
    fn empty_window_queries() {
        let mut w = SortedWindow::new(5);
        assert!(w.is_empty());
        assert_eq!(w.median(), None);
        assert_eq!(w.mad(), None);
        assert_eq!(w.mean(), None);
        assert_eq!(w.std_dev(), None);
        assert_eq!(w.max_abs(), 0.0);
        assert_eq!(w.front(), None);
    }

    #[test]
    fn capacity_one_window() {
        let mut w = SortedWindow::new(1);
        w.push(5.0);
        w.push(-3.0);
        assert_eq!(w.len(), 1);
        assert_eq!(w.median(), Some(-3.0));
        assert_eq!(w.mad(), Some(0.0));
        assert_eq!(w.max_abs(), 3.0);
    }

    #[test]
    fn clone_is_independent() {
        let mut a = SortedWindow::new(8);
        for v in pseudo_stream(20) {
            a.push(v);
        }
        let _ = a.median(); // force a merge so clone copies a mixed state
        let mut b = a.clone();
        let before = a.median();
        b.push(1e6);
        assert_eq!(a.median(), before);
        assert_ne!(b.max_abs(), a.max_abs());
    }

    /// One test stream of `n` values: `kind` 0 is continuous, 1 draws from
    /// a handful of values (duplicate-heavy), 2 mixes `-0.0`/`0.0` with
    /// small integers, 3 spans magnitudes from 1e-300 to 1e300 with both
    /// signs.
    fn kind_stream(kind: u8, seed: u64, n: usize) -> Vec<f64> {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        (0..n)
            .map(|_| {
                let r = next();
                match kind {
                    0 => (r >> 11) as f64 / (1u64 << 53) as f64 * 200.0 - 100.0,
                    1 => [3.5, -1.0, 7.0, 3.5, 0.25][(r % 5) as usize],
                    2 => [0.0, -0.0, 1.0, -2.0, -0.0, 0.0, 5.0][(r % 7) as usize],
                    _ => {
                        let sign = if r & 1 == 0 { 1.0 } else { -1.0 };
                        let exp = ((r >> 8) % 601) as i32 - 300;
                        sign * (1.0 + ((r >> 20) % 1000) as f64 / 1000.0) * 10f64.powi(exp)
                    }
                }
            })
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// Order statistics match the from-scratch `stats` recompute at
        /// every query cadence the detectors use (every point, every 7th,
        /// every 64th), for duplicate-heavy, signed-zero and wide-magnitude
        /// streams, across window sizes from 1 to the 2016-value spread
        /// window. The lazy merge state depends on *when* queries happen,
        /// so every query advances it, and a bounded sample of them is
        /// checked against the recompute.
        #[test]
        fn order_statistics_match_stats_at_every_cadence(
            kind in 0u8..4,
            cap in proptest::sample::select(vec![1usize, 2, 5, 35, 300, 2016]),
            cadence in proptest::sample::select(vec![1usize, 7, 64]),
            seed in proptest::prelude::any::<u64>(),
        ) {
            let n = cap + 200 * cadence;
            let values = kind_stream(kind, seed, n);
            let queries = n / cadence;
            let stride = (queries / 120).max(1);
            let mut w = SortedWindow::new(cap);
            // A twin only ever asked for its magnitude (the plain-TSD use):
            // its sorted view is never merged.
            let mut solo = SortedWindow::new(cap);
            for (i, &v) in values.iter().enumerate() {
                w.push(v);
                solo.push(v);
                if (i + 1) % cadence != 0 {
                    continue;
                }
                let (med, mad, max_abs) = (w.median(), w.mad(), w.max_abs());
                let solo_max_abs = solo.max_abs();
                if ((i + 1) / cadence) % stride != 0 {
                    continue;
                }
                let xs = collected(&w);
                // Signed zeros compare equal, so which one lands on the
                // middle index is merge-history dependent; any other
                // median must match bit for bit.
                let (m, e) = (med.unwrap(), stats::median(&xs).unwrap());
                proptest::prop_assert!(
                    m.to_bits() == e.to_bits() || (m == 0.0 && e == 0.0),
                    "median {} vs {} (kind {} cap {} cadence {} i {})", m, e, kind, cap, cadence, i
                );
                proptest::prop_assert_eq!(
                    mad.map(f64::to_bits),
                    stats::mad(&xs).map(f64::to_bits),
                    "mad (kind {} cap {} cadence {} i {})", kind, cap, cadence, i
                );
                let naive = xs.iter().map(|x| x.abs()).fold(0.0, f64::max);
                proptest::prop_assert_eq!(
                    max_abs.to_bits(),
                    naive.to_bits(),
                    "max_abs (kind {} cap {} cadence {} i {})", kind, cap, cadence, i
                );
                proptest::prop_assert_eq!(
                    solo_max_abs.to_bits(),
                    naive.to_bits(),
                    "unmerged max_abs (kind {} cap {} cadence {} i {})", kind, cap, cadence, i
                );
                // The sorted view is the collected window, sorted.
                let mut expect = xs.clone();
                expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
                proptest::prop_assert!(w.sorted == expect, "sorted view (kind {} cap {})", kind, cap);
            }
        }
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = SortedWindow::new(0);
    }

    /// The newest `min(len, k)` values of a reference slot history.
    fn newest(history: &VecDeque<f64>, k: usize) -> Vec<f64> {
        history
            .iter()
            .skip(history.len().saturating_sub(k))
            .copied()
            .collect()
    }

    proptest::proptest! {
        #![proptest_config(proptest::test_runner::ProptestConfig::with_cases(48))]

        /// Every suffix of every slot ring matches the from-scratch `stats`
        /// recompute over the slot's newest values: arrival-order
        /// contents, mean and standard deviation bit for bit, median (up
        /// to the sign of a zero) and MAD bit for bit off the sorted
        /// copies, for continuous, duplicate-heavy, signed-zero and
        /// wide-magnitude values, with slots filled unevenly (some pushed
        /// far past their capacity, some never).
        #[test]
        fn slot_ring_suffixes_match_stats(
            kind in 0u8..4,
            cap in proptest::sample::select(vec![1usize, 2, 5, 7, 35]),
            sorted_mask in proptest::prelude::any::<u64>(),
            seed in proptest::prelude::any::<u64>(),
        ) {
            const SLOTS: usize = 4;
            let sorted_lens: Vec<usize> =
                (1..=cap).filter(|k| sorted_mask >> (k % 64) & 1 == 1 || *k == cap).collect();
            let mut rings = SlotRings::with_sorted(SLOTS, cap, &sorted_lens);
            let mut reference: Vec<VecDeque<f64>> = vec![VecDeque::new(); SLOTS];
            let values = kind_stream(kind, seed, 6 * cap + 40);
            let mut pick = seed.rotate_left(17) | 1;
            for (i, &v) in values.iter().enumerate() {
                pick ^= pick << 13;
                pick ^= pick >> 7;
                pick ^= pick << 17;
                // Slot 3 is never pushed; slot 0 gets most of the values.
                let slot = [0, 0, 0, 1, 2][(pick % 5) as usize];
                rings.push(slot, v);
                let h = &mut reference[slot];
                h.push_back(v);
                if h.len() > cap {
                    h.pop_front();
                }
                for (s, h) in reference.iter().enumerate() {
                    proptest::prop_assert_eq!(rings.len(s), h.len());
                    for k in 1..=cap {
                        let xs = newest(h, k);
                        let (a, b) = rings.suffix(s, k);
                        let got: Vec<f64> = a.iter().chain(b).copied().collect();
                        proptest::prop_assert_eq!(
                            got.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                            xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                            "suffix slot {} k {} i {}", s, k, i
                        );
                        proptest::prop_assert_eq!(
                            rings.mean(s, k).map(f64::to_bits),
                            stats::mean(&xs).map(f64::to_bits),
                            "mean slot {} k {} i {}", s, k, i
                        );
                        proptest::prop_assert_eq!(
                            rings.mean_std_dev(s, k).map(|(_, sd)| sd.to_bits()),
                            stats::std_dev(&xs).map(f64::to_bits),
                            "std_dev slot {} k {} i {}", s, k, i
                        );
                        if !sorted_lens.contains(&k) {
                            continue;
                        }
                        let mut expect = xs.clone();
                        expect.sort_by(|a, b| a.partial_cmp(b).unwrap());
                        let sorted = rings.sorted(s, k);
                        proptest::prop_assert!(
                            sorted == expect.as_slice(),
                            "sorted copy slot {} k {} i {}", s, k, i
                        );
                        match (median_of_sorted(sorted), stats::median(&xs)) {
                            (Some(m), Some(e)) => proptest::prop_assert!(
                                m.to_bits() == e.to_bits() || (m == 0.0 && e == 0.0),
                                "median {} vs {} slot {} k {} i {}", m, e, s, k, i
                            ),
                            (m, e) => proptest::prop_assert_eq!(m, e),
                        }
                        proptest::prop_assert_eq!(
                            mad_of_sorted(sorted).map(f64::to_bits),
                            stats::mad(&xs).map(f64::to_bits),
                            "mad slot {} k {} i {}", s, k, i
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn slot_ring_keeps_the_newest_cap_values_per_slot() {
        let mut r = SlotRings::with_sorted(3, 3, &[2]);
        for v in [5.0, 1.0, 4.0, 2.0] {
            r.push(1, v);
        }
        r.push(2, 9.0);
        assert_eq!((r.len(0), r.len(1), r.len(2)), (0, 3, 1));
        assert_eq!(r.suffix(1, 3), (&[1.0, 4.0][..], &[2.0][..]));
        assert_eq!(r.suffix(1, 2), (&[4.0][..], &[2.0][..]));
        assert_eq!(r.sorted(1, 2), &[2.0, 4.0]);
        assert_eq!(r.mean_std_dev(1, 2), Some((3.0, 1.0)));
        assert_eq!(r.mean(0, 3), None);
        assert_eq!(r.sorted(0, 2), &[] as &[f64]);
        assert_eq!(r.sorted(2, 2), &[9.0]);
    }

    #[test]
    #[should_panic(expected = "no sorted copy")]
    fn slot_ring_median_needs_a_registered_length() {
        let mut r = SlotRings::new(1, 4);
        r.push(0, 1.0);
        let _ = r.sorted(0, 4);
    }
}
