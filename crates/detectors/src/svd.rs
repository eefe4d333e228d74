//! The SVD detector \[7\] (Table 3: row ∈ {10..50} points, column ∈ {3,5,7}).
//!
//! Recent data is arranged into a `row × column` lag matrix whose columns
//! are consecutive segments, the newest segment last. Normal behaviour makes
//! the columns strongly correlated, so the matrix is approximately rank one;
//! the severity of the current point is its residual against the dominant
//! singular component (the "normal subspace" of \[7\]).
//!
//! Because a full SVD per point would be wasteful, the detector extracts
//! only the dominant component with a short power iteration on the small
//! `column × column` Gram matrix, warm-started from the previous point's
//! right singular vector. The Gram matrix itself is maintained
//! *incrementally*: sliding the window by one point shifts every lag-matrix
//! column down by one entry, which changes each Gram entry by exactly one
//! dropped product and one gained product (an O(c²) update instead of the
//! O(c²·r) rebuild), with a periodic full rebuild to re-anchor rounding
//! drift. The exact Jacobi SVD lives in `opprentice_numeric::svd` and
//! anchors this approximation in tests.
//!
//! [`FusedSvd`] is the config-fused form the extraction engine runs: all
//! of the registry's 15 `(rows, cols)` lanes over one shared window of
//! present values, with the lanes of one column count advanced in lockstep
//! (see its docs for the bit-identity argument).

use crate::fused::FamilyKernel;
use crate::{Detector, MAX_SEVERITY};

/// Power-iteration steps per point (warm-started, so few are needed).
const POWER_STEPS: usize = 4;

/// Slides between full Gram rebuilds from the window. The incremental
/// updates accumulate rounding drift of order `ε · |G|` per slide; the
/// amortized rebuild cost at this cadence is negligible.
const GRAM_REFRESH: usize = 64;

/// Rejects lag-matrix shapes neither SVD form supports: at least 2×2,
/// and at most [`MAX_COLS`] columns (the scalar slide's fixed scratch and
/// the fused kernel's pack widths).
fn check_shape(rows: usize, cols: usize) {
    assert!(rows >= 2 && cols >= 2, "lag matrix must be at least 2x2");
    assert!(
        cols <= MAX_COLS,
        "lag matrix must have at most {MAX_COLS} columns, got {cols}"
    );
}

/// The SVD reconstruction-residual detector.
#[derive(Debug, Clone)]
pub struct SvdDetector {
    rows: usize,
    cols: usize,
    /// Ring buffer of window contents. Grows to `rows × cols` during
    /// warm-up, then stays fixed: the logical window (column-major, oldest
    /// first) starts at `start` and wraps, so sliding is one overwrite
    /// instead of a memmove.
    flat: Vec<f64>,
    /// Ring offset: physical index of the logically oldest entry.
    start: usize,
    /// Warm-start for the dominant right singular vector.
    v: Vec<f64>,
    /// Gram matrix (`cols × cols`), maintained incrementally across slides.
    gram: Vec<f64>,
    /// Power-iteration vector scratch.
    v_next: Vec<f64>,
    /// Slides since `gram` was last rebuilt from `flat`.
    gram_age: usize,
}

impl SvdDetector {
    /// Creates the detector with a `rows × cols` lag matrix.
    ///
    /// # Panics
    ///
    /// Panics if `rows < 2`, `cols < 2` or `cols > MAX_COLS`.
    pub fn new(rows: usize, cols: usize) -> Self {
        check_shape(rows, cols);
        Self {
            rows,
            cols,
            flat: Vec::with_capacity(rows * cols),
            start: 0,
            v: vec![1.0 / (cols as f64).sqrt(); cols],
            gram: vec![0.0; cols * cols],
            v_next: vec![0.0; cols],
            gram_age: 0,
        }
    }

    /// The window entry at logical index `k` (0 = oldest).
    #[inline]
    fn at(&self, k: usize) -> f64 {
        let cap = self.flat.len();
        let mut i = self.start + k;
        if i >= cap {
            i -= cap;
        }
        self.flat[i]
    }

    /// Rebuilds `G = AᵀA` from the window and resets the drift clock.
    fn rebuild_gram(&mut self) {
        let (r, c) = (self.rows, self.cols);
        for j1 in 0..c {
            for j2 in j1..c {
                let mut dot = 0.0;
                for i in 0..r {
                    dot += self.at(j1 * r + i) * self.at(j2 * r + i);
                }
                self.gram[j1 * c + j2] = dot;
                self.gram[j2 * c + j1] = dot;
            }
        }
        self.gram_age = 0;
    }

    /// Slides the full window by one point, updating the Gram matrix in
    /// O(c²). Dropping the oldest entry and appending `v` shifts every
    /// lag-matrix column down by one, so each Gram entry loses exactly one
    /// product and gains one:
    /// `G'[j1,j2] = G[j1,j2] − A₀(j1)·A₀(j2) + ext(j1·r+r)·ext(j2·r+r)`
    /// where `A₀(j)` is the entry leaving column `j` (logical index `j·r`)
    /// and `ext(k)` is `v` at the one-past-the-end index, the logical
    /// window entry otherwise.
    fn slide(&mut self, v: f64) {
        let (r, c) = (self.rows, self.cols);
        let cap = r * c;
        if self.gram_age < GRAM_REFRESH {
            // Per column j: the entry leaving (logical j·r) and the entry
            // arriving from the next column's head (logical (j+1)·r, which
            // for the last column is the incoming value itself).
            let mut leave = [0.0f64; MAX_COLS];
            let mut enter = [0.0f64; MAX_COLS];
            for j in 0..c {
                leave[j] = self.at(j * r);
                enter[j] = if j + 1 == c { v } else { self.at((j + 1) * r) };
            }
            for j1 in 0..c {
                for j2 in j1..c {
                    let delta = enter[j1] * enter[j2] - leave[j1] * leave[j2];
                    self.gram[j1 * c + j2] += delta;
                    if j1 != j2 {
                        self.gram[j2 * c + j1] += delta;
                    }
                }
            }
        }
        // The oldest slot becomes the newest entry; the logical window
        // rotates by advancing `start`.
        self.flat[self.start] = v;
        self.start += 1;
        if self.start == cap {
            self.start = 0;
        }
        if self.gram_age >= GRAM_REFRESH {
            self.rebuild_gram();
        } else {
            self.gram_age += 1;
        }
    }

    /// Residual of the newest entry against the rank-1 approximation.
    /// Assumes `flat` and `gram` are current.
    #[allow(clippy::needless_range_loop)] // explicit indices keep the algebra readable
    fn rank1_residual(&mut self) -> f64 {
        let (r, c) = (self.rows, self.cols);

        // Power iteration on G, warm-started from the previous v. On a
        // stationary stretch the warm start is already the fixed point, so
        // bail out as soon as an iteration stops moving v — regime changes
        // still get the full step budget.
        for _ in 0..POWER_STEPS {
            for (j1, n) in self.v_next.iter_mut().enumerate() {
                let mut acc = 0.0;
                for j2 in 0..c {
                    acc += self.gram[j1 * c + j2] * self.v[j2];
                }
                *n = acc;
            }
            let norm = self.v_next.iter().map(|x| x * x).sum::<f64>().sqrt();
            if norm < 1e-300 {
                // Degenerate (all-zero) window: fall back to uniform.
                self.v_next.fill(1.0 / (c as f64).sqrt());
            } else {
                for x in &mut self.v_next {
                    *x /= norm;
                }
            }
            let moved = self
                .v
                .iter()
                .zip(&self.v_next)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            std::mem::swap(&mut self.v, &mut self.v_next);
            if moved < 1e-12 {
                break;
            }
        }

        // u σ = A v; the rank-1 approximation of entry (i, j) is (Av)_i v_j.
        let mut av_last = 0.0; // (A v) at the last row
        for j in 0..c {
            av_last += self.at(j * r + r - 1) * self.v[j];
        }
        let approx = av_last * self.v[c - 1];
        (self.at(c * r - 1) - approx).abs()
    }
}

impl Detector for SvdDetector {
    fn observe(&mut self, _timestamp: i64, value: Option<f64>) -> Option<f64> {
        let v = value?;
        let cap = self.rows * self.cols;
        if self.flat.len() < cap {
            self.flat.push(v);
            if self.flat.len() < cap {
                return None;
            }
            self.rebuild_gram();
        } else {
            self.slide(v);
        }
        Some(self.rank1_residual())
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }
}

/// Config-fused SVD lanes: every `(rows, cols)` configuration over one
/// shared window of present values.
///
/// Each scalar [`SvdDetector`] keeps a private ring of the last
/// `rows × cols` present values; all of them are suffixes of the same
/// history, so the kernel keeps one ring sized for the largest lane (plus
/// the value that just left it). The ring is *doubled*: the value at ring
/// position `p` is stored at both `buf[p]` and `buf[p + span]`, so the
/// newest `len ≤ span` values are always the plain slice ending at
/// `buf[p + span]`, and no window read needs a wrap branch.
///
/// Lanes are grouped by column count (the Gram geometry) into packs of up
/// to five. A pack is an `SvdPack<C>` whose column count `C` is a
/// compile-time constant, so its lanes' Gram matrices (`[[Lanes; C]; C]`),
/// singular vectors and per-point scratch are fixed-size arrays — inline
/// in the pack or on the stack — in lane-minor structure-of-arrays form
/// (`gram[j1][j2][lane]`), and every loop over columns has a known trip
/// count. The per-point work — the O(c²) incremental Gram update and the
/// warm-started power iteration — then runs in lockstep across a pack:
/// each scalar detector's dependency chain (matrix-vector product → norm
/// → normalize → convergence test → next step) is serial, but the lanes'
/// chains are independent, so interleaving them fills the pipeline that
/// one chain leaves idle, and the fixed lane width lets every lane loop
/// compile to straight-line vector code. A lane that has converged (or is
/// still warming up, or is padding) keeps its vector by a per-lane select
/// while the others finish their steps; the rebuild cadence stays per
/// lane.
///
/// # Bit-identity
///
/// Per lane, every float operation is the scalar detector's, in the same
/// order, on the same values: the same window entries (slices of the
/// shared ring instead of ring lookups), the same `+=` chains from `0.0`,
/// the same `/ norm` and `1/√c` fallback, no fused multiply-add. Lockstep
/// only interleaves independent lanes' operations; selects discard the
/// results a converged or cold lane's scalar twin would never have
/// computed, and a Gram delta applied to a lane that rebuilds on the same
/// point is overwritten by the rebuild, exactly as if it had been skipped.
/// Making `C` a constant changes where the arrays live and lets the
/// compiler unroll the column loops; it reorders no lane's operations.
#[derive(Debug, Clone)]
pub struct FusedSvd {
    /// Doubled ring of present values (`2 × span`).
    buf: Vec<f64>,
    /// Ring length: the largest lane's window plus one.
    span: usize,
    /// Present values pushed so far.
    count: usize,
    packs: Vec<Pack>,
    n_configs: usize,
}

/// Lane width of one lockstep pack: the registry's five row counts per
/// column count, so its 15 configurations fill three packs exactly.
const LANES: usize = 5;

/// The largest supported column count (lag-matrix segments). The registry
/// uses 3, 5 and 7.
pub const MAX_COLS: usize = 8;

/// One lane-wide value per lane of a pack.
type Lanes = [f64; LANES];

/// Up to `LANES` lanes of column count `C`, in lane-minor SoA layout.
/// Padding lanes have an unreachable window length and never warm up.
#[derive(Debug, Clone)]
struct SvdPack<const C: usize> {
    /// Real lanes (the rest is padding).
    n: usize,
    rows: [usize; LANES],
    /// Window length `rows × C` per lane.
    cap: [usize; LANES],
    /// Kernel output slot of each real lane.
    slot: [usize; LANES],
    /// Slides since each lane's Gram matrix was last rebuilt.
    gram_age: [usize; LANES],
    /// `C × C` Gram matrices, `[j1][j2][lane]`.
    gram: [[Lanes; C]; C],
    /// `C` singular-vector entries (warm starts), `[j][lane]`.
    v: [Lanes; C],
}

impl<const C: usize> SvdPack<C> {
    fn new() -> Self {
        Self {
            n: 0,
            rows: [0; LANES],
            cap: [usize::MAX; LANES],
            slot: [0; LANES],
            gram_age: [0; LANES],
            gram: [[[0.0; LANES]; C]; C],
            v: [[1.0 / (C as f64).sqrt(); LANES]; C],
        }
    }

    fn push_lane(&mut self, rows: usize, slot: usize) {
        let l = self.n;
        self.rows[l] = rows;
        self.cap[l] = rows * C;
        self.slot[l] = slot;
        self.n += 1;
    }

    /// Advances every lane by one present value. `hist` ends with that
    /// value and holds at least the largest lane's window plus one entry
    /// before it; `count` is the number of present values so far.
    #[allow(clippy::needless_range_loop)] // lane indices keep the SoA algebra readable
    fn advance(&mut self, hist: &[f64], count: usize, out: &mut [Option<f64>]) {
        let end = hist.len();

        // 1. Incremental Gram slide (scalar `slide`), in lockstep. Per
        //    column j the entry leaving (old window index j·r) and the one
        //    arriving (new window index (j+1)·r − 1); lanes that are not
        //    sliding yet contribute a zero delta.
        let mut leave = [[0.0; LANES]; C];
        let mut enter = [[0.0; LANES]; C];
        for l in 0..self.n {
            let (r, cap) = (self.rows[l], self.cap[l]);
            if count > cap {
                let s = &hist[end - 1 - cap..];
                for j in 0..C {
                    leave[j][l] = s[j * r];
                    enter[j][l] = s[(j + 1) * r];
                }
            }
        }
        for j1 in 0..C {
            let (e1, l1) = (enter[j1], leave[j1]);
            for j2 in j1..C {
                let (e2, l2) = (enter[j2], leave[j2]);
                let mut delta = [0.0; LANES];
                for l in 0..LANES {
                    delta[l] = e1[l] * e2[l] - l1[l] * l2[l];
                }
                let upper = &mut self.gram[j1][j2];
                for l in 0..LANES {
                    upper[l] += delta[l];
                }
                if j1 != j2 {
                    let lower = &mut self.gram[j2][j1];
                    for l in 0..LANES {
                        lower[l] += delta[l];
                    }
                }
            }
        }

        // 2. Per-lane refresh cadence: the first full window and every
        //    GRAM_REFRESH-th slide rebuild the lane's Gram matrix from its
        //    window (overwriting the delta just applied, which the scalar
        //    detector skips on those slides).
        // `1.0` while a lane still iterates: a float mask keeps the
        // per-lane selects below in vector registers.
        let mut active = [0.0f64; LANES];
        for l in 0..self.n {
            let (r, cap) = (self.rows[l], self.cap[l]);
            if count == cap || (count > cap && self.gram_age[l] >= GRAM_REFRESH) {
                let w = &hist[end - cap..];
                for j1 in 0..C {
                    // Row j1's dot products advance together (independent
                    // chains), each still summing i = 0..r in order.
                    let mut row = [0.0; C];
                    let dots = &mut row[..C - j1];
                    for i in 0..r {
                        let a = w[j1 * r + i];
                        for (k, dot) in dots.iter_mut().enumerate() {
                            *dot += a * w[(j1 + k) * r + i];
                        }
                    }
                    for (k, &dot) in dots.iter().enumerate() {
                        self.gram[j1][j1 + k][l] = dot;
                        self.gram[j1 + k][j1][l] = dot;
                    }
                }
                self.gram_age[l] = 0;
            } else if count > cap {
                self.gram_age[l] += 1;
            }
            if count >= cap {
                active[l] = 1.0;
            }
        }

        // 3. Power iteration (scalar `rank1_residual`), in lockstep; a lane
        //    leaves the sweep once its vector stops moving.
        let uniform = 1.0 / (C as f64).sqrt();
        for _ in 0..POWER_STEPS {
            if active.iter().all(|&a| a == 0.0) {
                break;
            }
            let mut next = [[0.0; LANES]; C];
            for j1 in 0..C {
                let mut acc = [0.0; LANES];
                for j2 in 0..C {
                    let (g, x) = (&self.gram[j1][j2], &self.v[j2]);
                    for l in 0..LANES {
                        acc[l] += g[l] * x[l];
                    }
                }
                next[j1] = acc;
            }
            let mut norm = [0.0; LANES];
            for x in &next {
                for l in 0..LANES {
                    norm[l] += x[l] * x[l];
                }
            }
            for n in &mut norm {
                *n = n.sqrt();
            }
            // One simple pass per step keeps every lane loop a straight
            // vector sweep. The quotient is stored for every lane (a divide
            // only used under a select would become a per-lane branch).
            for x in &mut next {
                for l in 0..LANES {
                    x[l] /= norm[l];
                }
            }
            // Checks cover the real lanes only; padding lanes never warm up
            // and whatever their vectors hold is never read.
            let real = self.n;
            if norm[..real].iter().any(|&n| n < 1e-300) {
                // Degenerate (all-zero) window: fall back to uniform.
                for x in &mut next {
                    for l in 0..LANES {
                        x[l] = if norm[l] < 1e-300 { uniform } else { x[l] };
                    }
                }
            }
            // The scalar `fold(0.0, f64::max)` over |v − next|: a NaN
            // distance is skipped, any larger one taken.
            let mut moved = [0.0f64; LANES];
            for (v, x) in self.v.iter().zip(&next) {
                for l in 0..LANES {
                    let d = (v[l] - x[l]).abs();
                    moved[l] = if d > moved[l] { d } else { moved[l] };
                }
            }
            if active[..real].iter().all(|&a| a != 0.0) {
                // Every lane takes the step: the scalar swap, pack-wide.
                self.v = next;
            } else {
                for (v, x) in self.v.iter_mut().zip(&next) {
                    for l in 0..LANES {
                        v[l] = if active[l] != 0.0 { x[l] } else { v[l] };
                    }
                }
            }
            for l in 0..LANES {
                if moved[l] < 1e-12 {
                    active[l] = 0.0;
                }
            }
        }

        // 4. Residual of the newest entry against the rank-1 approximation.
        for l in 0..self.n {
            let (r, cap) = (self.rows[l], self.cap[l]);
            out[self.slot[l]] = if count >= cap {
                let w = &hist[end - cap..];
                let mut av_last = 0.0;
                for j in 0..C {
                    av_last += w[j * r + r - 1] * self.v[j][l];
                }
                let approx = av_last * self.v[C - 1][l];
                Some((w[cap - 1] - approx).abs().clamp(0.0, MAX_SEVERITY))
            } else {
                None
            };
        }
    }
}

/// Declares `Pack`, one variant per supported column count, and its
/// dispatch to the matching `SvdPack`.
macro_rules! svd_packs {
    ($($variant:ident = $c:literal),+ $(,)?) => {
        /// A lockstep pack of one column count, boxed so each pack takes
        /// only its own width's space (an eight-column pack is ~3 KB).
        #[derive(Debug, Clone)]
        enum Pack {
            $($variant(Box<SvdPack<$c>>),)+
        }

        impl Pack {
            fn new(cols: usize) -> Self {
                match cols {
                    $($c => Pack::$variant(Box::new(SvdPack::new())),)+
                    _ => unreachable!("column count checked by FusedSvd::new"),
                }
            }

            fn cols(&self) -> usize {
                match self {
                    $(Pack::$variant(_) => $c,)+
                }
            }

            fn lanes(&self) -> usize {
                match self {
                    $(Pack::$variant(p) => p.n,)+
                }
            }

            fn push_lane(&mut self, rows: usize, slot: usize) {
                match self {
                    $(Pack::$variant(p) => p.push_lane(rows, slot),)+
                }
            }

            fn advance(&mut self, hist: &[f64], count: usize, out: &mut [Option<f64>]) {
                match self {
                    $(Pack::$variant(p) => p.advance(hist, count, out),)+
                }
            }
        }
    };
}

svd_packs!(C2 = 2, C3 = 3, C4 = 4, C5 = 5, C6 = 6, C7 = 7, C8 = 8);

impl FusedSvd {
    /// Creates lanes for the given `(rows, cols)` configurations, in
    /// output order.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty, a lag matrix is smaller than 2×2, or
    /// one has more than [`MAX_COLS`] columns.
    pub fn new(configs: &[(usize, usize)]) -> Self {
        assert!(!configs.is_empty(), "no configs");
        let mut packs: Vec<Pack> = Vec::new();
        for (slot, &(rows, cols)) in configs.iter().enumerate() {
            check_shape(rows, cols);
            let p = match packs
                .iter()
                .position(|p| p.cols() == cols && p.lanes() < LANES)
            {
                Some(i) => i,
                None => {
                    packs.push(Pack::new(cols));
                    packs.len() - 1
                }
            };
            packs[p].push_lane(rows, slot);
        }
        let span = configs
            .iter()
            .map(|&(r, c)| r * c)
            .max()
            .expect("non-empty")
            + 1;
        Self {
            buf: vec![0.0; 2 * span],
            span,
            count: 0,
            packs,
            n_configs: configs.len(),
        }
    }
}

impl FamilyKernel for FusedSvd {
    fn n_configs(&self) -> usize {
        self.n_configs
    }

    fn observe(&mut self, _timestamp: i64, value: Option<f64>, out: &mut [Option<f64>]) {
        assert_eq!(out.len(), self.n_configs, "output width mismatch");
        let Some(x) = value else {
            out.fill(None);
            return;
        };
        let p = self.count % self.span;
        self.buf[p] = x;
        self.buf[p + self.span] = x;
        self.count += 1;
        let hist = &self.buf[..=p + self.span];
        for pack in &mut self.packs {
            pack.advance(hist, self.count, out);
        }
    }

    fn clone_box(&self) -> Box<dyn FamilyKernel> {
        Box::new(self.clone())
    }

    fn family(&self) -> &'static str {
        "SVD"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opprentice_numeric::matrix::Matrix;
    use opprentice_numeric::svd::svd as jacobi_svd;

    fn feed(d: &mut SvdDetector, values: &[f64]) -> Vec<Option<f64>> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| d.observe(i as i64 * 60, Some(v)))
            .collect()
    }

    #[test]
    fn warm_up_is_rows_times_cols() {
        let mut d = SvdDetector::new(4, 3);
        let vals: Vec<f64> = (0..12).map(|i| (i % 4) as f64).collect();
        let out = feed(&mut d, &vals);
        assert!(out[..11].iter().all(Option::is_none));
        assert!(out[11].is_some());
    }

    #[test]
    fn periodic_signal_scores_low_spike_scores_high() {
        // Period equal to the row count: columns are identical => rank 1.
        let mut d = SvdDetector::new(8, 3);
        let periodic: Vec<f64> = (0..240).map(|i| 10.0 + ((i % 8) as f64) * 2.0).collect();
        let out = feed(&mut d, &periodic);
        let normal = out.last().unwrap().unwrap();
        assert!(normal < 1e-6, "normal residual {normal}");
        let spike_sev = d.observe(240 * 60, Some(100.0)).unwrap();
        assert!(spike_sev > 1.0, "spike residual {spike_sev}");
    }

    #[test]
    fn power_iteration_matches_jacobi_rank1_residual() {
        // Compare against the exact SVD on the same lag matrix.
        let (rows, cols) = (6, 3);
        let vals: Vec<f64> = (0..rows * cols)
            .map(|i| 10.0 + ((i % rows) as f64) + 0.1 * ((i * 7 % 13) as f64))
            .collect();
        let mut d = SvdDetector::new(rows, cols);
        let mut approx = None;
        for (i, &v) in vals.iter().enumerate() {
            approx = d.observe(i as i64, Some(v));
        }
        let approx = approx.unwrap();

        let mat = Matrix::from_rows(
            rows,
            cols,
            // Column-major window -> row-major matrix.
            (0..rows * cols)
                .map(|k| vals[(k % cols) * rows + k / cols])
                .collect(),
        );
        let dec = jacobi_svd(&mat);
        let rec = dec.reconstruct(1);
        let exact = (mat.get(rows - 1, cols - 1) - rec.get(rows - 1, cols - 1)).abs();
        assert!(
            (approx - exact).abs() < 0.05 * exact.max(0.1),
            "power-iter {approx} vs jacobi {exact}"
        );
    }

    #[test]
    fn missing_points_are_skipped_without_panic() {
        let mut d = SvdDetector::new(3, 2);
        for i in 0..20 {
            let v = if i % 5 == 0 { None } else { Some(i as f64) };
            let _ = d.observe(i * 60, v);
        }
    }

    #[test]
    fn all_zero_window_is_degenerate_but_finite() {
        let mut d = SvdDetector::new(3, 2);
        let out = feed(&mut d, &[0.0; 12]);
        let sev = out.last().unwrap().unwrap();
        assert!(sev.is_finite());
        assert!(sev.abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "at least 2x2")]
    fn tiny_matrix_rejected() {
        let _ = SvdDetector::new(1, 3);
    }

    #[test]
    #[should_panic(expected = "at most 8 columns")]
    fn too_many_columns_rejected() {
        let _ = SvdDetector::new(2, 9);
    }

    #[test]
    #[should_panic(expected = "at most 8 columns")]
    fn fused_too_many_columns_rejected() {
        let _ = FusedSvd::new(&[(10, 3), (2, 9)]);
    }

    #[test]
    fn widest_supported_matrix_slides() {
        // Eight columns is the limit both forms accept, and it must run
        // past warm-up, through the first Gram slides and a refresh.
        let values: Vec<f64> = (0..3 * 8 + 100).map(|i| (i % 5) as f64).collect();
        let mut d = SvdDetector::new(3, 8);
        let out = feed(&mut d, &values);
        assert!(out[3 * 8 - 1..]
            .iter()
            .all(|s| s.is_some_and(f64::is_finite)));
    }
}
