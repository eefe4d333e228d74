//! Config-fused family kernels: one structure-of-arrays kernel advances
//! *all* of a detector family's parameter configurations per point.
//!
//! The paper's registry (Table 3) is a grid of parameters per family —
//! 64 Holt–Winters configs share one warm-up buffer and seasonal position,
//! the 10 TSD/TSD MAD configs read every window length as a suffix of one
//! per-slot history, the 15 MA/diff/EWMA lanes share one value ring.
//! Running each config as an independent [`Detector`] re-maintains all of
//! that shared state per config and leaves the per-point arithmetic as 133
//! scattered virtual calls. A [`FamilyKernel`] instead keeps the per-config
//! state in flat arrays (`level[n]`, `trend[n]`, `seasonal[pos * n + c]`)
//! and sweeps the parameter grid in a tight inner loop the compiler can
//! vectorize, while window-shaped state is stored once per *distinct*
//! window instead of once per config.
//!
//! # Bit-identity
//!
//! Fusion is a scheduling optimization, never a semantic one: every kernel
//! replays each configuration's own arithmetic in the same order as the
//! scalar detector it replaces, so severities are **bit-identical** to the
//! per-config path (`tests/fused_differential.rs` is the oracle). The two
//! ingredients:
//!
//! * *Per-config arithmetic is untouched.* Each lane evaluates the same
//!   expressions on the same values in the same order as its scalar
//!   counterpart; only the loop structure changed (config-major →
//!   point-major).
//! * *Shared state is read-only within a point.* A shared window or ring is
//!   only mutated after every lane has read it, which matches the scalar
//!   detectors exactly because every scalar detector also pushes into its
//!   (identical) private copy only after computing its severity.
//!
//! The SVD and wavelet kernels ([`crate::svd::FusedSvd`],
//! [`crate::wavelet::FusedWavelet`]) live next to the scalar detectors
//! they replay; [`plan`] fuses them like the rest.
//!
//! Kernels apply [`crate::clamp_severity`]'s clamp internally, as
//! [`ScalarKernel`] does for the unfused configurations.

use crate::registry::DetectorSpec;
use crate::svd::FusedSvd;
use crate::wavelet::{Band, FusedWavelet};
use crate::{Detector, MAX_SEVERITY};
use opprentice_numeric::rolling::{mad_of_sorted, median_of_sorted, SlotRings, SortedWindow};
use opprentice_timeseries::{slot_of_day, slot_of_week};
use std::collections::VecDeque;

/// An online severity extractor for a *batch of configurations* — the
/// fused counterpart of [`Detector`].
///
/// One call to [`FamilyKernel::observe`] advances every fused
/// configuration by one point and writes one clamped severity per config
/// (in fusion order) into `out`.
pub trait FamilyKernel: Send {
    /// Number of configurations this kernel advances per point.
    fn n_configs(&self) -> usize;

    /// Feeds the next point (in time order; `value` is `None` for a
    /// missing point), writing each configuration's clamped severity into
    /// `out[0..n_configs()]`.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != n_configs()`.
    fn observe(&mut self, timestamp: i64, value: Option<f64>, out: &mut [Option<f64>]);

    /// A boxed deep copy; the clone's severity streams continue exactly
    /// where the original's were (the same clone-determinism contract as
    /// [`Detector::clone_box`]).
    fn clone_box(&self) -> Box<dyn FamilyKernel>;

    /// Family display name for attribution (e.g. `"Holt-Winters"`; a
    /// kernel fusing both plain and MAD variants reports the combined
    /// name, e.g. `"TSD/TSD MAD"`).
    fn family(&self) -> &'static str;
}

/// Clamp mirroring [`crate::clamp_severity`] for the fused hot loops.
#[inline]
fn clamp(s: f64) -> Option<f64> {
    Some(s.clamp(0.0, MAX_SEVERITY))
}

// --------------------------------------------------------------------------
// Scalar fallback
// --------------------------------------------------------------------------

/// Fallback kernel: runs one configuration through its boxed [`Detector`].
/// Used for configurations without a fused kernel (simple threshold,
/// ARIMA, extensions).
#[derive(Clone)]
pub struct ScalarKernel {
    family: &'static str,
    detector: Box<dyn Detector>,
}

impl ScalarKernel {
    /// Builds the configuration's detector ([`DetectorSpec::detector`]).
    pub fn new(spec: &DetectorSpec) -> Self {
        Self {
            family: spec.name(),
            detector: spec.detector(),
        }
    }
}

impl FamilyKernel for ScalarKernel {
    fn n_configs(&self) -> usize {
        1
    }

    fn observe(&mut self, timestamp: i64, value: Option<f64>, out: &mut [Option<f64>]) {
        assert_eq!(out.len(), 1, "output width mismatch");
        out[0] = crate::clamp_severity(self.detector.observe(timestamp, value));
    }

    fn clone_box(&self) -> Box<dyn FamilyKernel> {
        Box::new(self.clone())
    }

    fn family(&self) -> &'static str {
        self.family
    }
}

// --------------------------------------------------------------------------
// Diff
// --------------------------------------------------------------------------

/// Fused diff lanes: one shared value ring (capacity = the largest lag)
/// serves every lag; lane `c`'s reference is the value `lags[c]` points
/// back.
#[derive(Debug, Clone)]
pub struct FusedDiff {
    lags: Vec<usize>,
    max_lag: usize,
    /// Raw values, missing kept as `None`, capped at `max_lag` — identical
    /// in content to the longest scalar [`crate::diff::Diff`] ring.
    ring: VecDeque<Option<f64>>,
}

impl FusedDiff {
    /// Creates lanes for the given lags (in points).
    ///
    /// # Panics
    ///
    /// Panics if `lags` is empty or contains 0.
    pub fn new(lags: Vec<usize>) -> Self {
        assert!(!lags.is_empty(), "no lags");
        assert!(lags.iter().all(|&l| l > 0), "zero lag");
        let max_lag = lags.iter().copied().max().expect("non-empty");
        Self {
            lags,
            max_lag,
            ring: VecDeque::with_capacity(max_lag),
        }
    }
}

impl FamilyKernel for FusedDiff {
    fn n_configs(&self) -> usize {
        self.lags.len()
    }

    fn observe(&mut self, _timestamp: i64, value: Option<f64>, out: &mut [Option<f64>]) {
        assert_eq!(out.len(), self.lags.len(), "output width mismatch");
        let len = self.ring.len();
        for (slot, &lag) in out.iter_mut().zip(&self.lags) {
            // Lane `c` is warm once `lag` values have been pushed; since
            // `len = min(pushes, max_lag)` and `lag <= max_lag`, that is
            // exactly `len >= lag`.
            *slot = match (value, len >= lag) {
                (Some(v), true) => match self.ring[len - lag] {
                    Some(ref_v) => clamp((v - ref_v).abs()),
                    None => None,
                },
                _ => None,
            };
        }
        self.ring.push_back(value);
        if self.ring.len() > self.max_lag {
            self.ring.pop_front();
        }
    }

    fn clone_box(&self) -> Box<dyn FamilyKernel> {
        Box::new(self.clone())
    }

    fn family(&self) -> &'static str {
        "diff"
    }
}

// --------------------------------------------------------------------------
// Simple MA
// --------------------------------------------------------------------------

/// Fused simple-MA lanes: one shared present-value ring (capacity = the
/// largest window) plus a running sum per lane, maintained with the exact
/// `+=` / `-=` sequence of the scalar detector so the float state matches
/// bit-for-bit.
#[derive(Debug, Clone)]
pub struct FusedSimpleMa {
    wins: Vec<usize>,
    sums: Vec<f64>,
    max_win: usize,
    ring: VecDeque<f64>,
    /// Present values seen so far (missing points don't count).
    count: usize,
}

impl FusedSimpleMa {
    /// Creates lanes for the given window lengths (in points).
    ///
    /// # Panics
    ///
    /// Panics if `wins` is empty or contains 0.
    pub fn new(wins: Vec<usize>) -> Self {
        assert!(!wins.is_empty(), "no windows");
        assert!(wins.iter().all(|&w| w > 0), "zero window");
        let max_win = wins.iter().copied().max().expect("non-empty");
        Self {
            sums: vec![0.0; wins.len()],
            wins,
            max_win,
            ring: VecDeque::with_capacity(max_win + 1),
            count: 0,
        }
    }
}

impl FamilyKernel for FusedSimpleMa {
    fn n_configs(&self) -> usize {
        self.wins.len()
    }

    fn observe(&mut self, _timestamp: i64, value: Option<f64>, out: &mut [Option<f64>]) {
        assert_eq!(out.len(), self.wins.len(), "output width mismatch");
        let Some(v) = value else {
            out.fill(None);
            return;
        };
        // Severities first: lane `c` is warm once `win` present values
        // have been seen (its scalar window is then exactly full).
        for ((slot, &win), &sum) in out.iter_mut().zip(&self.wins).zip(&self.sums) {
            *slot = if self.count >= win {
                let pred = sum / win as f64;
                clamp((v - pred).abs())
            } else {
                None
            };
        }
        // Then the push: `sum += v` and, once sliding, `sum -= evicted` —
        // the evicted value sits `win` slots behind the newest.
        self.ring.push_back(v);
        let newest = self.ring.len() - 1;
        for (c, &win) in self.wins.iter().enumerate() {
            self.sums[c] += v;
            if self.count >= win {
                self.sums[c] -= self.ring[newest - win];
            }
        }
        self.count += 1;
        if self.ring.len() > self.max_win {
            self.ring.pop_front();
        }
    }

    fn clone_box(&self) -> Box<dyn FamilyKernel> {
        Box::new(self.clone())
    }

    fn family(&self) -> &'static str {
        "simple MA"
    }
}

// --------------------------------------------------------------------------
// Weighted MA
// --------------------------------------------------------------------------

/// Fused weighted-MA lanes: one shared present-value ring; each lane
/// recomputes its linearly weighted prediction over the ring's last `win`
/// values, oldest→newest with weights `1..=win` — the scalar iteration
/// order, value-for-value.
#[derive(Debug, Clone)]
pub struct FusedWeightedMa {
    wins: Vec<usize>,
    max_win: usize,
    ring: VecDeque<f64>,
    count: usize,
}

impl FusedWeightedMa {
    /// Creates lanes for the given window lengths (in points).
    ///
    /// # Panics
    ///
    /// Panics if `wins` is empty or contains 0.
    pub fn new(wins: Vec<usize>) -> Self {
        assert!(!wins.is_empty(), "no windows");
        assert!(wins.iter().all(|&w| w > 0), "zero window");
        let max_win = wins.iter().copied().max().expect("non-empty");
        Self {
            wins,
            max_win,
            ring: VecDeque::with_capacity(max_win + 1),
            count: 0,
        }
    }
}

impl FamilyKernel for FusedWeightedMa {
    fn n_configs(&self) -> usize {
        self.wins.len()
    }

    fn observe(&mut self, _timestamp: i64, value: Option<f64>, out: &mut [Option<f64>]) {
        assert_eq!(out.len(), self.wins.len(), "output width mismatch");
        let Some(v) = value else {
            out.fill(None);
            return;
        };
        let len = self.ring.len();
        for (slot, &win) in out.iter_mut().zip(&self.wins) {
            *slot = if self.count >= win {
                let mut num = 0.0;
                let mut den = 0.0;
                for (i, &x) in self.ring.iter().skip(len - win).enumerate() {
                    let w = (i + 1) as f64; // oldest gets 1, newest gets win
                    num += w * x;
                    den += w;
                }
                clamp((v - num / den).abs())
            } else {
                None
            };
        }
        self.ring.push_back(v);
        self.count += 1;
        if self.ring.len() > self.max_win {
            self.ring.pop_front();
        }
    }

    fn clone_box(&self) -> Box<dyn FamilyKernel> {
        Box::new(self.clone())
    }

    fn family(&self) -> &'static str {
        "weighted MA"
    }
}

// --------------------------------------------------------------------------
// MA of diff
// --------------------------------------------------------------------------

/// Fused MA-of-diff lanes: one shared previous-value slot and diff ring
/// (both cleared on a gap, like every scalar lane clears at once) plus a
/// running sum per lane with the scalar `+=` / `-=` sequence.
#[derive(Debug, Clone)]
pub struct FusedMaOfDiff {
    wins: Vec<usize>,
    sums: Vec<f64>,
    max_win: usize,
    prev: Option<f64>,
    diffs: VecDeque<f64>,
    /// Diffs since the last gap.
    n_diffs: usize,
}

impl FusedMaOfDiff {
    /// Creates lanes for the given window lengths (in diffs).
    ///
    /// # Panics
    ///
    /// Panics if `wins` is empty or contains 0.
    pub fn new(wins: Vec<usize>) -> Self {
        assert!(!wins.is_empty(), "no windows");
        assert!(wins.iter().all(|&w| w > 0), "zero window");
        let max_win = wins.iter().copied().max().expect("non-empty");
        Self {
            sums: vec![0.0; wins.len()],
            wins,
            max_win,
            prev: None,
            diffs: VecDeque::with_capacity(max_win + 1),
            n_diffs: 0,
        }
    }
}

impl FamilyKernel for FusedMaOfDiff {
    fn n_configs(&self) -> usize {
        self.wins.len()
    }

    fn observe(&mut self, _timestamp: i64, value: Option<f64>, out: &mut [Option<f64>]) {
        assert_eq!(out.len(), self.wins.len(), "output width mismatch");
        let Some(v) = value else {
            // A gap breaks the "previous slot" chain in every lane at once.
            self.prev = None;
            self.diffs.clear();
            self.sums.fill(0.0);
            self.n_diffs = 0;
            out.fill(None);
            return;
        };
        if let Some(p) = self.prev {
            let d = (v - p).abs();
            self.diffs.push_back(d);
            let newest = self.diffs.len() - 1;
            for ((slot, &win), sum) in out.iter_mut().zip(&self.wins).zip(&mut self.sums) {
                // Scalar order per lane: push (sum += d), evict once the
                // lane's window overflows (sum -= oldest), then emit when
                // the window is exactly full.
                *sum += d;
                if self.n_diffs >= win {
                    *sum -= self.diffs[newest - win];
                }
                *slot = if self.n_diffs + 1 >= win {
                    clamp(*sum / win as f64)
                } else {
                    None
                };
            }
            self.n_diffs += 1;
            if self.diffs.len() > self.max_win {
                self.diffs.pop_front();
            }
        } else {
            out.fill(None);
        }
        self.prev = Some(v);
    }

    fn clone_box(&self) -> Box<dyn FamilyKernel> {
        Box::new(self.clone())
    }

    fn family(&self) -> &'static str {
        "MA of diff"
    }
}

// --------------------------------------------------------------------------
// EWMA
// --------------------------------------------------------------------------

/// Fused EWMA lanes: flat `state[n]` swept in one vectorizable loop. All
/// lanes see the same first present value, so one shared `seen` flag
/// replaces the per-lane `Option`.
#[derive(Debug, Clone)]
pub struct FusedEwma {
    alphas: Vec<f64>,
    state: Vec<f64>,
    /// Severity scratch, kept flat so the update loop stays branch-free.
    sev: Vec<f64>,
    seen: bool,
}

impl FusedEwma {
    /// Creates lanes for the given smoothing constants.
    ///
    /// # Panics
    ///
    /// Panics if `alphas` is empty or a constant is outside `[0, 1]`.
    pub fn new(alphas: Vec<f64>) -> Self {
        assert!(!alphas.is_empty(), "no alphas");
        assert!(
            alphas.iter().all(|a| (0.0..=1.0).contains(a)),
            "alpha must be in [0, 1]"
        );
        Self {
            state: vec![0.0; alphas.len()],
            sev: vec![0.0; alphas.len()],
            alphas,
            seen: false,
        }
    }
}

impl FamilyKernel for FusedEwma {
    fn n_configs(&self) -> usize {
        self.alphas.len()
    }

    fn observe(&mut self, _timestamp: i64, value: Option<f64>, out: &mut [Option<f64>]) {
        assert_eq!(out.len(), self.alphas.len(), "output width mismatch");
        let Some(v) = value else {
            out.fill(None);
            return;
        };
        if self.seen {
            for c in 0..self.alphas.len() {
                let a = self.alphas[c];
                let prev = self.state[c];
                self.sev[c] = (v - prev).abs();
                self.state[c] = a * v + (1.0 - a) * prev;
            }
            for (slot, &s) in out.iter_mut().zip(&self.sev) {
                *slot = clamp(s);
            }
        } else {
            self.state.fill(v);
            self.seen = true;
            out.fill(None);
        }
    }

    fn clone_box(&self) -> Box<dyn FamilyKernel> {
        Box::new(self.clone())
    }

    fn family(&self) -> &'static str {
        "EWMA"
    }
}

// --------------------------------------------------------------------------
// TSD / TSD MAD
// --------------------------------------------------------------------------

/// Fused TSD/TSD MAD lanes.
///
/// *Seasonal history.* Every scalar lane keeps, per slot of the week, the
/// values seen at that slot over its last `weeks` weeks. All lanes push the
/// same value into the same slot on the same points and evict oldest-first,
/// so a lane's window is the newest `weeks` values of the longest one: one
/// [`SlotRings`] of the longest window serves every lane as a suffix.
///
/// *Residual spread.* Every lane pushes a residual on exactly the same
/// points — "this slot's history is non-empty" does not depend on the
/// window length — and refreshes its spread on exactly the same points
/// (the first residual, then every `SPREAD_REFRESH`th), so one residual
/// count and one refresh counter serve the kernel. The plain
/// lanes' residuals share one time-major, lane-minor ring, swept once per
/// refresh with one accumulator per lane (each lane's summation order is
/// its scalar ring order); the MAD lanes keep a [`SortedWindow`] each.
#[derive(Debug, Clone)]
pub struct FusedTsd {
    interval: u32,
    /// Per-slot-of-week values, one ring of the longest window per slot.
    history: SlotRings,
    /// Window length (weeks) of each lane.
    weeks: Vec<usize>,
    robust: Vec<bool>,
    /// Lane index of each plain lane, in lane order.
    plain: Vec<usize>,
    /// The plain lanes' residuals: `RESIDUAL_WINDOW` rows of `stride`
    /// values (the plain lanes, zero-padded to a whole number of sweep
    /// groups), row `t` written by the `t`-th residual push (mod the
    /// window).
    plain_residuals: Vec<f64>,
    stride: usize,
    /// Lane index and residual window of each MAD lane.
    robust_residuals: Vec<(usize, SortedWindow)>,
    /// Next row of `plain_residuals` and the residual count (capped at the
    /// window), shared by every lane.
    residual_head: usize,
    residual_len: usize,
    /// Residual pushes since the last spread refresh; starts one short of
    /// the cadence so the first push refreshes, as the scalar detector's
    /// `spread == 0` check does.
    since_refresh: usize,
    spread: Vec<f64>,
    /// Per-lane scratch: this point's residual.
    residual: Vec<f64>,
    /// Longest MAD lane window (0 without MAD lanes).
    robust_reach: usize,
    /// The slot's newest values, sorted, and the median after each
    /// insertion (MAD baselines by window fill).
    sort_buf: Vec<f64>,
    medians: Vec<f64>,
}

/// Plain TSD lanes one refresh sweep accumulates side by side: independent
/// per-lane chains that keep the adder busy (and fill SIMD registers),
/// each still summing its own residuals in arrival order.
const SWEEP_LANES: usize = 8;

impl FusedTsd {
    /// Creates lanes for the given `(weeks, robust)` configurations.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or a `weeks` is 0.
    pub fn new(configs: &[(usize, bool)], interval: u32) -> Self {
        assert!(!configs.is_empty(), "no configs");
        assert!(
            configs.iter().all(|&(w, _)| w > 0),
            "weeks must be positive"
        );
        let ppw = (7 * 86_400 / i64::from(interval)) as usize;
        let longest = configs.iter().map(|c| c.0).max().expect("non-empty");
        let plain: Vec<usize> = (0..configs.len()).filter(|&c| !configs[c].1).collect();
        let stride = plain.len().next_multiple_of(SWEEP_LANES);
        let robust_residuals = (0..configs.len())
            .filter(|&c| configs[c].1)
            .map(|c| (c, SortedWindow::new(crate::tsd::RESIDUAL_WINDOW)))
            .collect();
        Self {
            interval,
            history: SlotRings::new(ppw, longest),
            weeks: configs.iter().map(|c| c.0).collect(),
            robust: configs.iter().map(|c| c.1).collect(),
            plain,
            plain_residuals: vec![0.0; crate::tsd::RESIDUAL_WINDOW * stride],
            stride,
            robust_residuals,
            residual_head: 0,
            residual_len: 0,
            since_refresh: crate::tsd::SPREAD_REFRESH - 1,
            spread: vec![0.0; configs.len()],
            residual: vec![0.0; configs.len()],
            robust_reach: configs
                .iter()
                .filter(|c| c.1)
                .map(|c| c.0)
                .max()
                .unwrap_or(0),
            sort_buf: Vec::with_capacity(longest),
            medians: Vec::with_capacity(longest),
        }
    }

    /// Recomputes every lane's spread from its residual window: the
    /// scalar `refresh_spread`, with the plain lanes' standard deviation
    /// (mean pass, then variance pass) and magnitude swept over the shared
    /// ring [`SWEEP_LANES`] lanes at a time.
    fn refresh_spreads(&mut self) {
        let (np, stride, len) = (self.plain.len(), self.stride, self.residual_len);
        // Arrival order: the oldest row is `residual_head` once the ring
        // has wrapped.
        let rows = &self.plain_residuals;
        let (older, newer) = if len < crate::tsd::RESIDUAL_WINDOW {
            (&rows[..len * stride], &rows[..0])
        } else {
            let (newer, older) = rows.split_at(self.residual_head * stride);
            (older, newer)
        };
        // Seed with the additive identity `Iterator::sum` folds from, so
        // each lane's sum is its scalar `sum()` bit for bit.
        let zero: f64 = std::iter::empty::<f64>().sum();
        for g in (0..np).step_by(SWEEP_LANES) {
            let lanes = |row: &[f64]| -> [f64; SWEEP_LANES] {
                row[g..g + SWEEP_LANES].try_into().expect("padded row")
            };
            let mut sum = [zero; SWEEP_LANES];
            for part in [older, newer] {
                for row in part.chunks_exact(stride) {
                    let x = lanes(row);
                    for j in 0..SWEEP_LANES {
                        sum[j] += x[j];
                    }
                }
            }
            let mean = sum.map(|s| s / len as f64);
            let mut sq = [zero; SWEEP_LANES];
            let mut max_abs = [0.0f64; SWEEP_LANES];
            for part in [older, newer] {
                for row in part.chunks_exact(stride) {
                    let x = lanes(row);
                    for j in 0..SWEEP_LANES {
                        let d = x[j] - mean[j];
                        sq[j] += d * d;
                        let a = x[j].abs();
                        max_abs[j] = if a > max_abs[j] { a } else { max_abs[j] };
                    }
                }
            }
            for (j, &c) in self.plain[g..].iter().take(SWEEP_LANES).enumerate() {
                let raw = (sq[j] / len as f64).sqrt();
                self.spread[c] = raw.max(1e-9 * (1.0 + max_abs[j]));
            }
        }
        for (c, window) in &mut self.robust_residuals {
            let raw = window.mad().unwrap_or(0.0);
            let scale = window.max_abs();
            self.spread[*c] = raw.max(1e-9 * (1.0 + scale));
        }
    }

    fn mixed_name(robusts: impl Iterator<Item = bool>) -> &'static str {
        let (mut any_plain, mut any_robust) = (false, false);
        for r in robusts {
            if r {
                any_robust = true;
            } else {
                any_plain = true;
            }
        }
        match (any_plain, any_robust) {
            (true, true) => "TSD/TSD MAD",
            (false, true) => "TSD MAD",
            _ => "TSD",
        }
    }
}

impl FamilyKernel for FusedTsd {
    fn n_configs(&self) -> usize {
        self.weeks.len()
    }

    fn observe(&mut self, timestamp: i64, value: Option<f64>, out: &mut [Option<f64>]) {
        assert_eq!(out.len(), self.weeks.len(), "output width mismatch");
        let slot = slot_of_week(timestamp, self.interval);
        let Some(v) = value else {
            out.fill(None);
            return;
        };
        if self.history.len(slot) == 0 {
            out.fill(None);
            self.history.push(slot, v);
            return;
        }
        // MAD baselines: insert the slot's values newest first into one
        // sorted buffer; after `j` insertions it holds the window of every
        // MAD lane that sees `j` values, so `medians[j - 1]` is their
        // baseline.
        if self.robust_reach > 0 {
            let (a, b) = self.history.suffix(slot, self.robust_reach);
            self.sort_buf.clear();
            self.medians.clear();
            for &x in a.iter().chain(b).rev() {
                let at = self.sort_buf.partition_point(|&y| y < x);
                self.sort_buf.insert(at, x);
                self.medians
                    .push(median_of_sorted(&self.sort_buf).expect("non-empty"));
            }
        }
        let held = self.history.len(slot);
        for c in 0..self.weeks.len() {
            let baseline = if self.robust[c] {
                self.medians[held.min(self.weeks[c]) - 1]
            } else {
                self.history
                    .mean(slot, self.weeks[c])
                    .expect("non-empty history")
            };
            self.residual[c] = v - baseline;
        }

        let at = self.residual_head * self.stride;
        let row = &mut self.plain_residuals[at..at + self.stride];
        for (x, &c) in row.iter_mut().zip(&self.plain) {
            *x = self.residual[c];
        }
        for (c, window) in &mut self.robust_residuals {
            window.push(self.residual[*c]);
        }
        self.residual_head = (self.residual_head + 1) % crate::tsd::RESIDUAL_WINDOW;
        self.residual_len = (self.residual_len + 1).min(crate::tsd::RESIDUAL_WINDOW);
        self.since_refresh += 1;
        if self.since_refresh >= crate::tsd::SPREAD_REFRESH {
            self.refresh_spreads();
            self.since_refresh = 0;
        }

        if self.residual_len >= crate::tsd::MIN_RESIDUALS {
            for ((slot_out, &r), &spread) in out.iter_mut().zip(&self.residual).zip(&self.spread) {
                *slot_out = clamp(r.abs() / spread);
            }
        } else {
            out.fill(None);
        }
        // The history takes the value only after every lane read it, as
        // each scalar detector pushes after computing its severity.
        self.history.push(slot, v);
    }

    fn clone_box(&self) -> Box<dyn FamilyKernel> {
        Box::new(self.clone())
    }

    fn family(&self) -> &'static str {
        Self::mixed_name(self.robust.iter().copied())
    }
}

// --------------------------------------------------------------------------
// Historical average / historical MAD
// --------------------------------------------------------------------------

/// Fused historical average/MAD lanes, slotted by time of day with
/// `7 * weeks` samples per slot and stateless outside the history. As in
/// [`FusedTsd`], every lane's window is a suffix of one [`SlotRings`] ring
/// of the longest window; the MAD lanes read median and MAD off a sorted
/// copy of their suffix, kept per distinct MAD window length.
#[derive(Debug, Clone)]
pub struct FusedHistorical {
    interval: u32,
    /// Per-slot-of-day values, one ring of the longest window per slot.
    history: SlotRings,
    /// Window length (`7 * weeks` samples) of each lane.
    wins: Vec<usize>,
    robust: Vec<bool>,
}

impl FusedHistorical {
    /// Creates lanes for the given `(weeks, robust)` configurations.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or a `weeks` is 0.
    pub fn new(configs: &[(usize, bool)], interval: u32) -> Self {
        assert!(!configs.is_empty(), "no configs");
        assert!(
            configs.iter().all(|&(w, _)| w > 0),
            "weeks must be positive"
        );
        let ppd = (86_400 / i64::from(interval)) as usize;
        let wins: Vec<usize> = configs.iter().map(|&(w, _)| 7 * w).collect();
        let longest = wins.iter().copied().max().expect("non-empty");
        let sorted_lens: Vec<usize> = configs
            .iter()
            .zip(&wins)
            .filter(|((_, robust), _)| *robust)
            .map(|(_, &k)| k)
            .collect();
        Self {
            interval,
            history: SlotRings::with_sorted(ppd, longest, &sorted_lens),
            wins,
            robust: configs.iter().map(|c| c.1).collect(),
        }
    }
}

impl FamilyKernel for FusedHistorical {
    fn n_configs(&self) -> usize {
        self.wins.len()
    }

    fn observe(&mut self, timestamp: i64, value: Option<f64>, out: &mut [Option<f64>]) {
        assert_eq!(out.len(), self.wins.len(), "output width mismatch");
        let slot = slot_of_day(timestamp, self.interval);
        let Some(v) = value else {
            out.fill(None);
            return;
        };
        let held = self.history.len(slot);
        for ((slot_out, &k), &robust) in out.iter_mut().zip(&self.wins).zip(&self.robust) {
            *slot_out = if held.min(k) >= crate::historical::MIN_HISTORY {
                let (center, spread_raw) = if robust {
                    let sorted = self.history.sorted(slot, k);
                    (
                        median_of_sorted(sorted).expect("non-empty"),
                        mad_of_sorted(sorted).unwrap_or(0.0),
                    )
                } else {
                    self.history.mean_std_dev(slot, k).expect("non-empty")
                };
                let spread = spread_raw.max(1e-9 * (1.0 + center.abs()));
                clamp((v - center).abs() / spread)
            } else {
                None
            };
        }
        self.history.push(slot, v);
    }

    fn clone_box(&self) -> Box<dyn FamilyKernel> {
        Box::new(self.clone())
    }

    fn family(&self) -> &'static str {
        let (mut any_plain, mut any_robust) = (false, false);
        for &r in &self.robust {
            if r {
                any_robust = true;
            } else {
                any_plain = true;
            }
        }
        match (any_plain, any_robust) {
            (true, true) => "historical average/MAD",
            (false, true) => "historical MAD",
            _ => "historical average",
        }
    }
}

// --------------------------------------------------------------------------
// Holt–Winters
// --------------------------------------------------------------------------

/// Fused Holt–Winters grid: the dominant kernel (64 of 133 registry
/// configs). Per-config state lives in flat `level[n]` / `trend[n]` arrays
/// and a `seasonal[pos * n + c]` layout so the per-point update sweeps the
/// whole α/β/γ grid over contiguous memory in one auto-vectorizable loop.
///
/// The warm-up buffer and seasonal position are *shared*: during warm-up
/// every scalar config buffers the same values (the missing-point fill is
/// `last_value` for all of them while no config has initialized), and
/// after initialization every config advances `pos` once per point — the
/// configs never desynchronize.
#[derive(Debug, Clone)]
pub struct FusedHoltWinters {
    season: usize,
    alphas: Vec<f64>,
    betas: Vec<f64>,
    gammas: Vec<f64>,
    /// Shared warm-up buffer (two seasons), drained at initialization.
    buffer: Vec<f64>,
    level: Vec<f64>,
    trend: Vec<f64>,
    /// `season × n` seasonal components, slot-major (`[pos * n + c]`).
    seasonal: Vec<f64>,
    pos: usize,
    warmed: bool,
    last_value: Option<f64>,
    /// Severity scratch keeping the update loop branch-free.
    sev: Vec<f64>,
}

impl FusedHoltWinters {
    /// Creates lanes for the given `(alpha, beta, gamma)` grid at the
    /// given sampling interval (the season is one day).
    ///
    /// # Panics
    ///
    /// Panics if `params` is empty, a parameter is outside `[0, 1]`, or
    /// the interval admits fewer than 2 points per day.
    pub fn new(params: &[(f64, f64, f64)], interval: u32) -> Self {
        assert!(!params.is_empty(), "no parameters");
        let season = (86_400 / i64::from(interval)) as usize;
        assert!(season >= 2, "season_len must be at least 2");
        for &(a, b, g) in params {
            for v in [a, b, g] {
                assert!((0.0..=1.0).contains(&v), "parameter must be in [0, 1]");
            }
        }
        let n = params.len();
        Self {
            season,
            alphas: params.iter().map(|p| p.0).collect(),
            betas: params.iter().map(|p| p.1).collect(),
            gammas: params.iter().map(|p| p.2).collect(),
            buffer: Vec::new(),
            level: vec![0.0; n],
            trend: vec![0.0; n],
            seasonal: Vec::new(),
            pos: 0,
            warmed: false,
            last_value: None,
            sev: vec![0.0; n],
        }
    }

    /// Buffers one warm-up value; on the 2·season-th, initializes every
    /// lane from the shared buffer (the scalar `HoltWinters::initialize`
    /// arithmetic, broadcast).
    fn push_warmup(&mut self, x: f64) {
        self.buffer.push(x);
        if self.buffer.len() < 2 * self.season {
            return;
        }
        let m = self.season;
        let n = self.alphas.len();
        let s1 = &self.buffer[..m];
        let s2 = &self.buffer[m..2 * m];
        let mean1 = s1.iter().sum::<f64>() / m as f64;
        let mean2 = s2.iter().sum::<f64>() / m as f64;
        self.level.fill(mean2);
        self.trend.fill((mean2 - mean1) / m as f64);
        self.seasonal = vec![0.0; m * n];
        for i in 0..m {
            let s = ((s1[i] - mean1) + (s2[i] - mean2)) / 2.0;
            self.seasonal[i * n..(i + 1) * n].fill(s);
        }
        self.pos = 0;
        self.warmed = true;
        self.buffer.clear();
        self.buffer.shrink_to_fit();
    }

    /// One post-warm-up update sweep. When `x_is_fill`, each lane folds in
    /// its *own* forecast instead of `x` (the scalar missing-point
    /// self-heal) and no severities are produced.
    fn update_all(&mut self, x: f64, x_is_fill: bool) {
        let n = self.alphas.len();
        let base = self.pos * n;
        let seasonal = &mut self.seasonal[base..base + n];
        // Lockstep over six parallel lane arrays; an index keeps the
        // structure-of-arrays form the vectorizer recognizes.
        #[allow(clippy::needless_range_loop)]
        for c in 0..n {
            let a = self.alphas[c];
            let b = self.betas[c];
            let g = self.gammas[c];
            let s_old = seasonal[c];
            let level_old = self.level[c];
            let trend_old = self.trend[c];
            let forecast = level_old + trend_old + s_old;
            let x = if x_is_fill { forecast } else { x };
            let level = a * (x - s_old) + (1.0 - a) * (level_old + trend_old);
            let trend = b * (level - level_old) + (1.0 - b) * trend_old;
            seasonal[c] = g * (x - level) + (1.0 - g) * s_old;
            self.level[c] = level;
            self.trend[c] = trend;
            self.sev[c] = (x - forecast).abs();
        }
        self.pos = (self.pos + 1) % self.season;
    }
}

impl FamilyKernel for FusedHoltWinters {
    fn n_configs(&self) -> usize {
        self.alphas.len()
    }

    fn observe(&mut self, _timestamp: i64, value: Option<f64>, out: &mut [Option<f64>]) {
        assert_eq!(out.len(), self.alphas.len(), "output width mismatch");
        match value {
            Some(v) => {
                self.last_value = Some(v);
                if self.warmed {
                    self.update_all(v, false);
                    for (slot, &s) in out.iter_mut().zip(&self.sev) {
                        *slot = clamp(s);
                    }
                } else {
                    // Warm-up (including the initializing point, which the
                    // scalar smoother also answers with `None`).
                    self.push_warmup(v);
                    out.fill(None);
                }
            }
            None => {
                if self.warmed {
                    // Self-heal: every lane folds in its own forecast.
                    self.update_all(0.0, true);
                } else if let Some(f) = self.last_value {
                    // Scalar warm-up fill: `next_forecast().or(last_value)`
                    // — the same value for every lane, since no lane has
                    // initialized yet.
                    self.push_warmup(f);
                }
                out.fill(None);
            }
        }
    }

    fn clone_box(&self) -> Box<dyn FamilyKernel> {
        Box::new(self.clone())
    }

    fn family(&self) -> &'static str {
        "Holt-Winters"
    }
}

// --------------------------------------------------------------------------
// Planning
// --------------------------------------------------------------------------

/// A schedulable unit of extraction work: one kernel plus the feature
/// columns it produces, in kernel lane order.
pub struct FusedUnit {
    /// The kernel advancing this unit's configurations.
    pub kernel: Box<dyn FamilyKernel>,
    /// Output column (the configuration's position in the planned slice)
    /// of each lane.
    pub columns: Vec<usize>,
}

/// Which fused kernel (if any) a spec belongs to, plus the sampling
/// interval where state geometry depends on it. Adjacent configs with the
/// same key fuse into one kernel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FuseKey {
    Diff(u32),
    SimpleMa,
    WeightedMa,
    MaOfDiff,
    Ewma,
    Tsd(u32),
    Historical(u32),
    HoltWinters(u32),
    Svd,
    Wavelet(u32),
}

fn fuse_key(spec: &DetectorSpec) -> Option<FuseKey> {
    match *spec {
        DetectorSpec::Diff { interval, .. } => Some(FuseKey::Diff(interval)),
        DetectorSpec::SimpleMa { .. } => Some(FuseKey::SimpleMa),
        DetectorSpec::WeightedMa { .. } => Some(FuseKey::WeightedMa),
        DetectorSpec::MaOfDiff { .. } => Some(FuseKey::MaOfDiff),
        DetectorSpec::Ewma { .. } => Some(FuseKey::Ewma),
        DetectorSpec::Tsd { interval, .. } => Some(FuseKey::Tsd(interval)),
        DetectorSpec::Historical { interval, .. } => Some(FuseKey::Historical(interval)),
        DetectorSpec::HoltWinters { interval, .. } => Some(FuseKey::HoltWinters(interval)),
        DetectorSpec::Svd { .. } => Some(FuseKey::Svd),
        DetectorSpec::Wavelet { interval, .. } => Some(FuseKey::Wavelet(interval)),
        DetectorSpec::SimpleThreshold
        | DetectorSpec::Arima { .. }
        | DetectorSpec::Cusum { .. }
        | DetectorSpec::SlidingPercentile { .. }
        | DetectorSpec::SeasonalEsd { .. } => None,
    }
}

/// Builds one kernel from a run of same-key configurations.
fn build_kernel(run: &[DetectorSpec], key: FuseKey) -> Box<dyn FamilyKernel> {
    match key {
        FuseKey::Diff(interval) => {
            let lags = run
                .iter()
                .map(|spec| match *spec {
                    DetectorSpec::Diff { lag, .. } => lag.points(interval),
                    _ => unreachable!("mixed run"),
                })
                .collect();
            Box::new(FusedDiff::new(lags))
        }
        FuseKey::SimpleMa => Box::new(FusedSimpleMa::new(spec_wins(run))),
        FuseKey::WeightedMa => Box::new(FusedWeightedMa::new(spec_wins(run))),
        FuseKey::MaOfDiff => Box::new(FusedMaOfDiff::new(spec_wins(run))),
        FuseKey::Ewma => {
            let alphas = run
                .iter()
                .map(|spec| match *spec {
                    DetectorSpec::Ewma { alpha } => alpha,
                    _ => unreachable!("mixed run"),
                })
                .collect();
            Box::new(FusedEwma::new(alphas))
        }
        FuseKey::Tsd(interval) => {
            let cfgs: Vec<(usize, bool)> = run
                .iter()
                .map(|spec| match *spec {
                    DetectorSpec::Tsd { weeks, robust, .. } => (weeks, robust),
                    _ => unreachable!("mixed run"),
                })
                .collect();
            Box::new(FusedTsd::new(&cfgs, interval))
        }
        FuseKey::Historical(interval) => {
            let cfgs: Vec<(usize, bool)> = run
                .iter()
                .map(|spec| match *spec {
                    DetectorSpec::Historical { weeks, robust, .. } => (weeks, robust),
                    _ => unreachable!("mixed run"),
                })
                .collect();
            Box::new(FusedHistorical::new(&cfgs, interval))
        }
        FuseKey::Svd => {
            let cfgs: Vec<(usize, usize)> = run
                .iter()
                .map(|spec| match *spec {
                    DetectorSpec::Svd { rows, cols } => (rows, cols),
                    _ => unreachable!("mixed run"),
                })
                .collect();
            Box::new(FusedSvd::new(&cfgs))
        }
        FuseKey::Wavelet(interval) => {
            let cfgs: Vec<(usize, Band)> = run
                .iter()
                .map(|spec| match *spec {
                    DetectorSpec::Wavelet { win_days, band, .. } => (win_days, band),
                    _ => unreachable!("mixed run"),
                })
                .collect();
            Box::new(FusedWavelet::new(&cfgs, interval))
        }
        FuseKey::HoltWinters(interval) => {
            let params: Vec<(f64, f64, f64)> = run
                .iter()
                .map(|spec| match *spec {
                    DetectorSpec::HoltWinters {
                        alpha, beta, gamma, ..
                    } => (alpha, beta, gamma),
                    _ => unreachable!("mixed run"),
                })
                .collect();
            Box::new(FusedHoltWinters::new(&params, interval))
        }
    }
}

fn spec_wins(run: &[DetectorSpec]) -> Vec<usize> {
    run.iter()
        .map(|spec| match *spec {
            DetectorSpec::SimpleMa { win }
            | DetectorSpec::WeightedMa { win }
            | DetectorSpec::MaOfDiff { win } => win,
            _ => unreachable!("mixed run"),
        })
        .collect()
}

/// Groups a configuration list into fused units.
///
/// Adjacent configurations with the same fusable family (and interval)
/// become one fused kernel; every other configuration is a unit of its own
/// ([`ScalarKernel`], the only place extraction builds a boxed detector).
/// Works on any subset and order: pruned sets in registry order fuse
/// exactly like the full registry, just with fewer lanes. A unit's columns
/// are its configurations' positions in `specs`.
pub fn plan(specs: &[DetectorSpec]) -> Vec<FusedUnit> {
    let mut units = Vec::new();
    let mut start = 0;
    while start < specs.len() {
        let key = fuse_key(&specs[start]);
        let end = match key {
            Some(_) => {
                start
                    + specs[start..]
                        .iter()
                        .take_while(|s| fuse_key(s) == key)
                        .count()
            }
            None => start + 1,
        };
        let kernel: Box<dyn FamilyKernel> = match key {
            Some(key) => build_kernel(&specs[start..end], key),
            None => Box::new(ScalarKernel::new(&specs[start])),
        };
        units.push(FusedUnit {
            kernel,
            columns: (start..end).collect(),
        });
        start = end;
    }
    units
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::registry;

    /// An hourly test stream with pattern, drift, spikes and missing runs.
    fn stream(n: usize) -> Vec<(i64, Option<f64>)> {
        (0..n)
            .map(|i| {
                let ts = i as i64 * 3600;
                let v = if i % 37 == 11 || (i % 101 >= 53 && i % 101 < 56) {
                    None
                } else {
                    let base = 100.0
                        + 10.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin()
                        + 0.01 * i as f64;
                    let spike = if i % 71 == 0 { 40.0 } else { 0.0 };
                    Some(base + spike + ((i * 2_654_435_761) % 997) as f64 / 997.0)
                };
                (ts, v)
            })
            .collect()
    }

    /// Feeds `points` through every unit of `plan(specs)` and checks each
    /// lane against a scalar detector built from its spec.
    fn assert_units_match_scalar(specs: &[DetectorSpec], points: &[(i64, Option<f64>)]) {
        let mut oracle: Vec<Box<dyn Detector>> = specs.iter().map(DetectorSpec::detector).collect();
        let mut row = vec![None; 64];
        for mut unit in plan(specs) {
            let k = unit.kernel.n_configs();
            for &(ts, v) in points {
                unit.kernel.observe(ts, v, &mut row[..k]);
                for (j, &c) in unit.columns.iter().enumerate() {
                    let expect = crate::clamp_severity(oracle[c].observe(ts, v));
                    assert_eq!(
                        row[j].map(f64::to_bits),
                        expect.map(f64::to_bits),
                        "{} col {c} ts {ts}",
                        specs[c].label()
                    );
                }
            }
        }
    }

    /// Every registry unit's fused output must equal the scalar detectors'
    /// clamped severities bit-for-bit (the full-registry sweep with random
    /// chunking lives in `tests/fused_differential.rs`).
    #[test]
    fn fused_units_match_scalar_bit_for_bit() {
        assert_units_match_scalar(&registry(3600), &stream(24 * 8));
    }

    #[test]
    fn registry_plan_fuses_the_expected_families() {
        let units = plan(&registry(3600));
        let total: usize = units.iter().map(|u| u.columns.len()).sum();
        assert_eq!(total, 133);
        // Columns are a permutation of 0..133 in order.
        let cols: Vec<usize> = units.iter().flat_map(|u| u.columns.clone()).collect();
        assert_eq!(cols, (0..133).collect::<Vec<_>>());
        let sizes: Vec<(&str, usize)> = units
            .iter()
            .map(|u| (u.kernel.family(), u.columns.len()))
            .collect();
        // One fused kernel per family; TSD+MAD and historical+MAD merge.
        assert!(sizes.contains(&("diff", 3)));
        assert!(sizes.contains(&("simple MA", 5)));
        assert!(sizes.contains(&("weighted MA", 5)));
        assert!(sizes.contains(&("MA of diff", 5)));
        assert!(sizes.contains(&("EWMA", 5)));
        assert!(sizes.contains(&("TSD/TSD MAD", 10)));
        assert!(sizes.contains(&("historical average/MAD", 10)));
        assert!(sizes.contains(&("Holt-Winters", 64)));
        assert!(sizes.contains(&("SVD", 15)));
        assert!(sizes.contains(&("wavelet", 9)));
        assert!(sizes.contains(&("ARIMA", 1)));
        assert!(sizes.contains(&("simple threshold", 1)));
        assert_eq!(
            units.len(),
            12,
            "two unfused units: simple threshold and ARIMA"
        );
    }

    #[test]
    fn fused_kernels_clone_mid_stream() {
        let points = stream(24 * 6);
        let (head, tail) = points.split_at(points.len() / 2);
        for mut unit in plan(&registry(3600)) {
            let k = unit.kernel.n_configs();
            let mut a = vec![None; k];
            let mut b = vec![None; k];
            for &(ts, v) in head {
                unit.kernel.observe(ts, v, &mut a);
            }
            let mut clone = unit.kernel.clone_box();
            for &(ts, v) in tail {
                unit.kernel.observe(ts, v, &mut a);
                clone.observe(ts, v, &mut b);
                assert_eq!(
                    a.iter().map(|s| s.map(f64::to_bits)).collect::<Vec<_>>(),
                    b.iter().map(|s| s.map(f64::to_bits)).collect::<Vec<_>>(),
                    "{} ts {ts}",
                    unit.kernel.family()
                );
            }
        }
    }

    #[test]
    fn pruned_subsets_still_fuse_and_match() {
        // Keep every third config (registry order): fused lanes shrink but
        // severities must not change.
        let subset: Vec<DetectorSpec> = registry(3600).into_iter().step_by(3).collect();
        assert_units_match_scalar(&subset, &stream(24 * 6));
    }
}
