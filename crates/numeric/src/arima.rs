//! ARIMA(p, d, q) estimation and online one-step forecasting.
//!
//! The paper's ARIMA detector is the one detector whose parameters are *not*
//! swept: "we estimate their 'best' parameters from the data, and generate
//! only one set of parameters, or one configuration" (§4.3.3), citing
//! Box–Jenkins \[35\] and `auto.arima` \[36\]. This module provides that
//! estimation pipeline from scratch:
//!
//! 1. the differencing order `d` is chosen by variance minimization
//!    (difference while it strictly shrinks the variance, up to `d = 2`),
//! 2. `(p, q)` are selected on a small grid by AIC,
//! 3. coefficients come from the Hannan–Rissanen two-stage regression
//!    (long-AR residual proxy, then least squares on lagged values and
//!    lagged residuals),
//! 4. [`ArimaState`] applies the fitted model online, point at a time.

use crate::acf::{yule_walker, yule_walker_at};
use crate::matrix::{solve, Matrix};
use std::collections::VecDeque;

/// Model orders `(p, d, q)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ArimaOrder {
    /// Autoregressive order.
    pub p: usize,
    /// Differencing order (0–2 supported).
    pub d: usize,
    /// Moving-average order.
    pub q: usize,
}

/// A fitted ARIMA model.
#[derive(Debug, Clone)]
pub struct ArimaModel {
    /// The `(p, d, q)` orders.
    pub order: ArimaOrder,
    /// AR coefficients (lags `1..=p` of the differenced series).
    pub ar: Vec<f64>,
    /// MA coefficients (lags `1..=q` of the innovations).
    pub ma: Vec<f64>,
    /// Intercept of the differenced series.
    pub intercept: f64,
    /// Innovation variance estimate.
    pub sigma2: f64,
}

/// Applies `d` rounds of first differencing.
pub fn difference(xs: &[f64], d: usize) -> Vec<f64> {
    let mut cur = xs.to_vec();
    for _ in 0..d {
        cur = cur.windows(2).map(|w| w[1] - w[0]).collect();
    }
    cur
}

fn sample_variance(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::INFINITY;
    }
    let m = xs.iter().sum::<f64>() / xs.len() as f64;
    xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / xs.len() as f64
}

/// Picks the differencing order in `0..=2`: keep differencing while it cuts
/// the sample variance by more than half. A mildly autocorrelated stationary
/// series also shrinks a little under differencing, so requiring a *large*
/// drop separates unit-root behaviour (random walks shrink by orders of
/// magnitude) from plain AR dynamics.
pub fn select_d(xs: &[f64]) -> usize {
    let mut best_d = 0usize;
    let mut best_var = sample_variance(xs);
    for d in 1..=2usize {
        let w = difference(xs, d);
        if w.len() < 8 {
            break;
        }
        let v = sample_variance(&w);
        if v < best_var * 0.5 {
            best_var = v;
            best_d = d;
        } else {
            break;
        }
    }
    best_d
}

/// The long-AR order stage 1 of Hannan–Rissanen uses for a `(p, q)`
/// candidate on a differenced series of length `n`.
fn stage1_long_order(p: usize, q: usize, n: usize) -> usize {
    ((2 * (p + q)) + 5).min(n / 4)
}

/// Stage 1 of Hannan–Rissanen: a long AR fit whose residuals proxy the
/// unobserved innovations. Depends only on `(w, long_order)`, so
/// [`auto_fit`] computes it once per distinct `long_order` instead of once
/// per `(p, q)` candidate.
fn stage1_innovations(w: &[f64], long_order: usize) -> Option<Vec<f64>> {
    let (long_ar, _) = yule_walker(w, long_order)?;
    Some(stage1_innovations_with(w, long_order, &long_ar))
}

/// The innovation-proxy residuals given an already-fitted long AR.
fn stage1_innovations_with(w: &[f64], long_order: usize, long_ar: &[f64]) -> Vec<f64> {
    let w_mean = w.iter().sum::<f64>() / w.len() as f64;
    let mut resid = vec![0.0; w.len()];
    for t in long_order..w.len() {
        let mut pred = w_mean;
        for (j, &phi) in long_ar.iter().enumerate() {
            pred += phi * (w[t - 1 - j] - w_mean);
        }
        resid[t] = w[t] - pred;
    }
    resid
}

/// Fits ARIMA(p, d, q) by Hannan–Rissanen. Returns `None` when the data is
/// too short or the regression is degenerate.
pub fn fit(xs: &[f64], order: ArimaOrder) -> Option<ArimaModel> {
    if xs.iter().any(|x| !x.is_finite()) {
        return None;
    }
    let w = difference(xs, order.d);
    let k = order.p.max(order.q);
    if w.len() < 4 * (k + 1).max(8) {
        return None;
    }
    let long_order = stage1_long_order(order.p, order.q, w.len());
    let resid = stage1_innovations(&w, long_order)?;
    fit_stage2(&w, &resid, long_order, order)
}

/// Stage 2 of Hannan–Rissanen: least squares of `w_t` on its own lags and
/// the stage-1 innovation lags.
fn fit_stage2(
    w: &[f64],
    resid: &[f64],
    long_order: usize,
    order: ArimaOrder,
) -> Option<ArimaModel> {
    let (p, q) = (order.p, order.q);
    let k = p.max(q);

    // Stage 2: regress w_t on 1, w_{t-1..t-p}, e_{t-1..t-q}. The design
    // matrix is never materialized: each row is assembled in a small stack
    // buffer and folded straight into XᵀX / Xᵀy (upper triangle, mirrored),
    // exactly the sums `least_squares` would compute — bit-identical, but
    // without allocating and re-reading a `rows × cols` matrix per
    // candidate.
    let start = long_order + k;
    let rows = w.len() - start;
    if rows < (p + q + 1) * 3 {
        return None;
    }
    let cols = 1 + p + q;
    let mut row = [0.0f64; 7]; // 1 + p + q with p, q ≤ 3
    let fill_row = |row: &mut [f64; 7], t: usize| {
        row[0] = 1.0;
        for i in 0..p {
            row[1 + i] = w[t - 1 - i];
        }
        for j in 0..q {
            row[1 + p + j] = resid[t - 1 - j];
        }
    };
    let mut xtx = vec![0.0f64; cols * cols];
    let mut xty = vec![0.0f64; cols];
    for t in start..w.len() {
        fill_row(&mut row, t);
        let yr = w[t];
        for i in 0..cols {
            let xi = row[i];
            for j in i..cols {
                xtx[i * cols + j] += xi * row[j];
            }
            xty[i] += xi * yr;
        }
    }
    for i in 0..cols {
        for j in 0..i {
            xtx[i * cols + j] = xtx[j * cols + i];
        }
        // Tiny ridge keeps near-collinear regressors solvable (matches
        // `least_squares`).
        xtx[i * cols + i] += 1e-8;
    }
    let beta = solve(&Matrix::from_rows(cols, cols, xtx), &xty)?;
    if beta.iter().any(|b| !b.is_finite()) {
        return None;
    }
    let intercept = beta[0];
    let ar = beta[1..1 + p].to_vec();
    let ma = beta[1 + p..].to_vec();

    // Innovation variance from the stage-2 fit residuals.
    let mut sse = 0.0;
    for t in start..w.len() {
        fill_row(&mut row, t);
        let pred: f64 = row[..cols].iter().zip(&beta).map(|(a, b)| a * b).sum();
        sse += (w[t] - pred) * (w[t] - pred);
    }
    let sigma2 = (sse / rows as f64).max(1e-300);
    Some(ArimaModel {
        order,
        ar,
        ma,
        intercept,
        sigma2,
    })
}

/// Estimates the "best" ARIMA model from the data: `d` by variance
/// minimization, `(p, q) ∈ [0, 3]²` (not both zero) by AIC. Returns `None`
/// when nothing fits.
pub fn auto_fit(xs: &[f64]) -> Option<ArimaModel> {
    if xs.iter().any(|x| !x.is_finite()) {
        return None;
    }
    let d = select_d(xs);
    let w = difference(xs, d);
    let w_len = w.len() as f64;
    // Stage 1 depends only on the long-AR order, and the 15 `(p, q)`
    // candidates share just 6 distinct values of it: one Durbin–Levinson
    // sweep serves every order, and one innovation-proxy pass serves every
    // candidate sharing a long order. Both reuses are bit-identical to
    // calling `fit` per candidate.
    let mut candidates: Vec<(usize, usize, usize)> = Vec::new();
    let mut orders: Vec<usize> = Vec::new();
    for p in 0..=3usize {
        for q in 0..=3usize {
            if p == 0 && q == 0 {
                continue;
            }
            let k = p.max(q);
            if w.len() < 4 * (k + 1).max(8) {
                continue;
            }
            let long_order = stage1_long_order(p, q, w.len());
            candidates.push((p, q, long_order));
            if !orders.contains(&long_order) {
                orders.push(long_order);
            }
        }
    }
    orders.sort_unstable();
    let long_ars = yule_walker_at(&w, &orders)?;
    let resids: Vec<Vec<f64>> = orders
        .iter()
        .zip(&long_ars)
        .map(|(&lo, ar)| stage1_innovations_with(&w, lo, ar))
        .collect();
    let mut best: Option<(f64, ArimaModel)> = None;
    for (p, q, long_order) in candidates {
        let resid = &resids[orders
            .binary_search(&long_order)
            .expect("order was collected")];
        if let Some(model) = fit_stage2(&w, resid, long_order, ArimaOrder { p, d, q }) {
            let aic = w_len * model.sigma2.ln() + 2.0 * (p + q + 1) as f64;
            if best.as_ref().is_none_or(|(b, _)| aic < *b) {
                best = Some((aic, model));
            }
        }
    }
    best.map(|(_, m)| m)
}

/// Online applicator of a fitted [`ArimaModel`]: feed raw points, get the
/// one-step-ahead forecast made *before* each point arrived.
#[derive(Debug, Clone)]
pub struct ArimaState {
    model: ArimaModel,
    /// Last `d` raw values, most recent last (for undifferencing).
    raw_tail: VecDeque<f64>,
    /// Differenced history, most recent last.
    w_hist: VecDeque<f64>,
    /// Innovation history, most recent last.
    e_hist: VecDeque<f64>,
}

impl ArimaState {
    /// Wraps a fitted model for online forecasting.
    ///
    /// # Panics
    ///
    /// Panics if `model.order.d > 2`.
    pub fn new(model: ArimaModel) -> Self {
        assert!(model.order.d <= 2, "only d <= 2 supported");
        Self {
            model,
            raw_tail: VecDeque::new(),
            w_hist: VecDeque::new(),
            e_hist: VecDeque::new(),
        }
    }

    /// The wrapped model.
    pub fn model(&self) -> &ArimaModel {
        &self.model
    }

    /// Forecast of the differenced series's next value, or `None` until
    /// enough history has accumulated.
    fn forecast_w(&self) -> Option<f64> {
        let ArimaModel {
            ref ar,
            ref ma,
            intercept,
            ..
        } = self.model;
        if self.w_hist.len() < ar.len() || self.e_hist.len() < ma.len() {
            return None;
        }
        let mut f = intercept;
        for (i, phi) in ar.iter().enumerate() {
            f += phi * self.w_hist[self.w_hist.len() - 1 - i];
        }
        for (j, theta) in ma.iter().enumerate() {
            f += theta * self.e_hist[self.e_hist.len() - 1 - j];
        }
        Some(f)
    }

    /// Forecast of the next *raw* value, or `None` during warm-up or when
    /// the recursion has become non-finite (an unstable fit).
    pub fn next_forecast(&self) -> Option<f64> {
        let d = self.model.order.d;
        if self.raw_tail.len() < d {
            return None;
        }
        let fw = self.forecast_w().filter(|f| f.is_finite())?;
        Some(match d {
            0 => fw,
            1 => fw + self.raw_tail[self.raw_tail.len() - 1],
            2 => {
                let n = self.raw_tail.len();
                fw + 2.0 * self.raw_tail[n - 1] - self.raw_tail[n - 2]
            }
            _ => unreachable!("d <= 2 enforced in new()"),
        })
    }

    /// Feeds the next raw point; returns the forecast that had been made for
    /// it (or `None` while warming up).
    pub fn observe(&mut self, x: f64) -> Option<f64> {
        let d = self.model.order.d;
        let forecast = self.next_forecast();

        // Compute the new differenced value once enough raw history exists.
        let w_new = match d {
            0 => Some(x),
            1 => (!self.raw_tail.is_empty()).then(|| x - self.raw_tail[self.raw_tail.len() - 1]),
            2 => (self.raw_tail.len() >= 2).then(|| {
                let n = self.raw_tail.len();
                x - 2.0 * self.raw_tail[n - 1] + self.raw_tail[n - 2]
            }),
            _ => unreachable!(),
        };

        if let Some(w) = w_new {
            let e = match self.forecast_w() {
                Some(fw) => w - fw,
                None => 0.0,
            };
            self.w_hist.push_back(w);
            self.e_hist.push_back(e);
            let keep_w = self.model.ar.len().max(1);
            let keep_e = self.model.ma.len().max(1);
            while self.w_hist.len() > keep_w {
                self.w_hist.pop_front();
            }
            while self.e_hist.len() > keep_e {
                self.e_hist.pop_front();
            }
        }

        self.raw_tail.push_back(x);
        while self.raw_tail.len() > d.max(1) {
            self.raw_tail.pop_front();
        }
        forecast
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn noise(state: &mut u64) -> f64 {
        let mut acc = 0.0;
        for _ in 0..12 {
            *state ^= *state << 13;
            *state ^= *state >> 7;
            *state ^= *state << 17;
            acc += (*state >> 11) as f64 / (1u64 << 53) as f64;
        }
        acc - 6.0
    }

    fn ar1(phi: f64, n: usize, seed: u64) -> Vec<f64> {
        let mut s = seed;
        let mut x = 0.0;
        (0..n)
            .map(|_| {
                x = phi * x + noise(&mut s);
                x
            })
            .collect()
    }

    #[test]
    fn difference_basics() {
        assert_eq!(difference(&[1.0, 3.0, 6.0, 10.0], 1), vec![2.0, 3.0, 4.0]);
        assert_eq!(difference(&[1.0, 3.0, 6.0, 10.0], 2), vec![1.0, 1.0]);
        assert_eq!(difference(&[5.0], 0), vec![5.0]);
    }

    #[test]
    fn select_d_zero_for_stationary() {
        let xs = ar1(0.5, 3000, 42);
        assert_eq!(select_d(&xs), 0);
    }

    #[test]
    fn select_d_one_for_random_walk() {
        let mut s = 7u64;
        let mut walk = vec![0.0];
        for _ in 0..3000 {
            let last = *walk.last().unwrap();
            walk.push(last + noise(&mut s));
        }
        assert_eq!(select_d(&walk), 1);
    }

    #[test]
    fn fit_recovers_ar1_coefficient() {
        let xs = ar1(0.6, 20_000, 11);
        let m = fit(&xs, ArimaOrder { p: 1, d: 0, q: 0 }).unwrap();
        assert!((m.ar[0] - 0.6).abs() < 0.05, "ar {}", m.ar[0]);
        assert!((m.sigma2 - 1.0).abs() < 0.15, "sigma2 {}", m.sigma2);
    }

    #[test]
    fn fit_rejects_short_series() {
        assert!(fit(&[1.0; 10], ArimaOrder { p: 3, d: 0, q: 3 }).is_none());
    }

    #[test]
    fn auto_fit_picks_reasonable_model_for_ar1() {
        let xs = ar1(0.7, 8000, 3);
        let m = auto_fit(&xs).unwrap();
        assert_eq!(m.order.d, 0);
        assert!(m.order.p >= 1);
        // One-step forecasts should beat the naive mean forecast.
        let mut state = ArimaState::new(m);
        let test = ar1(0.7, 4000, 99);
        let mut sse_model = 0.0;
        let mut sse_mean = 0.0;
        let mut n = 0;
        for &x in &test {
            if let Some(f) = state.observe(x) {
                sse_model += (x - f) * (x - f);
                sse_mean += x * x; // process mean is 0
                n += 1;
            }
        }
        assert!(n > 3000);
        assert!(
            sse_model < 0.8 * sse_mean,
            "model {sse_model} vs mean {sse_mean}"
        );
    }

    #[test]
    fn state_tracks_linear_trend_with_d1() {
        // Deterministic ramp: ARIMA(1,1,0)-ish should forecast it closely.
        let xs: Vec<f64> = (0..200).map(|i| 3.0 * i as f64).collect();
        let model = ArimaModel {
            order: ArimaOrder { p: 1, d: 1, q: 0 },
            ar: vec![0.0],
            ma: vec![],
            intercept: 3.0,
            sigma2: 1.0,
        };
        let mut st = ArimaState::new(model);
        let mut errs = Vec::new();
        for &x in &xs {
            if let Some(f) = st.observe(x) {
                errs.push((f - x).abs());
            }
        }
        assert!(!errs.is_empty());
        let late = &errs[errs.len() / 2..];
        assert!(late.iter().cloned().fold(0.0, f64::max) < 1e-9);
    }

    #[test]
    fn state_warmup_returns_none() {
        let model = ArimaModel {
            order: ArimaOrder { p: 2, d: 1, q: 1 },
            ar: vec![0.1, 0.1],
            ma: vec![0.1],
            intercept: 0.0,
            sigma2: 1.0,
        };
        let mut st = ArimaState::new(model);
        assert_eq!(st.observe(1.0), None);
        assert_eq!(st.observe(2.0), None);
    }
}
