//! STL — Seasonal-Trend decomposition using Loess (Cleveland et al., 1990).
//!
//! The paper's TSD detector cites time-series decomposition \[1\]; the
//! `decompose` module implements the classical moving-average variant the
//! detectors run online. STL is the stronger, canonical batch algorithm —
//! robust locally-weighted regression for both the seasonal and the trend
//! component — provided here for offline analysis, for the `seasonal ESD`
//! extension detector's lineage, and as a cross-check of the classical
//! decomposition.
//!
//! This is the standard inner-loop structure of STL:
//!
//! 1. detrend: `x − trend`,
//! 2. per-phase loess smoothing of the cycle-subseries → raw seasonal,
//! 3. low-pass filter (3 moving averages + loess) removes residual trend
//!    from the seasonal,
//! 4. deseasonalize and loess-smooth → new trend,
//!
//! iterated a fixed number of times, optionally with robustness weights
//! computed from the residuals (bisquare), which downweight outliers —
//! the property that matters for anomaly work.

use crate::stats;

/// An STL decomposition: `x = trend + seasonal + residual`.
#[derive(Debug, Clone)]
pub struct Stl {
    /// The loess-smoothed trend.
    pub trend: Vec<f64>,
    /// The seasonal component (period-varying, unlike the classical
    /// decomposition's fixed profile).
    pub seasonal: Vec<f64>,
    /// What remains.
    pub residual: Vec<f64>,
}

/// STL parameters.
#[derive(Debug, Clone, Copy)]
pub struct StlParams {
    /// Seasonal loess window (in cycles), odd, ≥ 3. Larger = more rigid
    /// seasonality.
    pub seasonal_smoother: usize,
    /// Trend loess window (in points), odd. Defaults from the period when 0.
    pub trend_smoother: usize,
    /// Outer robustness iterations (0 = no robustness weights).
    pub robust_iterations: usize,
    /// Inner loop iterations.
    pub inner_iterations: usize,
}

impl Default for StlParams {
    fn default() -> Self {
        Self {
            seasonal_smoother: 7,
            trend_smoother: 0,
            robust_iterations: 1,
            inner_iterations: 2,
        }
    }
}

/// Tricube kernel weight for normalized distance `d ∈ [0, 1]`.
fn tricube(d: f64) -> f64 {
    if d >= 1.0 {
        0.0
    } else {
        let t = 1.0 - d * d * d;
        t * t * t
    }
}

/// Degree-1 loess smoothing of `ys` (observed at integer positions) with
/// the given span (points) and optional per-point robustness weights.
/// Returns the fitted value at every position.
fn loess(ys: &[f64], span: usize, robustness: Option<&[f64]>) -> Vec<f64> {
    let n = ys.len();
    if n == 0 {
        return Vec::new();
    }
    let span = span.clamp(3, n.max(3)) | 1; // odd, at least 3
    let half = span / 2;
    let mut out = Vec::with_capacity(n);
    for i in 0..n {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        // Weighted linear regression of ys[lo..hi] on position.
        let max_dist = ((i - lo).max(hi - 1 - i)).max(1) as f64;
        let (mut sw, mut swx, mut swy, mut swxx, mut swxy) = (0.0, 0.0, 0.0, 0.0, 0.0);
        for (j, &y) in ys.iter().enumerate().take(hi).skip(lo) {
            let mut w = tricube((j as f64 - i as f64).abs() / max_dist);
            if let Some(r) = robustness {
                w *= r[j];
            }
            if w <= 0.0 {
                continue;
            }
            let x = j as f64;
            sw += w;
            swx += w * x;
            swy += w * y;
            swxx += w * x * x;
            swxy += w * x * y;
        }
        if sw <= 0.0 {
            // Every candidate was robustness-suppressed (a whole window of
            // flagged outliers). The one robust location estimate that does
            // not reintroduce them is the window median.
            out.push(crate::stats::median(&ys[lo..hi]).expect("non-empty window"));
            continue;
        }
        let denom = sw * swxx - swx * swx;
        let fitted = if denom.abs() < 1e-12 {
            swy / sw
        } else {
            let beta = (sw * swxy - swx * swy) / denom;
            let alpha = (swy - beta * swx) / sw;
            alpha + beta * i as f64
        };
        out.push(fitted);
    }
    out
}

/// Centered moving average of window `w` (edges use the available points).
fn moving_average(xs: &[f64], w: usize) -> Vec<f64> {
    let n = xs.len();
    let half = w / 2;
    (0..n)
        .map(|i| {
            let lo = i.saturating_sub(half);
            let hi = (i + half + 1).min(n);
            xs[lo..hi].iter().sum::<f64>() / (hi - lo) as f64
        })
        .collect()
}

/// Bisquare robustness weights from residuals.
fn bisquare_weights(residual: &[f64]) -> Vec<f64> {
    let abs: Vec<f64> = residual.iter().map(|r| r.abs()).collect();
    let max_abs = abs.iter().cloned().fold(0.0, f64::max);
    // 6 * median(|r|) is the classical scale; floor it so a nearly-perfect
    // fit (median ~ 0) cannot zero every weight or produce 0/0 = NaN.
    let s = (6.0 * stats::median(&abs).unwrap_or(0.0)).max(1e-12 + 1e-9 * max_abs);
    residual
        .iter()
        .map(|r| {
            let u = (r / s).abs();
            if u >= 1.0 {
                0.0
            } else {
                let t = 1.0 - u * u;
                t * t
            }
        })
        .collect()
}

/// Decomposes `xs` with seasonal period `period` using STL.
///
/// # Panics
///
/// Panics if `period < 2` or `xs.len() < 2 * period`.
pub fn stl(xs: &[f64], period: usize, params: StlParams) -> Stl {
    assert!(period >= 2, "period must be at least 2");
    assert!(xs.len() >= 2 * period, "need at least two periods");
    let n = xs.len();
    let trend_span = if params.trend_smoother > 0 {
        params.trend_smoother
    } else {
        // STL's default trend span heuristic.
        (((1.5 * period as f64) / (1.0 - 1.5 / params.seasonal_smoother as f64)).ceil() as usize)
            | 1
    };

    let mut trend = vec![0.0; n];
    let mut seasonal = vec![0.0; n];
    let mut weights: Option<Vec<f64>> = None;

    for _outer in 0..=params.robust_iterations {
        for _inner in 0..params.inner_iterations {
            // 1. Detrend.
            let detrended: Vec<f64> = xs.iter().zip(&trend).map(|(x, t)| x - t).collect();

            // 2. Cycle-subseries loess smoothing.
            let mut raw_seasonal = vec![0.0; n];
            for phase in 0..period {
                let idx: Vec<usize> = (phase..n).step_by(period).collect();
                let sub: Vec<f64> = idx.iter().map(|&i| detrended[i]).collect();
                let sub_w: Option<Vec<f64>> = weights
                    .as_ref()
                    .map(|w| idx.iter().map(|&i| w[i]).collect());
                let smoothed = loess(&sub, params.seasonal_smoother, sub_w.as_deref());
                for (&i, &s) in idx.iter().zip(&smoothed) {
                    raw_seasonal[i] = s;
                }
            }

            // 3. Low-pass: two MAs of the period, one of 3, then loess; this
            // captures any trend leaked into the seasonal. The seasonal is
            // periodically padded by one period per side so the averages
            // have full windows at the edges (textbook STL extends the
            // cycle subseries; periodic padding is equivalent here).
            let mut padded = Vec::with_capacity(n + 2 * period);
            padded.extend_from_slice(&raw_seasonal[..period]);
            padded.extend_from_slice(&raw_seasonal);
            padded.extend_from_slice(&raw_seasonal[n - period..]);
            let low_padded =
                moving_average(&moving_average(&moving_average(&padded, period), period), 3);
            let low = loess(&low_padded[period..period + n], trend_span, None);
            for i in 0..n {
                seasonal[i] = raw_seasonal[i] - low[i];
            }

            // 4. Deseasonalize and re-estimate the trend.
            let deseason: Vec<f64> = xs.iter().zip(&seasonal).map(|(x, s)| x - s).collect();
            trend = loess(&deseason, trend_span, weights.as_deref());
        }

        // Outer loop: robustness weights from the residuals.
        if params.robust_iterations > 0 {
            let residual: Vec<f64> = (0..n).map(|i| xs[i] - trend[i] - seasonal[i]).collect();
            weights = Some(bisquare_weights(&residual));
        }
    }

    let residual: Vec<f64> = (0..n).map(|i| xs[i] - trend[i] - seasonal[i]).collect();
    Stl {
        trend,
        seasonal,
        residual,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn signal(n: usize, period: usize, amp: f64, slope: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                slope * i as f64
                    + amp * (std::f64::consts::TAU * (i % period) as f64 / period as f64).sin()
            })
            .collect()
    }

    #[test]
    fn components_sum_to_signal() {
        let xs = signal(240, 24, 8.0, 0.05);
        let d = stl(&xs, 24, StlParams::default());
        for i in 0..xs.len() {
            let sum = d.trend[i] + d.seasonal[i] + d.residual[i];
            assert!((sum - xs[i]).abs() < 1e-9, "index {i}");
        }
    }

    #[test]
    fn clean_signal_leaves_tiny_residuals() {
        let xs = signal(360, 24, 10.0, 0.0);
        let d = stl(&xs, 24, StlParams::default());
        // Skip edges (loess edge effects are expected).
        let interior = &d.residual[24..336];
        let max = interior.iter().map(|r| r.abs()).fold(0.0, f64::max);
        assert!(max < 0.8, "max interior residual {max}");
    }

    #[test]
    fn trend_tracks_a_linear_ramp() {
        let xs = signal(360, 24, 5.0, 0.3);
        let d = stl(&xs, 24, StlParams::default());
        let growth = (d.trend[300] - d.trend[60]) / 240.0;
        assert!((growth - 0.3).abs() < 0.05, "growth {growth}");
    }

    #[test]
    fn seasonal_component_is_roughly_periodic() {
        let xs = signal(360, 24, 10.0, 0.1);
        let d = stl(&xs, 24, StlParams::default());
        // Compare seasonal values a period apart, away from the edges.
        for i in 48..288 {
            assert!(
                (d.seasonal[i] - d.seasonal[i + 24]).abs() < 1.5,
                "seasonal drift at {i}: {} vs {}",
                d.seasonal[i],
                d.seasonal[i + 24]
            );
        }
    }

    #[test]
    fn robustness_shrugs_off_outliers() {
        let mut xs = signal(360, 24, 10.0, 0.0);
        xs[100] += 300.0;
        xs[200] -= 300.0;
        let robust = stl(
            &xs,
            24,
            StlParams {
                robust_iterations: 2,
                ..Default::default()
            },
        );
        // The outliers land in the residual, not the trend/seasonal.
        assert!(
            robust.residual[100] > 200.0,
            "outlier absorbed: {}",
            robust.residual[100]
        );
        assert!(robust.residual[200] < -200.0);
        // The trend near the outlier stays close to the clean level (0).
        assert!(
            robust.trend[100].abs() < 30.0,
            "trend contaminated: {}",
            robust.trend[100]
        );
    }

    #[test]
    fn stl_residuals_beat_classical_on_outliers() {
        // Same contaminated signal through both decompositions: STL's
        // robust weights should yield a cleaner seasonal estimate around
        // the contamination.
        let mut xs = signal(360, 24, 10.0, 0.0);
        for i in (96..120).step_by(3) {
            xs[i] += 150.0;
        }
        let s = stl(
            &xs,
            24,
            StlParams {
                robust_iterations: 2,
                ..Default::default()
            },
        );
        let c = crate::decompose::decompose(&xs, 24, false);
        // Probe clean points one period after the contamination.
        let probe = 130..150;
        let stl_err: f64 = probe.clone().map(|i| s.residual[i].abs()).sum();
        let cls_err: f64 = probe.map(|i| c.residual[i].abs()).sum();
        assert!(stl_err < cls_err, "stl {stl_err} vs classical {cls_err}");
    }

    #[test]
    fn loess_interpolates_a_line_exactly() {
        let ys: Vec<f64> = (0..50).map(|i| 2.0 * i as f64 + 1.0).collect();
        let sm = loess(&ys, 7, None);
        for (a, b) in ys.iter().zip(&sm) {
            assert!((a - b).abs() < 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "two periods")]
    fn short_input_rejected() {
        let _ = stl(&[1.0; 10], 8, StlParams::default());
    }
}
