//! Classical seasonal decomposition of a time-series window.
//!
//! This is the substrate of the paper's TSD (time series decomposition)
//! detector \[1\] and its MAD variant: split a trailing window into
//! `trend + seasonal + residual`, then score new points by how far they sit
//! from `trend + seasonal`, measured in residual spreads. The robust variant
//! replaces means with medians and the standard deviation with MAD, which
//! "can improve the robustness to missing data and outliers" (§5.2).

use crate::stats;

/// A batch seasonal decomposition `x = trend + seasonal + residual`.
#[derive(Debug, Clone)]
pub struct Decomposition {
    /// Centered moving-average trend (edges extended).
    pub trend: Vec<f64>,
    /// Periodic seasonal component (mean/median per slot, zero-centered).
    pub seasonal: Vec<f64>,
    /// What remains.
    pub residual: Vec<f64>,
}

/// Decomposes `xs` with seasonal period `period` points.
///
/// `robust` selects medians/MAD-friendly estimation (used by TSD MAD);
/// otherwise means are used (plain TSD). The trend is a centered moving
/// average of one period, extended at the edges by its boundary values.
///
/// # Panics
///
/// Panics if `period < 2` or `xs.len() < 2 * period`.
pub fn decompose(xs: &[f64], period: usize, robust: bool) -> Decomposition {
    assert!(period >= 2, "period must be at least 2");
    assert!(xs.len() >= 2 * period, "need at least two periods of data");
    let n = xs.len();

    // 1. Trend: centered moving average over one period.
    let half = period / 2;
    let mut trend = vec![0.0; n];
    for (i, t) in trend.iter_mut().enumerate() {
        let lo = i.saturating_sub(half);
        let hi = (i + half + 1).min(n);
        let window = &xs[lo..hi];
        *t = if robust {
            stats::median(window).expect("non-empty window")
        } else {
            stats::mean(window).expect("non-empty window")
        };
    }

    // 2. Seasonal: center per slot of the detrended series, then zero-center.
    let mut per_slot: Vec<Vec<f64>> = vec![Vec::new(); period];
    for i in 0..n {
        per_slot[i % period].push(xs[i] - trend[i]);
    }
    let mut seasonal_profile: Vec<f64> = per_slot
        .iter()
        .map(|slot| {
            if robust {
                stats::median(slot).unwrap_or(0.0)
            } else {
                stats::mean(slot).unwrap_or(0.0)
            }
        })
        .collect();
    let profile_center = if robust {
        stats::median(&seasonal_profile).unwrap_or(0.0)
    } else {
        stats::mean(&seasonal_profile).unwrap_or(0.0)
    };
    for s in &mut seasonal_profile {
        *s -= profile_center;
    }

    let seasonal: Vec<f64> = (0..n).map(|i| seasonal_profile[i % period]).collect();
    let residual: Vec<f64> = (0..n).map(|i| xs[i] - trend[i] - seasonal[i]).collect();
    Decomposition {
        trend,
        seasonal,
        residual,
    }
}

/// Spread (σ-like scale) of the residuals: standard deviation for the plain
/// variant, scaled MAD for the robust one. Returns at least `f64::MIN_POSITIVE`
/// to keep severity division well-defined on perfectly regular data.
pub fn residual_spread(residual: &[f64], robust: bool) -> f64 {
    let raw = if robust {
        stats::mad(residual).unwrap_or(0.0)
    } else {
        stats::std_dev(residual).unwrap_or(0.0)
    };
    raw.max(f64::MIN_POSITIVE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seasonal_signal(n: usize, period: usize, amp: f64, trend_slope: f64) -> Vec<f64> {
        (0..n)
            .map(|i| {
                trend_slope * i as f64
                    + amp * (2.0 * std::f64::consts::PI * (i % period) as f64 / period as f64).sin()
            })
            .collect()
    }

    #[test]
    fn components_sum_to_signal() {
        let xs = seasonal_signal(96, 12, 5.0, 0.1);
        let d = decompose(&xs, 12, false);
        for i in 0..xs.len() {
            let sum = d.trend[i] + d.seasonal[i] + d.residual[i];
            assert!((sum - xs[i]).abs() < 1e-10);
        }
    }

    #[test]
    fn clean_seasonal_signal_has_small_residuals() {
        let xs = seasonal_signal(240, 24, 10.0, 0.0);
        let d = decompose(&xs, 24, false);
        let spread = residual_spread(&d.residual, false);
        // Residual noise should be far smaller than the seasonal amplitude.
        assert!(spread < 1.0, "spread {spread}");
    }

    #[test]
    fn seasonal_component_is_periodic_and_centered() {
        let xs = seasonal_signal(240, 24, 10.0, 0.05);
        let d = decompose(&xs, 24, false);
        for i in 24..xs.len() {
            assert!((d.seasonal[i] - d.seasonal[i - 24]).abs() < 1e-10);
        }
        let mean_season: f64 = d.seasonal[..24].iter().sum::<f64>() / 24.0;
        assert!(mean_season.abs() < 1e-9);
    }

    #[test]
    fn trend_follows_slope() {
        let xs = seasonal_signal(240, 24, 3.0, 0.5);
        let d = decompose(&xs, 24, false);
        // Compare interior trend growth to the true slope over 100 points.
        let growth = (d.trend[150] - d.trend[50]) / 100.0;
        assert!((growth - 0.5).abs() < 0.05, "growth {growth}");
    }

    #[test]
    fn robust_variant_shrugs_off_outliers() {
        let mut xs = seasonal_signal(240, 24, 10.0, 0.0);
        xs[100] += 500.0;
        xs[101] += 500.0;
        let plain = decompose(&xs, 24, false);
        let robust = decompose(&xs, 24, true);
        let plain_spread = residual_spread(&plain.residual, false);
        let robust_spread = residual_spread(&robust.residual, true);
        // The robust spread stays near the clean value; std is inflated.
        assert!(
            robust_spread < plain_spread / 3.0,
            "{robust_spread} vs {plain_spread}"
        );
        // And the outlier's residual z-score is much larger under MAD.
        let z_plain = plain.residual[100].abs() / plain_spread;
        let z_robust = robust.residual[100].abs() / robust_spread;
        assert!(z_robust > z_plain);
    }

    #[test]
    #[should_panic(expected = "two periods")]
    fn rejects_short_input() {
        let _ = decompose(&[1.0; 10], 8, false);
    }

    #[test]
    fn residual_spread_never_zero() {
        assert!(residual_spread(&[0.0; 50], false) > 0.0);
        assert!(residual_spread(&[0.0; 50], true) > 0.0);
    }
}
