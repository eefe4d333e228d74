//! Exponential smoothing: plain EWMA and additive Holt–Winters.
//!
//! EWMA backs two parts of the paper: the EWMA *detector* (Table 3,
//! α ∈ {0.1 … 0.9}) and the EWMA-based *cThld prediction* of §4.5.2
//! (α = 0.8). Holt–Winters \[6\] is the triple exponential smoothing detector
//! with parameters {α, β, γ} sampled on {0.2, 0.4, 0.6, 0.8}³ (64 configs).

/// Exponentially weighted moving average.
///
/// `update(x)` folds an observation in; `value()` is the current smoothed
/// estimate, which doubles as the one-step-ahead prediction for the EWMA
/// detector. Larger α weights recent data more.
#[derive(Debug, Clone)]
pub struct Ewma {
    alpha: f64,
    state: Option<f64>,
}

impl Ewma {
    /// Creates an EWMA with smoothing constant `alpha` in `[0, 1]`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]`.
    pub fn new(alpha: f64) -> Self {
        assert!((0.0..=1.0).contains(&alpha), "alpha must be in [0, 1]");
        Self { alpha, state: None }
    }

    /// The smoothing constant.
    pub fn alpha(&self) -> f64 {
        self.alpha
    }

    /// Current smoothed value (`None` before the first observation).
    pub fn value(&self) -> Option<f64> {
        self.state
    }

    /// Folds one observation in and returns the updated smoothed value.
    pub fn update(&mut self, x: f64) -> f64 {
        let next = match self.state {
            None => x,
            Some(prev) => self.alpha * x + (1.0 - self.alpha) * prev,
        };
        self.state = Some(next);
        next
    }
}

/// Additive Holt–Winters triple exponential smoothing with online warm-up.
///
/// Feed points with [`HoltWinters::observe`]; it returns the one-step-ahead
/// forecast that was in effect *before* the point was folded in (`None`
/// during warm-up, which takes two full seasons — the paper's §4.3.2 allows
/// detectors to "skip the detection of the data in the warm-up window").
#[derive(Debug, Clone)]
pub struct HoltWinters {
    alpha: f64,
    beta: f64,
    gamma: f64,
    season_len: usize,
    buffer: Vec<f64>,
    state: Option<HwState>,
}

#[derive(Debug, Clone)]
struct HwState {
    level: f64,
    trend: f64,
    seasonal: Vec<f64>,
    /// Index into `seasonal` of the *next* expected slot.
    pos: usize,
}

impl HoltWinters {
    /// Creates a smoother with the given parameters and season length
    /// (in points).
    ///
    /// # Panics
    ///
    /// Panics if any parameter is outside `[0, 1]` or `season_len < 2`.
    pub fn new(alpha: f64, beta: f64, gamma: f64, season_len: usize) -> Self {
        for (name, v) in [("alpha", alpha), ("beta", beta), ("gamma", gamma)] {
            assert!((0.0..=1.0).contains(&v), "{name} must be in [0, 1]");
        }
        assert!(season_len >= 2, "season_len must be at least 2");
        Self {
            alpha,
            beta,
            gamma,
            season_len,
            buffer: Vec::new(),
            state: None,
        }
    }

    /// Points required before forecasts start (two full seasons).
    pub fn warmup_len(&self) -> usize {
        2 * self.season_len
    }

    /// Feeds the next point. Returns the forecast that was made *for this
    /// point* before seeing it, or `None` while warming up.
    pub fn observe(&mut self, x: f64) -> Option<f64> {
        match &mut self.state {
            None => {
                self.buffer.push(x);
                if self.buffer.len() == self.warmup_len() {
                    self.initialize();
                }
                None
            }
            Some(state) => {
                let m = self.season_len;
                let forecast = state.level + state.trend + state.seasonal[state.pos];
                let s_old = state.seasonal[state.pos];
                let level_old = state.level;
                state.level =
                    self.alpha * (x - s_old) + (1.0 - self.alpha) * (state.level + state.trend);
                state.trend =
                    self.beta * (state.level - level_old) + (1.0 - self.beta) * state.trend;
                state.seasonal[state.pos] =
                    self.gamma * (x - state.level) + (1.0 - self.gamma) * s_old;
                state.pos = (state.pos + 1) % m;
                Some(forecast)
            }
        }
    }

    /// The forecast for the next (unseen) point, or `None` during warm-up.
    pub fn next_forecast(&self) -> Option<f64> {
        self.state
            .as_ref()
            .map(|s| s.level + s.trend + s.seasonal[s.pos])
    }

    fn initialize(&mut self) {
        let m = self.season_len;
        let s1 = &self.buffer[..m];
        let s2 = &self.buffer[m..2 * m];
        let mean1 = s1.iter().sum::<f64>() / m as f64;
        let mean2 = s2.iter().sum::<f64>() / m as f64;
        let level = mean2;
        let trend = (mean2 - mean1) / m as f64;
        let seasonal: Vec<f64> = (0..m)
            .map(|i| ((s1[i] - mean1) + (s2[i] - mean2)) / 2.0)
            .collect();
        self.state = Some(HwState {
            level,
            trend,
            seasonal,
            pos: 0,
        });
        self.buffer.clear();
        self.buffer.shrink_to_fit();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ewma_first_value_is_identity() {
        let mut e = Ewma::new(0.3);
        assert_eq!(e.value(), None);
        assert_eq!(e.update(10.0), 10.0);
    }

    #[test]
    fn ewma_blends_with_alpha() {
        let mut e = Ewma::new(0.5);
        e.update(0.0);
        assert_eq!(e.update(10.0), 5.0);
        assert_eq!(e.update(10.0), 7.5);
    }

    #[test]
    fn ewma_alpha_one_tracks_input() {
        let mut e = Ewma::new(1.0);
        e.update(1.0);
        assert_eq!(e.update(42.0), 42.0);
    }

    #[test]
    fn ewma_alpha_zero_freezes_first_value() {
        let mut e = Ewma::new(0.0);
        e.update(7.0);
        e.update(100.0);
        assert_eq!(e.value(), Some(7.0));
    }

    #[test]
    #[should_panic(expected = "alpha must be in")]
    fn ewma_rejects_bad_alpha() {
        let _ = Ewma::new(1.5);
    }

    #[test]
    fn holt_winters_warms_up_two_seasons() {
        let mut hw = HoltWinters::new(0.5, 0.5, 0.5, 4);
        for i in 0..8 {
            assert_eq!(hw.observe(i as f64), None, "point {i} should be warm-up");
        }
        assert!(hw.next_forecast().is_some());
    }

    #[test]
    fn holt_winters_tracks_pure_seasonal_signal() {
        // Period-4 signal with no trend: forecasts converge to the pattern.
        let pattern = [10.0, 20.0, 30.0, 20.0];
        let mut hw = HoltWinters::new(0.2, 0.1, 0.2, 4);
        let mut last_errors = Vec::new();
        for cycle in 0..50 {
            for &v in &pattern {
                if let Some(f) = hw.observe(v) {
                    if cycle > 40 {
                        last_errors.push((f - v).abs());
                    }
                }
            }
        }
        let max_err = last_errors.iter().cloned().fold(0.0, f64::max);
        assert!(max_err < 0.5, "max late-cycle error {max_err}");
    }

    #[test]
    fn holt_winters_tracks_trend_plus_season() {
        // Linear trend + period-6 seasonality.
        let season = [0.0, 5.0, 8.0, 5.0, 0.0, -6.0];
        let mut hw = HoltWinters::new(0.3, 0.1, 0.3, 6);
        let mut errs = Vec::new();
        for t in 0..600 {
            let v = 0.05 * t as f64 + season[t % 6];
            if let Some(f) = hw.observe(v) {
                if t > 500 {
                    errs.push((f - v).abs());
                }
            }
        }
        let mean_err = errs.iter().sum::<f64>() / errs.len() as f64;
        assert!(mean_err < 0.6, "mean late error {mean_err}");
    }

    #[test]
    fn holt_winters_spike_produces_large_residual() {
        let mut hw = HoltWinters::new(0.3, 0.1, 0.3, 4);
        let pattern = [10.0, 20.0, 30.0, 20.0];
        let mut resid_normal = 0.0;
        for cycle in 0..30 {
            for &v in &pattern {
                if let Some(f) = hw.observe(v) {
                    if cycle == 29 {
                        resid_normal = (f - v).abs();
                    }
                }
            }
        }
        // Inject a spike: residual should dwarf the normal one.
        let f = hw.next_forecast().unwrap();
        let spike = 100.0;
        let resid_spike = (f - spike).abs();
        assert!(resid_spike > 10.0 * (resid_normal + 1e-9));
    }

    #[test]
    #[should_panic(expected = "season_len")]
    fn holt_winters_rejects_tiny_season() {
        let _ = HoltWinters::new(0.5, 0.5, 0.5, 1);
    }
}
