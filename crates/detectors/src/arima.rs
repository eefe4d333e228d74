//! The ARIMA detector \[10\] — the one configuration of Table 3 whose
//! parameters are *estimated from the data* instead of swept (§4.3.3):
//! "their parameter spaces can be too large even for sampling. To deal with
//! such detectors, we estimate their 'best' parameters from the data …
//! since the data characteristics can change over time, it is also
//! necessary to update the parameter estimates periodically."
//!
//! The estimation pipeline (differencing order by variance reduction,
//! Hannan–Rissanen + AIC for (p, q)) lives in `opprentice_numeric::arima`.
//! This wrapper re-estimates the model every week of data and scores each
//! point with the one-step-ahead forecast residual.

use crate::Detector;
use opprentice_numeric::arima::{auto_fit, ArimaOrder, ArimaState};

/// Points of history used for each (re-)estimation.
const FIT_WINDOW: usize = 2016;
/// Minimum points before the first estimation.
const MIN_FIT: usize = 256;

/// The self-tuning ARIMA detector.
#[derive(Debug, Clone)]
pub struct ArimaDetector {
    /// Trailing raw values used for refits.
    history: Vec<f64>,
    state: Option<ArimaState>,
    points_since_fit: usize,
    refit_every: usize,
}

impl ArimaDetector {
    /// Creates the detector at the given sampling interval. The model is
    /// re-estimated every week of points.
    pub fn new(interval: u32) -> Self {
        let ppw = (7 * 86_400 / i64::from(interval)) as usize;
        Self {
            history: Vec::new(),
            state: None,
            points_since_fit: 0,
            refit_every: ppw,
        }
    }

    /// The order of the model currently in use; `None` until the first
    /// estimation.
    pub fn order(&self) -> Option<ArimaOrder> {
        self.state.as_ref().map(|s| s.model().order)
    }

    fn maybe_fit(&mut self) {
        let due = match self.state {
            None => self.history.len() >= MIN_FIT,
            Some(_) => self.points_since_fit >= self.refit_every,
        };
        if !due {
            return;
        }
        let tail_start = self.history.len().saturating_sub(FIT_WINDOW);
        let tail = &self.history[tail_start..];
        if let Some(model) = auto_fit(tail) {
            let mut state = ArimaState::new(model);
            // Replay the fit window so the state starts with real history.
            for &x in tail {
                let _ = state.observe(x);
            }
            self.state = Some(state);
        }
        self.points_since_fit = 0;
        // Bound memory: the history never needs more than the fit window.
        if self.history.len() > 2 * FIT_WINDOW {
            self.history.drain(..self.history.len() - FIT_WINDOW);
        }
    }
}

impl Detector for ArimaDetector {
    fn observe(&mut self, _timestamp: i64, value: Option<f64>) -> Option<f64> {
        let Some(v) = value else {
            // Self-heal through gaps with the model's own forecast.
            if let Some(state) = &mut self.state {
                if let Some(f) = state.next_forecast().filter(|f| f.is_finite()) {
                    let _ = state.observe(f);
                    self.history.push(f);
                    self.points_since_fit += 1;
                }
            }
            return None;
        };
        let severity = match &mut self.state {
            Some(state) => state
                .observe(v)
                .map(|f| (v - f).abs())
                // An unstable fit can diverge; suppress the verdict rather
                // than emit a garbage severity (the weekly refit recovers).
                .filter(|s| s.is_finite()),
            None => None,
        };
        self.history.push(v);
        self.points_since_fit += 1;
        self.maybe_fit();
        severity
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// AR(1)-ish deterministic driver.
    fn series(n: usize) -> Vec<f64> {
        let mut state = 0x9E3779B97F4A7C15u64;
        let mut x = 0.0f64;
        (0..n)
            .map(|_| {
                let mut acc = 0.0;
                for _ in 0..12 {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    acc += (state >> 11) as f64 / (1u64 << 53) as f64;
                }
                x = 0.6 * x + (acc - 6.0);
                100.0 + x
            })
            .collect()
    }

    #[test]
    fn warms_up_then_emits() {
        let mut d = ArimaDetector::new(3600);
        let vals = series(MIN_FIT + 50);
        let mut first_some = None;
        for (i, &v) in vals.iter().enumerate() {
            if d.observe(i as i64 * 3600, Some(v)).is_some() && first_some.is_none() {
                first_some = Some(i);
            }
        }
        let first = first_some.expect("should emit after fitting");
        assert!(first >= MIN_FIT, "emitted during warm-up at {first}");
    }

    #[test]
    fn spike_scores_higher_than_normal() {
        let mut d = ArimaDetector::new(3600);
        let vals = series(MIN_FIT + 200);
        let mut normal = 0.0;
        for (i, &v) in vals.iter().enumerate() {
            if let Some(s) = d.observe(i as i64 * 3600, Some(v)) {
                normal = s;
            }
        }
        let n = vals.len() as i64;
        let spike = d.observe(n * 3600, Some(200.0)).unwrap();
        assert!(spike > 5.0 * (normal + 1.0), "{spike} vs {normal}");
    }

    #[test]
    fn config_reports_estimated_orders() {
        let spec = crate::registry::DetectorSpec::Arima { interval: 3600 };
        assert_eq!(spec.params(), "estimated (pending)");
        let mut d = ArimaDetector::new(3600);
        assert_eq!(d.order(), None);
        for (i, &v) in series(MIN_FIT + 10).iter().enumerate() {
            d.observe(i as i64 * 3600, Some(v));
        }
        assert!(
            d.order().is_some(),
            "no order estimated after MIN_FIT points"
        );
    }

    #[test]
    fn survives_gaps() {
        let mut d = ArimaDetector::new(3600);
        let vals = series(MIN_FIT + 100);
        for (i, &v) in vals.iter().enumerate() {
            let v = if i % 17 == 0 { None } else { Some(v) };
            let _ = d.observe(i as i64 * 3600, v);
        }
        assert!(d
            .observe((MIN_FIT + 101) as i64 * 3600, Some(100.0))
            .is_some());
    }

    #[test]
    fn history_memory_is_bounded() {
        let mut d = ArimaDetector::new(3600);
        for (i, &v) in series(5 * FIT_WINDOW).iter().enumerate() {
            d.observe(i as i64 * 3600, Some(v));
        }
        assert!(d.history.len() <= 2 * FIT_WINDOW);
    }
}
