//! The Holt–Winters detector \[6\]: triple exponential smoothing with a daily
//! season. §4.3.1: "Holt-Winters uses the residual error (i.e., the absolute
//! difference between the actual value and the forecast value of each data
//! point) to measure the severity."
//!
//! Table 3 sweeps all three smoothing parameters over {0.2, 0.4, 0.6, 0.8},
//! yielding the 64 configurations that dominate the 133-feature registry.

use crate::Detector;
use opprentice_numeric::smoothing::HoltWinters;

/// The Holt–Winters prediction detector.
#[derive(Debug, Clone)]
pub struct HoltWintersDetector {
    smoother: HoltWinters,
    last_value: Option<f64>,
}

impl HoltWintersDetector {
    /// Creates the detector with the given smoothing parameters at the
    /// given sampling interval (the season is one day).
    ///
    /// # Panics
    ///
    /// Panics if a parameter is outside `[0, 1]` or the interval admits
    /// fewer than 2 points per day.
    pub fn new(alpha: f64, beta: f64, gamma: f64, interval: u32) -> Self {
        let season = (86_400 / i64::from(interval)) as usize;
        Self {
            smoother: HoltWinters::new(alpha, beta, gamma, season),
            last_value: None,
        }
    }
}

impl Detector for HoltWintersDetector {
    fn observe(&mut self, _timestamp: i64, value: Option<f64>) -> Option<f64> {
        // A missing point would desynchronize the seasonal position, so it
        // is filled with the smoother's own forecast (or the last value
        // during warm-up) — self-healing, but no severity is emitted.
        let Some(v) = value else {
            let fill = self.smoother.next_forecast().or(self.last_value);
            if let Some(f) = fill {
                let _ = self.smoother.observe(f);
            }
            return None;
        };
        self.last_value = Some(v);
        self.smoother
            .observe(v)
            .map(|forecast| (v - forecast).abs())
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hourly series (24-point season) with a clean daily shape.
    fn daily(ts: i64) -> f64 {
        let slot = (ts / 3600) % 24;
        100.0 + 10.0 * (std::f64::consts::TAU * slot as f64 / 24.0).sin()
    }

    #[test]
    fn warm_up_is_two_days() {
        let mut d = HoltWintersDetector::new(0.4, 0.2, 0.4, 3600);
        for i in 0..48 {
            assert_eq!(
                d.observe(i * 3600, Some(daily(i * 3600))),
                None,
                "point {i}"
            );
        }
        assert!(d.observe(48 * 3600, Some(daily(48 * 3600))).is_some());
    }

    #[test]
    fn clean_seasonal_signal_small_severity_spike_large() {
        let mut d = HoltWintersDetector::new(0.4, 0.2, 0.4, 3600);
        let mut normal = 0.0;
        for i in 0..(24 * 14) {
            let ts = i * 3600;
            if let Some(s) = d.observe(ts, Some(daily(ts))) {
                normal = s;
            }
        }
        let ts = 24 * 14 * 3600;
        let spike = d.observe(ts, Some(daily(ts) + 80.0)).unwrap();
        assert!(spike > 20.0 * (normal + 0.5), "{spike} vs {normal}");
    }

    #[test]
    fn missing_points_self_heal_without_severity() {
        let mut d = HoltWintersDetector::new(0.4, 0.2, 0.4, 3600);
        for i in 0..(24 * 7) {
            let ts = i * 3600;
            d.observe(ts, Some(daily(ts)));
        }
        // A short gap.
        for i in 0..3 {
            assert_eq!(d.observe((24 * 7 + i) * 3600, None), None);
        }
        // Forecasting continues and stays accurate after the gap.
        let ts = (24 * 7 + 3) * 3600;
        let sev = d.observe(ts, Some(daily(ts))).unwrap();
        assert!(sev < 5.0, "post-gap severity {sev}");
    }

    #[test]
    fn config_string_reflects_parameters() {
        let spec = crate::registry::DetectorSpec::HoltWinters {
            alpha: 0.2,
            beta: 0.4,
            gamma: 0.8,
            interval: 60,
        };
        assert_eq!(spec.params(), "alpha=0.2,beta=0.4,gamma=0.8");
    }
}
