//! The EWMA detector \[11\]: a prediction-based detector whose forecast is an
//! exponentially weighted moving average of the history.
//!
//! §4.3.3 uses it as the canonical example of parameter sweeping: "EWMA has
//! only one weight parameter α ∈ [0, 1] … we can sample
//! α ∈ {0.1, 0.3, 0.5, 0.7, 0.9} to obtain 5 typical features."

use crate::Detector;
use opprentice_numeric::smoothing::Ewma;

/// EWMA prediction detector: severity = |v − EWMA(history before v)|.
#[derive(Debug, Clone)]
pub struct EwmaDetector {
    smoother: Ewma,
}

impl EwmaDetector {
    /// Creates the detector with smoothing constant `alpha`.
    ///
    /// # Panics
    ///
    /// Panics if `alpha` is outside `[0, 1]`.
    pub fn new(alpha: f64) -> Self {
        Self {
            smoother: Ewma::new(alpha),
        }
    }
}

impl Detector for EwmaDetector {
    fn observe(&mut self, _timestamp: i64, value: Option<f64>) -> Option<f64> {
        let v = value?;
        let severity = self.smoother.value().map(|pred| (v - pred).abs());
        self.smoother.update(v);
        severity
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn first_point_is_warm_up() {
        let mut d = EwmaDetector::new(0.5);
        assert_eq!(d.observe(0, Some(10.0)), None);
        assert_eq!(d.observe(60, Some(10.0)), Some(0.0));
    }

    #[test]
    fn severity_is_prediction_residual() {
        let mut d = EwmaDetector::new(0.5);
        d.observe(0, Some(0.0));
        // EWMA = 0; |10 - 0| = 10. Then EWMA = 5.
        assert_eq!(d.observe(60, Some(10.0)), Some(10.0));
        // |10 - 5| = 5.
        assert_eq!(d.observe(120, Some(10.0)), Some(5.0));
    }

    #[test]
    fn high_alpha_adapts_faster() {
        let series: Vec<f64> = vec![10.0; 20].into_iter().chain(vec![20.0; 20]).collect();
        let run = |alpha: f64| -> f64 {
            let mut d = EwmaDetector::new(alpha);
            let mut last = 0.0;
            for (i, &v) in series.iter().enumerate() {
                if let Some(s) = d.observe(i as i64, Some(v)) {
                    last = s;
                }
            }
            last
        };
        // After the level shift, α=0.9 has nearly caught up; α=0.1 lags.
        assert!(run(0.9) < run(0.1));
    }

    #[test]
    fn missing_points_skip_update() {
        let mut d = EwmaDetector::new(0.5);
        d.observe(0, Some(10.0));
        assert_eq!(d.observe(60, None), None);
        // State unchanged: prediction still 10.
        assert_eq!(d.observe(120, Some(12.0)), Some(2.0));
    }
}
