//! Simple static threshold — the Amazon CloudWatch Alarms style detector
//! \[24\], the one detection method "intuitive to operators although
//! unsatisfying in detection performance" (§1).
//!
//! Its severity is the raw value itself: for volume KPIs like #SR (number
//! of slow responses) the value *is* the anomaly signal, which is why this
//! trivial detector ranks first in AUCPR on #SR in the paper (Fig. 9b).
//! Every sThld swept over this severity reproduces one static-threshold
//! alarm rule.

use crate::Detector;

/// The static-threshold detector. Severity = the value (clamped at 0).
#[derive(Debug, Clone, Default)]
pub struct SimpleThreshold;

impl SimpleThreshold {
    /// Creates the detector (it has no parameters — Table 3 lists exactly
    /// one configuration).
    pub fn new() -> Self {
        Self
    }
}

impl Detector for SimpleThreshold {
    fn observe(&mut self, _timestamp: i64, value: Option<f64>) -> Option<f64> {
        value.map(|v| v.max(0.0))
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_is_the_value() {
        let mut d = SimpleThreshold::new();
        assert_eq!(d.observe(0, Some(42.0)), Some(42.0));
        assert_eq!(d.observe(60, Some(0.0)), Some(0.0));
    }

    #[test]
    fn negative_values_clamp_to_zero() {
        let mut d = SimpleThreshold::new();
        assert_eq!(d.observe(0, Some(-5.0)), Some(0.0));
    }

    #[test]
    fn missing_points_yield_none() {
        let mut d = SimpleThreshold::new();
        assert_eq!(d.observe(0, None), None);
    }

    #[test]
    fn no_warm_up() {
        let mut d = SimpleThreshold::new();
        // The very first point already gets a severity.
        assert!(d.observe(0, Some(1.0)).is_some());
    }
}
