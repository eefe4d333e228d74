//! Historical average \[5\] and its MAD variant (Table 3, win = 1..5 weeks).
//!
//! §4.3.1: "historical average assumes the data follow Gaussian
//! distribution, and uses how many times of standard deviation the point is
//! away from the mean as the severity." The Gaussian is fit per *slot of the
//! day* over the trailing `win` weeks (i.e. `7 · win` same-time-of-day
//! samples), following the time-of-day modeling of \[5\]. The MAD variant
//! replaces mean/σ with median/MAD.

use crate::Detector;
use opprentice_numeric::rolling::SortedWindow;
use opprentice_timeseries::slot_of_day;

/// Minimum same-slot samples before severities start.
pub(crate) const MIN_HISTORY: usize = 5;

/// The historical average / historical MAD detector.
#[derive(Debug, Clone)]
pub struct HistoricalAverage {
    robust: bool,
    interval: u32,
    /// Per-slot-of-day history, up to `7 * weeks` entries each.
    per_slot: Vec<SortedWindow>,
}

impl HistoricalAverage {
    /// Creates the detector with a memory of `weeks` weeks (that is,
    /// `7 * weeks` samples per time-of-day slot). `robust` selects MAD.
    ///
    /// # Panics
    ///
    /// Panics if `weeks == 0`.
    pub fn new(weeks: usize, robust: bool, interval: u32) -> Self {
        assert!(weeks > 0, "weeks must be positive");
        let ppd = (86_400 / i64::from(interval)) as usize;
        Self {
            robust,
            interval,
            per_slot: vec![SortedWindow::new(7 * weeks); ppd],
        }
    }
}

impl Detector for HistoricalAverage {
    fn observe(&mut self, timestamp: i64, value: Option<f64>) -> Option<f64> {
        let slot = slot_of_day(timestamp, self.interval);
        let v = value?;

        let history = &mut self.per_slot[slot];
        let severity = if history.len() >= MIN_HISTORY {
            let (center, spread_raw) = if self.robust {
                (
                    history.median().expect("non-empty"),
                    history.mad().unwrap_or(0.0),
                )
            } else {
                (
                    history.mean().expect("non-empty"),
                    history.std_dev().unwrap_or(0.0),
                )
            };
            let spread = spread_raw.max(1e-9 * (1.0 + center.abs()));
            Some((v - center).abs() / spread)
        } else {
            None
        };

        history.push(v);
        severity
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hourly value with a clean daily pattern plus small deterministic noise.
    fn daily_pattern(ts: i64) -> f64 {
        let slot = slot_of_day(ts, 3600);
        100.0 + 5.0 * slot as f64 + ((ts / 3600) % 3) as f64
    }

    #[test]
    fn needs_min_history_per_slot() {
        let mut d = HistoricalAverage::new(1, false, 3600);
        // Fewer than MIN_HISTORY days: all warm-up.
        for i in 0..(24 * (MIN_HISTORY as i64)) {
            let ts = i * 3600;
            assert_eq!(d.observe(ts, Some(daily_pattern(ts))), None);
        }
        // Day MIN_HISTORY: severities appear.
        let ts = 24 * (MIN_HISTORY as i64) * 3600;
        assert!(d.observe(ts, Some(daily_pattern(ts))).is_some());
    }

    #[test]
    fn severity_counts_sigmas() {
        let mut d = HistoricalAverage::new(2, false, 3600);
        // Slot 0 history: alternating 99/101 => mean 100, std 1.
        for day in 0..10i64 {
            let ts = day * 86_400;
            let v = if day % 2 == 0 { 99.0 } else { 101.0 };
            d.observe(ts, Some(v));
        }
        let sev = d.observe(10 * 86_400, Some(105.0)).unwrap();
        assert!((sev - 5.0).abs() < 1e-9, "sev {sev}");
    }

    #[test]
    fn anomalies_score_much_higher_than_normal() {
        let mut d = HistoricalAverage::new(2, false, 3600);
        let mut normal = 0.0;
        for i in 0..(24 * 20) {
            let ts = i * 3600;
            if let Some(s) = d.observe(ts, Some(daily_pattern(ts))) {
                normal = s;
            }
        }
        let ts = 24 * 20 * 3600;
        let spike = d.observe(ts, Some(daily_pattern(ts) + 200.0)).unwrap();
        assert!(spike > 10.0 * (normal + 1.0), "{spike} vs {normal}");
    }

    #[test]
    fn mad_variant_is_robust_to_history_outliers() {
        let mut plain = HistoricalAverage::new(3, false, 3600);
        let mut robust = HistoricalAverage::new(3, true, 3600);
        for day in 0..20i64 {
            let ts = day * 86_400;
            // Slot-0 history is ~100 except two wild outliers.
            let v = if day == 5 || day == 11 {
                10_000.0
            } else {
                100.0 + (day % 3) as f64
            };
            plain.observe(ts, Some(v));
            robust.observe(ts, Some(v));
        }
        let probe = 100.0 + 30.0;
        let s_plain = plain.observe(20 * 86_400, Some(probe)).unwrap();
        let s_robust = robust.observe(20 * 86_400, Some(probe)).unwrap();
        // The outliers inflate σ, deflating the plain severity.
        assert!(s_robust > 3.0 * s_plain, "MAD {s_robust} vs std {s_plain}");
    }

    #[test]
    fn slots_are_independent() {
        let mut d = HistoricalAverage::new(1, false, 3600);
        // Build history only for slot 0.
        for day in 0..7i64 {
            d.observe(day * 86_400, Some(100.0 + (day % 2) as f64));
        }
        // Slot 1 has no history: warm-up.
        assert_eq!(d.observe(3600, Some(100.0)), None);
        // Slot 0 has: severity.
        assert!(d.observe(7 * 86_400, Some(100.0)).is_some());
    }

    #[test]
    fn history_capped_at_seven_weeks_days() {
        let mut d = HistoricalAverage::new(1, false, 3600);
        for day in 0..30i64 {
            d.observe(day * 86_400, Some(day as f64));
        }
        assert_eq!(d.per_slot[0].len(), 7);
        // Oldest entries evicted: the window holds days 23..30.
        assert_eq!(d.per_slot[0].front(), Some(23.0));
    }
}
