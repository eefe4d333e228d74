//! TSD — time-series decomposition \[1\] — and its MAD variant (Table 3,
//! win = 1..5 weeks).
//!
//! The detector keeps, for every slot of the week, the values seen at that
//! slot over the last `win` weeks. The seasonal baseline of an incoming
//! point is the center (mean, or median for TSD MAD) of its slot's history;
//! the residual is measured against the spread of recent residuals (standard
//! deviation, or scaled MAD for TSD MAD), so the severity reads as "how many
//! sigmas from the weekly pattern". §4.3.3: "time series decomposition
//! usually uses a window of weeks to capture long-term violations." The MAD
//! patch "can improve the robustness to missing data and outliers" (§5.2).

use crate::Detector;
use opprentice_numeric::rolling::SortedWindow;
use opprentice_timeseries::slot_of_week;

/// How many residuals back the spread estimate looks.
pub(crate) const RESIDUAL_WINDOW: usize = 2016;
/// How many residuals before severities start.
pub(crate) const MIN_RESIDUALS: usize = 10;
/// Spread (and MAD in particular) is recomputed every this many points.
pub(crate) const SPREAD_REFRESH: usize = 64;

/// The TSD / TSD MAD detector.
#[derive(Debug, Clone)]
pub struct Tsd {
    robust: bool,
    interval: u32,
    /// Per-slot-of-week value history (up to `weeks` entries each).
    per_slot: Vec<SortedWindow>,
    /// Recent residuals for the spread estimate.
    residuals: SortedWindow,
    spread: f64,
    since_refresh: usize,
}

impl Tsd {
    /// Creates a TSD detector with a seasonal memory of `weeks` weeks.
    /// `robust` selects the MAD variant.
    ///
    /// # Panics
    ///
    /// Panics if `weeks == 0`.
    pub fn new(weeks: usize, robust: bool, interval: u32) -> Self {
        assert!(weeks > 0, "weeks must be positive");
        let ppw = (7 * 86_400 / i64::from(interval)) as usize;
        Self {
            robust,
            interval,
            per_slot: vec![SortedWindow::new(weeks); ppw],
            residuals: SortedWindow::new(RESIDUAL_WINDOW),
            spread: 0.0,
            since_refresh: 0,
        }
    }

    fn refresh_spread(&mut self) {
        let raw = if self.robust {
            self.residuals.mad().unwrap_or(0.0)
        } else {
            self.residuals.std_dev().unwrap_or(0.0)
        };
        // Floor the spread so severities stay finite on ultra-regular data.
        let scale = self.residuals.max_abs();
        self.spread = raw.max(1e-9 * (1.0 + scale));
    }
}

impl Detector for Tsd {
    fn observe(&mut self, timestamp: i64, value: Option<f64>) -> Option<f64> {
        let slot = slot_of_week(timestamp, self.interval);
        let v = value?;

        let history = &mut self.per_slot[slot];
        let severity = if !history.is_empty() {
            let baseline = if self.robust {
                history.median().expect("non-empty history")
            } else {
                history.mean().expect("non-empty history")
            };
            let residual = v - baseline;
            self.residuals.push(residual);
            self.since_refresh += 1;
            if self.spread == 0.0 || self.since_refresh >= SPREAD_REFRESH {
                self.refresh_spread();
                self.since_refresh = 0;
            }
            (self.residuals.len() >= MIN_RESIDUALS).then(|| residual.abs() / self.spread)
        } else {
            None
        };

        self.per_slot[slot].push(v);
        severity
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hourly KPI with a weekly period: value = slot-of-week pattern.
    fn weekly_pattern(ts: i64) -> f64 {
        let slot = slot_of_week(ts, 3600);
        100.0 + 10.0 * ((slot % 24) as f64) + if slot / 24 >= 5 { -50.0 } else { 0.0 }
    }

    #[test]
    fn first_week_is_warm_up() {
        let mut d = Tsd::new(2, false, 3600);
        for i in 0..168 {
            let ts = i * 3600;
            assert_eq!(d.observe(ts, Some(weekly_pattern(ts))), None, "slot {i}");
        }
    }

    #[test]
    fn regular_pattern_scores_low_anomaly_scores_high() {
        let mut d = Tsd::new(2, false, 3600);
        // Three clean weeks to build history and residual spread.
        let mut last_normal = None;
        for i in 0..(168 * 3) {
            let ts = i * 3600;
            last_normal = d.observe(ts, Some(weekly_pattern(ts)));
        }
        let normal_sev = last_normal.unwrap();
        // A big spike at the next point.
        let ts = 168 * 3 * 3600;
        let spike_sev = d.observe(ts, Some(weekly_pattern(ts) + 500.0)).unwrap();
        assert!(
            spike_sev > 20.0 * (normal_sev + 1.0),
            "{spike_sev} vs {normal_sev}"
        );
    }

    #[test]
    fn mad_variant_resists_outlier_contamination() {
        // Feed a clean pattern with a dirty stretch; afterwards both
        // variants see the same new spike, but the MAD spread is tighter.
        let mut plain = Tsd::new(3, false, 3600);
        let mut robust = Tsd::new(3, true, 3600);
        for i in 0..(168 * 3) {
            let ts = i * 3600;
            let mut v = weekly_pattern(ts);
            // Contaminate ~2% of points with huge outliers.
            if i % 50 == 0 {
                v += 2000.0;
            }
            plain.observe(ts, Some(v));
            robust.observe(ts, Some(v));
        }
        let ts = 168 * 3 * 3600;
        let spike = weekly_pattern(ts) + 300.0;
        let s_plain = plain.observe(ts, Some(spike)).unwrap();
        let s_robust = robust.observe(ts, Some(spike)).unwrap();
        assert!(s_robust > 2.0 * s_plain, "MAD {s_robust} vs std {s_plain}");
    }

    #[test]
    fn missing_points_are_skipped() {
        let mut d = Tsd::new(1, false, 3600);
        for i in 0..200 {
            let ts = i * 3600;
            if i % 7 == 3 {
                assert_eq!(d.observe(ts, None), None);
            } else {
                d.observe(ts, Some(weekly_pattern(ts)));
            }
        }
        // Still works after gaps.
        let ts = 200 * 3600;
        assert!(d.observe(ts, Some(weekly_pattern(ts))).is_some());
    }

    #[test]
    fn window_caps_history_at_weeks() {
        let mut d = Tsd::new(2, false, 3600);
        // Feed 5 weeks; each slot must hold at most 2 entries.
        for i in 0..(168 * 5) {
            let ts = i * 3600;
            d.observe(ts, Some(weekly_pattern(ts)));
        }
        assert!(d.per_slot.iter().all(|h| h.len() <= 2));
    }

    #[test]
    #[should_panic(expected = "weeks must be positive")]
    fn zero_weeks_rejected() {
        let _ = Tsd::new(0, false, 60);
    }
}
