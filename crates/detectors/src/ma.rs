//! The moving-average family: simple MA \[4\], weighted MA \[11\] and
//! "MA of diff" — the second detector the studied search engine already ran
//! (§5.2), "designed to discover continuous jitters".
//!
//! All three are windowed, prediction-based detectors with
//! win ∈ {10, 20, 30, 40, 50} points (Table 3). Simple/weighted MA predict
//! the next value from the window and score |actual − forecast|; MA of diff
//! scores the average absolute slot-to-slot change, so a jittery stretch
//! scores high even when each individual change looks benign.

use crate::Detector;
use std::collections::VecDeque;

/// Simple moving average: severity = |v − mean(last `win` values)|.
#[derive(Debug, Clone)]
pub struct SimpleMa {
    win: usize,
    window: VecDeque<f64>,
    sum: f64,
}

impl SimpleMa {
    /// Creates a simple-MA detector with a window of `win` points.
    ///
    /// # Panics
    ///
    /// Panics if `win == 0`.
    pub fn new(win: usize) -> Self {
        assert!(win > 0, "window must be positive");
        Self {
            win,
            window: VecDeque::with_capacity(win),
            sum: 0.0,
        }
    }

    fn push(&mut self, v: f64) {
        self.window.push_back(v);
        self.sum += v;
        if self.window.len() > self.win {
            self.sum -= self.window.pop_front().expect("non-empty");
        }
    }
}

impl Detector for SimpleMa {
    fn observe(&mut self, _timestamp: i64, value: Option<f64>) -> Option<f64> {
        let v = value?;
        let severity = (self.window.len() == self.win).then(|| {
            let pred = self.sum / self.win as f64;
            (v - pred).abs()
        });
        self.push(v);
        severity
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }
}

/// Linearly weighted moving average: recent points weigh more.
/// Severity = |v − Σ w_i x_i / Σ w_i| with w = 1..=win (newest = win).
#[derive(Debug, Clone)]
pub struct WeightedMa {
    win: usize,
    window: VecDeque<f64>,
}

impl WeightedMa {
    /// Creates a weighted-MA detector with a window of `win` points.
    ///
    /// # Panics
    ///
    /// Panics if `win == 0`.
    pub fn new(win: usize) -> Self {
        assert!(win > 0, "window must be positive");
        Self {
            win,
            window: VecDeque::with_capacity(win),
        }
    }

    fn prediction(&self) -> f64 {
        let mut num = 0.0;
        let mut den = 0.0;
        for (i, &x) in self.window.iter().enumerate() {
            let w = (i + 1) as f64; // oldest gets 1, newest gets win
            num += w * x;
            den += w;
        }
        num / den
    }
}

impl Detector for WeightedMa {
    fn observe(&mut self, _timestamp: i64, value: Option<f64>) -> Option<f64> {
        let v = value?;
        let severity = (self.window.len() == self.win).then(|| (v - self.prediction()).abs());
        self.window.push_back(v);
        if self.window.len() > self.win {
            self.window.pop_front();
        }
        severity
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }
}

/// Moving average of |v(t) − v(t−1)|: the jitter detector. The current
/// point's own change is included, so a jitter burst raises the severity
/// immediately and keeps it raised for the window's duration.
#[derive(Debug, Clone)]
pub struct MaOfDiff {
    win: usize,
    prev: Option<f64>,
    diffs: VecDeque<f64>,
    sum: f64,
}

impl MaOfDiff {
    /// Creates an MA-of-diff detector over `win` successive differences.
    ///
    /// # Panics
    ///
    /// Panics if `win == 0`.
    pub fn new(win: usize) -> Self {
        assert!(win > 0, "window must be positive");
        Self {
            win,
            prev: None,
            diffs: VecDeque::with_capacity(win),
            sum: 0.0,
        }
    }
}

impl Detector for MaOfDiff {
    fn observe(&mut self, _timestamp: i64, value: Option<f64>) -> Option<f64> {
        let Some(v) = value else {
            // A gap breaks the "previous slot" chain; drop the stale diffs
            // so post-gap severities only reflect post-gap jitter.
            self.prev = None;
            self.diffs.clear();
            self.sum = 0.0;
            return None;
        };
        let severity = if let Some(p) = self.prev {
            let d = (v - p).abs();
            self.diffs.push_back(d);
            self.sum += d;
            if self.diffs.len() > self.win {
                self.sum -= self.diffs.pop_front().expect("non-empty");
            }
            (self.diffs.len() == self.win).then(|| self.sum / self.win as f64)
        } else {
            None
        };
        self.prev = Some(v);
        severity
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(det: &mut dyn Detector, values: &[f64]) -> Vec<Option<f64>> {
        values
            .iter()
            .enumerate()
            .map(|(i, &v)| det.observe(i as i64 * 60, Some(v)))
            .collect()
    }

    #[test]
    fn simple_ma_warms_up_then_predicts_mean() {
        let mut d = SimpleMa::new(3);
        let out = feed(&mut d, &[1.0, 2.0, 3.0, 10.0]);
        assert_eq!(out[0], None);
        assert_eq!(out[1], None);
        assert_eq!(out[2], None);
        // Window {1,2,3}: pred 2, severity |10-2| = 8.
        assert_eq!(out[3], Some(8.0));
    }

    #[test]
    fn simple_ma_window_slides() {
        let mut d = SimpleMa::new(2);
        let out = feed(&mut d, &[1.0, 3.0, 5.0, 5.0]);
        // Window {1,3}: pred 2, sev 3. Window {3,5}: pred 4, sev 1.
        assert_eq!(out[2], Some(3.0));
        assert_eq!(out[3], Some(1.0));
    }

    #[test]
    fn weighted_ma_weights_recent_points_more() {
        let mut d = WeightedMa::new(2);
        feed(&mut d, &[0.0, 10.0]);
        // Prediction = (1*0 + 2*10)/3 = 6.67 — closer to the recent point.
        let sev = d.observe(120, Some(6.0)).unwrap();
        assert!((sev - (6.0f64 - 20.0 / 3.0).abs()).abs() < 1e-12);
    }

    #[test]
    fn weighted_ma_constant_signal_zero_severity() {
        let mut d = WeightedMa::new(5);
        let out = feed(&mut d, &[4.0; 10]);
        for s in out.into_iter().flatten() {
            assert!(s.abs() < 1e-12);
        }
    }

    #[test]
    fn ma_of_diff_flags_jitter() {
        let mut d = MaOfDiff::new(4);
        // Smooth ramp: diffs of 1 => severity 1.
        let smooth = feed(&mut d, &[0.0, 1.0, 2.0, 3.0, 4.0, 5.0]);
        assert_eq!(smooth[5], Some(1.0));
        // Jitter: alternating ±10 => severity ~20.
        let mut d2 = MaOfDiff::new(4);
        let jitter = feed(&mut d2, &[0.0, 10.0, -10.0, 10.0, -10.0, 10.0]);
        assert_eq!(jitter[5], Some(20.0));
    }

    #[test]
    fn ma_of_diff_resets_across_gaps() {
        let mut d = MaOfDiff::new(2);
        d.observe(0, Some(1.0));
        d.observe(60, Some(2.0));
        d.observe(120, Some(3.0));
        assert!(d.observe(180, Some(4.0)).is_some());
        // Gap: the next diff would span the gap; it must not be computed.
        assert_eq!(d.observe(240, None), None);
        assert_eq!(d.observe(300, Some(100.0)), None);
        // Chain restarts from the post-gap point.
        let s = d.observe(360, Some(101.0));
        assert_eq!(s, None); // only one diff so far, window of 2 not full
    }

    #[test]
    fn missing_values_do_not_pollute_simple_ma() {
        let mut d = SimpleMa::new(2);
        d.observe(0, Some(1.0));
        assert_eq!(d.observe(60, None), None);
        d.observe(120, Some(3.0));
        // Window {1,3}: pred 2.
        assert_eq!(d.observe(180, Some(2.0)), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "window must be positive")]
    fn zero_window_rejected() {
        let _ = SimpleMa::new(0);
    }
}
