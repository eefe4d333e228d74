//! Emerging detectors beyond Table 3 — the §8 extension point.
//!
//! "Emerging detectors, instead of going through time-consuming and often
//! frustrating parameter tuning, can be easily plugged into Opprentice."
//! This module demonstrates exactly that with three detectors that are
//! *not* part of the paper's registry (they postdate it or come from other
//! domains), each implementing the same online [`Detector`] model:
//!
//! * [`Cusum`] — the classic cumulative-sum change detector,
//! * [`SlidingPercentile`] — distributional extremeness over a trailing
//!   window (an order-statistics detector),
//! * [`SeasonalEsd`] — an extreme-studentized-deviate score on seasonal
//!   residuals (in the spirit of Twitter's S-H-ESD).
//!
//! `extended_registry` appends their sampled configurations to the standard
//! 133 — the `extension` bench binary shows the forest absorbing them with
//! zero manual tuning.

use crate::registry::{registry, DetectorSpec};
use crate::Detector;
use opprentice_numeric::stats;
use opprentice_timeseries::slot_of_day;
use std::collections::VecDeque;

/// Two-sided CUSUM change detector.
///
/// Tracks cumulative sums of standardized deviations from a running
/// baseline; severity is the larger of the upward/downward sums. `k` is
/// the slack (in σ) absorbed before accumulation starts.
#[derive(Debug, Clone)]
pub struct Cusum {
    k: f64,
    /// Running baseline statistics over a trailing window.
    window: VecDeque<f64>,
    win: usize,
    s_pos: f64,
    s_neg: f64,
}

impl Cusum {
    /// Creates a CUSUM detector with slack `k` sigmas and a baseline window
    /// of `win` points.
    ///
    /// # Panics
    ///
    /// Panics if `win < 8` or `k < 0`.
    pub fn new(k: f64, win: usize) -> Self {
        assert!(win >= 8, "baseline window too short");
        assert!(k >= 0.0, "slack must be non-negative");
        Self {
            k,
            window: VecDeque::with_capacity(win),
            win,
            s_pos: 0.0,
            s_neg: 0.0,
        }
    }
}

impl Detector for Cusum {
    fn observe(&mut self, _timestamp: i64, value: Option<f64>) -> Option<f64> {
        let v = value?;
        let severity = if self.window.len() >= self.win {
            let xs: Vec<f64> = self.window.iter().copied().collect();
            let mean = stats::mean(&xs).expect("non-empty");
            let sd = stats::std_dev(&xs)
                .unwrap_or(0.0)
                .max(1e-9 * (1.0 + mean.abs()));
            let z = (v - mean) / sd;
            self.s_pos = (self.s_pos + z - self.k).max(0.0);
            self.s_neg = (self.s_neg - z - self.k).max(0.0);
            Some(self.s_pos.max(self.s_neg))
        } else {
            None
        };
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

/// Order-statistics detector: how far outside the trailing window's
/// `[q, 1−q]` quantile band the point sits, in units of the interquartile
/// range.
#[derive(Debug, Clone)]
pub struct SlidingPercentile {
    q: f64,
    win: usize,
    window: VecDeque<f64>,
}

impl SlidingPercentile {
    /// Creates the detector with band quantile `q` (e.g. 0.01 for the
    /// 1%–99% band) over a trailing window of `win` points.
    ///
    /// # Panics
    ///
    /// Panics if `q` is outside `(0, 0.5)` or `win < 16`.
    pub fn new(q: f64, win: usize) -> Self {
        assert!(q > 0.0 && q < 0.5, "band quantile must be in (0, 0.5)");
        assert!(win >= 16, "window too short for quantiles");
        Self {
            q,
            win,
            window: VecDeque::with_capacity(win),
        }
    }
}

impl Detector for SlidingPercentile {
    fn observe(&mut self, _timestamp: i64, value: Option<f64>) -> Option<f64> {
        let v = value?;
        let severity = if self.window.len() >= self.win {
            let xs: Vec<f64> = self.window.iter().copied().collect();
            let lo = stats::quantile(&xs, self.q).expect("non-empty");
            let hi = stats::quantile(&xs, 1.0 - self.q).expect("non-empty");
            let iqr = (stats::quantile(&xs, 0.75).expect("non-empty")
                - stats::quantile(&xs, 0.25).expect("non-empty"))
            .max(1e-9 * (1.0 + hi.abs()));
            let outside = if v > hi {
                v - hi
            } else if v < lo {
                lo - v
            } else {
                0.0
            };
            Some(outside / iqr)
        } else {
            None
        };
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

/// Seasonal-ESD-style detector: removes a per-slot-of-day median baseline,
/// then scores the residual with the extreme-studentized-deviate statistic
/// (|residual − median| / MAD) over a trailing residual window.
#[derive(Debug, Clone)]
pub struct SeasonalEsd {
    interval: u32,
    days: usize,
    /// Per-slot-of-day history.
    per_slot: Vec<VecDeque<f64>>,
    residuals: VecDeque<f64>,
    residual_cap: usize,
}

impl SeasonalEsd {
    /// Creates the detector with a seasonal memory of `days` days at the
    /// given sampling interval.
    ///
    /// # Panics
    ///
    /// Panics if `days == 0`.
    pub fn new(days: usize, interval: u32) -> Self {
        assert!(days > 0, "days must be positive");
        let ppd = (86_400 / i64::from(interval)) as usize;
        Self {
            interval,
            days,
            per_slot: vec![VecDeque::new(); ppd],
            residuals: VecDeque::new(),
            residual_cap: ppd.max(64),
        }
    }
}

impl Detector for SeasonalEsd {
    fn observe(&mut self, timestamp: i64, value: Option<f64>) -> Option<f64> {
        let slot = slot_of_day(timestamp, self.interval);
        let v = value?;
        let severity = if self.per_slot[slot].len() >= 2 {
            let xs: Vec<f64> = self.per_slot[slot].iter().copied().collect();
            let baseline = stats::median(&xs).expect("non-empty");
            let residual = v - baseline;
            self.residuals.push_back(residual);
            if self.residuals.len() > self.residual_cap {
                self.residuals.pop_front();
            }
            if self.residuals.len() >= 16 {
                let rs: Vec<f64> = self.residuals.iter().copied().collect();
                let med = stats::median(&rs).expect("non-empty");
                let mad = stats::mad(&rs)
                    .unwrap_or(0.0)
                    .max(1e-9 * (1.0 + baseline.abs()));
                Some((residual - med).abs() / mad)
            } else {
                None
            }
        } else {
            None
        };
        let cap = self.days;
        let hist = &mut self.per_slot[slot];
        hist.push_back(v);
        if hist.len() > cap {
            hist.pop_front();
        }
        severity
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }
}

/// The standard 133 configurations plus sampled configurations of the three
/// extension detectors (coarse grids, §4.3.3 style — no tuning).
pub fn extended_registry(interval: u32) -> Vec<DetectorSpec> {
    let mut out = registry(interval);
    for k in [0.5, 1.0] {
        for win in [60usize, 240] {
            out.push(DetectorSpec::Cusum { k, win });
        }
    }
    for q in [0.01, 0.05] {
        for win in [120usize, 480] {
            out.push(DetectorSpec::SlidingPercentile { q, win });
        }
    }
    for days in [7usize, 14] {
        out.push(DetectorSpec::SeasonalEsd { days, interval });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(d: &mut dyn Detector, values: impl Iterator<Item = f64>) -> Vec<Option<f64>> {
        values
            .enumerate()
            .map(|(i, v)| d.observe(i as i64 * 3600, Some(v)))
            .collect()
    }

    #[test]
    fn cusum_accumulates_on_level_shift() {
        let mut d = Cusum::new(0.5, 24);
        let vals = (0..200).map(|i| if i < 150 { 100.0 } else { 110.0 });
        let out = feed(&mut d, vals);
        // Before the shift: near zero. Shortly after: large. Once the
        // sliding baseline has absorbed the new level: decaying back.
        let pre = out[140].unwrap();
        let post = out[165].unwrap();
        let adapted = out[199].unwrap();
        assert!(pre < 1.0, "pre {pre}");
        assert!(post > 5.0, "post {post}");
        assert!(
            adapted < post,
            "the sliding baseline should absorb the shift"
        );
    }

    #[test]
    fn cusum_detects_downward_shifts_too() {
        let mut d = Cusum::new(0.5, 24);
        let vals = (0..200).map(|i| if i < 150 { 100.0 } else { 90.0 });
        let out = feed(&mut d, vals);
        assert!(out[180].unwrap() > 5.0);
    }

    #[test]
    fn sliding_percentile_zero_inside_band() {
        let mut d = SlidingPercentile::new(0.05, 32);
        let vals = (0..100).map(|i| 100.0 + (i % 7) as f64);
        let out = feed(&mut d, vals);
        assert!(out[80].unwrap() < 0.5);
        // An extreme point scores high.
        let sev = d.observe(101 * 3600, Some(500.0)).unwrap();
        assert!(sev > 10.0, "sev {sev}");
    }

    #[test]
    fn seasonal_esd_uses_daily_baseline() {
        let mut d = SeasonalEsd::new(7, 3600);
        // Daily pattern: slot s has value 100 + 10 s. Feed 10 days.
        for i in 0..(24 * 10) {
            let slot = i % 24;
            let v = 100.0 + 10.0 * slot as f64 + ((i / 24) % 2) as f64;
            d.observe(i as i64 * 3600, Some(v));
        }
        // A normal next point (matches its slot) scores low...
        let ts = (24 * 10) as i64 * 3600;
        let normal = d.observe(ts, Some(100.0)).unwrap();
        // ...a point 50 above its slot baseline scores high.
        let spike = d.observe(ts + 3600, Some(100.0 + 10.0 + 50.0)).unwrap();
        assert!(spike > 5.0 * (normal + 1.0), "{spike} vs {normal}");
    }

    #[test]
    fn extended_registry_appends_ten_configs() {
        let ext = extended_registry(3600);
        assert_eq!(ext.len(), 143);
        assert_eq!(ext[..133], registry(3600)[..]);
        // Labels stay unique.
        let mut labels: Vec<String> = ext.iter().map(DetectorSpec::label).collect();
        labels.sort();
        labels.dedup();
        assert_eq!(labels.len(), 143);
    }

    #[test]
    fn extensions_respect_the_detector_contract() {
        for spec in &extended_registry(3600)[133..] {
            let mut d = spec.detector();
            // Missing input: no verdict.
            assert_eq!(d.observe(0, None), None, "{}", spec.name());
            // Severities finite and non-negative over a noisy run.
            for i in 0..600 {
                let v = 100.0 + ((i * 37) % 23) as f64;
                if let Some(s) = d.observe(i as i64 * 3600, Some(v)) {
                    assert!(s.is_finite() && s >= 0.0, "{}", spec.name());
                }
            }
        }
    }
}
