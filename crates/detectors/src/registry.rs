//! The detector registry: Table 3's 14 detectors / 133 configurations.
//!
//! §4.3.3's sampling strategies are encoded verbatim: intuitive parameters
//! are swept on coarse grids ("we only need a set of good enough features"),
//! while ARIMA estimates its parameters from data. §5.2: "In total, we have
//! 14 detectors and 133 configurations, or 133 features for random forests."

use crate::arima::ArimaDetector;
use crate::diff::{Diff, DiffLag};
use crate::ewma::EwmaDetector;
use crate::historical::HistoricalAverage;
use crate::holt_winters::HoltWintersDetector;
use crate::ma::{MaOfDiff, SimpleMa, WeightedMa};
use crate::simple_threshold::SimpleThreshold;
use crate::svd::SvdDetector;
use crate::tsd::Tsd;
use crate::wavelet::{Band, WaveletDetector};
use crate::Detector;

/// Machine-readable family + parameters of one configuration.
///
/// This is what the config-fused extraction engine (`fused::plan`) keys on
/// to group adjacent same-family configurations into one
/// structure-of-arrays kernel. Families without a fused kernel — and any
/// detector added outside this registry — use [`DetectorSpec::Opaque`] and
/// run through their boxed [`Detector`] unchanged.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DetectorSpec {
    /// Simple threshold (stateless).
    SimpleThreshold,
    /// Diff against last slot / day / week.
    Diff {
        /// Which reference point the difference is taken against.
        lag: DiffLag,
        /// Sampling interval in seconds.
        interval: u32,
    },
    /// Simple moving average.
    SimpleMa {
        /// Window length in points.
        win: usize,
    },
    /// Linearly weighted moving average.
    WeightedMa {
        /// Window length in points.
        win: usize,
    },
    /// Moving average of successive absolute differences.
    MaOfDiff {
        /// Window length in diffs.
        win: usize,
    },
    /// EWMA prediction detector.
    Ewma {
        /// Smoothing constant in `[0, 1]`.
        alpha: f64,
    },
    /// Time-series decomposition (weekly seasonal baseline).
    Tsd {
        /// Seasonal memory in weeks.
        weeks: usize,
        /// `true` selects the median/MAD variant.
        robust: bool,
        /// Sampling interval in seconds.
        interval: u32,
    },
    /// Historical average over same-time-of-day samples.
    Historical {
        /// Seasonal memory in weeks (`7 * weeks` samples per slot).
        weeks: usize,
        /// `true` selects the median/MAD variant.
        robust: bool,
        /// Sampling interval in seconds.
        interval: u32,
    },
    /// Additive Holt–Winters with a daily season.
    HoltWinters {
        /// Level smoothing constant.
        alpha: f64,
        /// Trend smoothing constant.
        beta: f64,
        /// Seasonal smoothing constant.
        gamma: f64,
        /// Sampling interval in seconds.
        interval: u32,
    },
    /// SVD rank-1 residual over a `rows × cols` lag matrix.
    Svd {
        /// Rows (segment length in points), at least 2.
        rows: usize,
        /// Columns (segments): 2 to [`crate::svd::MAX_COLS`] (8), the
        /// widths the fused kernel has packs for; the registry uses 3, 5
        /// and 7.
        cols: usize,
    },
    /// One frequency band of the wavelet filter bank.
    Wavelet {
        /// Long-window length in days.
        win_days: usize,
        /// Which band the configuration scores.
        band: Band,
        /// Sampling interval in seconds.
        interval: u32,
    },
    /// No fused kernel: the boxed detector runs as-is (ARIMA, extension
    /// detectors).
    Opaque,
}

/// One entry of the registry: a ready-to-run detector configuration.
pub struct ConfiguredDetector {
    /// Stable feature index (0..132) — column in the feature matrix.
    pub index: usize,
    /// Family + parameters, for the fused extraction engine. Must describe
    /// `detector` exactly: the fused path rebuilds the family's state from
    /// the spec, so a spec that disagrees with the boxed detector would
    /// silently change severities. Use [`DetectorSpec::Opaque`] when in
    /// doubt — it is always correct, only slower.
    pub spec: DetectorSpec,
    /// The boxed detector, fresh (no state).
    pub detector: Box<dyn Detector>,
}

impl Clone for ConfiguredDetector {
    /// Deep-copies the detector state (see [`Detector::clone_box`]); the
    /// clone's severity stream continues exactly where the original's was.
    fn clone(&self) -> Self {
        Self {
            index: self.index,
            spec: self.spec,
            detector: self.detector.clone_box(),
        }
    }
}

impl ConfiguredDetector {
    /// `"<name> (<params>)"` — e.g. `"TSD MAD (win=5 week(s))"`.
    pub fn label(&self) -> String {
        format!("{} ({})", self.detector.name(), self.detector.config())
    }

    /// [`Detector::observe`] with the framework severity clamp applied —
    /// the single choke point every unfused extraction path goes through,
    /// so they cannot drift.
    pub fn observe_clamped(&mut self, timestamp: i64, value: Option<f64>) -> Option<f64> {
        crate::clamp_severity(self.detector.observe(timestamp, value))
    }
}

/// The number of configurations Table 3 commits to.
pub const CONFIG_COUNT: usize = 133;

/// Builds the full Table 3 registry for a KPI sampled at `interval`
/// seconds. Order is deterministic; indices are stable across calls.
///
/// # Panics
///
/// Panics if `interval` does not divide a day or leaves fewer than two
/// points per day ([`opprentice_timeseries::is_supported_interval`]).
pub fn registry(interval: u32) -> Vec<ConfiguredDetector> {
    assert!(
        opprentice_timeseries::is_supported_interval(interval),
        "unsupported interval {interval} s: it must divide 86400 and leave at least 2 points per day"
    );
    let mut out: Vec<(DetectorSpec, Box<dyn Detector>)> = Vec::with_capacity(CONFIG_COUNT);
    let mut push = |spec: DetectorSpec, d: Box<dyn Detector>| out.push((spec, d));

    // Simple threshold [24] — 1 configuration.
    push(
        DetectorSpec::SimpleThreshold,
        Box::new(SimpleThreshold::new()),
    );

    // Diff — last-slot, last-day, last-week.
    for lag in [DiffLag::LastSlot, DiffLag::LastDay, DiffLag::LastWeek] {
        push(
            DetectorSpec::Diff { lag, interval },
            Box::new(Diff::new(lag, interval)),
        );
    }

    // Simple MA [4], weighted MA [11], MA of diff — win = 10..50 points.
    for win in [10usize, 20, 30, 40, 50] {
        push(DetectorSpec::SimpleMa { win }, Box::new(SimpleMa::new(win)));
    }
    for win in [10usize, 20, 30, 40, 50] {
        push(
            DetectorSpec::WeightedMa { win },
            Box::new(WeightedMa::new(win)),
        );
    }
    for win in [10usize, 20, 30, 40, 50] {
        push(DetectorSpec::MaOfDiff { win }, Box::new(MaOfDiff::new(win)));
    }

    // EWMA [11] — alpha = 0.1, 0.3, 0.5, 0.7, 0.9.
    for alpha in [0.1, 0.3, 0.5, 0.7, 0.9] {
        push(
            DetectorSpec::Ewma { alpha },
            Box::new(EwmaDetector::new(alpha)),
        );
    }

    // TSD [1] and TSD MAD — win = 1..5 weeks.
    for robust in [false, true] {
        for weeks in 1..=5usize {
            push(
                DetectorSpec::Tsd {
                    weeks,
                    robust,
                    interval,
                },
                Box::new(Tsd::new(weeks, robust, interval)),
            );
        }
    }

    // Historical average [5] and historical MAD — win = 1..5 weeks.
    for robust in [false, true] {
        for weeks in 1..=5usize {
            push(
                DetectorSpec::Historical {
                    weeks,
                    robust,
                    interval,
                },
                Box::new(HistoricalAverage::new(weeks, robust, interval)),
            );
        }
    }

    // Holt–Winters [6] — alpha, beta, gamma in {0.2, 0.4, 0.6, 0.8}³ = 64.
    let grid = [0.2, 0.4, 0.6, 0.8];
    for alpha in grid {
        for beta in grid {
            for gamma in grid {
                push(
                    DetectorSpec::HoltWinters {
                        alpha,
                        beta,
                        gamma,
                        interval,
                    },
                    Box::new(HoltWintersDetector::new(alpha, beta, gamma, interval)),
                );
            }
        }
    }

    // SVD [7] — row = 10..50 points, column = 3, 5, 7 → 15.
    for rows in [10usize, 20, 30, 40, 50] {
        for cols in [3usize, 5, 7] {
            push(
                DetectorSpec::Svd { rows, cols },
                Box::new(SvdDetector::new(rows, cols)),
            );
        }
    }

    // Wavelet [12] — win = 3, 5, 7 days × low/mid/high → 9.
    for win_days in [3usize, 5, 7] {
        for band in [Band::Low, Band::Mid, Band::High] {
            push(
                DetectorSpec::Wavelet {
                    win_days,
                    band,
                    interval,
                },
                Box::new(WaveletDetector::new(win_days, band, interval)),
            );
        }
    }

    // ARIMA [10] — one configuration, estimated from data.
    push(DetectorSpec::Opaque, Box::new(ArimaDetector::new(interval)));

    debug_assert_eq!(out.len(), CONFIG_COUNT);
    out.into_iter()
        .enumerate()
        .map(|(index, (spec, detector))| ConfiguredDetector {
            index,
            spec,
            detector,
        })
        .collect()
}

/// The labels of all 133 configurations, in registry order.
pub fn config_labels(interval: u32) -> Vec<String> {
    registry(interval)
        .iter()
        .map(ConfiguredDetector::label)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    #[test]
    fn exactly_133_configurations() {
        assert_eq!(registry(60).len(), CONFIG_COUNT);
        assert_eq!(registry(3600).len(), CONFIG_COUNT);
    }

    #[test]
    fn table3_per_detector_counts() {
        let mut counts: HashMap<&'static str, usize> = HashMap::new();
        for c in registry(60) {
            *counts.entry(c.detector.name()).or_default() += 1;
        }
        let expected = [
            ("simple threshold", 1),
            ("diff", 3),
            ("simple MA", 5),
            ("weighted MA", 5),
            ("MA of diff", 5),
            ("EWMA", 5),
            ("TSD", 5),
            ("TSD MAD", 5),
            ("historical average", 5),
            ("historical MAD", 5),
            ("Holt-Winters", 64),
            ("SVD", 15),
            ("wavelet", 9),
            ("ARIMA", 1),
        ];
        assert_eq!(counts.len(), 14, "14 basic detectors");
        for (name, n) in expected {
            assert_eq!(counts.get(name), Some(&n), "{name}");
        }
    }

    #[test]
    fn labels_are_unique() {
        let labels = config_labels(60);
        let mut dedup = labels.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), labels.len(), "duplicate labels");
    }

    #[test]
    fn indices_are_stable_and_sequential() {
        let reg = registry(300);
        for (i, c) in reg.iter().enumerate() {
            assert_eq!(c.index, i);
        }
    }

    #[test]
    fn cloned_registry_entries_continue_identically() {
        let mut reg = registry(3600);
        for i in 0..(24 * 2) {
            let ts = i * 3600;
            for c in reg.iter_mut() {
                let _ = c.detector.observe(ts, Some(100.0 + (i % 24) as f64));
            }
        }
        let mut clones: Vec<ConfiguredDetector> = reg.iter().map(Clone::clone).collect();
        for i in (24 * 2)..(24 * 3) {
            let ts = i * 3600;
            let v = if i % 10 == 5 {
                None
            } else {
                Some(100.0 + (i % 24) as f64)
            };
            for (c, k) in reg.iter_mut().zip(clones.iter_mut()) {
                let a = c.detector.observe(ts, v);
                let b = k.detector.observe(ts, v);
                assert_eq!(
                    a.map(f64::to_bits),
                    b.map(f64::to_bits),
                    "{} point {i}",
                    c.label()
                );
            }
        }
    }

    #[test]
    fn all_detectors_accept_points_without_panicking() {
        // A short smoke run over every configuration at a coarse interval.
        let mut reg = registry(3600);
        for i in 0..(24 * 3) {
            let ts = i * 3600;
            let v = if i % 11 == 0 {
                None
            } else {
                Some(100.0 + (i % 24) as f64)
            };
            for c in reg.iter_mut() {
                if let Some(s) = c.detector.observe(ts, v) {
                    assert!(
                        s.is_finite() && s >= 0.0,
                        "{}: bad severity {s}",
                        c.detector.name()
                    );
                }
            }
        }
    }
}
