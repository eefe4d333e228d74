//! The detector registry: Table 3's 14 detectors / 133 configurations.
//!
//! §4.3.3's sampling strategies are encoded verbatim: intuitive parameters
//! are swept on coarse grids ("we only need a set of good enough features"),
//! while ARIMA estimates its parameters from data. §5.2: "In total, we have
//! 14 detectors and 133 configurations, or 133 features for random forests."

use crate::arima::ArimaDetector;
use crate::diff::{Diff, DiffLag};
use crate::ewma::EwmaDetector;
use crate::extensions::{Cusum, SeasonalEsd, SlidingPercentile};
use crate::historical::HistoricalAverage;
use crate::holt_winters::HoltWintersDetector;
use crate::ma::{MaOfDiff, SimpleMa, WeightedMa};
use crate::simple_threshold::SimpleThreshold;
use crate::svd::SvdDetector;
use crate::tsd::Tsd;
use crate::wavelet::{Band, WaveletDetector};
use crate::Detector;

/// One configuration: a detector family plus its sampled parameters
/// (§4.3.1), and the only description of it the crate keeps.
///
/// The config-fused extraction engine ([`crate::fused::plan`]) builds its
/// kernels from specs, [`DetectorSpec::detector`] builds the scalar
/// detector where nothing is fused (and for the test oracles), and
/// [`DetectorSpec::label`] names the feature column. A spec holds no
/// state, so it can be copied, reordered and rebuilt freely.
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
    /// Self-tuning ARIMA: the order is estimated from the data at run
    /// time, so the spec carries only the interval.
    Arima {
        /// Sampling interval in seconds.
        interval: u32,
    },
    /// Two-sided CUSUM (extension, [`Cusum`]).
    Cusum {
        /// Slack in σ absorbed before accumulation.
        k: f64,
        /// Baseline window in points.
        win: usize,
    },
    /// Sliding-percentile band (extension, [`SlidingPercentile`]).
    SlidingPercentile {
        /// Band quantile, in `(0, 0.5)`.
        q: f64,
        /// Window in points.
        win: usize,
    },
    /// Seasonal ESD on per-slot residuals (extension, [`SeasonalEsd`]).
    SeasonalEsd {
        /// Seasonal memory in days.
        days: usize,
        /// Sampling interval in seconds.
        interval: u32,
    },
}

impl DetectorSpec {
    /// Builds the configuration's scalar detector, fresh (no state). The
    /// extraction engine calls this only for the families it does not
    /// fuse (simple threshold, ARIMA, extensions); for the rest it is the
    /// reference oracle the fused kernels are tested against.
    pub fn detector(&self) -> Box<dyn Detector> {
        match *self {
            DetectorSpec::SimpleThreshold => Box::new(SimpleThreshold::new()),
            DetectorSpec::Diff { lag, interval } => Box::new(Diff::new(lag, interval)),
            DetectorSpec::SimpleMa { win } => Box::new(SimpleMa::new(win)),
            DetectorSpec::WeightedMa { win } => Box::new(WeightedMa::new(win)),
            DetectorSpec::MaOfDiff { win } => Box::new(MaOfDiff::new(win)),
            DetectorSpec::Ewma { alpha } => Box::new(EwmaDetector::new(alpha)),
            DetectorSpec::Tsd {
                weeks,
                robust,
                interval,
            } => Box::new(Tsd::new(weeks, robust, interval)),
            DetectorSpec::Historical {
                weeks,
                robust,
                interval,
            } => Box::new(HistoricalAverage::new(weeks, robust, interval)),
            DetectorSpec::HoltWinters {
                alpha,
                beta,
                gamma,
                interval,
            } => Box::new(HoltWintersDetector::new(alpha, beta, gamma, interval)),
            DetectorSpec::Svd { rows, cols } => Box::new(SvdDetector::new(rows, cols)),
            DetectorSpec::Wavelet {
                win_days,
                band,
                interval,
            } => Box::new(WaveletDetector::new(win_days, band, interval)),
            DetectorSpec::Arima { interval } => Box::new(ArimaDetector::new(interval)),
            DetectorSpec::Cusum { k, win } => Box::new(Cusum::new(k, win)),
            DetectorSpec::SlidingPercentile { q, win } => Box::new(SlidingPercentile::new(q, win)),
            DetectorSpec::SeasonalEsd { days, interval } => {
                Box::new(SeasonalEsd::new(days, interval))
            }
        }
    }

    /// The detector family name, e.g. `"TSD MAD"`.
    pub fn name(&self) -> &'static str {
        match *self {
            DetectorSpec::SimpleThreshold => "simple threshold",
            DetectorSpec::Diff { .. } => "diff",
            DetectorSpec::SimpleMa { .. } => "simple MA",
            DetectorSpec::WeightedMa { .. } => "weighted MA",
            DetectorSpec::MaOfDiff { .. } => "MA of diff",
            DetectorSpec::Ewma { .. } => "EWMA",
            DetectorSpec::Tsd { robust: false, .. } => "TSD",
            DetectorSpec::Tsd { robust: true, .. } => "TSD MAD",
            DetectorSpec::Historical { robust: false, .. } => "historical average",
            DetectorSpec::Historical { robust: true, .. } => "historical MAD",
            DetectorSpec::HoltWinters { .. } => "Holt-Winters",
            DetectorSpec::Svd { .. } => "SVD",
            DetectorSpec::Wavelet { .. } => "wavelet",
            DetectorSpec::Arima { .. } => "ARIMA",
            DetectorSpec::Cusum { .. } => "CUSUM",
            DetectorSpec::SlidingPercentile { .. } => "sliding percentile",
            DetectorSpec::SeasonalEsd { .. } => "seasonal ESD",
        }
    }

    /// Human-readable parameter text, e.g. `"win=3 week(s)"`. ARIMA's
    /// order is only known once the detector has fitted it, so its spec
    /// reads `"estimated (pending)"`.
    pub fn params(&self) -> String {
        match *self {
            DetectorSpec::SimpleThreshold => "none".to_string(),
            DetectorSpec::Diff { lag, .. } => lag.label().to_string(),
            DetectorSpec::SimpleMa { win }
            | DetectorSpec::WeightedMa { win }
            | DetectorSpec::MaOfDiff { win } => format!("win={win} points"),
            DetectorSpec::Ewma { alpha } => format!("alpha={alpha}"),
            DetectorSpec::Tsd { weeks, .. } | DetectorSpec::Historical { weeks, .. } => {
                format!("win={weeks} week(s)")
            }
            DetectorSpec::HoltWinters {
                alpha, beta, gamma, ..
            } => format!("alpha={alpha},beta={beta},gamma={gamma}"),
            DetectorSpec::Svd { rows, cols } => format!("row={rows},column={cols}"),
            DetectorSpec::Wavelet { win_days, band, .. } => {
                format!("win={win_days} days,freq={}", band.label())
            }
            DetectorSpec::Arima { .. } => "estimated (pending)".to_string(),
            DetectorSpec::Cusum { k, win } => format!("k={k},win={win} points"),
            DetectorSpec::SlidingPercentile { q, win } => format!("q={q},win={win} points"),
            DetectorSpec::SeasonalEsd { days, .. } => format!("days={days}"),
        }
    }

    /// `"<name> (<params>)"` — e.g. `"TSD MAD (win=5 week(s))"`, the
    /// feature column's label.
    pub fn label(&self) -> String {
        format!("{} ({})", self.name(), self.params())
    }
}

/// The number of configurations Table 3 commits to.
pub const CONFIG_COUNT: usize = 133;

/// Builds the full Table 3 registry for a KPI sampled at `interval`
/// seconds. Order is deterministic: a configuration's position is its
/// feature column.
///
/// # Panics
///
/// Panics if `interval` does not divide a day or leaves fewer than two
/// points per day ([`opprentice_timeseries::is_supported_interval`]).
pub fn registry(interval: u32) -> Vec<DetectorSpec> {
    assert!(
        opprentice_timeseries::is_supported_interval(interval),
        "unsupported interval {interval} s: it must divide 86400 and leave at least 2 points per day"
    );
    let mut out = Vec::with_capacity(CONFIG_COUNT);

    // Simple threshold [24] — 1 configuration.
    out.push(DetectorSpec::SimpleThreshold);

    // Diff — last-slot, last-day, last-week.
    for lag in [DiffLag::LastSlot, DiffLag::LastDay, DiffLag::LastWeek] {
        out.push(DetectorSpec::Diff { lag, interval });
    }

    // Simple MA [4], weighted MA [11], MA of diff — win = 10..50 points.
    let wins = [10usize, 20, 30, 40, 50];
    out.extend(wins.map(|win| DetectorSpec::SimpleMa { win }));
    out.extend(wins.map(|win| DetectorSpec::WeightedMa { win }));
    out.extend(wins.map(|win| DetectorSpec::MaOfDiff { win }));

    // EWMA [11] — alpha = 0.1, 0.3, 0.5, 0.7, 0.9.
    out.extend([0.1, 0.3, 0.5, 0.7, 0.9].map(|alpha| DetectorSpec::Ewma { alpha }));

    // TSD [1] and TSD MAD — win = 1..5 weeks; historical average [5] and
    // historical MAD likewise.
    for robust in [false, true] {
        out.extend((1..=5usize).map(|weeks| DetectorSpec::Tsd {
            weeks,
            robust,
            interval,
        }));
    }
    for robust in [false, true] {
        out.extend((1..=5usize).map(|weeks| DetectorSpec::Historical {
            weeks,
            robust,
            interval,
        }));
    }

    // Holt–Winters [6] — alpha, beta, gamma in {0.2, 0.4, 0.6, 0.8}³ = 64.
    let grid = [0.2, 0.4, 0.6, 0.8];
    for alpha in grid {
        for beta in grid {
            for gamma in grid {
                out.push(DetectorSpec::HoltWinters {
                    alpha,
                    beta,
                    gamma,
                    interval,
                });
            }
        }
    }

    // SVD [7] — row = 10..50 points, column = 3, 5, 7 → 15.
    for rows in [10usize, 20, 30, 40, 50] {
        for cols in [3usize, 5, 7] {
            out.push(DetectorSpec::Svd { rows, cols });
        }
    }

    // Wavelet [12] — win = 3, 5, 7 days × low/mid/high → 9.
    for win_days in [3usize, 5, 7] {
        for band in [Band::Low, Band::Mid, Band::High] {
            out.push(DetectorSpec::Wavelet {
                win_days,
                band,
                interval,
            });
        }
    }

    // ARIMA [10] — one configuration, estimated from data.
    out.push(DetectorSpec::Arima { interval });

    debug_assert_eq!(out.len(), CONFIG_COUNT);
    out
}

/// The labels of all 133 configurations, in registry order.
pub fn config_labels(interval: u32) -> Vec<String> {
    registry(interval).iter().map(DetectorSpec::label).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extensions::extended_registry;
    use std::collections::HashMap;

    #[test]
    fn exactly_133_configurations() {
        assert_eq!(registry(60).len(), CONFIG_COUNT);
        assert_eq!(registry(3600).len(), CONFIG_COUNT);
    }

    #[test]
    fn table3_per_detector_counts() {
        let mut counts: HashMap<&'static str, usize> = HashMap::new();
        for spec in registry(60) {
            *counts.entry(spec.name()).or_default() += 1;
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

    /// The feature labels are the column names of every trained model and
    /// of the bench outputs, so their text is pinned: one exact label per
    /// family (the 14 of Table 3 and the 3 extensions) ...
    #[test]
    fn one_label_per_family_is_pinned() {
        let labels = extended_registry(60)
            .iter()
            .map(DetectorSpec::label)
            .collect::<Vec<_>>();
        let expected = [
            (0, "simple threshold (none)"),
            (2, "diff (last-day)"),
            (4, "simple MA (win=10 points)"),
            (10, "weighted MA (win=20 points)"),
            (18, "MA of diff (win=50 points)"),
            (20, "EWMA (alpha=0.3)"),
            (26, "TSD (win=3 week(s))"),
            (33, "TSD MAD (win=5 week(s))"),
            (34, "historical average (win=1 week(s))"),
            (42, "historical MAD (win=4 week(s))"),
            (51, "Holt-Winters (alpha=0.2,beta=0.4,gamma=0.8)"),
            (114, "SVD (row=30,column=3)"),
            (129, "wavelet (win=7 days,freq=low)"),
            (132, "ARIMA (estimated (pending))"),
            (135, "CUSUM (k=1,win=60 points)"),
            (138, "sliding percentile (q=0.01,win=480 points)"),
            (142, "seasonal ESD (days=14)"),
        ];
        for (column, label) in expected {
            assert_eq!(labels[column], label, "column {column}");
        }
    }

    /// ... and every label list as a whole, by its FNV-1a hash (each label
    /// followed by a newline).
    #[test]
    fn label_lists_hash_to_their_pinned_values() {
        let hash = |specs: Vec<DetectorSpec>| {
            let mut h = 0xcbf2_9ce4_8422_2325u64;
            for spec in specs {
                for b in spec.label().bytes().chain([b'\n']) {
                    h = (h ^ u64::from(b)).wrapping_mul(0x100_0000_01b3);
                }
            }
            h
        };
        for interval in [60, 300, 3600] {
            assert_eq!(
                hash(registry(interval)),
                0x7117_cfb3_cb94_8dfb,
                "{interval} s"
            );
        }
        assert_eq!(hash(extended_registry(60)), 0x83e5_1c66_cbc5_cc69);
    }

    #[test]
    fn cloned_registry_entries_continue_identically() {
        let specs = registry(3600);
        let mut detectors: Vec<Box<dyn Detector>> =
            specs.iter().map(DetectorSpec::detector).collect();
        for i in 0..(24 * 2) {
            let ts = i * 3600;
            for d in detectors.iter_mut() {
                let _ = d.observe(ts, Some(100.0 + (i % 24) as f64));
            }
        }
        let mut clones = detectors.clone();
        for i in (24 * 2)..(24 * 3) {
            let ts = i * 3600;
            let v = if i % 10 == 5 {
                None
            } else {
                Some(100.0 + (i % 24) as f64)
            };
            for ((d, k), spec) in detectors.iter_mut().zip(clones.iter_mut()).zip(&specs) {
                let a = d.observe(ts, v);
                let b = k.observe(ts, v);
                assert_eq!(
                    a.map(f64::to_bits),
                    b.map(f64::to_bits),
                    "{} point {i}",
                    spec.label()
                );
            }
        }
    }

    #[test]
    fn all_detectors_accept_points_without_panicking() {
        // A short smoke run over every configuration at a coarse interval.
        let specs = registry(3600);
        let mut detectors: Vec<Box<dyn Detector>> =
            specs.iter().map(DetectorSpec::detector).collect();
        for i in 0..(24 * 3) {
            let ts = i * 3600;
            let v = if i % 11 == 0 {
                None
            } else {
                Some(100.0 + (i % 24) as f64)
            };
            for (d, spec) in detectors.iter_mut().zip(&specs) {
                if let Some(s) = d.observe(ts, v) {
                    assert!(
                        s.is_finite() && s >= 0.0,
                        "{}: bad severity {s}",
                        spec.name()
                    );
                }
            }
        }
    }
}
