//! The 14 basic anomaly detectors of the Opprentice paper, implemented as
//! *online severity extractors*.
//!
//! §4.3.1 gives the unified detector model this crate implements:
//!
//! ```text
//! data point --detector with parameters--> severity --sThld--> {1, 0}
//! ```
//!
//! A [`Detector`] consumes one `(timestamp, value)` pair at a time — never
//! looking at future data, per the online requirement of §4.3.2 — and emits
//! a non-negative *severity* measuring how anomalous the point looks from
//! its perspective. During a warm-up window (moving-average history, the
//! first seasons of Holt–Winters, …) it emits `None` and the framework
//! "skips the detection of the data in the warm-up window" (§4.3.2).
//!
//! In Opprentice the severities are **features**, not verdicts: §4.3.1
//! "a configuration acts as a feature extractor". The [`mod@registry`]
//! module describes the exact 133 configurations of Table 3 as
//! [`DetectorSpec`]s. A severity can still be turned into the traditional
//! binary verdict by comparing against an sThld — [`apply_sthld`] — which
//! is how the basic-detector baselines and the static combiners of §5.3.1
//! are evaluated.
//!
//! | Detector | configs | parameters (Table 3) |
//! |---|---|---|
//! | Simple threshold | 1 | none |
//! | Diff | 3 | last-slot, last-day, last-week |
//! | Simple MA | 5 | win = 10..50 points |
//! | Weighted MA | 5 | win = 10..50 points |
//! | MA of diff | 5 | win = 10..50 points |
//! | EWMA | 5 | α = 0.1..0.9 |
//! | TSD | 5 | win = 1..5 weeks |
//! | TSD MAD | 5 | win = 1..5 weeks |
//! | Historical average | 5 | win = 1..5 weeks |
//! | Historical MAD | 5 | win = 1..5 weeks |
//! | Holt–Winters | 64 | α, β, γ ∈ {0.2, 0.4, 0.6, 0.8} |
//! | SVD | 15 | row = 10..50, column = 3, 5, 7 |
//! | Wavelet | 9 | win = 3, 5, 7 days × low/mid/high |
//! | ARIMA | 1 | estimated from data |
//! | **total** | **133** | |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arima;
pub mod diff;
pub mod ewma;
pub mod extensions;
pub mod fused;
pub mod historical;
pub mod holt_winters;
pub mod ma;
pub mod registry;
pub mod simple_threshold;
pub mod svd;
pub mod tsd;
pub mod wavelet;

pub use registry::{registry, DetectorSpec};

/// An online anomaly-severity extractor (§4.3.1's unified detector model).
///
/// Implementations must be strictly causal: the severity of a point may
/// depend only on that point and earlier ones.
pub trait Detector: Send {
    /// Feeds the next point (in time order; `value` is `None` for a missing
    /// point) and returns its severity:
    ///
    /// * `Some(s)` with `s >= 0` — how anomalous the point looks,
    /// * `None` — no verdict (warm-up, or the point itself is missing).
    fn observe(&mut self, timestamp: i64, value: Option<f64>) -> Option<f64>;

    /// A boxed deep copy of this detector's current state. Clones continue
    /// independently: feeding both copies the same points yields identical
    /// severity streams (the clone-determinism contract behind snapshots
    /// and RESUME).
    fn clone_box(&self) -> Box<dyn Detector>;
}

impl Clone for Box<dyn Detector> {
    fn clone(&self) -> Self {
        self.clone_box()
    }
}

/// Upper bound applied to severities at the framework boundary.
///
/// Some swept configurations are genuinely unstable on some KPIs — e.g.
/// Holt–Winters with a small α and large β diverges on spiky series,
/// emitting astronomically large residuals. That instability is expected
/// (most of the 133 configurations are inaccurate on any given KPI, §5.3.1)
/// but severities beyond this bound carry no extra information and their
/// *squares* overflow `f64` in downstream statistics, so the extraction
/// layer clamps here.
pub const MAX_SEVERITY: f64 = 1e9;

/// Clamps a severity to `[0, MAX_SEVERITY]` (and `None` stays `None`).
pub fn clamp_severity(severity: Option<f64>) -> Option<f64> {
    severity.map(|s| s.clamp(0.0, MAX_SEVERITY))
}

/// Translates a severity into the traditional binary verdict by comparing
/// with a severity threshold (the paper's *sThld*). `None` (warm-up) maps
/// to "not anomalous", matching the skip rule of §4.3.2.
pub fn apply_sthld(severity: Option<f64>, sthld: f64) -> bool {
    severity.is_some_and(|s| s >= sthld)
}

/// Runs one detector over a whole series, producing one severity slot per
/// point. A convenience used by tests, examples and the feature extractor.
pub fn run_detector(
    detector: &mut dyn Detector,
    series: &opprentice_timeseries::TimeSeries,
) -> Vec<Option<f64>> {
    series
        .iter()
        .map(|(ts, v)| clamp_severity(detector.observe(ts, v)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clamp_severity_bounds() {
        assert_eq!(clamp_severity(None), None);
        assert_eq!(clamp_severity(Some(5.0)), Some(5.0));
        assert_eq!(clamp_severity(Some(1e30)), Some(MAX_SEVERITY));
        assert_eq!(clamp_severity(Some(f64::INFINITY)), Some(MAX_SEVERITY));
    }

    #[test]
    fn apply_sthld_semantics() {
        assert!(apply_sthld(Some(5.0), 3.0));
        assert!(apply_sthld(Some(3.0), 3.0));
        assert!(!apply_sthld(Some(1.0), 3.0));
        assert!(!apply_sthld(None, 0.0));
    }
}
