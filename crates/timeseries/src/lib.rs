//! KPI time-series containers for the Opprentice reproduction.
//!
//! The Opprentice paper (IMC 2015) works on *KPI data*: `(timestamp, value)`
//! pair time series with a fixed sampling interval, collected from sources
//! such as SNMP, syslogs and web access logs (§2.1). This crate provides the
//! data model everything else in the workspace is built on:
//!
//! * [`TimeSeries`] — a fixed-interval series with `NaN` encoding missing
//!   points ("dirty data" in §6 of the paper),
//! * [`Labels`] — per-point anomaly ground truth, convertible to and from
//!   the [`AnomalyWindow`]s that operators actually label with the tool of
//!   §4.2,
//! * calendar math ([`TimeSeries::points_per_day`], [`slot_of_day`],
//!   [`slot_of_week`]…) used by the seasonal detectors,
//! * summary statistics ([`stats`]) reproducing the Table 1 characteristics
//!   (coefficient of variation, seasonality strength).
//!
//! # Example
//!
//! ```
//! use opprentice_timeseries::{TimeSeries, Labels, AnomalyWindow};
//!
//! // A 1-minute KPI starting at epoch 0.
//! let mut ts = TimeSeries::new(0, 60);
//! for i in 0..1440 {
//!     ts.push((i % 60) as f64); // a toy hourly pattern
//! }
//! assert_eq!(ts.points_per_day(), 1440);
//!
//! // Operators label windows, not individual points (§4.2).
//! let labels = Labels::from_windows(ts.len(), &[AnomalyWindow::new(100, 110)]);
//! assert_eq!(labels.anomaly_count(), 10);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod labels;
mod series;
pub mod stats;

pub use labels::{AnomalyWindow, Labels};
pub use series::{
    is_supported_interval, slot_of_day, slot_of_week, TimeSeries, TimeSeriesIter, SECONDS_PER_DAY,
    SECONDS_PER_WEEK,
};
