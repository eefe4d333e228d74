//! # Opprentice — Operators' apprentice
//!
//! A from-scratch Rust reproduction of *"Opprentice: Towards Practical and
//! Automatic Anomaly Detection Through Machine Learning"* (IMC 2015).
//!
//! Opprentice removes the classic deployment bottleneck of KPI anomaly
//! detection — manually selecting detectors and tuning their parameters and
//! thresholds. Instead:
//!
//! 1. **Operators only label anomalies** (in windows, with a convenient
//!    tool — here, `opprentice_datagen::SimulatedOperator` plays that
//!    role for synthetic data).
//! 2. **Existing detectors become feature extractors** (§4.3): the 133
//!    configurations of 14 detectors each emit a severity per point
//!    ([`features::extract_features`]).
//! 3. **A random forest learns the anomaly concept** from features plus
//!    labels (§4.4), retrained incrementally as new labels arrive.
//! 4. **The classification threshold (cThld) is auto-configured** to the
//!    operators' accuracy preference "recall ≥ R and precision ≥ P" using
//!    the PC-Score metric (§4.5.1) and predicted for future data with EWMA
//!    (§4.5.2).
//!
//! The crate exposes both the deployable pipeline ([`Opprentice`]) and the
//! paper's full evaluation machinery ([`evaluate`], [`combiners`],
//! [`strategy`]) used by `opprentice-bench` to regenerate every table and
//! figure.
//!
//! ## Quick start
//!
//! ```
//! use opprentice::{Opprentice, OpprenticeConfig, Preference};
//! use opprentice_timeseries::{Labels, TimeSeries};
//!
//! // A toy hourly KPI: two flat weeks, then live traffic.
//! let interval = 3600;
//! let mut history = TimeSeries::new(0, interval);
//! let mut labels = Labels::all_normal(0);
//! for i in 0..(24 * 21) {
//!     let v = 100.0 + 10.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin();
//!     let anomalous = i == 400 || i == 401; // a labeled spike
//!     history.push(if anomalous { v + 80.0 } else { v });
//!     labels.push(anomalous);
//! }
//!
//! let mut opp = Opprentice::new(interval, OpprenticeConfig {
//!     preference: Preference { recall: 0.66, precision: 0.66 },
//!     ..OpprenticeConfig::default()
//! });
//! opp.ingest_history(&history, &labels).expect("fresh pipeline accepts history");
//! opp.retrain();
//!
//! // Online detection: push points as they arrive.
//! let verdict = opp.observe(history.timestamp_at(history.len() - 1) + i64::from(interval), Some(500.0));
//! assert!(verdict.is_some());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod combiners;
pub mod cthld;
mod error;
pub mod evaluate;
pub mod features;
mod pipeline;
pub mod postprocess;
pub mod predictor;
pub mod snapshot;
pub mod strategy;

pub use cthld::{CthldMetric, Preference};
pub use error::PipelineError;
pub use features::{extract_features, FamilyStat, FeatureMatrix};
pub use pipeline::{Detection, Opprentice, OpprenticeConfig, RetrainError, TrainingReport};
pub use snapshot::{RecoveryError, SessionSnapshot, SnapshotError};
pub use strategy::TrainingStrategy;
