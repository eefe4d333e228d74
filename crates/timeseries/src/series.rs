//! The fixed-interval KPI time series container.

use serde::{Deserialize, Serialize};

/// Number of seconds in a day.
pub const SECONDS_PER_DAY: i64 = 86_400;
/// Number of seconds in a week.
pub const SECONDS_PER_WEEK: i64 = 7 * SECONDS_PER_DAY;

/// A fixed-interval `(timestamp, value)` time series — the paper's "KPI data".
///
/// Values are `f64`; a missing point ("dirty data", §6 of the paper) is
/// stored as `NaN` and surfaced through [`TimeSeries::get`] as `None`.
/// Timestamps are derived: point `i` is at `start + i * interval` seconds.
///
/// The container is append-only, matching the online setting of the paper:
/// new points arrive one interval at a time and are pushed at the end.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TimeSeries {
    start: i64,
    interval: u32,
    values: Vec<f64>,
}

/// Equality treats missing points (`NaN`) as equal to each other, so two
/// generated series with the same gaps compare equal (bitwise semantics).
impl PartialEq for TimeSeries {
    fn eq(&self, other: &Self) -> bool {
        self.start == other.start
            && self.interval == other.interval
            && self.values.len() == other.values.len()
            && self
                .values
                .iter()
                .zip(&other.values)
                .all(|(a, b)| a.to_bits() == b.to_bits() || a == b)
    }
}

impl TimeSeries {
    /// Creates an empty series whose first point will be at epoch second
    /// `start`, with `interval` seconds between consecutive points.
    ///
    /// # Panics
    ///
    /// Panics if `interval` is zero.
    pub fn new(start: i64, interval: u32) -> Self {
        assert!(interval > 0, "interval must be positive");
        Self {
            start,
            interval,
            values: Vec::new(),
        }
    }

    /// Creates a series from raw values (use `NaN` for missing points).
    pub fn from_values(start: i64, interval: u32, values: Vec<f64>) -> Self {
        assert!(interval > 0, "interval must be positive");
        Self {
            start,
            interval,
            values,
        }
    }

    /// Epoch second of the first point.
    pub fn start(&self) -> i64 {
        self.start
    }

    /// Seconds between consecutive points.
    pub fn interval(&self) -> u32 {
        self.interval
    }

    /// Number of points (including missing ones).
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// `true` if the series holds no points.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Appends the next point's value. Use [`TimeSeries::push_missing`] for a gap.
    pub fn push(&mut self, value: f64) {
        self.values.push(value);
    }

    /// Appends a missing point (stored as `NaN`).
    pub fn push_missing(&mut self) {
        self.values.push(f64::NAN);
    }

    /// The value at index `i`, or `None` if the point is missing.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn get(&self, i: usize) -> Option<f64> {
        let v = self.values[i];
        if v.is_nan() {
            None
        } else {
            Some(v)
        }
    }

    /// Raw value at index `i` (`NaN` for missing), or `None` out of bounds.
    pub fn raw(&self, i: usize) -> Option<f64> {
        self.values.get(i).copied()
    }

    /// `true` if the point at `i` is missing.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of bounds.
    pub fn is_missing(&self, i: usize) -> bool {
        self.values[i].is_nan()
    }

    /// Epoch second of the point at index `i`.
    pub fn timestamp_at(&self, i: usize) -> i64 {
        self.start + i as i64 * i64::from(self.interval)
    }

    /// Index of the point covering epoch second `ts`, or `None` if `ts`
    /// precedes the series start or lands past the last point.
    pub fn index_of(&self, ts: i64) -> Option<usize> {
        if ts < self.start {
            return None;
        }
        let idx = ((ts - self.start) / i64::from(self.interval)) as usize;
        (idx < self.len()).then_some(idx)
    }

    /// Points per day, e.g. 1440 for a 1-minute KPI, 24 for SRT's 60-minute
    /// interval (Table 1).
    pub fn points_per_day(&self) -> usize {
        (SECONDS_PER_DAY / i64::from(self.interval)) as usize
    }

    /// Points per week.
    pub fn points_per_week(&self) -> usize {
        (SECONDS_PER_WEEK / i64::from(self.interval)) as usize
    }

    /// Number of whole weeks currently held.
    pub fn whole_weeks(&self) -> usize {
        self.len() / self.points_per_week()
    }

    /// The values backing this series (`NaN` = missing).
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// A sub-series covering `range` (half-open index range). The slice keeps
    /// correct absolute timestamps.
    ///
    /// # Panics
    ///
    /// Panics if the range is out of bounds.
    pub fn slice(&self, range: std::ops::Range<usize>) -> TimeSeries {
        TimeSeries {
            start: self.timestamp_at(range.start),
            interval: self.interval,
            values: self.values[range].to_vec(),
        }
    }

    /// Iterator over `(timestamp, Option<value>)` pairs.
    pub fn iter(&self) -> TimeSeriesIter<'_> {
        TimeSeriesIter {
            series: self,
            idx: 0,
        }
    }

    /// Fraction of points that are missing.
    pub fn missing_ratio(&self) -> f64 {
        if self.is_empty() {
            return 0.0;
        }
        let missing = self.values.iter().filter(|v| v.is_nan()).count();
        missing as f64 / self.len() as f64
    }
}

/// Iterator over the `(timestamp, Option<value>)` pairs of a [`TimeSeries`].
#[derive(Debug)]
pub struct TimeSeriesIter<'a> {
    series: &'a TimeSeries,
    idx: usize,
}

impl Iterator for TimeSeriesIter<'_> {
    type Item = (i64, Option<f64>);

    fn next(&mut self) -> Option<Self::Item> {
        if self.idx >= self.series.len() {
            return None;
        }
        let item = (
            self.series.timestamp_at(self.idx),
            self.series.get(self.idx),
        );
        self.idx += 1;
        Some(item)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.series.len() - self.idx;
        (rem, Some(rem))
    }
}

impl<'a> IntoIterator for &'a TimeSeries {
    type Item = (i64, Option<f64>);
    type IntoIter = TimeSeriesIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// Slot of the day (0-based) for epoch second `ts` at a given interval —
/// e.g. minute-of-day for a 60-second interval. Used by detectors with daily
/// seasonal memory (historical average, Holt–Winters).
pub fn slot_of_day(ts: i64, interval: u32) -> usize {
    (ts.rem_euclid(SECONDS_PER_DAY) / i64::from(interval)) as usize
}

/// Whether the detectors can run at `interval` seconds: it must divide a
/// day exactly and leave at least two points per day.
///
/// The seasonal detectors size their per-slot state from the points per
/// day (or week) and index it with [`slot_of_day`] / [`slot_of_week`];
/// those slots stay below the state's length only when the interval tiles
/// the day exactly (at 7 s, `86_400 / 7` truncates to 12,342 while
/// `slot_of_day` reaches 12,342). Holt–Winters needs a season of at least
/// two points.
pub fn is_supported_interval(interval: u32) -> bool {
    interval > 0
        && SECONDS_PER_DAY % i64::from(interval) == 0
        && SECONDS_PER_DAY / i64::from(interval) >= 2
}

/// Slot of the week (0-based) for epoch second `ts` at a given interval.
/// Used by detectors with weekly seasonal memory (TSD, TSD MAD).
pub fn slot_of_week(ts: i64, interval: u32) -> usize {
    (ts.rem_euclid(SECONDS_PER_WEEK) / i64::from(interval)) as usize
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series_0_to_9() -> TimeSeries {
        TimeSeries::from_values(1000, 60, (0..10).map(f64::from).collect())
    }

    #[test]
    fn new_series_is_empty() {
        let ts = TimeSeries::new(0, 60);
        assert!(ts.is_empty());
        assert_eq!(ts.len(), 0);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        let _ = TimeSeries::new(0, 0);
    }

    #[test]
    fn push_and_get() {
        let mut ts = TimeSeries::new(0, 60);
        ts.push(1.5);
        ts.push_missing();
        ts.push(3.0);
        assert_eq!(ts.get(0), Some(1.5));
        assert_eq!(ts.get(1), None);
        assert!(ts.is_missing(1));
        assert_eq!(ts.get(2), Some(3.0));
        assert_eq!(ts.len(), 3);
    }

    #[test]
    fn timestamps_are_start_plus_interval() {
        let ts = series_0_to_9();
        assert_eq!(ts.timestamp_at(0), 1000);
        assert_eq!(ts.timestamp_at(3), 1180);
    }

    #[test]
    fn index_of_inverts_timestamp_at() {
        let ts = series_0_to_9();
        for i in 0..ts.len() {
            assert_eq!(ts.index_of(ts.timestamp_at(i)), Some(i));
        }
        // Mid-interval timestamps map to the covering point.
        assert_eq!(ts.index_of(1030), Some(0));
        assert_eq!(ts.index_of(999), None);
        assert_eq!(ts.index_of(1000 + 600), None);
    }

    #[test]
    fn calendar_math() {
        let minute = TimeSeries::new(0, 60);
        assert_eq!(minute.points_per_day(), 1440);
        assert_eq!(minute.points_per_week(), 10080);
        let hourly = TimeSeries::new(0, 3600);
        assert_eq!(hourly.points_per_day(), 24);
        assert_eq!(hourly.points_per_week(), 168);
    }

    #[test]
    fn whole_weeks_counts_complete_weeks() {
        let mut ts = TimeSeries::new(0, 3600);
        for _ in 0..(168 * 2 + 5) {
            ts.push(0.0);
        }
        assert_eq!(ts.whole_weeks(), 2);
    }

    #[test]
    fn slice_preserves_timestamps() {
        let ts = series_0_to_9();
        let s = ts.slice(3..7);
        assert_eq!(s.len(), 4);
        assert_eq!(s.start(), ts.timestamp_at(3));
        assert_eq!(s.get(0), Some(3.0));
        assert_eq!(s.timestamp_at(1), ts.timestamp_at(4));
    }

    #[test]
    fn iterator_yields_all_points() {
        let mut ts = series_0_to_9();
        ts.push_missing();
        let collected: Vec<_> = ts.iter().collect();
        assert_eq!(collected.len(), 11);
        assert_eq!(collected[0], (1000, Some(0.0)));
        assert_eq!(collected[10], (1000 + 600, None));
        assert_eq!(ts.iter().size_hint(), (11, Some(11)));
    }

    #[test]
    fn missing_ratio() {
        let mut ts = TimeSeries::new(0, 60);
        assert_eq!(ts.missing_ratio(), 0.0);
        ts.push(1.0);
        ts.push_missing();
        ts.push_missing();
        ts.push(4.0);
        assert!((ts.missing_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn slot_helpers() {
        // 90 minutes past midnight at 60s interval = slot 90 of the day.
        assert_eq!(slot_of_day(90 * 60, 60), 90);
        // Same with a day offset.
        assert_eq!(slot_of_day(SECONDS_PER_DAY + 90 * 60, 60), 90);
        // Week slot advances across days.
        assert_eq!(slot_of_week(SECONDS_PER_DAY + 90 * 60, 60), 1440 + 90);
        // Negative epochs still map into [0, period).
        assert_eq!(slot_of_day(-60, 60), 1439);
        assert_eq!(slot_of_week(-60, 60), 10079);
    }

    #[test]
    fn clone_equality() {
        let ts = series_0_to_9();
        assert_eq!(ts.clone(), ts);
    }
}
