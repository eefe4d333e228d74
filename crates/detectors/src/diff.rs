//! The "Diff" detector — one of the two detectors the studied search engine
//! already used before the paper (§5.2): "simply measures anomaly severities
//! using the differences between the current point and the point of last
//! slot, the point of last day, and the point of last week."
//!
//! Each lag is one configuration (3 in total).

use crate::Detector;
use std::collections::VecDeque;

/// Which reference point the difference is taken against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DiffLag {
    /// Previous point.
    LastSlot,
    /// Same slot yesterday.
    LastDay,
    /// Same slot last week.
    LastWeek,
}

impl DiffLag {
    /// Lag in points at the given sampling interval.
    pub fn points(self, interval: u32) -> usize {
        let per_day = (86_400 / i64::from(interval)) as usize;
        match self {
            DiffLag::LastSlot => 1,
            DiffLag::LastDay => per_day,
            DiffLag::LastWeek => per_day * 7,
        }
    }

    pub(crate) fn label(self) -> &'static str {
        match self {
            DiffLag::LastSlot => "last-slot",
            DiffLag::LastDay => "last-day",
            DiffLag::LastWeek => "last-week",
        }
    }
}

/// Severity = |v(t) − v(t − lag)|.
#[derive(Debug, Clone)]
pub struct Diff {
    lag_points: usize,
    /// Ring of the last `lag_points` raw values (missing kept as `None`) so
    /// the lag stays aligned in *time* even through gaps.
    ring: VecDeque<Option<f64>>,
}

impl Diff {
    /// Creates a diff detector for the given lag at the given interval.
    pub fn new(lag: DiffLag, interval: u32) -> Self {
        let lag_points = lag.points(interval);
        Self {
            lag_points,
            ring: VecDeque::with_capacity(lag_points),
        }
    }
}

impl Detector for Diff {
    fn observe(&mut self, _timestamp: i64, value: Option<f64>) -> Option<f64> {
        let severity = match (value, self.ring.front().copied().flatten()) {
            (Some(v), Some(ref_v)) if self.ring.len() == self.lag_points => Some((v - ref_v).abs()),
            _ => None,
        };
        self.ring.push_back(value);
        if self.ring.len() > self.lag_points {
            self.ring.pop_front();
        }
        severity
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn last_slot_diff() {
        let mut d = Diff::new(DiffLag::LastSlot, 60);
        assert_eq!(d.observe(0, Some(10.0)), None); // warm-up
        assert_eq!(d.observe(60, Some(13.0)), Some(3.0));
        assert_eq!(d.observe(120, Some(8.0)), Some(5.0));
    }

    #[test]
    fn last_day_diff_uses_daily_lag() {
        let mut d = Diff::new(DiffLag::LastDay, 3600); // 24 points/day
        for i in 0..24 {
            assert_eq!(d.observe(i * 3600, Some(i as f64)), None);
        }
        // Point 24 compares with point 0.
        assert_eq!(d.observe(24 * 3600, Some(7.0)), Some(7.0));
    }

    #[test]
    fn week_lag_points() {
        assert_eq!(DiffLag::LastWeek.points(60), 10080);
        assert_eq!(DiffLag::LastDay.points(300), 288);
        assert_eq!(DiffLag::LastSlot.points(60), 1);
    }

    #[test]
    fn missing_reference_yields_none_but_keeps_alignment() {
        let mut d = Diff::new(DiffLag::LastSlot, 60);
        d.observe(0, Some(10.0));
        assert_eq!(d.observe(60, None), None); // missing current
                                               // The missing point is in the ring: reference for this one is None.
        assert_eq!(d.observe(120, Some(11.0)), None);
        // Next point compares against 11.0 (one slot back), alignment kept.
        assert_eq!(d.observe(180, Some(15.0)), Some(4.0));
    }

    #[test]
    fn severity_is_symmetric() {
        let mut up = Diff::new(DiffLag::LastSlot, 60);
        up.observe(0, Some(10.0));
        let s_up = up.observe(60, Some(20.0));
        let mut down = Diff::new(DiffLag::LastSlot, 60);
        down.observe(0, Some(10.0));
        let s_down = down.observe(60, Some(0.0));
        assert_eq!(s_up, s_down);
    }
}
