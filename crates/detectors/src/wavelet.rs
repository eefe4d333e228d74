//! The wavelet detector \[12\] (Table 3: win ∈ {3, 5, 7} days,
//! freq ∈ {low, mid, high}).
//!
//! Barford et al. separate the signal into frequency bands and score how
//! unusual the band content is. The exact Haar multiresolution analysis
//! (`opprentice_numeric::wavelet`) would require re-transforming the whole
//! trailing window on every point; instead the detector uses the standard
//! streaming equivalent — a dyadic moving-average filter bank. A Haar
//! approximation at level *l* is a moving average over `2^l` points, so the
//! band signals are differences of moving averages:
//!
//! * **high** — `x − MA(short)`: sub-`short` fluctuations,
//! * **mid** — `MA(short) − MA(medium)`: intra-day structure,
//! * **low** — `MA(medium) − MA(win days)`: multi-day drift.
//!
//! The severity is the band value normalized by a running MAD of recent
//! band values, so each band reads in robust sigmas.
//!
//! Each [`WaveletDetector`] owns its filter bank. The extraction engine
//! runs the config-fused [`FusedWavelet`] instead: the three bands of one
//! window length read the *same* moving averages, so the kernel keeps one
//! bank per distinct `win_days` and feeds that bank's band lanes in
//! lockstep.

use crate::fused::FamilyKernel;
use crate::{Detector, MAX_SEVERITY};
use opprentice_numeric::rolling::SortedWindow;
use std::collections::VecDeque;

/// Which frequency band the configuration extracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Band {
    /// Multi-day drift.
    Low,
    /// Intra-day structure.
    Mid,
    /// Point-scale fluctuation.
    High,
}

impl Band {
    pub(crate) fn label(self) -> &'static str {
        match self {
            Band::Low => "low",
            Band::Mid => "mid",
            Band::High => "high",
        }
    }
}

/// Band-value history used for the running MAD.
const SPREAD_WINDOW: usize = 2016;
const SPREAD_REFRESH: usize = 64;
const MIN_SPREAD_SAMPLES: usize = 10;

/// A running moving average over the last `len` present values.
#[derive(Debug, Clone)]
struct RunningMa {
    len: usize,
    buf: VecDeque<f64>,
    sum: f64,
}

impl RunningMa {
    fn new(len: usize) -> Self {
        Self {
            len,
            buf: VecDeque::with_capacity(len),
            sum: 0.0,
        }
    }

    fn push(&mut self, v: f64) {
        self.buf.push_back(v);
        self.sum += v;
        if self.buf.len() > self.len {
            self.sum -= self.buf.pop_front().expect("non-empty");
        }
    }

    fn full(&self) -> bool {
        self.buf.len() == self.len
    }

    fn mean(&self) -> f64 {
        self.sum / self.buf.len() as f64
    }
}

/// The moving-average filter bank behind the three bands of one window
/// length: one present value in, the `[low, mid, high]` band triple out
/// (`None` while the long window warms up).
#[derive(Debug, Clone)]
struct FilterBank {
    short: RunningMa,
    medium: RunningMa,
    long: RunningMa,
}

impl FilterBank {
    fn new(win_days: usize, interval: u32) -> Self {
        let ppd = (86_400 / i64::from(interval)) as usize;
        let short = (ppd / 64).clamp(2, 32);
        let medium = (ppd / 8).clamp(short + 1, 512);
        let long = (win_days * ppd).max(medium + 1);
        Self {
            short: RunningMa::new(short),
            medium: RunningMa::new(medium),
            long: RunningMa::new(long),
        }
    }

    fn push(&mut self, v: f64) -> Option<[f64; 3]> {
        self.short.push(v);
        self.medium.push(v);
        self.long.push(v);
        if !self.long.full() {
            return None;
        }
        let high = v - self.short.mean();
        let mid = self.short.mean() - self.medium.mean();
        let low = self.medium.mean() - self.long.mean();
        Some([low, mid, high])
    }
}

/// One band's robust normalization: the running MAD of recent band values,
/// refreshed every [`SPREAD_REFRESH`] points.
#[derive(Debug, Clone)]
struct BandSpread {
    history: SortedWindow,
    spread: f64,
    since_refresh: usize,
}

impl BandSpread {
    fn new() -> Self {
        Self {
            history: SortedWindow::new(SPREAD_WINDOW),
            spread: 0.0,
            since_refresh: 0,
        }
    }

    /// Folds in the band value and returns its severity in robust sigmas
    /// (`None` until enough band values have been seen).
    fn score(&mut self, band_value: f64) -> Option<f64> {
        self.history.push(band_value);
        self.since_refresh += 1;
        if self.spread == 0.0 || self.since_refresh >= SPREAD_REFRESH {
            let raw = self.history.mad().unwrap_or(0.0);
            let scale = self.history.max_abs();
            self.spread = raw.max(1e-9 * (1.0 + scale));
            self.since_refresh = 0;
        }
        (self.history.len() >= MIN_SPREAD_SAMPLES).then(|| band_value.abs() / self.spread)
    }
}

impl Band {
    fn index(self) -> usize {
        match self {
            Band::Low => 0,
            Band::Mid => 1,
            Band::High => 2,
        }
    }
}

/// The streaming wavelet-band detector.
#[derive(Debug, Clone)]
pub struct WaveletDetector {
    band: Band,
    bank: FilterBank,
    spread: BandSpread,
}

impl WaveletDetector {
    /// Creates a detector at the given sampling interval. The long window
    /// is `win_days` days; the short and medium windows are fixed dyadic
    /// fractions of a day (capped to stay meaningful at coarse intervals).
    ///
    /// # Panics
    ///
    /// Panics if `win_days == 0`.
    pub fn new(win_days: usize, band: Band, interval: u32) -> Self {
        assert!(win_days > 0, "win_days must be positive");
        Self {
            band,
            bank: FilterBank::new(win_days, interval),
            spread: BandSpread::new(),
        }
    }
}

impl Detector for WaveletDetector {
    fn observe(&mut self, _timestamp: i64, value: Option<f64>) -> Option<f64> {
        let bands = self.bank.push(value?)?;
        self.spread.score(bands[self.band.index()])
    }

    fn clone_box(&self) -> Box<dyn Detector> {
        Box::new(self.clone())
    }
}

/// Config-fused wavelet lanes: the kernel owns one filter bank per
/// distinct window length and feeds each bank's band lanes in lockstep.
/// Per lane the arithmetic is the boxed detector's (the same bank pushes and
/// the same running-MAD update), so severities are bit-identical.
#[derive(Debug, Clone)]
pub struct FusedWavelet {
    banks: Vec<FilterBank>,
    /// Each bank's band triple for the current point.
    bands: Vec<Option<[f64; 3]>>,
    /// `(bank index, band, spread state)` per lane, in output order.
    lanes: Vec<(usize, Band, BandSpread)>,
}

impl FusedWavelet {
    /// Creates lanes for the given `(win_days, band)` configurations at the
    /// given sampling interval; lanes with the same `win_days` share a bank.
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty or a `win_days` is 0.
    pub fn new(configs: &[(usize, Band)], interval: u32) -> Self {
        assert!(!configs.is_empty(), "no configs");
        let mut distinct: Vec<usize> = Vec::new();
        let lanes = configs
            .iter()
            .map(|&(win_days, band)| {
                assert!(win_days > 0, "win_days must be positive");
                let bank = match distinct.iter().position(|&w| w == win_days) {
                    Some(i) => i,
                    None => {
                        distinct.push(win_days);
                        distinct.len() - 1
                    }
                };
                (bank, band, BandSpread::new())
            })
            .collect();
        let banks = distinct
            .iter()
            .map(|&w| FilterBank::new(w, interval))
            .collect();
        Self {
            bands: vec![None; distinct.len()],
            banks,
            lanes,
        }
    }
}

impl FamilyKernel for FusedWavelet {
    fn n_configs(&self) -> usize {
        self.lanes.len()
    }

    fn observe(&mut self, _timestamp: i64, value: Option<f64>, out: &mut [Option<f64>]) {
        assert_eq!(out.len(), self.lanes.len(), "output width mismatch");
        let Some(v) = value else {
            out.fill(None);
            return;
        };
        for (slot, bank) in self.bands.iter_mut().zip(&mut self.banks) {
            *slot = bank.push(v);
        }
        for ((bank, band, spread), slot) in self.lanes.iter_mut().zip(out) {
            *slot = self.bands[*bank]
                .and_then(|b| spread.score(b[band.index()]))
                .map(|s| s.clamp(0.0, MAX_SEVERITY));
        }
    }

    fn clone_box(&self) -> Box<dyn FamilyKernel> {
        Box::new(self.clone())
    }

    fn family(&self) -> &'static str {
        "wavelet"
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Hourly signal: daily sine + slow weekly drift.
    fn signal(i: i64) -> f64 {
        let day = std::f64::consts::TAU * (i % 24) as f64 / 24.0;
        100.0 + 10.0 * day.sin() + 0.05 * i as f64
    }

    fn run(band: Band, values: impl Iterator<Item = f64>) -> Vec<Option<f64>> {
        let mut d = WaveletDetector::new(3, band, 3600);
        values
            .enumerate()
            .map(|(i, v)| d.observe(i as i64 * 3600, Some(v)))
            .collect()
    }

    #[test]
    fn warm_up_lasts_the_long_window() {
        let out = run(Band::High, (0..(24 * 3 + 10)).map(signal));
        let warm = 24 * 3; // 3 days at hourly interval
        assert!(out[..warm - 1].iter().all(Option::is_none));
        assert!(out[warm..].iter().any(Option::is_some));
    }

    #[test]
    fn high_band_catches_point_spikes() {
        let n = 24 * 10;
        let mut vals: Vec<f64> = (0..n).map(signal).collect();
        vals.push(signal(n) + 200.0); // spike
        let out = run(Band::High, vals.into_iter());
        let spike_sev = out.last().unwrap().unwrap();
        let normal: f64 = out[out.len() - 20..out.len() - 1]
            .iter()
            .flatten()
            .cloned()
            .fold(0.0, f64::max);
        assert!(spike_sev > 5.0 * (normal + 1.0), "{spike_sev} vs {normal}");
    }

    #[test]
    fn low_band_catches_level_shifts_high_band_forgets_them() {
        let n = 24 * 10;
        let shifted: Vec<f64> = (0..n + 72)
            .map(|i| signal(i) + if i >= n { 80.0 } else { 0.0 })
            .collect();
        let low = run(Band::Low, shifted.iter().copied());
        let high = run(Band::High, shifted.iter().copied());
        // Two days after the shift: the low band still sees the offset
        // (medium MA moved, long MA lags), the high band has re-centered.
        let idx = (n + 48) as usize;
        let low_sev = low[idx].unwrap();
        let high_sev = high[idx].unwrap();
        assert!(low_sev > 2.0 * high_sev, "low {low_sev} vs high {high_sev}");
    }

    #[test]
    fn bands_have_increasing_window_order() {
        let d = WaveletDetector::new(3, Band::Mid, 3600);
        let bank = &d.bank;
        assert!(bank.short.len < bank.medium.len);
        assert!(bank.medium.len < bank.long.len);
    }

    #[test]
    fn coarse_interval_still_valid() {
        // 60-minute interval (SRT): windows stay ordered and usable.
        let mut d = WaveletDetector::new(3, Band::High, 3600);
        for i in 0..(24 * 4) {
            let _ = d.observe(i * 3600, Some(signal(i)));
        }
        assert!(d.observe(24 * 4 * 3600, Some(500.0)).is_some());
    }

    #[test]
    fn missing_points_skipped() {
        let mut d = WaveletDetector::new(3, Band::Mid, 3600);
        for i in 0..(24 * 5) {
            let v = if i % 9 == 0 { None } else { Some(signal(i)) };
            let s = d.observe(i * 3600, v);
            if v.is_none() {
                assert_eq!(s, None);
            }
        }
    }
}
