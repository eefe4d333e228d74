//! Property-based tests for the framework layer.

use opprentice::cthld::{pc_score, select_operating_point, CthldMetric, Preference};
use opprentice::evaluate::moving_window_metrics;
use opprentice::postprocess::{group_alerts, DurationFilter};
use opprentice::predictor::EwmaCthldPredictor;
use opprentice_learn::metrics::PrPoint;
use proptest::prelude::*;

fn curve_strategy() -> impl Strategy<Value = Vec<PrPoint>> {
    prop::collection::vec((0.0f64..1.0, 0.01f64..=1.0), 1..40).prop_map(|mut raw| {
        // Build a valid curve: thresholds strictly descending, recall
        // non-decreasing.
        raw.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap());
        raw.dedup_by(|a, b| a.0 == b.0);
        let n = raw.len();
        raw.into_iter()
            .enumerate()
            .map(|(i, (t, p))| PrPoint {
                threshold: t,
                recall: (i + 1) as f64 / n as f64,
                precision: p,
            })
            .collect()
    })
}

proptest! {
    /// PC-Score is the F-Score plus exactly 0 or 1.
    #[test]
    fn pc_score_is_f_plus_incentive(r in 0.0f64..=1.0, p in 0.0f64..=1.0) {
        let pref = Preference::moderate();
        let f = opprentice_learn::metrics::f_score(r, p);
        let pc = pc_score(r, p, &pref);
        let bonus = pc - f;
        prop_assert!((bonus - 0.0).abs() < 1e-12 || (bonus - 1.0).abs() < 1e-12);
        prop_assert_eq!((bonus - 1.0).abs() < 1e-12, pref.satisfied_by(r, p));
    }

    /// The PC-Score selection picks an in-box point whenever one exists.
    #[test]
    fn pc_score_selection_finds_the_box(curve in curve_strategy(), rr in 0.1f64..0.9, pp in 0.1f64..0.9) {
        let pref = Preference { recall: rr, precision: pp };
        let chosen = select_operating_point(&curve, CthldMetric::PcScore(pref)).unwrap();
        let box_exists = curve.iter().any(|p| pref.satisfied_by(p.recall, p.precision));
        if box_exists {
            prop_assert!(pref.satisfied_by(chosen.recall, chosen.precision),
                "box exists but chosen {chosen:?}");
        }
    }

    /// Every selection metric returns a point that is on the curve.
    #[test]
    fn selections_come_from_the_curve(curve in curve_strategy()) {
        for metric in [
            CthldMetric::FScore,
            CthldMetric::Sd11,
            CthldMetric::PcScore(Preference::moderate()),
        ] {
            let p = select_operating_point(&curve, metric).unwrap();
            prop_assert!(curve.contains(&p), "{metric:?} invented a point");
        }
    }

    /// The duration filter preserves stream length and never passes a run
    /// shorter than the minimum.
    #[test]
    fn duration_filter_invariants(verdicts in prop::collection::vec(any::<bool>(), 0..200), min in 1usize..6) {
        let out = DurationFilter::apply(min, &verdicts);
        prop_assert_eq!(out.len(), verdicts.len());
        // No surviving anomaly run is shorter than min.
        let mut run = 0usize;
        for (i, &v) in out.iter().enumerate() {
            if v {
                run += 1;
            } else {
                prop_assert!(run == 0 || run >= min, "short run ending at {i}");
                run = 0;
            }
            // The filter can only remove detections, never add them.
            prop_assert!(!v || verdicts[i], "filter invented an anomaly at {i}");
        }
        prop_assert!(run == 0 || run >= min);
    }

    /// Alerts partition the anomalous points exactly.
    #[test]
    fn alerts_cover_anomalous_points(probs in prop::collection::vec(prop::option::of(0.0f64..1.0), 0..150)) {
        let cthld = 0.5;
        let alerts = group_alerts(&probs, cthld);
        let mut covered = vec![false; probs.len()];
        for a in &alerts {
            prop_assert!(a.peak_probability >= cthld);
            for i in a.window.start..a.window.end {
                prop_assert!(probs[i].is_some_and(|p| p >= cthld), "alert covers normal point {i}");
                covered[i] = true;
            }
        }
        for (i, p) in probs.iter().enumerate() {
            if p.is_some_and(|p| p >= cthld) {
                prop_assert!(covered[i], "anomalous point {i} not alerted");
            }
        }
    }

    /// EWMA predictions always stay inside [0, 1] and converge to a
    /// constant input.
    #[test]
    fn ewma_predictor_bounds(updates in prop::collection::vec(0.0f64..=1.0, 1..50), alpha in 0.01f64..=1.0) {
        let mut p = EwmaCthldPredictor::new(alpha);
        for &u in &updates {
            let next = p.update(u);
            prop_assert!((0.0..=1.0).contains(&next));
        }
        // Converge on repetition (rate depends on alpha).
        for _ in 0..2000 {
            p.update(0.7);
        }
        prop_assert!((p.predict().unwrap() - 0.7).abs() < 1e-3);
    }

    /// Moving-window metrics always produce recall/precision in [0, 1] and
    /// at most one point per step position.
    #[test]
    fn moving_window_bounds(
        n in 10usize..120,
        window in 2usize..20,
        step in 1usize..10,
        seed in any::<u64>(),
    ) {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let scores: Vec<Option<f64>> = (0..n).map(|_| (next() > 0.1).then(&mut next)).collect();
        let truth: Vec<bool> = (0..n).map(|_| next() < 0.2).collect();
        let cthlds = vec![0.5; n];
        let points = moving_window_metrics(&scores, &cthlds, &truth, window.min(n), step);
        for p in &points {
            prop_assert!((0.0..=1.0).contains(&p.recall));
            prop_assert!((0.0..=1.0).contains(&p.precision));
            prop_assert!(p.start + window.min(n) <= n);
        }
    }
}

proptest! {
    /// The session-snapshot decoder is total: arbitrary bytes never panic.
    /// Crash recovery reads snapshot files that may be torn or corrupted,
    /// so decoding must fail as a value, not a process abort.
    #[test]
    fn snapshot_decoder_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..800)) {
        let _ = opprentice::SessionSnapshot::from_bytes(&bytes);
    }

    /// Same, with a valid magic + version prefix so the fuzz bytes reach
    /// the field decoding paths instead of dying at the header.
    #[test]
    fn snapshot_decoder_never_panics_past_header(
        mut bytes in prop::collection::vec(any::<u8>(), 6..800),
    ) {
        bytes[..4].copy_from_slice(b"OPRF");
        bytes[4..6].copy_from_slice(&5u16.to_le_bytes());
        let _ = opprentice::SessionSnapshot::from_bytes(&bytes);
    }
}

/// Any `f64` bit pattern: NaNs, infinities, subnormals, both zeros — the
/// hostile end of the input space the EWMA predictor must absorb.
fn any_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(f64::from_bits)
}

proptest! {
    /// The EWMA predictor is total over `f64`: any update input — NaN and
    /// infinities included — leaves both the returned cThld and the stored
    /// prediction inside [0, 1]. A NaN that slipped through would poison
    /// every later prediction (NaN survives `clamp`) and with it every
    /// verdict the serving layer emits.
    #[test]
    fn ewma_update_is_total_over_f64(
        updates in prop::collection::vec(any_f64(), 0..60),
        alpha in 0.0f64..=1.0,
    ) {
        let mut p = EwmaCthldPredictor::new(alpha);
        // Empty history: no prediction, and predicting is not an error.
        prop_assert_eq!(p.predict(), None);
        for &u in &updates {
            let next = p.update(u);
            prop_assert!((0.0..=1.0).contains(&next), "update({u}) returned {next}");
            if let Some(pred) = p.predict() {
                prop_assert!((0.0..=1.0).contains(&pred), "stored {pred} after update({u})");
            }
        }
    }

    /// Initialization is equally total: a non-finite seed is ignored, a
    /// finite one lands clamped into [0, 1].
    #[test]
    fn ewma_initialize_is_total_over_f64(seed in any_f64(), follow in any_f64()) {
        let mut p = EwmaCthldPredictor::paper();
        p.initialize(seed);
        if let Some(pred) = p.predict() {
            prop_assert!((0.0..=1.0).contains(&pred), "initialize({seed}) stored {pred}");
        }
        let next = p.update(follow);
        prop_assert!((0.0..=1.0).contains(&next));
    }

    /// A constant history is a fixpoint: the blend `α·c + (1−α)·c` leaves
    /// the prediction at `c` for every α, up to float rounding.
    #[test]
    fn ewma_constant_history_is_a_fixpoint(
        c in 0.0f64..=1.0,
        alpha in 0.0f64..=1.0,
        n in 1usize..30,
    ) {
        let mut p = EwmaCthldPredictor::new(alpha);
        p.initialize(c);
        for _ in 0..n {
            p.update(c);
        }
        prop_assert!((p.predict().unwrap() - c).abs() < 1e-9);
    }

    /// Every α in [0, 1] constructs (the out-of-range and NaN cases are
    /// the `#[should_panic]` tests below).
    #[test]
    fn ewma_valid_alphas_construct(alpha in 0.0f64..=1.0) {
        let mut p = EwmaCthldPredictor::new(alpha);
        prop_assert!((0.0..=1.0).contains(&p.update(0.3)));
    }
}

#[test]
#[should_panic(expected = "alpha must be in [0, 1]")]
fn ewma_alpha_above_one_panics() {
    let _ = EwmaCthldPredictor::new(1.5);
}

#[test]
#[should_panic(expected = "alpha must be in [0, 1]")]
fn ewma_alpha_below_zero_panics() {
    let _ = EwmaCthldPredictor::new(-0.5);
}

#[test]
#[should_panic(expected = "alpha must be in [0, 1]")]
fn ewma_nan_alpha_panics() {
    let _ = EwmaCthldPredictor::new(f64::NAN);
}
