//! Property-based integration tests: invariants every detector
//! configuration must uphold on arbitrary-ish KPI inputs.

use opprentice_repro::detectors::registry::{registry, DetectorSpec};
use opprentice_repro::detectors::Detector;
use proptest::prelude::*;

/// Builds a short hourly series from proptest-chosen parameters.
fn series_strategy() -> impl Strategy<Value = Vec<Option<f64>>> {
    (
        50.0f64..5000.0,         // base level
        0.0f64..0.9,             // seasonal amplitude
        0.0f64..0.3,             // noise scale (deterministic pseudo-noise)
        0.0f64..0.2,             // missing ratio
        any::<u64>(),            // seed
        (24usize * 4)..(24 * 8), // length: 4..8 days hourly
    )
        .prop_map(|(base, amp, noise, missing, seed, len)| {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            (0..len)
                .map(|i| {
                    if next() < missing {
                        return None;
                    }
                    let season = 1.0 + amp * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin();
                    Some((base * season + base * noise * (next() - 0.5)).max(0.0))
                })
                .collect()
        })
}

/// A fresh scalar detector per registry configuration, with its spec.
fn fresh_registry() -> Vec<(DetectorSpec, Box<dyn Detector>)> {
    registry(3600)
        .into_iter()
        .map(|s| (s, s.detector()))
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Every configuration: severities are finite and non-negative, and
    /// missing inputs never produce a verdict.
    #[test]
    fn all_133_configs_emit_sane_severities(values in series_strategy()) {
        let mut reg = fresh_registry();
        for (i, v) in values.iter().enumerate() {
            let ts = i as i64 * 3600;
            for (spec, det) in reg.iter_mut() {
                let s = det.observe(ts, *v);
                if v.is_none() {
                    prop_assert_eq!(s, None, "{} gave a verdict on a missing point", spec.name());
                }
                if let Some(s) = s {
                    prop_assert!(s.is_finite() && s >= 0.0, "{}: severity {s}", spec.label());
                }
            }
        }
    }

    /// Determinism: replaying the same input gives identical severities.
    #[test]
    fn detectors_are_deterministic(values in series_strategy()) {
        let run = || -> Vec<Vec<Option<f64>>> {
            let mut reg = fresh_registry();
            values
                .iter()
                .enumerate()
                .map(|(i, v)| {
                    reg.iter_mut().map(|(_, d)| d.observe(i as i64 * 3600, *v)).collect()
                })
                .collect()
        };
        prop_assert_eq!(run(), run());
    }
}

/// Causality check (not property-based — uses a targeted construction):
/// changing a *future* point must not change any past severity.
#[test]
fn detectors_are_causal() {
    let build = |tail: f64| -> Vec<Vec<Option<f64>>> {
        let mut reg = fresh_registry();
        let mut out = Vec::new();
        for i in 0..200i64 {
            let v = if i == 199 {
                tail
            } else {
                100.0 + (i % 24) as f64
            };
            out.push(
                reg.iter_mut()
                    .map(|(_, d)| d.observe(i * 3600, Some(v)))
                    .collect(),
            );
        }
        out
    };
    let a = build(0.0);
    let b = build(1e6);
    // All but the final row must be identical.
    assert_eq!(a[..199], b[..199], "a detector peeked at the future");
    // And the final row must differ somewhere (the tail is wildly different).
    assert_ne!(a[199], b[199]);
}

/// Warm-up discipline: no configuration may emit a severity for the very
/// first point except the memoryless simple threshold.
#[test]
fn only_simple_threshold_scores_the_first_point() {
    for (spec, mut det) in fresh_registry() {
        let s = det.observe(0, Some(123.0));
        if spec == DetectorSpec::SimpleThreshold {
            assert_eq!(s, Some(123.0));
        } else {
            assert_eq!(s, None, "{} scored the first point", spec.label());
        }
    }
}
