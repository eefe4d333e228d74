//! Differential proof obligations for the batch-parallel extraction engine:
//!
//! - batched extraction is **bit-identical** to streaming extraction over
//!   all 133 registry configurations, for arbitrary batch boundaries and
//!   missing values;
//! - a detector cloned mid-stream continues bit-identically to the
//!   original, for every registry configuration (the snapshot/restore and
//!   cross-KPI transfer paths depend on this);
//! - the incremental order-statistics kernel ([`SortedWindow`]) agrees
//!   bit-for-bit with the batch `stats::` reference implementations the
//!   seed detectors computed from scratch each point.

use opprentice_repro::detectors::registry::{registry, DetectorSpec};
use opprentice_repro::detectors::{clamp_severity, Detector};
use opprentice_repro::numeric::rolling::SortedWindow;
use opprentice_repro::numeric::stats;
use opprentice_repro::opprentice::features::OnlineExtractor;
use proptest::prelude::*;

const INTERVAL: u32 = 3600;

/// A KPI segment with seasonal shape, deterministic pseudo-noise, spikes
/// and missing points.
fn series_strategy() -> impl Strategy<Value = Vec<Option<f64>>> {
    (
        50.0f64..5000.0,         // base level
        0.0f64..0.9,             // seasonal amplitude
        0.0f64..0.3,             // noise scale
        0.0f64..0.25,            // missing ratio
        any::<u64>(),            // seed
        (24usize * 3)..(24 * 6), // length: 3..6 days hourly
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
                    let spike = if next() < 0.02 { base } else { 0.0 };
                    Some((base * season + base * noise * (next() - 0.5) + spike).max(0.0))
                })
                .collect()
        })
}

fn bits(row: &[Option<f64>]) -> Vec<Option<u64>> {
    row.iter().map(|s| s.map(f64::to_bits)).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// THE batching contract: feeding the series through
    /// [`OnlineExtractor::observe_batch`] in arbitrary chunks produces
    /// exactly the severity rows the per-point streaming path produces,
    /// bit for bit, over every one of the 133 configurations.
    #[test]
    fn batched_extraction_is_bit_identical_to_streaming(
        values in series_strategy(),
        chunk_seed in any::<u64>(),
    ) {
        let mut streaming = OnlineExtractor::new(INTERVAL);
        let mut batched = OnlineExtractor::new(INTERVAL);
        let m = streaming.n_features();
        prop_assert_eq!(m, 133);

        let mut expected: Vec<Vec<Option<u64>>> = Vec::with_capacity(values.len());
        for (i, v) in values.iter().enumerate() {
            expected.push(bits(streaming.observe(i as i64 * i64::from(INTERVAL), *v)));
        }

        // Random chunking, including size-1 (inline path) and large
        // chunks (worker-pool path).
        let mut state = chunk_seed | 1;
        let mut i = 0usize;
        while i < values.len() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let n = 1 + (state % 37) as usize;
            let end = (i + n).min(values.len());
            let timestamps: Vec<i64> =
                (i..end).map(|j| j as i64 * i64::from(INTERVAL)).collect();
            let rows = batched.observe_batch(&timestamps, &values[i..end]);
            for (k, j) in (i..end).enumerate() {
                prop_assert_eq!(
                    bits(&rows[k * m..(k + 1) * m]),
                    expected[j].clone(),
                    "row {} diverged (chunk {}..{})", j, i, end
                );
            }
            i = end;
        }
    }

    /// Cloning any configuration mid-stream yields a detector that scores
    /// the rest of the stream bit-identically — deep state copies, no
    /// aliasing (a cloned wavelet view gets its own filter bank).
    #[test]
    fn clone_mid_stream_continues_bit_identically(
        values in series_strategy(),
        cut_frac in 0.1f64..0.9,
    ) {
        let cut = ((values.len() as f64 * cut_frac) as usize).clamp(1, values.len() - 1);
        let specs = registry(INTERVAL);
        let mut reg: Vec<Box<dyn Detector>> = specs.iter().map(DetectorSpec::detector).collect();
        for (i, v) in values[..cut].iter().enumerate() {
            for det in reg.iter_mut() {
                let _ = det.observe(i as i64 * i64::from(INTERVAL), *v);
            }
        }
        let mut clones = reg.clone();
        for (k, v) in values[cut..].iter().enumerate() {
            let ts = (cut + k) as i64 * i64::from(INTERVAL);
            for ((det, dup), spec) in reg.iter_mut().zip(clones.iter_mut()).zip(&specs) {
                prop_assert_eq!(
                    clamp_severity(det.observe(ts, *v)).map(f64::to_bits),
                    clamp_severity(dup.observe(ts, *v)).map(f64::to_bits),
                    "{} diverged after clone at point {}", spec.label(), cut + k
                );
            }
        }
    }

    /// The incremental sliding-window kernel vs the seed's from-scratch
    /// reference: after every push, all five order statistics agree bit
    /// for bit with `stats::` over the same (arrival-ordered) window.
    #[test]
    fn sorted_window_matches_from_scratch_reference(
        cap in 1usize..48,
        values in prop::collection::vec((0u8..4, -1e6f64..1e6), 1..300).prop_map(|raw| {
            raw.into_iter()
                .map(|(tag, x)| match tag {
                    0 => x,
                    1 => 0.0,
                    2 => -0.0,
                    _ => x * 1e-9, // near-duplicates stress cancellation
                })
                .collect::<Vec<f64>>()
        }),
    ) {
        let mut win = SortedWindow::new(cap);
        let mut reference: std::collections::VecDeque<f64> = Default::default();
        for &v in &values {
            win.push(v);
            reference.push_back(v);
            if reference.len() > cap {
                reference.pop_front();
            }
            let arrival: Vec<f64> = reference.iter().copied().collect();
            prop_assert_eq!(win.mean().map(f64::to_bits),
                stats::mean(&arrival).map(f64::to_bits));
            prop_assert_eq!(win.std_dev().map(f64::to_bits),
                stats::std_dev(&arrival).map(f64::to_bits));
            // The sign of a zero median is unspecified when the window
            // mixes ±0.0 (they compare equal); canonicalize it. Every
            // downstream use subtracts and takes abs, so severities are
            // bit-identical regardless.
            let canon = |x: f64| if x == 0.0 { 0.0f64.to_bits() } else { x.to_bits() };
            prop_assert_eq!(win.median().map(canon),
                stats::median(&arrival).map(canon));
            prop_assert_eq!(win.mad().map(f64::to_bits),
                stats::mad(&arrival).map(f64::to_bits));
            let max_abs = arrival.iter().fold(0.0f64, |a, x| a.max(x.abs()));
            prop_assert_eq!(win.max_abs().to_bits(), max_abs.to_bits());
        }
    }
}

/// A pruned configuration set (e.g. after feature selection) extracts the
/// same severities the full registry assigns to those columns, in any
/// order. The subset here runs in descending registry order, in two passes
/// (`index % 3 == 0`, then `index % 3 == 1`), so the bands of one wavelet
/// window land far apart and the fused kernels see their lanes reversed.
#[test]
fn pruned_config_set_matches_full_registry_columns() {
    let full_reg = registry(INTERVAL);
    let kept: Vec<usize> = (0..full_reg.len())
        .rev()
        .filter(|i| i % 3 == 0)
        .chain((0..full_reg.len()).rev().filter(|i| i % 3 == 1))
        .collect();
    let pruned_reg: Vec<DetectorSpec> = kept.iter().map(|&i| full_reg[i]).collect();
    assert!(pruned_reg.len() < full_reg.len());

    let mut full = OnlineExtractor::with_configs(&full_reg);
    let mut pruned = OnlineExtractor::with_configs(&pruned_reg);
    assert_eq!(pruned.n_features(), kept.len());
    {
        let full_labels = full.labels();
        for (col, &orig) in kept.iter().enumerate() {
            assert_eq!(pruned.labels()[col], full_labels[orig]);
        }
    }

    for i in 0..(24 * 4) {
        let ts = i as i64 * i64::from(INTERVAL);
        let v = if i % 13 == 7 {
            None
        } else {
            Some(100.0 + 20.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin())
        };
        let full_row = full.observe(ts, v).to_vec();
        let pruned_row = pruned.observe(ts, v).to_vec();
        for (col, &orig) in kept.iter().enumerate() {
            assert_eq!(
                pruned_row[col].map(f64::to_bits),
                full_row[orig].map(f64::to_bits),
                "column {col} (registry index {orig}) diverged at point {i}"
            );
        }
    }
}
