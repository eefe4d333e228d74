//! Property-based tests for the learning substrate.

use opprentice_learn::feature_select::mutual_information;
use opprentice_learn::metrics::{auc_pr, auc_pr_of, f_score, pr_curve};
use opprentice_learn::tree::{DecisionTree, TreeParams};
use opprentice_learn::{Classifier, CompiledForest, Dataset, RandomForest, RandomForestParams};
use proptest::prelude::*;

fn scored_labels() -> impl Strategy<Value = Vec<(f64, bool)>> {
    prop::collection::vec((0.0f64..1.0, any::<bool>()), 2..200)
        .prop_filter("needs a positive", |v| v.iter().any(|(_, l)| *l))
}

/// Decodes `bytes` as a model for rows of `n_features` values and, when
/// that succeeds, predicts on the first `n_features` values of `row`.
fn assert_serves(bytes: &[u8], n_features: usize, row: &[f64]) -> Result<(), TestCaseError> {
    if let Ok(model) = CompiledForest::from_bytes(bytes, n_features) {
        let p = model.predict(&row[..n_features]);
        prop_assert!((0.0..=1.0).contains(&p), "p = {}", p);
    }
    Ok(())
}

proptest! {
    /// PR curves: thresholds strictly descending, recall non-decreasing,
    /// final recall 1, precision in (0, 1], AUCPR in [0, 1].
    #[test]
    fn pr_curve_invariants(data in scored_labels()) {
        let scores: Vec<Option<f64>> = data.iter().map(|(s, _)| Some(*s)).collect();
        let labels: Vec<bool> = data.iter().map(|(_, l)| *l).collect();
        let curve = pr_curve(&scores, &labels);
        prop_assert!(!curve.is_empty());
        for w in curve.windows(2) {
            prop_assert!(w[0].threshold > w[1].threshold);
            prop_assert!(w[0].recall <= w[1].recall);
        }
        prop_assert!((curve.last().unwrap().recall - 1.0).abs() < 1e-12);
        for p in &curve {
            prop_assert!((0.0..=1.0).contains(&p.precision));
            prop_assert!((0.0..=1.0).contains(&p.recall));
        }
        let auc = auc_pr(&curve);
        prop_assert!((0.0..=1.0 + 1e-12).contains(&auc));
    }

    /// A strictly better scorer never has lower AUCPR: moving every
    /// positive's score up cannot hurt.
    #[test]
    fn auc_improves_when_positives_score_higher(data in scored_labels()) {
        let labels: Vec<bool> = data.iter().map(|(_, l)| *l).collect();
        let base: Vec<Option<f64>> = data.iter().map(|(s, _)| Some(*s)).collect();
        let boosted: Vec<Option<f64>> = data
            .iter()
            .map(|(s, l)| Some(if *l { s + 2.0 } else { *s }))
            .collect();
        prop_assert!(auc_pr_of(&boosted, &labels) + 1e-12 >= auc_pr_of(&base, &labels));
    }

    /// F-Score is symmetric, bounded by its arguments and by 1.
    #[test]
    fn f_score_properties(r in 0.0f64..=1.0, p in 0.0f64..=1.0) {
        let f = f_score(r, p);
        prop_assert!((f_score(p, r) - f).abs() < 1e-12);
        prop_assert!(f <= 1.0 + 1e-12);
        prop_assert!(f <= (r.max(p)) + 1e-12);
        prop_assert!(f >= 0.0);
        if r > 0.0 && p > 0.0 {
            prop_assert!(f >= r.min(p) * 2.0 / 2.0 - 1e-12); // harmonic mean >= min/1 bound sanity
        }
    }

    /// Mutual information is non-negative and bounded by the label entropy.
    #[test]
    fn mi_bounds(data in prop::collection::vec((0.0f64..100.0, any::<bool>()), 10..300)) {
        let values: Vec<f64> = data.iter().map(|(v, _)| *v).collect();
        let labels: Vec<bool> = data.iter().map(|(_, l)| *l).collect();
        let mi = mutual_information(&values, &labels);
        prop_assert!(mi >= 0.0);
        let p = labels.iter().filter(|&&l| l).count() as f64 / labels.len() as f64;
        let h = if p == 0.0 || p == 1.0 { 0.0 } else { -p * p.ln() - (1.0 - p) * (1.0 - p).ln() };
        prop_assert!(mi <= h + 1e-9, "MI {mi} exceeds H(Y) {h}");
    }

    /// A fully grown tree is consistent on its own training data whenever
    /// the samples are separable (no two identical rows with different
    /// labels in this construction).
    #[test]
    fn tree_fits_training_data(
        rows in prop::collection::vec((0.0f64..100.0, 0.0f64..100.0), 4..80),
    ) {
        let mut d = Dataset::new(2);
        for (a, b) in &rows {
            d.push(&[*a, *b], a + b > 100.0);
        }
        let mut t = DecisionTree::new(TreeParams::default());
        t.fit(&d);
        for i in 0..d.len() {
            prop_assert_eq!(t.predict_proba(d.row(i)) >= 0.5, d.label(i), "row {}", i);
        }
    }

    /// Forest probabilities live in [0, 1] for arbitrary queries.
    #[test]
    fn forest_probability_bounds(
        rows in prop::collection::vec((0.0f64..10.0, 0.0f64..10.0), 20..60),
        probe in prop::collection::vec(-100.0f64..100.0, 2..=2),
    ) {
        let mut d = Dataset::new(2);
        for (i, (a, b)) in rows.iter().enumerate() {
            d.push(&[*a, *b], i % 3 == 0);
        }
        let mut f = RandomForest::new(RandomForestParams { n_trees: 7, ..Default::default() });
        f.fit(&d);
        let p = f.predict_proba(&probe);
        prop_assert!((0.0..=1.0).contains(&p));
    }

    /// The model decoder is total and its output serves: arbitrary bytes
    /// either fail to decode or decode to a model that predicts a
    /// probability on any row of `n_features` values without panicking.
    /// This is the load-bearing property for reading model files off disk
    /// after a crash.
    #[test]
    fn model_decoder_never_yields_an_unservable_model(
        bytes in prop::collection::vec(any::<u8>(), 0..600),
        n_features in 0usize..8,
        row in prop::collection::vec(any::<u64>().prop_map(f64::from_bits), 8),
    ) {
        assert_serves(&bytes, n_features, &row)?;
    }

    /// Same, past a valid header (magic, version, a small tree count) so
    /// the fuzz bytes reach the node decoding instead of dying there.
    #[test]
    fn model_decoder_never_yields_an_unservable_model_past_header(
        mut bytes in prop::collection::vec(any::<u8>(), 10..600),
        n_trees in 1u32..4,
        n_features in 0usize..8,
        row in prop::collection::vec(any::<u64>().prop_map(f64::from_bits), 8),
    ) {
        bytes[..4].copy_from_slice(b"OPRF");
        bytes[4..6].copy_from_slice(&6u16.to_le_bytes());
        bytes[6..10].copy_from_slice(&n_trees.to_le_bytes());
        assert_serves(&bytes, n_features, &row)?;
    }

    /// Same, over nodes that are mostly well-formed: small node counts,
    /// features near the row width, leaves among splits, values near
    /// `[0, 1]`, so decoding gets past its first node and reaches the
    /// closure, width and leaf checks.
    #[test]
    fn model_decoder_never_yields_an_unservable_model_from_near_valid_nodes(
        trees in prop::collection::vec(
            (0u32..8, prop::collection::vec(
                ((0u32..8).prop_map(|f| if f >= 6 { u32::MAX } else { f }), -0.5f64..1.5),
                0..8)),
            1..4),
        n_features in 0usize..6,
        row in prop::collection::vec(any::<u64>().prop_map(f64::from_bits), 8),
    ) {
        let mut bytes = b"OPRF".to_vec();
        bytes.extend_from_slice(&6u16.to_le_bytes());
        bytes.extend_from_slice(&(trees.len() as u32).to_le_bytes());
        for (n_nodes, nodes) in &trees {
            bytes.extend_from_slice(&n_nodes.to_le_bytes());
            for (feature, value) in nodes {
                bytes.extend_from_slice(&feature.to_le_bytes());
                bytes.extend_from_slice(&value.to_le_bytes());
            }
        }
        assert_serves(&bytes, n_features, &row)?;
    }

    /// Round trip: a compiled forest, binned or exact-split, decodes to
    /// the same arena and predicts the bits of the tree walk.
    #[test]
    fn model_codec_round_trips(
        rows in prop::collection::vec(
            (0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0), 20..80),
        probes in prop::collection::vec(
            prop::collection::vec(-50.0f64..50.0, 3..=3), 1..20),
        n_trees in 1usize..10,
        seed in any::<u64>(),
        exact in any::<bool>(),
    ) {
        let mut d = Dataset::new(3);
        for (a, b, c) in &rows {
            d.push(&[*a, *b, *c], a + b > 10.0);
        }
        let mut f = RandomForest::new(RandomForestParams {
            n_trees,
            seed,
            n_bins: if exact { None } else { Some(16) },
            ..Default::default()
        });
        f.fit(&d);
        let compiled = f.compile();
        let restored = CompiledForest::from_bytes(&compiled.to_bytes(), 3).unwrap();
        prop_assert_eq!(&restored, &compiled);
        for p in &probes {
            prop_assert_eq!(restored.predict(p).to_bits(), f.predict_proba(p).to_bits());
        }
    }

    /// The serving-path differential guarantee: a compiled forest produces
    /// bit-identical probabilities to the tree-walk path over random
    /// datasets, seeds and probes — single-row and batched alike.
    #[test]
    fn compiled_forest_matches_tree_walk(
        rows in prop::collection::vec(
            (0.0f64..10.0, 0.0f64..10.0, 0.0f64..10.0), 30..120),
        probes in prop::collection::vec(
            prop::collection::vec(-50.0f64..50.0, 3..=3), 1..40),
        n_trees in 1usize..12,
        seed in any::<u64>(),
        exact in any::<bool>(),
    ) {
        let mut d = Dataset::new(3);
        for (a, b, c) in &rows {
            d.push(&[*a, *b, *c], a + b > 10.0);
        }
        let mut f = RandomForest::new(RandomForestParams {
            n_trees,
            seed,
            n_bins: if exact { None } else { Some(16) },
            ..Default::default()
        });
        f.fit(&d);
        let compiled = f.compile();
        for p in &probes {
            let walk = f.predict_proba(p);
            let fast = compiled.predict(p);
            prop_assert_eq!(walk.to_bits(), fast.to_bits(),
                "walk {} vs compiled {}", walk, fast);
        }
        let batch = compiled.predict_batch(&probes);
        for (p, got) in probes.iter().zip(&batch) {
            prop_assert_eq!(f.predict_proba(p).to_bits(), got.to_bits());
        }
    }

    /// Dataset subsetting and column selection commute with row access.
    #[test]
    fn dataset_views_consistent(
        rows in prop::collection::vec(prop::collection::vec(-10.0f64..10.0, 3..=3), 2..40),
    ) {
        let mut d = Dataset::new(3);
        for (i, r) in rows.iter().enumerate() {
            d.push(r, i % 2 == 0);
        }
        let idx: Vec<usize> = (0..d.len()).step_by(2).collect();
        let sub = d.subset(&idx);
        for (k, &i) in idx.iter().enumerate() {
            prop_assert_eq!(sub.row(k), d.row(i));
            prop_assert_eq!(sub.label(k), d.label(i));
        }
        let proj = d.select_features(&[2, 0]);
        for i in 0..d.len() {
            prop_assert_eq!(proj.row(i), &[d.row(i)[2], d.row(i)[0]]);
        }
    }
}
