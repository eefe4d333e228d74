//! Differential proof obligations for the config-fused extraction engine:
//!
//! - every fused family kernel is **bit-identical** to the per-config
//!   scalar detectors it replaces, over all 133 registry configurations,
//!   for arbitrary batch boundaries, missing-value runs and non-finite
//!   inputs (normalized to missing at the serving boundary);
//! - a kernel cloned mid-stream continues bit-identically to the original
//!   (snapshot/restore path);
//! - cost-model shard rebalancing mid-stream never changes a single
//!   output bit (placement is pure scheduling);
//! - the scalar fallback path (the extension registry's CUSUM,
//!   sliding-percentile and seasonal-ESD specs) runs correctly too;
//! - pruned and reordered registries, whose SVD lanes plan one unit per
//!   column count with interleaved columns, match the scalar detectors
//!   while the units are placed anew after every batch;
//! - the lockstep SVD kernel matches the boxed SVD detectors on every
//!   pruned subset of its 15 lanes, across missing bursts at Gram-refresh
//!   boundaries, converged (constant) and degenerate (all-zero) windows,
//!   and mid-stream clones, and at every pack width it supports (2 to 8
//!   columns, including a padded second pack); the wavelet kernel likewise
//!   on every subset of its 9 lanes;
//! - the TSD and historical average/MAD kernels (every window a suffix of
//!   one per-slot ring) match on every subset of their 10 lanes over
//!   multi-week streams whose slot windows fill, evict, skip a week and
//!   sit out missing bursts longer than a day.
//!
//! The oracle is always a scalar detector per configuration, built by
//! `DetectorSpec::detector` and driven point-by-point through the
//! framework clamp — *not* the extraction engine, so the two
//! implementations stay independent.

use opprentice_repro::detectors::clamp_severity;
use opprentice_repro::detectors::fused::{plan, FamilyKernel};
use opprentice_repro::detectors::registry::{registry, DetectorSpec};
use opprentice_repro::detectors::svd::{FusedSvd, SvdDetector};
use opprentice_repro::detectors::Detector;
use opprentice_repro::opprentice::features::OnlineExtractor;
use proptest::prelude::*;

const INTERVAL: u32 = 3600;

/// A KPI segment with seasonal shape, deterministic pseudo-noise, spikes,
/// *long missing runs* (the Holt–Winters self-heal path) and occasional
/// NaN values (treated as missing upstream; here fed as `None`).
fn series_strategy() -> impl Strategy<Value = Vec<Option<f64>>> {
    (
        50.0f64..5000.0,         // base level
        0.0f64..0.9,             // seasonal amplitude
        0.0f64..0.3,             // noise scale
        0.0f64..0.2,             // missing ratio
        0.0f64..0.04,            // missing-burst start probability
        any::<u64>(),            // seed
        (24usize * 3)..(24 * 6), // length: 3..6 days hourly
    )
        .prop_map(|(base, amp, noise, missing, burst, seed, len)| {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64
            };
            let mut burst_left = 0usize;
            (0..len)
                .map(|i| {
                    if burst_left > 0 {
                        burst_left -= 1;
                        return None;
                    }
                    if next() < burst {
                        burst_left = 3 + (next() * 20.0) as usize;
                        return None;
                    }
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

/// Fresh scalar detectors for `specs`, in order.
fn scalar_detectors(specs: &[DetectorSpec]) -> Vec<Box<dyn Detector>> {
    specs.iter().map(DetectorSpec::detector).collect()
}

/// The scalar oracle: every registry configuration driven per point.
fn scalar_rows(values: &[Option<f64>]) -> Vec<Vec<Option<u64>>> {
    let mut reg = scalar_detectors(&registry(INTERVAL));
    values
        .iter()
        .enumerate()
        .map(|(i, v)| {
            let ts = i as i64 * i64::from(INTERVAL);
            reg.iter_mut()
                .map(|det| clamp_severity(det.observe(ts, *v)).map(f64::to_bits))
                .collect()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// THE fusion contract: the fused engine, fed in random chunks with a
    /// cost-model rebalance forced mid-stream, reproduces the scalar
    /// registry's severities bit for bit over all 133 configurations.
    #[test]
    fn fused_extraction_is_bit_identical_to_scalar_registry(
        values in series_strategy(),
        chunk_seed in any::<u64>(),
    ) {
        let expected = scalar_rows(&values);
        let mut fused = OnlineExtractor::new(INTERVAL);
        let m = fused.n_features();
        prop_assert_eq!(m, 133);

        let mut state = chunk_seed | 1;
        let mut i = 0usize;
        let mut rebalanced = false;
        while i < values.len() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let n = 1 + (state % 37) as usize;
            let end = (i + n).min(values.len());
            if !rebalanced && i > values.len() / 2 {
                // Re-pack units onto different shards mid-stream; outputs
                // must not move by a bit.
                fused.rebalance_now();
                rebalanced = true;
            }
            let timestamps: Vec<i64> =
                (i..end).map(|j| j as i64 * i64::from(INTERVAL)).collect();
            let rows = fused.observe_batch(&timestamps, &values[i..end]);
            for (k, j) in (i..end).enumerate() {
                let got: Vec<Option<u64>> =
                    rows[k * m..(k + 1) * m].iter().map(|s| s.map(f64::to_bits)).collect();
                prop_assert_eq!(
                    got,
                    expected[j].clone(),
                    "row {} diverged (chunk {}..{})", j, i, end
                );
            }
            i = end;
        }
    }

    /// Each fused kernel cloned mid-stream continues bit-identically, and
    /// both tracks keep matching the scalar oracle.
    #[test]
    fn fused_kernels_clone_mid_stream_bit_identically(
        values in series_strategy(),
        cut_frac in 0.1f64..0.9,
    ) {
        let cut = ((values.len() as f64 * cut_frac) as usize).clamp(1, values.len() - 1);
        let expected = scalar_rows(&values);
        for mut unit in plan(&registry(INTERVAL)) {
            let k = unit.kernel.n_configs();
            let mut row = vec![None; k];
            for (i, v) in values[..cut].iter().enumerate() {
                unit.kernel.observe(i as i64 * i64::from(INTERVAL), *v, &mut row);
            }
            let mut dup = unit.kernel.clone_box();
            let mut dup_row = vec![None; k];
            for (off, v) in values[cut..].iter().enumerate() {
                let i = cut + off;
                let ts = i as i64 * i64::from(INTERVAL);
                unit.kernel.observe(ts, *v, &mut row);
                dup.observe(ts, *v, &mut dup_row);
                for (j, &col) in unit.columns.iter().enumerate() {
                    prop_assert_eq!(
                        row[j].map(f64::to_bits), expected[i][col],
                        "{} column {} diverged at point {}", unit.kernel.family(), col, i
                    );
                    prop_assert_eq!(
                        dup_row[j].map(f64::to_bits), expected[i][col],
                        "clone of {} column {} diverged at point {}",
                        unit.kernel.family(), col, i
                    );
                }
            }
        }
    }
}

/// The extension registry (143 configs: Table 3 plus CUSUM, sliding
/// percentile, seasonal ESD, none of them fused) runs through the fused
/// engine's scalar fallback and matches the per-config oracle.
#[test]
fn extension_registry_matches_scalar_oracle() {
    use opprentice_repro::detectors::extensions::extended_registry;

    let specs = extended_registry(INTERVAL);
    let mut oracle = scalar_detectors(&specs);
    let mut fused = OnlineExtractor::with_configs(&specs);
    let m = fused.n_features();
    assert_eq!(m, oracle.len());

    let values: Vec<Option<f64>> = (0..24 * 5)
        .map(|i| {
            if i % 29 == 13 {
                None
            } else {
                Some(100.0 + 15.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin())
            }
        })
        .collect();
    let timestamps: Vec<i64> = (0..values.len())
        .map(|i| i as i64 * i64::from(INTERVAL))
        .collect();

    // One big batch through the pool, checked row by row.
    let rows = fused.observe_batch(&timestamps, &values).to_vec();
    for (i, v) in values.iter().enumerate() {
        for (c, det) in oracle.iter_mut().enumerate() {
            assert_eq!(
                rows[i * m + c].map(f64::to_bits),
                clamp_severity(det.observe(timestamps[i], *v)).map(f64::to_bits),
                "{} diverged at point {i}",
                specs[c].label()
            );
        }
    }
}

/// NaN and infinite inputs are normalized to *missing* at the serving
/// boundary (`proto::parse_value` rejects/maps non-finite values) — the
/// detector contract forbids raw NaN inside the kernels (`SortedWindow`
/// asserts on it in debug builds). This test applies the same boundary
/// normalization and checks the fused engine stays lockstep with the
/// scalar oracle through the resulting dense missing pattern.
#[test]
fn non_finite_inputs_normalize_to_missing_and_stay_lockstep() {
    let values: Vec<Option<f64>> = (0..24 * 4)
        .map(|i| match i % 17 {
            5 => Some(f64::NAN),
            9 => Some(f64::INFINITY),
            11 => None,
            _ => Some(100.0 + (i % 24) as f64),
        })
        // The serving boundary: non-finite values never reach a detector.
        .map(|v| v.filter(|x| x.is_finite()))
        .collect();
    let expected = scalar_rows(&values);
    let mut fused = OnlineExtractor::new(INTERVAL);
    let m = fused.n_features();
    for (i, v) in values.iter().enumerate() {
        let ts = i as i64 * i64::from(INTERVAL);
        let row = fused.observe(ts, *v);
        for c in 0..m {
            assert_eq!(
                row[c].map(f64::to_bits),
                expected[i][c],
                "feature {c} diverged at point {i}"
            );
        }
    }
}

/// The registry's configurations of the detector families named in
/// `family` (`/`-separated, e.g. `"TSD/TSD MAD"`) whose bit is set in
/// `mask` (bit `i` = the families' `i`-th configuration, registry order).
fn family_configs(family: &str, mask: u16) -> Vec<DetectorSpec> {
    let names: Vec<&str> = match family {
        "TSD/TSD MAD" => vec!["TSD", "TSD MAD"],
        "historical average/MAD" => vec!["historical average", "historical MAD"],
        f => vec![f],
    };
    registry(INTERVAL)
        .into_iter()
        .filter(|c| names.contains(&c.name()))
        .enumerate()
        .filter(|(i, _)| mask >> i & 1 == 1)
        .map(|(_, c)| c)
        .collect()
}

/// Drives the fused kernel of `family` over the `mask` lanes and checks
/// every severity against the boxed detectors; at `cut` the kernel is
/// cloned and the clone must track the oracle too. SVD plans one kernel
/// per lockstep pack (one column count, up to five lanes), so its lanes
/// are checked across all of the plan's units.
fn check_lanes(
    family: &str,
    mask: u16,
    values: &[Option<f64>],
    cut: usize,
) -> Result<(), TestCaseError> {
    let specs = family_configs(family, mask);
    let mut oracle = scalar_detectors(&specs);
    let mut units = plan(&specs);
    if family == "SVD" {
        let pack_cols: Vec<Vec<usize>> = units
            .iter()
            .map(|u| u.columns.iter().map(|&c| svd_cols(&specs[c])).collect())
            .collect();
        let mut distinct: Vec<usize> = pack_cols.iter().map(|cols| cols[0]).collect();
        distinct.dedup();
        prop_assert_eq!(
            distinct.len(),
            units.len(),
            "SVD lanes must fuse into one kernel per column count (mask {:#x})",
            mask
        );
        for cols in &pack_cols {
            prop_assert!(cols.len() <= 5 && cols.iter().all(|&c| c == cols[0]));
        }
    } else {
        prop_assert_eq!(units.len(), 1, "{} lanes must fuse into one kernel", family);
    }
    let mut covered: Vec<usize> = units.iter().flat_map(|u| u.columns.clone()).collect();
    covered.sort_unstable();
    prop_assert_eq!(covered, (0..specs.len()).collect::<Vec<_>>());
    for unit in &units {
        // A kernel fusing one variant of a combined family reports that
        // variant's name.
        let mut names: Vec<&str> = unit.columns.iter().map(|&c| specs[c].name()).collect();
        names.dedup();
        let expect_family = if names.len() == 1 { names[0] } else { family };
        prop_assert_eq!(unit.kernel.family(), expect_family);
        prop_assert_eq!(unit.kernel.n_configs(), unit.columns.len());
    }
    let mut rows: Vec<Vec<Option<f64>>> =
        units.iter().map(|u| vec![None; u.columns.len()]).collect();
    let mut clone_rows = rows.clone();
    let mut clones: Option<Vec<Box<dyn FamilyKernel>>> = None;
    for (i, v) in values.iter().enumerate() {
        if i == cut {
            clones = Some(units.iter().map(|u| u.kernel.clone_box()).collect());
        }
        let ts = i as i64 * i64::from(INTERVAL);
        for (unit, row) in units.iter_mut().zip(&mut rows) {
            unit.kernel.observe(ts, *v, row);
        }
        if let Some(clones) = clones.as_mut() {
            for (kernel, row) in clones.iter_mut().zip(&mut clone_rows) {
                kernel.observe(ts, *v, row);
            }
        }
        let expect: Vec<Option<u64>> = oracle
            .iter_mut()
            .map(|det| clamp_severity(det.observe(ts, *v)).map(f64::to_bits))
            .collect();
        for ((unit, row), clone_row) in units.iter().zip(&rows).zip(&clone_rows) {
            for (j, &c) in unit.columns.iter().enumerate() {
                prop_assert_eq!(
                    row[j].map(f64::to_bits),
                    expect[c],
                    "{} diverged at point {} (mask {:#x})",
                    specs[c].label(),
                    i,
                    mask
                );
                if clones.is_some() {
                    prop_assert_eq!(
                        clone_row[j].map(f64::to_bits),
                        expect[c],
                        "clone of {} diverged at point {} (mask {:#x})",
                        specs[c].label(),
                        i,
                        mask
                    );
                }
            }
        }
    }
    Ok(())
}

/// The column count of an SVD spec.
fn svd_cols(spec: &DetectorSpec) -> usize {
    match *spec {
        DetectorSpec::Svd { cols, .. } => cols,
        _ => unreachable!("an SVD spec"),
    }
}

/// A stream of noisy seasonal stretches interleaved with missing bursts,
/// constant stretches (the power iteration converges and exits early),
/// all-zero stretches, and stretches of magnitude ~1e-152 whose Gram
/// products underflow the `norm < 1e-300` test (the degenerate-norm
/// fallback, with a residual that depends on it).
fn svd_stream_strategy() -> impl Strategy<Value = Vec<Option<f64>>> {
    (any::<u64>(), 900usize..1600).prop_map(|(seed, len)| {
        let mut state = seed | 1;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let mut out = Vec::with_capacity(len);
        while out.len() < len {
            let run = 20 + (next() * 380.0) as usize;
            let kind = next();
            for i in 0..run {
                out.push(if kind < 0.15 {
                    None
                } else if kind < 0.3 {
                    Some(42.5)
                } else if kind < 0.4 {
                    Some(0.0)
                } else if kind < 0.5 {
                    Some(1e-152 * (1.0 + next()))
                } else {
                    let season = (i % 24) as f64 / 24.0 * std::f64::consts::TAU;
                    Some(100.0 + 20.0 * season.sin() + 5.0 * next())
                });
            }
        }
        out.truncate(len);
        out
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any non-empty subset of the 15 SVD lanes, in registry order, fuses
    /// into one lockstep kernel that matches the boxed detectors bit for
    /// bit, and so does a clone taken mid-stream.
    #[test]
    fn fused_svd_subsets_match_scalar_detectors(
        mask in 1u16..(1 << 15),
        values in svd_stream_strategy(),
        cut_frac in 0.05f64..0.95,
    ) {
        let cut = (values.len() as f64 * cut_frac) as usize;
        check_lanes("SVD", mask, &values, cut)?;
    }
}

/// A pruned, reordered registry: each configuration kept with
/// probability `keep`, then the families' blocks shuffled and some blocks
/// reversed. A family's configurations stay adjacent, so an SVD block still
/// plans one unit per column count, each with non-contiguous columns.
fn reordered_subset(seed: u64, keep: f64) -> Vec<DetectorSpec> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut blocks: Vec<Vec<DetectorSpec>> = Vec::new();
    for spec in registry(INTERVAL) {
        if next() >= keep {
            continue;
        }
        match blocks.last_mut() {
            Some(block) if block[0].name() == spec.name() => block.push(spec),
            _ => blocks.push(vec![spec]),
        }
    }
    if blocks.is_empty() {
        blocks.push(vec![DetectorSpec::Svd { rows: 10, cols: 3 }]);
    }
    for i in (1..blocks.len()).rev() {
        let j = (next() * (i + 1) as f64) as usize;
        blocks.swap(i, j);
    }
    for block in &mut blocks {
        if next() < 0.5 {
            block.reverse();
        }
    }
    blocks.concat()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Pruned and reordered registries run through the extraction engine,
    /// SVD split into per-column-count units whose columns interleave,
    /// placed anew after every batch, and stay bit-identical to the scalar
    /// detectors.
    #[test]
    fn reordered_subsets_through_svd_pack_units_match_scalar_detectors(
        values in svd_stream_strategy(),
        seed in any::<u64>(),
        keep in 0.3f64..1.0,
    ) {
        let specs = reordered_subset(seed, keep);
        // One SVD unit per column count: the registry has five row counts
        // per column count, one pack's worth.
        let svd_units = plan(&specs).iter().filter(|u| u.kernel.family() == "SVD").count();
        let mut svd_widths: Vec<usize> =
            specs.iter().filter(|s| s.name() == "SVD").map(svd_cols).collect();
        svd_widths.sort_unstable();
        svd_widths.dedup();
        prop_assert_eq!(svd_units, svd_widths.len());

        let mut oracle = scalar_detectors(&specs);
        let mut fused = OnlineExtractor::with_configs(&specs);
        let m = fused.n_features();
        prop_assert_eq!(m, specs.len());
        let mut state = seed ^ 0x9e37_79b9_7f4a_7c15 | 1;
        let mut i = 0usize;
        while i < values.len() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let end = (i + 1 + (state % 61) as usize).min(values.len());
            let timestamps: Vec<i64> =
                (i..end).map(|j| j as i64 * i64::from(INTERVAL)).collect();
            let rows = fused.observe_batch(&timestamps, &values[i..end]).to_vec();
            fused.rebalance_now();
            for (k, j) in (i..end).enumerate() {
                for (c, det) in oracle.iter_mut().enumerate() {
                    prop_assert_eq!(
                        rows[k * m + c].map(f64::to_bits),
                        clamp_severity(det.observe(timestamps[k], values[j])).map(f64::to_bits),
                        "{} (column {}) diverged at point {}",
                        specs[c].label(),
                        c,
                        j
                    );
                }
            }
            i = end;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Any non-empty subset of the 9 wavelet lanes fuses into one kernel
    /// owning its filter banks, and matches the boxed band views bit for
    /// bit — long enough for the 7-day lanes to warm up and refresh their
    /// spread — and so does a clone taken mid-stream.
    #[test]
    fn fused_wavelet_subsets_match_scalar_detectors(
        mask in 1u16..(1 << 9),
        values in series_strategy(),
        extra in series_strategy(),
        cut_frac in 0.05f64..0.95,
    ) {
        let values: Vec<Option<f64>> = values.into_iter().chain(extra).collect();
        let cut = (values.len() as f64 * cut_frac) as usize;
        check_lanes("wavelet", mask, &values, cut)?;
    }
}

/// `(rows, cols)` lanes at every column count the kernel has a pack for
/// (2 to 8), interleaved across widths so output slots and packs do not
/// line up. Width 4 has seven row counts: one full pack of five and a
/// second pack with two real lanes and three padding lanes.
fn every_width_configs() -> Vec<(usize, usize)> {
    let mut configs = Vec::new();
    for rows in [2, 10, 23, 50, 7] {
        for cols in 2..=8 {
            configs.push((rows, cols));
        }
    }
    configs.push((3, 4));
    configs.push((31, 4));
    configs
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One kernel over lanes of every pack width matches a boxed
    /// `SvdDetector` per lane bit for bit, and so does a clone taken
    /// mid-stream.
    #[test]
    fn fused_svd_every_pack_width_matches_scalar_detectors(
        values in svd_stream_strategy(),
        cut_frac in 0.05f64..0.95,
    ) {
        let configs = every_width_configs();
        prop_assert_eq!(configs.iter().filter(|c| c.1 == 4).count(), 7);
        let mut oracle: Vec<SvdDetector> =
            configs.iter().map(|&(r, c)| SvdDetector::new(r, c)).collect();
        let mut kernel = FusedSvd::new(&configs);
        prop_assert_eq!(kernel.n_configs(), configs.len());
        let cut = (values.len() as f64 * cut_frac) as usize;
        let mut clone: Option<FusedSvd> = None;
        let mut row = vec![None; configs.len()];
        let mut clone_row = vec![None; configs.len()];
        for (i, v) in values.iter().enumerate() {
            if i == cut {
                clone = Some(kernel.clone());
            }
            let ts = i as i64 * i64::from(INTERVAL);
            kernel.observe(ts, *v, &mut row);
            if let Some(c) = clone.as_mut() {
                c.observe(ts, *v, &mut clone_row);
            }
            for (j, det) in oracle.iter_mut().enumerate() {
                let expect = clamp_severity(det.observe(ts, *v)).map(f64::to_bits);
                prop_assert_eq!(
                    row[j].map(f64::to_bits),
                    expect,
                    "{:?} diverged at point {}",
                    configs[j],
                    i
                );
                if clone.is_some() {
                    prop_assert_eq!(
                        clone_row[j].map(f64::to_bits),
                        expect,
                        "clone of {:?} diverged at point {}",
                        configs[j],
                        i
                    );
                }
            }
        }
    }
}

/// Deterministic edge cases for every single SVD lane and the full set:
/// missing bursts straddling each lane's warm-up completion and its first
/// Gram refreshes (present counts `cap`, `cap + 64`, `cap + 65`, …), a
/// constant stretch, an all-zero stretch and a ~1e-152 stretch (the
/// degenerate-norm fallback) longer than the widest window, then a
/// restart.
#[test]
fn fused_svd_refresh_boundaries_and_degenerate_windows() {
    let caps: Vec<usize> = family_configs("SVD", 0x7fff)
        .iter()
        .map(|c| match c {
            DetectorSpec::Svd { rows, cols } => rows * cols,
            _ => unreachable!("filtered to SVD"),
        })
        .collect();
    // Present values, with a missing burst inserted just before each
    // boundary in present-count space.
    let mut boundaries: Vec<usize> = caps
        .iter()
        .flat_map(|&cap| [cap - 1, cap, cap + 64, cap + 65, cap + 129, cap + 130])
        .collect();
    boundaries.sort_unstable();
    boundaries.dedup();
    let mut values: Vec<Option<f64>> = Vec::new();
    let mut present = 0usize;
    let mut push = |values: &mut Vec<Option<f64>>, v: f64| {
        if boundaries.binary_search(&present).is_ok() {
            values.extend(std::iter::repeat_n(None, 7));
        }
        values.push(Some(v));
        present += 1;
    };
    for i in 0..600 {
        let season = (i % 24) as f64 / 24.0 * std::f64::consts::TAU;
        push(
            &mut values,
            100.0 + 20.0 * season.sin() + ((i * 37) % 11) as f64,
        );
    }
    for _ in 0..420 {
        push(&mut values, 7.25);
    }
    for _ in 0..420 {
        push(&mut values, 0.0);
    }
    for i in 0..420 {
        push(&mut values, 1e-152 * (1.0 + ((i * 7) % 13) as f64 / 13.0));
    }
    for i in 0..500 {
        push(&mut values, 50.0 + ((i * 13) % 17) as f64);
    }
    let cut = values.len() / 2;
    check_lanes("SVD", 0x7fff, &values, cut).unwrap();
    for lane in 0..15 {
        check_lanes("SVD", 1 << lane, &values, cut).unwrap();
    }
}

/// An hourly KPI of `len` points (at 6 weeks and up, long enough for
/// every TSD window to fill and evict, and for the 35-sample historical
/// windows to evict):
/// daily and weekly shape, missing points, missing bursts longer than a
/// day, and hour `hole_hour` absent for all of week `hole_week` (so that
/// slot's history skips a week). `kind` 0 is continuous, 1 quantized
/// (duplicate-heavy histories), 2 a mix of `0.0`, `-0.0` and small
/// integers.
fn seasonal_stream(
    seed: u64,
    len: usize,
    kind: u8,
    hole_hour: usize,
    hole_week: usize,
) -> Vec<Option<f64>> {
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut burst_left = 0usize;
    (0..len)
        .map(|i| {
            let (hour, day) = (i % 24, i / 24);
            if hour == hole_hour && day / 7 == hole_week {
                return None;
            }
            if burst_left > 0 {
                burst_left -= 1;
                return None;
            }
            let r = next();
            if r < 0.004 {
                burst_left = 25 + (next() * 40.0) as usize;
                return None;
            }
            if r < 0.03 {
                return None;
            }
            let season = (hour as f64 / 24.0 * std::f64::consts::TAU).sin();
            let weekday = if day % 7 >= 5 { -15.0 } else { 0.0 };
            let spike = if next() < 0.01 { 200.0 } else { 0.0 };
            let v = 100.0 + 30.0 * season + weekday + 5.0 * next() + spike;
            Some(match kind {
                0 => v,
                1 => (v / 10.0).round() * 10.0,
                _ => [0.0, -0.0, 1.0, -2.0, -0.0, 0.0, 3.0][(next() * 7.0) as usize % 7],
            })
        })
        .collect()
}

fn seasonal_stream_strategy() -> impl Strategy<Value = Vec<Option<f64>>> {
    (
        any::<u64>(),
        (24usize * 7 * 6)..(24 * 7 * 8), // 6..8 weeks hourly
        0u8..3,
        0usize..24,
        0usize..6,
    )
        .prop_map(|(seed, len, kind, hole_hour, hole_week)| {
            seasonal_stream(seed, len, kind, hole_hour, hole_week)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Any non-empty subset of the 10 TSD/TSD MAD lanes, over streams
    /// long enough for every slot window to fill and evict, matches the
    /// boxed detectors bit for bit, and so does a clone taken mid-stream.
    #[test]
    fn fused_tsd_subsets_match_scalar_detectors(
        mask in 1u16..(1 << 10),
        values in seasonal_stream_strategy(),
        cut_frac in 0.05f64..0.95,
    ) {
        let cut = (values.len() as f64 * cut_frac) as usize;
        check_lanes("TSD/TSD MAD", mask, &values, cut)?;
    }

    /// Likewise for any subset of the 10 historical average/MAD lanes.
    #[test]
    fn fused_historical_subsets_match_scalar_detectors(
        mask in 1u16..(1 << 10),
        values in seasonal_stream_strategy(),
        cut_frac in 0.05f64..0.95,
    ) {
        let cut = (values.len() as f64 * cut_frac) as usize;
        check_lanes("historical average/MAD", mask, &values, cut)?;
    }
}

/// The seasonal kernels on the lane masks that exercise each layout on
/// its own — only MAD lanes, only plain lanes, one window length in both
/// variants, one lane, all ten — over 20-week streams of each value kind
/// (long enough for the 2016-residual TSD spread windows to wrap too).
#[test]
fn seasonal_kernels_match_on_structured_masks() {
    let masks = [0x3e0u16, 0x01f, 1 << 2 | 1 << 7, 1 << 4, 1 << 9, 0x3ff];
    for kind in 0..3u8 {
        let values = seasonal_stream(0x5eed + u64::from(kind), 24 * 7 * 20, kind, 13, 3);
        let cut = values.len() * 2 / 3;
        for family in ["TSD/TSD MAD", "historical average/MAD"] {
            for mask in masks {
                check_lanes(family, mask, &values, cut).unwrap();
            }
        }
    }
}
