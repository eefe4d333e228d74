//! Differential proof that parallel training is bit-identical to
//! sequential training.
//!
//! The serving layer retrains forests on background threads and
//! `RandomForest::fit` builds trees on a thread pool, so the whole
//! crash-recovery and hot-swap story leans on one property: **the trained
//! forest is a pure function of (params, data)** — thread count, thread
//! scheduling, and which thread built which tree must leave no trace.
//! Every tree draws its randomness from an RNG stream derived only from
//! the master seed and the tree's index, so this should hold by
//! construction; this suite proves it structurally rather than trusting
//! the construction:
//!
//! - the serialized forest bytes (`to_bytes`) are equal — every node,
//!   threshold, and leaf probability of every tree,
//! - predictions are bit-for-bit equal (`f64::to_bits`) on probe data,
//! - the compiled inference arenas are equal (`CompiledForest: PartialEq`),
//! - a parallel-trained forest's compiled model round-trips through the
//!   model codec to the same arena and bytes,
//!
//! across a grid of forest shapes (tree count, feature budget, binned and
//! exact split search, dataset size) and explicit thread counts — *not*
//! `available_parallelism`, so the grid exercises real multi-threading
//! even on single-core CI hosts.
//!
//! The second half proves the training *data* is what it always was: a
//! pipeline keeps raw points and re-extracts its labeled history inside
//! each retrain job, and must train the same forests, predict the same
//! cThld and serve the same verdict bits as a reference that stores
//! every streamed feature row (see "Re-extraction differential" below).

use opprentice_learn::{
    Classifier, CompiledForest, Dataset, RandomForest, RandomForestParams, TrainingSet,
};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A noisy two-informative-feature dataset, the same shape the learn
/// crate's unit tests use.
fn noisy_dataset(n: usize, n_noise: usize, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut d = Dataset::new(2 + n_noise);
    for _ in 0..n {
        let f0: f64 = rng.gen_range(0.0..10.0);
        let f1: f64 = rng.gen_range(0.0..10.0);
        let mut row = vec![f0, f1];
        for _ in 0..n_noise {
            row.push(rng.gen_range(0.0..10.0));
        }
        d.push(&row, f0 + f1 > 10.0);
    }
    d
}

/// The forest-shape grid: (n_trees, max_features, n_bins, rows).
/// Covers few/many trees, restricted and default feature budgets, binned
/// and exact split search, and small through moderate datasets.
fn grid() -> Vec<(RandomForestParams, usize)> {
    [
        (4, Some(4), Some(32), 120),
        (16, None, Some(64), 300),
        (9, Some(1), None, 80),
        (12, None, None, 600),
    ]
    .into_iter()
    .enumerate()
    .map(|(i, (n_trees, max_features, n_bins, rows))| {
        (
            RandomForestParams {
                n_trees,
                max_features,
                n_bins,
                seed: 1000 + i as u64,
                ..Default::default()
            },
            rows,
        )
    })
    .collect()
}

const THREAD_COUNTS: [usize; 4] = [2, 3, 8, 64];

fn fit(params: &RandomForestParams, data: &Dataset, threads: usize) -> RandomForest {
    let mut f = RandomForest::new(params.clone());
    f.fit_with_threads(data, threads);
    f
}

/// Asserts `a` and `b` are the same forest: same serialized bytes, same
/// compiled arena, bit-identical predictions on `probes`.
fn assert_same_forest(a: &RandomForest, b: &RandomForest, probes: &Dataset, what: &str) {
    assert_eq!(a.to_bytes(), b.to_bytes(), "{what}: serialized bytes");
    assert_eq!(a.compile(), b.compile(), "{what}: compiled arena");
    for i in 0..probes.len() {
        assert_eq!(
            a.predict_proba(probes.row(i)).to_bits(),
            b.predict_proba(probes.row(i)).to_bits(),
            "{what}: prediction bits on probe row {i}"
        );
    }
}

/// The core differential: for every grid point, every thread count yields
/// byte-for-byte the forest the sequential build yields.
#[test]
fn parallel_training_is_bit_identical_to_sequential() {
    for (params, rows) in grid() {
        let train = noisy_dataset(rows, 3, params.seed);
        let probes = noisy_dataset(128, 3, params.seed + 7);
        let sequential = fit(&params, &train, 1);
        assert_eq!(sequential.tree_count(), params.n_trees);
        for threads in THREAD_COUNTS {
            let parallel = fit(&params, &train, threads);
            assert_same_forest(
                &sequential,
                &parallel,
                &probes,
                &format!("{params:?} with {threads} threads"),
            );
        }
    }
}

/// The auto-parallel entry point (`Classifier::fit`, which picks a thread
/// count from the host) is the same pure function.
#[test]
fn auto_threaded_fit_matches_explicit_sequential() {
    for (params, rows) in grid() {
        let train = noisy_dataset(rows, 3, params.seed);
        let probes = noisy_dataset(64, 3, params.seed + 11);
        let sequential = fit(&params, &train, 1);
        let mut auto = RandomForest::new(params.clone());
        auto.fit(&train);
        assert_same_forest(&sequential, &auto, &probes, &format!("{params:?} auto"));
    }
}

/// A parallel-trained forest's serving model survives a persistence
/// round-trip with its arena and bytes unchanged, and predicts the bits
/// of the forest's tree walk.
#[test]
fn parallel_trained_forest_round_trips_through_persistence() {
    let (params, rows) = grid().remove(1);
    let train = noisy_dataset(rows, 3, params.seed);
    let probes = noisy_dataset(64, 3, params.seed + 13);
    let trained = fit(&params, &train, 8);
    let compiled = trained.compile();
    let bytes = compiled.to_bytes();
    let restored = CompiledForest::from_bytes(&bytes, train.n_features()).expect("round-trip");
    assert_eq!(restored, compiled, "persistence round-trip: arena");
    assert_eq!(restored.to_bytes(), bytes);
    for i in 0..probes.len() {
        assert_eq!(
            restored.predict(probes.row(i)).to_bits(),
            trained.predict_proba(probes.row(i)).to_bits(),
            "persistence round-trip: prediction bits on probe row {i}"
        );
    }
}

/// Oversubscription far beyond the tree count (and the host's cores) is
/// harmless: the chunking clamps to one tree per thread at most.
#[test]
fn more_threads_than_trees_is_equivalent() {
    let params = RandomForestParams {
        n_trees: 3,
        seed: 99,
        ..Default::default()
    };
    let train = noisy_dataset(150, 2, 5);
    let probes = noisy_dataset(64, 2, 6);
    let sequential = fit(&params, &train, 1);
    let oversubscribed = fit(&params, &train, 256);
    assert_same_forest(
        &sequential,
        &oversubscribed,
        &probes,
        "256 threads, 3 trees",
    );
}

// ---------------------------------------------------------------------------
// Re-extraction differential.
//
// A pipeline keeps raw points, not severity rows: each retrain replays the
// labeled raw prefix through a fresh extractor inside the job, and nothing
// is extracted until the first model lands. The reference below is the
// stored-row design it replaced — every point streamed once through its
// own `OnlineExtractor` into a `FeatureMatrix`, training sets cut from the
// stored rows. Compiled arenas, cThld predictions and verdict bits must
// agree.
// ---------------------------------------------------------------------------

use opprentice::cthld::best_cthld;
use opprentice::features::{FeatureMatrix, OnlineExtractor};
use opprentice::predictor::{five_fold_cthld, EwmaCthldPredictor};
use opprentice::{Detection, Opprentice, OpprenticeConfig};
use opprentice_learn::metrics::pr_curve;
use opprentice_timeseries::{Labels, TimeSeries};

const HOUR: u32 = 3600;

fn pipeline_config() -> OpprenticeConfig {
    OpprenticeConfig {
        forest: RandomForestParams {
            n_trees: 8,
            seed: 17,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// Point `i` of an hourly KPI: a daily pattern with seeded noise, labeled
/// two-point spikes, and a few multi-hour gaps of missing values.
fn kpi_point(i: usize) -> (Option<f64>, bool) {
    let noise = ((i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 40) as f64 / (1u64 << 24) as f64;
    let base = 100.0 + 20.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin() + 4.0 * noise;
    let anomalous = i % 71 == 40 || i % 71 == 41;
    if i % 97 >= 90 {
        // A burst of missing values; spikes inside it are labeled but
        // unusable.
        return (None, anomalous);
    }
    (Some(if anomalous { base + 130.0 } else { base }), anomalous)
}

fn ts(i: usize) -> i64 {
    i as i64 * i64::from(HOUR)
}

/// The stored-row pipeline: streams every point through its extractor,
/// keeps every row, trains on rows cut from the matrix.
struct Reference {
    config: OpprenticeConfig,
    extractor: OnlineExtractor,
    matrix: FeatureMatrix,
    truth: Vec<bool>,
    compiled: Option<CompiledForest>,
    predictor: EwmaCthldPredictor,
}

/// A reference training round computed at submission, installed later.
struct Round {
    best: Option<f64>,
    init: Option<f64>,
    forest: RandomForest,
}

impl Reference {
    fn new(config: OpprenticeConfig) -> Reference {
        let extractor = OnlineExtractor::new(HOUR);
        let matrix = FeatureMatrix::new(extractor.labels());
        let predictor = EwmaCthldPredictor::new(config.cthld_alpha);
        Reference {
            config,
            extractor,
            matrix,
            truth: Vec::new(),
            compiled: None,
            predictor,
        }
    }

    fn observe(&mut self, timestamp: i64, value: Option<f64>) -> Option<Detection> {
        let row = self.extractor.observe(timestamp, value);
        self.matrix.push_row(row, value.is_some());
        value?;
        let probability = self
            .compiled
            .as_ref()?
            .predict(self.matrix.row(self.matrix.len() - 1));
        let cthld = self
            .predictor
            .predict()
            .unwrap_or(self.config.fallback_cthld);
        Some(Detection {
            probability,
            cthld,
            is_anomaly: probability >= cthld,
        })
    }

    /// Steps 1–3 of a retrain over the stored rows of the labeled prefix;
    /// `None` (after applying the week's harvest) without a usable positive.
    fn submit(&mut self) -> Option<Round> {
        let labeled = self.truth.len();
        let week_start = labeled.saturating_sub(7 * 24);
        let labels = Labels::from_flags(self.truth.clone());
        let (ds, _) = self.matrix.dataset(&labels, 0..labeled);
        let best = self.compiled.as_ref().and_then(|old| {
            let scores: Vec<Option<f64>> = (week_start..labeled)
                .map(|i| {
                    self.matrix
                        .usable(i)
                        .then(|| old.predict(self.matrix.row(i)))
                })
                .collect();
            best_cthld(
                &pr_curve(&scores, &self.truth[week_start..labeled]),
                &self.config.preference,
            )
        });
        if ds.positives() == 0 {
            if let Some(best) = best {
                self.predictor.update(best);
            }
            return None;
        }
        let mut forest = RandomForest::new(self.config.forest.clone());
        forest.fit(&ds);
        let init = (self.predictor.predict().is_none() && best.is_none()).then(|| {
            five_fold_cthld(
                &TrainingSet::new(&ds),
                &self.config.preference,
                &self.config.forest,
            )
        });
        Some(Round { best, init, forest })
    }

    fn land(&mut self, round: Round) {
        if let Some(best) = round.best {
            self.predictor.update(best);
        }
        if self.predictor.predict().is_none() {
            if let Some(init) = round.init {
                self.predictor.initialize(init);
            }
        }
        self.compiled = Some(round.forest.compile());
    }

    fn retrain(&mut self) {
        let round = self.submit().expect("reference has a usable positive");
        self.land(round);
    }
}

/// Both sides hold the same model and cThld prediction.
fn assert_same_model(p: &Opprentice, r: &Reference, what: &str) {
    assert_eq!(
        p.compiled_forest(),
        r.compiled.as_ref(),
        "{what}: compiled arena"
    );
    assert_eq!(
        p.predicted_cthld().map(f64::to_bits),
        r.predictor.predict().map(f64::to_bits),
        "{what}: cThld prediction"
    );
    assert_eq!(
        p.current_cthld().to_bits(),
        r.predictor
            .predict()
            .unwrap_or(r.config.fallback_cthld)
            .to_bits(),
        "{what}: current cThld"
    );
}

fn assert_same_verdict(a: Option<Detection>, b: Option<Detection>, what: &str) {
    assert_eq!(a, b, "{what}");
    assert_eq!(
        a.map(|d| d.probability.to_bits()),
        b.map(|d| d.probability.to_bits()),
        "{what}: probability bits"
    );
}

/// Serves points `range` to both sides; the pipeline alternates single
/// `observe` calls with `observe_batch` runs of varying length.
fn serve_mixed(p: &mut Opprentice, r: &mut Reference, range: std::ops::Range<usize>) {
    let mut i = range.start;
    let mut call = 0usize;
    while i < range.end {
        let len = [1, 30, 1, 1, 7, 64][call % 6].min(range.end - i);
        call += 1;
        let values: Vec<Option<f64>> = (i..i + len).map(|k| kpi_point(k).0).collect();
        let got = if len == 1 {
            vec![p.observe(ts(i), values[0])]
        } else {
            p.observe_batch(ts(i), &values)
        };
        for (k, v) in values.iter().enumerate() {
            let want = r.observe(ts(i + k), *v);
            assert_same_verdict(got[k], want, &format!("point {}", i + k));
        }
        i += len;
    }
}

fn label_range(p: &mut Opprentice, r: &mut Reference, range: std::ops::Range<usize>) {
    let flags: Vec<bool> = range.map(|i| kpi_point(i).1).collect();
    r.truth.extend_from_slice(&flags);
    p.ingest_labels(&Labels::from_flags(flags)).unwrap();
}

fn history(n: usize) -> (TimeSeries, Labels) {
    let mut series = TimeSeries::new(0, HOUR);
    let mut labels = Labels::all_normal(0);
    for i in 0..n {
        let (v, anomalous) = kpi_point(i);
        match v {
            Some(v) => series.push(v),
            None => series.push_missing(),
        }
        labels.push(anomalous);
    }
    (series, labels)
}

const HISTORY: usize = 21 * 24;
const WEEK: usize = 7 * 24;

/// A pipeline and a reference that both hold `HISTORY` labeled points,
/// the pipeline via `ingest_history` (raw points only, nothing extracted).
fn onboarded() -> (Opprentice, Reference) {
    let (series, labels) = history(HISTORY);
    let mut p = Opprentice::new(HOUR, pipeline_config());
    p.ingest_history(&series, &labels).unwrap();
    assert_eq!(p.extract_us(), 0, "untrained history must not be extracted");
    let mut r = Reference::new(pipeline_config());
    for i in 0..HISTORY {
        r.observe(ts(i), kpi_point(i).0);
    }
    r.truth = labels.flags().to_vec();
    (p, r)
}

/// A model after a trip through its stored bytes.
fn stored(model: &CompiledForest) -> CompiledForest {
    let width = OnlineExtractor::new(HOUR).n_features();
    CompiledForest::from_bytes(&model.to_bytes(), width).expect("stored model decodes")
}

/// FNV-1a over the bits of every usable row.
fn row_hash(rows: impl Iterator<Item = Vec<f64>>) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for row in rows {
        for v in row {
            for b in v.to_bits().to_le_bytes() {
                h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
            }
        }
    }
    h
}

/// Replaying the raw prefix in the pipeline's retrain chunks gives the
/// streamed rows bit for bit.
#[test]
fn reextracted_prefix_hashes_like_the_streamed_rows() {
    let (_, r) = onboarded();
    let mut replayed = OnlineExtractor::new(HOUR);
    let m = replayed.n_features();
    let mut rows = Vec::new();
    for chunk in (0..HISTORY).collect::<Vec<_>>().chunks(256) {
        let t: Vec<i64> = chunk.iter().map(|&i| ts(i)).collect();
        let v: Vec<Option<f64>> = chunk.iter().map(|&i| kpi_point(i).0).collect();
        let out = replayed.observe_batch(&t, &v);
        for (k, value) in v.iter().enumerate() {
            if value.is_some() {
                rows.push(
                    out[k * m..(k + 1) * m]
                        .iter()
                        .map(|s| s.unwrap_or(0.0))
                        .collect(),
                );
            }
        }
    }
    let streamed = (0..r.matrix.len())
        .filter(|&i| r.matrix.usable(i))
        .map(|i| r.matrix.row(i).to_vec());
    assert_eq!(row_hash(rows.into_iter()), row_hash(streamed));
}

/// Served points that were later labeled feed two more retrains, through
/// mixed single and batched calls with missing-value bursts.
#[test]
fn retrains_over_served_points_match_the_stored_row_reference() {
    let (mut p, mut r) = onboarded();
    assert!(p.retrain());
    r.retrain();
    assert_same_model(&p, &r, "first retrain");

    let mut end = HISTORY;
    for round in 0..2 {
        serve_mixed(&mut p, &mut r, end..end + WEEK);
        label_range(&mut p, &mut r, end..end + WEEK);
        end += WEEK;
        assert!(p.retrain());
        r.retrain();
        assert_same_model(&p, &r, &format!("retrain over served week {round}"));
    }
    serve_mixed(&mut p, &mut r, end..end + 48);
    assert_eq!(p.observed_len(), r.matrix.len());
}

/// Points served while the first job is in flight are recorded raw and
/// answered pending; the landing catches the job's extractor up over them.
#[test]
fn points_served_during_the_first_job_are_caught_up() {
    let (mut p, mut r) = onboarded();
    p.start_retrain().unwrap();
    let round = r.submit().unwrap();
    for i in HISTORY..HISTORY + 40 {
        let v = kpi_point(i).0;
        assert_eq!(p.observe(ts(i), v), None, "pending while untrained");
        assert_eq!(r.observe(ts(i), v), None);
    }
    let values: Vec<Option<f64>> = (HISTORY + 40..HISTORY + 70)
        .map(|i| kpi_point(i).0)
        .collect();
    assert!(p
        .observe_batch(ts(HISTORY + 40), &values)
        .iter()
        .all(Option::is_none));
    for (k, v) in values.iter().enumerate() {
        r.observe(ts(HISTORY + 40 + k), *v);
    }
    p.wait_retrain().unwrap();
    r.land(round);
    assert_same_model(&p, &r, "first model");
    serve_mixed(&mut p, &mut r, HISTORY + 70..HISTORY + WEEK);
    label_range(&mut p, &mut r, HISTORY..HISTORY + WEEK);
    assert!(p.retrain());
    r.retrain();
    assert_same_model(&p, &r, "second model");
    serve_mixed(&mut p, &mut r, HISTORY + WEEK..HISTORY + WEEK + 48);
}

/// A restored model on a session that has only recorded raw points makes
/// the restore replay them: verdicts continue as if it had always served.
#[test]
fn restore_on_an_unextracted_session_replays_the_raw_log() {
    let (mut trained, mut r) = onboarded();
    assert!(trained.retrain());
    r.retrain();
    let (mut fresh, _) = onboarded();
    // More raw points, before and after the model comes back.
    for i in HISTORY..HISTORY + 20 {
        let v = kpi_point(i).0;
        assert_eq!(fresh.observe(ts(i), v), None);
        r.observe(ts(i), v);
    }
    assert_eq!(fresh.extract_us(), 0);
    fresh.restore_trained_state(
        trained.compiled_forest().map(stored),
        trained.predicted_cthld(),
        trained.model_version(),
    );
    assert_same_model(&fresh, &r, "restored");
    serve_mixed(&mut fresh, &mut r, HISTORY + 20..HISTORY + 20 + WEEK);
    label_range(&mut fresh, &mut r, HISTORY..HISTORY + 20 + WEEK);
    assert!(fresh.retrain());
    r.retrain();
    assert_same_model(&fresh, &r, "retrained after restore");
}

/// A retrain whose labeled prefix holds no usable anomaly, on a session
/// that already serves a model, changes nothing — the reference still
/// runs the old model over the week's stored rows, and finds no best
/// cThld to apply either.
#[test]
fn retrain_without_usable_anomaly_matches_the_reference_harvest() {
    let (trained, mut donor) = onboarded();
    drop(trained);
    donor.retrain();

    // Same points, but every anomaly flag sits on a missing value only.
    let flags: Vec<bool> = (0..HISTORY)
        .map(|i| kpi_point(i).1 && kpi_point(i).0.is_none())
        .collect();
    let (series, _) = history(HISTORY);
    let mut p = Opprentice::new(HOUR, pipeline_config());
    p.ingest_history(&series, &Labels::from_flags(flags.clone()))
        .unwrap();
    let mut r = Reference::new(pipeline_config());
    for i in 0..HISTORY {
        r.observe(ts(i), kpi_point(i).0);
    }
    r.truth = flags;
    let prediction = donor.predictor.predict();
    p.restore_trained_state(donor.compiled.as_ref().map(stored), prediction, 1);
    r.compiled = donor.compiled.as_ref().map(stored);
    if let Some(c) = prediction {
        r.predictor.initialize(c);
    }
    assert_same_model(&p, &r, "restored");

    assert_eq!(
        p.start_retrain(),
        Err(opprentice::RetrainError::NoLabeledAnomaly)
    );
    assert!(r.submit().is_none());
    assert_eq!(p.model_version(), 1);
    assert_same_model(&p, &r, "after the no-anomaly retrain");
    serve_mixed(&mut p, &mut r, HISTORY..HISTORY + 48);
}

// ---------------------------------------------------------------------------
// Pinned forests.
//
// The differentials above compare the engine with itself. These digests
// pin its output to fixed values, recorded before the training set was
// sorted once and shared across folds; the 256-bin forest and the folds
// that hold tie groups out whole were recorded before the sort marked
// ties and the codes took the label bit. Any change to edge selection,
// tie order, histogram arithmetic or tree layout shows up here.
// ---------------------------------------------------------------------------

use opprentice::cthld::Preference;
use opprentice::features::extract_features;

/// FNV-1a over a forest's serialized bytes.
fn forest_digest(forest: &RandomForest) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for b in forest.to_bytes() {
        h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// Rows `1440..1440 + rows` of the 133 features extracted from the
/// 1-minute pv preset: the second day, where the weekly detectors still
/// emit nothing, so many columns hold long runs of exact-zero ties.
fn pv_slice(rows: usize) -> Dataset {
    let mut spec = opprentice_datagen::presets::pv();
    spec.weeks = 1;
    let kpi = spec.generate();
    let end = 1440 + rows;
    let matrix = extract_features(&kpi.series.slice(0..end));
    matrix.dataset(&kpi.truth.slice(0..end), 1440..end).0
}

/// A column that mixes `-0.0` and `0.0` (phase picks which comes first in
/// row order), with negatives below and positives above. Anomalies are the
/// non-negative values, so the root splits at a zero edge, whose sign bit
/// the sort's tie order decides.
fn signed_zero_dataset(phase: usize) -> Dataset {
    let mut d = Dataset::new(2);
    for i in 0..240usize {
        let v = match i % 4 {
            0 | 1 if (i / 4 + phase).is_multiple_of(2) => [-0.0, 0.0][i % 2],
            0 | 1 => [0.0, -0.0][i % 2],
            2 => -1.0 - (i % 7) as f64,
            _ => 1.0 + (i % 5) as f64,
        };
        let noise = ((i * 37) % 11) as f64;
        d.push(&[v, noise], v >= 0.0 || i % 29 == 3);
    }
    d
}

fn pinned_params(n_trees: usize, n_bins: Option<usize>, seed: u64) -> RandomForestParams {
    RandomForestParams {
        n_trees,
        n_bins,
        seed,
        ..Default::default()
    }
}

#[test]
fn forests_hash_to_their_pinned_values() {
    let mut got = Vec::new();
    for (params, rows) in grid() {
        got.push(forest_digest(&fit(
            &params,
            &noisy_dataset(rows, 3, params.seed),
            1,
        )));
    }
    let pv = pv_slice(1440);
    let pv_exact = pv_slice(480);
    got.push(forest_digest(&fit(&pinned_params(8, Some(64), 5), &pv, 1)));
    got.push(forest_digest(&fit(&pinned_params(6, Some(16), 6), &pv, 1)));
    got.push(forest_digest(&fit(
        &pinned_params(4, None, 7),
        &pv_exact,
        1,
    )));
    for phase in 0..2 {
        let d = signed_zero_dataset(phase);
        got.push(forest_digest(&fit(&pinned_params(5, Some(64), 8), &d, 1)));
        got.push(forest_digest(&fit(&pinned_params(5, Some(8), 9), &d, 1)));
        got.push(forest_digest(&fit(&pinned_params(3, None, 10), &d, 1)));
    }
    assert_eq!(got, PINNED_FORESTS);
    // More than 128 bins: the codes no longer fit a byte.
    let wide = forest_digest(&fit(&pinned_params(6, Some(256), 12), &pv, 1));
    assert_eq!(wide, PINNED_WIDE_FOREST, "256 bins");
}

/// Columns whose tie groups sit inside one five-fold block of 240 rows:
/// column 0's zeros of both signs only in rows 96..144 (the third fold),
/// column 1's 7.5s only in rows 0..48 (the first). A fold that holds such
/// a block out loses the whole group, together with the edges it held.
fn held_out_tie_dataset() -> Dataset {
    let mut d = Dataset::new(3);
    for i in 0..240usize {
        let v0 = if (96..144).contains(&i) && i % 3 != 2 {
            [-0.0, 0.0][(i / 3) % 2]
        } else {
            [-2.0, -1.0, 1.0, 2.0][i % 4] + (i % 3) as f64 * 0.25
        };
        let v1 = if i < 48 && i % 2 == 0 {
            7.5
        } else {
            ((i * 37) % 11) as f64
        };
        let v2 = ((i * 53) % 17) as f64 - 8.0;
        d.push(&[v0, v1, v2], (v0 >= 0.0 && i % 5 != 1) || i % 31 == 7);
    }
    d
}

/// Each five-fold forest on the pv slice: trained on everything but one
/// contiguous held-out block, through the shared sort at several thread
/// counts, and on a copy of the kept rows.
#[test]
fn fold_forests_hash_to_their_pinned_values() {
    let pv = pv_slice(1440);
    let set = TrainingSet::new(&pv);
    let params = pinned_params(8, Some(64), 11);
    for threads in [1, 3] {
        let mut shared = Vec::new();
        let mut copied = Vec::new();
        for test in opprentice_learn::cv::k_fold(pv.len(), 5) {
            let mut f = RandomForest::new(params.clone());
            f.fit_held_out(&set, test.clone(), threads);
            shared.push(forest_digest(&f));
            let kept: Vec<usize> = (0..pv.len()).filter(|i| !test.contains(i)).collect();
            copied.push(forest_digest(&fit(&params, &pv.subset(&kept), threads)));
        }
        assert_eq!(shared, PINNED_FOLDS, "shared sort, {threads} threads");
        assert_eq!(copied, PINNED_FOLDS, "copied rows, {threads} threads");
    }

    let ties = held_out_tie_dataset();
    let set = TrainingSet::new(&ties);
    for threads in [1, 3] {
        let mut shared = Vec::new();
        let mut copied = Vec::new();
        for (bins, seed) in [(64, 13), (8, 14)] {
            let params = pinned_params(6, Some(bins), seed);
            for test in opprentice_learn::cv::k_fold(ties.len(), 5) {
                let mut f = RandomForest::new(params.clone());
                f.fit_held_out(&set, test.clone(), threads);
                shared.push(forest_digest(&f));
                let kept: Vec<usize> = (0..ties.len()).filter(|i| !test.contains(i)).collect();
                copied.push(forest_digest(&fit(&params, &ties.subset(&kept), threads)));
            }
        }
        assert_eq!(shared, PINNED_TIE_FOLDS, "shared sort, {threads} threads");
        assert_eq!(copied, PINNED_TIE_FOLDS, "copied rows, {threads} threads");
    }
}

#[test]
fn five_fold_cthld_on_the_pv_slice_is_pinned() {
    let pv = pv_slice(1440);
    let cthld = five_fold_cthld(
        &TrainingSet::new(&pv),
        &Preference::moderate(),
        &pinned_params(8, Some(64), 11),
    );
    assert_eq!(cthld.to_bits(), PINNED_CTHLD.to_bits(), "cThld {cthld}");
}

const PINNED_FORESTS: [u64; 13] = [
    0x49fc_c93a_5580_3c74,
    0x8b04_49b7_770c_93e4,
    0xda0c_2b83_b548_adcc,
    0x7d88_3720_8888_8148,
    0xfe91_5e15_232a_0832,
    0x5067_7240_65af_63dd,
    0x3d67_83f2_de01_d52d,
    0x1a3b_b445_25e0_1da4,
    0x6ed5_8a21_a400_2760,
    0x2d2e_8160_5c0a_9086,
    0x5081_3242_c0f2_57a4,
    0x32fc_ec4e_51f3_5ce0,
    0x2d2e_8160_5c0a_9086,
];
const PINNED_FOLDS: [u64; 5] = [
    0x2ef8_d04b_9ef4_bccf,
    0xcec8_2b40_09b7_1558,
    0x39c0_b8bb_cc0f_0f26,
    0xa314_2a1b_39d0_cb41,
    0x6c93_696e_14f8_31af,
];
const PINNED_WIDE_FOREST: u64 = 0x0c93_de21_bc30_9769;
const PINNED_TIE_FOLDS: [u64; 10] = [
    0x7d87_b916_6b25_1268,
    0xb560_cf70_27c9_eeb3,
    0x81b1_97ed_58ad_949a,
    0xdc05_db4a_4c4d_7234,
    0x25fa_f8b4_d19f_9a69,
    0x3430_f1eb_e1ba_48c6,
    0xe143_b382_c45b_c43d,
    0x1dc3_8ccb_e0e8_d760,
    0x0367_a88a_7014_05be,
    0xdb50_b171_1003_031b,
];
const PINNED_CTHLD: f64 = 0.626;
