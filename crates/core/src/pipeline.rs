//! The deployable Opprentice pipeline (Fig. 3): ingest labeled history,
//! retrain periodically, detect incoming points online.
//!
//! From the operators' view there are exactly two interactions (§4.1):
//! specify an accuracy preference once, and label anomalies periodically.
//! Everything else — feature extraction by the 133 detector configurations,
//! random-forest training, cThld selection and prediction — happens inside
//! this type.

use crate::cthld::{best_cthld, Preference};
use crate::error::PipelineError;
use crate::features::{replay, OnlineExtractor};
use crate::predictor::{five_fold_cthld, EwmaCthldPredictor};
use opprentice_learn::metrics::pr_curve;
use opprentice_learn::{CompiledForest, Dataset, RandomForest, RandomForestParams, TrainingSet};
use opprentice_numeric::parallel::configured_threads;
use opprentice_timeseries::{Labels, TimeSeries};
use std::thread::JoinHandle;
use std::time::Instant;

/// Configuration of an [`Opprentice`] instance.
#[derive(Debug, Clone, PartialEq)]
pub struct OpprenticeConfig {
    /// The operators' accuracy preference ("recall ≥ R and precision ≥ P").
    pub preference: Preference,
    /// Random-forest hyperparameters.
    pub forest: RandomForestParams,
    /// Smoothing constant of the EWMA cThld predictor (0.8 in the paper).
    pub cthld_alpha: f64,
    /// cThld used before any prediction exists (the forest default, 0.5).
    pub fallback_cthld: f64,
}

impl Default for OpprenticeConfig {
    fn default() -> Self {
        Self {
            preference: Preference::moderate(),
            forest: RandomForestParams::default(),
            cthld_alpha: 0.8,
            fallback_cthld: 0.5,
        }
    }
}

/// The verdict for one incoming point.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Detection {
    /// Anomaly probability from the random forest (vote fraction).
    pub probability: f64,
    /// The cThld in effect when the point was classified.
    pub cthld: f64,
    /// `probability >= cthld`.
    pub is_anomaly: bool,
}

/// Why [`Opprentice::start_retrain`] refused to start a job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RetrainError {
    /// A background retrain is already in flight; poll or wait for it.
    AlreadyTraining,
    /// No labeled anomalous sample exists yet — nothing to learn from.
    NoLabeledAnomaly,
    /// The configured forest params are ones no fit can use; the field is
    /// named (see `RandomForestParams::validate`).
    UnusableForestParams(&'static str),
}

impl std::fmt::Display for RetrainError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RetrainError::AlreadyTraining => write!(f, "retrain already in progress"),
            RetrainError::NoLabeledAnomaly => write!(f, "need at least one labeled anomaly"),
            RetrainError::UnusableForestParams(field) => {
                write!(f, "forest param `{field}` is unusable")
            }
        }
    }
}

impl std::error::Error for RetrainError {}

/// What a completed retrain installed — returned by
/// [`Opprentice::poll_retrain`] / [`Opprentice::wait_retrain`] when the
/// model swap lands.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrainingReport {
    /// The job id [`Opprentice::start_retrain`] handed out.
    pub job_id: u64,
    /// The model version now serving (increments by one per swap).
    pub model_version: u64,
    /// The cThld in effect after the swap.
    pub cthld: f64,
    /// Wall-clock microseconds the job spent training.
    pub train_us: u64,
}

/// An in-flight background training job.
struct TrainingJob {
    id: u64,
    /// Raw points the job replays (the labeled prefix at submission). A
    /// handed-back extractor has consumed exactly these.
    prefix: usize,
    handle: JoinHandle<TrainOutcome>,
}

/// Everything a training job computes off-thread; installed atomically
/// (from the observer's point of view) by the poll that lands it.
struct TrainOutcome {
    /// Best cThld of the latest labeled week under the *old* model.
    best: Option<f64>,
    /// 5-fold initialization value, computed only when the predictor would
    /// otherwise still be uninitialized after applying `best`.
    init: Option<f64>,
    compiled: CompiledForest,
    /// The job's extractor, advanced over the labeled prefix — handed back
    /// only when the session had no serving extractor at submission, so
    /// the first model's history is extracted exactly once.
    extractor: Option<OnlineExtractor>,
    train_ns: u64,
}

/// The operators' apprentice: the end-to-end anomaly detection pipeline.
///
/// Every observed point is kept as a raw `(timestamp, value)` pair — the
/// history a retrain learns from (§4.5, strategy I4). Severity rows are
/// never stored: a retrain replays the labeled raw prefix through a fresh
/// extractor inside its job, which yields bit-identical rows because
/// extraction is deterministic. Before the first model lands nothing is
/// extracted at all (every verdict would be pending anyway); the first
/// job's extractor becomes the serving one.
pub struct Opprentice {
    config: OpprenticeConfig,
    interval: u32,
    /// Every observed point, in arrival order (24 bytes each).
    raw: Vec<(i64, Option<f64>)>,
    /// The serving extractor: `None` until a model is first installed,
    /// afterwards advanced over exactly the points in `raw`.
    extractor: Option<OnlineExtractor>,
    /// The served point's severity row (`None` → 0.0), reused per point.
    row: Vec<f64>,
    truth: Labels,
    /// The serving model: the trained forest flattened for the hot path.
    /// The tree-enum forest itself never leaves the training job.
    compiled: Option<CompiledForest>,
    predictor: EwmaCthldPredictor,
    /// Cumulative wall-clock nanoseconds spent in serving-thread feature
    /// extraction (live points, plus the catch-up when a model is
    /// installed).
    extract_ns: u64,
    /// Cumulative wall-clock nanoseconds spent scoring (row conversion +
    /// forest prediction).
    infer_ns: u64,
    /// Cumulative wall-clock nanoseconds spent training (sync and
    /// background jobs, measured inside the job thread, re-extraction of
    /// the labeled history included).
    train_ns: u64,
    /// Counts installed models: 0 = untrained, +1 per completed retrain
    /// (or set directly when a snapshot is restored).
    model_version: u64,
    /// Monotonic job-id source for [`Opprentice::start_retrain`].
    next_job_id: u64,
    /// The in-flight background training job, if any. Dropping the
    /// pipeline abandons the job: its thread finishes detached and the
    /// result is discarded, which is exactly the crash semantics the
    /// serving layer wants (a swap only exists once it was polled in).
    job: Option<TrainingJob>,
}

/// Writes a severity row into `dst` with missing verdicts as 0.0 — the
/// one conversion a served row gets (a retrain converts its rows the same
/// way, straight into the training set).
fn fill_row(dst: &mut [f64], severities: &[Option<f64>]) {
    for (d, s) in dst.iter_mut().zip(severities) {
        *d = s.unwrap_or(0.0);
    }
}

/// Re-extracts the labeled prefix for a retrain round: the training set
/// (every usable point, in order — exactly what `FeatureMatrix::dataset`
/// over streamed rows builds) and, when `old` is given, the old model's
/// score of every point of the latest labeled week (`None` where the
/// value is missing). Returns the advanced extractor too.
fn reextract(
    interval: u32,
    points: &[(i64, Option<f64>)],
    flags: &[bool],
    week_start: usize,
    old: Option<&CompiledForest>,
) -> (OnlineExtractor, Dataset, Vec<Option<f64>>) {
    let mut extractor = OnlineExtractor::new(interval);
    let m = extractor.n_features();
    // Sized up front: the training rows are written once, never moved.
    let usable = points.iter().filter(|p| p.1.is_some()).count();
    let mut features = Vec::with_capacity(usable * m);
    let mut labels = Vec::with_capacity(usable);
    let mut week_scores = vec![None; points.len() - week_start];
    replay(&mut extractor, points, |i, severities| {
        if points[i].1.is_none() {
            return;
        }
        let at = features.len();
        features.extend(severities.iter().map(|s| s.unwrap_or(0.0)));
        labels.push(flags[i]);
        if let Some(old) = old.filter(|_| i >= week_start) {
            week_scores[i - week_start] = Some(old.predict(&features[at..]));
        }
    });
    (
        extractor,
        Dataset::from_rows(m, features, labels),
        week_scores,
    )
}

impl Opprentice {
    /// Creates a fresh pipeline for a KPI sampled every `interval` seconds.
    pub fn new(interval: u32, config: OpprenticeConfig) -> Self {
        let predictor = EwmaCthldPredictor::new(config.cthld_alpha);
        Self {
            config,
            interval,
            raw: Vec::new(),
            extractor: None,
            row: Vec::new(),
            truth: Labels::all_normal(0),
            compiled: None,
            predictor,
            extract_ns: 0,
            infer_ns: 0,
            train_ns: 0,
            model_version: 0,
            next_job_id: 0,
            job: None,
        }
    }

    /// Number of points observed so far.
    pub fn observed_len(&self) -> usize {
        self.raw.len()
    }

    /// Every point observed so far as `(timestamp, value)`, in arrival
    /// order: the raw log a retrain re-extracts from.
    pub fn raw_points(&self) -> &[(i64, Option<f64>)] {
        &self.raw
    }

    /// Number of points with operator labels so far.
    pub fn labeled_len(&self) -> usize {
        self.truth.len()
    }

    /// The cThld currently in effect.
    pub fn current_cthld(&self) -> f64 {
        self.predictor
            .predict()
            .unwrap_or(self.config.fallback_cthld)
    }

    /// `true` once a classifier has been trained.
    pub fn is_trained(&self) -> bool {
        self.compiled.is_some()
    }

    /// The configuration the pipeline was created with.
    pub fn config(&self) -> &OpprenticeConfig {
        &self.config
    }

    /// The KPI sampling interval in seconds.
    pub fn interval(&self) -> u32 {
        self.interval
    }

    /// Cumulative wall-clock microseconds the serving thread spent
    /// extracting features over the pipeline's lifetime
    /// ([`Opprentice::observe`] and [`Opprentice::observe_batch`], plus
    /// the catch-up over unextracted points when a model is installed).
    /// Zero until the first model lands: nothing is extracted before it,
    /// and a retrain's re-extraction of the history counts as training
    /// ([`Opprentice::train_us`]).
    ///
    /// This is the *caller-experienced* latency of extraction calls: under
    /// the fused batch path the family kernels run concurrently on the
    /// worker pool, so this is less than the summed kernel time. Per-family
    /// CPU attribution lives in
    /// [`OnlineExtractor::family_stats`](crate::features::OnlineExtractor::family_stats).
    pub fn extract_us(&self) -> u64 {
        self.extract_ns / 1_000
    }

    /// Cumulative wall-clock microseconds spent scoring (row conversion +
    /// forest prediction) over the pipeline's lifetime.
    pub fn infer_us(&self) -> u64 {
        self.infer_ns / 1_000
    }

    /// Cumulative wall-clock microseconds spent training over the
    /// pipeline's lifetime (counted when a job lands, sync or background),
    /// including each round's re-extraction of the labeled history.
    pub fn train_us(&self) -> u64 {
        self.train_ns / 1_000
    }

    /// The serving model's version: 0 until the first training round, then
    /// incremented by one on every installed retrain. A restored snapshot
    /// carries its version, so a recovered session continues the count.
    pub fn model_version(&self) -> u64 {
        self.model_version
    }

    /// `true` while a background retrain job is in flight (submitted and
    /// not yet polled in — even if its thread has already finished).
    pub fn training_in_flight(&self) -> bool {
        self.job.is_some()
    }

    /// The operator labels accumulated so far.
    pub fn labels(&self) -> &Labels {
        &self.truth
    }

    /// The serving model, if trained: the trained forest compiled, its
    /// predictions bit-identical to the forest's tree walk.
    pub fn compiled_forest(&self) -> Option<&CompiledForest> {
        self.compiled.as_ref()
    }

    /// The raw EWMA prediction state (`None` before initialization) —
    /// exposed for snapshotting; [`Opprentice::current_cthld`] is the
    /// operational view.
    pub fn predicted_cthld(&self) -> Option<f64> {
        self.predictor.predict()
    }

    /// Installs externally restored trained state (a decoded snapshot):
    /// the serving model, the EWMA prediction, and the model version the
    /// snapshot was taken at. Observation and label state are *not*
    /// touched — the caller rebuilds those by replaying the write-ahead
    /// log, which is what keeps restored sessions scoring identically to
    /// uninterrupted ones. Installing a model on a session that has not
    /// extracted yet replays every observed point through a fresh serving
    /// extractor first.
    pub fn restore_trained_state(
        &mut self,
        model: Option<CompiledForest>,
        prediction: Option<f64>,
        model_version: u64,
    ) {
        self.compiled = model;
        self.model_version = model_version;
        match prediction {
            Some(c) => self.predictor.initialize(c),
            None => self.predictor = EwmaCthldPredictor::new(self.config.cthld_alpha),
        }
        if self.compiled.is_some() && self.extractor.is_none() {
            self.install_extractor(OnlineExtractor::new(self.interval), 0);
        }
    }

    /// Makes `extractor`, already advanced over `raw[..from]`, the serving
    /// extractor after catching it up over the rest of the raw log.
    fn install_extractor(&mut self, mut extractor: OnlineExtractor, from: usize) {
        let t0 = Instant::now();
        replay(&mut extractor, &self.raw[from..], |_, _| {});
        self.extract_ns += t0.elapsed().as_nanos() as u64;
        self.row = vec![0.0; extractor.n_features()];
        self.extractor = Some(extractor);
    }

    /// Records an already-labeled historical series — the initial setup
    /// step ("operators … label anomalies in the historical data at the
    /// beginning", §4.1). An untrained pipeline only stores the raw
    /// points; the first retrain extracts them.
    ///
    /// # Errors
    ///
    /// Fails without modifying the pipeline if called after points have
    /// been observed, if the series interval differs, or if labels and
    /// series lengths differ.
    pub fn ingest_history(
        &mut self,
        series: &TimeSeries,
        labels: &Labels,
    ) -> Result<(), PipelineError> {
        if !self.raw.is_empty() {
            return Err(PipelineError::HistoryAfterObservations {
                observed: self.raw.len(),
            });
        }
        if series.interval() != self.interval {
            return Err(PipelineError::IntervalMismatch {
                expected: self.interval,
                got: series.interval(),
            });
        }
        if series.len() != labels.len() {
            return Err(PipelineError::LengthMismatch {
                series: series.len(),
                labels: labels.len(),
            });
        }
        self.raw = series.iter().collect();
        if let Some(extractor) = self.extractor.take() {
            // A model restored onto the empty session serves already.
            self.install_extractor(extractor, 0);
        }
        self.truth = labels.clone();
        Ok(())
    }

    /// Feeds one incoming point; returns the verdict (or `None` when no
    /// classifier is trained yet or the point is missing).
    ///
    /// This is the serving hot path: the raw point is appended to the log,
    /// and the severity row is converted once into a reused buffer (no
    /// per-point allocation) for the compiled forest to score. Before the
    /// first model only the raw point is recorded.
    pub fn observe(&mut self, timestamp: i64, value: Option<f64>) -> Option<Detection> {
        self.raw.push((timestamp, value));
        let extractor = self.extractor.as_mut()?;
        let t0 = Instant::now();
        let severities = extractor.observe(timestamp, value);
        // One clock read ends extraction and starts inference.
        let t1 = Instant::now();
        self.extract_ns += (t1 - t0).as_nanos() as u64;
        let verdict = match (value, self.compiled.as_ref()) {
            (Some(_), Some(compiled)) => {
                fill_row(&mut self.row, severities);
                let probability = compiled.predict(&self.row);
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
            _ => None,
        };
        self.infer_ns += t1.elapsed().as_nanos() as u64;
        verdict
    }

    /// Feeds a run of consecutive points starting at `start` (each
    /// subsequent point one interval later); returns one verdict slot per
    /// point. Verdicts are bit-identical to calling [`Opprentice::observe`]
    /// once per point — the batch path only shards the 133 detector
    /// configurations across a worker pool.
    pub fn observe_batch(&mut self, start: i64, values: &[Option<f64>]) -> Vec<Option<Detection>> {
        let step = i64::from(self.interval);
        let timestamps: Vec<i64> = (0..values.len() as i64).map(|i| start + i * step).collect();
        self.raw
            .extend(timestamps.iter().copied().zip(values.iter().copied()));
        let Some(extractor) = self.extractor.as_mut() else {
            return vec![None; values.len()];
        };
        let m = extractor.n_features();

        let t0 = Instant::now();
        let rows = extractor.observe_batch(&timestamps, values);
        let t1 = Instant::now();
        self.extract_ns += (t1 - t0).as_nanos() as u64;

        let cthld = self
            .predictor
            .predict()
            .unwrap_or(self.config.fallback_cthld);
        let compiled = self.compiled.as_ref();
        let mut out = Vec::with_capacity(values.len());
        for (i, v) in values.iter().enumerate() {
            out.push(match (v, compiled) {
                (Some(_), Some(c)) => {
                    fill_row(&mut self.row, &rows[i * m..(i + 1) * m]);
                    let probability = c.predict(&self.row);
                    Some(Detection {
                        probability,
                        cthld,
                        is_anomaly: probability >= cthld,
                    })
                }
                _ => None,
            });
        }
        self.infer_ns += t1.elapsed().as_nanos() as u64;
        out
    }

    /// Appends operator labels for the oldest `labels.len()` unlabeled
    /// points — the periodic (e.g. weekly) labeling session. "All the data
    /// are labeled only once" (§4.1).
    ///
    /// # Errors
    ///
    /// Fails without modifying the pipeline if more labels arrive than
    /// there are unlabeled points.
    pub fn ingest_labels(&mut self, labels: &Labels) -> Result<(), PipelineError> {
        if self.truth.len() + labels.len() > self.raw.len() {
            return Err(PipelineError::LabelsBeyondData {
                observed: self.raw.len(),
                labeled: self.truth.len(),
                incoming: labels.len(),
            });
        }
        for i in 0..labels.len() {
            self.truth.push(labels.is_anomaly(i));
        }
        Ok(())
    }

    /// Incrementally retrains the classifier on all labeled data and
    /// refreshes the cThld prediction (§4.5.2):
    ///
    /// 1. the previous classifier (if any) is scored on the latest labeled
    ///    week to find that week's *best* cThld, which updates the EWMA
    ///    prediction;
    /// 2. a new forest is trained on every labeled, usable point;
    /// 3. on the very first training round, the prediction is initialized
    ///    by 5-fold cross-validation.
    ///
    /// This synchronous call is [`Opprentice::start_retrain`] +
    /// [`Opprentice::wait_retrain`] — the exact machinery the background
    /// path uses, so sync and async retraining are bit-identical by
    /// construction. An already in-flight background job is waited for (and
    /// installed) first.
    ///
    /// Returns `false` when there is not yet enough labeled data (no
    /// anomalous sample at all).
    pub fn retrain(&mut self) -> bool {
        self.wait_retrain();
        match self.start_retrain() {
            Ok(_) => self.wait_retrain().is_some(),
            Err(_) => false,
        }
    }

    /// Submits a background training job over a snapshot of the labeled
    /// raw points taken *now*; [`Opprentice::observe`] /
    /// [`Opprentice::observe_batch`] keep serving the current model (and
    /// cThld) until a later [`Opprentice::poll_retrain`] or
    /// [`Opprentice::wait_retrain`] installs the result. Returns the job id.
    ///
    /// The job re-extracts the labeled prefix through a fresh extractor to
    /// rebuild the training set and the latest week's rows — bit-identical
    /// to the rows served, since extraction is deterministic. Labels
    /// ingested after submission do not affect the job (it trains on the
    /// snapshot), and neither do new observations — which is what makes
    /// the swap well-defined: the trained model depends only on the labeled
    /// prefix at submission time.
    ///
    /// # Errors
    ///
    /// [`RetrainError::UnusableForestParams`] if no fit can use the
    /// configured forest params (checked before anything else, so no job
    /// starts); [`RetrainError::AlreadyTraining`] if a job is in flight;
    /// [`RetrainError::NoLabeledAnomaly`] if the labeled data holds no
    /// usable anomalous sample. Nothing changes then: step 1's harvest over
    /// the latest week could not find a best cThld either, since the week
    /// holds no usable positive.
    pub fn start_retrain(&mut self) -> Result<u64, RetrainError> {
        self.config
            .forest
            .validate()
            .map_err(RetrainError::UnusableForestParams)?;
        if self.job.is_some() {
            return Err(RetrainError::AlreadyTraining);
        }
        let labeled = self.truth.len();
        let ppw = (7 * 86_400 / i64::from(self.interval)) as usize;
        let week_start = labeled.saturating_sub(ppw);
        let points = &self.raw[..labeled];
        let flags = &self.truth.flags()[..labeled];

        if !points.iter().zip(flags).any(|(p, &f)| f && p.1.is_some()) {
            // Nothing to train on. Step 1 has nothing to harvest either:
            // the latest week is part of the labeled prefix, so its PR
            // curve holds no usable positive and yields no best cThld —
            // no rows need re-extracting to learn that.
            return Err(RetrainError::NoLabeledAnomaly);
        }

        // Snapshot everything the job needs: the labeled raw points and
        // their flags. The old model is handed over as its compiled form,
        // whose predictions are bit-identical to the tree walk.
        let points = points.to_vec();
        let flags = flags.to_vec();
        let old = self.compiled.clone();
        let hand_back = self.extractor.is_none();
        let interval = self.interval;
        let preference = self.config.preference;
        let params = self.config.forest.clone();
        let has_prediction = self.predictor.predict().is_some();

        self.next_job_id += 1;
        let id = self.next_job_id;
        let handle = std::thread::Builder::new()
            .name(format!("retrain-{id}"))
            .spawn(move || {
                let t0 = Instant::now();
                let (extractor, ds, scores) =
                    reextract(interval, &points, &flags, week_start, old.as_ref());
                // Without an old model every score is `None`: no curve, no best.
                let best = best_cthld(&pr_curve(&scores, &flags[week_start..]), &preference);
                // The model and the five cThld folds share one column sort.
                // Only the compiled model leaves the job.
                let set = TrainingSet::new(&ds);
                let mut forest = RandomForest::new(params.clone());
                forest.fit_held_out(&set, 0..0, configured_threads());
                let compiled = forest.compile();
                drop(forest);
                // 5-fold initialization only when the predictor would still
                // be empty after applying `best` (the first-round case).
                let init = (!has_prediction && best.is_none())
                    .then(|| five_fold_cthld(&set, &preference, &params));
                TrainOutcome {
                    best,
                    init,
                    compiled,
                    extractor: hand_back.then_some(extractor),
                    train_ns: t0.elapsed().as_nanos() as u64,
                }
            })
            .expect("spawn retrain thread");
        self.job = Some(TrainingJob {
            id,
            prefix: labeled,
            handle,
        });
        Ok(id)
    }

    /// Installs a finished background job if one is ready; non-blocking.
    /// Returns `None` while no job is in flight or the job is still
    /// training. The swap — model, cThld prediction, model version —
    /// happens entirely inside this call, so observers
    /// before it see the old model and observers after it see the new one;
    /// there is no intermediate state.
    pub fn poll_retrain(&mut self) -> Option<TrainingReport> {
        if !self.job.as_ref()?.handle.is_finished() {
            return None;
        }
        self.land_job()
    }

    /// Blocks until the in-flight background job (if any) finishes, then
    /// installs it. Returns `None` when no job was in flight.
    pub fn wait_retrain(&mut self) -> Option<TrainingReport> {
        self.job.as_ref()?;
        self.land_job()
    }

    /// Joins the job thread and swaps its result in. The first model also
    /// brings the serving extractor: the job's, caught up here over the
    /// points that arrived after its snapshot.
    fn land_job(&mut self) -> Option<TrainingReport> {
        let job = self.job.take()?;
        // A panicked trainer (out of memory, poisoned data) must not take
        // the serving model down with it: the old model keeps serving and
        // the job simply evaporates.
        let outcome = job.handle.join().ok()?;
        if let Some(best) = outcome.best {
            self.predictor.update(best);
        }
        if self.predictor.predict().is_none() {
            if let Some(init) = outcome.init {
                self.predictor.initialize(init);
            }
        }
        if let (None, Some(extractor)) = (&self.extractor, outcome.extractor) {
            self.install_extractor(extractor, job.prefix);
        }
        self.compiled = Some(outcome.compiled);
        self.model_version += 1;
        self.train_ns += outcome.train_ns;
        Some(TrainingReport {
            job_id: job.id,
            model_version: self.model_version,
            cthld: self.current_cthld(),
            train_us: outcome.train_ns / 1_000,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const INTERVAL: u32 = 3600;

    /// Builds an hourly KPI with a daily pattern and labeled spikes.
    fn labeled_history(days: usize) -> (TimeSeries, Labels) {
        let n = days * 24;
        let mut series = TimeSeries::new(0, INTERVAL);
        let mut labels = Labels::all_normal(0);
        for i in 0..n {
            let base = 100.0 + 20.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin();
            // A 2-point spike every ~2.6 days.
            let anomalous = i % 63 == 50 || i % 63 == 51;
            series.push(if anomalous { base + 120.0 } else { base });
            labels.push(anomalous);
        }
        (series, labels)
    }

    fn small_config() -> OpprenticeConfig {
        OpprenticeConfig {
            forest: RandomForestParams {
                n_trees: 12,
                seed: 5,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    #[test]
    fn untrained_pipeline_returns_no_verdicts() {
        let mut opp = Opprentice::new(INTERVAL, small_config());
        assert_eq!(opp.observe(0, Some(100.0)), None);
        assert!(!opp.is_trained());
    }

    #[test]
    fn trains_on_history_and_flags_spikes() {
        let (series, labels) = labeled_history(28);
        let mut opp = Opprentice::new(INTERVAL, small_config());
        opp.ingest_history(&series, &labels).unwrap();
        assert!(opp.retrain());
        assert!(opp.is_trained());

        let t0 = series.timestamp_at(series.len() - 1) + i64::from(INTERVAL);
        // A normal point scores low…
        let normal = opp.observe(t0, Some(100.0)).unwrap();
        // …and a huge spike scores high.
        let spike = opp.observe(t0 + i64::from(INTERVAL), Some(400.0)).unwrap();
        assert!(
            spike.probability > normal.probability,
            "{spike:?} vs {normal:?}"
        );
        assert!(spike.is_anomaly);
    }

    #[test]
    fn missing_points_get_no_verdict_but_are_recorded() {
        let (series, labels) = labeled_history(28);
        let mut opp = Opprentice::new(INTERVAL, small_config());
        opp.ingest_history(&series, &labels).unwrap();
        opp.retrain();
        let before = opp.observed_len();
        assert_eq!(opp.observe(0, None), None);
        assert_eq!(opp.observed_len(), before + 1);
    }

    #[test]
    fn weekly_label_and_retrain_cycle() {
        let (series, labels) = labeled_history(21);
        let mut opp = Opprentice::new(INTERVAL, small_config());
        opp.ingest_history(&series, &labels).unwrap();
        assert!(opp.retrain());

        // A new week arrives unlabeled.
        let (new_week, new_labels) = labeled_history(28);
        let start = series.len();
        for i in start..new_week.len() {
            let _ = opp.observe(new_week.timestamp_at(i), new_week.get(i));
        }
        assert_eq!(opp.observed_len(), new_week.len());
        assert_eq!(opp.labeled_len(), start);

        // The operator labels it; retraining folds it in.
        opp.ingest_labels(&new_labels.slice(start..new_week.len()))
            .unwrap();
        assert_eq!(opp.labeled_len(), new_week.len());
        assert!(opp.retrain());
        // cThld prediction exists and is in range.
        let c = opp.current_cthld();
        assert!((0.0..=1.0).contains(&c));
    }

    #[test]
    fn retrain_without_positive_labels_reports_failure() {
        let mut series = TimeSeries::new(0, INTERVAL);
        for i in 0..200 {
            series.push(100.0 + (i % 24) as f64);
        }
        let labels = Labels::all_normal(200);
        let mut opp = Opprentice::new(INTERVAL, small_config());
        opp.ingest_history(&series, &labels).unwrap();
        assert!(!opp.retrain());
        assert!(!opp.is_trained());
    }

    #[test]
    fn over_labeling_rejected() {
        let mut opp = Opprentice::new(INTERVAL, small_config());
        assert_eq!(
            opp.ingest_labels(&Labels::all_normal(5)),
            Err(PipelineError::LabelsBeyondData {
                observed: 0,
                labeled: 0,
                incoming: 5
            })
        );
        // The rejected batch left no trace.
        assert_eq!(opp.labeled_len(), 0);
    }

    #[test]
    fn interval_mismatch_rejected() {
        let series = TimeSeries::from_values(0, 60, vec![1.0; 10]);
        let labels = Labels::all_normal(10);
        let mut opp = Opprentice::new(INTERVAL, small_config());
        assert_eq!(
            opp.ingest_history(&series, &labels),
            Err(PipelineError::IntervalMismatch {
                expected: INTERVAL,
                got: 60
            })
        );
        assert_eq!(opp.observed_len(), 0);
    }

    #[test]
    fn history_after_observations_rejected() {
        let mut opp = Opprentice::new(INTERVAL, small_config());
        assert_eq!(opp.observe(0, Some(1.0)), None);
        let series = TimeSeries::from_values(0, INTERVAL, vec![1.0; 10]);
        assert_eq!(
            opp.ingest_history(&series, &Labels::all_normal(10)),
            Err(PipelineError::HistoryAfterObservations { observed: 1 })
        );
    }

    #[test]
    fn length_mismatch_rejected() {
        let series = TimeSeries::from_values(0, INTERVAL, vec![1.0; 10]);
        let mut opp = Opprentice::new(INTERVAL, small_config());
        assert_eq!(
            opp.ingest_history(&series, &Labels::all_normal(9)),
            Err(PipelineError::LengthMismatch {
                series: 10,
                labels: 9
            })
        );
    }

    #[test]
    fn observe_batch_matches_streaming_bit_for_bit() {
        let (series, labels) = labeled_history(28);
        let mut batched = Opprentice::new(INTERVAL, small_config());
        let mut streamed = Opprentice::new(INTERVAL, small_config());
        batched.ingest_history(&series, &labels).unwrap();
        streamed.ingest_history(&series, &labels).unwrap();
        assert!(batched.retrain());
        assert!(streamed.retrain());

        let t0 = series.timestamp_at(series.len() - 1) + i64::from(INTERVAL);
        let vals: Vec<Option<f64>> = (0..50)
            .map(|i| {
                if i % 9 == 4 {
                    None
                } else {
                    let spike = if i == 30 { 250.0 } else { 0.0 };
                    Some(100.0 + (i % 24) as f64 + spike)
                }
            })
            .collect();
        let out = batched.observe_batch(t0, &vals);
        assert_eq!(out.len(), vals.len());
        for (i, v) in vals.iter().enumerate() {
            let single = streamed.observe(t0 + i as i64 * i64::from(INTERVAL), *v);
            assert_eq!(out[i], single, "point {i}");
        }
        assert_eq!(batched.observed_len(), streamed.observed_len());
        assert!(batched.extract_us() > 0, "extraction timer never advanced");
        assert!(batched.infer_us() > 0, "inference timer never advanced");
    }

    #[test]
    fn background_retrain_is_bit_identical_to_sync() {
        let (series, labels) = labeled_history(28);
        let mut sync = Opprentice::new(INTERVAL, small_config());
        let mut bg = Opprentice::new(INTERVAL, small_config());
        sync.ingest_history(&series, &labels).unwrap();
        bg.ingest_history(&series, &labels).unwrap();

        assert!(sync.retrain());
        let job = bg.start_retrain().unwrap();
        let report = bg.wait_retrain().unwrap();
        assert_eq!(report.job_id, job);
        assert_eq!(report.model_version, 1);
        assert_eq!(bg.model_version(), sync.model_version());
        assert_eq!(bg.predicted_cthld(), sync.predicted_cthld());
        assert_eq!(bg.compiled_forest(), sync.compiled_forest());

        let t0 = series.timestamp_at(series.len() - 1) + i64::from(INTERVAL);
        for (i, v) in [100.0, 400.0, 130.0, 85.0].into_iter().enumerate() {
            let ts = t0 + i as i64 * i64::from(INTERVAL);
            assert_eq!(sync.observe(ts, Some(v)), bg.observe(ts, Some(v)));
        }
    }

    #[test]
    fn observe_serves_the_old_model_until_the_swap_is_polled_in() {
        let (series, labels) = labeled_history(28);
        let mut opp = Opprentice::new(INTERVAL, small_config());
        let mut control = Opprentice::new(INTERVAL, small_config());
        opp.ingest_history(&series, &labels).unwrap();
        control.ingest_history(&series, &labels).unwrap();
        assert!(opp.retrain());
        assert!(control.retrain());

        // Submit a second round in the background; until it is polled in,
        // verdicts must match a control that never retrained again — even
        // if the job's thread has long finished.
        opp.start_retrain().unwrap();
        assert!(opp.training_in_flight());
        let t0 = series.timestamp_at(series.len() - 1) + i64::from(INTERVAL);
        for (i, v) in [100.0, 400.0, 130.0].into_iter().enumerate() {
            let ts = t0 + i as i64 * i64::from(INTERVAL);
            assert_eq!(opp.observe(ts, Some(v)), control.observe(ts, Some(v)));
        }
        assert_eq!(opp.model_version(), 1);

        let report = opp.wait_retrain().unwrap();
        assert_eq!(report.model_version, 2);
        assert_eq!(opp.model_version(), 2);
        assert!(opp.train_us() > 0);
    }

    #[test]
    fn second_submission_while_in_flight_is_rejected() {
        let (series, labels) = labeled_history(28);
        let mut opp = Opprentice::new(INTERVAL, small_config());
        opp.ingest_history(&series, &labels).unwrap();
        opp.start_retrain().unwrap();
        assert_eq!(opp.start_retrain(), Err(RetrainError::AlreadyTraining));
        assert!(opp.training_in_flight());
        opp.wait_retrain().unwrap();
        assert!(!opp.training_in_flight());
    }

    #[test]
    fn start_retrain_without_positive_labels_errors() {
        let mut series = TimeSeries::new(0, INTERVAL);
        for i in 0..200 {
            series.push(100.0 + (i % 24) as f64);
        }
        let mut opp = Opprentice::new(INTERVAL, small_config());
        opp.ingest_history(&series, &Labels::all_normal(200))
            .unwrap();
        assert_eq!(opp.start_retrain(), Err(RetrainError::NoLabeledAnomaly));
        assert!(!opp.training_in_flight());
        assert_eq!(opp.model_version(), 0);
    }

    /// Params no fit can use are refused before a job starts, instead of
    /// a job that panics on them.
    #[test]
    fn start_retrain_refuses_unusable_forest_params() {
        let (series, labels) = labeled_history(28);
        let unusable = [
            (0, Some(64), "n_trees"),
            (4, Some(1), "n_bins"),
            (4, Some(RandomForestParams::MAX_BINS + 1), "n_bins"),
        ];
        for (n_trees, n_bins, field) in unusable {
            let mut config = small_config();
            config.forest.n_trees = n_trees;
            config.forest.n_bins = n_bins;
            let mut opp = Opprentice::new(INTERVAL, config);
            opp.ingest_history(&series, &labels).unwrap();
            assert_eq!(
                opp.start_retrain(),
                Err(RetrainError::UnusableForestParams(field))
            );
            assert!(!opp.training_in_flight());
            assert!(!opp.retrain());
            assert_eq!(opp.model_version(), 0);
        }
    }

    #[test]
    fn dropping_a_pipeline_abandons_the_job() {
        let (series, labels) = labeled_history(28);
        let mut opp = Opprentice::new(INTERVAL, small_config());
        opp.ingest_history(&series, &labels).unwrap();
        opp.start_retrain().unwrap();
        drop(opp); // must not deadlock or panic; the job thread detaches
    }

    /// The session's model after a trip through its stored bytes.
    fn stored_model(opp: &Opprentice) -> Option<CompiledForest> {
        let bytes = opp.compiled_forest()?.to_bytes();
        let width = opprentice_detectors::registry(INTERVAL).len();
        Some(CompiledForest::from_bytes(&bytes, width).unwrap())
    }

    fn row_bits(row: &[f64]) -> Vec<u64> {
        row.iter().map(|v| v.to_bits()).collect()
    }

    /// The serving rows themselves — finer than verdicts, which a forest
    /// quantizes — stay those of an extractor that streamed every point,
    /// both after the first job's catch-up and after a restore replay.
    #[test]
    fn serving_rows_after_catch_up_and_restore_match_a_streamed_extractor() {
        let (series, labels) = labeled_history(21);
        let t0 = series.timestamp_at(series.len() - 1) + i64::from(INTERVAL);
        let point = |k: i64| {
            let spike = if k == 40 { 200.0 } else { 0.0 };
            let v = (k % 11 != 3).then_some(100.0 + (k % 24) as f64 + spike);
            (t0 + k * i64::from(INTERVAL), v)
        };
        let mut opp = Opprentice::new(INTERVAL, small_config());
        opp.ingest_history(&series, &labels).unwrap();
        let mut streamed = OnlineExtractor::new(INTERVAL);
        for i in 0..series.len() {
            streamed.observe(series.timestamp_at(i), series.get(i));
        }

        // Points that arrive while the first job trains are only recorded.
        opp.start_retrain().unwrap();
        for k in 0..30 {
            let (ts, v) = point(k);
            assert_eq!(opp.observe(ts, v), None);
            streamed.observe(ts, v);
        }
        assert_eq!(opp.extract_us(), 0);
        opp.wait_retrain().unwrap();
        let mut want = vec![0.0; opp.row.len()];
        for k in 30..60 {
            let (ts, v) = point(k);
            opp.observe(ts, v);
            fill_row(&mut want, streamed.observe(ts, v));
            if v.is_some() {
                assert_eq!(row_bits(&opp.row), row_bits(&want), "point {k}");
            }
        }

        let mut fresh = Opprentice::new(INTERVAL, small_config());
        fresh.ingest_history(&series, &labels).unwrap();
        for k in 0..60 {
            let (ts, v) = point(k);
            assert_eq!(fresh.observe(ts, v), None);
        }
        fresh.restore_trained_state(stored_model(&opp), opp.predicted_cthld(), 1);
        for k in 60..90 {
            let (ts, v) = point(k);
            assert_eq!(opp.observe(ts, v), fresh.observe(ts, v));
            if v.is_some() {
                assert_eq!(row_bits(&opp.row), row_bits(&fresh.row), "point {k}");
            }
        }
    }

    /// A model restored onto an empty session serves from the start, so
    /// history ingested afterwards goes through its extractor at once.
    #[test]
    fn history_ingested_after_a_restore_is_extracted() {
        let (series, labels) = labeled_history(21);
        let mut opp = Opprentice::new(INTERVAL, small_config());
        opp.ingest_history(&series, &labels).unwrap();
        assert!(opp.retrain());
        let mut restored = Opprentice::new(INTERVAL, small_config());
        restored.restore_trained_state(stored_model(&opp), opp.predicted_cthld(), 1);
        restored.ingest_history(&series, &labels).unwrap();
        let t0 = series.timestamp_at(series.len() - 1) + i64::from(INTERVAL);
        for k in 0..24 {
            let ts = t0 + k * i64::from(INTERVAL);
            let v = Some(100.0 + (k * 7 % 24) as f64);
            assert_eq!(opp.observe(ts, v), restored.observe(ts, v));
            assert_eq!(row_bits(&opp.row), row_bits(&restored.row), "point {k}");
        }
    }

    #[test]
    fn restore_trained_state_round_trips_through_accessors() {
        let (series, labels) = labeled_history(28);
        let mut opp = Opprentice::new(INTERVAL, small_config());
        opp.ingest_history(&series, &labels).unwrap();
        assert!(opp.retrain());
        let prediction = opp.predicted_cthld();
        assert!(prediction.is_some());

        // A fresh pipeline fed the same observations (but never retrained)
        // plus the restored trained state must score identically.
        let mut fresh = Opprentice::new(INTERVAL, small_config());
        fresh.ingest_history(&series, &labels).unwrap();
        fresh.restore_trained_state(stored_model(&opp), prediction, opp.model_version());
        assert!(fresh.is_trained());
        assert_eq!(fresh.model_version(), opp.model_version());

        let t0 = series.timestamp_at(series.len() - 1) + i64::from(INTERVAL);
        for (i, v) in [100.0, 400.0, 130.0].into_iter().enumerate() {
            let ts = t0 + i as i64 * i64::from(INTERVAL);
            assert_eq!(opp.observe(ts, Some(v)), fresh.observe(ts, Some(v)));
        }
    }
}
