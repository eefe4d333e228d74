//! Detectors as feature extractors (§4.3).
//!
//! Every detector configuration is run over the KPI in parallel; each emits
//! one severity per point, forming the feature matrix ("the anomaly
//! severities measured by different detectors can naturally serve as the
//! features", §1). Warm-up and missing-value slots hold 0 in the matrix —
//! "no anomaly evidence" — and points whose *value* is missing are flagged
//! unusable so training and evaluation skip them entirely (§4.3.2).
//!
//! # Execution model
//!
//! The configurations are grouped into *fused units*
//! ([`opprentice_detectors::fused::plan`]): one structure-of-arrays kernel
//! per detector family that advances all of the family's parameter
//! configurations per point (bit-identical to the per-config scalar path).
//! Units are assigned to worker shards by longest-processing-time greedy
//! over each unit's **measured** ns/point, so one slow family (ARIMA, SVD)
//! does not serialize the batch behind a shard full of cheap lanes. A fresh
//! extractor has no timings: every unit starts on the first shard, so the
//! first batch runs on the caller's thread, and its timings place the
//! units; they are re-placed from the running timings every
//! `REBALANCE_POINTS` batched points. Placement is pure scheduling:
//! every unit's state advances sequentially wherever it runs, so shard
//! count, shard assignment and rebalancing never change a single output
//! bit. The worker-pool width honours the process-wide
//! `OPPRENTICE_THREADS` knob
//! ([`opprentice_numeric::parallel::configured_threads`]).

use opprentice_detectors::fused::{plan, FusedUnit};
use opprentice_detectors::{registry, DetectorSpec};
use opprentice_learn::Dataset;
use opprentice_numeric::parallel::configured_threads;
use opprentice_timeseries::{Labels, TimeSeries};
use std::panic::AssertUnwindSafe;
use std::sync::mpsc;
use std::sync::Arc;
use std::time::Instant;

/// The per-point severities of every detector configuration.
#[derive(Debug, Clone)]
pub struct FeatureMatrix {
    n_features: usize,
    /// Row-major severities; 0.0 where a detector had no verdict.
    data: Vec<f64>,
    /// Whether the point's value was present (usable for train/test).
    usable: Vec<bool>,
    /// Configuration labels, by column.
    feature_labels: Vec<String>,
}

impl FeatureMatrix {
    /// Creates an empty matrix for incremental (online) extraction.
    pub fn new(feature_labels: Vec<String>) -> Self {
        assert!(!feature_labels.is_empty(), "need at least one feature");
        Self {
            n_features: feature_labels.len(),
            data: Vec::new(),
            usable: Vec::new(),
            feature_labels,
        }
    }

    /// Number of points.
    pub fn len(&self) -> usize {
        self.usable.len()
    }

    /// `true` when the matrix has no rows.
    pub fn is_empty(&self) -> bool {
        self.usable.is_empty()
    }

    /// Number of feature columns (133 for the full registry).
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// The severity row of point `i`.
    pub fn row(&self, i: usize) -> &[f64] {
        &self.data[i * self.n_features..(i + 1) * self.n_features]
    }

    /// Whether point `i` is usable (its value was present).
    pub fn usable(&self, i: usize) -> bool {
        self.usable[i]
    }

    /// Configuration labels by column.
    pub fn feature_labels(&self) -> &[String] {
        &self.feature_labels
    }

    /// Appends one point's severities (`None` → 0.0). This is the only
    /// conversion a served row gets: the forest scores the stored row.
    pub fn push_row(&mut self, severities: &[Option<f64>], usable: bool) {
        assert_eq!(severities.len(), self.n_features, "feature count mismatch");
        self.data
            .extend(severities.iter().map(|s| s.unwrap_or(0.0)));
        self.usable.push(usable);
    }

    /// Severity column `c` as optional values (`None` where the detector had
    /// no verdict *or* the point is unusable) — the per-configuration score
    /// stream used to evaluate basic detectors and static combiners.
    pub fn column_scores(&self, c: usize) -> Vec<Option<f64>> {
        (0..self.len())
            .map(|i| {
                if !self.usable[i] {
                    return None;
                }
                let v = self.row(i)[c];
                // 0.0 encodes "no verdict"; report it as a zero severity —
                // detectors emit genuine zeros too, and both mean "nothing
                // anomalous here" for scoring purposes.
                Some(v)
            })
            .collect()
    }

    /// Builds a training [`Dataset`] from the usable points of `range`,
    /// returning the dataset and the original point index of each row.
    ///
    /// # Panics
    ///
    /// Panics if `labels` is shorter than `range.end`.
    pub fn dataset(&self, labels: &Labels, range: std::ops::Range<usize>) -> (Dataset, Vec<usize>) {
        assert!(labels.len() >= range.end, "labels do not cover the range");
        let mut ds = Dataset::new(self.n_features);
        let mut origin = Vec::new();
        for i in range {
            if self.usable[i] {
                ds.push(self.row(i), labels.is_anomaly(i));
                origin.push(i);
            }
        }
        (ds, origin)
    }
}

impl FeatureMatrix {
    /// Per-feature scale factors: a high quantile of each configuration's
    /// severities over this matrix's points. Dividing severities by these
    /// makes features comparable across KPIs of different magnitudes — the
    /// normalization §6 prescribes for "detection across the same types of
    /// KPIs" (see the `cross_kpi_transfer` example).
    pub fn feature_scales(&self, quantile: f64) -> Vec<f64> {
        assert!((0.0..=1.0).contains(&quantile), "quantile out of range");
        (0..self.n_features)
            .map(|c| {
                let mut xs: Vec<f64> = (0..self.len())
                    .filter(|&i| self.usable[i])
                    .map(|i| self.row(i)[c])
                    .collect();
                if xs.is_empty() {
                    return 1.0;
                }
                // Only the one order statistic is needed, so an O(n)
                // selection beats sorting the whole column.
                let idx = ((xs.len() - 1) as f64 * quantile) as usize;
                let (_, q, _) = xs.select_nth_unstable_by(idx, |a, b| {
                    a.partial_cmp(b).expect("finite severities")
                });
                let q = *q;
                if q > 0.0 {
                    q
                } else {
                    1.0
                }
            })
            .collect()
    }

    /// A copy of this matrix with every column divided by the given scale —
    /// pair with [`FeatureMatrix::feature_scales`] from either the same or
    /// a sibling KPI.
    ///
    /// # Panics
    ///
    /// Panics if `scales.len() != n_features` or a scale is not positive.
    pub fn scaled_by(&self, scales: &[f64]) -> FeatureMatrix {
        assert_eq!(scales.len(), self.n_features, "scale count mismatch");
        assert!(scales.iter().all(|s| *s > 0.0), "scales must be positive");
        let mut out = self.clone();
        for (i, v) in out.data.iter_mut().enumerate() {
            *v /= scales[i % self.n_features];
        }
        out
    }
}

/// Runs every given configuration over the whole series and assembles the
/// feature matrix, using the fused kernels and the cost-balanced worker
/// pool (the offline face of [`OnlineExtractor`]; outputs are
/// bit-identical to streaming extraction).
///
/// Column `c` of the matrix is `configs[c]`, whatever subset or order the
/// caller picked.
pub fn extract_with(configs: &[DetectorSpec], series: &TimeSeries) -> FeatureMatrix {
    let mut extractor = OnlineExtractor::with_configs(configs);
    let mut matrix = FeatureMatrix::new(extractor.labels());
    let points: Vec<(i64, Option<f64>)> = series.iter().collect();
    replay(&mut extractor, &points, |i, severities| {
        matrix.push_row(severities, points[i].1.is_some());
    });
    matrix
}

/// Points per batch when [`replay`] streams a history through an
/// extractor — large enough to amortize worker hand-off, small enough to
/// keep every shard's block in cache.
const REPLAY_CHUNK: usize = 256;

/// Streams raw points through `extractor` in [`REPLAY_CHUNK`] batches,
/// handing each point's index and severity row to `visit`. Chunking never
/// changes a severity.
pub(crate) fn replay(
    extractor: &mut OnlineExtractor,
    points: &[(i64, Option<f64>)],
    mut visit: impl FnMut(usize, &[Option<f64>]),
) {
    let m = extractor.n_features();
    let mut ts_buf = Vec::with_capacity(REPLAY_CHUNK);
    let mut val_buf = Vec::with_capacity(REPLAY_CHUNK);
    for (c, chunk) in points.chunks(REPLAY_CHUNK).enumerate() {
        ts_buf.clear();
        val_buf.clear();
        ts_buf.extend(chunk.iter().map(|p| p.0));
        val_buf.extend(chunk.iter().map(|p| p.1));
        let rows = extractor.observe_batch(&ts_buf, &val_buf);
        for k in 0..chunk.len() {
            visit(c * REPLAY_CHUNK + k, &rows[k * m..(k + 1) * m]);
        }
    }
}

/// Runs the full Table 3 registry (133 configurations) over the series.
pub fn extract_features(series: &TimeSeries) -> FeatureMatrix {
    extract_with(&registry(series.interval()), series)
}

/// Batches below this size are extracted inline — worker hand-off costs
/// more than it buys on a handful of points.
const MIN_PARALLEL_BATCH: usize = 4;

/// Shards are re-packed from live unit timings every this many points.
const REBALANCE_POINTS: u64 = 4096;

/// One fused kernel plus its output columns and cost accounting.
struct Unit {
    inner: FusedUnit,
    /// Live timing: total kernel nanoseconds over `measured_pts` points.
    measured_ns: u64,
    measured_pts: u64,
}

impl Unit {
    /// Measured ns/point; 0 until the unit has run a batch.
    fn cost_estimate(&self) -> f64 {
        self.measured_ns as f64 / self.measured_pts.max(1) as f64
    }
}

/// One worker's set of fused units plus its per-batch output.
///
/// Owned — a shard travels *through* the job channel to whichever worker
/// picks it up and comes back with the batch output, so no lock is ever
/// held on detector state.
struct Shard {
    units: Vec<Unit>,
    /// Per-unit output blocks for the current batch, concatenated: unit
    /// `u` with `k` lanes occupies `k × batch_len` slots, row-major
    /// (`block[i * k + j]`).
    out: Vec<Option<f64>>,
}

impl Shard {
    /// Runs every unit over one batch, timing each kernel for the cost
    /// model. Per-unit state advances sequentially, so results are
    /// bit-identical to streaming regardless of which shard a unit is on.
    fn run(&mut self, timestamps: &[i64], values: &[Option<f64>]) {
        let n = timestamps.len();
        let total: usize = self.units.iter().map(|u| u.inner.columns.len()).sum();
        self.out.clear();
        self.out.resize(total * n, None);
        let mut offset = 0;
        for unit in &mut self.units {
            let k = unit.inner.columns.len();
            let block = &mut self.out[offset * n..(offset + k) * n];
            let t0 = Instant::now();
            for ((&ts, &v), row) in timestamps.iter().zip(values).zip(block.chunks_exact_mut(k)) {
                unit.inner.kernel.observe(ts, v, row);
            }
            unit.measured_ns += t0.elapsed().as_nanos() as u64;
            unit.measured_pts += n as u64;
            offset += k;
        }
    }
}

/// A batch handed to the worker pool (shared read-only by all shards).
struct BatchInput {
    timestamps: Vec<i64>,
    values: Vec<Option<f64>>,
}

/// A unit of pool work: the shard itself rides along (ownership transfer,
/// no locking) together with the shared input.
struct Job {
    shard: Shard,
    input: Arc<BatchInput>,
}

/// What comes back from a worker.
enum Done {
    Ok(Shard),
    /// The worker caught a panic; the shard is lost.
    Panicked,
}

/// A persistent pool of extraction workers. Threads live as long as the
/// pool; dropping the pool closes the job channel and the workers exit.
struct WorkerPool {
    job_tx: mpsc::Sender<Job>,
    done_rx: mpsc::Receiver<Done>,
    _workers: Vec<std::thread::JoinHandle<()>>,
}

impl WorkerPool {
    fn spawn(n_workers: usize) -> Self {
        let (job_tx, job_rx) = mpsc::channel::<Job>();
        let (done_tx, done_rx) = mpsc::channel::<Done>();
        let job_rx = Arc::new(std::sync::Mutex::new(job_rx));
        let workers = (0..n_workers)
            .map(|i| {
                let job_rx = Arc::clone(&job_rx);
                let done_tx = done_tx.clone();
                std::thread::Builder::new()
                    .name(format!("extract-{i}"))
                    .spawn(move || loop {
                        let job = match job_rx.lock().expect("job queue poisoned").recv() {
                            Ok(job) => job,
                            Err(_) => return, // pool dropped
                        };
                        let Job { mut shard, input } = job;
                        let done = std::panic::catch_unwind(AssertUnwindSafe(move || {
                            shard.run(&input.timestamps, &input.values);
                            shard
                        }))
                        .map_or(Done::Panicked, Done::Ok);
                        if done_tx.send(done).is_err() {
                            return;
                        }
                    })
                    .expect("failed to spawn extraction worker")
            })
            .collect();
        Self {
            job_tx,
            done_rx,
            _workers: workers,
        }
    }
}

/// Longest-processing-time greedy: units in descending cost order, each to
/// the currently lightest shard. Deterministic — ties break on the first
/// output column, and the lightest shard on the lowest index — though
/// placement can never affect extraction output, only wall-clock.
fn lpt_assign(mut units: Vec<Unit>, n_shards: usize) -> Vec<Vec<Unit>> {
    units.sort_by(|a, b| {
        b.cost_estimate()
            .partial_cmp(&a.cost_estimate())
            .expect("finite costs")
            .then(a.inner.columns[0].cmp(&b.inner.columns[0]))
    });
    let mut shards: Vec<Vec<Unit>> = (0..n_shards).map(|_| Vec::new()).collect();
    let mut loads = vec![0.0f64; n_shards];
    for unit in units {
        let lightest = loads
            .iter()
            .enumerate()
            .min_by(|(ia, a), (ib, b)| a.partial_cmp(b).expect("finite").then(ia.cmp(ib)))
            .map(|(i, _)| i)
            .expect("at least one shard");
        loads[lightest] += unit.cost_estimate();
        shards[lightest].push(unit);
    }
    shards
}

/// Measured extraction cost of one detector family, aggregated over all of
/// its fused units (see [`OnlineExtractor::family_stats`]).
#[derive(Debug, Clone)]
pub struct FamilyStat {
    /// Family display name (e.g. `"Holt-Winters"`, `"TSD/TSD MAD"`).
    pub family: &'static str,
    /// Configurations the family contributes.
    pub configs: usize,
    /// Points extracted through the batched path.
    pub points: u64,
    /// Total kernel nanoseconds across the family's units.
    pub nanos: u64,
}

/// An online, stateful feature extractor: feed one point (or one batch of
/// consecutive points), get severity rows. This is the deployment path
/// (the offline [`extract_features`] is the evaluation path; all paths
/// produce bit-identical severities).
///
/// Internally the configurations run as fused family kernels
/// ([`opprentice_detectors::fused`]), cost-balanced across a persistent
/// worker pool for [`OnlineExtractor::observe_batch`]; per-unit state
/// always advances sequentially, so batched, streaming and offline
/// extraction cannot diverge.
pub struct OnlineExtractor {
    shards: Vec<Shard>,
    labels: Vec<String>,
    n_features: usize,
    /// Single-point output row, by feature index.
    row: Vec<Option<f64>>,
    /// Widest unit's lane count — single-point scatter scratch.
    scratch: Vec<Option<f64>>,
    /// Batched output, row-major (`batch_len × n_features`).
    batch: Vec<Option<f64>>,
    /// Lazily spawned on the first parallel batch, one worker per shard
    /// but the first (the caller runs that one).
    pool: Option<WorkerPool>,
    points_since_rebalance: u64,
}

impl OnlineExtractor {
    /// Creates the extractor with the full registry for `interval`.
    pub fn new(interval: u32) -> Self {
        Self::with_configs(&registry(interval))
    }

    /// Creates the extractor over an explicit configuration set — e.g. a
    /// pruned feature set from `opprentice_learn::feature_select`, or a
    /// sibling KPI's registry for cross-KPI transfer.
    ///
    /// Column `c` of the output is `configs[c]`, whatever subset or order
    /// the caller picked. Boxed detectors are built only for the
    /// configurations no fused kernel covers
    /// ([`opprentice_detectors::fused::plan`]).
    ///
    /// # Panics
    ///
    /// Panics if `configs` is empty.
    pub fn with_configs(configs: &[DetectorSpec]) -> Self {
        assert!(!configs.is_empty(), "need at least one configuration");
        let labels: Vec<String> = configs.iter().map(DetectorSpec::label).collect();
        let m = configs.len();

        let units: Vec<Unit> = plan(configs)
            .into_iter()
            .map(|inner| Unit {
                inner,
                measured_ns: 0,
                measured_pts: 0,
            })
            .collect();
        let scratch_width = units
            .iter()
            .map(|u| u.inner.columns.len())
            .max()
            .expect("non-empty plan");
        let n_shards = configured_threads().min(units.len()).max(1);
        let shards = lpt_assign(units, n_shards)
            .into_iter()
            .map(|units| Shard {
                units,
                out: Vec::new(),
            })
            .collect();

        Self {
            shards,
            labels,
            n_features: m,
            row: vec![None; m],
            scratch: vec![None; scratch_width],
            batch: Vec::new(),
            pool: None,
            // Due at once: the first batch's timings place the units.
            points_since_rebalance: REBALANCE_POINTS,
        }
    }

    /// Configuration labels, by column.
    pub fn labels(&self) -> Vec<String> {
        self.labels.clone()
    }

    /// Number of feature columns.
    pub fn n_features(&self) -> usize {
        self.n_features
    }

    /// Number of worker shards the units are balanced across.
    pub fn n_shards(&self) -> usize {
        self.shards.len()
    }

    /// Measured per-family extraction cost (batched path only), aggregated
    /// across each family's fused units and sorted by family name. Powers
    /// the serving benchmark's per-family attribution.
    pub fn family_stats(&self) -> Vec<FamilyStat> {
        let mut stats: Vec<FamilyStat> = Vec::new();
        for shard in &self.shards {
            for unit in &shard.units {
                let family = unit.inner.kernel.family();
                match stats.iter_mut().find(|s| s.family == family) {
                    Some(s) => {
                        s.configs += unit.inner.columns.len();
                        s.nanos += unit.measured_ns;
                        // Units of one family can sit on different shards;
                        // they all see every point, so the family's point
                        // count is the max, not the sum.
                        s.points = s.points.max(unit.measured_pts);
                    }
                    None => stats.push(FamilyStat {
                        family,
                        configs: unit.inner.columns.len(),
                        points: unit.measured_pts,
                        nanos: unit.measured_ns,
                    }),
                }
            }
        }
        stats.sort_by_key(|s| s.family);
        stats
    }

    /// Re-packs units onto shards from the live cost estimates. Called
    /// automatically after the first batch and then every
    /// `REBALANCE_POINTS` batched points; public so benchmarks and tests
    /// can force it. Never changes extraction output — placement is pure
    /// scheduling.
    pub fn rebalance_now(&mut self) {
        let n_shards = self.shards.len();
        if n_shards < 2 {
            return;
        }
        let mut units: Vec<Unit> = Vec::new();
        for shard in &mut self.shards {
            units.append(&mut shard.units);
        }
        // Deterministic input order for the (stable) LPT sort.
        units.sort_by_key(|u| u.inner.columns[0]);
        self.shards = lpt_assign(units, n_shards)
            .into_iter()
            .map(|units| Shard {
                units,
                out: Vec::new(),
            })
            .collect();
        self.points_since_rebalance = 0;
    }

    /// Feeds the next point to every detector, returning the severity row.
    pub fn observe(&mut self, timestamp: i64, value: Option<f64>) -> &[Option<f64>] {
        for shard in &mut self.shards {
            for unit in &mut shard.units {
                let k = unit.inner.columns.len();
                unit.inner
                    .kernel
                    .observe(timestamp, value, &mut self.scratch[..k]);
                for (j, &c) in unit.inner.columns.iter().enumerate() {
                    self.row[c] = self.scratch[j];
                }
            }
        }
        &self.row
    }

    /// Feeds a run of consecutive points to every detector, returning the
    /// severity rows row-major (`values.len() × n_features`). Severities
    /// are bit-identical to calling [`OnlineExtractor::observe`] per point;
    /// the shards just advance concurrently, the first on the calling
    /// thread and the rest on the worker pool.
    ///
    /// # Panics
    ///
    /// Panics if `timestamps` and `values` lengths differ or a worker dies.
    pub fn observe_batch(&mut self, timestamps: &[i64], values: &[Option<f64>]) -> &[Option<f64>] {
        assert_eq!(timestamps.len(), values.len(), "batch length mismatch");
        let n = timestamps.len();
        let m = self.n_features;
        self.batch.clear();
        self.batch.resize(n * m, None);
        if n == 0 {
            return &self.batch;
        }

        if n < MIN_PARALLEL_BATCH || self.shards[1..].iter().all(|s| s.units.is_empty()) {
            for shard in &mut self.shards {
                shard.run(timestamps, values);
            }
        } else {
            // The caller runs shard 0 itself; the pool takes the rest.
            let pool = {
                let n_workers = self.shards.len() - 1;
                self.pool
                    .get_or_insert_with(|| WorkerPool::spawn(n_workers))
            };
            let input = Arc::new(BatchInput {
                timestamps: timestamps.to_vec(),
                values: values.to_vec(),
            });
            let n_jobs = self.shards.len() - 1;
            for shard in self.shards.drain(1..) {
                pool.job_tx
                    .send(Job {
                        shard,
                        input: Arc::clone(&input),
                    })
                    .expect("extraction pool is gone");
            }
            let inline = std::panic::catch_unwind(AssertUnwindSafe(|| {
                self.shards[0].run(timestamps, values)
            }));
            // Shards come back in completion order; output assembly goes
            // through each unit's columns, so order cannot matter. Every
            // job is collected before a panic propagates, so no stale
            // result is left in the channel.
            let mut worker_panicked = false;
            for _ in 0..n_jobs {
                match pool.done_rx.recv().expect("extraction worker died") {
                    Done::Ok(shard) => self.shards.push(shard),
                    Done::Panicked => worker_panicked = true,
                }
            }
            if let Err(payload) = inline {
                std::panic::resume_unwind(payload);
            }
            assert!(!worker_panicked, "extraction worker panicked");
        }

        let batch = &mut self.batch;
        for shard in &self.shards {
            let mut offset = 0;
            for unit in &shard.units {
                let k = unit.inner.columns.len();
                let block = &shard.out[offset * n..(offset + k) * n];
                for i in 0..n {
                    for (j, &c) in unit.inner.columns.iter().enumerate() {
                        batch[i * m + c] = block[i * k + j];
                    }
                }
                offset += k;
            }
        }

        self.points_since_rebalance += n as u64;
        if self.points_since_rebalance >= REBALANCE_POINTS {
            self.rebalance_now();
        }
        &self.batch
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_series(n: usize) -> TimeSeries {
        let vals: Vec<f64> = (0..n)
            .map(|i| {
                if i == 170 {
                    f64::NAN
                } else {
                    100.0 + 10.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin()
                }
            })
            .collect();
        TimeSeries::from_values(0, 3600, vals)
    }

    #[test]
    fn matrix_shape_matches_series_and_registry() {
        let s = toy_series(24 * 9);
        let m = extract_features(&s);
        assert_eq!(m.len(), s.len());
        assert_eq!(m.n_features(), 133);
        assert_eq!(m.feature_labels().len(), 133);
    }

    #[test]
    fn missing_points_are_unusable() {
        let s = toy_series(200);
        let m = extract_features(&s);
        assert!(!m.usable(170));
        assert!(m.usable(0));
    }

    #[test]
    fn severities_are_finite_and_nonnegative() {
        let s = toy_series(24 * 9);
        let m = extract_features(&s);
        for i in 0..m.len() {
            for &v in m.row(i) {
                assert!(v.is_finite() && v >= 0.0);
            }
        }
    }

    #[test]
    fn dataset_skips_unusable_points() {
        let s = toy_series(200);
        let m = extract_features(&s);
        let labels = Labels::all_normal(s.len());
        let (ds, origin) = m.dataset(&labels, 150..200);
        assert_eq!(ds.len(), 49); // 50 minus the missing point at 170
        assert!(!origin.contains(&170));
        assert_eq!(origin.len(), ds.len());
    }

    #[test]
    fn online_extractor_matches_offline_extraction() {
        let s = toy_series(24 * 8);
        let offline = extract_features(&s);
        let mut online = OnlineExtractor::new(s.interval());
        for (i, (ts, v)) in s.iter().enumerate() {
            let row = online.observe(ts, v);
            let expected = offline.row(i);
            for (c, r) in row.iter().enumerate() {
                assert_eq!(r.unwrap_or(0.0), expected[c], "point {i} feature {c}");
            }
        }
    }

    #[test]
    fn batched_extraction_matches_streaming_across_rebalances() {
        let s = toy_series(24 * 8);
        let timestamps: Vec<i64> = s.iter().map(|(ts, _)| ts).collect();
        let values: Vec<Option<f64>> = s.iter().map(|(_, v)| v).collect();
        let mut streaming = OnlineExtractor::new(s.interval());
        let mut batched = OnlineExtractor::new(s.interval());
        let m = batched.n_features();
        // Uneven chunks with a forced rebalance in the middle.
        let mut start = 0;
        let mut chunk = 1;
        while start < timestamps.len() {
            let end = (start + chunk).min(timestamps.len());
            if start > timestamps.len() / 2 {
                batched.rebalance_now();
            }
            let rows = batched
                .observe_batch(&timestamps[start..end], &values[start..end])
                .to_vec();
            for (i, point) in (start..end).enumerate() {
                let row = streaming.observe(timestamps[point], values[point]);
                for c in 0..m {
                    assert_eq!(
                        row[c].map(f64::to_bits),
                        rows[i * m + c].map(f64::to_bits),
                        "point {point} feature {c}"
                    );
                }
            }
            start = end;
            chunk = chunk % 37 + 5;
        }
    }

    #[test]
    fn family_stats_cover_all_configs() {
        let s = toy_series(24 * 4);
        let timestamps: Vec<i64> = s.iter().map(|(ts, _)| ts).collect();
        let values: Vec<Option<f64>> = s.iter().map(|(_, v)| v).collect();
        let mut ex = OnlineExtractor::new(s.interval());
        ex.observe_batch(&timestamps, &values);
        let stats = ex.family_stats();
        let configs: usize = stats.iter().map(|f| f.configs).sum();
        assert_eq!(configs, 133);
        assert!(stats.iter().all(|f| f.points == timestamps.len() as u64));
        // Families are aggregated: far fewer entries than units.
        assert!(stats.len() <= 14, "{stats:?}");
    }

    #[test]
    fn feature_scales_and_scaling() {
        let s = toy_series(200);
        let m = extract_features(&s);
        let scales = m.feature_scales(0.99);
        assert_eq!(scales.len(), 133);
        assert!(scales.iter().all(|&x| x > 0.0));
        let scaled = m.scaled_by(&scales);
        // After scaling by the q99, almost all severities sit in [0, ~1].
        let mut over = 0usize;
        let mut total = 0usize;
        for i in 0..scaled.len() {
            for &v in scaled.row(i) {
                total += 1;
                if v > 1.0 + 1e-9 {
                    over += 1;
                }
            }
        }
        assert!(
            (over as f64) < 0.03 * total as f64,
            "{over}/{total} above 1"
        );
    }

    #[test]
    #[should_panic(expected = "scale count mismatch")]
    fn scaled_by_checks_length() {
        let s = toy_series(50);
        let m = extract_features(&s);
        let _ = m.scaled_by(&[1.0]);
    }

    #[test]
    fn column_scores_align_with_rows() {
        let s = toy_series(100);
        let m = extract_features(&s);
        let col = m.column_scores(0); // simple threshold: severity = value
        assert_eq!(col.len(), 100);
        for (i, c) in col.iter().enumerate() {
            if m.usable(i) {
                assert_eq!(c.unwrap(), m.row(i)[0]);
            } else {
                assert!(c.is_none());
            }
        }
    }
}
