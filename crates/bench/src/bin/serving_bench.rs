//! The serving-path throughput benchmark (see DESIGN.md, "Fast serving").
//!
//! Three layers are measured:
//!
//! 1. **In-process microbenches** — online feature extraction (133
//!    detectors per point, both the per-config scalar path as the *before*
//!    and the config-fused family kernels as the *after*, with per-family
//!    ns/point attribution) and forest inference three ways: the tree-walk
//!    path (`RandomForest::predict_proba`, the *before*), the compiled
//!    flat-layout path (`CompiledForest::predict`, the *after*), and the
//!    batched compiled path (`predict_batch`).
//! 2. **The real TCP server** — a trained session fed one point per
//!    round-trip versus one day per round-trip (`OBSB`), single-session
//!    and N concurrent sessions, with points/sec and p50/p99 round-trip
//!    latency. The *before* is the pre-batching stack: a naive agent
//!    (no `TCP_NODELAY`, as every client was before this change) sending
//!    one `OBS` per point, whose small writes interact with Nagle and
//!    delayed ACKs. The improved single-point path (`OBS` over a nodelay
//!    connection) is reported separately so each layer's contribution —
//!    socket options, coalesced writes, batching — is visible.
//! 3. **Training** — forest fit throughput (rows/sec through
//!    `RandomForest::fit`, which shards trees across a thread pool), and
//!    serving latency *while a background retrain is in flight*: RETRAIN
//!    is asynchronous, so the session keeps answering `OBS` on the old
//!    model until the finished forest is swapped in between requests.
//!
//! It also records what building an extractor costs at 60, 300 and
//! 3,600 s (`extractor_build_ms`, paid by every first training, retrain
//! job and restore), the resident-memory growth of one extractor on a
//! 1-minute KPI (`extractor_memory`), the per-stream state a fleet of
//! sessions would pay for, and what each point a trained session serves
//! adds to it (`session_memory`, bytes per point; `--max-session-bytes-per-pt`
//! turns it into a ceiling).
//!
//! Two in-process sections time a stream's onboarding on the 1-minute pv
//! preset: the first retrain job's phases (`onboarding`: re-extraction,
//! model fit and the five cThld folds over one shared column sort, then a
//! lone fit on a fresh training set as a weekly retrain does, at 3 days
//! of history, plus 4 weeks under `--full`; medians over repeats), and the
//! serving cost of the first 3,000 points after that model lands against
//! the next 3,000 (`first_model_windows`). The trained 3-day session's
//! size is reported too (`session_model`): one snapshot's bytes and the
//! heap of its model.
//!
//! One durable session runs over TCP in a temporary state directory
//! (`durable_session`): the bytes the process writes per point served
//! after its model swap (`wchar` in `/proc/self/io`;
//! `--max-durable-bytes-per-pt` turns it into a ceiling), and the `RESUME`
//! wall time after a clean close and after a crash.
//!
//! The extraction worker pool's balance is timed in process on the
//! 30-point batches the pv agent sends (`pool_balance`): per batch, the
//! caller's own shard, the slowest worker shard, the caller's wait for the
//! workers, and the batch wall time at one thread and at the pool's width.
//!
//! Results land in `results/BENCH_serving.json`. Modes: `--tiny` (CI
//! smoke, seconds), default (laptop-sized), `--full` (paper-sized forest
//! everywhere).
//!
//! Run with: `cargo run --release -p opprentice-bench --bin serving_bench`

use opprentice::features::{extract_features, OnlineExtractor};
use opprentice::predictor::five_fold_cthld;
use opprentice::snapshot::SessionSnapshot;
use opprentice::{Opprentice, OpprenticeConfig};
use opprentice_detectors::{clamp_severity, registry, Detector};
use opprentice_learn::{Classifier, Dataset, RandomForest, RandomForestParams, TrainingSet};
use opprentice_numeric::parallel::{configured_threads, THREADS_ENV};
use opprentice_server::testing::Client;
use opprentice_server::{Server, ServerConfig};
use std::io::Write;
use std::time::{Duration, Instant};

/// Points per `observe_batch` call in the batched extraction microbench —
/// matches the history-replay chunk the pipeline uses.
const EXTRACT_BATCH: usize = 256;

/// Benchmark sizes, scaled by mode.
struct Sizes {
    mode: &'static str,
    /// Microbench forest size (60 = the paper-sized serving forest).
    micro_trees: usize,
    /// Microbench training rows.
    micro_rows: usize,
    /// Microbench prediction repetitions.
    micro_preds: usize,
    /// Extraction microbench points.
    extract_points: usize,
    /// Server-session forest size.
    server_trees: usize,
    /// Hours of labeled history streamed before RETRAIN.
    train_hours: usize,
    /// Points measured per protocol variant.
    measure_points: usize,
    /// Points for the legacy (Nagle-stalled) baseline — ~40 ms each, so
    /// this sample stays small.
    legacy_points: usize,
    /// Points per OBSB line.
    batch: usize,
    /// Concurrent sessions in the fan-out measurement.
    sessions: usize,
    /// Days of 1-minute pv history each onboarding measurement trains on.
    onboard_days: &'static [usize],
    /// Fresh pipelines timed over their first points after a model lands.
    landing_reps: usize,
    /// Points the durable session serves after its swap.
    durable_served: usize,
    /// 30-point batches timed per thread count in `pool_balance`.
    pool_batches: usize,
}

/// Parses `--<flag> <N>`: a committed throughput floor or memory ceiling.
/// When set, the bench exits non-zero after writing its JSON if the
/// measured number lands on the wrong side of it (the CI guard against
/// path regressions).
fn floor_arg(flag: &str) -> Option<f64> {
    let args: Vec<String> = std::env::args().collect();
    let idx = args.iter().position(|a| a == flag)?;
    let value = args
        .get(idx + 1)
        .unwrap_or_else(|| panic!("{flag} needs a value"));
    Some(
        value
            .parse()
            .unwrap_or_else(|e| panic!("bad {flag} {value}: {e}")),
    )
}

impl Sizes {
    fn from_args() -> Sizes {
        let tiny = std::env::args().any(|a| a == "--tiny");
        let full = std::env::args().any(|a| a == "--full");
        if tiny {
            Sizes {
                mode: "tiny",
                micro_trees: 60,
                micro_rows: 150,
                micro_preds: 400,
                extract_points: 200,
                server_trees: 8,
                train_hours: 10 * 24,
                measure_points: 96,
                legacy_points: 24,
                batch: 24,
                sessions: 2,
                onboard_days: &[3],
                landing_reps: 3,
                durable_served: 1440,
                pool_batches: 300,
            }
        } else if full {
            Sizes {
                mode: "full",
                micro_trees: 60,
                micro_rows: 4800,
                micro_preds: 30_000,
                extract_points: 8000,
                server_trees: 60,
                train_hours: 21 * 24,
                measure_points: 2400,
                legacy_points: 150,
                batch: 96,
                sessions: 4,
                onboard_days: &[3, 28],
                landing_reps: 5,
                durable_served: 7 * 1440,
                pool_batches: 2000,
            }
        } else {
            Sizes {
                mode: "default",
                micro_trees: 60,
                micro_rows: 2400,
                micro_preds: 10_000,
                extract_points: 2000,
                server_trees: 20,
                train_hours: 21 * 24,
                measure_points: 960,
                legacy_points: 100,
                batch: 48,
                sessions: 4,
                onboard_days: &[3],
                landing_reps: 5,
                durable_served: 7 * 1440,
                pool_batches: 2000,
            }
        }
    }
}

/// The daily-patterned KPI value used everywhere in the serving tests.
fn kpi_value(i: usize) -> (f64, bool) {
    let base = 100.0 + 20.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin();
    let anomalous = i % 63 == 50 || i % 63 == 51;
    (if anomalous { base + 150.0 } else { base }, anomalous)
}

/// A seeded synthetic dataset shaped like the real feature matrix
/// (133 severity columns, sparse positives).
fn synthetic_dataset(rows: usize, seed: u64) -> Dataset {
    let mut state = seed | 1;
    let mut next = move || {
        // xorshift64*: dependency-free, deterministic.
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state.wrapping_mul(0x2545_F491_4F6C_DD1D) >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut d = Dataset::new(133);
    let mut row = vec![0.0f64; 133];
    for i in 0..rows {
        let anomalous = i % 17 == 0;
        for v in row.iter_mut() {
            let sev = next() * 2.0;
            *v = if anomalous { sev + next() * 3.0 } else { sev };
        }
        d.push(&row, anomalous);
    }
    d
}

struct Quantiles {
    p50: f64,
    p99: f64,
}

/// p50/p99 of a latency sample, in microseconds.
fn quantiles_us(samples: &mut [Duration]) -> Quantiles {
    samples.sort_unstable();
    let at = |q: f64| {
        let idx = ((samples.len() - 1) as f64 * q) as usize;
        samples[idx].as_secs_f64() * 1e6
    };
    Quantiles {
        p50: at(0.50),
        p99: at(0.99),
    }
}

struct ProtocolRun {
    points_per_sec: f64,
    p50_us: f64,
    p99_us: f64,
}

/// Polls `STATUS` until the background retrain job lands, returning the
/// server-reported training wall time in microseconds.
fn wait_trained(c: &mut Client) -> u64 {
    let deadline = Instant::now() + Duration::from_secs(120);
    loop {
        let status = c.send("STATUS").expect("status");
        if status.contains(" training=0") {
            return status
                .split_whitespace()
                .find_map(|f| f.strip_prefix("train_us="))
                .expect("train_us field")
                .parse()
                .expect("numeric train_us");
        }
        assert!(Instant::now() < deadline, "retrain never completed");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// Connects, trains a session on labeled history, leaving it ready to
/// serve verdicts from the compiled forest.
fn trained_client(addr: std::net::SocketAddr, train_hours: usize, nodelay: bool) -> Client {
    let mut c = if nodelay {
        Client::connect(addr).expect("connect")
    } else {
        Client::connect_plain(addr).expect("connect")
    };
    assert!(c.send("HELLO 3600").unwrap().starts_with("OK"));
    let mut flags = String::with_capacity(train_hours);
    // History is itself streamed in batches — training setup is not what
    // this benchmark measures.
    for chunk in (0..train_hours).collect::<Vec<_>>().chunks(24) {
        let values: Vec<String> = chunk
            .iter()
            .map(|&i| {
                let (v, anomalous) = kpi_value(i);
                flags.push(if anomalous { '1' } else { '0' });
                format!("{v}")
            })
            .collect();
        let line = format!("OBSB {} {}", chunk[0] * 3600, values.join(" "));
        assert!(c.send(&line).unwrap().starts_with("OK"));
    }
    assert!(c.send(&format!("LABEL {flags}")).unwrap().starts_with("OK"));
    // RETRAIN is asynchronous: the job trains on a background thread and
    // the model swaps in between requests. Setup waits it out so the
    // measured round-trips below all serve from the trained forest.
    assert!(c.send("RETRAIN").unwrap().starts_with("OK retraining"));
    wait_trained(&mut c);
    c
}

/// Measures single-point round-trips (`OBS`): the pre-batching serving
/// path, one write + one read per point.
fn run_obs(c: &mut Client, start_hour: usize, n: usize) -> ProtocolRun {
    let mut lat = Vec::with_capacity(n);
    let t0 = Instant::now();
    for i in 0..n {
        let (v, _) = kpi_value(start_hour + i);
        let line = format!("OBS {} {v}", (start_hour + i) * 3600);
        let sent = Instant::now();
        let reply = c.send(&line).expect("obs");
        lat.push(sent.elapsed());
        assert!(reply.starts_with("OK"), "{reply}");
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let q = quantiles_us(&mut lat);
    ProtocolRun {
        points_per_sec: n as f64 / elapsed,
        p50_us: q.p50,
        p99_us: q.p99,
    }
}

/// Measures batched round-trips (`OBSB`): one write + one read per
/// `batch` points. Latency quantiles are per batch line.
fn run_obsb(c: &mut Client, start_hour: usize, n: usize, batch: usize) -> ProtocolRun {
    let mut lat = Vec::with_capacity(n / batch + 1);
    let t0 = Instant::now();
    let mut i = 0;
    while i < n {
        let take = batch.min(n - i);
        let values: Vec<String> = (0..take)
            .map(|k| format!("{}", kpi_value(start_hour + i + k).0))
            .collect();
        let line = format!("OBSB {} {}", (start_hour + i) * 3600, values.join(" "));
        let sent = Instant::now();
        let reply = c.send(&line).expect("obsb");
        lat.push(sent.elapsed());
        assert!(reply.starts_with("OK"), "{reply}");
        assert_eq!(
            reply.split('|').count(),
            take,
            "batch reply carries one verdict per point"
        );
        i += take;
    }
    let elapsed = t0.elapsed().as_secs_f64();
    let q = quantiles_us(&mut lat);
    ProtocolRun {
        points_per_sec: n as f64 / elapsed,
        p50_us: q.p50,
        p99_us: q.p99,
    }
}

/// Resident set size in bytes (`VmRSS` in `/proc/self/status`, reported
/// in kB so no page-size assumption is needed); `None` off Linux.
fn rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

/// Builds timed per interval by [`extractor_build_ms`].
const BUILD_REPS: usize = 15;

/// Median wall-clock milliseconds of `OnlineExtractor::new(interval)`
/// over [`BUILD_REPS`] builds, at 60, 300 and 3,600 s.
fn extractor_build_ms() -> [(u32, f64); 3] {
    [60, 300, 3600].map(|interval| {
        let mut ms: Vec<f64> = (0..BUILD_REPS)
            .map(|_| {
                let t0 = Instant::now();
                let extractor = OnlineExtractor::new(interval);
                let elapsed = t0.elapsed();
                drop(std::hint::black_box(extractor));
                elapsed.as_secs_f64() * 1e3
            })
            .collect();
        ms.sort_by(f64::total_cmp);
        (interval, ms[BUILD_REPS / 2])
    })
}

/// Days of the 1-minute pv preset fed to the extractor whose memory is
/// measured: more than a week, so every slot-of-week window is touched.
const MEMORY_DAYS: usize = 8;

/// Resident-memory growth of one 133-config extractor on a 1-minute KPI:
/// build `OnlineExtractor::new(60)` and feed it [`MEMORY_DAYS`] of the pv
/// preset. Runs before every other section, so the growth is not hidden
/// by heap pages earlier sections freed. Returns `(points, bytes)`.
fn extractor_memory() -> (usize, Option<u64>) {
    let mut spec = opprentice_datagen::presets::pv();
    spec.weeks = MEMORY_DAYS.div_ceil(7);
    let kpi = spec.generate();
    let points = MEMORY_DAYS * 1440;
    let timestamps: Vec<i64> = kpi.series.iter().take(points).map(|(ts, _)| ts).collect();
    let values: Vec<Option<f64>> = kpi.series.iter().take(points).map(|(_, v)| v).collect();
    let before = rss_bytes();
    let mut extractor = OnlineExtractor::new(60);
    for (ts, vs) in timestamps.chunks(512).zip(values.chunks(512)) {
        std::hint::black_box(extractor.observe_batch(ts, vs));
    }
    let after = rss_bytes();
    drop(extractor);
    (points, before.zip(after).map(|(b, a)| a.saturating_sub(b)))
}

/// Returns the allocator's free pages to the kernel (glibc's
/// `malloc_trim`), so `VmRSS` tracks live memory rather than heap slack:
/// otherwise a growing buffer can land in pages an earlier section freed
/// (hiding its growth), or leave its old copy resident (doubling it).
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn release_free_heap() {
    extern "C" {
        fn malloc_trim(pad: usize) -> i32;
    }
    // SAFETY: `malloc_trim` takes no pointers; it only releases memory
    // that no allocation owns.
    unsafe {
        malloc_trim(0);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn release_free_heap() {}

/// Points of the 1-minute pv preset a measured session serves after its
/// [`MEMORY_DAYS`] of labeled history — two weeks.
const SESSION_SERVED_POINTS: usize = 14 * 1440;

/// Resident-memory growth per served point of one trained pipeline on a
/// 1-minute KPI: train `Opprentice` on [`MEMORY_DAYS`] of the pv preset
/// (enough for every detector window to be full), then read `VmRSS`,
/// with free heap pages released, around [`SESSION_SERVED_POINTS`] more
/// points served one by one. This is what a session's history costs per
/// point; a stored feature row would be ~1 KB. Returns
/// `(history points, bytes)`.
fn session_memory(n_trees: usize) -> (usize, Option<u64>) {
    let history = MEMORY_DAYS * 1440;
    let mut spec = opprentice_datagen::presets::pv();
    spec.weeks = (history + SESSION_SERVED_POINTS).div_ceil(7 * 1440);
    let kpi = spec.generate();
    let config = OpprenticeConfig {
        forest: RandomForestParams {
            n_trees,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut opp = Opprentice::new(60, config);
    opp.ingest_history(&kpi.series.slice(0..history), &kpi.truth.slice(0..history))
        .expect("fresh pipeline accepts history");
    assert!(opp.retrain(), "pv history holds a labeled anomaly");
    release_free_heap();
    let before = rss_bytes();
    for i in history..history + SESSION_SERVED_POINTS {
        std::hint::black_box(opp.observe(kpi.series.timestamp_at(i), kpi.series.get(i)));
    }
    release_free_heap();
    let after = rss_bytes();
    (history, before.zip(after).map(|(b, a)| a.saturating_sub(b)))
}

/// Repeats of each onboarding phase; the median is reported.
const ONBOARD_REPS: usize = 5;

/// Phase times of one onboarding job (see [`onboarding`]).
struct Onboarding {
    days: usize,
    rows: usize,
    extract_ms: f64,
    fit_ms: f64,
    five_fold_ms: f64,
    lone_fit_ms: f64,
    sorted_bytes: usize,
}

/// The first retrain job's shape on `days` of labeled 1-minute pv history,
/// phase by phase: re-extract the history, fit the model (which sorts the
/// feature columns), then fit and score the five cThld folds over the
/// same sorted set. Then a weekly retrain's shape: a fresh training set
/// and one fit, with no folds to share its sort. Every phase runs
/// [`ONBOARD_REPS`] times and reports its median.
fn onboarding(days: usize, n_trees: usize) -> Onboarding {
    let history = days * 1440;
    let mut spec = opprentice_datagen::presets::pv();
    spec.weeks = days.div_ceil(7);
    let kpi = spec.generate();
    let config = OpprenticeConfig::default();
    let params = RandomForestParams {
        n_trees,
        ..config.forest
    };
    let fit = |set: &TrainingSet| {
        let mut forest = RandomForest::new(params.clone());
        forest.fit_held_out(set, 0..0, configured_threads());
        std::hint::black_box(forest);
    };
    let ms = |t0: Instant| t0.elapsed().as_secs_f64() * 1e3;

    let mut phases: [Vec<f64>; 4] = Default::default();
    let mut shape = (0, 0);
    for _ in 0..ONBOARD_REPS {
        let t0 = Instant::now();
        let matrix = extract_features(&kpi.series.slice(0..history));
        let (ds, _) = matrix.dataset(&kpi.truth, 0..history);
        phases[0].push(ms(t0));
        assert!(ds.positives() > 0, "pv history holds a labeled anomaly");
        shape = (ds.len(), ds.n_features());

        let set = TrainingSet::new(&ds);
        let t0 = Instant::now();
        fit(&set);
        phases[1].push(ms(t0));
        let t0 = Instant::now();
        std::hint::black_box(five_fold_cthld(&set, &config.preference, &params));
        phases[2].push(ms(t0));
        drop(set);
        let t0 = Instant::now();
        fit(&TrainingSet::new(&ds));
        phases[3].push(ms(t0));
    }
    let [extract_ms, fit_ms, five_fold_ms, lone_fit_ms] = phases.map(median);
    Onboarding {
        days,
        rows: shape.0,
        extract_ms,
        fit_ms,
        five_fold_ms,
        lone_fit_ms,
        // The shared sort holds one `u32` row index per (row, feature).
        sorted_bytes: shape.0 * shape.1 * 4,
    }
}

/// Days of labeled 1-minute pv history before the first model in
/// [`landing_windows`]: the benchmark workloads' history.
const LANDING_HISTORY_DAYS: usize = 3;

/// Points per window in [`landing_windows`].
const LANDING_WINDOW: usize = 3000;

/// Serving cost of one window of points, in microseconds per point.
#[derive(Clone, Copy)]
struct WindowCost {
    total: f64,
    extract: f64,
    infer: f64,
}

/// Times the first [`LANDING_WINDOW`] points a pipeline serves through
/// `observe` right after its first model lands (`wait_retrain`) against
/// the next [`LANDING_WINDOW`], on the 1-minute pv preset, once per
/// fresh pipeline (at least one). Returns `(first, next)` per pipeline,
/// and the last pipeline.
fn landing_windows(reps: usize, n_trees: usize) -> (Vec<(WindowCost, WindowCost)>, Opprentice) {
    let history = LANDING_HISTORY_DAYS * 1440;
    let mut spec = opprentice_datagen::presets::pv();
    spec.weeks = (history + 2 * LANDING_WINDOW).div_ceil(7 * 1440);
    let kpi = spec.generate();
    let config = OpprenticeConfig {
        forest: RandomForestParams {
            n_trees,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut windows = Vec::with_capacity(reps);
    loop {
        let mut opp = Opprentice::new(60, config.clone());
        opp.ingest_history(&kpi.series.slice(0..history), &kpi.truth.slice(0..history))
            .expect("fresh pipeline accepts history");
        opp.start_retrain()
            .expect("pv history holds a labeled anomaly");
        opp.wait_retrain().expect("a job was in flight");
        let mut window = |start: usize| {
            let (extract0, infer0) = (opp.extract_us(), opp.infer_us());
            let t0 = Instant::now();
            for i in start..start + LANDING_WINDOW {
                std::hint::black_box(opp.observe(kpi.series.timestamp_at(i), kpi.series.get(i)));
            }
            let per_pt = |us: f64| us / LANDING_WINDOW as f64;
            WindowCost {
                total: per_pt(t0.elapsed().as_secs_f64() * 1e6),
                extract: per_pt((opp.extract_us() - extract0) as f64),
                infer: per_pt((opp.infer_us() - infer0) as f64),
            }
        };
        windows.push((window(history), window(history + LANDING_WINDOW)));
        if windows.len() >= reps {
            return (windows, opp);
        }
    }
}

/// Days of 1-minute pv history an extractor has seen before
/// [`pool_balance`] times its batches: the benchmark workloads' history.
const POOL_HISTORY_DAYS: usize = 3;

/// Points per batch in [`pool_balance`], as the pv agent sends them.
const POOL_BATCH: usize = 30;

/// Medians over one run of [`pool_balance`] batches, in µs per batch.
struct PoolBalance {
    threads: usize,
    wall_us: f64,
    /// Worker-pool split: `None` when the run had one shard.
    inline_us: Option<f64>,
    worker_us: Option<f64>,
    wait_us: Option<f64>,
}

/// Times `batches` [`POOL_BATCH`]-point `observe_batch` calls on a fresh
/// 1-minute extractor after [`POOL_HISTORY_DAYS`] of pv history (fed in
/// the 256-point chunks a retrain's re-extraction uses), with the worker
/// pool at `threads` threads. Reports the median batch wall time and, with
/// a pool, the median kernel time of the caller's own shard, of the
/// slowest worker shard, and of the caller's wait for the workers.
fn pool_balance(threads: usize, batches: usize) -> PoolBalance {
    let history = POOL_HISTORY_DAYS * 1440;
    let total = history + batches * POOL_BATCH;
    let mut spec = opprentice_datagen::presets::pv();
    spec.weeks = total.div_ceil(7 * 1440);
    let kpi = spec.generate();
    let timestamps: Vec<i64> = kpi.series.iter().take(total).map(|(ts, _)| ts).collect();
    let values: Vec<Option<f64>> = kpi.series.iter().take(total).map(|(_, v)| v).collect();

    // The pool's width is read from the process-wide thread setting when
    // the extractor is built; nothing else runs while it is overridden.
    let saved = std::env::var(THREADS_ENV).ok();
    std::env::set_var(THREADS_ENV, threads.to_string());
    let mut extractor = OnlineExtractor::new(60);
    match saved {
        Some(v) => std::env::set_var(THREADS_ENV, v),
        None => std::env::remove_var(THREADS_ENV),
    }
    for (ts, vs) in timestamps[..history]
        .chunks(EXTRACT_BATCH)
        .zip(values[..history].chunks(EXTRACT_BATCH))
    {
        std::hint::black_box(extractor.observe_batch(ts, vs));
    }
    let mut wall = Vec::with_capacity(batches);
    let (mut inline, mut worker, mut wait) = (Vec::new(), Vec::new(), Vec::new());
    for (ts, vs) in timestamps[history..]
        .chunks(POOL_BATCH)
        .zip(values[history..].chunks(POOL_BATCH))
    {
        let t0 = Instant::now();
        std::hint::black_box(extractor.observe_batch(ts, vs));
        wall.push(t0.elapsed().as_secs_f64() * 1e6);
        if let Some(t) = extractor.last_pool_batch() {
            inline.push(t.inline_ns as f64 / 1e3);
            worker.push(t.worker_ns as f64 / 1e3);
            wait.push(t.wait_ns as f64 / 1e3);
        }
    }
    let median_of = |xs: Vec<f64>| (!xs.is_empty()).then(|| median(xs));
    PoolBalance {
        threads: extractor.n_shards(),
        wall_us: median(wall),
        inline_us: median_of(inline),
        worker_us: median_of(worker),
        wait_us: median_of(wait),
    }
}

/// Days of labeled 1-minute pv history before the durable session's swap
/// in [`durable_session`]: the benchmark workloads' history.
const DURABLE_HISTORY_DAYS: usize = 3;

/// Points per `OBSB` line the durable session is fed, as the pv agent
/// sends them.
const DURABLE_BATCH: usize = 30;

/// Timed `RESUME`s per recovery case in [`durable_session`].
const RESUME_REPS: usize = 3;

/// What one durable session writes and how fast it resumes (see
/// [`durable_session`]).
struct DurableCost {
    served_points: usize,
    wchar_bytes: Option<u64>,
    socket_bytes: u64,
    socket_in_wchar: Option<bool>,
    resume_clean_ms: f64,
    resume_crash_ms: f64,
}

impl DurableCost {
    /// Bytes the process wrote per served point, less the bench's own
    /// socket traffic where `wchar` counts it.
    fn bytes_per_point(&self) -> Option<f64> {
        let socket = if self.socket_in_wchar? {
            self.socket_bytes
        } else {
            0
        };
        let written = self.wchar_bytes?.saturating_sub(socket);
        Some(written as f64 / self.served_points as f64)
    }
}

/// Bytes this process has passed to write-like syscalls (`wchar` in
/// `/proc/self/io`); `None` off Linux.
fn wchar_bytes() -> Option<u64> {
    let io = std::fs::read_to_string("/proc/self/io").ok()?;
    io.lines()
        .find_map(|l| l.strip_prefix("wchar:"))?
        .trim()
        .parse()
        .ok()
}

/// Whether the bytes a `TcpStream` writes show in [`wchar_bytes`]. They
/// do not where the stream writes with send(2), as std does on Linux.
fn socket_writes_in_wchar() -> Option<bool> {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").ok()?;
    let mut tx = std::net::TcpStream::connect(listener.local_addr().ok()?).ok()?;
    let (mut rx, _) = listener.accept().ok()?;
    let before = wchar_bytes()?;
    tx.write_all(&[0; 4096]).ok()?;
    let after = wchar_bytes()?;
    std::io::Read::read_exact(&mut rx, &mut [0; 4096]).ok()?;
    Some(after - before >= 4096)
}

/// One durable session over TCP in a temporary state directory:
/// [`DURABLE_HISTORY_DAYS`] of 1-minute pv history, `LABEL`, `RETRAIN`,
/// then `served_points` more in [`DURABLE_BATCH`]-point `OBSB` lines,
/// counting the bytes the process writes while they are served. Then the
/// median `RESUME` wall time after a clean close, and after a crash right
/// after the last served line (a copy of the session's files as they
/// stood then, which is what a killed server leaves).
fn durable_session(n_trees: usize, served_points: usize) -> DurableCost {
    let root =
        std::env::temp_dir().join(format!("opprentice-serving-bench-{}", std::process::id()));
    let server = Server::bind_with(
        "127.0.0.1:0",
        ServerConfig {
            n_trees,
            state_dir: Some(root.clone()),
            ..Default::default()
        },
    )
    .expect("bind");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.serve().expect("serve"));

    let history = DURABLE_HISTORY_DAYS * 1440;
    let mut spec = opprentice_datagen::presets::pv();
    spec.weeks = (history + served_points).div_ceil(7 * 1440);
    let kpi = spec.generate();
    // Sends points `range` in `OBSB` lines; returns the bytes moved.
    let feed = |c: &mut Client, range: std::ops::Range<usize>| -> u64 {
        let mut moved = 0;
        for start in range.clone().step_by(DURABLE_BATCH) {
            let end = (start + DURABLE_BATCH).min(range.end);
            let values: Vec<String> = (start..end)
                .map(|i| {
                    kpi.series
                        .get(i)
                        .map_or("nan".to_string(), |v| v.to_string())
                })
                .collect();
            let line = format!(
                "OBSB {} {}",
                kpi.series.timestamp_at(start),
                values.join(" ")
            );
            let reply = c.send(&line).expect("obsb");
            assert!(reply.starts_with("OK"), "{reply}");
            moved += (line.len() + reply.len() + 2) as u64;
        }
        moved
    };

    let mut c = Client::connect(handle.addr()).expect("connect");
    assert!(c.send("HELLO 60 durable").unwrap().starts_with("OK"));
    feed(&mut c, 0..history);
    let flags: String = kpi.truth.flags()[..history]
        .iter()
        .map(|&a| if a { '1' } else { '0' })
        .collect();
    assert!(c.send(&format!("LABEL {flags}")).unwrap().starts_with("OK"));
    assert!(c.send("RETRAIN").unwrap().starts_with("OK retraining"));
    wait_trained(&mut c);

    let socket_in_wchar = socket_writes_in_wchar();
    let before = wchar_bytes();
    let socket_bytes = feed(&mut c, history..history + served_points);
    let wchar = wchar_bytes()
        .zip(before)
        .map(|(after, before)| after - before);
    let dir = root.join("durable");
    let crash_image: Vec<(&str, Vec<u8>)> = ["wal.log", "snapshot.oprf"]
        .into_iter()
        .map(|file| (file, std::fs::read(dir.join(file)).expect("session file")))
        .collect();
    assert_eq!(c.send("QUIT").unwrap(), "BYE");

    // Times `RESUME <id>`, retrying while the last connection still holds
    // the session.
    let resume_ms = |id: &str| -> f64 {
        loop {
            let mut c = Client::connect(handle.addr()).expect("connect");
            let t0 = Instant::now();
            let reply = c.send(&format!("RESUME {id}")).expect("resume");
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            if reply.ends_with("busy") {
                std::thread::sleep(Duration::from_millis(5));
                continue;
            }
            assert!(reply.starts_with("OK resumed"), "{reply}");
            assert_eq!(c.send("QUIT").unwrap(), "BYE");
            return ms;
        }
    };
    let clean = (0..RESUME_REPS).map(|_| resume_ms("durable")).collect();
    let crash = (0..RESUME_REPS)
        .map(|rep| {
            let id = format!("crashed-{rep}");
            std::fs::create_dir(root.join(&id)).expect("crash copy");
            for (file, bytes) in &crash_image {
                std::fs::write(root.join(&id).join(file), bytes).expect("crash copy");
            }
            resume_ms(&id)
        })
        .collect();
    handle.shutdown();
    join.join().unwrap();
    let _ = std::fs::remove_dir_all(&root);
    DurableCost {
        served_points,
        wchar_bytes: wchar,
        socket_bytes,
        socket_in_wchar,
        resume_clean_ms: median(clean),
        resume_crash_ms: median(crash),
    }
}

/// Median of a non-empty sample.
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() {
    let sizes = Sizes::from_args();
    eprintln!("[serving_bench] mode={}", sizes.mode);

    // ---- Extractor construction and memory ------------------------------
    let build_ms = extractor_build_ms();
    for (interval, ms) in build_ms {
        eprintln!("[build] OnlineExtractor::new({interval}): {ms:.3} ms (median of {BUILD_REPS})");
    }
    let (memory_points, memory_bytes) = extractor_memory();
    match memory_bytes {
        Some(b) => eprintln!(
            "[memory] one 1-minute extractor after {memory_points} points: +{:.1} MB RSS",
            b as f64 / 1e6
        ),
        None => eprintln!("[memory] RSS not available on this platform"),
    }

    let (session_history, session_bytes) = session_memory(sizes.server_trees);
    let session_bytes_per_point = session_bytes.map(|b| b as f64 / SESSION_SERVED_POINTS as f64);
    match session_bytes_per_point {
        Some(b) => eprintln!(
            "[memory] one trained 1-minute session over {SESSION_SERVED_POINTS} served points: \
             {b:.1} B/pt RSS"
        ),
        None => eprintln!("[memory] RSS not available on this platform"),
    }

    // ---- Onboarding: the first retrain job, phase by phase ---------------
    let onboard: Vec<Onboarding> = sizes
        .onboard_days
        .iter()
        .map(|&days| onboarding(days, sizes.server_trees))
        .collect();
    for o in &onboard {
        eprintln!(
            "[onboarding] {} days ({} rows, {} trees, median of {}): extract {:.1} ms, \
             fit {:.1} ms, five-fold {:.1} ms, lone fit {:.1} ms, shared sort {:.1} MB",
            o.days,
            o.rows,
            sizes.server_trees,
            ONBOARD_REPS,
            o.extract_ms,
            o.fit_ms,
            o.five_fold_ms,
            o.lone_fit_ms,
            o.sorted_bytes as f64 / 1e6
        );
    }

    // ---- The first points served after a model lands ---------------------
    let (landing, trained) = landing_windows(sizes.landing_reps, sizes.server_trees);
    let model = trained.compiled_forest().expect("the model landed");
    let (model_nodes, model_bytes) = (model.node_count(), model.heap_bytes());
    let snapshot_bytes = SessionSnapshot::capture(&trained, 0).to_bytes().len();
    eprintln!(
        "[session-model] {model_nodes} nodes: {snapshot_bytes} B snapshot, {model_bytes} B heap"
    );
    let landing_median =
        |pick: fn(&(WindowCost, WindowCost)) -> f64| median(landing.iter().map(pick).collect());
    let first_us = landing_median(|w| w.0.total);
    let next_us = landing_median(|w| w.1.total);
    let landing_ratio = landing_median(|w| w.0.total / w.1.total);
    eprintln!(
        "[first-model] first {LANDING_WINDOW} points {first_us:.2} us/pt, next \
         {LANDING_WINDOW} {next_us:.2} us/pt, median ratio {landing_ratio:.2} \
         (over {} pipelines)",
        landing.len()
    );

    // ---- Microbench 1: online feature extraction ------------------------
    // Best of 3 passes each: the box this runs on shares a host, and a
    // single pass can eat a stolen-CPU window; the fastest pass is the
    // closest estimate of what the code actually costs.
    const EXTRACT_PASSES: usize = 3;
    let all_ts: Vec<i64> = (0..sizes.extract_points).map(|i| i as i64 * 3600).collect();
    let all_vals: Vec<Option<f64>> = (0..sizes.extract_points)
        .map(|i| Some(kpi_value(i).0))
        .collect();

    // Streaming: one point per call, the latency-critical serving shape.
    let mut extract_stream_pps = 0.0f64;
    for _ in 0..EXTRACT_PASSES {
        let mut extractor = OnlineExtractor::new(3600);
        let t0 = Instant::now();
        for i in 0..sizes.extract_points {
            let row = extractor.observe(all_ts[i], all_vals[i]);
            std::hint::black_box(row);
        }
        let pps = sizes.extract_points as f64 / t0.elapsed().as_secs_f64();
        extract_stream_pps = extract_stream_pps.max(pps);
    }

    // Batched: `observe_batch` runs the fused family kernels,
    // cost-balanced across the worker pool — the OBSB / history-replay
    // shape. The best pass also donates its live per-family kernel
    // timings (the fused *after* of the attribution table).
    let mut extract_pps = 0.0f64;
    let mut fused_stats: Vec<opprentice::features::FamilyStat> = Vec::new();
    let mut n_shards = 0usize;
    for _ in 0..EXTRACT_PASSES {
        let mut extractor_b = OnlineExtractor::new(3600);
        let t0 = Instant::now();
        let mut i = 0;
        while i < sizes.extract_points {
            let end = (i + EXTRACT_BATCH).min(sizes.extract_points);
            let rows = extractor_b.observe_batch(&all_ts[i..end], &all_vals[i..end]);
            std::hint::black_box(rows);
            i = end;
        }
        let pps = sizes.extract_points as f64 / t0.elapsed().as_secs_f64();
        if pps > extract_pps {
            extract_pps = pps;
            fused_stats = extractor_b.family_stats();
            n_shards = extractor_b.n_shards();
        }
    }
    eprintln!(
        "[extract] streaming {extract_stream_pps:.0} pts/s, batched {extract_pps:.0} pts/s \
         ({:.2}x, 133 detectors, batch of {EXTRACT_BATCH}, {n_shards} shards, \
         best of {EXTRACT_PASSES})",
        extract_pps / extract_stream_pps,
    );

    // Per-detector-family breakdown, scalar *before*: each family's
    // configurations run alone as boxed per-config detectors over the
    // same KPI — the pre-fusion execution model.
    let mut families: Vec<(&'static str, Vec<Box<dyn Detector>>)> = Vec::new();
    for spec in registry(3600) {
        let name = spec.name();
        match families.last_mut() {
            Some((n, dets)) if *n == name => dets.push(spec.detector()),
            _ => families.push((name, vec![spec.detector()])),
        }
    }
    let family_points = sizes.extract_points.min(2000);
    let mut family_rows = Vec::new();
    for (name, dets) in families.iter_mut() {
        let t0 = Instant::now();
        for i in 0..family_points {
            let ts = i as i64 * 3600;
            let v = Some(kpi_value(i).0);
            for det in dets.iter_mut() {
                std::hint::black_box(clamp_severity(det.observe(ts, v)));
            }
        }
        let ns_per_point = t0.elapsed().as_nanos() as f64 / family_points as f64;
        family_rows.push((*name, dets.len(), ns_per_point));
    }

    // Join with the fused *after*: a fused kernel may merge sibling
    // scalar families (TSD + TSD MAD share windows, likewise historical),
    // so sum the scalar ns over the families each kernel covers.
    let scalar_ns_for = |fused_family: &str| -> f64 {
        family_rows
            .iter()
            .filter(|(name, _, _)| match fused_family {
                "TSD/TSD MAD" => *name == "TSD" || *name == "TSD MAD",
                "historical average/MAD" => {
                    *name == "historical average" || *name == "historical MAD"
                }
                f => *name == f,
            })
            .map(|(_, _, ns)| ns)
            .sum()
    };
    let mut family_table: Vec<(&'static str, usize, f64, f64)> = fused_stats
        .iter()
        .map(|s| {
            let fused_ns = if s.points > 0 {
                s.nanos as f64 / s.points as f64
            } else {
                0.0
            };
            (s.family, s.configs, scalar_ns_for(s.family), fused_ns)
        })
        .collect();
    family_table.sort_by(|a, b| b.2.total_cmp(&a.2));
    for (name, n, scalar_ns, fused_ns) in &family_table {
        eprintln!(
            "[extract/family] {name:<24} {n:>3} configs  scalar {scalar_ns:>7.0} ns/pt  \
             fused {fused_ns:>7.0} ns/pt  ({:.2}x)",
            scalar_ns / fused_ns.max(1e-9),
        );
    }

    // ---- The extraction pool's balance on 30-point batches ----------------
    let pool_runs: Vec<PoolBalance> = [1, configured_threads().max(2)]
        .into_iter()
        .map(|threads| pool_balance(threads, sizes.pool_batches))
        .collect();
    let fmt_us = |us: Option<f64>| us.map_or("null".to_string(), |v| format!("{v:.2}"));
    for run in &pool_runs {
        eprintln!(
            "[pool] {} shard(s), {} batches of {POOL_BATCH} after {POOL_HISTORY_DAYS} days: \
             wall {:.1} us, inline shard {} us, worker shard {} us, caller wait {} us (medians)",
            run.threads,
            sizes.pool_batches,
            run.wall_us,
            fmt_us(run.inline_us),
            fmt_us(run.worker_us),
            fmt_us(run.wait_us)
        );
    }

    // ---- Microbench 2: training throughput ------------------------------
    // `fit` shards tree building across a thread pool with per-tree RNG
    // streams, so every pass (and every thread count) produces the same
    // forest bit-for-bit — re-fitting for best-of-N is sound. Rows/sec is
    // the number the CI floor guards: the background-retrain path is only
    // useful if training keeps up with the labeled-data volume.
    const TRAIN_PASSES: usize = 3;
    let train_threads = configured_threads();
    let data = synthetic_dataset(sizes.micro_rows, 0xC0FFEE);
    let params = RandomForestParams {
        n_trees: sizes.micro_trees,
        seed: 42,
        ..Default::default()
    };
    let mut forest = RandomForest::new(params.clone());
    let mut train_rows_per_sec = 0.0f64;
    let mut train_secs = f64::INFINITY;
    for _ in 0..TRAIN_PASSES {
        forest = RandomForest::new(params.clone());
        let t0 = Instant::now();
        forest.fit(&data);
        let secs = t0.elapsed().as_secs_f64();
        train_secs = train_secs.min(secs);
        train_rows_per_sec = train_rows_per_sec.max(sizes.micro_rows as f64 / secs);
    }
    eprintln!(
        "[train] {} trees on {} rows x 133 features: {:.1} ms, {train_rows_per_sec:.0} rows/s \
         ({train_threads} threads, best of {TRAIN_PASSES})",
        sizes.micro_trees,
        sizes.micro_rows,
        train_secs * 1e3,
    );

    // ---- Microbench 3: tree-walk vs compiled inference ------------------
    let compiled = forest.compile();
    let probes: Vec<Vec<f64>> = (0..512)
        .map(|i| data.row(i % data.len()).to_vec())
        .collect();

    let t0 = Instant::now();
    for i in 0..sizes.micro_preds {
        std::hint::black_box(forest.predict_proba(&probes[i % probes.len()]));
    }
    let walk_ns = t0.elapsed().as_nanos() as f64 / sizes.micro_preds as f64;

    let t0 = Instant::now();
    for i in 0..sizes.micro_preds {
        std::hint::black_box(compiled.predict(&probes[i % probes.len()]));
    }
    let compiled_ns = t0.elapsed().as_nanos() as f64 / sizes.micro_preds as f64;

    let batch_rounds = (sizes.micro_preds / probes.len()).max(1);
    let t0 = Instant::now();
    for _ in 0..batch_rounds {
        std::hint::black_box(compiled.predict_batch(&probes));
    }
    let batch_ns = t0.elapsed().as_nanos() as f64 / (batch_rounds * probes.len()) as f64;

    eprintln!(
        "[inference] walk {walk_ns:.0} ns/pred, compiled {compiled_ns:.0} ns/pred \
         ({:.2}x), batch {batch_ns:.0} ns/pred ({:.2}x)",
        walk_ns / compiled_ns,
        walk_ns / batch_ns
    );

    // ---- TCP server: single session, OBS vs OBSB ------------------------
    let server = Server::bind_with(
        "127.0.0.1:0",
        ServerConfig {
            n_trees: sizes.server_trees,
            ..Default::default()
        },
    )
    .expect("bind");
    let handle = server.handle();
    let join = std::thread::spawn(move || server.serve().expect("serve"));

    // The pre-batching baseline: a naive agent, one OBS per round-trip,
    // no TCP_NODELAY — exactly how every client drove the server before
    // this change. Nagle + delayed ACK stall each point ~40 ms, so the
    // sample is deliberately small.
    let mut legacy = trained_client(handle.addr(), sizes.train_hours, false);
    let obs_legacy = run_obs(&mut legacy, sizes.train_hours, sizes.legacy_points);
    legacy.send("QUIT").unwrap();
    eprintln!(
        "[single] legacy OBS baseline {:.0} pts/s (p50 {:.0}us p99 {:.0}us)",
        obs_legacy.points_per_sec, obs_legacy.p50_us, obs_legacy.p99_us
    );

    let mut c = trained_client(handle.addr(), sizes.train_hours, true);
    let obs = run_obs(&mut c, sizes.train_hours, sizes.measure_points);
    let obsb = run_obsb(
        &mut c,
        sizes.train_hours + sizes.measure_points,
        sizes.measure_points,
        sizes.batch,
    );

    // ---- TCP server: serving while a retrain is in flight ----------------
    // Submit an asynchronous RETRAIN (the session already holds labels)
    // and immediately stream OBS round-trips: the point of background
    // retraining is that these keep answering from the old model instead
    // of stalling for the fit. The retrain may land mid-pass on small
    // modes — the measurement is the latency of the window that *starts*
    // with a job in flight, which is the shape an agent actually sees.
    const RETRAIN_PASSES: usize = 3;
    let during_points = (sizes.measure_points / 4).max(16);
    let mut next_hour = sizes.train_hours + 2 * sizes.measure_points;
    let mut during = ProtocolRun {
        points_per_sec: 0.0,
        p50_us: 0.0,
        p99_us: 0.0,
    };
    let mut server_train_us = 0u64;
    for _ in 0..RETRAIN_PASSES {
        let reply = c.send("RETRAIN").expect("retrain");
        assert!(reply.starts_with("OK retraining"), "{reply}");
        let run = run_obs(&mut c, next_hour, during_points);
        next_hour += during_points;
        server_train_us = server_train_us.max(wait_trained(&mut c));
        if run.points_per_sec > during.points_per_sec {
            during = run;
        }
    }
    c.send("QUIT").unwrap();
    let speedup_baseline = obsb.points_per_sec / obs_legacy.points_per_sec;
    let speedup_nodelay = obsb.points_per_sec / obs.points_per_sec;
    eprintln!(
        "[single] OBS+nodelay {:.0} pts/s (p50 {:.0}us p99 {:.0}us) | OBSB {:.0} pts/s \
         (p50 {:.0}us p99 {:.0}us per batch of {}) | {speedup_baseline:.1}x vs baseline, \
         {speedup_nodelay:.2}x vs OBS+nodelay",
        obs.points_per_sec,
        obs.p50_us,
        obs.p99_us,
        obsb.points_per_sec,
        obsb.p50_us,
        obsb.p99_us,
        sizes.batch
    );
    eprintln!(
        "[during-retrain] OBS {:.0} pts/s (p50 {:.0}us p99 {:.0}us) while training, \
         server fit {server_train_us}us (best of {RETRAIN_PASSES})",
        during.points_per_sec, during.p50_us, during.p99_us
    );

    // ---- TCP server: N concurrent trained sessions streaming OBSB -------
    // Each session trains first (an untrained session only records raw
    // points, so it would measure the protocol alone), then all stream at
    // once; this measures how the thread-per-connection transport scales
    // on this host.
    let addr = handle.addr();
    let per_session = sizes.measure_points / sizes.sessions;
    let start = std::sync::Arc::new(std::sync::Barrier::new(sizes.sessions + 1));
    let workers: Vec<_> = (0..sizes.sessions)
        .map(|_| {
            let batch = sizes.batch;
            let train_hours = sizes.train_hours;
            let start = std::sync::Arc::clone(&start);
            std::thread::spawn(move || {
                let mut c = trained_client(addr, train_hours, true);
                start.wait();
                let mut i = 0;
                while i < per_session {
                    let take = batch.min(per_session - i);
                    let hour = train_hours + i;
                    let values: Vec<String> = (0..take)
                        .map(|k| format!("{}", kpi_value(hour + k).0))
                        .collect();
                    let line = format!("OBSB {} {}", hour * 3600, values.join(" "));
                    assert!(c.send(&line).unwrap().starts_with("OK p="));
                    i += take;
                }
                c.send("QUIT").unwrap();
            })
        })
        .collect();
    start.wait();
    let t0 = Instant::now();
    for w in workers {
        w.join().unwrap();
    }
    let concurrent_pps = (per_session * sizes.sessions) as f64 / t0.elapsed().as_secs_f64();
    eprintln!(
        "[concurrent] {} sessions, {concurrent_pps:.0} pts/s aggregate",
        sizes.sessions
    );

    handle.shutdown();
    join.join().unwrap();

    // ---- TCP server: one durable session ---------------------------------
    // Alone in the process while it serves, so the write counter sees only
    // its WAL and snapshots.
    let durable = durable_session(sizes.server_trees, sizes.durable_served);
    let durable_bpp = durable.bytes_per_point();
    eprintln!(
        "[durable] {} points served after the swap: {} B/pt written (socket bytes in \
         wchar: {:?}); RESUME {:.1} ms after a clean close, {:.1} ms after a crash",
        durable.served_points,
        durable_bpp.map_or("n/a".to_string(), |b| format!("{b:.1}")),
        durable.socket_in_wchar,
        durable.resume_clean_ms,
        durable.resume_crash_ms
    );

    // ---- Results --------------------------------------------------------
    let json = format!(
        r#"{{
  "mode": "{mode}",
  "extractor_build_ms": {{
    "note": "median wall-clock of OnlineExtractor::new(interval) over {build_reps} builds",
{build_json}
  }},
  "extractor_memory": {{
    "note": "resident-set growth after building OnlineExtractor::new(60) and feeding it {memory_days} days of the 1-minute pv preset (null where /proc is unavailable)",
    "interval_s": 60,
    "points": {memory_points},
    "rss_growth_bytes": {memory_bytes}
  }},
  "session_memory": {{
    "note": "resident-set growth of one trained Opprentice pipeline (1-minute pv preset, {memory_days} days of labeled history) while it serves {session_points} more points through observe, read with the allocator's free pages released (null where /proc is unavailable)",
    "interval_s": 60,
    "history_points": {session_history},
    "served_points": {session_points},
    "rss_growth_bytes": {session_bytes},
    "session_bytes_per_point": {session_bpp}
  }},
  "onboarding": {{
    "note": "medians over repeats of the first retrain job's phases on labeled 1-minute pv history: re-extraction, model fit (including the one column sort), five-fold cThld fits and scoring over the same sorted set; then lone_fit_ms, a weekly retrain's shape: a fresh training set and one fit; sorted_bytes is the sort's row-index array (4 B per row and feature; each fit's 1 B per cell of bin codes comes on top)",
    "n_trees": {server_trees},
    "threads": {train_threads},
    "repeats": {onboard_reps},
    "runs": [
{onboard_json}
    ]
  }},
  "first_model_windows": {{
    "note": "wall-clock us/pt of Opprentice::observe over the first {landing_window} points served right after the first model lands (wait_retrain) and over the next {landing_window}, {landing_days} days of 1-minute pv history, medians over fresh pipelines; extract/infer from the pipeline's own counters",
    "n_trees": {server_trees},
    "pipelines": {landing_reps},
    "first_us_per_pt": {first_us:.3},
    "first_extract_us_per_pt": {first_extract:.3},
    "first_infer_us_per_pt": {first_infer:.3},
    "next_us_per_pt": {next_us:.3},
    "next_extract_us_per_pt": {next_extract:.3},
    "next_infer_us_per_pt": {next_infer:.3},
    "median_first_over_next": {landing_ratio:.3}
  }},
  "session_model": {{
    "note": "the last trained session of first_model_windows ({landing_days} days of 1-minute pv history): snapshot_bytes is the length of SessionSnapshot::capture(..).to_bytes(), model_bytes the heap of its one model (CompiledForest::heap_bytes); report only",
    "n_trees": {server_trees},
    "nodes": {model_nodes},
    "snapshot_bytes": {snapshot_bytes},
    "model_bytes": {model_bytes}
  }},
  "inference_microbench": {{
    "n_trees": {micro_trees},
    "n_features": 133,
    "before_tree_walk_ns_per_pred": {walk_ns:.1},
    "after_compiled_ns_per_pred": {compiled_ns:.1},
    "after_compiled_batch_ns_per_pred": {batch_ns:.1},
    "speedup_compiled": {sp_c:.3},
    "speedup_compiled_batch": {sp_b:.3}
  }},
  "extraction_microbench": {{
    "points_per_sec": {extract_pps:.1},
    "streaming_points_per_sec": {extract_stream_pps:.1},
    "batch_points": {extract_batch},
    "n_shards": {n_shards},
    "best_of_passes": {extract_passes},
    "per_family": {{
      "note": "scalar = per-config boxed detectors (before), fused = config-fused family kernel CPU time from the batched run (after)",
{family_json}
    }}
  }},
  "pool_balance": {{
    "note": "OnlineExtractor::observe_batch on {pool_batch}-point batches of the 1-minute pv preset after {pool_days} days of history, one fresh extractor per thread count; medians per batch over {pool_batches} batches: wall_us, and for the worker pool the kernel time of the caller's own shard (inline_us), of the slowest worker shard (worker_us) and the caller's wait for the workers after its own shard (wait_us)",
    "batch_points": {pool_batch},
    "history_days": {pool_days},
    "batches": {pool_batches},
    "runs": [
{pool_json}
    ]
  }},
  "training": {{
    "note": "RandomForest::fit rows/sec; trees are built on a thread pool with per-tree RNG streams, bit-identical to sequential",
    "n_trees": {micro_trees},
    "rows": {micro_rows},
    "threads": {train_threads},
    "best_of_passes": {train_passes},
    "fit_ms": {train_ms:.2},
    "rows_per_sec": {train_rows_per_sec:.1}
  }},
  "serving_single_session": {{
    "measure_points": {measure_points},
    "before_obs_baseline": {{
      "note": "pre-change stack: one OBS per round-trip from a naive agent without TCP_NODELAY",
      "points": {legacy_points},
      "points_per_sec": {leg_pps:.1},
      "p50_roundtrip_us": {leg_p50:.1},
      "p99_roundtrip_us": {leg_p99:.1}
    }},
    "obs_nodelay": {{
      "note": "single-point path after the I/O fixes (coalesced replies, TCP_NODELAY), still one round-trip per point",
      "points_per_sec": {obs_pps:.1},
      "p50_roundtrip_us": {obs_p50:.1},
      "p99_roundtrip_us": {obs_p99:.1}
    }},
    "after_obsb": {{
      "batch": {batch},
      "points_per_sec": {obsb_pps:.1},
      "p50_roundtrip_us": {obsb_p50:.1},
      "p99_roundtrip_us": {obsb_p99:.1}
    }},
    "speedup_obsb_over_obs_baseline": {speedup_baseline:.3},
    "speedup_obsb_over_obs_nodelay": {speedup_nodelay:.3}
  }},
  "serving_during_retrain": {{
    "note": "OBS round-trips measured in a window opened by an asynchronous RETRAIN: the old model keeps serving until the background fit swaps in between requests",
    "points": {during_points},
    "best_of_passes": {retrain_passes},
    "points_per_sec": {during_pps:.1},
    "p50_roundtrip_us": {during_p50:.1},
    "p99_roundtrip_us": {during_p99:.1},
    "server_train_us": {server_train_us}
  }},
  "serving_concurrent": {{
    "note": "aggregate OBSB points/sec of N trained sessions streaming at once (timed after every session's model landed)",
    "sessions": {sessions},
    "points_per_sec": {concurrent_pps:.1}
  }},
  "durable_session": {{
    "note": "one durable TCP session in a temporary state directory: {durable_days} days of labeled 1-minute pv history, LABEL, RETRAIN, then served_points in {durable_batch}-point OBSB lines; bytes_per_point is the /proc/self/io wchar delta over those lines, less the bench's own request and reply bytes where wchar counts socket writes (socket_in_wchar), per point (null where /proc is unavailable); resume_*_ms are medians of {resume_reps} RESUMEs after a clean close and of a copy of the session's files taken after the last served line (a crash); report only",
    "n_trees": {server_trees},
    "served_points": {durable_served},
    "wchar_bytes": {durable_wchar},
    "socket_bytes": {durable_socket},
    "socket_in_wchar": {durable_socket_in_wchar},
    "bytes_per_point": {durable_bpp},
    "resume_clean_ms": {durable_clean:.1},
    "resume_crash_ms": {durable_crash:.1}
  }}
}}
"#,
        mode = sizes.mode,
        server_trees = sizes.server_trees,
        onboard_json = onboard
            .iter()
            .map(|o| format!(
                "      {{\"days\": {}, \"rows\": {}, \"extract_ms\": {:.2}, \"fit_ms\": {:.2}, \
                 \"five_fold_ms\": {:.2}, \"lone_fit_ms\": {:.2}, \"sorted_bytes\": {}}}",
                o.days,
                o.rows,
                o.extract_ms,
                o.fit_ms,
                o.five_fold_ms,
                o.lone_fit_ms,
                o.sorted_bytes
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        onboard_reps = ONBOARD_REPS,
        landing_window = LANDING_WINDOW,
        landing_days = LANDING_HISTORY_DAYS,
        landing_reps = landing.len(),
        first_extract = landing_median(|w| w.0.extract),
        first_infer = landing_median(|w| w.0.infer),
        next_extract = landing_median(|w| w.1.extract),
        next_infer = landing_median(|w| w.1.infer),
        build_reps = BUILD_REPS,
        build_json = build_ms
            .iter()
            .map(|(interval, ms)| format!("    \"interval_{interval}s\": {ms:.3}"))
            .collect::<Vec<_>>()
            .join(",\n"),
        memory_days = MEMORY_DAYS,
        memory_bytes = memory_bytes.map_or("null".to_string(), |b| b.to_string()),
        session_points = SESSION_SERVED_POINTS,
        session_bytes = session_bytes.map_or("null".to_string(), |b| b.to_string()),
        session_bpp = session_bytes_per_point.map_or("null".to_string(), |b| format!("{b:.1}")),
        extract_batch = EXTRACT_BATCH,
        extract_passes = EXTRACT_PASSES,
        family_json = family_table
            .iter()
            .map(|(name, n, scalar_ns, fused_ns)| format!(
                "      \"{name}\": {{\"configs\": {n}, \"scalar_ns_per_point\": {scalar_ns:.1}, \
                 \"fused_ns_per_point\": {fused_ns:.1}, \"speedup\": {:.2}}}",
                scalar_ns / fused_ns.max(1e-9)
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        pool_batch = POOL_BATCH,
        pool_days = POOL_HISTORY_DAYS,
        pool_batches = sizes.pool_batches,
        pool_json = pool_runs
            .iter()
            .map(|run| format!(
                "      {{\"threads\": {}, \"wall_us\": {:.2}, \"inline_us\": {}, \
                 \"worker_us\": {}, \"wait_us\": {}}}",
                run.threads,
                run.wall_us,
                fmt_us(run.inline_us),
                fmt_us(run.worker_us),
                fmt_us(run.wait_us)
            ))
            .collect::<Vec<_>>()
            .join(",\n"),
        micro_trees = sizes.micro_trees,
        micro_rows = sizes.micro_rows,
        train_passes = TRAIN_PASSES,
        train_ms = train_secs * 1e3,
        retrain_passes = RETRAIN_PASSES,
        during_pps = during.points_per_sec,
        during_p50 = during.p50_us,
        during_p99 = during.p99_us,
        sp_c = walk_ns / compiled_ns,
        sp_b = walk_ns / batch_ns,
        measure_points = sizes.measure_points,
        legacy_points = sizes.legacy_points,
        leg_pps = obs_legacy.points_per_sec,
        leg_p50 = obs_legacy.p50_us,
        leg_p99 = obs_legacy.p99_us,
        obs_pps = obs.points_per_sec,
        obs_p50 = obs.p50_us,
        obs_p99 = obs.p99_us,
        batch = sizes.batch,
        obsb_pps = obsb.points_per_sec,
        obsb_p50 = obsb.p50_us,
        obsb_p99 = obsb.p99_us,
        sessions = sizes.sessions,
        durable_days = DURABLE_HISTORY_DAYS,
        durable_batch = DURABLE_BATCH,
        resume_reps = RESUME_REPS,
        durable_served = durable.served_points,
        durable_wchar = durable
            .wchar_bytes
            .map_or("null".to_string(), |b| b.to_string()),
        durable_socket = durable.socket_bytes,
        durable_socket_in_wchar = durable
            .socket_in_wchar
            .map_or("null".to_string(), |b| b.to_string()),
        durable_bpp = durable_bpp.map_or("null".to_string(), |b| format!("{b:.1}")),
        durable_clean = durable.resume_clean_ms,
        durable_crash = durable.resume_crash_ms,
    );
    std::fs::create_dir_all("results").expect("create results dir");
    let path = "results/BENCH_serving.json";
    let mut f = std::fs::File::create(path).expect("create json");
    f.write_all(json.as_bytes()).expect("write json");
    eprintln!("[json] wrote {path}");

    if let Some(ceiling) = floor_arg("--max-session-bytes-per-pt") {
        match session_bytes_per_point {
            Some(b) if b > ceiling => {
                eprintln!(
                    "[FAIL] a served point costs {b:.1} B of session memory, above the \
                     committed ceiling of {ceiling:.0} B"
                );
                std::process::exit(1);
            }
            Some(b) => eprintln!("[ceiling] session memory {b:.1} B/pt <= {ceiling:.0} B/pt"),
            None => eprintln!("[ceiling] session memory not measurable here; skipped"),
        }
    }
    if let Some(ceiling) = floor_arg("--max-durable-bytes-per-pt") {
        match durable_bpp {
            Some(b) if b > ceiling => {
                eprintln!(
                    "[FAIL] a durable session writes {b:.1} B per served point, above the \
                     committed ceiling of {ceiling:.0} B"
                );
                std::process::exit(1);
            }
            Some(b) => eprintln!("[ceiling] durable writes {b:.1} B/pt <= {ceiling:.0} B/pt"),
            None => eprintln!("[ceiling] durable writes not measurable here; skipped"),
        }
    }
    if let Some(floor) = floor_arg("--min-extract-pps") {
        if extract_pps < floor {
            eprintln!(
                "[FAIL] batched extraction {extract_pps:.0} pts/s is below the \
                 committed floor of {floor:.0} pts/s"
            );
            std::process::exit(1);
        }
        eprintln!("[floor] batched extraction {extract_pps:.0} pts/s >= {floor:.0} pts/s");
    }
    if let Some(floor) = floor_arg("--min-obsb-pps") {
        if obsb.points_per_sec < floor {
            eprintln!(
                "[FAIL] OBSB serving {:.0} pts/s is below the committed floor of {floor:.0} pts/s",
                obsb.points_per_sec
            );
            std::process::exit(1);
        }
        eprintln!(
            "[floor] OBSB serving {:.0} pts/s >= {floor:.0} pts/s",
            obsb.points_per_sec
        );
    }
    if let Some(floor) = floor_arg("--min-train-rows-per-sec") {
        if train_rows_per_sec < floor {
            eprintln!(
                "[FAIL] training {train_rows_per_sec:.0} rows/s is below the \
                 committed floor of {floor:.0} rows/s"
            );
            std::process::exit(1);
        }
        eprintln!("[floor] training {train_rows_per_sec:.0} rows/s >= {floor:.0} rows/s");
    }
}
