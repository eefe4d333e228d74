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
//! Results land in `results/BENCH_serving.json`. Modes: `--tiny` (CI
//! smoke, seconds), default (laptop-sized), `--full` (paper-sized forest
//! everywhere).
//!
//! Run with: `cargo run --release -p opprentice-bench --bin serving_bench`

use opprentice::features::OnlineExtractor;
use opprentice::{Opprentice, OpprenticeConfig};
use opprentice_detectors::{clamp_severity, registry, Detector};
use opprentice_learn::{Classifier, Dataset, RandomForest, RandomForestParams};
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

    // ---- Microbench 2: training throughput ------------------------------
    // `fit` shards tree building across a thread pool with per-tree RNG
    // streams, so every pass (and every thread count) produces the same
    // forest bit-for-bit — re-fitting for best-of-N is sound. Rows/sec is
    // the number the CI floor guards: the background-retrain path is only
    // useful if training keeps up with the labeled-data volume.
    const TRAIN_PASSES: usize = 3;
    let train_threads = opprentice_numeric::parallel::configured_threads();
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
  }}
}}
"#,
        mode = sizes.mode,
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
