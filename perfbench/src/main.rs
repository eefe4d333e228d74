//! The repository benchmark: paper-KPI serving workloads against a real
//! `opprentice-serve` process, every verdict checked against an
//! in-process reference pipeline.
//!
//! ```text
//! perfbench --workload <pv|sr> --seed <n> --seconds <s> --trace <0|1> \
//!           --server <opprentice-serve binary> --out <scratch dir>
//! ```
//!
//! A run plays rounds until `--seconds` have passed (at least
//! `MIN_ROUNDS`). A round starts a fresh server, onboards one KPI session
//! (labeled history, labels, first training: the set-up), streams its
//! points as fast as the server answers, closes the session and stops the
//! server. Every round sends the same commands, so its replies must equal
//! the first round's, and the first round's replies must equal the
//! reference pipeline's.
//!
//! Each figure is taken per round and the run reports the median round,
//! so a burst of interference from other tenants of the host moves one
//! round, not the figure. End-to-end times are also scaled to a reference
//! host speed, measured by a calibration pass around every round (see
//! `calib`), because the host's own speed drifts for minutes at a time.
//!
//! The last line of stdout is one JSON object: end-to-end metrics with
//! `--trace 0`; with `--trace 1`, per-layer metrics from the spans
//! recorded here and the server's `STATUS` counters, unscaled, and the
//! spans are written under `--out`.

mod calib;
mod oracle;
mod server;
mod session;
mod trace;
mod workload;

use calib::{Calibration, REFERENCE_MS};
use server::{status_field, ServerProc};
use session::Served;
use std::path::PathBuf;
use std::time::{Duration, Instant};
use trace::Spans;
use workload::{SessionData, Workload};

/// Rounds played even when `--seconds` is shorter than that.
const MIN_ROUNDS: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut out = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    workload::find(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad seed {value}"))?),
            "--seconds" => {
                seconds = Some(value.parse().map_err(|_| format!("bad seconds {value}"))?)
            }
            "--trace" => trace = Some(value == "1"),
            "--server" => server = Some(PathBuf::from(value)),
            "--out" => out = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        server: server.ok_or("--server is required")?,
        out: out.ok_or("--out is required")?,
    })
}

fn median(v: &mut [f64]) -> f64 {
    quantile(v, 0.5)
}

/// Nearest-rank quantile; 0 for an empty sample.
fn quantile(v: &mut [f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    v.sort_by(f64::total_cmp);
    let rank = ((q * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// What one round measured.
struct Round {
    /// Milliseconds of the calibration passes just before and after the
    /// round, averaged: how fast the host ran meanwhile.
    host_ms: f64,
    setup_s: f64,
    /// Seconds spent streaming the history while onboarding.
    ingest_s: f64,
    /// Server extraction time spent on the history.
    ingest_extract_us: u64,
    /// Server-reported training time of the first model.
    train_ms: f64,
    /// Seconds from the first request to the last reply.
    serve_s: f64,
    /// Round trip of each write.
    latency_ms: Vec<f64>,
    served: Served,
}

fn main() {
    let origin = Instant::now();
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    match run(&args, origin) {
        Ok(line) => println!("{line}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}

fn run(args: &Args, origin: Instant) -> Result<String, String> {
    let w = args.workload;
    let data = w.generate(args.seed);

    let mut spans = Spans::new(args.trace);
    let (rounds, mut mismatch) = measure(args, &data, &mut spans)?;

    let t = Instant::now();
    if mismatch.is_none() {
        mismatch = oracle::check(&data, w.batch, &rounds[0].served).err();
    }
    eprintln!(
        "perfbench: {} rounds; reference check took {:.1}s",
        rounds.len(),
        t.elapsed().as_secs_f64()
    );
    if let Some(e) = &mismatch {
        eprintln!("perfbench: incorrect output: {e}");
    }

    if args.trace {
        let path = args
            .out
            .join(format!("trace-{}-seed{}.jsonl", w.name, args.seed));
        trace::write(&path, origin, &spans.list).map_err(|e| format!("write trace: {e}"))?;
        eprintln!("perfbench: spans written to {}", path.display());
    }
    Ok(report(
        args,
        data.history,
        &rounds,
        &spans,
        mismatch.is_none(),
    ))
}

/// Plays rounds, each against a fresh server, until `--seconds` have
/// passed. Returns the rounds, of which only the first keeps its replies,
/// and the first difference between a later round's replies and the
/// first's.
fn measure(
    args: &Args,
    data: &SessionData,
    spans: &mut Spans,
) -> Result<(Vec<Round>, Option<String>), String> {
    let calibration = Calibration::new();
    let mut host_ms = calibration.pass();
    let t0 = Instant::now();
    let mut rounds: Vec<Round> = Vec::new();
    let mut mismatch = None;
    while rounds.len() < MIN_ROUNDS || t0.elapsed() < Duration::from_secs(args.seconds) {
        let server = ServerProc::start(&args.server)?;
        let round = play_round(args, data, &server, spans);
        drop(server);
        let mut round = round?;
        let before = host_ms;
        host_ms = calibration.pass();
        round.host_ms = (before + host_ms) / 2.0;
        if let Some(first) = rounds.first() {
            if mismatch.is_none() && first.served.replies != round.served.replies {
                mismatch = Some(format!(
                    "round {} replied differently from round 0",
                    rounds.len()
                ));
            }
            round.served.replies = Vec::new();
        }
        rounds.push(round);
    }
    Ok((rounds, mismatch))
}

/// Onboards the session, serves its points, closes it.
fn play_round(
    args: &Args,
    data: &SessionData,
    server: &ServerProc,
    spans: &mut Spans,
) -> Result<Round, String> {
    let w = args.workload;
    let t = Instant::now();
    let setup = spans.record("setup", 0, t, t);
    let mut session = session::onboard(server.addr, data, spans, setup)?;
    let setup_s = t.elapsed().as_secs_f64();
    spans.end(setup, Instant::now());

    let start = Instant::now();
    let serve = spans.record("serve", 0, start, start);
    let served = session::serve(&mut session.conn, data, w.batch, w.pipeline, spans, serve)?;
    spans.end(serve, served.end);
    session.conn.close();
    Ok(Round {
        host_ms: 0.0,
        setup_s,
        ingest_s: session.ingest.as_secs_f64(),
        ingest_extract_us: session.extract_us,
        train_ms: session.train_us as f64 / 1e3,
        serve_s: (served.end - start).as_secs_f64(),
        latency_ms: served
            .latency_ns
            .iter()
            .map(|&ns| ns as f64 / 1e6)
            .collect(),
        served,
    })
}

/// Formats the result line; `history` is the points streamed while
/// onboarding.
fn report(args: &Args, history: usize, rounds: &[Round], spans: &Spans, correct: bool) -> String {
    let w = args.workload;
    let lines: usize = rounds.iter().map(|r| r.served.lines).sum();
    let failed: usize = rounds.iter().map(|r| r.served.failed).sum();
    let per_round = |f: &dyn Fn(&Round) -> f64| -> f64 {
        let mut v: Vec<f64> = rounds.iter().map(f).collect();
        median(&mut v)
    };
    let round_points = |r: &Round| (r.served.lines * w.batch) as f64;

    let mut metrics: Vec<(&str, f64, &str)> = Vec::new();
    if !args.trace {
        // Times as on the reference host: each round's scaled by how much
        // slower than the reference the host ran around it.
        let slowdown = |r: &Round| r.host_ms / REFERENCE_MS;
        let round_quantile = |r: &Round, q: f64| quantile(&mut r.latency_ms.clone(), q);
        metrics.push((
            "verdict_pts_per_s",
            per_round(&|r| round_points(r) / r.serve_s * slowdown(r)),
            "1/s",
        ));
        metrics.push((
            "request_p50_ms",
            per_round(&|r| round_quantile(r, 0.5) / slowdown(r)),
            "ms",
        ));
        metrics.push((
            "request_p90_ms",
            per_round(&|r| round_quantile(r, 0.9) / slowdown(r)),
            "ms",
        ));
        metrics.push(("setup_s", per_round(&|r| r.setup_s / slowdown(r)), "s"));
    } else {
        // Server time spent in the pipeline while serving.
        let pipeline_us = |r: &Round, key: &str| -> f64 {
            let counter = |status: &str| status_field(status, key).unwrap_or(0) as f64;
            counter(&r.served.status_after) - counter(&r.served.status_before)
        };
        let span_ms = |name: &str| -> Vec<f64> {
            spans
                .list
                .iter()
                .filter(|s| s.name == name)
                .map(|s| s.duration().as_secs_f64() * 1e3)
                .collect()
        };
        metrics.push((
            "extract_us_per_pt",
            per_round(&|r| pipeline_us(r, "extract_us") / round_points(r)),
            "us",
        ));
        metrics.push((
            "infer_us_per_pt",
            per_round(&|r| pipeline_us(r, "infer_us") / round_points(r)),
            "us",
        ));
        // Round trip not spent extracting or scoring: protocol, sockets,
        // and waiting for a core.
        metrics.push((
            "outside_pipeline_us_per_pt",
            per_round(&|r| {
                let roundtrip_us: f64 = r.latency_ms.iter().sum::<f64>() * 1e3;
                (roundtrip_us - pipeline_us(r, "extract_us") - pipeline_us(r, "infer_us"))
                    / round_points(r)
            }),
            "us",
        ));
        metrics.push((
            "backfill_pts_per_s",
            per_round(&|r| history as f64 / r.ingest_s),
            "1/s",
        ));
        metrics.push((
            "backfill_extract_us_per_pt",
            per_round(&|r| r.ingest_extract_us as f64 / history as f64),
            "us",
        ));
        metrics.push(("train_ms", per_round(&|r| r.train_ms), "ms"));
        metrics.push(("train_wait_ms", median(&mut span_ms("train")), "ms"));
        metrics.push(("label_ms", median(&mut span_ms("label")), "ms"));
        metrics.push(("host_calibration_ms", per_round(&|r| r.host_ms), "ms"));
        metrics.push(("rounds", rounds.len() as f64, "count"));
        metrics.push(("lines", lines as f64, "count"));
    }
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| format!(r#""{name}": {{"value": {value}, "unit": "{unit}"}}"#))
        .collect();
    format!(
        r#"{{"correct": {correct}, "attempted": {lines}, "failed": {failed}, "metrics": {{{}}}}}"#,
        body.join(", ")
    )
}
