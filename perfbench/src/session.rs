//! What one monitored KPI's agent does: onboard (history, labels, first
//! training), then stream points.

use crate::server::{status_field, Conn};
use crate::trace::Spans;
use crate::workload::SessionData;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// History points per `OBSB` line while onboarding.
pub const HISTORY_CHUNK: usize = 240;

/// How long the agent waits for a background retrain to land.
const TRAIN_TIMEOUT: Duration = Duration::from_secs(90);

/// A session with a trained model, ready to serve.
pub struct Onboarded {
    pub conn: Conn,
    pub ingest: Duration,
    /// Server-side cumulative extraction time after onboarding.
    pub extract_us: u64,
    /// Server-reported training time of the first model.
    pub train_us: u64,
}

/// Writes `OBSB <ts0> <v0> <v1> …` into `line`.
fn obsb_line(line: &mut String, ts0: i64, values: &[Option<f64>]) {
    line.clear();
    let _ = write!(line, "OBSB {ts0}");
    for v in values {
        match v {
            Some(v) => {
                let _ = write!(line, " {v}");
            }
            None => line.push_str(" nan"),
        }
    }
}

fn label_line(flags: &[bool]) -> String {
    let mut line = String::with_capacity(flags.len() + 6);
    line.push_str("LABEL ");
    line.extend(flags.iter().map(|&f| if f { '1' } else { '0' }));
    line
}

/// Polls `STATUS` until no retrain is in flight; returns the last reply.
fn wait_trained(conn: &mut Conn) -> Result<String, String> {
    let deadline = Instant::now() + TRAIN_TIMEOUT;
    loop {
        let status = conn.expect_ok("STATUS")?;
        if status_field(&status, "training")? == 0 {
            return Ok(status);
        }
        if Instant::now() > deadline {
            return Err("retrain did not finish in time".into());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Opens a session and brings it to a trained model: stream the labeled
/// history in batches, label it, retrain and wait for the model to land.
pub fn onboard(
    addr: SocketAddr,
    data: &SessionData,
    spans: &mut Spans,
    parent: u64,
) -> Result<Onboarded, String> {
    let mut conn = Conn::connect(addr)?;
    conn.expect_ok(&format!("HELLO {}", data.interval))?;

    let step = i64::from(data.interval);
    let mut line = String::new();
    let t_ingest = Instant::now();
    for start in (0..data.history).step_by(HISTORY_CHUNK) {
        let end = (start + HISTORY_CHUNK).min(data.history);
        obsb_line(&mut line, start as i64 * step, &data.values[start..end]);
        let t = Instant::now();
        let reply = conn.expect_ok(&line)?;
        spans.record("ingest_batch", parent, t, Instant::now());
        // Nothing is trained yet: every point must be pending.
        let verdicts = reply.strip_prefix("OK ").unwrap_or_default();
        if verdicts.split('|').count() != end - start || verdicts.split('|').any(|v| v != "pending")
        {
            return Err(format!("untrained history batch answered `{reply}`"));
        }
    }
    let ingest = t_ingest.elapsed();

    let t = Instant::now();
    conn.expect_ok(&label_line(&data.flags[..data.history]))?;
    spans.record("label", parent, t, Instant::now());

    let t = Instant::now();
    let reply = conn.expect_ok("RETRAIN")?;
    if !reply.starts_with("OK retraining") {
        return Err(format!("RETRAIN answered `{reply}`"));
    }
    let status = wait_trained(&mut conn)?;
    spans.record("train", parent, t, Instant::now());
    if status_field(&status, "model_version")? != 1 {
        return Err(format!("onboarding retrain did not land: {status}"));
    }
    Ok(Onboarded {
        extract_us: status_field(&status, "extract_us")?,
        train_us: status_field(&status, "train_us")?,
        conn,
        ingest,
    })
}

/// Everything one agent saw while serving.
pub struct Served {
    /// Reply to each data line, in order.
    pub replies: Vec<String>,
    /// Round-trip nanoseconds of each write, from sending it until its
    /// last reply arrived.
    pub latency_ns: Vec<u64>,
    /// When the last reply arrived.
    pub end: Instant,
    /// Data lines sent, and how many were answered with something other
    /// than `OK`.
    pub lines: usize,
    pub failed: usize,
    /// `STATUS` before the first and after the last data request.
    pub status_before: String,
    pub status_after: String,
}

/// Streams all of the session's served points: each write carries
/// `pipeline` lines of `batch` points, and is sent as soon as the previous
/// write's replies have arrived. The agent is replaying a backlog, as
/// after an outage, so the server sets the pace.
pub fn serve(
    conn: &mut Conn,
    data: &SessionData,
    batch: usize,
    pipeline: usize,
    spans: &mut Spans,
    parent: u64,
) -> Result<Served, String> {
    let status_before = conn.expect_ok("STATUS")?;
    let step = i64::from(data.interval);
    let mut served = Served {
        replies: Vec::new(),
        latency_ns: Vec::new(),
        end: Instant::now(),
        lines: 0,
        failed: 0,
        status_before,
        status_after: String::new(),
    };
    let mut lines = String::new();
    let mut line = String::new();
    let per_write = batch * pipeline;
    for first in (data.history..data.values.len() - per_write + 1).step_by(per_write) {
        lines.clear();
        for (j, chunk) in data.values[first..first + per_write]
            .chunks(batch)
            .enumerate()
        {
            let ts = (first + j * batch) as i64 * step;
            if batch == 1 {
                line.clear();
                match chunk[0] {
                    Some(v) => {
                        let _ = write!(line, "OBS {ts} {v}");
                    }
                    None => {
                        let _ = write!(line, "OBS {ts} nan");
                    }
                }
            } else {
                obsb_line(&mut line, ts, chunk);
            }
            lines.push_str(&line);
            lines.push('\n');
        }
        let sent = Instant::now();
        conn.send_all(&lines, &mut served.replies)?;
        let done = Instant::now();
        served.latency_ns.push((done - sent).as_nanos() as u64);
        spans.record("request", parent, sent, done);
        served.end = done;
    }
    served.lines = served.replies.len();
    served.failed = served
        .replies
        .iter()
        .filter(|r| !r.starts_with("OK "))
        .count();
    served.status_after = conn.expect_ok("STATUS")?;
    Ok(served)
}
