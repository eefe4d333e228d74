//! The TCP transport: accept loop, per-connection session, connection
//! hardening (timeouts, load shedding, panic isolation), durable-session
//! orchestration, background retraining with atomic model hot-swap,
//! graceful shutdown.
//!
//! # Background retraining
//!
//! `RETRAIN` replies immediately (`OK retraining job=<id>`) and trains on
//! a dedicated thread while `OBS`/`OBSB` keep serving the old model. The
//! finished model is swapped in atomically between requests (see
//! [`harvest_training`]), the swap is logged to the WAL at that moment,
//! and an `EVENT retrained …` line is pushed to the client ahead of the
//! next reply. While a job is in flight, `LABEL` and a second `RETRAIN`
//! are rejected — that invariant is what lets WAL replay (a synchronous
//! retrain at the logged swap position) rebuild the exact model the live
//! session was serving.

use crate::proto::{parse_request, Request, Response};
use crate::store::{DurableSession, SessionStore};
use opprentice::cthld::Preference;
use opprentice::{Opprentice, OpprenticeConfig};
use opprentice_learn::RandomForestParams;
use opprentice_timeseries::Labels;
use parking_lot::Mutex;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Tunables for the serving layer. The defaults suit production; tests
/// shrink the timeouts and the forest.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Forest size per session.
    pub n_trees: usize,
    /// Root directory for durable session state (WALs + snapshots).
    /// `None` disables `HELLO <interval> <id>` and `RESUME`.
    pub state_dir: Option<PathBuf>,
    /// Granularity of the per-connection read loop: how often a blocked
    /// read wakes up to check deadlines and the shutdown flag.
    pub read_tick: Duration,
    /// A line must complete within this once its first byte arrives
    /// (defeats slowloris clients that trickle one byte at a time).
    pub line_deadline: Duration,
    /// Connections with no complete line for this long are reaped.
    pub idle_timeout: Duration,
    /// Lines longer than this many bytes (terminator excluded) get `ERR` +
    /// disconnect (bounds memory per connection against garbage floods).
    /// The cap is per line: pipelined lines may exceed it together.
    pub max_line_len: usize,
    /// Connections beyond this are answered `ERR busy` and half-closed
    /// immediately instead of degrading everyone (their input is drained
    /// briefly off the accept thread so the reply is not lost to a reset).
    pub max_connections: usize,
    /// Test hook: accept a `PANIC` verb that panics inside the command
    /// handler, to exercise panic isolation from the outside. Never enable
    /// in production.
    pub enable_panic_verb: bool,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            n_trees: 50,
            state_dir: None,
            read_tick: Duration::from_millis(50),
            line_deadline: Duration::from_secs(30),
            idle_timeout: Duration::from_secs(300),
            max_line_len: 1 << 20,
            max_connections: 256,
            enable_panic_verb: false,
        }
    }
}

/// One client's session state: the protocol state machine around one
/// [`Opprentice`] pipeline. Pure — no I/O — so the store can replay
/// commands through it during recovery.
pub(crate) struct Session {
    pipeline: Option<Opprentice>,
    preference: Preference,
    n_trees: usize,
}

impl Session {
    pub(crate) fn new(n_trees: usize) -> Self {
        Self {
            pipeline: None,
            preference: Preference::moderate(),
            n_trees,
        }
    }

    pub(crate) fn pipeline_mut(&mut self) -> Option<&mut Opprentice> {
        self.pipeline.as_mut()
    }

    /// Applies one request to the state machine. `HELLO`'s session id and
    /// `RESUME` are connection-level concerns handled before this point;
    /// here `HELLO` just configures the pipeline.
    pub(crate) fn apply(&mut self, request: &Request) -> Response {
        match request {
            Request::Hello {
                interval,
                session: _,
            } => {
                if self.pipeline.is_some() {
                    return Response::Err("already configured".into());
                }
                let config = OpprenticeConfig {
                    preference: self.preference,
                    forest: RandomForestParams {
                        n_trees: self.n_trees,
                        ..Default::default()
                    },
                    ..Default::default()
                };
                self.pipeline = Some(Opprentice::new(*interval, config));
                Response::Ok(format!("opprentice interval={interval}"))
            }
            Request::Resume { .. } => {
                Response::Err("RESUME must be the first command on a fresh connection".into())
            }
            Request::Pref { recall, precision } => {
                if self.pipeline.is_some() {
                    // Applies from the next HELLO; keep semantics simple.
                    return Response::Err("PREF must precede HELLO".into());
                }
                self.preference = Preference {
                    recall: *recall,
                    precision: *precision,
                };
                Response::Ok(format!("pref recall={recall} precision={precision}"))
            }
            Request::Obs { timestamp, value } => {
                let Some(p) = self.pipeline.as_mut() else {
                    return Response::Err("HELLO first".into());
                };
                Response::Verdict(p.observe(*timestamp, *value))
            }
            Request::ObsBatch { start, values } => {
                let Some(p) = self.pipeline.as_mut() else {
                    return Response::Err("HELLO first".into());
                };
                // Point `i` lands at `start + i * interval`, and `start` is
                // the client's: refuse a batch that runs past `i64`.
                let last = i64::try_from(values.len().saturating_sub(1))
                    .ok()
                    .and_then(|n| n.checked_mul(i64::from(p.interval())))
                    .and_then(|span| start.checked_add(span));
                if last.is_none() {
                    return Response::Err("OBSB timestamps overflow".into());
                }
                Response::Verdicts(p.observe_batch(*start, values))
            }
            Request::Label { flags } => {
                let Some(p) = self.pipeline.as_mut() else {
                    return Response::Err("HELLO first".into());
                };
                // New labels would change the training set the in-flight
                // job already snapshotted. Rejecting them keeps the labeled
                // prefix at swap time identical to the one at submission
                // time, which is what makes WAL replay (a synchronous
                // retrain at the swap position) reproduce the live model.
                if p.training_in_flight() {
                    return Response::Err(
                        "retrain in progress; send labels after it completes".into(),
                    );
                }
                match p.ingest_labels(&Labels::from_flags(flags.clone())) {
                    Ok(()) => Response::Ok(format!("labeled={}", p.labeled_len())),
                    Err(e) => Response::Err(e.to_string()),
                }
            }
            Request::Retrain => {
                let Some(p) = self.pipeline.as_mut() else {
                    return Response::Err("HELLO first".into());
                };
                match p.start_retrain() {
                    Ok(job) => Response::Ok(format!("retraining job={job}")),
                    Err(e) => Response::Err(e.to_string()),
                }
            }
            Request::Status => match self.pipeline.as_ref() {
                None => Response::Ok(
                    "observed=0 labeled=0 trained=0 extract_us=0 infer_us=0 \
                     train_us=0 model_version=0 training=0"
                        .into(),
                ),
                Some(p) => Response::Ok(format!(
                    "observed={} labeled={} trained={} cthld={:.3} extract_us={} infer_us={} \
                     train_us={} model_version={} training={}",
                    p.observed_len(),
                    p.labeled_len(),
                    u8::from(p.is_trained()),
                    p.current_cthld(),
                    p.extract_us(),
                    p.infer_us(),
                    p.train_us(),
                    p.model_version(),
                    u8::from(p.training_in_flight())
                )),
            },
            Request::Quit => Response::Bye,
        }
    }

    /// Applies one request during WAL replay. Identical to [`Session::apply`]
    /// except that `RETRAIN` trains synchronously: a logged `RETRAIN` marks
    /// the position where a background job's model was swapped in, so replay
    /// must produce the new model before the next line. The result is
    /// bit-identical to the live session's because the live job trained on
    /// exactly the labeled prefix that exists here (labels are rejected
    /// while a job is in flight) and the asynchronous path is the
    /// synchronous path — `Opprentice::retrain` is `start_retrain` +
    /// `wait_retrain`.
    pub(crate) fn apply_replay(&mut self, request: &Request) -> Response {
        let response = self.apply(request);
        if matches!(request, Request::Retrain) {
            if let Response::Ok(_) = &response {
                return match self.wait_training() {
                    Some(r) => Response::Ok(format!("trained cthld={:.3}", r.cthld)),
                    // A panicked trainer keeps the old model; the replayed
                    // WAL said a swap happened, so surface the divergence.
                    None => Response::Err("retrain failed during replay".into()),
                };
            }
        }
        response
    }

    /// Non-blocking check for a finished background retrain; swaps the new
    /// model in if one is ready.
    pub(crate) fn poll_training(&mut self) -> Option<opprentice::TrainingReport> {
        self.pipeline.as_mut()?.poll_retrain()
    }

    /// Blocks until any in-flight retrain lands (replay and tests).
    pub(crate) fn wait_training(&mut self) -> Option<opprentice::TrainingReport> {
        self.pipeline.as_mut()?.wait_retrain()
    }
}

/// Shared, immutable context handed to every connection thread.
struct ConnCtx {
    config: ServerConfig,
    store: Option<SessionStore>,
    stop: Arc<AtomicBool>,
}

/// Polls the session's background trainer; when a new model just landed,
/// makes the swap durable ([`DurableSession::log_swap`]) and returns the
/// completion event line to write to the client ahead of the next reply.
fn harvest_training(session: &mut Session, durable: &mut Option<DurableSession>) -> Option<String> {
    let report = session.poll_training()?;
    if let (Some(d), Some(p)) = (durable.as_mut(), session.pipeline.as_ref()) {
        // An append failure leaves the swap volatile — recovery would land
        // on the old model — but the live session serves the new one
        // either way, and the clean close's snapshot captures it durably.
        let _ = d.log_swap(p);
    }
    Some(format!(
        "EVENT retrained job={} model_version={} cthld={:.3} train_us={}",
        report.job_id, report.model_version, report.cthld, report.train_us
    ))
}

/// Parses and applies one trimmed, non-empty line; hands each applied
/// request of a durable session to its WAL. Runs inside `catch_unwind`.
fn apply_line(
    trimmed: &str,
    session: &mut Session,
    durable: &mut Option<DurableSession>,
    ctx: &ConnCtx,
) -> Response {
    if ctx.config.enable_panic_verb && trimmed.eq_ignore_ascii_case("PANIC") {
        panic!("injected test panic");
    }
    let request = match parse_request(trimmed) {
        Ok(r) => r,
        Err(reason) => return Response::Err(reason),
    };

    // Connection-level setup commands that involve the store.
    match &request {
        Request::Hello {
            session: Some(id), ..
        } => {
            let Some(store) = ctx.store.as_ref() else {
                return Response::Err("durable sessions need a server state directory".into());
            };
            if session.pipeline.is_some() {
                return Response::Err("already configured".into());
            }
            // The HELLO itself is applied and logged below, like any
            // other command.
            match store.create(id, ctx.config.n_trees) {
                Ok(d) => *durable = Some(d),
                Err(e) => return Response::Err(e.to_string()),
            }
        }
        Request::Resume { session: id } => {
            let Some(store) = ctx.store.as_ref() else {
                return Response::Err("durable sessions need a server state directory".into());
            };
            if session.pipeline.is_some() {
                return Response::Err("already configured".into());
            }
            return match store.resume(id) {
                Ok((d, recovered)) => {
                    *session = recovered;
                    *durable = Some(d);
                    let status = session.apply(&Request::Status);
                    match status {
                        Response::Ok(s) => Response::Ok(format!("resumed {s}")),
                        other => other,
                    }
                }
                Err(e) => Response::Err(e.to_string()),
            };
        }
        _ => {}
    }

    let response = session.apply(&request);
    if let (true, Some(d), Some(p)) = (
        response.is_ok(),
        durable.as_mut(),
        session.pipeline.as_ref(),
    ) {
        // Logged after apply, before the OK goes out: every command the
        // client sees acknowledged is on its way to disk.
        if let Err(e) = d.log(&request, trimmed, p) {
            return Response::Err(format!("session store I/O: {e}"));
        }
    }
    response
}

fn write_line(writer: &mut TcpStream, line: &str) -> std::io::Result<()> {
    // One syscall per line, not three (body, newline, flush).
    let mut out = Vec::with_capacity(line.len() + 1);
    out.extend_from_slice(line.as_bytes());
    out.push(b'\n');
    writer.write_all(&out)
}

/// Runs one connection to completion with the full hardening stack:
/// tick-based reads (so deadlines and shutdown are honored), slowloris and
/// idle timeouts, a line-length cap, per-command panic isolation, and
/// durable-session bookkeeping with a final snapshot on clean exit.
fn serve_connection(stream: TcpStream, ctx: Arc<ConnCtx>) {
    // Request/response over small lines: Nagle only adds 40 ms delayed-ACK
    // stalls here, so replies go out the moment they are written.
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else {
        return;
    };
    let mut reader = stream;
    let _ = reader.set_read_timeout(Some(ctx.config.read_tick));

    let mut session = Session::new(ctx.config.n_trees);
    let mut durable: Option<DurableSession> = None;
    let mut poisoned = false;

    let mut buf: Vec<u8> = Vec::new();
    // Reused response accumulator: all replies for one read's worth of
    // complete lines go out in a single coalesced write.
    let mut out: Vec<u8> = Vec::new();
    let mut scratch = [0u8; 4096];
    let mut last_line_at = Instant::now();
    let mut line_started_at: Option<Instant> = None;

    'outer: loop {
        if ctx.stop.load(Ordering::SeqCst) {
            break; // graceful drain: finish via the snapshot path below
        }
        match reader.read(&mut scratch) {
            Ok(0) => break, // peer closed
            Ok(n) => {
                if line_started_at.is_none() {
                    line_started_at = Some(Instant::now());
                }
                buf.extend_from_slice(&scratch[..n]);
                // Drain every complete line already buffered before
                // answering, so a client that pipelines K commands costs
                // one write syscall, not K. Lines are processed in place
                // (borrowed slices of `buf`) — no per-line allocation.
                // The length cap applies to each line and to the
                // unterminated tail, never to the pipelined lines together.
                let max = ctx.config.max_line_len;
                let mut consumed = 0usize;
                let mut done = false;
                let mut too_long = false;
                out.clear();
                while let Some(rel) = buf[consumed..].iter().position(|&b| b == b'\n') {
                    if rel > max {
                        too_long = true;
                        break;
                    }
                    let end = consumed + rel;
                    let line = String::from_utf8_lossy(&buf[consumed..end]);
                    consumed = end + 1;
                    let trimmed = line.trim();
                    if trimmed.is_empty() {
                        continue;
                    }
                    // A panicking handler must take down this connection
                    // only: answer ERR, drop the session, keep serving
                    // everyone else. The session is considered poisoned —
                    // no final snapshot is taken from it.
                    //
                    // A finished background retrain is harvested here, at
                    // the top of request handling: the swap happens between
                    // requests, never mid-reply, and its completion event
                    // precedes the reply to the request that observed it.
                    let outcome = catch_unwind(AssertUnwindSafe(|| {
                        let event = harvest_training(&mut session, &mut durable);
                        let response = apply_line(trimmed, &mut session, &mut durable, &ctx);
                        (event, response)
                    }));
                    let (event, response, finished) = match outcome {
                        Ok((event, Response::Bye)) => (event, Response::Bye, true),
                        Ok((event, r)) => (event, r, false),
                        Err(_) => {
                            poisoned = true;
                            (None, Response::Err("internal error".into()), true)
                        }
                    };
                    if let Some(event) = event {
                        out.extend_from_slice(event.as_bytes());
                        out.push(b'\n');
                    }
                    response.write_to(&mut out);
                    out.push(b'\n');
                    if finished {
                        done = true;
                        break;
                    }
                }
                if too_long || (!done && buf.len() - consumed > max) {
                    out.extend_from_slice(b"ERR line too long\n");
                    done = true;
                }
                if consumed > 0 {
                    buf.drain(..consumed);
                    // One clock read per drained read: it stamps the idle
                    // clock (a line completed) and, for a still-partial
                    // line behind the completed ones, restarts the
                    // slowloris clock; a read that completed no line keeps
                    // both as they were.
                    let now = Instant::now();
                    last_line_at = now;
                    line_started_at = if buf.is_empty() { None } else { Some(now) };
                }
                let write_failed = !out.is_empty() && writer.write_all(&out).is_err();
                if write_failed || done {
                    break 'outer;
                }
            }
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                let now = Instant::now();
                if let Some(started) = line_started_at {
                    if now.duration_since(started) > ctx.config.line_deadline {
                        let _ = write_line(&mut writer, "ERR line timeout");
                        break;
                    }
                } else if now.duration_since(last_line_at) > ctx.config.idle_timeout {
                    let _ = write_line(&mut writer, "ERR idle timeout");
                    break;
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
    }

    if let (false, Some(d)) = (poisoned, durable) {
        let _ = d.close(session.pipeline.as_ref());
    }
    let _ = writer.shutdown(Shutdown::Both);
}

/// Handle used to stop a running [`Server`] from another thread.
#[derive(Clone)]
pub struct ServerHandle {
    stop: Arc<AtomicBool>,
    addr: SocketAddr,
}

impl ServerHandle {
    /// The address the server is listening on.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Requests shutdown. The accept loop exits, live connections drain
    /// (flushing durable state) within one read tick, and `serve` joins
    /// them before returning.
    pub fn shutdown(&self) {
        self.stop.store(true, Ordering::SeqCst);
        // Nudge the blocking accept with a throwaway connection.
        if let Ok(s) = TcpStream::connect(self.addr) {
            let _ = s.shutdown(Shutdown::Both);
        }
    }
}

/// The Opprentice TCP server.
pub struct Server {
    listener: TcpListener,
    stop: Arc<AtomicBool>,
    config: ServerConfig,
    store: Option<SessionStore>,
}

impl Server {
    /// Binds to `addr` (use port 0 for an ephemeral port) with defaults.
    pub fn bind(addr: &str) -> std::io::Result<Server> {
        Self::bind_with(addr, ServerConfig::default())
    }

    /// Binds with explicit configuration. Opens (creating if necessary)
    /// the durable state root when one is configured.
    pub fn bind_with(addr: &str, config: ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let store = match &config.state_dir {
            Some(dir) => Some(SessionStore::open(dir)?),
            None => None,
        };
        Ok(Server {
            listener,
            stop: Arc::new(AtomicBool::new(false)),
            config,
            store,
        })
    }

    /// A handle for shutting the server down.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            stop: self.stop.clone(),
            addr: self.listener.local_addr().expect("bound listener"),
        }
    }

    /// Runs the accept loop until [`ServerHandle::shutdown`] is called.
    ///
    /// Hardening at the accept layer: finished worker handles are reaped
    /// every accept (no unbounded `JoinHandle` growth under churn), and
    /// connections beyond `max_connections` are shed with `ERR busy`
    /// instead of queueing. Connection threads (and the shed-connection
    /// drainer) are joined before returning, so a clean shutdown never
    /// strands a session mid-write.
    pub fn serve(self) -> std::io::Result<()> {
        let ctx = Arc::new(ConnCtx {
            config: self.config,
            store: self.store,
            stop: self.stop.clone(),
        });
        let active = Arc::new(AtomicUsize::new(0));
        let workers: Arc<Mutex<Vec<std::thread::JoinHandle<()>>>> =
            Arc::new(Mutex::new(Vec::new()));
        let (shed_tx, shed_rx) = mpsc::channel::<TcpStream>();
        let drainer = std::thread::Builder::new()
            .name("shed-drain".into())
            .spawn(move || drain_shed(shed_rx))?;
        for conn in self.listener.incoming() {
            if self.stop.load(Ordering::SeqCst) {
                break;
            }
            match conn {
                Ok(mut stream) => {
                    workers.lock().retain(|h| !h.is_finished());
                    if active.load(Ordering::SeqCst) >= ctx.config.max_connections {
                        // Half-close: the reply and a FIN go out now, but
                        // the socket stays open for reading — closing it
                        // outright would answer the client's in-flight line
                        // with a reset that can beat the reply.
                        let _ = stream.write_all(b"ERR busy\n");
                        let _ = stream.shutdown(Shutdown::Write);
                        let _ = shed_tx.send(stream);
                        continue;
                    }
                    active.fetch_add(1, Ordering::SeqCst);
                    let guard = ConnGuard(active.clone());
                    let ctx = ctx.clone();
                    let handle = std::thread::spawn(move || {
                        let _guard = guard;
                        serve_connection(stream, ctx);
                    });
                    workers.lock().push(handle);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => continue,
                Err(_) => continue,
            }
        }
        for handle in workers.lock().drain(..) {
            let _ = handle.join();
        }
        drop(shed_tx);
        let _ = drainer.join();
        Ok(())
    }
}

/// How long a shed connection's input is drained before its socket
/// closes: ample for a client to send its first line and read the reply.
const SHED_DRAIN: Duration = Duration::from_secs(2);

/// Shed connections held open for draining at once; beyond this the
/// oldest is closed (bounds descriptors under a connection storm).
const SHED_HELD_MAX: usize = 256;

/// Drains the input of shed connections off the accept thread, so accept
/// never blocks on a client. Each connection (already answered `ERR busy`
/// and half-closed) is read and discarded until the client closes it or
/// [`SHED_DRAIN`] passes; with nothing left unread at close, the kernel
/// ends it with a FIN instead of a reset. Exits when the accept loop drops
/// the sender.
fn drain_shed(rx: mpsc::Receiver<TcpStream>) {
    let mut held: std::collections::VecDeque<(TcpStream, Instant)> =
        std::collections::VecDeque::new();
    let mut buf = [0u8; 4096];
    loop {
        let next = if held.is_empty() {
            rx.recv().map_err(|_| mpsc::RecvTimeoutError::Disconnected)
        } else {
            rx.recv_timeout(Duration::from_millis(5))
        };
        match next {
            Ok(stream) => {
                if stream.set_nonblocking(true).is_ok() {
                    held.push_back((stream, Instant::now() + SHED_DRAIN));
                    if held.len() > SHED_HELD_MAX {
                        held.pop_front();
                    }
                }
            }
            Err(mpsc::RecvTimeoutError::Timeout) => {}
            // The server is stopping: close whatever is left.
            Err(mpsc::RecvTimeoutError::Disconnected) => return,
        }
        let now = Instant::now();
        held.retain_mut(|(stream, deadline)| {
            if now >= *deadline {
                return false;
            }
            // A bounded number of reads per pass keeps one flooding
            // client from starving the rest.
            for _ in 0..16 {
                match stream.read(&mut buf) {
                    Ok(0) => return false,
                    Ok(_) => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return true,
                    Err(_) => return false,
                }
            }
            true
        });
    }
}

/// Decrements the live-connection count when a worker exits by any path
/// (including a panic that escapes `serve_connection`, which cannot happen
/// today but must not wedge the cap if it ever does).
struct ConnGuard(Arc<AtomicUsize>);

impl Drop for ConnGuard {
    fn drop(&mut self) {
        self.0.fetch_sub(1, Ordering::SeqCst);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{BufRead, BufReader};

    /// A tiny blocking test client. Asynchronous `EVENT` lines (retrain
    /// completions) are collected into `events` rather than returned as
    /// replies, mirroring how a real client demultiplexes the stream.
    struct Client {
        reader: BufReader<TcpStream>,
        writer: TcpStream,
        events: Vec<String>,
    }

    impl Client {
        fn connect(addr: SocketAddr) -> Client {
            let stream = TcpStream::connect(addr).expect("connect");
            let writer = stream.try_clone().expect("clone");
            Client {
                reader: BufReader::new(stream),
                writer,
                events: Vec::new(),
            }
        }

        fn send(&mut self, line: &str) -> String {
            // One write per line: a second small write would wait out
            // Nagle's algorithm for the server's delayed ACK (~40 ms).
            self.writer
                .write_all(format!("{line}\n").as_bytes())
                .unwrap();
            self.read_line()
        }

        fn read_line(&mut self) -> String {
            loop {
                let mut out = String::new();
                self.reader.read_line(&mut out).unwrap();
                let line = out.trim_end().to_string();
                if line.starts_with("EVENT ") {
                    self.events.push(line);
                    continue;
                }
                return line;
            }
        }
    }

    /// Issues `RETRAIN` and polls `STATUS` until the background job lands.
    fn retrain_and_wait(c: &mut Client) {
        let reply = c.send("RETRAIN");
        assert!(reply.starts_with("OK retraining job="), "{reply}");
        let deadline = Instant::now() + Duration::from_secs(60);
        loop {
            let status = c.send("STATUS");
            if status.contains("training=0") {
                assert!(status.contains(" trained=1 "), "{status}");
                return;
            }
            assert!(Instant::now() < deadline, "retrain never landed: {status}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    fn test_config() -> ServerConfig {
        ServerConfig {
            n_trees: 8,
            ..Default::default()
        } // small forest: fast retrains
    }

    fn start_server(config: ServerConfig) -> (ServerHandle, std::thread::JoinHandle<()>) {
        let server = Server::bind_with("127.0.0.1:0", config).expect("bind");
        let handle = server.handle();
        let join = std::thread::spawn(move || server.serve().expect("serve"));
        (handle, join)
    }

    /// Streams a daily-patterned history with labeled spikes, then checks
    /// online verdicts — the full protocol lifecycle over a real socket.
    #[test]
    fn full_protocol_lifecycle() {
        let (handle, join) = start_server(test_config());
        let mut c = Client::connect(handle.addr());

        assert!(c.send("HELLO 3600").starts_with("OK opprentice"));
        assert!(c
            .send("STATUS")
            .starts_with("OK observed=0 labeled=0 trained=0 cthld=0.500 extract_us="));

        // Stream 21 days of hourly data with a spike every 63 hours.
        let n = 21 * 24;
        let mut flags = String::with_capacity(n);
        for i in 0..n {
            let base = 100.0 + 20.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin();
            let anomalous = i % 63 == 50 || i % 63 == 51;
            let v = if anomalous { base + 150.0 } else { base };
            let reply = c.send(&format!("OBS {} {v}", i * 3600));
            assert!(reply.starts_with("OK"), "{reply}");
            flags.push(if anomalous { '1' } else { '0' });
        }

        // Label everything, retrain (asynchronously — serving continues
        // on the untrained default until the new model swaps in).
        assert_eq!(c.send(&format!("LABEL {flags}")), format!("OK labeled={n}"));
        retrain_and_wait(&mut c);
        assert_eq!(c.events.len(), 1, "{:?}", c.events);
        assert!(
            c.events[0].starts_with("EVENT retrained job=1 model_version=1 cthld="),
            "{:?}",
            c.events
        );

        // A normal continuation scores low; a spike alerts.
        let normal = c.send(&format!("OBS {} 100.0", n * 3600));
        assert!(normal.contains("anomaly=0"), "{normal}");
        let spike = c.send(&format!("OBS {} 400.0", (n + 1) * 3600));
        assert!(spike.contains("anomaly=1"), "{spike}");

        assert_eq!(c.send("QUIT"), "BYE");
        handle.shutdown();
        join.join().unwrap();
    }

    /// While a retrain job is in flight, `LABEL` and a second `RETRAIN`
    /// are refused — the invariant that keeps WAL replay exact. Driven at
    /// the Session level, where nothing polls the job in, so the
    /// assertions cannot race the trainer thread finishing.
    #[test]
    fn mid_flight_labels_and_second_retrain_are_rejected() {
        fn apply(s: &mut Session, line: &str) -> Response {
            s.apply(&parse_request(line).unwrap())
        }
        let mut s = Session::new(8);
        assert!(matches!(apply(&mut s, "HELLO 3600"), Response::Ok(_)));
        let n = 14 * 24;
        let mut flags = String::with_capacity(n);
        for i in 0..n {
            let base = 100.0 + 20.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin();
            let anomalous = i % 63 == 50 || i % 63 == 51;
            let v = if anomalous { base + 150.0 } else { base };
            assert!(apply(&mut s, &format!("OBS {} {v}", i * 3600)).is_ok());
            flags.push(if anomalous { '1' } else { '0' });
        }
        assert!(matches!(
            apply(&mut s, &format!("LABEL {flags}")),
            Response::Ok(_)
        ));

        match apply(&mut s, "RETRAIN") {
            Response::Ok(m) => assert_eq!(m, "retraining job=1"),
            other => panic!("unexpected {}", other.render()),
        }
        match apply(&mut s, "LABEL 0") {
            Response::Err(m) => {
                assert_eq!(m, "retrain in progress; send labels after it completes");
            }
            other => panic!("unexpected {}", other.render()),
        }
        match apply(&mut s, "RETRAIN") {
            Response::Err(m) => assert_eq!(m, "retrain already in progress"),
            other => panic!("unexpected {}", other.render()),
        }
        // Observations keep flowing throughout.
        assert!(apply(&mut s, &format!("OBS {} 100.0", n * 3600)).is_ok());

        // Once the job lands, both are accepted again.
        let report = s.wait_training().expect("job lands");
        assert_eq!(report.model_version, 1);
        assert!(matches!(apply(&mut s, "LABEL 0"), Response::Ok(_)));
        match apply(&mut s, "RETRAIN") {
            Response::Ok(m) => assert_eq!(m, "retraining job=2"),
            other => panic!("unexpected {}", other.render()),
        }
        assert_eq!(s.wait_training().expect("job lands").model_version, 2);
    }

    /// The load-bearing batching contract: an `OBSB` reply is the `|`-join
    /// of exactly the replies the equivalent `OBS` sequence produces.
    #[test]
    fn obsb_reply_matches_single_obs_replies() {
        let (handle, join) = start_server(test_config());
        let mut singles = Client::connect(handle.addr());
        let mut batched = Client::connect(handle.addr());
        assert!(singles.send("HELLO 3600").starts_with("OK"));
        assert!(batched.send("HELLO 3600").starts_with("OK"));

        let values = ["100.0", "120.5", "nan", "90.25"];
        let one_by_one: Vec<String> = values
            .iter()
            .enumerate()
            .map(|(i, v)| {
                let reply = singles.send(&format!("OBS {} {v}", i as i64 * 3600));
                reply.strip_prefix("OK ").expect("OK reply").to_string()
            })
            .collect();
        assert_eq!(
            batched.send(&format!("OBSB 0 {}", values.join(" "))),
            format!("OK {}", one_by_one.join("|"))
        );

        // A batch needs a pipeline, like a single observation does.
        let mut fresh = Client::connect(handle.addr());
        assert!(fresh.send("OBSB 0 1.0").starts_with("ERR"));

        singles.send("QUIT");
        batched.send("QUIT");
        fresh.send("QUIT");
        handle.shutdown();
        join.join().unwrap();
    }

    /// The verdict text as `std` formatting renders it: the reply format
    /// before the integer writer, kept here as the reference.
    fn std_verdict(d: Option<opprentice::Detection>) -> String {
        match d {
            Some(d) => format!(
                "p={:.4} cthld={:.3} anomaly={}",
                d.probability,
                d.cthld,
                u8::from(d.is_anomaly)
            ),
            None => "pending".to_string(),
        }
    }

    /// Over a served stream — untrained, then trained, with missing points
    /// and spikes — `OBS` and `OBSB` replies are byte for byte the
    /// `std`-formatted verdicts of an in-process pipeline fed the same
    /// points.
    #[test]
    fn served_verdicts_match_std_formatting() {
        let (handle, join) = start_server(test_config());
        let mut singles = Client::connect(handle.addr());
        let mut batched = Client::connect(handle.addr());
        let mut reference = Opprentice::new(
            3600,
            OpprenticeConfig {
                preference: Preference::moderate(),
                forest: RandomForestParams {
                    n_trees: test_config().n_trees,
                    ..Default::default()
                },
                ..Default::default()
            },
        );
        let value = |i: usize| -> Option<f64> {
            let base = 100.0 + 20.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin();
            match i % 63 {
                50 | 51 => Some(base + 150.0),
                20 => None,
                _ => Some(base + ((i * 37) % 11) as f64 * 0.37),
            }
        };
        let token = |v: Option<f64>| v.map_or("nan".to_string(), |v| v.to_string());

        assert!(singles.send("HELLO 3600").starts_with("OK"));
        assert!(batched.send("HELLO 3600").starts_with("OK"));
        let history = 21 * 24;
        let mut flags = String::with_capacity(history);
        for i in 0..history {
            let ts = i as i64 * 3600;
            let expect = format!("OK {}", std_verdict(reference.observe(ts, value(i))));
            assert_eq!(
                singles.send(&format!("OBS {ts} {}", token(value(i)))),
                expect
            );
            assert_eq!(
                batched.send(&format!("OBS {ts} {}", token(value(i)))),
                expect
            );
            flags.push(if matches!(i % 63, 50 | 51) { '1' } else { '0' });
        }
        reference
            .ingest_labels(&Labels::from_flags(
                flags.chars().map(|c| c == '1').collect(),
            ))
            .unwrap();
        assert!(reference.retrain());
        for c in [&mut singles, &mut batched] {
            assert_eq!(
                c.send(&format!("LABEL {flags}")),
                format!("OK labeled={history}")
            );
            retrain_and_wait(c);
        }

        let served = history..history + 10 * 24;
        let expected: Vec<String> = served
            .clone()
            .map(|i| std_verdict(reference.observe(i as i64 * 3600, value(i))))
            .collect();
        assert!(expected.iter().any(|v| v.ends_with("anomaly=1")));
        for (i, expect) in served.clone().zip(&expected) {
            let line = format!("OBS {} {}", i * 3600, token(value(i)));
            assert_eq!(singles.send(&line), format!("OK {expect}"));
        }
        let tokens: Vec<String> = served.clone().map(|i| token(value(i))).collect();
        assert_eq!(
            batched.send(&format!(
                "OBSB {} {}",
                served.start * 3600,
                tokens.join(" ")
            )),
            format!("OK {}", expected.join("|"))
        );

        singles.send("QUIT");
        batched.send("QUIT");
        handle.shutdown();
        join.join().unwrap();
    }

    /// STATUS exposes the session's cumulative extraction and inference
    /// wall-clock, so operators can see where serving time goes.
    /// Extraction starts with the first model (the retrain job's own
    /// re-extraction is training time). Under
    /// the fused batch path the family kernels run concurrently on the
    /// extraction pool: the counter must report the *caller-experienced*
    /// latency of the batch call, never the summed per-worker CPU time —
    /// so it advances monotonically but stays bounded by session
    /// wall-clock.
    #[test]
    fn status_reports_cumulative_timing_counters() {
        let (handle, join) = start_server(test_config());
        let mut c = Client::connect(handle.addr());

        // Before HELLO the counters exist and are zero.
        assert_eq!(
            c.send("STATUS"),
            "OK observed=0 labeled=0 trained=0 extract_us=0 infer_us=0 \
             train_us=0 model_version=0 training=0"
        );
        let session_t0 = std::time::Instant::now();
        assert!(c.send("HELLO 60").starts_with("OK"));

        fn counter(status: &str, key: &str) -> u64 {
            status
                .split_whitespace()
                .find_map(|kv| kv.strip_prefix(key))
                .and_then(|v| v.parse().ok())
                .unwrap_or_else(|| panic!("no {key} in {status}"))
        }

        // An untrained session only records raw points: nothing is
        // extracted until the first model lands.
        for i in 0..64 {
            assert!(c
                .send(&format!("OBS {} {}.0", i * 60, 100 + i % 7))
                .starts_with("OK"));
        }
        let status = c.send("STATUS");
        assert_eq!(counter(&status, "extract_us="), 0, "{status}");
        let flags: String = (0..64)
            .map(|i| if i % 7 == 6 { '1' } else { '0' })
            .collect();
        assert!(c.send(&format!("LABEL {flags}")).starts_with("OK"));
        retrain_and_wait(&mut c);
        let trained = counter(&c.send("STATUS"), "extract_us=");

        // Serving points advances the extraction counter monotonically.
        for i in 64..128 {
            assert!(c
                .send(&format!("OBS {} {}.0", i * 60, 100 + i % 7))
                .starts_with("OK"));
        }
        let status = c.send("STATUS");
        let after_obs = counter(&status, "extract_us=");
        assert!(after_obs > trained, "{status}");

        // Batches large enough to take the worker-pool path (with several
        // shards extracting concurrently).
        for round in 0..4 {
            let batch: Vec<String> = (0..64).map(|i| format!("{}.0", 100 + i % 5)).collect();
            assert!(c
                .send(&format!(
                    "OBSB {} {}",
                    (128 + round * 64) * 60,
                    batch.join(" ")
                ))
                .starts_with("OK"));
        }
        let status = c.send("STATUS");
        let after_obsb = counter(&status, "extract_us=");
        assert!(after_obsb > after_obs, "{status}");
        // The no-double-counting bound: with N pool workers extracting in
        // parallel, summed kernel time could be ~N x wall-clock; the
        // counter reports wall-clock, so it can never exceed the time the
        // whole session has existed.
        let session_us = session_t0.elapsed().as_micros() as u64;
        assert!(
            after_obsb <= session_us,
            "extract_us={after_obsb} exceeds session wall-clock {session_us}us \
             (per-worker time double-counted?)"
        );

        c.send("QUIT");
        handle.shutdown();
        join.join().unwrap();
    }

    /// Pipelined commands (many lines in one write) are all answered, in
    /// order — the coalesced read/write path.
    #[test]
    fn pipelined_lines_are_all_answered() {
        let (handle, join) = start_server(test_config());
        let mut c = Client::connect(handle.addr());
        c.writer
            .write_all(b"HELLO 60\nOBS 0 1.0\nSTATUS\nBOGUS\n")
            .unwrap();
        c.writer.flush().unwrap();
        assert!(c.read_line().starts_with("OK opprentice"));
        assert_eq!(c.read_line(), "OK pending");
        assert!(c.read_line().starts_with("OK observed=1"));
        assert!(c.read_line().starts_with("ERR"));
        c.send("QUIT");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn protocol_errors_keep_the_connection_alive() {
        let (handle, join) = start_server(test_config());
        let mut c = Client::connect(handle.addr());

        // Everything before HELLO that needs a pipeline: ERR.
        assert!(c.send("OBS 0 1.0").starts_with("ERR"));
        assert!(c.send("RETRAIN").starts_with("ERR"));
        // Garbage: ERR with a reason, connection still usable.
        assert!(c.send("GARBAGE").starts_with("ERR"));
        assert!(c.send("HELLO 60").starts_with("OK"));
        // Double HELLO rejected.
        assert!(c.send("HELLO 60").starts_with("ERR"));
        // Labeling more than observed rejected.
        assert!(c.send("LABEL 111").starts_with("ERR"));
        // Retrain without positives rejected.
        c.send("OBS 0 1.0");
        c.send("LABEL 0");
        assert!(c.send("RETRAIN").starts_with("ERR"));

        assert_eq!(c.send("QUIT"), "BYE");
        handle.shutdown();
        join.join().unwrap();
    }

    /// An interval that does not tile the day is refused at `HELLO` (the
    /// per-slot detector state could not hold the day's last slot); the
    /// connection stays usable for a valid `HELLO`.
    #[test]
    fn hello_with_an_interval_that_does_not_tile_the_day_is_rejected() {
        let (handle, join) = start_server(test_config());
        let mut c = Client::connect(handle.addr());
        let reply = c.send("HELLO 7");
        assert!(
            reply.starts_with("ERR") && reply.contains("86400"),
            "{reply}"
        );
        assert!(c.send("HELLO 86400").starts_with("ERR"));
        assert!(c.send("HELLO 60").starts_with("OK"));
        // The day's last slot observes fine at a supported interval.
        assert!(c.send("OBS 86340 1.0").starts_with("OK"));
        assert_eq!(c.send("QUIT"), "BYE");
        handle.shutdown();
        join.join().unwrap();
    }

    /// A batch whose last timestamp does not fit in `i64` is refused before
    /// any point is recorded, and the connection stays usable.
    #[test]
    fn obsb_past_the_timestamp_range_is_rejected() {
        let (handle, join) = start_server(test_config());
        let mut c = Client::connect(handle.addr());
        assert!(c.send("HELLO 60").starts_with("OK"));
        let reply = c.send("OBSB 9223372036854775777 1 2");
        assert!(reply.starts_with("ERR"), "{reply}");
        assert!(c.send("OBSB 9223372036854775777 1").starts_with("OK"));
        let status = c.send("STATUS");
        assert!(status.starts_with("OK observed=1 "), "{status}");
        assert_eq!(c.send("QUIT"), "BYE");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn preference_must_precede_hello() {
        let (handle, join) = start_server(test_config());
        let mut c = Client::connect(handle.addr());
        assert!(c.send("PREF 0.8 0.6").starts_with("OK pref"));
        assert!(c.send("HELLO 60").starts_with("OK"));
        assert!(c.send("PREF 0.5 0.5").starts_with("ERR"));
        c.send("QUIT");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn concurrent_connections_are_isolated() {
        let (handle, join) = start_server(test_config());
        let mut a = Client::connect(handle.addr());
        let mut b = Client::connect(handle.addr());
        assert!(a.send("HELLO 60").starts_with("OK"));
        // b is unconfigured even though a is configured.
        assert!(b.send("OBS 0 1.0").starts_with("ERR"));
        assert!(b.send("HELLO 300").starts_with("OK"));
        a.send("OBS 0 5.0");
        assert!(a
            .send("STATUS")
            .starts_with("OK observed=1 labeled=0 trained=0 cthld=0.500 extract_us="));
        assert!(b
            .send("STATUS")
            .starts_with("OK observed=0 labeled=0 trained=0 cthld=0.500 extract_us="));
        a.send("QUIT");
        b.send("QUIT");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn disconnect_without_quit_is_fine() {
        let (handle, join) = start_server(test_config());
        {
            let mut c = Client::connect(handle.addr());
            assert!(c.send("HELLO 60").starts_with("OK"));
            // Drop the client abruptly.
        }
        // Server still accepts new connections.
        let mut c2 = Client::connect(handle.addr());
        assert!(c2.send("HELLO 60").starts_with("OK"));
        c2.send("QUIT");
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn idle_connections_are_reaped() {
        let config = ServerConfig {
            idle_timeout: Duration::from_millis(150),
            read_tick: Duration::from_millis(20),
            ..test_config()
        };
        let (handle, join) = start_server(config);
        let mut c = Client::connect(handle.addr());
        assert!(c.send("HELLO 60").starts_with("OK"));
        // Go silent; the server must hang up on us, not wait forever.
        assert_eq!(c.read_line(), "ERR idle timeout");
        assert_eq!(c.read_line(), ""); // EOF
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn oversized_lines_are_rejected() {
        let config = ServerConfig {
            max_line_len: 64,
            ..test_config()
        };
        let (handle, join) = start_server(config);
        let mut c = Client::connect(handle.addr());
        c.writer.write_all(&vec![b'A'; 256]).unwrap();
        c.writer.flush().unwrap();
        assert_eq!(c.read_line(), "ERR line too long");
        assert_eq!(c.read_line(), ""); // EOF
        handle.shutdown();
        join.join().unwrap();
    }

    /// The cap bounds one line, not one read: legal lines pipelined in a
    /// single write that together exceed it are all answered, and an
    /// overlong line behind legal ones is rejected only after they are.
    #[test]
    fn pipelined_lines_under_the_cap_are_accepted() {
        let config = ServerConfig {
            max_line_len: 64,
            ..test_config()
        };
        let (handle, join) = start_server(config);
        let mut c = Client::connect(handle.addr());
        c.writer
            .write_all("STATUS\n".repeat(20).as_bytes())
            .unwrap();
        c.writer.flush().unwrap();
        for _ in 0..20 {
            assert!(c.read_line().starts_with("OK observed=0"));
        }
        let mut mixed = b"STATUS\n".to_vec();
        mixed.extend_from_slice(&[b'A'; 65]);
        mixed.push(b'\n');
        c.writer.write_all(&mixed).unwrap();
        c.writer.flush().unwrap();
        assert!(c.read_line().starts_with("OK observed=0"));
        assert_eq!(c.read_line(), "ERR line too long");
        assert_eq!(c.read_line(), ""); // EOF
        handle.shutdown();
        join.join().unwrap();
    }

    #[test]
    fn excess_connections_are_shed_with_err_busy() {
        let config = ServerConfig {
            max_connections: 1,
            ..test_config()
        };
        let (handle, join) = start_server(config);
        let mut first = Client::connect(handle.addr());
        assert!(first.send("HELLO 60").starts_with("OK"));
        // The slot is taken: the next connection is turned away at once.
        let mut second = Client::connect(handle.addr());
        assert_eq!(second.read_line(), "ERR busy");
        // The first connection is unaffected.
        assert!(first.send("STATUS").starts_with("OK"));
        first.send("QUIT");
        // With the slot free again (allow a tick for the reap), new
        // connections are served.
        let deadline = Instant::now() + Duration::from_secs(5);
        loop {
            let mut third = Client::connect(handle.addr());
            let reply = third.send("HELLO 60");
            if reply.starts_with("OK") {
                third.send("QUIT");
                break;
            }
            assert!(Instant::now() < deadline, "slot never freed: {reply}");
            std::thread::sleep(Duration::from_millis(20));
        }
        handle.shutdown();
        join.join().unwrap();
    }

    /// A shed client that sends a full line before reading must still read
    /// `ERR busy` and then a clean end of stream. Closing a socket outright
    /// makes the kernel answer the client's line with a reset, and the
    /// client's next write or read can then fail before the reply is seen.
    /// The line goes out in two writes with pauses (as `testing::Client`
    /// writes it), so the reset, if any, lands in between; looped, since
    /// the failure is a race.
    #[test]
    fn shed_reply_survives_client_input() {
        let config = ServerConfig {
            max_connections: 1,
            ..test_config()
        };
        let (handle, join) = start_server(config);
        let mut first = Client::connect(handle.addr());
        assert!(first.send("HELLO 60").starts_with("OK"));
        for attempt in 0..20 {
            let mut stream = TcpStream::connect(handle.addr()).expect("connect");
            std::thread::sleep(Duration::from_millis(5));
            let sent = stream.write_all(b"HELLO 60").and_then(|()| {
                std::thread::sleep(Duration::from_millis(5));
                stream.write_all(b"\n")
            });
            if let Err(e) = sent {
                panic!("attempt {attempt}: shed connection reset under the client's line: {e}");
            }
            let mut reader = BufReader::new(stream);
            let mut reply = String::new();
            reader
                .read_line(&mut reply)
                .unwrap_or_else(|e| panic!("attempt {attempt}: shed reply lost: {e}"));
            assert_eq!(reply, "ERR busy\n", "attempt {attempt}");
            reply.clear();
            let n = reader
                .read_line(&mut reply)
                .unwrap_or_else(|e| panic!("attempt {attempt}: no clean close: {e}"));
            assert_eq!(n, 0, "attempt {attempt}: unexpected {reply:?}");
        }
        first.send("QUIT");
        handle.shutdown();
        join.join().unwrap();
    }

    /// `RESUME` over a snapshot whose model could not serve answers `ERR`
    /// and the server goes on serving. The two models are the defects a
    /// tree-walk forest file could express: a split on a feature past the
    /// 133 a 1-minute row holds (it indexed out of bounds on the first
    /// served row), and a split that is its own child (compiling it
    /// allocated without bound).
    #[test]
    fn resume_over_an_unservable_model_answers_err() {
        let dir = std::env::temp_dir().join(format!(
            "opprentice-service-test-{}-unservable",
            std::process::id()
        ));
        let config = ServerConfig {
            state_dir: Some(dir.clone()),
            ..test_config()
        };
        let (handle, join) = start_server(config);
        const LEAF: u32 = u32::MAX;
        for (id, nodes) in [
            ("bad-feature", [(133, 0.5), (LEAF, 0.0), (LEAF, 1.0)]),
            ("self-child", [(LEAF, 1.0), (0, 0.5), (LEAF, 0.0)]),
        ] {
            let mut c = Client::connect(handle.addr());
            assert!(c.send(&format!("HELLO 60 {id}")).starts_with("OK"));
            assert!(c.send("OBS 0 1.0").starts_with("OK"));
            c.send("QUIT");
            assert_eq!(c.read_line(), "", "closed after the final snapshot");

            // The untrained snapshot ends in an empty model block: put a
            // one-tree model of `nodes` there.
            let path = dir.join(id).join("snapshot.oprf");
            let mut bytes = std::fs::read(&path).unwrap();
            assert_eq!(bytes.pop(), Some(0));
            let mut model = b"OPRF".to_vec();
            model.extend_from_slice(&6u16.to_le_bytes());
            model.extend_from_slice(&1u32.to_le_bytes());
            model.extend_from_slice(&(nodes.len() as u32).to_le_bytes());
            for (feature, value) in nodes {
                model.extend_from_slice(&feature.to_le_bytes());
                model.extend_from_slice(&f64::to_le_bytes(value));
            }
            bytes.push(1);
            bytes.extend_from_slice(&(model.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&model);
            std::fs::write(&path, bytes).unwrap();

            // The closed connection may hold its lease for a moment.
            let deadline = Instant::now() + Duration::from_secs(10);
            let (mut c, reply) = loop {
                let mut c = Client::connect(handle.addr());
                let reply = c.send(&format!("RESUME {id}"));
                if !reply.contains("busy") || Instant::now() >= deadline {
                    break (c, reply);
                }
                std::thread::sleep(Duration::from_millis(20));
            };
            assert!(
                reply.starts_with("ERR corrupt snapshot: nested model"),
                "{id}: {reply}"
            );
            // The connection, and the server, keep serving.
            assert!(c.send("HELLO 60").starts_with("OK"));
            assert!(c.send("OBS 0 1.0").starts_with("OK"));
            c.send("QUIT");
        }
        let mut c = Client::connect(handle.addr());
        assert!(c.send("HELLO 60 after").starts_with("OK"));
        assert!(c.send("OBS 0 1.0").starts_with("OK"));
        c.send("QUIT");
        handle.shutdown();
        join.join().unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    /// Served lines write no snapshot: after a swap, `snapshot.oprf` stays
    /// the same file (every snapshot is a rename of a fresh temp file, so
    /// a rewrite changes the inode) through 1,000 served lines, until the
    /// next swap replaces it.
    #[cfg(unix)]
    #[test]
    fn only_a_swap_rewrites_the_snapshot_while_serving() {
        use std::os::unix::fs::MetadataExt;
        let dir = std::env::temp_dir().join(format!(
            "opprentice-service-test-{}-cadence",
            std::process::id()
        ));
        let config = ServerConfig {
            state_dir: Some(dir.clone()),
            ..test_config()
        };
        let (handle, join) = start_server(config);
        let mut c = Client::connect(handle.addr());
        assert!(c.send("HELLO 3600 cadence").starts_with("OK"));
        // Hourly points with a spike every 63 hours, labeled as they go.
        let serve = |c: &mut Client, hours: std::ops::Range<usize>| -> String {
            hours
                .map(|i| {
                    let base =
                        100.0 + 20.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin();
                    let anomalous = i % 63 == 50 || i % 63 == 51;
                    let v = if anomalous { base + 150.0 } else { base };
                    let reply = c.send(&format!("OBS {} {v}", i * 3600));
                    assert!(reply.starts_with("OK"), "{reply}");
                    if anomalous {
                        '1'
                    } else {
                        '0'
                    }
                })
                .collect()
        };
        let history = 21 * 24;
        let flags = serve(&mut c, 0..history);
        assert!(c.send(&format!("LABEL {flags}")).starts_with("OK"));
        retrain_and_wait(&mut c);

        let snapshot = dir.join("cadence").join("snapshot.oprf");
        let inode = || std::fs::metadata(&snapshot).unwrap().ino();
        // Held open, so no later file can reuse its inode number.
        let held = std::fs::File::open(&snapshot).unwrap();
        let swapped = held.metadata().unwrap().ino();
        let flags = serve(&mut c, history..history + 1000);
        assert_eq!(inode(), swapped, "a served line rewrote the snapshot");

        assert!(c.send(&format!("LABEL {flags}")).starts_with("OK"));
        retrain_and_wait(&mut c);
        assert_ne!(inode(), swapped, "the second swap kept the old snapshot");
        drop(held);
        assert_eq!(c.send("QUIT"), "BYE");
        handle.shutdown();
        join.join().unwrap();
        std::fs::remove_dir_all(dir).unwrap();
    }

    #[test]
    fn resume_without_state_dir_is_a_clean_error() {
        let (handle, join) = start_server(test_config());
        let mut c = Client::connect(handle.addr());
        assert!(c.send("RESUME some-session").starts_with("ERR"));
        assert!(c.send("HELLO 60 some-session").starts_with("ERR"));
        // The connection is still usable for an ephemeral session.
        assert!(c.send("HELLO 60").starts_with("OK"));
        c.send("QUIT");
        handle.shutdown();
        join.join().unwrap();
    }
}
