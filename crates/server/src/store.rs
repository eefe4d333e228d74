//! Durable session state: write-ahead log + snapshots + recovery. This
//! module alone decides what reaches the WAL and in which text format;
//! the connection loop hands it applied requests and landed model swaps.
//!
//! Each durable session owns a directory under the server's state root:
//!
//! ```text
//! <state_dir>/<session_id>/
//!     wal.log          append-only; one applied command per line
//!     snapshot.oprf    latest full-state snapshot (OPRF v5)
//!     snapshot.tmp     in-flight snapshot (renamed into place when synced)
//! ```
//!
//! **WAL.** The log's first line is a meta comment recording the log format
//! and the forest size the session was created with (so recovery does not
//! depend on the server's *current* configuration). Every subsequent line
//! is one successfully applied protocol command (`PREF`, `HELLO`, `OBS`,
//! `LABEL`, `RETRAIN`), written by [`DurableSession::log`]:
//!
//! - `HELLO` is preceded by a synthesized `PREF` line carrying the
//!   effective preference, since a `PREF` sent before `HELLO` predates
//!   the log;
//! - an `OBSB` batch is logged as its equivalent `OBS` lines, one per
//!   point, with one flush for the group (replay regroups runs of
//!   consecutive `OBS` lines into batches, whatever lines they came as);
//! - `OBS`, `LABEL` and `HELLO` are logged as the client sent them.
//!
//! A command is appended *after* it has been applied and *before* its `OK`
//! is sent, and flushed to the OS (not fsynced): every acknowledged
//! command survives a process crash, though not a power loss. The one
//! deliberate exception is `RETRAIN`, which trains in the background: its
//! line is appended at the moment the finished model is *swapped in*
//! ([`DurableSession::log_swap`]), not when the job was accepted, so a
//! crash during training recovers to the old model (the job simply never
//! happened) and a crash after the swap recovers to the new one — never a
//! torn in-between. A crash mid-write can tear the final line; that line
//! was never acknowledged, so recovery cuts it off.
//!
//! **Snapshots.** Replaying `OBS` lines is cheap (feature extraction);
//! replaying `RETRAIN` lines is the expensive part. A snapshot therefore
//! captures the trained state (compiled model + EWMA prediction + labels)
//! plus the WAL sequence number it corresponds to. The model changes only
//! at a swap, so a snapshot is written there, right after the `RETRAIN`
//! line lands, and at clean connection close ([`DurableSession::close`]),
//! which spares `RESUME` replaying the points served since; serving writes
//! none. Snapshots are written to a temp file, fsynced, and atomically
//! renamed — a crash mid-snapshot leaves the previous snapshot intact.
//!
//! **Recovery** (see [`recover`]): replay the WAL prefix covered by the
//! snapshot with `RETRAIN` skipped, install the snapshot's trained state,
//! then replay the suffix in full, runs of consecutive `OBS` lines as
//! batches. Because forests are deterministic given their seed and
//! feature extraction is deterministic given the points, a recovered
//! session scores incoming data *identically* to one that never crashed.

use crate::proto::{parse_request, Request};
use crate::service::Session;
use opprentice::snapshot::{SessionSnapshot, SnapshotError};
use opprentice::Opprentice;
use parking_lot::Mutex;
use std::collections::HashSet;
use std::fs::{File, OpenOptions};
use std::io::{BufWriter, Read, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

const WAL_FILE: &str = "wal.log";
const SNAPSHOT_FILE: &str = "snapshot.oprf";
const SNAPSHOT_TMP: &str = "snapshot.tmp";
const WAL_META_PREFIX: &str = "# opprentice-wal v1 n_trees=";

/// Errors while creating, logging to, or recovering a durable session.
#[derive(Debug)]
pub enum StoreError {
    /// Filesystem trouble.
    Io(std::io::Error),
    /// The session directory already exists (use `RESUME`).
    SessionExists,
    /// No such session on disk.
    UnknownSession,
    /// Another live connection owns this session.
    SessionBusy,
    /// The WAL is malformed (bad meta line or unparseable command).
    CorruptWal(String),
    /// The snapshot failed to decode or disagrees with the WAL.
    CorruptSnapshot(SnapshotError),
    /// A WAL command failed to re-apply during recovery.
    ReplayFailed(String),
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "session store I/O: {e}"),
            StoreError::SessionExists => write!(f, "session already exists (RESUME it)"),
            StoreError::UnknownSession => write!(f, "unknown session"),
            StoreError::SessionBusy => write!(f, "session busy"),
            StoreError::CorruptWal(why) => write!(f, "corrupt WAL: {why}"),
            StoreError::CorruptSnapshot(e) => write!(f, "corrupt snapshot: {e}"),
            StoreError::ReplayFailed(why) => write!(f, "WAL replay failed: {why}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> Self {
        StoreError::Io(e)
    }
}

/// The server-wide registry of durable sessions: the state root plus the
/// set of session ids currently owned by a live connection.
pub struct SessionStore {
    root: PathBuf,
    active: Arc<Mutex<HashSet<String>>>,
}

impl SessionStore {
    /// Opens (creating if needed) the state root.
    pub fn open(root: impl Into<PathBuf>) -> std::io::Result<SessionStore> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        Ok(SessionStore {
            root,
            active: Arc::new(Mutex::new(HashSet::new())),
        })
    }

    fn session_dir(&self, id: &str) -> PathBuf {
        self.root.join(id)
    }

    /// Claims exclusive live ownership of `id` for one connection.
    fn acquire(&self, id: &str) -> Result<SessionLease, StoreError> {
        let mut active = self.active.lock();
        if !active.insert(id.to_string()) {
            return Err(StoreError::SessionBusy);
        }
        Ok(SessionLease {
            id: id.to_string(),
            active: self.active.clone(),
        })
    }

    /// Creates a fresh durable session. Fails if the id already exists on
    /// disk or is owned by a live connection.
    pub(crate) fn create(&self, id: &str, n_trees: usize) -> Result<DurableSession, StoreError> {
        let lease = self.acquire(id)?;
        let dir = self.session_dir(id);
        if dir.exists() {
            return Err(StoreError::SessionExists);
        }
        std::fs::create_dir_all(&dir)?;
        let mut wal = BufWriter::new(
            OpenOptions::new()
                .create_new(true)
                .append(true)
                .open(dir.join(WAL_FILE))?,
        );
        writeln!(wal, "{WAL_META_PREFIX}{n_trees}")?;
        wal.flush()?;
        Ok(DurableSession {
            dir,
            wal,
            wal_seq: 0,
            lease,
        })
    }

    /// Recovers a durable session from disk: replays the WAL around the
    /// latest snapshot and returns the rebuilt protocol session together
    /// with the reopened log.
    ///
    /// The returned `Session` is byte-for-byte equivalent (in observable
    /// verdicts) to the session the log describes.
    pub(crate) fn resume(&self, id: &str) -> Result<(DurableSession, Session), StoreError> {
        let lease = self.acquire(id)?;
        let dir = self.session_dir(id);
        if !dir.join(WAL_FILE).exists() {
            return Err(StoreError::UnknownSession);
        }

        let (n_trees, lines, acknowledged) = read_wal(&dir.join(WAL_FILE))?;
        let snapshot = read_snapshot(&dir.join(SNAPSHOT_FILE))?;
        let session = recover(n_trees, &lines, snapshot)?;

        // Cut off a torn final line, so the next append starts a line of
        // its own instead of completing it.
        let file = OpenOptions::new().append(true).open(dir.join(WAL_FILE))?;
        file.set_len(acknowledged)?;
        Ok((
            DurableSession {
                dir,
                wal: BufWriter::new(file),
                wal_seq: lines.len() as u64,
                lease,
            },
            session,
        ))
    }

    /// `true` if a session with this id exists on disk.
    pub fn exists(&self, id: &str) -> bool {
        self.session_dir(id).join(WAL_FILE).exists()
    }
}

/// Live-ownership token; releases the id when the connection ends.
struct SessionLease {
    id: String,
    active: Arc<Mutex<HashSet<String>>>,
}

impl Drop for SessionLease {
    fn drop(&mut self) {
        self.active.lock().remove(&self.id);
    }
}

/// One connection's handle on its durable state: the open WAL and the
/// number of command lines it holds.
pub struct DurableSession {
    dir: PathBuf,
    wal: BufWriter<File>,
    wal_seq: u64,
    #[allow(dead_code)] // held for its Drop (releases the live-ownership claim)
    lease: SessionLease,
}

impl DurableSession {
    /// Logs one applied request as the WAL lines recovery replays (see the
    /// module docs) and flushes them to the OS. Call after `request` has
    /// applied and before its `OK` goes out. `line` is the request as the
    /// client sent it; `opp` is the session's pipeline after it applied.
    pub(crate) fn log(
        &mut self,
        request: &Request,
        line: &str,
        opp: &Opprentice,
    ) -> std::io::Result<()> {
        match request {
            Request::Hello { .. } => {
                let pref = opp.config().preference;
                let pref = format!("PREF {} {}", pref.recall, pref.precision);
                self.append([pref.as_str(), line])
            }
            Request::ObsBatch { start, values } => {
                let interval = i64::from(opp.interval());
                self.append(values.iter().enumerate().map(|(i, v)| {
                    let ts = start + i as i64 * interval;
                    match v {
                        Some(v) => format!("OBS {ts} {v}"),
                        None => format!("OBS {ts} nan"),
                    }
                }))
            }
            Request::Obs { .. } | Request::Label { .. } => self.append([line]),
            // `RETRAIN` only starts a job, which mutates nothing until its
            // model is swapped in: [`DurableSession::log_swap`] logs it
            // then. `PREF` applies only before `HELLO`, which logs it; the
            // rest change no session state.
            Request::Retrain
            | Request::Pref { .. }
            | Request::Resume { .. }
            | Request::Status
            | Request::Quit => Ok(()),
        }
    }

    /// Makes a model swap durable: logs `RETRAIN` at the swap position
    /// and, only once that line is on its way to disk, snapshots the new
    /// model, so recovery does not retrain it. A failed snapshot still
    /// leaves the swap recoverable by replaying the `RETRAIN`.
    pub(crate) fn log_swap(&mut self, opp: &Opprentice) -> std::io::Result<()> {
        self.append(["RETRAIN"])?;
        self.snapshot(opp)
    }

    /// Ends the connection cleanly: snapshots the session (if configured),
    /// so `RESUME` replays nothing logged before this point, and fsyncs
    /// the WAL.
    pub(crate) fn close(mut self, opp: Option<&Opprentice>) -> std::io::Result<()> {
        if let Some(opp) = opp {
            self.snapshot(opp)?;
        }
        self.wal.flush()?;
        self.wal.get_ref().sync_all()
    }

    /// Appends command lines with a *single* flush at the end — group
    /// commit: an N-point `OBSB` costs one flush instead of N, and nothing
    /// is acknowledged until the whole group has reached the OS.
    fn append<I>(&mut self, lines: I) -> std::io::Result<()>
    where
        I: IntoIterator,
        I::Item: AsRef<str>,
    {
        let mut n = 0;
        for line in lines {
            writeln!(self.wal, "{}", line.as_ref())?;
            n += 1;
        }
        self.wal.flush()?;
        self.wal_seq += n;
        Ok(())
    }

    /// Writes a full-state snapshot atomically (temp file, fsync, rename).
    fn snapshot(&mut self, opp: &Opprentice) -> std::io::Result<()> {
        let snap = SessionSnapshot::capture(opp, self.wal_seq);
        let tmp = self.dir.join(SNAPSHOT_TMP);
        let mut file = File::create(&tmp)?;
        file.write_all(&snap.to_bytes())?;
        file.sync_all()?;
        drop(file);
        std::fs::rename(&tmp, self.dir.join(SNAPSHOT_FILE))
    }
}

/// Reads and validates the WAL: returns the forest size from the meta
/// line, the applied command lines, and the byte length of the complete
/// lines. An unterminated final line is left out: a crash tore it
/// mid-write, so its command was never acknowledged.
fn read_wal(path: &Path) -> Result<(usize, Vec<String>, u64), StoreError> {
    let mut bytes = Vec::new();
    File::open(path)?.read_to_end(&mut bytes)?;
    let complete = bytes.iter().rposition(|&b| b == b'\n').map_or(0, |i| i + 1);
    let text = std::str::from_utf8(&bytes[..complete])
        .map_err(|_| StoreError::CorruptWal("not UTF-8".to_string()))?;
    let mut lines = text.lines();
    let meta = lines
        .next()
        .ok_or_else(|| StoreError::CorruptWal("empty WAL".to_string()))?;
    let n_trees = meta
        .strip_prefix(WAL_META_PREFIX)
        .ok_or_else(|| StoreError::CorruptWal("missing meta line".to_string()))?
        .parse::<usize>()
        .map_err(|_| StoreError::CorruptWal("bad n_trees in meta line".to_string()))?;
    // The log never holds a blank line; skipping one keeps a hand-edited
    // log replayable.
    let lines = lines
        .filter(|line| !line.is_empty())
        .map(str::to_string)
        .collect();
    Ok((n_trees, lines, complete as u64))
}

/// Loads the snapshot if one exists.
fn read_snapshot(path: &Path) -> Result<Option<SessionSnapshot>, StoreError> {
    let mut bytes = Vec::new();
    match File::open(path) {
        Ok(mut f) => {
            f.read_to_end(&mut bytes)?;
        }
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(e.into()),
    }
    SessionSnapshot::from_bytes(&bytes)
        .map(Some)
        .map_err(StoreError::CorruptSnapshot)
}

/// Rebuilds a protocol session from its WAL lines and optional snapshot.
///
/// Lines `[0, snapshot.wal_seq)` are replayed with `RETRAIN` skipped (the
/// snapshot carries the training those lines produced), then the snapshot's
/// trained state is installed, then the remaining lines are replayed in
/// full — re-running `RETRAIN` exactly as the original session did, which
/// is deterministic because forests are seeded.
fn recover(
    n_trees: usize,
    lines: &[String],
    snapshot: Option<SessionSnapshot>,
) -> Result<Session, StoreError> {
    let covered = match &snapshot {
        Some(s) => {
            if s.wal_seq > lines.len() as u64 {
                return Err(StoreError::CorruptSnapshot(SnapshotError::StateMismatch(
                    "snapshot covers more commands than the WAL holds",
                )));
            }
            s.wal_seq as usize
        }
        None => 0,
    };

    let mut session = Session::new(n_trees);
    replay_lines(&mut session, &lines[..covered], true)?;
    if let Some(snap) = snapshot {
        let pipeline = session
            .pipeline_mut()
            .ok_or_else(|| StoreError::ReplayFailed("snapshot but no HELLO in WAL".to_string()))?;
        snap.install_into(pipeline)
            .map_err(StoreError::CorruptSnapshot)?;
    }
    replay_lines(&mut session, &lines[covered..], false)?;
    Ok(session)
}

/// Most points one replayed `OBSB` carries: a run of logged `OBS` lines
/// is re-applied in batches this long, which keeps the batch buffers at
/// the history-replay chunk's size.
const REPLAY_BATCH: usize = 256;

/// Logged `OBS` lines gathered for one replayed batch.
struct ObsRun<'a> {
    start: i64,
    values: Vec<Option<f64>>,
    /// The run's first line, named if the batch fails.
    first_line: &'a str,
}

/// Re-applies WAL lines to the session under recovery. Uses the
/// synchronous-retrain variant of the state machine: a logged `RETRAIN`
/// marks a completed swap, so replay must finish training before the next
/// line. A run of `OBS` lines one interval apart is re-applied as `OBSB`
/// batches, whose verdicts and state are bit-identical to the per-point
/// path but whose extraction runs on the worker pool; any other line, or
/// a timestamp gap, ends the run.
fn replay_lines(
    session: &mut Session,
    lines: &[String],
    skip_retrain: bool,
) -> Result<(), StoreError> {
    let mut run: Option<ObsRun> = None;
    for line in lines {
        let request =
            parse_request(line).map_err(|e| StoreError::CorruptWal(format!("`{line}`: {e}")))?;
        if let (Request::Obs { timestamp, value }, Some(interval)) = (
            &request,
            session.pipeline_mut().map(|p| i64::from(p.interval())),
        ) {
            if let Some(r) = run.as_mut() {
                let next = r.start.checked_add(r.values.len() as i64 * interval);
                if r.values.len() < REPLAY_BATCH && next == Some(*timestamp) {
                    r.values.push(*value);
                    continue;
                }
            }
            flush_run(session, run.take())?;
            run = Some(ObsRun {
                start: *timestamp,
                values: vec![*value],
                first_line: line,
            });
            continue;
        }
        flush_run(session, run.take())?;
        if skip_retrain && request == Request::Retrain {
            continue;
        }
        replay_request(session, &request, line)?;
    }
    flush_run(session, run)
}

/// Re-applies a gathered run of `OBS` lines as one `OBSB`.
fn flush_run(session: &mut Session, run: Option<ObsRun>) -> Result<(), StoreError> {
    match run {
        Some(ObsRun {
            start,
            values,
            first_line,
        }) => replay_request(session, &Request::ObsBatch { start, values }, first_line),
        None => Ok(()),
    }
}

fn replay_request(session: &mut Session, request: &Request, line: &str) -> Result<(), StoreError> {
    match session.apply_replay(request) {
        crate::proto::Response::Err(reason) => {
            Err(StoreError::ReplayFailed(format!("`{line}`: {reason}")))
        }
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::Response;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// A unique scratch directory per test (no external tempdir crate).
    fn scratch() -> PathBuf {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let nonce = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "opprentice-store-test-{}-{nonce}",
            std::process::id()
        ));
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    /// Applies and logs protocol lines the way the server does.
    fn apply_all(session: &mut Session, durable: &mut DurableSession, lines: &[String]) {
        for line in lines {
            let request = parse_request(line).unwrap();
            let response = session.apply(&request);
            assert!(response.is_ok(), "`{line}` -> {response:?}");
            if request == Request::Retrain {
                // A RETRAIN line records the swap, so the background job
                // must land before it is logged.
                session.wait_training().expect("retrain lands");
                durable.log_swap(session.pipeline_mut().unwrap()).unwrap();
            } else if let Some(p) = session.pipeline_mut() {
                durable.log(&request, line, p).unwrap();
            }
        }
    }

    fn status(session: &mut Session) -> String {
        match session.apply(&Request::Status) {
            Response::Ok(s) => s,
            other => panic!("{other:?}"),
        }
    }

    /// A labeled daily-pattern workload: HELLO + OBS stream + LABEL +
    /// RETRAIN, as protocol lines.
    fn workload(n: usize, session_id: &str) -> Vec<String> {
        let mut lines = vec![
            "PREF 0.5 0.5".to_string(),
            format!("HELLO 3600 {session_id}"),
        ];
        let mut flags = String::new();
        for i in 0..n {
            let base = 100.0 + 20.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin();
            let anomalous = i % 63 == 50 || i % 63 == 51;
            let v = if anomalous { base + 150.0 } else { base };
            lines.push(format!("OBS {} {v}", i * 3600));
            flags.push(if anomalous { '1' } else { '0' });
        }
        lines.push(format!("LABEL {flags}"));
        lines.push("RETRAIN".to_string());
        lines
    }

    fn probe(session: &mut Session, t0: i64) -> Vec<Response> {
        [100.0, 400.0, 120.0, 60.0]
            .into_iter()
            .enumerate()
            .map(|(i, v)| {
                session.apply(&Request::Obs {
                    timestamp: t0 + i as i64 * 3600,
                    value: Some(v),
                })
            })
            .collect()
    }

    #[test]
    fn create_then_resume_round_trips() {
        let root = scratch();
        let store = SessionStore::open(&root).unwrap();
        let lines = workload(21 * 24, "kpi-1");

        let mut durable = store.create("kpi-1", 8).unwrap();
        let mut live = Session::new(8);
        apply_all(&mut live, &mut durable, &lines);
        drop(durable); // crash: no clean close
                       // Recover from the WAL alone, as if the crash beat the swap's
                       // snapshot.
        std::fs::remove_file(root.join("kpi-1").join(SNAPSHOT_FILE)).unwrap();

        let (_d2, mut recovered) = store.resume("kpi-1").unwrap();
        // The replayed RETRAIN rebuilt the swapped-in model exactly.
        match recovered.apply(&Request::Status) {
            Response::Ok(s) => assert!(s.contains("model_version=1"), "{s}"),
            other => panic!("{other:?}"),
        }
        let t0 = (21 * 24) * 3600;
        assert_eq!(probe(&mut live, t0), probe(&mut recovered, t0));
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn snapshot_skips_replaying_retrain() {
        let root = scratch();
        let store = SessionStore::open(&root).unwrap();
        let lines = workload(21 * 24, "kpi-2");

        let mut durable = store.create("kpi-2", 8).unwrap();
        let mut live = Session::new(8);
        apply_all(&mut live, &mut durable, &lines);
        durable.snapshot(live.pipeline_mut().unwrap()).unwrap();
        // More traffic after the snapshot.
        let extra: Vec<String> = (0..48)
            .map(|i| format!("OBS {} 101.5", (21 * 24 + i) * 3600))
            .collect();
        apply_all(&mut live, &mut durable, &extra);
        drop(durable);

        let (d2, mut recovered) = store.resume("kpi-2").unwrap();
        let snap = read_snapshot(&root.join("kpi-2").join(SNAPSHOT_FILE))
            .unwrap()
            .unwrap();
        assert_eq!(d2.wal_seq - snap.wal_seq, 48);
        // The snapshot path restores the model version too, without
        // training.
        let s = status(&mut recovered);
        assert!(s.contains("train_us=0 model_version=1"), "{s}");
        let t0 = (21 * 24 + 48) * 3600;
        assert_eq!(probe(&mut live, t0), probe(&mut recovered, t0));
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn batched_appends_replay_like_singles() {
        let root = scratch();
        let store = SessionStore::open(&root).unwrap();
        let lines = workload(14 * 24, "batched");

        let mut durable = store.create("batched", 8).unwrap();
        let mut live = Session::new(8);
        apply_all(&mut live, &mut durable, &lines);
        // A burst applied as one batch: the session sees an OBSB, the WAL
        // gets the decomposed OBS lines in one group commit.
        let t0 = (14 * 24) * 3600i64;
        let batch = format!("OBSB {t0} 101.0 nan 250 99.5");
        apply_all(&mut live, &mut durable, &[batch]);
        assert_eq!(durable.wal_seq, lines.len() as u64 + 4);
        let wal = std::fs::read_to_string(root.join("batched").join(WAL_FILE)).unwrap();
        let tail: Vec<&str> = wal.lines().rev().take(4).collect();
        let expected: Vec<String> = ["101", "nan", "250", "99.5"]
            .iter()
            .enumerate()
            .rev()
            .map(|(i, v)| format!("OBS {} {v}", t0 + i as i64 * 3600))
            .collect();
        assert_eq!(tail, expected);
        drop(durable); // crash

        let (_d2, mut recovered) = store.resume("batched").unwrap();
        let t1 = t0 + 4 * 3600;
        assert_eq!(probe(&mut live, t1), probe(&mut recovered, t1));
        std::fs::remove_dir_all(root).unwrap();
    }

    /// The suffix past the swap's snapshot replays runs of `OBS` lines as
    /// batches: a run longer than one replay batch, a missing value, a
    /// timestamp gap, a `LABEL` and a point out of order. The recovered
    /// session holds every point at its logged timestamp and scores like
    /// the live one.
    #[test]
    fn resume_batches_obs_runs_across_gaps_and_labels() {
        let root = scratch();
        let store = SessionStore::open(&root).unwrap();
        let lines = workload(14 * 24, "runs");
        let mut durable = store.create("runs", 8).unwrap();
        let mut live = Session::new(8);
        apply_all(&mut live, &mut durable, &lines);
        assert!(root.join("runs").join(SNAPSHOT_FILE).exists());

        let hour = |i: usize| (14 * 24 + i) as i64 * 3600;
        let value =
            |i: usize| 100.0 + 20.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin();
        let mut suffix: Vec<String> = (0..REPLAY_BATCH + 40)
            .map(|i| format!("OBS {} {}", hour(i), value(i)))
            .collect();
        suffix.push(format!("OBS {} nan", hour(REPLAY_BATCH + 40)));
        // A gap of five intervals, then a short run.
        suffix.extend(
            (REPLAY_BATCH + 46..REPLAY_BATCH + 52).map(|i| format!("OBS {} {}", hour(i), value(i))),
        );
        suffix.push("LABEL 0000000000".to_string());
        suffix.extend(
            (REPLAY_BATCH + 52..REPLAY_BATCH + 60)
                .map(|i| format!("OBS {} {}", hour(i), value(i) + 90.0)),
        );
        // A point out of order, then the run picks up again.
        suffix.push(format!("OBS {} 111", hour(3)));
        suffix.extend(
            (REPLAY_BATCH + 60..REPLAY_BATCH + 64).map(|i| format!("OBS {} {}", hour(i), value(i))),
        );
        apply_all(&mut live, &mut durable, &suffix);
        drop(durable); // crash: the suffix is in the WAL alone

        let (_d2, mut recovered) = store.resume("runs").unwrap();
        let s = status(&mut recovered);
        assert!(s.contains(" train_us=0 model_version=1 "), "{s}");
        let counters = |s: &str| s.split(" cthld").next().unwrap().to_string();
        assert_eq!(counters(&status(&mut live)), counters(&s));
        // Every point sits at its logged timestamp, as in the live session.
        let raw = |s: &mut Session| s.pipeline_mut().unwrap().raw_points().to_vec();
        assert!(raw(&mut live) == raw(&mut recovered));
        // And it scores three more days, spiking every fifth hour, like
        // the live one.
        for day in 0..3 {
            let t0 = hour(REPLAY_BATCH + 64 + 24 * day);
            let probes: Vec<Request> = (0..24)
                .map(|i| Request::Obs {
                    timestamp: t0 + i as i64 * 3600,
                    value: Some(value(i) + if i % 5 == 0 { 60.0 } else { 0.0 }),
                })
                .collect();
            for request in &probes {
                assert_eq!(live.apply(request), recovered.apply(request), "{request:?}");
            }
        }
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn double_create_and_unknown_resume_fail() {
        let root = scratch();
        let store = SessionStore::open(&root).unwrap();
        let d = store.create("dup", 8).unwrap();
        drop(d);
        assert!(matches!(
            store.create("dup", 8),
            Err(StoreError::SessionExists)
        ));
        assert!(matches!(
            store.resume("nope"),
            Err(StoreError::UnknownSession)
        ));
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn live_session_cannot_be_resumed_concurrently() {
        let root = scratch();
        let store = SessionStore::open(&root).unwrap();
        let d = store.create("busy", 8).unwrap();
        assert!(matches!(store.resume("busy"), Err(StoreError::SessionBusy)));
        drop(d); // released: now it resumes (and recovers an empty session)
        let (_d2, _s) = store.resume("busy").unwrap();
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn torn_snapshot_tmp_is_ignored() {
        let root = scratch();
        let store = SessionStore::open(&root).unwrap();
        let lines = workload(14 * 24, "torn");
        let mut durable = store.create("torn", 8).unwrap();
        let mut live = Session::new(8);
        apply_all(&mut live, &mut durable, &lines);
        durable.snapshot(live.pipeline_mut().unwrap()).unwrap();
        // A crash mid-snapshot leaves a garbage tmp file; recovery must not
        // even look at it.
        std::fs::write(root.join("torn").join(SNAPSHOT_TMP), b"partial garbage").unwrap();
        drop(durable);
        let (_d2, mut recovered) = store.resume("torn").unwrap();
        let t0 = (14 * 24) * 3600;
        assert_eq!(probe(&mut live, t0), probe(&mut recovered, t0));
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn corrupt_snapshot_is_reported_not_panicked() {
        let root = scratch();
        let store = SessionStore::open(&root).unwrap();
        let lines = workload(14 * 24, "corrupt");
        let mut durable = store.create("corrupt", 8).unwrap();
        let mut live = Session::new(8);
        apply_all(&mut live, &mut durable, &lines);
        durable.snapshot(live.pipeline_mut().unwrap()).unwrap();
        drop(durable);
        // Truncate the snapshot to simulate a torn write that somehow got
        // renamed (e.g. disk corruption after the fact).
        let snap_path = root.join("corrupt").join(SNAPSHOT_FILE);
        let bytes = std::fs::read(&snap_path).unwrap();
        std::fs::write(&snap_path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(matches!(
            store.resume("corrupt"),
            Err(StoreError::CorruptSnapshot(_))
        ));
        std::fs::remove_dir_all(root).unwrap();
    }

    #[test]
    fn corrupt_wal_is_reported_not_panicked() {
        let root = scratch();
        let store = SessionStore::open(&root).unwrap();
        let mut durable = store.create("badwal", 8).unwrap();
        let mut live = Session::new(8);
        apply_all(
            &mut live,
            &mut durable,
            &["HELLO 60 badwal".to_string(), "OBS 0 1.0".to_string()],
        );
        drop(durable);
        let wal_path = root.join("badwal").join(WAL_FILE);
        let mut content = std::fs::read_to_string(&wal_path).unwrap();
        content.push_str("NOT A COMMAND\n");
        std::fs::write(&wal_path, content).unwrap();
        assert!(matches!(
            store.resume("badwal"),
            Err(StoreError::CorruptWal(_))
        ));
        std::fs::remove_dir_all(root).unwrap();
    }

    /// A crash mid-write can leave an unterminated final line. It was never
    /// acknowledged, so `RESUME` drops it and truncates the log to the last
    /// complete line, and the next append starts a line of its own.
    #[test]
    fn torn_final_wal_line_is_cut_off() {
        let root = scratch();
        let store = SessionStore::open(&root).unwrap();
        let mut durable = store.create("torn-wal", 8).unwrap();
        let mut live = Session::new(8);
        let lines = ["HELLO 3600 torn-wal", "OBS 0 100.5", "OBS 3600 101.5"].map(String::from);
        apply_all(&mut live, &mut durable, &lines);
        drop(durable);
        let wal_path = root.join("torn-wal").join(WAL_FILE);
        let whole = std::fs::read_to_string(&wal_path).unwrap();
        // `OBS 7200 105.5`, torn after its first 11 bytes.
        let mut torn = std::fs::OpenOptions::new()
            .append(true)
            .open(&wal_path)
            .unwrap();
        torn.write_all(b"OBS 7200 10").unwrap();
        drop(torn);

        let (mut d2, mut recovered) = store.resume("torn-wal").unwrap();
        assert!(status(&mut recovered).starts_with("observed=2 "));
        assert_eq!(std::fs::read_to_string(&wal_path).unwrap(), whole);
        apply_all(&mut recovered, &mut d2, &["OBS 7200 105.5".to_string()]);
        drop(d2);

        let (_d3, mut recovered) = store.resume("torn-wal").unwrap();
        assert!(status(&mut recovered).starts_with("observed=3 "));
        let wal = std::fs::read_to_string(&wal_path).unwrap();
        assert_eq!(wal, format!("{whole}OBS 7200 105.5\n"));
        std::fs::remove_dir_all(root).unwrap();
    }

    /// A crash after the swap's `RETRAIN` reached the WAL but before its
    /// snapshot did: `RESUME` replays the retrain. The next clean close
    /// snapshots the model, and the resume after it trains nothing.
    #[test]
    fn crash_before_the_swap_snapshot_replays_the_retrain_once() {
        let root = scratch();
        let store = SessionStore::open(&root).unwrap();
        let lines = workload(14 * 24, "swap-crash");
        let (setup, retrain) = lines.split_at(lines.len() - 1);
        assert_eq!(retrain, ["RETRAIN"]);

        let mut durable = store.create("swap-crash", 8).unwrap();
        let mut live = Session::new(8);
        apply_all(&mut live, &mut durable, setup);
        assert!(live.apply(&Request::Retrain).is_ok());
        live.wait_training().expect("retrain lands");
        durable.append(["RETRAIN"]).unwrap();
        drop(durable); // crash before the snapshot
        assert!(!root.join("swap-crash").join(SNAPSHOT_FILE).exists());

        let (d2, mut recovered) = store.resume("swap-crash").unwrap();
        let s = status(&mut recovered);
        assert!(s.contains(" model_version=1 "), "{s}");
        assert!(!s.contains(" train_us=0 "), "the retrain replays: {s}");
        d2.close(recovered.pipeline_mut().as_deref()).unwrap();

        let (_d3, mut recovered) = store.resume("swap-crash").unwrap();
        let s = status(&mut recovered);
        assert!(s.contains(" train_us=0 model_version=1 "), "{s}");
        let t0 = (14 * 24) * 3600;
        assert_eq!(probe(&mut live, t0), probe(&mut recovered, t0));
        std::fs::remove_dir_all(root).unwrap();
    }
}
