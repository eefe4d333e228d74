//! Chaos tests: the serving layer under hostile clients and crashes.
//!
//! Everything here drives a real `Server` over real TCP sockets using the
//! fault-injection utilities in `opprentice_server::testing`. The tests
//! check the tentpole robustness guarantees end to end:
//!
//! - a slowloris client cannot block other clients,
//! - mid-command disconnects and garbage floods are harmless,
//! - a connection storm is shed with `ERR busy`, not by degrading everyone,
//! - a killed-and-resumed durable session produces verdicts identical to a
//!   session that was never interrupted — across client crashes, a handler
//!   panic, *and* a full server restart,
//! - a session killed while a background retrain is in flight resumes on
//!   exactly the old model; killed after the swap, on exactly the new one —
//!   never a torn in-between,
//! - a panicking handler takes down only its own connection,
//! - `OBSB` batches reply and are write-ahead logged exactly like the
//!   equivalent `OBS` sequence, including across a kill-and-resume cycle.

use opprentice_server::testing::{Client, FaultInjector};
use opprentice_server::{Server, ServerConfig, ServerHandle};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::{Duration, Instant};

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

/// A unique scratch directory per test (no external tempdir crate).
fn scratch() -> PathBuf {
    static COUNTER: AtomicU64 = AtomicU64::new(0);
    let nonce = COUNTER.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("opprentice-chaos-{}-{nonce}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// The shared workload: a daily-patterned KPI with labeled spikes.
/// Returns (OBS lines, label flags).
fn kpi_stream(hours: usize) -> (Vec<String>, String) {
    let mut obs = Vec::with_capacity(hours);
    let mut flags = String::with_capacity(hours);
    for i in 0..hours {
        let base = 100.0 + 20.0 * ((i % 24) as f64 / 24.0 * std::f64::consts::TAU).sin();
        let anomalous = i % 63 == 50 || i % 63 == 51;
        let v = if anomalous { base + 150.0 } else { base };
        obs.push(format!("OBS {} {v}", i * 3600));
        flags.push(if anomalous { '1' } else { '0' });
    }
    (obs, flags)
}

fn send_all(c: &mut Client, lines: &[String]) -> Vec<String> {
    lines.iter().map(|l| c.send(l).expect("send")).collect()
}

/// Issues `RETRAIN` (which returns immediately) and polls `STATUS` until
/// the background job's model has been swapped in.
fn retrain_and_wait(c: &mut Client) {
    let reply = c.send("RETRAIN").expect("retrain");
    assert!(reply.starts_with("OK retraining job="), "{reply}");
    let deadline = Instant::now() + Duration::from_secs(60);
    loop {
        let status = c.send("STATUS").expect("status");
        if status.contains("training=0") {
            assert!(status.contains(" trained=1 "), "{status}");
            return;
        }
        assert!(Instant::now() < deadline, "retrain never landed: {status}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

/// One field from a fresh `STATUS` reply.
fn status_field(c: &mut Client, key: &str) -> String {
    let status = c.send("STATUS").expect("status");
    status
        .split_whitespace()
        .find_map(|kv| kv.strip_prefix(key))
        .unwrap_or_else(|| panic!("no {key} in {status}"))
        .to_string()
}

/// Reconnects and `RESUME`s a durable session. An abruptly killed
/// connection holds its session lease until the server finishes unwinding
/// it, so "session busy" is retried briefly.
fn resume(addr: std::net::SocketAddr, id: &str) -> Client {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let mut c = Client::connect(addr).expect("connect");
        let reply = c.send(&format!("RESUME {id}")).expect("resume");
        if reply.starts_with("OK resumed") {
            return c;
        }
        if !reply.contains("busy") || Instant::now() >= deadline {
            panic!("RESUME {id} failed: {reply}");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn slowloris_does_not_block_other_clients() {
    let config = ServerConfig {
        line_deadline: Duration::from_millis(400),
        read_tick: Duration::from_millis(20),
        ..test_config()
    };
    let (handle, join) = start_server(config);
    let addr = handle.addr();

    // The attacker trickles one byte every 50 ms and never finishes a line.
    let attacker = std::thread::spawn(move || {
        FaultInjector::new(addr)
            .slowloris(
                &"OBS 0 1.0 and then some padding".repeat(8),
                Duration::from_millis(50),
            )
            .expect("slowloris io")
    });

    // Meanwhile a well-behaved client must see normal latency throughout.
    let mut c = Client::connect(addr).expect("connect");
    assert!(c.send("HELLO 3600").unwrap().starts_with("OK"));
    let started = Instant::now();
    for i in 0..50 {
        let reply = c.send(&format!("OBS {} 100.0", i * 3600)).unwrap();
        assert!(reply.starts_with("OK"), "{reply}");
    }
    // 50 round-trips while the attack runs: seconds would mean the
    // attacker pinned the server; this must be near-instant.
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "well-behaved client starved: {:?}",
        started.elapsed()
    );
    c.send("QUIT").unwrap();

    // The attacker was cut off with an explicit timeout error.
    assert_eq!(attacker.join().unwrap(), "ERR line timeout");
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn disconnects_and_garbage_are_harmless() {
    let (handle, join) = start_server(test_config());
    let inject = FaultInjector::new(handle.addr());

    // Clients vanishing mid-command, repeatedly.
    for partial in ["OBS 12 4", "HELLO", "LAB", "RETR"] {
        inject
            .disconnect_mid_command(partial)
            .expect("mid-command disconnect");
    }
    // A flood of binary junk: every line answered with ERR, nothing else.
    let errs = inject.garbage_flood(200, 0xBAD5EED).expect("flood");
    assert_eq!(errs, 200, "some garbage line crashed or wedged the server");

    // The server is entirely unimpressed.
    let mut c = Client::connect(handle.addr()).expect("connect");
    assert!(c.send("HELLO 60").unwrap().starts_with("OK"));
    assert!(c.send("OBS 0 1.0").unwrap().starts_with("OK"));
    c.send("QUIT").unwrap();
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn client_storm_is_shed_with_err_busy() {
    let config = ServerConfig {
        max_connections: 4,
        ..test_config()
    };
    let (handle, join) = start_server(config);
    let addr = handle.addr();

    // 16 clients connect at once and hold their connections open.
    let clients: Vec<_> = (0..16)
        .map(|_| {
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect");
                c.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
                let reply = c.send("HELLO 60").expect("hello");
                if reply.starts_with("OK") {
                    // Hold the slot briefly so the storm actually overlaps.
                    std::thread::sleep(Duration::from_millis(300));
                    c.send("QUIT").expect("quit");
                    true
                } else {
                    assert_eq!(reply, "ERR busy", "unexpected shed response");
                    false
                }
            })
        })
        .collect();
    let served = clients
        .into_iter()
        .map(|t| t.join().unwrap())
        .filter(|&ok| ok)
        .count();

    // Load shedding means *some* were turned away — but never silently,
    // and the ones admitted were served correctly.
    assert!(served >= 1, "nobody was served during the storm");
    assert!(
        served < 16,
        "the cap admitted everyone; shedding never engaged"
    );

    // After the storm: business as usual.
    let mut c = Client::connect(addr).expect("connect");
    let deadline = Instant::now() + Duration::from_secs(5);
    loop {
        let reply = c.send("HELLO 60").expect("hello");
        if reply.starts_with("OK") {
            break;
        }
        assert!(Instant::now() < deadline, "server never recovered: {reply}");
        std::thread::sleep(Duration::from_millis(20));
        c = Client::connect(addr).expect("reconnect");
    }
    c.send("QUIT").unwrap();
    handle.shutdown();
    join.join().unwrap();
}

/// The tentpole guarantee: a durable session that is killed (client crash,
/// handler panic, even a full server restart) and then `RESUME`d produces
/// verdicts *identical* to a session that was never interrupted.
#[test]
fn killed_and_resumed_session_scores_identically() {
    let state_dir = scratch();
    let config = ServerConfig {
        state_dir: Some(state_dir.clone()),
        enable_panic_verb: true,
        ..test_config()
    };
    let (handle, join) = start_server(config.clone());

    // Three weeks of history, labels, one retrain, then a held-out week.
    let (history, flags) = kpi_stream(21 * 24);
    let (full, _) = kpi_stream(22 * 24);
    let mut held_out: Vec<String> = full[21 * 24..].to_vec();
    // The spike schedule misses this window, so probe explicitly: one
    // obvious anomaly and one normal point close the held-out stream.
    held_out.push(format!("OBS {} 400.0", 22 * 24 * 3600));
    held_out.push(format!("OBS {} 100.0", (22 * 24 + 1) * 3600));
    let held_out = &held_out[..];

    // Control: one uninterrupted (ephemeral) session sees everything.
    let mut control = Client::connect(handle.addr()).expect("connect");
    assert!(control.send("HELLO 3600").unwrap().starts_with("OK"));
    send_all(&mut control, &history);
    assert!(control
        .send(&format!("LABEL {flags}"))
        .unwrap()
        .starts_with("OK"));
    retrain_and_wait(&mut control);
    let control_verdicts = send_all(&mut control, held_out);
    control.send("QUIT").unwrap();

    // Victim: a durable session repeatedly interrupted at awkward points.
    let mut victim = Client::connect(handle.addr()).expect("connect");
    assert!(victim.send("HELLO 3600 victim").unwrap().starts_with("OK"));
    send_all(&mut victim, &history[..200]);
    victim.kill(); // client crash mid-history, no QUIT

    let mut victim = resume(handle.addr(), "victim");
    send_all(&mut victim, &history[200..]);
    assert!(victim
        .send(&format!("LABEL {flags}"))
        .unwrap()
        .starts_with("OK"));
    retrain_and_wait(&mut victim);
    // A handler panic poisons the session: no final snapshot is taken, so
    // the next resume recovers from the swap's snapshot and replays the
    // WAL past it.
    assert_eq!(victim.send("PANIC").unwrap(), "ERR internal error");
    assert_eq!(victim.read_line().unwrap(), ""); // and the connection died

    let mut victim = resume(handle.addr(), "victim");
    let first_half = send_all(&mut victim, &held_out[..12]);
    victim.kill();

    // Full server restart on the same state directory.
    handle.shutdown();
    join.join().unwrap();
    let (handle, join) = start_server(config);

    let mut victim = resume(handle.addr(), "victim");
    let second_half = send_all(&mut victim, &held_out[12..]);
    victim.send("QUIT").unwrap();

    // Probability, cThld and verdict — byte-identical for every point.
    let victim_verdicts: Vec<String> = first_half.into_iter().chain(second_half).collect();
    assert_eq!(victim_verdicts, control_verdicts);
    // Sanity: the comparison is about real detections, not all "pending".
    assert!(
        victim_verdicts.iter().any(|v| v.contains("anomaly=1")),
        "no spike ever alerted"
    );

    handle.shutdown();
    join.join().unwrap();
    std::fs::remove_dir_all(state_dir).unwrap();
}

/// The crash guarantee for background retraining: killing a session while
/// a retrain job is in flight abandons the job — the `RETRAIN` only
/// reaches the WAL when its model is swapped in, so the resumed session
/// serves exactly the old model. Killing it after the swap resumes on
/// exactly the new one. Both halves are checked against uninterrupted
/// control sessions for byte-identical verdicts.
#[test]
fn kill_mid_retrain_resumes_on_exactly_old_or_new_model() {
    let state_dir = scratch();
    let config = ServerConfig {
        state_dir: Some(state_dir.clone()),
        ..test_config()
    };
    let (handle, join) = start_server(config);
    let addr = handle.addr();

    // Four weeks of labeled data; the last week's labels feed a second
    // retrain. Probes A land between the interrupted and the successful
    // retrain, probes B after the successful one.
    let (full, all_flags) = kpi_stream(28 * 24);
    let history = full[..21 * 24].to_vec();
    let week4 = full[21 * 24..].to_vec();
    let flags21 = &all_flags[..21 * 24];
    let flags_w4 = &all_flags[21 * 24..];
    let probes_a = vec![
        format!("OBS {} 400.0", 28 * 24 * 3600),
        format!("OBS {} 100.0", (28 * 24 + 1) * 3600),
    ];
    let probes_b = vec![
        format!("OBS {} 400.0", (28 * 24 + 2) * 3600),
        format!("OBS {} 100.0", (28 * 24 + 3) * 3600),
    ];

    // Controls: uninterrupted ephemeral sessions fed the identical stream.
    // control1 stops at one retrain (what the victim resumes to in case A);
    // control2 also runs the second retrain at exactly the position where
    // the victim's succeeds (case B).
    let run_control = |second_retrain: bool| -> (Vec<String>, Vec<String>) {
        let mut c = Client::connect(addr).expect("connect");
        assert!(c.send("HELLO 3600").unwrap().starts_with("OK"));
        send_all(&mut c, &history);
        assert!(c
            .send(&format!("LABEL {flags21}"))
            .unwrap()
            .starts_with("OK"));
        retrain_and_wait(&mut c);
        send_all(&mut c, &week4);
        assert!(c
            .send(&format!("LABEL {flags_w4}"))
            .unwrap()
            .starts_with("OK"));
        let a = send_all(&mut c, &probes_a);
        if second_retrain {
            retrain_and_wait(&mut c);
        }
        let b = send_all(&mut c, &probes_b);
        c.send("QUIT").unwrap();
        (a, b)
    };
    let (control1_a, _) = run_control(false);
    let (control2_a, control2_b) = run_control(true);
    assert_eq!(
        control1_a, control2_a,
        "probes A precede the second retrain"
    );

    // Victim: train once, label week 4, then submit a retrain and die
    // before anything polls the job in.
    let mut victim = Client::connect(addr).expect("connect");
    assert!(victim
        .send("HELLO 3600 midtrain")
        .unwrap()
        .starts_with("OK"));
    send_all(&mut victim, &history);
    assert!(victim
        .send(&format!("LABEL {flags21}"))
        .unwrap()
        .starts_with("OK"));
    retrain_and_wait(&mut victim);
    send_all(&mut victim, &week4);
    assert!(victim
        .send(&format!("LABEL {flags_w4}"))
        .unwrap()
        .starts_with("OK"));
    let reply = victim.send("RETRAIN").unwrap();
    assert!(reply.starts_with("OK retraining job="), "{reply}");
    victim.kill(); // crash with the job in flight — the swap never lands

    // Case A: the resumed session is on exactly the old model.
    let mut victim = resume(addr, "midtrain");
    assert_eq!(status_field(&mut victim, "model_version="), "1");
    assert_eq!(status_field(&mut victim, "training="), "0");
    assert_eq!(send_all(&mut victim, &probes_a), control1_a);

    // Case B: retrain to completion (the swap reaches the WAL), then die.
    retrain_and_wait(&mut victim);
    assert_eq!(status_field(&mut victim, "model_version="), "2");
    victim.kill();

    let mut victim = resume(addr, "midtrain");
    assert_eq!(status_field(&mut victim, "model_version="), "2");
    let victim_b = send_all(&mut victim, &probes_b);
    assert_eq!(victim_b, control2_b);
    assert!(
        victim_b.iter().any(|v| v.contains("anomaly=1")),
        "no spike ever alerted"
    );
    victim.send("QUIT").unwrap();

    handle.shutdown();
    join.join().unwrap();
    std::fs::remove_dir_all(state_dir).unwrap();
}

/// The batching contract under crashes: a durable session fed `OBSB`
/// batches (1) answers the exact `|`-join of the replies the equivalent
/// `OBS` sequence produces, (2) logs the decomposed `OBS` lines to its WAL
/// byte-for-byte, and (3) keeps producing byte-identical verdicts after a
/// kill-and-resume cycle.
#[test]
fn obsb_batches_match_obs_across_kill_and_resume() {
    let state_dir = scratch();
    let config = ServerConfig {
        state_dir: Some(state_dir.clone()),
        ..test_config()
    };
    let (handle, join) = start_server(config);

    // Three weeks of history plus a held-out week; the spike schedule
    // misses the held-out window, so explicit probes close the stream.
    let (history, flags) = kpi_stream(21 * 24);
    let (full, _) = kpi_stream(22 * 24);
    let mut held_out: Vec<String> = full[21 * 24..].to_vec();
    held_out.push(format!("OBS {} 400.0", 22 * 24 * 3600));
    held_out.push(format!("OBS {} 100.0", (22 * 24 + 1) * 3600));

    // Rewrites a run of `OBS <ts> <v>` lines as one-day `OBSB` lines.
    let to_batches = |lines: &[String]| -> Vec<String> {
        lines
            .chunks(24)
            .map(|chunk| {
                let ts0 = chunk[0].split_whitespace().nth(1).unwrap();
                let values: Vec<&str> = chunk
                    .iter()
                    .map(|l| l.split_whitespace().nth(2).unwrap())
                    .collect();
                format!("OBSB {ts0} {}", values.join(" "))
            })
            .collect()
    };
    // Splits batch replies back into the per-point replies they carry.
    let flatten = |replies: &[String]| -> Vec<String> {
        replies
            .iter()
            .flat_map(|r| {
                r.strip_prefix("OK ")
                    .expect("OK batch reply")
                    .split('|')
                    .map(|p| format!("OK {p}"))
                    .collect::<Vec<_>>()
            })
            .collect()
    };

    // Control: an uninterrupted ephemeral session fed point by point.
    let mut control = Client::connect(handle.addr()).expect("connect");
    assert!(control.send("HELLO 3600").unwrap().starts_with("OK"));
    let control_history = send_all(&mut control, &history);
    assert!(control
        .send(&format!("LABEL {flags}"))
        .unwrap()
        .starts_with("OK"));
    retrain_and_wait(&mut control);
    let control_verdicts = send_all(&mut control, &held_out);
    control.send("QUIT").unwrap();

    // Victim: a durable session fed in batches, killed mid-history.
    let mut victim = Client::connect(handle.addr()).expect("connect");
    assert!(victim.send("HELLO 3600 obsb").unwrap().starts_with("OK"));
    let week1 = send_all(&mut victim, &to_batches(&history[..7 * 24]));
    victim.kill(); // client crash between batches, no QUIT

    let mut victim = resume(handle.addr(), "obsb");
    let rest = send_all(&mut victim, &to_batches(&history[7 * 24..]));
    let batched_history: Vec<String> = week1.into_iter().chain(rest).collect();
    assert_eq!(flatten(&batched_history), control_history);

    assert!(victim
        .send(&format!("LABEL {flags}"))
        .unwrap()
        .starts_with("OK"));
    retrain_and_wait(&mut victim);

    // Held out: first half batched, then another kill, rest as singles.
    let batched_half = send_all(&mut victim, &to_batches(&held_out[..12]));
    victim.kill();
    let mut victim = resume(handle.addr(), "obsb");
    let single_half = send_all(&mut victim, &held_out[12..]);
    let victim_verdicts: Vec<String> = flatten(&batched_half)
        .into_iter()
        .chain(single_half)
        .collect();
    assert_eq!(victim_verdicts, control_verdicts);
    assert!(
        victim_verdicts.iter().any(|v| v.contains("anomaly=1")),
        "no spike ever alerted"
    );
    victim.send("QUIT").unwrap();
    handle.shutdown();
    join.join().unwrap();

    // The WAL holds the decomposed OBS lines, byte-identical to the
    // equivalent single-OBS stream, in order.
    let wal = std::fs::read_to_string(state_dir.join("obsb").join("wal.log")).unwrap();
    let logged_obs: Vec<&str> = wal.lines().filter(|l| l.starts_with("OBS ")).collect();
    let expected: Vec<&str> = history
        .iter()
        .chain(held_out.iter())
        .map(String::as_str)
        .collect();
    assert_eq!(logged_obs, expected);

    std::fs::remove_dir_all(state_dir).unwrap();
}

#[test]
fn panic_takes_down_one_connection_not_the_server() {
    let config = ServerConfig {
        enable_panic_verb: true,
        ..test_config()
    };
    let (handle, join) = start_server(config);

    let mut bystander = Client::connect(handle.addr()).expect("connect");
    assert!(bystander.send("HELLO 60").unwrap().starts_with("OK"));
    assert!(bystander.send("OBS 0 1.0").unwrap().starts_with("OK"));

    let mut crasher = Client::connect(handle.addr()).expect("connect");
    assert!(crasher.send("HELLO 60").unwrap().starts_with("OK"));
    assert_eq!(crasher.send("PANIC").unwrap(), "ERR internal error");
    assert_eq!(crasher.read_line().unwrap(), ""); // crasher is disconnected

    // The bystander's session kept its state; new clients are welcome.
    assert!(bystander
        .send("STATUS")
        .unwrap()
        .starts_with("OK observed=1 labeled=0 trained=0 cthld=0.500 extract_us="));
    let mut fresh = Client::connect(handle.addr()).expect("connect");
    assert!(fresh.send("HELLO 60").unwrap().starts_with("OK"));
    fresh.send("QUIT").unwrap();
    bystander.send("QUIT").unwrap();
    handle.shutdown();
    join.join().unwrap();
}

#[test]
fn hung_clients_do_not_block_graceful_shutdown() {
    let config = ServerConfig {
        read_tick: Duration::from_millis(20),
        ..test_config()
    };
    let (handle, join) = start_server(config);
    let inject = FaultInjector::new(handle.addr());

    // Several clients connect and go completely silent — one of them with
    // a half-written command in flight.
    let _stalled: Vec<_> = (0..3)
        .map(|_| inject.connect_and_stall().unwrap())
        .collect();
    let mut half = Client::connect(handle.addr()).expect("connect");
    half.write_raw(b"OBS 12 4").unwrap(); // no newline, never completed

    // Shutdown must drain them within the read tick, not wait for the
    // idle timeout (300 s by default) or for the clients to hang up.
    let started = Instant::now();
    handle.shutdown();
    join.join().unwrap();
    assert!(
        started.elapsed() < Duration::from_secs(5),
        "hung clients blocked shutdown for {:?}",
        started.elapsed()
    );
}
