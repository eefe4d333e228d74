//! A TCP service exposing the Opprentice pipeline over a line protocol.
//!
//! The paper's system ran as an online service beside the monitored search
//! engine (§5.8 sizes its detection lag against the 1-minute data
//! interval). This crate provides that deployment shape: monitoring agents
//! stream `(timestamp, value)` points over TCP, receive verdicts inline,
//! and push operator labels after each weekly labeling session.
//!
//! Design notes (per the project's networking guides): the workload is
//! CPU-bound (feature extraction + forest inference) with a handful of
//! long-lived connections — exactly the case where an async runtime buys
//! nothing, so the server is plain `std::net` with one thread per
//! connection and a clean shutdown path. The protocol is line-based and
//! telnet-friendly; framing is newline, encoding is ASCII.
//!
//! ## Protocol
//!
//! Each connection monitors one KPI. Requests are single lines; responses
//! are single lines starting with `OK`, `ERR` or `BYE`.
//!
//! ```text
//! HELLO <interval_seconds> [session_id]
//!                               first command; fixes the KPI's interval.
//!                               With a session id (and a server state
//!                               directory) the session is durable: every
//!                               applied command is write-ahead logged and
//!                               the trained state snapshotted.
//! RESUME <session_id>           instead of HELLO: rebuild a durable
//!                               session after a disconnect or server
//!                               crash; verdicts continue exactly where
//!                               they left off
//! PREF <recall> <precision>     set the accuracy preference, each in
//!                               (0, 1] (before HELLO; default 0.66 0.66)
//! OBS <ts> <value|nan>          feed one point -> verdict (or "pending")
//! OBSB <ts0> <v0> [v1 ...]      feed a batch of consecutive points (point
//!                               i lands at ts0 + i*interval) -> one OK
//!                               line with the per-point verdicts joined
//!                               by `|`, each byte-identical to what the
//!                               equivalent OBS would have returned
//! LABEL <flags>                 label the oldest unlabeled points; flags is
//!                               a string of 0/1, one per point
//! RETRAIN                       incremental retraining + cThld refresh
//! STATUS                        counters and current cThld
//! QUIT                          close the connection
//! ```
//!
//! ## Robustness
//!
//! The serving layer is hardened against misbehaving clients and process
//! crashes:
//!
//! - **Durability.** Durable sessions append every acknowledged command to
//!   a per-session write-ahead log *before* the `OK` goes out, and
//!   snapshot the trained state (compiled model, threshold predictor,
//!   labels) atomically at each model swap and clean close. `RESUME`
//!   replays the log around the latest snapshot; because training is
//!   deterministically seeded, a resumed session produces byte-identical
//!   verdicts to one that never crashed.
//! - **Timeouts.** A line must complete within a deadline once its first
//!   byte arrives (anti-slowloris), and connections with no traffic are
//!   reaped, so one hung client can never pin a thread forever.
//! - **Load shedding.** Connections beyond the configured cap are answered
//!   `ERR busy` and closed instead of degrading everyone.
//! - **Panic isolation.** A panic while handling a command is caught,
//!   answered with `ERR internal error`, and takes down only that
//!   connection — never the server.
//!
//! ## Throughput
//!
//! The hot path is built for batch-friendly serving: trained forests are
//! compiled to a flat cache-friendly layout (`opprentice_learn`'s
//! `CompiledForest`) at retrain time, `OBSB` amortizes the per-line
//! round-trip over many points, the connection loop drains every complete
//! pipelined line before answering with one coalesced write, and durable
//! batches are group-committed to the WAL with a single flush. See
//! `crates/bench/src/bin/serving_bench.rs` for the measurement harness.
//!
//! All knobs live on [`ServerConfig`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod proto;
mod service;
mod store;
pub mod testing;
mod verdict;

pub use proto::{parse_request, validate_session_id, Request, Response};
pub use service::{Server, ServerConfig, ServerHandle};
pub use store::{SessionStore, StoreError};
