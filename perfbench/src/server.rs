//! The system under test: an `opprentice-serve` child process, and a
//! blocking line-protocol connection to it.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;

/// A running server process. Dropping it kills the process and waits
/// for it, so no run leaves a server behind.
pub struct ServerProc {
    child: Child,
    pub addr: SocketAddr,
    stderr: Option<JoinHandle<()>>,
}

impl ServerProc {
    /// Starts `bin` on an ephemeral loopback port and waits until it
    /// reports the address it listens on.
    pub fn start(bin: &Path) -> Result<ServerProc, String> {
        let mut child = Command::new(bin)
            .arg("127.0.0.1:0")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut stderr = BufReader::new(child.stderr.take().expect("stderr is piped"));
        let mut line = String::new();
        let addr = loop {
            line.clear();
            match stderr.read_line(&mut line) {
                Ok(0) | Err(_) => {
                    let _ = child.kill();
                    let _ = child.wait();
                    return Err("server exited before listening".into());
                }
                Ok(_) => {
                    if let Some(rest) = line.trim().split("listening on ").nth(1) {
                        break rest
                            .parse()
                            .map_err(|e| format!("bad address {rest}: {e}"))?;
                    }
                }
            }
        };
        // Keep draining so the server never blocks on a full pipe.
        let drain = std::thread::spawn(move || {
            let mut sink = String::new();
            while matches!(stderr.read_line(&mut sink), Ok(n) if n > 0) {
                sink.clear();
            }
        });
        Ok(ServerProc {
            child,
            addr,
            stderr: Some(drain),
        })
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        if let Some(t) = self.stderr.take() {
            let _ = t.join();
        }
    }
}

/// One protocol connection.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    buf: Vec<u8>,
}

impl Conn {
    pub fn connect(addr: SocketAddr) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::new(stream),
            writer,
            buf: Vec::new(),
        })
    }

    /// Sends one line and returns the reply, without its newline.
    pub fn send(&mut self, line: &str) -> Result<String, String> {
        self.buf.clear();
        self.buf.extend_from_slice(line.as_bytes());
        self.buf.push(b'\n');
        self.writer
            .write_all(&self.buf)
            .map_err(|e| format!("write: {e}"))?;
        self.reply()
    }

    /// Sends several lines in one write, as a pipelining client does, and
    /// appends their replies to `replies`.
    pub fn send_all(&mut self, lines: &str, replies: &mut Vec<String>) -> Result<(), String> {
        self.writer
            .write_all(lines.as_bytes())
            .map_err(|e| format!("write: {e}"))?;
        for _ in 0..lines.matches('\n').count() {
            replies.push(self.reply()?);
        }
        Ok(())
    }

    /// Reads the next reply, skipping out-of-band `EVENT` lines (the
    /// completion notices of background retrains).
    fn reply(&mut self) -> Result<String, String> {
        loop {
            let mut reply = String::new();
            match self.reader.read_line(&mut reply) {
                Ok(0) => return Err("server closed the connection".into()),
                Ok(_) => {}
                Err(e) => return Err(format!("read: {e}")),
            }
            let reply = reply.trim_end().to_string();
            if !reply.starts_with("EVENT ") {
                return Ok(reply);
            }
        }
    }

    /// Ends the session and waits until the server has closed the
    /// connection, which it does after its last write for the session.
    pub fn close(mut self) {
        if self.send("QUIT").is_ok() {
            let mut rest = Vec::new();
            let _ = std::io::Read::read_to_end(&mut self.reader, &mut rest);
        }
    }

    /// Sends a line whose reply must start with `OK`.
    pub fn expect_ok(&mut self, line: &str) -> Result<String, String> {
        let reply = self.send(line)?;
        if reply.starts_with("OK") {
            Ok(reply)
        } else {
            let head: String = line.chars().take(24).collect();
            Err(format!("`{head}…` answered `{reply}`"))
        }
    }
}

/// The value of `key=` in a `STATUS` reply.
pub fn status_field(status: &str, key: &str) -> Result<u64, String> {
    status
        .split_whitespace()
        .find_map(|f| f.strip_prefix(key)?.strip_prefix('='))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("STATUS has no numeric {key}: {status}"))
}
