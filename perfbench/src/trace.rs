//! Spans recorded by the benchmark around each call into the server:
//! name, start, end, and the span that caused it. The log is kept in
//! memory and written out once the run ends.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub start: Instant,
    pub end: Instant,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end - self.start
    }
}

/// The run's span log. With tracing off nothing is stored.
pub struct Spans {
    on: bool,
    next: u64,
    pub list: Vec<Span>,
}

impl Spans {
    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            next: 0,
            list: Vec::new(),
        }
    }

    /// Records a span and returns its id (0 when tracing is off, which is
    /// also the parent id of a root span).
    pub fn record(&mut self, name: &'static str, parent: u64, start: Instant, end: Instant) -> u64 {
        if !self.on {
            return 0;
        }
        self.next += 1;
        let id = self.next;
        self.list.push(Span {
            name,
            id,
            parent,
            start,
            end,
        });
        id
    }

    /// Sets the end of a span recorded before it finished.
    pub fn end(&mut self, id: u64, end: Instant) {
        if let Some(s) = self.list.iter_mut().rev().find(|s| s.id == id) {
            s.end = end;
        }
    }
}

/// Writes spans as JSON lines, times in microseconds since `origin`.
pub fn write(path: &Path, origin: Instant, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        writeln!(
            out,
            r#"{{"name":"{}","id":{},"parent":{},"start_us":{:.1},"end_us":{:.1}}}"#,
            s.name,
            s.id,
            s.parent,
            (s.start - origin).as_secs_f64() * 1e6,
            (s.end - origin).as_secs_f64() * 1e6,
        )?;
    }
    out.flush()
}
