//! The harness's own in-memory spans: one root span per operation and one
//! child span per call the workload makes into a product layer. Spans are
//! kept in memory and written as JSON lines when the traced run ends.

use std::io::{BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// One recorded span. Times are host nanoseconds since the recorder's
/// epoch; `op` is shared by every span of one operation; a root span has
/// `parent == 0`, a layer call has the root's `id` as parent.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub id: u64,
    pub parent: u64,
    pub op: u64,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Span recorder. Off (the untraced run) it only forwards calls.
pub struct Spans {
    on: bool,
    epoch: Instant,
    /// Id of the root span of the operation in progress.
    root: u64,
    op: u64,
    pub rows: Vec<Span>,
}

impl Spans {
    /// A recorder that records nothing.
    pub fn off() -> Spans {
        Spans::new(false)
    }

    pub fn new(on: bool) -> Spans {
        Spans {
            on,
            epoch: Instant::now(),
            root: 0,
            op: 0,
            rows: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Run `f`, a call into a product layer, as a child span of the current
    /// operation.
    #[inline]
    pub fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.on {
            return f();
        }
        let start_ns = self.now_ns();
        let out = f();
        let end_ns = self.now_ns();
        self.rows.push(Span {
            id: self.rows.len() as u64 + 1,
            parent: self.root,
            op: self.op,
            name,
            start_ns,
            end_ns,
        });
        out
    }

    /// Run `f`, one whole operation, as a root span named `name`.
    #[inline]
    pub fn operation<T>(&mut self, name: &'static str, f: impl FnOnce(&mut Spans) -> T) -> T {
        if !self.on {
            return f(self);
        }
        self.op += 1;
        let at = self.rows.len();
        self.root = at as u64 + 1;
        self.rows.push(Span {
            id: self.root,
            parent: 0,
            op: self.op,
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
        });
        let out = f(self);
        self.rows[at].end_ns = self.now_ns();
        self.root = 0;
        out
    }

    /// Write every span as one JSON object per line.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for s in &self.rows {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"op\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.op, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}
