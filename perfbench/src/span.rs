//! In-memory span recorder for the traced run.
//!
//! A span is one call into a layer, timed from the benchmark's side of the
//! boundary: name, start, end, the span that caused it, and the request it
//! belongs to. Spans stay in memory while the workload runs and are written
//! out once it ends, so recording costs two clock reads and a push.
//!
//! The recorder is single-threaded (`RefCell`): every traced call in this
//! benchmark is made from the thread that drives the workload.

use std::cell::RefCell;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a span in its recorder.
pub type SpanId = usize;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder's epoch.
    pub start: u64,
    pub end: u64,
    pub parent: Option<SpanId>,
    /// Request (or session, or day) the span serves; children share it
    /// with whatever else that request caused.
    pub req: u64,
}

impl Span {
    pub fn nanos(&self) -> u64 {
        self.end.saturating_sub(self.start)
    }
}

pub struct Recorder {
    epoch: Instant,
    spans: RefCell<Vec<Span>>,
}

impl Default for Recorder {
    fn default() -> Self {
        Self::new()
    }
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: RefCell::new(Vec::new()),
        }
    }

    /// Nanoseconds from the recorder's epoch to `at`.
    fn offset(&self, at: Instant) -> u64 {
        u64::try_from(at.saturating_duration_since(self.epoch).as_nanos()).unwrap_or(u64::MAX)
    }

    /// Records a finished span.
    pub fn record(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        start: Instant,
        end: Instant,
    ) -> SpanId {
        self.push(Span {
            name,
            start: self.offset(start),
            end: self.offset(end),
            parent,
            req,
        })
    }

    /// Opens a span now; [`Recorder::close`] sets its end.
    pub fn open(&self, name: &'static str, parent: Option<SpanId>, req: u64) -> SpanId {
        let now = self.offset(Instant::now());
        self.push(Span {
            name,
            start: now,
            end: now,
            parent,
            req,
        })
    }

    pub fn close(&self, id: SpanId) {
        let now = self.offset(Instant::now());
        self.spans.borrow_mut()[id].end = now;
    }

    /// Runs `f` inside a span.
    pub fn time<R>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let start = Instant::now();
        let out = f();
        self.record(name, parent, req, start, Instant::now());
        out
    }

    pub fn push(&self, span: Span) -> SpanId {
        let mut spans = self.spans.borrow_mut();
        spans.push(span);
        spans.len() - 1
    }

    pub fn len(&self) -> usize {
        self.spans.borrow().len()
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().clone()
    }

    /// Self time of every span: its duration minus the part of its interval
    /// that its children cover (overlapping children count once).
    pub fn self_times(&self) -> Vec<u64> {
        let spans = self.spans.borrow();
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
        for s in spans.iter() {
            if let Some(p) = s.parent {
                let parent = &spans[p];
                let (a, b) = (s.start.max(parent.start), s.end.min(parent.end));
                if a < b {
                    children[p].push((a, b));
                }
            }
        }
        spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| s.nanos() - covered(kids))
            .collect()
    }

    /// Summed duration of the spans named `name`, nanoseconds.
    pub fn total(&self, name: &str) -> u64 {
        self.spans
            .borrow()
            .iter()
            .filter(|s| s.name == name)
            .map(Span::nanos)
            .sum()
    }

    /// Summed self time of the spans named `name`, nanoseconds.
    pub fn total_self(&self, name: &str) -> u64 {
        let selfs = self.self_times();
        self.spans
            .borrow()
            .iter()
            .zip(selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, t)| t)
            .sum()
    }

    /// Writes one CSV line per span: `id,name,start_ns,end_ns,parent,req,self_ns`
    /// (`parent` is empty for a root span).
    pub fn write_csv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let selfs = self.self_times();
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id,name,start_ns,end_ns,parent,req,self_ns")?;
        for (i, (s, own)) in self.spans.borrow().iter().zip(selfs).enumerate() {
            let parent = s.parent.map(|p| p.to_string()).unwrap_or_default();
            writeln!(
                out,
                "{i},{},{},{},{parent},{},{own}",
                s.name, s.start, s.end, s.req
            )?;
        }
        out.flush()
    }
}

/// Length of the union of half-open intervals (sorts `intervals`).
fn covered(intervals: &mut [(u64, u64)]) -> u64 {
    intervals.sort_unstable();
    let mut total = 0;
    let mut reach = 0;
    for &(a, b) in intervals.iter() {
        let a = a.max(reach);
        if b > a {
            total += b - a;
            reach = b;
        }
    }
    total
}
