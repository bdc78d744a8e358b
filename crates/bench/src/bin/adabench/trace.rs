//! In-memory spans recorded from outside the program, around every call
//! the benchmark makes into a layer. Spans are kept in memory and
//! written as JSON lines when the run ends; a span's self time is its
//! duration minus the part its children cover. With tracing off a span
//! costs one branch and reads no clock.

use crate::json;
use std::io::Write;
use std::time::Instant;

#[derive(Clone, Debug, PartialEq)]
pub struct Span {
    /// 1-based; 0 means "no parent".
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub rep: u32,
    /// Calls into the layer this span covers: per-item calls (`push`,
    /// `try_next`) are recorded a generator chunk at a time.
    pub calls: u32,
}

/// An open span; hand it back to [`Tracer::end`].
#[derive(Clone, Copy)]
pub struct Open(u32);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    rep: u32,
}

impl Tracer {
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
            rep: 0,
        }
    }

    /// Spans opened from now on belong to rep `rep`.
    pub fn set_rep(&mut self, rep: u32) {
        self.rep = rep;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn begin(&mut self, name: &'static str) -> Open {
        if !self.on {
            return Open(0);
        }
        let id = self.spans.len() as u32 + 1;
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent: self.stack.last().copied().unwrap_or(0),
            name,
            start_ns,
            end_ns: start_ns,
            rep: self.rep,
            calls: 1,
        });
        self.stack.push(id);
        Open(id)
    }

    /// Closes `open`, which must be the innermost open span.
    pub fn end(&mut self, open: Open) {
        self.end_calls(open, 1);
    }

    /// Closes `open`, recording that it covered `calls` calls.
    pub fn end_calls(&mut self, open: Open, calls: u32) {
        if open.0 == 0 {
            return;
        }
        let end_ns = self.now_ns();
        assert_eq!(self.stack.pop(), Some(open.0), "spans must nest");
        let span = &mut self.spans[open.0 as usize - 1];
        span.end_ns = end_ns;
        span.calls = calls;
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, out: &mut impl Write, workload: &str) -> std::io::Result<()> {
        let workload = json::string(workload);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \
                 \"workload\": {workload}, \"rep\": {}, \"calls\": {}}}",
                s.id,
                s.parent,
                json::string(s.name),
                s.start_ns,
                s.end_ns,
                s.rep,
                s.calls
            )?;
        }
        out.flush()
    }
}

/// Self time of each span, ns: its duration minus its direct children's.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut selfs: Vec<u64> = spans.iter().map(|s| s.end_ns - s.start_ns).collect();
    for s in spans {
        if s.parent != 0 {
            let p = s.parent as usize - 1;
            selfs[p] = selfs[p].saturating_sub(s.end_ns - s.start_ns);
        }
    }
    selfs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(false);
        let a = t.begin("rep");
        t.end(a);
        assert!(t.spans().is_empty());
    }

    #[test]
    fn spans_nest_and_self_time_excludes_children() {
        let mut t = Tracer::new(true);
        t.set_rep(3);
        let rep = t.begin("rep");
        let push = t.begin("push");
        t.end_calls(push, 64);
        let poll = t.begin("try_next");
        t.end(poll);
        t.end(rep);
        let spans = t.spans();
        assert_eq!(spans.len(), 3);
        assert_eq!(
            (spans[0].parent, spans[1].parent, spans[2].parent),
            (0, 1, 1)
        );
        assert_eq!(spans[1].calls, 64);
        assert!(spans.iter().all(|s| s.rep == 3 && s.end_ns >= s.start_ns));
        let selfs = self_times(spans);
        let children =
            (spans[1].end_ns - spans[1].start_ns) + (spans[2].end_ns - spans[2].start_ns);
        assert_eq!(selfs[0], spans[0].end_ns - spans[0].start_ns - children);

        let mut buf = Vec::new();
        t.write_jsonl(&mut buf, "wire \"x\"").unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), 3);
        assert!(text.lines().all(|l| l.starts_with('{') && l.ends_with('}')));
        assert!(text.contains("\"workload\": \"wire \\\"x\\\"\""));
    }
}
