//! In-memory spans around the calls into each layer.
//!
//! A span is (name, start, end, parent, session, query). The traced run
//! opens one at every layer boundary of the Figure-2 timeline, keeps them
//! in memory, and writes them out when the run ends. A span's self time is
//! its duration minus the part its direct children cover; the tracer keeps
//! both per span so the layer budget can be summed per query.

use std::io::Write;
use std::time::Instant;

/// The layer boundaries the traced replica crosses. `Serve` and `Window`
/// are the replica's two phases of one query (what `Session::serve_observe`
/// and `Session::finish_window` do inside the engine); the rest are calls
/// into one layer's public functions. The two `*Replay` spans sit outside
/// any query: they re-run one layer's work in isolation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Name {
    Serve,
    Window,
    RangeQuery,
    DRef,
    ServeLoop,
    Observe,
    Plan,
    PagesInRegion,
    WindowLoop,
    GeometryReplay,
    GraphReplay,
}

impl Name {
    const COUNT: usize = 11;

    /// The layer-qualified name written to the trace file.
    pub fn label(self) -> &'static str {
        match self {
            Name::Serve => "replica.serve",
            Name::Window => "replica.window",
            Name::RangeQuery => "index.range_query",
            Name::DRef => "storage.d_ref",
            Name::ServeLoop => "storage.serve_loop",
            Name::Observe => "core.observe",
            Name::Plan => "core.plan",
            Name::PagesInRegion => "index.pages_in_region",
            Name::WindowLoop => "storage.window_loop",
            Name::GeometryReplay => "geometry.replay",
            Name::GraphReplay => "core.graph_replay",
        }
    }
}

const NO_SPAN: u32 = u32::MAX;

struct Span {
    name: Name,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
    session: u32,
    query: u32,
}

struct Frame {
    name: Name,
    start: Instant,
    child_us: f64,
    kept: u32,
}

pub struct Tracer {
    origin: Instant,
    /// Duration of every closed span, µs, by name, in closing order.
    durations: [Vec<f64>; Name::COUNT],
    /// µs of each of those spans covered by its direct children.
    children: [Vec<f64>; Name::COUNT],
    /// The spans written to the trace file (a sample on fleet workloads:
    /// two million spans would only measure the tracer).
    spans: Vec<Span>,
    stack: Vec<Frame>,
    session: u32,
    query: u32,
    keep: bool,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            durations: Default::default(),
            children: Default::default(),
            spans: Vec::new(),
            stack: Vec::with_capacity(8),
            session: 0,
            query: 0,
            keep: true,
        }
    }

    /// Sets the request the following spans belong to, and whether they go
    /// to the trace file. Durations are recorded either way.
    pub fn context(&mut self, session: usize, query: usize, keep: bool) {
        self.session = session as u32;
        self.query = query as u32;
        self.keep = keep;
    }

    pub fn open(&mut self, name: Name) {
        let kept = if self.keep {
            let parent = self.stack.last().map_or(NO_SPAN, |f| f.kept);
            self.spans.push(Span {
                name,
                start_ns: 0,
                end_ns: 0,
                parent,
                session: self.session,
                query: self.query,
            });
            (self.spans.len() - 1) as u32
        } else {
            NO_SPAN
        };
        // The clock is read last on open and first on close, so the
        // tracer's own bookkeeping lands in the parent's self time.
        self.stack.push(Frame { name, start: Instant::now(), child_us: 0.0, kept });
    }

    pub fn close(&mut self) {
        let end = Instant::now();
        let frame = self.stack.pop().expect("close without an open span");
        let us = (end - frame.start).as_secs_f64() * 1e6;
        self.durations[frame.name as usize].push(us);
        self.children[frame.name as usize].push(frame.child_us);
        if let Some(parent) = self.stack.last_mut() {
            parent.child_us += us;
        }
        if frame.kept != NO_SPAN {
            let span = &mut self.spans[frame.kept as usize];
            span.start_ns = (frame.start - self.origin).as_nanos() as u64;
            span.end_ns = (end - self.origin).as_nanos() as u64;
        }
    }

    pub fn durations(&self, name: Name) -> &[f64] {
        &self.durations[name as usize]
    }

    /// Per span of `name`, the µs its direct children cover.
    pub fn children(&self, name: Name) -> &[f64] {
        &self.children[name as usize]
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// One JSON object per kept span; `id` is the line's ordinal and
    /// `parent` the id of the span that caused it (null at a root).
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            let parent =
                if s.parent == NO_SPAN { "null".to_string() } else { s.parent.to_string() };
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\
                 \"session\":{},\"query\":{}}}",
                s.name.label(),
                s.start_ns,
                s.end_ns,
                s.session,
                s.query
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn children_and_parents_are_recorded() {
        let mut tr = Tracer::new();
        tr.context(3, 7, true);
        tr.open(Name::Serve);
        tr.open(Name::RangeQuery);
        tr.close();
        tr.open(Name::Observe);
        tr.close();
        tr.close();
        assert_eq!(tr.durations(Name::Serve).len(), 1);
        let covered = tr.children(Name::Serve)[0];
        let expected = tr.durations(Name::RangeQuery)[0] + tr.durations(Name::Observe)[0];
        assert!((covered - expected).abs() < 1e-9);
        assert!(tr.durations(Name::Serve)[0] >= covered);

        let mut out = Vec::new();
        tr.write_jsonl(&mut out).unwrap();
        let text = String::from_utf8(out).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(
            lines[0].contains("\"name\":\"replica.serve\"") && lines[0].contains("\"parent\":null")
        );
        assert!(lines[1].contains("\"parent\":0") && lines[1].contains("\"query\":7"));
    }

    #[test]
    fn unkept_spans_still_count() {
        let mut tr = Tracer::new();
        tr.context(0, 0, false);
        tr.open(Name::Plan);
        tr.close();
        assert_eq!(tr.durations(Name::Plan).len(), 1);
        assert_eq!(tr.span_count(), 0);
    }
}
