//! Spans recorded by the benchmark around its own calls into the program.
//!
//! Each client thread owns a [`Tracer`]; spans stay in memory until the run
//! ends and are then merged, summarised (self time = span minus children)
//! and written as JSON lines. When tracing is off `begin`/`end` do nothing,
//! so the untraced run pays one predictable branch per call site.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Spans reserved per thread when tracing starts (48 bytes each).
const SPANS_RESERVED: usize = 1 << 19;

/// Parent value of a span nothing caused.
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the causing span in the same tracer, or [`NO_PARENT`].
    parent: u32,
    /// Operation the span belongs to; spans of one op share it.
    pub op: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// Handle to an open span; pass it back to [`Tracer::end`].
#[derive(Debug, Clone, Copy)]
pub struct SpanId(u32);

pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A recorder whose clock starts at `epoch` (shared by all threads of a
    /// run so their spans line up).
    pub fn new(on: bool, epoch: Instant) -> Tracer {
        Tracer {
            on,
            epoch,
            spans: Vec::new(),
        }
    }

    /// Switch recording on or off. Switching on reserves room for a whole
    /// phase, so that no span pays for the buffer growing under it.
    pub fn set_on(&mut self, on: bool) {
        if on {
            self.spans.reserve(SPANS_RESERVED);
        }
        self.on = on;
    }

    /// Open a span. `parent` is the span that caused it.
    fn begin(&mut self, name: &'static str, parent: Option<SpanId>, op: u64) -> SpanId {
        if !self.on {
            return SpanId(NO_PARENT);
        }
        let id = self.spans.len() as u32;
        self.spans.push(Span {
            name,
            start_ns: self.epoch.elapsed().as_nanos() as u64,
            end_ns: 0,
            parent: parent.map_or(NO_PARENT, |p| p.0),
            op,
        });
        SpanId(id)
    }

    fn end(&mut self, id: SpanId) {
        if self.on {
            if let Some(span) = self.spans.get_mut(id.0 as usize) {
                span.end_ns = self.epoch.elapsed().as_nanos() as u64;
            }
        }
    }

    /// Open the root span of operation `op`.
    pub fn op(&mut self, name: &'static str, op: u64) -> OpSpan<'_> {
        let root = self.begin(name, None, op);
        OpSpan {
            tracer: self,
            root,
            op,
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// The open root span of one operation; the calls the operation makes are
/// recorded as its children.
pub struct OpSpan<'a> {
    tracer: &'a mut Tracer,
    root: SpanId,
    op: u64,
}

impl OpSpan<'_> {
    /// Run `f` inside a child span.
    pub fn within<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let id = self.tracer.begin(name, Some(self.root), self.op);
        let out = f();
        self.tracer.end(id);
        out
    }

    pub fn finish(self) {
        self.tracer.end(self.root);
    }
}

/// Totals for one span name across a traced phase.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct NameSummary {
    pub count: u64,
    pub total_ns: u64,
    /// Total minus the time covered by direct children.
    pub self_ns: u64,
    pub median_ns: u64,
}

/// What a traced phase recorded, summarised.
#[derive(Debug, Default)]
pub struct TraceSummary {
    pub by_name: BTreeMap<&'static str, NameSummary>,
    pub spans: u64,
    /// Share of `op.*` wall time covered by their child spans.
    pub coverage: f64,
}

impl TraceSummary {
    pub fn median_us(&self, name: &str) -> f64 {
        self.by_name
            .get(name)
            .map_or(0.0, |s| s.median_ns as f64 / 1_000.0)
    }
}

/// Summarise the spans of every thread of a run.
pub fn summarise(tracers: &[Tracer]) -> TraceSummary {
    let mut durations: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    let mut summary = TraceSummary::default();
    let (mut op_ns, mut covered_ns) = (0u64, 0u64);
    for tracer in tracers {
        let spans = tracer.spans();
        // Children never overlap one another (a thread runs one call at a
        // time), so the covered part of a span is the sum of its children.
        let mut child_ns = vec![0u64; spans.len()];
        for span in spans {
            if let Some(slot) = child_ns.get_mut(span.parent as usize) {
                *slot += span.duration_ns();
            }
        }
        for (span, &children) in spans.iter().zip(&child_ns) {
            let entry = summary.by_name.entry(span.name).or_default();
            entry.count += 1;
            entry.total_ns += span.duration_ns();
            entry.self_ns += span.duration_ns().saturating_sub(children);
            durations
                .entry(span.name)
                .or_default()
                .push(span.duration_ns());
            if span.name.starts_with("op.") {
                op_ns += span.duration_ns();
                covered_ns += children.min(span.duration_ns());
            }
        }
        summary.spans += spans.len() as u64;
    }
    for (name, mut values) in durations {
        values.sort_unstable();
        if let Some(entry) = summary.by_name.get_mut(name) {
            entry.median_ns = crate::stats::percentile_sorted(&values, 50.0);
        }
    }
    summary.coverage = if op_ns == 0 {
        0.0
    } else {
        covered_ns as f64 / op_ns as f64
    };
    summary
}

/// Write every span as one JSON object per line: name, start and end in
/// nanoseconds since the run's epoch, the causing span, the op and thread.
pub fn write_jsonl(path: &Path, tracers: &[Tracer]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
    for (thread, tracer) in tracers.iter().enumerate() {
        for (id, span) in tracer.spans().iter().enumerate() {
            let parent = if span.parent == NO_PARENT {
                "null".to_string()
            } else {
                span.parent.to_string()
            };
            writeln!(
                out,
                "{{\"thread\": {thread}, \"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"op\": {}}}",
                span.name, span.start_ns, span.end_ns, span.op
            )?;
        }
    }
    out.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            op: 0,
        }
    }

    #[test]
    fn self_time_is_span_minus_children_and_coverage_is_their_share() {
        let mut tracer = Tracer::new(true, Instant::now());
        tracer.spans = vec![
            span("op.get", 0, 100, NO_PARENT),
            span("core.get_verified", 5, 65, 0),
            span("core.verify_point", 65, 95, 0),
            span("op.get", 100, 200, NO_PARENT),
            span("core.get_verified", 100, 190, 3),
        ];
        let summary = summarise(&[tracer]);
        assert_eq!(summary.spans, 5);
        let op = &summary.by_name["op.get"];
        assert_eq!((op.count, op.total_ns, op.self_ns), (2, 200, 20));
        let call = &summary.by_name["core.get_verified"];
        assert_eq!((call.count, call.total_ns, call.self_ns), (2, 150, 150));
        assert_eq!(call.median_ns, 60);
        assert!((summary.coverage - 0.9).abs() < 1e-9);
    }

    #[test]
    fn a_tracer_that_is_off_records_nothing() {
        let mut tracer = Tracer::new(false, Instant::now());
        let mut span = tracer.op("op.get", 1);
        assert_eq!(span.within("core.get", || 7), 7);
        span.finish();
        assert!(tracer.spans().is_empty());
        tracer.set_on(true);
        let mut span = tracer.op("op.get", 2);
        span.within("core.get", || ());
        span.finish();
        assert_eq!(tracer.spans().len(), 2);
        assert_eq!(tracer.spans()[1].parent, 0);
        assert!(tracer.spans()[0].end_ns >= tracer.spans()[1].end_ns);
    }
}
