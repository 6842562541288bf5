//! In-memory spans around the harness's calls into each layer.
//!
//! A span is recorded at each layer boundary — name, start, end, the
//! span that caused it, the 4 096-line block it belongs to — together
//! with the allocation count over the same interval, so ratios are
//! measured where the work happens. Spans stay in memory and are
//! written out once, when the run ends. Nothing inside `crates/` is
//! instrumented: every span wraps a call made from `layers.rs`.

use std::fmt::Write as _;
use std::ops::Range;
use std::path::Path;
use std::time::Instant;

use crate::alloc;

/// Identifies a span within its [`Tracer`].
pub type SpanId = u32;

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    /// Spans of one block of lines share this identifier.
    pub block: u32,
    /// Allocation calls between start and end (process-wide).
    pub allocs: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer with room for `capacity` spans, so recording one inside
    /// a measured interval does not itself allocate.
    pub fn with_capacity(capacity: usize) -> Self {
        Self {
            origin: Instant::now(),
            spans: Vec::with_capacity(capacity),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, name: &'static str, parent: Option<SpanId>, block: u32) -> SpanId {
        let id = self.spans.len() as SpanId;
        let now = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            block,
            allocs: alloc::allocations(),
        });
        id
    }

    /// Closes a span opened by [`begin`](Self::begin).
    pub fn end(&mut self, id: SpanId) {
        let now = self.now_ns();
        let allocations = alloc::allocations();
        let span = &mut self.spans[id as usize];
        span.end_ns = now;
        span.allocs = allocations - span.allocs;
    }

    /// Runs `work` inside a span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        block: u32,
        work: impl FnOnce() -> R,
    ) -> R {
        let id = self.begin(name, parent, block);
        let result = work();
        self.end(id);
        result
    }

    /// How many spans have been recorded — a mark to sum from later.
    pub fn mark(&self) -> usize {
        self.spans.len()
    }

    /// Total duration and allocations of the spans called `name` among
    /// those recorded at positions `range`.
    pub fn total(&self, name: &str, range: Range<usize>) -> (u64, u64) {
        self.spans[range]
            .iter()
            .filter(|s| s.name == name)
            .fold((0, 0), |(ns, allocs), s| {
                (ns + s.duration_ns(), allocs + s.allocs)
            })
    }

    /// A span's self time: its duration minus the part of that interval
    /// its child spans cover (overlapping children are not counted twice).
    pub fn self_ns(&self, id: SpanId) -> u64 {
        let span = &self.spans[id as usize];
        let mut children: Vec<(u64, u64)> = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(|s| (s.start_ns.max(span.start_ns), s.end_ns.min(span.end_ns)))
            .filter(|(start, end)| end > start)
            .collect();
        children.sort_unstable();
        let mut covered = 0u64;
        let mut reach = span.start_ns;
        for (start, end) in children {
            let start = start.max(reach);
            if end > start {
                covered += end - start;
                reach = end;
            }
        }
        span.duration_ns() - covered
    }

    /// Total self time of the spans called `name`.
    pub fn total_self_ns(&self, name: &str) -> u64 {
        (0..self.spans.len() as SpanId)
            .filter(|&id| self.spans[id as usize].name == name)
            .map(|id| self.self_ns(id))
            .sum()
    }

    /// Writes every span as one JSON document.
    pub fn write_json(&self, path: &Path, workload: &str, seed: u64) -> std::io::Result<()> {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        let _ = write!(
            out,
            "{{\"workload\":\"{workload}\",\"seed\":{seed},\"unit\":\"ns\",\"spans\":["
        );
        for (id, span) in self.spans.iter().enumerate() {
            if id > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n{{\"id\":{id},\"name\":\"{}\",\"start\":{},\"end\":{},\"parent\":",
                span.name, span.start_ns, span.end_ns
            );
            match span.parent {
                Some(parent) => {
                    let _ = write!(out, "{parent}");
                }
                None => out.push_str("null"),
            }
            let _ = write!(
                out,
                ",\"block\":{},\"allocs\":{}}}",
                span.block, span.allocs
            );
        }
        out.push_str("\n]}\n");
        std::fs::write(path, out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tracer_with(spans: &[(&'static str, u64, u64, Option<SpanId>)]) -> Tracer {
        let mut tracer = Tracer::with_capacity(spans.len());
        for &(name, start_ns, end_ns, parent) in spans {
            tracer.spans.push(Span {
                name,
                start_ns,
                end_ns,
                parent,
                block: 0,
                allocs: 0,
            });
        }
        tracer
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        let tracer = tracer_with(&[
            ("block", 100, 1_100, None),
            ("parse", 100, 400, Some(0)),
            ("detect", 500, 900, Some(0)),
            ("inner", 550, 600, Some(2)), // a grandchild covers nothing of the root
        ]);
        assert_eq!(tracer.self_ns(0), 1_000 - 300 - 400);
        assert_eq!(tracer.self_ns(1), 300);
        assert_eq!(tracer.self_ns(2), 400 - 50);
        assert_eq!(tracer.total_self_ns("block"), 300);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_covered_once() {
        let tracer = tracer_with(&[
            ("root", 0, 100, None),
            ("a", 10, 60, Some(0)),
            ("b", 40, 80, Some(0)),  // overlaps `a` on 40..60
            ("c", 90, 150, Some(0)), // overhangs the root's end
            ("d", 20, 30, Some(0)),  // inside `a`
        ]);
        // Cover = 10..80 plus 90..100.
        assert_eq!(tracer.self_ns(0), 100 - 70 - 10);
    }

    #[test]
    fn live_spans_nest_and_sum_by_name() {
        let mut tracer = Tracer::with_capacity(8);
        let root = tracer.begin("block", None, 7);
        let boxed = tracer.span("work", Some(root), 7, || {
            std::hint::black_box(Box::new(5u64))
        });
        tracer.span("work", Some(root), 7, || std::hint::black_box(1 + 1));
        tracer.end(root);
        assert_eq!(*boxed, 5);
        let (work_ns, work_allocs) = tracer.total("work", 0..tracer.mark());
        assert!(work_allocs >= 1, "the boxed value was counted");
        let root_span = &tracer.spans[root as usize];
        assert!(root_span.duration_ns() >= work_ns);
        assert_eq!(tracer.self_ns(root), root_span.duration_ns() - work_ns);
        assert_eq!(tracer.total("work", 0..1), (0, 0));
    }
}
