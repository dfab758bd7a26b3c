//! Spans recorded around the benchmark's calls into each layer.
//!
//! A span is `(name, start, end, parent)`.  Spans are kept in memory and
//! written out when the benchmark ends; the per-layer metrics are the
//! median *self time* of the spans of one name, where self time is a span's
//! duration minus the part of its interval that its children cover.  With
//! tracing off, [`Tracer::span`] only runs its closure.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<usize>,
}

#[derive(Debug, Default)]
struct Spans {
    closed: Vec<Span>,
    /// Indexes into `closed` of the spans still open, innermost last; an
    /// open span's slot holds its start time until it closes.
    open: Vec<usize>,
}

/// Records spans when enabled; single-threaded, shared by `&` reference so
/// that nested closures (such as a checkpoint sink) can record too.
#[derive(Debug)]
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: RefCell<Spans>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Tracer {
            enabled,
            origin: Instant::now(),
            spans: RefCell::default(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Runs `f` inside a span named `name` (nested in the innermost open
    /// span) when tracing is on.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        if !self.enabled {
            return f();
        }
        let slot = {
            let mut spans = self.spans.borrow_mut();
            let parent = spans.open.last().copied();
            let start_ns = self.now_ns();
            spans.closed.push(Span {
                name,
                start_ns,
                end_ns: start_ns,
                parent,
            });
            let slot = spans.closed.len() - 1;
            spans.open.push(slot);
            slot
        };
        let out = f();
        let end_ns = self.now_ns();
        let mut spans = self.spans.borrow_mut();
        spans.closed[slot].end_ns = end_ns;
        spans.open.pop();
        out
    }

    /// Every span recorded so far, in start order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.borrow().closed.clone()
    }

    /// Self time in seconds of every span named `name`, in start order.
    pub fn self_times_s(&self, name: &str) -> Vec<f64> {
        let spans = self.spans();
        let self_ns = self_times_ns(&spans);
        spans
            .iter()
            .zip(self_ns)
            .filter(|(span, _)| span.name == name)
            .map(|(_, ns)| ns as f64 * 1e-9)
            .collect()
    }

    /// Duration in seconds of every span named `name`, in start order.
    pub fn durations_s(&self, name: &str) -> Vec<f64> {
        self.spans()
            .iter()
            .filter(|span| span.name == name)
            .map(|span| (span.end_ns - span.start_ns) as f64 * 1e-9)
            .collect()
    }

    /// The spans as JSON lines.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for (id, span) in self.spans().iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent}}}",
                span.name, span.start_ns, span.end_ns
            );
        }
        out
    }
}

/// Self time of each span: its duration minus the union of its direct
/// children's intervals, clipped to its own interval.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start_ns, span.end_ns));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start_ns;
            for (start, end) in kids {
                let start = start.clamp(reach, span.end_ns);
                let end = end.clamp(start, span.end_ns);
                covered += end - start;
                reach = reach.max(end);
            }
            span.end_ns.saturating_sub(span.start_ns) - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children_clipped_to_the_parent() {
        let spans = [
            span("cycle", 0, 100, None),
            span("load", 10, 30, Some(0)),
            // Overlaps the first child: the overlap counts once.
            span("decode", 20, 40, Some(0)),
            // Runs past the parent's end: only the part inside counts.
            span("run", 90, 120, Some(0)),
            span("inner", 92, 95, Some(3)),
        ];
        assert_eq!(self_times_ns(&spans), vec![100 - 30 - 10, 20, 20, 27, 3]);
    }

    #[test]
    fn a_span_without_children_keeps_its_whole_duration() {
        assert_eq!(self_times_ns(&[span("leaf", 5, 17, None)]), vec![12]);
    }

    #[test]
    fn nested_spans_record_their_parent_and_grandchildren_do_not_count_twice() {
        let tracer = Tracer::new(true);
        tracer.span("outer", || {
            tracer.span("middle", || {
                tracer.span("inner", || std::hint::black_box(1))
            })
        });
        let spans = tracer.spans();
        let parents: Vec<_> = spans.iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(
            parents,
            vec![("outer", None), ("middle", Some(0)), ("inner", Some(1))]
        );
        let self_ns = self_times_ns(&spans);
        let duration = |i: usize| spans[i].end_ns - spans[i].start_ns;
        assert_eq!(self_ns[0], duration(0) - duration(1));
        assert_eq!(self_ns[1], duration(1) - duration(2));
    }

    #[test]
    fn a_disabled_tracer_records_nothing() {
        let tracer = Tracer::new(false);
        assert_eq!(tracer.span("x", || 7), 7);
        assert!(tracer.spans().is_empty());
    }
}
