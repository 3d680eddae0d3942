//! In-memory span recorder for the traced runs.
//!
//! A span is `(name, start, end, parent, request)`, recorded by the
//! benchmark around one call into a crate's public API. Spans stay in
//! memory and are written out once, when the run ends; a layer's self
//! time is its duration minus the part of it covered by child spans.

use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// Index of a recorded span (its parent link).
pub type SpanId = usize;

/// One recorded span, times in nanoseconds since the tracer started.
#[derive(Debug, Clone, Serialize)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub parent: Option<SpanId>,
    pub request: u64,
}

/// Thread-safe span recorder. A span is reserved when it opens (so
/// children can name it as parent) and closed when its call returns.
#[derive(Debug)]
pub struct Tracer {
    origin: Instant,
    spans: Mutex<Vec<Span>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer::new()
    }
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Mutex::new(Vec::new()),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span named `name`; `f` receives the span's id so
    /// nested calls can record children.
    pub fn span<T>(
        &self,
        name: &'static str,
        parent: Option<SpanId>,
        request: u64,
        f: impl FnOnce(SpanId) -> T,
    ) -> T {
        let id = {
            let mut spans = self.spans.lock().expect("span list");
            spans.push(Span {
                name,
                start_ns: self.now_ns(),
                end_ns: 0,
                parent,
                request,
            });
            spans.len() - 1
        };
        let out = f(id);
        let end = self.now_ns();
        self.spans.lock().expect("span list")[id].end_ns = end;
        out
    }

    /// Records an already-measured span (e.g. a request timed by a
    /// client thread).
    pub fn record(&self, name: &'static str, start: Instant, end: Instant, request: u64) {
        let ns = |t: Instant| t.saturating_duration_since(self.origin).as_nanos() as u64;
        self.spans.lock().expect("span list").push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            parent: None,
            request,
        });
    }

    /// Every recorded span, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.spans.lock().expect("span list").clone()
    }

    /// Per span name: total duration and total self time, in ns.
    pub fn summary(&self) -> BTreeMap<&'static str, LayerTotals> {
        summarize(&self.spans())
    }

    /// Median duration of the spans named `name`, in ms (0 when none).
    pub fn median_ms(&self, name: &str) -> f64 {
        let durations: Vec<f64> = self
            .spans()
            .iter()
            .filter(|s| s.name == name)
            .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
            .collect();
        crate::stats::median(&durations).unwrap_or(0.0)
    }

    /// Writes every span as JSON to `path`.
    pub fn write(&self, path: &std::path::Path) -> std::io::Result<()> {
        let json = serde_json::to_string(&self.spans()).expect("spans serialize");
        std::fs::write(path, json)
    }
}

/// Aggregates over all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct LayerTotals {
    pub total_ns: u64,
    pub self_ns: u64,
}

impl LayerTotals {
    pub fn self_ms(&self) -> f64 {
        self.self_ns as f64 / 1e6
    }
}

/// Self time of every span: its duration minus the union of its
/// children's intervals (clipped to the parent; overlapping children,
/// e.g. concurrent ones, are counted once).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(p) = s.parent {
            children[p].push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut cursor = s.start_ns;
            for &(a, b) in kids.iter() {
                let a = a.max(cursor);
                let b = b.min(s.end_ns);
                if b > a {
                    covered += b - a;
                    cursor = b;
                }
            }
            (s.end_ns - s.start_ns).saturating_sub(covered)
        })
        .collect()
}

/// Per-name totals over a span list (see [`Tracer::summary`]).
pub fn summarize(spans: &[Span]) -> BTreeMap<&'static str, LayerTotals> {
    let mut out: BTreeMap<&'static str, LayerTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let t = out.entry(s.name).or_default();
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns: start,
            end_ns: end,
            parent,
            request: 0,
        }
    }

    #[test]
    fn self_time_subtracts_children_once() {
        let spans = vec![
            span("chip", 0, 100, None),
            span("atpg", 10, 40, Some(0)),
            span("dict", 50, 90, Some(0)),
            // Overlaps its sibling and sticks out past the parent.
            span("dict", 80, 120, Some(0)),
            span("podem", 15, 25, Some(1)),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 40, 40, 10]);
        let totals = summarize(&spans);
        assert_eq!(totals["dict"].total_ns, 80);
        assert_eq!(totals["chip"].self_ns, 20);
    }

    #[test]
    fn tracer_nests_spans_through_parent_ids() {
        let tracer = Tracer::new();
        tracer.span("outer", None, 7, |outer| {
            tracer.span("inner", Some(outer), 7, |_| ());
        });
        let spans = tracer.spans();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[1].parent, Some(0));
        assert!(spans
            .iter()
            .all(|s| s.end_ns >= s.start_ns && s.request == 7));
        let totals = tracer.summary();
        assert!(totals["outer"].self_ns <= totals["outer"].total_ns);
    }
}
