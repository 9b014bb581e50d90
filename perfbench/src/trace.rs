//! In-memory span recorder for the traced run.
//!
//! Spans are `(name, start, end, parent)` records kept in a `Vec` and
//! reduced to per-name self times after the run. A span's self time is its
//! duration minus the part of its interval covered by its direct children.
//! Spans wrap whole library calls or whole digest walks, never single
//! cycles.

use std::collections::BTreeMap;
use std::time::Instant;

/// One recorded span; times are nanoseconds since the tracer's origin.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start: u64,
    pub end: u64,
    pub parent: Option<usize>,
}

/// Records nested spans on one thread.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Opens a span as a child of the innermost open span.
    pub fn open(&mut self, name: &'static str) -> usize {
        let id = self.spans.len();
        let start = self.now();
        self.spans.push(Span {
            name,
            start,
            end: start,
            parent: self.open.last().copied(),
        });
        self.open.push(id);
        id
    }

    /// Closes the innermost open span, which must be `id`.
    pub fn close(&mut self, id: usize) {
        assert_eq!(self.open.pop(), Some(id), "spans close in LIFO order");
        self.spans[id].end = self.now();
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let id = self.open(name);
        let result = f();
        self.close(id);
        result
    }

    /// Duration of a closed span in nanoseconds.
    pub fn duration(&self, id: usize) -> u64 {
        self.spans[id].end - self.spans[id].start
    }

    /// Attributes a closed span that fuses several layers in one call to
    /// those layers: appends consecutive child spans from the span's start,
    /// child `i` lasting `shares[i]` of the span's duration. The shares come
    /// from calibration probes run outside the traced total.
    pub fn attribute(&mut self, id: usize, shares: &[(&'static str, f64)]) {
        let Span { start, end, .. } = self.spans[id];
        let length = (end - start) as f64;
        let mut at = start;
        for &(name, share) in shares {
            let next = (at + (share.max(0.0) * length) as u64).min(end);
            self.spans.push(Span {
                name,
                start: at,
                end: next,
                parent: Some(id),
            });
            at = next;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }
}

/// Self time of every span, in nanoseconds: its duration minus the union
/// of its direct children's intervals, clipped to its own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for span in spans {
        if let Some(parent) = span.parent {
            children[parent].push((span.start, span.end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(span, mut kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = span.start;
            for (start, end) in kids {
                let start = start.clamp(reach, span.end);
                let end = end.clamp(start, span.end);
                covered += end - start;
                reach = reach.max(end);
            }
            (span.end - span.start) - covered
        })
        .collect()
}

/// Sums self times by span name, in milliseconds.
pub fn self_ms_by_name(spans: &[Span]) -> BTreeMap<&'static str, f64> {
    let mut totals = BTreeMap::new();
    for (span, own) in spans.iter().zip(self_times(spans)) {
        *totals.entry(span.name).or_insert(0.0) += own as f64 / 1e6;
    }
    totals
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: Option<usize>) -> Span {
        Span {
            name,
            start,
            end,
            parent,
        }
    }

    #[test]
    fn self_time_is_span_minus_covered_child_time() {
        let spans = vec![
            span("root", 0, 100, None),
            // Overlapping children count their union once.
            span("a", 10, 30, Some(0)),
            span("b", 20, 50, Some(0)),
            span("c", 60, 70, Some(0)),
            // A child reaching past its parent is clipped to the parent.
            span("d", 90, 120, Some(0)),
            // A grandchild reduces its parent's self time, not the root's.
            span("e", 62, 65, Some(3)),
        ];
        let own = self_times(&spans);
        assert_eq!(own, vec![100 - (40 + 10 + 10), 20, 30, 7, 30, 3]);
        // Self times of a tree of disjoint children inside their parents add
        // up to the root's duration.
        let tree = vec![
            span("root", 0, 100, None),
            span("a", 10, 30, Some(0)),
            span("c", 60, 70, Some(0)),
            span("e", 62, 65, Some(2)),
        ];
        assert_eq!(self_times(&tree).iter().sum::<u64>(), 100);
    }

    #[test]
    fn attributed_children_partition_the_fused_span() {
        let mut tracer = Tracer::new();
        let root = tracer.open("root");
        let fused_id = tracer.open("fused");
        std::thread::sleep(std::time::Duration::from_millis(2));
        tracer.close(fused_id);
        tracer.close(root);
        tracer.attribute(fused_id, &[("x", 0.25), ("y", 0.75)]);
        let by_name = self_ms_by_name(tracer.spans());
        let fused_ms = tracer.duration(fused_id) as f64 / 1e6;
        assert!((by_name["x"] - 0.25 * fused_ms).abs() < 1e-3);
        assert!((by_name["y"] - 0.75 * fused_ms).abs() < 1e-3);
        assert!(by_name["fused"] < 1e-3);
        let total: f64 = by_name.values().sum();
        assert!((total - tracer.duration(root) as f64 / 1e6).abs() < 1e-6);
    }
}
