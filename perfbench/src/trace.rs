//! In-memory spans recorded around the benchmark's calls into each
//! layer's public functions, written out when the run ends.
//!
//! A span has a name, a start and an end (ns since the tracer's
//! epoch), an optional parent span, a request id, and an item count
//! (frames, events or points the call processed). A span's self time
//! is its duration minus the part of it its children cover. With
//! tracing off, `begin` reads no clock and records nothing.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

/// Index of a recorded span.
pub type SpanId = usize;

/// One recorded interval.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Layer-qualified name, e.g. `admit.engine.decide`.
    pub name: &'static str,
    /// Start, ns since the tracer's epoch.
    pub start_ns: u64,
    /// End, ns since the tracer's epoch (0 while open).
    pub end_ns: u64,
    /// The span that caused this one.
    pub parent: Option<SpanId>,
    /// Request id shared by the spans of one request (0: none).
    pub req: u64,
    /// Items the call processed.
    pub items: u64,
}

/// Per-name totals over the recorded spans.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct Totals {
    /// Spans with this name.
    pub spans: u64,
    /// Items they processed.
    pub items: u64,
    /// Summed duration, ns.
    pub total_ns: u64,
    /// Summed self time, ns.
    pub self_ns: u64,
}

impl Totals {
    /// Duration per item, ns.
    pub fn ns_per_item(&self) -> Option<f64> {
        (self.items > 0).then(|| self.total_ns as f64 / self.items as f64)
    }
}

/// The span store.
pub struct Tracer {
    on: bool,
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    /// A tracer that records only when `on`.
    pub fn new(on: bool) -> Tracer {
        Tracer {
            on,
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    /// The tracer's epoch (spans recorded from other threads measure
    /// from it).
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; `None` when tracing is off.
    pub fn begin(
        &mut self,
        name: &'static str,
        parent: Option<SpanId>,
        req: u64,
    ) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: 0,
            parent,
            req,
            items: 0,
        });
        Some(self.spans.len() - 1)
    }

    /// Close a span, crediting it with `items` processed.
    pub fn end(&mut self, id: Option<SpanId>, items: u64) {
        if let Some(id) = id {
            let end_ns = self.now_ns();
            let s = &mut self.spans[id];
            s.end_ns = end_ns.max(s.start_ns);
            s.items = items;
        }
    }

    /// Record a finished span measured elsewhere (times relative to
    /// [`Tracer::epoch`]).
    pub fn record(&mut self, span: Span) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        assert!(
            span.end_ns >= span.start_ns,
            "span {} ends before it starts",
            span.name
        );
        self.spans.push(span);
        Some(self.spans.len() - 1)
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals (clipped to the span).
    pub fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                children[p].push((s.start_ns, s.end_ns));
            }
        }
        self.spans
            .iter()
            .zip(children.iter_mut())
            .map(|(s, kids)| {
                kids.sort_unstable();
                let mut covered = 0u64;
                let mut reach = s.start_ns;
                for &(a, b) in kids.iter() {
                    let (a, b) = (a.max(reach), b.min(s.end_ns));
                    if b > a {
                        covered += b - a;
                        reach = b;
                    }
                }
                (s.end_ns - s.start_ns).saturating_sub(covered)
            })
            .collect()
    }

    /// Totals per span name.
    pub fn totals(&self) -> BTreeMap<&'static str, Totals> {
        let self_ns = self.self_times();
        let mut out: BTreeMap<&'static str, Totals> = BTreeMap::new();
        for (s, own) in self.spans.iter().zip(self_ns) {
            let t = out.entry(s.name).or_default();
            t.spans += 1;
            t.items += s.items;
            t.total_ns += s.end_ns - s.start_ns;
            t.self_ns += own;
        }
        out
    }

    /// Every recorded span, in recording order.
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Number of recorded spans.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Write every span as tab-separated text.
    pub fn write_tsv(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(out, "id\tname\tstart_ns\tend_ns\tparent\treq\titems")?;
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or_else(|| "-".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{id}\t{}\t{}\t{}\t{parent}\t{}\t{}",
                s.name, s.start_ns, s.end_ns, s.req, s.items
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start_ns: u64, end_ns: u64, parent: Option<SpanId>) -> Span {
        Span {
            name,
            start_ns,
            end_ns,
            parent,
            req: 0,
            items: 1,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        let mut t = Tracer::new(true);
        let root = t.record(span("root", 0, 100, None));
        // Overlapping children cover 10..50; one pokes past the end.
        t.record(span("a", 10, 40, root));
        t.record(span("b", 30, 50, root));
        t.record(span("c", 90, 120, root));
        let own = t.self_times();
        assert_eq!(own[0], 100 - 40 - 10);
        assert_eq!(&own[1..], &[30, 20, 30]);
        let totals = t.totals();
        assert_eq!(totals["root"].self_ns, 50);
        assert_eq!(totals["a"].total_ns, 30);
    }

    #[test]
    fn an_off_tracer_records_nothing() {
        let mut t = Tracer::new(false);
        let id = t.begin("x", None, 0);
        assert!(id.is_none());
        t.end(id, 5);
        assert!(t.record(span("y", 0, 1, None)).is_none());
        assert_eq!(t.len(), 0);
    }
}
