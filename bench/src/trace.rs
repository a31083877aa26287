//! The benchmark's own spans, recorded around its calls into each layer.
//!
//! Spans live in memory and are written out as JSON lines when the run
//! ends. Timing goes through the same `begin`/`end` pair whether or not
//! spans are kept, so a traced and an untraced run execute the same code
//! around every measured call.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
    pub bytes: u64,
}

/// An open span: what `begin` hands out and `end` takes back.
#[derive(Debug)]
pub struct Open {
    start: Instant,
    id: Option<usize>,
}

#[derive(Debug)]
pub struct Tracer {
    recording: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Tracer {
    pub fn new(recording: bool) -> Self {
        Self {
            recording,
            origin: Instant::now(),
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn begin(&mut self, name: &str) -> Open {
        let start = Instant::now();
        let id = self.recording.then(|| {
            let id = self.spans.len();
            self.spans.push(Span {
                id,
                parent: self.stack.last().copied(),
                name: name.to_string(),
                start_ns: (start - self.origin).as_nanos() as u64,
                end_ns: 0,
                bytes: 0,
            });
            self.stack.push(id);
            id
        });
        Open { start, id }
    }

    /// Close a span, returning its duration in seconds.
    pub fn end(&mut self, open: Open, bytes: u64) -> f64 {
        let elapsed = open.start.elapsed();
        if let Some(id) = open.id {
            let popped = self.stack.pop();
            debug_assert_eq!(popped, Some(id), "spans close in LIFO order");
            let span = &mut self.spans[id];
            span.end_ns = span.start_ns + elapsed.as_nanos() as u64;
            span.bytes = bytes;
        }
        elapsed.as_secs_f64()
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"bytes\":{}}}",
                s.id, s.name, s.start_ns, s.end_ns, s.bytes
            )?;
        }
        out.flush()
    }
}

/// Length of the union of `intervals`, each clipped to `[lo, hi]`.
fn covered(mut intervals: Vec<(u64, u64)>, lo: u64, hi: u64) -> u64 {
    intervals.sort_unstable();
    let (mut total, mut reach) = (0, lo);
    for (s, e) in intervals {
        let (s, e) = (s.max(reach), e.min(hi));
        if e > s {
            total += e - s;
            reach = e;
        }
    }
    total
}

/// Self time of every span: its duration minus the part of that interval
/// its direct children cover. Children may overlap each other.
pub fn self_times_ns(spans: &[Span]) -> Vec<u64> {
    let mut children: BTreeMap<usize, Vec<(u64, u64)>> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            children.entry(p).or_default().push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let kids = children.remove(&s.id).unwrap_or_default();
            (s.end_ns - s.start_ns) - covered(kids, s.start_ns, s.end_ns)
        })
        .collect()
}

/// Self time in seconds summed by span name.
pub fn self_seconds_by_name(spans: &[Span]) -> BTreeMap<String, f64> {
    let mut out = BTreeMap::new();
    for (s, ns) in spans.iter().zip(self_times_ns(spans)) {
        *out.entry(s.name.clone()).or_insert(0.0) += ns as f64 / 1e9;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: usize, parent: Option<usize>, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name: format!("s{id}"),
            start_ns,
            end_ns,
            bytes: 0,
        }
    }

    #[test]
    fn self_time_subtracts_nested_children_once() {
        // 0 [0,100] > 1 [10,60] > 2 [20,30]; the grandchild is already
        // inside the child and must not be subtracted from the root again.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 60),
            span(2, Some(1), 20, 30),
        ];
        assert_eq!(self_times_ns(&spans), vec![50, 40, 10]);
    }

    #[test]
    fn self_time_counts_overlapping_children_by_their_union() {
        // Children [10,50] and [30,70] cover [10,70]: 60, not 80.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 50),
            span(2, Some(0), 30, 70),
        ];
        assert_eq!(self_times_ns(&spans)[0], 40);
        // A child running past its parent is clipped to the parent.
        let spans = [span(0, None, 0, 100), span(1, Some(0), 90, 130)];
        assert_eq!(self_times_ns(&spans)[0], 90);
        // One child inside another.
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 90),
            span(2, Some(0), 20, 30),
        ];
        assert_eq!(self_times_ns(&spans)[0], 20);
    }

    #[test]
    fn tracer_nests_and_only_records_when_asked() {
        let mut t = Tracer::new(true);
        let outer = t.begin("outer");
        let inner = t.begin("inner");
        t.end(inner, 7);
        t.end(outer, 0);
        assert_eq!(t.spans()[1].parent, Some(0));
        assert_eq!(t.spans()[1].bytes, 7);
        assert!(t.spans()[0].end_ns >= t.spans()[1].end_ns);

        let mut off = Tracer::new(false);
        let s = off.begin("x");
        assert!(off.end(s, 1) >= 0.0);
        assert!(off.spans().is_empty());
    }
}
