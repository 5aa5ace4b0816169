//! In-memory spans and samples recorded around calls into the program's
//! public functions. Nothing here reaches inside the program: each span
//! brackets one call made from the benchmark's own code.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::Path;
use std::time::Instant;

use crate::Res;

/// One timed call. Spans of one benchmark operation share `op`.
#[derive(Debug, Clone)]
pub struct Span {
    /// Recorder-unique id.
    pub id: usize,
    /// The operation this span belongs to.
    pub op: usize,
    /// The enclosing span, if any.
    pub parent: Option<usize>,
    /// Layer-qualified name (`lake.scan_warm`, `core.search`, …).
    pub name: &'static str,
    /// Nanoseconds since the run's origin.
    pub start_ns: u64,
    /// Nanoseconds since the run's origin (0 while open).
    pub end_ns: u64,
}

impl Span {
    /// Duration in milliseconds.
    pub fn ms(&self) -> f64 {
        self.end_ns.saturating_sub(self.start_ns) as f64 / 1e6
    }
}

/// Spans plus named numeric samples (counts and per-call timings), kept
/// in memory until the run ends.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    samples: BTreeMap<&'static str, Vec<f64>>,
}

impl Recorder {
    /// An empty recorder; recorders merged later must share `origin`.
    pub fn new(origin: Instant) -> Recorder {
        Recorder {
            origin,
            spans: Vec::new(),
            samples: BTreeMap::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        u64::try_from(self.origin.elapsed().as_nanos()).unwrap_or(u64::MAX)
    }

    /// Open a span; close it with [`end`](Self::end).
    pub fn begin(&mut self, op: usize, parent: Option<usize>, name: &'static str) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            op,
            parent,
            name,
            start_ns,
            end_ns: 0,
        });
        id
    }

    /// Close span `id`.
    pub fn end(&mut self, id: usize) {
        let end_ns = self.now_ns();
        if let Some(span) = self.spans.get_mut(id) {
            span.end_ns = end_ns;
        }
    }

    /// Run `f` inside a span.
    pub fn timed<T>(
        &mut self,
        op: usize,
        parent: Option<usize>,
        name: &'static str,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.begin(op, parent, name);
        let out = f();
        self.end(id);
        out
    }

    /// Record one value of a named sample.
    pub fn sample(&mut self, name: &'static str, value: f64) {
        self.samples.entry(name).or_default().push(value);
    }

    /// Every value recorded under `name`.
    pub fn samples(&self, name: &str) -> &[f64] {
        self.samples.get(name).map_or(&[], Vec::as_slice)
    }

    /// Durations (ms) of every closed span named `name`.
    pub fn durations_ms(&self, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .filter(|s| s.name == name && s.end_ns > 0)
            .map(Span::ms)
            .collect()
    }

    /// Closed spans named `name`.
    pub fn spans_named<'a>(&'a self, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name && s.end_ns > 0)
    }

    /// Summed duration (ms) of the direct children of span `id`.
    pub fn children_ms(&self, id: usize) -> f64 {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(id))
            .map(Span::ms)
            .sum()
    }

    /// Absorb another recorder's spans (ids remapped) and samples.
    pub fn merge(&mut self, other: Recorder) {
        let offset = self.spans.len();
        for mut span in other.spans {
            span.id += offset;
            span.parent = span.parent.map(|p| p + offset);
            self.spans.push(span);
        }
        for (name, values) in other.samples {
            self.samples.entry(name).or_default().extend(values);
        }
    }

    /// Write every span as one JSON line.
    pub fn write_jsonl(&self, path: &Path) -> Res<()> {
        let mut out = String::new();
        for s in &self.spans {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            // Writing into a String cannot fail.
            let _ = writeln!(
                out,
                "{{\"id\":{},\"op\":{},\"parent\":{parent},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.op, s.name, s.start_ns, s.end_ns
            );
        }
        std::fs::write(path, out).map_err(|e| format!("writing {}: {e}", path.display()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_remaps_parents_and_keeps_samples() {
        let origin = Instant::now();
        let mut a = Recorder::new(origin);
        let root = a.begin(0, None, "op");
        a.timed(0, Some(root), "leaf", || ());
        a.end(root);
        let mut b = Recorder::new(origin);
        let root_b = b.begin(1, None, "op");
        b.timed(1, Some(root_b), "leaf", || ());
        b.end(root_b);
        b.sample("x", 2.0);
        a.merge(b);
        assert_eq!(a.durations_ms("leaf").len(), 2);
        let roots: Vec<usize> = a.spans_named("op").map(|s| s.id).collect();
        assert_eq!(roots, vec![0, 2]);
        assert!(a.children_ms(2) >= 0.0);
        assert_eq!(a.spans.iter().filter(|s| s.parent == Some(2)).count(), 1);
        assert_eq!(a.samples("x"), &[2.0]);
    }
}
