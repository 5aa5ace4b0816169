//! Named wall-clock spans. A [`span`] guard measures from construction to
//! drop, records the duration into the metrics registry (histogram
//! `span.<kind>`), and — when a sink is installed — emits one JSONL line
//! `{"ts":..,"span":<kind>,"name":<name>,"secs":..}` at close.

use std::time::Instant;

use crate::{metrics, sink};

/// A running span; closes (records + emits) on drop.
#[derive(Debug)]
#[must_use = "a span measures until dropped; binding it to _ closes it immediately"]
pub struct Span {
    kind: &'static str,
    name: String,
    start: Instant,
    extra: Vec<(&'static str, f64)>,
}

impl Span {
    /// Attach a numeric field to the closing line (also useful to carry
    /// sizes: rows, files, candidates).
    pub fn field(&mut self, key: &'static str, v: f64) {
        self.extra.push((key, v));
    }

    /// Elapsed seconds so far.
    pub fn elapsed_secs(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

impl Drop for Span {
    fn drop(&mut self) {
        let secs = self.elapsed_secs();
        metrics::record(&format!("span.{}", self.kind), secs);
        if sink::enabled() {
            let mut e = sink::Event::span(self.kind, &self.name).num("secs", secs);
            for &(key, v) in &self.extra {
                e = e.num(key, v);
            }
            e.emit();
        }
    }
}

/// Open a span of the given kind over a named instance (a file, a stage, a
/// method). Hold the guard for the duration of the work:
///
/// ```
/// {
///     let _span = metam_obs::span("prepare.profiles", "demo");
///     // ... work ...
/// } // closes here: histogram updated, line emitted if tracing
/// ```
pub fn span(kind: &'static str, name: impl Into<String>) -> Span {
    Span {
        kind,
        name: name.into(),
        start: Instant::now(),
        extra: Vec::new(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sink::test_support::SINK_TESTS;
    use std::sync::PoisonError;

    #[test]
    fn spans_record_into_the_registry() {
        // Dropping the span emits a line if another test has a sink installed.
        let _guard = SINK_TESTS.lock().unwrap_or_else(PoisonError::into_inner);
        {
            let mut s = span("test.span.unit", "one");
            s.field("rows", 42.0);
        }
        let snap = metrics::snapshot();
        let h = snap.histogram("span.test.span.unit").expect("recorded");
        assert!(h.count >= 1);
        assert!(h.min >= 0.0);
    }
}
