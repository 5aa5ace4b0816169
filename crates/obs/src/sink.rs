//! The JSONL event sink: where trace lines go, if anywhere.
//!
//! The sink is process-global and off by default; every emission site
//! guards with the single-atomic-load [`enabled`] check, so an
//! uninstrumented run pays one relaxed load per potential event and
//! nothing else. Install a sink explicitly ([`install_file`],
//! [`install_stderr`], [`install_writer`]) or from the environment
//! ([`init_from_env`] reads `METAM_TRACE=<path|stderr>`).
//!
//! Every line is one complete JSON object carrying at least:
//!
//! * `ts` — seconds since the first observability call in this process,
//! * `span` *or* `event` — the line's kind (a span closes with a `secs`
//!   duration; an event is a point occurrence),
//! * `name` — the instance within the kind (file name, stage, query kind).
//!
//! Lines are written atomically under a mutex, so concurrent scan workers
//! interleave whole events, never bytes.

use std::fs::File;
use std::io::Write;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};
use std::time::Instant;

use crate::json;

static ENABLED: AtomicBool = AtomicBool::new(false);

fn sink() -> &'static Mutex<Option<Box<dyn Write + Send>>> {
    static SINK: OnceLock<Mutex<Option<Box<dyn Write + Send>>>> = OnceLock::new();
    SINK.get_or_init(|| Mutex::new(None))
}

fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// Seconds since the first observability call in this process (the `ts`
/// field of every trace line).
pub fn now_secs() -> f64 {
    epoch().elapsed().as_secs_f64()
}

/// `true` when a trace sink is installed. The hot-path guard: emission
/// sites check this before building an event.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Install an arbitrary writer as the trace sink (tests, in-memory
/// buffers, sockets).
pub fn install_writer(writer: Box<dyn Write + Send>) {
    let _ = epoch(); // pin ts=0 to installation at the latest
    *sink().lock().unwrap_or_else(PoisonError::into_inner) = Some(writer);
    ENABLED.store(true, Ordering::Relaxed);
}

/// Install a line-buffered file sink at `path` (truncates).
pub fn install_file(path: impl AsRef<Path>) -> std::io::Result<()> {
    let file = File::create(path)?;
    install_writer(Box::new(file));
    Ok(())
}

/// Install a sink that writes trace lines to stderr.
pub fn install_stderr() {
    install_writer(Box::new(std::io::stderr()));
}

/// Remove the sink (flushes first). Subsequent events are dropped at the
/// [`enabled`] guard.
pub fn disable() {
    ENABLED.store(false, Ordering::Relaxed);
    let mut guard = sink().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(w) = guard.as_mut() {
        let _ = w.flush();
    }
    *guard = None;
}

/// Install a sink from `METAM_TRACE`: unset/empty → disabled, `stderr` →
/// stderr, anything else → a file path. Returns whether a sink was
/// installed; a path that cannot be created reports the error on stderr
/// and leaves tracing off (observability must never fail the run).
pub fn init_from_env() -> bool {
    match std::env::var("METAM_TRACE") {
        Ok(v) if v == "stderr" => {
            install_stderr();
            true
        }
        Ok(v) if !v.trim().is_empty() => match install_file(&v) {
            Ok(()) => true,
            Err(e) => {
                eprintln!("warning: METAM_TRACE={v}: {e}; tracing disabled");
                false
            }
        },
        _ => false,
    }
}

/// Flush the sink (file sinks buffer in the OS; tests and CLI exits call
/// this to make the trace readable immediately).
pub fn flush() {
    if !enabled() {
        return;
    }
    if let Some(w) = sink()
        .lock()
        .unwrap_or_else(PoisonError::into_inner)
        .as_mut()
    {
        let _ = w.flush();
    }
}

fn write_line(line: &str) {
    let mut guard = sink().lock().unwrap_or_else(PoisonError::into_inner);
    if let Some(w) = guard.as_mut() {
        let _ = writeln!(w, "{line}");
    }
}

/// Builder for one trace line. Constructing one stamps `ts` and the
/// kind/name header; chain typed fields, then [`emit`](Event::emit):
///
/// ```
/// if metam_obs::enabled() {
///     metam_obs::Event::event("query", "sequential")
///         .int("queries", 3)
///         .num("utility", 0.71)
///         .emit();
/// }
/// ```
#[derive(Debug)]
pub struct Event {
    buf: String,
}

impl Event {
    fn header(kind_key: &str, kind: &str, name: &str) -> Event {
        let mut buf = String::with_capacity(96);
        buf.push_str("{\"ts\":");
        json::write_f64(&mut buf, now_secs());
        buf.push_str(",\"");
        buf.push_str(kind_key);
        buf.push_str("\":");
        json::write_string(&mut buf, kind);
        buf.push_str(",\"name\":");
        json::write_string(&mut buf, name);
        Event { buf }
    }

    /// A point event line: `{"ts":..,"event":<kind>,"name":<name>,...}`.
    #[allow(clippy::self_named_constructors)] // deliberate symmetry with `Event::span`
    pub fn event(kind: &str, name: &str) -> Event {
        Event::header("event", kind, name)
    }

    /// A closed-span line: `{"ts":..,"span":<kind>,"name":<name>,...}`.
    pub fn span(kind: &str, name: &str) -> Event {
        Event::header("span", kind, name)
    }

    /// Add a float field.
    pub fn num(mut self, key: &str, v: f64) -> Event {
        self.buf.push(',');
        json::write_string(&mut self.buf, key);
        self.buf.push(':');
        json::write_f64(&mut self.buf, v);
        self
    }

    /// Add an integer field. `usize::MAX` encodes as `null` (the
    /// workspace-wide convention for "unbounded").
    pub fn int(mut self, key: &str, v: usize) -> Event {
        self.buf.push(',');
        json::write_string(&mut self.buf, key);
        self.buf.push(':');
        if v == usize::MAX {
            self.buf.push_str("null");
        } else {
            self.buf.push_str(&v.to_string());
        }
        self
    }

    /// Add a string field.
    pub fn str(mut self, key: &str, v: &str) -> Event {
        self.buf.push(',');
        json::write_string(&mut self.buf, key);
        self.buf.push(':');
        json::write_string(&mut self.buf, v);
        self
    }

    /// Add an array-of-integers field.
    pub fn ints(mut self, key: &str, vs: &[usize]) -> Event {
        self.buf.push(',');
        json::write_string(&mut self.buf, key);
        self.buf.push_str(":[");
        for (i, v) in vs.iter().enumerate() {
            if i > 0 {
                self.buf.push(',');
            }
            self.buf.push_str(&v.to_string());
        }
        self.buf.push(']');
        self
    }

    /// Close the object and write the line (dropped when no sink is
    /// installed).
    pub fn emit(mut self) {
        if !enabled() {
            return;
        }
        self.buf.push('}');
        write_line(&self.buf);
    }
}

#[cfg(test)]
pub(crate) mod test_support {
    //! A shareable in-memory sink for tests.

    use std::io::Write;
    use std::sync::{Arc, Mutex, PoisonError};

    /// The sink is process-global; every test that installs a sink or
    /// emits a line holds this lock, so no line lands in another test's
    /// buffer.
    pub(crate) static SINK_TESTS: Mutex<()> = Mutex::new(());

    /// `Write` into an `Arc<Mutex<Vec<u8>>>` the test keeps a clone of.
    #[derive(Debug, Clone, Default)]
    pub struct SharedBuf(pub Arc<Mutex<Vec<u8>>>);

    impl SharedBuf {
        /// The captured bytes as a string.
        pub fn contents(&self) -> String {
            String::from_utf8_lossy(&self.0.lock().unwrap_or_else(PoisonError::into_inner))
                .into_owned()
        }
    }

    impl Write for SharedBuf {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .extend_from_slice(buf);
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::test_support::{SharedBuf, SINK_TESTS};
    use super::*;
    use crate::json::{parse, Value};

    #[test]
    fn events_are_valid_jsonl_with_required_fields() {
        let _guard = SINK_TESTS.lock().unwrap_or_else(PoisonError::into_inner);
        let buf = SharedBuf::default();
        install_writer(Box::new(buf.clone()));
        Event::event("query", "sequential")
            .int("queries", 3)
            .int("remaining", usize::MAX)
            .num("utility", 0.5)
            .ints("set", &[1, 2])
            .str("note", "a\"b")
            .emit();
        Event::span("scan.profile", "trips.csv")
            .num("secs", 0.25)
            .emit();
        disable();

        let text = buf.contents();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        for line in &lines {
            let v = parse(line).expect("every line parses");
            assert!(v.get("ts").and_then(Value::as_f64).is_some());
            assert!(v.get("name").and_then(Value::as_str).is_some());
            assert!(v.get("span").is_some() || v.get("event").is_some());
        }
        let first = parse(lines[0]).unwrap();
        assert_eq!(first.get("remaining"), Some(&Value::Null), "MAX → null");
    }

    #[test]
    fn disabled_sink_drops_events() {
        let _guard = SINK_TESTS.lock().unwrap_or_else(PoisonError::into_inner);
        disable();
        assert!(!enabled());
        // Must not panic or write anywhere.
        Event::event("query", "x").emit();
    }
}
