#![forbid(unsafe_code)]
//! `perfbench`: the end-to-end and per-layer benchmark of `metam
//! discover` and `metam serve`.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload price-discover|howto-discover|serve-ingest \
//!     [--seed N] [--seconds N] [--trace 0|1]
//! ```
//!
//! Each run generates its workload's lake from `--seed` (a
//! `metam::datagen` scenario exported as CSVs under `perfbench/.work/`),
//! measures for `--seconds`, checks every answer against the workload's
//! reference, and prints a context line and then the result line: one
//! JSON object with `correct`, `attempted`, `failed` and the end-to-end
//! metrics (`--trace 0`) or the per-layer metrics (`--trace 1`). The exit
//! code is 0 only when every answer was right.

mod answer;
mod inproc;
mod lakes;
mod metrics;
mod serveload;
mod spans;
mod stats;
mod sys;

use std::path::Path;
use std::time::Duration;

use answer::Answer;
use lakes::Workload;
use spans::Recorder;

/// Errors are descriptions; the benchmark reports them and exits.
pub type Res<T> = Result<T, String>;

/// Set-up is repeated this many times per run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 7;

const USAGE: &str = "usage: perfbench --workload price-discover|howto-discover|serve-ingest \
[--seed N] [--seconds N] [--trace 0|1]";

/// Whether operation `op` of a traced run records spans. Half the
/// operations do, picked by a hash rather than by parity: the serve
/// clients' request pattern and seed cycle are periodic, and a periodic
/// pick would compare different requests instead of traced with untraced.
pub fn traced_op(seed: u64, op: usize) -> bool {
    // The first two operations cover both sides even in the shortest run.
    if op < 2 {
        return op == 1;
    }
    // SplitMix64 finalizer.
    let mut z = seed ^ (op as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    (z ^ (z >> 31)) & 1 == 1
}

/// Command-line options.
pub struct RunOptions {
    /// Which workload to run.
    pub workload: Workload,
    /// Seed of the generated lake (and of every request).
    pub seed: u64,
    /// Length of the timed phase.
    pub seconds: Duration,
    /// Traced run (per-layer metrics) or untraced (end-to-end metrics).
    pub trace: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Res<RunOptions> {
    let mut workload = None;
    let mut seed = answer::PINNED_SEED;
    let mut seconds = 10u64;
    let mut trace = false;
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(&value)?),
            "--seed" => seed = number()?,
            "--seconds" => seconds = number()?,
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(RunOptions {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds: Duration::from_secs(seconds.max(1)),
        trace,
    })
}

/// What one run measured.
pub struct Measured {
    /// Set-up times (s), one per repeat.
    pub setup_s: Vec<f64>,
    /// Latency (ms) of every discover in the timed phase that returned
    /// the right answer (untraced ones only, in process).
    pub discover_ms: Vec<f64>,
    /// Discovers that returned the right answer.
    pub discovers_ok: usize,
    /// Scan latencies (ms) after an ingest: the `scan` verb on
    /// `serve-ingest`, the catalog rescan in process (traced runs).
    pub scan_ms: Vec<f64>,
    /// Length of the timed phase (s).
    pub timed_s: f64,
    /// Peak resident memory over the timed phase (MiB).
    pub peak_rss_mb: f64,
    /// Operations checked.
    pub attempted: usize,
    /// One description per failed, rejected or wrong operation.
    pub failures: Vec<String>,
    /// The reference answers every operation is checked against.
    pub reference_answers: Vec<Answer>,
    /// Spans and samples (traced runs).
    pub rec: Recorder,
    /// Extra `(key, raw JSON)` pairs for the context line.
    pub context: Vec<(&'static str, String)>,
}

impl Measured {
    /// Start a run's record from its set-up times and reference answers;
    /// at the pinned seed the references must match their pinned digest.
    pub fn new(setup_s: Vec<f64>, references: &[Answer], opts: &RunOptions) -> Res<Measured> {
        let digest = answer::digest(references);
        let mut m = Measured {
            setup_s,
            discover_ms: Vec::new(),
            discovers_ok: 0,
            scan_ms: Vec::new(),
            timed_s: 0.0,
            peak_rss_mb: 0.0,
            attempted: references.len(),
            failures: Vec::new(),
            reference_answers: references.to_vec(),
            rec: Recorder::new(std::time::Instant::now()),
            context: vec![("answer_digest", format!("\"{digest:016x}\""))],
        };
        let utilities: Vec<String> = references.iter().map(|a| a.utility().to_string()).collect();
        m.context
            .push(("reference_utility", format!("[{}]", utilities.join(","))));
        match answer::check_pinned(opts.workload.name(), opts.seed, digest) {
            Ok(applied) => m.context.push(("digest_pinned", applied.to_string())),
            Err(e) => m.fail(e),
        }
        Ok(m)
    }

    /// Count a failed operation.
    pub fn fail(&mut self, e: String) {
        eprintln!("perfbench: {e}");
        self.failures.push(e);
    }
}

/// The context line: what the result depends on besides the code.
fn context_line(opts: &RunOptions, m: &Measured, repo: &Path) -> String {
    let mut out = String::from("{\"context\":{\"workload\":");
    metam::obs::json::write_string(&mut out, opts.workload.name());
    out.push_str(",\"git_rev\":");
    metam::obs::json::write_string(&mut out, &sys::git_rev(repo));
    out.push_str(&format!(
        ",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{},\"timed_s\":{},\"setup_repeats\":{}",
        opts.seed,
        opts.seconds.as_secs(),
        u8::from(opts.trace),
        sys::nproc(),
        m.timed_s,
        m.setup_s.len(),
    ));
    if let Some(tail) = stats::tail(&m.discover_ms) {
        out.push_str(&format!(
            ",\"discover_samples\":{},\"discover_tail_percentile\":{},\"discover_tail_beyond\":{}",
            tail.samples, tail.percentile, tail.beyond
        ));
    }
    if let Some(tail) = stats::tail(m.rec.samples("tasks.utility_ms")) {
        out.push_str(&format!(
            ",\"utility_samples\":{},\"utility_tail_percentile\":{}",
            tail.samples, tail.percentile
        ));
    }
    for (key, raw) in &m.context {
        out.push_str(&format!(",\"{key}\":{raw}"));
    }
    out.push_str("}}");
    out
}

/// Run one workload; returns the lines to print and whether every
/// answer was right.
fn run(opts: &RunOptions) -> Res<(String, String, bool)> {
    let bench_dir = Path::new(env!("CARGO_MANIFEST_DIR"));
    let repo = bench_dir
        .parent()
        .ok_or("the benchmark has no parent dir")?;
    let work = bench_dir.join(".work");
    let lake = lakes::generate(opts.workload, opts.seed, &work)?;
    let m = match opts.workload {
        Workload::ServeIngest => serveload::run(&lake, opts)?,
        Workload::PriceDiscover | Workload::HowtoDiscover => inproc::run(&lake, opts)?,
    };
    let (defs, values) = if opts.trace {
        let spans = work.join(opts.workload.name()).join("spans.jsonl");
        m.rec.write_jsonl(&spans)?;
        (metrics::PER_LAYER, metrics::per_layer(&m)?)
    } else {
        (metrics::END_TO_END, metrics::end_to_end(&m)?)
    };
    std::fs::remove_dir_all(&lake.dir)
        .map_err(|e| format!("removing {}: {e}", lake.dir.display()))?;
    let correct = m.failures.is_empty();
    let result = metrics::result_line(correct, m.attempted, m.failures.len(), defs, &values)?;
    Ok((context_line(opts, &m, repo), result, correct))
}

fn main() {
    let opts = match parse_args(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    match run(&opts) {
        Ok((context, result, correct)) => {
            println!("{context}");
            println!("{result}");
            std::process::exit(if correct { 0 } else { 1 });
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
