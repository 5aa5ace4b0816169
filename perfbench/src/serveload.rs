//! The `serve-ingest` workload: `metam::serve::start` with one worker,
//! driven over loopback by two closed-loop connections — a reader
//! sending `discover`, and an ingester that overwrites a table with keys
//! no lake table shares, sends `scan`, then the same `discover`.

use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};

use metam::obs::json;
use metam::serve::{RunningServer, ServeConfig};

use crate::answer::{self, Answer};
use crate::inproc::{self, ms};
use crate::lakes::{self, Lake, INGEST_FILES, LAKE_LEAF};
use crate::spans::Recorder;
use crate::{sys, Measured, Res, RunOptions, SETUP_REPEATS};

/// Distinct request seeds the discovers cycle through.
const REQUEST_SEEDS: u64 = 4;
/// Traced in-process operations after the load phase (per-layer spans
/// for the same request the daemon serves).
const INPROC_TRACED_OPS: usize = 4;
/// A reply slower than this means the daemon is stuck.
const REPLY_TIMEOUT: Duration = Duration::from_secs(120);
/// Op ids of the ingester's operations start here (the reader's at 0).
const INGESTER_OPS: usize = 1_000_000;

/// The reference answer for one request seed.
struct Reference {
    seed: u64,
    /// In-process report JSON with timing fields zeroed.
    report_json: String,
    answer: Answer,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Role {
    Reader,
    Ingester,
}

/// What the client loops share.
struct Load<'a> {
    addr: SocketAddr,
    lake: &'a Lake,
    task_spec: &'a str,
    /// Tables a `scan` reply must report.
    tables: u64,
    seed: u64,
    references: &'a [Reference],
    deadline: Instant,
    trace: bool,
    origin: Instant,
}

/// One client's results.
struct ClientLog {
    rec: Recorder,
    discover_ms: Vec<f64>,
    discovers_ok: usize,
    scan_ms: Vec<f64>,
    attempted: usize,
    failures: Vec<String>,
}

struct Connection {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Connection {
    fn open(addr: SocketAddr) -> Res<Connection> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connecting to {addr}: {e}"))?;
        stream
            .set_read_timeout(Some(REPLY_TIMEOUT))
            .map_err(|e| format!("setting a read timeout: {e}"))?;
        let reader = BufReader::new(
            stream
                .try_clone()
                .map_err(|e| format!("cloning the socket: {e}"))?,
        );
        Ok(Connection {
            reader,
            writer: stream,
        })
    }

    /// Send one request line and wait for its reply line.
    fn call(&mut self, line: &str) -> Res<String> {
        self.writer
            .write_all(format!("{line}\n").as_bytes())
            .and_then(|()| self.writer.flush())
            .map_err(|e| format!("sending a request: {e}"))?;
        let mut reply = String::new();
        let n = self
            .reader
            .read_line(&mut reply)
            .map_err(|e| format!("reading a reply: {e}"))?;
        if n == 0 {
            return Err("the daemon closed the connection".into());
        }
        Ok(reply.trim_end().to_string())
    }
}

fn discover_line(spec: &str, budget: usize, seed: u64) -> String {
    let mut task = String::new();
    json::write_string(&mut task, spec);
    format!(
        "{{\"verb\":\"discover\",\"lake\":\"{LAKE_LEAF}\",\"din\":\"{}\",\"task\":{task},\"budget\":{budget},\"seed\":{seed}}}",
        lakes::DIN,
    )
}

/// `Err` with the reply's error kind and message unless it is `ok`.
fn expect_ok(reply: &str) -> Res<json::Value> {
    let value = json::parse(reply).map_err(|e| format!("unparseable reply ({e}): {reply}"))?;
    if value.get("ok") == Some(&json::Value::Bool(true)) {
        return Ok(value);
    }
    let field = |k: &str| {
        value
            .get(k)
            .and_then(json::Value::as_str)
            .unwrap_or("?")
            .to_string()
    };
    Err(format!("{} reply: {}", field("error"), field("message")))
}

/// Check a discover reply against its reference; returns the handler's
/// own time (the report's `prepare_secs + search_secs`) in ms.
fn check_discover(reply: &str, reference: &Reference) -> Res<f64> {
    let value = expect_ok(reply)?;
    let report = value
        .get("report")
        .ok_or("discover reply without a report")?;
    let secs = |k: &str| {
        report
            .get(k)
            .and_then(json::Value::as_f64)
            .ok_or(format!("report without {k}"))
    };
    let handler_ms = (secs("prepare_secs")? + secs("search_secs")?) * 1e3;
    // The server renders `report` last, so the raw text is the suffix.
    let raw = reply
        .split_once("\"report\":")
        .and_then(|(_, rest)| rest.strip_suffix('}'))
        .ok_or("discover reply without a trailing report")?;
    if answer::scrub_secs(raw) != reference.report_json {
        return Err(format!(
            "seed {}: daemon report differs from the in-process report:\n  expected {}\n  got      {}",
            reference.seed,
            reference.report_json,
            answer::scrub_secs(raw)
        ));
    }
    Ok(handler_ms)
}

/// One closed loop until the deadline.
fn client(role: Role, load: &Load<'_>) -> Res<ClientLog> {
    let mut conn = Connection::open(load.addr)?;
    let mut log = ClientLog {
        rec: Recorder::new(load.origin),
        discover_ms: Vec::new(),
        discovers_ok: 0,
        scan_ms: Vec::new(),
        attempted: 0,
        failures: Vec::new(),
    };
    let tables = (role == Role::Ingester).then_some(load.tables);
    let (first_op, first_seed) = match role {
        Role::Reader => (0, 0),
        Role::Ingester => (INGESTER_OPS, REQUEST_SEEDS / 2),
    };
    let mut k = 0usize;
    while Instant::now() < load.deadline {
        let op = first_op + k;
        let traced = load.trace && crate::traced_op(load.seed, op);
        let root = traced.then(|| log.rec.begin(op, None, "op"));

        if let Some(expected_tables) = tables {
            let round = INGEST_FILES + k;
            let write =
                || lakes::write_ingest(&load.lake.dir, &load.lake.scratch, load.seed, round);
            match root {
                Some(r) => log.rec.timed(op, Some(r), "lake.ingest_write", write)?,
                None => write()?,
            }
            let line = format!("{{\"verb\":\"scan\",\"lake\":\"{LAKE_LEAF}\"}}");
            let scan_id = root.map(|r| log.rec.begin(op, Some(r), "serve.scan"));
            let start = Instant::now();
            let reply = conn.call(&line)?;
            let latency = ms(start.elapsed());
            if let Some(id) = scan_id {
                log.rec.end(id);
            }
            log.attempted += 1;
            let checked = expect_ok(&reply).and_then(|v| {
                match v.get("tables").and_then(json::Value::as_f64) {
                    Some(n) if n == expected_tables as f64 => Ok(()),
                    _ => Err(format!("scan reply with a wrong table count: {reply}")),
                }
            });
            match checked {
                Ok(()) => log.scan_ms.push(latency),
                Err(e) => log.failures.push(e),
            }
        }

        let index = (first_seed + k as u64) % REQUEST_SEEDS;
        let reference = load
            .references
            .get(index as usize)
            .ok_or("no reference for a request seed")?;
        let line = discover_line(load.task_spec, load.lake.request.budget, reference.seed);
        let discover_id = root.map(|r| log.rec.begin(op, Some(r), "serve.discover"));
        let start = Instant::now();
        let reply = conn.call(&line)?;
        let latency = ms(start.elapsed());
        if let Some(id) = discover_id {
            log.rec.end(id);
        }
        if let Some(r) = root {
            log.rec.end(r);
        }
        log.attempted += 1;
        match check_discover(&reply, reference) {
            Ok(handler_ms) => {
                log.discovers_ok += 1;
                log.discover_ms.push(latency);
                log.rec.sample("serve.handler_ms", handler_ms);
                log.rec.sample("serve.overhead_ms", latency - handler_ms);
                let name = if traced {
                    "op.traced_ms"
                } else {
                    "op.untraced_ms"
                };
                log.rec.sample(name, latency);
            }
            Err(e) => {
                if e.starts_with("rejected") {
                    log.rec.sample("serve.rejected", 1.0);
                }
                log.failures.push(e);
            }
        }
        k += 1;
    }
    Ok(log)
}

fn stop(server: RunningServer) {
    server.shutdown();
    server.join();
}

/// Run the `serve-ingest` workload.
pub fn run(lake: &Lake, opts: &RunOptions) -> Res<Measured> {
    let lakes = [(LAKE_LEAF.to_string(), lake.dir.clone())];
    let config = || ServeConfig {
        workers: 1,
        ..ServeConfig::default()
    };
    // Set-up: from CSVs with no catalog to a daemon ready to answer.
    let mut setup_s = Vec::with_capacity(SETUP_REPEATS);
    let mut server = None;
    for _ in 0..SETUP_REPEATS {
        if let Some(previous) = server.take() {
            stop(previous);
        }
        lakes::remove_meta(&lake.dir)?;
        let start = Instant::now();
        let started =
            metam::serve::start(&lakes, config()).map_err(|e| format!("starting serve: {e}"))?;
        setup_s.push(start.elapsed().as_secs_f64());
        server = Some(started);
    }
    let server = server.ok_or("no daemon started")?;
    let result = run_started(lake, opts, &server, setup_s);
    stop(server);
    let mut m = result?;

    if opts.trace {
        // Per-layer spans for the request the daemon served, made in
        // process (the daemon itself is not instrumented).
        for k in 0..INPROC_TRACED_OPS {
            let seed = request_seed(opts.seed, k as u64 % REQUEST_SEEDS);
            m.attempted += 1;
            let op = INGESTER_OPS * 2 + k;
            let checked = inproc::traced_and_replayed(lake, seed, &mut m.rec, op).and_then(|t| {
                let reference = m
                    .reference_answers
                    .get(k % REQUEST_SEEDS as usize)
                    .ok_or("no reference answer")?;
                answer::check(reference, &t.answer)
            });
            if let Err(e) = checked {
                m.fail(e);
            }
        }
        m.attempted += 1;
        if let Err(e) = inproc::replay_staleness(lake, opts.seed, &mut m.rec, INGESTER_OPS * 3) {
            m.fail(e);
        }
    }
    Ok(m)
}

fn request_seed(seed: u64, index: u64) -> u64 {
    seed.wrapping_add(index)
}

fn run_started(
    lake: &Lake,
    opts: &RunOptions,
    server: &RunningServer,
    setup_s: Vec<f64>,
) -> Res<Measured> {
    let mut references = Vec::new();
    for index in 0..REQUEST_SEEDS {
        let seed = request_seed(opts.seed, index);
        let mut report = inproc::discover(lake, seed)?.report;
        // Daemon replies carry no metrics section.
        report.metrics = None;
        references.push(Reference {
            seed,
            report_json: answer::scrub_secs(&report.to_json()),
            answer: Answer::from_report(&report),
        });
    }
    let lakes::TaskSource::Spec(task_spec) = &lake.request.task else {
        return Err("serve-ingest needs a lake task spec".into());
    };
    let tables = metam::lake::LakeCatalog::scan(&lake.dir)
        .map_err(|e| format!("counting tables: {e}"))?
        .len() as u64;
    let answers: Vec<Answer> = references.iter().map(|r| r.answer.clone()).collect();
    let mut m = Measured::new(setup_s, &answers, opts)?;

    let rss_reset = sys::reset_peak_rss();
    let origin = Instant::now();
    let load = Load {
        addr: server.addr(),
        lake,
        task_spec,
        tables,
        seed: opts.seed,
        references: &references,
        deadline: origin + opts.seconds,
        trace: opts.trace,
        origin,
    };
    let logs = metam_pool::map(&[Role::Reader, Role::Ingester], 2, |&role| {
        client(role, &load)
    });
    m.timed_s = origin.elapsed().as_secs_f64();
    m.peak_rss_mb = sys::peak_rss_mb()?;
    m.context.push((
        "rss_reset_mb",
        rss_reset.map_or("null".to_string(), |mb| mb.to_string()),
    ));

    let mut rec = Recorder::new(origin);
    for log in logs {
        let log = log?;
        m.attempted += log.attempted;
        m.discovers_ok += log.discovers_ok;
        m.discover_ms.extend(log.discover_ms);
        m.scan_ms.extend(log.scan_ms);
        for e in log.failures {
            m.fail(e);
        }
        rec.merge(log.rec);
    }
    m.rec = rec;
    Ok(m)
}
