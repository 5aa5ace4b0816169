//! In-process workloads: one closed-loop client making what `metam
//! discover` does — a warm `LakeCatalog::scan`, then `Session::run`.
//!
//! A traced operation splits the same work into the calls the session
//! makes (warm scan, `Session::prepare`, `Metam::run_with_observer`) and
//! wraps the prepared task to time every `Task::utility` call. Prepare's
//! sub-layers are timed by calling them again on freshly built inputs.

use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use metam::core::{Metam, MetamConfig, Method, Prepared, QueryEvent, RunObserver, Task};
use metam::discovery::path::PathConfig;
use metam::discovery::{generate_candidates, DiscoveryIndex, Materializer};
use metam::lake::prepare::repository_descriptors;
use metam::lake::{LakeCatalog, ScanOptions};
use metam::profile::default_profiles;
use metam::session::Session;
use metam::table::Table;
use metam::tasks::build_task;
use metam::RunReport;

use crate::answer::{self, Answer};
use crate::lakes::{self, Lake, TaskSource, DIN};
use crate::spans::Recorder;
use crate::{sys, Measured, Res, RunOptions, SETUP_REPEATS};

/// `Session`'s default candidate cap, used by the replayed candidate
/// generation (the replay asserts it reproduces the session's output).
const MAX_CANDIDATES: usize = 100_000;
/// `Session`'s default profile sample.
const PROFILE_SAMPLE: usize = 100;
/// Ingest → `is_stale` → `rescan` rounds after a traced run.
const STALENESS_ROUNDS: usize = 5;
/// First ingest round of the staleness replay (past any round the
/// serve-ingest ingester reaches, so contents always change).
const REPLAY_ROUND_BASE: usize = 1_000_000;

/// Milliseconds in `d`.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The session one operation runs, as `metam discover` builds it.
fn session(catalog: LakeCatalog, lake: &Lake, seed: u64) -> Session {
    let session = Session::from_catalog(catalog)
        .din(DIN)
        .seed(seed)
        .budget(lake.request.budget)
        .threads(1);
    match &lake.request.task {
        TaskSource::Spec(spec) => session.task_spec(*spec),
        TaskSource::Scenario(scenario) => session
            .boxed_task(build_task(scenario, seed))
            .target(lake.request.target.clone()),
    }
}

/// One untraced operation.
pub struct Discovered {
    /// The session's report.
    pub report: RunReport,
    /// Whole operation.
    pub latency_ms: f64,
}

/// Warm scan + `Session::run`, untraced.
pub fn discover(lake: &Lake, seed: u64) -> Res<Discovered> {
    let start = Instant::now();
    let catalog = LakeCatalog::scan(&lake.dir).map_err(|e| format!("warm scan: {e}"))?;
    let report = session(catalog, lake, seed)
        .run(Method::Metam(MetamConfig::default()))
        .map_err(|e| format!("discover: {e}"))?;
    Ok(Discovered {
        report,
        latency_ms: ms(start.elapsed()),
    })
}

/// The prepared task behind a timing wrapper.
struct TimedTask {
    inner: Box<dyn Task>,
    calls_ms: Arc<Mutex<Vec<f64>>>,
}

impl Task for TimedTask {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn utility(&self, table: &Table) -> f64 {
        let start = Instant::now();
        let utility = self.inner.utility(table);
        let elapsed = ms(start.elapsed());
        if let Ok(mut calls) = self.calls_ms.lock() {
            calls.push(elapsed);
        }
        utility
    }
}

/// Sums what the engine reports per counted query.
#[derive(Default)]
struct QueryLog {
    secs: f64,
}

impl RunObserver for QueryLog {
    fn on_query(&mut self, event: &QueryEvent<'_>) {
        self.secs += event.duration_secs;
    }
}

/// One traced operation.
pub struct Traced {
    /// The search's answer.
    pub answer: Answer,
    /// Whole operation.
    pub latency_ms: f64,
    /// The `Session::prepare` call within it.
    pub prepare_ms: f64,
    /// What prepare produced (the reference for the sub-layer replay).
    pub prepared: Prepared,
}

/// Warm scan, `Session::prepare`, then `Metam::run_with_observer` on
/// `Prepared::inputs()` with the config `Session::run` builds — each in
/// its own span under one `op` span.
pub fn traced_discover(lake: &Lake, seed: u64, rec: &mut Recorder, op: usize) -> Res<Traced> {
    let start = Instant::now();
    let root = rec.begin(op, None, "op");
    let catalog = rec
        .timed(op, Some(root), "lake.scan_warm", || {
            LakeCatalog::scan(&lake.dir)
        })
        .map_err(|e| format!("warm scan: {e}"))?;
    let loads = catalog.load_counters();
    let sketches = catalog.sketch_load_counters();
    let prepare_start = Instant::now();
    let prepared = rec
        .timed(op, Some(root), "session.prepare", || {
            session(catalog, lake, seed).prepare()
        })
        .map_err(|e| format!("prepare: {e}"))?;
    let prepare_ms = ms(prepare_start.elapsed());
    let calls = Arc::new(Mutex::new(Vec::new()));
    let inner = prepared.task;
    let prepared = Prepared {
        task: Box::new(TimedTask {
            inner,
            calls_ms: Arc::clone(&calls),
        }),
        ..prepared
    };
    let config = MetamConfig {
        theta: None,
        max_queries: lake.request.budget,
        seed,
        ..MetamConfig::default()
    };
    let mut log = QueryLog::default();
    let result = rec.timed(op, Some(root), "core.search", || {
        Metam::new(config).run_with_observer(&prepared.inputs(), &mut log)
    });
    rec.end(root);
    let latency_ms = ms(start.elapsed());

    let calls_ms = calls
        .lock()
        .map_err(|_| "task timing log poisoned")?
        .clone();
    let task_ms: f64 = calls_ms.iter().sum();
    rec.sample("tasks.utility_calls", calls_ms.len() as f64);
    rec.sample("tasks.utility_op_ms", task_ms);
    for call in calls_ms {
        rec.sample("tasks.utility_ms", call);
    }
    rec.sample("core.query_build_ms", log.secs * 1e3 - task_ms);
    rec.sample("core.queries", result.queries as f64);
    rec.sample("core.clusters", result.n_clusters as f64);
    rec.sample("discovery.candidates", prepared.candidates.len() as f64);
    rec.sample("lake.tables_loaded", (loads.hits() + loads.misses()) as f64);
    rec.sample("lake.mtc_hits", loads.hits() as f64);
    rec.sample("lake.sketch_hits", sketches.hits() as f64);
    rec.sample("lake.sketch_misses", sketches.misses() as f64);
    Ok(Traced {
        answer: Answer::from_result(&result),
        latency_ms,
        prepare_ms,
        prepared,
    })
}

/// A traced operation, then (outside its `op` span) the replay of its
/// prepare's sub-layers. Prepare time the sub-layers do not account for
/// is recorded per operation, so it is reported rather than hidden.
pub fn traced_and_replayed(lake: &Lake, seed: u64, rec: &mut Recorder, op: usize) -> Res<Traced> {
    let traced = traced_discover(lake, seed, rec, op)?;
    let sub_layers_ms = replay_prepare(lake, seed, &traced.prepared, rec, op)?;
    rec.sample(
        "session.prepare_unattributed_ms",
        traced.prepare_ms - sub_layers_ms,
    );
    Ok(traced)
}

/// Time prepare's sub-layers on freshly built inputs — a new catalog and
/// a new `Materializer` from `repository_descriptors`, since the prepared
/// one already holds every profiled column — and check they reproduce
/// `reference`'s candidates and profiles. Returns the sub-layers' summed
/// time (ms).
fn replay_prepare(
    lake: &Lake,
    seed: u64,
    reference: &Prepared,
    rec: &mut Recorder,
    op: usize,
) -> Res<f64> {
    let catalog = Arc::new(LakeCatalog::scan(&lake.dir).map_err(|e| format!("scan: {e}"))?);
    let din = catalog
        .load_table(DIN)
        .map_err(|e| format!("loading din: {e}"))?;
    let target = din.column_index(&lake.request.target).ok();
    let root = rec.begin(op, None, "replay.prepare");
    let descriptors = rec
        .timed(op, Some(root), "lake.sketch_descriptors", || {
            catalog.sketch_descriptors(&[DIN])
        })
        .map_err(|e| format!("sketch descriptors: {e}"))?;
    let index = rec.timed(op, Some(root), "discovery.index", || {
        DiscoveryIndex::from_catalog(descriptors)
    });
    let candidates = rec.timed(op, Some(root), "discovery.candidates", || {
        generate_candidates(&din, &index, &PathConfig::default(), MAX_CANDIDATES)
    });
    if candidates != reference.candidates {
        return Err("replayed candidate generation differs from Session::prepare's".into());
    }
    let (_, provider) = repository_descriptors(&catalog, &din, Some(&[DIN.to_string()]))
        .map_err(|e| format!("repository descriptors: {e}"))?;
    let materializer = Materializer::lazy(Box::new(provider));
    let profiles = rec.timed(op, Some(root), "profile.evaluate_all", || {
        default_profiles().evaluate_all(
            &din,
            target,
            &candidates,
            &materializer,
            PROFILE_SAMPLE,
            seed,
        )
    });
    rec.end(root);
    let sub_layers_ms = rec.children_ms(root);
    let same = profiles.len() == reference.profiles.len()
        && profiles.iter().zip(&reference.profiles).all(|(a, b)| {
            a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
        });
    if same {
        Ok(sub_layers_ms)
    } else {
        Err("replayed profile evaluation differs from Session::prepare's".into())
    }
}

/// Time the serve registry's revalidation calls: `is_stale` on a fresh
/// catalog (what every daemon request pays), then `rescan` after an
/// ingest (what a `scan` after new data pays).
pub fn replay_staleness(lake: &Lake, seed: u64, rec: &mut Recorder, op: usize) -> Res<()> {
    let mut catalog = LakeCatalog::scan(&lake.dir).map_err(|e| format!("scan: {e}"))?;
    for round in 0..STALENESS_ROUNDS {
        if rec.timed(op, None, "lake.is_stale", || catalog.is_stale()) {
            return Err("a freshly scanned catalog reads as stale".into());
        }
        lakes::write_ingest(&lake.dir, &lake.scratch, seed, REPLAY_ROUND_BASE + round)?;
        if !catalog.is_stale() {
            return Err("an ingest left the catalog fresh".into());
        }
        catalog = rec
            .timed(op, None, "lake.rescan", || {
                catalog.rescan(&ScanOptions::default())
            })
            .map_err(|e| format!("rescan: {e}"))?;
    }
    Ok(())
}

/// Set-up time: cold scans of the CSVs with no catalog, repeated.
fn cold_scans(lake: &Lake) -> Res<Vec<f64>> {
    let mut secs = Vec::with_capacity(SETUP_REPEATS);
    for _ in 0..SETUP_REPEATS {
        lakes::remove_meta(&lake.dir)?;
        let start = Instant::now();
        LakeCatalog::scan(&lake.dir).map_err(|e| format!("cold scan: {e}"))?;
        secs.push(start.elapsed().as_secs_f64());
    }
    Ok(secs)
}

/// Run an in-process workload.
pub fn run(lake: &Lake, opts: &RunOptions) -> Res<Measured> {
    let setup_s = cold_scans(lake)?;
    let reference = Answer::from_report(&discover(lake, opts.seed)?.report);
    let mut m = Measured::new(setup_s, std::slice::from_ref(&reference), opts)?;

    let rss_reset = sys::reset_peak_rss();
    let mut rec = Recorder::new(Instant::now());
    let start = Instant::now();
    let mut op = 0;
    while start.elapsed() < opts.seconds {
        let traced = opts.trace && crate::traced_op(opts.seed, op);
        m.attempted += 1;
        let outcome = if traced {
            traced_and_replayed(lake, opts.seed, &mut rec, op).map(|t| {
                rec.sample("op.traced_ms", t.latency_ms);
                t.answer
            })
        } else {
            discover(lake, opts.seed).map(|d| {
                let handler_ms = (d.report.prepare_secs + d.report.search_secs) * 1e3;
                m.discover_ms.push(d.latency_ms);
                rec.sample("op.untraced_ms", d.latency_ms);
                rec.sample("serve.handler_ms", handler_ms);
                rec.sample("serve.overhead_ms", d.latency_ms - handler_ms);
                Answer::from_report(&d.report)
            })
        };
        match outcome.and_then(|a| answer::check(&reference, &a)) {
            Ok(()) => m.discovers_ok += 1,
            Err(e) => m.fail(format!("op {op}: {e}")),
        }
        op += 1;
    }
    m.timed_s = start.elapsed().as_secs_f64();
    m.peak_rss_mb = sys::peak_rss_mb()?;
    m.context.push((
        "rss_reset_mb",
        rss_reset.map_or("null".to_string(), |mb| mb.to_string()),
    ));

    if opts.trace {
        // Ingests add tables, which shifts join-path table indices, so
        // they come after every replay that compares candidates.
        m.attempted += 1;
        if let Err(e) = replay_staleness(lake, opts.seed, &mut rec, op) {
            m.fail(e);
        }
        // In process, the scan that makes new data discoverable is the
        // rescan after an ingest.
        m.scan_ms = rec.durations_ms("lake.rescan");
    }
    m.rec = rec;
    Ok(m)
}
