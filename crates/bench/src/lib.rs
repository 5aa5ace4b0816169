#![forbid(unsafe_code)]
//! Shared harness utilities for the per-figure experiment binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure from the
//! paper's §VI: it prints the same rows/series the paper reports and dumps
//! them as JSON under `--out` so EXPERIMENTS.md numbers are reproducible.
//!
//! Usage of every binary: `cargo run --release -p metam-bench --bin figN --
//! [--seed N] [--quick] [--out DIR]`.

#![warn(missing_docs)]

use std::fs;
use std::path::PathBuf;

use metam::core::engine::SearchInputs;
use metam::core::trace::{resample, TracePoint};
use metam::obs::json::{pretty, write_f64, write_string};
use metam::{
    run_method, run_method_with_observer, Method, Prepared, QueryEvent, RunObserver, RunResult,
    StopReason,
};

/// Command-line arguments shared by all experiment binaries.
#[derive(Debug, Clone)]
pub struct Args {
    /// Master seed.
    pub seed: u64,
    /// Shrink scales for a fast smoke run.
    pub quick: bool,
    /// Output directory for JSON dumps.
    pub out: PathBuf,
}

impl Args {
    /// Parse from `std::env::args`. Unknown flags abort with usage.
    pub fn parse() -> Args {
        let mut args = Args {
            seed: 42,
            quick: false,
            out: PathBuf::from("results"),
        };
        let mut iter = std::env::args().skip(1);
        while let Some(flag) = iter.next() {
            match flag.as_str() {
                "--seed" => {
                    args.seed = iter
                        .next()
                        .and_then(|v| v.parse().ok())
                        .unwrap_or_else(|| usage("--seed needs an integer"));
                }
                "--quick" => args.quick = true,
                "--out" => {
                    args.out =
                        PathBuf::from(iter.next().unwrap_or_else(|| usage("--out needs a path")));
                }
                other => usage(&format!("unknown flag {other}")),
            }
        }
        args
    }
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}\nusage: <bin> [--seed N] [--quick] [--out DIR]");
    std::process::exit(2)
}

/// One plotted series: method label + (queries, utility) points.
#[derive(Debug, Clone)]
pub struct Series {
    /// Legend label.
    pub label: String,
    /// `(x = queries, y = utility)` samples.
    pub points: Vec<(usize, f64)>,
}

/// One figure panel (e.g. Fig. 3a).
#[derive(Debug, Clone)]
pub struct Panel {
    /// Panel id, e.g. `fig3a`.
    pub id: String,
    /// Panel title.
    pub title: String,
    /// X-axis label.
    pub x_label: String,
    /// Y-axis label.
    pub y_label: String,
    /// The series.
    pub series: Vec<Series>,
}

impl Panel {
    /// New empty panel with the standard axes.
    pub fn new(id: impl Into<String>, title: impl Into<String>) -> Panel {
        Panel {
            id: id.into(),
            title: title.into(),
            x_label: "queries".into(),
            y_label: "utility".into(),
            series: Vec::new(),
        }
    }

    /// Pretty-print the panel as an aligned text table.
    pub fn print(&self) {
        println!("\n== {} — {} ==", self.id, self.title);
        if self.series.is_empty() {
            println!("(no series)");
            return;
        }
        print!("{:>10}", self.x_label);
        for s in &self.series {
            print!("{:>12}", truncate(&s.label, 12));
        }
        println!();
        let grid: Vec<usize> = self.series[0].points.iter().map(|p| p.0).collect();
        for (row, &x) in grid.iter().enumerate() {
            print!("{x:>10}");
            for s in &self.series {
                match s.points.get(row) {
                    Some(&(_, y)) => print!("{y:>12.3}"),
                    None => print!("{:>12}", "-"),
                }
            }
            println!();
        }
    }
}

fn truncate(s: &str, n: usize) -> String {
    if s.len() <= n {
        s.to_string()
    } else {
        s[..n].to_string()
    }
}

/// A tabular report (Tables I/II style).
#[derive(Debug, Clone)]
pub struct TableReport {
    /// Table id, e.g. `table2`.
    pub id: String,
    /// Title.
    pub title: String,
    /// Column headers.
    pub headers: Vec<String>,
    /// Rows.
    pub rows: Vec<Vec<String>>,
}

impl TableReport {
    /// New empty table.
    pub fn new(id: impl Into<String>, title: impl Into<String>, headers: Vec<&str>) -> TableReport {
        TableReport {
            id: id.into(),
            title: title.into(),
            headers: headers.into_iter().map(String::from).collect(),
            rows: Vec::new(),
        }
    }

    /// Append a row.
    pub fn push_row(&mut self, row: Vec<String>) {
        self.rows.push(row);
    }

    /// Pretty-print.
    pub fn print(&self) {
        println!("\n== {} — {} ==", self.id, self.title);
        let widths: Vec<usize> = self
            .headers
            .iter()
            .enumerate()
            .map(|(i, h)| {
                self.rows
                    .iter()
                    .map(|r| r.get(i).map_or(0, String::len))
                    .chain([h.len()])
                    .max()
                    .unwrap_or(0)
                    + 2
            })
            .collect();
        for (h, w) in self.headers.iter().zip(&widths) {
            print!("{h:>w$}", w = *w);
        }
        println!();
        for row in &self.rows {
            for (cell, w) in row.iter().zip(&widths) {
                print!("{cell:>w$}", w = *w);
            }
            println!();
        }
    }
}

/// A bench artifact that encodes itself as compact JSON (objects keep
/// their field order, `(x, y)` pairs and raw rows become arrays).
pub trait ToJson {
    /// Append the compact JSON encoding of `self` to `out`.
    fn write_json(&self, out: &mut String);
}

fn write_object(out: &mut String, fields: &[(&str, &dyn ToJson)]) {
    out.push('{');
    for (i, (key, value)) in fields.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_string(out, key);
        out.push(':');
        value.write_json(out);
    }
    out.push('}');
}

impl ToJson for String {
    fn write_json(&self, out: &mut String) {
        write_string(out, self);
    }
}

impl<T: ToJson> ToJson for [T] {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        for (i, v) in self.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            v.write_json(out);
        }
        out.push(']');
    }
}

impl<T: ToJson> ToJson for Vec<T> {
    fn write_json(&self, out: &mut String) {
        self.as_slice().write_json(out);
    }
}

/// A `(queries, utility)` plot point.
impl ToJson for (usize, f64) {
    fn write_json(&self, out: &mut String) {
        out.push_str(&format!("[{},", self.0));
        write_f64(out, self.1);
        out.push(']');
    }
}

/// A raw `(dataset, method, utility, queries)` result row.
impl ToJson for (String, String, f64, usize) {
    fn write_json(&self, out: &mut String) {
        out.push('[');
        write_string(out, &self.0);
        out.push(',');
        write_string(out, &self.1);
        out.push(',');
        write_f64(out, self.2);
        out.push_str(&format!(",{}]", self.3));
    }
}

impl ToJson for Series {
    fn write_json(&self, out: &mut String) {
        write_object(out, &[("label", &self.label), ("points", &self.points)]);
    }
}

impl ToJson for Panel {
    fn write_json(&self, out: &mut String) {
        write_object(
            out,
            &[
                ("id", &self.id),
                ("title", &self.title),
                ("x_label", &self.x_label),
                ("y_label", &self.y_label),
                ("series", &self.series),
            ],
        );
    }
}

impl ToJson for TableReport {
    fn write_json(&self, out: &mut String) {
        write_object(
            out,
            &[
                ("id", &self.id),
                ("title", &self.title),
                ("headers", &self.headers),
                ("rows", &self.rows),
            ],
        );
    }
}

/// Dump a bench artifact as indented JSON to `out/<name>.json`.
pub fn save_json<T: ToJson + ?Sized>(out: &PathBuf, name: &str, value: &T) {
    if fs::create_dir_all(out).is_err() {
        eprintln!("warning: cannot create {out:?}; skipping JSON dump");
        return;
    }
    let path = out.join(format!("{name}.json"));
    let mut json = String::new();
    value.write_json(&mut json);
    if let Err(e) = fs::write(&path, pretty(&json)) {
        eprintln!("warning: cannot write {path:?}: {e}");
    } else {
        println!("saved {}", path.display());
    }
}

/// An evenly spaced query grid `0..=budget` with ~`points` samples.
pub fn query_grid(budget: usize, points: usize) -> Vec<usize> {
    let points = points.max(2);
    let step = (budget / (points - 1)).max(1);
    let mut grid: Vec<usize> = (0..points).map(|i| i * step).collect();
    if *grid.last().unwrap_or(&0) < budget {
        grid.push(budget);
    }
    grid.truncate(points + 1);
    grid
}

/// A [`RunObserver`] that rebuilds the utility-vs-queries trajectory from
/// the per-query event stream — one point per counted task query — plus
/// the stop reason. Observation is passive, so the recorded points are
/// bit-identical to the engine's own trace.
#[derive(Debug, Default)]
pub struct TrajectoryRecorder {
    /// `(queries, best utility so far)` after every counted query.
    pub points: Vec<TracePoint>,
    /// Why the search stopped, once it has.
    pub stop_reason: Option<StopReason>,
}

impl RunObserver for TrajectoryRecorder {
    fn on_query(&mut self, event: &QueryEvent<'_>) {
        self.points.push(TracePoint {
            queries: event.query,
            utility: event.best_utility,
        });
    }

    fn on_finish(&mut self, stop_reason: StopReason) {
        self.stop_reason = Some(stop_reason);
    }
}

/// Run every method on the prepared scenario and resample each per-query
/// trajectory on the grid — the engine behind every utility-vs-queries
/// panel. Trajectories come from the observer event stream
/// ([`TrajectoryRecorder`]), not a re-run.
pub fn run_methods(
    prepared: &Prepared,
    methods: &[Method],
    theta: Option<f64>,
    budget: usize,
    grid: &[usize],
) -> Vec<Series> {
    methods
        .iter()
        .map(|m| {
            let mut recorder = TrajectoryRecorder::default();
            let r = run_method_with_observer(m, &prepared.inputs(), theta, budget, &mut recorder);
            Series {
                label: r.method.clone(),
                points: resample(&recorder.points, grid),
            }
        })
        .collect()
}

/// Run a single method and return the raw result (for query-count tables).
pub fn run_one(
    prepared: &Prepared,
    method: &Method,
    theta: Option<f64>,
    budget: usize,
) -> RunResult {
    run_method(method, &prepared.inputs(), theta, budget)
}

/// Borrow a `SearchInputs` with a synthetic task override — used by the
/// scalability experiments where the model fit would drown the measurement.
pub fn inputs_with_task<'a>(prepared: &'a Prepared, task: &'a dyn metam::Task) -> SearchInputs<'a> {
    SearchInputs {
        din: &prepared.din,
        target_column: prepared.target_column,
        candidates: &prepared.candidates,
        profiles: &prepared.profiles,
        profile_names: &prepared.profile_names,
        materializer: &prepared.materializer,
        task,
        threads: prepared.threads,
    }
}

/// The standard method lineup of Fig. 3 (iARDA appended only for ML tasks,
/// as in the paper).
pub fn standard_methods(seed: u64, with_iarda: Option<bool>) -> Vec<Method> {
    let mut methods = vec![
        Method::Metam(metam::MetamConfig {
            seed,
            ..Default::default()
        }),
        Method::Mw { seed },
        Method::Overlap,
        Method::Uniform { seed },
    ];
    if let Some(classification) = with_iarda {
        methods.push(Method::IArda {
            classification,
            seed,
        });
    }
    methods
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_is_even_and_capped() {
        let g = query_grid(100, 5);
        assert_eq!(g[0], 0);
        assert!(g.windows(2).all(|w| w[0] < w[1]));
        assert!(*g.last().unwrap() >= 100);
    }

    #[test]
    fn recorder_trajectory_matches_engine_trace() {
        let scenario = metam::datagen::repo::price_classification(11);
        let prepared = metam::Session::from_scenario(scenario)
            .seed(11)
            .prepare()
            .expect("scenario sessions are infallible");
        let mut recorder = TrajectoryRecorder::default();
        let observed = run_method_with_observer(
            &Method::Overlap,
            &prepared.inputs(),
            None,
            40,
            &mut recorder,
        );
        // One point per counted query, bit-identical to the engine's trace.
        assert_eq!(recorder.points, observed.trace);
        assert!(recorder.stop_reason.is_some());
        // Observation is passive: the unobserved run is identical.
        let plain = run_method(&Method::Overlap, &prepared.inputs(), None, 40);
        assert_eq!(plain.queries, observed.queries);
        assert_eq!(plain.selected, observed.selected);
        assert_eq!(plain.utility, observed.utility);
    }

    fn compact<T: ToJson + ?Sized>(value: &T) -> String {
        let mut out = String::new();
        value.write_json(&mut out);
        out
    }

    #[test]
    fn artifacts_encode_as_compact_json() {
        let mut panel = Panel::new("fig3", "t");
        panel.series.push(Series {
            label: "Metam".into(),
            points: vec![(0, 0.25)],
        });
        assert_eq!(
            compact(&panel),
            r#"{"id":"fig3","title":"t","x_label":"queries","y_label":"utility","series":[{"label":"Metam","points":[[0,0.25]]}]}"#
        );
        let mut table = TableReport::new("table2", "a \"b\"", vec!["x", "y"]);
        table.push_row(vec!["1".into(), "2".into()]);
        assert_eq!(
            compact(&table),
            r#"{"id":"table2","title":"a \"b\"","headers":["x","y"],"rows":[["1","2"]]}"#
        );
        let raw = vec![("price".to_string(), "MW".to_string(), f64::NAN, 12usize)];
        assert_eq!(compact(&raw), r#"[["price","MW",null,12]]"#);
    }

    #[test]
    fn table_report_rows_align() {
        let mut t = TableReport::new("t", "test", vec!["a", "b"]);
        t.push_row(vec!["1".into(), "2".into()]);
        assert_eq!(t.rows.len(), 1);
        t.print();
    }
}

pub mod synthetic;
