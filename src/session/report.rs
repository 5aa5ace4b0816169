//! The bundled outcome of one `Session::run`.

use metam_core::trace::TracePoint;
use metam_core::StopReason;
use metam_discovery::CandidateId;
use metam_obs::json::{write_f64, write_string};
use metam_obs::MetricsSnapshot;

/// Everything one discovery run produced: the solution, budget accounting,
/// wall-clock timings and the utility-vs-queries trace. Serializes to JSON
/// with [`RunReport::to_json`] for the CLI's `--json` mode and bench
/// harnesses.
#[derive(Debug, Clone)]
pub struct RunReport {
    /// Method display name ("Metam", "Uniform", …).
    pub method: String,
    /// Name of the input dataset.
    pub din_name: String,
    /// Rows in the input dataset.
    pub din_rows: usize,
    /// Columns in the input dataset.
    pub din_cols: usize,
    /// Candidate augmentations the prepare phase discovered.
    pub n_candidates: usize,
    /// Selected augmentation ids (ascending).
    pub selected: Vec<CandidateId>,
    /// Human-readable names of the selected augmentations, aligned with
    /// [`selected`](Self::selected).
    pub selected_names: Vec<String>,
    /// Final solution utility.
    pub utility: f64,
    /// Utility of the bare `Din`.
    pub base_utility: f64,
    /// Task queries spent.
    pub queries: usize,
    /// The query budget the run was given (`usize::MAX` = unbounded).
    pub budget: usize,
    /// Why the search stopped (`None` for baselines, which do not report
    /// a structured stop reason).
    pub stop_reason: Option<StopReason>,
    /// Clusters used by Metam (`None` for baselines).
    pub n_clusters: Option<usize>,
    /// Augmentations the monotonicity wrapper ignored (`None` for
    /// baselines).
    pub certification_ignored: Option<usize>,
    /// Best-utility-so-far trace.
    pub trace: Vec<TracePoint>,
    /// Worker threads the search ran with (1 = sequential; the thread
    /// count never changes results).
    pub threads: usize,
    /// Wall-clock seconds spent preparing (scan, index, candidates,
    /// profiles).
    pub prepare_secs: f64,
    /// Wall-clock seconds spent searching.
    pub search_secs: f64,
    /// Telemetry snapshot at report time (span timings, engine counters,
    /// cache stats) — `None` when the process recorded no metrics.
    pub metrics: Option<MetricsSnapshot>,
}

impl RunReport {
    /// Utility gained over the bare `Din`.
    pub fn gain(&self) -> f64 {
        self.utility - self.base_utility
    }

    /// Budget left unspent; `usize::MAX` for an unbounded run.
    pub fn queries_remaining(&self) -> usize {
        metam_core::engine::remaining_budget(self.budget, self.queries)
    }

    /// Compact JSON encoding (the `--json` CLI payload). Hand-rolled so
    /// unbounded budgets encode as null and the stop reason encodes as its
    /// Display string.
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        out.push('{');
        write_string(&mut out, "method");
        out.push(':');
        write_string(&mut out, &self.method);
        out.push_str(",\"din\":{");
        write_string(&mut out, "name");
        out.push(':');
        write_string(&mut out, &self.din_name);
        out.push_str(&format!(
            ",\"rows\":{},\"cols\":{}}}",
            self.din_rows, self.din_cols
        ));
        out.push_str(&format!(",\"candidates\":{}", self.n_candidates));
        out.push_str(",\"utility\":");
        write_f64(&mut out, self.utility);
        out.push_str(",\"base_utility\":");
        write_f64(&mut out, self.base_utility);
        out.push_str(",\"gain\":");
        write_f64(&mut out, self.gain());
        out.push_str(&format!(",\"queries\":{}", self.queries));
        out.push_str(",\"budget\":");
        write_opt_usize(&mut out, (self.budget != usize::MAX).then_some(self.budget));
        out.push_str(",\"queries_remaining\":");
        write_opt_usize(
            &mut out,
            (self.budget != usize::MAX).then_some(self.queries_remaining()),
        );
        out.push_str(",\"stop_reason\":");
        match self.stop_reason {
            Some(r) => write_string(&mut out, &r.to_string()),
            None => out.push_str("null"),
        }
        out.push_str(",\"n_clusters\":");
        write_opt_usize(&mut out, self.n_clusters);
        out.push_str(",\"certification_ignored\":");
        write_opt_usize(&mut out, self.certification_ignored);
        out.push_str(",\"selected\":[");
        for (i, (&id, name)) in self.selected.iter().zip(&self.selected_names).enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("{{\"id\":{id},\"name\":"));
            write_string(&mut out, name);
            out.push('}');
        }
        out.push(']');
        out.push_str(&format!(",\"threads\":{}", self.threads));
        out.push_str(",\"prepare_secs\":");
        write_f64(&mut out, self.prepare_secs);
        out.push_str(",\"search_secs\":");
        write_f64(&mut out, self.search_secs);
        out.push_str(",\"metrics\":");
        match &self.metrics {
            Some(m) => out.push_str(&m.to_json()),
            None => out.push_str("null"),
        }
        out.push_str(",\"trace\":[");
        for (i, p) in self.trace.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!("[{},", p.queries));
            write_f64(&mut out, p.utility);
            out.push(']');
        }
        out.push_str("]}");
        out
    }
}

fn write_opt_usize(out: &mut String, v: Option<usize>) {
    match v {
        Some(n) => out.push_str(&n.to_string()),
        None => out.push_str("null"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metam_obs::json::{parse, pretty};

    fn report() -> RunReport {
        RunReport {
            method: "Metam".into(),
            din_name: "din".into(),
            din_rows: 10,
            din_cols: 2,
            n_candidates: 4,
            selected: vec![1, 3],
            selected_names: vec!["a \"q\"".into(), "b".into()],
            utility: 0.9,
            base_utility: 0.5,
            queries: 7,
            budget: 30,
            stop_reason: Some(StopReason::ThetaReached),
            n_clusters: Some(2),
            certification_ignored: Some(0),
            trace: vec![
                TracePoint {
                    queries: 1,
                    utility: 0.5,
                },
                TracePoint {
                    queries: 7,
                    utility: 0.9,
                },
            ],
            threads: 1,
            prepare_secs: 0.25,
            search_secs: 0.5,
            metrics: None,
        }
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let json = report().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains("\"method\":\"Metam\""));
        assert!(json.contains("\"queries\":7"));
        assert!(json.contains("\"budget\":30"));
        assert!(json.contains("\"queries_remaining\":23"));
        assert!(json.contains("\"stop_reason\":\"theta reached (target utility met)\""));
        assert!(json.contains("\"selected\":[{\"id\":1,\"name\":\"a \\\"q\\\"\"}"));
        assert!(json.contains("\"trace\":[[1,0.5],[7,0.9]]"));
        assert!(json.contains("\"threads\":1"));
        // Parseable, and re-indenting it changes layout only.
        let compact = parse(&json).expect("compact report parses");
        assert_eq!(parse(&pretty(&json)), Ok(compact));
    }

    #[test]
    fn metrics_section_encodes_snapshot_or_null() {
        let r = report();
        assert!(r.to_json().contains("\"metrics\":null"));
        metam_obs::counter_add("report.test.counter", 3);
        let mut with = report();
        with.metrics = Some(metam_obs::metrics_snapshot());
        let json = with.to_json();
        assert!(json.contains("\"metrics\":{"));
        assert!(json.contains("\"report.test.counter\":3"));
    }

    #[test]
    fn unbounded_budget_encodes_as_null() {
        let mut r = report();
        r.budget = usize::MAX;
        r.stop_reason = None;
        let json = r.to_json();
        assert!(json.contains("\"budget\":null"));
        assert!(json.contains("\"queries_remaining\":null"));
        assert!(json.contains("\"stop_reason\":null"));
        assert_eq!(r.queries_remaining(), usize::MAX);
    }
}
