//! Answer checks: every operation's answer must equal its workload's
//! reference bit for bit.

use metam::core::MetamResult;
use metam::RunReport;

/// The parts of a discovery answer that must never change: selected
/// ids, utility bits, queries spent, stop reason, cluster count and the
/// utility trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    selected: Vec<usize>,
    utility_bits: u64,
    base_utility_bits: u64,
    queries: usize,
    stop_reason: String,
    n_clusters: Option<usize>,
    trace: Vec<(usize, u64)>,
}

impl Answer {
    /// The answer a `Session::run` report carries.
    pub fn from_report(r: &RunReport) -> Answer {
        Answer {
            selected: r.selected.clone(),
            utility_bits: r.utility.to_bits(),
            base_utility_bits: r.base_utility.to_bits(),
            queries: r.queries,
            stop_reason: r.stop_reason.map(|s| s.to_string()).unwrap_or_default(),
            n_clusters: r.n_clusters,
            trace: r
                .trace
                .iter()
                .map(|p| (p.queries, p.utility.to_bits()))
                .collect(),
        }
    }

    /// The answer `Metam::run_with_observer` returns.
    pub fn from_result(r: &MetamResult) -> Answer {
        Answer {
            selected: r.selected.clone(),
            utility_bits: r.utility.to_bits(),
            base_utility_bits: r.base_utility.to_bits(),
            queries: r.queries,
            stop_reason: r.stop_reason.to_string(),
            n_clusters: Some(r.n_clusters),
            trace: r
                .trace
                .iter()
                .map(|p| (p.queries, p.utility.to_bits()))
                .collect(),
        }
    }

    /// A canonical one-line rendering (what the digest hashes).
    pub fn canonical(&self) -> String {
        let trace: Vec<String> = self
            .trace
            .iter()
            .map(|(q, u)| format!("{q}:{u:016x}"))
            .collect();
        format!(
            "selected={:?} utility={:016x} base={:016x} queries={} stop={} clusters={:?} trace={}",
            self.selected,
            self.utility_bits,
            self.base_utility_bits,
            self.queries,
            self.stop_reason,
            self.n_clusters,
            trace.join(",")
        )
    }

    /// Utility of the answer.
    pub fn utility(&self) -> f64 {
        f64::from_bits(self.utility_bits)
    }
}

/// `Ok` when `got` equals `reference`, else a description of the
/// difference.
pub fn check(reference: &Answer, got: &Answer) -> Result<(), String> {
    if reference == got {
        Ok(())
    } else {
        Err(format!(
            "answer differs from the reference:\n  expected {}\n  got      {}",
            reference.canonical(),
            got.canonical()
        ))
    }
}

/// FNV-1a over the canonical renderings, one per line.
pub fn digest(answers: &[Answer]) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for answer in answers {
        for byte in answer.canonical().bytes().chain(std::iter::once(b'\n')) {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// The seed the pinned digests were taken at (the command's default).
pub const PINNED_SEED: u64 = 7;

/// Reference-answer digests at [`PINNED_SEED`], per workload: the
/// reference a run computes must match, or the lake generator, the export
/// or discovery itself has changed its answer.
pub const PINNED: &[(&str, u64)] = &[
    ("price-discover", 0x3f5e_903e_447e_b186),
    ("howto-discover", 0x5f6d_d1b4_6f7e_59d6),
    ("serve-ingest", 0x1838_63c3_22a4_5af4),
];

/// Check the reference digest against the pin (only at [`PINNED_SEED`]).
/// Returns whether a pin applied.
pub fn check_pinned(workload: &str, seed: u64, digest: u64) -> Result<bool, String> {
    if seed != PINNED_SEED {
        return Ok(false);
    }
    match PINNED.iter().find(|(name, _)| *name == workload) {
        Some(&(_, pinned)) if pinned == digest => Ok(true),
        Some(&(_, pinned)) => Err(format!(
            "{workload} seed {seed}: reference digest {digest:016x} differs from the pinned {pinned:016x}"
        )),
        None => Err(format!("{workload}: no pinned digest")),
    }
}

/// Zero the wall-clock fields of a `discover --json` report so a daemon
/// reply and an in-process report of the same request compare equal.
pub fn scrub_secs(json: &str) -> String {
    let mut out = String::with_capacity(json.len());
    let mut rest = json;
    loop {
        let hit = ["\"prepare_secs\":", "\"search_secs\":"]
            .iter()
            .filter_map(|k| rest.find(k).map(|p| p + k.len()))
            .min();
        let Some(pos) = hit else {
            out.push_str(rest);
            return out;
        };
        out.push_str(&rest[..pos]);
        out.push('0');
        let tail = &rest[pos..];
        let end = tail.find([',', '}']).unwrap_or(tail.len());
        rest = &tail[end..];
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use metam::core::trace::TracePoint;
    use metam::core::StopReason;

    fn report() -> RunReport {
        RunReport {
            method: "Metam".into(),
            din_name: "din".into(),
            din_rows: 10,
            din_cols: 2,
            n_candidates: 4,
            selected: vec![1, 3],
            selected_names: vec!["a".into(), "b".into()],
            utility: 0.75,
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
                    utility: 0.75,
                },
            ],
            threads: 1,
            prepare_secs: 0.25,
            search_secs: 0.5,
            metrics: None,
        }
    }

    #[test]
    fn a_perturbed_answer_fails_the_check() {
        let reference = Answer::from_report(&report());
        assert!(check(&reference, &Answer::from_report(&report())).is_ok());

        let mut one_ulp = report();
        one_ulp.utility = f64::from_bits(one_ulp.utility.to_bits() + 1);
        let mut other_set = report();
        other_set.selected = vec![1, 2];
        let mut more_queries = report();
        more_queries.queries += 1;
        let mut other_stop = report();
        other_stop.stop_reason = Some(StopReason::BudgetExhausted);
        let mut other_trace = report();
        other_trace.trace[0].utility = 0.5000001;
        for perturbed in [one_ulp, other_set, more_queries, other_stop, other_trace] {
            let got = Answer::from_report(&perturbed);
            assert!(check(&reference, &got).is_err(), "{}", got.canonical());
            assert_ne!(digest(std::slice::from_ref(&reference)), digest(&[got]));
        }
    }

    #[test]
    fn timing_fields_do_not_change_an_answer() {
        let mut slower = report();
        slower.prepare_secs = 9.0;
        slower.search_secs = 9.0;
        assert_eq!(Answer::from_report(&report()), Answer::from_report(&slower));
        assert_eq!(
            scrub_secs(&report().to_json()),
            scrub_secs(&slower.to_json())
        );
        let mut other = report();
        other.utility = 0.7;
        assert_ne!(
            scrub_secs(&report().to_json()),
            scrub_secs(&other.to_json())
        );
    }

    #[test]
    fn pins_apply_only_at_the_pinned_seed() {
        assert_eq!(
            check_pinned("price-discover", PINNED_SEED + 1, 1),
            Ok(false)
        );
        let (name, pinned) = PINNED[0];
        assert_eq!(check_pinned(name, PINNED_SEED, pinned), Ok(true));
        assert!(check_pinned(name, PINNED_SEED, pinned ^ 1).is_err());
    }
}
