//! Seeded workload lakes: a `metam::datagen` scenario exported as CSVs,
//! plus the one discovery request every operation of the workload makes.

use std::fmt::Write as _;
use std::path::{Path, PathBuf};

use metam::datagen::{repo, Scenario};
use metam::lake::{export_scenario, LakeCatalog};

use crate::Res;

/// Name of the input dataset in every lake.
pub const DIN: &str = "din";

/// Every lake lives in a directory of this name. The directory's basename
/// becomes each table's `source` tag, which feeds the embedding profile:
/// byte-identical lakes under different names give different answers, so
/// the name is fixed.
pub const LAKE_LEAF: &str = "lake";

/// Number of `ingest_*.csv` files the `serve-ingest` ingester rotates
/// through.
pub const INGEST_FILES: usize = 3;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// In process, 1 client: housing-price classification, search-bound.
    PriceDiscover,
    /// In process, 1 client: SAT how-to analysis, prepare-bound.
    HowtoDiscover,
    /// `metam serve` with 1 worker: a discover loop beside an
    /// ingest → scan → discover loop on a regression lake.
    ServeIngest,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::PriceDiscover,
        Workload::HowtoDiscover,
        Workload::ServeIngest,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::PriceDiscover => "price-discover",
            Workload::HowtoDiscover => "howto-discover",
            Workload::ServeIngest => "serve-ingest",
        }
    }

    /// Parse a command-line name.
    pub fn parse(name: &str) -> Res<Workload> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))
    }
}

/// How an operation obtains its downstream task.
pub enum TaskSource {
    /// A lake task spec (`classification:label`, …).
    Spec(&'static str),
    /// `metam::tasks::build_task` over the scenario's spec (lake task
    /// specs cannot express how-to analysis). The scenario keeps its
    /// spec and `din` only; its repository tables are dropped.
    Scenario(Box<Scenario>),
}

/// The discovery request every operation of a workload makes.
pub struct Request {
    /// The downstream task.
    pub task: TaskSource,
    /// The task's target column in `din`.
    pub target: String,
    /// Query budget.
    pub budget: usize,
}

/// A generated workload lake.
pub struct Lake {
    /// The lake directory (basename [`LAKE_LEAF`]).
    pub dir: PathBuf,
    /// Scratch directory beside the lake (never scanned).
    pub scratch: PathBuf,
    /// What each operation asks for.
    pub request: Request,
}

/// Generate `workload`'s lake for `seed` under `root/<workload>/`,
/// replacing whatever an earlier run left there.
pub fn generate(workload: Workload, seed: u64, root: &Path) -> Res<Lake> {
    let base = root.join(workload.name());
    match std::fs::remove_dir_all(&base) {
        Ok(()) => {}
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => {}
        Err(e) => return Err(format!("clearing {}: {e}", base.display())),
    }
    let dir = base.join(LAKE_LEAF);
    let scratch = base.join("scratch");
    std::fs::create_dir_all(&scratch).map_err(|e| format!("creating {}: {e}", base.display()))?;
    let (mut scenario, task, budget) = match workload {
        Workload::PriceDiscover => (
            repo::price_classification(seed),
            Some("classification:label"),
            60,
        ),
        Workload::HowtoDiscover => (repo::sat_howto(seed), None, 60),
        Workload::ServeIngest => (
            repo::collisions_regression(seed),
            Some("regression:label"),
            30,
        ),
    };
    export_scenario(&scenario, &dir).map_err(|e| format!("exporting the lake: {e}"))?;
    if workload == Workload::ServeIngest {
        for i in 0..INGEST_FILES {
            write_ingest(&dir, &scratch, seed, i)?;
        }
    }
    let target = scenario
        .spec
        .target_name()
        .ok_or("the scenario has no target column")?
        .to_string();
    let task = match task {
        Some(spec) => TaskSource::Spec(spec),
        None => {
            scenario.tables = Vec::new();
            scenario.union_tables = Vec::new();
            scenario.eval_table = None;
            TaskSource::Scenario(Box::new(scenario))
        }
    };
    Ok(Lake {
        dir,
        scratch,
        request: Request {
            task,
            target,
            budget,
        },
    })
}

/// Remove the lake's catalog directory, so the next scan starts cold.
pub fn remove_meta(dir: &Path) -> Res<()> {
    let meta = LakeCatalog::meta_dir(dir);
    match std::fs::remove_dir_all(&meta) {
        Ok(()) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(format!("removing {}: {e}", meta.display())),
    }
}

/// A small table whose keys share nothing with any lake table, so no
/// join path reaches it and no answer may change because of it. `round`
/// varies its contents and size.
fn ingest_csv(seed: u64, round: usize) -> String {
    let rows = 40 + (round * 7) % 23;
    let mut state = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(round as u64 + 1);
    let mut next = || {
        state = state
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        (state >> 11) as f64 / (1u64 << 53) as f64
    };
    let mut out = String::from("ingest_key,reading_a,reading_b\n");
    for r in 0..rows {
        // Writing into a String cannot fail.
        let _ = writeln!(
            out,
            "zz-ingest-{round}-{r},{:.4},{:.4}",
            next() * 100.0,
            next() * 10.0
        );
    }
    out
}

/// Overwrite `ingest_<round % INGEST_FILES>.csv` in the lake. The file is
/// written beside the lake and renamed in, so a concurrent scan never
/// sees half a file.
pub fn write_ingest(dir: &Path, scratch: &Path, seed: u64, round: usize) -> Res<()> {
    let tmp = scratch.join("ingest.tmp");
    let dest = dir.join(format!("ingest_{}.csv", round % INGEST_FILES));
    std::fs::write(&tmp, ingest_csv(seed, round))
        .map_err(|e| format!("writing {}: {e}", tmp.display()))?;
    std::fs::rename(&tmp, &dest).map_err(|e| format!("renaming into {}: {e}", dest.display()))
}
