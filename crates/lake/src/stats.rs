//! Per-column summary statistics stored in the catalog.
//!
//! These are the lake's *profile cache*: cheap table-level statistics
//! computed once per file version (alongside the column's MinHash, see
//! [`crate::sketch::ColumnSketch`]) and persisted in its `.mks` record
//! until the file changes. They back the `profile` CLI view and give
//! discovery a first look at a table without re-reading it.

use metam_table::DataType;

/// Summary statistics of one column.
#[derive(Debug, Clone, PartialEq)]
pub struct ColumnStats {
    /// Column name (`None` for anonymous columns).
    pub name: Option<String>,
    /// Inferred logical type.
    pub dtype: DataType,
    /// Number of rows with a missing value.
    pub null_count: usize,
    /// Number of distinct non-null normalized keys.
    pub distinct_count: usize,
    /// Minimum of the numeric view, when one exists.
    pub min: Option<f64>,
    /// Maximum of the numeric view.
    pub max: Option<f64>,
    /// Mean of the numeric view.
    pub mean: Option<f64>,
}

impl ColumnStats {
    /// Display name (anonymous columns render as `_colN`).
    pub fn display_name(&self, index: usize) -> String {
        self.name.clone().unwrap_or_else(|| format!("_col{index}"))
    }
}

/// Stable string form of a [`DataType`] for display and JSON output.
pub fn dtype_to_str(dtype: DataType) -> &'static str {
    match dtype {
        DataType::Int => "int",
        DataType::Float => "float",
        DataType::Str => "str",
        DataType::Bool => "bool",
    }
}
