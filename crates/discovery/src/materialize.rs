//! Candidate materialization with caching.
//!
//! Materializing `Γ(Din, P[j])` = chaining left joins along the path and
//! projecting one column, keeping the result row-aligned with `Din`.
//! Candidates are materialized many times across the search (profiles,
//! repeated utility queries), so results are cached behind an `Arc`.
//!
//! The repository behind a materializer is a [`TableProvider`]: either the
//! tables themselves (the in-memory path) or a deferred handle that loads
//! a table from backing storage the first time a candidate needs it (the
//! catalog-backed path — a discover run then touches only the tables that
//! actually win candidacy).

use std::collections::HashMap;
use std::sync::{Arc, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

use metam_table::join::first_match_index;
use metam_table::{Column, Table, TableError, Value};

use crate::candidate::{Candidate, CandidateId};

/// A source of repository table payloads, indexed like the
/// [`crate::DiscoveryIndex`] that produced the candidates.
///
/// `Send + Sync` because profile evaluation materializes candidates from
/// worker threads. Fetches may be called more than once per index —
/// [`Materializer`] memoizes, so implementations need no cache of their
/// own — but must return the same table every time.
pub trait TableProvider: Send + Sync {
    /// Number of repository tables.
    fn len(&self) -> usize;

    /// `true` when the repository holds no tables.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Fetch table `idx`. Errors are surfaced as
    /// [`TableError::Provider`] by the materializer.
    fn fetch(&self, idx: usize) -> Result<Arc<Table>, String>;
}

/// The eager provider: tables already in memory.
struct EagerTables(Vec<Arc<Table>>);

impl TableProvider for EagerTables {
    fn len(&self) -> usize {
        self.0.len()
    }

    fn fetch(&self, idx: usize) -> Result<Arc<Table>, String> {
        self.0.get(idx).cloned().ok_or_else(|| {
            format!(
                "table index {idx} out of bounds for {} tables",
                self.0.len()
            )
        })
    }
}

/// Materializes candidates against a fixed repository, caching per
/// candidate id. Cheap to clone is not needed; share by reference.
pub struct Materializer {
    provider: Box<dyn TableProvider>,
    /// Tables fetched so far (memoized so a lazy provider loads each
    /// backing table at most once).
    fetched: RwLock<HashMap<usize, Arc<Table>>>,
    cache: RwLock<HashMap<CandidateId, Arc<Column>>>,
}

// The memo maps only ever gain finished entries, so a panic while a lock
// is held leaves nothing half-written: poisoning is safe to ignore.
fn read<T>(lock: &RwLock<T>) -> RwLockReadGuard<'_, T> {
    lock.read().unwrap_or_else(PoisonError::into_inner)
}

fn write<T>(lock: &RwLock<T>) -> RwLockWriteGuard<'_, T> {
    lock.write().unwrap_or_else(PoisonError::into_inner)
}

impl std::fmt::Debug for Materializer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Materializer")
            .field("tables", &self.provider.len())
            .field("fetched", &read(&self.fetched).len())
            .field("cached_columns", &read(&self.cache).len())
            .finish()
    }
}

impl Materializer {
    /// New materializer over in-memory repository tables (same order as
    /// the [`crate::DiscoveryIndex`] that produced the candidates).
    pub fn new(tables: Vec<Arc<Table>>) -> Materializer {
        Materializer::lazy(Box::new(EagerTables(tables)))
    }

    /// New materializer over a deferred [`TableProvider`] (same indexing
    /// as the index that produced the candidates). Tables are fetched on
    /// first use and memoized, so only candidate-bearing tables ever load.
    pub fn lazy(provider: Box<dyn TableProvider>) -> Materializer {
        Materializer {
            provider,
            fetched: RwLock::new(HashMap::new()),
            cache: RwLock::new(HashMap::new()),
        }
    }

    /// Number of repository tables behind the provider.
    pub fn n_tables(&self) -> usize {
        self.provider.len()
    }

    /// Repository table by index, fetching through the provider on first
    /// use (memoized; an eager materializer never really "loads").
    pub fn table(&self, idx: usize) -> metam_table::Result<Arc<Table>> {
        if let Some(t) = read(&self.fetched).get(&idx) {
            return Ok(Arc::clone(t));
        }
        let table = self.provider.fetch(idx).map_err(TableError::Provider)?;
        write(&self.fetched).insert(idx, Arc::clone(&table));
        Ok(table)
    }

    /// Number of cached columns (diagnostics).
    pub fn cache_len(&self) -> usize {
        read(&self.cache).len()
    }

    /// Materialize the candidate into a `din`-aligned column.
    ///
    /// The result is cached by candidate id; subsequent calls are `Arc`
    /// clones. The cache assumes one `din` per materializer (true for every
    /// search run); `clear_cache` resets it otherwise.
    pub fn materialize(
        &self,
        din: &Table,
        candidate: &Candidate,
    ) -> metam_table::Result<Arc<Column>> {
        if let Some(cached) = read(&self.cache).get(&candidate.id) {
            return Ok(Arc::clone(cached));
        }
        let column = self.materialize_uncached(din, candidate)?;
        let arc = Arc::new(column);
        write(&self.cache).insert(candidate.id, Arc::clone(&arc));
        Ok(arc)
    }

    /// Drop all cached columns.
    pub fn clear_cache(&self) {
        write(&self.cache).clear();
    }

    fn materialize_uncached(
        &self,
        din: &Table,
        candidate: &Candidate,
    ) -> metam_table::Result<Column> {
        // Row mapping from Din rows into the current table of the chain.
        let first = &candidate.path.hops[0];
        let first_table = self.table(first.table)?;
        let probe_keys = din.column(first.left_column)?.join_keys();
        let index = first_match_index(first_table.column(first.key_column)?);
        if index.is_empty() {
            return Err(TableError::EmptyJoinKey);
        }
        let mut mapping: Vec<Option<usize>> = probe_keys
            .into_iter()
            .map(|k| k.and_then(|k| index.get(&k).copied()))
            .collect();
        let mut current_table = first_table;

        for hop in &candidate.path.hops[1..] {
            let bridge = current_table.column(hop.left_column)?;
            let next_table = self.table(hop.table)?;
            let next_index = first_match_index(next_table.column(hop.key_column)?);
            if next_index.is_empty() {
                return Err(TableError::EmptyJoinKey);
            }
            mapping = mapping
                .into_iter()
                .map(|m| {
                    m.and_then(|row| bridge.get(row).join_key())
                        .and_then(|k| next_index.get(&k).copied())
                })
                .collect();
            current_table = next_table;
        }

        let value_col = current_table.column(candidate.value_column)?;
        let values: Vec<Value> = mapping
            .into_iter()
            .map(|m| m.map_or(Value::Null, |row| value_col.get(row)))
            .collect();
        let mut col = Column::from_values(Some(candidate.column_name.clone()), values);
        // Augmented columns are named uniquely so repeated augmentations
        // from different tables never collide inside the augmented Din.
        col.name = Some(format!("aug{}_{}", candidate.id, candidate.column_name));
        Ok(col)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::index::DiscoveryIndex;
    use crate::path::PathConfig;

    fn setup() -> (Table, DiscoveryIndex, Materializer, Vec<Candidate>) {
        let din = Table::from_columns(
            "din",
            vec![Column::from_strings(
                Some("zip".into()),
                vec![Some("z0".into()), Some("z1".into()), Some("zX".into())],
            )],
        )
        .unwrap();
        let t0 = Table::from_columns(
            "crime",
            vec![
                Column::from_strings(
                    Some("zipcode".into()),
                    (0..40).map(|i| Some(format!("z{i}"))).collect(),
                ),
                Column::from_strings(
                    Some("district".into()),
                    (0..40).map(|i| Some(format!("d{i}"))).collect(),
                ),
                Column::from_floats(
                    Some("rate".into()),
                    (0..40).map(|i| Some(i as f64)).collect(),
                ),
            ],
        )
        .unwrap();
        let t1 = Table::from_columns(
            "districts",
            vec![
                Column::from_strings(
                    Some("id".into()),
                    (0..40).map(|i| Some(format!("d{i}"))).collect(),
                ),
                Column::from_floats(
                    Some("income".into()),
                    (0..40).map(|i| Some(100.0 + i as f64)).collect(),
                ),
            ],
        )
        .unwrap();
        let tables = vec![Arc::new(t0), Arc::new(t1)];
        let index = DiscoveryIndex::build(tables.clone());
        let cfg = PathConfig {
            containment_threshold: 0.05,
            ..Default::default()
        };
        let candidates = crate::candidate::generate_candidates(&din, &index, &cfg, 100);
        let mat = Materializer::new(tables);
        (din, index, mat, candidates)
    }

    #[test]
    fn single_hop_materializes_values_and_nulls() {
        let (din, _idx, mat, cands) = setup();
        let c = cands
            .iter()
            .find(|c| c.path.len() == 1 && c.column_name == "rate")
            .expect("rate candidate");
        let col = mat.materialize(&din, c).unwrap();
        assert_eq!(col.len(), 3);
        assert_eq!(col.get(0), Value::Float(0.0));
        assert_eq!(col.get(1), Value::Float(1.0));
        assert_eq!(col.get(2), Value::Null, "zX has no match");
    }

    #[test]
    fn two_hop_materializes_through_bridge() {
        let (din, _idx, mat, cands) = setup();
        let c = cands
            .iter()
            .find(|c| c.path.len() == 2 && c.column_name == "income")
            .expect("two-hop income candidate");
        let col = mat.materialize(&din, c).unwrap();
        assert_eq!(col.get(0), Value::Float(100.0));
        assert_eq!(col.get(1), Value::Float(101.0));
        assert_eq!(col.get(2), Value::Null);
    }

    #[test]
    fn cache_returns_same_arc() {
        let (din, _idx, mat, cands) = setup();
        let c = &cands[0];
        let a = mat.materialize(&din, c).unwrap();
        let b = mat.materialize(&din, c).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(mat.cache_len(), 1);
        mat.clear_cache();
        assert_eq!(mat.cache_len(), 0);
    }

    #[test]
    fn materialized_names_are_unique_per_candidate() {
        let (din, _idx, mat, cands) = setup();
        let names: Vec<String> = cands
            .iter()
            .map(|c| mat.materialize(&din, c).unwrap().name.clone().unwrap())
            .collect();
        let mut dedup = names.clone();
        dedup.sort();
        dedup.dedup();
        assert_eq!(dedup.len(), names.len(), "names must be unique: {names:?}");
    }
}
