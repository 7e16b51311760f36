//! The storage engine: a named collection of concurrently accessible tables.

use crate::snapshot::TableCell;
use crate::table::Table;
use parking_lot::RwLock;
use rcc_common::{Error, Result};
use std::collections::HashMap;
use std::sync::Arc;

/// Shared handle to one table. Query operators call
/// [`TableCell::snapshot`] to obtain an immutable, atomically published
/// table state and scan it without holding any lock, while distribution
/// agents and DML apply replicated transactions through
/// [`TableCell::update`] / [`TableCell::begin_write`] — a copy-on-write
/// cycle that publishes the whole batch in one atomic epoch bump. Readers
/// are never stalled by a refresh and never observe a torn table.
pub type TableHandle = Arc<TableCell>;

/// A named set of tables, used both for the master database at the back-end
/// and for the cached materialized views (plus local heartbeat tables) at
/// the mid-tier cache.
#[derive(Debug, Default)]
pub struct StorageEngine {
    tables: RwLock<HashMap<String, TableHandle>>,
}

impl StorageEngine {
    /// An empty engine.
    pub fn new() -> StorageEngine {
        StorageEngine::default()
    }

    /// Register a table; errors if the name is taken.
    pub fn create_table(&self, table: Table) -> Result<TableHandle> {
        let name = table.name().to_ascii_lowercase();
        let mut tables = self.tables.write();
        if tables.contains_key(&name) {
            return Err(Error::AlreadyExists(format!("table {name}")));
        }
        let handle = Arc::new(TableCell::new(table));
        tables.insert(name, Arc::clone(&handle));
        Ok(handle)
    }

    /// Look up a table by (case-insensitive) name.
    pub fn table(&self, name: &str) -> Result<TableHandle> {
        let tables = self.tables.read();
        // names are stored lower-cased; one that already is needs no copy
        let found = match name.bytes().any(|b| b.is_ascii_uppercase()) {
            true => tables.get(&name.to_ascii_lowercase()),
            false => tables.get(name),
        };
        found
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("table {name}")))
    }

    /// True if a table with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.read().contains_key(&name.to_ascii_lowercase())
    }

    /// Remove a table; returns it if present.
    pub fn drop_table(&self, name: &str) -> Option<TableHandle> {
        self.tables.write().remove(&name.to_ascii_lowercase())
    }

    /// Names of all tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.tables.read().keys().cloned().collect();
        names.sort();
        names
    }

    /// Total snapshot publishes across all tables (monotonic while tables
    /// live; feeds the `rcc_snapshot_publishes_total` metric).
    pub fn total_publishes(&self) -> u64 {
        self.tables
            .read()
            .values()
            .map(|cell| cell.publish_count())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::{Column, DataType, Row, Schema, Value};

    fn tiny(name: &str) -> Table {
        let schema = Schema::new(vec![Column::new("id", DataType::Int)]);
        Table::new(name, schema, vec![0])
    }

    #[test]
    fn create_and_lookup_case_insensitive() {
        let eng = StorageEngine::new();
        eng.create_table(tiny("Books")).unwrap();
        assert!(eng.table("books").is_ok());
        assert!(eng.table("BOOKS").is_ok());
        assert!(eng.contains("bOOks"));
        assert!(eng.table("reviews").is_err());
    }

    #[test]
    fn duplicate_rejected() {
        let eng = StorageEngine::new();
        eng.create_table(tiny("t")).unwrap();
        assert!(matches!(
            eng.create_table(tiny("T")),
            Err(Error::AlreadyExists(_))
        ));
    }

    #[test]
    fn drop_removes() {
        let eng = StorageEngine::new();
        eng.create_table(tiny("t")).unwrap();
        assert!(eng.drop_table("t").is_some());
        assert!(eng.drop_table("t").is_none());
        assert!(!eng.contains("t"));
    }

    #[test]
    fn handles_share_state() {
        let eng = StorageEngine::new();
        eng.create_table(tiny("t")).unwrap();
        let h1 = eng.table("t").unwrap();
        let h2 = eng.table("t").unwrap();
        h1.update(|t| t.insert(Row::new(vec![Value::Int(1)])))
            .unwrap();
        assert_eq!(h2.snapshot().row_count(), 1);
    }

    #[test]
    fn publish_counter_totals_across_tables() {
        let eng = StorageEngine::new();
        eng.create_table(tiny("a")).unwrap();
        eng.create_table(tiny("b")).unwrap();
        assert_eq!(eng.total_publishes(), 0);
        let a = eng.table("a").unwrap();
        a.update(|t| t.insert(Row::new(vec![Value::Int(1)])))
            .unwrap();
        let b = eng.table("b").unwrap();
        b.update(|t| t.insert(Row::new(vec![Value::Int(1)])))
            .unwrap();
        b.update(|t| t.insert(Row::new(vec![Value::Int(2)])))
            .unwrap();
        assert_eq!(eng.total_publishes(), 3);
    }

    #[test]
    fn names_sorted() {
        let eng = StorageEngine::new();
        eng.create_table(tiny("zeta")).unwrap();
        eng.create_table(tiny("alpha")).unwrap();
        assert_eq!(
            eng.table_names(),
            vec!["alpha".to_string(), "zeta".to_string()]
        );
    }
}
