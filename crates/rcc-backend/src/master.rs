//! The master database: tables, serialized transactions, replication log.

use crate::heartbeat::{heartbeat_schema, HEARTBEAT_TABLE};
use parking_lot::RwLock;
use rcc_catalog::{Catalog, TableMeta};
use rcc_common::{Clock, Error, RegionId, Result, Row, Timestamp, TxnId, Value};
use rcc_storage::{
    CommitRecord, DurableStore, RowChange, StorageEngine, Table, TableHandle, TableSnapshot,
    TableStats, WatermarkRecord,
};
use std::collections::HashMap;
use std::sync::Arc;

/// One change to one table inside a transaction.
#[derive(Debug, Clone, PartialEq)]
pub struct TableChange {
    /// Target table name (lower-cased).
    pub table: String,
    /// The row-level change.
    pub change: RowChange,
}

impl TableChange {
    /// Convenience constructor.
    pub fn new(table: impl Into<String>, change: RowChange) -> TableChange {
        TableChange {
            table: table.into().to_ascii_lowercase(),
            change,
        }
    }
}

/// A committed update transaction, as recorded in the replication log.
///
/// Transactions "are assigned an integer id — a timestamp — in increasing
/// order" (paper appendix 8.1); we also record the wall/simulated commit
/// time because currency is measured in elapsed time.
#[derive(Debug, Clone, PartialEq)]
pub struct CommittedTxn {
    /// Monotonically increasing transaction id (the appendix's `xtime`).
    pub id: TxnId,
    /// Commit time on the back-end clock.
    pub commit_time: Timestamp,
    /// Row changes, in statement order.
    pub changes: Vec<TableChange>,
}

/// The back-end master database.
///
/// All updates are serialized through [`MasterDb::execute_txn`] (the
/// paper's model assumes Strict 2PL at the master; a single writer lock
/// realizes the same serial history), applied to the master tables, and
/// appended to an ordered log that distribution agents drain.
#[derive(Debug)]
pub struct MasterDb {
    storage: Arc<StorageEngine>,
    catalog: Arc<Catalog>,
    clock: Arc<dyn Clock>,
    // Lock order: `durability` (when read at all) strictly before `log`.
    durability: RwLock<Option<Arc<DurableStore>>>,
    log: RwLock<LogState>,
}

/// The replication log. `base` counts transactions that predate the last
/// checkpoint: their effects live in the checkpoint's table images and the
/// entries themselves are gone, but absolute log cursors handed to agents
/// keep working because every index below is offset by it.
#[derive(Debug, Default)]
struct LogState {
    /// Each transaction once: the committer, the log and every agent that
    /// reads it share the one allocation.
    txns: Vec<Arc<CommittedTxn>>,
    next_id: u64,
    base: usize,
}

impl MasterDb {
    /// Create an empty master database. The global heartbeat table is
    /// created eagerly.
    pub fn new(catalog: Arc<Catalog>, clock: Arc<dyn Clock>) -> MasterDb {
        let db = MasterDb {
            storage: Arc::new(StorageEngine::new()),
            catalog,
            clock,
            durability: RwLock::new(None),
            log: RwLock::new(LogState::default()),
        };
        let hb = Table::new(HEARTBEAT_TABLE, heartbeat_schema(), vec![0]);
        db.storage
            .create_table(hb)
            .expect("fresh engine cannot collide");
        db
    }

    /// The catalog this master serves.
    pub fn catalog(&self) -> &Arc<Catalog> {
        &self.catalog
    }

    /// The clock the master stamps commits with.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    /// Direct access to a master table.
    pub fn table(&self, name: &str) -> Result<TableHandle> {
        self.storage.table(name)
    }

    /// The storage engine holding the master tables (used by the back-end
    /// server's executor).
    pub fn storage(&self) -> &Arc<StorageEngine> {
        &self.storage
    }

    /// Create the master copy of a table described by `meta`, including its
    /// clustered layout and secondary indexes.
    pub fn create_table(&self, meta: &TableMeta) -> Result<TableHandle> {
        let mut table = Table::new(meta.name.clone(), meta.schema.clone(), meta.key_ordinals());
        for ix in &meta.indexes {
            let ordinals: Vec<usize> = ix
                .columns
                .iter()
                .map(|c| meta.schema.resolve(None, c))
                .collect::<Result<_>>()?;
            table.create_index(ix.name.clone(), ordinals)?;
        }
        self.storage.create_table(table)
    }

    /// Bulk-load initial rows into a master table *without* logging — this
    /// models the pre-existing database state (history H0). Views created
    /// later are populated from the current snapshot, so initial data never
    /// needs to travel through the log. The rows stream into the table
    /// ([`rcc_storage::Table::load`]); returns how many were loaded.
    pub fn bulk_load(&self, table: &str, rows: impl IntoIterator<Item = Row>) -> Result<usize> {
        let handle = self.storage.table(table)?;
        let mut n = 0;
        handle.update(|t| t.load(rows.into_iter().inspect(|_| n += 1)))?;
        Ok(n)
    }

    /// Execute and commit an update transaction: apply every change to the
    /// master tables (all-or-nothing is approximated by validating targets
    /// first) and append it to the replication log with the next id and the
    /// current clock time. The transaction returned is the one the log
    /// holds.
    pub fn execute_txn(&self, changes: Vec<TableChange>) -> Result<Arc<CommittedTxn>> {
        if changes.is_empty() {
            return Err(Error::Execution("empty transaction".into()));
        }
        // Validate all target tables exist before touching anything.
        for c in &changes {
            self.storage.table(&c.table)?;
        }
        // Clone the durable store handle *before* the log lock so every
        // code path acquires `durability` before `log`, never inside it.
        let durable = self.durability.read().clone();
        // Take the log lock across apply+append so concurrent committers
        // serialize and log order equals apply order.
        let mut log = self.log.write();
        // Inserts are strict at the master (duplicate keys fail the
        // transaction before anything is applied); replication agents use
        // the idempotent `Table::apply` instead.
        for c in &changes {
            if let RowChange::Insert(row) = &c.change {
                let t = self.storage.table(&c.table)?.snapshot();
                if t.row(&t.key_of(row)).is_some() {
                    return Err(Error::Storage(format!(
                        "duplicate clustered key in INSERT into {}",
                        c.table
                    )));
                }
            }
        }
        // Write-ahead: frame the transaction into the WAL before any table
        // publishes. Under `SyncPolicy::Always` the append fsyncs, so the
        // record is durable before the COW epoch becomes visible; under
        // `Group` the fsync is deferred to `sync_commit` below, after
        // publish but before the commit is acknowledged to the caller.
        let commit_time = self.clock.now();
        let id = log.next_id + 1;
        let mut pending_sync = None;
        if let Some(store) = durable {
            let record = CommitRecord {
                id,
                commit_ms: commit_time.millis(),
                changes: changes
                    .iter()
                    .map(|c| (c.table.clone(), c.change.clone()))
                    .collect(),
            };
            let lsn = store.append_commit(&record)?;
            pending_sync = Some((store, lsn));
        }
        // Group the changes per table (statement order preserved within
        // each table; tables have disjoint keyspaces, so the final state is
        // the same) and publish one copy-on-write snapshot per table —
        // readers see each table's whole batch or none of it.
        let mut order: Vec<&str> = Vec::new();
        let mut groups: HashMap<&str, Vec<&RowChange>> = HashMap::new();
        for c in &changes {
            if !groups.contains_key(c.table.as_str()) {
                order.push(&c.table);
            }
            groups.entry(c.table.as_str()).or_default().push(&c.change);
        }
        for table in &order {
            let handle = self.storage.table(table)?;
            let group = &groups[table];
            handle.update(|t| {
                for change in group {
                    t.apply(change)?;
                }
                Ok(())
            })?;
        }
        log.next_id = id;
        let txn = Arc::new(CommittedTxn {
            id: TxnId(id),
            commit_time,
            changes,
        });
        log.txns.push(Arc::clone(&txn));
        drop(log);
        if let Some((store, lsn)) = pending_sync {
            store.sync_commit(lsn)?;
        }
        Ok(txn)
    }

    /// Attach a durable store: every subsequent [`MasterDb::execute_txn`]
    /// is written ahead to its WAL. Recovery replay happens *before* this
    /// via [`MasterDb::recover`], which writes the log directly and must
    /// not re-append records the WAL already holds.
    pub fn attach_durability(&self, store: Arc<DurableStore>) {
        *self.durability.write() = Some(store);
    }

    /// The attached durable store, if any.
    pub fn durability(&self) -> Option<Arc<DurableStore>> {
        self.durability.read().clone()
    }

    /// Restore recovered state: checkpoint table images (replacing whatever
    /// the tables currently hold), then the WAL tail replayed on top.
    /// Returns the number of commits replayed. The log base is set so that
    /// pre-checkpoint cursors held by agents stay valid.
    pub fn recover(
        &self,
        tables: Vec<(String, Vec<Row>)>,
        base_log_len: u64,
        base_next_id: u64,
        commits: &[CommitRecord],
    ) -> Result<usize> {
        let mut log = self.log.write();
        for (name, rows) in tables {
            let handle = self.storage.table(&name)?;
            handle.update(|t| {
                // Replace, don't merge: an upsert over bulk-loaded state
                // would resurrect rows deleted before the checkpoint.
                t.truncate();
                t.load(rows)
            })?;
        }
        log.base = base_log_len as usize;
        log.next_id = base_next_id;
        log.txns.clear();
        for rec in commits {
            let changes: Vec<TableChange> = rec
                .changes
                .iter()
                .map(|(table, change)| TableChange::new(table.clone(), change.clone()))
                .collect();
            let mut order: Vec<&str> = Vec::new();
            let mut groups: HashMap<&str, Vec<&RowChange>> = HashMap::new();
            for c in &changes {
                if !groups.contains_key(c.table.as_str()) {
                    order.push(&c.table);
                }
                groups.entry(c.table.as_str()).or_default().push(&c.change);
            }
            for table in &order {
                let handle = self.storage.table(table)?;
                let group = &groups[table];
                handle.update(|t| {
                    for change in group {
                        // Idempotent apply: a commit may be both inside the
                        // checkpoint image and still framed in the WAL when
                        // a crash lands between checkpoint and WAL reset.
                        t.apply(change)?;
                    }
                    Ok(())
                })?;
            }
            log.next_id = rec.id;
            log.txns.push(Arc::new(CommittedTxn {
                id: TxnId(rec.id),
                commit_time: Timestamp(rec.commit_ms),
                changes,
            }));
        }
        Ok(commits.len())
    }

    /// Persist a replication agent's propagation position. No-op without a
    /// durable store; never forces an fsync of its own (see
    /// [`DurableStore::append_watermark`]).
    pub fn persist_watermark(&self, region: &str, cursor: u64, heartbeat_ms: i64) -> Result<()> {
        let durable = self.durability.read().clone();
        if let Some(store) = durable {
            store.append_watermark(&WatermarkRecord {
                region: region.to_string(),
                cursor,
                heartbeat_ms,
            })?;
        }
        Ok(())
    }

    /// Write a checkpoint capturing every master table, the given
    /// replication watermarks, and the log position, then truncate the WAL.
    /// Returns `false` (doing nothing) when no durable store is attached.
    pub fn checkpoint(&self, watermarks: &[WatermarkRecord]) -> Result<bool> {
        let durable = self.durability.read().clone();
        let Some(store) = durable else {
            return Ok(false);
        };
        // Hold the log read lock so the table images, log length, and id
        // form one consistent cut: no commit can land in between. The
        // images are pinned snapshots, encoded by reference.
        let log = self.log.read();
        let mut tables = Vec::new();
        for name in self.storage.table_names() {
            let snapshot = self.storage.table(&name)?.snapshot();
            tables.push((name, snapshot));
        }
        store.checkpoint(
            &tables,
            watermarks,
            (log.base + log.txns.len()) as u64,
            log.next_id,
            self.clock.now().millis(),
        )?;
        Ok(true)
    }

    /// Beat the heart of `region`: set its heartbeat row to the current
    /// time, as an ordinary logged transaction (so it replicates).
    pub fn beat(&self, region: RegionId) -> Result<Arc<CommittedTxn>> {
        let now = self.clock.now();
        let row = Row::new(vec![
            Value::Int(region.raw() as i64),
            Value::Timestamp(now.millis()),
        ]);
        self.execute_txn(vec![TableChange::new(
            HEARTBEAT_TABLE,
            RowChange::Update {
                key: vec![Value::Int(region.raw() as i64)],
                row,
            },
        )])
    }

    /// Number of committed transactions in the log, lifetime — including
    /// transactions folded into a checkpoint and no longer held in memory.
    pub fn log_len(&self) -> usize {
        let log = self.log.read();
        log.base + log.txns.len()
    }

    /// Transactions with absolute index `>= cursor`, in commit order, each
    /// shared with the log rather than copied. Agents track a cursor; the
    /// returned slice index becomes the new cursor. Cursors below the log
    /// base (possible after recovery from a checkpoint) yield everything
    /// still retained — the retained suffix is exactly what a
    /// checkpoint-restored table image does not yet include, and
    /// replication applies are idempotent anyway.
    pub fn log_since(&self, cursor: usize) -> Vec<Arc<CommittedTxn>> {
        let log = self.log.read();
        let idx = cursor.saturating_sub(log.base);
        log.txns.get(idx..).unwrap_or(&[]).to_vec()
    }

    /// Transactions with absolute index in `[from, to)`, in commit order,
    /// clamped to what is retained as [`MasterDb::log_since`] is.
    pub fn log_between(&self, from: usize, to: usize) -> Vec<Arc<CommittedTxn>> {
        let log = self.log.read();
        let from = from.saturating_sub(log.base);
        let to = to.saturating_sub(log.base).min(log.txns.len());
        log.txns.get(from..to).unwrap_or(&[]).to_vec()
    }

    /// Transactions with absolute index `>= cursor` whose commit time is at
    /// or before `as_of` — what a distribution agent propagating at time
    /// `t` with delivery delay `d` sees (`as_of = t − d`).
    pub fn log_since_until(&self, cursor: usize, as_of: Timestamp) -> Vec<Arc<CommittedTxn>> {
        let log = self.log.read();
        let idx = cursor.saturating_sub(log.base);
        log.txns
            .get(idx..)
            .unwrap_or(&[])
            .iter()
            .take_while(|t| t.commit_time <= as_of)
            .cloned()
            .collect()
    }

    /// Id and time of the latest committed transaction (zero / epoch if no
    /// update has ever committed).
    pub fn latest_commit(&self) -> (TxnId, Timestamp) {
        let log = self.log.read();
        log.txns
            .last()
            .map(|t| (t.id, t.commit_time))
            .unwrap_or((TxnId::ZERO, Timestamp::ZERO))
    }

    /// Compute fresh statistics for a master table.
    pub fn compute_stats(&self, table: &str) -> Result<TableStats> {
        let t = self.storage.table(table)?.snapshot();
        Ok(TableStats::compute(&t))
    }

    /// A master table's current snapshot, used to populate a newly created
    /// cached view, plus the log cursor it stands at, so the subscribing
    /// agent knows where to resume. Pinning the snapshot is one refcount
    /// bump: no row is copied, and the log lock is held only for that.
    pub fn snapshot_table(&self, table: &str) -> Result<(TableSnapshot, usize)> {
        // Hold the log lock so no transaction commits between pinning the
        // table and reading the cursor.
        let log = self.log.read();
        let snapshot = self.storage.table(table)?.snapshot();
        Ok((snapshot, log.base + log.txns.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::{Column, DataType, Duration, Schema, SimClock};

    fn setup() -> (MasterDb, SimClock) {
        let clock = SimClock::new();
        let catalog = Arc::new(Catalog::new());
        let db = MasterDb::new(catalog.clone(), Arc::new(clock.clone()));
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("val", DataType::Int),
        ]);
        let meta = TableMeta::new(catalog.next_table_id(), "t", schema, vec!["id".into()]).unwrap();
        db.create_table(&meta).unwrap();
        catalog.register_table(meta).unwrap();
        (db, clock)
    }

    fn ins(id: i64, val: i64) -> TableChange {
        TableChange::new(
            "t",
            RowChange::Insert(Row::new(vec![Value::Int(id), Value::Int(val)])),
        )
    }

    #[test]
    fn txn_ids_and_times_monotonic() {
        let (db, clock) = setup();
        let t1 = db.execute_txn(vec![ins(1, 10)]).unwrap();
        clock.advance(Duration::from_secs(3));
        let t2 = db.execute_txn(vec![ins(2, 20)]).unwrap();
        assert!(t2.id > t1.id);
        assert!(t2.commit_time > t1.commit_time);
        assert_eq!(db.latest_commit(), (t2.id, t2.commit_time));
    }

    #[test]
    fn txn_applies_to_master_table() {
        let (db, _) = setup();
        db.execute_txn(vec![ins(1, 10), ins(2, 20)]).unwrap();
        let t = db.table("t").unwrap();
        assert_eq!(t.snapshot().row_count(), 2);
        db.execute_txn(vec![TableChange::new(
            "t",
            RowChange::Delete {
                key: vec![Value::Int(1)],
            },
        )])
        .unwrap();
        assert_eq!(t.snapshot().row_count(), 1);
    }

    #[test]
    fn empty_and_bad_txns_rejected() {
        let (db, _) = setup();
        assert!(db.execute_txn(vec![]).is_err());
        assert!(db
            .execute_txn(vec![TableChange::new(
                "ghost",
                RowChange::Delete { key: vec![] }
            )])
            .is_err());
        assert_eq!(db.log_len(), 0, "failed txns must not reach the log");
    }

    #[test]
    fn log_cursors() {
        let (db, _) = setup();
        db.execute_txn(vec![ins(1, 1)]).unwrap();
        db.execute_txn(vec![ins(2, 2)]).unwrap();
        db.execute_txn(vec![ins(3, 3)]).unwrap();
        assert_eq!(db.log_len(), 3);
        assert_eq!(db.log_since(0).len(), 3);
        assert_eq!(db.log_since(2).len(), 1);
        assert_eq!(db.log_since(99).len(), 0);
        assert_eq!(db.log_between(1, 3), db.log_since(1));
        assert_eq!(db.log_between(1, 2).len(), 1);
        assert!(db.log_between(2, 2).is_empty());
        assert_eq!(db.log_between(2, 99), db.log_since(2), "clamped to the end");
        assert!(db.log_between(5, 9).is_empty());
    }

    #[test]
    fn log_until_respects_commit_time() {
        let (db, clock) = setup();
        db.execute_txn(vec![ins(1, 1)]).unwrap(); // t=0
        clock.advance(Duration::from_secs(10));
        db.execute_txn(vec![ins(2, 2)]).unwrap(); // t=10s
        let visible = db.log_since_until(0, Timestamp(5_000));
        assert_eq!(visible.len(), 1);
        let visible = db.log_since_until(0, Timestamp(10_000));
        assert_eq!(visible.len(), 2);
    }

    #[test]
    fn heartbeat_beats_through_log() {
        let (db, clock) = setup();
        clock.advance(Duration::from_secs(7));
        let txn = db.beat(RegionId(3)).unwrap();
        assert_eq!(txn.changes.len(), 1);
        let hb = db.table(HEARTBEAT_TABLE).unwrap();
        let row = hb.snapshot().row(&[Value::Int(3)]).unwrap().to_vec();
        assert_eq!(row[1], Value::Timestamp(7_000));
        // second beat updates in place
        clock.advance(Duration::from_secs(2));
        db.beat(RegionId(3)).unwrap();
        assert_eq!(hb.snapshot().row_count(), 1);
        assert_eq!(
            hb.snapshot().row(&[Value::Int(3)]).unwrap()[1],
            Value::Timestamp(9_000)
        );
    }

    #[test]
    fn bulk_load_is_unlogged() {
        let (db, _) = setup();
        db.bulk_load("t", vec![Row::new(vec![Value::Int(1), Value::Int(1)])])
            .unwrap();
        assert_eq!(db.log_len(), 0);
        assert_eq!(db.table("t").unwrap().snapshot().row_count(), 1);
    }

    #[test]
    fn snapshot_returns_rows_and_cursor() {
        let (db, _) = setup();
        db.execute_txn(vec![ins(1, 1)]).unwrap();
        let (snapshot, cursor) = db.snapshot_table("t").unwrap();
        assert_eq!(snapshot.row_count(), 1);
        assert_eq!(cursor, 1);
        db.execute_txn(vec![ins(2, 2)]).unwrap();
        assert_eq!(db.log_since(cursor).len(), 1);
    }

    #[test]
    fn stats_computed_from_master() {
        let (db, _) = setup();
        for i in 0..50 {
            db.execute_txn(vec![ins(i, i * 2)]).unwrap();
        }
        let stats = db.compute_stats("t").unwrap();
        assert_eq!(stats.row_count, 50);
    }

    mod durable {
        use super::*;
        use rcc_storage::{DurableStore, SyncPolicy};
        use std::path::{Path, PathBuf};

        fn temp_dir(tag: &str) -> PathBuf {
            let dir = std::env::temp_dir().join(format!("rcc-master-{}-{tag}", std::process::id()));
            let _ = std::fs::remove_dir_all(&dir);
            dir
        }

        /// Build a master over `dir`, replaying whatever the store holds.
        fn durable_setup(dir: &Path) -> (MasterDb, SimClock, usize) {
            let (store, state) = DurableStore::open(dir, SyncPolicy::Always).unwrap();
            let (db, clock) = setup();
            let replayed = db
                .recover(
                    state.tables,
                    state.base_log_len,
                    state.next_id,
                    &state.commits,
                )
                .unwrap();
            if state.last_clock_ms > 0 {
                clock.set(Timestamp(state.last_clock_ms));
            }
            db.attach_durability(store);
            (db, clock, replayed)
        }

        #[test]
        fn commits_survive_reopen_without_checkpoint() {
            let dir = temp_dir("wal");
            {
                let (db, clock, _) = durable_setup(&dir);
                db.execute_txn(vec![ins(1, 10)]).unwrap();
                clock.advance(Duration::from_secs(5));
                db.execute_txn(vec![ins(2, 20)]).unwrap();
                db.execute_txn(vec![TableChange::new(
                    "t",
                    RowChange::Delete {
                        key: vec![Value::Int(1)],
                    },
                )])
                .unwrap();
            } // dropped without checkpoint: the crash path
            let (db, clock, replayed) = durable_setup(&dir);
            assert_eq!(replayed, 3);
            assert_eq!(db.log_len(), 3);
            let t = db.table("t").unwrap().snapshot();
            assert_eq!(t.row_count(), 1);
            assert_eq!(
                t.row(&[Value::Int(2)]).unwrap()[1],
                Value::Int(20),
                "deleted row must not resurrect"
            );
            assert_eq!(clock.now(), Timestamp(5_000), "clock restored from log");
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn checkpoint_truncates_wal_and_preserves_cursors() {
            let dir = temp_dir("ckpt");
            {
                let (db, _, _) = durable_setup(&dir);
                db.execute_txn(vec![ins(1, 10)]).unwrap();
                db.execute_txn(vec![ins(2, 20)]).unwrap();
                assert!(db.checkpoint(&[]).unwrap());
                assert_eq!(db.durability().unwrap().wal_records(), 0);
                db.execute_txn(vec![ins(3, 30)]).unwrap();
            }
            let (db, _, replayed) = durable_setup(&dir);
            assert_eq!(replayed, 1, "only the post-checkpoint tail replays");
            assert_eq!(db.log_len(), 3, "absolute length includes the base");
            assert_eq!(db.table("t").unwrap().snapshot().row_count(), 3);
            // A cursor taken before the checkpoint still drains correctly.
            assert_eq!(db.log_since(2).len(), 1);
            assert_eq!(db.log_since(0).len(), 1, "clamped to the retained tail");
            let (_, cursor) = db.snapshot_table("t").unwrap();
            assert_eq!(cursor, 3);
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn watermarks_roundtrip_through_store() {
            let dir = temp_dir("wm");
            {
                let (db, _, _) = durable_setup(&dir);
                db.persist_watermark("CR1", 7, 4_000).unwrap();
                db.persist_watermark("CR1", 9, 6_000).unwrap();
                db.persist_watermark("CR2", 3, -1).unwrap();
            }
            let (store, state) = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
            drop(store);
            assert_eq!(state.watermarks.len(), 2);
            let cr1 = state.watermarks.iter().find(|w| w.region == "CR1").unwrap();
            assert_eq!((cr1.cursor, cr1.heartbeat_ms), (9, 6_000));
            let cr2 = state.watermarks.iter().find(|w| w.region == "CR2").unwrap();
            assert_eq!((cr2.cursor, cr2.heartbeat_ms), (3, -1));
            std::fs::remove_dir_all(&dir).unwrap();
        }

        #[test]
        fn in_memory_master_is_unaffected() {
            let (db, _) = setup();
            assert!(db.durability().is_none());
            assert!(!db.checkpoint(&[]).unwrap());
            db.persist_watermark("CR1", 1, 0).unwrap();
            db.execute_txn(vec![ins(1, 1)]).unwrap();
            assert_eq!(db.log_len(), 1);
        }
    }
}
