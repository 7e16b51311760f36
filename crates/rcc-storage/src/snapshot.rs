//! Copy-on-write table snapshots with epoch-style publication.
//!
//! The hot read path of the cache is the scan, and the paper's whole
//! premise is that scans are served locally while replication refreshes
//! arrive concurrently. Holding a reader/writer lock for the duration of a
//! scan (the pre-snapshot design) lets one refresh writer stall every
//! reader. Here a table is instead an immutable [`TableSnapshot`]
//! published through a [`TableCell`]: readers grab an `Arc` to the current
//! snapshot and then scan entirely lock-free; writers take a private
//! working table that *shares* every row and index chunk with the current
//! snapshot (see [`crate::cowmap`]), mutate it — which copies only the
//! chunks a change lands in — and publish it with an atomic epoch bump. A
//! scan therefore never blocks behind a refresh and never observes a torn
//! table state — it sees the table exactly as of some publish, in full —
//! and a write costs the rows it touches, not the table's size. Snapshots
//! retained by the slot ring or by readers keep only the chunks that newer
//! snapshots have since replaced.
//!
//! ## Publication protocol
//!
//! The cell keeps a small ring of `SLOTS` slots, each holding an
//! `Arc<Table>`, plus a monotonically increasing `epoch`. Publish `e`
//! installs the new snapshot into slot `(e + 1) % SLOTS` *before* bumping
//! the epoch (release store), so the slot named by any observed epoch
//! always holds a fully published snapshot. Readers load the epoch
//! (acquire), lock that slot's `RwLock` just long enough to clone the
//! `Arc` — an O(1) refcount bump, never held across the scan — and go.
//! A reader that gets lapped by `SLOTS` publishes between the epoch load
//! and the slot read simply clones a *newer* published snapshot, which is
//! still atomic (the slot content is only ever replaced wholesale under
//! the slot's write lock). Writers serialize on a separate mutex so two
//! publishers can never interleave their read-copy-update cycles and lose
//! an update.

use crate::table::Table;
use parking_lot::{Mutex, MutexGuard, RwLock};
use rcc_common::Result;
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;

/// An immutable, atomically published table state. Everything on [`Table`]
/// that takes `&self` (scans, seeks, index reads, stats) is available on a
/// snapshot; mutation requires going back through [`TableCell`].
pub type TableSnapshot = Arc<Table>;

/// Ring size for the publication slots. Small: a reader only contends with
/// a writer if `SLOTS` publishes complete between its epoch load and its
/// slot read, and even then it just briefly waits for one `Arc` store.
const SLOTS: usize = 4;

/// Shared handle to one table: an epoch-published snapshot ring plus a
/// writer lock. Replaces the old `Arc<RwLock<Table>>` handle — readers no
/// longer take any per-scan lock, and a replication refresh can never
/// stall them.
pub struct TableCell {
    slots: [RwLock<TableSnapshot>; SLOTS],
    /// Publish epoch; `epoch % SLOTS` names the current slot.
    epoch: AtomicUsize,
    /// Serializes writers (copy-on-write cycles must not interleave).
    writer: Mutex<()>,
}

impl TableCell {
    /// Wrap `table` as the initial published snapshot.
    pub fn new(table: Table) -> TableCell {
        let initial = Arc::new(table);
        TableCell {
            slots: std::array::from_fn(|_| RwLock::new(Arc::clone(&initial))),
            epoch: AtomicUsize::new(0),
            writer: Mutex::new(()),
        }
    }

    /// The current published snapshot. The internal slot lock is held only
    /// for the `Arc` clone — O(1), never across the caller's scan — so
    /// readers are never blocked by an in-flight refresh.
    pub fn snapshot(&self) -> TableSnapshot {
        let epoch = self.epoch.load(Ordering::Acquire);
        let guard = self.slots[epoch % SLOTS].read();
        Arc::clone(&guard)
    }

    /// Number of snapshots published so far (0 for a freshly created cell).
    /// Monotonically increasing; feeds the `rcc_snapshot_publishes_total`
    /// metric.
    pub fn publish_count(&self) -> u64 {
        self.epoch.load(Ordering::Acquire) as u64
    }

    /// Install `snapshot` as the new current state. Caller must hold the
    /// writer mutex.
    fn install(&self, snapshot: TableSnapshot) {
        let epoch = self.epoch.load(Ordering::Relaxed);
        let next = epoch.wrapping_add(1);
        *self.slots[next % SLOTS].write() = snapshot;
        self.epoch.store(next, Ordering::Release);
    }

    /// Copy-on-write update: apply `f` to a private working table (see
    /// [`TableCell::begin_write`]) and publish it atomically — but only if
    /// `f` succeeds.
    /// On error nothing is published, so readers never see a partially
    /// applied batch (all-or-nothing at table granularity).
    pub fn update<R>(&self, f: impl FnOnce(&mut Table) -> Result<R>) -> Result<R> {
        let mut writer = self.begin_write();
        let r = f(&mut writer)?;
        writer.publish();
        Ok(r)
    }

    /// Start an explicit copy-on-write transaction: the returned
    /// [`TableWriter`] derefs to a private mutable [`Table`]; call
    /// [`TableWriter::publish`] to install it, or drop it to abort.
    /// The working table starts out sharing all of its storage with the
    /// current snapshot — taking it costs one refcount bump per chunk, not
    /// a copy of the rows — and each mutation copies just the chunk it
    /// lands in, so the published snapshots stay untouched.
    /// Holds the cell's writer lock for its lifetime.
    pub fn begin_write(&self) -> TableWriter<'_> {
        let lock = self.writer.lock();
        let working = Table::clone(&self.snapshot());
        TableWriter {
            cell: self,
            _lock: lock,
            working: Some(working),
        }
    }
}

impl std::fmt::Debug for TableCell {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableCell")
            .field("epoch", &self.epoch.load(Ordering::Relaxed))
            .field("table", &self.snapshot().name().to_string())
            .finish()
    }
}

/// An in-flight copy-on-write transaction on a [`TableCell`]. Mutations go
/// to a private copy; nothing is visible to readers until
/// [`TableWriter::publish`]. Dropping without publishing aborts.
pub struct TableWriter<'a> {
    cell: &'a TableCell,
    _lock: MutexGuard<'a, ()>,
    /// `Some` until published; `publish` moves the table out.
    working: Option<Table>,
}

impl TableWriter<'_> {
    /// Atomically publish the working copy as the new current snapshot.
    pub fn publish(mut self) {
        if let Some(working) = self.working.take() {
            self.cell.install(Arc::new(working));
        }
    }
}

impl Deref for TableWriter<'_> {
    type Target = Table;
    fn deref(&self) -> &Table {
        self.working.as_ref().expect("writer already published")
    }
}

impl DerefMut for TableWriter<'_> {
    fn deref_mut(&mut self) -> &mut Table {
        self.working.as_mut().expect("writer already published")
    }
}

impl std::fmt::Debug for TableWriter<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TableWriter")
            .field("published", &self.working.is_none())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::range::KeyRange;
    use rcc_common::{Column, DataType, Row, Schema, Value};

    fn tiny() -> Table {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("v", DataType::Int),
        ]);
        Table::new("t", schema, vec![0])
    }

    fn row(id: i64, v: i64) -> Row {
        Row::new(vec![Value::Int(id), Value::Int(v)])
    }

    #[test]
    fn snapshot_is_isolated_from_later_updates() {
        let cell = TableCell::new(tiny());
        cell.update(|t| t.insert(row(1, 10))).unwrap();
        let before = cell.snapshot();
        cell.update(|t| t.insert(row(2, 20))).unwrap();
        assert_eq!(before.row_count(), 1, "old snapshot unchanged");
        assert_eq!(cell.snapshot().row_count(), 2);
        assert_eq!(cell.publish_count(), 2);
    }

    #[test]
    fn failed_update_publishes_nothing() {
        let cell = TableCell::new(tiny());
        cell.update(|t| t.insert(row(1, 10))).unwrap();
        let err = cell.update(|t| {
            t.insert(row(2, 20))?;
            t.insert(row(1, 99)) // duplicate key → error
        });
        assert!(err.is_err());
        let snap = cell.snapshot();
        assert_eq!(snap.row_count(), 1, "partial batch not published");
        assert_eq!(cell.publish_count(), 1);
    }

    #[test]
    fn writer_publish_and_abort() {
        let cell = TableCell::new(tiny());
        let mut w = cell.begin_write();
        w.insert(row(1, 1)).unwrap();
        w.publish();
        assert_eq!(cell.snapshot().row_count(), 1);
        let mut w = cell.begin_write();
        w.insert(row(2, 2)).unwrap();
        drop(w); // abort
        assert_eq!(cell.snapshot().row_count(), 1);
        assert_eq!(cell.publish_count(), 1);
    }

    #[test]
    fn concurrent_readers_see_whole_snapshots() {
        let cell = Arc::new(TableCell::new(tiny()));
        // each publish i installs i rows all carrying marker i
        let writer = {
            let cell = Arc::clone(&cell);
            std::thread::spawn(move || {
                for i in 1..=200i64 {
                    cell.update(|t| {
                        t.truncate();
                        for k in 0..i {
                            t.insert(row(k, i))?;
                        }
                        Ok(())
                    })
                    .unwrap();
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|_| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let snap = cell.snapshot();
                        let rows = snap.collect_range(&KeyRange::all(), |_| true);
                        if rows.is_empty() {
                            continue;
                        }
                        let marker = rows[0].get(1).clone();
                        assert!(
                            rows.iter().all(|r| r.get(1) == &marker),
                            "torn snapshot: mixed markers"
                        );
                        assert_eq!(
                            rows.len() as i64,
                            marker.as_int().unwrap(),
                            "row count must match the publish marker"
                        );
                    }
                })
            })
            .collect();
        writer.join().unwrap();
        for r in readers {
            r.join().unwrap();
        }
    }
}
