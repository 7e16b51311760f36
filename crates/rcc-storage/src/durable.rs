//! Durable store: WAL + checkpoint file behind the in-memory tables.
//!
//! A data directory holds two files:
//!
//! * `wal.log` — the write-ahead log ([`crate::wal`]). Committed
//!   transactions and replication watermarks are appended here; the sync
//!   policy decides when they become durable.
//! * `pages.db` — the latest checkpoint, written in one pass to a tmp file
//!   and published with an atomic rename. A 4 KiB header (magic, payload
//!   length, CRC32, zero padding) precedes the payload, which captures
//!   every table's rows, the replication watermarks, the log position, and
//!   the simulation clock. Bytes after the payload are ignored.
//!
//! Recovery order on open: read the checkpoint (if any), then scan the WAL,
//! keeping only commits newer than the checkpoint's transaction id and the
//! latest watermark per region. A torn WAL tail is truncated; a checkpoint
//! is either whole (rename is atomic) or absent, so the pair can always be
//! reconciled. After a checkpoint succeeds the WAL is reset; a crash
//! between the rename and the reset is safe because replay deduplicates by
//! transaction id.

use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicI64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use rcc_common::{Error, Result, Row, Value};

use crate::codec::{self, crc32, Reader};
use crate::snapshot::TableSnapshot;
use crate::table::Table;
use crate::wal::{CommitRecord, SyncPolicy, Wal, WalRecord, WatermarkRecord};

/// File magic for checkpoint files.
pub const CHECKPOINT_MAGIC: &[u8; 8] = b"RCCCKP01";

/// Checkpoint header size: magic, payload length (u64 LE), CRC32 of the
/// payload (u32 LE), zero-padded to 4 KiB — the page-0 layout of older
/// data directories, which therefore open unchanged.
const HEADER_LEN: usize = 4096;

const WAL_FILE: &str = "wal.log";
const PAGES_FILE: &str = "pages.db";
const PAGES_TMP: &str = "pages.db.tmp";

/// Counters describing one recovery pass, surfaced as a `recovery` event.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryStats {
    /// WAL commit records replayed on top of the checkpoint.
    pub commits_replayed: u64,
    /// Bytes cut from the WAL's torn or corrupt tail.
    pub truncated_bytes: u64,
    /// Per-region replication watermarks restored.
    pub watermarks_restored: u64,
    /// Tables restored from the checkpoint.
    pub checkpoint_tables: u64,
    /// Rows restored from the checkpoint.
    pub checkpoint_rows: u64,
}

/// Everything [`DurableStore::open`] recovered from the data directory.
#[derive(Debug)]
pub struct RecoveredState {
    /// Whether a checkpoint file was present.
    pub has_checkpoint: bool,
    /// Per-table rows captured by the checkpoint (empty without one).
    pub tables: Vec<(String, Vec<Row>)>,
    /// Master log length at the checkpoint (the recovered log base).
    pub base_log_len: u64,
    /// Highest transaction id covered by the checkpoint.
    pub next_id: u64,
    /// WAL commits newer than the checkpoint, in commit order.
    pub commits: Vec<CommitRecord>,
    /// Latest persisted watermark per region (checkpoint ∪ WAL).
    pub watermarks: Vec<WatermarkRecord>,
    /// Highest simulation-clock millisecond seen anywhere in the state;
    /// restoring the clock here keeps currency accounting continuous.
    pub last_clock_ms: i64,
    /// Summary counters for the `recovery` journal event.
    pub stats: RecoveryStats,
}

struct CheckpointData {
    clock_ms: i64,
    log_len: u64,
    next_id: u64,
    watermarks: Vec<WatermarkRecord>,
    tables: Vec<(String, Vec<Row>)>,
}

/// Handle on an open data directory.
pub struct DurableStore {
    dir: PathBuf,
    wal: Wal,
    last_checkpoint_ms: AtomicI64,
    checkpoint_mutex: Mutex<()>,
}

impl std::fmt::Debug for DurableStore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurableStore")
            .field("dir", &self.dir)
            .field("policy", &self.wal.policy())
            .field("wal_bytes", &self.wal.bytes())
            .field("wal_records", &self.wal.records())
            .finish()
    }
}

fn io_err(op: &str, path: &Path, e: std::io::Error) -> Error {
    Error::Storage(format!("durable {op} {}: {e}", path.display()))
}

/// fsync `dir`, so a rename or file creation inside it survives a power
/// cut: syncing a file does not persist its directory entry.
fn sync_dir(dir: &Path) -> Result<()> {
    File::open(dir)
        .and_then(|d| d.sync_all())
        .map_err(|e| io_err("fsync dir", dir, e))
}

/// The rows a checkpoint writes for one table, read by reference: a
/// pinned table snapshot, or a list of rows.
pub trait CheckpointRows {
    /// How many rows there are.
    fn row_count(&self) -> usize;
    /// The rows' cells, in the order they are written.
    fn rows(&self) -> impl Iterator<Item = &[Value]>;
}

impl CheckpointRows for Vec<Row> {
    fn row_count(&self) -> usize {
        self.len()
    }
    fn rows(&self) -> impl Iterator<Item = &[Value]> {
        self.iter().map(Row::values)
    }
}

impl CheckpointRows for TableSnapshot {
    fn row_count(&self) -> usize {
        Table::row_count(self)
    }
    fn rows(&self) -> impl Iterator<Item = &[Value]> {
        Table::rows(self)
    }
}

/// The whole checkpoint file: header, then the payload.
fn encode_checkpoint(
    tables: &[(String, impl CheckpointRows)],
    watermarks: &[WatermarkRecord],
    log_len: u64,
    next_id: u64,
    clock_ms: i64,
) -> Vec<u8> {
    let mut out = vec![0u8; HEADER_LEN];
    out.extend_from_slice(&clock_ms.to_le_bytes());
    out.extend_from_slice(&log_len.to_le_bytes());
    out.extend_from_slice(&next_id.to_le_bytes());
    out.extend_from_slice(&(watermarks.len() as u32).to_le_bytes());
    for w in watermarks {
        codec::encode_str(&w.region, &mut out);
        out.extend_from_slice(&w.cursor.to_le_bytes());
        out.extend_from_slice(&w.heartbeat_ms.to_le_bytes());
    }
    out.extend_from_slice(&(tables.len() as u32).to_le_bytes());
    for (name, rows) in tables {
        codec::encode_str(name, &mut out);
        out.extend_from_slice(&(rows.row_count() as u32).to_le_bytes());
        for row in rows.rows() {
            codec::encode_values(row, &mut out);
        }
    }
    let payload = &out[HEADER_LEN..];
    let (len, crc) = (payload.len() as u64, crc32(payload));
    out[..8].copy_from_slice(CHECKPOINT_MAGIC);
    out[8..16].copy_from_slice(&len.to_le_bytes());
    out[16..20].copy_from_slice(&crc.to_le_bytes());
    out
}

fn decode_checkpoint(payload: &[u8]) -> Result<CheckpointData> {
    let mut r = Reader::new(payload);
    let clock_ms = r.i64()?;
    let log_len = r.u64()?;
    let next_id = r.u64()?;
    let wm_count = r.u32()? as usize;
    let mut watermarks = Vec::with_capacity(wm_count.min(1024));
    for _ in 0..wm_count {
        watermarks.push(WatermarkRecord {
            region: r.str()?,
            cursor: r.u64()?,
            heartbeat_ms: r.i64()?,
        });
    }
    let table_count = r.u32()? as usize;
    let mut tables = Vec::with_capacity(table_count.min(1024));
    for _ in 0..table_count {
        let name = r.str()?;
        let row_count = r.u32()? as usize;
        if row_count > r.remaining() {
            return Err(Error::Storage(format!(
                "checkpoint table {name} claims {row_count} rows in {} bytes",
                r.remaining()
            )));
        }
        let mut rows = Vec::with_capacity(row_count);
        for _ in 0..row_count {
            rows.push(Row::new(r.values()?));
        }
        tables.push((name, rows));
    }
    if !r.is_exhausted() {
        return Err(Error::Storage(format!(
            "checkpoint payload has {} trailing bytes",
            r.remaining()
        )));
    }
    Ok(CheckpointData {
        clock_ms,
        log_len,
        next_id,
        watermarks,
        tables,
    })
}

/// Read the checkpoint file at `path`; errors mean real corruption (the
/// rename protocol never exposes a partial file).
fn read_checkpoint(path: &Path) -> Result<CheckpointData> {
    let bytes = std::fs::read(path).map_err(|e| io_err("read", path, e))?;
    if bytes.len() < HEADER_LEN {
        return Err(Error::Storage(format!(
            "checkpoint is {} bytes, shorter than its {HEADER_LEN}-byte header",
            bytes.len()
        )));
    }
    let (header, body) = bytes.split_at(HEADER_LEN);
    if &header[..8] != CHECKPOINT_MAGIC {
        return Err(Error::Storage("checkpoint magic mismatch".into()));
    }
    let mut r = Reader::new(&header[8..20]);
    let (payload_len, crc) = (r.u64()?, r.u32()?);
    if payload_len > body.len() as u64 {
        return Err(Error::Storage(format!(
            "checkpoint claims {payload_len} payload bytes, file holds {}",
            body.len()
        )));
    }
    let payload = &body[..payload_len as usize];
    if crc32(payload) != crc {
        return Err(Error::Storage("checkpoint payload CRC mismatch".into()));
    }
    decode_checkpoint(payload)
}

impl DurableStore {
    /// Open a data directory, recovering checkpoint + WAL state.
    pub fn open(dir: &Path, policy: SyncPolicy) -> Result<(Arc<DurableStore>, RecoveredState)> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("mkdir", dir, e))?;
        // A leftover .tmp means a checkpoint died before its rename; the
        // previous checkpoint (if any) plus the WAL are authoritative.
        let tmp = dir.join(PAGES_TMP);
        if tmp.exists() {
            std::fs::remove_file(&tmp).map_err(|e| io_err("rm tmp", &tmp, e))?;
        }

        let pages_path = dir.join(PAGES_FILE);
        let checkpoint = pages_path
            .exists()
            .then(|| read_checkpoint(&pages_path))
            .transpose()?;

        let (wal, wal_rec) = Wal::open(&dir.join(WAL_FILE), policy)?;
        // A newly created wal.log must not vanish with its directory entry.
        sync_dir(dir)?;

        let has_checkpoint = checkpoint.is_some();
        let (tables, base_log_len, next_id, clock_ms, mut watermark_map) = match checkpoint {
            Some(c) => (c.tables, c.log_len, c.next_id, c.clock_ms, c.watermarks),
            None => (Vec::new(), 0, 0, i64::MIN, Vec::new()),
        };

        let mut commits = Vec::new();
        let mut last_clock_ms = clock_ms;
        for rec in wal_rec.records {
            match rec {
                WalRecord::Commit(c) => {
                    last_clock_ms = last_clock_ms.max(c.commit_ms);
                    if c.id > next_id {
                        commits.push(c);
                    }
                }
                WalRecord::Watermark(w) => {
                    last_clock_ms = last_clock_ms.max(w.heartbeat_ms);
                    match watermark_map.iter_mut().find(|m| m.region == w.region) {
                        Some(slot) => *slot = w,
                        None => watermark_map.push(w),
                    }
                }
            }
        }

        let checkpoint_rows: u64 = tables.iter().map(|(_, rows)| rows.len() as u64).sum();
        let stats = RecoveryStats {
            commits_replayed: commits.len() as u64,
            truncated_bytes: wal_rec.truncated_bytes,
            watermarks_restored: watermark_map.len() as u64,
            checkpoint_tables: tables.len() as u64,
            checkpoint_rows,
        };
        let state = RecoveredState {
            has_checkpoint,
            tables,
            base_log_len,
            next_id,
            commits,
            watermarks: watermark_map,
            last_clock_ms,
            stats,
        };
        let store = DurableStore {
            dir: dir.to_path_buf(),
            wal,
            last_checkpoint_ms: AtomicI64::new(if has_checkpoint { clock_ms } else { -1 }),
            checkpoint_mutex: Mutex::new(()),
        };
        Ok((Arc::new(store), state))
    }

    /// Append a commit record; under [`SyncPolicy::Always`] it is durable
    /// on return. Returns the LSN for a later [`DurableStore::sync_commit`].
    pub fn append_commit(&self, rec: &CommitRecord) -> Result<u64> {
        self.wal.append(&WalRecord::Commit(rec.clone()))
    }

    /// Block until the commit at `lsn` is durable (group-commit path).
    pub fn sync_commit(&self, lsn: u64) -> Result<()> {
        self.wal.sync_to(lsn)
    }

    /// Persist a replication watermark. Advisory: watermarks ride the next
    /// fsync rather than forcing their own (a lost watermark only costs a
    /// clamped, idempotent re-propagation after restart).
    pub fn append_watermark(&self, rec: &WatermarkRecord) -> Result<()> {
        self.wal
            .append(&WalRecord::Watermark(rec.clone()))
            .map(|_| ())
    }

    /// Write a checkpoint: all `tables`, the replication `watermarks`, the
    /// log position, and the clock. Written and fsynced as a tmp file, then
    /// renamed over the live one and the directory fsynced; only then is
    /// the WAL reset, so a power cut never leaves a reset WAL beside the
    /// previous checkpoint.
    pub fn checkpoint(
        &self,
        tables: &[(String, impl CheckpointRows)],
        watermarks: &[WatermarkRecord],
        log_len: u64,
        next_id: u64,
        clock_ms: i64,
    ) -> Result<()> {
        let _guard = self.checkpoint_mutex.lock();
        let image = encode_checkpoint(tables, watermarks, log_len, next_id, clock_ms);
        let tmp = self.dir.join(PAGES_TMP);
        let mut file = File::create(&tmp).map_err(|e| io_err("create", &tmp, e))?;
        file.write_all(&image)
            .map_err(|e| io_err("write", &tmp, e))?;
        file.sync_all().map_err(|e| io_err("fsync", &tmp, e))?;
        drop(file);
        let live = self.dir.join(PAGES_FILE);
        std::fs::rename(&tmp, &live).map_err(|e| io_err("rename", &live, e))?;
        sync_dir(&self.dir)?;
        self.wal.reset()?;
        self.last_checkpoint_ms.store(clock_ms, Ordering::Relaxed);
        Ok(())
    }

    /// Data directory this store was opened on.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The WAL durability policy.
    pub fn policy(&self) -> SyncPolicy {
        self.wal.policy()
    }

    /// Current WAL size in bytes.
    pub fn wal_bytes(&self) -> u64 {
        self.wal.bytes()
    }

    /// WAL records since the last checkpoint.
    pub fn wal_records(&self) -> u64 {
        self.wal.records()
    }

    /// Lifetime fsync count.
    pub fn wal_fsyncs(&self) -> u64 {
        self.wal.fsyncs()
    }

    /// Simulation-clock ms of the last checkpoint, or `None` if none.
    pub fn last_checkpoint_ms(&self) -> Option<i64> {
        let ms = self.last_checkpoint_ms.load(Ordering::Relaxed);
        (ms >= 0).then_some(ms)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::table::RowChange;
    use rcc_common::Value;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("rcc-durable-{}-{tag}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn commit(id: u64, ms: i64) -> CommitRecord {
        CommitRecord {
            id,
            commit_ms: ms,
            changes: vec![(
                "t".into(),
                RowChange::Insert(Row::new(vec![Value::Int(id as i64)])),
            )],
        }
    }

    #[test]
    fn wal_only_recovery() {
        let dir = temp_dir("walonly");
        {
            let (store, state) = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
            assert!(!state.has_checkpoint);
            store.append_commit(&commit(1, 100)).unwrap();
            store.append_commit(&commit(2, 200)).unwrap();
            store
                .append_watermark(&WatermarkRecord {
                    region: "CR1".into(),
                    cursor: 2,
                    heartbeat_ms: 150,
                })
                .unwrap();
        }
        let (_, state) = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(state.commits.len(), 2);
        assert_eq!(state.next_id, 0);
        assert_eq!(state.watermarks.len(), 1);
        assert_eq!(state.watermarks[0].cursor, 2);
        assert_eq!(state.last_clock_ms, 200);
        assert_eq!(state.stats.commits_replayed, 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn checkpoint_then_wal_tail() {
        let dir = temp_dir("ckpt");
        let rows: Vec<Row> = (0..5000)
            .map(|i| Row::new(vec![Value::Int(i), Value::Str(format!("row-{i}"))]))
            .collect();
        {
            let (store, _) = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
            store.append_commit(&commit(1, 100)).unwrap();
            store
                .checkpoint(
                    &[("t".into(), rows.clone())],
                    &[WatermarkRecord {
                        region: "CR1".into(),
                        cursor: 1,
                        heartbeat_ms: 90,
                    }],
                    1,
                    1,
                    100,
                )
                .unwrap();
            assert_eq!(store.wal_records(), 0, "wal reset by checkpoint");
            store.append_commit(&commit(2, 300)).unwrap();
        }
        let (store, state) = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
        assert!(state.has_checkpoint);
        assert_eq!(state.base_log_len, 1);
        assert_eq!(state.next_id, 1);
        assert_eq!(state.tables.len(), 1);
        assert_eq!(state.tables[0].1, rows);
        // Only the post-checkpoint commit replays.
        assert_eq!(state.commits.len(), 1);
        assert_eq!(state.commits[0].id, 2);
        assert_eq!(state.watermarks.len(), 1);
        assert_eq!(state.last_clock_ms, 300);
        assert!(store.last_checkpoint_ms().is_some());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_pinned_snapshot_encodes_as_its_rows_do() {
        let schema = rcc_common::Schema::new(vec![
            rcc_common::Column::new("k", rcc_common::DataType::Int),
            rcc_common::Column::new("s", rcc_common::DataType::Str),
        ]);
        let mut table = Table::new("t", schema, vec![0]);
        let rows: Vec<Row> = (0..700)
            .map(|i| Row::new(vec![Value::Int(i), Value::Str(format!("row-{i}"))]))
            .collect();
        table.load(rows.clone()).unwrap();
        let snapshot: TableSnapshot = Arc::new(table);
        assert_eq!(
            encode_checkpoint(&[("t".to_string(), snapshot)], &[], 3, 2, 1),
            encode_checkpoint(&[("t".to_string(), rows)], &[], 3, 2, 1)
        );
    }

    #[test]
    fn stale_commits_in_wal_are_skipped() {
        let dir = temp_dir("dedupe");
        {
            let (store, _) = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
            store.append_commit(&commit(1, 10)).unwrap();
            store.append_commit(&commit(2, 20)).unwrap();
            // Checkpoint covering both, but crash before wal.reset():
            // simulate by checkpointing then re-appending the same ids.
            let no_tables: &[(String, Vec<Row>)] = &[];
            store.checkpoint(no_tables, &[], 2, 2, 20).unwrap();
            store.append_commit(&commit(1, 10)).unwrap();
            store.append_commit(&commit(2, 20)).unwrap();
            store.append_commit(&commit(3, 30)).unwrap();
        }
        let (_, state) = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
        assert_eq!(state.next_id, 2);
        let ids: Vec<u64> = state.commits.iter().map(|c| c.id).collect();
        assert_eq!(ids, vec![3], "ids covered by the checkpoint are skipped");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn interrupted_checkpoint_tmp_is_discarded() {
        let dir = temp_dir("tmp");
        {
            let (store, _) = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
            store.append_commit(&commit(1, 10)).unwrap();
        }
        std::fs::write(dir.join(PAGES_TMP), b"half a checkpoint").unwrap();
        let (_, state) = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
        assert!(!state.has_checkpoint);
        assert_eq!(state.commits.len(), 1);
        assert!(!dir.join(PAGES_TMP).exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
