//! Checkpoint-file robustness: a damaged `pages.db` is refused with a typed
//! storage error and never half-read, and a data directory in the older
//! paged layout (header page, payload from byte 4 096, tail zero-padded to
//! a 4 KiB multiple) opens unchanged.

use rcc_common::{Error, Row, Value};
use rcc_storage::codec::{crc32, encode_str, encode_values};
use rcc_storage::durable::CHECKPOINT_MAGIC;
use rcc_storage::{DurableStore, RecoveredState, SyncPolicy, WatermarkRecord};
use std::path::{Path, PathBuf};

/// The checkpoint header: magic, payload length (u64 LE), CRC32 (u32 LE),
/// zero-padded to 4 KiB.
const HEADER_LEN: usize = 4096;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("rcc-ckpt-robust-{}-{tag}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn rows(n: i64) -> Vec<Row> {
    (0..n)
        .map(|i| {
            Row::new(vec![
                Value::Int(i),
                Value::Str(format!("row-{i}")),
                Value::Float(i as f64 * 0.5),
            ])
        })
        .collect()
}

fn watermarks() -> Vec<WatermarkRecord> {
    vec![
        WatermarkRecord {
            region: "CR1".into(),
            cursor: 41,
            heartbeat_ms: 9_000,
        },
        WatermarkRecord {
            region: "CR2".into(),
            cursor: 40,
            heartbeat_ms: 8_500,
        },
    ]
}

/// Write `image` as the probe directory's `pages.db` and reopen it: the
/// open must fail with `Error::Storage`, so nothing of it is restored.
fn assert_refused(probe: &Path, image: &[u8], what: &str) {
    std::fs::write(probe.join("pages.db"), image).unwrap();
    match DurableStore::open(probe, SyncPolicy::Always) {
        Err(Error::Storage(_)) => {}
        Err(other) => panic!("{what}: wrong error kind {other:?}"),
        Ok((_, state)) => panic!("{what}: damaged checkpoint opened: {:?}", state.stats),
    }
}

#[test]
fn damaged_checkpoint_is_refused_and_never_half_read() {
    let dir = temp_dir("damaged");
    let written = rows(3_000);
    {
        let (store, _) = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
        store
            .checkpoint(
                &[("t".into(), written.clone())],
                &watermarks(),
                41,
                7,
                9_000,
            )
            .unwrap();
    }
    let full = std::fs::read(dir.join("pages.db")).unwrap();
    assert_eq!(&full[..8], CHECKPOINT_MAGIC);
    let payload_len = u64::from_le_bytes(full[8..16].try_into().unwrap()) as usize;
    assert_eq!(payload_len, full.len() - HEADER_LEN, "header, then payload");
    assert!(
        full[20..HEADER_LEN].iter().all(|&b| b == 0),
        "padded header"
    );

    // Every reopen works on a copy of the directory.
    let probe = temp_dir("damaged-probe");
    std::fs::create_dir_all(&probe).unwrap();
    std::fs::copy(dir.join("wal.log"), probe.join("wal.log")).unwrap();

    for cut in 0..HEADER_LEN {
        assert_refused(&probe, &full[..cut], &format!("cut at header byte {cut}"));
    }
    let step = (payload_len / 97).max(1);
    for cut in (HEADER_LEN..full.len())
        .step_by(step)
        .chain([full.len() - 1])
    {
        assert_refused(&probe, &full[..cut], &format!("cut at byte {cut}"));
    }

    let flip = |pos: usize, bit: u8| {
        let mut image = full.clone();
        image[pos] ^= 1 << bit;
        image
    };
    for (field, range) in [("magic", 0..8), ("length", 8..16), ("crc", 16..20)] {
        for pos in range {
            for bit in 0..8 {
                assert_refused(
                    &probe,
                    &flip(pos, bit),
                    &format!("{field} byte {pos} bit {bit}"),
                );
            }
        }
    }
    for pos in (HEADER_LEN..full.len()).step_by(step) {
        let bit = (pos % 8) as u8;
        assert_refused(
            &probe,
            &flip(pos, bit),
            &format!("payload byte {pos} bit {bit}"),
        );
    }

    let mut huge = full.clone();
    huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
    assert_refused(&probe, &huge, "u64::MAX payload length");

    // The refused reopens left the probe's WAL untouched.
    assert_eq!(
        std::fs::read(probe.join("wal.log")).unwrap(),
        std::fs::read(dir.join("wal.log")).unwrap()
    );
    // The undamaged file still restores exactly what was written.
    let (_, state) = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
    assert_eq!(state.tables, vec![("t".to_string(), written)]);
    assert_eq!(state.watermarks, watermarks());
    assert_eq!(state.last_clock_ms, 9_000);
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&probe).unwrap();
}

/// Lay a checkpoint out the way the paged writer did: a 4 KiB header page,
/// the payload from byte 4 096, and the tail zero-padded to a page multiple.
/// The payload is spelled field by field here, independently of the writer.
fn paged_image(
    tables: &[(&str, Vec<Row>)],
    watermarks: &[WatermarkRecord],
    log_len: u64,
    next_id: u64,
    clock_ms: i64,
) -> Vec<u8> {
    let mut payload = Vec::new();
    payload.extend_from_slice(&clock_ms.to_le_bytes());
    payload.extend_from_slice(&log_len.to_le_bytes());
    payload.extend_from_slice(&next_id.to_le_bytes());
    payload.extend_from_slice(&(watermarks.len() as u32).to_le_bytes());
    for w in watermarks {
        encode_str(&w.region, &mut payload);
        payload.extend_from_slice(&w.cursor.to_le_bytes());
        payload.extend_from_slice(&w.heartbeat_ms.to_le_bytes());
    }
    payload.extend_from_slice(&(tables.len() as u32).to_le_bytes());
    for (name, rows) in tables {
        encode_str(name, &mut payload);
        payload.extend_from_slice(&(rows.len() as u32).to_le_bytes());
        for row in rows {
            encode_values(row.values(), &mut payload);
        }
    }
    let mut image = vec![0u8; HEADER_LEN];
    image[..8].copy_from_slice(CHECKPOINT_MAGIC);
    image[8..16].copy_from_slice(&(payload.len() as u64).to_le_bytes());
    image[16..20].copy_from_slice(&crc32(&payload).to_le_bytes());
    image.extend_from_slice(&payload);
    image.resize(image.len().div_ceil(HEADER_LEN) * HEADER_LEN, 0);
    image
}

#[test]
fn paged_layout_data_dir_opens_unchanged() {
    let dir = temp_dir("paged");
    std::fs::create_dir_all(&dir).unwrap();
    let customer = rows(700);
    let orders = rows(129);
    let image = paged_image(
        &[("customer", customer.clone()), ("orders", orders.clone())],
        &watermarks(),
        41,
        7,
        9_000,
    );
    let payload_len = u64::from_le_bytes(image[8..16].try_into().unwrap()) as usize;
    assert!(
        image.len() > HEADER_LEN + payload_len,
        "the tail carries zero padding"
    );
    std::fs::write(dir.join("pages.db"), &image).unwrap();

    let (store, state) = DurableStore::open(&dir, SyncPolicy::Always).unwrap();
    let RecoveredState {
        has_checkpoint,
        tables,
        base_log_len,
        next_id,
        commits,
        watermarks: restored,
        last_clock_ms,
        stats,
    } = state;
    assert!(has_checkpoint);
    assert_eq!(
        tables,
        vec![
            ("customer".to_string(), customer),
            ("orders".to_string(), orders)
        ]
    );
    assert_eq!(restored, watermarks());
    assert_eq!(base_log_len, 41, "log base");
    assert_eq!(next_id, 7);
    assert_eq!(last_clock_ms, 9_000, "clock");
    assert!(commits.is_empty());
    assert_eq!((stats.checkpoint_tables, stats.checkpoint_rows), (2, 829));
    assert_eq!(store.last_checkpoint_ms(), Some(9_000));
    std::fs::remove_dir_all(&dir).unwrap();
}
