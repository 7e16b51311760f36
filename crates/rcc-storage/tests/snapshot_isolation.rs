//! Snapshot-isolation proofs for [`TableCell`]: a scan running
//! concurrently with copy-on-write publishes must observe the *whole* old
//! snapshot or the *whole* new one — never a mix of the two.
//!
//! Two layers of evidence:
//!
//! * a model check on the workspace's loom stand-in (`compat/loom`), which
//!   re-runs a small writer-vs-readers model many times with perturbed
//!   scheduling injected at `loom::thread::yield_now` call sites
//!   (`RUSTFLAGS="--cfg loom"` in CI multiplies the iteration count);
//! * a std-thread stress test at a larger scale — several reader threads
//!   scanning flat out while a writer publishes hundreds of versions.
//!
//! The version protocol makes torn reads detectable: version `v` holds
//! exactly `v` rows and every row is tagged `v`, so any snapshot mixing
//! two versions fails either the count or the uniform-tag check.
//!
//! Half the readers read through chunk images: they build the typed image
//! of each chunk their scan covers — racing each other to build the images
//! of the chunks they share, and a writer that copies chunks away — and
//! must see exactly what a row walk sees.

use loom::thread;
use rcc_common::{Column, DataType, Row, Schema, Value};
use rcc_storage::{KeyRange, Table, TableCell};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

fn versioned_table() -> Table {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("version", DataType::Int),
    ]);
    Table::new("t", schema, vec![0])
}

/// Publish version `v`: the table holds rows `0..v`, all tagged `v`.
fn publish_version(cell: &TableCell, v: i64) {
    cell.update(|t| {
        t.upsert(Row::new(vec![Value::Int(v - 1), Value::Int(v)]))?;
        for id in 0..v - 1 {
            t.upsert(Row::new(vec![Value::Int(id), Value::Int(v)]))?;
        }
        Ok(())
    })
    .expect("publish");
}

/// Scan a snapshot — row by row, or through the image of every chunk —
/// and return its version, asserting internal consistency:
/// a uniform tag and a row count equal to that tag.
fn observed_version(cell: &TableCell, via_image: bool) -> i64 {
    let snap = cell.snapshot();
    let mut tags = Vec::new();
    let mut cursor = snap.scan_cursor(&KeyRange::all());
    while let Some(run) = snap.next_run(&mut cursor) {
        let n = run.vals().len();
        match via_image.then(|| run.column(1)) {
            Some(image) => tags.extend((0..n).map(|i| {
                let tag = image.value(run.offset() + i).as_int().expect("tag");
                assert_eq!(tag, run.vals()[i].get(1).as_int().expect("tag"));
                tag
            })),
            None => tags.extend(
                run.vals()
                    .iter()
                    .map(|row| row.get(1).as_int().expect("tag")),
            ),
        }
        snap.advance(&mut cursor, n);
    }
    let version = tags.first().copied().unwrap_or(0);
    assert!(
        tags.iter().all(|&t| t == version),
        "torn snapshot: mixed version tags {tags:?}"
    );
    assert_eq!(
        tags.len() as i64,
        version,
        "torn snapshot: version {version} must hold exactly {version} rows"
    );
    version
}

#[test]
fn loom_scan_concurrent_with_publish_sees_whole_snapshots() {
    loom::model(|| {
        let cell = Arc::new(TableCell::new(versioned_table()));
        let writer = {
            let cell = Arc::clone(&cell);
            thread::spawn(move || {
                for v in 1..=4 {
                    publish_version(&cell, v);
                    thread::yield_now();
                }
            })
        };
        let readers: Vec<_> = (0..4)
            .map(|r| {
                let cell = Arc::clone(&cell);
                thread::spawn(move || {
                    let mut last = 0;
                    for _ in 0..6 {
                        let v = observed_version(&cell, r % 2 == 1);
                        assert!(
                            v >= last,
                            "snapshots went backwards within a reader: {v} < {last}"
                        );
                        last = v;
                        thread::yield_now();
                    }
                })
            })
            .collect();
        writer.join().expect("writer");
        for r in readers {
            r.join().expect("reader");
        }
        for via_image in [false, true] {
            assert_eq!(
                observed_version(&cell, via_image),
                4,
                "final state is the last publish"
            );
        }
    });
}

#[test]
fn stress_readers_never_observe_torn_publishes() {
    const VERSIONS: i64 = 300;
    const READERS: usize = 4;

    let cell = Arc::new(TableCell::new(versioned_table()));
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|r| {
            let cell = Arc::clone(&cell);
            let done = Arc::clone(&done);
            std::thread::spawn(move || {
                let mut scans = 0u64;
                let mut last = 0;
                while !done.load(Ordering::Relaxed) {
                    let v = observed_version(&cell, r % 2 == 1);
                    assert!(v >= last, "non-monotone snapshot: {v} < {last}");
                    last = v;
                    scans += 1;
                }
                scans
            })
        })
        .collect();

    for v in 1..=VERSIONS {
        publish_version(&cell, v);
    }
    done.store(true, Ordering::Relaxed);

    let total_scans: u64 = readers.into_iter().map(|r| r.join().expect("reader")).sum();
    assert!(total_scans > 0, "readers never ran");
    assert_eq!(observed_version(&cell, true), VERSIONS);
    assert_eq!(cell.publish_count(), VERSIONS as u64);
}
