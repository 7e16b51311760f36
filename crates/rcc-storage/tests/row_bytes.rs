//! What a stored row costs in memory, counted by a global allocator that
//! tracks the bytes requested and not yet freed.
//!
//! A table of `(Int, Int, Float)` rows clustered on the two `Int`s: each
//! row's cells are 3 × 24 = 72 bytes, and the chunk slot that points at
//! them is 16. A clustered key stored apart from its row (two more
//! `Value`s) would add 48 bytes a row, and again to every chunk a
//! copy-on-write write copies.
//!
//! The file holds one test, so no other test allocates while it counts.
//! `cargo test --release -p rcc-storage --test row_bytes -- --nocapture`
//! prints the figures.

// A global allocator is an `unsafe impl`; this file is the one place in
// the crate that needs one.
#![allow(unsafe_code)]

use rcc_common::{Column, DataType, Row, Schema, Value};
use rcc_storage::Table;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes allocated and not yet freed, as requested (not as rounded up by
/// the system allocator).
static LIVE: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` with its own arguments, so
// `System` upholds the allocator contract; the counter is only bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed on unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed on unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size(), Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // SAFETY: `ptr` came from this allocator, which is `System`'s.
        let p = unsafe { System.realloc(ptr, layout, new_size) };
        if !p.is_null() {
            LIVE.fetch_add(new_size, Relaxed);
            LIVE.fetch_sub(layout.size(), Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> usize {
    LIVE.load(Relaxed)
}

const ROWS: usize = 100_000;
/// Rows a storage chunk holds, so a copy-on-write write copies at most
/// this many.
const CHUNK: usize = 256;
/// A row's cells: three 24-byte `Value`s.
const CELLS: usize = 3 * std::mem::size_of::<Value>();

fn row(i: i64, x: f64) -> Row {
    Row::new(vec![
        Value::Int(i / 10),
        Value::Int(i % 10),
        Value::Float(x),
    ])
}

#[test]
fn a_stored_row_costs_its_cells_and_one_slot() {
    assert_eq!(CELLS, 72);
    let schema = Schema::new(vec![
        Column::new("a", DataType::Int),
        Column::new("b", DataType::Int),
        Column::new("x", DataType::Float),
    ]);
    let mut table = Table::new("t", schema, vec![0, 1]);
    let empty = live();
    let rows: Vec<Row> = (0..ROWS as i64).map(|i| row(i, i as f64)).collect();
    table.load(rows).unwrap();
    // the loaded rows' vector is gone; the table holds the rows themselves
    let per_row = (live() - empty) as f64 / ROWS as f64;

    // a write under a snapshot copies the one chunk it lands in
    let snapshot = table.clone();
    let new = row(ROWS as i64 / 2, -1.0);
    let before = live();
    table.upsert(new).unwrap();
    let copied = live() - before;
    // a chunk slot is one row: a pointer to its cells and their count
    let chunk_of_rows = CHUNK * (16 + CELLS);

    println!(
        "row_bytes: {per_row:.1} bytes per stored row ({CELLS} of cells); \
         a one-row write under a snapshot allocated {copied} bytes \
         (one chunk of rows is {chunk_of_rows})"
    );
    assert!(per_row <= 96.0, "{per_row:.1} bytes per stored row");
    assert!(
        copied <= chunk_of_rows + 256,
        "a one-row write copied {copied} bytes, more than a chunk of rows"
    );
    assert_eq!(snapshot.row_count(), ROWS);
    assert_eq!(
        table.get(&[Value::Int(5_000), Value::Int(0)]),
        Some(&row(50_000, -1.0))
    );
}
