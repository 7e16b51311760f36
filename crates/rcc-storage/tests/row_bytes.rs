//! What a stored row costs in memory, counted by a global allocator that
//! tracks the bytes requested and not yet freed, and the allocations made.
//!
//! A table of `(Int, Int, Float)` rows clustered on the two `Int`s: each
//! row's cells are 3 × 24 = 72 bytes, stored inline in their chunk's one
//! cell buffer, so a row costs its cells and a share of its chunk's fence
//! and spine slot. A row boxed on its own would add a 16-byte chunk slot
//! and the allocator's header; a clustered key stored apart from its row
//! (two more `Value`s) would add 48 bytes a row, and again to every chunk
//! a copy-on-write write copies.
//!
//! The file holds one test, so no other test allocates while it counts.
//! `cargo test --release -p rcc-storage --test row_bytes -- --nocapture`
//! prints the figures.

// A global allocator is an `unsafe impl`; this file is the one place in
// the crate that needs one.
#![allow(unsafe_code)]

use rcc_common::{Column, DataType, Row, Schema, Value};
use rcc_storage::{Projection, RowChange, Table};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};

/// Bytes allocated and not yet freed, as requested (not as rounded up by
/// the system allocator).
static LIVE: AtomicUsize = AtomicUsize::new(0);
/// Allocations made (a `realloc` counts as one).
static ALLOCS: AtomicUsize = AtomicUsize::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` with its own arguments, so
// `System` upholds the allocator contract; the counter is only bookkeeping.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed on unchanged.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
            ALLOCS.fetch_add(1, Relaxed);
        }
        p
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller's `layout` contract is passed on unchanged.
        let p = unsafe { System.alloc_zeroed(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Relaxed);
            ALLOCS.fetch_add(1, Relaxed);
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
            ALLOCS.fetch_add(1, Relaxed);
        }
        p
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn live() -> usize {
    LIVE.load(Relaxed)
}

fn allocs() -> usize {
    ALLOCS.load(Relaxed)
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
fn a_stored_row_costs_its_cells() {
    assert_eq!(CELLS, 72);
    let schema = Schema::new(vec![
        Column::new("a", DataType::Int),
        Column::new("b", DataType::Int),
        Column::new("x", DataType::Float),
    ]);
    let mut table = Table::new("t", schema, vec![0, 1]);
    let empty = live();
    // streamed: each row's cells move into a chunk and its box is freed
    table
        .load((0..ROWS as i64).map(|i| row(i, i as f64)))
        .unwrap();
    let per_row = (live() - empty) as f64 / ROWS as f64;

    // a write under a snapshot copies the one chunk it lands in, in one
    // buffer (plus the chunk's `Arc`)
    let snapshot = table.clone();
    let new = row(ROWS as i64 / 2, -1.0);
    let (before, made) = (live(), allocs());
    table.upsert(new).unwrap();
    let (copied, copy_allocs) = (live() - before, allocs() - made);
    let chunk_of_cells = CHUNK * CELLS;
    assert_eq!(snapshot.row_count(), ROWS);
    let cells = |a: i64, b: i64, x: f64| [Value::Int(a), Value::Int(b), Value::Float(x)];
    let key = [Value::Int(5_000), Value::Int(0)];
    assert_eq!(table.row(&key), Some(&cells(5_000, 0, -1.0)[..]));
    assert_eq!(snapshot.row(&key), Some(&cells(5_000, 0, 50_000.0)[..]));
    drop(snapshot);

    // so does an insert of a new key under a snapshot: the copy has room
    // for one more row (the key lands in the last chunk, which is not full)
    let snapshot = table.clone();
    let new = row(ROWS as i64, -2.0);
    let (before, made) = (live(), allocs());
    table.insert(new).unwrap();
    let (inserted, insert_allocs) = (live() - before, allocs() - made);
    let key = [Value::Int(10_000), Value::Int(0)];
    assert_eq!(table.row(&key), Some(&cells(10_000, 0, -2.0)[..]));
    assert_eq!(snapshot.row(&key), None);
    drop(snapshot);

    // replication apply writes the logged row's cells in place: an update
    // of a row the table owns alone allocates nothing, whether it is the
    // logged row itself or a projection of a wider logged row
    let applied = 1_000;
    let made = allocs();
    for i in 0..applied {
        let logged = row(i, i as f64 + 0.5);
        let key = vec![logged.get(0).clone(), logged.get(1).clone()];
        let change = RowChange::Update { key, row: logged };
        let made_here = allocs();
        table.apply(&change).unwrap();
        assert_eq!(allocs(), made_here, "applying update {i} allocated");
    }
    let wide = Row::new(vec![
        Value::Float(7.0),
        Value::Int(3),
        Value::Int(0),
        Value::Int(30),
    ]);
    let made_here = allocs();
    table
        .upsert(Projection::new(wide.values(), &[1, 2, 0]))
        .unwrap();
    assert_eq!(allocs(), made_here, "a projected upsert allocated");
    // the logged rows and their keys are the loop's only allocations
    let per_applied = (allocs() - made) as f64 / applied as f64;

    println!(
        "row_bytes: {per_row:.1} bytes per stored row ({CELLS} of cells); \
         a one-row write under a snapshot allocated {copied} bytes in \
         {copy_allocs} allocations, a new key {inserted} bytes in \
         {insert_allocs} (one chunk of cells is {chunk_of_cells}); \
         {per_applied:.1} allocations per applied row, all of them the \
         logged row and key"
    );
    assert!(per_row <= 76.0, "{per_row:.1} bytes per stored row");
    assert!(
        copied <= chunk_of_cells + 256,
        "a one-row write copied {copied} bytes, more than a chunk of cells"
    );
    assert!(
        copy_allocs <= 2,
        "a one-row write made {copy_allocs} allocations: the chunk's cells \
         are not in one buffer"
    );
    assert!(
        inserted <= chunk_of_cells + 256,
        "a new key under a snapshot copied {inserted} bytes, more than a \
         chunk of cells"
    );
    assert!(
        insert_allocs <= 2,
        "a new key under a snapshot made {insert_allocs} allocations: the \
         chunk was copied more than once"
    );
    assert_eq!(
        table.row(&[Value::Int(3), Value::Int(0)]),
        Some(&cells(3, 0, 7.0)[..])
    );
    assert_eq!(
        table.row(&[Value::Int(99), Value::Int(9)]),
        Some(&cells(99, 9, 999.5)[..])
    );
}
