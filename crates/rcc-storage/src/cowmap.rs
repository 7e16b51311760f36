//! A persistent ordered map: sorted chunks behind `Arc`, shared between
//! clones until written.
//!
//! [`CowMap`] is the row container behind [`crate::Table`] and
//! [`crate::SecondaryIndex`]. Every row of a map has the same number of
//! cells, its *width*, and is stored once, inline: a chunk holds its rows'
//! cells back to back in one `Vec<Value>` of `len × width` cells, so a
//! stored row costs exactly its cells and an in-chunk probe, row walk,
//! image build or copy-on-write copy reads one contiguous buffer. A row
//! carries its own key; the map orders rows by the key cells at the
//! ordinals it was made with — a table's rows by their clustered-key
//! cells, an index's entries (also rows) by every cell. Rows are handed
//! out borrowed, as `&[Value]`; what goes in is any [`RowCells`]: an owned
//! [`Row`] (its cells are moved in), a borrowed `&[Value]`, or a
//! [`Projection`] of another row (their cells are cloned in).
//!
//! Rows live in key order in chunks of at most `MAX_CHUNK` rows, each
//! chunk behind an `Arc`, under a flat spine: the chunk pointers plus a
//! *fence* vector holding an owned copy of every chunk's first key, itself
//! behind an `Arc`. That shape is chosen for the copy-on-write snapshot
//! protocol of [`crate::snapshot`]:
//!
//! * **clone** is one refcount bump per chunk (and one for the fences) —
//!   O(chunks), no row is copied;
//! * a **write** copies only the chunk it lands in (`Arc::make_mut`), and
//!   only if another clone still shares it, so its cost is one buffer of
//!   at most `MAX_CHUNK` rows plus an O(log) descent — independent of the
//!   map's size. The fences are copied only when a chunk's first key
//!   changes: a split, a merge, or a write at the very front of a chunk;
//! * **dropping** a clone frees only the chunks no other clone shares.
//!
//! A lookup is two binary searches: over the fences (which stay
//! cache-resident, and spare a pointer chase into each probed chunk), then
//! over the one chunk's rows, comparing the key cells in place — a probe
//! reads a cell of the chunk's own buffer, no row pointer is followed.
//! Positions are exposed as [`Cursor`]s so a range scan is a seek to its
//! start, a gallop from there to its end, and a walk over whole chunk
//! slices, with no per-row bound check. A chunk's buffer holds the cells
//! it was filled with plus `Vec`'s amortized growth: a bulk fill packs full
//! chunks sized once (`Packer`), a copy-on-write copy has room for its
//! original's rows and one more. A bulk fill does not insert row by row:
//! [`CowMap::merge_sorted`] merges a packed run into the map in one pass,
//! keeping every chunk it does not touch shared.
//!
//! Invariants: no chunk is empty, no chunk holds more than `MAX_CHUNK`
//! rows, keys ascend strictly across the whole spine, and `fences[i]` is
//! the first key of `chunks[i]`. A removal that leaves a chunk under
//! `MIN_CHUNK` rows merges it into a neighbour, so a shrinking map does
//! not decay into many tiny chunks.
//!
//! **Chunk images.** A chunk also carries lazily built, immutable
//! *images* of its rows: one typed [`Column`] per column, each made the
//! first time a reader asks for it ([`Run::column`]) — a scan that covers
//! the whole chunk, or a join that reads a key's rows out of it — and an
//! owned [`Row`] per row, made only for a caller that asks for `&Row`s
//! ([`CowMap::get_row`], [`CowMap::iter_rows`]). Images belong to the
//! chunk, so every clone of the map that shares the chunk shares them, and
//! they are freed with the chunk. Every write reaches a chunk through one
//! function (`chunk_mut`): the copy `Arc::make_mut` takes of a shared chunk
//! starts without images, and a chunk this map owns alone has its images
//! dropped before it changes in place — so an image never disagrees with
//! its rows. Chunks of other maps (the secondary indexes) never build one.

use crate::column::Column;
use rcc_common::{Row, Value};
use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

/// Most rows a chunk holds. A write copies one chunk, a clone bumps one
/// refcount per chunk: 256 keeps a one-row write in the tens of
/// microseconds and a 30 000-row spine at ~120 pointers.
const MAX_CHUNK: usize = 256;
/// A removal that leaves a chunk smaller than this merges it away.
const MIN_CHUNK: usize = MAX_CHUNK / 4;

/// A row as storage reads and stores it: its cells by position, and a way
/// to hand them over. An owned [`Row`] moves its cells into storage;
/// everything else (`&[Value]`, a stored row, a [`Projection`]) has them
/// cloned.
pub trait RowCells {
    /// Number of cells.
    fn arity(&self) -> usize;

    /// Cell `i`.
    fn cell(&self, i: usize) -> &Value;

    /// The cells in order, owned: what storage keeps.
    fn into_cells(self) -> impl Iterator<Item = Value>
    where
        Self: Sized,
    {
        (0..self.arity()).map(move |i| self.cell(i).clone())
    }
}

impl RowCells for [Value] {
    fn arity(&self) -> usize {
        self.len()
    }

    fn cell(&self, i: usize) -> &Value {
        &self[i]
    }
}

impl RowCells for Row {
    fn arity(&self) -> usize {
        self.len()
    }

    fn cell(&self, i: usize) -> &Value {
        self.get(i)
    }

    fn into_cells(self) -> impl Iterator<Item = Value> {
        self.into_values().into_iter()
    }
}

impl<R: RowCells + ?Sized> RowCells for &R {
    fn arity(&self) -> usize {
        (**self).arity()
    }

    fn cell(&self, i: usize) -> &Value {
        (**self).cell(i)
    }
}

/// The row whose cell `i` is cell `columns[i]` of `source`: a view's row
/// read off its base row, or an index entry read off a table row, with no
/// row built in between.
#[derive(Debug)]
pub struct Projection<'a, R: ?Sized> {
    source: &'a R,
    columns: &'a [usize],
}

impl<R: ?Sized> Clone for Projection<'_, R> {
    fn clone(&self) -> Self {
        *self
    }
}

impl<R: ?Sized> Copy for Projection<'_, R> {}

impl<'a, R: RowCells + ?Sized> Projection<'a, R> {
    /// The cells of `source` at `columns`, in that order.
    pub fn new(source: &'a R, columns: &'a [usize]) -> Self {
        Projection { source, columns }
    }
}

impl<R: RowCells + ?Sized> RowCells for Projection<'_, R> {
    fn arity(&self) -> usize {
        self.columns.len()
    }

    fn cell(&self, i: usize) -> &Value {
        self.source.cell(self.columns[i])
    }
}

/// How a [`CowMap`] orders its rows: by the key cells each row holds,
/// compared in place in key order — the order of the `[Value]` slice a
/// lookup names a key by. A table orders its rows by their clustered-key
/// cells; a secondary index orders its entries by every cell they hold.
/// The map stores no key apart from its rows but the chunk fences.
#[derive(Debug, Clone)]
pub(crate) struct Clustered {
    /// Ordinals of the key cells, in key order.
    pub(crate) key: Box<[usize]>,
}

impl Clustered {
    /// The key cells of `row`, in key order.
    pub(crate) fn cells<'r, R: RowCells + ?Sized>(
        &'r self,
        row: &'r R,
    ) -> impl Iterator<Item = &'r Value> {
        self.key.iter().map(|&i| row.cell(i))
    }

    /// How `row`'s key orders against `key`.
    pub(crate) fn cmp_key<R: RowCells + ?Sized>(&self, row: &R, key: &[Value]) -> Ordering {
        self.cells(row).cmp(key)
    }

    /// How the keys of two rows order.
    pub(crate) fn cmp<A, B>(&self, a: &A, b: &B) -> Ordering
    where
        A: RowCells + ?Sized,
        B: RowCells + ?Sized,
    {
        self.cells(a).cmp(self.cells(b))
    }

    /// An owned copy of `row`'s key: a chunk's fence.
    fn fence<R: RowCells + ?Sized>(&self, row: &R) -> Box<[Value]> {
        self.cells(row).cloned().collect()
    }
}

/// Consecutive rows of one chunk, borrowed: `len()` rows of `width` cells
/// each, back to back in one slice.
#[derive(Debug, Clone, Copy)]
pub struct RowSlice<'a> {
    cells: &'a [Value],
    width: usize,
}

impl<'a> RowSlice<'a> {
    /// Number of rows.
    pub fn len(&self) -> usize {
        self.cells.len() / self.width
    }

    /// True when the slice holds no row.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Row `i`'s cells.
    pub fn row(&self, i: usize) -> &'a [Value] {
        &self.cells[i * self.width..(i + 1) * self.width]
    }

    /// The rows in order.
    pub fn iter(&self) -> std::slice::ChunksExact<'a, Value> {
        self.cells.chunks_exact(self.width)
    }

    /// Owned copies of the rows.
    pub fn to_rows(&self) -> Vec<Row> {
        self.iter()
            .map(|row| row.iter().cloned().collect())
            .collect()
    }
}

impl<'a> IntoIterator for RowSlice<'a> {
    type Item = &'a [Value];
    type IntoIter = std::slice::ChunksExact<'a, Value>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

/// One run of rows, keys ascending: `cells.len() / width` rows.
#[derive(Debug)]
struct Chunk {
    width: usize,
    cells: Vec<Value>,
    image: Image,
}

/// A chunk's images, each empty until a reader asks for it: one typed
/// column per column, each filled from the chunk's rows the first time it
/// is read; and the rows as owned [`Row`]s.
#[derive(Debug, Default)]
struct Image {
    columns: OnceLock<Box<[OnceLock<Column>]>>,
    rows: OnceLock<Box<[Row]>>,
}

impl Chunk {
    /// An empty chunk of `width`-cell rows with room for `rows` of them.
    fn with_room(width: usize, rows: usize) -> Chunk {
        Chunk {
            width,
            cells: Vec::with_capacity(rows * width),
            image: Image::default(),
        }
    }

    /// Number of rows.
    fn len(&self) -> usize {
        self.cells.len() / self.width
    }

    /// Row `i`'s cells.
    fn row(&self, i: usize) -> &[Value] {
        &self.cells[i * self.width..(i + 1) * self.width]
    }

    /// Rows `lo..hi`.
    fn rows(&self, lo: usize, hi: usize) -> RowSlice<'_> {
        RowSlice {
            cells: &self.cells[lo * self.width..hi * self.width],
            width: self.width,
        }
    }

    /// Move the rows from `at` on into a new chunk.
    fn split_off(&mut self, at: usize) -> Chunk {
        Chunk {
            width: self.width,
            cells: self.cells.split_off(at * self.width),
            image: Image::default(),
        }
    }

    /// Column `ordinal` of the rows, copied on first use.
    fn column(&self, ordinal: usize) -> &Column {
        let slots =
            (self.image.columns).get_or_init(|| (0..self.width).map(|_| OnceLock::new()).collect());
        slots[ordinal]
            .get_or_init(|| Column::from_cells(self.cells.iter().skip(ordinal).step_by(self.width)))
    }

    /// The rows as owned `Row`s, copied on first use.
    fn owned_rows(&self) -> &[Row] {
        (self.image.rows).get_or_init(|| self.rows(0, self.len()).to_rows().into())
    }

    /// Binary search over the rows by `cmp` (how row `i` orders against
    /// what is sought): `Ok` with a row that matches, `Err` with where one
    /// would go.
    fn search(&self, mut cmp: impl FnMut(&[Value]) -> Ordering) -> Result<usize, usize> {
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            match cmp(self.row(mid)) {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Ok(mid),
            }
        }
        Err(lo)
    }

    /// How many leading rows satisfy `below`, which holds for a prefix.
    fn partition_point(&self, mut below: impl FnMut(&[Value]) -> bool) -> usize {
        match self.search(|row| match below(row) {
            true => Ordering::Less,
            false => Ordering::Greater,
        }) {
            Ok(at) | Err(at) => at,
        }
    }
}

/// Every write to a chunk goes through here. A chunk another clone of the
/// map shares is copied first (the copy starts without images); one this
/// map owns alone is written in place, so its images — about to go stale —
/// are dropped.
fn chunk_mut(chunk: &mut Arc<Chunk>) -> &mut Chunk {
    let chunk = Arc::make_mut(chunk);
    chunk.image = Image::default();
    chunk
}

/// The copy `Arc::make_mut` takes before a write: the cells only, in a
/// buffer with room for one more row, so the write the copy is made for
/// (an insert included) needs no second buffer. The images are not copied.
impl Clone for Chunk {
    fn clone(&self) -> Self {
        let mut cells = Vec::with_capacity(self.cells.len() + self.width);
        cells.extend_from_slice(&self.cells);
        Chunk {
            width: self.width,
            cells,
            image: Image::default(),
        }
    }
}

/// A persistent ordered map of rows whose clones share storage chunk by
/// chunk.
#[derive(Clone)]
pub struct CowMap {
    order: Clustered,
    /// Cells per row.
    width: usize,
    /// First key of each chunk.
    fences: Arc<Vec<Box<[Value]>>>,
    chunks: Vec<Arc<Chunk>>,
    len: usize,
}

impl std::fmt::Debug for CowMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CowMap")
            .field("len", &self.len)
            .field("width", &self.width)
            .field("chunks", &self.chunks.len())
            .finish()
    }
}

/// A position in a [`CowMap`]: before some row, or at the end. Cursors
/// order as the positions they name and are only meaningful for the map
/// state they were taken from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cursor {
    chunk: usize,
    slot: usize,
}

impl Cursor {
    /// The position before the first row of any map.
    pub const START: Cursor = Cursor { chunk: 0, slot: 0 };
}

/// Consecutive rows of one chunk, as a scan takes them: made by
/// [`CowMap::run`].
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    /// The run is rows `lo..hi` of the chunk.
    chunk: &'a Chunk,
    lo: usize,
    hi: usize,
    covers_chunk: bool,
}

impl<'a> Run<'a> {
    /// The run's rows, in key order.
    pub fn rows(&self) -> RowSlice<'a> {
        self.chunk.rows(self.lo, self.hi)
    }

    /// Number of rows in the run.
    pub fn len(&self) -> usize {
        self.hi - self.lo
    }

    /// True when the run holds no row (never, for a run a map hands out).
    pub fn is_empty(&self) -> bool {
        self.hi == self.lo
    }

    /// Where the run starts in its chunk: the image cell of `rows().row(0)`.
    pub fn offset(&self) -> usize {
        self.lo
    }

    /// Does the span the run was cut from hold every row of its chunk?
    /// Then the run reaches the chunk's end, and its chunk's image can be
    /// read.
    pub fn covers_chunk(&self) -> bool {
        self.covers_chunk
    }

    /// Column `ordinal` of the run's *whole chunk*, typed — built the first
    /// time any reader asks for it, so reading it for a run that covers
    /// only part of its chunk pays for the whole chunk once. Cell
    /// `offset() + i` is `rows().row(i)`'s.
    pub fn column(&self, ordinal: usize) -> &'a Column {
        self.chunk.column(ordinal)
    }
}

/// How many leading positions of `0..len` satisfy `below`, a predicate
/// that holds for a prefix of them: galloping from the front, so a prefix
/// of `p` costs O(log p) tests wherever `len` ends.
pub(crate) fn gallop(len: usize, mut below: impl FnMut(usize) -> bool) -> usize {
    let mut width = 1;
    while width < len && below(width - 1) {
        width *= 2;
    }
    // `below` holds before `lo`; the prefix ends at `hi` at the latest
    let (mut lo, mut hi) = (width / 2, width.min(len));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        match below(mid) {
            true => lo = mid + 1,
            false => hi = mid,
        }
    }
    lo
}

impl CowMap {
    /// An empty map of `width`-cell rows ordered by the cells at the
    /// ordinals `key`.
    ///
    /// # Panics
    /// Panics if `width` is zero or `key` names no cell of such a row.
    pub fn new(width: usize, key: Vec<usize>) -> Self {
        assert!(width > 0, "a stored row has at least one cell");
        assert!(
            !key.is_empty() && key.iter().all(|&k| k < width),
            "key ordinals must name cells of the row"
        );
        CowMap {
            order: Clustered { key: key.into() },
            width,
            fences: Arc::new(Vec::new()),
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// The order the map keeps its rows in.
    pub(crate) fn order(&self) -> &Clustered {
        &self.order
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the map holds no row.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove every row (chunks shared with other clones live on there).
    pub fn clear(&mut self) {
        self.fences = Arc::new(Vec::new());
        self.chunks.clear();
        self.len = 0;
    }

    /// All rows in key order.
    pub fn iter(&self) -> impl Iterator<Item = &[Value]> {
        let width = self.width;
        self.chunks
            .iter()
            .flat_map(move |c| c.cells.chunks_exact(width))
    }

    /// All rows in key order, as owned `Row`s read off each chunk's row
    /// image (built on first use; prefer [`CowMap::iter`]).
    pub fn iter_rows(&self) -> impl Iterator<Item = &Row> {
        self.chunks.iter().flat_map(|c| c.owned_rows())
    }

    /// The position after the last row.
    pub fn end(&self) -> Cursor {
        Cursor {
            chunk: self.chunks.len(),
            slot: 0,
        }
    }

    /// The first cell of `row`'s key: what a range seek partitions on.
    fn lead<'r>(&self, row: &'r [Value]) -> &'r Value {
        &row[self.order.key[0]]
    }

    /// The position of the first row whose key's lead is not `below`.
    /// `below` must hold for a (possibly empty) prefix of the leads in
    /// order and for no lead after it — a partition point, found in
    /// O(log) comparisons.
    pub fn seek(&self, mut below: impl FnMut(&Value) -> bool) -> Cursor {
        // the partition point lies in the last chunk whose first key is
        // below, or right after it
        let Some(chunk) = (self.fences)
            .partition_point(|f| below(&f[0]))
            .checked_sub(1)
        else {
            return Cursor::START;
        };
        let c = &self.chunks[chunk];
        match c.partition_point(|row| below(self.lead(row))) {
            slot if slot < c.len() => Cursor { chunk, slot },
            _ => Cursor {
                chunk: chunk + 1,
                slot: 0,
            },
        }
    }

    /// [`CowMap::seek`] for a partition point known to lie at or after
    /// `from`: gallops forward from there, so finding the end of a short
    /// span costs O(log span) comparisons on keys next to the ones just
    /// visited instead of a second descent from the top.
    pub fn seek_from(&self, from: Cursor, mut below: impl FnMut(&Value) -> bool) -> Cursor {
        let Some(chunk) = self.chunks.get(from.chunk) else {
            return from;
        };
        let rest = chunk.len().saturating_sub(from.slot);
        let ahead = gallop(rest, |i| below(self.lead(chunk.row(from.slot + i))));
        if ahead < rest {
            Cursor {
                chunk: from.chunk,
                slot: from.slot + ahead,
            }
        } else {
            // past this chunk: the span is long, a descent is cheap beside it
            self.seek(below)
        }
    }

    /// The partition point of a `below` that holds for a prefix of the
    /// rows, known to lie at or after `from`, found without a descent from
    /// the top: whole chunks are skipped by galloping over the fences
    /// (`fence_below` tests the lead of a chunk's first key, which is below
    /// when every row of the chunk before it is), and the one chunk the
    /// point lies in is searched by `ahead`, which answers how many leading
    /// rows of the run it is handed — that chunk from `from` or from its
    /// start on — are below.
    pub fn gallop_from(
        &self,
        from: Cursor,
        mut fence_below: impl FnMut(&Value) -> bool,
        ahead: impl FnOnce(Run<'_>) -> usize,
    ) -> Cursor {
        let Some(chunk) = self.chunks.get(from.chunk) else {
            return from;
        };
        let later = &self.fences[from.chunk + 1..];
        let mut fence_below = |f: &[Value]| fence_below(&f[0]);
        let (ci, lo) = match later.first().is_some_and(|f| fence_below(f)) {
            // the last chunk whose first key is below holds the point
            true => (
                from.chunk + gallop(later.len(), |i| fence_below(&later[i])),
                0,
            ),
            false => (from.chunk, from.slot.min(chunk.len())),
        };
        let chunk = &self.chunks[ci];
        let run = Run {
            chunk,
            lo,
            hi: chunk.len(),
            covers_chunk: lo == 0,
        };
        match lo + ahead(run) {
            slot if slot < chunk.len() => Cursor { chunk: ci, slot },
            _ => Cursor {
                chunk: ci + 1,
                slot: 0,
            },
        }
    }

    /// The rows in `[from, to)` in key order, as one slice per chunk.
    /// Empty when `from >= to`.
    pub fn slices(&self, from: Cursor, to: Cursor) -> impl Iterator<Item = RowSlice<'_>> {
        let stop = self.chunks.len().min(to.chunk + 1);
        (from.chunk..stop).filter_map(move |ci| {
            let chunk = &self.chunks[ci];
            let lo = if ci == from.chunk { from.slot } else { 0 };
            let hi = if ci == to.chunk { to.slot } else { chunk.len() };
            (lo < hi && hi <= chunk.len()).then(|| chunk.rows(lo, hi))
        })
    }

    /// The rows of `span` in the chunk `at` stands in, from `at` on;
    /// `None` once `at` has reached the span's end. The run *covers* its
    /// chunk when `span` holds every row of that chunk — however much of
    /// it a resumed scan has taken already.
    pub fn run(&self, span: (Cursor, Cursor), at: Cursor) -> Option<Run<'_>> {
        let (start, end) = span;
        if at >= end {
            return None;
        }
        let chunk = self.chunks.get(at.chunk)?;
        // clamped, so a cursor from another map state cannot index out of
        // bounds
        let hi = if at.chunk == end.chunk {
            end.slot.min(chunk.len())
        } else {
            chunk.len()
        };
        (at.slot < hi).then(|| Run {
            chunk,
            lo: at.slot,
            hi,
            covers_chunk: start
                <= Cursor {
                    chunk: at.chunk,
                    slot: 0,
                }
                && end.chunk > at.chunk,
        })
    }

    /// `at` moved `n` rows on within its chunk: the next chunk's start
    /// once that passes the chunk's last row.
    pub fn step(&self, at: Cursor, n: usize) -> Cursor {
        let slot = at.slot + n;
        match self.chunks.get(at.chunk) {
            Some(chunk) if slot < chunk.len() => Cursor {
                chunk: at.chunk,
                slot,
            },
            _ => Cursor {
                chunk: at.chunk + 1,
                slot: 0,
            },
        }
    }

    /// The row at `at`, if there is one.
    pub fn entry_at(&self, at: Cursor) -> Option<&[Value]> {
        let chunk = self.chunks.get(at.chunk)?;
        (at.slot < chunk.len()).then(|| chunk.row(at.slot))
    }

    /// Number of chunks in the spine.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// How many of this map's chunks are the same allocation as a chunk of
    /// `other` — what a clone followed by writes still shares.
    pub fn shared_chunks(&self, other: &CowMap) -> usize {
        self.chunks
            .iter()
            .filter(|c| other.chunks.iter().any(|o| Arc::ptr_eq(c, o)))
            .count()
    }

    /// The chunk a key belongs to (the last one starting at or before it;
    /// the first one for a key before every fence) and where in it: `Ok`
    /// with the slot holding the key, `Err` with the slot it would take.
    /// `fence_at_or_before` tests a fence against the key, `cmp` orders a
    /// row's key against it. An empty map answers chunk 0, which does not
    /// exist yet.
    fn locate(
        &self,
        mut fence_at_or_before: impl FnMut(&[Value]) -> bool,
        cmp: impl FnMut(&[Value]) -> Ordering,
    ) -> (usize, Result<usize, usize>) {
        let chunk = self
            .fences
            .partition_point(|f| fence_at_or_before(f))
            .saturating_sub(1);
        let slot = match self.chunks.get(chunk) {
            Some(c) => c.search(cmp),
            None => Err(0),
        };
        (chunk, slot)
    }

    /// Where the row keyed `key` is, or would go.
    fn locate_key(&self, key: &[Value]) -> (usize, Result<usize, usize>) {
        self.locate(|f| f <= key, |row| self.order.cmp_key(row, key))
    }

    /// Where a row keyed as `like` is, or would go.
    fn locate_like<R: RowCells + ?Sized>(&self, like: &R) -> (usize, Result<usize, usize>) {
        let order = &self.order;
        let fence_at_or_before = |f: &[Value]| order.cmp_key(like, f).is_ge();
        self.locate(fence_at_or_before, |row| order.cmp(row, like))
    }

    /// The row stored under `key`.
    pub fn get(&self, key: &[Value]) -> Option<&[Value]> {
        let (chunk, Ok(slot)) = self.locate_key(key) else {
            return None;
        };
        Some(self.chunks[chunk].row(slot))
    }

    /// The row stored under `key` as an owned `Row`, read off its chunk's
    /// row image (built on first use; prefer [`CowMap::get`]).
    pub fn get_row(&self, key: &[Value]) -> Option<&Row> {
        let (chunk, Ok(slot)) = self.locate_key(key) else {
            return None;
        };
        Some(&self.chunks[chunk].owned_rows()[slot])
    }

    /// The one-row run holding the row stored under `key`. It never covers
    /// its chunk: a lookup reads one row.
    pub fn run_of(&self, key: &[Value]) -> Option<Run<'_>> {
        let (chunk, Ok(slot)) = self.locate_key(key) else {
            return None;
        };
        Some(Run {
            chunk: &self.chunks[chunk],
            lo: slot,
            hi: slot + 1,
            covers_chunk: false,
        })
    }
}

/// Packs rows that arrive in key order into full chunks: the one place a
/// spine is built in bulk ([`CowMap::from_sorted`],
/// [`CowMap::merge_sorted`], `Table::load`). It checks no order itself;
/// its caller keeps rows in order, or — a load — checks what it packed
/// before the map is used.
pub(crate) struct Packer<'o> {
    order: &'o Clustered,
    width: usize,
    fences: Vec<Box<[Value]>>,
    chunks: Vec<Arc<Chunk>>,
    /// The chunk being filled; sealed when full or when a kept chunk
    /// follows it.
    open: Chunk,
    len: usize,
}

impl<'o> Packer<'o> {
    /// A packer of `width`-cell rows kept in `order`.
    pub(crate) fn new(order: &'o Clustered, width: usize) -> Packer<'o> {
        Packer {
            order,
            width,
            fences: Vec::new(),
            chunks: Vec::new(),
            open: Chunk::with_room(width, MAX_CHUNK),
            len: 0,
        }
    }

    /// Append one row's cells, exactly `width` of them.
    pub(crate) fn push(&mut self, cells: impl IntoIterator<Item = Value>) {
        if self.open.len() == MAX_CHUNK {
            self.seal();
        }
        let before = self.open.cells.len();
        self.open.cells.extend(cells);
        debug_assert_eq!(self.open.cells.len(), before + self.width, "row width");
        self.len += 1;
    }

    /// The row packed last.
    pub(crate) fn last(&self) -> Option<&[Value]> {
        match self.open.len() {
            0 => self.chunks.last().map(|c| c.row(c.len() - 1)),
            n => Some(self.open.row(n - 1)),
        }
    }

    /// Append a whole chunk as it is — shared, not copied — after sealing
    /// the open one.
    fn keep(&mut self, chunk: Arc<Chunk>, fence: Box<[Value]>) {
        self.seal();
        self.len += chunk.len();
        self.fences.push(fence);
        self.chunks.push(chunk);
    }

    fn seal(&mut self) {
        if self.open.cells.is_empty() {
            return;
        }
        let mut chunk = std::mem::replace(&mut self.open, Chunk::with_room(self.width, MAX_CHUNK));
        if chunk.len() < MAX_CHUNK {
            chunk.cells.shrink_to_fit();
        }
        self.fences.push(self.order.fence(chunk.row(0)));
        self.chunks.push(Arc::new(chunk));
    }

    /// The map of every row packed.
    pub(crate) fn finish(mut self) -> CowMap {
        self.seal();
        CowMap {
            order: self.order.clone(),
            width: self.width,
            fences: Arc::new(self.fences),
            chunks: self.chunks,
            len: self.len,
        }
    }

    /// Every row packed so far, as owned `Row`s, in the order packed.
    pub(crate) fn into_rows(mut self) -> Vec<Row> {
        self.seal();
        let mut rows = Vec::with_capacity(self.len);
        for chunk in self.chunks {
            let mut cells = Arc::unwrap_or_clone(chunk).cells.into_iter();
            while !cells.as_slice().is_empty() {
                rows.push(cells.by_ref().take(self.width).collect());
            }
        }
        rows
    }
}

/// The rows of a map taken apart chunk by chunk, each chunk's cells moved
/// out (copied only if another clone shares the chunk): what
/// [`CowMap::merge_sorted`] merges.
struct Draining {
    width: usize,
    chunks: std::vec::IntoIter<Arc<Chunk>>,
    cells: std::vec::IntoIter<Value>,
}

impl Draining {
    fn new(map: CowMap) -> Draining {
        Draining {
            width: map.width,
            chunks: map.chunks.into_iter(),
            cells: Vec::new().into_iter(),
        }
    }

    /// The next row, not yet taken.
    fn peek(&mut self) -> Option<&[Value]> {
        if self.cells.as_slice().is_empty() {
            self.cells = Arc::unwrap_or_clone(self.chunks.next()?).cells.into_iter();
        }
        Some(&self.cells.as_slice()[..self.width])
    }

    /// Move the next row's cells into `out`.
    fn move_to(&mut self, out: &mut Packer<'_>) {
        if self.peek().is_some() {
            out.push(self.cells.by_ref().take(self.width));
        }
    }
}

impl CowMap {
    /// A map of `width`-cell rows ordered by the cells at the ordinals
    /// `key` holding `rows`, whose keys must ascend strictly, built in one
    /// pass: rows are moved into full chunks in order, with no lookup,
    /// split or copy — the layout an ascending run of inserts leaves, at a
    /// fraction of its cost.
    pub fn from_sorted<R: RowCells>(
        width: usize,
        key: Vec<usize>,
        rows: impl IntoIterator<Item = R>,
    ) -> CowMap {
        let map = CowMap::new(width, key);
        let mut out = Packer::new(&map.order, width);
        for row in rows {
            debug_assert!(out
                .last()
                .is_none_or(|last| map.order.cmp(last, &row).is_lt()));
            out.push(row.into_cells());
        }
        out.finish()
    }

    /// Add the rows of `new` — a map in the same order and width, none of
    /// its keys in this one — in one pass over both. A chunk no new key
    /// falls into is kept as it is, still shared with every clone of the
    /// map; the rows of a chunk new keys do fall into (copied first if a
    /// clone shares it) are merged with them into full chunks. Into an
    /// empty map, `new`'s chunks are taken over whole.
    pub fn merge_sorted(&mut self, new: CowMap) {
        debug_assert_eq!(self.width, new.width);
        if new.is_empty() {
            return;
        }
        if self.is_empty() {
            (self.fences, self.chunks, self.len) = (new.fences, new.chunks, new.len);
            return;
        }
        let mut new = Draining::new(new);
        let fences = std::mem::take(&mut self.fences);
        let chunks = std::mem::take(&mut self.chunks);
        let order = &self.order;
        let width = self.width;
        let mut out = Packer::new(order, width);
        for (i, chunk) in chunks.into_iter().enumerate() {
            // the new keys this chunk takes: those before the next chunk
            let next = fences.get(i + 1);
            let here = |row: &[Value]| next.is_none_or(|f| order.cmp_key(row, f).is_lt());
            if !new.peek().is_some_and(here) {
                out.keep(chunk, fences[i].clone());
                continue;
            }
            let mut kept = Arc::unwrap_or_clone(chunk).cells.into_iter();
            loop {
                let old = kept.as_slice().get(..width);
                let take_new = match (old, new.peek().filter(|row| here(row))) {
                    (None, None) => break,
                    (Some(a), Some(b)) => order.cmp(b, a).is_lt(),
                    (None, Some(_)) => true,
                    (Some(_), None) => false,
                };
                match take_new {
                    true => new.move_to(&mut out),
                    false => out.push(kept.by_ref().take(width)),
                }
            }
        }
        while new.peek().is_some() {
            new.move_to(&mut out);
        }
        let merged = out.finish();
        (self.fences, self.chunks, self.len) = (merged.fences, merged.chunks, merged.len);
    }

    /// The slot for a row keyed as `like`, found in one descent: occupied
    /// (read it, replace it) or vacant (insert there). Nothing is copied
    /// until the slot is written.
    pub fn entry<R: RowCells + ?Sized>(&mut self, like: &R) -> Entry<'_> {
        match self.locate_like(like) {
            (chunk, Ok(slot)) => Entry::Occupied(OccupiedEntry {
                map: self,
                at: Cursor { chunk, slot },
            }),
            (chunk, Err(slot)) => Entry::Vacant(VacantEntry {
                map: self,
                at: Cursor { chunk, slot },
            }),
        }
    }

    /// Insert `row`, or replace the row with the same key; returns the row
    /// replaced.
    pub fn insert(&mut self, row: impl RowCells) -> Option<Row> {
        match self.entry(&row) {
            Entry::Occupied(mut slot) => {
                let old = slot.get().iter().cloned().collect();
                slot.replace(row);
                Some(old)
            }
            Entry::Vacant(slot) => {
                slot.insert(row);
                None
            }
        }
    }

    /// Remove the row keyed `key`, and return it if it was present.
    pub fn remove(&mut self, key: &[Value]) -> Option<Row> {
        let (ci, Ok(slot)) = self.locate_key(key) else {
            return None;
        };
        Some(self.remove_at(ci, slot, |cells| cells.collect()))
    }

    /// Remove the row keyed as `like`; true if one was present.
    pub fn remove_like<R: RowCells + ?Sized>(&mut self, like: &R) -> bool {
        let (ci, Ok(slot)) = self.locate_like(like) else {
            return false;
        };
        self.remove_at(ci, slot, |cells| drop(cells));
        true
    }

    /// Remove row `slot` of chunk `ci`, handing its cells to `take`.
    fn remove_at<T>(
        &mut self,
        ci: usize,
        slot: usize,
        take: impl FnOnce(std::vec::Drain<'_, Value>) -> T,
    ) -> T {
        let chunk = chunk_mut(&mut self.chunks[ci]);
        let width = chunk.width;
        let taken = take(chunk.cells.drain(slot * width..(slot + 1) * width));
        self.len -= 1;
        if chunk.cells.is_empty() {
            // a tail chunk that never filled up, or the last one left
            self.chunks.remove(ci);
            Arc::make_mut(&mut self.fences).remove(ci);
            return taken;
        }
        if slot == 0 {
            Arc::make_mut(&mut self.fences)[ci] = self.order.fence(chunk.row(0));
        }
        if chunk.len() < MIN_CHUNK && self.chunks.len() > 1 {
            self.merge_small(ci);
        }
        taken
    }

    /// Fold the under-filled chunk `ci` into a neighbour, re-splitting if
    /// the pair does not fit one chunk.
    fn merge_small(&mut self, ci: usize) {
        // with the right neighbour, or the left one for the last chunk
        let left = ci.min(self.chunks.len() - 2);
        let right = Arc::unwrap_or_clone(self.chunks.remove(left + 1));
        let fences = Arc::make_mut(&mut self.fences);
        fences.remove(left + 1);
        let merged = chunk_mut(&mut self.chunks[left]);
        merged.cells.extend(right.cells);
        if merged.len() > MAX_CHUNK {
            let tail = merged.split_off(merged.len() / 2);
            fences.insert(left + 1, self.order.fence(tail.row(0)));
            self.chunks.insert(left + 1, Arc::new(tail));
        }
    }
}

/// A slot of a [`CowMap`] located by [`CowMap::entry`].
pub enum Entry<'a> {
    /// A row with the key is present.
    Occupied(OccupiedEntry<'a>),
    /// No row has the key; this is where it would go.
    Vacant(VacantEntry<'a>),
}

/// A slot holding a row with the key looked up.
pub struct OccupiedEntry<'a> {
    map: &'a mut CowMap,
    at: Cursor,
}

impl OccupiedEntry<'_> {
    /// The stored row.
    pub fn get(&self) -> &[Value] {
        self.map.chunks[self.at.chunk].row(self.at.slot)
    }

    /// Overwrite the stored row's cells with `row`'s, which must hold the
    /// same key. Copies the chunk first if another clone of the map shares
    /// it.
    pub fn replace(&mut self, row: impl RowCells) {
        debug_assert!(self.map.order.cmp(self.get(), &row).is_eq());
        let chunk = chunk_mut(&mut self.map.chunks[self.at.chunk]);
        let width = chunk.width;
        let stored = &mut chunk.cells[self.at.slot * width..(self.at.slot + 1) * width];
        for (cell, new) in stored.iter_mut().zip(row.into_cells()) {
            *cell = new;
        }
    }
}

/// A slot no row with the key looked up holds.
pub struct VacantEntry<'a> {
    map: &'a mut CowMap,
    at: Cursor,
}

impl VacantEntry<'_> {
    /// Insert `row`, which must hold the key the slot was looked up with.
    pub fn insert(self, row: impl RowCells) {
        let VacantEntry { map, at } = self;
        let (mut ci, mut slot) = (at.chunk, at.slot);
        let width = map.width;
        let full = map.chunks.get(ci).is_some_and(|c| c.len() == MAX_CHUNK);
        let past_last = slot == MAX_CHUNK && ci + 1 == map.chunks.len();
        if map.chunks.is_empty() || (full && past_last) {
            // The first row of all, or one past a full last chunk: start a
            // new chunk — splitting would leave every chunk of an
            // ascending bulk load half empty.
            Arc::make_mut(&mut map.fences).push(map.order.fence(&row));
            let mut chunk = Chunk::with_room(width, 1);
            chunk.cells.extend(row.into_cells());
            map.chunks.push(Arc::new(chunk));
            map.len += 1;
            return;
        }
        if full {
            let tail = chunk_mut(&mut map.chunks[ci]).split_off(MAX_CHUNK / 2);
            let fence = map.order.fence(tail.row(0));
            Arc::make_mut(&mut map.fences).insert(ci + 1, fence);
            map.chunks.insert(ci + 1, Arc::new(tail));
            if slot > MAX_CHUNK / 2 {
                ci += 1;
                slot -= MAX_CHUNK / 2;
            }
        }
        if slot == 0 {
            // smaller than every key of the map: the first chunk's new fence
            Arc::make_mut(&mut map.fences)[ci] = map.order.fence(&row);
        }
        let chunk = chunk_mut(&mut map.chunks[ci]);
        let at = slot * width;
        chunk.cells.splice(at..at, row.into_cells());
        map.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    /// The map's tests store `(key, value)` pairs as two-cell rows ordered
    /// by their first cell, against a `BTreeMap<u32, u32>` oracle.
    type Map = CowMap;

    fn new_map() -> Map {
        CowMap::new(2, vec![0])
    }

    fn sorted_pairs(pairs: impl Iterator<Item = (u32, u32)>) -> Map {
        CowMap::from_sorted(2, vec![0], pairs.map(|(k, v)| pair(k, v)))
    }

    fn pair(k: u32, v: u32) -> Row {
        Row::new(vec![Value::Int(k.into()), Value::Int(v.into())])
    }

    fn int(cell: &Value) -> u32 {
        cell.as_int().unwrap() as u32
    }

    fn unpair(row: &[Value]) -> (u32, u32) {
        (int(&row[0]), int(&row[1]))
    }

    fn key(k: u32) -> [Value; 1] {
        [Value::Int(k.into())]
    }

    /// `BTreeMap::insert`'s answer: the value replaced.
    fn put(map: &mut Map, k: u32, v: u32) -> Option<u32> {
        map.insert(pair(k, v)).map(|row| unpair(row.values()).1)
    }

    fn value(map: &Map, k: u32) -> Option<u32> {
        map.get(&key(k)).map(|row| unpair(row).1)
    }

    fn take(map: &mut Map, k: u32) -> Option<u32> {
        map.remove(&key(k)).map(|row| unpair(row.values()).1)
    }

    fn check(map: &Map, oracle: &BTreeMap<u32, u32>) {
        assert_eq!(map.len(), oracle.len());
        assert!(map
            .iter()
            .map(unpair)
            .eq(oracle.iter().map(|(&k, &v)| (k, v))));
        assert_eq!(map.fences.len(), map.chunks.len());
        for (fence, c) in map.fences.iter().zip(&map.chunks) {
            assert!(c.len() > 0 && c.len() <= MAX_CHUNK);
            assert_eq!(c.cells.len(), c.len() * c.width);
            assert_eq!(**fence, c.row(0)[..1]);
        }
    }

    /// A deterministic scramble of `0..n` (n and the stride coprime).
    fn scrambled(n: u32) -> impl Iterator<Item = u32> {
        (0..n).map(move |i| (i * 7919) % n)
    }

    #[test]
    fn ascending_load_fills_chunks() {
        let (mut map, mut oracle) = (new_map(), BTreeMap::new());
        let n = 3 * MAX_CHUNK as u32;
        for k in 0..n {
            assert_eq!(put(&mut map, k, k), oracle.insert(k, k));
        }
        assert_eq!(map.chunk_count(), 3);
        assert_eq!(value(&map, 300), Some(300));
        assert_eq!(value(&map, 9999), None);
        // one past a full last chunk opens a new chunk; emptying it drops it
        map.insert(pair(n, n));
        assert_eq!(map.chunk_count(), 4);
        assert_eq!(take(&mut map, n), Some(n));
        assert_eq!(map.chunk_count(), 3);
        check(&map, &oracle);
    }

    #[test]
    fn random_inserts_and_removes_match_btreemap() {
        let n = 5 * MAX_CHUNK as u32 + 3;
        let (mut map, mut oracle) = (new_map(), BTreeMap::new());
        assert_eq!(value(&map, 0), None);
        assert_eq!(take(&mut map, 0), None);
        assert_eq!(map.seek(|_| true), map.end());
        for k in scrambled(n) {
            assert_eq!(put(&mut map, k, k + 1), oracle.insert(k, k + 1));
        }
        check(&map, &oracle);
        assert!(map.chunk_count() >= 5, "the load crossed split boundaries");
        // replace in place
        for k in (0..n).step_by(3) {
            assert_eq!(put(&mut map, k, 0), oracle.insert(k, 0));
        }
        check(&map, &oracle);
        let chunks_full = map.chunk_count();
        // drain in a scrambled order, through every merge, down to empty
        for (i, k) in scrambled(n).enumerate() {
            assert_eq!(take(&mut map, k), oracle.remove(&k));
            assert_eq!(take(&mut map, k), None);
            if i % 97 == 0 {
                check(&map, &oracle);
            }
        }
        check(&map, &oracle);
        assert!(chunks_full > 1 && map.chunk_count() == 0 && map.is_empty());
        assert_eq!(value(&map, 0), None);
        assert_eq!(take(&mut map, 0), None);
    }

    #[test]
    fn writes_leave_other_clones_untouched() {
        let mut map = new_map();
        for k in 0..1000u32 {
            map.insert(pair(k * 2, k));
        }
        let before = map.clone();
        assert_eq!(before.shared_chunks(&map), map.chunk_count());
        map.insert(pair(400, 9999)); // replace
        map.insert(pair(401, 1)); // new key
        take(&mut map, 1200);
        assert_eq!(value(&before, 400), Some(200));
        assert_eq!(value(&before, 401), None);
        assert_eq!(value(&before, 1200), Some(600));
        assert_eq!(before.len(), 1000);
        assert_eq!(value(&map, 400), Some(9999));
        assert_eq!(value(&map, 401), Some(1));
        assert_eq!(value(&map, 1200), None);
        // 400/401 landed in (and split) the first chunk, 1200 in the third
        assert_eq!((map.chunk_count(), map.shared_chunks(&before)), (5, 2));
        // an entry that is looked up but not written copies nothing
        let mut reader = before.clone();
        assert!(matches!(reader.entry(&pair(400, 0)), Entry::Occupied(_)));
        assert!(matches!(reader.entry(&pair(401, 0)), Entry::Vacant(_)));
        assert_eq!(reader.shared_chunks(&before), before.chunk_count());
    }

    #[test]
    fn seek_and_slices_walk_ranges_across_chunks() {
        let mut map = new_map();
        for k in 0..1000u32 {
            map.insert(pair(k, 0));
        }
        let keys = |from, to| -> Vec<u32> {
            map.slices(from, to)
                .flat_map(|entries| entries.iter().map(|row| unpair(row).0))
                .collect()
        };
        let (lo, hi) = (MAX_CHUNK as u32 - 3, 2 * MAX_CHUNK as u32 + 5);
        let from = map.seek(|k| int(k) < lo);
        let to = map.seek(|k| int(k) <= hi);
        assert_eq!(keys(from, to), (lo..=hi).collect::<Vec<_>>());
        assert_eq!(keys(Cursor::START, map.end()).len(), 1000);
        assert_eq!(map.seek(|_| true), map.end());
        assert_eq!(map.seek(|_| false), Cursor::START);
        // a cursor on a chunk boundary names the next chunk's first slot
        let boundary = map.seek(|k| int(k) < MAX_CHUNK as u32);
        assert_eq!(boundary, Cursor { chunk: 1, slot: 0 });
        assert_eq!(keys(Cursor::START, boundary).len(), MAX_CHUNK);
        assert!(keys(to, from).is_empty(), "reversed span is empty");
        // galloping from a cursor lands where the descent does
        for hi in [lo, lo + 1, lo + 5, MAX_CHUNK as u32, hi, 998, 999, 5000] {
            let want = map.seek(|k| int(k) <= hi);
            assert_eq!(map.seek_from(from, |k| int(k) <= hi), want, "to {hi}");
            assert_eq!(map.seek_from(Cursor::START, |k| int(k) <= hi), want);
        }
        assert_eq!(map.seek_from(map.end(), |_| true), map.end());
        assert!(keys(from, from).is_empty());
    }

    #[test]
    fn walk_resumes_where_it_stopped() {
        let mut map = new_map();
        for k in 0..1000u32 {
            map.insert(pair(k, k));
        }
        let (lo, hi) = (MAX_CHUNK as u32 - 3, 3 * MAX_CHUNK as u32 + 5);
        let span = (map.seek(|k| int(k) < lo), map.seek(|k| int(k) <= hi));
        // any stride, including ones that stop on a chunk's last entry,
        // takes each value of the span exactly once, in order; a run covers
        // its chunk exactly when the span holds all of that chunk, wherever
        // in it the walk resumes
        for stride in [1usize, 3, 7, MAX_CHUNK, 5000] {
            let mut at = span.0;
            let (mut seen, mut covered) = (Vec::new(), Vec::new());
            while let Some(run) = map.run(span, at) {
                assert_eq!(run.offset(), at.slot);
                let take = run.len().min(stride);
                seen.extend(run.rows().iter().take(take).map(|row| unpair(row).1));
                if run.covers_chunk && covered.last() != Some(&at.chunk) {
                    covered.push(at.chunk);
                }
                at = map.step(at, take);
            }
            assert_eq!(seen, (lo..=hi).collect::<Vec<_>>(), "stride {stride}");
            assert_eq!(covered, [1, 2], "stride {stride}");
        }
        assert_eq!(map.entry_at(span.0).map(unpair), Some((lo, lo)));
        assert_eq!(map.entry_at(map.end()), None);
        // an empty or reversed span yields nothing
        assert!(map.run((span.0, span.0), span.0).is_none());
        assert!(map.run((span.1, span.0), span.1).is_none());
    }

    // ------------------------------------------------------ sorted loads

    #[test]
    fn from_sorted_packs_full_chunks() {
        for n in [0u32, 1, 255, 256, 257, 3 * 256, 1000] {
            let map = sorted_pairs((0..n).map(|k| (2 * k, k)));
            let oracle: BTreeMap<u32, u32> = (0..n).map(|k| (2 * k, k)).collect();
            check(&map, &oracle);
            assert_eq!(
                map.chunk_count(),
                (n as usize).div_ceil(MAX_CHUNK),
                "n = {n}"
            );
            // every chunk but the last is full: what ascending inserts leave
            let mut inserted = new_map();
            for k in 0..n {
                inserted.insert(pair(2 * k, k));
            }
            let sizes = |m: &Map| -> Vec<usize> { m.chunks.iter().map(|c| c.len()).collect() };
            assert_eq!(sizes(&map), sizes(&inserted), "n = {n}");
            assert!(value(&map, 1).is_none());
        }
    }

    #[test]
    fn merge_sorted_keeps_untouched_chunks_shared() {
        // four full chunks of even keys, 0..2048
        let mut map = sorted_pairs((0..1024u32).map(|k| (2 * k, k)));
        let mut oracle: BTreeMap<u32, u32> = map.iter().map(unpair).collect();
        let before = map.clone();
        // odd keys into chunk 1 only, and a run past the end
        let new: Vec<(u32, u32)> = (600..620)
            .step_by(2)
            .map(|k| (k + 1, 0))
            .chain((3000..3300).map(|k| (k, 1)))
            .collect();
        oracle.extend(new.iter().copied());
        map.merge_sorted(sorted_pairs(new.iter().copied()));
        check(&map, &oracle);
        // chunks 0 and 2 are the same allocations; chunk 1 and the last
        // chunk, which takes every key after it, were copied (a clone
        // shares them) and merged with their new keys
        assert_eq!(map.shared_chunks(&before), 2);
        assert_eq!(before.len(), 1024);
        assert_eq!(value(&before, 601), None);
        assert_eq!(value(&map, 601), Some(0));
        // new keys before the first and between chunks, into a map no clone
        // shares: each lands where an insert would
        let mut owned = sorted_pairs((10..20u32).map(|k| (10 * k, k)));
        let mut oracle: BTreeMap<u32, u32> = owned.iter().map(unpair).collect();
        let new: Vec<(u32, u32)> = [(1, 1), (5, 5), (101, 0), (155, 0), (999, 9)].into();
        oracle.extend(new.iter().copied());
        owned.merge_sorted(sorted_pairs(new.iter().copied()));
        check(&owned, &oracle);
        // merging nothing changes nothing
        let again = owned.clone();
        owned.merge_sorted(new_map());
        check(&owned, &oracle);
        assert_eq!(owned.shared_chunks(&again), again.chunk_count());
    }

    #[test]
    fn merge_sorted_into_a_split_map_matches_btreemap() {
        // a scrambled insert order leaves half-full chunks; merging a
        // scrambled-then-sorted set of new keys must still land every key
        let n = 4 * MAX_CHUNK as u32 + 7;
        let (mut map, mut oracle) = (new_map(), BTreeMap::new());
        for k in scrambled(n) {
            map.insert(pair(3 * k, k));
            oracle.insert(3 * k, k);
        }
        let mut new: Vec<(u32, u32)> = scrambled(n).map(|k| (3 * k + 1, k)).collect();
        new.sort_unstable();
        oracle.extend(new.iter().copied());
        map.merge_sorted(sorted_pairs(new.iter().copied()));
        check(&map, &oracle);
        // a write after a merge splits and merges as before
        for k in scrambled(n).step_by(5) {
            assert_eq!(take(&mut map, 3 * k), oracle.remove(&(3 * k)));
        }
        check(&map, &oracle);
    }

    // ------------------------------------------------------- chunk images

    use crate::{KeyRange, Table};
    use proptest::prelude::*;
    use rcc_common::{DataType, Schema, Value};

    /// A string column with NULLs, a float column, a column of mixed
    /// types and a string column of no NULL whose strings change length
    /// with the value, so images carry validity masks and a boxed `Any`
    /// column, and a chunk's buffer holds cells that own heap memory of
    /// every size.
    fn imaged_row(k: i64, v: i64) -> Row {
        Row::new(vec![
            Value::Int(k),
            match v % 5 {
                0 => Value::Null,
                _ => Value::Str(format!("s{v}")),
            },
            Value::Float(v as f64 / 4.0),
            match v % 3 {
                0 => Value::Int(v),
                1 => Value::from("m"),
                _ => Value::Null,
            },
            Value::Str(format!("{k}:{}", "x".repeat((v % 40) as usize))),
        ])
    }

    fn imaged_table(keys: impl Iterator<Item = i64>) -> Table {
        let schema = Schema::new(vec![
            rcc_common::Column::new("k", DataType::Int),
            rcc_common::Column::new("s", DataType::Str),
            rcc_common::Column::new("f", DataType::Float),
            rcc_common::Column::new("m", DataType::Int),
            rcc_common::Column::new("t", DataType::Str),
        ]);
        let mut t = Table::new("t", schema, vec![0]);
        for k in keys {
            t.insert(imaged_row(k, k)).unwrap();
        }
        t
    }

    /// Scan `range` a run at a time, reading every run through its chunk's
    /// image: each image must hold exactly its chunk's cells, and the rows
    /// walked must be the ones `collect_range` returns. Returns how many
    /// runs covered their chunk.
    fn image_reads_rows(t: &Table, range: &KeyRange) -> usize {
        let mut cursor = t.scan_cursor(range);
        let (mut walked, mut imaged) = (Vec::new(), 0);
        while let Some(run) = t.next_run(&mut cursor) {
            let rows = run.rows();
            imaged += usize::from(run.covers_chunk());
            for c in 0..t.schema().len() {
                let column = run.column(c);
                // a covering run reaches its chunk's end; others may stop short
                let end = run.offset() + rows.len();
                assert!(column.len() == end || !run.covers_chunk() && column.len() > end);
                for (i, row) in rows.iter().enumerate() {
                    let (cell, stored) = (column.value(run.offset() + i), &row[c]);
                    assert!(
                        cell == *stored && cell.data_type() == stored.data_type(),
                        "column {c}, row {i}: image {cell:?}, stored {stored:?}"
                    );
                }
            }
            walked.extend(rows.to_rows());
            t.advance(&mut cursor, rows.len());
        }
        assert_eq!(walked, t.collect_range(range, |_| true));
        imaged
    }

    /// Every way a write reaches a chunk, on a table that owns its chunks
    /// alone — so each write changes a chunk in place — after a scan built
    /// every image: a replace, a delete, an insert, an insert that splits a
    /// full chunk (into its upper half, so only the split touches the old
    /// chunk), and the delete that merges the last chunk into its left
    /// neighbour. Each must drop the image of the chunk it changes, or the
    /// next scan reads the old cells.
    #[test]
    fn an_in_place_write_drops_the_chunk_image() {
        const FULL: i64 = MAX_CHUNK as i64;
        let mut t = imaged_table((0..4 * FULL).map(|k| 2 * k));
        assert_eq!(image_reads_rows(&t, &KeyRange::all()), 4, "four chunks");
        // the last chunk, one delete short of a merge
        for k in 3 * FULL + MIN_CHUNK as i64 - 1..4 * FULL - 1 {
            t.delete(&[Value::Int(2 * k)]);
        }
        let writes: [fn(&mut Table); 5] = [
            // replace, in chunk 0
            |t| t.update(&[Value::Int(10)], imaged_row(10, 7)).unwrap(),
            // delete, then insert, in chunk 1
            |t| assert!(t.delete(&[Value::Int(2 * FULL + 2)]).is_some()),
            |t| t.insert(imaged_row(2 * FULL + 5, 1)).unwrap(),
            // split chunk 2, inserting into the new upper half
            |t| t.insert(imaged_row(6 * FULL - 7, 2)).unwrap(),
            // merge the last chunk into the upper half
            |t| assert!(t.delete(&[Value::Int(8 * FULL - 2)]).is_some()),
        ];
        for write in writes {
            image_reads_rows(&t, &KeyRange::all());
            write(&mut t);
            image_reads_rows(&t, &KeyRange::all());
        }
        // the split made a chunk and the merge took one away
        assert_eq!(image_reads_rows(&t, &KeyRange::all()), 4);
    }

    proptest! {
        #![proptest_config(ProptestConfig {
            cases: if cfg!(miri) { 2 } else { 64 },
            ..ProptestConfig::default()
        })]

        /// Random inserts, updates and deletes on a table of five chunks,
        /// interleaved with whole-range and partial scans, with and without
        /// an older snapshot held — so chunks are both copied on write and
        /// changed in place: every image a scan reads holds its chunk's
        /// cells exactly, in the live table and in the held snapshot.
        #[test]
        fn images_agree_with_rows_under_random_writes(
            ops in proptest::collection::vec((0u8..8, 0i64..2600, 0i64..1000), 1..48),
        ) {
            let mut t = imaged_table((0..1200).map(|k| 2 * k));
            let mut held: Option<Table> = None;
            for (op, key, v) in ops {
                match op {
                    // an update of an even key, an insert between two
                    0 => t.upsert(imaged_row(key & !1, v)).unwrap(),
                    1 => t.upsert(imaged_row(key | 1, v)).unwrap(),
                    // one row, or a stretch that shrinks chunks into merges
                    2 => drop(t.delete(&[Value::Int(key)])),
                    3 => (key..key + 300).for_each(|k| drop(t.delete(&[Value::Int(k)]))),
                    4 => drop(image_reads_rows(&t, &KeyRange::all())),
                    5 => drop(image_reads_rows(&t, &KeyRange::between(Value::Int(key), Value::Int(key + 700)))),
                    _ => {
                        if let Some(snapshot) = &held {
                            image_reads_rows(snapshot, &KeyRange::all());
                        }
                        held = (op == 6).then(|| t.clone());
                    }
                }
            }
            image_reads_rows(&t, &KeyRange::all());
            if let Some(snapshot) = &held {
                image_reads_rows(snapshot, &KeyRange::all());
            }
        }
    }
}
