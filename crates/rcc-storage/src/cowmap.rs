//! A persistent ordered map: sorted chunks behind `Arc`, shared between
//! clones until written.
//!
//! [`CowMap`] is the row container behind [`crate::Table`] and
//! [`crate::SecondaryIndex`]. Its entries are [`Row`]s, each stored once:
//! a row carries its own key, and the map orders rows by the key cells at
//! the ordinals it was made with — a table's rows by their clustered-key
//! cells, an index's entries (also rows) by every cell.
//! Entries live in key order in chunks of at most `MAX_CHUNK` entries, each
//! chunk behind an `Arc`, under a flat spine: the chunk pointers plus a
//! *fence* vector holding an owned copy of every chunk's first key, itself
//! behind an `Arc`. That shape is chosen for the copy-on-write snapshot
//! protocol of [`crate::snapshot`]:
//!
//! * **clone** is one refcount bump per chunk (and one for the fences) —
//!   O(chunks), no entry is copied;
//! * a **write** copies only the chunk it lands in (`Arc::make_mut`), and
//!   only if another clone still shares it, so its cost is O(chunk) plus an
//!   O(log) descent — independent of the map's size. The fences are copied
//!   only when a chunk's first key changes: a split, a merge, or a write at
//!   the very front of a chunk;
//! * **dropping** a clone frees only the chunks no other clone shares.
//!
//! A lookup is two binary searches: over the fences (which stay
//! cache-resident, and spare a pointer chase into each probed chunk), then
//! over the one chunk's entries, comparing the key cells each entry holds.
//! Positions are exposed as [`Cursor`]s so a range scan is a seek to its
//! start, a gallop from there to its end, and a walk over whole chunk
//! slices, with no per-entry bound check. Chunk buffers are sized for
//! `MAX_CHUNK` entries once and never reallocate, which keeps a bulk load
//! from scattering outgrown buffers between the rows it allocates. A bulk
//! fill does not insert entry by entry: [`CowMap::merge_sorted`] moves a
//! sorted run into full chunks in one pass, keeping every chunk it does
//! not touch shared.
//!
//! Invariants: no chunk is empty, no chunk holds more than `MAX_CHUNK`
//! entries, keys ascend strictly across the whole spine, and `fences[i]` is
//! the first key of `chunks[i]`. A removal that leaves a chunk under
//! `MIN_CHUNK` entries merges it into a neighbour, so a shrinking map does
//! not decay into many tiny chunks.
//!
//! **Chunk images.** A chunk of rows also carries a lazily built,
//! immutable *image*: its rows' cells copied into one typed [`Column`] per
//! column, each column made the first time a reader asks for it
//! ([`Run::column`]) — a scan that covers the whole chunk, or a join that
//! reads a key's rows out of it. The image belongs to the chunk, so
//! every clone of the map that shares the chunk shares its image, and it is
//! freed with the chunk. Every write reaches a chunk through one function
//! (`chunk_mut`): the copy `Arc::make_mut` takes of a shared chunk starts
//! without an image, and a chunk this map owns alone has its image dropped
//! before it changes in place — so an image never disagrees with its rows.
//! Chunks of other maps (the secondary indexes) never build one.

use crate::column::Column;
use rcc_common::{Row, Value};
use std::cmp::Ordering;
use std::sync::{Arc, OnceLock};

/// Most entries a chunk holds. A write copies one chunk, a clone bumps one
/// refcount per chunk: 256 keeps a one-row write in the tens of
/// microseconds and a 30 000-entry spine at ~120 pointers.
const MAX_CHUNK: usize = 256;
/// A removal that leaves a chunk smaller than this merges it away.
const MIN_CHUNK: usize = MAX_CHUNK / 4;

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
    pub(crate) fn cells<'r>(&'r self, row: &'r Row) -> impl Iterator<Item = &'r Value> {
        self.key.iter().map(|&i| row.get(i))
    }

    /// How `row`'s key orders against `key`.
    pub(crate) fn cmp_key(&self, row: &Row, key: &[Value]) -> Ordering {
        self.cells(row).cmp(key)
    }

    /// How the keys of two rows order.
    pub(crate) fn cmp(&self, a: &Row, b: &Row) -> Ordering {
        self.cells(a).cmp(self.cells(b))
    }

    /// An owned copy of `row`'s key: a chunk's fence.
    fn fence(&self, row: &Row) -> Box<[Value]> {
        self.cells(row).cloned().collect()
    }

    /// The first cell of `row`'s key: what a range seek partitions on.
    fn lead<'a>(&self, row: &'a Row) -> &'a Value {
        row.get(self.key[0])
    }
}

/// One run of entries, keys ascending.
#[derive(Debug)]
struct Chunk {
    entries: Vec<Row>,
    image: Image,
}

/// A chunk's typed-column image: one slot per column, each filled from
/// the chunk's rows the first time it is read. Empty until a scan reads
/// it; the slot table is sized by the first row's arity.
#[derive(Debug, Default)]
struct Image(OnceLock<Box<[OnceLock<Column>]>>);

impl Image {
    /// Column `ordinal` of `rows`, copied on first use.
    fn column<'a>(&'a self, rows: &[Row], ordinal: usize) -> &'a Column {
        let slots = self
            .0
            .get_or_init(|| rows[0].values().iter().map(|_| OnceLock::new()).collect());
        slots[ordinal].get_or_init(|| Column::from_cells(rows.iter().map(|row| row.get(ordinal))))
    }
}

impl Chunk {
    /// An empty chunk with room for `MAX_CHUNK` entries. Sizing the buffer
    /// once means a chunk never reallocates as it fills, so a bulk load
    /// leaves no trail of outgrown buffers between the rows it allocates.
    fn new() -> Chunk {
        Chunk {
            entries: Vec::with_capacity(MAX_CHUNK),
            image: Image::default(),
        }
    }

    /// Move the entries from `at` on into a new chunk.
    fn split_off(&mut self, at: usize) -> Chunk {
        let mut tail = Chunk::new();
        tail.entries.extend(self.entries.drain(at..));
        tail
    }
}

/// Every write to a chunk goes through here. A chunk another clone of the
/// map shares is copied first (the copy starts without an image); one this
/// map owns alone is written in place, so its image — about to go stale —
/// is dropped.
fn chunk_mut(chunk: &mut Arc<Chunk>) -> &mut Chunk {
    let chunk = Arc::make_mut(chunk);
    chunk.image = Image::default();
    chunk
}

/// The copy `Arc::make_mut` takes before a write: the entries only, in a
/// full-sized buffer like every chunk's, since an insert is as likely to
/// follow as a replace. The image is not copied.
impl Clone for Chunk {
    fn clone(&self) -> Self {
        let mut copy = Chunk::new();
        copy.entries.extend_from_slice(&self.entries);
        copy
    }
}

/// A persistent ordered map of rows whose clones share storage chunk by
/// chunk.
#[derive(Clone)]
pub struct CowMap {
    order: Clustered,
    /// First key of each chunk.
    fences: Arc<Vec<Box<[Value]>>>,
    chunks: Vec<Arc<Chunk>>,
    len: usize,
}

impl std::fmt::Debug for CowMap {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CowMap")
            .field("len", &self.len)
            .field("chunks", &self.chunks.len())
            .finish()
    }
}

/// A position in a [`CowMap`]: before some entry, or at the end. Cursors
/// order as the positions they name and are only meaningful for the map
/// state they were taken from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct Cursor {
    chunk: usize,
    slot: usize,
}

impl Cursor {
    /// The position before the first entry of any map.
    pub const START: Cursor = Cursor { chunk: 0, slot: 0 };
}

/// Consecutive entries of one chunk, as a scan takes them: made by
/// [`CowMap::run`].
#[derive(Debug, Clone, Copy)]
pub struct Run<'a> {
    /// Every entry of the chunk; the run is `chunk[lo..hi]`.
    chunk: &'a [Row],
    image: &'a Image,
    lo: usize,
    hi: usize,
    covers_chunk: bool,
}

impl<'a> Run<'a> {
    /// The run's entries, in key order.
    pub fn vals(&self) -> &'a [Row] {
        &self.chunk[self.lo..self.hi]
    }

    /// Where the run starts in its chunk: the image cell of `vals()[0]`.
    pub fn offset(&self) -> usize {
        self.lo
    }

    /// Does the span the run was cut from hold every entry of its chunk?
    /// Then the run reaches the chunk's end, and its chunk's image can be
    /// read.
    pub fn covers_chunk(&self) -> bool {
        self.covers_chunk
    }

    /// Column `ordinal` of the run's *whole chunk*, typed — built the first
    /// time any reader asks for it, so reading it for a run that covers
    /// only part of its chunk pays for the whole chunk once. Cell
    /// `offset() + i` is `vals()[i]`'s.
    pub fn column(&self, ordinal: usize) -> &'a Column {
        self.image.column(self.chunk, ordinal)
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
    /// An empty map of rows ordered by the cells at the ordinals `key`.
    pub fn new(key: Vec<usize>) -> Self {
        CowMap {
            order: Clustered { key: key.into() },
            fences: Arc::new(Vec::new()),
            chunks: Vec::new(),
            len: 0,
        }
    }

    /// The order the map keeps its rows in.
    pub(crate) fn order(&self) -> &Clustered {
        &self.order
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the map holds no entry.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Remove every entry (chunks shared with other clones live on there).
    pub fn clear(&mut self) {
        self.fences = Arc::new(Vec::new());
        self.chunks.clear();
        self.len = 0;
    }

    /// All entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = &Row> {
        self.chunks.iter().flat_map(|c| c.entries.iter())
    }

    /// The position after the last entry.
    pub fn end(&self) -> Cursor {
        Cursor {
            chunk: self.chunks.len(),
            slot: 0,
        }
    }

    /// The position of the first entry whose key's lead is not `below`.
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
        let entries = &self.chunks[chunk].entries;
        match entries.partition_point(|e| below(self.order.lead(e))) {
            slot if slot < entries.len() => Cursor { chunk, slot },
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
        let entries = &chunk.entries[from.slot..];
        let ahead = gallop(entries.len(), |i| below(self.order.lead(&entries[i])));
        if ahead < entries.len() {
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
    /// entries, known to lie at or after `from`, found without a descent
    /// from the top: whole chunks are skipped by galloping over the fences
    /// (`fence_below` tests the lead of a chunk's first key, which is
    /// below when every entry of the chunk before it is), and the one chunk
    /// the point lies in is searched by `ahead`, which answers how many
    /// leading entries of the run it is handed — that chunk from `from` or
    /// from its start on — are below.
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
            false => (from.chunk, from.slot.min(chunk.entries.len())),
        };
        let chunk = &self.chunks[ci];
        let run = Run {
            chunk: &chunk.entries,
            image: &chunk.image,
            lo,
            hi: chunk.entries.len(),
            covers_chunk: lo == 0,
        };
        match lo + ahead(run) {
            slot if slot < chunk.entries.len() => Cursor { chunk: ci, slot },
            _ => Cursor {
                chunk: ci + 1,
                slot: 0,
            },
        }
    }

    /// The entries in `[from, to)` in key order, as one slice per chunk.
    /// Empty when `from >= to`.
    pub fn slices(&self, from: Cursor, to: Cursor) -> impl Iterator<Item = &[Row]> {
        let stop = self.chunks.len().min(to.chunk + 1);
        (from.chunk..stop).filter_map(move |ci| {
            let entries = &self.chunks[ci].entries;
            let lo = if ci == from.chunk { from.slot } else { 0 };
            let hi = if ci == to.chunk {
                to.slot
            } else {
                entries.len()
            };
            entries.get(lo..hi).filter(|s| !s.is_empty())
        })
    }

    /// The entries of `span` in the chunk `at` stands in, from `at` on;
    /// `None` once `at` has reached the span's end. The run *covers* its
    /// chunk when `span` holds every entry of that chunk — however much of
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
            end.slot.min(chunk.entries.len())
        } else {
            chunk.entries.len()
        };
        (at.slot < hi).then(|| Run {
            chunk: &chunk.entries,
            image: &chunk.image,
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

    /// `at` moved `n` entries on within its chunk: the next chunk's start
    /// once that passes the chunk's last entry.
    pub fn step(&self, at: Cursor, n: usize) -> Cursor {
        let slot = at.slot + n;
        match self.chunks.get(at.chunk) {
            Some(chunk) if slot < chunk.entries.len() => Cursor {
                chunk: at.chunk,
                slot,
            },
            _ => Cursor {
                chunk: at.chunk + 1,
                slot: 0,
            },
        }
    }

    /// The entry at `at`, if there is one.
    pub fn entry_at(&self, at: Cursor) -> Option<&Row> {
        self.chunks.get(at.chunk)?.entries.get(at.slot)
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
    /// `fence_at_or_before` tests a fence against the key, `cmp` orders an
    /// entry's key against it. An empty map answers chunk 0, which does
    /// not exist yet.
    fn locate(
        &self,
        mut fence_at_or_before: impl FnMut(&[Value]) -> bool,
        cmp: impl FnMut(&Row) -> Ordering,
    ) -> (usize, Result<usize, usize>) {
        let chunk = self
            .fences
            .partition_point(|f| fence_at_or_before(f))
            .saturating_sub(1);
        let slot = match self.chunks.get(chunk) {
            Some(c) => c.entries.binary_search_by(cmp),
            None => Err(0),
        };
        (chunk, slot)
    }

    /// Where the entry keyed `key` is, or would go.
    fn locate_key(&self, key: &[Value]) -> (usize, Result<usize, usize>) {
        self.locate(|f| f <= key, |e| self.order.cmp_key(e, key))
    }

    /// Where an entry keyed as `like` is, or would go.
    fn locate_like(&self, like: &Row) -> (usize, Result<usize, usize>) {
        let order = &self.order;
        let fence_at_or_before = |f: &[Value]| order.cmp_key(like, f).is_ge();
        self.locate(fence_at_or_before, |e| order.cmp(e, like))
    }

    /// The entry stored under `key`.
    pub fn get(&self, key: &[Value]) -> Option<&Row> {
        let (chunk, Ok(slot)) = self.locate_key(key) else {
            return None;
        };
        Some(&self.chunks[chunk].entries[slot])
    }

    /// The one-entry run holding the entry stored under `key`. It never
    /// covers its chunk: a lookup reads one row.
    pub fn run_of(&self, key: &[Value]) -> Option<Run<'_>> {
        let (chunk, Ok(slot)) = self.locate_key(key) else {
            return None;
        };
        let chunk = &self.chunks[chunk];
        Some(Run {
            chunk: &chunk.entries,
            image: &chunk.image,
            lo: slot,
            hi: slot + 1,
            covers_chunk: false,
        })
    }
}

/// Packs entries that arrive in ascending key order into full chunks: the
/// one place [`CowMap::from_sorted`] and [`CowMap::merge_sorted`] build a
/// spine.
struct Packer<'o> {
    order: &'o Clustered,
    fences: Vec<Box<[Value]>>,
    chunks: Vec<Arc<Chunk>>,
    /// The chunk being filled; sealed when full or when a kept chunk
    /// follows it.
    open: Chunk,
    len: usize,
}

impl<'o> Packer<'o> {
    fn new(order: &'o Clustered) -> Packer<'o> {
        Packer {
            order,
            fences: Vec::new(),
            chunks: Vec::new(),
            open: Chunk::new(),
            len: 0,
        }
    }

    /// Append one entry; its key must follow every key packed so far.
    fn push(&mut self, entry: Row) {
        debug_assert!(
            (self.open.entries.last())
                .or_else(|| self.chunks.last().and_then(|c| c.entries.last()))
                .is_none_or(|last| self.order.cmp(last, &entry).is_lt()),
            "keys must ascend strictly"
        );
        if self.open.entries.len() == MAX_CHUNK {
            self.seal();
        }
        self.open.entries.push(entry);
        self.len += 1;
    }

    /// Append a whole chunk as it is — shared, not copied — after sealing
    /// the open one.
    fn keep(&mut self, chunk: Arc<Chunk>, fence: Box<[Value]>) {
        self.seal();
        self.len += chunk.entries.len();
        self.fences.push(fence);
        self.chunks.push(chunk);
    }

    fn seal(&mut self) {
        if !self.open.entries.is_empty() {
            let chunk = std::mem::replace(&mut self.open, Chunk::new());
            self.fences.push(self.order.fence(&chunk.entries[0]));
            self.chunks.push(Arc::new(chunk));
        }
    }
}

impl CowMap {
    /// A map ordered by the cells at the ordinals `key` holding `entries`,
    /// whose keys must ascend strictly, built in one pass: entries are
    /// moved into full chunks in order, with no lookup, split or copy — the
    /// layout an ascending run of inserts leaves, at a fraction of its cost.
    pub fn from_sorted(key: Vec<usize>, entries: impl IntoIterator<Item = Row>) -> CowMap {
        let mut map = CowMap::new(key);
        map.merge_sorted(entries);
        map
    }

    /// Add `entries` — keys strictly ascending, none of them in the map —
    /// in one pass over both. A chunk no new key falls into is kept as it
    /// is, still shared with every clone of the map; the entries of a chunk
    /// new keys do fall into (copied first if a clone shares it) are merged
    /// with them into full chunks.
    pub fn merge_sorted(&mut self, entries: impl IntoIterator<Item = Row>) {
        let mut new = entries.into_iter().peekable();
        let fences = std::mem::take(&mut self.fences);
        let chunks = std::mem::take(&mut self.chunks);
        let order = &self.order;
        let mut out = Packer::new(order);
        for (i, chunk) in chunks.into_iter().enumerate() {
            // the new keys this chunk takes: those before the next chunk
            let next = fences.get(i + 1);
            let here = |entry: &Row| next.is_none_or(|f| order.cmp_key(entry, f).is_lt());
            if !new.peek().is_some_and(here) {
                out.keep(chunk, fences[i].clone());
                continue;
            }
            let mut kept = Arc::unwrap_or_clone(chunk).entries.into_iter().peekable();
            loop {
                let incoming = new.peek().filter(|entry| here(entry));
                let take_new = match (kept.peek(), incoming) {
                    (None, None) => break,
                    (Some(a), Some(b)) => order.cmp(b, a).is_lt(),
                    (None, Some(_)) => true,
                    (Some(_), None) => false,
                };
                let next = if take_new { new.next() } else { kept.next() };
                if let Some(entry) = next {
                    out.push(entry);
                }
            }
        }
        for entry in new {
            out.push(entry);
        }
        out.seal();
        let Packer {
            fences,
            chunks,
            len,
            ..
        } = out;
        self.fences = Arc::new(fences);
        self.chunks = chunks;
        self.len = len;
    }

    /// The slot for an entry keyed as `like`, found in one descent:
    /// occupied (read it, replace it) or vacant (insert there). Nothing is
    /// copied until the slot is written.
    pub fn entry(&mut self, like: &Row) -> Entry<'_> {
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

    /// Insert, or replace the entry with the same key; returns the entry
    /// replaced.
    pub fn insert(&mut self, entry: Row) -> Option<Row> {
        match self.entry(&entry) {
            Entry::Occupied(mut slot) => Some(slot.insert(entry)),
            Entry::Vacant(slot) => {
                slot.insert(entry);
                None
            }
        }
    }

    /// Remove the entry keyed `key`, and return it if it was present.
    pub fn remove(&mut self, key: &[Value]) -> Option<Row> {
        let (ci, Ok(slot)) = self.locate_key(key) else {
            return None;
        };
        let chunk = chunk_mut(&mut self.chunks[ci]);
        let entry = chunk.entries.remove(slot);
        self.len -= 1;
        match chunk.entries.first() {
            None => {
                // a tail chunk that never filled up, or the last one left
                self.chunks.remove(ci);
                Arc::make_mut(&mut self.fences).remove(ci);
            }
            Some(first) => {
                if slot == 0 {
                    Arc::make_mut(&mut self.fences)[ci] = self.order.fence(first);
                }
                if chunk.entries.len() < MIN_CHUNK && self.chunks.len() > 1 {
                    self.merge_small(ci);
                }
            }
        }
        Some(entry)
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
        merged.entries.extend(right.entries);
        if merged.entries.len() > MAX_CHUNK {
            let tail = merged.split_off(merged.entries.len() / 2);
            fences.insert(left + 1, self.order.fence(&tail.entries[0]));
            self.chunks.insert(left + 1, Arc::new(tail));
        }
    }
}

/// A slot of a [`CowMap`] located by [`CowMap::entry`].
pub enum Entry<'a> {
    /// An entry with the key is present.
    Occupied(OccupiedEntry<'a>),
    /// No entry has the key; this is where it would go.
    Vacant(VacantEntry<'a>),
}

/// A slot holding an entry with the key looked up.
pub struct OccupiedEntry<'a> {
    map: &'a mut CowMap,
    at: Cursor,
}

impl OccupiedEntry<'_> {
    /// The stored entry.
    pub fn get(&self) -> &Row {
        &self.map.chunks[self.at.chunk].entries[self.at.slot]
    }

    /// Replace the stored entry by `entry`, which must hold the same key,
    /// and return the old one. Copies the chunk first if another clone of
    /// the map shares it.
    pub fn insert(&mut self, entry: Row) -> Row {
        debug_assert!(self.map.order.cmp(self.get(), &entry).is_eq());
        let chunk = chunk_mut(&mut self.map.chunks[self.at.chunk]);
        std::mem::replace(&mut chunk.entries[self.at.slot], entry)
    }
}

/// A slot no entry with the key looked up holds.
pub struct VacantEntry<'a> {
    map: &'a mut CowMap,
    at: Cursor,
}

impl VacantEntry<'_> {
    /// Insert `entry`, which must hold the key the slot was looked up with.
    pub fn insert(self, entry: Row) {
        let VacantEntry { map, at } = self;
        let (mut ci, mut slot) = (at.chunk, at.slot);
        let full = map
            .chunks
            .get(ci)
            .is_some_and(|c| c.entries.len() == MAX_CHUNK);
        let past_last = slot == MAX_CHUNK && ci + 1 == map.chunks.len();
        if map.chunks.is_empty() || (full && past_last) {
            // The first entry of all, or one past a full last chunk: start
            // a new chunk — splitting would leave every chunk of an
            // ascending bulk load half empty.
            Arc::make_mut(&mut map.fences).push(map.order.fence(&entry));
            let mut chunk = Chunk::new();
            chunk.entries.push(entry);
            map.chunks.push(Arc::new(chunk));
            map.len += 1;
            return;
        }
        if full {
            let tail = chunk_mut(&mut map.chunks[ci]).split_off(MAX_CHUNK / 2);
            let fence = map.order.fence(&tail.entries[0]);
            Arc::make_mut(&mut map.fences).insert(ci + 1, fence);
            map.chunks.insert(ci + 1, Arc::new(tail));
            if slot > MAX_CHUNK / 2 {
                ci += 1;
                slot -= MAX_CHUNK / 2;
            }
        }
        if slot == 0 {
            // smaller than every key of the map: the first chunk's new fence
            Arc::make_mut(&mut map.fences)[ci] = map.order.fence(&entry);
        }
        let chunk = chunk_mut(&mut map.chunks[ci]);
        chunk.entries.insert(slot, entry);
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
        CowMap::new(vec![0])
    }

    fn pair(k: u32, v: u32) -> Row {
        Row::new(vec![Value::Int(k.into()), Value::Int(v.into())])
    }

    fn int(cell: &Value) -> u32 {
        cell.as_int().unwrap() as u32
    }

    fn unpair(row: &Row) -> (u32, u32) {
        (int(row.get(0)), int(row.get(1)))
    }

    fn key(k: u32) -> [Value; 1] {
        [Value::Int(k.into())]
    }

    /// `BTreeMap::insert`'s answer: the value replaced.
    fn put(map: &mut Map, k: u32, v: u32) -> Option<u32> {
        map.insert(pair(k, v)).map(|row| unpair(&row).1)
    }

    fn value(map: &Map, k: u32) -> Option<u32> {
        map.get(&key(k)).map(|row| unpair(row).1)
    }

    fn take(map: &mut Map, k: u32) -> Option<u32> {
        map.remove(&key(k)).map(|row| unpair(&row).1)
    }

    fn check(map: &Map, oracle: &BTreeMap<u32, u32>) {
        assert_eq!(map.len(), oracle.len());
        assert!(map
            .iter()
            .map(unpair)
            .eq(oracle.iter().map(|(&k, &v)| (k, v))));
        assert_eq!(map.fences.len(), map.chunks.len());
        for (fence, c) in map.fences.iter().zip(&map.chunks) {
            assert!(!c.entries.is_empty() && c.entries.len() <= MAX_CHUNK);
            assert_eq!(**fence, c.entries[0].values()[..1]);
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
                let take = run.vals().len().min(stride);
                seen.extend(run.vals()[..take].iter().map(|row| unpair(row).1));
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
            let map = CowMap::from_sorted(vec![0], (0..n).map(|k| pair(2 * k, k)));
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
            let sizes =
                |m: &Map| -> Vec<usize> { m.chunks.iter().map(|c| c.entries.len()).collect() };
            assert_eq!(sizes(&map), sizes(&inserted), "n = {n}");
            assert!(value(&map, 1).is_none());
        }
    }

    #[test]
    fn merge_sorted_keeps_untouched_chunks_shared() {
        // four full chunks of even keys, 0..2048
        let mut map = CowMap::from_sorted(vec![0], (0..1024u32).map(|k| pair(2 * k, k)));
        let mut oracle: BTreeMap<u32, u32> = map.iter().map(unpair).collect();
        let before = map.clone();
        // odd keys into chunk 1 only, and a run past the end
        let new: Vec<(u32, u32)> = (600..620)
            .step_by(2)
            .map(|k| (k + 1, 0))
            .chain((3000..3300).map(|k| (k, 1)))
            .collect();
        oracle.extend(new.iter().copied());
        map.merge_sorted(new.iter().map(|&(k, v)| pair(k, v)));
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
        let mut owned = CowMap::from_sorted(vec![0], (10..20u32).map(|k| pair(10 * k, k)));
        let mut oracle: BTreeMap<u32, u32> = owned.iter().map(unpair).collect();
        let new: Vec<(u32, u32)> = [(1, 1), (5, 5), (101, 0), (155, 0), (999, 9)].into();
        oracle.extend(new.iter().copied());
        owned.merge_sorted(new.iter().map(|&(k, v)| pair(k, v)));
        check(&owned, &oracle);
        // merging nothing changes nothing
        let again = owned.clone();
        owned.merge_sorted(std::iter::empty());
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
        map.merge_sorted(new.iter().map(|&(k, v)| pair(k, v)));
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

    /// A string column with NULLs, a float column and a column of mixed
    /// types, so images carry validity masks and a boxed `Any` column.
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
        ])
    }

    fn imaged_table(keys: impl Iterator<Item = i64>) -> Table {
        let schema = Schema::new(vec![
            rcc_common::Column::new("k", DataType::Int),
            rcc_common::Column::new("s", DataType::Str),
            rcc_common::Column::new("f", DataType::Float),
            rcc_common::Column::new("m", DataType::Int),
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
            let rows = run.vals();
            imaged += usize::from(run.covers_chunk());
            for c in 0..t.schema().len() {
                let column = run.column(c);
                // a covering run reaches its chunk's end; others may stop short
                let end = run.offset() + rows.len();
                assert!(column.len() == end || !run.covers_chunk() && column.len() > end);
                for (i, row) in rows.iter().enumerate() {
                    let (cell, stored) = (column.value(run.offset() + i), row.get(c));
                    assert!(
                        cell == *stored && cell.data_type() == stored.data_type(),
                        "column {c}, row {i}: image {cell:?}, stored {stored:?}"
                    );
                }
            }
            walked.extend_from_slice(rows);
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
