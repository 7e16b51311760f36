//! A persistent ordered map: sorted chunks behind `Arc`, shared between
//! clones until written.
//!
//! [`CowMap`] is the row container behind [`crate::Table`] and
//! [`crate::SecondaryIndex`]. Entries live in key order in chunks of at
//! most `MAX_CHUNK` entries, each chunk behind an `Arc`, under a flat
//! spine: the chunk pointers plus a *fence* vector holding every chunk's
//! first key, itself behind an `Arc`. That shape is chosen for the
//! copy-on-write snapshot protocol of [`crate::snapshot`]:
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
//! A lookup is two binary searches over contiguous key arrays: the fences
//! (which stay cache-resident, and spare a pointer chase into each probed
//! chunk), then the one chunk's keys — values live in a parallel array so
//! they do not dilute the searched cache lines, and a scan walks them
//! densely. Positions are exposed as [`Cursor`]s so a range scan is a seek
//! to its start, a gallop from there to its end, and a walk over whole
//! chunk slices, with no per-entry bound check. Chunk buffers are sized for
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
use rcc_common::Row;
use std::borrow::Borrow;
use std::sync::{Arc, OnceLock};

/// Most entries a chunk holds. A write copies one chunk, a clone bumps one
/// refcount per chunk: 256 keeps a one-row write in the tens of
/// microseconds and a 30 000-entry spine at ~120 pointers.
const MAX_CHUNK: usize = 256;
/// A removal that leaves a chunk smaller than this merges it away.
const MIN_CHUNK: usize = MAX_CHUNK / 4;

/// One run of entries: `keys[i]` maps to `vals[i]`, keys ascending.
#[derive(Debug)]
struct Chunk<K, V> {
    keys: Vec<K>,
    vals: Vec<V>,
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

impl<K, V> Chunk<K, V> {
    /// An empty chunk with room for `MAX_CHUNK` entries. Sizing the buffers
    /// once means a chunk never reallocates as it fills, so a bulk load
    /// leaves no trail of outgrown buffers between the rows it allocates.
    fn new() -> Chunk<K, V> {
        Chunk {
            keys: Vec::with_capacity(MAX_CHUNK),
            vals: Vec::with_capacity(MAX_CHUNK),
            image: Image::default(),
        }
    }

    /// Move the entries from `at` on into a new chunk.
    fn split_off(&mut self, at: usize) -> Chunk<K, V> {
        let mut tail = Chunk::new();
        tail.keys.extend(self.keys.drain(at..));
        tail.vals.extend(self.vals.drain(at..));
        tail
    }
}

/// Every write to a chunk goes through here. A chunk another clone of the
/// map shares is copied first (the copy starts without an image); one this
/// map owns alone is written in place, so its image — about to go stale —
/// is dropped.
fn chunk_mut<K: Clone, V: Clone>(chunk: &mut Arc<Chunk<K, V>>) -> &mut Chunk<K, V> {
    let chunk = Arc::make_mut(chunk);
    chunk.image = Image::default();
    chunk
}

/// The copy `Arc::make_mut` takes before a write; full-sized like every
/// chunk, since an insert is as likely to follow as a replace. The image
/// is not copied.
impl<K: Clone, V: Clone> Clone for Chunk<K, V> {
    fn clone(&self) -> Self {
        let mut copy = Chunk::new();
        copy.keys.extend_from_slice(&self.keys);
        copy.vals.extend_from_slice(&self.vals);
        copy
    }
}

/// A persistent ordered map whose clones share storage chunk by chunk.
#[derive(Debug, Clone)]
pub struct CowMap<K, V> {
    /// First key of each chunk.
    fences: Arc<Vec<K>>,
    chunks: Vec<Arc<Chunk<K, V>>>,
    len: usize,
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

/// Consecutive values of one chunk, as a scan takes them: made by
/// [`CowMap::run`].
#[derive(Debug, Clone, Copy)]
pub struct Run<'a, V> {
    /// Every value of the chunk; the run is `chunk[lo..hi]`.
    chunk: &'a [V],
    image: &'a Image,
    lo: usize,
    hi: usize,
    covers_chunk: bool,
}

impl<'a, V> Run<'a, V> {
    /// The run's values, in key order.
    pub fn vals(&self) -> &'a [V] {
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
}

impl<'a> Run<'a, Row> {
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

impl<K, V> Default for CowMap<K, V> {
    fn default() -> Self {
        CowMap {
            fences: Arc::new(Vec::new()),
            chunks: Vec::new(),
            len: 0,
        }
    }
}

impl<K, V> CowMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        Self::default()
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
        *self = Self::default();
    }

    /// All entries in key order.
    pub fn iter(&self) -> impl Iterator<Item = (&K, &V)> {
        self.chunks
            .iter()
            .flat_map(|c| c.keys.iter().zip(c.vals.iter()))
    }

    /// The position after the last entry.
    pub fn end(&self) -> Cursor {
        Cursor {
            chunk: self.chunks.len(),
            slot: 0,
        }
    }

    /// The position of the first entry whose key is not `below`. `below`
    /// must hold for a (possibly empty) prefix of the keys in order and for
    /// no key after it — a partition point, found in O(log) comparisons.
    pub fn seek(&self, mut below: impl FnMut(&K) -> bool) -> Cursor {
        // the partition point lies in the last chunk whose first key is
        // below, or right after it
        let Some(chunk) = self.fences.partition_point(&mut below).checked_sub(1) else {
            return Cursor::START;
        };
        let keys = &self.chunks[chunk].keys;
        match keys.partition_point(below) {
            slot if slot < keys.len() => Cursor { chunk, slot },
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
    pub fn seek_from(&self, from: Cursor, mut below: impl FnMut(&K) -> bool) -> Cursor {
        let Some(chunk) = self.chunks.get(from.chunk) else {
            return from;
        };
        let keys = &chunk.keys[from.slot..];
        let ahead = gallop(keys.len(), |i| below(&keys[i]));
        if ahead < keys.len() {
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
    /// (`fence_below` tests a chunk's first key, which is below when every
    /// entry of the chunk before it is), and the one chunk the point lies
    /// in is searched by `ahead`, which answers how many leading entries of
    /// the run it is handed — that chunk from `from` or from its start on —
    /// are below.
    pub fn gallop_from(
        &self,
        from: Cursor,
        mut fence_below: impl FnMut(&K) -> bool,
        ahead: impl FnOnce(Run<'_, V>) -> usize,
    ) -> Cursor {
        let Some(chunk) = self.chunks.get(from.chunk) else {
            return from;
        };
        let later = &self.fences[from.chunk + 1..];
        let (ci, lo) = match later.first().is_some_and(&mut fence_below) {
            // the last chunk whose first key is below holds the point
            true => (
                from.chunk + gallop(later.len(), |i| fence_below(&later[i])),
                0,
            ),
            false => (from.chunk, from.slot.min(chunk.vals.len())),
        };
        let chunk = &self.chunks[ci];
        let run = Run {
            chunk: &chunk.vals,
            image: &chunk.image,
            lo,
            hi: chunk.vals.len(),
            covers_chunk: lo == 0,
        };
        match lo + ahead(run) {
            slot if slot < chunk.vals.len() => Cursor { chunk: ci, slot },
            _ => Cursor {
                chunk: ci + 1,
                slot: 0,
            },
        }
    }

    /// The entries in `[from, to)` in key order, as one pair of parallel
    /// key and value slices per chunk. Empty when `from >= to`.
    pub fn slices(&self, from: Cursor, to: Cursor) -> impl Iterator<Item = (&[K], &[V])> {
        let stop = self.chunks.len().min(to.chunk + 1);
        (from.chunk..stop).filter_map(move |ci| {
            let chunk = &self.chunks[ci];
            let lo = if ci == from.chunk { from.slot } else { 0 };
            let hi = if ci == to.chunk {
                to.slot
            } else {
                chunk.keys.len()
            };
            let keys = chunk.keys.get(lo..hi).filter(|s| !s.is_empty())?;
            Some((keys, &chunk.vals[lo..hi]))
        })
    }

    /// The entries of `span` in the chunk `at` stands in, from `at` on;
    /// `None` once `at` has reached the span's end. The run *covers* its
    /// chunk when `span` holds every entry of that chunk — however much of
    /// it a resumed scan has taken already.
    pub fn run(&self, span: (Cursor, Cursor), at: Cursor) -> Option<Run<'_, V>> {
        let (start, end) = span;
        if at >= end {
            return None;
        }
        let chunk = self.chunks.get(at.chunk)?;
        // clamped, so a cursor from another map state cannot index out of
        // bounds
        let hi = if at.chunk == end.chunk {
            end.slot.min(chunk.vals.len())
        } else {
            chunk.vals.len()
        };
        (at.slot < hi).then(|| Run {
            chunk: &chunk.vals,
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
            Some(chunk) if slot < chunk.keys.len() => Cursor {
                chunk: at.chunk,
                slot,
            },
            _ => Cursor {
                chunk: at.chunk + 1,
                slot: 0,
            },
        }
    }

    /// The key of the entry at `at`, if there is one.
    pub fn key_at(&self, at: Cursor) -> Option<&K> {
        self.chunks.get(at.chunk)?.keys.get(at.slot)
    }

    /// Number of chunks in the spine.
    pub fn chunk_count(&self) -> usize {
        self.chunks.len()
    }

    /// How many of this map's chunks are the same allocation as a chunk of
    /// `other` — what a clone followed by writes still shares.
    pub fn shared_chunks(&self, other: &CowMap<K, V>) -> usize {
        self.chunks
            .iter()
            .filter(|c| other.chunks.iter().any(|o| Arc::ptr_eq(c, o)))
            .count()
    }
}

impl<K: Ord, V> CowMap<K, V> {
    /// The chunk `key` belongs to (the last one starting at or before it;
    /// the first one for a key before every fence) and where in it: `Ok`
    /// with the slot holding the key, `Err` with the slot it would take.
    /// An empty map answers chunk 0, which does not exist yet.
    fn locate<Q>(&self, key: &Q) -> (usize, Result<usize, usize>)
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let chunk = self
            .fences
            .partition_point(|f| f.borrow() <= key)
            .saturating_sub(1);
        let slot = match self.chunks.get(chunk) {
            Some(c) => c.keys.binary_search_by(|k| k.borrow().cmp(key)),
            None => Err(0),
        };
        (chunk, slot)
    }

    /// The value stored under `key`.
    pub fn get<Q>(&self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        self.get_key_value(key).map(|(_, v)| v)
    }

    /// The key as stored and the value stored under `key`.
    pub fn get_key_value<Q>(&self, key: &Q) -> Option<(&K, &V)>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (chunk, Ok(slot)) = self.locate(key) else {
            return None;
        };
        let chunk = &self.chunks[chunk];
        Some((&chunk.keys[slot], &chunk.vals[slot]))
    }

    /// The one-entry run holding the value stored under `key`. It never
    /// covers its chunk: a lookup reads one row.
    pub fn run_of<Q>(&self, key: &Q) -> Option<Run<'_, V>>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (chunk, Ok(slot)) = self.locate(key) else {
            return None;
        };
        let chunk = &self.chunks[chunk];
        Some(Run {
            chunk: &chunk.vals,
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
struct Packer<K, V> {
    fences: Vec<K>,
    chunks: Vec<Arc<Chunk<K, V>>>,
    /// The chunk being filled; sealed when full or when a kept chunk
    /// follows it.
    open: Chunk<K, V>,
    len: usize,
}

impl<K: Ord + Clone, V> Packer<K, V> {
    fn new() -> Packer<K, V> {
        Packer {
            fences: Vec::new(),
            chunks: Vec::new(),
            open: Chunk::new(),
            len: 0,
        }
    }

    /// Append one entry; its key must follow every key packed so far.
    fn push(&mut self, key: K, val: V) {
        debug_assert!(
            self.open
                .keys
                .last()
                .or_else(|| self.chunks.last().and_then(|c| c.keys.last()))
                .is_none_or(|last| *last < key),
            "keys must ascend strictly"
        );
        if self.open.keys.len() == MAX_CHUNK {
            self.seal();
        }
        self.open.keys.push(key);
        self.open.vals.push(val);
        self.len += 1;
    }

    /// Append a whole chunk as it is — shared, not copied — after sealing
    /// the open one.
    fn keep(&mut self, chunk: Arc<Chunk<K, V>>, fence: K) {
        self.seal();
        self.len += chunk.keys.len();
        self.fences.push(fence);
        self.chunks.push(chunk);
    }

    fn seal(&mut self) {
        if !self.open.keys.is_empty() {
            let chunk = std::mem::replace(&mut self.open, Chunk::new());
            self.fences.push(chunk.keys[0].clone());
            self.chunks.push(Arc::new(chunk));
        }
    }

    fn finish(mut self) -> CowMap<K, V> {
        self.seal();
        CowMap {
            fences: Arc::new(self.fences),
            chunks: self.chunks,
            len: self.len,
        }
    }
}

impl<K: Ord + Clone, V: Clone> CowMap<K, V> {
    /// A map holding `entries`, whose keys must ascend strictly, built in
    /// one pass: entries are moved into full chunks in order, with no
    /// lookup, split or copy — the layout an ascending run of inserts
    /// leaves, at a fraction of its cost.
    pub fn from_sorted(entries: impl IntoIterator<Item = (K, V)>) -> CowMap<K, V> {
        let mut map = CowMap::new();
        map.merge_sorted(entries);
        map
    }

    /// Add `entries` — keys strictly ascending, none of them in the map —
    /// in one pass over both. A chunk no new key falls into is kept as it
    /// is, still shared with every clone of the map; the entries of a chunk
    /// new keys do fall into (copied first if a clone shares it) are merged
    /// with them into full chunks.
    pub fn merge_sorted(&mut self, entries: impl IntoIterator<Item = (K, V)>) {
        let mut new = entries.into_iter().peekable();
        let old = std::mem::take(self);
        let mut out = Packer::new();
        for (i, chunk) in old.chunks.into_iter().enumerate() {
            // the new keys this chunk takes: those before the next chunk
            let next = old.fences.get(i + 1);
            let here = |key: &K| next.is_none_or(|fence| key < fence);
            if !new.peek().is_some_and(|(key, _)| here(key)) {
                out.keep(chunk, old.fences[i].clone());
                continue;
            }
            let Chunk { keys, vals, .. } = Arc::unwrap_or_clone(chunk);
            let mut kept = keys.into_iter().zip(vals).peekable();
            loop {
                let incoming = new.peek().filter(|(key, _)| here(key));
                let take_new = match (kept.peek(), incoming) {
                    (None, None) => break,
                    (Some((a, _)), Some((b, _))) => b < a,
                    (None, Some(_)) => true,
                    (Some(_), None) => false,
                };
                let next = if take_new { new.next() } else { kept.next() };
                if let Some((key, val)) = next {
                    out.push(key, val);
                }
            }
        }
        for (key, val) in new {
            out.push(key, val);
        }
        *self = out.finish();
    }

    /// The slot for `key`, found in one descent: occupied (read it, replace
    /// its value) or vacant (insert there). Nothing is copied until the
    /// entry is written.
    pub fn entry(&mut self, key: K) -> Entry<'_, K, V> {
        match self.locate(&key) {
            (chunk, Ok(slot)) => Entry::Occupied(OccupiedEntry {
                map: self,
                at: Cursor { chunk, slot },
            }),
            (chunk, Err(slot)) => Entry::Vacant(VacantEntry {
                map: self,
                at: Cursor { chunk, slot },
                key,
            }),
        }
    }

    /// Insert or replace; returns the value previously stored under `key`.
    pub fn insert(&mut self, key: K, value: V) -> Option<V> {
        match self.entry(key) {
            Entry::Occupied(mut e) => Some(e.insert(value)),
            Entry::Vacant(e) => {
                e.insert(value);
                None
            }
        }
    }

    /// Remove `key`; returns its value if it was present.
    pub fn remove<Q>(&mut self, key: &Q) -> Option<V>
    where
        K: Borrow<Q>,
        Q: Ord + ?Sized,
    {
        let (ci, Ok(slot)) = self.locate(key) else {
            return None;
        };
        let chunk = chunk_mut(&mut self.chunks[ci]);
        chunk.keys.remove(slot);
        let value = chunk.vals.remove(slot);
        self.len -= 1;
        match chunk.keys.first() {
            None => {
                // a tail chunk that never filled up, or the last one left
                self.chunks.remove(ci);
                Arc::make_mut(&mut self.fences).remove(ci);
            }
            Some(first) => {
                if slot == 0 {
                    Arc::make_mut(&mut self.fences)[ci] = first.clone();
                }
                if chunk.keys.len() < MIN_CHUNK && self.chunks.len() > 1 {
                    self.merge_small(ci);
                }
            }
        }
        Some(value)
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
        merged.keys.extend(right.keys);
        merged.vals.extend(right.vals);
        if merged.keys.len() > MAX_CHUNK {
            let tail = merged.split_off(merged.keys.len() / 2);
            fences.insert(left + 1, tail.keys[0].clone());
            self.chunks.insert(left + 1, Arc::new(tail));
        }
    }
}

/// A slot of a [`CowMap`] located by [`CowMap::entry`].
#[derive(Debug)]
pub enum Entry<'a, K, V> {
    /// The key is present.
    Occupied(OccupiedEntry<'a, K, V>),
    /// The key is absent; this is where it would go.
    Vacant(VacantEntry<'a, K, V>),
}

/// An entry whose key is present in the map.
#[derive(Debug)]
pub struct OccupiedEntry<'a, K, V> {
    map: &'a mut CowMap<K, V>,
    at: Cursor,
}

impl<K: Clone, V: Clone> OccupiedEntry<'_, K, V> {
    /// The stored key.
    pub fn key(&self) -> &K {
        &self.map.chunks[self.at.chunk].keys[self.at.slot]
    }

    /// The stored value.
    pub fn get(&self) -> &V {
        &self.map.chunks[self.at.chunk].vals[self.at.slot]
    }

    /// Replace the stored value, returning the old one. Copies the chunk
    /// first if another clone of the map shares it.
    pub fn insert(&mut self, value: V) -> V {
        let chunk = chunk_mut(&mut self.map.chunks[self.at.chunk]);
        std::mem::replace(&mut chunk.vals[self.at.slot], value)
    }
}

/// An entry whose key is absent from the map.
#[derive(Debug)]
pub struct VacantEntry<'a, K, V> {
    map: &'a mut CowMap<K, V>,
    at: Cursor,
    key: K,
}

impl<K: Clone, V: Clone> VacantEntry<'_, K, V> {
    /// The key that would be inserted.
    pub fn key(&self) -> &K {
        &self.key
    }

    /// Insert `value` under the entry's key.
    pub fn insert(self, value: V) {
        let VacantEntry { map, at, key } = self;
        let (mut ci, mut slot) = (at.chunk, at.slot);
        let full = map
            .chunks
            .get(ci)
            .is_some_and(|c| c.keys.len() == MAX_CHUNK);
        let past_last = slot == MAX_CHUNK && ci + 1 == map.chunks.len();
        if map.chunks.is_empty() || (full && past_last) {
            // The first entry of all, or one past a full last chunk: start
            // a new chunk — splitting would leave every chunk of an
            // ascending bulk load half empty.
            Arc::make_mut(&mut map.fences).push(key.clone());
            let mut chunk = Chunk::new();
            chunk.keys.push(key);
            chunk.vals.push(value);
            map.chunks.push(Arc::new(chunk));
            map.len += 1;
            return;
        }
        if full {
            let tail = chunk_mut(&mut map.chunks[ci]).split_off(MAX_CHUNK / 2);
            Arc::make_mut(&mut map.fences).insert(ci + 1, tail.keys[0].clone());
            map.chunks.insert(ci + 1, Arc::new(tail));
            if slot > MAX_CHUNK / 2 {
                ci += 1;
                slot -= MAX_CHUNK / 2;
            }
        }
        if slot == 0 {
            // smaller than every key of the map: the first chunk's new fence
            Arc::make_mut(&mut map.fences)[ci] = key.clone();
        }
        let chunk = chunk_mut(&mut map.chunks[ci]);
        chunk.keys.insert(slot, key);
        chunk.vals.insert(slot, value);
        map.len += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    fn check(map: &CowMap<u32, u32>, oracle: &BTreeMap<u32, u32>) {
        assert_eq!(map.len(), oracle.len());
        assert!(map.iter().eq(oracle.iter()));
        assert_eq!(map.fences.len(), map.chunks.len());
        for (fence, c) in map.fences.iter().zip(&map.chunks) {
            assert!(!c.keys.is_empty() && c.keys.len() <= MAX_CHUNK);
            assert_eq!(c.keys.len(), c.vals.len());
            assert_eq!(fence, &c.keys[0]);
        }
    }

    /// A deterministic scramble of `0..n` (n and the stride coprime).
    fn scrambled(n: u32) -> impl Iterator<Item = u32> {
        (0..n).map(move |i| (i * 7919) % n)
    }

    #[test]
    fn ascending_load_fills_chunks() {
        let (mut map, mut oracle) = (CowMap::new(), BTreeMap::new());
        let n = 3 * MAX_CHUNK as u32;
        for k in 0..n {
            assert_eq!(map.insert(k, k), oracle.insert(k, k));
        }
        assert_eq!(map.chunk_count(), 3);
        assert_eq!(map.get(&300), Some(&300));
        assert_eq!(map.get(&9999), None);
        // one past a full last chunk opens a new chunk; emptying it drops it
        map.insert(n, n);
        assert_eq!(map.chunk_count(), 4);
        assert_eq!(map.remove(&n), Some(n));
        assert_eq!(map.chunk_count(), 3);
        check(&map, &oracle);
    }

    #[test]
    fn random_inserts_and_removes_match_btreemap() {
        let n = 5 * MAX_CHUNK as u32 + 3;
        let (mut map, mut oracle) = (CowMap::new(), BTreeMap::new());
        assert_eq!(map.get(&0), None);
        assert_eq!(map.remove(&0), None);
        assert_eq!(map.seek(|_| true), map.end());
        for k in scrambled(n) {
            assert_eq!(map.insert(k, k + 1), oracle.insert(k, k + 1));
        }
        check(&map, &oracle);
        assert!(map.chunk_count() >= 5, "the load crossed split boundaries");
        // replace in place
        for k in (0..n).step_by(3) {
            assert_eq!(map.insert(k, 0), oracle.insert(k, 0));
        }
        check(&map, &oracle);
        let chunks_full = map.chunk_count();
        // drain in a scrambled order, through every merge, down to empty
        for (i, k) in scrambled(n).enumerate() {
            assert_eq!(map.remove(&k), oracle.remove(&k));
            assert_eq!(map.remove(&k), None);
            if i % 97 == 0 {
                check(&map, &oracle);
            }
        }
        check(&map, &oracle);
        assert!(chunks_full > 1 && map.chunk_count() == 0 && map.is_empty());
        assert_eq!(map.get(&0), None);
        assert_eq!(map.remove(&0), None);
    }

    #[test]
    fn writes_leave_other_clones_untouched() {
        let mut map = CowMap::new();
        for k in 0..1000u32 {
            map.insert(k * 2, k);
        }
        let before = map.clone();
        assert_eq!(before.shared_chunks(&map), map.chunk_count());
        map.insert(400, 9999); // replace
        map.insert(401, 1); // new key
        map.remove(&1200);
        assert_eq!(before.get(&400), Some(&200));
        assert_eq!(before.get(&401), None);
        assert_eq!(before.get(&1200), Some(&600));
        assert_eq!(before.len(), 1000);
        assert_eq!(map.get(&400), Some(&9999));
        assert_eq!(map.get(&401), Some(&1));
        assert_eq!(map.get(&1200), None);
        // 400/401 landed in (and split) the first chunk, 1200 in the third
        assert_eq!((map.chunk_count(), map.shared_chunks(&before)), (5, 2));
        // an entry that is looked up but not written copies nothing
        let mut reader = before.clone();
        assert!(matches!(reader.entry(400), Entry::Occupied(_)));
        assert!(matches!(reader.entry(401), Entry::Vacant(_)));
        assert_eq!(reader.shared_chunks(&before), before.chunk_count());
    }

    #[test]
    fn seek_and_slices_walk_ranges_across_chunks() {
        let mut map = CowMap::new();
        for k in 0..1000u32 {
            map.insert(k, ());
        }
        let keys = |from, to| -> Vec<u32> {
            map.slices(from, to)
                .flat_map(|(keys, _)| keys.iter().copied())
                .collect()
        };
        let (lo, hi) = (MAX_CHUNK as u32 - 3, 2 * MAX_CHUNK as u32 + 5);
        let from = map.seek(|k| *k < lo);
        let to = map.seek(|k| *k <= hi);
        assert_eq!(keys(from, to), (lo..=hi).collect::<Vec<_>>());
        assert_eq!(keys(Cursor::START, map.end()).len(), 1000);
        assert_eq!(map.seek(|_| true), map.end());
        assert_eq!(map.seek(|_| false), Cursor::START);
        // a cursor on a chunk boundary names the next chunk's first slot
        let boundary = map.seek(|k| *k < MAX_CHUNK as u32);
        assert_eq!(boundary, Cursor { chunk: 1, slot: 0 });
        assert_eq!(keys(Cursor::START, boundary).len(), MAX_CHUNK);
        assert!(keys(to, from).is_empty(), "reversed span is empty");
        // galloping from a cursor lands where the descent does
        for hi in [lo, lo + 1, lo + 5, MAX_CHUNK as u32, hi, 998, 999, 5000] {
            let want = map.seek(|k| *k <= hi);
            assert_eq!(map.seek_from(from, |k| *k <= hi), want, "to {hi}");
            assert_eq!(map.seek_from(Cursor::START, |k| *k <= hi), want);
        }
        assert_eq!(map.seek_from(map.end(), |_| true), map.end());
        assert!(keys(from, from).is_empty());
    }

    #[test]
    fn walk_resumes_where_it_stopped() {
        let mut map = CowMap::new();
        for k in 0..1000u32 {
            map.insert(k, k);
        }
        let (lo, hi) = (MAX_CHUNK as u32 - 3, 3 * MAX_CHUNK as u32 + 5);
        let span = (map.seek(|k| *k < lo), map.seek(|k| *k <= hi));
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
                seen.extend_from_slice(&run.vals()[..take]);
                if run.covers_chunk && covered.last() != Some(&at.chunk) {
                    covered.push(at.chunk);
                }
                at = map.step(at, take);
            }
            assert_eq!(seen, (lo..=hi).collect::<Vec<_>>(), "stride {stride}");
            assert_eq!(covered, [1, 2], "stride {stride}");
        }
        assert_eq!(map.key_at(span.0), Some(&lo));
        assert_eq!(map.key_at(map.end()), None);
        // an empty or reversed span yields nothing
        assert!(map.run((span.0, span.0), span.0).is_none());
        assert!(map.run((span.1, span.0), span.1).is_none());
    }

    // ------------------------------------------------------ sorted loads

    #[test]
    fn from_sorted_packs_full_chunks() {
        for n in [0u32, 1, 255, 256, 257, 3 * 256, 1000] {
            let map = CowMap::from_sorted((0..n).map(|k| (2 * k, k)));
            let oracle: BTreeMap<u32, u32> = (0..n).map(|k| (2 * k, k)).collect();
            check(&map, &oracle);
            assert_eq!(
                map.chunk_count(),
                (n as usize).div_ceil(MAX_CHUNK),
                "n = {n}"
            );
            // every chunk but the last is full: what ascending inserts leave
            let mut inserted = CowMap::new();
            for k in 0..n {
                inserted.insert(2 * k, k);
            }
            let sizes = |m: &CowMap<u32, u32>| -> Vec<usize> {
                m.chunks.iter().map(|c| c.keys.len()).collect()
            };
            assert_eq!(sizes(&map), sizes(&inserted), "n = {n}");
            assert!(map.get(&1).is_none());
        }
    }

    #[test]
    fn merge_sorted_keeps_untouched_chunks_shared() {
        // four full chunks of even keys, 0..2048
        let mut map = CowMap::from_sorted((0..1024u32).map(|k| (2 * k, k)));
        let mut oracle: BTreeMap<u32, u32> = map.iter().map(|(k, v)| (*k, *v)).collect();
        let before = map.clone();
        // odd keys into chunk 1 only, and a run past the end
        let new: Vec<(u32, u32)> = (600..620)
            .step_by(2)
            .map(|k| (k + 1, 0))
            .chain((3000..3300).map(|k| (k, 1)))
            .collect();
        oracle.extend(new.iter().copied());
        map.merge_sorted(new);
        check(&map, &oracle);
        // chunks 0 and 2 are the same allocations; chunk 1 and the last
        // chunk, which takes every key after it, were copied (a clone
        // shares them) and merged with their new keys
        assert_eq!(map.shared_chunks(&before), 2);
        assert_eq!(before.len(), 1024);
        assert_eq!(before.get(&601), None);
        assert_eq!(map.get(&601), Some(&0));
        // new keys before the first and between chunks, into a map no clone
        // shares: each lands where an insert would
        let mut owned = CowMap::from_sorted((10..20u32).map(|k| (10 * k, k)));
        let mut oracle: BTreeMap<u32, u32> = owned.iter().map(|(k, v)| (*k, *v)).collect();
        let new: Vec<(u32, u32)> = [(1, 1), (5, 5), (101, 0), (155, 0), (999, 9)].into();
        oracle.extend(new.iter().copied());
        owned.merge_sorted(new);
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
        let (mut map, mut oracle) = (CowMap::new(), BTreeMap::new());
        for k in scrambled(n) {
            map.insert(3 * k, k);
            oracle.insert(3 * k, k);
        }
        let mut new: Vec<(u32, u32)> = scrambled(n).map(|k| (3 * k + 1, k)).collect();
        new.sort_unstable();
        oracle.extend(new.iter().copied());
        map.merge_sorted(new);
        check(&map, &oracle);
        // a write after a merge splits and merges as before
        for k in scrambled(n).step_by(5) {
            assert_eq!(map.remove(&(3 * k)), oracle.remove(&(3 * k)));
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
