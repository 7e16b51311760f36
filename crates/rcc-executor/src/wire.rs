//! Wire format for remote query results.
//!
//! The cache and the back-end run in one process here, but the experiments
//! charge remote plans by *bytes shipped*, so results really are encoded to
//! a byte buffer and decoded again on receipt — the byte counts the
//! counters and the simulated network use are the true serialized sizes,
//! not estimates.
//!
//! Layout (little-endian):
//!
//! ```text
//! u32 column count
//!   per column: u16 name length, name bytes, u8 type tag
//! u32 row count
//!   per row, per column: u8 value tag, payload
//! ```

use crate::batch::Batch;
use bytes::{BufMut, Bytes};
use rcc_common::{Column as SchemaColumn, DataType, Error, Result, Row, Schema, Value};
use rcc_storage::column::{Column, ColumnData, ValueRef};

const TAG_NULL: u8 = 0;
const TAG_INT: u8 = 1;
const TAG_FLOAT: u8 = 2;
const TAG_STR: u8 = 3;
const TAG_BOOL: u8 = 4;
const TAG_TS: u8 = 5;

fn type_tag(t: DataType) -> u8 {
    match t {
        DataType::Int => TAG_INT,
        DataType::Float => TAG_FLOAT,
        DataType::Str => TAG_STR,
        DataType::Bool => TAG_BOOL,
        DataType::Timestamp => TAG_TS,
    }
}

fn tag_type(tag: u8) -> Result<DataType> {
    Ok(match tag {
        TAG_INT => DataType::Int,
        TAG_FLOAT => DataType::Float,
        TAG_STR => DataType::Str,
        TAG_BOOL => DataType::Bool,
        TAG_TS => DataType::Timestamp,
        other => return Err(Error::Remote(format!("bad wire type tag {other}"))),
    })
}

/// Write one cell, its tag and then its payload — the only place the cell
/// layout is spelled out.
#[inline(always)]
fn put_value(buf: &mut impl BufMut, v: ValueRef<'_>) {
    match v {
        ValueRef::Null => buf.put_u8(TAG_NULL),
        ValueRef::Int(i) => {
            buf.put_u8(TAG_INT);
            buf.put_i64_le(i);
        }
        ValueRef::Float(f) => {
            buf.put_u8(TAG_FLOAT);
            buf.put_f64_le(f);
        }
        ValueRef::Str(s) => {
            buf.put_u8(TAG_STR);
            buf.put_u32_le(s.len() as u32);
            buf.put_slice(s.as_bytes());
        }
        ValueRef::Bool(b) => {
            buf.put_u8(TAG_BOOL);
            buf.put_u8(b as u8);
        }
        ValueRef::Timestamp(t) => {
            buf.put_u8(TAG_TS);
            buf.put_i64_le(t);
        }
    }
}

fn put_header(buf: &mut Vec<u8>, schema: &Schema) {
    buf.put_u32_le(schema.len() as u32);
    for c in schema.columns() {
        let name = c.name.as_bytes();
        buf.put_u16_le(name.len() as u16);
        buf.put_slice(name);
        buf.put_u8(type_tag(c.data_type));
    }
}

/// Encode a result set.
pub fn encode_result(schema: &Schema, rows: &[Row]) -> Bytes {
    let mut buf = Vec::with_capacity(64 + rows.len() * schema.len() * 12);
    put_header(&mut buf, schema);
    buf.put_u32_le(rows.len() as u32);
    for row in rows {
        for v in row.values() {
            put_value(&mut buf, ValueRef::of(v));
        }
    }
    Bytes::from(buf)
}

/// Encode a batched result set straight from typed columns — no `Row`, no
/// `Value` materialization. Byte-identical to [`encode_result`] over the
/// equivalent rows.
pub fn encode_batches(schema: &Schema, batches: &[Batch]) -> Bytes {
    let mut buf = Vec::new();
    encode_batches_into(&mut buf, schema, batches);
    Bytes::from(buf)
}

/// Append an encoded batched result set to `buf` — how a server writes an
/// answer straight into its connection's frame buffer, behind the frame and
/// response headers already there, instead of copying a finished payload.
///
/// The layout is row-major but a batch is columns, so each batch is
/// written in two passes: every logical row's width is summed column by
/// column into its start offset, then each column writes its cells at its
/// rows' cursors. Both passes run [`put_value`], the first into a byte
/// counter, in one loop per column variant, where the cell's type is known
/// and its `match` folds away.
pub fn encode_batches_into(buf: &mut Vec<u8>, schema: &Schema, batches: &[Batch]) {
    let nrows: usize = batches.iter().map(Batch::len).sum();
    put_header(buf, schema);
    buf.put_u32_le(nrows as u32);
    let mut cursors = Vec::new();
    for batch in batches {
        match batch.sel.as_deref() {
            None => put_batch(buf, batch, 0..batch.rows, &mut cursors),
            Some(sel) => put_batch(buf, batch, sel.iter().map(|&p| p as usize), &mut cursors),
        }
    }
}

/// Append the logical rows of `batch`, whose physical rows `rows` lists.
fn put_batch(
    buf: &mut Vec<u8>,
    batch: &Batch,
    rows: impl Iterator<Item = usize> + Clone,
    cursors: &mut Vec<usize>,
) {
    cursors.clear();
    cursors.resize(batch.len(), 0);
    for col in &batch.columns {
        let widths = rows.clone().zip(cursors.iter_mut());
        each_cell(
            col,
            widths,
            #[inline(always)]
            |width, cell| put_value(&mut Width(width), cell),
        );
    }
    let mut end = buf.len();
    for cursor in cursors.iter_mut() {
        (*cursor, end) = (end, end + *cursor);
    }
    buf.resize(end, 0);
    let out = &mut buf[..];
    for col in &batch.columns {
        let places = rows.clone().zip(cursors.iter_mut());
        each_cell(
            col,
            places,
            #[inline(always)]
            |at, cell| put_value(&mut Cursor { out: &mut *out, at }, cell),
        );
    }
}

/// For each `(p, slot)` of `rows`, in order, hand `put` the slot and the
/// cell of `col` at physical row `p` — one loop per column variant, so a
/// cell's type is settled once for the column, not per cell.
///
/// This, `put_value` and the closures handed in are inlined by force: left
/// to the optimizer, one out-of-line `put` serves all six loops and matches
/// on every cell's type again (≈ 35 % more time per row).
#[inline(always)]
fn each_cell<T>(
    col: &Column,
    rows: impl Iterator<Item = (usize, T)>,
    mut put: impl FnMut(T, ValueRef<'_>),
) {
    match (col.data(), col.validity()) {
        (ColumnData::Int(d), None) => rows.for_each(|(p, at)| put(at, ValueRef::Int(d[p]))),
        (ColumnData::Timestamp(d), None) => {
            rows.for_each(|(p, at)| put(at, ValueRef::Timestamp(d[p])))
        }
        (ColumnData::Float(d), None) => rows.for_each(|(p, at)| put(at, ValueRef::Float(d[p]))),
        (ColumnData::Bool(d), None) => rows.for_each(|(p, at)| put(at, ValueRef::Bool(d[p]))),
        (ColumnData::Str(d), None) => rows.for_each(|(p, at)| put(at, ValueRef::Str(d.get(p)))),
        _ => rows.for_each(|(p, at)| put(at, col.get(p))),
    }
}

/// Adds up the bytes written to it: [`put_value`] into a `Width` adds the
/// cell's encoded width.
struct Width<'a>(&'a mut usize);

impl BufMut for Width<'_> {
    fn put_slice(&mut self, src: &[u8]) {
        *self.0 += src.len();
    }
}

/// A row's place in a batch's encoding: writes go there and move it on.
struct Cursor<'a> {
    out: &'a mut [u8],
    at: &'a mut usize,
}

impl BufMut for Cursor<'_> {
    fn put_slice(&mut self, src: &[u8]) {
        self.out[*self.at..*self.at + src.len()].copy_from_slice(src);
        *self.at += src.len();
    }
}

/// A cursor over an encoded payload: every read is bounds-checked and
/// borrows from the payload, so a cell is copied once, into its value.
struct Reader<'a>(&'a [u8]);

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8]> {
        if self.0.len() < n {
            return Err(Error::Remote("truncated wire payload".into()));
        }
        let (head, rest) = self.0.split_at(n);
        self.0 = rest;
        Ok(head)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N]> {
        let mut out = [0; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8> {
        Ok(self.take(1)?[0])
    }

    fn u32(&mut self) -> Result<u32> {
        self.array().map(u32::from_le_bytes)
    }

    fn i64(&mut self) -> Result<i64> {
        self.array().map(i64::from_le_bytes)
    }

    /// `n` bytes that must be UTF-8; `what` names them in the error.
    fn str(&mut self, n: usize, what: &str) -> Result<&'a str> {
        std::str::from_utf8(self.take(n)?)
            .map_err(|_| Error::Remote(format!("bad {what} encoding")))
    }
}

/// Decode a result set; validates framing and rejects truncated buffers,
/// trailing bytes and text that is not UTF-8.
pub fn decode_result(payload: Bytes) -> Result<(Schema, Vec<Row>)> {
    let mut r = Reader(&payload);
    let ncols = r.u32()? as usize;
    let mut columns = Vec::with_capacity(ncols.min(r.0.len()));
    for _ in 0..ncols {
        let nlen = u16::from_le_bytes(r.array()?) as usize;
        let name = r.str(nlen, "column name")?.to_string();
        columns.push(SchemaColumn::new(name, tag_type(r.u8()?)?));
    }
    let nrows = r.u32()? as usize;
    // every cell takes at least its tag byte
    let mut rows = Vec::with_capacity(nrows.min(r.0.len() / ncols.max(1)));
    for _ in 0..nrows {
        let mut values = Vec::with_capacity(ncols);
        for _ in 0..ncols {
            values.push(match r.u8()? {
                TAG_NULL => Value::Null,
                TAG_INT => Value::Int(r.i64()?),
                TAG_FLOAT => Value::Float(f64::from_le_bytes(r.array()?)),
                TAG_STR => {
                    let len = r.u32()? as usize;
                    Value::Str(r.str(len, "string")?.to_string())
                }
                TAG_BOOL => Value::Bool(r.u8()? != 0),
                TAG_TS => Value::Timestamp(r.i64()?),
                other => return Err(Error::Remote(format!("bad wire value tag {other}"))),
            });
        }
        rows.push(Row::new(values));
    }
    if !r.0.is_empty() {
        return Err(Error::Remote("trailing bytes in wire payload".into()));
    }
    Ok((Schema::new(columns), rows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::Column;

    fn sample() -> (Schema, Vec<Row>) {
        let schema = Schema::new(vec![
            Column::new("a", DataType::Int),
            Column::new("s", DataType::Str),
            Column::new("f", DataType::Float),
            Column::new("b", DataType::Bool),
            Column::new("t", DataType::Timestamp),
        ]);
        let rows = vec![
            Row::new(vec![
                Value::Int(42),
                Value::from("héllo"),
                Value::Float(-1.5),
                Value::Bool(true),
                Value::Timestamp(99),
            ]),
            Row::new(vec![
                Value::Null,
                Value::from(""),
                Value::Float(f64::MAX),
                Value::Bool(false),
                Value::Null,
            ]),
        ];
        (schema, rows)
    }

    #[test]
    fn roundtrip() {
        let (schema, rows) = sample();
        let bytes = encode_result(&schema, &rows);
        let (schema2, rows2) = decode_result(bytes).unwrap();
        assert_eq!(rows, rows2);
        assert_eq!(schema.len(), schema2.len());
        for (a, b) in schema.columns().iter().zip(schema2.columns()) {
            assert_eq!(a.name, b.name);
            assert_eq!(a.data_type, b.data_type);
        }
    }

    #[test]
    fn encode_into_appends_the_same_bytes_behind_a_prefix() {
        let (schema, rows) = sample();
        let mut buf = b"head".to_vec();
        let batch = Batch::from_rows(schema.len(), rows.clone());
        encode_batches_into(&mut buf, &schema, &[batch]);
        assert_eq!(&buf[..4], b"head");
        assert_eq!(&buf[4..], encode_result(&schema, &rows).as_ref());
    }

    #[test]
    fn empty_result() {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        let bytes = encode_result(&schema, &[]);
        let (s2, rows) = decode_result(bytes).unwrap();
        assert_eq!(s2.len(), 1);
        assert!(rows.is_empty());
    }

    #[test]
    fn truncation_detected() {
        let (schema, rows) = sample();
        let bytes = encode_result(&schema, &rows);
        for cut in [0, 3, 10, bytes.len() - 1] {
            let truncated = bytes.slice(0..cut);
            assert!(decode_result(truncated).is_err(), "cut at {cut}");
        }
    }

    #[test]
    fn bad_utf8_detected() {
        let (schema, rows) = sample();
        let bytes = encode_result(&schema, &rows).to_vec();
        // the first string cell is "héllo": break the two-byte `é`, then
        // the first column name
        let cell = bytes
            .windows(2)
            .position(|w| w == "é".as_bytes())
            .expect("the sample holds é");
        for at in [cell + 1, 6] {
            let mut broken = bytes.clone();
            broken[at] = 0xFF;
            match decode_result(Bytes::from(broken)) {
                Err(Error::Remote(msg)) => assert!(msg.contains("encoding"), "{msg}"),
                other => panic!("byte {at}: {other:?}"),
            }
        }
    }

    #[test]
    fn trailing_garbage_detected() {
        let (schema, rows) = sample();
        let mut extended = encode_result(&schema, &rows).to_vec();
        extended.push(0xFF);
        assert!(decode_result(Bytes::from(extended)).is_err());
    }

    /// The batched encoder must be byte-for-byte identical to the row
    /// encoder — including across batch boundaries and through selection
    /// vectors.
    #[test]
    fn encode_batches_is_byte_identical_to_rows() {
        let (schema, rows) = sample();
        let golden = encode_result(&schema, &rows);
        // one dense batch
        let one = Batch::from_rows(schema.len(), rows.clone());
        assert_eq!(encode_batches(&schema, &[one]), golden);
        // two single-row batches
        let split: Vec<Batch> = rows
            .iter()
            .map(|r| Batch::from_rows(schema.len(), vec![r.clone()]))
            .collect();
        assert_eq!(encode_batches(&schema, &split), golden);
        // a selected batch: rows interleaved with rejects, sel picks the
        // original two
        let mut padded = vec![rows[0].clone(), rows[0].clone(), rows[1].clone()];
        padded.insert(1, Row::new(vec![Value::Int(0); 5]));
        let selected = Batch::from_rows(schema.len(), padded).with_sel(vec![0, 3]);
        assert_eq!(encode_batches(&schema, &[selected]), golden);
        // empty set
        assert_eq!(
            encode_batches(&schema, &[]),
            encode_result(&schema, &[]),
            "empty batched result matches empty row result"
        );
    }

    #[test]
    fn wire_size_tracks_content() {
        let schema = Schema::new(vec![Column::new("x", DataType::Str)]);
        let small = encode_result(&schema, &[Row::new(vec![Value::from("a")])]);
        let big = encode_result(&schema, &[Row::new(vec![Value::Str("a".repeat(1000))])]);
        assert!(big.len() > small.len() + 990);
    }
}
