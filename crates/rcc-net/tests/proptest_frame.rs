//! Property tests for the frame codec: round-trips survive arbitrary read
//! fragmentation, and no input — truncated, oversized, or garbage — makes
//! the decoder panic. Every stream is read twice, as a bare stream
//! (`read_frame`) and as a connection with its read buffer
//! (`FramedStream`), and the two must agree.

use bytes::Bytes;
use proptest::prelude::*;
use rcc_common::{Column, DataType, Row, Schema, Value};
use rcc_net::frame::{read_frame, write_frame, Request, Response, TraceContext, WireSpan};
use rcc_net::FramedStream;
use std::io::{self, Read};

/// A reader that hands out at most `chunk` bytes per call, exercising every
/// partial-read path in `read_frame`.
struct ChunkedReader {
    data: Vec<u8>,
    pos: usize,
    chunk: usize,
}

impl Read for ChunkedReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        let n = buf.len().min(self.chunk).min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

/// Read frames off `data`, delivered at most `chunk` bytes per `read`,
/// until a clean EOF (`None`) or the first error (its kind) — through both
/// readers, which must see the same thing.
fn read_all(data: &[u8], chunk: usize) -> (Vec<Bytes>, Option<io::ErrorKind>) {
    fn drain(
        mut next: impl FnMut() -> io::Result<Option<Bytes>>,
    ) -> (Vec<Bytes>, Option<io::ErrorKind>) {
        let mut frames = Vec::new();
        loop {
            match next() {
                Ok(Some(payload)) => frames.push(payload),
                Ok(None) => return (frames, None),
                Err(e) => return (frames, Some(e.kind())),
            }
        }
    }
    let chunked = || ChunkedReader {
        data: data.to_vec(),
        pos: 0,
        chunk,
    };
    let mut bare = chunked();
    let unbuffered = drain(|| read_frame(&mut bare));
    let mut conn = FramedStream::new(chunked());
    let buffered = drain(|| conn.read_frame());
    assert_eq!(unbuffered, buffered, "the two readers disagree");
    buffered
}

/// The one frame on `wire`, followed by a clean EOF.
fn sole_frame(wire: &[u8], chunk: usize) -> Bytes {
    let (mut frames, error) = read_all(wire, chunk);
    assert_eq!((frames.len(), error), (1, None), "one whole frame");
    frames.remove(0)
}

fn printable(bytes: Vec<u8>) -> String {
    String::from_utf8(bytes).expect("printable ASCII is UTF-8")
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 256, .. ProptestConfig::default() })]

    #[test]
    fn request_roundtrips_under_any_fragmentation(
        sql in prop::collection::vec(32u8..127, 0..80).prop_map(printable),
        name in prop::collection::vec(97u8..123, 1..16).prop_map(printable),
        value in prop::collection::vec(32u8..127, 0..24).prop_map(printable),
        which in 0u8..3,
        chunk in 1usize..9,
    ) {
        let req = match which {
            0 => Request::Query { sql },
            1 => Request::SetOption { name, value },
            _ => Request::Ping,
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        // one frame, then nothing left: a clean EOF
        prop_assert_eq!(Request::decode(sole_frame(&wire, chunk)).unwrap(), req);
    }

    #[test]
    fn resultset_roundtrips_under_any_fragmentation(
        ints in prop::collection::vec(-1000i64..1000, 0..20),
        warnings in prop::collection::vec(
            prop::collection::vec(32u8..127, 0..30).prop_map(printable),
            0..4,
        ),
        used_remote in 0u8..2,
        chunk in 1usize..9,
    ) {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        let rows: Vec<Row> = ints.iter().map(|&i| Row::new(vec![Value::Int(i)])).collect();
        let resp = Response::ResultSet {
            used_remote: used_remote == 1,
            warnings,
            payload: rcc_executor::wire::encode_result(&schema, &rows),
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &resp.encode()).unwrap();
        let decoded = Response::decode(sole_frame(&wire, chunk)).unwrap();
        prop_assert_eq!(&decoded, &resp);
        if let Response::ResultSet { payload, .. } = decoded {
            let (s, r) = rcc_executor::wire::decode_result(payload).unwrap();
            prop_assert_eq!(s.columns().len(), 1);
            prop_assert_eq!(r, rows);
        }
    }

    #[test]
    fn traced_request_roundtrips_under_any_fragmentation(
        sql in prop::collection::vec(32u8..127, 0..80).prop_map(printable),
        trace_id in 0u64..=u64::MAX,
        parent_depth in 0u32..=u32::MAX,
        chunk in 1usize..9,
    ) {
        let req = Request::QueryTraced {
            sql,
            trace: TraceContext { trace_id, parent_depth },
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        prop_assert_eq!(Request::decode(sole_frame(&wire, chunk)).unwrap(), req);
        // any truncation of the encoded frame must error, never panic or
        // decode to something else (old/new compatibility: a peer that cuts
        // the trace context off the tail cannot alias a legacy Query)
        for cut in 0..wire.len() {
            let (frames, error) = read_all(&wire[..cut], 7);
            prop_assert!(frames.is_empty(), "truncated frame decoded at cut {}", cut);
            // lost before its first byte is a clean EOF
            let expected = (cut > 0).then_some(io::ErrorKind::UnexpectedEof);
            prop_assert_eq!(error, expected);
        }
    }

    #[test]
    fn traced_response_roundtrips_under_any_fragmentation(
        ints in prop::collection::vec(-1000i64..1000, 0..8),
        names in prop::collection::vec(
            prop::collection::vec(97u8..123, 1..12).prop_map(printable),
            0..6,
        ),
        depths in prop::collection::vec(0u32..8, 6),
        starts in prop::collection::vec(0u64..1_000_000, 6),
        used_remote in 0u8..2,
        chunk in 1usize..9,
    ) {
        let schema = Schema::new(vec![Column::new("x", DataType::Int)]);
        let rows: Vec<Row> = ints.iter().map(|&i| Row::new(vec![Value::Int(i)])).collect();
        let spans: Vec<WireSpan> = names
            .iter()
            .enumerate()
            .map(|(i, name)| WireSpan {
                name: name.clone(),
                depth: depths[i],
                start_us: starts[i],
                elapsed_us: starts[i] / 2,
            })
            .collect();
        let resp = Response::ResultSetTraced {
            used_remote: used_remote == 1,
            warnings: vec![],
            spans,
            payload: rcc_executor::wire::encode_result(&schema, &rows),
        };
        let mut wire = Vec::new();
        write_frame(&mut wire, &resp.encode()).unwrap();
        let decoded = Response::decode(sole_frame(&wire, chunk)).unwrap();
        prop_assert_eq!(&decoded, &resp);
        if let Response::ResultSetTraced { payload, .. } = decoded {
            let (_, r) = rcc_executor::wire::decode_result(payload).unwrap();
            prop_assert_eq!(r, rows);
        }
    }

    #[test]
    fn truncated_frames_error_cleanly(
        sql in prop::collection::vec(32u8..127, 0..60).prop_map(printable),
        fraction in 0usize..1000,
    ) {
        let req = Request::Query { sql };
        let mut wire = Vec::new();
        write_frame(&mut wire, &req.encode()).unwrap();
        let cut = fraction * wire.len() / 1000; // strictly short of a frame
        let (frames, error) = read_all(&wire[..cut], 3);
        prop_assert!(frames.is_empty(), "truncated frame decoded at cut {}", cut);
        // lost before its first byte: a clean EOF; lost mid-frame: an
        // explicit error, never a hang or panic
        let expected = (cut > 0).then_some(io::ErrorKind::UnexpectedEof);
        prop_assert_eq!(error, expected);
    }

    #[test]
    fn garbage_never_panics_the_decoders(
        bytes in prop::collection::vec(0u8..=255, 0..120),
    ) {
        // decoding arbitrary payloads must return Ok or Err, never panic
        let _ = Request::decode(Bytes::from(bytes.clone()));
        let _ = Response::decode(Bytes::from(bytes.clone()));
        // and reading arbitrary bytes as a frame stream must not panic
        // either (oversized length prefixes are rejected before allocation)
        for payload in read_all(&bytes, 5).0 {
            let _ = Request::decode(payload.clone());
            let _ = Response::decode(payload);
        }
    }
}
