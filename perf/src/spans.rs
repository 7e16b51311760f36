//! The benchmark's own span recorder.
//!
//! The traced run wraps every call it makes into a layer of the program in
//! a span: id, parent, request id, name, start and end in nanoseconds
//! since the recorder was created. Spans stay in memory and are written to
//! a file when the run ends. A span's *self time* is its duration minus
//! its children's; spans are opened and closed on one thread in strict
//! nesting, so children never overlap.

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Instant;

/// One recorded span. `parent == 0` marks a root; ids start at 1.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub req: u32,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

#[derive(Debug, Default)]
struct Inner {
    spans: Vec<Span>,
    open: Vec<u32>,
    req: u32,
}

/// Records spans. Shared by reference with the remote-service wrapper the
/// executor calls back into, hence the mutex; it is only ever taken for
/// the push or the end-time store, never across the timed call.
#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    inner: Mutex<Inner>,
}

/// Closes its span when dropped.
pub struct SpanGuard<'a> {
    rec: &'a Recorder,
    id: u32,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        let end = self.rec.now_ns();
        let mut inner = self.rec.lock();
        inner.spans[self.id as usize - 1].end_ns = end;
        let top = inner.open.pop();
        debug_assert_eq!(top, Some(self.id), "spans must nest");
    }
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            epoch: Instant::now(),
            inner: Mutex::new(Inner::default()),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Inner> {
        self.inner
            .lock()
            .expect("no thread panics while holding the span recorder")
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Start the next request: spans opened from now on carry its id.
    pub fn next_request(&self) -> u32 {
        let mut inner = self.lock();
        inner.req += 1;
        inner.req
    }

    /// Open a span under the innermost open one.
    pub fn span(&self, name: &'static str) -> SpanGuard<'_> {
        let mut inner = self.lock();
        let id = inner.spans.len() as u32 + 1;
        let parent = inner.open.last().copied().unwrap_or(0);
        let req = inner.req;
        inner.open.push(id);
        inner.spans.push(Span {
            id,
            parent,
            req,
            name,
            start_ns: 0,
            end_ns: 0,
        });
        drop(inner);
        // stamp the start last so the recorder's own work is not in the span
        let start = self.now_ns();
        self.lock().spans[id as usize - 1].start_ns = start;
        SpanGuard { rec: self, id }
    }

    /// Time `f` as a span; returns its result and the span's duration.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, u64) {
        let guard = self.span(name);
        let id = guard.id;
        let out = f();
        drop(guard);
        let span = &self.lock().spans[id as usize - 1];
        (out, span.end_ns - span.start_ns)
    }

    /// Every span recorded so far, in opening order.
    pub fn spans(&self) -> Vec<Span> {
        self.lock().spans.clone()
    }
}

/// Self time per span, in the order given: duration minus the summed
/// duration of direct children.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut child_sum: BTreeMap<u32, u64> = BTreeMap::new();
    for s in spans {
        if s.parent != 0 {
            *child_sum.entry(s.parent).or_default() += s.duration_ns();
        }
    }
    spans
        .iter()
        .map(|s| {
            s.duration_ns()
                .saturating_sub(child_sum.get(&s.id).copied().unwrap_or(0))
        })
        .collect()
}

/// Durations of every span called `name`.
pub fn durations(spans: &[Span], name: &str) -> Vec<u64> {
    spans
        .iter()
        .filter(|s| s.name == name)
        .map(Span::duration_ns)
        .collect()
}

/// Per span name: (count, summed self time), sorted by name.
pub fn self_time_by_name(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out: BTreeMap<&'static str, (u64, u64)> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += self_ns;
    }
    out
}

/// The span file: one array of `{id, parent, req, name, start_ns, end_ns}`.
pub fn to_json(spans: &[Span]) -> Json {
    Json::Arr(
        spans
            .iter()
            .map(|s| {
                Json::obj([
                    ("id", Json::Num(s.id as f64)),
                    ("parent", Json::Num(s.parent as f64)),
                    ("req", Json::Num(s.req as f64)),
                    ("name", Json::str(s.name)),
                    ("start_ns", Json::Num(s.start_ns as f64)),
                    ("end_ns", Json::Num(s.end_ns as f64)),
                ])
            })
            .collect(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            req: 1,
            name,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let spans = vec![
            span(1, 0, "request", 0, 100),
            span(2, 1, "parse", 10, 30),
            span(3, 1, "execute", 30, 90),
            span(4, 3, "remote", 40, 80),
        ];
        assert_eq!(self_times(&spans), vec![20, 20, 20, 40]);
        let by_name = self_time_by_name(&spans);
        assert_eq!(by_name["execute"], (1, 20));
        assert_eq!(durations(&spans, "remote"), vec![40]);
    }

    #[test]
    fn recorder_nests_and_tags_requests() {
        let rec = Recorder::new();
        let req = rec.next_request();
        {
            let _root = rec.span("request");
            let (two, ns) = rec.time("a", || std::hint::black_box(1 + 1));
            assert_eq!(two, 2);
            assert_eq!(ns, rec.spans()[1].duration_ns());
            {
                let _b = rec.span("b");
                rec.time("c", || ());
            }
        }
        rec.next_request();
        rec.time("request", || ());
        let spans = rec.spans();
        let names: Vec<_> = spans.iter().map(|s| (s.name, s.parent, s.req)).collect();
        assert_eq!(
            names,
            vec![
                ("request", 0, req),
                ("a", 1, req),
                ("b", 1, req),
                ("c", 3, req),
                ("request", 0, req + 1)
            ]
        );
        assert!(spans.iter().all(|s| s.end_ns >= s.start_ns));
        let root = &spans[0];
        assert!(spans[1..4]
            .iter()
            .all(|s| s.start_ns >= root.start_ns && s.end_ns <= root.end_ns));
        assert_eq!(to_json(&spans).items().len(), 5);
    }
}
