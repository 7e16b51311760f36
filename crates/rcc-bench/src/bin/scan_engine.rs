//! `scan_engine` — scan-engine benchmark + correctness sweep, written to
//! `BENCH_scan.json`.
//!
//! Four measurements over the paper rig and the storage layer:
//!
//! 1. **Batched vs. row-at-a-time**: rows/s of a residual-filtered full
//!    scan through the whole SQL pipeline on the vectorized engine versus
//!    the preserved row reference engine ([`rcc_executor::rowref`]); the
//!    batched engine must be ≥2× (asserted unconditionally — both run on
//!    the same box).
//! 2. **Concurrent refresh**: reader scan throughput while a writer
//!    continuously publishes refresh batches — the copy-on-write
//!    [`TableCell`] path versus the pre-snapshot design (a bench-local
//!    `RwLock<Table>` where readers scan under the read lock and the
//!    writer applies each batch under the write lock). Proves reader
//!    throughput does not collapse when refresh runs concurrently.
//! 3. **Batched/row identity**: every query of the TPC-D currency corpus,
//!    batched versus the row engine, in both SwitchUnion pull-up modes;
//!    wire encodings must be byte-identical (asserted, any mode).
//! 4. **Guard-elision cost and identity**: the corpus with certified guard
//!    elision off versus on, in both pull-up modes; wire encodings,
//!    remote usage, and warnings must be identical, some guards must be
//!    elided, guard evaluations must drop, and the runtime premise
//!    cross-check (`rcc_flow_interval_violations_total`) must read zero.
//!
//! ```sh
//! cargo run -p rcc-bench --bin scan_engine --release -- \
//!     [--quick] [--scale F] [--iters N] [--refresh-ms MS] [--corpus N] \
//!     [--out PATH]
//! ```

use parking_lot::RwLock;
use rcc_common::{Column, DataType, Row, Schema, Value};
use rcc_executor::wire;
use rcc_mtcache::paper::{paper_setup, warm_up};
use rcc_mtcache::MTCache;
use rcc_storage::{KeyRange, Table, TableCell};
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

struct Options {
    quick: bool,
    scale: f64,
    iters: usize,
    refresh_ms: u64,
    corpus: usize,
    out: String,
}

impl Default for Options {
    fn default() -> Self {
        Options {
            quick: false,
            scale: 0.2,
            iters: 6,
            refresh_ms: 1500,
            corpus: 160,
            out: "BENCH_scan.json".into(),
        }
    }
}

fn parse_args() -> Options {
    let mut opts = Options::default();
    let mut scale_set = false;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || {
            args.next()
                .unwrap_or_else(|| panic!("{flag} needs a value"))
        };
        match flag.as_str() {
            "--quick" => opts.quick = true,
            "--scale" => {
                opts.scale = value().parse().expect("--scale");
                scale_set = true;
            }
            "--iters" => opts.iters = value().parse().expect("--iters"),
            "--refresh-ms" => opts.refresh_ms = value().parse().expect("--refresh-ms"),
            "--corpus" => opts.corpus = value().parse().expect("--corpus"),
            "--out" => opts.out = value(),
            other => panic!("unknown flag {other}"),
        }
    }
    if opts.quick {
        if !scale_set {
            opts.scale = 0.02;
        }
        opts.iters = opts.iters.min(2);
        opts.refresh_ms = opts.refresh_ms.min(300);
        opts.corpus = opts.corpus.min(60);
    }
    opts
}

/// A full scan of the customer view with a residual predicate that keeps
/// every row: per-row work for the scan kernel, zero pruning, so rows/s
/// measures the scan pipeline itself.
const SCAN_SQL: &str = "SELECT c_custkey, c_name, c_acctbal FROM customer \
     WHERE c_acctbal >= -1000000 CURRENCY BOUND 1 HOUR ON (customer)";

/// rows/s of `SCAN_SQL` on the engine the cache is set to.
fn measure_scan(cache: &MTCache, iters: usize) -> f64 {
    // warm once: the plan-cache fill stays out of the timing
    let warm = cache.execute(SCAN_SQL).expect("warm scan");
    assert!(!warm.used_remote, "the scan must run on the local view");
    assert!(!warm.rows.is_empty(), "the scan returned no rows");
    let started = Instant::now();
    let mut rows = 0u64;
    for _ in 0..iters {
        rows += cache.execute(SCAN_SQL).expect("scan").rows.len() as u64;
    }
    rows as f64 / started.elapsed().as_secs_f64()
}

fn refresh_table(n: i64) -> Table {
    let schema = Schema::new(vec![
        Column::new("id", DataType::Int),
        Column::new("val", DataType::Int),
    ]);
    let mut t = Table::new("refresh_t", schema, vec![0]);
    for i in 0..n {
        t.insert(Row::new(vec![Value::Int(i), Value::Int(0)]))
            .expect("load");
    }
    t
}

struct RefreshOutcome {
    reads_per_sec: f64,
    rows_per_sec: f64,
    refresh_batches: u64,
}

/// Reader throughput under a continuous refresh writer, for one of the two
/// locking designs. `scan` must count the rows of one full scan; `refresh`
/// must apply one whole refresh batch (returning once it is published).
fn measure_refresh<S, W>(duration: Duration, readers: usize, scan: S, refresh: W) -> RefreshOutcome
where
    S: Fn() -> u64 + Send + Sync,
    W: Fn(i64),
{
    let done = AtomicBool::new(false);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..readers)
            .map(|_| {
                scope.spawn(|| {
                    let mut scans = 0u64;
                    let mut rows = 0u64;
                    while !done.load(Ordering::Relaxed) {
                        rows += scan();
                        scans += 1;
                    }
                    (scans, rows)
                })
            })
            .collect();
        let started = Instant::now();
        let mut batches = 0u64;
        while started.elapsed() < duration {
            refresh(batches as i64);
            batches += 1;
        }
        done.store(true, Ordering::Relaxed);
        let (mut scans, mut rows) = (0u64, 0u64);
        for h in handles {
            let (s, r) = h.join().expect("reader");
            scans += s;
            rows += r;
        }
        let secs = started.elapsed().as_secs_f64();
        RefreshOutcome {
            reads_per_sec: scans as f64 / secs,
            rows_per_sec: rows as f64 / secs,
            refresh_batches: batches,
        }
    })
}

/// Rows of one full scan. Each row is handed to `black_box`, or the
/// optimizer folds the loop into a sum of chunk lengths and no row is read.
fn count_rows(t: &Table) -> u64 {
    let mut rows = 0u64;
    t.scan_range(
        &KeyRange::all(),
        |_| true,
        |row| {
            std::hint::black_box(row);
            rows += 1;
        },
    );
    rows
}

fn apply_batch(t: &mut Table, batch: i64, size: i64) {
    for i in 0..size {
        t.upsert(Row::new(vec![Value::Int(i), Value::Int(batch)]))
            .expect("upsert");
    }
}

fn main() {
    let opts = parse_args();
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    eprintln!(
        "scan_engine: scale {}, {} iters, quick={}, cpus={}",
        opts.scale, opts.iters, opts.quick, cpus
    );

    let cache = paper_setup(opts.scale, 42).expect("rig");
    warm_up(&cache).expect("warm up");
    let max_custkey = ((150_000.0 * opts.scale) as i64).max(2);

    // ---------------------------------- 1. batched vs. row-at-a-time
    // both engines, identical query: the vectorized engine's margin comes
    // from ordinal-compiled expressions, per-batch dispatch and columnar
    // fills
    cache.set_row_engine(true);
    let row_rps = measure_scan(&cache, opts.iters);
    cache.set_row_engine(false);
    let batched_rps = measure_scan(&cache, opts.iters);
    let batched_speedup = batched_rps / row_rps;
    eprintln!("  batched vs row: {batched_rps:.0} vs {row_rps:.0} rows/s ({batched_speedup:.2}×)");
    assert!(
        batched_speedup >= 2.0,
        "expected the batched engine ≥2× the row engine, got {batched_speedup:.2}×"
    );

    // -------------------------------------- 2. reader vs. refresh writer
    let (table_rows, batch_rows) = if opts.quick {
        (5_000, 500)
    } else {
        (50_000, 5_000)
    };
    let duration = Duration::from_millis(opts.refresh_ms);
    let readers = 2;

    let cell = Arc::new(TableCell::new(refresh_table(table_rows)));
    let snapshot_path = measure_refresh(
        duration,
        readers,
        || count_rows(&cell.snapshot()),
        |batch| {
            cell.update(|t| {
                apply_batch(t, batch, batch_rows);
                Ok(())
            })
            .expect("publish");
        },
    );

    let locked = Arc::new(RwLock::new(refresh_table(table_rows)));
    let locked_path = measure_refresh(
        duration,
        readers,
        || count_rows(&locked.read()),
        |batch| apply_batch(&mut locked.write(), batch, batch_rows),
    );

    let reader_ratio = snapshot_path.rows_per_sec / locked_path.rows_per_sec.max(1.0);
    eprintln!(
        "  concurrent refresh: snapshot {:.0} rows/s vs locked {:.0} rows/s ({reader_ratio:.2}×)",
        snapshot_path.rows_per_sec, locked_path.rows_per_sec
    );
    assert!(
        reader_ratio >= 0.5,
        "snapshot readers collapsed vs. the locked baseline: {reader_ratio:.2}×"
    );

    // ---------------------------- 3. batched vs. row identity sweep
    // the corpus, vectorized engine against the row reference engine, in
    // both SwitchUnion pull-up modes
    let corpus = rcc_tpcd::currency_corpus(opts.corpus, 7, max_custkey);
    let mut engine_queries = 0usize;
    let mut engine_mismatches = 0usize;
    for pullup in [false, true] {
        cache.set_pullup_switch_union(pullup);
        cache.set_row_engine(true);
        let row_bytes: Vec<Vec<u8>> = corpus
            .iter()
            .map(|sql| {
                let r = cache.execute(sql).expect("row-engine corpus query");
                wire::encode_result(&r.schema, &r.rows).to_vec()
            })
            .collect();
        cache.set_row_engine(false);
        for (sql, row_encoded) in corpus.iter().zip(&row_bytes) {
            engine_queries += 1;
            let r = cache.execute(sql).expect("batched corpus query");
            let batched_encoded = wire::encode_result(&r.schema, &r.rows).to_vec();
            if &batched_encoded != row_encoded {
                eprintln!("  ENGINE MISMATCH (pullup={pullup}): {sql}");
                engine_mismatches += 1;
            }
        }
    }
    cache.set_pullup_switch_union(false); // back to the default mode
    eprintln!("  batched/row identity: {engine_queries} runs, {engine_mismatches} mismatches");
    assert_eq!(
        engine_mismatches, 0,
        "the batched engine must be byte-identical to the row engine on the wire"
    );

    // ------------------- 4. guard elision: cost and identity sweep
    // the corpus again, elision off vs. on, in both pull-up modes:
    // wire encodings, remote usage, and warnings must be identical
    // (elision only removes checks whose outcome is statically certain),
    // at least one guard must actually be elided, the elided side must
    // evaluate strictly fewer guards, and the runtime premise cross-check
    // must stay silent.
    let mut elision_queries = 0usize;
    let mut elision_mismatches = 0usize;
    let mut guard_evals_off = 0u64;
    let mut guard_evals_on = 0u64;
    for pullup in [false, true] {
        cache.set_pullup_switch_union(pullup);
        for sql in &corpus {
            elision_queries += 1;
            cache.set_elide_guards(false);
            let off = cache.execute(sql).expect("elision-off corpus query");
            cache.set_elide_guards(true);
            let on = cache.execute(sql).expect("elision-on corpus query");
            guard_evals_off += off.guards.len() as u64;
            guard_evals_on += on.guards.len() as u64;
            let off_encoded = wire::encode_result(&off.schema, &off.rows);
            let on_encoded = wire::encode_result(&on.schema, &on.rows);
            if off_encoded != on_encoded
                || off.used_remote != on.used_remote
                || off.warnings != on.warnings
            {
                eprintln!("  ELISION MISMATCH (pullup={pullup}): {sql}");
                elision_mismatches += 1;
            }
        }
    }
    cache.set_elide_guards(false);
    cache.set_pullup_switch_union(false);
    let snap = cache.metrics().snapshot();
    let guards_elided = snap.counter("rcc_flow_guards_elided_total");
    let interval_violations = snap.counter("rcc_flow_interval_violations_total");
    eprintln!(
        "  elision identity: {elision_queries} runs, {elision_mismatches} mismatches, \
         guard evals {guard_evals_off} → {guard_evals_on}, {guards_elided} guards elided"
    );
    assert_eq!(
        elision_mismatches, 0,
        "elided plans must be byte-identical to guarded plans on the wire"
    );
    assert!(
        guards_elided > 0,
        "the corpus' extreme bounds must let the analysis elide some guards"
    );
    assert!(
        guard_evals_on < guard_evals_off,
        "elision must reduce the number of guard evaluations \
         ({guard_evals_off} → {guard_evals_on})"
    );
    assert_eq!(
        interval_violations, 0,
        "healthy replication: no elided certificate may be overrun"
    );

    // ------------------------------------------------------------ report
    let json = format!(
        "{{\n  \"bench\": \"scan_engine\",\n  \"quick\": {},\n  \"scale\": {},\n  \
         \"cpus\": {},\n  \"iters\": {},\n  \"batched_vs_row\": {{\n    \
         \"row_rows_per_sec\": {:.1}, \"batched_rows_per_sec\": {:.1},\n    \
         \"speedup\": {:.3}\n  }},\n  \
         \"concurrent_refresh\": {{\n    \
         \"table_rows\": {}, \"batch_rows\": {}, \"readers\": {},\n    \
         \"snapshot\": {{ \"reads_per_sec\": {:.1}, \"rows_per_sec\": {:.1}, \"refresh_batches\": {} }},\n    \
         \"locked\": {{ \"reads_per_sec\": {:.1}, \"rows_per_sec\": {:.1}, \"refresh_batches\": {} }},\n    \
         \"reader_ratio_snapshot_vs_locked\": {:.3}\n  }},\n  \
         \"engine_identity_sweep\": {{ \"queries\": {}, \"mismatches\": {} }},\n  \
         \"guard_elision\": {{ \"queries\": {}, \"mismatches\": {}, \
         \"guard_evals_off\": {}, \"guard_evals_on\": {}, \
         \"guards_elided\": {}, \"interval_violations\": {} }}\n}}\n",
        opts.quick,
        opts.scale,
        cpus,
        opts.iters,
        row_rps,
        batched_rps,
        batched_speedup,
        table_rows,
        batch_rows,
        readers,
        snapshot_path.reads_per_sec,
        snapshot_path.rows_per_sec,
        snapshot_path.refresh_batches,
        locked_path.reads_per_sec,
        locked_path.rows_per_sec,
        locked_path.refresh_batches,
        reader_ratio,
        engine_queries,
        engine_mismatches,
        elision_queries,
        elision_mismatches,
        guard_evals_off,
        guard_evals_on,
        guards_elided,
        interval_violations,
    );
    let mut f = std::fs::File::create(&opts.out).expect("create BENCH_scan.json");
    f.write_all(json.as_bytes()).expect("write BENCH_scan.json");
    eprintln!("wrote {}", opts.out);
}
