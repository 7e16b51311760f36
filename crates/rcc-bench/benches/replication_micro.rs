//! Criterion: substrate micro-benches — master transaction commit rate,
//! distribution-agent propagation throughput, and wire-format codec speed.
// `criterion_group!` expands to undocumented harness glue.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use rcc_common::{Clock, Duration, Row, Value};
use rcc_mtcache::MTCache;
use rcc_tpcd::UpdateWorkload;

fn bench(c: &mut Criterion) {
    // transaction commit rate at the master
    {
        let cache = MTCache::new();
        let cm = rcc_tpcd::customer_meta(cache.catalog().next_table_id());
        cache.register_table(cm).unwrap();
        let gen = rcc_tpcd::TpcdGenerator::new(0.01, 42);
        cache.bulk_load("customer", gen.customers()).unwrap();
        let mut wl = UpdateWorkload::new(gen.customer_count(), 7);
        let mut group = c.benchmark_group("master_commit");
        group.throughput(Throughput::Elements(1));
        group.bench_function("single_row_update_txn", |b| {
            b.iter(|| {
                let (table, change) = wl.customer_update();
                cache
                    .master()
                    .execute_txn(vec![rcc_backend::TableChange::new(table, change)])
                    .unwrap()
            })
        });
        group.finish();
    }

    // agent propagation: apply a 1 000-txn backlog through one cycle
    {
        let mut group = c.benchmark_group("agent_propagation");
        group.throughput(Throughput::Elements(1000));
        group.sample_size(20);
        group.bench_function("apply_1000_txn_backlog", |b| {
            b.iter_with_setup(
                || {
                    let cache = MTCache::new();
                    let cm = rcc_tpcd::customer_meta(cache.catalog().next_table_id());
                    cache.register_table(cm).unwrap();
                    let gen = rcc_tpcd::TpcdGenerator::new(0.01, 42);
                    cache.bulk_load("customer", gen.customers()).unwrap();
                    cache.analyze("customer").unwrap();
                    cache
                        .create_region("R", Duration::from_secs(1000), Duration::from_secs(1))
                        .unwrap();
                    cache
                        .execute(
                            "CREATE CACHED VIEW c_v REGION r AS \
                             SELECT c_custkey, c_name, c_nationkey, c_acctbal FROM customer",
                        )
                        .unwrap();
                    let mut wl = UpdateWorkload::new(gen.customer_count(), 3);
                    for _ in 0..1000 {
                        let (table, change) = wl.customer_update();
                        cache
                            .master()
                            .execute_txn(vec![rcc_backend::TableChange::new(table, change)])
                            .unwrap();
                    }
                    cache
                },
                |cache| {
                    // one giant propagation cycle applies the whole backlog
                    cache.advance(Duration::from_secs(1000)).unwrap();
                    assert!(cache.clock().now().millis() > 0);
                },
            )
        });
        group.finish();
    }

    // wire codec throughput
    {
        let gen = rcc_tpcd::TpcdGenerator::new(0.01, 42);
        let rows: Vec<Row> = gen.customers().collect();
        let schema = rcc_tpcd::customer_meta(rcc_common::TableId(1))
            .schema
            .clone();
        let payload = rcc_executor::wire::encode_result(&schema, &rows);
        let mut group = c.benchmark_group("wire_codec");
        group.throughput(Throughput::Bytes(payload.len() as u64));
        group.bench_function("encode_1500_rows", |b| {
            b.iter(|| rcc_executor::wire::encode_result(&schema, std::hint::black_box(&rows)))
        });
        group.bench_function("decode_1500_rows", |b| {
            b.iter(|| {
                rcc_executor::wire::decode_result(std::hint::black_box(payload.clone())).unwrap()
            })
        });
        group.finish();
        let _ = Value::Int(0);
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
