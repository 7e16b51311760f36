//! Criterion: end-to-end optimization latency for the Table 4.3 query
//! variants — how much the C&C machinery (normalization, view matching,
//! property checking, SwitchUnion costing) adds to planning — and for the
//! five `point_cold` shapes of the benchmark (`perf/`), the statements a
//! plan-cache miss compiles there.
// `criterion_group!` expands to undocumented harness glue.
#![allow(missing_docs)]

use criterion::{criterion_group, criterion_main, Criterion};
use rcc_mtcache::paper::{paper_setup_sf1_stats, warm_up};
use std::collections::HashMap;

fn bench(c: &mut Criterion) {
    let cache = paper_setup_sf1_stats(0.005, 42).expect("rig");
    warm_up(&cache).expect("warm-up");
    let no_params = HashMap::new();

    let variants = [
        (
            "q1_selective_no_clause",
            "SELECT c.c_custkey, c.c_name, o.o_orderkey, o.o_totalprice FROM customer c, orders o \
          WHERE c.c_custkey = o.o_custkey AND c.c_custkey <= 10"
                .to_string(),
        ),
        (
            "q3_consistency_class",
            "SELECT c.c_custkey, c.c_name, o.o_orderkey, o.o_totalprice FROM customer c, orders o \
          WHERE c.c_custkey = o.o_custkey AND c.c_custkey <= 10 \
          CURRENCY BOUND 10 SEC ON (c, o)"
                .to_string(),
        ),
        (
            "q5_all_local_guarded",
            "SELECT c.c_custkey, c.c_name, o.o_orderkey, o.o_totalprice FROM customer c, orders o \
          WHERE c.c_custkey = o.o_custkey AND c.c_custkey <= 750 \
          CURRENCY BOUND 10 SEC ON (c), 15 SEC ON (o)"
                .to_string(),
        ),
        (
            "q7_single_table_guarded",
            "SELECT c_custkey, c_name, c_acctbal FROM customer \
          WHERE c_acctbal BETWEEN 0.0 AND 1400.0 \
          CURRENCY BOUND 10 SEC ON (customer)"
                .to_string(),
        ),
        (
            "cold_customer_point",
            "SELECT c_name, c_acctbal FROM customer WHERE c_custkey = 77 AND c_acctbal > -1000 \
          CURRENCY BOUND 30 SEC ON (customer)"
                .to_string(),
        ),
        (
            "cold_customer_point_by_key",
            "SELECT c_acctbal FROM customer c WHERE c_custkey = 77 AND c.c_acctbal > -1000 \
          CURRENCY BOUND 1 MIN ON (c) BY c.c_custkey"
                .to_string(),
        ),
        (
            "cold_orders_point",
            "SELECT o_orderkey, o_totalprice FROM orders WHERE o_custkey = 77 \
          AND o_totalprice > -1000 CURRENCY BOUND 2 MIN ON (orders)"
                .to_string(),
        ),
        (
            "cold_join_by_key",
            "SELECT c.c_name, o.o_totalprice FROM customer c, orders o \
          WHERE c.c_custkey = o.o_custkey AND c.c_custkey = 77 AND o.o_totalprice > -1000 \
          CURRENCY BOUND 10 MIN ON (c), 30 SEC ON (o)"
                .to_string(),
        ),
        (
            "cold_join_by_key_residual",
            "SELECT o.o_orderkey FROM orders o, customer c \
          WHERE o.o_custkey = c.c_custkey AND o.o_custkey = 77 \
          AND o.o_totalprice > 4321 AND c.c_acctbal > -1000 \
          CURRENCY BOUND 1 HOUR ON (o), 1 MIN ON (c)"
                .to_string(),
        ),
    ];

    let mut group = c.benchmark_group("optimize");
    for (name, sql) in &variants {
        group.bench_function(name, |b| {
            b.iter(|| {
                cache
                    .explain(std::hint::black_box(sql), &no_params)
                    .unwrap()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
