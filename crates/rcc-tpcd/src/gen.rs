//! Deterministic Customer / Orders generation.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rcc_catalog::TableMeta;
use rcc_common::{Column, DataType, IndexId, Result, Row, Schema, TableId, Value};

/// Rows in Customer at scale factor 1.0.
pub const CUSTOMERS_SF1: u64 = 150_000;
/// Average orders per customer (paper: "Customers have 10 orders on
/// average so the information for a customer is repeated 10 times in the
/// join result").
pub const ORDERS_PER_CUSTOMER: u64 = 10;

/// Catalog metadata for the Customer table, matching the paper's layout:
/// clustered on `c_custkey`, secondary index `ix_acctbal` on `c_acctbal`.
pub fn customer_meta(id: TableId) -> TableMeta {
    let schema = Schema::new(vec![
        Column::new("c_custkey", DataType::Int),
        Column::new("c_name", DataType::Str),
        Column::new("c_nationkey", DataType::Int),
        Column::new("c_acctbal", DataType::Float),
    ]);
    let mut meta =
        TableMeta::new(id, "customer", schema, vec!["c_custkey".into()]).expect("static schema");
    meta.add_index(IndexId(1), "ix_acctbal", vec!["c_acctbal".into()])
        .expect("static schema");
    meta
}

/// Catalog metadata for the Nation table: clustered on `n_nationkey`, no
/// secondary indexes. The audit catalog registers it without any cached
/// view on purpose — it is the lint corpus's target for bounds that no
/// currency region can verify (L006).
pub fn nation_meta(id: TableId) -> TableMeta {
    let schema = Schema::new(vec![
        Column::new("n_nationkey", DataType::Int),
        Column::new("n_name", DataType::Str),
        Column::new("n_regionkey", DataType::Int),
    ]);
    TableMeta::new(id, "nation", schema, vec!["n_nationkey".into()]).expect("static schema")
}

/// Catalog metadata for the Orders table: clustered on
/// `(o_custkey, o_orderkey)`, no secondary indexes.
pub fn orders_meta(id: TableId) -> TableMeta {
    let schema = Schema::new(vec![
        Column::new("o_custkey", DataType::Int),
        Column::new("o_orderkey", DataType::Int),
        Column::new("o_totalprice", DataType::Float),
        Column::new("o_status", DataType::Str),
    ]);
    TableMeta::new(
        id,
        "orders",
        schema,
        vec!["o_custkey".into(), "o_orderkey".into()],
    )
    .expect("static schema")
}

/// Deterministic generator for TPC-D Customer/Orders data.
#[derive(Debug, Clone)]
pub struct TpcdGenerator {
    scale: f64,
    seed: u64,
}

impl TpcdGenerator {
    /// Generator at `scale` (1.0 = the paper's 150k customers / 1.5M
    /// orders) with a fixed seed for reproducibility.
    pub fn new(scale: f64, seed: u64) -> TpcdGenerator {
        assert!(scale > 0.0, "scale factor must be positive");
        TpcdGenerator { scale, seed }
    }

    /// Number of customers at this scale.
    pub fn customer_count(&self) -> u64 {
        ((CUSTOMERS_SF1 as f64 * self.scale).round() as u64).max(1)
    }

    /// Expected total orders (exactly `10 × customers` in aggregate; the
    /// per-customer count varies 5..=15).
    pub fn expected_order_count(&self) -> u64 {
        self.customer_count() * ORDERS_PER_CUSTOMER
    }

    /// Account-balance domain, matching TPC-D's [-999.99, 9999.99].
    pub fn acctbal_range(&self) -> (f64, f64) {
        (-999.99, 9999.99)
    }

    /// Every customer row in clustered order, generated as it is read.
    pub fn customers(&self) -> impl Iterator<Item = Row> {
        let mut rng = StdRng::seed_from_u64(self.seed);
        (1..=self.customer_count()).map(move |k| {
            let acctbal = rng.gen_range(-999.99f64..9999.99);
            Row::new(vec![
                Value::Int(k as i64),
                Value::Str(format!("Customer#{k:09}")),
                Value::Int(rng.gen_range(0..25)),
                Value::Float((acctbal * 100.0).round() / 100.0),
            ])
        })
    }

    /// Every order row in clustered order, generated as it is read.
    /// Per-customer counts are drawn uniformly from 5..=15 (mean 10), so
    /// the 10-orders-per-customer ratio that drives the paper's Q2 plan
    /// choice holds in aggregate.
    pub fn orders(&self) -> impl Iterator<Item = Row> {
        let mut rng = StdRng::seed_from_u64(self.seed.wrapping_add(1));
        let customers = self.customer_count();
        // the customer being generated, its orders so far and its count
        let (mut cust, mut ord, mut count) = (0u64, 0u64, 0u64);
        std::iter::from_fn(move || {
            while ord == count {
                if cust == customers {
                    return None;
                }
                (cust, ord, count) = (cust + 1, 0, rng.gen_range(5..=15u64));
            }
            ord += 1;
            let price = rng.gen_range(10.0f64..10_000.0);
            Some(Row::new(vec![
                Value::Int(cust as i64),
                Value::Int(ord as i64),
                Value::Float((price * 100.0).round() / 100.0),
                Value::Str(if rng.gen_bool(0.5) { "O" } else { "F" }.to_string()),
            ]))
        })
    }

    /// Load both tables into a storage-backed sink (e.g. the master
    /// database's `bulk_load`), streaming each table's rows as they are
    /// generated; returns (customers, orders) row counts.
    pub fn load_into<F>(&self, mut load: F) -> Result<(usize, usize)>
    where
        F: FnMut(&str, &mut dyn Iterator<Item = Row>) -> Result<usize>,
    {
        let c = load("customer", &mut self.customers())?;
        let o = load("orders", &mut self.orders())?;
        Ok((c, o))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_generation() {
        let a = TpcdGenerator::new(0.001, 42);
        let b = TpcdGenerator::new(0.001, 42);
        assert!(a.customers().eq(b.customers()));
        assert!(a.orders().eq(b.orders()));
        let c = TpcdGenerator::new(0.001, 43);
        assert!(a.customers().ne(c.customers()));
    }

    #[test]
    fn scale_controls_cardinality() {
        let g = TpcdGenerator::new(0.001, 1);
        assert_eq!(g.customer_count(), 150);
        assert_eq!(g.customers().count(), 150);
        let ratio = g.orders().count() as f64 / 150.0;
        assert!(
            (8.0..=12.0).contains(&ratio),
            "avg orders/customer = {ratio}"
        );
    }

    #[test]
    fn keys_are_unique_and_clustered() {
        let g = TpcdGenerator::new(0.002, 7);
        let mut prev = 0i64;
        for row in g.customers() {
            let k = row.get(0).as_int().unwrap();
            assert!(k > prev, "clustered order");
            prev = k;
        }
        let mut prev = (0i64, 0i64);
        for row in g.orders() {
            let key = (row.get(0).as_int().unwrap(), row.get(1).as_int().unwrap());
            assert!(key > prev, "clustered order, no duplicate: {key:?}");
            prev = key;
        }
    }

    #[test]
    fn orders_reference_existing_customers() {
        let g = TpcdGenerator::new(0.001, 3);
        let max_cust = g.customer_count() as i64;
        for row in g.orders() {
            let c = row.get(0).as_int().unwrap();
            assert!(c >= 1 && c <= max_cust);
        }
    }

    #[test]
    fn balances_in_tpcd_domain() {
        let g = TpcdGenerator::new(0.001, 9);
        for row in g.customers() {
            let bal = row.get(3).as_float().unwrap();
            assert!((-999.99..=9999.99).contains(&bal));
        }
    }

    #[test]
    fn metadata_matches_paper_layout() {
        let c = customer_meta(TableId(1));
        assert_eq!(c.key, vec!["c_custkey".to_string()]);
        assert!(c.index_on("c_acctbal").is_some());
        let o = orders_meta(TableId(2));
        assert_eq!(
            o.key,
            vec!["o_custkey".to_string(), "o_orderkey".to_string()]
        );
        assert!(o.indexes.is_empty());
    }

    #[test]
    fn rows_match_meta_arity() {
        let g = TpcdGenerator::new(0.0005, 1);
        let cm = customer_meta(TableId(1));
        let om = orders_meta(TableId(2));
        assert!(g.customers().all(|r| r.len() == cm.schema.len()));
        assert!(g.orders().all(|r| r.len() == om.schema.len()));
    }
}
