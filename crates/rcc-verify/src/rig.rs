//! A self-contained catalog rig for plan auditing.
//!
//! `flow-audit`'s static sweep, `rcc-lint`'s corpus test and the mutation
//! tests need a realistic catalog — base tables with statistics, currency
//! regions, cached-view definitions — built without `rcc-mtcache` (which
//! depends on this crate for its post-optimize audit). This module builds the paper's Table 4.1 shape
//! directly from `rcc-catalog` + `rcc-backend` + `rcc-tpcd`: Customer and
//! Orders, regions CR1(15, 5) and CR2(10, 5), views `cust_prj` (CR1) and
//! `orders_prj` (CR2), plus a second customer view `cust_bal` in CR2 so
//! the optimizer has cross-region choices to make.

use rcc_backend::MasterDb;
use rcc_catalog::{CachedViewDef, Catalog, CurrencyRegion, TableMeta};
use rcc_common::{Clock, Duration, RegionId, Result, SimClock};
use rcc_tpcd::TpcdGenerator;
use std::sync::Arc;

/// Build the audit catalog at `scale` (fraction of TPC-D SF 1.0). Returns
/// the populated catalog and the master database backing its statistics.
pub fn audit_catalog(scale: f64, seed: u64) -> Result<(Arc<Catalog>, Arc<MasterDb>)> {
    let catalog = Arc::new(Catalog::new());
    let clock: Arc<dyn Clock> = Arc::new(SimClock::new());
    let master = Arc::new(MasterDb::new(Arc::clone(&catalog), clock));

    let cm = rcc_tpcd::customer_meta(catalog.next_table_id());
    master.create_table(&cm)?;
    let cm = catalog.register_table(cm)?;
    let om = rcc_tpcd::orders_meta(catalog.next_table_id());
    master.create_table(&om)?;
    let om = catalog.register_table(om)?;
    // Nation exists only at the master: no cached view ever covers it, so
    // positive bounds on it are unverifiable at guard time (lint L006).
    let nm = rcc_tpcd::nation_meta(catalog.next_table_id());
    master.create_table(&nm)?;
    catalog.register_table(nm)?;

    let gen = TpcdGenerator::new(scale, seed);
    gen.load_into(|t, rows| master.bulk_load(t, rows))?;
    catalog.set_stats("customer", master.compute_stats("customer")?);
    catalog.set_stats("orders", master.compute_stats("orders")?);

    let cr1 = catalog.register_region(CurrencyRegion::new(
        RegionId(1),
        "CR1",
        Duration::from_secs(15),
        Duration::from_secs(5),
    ))?;
    let cr2 = catalog.register_region(CurrencyRegion::new(
        RegionId(2),
        "CR2",
        Duration::from_secs(10),
        Duration::from_secs(5),
    ))?;

    register_view(
        &catalog,
        "cust_prj",
        cr1.id,
        &cm,
        &["c_custkey", "c_name", "c_nationkey", "c_acctbal"],
    )?;
    register_view(
        &catalog,
        "orders_prj",
        cr2.id,
        &om,
        &["o_custkey", "o_orderkey", "o_totalprice"],
    )?;
    register_view(
        &catalog,
        "cust_bal",
        cr2.id,
        &cm,
        &["c_custkey", "c_acctbal"],
    )?;

    Ok((catalog, master))
}

/// Register a full-table projection view over `base` and give it the base
/// table's statistics (the audit only plans; views hold no data here).
fn register_view(
    catalog: &Arc<Catalog>,
    name: &str,
    region: RegionId,
    base: &Arc<TableMeta>,
    columns: &[&str],
) -> Result<()> {
    let columns: Vec<String> = columns.iter().map(|c| c.to_string()).collect();
    let schema = rcc_common::Schema::new(
        columns
            .iter()
            .map(|c| {
                let ord = base.schema.resolve(None, c)?;
                let mut col = base.schema.column(ord).clone();
                col.qualifier = Some(name.to_ascii_lowercase());
                col.source = Some(base.id);
                Ok(col)
            })
            .collect::<Result<Vec<_>>>()?,
    );
    let key_ordinals: Vec<usize> = base
        .key
        .iter()
        .map(|k| {
            columns
                .iter()
                .position(|c| c.eq_ignore_ascii_case(k))
                .ok_or_else(|| {
                    rcc_common::Error::Config(format!("view {name} must retain key column {k}"))
                })
        })
        .collect::<Result<_>>()?;
    catalog.register_view(CachedViewDef {
        id: catalog.next_view_id(),
        name: name.to_ascii_lowercase(),
        region,
        base_table: base.id,
        base_table_name: base.name.clone(),
        columns,
        predicate: None,
        schema,
        key_ordinals,
        local_indexes: Vec::new(),
    })?;
    let stats = (*catalog.stats(&base.name)).clone();
    catalog.set_stats(name, stats);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rig_builds_paper_shape() {
        let (catalog, _master) = audit_catalog(0.005, 1).expect("rig");
        assert!(catalog.table("customer").is_ok());
        assert!(catalog.table("orders").is_ok());
        assert_eq!(catalog.regions().len(), 2);
        assert_eq!(catalog.all_views().len(), 3);
        assert!(catalog.stats("cust_prj").row_count > 0);
        // Nation is registered but deliberately uncovered by any view.
        let nation = catalog.table("nation").expect("nation registered");
        assert!(catalog.views_over(nation.id).is_empty());
    }
}
