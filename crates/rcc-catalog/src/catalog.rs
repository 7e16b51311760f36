//! The catalog proper: registries for tables, views, regions and stats.

use crate::region::CurrencyRegion;
use crate::table_meta::TableMeta;
use crate::view::CachedViewDef;
use parking_lot::RwLock;
use rcc_common::{Error, RegionId, Result, TableId, ViewId};
use rcc_storage::TableStats;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Thread-safe catalog shared by the planner, optimizer and executor.
///
/// On the back-end server it describes the master database; on the cache it
/// is the *shadow catalog*: identical table definitions, **back-end**
/// statistics, plus the cached-view and currency-region registries only the
/// cache has.
#[derive(Debug, Default)]
pub struct Catalog {
    inner: RwLock<Inner>,
    /// Mutations so far; see [`Catalog::version`].
    version: AtomicU64,
}

#[derive(Debug, Default)]
struct Inner {
    tables: HashMap<String, Arc<TableMeta>>,
    tables_by_id: HashMap<TableId, String>,
    views: HashMap<String, Arc<CachedViewDef>>,
    regions: HashMap<RegionId, Arc<CurrencyRegion>>,
    regions_by_name: HashMap<String, RegionId>,
    /// Stats keyed by object name (table or view).
    stats: HashMap<String, Arc<TableStats>>,
    next_table_id: u32,
    next_view_id: u32,
}

impl Catalog {
    /// An empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// How many times anything a plan is compiled from — tables, indexes,
    /// views, regions, statistics — has changed. A plan cache tags a plan
    /// with the version read *before* compiling it and serves it only
    /// while the version is still that: every mutator bumps the count while
    /// it holds the write lock, after making its change, so whoever reads a
    /// version and then the catalog sees at least that version's state.
    pub fn version(&self) -> u64 {
        self.version.load(Ordering::SeqCst)
    }

    /// Called by every mutator with the write lock held and the change made.
    fn bump_version(&self) {
        self.version.fetch_add(1, Ordering::SeqCst);
    }

    /// Allocate the next table id.
    pub fn next_table_id(&self) -> TableId {
        let mut inner = self.inner.write();
        inner.next_table_id += 1;
        TableId(inner.next_table_id)
    }

    /// Allocate the next view id.
    pub fn next_view_id(&self) -> ViewId {
        let mut inner = self.inner.write();
        inner.next_view_id += 1;
        ViewId(inner.next_view_id)
    }

    /// Register a base table.
    pub fn register_table(&self, meta: TableMeta) -> Result<Arc<TableMeta>> {
        let mut inner = self.inner.write();
        if inner.tables.contains_key(&meta.name) {
            return Err(Error::AlreadyExists(format!("table {}", meta.name)));
        }
        let arc = Arc::new(meta);
        inner.tables_by_id.insert(arc.id, arc.name.clone());
        inner.tables.insert(arc.name.clone(), Arc::clone(&arc));
        self.bump_version();
        Ok(arc)
    }

    /// Replace a base table's metadata (e.g. after adding an index).
    pub fn update_table(&self, meta: TableMeta) -> Result<()> {
        let mut inner = self.inner.write();
        if !inner.tables.contains_key(&meta.name) {
            return Err(Error::NotFound(format!("table {}", meta.name)));
        }
        let arc = Arc::new(meta);
        inner.tables_by_id.insert(arc.id, arc.name.clone());
        inner.tables.insert(arc.name.clone(), arc);
        self.bump_version();
        Ok(())
    }

    /// Look up a table by name.
    pub fn table(&self, name: &str) -> Result<Arc<TableMeta>> {
        self.inner
            .read()
            .tables
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("table {name}")))
    }

    /// Look up a table by id.
    pub fn table_by_id(&self, id: TableId) -> Result<Arc<TableMeta>> {
        let inner = self.inner.read();
        let name = inner
            .tables_by_id
            .get(&id)
            .ok_or_else(|| Error::NotFound(format!("table {id}")))?;
        Ok(Arc::clone(&inner.tables[name]))
    }

    /// All table names, sorted.
    pub fn table_names(&self) -> Vec<String> {
        let mut names: Vec<String> = self.inner.read().tables.keys().cloned().collect();
        names.sort();
        names
    }

    /// Register a cached view (validates the definition).
    pub fn register_view(&self, view: CachedViewDef) -> Result<Arc<CachedViewDef>> {
        view.validate()?;
        let mut inner = self.inner.write();
        if inner.views.contains_key(&view.name) || inner.tables.contains_key(&view.name) {
            return Err(Error::AlreadyExists(format!("object {}", view.name)));
        }
        if !inner.regions.contains_key(&view.region) {
            return Err(Error::NotFound(format!("currency region {}", view.region)));
        }
        let arc = Arc::new(view);
        inner.views.insert(arc.name.clone(), Arc::clone(&arc));
        self.bump_version();
        Ok(arc)
    }

    /// Remove a cached view; returns its definition.
    pub fn drop_view(&self, name: &str) -> Result<Arc<CachedViewDef>> {
        let mut inner = self.inner.write();
        let view = inner
            .views
            .remove(&name.to_ascii_lowercase())
            .ok_or_else(|| Error::NotFound(format!("view {name}")))?;
        self.bump_version();
        Ok(view)
    }

    /// Look up a view by name.
    pub fn view(&self, name: &str) -> Result<Arc<CachedViewDef>> {
        self.inner
            .read()
            .views
            .get(&name.to_ascii_lowercase())
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("view {name}")))
    }

    /// All cached views over base table `table`, in registration order —
    /// the candidate set for view matching.
    pub fn views_over(&self, table: TableId) -> Vec<Arc<CachedViewDef>> {
        let inner = self.inner.read();
        let mut views: Vec<Arc<CachedViewDef>> = inner
            .views
            .values()
            .filter(|v| v.base_table == table)
            .cloned()
            .collect();
        views.sort_by_key(|v| v.id);
        views
    }

    /// All cached views, sorted by id.
    pub fn all_views(&self) -> Vec<Arc<CachedViewDef>> {
        let mut views: Vec<Arc<CachedViewDef>> =
            self.inner.read().views.values().cloned().collect();
        views.sort_by_key(|v| v.id);
        views
    }

    /// Register a currency region.
    pub fn register_region(&self, region: CurrencyRegion) -> Result<Arc<CurrencyRegion>> {
        let mut inner = self.inner.write();
        if inner.regions.contains_key(&region.id)
            || inner
                .regions_by_name
                .contains_key(&region.name.to_ascii_lowercase())
        {
            return Err(Error::AlreadyExists(format!("region {}", region.name)));
        }
        let arc = Arc::new(region);
        inner
            .regions_by_name
            .insert(arc.name.to_ascii_lowercase(), arc.id);
        inner.regions.insert(arc.id, Arc::clone(&arc));
        self.bump_version();
        Ok(arc)
    }

    /// Look up a region by id.
    pub fn region(&self, id: RegionId) -> Result<Arc<CurrencyRegion>> {
        self.inner
            .read()
            .regions
            .get(&id)
            .cloned()
            .ok_or_else(|| Error::NotFound(format!("region {id}")))
    }

    /// Look up a region by name.
    pub fn region_by_name(&self, name: &str) -> Result<Arc<CurrencyRegion>> {
        let inner = self.inner.read();
        let id = inner
            .regions_by_name
            .get(&name.to_ascii_lowercase())
            .ok_or_else(|| Error::NotFound(format!("region {name}")))?;
        Ok(Arc::clone(&inner.regions[id]))
    }

    /// All regions, sorted by id.
    pub fn regions(&self) -> Vec<Arc<CurrencyRegion>> {
        let mut rs: Vec<Arc<CurrencyRegion>> =
            self.inner.read().regions.values().cloned().collect();
        rs.sort_by_key(|r| r.id);
        rs
    }

    /// Install statistics for a table or view (the shadow database carries
    /// back-end stats — paper Sec. 3 point 1).
    pub fn set_stats(&self, object: &str, stats: TableStats) {
        let mut inner = self.inner.write();
        inner
            .stats
            .insert(object.to_ascii_lowercase(), Arc::new(stats));
        self.bump_version();
    }

    /// Statistics for a table or view; empty stats if never installed.
    pub fn stats(&self, object: &str) -> Arc<TableStats> {
        self.inner
            .read()
            .stats
            .get(&object.to_ascii_lowercase())
            .cloned()
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::{Column, DataType, Duration, Schema};

    fn table(cat: &Catalog, name: &str) -> Arc<TableMeta> {
        let schema = Schema::new(vec![Column::new("id", DataType::Int)]);
        let meta = TableMeta::new(cat.next_table_id(), name, schema, vec!["id".into()]).unwrap();
        cat.register_table(meta).unwrap()
    }

    fn region(cat: &Catalog, id: u32, name: &str) -> Arc<CurrencyRegion> {
        cat.register_region(CurrencyRegion::new(
            RegionId(id),
            name,
            Duration::from_secs(10),
            Duration::from_secs(5),
        ))
        .unwrap()
    }

    fn view_over(cat: &Catalog, name: &str, t: &TableMeta, r: RegionId) -> CachedViewDef {
        CachedViewDef {
            id: cat.next_view_id(),
            name: name.into(),
            region: r,
            base_table: t.id,
            base_table_name: t.name.clone(),
            columns: vec!["id".into()],
            predicate: None,
            schema: t.schema.clone().with_qualifier(name),
            key_ordinals: vec![0],
            local_indexes: vec![],
        }
    }

    #[test]
    fn table_registry() {
        let cat = Catalog::new();
        let t = table(&cat, "Customer");
        assert_eq!(cat.table("CUSTOMER").unwrap().id, t.id);
        assert_eq!(cat.table_by_id(t.id).unwrap().name, "customer");
        assert!(cat.table("nope").is_err());
        assert!(cat
            .register_table(
                TableMeta::new(TableId(99), "customer", t.schema.clone(), vec!["id".into()])
                    .unwrap()
            )
            .is_err());
    }

    #[test]
    fn view_requires_region_and_unique_name() {
        let cat = Catalog::new();
        let t = table(&cat, "customer");
        let v = view_over(&cat, "cust_prj", &t, RegionId(1));
        assert!(cat.register_view(v.clone()).is_err(), "region missing");
        region(&cat, 1, "CR1");
        cat.register_view(v.clone()).unwrap();
        assert!(cat.register_view(v).is_err(), "duplicate");
        // view name colliding with a table name is rejected too
        let mut v2 = view_over(&cat, "customer", &t, RegionId(1));
        v2.id = cat.next_view_id();
        assert!(cat.register_view(v2).is_err());
    }

    #[test]
    fn views_over_filters_by_base_table() {
        let cat = Catalog::new();
        let t1 = table(&cat, "customer");
        let t2 = table(&cat, "orders");
        region(&cat, 1, "CR1");
        cat.register_view(view_over(&cat, "v1", &t1, RegionId(1)))
            .unwrap();
        cat.register_view(view_over(&cat, "v2", &t2, RegionId(1)))
            .unwrap();
        cat.register_view(view_over(&cat, "v3", &t1, RegionId(1)))
            .unwrap();
        let vs = cat.views_over(t1.id);
        assert_eq!(vs.len(), 2);
        assert_eq!(vs[0].name, "v1");
        assert_eq!(vs[1].name, "v3");
        assert_eq!(cat.all_views().len(), 3);
    }

    #[test]
    fn region_lookup_by_name_case_insensitive() {
        let cat = Catalog::new();
        region(&cat, 1, "CR1");
        assert_eq!(cat.region_by_name("cr1").unwrap().id, RegionId(1));
        assert_eq!(cat.region(RegionId(1)).unwrap().name, "CR1");
        assert!(cat.region(RegionId(9)).is_err());
        assert_eq!(cat.regions().len(), 1);
    }

    #[test]
    fn stats_roundtrip_with_default() {
        let cat = Catalog::new();
        assert_eq!(cat.stats("t").row_count, 0);
        let stats = TableStats {
            row_count: 42,
            avg_row_bytes: 10.0,
            columns: Default::default(),
        };
        cat.set_stats("T", stats);
        assert_eq!(cat.stats("t").row_count, 42);
    }

    #[test]
    fn every_mutator_moves_the_version_and_nothing_else_does() {
        let cat = Catalog::new();
        let mut seen = cat.version();
        let mut moved = |what: &str| {
            let now = cat.version();
            assert!(now > seen, "{what} must bump the version");
            seen = now;
        };
        let t = table(&cat, "customer");
        moved("register_table");
        cat.update_table((*t).clone()).unwrap();
        moved("update_table");
        region(&cat, 1, "CR1");
        moved("register_region");
        cat.register_view(view_over(&cat, "v", &t, RegionId(1)))
            .unwrap();
        moved("register_view");
        cat.set_stats("customer", TableStats::default());
        moved("set_stats");
        cat.drop_view("v").unwrap();
        moved("drop_view");

        // reads, id allocation and refused mutations leave it alone
        cat.next_table_id();
        cat.next_view_id();
        cat.table("customer").unwrap();
        cat.stats("customer");
        assert!(cat.drop_view("v").is_err());
        assert!(cat.register_table((*t).clone()).is_err());
        assert!(cat
            .register_view(view_over(&cat, "w", &t, RegionId(9)))
            .is_err());
        assert_eq!(cat.version(), seen);
    }

    #[test]
    fn id_allocation_monotonic() {
        let cat = Catalog::new();
        assert!(cat.next_table_id() < cat.next_table_id());
        assert!(cat.next_view_id() < cat.next_view_id());
    }
}
