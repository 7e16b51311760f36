//! Distribution agents.

use rcc_backend::heartbeat::heartbeat_schema;
use rcc_backend::{CommittedTxn, MasterDb, HEARTBEAT_TABLE};
use rcc_catalog::{CachedViewDef, CurrencyRegion, TableMeta};
use rcc_common::{AgentId, Error, Result, Row, Timestamp, Value};
use rcc_storage::{RowChange, StorageEngine, Table};
use std::sync::Arc;

/// One replication subscription: a cached view fed from a master table.
#[derive(Debug, Clone)]
struct Subscription {
    view: Arc<CachedViewDef>,
    /// Ordinals of the view's columns within the *base table* schema.
    base_ordinals: Vec<usize>,
    /// Ordinal of the predicate column within the base table schema.
    predicate_base_ordinal: Option<usize>,
    /// Ordinals of the base table's clustered key within the base schema —
    /// used to map a base-table delete key onto the view's key.
    base_key_ordinals: Vec<usize>,
}

/// A distribution agent: "a process that wakes up regularly and checks for
/// work to do. ... The agent applies updates to its target views one
/// transaction at a time, in commit order" (Sec. 3.1).
///
/// One agent serves exactly one currency region; every view it maintains is
/// therefore mutually consistent with the others at all times. The agent
/// also replicates the region's heartbeat row into the cache's local
/// heartbeat table.
#[derive(Debug)]
pub struct DistributionAgent {
    id: AgentId,
    region: Arc<CurrencyRegion>,
    master: Arc<MasterDb>,
    cache_storage: Arc<StorageEngine>,
    subscriptions: Vec<Subscription>,
    /// Position in the master's replication log up to which this agent has
    /// applied transactions.
    cursor: usize,
    /// When the agent last ran a propagation cycle.
    last_propagation: Option<Timestamp>,
    /// When true, the agent ignores propagation events — the failure
    /// injection hook for "stalled agent" experiments.
    stalled: bool,
}

impl DistributionAgent {
    /// Create an agent for `region`, targeting `cache_storage`. Creates the
    /// region's local heartbeat table (empty until the first propagation —
    /// an empty heartbeat table means the currency guard fails and traffic
    /// goes remote, which is the conservative direction).
    pub fn new(
        id: AgentId,
        region: Arc<CurrencyRegion>,
        master: Arc<MasterDb>,
        cache_storage: Arc<StorageEngine>,
    ) -> Result<DistributionAgent> {
        let hb_name = region.heartbeat_table_name();
        if !cache_storage.contains(&hb_name) {
            cache_storage.create_table(Table::new(hb_name, heartbeat_schema(), vec![0]))?;
        }
        Ok(DistributionAgent {
            id,
            region,
            master,
            cache_storage,
            subscriptions: Vec::new(),
            cursor: 0,
            last_propagation: None,
            stalled: false,
        })
    }

    /// Agent id.
    pub fn id(&self) -> AgentId {
        self.id
    }

    /// The currency region this agent maintains.
    pub fn region(&self) -> &Arc<CurrencyRegion> {
        &self.region
    }

    /// Replication-log position.
    pub fn cursor(&self) -> usize {
        self.cursor
    }

    /// Stall or un-stall the agent (failure injection).
    pub fn set_stalled(&mut self, stalled: bool) {
        self.stalled = stalled;
    }

    /// Is the agent stalled?
    pub fn is_stalled(&self) -> bool {
        self.stalled
    }

    /// Subscribe a cached view: creates the view's table at the cache,
    /// populates it from a consistent master snapshot ("when a view is
    /// created, a matching replication subscription is automatically
    /// created and the view is populated" — Sec. 3), and registers the
    /// subscription for future propagation.
    pub fn subscribe(&mut self, view: Arc<CachedViewDef>, base: &TableMeta) -> Result<()> {
        if view.region != self.region.id {
            return Err(Error::Config(format!(
                "view {} belongs to region {}, agent serves {}",
                view.name, view.region, self.region.id
            )));
        }
        let base_ordinals: Vec<usize> = view
            .columns
            .iter()
            .map(|c| base.schema.resolve(None, c))
            .collect::<Result<_>>()?;
        let predicate_base_ordinal = match &view.predicate {
            Some(p) => Some(base.schema.resolve(None, &p.column)?),
            None => None,
        };
        let base_key_ordinals = base.key_ordinals();
        // The view must retain the base key so deletes can be applied.
        for key_col in &base.key {
            if !view.covers_column(key_col) {
                return Err(Error::Config(format!(
                    "view {} must retain base key column {key_col}",
                    view.name
                )));
            }
        }

        // Materialize the view's table at the cache.
        let mut table = Table::new(
            view.name.clone(),
            view.schema.clone(),
            view.key_ordinals.clone(),
        );
        for (ix_name, lead_col) in &view.local_indexes {
            let ord = view
                .ordinal_of(lead_col)
                .ok_or_else(|| Error::Config(format!("index column {lead_col} not in view")))?;
            table.create_index(ix_name.clone(), vec![ord])?;
        }

        let sub = Subscription {
            view,
            base_ordinals,
            predicate_base_ordinal,
            base_key_ordinals,
        };

        // Populate from the master's pinned snapshot, projected straight
        // into the view's rows.
        let (snapshot, snapshot_cursor) = self.master.snapshot_table(&base.name)?;
        let rows = snapshot
            .iter()
            .filter_map(|row| project_row(&sub, row))
            .collect();
        table.load(rows)?;

        // Every view of a region stands at one point of the log. Views
        // already subscribed catch up to the snapshot's cursor before the
        // new one appears — stalled or not, since the snapshot read the
        // master — so no view of the region is older than another, and a
        // later cycle never replays into the new view a change its
        // snapshot already holds newer.
        if !self.subscriptions.is_empty() && self.cursor < snapshot_cursor {
            let txns = self.master.log_between(self.cursor, snapshot_cursor);
            self.publish(&txns)?;
        }
        self.cursor = snapshot_cursor;
        self.cache_storage.create_table(table)?;
        self.subscriptions.push(sub);
        Ok(())
    }

    /// Cancel the subscription for `view_name` (the view's table at the
    /// cache is dropped by the caller). Returns true if a subscription was
    /// removed.
    pub fn unsubscribe(&mut self, view_name: &str) -> bool {
        let before = self.subscriptions.len();
        self.subscriptions
            .retain(|s| !s.view.name.eq_ignore_ascii_case(view_name));
        self.subscriptions.len() != before
    }

    /// Run one propagation cycle at time `now`: apply, in commit order,
    /// every logged transaction that had reached the distributor by
    /// `now − update_delay`, including heartbeat updates for this region.
    ///
    /// The whole cycle is staged first (pure computation, no locks), then
    /// published as **one copy-on-write snapshot per view**, with the
    /// region's heartbeat published *last* — so a concurrent scan either
    /// sees a view before this cycle or after it (never mid-batch), and the
    /// advertised heartbeat never claims more freshness than the data
    /// actually published (no torn heartbeat).
    ///
    /// Returns the number of transactions applied.
    pub fn propagate(&mut self, now: Timestamp) -> Result<usize> {
        if self.stalled {
            return Ok(0);
        }
        let as_of = now.minus(self.region.update_delay);
        let txns = self.master.log_since_until(self.cursor, as_of);
        self.publish(&txns)?;
        self.cursor += txns.len();
        self.last_propagation = Some(now);
        Ok(txns.len())
    }

    /// Apply `txns` — the log from the agent's cursor on, in commit order —
    /// to every subscribed view and the region's heartbeat: staged first
    /// (pure computation, no locks), then published one copy-on-write
    /// snapshot per view, the heartbeat last. Leaves the cursor alone.
    fn publish(&self, txns: &[Arc<CommittedTxn>]) -> Result<()> {
        if txns.is_empty() {
            return Ok(());
        }
        // Stage: fold every change into per-view op lists, in commit order.
        let mut staged: Vec<Vec<ViewOp>> = vec![Vec::new(); self.subscriptions.len()];
        let mut heartbeat: Option<Row> = None;
        for txn in txns {
            for change in &txn.changes {
                if change.table == HEARTBEAT_TABLE {
                    self.stage_heartbeat(&change.change, &mut heartbeat)?;
                    continue;
                }
                for (sub, ops) in self.subscriptions.iter().zip(staged.iter_mut()) {
                    if sub.view.base_table_name.eq_ignore_ascii_case(&change.table) {
                        ops.push(stage_view_op(sub, &change.change));
                    }
                }
            }
        }

        // Publish: each data view gets the cycle's whole batch in one
        // atomic snapshot swap.
        for (sub, ops) in self.subscriptions.iter().zip(staged.iter()) {
            if ops.is_empty() {
                continue;
            }
            let handle = self.cache_storage.table(&sub.view.name)?;
            handle.update(|t| {
                for op in ops {
                    match op {
                        ViewOp::Upsert(row) => t.upsert(row.clone())?,
                        ViewOp::Delete(key) => {
                            t.delete(key);
                        }
                    }
                }
                Ok(())
            })?;
        }
        // Heartbeat last: once a scan observes the new heartbeat, every
        // data publish it vouches for has already happened.
        if let Some(row) = heartbeat {
            let handle = self
                .cache_storage
                .table(&self.region.heartbeat_table_name())?;
            handle.update(|t| t.upsert(row))?;
        }
        Ok(())
    }

    /// Fold a heartbeat-table change into the staged heartbeat row for this
    /// region (commit order ⇒ the last one wins).
    fn stage_heartbeat(&self, change: &RowChange, staged: &mut Option<Row>) -> Result<()> {
        let row = match change {
            RowChange::Insert(row) | RowChange::Update { row, .. } => row,
            RowChange::Delete { .. } => return Ok(()),
        };
        if row.get(0).as_int()? == self.region.id.raw() as i64 {
            *staged = Some(row.clone());
        }
        Ok(())
    }

    /// Restore a persisted propagation position after a back-end restart:
    /// reset the log cursor and, when known, re-seed the local heartbeat
    /// row so currency accounting resumes from the pre-crash watermark
    /// instead of silently re-reporting staleness from zero.
    ///
    /// The caller is expected to clamp `cursor` to the recovered master's
    /// `log_len()`; setting it low is always safe because propagation
    /// applies are idempotent.
    pub fn restore_watermark(&mut self, cursor: usize, heartbeat: Option<Timestamp>) -> Result<()> {
        self.cursor = cursor;
        if let Some(at) = heartbeat {
            let row = Row::new(vec![
                Value::Int(self.region.id.raw() as i64),
                Value::Timestamp(at.millis()),
            ]);
            let handle = self
                .cache_storage
                .table(&self.region.heartbeat_table_name())?;
            handle.update(|t| t.upsert(row))?;
        }
        Ok(())
    }

    /// The timestamp currently stored in this region's local heartbeat
    /// table (None before the first heartbeat arrives).
    pub fn local_heartbeat(&self) -> Option<Timestamp> {
        let t = self
            .cache_storage
            .table(&self.region.heartbeat_table_name())
            .ok()?
            .snapshot();
        let row = t.get(&[Value::Int(self.region.id.raw() as i64)])?;
        row.get(1).as_int().ok().map(Timestamp)
    }
}

/// A staged view mutation, computed during the staging pass and applied
/// inside the view's single copy-on-write publish.
#[derive(Debug, Clone)]
enum ViewOp {
    Upsert(Row),
    Delete(Vec<Value>),
}

/// Translate one base-table change into the view op it implies.
fn stage_view_op(sub: &Subscription, change: &RowChange) -> ViewOp {
    match change {
        RowChange::Insert(row) | RowChange::Update { row, .. } => match project_row(sub, row) {
            Some(projected) => ViewOp::Upsert(projected),
            None => {
                // Row fell out of the view's selection range (or was never
                // in it): ensure it is absent.
                let key: Vec<Value> = sub
                    .base_key_ordinals
                    .iter()
                    .map(|&i| row.get(i).clone())
                    .collect();
                ViewOp::Delete(base_key_to_view_key(sub, &key))
            }
        },
        RowChange::Delete { key } => ViewOp::Delete(base_key_to_view_key(sub, key)),
    }
}

/// Map a base-table clustered key onto the corresponding view clustered
/// key. Views retain the full base key (enforced at subscribe), and the
/// view's clustered key is exactly those columns, so this is a reorder.
fn base_key_to_view_key(sub: &Subscription, base_key: &[Value]) -> Vec<Value> {
    sub.view
        .key_ordinals
        .iter()
        .map(|&view_ord| {
            // view column `view_ord` corresponds to base ordinal
            // sub.base_ordinals[view_ord]; find its position in the base key
            let base_ord = sub.base_ordinals[view_ord];
            let pos = sub
                .base_key_ordinals
                .iter()
                .position(|&k| k == base_ord)
                .expect("view key column is part of the base key");
            base_key[pos].clone()
        })
        .collect()
}

/// Project a base-table row through the view definition; `None` when the
/// row does not satisfy the view's selection predicate.
fn project_row(sub: &Subscription, row: &Row) -> Option<Row> {
    if let (Some(ord), Some(pred)) = (sub.predicate_base_ordinal, &sub.view.predicate) {
        if !pred.range.contains(row.get(ord)) {
            return None;
        }
    }
    Some(Row::new(
        sub.base_ordinals
            .iter()
            .map(|&i| row.get(i).clone())
            .collect(),
    ))
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_backend::TableChange;
    use rcc_catalog::{Catalog, ViewPredicate};
    use rcc_common::{
        Clock, Column, DataType, Duration, RegionId, Schema, SimClock, TableId, ViewId,
    };
    use rcc_storage::KeyRange;

    struct Fixture {
        clock: SimClock,
        master: Arc<MasterDb>,
        cache: Arc<StorageEngine>,
        agent: DistributionAgent,
        meta: TableMeta,
    }

    fn fixture(predicate: Option<ViewPredicate>) -> Fixture {
        let clock = SimClock::new();
        let catalog = Arc::new(Catalog::new());
        let master = Arc::new(MasterDb::new(catalog.clone(), Arc::new(clock.clone())));
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("grp", DataType::Int),
            Column::new("name", DataType::Str),
        ]);
        let meta = TableMeta::new(TableId(1), "items", schema.clone(), vec!["id".into()]).unwrap();
        master.create_table(&meta).unwrap();
        for i in 0..10 {
            master
                .bulk_load(
                    "items",
                    vec![Row::new(vec![
                        Value::Int(i),
                        Value::Int(i % 3),
                        Value::Str(format!("n{i}")),
                    ])],
                )
                .unwrap();
        }
        let region = Arc::new(CurrencyRegion::new(
            RegionId(1),
            "CR1",
            Duration::from_secs(10),
            Duration::from_secs(2),
        ));
        let cache = Arc::new(StorageEngine::new());
        let mut agent =
            DistributionAgent::new(AgentId(1), region, master.clone(), cache.clone()).unwrap();
        agent
            .subscribe(items_view(1, "items_v", predicate), &meta)
            .unwrap();
        Fixture {
            clock,
            master,
            cache,
            agent,
            meta,
        }
    }

    /// A view of region 1 over `items (id, grp)`, with its own index.
    fn items_view(id: u32, name: &str, predicate: Option<ViewPredicate>) -> Arc<CachedViewDef> {
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int).with_source(TableId(1)),
            Column::new("grp", DataType::Int).with_source(TableId(1)),
        ])
        .with_qualifier(name);
        Arc::new(CachedViewDef {
            id: ViewId(id),
            name: name.into(),
            region: RegionId(1),
            base_table: TableId(1),
            base_table_name: "items".into(),
            columns: vec!["id".into(), "grp".into()],
            predicate,
            schema,
            key_ordinals: vec![0],
            local_indexes: vec![(format!("ix_{name}_grp"), "grp".into())],
        })
    }

    fn upd(id: i64, grp: i64) -> TableChange {
        TableChange::new(
            "items",
            RowChange::Update {
                key: vec![Value::Int(id)],
                row: Row::new(vec![
                    Value::Int(id),
                    Value::Int(grp),
                    Value::Str(format!("u{id}")),
                ]),
            },
        )
    }

    #[test]
    fn subscribe_populates_snapshot() {
        let f = fixture(None);
        let v = f.cache.table("items_v").unwrap();
        assert_eq!(v.snapshot().row_count(), 10);
        assert_eq!(v.snapshot().schema().len(), 2, "projection applied");
    }

    #[test]
    fn propagation_applies_in_commit_order_after_delay() {
        let mut f = fixture(None);
        f.master.execute_txn(vec![upd(3, 99)]).unwrap(); // commit at t=0
                                                         // At t=1s, delay=2s: txn not yet deliverable.
        f.clock.advance(Duration::from_secs(1));
        assert_eq!(f.agent.propagate(f.clock.now()).unwrap(), 0);
        // At t=3s: deliverable.
        f.clock.advance(Duration::from_secs(2));
        assert_eq!(f.agent.propagate(f.clock.now()).unwrap(), 1);
        let v = f.cache.table("items_v").unwrap();
        assert_eq!(
            v.snapshot().get(&[Value::Int(3)]).unwrap().get(1),
            &Value::Int(99)
        );
    }

    #[test]
    fn deletes_and_inserts_flow() {
        let mut f = fixture(None);
        f.master
            .execute_txn(vec![TableChange::new(
                "items",
                RowChange::Delete {
                    key: vec![Value::Int(0)],
                },
            )])
            .unwrap();
        f.master
            .execute_txn(vec![TableChange::new(
                "items",
                RowChange::Insert(Row::new(vec![
                    Value::Int(100),
                    Value::Int(1),
                    Value::Str("new".into()),
                ])),
            )])
            .unwrap();
        f.clock.advance(Duration::from_secs(5));
        f.agent.propagate(f.clock.now()).unwrap();
        let v = f.cache.table("items_v").unwrap();
        assert!(v.snapshot().get(&[Value::Int(0)]).is_none());
        assert!(v.snapshot().get(&[Value::Int(100)]).is_some());
        assert_eq!(v.snapshot().row_count(), 10);
    }

    #[test]
    fn selection_view_filters_and_evicts() {
        // keep only grp = 0 rows (ids 0,3,6,9)
        let f0 = fixture(Some(ViewPredicate {
            column: "grp".into(),
            range: KeyRange::eq(Value::Int(0)),
        }));
        let mut f = f0;
        let v = f.cache.table("items_v").unwrap();
        assert_eq!(v.snapshot().row_count(), 4);
        // move id=3 out of the selection range; insert id=200 inside it
        f.master.execute_txn(vec![upd(3, 2)]).unwrap();
        f.master
            .execute_txn(vec![TableChange::new(
                "items",
                RowChange::Insert(Row::new(vec![
                    Value::Int(200),
                    Value::Int(0),
                    Value::Str("in".into()),
                ])),
            )])
            .unwrap();
        f.clock.advance(Duration::from_secs(5));
        f.agent.propagate(f.clock.now()).unwrap();
        assert!(v.snapshot().get(&[Value::Int(3)]).is_none(), "evicted");
        assert!(v.snapshot().get(&[Value::Int(200)]).is_some(), "admitted");
    }

    #[test]
    fn heartbeat_replicates_only_own_region() {
        let mut f = fixture(None);
        f.clock.advance(Duration::from_secs(4));
        f.master.beat(RegionId(1)).unwrap();
        f.master.beat(RegionId(2)).unwrap();
        f.clock.advance(Duration::from_secs(3));
        f.agent.propagate(f.clock.now()).unwrap();
        assert_eq!(f.agent.local_heartbeat(), Some(Timestamp(4_000)));
        let hb = f.cache.table("heartbeat_cr1").unwrap();
        assert_eq!(hb.snapshot().row_count(), 1, "only own region's row");
    }

    #[test]
    fn stalled_agent_applies_nothing() {
        let mut f = fixture(None);
        f.master.execute_txn(vec![upd(1, 42)]).unwrap();
        f.clock.advance(Duration::from_secs(10));
        f.agent.set_stalled(true);
        assert_eq!(f.agent.propagate(f.clock.now()).unwrap(), 0);
        assert_eq!(f.agent.cursor(), 0);
        f.agent.set_stalled(false);
        assert_eq!(f.agent.propagate(f.clock.now()).unwrap(), 1);
    }

    #[test]
    fn wrong_region_subscription_rejected() {
        let f = fixture(None);
        let mut agent = f.agent;
        let bad_view = Arc::new(CachedViewDef {
            id: ViewId(9),
            name: "bad".into(),
            region: RegionId(9),
            base_table: TableId(1),
            base_table_name: "items".into(),
            columns: vec!["id".into()],
            predicate: None,
            schema: Schema::new(vec![Column::new("id", DataType::Int)]),
            key_ordinals: vec![0],
            local_indexes: vec![],
        });
        assert!(agent.subscribe(bad_view, &f.meta).is_err());
    }

    #[test]
    fn view_missing_base_key_rejected() {
        let f = fixture(None);
        let mut agent = f.agent;
        let bad_view = Arc::new(CachedViewDef {
            id: ViewId(9),
            name: "nokey".into(),
            region: RegionId(1),
            base_table: TableId(1),
            base_table_name: "items".into(),
            columns: vec!["grp".into()],
            predicate: None,
            schema: Schema::new(vec![Column::new("grp", DataType::Int)]),
            key_ordinals: vec![0],
            local_indexes: vec![],
        });
        assert!(agent.subscribe(bad_view, &f.meta).is_err());
    }

    /// A view subscribed to a region whose agent lags the log: the
    /// region's views agree on every key at once, and no later cycle takes
    /// the new view back to a value its snapshot had already moved past.
    #[test]
    fn a_second_view_catches_its_region_up_and_never_goes_back() {
        let mut f = fixture(None);
        f.master.execute_txn(vec![upd(3, 50)]).unwrap(); // T1 at t = 0
        f.clock.advance(Duration::from_secs(5));
        f.master.beat(RegionId(1)).unwrap();
        f.master.execute_txn(vec![upd(3, 60)]).unwrap(); // T2 at t = 5
        f.agent
            .subscribe(items_view(2, "items_w", None), &f.meta)
            .unwrap();
        let grp = |view: &str| {
            let t = f.cache.table(view).unwrap().snapshot();
            t.get(&[Value::Int(3)]).unwrap().get(1).clone()
        };
        let rows = |view: &str| f.cache.table(view).unwrap().snapshot().collect_all();
        assert_eq!(grp("items_w"), Value::Int(60));
        assert_eq!(rows("items_v"), rows("items_w"), "one snapshot point");
        let by_grp = |view: &str| {
            let t = f.cache.table(view).unwrap().snapshot();
            t.index_scan(&format!("ix_{view}_grp"), &KeyRange::eq(Value::Int(60)))
                .unwrap()
        };
        assert_eq!(by_grp("items_v"), by_grp("items_w"));
        assert_eq!(f.agent.cursor(), f.master.log_len());
        // the catch-up carried the region's heartbeat with it
        assert_eq!(f.agent.local_heartbeat(), Some(Timestamp(5_000)));
        // t = 6: with a 2 s delay only T1 would be due — it is applied
        // already, and replays nothing
        for secs in [1, 5] {
            f.clock.advance(Duration::from_secs(secs));
            assert_eq!(f.agent.propagate(f.clock.now()).unwrap(), 0);
            assert_eq!(grp("items_w"), Value::Int(60));
            assert_eq!(grp("items_v"), Value::Int(60));
        }
    }

    /// A stalled agent's views still catch up to a new view's snapshot.
    #[test]
    fn a_stalled_agent_catches_up_at_subscribe() {
        let mut f = fixture(None);
        f.agent.set_stalled(true);
        f.master.execute_txn(vec![upd(4, 70)]).unwrap();
        f.agent
            .subscribe(items_view(2, "items_w", None), &f.meta)
            .unwrap();
        let v = f.cache.table("items_v").unwrap().snapshot();
        assert_eq!(v.get(&[Value::Int(4)]).unwrap().get(1), &Value::Int(70));
    }

    #[test]
    fn local_heartbeat_none_before_first_beat() {
        let f = fixture(None);
        assert_eq!(f.agent.local_heartbeat(), None);
    }
}
