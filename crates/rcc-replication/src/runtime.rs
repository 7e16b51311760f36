//! Discrete-event replication runtime.

use crate::agent::DistributionAgent;
use parking_lot::Mutex;
use rcc_backend::MasterDb;
use rcc_common::{Clock, Duration, Result, SimClock, Timestamp};
use rcc_obs::MetricsRegistry;
use std::sync::Arc;

/// Scheduled state for one agent/region pair.
#[derive(Debug)]
struct RegionSchedule {
    agent: DistributionAgent,
    next_beat: Timestamp,
    next_propagation: Timestamp,
}

/// Drives heartbeats and agent propagation cycles in timestamp order on a
/// shared [`SimClock`].
///
/// The paper's analysis (Sec. 3.2.4) assumes "updates are propagated
/// periodically, the propagation interval is a multiple of the heartbeat
/// interval, their timing is aligned" — this runtime realizes exactly that
/// alignment: region events start at phase 0 and recur at their fixed
/// intervals; `advance_to` fires everything due, in time order, before
/// moving the clock.
#[derive(Debug)]
pub struct ReplicationRuntime {
    clock: SimClock,
    master: Arc<MasterDb>,
    regions: Mutex<Vec<RegionSchedule>>,
    metrics: Mutex<Option<Arc<MetricsRegistry>>>,
}

impl ReplicationRuntime {
    /// Create a runtime over `master` using `clock`.
    pub fn new(clock: SimClock, master: Arc<MasterDb>) -> ReplicationRuntime {
        ReplicationRuntime {
            clock,
            master,
            regions: Mutex::new(Vec::new()),
            metrics: Mutex::new(None),
        }
    }

    /// Report into `registry`: a per-region replication-lag gauge
    /// (`rcc_replication_lag_seconds{region=...}`, updated after every
    /// `advance_to`) and a per-region applied-transaction counter
    /// (`rcc_replication_txns_applied_total{region=...}`).
    pub fn set_metrics(&self, registry: Arc<MetricsRegistry>) {
        registry.describe(
            "rcc_replication_lag_seconds",
            "Staleness of a region's local heartbeat: now minus the last delivered beat.",
        );
        registry.describe(
            "rcc_replication_txns_applied_total",
            "Master log transactions a region's distribution agent has applied at the cache.",
        );
        *self.metrics.lock() = Some(registry);
        self.publish_lag();
    }

    /// Refresh every region's lag gauge (no-op without a registry).
    fn publish_lag(&self) {
        let metrics = self.metrics.lock();
        let Some(registry) = metrics.as_ref() else {
            return;
        };
        let now = self.clock.now();
        for r in self.regions.lock().iter() {
            let name = r.agent.region().name.clone();
            if let Some(hb) = r.agent.local_heartbeat() {
                registry
                    .gauge("rcc_replication_lag_seconds", &[("region", &name)])
                    .set(now.since(hb).as_secs_f64());
            }
        }
    }

    /// The shared simulated clock.
    pub fn clock(&self) -> &SimClock {
        &self.clock
    }

    /// Register an agent; its heartbeat and propagation cycles start at the
    /// current simulated time (an immediate beat + propagation fire first,
    /// establishing a fresh baseline).
    pub fn add_agent(&self, agent: DistributionAgent) {
        let now = self.clock.now();
        self.regions.lock().push(RegionSchedule {
            agent,
            next_beat: now,
            next_propagation: now,
        });
    }

    /// Run a closure with mutable access to the agent for `region_name`
    /// (for failure injection). Returns false if no such region.
    pub fn with_agent<F: FnOnce(&mut DistributionAgent)>(&self, region_name: &str, f: F) -> bool {
        let mut regions = self.regions.lock();
        for r in regions.iter_mut() {
            if r.agent.region().name.eq_ignore_ascii_case(region_name) {
                f(&mut r.agent);
                return true;
            }
        }
        false
    }

    /// Advance simulated time to `target`, firing every due heartbeat and
    /// propagation event in timestamp order along the way. Heartbeats fire
    /// before propagation at the same instant, matching the paper's
    /// "aligned timing" assumption (the beat is committed at the master
    /// first, then — after the delivery delay — reaches the cache).
    pub fn advance_to(&self, target: Timestamp) -> Result<()> {
        assert!(target >= self.clock.now(), "cannot advance into the past");
        {
            let mut regions = self.regions.lock();
            self.advance_regions(&mut regions, target)?;
        }
        self.clock.set(target);
        self.publish_lag();
        Ok(())
    }

    fn advance_regions(&self, regions: &mut [RegionSchedule], target: Timestamp) -> Result<()> {
        loop {
            // Earliest pending event at or before `target`.
            let mut next: Option<(Timestamp, usize, bool)> = None; // (time, idx, is_beat)
            for (i, r) in regions.iter().enumerate() {
                for (t, is_beat) in [(r.next_beat, true), (r.next_propagation, false)] {
                    if t <= target {
                        let better = match next {
                            None => true,
                            // beats win ties so a same-instant propagation
                            // sees the freshest committed heartbeat
                            Some((bt, _, b_is_beat)) => {
                                t < bt || (t == bt && is_beat && !b_is_beat)
                            }
                        };
                        if better {
                            next = Some((t, i, is_beat));
                        }
                    }
                }
            }
            let Some((t, idx, is_beat)) = next else { break };
            self.clock.set(t);
            let r = &mut regions[idx];
            if is_beat {
                self.master.beat(r.agent.region().id)?;
                r.next_beat = t.plus(r.agent.region().heartbeat_interval);
            } else {
                let applied = r.agent.propagate(t)?;
                r.next_propagation = t.plus(r.agent.region().update_interval);
                if applied > 0 {
                    if let Some(registry) = self.metrics.lock().as_ref() {
                        registry
                            .counter(
                                "rcc_replication_txns_applied_total",
                                &[("region", &r.agent.region().name)],
                            )
                            .add(applied as u64);
                    }
                    // Persist the agent's new position so a restarted
                    // back-end restores per-region currency accounting
                    // (no-op when the master runs in-memory).
                    self.master.persist_watermark(
                        &r.agent.region().name,
                        r.agent.cursor() as u64,
                        r.agent.local_heartbeat().map_or(-1, |t| t.millis()),
                    )?;
                }
            }
        }
        Ok(())
    }

    /// Advance by a duration.
    pub fn advance_by(&self, d: Duration) -> Result<()> {
        self.advance_to(self.clock.now().plus(d))
    }

    /// Current local heartbeat timestamp for a region (None before the
    /// first one lands).
    pub fn local_heartbeat(&self, region_name: &str) -> Option<Timestamp> {
        let regions = self.regions.lock();
        regions
            .iter()
            .find(|r| r.agent.region().name.eq_ignore_ascii_case(region_name))
            .and_then(|r| r.agent.local_heartbeat())
    }

    /// Every agent's `(region, cursor, local heartbeat)` — the watermarks a
    /// checkpoint persists so a restart can resume currency accounting.
    pub fn watermarks(&self) -> Vec<(String, usize, Option<Timestamp>)> {
        let regions = self.regions.lock();
        regions
            .iter()
            .map(|r| {
                (
                    r.agent.region().name.clone(),
                    r.agent.cursor(),
                    r.agent.local_heartbeat(),
                )
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_backend::TableChange;
    use rcc_catalog::{CachedViewDef, Catalog, CurrencyRegion, TableMeta};
    use rcc_common::{AgentId, Column, DataType, RegionId, Row, Schema, TableId, Value, ViewId};
    use rcc_storage::{RowChange, StorageEngine};

    struct Fixture {
        rt: ReplicationRuntime,
        master: Arc<MasterDb>,
        cache: Arc<StorageEngine>,
    }

    /// Region: interval 10s, delay 2s, heartbeat 2s (aligned).
    fn fixture() -> Fixture {
        let clock = SimClock::new();
        let catalog = Arc::new(Catalog::new());
        let master = Arc::new(MasterDb::new(catalog, Arc::new(clock.clone())));
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("v", DataType::Int),
        ]);
        let meta = TableMeta::new(TableId(1), "t", schema.clone(), vec!["id".into()]).unwrap();
        master.create_table(&meta).unwrap();
        master
            .bulk_load("t", vec![Row::new(vec![Value::Int(1), Value::Int(0)])])
            .unwrap();

        let region = Arc::new(CurrencyRegion::new(
            RegionId(1),
            "CR1",
            Duration::from_secs(10),
            Duration::from_secs(2),
        ));
        let cache = Arc::new(StorageEngine::new());
        let mut agent =
            DistributionAgent::new(AgentId(1), region, master.clone(), cache.clone()).unwrap();
        let view = Arc::new(CachedViewDef {
            id: ViewId(1),
            name: "t_v".into(),
            region: RegionId(1),
            base_table: TableId(1),
            base_table_name: "t".into(),
            columns: vec!["id".into(), "v".into()],
            predicate: None,
            schema: schema.with_qualifier("t_v"),
            key_ordinals: vec![0],
            local_indexes: vec![],
        });
        agent.subscribe(view, &meta).unwrap();

        let rt = ReplicationRuntime::new(clock, master.clone());
        rt.add_agent(agent);
        Fixture { rt, master, cache }
    }

    fn set_v(master: &MasterDb, id: i64, v: i64) {
        master
            .execute_txn(vec![TableChange::new(
                "t",
                RowChange::Update {
                    key: vec![Value::Int(id)],
                    row: Row::new(vec![Value::Int(id), Value::Int(v)]),
                },
            )])
            .unwrap();
    }

    #[test]
    fn heartbeats_arrive_with_delay() {
        let f = fixture();
        // beat at t=0 commits hb(0); propagation at t=0 sees as_of=-2s → nothing.
        f.rt.advance_to(Timestamp(0)).unwrap();
        assert_eq!(f.rt.local_heartbeat("CR1"), None);
        // next propagation at t=10s: as_of=8s, beats at 0,2,...,8 all
        // delivered; the freshest delivered beat is 8s.
        f.rt.advance_to(Timestamp(10_000)).unwrap();
        assert_eq!(f.rt.local_heartbeat("CR1"), Some(Timestamp(8_000)));
    }

    #[test]
    fn staleness_cycles_between_d_and_d_plus_f() {
        let f = fixture();
        f.rt.advance_to(Timestamp(60_000)).unwrap();
        // Most recent propagation at t=60s used as_of=58s; best beat ≤58s is 58s.
        let hb = f.rt.local_heartbeat("CR1").unwrap();
        assert_eq!(hb, Timestamp(58_000));
        // staleness bound right after propagation = now - hb = 2s = d
        assert_eq!(f.rt.clock().now().since(hb), Duration::from_secs(2));
        // just before the next propagation, staleness approaches d+f
        f.rt.advance_to(Timestamp(69_999)).unwrap();
        let hb = f.rt.local_heartbeat("CR1").unwrap();
        let staleness = f.rt.clock().now().since(hb);
        assert!(staleness > Duration::from_secs(11));
        assert!(staleness <= Duration::from_secs(12));
    }

    #[test]
    fn data_changes_flow_on_schedule() {
        let f = fixture();
        f.rt.advance_to(Timestamp(5_000)).unwrap();
        set_v(&f.master, 1, 42); // commit at t=5s
                                 // propagation at t=10s has as_of=8s ≥ 5s → applied
        f.rt.advance_to(Timestamp(10_000)).unwrap();
        let v = f.cache.table("t_v").unwrap();
        assert_eq!(
            v.snapshot().row(&[Value::Int(1)]).unwrap()[1],
            Value::Int(42)
        );
    }

    #[test]
    fn change_close_to_propagation_waits_a_cycle() {
        let f = fixture();
        f.rt.advance_to(Timestamp(9_000)).unwrap();
        set_v(&f.master, 1, 7); // t=9s, as_of at t=10s is 8s < 9s
        f.rt.advance_to(Timestamp(10_000)).unwrap();
        let v = f.cache.table("t_v").unwrap();
        assert_eq!(
            v.snapshot().row(&[Value::Int(1)]).unwrap()[1],
            Value::Int(0)
        );
        f.rt.advance_to(Timestamp(20_000)).unwrap();
        assert_eq!(
            v.snapshot().row(&[Value::Int(1)]).unwrap()[1],
            Value::Int(7)
        );
    }

    #[test]
    fn stalled_agent_freezes_heartbeat() {
        let f = fixture();
        f.rt.advance_to(Timestamp(20_000)).unwrap();
        let before = f.rt.local_heartbeat("CR1").unwrap();
        assert!(f.rt.with_agent("CR1", |a| a.set_stalled(true)));
        f.rt.advance_to(Timestamp(60_000)).unwrap();
        assert_eq!(
            f.rt.local_heartbeat("CR1").unwrap(),
            before,
            "heartbeat frozen"
        );
        assert!(f.rt.with_agent("cr1", |a| a.set_stalled(false)));
        f.rt.advance_to(Timestamp(70_000)).unwrap();
        assert!(f.rt.local_heartbeat("CR1").unwrap() > before, "recovered");
        assert!(!f.rt.with_agent("nope", |_| {}));
    }

    #[test]
    fn metrics_track_lag_and_applied_txns() {
        let f = fixture();
        let registry = Arc::new(MetricsRegistry::new());
        f.rt.set_metrics(Arc::clone(&registry));
        f.rt.advance_to(Timestamp(5_000)).unwrap();
        set_v(&f.master, 1, 42); // applied by the t=10s propagation
        f.rt.advance_to(Timestamp(60_000)).unwrap();
        let snap = registry.snapshot();
        assert!(snap.counter("rcc_replication_txns_applied_total{region=\"CR1\"}") >= 1);
        // last propagation at t=60s delivered the 58s beat → lag 2s
        assert_eq!(
            snap.gauge("rcc_replication_lag_seconds{region=\"CR1\"}"),
            Some(2.0)
        );
    }

    #[test]
    #[should_panic(expected = "cannot advance into the past")]
    fn advancing_backwards_panics() {
        let f = fixture();
        f.rt.advance_to(Timestamp(10_000)).unwrap();
        f.rt.advance_to(Timestamp(5_000)).unwrap();
    }
}

#[cfg(test)]
mod multi_region_tests {
    use super::*;
    use crate::agent::DistributionAgent;
    use rcc_backend::MasterDb;
    use rcc_catalog::{CachedViewDef, Catalog, CurrencyRegion, TableMeta};
    use rcc_common::{AgentId, Column, DataType, RegionId, Row, Schema, TableId, Value, ViewId};
    use rcc_storage::StorageEngine;

    /// Two regions with co-prime intervals over one master: each keeps its
    /// own heartbeat cadence, and neither starves the other.
    #[test]
    fn two_regions_progress_independently() {
        let clock = SimClock::new();
        let catalog = Arc::new(Catalog::new());
        let master = Arc::new(MasterDb::new(catalog, Arc::new(clock.clone())));
        let schema = Schema::new(vec![
            Column::new("id", DataType::Int),
            Column::new("v", DataType::Int),
        ]);
        let meta = TableMeta::new(TableId(1), "t", schema.clone(), vec!["id".into()]).unwrap();
        master.create_table(&meta).unwrap();
        master
            .bulk_load("t", vec![Row::new(vec![Value::Int(1), Value::Int(0)])])
            .unwrap();
        let cache = Arc::new(StorageEngine::new());
        let rt = ReplicationRuntime::new(clock.clone(), master.clone());
        for (i, (name, f, d)) in [("A", 7i64, 1i64), ("B", 11, 3)].iter().enumerate() {
            let mut region = CurrencyRegion::new(
                RegionId(i as u32 + 1),
                *name,
                Duration::from_secs(*f),
                Duration::from_secs(*d),
            );
            region.heartbeat_interval = Duration::from_secs(1);
            let region = Arc::new(region);
            let mut agent = DistributionAgent::new(
                AgentId(i as u32 + 1),
                region,
                master.clone(),
                cache.clone(),
            )
            .unwrap();
            let view = Arc::new(CachedViewDef {
                id: ViewId(i as u32 + 1),
                name: format!("t_{name}"),
                region: RegionId(i as u32 + 1),
                base_table: TableId(1),
                base_table_name: "t".into(),
                columns: vec!["id".into(), "v".into()],
                predicate: None,
                schema: schema.clone().with_qualifier(&format!("t_{name}")),
                key_ordinals: vec![0],
                local_indexes: vec![],
            });
            agent.subscribe(view, &meta).unwrap();
            rt.add_agent(agent);
        }
        rt.advance_to(Timestamp(100_000)).unwrap();
        // last propagation times: A at 98s (14×7) sees beats ≤97s → 97s;
        // B at 99s (9×11) sees beats ≤96s → 96s
        assert_eq!(rt.local_heartbeat("A"), Some(Timestamp(97_000)));
        assert_eq!(rt.local_heartbeat("B"), Some(Timestamp(96_000)));
        // both views received the initial snapshot
        assert_eq!(cache.table("t_A").unwrap().snapshot().row_count(), 1);
        assert_eq!(cache.table("t_B").unwrap().snapshot().row_count(), 1);
    }
}
