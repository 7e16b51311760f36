//! Currency-guard evaluation.

use crate::context::{ExecContext, GuardMode, GuardObservation};
use rcc_common::{Result, Timestamp, Value};
use rcc_optimizer::CurrencyGuard;
use std::sync::atomic::Ordering;
use std::time::Instant;

/// The region label for staleness metrics: the heartbeat table name with
/// its `heartbeat_` prefix stripped (`heartbeat_cr1` → `cr1`).
fn region_label(guard: &CurrencyGuard) -> &str {
    guard
        .heartbeat_table
        .strip_prefix("heartbeat_")
        .unwrap_or(&guard.heartbeat_table)
}

/// Evaluate a currency guard: semantically the paper's selector predicate
///
/// ```sql
/// EXISTS (SELECT 1 FROM Heartbeat_R WHERE TimeStamp > getdate() - B)
/// ```
///
/// plus the timeline-consistency floor (our extension of Sec. 2.3): the
/// heartbeat must also be at least the session's floor for the region so a
/// later query never observes an older snapshot than an earlier one.
///
/// A missing heartbeat table or row fails the guard — conservative in the
/// safe direction (the query goes remote and sees current data).
pub fn evaluate_guard(ctx: &ExecContext, guard: &CurrencyGuard) -> Result<bool> {
    let started = Instant::now();
    let heartbeat = read_heartbeat(ctx, guard);
    let now = ctx.clock.now();
    if let (Some(ts), Some(metrics)) = (heartbeat, ctx.metrics.as_deref()) {
        metrics
            .guard_staleness(guard.region, region_label(guard))
            .observe(now.since(ts).as_secs_f64());
    }
    let chose_local = if ctx.guard_mode == GuardMode::ForceLocal {
        // ServeStale policy: take the local branch regardless; the recorded
        // observation below is how callers learn the bound may be violated.
        true
    } else {
        match heartbeat {
            Some(ts) => {
                let cutoff = now.minus(guard.bound);
                let floor = ctx
                    .timeline_floor
                    .get(&guard.region)
                    .copied()
                    .unwrap_or(Timestamp::ZERO);
                ts > cutoff && ts >= floor
            }
            None => false,
        }
    };
    ctx.record_guard(GuardObservation {
        region: guard.region,
        heartbeat,
        chose_local,
        bound: guard.bound,
    });
    ctx.meter
        .guard_nanos
        .fetch_add(started.elapsed().as_nanos() as u64, Ordering::Relaxed);
    ctx.meter.guard_evals.fetch_add(1, Ordering::Relaxed);
    Ok(chose_local)
}

/// Whether a guard-bearing node opens its local arm. `decided` is the
/// node's certified decision, if it has one: its pre-order number and
/// whether it takes the local arm. An execution running certified guards
/// takes a decided node's arm without evaluating the guard, and records
/// no observation, only the node in [`crate::QueryMeter::elided`]; every
/// other guard is evaluated ([`evaluate_guard`]).
pub(crate) fn choose_local(
    ctx: &ExecContext,
    guard: &CurrencyGuard,
    decided: Option<(usize, bool)>,
) -> Result<bool> {
    match decided {
        Some((node, local)) if ctx.guard_mode == GuardMode::Certified => {
            ctx.meter.elided.lock().push(node);
            Ok(local)
        }
        _ => evaluate_guard(ctx, guard),
    }
}

/// Read the region's local heartbeat timestamp, if present. Reads the
/// current published snapshot — lock-free, and atomic with respect to
/// replication publishes (a refresh can never expose a torn heartbeat).
pub fn read_heartbeat(ctx: &ExecContext, guard: &CurrencyGuard) -> Option<Timestamp> {
    let table = ctx.storage.table(&guard.heartbeat_table).ok()?.snapshot();
    let row = table.get(&[Value::Int(guard.region.raw() as i64)])?;
    row.get(1).as_int().ok().map(Timestamp)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_common::{Column, DataType, Duration, RegionId, Row, Schema, SimClock};
    use rcc_storage::{StorageEngine, Table};
    use std::collections::HashMap;
    use std::sync::Arc;

    fn setup(hb_ts: Option<i64>) -> (ExecContext, CurrencyGuard, SimClock) {
        let storage = Arc::new(StorageEngine::new());
        let schema = Schema::new(vec![
            Column::new("region_id", DataType::Int),
            Column::new("ts", DataType::Timestamp),
        ]);
        let mut t = Table::new("heartbeat_cr1", schema, vec![0]);
        if let Some(ts) = hb_ts {
            t.insert(Row::new(vec![Value::Int(1), Value::Timestamp(ts)]))
                .unwrap();
        }
        storage.create_table(t).unwrap();
        let clock = SimClock::starting_at(Timestamp(100_000));
        let ctx = ExecContext::new(storage, None, Arc::new(clock.clone()));
        let guard = CurrencyGuard {
            region: RegionId(1),
            heartbeat_table: "heartbeat_cr1".into(),
            bound: Duration::from_secs(10),
        };
        (ctx, guard, clock)
    }

    #[test]
    fn fresh_heartbeat_passes() {
        // now=100s, bound=10s, hb=95s → 95s > 90s → pass
        let (ctx, guard, _) = setup(Some(95_000));
        assert!(evaluate_guard(&ctx, &guard).unwrap());
        assert_eq!(
            ctx.counters
                .local_branches
                .load(std::sync::atomic::Ordering::Relaxed),
            1
        );
    }

    #[test]
    fn stale_heartbeat_fails() {
        // hb=89s ≤ cutoff 90s → fail (boundary exclusive like the paper's >)
        let (ctx, guard, _) = setup(Some(89_000));
        assert!(!evaluate_guard(&ctx, &guard).unwrap());
        let (ctx, guard, _) = setup(Some(90_000));
        assert!(
            !evaluate_guard(&ctx, &guard).unwrap(),
            "ts must be strictly newer"
        );
    }

    #[test]
    fn missing_heartbeat_fails_conservatively() {
        let (ctx, guard, _) = setup(None);
        assert!(!evaluate_guard(&ctx, &guard).unwrap());
        // missing table entirely
        let ctx2 = ExecContext::new(
            Arc::new(StorageEngine::new()),
            None,
            Arc::new(SimClock::new()),
        );
        assert!(!evaluate_guard(&ctx2, &guard).unwrap());
    }

    #[test]
    fn timeline_floor_blocks_old_snapshots() {
        let (ctx, guard, _) = setup(Some(95_000));
        // a floor above the heartbeat forces remote even though fresh
        let mut floor = HashMap::new();
        floor.insert(RegionId(1), Timestamp(96_000));
        let ctx2 = ctx.with_timeline_floor(floor);
        assert!(!evaluate_guard(&ctx2, &guard).unwrap());
        // equal floor is fine
        let mut floor = HashMap::new();
        floor.insert(RegionId(1), Timestamp(95_000));
        let ctx3 = ctx.with_timeline_floor(floor);
        assert!(evaluate_guard(&ctx3, &guard).unwrap());
    }

    #[test]
    fn staleness_histogram_and_timer_record() {
        let (ctx, guard, _) = setup(Some(95_000));
        let registry = Arc::new(rcc_obs::MetricsRegistry::new());
        let ctx = ctx.with_metrics(registry.clone());
        evaluate_guard(&ctx, &guard).unwrap();
        let snap = registry.snapshot();
        let h = snap
            .histogram("rcc_guard_staleness_seconds{region=\"cr1\"}")
            .unwrap();
        assert_eq!(h.count, 1);
        // now=100s, hb=95s → observed staleness is 5s
        assert!((h.sum - 5.0).abs() < 1e-9, "sum={}", h.sum);
        assert!(
            ctx.meter
                .guard_nanos
                .load(std::sync::atomic::Ordering::Relaxed)
                > 0
        );
        assert_eq!(ctx.meter.guard_eval_count(), 1);
        // a missing heartbeat records no staleness sample
        let (ctx2, guard2, _) = setup(None);
        let registry2 = Arc::new(rcc_obs::MetricsRegistry::new());
        evaluate_guard(&ctx2.with_metrics(registry2.clone()), &guard2).unwrap();
        assert!(registry2
            .snapshot()
            .histogram("rcc_guard_staleness_seconds{region=\"cr1\"}")
            .is_none());
    }

    #[test]
    fn guard_tracks_clock_movement() {
        let (ctx, guard, clock) = setup(Some(95_000));
        assert!(evaluate_guard(&ctx, &guard).unwrap());
        clock.advance(Duration::from_secs(10)); // now=110s, cutoff=100s > 95s
        assert!(!evaluate_guard(&ctx, &guard).unwrap());
    }
}
