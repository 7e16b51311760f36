//! Plan caching.
//!
//! The paper's split of enforcement — consistency at compile time, currency
//! at run time — exists precisely so plans can be reused: "this approach
//! requires re-optimization only if a view's consistency properties
//! change" (Sec. 3.2). The dynamic SwitchUnion plan stays valid across
//! heartbeats, updates and agent cycles; only *catalog* changes (new or
//! dropped views, regions, tables, indexes, refreshed statistics) can make
//! it stale.
//!
//! [`PlanCache`] keys compiled plans by (SQL text, bound parameter values)
//! and tags each entry with the catalog epoch at compile time. The server
//! bumps the epoch on every DDL/ANALYZE, invalidating all entries at once —
//! coarse, like the real system's schema-version plan-cache keys.
//!
//! The cache is bounded: traffic whose every text is new (an ORM inlining
//! literals) must not grow it forever. It holds at most
//! [`PLAN_CACHE_CAPACITY`] entries; an insertion into a full cache drops
//! the oldest insertion — first in, first out. Epochs only grow, so the
//! oldest insertion is an entry of a stale epoch whenever there is one:
//! stale plans go first, then the oldest live ones. A hit writes nothing,
//! and the order of eviction is a function of the order of compilation
//! alone.

use parking_lot::Mutex;
use rcc_common::{TableId, Value};
use rcc_flow::{FlowAnalysis, GuardCert};
use rcc_optimizer::optimize::Optimized;
use rcc_optimizer::PhysicalPlan;
use std::borrow::Cow;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Most plans the cache holds. At ≈ 6 KiB a plan that is ≈ 25 MiB, and 16
/// times the largest warm working set of any workload or test.
pub const PLAN_CACHE_CAPACITY: usize = 4096;

/// The guard-elided alternative of a compiled plan, plus the certificates
/// that justify each removed guard (replayed by `rcc-verify` and by the
/// debug-build runtime cross-check).
#[derive(Debug)]
pub struct ElidedPlan {
    /// The plan with statically-decided guards removed/collapsed.
    pub plan: PhysicalPlan,
    /// One certificate per elided guard.
    pub certs: Vec<GuardCert>,
}

/// A compiled query: the optimized plan plus the binding-time metadata the
/// server needs per execution.
#[derive(Debug)]
pub struct CompiledQuery {
    /// The optimizer's output.
    pub optimized: Optimized,
    /// Base tables the query reads (for timeline-consistency bookkeeping).
    pub tables: Vec<TableId>,
    /// Rendered currency-clause lint diagnostics from compile time,
    /// attached to every result served from this plan.
    pub lint: Vec<String>,
    /// Currency dataflow analysis of the optimized plan (per-node
    /// delivered-staleness certificates).
    pub flow: FlowAnalysis,
    /// Present when guard elision is enabled and the analysis certified at
    /// least one removal. Served only for sessions with no timeline floors
    /// and no forced-local degradation — the certificates' premises.
    pub elided: Option<ElidedPlan>,
}

/// Compiled-plan cache with epoch-based invalidation, bounded at
/// [`PLAN_CACHE_CAPACITY`] entries.
#[derive(Debug, Default)]
pub struct PlanCache {
    epoch: AtomicU64,
    entries: Mutex<Entries>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

#[derive(Debug, Default)]
struct Entries {
    by_key: HashMap<Arc<str>, Entry>,
    /// Every entry's key under its insertion number: eviction order.
    by_age: BTreeMap<u64, Arc<str>>,
    /// Insertion number of the next entry.
    next: u64,
}

#[derive(Debug, Clone)]
struct Entry {
    epoch: u64,
    inserted: u64,
    compiled: Arc<CompiledQuery>,
}

impl Entries {
    fn remove(&mut self, key: &str) {
        if let Some(e) = self.by_key.remove(key) {
            self.by_age.remove(&e.inserted);
        }
    }
}

impl PlanCache {
    /// An empty cache.
    pub fn new() -> PlanCache {
        PlanCache::default()
    }

    /// Current catalog epoch.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Invalidate every cached plan (catalog changed: DDL or ANALYZE).
    pub fn invalidate(&self) {
        self.epoch.fetch_add(1, Ordering::AcqRel);
    }

    /// (hits, misses) so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Entries dropped to keep the cache within [`PLAN_CACHE_CAPACITY`].
    /// (A stale entry replaced or removed when its own key is looked up
    /// again is not an eviction.)
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of entries held, stale ones included until they are looked
    /// up again or evicted.
    pub fn len(&self) -> usize {
        self.entries.lock().by_key.len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.entries.lock().by_key.is_empty()
    }

    /// Cache key for a query + parameter binding: the text itself when
    /// there are no parameters.
    pub fn key<'a>(sql: &'a str, params: &HashMap<String, Value>) -> Cow<'a, str> {
        if params.is_empty() {
            return Cow::Borrowed(sql);
        }
        let mut pairs: Vec<(&String, &Value)> = params.iter().collect();
        pairs.sort_by(|a, b| a.0.cmp(b.0));
        let suffix: Vec<String> = pairs.into_iter().map(|(k, v)| format!("{k}={v}")).collect();
        Cow::Owned(format!("{sql}\u{1}{}", suffix.join("\u{1}")))
    }

    /// Look up a plan compiled at the current epoch, counting a hit if one
    /// is found. Nothing is counted otherwise: the lookup comes before the
    /// parse, so the text may not be a `SELECT` at all — the caller counts
    /// the miss ([`PlanCache::count_miss`]) once it knows it has one to
    /// compile, which keeps hits + misses = `SELECT`s looked up.
    pub fn get(&self, key: &str) -> Option<Arc<CompiledQuery>> {
        let epoch = self.epoch();
        let mut entries = self.entries.lock();
        match entries.by_key.get(key) {
            Some(e) if e.epoch == epoch => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&e.compiled))
            }
            Some(_) => {
                entries.remove(key);
                None
            }
            None => None,
        }
    }

    /// Count a lookup that found no plan for what turned out to be a
    /// `SELECT`.
    pub fn count_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Store a freshly compiled query under the current epoch, evicting
    /// the oldest insertion if the cache is full.
    pub fn put(&self, key: String, compiled: Arc<CompiledQuery>) {
        let mut entries = self.entries.lock();
        // read under the lock: insertion order is epoch order
        let epoch = self.epoch();
        // the same text again (compiled under an older epoch, or by two
        // sessions at once) replaces its entry and counts once
        entries.remove(&key);
        while entries.by_key.len() >= PLAN_CACHE_CAPACITY {
            let Some((_, oldest)) = entries.by_age.pop_first() else {
                break;
            };
            entries.by_key.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
        let key: Arc<str> = key.into();
        let inserted = entries.next;
        entries.next += 1;
        entries.by_age.insert(inserted, Arc::clone(&key));
        entries.by_key.insert(
            key,
            Entry {
                epoch,
                inserted,
                compiled,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_optimizer::optimize::PlanChoice;
    use rcc_optimizer::PhysicalPlan;

    fn dummy() -> Arc<CompiledQuery> {
        let catalog = rcc_catalog::Catalog::new();
        Arc::new(CompiledQuery {
            optimized: Optimized {
                plan: PhysicalPlan::OneRow,
                cost: 1.0,
                est_rows: 1.0,
                choice: PlanChoice::BackendLocal,
            },
            tables: vec![],
            lint: vec![],
            flow: rcc_flow::analyze(&catalog, &PhysicalPlan::OneRow),
            elided: None,
        })
    }

    #[test]
    fn hit_and_miss_accounting() {
        let pc = PlanCache::new();
        assert!(pc.get("q").is_none());
        assert_eq!(pc.stats(), (0, 0), "a miss is the caller's to count");
        pc.count_miss();
        pc.put("q".into(), dummy());
        assert!(pc.get("q").is_some());
        assert_eq!(pc.stats(), (1, 1));
        assert_eq!(pc.len(), 1);
    }

    #[test]
    fn invalidation_evicts_lazily() {
        let pc = PlanCache::new();
        pc.put("q".into(), dummy());
        pc.invalidate();
        assert!(pc.get("q").is_none(), "stale epoch");
        assert!(pc.is_empty(), "stale entry evicted on access");
        // re-cache under the new epoch works
        pc.put("q".into(), dummy());
        assert!(pc.get("q").is_some());
    }

    #[test]
    fn one_text_over_capacity_evicts_the_first_inserted() {
        let pc = PlanCache::new();
        for i in 0..=PLAN_CACHE_CAPACITY {
            pc.put(format!("q{i}"), dummy());
        }
        assert_eq!(pc.len(), PLAN_CACHE_CAPACITY);
        assert_eq!(pc.evictions(), 1);
        assert!(pc.get("q0").is_none(), "the first text recompiles");
        assert!(pc.get("q1").is_some());
        assert!(pc.get(&format!("q{PLAN_CACHE_CAPACITY}")).is_some());
    }

    #[test]
    fn a_text_cached_again_after_invalidation_counts_once() {
        let pc = PlanCache::new();
        pc.put("q".into(), dummy());
        pc.invalidate();
        // not looked up in between: the stale entry is still there
        pc.put("q".into(), dummy());
        assert_eq!(pc.len(), 1);
        assert!(pc.get("q").is_some(), "the entry of the current epoch");
        // ... and took the stale one's place in the eviction order too
        for i in 1..PLAN_CACHE_CAPACITY {
            pc.put(format!("q{i}"), dummy());
        }
        assert_eq!((pc.len(), pc.evictions()), (PLAN_CACHE_CAPACITY, 0));
    }

    #[test]
    fn stale_epochs_are_evicted_before_live_plans() {
        let pc = PlanCache::new();
        for i in 0..10 {
            pc.put(format!("stale{i}"), dummy());
        }
        pc.invalidate();
        for i in 0..PLAN_CACHE_CAPACITY {
            pc.put(format!("live{i}"), dummy());
        }
        // ten insertions over capacity: exactly the ten stale plans went
        assert_eq!((pc.len(), pc.evictions()), (PLAN_CACHE_CAPACITY, 10));
        assert!(pc.get("live0").is_some());
        pc.put("one more".into(), dummy());
        assert!(pc.get("live0").is_none(), "then the oldest live plan");
        assert!(pc.get("live1").is_some());
    }

    #[test]
    fn keys_include_sorted_params() {
        let mut p1 = HashMap::new();
        p1.insert("b".to_string(), Value::Int(2));
        p1.insert("a".to_string(), Value::Int(1));
        let mut p2 = HashMap::new();
        p2.insert("a".to_string(), Value::Int(1));
        p2.insert("b".to_string(), Value::Int(2));
        assert_eq!(PlanCache::key("q", &p1), PlanCache::key("q", &p2));
        let mut p3 = HashMap::new();
        p3.insert("a".to_string(), Value::Int(9));
        assert_ne!(PlanCache::key("q", &p1), PlanCache::key("q", &p3));
        assert_eq!(PlanCache::key("q", &HashMap::new()), "q");
    }
}
