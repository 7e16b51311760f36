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
//! and tags each entry with the epoch it was compiled under. The epoch is
//! derived, not remembered: it is the catalog's own mutation count
//! ([`Catalog::version`]) plus the cache's [`PlanCache::invalidate`] calls,
//! which are left for what the catalog does not hold (the optimizer's
//! knobs). Any change moves it and invalidates all entries at once —
//! coarse, like the real system's schema-version plan-cache keys. Both
//! roles use this one type: the mid-tier cache holds [`CompiledQuery`]s,
//! the back-end the [`Optimized`] plans of the statements shipped to it.
//!
//! A plan is tagged with the epoch read *before* its compilation began
//! ([`PlanCache::put`] takes it), never with the epoch at insertion: a
//! compile that a catalog change overtakes produces a plan of the old
//! catalog, and must not be served under the new epoch.
//!
//! The cache is bounded: traffic whose every text is new (an ORM inlining
//! literals) must not grow it forever. It holds at most
//! [`PLAN_CACHE_CAPACITY`] entries; an insertion into a full cache drops
//! the oldest insertion — first in, first out. Epochs only grow and a plan
//! already stale when it arrives is not inserted, so the oldest insertion
//! is an entry of a stale epoch whenever there is one: stale plans go
//! first, then the oldest live ones. A hit writes nothing, and the order
//! of eviction is a function of the order of compilation alone.

use parking_lot::Mutex;
use rcc_catalog::Catalog;
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

/// Cache of plans of type `P` with epoch-based invalidation, bounded at
/// [`PLAN_CACHE_CAPACITY`] entries.
#[derive(Debug)]
pub struct PlanCache<P = CompiledQuery> {
    catalog: Arc<Catalog>,
    /// [`PlanCache::invalidate`] calls so far.
    bumps: AtomicU64,
    entries: Mutex<Entries<P>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

#[derive(Debug)]
struct Entries<P> {
    by_key: HashMap<Arc<str>, Entry<P>>,
    /// Every entry's key under its insertion number: eviction order.
    by_age: BTreeMap<u64, Arc<str>>,
    /// Insertion number of the next entry.
    next: u64,
}

#[derive(Debug)]
struct Entry<P> {
    epoch: u64,
    inserted: u64,
    plan: Arc<P>,
}

impl<P> Entries<P> {
    fn remove(&mut self, key: &str) {
        if let Some(e) = self.by_key.remove(key) {
            self.by_age.remove(&e.inserted);
        }
    }
}

// On the default plan type only, so that `PlanCache::key(..)` names a type.
impl PlanCache {
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
}

impl<P> PlanCache<P> {
    /// An empty cache of plans compiled from `catalog`.
    pub fn new(catalog: Arc<Catalog>) -> PlanCache<P> {
        PlanCache {
            catalog,
            bumps: AtomicU64::new(0),
            entries: Mutex::new(Entries {
                by_key: HashMap::new(),
                by_age: BTreeMap::new(),
                next: 0,
            }),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// The current epoch: catalog mutations plus [`PlanCache::invalidate`]
    /// calls. Both counts only grow, so the sum moves exactly when either
    /// does, and two sums are equal only if nothing changed in between.
    /// Read it before compiling a plan and hand it to [`PlanCache::put`].
    pub fn epoch(&self) -> u64 {
        self.catalog.version() + self.bumps.load(Ordering::Acquire)
    }

    /// Invalidate every cached plan, for a change the catalog does not
    /// see (an optimizer knob). Catalog mutations need no call: they move
    /// [`Catalog::version`].
    pub fn invalidate(&self) {
        self.bumps.fetch_add(1, Ordering::AcqRel);
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

    /// Look up a plan compiled at the current epoch, counting a hit if one
    /// is found. Nothing is counted otherwise: the lookup comes before the
    /// parse, so the text may not be a `SELECT` at all — the caller counts
    /// the miss ([`PlanCache::count_miss`]) once it knows it has one to
    /// compile, which keeps hits + misses = `SELECT`s looked up.
    pub fn get(&self, key: &str) -> Option<Arc<P>> {
        let epoch = self.epoch();
        let mut entries = self.entries.lock();
        match entries.by_key.get(key) {
            Some(e) if e.epoch == epoch => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                Some(Arc::clone(&e.plan))
            }
            Some(_) => {
                entries.remove(key);
                None
            }
            None => None,
        }
    }

    /// Count a lookup that found no plan for what turned out to be a
    /// `SELECT` this cache would hold.
    pub fn count_miss(&self) {
        self.misses.fetch_add(1, Ordering::Relaxed);
    }

    /// Store a freshly compiled plan, evicting the oldest insertion if the
    /// cache is full. `epoch` is what [`PlanCache::epoch`] returned before
    /// the compilation began; if the epoch has moved since, the plan may be
    /// one of the catalog as it was and is dropped rather than stored.
    pub fn put(&self, key: &str, plan: Arc<P>, epoch: u64) {
        let mut entries = self.entries.lock();
        // compared under the lock: insertion order is epoch order
        if epoch != self.epoch() {
            return;
        }
        let key: Arc<str> = key.into();
        let inserted = entries.next;
        entries.next += 1;
        entries.by_age.insert(inserted, Arc::clone(&key));
        let entry = Entry {
            epoch,
            inserted,
            plan,
        };
        if let Some(replaced) = entries.by_key.insert(key, entry) {
            // the same text again (compiled under an older epoch, or by two
            // sessions at once) takes its entry's place and counts once
            entries.by_age.remove(&replaced.inserted);
        }
        while entries.by_key.len() > PLAN_CACHE_CAPACITY {
            let Some((_, oldest)) = entries.by_age.pop_first() else {
                break;
            };
            entries.by_key.remove(&oldest);
            self.evictions.fetch_add(1, Ordering::Relaxed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rcc_storage::TableStats;

    /// The cache does not look inside what it holds: any plan type will do.
    fn cache() -> PlanCache<u32> {
        PlanCache::new(Arc::new(Catalog::new()))
    }

    /// Compile-and-cache at the current epoch.
    fn put(pc: &PlanCache<u32>, key: &str) {
        pc.put(key, Arc::new(0), pc.epoch());
    }

    #[test]
    fn hit_and_miss_accounting() {
        let pc = cache();
        assert!(pc.get("q").is_none());
        assert_eq!(pc.stats(), (0, 0), "a miss is the caller's to count");
        pc.count_miss();
        put(&pc, "q");
        assert!(pc.get("q").is_some());
        assert_eq!(pc.stats(), (1, 1));
        assert_eq!(pc.len(), 1);
    }

    #[test]
    fn invalidation_evicts_lazily() {
        let pc = cache();
        put(&pc, "q");
        pc.invalidate();
        assert!(pc.get("q").is_none(), "stale epoch");
        assert!(pc.is_empty(), "stale entry evicted on access");
        // re-cache under the new epoch works
        put(&pc, "q");
        assert!(pc.get("q").is_some());
    }

    #[test]
    fn a_catalog_mutation_is_an_invalidation() {
        let catalog = Arc::new(Catalog::new());
        let pc: PlanCache<u32> = PlanCache::new(Arc::clone(&catalog));
        put(&pc, "q");
        let before = pc.epoch();
        catalog.set_stats("t", TableStats::default());
        assert!(pc.epoch() > before, "epochs only grow");
        assert!(pc.get("q").is_none(), "nobody called invalidate()");
        put(&pc, "q");
        assert!(pc.get("q").is_some());
    }

    #[test]
    fn a_plan_is_tagged_with_the_epoch_it_was_compiled_under() {
        let catalog = Arc::new(Catalog::new());
        let pc: PlanCache<u32> = PlanCache::new(Arc::clone(&catalog));
        // a knob change overtakes the compile
        let compiled_under = pc.epoch();
        pc.invalidate();
        pc.put("q", Arc::new(0), compiled_under);
        assert!(pc.get("q").is_none(), "a plan of the old epoch");
        // so does a catalog change, and the stale plan takes no slot — nor
        // the place of a live plan another session cached meanwhile
        let compiled_under = pc.epoch();
        catalog.set_stats("t", TableStats::default());
        pc.put("live", Arc::new(1), pc.epoch());
        pc.put("live", Arc::new(0), compiled_under);
        pc.put("q", Arc::new(0), compiled_under);
        assert!(pc.get("q").is_none());
        assert_eq!(pc.get("live").as_deref(), Some(&1));
        assert_eq!(pc.len(), 1);
    }

    #[test]
    fn one_text_over_capacity_evicts_the_first_inserted() {
        let pc = cache();
        for i in 0..=PLAN_CACHE_CAPACITY {
            put(&pc, &format!("q{i}"));
        }
        assert_eq!(pc.len(), PLAN_CACHE_CAPACITY);
        assert_eq!(pc.evictions(), 1);
        assert!(pc.get("q0").is_none(), "the first text recompiles");
        assert!(pc.get("q1").is_some());
        assert!(pc.get(&format!("q{PLAN_CACHE_CAPACITY}")).is_some());
    }

    #[test]
    fn a_text_cached_again_after_invalidation_counts_once() {
        let pc = cache();
        put(&pc, "q");
        pc.invalidate();
        // not looked up in between: the stale entry is still there
        put(&pc, "q");
        assert_eq!(pc.len(), 1);
        assert!(pc.get("q").is_some(), "the entry of the current epoch");
        // ... and took the stale one's place in the eviction order too
        for i in 1..PLAN_CACHE_CAPACITY {
            put(&pc, &format!("q{i}"));
        }
        assert_eq!((pc.len(), pc.evictions()), (PLAN_CACHE_CAPACITY, 0));
    }

    #[test]
    fn stale_epochs_are_evicted_before_live_plans() {
        let pc = cache();
        for i in 0..10 {
            put(&pc, &format!("stale{i}"));
        }
        pc.invalidate();
        for i in 0..PLAN_CACHE_CAPACITY {
            put(&pc, &format!("live{i}"));
        }
        // ten insertions over capacity: exactly the ten stale plans went
        assert_eq!((pc.len(), pc.evictions()), (PLAN_CACHE_CAPACITY, 10));
        assert!(pc.get("live0").is_some());
        put(&pc, "one more");
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
