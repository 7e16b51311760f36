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
//! [`PlanCache`] keys compiled plans by the statement's **shape**
//! (`rcc_sql::shape`: the text with its comparison literals and `$params`
//! taken out as slots), so `c_custkey = 17` and `c_custkey = 18` are one
//! key. Under a key it holds *variants*: a plan together with, per slot,
//! the domain of values it was proven for
//! (`rcc_optimizer::slot_domains`) — the paper's own device of a plan
//! that carries a cheap run-time test, applied to the plan's constants. A
//! lookup serves the first variant of the current epoch whose domains hold
//! the statement's values; values outside every variant's domains compile
//! a sibling, which is cached beside them.
//!
//! Each variant is tagged with the epoch it was compiled under. The epoch
//! is derived, not remembered: it is the catalog's own mutation count
//! ([`Catalog::version`]) plus the cache's [`PlanCache::invalidate`] calls,
//! which are left for what the catalog does not hold (the optimizer's
//! knobs). Any change moves it and invalidates all entries at once —
//! coarse, like the real system's schema-version plan-cache keys. Both
//! roles use this one type and its one entry point,
//! [`PlanCache::find_or_compile`]: the mid-tier cache holds
//! [`CompiledQuery`]s, the back-end the [`Optimized`] plans of the
//! statements shipped to it.
//!
//! A plan is tagged with the epoch read *before* its compilation began,
//! never with the epoch at insertion: a compile that a catalog change
//! overtakes produces a plan of the old catalog, and must not be served
//! under the new epoch.
//!
//! The cache is bounded: traffic whose every shape is new must not grow it
//! forever. It holds at most [`PLAN_CACHE_CAPACITY`] variants; an insertion
//! into a full cache drops the oldest insertion — first in, first out.
//! Epochs only grow and a plan already stale when it arrives is not
//! inserted, so the oldest insertion is a variant of a stale epoch whenever
//! there is one: stale plans go first, then the oldest live ones. A hit
//! writes nothing, and the order of eviction is a function of the order of
//! compilation alone.

use parking_lot::Mutex;
use rcc_catalog::Catalog;
use rcc_common::{Result, TableId, Value};
use rcc_flow::{FlowAnalysis, GuardCert};
use rcc_optimizer::optimize::Optimized;
use rcc_optimizer::PhysicalPlan;
use rcc_storage::KeyRange;
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
/// [`PLAN_CACHE_CAPACITY`] variants.
#[derive(Debug)]
pub struct PlanCache<P = CompiledQuery> {
    catalog: Arc<Catalog>,
    /// [`PlanCache::invalidate`] calls so far.
    bumps: AtomicU64,
    entries: Mutex<Entries<P>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    sibling_compiles: AtomicU64,
}

#[derive(Debug)]
struct Entries<P> {
    by_key: HashMap<Arc<str>, Vec<Variant<P>>>,
    /// Every variant's key under its insertion number: eviction order.
    by_age: BTreeMap<u64, Arc<str>>,
    /// Insertion number of the next variant.
    next: u64,
}

/// One plan of a shape, and the slot values it is the plan for.
#[derive(Debug)]
struct Variant<P> {
    epoch: u64,
    inserted: u64,
    /// Per slot, the values `plan` was proven for.
    domains: Vec<KeyRange>,
    plan: Arc<P>,
}

impl<P> Variant<P> {
    fn holds(&self, values: &[Value]) -> bool {
        self.domains.len() == values.len()
            && self.domains.iter().zip(values).all(|(d, v)| d.contains(v))
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
            sibling_compiles: AtomicU64::new(0),
        }
    }

    /// The current epoch: catalog mutations plus [`PlanCache::invalidate`]
    /// calls. Both counts only grow, so the sum moves exactly when either
    /// does, and two sums are equal only if nothing changed in between.
    pub fn epoch(&self) -> u64 {
        self.catalog.version() + self.bumps.load(Ordering::Acquire)
    }

    /// Invalidate every cached plan, for a change the catalog does not
    /// see (an optimizer knob). Catalog mutations need no call: they move
    /// [`Catalog::version`].
    pub fn invalidate(&self) {
        self.bumps.fetch_add(1, Ordering::AcqRel);
    }

    /// (hits, misses) so far: statements served from a cached plan, and
    /// statements a plan was compiled for. What fails to compile — a text
    /// that does not parse or bind, a statement the role rejects — is
    /// neither.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }

    /// Variants dropped to keep the cache within [`PLAN_CACHE_CAPACITY`].
    /// (A stale variant replaced or removed when its own key is looked up
    /// again is not an eviction.)
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Misses on a shape the cache knew: it held plans of the current
    /// epoch for that key, and the statement's values lay outside the
    /// domains of every one of them.
    pub fn sibling_compiles(&self) -> u64 {
        self.sibling_compiles.load(Ordering::Relaxed)
    }

    /// Number of variants held, stale ones included until their key is
    /// looked up again or they are evicted.
    pub fn len(&self) -> usize {
        self.entries.lock().by_age.len()
    }

    /// True when no plans are cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The plan of `key` for `values`: the first variant of the current
    /// epoch whose domains hold them, counting a hit if there is one.
    pub fn find(&self, key: &str, values: &[Value]) -> Option<Arc<P>> {
        self.lookup(key, values).0
    }

    /// [`PlanCache::find`], also telling whether the key has any variant of
    /// the current epoch.
    fn lookup(&self, key: &str, values: &[Value]) -> (Option<Arc<P>>, bool) {
        let epoch = self.epoch();
        let mut entries = self.entries.lock();
        let Entries { by_key, by_age, .. } = &mut *entries;
        let Some(variants) = by_key.get_mut(key) else {
            return (None, false);
        };
        if variants.iter().any(|v| v.epoch != epoch) {
            variants.retain(|v| {
                if v.epoch != epoch {
                    by_age.remove(&v.inserted);
                }
                v.epoch == epoch
            });
            if variants.is_empty() {
                by_key.remove(key);
                return (None, false);
            }
        }
        match variants.iter().find(|v| v.holds(values)) {
            Some(v) => {
                self.hits.fetch_add(1, Ordering::Relaxed);
                (Some(Arc::clone(&v.plan)), true)
            }
            None => (None, true),
        }
    }

    /// The statement path of both roles: serve `key` for `values` from the
    /// cache, or `compile` a plan for them — which returns the plan and the
    /// domain of each slot it was proven for — and cache it as a variant of
    /// `key`. Returns the plan and whether it was a hit. An error of
    /// `compile` is passed on and leaves the cache and its counts as they
    /// were.
    pub fn find_or_compile(
        &self,
        key: &str,
        values: &[Value],
        compile: impl FnOnce() -> Result<(P, Vec<KeyRange>)>,
    ) -> Result<(Arc<P>, bool)> {
        let (found, known) = self.lookup(key, values);
        if let Some(plan) = found {
            return Ok((plan, true));
        }
        // before the compile reads the catalog or a knob: the plan is a
        // plan of this epoch, whatever changes meanwhile
        let epoch = self.epoch();
        let (plan, domains) = compile()?;
        self.misses.fetch_add(1, Ordering::Relaxed);
        if known {
            self.sibling_compiles.fetch_add(1, Ordering::Relaxed);
        }
        let plan = Arc::new(plan);
        self.put(key, domains, Arc::clone(&plan), epoch);
        Ok((plan, false))
    }

    /// Store a freshly compiled variant, evicting the oldest insertion if
    /// the cache is full. `epoch` is what [`PlanCache::epoch`] returned
    /// before the compilation began; if the epoch has moved since, the plan
    /// may be one of the catalog as it was and is dropped rather than
    /// stored.
    fn put(&self, key: &str, domains: Vec<KeyRange>, plan: Arc<P>, epoch: u64) {
        let mut entries = self.entries.lock();
        // compared under the lock: insertion order is epoch order
        if epoch != self.epoch() {
            return;
        }
        let Entries {
            by_key,
            by_age,
            next,
        } = &mut *entries;
        let key: Arc<str> = match by_key.get_key_value(key) {
            Some((held, _)) => Arc::clone(held),
            None => key.into(),
        };
        let variant = Variant {
            epoch,
            inserted: *next,
            domains,
            plan,
        };
        *next += 1;
        by_age.insert(variant.inserted, Arc::clone(&key));
        let variants = by_key.entry(key).or_default();
        match variants.iter_mut().find(|v| v.domains == variant.domains) {
            // the same domains again (compiled under an older epoch, or by
            // two sessions at once): takes that variant's place, counts once
            Some(same) => {
                by_age.remove(&same.inserted);
                *same = variant;
            }
            None => variants.push(variant),
        }
        while by_age.len() > PLAN_CACHE_CAPACITY {
            let Some((oldest, key)) = by_age.pop_first() else {
                break;
            };
            if let Some(variants) = by_key.get_mut(&key) {
                variants.retain(|v| v.inserted != oldest);
                if variants.is_empty() {
                    by_key.remove(&key);
                }
            }
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

    /// Compile-and-cache a slotless plan at the current epoch.
    fn put(pc: &PlanCache<u32>, key: &str) {
        pc.put(key, Vec::new(), Arc::new(0), pc.epoch());
    }

    fn get(pc: &PlanCache<u32>, key: &str) -> Option<Arc<u32>> {
        pc.find(key, &[])
    }

    #[test]
    fn hit_and_miss_accounting() {
        let pc = cache();
        assert!(get(&pc, "q").is_none());
        assert_eq!(pc.stats(), (0, 0), "nothing was compiled yet");
        let compiled = pc.find_or_compile("q", &[], || Ok((7, Vec::new())));
        assert_eq!(compiled.unwrap(), (Arc::new(7), false));
        let served = pc.find_or_compile("q", &[], || unreachable!("cached"));
        assert_eq!(served.unwrap(), (Arc::new(7), true));
        assert_eq!(pc.stats(), (1, 1));
        assert_eq!(pc.len(), 1);
        // what does not compile is no miss and takes no entry
        let failed = pc.find_or_compile("bad", &[], || Err(rcc_common::Error::analysis("no")));
        assert!(failed.is_err());
        assert_eq!((pc.stats(), pc.len()), ((1, 1), 1));
    }

    #[test]
    fn invalidation_evicts_lazily() {
        let pc = cache();
        put(&pc, "q");
        pc.invalidate();
        assert!(get(&pc, "q").is_none(), "stale epoch");
        assert!(pc.is_empty(), "stale entry evicted on access");
        // re-cache under the new epoch works
        put(&pc, "q");
        assert!(get(&pc, "q").is_some());
    }

    #[test]
    fn a_catalog_mutation_is_an_invalidation() {
        let catalog = Arc::new(Catalog::new());
        let pc: PlanCache<u32> = PlanCache::new(Arc::clone(&catalog));
        put(&pc, "q");
        let before = pc.epoch();
        catalog.set_stats("t", TableStats::default());
        assert!(pc.epoch() > before, "epochs only grow");
        assert!(get(&pc, "q").is_none(), "nobody called invalidate()");
        put(&pc, "q");
        assert!(get(&pc, "q").is_some());
    }

    #[test]
    fn a_plan_is_tagged_with_the_epoch_it_was_compiled_under() {
        let catalog = Arc::new(Catalog::new());
        let pc: PlanCache<u32> = PlanCache::new(Arc::clone(&catalog));
        // a knob change overtakes the compile
        let overtaken = pc.find_or_compile("q", &[], || {
            pc.invalidate();
            Ok((0, Vec::new()))
        });
        assert!(overtaken.is_ok(), "the statement is still answered");
        assert!(get(&pc, "q").is_none(), "a plan of the old epoch");
        // so does a catalog change, and the stale plan takes no slot — nor
        // the place of a live plan another session cached meanwhile
        let compiled_under = pc.epoch();
        catalog.set_stats("t", TableStats::default());
        pc.put("live", Vec::new(), Arc::new(1), pc.epoch());
        pc.put("live", Vec::new(), Arc::new(0), compiled_under);
        pc.put("q", Vec::new(), Arc::new(0), compiled_under);
        assert!(get(&pc, "q").is_none());
        assert_eq!(get(&pc, "live").as_deref(), Some(&1));
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
        assert!(get(&pc, "q0").is_none(), "the first text recompiles");
        assert!(get(&pc, "q1").is_some());
        assert!(get(&pc, &format!("q{PLAN_CACHE_CAPACITY}")).is_some());
    }

    #[test]
    fn a_text_cached_again_after_invalidation_counts_once() {
        let pc = cache();
        put(&pc, "q");
        pc.invalidate();
        // not looked up in between: the stale entry is still there
        put(&pc, "q");
        assert_eq!(pc.len(), 1);
        assert!(get(&pc, "q").is_some(), "the entry of the current epoch");
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
        assert!(get(&pc, "live0").is_some());
        put(&pc, "one more");
        assert!(get(&pc, "live0").is_none(), "then the oldest live plan");
        assert!(get(&pc, "live1").is_some());
    }

    #[test]
    fn values_outside_every_domain_compile_a_sibling_and_capacity_counts_variants() {
        let pc = cache();
        let below = |v: i64| vec![KeyRange::less_than(Value::Int(v))];
        let compile = |plan: u32, domains: Vec<KeyRange>| move || Ok((plan, domains));
        let serve = |v: i64, plan: u32, domains: Vec<KeyRange>| {
            pc.find_or_compile("a < ?0i", &[Value::Int(v)], compile(plan, domains))
                .unwrap()
        };
        assert_eq!(serve(5, 1, below(50)), (Arc::new(1), false));
        assert_eq!(pc.sibling_compiles(), 0, "a new shape is no sibling");
        assert_eq!(serve(49, 9, below(50)), (Arc::new(1), true));
        // 50 is outside the one variant's domain
        let rest = vec![KeyRange::between(Value::Int(50), Value::Int(999))];
        assert_eq!(serve(50, 2, rest.clone()), (Arc::new(2), false));
        assert_eq!(pc.sibling_compiles(), 1);
        // both variants now hit, each for its own values
        assert_eq!(serve(7, 9, below(50)), (Arc::new(1), true));
        assert_eq!(serve(700, 9, rest), (Arc::new(2), true));
        assert_eq!((pc.stats(), pc.len()), ((3, 2), 2));
        // a different number of values is another statement altogether
        assert!(pc.find("a < ?0i", &[]).is_none());

        // variants are what is counted and what is evicted, oldest first
        for i in 0..PLAN_CACHE_CAPACITY as i64 - 1 {
            let point = vec![KeyRange::eq(Value::Int(1000 + i))];
            serve(1000 + i, 3, point);
        }
        assert_eq!((pc.len(), pc.evictions()), (PLAN_CACHE_CAPACITY, 1));
        assert_eq!(serve(700, 9, Vec::new()), (Arc::new(2), true));
        assert_eq!(serve(7, 4, below(50)), (Arc::new(4), false), "evicted");
    }
}
