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
//! lookup serves a variant of the current epoch whose domains hold the
//! statement's values; values outside every variant's domains compile a
//! sibling, which is cached beside them.
//!
//! The variants of a key share the epoch they were compiled under. The epoch
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
use rcc_executor::Executable;
use rcc_flow::FlowAnalysis;
use rcc_lint::Diagnostic;
use rcc_optimizer::optimize::Optimized;
use rcc_optimizer::CCConstraint;
use rcc_sql::Anchor;
use rcc_storage::KeyRange;
use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;
use std::hash::{BuildHasher, Hash, Hasher};
use std::ops::{Bound, Range};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Most plans the cache holds. At ≈ 6 KiB a plan that is ≈ 25 MiB, and 16
/// times the largest warm working set of any workload or test.
pub const PLAN_CACHE_CAPACITY: usize = 4096;

/// A compiled query: the optimized plan, prepared for execution, plus the
/// binding-time metadata the server needs per execution.
#[derive(Debug)]
pub struct CompiledQuery {
    /// The optimizer's output.
    pub optimized: Optimized,
    /// `optimized.plan`, prepared for execution with the guard decisions
    /// `flow` certified: what every hit of this entry runs, binding its
    /// own slot values, and skipping the decided guards when the execution
    /// runs certified (guard elision on, no timeline floors).
    pub executable: Arc<Executable>,
    /// The query's currency clause, normalized: what `VERIFY` holds the
    /// plan to, and where a result cache reads its tightest bound.
    pub constraint: CCConstraint,
    /// Base tables the query reads (for timeline-consistency bookkeeping).
    pub tables: Arc<[TableId]>,
    /// Currency-clause lint diagnostics from compile time, attached to
    /// every result served from this plan.
    pub lint: Vec<LintWarning>,
    /// Currency dataflow analysis of the optimized plan (per-node
    /// delivered-staleness certificates).
    pub flow: FlowAnalysis,
}

/// A lint diagnostic of a compilation, as results report it. The plan
/// serves every text of its shape, and the clause the diagnostic points at
/// stands elsewhere in a text whose literals are written wider.
#[derive(Debug)]
pub struct LintWarning {
    /// `lint: <diagnostic>`, worded for the text that was compiled.
    pub rendered: String,
    /// Where in `rendered` the diagnostic's `line:col` is written, and that
    /// position in the form that holds in every text of the shape (`None`
    /// for a synthesized diagnostic, which has no position).
    pub position: Option<(Range<usize>, Anchor)>,
}

impl LintWarning {
    /// The warning for a diagnostic found compiling `sql` (with `params`).
    pub fn new(diagnostic: &Diagnostic, sql: &str, params: &HashMap<String, Value>) -> Self {
        let rendered = format!("lint: {diagnostic}");
        let (line, col) = (diagnostic.line, diagnostic.col);
        let written = format!("[{line}:{col}]");
        let position = rendered.find(&written).filter(|_| line > 0).map(|at| {
            let digits = at + 1..at + written.len() - 1;
            (digits, Anchor::of(sql, params, line, col))
        });
        LintWarning { rendered, position }
    }

    /// The warning on a result for `sql`, another text of the shape: the
    /// same words, pointing where the clause stands in this one.
    pub fn for_text(&self, sql: &str, params: &HashMap<String, Value>) -> String {
        let Some((written, anchor)) = &self.position else {
            return self.rendered.clone();
        };
        let (line, col) = anchor.locate(sql, params);
        let mut out = String::with_capacity(self.rendered.len() + 4);
        out.push_str(&self.rendered[..written.start]);
        let _ = write!(out, "{line}:{col}");
        out.push_str(&self.rendered[written.end..]);
        out
    }
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
    /// Hashes the pinned values of statements and variants ([`Variants`]).
    hasher: RandomState,
}

#[derive(Debug)]
struct Entries<P> {
    by_key: HashMap<Arc<str>, Variants<P>>,
    /// Where every variant is — its key and the bucket of that shape —
    /// under its insertion number: eviction order.
    by_age: BTreeMap<u64, (Arc<str>, u64)>,
    /// Insertion number of the next variant.
    next: u64,
}

/// The variants of one key, all compiled under one epoch. There can be
/// thousands — a slot with a point domain (`a <> ?0`, the two spellings of
/// one join key in a shipped text) makes a variant per value — so they are
/// bucketed by the values they pin: a lookup compares the statement only
/// with variants that agree with it on every pinned slot.
#[derive(Debug)]
struct Variants<P> {
    epoch: u64,
    /// The slots *every* variant pins to a single value.
    pinned: Vec<usize>,
    /// The variants by the hash of their values in `pinned`, oldest first.
    buckets: HashMap<u64, Vec<Variant<P>>>,
}

/// One plan of a shape, and the slot values it is the plan for.
#[derive(Debug)]
struct Variant<P> {
    inserted: u64,
    /// Per slot, the values `plan` was proven for.
    domains: Vec<KeyRange>,
    plan: Arc<P>,
}

/// The one value `domain` holds, if it holds exactly one.
fn point(domain: &KeyRange) -> Option<&Value> {
    match (&domain.low, &domain.high) {
        (Bound::Included(low), Bound::Included(high)) if low == high => Some(low),
        _ => None,
    }
}

impl<P> Variant<P> {
    fn holds(&self, values: &[Value]) -> bool {
        self.domains.len() == values.len()
            && self.domains.iter().zip(values).all(|(d, v)| d.contains(v))
    }
}

impl<P> Variants<P> {
    fn new(epoch: u64) -> Variants<P> {
        Variants {
            epoch,
            pinned: Vec::new(),
            buckets: HashMap::new(),
        }
    }

    /// The bucket of a statement (or variant) holding `value(slot)` in each
    /// pinned slot; `None` if it has no such slot.
    fn bucket_of<'a>(
        &self,
        hasher: &RandomState,
        value: impl Fn(usize) -> Option<&'a Value>,
    ) -> Option<u64> {
        let mut state = hasher.build_hasher();
        for &slot in &self.pinned {
            value(slot)?.hash(&mut state);
        }
        Some(state.finish())
    }

    fn find(&self, hasher: &RandomState, values: &[Value]) -> Option<&Variant<P>> {
        let bucket = self.bucket_of(hasher, |slot| values.get(slot))?;
        self.buckets.get(&bucket)?.iter().find(|v| v.holds(values))
    }

    /// Add `variant` — in place of one with the same domains, if there is
    /// one (two sessions compiled at once) — keeping `by_age` in step.
    fn insert(
        &mut self,
        hasher: &RandomState,
        key: &Arc<str>,
        variant: Variant<P>,
        by_age: &mut BTreeMap<u64, (Arc<str>, u64)>,
    ) {
        let pins = |slot: usize| variant.domains.get(slot).and_then(point);
        if self.buckets.is_empty() {
            self.pinned = (0..variant.domains.len())
                .filter(|&slot| pins(slot).is_some())
                .collect();
        } else if !self.pinned.iter().all(|&slot| pins(slot).is_some()) {
            // a slot the others pin has room here: bucket on the rest
            self.pinned.retain(|&slot| pins(slot).is_some());
            for held in std::mem::take(&mut self.buckets).into_values().flatten() {
                let bucket = self
                    .bucket_of(hasher, |slot| point(&held.domains[slot]))
                    .expect("every variant pins these slots");
                by_age.insert(held.inserted, (Arc::clone(key), bucket));
                self.buckets.entry(bucket).or_default().push(held);
            }
        }
        let bucket = self
            .bucket_of(hasher, pins)
            .expect("only slots this variant pins are left");
        by_age.insert(variant.inserted, (Arc::clone(key), bucket));
        let variants = self.buckets.entry(bucket).or_default();
        match variants.iter_mut().find(|v| v.domains == variant.domains) {
            Some(same) => {
                by_age.remove(&same.inserted);
                *same = variant;
            }
            None => variants.push(variant),
        }
    }

    /// Drop the variant inserted as number `inserted` into `bucket`.
    fn remove(&mut self, bucket: u64, inserted: u64) {
        if let Some(variants) = self.buckets.get_mut(&bucket) {
            variants.retain(|v| v.inserted != inserted);
            if variants.is_empty() {
                self.buckets.remove(&bucket);
            }
        }
    }

    fn variants(&self) -> impl Iterator<Item = &Variant<P>> {
        self.buckets.values().flatten()
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
            hasher: RandomState::new(),
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

    /// (hits, misses) so far: lookups a cached plan answered, and lookups
    /// a plan was compiled for. In the front-end that is every `SELECT`,
    /// bare or under `VERIFY` / `EXPLAIN FLOW` (which render the plan they
    /// find instead of running it). What fails to compile — a text that
    /// does not parse or bind, a statement the role rejects — is neither.
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

    /// The plan of `key` for `values` — a variant of the current epoch whose
    /// domains hold them, counting a hit if there is one — and whether the
    /// key has any variant of the current epoch.
    fn lookup(&self, key: &str, values: &[Value]) -> (Option<Arc<P>>, bool) {
        let epoch = self.epoch();
        let mut entries = self.entries.lock();
        let Entries { by_key, by_age, .. } = &mut *entries;
        let Some(held) = by_key.get(key) else {
            return (None, false);
        };
        if held.epoch != epoch {
            for stale in held.variants() {
                by_age.remove(&stale.inserted);
            }
            by_key.remove(key);
            return (None, false);
        }
        match held.find(&self.hasher, values) {
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
            inserted: *next,
            domains,
            plan,
        };
        *next += 1;
        let held = by_key
            .entry(Arc::clone(&key))
            .or_insert_with(|| Variants::new(epoch));
        if held.epoch != epoch {
            // not looked up since the epoch moved: the new plan takes the
            // stale ones' place
            for stale in held.variants() {
                by_age.remove(&stale.inserted);
            }
            *held = Variants::new(epoch);
        }
        held.insert(&self.hasher, &key, variant, by_age);
        while by_age.len() > PLAN_CACHE_CAPACITY {
            let Some((oldest, (key, bucket))) = by_age.pop_first() else {
                break;
            };
            if let Some(held) = by_key.get_mut(&key) {
                held.remove(bucket, oldest);
                if held.buckets.is_empty() {
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
        pc.lookup(key, &[]).0
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
        assert!(pc.lookup("a < ?0i", &[]).0.is_none());

        // variants are what is counted and what is evicted, oldest first
        for i in 0..PLAN_CACHE_CAPACITY as i64 - 1 {
            let point = vec![KeyRange::eq(Value::Int(1000 + i))];
            serve(1000 + i, 3, point);
        }
        assert_eq!((pc.len(), pc.evictions()), (PLAN_CACHE_CAPACITY, 1));
        assert_eq!(serve(700, 9, Vec::new()), (Arc::new(2), true));
        assert_eq!(serve(7, 4, below(50)), (Arc::new(4), false), "evicted");
    }

    #[test]
    fn variants_are_found_through_the_values_they_pin() {
        let pc = cache();
        let key = "a = ?0i AND b <> ?1i";
        let serve = |a: i64, b: i64, plan: u32, domains: Vec<KeyRange>| {
            let compiled = move || Ok((plan, domains));
            pc.find_or_compile(key, &[Value::Int(a), Value::Int(b)], compiled)
                .unwrap()
        };
        let low = |b: i64| vec![KeyRange::less_than(Value::Int(50)), KeyRange::eq(b.into())];
        // one variant per value of the pinned slot, thousands of them
        for b in 0..3000 {
            assert_eq!(serve(7, b, b as u32, low(b)), (Arc::new(b as u32), false));
        }
        let buckets = |pc: &PlanCache<u32>| {
            let entries = pc.entries.lock();
            let shape = &entries.by_key[key];
            (shape.pinned.clone(), shape.buckets.len())
        };
        assert_eq!(buckets(&pc), (vec![1], 3000), "one variant a bucket");
        assert_eq!(serve(49, 2999, 0, Vec::new()), (Arc::new(2999), true));
        assert_eq!(serve(49, 0, 0, Vec::new()), (Arc::new(0), true));
        // same pinned value, first slot outside the domain: a sibling in
        // the same bucket
        let high = vec![KeyRange::at_least(Value::Int(50)), KeyRange::eq(5.into())];
        assert_eq!(serve(50, 5, 9000, high), (Arc::new(9000), false));
        assert_eq!(serve(51, 5, 0, Vec::new()), (Arc::new(9000), true));
        assert_eq!(serve(7, 5, 0, Vec::new()), (Arc::new(5), true));
        assert_eq!(buckets(&pc), (vec![1], 3000));
        // a variant with room in the slot the others pin: nothing is pinned
        // by all any more, and every variant is still found
        let any_b = vec![KeyRange::eq(Value::Int(60)), KeyRange::all()];
        assert_eq!(serve(60, 7777, 9001, any_b), (Arc::new(9001), false));
        assert_eq!(buckets(&pc), (vec![], 1));
        assert_eq!(serve(60, 123_456, 0, Vec::new()), (Arc::new(9001), true));
        assert_eq!(serve(7, 1234, 0, Vec::new()), (Arc::new(1234), true));
        assert_eq!(serve(51, 5, 0, Vec::new()), (Arc::new(9000), true));
        assert_eq!(pc.len(), 3002);
        // eviction still finds each variant where it now is
        for i in 0..PLAN_CACHE_CAPACITY {
            put(&pc, &format!("q{i}"));
        }
        assert_eq!((pc.len(), pc.evictions()), (PLAN_CACHE_CAPACITY, 3002));
        assert!(!pc.entries.lock().by_key.contains_key(key));
    }
}
