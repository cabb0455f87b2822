//! The sharded synthesis-result cache (paper Section IV-D).
//!
//! Synthesis is the dominant training cost, and prefix-graph states recur
//! as ε decays — the paper reports cache hit rates reaching 50% (32b) and
//! 10% (64b). The cache keys on the canonical present-node bitset of the
//! graph, so structurally identical states share one evaluation across all
//! actors.
//!
//! Since the task/backend redesign (DESIGN.md §12), every key is prefixed
//! with the inner evaluator's [`Evaluator::cache_discriminant`] — derived
//! from `(task_id, backend_id)` for task evaluators — so two tasks (or two
//! backends) can never alias an entry or a shard, even when they share one
//! cache.
//!
//! The module has two pieces. [`EvalCache`] is the sharded store and owns
//! every statistic. [`CachedEvaluator`] is a bare binding of one evaluator
//! to one `Arc<EvalCache>`: it exposes only [`CachedEvaluator::inner`] and
//! [`CachedEvaluator::store`]. Several bindings — one per experiment, or
//! per `(task, backend)` pair a resident server is optimizing — can share
//! a single store (see
//! [`crate::experiment::ExperimentBuilder::eval_cache`]), so all of them
//! draw from one memory budget and one statistics surface while the
//! discriminant prefix keeps their entries apart.
//!
//! The store is **N-way sharded** by canonical-key hash so concurrent
//! actors contend only on the shard their state maps to, not on one global
//! lock. Each shard has:
//!
//! - a bounded map with FIFO eviction (`capacity_per_shard`), so a long
//!   training run cannot grow the cache without bound;
//! - its own hit/miss/eviction counters (aggregated by the store's
//!   accessors);
//! - an **in-flight set** deduplicating concurrent misses: when several
//!   actors miss on the same state simultaneously, exactly one runs the
//!   evaluator and the rest block on the shard's condvar and reuse the
//!   result — with synthesis at about a millisecond per 16-bit state,
//!   duplicate evaluation is the expensive failure mode, not the blocking.

use crate::evaluator::{Evaluator, ObjectivePoint};
use prefix_graph::PrefixGraph;
use std::collections::{HashMap, HashSet, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex};

/// Sizing of an [`EvalCache`] store.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Number of independent shards (≥ 1; default 16).
    pub shards: usize,
    /// Maximum entries per shard before FIFO eviction (≥ 1).
    pub capacity_per_shard: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        CacheConfig {
            shards: 16,
            capacity_per_shard: 1 << 16,
        }
    }
}

impl CacheConfig {
    /// A config with `shards` shards and the default per-shard capacity.
    pub fn with_shards(shards: usize) -> Self {
        CacheConfig {
            shards,
            ..CacheConfig::default()
        }
    }
}

struct ShardState {
    map: HashMap<Vec<u64>, ObjectivePoint>,
    /// Insertion order of `map` keys, for FIFO eviction.
    order: VecDeque<Vec<u64>>,
    /// Keys currently being evaluated by some thread.
    inflight: HashSet<Vec<u64>>,
}

struct Shard {
    state: Mutex<ShardState>,
    ready: Condvar,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl Shard {
    fn new() -> Self {
        Shard {
            state: Mutex::new(ShardState {
                map: HashMap::new(),
                order: VecDeque::new(),
                inflight: HashSet::new(),
            }),
            ready: Condvar::new(),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }
}

/// Per-shard statistics snapshot (see [`EvalCache::shard_stats`]).
#[derive(Clone, Copy, Debug)]
pub struct ShardStats {
    /// Cache hits on this shard (including coalesced in-flight waits).
    pub hits: u64,
    /// Inner evaluations run for this shard.
    pub misses: u64,
    /// Entries evicted from this shard.
    pub evictions: u64,
    /// Current entry count.
    pub entries: usize,
}

/// The sharded, bounded memo store itself, decoupled from any one inner
/// evaluator.
///
/// A [`CachedEvaluator`] binds one evaluator to one store; several bindings
/// may share a single `Arc<EvalCache>` when distinct `(task, backend)`
/// oracles must share one memory budget and one statistics surface — the
/// shape the `prefixrl serve` daemon runs, where every job's evaluator is a
/// thin handle over the server's one store. Keys are prefixed with each
/// inner evaluator's [`Evaluator::cache_discriminant`], so co-tenant
/// oracles can never alias an entry.
pub struct EvalCache {
    shards: Vec<Shard>,
    capacity_per_shard: usize,
}

impl EvalCache {
    /// An empty store with explicit sizing.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `capacity_per_shard` is zero.
    pub fn new(cfg: CacheConfig) -> Self {
        assert!(cfg.shards > 0, "need at least one shard");
        assert!(cfg.capacity_per_shard > 0, "need nonzero shard capacity");
        EvalCache {
            shards: (0..cfg.shards).map(|_| Shard::new()).collect(),
            capacity_per_shard: cfg.capacity_per_shard,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards.len()
    }

    /// Cache hits so far (a wait on another thread's in-flight evaluation
    /// counts as a hit: the evaluator did not run again).
    pub fn hits(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.hits.load(Ordering::Relaxed))
            .sum()
    }

    /// Cache misses (inner evaluations) so far.
    pub fn misses(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.misses.load(Ordering::Relaxed))
            .sum()
    }

    /// Entries evicted by the per-shard capacity bound so far.
    pub fn evictions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.evictions.load(Ordering::Relaxed))
            .sum()
    }

    /// Hit rate in `[0, 1]` (0 when never queried).
    pub fn hit_rate(&self) -> f64 {
        let h = self.hits() as f64;
        let m = self.misses() as f64;
        if h + m == 0.0 {
            0.0
        } else {
            h / (h + m)
        }
    }

    /// Number of distinct states currently cached.
    pub fn unique_states(&self) -> usize {
        self.shards.iter().map(|s| lock(&s.state).map.len()).sum()
    }

    /// Per-shard statistics, for load-balance diagnostics.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards
            .iter()
            .map(|s| ShardStats {
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                evictions: s.evictions.load(Ordering::Relaxed),
                entries: lock(&s.state).map.len(),
            })
            .collect()
    }

    /// Evaluates `graph` through `inner`, memoizing under the inner
    /// evaluator's discriminant-prefixed canonical key. Concurrent misses
    /// on one key run `inner` once; the rest wait on the shard condvar.
    pub fn evaluate_with(&self, inner: &dyn Evaluator, graph: &PrefixGraph) -> ObjectivePoint {
        let key = Self::key_of(inner.cache_discriminant(), graph);
        let shard = self.shard_for(&key);
        let mut state = lock(&shard.state);
        loop {
            if let Some(p) = state.map.get(&key) {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                return *p;
            }
            if state.inflight.contains(&key) {
                // Another thread is evaluating this exact state: wait and
                // re-check (the result lands in `map`; if capacity pressure
                // evicted it before we woke, fall through to a fresh miss).
                state = shard.ready.wait(state).unwrap_or_else(|e| e.into_inner());
                continue;
            }
            break;
        }
        state.inflight.insert(key.clone());
        drop(state);

        let mut guard = InflightGuard {
            shard,
            key: &key,
            armed: true,
        };
        let point = inner.evaluate(graph);
        guard.armed = false;
        drop(guard); // releases the borrow of `key`; disarmed, so a no-op

        let mut state = lock(&shard.state);
        state.inflight.remove(&key);
        while state.map.len() >= self.capacity_per_shard {
            let Some(oldest) = state.order.pop_front() else {
                break;
            };
            state.map.remove(&oldest);
            shard.evictions.fetch_add(1, Ordering::Relaxed);
        }
        if state.map.insert(key.clone(), point).is_none() {
            state.order.push_back(key);
        }
        shard.misses.fetch_add(1, Ordering::Relaxed);
        drop(state);
        shard.ready.notify_all();
        point
    }

    /// The cache key of `graph` under an evaluator discriminant: the
    /// discriminant word followed by the canonical present-node bitset.
    fn key_of(discriminant: u64, graph: &PrefixGraph) -> Vec<u64> {
        let canon = graph.canonical_key();
        let mut key = Vec::with_capacity(canon.len() + 1);
        key.push(discriminant);
        key.extend(canon);
        key
    }

    fn shard_for(&self, key: &[u64]) -> &Shard {
        // FNV-1a over the key words; shards are typically a power of two
        // but any count works with the modulo.
        let mut h = 0xcbf2_9ce4_8422_2325u64;
        for word in key {
            h ^= word;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
        &self.shards[(h % self.shards.len() as u64) as usize]
    }
}

/// A thread-safe, sharded, bounded memoizing wrapper around any
/// [`Evaluator`]: one evaluator bound to an [`EvalCache`] store (its own by
/// default, or a shared one via [`CachedEvaluator::with_store`]).
pub struct CachedEvaluator<E> {
    inner: E,
    store: std::sync::Arc<EvalCache>,
}

impl<E: Evaluator> CachedEvaluator<E> {
    /// Wraps an evaluator with the default configuration (16 shards,
    /// 65 536 entries each).
    pub fn new(inner: E) -> Self {
        Self::with_config(inner, CacheConfig::default())
    }

    /// Wraps an evaluator with explicit sizing.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `capacity_per_shard` is zero.
    pub fn with_config(inner: E, cfg: CacheConfig) -> Self {
        Self::with_store(inner, std::sync::Arc::new(EvalCache::new(cfg)))
    }

    /// Binds an evaluator to an existing (possibly shared) store. Entries
    /// from co-tenant evaluators are isolated by the discriminant prefix.
    pub fn with_store(inner: E, store: std::sync::Arc<EvalCache>) -> Self {
        CachedEvaluator { inner, store }
    }

    /// The backing store: its statistics are the aggregate over every
    /// binding sharing it (hand a clone to another binding to share it).
    pub fn store(&self) -> &std::sync::Arc<EvalCache> {
        &self.store
    }

    /// Access to the wrapped evaluator.
    pub fn inner(&self) -> &E {
        &self.inner
    }

    /// The cache key of `graph` under the wrapped evaluator.
    #[cfg(test)]
    fn key_of(&self, graph: &PrefixGraph) -> Vec<u64> {
        EvalCache::key_of(self.inner.cache_discriminant(), graph)
    }
}

fn lock(m: &Mutex<ShardState>) -> std::sync::MutexGuard<'_, ShardState> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Unwind guard for an in-flight key: if the inner evaluator panics, the
/// key must leave the in-flight set and waiters must be woken, or every
/// thread blocked on that state would hang forever. The success path
/// disarms it and does its own (result-inserting) cleanup.
struct InflightGuard<'a> {
    shard: &'a Shard,
    key: &'a [u64],
    armed: bool,
}

impl Drop for InflightGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            lock(&self.shard.state).inflight.remove(self.key);
            self.shard.ready.notify_all();
        }
    }
}

impl<E: Evaluator> Evaluator for CachedEvaluator<E> {
    fn evaluate(&self, graph: &PrefixGraph) -> ObjectivePoint {
        self.store.evaluate_with(&self.inner, graph)
    }

    fn name(&self) -> &str {
        self.inner.name()
    }

    fn cache_discriminant(&self) -> u64 {
        self.inner.cache_discriminant()
    }

    fn bound_task_id(&self) -> Option<&str> {
        self.inner.bound_task_id()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::task::{Adder, TaskEvaluator};
    use prefix_graph::{structures, Action, Node};
    use std::sync::Arc;

    fn adder_analytical() -> TaskEvaluator {
        TaskEvaluator::analytical(Adder)
    }

    #[test]
    fn caches_repeat_evaluations() {
        let ev = CachedEvaluator::new(adder_analytical());
        let g = structures::sklansky(8);
        let a = ev.evaluate(&g);
        let b = ev.evaluate(&g);
        assert_eq!(a, b);
        assert_eq!(ev.store().hits(), 1);
        assert_eq!(ev.store().misses(), 1);
        assert_eq!(ev.store().unique_states(), 1);
        assert!((ev.store().hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn distinct_states_miss() {
        let ev = CachedEvaluator::new(adder_analytical());
        let g = prefix_graph::PrefixGraph::ripple(8);
        ev.evaluate(&g);
        let g2 = g.with_action(Action::Add(Node::new(5, 2))).unwrap();
        ev.evaluate(&g2);
        assert_eq!(ev.store().misses(), 2);
        assert_eq!(ev.store().hits(), 0);
    }

    #[test]
    fn same_structure_different_construction_hits() {
        let ev = CachedEvaluator::new(adder_analytical());
        let mut a = prefix_graph::PrefixGraph::ripple(8);
        a.apply(Action::Add(Node::new(6, 3))).unwrap();
        let b = prefix_graph::PrefixGraph::from_min_nodes(8, [Node::new(6, 3)]);
        ev.evaluate(&a);
        ev.evaluate(&b);
        assert_eq!(
            ev.store().hits(),
            1,
            "canonical key must unify equal graphs"
        );
    }

    #[test]
    fn concurrent_access_is_safe() {
        let ev = Arc::new(CachedEvaluator::new(adder_analytical()));
        let graphs: Vec<_> = (0..4)
            .map(|i| {
                let mut g = prefix_graph::PrefixGraph::ripple(10);
                g.apply(Action::Add(Node::new(7 - i, 2))).unwrap();
                g
            })
            .collect();
        std::thread::scope(|s| {
            for _ in 0..4 {
                let ev = Arc::clone(&ev);
                let graphs = graphs.clone();
                s.spawn(move || {
                    for g in &graphs {
                        ev.evaluate(g);
                    }
                });
            }
        });
        assert_eq!(ev.store().unique_states(), 4);
        assert_eq!(ev.store().hits() + ev.store().misses(), 16);
    }

    /// An evaluator that counts invocations and is slow enough that
    /// concurrent misses on one state overlap deterministically.
    struct SlowCounting {
        calls: AtomicU64,
    }

    impl Evaluator for SlowCounting {
        fn evaluate(&self, graph: &PrefixGraph) -> ObjectivePoint {
            self.calls.fetch_add(1, Ordering::SeqCst);
            std::thread::sleep(std::time::Duration::from_millis(100));
            ObjectivePoint {
                area: graph.size() as f64,
                delay: graph.depth() as f64,
            }
        }

        fn name(&self) -> &str {
            "slow-counting"
        }
    }

    #[test]
    fn concurrent_misses_on_same_state_evaluate_once() {
        let ev = Arc::new(CachedEvaluator::new(SlowCounting {
            calls: AtomicU64::new(0),
        }));
        let g = structures::sklansky(8);
        std::thread::scope(|s| {
            for _ in 0..4 {
                let ev = Arc::clone(&ev);
                let g = g.clone();
                s.spawn(move || ev.evaluate(&g));
            }
        });
        assert_eq!(
            ev.inner().calls.load(Ordering::SeqCst),
            1,
            "in-flight dedup must run the evaluator once"
        );
        assert_eq!(ev.store().misses(), 1);
        assert_eq!(ev.store().hits(), 3, "waiters count as hits");
    }

    #[test]
    fn panicking_evaluator_does_not_strand_waiters() {
        struct PanicOnce {
            panicked: std::sync::atomic::AtomicBool,
        }

        impl Evaluator for PanicOnce {
            fn evaluate(&self, graph: &PrefixGraph) -> ObjectivePoint {
                if !self.panicked.swap(true, Ordering::SeqCst) {
                    panic!("synthetic evaluator failure");
                }
                ObjectivePoint {
                    area: graph.size() as f64,
                    delay: 1.0,
                }
            }

            fn name(&self) -> &str {
                "panic-once"
            }
        }

        let ev = Arc::new(CachedEvaluator::new(PanicOnce {
            panicked: std::sync::atomic::AtomicBool::new(false),
        }));
        let g = structures::sklansky(8);
        // First evaluation panics inside the inner evaluator.
        let first = std::thread::scope(|s| s.spawn(|| ev.evaluate(&g)).join());
        assert!(first.is_err(), "first call must panic");
        // The in-flight entry must have been cleaned up by the unwind
        // guard, so a retry completes instead of hanging on the condvar.
        let (tx, rx) = std::sync::mpsc::channel();
        let retry_ev = Arc::clone(&ev);
        let retry_g = g.clone();
        std::thread::spawn(move || {
            let _ = tx.send(retry_ev.evaluate(&retry_g));
        });
        let point = rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .expect("retry hung: panicking evaluator leaked its in-flight key");
        assert_eq!(point.area, g.size() as f64);
        assert_eq!(ev.store().misses(), 1, "only the successful retry counts");
    }

    #[test]
    fn capacity_bound_evicts_fifo() {
        let ev = CachedEvaluator::with_config(
            adder_analytical(),
            CacheConfig {
                shards: 1,
                capacity_per_shard: 1,
            },
        );
        let g1 = prefix_graph::PrefixGraph::ripple(8);
        let g2 = structures::sklansky(8);
        ev.evaluate(&g1);
        ev.evaluate(&g2); // evicts g1
        assert_eq!(ev.store().unique_states(), 1);
        assert_eq!(ev.store().evictions(), 1);
        ev.evaluate(&g1); // miss again
        assert_eq!(ev.store().misses(), 3);
        assert_eq!(ev.store().hits(), 0);
    }

    #[test]
    fn shard_stats_cover_all_queries() {
        let ev = CachedEvaluator::with_config(adder_analytical(), CacheConfig::with_shards(8));
        assert_eq!(ev.store().shards(), 8);
        let mut g = prefix_graph::PrefixGraph::ripple(12);
        for m in 2..12u16 {
            g.apply(Action::Add(Node::new(m, 1))).ok();
            ev.evaluate(&g);
            ev.evaluate(&g);
        }
        let stats = ev.store().shard_stats();
        assert_eq!(stats.iter().map(|s| s.hits).sum::<u64>(), ev.store().hits());
        assert_eq!(
            stats.iter().map(|s| s.misses).sum::<u64>(),
            ev.store().misses()
        );
        assert_eq!(
            stats.iter().map(|s| s.entries).sum::<usize>(),
            ev.store().unique_states()
        );
        assert!(stats.iter().any(|s| s.entries > 0));
    }

    /// An oracle whose discriminant (and result) switches at runtime,
    /// standing in for two tasks sharing one cache: if the discriminant
    /// were not part of the key, mode B would hit mode A's stale entry.
    struct SwitchingOracle {
        mode_b: std::sync::atomic::AtomicBool,
    }

    impl Evaluator for SwitchingOracle {
        fn evaluate(&self, graph: &PrefixGraph) -> ObjectivePoint {
            let scale = if self.mode_b.load(Ordering::SeqCst) {
                100.0
            } else {
                1.0
            };
            ObjectivePoint {
                area: graph.size() as f64 * scale,
                delay: graph.depth() as f64 * scale,
            }
        }

        fn name(&self) -> &str {
            "switching"
        }

        fn cache_discriminant(&self) -> u64 {
            self.mode_b.load(Ordering::SeqCst) as u64
        }
    }

    #[test]
    fn discriminant_keeps_oracles_from_aliasing() {
        let ev = CachedEvaluator::new(SwitchingOracle {
            mode_b: std::sync::atomic::AtomicBool::new(false),
        });
        let g = structures::sklansky(8);
        let a = ev.evaluate(&g);
        assert_eq!(a.area, g.size() as f64);
        ev.inner().mode_b.store(true, Ordering::SeqCst);
        let b = ev.evaluate(&g);
        assert_eq!(
            b.area,
            g.size() as f64 * 100.0,
            "cache served a stale point across discriminants"
        );
        assert_eq!(
            ev.store().misses(),
            2,
            "same graph, different discriminant: miss"
        );
        assert_eq!(ev.store().hits(), 0);
        assert_eq!(ev.store().unique_states(), 2, "both keys live side by side");
        // Flipping back hits the original entry.
        ev.inner().mode_b.store(false, Ordering::SeqCst);
        assert_eq!(ev.evaluate(&g), a);
        assert_eq!(ev.store().hits(), 1);
    }

    #[test]
    fn task_evaluators_get_distinct_keys() {
        use crate::task::PrefixOr;
        let adder = CachedEvaluator::new(adder_analytical());
        let or = CachedEvaluator::new(TaskEvaluator::analytical(PrefixOr));
        let g = structures::sklansky(8);
        assert_ne!(
            adder.key_of(&g),
            or.key_of(&g),
            "same graph must key differently per task"
        );
        assert_eq!(adder.key_of(&g)[1..], or.key_of(&g)[1..], "same canon");
    }

    #[test]
    fn shared_store_isolates_tenants_and_pools_stats() {
        use crate::task::PrefixOr;
        let store = Arc::new(EvalCache::new(CacheConfig::with_shards(4)));
        let adder = CachedEvaluator::with_store(adder_analytical(), Arc::clone(&store));
        let or =
            CachedEvaluator::with_store(TaskEvaluator::analytical(PrefixOr), Arc::clone(&store));
        let g = structures::sklansky(8);
        let a = adder.evaluate(&g);
        // Same graph through the co-tenant binding: its own miss, never
        // the adder's entry (analytical points coincide numerically, so
        // assert via the counters, not the values).
        let _ = or.evaluate(&g);
        assert_eq!(store.misses(), 2, "tenants must not alias entries");
        assert_eq!(store.unique_states(), 2);
        // Re-querying through either binding hits the one shared store.
        assert_eq!(adder.evaluate(&g), a);
        let _ = or.evaluate(&g);
        assert_eq!(store.hits(), 2);
        assert!(
            Arc::ptr_eq(adder.store(), &store),
            "bindings share one store"
        );
    }

    #[test]
    #[should_panic(expected = "at least one shard")]
    fn zero_shards_rejected() {
        let _ = CachedEvaluator::with_config(
            adder_analytical(),
            CacheConfig {
                shards: 0,
                capacity_per_shard: 1,
            },
        );
    }
}
